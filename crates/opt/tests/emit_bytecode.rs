//! FileCheck-lite golden test for `limpet-opt --emit-bytecode`: the VM's
//! post-compile bytecode optimizer must fuse a mul feeding a single add
//! into one `fma` superinstruction and a Rush-Larsen gate update into one
//! `rush_larsen`, and `--no-bytecode-opt` must show the compiler's raw
//! mul/add stream.

use limpet_pm::filecheck;

/// A kernel whose bytecode is three state loads, a mul, an add, and a
/// store — the canonical Fma fusion shape.
const INPUT: &str = r#"
module @fma_kernel {
  func.func @compute() {
    %0 = limpet.get_state {var = "a"} : f64
    %1 = limpet.get_state {var = "b"} : f64
    %2 = limpet.get_state {var = "c"} : f64
    %3 = arith.mulf %0, %1 : f64
    %4 = arith.addf %3, %2 : f64
    limpet.set_state %4 {var = "c"} : f64
    func.return
  }
}
"#;

/// CHECK directives against the optimized disassembly: the counter line
/// reports one fusion, the listing holds an `fma`, and no separate
/// mul/add instruction survives.
const CHECKS_OPT: &str = "
// CHECK: fma-fused=1
// CHECK: // bytecode:
// CHECK: = fma(
// CHECK-NOT: = Mul(
// CHECK-NOT: = Add(
";

/// With the optimizer off the raw stream keeps the mul and add and no
/// `fma` or counter line appears.
const CHECKS_RAW: &str = "
// CHECK: // bytecode:
// CHECK: = Mul(
// CHECK-NEXT: = Add(
// CHECK-NOT: = fma(
// CHECK-NOT: bytecode-opt:
";

/// One Rush-Larsen gate update, `x` on `x' = a + b·x`, as the lowering
/// emits it at width 1.
const GATE: &str = r#"
module @gate_kernel {
  func.func @compute() {
    %0 = limpet.get_state {var = "x"} : f64
    %1 = limpet.get_state {var = "a"} : f64
    %2 = limpet.get_state {var = "b"} : f64
    %3 = limpet.get_state {var = "diff"} : f64
    %4 = limpet.dt : f64
    %5 = arith.mulf %2, %4 : f64
    %6 = math.exp %5 : f64
    %7 = arith.mulf %0, %6 : f64
    %8 = arith.constant 1.0 : f64
    %9 = arith.subf %6, %8 : f64
    %10 = arith.divf %1, %2 : f64
    %11 = arith.mulf %10, %9 : f64
    %12 = arith.addf %7, %11 : f64
    %13 = math.absf %2 : f64
    %14 = arith.constant 0.000000000001 : f64
    %15 = arith.cmpf ogt, %13, %14 : i1
    %16 = arith.mulf %3, %4 : f64
    %17 = arith.addf %0, %16 : f64
    %18 = arith.select %15, %12, %17 : f64
    limpet.set_state %18 {var = "x"} : f64
    func.return
  }
}
"#;

/// The optimizer turns the gate's twelve instructions into one, which the
/// listing prints with its five inputs.
const CHECKS_GATE: &str = "
// CHECK: rl-fused=1
// CHECK: // bytecode: 8 instrs
// CHECK: = dt
// CHECK-NEXT: f5 = rush_larsen(x f0, a f1, b f2, dt f4, diff f3)
// CHECK-NEXT: store state.x = f5
";

fn emit(extra: &[&str]) -> String {
    emit_from(INPUT, extra)
}

fn emit_from(input: &str, extra: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "limpet-opt-emit-bytecode-{}-{:?}.mlir",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, input).unwrap();
    let mut args: Vec<String> = vec!["--emit-bytecode".into(), path.display().to_string()];
    args.extend(extra.iter().map(|s| s.to_string()));
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = limpet_opt::run(&args, &mut out, &mut err);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 0, "stderr: {}", String::from_utf8_lossy(&err));
    String::from_utf8(out).unwrap()
}

#[test]
fn optimizer_fuses_mul_add_into_fma() {
    let output = emit(&[]);
    filecheck::check(&output, CHECKS_OPT).unwrap_or_else(|e| panic!("{e}\noutput:\n{output}"));
}

#[test]
fn no_bytecode_opt_shows_raw_mul_add_stream() {
    let output = emit(&["--no-bytecode-opt"]);
    filecheck::check(&output, CHECKS_RAW).unwrap_or_else(|e| panic!("{e}\noutput:\n{output}"));
}

#[test]
fn optimizer_fuses_a_gate_update_into_one_rush_larsen() {
    let output = emit_from(GATE, &[]);
    filecheck::check(&output, CHECKS_GATE).unwrap_or_else(|e| panic!("{e}\noutput:\n{output}"));
}
