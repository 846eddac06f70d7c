//! Native C emission from width-1 bytecode — the dlopen tier's backend.
//!
//! Where [`crate::emit_c`] renders a human-readable, limpetC++-style view
//! of the scalar IR, this emitter produces a *loadable* translation unit:
//! an `extern "C"` entry point compiled by the system toolchain
//! (`cc -O2 -fPIC -shared -ffp-contract=off`) and `dlopen`'d by the
//! harness as execution tier `native`, one rung above the bytecode VM.
//!
//! Bit-identity with the VM is the design constraint, so the emitter
//! translates the *bytecode program itself* — the exact instruction
//! stream the interpreter executes, including everything the bytecode
//! optimizer did — one C statement per instruction:
//!
//! * float/bool/int registers become `double`/`int`/`int64_t` locals
//!   living across the cell loop, like the interpreter's register file;
//! * `Add/Sub/Mul/Div` and comparisons become plain C operators
//!   (IEEE-identical under `-ffp-contract=off`, no fast-math);
//! * `FmaF` is emitted **unfused** (`a * b + c`) because the width-1
//!   interpreter never fuses; a `RushLarsen` gate update is one block
//!   with the engine's operations in its order;
//! * every `math` call, plus `Rem`/`Min`/`Max`, is routed through a
//!   function-pointer table ([`native_math_table`]) of the same Rust
//!   `f64` operations the VM calls — the C side never touches libm;
//! * LUT reads call back into the Rust interpolators through the same
//!   table, one call per column of a row lookup, so clamping and blending
//!   stay the interpreter's;
//! * structured control flow is already linearized to jumps, which
//!   become labels and `goto`s.
//!
//! Constants are printed as C99 hex floats, which round-trip `f64`
//! exactly. The emitted entry hard-codes the parent-absent behavior
//! (`HasParent` → false) because the harness always runs leaf kernels
//! without a parent view; a parented kernel must not be promoted.

use limpet_ir::MathFn;
use limpet_vm::{FBin, Instr, LutInterp, Program};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Version stamp for the emitted ABI + codegen strategy. Baked into the
/// persisted shared-object container key so a cached `.so` from an older
/// emitter is rejected instead of loaded with a mismatched ABI.
pub const NATIVE_EMITTER_VERSION: u32 = 1;

/// The symbol the emitted translation unit exports.
pub const NATIVE_ENTRY_SYMBOL: &str = "limpet_native_step";

/// A binary `f64` operation routed through the native call table.
pub type NativeBinFn = extern "C" fn(f64, f64) -> f64;

/// A LUT interpolation callback: `(ctx, table, col, key) -> value`.
///
/// # Safety
///
/// `ctx` must be the `lut_ctx` pointer stored alongside the callback —
/// a base pointer into the owning kernel's table array, valid for
/// `table` indices the emitted program uses.
pub type NativeLutFn = unsafe extern "C" fn(*const (), i64, i64, f64) -> f64;

/// Number of slots in the native call table: every [`MathFn`] plus
/// `Min`, `Max`, and `Rem`.
pub const NATIVE_TABLE_SLOTS: usize = MathFn::ALL.len() + 3;

/// Call-table slot of `f64::min`.
pub const SLOT_MIN: usize = MathFn::ALL.len();
/// Call-table slot of `f64::max`.
pub const SLOT_MAX: usize = MathFn::ALL.len() + 1;
/// Call-table slot of the float remainder (`Rust %`).
pub const SLOT_REM: usize = MathFn::ALL.len() + 2;

/// Call-table slot of a math function (its position in [`MathFn::ALL`]).
pub fn math_slot(f: MathFn) -> usize {
    MathFn::ALL
        .iter()
        .position(|&m| m == f)
        .expect("MathFn::ALL is exhaustive")
}

/// Builds the function-pointer table the emitted C calls through: one
/// monomorphic `extern "C"` wrapper per [`MathFn`] (unary functions
/// ignore their second argument, mirroring [`MathFn::eval`]), then
/// `min`, `max`, and `%`. Indices match [`math_slot`], [`SLOT_MIN`],
/// [`SLOT_MAX`], [`SLOT_REM`] — the contract between this module's two
/// halves.
pub fn native_math_table() -> [NativeBinFn; NATIVE_TABLE_SLOTS] {
    macro_rules! wrap {
        ($($v:ident),* $(,)?) => {
            [
                $({
                    extern "C" fn w(a: f64, b: f64) -> f64 {
                        MathFn::$v.eval(a, b)
                    }
                    w as NativeBinFn
                },)*
                {
                    extern "C" fn fmin_rs(a: f64, b: f64) -> f64 {
                        a.min(b)
                    }
                    fmin_rs as NativeBinFn
                },
                {
                    extern "C" fn fmax_rs(a: f64, b: f64) -> f64 {
                        a.max(b)
                    }
                    fmax_rs as NativeBinFn
                },
                {
                    extern "C" fn frem_rs(a: f64, b: f64) -> f64 {
                        a % b
                    }
                    frem_rs as NativeBinFn
                },
            ]
        };
    }
    wrap!(
        Exp, Expm1, Log, Log1p, Log10, Log2, Sqrt, Cbrt, Sin, Cos, Tan, Asin, Acos, Atan, Sinh,
        Cosh, Tanh, Abs, Floor, Ceil, Round, Pow, Atan2, CopySign,
    )
}

/// Formats an `f64` as a C literal that round-trips the exact bit
/// pattern: C99 hex-float for finite values, division idioms for the
/// non-finite ones.
fn c_f64(v: f64) -> String {
    if v.is_nan() {
        return "(0.0 / 0.0)".to_owned();
    }
    if v.is_infinite() {
        return if v > 0.0 {
            "(1.0 / 0.0)".to_owned()
        } else {
            "(-1.0 / 0.0)".to_owned()
        };
    }
    if v == 0.0 {
        return if v.is_sign_negative() {
            "-0.0".to_owned()
        } else {
            "0.0".to_owned()
        };
    }
    let bits = v.to_bits();
    let sign = if bits >> 63 == 1 { "-" } else { "" };
    let biased = ((bits >> 52) & 0x7ff) as i64;
    let mantissa = bits & 0xf_ffff_ffff_ffff;
    if biased == 0 {
        // Subnormal: value = 0.mantissa * 2^-1022.
        format!("{sign}0x0.{mantissa:013x}p-1022")
    } else {
        format!("{sign}0x1.{mantissa:013x}p{}", biased - 1023)
    }
}

/// Emits a self-contained C translation unit executing `program` (which
/// must be width-1) over a half-open cell range.
///
/// The exported entry is:
///
/// ```c
/// void limpet_native_step(double* state, double* const* ext,
///                         const double* params, double dt, double t,
///                         int64_t cell_begin, int64_t cell_end,
///                         int64_t stride, const limpet_mtab* m);
/// ```
///
/// `state` is the raw AoS storage (`state[cell * stride + var]`), `ext`
/// one base pointer per external array, `params` the kernel's parameter
/// snapshot in program order, and `m` the call table built by
/// [`native_math_table`] plus the LUT callbacks. The caller guarantees
/// AoS layout and no attached parent.
///
/// # Errors
///
/// Returns a description when the program uses an unsupported register
/// count (> `u16::MAX`, impossible by construction) — kept as a
/// `Result` so future instruction additions can reject rather than
/// miscompile.
pub fn emit_c_native(program: &Program, model: &str) -> Result<String, String> {
    let mut out = String::new();
    let w = &mut out;
    writeln!(
        w,
        "/* limpet-rs native kernel: {model} (emitter v{NATIVE_EMITTER_VERSION}) */"
    )
    .unwrap();
    writeln!(w, "#include <stdint.h>").unwrap();
    writeln!(w).unwrap();
    writeln!(w, "typedef double (*limpet_binfn)(double, double);").unwrap();
    writeln!(
        w,
        "typedef double (*limpet_lutfn)(const void*, int64_t, int64_t, double);"
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(w, "typedef struct {{").unwrap();
    writeln!(w, "  limpet_binfn fns[{NATIVE_TABLE_SLOTS}];").unwrap();
    writeln!(w, "  limpet_lutfn lut_linear;").unwrap();
    writeln!(w, "  limpet_lutfn lut_cubic;").unwrap();
    writeln!(w, "  const void* lut_ctx;").unwrap();
    writeln!(w, "}} limpet_mtab;").unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "void {NATIVE_ENTRY_SYMBOL}(double* state, double* const* ext,"
    )
    .unwrap();
    writeln!(
        w,
        "                       const double* params, double dt, double t,"
    )
    .unwrap();
    writeln!(
        w,
        "                       int64_t cell_begin, int64_t cell_end,"
    )
    .unwrap();
    writeln!(
        w,
        "                       int64_t stride, const limpet_mtab* m) {{"
    )
    .unwrap();
    // Registers live across the cell loop, zero-initialized once —
    // exactly the interpreter's RegFile lifetime.
    decl_regs(w, "double", "f", program.n_fregs, "0.0");
    decl_regs(w, "int", "b", program.n_bregs, "0");
    decl_regs(w, "int64_t", "i", program.n_iregs, "0");
    writeln!(
        w,
        "  for (int64_t cell = cell_begin; cell < cell_end; ++cell) {{"
    )
    .unwrap();

    let targets: BTreeSet<u32> = program
        .instrs
        .iter()
        .filter_map(|ins| match ins {
            Instr::Jump { target } | Instr::JumpIfNot { target, .. } => Some(*target),
            _ => None,
        })
        .collect();
    let end = program.instrs.len() as u32;
    let label = |t: u32| {
        if t >= end {
            "L_end".to_owned()
        } else {
            format!("L{t}")
        }
    };

    for (pc, ins) in program.instrs.iter().enumerate() {
        if targets.contains(&(pc as u32)) {
            writeln!(w, "  L{pc}: ;").unwrap();
        }
        emit_instr(w, ins, program, &label);
    }
    writeln!(w, "  L_end: ;").unwrap();
    writeln!(w, "  }}").unwrap();
    writeln!(w, "}}").unwrap();
    Ok(out)
}

fn decl_regs(w: &mut String, ty: &str, prefix: &str, n: usize, init: &str) {
    // One declaration per line keeps the golden tests greppable.
    for r in 0..n.max(1) {
        writeln!(w, "  {ty} {prefix}{r} = {init};").unwrap();
    }
}

/// The C expression for `a ⊕ b` under [`FBin`] — infix for the IEEE
/// primitives, a call-table slot for the rest.
fn fbin_expr(op: FBin, a: &str, b: &str) -> String {
    match op {
        FBin::Add => format!("{a} + {b}"),
        FBin::Sub => format!("{a} - {b}"),
        FBin::Mul => format!("{a} * {b}"),
        FBin::Div => format!("{a} / {b}"),
        FBin::Min => format!("m->fns[{SLOT_MIN}]({a}, {b})"),
        FBin::Max => format!("m->fns[{SLOT_MAX}]({a}, {b})"),
        FBin::Rem => format!("m->fns[{SLOT_REM}]({a}, {b})"),
    }
}

fn emit_instr(w: &mut String, ins: &Instr, program: &Program, label: &dyn Fn(u32) -> String) {
    use limpet_vm::{BBin, IBin};
    let state_at = |var: u16| format!("state[cell * stride + {var}]");
    let sym = |name: &Option<&String>| -> String {
        name.map(|s| format!(" /* {s} */")).unwrap_or_default()
    };
    let state_sym = |var: u16| sym(&program.state_vars.get(var as usize));
    let ext_sym = |var: u16| sym(&program.ext_vars.get(var as usize));
    match *ins {
        Instr::ConstF { dst, v } => writeln!(w, "    f{dst} = {};", c_f64(v)),
        Instr::ConstI { dst, v } => writeln!(w, "    i{dst} = INT64_C({v});"),
        Instr::ConstB { dst, v } => writeln!(w, "    b{dst} = {};", v as u8),
        Instr::MovF { dst, src } => writeln!(w, "    f{dst} = f{src};"),
        Instr::MovB { dst, src } => writeln!(w, "    b{dst} = b{src};"),
        Instr::MovI { dst, src } => writeln!(w, "    i{dst} = i{src};"),
        Instr::LoadParam { dst, idx } => writeln!(
            w,
            "    f{dst} = params[{idx}];{}",
            sym(&program.params.get(idx as usize))
        ),
        Instr::LoadDt { dst } => writeln!(w, "    f{dst} = dt;"),
        Instr::LoadTime { dst } => writeln!(w, "    f{dst} = t;"),
        Instr::CellIndex { dst } => writeln!(w, "    i{dst} = cell;"),
        Instr::LoadState { dst, var } => {
            writeln!(w, "    f{dst} = {};{}", state_at(var), state_sym(var))
        }
        Instr::StoreState { src, var } => {
            writeln!(w, "    {} = f{src};{}", state_at(var), state_sym(var))
        }
        Instr::LoadExt { dst, var } => {
            writeln!(w, "    f{dst} = ext[{var}][cell];{}", ext_sym(var))
        }
        Instr::StoreExt { src, var } => {
            writeln!(w, "    ext[{var}][cell] = f{src};{}", ext_sym(var))
        }
        // The harness never attaches a parent to a promoted kernel.
        Instr::HasParent { dst } => writeln!(w, "    b{dst} = 0;"),
        Instr::LoadParentState { dst, fallback, .. } => {
            writeln!(w, "    f{dst} = f{fallback};")
        }
        Instr::StoreParentState { .. } => writeln!(w, "    ; /* no parent */"),
        Instr::BinF { op, dst, a, b } => writeln!(
            w,
            "    f{dst} = {};",
            fbin_expr(op, &format!("f{a}"), &format!("f{b}"))
        ),
        Instr::BinFK { op, dst, a, k } => writeln!(
            w,
            "    f{dst} = {};",
            fbin_expr(op, &format!("f{a}"), &c_f64(k))
        ),
        Instr::BinKF { op, dst, k, a } => writeln!(
            w,
            "    f{dst} = {};",
            fbin_expr(op, &c_f64(k), &format!("f{a}"))
        ),
        Instr::LoadStateOp { op, dst, var, b } => writeln!(
            w,
            "    f{dst} = {};{}",
            fbin_expr(op, &format!("({})", state_at(var)), &format!("f{b}")),
            state_sym(var)
        ),
        Instr::LoadExtOp { op, dst, var, b } => writeln!(
            w,
            "    f{dst} = {};{}",
            fbin_expr(op, &format!("(ext[{var}][cell])"), &format!("f{b}")),
            ext_sym(var)
        ),
        Instr::NegF { dst, a } => writeln!(w, "    f{dst} = -f{a};"),
        // Unfused on purpose: the interpreter computes a*b then +c.
        Instr::FmaF { dst, a, b, c } => {
            writeln!(w, "    f{dst} = f{a} * f{b} + f{c};")
        }
        Instr::Math1 { f, dst, a } => writeln!(
            w,
            "    f{dst} = m->fns[{}](f{a}, 0.0); /* {} */",
            math_slot(f),
            f.name()
        ),
        Instr::Math2 { f, dst, a, b } => writeln!(
            w,
            "    f{dst} = m->fns[{}](f{a}, f{b}); /* {} */",
            math_slot(f),
            f.name()
        ),
        Instr::CmpF { pred, dst, a, b } => {
            writeln!(w, "    b{dst} = f{a} {} f{b};", cmpf_sym(pred))
        }
        Instr::CmpI { pred, dst, a, b } => {
            writeln!(w, "    b{dst} = i{a} {} i{b};", cmpi_sym(pred))
        }
        Instr::BinB { op, dst, a, b } => {
            let sym = match op {
                BBin::And => "&",
                BBin::Or => "|",
                BBin::Xor => "^",
            };
            writeln!(w, "    b{dst} = b{a} {sym} b{b};")
        }
        Instr::SelectF { dst, cond, a, b } => {
            writeln!(w, "    f{dst} = b{cond} ? f{a} : f{b};")
        }
        Instr::SelectB { dst, cond, a, b } => {
            writeln!(w, "    b{dst} = b{cond} ? b{a} : b{b};")
        }
        Instr::SIToFP { dst, a } => writeln!(w, "    f{dst} = (double)i{a};"),
        Instr::BinI { op, dst, a, b } => {
            // Wrapping arithmetic via unsigned (signed overflow is UB in C).
            let sym = match op {
                IBin::Add => "+",
                IBin::Sub => "-",
                IBin::Mul => "*",
            };
            writeln!(
                w,
                "    i{dst} = (int64_t)((uint64_t)i{a} {sym} (uint64_t)i{b});"
            )
        }
        // One callback per column, like the interpreter before it read
        // whole rows: the ABI stays per value, and no `dst` is the key.
        Instr::LutRow {
            table,
            key,
            interp,
            ref outs,
        } => {
            let callback = match interp {
                LutInterp::Vec | LutInterp::Scalar => "lut_linear",
                LutInterp::Cubic => "lut_cubic",
            };
            outs.iter().try_for_each(|(col, dst)| {
                writeln!(
                    w,
                    "    f{dst} = m->{callback}(m->lut_ctx, {table}, {col}, f{key});{}",
                    sym(&program.lut_tables.get(table as usize))
                )
            })
        }
        // The engine's operations in its order: `exp` and `fabs` through
        // the call table, both sides computed, the guard picking one.
        Instr::RushLarsen {
            dst,
            x,
            a,
            b,
            dt,
            diff,
        } => writeln!(
            w,
            "    {{ double e = m->fns[{exp}](f{b} * f{dt}, 0.0); \
             f{dst} = m->fns[{abs}](f{b}, 0.0) > {guard} \
             ? f{x} * e + f{a} / f{b} * (e - 1.0) : f{x} + f{diff} * f{dt}; }}",
            exp = math_slot(MathFn::Exp),
            abs = math_slot(MathFn::Abs),
            guard = c_f64(limpet_vm::RUSH_LARSEN_GUARD),
        ),
        Instr::Jump { target } => writeln!(w, "    goto {};", label(target)),
        Instr::JumpIfNot { cond, target } => {
            writeln!(w, "    if (!b{cond}) goto {};", label(target))
        }
        Instr::Ret => writeln!(w, "    goto L_end;"),
    }
    .unwrap();
}

fn cmpf_sym(pred: limpet_ir::CmpFPred) -> &'static str {
    use limpet_ir::CmpFPred as P;
    // Rust `==`/`!=`/`<`… on f64 and the C operators agree on every
    // input including NaN (both languages lower to the same IEEE
    // comparisons), so plain operators preserve bit-identity.
    match pred {
        P::Oeq => "==",
        P::One => "!=",
        P::Olt => "<",
        P::Ole => "<=",
        P::Ogt => ">",
        P::Oge => ">=",
    }
}

fn cmpi_sym(pred: limpet_ir::CmpIPred) -> &'static str {
    use limpet_ir::CmpIPred as P;
    match pred {
        P::Eq => "==",
        P::Ne => "!=",
        P::Slt => "<",
        P::Sle => "<=",
        P::Sgt => ">",
        P::Sge => ">=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_floats_round_trip() {
        for v in [
            1.0,
            -2.5,
            0.1,
            1e-300,
            -1e300,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MAX,
        ] {
            let lit = c_f64(v);
            // Parse the hex float back: sign 0x1.<mant>p<exp>.
            let s = lit.strip_prefix('-').unwrap_or(&lit);
            let neg = lit.starts_with('-');
            let body = s.strip_prefix("0x").expect(&lit);
            let (lead, rest) = body.split_once('.').expect(&lit);
            let (mant_hex, exp) = rest.split_once('p').expect(&lit);
            let mant = u64::from_str_radix(mant_hex, 16).unwrap();
            let exp: i64 = exp.parse().unwrap();
            let mut x = (if lead == "1" { 1.0 } else { 0.0 }) + mant as f64 / 2f64.powi(52);
            x *= 2f64.powi(exp as i32);
            if neg {
                x = -x;
            }
            assert_eq!(x.to_bits(), v.to_bits(), "{v} -> {lit}");
        }
        assert_eq!(c_f64(0.0), "0.0");
        assert_eq!(c_f64(-0.0), "-0.0");
        assert!(c_f64(f64::NAN).contains("0.0 / 0.0"));
        assert_eq!(c_f64(f64::INFINITY), "(1.0 / 0.0)");
        assert_eq!(c_f64(f64::NEG_INFINITY), "(-1.0 / 0.0)");
    }

    #[test]
    fn math_table_matches_slots() {
        let table = native_math_table();
        assert_eq!(table.len(), NATIVE_TABLE_SLOTS);
        for f in MathFn::ALL {
            let got = table[math_slot(f)](0.37, 2.0);
            let want = f.eval(0.37, 2.0);
            assert_eq!(got.to_bits(), want.to_bits(), "{}", f.name());
        }
        assert_eq!(table[SLOT_MIN](1.0, 2.0), 1.0);
        assert_eq!(table[SLOT_MAX](1.0, 2.0), 2.0);
        assert_eq!(table[SLOT_REM](7.5, 2.0), 7.5 % 2.0);
    }

    #[test]
    fn a_gate_update_is_one_statement_in_the_engines_operation_order() {
        let load = |dst| Instr::LoadState { dst, var: 0 };
        let program = Program {
            instrs: vec![
                load(0),
                load(1),
                load(2),
                Instr::LoadDt { dst: 3 },
                load(4),
                Instr::RushLarsen {
                    dst: 5,
                    x: 0,
                    a: 1,
                    b: 2,
                    dt: 3,
                    diff: 4,
                },
                Instr::StoreState { src: 5, var: 0 },
                Instr::Ret,
            ],
            n_fregs: 6,
            n_bregs: 0,
            n_iregs: 0,
            state_vars: vec!["x".into()],
            ext_vars: vec![],
            params: vec![],
            lut_tables: vec![],
            parent_vars: vec![],
        };
        let c = emit_c_native(&program, "gate").unwrap();
        let calls: Vec<&str> = c.lines().filter(|l| l.contains("m->fns[")).collect();
        let (exp, abs) = (math_slot(MathFn::Exp), math_slot(MathFn::Abs));
        let guard = c_f64(limpet_vm::RUSH_LARSEN_GUARD);
        assert_eq!(
            calls,
            [format!(
                "    {{ double e = m->fns[{exp}](f2 * f3, 0.0); f5 = m->fns[{abs}](f2, 0.0) > \
                 {guard} ? f0 * e + f1 / f2 * (e - 1.0) : f0 + f4 * f3; }}"
            )],
            "{c}"
        );
    }

    #[test]
    fn scalar_row_emits_one_lut_call_per_column_in_row_order() {
        let program = Program {
            instrs: vec![
                Instr::LoadExt { dst: 0, var: 0 },
                Instr::LutRow {
                    table: 0,
                    key: 0,
                    interp: LutInterp::Scalar,
                    outs: vec![(1, 2), (0, 1)].into(),
                },
                Instr::BinF {
                    op: FBin::Add,
                    dst: 3,
                    a: 1,
                    b: 2,
                },
                Instr::StoreState { src: 3, var: 0 },
                Instr::Ret,
            ],
            n_fregs: 4,
            n_bregs: 0,
            n_iregs: 0,
            state_vars: vec!["x".into()],
            ext_vars: vec!["Vm".into()],
            params: vec![],
            lut_tables: vec!["Vm".into()],
            parent_vars: vec![],
        };
        let c = emit_c_native(&program, "row").unwrap();
        let calls: Vec<&str> = c.lines().filter(|l| l.contains("m->lut_")).collect();
        assert_eq!(
            calls,
            [
                "    f2 = m->lut_linear(m->lut_ctx, 0, 1, f0); /* Vm */",
                "    f1 = m->lut_linear(m->lut_ctx, 0, 0, f0); /* Vm */",
            ],
            "{c}"
        );
    }
}
