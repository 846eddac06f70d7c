//! Property test: for randomly generated kernels, the bytecode engine at
//! every lane width (1 = scalar, 2/4/8 = SSE/AVX2/AVX-512 emulation, with
//! the full optimization pipeline applied) computes the same per-cell
//! results as the reference tree-walking evaluator on the unoptimized
//! scalar module.
//!
//! This pins down the end-to-end semantics-preservation claim: constant
//! propagation, CSE, LICM, DCE, if-conversion, splat/broadcast insertion,
//! LUT vectorization, and the engine's lane loops may only differ from the
//! oracle by vmath (SVML stand-in) accuracy.

#![allow(clippy::needless_range_loop)]

use limpet_ir::{Builder, CmpFPred, Func, LutSpec, MathFn, Module, Type, ValueId};
use limpet_vm::{
    eval_func, CellStates, EvalContext, ExtArrays, Kernel, LutData, ModelInfo, SimContext,
    StateLayout,
};
use proptest::prelude::*;
use std::collections::HashMap;

const STATE_VARS: [&str; 4] = ["u1", "u2", "u3", "u4"];
const EXT_VARS: [&str; 2] = ["Vm", "Iion"];
const PARAMS: [(&str, f64); 2] = [("Cm", 2.5), ("beta", -0.75)];

/// Safe-ish unary math functions (total over ℝ, NaN-propagating).
const UNARY: [MathFn; 10] = [
    MathFn::Exp,
    MathFn::Tanh,
    MathFn::Sin,
    MathFn::Cos,
    MathFn::Abs,
    MathFn::Floor,
    MathFn::Ceil,
    MathFn::Round,
    MathFn::Sinh,
    MathFn::Cosh,
];

#[derive(Debug, Clone)]
enum Recipe {
    Const(f64),
    GetState(u8),
    GetExt(u8),
    Param(u8),
    Dt,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Min,
    Max,
    Math(u8),
    Cmp(u8),
    Select,
    If(Vec<Recipe>, Vec<Recipe>),
    Lut,
    SetState(u8),
}

fn leaf() -> impl Strategy<Value = Recipe> {
    prop_oneof![
        (-50.0f64..50.0).prop_map(Recipe::Const),
        (0u8..4).prop_map(Recipe::GetState),
        (0u8..1).prop_map(Recipe::GetExt),
        (0u8..2).prop_map(Recipe::Param),
        Just(Recipe::Dt),
        Just(Recipe::Add),
        Just(Recipe::Sub),
        Just(Recipe::Mul),
        Just(Recipe::Div),
        Just(Recipe::Neg),
        Just(Recipe::Min),
        Just(Recipe::Max),
        (0u8..10).prop_map(Recipe::Math),
        (0u8..6).prop_map(Recipe::Cmp),
        Just(Recipe::Select),
        Just(Recipe::Lut),
        (0u8..4).prop_map(Recipe::SetState),
    ]
}

fn recipe() -> impl Strategy<Value = Recipe> {
    leaf().prop_recursive(2, 20, 5, |inner| {
        (
            prop::collection::vec(inner.clone(), 1..4),
            prop::collection::vec(inner, 1..4),
        )
            .prop_map(|(t, e)| Recipe::If(t, e))
    })
}

/// Builds a compute function from recipes. `in_branch` suppresses stores
/// (if-regions must stay pure for if-conversion).
fn build(
    b: &mut Builder<'_>,
    recipes: &[Recipe],
    floats: &mut Vec<ValueId>,
    bools: &mut Vec<ValueId>,
    in_branch: bool,
) {
    for r in recipes {
        match r {
            Recipe::Const(v) => floats.push(b.const_f(*v)),
            Recipe::GetState(i) => floats.push(b.get_state(STATE_VARS[*i as usize % 4])),
            Recipe::GetExt(i) => floats.push(b.get_ext(EXT_VARS[*i as usize % EXT_VARS.len()])),
            Recipe::Param(i) => floats.push(b.param(PARAMS[*i as usize % 2].0)),
            Recipe::Dt => floats.push(b.dt()),
            Recipe::Neg => {
                if let Some(&x) = floats.last() {
                    let v = b.negf(x);
                    floats.push(v);
                }
            }
            Recipe::Add | Recipe::Sub | Recipe::Mul | Recipe::Div | Recipe::Min | Recipe::Max => {
                if floats.len() >= 2 {
                    let y = floats.pop().unwrap();
                    let x = *floats.last().unwrap();
                    let v = match r {
                        Recipe::Add => b.addf(x, y),
                        Recipe::Sub => b.subf(x, y),
                        Recipe::Mul => b.mulf(x, y),
                        Recipe::Div => b.divf(x, y),
                        Recipe::Min => b.minf(x, y),
                        _ => b.maxf(x, y),
                    };
                    floats.push(v);
                }
            }
            Recipe::Math(i) => {
                if let Some(&x) = floats.last() {
                    let v = b.math1(UNARY[*i as usize % UNARY.len()], x);
                    floats.push(v);
                }
            }
            Recipe::Cmp(i) => {
                if floats.len() >= 2 {
                    let preds = [
                        CmpFPred::Oeq,
                        CmpFPred::One,
                        CmpFPred::Olt,
                        CmpFPred::Ole,
                        CmpFPred::Ogt,
                        CmpFPred::Oge,
                    ];
                    let y = floats[floats.len() - 1];
                    let x = floats[floats.len() - 2];
                    bools.push(b.cmpf(preds[*i as usize % 6], x, y));
                }
            }
            Recipe::Select => {
                if floats.len() >= 2 && !bools.is_empty() {
                    let c = *bools.last().unwrap();
                    let y = floats.pop().unwrap();
                    let x = *floats.last().unwrap();
                    let v = b.select(c, x, y);
                    floats.push(v);
                }
            }
            Recipe::Lut => {
                if let Some(&x) = floats.last() {
                    let v = b.lut_col("Vm", 0, x);
                    floats.push(v);
                }
            }
            Recipe::SetState(i) => {
                if !in_branch {
                    if let Some(&x) = floats.last() {
                        b.set_state(STATE_VARS[*i as usize % 4], x);
                    }
                }
            }
            Recipe::If(t, e) => {
                if let Some(&c) = bools.last() {
                    let seed = match floats.last() {
                        Some(&v) => v,
                        None => {
                            let v = b.const_f(0.0);
                            floats.push(v);
                            v
                        }
                    };
                    let res = b.if_op(
                        c,
                        &[Type::F64],
                        |bb| {
                            let mut fs = vec![seed];
                            let mut bs = vec![];
                            build(bb, t, &mut fs, &mut bs, true);
                            let last = *fs.last().unwrap();
                            bb.yield_(&[last]);
                        },
                        |bb| {
                            let mut fs = vec![seed];
                            let mut bs = vec![];
                            build(bb, e, &mut fs, &mut bs, true);
                            let last = *fs.last().unwrap();
                            bb.yield_(&[last]);
                        },
                    );
                    floats.push(res[0]);
                }
            }
        }
    }
}

fn make_module(recipes: &[Recipe]) -> Module {
    let mut m = Module::new("prop");
    // LUT table: tanh over a narrow range (clamping handles the rest).
    let mut lf = Func::new("lut_Vm", &[Type::F64], &[Type::F64]);
    let arg = lf.args()[0];
    let mut lb = Builder::new(&mut lf);
    let t = lb.math1(MathFn::Tanh, arg);
    lb.ret(&[t]);
    m.add_func(lf);
    m.luts.push(LutSpec {
        name: "Vm".into(),
        lo: -20.0,
        hi: 20.0,
        step: 0.25,
        func: "lut_Vm".into(),
        cols: vec!["c0".into()],
    });

    let mut f = Func::new("compute", &[], &[]);
    let mut b = Builder::new(&mut f);
    let mut floats = Vec::new();
    let mut bools = Vec::new();
    build(&mut b, recipes, &mut floats, &mut bools, false);
    // Always store something so the kernel is observable.
    let last = match floats.last() {
        Some(&v) => v,
        None => b.const_f(1.0),
    };
    b.set_state("u1", last);
    b.ret(&[]);
    m.add_func(f);
    m
}

/// Oracle context for one cell.
struct OneCell {
    states: HashMap<String, f64>,
    exts: HashMap<String, f64>,
    params: HashMap<String, f64>,
    lut: LutData,
    dt: f64,
    t: f64,
}

impl EvalContext for OneCell {
    fn param(&self, name: &str) -> f64 {
        *self.params.get(name).unwrap_or(&0.0)
    }
    fn get_state(&mut self, var: &str) -> f64 {
        self.states[var]
    }
    fn set_state(&mut self, var: &str, v: f64) {
        self.states.insert(var.to_owned(), v);
    }
    fn get_ext(&mut self, var: &str) -> f64 {
        self.exts[var]
    }
    fn set_ext(&mut self, var: &str, v: f64) {
        self.exts.insert(var.to_owned(), v);
    }
    fn dt(&self) -> f64 {
        self.dt
    }
    fn time(&self) -> f64 {
        self.t
    }
    fn lut_col(&mut self, _table: &str, col: usize, key: f64) -> f64 {
        let mut out = [0.0];
        self.lut.interp_block(&[key], col, &mut out);
        out[0]
    }
}

/// The storage binding every generated kernel is compiled against.
fn model_info() -> ModelInfo {
    ModelInfo {
        state_names: STATE_VARS.iter().map(|s| s.to_string()).collect(),
        state_inits: vec![0.0; 4],
        ext_names: EXT_VARS.iter().map(|s| s.to_string()).collect(),
        ext_inits: vec![0.0; 2],
        params: PARAMS.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    }
}

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    if a == b {
        return true;
    }
    let denom = a.abs().max(b.abs()).max(1e-30);
    (a - b).abs() / denom < 1e-8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_oracle_at_all_widths(
        recipes in prop::collection::vec(recipe(), 1..30),
        seeds in prop::collection::vec(-10.0f64..10.0, 8),
    ) {
        let module = make_module(&recipes);
        limpet_ir::verify_module(&module).expect("generated module verifies");

        let info = model_info();
        let n_cells = 8;
        let ctx = SimContext { dt: 0.02, t: 1.5 };

        // Oracle: evaluate the unoptimized scalar module per cell.
        let lut = LutData::build(-20.0, 20.0, 0.25, 1, |k, out| out[0] = k.tanh());
        let mut oracle_states: Vec<HashMap<String, f64>> = Vec::new();
        for cell in 0..n_cells {
            let mut cc = OneCell {
                states: STATE_VARS
                    .iter()
                    .enumerate()
                    .map(|(v, s)| (s.to_string(), seeds[cell] * 0.5 + v as f64 * 0.25))
                    .collect(),
                exts: EXT_VARS
                    .iter()
                    .map(|s| (s.to_string(), seeds[cell]))
                    .collect(),
                params: PARAMS.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
                lut: lut.clone(),
                dt: ctx.dt,
                t: ctx.t,
            };
            eval_func(&module, "compute", &[], &mut cc).expect("oracle evaluation");
            oracle_states.push(cc.states);
        }

        // Engine at each width, with the full pass pipeline applied.
        for width in [1u32, 2, 4, 8] {
            let mut m = module.clone();
            let pm = limpet_passes::standard_pipeline(width);
            pm.run(&mut m).expect("pipeline runs");
            limpet_ir::verify_module(&m).expect("optimized module verifies");
            let kernel = Kernel::from_module(&m, &info).expect("bytecode compiles");

            let layout = if width == 1 {
                StateLayout::Aos
            } else {
                StateLayout::AoSoA { block: width as usize }
            };
            let mut st: CellStates = kernel.new_states(n_cells, layout);
            let mut ext: ExtArrays = kernel.new_ext(n_cells);
            for cell in 0..n_cells {
                for v in 0..4 {
                    st.set(cell, v, seeds[cell] * 0.5 + v as f64 * 0.25);
                }
                ext.set(cell, 0, seeds[cell]);
                ext.set(cell, 1, seeds[cell]);
            }
            kernel.run_step(&mut st, &mut ext, None, ctx);

            for cell in 0..n_cells {
                for (v, name) in STATE_VARS.iter().enumerate() {
                    let got = st.get(cell, v);
                    let want = oracle_states[cell][*name];
                    prop_assert!(
                        close(got, want),
                        "width {width}, cell {cell}, state {name}: engine {got} vs oracle {want}"
                    );
                }
            }
        }
    }

    /// The bytecode optimizer must be bit-exact on arbitrary synthetic
    /// IR, not just roster models: same program, optimizer on vs off,
    /// identical `CellStates` and ext arrays to the last bit.
    #[test]
    fn bytecode_optimizer_is_bit_exact_on_random_ir(
        recipes in prop::collection::vec(recipe(), 1..30),
        seeds in prop::collection::vec(-10.0f64..10.0, 8),
    ) {
        let module = make_module(&recipes);
        limpet_ir::verify_module(&module).expect("generated module verifies");
        let info = model_info();
        let n_cells = 8;
        let ctx = SimContext { dt: 0.02, t: 1.5 };

        for width in [1u32, 4, 8] {
            let mut m = module.clone();
            let pm = limpet_passes::standard_pipeline(width);
            pm.run(&mut m).expect("pipeline runs");
            let (opt, stats, _) =
                Kernel::from_module_opt(&m, &info, true).expect("optimized compile");
            let (unopt, ..) =
                Kernel::from_module_opt(&m, &info, false).expect("unoptimized compile");
            prop_assert!(stats.instrs_after <= stats.instrs_before);

            let layout = if width == 1 {
                StateLayout::Aos
            } else {
                StateLayout::AoSoA { block: width as usize }
            };
            let run = |kernel: &Kernel| {
                let mut st: CellStates = kernel.new_states(n_cells, layout);
                let mut ext: ExtArrays = kernel.new_ext(n_cells);
                for cell in 0..n_cells {
                    for v in 0..4 {
                        st.set(cell, v, seeds[cell] * 0.5 + v as f64 * 0.25);
                    }
                    ext.set(cell, 0, seeds[cell]);
                    ext.set(cell, 1, seeds[cell]);
                }
                kernel.run_step(&mut st, &mut ext, None, ctx);
                (st, ext)
            };
            let (st_opt, ext_opt) = run(&opt);
            let (st_ref, ext_ref) = run(&unopt);
            for cell in 0..n_cells {
                for (v, name) in STATE_VARS.iter().enumerate() {
                    prop_assert_eq!(
                        st_opt.get(cell, v).to_bits(),
                        st_ref.get(cell, v).to_bits(),
                        "width {}, cell {}, state {}: optimized {} vs reference {}",
                        width, cell, name, st_opt.get(cell, v), st_ref.get(cell, v)
                    );
                }
                for (v, name) in EXT_VARS.iter().enumerate() {
                    prop_assert_eq!(
                        ext_opt.get(cell, v).to_bits(),
                        ext_ref.get(cell, v).to_bits(),
                        "width {}, cell {}, ext {}: optimized {} vs reference {}",
                        width, cell, name, ext_opt.get(cell, v), ext_ref.get(cell, v)
                    );
                }
            }
        }
    }
    /// However a kernel is run it computes the same bits: `run_step`
    /// (several blocks per dispatch where the program allows it, on the
    /// widest instruction set the CPU has) against `run_step_profiled` (one
    /// block per dispatch, portable build). The raw module keeps its `if`s
    /// as jumps on lane 0 of a block, which is only the same computation
    /// when such a program is *not* batched.
    #[test]
    fn batched_step_is_bit_identical_to_the_profiled_reference(
        recipes in prop::collection::vec(recipe(), 1..30),
        seeds in prop::collection::vec(-10.0f64..10.0, 8),
    ) {
        let module = make_module(&recipes);
        let info = model_info();
        // One batch and a ragged end at width 8, more batches below it.
        let n_cells = 40;
        let ctx = SimContext { dt: 0.02, t: 1.5 };

        for width in [1u32, 2, 4, 8] {
            let mut optimized = module.clone();
            limpet_passes::standard_pipeline(width).run(&mut optimized).expect("pipeline runs");
            let mut raw = module.clone();
            raw.attrs.set("vector_width", i64::from(width));
            for (what, m) in [("optimized", &optimized), ("raw", &raw)] {
                let kernel = Kernel::from_module(m, &info).expect("bytecode compiles");
                for layout in [StateLayout::Aos, StateLayout::AoSoA { block: width as usize }] {
                    let mut st: CellStates = kernel.new_states(n_cells, layout);
                    let mut ext: ExtArrays = kernel.new_ext(n_cells);
                    for cell in 0..n_cells {
                        let seed = seeds[cell % 8] + 0.37 * (cell / 8) as f64;
                        for v in 0..4 {
                            st.set(cell, v, seed * 0.5 + v as f64 * 0.25);
                        }
                        ext.set(cell, 0, seed);
                        ext.set(cell, 1, seed);
                    }
                    let (mut ref_st, mut ref_ext) = (st.clone(), ext.clone());
                    kernel.run_step(&mut st, &mut ext, None, ctx);
                    kernel.run_step_profiled(&mut ref_st, &mut ref_ext, None, ctx);
                    for cell in 0..n_cells {
                        for (v, name) in STATE_VARS.iter().enumerate() {
                            prop_assert_eq!(
                                st.get(cell, v).to_bits(),
                                ref_st.get(cell, v).to_bits(),
                                "{} width {} {:?}, cell {}, state {}: {} vs reference {}",
                                what, width, layout, cell, name, st.get(cell, v), ref_st.get(cell, v)
                            );
                        }
                        for (v, name) in EXT_VARS.iter().enumerate() {
                            prop_assert_eq!(
                                ext.get(cell, v).to_bits(),
                                ref_ext.get(cell, v).to_bits(),
                                "{} width {} {:?}, cell {}, ext {}: {} vs reference {}",
                                what, width, layout, cell, name, ext.get(cell, v), ref_ext.get(cell, v)
                            );
                        }
                    }
                }
            }
        }
    }
}
