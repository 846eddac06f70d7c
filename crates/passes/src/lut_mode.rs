//! Scalar-LUT interpolation mode.
//!
//! Marks every `lut.col` operation with `scalar_interp = true`. The
//! execution engine then interpolates with one scalar call per lane and row
//! (openCARP's `LUT_interpRow`) instead of the vectorized row interpolation
//! the paper contributes in §3.4.2.
//!
//! This models the configuration discussed in §5: Intel icc can vectorize
//! the compute loop when annotated with `omp simd`, but the LUT
//! interpolation function remains a scalar call, capping the speedup
//! (2.19x vs. limpetMLIR's 3.37x geomean). The `icc_comparison` bench uses
//! this pass to reproduce that gap.

use crate::{Pass, PassCtx};
use limpet_ir::{Module, OpKind};

/// Marks `lut.col` ops for per-lane scalar interpolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarLutMode;

impl Pass for ScalarLutMode {
    fn name(&self) -> &'static str {
        "scalar-lut-mode"
    }

    fn run(&self, module: &mut Module, ctx: &mut PassCtx) -> bool {
        let mut marked = 0u64;
        for func in module.funcs_mut() {
            let targets: Vec<_> = func
                .walk_ops()
                .into_iter()
                .filter(|&(_, _, op)| func.op(op).kind == OpKind::LutCol)
                .map(|(_, _, op)| op)
                .collect();
            for op in targets {
                func.op_mut(op).attrs.set("scalar_interp", true);
                marked += 1;
            }
        }
        if marked > 0 {
            module.attrs.set("lut_mode", "scalar");
        }
        ctx.count("lut-cols-marked", marked);
        marked > 0
    }
}

/// Marks `lut.col` ops for Catmull-Rom cubic interpolation — the spline
/// variant the paper's §7 lists as future work. Pairs with coarser table
/// steps for the same accuracy at a fraction of the memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct CubicLutMode;

impl Pass for CubicLutMode {
    fn name(&self) -> &'static str {
        "cubic-lut-mode"
    }

    fn run(&self, module: &mut Module, ctx: &mut PassCtx) -> bool {
        let mut marked = 0u64;
        for func in module.funcs_mut() {
            let targets: Vec<_> = func
                .walk_ops()
                .into_iter()
                .filter(|&(_, _, op)| func.op(op).kind == OpKind::LutCol)
                .map(|(_, _, op)| op)
                .collect();
            for op in targets {
                func.op_mut(op).attrs.set("interp", "cubic");
                marked += 1;
            }
        }
        if marked > 0 {
            module.attrs.set("lut_mode", "cubic");
            // Cubic accuracy allows a 4x coarser tabulation for the same
            // interpolation error; widen every table's step accordingly.
            for lut in &mut module.luts {
                lut.step *= 4.0;
            }
        }
        ctx.count("lut-cols-marked", marked);
        marked > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_ir::{Builder, Func, Module};

    #[test]
    fn marks_all_lut_cols() {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        let k = b.get_ext("Vm");
        let v0 = b.lut_col("Vm", 0, k);
        let v1 = b.lut_col("Vm", 1, k);
        let s = b.addf(v0, v1);
        b.set_state("x", s);
        b.ret(&[]);
        m.add_func(f);

        assert!(ScalarLutMode.run_on(&mut m));
        assert_eq!(m.attrs.str_of("lut_mode"), Some("scalar"));
        let f = m.func("compute").unwrap();
        let marked = f
            .walk_ops()
            .iter()
            .filter(|&&(_, _, op)| {
                f.op(op)
                    .attrs
                    .get("scalar_interp")
                    .and_then(|a| a.as_bool())
                    == Some(true)
            })
            .count();
        assert_eq!(marked, 2);
    }

    #[test]
    fn cubic_mode_marks_and_coarsens() {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        let k = b.get_ext("Vm");
        let v = b.lut_col("Vm", 0, k);
        b.set_state("x", v);
        b.ret(&[]);
        m.add_func(f);
        m.luts.push(limpet_ir::LutSpec {
            name: "Vm".into(),
            lo: -100.0,
            hi: 100.0,
            step: 0.05,
            func: "lut_Vm".into(),
            cols: vec!["c0".into()],
        });
        assert!(CubicLutMode.run_on(&mut m));
        assert_eq!(m.attrs.str_of("lut_mode"), Some("cubic"));
        assert!((m.luts[0].step - 0.2).abs() < 1e-12);
        let f = m.func("compute").unwrap();
        let marked = f
            .walk_ops()
            .iter()
            .filter(|&&(_, _, op)| f.op(op).attrs.str_of("interp") == Some("cubic"))
            .count();
        assert_eq!(marked, 1);
    }

    #[test]
    fn no_luts_no_change() {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        b.ret(&[]);
        m.add_func(f);
        assert!(!ScalarLutMode.run_on(&mut m));
    }
}
