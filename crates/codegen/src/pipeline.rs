//! The two compilation pipelines compared throughout the paper, plus the
//! ablation configurations of §4.4 and §5.
//!
//! * [`baseline`] — mimics openCARP's limpetC++ translation compiled by a
//!   general compiler that fails to vectorize the cell loop (§5): scalar
//!   kernel, scalar LUT interpolation (one opaque call per cell and table
//!   row, as openCARP's `LUT_interpRow`), array-of-structures state
//!   layout, and no IR-level optimization ([`BASELINE_PIPELINE`]).
//! * [`limpet_mlir`] — the paper's contribution: the preprocessor
//!   (constant propagation), canonicalization, CSE, LICM, DCE, full
//!   vectorization at the chosen ISA width, vectorized LUT interpolation,
//!   and the AoSoA data-layout transformation (§3.4.1).
//! * [`compiler_simd`] — the icc `omp simd` configuration of §5: vectorized
//!   arithmetic but scalar LUT calls and AoS layout.

use crate::lower::{lower_model, CodegenOptions, Lowered};
use limpet_easyml::Model;
use limpet_ir::Module;
use limpet_passes::{standard_pipeline_text, PipelineError, RunReport};

/// A vector instruction set of the evaluation platform (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorIsa {
    /// SSE: two f64 lanes.
    Sse,
    /// AVX2: four f64 lanes.
    Avx2,
    /// AVX-512: eight f64 lanes.
    Avx512,
}

impl VectorIsa {
    /// The number of f64 lanes.
    pub fn lanes(self) -> u32 {
        match self {
            VectorIsa::Sse => 2,
            VectorIsa::Avx2 => 4,
            VectorIsa::Avx512 => 8,
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            VectorIsa::Sse => "SSE",
            VectorIsa::Avx2 => "AVX2",
            VectorIsa::Avx512 => "AVX-512",
        }
    }

    /// All ISAs evaluated by the paper.
    pub const ALL: [VectorIsa; 3] = [VectorIsa::Sse, VectorIsa::Avx2, VectorIsa::Avx512];
}

/// The per-cell state storage layout (paper §3.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Array-of-structures: each cell's state variables are contiguous
    /// (openCARP's original layout; strided across cells).
    #[default]
    Aos,
    /// Array-of-structures-of-arrays: blocks of `block` cells store each
    /// state variable contiguously, enabling vector loads/stores.
    AoSoA {
        /// Cells per block; the paper uses the vector width.
        block: u32,
    },
}

impl Layout {
    /// The module-attribute spelling.
    pub fn attr_value(self) -> String {
        match self {
            Layout::Aos => "aos".to_owned(),
            Layout::AoSoA { block } => format!("aosoa{block}"),
        }
    }
}

/// Builds the baseline (openCARP limpetC++-style) module: scalar kernel,
/// scalar LUT interpolation, AoS layout.
///
/// # Examples
///
/// ```
/// let model = limpet_easyml::compile_model("M", "diff_x = -x;").unwrap();
/// let lowered = limpet_codegen::pipeline::baseline(&model);
/// assert_eq!(lowered.module.attrs.str_of("layout"), Some("aos"));
/// limpet_ir::verify_module(&lowered.module).unwrap();
/// ```
pub fn baseline(model: &Model) -> Lowered {
    baseline_with_report(model).0
}

/// [`baseline`], also returning the pass manager's execution report.
pub fn baseline_with_report(model: &Model) -> (Lowered, RunReport) {
    try_baseline_with_report(model).unwrap_or_else(|e| panic!("baseline pipeline failed: {e}"))
}

/// The pass pipeline of [`baseline`]: lookups marked scalar, nothing else.
pub const BASELINE_PIPELINE: &str = "scalar-lut-mode";

/// Non-panicking [`baseline_with_report`]: pipeline verification failures
/// come back as a structured [`PipelineError`].
pub fn try_baseline_with_report(model: &Model) -> Result<(Lowered, RunReport), PipelineError> {
    let mut lowered = lower_model(model, &CodegenOptions { use_lut: true });
    let report = try_apply_pipeline(&mut lowered.module, BASELINE_PIPELINE)?;
    lowered.module.attrs.set("layout", Layout::Aos.attr_value());
    lowered.module.attrs.set("pipeline", "baseline");
    Ok((lowered, report))
}

/// Non-panicking variant of the pipeline applier: parses `text` through
/// the workspace registry and runs it with verify-after-each-pass, handing
/// verification failures back as a structured [`PipelineError`] instead of
/// aborting the process. Pipeline *texts* are still in-tree constants, so
/// a parse failure of the text itself remains a panic.
pub fn try_apply_pipeline(module: &mut Module, text: &str) -> Result<RunReport, PipelineError> {
    let mut pm = limpet_passes::parse_pipeline(text)
        .unwrap_or_else(|e| panic!("in-tree pipeline '{text}' failed to parse: {e}"));
    pm.verify_each(true);
    pm.run(module)
}

/// The pipeline text a [`crate::pipeline`] builder would run for the
/// limpetMLIR configuration at `lanes` lanes — exposed so fault-tolerant
/// callers can re-run or inspect the exact pass sequence.
pub fn standard_text(lanes: u32) -> String {
    standard_pipeline_text(lanes)
}

/// Builds the limpetMLIR module at the given ISA width and layout.
///
/// # Examples
///
/// ```
/// use limpet_codegen::pipeline::{limpet_mlir, Layout, VectorIsa};
/// let model = limpet_easyml::compile_model("M", "diff_x = -x;").unwrap();
/// let lowered = limpet_mlir(&model, VectorIsa::Avx512, Layout::AoSoA { block: 8 });
/// assert_eq!(lowered.module.attrs.i64_of("vector_width"), Some(8));
/// limpet_ir::verify_module(&lowered.module).unwrap();
/// ```
pub fn limpet_mlir(model: &Model, isa: VectorIsa, layout: Layout) -> Lowered {
    limpet_mlir_with_report(model, isa, layout).0
}

/// [`limpet_mlir`], also returning the pass manager's execution report.
pub fn limpet_mlir_with_report(
    model: &Model,
    isa: VectorIsa,
    layout: Layout,
) -> (Lowered, RunReport) {
    try_limpet_mlir_with_report(model, isa, layout)
        .unwrap_or_else(|e| panic!("limpetMLIR pipeline failed: {e}"))
}

/// Non-panicking [`limpet_mlir_with_report`].
pub fn try_limpet_mlir_with_report(
    model: &Model,
    isa: VectorIsa,
    layout: Layout,
) -> Result<(Lowered, RunReport), PipelineError> {
    let mut lowered = lower_model(model, &CodegenOptions { use_lut: true });
    let report = try_apply_pipeline(&mut lowered.module, &standard_pipeline_text(isa.lanes()))?;
    lowered.module.attrs.set("layout", layout.attr_value());
    lowered.module.attrs.set("pipeline", "limpetMLIR");
    Ok((lowered, report))
}

/// Builds the "compiler auto-SIMD" module of §5 (icc with `omp simd`):
/// vectorized arithmetic, but scalar LUT interpolation and AoS layout.
pub fn compiler_simd(model: &Model, isa: VectorIsa) -> Lowered {
    compiler_simd_with_report(model, isa).0
}

/// [`compiler_simd`], also returning the pass manager's execution report.
pub fn compiler_simd_with_report(model: &Model, isa: VectorIsa) -> (Lowered, RunReport) {
    try_compiler_simd_with_report(model, isa)
        .unwrap_or_else(|e| panic!("compiler-simd pipeline failed: {e}"))
}

/// Non-panicking [`compiler_simd_with_report`].
pub fn try_compiler_simd_with_report(
    model: &Model,
    isa: VectorIsa,
) -> Result<(Lowered, RunReport), PipelineError> {
    let mut lowered = lower_model(model, &CodegenOptions { use_lut: true });
    // No preprocessor/CSE/LICM beyond what a general compiler would see;
    // vectorization only, then scalar LUT calls.
    let text = format!("vectorize{{width={}}},scalar-lut-mode", isa.lanes());
    let report = try_apply_pipeline(&mut lowered.module, &text)?;
    lowered.module.attrs.set("layout", Layout::Aos.attr_value());
    lowered.module.attrs.set("pipeline", "compiler-simd");
    Ok((lowered, report))
}

/// Builds a limpetMLIR module without the data-layout transformation
/// (AoS) — the ablation of §4.4.
pub fn limpet_mlir_aos(model: &Model, isa: VectorIsa) -> Lowered {
    limpet_mlir(model, isa, Layout::Aos)
}

/// Builds a limpetMLIR module with LUTs disabled entirely — the ablation
/// of §3.4.2 ("reaching more than 6x from the non-LUT version").
pub fn limpet_mlir_no_lut(model: &Model, isa: VectorIsa) -> Lowered {
    limpet_mlir_no_lut_with_report(model, isa).0
}

/// [`limpet_mlir_no_lut`], also returning the pass manager's execution
/// report.
pub fn limpet_mlir_no_lut_with_report(model: &Model, isa: VectorIsa) -> (Lowered, RunReport) {
    try_limpet_mlir_no_lut_with_report(model, isa)
        .unwrap_or_else(|e| panic!("limpetMLIR-noLUT pipeline failed: {e}"))
}

/// Non-panicking [`limpet_mlir_no_lut_with_report`].
pub fn try_limpet_mlir_no_lut_with_report(
    model: &Model,
    isa: VectorIsa,
) -> Result<(Lowered, RunReport), PipelineError> {
    let mut lowered = lower_model(model, &CodegenOptions { use_lut: false });
    let report = try_apply_pipeline(&mut lowered.module, &standard_pipeline_text(isa.lanes()))?;
    let block = isa.lanes();
    lowered
        .module
        .attrs
        .set("layout", Layout::AoSoA { block }.attr_value());
    lowered.module.attrs.set("pipeline", "limpetMLIR-noLUT");
    Ok((lowered, report))
}

/// Builds a limpetMLIR module using Catmull-Rom **spline** LUT
/// interpolation with 4x-coarsened tables — the future-work variant of
/// paper §7 ("an efficient spline interpolation method to replace or
/// complement ... the currently used linear interpolation"). Same
/// interpolation error at a quarter of the table memory.
pub fn limpet_mlir_spline(model: &Model, isa: VectorIsa) -> Lowered {
    limpet_mlir_spline_with_report(model, isa).0
}

/// [`limpet_mlir_spline`], also returning the pass manager's execution
/// report (the standard pipeline's passes followed by `cubic-lut-mode`).
pub fn limpet_mlir_spline_with_report(model: &Model, isa: VectorIsa) -> (Lowered, RunReport) {
    try_limpet_mlir_spline_with_report(model, isa)
        .unwrap_or_else(|e| panic!("limpetMLIR-spline pipeline failed: {e}"))
}

/// Non-panicking [`limpet_mlir_spline_with_report`].
pub fn try_limpet_mlir_spline_with_report(
    model: &Model,
    isa: VectorIsa,
) -> Result<(Lowered, RunReport), PipelineError> {
    let block = isa.lanes();
    let (mut lowered, mut report) =
        try_limpet_mlir_with_report(model, isa, Layout::AoSoA { block })?;
    let tail = try_apply_pipeline(&mut lowered.module, "cubic-lut-mode")?;
    report.passes.extend(tail.passes);
    report.dumps.extend(tail.dumps);
    lowered.module.attrs.set("pipeline", "limpetMLIR-spline");
    Ok((lowered, report))
}

/// Parses a layout attribute back (inverse of [`Layout::attr_value`]).
pub fn parse_layout(module: &Module) -> Layout {
    match module.attrs.str_of("layout") {
        Some(s) if s.starts_with("aosoa") => {
            let block: u32 = s["aosoa".len()..].parse().unwrap_or(1);
            Layout::AoSoA { block }
        }
        _ => Layout::Aos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_easyml::compile_model;
    use limpet_ir::{print_module, verify_module};

    const GATED: &str = "
Vm; .external(); .lookup(-100, 100, 0.5);
Iion; .external();
group{ g = 0.3; }.param();
diff_n = (n_inf - n) / tau;
n_inf = 1.0 / (1.0 + exp(-Vm / 10.0));
tau = 1.0 + 4.0 * exp(-Vm * Vm / 800.0);
n_init = 0.3;
n;.method(rush_larsen);
Iion = g * n * (Vm + 85.0);
";

    #[test]
    fn baseline_is_scalar_with_scalar_lut() {
        let m = compile_model("G", GATED).unwrap();
        let (l, report) = baseline_with_report(&m);
        let passes: Vec<&str> = report.passes.iter().map(|p| p.name).collect();
        assert_eq!(passes.join(","), BASELINE_PIPELINE);
        verify_module(&l.module).unwrap();
        assert_eq!(l.module.attrs.i64_of("vector_width"), None);
        assert_eq!(l.module.attrs.str_of("lut_mode"), Some("scalar"));
        assert_eq!(l.module.attrs.str_of("layout"), Some("aos"));
    }

    #[test]
    fn limpet_mlir_is_vector_with_vector_lut() {
        let m = compile_model("G", GATED).unwrap();
        let l = limpet_mlir(&m, VectorIsa::Avx512, Layout::AoSoA { block: 8 });
        verify_module(&l.module).unwrap();
        assert_eq!(l.module.attrs.i64_of("vector_width"), Some(8));
        assert_eq!(l.module.attrs.str_of("lut_mode"), None);
        assert_eq!(l.module.attrs.str_of("layout"), Some("aosoa8"));
        let text = print_module(&l.module);
        assert!(text.contains("vector<8xf64>"), "{text}");
        assert!(text.contains("lut.col"), "{text}");
    }

    #[test]
    fn isa_lane_counts() {
        assert_eq!(VectorIsa::Sse.lanes(), 2);
        assert_eq!(VectorIsa::Avx2.lanes(), 4);
        assert_eq!(VectorIsa::Avx512.lanes(), 8);
    }

    #[test]
    fn compiler_simd_has_vector_arith_scalar_lut() {
        let m = compile_model("G", GATED).unwrap();
        let l = compiler_simd(&m, VectorIsa::Avx512);
        verify_module(&l.module).unwrap();
        assert_eq!(l.module.attrs.i64_of("vector_width"), Some(8));
        assert_eq!(l.module.attrs.str_of("lut_mode"), Some("scalar"));
        assert_eq!(l.module.attrs.str_of("layout"), Some("aos"));
    }

    #[test]
    fn no_lut_pipeline_inlines_math() {
        let m = compile_model("G", GATED).unwrap();
        let l = limpet_mlir_no_lut(&m, VectorIsa::Avx512);
        verify_module(&l.module).unwrap();
        let text = print_module(&l.module);
        assert!(!text.contains("lut.col"));
        assert!(text.contains("math.exp"));
    }

    #[test]
    fn spline_pipeline_marks_cubic_and_coarsens_tables() {
        let m = compile_model("G", GATED).unwrap();
        let lin = limpet_mlir(&m, VectorIsa::Avx512, Layout::AoSoA { block: 8 });
        let spline = limpet_mlir_spline(&m, VectorIsa::Avx512);
        verify_module(&spline.module).unwrap();
        assert_eq!(spline.module.attrs.str_of("lut_mode"), Some("cubic"));
        assert!((spline.module.luts[0].step - lin.module.luts[0].step * 4.0).abs() < 1e-12);
    }

    #[test]
    fn layout_round_trip() {
        let m = compile_model("G", GATED).unwrap();
        for layout in [Layout::Aos, Layout::AoSoA { block: 8 }] {
            let l = limpet_mlir(&m, VectorIsa::Avx512, layout);
            assert_eq!(parse_layout(&l.module), layout);
        }
    }

    #[test]
    fn optimization_shrinks_op_count() {
        let m = compile_model("G", GATED).unwrap();
        let base = lower_model(&m, &CodegenOptions { use_lut: true });
        let mut opt = lower_model(&m, &CodegenOptions { use_lut: true });
        let pm = limpet_passes::standard_pipeline(1);
        pm.run(&mut opt.module).unwrap();
        let count = |md: &Module| md.func("compute").unwrap().walk_ops().len();
        assert!(
            count(&opt.module) <= count(&base.module),
            "optimized {} > baseline {}",
            count(&opt.module),
            count(&base.module)
        );
    }
}
