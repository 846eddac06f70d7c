//! # limpet — MLIR-style optimizing code generation for cardiac ionic models
//!
//! A from-scratch Rust reproduction of **limpetMLIR** (Thangamani, Trevisan
//! Jost, Loechner, Genaud, Bramas: *Lifting Code Generation of Cardiac
//! Physiology Simulation to Novel Compiler Technology*, CGO 2023): a
//! compiler that lifts ionic-model descriptions written in the EasyML DSL
//! through a multi-dialect SSA IR into fully vectorized compute kernels,
//! outperforming openCARP's naive scalar translation.
//!
//! This crate is the facade: it re-exports the subsystem crates and offers
//! the high-level [`Compiler`] entry point.
//!
//! | layer | crate |
//! |---|---|
//! | EasyML frontend | [`easyml`] ([`limpet_easyml`]) |
//! | mlir-lite IR | [`ir`] ([`limpet_ir`]) |
//! | transformation passes | [`passes`] ([`limpet_passes`]) |
//! | code generation & pipelines | [`codegen`] ([`limpet_codegen`]) |
//! | bytecode VM + SIMD emulation | [`vm`] ([`limpet_vm`]) |
//! | 43-model suite | [`models`] ([`limpet_models`]) |
//! | linear solvers / monodomain | [`solver`] ([`limpet_solver`]) |
//! | experiment harness | [`harness`] ([`limpet_harness`]) |
//!
//! # Examples
//!
//! Compile an ionic model and run a short simulation:
//!
//! ```
//! use limpet::{Compiler, Isa};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//!     Vm; .external(); .lookup(-100, 100, 0.05);
//!     Iion; .external();
//!     group{ g = 0.3; }.param();
//!     diff_n = (n_inf - n) / 5.0;
//!     n_inf = 1.0 / (1.0 + exp(-(Vm + 30.0) / 10.0));
//!     n_init = 0.1;
//!     n;.method(rush_larsen);
//!     Iion = g * n * (Vm + 85.0);
//! ";
//! let compiled = Compiler::new().isa(Isa::Avx512).compile("demo", src)?;
//! let mut sim = compiled.simulation(256, 0.01);
//! sim.run(100);
//! assert!(sim.vm(0).is_finite());
//! println!("{}", compiled.ir_text());   // MLIR-style textual IR
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use limpet_codegen as codegen;
pub use limpet_easyml as easyml;
pub use limpet_harness as harness;
pub use limpet_ir as ir;
pub use limpet_models as models;
pub use limpet_passes as passes;
pub use limpet_solver as solver;
pub use limpet_vm as vm;

use limpet_codegen::pipeline::VectorIsa;
use limpet_easyml::Model;
use limpet_harness::{CompiledKernel, KernelCache, PipelineKind, Simulation, Workload};
use limpet_ir::Module;
use limpet_passes::RunReport;
use std::fmt;
use std::sync::Arc;

/// Target vector instruction set (paper §4 evaluates SSE/AVX2/AVX-512).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Isa {
    /// Scalar baseline (openCARP limpetC++-style code generation).
    Scalar,
    /// SSE: 2 × f64.
    Sse,
    /// AVX2: 4 × f64.
    Avx2,
    /// AVX-512: 8 × f64 (the paper's headline configuration).
    #[default]
    Avx512,
}

impl Isa {
    fn vector_isa(self) -> Option<VectorIsa> {
        match self {
            Isa::Scalar => None,
            Isa::Sse => Some(VectorIsa::Sse),
            Isa::Avx2 => Some(VectorIsa::Avx2),
            Isa::Avx512 => Some(VectorIsa::Avx512),
        }
    }
}

/// Errors from the high-level API.
#[derive(Debug)]
pub enum CompileError {
    /// The EasyML source failed to parse or analyze.
    Frontend(Box<dyn std::error::Error>),
    /// The generated module failed verification (a compiler bug).
    Verify(limpet_ir::VerifyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "frontend error: {e}"),
            CompileError::Verify(e) => write!(f, "verification error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// High-level compiler entry point: EasyML source → optimized, executable
/// kernel.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    isa: Isa,
    aos_layout: bool,
    disable_lut: bool,
}

impl Compiler {
    /// Creates a compiler with the default (AVX-512, AoSoA, LUT-enabled)
    /// configuration.
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// Selects the target ISA ([`Isa::Scalar`] produces the openCARP-style
    /// baseline).
    pub fn isa(mut self, isa: Isa) -> Compiler {
        self.isa = isa;
        self
    }

    /// Disables the AoSoA data-layout transformation (paper §3.4.1).
    pub fn without_layout_transform(mut self) -> Compiler {
        self.aos_layout = true;
        self
    }

    /// Disables lookup tables (paper §3.4.2).
    pub fn without_lut(mut self) -> Compiler {
        self.disable_lut = true;
        self
    }

    /// Compiles an EasyML source string.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Frontend`] for malformed models.
    pub fn compile(&self, name: &str, source: &str) -> Result<Compiled, CompileError> {
        let model = limpet_easyml::compile_model(name, source).map_err(CompileError::Frontend)?;
        self.compile_model(model)
    }

    /// Compiles an already-analyzed model.
    ///
    /// Compilation goes through the process-wide
    /// [`limpet_harness::KernelCache`]: the first compile of a
    /// `(model, configuration)` pair lowers, optimizes, and
    /// bytecode-compiles; every later compile of the same pair (from this
    /// facade or from [`limpet_harness::Simulation::new`]) shares that
    /// entry. The per-pass timing of the cold compile is available via
    /// [`Compiled::pass_report`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if the generated IR fails
    /// verification.
    pub fn compile_model(&self, model: Model) -> Result<Compiled, CompileError> {
        let kind = match self.isa.vector_isa() {
            None => PipelineKind::Baseline,
            Some(isa) => {
                if self.disable_lut {
                    PipelineKind::LimpetMlirNoLut(isa)
                } else if self.aos_layout {
                    PipelineKind::LimpetMlirAos(isa)
                } else {
                    PipelineKind::LimpetMlir(isa)
                }
            }
        };
        let entry = KernelCache::global().get_or_compile(&model, kind);
        limpet_ir::verify_module(entry.module()).map_err(CompileError::Verify)?;
        Ok(Compiled { model, kind, entry })
    }
}

/// A compiled model: the checked frontend model plus a shared
/// [`KernelCache`] entry holding the optimized IR module and the
/// executable kernel — repeated [`Compiled::kernel`] /
/// [`Compiled::simulation`] calls (and clones of this value) all share
/// one compilation instead of re-lowering per call.
#[derive(Debug, Clone)]
pub struct Compiled {
    model: Model,
    kind: PipelineKind,
    entry: Arc<CompiledKernel>,
}

impl Compiled {
    /// The analyzed frontend model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The optimized IR module.
    pub fn module(&self) -> &Module {
        self.entry.module()
    }

    /// The pipeline configuration this model was compiled under.
    pub fn pipeline_kind(&self) -> PipelineKind {
        self.kind
    }

    /// The pass manager's execution report for the cold compile that
    /// produced this kernel: one entry per pipeline pass with wall time
    /// and counters (`report.timing_table()` renders it like
    /// `mlir-opt -mlir-timing`). Cache hits reuse the entry, so the
    /// report always describes the compile that actually ran.
    pub fn pass_report(&self) -> &RunReport {
        self.entry.pass_report()
    }

    /// The MLIR-style textual IR (parseable by [`limpet_ir::parse_module`]).
    pub fn ir_text(&self) -> String {
        limpet_ir::print_module(self.entry.module())
    }

    /// The executable kernel bound to this model's storage shape.
    ///
    /// A cheap clone of the cached compilation (programs and LUTs live
    /// behind `Arc`), so repeated calls share one compilation.
    pub fn kernel(&self) -> limpet_vm::Kernel {
        self.entry.kernel().clone()
    }

    /// Creates a ready-to-run simulation over `n_cells` cells, reusing
    /// this compilation (no re-lowering).
    pub fn simulation(&self, n_cells: usize, dt: f64) -> Simulation {
        let wl = Workload {
            n_cells,
            steps: 0,
            dt,
        };
        Simulation::with_kernel(self.kernel(), self.entry.layout(), &wl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
Vm; .external(); .lookup(-100, 100, 0.1);
Iion; .external();
diff_x = (1.0 / (1.0 + exp(-Vm / 10.0)) - x) / 4.0;
Iion = 0.2 * x * (Vm + 80.0);
";

    #[test]
    fn compile_all_isas() {
        for isa in [Isa::Scalar, Isa::Sse, Isa::Avx2, Isa::Avx512] {
            let c = Compiler::new().isa(isa).compile("m", SRC).unwrap();
            let expected_width = match isa {
                Isa::Scalar => None,
                Isa::Sse => Some(2),
                Isa::Avx2 => Some(4),
                Isa::Avx512 => Some(8),
            };
            assert_eq!(c.module().attrs.i64_of("vector_width"), expected_width);
        }
    }

    #[test]
    fn ir_text_round_trips() {
        let c = Compiler::new().compile("m", SRC).unwrap();
        let text = c.ir_text();
        let reparsed = limpet_ir::parse_module(&text).unwrap();
        assert_eq!(limpet_ir::print_module(&reparsed), text);
    }

    #[test]
    fn frontend_errors_surface() {
        let err = Compiler::new().compile("m", "diff_x = undefined_var;");
        assert!(matches!(err, Err(CompileError::Frontend(_))));
    }

    #[test]
    fn builder_options_change_module() {
        let with = Compiler::new().compile("m", SRC).unwrap();
        let without = Compiler::new().without_lut().compile("m", SRC).unwrap();
        assert!(with.ir_text().contains("lut.col"));
        assert!(!without.ir_text().contains("lut.col"));
        let aos = Compiler::new()
            .without_layout_transform()
            .compile("m", SRC)
            .unwrap();
        assert_eq!(aos.module().attrs.str_of("layout"), Some("aos"));
    }

    #[test]
    fn simulation_runs() {
        let c = Compiler::new().compile("m", SRC).unwrap();
        let mut sim = c.simulation(64, 0.01);
        sim.run(50);
        assert!(sim.vm(0).is_finite());
        assert!(sim.state_of(0, "x").unwrap().is_finite());
    }

    #[test]
    fn facade_shares_the_global_kernel_cache() {
        let c1 = Compiler::new().compile("m", SRC).unwrap();
        let c2 = Compiler::new().compile("m", SRC).unwrap();
        // Two independent compiles of the same source land on the same
        // cache entry, hence the same bytecode compilation.
        assert!(c1.kernel().shares_compilation(&c2.kernel()));
        // And harness simulations for the equivalent configuration too.
        let model = limpet_easyml::compile_model("m", SRC).unwrap();
        let sim = Simulation::new(&model, c1.pipeline_kind(), &Workload::default());
        assert!(sim.kernel().shares_compilation(&c1.kernel()));
    }

    #[test]
    fn pass_report_describes_the_cold_compile() {
        let c = Compiler::new().compile("m", SRC).unwrap();
        let report = c.pass_report();
        assert!(
            report.passes.iter().any(|p| p.name == "vectorize"),
            "limpetMLIR pipeline must record its vectorize pass"
        );
        assert_eq!(report.counter("vectorize", "kernels-vectorized"), Some(1));
        // Tabulating the one table (-100..100 by 0.1: 2002 rows) is its
        // own row, not part of the bytecode optimizer's.
        assert_eq!(report.counter("lut-tabulate", "tables"), Some(1));
        assert_eq!(report.counter("lut-tabulate", "rows"), Some(2002));
        let table = c.pass_report().timing_table();
        for pass in ["vectorize", "bytecode-opt", "lut-tabulate"] {
            assert!(table.contains(pass), "timing table lists {pass}:\n{table}");
        }
    }

    #[test]
    fn kernel_is_memoized() {
        let c = Compiler::new().compile("m", SRC).unwrap();
        assert_eq!(
            c.pipeline_kind(),
            PipelineKind::LimpetMlir(VectorIsa::Avx512)
        );
        let a = c.kernel();
        let b = c.kernel();
        assert!(
            a.shares_compilation(&b),
            "repeated kernel() calls must share one compilation"
        );
        // Simulations reuse that same compilation too.
        let sim = c.simulation(8, 0.01);
        assert!(sim.kernel().shares_compilation(&a));
    }
}
