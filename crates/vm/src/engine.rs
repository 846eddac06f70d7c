//! The execution engine: a `W`-lane register virtual machine.
//!
//! A kernel is vectorized for a SIMD width `W` (1 = the scalar baseline,
//! 2 / 4 / 8 = "SSE" / "AVX2" / "AVX-512"); the interpreter executes it over
//! `L = W * K` cells per instruction dispatch. The two are separate
//! decisions:
//!
//! * `W` is the shape of the lane kernels — the `[f64; W]` blocks an arm
//!   adds, compares and blends, the AoSoA block it loads — and of what a
//!   lane's arithmetic is: the baseline calls scalar libm and an opaque
//!   lookup per cell, as openCARP does, which is the mechanism behind the
//!   paper's speed-ups. Uniform work (parameters, `dt`) costs the same at
//!   any width, which is why small models gain less (Fig. 2).
//! * `K` is how many `W`-blocks share one dispatch. A program that
//!   branches (a jump is taken on lane 0 of one block) or reads its cell
//!   index runs at `K = 1` — 32 of the 43 baseline programs do, and
//!   `W = 1` always does: it is openCARP's per-cell loop. A straight-line
//!   vector program (every vectorized roster program) runs its whole
//!   batches at `K = `[`BATCH`] and what is left of a range at `K = 1`.
//!
//! The batched loop is one generic body ([`Kernel::exec_chunk`], with every
//! lane kernel inlined into it) compiled three times: for the crate's own
//! target (baseline x86-64 is SSE2), and under `#[target_feature]` for
//! x86-64-v3 (`avx2,fma`) and x86-64-v4 (AVX-512). Which one runs is
//! detected at run time and never wider than the instruction set the kernel
//! is named after ([`step_isa`]; other architectures and older CPUs take
//! the portable one), so the paper's Fig. 5 compares real SSE2, AVX2 and
//! AVX-512 code. Rust never contracts `a * b + c`, and every lane kernel is
//! a per-lane function of its inputs, so all of them — and any `K` —
//! compute the same bits: [`Kernel::run_step_profiled`], always `K = 1` on
//! the portable build, is the counting path and the differential
//! reference. The two halves pay together (measured, DESIGN.md §9b: either
//! alone takes an eighth off a width-8 roster step, both a third): under
//! SSE2 an eight-lane instruction is four two-lane ones and that lane work
//! is most of what a dispatch buys; under AVX-512 at `K = 1` the dispatch
//! is what is left.
//!
//! Inside a step, table lookups and math calls stay vectorized the way the
//! paper's generated code keeps them:
//!
//! * a lookup is one [`Instr::LutRow`] per key, not one instruction per
//!   column — [`LutData::interp_row`] computes index and fraction of all
//!   lanes once, then gathers, blends and stores one column at a time (the
//!   paper's `LUT_interpRow_n_elements_vec`, down to the vector gathers
//!   where the build has them; the baseline's scalar lookups are the same
//!   instruction, one opaque call per lane for the whole row as in
//!   openCARP's `LUT_interpRow`);
//! * math calls use [`crate::vmath`] block kernels at `W > 1` (the SVML
//!   stand-in; `exp` and `log` and everything built on them are
//!   branch-free lane loops) and plain `std` scalar calls at `W == 1` (the
//!   unvectorized libm of the baseline).

use crate::bytecode::{compile_program, BBin, CompileError, FBin, IBin, Instr, LutInterp, Program};
use crate::eval::{eval_func, EvalError, ParamOnlyContext, Val};
use crate::lut::LutData;
use crate::state::{CellStates, ExtArrays};
use limpet_ir::{CmpFPred, MathFn, Module};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Static model facts the kernel needs to bind storage: names, order, and
/// initial values of state variables, external variables, and parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelInfo {
    /// State variable names in storage order.
    pub state_names: Vec<String>,
    /// Initial state values (same order).
    pub state_inits: Vec<f64>,
    /// External variable names in storage order.
    pub ext_names: Vec<String>,
    /// Initial external values (same order).
    pub ext_inits: Vec<f64>,
    /// Parameter `(name, value)` pairs.
    pub params: Vec<(String, f64)>,
}

/// Per-step simulation context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimContext {
    /// Integration time step (ms).
    pub dt: f64,
    /// Current simulation time (ms).
    pub t: f64,
}

/// Dynamic operation counts for the roofline model (paper §4.5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profile {
    /// Floating-point operations (transcendental calls weighted).
    pub flops: u64,
    /// Bytes read from state/external/LUT memory.
    pub bytes_read: u64,
    /// Bytes written to state/external memory.
    pub bytes_written: u64,
    /// Math-library call count (per lane).
    pub math_calls: u64,
    /// Executed instruction count.
    pub instrs: u64,
}

impl Profile {
    /// Operational intensity in Flops/Byte.
    pub fn intensity(&self) -> f64 {
        self.flops as f64 / (self.bytes_read + self.bytes_written).max(1) as f64
    }

    /// Accumulates another profile.
    pub fn add(&mut self, other: &Profile) {
        self.flops += other.flops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.math_calls += other.math_calls;
        self.instrs += other.instrs;
    }
}

/// Access to an attached parent model's state (multimodel support).
#[derive(Debug)]
pub struct ParentView<'a> {
    /// The parent model's cell states (same cell count).
    pub states: &'a mut CellStates,
    /// Maps the kernel's parent-variable slots to state indices in
    /// `states`.
    pub var_map: Vec<usize>,
}

/// A compiled, executable ionic-model kernel.
///
/// # Examples
///
/// ```
/// use limpet_vm::{Kernel, ModelInfo, SimContext, CellStates, ExtArrays, StateLayout};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = limpet_easyml::compile_model("decay", "diff_x = -x;")?;
/// let lowered = limpet_codegen::pipeline::baseline(&model);
/// let info = ModelInfo {
///     state_names: vec!["x".into()],
///     state_inits: vec![1.0],
///     ..Default::default()
/// };
/// let kernel = Kernel::from_module(&lowered.module, &info)?;
/// let mut state = CellStates::new(8, &[1.0], StateLayout::Aos);
/// let mut ext = ExtArrays::new(8, &[]);
/// let ctx = SimContext { dt: 0.01, t: 0.0 };
/// kernel.run_step(&mut state, &mut ext, None, ctx);
/// assert!((state.get(0, 0) - 0.99).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
/// All heap-allocated parts (program, parameter snapshot, lookup tables,
/// model facts) sit behind [`Arc`], so `Clone` is a handful of refcount
/// bumps: clones share one compiled program and one set of LUT buffers.
/// This is what lets a kernel cache hand the same compilation to many
/// simulations (and many threads) without re-lowering or re-tabulating.
#[derive(Debug, Clone)]
pub struct Kernel {
    name: Arc<str>,
    program: Arc<Program>,
    width: usize,
    param_values: Arc<[f64]>,
    luts: Arc<[LutData]>,
    info: Arc<ModelInfo>,
    /// Whether the program runs [`BATCH`] blocks per dispatch.
    batched: bool,
    /// Full-population steps executed through this compilation, shared by
    /// every clone (relaxed increments — a usage statistic, not an exact
    /// count under contention).
    steps: Arc<AtomicU64>,
}

/// Tabulates every lookup table `module` declares by evaluating its
/// `@lut_*` column function once per key (paper §3.4.2) — the step of
/// [`Kernel::from_module`] that dominates a cold compile's CPU time. Each
/// key is one [`eval_func`] call, whose values live in flat slots of that
/// call alone; nothing is carried from one row to the next (the module
/// doc of `eval` says why not yet).
///
/// # Errors
///
/// Returns [`CompileError`] when a column function fails to evaluate or
/// yields a value that is not a float.
pub fn tabulate_luts(module: &Module, info: &ModelInfo) -> Result<Vec<LutData>, CompileError> {
    let mut ctx = ParamOnlyContext {
        params: info.params.iter().cloned().collect(),
    };
    let mut luts = Vec::with_capacity(module.luts.len());
    for spec in &module.luts {
        let cols = spec.cols.len().max(1);
        let mut error = None;
        let table = LutData::build(
            spec.lo,
            spec.hi,
            spec.step,
            cols,
            |key, out| match eval_func(module, &spec.func, &[Val::F(key)], &mut ctx) {
                Ok(vals) => {
                    for (o, v) in out.iter_mut().zip(vals) {
                        match v {
                            Val::F(x) => *o = x,
                            other => error = Some(EvalError(format!("column value {other:?}"))),
                        }
                    }
                }
                Err(e) => error = Some(e),
            },
        );
        if let Some(e) = error {
            return Err(CompileError(format!(
                "failed to evaluate @{}: {e}",
                spec.func
            )));
        }
        luts.push(table);
    }
    Ok(luts)
}

/// Checks every `(table, column)` a row lookup of `program` names against
/// the tables it will read. The interpolators index two adjacent rows by
/// column, so a column past the row's end would read the next row's
/// values instead of failing.
fn check_lut_columns(program: &Program, luts: &[LutData]) -> Result<(), CompileError> {
    for (pc, instr) in program.instrs.iter().enumerate() {
        let Instr::LutRow { table, outs, .. } = instr else {
            continue;
        };
        let cols = luts.get(*table as usize).map(LutData::cols);
        if let Some(&(col, _)) = outs
            .iter()
            .find(|&&(col, _)| cols.is_none_or(|n| col as usize >= n))
        {
            return Err(CompileError(format!(
                "instr {pc}: lut column {col} of table {table} does not exist \
                 (table has {} column(s))",
                cols.map_or("no".to_owned(), |n| n.to_string())
            )));
        }
    }
    Ok(())
}

impl Kernel {
    /// Compiles a lowered module against the given model facts,
    /// precomputing all lookup tables.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the module cannot be expressed in
    /// bytecode or a LUT function fails to evaluate.
    pub fn from_module(module: &Module, info: &ModelInfo) -> Result<Kernel, CompileError> {
        Kernel::from_module_opt(module, info, true).map(|(kernel, ..)| kernel)
    }

    /// Like [`Kernel::from_module`] but with the bytecode optimizer on or
    /// off as `optimize` says, also returning the optimizer's counters and
    /// how long [`tabulate_luts`] took — most of the call, so a compile
    /// report can show it apart from the bytecode compiler and optimizer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kernel::from_module`].
    pub fn from_module_opt(
        module: &Module,
        info: &ModelInfo,
        optimize: bool,
    ) -> Result<(Kernel, crate::optimize::OptStats, Duration), CompileError> {
        let width = module.attrs.i64_of("vector_width").unwrap_or(1) as usize;
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(CompileError(format!("unsupported vector width {width}")));
        }
        let param_names: Vec<String> = info.params.iter().map(|(n, _)| n.clone()).collect();
        let mut program =
            compile_program(module, &info.state_names, &info.ext_names, &param_names)?;
        // The kernel must only touch variables the storage binding covers;
        // extra names would index out of bounds at runtime.
        if program.state_vars.len() > info.state_names.len() {
            let unknown = &program.state_vars[info.state_names.len()..];
            return Err(CompileError(format!(
                "kernel references state variable(s) {unknown:?} not in the model binding"
            )));
        }
        if program.ext_vars.len() > info.ext_names.len() {
            let unknown = &program.ext_vars[info.ext_names.len()..];
            return Err(CompileError(format!(
                "kernel references external variable(s) {unknown:?} not in the model binding"
            )));
        }
        let stats = if optimize {
            crate::optimize::optimize_program(&mut program)
        } else {
            crate::optimize::OptStats::default()
        };
        let param_map: HashMap<&str, f64> =
            info.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let param_values: Vec<f64> = program
            .params
            .iter()
            .map(|n| *param_map.get(n.as_str()).unwrap_or(&0.0))
            .collect();

        let started = Instant::now();
        let luts = tabulate_luts(module, info)?;
        let tabulating = started.elapsed();
        check_lut_columns(&program, &luts)?;

        Ok((
            Kernel {
                name: module.name().into(),
                batched: can_batch(&program, width),
                program: Arc::new(program),
                width,
                param_values: param_values.into(),
                luts: luts.into(),
                info: Arc::new(info.clone()),
                steps: Arc::new(AtomicU64::new(0)),
            },
            stats,
            tabulating,
        ))
    }

    /// Compiles the optimized and the unoptimized kernel of one module
    /// in a single call, sharing the lookup-table tabulation and
    /// parameter binding between them (tabulation is one [`eval_func`]
    /// call per key over thousands of keys, most of a cold compile's
    /// time, holds megabytes per model, and is identical with the optimizer
    /// on or off; for where a cold compile's time goes, see
    /// DESIGN.md §11).
    /// Returns `(optimized, its stats, unoptimized)` — the pair
    /// differential opt-on/off comparisons and ablation benchmarks need.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kernel::from_module`].
    pub fn from_module_both(
        module: &Module,
        info: &ModelInfo,
    ) -> Result<(Kernel, crate::optimize::OptStats, Kernel), CompileError> {
        let (raw, ..) = Kernel::from_module_opt(module, info, false)?;
        let mut program = (*raw.program).clone();
        let stats = crate::optimize::optimize_program(&mut program);
        let opt = raw.with_program(program)?;
        Ok((opt, stats, raw))
    }

    /// A sibling of this kernel running `program` instead: it shares the
    /// lookup tables, model facts and parameter snapshot (one allocation
    /// each, not a copy) and counts its own executed steps. This is how
    /// the optimized/raw pair of one compilation is built, cold or off
    /// disk.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when `program` does not bind the same
    /// state, external, parameter and table names in the same order —
    /// the shared snapshot and tables are indexed by them — or reads a
    /// table column the shared tables do not have.
    pub fn with_program(&self, program: Program) -> Result<Kernel, CompileError> {
        let mine = &*self.program;
        let same_binding = program.state_vars == mine.state_vars
            && program.ext_vars == mine.ext_vars
            && program.params == mine.params
            && program.lut_tables == mine.lut_tables;
        if !same_binding {
            return Err(CompileError(format!(
                "program's symbol tables differ from kernel {}'s",
                self.name
            )));
        }
        check_lut_columns(&program, &self.luts)?;
        Ok(Kernel {
            batched: can_batch(&program, self.width),
            program: Arc::new(program),
            steps: Arc::new(AtomicU64::new(0)),
            ..self.clone()
        })
    }

    /// Reassembles an executable kernel from persisted parts — the
    /// disk-cache load path. Performs the same binding validation as
    /// [`Kernel::from_module`] (the program's symbol tables must match
    /// the model facts exactly, since `compile_program` seeds them from
    /// the same orders), and recomputes the parameter snapshot from
    /// `info` with the identical expression, so a reconstructed kernel
    /// computes bit-identical trajectories.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when `width` is unsupported, the
    /// program's state/external/LUT bindings disagree with `info`, or a
    /// row lookup names a column `luts` does not have — the signature of
    /// a stale or mismatched cache entry.
    pub fn from_parts(
        name: &str,
        program: Program,
        width: usize,
        info: &ModelInfo,
        luts: Vec<LutData>,
    ) -> Result<Kernel, CompileError> {
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(CompileError(format!("unsupported vector width {width}")));
        }
        if program.state_vars != info.state_names {
            return Err(CompileError(format!(
                "persisted state binding {:?} does not match the model's {:?}",
                program.state_vars, info.state_names
            )));
        }
        if program.ext_vars != info.ext_names {
            return Err(CompileError(format!(
                "persisted external binding {:?} does not match the model's {:?}",
                program.ext_vars, info.ext_names
            )));
        }
        if program.lut_tables.len() != luts.len() {
            return Err(CompileError(format!(
                "persisted kernel references {} lut table(s) but {} were provided",
                program.lut_tables.len(),
                luts.len()
            )));
        }
        check_lut_columns(&program, &luts)?;
        let param_map: HashMap<&str, f64> =
            info.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let param_values: Vec<f64> = program
            .params
            .iter()
            .map(|n| *param_map.get(n.as_str()).unwrap_or(&0.0))
            .collect();
        Ok(Kernel {
            name: name.into(),
            batched: can_batch(&program, width),
            program: Arc::new(program),
            width,
            param_values: param_values.into(),
            luts: luts.into(),
            info: Arc::new(info.clone()),
            steps: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Whether two kernels share the same underlying compilation (the
    /// same `Arc`'d program), i.e. one is a cheap clone of the other.
    pub fn shares_compilation(&self, other: &Kernel) -> bool {
        Arc::ptr_eq(&self.program, &other.program)
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lane count this kernel was compiled at.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The model facts the kernel was compiled against.
    pub fn info(&self) -> &ModelInfo {
        &self.info
    }

    /// The compiled program (for inspection and instruction statistics).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The precomputed lookup tables, in program table order (what
    /// [`Kernel::from_parts`] takes back to reassemble the kernel).
    pub fn luts(&self) -> &[LutData] {
        &self.luts
    }

    /// Total LUT memory in bytes.
    pub fn lut_bytes(&self) -> usize {
        self.luts.iter().map(LutData::bytes).sum()
    }

    /// The parameter value snapshot, in program parameter order.
    pub fn param_values(&self) -> &[f64] {
        &self.param_values
    }

    /// Full-population steps executed through this compilation (summed
    /// over every clone — the kernel cache hands the same compilation to
    /// many simulations, and its stats report the total).
    pub fn executed_steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Raises the executed-step counter to at least `floor`. Used when a
    /// checkpoint restores a kernel's pre-crash count; `fetch_max` keeps
    /// the restore idempotent and never double-counts a warm process.
    pub fn restore_executed_steps(&self, floor: u64) {
        self.steps.fetch_max(floor, Ordering::Relaxed);
    }

    /// Allocates state storage for `n_cells` with the given layout.
    pub fn new_states(&self, n_cells: usize, layout: crate::StateLayout) -> CellStates {
        CellStates::new(n_cells, &self.info.state_inits, layout)
    }

    /// Allocates external arrays for `n_cells`.
    pub fn new_ext(&self, n_cells: usize) -> ExtArrays {
        ExtArrays::new(n_cells, &self.info.ext_inits)
    }

    /// Runs one compute step over all cells.
    pub fn run_step(
        &self,
        state: &mut CellStates,
        ext: &mut ExtArrays,
        parent: Option<&mut ParentView<'_>>,
        ctx: SimContext,
    ) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        let n = state.padded_cells();
        self.run_range(state, ext, parent, ctx, 0, n);
    }

    /// Runs one compute step over cells `[lo, hi)` (both multiples of the
    /// kernel width; used by the threaded driver to partition cells).
    ///
    /// # Panics
    ///
    /// Panics if `lo`/`hi` are not chunk-aligned.
    pub fn run_range(
        &self,
        state: &mut CellStates,
        ext: &mut ExtArrays,
        parent: Option<&mut ParentView<'_>>,
        ctx: SimContext,
        lo: usize,
        hi: usize,
    ) {
        assert!(
            lo.is_multiple_of(self.width) && hi.is_multiple_of(self.width),
            "unaligned range"
        );
        // Whole batches first, what is left one `W`-block per dispatch.
        let batch = self.width * BATCH;
        let mid = if self.batched {
            lo + (hi - lo) / batch * batch
        } else {
            lo
        };
        let lanes = if mid > lo { batch } else { self.width };
        let mut run = Run::new(self, lanes, state, ext, parent, ctx);
        match self.width {
            1 => run.run_loop::<1, false>(lo, hi),
            2 => run.run_split::<2>(lo, mid, hi),
            4 => run.run_split::<4>(lo, mid, hi),
            8 => run.run_split::<8>(lo, mid, hi),
            _ => unreachable!(),
        }
    }

    /// Runs one step over all cells while counting operations: always one
    /// `W`-block per dispatch on the portable build, so the counts are a
    /// property of the program and the reference the batched, ISA-specific
    /// [`Kernel::run_range`] is compared against bit for bit.
    pub fn run_step_profiled(
        &self,
        state: &mut CellStates,
        ext: &mut ExtArrays,
        parent: Option<&mut ParentView<'_>>,
        ctx: SimContext,
    ) -> Profile {
        let n = state.padded_cells();
        let mut run = Run::new(self, self.width, state, ext, parent, ctx);
        match self.width {
            1 => run.run_loop::<1, true>(0, n),
            2 => run.run_loop::<2, true>(0, n),
            4 => run.run_loop::<4, true>(0, n),
            8 => run.run_loop::<8, true>(0, n),
            _ => unreachable!(),
        }
        run.prof
    }
}

/// `W`-blocks a batched program executes per dispatch. One constant: at
/// `W = 8` a 128-register file of `8 * BATCH` lanes is 32 KiB, all of L1.
const BATCH: usize = 4;

/// Whether `program` can run [`BATCH`] blocks per dispatch: a vector
/// program whose integer registers are uniform over the batch (no
/// per-block cell index) and that never branches on lane 0 of one block.
fn can_batch(program: &Program, width: usize) -> bool {
    let per_block = |i: &Instr| {
        matches!(
            i,
            Instr::Jump { .. } | Instr::JumpIfNot { .. } | Instr::CellIndex { .. }
        )
    };
    width > 1 && !program.instrs.iter().any(per_block)
}

/// The build of the step loop a kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StepIsa {
    /// The crate's own target: baseline x86-64 is SSE2.
    Portable,
    /// x86-64-v3: `avx2,fma`.
    Avx2,
    /// x86-64-v4: `avx512f,avx512vl,avx512dq,avx512bw`.
    Avx512,
}

impl StepIsa {
    /// The widest build this CPU runs (`std` caches the CPUID query).
    fn detect() -> StepIsa {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512bw")
            {
                return StepIsa::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return StepIsa::Avx2;
            }
        }
        StepIsa::Portable
    }

    /// The build a kernel vectorised at `width` lanes runs on here: what
    /// the CPU has, but never wider than the ISA the kernel is named after
    /// (`W = 2` *is* the portable SSE2 build).
    fn of(width: usize) -> StepIsa {
        let named = match width {
            8 => StepIsa::Avx512,
            4 => StepIsa::Avx2,
            _ => StepIsa::Portable,
        };
        named.min(StepIsa::detect())
    }
}

/// The build of the step loop a width-8 kernel dispatches to on this CPU:
/// `"avx512"`, `"avx2"` or `"portable"`. Host provenance for timings —
/// two hosts that answer differently do not run the same code.
pub fn step_isa() -> &'static str {
    match StepIsa::detect() {
        StepIsa::Portable => "portable",
        StepIsa::Avx2 => "avx2",
        StepIsa::Avx512 => "avx512",
    }
}

/// One `run_range` / `run_step_profiled` call: the kernel, its register
/// file and the storage it steps.
struct Run<'a, 'p> {
    kernel: &'a Kernel,
    regs: RegFile,
    state: &'a mut CellStates,
    ext: &'a mut ExtArrays,
    parent: Option<&'a mut ParentView<'p>>,
    ctx: SimContext,
    prof: Profile,
}

impl<'a, 'p> Run<'a, 'p> {
    fn new(
        kernel: &'a Kernel,
        lanes: usize,
        state: &'a mut CellStates,
        ext: &'a mut ExtArrays,
        parent: Option<&'a mut ParentView<'p>>,
        ctx: SimContext,
    ) -> Self {
        Run {
            kernel,
            regs: RegFile::new(&kernel.program, lanes),
            state,
            ext,
            parent,
            ctx,
            prof: Profile::default(),
        }
    }

    /// `[lo, mid)` in batches on the widest build allowed, `[mid, hi)` one
    /// block per dispatch.
    fn run_split<const W: usize>(&mut self, lo: usize, mid: usize, hi: usize) {
        if mid > lo {
            match StepIsa::of(W) {
                // SAFETY: `StepIsa::of` answers `Avx512` only after
                // `is_x86_feature_detected!` reported every feature
                // `batched_avx512` enables.
                #[cfg(target_arch = "x86_64")]
                StepIsa::Avx512 => unsafe { self.batched_avx512::<W>(lo, mid) },
                // SAFETY: likewise `Avx2` for `avx2` and `fma`.
                #[cfg(target_arch = "x86_64")]
                StepIsa::Avx2 => unsafe { self.batched_avx2::<W>(lo, mid) },
                _ => self.chunks::<W, BATCH, false>(lo, mid),
            }
        }
        self.run_loop::<W, false>(mid, hi);
    }

    /// One block per dispatch on the crate's own target. A function of its
    /// own: inlined into `run_range` beside the other widths' loops, the
    /// same body costs a width-1 step 3 % (measured over the roster).
    #[inline(never)]
    fn run_loop<const W: usize, const COUNT: bool>(&mut self, lo: usize, hi: usize) {
        self.chunks::<W, 1, COUNT>(lo, hi);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw")]
    fn batched_avx512<const W: usize>(&mut self, lo: usize, hi: usize) {
        self.chunks::<W, BATCH, false>(lo, hi);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn batched_avx2<const W: usize>(&mut self, lo: usize, hi: usize) {
        self.chunks::<W, BATCH, false>(lo, hi);
    }

    /// Steps cells `[lo, hi)`, `W * K` per dispatch. Inlined into its
    /// caller with [`Kernel::exec_chunk`] and every lane kernel under it,
    /// so the two `#[target_feature]` callers above compile the one source
    /// for their instruction set and every other caller for the crate's.
    #[inline(always)]
    fn chunks<const W: usize, const K: usize, const COUNT: bool>(&mut self, lo: usize, hi: usize) {
        let mut cell0 = lo;
        while cell0 < hi {
            self.kernel.exec_chunk::<W, K, COUNT>(
                &mut self.regs,
                cell0,
                self.state,
                self.ext,
                &mut self.parent,
                self.ctx,
                &mut self.prof,
            );
            cell0 += W * K;
        }
    }
}

impl Kernel {
    /// Executes the program once over the `W * K` cells from `cell0`:
    /// every instruction is dispatched once and works through its `K`
    /// blocks of `W` lanes. Register `r` is lanes `r * W * K ..` of its
    /// file; an operand is bounds-checked once, as a whole register, and
    /// what an arm holds of it by value is one block, a `[_; W]` (a vector
    /// register). State is loaded and stored a whole register per call.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn exec_chunk<const W: usize, const K: usize, const COUNT: bool>(
        &self,
        regs: &mut RegFile,
        cell0: usize,
        state: &mut CellStates,
        ext: &mut ExtArrays,
        parent: &mut Option<&mut ParentView<'_>>,
        ctx: SimContext,
        prof: &mut Profile,
    ) {
        // Slices, not `Vec`s: pointer and length stay in registers, so the
        // one bounds check of a register is shared by its `K` blocks.
        let f: &mut [f64] = &mut regs.f;
        let bbuf: &mut [bool] = &mut regs.b;
        let ibuf = &mut regs.i;
        let instrs = &self.program.instrs;
        let lanes = W * K;
        let mut pc = 0usize;

        // All lanes of register `r` as a range of its file.
        let reg = |r: u16| r as usize * lanes..r as usize * lanes + lanes;
        // One block of register `$r` of file `$file` (`f` or `bbuf`) by
        // value: the register is sliced (and checked) whole, block `$k` sits
        // at a constant offset inside it.
        macro_rules! rd {
            ($file:ident, $r:expr, $k:expr) => {
                block::<_, W>(&$file[reg($r)][$k * W..($k + 1) * W])
            };
        }
        macro_rules! wr {
            ($file:ident, $r:expr, $k:expr, $v:expr) => {
                $file[reg($r)][$k * W..($k + 1) * W].copy_from_slice(&$v)
            };
        }
        // A uniform value into every lane of a register.
        macro_rules! set {
            ($file:ident, $r:expr, $v:expr) => {
                for k in 0..K {
                    wr!($file, $r, k, [$v; W]);
                }
            };
        }
        // The chunk's cells' values as `$load` leaves them in `$lv`, as `K`
        // blocks by value: one call, so one layout decision, per instruction.
        macro_rules! loaded {
            (|$lv:ident| $load:expr) => {{
                let mut blocks = [[0.0f64; W]; K];
                let $lv = blocks.as_flattened_mut();
                $load;
                blocks
            }};
        }
        // `dst <- lane(a, b)` block by block, `lane` picked by `$op` around
        // the block loop, so a batch decodes its operator once.
        macro_rules! map2 {
            ($file:ident, $dst:expr, $op:expr, |$k:ident| $a:expr, $b:expr,
             |$x:ident, $y:ident| { $($pat:pat => $lane:expr,)+ }) => {
                match $op {
                    $($pat => {
                        for $k in 0..K {
                            let (av, bv) = ($a, $b);
                            let mut out = [Default::default(); W];
                            for i in 0..W {
                                let ($x, $y) = (av[i], bv[i]);
                                out[i] = $lane;
                            }
                            wr!($file, $dst, $k, out);
                        }
                    })+
                }
            };
        }
        // The float binop shared by the plain, constant-operand and load-op
        // arms, so every form computes bit-identical results.
        macro_rules! fbin {
            ($op:expr, $dst:expr, |$k:ident| $a:expr, $b:expr) => {
                map2!(f, $dst, $op, |$k| $a, $b, |x, y| {
                    FBin::Add => x + y,
                    FBin::Sub => x - y,
                    FBin::Mul => x * y,
                    FBin::Div => x / y,
                    FBin::Rem => x % y,
                    FBin::Min => x.min(y),
                    FBin::Max => x.max(y),
                })
            };
        }

        loop {
            if COUNT {
                prof.instrs += 1;
            }
            match instrs[pc] {
                Instr::ConstF { dst, v } => set!(f, dst, v),
                Instr::ConstI { dst, v } => ibuf[dst as usize] = v,
                Instr::ConstB { dst, v } => set!(bbuf, dst, v),
                Instr::MovF { dst, src } => f.copy_within(reg(src), reg(dst).start),
                Instr::MovB { dst, src } => bbuf.copy_within(reg(src), reg(dst).start),
                Instr::MovI { dst, src } => ibuf[dst as usize] = ibuf[src as usize],
                Instr::LoadParam { dst, idx } => set!(f, dst, self.param_values[idx as usize]),
                Instr::LoadDt { dst } => set!(f, dst, ctx.dt),
                Instr::LoadTime { dst } => set!(f, dst, ctx.t),
                Instr::CellIndex { dst } => ibuf[dst as usize] = cell0 as i64,
                Instr::LoadState { dst, var } => {
                    state.load_block::<W>(cell0, var as usize, &mut f[reg(dst)]);
                    if COUNT {
                        prof.bytes_read += 8 * lanes as u64;
                    }
                }
                Instr::StoreState { src, var } => {
                    state.store_block::<W>(cell0, var as usize, &f[reg(src)]);
                    if COUNT {
                        prof.bytes_written += 8 * lanes as u64;
                    }
                }
                Instr::LoadExt { dst, var } => {
                    ext.load_block(cell0, var as usize, &mut f[reg(dst)]);
                    if COUNT {
                        prof.bytes_read += 8 * lanes as u64;
                    }
                }
                Instr::StoreExt { src, var } => {
                    ext.store_block(cell0, var as usize, &f[reg(src)]);
                    if COUNT {
                        prof.bytes_written += 8 * lanes as u64;
                    }
                }
                Instr::HasParent { dst } => set!(bbuf, dst, parent.is_some()),
                Instr::LoadParentState { dst, var, fallback } => {
                    match parent {
                        Some(p) => {
                            let pv = p.var_map[var as usize];
                            p.states.load_block::<W>(cell0, pv, &mut f[reg(dst)]);
                        }
                        None => f.copy_within(reg(fallback), reg(dst).start),
                    }
                    if COUNT {
                        prof.bytes_read += 8 * lanes as u64;
                    }
                }
                Instr::StoreParentState { src, var } => {
                    if let Some(p) = parent {
                        let pv = p.var_map[var as usize];
                        p.states.store_block::<W>(cell0, pv, &f[reg(src)]);
                        if COUNT {
                            prof.bytes_written += 8 * lanes as u64;
                        }
                    }
                }
                Instr::BinF { op, dst, a, b } => {
                    fbin!(op, dst, |k| rd!(f, a, k), rd!(f, b, k));
                    if COUNT {
                        prof.flops += lanes as u64;
                    }
                }
                Instr::BinFK { op, dst, a, k: c } => {
                    fbin!(op, dst, |k| rd!(f, a, k), [c; W]);
                    if COUNT {
                        prof.flops += lanes as u64;
                    }
                }
                Instr::BinKF { op, dst, k: c, a } => {
                    fbin!(op, dst, |k| [c; W], rd!(f, a, k));
                    if COUNT {
                        prof.flops += lanes as u64;
                    }
                }
                Instr::LoadStateOp { op, dst, var, b } => {
                    let lv = loaded!(|lv| state.load_block::<W>(cell0, var as usize, lv));
                    fbin!(op, dst, |k| lv[k], rd!(f, b, k));
                    if COUNT {
                        prof.bytes_read += 8 * lanes as u64;
                        prof.flops += lanes as u64;
                    }
                }
                Instr::LoadExtOp { op, dst, var, b } => {
                    let lv = loaded!(|lv| ext.load_block(cell0, var as usize, lv));
                    fbin!(op, dst, |k| lv[k], rd!(f, b, k));
                    if COUNT {
                        prof.bytes_read += 8 * lanes as u64;
                        prof.flops += lanes as u64;
                    }
                }
                Instr::NegF { dst, a } => {
                    for k in 0..K {
                        let av = rd!(f, a, k).map(|v| -v);
                        wr!(f, dst, k, av);
                    }
                    if COUNT {
                        prof.flops += lanes as u64;
                    }
                }
                Instr::FmaF { dst, a, b, c } => {
                    for k in 0..K {
                        let (av, bv, cv) = (rd!(f, a, k), rd!(f, b, k), rd!(f, c, k));
                        let mut out = [0.0f64; W];
                        for i in 0..W {
                            out[i] = av[i] * bv[i] + cv[i];
                        }
                        wr!(f, dst, k, out);
                    }
                    if COUNT {
                        prof.flops += 2 * lanes as u64;
                    }
                }
                Instr::Math1 { f: mf, dst, a } => {
                    f.copy_within(reg(a), reg(dst).start);
                    apply_math1::<W>(mf, &mut f[reg(dst)]);
                    if COUNT {
                        prof.flops += math_flops(mf) * lanes as u64;
                        prof.math_calls += lanes as u64;
                    }
                }
                Instr::Math2 { f: mf, dst, a, b } => {
                    for k in 0..K {
                        let (mut av, bv) = (rd!(f, a, k), rd!(f, b, k));
                        apply_math2::<W>(mf, &mut av, &bv);
                        wr!(f, dst, k, av);
                    }
                    if COUNT {
                        prof.flops += math_flops(mf) * lanes as u64;
                        prof.math_calls += lanes as u64;
                    }
                }
                Instr::CmpF { pred, dst, a, b } => {
                    map2!(bbuf, dst, pred, |k| rd!(f, a, k), rd!(f, b, k), |x, y| {
                        CmpFPred::Oeq => x == y,
                        CmpFPred::One => x != y,
                        CmpFPred::Olt => x < y,
                        CmpFPred::Ole => x <= y,
                        CmpFPred::Ogt => x > y,
                        CmpFPred::Oge => x >= y,
                    });
                    if COUNT {
                        prof.flops += lanes as u64;
                    }
                }
                Instr::CmpI { pred, dst, a, b } => {
                    set!(bbuf, dst, pred.apply(ibuf[a as usize], ibuf[b as usize]))
                }
                Instr::BinB { op, dst, a, b } => {
                    map2!(bbuf, dst, op, |k| rd!(bbuf, a, k), rd!(bbuf, b, k), |x, y| {
                        BBin::And => x && y,
                        BBin::Or => x || y,
                        BBin::Xor => x ^ y,
                    })
                }
                Instr::SelectF { dst, cond, a, b } => {
                    for k in 0..K {
                        let (cv, av, bv) = (rd!(bbuf, cond, k), rd!(f, a, k), rd!(f, b, k));
                        let mut out = [0.0f64; W];
                        for i in 0..W {
                            out[i] = if cv[i] { av[i] } else { bv[i] };
                        }
                        wr!(f, dst, k, out);
                    }
                    if COUNT {
                        prof.flops += lanes as u64;
                    }
                }
                Instr::SelectB { dst, cond, a, b } => {
                    for k in 0..K {
                        let (cv, av, bv) = (rd!(bbuf, cond, k), rd!(bbuf, a, k), rd!(bbuf, b, k));
                        let mut out = [false; W];
                        for i in 0..W {
                            out[i] = if cv[i] { av[i] } else { bv[i] };
                        }
                        wr!(bbuf, dst, k, out);
                    }
                }
                Instr::SIToFP { dst, a } => set!(f, dst, ibuf[a as usize] as f64),
                Instr::BinI { op, dst, a, b } => {
                    let (av, bv) = (ibuf[a as usize], ibuf[b as usize]);
                    ibuf[dst as usize] = match op {
                        IBin::Add => av.wrapping_add(bv),
                        IBin::Sub => av.wrapping_sub(bv),
                        IBin::Mul => av.wrapping_mul(bv),
                    };
                }
                Instr::LutRow {
                    table,
                    key,
                    interp,
                    ref outs,
                } => {
                    self.luts[table as usize].interp_row(interp, key, lanes, outs, f);
                    if COUNT {
                        // Per column, as when each column was its own
                        // instruction: two rows (cubic: four) of one value.
                        let (bytes, flops) = match interp {
                            LutInterp::Cubic => (32, 14),
                            LutInterp::Vec | LutInterp::Scalar => (16, 5),
                        };
                        let n = (outs.len() * lanes) as u64;
                        prof.bytes_read += bytes * n;
                        prof.flops += flops * n;
                    }
                }
                Instr::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                Instr::JumpIfNot { cond, target } => {
                    if !bbuf[cond as usize * lanes] {
                        pc = target as usize;
                        continue;
                    }
                }
                Instr::Ret => return,
            }
            pc += 1;
        }
    }
}

/// `W` lanes of a register file by value: what a vector register holds.
#[inline(always)]
fn block<T: Copy + Default, const W: usize>(lanes: &[T]) -> [T; W] {
    let mut out = [T::default(); W];
    out.copy_from_slice(lanes);
    out
}

/// Per-invocation register storage.
#[derive(Debug)]
struct RegFile {
    f: Vec<f64>,
    b: Vec<bool>,
    i: Vec<i64>,
}

impl RegFile {
    /// Registers `lanes` lanes wide (a narrower run uses a prefix).
    fn new(p: &Program, lanes: usize) -> RegFile {
        RegFile {
            f: vec![0.0; p.n_fregs.max(1) * lanes],
            b: vec![false; p.n_bregs.max(1) * lanes],
            i: vec![0; p.n_iregs.max(1)],
        }
    }
}

/// Applies a unary math function to the lanes of a register: `std` per
/// lane at width 1 (baseline libm), block kernels otherwise (SVML
/// stand-in).
#[inline(always)]
fn apply_math1<const W: usize>(f: MathFn, v: &mut [f64]) {
    if W == 1 {
        v[0] = f.eval(v[0], 0.0);
        return;
    }
    match f {
        MathFn::Exp => crate::vmath::exp_block(v),
        MathFn::Expm1 => crate::vmath::expm1_block(v),
        MathFn::Log => crate::vmath::log_block(v),
        MathFn::Log1p => crate::vmath::log1p_block(v),
        MathFn::Log10 => crate::vmath::log10_block(v),
        MathFn::Log2 => crate::vmath::log2_block(v),
        MathFn::Sqrt => crate::vmath::sqrt_block(v),
        MathFn::Cbrt => crate::vmath::cbrt_block(v),
        MathFn::Sin => crate::vmath::sin_block(v),
        MathFn::Cos => crate::vmath::cos_block(v),
        MathFn::Tan => crate::vmath::tan_block(v),
        MathFn::Asin => crate::vmath::asin_block(v),
        MathFn::Acos => crate::vmath::acos_block(v),
        MathFn::Atan => crate::vmath::atan_block(v),
        MathFn::Sinh => crate::vmath::sinh_block(v),
        MathFn::Cosh => crate::vmath::cosh_block(v),
        MathFn::Tanh => crate::vmath::tanh_block(v),
        MathFn::Abs => crate::vmath::abs_block(v),
        MathFn::Floor => crate::vmath::floor_block(v),
        MathFn::Ceil => crate::vmath::ceil_block(v),
        MathFn::Round => crate::vmath::round_block(v),
        MathFn::Pow | MathFn::Atan2 | MathFn::CopySign => unreachable!("binary"),
    }
}

/// Applies a binary math function (result in `a`).
#[inline(always)]
fn apply_math2<const W: usize>(f: MathFn, a: &mut [f64; W], b: &[f64; W]) {
    if W == 1 {
        a[0] = f.eval(a[0], b[0]);
        return;
    }
    match f {
        MathFn::Pow => crate::vmath::pow_block(a, b),
        MathFn::Atan2 => crate::vmath::atan2_block(a, b),
        MathFn::CopySign => crate::vmath::copysign_block(a, b),
        _ => unreachable!("unary"),
    }
}

/// Flop weight per math call for the roofline counts (transcendentals cost
/// a polynomial's worth of arithmetic, cheap functions one op).
fn math_flops(f: MathFn) -> u64 {
    match f {
        MathFn::Abs | MathFn::Floor | MathFn::Ceil | MathFn::Round | MathFn::CopySign => 1,
        MathFn::Sqrt => 4,
        MathFn::Pow => 40,
        _ => 20,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateLayout;
    use limpet_ir::{Builder, Func, Module, Type};

    /// Compiles a hand-built module into a kernel with states x, y.
    fn kernel(width: Option<u32>, build: impl FnOnce(&mut Builder<'_>)) -> Kernel {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        build(&mut b);
        m.add_func(f);
        if let Some(w) = width {
            m.attrs.set("vector_width", w as i64);
        }
        let info = ModelInfo {
            state_names: vec!["x".into(), "y".into()],
            state_inits: vec![1.0, 2.0],
            ext_names: vec!["Vm".into()],
            ext_inits: vec![-85.0],
            params: vec![("Cm".into(), 200.0)],
        };
        Kernel::from_module(&m, &info).unwrap()
    }

    #[test]
    fn decay_step_updates_state() {
        // x <- x + dt * (-x)
        let k = kernel(None, |b| {
            let x = b.get_state("x");
            let d = b.negf(x);
            let dt = b.dt();
            let upd = b.mulf(d, dt);
            let new = b.addf(x, upd);
            b.set_state("x", new);
            b.ret(&[]);
        });
        let mut st = k.new_states(10, StateLayout::Aos);
        let mut ext = k.new_ext(10);
        k.run_step(&mut st, &mut ext, None, SimContext { dt: 0.1, t: 0.0 });
        for cell in 0..10 {
            assert!((st.get(cell, 0) - 0.9).abs() < 1e-15);
            assert_eq!(st.get(cell, 1), 2.0); // untouched
        }
    }

    #[test]
    fn widths_agree_with_scalar() {
        // A kernel with branch-free mixed math.
        let build = |b: &mut Builder<'_>| {
            let x = b.get_state("x");
            let vm = b.get_ext("Vm");
            let p = b.param("Cm");
            let e = b.exp(x);
            let l = {
                let absx = b.math1(limpet_ir::MathFn::Abs, vm);
                let one = b.const_f(1.0);
                let xp1 = b.addf(absx, one);
                b.log(xp1)
            };
            let s = b.addf(e, l);
            let scaled = b.divf(s, p);
            b.set_state("y", scaled);
            b.ret(&[]);
        };
        let mut results: Vec<Vec<f64>> = Vec::new();
        for width in [None, Some(2), Some(4), Some(8)] {
            let k = kernel(width, build);
            let mut st = k.new_states(16, StateLayout::Aos);
            for cell in 0..16 {
                st.set(cell, 0, 0.1 * cell as f64);
            }
            let mut ext = k.new_ext(16);
            for cell in 0..16 {
                ext.set(cell, 0, -85.0 + cell as f64);
            }
            k.run_step(&mut st, &mut ext, None, SimContext { dt: 0.01, t: 0.0 });
            results.push((0..16).map(|c| st.get(c, 1)).collect());
        }
        for w in 1..results.len() {
            for (c, (got, want)) in results[w].iter().zip(&results[0]).enumerate() {
                let rel = (got - want).abs() / want.abs().max(1e-300);
                assert!(rel < 1e-11, "width idx {w} cell {c}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn scalar_if_takes_correct_branch() {
        let k = kernel(None, |b| {
            let p = b.param("Cm");
            let hundred = b.const_f(100.0);
            let c = b.cmpf(limpet_ir::CmpFPred::Ogt, p, hundred); // 200 > 100
            let r = b.if_op(
                c,
                &[limpet_ir::Type::F64],
                |b| {
                    let v = b.const_f(7.0);
                    b.yield_(&[v]);
                },
                |b| {
                    let v = b.const_f(9.0);
                    b.yield_(&[v]);
                },
            );
            b.set_state("x", r[0]);
            b.ret(&[]);
        });
        let mut st = k.new_states(8, StateLayout::Aos);
        let mut ext = k.new_ext(8);
        k.run_step(&mut st, &mut ext, None, SimContext { dt: 0.1, t: 0.0 });
        assert_eq!(st.get(0, 0), 7.0);
    }

    #[test]
    fn for_loop_iterates() {
        // x <- x * 2^4 via a loop.
        let k = kernel(None, |b| {
            let x = b.get_state("x");
            let lb = b.const_index(0);
            let ub = b.const_index(4);
            let stp = b.const_index(1);
            let r = b.for_op(lb, ub, stp, &[x], |b, _iv, iters| {
                let two = b.const_f(2.0);
                let n = b.mulf(iters[0], two);
                b.yield_(&[n]);
            });
            b.set_state("x", r[0]);
            b.ret(&[]);
        });
        let mut st = k.new_states(8, StateLayout::Aos);
        let mut ext = k.new_ext(8);
        k.run_step(&mut st, &mut ext, None, SimContext { dt: 0.1, t: 0.0 });
        assert_eq!(st.get(0, 0), 16.0);
    }

    #[test]
    fn aos_and_aosoa_produce_identical_results() {
        let build = |b: &mut Builder<'_>| {
            let x = b.get_state("x");
            let y = b.get_state("y");
            let s = b.addf(x, y);
            let e = b.exp(s);
            b.set_state("x", e);
            b.ret(&[]);
        };
        let k = kernel(Some(8), build);
        let mut a = k.new_states(24, StateLayout::Aos);
        let mut b_ = k.new_states(24, StateLayout::AoSoA { block: 8 });
        for cell in 0..24 {
            a.set(cell, 0, cell as f64 * 0.01);
            b_.set(cell, 0, cell as f64 * 0.01);
        }
        let mut ext1 = k.new_ext(24);
        let mut ext2 = k.new_ext(24);
        let ctx = SimContext { dt: 0.1, t: 0.0 };
        k.run_step(&mut a, &mut ext1, None, ctx);
        k.run_step(&mut b_, &mut ext2, None, ctx);
        for cell in 0..24 {
            assert_eq!(a.get(cell, 0), b_.get(cell, 0), "cell {cell}");
        }
    }

    #[test]
    fn parent_view_reads_parent_state() {
        let k = kernel(None, |b| {
            let fb = b.const_f(-1.0);
            let v = b.get_parent_state("Vp", fb);
            b.set_state("x", v);
            b.ret(&[]);
        });
        let mut st = k.new_states(8, StateLayout::Aos);
        let mut ext = k.new_ext(8);
        let ctx = SimContext { dt: 0.1, t: 0.0 };

        // Without a parent: fallback.
        k.run_step(&mut st, &mut ext, None, ctx);
        assert_eq!(st.get(0, 0), -1.0);

        // With a parent: its state value.
        let mut pstates = CellStates::new(8, &[42.0], StateLayout::Aos);
        let mut pv = ParentView {
            states: &mut pstates,
            var_map: vec![0],
        };
        k.run_step(&mut st, &mut ext, Some(&mut pv), ctx);
        assert_eq!(st.get(0, 0), 42.0);
    }

    #[test]
    fn profile_counts_plausible() {
        let k = kernel(None, |b| {
            let x = b.get_state("x");
            let e = b.exp(x);
            b.set_state("x", e);
            b.ret(&[]);
        });
        let mut st = k.new_states(8, StateLayout::Aos);
        let mut ext = k.new_ext(8);
        let p = k.run_step_profiled(&mut st, &mut ext, None, SimContext { dt: 0.1, t: 0.0 });
        assert_eq!(p.bytes_read, 8 * 8);
        assert_eq!(p.bytes_written, 8 * 8);
        assert_eq!(p.math_calls, 8);
        assert!(p.flops >= 8 * 20);
        assert!(p.intensity() > 0.0);
    }

    /// `run_range` picks one build per CPU; this runs every build the CPU
    /// has, for every width that batches, against one block per dispatch.
    #[test]
    fn every_batched_build_equals_one_block_per_dispatch() {
        let build = |b: &mut Builder<'_>| {
            let x = b.get_state("x");
            let vm = b.get_ext("Vm");
            let e = b.exp(x);
            let t = b.math1(limpet_ir::MathFn::Tanh, vm);
            let hundred = b.const_f(100.0);
            let q = b.divf(vm, hundred);
            let c = b.cmpf(limpet_ir::CmpFPred::Olt, x, q);
            let s = b.select(c, e, t);
            let p = b.param("Cm");
            let y = b.mulf(s, p);
            b.set_state("y", y);
            b.set_ext("Vm", s);
            b.ret(&[]);
        };
        fn check<const W: usize>(k: &Kernel) {
            for layout in [StateLayout::Aos, StateLayout::AoSoA { block: W }] {
                let n = 2 * W * BATCH;
                let fresh = || {
                    let mut st = k.new_states(n, layout);
                    let mut ext = k.new_ext(n);
                    for cell in 0..n {
                        st.set(cell, 0, 0.3 * cell as f64 - 4.0);
                        ext.set(cell, 0, -85.0 + 2.5 * cell as f64);
                    }
                    (st, ext)
                };
                let ctx = SimContext { dt: 0.1, t: 0.0 };
                let (mut want_st, mut want_ext) = fresh();
                k.run_step_profiled(&mut want_st, &mut want_ext, None, ctx);
                for isa in [StepIsa::Portable, StepIsa::Avx2, StepIsa::Avx512] {
                    if isa > StepIsa::detect() {
                        continue;
                    }
                    let (mut st, mut ext) = fresh();
                    let mut run = Run::new(k, W * BATCH, &mut st, &mut ext, None, ctx);
                    match isa {
                        // SAFETY (both): `detect` reported the build's features.
                        #[cfg(target_arch = "x86_64")]
                        StepIsa::Avx512 => unsafe { run.batched_avx512::<W>(0, n) },
                        #[cfg(target_arch = "x86_64")]
                        StepIsa::Avx2 => unsafe { run.batched_avx2::<W>(0, n) },
                        _ => run.chunks::<W, BATCH, false>(0, n),
                    }
                    assert!(st == want_st && ext == want_ext, "W={W} {layout:?} {isa:?}");
                }
            }
        }
        assert!(kernel(Some(2), build).batched && !kernel(None, build).batched);
        check::<2>(&kernel(Some(2), build));
        check::<4>(&kernel(Some(4), build));
        check::<8>(&kernel(Some(8), build));
        // Row lookups, linear and cubic: `check`'s Vm spreads the lanes over
        // the table's rows, first and last interval included.
        for cubic in [false, true] {
            let (mut m, info) = two_column_lut_module();
            let f = m.func_mut("compute").unwrap();
            for (_, _, op) in f.walk_ops() {
                if cubic && f.op(op).kind == limpet_ir::OpKind::LutCol {
                    f.op_mut(op).attrs.set("interp", "cubic");
                }
            }
            let lut_kernel = |width: i64| {
                let mut m = m.clone();
                m.attrs.set("vector_width", width);
                Kernel::from_module(&m, &info).unwrap()
            };
            check::<2>(&lut_kernel(2));
            check::<4>(&lut_kernel(4));
            check::<8>(&lut_kernel(8));
        }
    }

    #[test]
    fn run_range_partitions_cells() {
        let k = kernel(None, |b| {
            let x = b.get_state("x");
            let one = b.const_f(1.0);
            let n = b.addf(x, one);
            b.set_state("x", n);
            b.ret(&[]);
        });
        let mut st = k.new_states(16, StateLayout::Aos);
        let mut ext = k.new_ext(16);
        let ctx = SimContext { dt: 0.1, t: 0.0 };
        // Only the first half.
        k.run_range(&mut st, &mut ext, None, ctx, 0, 8);
        assert_eq!(st.get(0, 0), 2.0);
        assert_eq!(st.get(8, 0), 1.0);
    }

    #[test]
    fn non_float_lut_column_is_a_compile_error() {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        Builder::new(&mut f).ret(&[]);
        m.add_func(f);
        // A column function that returns its comparison, not a float.
        let mut lut = Func::new("lut_Vm", &[Type::F64], &[Type::I1]);
        let key = lut.args()[0];
        let mut b = Builder::new(&mut lut);
        let zero = b.const_f(0.0);
        let positive = b.cmpf(limpet_ir::CmpFPred::Ogt, key, zero);
        b.ret(&[positive]);
        m.add_func(lut);
        m.luts.push(limpet_ir::LutSpec {
            name: "Vm".into(),
            lo: -1.0,
            hi: 1.0,
            step: 0.5,
            func: "lut_Vm".into(),
            cols: vec!["positive".into()],
        });
        let info = ModelInfo {
            state_names: vec![],
            state_inits: vec![],
            ext_names: vec![],
            ext_inits: vec![],
            params: vec![],
        };
        let err = Kernel::from_module(&m, &info).unwrap_err();
        assert!(
            err.0.contains("failed to evaluate @lut_Vm") && err.0.contains("column value B("),
            "{err}"
        );
    }

    /// A module reading both columns of a two-column table on `Vm`.
    fn two_column_lut_module() -> (Module, ModelInfo) {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        let k = b.get_ext("Vm");
        let c0 = b.lut_col("Vm", 0, k);
        let c1 = b.lut_col("Vm", 1, k);
        let s = b.addf(c0, c1);
        b.set_state("x", s);
        b.ret(&[]);
        m.add_func(f);
        let mut lut = Func::new("lut_Vm", &[Type::F64], &[Type::F64, Type::F64]);
        let key = lut.args()[0];
        let mut b = Builder::new(&mut lut);
        let double = b.addf(key, key);
        b.ret(&[key, double]);
        m.add_func(lut);
        m.luts.push(limpet_ir::LutSpec {
            name: "Vm".into(),
            lo: -100.0,
            hi: 100.0,
            step: 10.0,
            func: "lut_Vm".into(),
            cols: vec!["c0".into(), "c1".into()],
        });
        let info = ModelInfo {
            state_names: vec!["x".into()],
            state_inits: vec![0.0],
            ext_names: vec!["Vm".into()],
            ext_inits: vec![-85.0],
            params: vec![],
        };
        (m, info)
    }

    /// `program` with every row lookup's first column set to `col`.
    fn with_first_column(program: &Program, col: u16) -> Program {
        let mut p = program.clone();
        for instr in &mut p.instrs {
            if let Instr::LutRow { outs, .. } = instr {
                outs[0].0 = col;
            }
        }
        p
    }

    #[test]
    fn lut_columns_are_checked_against_the_tables_by_every_constructor() {
        let (m, info) = two_column_lut_module();
        let k = Kernel::from_module(&m, &info).unwrap();
        let mut st = k.new_states(8, StateLayout::Aos);
        let mut ext = k.new_ext(8);
        k.run_step(&mut st, &mut ext, None, SimContext { dt: 0.1, t: 0.0 });
        assert_eq!(
            st.get(0, 0),
            -85.0 * 3.0,
            "linear columns interpolate exactly"
        );

        let luts = || k.luts().to_vec();
        let ok = with_first_column(k.program(), 1);
        assert!(k.with_program(ok.clone()).is_ok());
        assert!(Kernel::from_parts("t", ok, 1, &info, luts()).is_ok());
        // Column 2 of a two-column table is the next row's column 0.
        let bad = with_first_column(k.program(), 2);
        for err in [
            k.with_program(bad.clone()).unwrap_err(),
            Kernel::from_parts("t", bad, 1, &info, luts()).unwrap_err(),
        ] {
            assert!(
                err.0.contains("lut column 2 of table 0") && err.0.contains("2 column(s)"),
                "{err}"
            );
        }
        // A module whose `lut.col` names a column past its `LutSpec`'s
        // must not reach the engine either.
        let mut wide = m.clone();
        let f = wide.func_mut("compute").unwrap();
        let col = f
            .walk_ops()
            .into_iter()
            .map(|(_, _, op)| op)
            .find(|&op| f.op(op).kind == limpet_ir::OpKind::LutCol)
            .unwrap();
        f.op_mut(col).attrs.set("col", 5i64);
        let err = Kernel::from_module(&wide, &info).unwrap_err();
        assert!(err.0.contains("lut column 5"), "{err}");
    }

    #[test]
    fn with_program_rejects_a_different_binding() {
        let k = kernel(None, |b| {
            let x = b.get_state("x");
            b.set_state("x", x);
            b.ret(&[]);
        });
        let same = k.with_program((*k.program).clone()).expect("same binding");
        assert!(Arc::ptr_eq(&same.luts, &k.luts) && Arc::ptr_eq(&same.info, &k.info));
        assert!(!same.shares_compilation(&k));
        let mut other = (*k.program).clone();
        other.params.push("extra".into());
        assert!(k.with_program(other).is_err());
    }

    #[test]
    fn from_module_both_matches_separate_compiles() {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        let x = b.get_state("x");
        let y = b.get_state("y");
        let p = b.mulf(x, y);
        let s = b.addf(p, x);
        b.set_state("x", s);
        b.ret(&[]);
        m.add_func(f);
        let info = ModelInfo {
            state_names: vec!["x".into(), "y".into()],
            state_inits: vec![1.0, 2.0],
            ext_names: vec![],
            ext_inits: vec![],
            params: vec![],
        };
        let (opt, stats, raw) = Kernel::from_module_both(&m, &info).unwrap();
        let (opt2, stats2, _) = Kernel::from_module_opt(&m, &info, true).unwrap();
        let (raw2, ..) = Kernel::from_module_opt(&m, &info, false).unwrap();
        assert_eq!(*opt.program, *opt2.program);
        assert_eq!(*raw.program, *raw2.program);
        assert_eq!(stats, stats2);
        // Greedy fusion turns `load y` + `mul` into a load-op here.
        assert!(
            stats.changed() && stats.instrs_after < stats.instrs_before,
            "{stats:?}"
        );
        // The pair shares one LUT tabulation, not one program.
        assert!(Arc::ptr_eq(&opt.luts, &raw.luts));
        assert!(!opt.shares_compilation(&raw));
    }
}
