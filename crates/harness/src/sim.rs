//! The simulation driver: the counterpart of openCARP's `bench` binary
//! (paper §4), which steps an ionic model over a population of cells.
//!
//! Each step runs the two-stage flow of §3.1:
//!
//! 1. **compute stage** — the compiled kernel advances every cell's state
//!    and writes `Iion`;
//! 2. **membrane update** — `Vm ← Vm + dt·(−Iion + I_stim)/Cm` per cell
//!    (the `bench` single-cell protocol), or an implicit monodomain
//!    diffusion solve when tissue coupling is enabled.
//!
//! A *guarded* simulation ([`Simulation::new_resilient`], stepped with
//! [`Simulation::run_guarded`]) additionally scans the state for
//! non-finite values after every step and recovers by its
//! [`crate::HealthPolicy`]. The pre-state a recovery needs comes from one
//! rollback copy per 32-step window plus a replay of the window's good
//! steps, not from a copy before every step (DESIGN.md §10).

use limpet_codegen::pipeline::{self, Layout, VectorIsa};
use limpet_easyml::Model;
use limpet_models::SizeClass;
use limpet_passes::RunReport;
use limpet_solver::Monodomain;
use limpet_vm::{CellStates, ExtArrays, Kernel, ModelInfo, Profile, SimContext, StateLayout};

/// Extracts the storage-binding facts from a checked model.
pub fn model_info(model: &Model) -> ModelInfo {
    ModelInfo {
        state_names: model.states.iter().map(|s| s.name.clone()).collect(),
        state_inits: model.states.iter().map(|s| s.init).collect(),
        ext_names: model.externals.iter().map(|e| e.name.clone()).collect(),
        ext_inits: model.externals.iter().map(|e| e.init).collect(),
        params: model
            .params
            .iter()
            .map(|p| (p.name.clone(), p.default))
            .collect(),
    }
}

/// The code-generation configurations compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// openCARP limpetC++-style scalar code (the 1x reference).
    Baseline,
    /// limpetMLIR at an ISA width with the AoSoA layout.
    LimpetMlir(VectorIsa),
    /// limpetMLIR without the data-layout transformation (§4.4).
    LimpetMlirAos(VectorIsa),
    /// limpetMLIR without LUTs (§3.4.2 ablation).
    LimpetMlirNoLut(VectorIsa),
    /// icc-style auto-vectorization: vector arith, scalar LUT, AoS (§5).
    CompilerSimd(VectorIsa),
    /// limpetMLIR with Catmull-Rom spline LUTs on 4x-coarser tables
    /// (the paper's §7 future-work extension).
    LimpetMlirSpline(VectorIsa),
}

impl PipelineKind {
    /// Short label for tables.
    pub fn label(self) -> String {
        match self {
            PipelineKind::Baseline => "baseline".into(),
            PipelineKind::LimpetMlir(isa) => format!("limpetMLIR-{}", isa.name()),
            PipelineKind::LimpetMlirAos(isa) => format!("limpetMLIR-AoS-{}", isa.name()),
            PipelineKind::LimpetMlirNoLut(isa) => format!("limpetMLIR-noLUT-{}", isa.name()),
            PipelineKind::CompilerSimd(isa) => format!("compiler-simd-{}", isa.name()),
            PipelineKind::LimpetMlirSpline(isa) => {
                format!("limpetMLIR-spline-{}", isa.name())
            }
        }
    }

    /// The vector width this configuration compiles for: its ISA's lanes,
    /// or 1 for the scalar baseline, whose module states no `vector_width`.
    pub fn lanes(self) -> usize {
        match self {
            PipelineKind::Baseline => 1,
            PipelineKind::LimpetMlir(isa)
            | PipelineKind::LimpetMlirAos(isa)
            | PipelineKind::LimpetMlirNoLut(isa)
            | PipelineKind::CompilerSimd(isa)
            | PipelineKind::LimpetMlirSpline(isa) => isa.lanes() as usize,
        }
    }

    /// The state storage layout this configuration's module mandates (its
    /// `layout` attribute, [`storage_layout`]): blocks of its lanes for the
    /// AoSoA pipelines, AoS for the rest.
    pub fn layout(self) -> StateLayout {
        match self {
            PipelineKind::LimpetMlir(isa)
            | PipelineKind::LimpetMlirNoLut(isa)
            | PipelineKind::LimpetMlirSpline(isa) => StateLayout::AoSoA {
                block: isa.lanes() as usize,
            },
            PipelineKind::Baseline
            | PipelineKind::LimpetMlirAos(_)
            | PipelineKind::CompilerSimd(_) => StateLayout::Aos,
        }
    }

    /// Builds the IR module for a model under this configuration.
    pub fn build(self, model: &Model) -> limpet_ir::Module {
        self.build_with_report(model).0
    }

    /// Builds the IR module and returns the pass manager's execution
    /// report alongside it (per-pass wall time and counters — what a
    /// cold compile actually spent).
    pub fn build_with_report(self, model: &Model) -> (limpet_ir::Module, RunReport) {
        self.try_build_with_report(model)
            .unwrap_or_else(|e| panic!("{} pipeline failed for {}: {e}", self.label(), model.name))
    }

    /// Non-panicking [`PipelineKind::build_with_report`]: pipeline
    /// verification failures come back as a structured
    /// [`limpet_pm::PipelineError`] for the fault-tolerant compile chain.
    pub fn try_build_with_report(
        self,
        model: &Model,
    ) -> Result<(limpet_ir::Module, RunReport), limpet_pm::PipelineError> {
        let (lowered, report) = match self {
            PipelineKind::Baseline => pipeline::try_baseline_with_report(model)?,
            PipelineKind::LimpetMlir(isa) => {
                let block = isa.lanes();
                pipeline::try_limpet_mlir_with_report(model, isa, Layout::AoSoA { block })?
            }
            PipelineKind::LimpetMlirAos(isa) => {
                pipeline::try_limpet_mlir_with_report(model, isa, Layout::Aos)?
            }
            PipelineKind::LimpetMlirNoLut(isa) => {
                pipeline::try_limpet_mlir_no_lut_with_report(model, isa)?
            }
            PipelineKind::CompilerSimd(isa) => pipeline::try_compiler_simd_with_report(model, isa)?,
            PipelineKind::LimpetMlirSpline(isa) => {
                pipeline::try_limpet_mlir_spline_with_report(model, isa)?
            }
        };
        Ok((lowered.module, report))
    }
}

/// Maps a module's layout attribute to the storage layout.
pub fn storage_layout(module: &limpet_ir::Module) -> StateLayout {
    match pipeline::parse_layout(module) {
        Layout::Aos => StateLayout::Aos,
        Layout::AoSoA { block } => StateLayout::AoSoA {
            block: block as usize,
        },
    }
}

/// Workload parameters for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Number of cells (the paper uses 8192).
    pub n_cells: usize,
    /// Number of time steps (the paper's `bench` default is 100 000).
    pub steps: usize,
    /// Time step in ms (the paper uses 0.01).
    pub dt: f64,
}

impl Default for Workload {
    fn default() -> Workload {
        Workload {
            n_cells: 1024,
            steps: 50,
            dt: 0.01,
        }
    }
}

/// The periodic stimulus protocol of the `bench` binary: a depolarizing
/// current pulse at a basic cycle length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stimulus {
    /// Cycle length in ms.
    pub period: f64,
    /// Pulse duration in ms.
    pub duration: f64,
    /// Pulse amplitude added directly to dVm/dt (mV/ms).
    pub amplitude: f64,
}

impl Default for Stimulus {
    fn default() -> Stimulus {
        Stimulus {
            period: 500.0,
            duration: 2.0,
            amplitude: 60.0,
        }
    }
}

impl Stimulus {
    /// The stimulus contribution to `dVm/dt` at time `t`.
    pub fn at(&self, t: f64) -> f64 {
        if t % self.period < self.duration {
            self.amplitude
        } else {
            0.0
        }
    }
}

/// The runtime half of the fault-tolerant chain: everything a guarded
/// simulation needs to detect non-finite state and descend the
/// optimized → reference ladder mid-run.
#[derive(Debug)]
struct GuardState {
    policy: crate::HealthPolicy,
    /// The model, kept so the reference tier can be (re)compiled: the
    /// compiled entry's own, not a copy.
    model: std::sync::Arc<Model>,
    /// The compiled entry currently executing.
    entry: std::sync::Arc<crate::CompiledKernel>,
    tier: crate::Tier,
    /// Completed guarded steps (1-based after the first step).
    step_count: usize,
    incidents: Vec<crate::Incident>,
    /// Armed NaN injection: `(step, seed)` from a
    /// [`crate::FaultKind::StateNan`] plan.
    nan_plan: Option<(usize, u64)>,
}

/// Guarded steps between two rollback points (see
/// [`Simulation::run_guarded`]): one copy of the state per window instead
/// of one per step, for a replay of at most `ROLLBACK_WINDOW - 1` steps
/// when a step does come out non-finite. The daemon's default chunk, so a
/// default job copies once per `run_guarded` call.
const ROLLBACK_WINDOW: usize = 32;

/// `(state, ext, t)` at a step boundary — everything a step advances.
type RollbackPoint = (CellStates, ExtArrays, f64);

/// A ready-to-run simulation: compiled kernel plus storage.
#[derive(Debug)]
pub struct Simulation {
    kernel: Kernel,
    state: CellStates,
    ext: ExtArrays,
    /// Index of `Vm` in the external arrays, when present.
    vm_index: Option<usize>,
    /// Index of `Iion` in the external arrays, when present.
    iion_index: Option<usize>,
    stim: Stimulus,
    dt: f64,
    t: f64,
    /// Optional tissue coupling.
    tissue: Option<Monodomain>,
    /// Health-guard state; present only on guarded simulations.
    guard: Option<Box<GuardState>>,
    /// The native kernel; present only after promotion to
    /// [`crate::Tier::Native`]. The bytecode kernel stays authoritative
    /// (emission source, fallback target); native runs beside it.
    native: Option<std::sync::Arc<crate::native::NativeKernel>>,
    /// Cooperative cancellation/deadline token, polled by
    /// [`Simulation::step_guarded`] *before* each step so cancellation
    /// always lands at a step boundary (no torn mid-step state).
    cancel: Option<crate::CancelToken>,
}

impl Simulation {
    /// Builds a simulation for `model` under `config`, compiling through
    /// the process-wide [`crate::KernelCache`]: the first call for a
    /// `(model, config)` pair compiles, every later call reuses that
    /// compilation and only allocates fresh cell storage. With the
    /// cache's native promotion on, an eligible kernel is promoted here
    /// ([`Simulation::promote_native_blocking`]).
    ///
    /// # Panics
    ///
    /// Panics when the module fails bytecode compilation (roster models
    /// are tested not to).
    pub fn new(model: &Model, config: PipelineKind, workload: &Workload) -> Simulation {
        let cache = crate::KernelCache::global();
        let entry = cache.get_or_compile(model, config);
        let mut sim = Simulation::with_kernel(entry.kernel().clone(), entry.layout(), workload);
        sim.promote_if_enabled(cache);
        sim
    }

    /// Builds a simulation with a fresh compilation, bypassing every
    /// cache (the cold path: compile-time benchmarks, cache-validation
    /// tests, `figures --no-cache`).
    ///
    /// # Panics
    ///
    /// Panics when the module fails bytecode compilation.
    pub fn new_uncached(model: &Model, config: PipelineKind, workload: &Workload) -> Simulation {
        let module = config.build(model);
        let info = model_info(model);
        let kernel = Kernel::from_module(&module, &info)
            .unwrap_or_else(|e| panic!("kernel compilation failed for {}: {e}", model.name));
        let layout = storage_layout(&module);
        Simulation::with_kernel(kernel, layout, workload)
    }

    /// Builds a simulation from an already-compiled kernel (e.g. a
    /// [`crate::KernelCache`] entry), allocating storage for the
    /// workload. The kernel clone is cheap: compiled programs and LUTs
    /// are shared behind `Arc`. It runs on bytecode: no cache is involved,
    /// so nothing promotes it.
    pub fn with_kernel(kernel: Kernel, layout: StateLayout, workload: &Workload) -> Simulation {
        let state = kernel.new_states(workload.n_cells, layout);
        let ext = kernel.new_ext(workload.n_cells);
        let vm_index = kernel.info().ext_names.iter().position(|n| n == "Vm");
        let iion_index = kernel.info().ext_names.iter().position(|n| n == "Iion");
        Simulation {
            kernel,
            state,
            ext,
            vm_index,
            iion_index,
            stim: Stimulus::default(),
            dt: workload.dt,
            t: 0.0,
            tissue: None,
            guard: None,
            native: None,
            cancel: None,
        }
    }

    /// Builds a *guarded* simulation: compiles through the cache's
    /// degradation-aware lookup (falling back to the reference pipeline
    /// if the requested one fails), and arms per-step health checks with
    /// the given policy — use [`Simulation::step_guarded`] /
    /// [`Simulation::run_guarded`] to step it. Compile-time incidents are
    /// carried over into [`Simulation::incidents`].
    ///
    /// # Errors
    ///
    /// Returns the quarantine entry when even the reference pipeline
    /// fails to compile.
    pub fn new_resilient(
        model: &Model,
        config: PipelineKind,
        workload: &Workload,
        policy: crate::HealthPolicy,
    ) -> Result<Simulation, std::sync::Arc<crate::QuarantineEntry>> {
        let cache = crate::KernelCache::global();
        let rk = cache.get_or_compile_resilient(model, config)?;
        let mut sim =
            Simulation::with_kernel(rk.entry.kernel().clone(), rk.entry.layout(), workload);
        let nan_plan = crate::faults::take(crate::FaultKind::StateNan)
            .map(|seed| (crate::faults::nan_step(seed), seed));
        sim.guard = Some(Box::new(GuardState {
            policy,
            model: std::sync::Arc::clone(rk.entry.model()),
            entry: rk.entry,
            tier: rk.tier,
            step_count: 0,
            incidents: rk.incidents,
            nan_plan,
        }));
        sim.promote_if_enabled(cache);
        Ok(sim)
    }

    /// The construction-time promotion of [`Simulation::new`] and
    /// [`Simulation::new_resilient`]: when `cache` has native promotion on,
    /// an eligible simulation on the optimized tier is promoted. A guarded
    /// simulation that compiled on the reference tier stays there, so its
    /// snapshots keep saying which pipeline's bits they hold. A failed
    /// build leaves the simulation on bytecode, which computes the same
    /// bits; the registry records why.
    fn promote_if_enabled(&mut self, cache: &crate::KernelCache) {
        if cache.native_promotion() && self.tier() == crate::Tier::Optimized {
            let _ = self.promote_native_blocking(cache);
        }
    }

    /// Replaces the stimulus protocol.
    pub fn set_stimulus(&mut self, stim: Stimulus) {
        self.stim = stim;
    }

    /// Attaches a cooperative [`crate::CancelToken`]: every
    /// [`Simulation::step_guarded`] / [`Simulation::run_guarded`] call
    /// polls it before stepping, and a tripped token stops the run at
    /// that step boundary with a typed
    /// [`crate::IncidentKind::DeadlineExceeded`] incident. Clones of the
    /// token (held by a watchdog, a scheduler, a client) all observe and
    /// control the same latch.
    pub fn set_cancel_token(&mut self, token: crate::CancelToken) {
        self.cancel = Some(token);
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&crate::CancelToken> {
        self.cancel.as_ref()
    }

    /// Polls the attached token; on a trip, records (when guarded) and
    /// returns the typed deadline incident for the *upcoming* step.
    fn check_cancel(&mut self) -> Option<crate::Incident> {
        let cause = self.cancel.as_ref()?.checked()?;
        let tier = self.tier();
        let (model, step) = match self.guard.as_ref() {
            Some(g) => (g.model.name.clone(), g.step_count),
            None => (self.kernel.name().to_string(), 0),
        };
        let incident = crate::Incident::new(
            crate::IncidentKind::DeadlineExceeded,
            model,
            format!("{cause}: stopped cooperatively after {step} completed step(s)"),
        )
        .at_step(step)
        .to_tier(tier);
        if let Some(g) = self.guard.as_mut() {
            g.incidents.push(incident.clone());
        }
        Some(incident)
    }

    /// Enables 1-D monodomain tissue coupling with the given conductivity
    /// (replacing the independent-cell membrane update).
    pub fn enable_tissue(&mut self, sigma: f64) {
        self.tissue = Some(Monodomain::new(self.state.n_cells(), sigma, 1.0, self.dt));
    }

    /// The compiled kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Current simulation time (ms).
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Reads the membrane potential of a cell.
    pub fn vm(&self, cell: usize) -> f64 {
        self.vm_index.map_or(0.0, |i| self.ext.get(cell, i))
    }

    /// Reads the ionic current of a cell.
    pub fn iion(&self, cell: usize) -> f64 {
        self.iion_index.map_or(0.0, |i| self.ext.get(cell, i))
    }

    /// Reads a state variable by name.
    pub fn state_of(&self, cell: usize, var: &str) -> Option<f64> {
        let idx = self
            .kernel
            .info()
            .state_names
            .iter()
            .position(|n| n == var)?;
        Some(self.state.get(cell, idx))
    }

    /// Guarded steps completed so far — the guard's own step counter,
    /// which survives a snapshot/restore round-trip. This is the count a
    /// checkpoint must record: a deadline can stop a chunk early, so a
    /// caller's chunk-granular tally may overstate what actually ran.
    /// Returns 0 for unguarded simulations.
    pub fn guarded_steps(&self) -> usize {
        self.guard.as_ref().map_or(0, |g| g.step_count)
    }

    /// Bit pattern of every logical cell's full visible state — each
    /// state variable, then every external (`Vm`, `Iion`, …) — in cell
    /// order. Two runs are bit-identical iff their vectors are equal;
    /// this is the payload of the real-thread differential gate (compare
    /// a `ShardedSimulation::state_bits` against a single-thread run's).
    /// One allocation of the final size, filled block by block
    /// ([`CellStates::copy_to_rows`], [`ExtArrays::copy_to_rows`]).
    pub fn state_bits(&self) -> Vec<u64> {
        let mut bits = Vec::new();
        self.append_state_bits(&mut bits);
        bits
    }

    /// Values per cell in [`Simulation::state_bits`]: every state
    /// variable, then every external.
    pub(crate) fn row_width(&self) -> usize {
        self.state.n_vars() + self.ext.n_vars()
    }

    /// Appends [`Simulation::state_bits`] to `out` — how a pool gathers
    /// its shards' rows into one vector.
    pub(crate) fn append_state_bits(&self, out: &mut Vec<u64>) {
        let (n_state, stride) = (self.state.n_vars(), self.row_width());
        let start = out.len();
        out.resize(start + self.n_cells() * stride, 0);
        let rows = &mut out[start..];
        self.state.copy_to_rows(rows, stride);
        self.ext
            .copy_to_rows(rows.get_mut(n_state..).unwrap_or_default(), stride);
    }

    /// Captures everything needed to continue this run bit-identically
    /// in a [`crate::checkpoint::Snapshot`]: the logical state bits, the
    /// sim clock, the executing tier, the kernel's executed-step counter,
    /// and any pending seeded-fault plan. `config_label` is the pipeline
    /// label the simulation was built under (the sim does not retain it);
    /// `steps_done` is the caller's completed-step count, echoed back by
    /// resume so chunk loops can continue where they stopped.
    ///
    /// Call at a step boundary only — mid-step there is no coherent
    /// state to capture (guarded stepping already lands cancellation at
    /// boundaries, so every natural snapshot point qualifies).
    pub fn snapshot(&self, config_label: &str, steps_done: u64) -> crate::checkpoint::Snapshot {
        self.snapshot_with_state(config_label, steps_done, self.state_bits())
    }

    /// [`Simulation::snapshot`] around a given `state` — a pool's, which
    /// it gathered from every shard.
    pub(crate) fn snapshot_with_state(
        &self,
        config_label: &str,
        steps_done: u64,
        state: Vec<u64>,
    ) -> crate::checkpoint::Snapshot {
        let model = self
            .guard
            .as_ref()
            .map_or_else(|| self.kernel.name().to_string(), |g| g.model.name.clone());
        crate::checkpoint::Snapshot {
            model,
            config: config_label.to_string(),
            n_cells: self.n_cells(),
            dt_bits: self.dt.to_bits(),
            t_bits: self.t.to_bits(),
            steps_done,
            tier: self.tier().to_string(),
            executed_steps: self.kernel.executed_steps(),
            nan_plan: self
                .guard
                .as_ref()
                .and_then(|g| g.nan_plan)
                .map(|(step, seed)| (step as u64, seed)),
            shards: Vec::new(),
            meta: None,
            state,
        }
    }

    /// Writes a flat run of logical-cell bits (the [`Simulation::state_bits`]
    /// layout) into this simulation's storage, block by block; padding
    /// lanes keep their initial values. The shard-level restore
    /// primitive: key validation and counter restore live in
    /// [`Simulation::restore`]; sharded resume slices one snapshot across
    /// shards with this.
    ///
    /// # Errors
    ///
    /// Returns a description when `bits` is not exactly
    /// `n_cells * (n_state + n_ext)` values.
    pub fn restore_cells(&mut self, bits: &[u64]) -> Result<(), String> {
        let (n_state, stride) = (self.state.n_vars(), self.row_width());
        let expect = self.n_cells() * stride;
        if bits.len() != expect {
            return Err(format!(
                "snapshot carries {} state values, this simulation needs {expect}",
                bits.len()
            ));
        }
        self.state.copy_from_rows(bits, stride);
        self.ext
            .copy_from_rows(bits.get(n_state..).unwrap_or_default(), stride);
        Ok(())
    }

    /// Restores a snapshot into this (freshly built) simulation: state
    /// bits, sim clock, guard step counter, pending fault plan, and the
    /// kernel's executed-step floor. A guarded simulation restoring a
    /// snapshot taken on [`crate::Tier::Reference`] descends there too,
    /// with a `tier-fallback` incident: the reference pipeline computes
    /// other bits than the configured one, so resuming anywhere else would
    /// continue a different trajectory. When the snapshot was executing on
    /// [`crate::Tier::Native`], re-promotion is attempted best-effort — on
    /// failure the run continues on bytecode, which is bit-identical by
    /// construction, so the trajectory is unaffected either way.
    ///
    /// # Errors
    ///
    /// Returns a description when the snapshot's shape does not match
    /// this simulation (wrong cell count or state width), or when it was
    /// taken on the reference tier and the reference pipeline does not
    /// compile.
    pub fn restore(&mut self, snap: &crate::checkpoint::Snapshot) -> Result<(), String> {
        if snap.n_cells != self.n_cells() {
            return Err(format!(
                "snapshot has {} cells, this simulation has {}",
                snap.n_cells,
                self.n_cells()
            ));
        }
        // Descend before writing any cell, so that a reference pipeline
        // which does not compile leaves this simulation as it was.
        let reference = crate::Tier::Reference;
        let descend = snap.tier == reference.to_string()
            && self.guard.as_ref().is_some_and(|g| g.tier != reference);
        if descend {
            let mut g = self.guard.take().expect("guarded simulation");
            let adopted = self.adopt_reference(&mut g);
            if adopted.is_ok() {
                g.incidents.push(
                    crate::Incident::new(
                        crate::IncidentKind::TierFallback,
                        &g.model.name,
                        "resumed from a snapshot taken on the reference tier",
                    )
                    .at_step(snap.steps_done as usize)
                    .to_tier(reference),
                );
            }
            self.guard = Some(g);
            adopted?;
        }
        self.restore_rows(snap, &snap.state, snap.nan_plan)?;
        if snap.tier == crate::Tier::Native.to_string() && self.native.is_none() {
            // Best-effort: a missing toolchain or quarantined build just
            // means the resumed run re-earns native later (or never) —
            // the bits are the same either way.
            let _ = self.promote_native_blocking(crate::KernelCache::global());
        }
        Ok(())
    }

    /// Restores the cells `bits` ([`Simulation::restore_cells`]), then the
    /// clock and counters of `snap`, with `nan_plan` pending — the part of
    /// [`Simulation::restore`] a pool's shard runs on its rows of a
    /// pool-wide snapshot.
    pub(crate) fn restore_rows(
        &mut self,
        snap: &crate::checkpoint::Snapshot,
        bits: &[u64],
        nan_plan: Option<(u64, u64)>,
    ) -> Result<(), String> {
        self.restore_cells(bits)?;
        self.t = f64::from_bits(snap.t_bits);
        if let Some(g) = self.guard.as_mut() {
            g.step_count = snap.steps_done as usize;
            g.nan_plan = nan_plan.map(|(step, seed)| (step as usize, seed));
        }
        self.kernel.restore_executed_steps(snap.executed_steps);
        Ok(())
    }

    /// Builds a guarded simulation and restores `snap` into it — the
    /// one-call resume path. The snapshot's key echo (model, config,
    /// cell count, dt bits) must match what is being built; a mismatch
    /// is an error, never a silently different trajectory.
    ///
    /// # Errors
    ///
    /// Returns a description on key mismatch, compile failure, or shape
    /// mismatch.
    pub fn resume_from(
        model: &Model,
        config: PipelineKind,
        workload: &Workload,
        policy: crate::HealthPolicy,
        snap: &crate::checkpoint::Snapshot,
    ) -> Result<Simulation, String> {
        snap.key_matches(&model.name, &config.label(), workload.n_cells, workload.dt)?;
        let mut sim = Simulation::new_resilient(model, config, workload, policy)
            .map_err(|q| format!("resume compile failed: {}", q.error))?;
        sim.restore(snap)?;
        Ok(sim)
    }

    /// Applies a voltage perturbation to one cell (e.g. a local stimulus
    /// in tissue runs).
    pub fn perturb_vm(&mut self, cell: usize, delta: f64) {
        if let Some(i) = self.vm_index {
            let v = self.ext.get(cell, i);
            self.ext.set(cell, i, v + delta);
        }
    }

    /// Advances one step: compute stage, then membrane/tissue update.
    ///
    /// When a validated native kernel has been swapped in
    /// ([`crate::Tier::Native`]), the compute stage runs through it;
    /// the native code is bit-identical to the bytecode tier by
    /// construction (emitted from the same `Program`, probated before
    /// the swap), so trajectories are unchanged.
    pub fn step(&mut self) {
        let ctx = SimContext {
            dt: self.dt,
            t: self.t,
        };
        if let Some(native) = &self.native {
            native.run_step(
                &mut self.state,
                &mut self.ext,
                self.kernel.param_values(),
                ctx,
            );
        } else {
            self.kernel
                .run_step(&mut self.state, &mut self.ext, None, ctx);
        }
        self.update_vm();
        self.t += self.dt;
    }

    /// Swaps a validated native kernel in at a step boundary.
    fn adopt_native(&mut self, native: std::sync::Arc<crate::native::NativeKernel>) {
        self.native = Some(native);
        if let Some(g) = self.guard.as_mut() {
            g.incidents.push(
                crate::Incident::new(
                    crate::IncidentKind::NativePromoted,
                    &g.model.name,
                    "hot-swapped validated native kernel at step boundary",
                )
                .at_step(g.step_count)
                .to_tier(crate::Tier::Native),
            );
            g.tier = crate::Tier::Native;
        }
    }

    /// Promotes this simulation to [`crate::Tier::Native`] through
    /// `cache`: emits C for the kernel, compiles it (or loads the shared
    /// object from the disk cache), probates it, and swaps it in before
    /// returning. The one promotion path: construction through a cache
    /// with native promotion on, [`Simulation::restore`] of a `native`
    /// snapshot, benches and tests all come here.
    ///
    /// # Errors
    ///
    /// Returns the quarantine reason (toolchain missing, compile or
    /// load failure, probation divergence) or the eligibility failure;
    /// the simulation keeps running on bytecode in every such case.
    pub fn promote_native_blocking(&mut self, cache: &crate::KernelCache) -> Result<(), String> {
        if self.native.is_some() {
            return Ok(());
        }
        if !crate::native::native_eligible(&self.kernel, self.state.layout()) {
            return Err("not eligible: native tier is width-1 AoS only".into());
        }
        let slot = crate::native::build_blocking(
            cache.native_registry(),
            &self.kernel,
            self.kernel.name(),
            cache.disk_cache(),
        )?;
        match slot {
            crate::native::NativeSlot::Ready(native) => {
                self.adopt_native(native);
                Ok(())
            }
            crate::native::NativeSlot::Quarantined(reason) => Err(reason.to_string()),
        }
    }

    /// Advances one step over `[lo, hi)` cells only (compute stage), used
    /// by the threaded driver; the membrane update must be applied
    /// separately with [`Simulation::update_vm`].
    pub fn step_range(&mut self, lo: usize, hi: usize) {
        let ctx = SimContext {
            dt: self.dt,
            t: self.t,
        };
        self.kernel
            .run_range(&mut self.state, &mut self.ext, None, ctx, lo, hi);
    }

    /// The membrane / tissue stage of a step.
    pub fn update_vm(&mut self) {
        let (Some(vm_i), Some(ii_i)) = (self.vm_index, self.iion_index) else {
            return;
        };
        let stim = self.stim.at(self.t);
        let dt = self.dt;
        match &mut self.tissue {
            None => {
                let n = self.ext.n_cells();
                for cell in 0..n {
                    let v = self.ext.get(cell, vm_i);
                    let i = self.ext.get(cell, ii_i);
                    self.ext.set(cell, vm_i, v + dt * (-i + stim));
                }
            }
            Some(md) => {
                let n = md.n_cells();
                let mut vm: Vec<f64> = (0..n).map(|c| self.ext.get(c, vm_i)).collect();
                let iion: Vec<f64> = (0..n).map(|c| self.ext.get(c, ii_i)).collect();
                // Reaction: explicit Iion + stimulus; diffusion: implicit.
                for (v, i) in vm.iter_mut().zip(&iion) {
                    *v += dt * (-i + stim);
                }
                md.step(&mut vm, &iion).expect("monodomain solve failed");
                for (c, v) in vm.iter().enumerate() {
                    self.ext.set(c, vm_i, *v);
                }
            }
        }
    }

    /// Advances the clock without computing (used by the threaded driver,
    /// which sequences the stages itself).
    pub fn advance_time(&mut self) {
        self.t += self.dt;
    }

    /// The logical cell count of this simulation.
    pub fn n_cells(&self) -> usize {
        self.state.n_cells()
    }

    /// The padded cell count of the state storage (a multiple of the
    /// kernel chunk width).
    pub fn padded_cells(&self) -> usize {
        self.state.padded_cells()
    }

    /// Runs `steps` steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// The tier of the degradation ladder this simulation is executing
    /// on. Unguarded simulations report [`crate::Tier::Optimized`]
    /// (or [`crate::Tier::Native`] after promotion).
    pub fn tier(&self) -> crate::Tier {
        if self.native.is_some() {
            return crate::Tier::Native;
        }
        self.guard
            .as_ref()
            .map_or(crate::Tier::Optimized, |g| g.tier)
    }

    /// Every incident this simulation has recorded — compile-time
    /// fallbacks inherited from the cache lookup plus runtime health
    /// events — in order. The compile-time counterpart of the pass
    /// report: where [`crate::CompiledKernel::pass_report`] says what the
    /// compiler did, this says what went wrong and how it was absorbed.
    pub fn incidents(&self) -> &[crate::Incident] {
        self.guard.as_ref().map_or(&[], |g| &g.incidents)
    }

    /// Advances one step under the health guard: [`Simulation::run_guarded`]
    /// of one step (there is one guarded-step path).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_guarded`].
    pub fn step_guarded(&mut self) -> Result<(), crate::Incident> {
        self.run_guarded(1)
    }

    /// Runs `steps` steps under the health guard: before each step the
    /// attached [`crate::CancelToken`] is polled, after each step the
    /// state and externals are scanned for non-finite values, and a step
    /// that fails the scan is handled by the configured
    /// [`crate::HealthPolicy`]. On an unguarded simulation this is plain
    /// [`Simulation::step`] under the token.
    ///
    /// `FallbackRaw`, which needs a failed step's pre-state, gets it from
    /// one *rollback point* per [`ROLLBACK_WINDOW`] steps, not from a copy
    /// per step: when step `k + 1` of a window fails, the rollback point
    /// is restored and the `k` steps that passed the scan are replayed with
    /// plain
    /// [`Simulation::step`], which rebuilds — bit for bit, stepping being
    /// a function of `(state, ext, t)` alone — the state the failed step
    /// started from. A handled step ends its window, since what the
    /// policy left behind is not what a replay would produce. However a
    /// run is cut into calls, the state, the incidents and
    /// [`Simulation::guarded_steps`] are those of one step per call.
    ///
    /// # Errors
    ///
    /// Returns the recorded incident when the policy is
    /// [`crate::HealthPolicy::Abort`], when every tier below the
    /// current one has been exhausted under
    /// [`crate::HealthPolicy::FallbackRaw`], or when the token has
    /// tripped (deadline or explicit cancel) — in that last case the
    /// upcoming step is *not* taken and nothing is replayed, so the state
    /// is whole up to the previous boundary.
    pub fn run_guarded(&mut self, steps: usize) -> Result<(), crate::Incident> {
        use crate::HealthPolicy;
        let policy = self.guard.as_ref().map(|g| g.policy);
        // `Abort` never restores, an unguarded simulation never scans:
        // neither takes a rollback point.
        let rolls_back = policy == Some(HealthPolicy::FallbackRaw);
        // The rollback point lives on this call's stack: nothing that
        // edits the simulation between two calls (`perturb_vm`, `restore`,
        // `set_stimulus`) can leave it stale.
        let mut point: Option<RollbackPoint> = None;
        let mut left = steps;
        while left > 0 {
            if rolls_back {
                match &mut point {
                    Some((state, ext, t)) => {
                        state.clone_from(&self.state);
                        ext.clone_from(&self.ext);
                        *t = self.t;
                    }
                    None => point = Some((self.state.clone(), self.ext.clone(), self.t)),
                }
            }
            for good in 0..left.min(ROLLBACK_WINDOW) {
                if let Some(incident) = self.check_cancel() {
                    return Err(incident);
                }
                self.step();
                left -= 1;
                if policy.is_none() || self.count_step_and_scan() {
                    continue;
                }
                self.handle_non_finite(&mut point, good)?;
                break;
            }
        }
        Ok(())
    }

    /// The guard's bookkeeping after a step: counts it, fires an armed
    /// NaN injection, and scans. True when the state is finite.
    fn count_step_and_scan(&mut self) -> bool {
        let g = self.guard.as_mut().expect("guarded simulation");
        g.step_count += 1;
        // Deterministic fault injection: a seeded NaN "blow-up" at the
        // planned step, written into one cell's membrane potential.
        if let Some((step, seed)) = g.nan_plan {
            if step == g.step_count {
                g.nan_plan = None;
                let cell = seed as usize % self.n_cells();
                if let Some(vm_i) = self.vm_index {
                    self.ext.set(cell, vm_i, f64::NAN);
                } else {
                    self.state.set(cell, 0, f64::NAN);
                }
            }
        }
        self.all_finite()
    }

    /// Applies the policy to a step that left non-finite state, the
    /// `good + 1`-th since the rollback point was taken.
    fn handle_non_finite(
        &mut self,
        point: &mut Option<RollbackPoint>,
        good: usize,
    ) -> Result<(), crate::Incident> {
        use crate::{HealthPolicy, Incident, IncidentKind};
        // While the guard is still in `self`: the replay steps like any
        // other call, and a native kernel adopted during it is recorded.
        if let Some(point) = point.as_mut() {
            self.rewind_to_failed_step(point, good);
        }
        let mut g = self.guard.take().expect("guarded simulation");
        let result = match g.policy {
            HealthPolicy::Abort => {
                let incident = Incident::new(
                    IncidentKind::NonFiniteState,
                    &g.model.name,
                    "non-finite value in cell state; aborting (policy abort)",
                )
                .at_step(g.step_count)
                .to_tier(g.tier);
                g.incidents.push(incident.clone());
                Err(incident)
            }
            HealthPolicy::FallbackRaw => {
                let (state, ext, t) = point.take().expect("rollback point taken for fallback");
                self.fall_back_and_retry(&mut g, state, ext, t)
            }
        };
        self.guard = Some(g);
        result
    }

    /// Turns the rollback point into the pre-state of the step that just
    /// failed, `good` steps after the point was taken, by replaying those
    /// steps from it. The failed step's own (non-finite) result and clock
    /// stay in `self`.
    fn rewind_to_failed_step(&mut self, point: &mut RollbackPoint, good: usize) {
        let mut swap = |sim: &mut Simulation| {
            std::mem::swap(&mut sim.state, &mut point.0);
            std::mem::swap(&mut sim.ext, &mut point.1);
            std::mem::swap(&mut sim.t, &mut point.2);
        };
        swap(self);
        for _ in 0..good {
            self.step();
        }
        swap(self);
    }

    /// Rolls the step back and retries it on successively lower tiers
    /// until the state comes out finite or the ladder is exhausted.
    fn fall_back_and_retry(
        &mut self,
        g: &mut GuardState,
        state: CellStates,
        ext: ExtArrays,
        t: f64,
    ) -> Result<(), crate::Incident> {
        use crate::{Incident, IncidentKind, Tier};
        let failed_step = g.step_count;
        self.state = state;
        self.ext = ext;
        self.t = t;
        g.step_count -= 1;
        g.incidents.push(
            Incident::new(
                IncidentKind::NonFiniteState,
                &g.model.name,
                "non-finite value in cell state; rolled back one step",
            )
            .at_step(failed_step)
            .to_tier(g.tier),
        );
        loop {
            let Some(next) = g.tier.next_down() else {
                let incident = Incident::new(
                    IncidentKind::NonFiniteState,
                    &g.model.name,
                    "non-finite state persists on the reference tier; giving up",
                )
                .at_step(failed_step)
                .to_tier(g.tier);
                g.incidents.push(incident.clone());
                return Err(incident);
            };
            // Adopt the lower tier's kernel, carrying the rolled-back
            // per-cell values across (layouts may differ).
            match next {
                Tier::Reference => {
                    if let Err(detail) = self.adopt_reference(g) {
                        let incident =
                            Incident::new(IncidentKind::NonFiniteState, &g.model.name, detail)
                                .at_step(failed_step)
                                .to_tier(g.tier);
                        g.incidents.push(incident.clone());
                        return Err(incident);
                    }
                }
                Tier::Optimized => {
                    // Falling off the native tier: drop the native code
                    // and resume on the bytecode kernel it was compiled
                    // from (same compilation, same arithmetic).
                    self.native = None;
                    self.adopt_kernel(g.entry.kernel().clone(), g.entry.layout());
                }
                Tier::Native => unreachable!("native is entered by promotion, never by descent"),
            }
            g.tier = next;
            g.incidents.push(
                Incident::new(
                    IncidentKind::TierFallback,
                    &g.model.name,
                    format!("retrying step {failed_step} on tier {next}"),
                )
                .at_step(failed_step)
                .to_tier(next),
            );
            let snapshot = (self.state.clone(), self.ext.clone(), self.t);
            self.step();
            g.step_count += 1;
            if self.all_finite() {
                return Ok(());
            }
            // Still bad: roll back again and descend further.
            self.state = snapshot.0;
            self.ext = snapshot.1;
            self.t = snapshot.2;
            g.step_count -= 1;
            g.incidents.push(
                Incident::new(
                    IncidentKind::NonFiniteState,
                    &g.model.name,
                    format!("non-finite state persists on tier {next}; rolled back again"),
                )
                .at_step(failed_step)
                .to_tier(next),
            );
        }
    }

    /// True when every logical cell's state variables and externals are
    /// finite. The common answer comes from one flat pass over the raw
    /// storage; only when that finds something are the logical cells asked
    /// one by one, so a padding lane neither raises nor hides an incident.
    fn all_finite(&self) -> bool {
        let flat = flat_finite(self.state.raw())
            && (0..self.ext.n_vars()).all(|v| flat_finite(self.ext.array(v)));
        if flat {
            return true;
        }
        let n = self.n_cells();
        let n_state = self.kernel.info().state_names.len();
        let n_ext = self.kernel.info().ext_names.len();
        (0..n).all(|cell| {
            (0..n_state).all(|v| self.state.get(cell, v).is_finite())
                && (0..n_ext).all(|v| self.ext.get(cell, v).is_finite())
        })
    }

    /// Moves a guarded simulation onto the reference pipeline: the
    /// [`PipelineKind::Baseline`] entry's kernel, with the current per-cell
    /// values carried across. The one way down to [`crate::Tier::Reference`],
    /// for a failed step and for a resumed snapshot alike.
    fn adopt_reference(&mut self, g: &mut GuardState) -> Result<(), String> {
        let entry = crate::KernelCache::global()
            .try_get_or_compile(&g.model, PipelineKind::Baseline)
            .map_err(|q| format!("reference pipeline unavailable: {}", q.error))?;
        // Native code, if any, is of the kernel being left.
        self.native = None;
        self.adopt_kernel(entry.kernel().clone(), entry.layout());
        g.entry = entry;
        g.tier = crate::Tier::Reference;
        Ok(())
    }

    /// Swaps in a different compiled kernel mid-run, migrating the
    /// logical cells' state and external values into storage shaped for
    /// the new kernel (layout and padding may differ).
    fn adopt_kernel(&mut self, kernel: Kernel, layout: StateLayout) {
        let n = self.n_cells();
        let mut state = kernel.new_states(n, layout);
        let mut ext = kernel.new_ext(n);
        let n_state = kernel.info().state_names.len();
        let n_ext = kernel.info().ext_names.len();
        for cell in 0..n {
            for v in 0..n_state {
                state.set(cell, v, self.state.get(cell, v));
            }
            for v in 0..n_ext {
                ext.set(cell, v, self.ext.get(cell, v));
            }
        }
        self.kernel = kernel;
        self.state = state;
        self.ext = ext;
    }

    /// Runs one step with operation counting (for the roofline model).
    pub fn step_profiled(&mut self) -> Profile {
        let ctx = SimContext {
            dt: self.dt,
            t: self.t,
        };
        let p = self
            .kernel
            .run_step_profiled(&mut self.state, &mut self.ext, None, ctx);
        self.update_vm();
        self.t += self.dt;
        p
    }
}

/// True when no value of `xs` is NaN or infinite: the OR of
/// `!is_finite()` over 8-wide chunks, branch-free so that it vectorises.
fn flat_finite(xs: &[f64]) -> bool {
    let (chunks, rest) = xs.as_chunks::<8>();
    let mut bad = [false; 8];
    for chunk in chunks {
        for (b, x) in bad.iter_mut().zip(chunk) {
            *b |= !x.is_finite();
        }
    }
    !bad.contains(&true) && rest.iter().all(|x| x.is_finite())
}

/// Per-class default workloads: larger models get the same cell count but
/// their kernels are intrinsically more expensive, mirroring the paper's
/// fixed 8192-cell workload.
pub fn class_workload(_class: SizeClass, n_cells: usize, steps: usize) -> Workload {
    Workload {
        n_cells,
        steps,
        dt: 0.01,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelCache;
    use limpet_models::model;

    #[test]
    fn hodgkin_huxley_fires_action_potential() {
        let m = model("HodgkinHuxley");
        let wl = Workload {
            n_cells: 8,
            steps: 0,
            dt: 0.01,
        };
        let mut sim = Simulation::new(&m, PipelineKind::Baseline, &wl);
        sim.set_stimulus(Stimulus {
            period: 50.0,
            duration: 1.0,
            amplitude: 80.0,
        });
        let mut peak = f64::MIN;
        for _ in 0..4000 {
            sim.step();
            peak = peak.max(sim.vm(0));
        }
        // An HH action potential overshoots above +10 mV.
        assert!(peak > 10.0, "no action potential: peak {peak}");
        // And repolarizes back below -50 mV.
        assert!(sim.vm(0) < -50.0, "did not repolarize: {}", sim.vm(0));
    }

    #[test]
    fn baseline_and_mlir_trajectories_agree() {
        let m = model("BeelerReuter");
        let wl = Workload {
            n_cells: 16,
            steps: 0,
            dt: 0.01,
        };
        let mut a = Simulation::new(&m, PipelineKind::Baseline, &wl);
        let mut b = Simulation::new(&m, PipelineKind::LimpetMlir(VectorIsa::Avx512), &wl);
        for _ in 0..2000 {
            a.step();
            b.step();
        }
        let (va, vb) = (a.vm(3), b.vm(3));
        assert!(
            (va - vb).abs() < 1e-4 * va.abs().max(1.0),
            "trajectories diverged: {va} vs {vb}"
        );
    }

    #[test]
    fn tissue_propagates_excitation() {
        let m = model("MitchellSchaeffer");
        let wl = Workload {
            n_cells: 64,
            steps: 0,
            dt: 0.05,
        };
        let mut sim = Simulation::new(&m, PipelineKind::Baseline, &wl);
        sim.set_stimulus(Stimulus {
            period: 1e9,
            duration: 0.0,
            amplitude: 0.0,
        });
        sim.enable_tissue(0.5);
        // Excite the left end only.
        for c in 0..4 {
            sim.perturb_vm(c, 40.0);
        }
        let mut reached = false;
        for _ in 0..20000 {
            sim.step();
            if sim.vm(32) > 30.0 {
                reached = true;
                break;
            }
        }
        assert!(reached, "wave did not propagate to mid-cable");
    }

    #[test]
    fn profiled_step_reports_work() {
        let m = model("Pathmanathan");
        let wl = Workload {
            n_cells: 32,
            steps: 0,
            dt: 0.01,
        };
        let mut sim = Simulation::new(&m, PipelineKind::Baseline, &wl);
        let p = sim.step_profiled();
        assert!(p.flops > 0);
        assert!(p.bytes_read > 0);
        assert!(p.bytes_written > 0);
    }

    #[test]
    fn cancel_token_stops_guarded_run_at_step_boundary() {
        let m = model("HodgkinHuxley");
        let wl = Workload {
            n_cells: 4,
            steps: 0,
            dt: 0.01,
        };
        let mut sim =
            Simulation::new_resilient(&m, PipelineKind::Baseline, &wl, crate::HealthPolicy::Abort)
                .expect("baseline compiles");
        let token = crate::CancelToken::new();
        sim.set_cancel_token(token.clone());
        sim.run_guarded(10).expect("live token does not interfere");
        let bits = sim.state_bits();
        token.cancel();
        let err = sim
            .run_guarded(10)
            .expect_err("tripped token stops the run");
        assert_eq!(err.kind, crate::IncidentKind::DeadlineExceeded);
        assert_eq!(err.step, Some(10), "cancellation lands at the boundary");
        assert_eq!(
            sim.state_bits(),
            bits,
            "no step ran after the trip: state is whole"
        );
        assert!(
            sim.incidents()
                .iter()
                .any(|i| i.kind == crate::IncidentKind::DeadlineExceeded),
            "incident recorded on the guard"
        );
    }

    #[test]
    fn flat_scan_finds_every_non_finite_value() {
        for len in [0, 1, 7, 8, 9, 16, 37] {
            let xs = vec![1.5; len];
            assert!(flat_finite(&xs), "len {len}");
            for at in 0..len {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut ys = xs.clone();
                    ys[at] = bad;
                    assert!(!flat_finite(&ys), "len {len}, {bad} at {at}");
                }
            }
        }
    }

    /// A non-finite value in a padding lane — which the flat scan sees and
    /// a W=8 kernel computes on — is not an incident, and never reaches a
    /// logical cell.
    #[test]
    fn non_finite_padding_lane_raises_nothing() {
        let m = model("BeelerReuter");
        let wl = Workload {
            n_cells: 13,
            steps: 0,
            dt: 0.01,
        };
        for config in [
            PipelineKind::Baseline,
            PipelineKind::LimpetMlir(VectorIsa::Avx512),
        ] {
            let mut sim =
                Simulation::new_resilient(&m, config, &wl, crate::HealthPolicy::FallbackRaw)
                    .expect("roster model compiles");
            assert_eq!(sim.padded_cells(), 16);
            *sim.state.raw_mut().last_mut().unwrap() = f64::NAN;
            sim.ext.array_mut(sim.vm_index.unwrap())[14] = f64::INFINITY;
            assert!(!flat_finite(sim.state.raw()) && sim.all_finite());
            sim.run_guarded(40).expect("padding is not state");
            assert!(sim.incidents().is_empty(), "{:?}", sim.incidents());
            assert_eq!(sim.tier(), crate::Tier::Optimized);
            let mut clean = Simulation::new(&m, config, &wl);
            clean.run(40);
            assert_eq!(sim.state_bits(), clean.state_bits(), "{}", config.label());
        }
    }

    /// A native kernel adopted by a guarded simulation mid-run is recorded
    /// on the guard, so that the ladder's first rung below it is the
    /// bytecode it was compiled from — not `reference` with the native
    /// code still running.
    #[test]
    fn promotion_under_the_guard_is_recorded_and_falls_back_to_optimized() {
        if !crate::toolchain_available() {
            println!("skipping: no C toolchain on this host");
            return;
        }
        let m = model("BeelerReuter");
        let wl = Workload {
            n_cells: 5,
            steps: 0,
            dt: 0.01,
        };
        let policy = crate::HealthPolicy::FallbackRaw;
        let mut sim = Simulation::new_resilient(&m, PipelineKind::Baseline, &wl, policy)
            .expect("roster model compiles");
        sim.run_guarded(16).expect("healthy model");
        let cache = KernelCache::global();
        sim.promote_native_blocking(cache)
            .unwrap_or_else(|e| panic!("{e}: {:?}", cache.native_registry().incidents()));
        assert_eq!(sim.tier(), crate::Tier::Native);
        sim.run_guarded(16).expect("healthy model");
        let promoted: Vec<_> = sim
            .incidents()
            .iter()
            .filter(|i| i.kind == crate::IncidentKind::NativePromoted)
            .collect();
        assert_eq!(promoted.len(), 1, "{:?}", sim.incidents());
        assert_eq!(promoted[0].step, Some(16), "recorded with its step");
        assert_eq!(sim.snapshot("baseline", 0).tier, "native");

        sim.perturb_vm(0, f64::NAN);
        // NaN in, NaN out on every tier: what matters is where it starts.
        sim.step_guarded().expect_err("no tier makes NaN finite");
        let first_rung = sim
            .incidents()
            .iter()
            .find(|i| i.kind == crate::IncidentKind::TierFallback)
            .expect("the ladder was walked");
        assert_eq!(first_rung.tier, Some(crate::Tier::Optimized));
        assert_ne!(sim.tier(), crate::Tier::Native);
    }

    #[test]
    fn expired_deadline_stops_even_unguarded_runs() {
        let m = model("HodgkinHuxley");
        let wl = Workload {
            n_cells: 4,
            steps: 0,
            dt: 0.01,
        };
        let mut sim = Simulation::new(&m, PipelineKind::Baseline, &wl);
        sim.set_cancel_token(crate::CancelToken::with_budget(std::time::Duration::ZERO));
        let err = sim.run_guarded(5).expect_err("expired budget");
        assert_eq!(err.kind, crate::IncidentKind::DeadlineExceeded);
        assert!(err.detail.contains("deadline-exceeded"), "{}", err.detail);
    }

    /// The whole-storage copies against per-element access, under every
    /// layout a configuration uses (AoS, AoSoA blocks of 2, 4 and 8), at
    /// 13 cells — one whole block of 8 and a ragged one: `state_bits` reads
    /// what `get` reads, and `restore_cells` writes what `set` writes,
    /// which leaves every padding lane at its initial value.
    #[test]
    fn state_bits_and_restore_cells_equal_per_element_access() {
        let m = model("BeelerReuter");
        let wl = Workload {
            n_cells: 13,
            steps: 0,
            dt: 0.01,
        };
        let mut layouts = Vec::new();
        let configs = VectorIsa::ALL.map(PipelineKind::LimpetMlir);
        for config in [PipelineKind::Baseline].into_iter().chain(configs) {
            let what = config.label();
            let mut sim = Simulation::new(&m, config, &wl);
            sim.perturb_vm(3, 7.5);
            sim.run(20);
            let (n_state, n_ext) = (sim.state.n_vars(), sim.ext.n_vars());
            assert!(n_state > 1 && n_ext > 1, "{what}");
            let mut read = Vec::new();
            for cell in 0..wl.n_cells {
                read.extend((0..n_state).map(|var| sim.state.get(cell, var).to_bits()));
                read.extend((0..n_ext).map(|var| sim.ext.get(cell, var).to_bits()));
            }
            assert_eq!(sim.state_bits(), read, "{what}: state_bits");

            let bits: Vec<u64> = (0..read.len())
                .map(|i| (i as f64 - 0.25).to_bits())
                .collect();
            let mut restored = Simulation::new(&m, config, &wl);
            let (mut state, mut ext) = (restored.state.clone(), restored.ext.clone());
            let mut slots = bits.iter().map(|&b| f64::from_bits(b));
            for cell in 0..wl.n_cells {
                for var in 0..n_state {
                    state.set(cell, var, slots.next().unwrap());
                }
                for var in 0..n_ext {
                    ext.set(cell, var, slots.next().unwrap());
                }
            }
            restored.restore_cells(&bits).expect("shape matches");
            // Storage equality covers the padding lanes, which `set` never
            // writes: they hold the initial values.
            assert_eq!((&restored.state, &restored.ext), (&state, &ext), "{what}");
            assert_eq!(restored.state_bits(), bits, "{what}: round trip");
            assert!(restored.restore_cells(&bits[1..]).is_err(), "{what}");
            layouts.push(config.layout());
        }
        let blocks = [2, 4, 8].map(|block| StateLayout::AoSoA { block });
        assert_eq!(layouts[0], StateLayout::Aos);
        assert_eq!(layouts[1..], blocks);
    }

    #[test]
    fn all_pipeline_kinds_run_on_a_roster_model() {
        let m = model("DrouhardRoberge");
        let wl = Workload {
            n_cells: 16,
            steps: 10,
            dt: 0.01,
        };
        for kind in [
            PipelineKind::Baseline,
            PipelineKind::LimpetMlir(VectorIsa::Sse),
            PipelineKind::LimpetMlir(VectorIsa::Avx2),
            PipelineKind::LimpetMlir(VectorIsa::Avx512),
            PipelineKind::LimpetMlirAos(VectorIsa::Avx512),
            PipelineKind::LimpetMlirNoLut(VectorIsa::Avx512),
            PipelineKind::CompilerSimd(VectorIsa::Avx512),
        ] {
            let mut sim = Simulation::new(&m, kind, &wl);
            sim.run(wl.steps);
            assert!(sim.vm(0).is_finite(), "{:?} produced NaN", kind);
        }
    }
}
