//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§4–§5). Each runner returns plain data structs; the
//! `figures` binary prints them as the paper's rows/series.
//!
//! | runner | paper artifact |
//! |---|---|
//! | [`fig2_single_thread`] | Fig. 2 — 1-thread AVX-512 speedup per model |
//! | [`fig3_threads32`] | Fig. 3 — 32-thread AVX-512 speedup per model |
//! | [`fig4_scaling`] | Fig. 4 — class-average times vs. thread count |
//! | [`fig5_isa_threads`] | Fig. 5 — geomean speedup per ISA × threads |
//! | [`layout_ablation`] | §4.4 — AoS vs. AoSoA |
//! | [`lut_ablation`] | §3.4.2 — LUT on/off, scalar/vector interp |
//! | [`ablations`] | FMA contraction, §5 if-conversion, §7 spline LUTs |
//! | [`icc_comparison`] | §5 — compiler-simd vs. limpetMLIR geomean |
//! | [`fig6_roofline`] | Fig. 6 — operational intensity vs. GFlops/s |

use crate::cache::KernelCache;
use crate::checksum::fnv1a_words;
use crate::sim::{PipelineKind, Simulation, Workload};
use crate::threads::{measure_median, measure_median_secs, ShardedSimulation, TimingModel};
use limpet_codegen::pipeline::{try_apply_pipeline, VectorIsa};
use limpet_codegen::{lower_model, CodegenOptions};
use limpet_models::{model, ModelEntry, SizeClass, ROSTER};
use limpet_vm::{Kernel, StateLayout};

/// Thread counts evaluated by the paper (powers of two, 1..32).
pub const THREAD_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Where a thread-count time came from: real OS threads or the
/// simulated-parallel [`TimingModel`]. Every figure row carries its
/// provenance so mixed (measured-below / modeled-above) sweeps stay
/// honest in the CSVs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Wall clock of a [`ShardedSimulation`] worker-pool run.
    Measured,
    /// [`TimingModel::estimate`] from a measured single-thread time.
    Modeled,
}

impl Provenance {
    /// The CSV tag (`measured` / `modeled`).
    pub fn as_str(self) -> &'static str {
        match self {
            Provenance::Measured => "measured",
            Provenance::Modeled => "modeled",
        }
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How the thread-scaling runners obtain t(T): thread counts up to
/// `real_max` are measured on real OS threads (persistent worker pool,
/// median of `repeats` runs), larger ones fall back to the
/// simulated-parallel model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadTiming {
    /// The simulated-parallel model used above the measured region (and
    /// exclusively when `real_max == 0`).
    pub tm: TimingModel,
    /// Largest thread count measured with real OS threads; 0 disables
    /// measurement entirely (the pre-real-threads behaviour).
    pub real_max: usize,
}

impl ThreadTiming {
    /// Model-only timing — every row is tagged `modeled`.
    pub fn model_only(tm: TimingModel) -> ThreadTiming {
        ThreadTiming { tm, real_max: 0 }
    }

    /// Real-thread timing: measure every T up to `max_threads` (when
    /// given) or up to the host's available cores, model above. Passing
    /// an explicit `max_threads` beyond the core count opts into
    /// oversubscribed measurement.
    pub fn real_threads(tm: TimingModel, max_threads: Option<usize>) -> ThreadTiming {
        ThreadTiming {
            tm,
            real_max: max_threads.unwrap_or_else(available_cores),
        }
    }

    /// Provenance of a time at `threads` under this policy.
    pub fn provenance(&self, threads: usize) -> Provenance {
        if threads <= self.real_max {
            Provenance::Measured
        } else {
            Provenance::Modeled
        }
    }
}

/// Cores available to this process (1 when undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Measured wall clock of a `steps`-step run at `threads` real OS
/// threads: a [`ShardedSimulation`] worker pool is spawned once, warmed
/// up with two untimed steps, and the median of `opts.repeats` timed
/// step loops is taken — the pool reports its own interval, so spawn and
/// command wake-up cost stay outside the measurement.
pub fn measure_run_threaded(
    m: &limpet_easyml::Model,
    config: PipelineKind,
    opts: &ExperimentOptions,
    threads: usize,
) -> f64 {
    let wl = Workload {
        n_cells: opts.n_cells,
        steps: 0,
        dt: 0.01,
    };
    let mut sharded = ShardedSimulation::new(m, config, &wl, threads);
    sharded.run_threaded(2); // warm-up: caches, LUT pages, park/unpark
    measure_median_secs(opts.repeats, || sharded.run_threaded(opts.steps))
}

/// Single-thread anchor of one configuration — everything the
/// simulated-parallel model needs to extrapolate t(T).
#[derive(Debug, Clone, Copy)]
struct Anchor {
    /// Measured single-thread wall time.
    t1: f64,
    /// Bytes moved per step (for the bandwidth term).
    bytes: u64,
    /// Vector width (for the barrier flush term).
    width: usize,
}

/// t(T) of one configuration: measured on the worker pool inside the
/// timing policy's real region, modeled from the anchor above it.
fn time_at(
    m: &limpet_easyml::Model,
    config: PipelineKind,
    opts: &ExperimentOptions,
    timing: &ThreadTiming,
    threads: usize,
    anchor: Anchor,
) -> (f64, Provenance) {
    match timing.provenance(threads) {
        Provenance::Measured => (
            measure_run_threaded(m, config, opts, threads),
            Provenance::Measured,
        ),
        Provenance::Modeled => (
            timing
                .tm
                .estimate(anchor.t1, anchor.bytes, opts.steps, threads, anchor.width),
            Provenance::Modeled,
        ),
    }
}

/// Global experiment options.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Cells per model (paper: 8192).
    pub n_cells: usize,
    /// Steps per measurement (paper: 100 000; scaled down by default so
    /// the suite finishes in minutes on a laptop).
    pub steps: usize,
    /// Timed repetitions per configuration (median taken).
    pub repeats: usize,
    /// Restrict to these model names (empty = full roster).
    pub only: Vec<String>,
}

impl Default for ExperimentOptions {
    fn default() -> ExperimentOptions {
        ExperimentOptions {
            n_cells: 1024,
            steps: 30,
            repeats: 3,
            only: Vec::new(),
        }
    }
}

impl ExperimentOptions {
    /// The roster entries these options select (respecting `only`).
    pub fn roster(&self) -> Vec<&'static ModelEntry> {
        ROSTER
            .iter()
            .filter(|e| self.only.is_empty() || self.only.iter().any(|n| n == e.name))
            .collect()
    }
}

/// Builds the simulation for one measurement. Normal runs take the plain
/// path ([`Simulation::new`], which panics on a broken model — a
/// measurement of a broken kernel is meaningless). Under fault injection
/// ([`crate::faults::injection_active`]) the resilient path is used
/// instead, so a quarantined kernel degrades the run (the `figures`
/// summary reports it) rather than killing the whole roster sweep;
/// `None` means even the reference tier is quarantined.
fn measurement_sim(
    m: &limpet_easyml::Model,
    config: PipelineKind,
    wl: &Workload,
) -> Option<Simulation> {
    if crate::faults::injection_active() {
        Simulation::new_resilient(m, config, wl, crate::HealthPolicy::FallbackRaw).ok()
    } else {
        Some(Simulation::new(m, config, wl))
    }
}

/// Measures the wall time of a full single-thread run of one configuration.
///
/// Under fault injection a fully quarantined configuration yields `NaN`
/// (skipped by [`geomean`]) instead of panicking.
pub fn measure_run(
    m: &limpet_easyml::Model,
    config: PipelineKind,
    opts: &ExperimentOptions,
) -> f64 {
    let wl = Workload {
        n_cells: opts.n_cells,
        steps: opts.steps,
        dt: 0.01,
    };
    let Some(mut sim) = measurement_sim(m, config, &wl) else {
        return f64::NAN;
    };
    let t = time_steps(&mut sim, opts);
    // Runtime incidents (NaN steps, tier fallbacks) otherwise die with
    // the simulation; forward them to the global log so the `figures`
    // summary reports the full degradation story, not just compile-time
    // events. Only injection runs produce them, so the fast path pays
    // nothing.
    if crate::faults::injection_active() {
        for incident in sim.incidents() {
            KernelCache::global().log(incident.clone());
        }
    }
    t
}

/// Median wall time of `opts.steps` steps of `sim` over `opts.repeats` runs.
fn time_steps(sim: &mut Simulation, opts: &ExperimentOptions) -> f64 {
    // Warm up: tables built in `new`; run a couple of steps for caches.
    // `run_guarded` on an unguarded simulation is plain stepping; under
    // injection it additionally absorbs a seeded mid-run NaN by tier
    // fallback (give-up is recorded as an incident, not a crash).
    let _ = sim.run_guarded(2);
    measure_median(opts.repeats, || {
        let _ = sim.run_guarded(opts.steps);
    })
}

/// FNV-1a digest of every cell's membrane-potential bits after a short
/// guarded run — the bit-identity acceptance check: two runs (cold-compiled vs.
/// disk-cached, faulted vs. clean) agree iff their trajectories are
/// bit-identical. Under fault injection the resilient path is used, so
/// an injected fault that degrades gracefully still digests (and must
/// still match the clean run, since every recovery recompiles the same
/// kernel). Returns `None` only when even the reference tier is
/// quarantined.
pub fn trajectory_digest(
    m: &limpet_easyml::Model,
    config: PipelineKind,
    wl: &Workload,
    steps: usize,
) -> Option<u64> {
    trajectory_digest_tiered(m, config, wl, steps).map(|(digest, _)| digest)
}

/// [`trajectory_digest`] plus the [`crate::Tier`] the simulation
/// *finished* on. The digest CSV surfaces this column so a resumed run
/// that lands on a different tier than the uninterrupted one is visible
/// in the artifact itself (the digests still match — tiers are
/// bit-identical — but a tier mismatch is the first thing to check when
/// they do not).
pub fn trajectory_digest_tiered(
    m: &limpet_easyml::Model,
    config: PipelineKind,
    wl: &Workload,
    steps: usize,
) -> Option<(u64, crate::Tier)> {
    let mut sim = measurement_sim(m, config, wl)?;
    let _ = sim.run_guarded(steps);
    let digest = fnv1a_words((0..wl.n_cells).map(|cell| sim.vm(cell).to_bits()));
    Some((digest, sim.tier()))
}

/// Bytes moved per step (for the timing model's memory floor) and the
/// profile of one step.
fn step_profile(
    m: &limpet_easyml::Model,
    config: PipelineKind,
    n_cells: usize,
) -> limpet_vm::Profile {
    let wl = Workload {
        n_cells,
        steps: 0,
        dt: 0.01,
    };
    let Some(mut sim) = measurement_sim(m, config, &wl) else {
        // Only reachable under fault injection: the model is quarantined
        // on every tier. An empty profile keeps the sweep alive — the
        // paired `measure_run` already yields NaN, so the row reads as
        // degraded rather than silently wrong.
        eprintln!(
            "warning: model '{}' is quarantined on every tier; empty profile",
            m.name
        );
        return limpet_vm::Profile::default();
    };
    sim.step_profiled()
}

/// One model's speedup measurement.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Model name.
    pub model: String,
    /// Size class name.
    pub class: String,
    /// Baseline time (s).
    pub baseline: f64,
    /// limpetMLIR time (s).
    pub limpet_mlir: f64,
    /// Speedup (baseline / limpetMLIR).
    pub speedup: f64,
}

/// Figure-2 result: per-model single-thread speedups, plus the geomean.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Per-model rows, roster (small→large) order.
    pub rows: Vec<SpeedupRow>,
    /// Geometric-mean speedup (paper: 5.25x on AVX-512).
    pub geomean: f64,
}

/// Geometric mean helper.
///
/// Only finite, strictly positive values contribute: a zero or negative
/// ratio has no logarithm, and one poisoned row (e.g. a timer returning
/// 0 on a degenerate run) would otherwise drag the whole mean to 0 or
/// NaN. Such values are skipped with a warning on stderr (and trip a
/// debug assertion outside fault-injection runs, where they always
/// indicate a measurement bug; under injection a NaN row just means a
/// quarantined configuration). Returns NaN when no valid value remains.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut logsum, mut n) = (0.0, 0usize);
    for x in xs {
        if !(x.is_finite() && x > 0.0) {
            // Under fault injection a NaN row is a legitimate degraded
            // result (a quarantined configuration), not a measurement bug.
            debug_assert!(
                crate::faults::injection_active(),
                "geomean: non-positive or non-finite value {x}"
            );
            eprintln!("warning: geomean skipping non-positive value {x}");
            continue;
        }
        logsum += x.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (logsum / n as f64).exp()
}

/// Fig. 2: single-thread baseline vs. limpetMLIR AVX-512.
pub fn fig2_single_thread(opts: &ExperimentOptions) -> Fig2 {
    fig2_with_jobs(opts, 1)
}

/// [`fig2_single_thread`] with its measurement loop sharded across
/// `jobs` worker threads: each roster model is one work cell (compile +
/// baseline and limpetMLIR timings), pulled from an atomic cursor so a
/// thread that drew small models keeps working while another chews
/// through a TenTusscher-class one. Rows land in fixed roster slots, so
/// the output order (and the CSV) is identical whatever the completion
/// order; `jobs = 1` is exactly the serial harness.
///
/// Concurrent timing trades some isolation for throughput (worker
/// threads share memory bandwidth), which cancels in the speedup ratio —
/// both configurations of one model are measured on the same thread —
/// but use `jobs = 1` when absolute seconds matter.
pub fn fig2_with_jobs(opts: &ExperimentOptions, jobs: usize) -> Fig2 {
    fig2_checkpointed(opts, jobs, None)
}

/// Encodes measured timing samples into a snapshot's `meta` sidecar as
/// exact f64 bit patterns, so a resumed measurement reports precisely
/// what the interrupted one clocked.
fn encode_samples(samples: &[f64]) -> String {
    let words: Vec<String> = samples
        .iter()
        .map(|s| format!("{:016x}", s.to_bits()))
        .collect();
    format!("fig2-samples {}", words.join(" "))
        .trim_end()
        .to_string()
}

fn decode_samples(meta: Option<&str>) -> Vec<f64> {
    let Some(rest) = meta.and_then(|m| m.strip_prefix("fig2-samples")) else {
        return Vec::new();
    };
    rest.split_whitespace()
        .filter_map(|w| u64::from_str_radix(w, 16).ok().map(f64::from_bits))
        .collect()
}

fn median_of(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// [`measure_run`], interruptible mid-model: polls
/// [`crate::shutdown::requested`] between timed repetitions, and on an
/// interruption snapshots the in-flight simulation state (plus the
/// samples already clocked, in the snapshot's `meta` sidecar) into
/// `store` under `key`. The next sweep restores that state and clocks
/// only the remaining repetitions — continuing the *same* trajectory,
/// since repeated timing runs step one simulation continuously anyway.
///
/// Returns `None` when interrupted (a snapshot has been saved), `NaN`
/// when the model is quarantined on every tier (matching
/// [`measure_run`]), and the median sample otherwise — at which point
/// the store entry for `key` has been removed.
fn measure_run_resumable(
    m: &limpet_easyml::Model,
    config: PipelineKind,
    opts: &ExperimentOptions,
    store: &crate::checkpoint::SnapshotStore,
    key: &str,
) -> Option<f64> {
    let wl = Workload {
        n_cells: opts.n_cells,
        steps: opts.steps,
        dt: 0.01,
    };
    let label = config.label();
    let mut samples: Vec<f64> = Vec::new();
    let mut steps_done: u64 = 0;
    let mut sim: Option<Simulation> = None;
    if let Some(snap) = store.load(key).snapshot {
        if snap.key_matches(&m.name, &label, wl.n_cells, wl.dt).is_ok() {
            samples = decode_samples(snap.meta.as_deref());
            if samples.len() >= opts.repeats {
                // Interrupted after the last sample but before the row
                // was journaled: nothing left to run.
                store.remove(key);
                return Some(median_of(&samples));
            }
            match measurement_sim(m, config, &wl) {
                None => return Some(f64::NAN),
                Some(mut s) => match s.restore(&snap) {
                    Ok(()) => {
                        eprintln!(
                            "checkpoint: resumed {key} mid-model at step {} with {} sample(s)",
                            snap.steps_done,
                            samples.len()
                        );
                        steps_done = snap.steps_done;
                        sim = Some(s);
                    }
                    Err(e) => {
                        eprintln!("warning: mid-model resume failed for {key} ({e}); re-measuring");
                        samples.clear();
                    }
                },
            }
        } else {
            store.remove(key);
        }
    }
    let mut sim = match sim {
        Some(s) => s,
        None => {
            let Some(mut s) = measurement_sim(m, config, &wl) else {
                return Some(f64::NAN);
            };
            // Warm up, exactly as [`measure_run`] does.
            let _ = s.run_guarded(2);
            steps_done = 2;
            s
        }
    };
    while samples.len() < opts.repeats {
        if crate::shutdown::requested() {
            let mut snap = sim.snapshot(&label, steps_done);
            snap.meta = Some(encode_samples(&samples));
            match store.save(key, &snap) {
                Ok(_) => eprintln!(
                    "checkpoint: saved mid-model state for {key} at step {steps_done} \
                     ({} of {} sample(s) clocked)",
                    samples.len(),
                    opts.repeats
                ),
                Err(e) => eprintln!("warning: mid-model checkpoint failed for {key}: {e}"),
            }
            return None;
        }
        let t0 = std::time::Instant::now();
        let _ = sim.run_guarded(opts.steps);
        samples.push(t0.elapsed().as_secs_f64());
        steps_done += opts.steps as u64;
    }
    if crate::faults::injection_active() {
        for incident in sim.incidents() {
            KernelCache::global().log(incident.clone());
        }
    }
    store.remove(key);
    Some(median_of(&samples))
}

/// The checkpoint-journal identity of a fig-2 sweep: a journal written
/// under different measurement options must restart, not resume — a
/// half-sweep at 1024 cells stitched to a half-sweep at 8192 would be a
/// silently corrupt figure.
fn fig2_journal_header(opts: &ExperimentOptions) -> String {
    let roster: Vec<&str> = opts.roster().iter().map(|e| e.name).collect();
    format!(
        "fig2-v1 n_cells={} steps={} repeats={} models={}",
        opts.n_cells,
        opts.steps,
        opts.repeats,
        roster.join("+")
    )
}

/// One journal line per completed row; round-trips through
/// [`parse_fig2_row`]. Times are stored as exact f64 bits — a resumed
/// sweep reports precisely what the interrupted one measured.
fn fig2_journal_line(row: &SpeedupRow) -> String {
    format!(
        "{},{},{:016x},{:016x}",
        row.model,
        row.class,
        row.baseline.to_bits(),
        row.limpet_mlir.to_bits()
    )
}

fn parse_fig2_row(line: &str) -> Option<SpeedupRow> {
    let mut fields = line.split(',');
    let (model, class, tb, tl) = (
        fields.next()?,
        fields.next()?,
        fields.next()?,
        fields.next()?,
    );
    if fields.next().is_some() {
        return None;
    }
    let baseline = f64::from_bits(u64::from_str_radix(tb, 16).ok()?);
    let limpet_mlir = f64::from_bits(u64::from_str_radix(tl, 16).ok()?);
    Some(SpeedupRow {
        model: model.to_owned(),
        class: class.to_owned(),
        baseline,
        limpet_mlir,
        speedup: baseline / limpet_mlir,
    })
}

/// [`fig2_with_jobs`] with an optional checkpoint journal
/// ([`crate::persist::Journal`]) at `journal`: every completed model is
/// recorded as it finishes, a restarted sweep (same options, same path)
/// skips the recorded rows and measures only the remainder, and the
/// journal file is removed once the sweep completes. `figures --fig2
/// --checkpoint PATH` drives this.
pub fn fig2_checkpointed(
    opts: &ExperimentOptions,
    jobs: usize,
    journal: Option<&std::path::Path>,
) -> Fig2 {
    let entries = opts.roster();
    let jobs = jobs.clamp(1, entries.len().max(1));
    let mut slots: Vec<Option<SpeedupRow>> = Vec::new();
    slots.resize_with(entries.len(), || None);
    // Resume: pre-fill slots from the journal's completed rows. Rows for
    // unknown models (stale journal edited by hand) are ignored and
    // simply re-measured.
    // Mid-model state snapshots live in a directory beside the journal:
    // the journal records *finished* rows, the store holds the in-flight
    // model's simulation state when a SIGINT lands mid-measurement.
    let store = journal.map(|path| {
        let dir = path.with_extension("state");
        crate::checkpoint::SnapshotStore::new(&dir)
            .unwrap_or_else(|e| panic!("cannot open mid-model state dir {}: {e}", dir.display()))
    });
    let journal = journal.map(|path| {
        let (journal, done) = crate::persist::Journal::open(path, &fig2_journal_header(opts))
            .unwrap_or_else(|e| panic!("cannot open checkpoint journal {}: {e}", path.display()));
        let mut resumed = 0;
        for row in done.iter().filter_map(|l| parse_fig2_row(l)) {
            if let Some(i) = entries.iter().position(|e| e.name == row.model) {
                slots[i] = Some(row);
                resumed += 1;
            }
        }
        if resumed > 0 {
            eprintln!("checkpoint: resuming fig2 sweep, {resumed} row(s) already measured");
        }
        journal
    });
    let slots = std::sync::Mutex::new(slots);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let plan = crate::faults::Plan::current();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let _plan = plan.enter();
                loop {
                    // Graceful interruption (SIGINT/SIGTERM): stop picking up
                    // work at the row boundary. Completed rows are already in
                    // the journal, which is kept for the resumed run.
                    if crate::shutdown::requested() {
                        break;
                    }
                    let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(e) = entries.get(i) else {
                        break;
                    };
                    if slots.lock().unwrap()[i].is_some() {
                        continue; // resumed from the journal
                    }
                    let m = model(e.name);
                    let (tb, tl) = if let Some(store) = &store {
                        // Store keys carry the measurement shape not already
                        // covered by the snapshot's own key echo (steps,
                        // repeats), so a sweep re-run with different options
                        // never stitches half-measurements together.
                        let key = |cfg: &str| {
                            format!("fig2/{}/{cfg}/s{}r{}", e.name, opts.steps, opts.repeats)
                        };
                        let Some(tb) = measure_run_resumable(
                            &m,
                            PipelineKind::Baseline,
                            opts,
                            store,
                            &key("baseline"),
                        ) else {
                            break; // interrupted; state snapshot saved
                        };
                        let Some(tl) = measure_run_resumable(
                            &m,
                            PipelineKind::LimpetMlir(VectorIsa::Avx512),
                            opts,
                            store,
                            &key("limpetMLIR-avx512"),
                        ) else {
                            break;
                        };
                        (tb, tl)
                    } else {
                        (
                            measure_run(&m, PipelineKind::Baseline, opts),
                            measure_run(&m, PipelineKind::LimpetMlir(VectorIsa::Avx512), opts),
                        )
                    };
                    let row = SpeedupRow {
                        model: e.name.to_owned(),
                        class: e.class.name().to_owned(),
                        baseline: tb,
                        limpet_mlir: tl,
                        speedup: tb / tl,
                    };
                    let mut slots = slots.lock().unwrap();
                    // Journal under the slots lock so lines are whole and the
                    // journal order matches completion order.
                    if let Some(j) = &journal {
                        if let Err(e) = j.record(&fig2_journal_line(&row)) {
                            eprintln!("warning: checkpoint append failed: {e}");
                        }
                    }
                    slots[i] = Some(row);
                }
            });
        }
    });
    if crate::shutdown::requested() {
        // Interrupted: keep the journal (the next run resumes from it)
        // and return the rows measured so far.
        let done: Vec<SpeedupRow> = slots.into_inner().unwrap().into_iter().flatten().collect();
        eprintln!(
            "interrupted: fig2 sweep stopped after {} of {} row(s); checkpoint kept",
            done.len(),
            entries.len()
        );
        let geomean = geomean(done.iter().map(|r| r.speedup));
        return Fig2 {
            rows: done,
            geomean,
        };
    }
    if let Some(j) = journal {
        if let Err(e) = j.finish() {
            eprintln!("warning: could not remove completed checkpoint journal: {e}");
        }
    }
    if let Some(store) = &store {
        // A completed sweep consumed every mid-model snapshot; drop the
        // (now empty) state directory beside the journal.
        let _ = std::fs::remove_dir_all(store.dir());
    }
    let rows: Vec<SpeedupRow> = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every roster slot measured"))
        .collect();
    let geomean = geomean(rows.iter().map(|r| r.speedup));
    Fig2 { rows, geomean }
}

/// One model's speedup at a thread count, tagged with how its times were
/// obtained.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Model name.
    pub model: String,
    /// Size class name.
    pub class: String,
    /// Baseline time (s) at the figure's thread count.
    pub baseline: f64,
    /// limpetMLIR time (s) at the figure's thread count.
    pub limpet_mlir: f64,
    /// Speedup (baseline / limpetMLIR).
    pub speedup: f64,
    /// Whether the times were measured on real threads or modeled.
    pub provenance: Provenance,
}

/// Fig. 3 result: 32-thread per-model speedups with class geomeans.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Per-model rows.
    pub rows: Vec<Fig3Row>,
    /// Overall geomean (paper: 1.93x).
    pub geomean: f64,
    /// Per-class geomeans (paper: small 0.83x, medium 1.34x, large 6.03x).
    pub class_geomeans: Vec<(String, f64)>,
}

/// Fig. 3: both versions at 32 threads — measured on real threads when
/// the timing policy's real region reaches 32, simulated-parallel
/// otherwise (each row says which).
pub fn fig3_threads32(opts: &ExperimentOptions, timing: &ThreadTiming) -> Fig3 {
    let mut rows = Vec::new();
    for e in opts.roster() {
        let m = model(e.name);
        let (tb, tl, provenance) = time_pair(&m, opts, timing, 32);
        rows.push(Fig3Row {
            model: e.name.to_owned(),
            class: e.class.name().to_owned(),
            baseline: tb,
            limpet_mlir: tl,
            speedup: tb / tl,
            provenance,
        });
    }
    let geomean_all = geomean(rows.iter().map(|r| r.speedup));
    let class_geomeans = SizeClass::ALL
        .iter()
        .map(|c| {
            (
                c.name().to_owned(),
                geomean(
                    rows.iter()
                        .filter(|r| r.class == c.name())
                        .map(|r| r.speedup),
                ),
            )
        })
        .collect();
    Fig3 {
        rows,
        geomean: geomean_all,
        class_geomeans,
    }
}

/// t(T) for baseline and limpetMLIR AVX-512: pool-measured inside the
/// real region, measured-t1 + model above it.
fn time_pair(
    m: &limpet_easyml::Model,
    opts: &ExperimentOptions,
    timing: &ThreadTiming,
    threads: usize,
) -> (f64, f64, Provenance) {
    match timing.provenance(threads) {
        Provenance::Measured => {
            let tb = measure_run_threaded(m, PipelineKind::Baseline, opts, threads);
            let tl = measure_run_threaded(
                m,
                PipelineKind::LimpetMlir(VectorIsa::Avx512),
                opts,
                threads,
            );
            (tb, tl, Provenance::Measured)
        }
        Provenance::Modeled => {
            let tb1 = measure_run(m, PipelineKind::Baseline, opts);
            let tl1 = measure_run(m, PipelineKind::LimpetMlir(VectorIsa::Avx512), opts);
            let pb = step_profile(m, PipelineKind::Baseline, opts.n_cells);
            let pl = step_profile(m, PipelineKind::LimpetMlir(VectorIsa::Avx512), opts.n_cells);
            let tb = timing.tm.estimate(
                tb1,
                pb.bytes_read + pb.bytes_written,
                opts.steps,
                threads,
                1,
            );
            let tl = timing.tm.estimate(
                tl1,
                pl.bytes_read + pl.bytes_written,
                opts.steps,
                threads,
                8,
            );
            (tb, tl, Provenance::Modeled)
        }
    }
}

/// One Fig. 4 point: class-average times at a thread count.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Size class name.
    pub class: String,
    /// Thread count.
    pub threads: usize,
    /// Class-average baseline time (s).
    pub baseline_s: f64,
    /// Class-average limpetMLIR time (s).
    pub limpet_mlir_s: f64,
    /// Whether the times were measured on real threads or modeled.
    pub provenance: Provenance,
}

/// Fig. 4: class-average execution times across thread counts.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One point per (class, thread count).
    pub series: Vec<Fig4Point>,
}

/// Fig. 4 runner (AVX-512): thread counts inside the timing policy's
/// real region are measured per model on the worker pool, the rest come
/// from the simulated-parallel model.
pub fn fig4_scaling(opts: &ExperimentOptions, timing: &ThreadTiming) -> Fig4 {
    // Measure each model's single-thread time and byte profile once;
    // per-T times are then measured or modeled per the policy.
    struct M {
        m: limpet_easyml::Model,
        class: SizeClass,
        tb1: f64,
        tl1: f64,
        bb: u64,
        bl: u64,
    }
    let measured: Vec<M> = opts
        .roster()
        .iter()
        .map(|e| {
            let m = model(e.name);
            let tb1 = measure_run(&m, PipelineKind::Baseline, opts);
            let tl1 = measure_run(&m, PipelineKind::LimpetMlir(VectorIsa::Avx512), opts);
            let pb = step_profile(&m, PipelineKind::Baseline, opts.n_cells);
            let pl = step_profile(
                &m,
                PipelineKind::LimpetMlir(VectorIsa::Avx512),
                opts.n_cells,
            );
            M {
                class: e.class,
                tb1,
                tl1,
                bb: pb.bytes_read + pb.bytes_written,
                bl: pl.bytes_read + pl.bytes_written,
                m,
            }
        })
        .collect();
    let mut series = Vec::new();
    for class in SizeClass::ALL {
        let of_class: Vec<&M> = measured.iter().filter(|m| m.class == class).collect();
        if of_class.is_empty() {
            continue;
        }
        for &t in &THREAD_COUNTS {
            let avg_b = of_class
                .iter()
                .map(|m| {
                    let anchor = Anchor {
                        t1: m.tb1,
                        bytes: m.bb,
                        width: 1,
                    };
                    time_at(&m.m, PipelineKind::Baseline, opts, timing, t, anchor).0
                })
                .sum::<f64>()
                / of_class.len() as f64;
            let avg_l = of_class
                .iter()
                .map(|m| {
                    let anchor = Anchor {
                        t1: m.tl1,
                        bytes: m.bl,
                        width: 8,
                    };
                    time_at(
                        &m.m,
                        PipelineKind::LimpetMlir(VectorIsa::Avx512),
                        opts,
                        timing,
                        t,
                        anchor,
                    )
                    .0
                })
                .sum::<f64>()
                / of_class.len() as f64;
            series.push(Fig4Point {
                class: class.name().to_owned(),
                threads: t,
                baseline_s: avg_b,
                limpet_mlir_s: avg_l,
                provenance: timing.provenance(t),
            });
        }
    }
    Fig4 { series }
}

/// One Fig. 5 point: geomean speedup of an ISA at a thread count.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// ISA name.
    pub isa: String,
    /// Thread count.
    pub threads: usize,
    /// Geomean speedup over the roster.
    pub geomean: f64,
    /// Whether the times were measured on real threads or modeled.
    pub provenance: Provenance,
}

/// Fig. 5: geomean speedups per ISA per thread count.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// One point per (ISA, thread count).
    pub series: Vec<Fig5Point>,
    /// Overall geomean over all models, ISAs, and thread counts
    /// (paper: 2.90x).
    pub overall_geomean: f64,
}

/// Fig. 5 runner: measured inside the timing policy's real region,
/// modeled above it.
pub fn fig5_isa_threads(opts: &ExperimentOptions, timing: &ThreadTiming) -> Fig5 {
    struct M {
        m: limpet_easyml::Model,
        tb1: f64,
        bb: u64,
        per_isa: Vec<(f64, u64)>, // (t1, bytes) per ISA
    }
    let measured: Vec<M> = opts
        .roster()
        .iter()
        .map(|e| {
            let m = model(e.name);
            let tb1 = measure_run(&m, PipelineKind::Baseline, opts);
            let pb = step_profile(&m, PipelineKind::Baseline, opts.n_cells);
            let per_isa = VectorIsa::ALL
                .iter()
                .map(|&isa| {
                    let t = measure_run(&m, PipelineKind::LimpetMlir(isa), opts);
                    let p = step_profile(&m, PipelineKind::LimpetMlir(isa), opts.n_cells);
                    (t, p.bytes_read + p.bytes_written)
                })
                .collect();
            M {
                tb1,
                bb: pb.bytes_read + pb.bytes_written,
                per_isa,
                m,
            }
        })
        .collect();

    let mut series = Vec::new();
    let mut all_speedups = Vec::new();
    for (i, isa) in VectorIsa::ALL.iter().enumerate() {
        for &t in &THREAD_COUNTS {
            let speedups: Vec<f64> = measured
                .iter()
                .map(|m| {
                    let base = Anchor {
                        t1: m.tb1,
                        bytes: m.bb,
                        width: 1,
                    };
                    let tb = time_at(&m.m, PipelineKind::Baseline, opts, timing, t, base).0;
                    let (tl1, bl) = m.per_isa[i];
                    let anchor = Anchor {
                        t1: tl1,
                        bytes: bl,
                        width: isa.lanes() as usize,
                    };
                    let tl = time_at(
                        &m.m,
                        PipelineKind::LimpetMlir(*isa),
                        opts,
                        timing,
                        t,
                        anchor,
                    )
                    .0;
                    tb / tl
                })
                .collect();
            let g = geomean(speedups.iter().copied());
            all_speedups.extend(speedups);
            series.push(Fig5Point {
                isa: isa.name().to_owned(),
                threads: t,
                geomean: g,
                provenance: timing.provenance(t),
            });
        }
    }
    Fig5 {
        series,
        overall_geomean: geomean(all_speedups),
    }
}

/// One cross-validation sample: the model's estimate vs. a real-thread
/// measurement of the same configuration.
#[derive(Debug, Clone)]
pub struct TmValidationRow {
    /// Model name.
    pub model: String,
    /// Size class name.
    pub class: String,
    /// Pipeline label (`baseline` / `limpetMLIR-AVX-512`).
    pub config: String,
    /// Thread count of the sample.
    pub threads: usize,
    /// Real-thread wall clock (s).
    pub measured_s: f64,
    /// [`TimingModel::estimate`] from the measured single-thread time (s).
    pub modeled_s: f64,
    /// Signed relative error `(modeled - measured) / measured`.
    pub rel_err: f64,
}

/// `figures --validate-tm` result: the simulated-parallel model
/// cross-validated against real threads on the overlap region.
#[derive(Debug, Clone)]
pub struct TmValidation {
    /// Per-sample rows.
    pub rows: Vec<TmValidationRow>,
    /// Mean absolute relative error per size class.
    pub per_class: Vec<(String, f64)>,
    /// Mean absolute relative error over all samples.
    pub overall: f64,
    /// The thread counts of the overlap region actually validated.
    pub threads: Vec<usize>,
}

/// Cross-validates the simulated-parallel model against real-thread
/// measurements on the overlap region: every paper thread count `T` with
/// `2 ≤ T ≤ timing.real_max` is both measured (worker pool) and modeled
/// (from the measured single-thread time), per model and per pipeline.
/// Returns per-class and overall mean absolute relative error; an empty
/// overlap (host with one core and no `--max-threads` override) yields
/// empty results.
pub fn validate_timing_model(opts: &ExperimentOptions, timing: &ThreadTiming) -> TmValidation {
    let threads: Vec<usize> = THREAD_COUNTS
        .iter()
        .copied()
        .filter(|&t| t > 1 && t <= timing.real_max)
        .collect();
    let mut rows = Vec::new();
    for e in opts.roster() {
        let m = model(e.name);
        for (config, width) in [
            (PipelineKind::Baseline, 1usize),
            (PipelineKind::LimpetMlir(VectorIsa::Avx512), 8),
        ] {
            let t1 = measure_run(&m, config, opts);
            let p = step_profile(&m, config, opts.n_cells);
            let bytes = p.bytes_read + p.bytes_written;
            for &t in &threads {
                let measured_s = measure_run_threaded(&m, config, opts, t);
                let modeled_s = timing.tm.estimate(t1, bytes, opts.steps, t, width);
                rows.push(TmValidationRow {
                    model: e.name.to_owned(),
                    class: e.class.name().to_owned(),
                    config: config.label(),
                    threads: t,
                    measured_s,
                    modeled_s,
                    rel_err: (modeled_s - measured_s) / measured_s,
                });
            }
        }
    }
    let mean_abs = |rows: &[&TmValidationRow]| -> f64 {
        if rows.is_empty() {
            return f64::NAN;
        }
        rows.iter().map(|r| r.rel_err.abs()).sum::<f64>() / rows.len() as f64
    };
    let per_class = SizeClass::ALL
        .iter()
        .map(|c| {
            let of_class: Vec<&TmValidationRow> =
                rows.iter().filter(|r| r.class == c.name()).collect();
            (c.name().to_owned(), mean_abs(&of_class))
        })
        .collect();
    let overall = mean_abs(&rows.iter().collect::<Vec<_>>());
    TmValidation {
        rows,
        per_class,
        overall,
        threads,
    }
}

/// §4.4 layout ablation result.
#[derive(Debug, Clone)]
pub struct LayoutAblation {
    /// `(model, speedup with AoS, speedup with AoSoA)` at one thread.
    pub rows: Vec<(String, f64, f64)>,
    /// Geomeans `(AoS, AoSoA)` — the paper reports 3.12x → 3.37x.
    pub geomeans: (f64, f64),
}

/// §4.4: the data-layout transformation's contribution.
pub fn layout_ablation(opts: &ExperimentOptions) -> LayoutAblation {
    let mut rows = Vec::new();
    for e in opts.roster() {
        let m = model(e.name);
        let tb = measure_run(&m, PipelineKind::Baseline, opts);
        let t_aos = measure_run(&m, PipelineKind::LimpetMlirAos(VectorIsa::Avx512), opts);
        let t_aosoa = measure_run(&m, PipelineKind::LimpetMlir(VectorIsa::Avx512), opts);
        rows.push((e.name.to_owned(), tb / t_aos, tb / t_aosoa));
    }
    let geomeans = (
        geomean(rows.iter().map(|r| r.1)),
        geomean(rows.iter().map(|r| r.2)),
    );
    LayoutAblation { rows, geomeans }
}

/// §3.4.2 LUT ablation result.
#[derive(Debug, Clone)]
pub struct LutAblation {
    /// `(model, speedup without LUT, speedup with scalar-interp LUT,
    /// speedup with vectorized LUT)` relative to baseline.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// §3.4.2: LUTs off / scalar interpolation / vectorized interpolation.
pub fn lut_ablation(opts: &ExperimentOptions) -> LutAblation {
    let mut rows = Vec::new();
    for e in opts.roster() {
        let m = model(e.name);
        if m.lookups.is_empty() {
            continue;
        }
        let tb = measure_run(&m, PipelineKind::Baseline, opts);
        let t_none = measure_run(&m, PipelineKind::LimpetMlirNoLut(VectorIsa::Avx512), opts);
        let t_scalar = measure_run(&m, PipelineKind::CompilerSimd(VectorIsa::Avx512), opts);
        let t_vec = measure_run(&m, PipelineKind::LimpetMlir(VectorIsa::Avx512), opts);
        rows.push((e.name.to_owned(), tb / t_none, tb / t_scalar, tb / t_vec));
    }
    LutAblation { rows }
}

/// One row of [`ablations`]: a pipeline choice on one model, timed with and
/// without it at one thread.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The choice: `fma-contract`, `if-conversion` or `spline-lut`.
    pub ablation: &'static str,
    /// Model name.
    pub model: String,
    /// The configuration without the choice, and its time (s).
    pub reference: (&'static str, f64),
    /// The configuration with it, and its time (s).
    pub variant: (&'static str, f64),
}

impl AblationRow {
    /// Reference time over variant time.
    pub fn speedup(&self) -> f64 {
        self.reference.1 / self.variant.1
    }
}

/// [`measure_run`] of limpetMLIR at AVX-512 compiled without `fma-contract`:
/// the standard pipeline text minus that pass.
fn measure_unfused_run(m: &limpet_easyml::Model, opts: &ExperimentOptions) -> f64 {
    let lanes = VectorIsa::Avx512.lanes();
    let standard = limpet_codegen::pipeline::standard_text(lanes);
    let text = standard
        .strip_suffix(",fma-contract")
        .expect("the standard pipeline ends in fma-contract");
    let mut lowered = lower_model(m, &CodegenOptions { use_lut: true });
    try_apply_pipeline(&mut lowered.module, text)
        .unwrap_or_else(|e| panic!("unfused pipeline failed for {}: {e}", m.name));
    let kernel = Kernel::from_module(&lowered.module, &crate::model_info(m))
        .unwrap_or_else(|e| panic!("unfused kernel failed for {}: {e}", m.name));
    let wl = Workload {
        n_cells: opts.n_cells,
        steps: 0,
        dt: 0.01,
    };
    let layout = StateLayout::AoSoA {
        block: lanes as usize,
    };
    time_steps(&mut Simulation::with_kernel(kernel, layout, &wl), opts)
}

/// A synthetic model for the if-conversion ablation: `branchless` computes
/// one transcendental chain, `light_branch` picks between two divisions, and
/// `heavy_branch` between two chains as long as `branchless`'s.
fn if_conversion_source(kind: &str) -> String {
    let chain = |sign: &str| {
        let terms: Vec<String> = (0..8)
            .map(|i| {
                format!(
                    "exp(-square(Vm {sign} {:.2}) / 900.0)",
                    1.0 + i as f64 * 0.37
                )
            })
            .collect();
        terms.join(" + ")
    };
    let body = match kind {
        "branchless" => format!("w = {};", chain("+")),
        "light_branch" => "if (Vm > 0.0) { w = Vm / 50.0; } else { w = -Vm / 80.0; }".to_owned(),
        _ => format!(
            "if (Vm > 0.0) {{ w = {}; }} else {{ w = {}; }}",
            chain("+"),
            chain("-")
        ),
    };
    format!(
        "Vm; .external();\nIion; .external();\n\
         diff_x = (0.5 - x) / 10.0;\n{body}\nIion = 0.1 * w * x * (Vm + 80.0);"
    )
}

/// The three ablations no figure of the paper isolates, at AVX-512:
///
/// * `fma-contract` (BeelerReuter, OHara): limpetMLIR without and with the
///   multiply-add fusion pass, which halves dispatch for the `a*b+c` chains
///   of current summation;
/// * `if-conversion` (three synthetic models): the baseline against
///   limpetMLIR, whose masked kernel executes both sides of a branch — §5's
///   caveat, so its speedup shrinks on `heavy_branch`;
/// * `spline-lut` (HodgkinHuxley, LuoRudy91, Courtemanche): linear
///   interpolation against §7's Catmull-Rom splines on 4x-coarser tables.
///
/// `opts.only`, when set, filters the roster models; the synthetic ones
/// always run.
pub fn ablations(opts: &ExperimentOptions) -> Vec<AblationRow> {
    let avx512 = VectorIsa::Avx512;
    let selected = |name: &&str| opts.only.is_empty() || opts.only.iter().any(|n| n == name);
    let mut rows = Vec::new();
    for name in ["BeelerReuter", "OHara"].into_iter().filter(selected) {
        let m = model(name);
        rows.push(AblationRow {
            ablation: "fma-contract",
            model: name.to_string(),
            reference: ("unfused", measure_unfused_run(&m, opts)),
            variant: (
                "fused",
                measure_run(&m, PipelineKind::LimpetMlir(avx512), opts),
            ),
        });
    }
    for kind in ["branchless", "light_branch", "heavy_branch"] {
        let m = limpet_easyml::compile_model(kind, &if_conversion_source(kind))
            .unwrap_or_else(|e| panic!("if-conversion model {kind}: {e}"));
        rows.push(AblationRow {
            ablation: "if-conversion",
            model: kind.to_owned(),
            reference: ("baseline", measure_run(&m, PipelineKind::Baseline, opts)),
            variant: (
                "limpetMLIR",
                measure_run(&m, PipelineKind::LimpetMlir(avx512), opts),
            ),
        });
    }
    for name in ["HodgkinHuxley", "LuoRudy91", "Courtemanche"]
        .into_iter()
        .filter(selected)
    {
        let m = model(name);
        rows.push(AblationRow {
            ablation: "spline-lut",
            model: name.to_string(),
            reference: (
                "linear",
                measure_run(&m, PipelineKind::LimpetMlir(avx512), opts),
            ),
            variant: (
                "spline4x",
                measure_run(&m, PipelineKind::LimpetMlirSpline(avx512), opts),
            ),
        });
    }
    rows
}

/// §5 comparison result.
#[derive(Debug, Clone)]
pub struct IccComparison {
    /// Geomean speedup of compiler-simd (paper: icc 2.19x).
    pub compiler_simd: f64,
    /// Geomean speedup of limpetMLIR (paper: 3.37x).
    pub limpet_mlir: f64,
}

/// §5: auto-vectorizing-compiler configuration vs. limpetMLIR, geomean
/// over models and thread counts at AVX-512.
pub fn icc_comparison(opts: &ExperimentOptions, tm: &TimingModel) -> IccComparison {
    let mut s_icc = Vec::new();
    let mut s_mlir = Vec::new();
    for e in opts.roster() {
        let m = model(e.name);
        let tb1 = measure_run(&m, PipelineKind::Baseline, opts);
        let ti1 = measure_run(&m, PipelineKind::CompilerSimd(VectorIsa::Avx512), opts);
        let tl1 = measure_run(&m, PipelineKind::LimpetMlir(VectorIsa::Avx512), opts);
        let pb = step_profile(&m, PipelineKind::Baseline, opts.n_cells);
        let pi = step_profile(
            &m,
            PipelineKind::CompilerSimd(VectorIsa::Avx512),
            opts.n_cells,
        );
        let pl = step_profile(
            &m,
            PipelineKind::LimpetMlir(VectorIsa::Avx512),
            opts.n_cells,
        );
        for &t in &THREAD_COUNTS {
            let tb = tm.estimate(tb1, pb.bytes_read + pb.bytes_written, opts.steps, t, 1);
            let ti = tm.estimate(ti1, pi.bytes_read + pi.bytes_written, opts.steps, t, 8);
            let tl = tm.estimate(tl1, pl.bytes_read + pl.bytes_written, opts.steps, t, 8);
            s_icc.push(tb / ti);
            s_mlir.push(tb / tl);
        }
    }
    IccComparison {
        compiler_simd: geomean(s_icc),
        limpet_mlir: geomean(s_mlir),
    }
}

/// One roofline point (Fig. 6).
#[derive(Debug, Clone)]
pub struct RooflinePoint {
    /// Model name.
    pub model: String,
    /// Size class.
    pub class: String,
    /// Operational intensity (Flops/Byte).
    pub intensity: f64,
    /// Achieved GFlops/s (32-thread modeled time).
    pub gflops: f64,
}

/// Fig. 6 result: points plus machine ceilings.
#[derive(Debug, Clone)]
pub struct Roofline {
    /// One point per model (limpetMLIR AVX-512, 32 threads).
    pub points: Vec<RooflinePoint>,
    /// Peak compute ceiling (GFlops/s), ERT-style measured then scaled to
    /// the modeled 32-core socket.
    pub peak_gflops: f64,
    /// DRAM bandwidth ceiling (GB/s) under the same scaling.
    pub dram_gbps: f64,
}

/// Fig. 6: roofline points from instruction-level flop/byte counts
/// (the paper instruments generated MLIR for memory operations and reads
/// HW counters for flops; we count both in the executing kernel).
pub fn fig6_roofline(opts: &ExperimentOptions, tm: &TimingModel) -> Roofline {
    let threads = 32;
    let mut points = Vec::new();
    for e in opts.roster() {
        let m = model(e.name);
        let config = PipelineKind::LimpetMlir(VectorIsa::Avx512);
        let p = step_profile(&m, config, opts.n_cells);
        let t1 = measure_run(&m, config, opts);
        let bytes = p.bytes_read + p.bytes_written;
        let t32 = tm.estimate(t1, bytes, opts.steps, threads, 8);
        let flops_total = p.flops as f64 * opts.steps as f64;
        points.push(RooflinePoint {
            model: e.name.to_owned(),
            class: e.class.name().to_owned(),
            intensity: p.intensity(),
            gflops: flops_total / t32 / 1e9,
        });
    }
    // ERT-style ceilings: measure single-thread FMA throughput & stream
    // bandwidth, scale to the modeled socket (32 cores, saturating DRAM).
    let peak1 = measure_peak_flops();
    Roofline {
        points,
        peak_gflops: peak1 * threads as f64 / 1e9,
        dram_gbps: tm.stream_bandwidth * tm.bandwidth_saturation / 1e9,
    }
}

/// Measures single-thread peak flops with an unrolled FMA loop.
pub fn measure_peak_flops() -> f64 {
    let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    let (a, b) = (1.000_000_1f64, 1e-9f64);
    let iters = 4_000_000u64;
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = v.mul_add(a, b);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&acc);
    (iters * 8 * 2) as f64 / secs
}

/// Extracts instruction statistics of both kernels for one model
/// (supplementary table: static op mix).
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Model name.
    pub model: String,
    /// Static instruction count, baseline kernel.
    pub baseline_instrs: usize,
    /// Static instruction count, limpetMLIR kernel.
    pub mlir_instrs: usize,
    /// LUT memory in bytes.
    pub lut_bytes: usize,
    /// IR operation count per dialect in the optimized module, e.g.
    /// `[("arith", 120), ("math", 14), ...]`.
    pub dialect_mix: Vec<(String, usize)>,
}

/// Collects kernel statistics over the roster.
pub fn kernel_stats(opts: &ExperimentOptions) -> Vec<KernelStats> {
    let cache = KernelCache::global();
    opts.roster()
        .iter()
        .map(|e| {
            let m = model(e.name);
            let kb = cache.get_or_compile(&m, PipelineKind::Baseline);
            let opt = cache.get_or_compile(&m, PipelineKind::LimpetMlir(VectorIsa::Avx512));
            let (kb, kl, opt_module) = (kb.kernel(), opt.kernel(), opt.module());
            let mut by_dialect: std::collections::BTreeMap<String, usize> =
                std::collections::BTreeMap::new();
            for (op, n) in opt_module.op_histogram() {
                let dialect = op.split('.').next().unwrap_or("?").to_owned();
                *by_dialect.entry(dialect).or_insert(0) += n;
            }
            KernelStats {
                model: e.name.to_owned(),
                baseline_instrs: kb.program().instrs.len(),
                mlir_instrs: kl.program().instrs.len(),
                lut_bytes: kl.lut_bytes(),
                dialect_mix: by_dialect.into_iter().collect(),
            }
        })
        .collect()
}

/// One row of the native-tier benchmark: per-step wall-clock of the
/// optimized bytecode tier vs. the promoted native tier at width 1.
#[derive(Debug, Clone)]
pub struct NativeBenchRow {
    /// Model name.
    pub model: String,
    /// Size class (`small` / `medium` / `large`).
    pub class: String,
    /// Optimized bytecode tier, µs per step (min over repeats).
    pub bytecode_us: f64,
    /// Native tier, µs per step (min over repeats; NaN when native was
    /// unavailable and the row degraded to bytecode).
    pub native_us: f64,
    /// `bytecode_us / native_us` (NaN when native was unavailable).
    pub speedup: f64,
    /// Whether a fresh native run's full state (every state variable and
    /// external of every cell) matched a fresh bytecode run bit for bit.
    pub bit_identical: bool,
    /// Empty on success; the quarantine/eligibility reason otherwise.
    pub note: String,
}

/// The native-tier benchmark result (`figures --native-bench`; `--json`
/// prints [`NativeBench::to_json`]).
#[derive(Debug, Clone)]
pub struct NativeBench {
    /// Per-model rows in roster order.
    pub rows: Vec<NativeBenchRow>,
    /// Geomean speedup over the rows where native ran.
    pub geomean: f64,
    /// Cells per simulation.
    pub n_cells: usize,
    /// Timed steps per repeat.
    pub steps: usize,
}

impl NativeBench {
    /// Machine-readable form (NaN prints as `null`).
    pub fn to_json(&self) -> String {
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_owned()
            }
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"model\":\"{}\",\"class\":\"{}\",\"bytecode_us_per_step\":{},\
                     \"native_us_per_step\":{},\"speedup\":{},\"bit_identical\":{},\
                     \"note\":\"{}\"}}",
                    r.model,
                    r.class,
                    num(r.bytecode_us),
                    num(r.native_us),
                    num(r.speedup),
                    r.bit_identical,
                    r.note.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!(
            "{{\"bench\":\"native_tier\",\"n_cells\":{},\"steps\":{},\
             \"geomean_speedup\":{},\"rows\":[{}]}}",
            self.n_cells,
            self.steps,
            num(self.geomean),
            rows.join(",")
        )
    }
}

/// Benchmarks the native tier against the optimized bytecode tier over
/// the roster at width 1 (the scalar baseline pipeline, the only config
/// eligible for promotion): per model, promotes one simulation through
/// [`Simulation::promote_native_blocking`], proves full-state
/// bit-identity against a bytecode twin over `opts.steps` steps, then
/// times both tiers (min over `opts.repeats`). Rows where promotion
/// fails (toolchain missing, quarantine) degrade to bytecode and carry
/// the reason in [`NativeBenchRow::note`]; they are excluded from the
/// geomean.
pub fn native_tier_bench(opts: &ExperimentOptions) -> NativeBench {
    let cache = KernelCache::global();
    let wl = Workload {
        n_cells: opts.n_cells,
        steps: 0,
        dt: 0.01,
    };
    let mut rows = Vec::new();
    for e in opts.roster() {
        let m = model(e.name);
        let entry = cache.get_or_compile(&m, PipelineKind::Baseline);
        // `with_kernel` never promotes, so this twin stays on bytecode
        // even under `--native`.
        let mut bytecode = Simulation::with_kernel(entry.kernel().clone(), entry.layout(), &wl);
        let mut native = Simulation::new(&m, PipelineKind::Baseline, &wl);
        let note = match native.promote_native_blocking(cache) {
            Ok(()) => String::new(),
            Err(reason) => reason,
        };
        let promoted = note.is_empty();
        // Differential first, from matched fresh states: after the same
        // number of steps both tiers must agree on every bit.
        bytecode.run(opts.steps);
        native.run(opts.steps);
        let bit_identical = bytecode.state_bits() == native.state_bits();
        let time_us = |sim: &mut Simulation| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..opts.repeats.max(1) {
                let t0 = std::time::Instant::now();
                sim.run(opts.steps);
                let secs = t0.elapsed().as_secs_f64();
                best = best.min(secs / opts.steps.max(1) as f64 * 1e6);
            }
            best
        };
        let bytecode_us = time_us(&mut bytecode);
        let native_us = if promoted {
            time_us(&mut native)
        } else {
            f64::NAN
        };
        rows.push(NativeBenchRow {
            model: e.name.to_owned(),
            class: e.class.name().to_owned(),
            bytecode_us,
            native_us,
            speedup: bytecode_us / native_us,
            bit_identical,
            note,
        });
    }
    let promoted: Vec<f64> = rows
        .iter()
        .filter(|r| r.speedup.is_finite())
        .map(|r| r.speedup)
        .collect();
    let gm = if promoted.is_empty() {
        f64::NAN
    } else {
        geomean(promoted)
    };
    NativeBench {
        rows,
        geomean: gm,
        n_cells: opts.n_cells,
        steps: opts.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(names: &[&str]) -> ExperimentOptions {
        ExperimentOptions {
            n_cells: 64,
            steps: 4,
            repeats: 1,
            only: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([8.0]) - 8.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty::<f64>()).is_nan());
    }

    #[test]
    fn geomean_guards_non_positive_rows() {
        // A zero/negative/NaN row trips a debug assertion (outside fault
        // injection it always means a measurement bug); in release it is
        // skipped with a warning instead of zeroing or NaN-ing the whole
        // mean.
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let r = std::panic::catch_unwind(|| geomean([4.0, bad, 1.0]));
            if cfg!(debug_assertions) {
                assert!(r.is_err(), "debug build must trip the assertion for {bad}");
            } else {
                let g = r.expect("release build must skip the bad row");
                assert!((g - 2.0).abs() < 1e-12, "bad={bad} g={g}");
            }
        }
    }

    #[test]
    fn fig2_runs_on_subset() {
        let f = fig2_single_thread(&tiny_opts(&["Plonsey", "BeelerReuter"]));
        assert_eq!(f.rows.len(), 2);
        for r in &f.rows {
            assert!(r.baseline > 0.0 && r.limpet_mlir > 0.0);
            assert!(r.speedup.is_finite());
        }
        assert!(f.geomean.is_finite());
    }

    #[test]
    fn fig2_parallel_keeps_roster_row_order() {
        // Three models across three workers: whatever order the threads
        // finish in, rows come back in roster (small -> large) order with
        // every slot filled.
        let opts = tiny_opts(&["Plonsey", "BeelerReuter", "OHara"]);
        let serial = fig2_with_jobs(&opts, 1);
        let parallel = fig2_with_jobs(&opts, 3);
        let expected: Vec<&str> = opts.roster().iter().map(|e| e.name).collect();
        let got: Vec<&str> = parallel.rows.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(got, expected);
        assert_eq!(
            serial
                .rows
                .iter()
                .map(|r| r.model.as_str())
                .collect::<Vec<_>>(),
            expected
        );
        for r in &parallel.rows {
            assert!(r.baseline > 0.0 && r.limpet_mlir > 0.0);
            assert!(r.speedup.is_finite());
        }
        assert!(parallel.geomean.is_finite());
    }

    #[test]
    fn fig2_checkpoint_resumes_completed_rows_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("limpet-fig2-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("fig2.journal");
        let opts = tiny_opts(&["Plonsey", "BeelerReuter"]);
        // Simulate an interrupted sweep: a journal holding one completed
        // row with sentinel times no real measurement would produce.
        let sentinel = SpeedupRow {
            model: "Plonsey".to_owned(),
            class: "small".to_owned(),
            baseline: 4.0,
            limpet_mlir: 2.0,
            speedup: 2.0,
        };
        let (j, done) = crate::persist::Journal::open(&path, &fig2_journal_header(&opts)).unwrap();
        assert!(done.is_empty());
        j.record(&fig2_journal_line(&sentinel)).unwrap();
        drop(j);
        // The resumed sweep must keep the journaled row bit-exactly (it
        // was not re-measured) and measure only the remaining model.
        let f = fig2_checkpointed(&opts, 1, Some(&path));
        assert_eq!(f.rows.len(), 2);
        let plonsey = f.rows.iter().find(|r| r.model == "Plonsey").unwrap();
        assert_eq!((plonsey.baseline, plonsey.limpet_mlir), (4.0, 2.0));
        let br = f.rows.iter().find(|r| r.model == "BeelerReuter").unwrap();
        assert!(br.baseline > 0.0 && br.limpet_mlir > 0.0);
        assert!(!path.exists(), "completed sweep removes its journal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig2_journal_rows_round_trip_times_bit_exactly() {
        let row = SpeedupRow {
            model: "M".to_owned(),
            class: "large".to_owned(),
            baseline: 0.123_456_789_e-3,
            limpet_mlir: 7.654_321e-5,
            speedup: 0.0,
        };
        let parsed = parse_fig2_row(&fig2_journal_line(&row)).unwrap();
        assert_eq!(parsed.baseline.to_bits(), row.baseline.to_bits());
        assert_eq!(parsed.limpet_mlir.to_bits(), row.limpet_mlir.to_bits());
        assert!(parse_fig2_row("garbage").is_none());
        assert!(parse_fig2_row("a,b,zz,00").is_none());
    }

    #[test]
    fn trajectory_digest_is_deterministic_and_model_sensitive() {
        let wl = Workload {
            n_cells: 8,
            steps: 0,
            dt: 0.01,
        };
        let m = model("HodgkinHuxley");
        let a = trajectory_digest(&m, PipelineKind::Baseline, &wl, 50).unwrap();
        let b = trajectory_digest(&m, PipelineKind::Baseline, &wl, 50).unwrap();
        assert_eq!(a, b);
        let other = model("BeelerReuter");
        let c = trajectory_digest(&other, PipelineKind::Baseline, &wl, 50).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn fig3_class_geomeans_present() {
        let timing = ThreadTiming::model_only(TimingModel::default());
        let f = fig3_threads32(&tiny_opts(&["Plonsey", "OHara"]), &timing);
        assert_eq!(f.rows.len(), 2);
        assert_eq!(f.class_geomeans.len(), 3);
        // Model-only policy: every row is tagged modeled.
        assert!(f.rows.iter().all(|r| r.provenance == Provenance::Modeled));
    }

    #[test]
    fn fig3_real_threads_tags_measured_rows() {
        // A real region reaching 32 makes every fig-3 row measured (the
        // host oversubscribes, which is fine for a provenance test).
        let timing = ThreadTiming::real_threads(TimingModel::default(), Some(32));
        let f = fig3_threads32(&tiny_opts(&["Plonsey"]), &timing);
        assert!(f.rows.iter().all(|r| r.provenance == Provenance::Measured));
        assert!(f.rows[0].baseline > 0.0 && f.rows[0].limpet_mlir > 0.0);
        // A region capped below 32 models the same figure.
        let timing = ThreadTiming::real_threads(TimingModel::default(), Some(2));
        let f = fig3_threads32(&tiny_opts(&["Plonsey"]), &timing);
        assert!(f.rows.iter().all(|r| r.provenance == Provenance::Modeled));
    }

    #[test]
    fn fig5_produces_all_series() {
        let timing = ThreadTiming::model_only(TimingModel::default());
        let f = fig5_isa_threads(&tiny_opts(&["Pathmanathan"]), &timing);
        assert_eq!(f.series.len(), 3 * THREAD_COUNTS.len());
        assert!(f.overall_geomean.is_finite());
    }

    #[test]
    fn validate_tm_reports_overlap_region() {
        let timing = ThreadTiming::real_threads(TimingModel::default(), Some(4));
        let v = validate_timing_model(&tiny_opts(&["Plonsey"]), &timing);
        assert_eq!(v.threads, vec![2, 4]);
        // 1 model x 2 configs x 2 thread counts.
        assert_eq!(v.rows.len(), 4);
        for r in &v.rows {
            assert!(r.measured_s > 0.0 && r.modeled_s > 0.0);
            assert!(r.rel_err.is_finite());
        }
        assert!(v.overall.is_finite());
        assert_eq!(v.per_class.len(), 3);
        // An empty overlap must come back empty, not panic.
        let none = validate_timing_model(
            &tiny_opts(&["Plonsey"]),
            &ThreadTiming::model_only(TimingModel::default()),
        );
        assert!(none.rows.is_empty() && none.threads.is_empty());
        assert!(none.overall.is_nan());
    }

    #[test]
    fn layout_ablation_runner_produces_both_columns() {
        let f = layout_ablation(&tiny_opts(&["Stress_Niederer"]));
        assert_eq!(f.rows.len(), 1);
        let (_, aos, aosoa) = &f.rows[0];
        assert!(*aos > 0.0 && *aosoa > 0.0);
        assert!(f.geomeans.0.is_finite() && f.geomeans.1.is_finite());
    }

    #[test]
    fn ablations_runner_times_every_choice() {
        let rows = ablations(&tiny_opts(&["BeelerReuter", "HodgkinHuxley"]));
        let kinds: Vec<_> = rows
            .iter()
            .map(|r| (r.ablation, r.model.as_str()))
            .collect();
        assert_eq!(
            kinds,
            [
                ("fma-contract", "BeelerReuter"),
                ("if-conversion", "branchless"),
                ("if-conversion", "light_branch"),
                ("if-conversion", "heavy_branch"),
                ("spline-lut", "HodgkinHuxley"),
            ]
        );
        assert!(rows
            .iter()
            .all(|r| r.speedup() > 0.0 && r.speedup().is_finite()));
    }

    #[test]
    fn lut_ablation_runner_skips_lut_free_models() {
        // ISAC_Hu has no lookup markup; it must not appear in the table.
        let f = lut_ablation(&tiny_opts(&["ISAC_Hu", "HodgkinHuxley"]));
        assert_eq!(f.rows.len(), 1);
        assert_eq!(f.rows[0].0, "HodgkinHuxley");
    }

    #[test]
    fn fig4_covers_every_class_and_thread_count() {
        let timing = ThreadTiming::model_only(TimingModel::default());
        let opts = tiny_opts(&["Plonsey", "BeelerReuter", "OHara"]);
        let f = fig4_scaling(&opts, &timing);
        assert_eq!(f.series.len(), 3 * THREAD_COUNTS.len());
        // At this deliberately tiny test workload every class is
        // barrier-dominated, so no monotonicity is asserted — only
        // structure: positive times, one series point per class and
        // thread count.
        for p in &f.series {
            assert!(
                p.baseline_s > 0.0 && p.limpet_mlir_s > 0.0,
                "{} T={}",
                p.class,
                p.threads
            );
            assert_eq!(p.provenance, Provenance::Modeled);
            if p.threads == 1 {
                // One timing of 4 steps x 64 cells in whatever build this
                // is: printed, not asserted.
                println!(
                    "{}: wall-clock baseline / limpetMLIR at T=1 (not asserted): {:.2}",
                    p.class,
                    p.baseline_s / p.limpet_mlir_s
                );
            }
        }
        // "limpetMLIR is no slower than the baseline at T=1" in the form
        // that repeats exactly: the instructions one cell-step executes.
        for e in opts.roster() {
            let per_cell_step = |config| {
                step_profile(&model(e.name), config, opts.n_cells).instrs as f64
                    / opts.n_cells as f64
            };
            let baseline = per_cell_step(PipelineKind::Baseline);
            let mlir = per_cell_step(PipelineKind::LimpetMlir(VectorIsa::Avx512));
            println!(
                "{}: {baseline} instructions per cell-step, limpetMLIR {mlir}",
                e.name
            );
            assert!(mlir < baseline, "{}: {mlir} vs {baseline}", e.name);
        }
    }

    #[test]
    fn fig4_real_threads_measures_below_and_models_above() {
        let timing = ThreadTiming::real_threads(TimingModel::default(), Some(2));
        let f = fig4_scaling(&tiny_opts(&["Plonsey"]), &timing);
        for p in &f.series {
            let expected = if p.threads <= 2 {
                Provenance::Measured
            } else {
                Provenance::Modeled
            };
            assert_eq!(p.provenance, expected, "T={}", p.threads);
            assert!(p.baseline_s > 0.0 && p.limpet_mlir_s > 0.0);
        }
    }

    #[test]
    fn roofline_points_have_positive_intensity() {
        let tm = TimingModel::default();
        let r = fig6_roofline(&tiny_opts(&["BeelerReuter"]), &tm);
        assert_eq!(r.points.len(), 1);
        assert!(r.points[0].intensity > 0.0);
        assert!(r.points[0].gflops > 0.0);
        assert!(r.peak_gflops > r.dram_gbps / 100.0);
    }

    #[test]
    fn kernel_stats_show_vector_kernel_is_smaller_or_equal() {
        let stats = kernel_stats(&tiny_opts(&["HodgkinHuxley"]));
        // CSE/const-prop should not make the optimized kernel larger.
        assert!(stats[0].mlir_instrs <= stats[0].baseline_instrs * 2);
        assert!(stats[0].lut_bytes > 0);
    }
}
