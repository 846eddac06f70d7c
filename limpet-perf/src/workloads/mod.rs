//! The four workloads and what they share: the roster, the two pipeline
//! configurations of the paper's headline comparison, seeded inputs, the
//! golden gate, and repeated set-up timing.

pub mod ckpt_resume;
pub mod compile_roster;
pub mod serve_closed;
pub mod sim_steady;

use crate::calib::Pace;
use crate::golden::{self, Digests, Golden};
use crate::host::Scratch;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use limpet_codegen::pipeline::VectorIsa;
use limpet_easyml::Model;
use limpet_harness::{PipelineKind, Simulation, Workload};
use limpet_models::{ModelEntry, SizeClass};
use limpet_rng::SmallRng;
use std::time::Instant;

/// openCARP limpetC++-style scalar code: W=1, AoS.
pub const W1: PipelineKind = PipelineKind::Baseline;
/// limpetMLIR at AVX-512 width: W=8, AoSoA.
pub const W8: PipelineKind = PipelineKind::LimpetMlir(VectorIsa::Avx512);
/// Both, in the order per-config arrays are indexed.
pub const CONFIGS: [PipelineKind; 2] = [W1, W8];

/// The paper's population size.
pub const PAPER_CELLS: usize = 8192;

/// Everything a workload is handed.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Workload seed; the program under test sees only inputs made from it.
    pub seed: u64,
    /// Seconds the timed phase should last.
    pub seconds: f64,
    /// Smoke mode: three models, tiny counts.
    pub quick: bool,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Span recorder; disabled in the untraced run.
    pub tr: Tracer,
    /// Host-speed reference samples bracketing every timed operation.
    pub pace: Pace,
    /// Root of every file the run creates.
    pub scratch: &'a Scratch,
}

/// Set-up is repeated (its median is `setup_s`) at least twice and until
/// the repetitions have taken this many wall seconds in all, so a set-up of
/// a fraction of a second is sampled as often as it takes to be steady
/// while one of several seconds is not repeated beyond need.
const SETUP_BUDGET_SECS: f64 = 3.0;
const MAX_SETUP_REPS: usize = 10;

impl Ctx<'_> {
    /// Whether set-up should be repeated once more after `reps`
    /// repetitions that began at `started`. The traced run and the smoke
    /// run set up once.
    fn another_setup(&self, reps: usize, started: Instant) -> bool {
        !(self.quick || self.traced)
            && reps < MAX_SETUP_REPS
            && (reps < 2 || started.elapsed().as_secs_f64() < SETUP_BUDGET_SECS)
    }

    /// Runs `f` inside a leaf span and returns its result with its
    /// duration **at reference speed** (see [`crate::calib`]). Costs one
    /// reference-kernel sample (≈ 0.3 ms) after `f`, outside the span.
    pub fn timed<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> (R, f64) {
        let (r, secs) = self.tr.time(name, op, f);
        (r, self.pace.scale(secs))
    }

    /// Whether the timed phase should start another round: always below
    /// `min_rounds`, then until the time budget is spent. The traced run
    /// and the smoke run stop at `min_rounds`.
    pub fn another_round(&self, rounds: usize, min_rounds: usize, started: Instant) -> bool {
        rounds < min_rounds
            || (!self.quick && !self.traced && started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// One roster model: registry entry, EasyML text, checked model.
#[derive(Debug)]
pub struct RosterModel {
    /// Registry entry (name, size class).
    pub entry: &'static ModelEntry,
    /// EasyML source text.
    pub source: String,
    /// Parsed and analysed model.
    pub model: Model,
}

/// The models smoke mode runs: one per size class.
pub const QUICK_MODELS: [&str; 3] = ["MitchellSchaeffer", "LuoRudy91", "OHara"];

/// The 43-model roster in registry order, or [`QUICK_MODELS`].
pub fn roster(quick: bool) -> Vec<RosterModel> {
    limpet_models::ROSTER
        .iter()
        .filter(|e| !quick || QUICK_MODELS.contains(&e.name))
        .map(|entry| {
            let source = limpet_models::source(entry.name);
            let model = limpet_models::model(entry.name);
            RosterModel {
                entry,
                source,
                model,
            }
        })
        .collect()
}

/// Seeded per-cell offsets of the initial membrane potential in ±20 mV,
/// so neighbouring lanes index different LUT rows.
pub fn vm_offsets(seed: u64, n_cells: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x766d_5f6f_6666_7365);
    (0..n_cells).map(|_| rng.gen_range(-20.0..20.0)).collect()
}

/// Applies [`vm_offsets`] to a fresh simulation.
pub fn perturb(sim: &mut Simulation, offsets: &[f64]) {
    for (cell, &delta) in offsets.iter().enumerate().take(sim.n_cells()) {
        sim.perturb_vm(cell, delta);
    }
}

/// A workload of `n_cells` cells at the paper's time step.
pub fn cells(n_cells: usize) -> Workload {
    Workload {
        n_cells,
        steps: 0,
        dt: 0.01,
    }
}

/// Steps one timed block runs, per size class: sized so a block of any
/// class costs roughly the same wall time.
pub fn block_steps(class: SizeClass, scale: usize) -> usize {
    let base = match class {
        SizeClass::Small => 8,
        SizeClass::Medium => 2,
        SizeClass::Large => 1,
    };
    base * scale
}

/// The perturbed golden scenario on a fresh [`golden::CELLS`]-cell
/// simulation: fixed per-cell offsets, [`golden::STEPS`] steps, full-state
/// digest.
pub fn golden_state(mut sim: Simulation) -> u64 {
    perturb(&mut sim, &vm_offsets(golden::OFFSET_SEED, golden::CELLS));
    sim.run(golden::STEPS);
    golden::state_digest(&sim)
}

/// The golden gate for one model under one configuration: runs
/// [`golden_state`] on `sim` (built by the path under test: a cold
/// kernel, a disk-warm one, …) against the committed digest. Counts as
/// one attempted operation.
pub fn golden_check(
    out: &mut Outcome,
    golden: &Golden,
    name: &str,
    config: PipelineKind,
    what: &str,
    sim: Simulation,
) {
    let got = golden_state(sim);
    match golden.get(&(name.to_owned(), config.label())) {
        Some(want) => out.check_eq(
            || format!("golden {name} {} ({what})", config.label()),
            got,
            want.state,
        ),
        None => out.attempt(Some(format!(
            "golden: no committed digest for {name} {}",
            config.label()
        ))),
    }
}

/// Runs `setup` repeatedly (see [`SETUP_BUDGET_SECS`]); returns the last
/// product and records the median seconds as `setup_s`. Each repetition
/// must start from nothing (fresh caches, fresh directories) so the median
/// is a cold set-up.
///
/// `setup` returns its product and its own seconds **at reference speed**,
/// because how to scale depends on where the work ran: the host's cores
/// run at different speeds at the same moment, so a set-up on this thread
/// is the sum of its [`Ctx::timed`] steps (yardstick on the same core,
/// right around each step), and one that keeps every core busy for seconds
/// goes through [`crate::calib::sampled`].
pub fn repeat_setup<T>(
    cx: &mut Ctx,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Ctx, &mut Outcome) -> (T, f64),
) -> T {
    let (mut secs, mut wall) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let open = cx.tr.enter("bench.setup", 0);
        let (product, at_reference) = setup(cx, out);
        wall.push(cx.tr.exit(open));
        secs.push(at_reference);
        if !cx.another_setup(secs.len(), started) {
            out.e2e("setup_s", median(&secs), secs.len());
            out.wall("setup_s", median(&wall));
            return product;
        }
        // Dropped before the next repetition: a second daemon or kernel
        // cache alive at once would double the peak memory.
        drop(product);
    }
}

/// `--record-golden`: computes the reference digests of both scenarios
/// for every model under both configurations — cross-checking the
/// optimized kernel against its unoptimized sibling, so a file is never
/// recorded from a build whose two bytecode tiers already disagree — and
/// writes them unless a golden file already exists.
///
/// # Errors
///
/// Returns a description on a cross-check mismatch or when
/// [`golden::record`] refuses.
pub fn record_golden() -> Result<std::path::PathBuf, String> {
    let cache = limpet_harness::KernelCache::new();
    let mut rows = Golden::new();
    for r in roster(false) {
        for config in CONFIGS {
            let entry = cache.get_or_compile(&r.model, config);
            let digests = |kernel: &limpet_vm::Kernel| {
                let build = || {
                    Simulation::with_kernel(kernel.clone(), entry.layout(), &cells(golden::CELLS))
                };
                let mut flat = build();
                flat.run(golden::STEPS);
                let vm_100 = flat.vm(0).to_bits();
                flat.run(golden::JOB_STEPS - golden::STEPS);
                Digests {
                    state: golden_state(build()),
                    vm_100,
                    vm_250: flat.vm(0).to_bits(),
                }
            };
            let (optimized, raw) = (digests(entry.kernel()), digests(entry.raw_kernel()));
            if optimized != raw {
                return Err(format!(
                    "{} {}: optimized and raw bytecode disagree; refusing to record",
                    r.entry.name,
                    config.label()
                ));
            }
            rows.insert((r.entry.name.to_owned(), config.label()), optimized);
        }
    }
    golden::record(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_model_subsets_are_in_the_roster_one_per_class_where_promised() {
        let class_of = |name: &str| {
            limpet_models::entry(name)
                .unwrap_or_else(|| panic!("{name} is not a roster model"))
                .class
        };
        assert_eq!(QUICK_MODELS.map(class_of), SizeClass::ALL);
        for class in SizeClass::ALL {
            let count = |names: &[&str]| names.iter().filter(|n| class_of(n) == class).count();
            assert_eq!(count(&crate::probes::ABLATION_MODELS), 3);
            assert_eq!(count(&serve_closed::COLD_MODELS), 2);
        }
        for name in serve_closed::COLD_MODELS {
            assert!(
                limpet_models::source(name).contains(serve_closed::SCALE_PARAM),
                "{name}"
            );
        }
    }

    #[test]
    fn seeded_inputs_repeat_and_differ_by_seed() {
        assert_eq!(vm_offsets(7, 64), vm_offsets(7, 64));
        assert_ne!(vm_offsets(7, 64), vm_offsets(8, 64));
        assert!(vm_offsets(7, 4096)
            .iter()
            .all(|d| (-20.0..20.0).contains(d)));
    }
}
