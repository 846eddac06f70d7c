//! Health-guard policy tests: the same injected mid-run NaN under each
//! [`HealthPolicy`], proving `Abort` fails fast with a named incident and
//! `FallbackRaw` resumes one tier down with a trajectory bit-identical to
//! the reference pipeline's.
//!
//! Then the property the rollback window rests on — **chunking
//! invariance**: however 100 guarded steps are cut into `run_guarded`
//! calls (so wherever the rollback points fall and however many steps a
//! recovery replays), state bits, clock, step count, tier and incidents
//! are those of `step_guarded()` called 100 times, whose windows are one
//! step long: a rollback copy before every step.
//!
//! Each test arms its own plan, current on its own thread only, so the
//! tests run in parallel. `Kernel::executed_steps` is shared by every
//! simulation of one cached compilation, so the two tests that count it
//! count a (model, config) kernel no other test here runs.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{
    faults, CancelToken, HealthPolicy, IncidentKind, PipelineKind, Simulation, SnapshotStore, Tier,
    Workload,
};
use limpet_models::model;

const WL: Workload = Workload {
    n_cells: 8,
    steps: 0,
    dt: 0.01,
};
const SEED: u64 = 13;
const STEPS: usize = 50;

fn guarded(model_name: &str, policy: HealthPolicy) -> Simulation {
    let _plan = faults::arm(&format!("state-nan@{SEED}")).unwrap();
    Simulation::new_resilient(&model(model_name), PipelineKind::Baseline, &WL, policy)
        .expect("healthy model compiles")
}

#[test]
fn abort_policy_fails_fast_with_named_incident() {
    let mut sim = guarded("BeelerReuter", HealthPolicy::Abort);
    let err = sim
        .run_guarded(STEPS)
        .expect_err("abort must surface the NaN");
    assert_eq!(err.kind, IncidentKind::NonFiniteState);
    assert_eq!(err.model, "BeelerReuter");
    assert_eq!(
        err.step,
        Some(faults::nan_step(SEED)),
        "fails at the injected step"
    );
    // The incident is also on the simulation's report, and no fallback
    // happened: the tier is unchanged.
    assert!(sim
        .incidents()
        .iter()
        .any(|i| i.kind == IncidentKind::NonFiniteState));
    assert_eq!(sim.tier(), Tier::Optimized);
}

#[test]
fn fallback_policy_resumes_bit_identical_to_reference() {
    let mut sim = guarded("BeelerReuter", HealthPolicy::FallbackRaw);
    sim.run_guarded(STEPS).expect("fallback absorbs the NaN");
    assert_eq!(sim.tier(), Tier::Reference, "one rung down");

    // An unguarded reference run of the same workload: the rolled-back
    // retry must leave no trace in the numbers.
    let mut reference = Simulation::new(&model("BeelerReuter"), PipelineKind::Baseline, &WL);
    reference.run(STEPS);
    for cell in 0..WL.n_cells {
        assert_eq!(
            sim.vm(cell).to_bits(),
            reference.vm(cell).to_bits(),
            "cell {cell} diverged from the reference trajectory"
        );
        for var in ["V", "m", "h"] {
            if let (Some(a), Some(b)) = (sim.state_of(cell, var), reference.state_of(cell, var)) {
                assert_eq!(a.to_bits(), b.to_bits(), "state {var} of cell {cell}");
            }
        }
    }
}

#[test]
fn unguarded_step_guarded_is_plain_stepping() {
    let m = model("Plonsey");
    let mut guarded = Simulation::new(&m, PipelineKind::Baseline, &WL);
    let mut plain = Simulation::new(&m, PipelineKind::Baseline, &WL);
    for _ in 0..20 {
        guarded.step_guarded().expect("no guard, no incidents");
        plain.step();
    }
    assert!(guarded.incidents().is_empty());
    for cell in 0..WL.n_cells {
        assert_eq!(guarded.vm(cell).to_bits(), plain.vm(cell).to_bits());
    }
}

/// 13 cells: three padding lanes in the last block of a W=8 kernel.
const ODD_CELLS: usize = 13;
const ODD_WL: Workload = Workload {
    n_cells: ODD_CELLS,
    steps: 0,
    dt: 0.01,
};
const TOTAL: usize = 100;
/// A step in the second rollback window of a `run_guarded(100)`.
const LATE_STEP: usize = 45;
const POLICIES: [HealthPolicy; 2] = [HealthPolicy::Abort, HealthPolicy::FallbackRaw];
const WIDTHS: [PipelineKind; 2] = [
    PipelineKind::Baseline,
    PipelineKind::LimpetMlir(VectorIsa::Avx512),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    Healthy,
    /// `state-nan@SEED`: a NaN in one cell's Vm at `nan_step(SEED)`, in
    /// the first window.
    Injected,
    /// The same plan moved to [`LATE_STEP`] through a snapshot.
    InjectedLate,
    /// AlievPanfilov at a `dt` its Vm update is unstable at: finite for
    /// more than one window, then non-finite on every tier.
    Diverges,
}

impl Scenario {
    fn build(self, config: PipelineKind, policy: HealthPolicy) -> Simulation {
        let (name, dt) = match self {
            Scenario::Diverges => ("AlievPanfilov", 0.459),
            _ => ("BeelerReuter", 0.01),
        };
        let wl = Workload {
            n_cells: ODD_CELLS,
            steps: 0,
            dt,
        };
        let _plan = matches!(self, Scenario::Injected | Scenario::InjectedLate)
            .then(|| faults::arm(&format!("state-nan@{SEED}")).unwrap());
        let mut sim = Simulation::new_resilient(&model(name), config, &wl, policy)
            .expect("healthy model compiles");
        if self == Scenario::InjectedLate {
            let mut snap = sim.snapshot(&config.label(), 0);
            assert_eq!(snap.nan_plan, Some((faults::nan_step(SEED) as u64, SEED)));
            snap.nan_plan = Some((LATE_STEP as u64, SEED));
            sim.restore(&snap).expect("own snapshot restores");
        }
        sim
    }

    /// The step whose scan fails first, if one does.
    fn bad_step(self) -> Option<usize> {
        match self {
            Scenario::Healthy => None,
            Scenario::Injected => Some(faults::nan_step(SEED)),
            Scenario::InjectedLate => Some(LATE_STEP),
            Scenario::Diverges => Some(49),
        }
    }
}

/// Everything chunking must not change.
#[derive(Debug, PartialEq)]
struct Observed {
    bits: Vec<u64>,
    t_bits: u64,
    guarded_steps: usize,
    tier: Tier,
    incidents: Vec<(IncidentKind, Option<usize>, Option<Tier>)>,
    /// The step count at which the run returned an error, if it did.
    stopped: Option<Option<usize>>,
}

fn observe(sim: &Simulation, stopped: Option<Option<usize>>) -> Observed {
    Observed {
        bits: sim.state_bits(),
        t_bits: sim.time().to_bits(),
        guarded_steps: sim.guarded_steps(),
        tier: sim.tier(),
        incidents: sim
            .incidents()
            .iter()
            .map(|i| (i.kind, i.step, i.tier))
            .collect(),
        stopped,
    }
}

/// Runs `calls` (`None` = one `step_guarded()`, `Some(n)` =
/// `run_guarded(n)`) until one returns an error.
fn run_cut(sim: &mut Simulation, calls: &[Option<usize>]) -> Observed {
    for call in calls {
        let result = match call {
            None => sim.step_guarded(),
            Some(n) => sim.run_guarded(*n),
        };
        if let Err(incident) = result {
            return observe(sim, Some(incident.step));
        }
    }
    observe(sim, None)
}

/// `TOTAL` steps in calls of `n` (the last one shorter).
fn calls_of(n: usize) -> Vec<Option<usize>> {
    let mut calls = vec![Some(n); TOTAL / n];
    if !TOTAL.is_multiple_of(n) {
        calls.push(Some(TOTAL % n));
    }
    calls
}

#[test]
fn every_chunking_of_run_guarded_equals_one_step_per_call() {
    let scenarios = [
        Scenario::Healthy,
        Scenario::Injected,
        Scenario::InjectedLate,
        Scenario::Diverges,
    ];
    for scenario in scenarios {
        for policy in POLICIES {
            for config in WIDTHS {
                let what = format!("{scenario:?} / {policy} / {}", config.label());
                let per_step = run_cut(&mut scenario.build(config, policy), &[None; TOTAL]);
                // The scenario is what it says it is.
                let first_bad = per_step
                    .incidents
                    .iter()
                    .find(|i| i.0 == IncidentKind::NonFiniteState)
                    .map(|i| i.1.expect("runtime incidents carry their step"));
                assert_eq!(first_bad, scenario.bad_step(), "{what}");
                if scenario == Scenario::Diverges {
                    assert!(first_bad.unwrap() > 32, "{what}: not past the first window");
                }
                let stops = match (scenario, policy) {
                    (Scenario::Healthy, _) => false,
                    (_, HealthPolicy::Abort) | (Scenario::Diverges, HealthPolicy::FallbackRaw) => {
                        true
                    }
                    _ => false,
                };
                assert_eq!(per_step.stopped.is_some(), stops, "{what}");
                if !stops {
                    assert_eq!(per_step.guarded_steps, TOTAL, "{what}");
                }

                let bad = scenario.bad_step().unwrap_or(50);
                let cuts = [
                    calls_of(TOTAL),
                    calls_of(32),
                    calls_of(7),
                    vec![Some(bad), Some(TOTAL - bad)],
                    vec![Some(bad - 1), Some(TOTAL - bad + 1)],
                ];
                for calls in cuts {
                    let cut = run_cut(&mut scenario.build(config, policy), &calls);
                    assert_eq!(cut, per_step, "{what}: calls {calls:?}");
                }
            }
        }
    }
}

/// What a recovery costs: the good steps of the window are run once more
/// on the kernel that failed, never more than 31 of them, and
/// `Kernel::executed_steps` says so; the reference kernel then runs the
/// failed step and the rest.
#[test]
fn a_recovery_replays_only_the_good_steps_of_its_window() {
    // The kernel whose executed steps are counted: no other test runs it.
    let config = PipelineKind::LimpetMlirAos(VectorIsa::Avx2);
    for (scenario, bad) in [
        (Scenario::Injected, faults::nan_step(SEED)),
        (Scenario::InjectedLate, LATE_STEP),
    ] {
        for (calls, replayed) in [
            (calls_of(TOTAL), (bad - 1) % 32),
            (calls_of(7), (bad - 1) % 7),
            (vec![None; TOTAL], 0),
        ] {
            let mut sim = scenario.build(config, HealthPolicy::FallbackRaw);
            let failed = sim.kernel().clone();
            let before = failed.executed_steps();
            let seen = run_cut(&mut sim, &calls);
            assert_eq!((seen.stopped, seen.tier), (None, Tier::Reference));
            assert!(replayed < 32);
            assert_eq!(
                failed.executed_steps() - before,
                (bad + replayed) as u64,
                "{scenario:?}, calls {calls:?}"
            );
        }
    }
}

/// An unguarded run of `config` for `steps` steps, snapshot with its tier
/// set to `tier`. Cell `c` starts `c × spread` mV above rest.
fn snapshot_after(
    config: PipelineKind,
    spread: f64,
    steps: usize,
    tier: Tier,
) -> limpet_harness::Snapshot {
    let mut sim = Simulation::new(&model("BeelerReuter"), config, &ODD_WL);
    for cell in 0..ODD_CELLS {
        sim.perturb_vm(cell, cell as f64 * spread);
    }
    sim.run(steps);
    let mut snap = sim.snapshot(&config.label(), steps as u64);
    snap.tier = tier.to_string();
    snap
}

/// `FallbackRaw` after a NaN injected past the first window — so behind a
/// replay — still leaves no trace in the numbers. At W=1 the reference
/// tier is the configured pipeline, so the run equals the unguarded one;
/// at W=8 it equals the unguarded run up to the failed step continued on
/// the reference tier — a snapshot resumed there.
#[test]
fn fallback_after_a_replay_is_bit_identical_to_the_unguarded_run() {
    for config in WIDTHS {
        let mut sim = Scenario::InjectedLate.build(config, HealthPolicy::FallbackRaw);
        sim.run_guarded(TOTAL).expect("fallback absorbs the NaN");
        assert_eq!(sim.tier(), Tier::Reference, "one rung down");
        let twin = if config == PipelineKind::Baseline {
            let mut unguarded = Simulation::new(&model("BeelerReuter"), config, &ODD_WL);
            unguarded.run(TOTAL);
            unguarded
        } else {
            let snap = snapshot_after(config, 0.0, LATE_STEP - 1, Tier::Reference);
            let m = model("BeelerReuter");
            let mut resumed =
                Simulation::resume_from(&m, config, &ODD_WL, HealthPolicy::FallbackRaw, &snap)
                    .expect("snapshot matches what is built");
            assert_eq!(resumed.tier(), Tier::Reference);
            resumed
                .run_guarded(TOTAL - (LATE_STEP - 1))
                .expect("healthy");
            resumed
        };
        assert_eq!(sim.state_bits(), twin.state_bits(), "{}", config.label());
        assert_eq!(sim.time().to_bits(), twin.time().to_bits());
    }
}

/// A guarded run resumed from a snapshot taken on the reference tier
/// continues there — not on the configured pipeline, whose bits differ —
/// and records the descent.
#[test]
fn a_snapshot_taken_on_the_reference_tier_resumes_there() {
    let config = PipelineKind::LimpetMlir(VectorIsa::Avx512);
    let snap = snapshot_after(config, 3.0, 20, Tier::Reference);
    let m = model("BeelerReuter");
    let mut resumed =
        Simulation::resume_from(&m, config, &ODD_WL, HealthPolicy::FallbackRaw, &snap)
            .expect("snapshot matches what is built");
    assert_eq!(resumed.tier(), Tier::Reference);
    let descent: Vec<_> = resumed
        .incidents()
        .iter()
        .map(|i| (i.kind, i.step, i.tier))
        .collect();
    assert_eq!(
        descent,
        [(IncidentKind::TierFallback, Some(20), Some(Tier::Reference))]
    );
    resumed.run_guarded(STEPS).expect("healthy");

    let mut reference = Simulation::new(&m, PipelineKind::Baseline, &ODD_WL);
    reference.restore(&snap).expect("same cells");
    reference.run(STEPS);
    assert_eq!(resumed.state_bits(), reference.state_bits());
    assert_eq!(resumed.time().to_bits(), reference.time().to_bits());

    // The configured pipeline computes other bits from the same state,
    // which is what resuming there would have continued.
    let mut configured = Simulation::new(&m, config, &ODD_WL);
    configured.restore(&snap).expect("same cells");
    configured.run(STEPS);
    assert_ne!(configured.state_bits(), reference.state_bits());
}

/// A token that trips inside a window stops the run before the next step:
/// state whole, nothing replayed, nothing recorded but the deadline.
#[test]
fn cancel_inside_a_window_stops_at_that_step_boundary_without_replay() {
    // The kernel whose executed steps are counted: no other test runs it.
    let config = PipelineKind::LimpetMlirAos(VectorIsa::Sse);
    let wl = ODD_WL;
    let m = model("BeelerReuter");
    let mut inside_a_window = false;
    for _ in 0..8 {
        let mut sim = Simulation::new_resilient(&m, config, &wl, HealthPolicy::FallbackRaw)
            .expect("healthy model compiles");
        sim.set_cancel_token(CancelToken::with_budget(std::time::Duration::from_millis(
            3,
        )));
        let before = sim.kernel().executed_steps();
        let err = sim
            .run_guarded(50_000_000)
            .expect_err("the budget runs out first");
        assert_eq!(err.kind, IncidentKind::DeadlineExceeded);
        let k = sim.guarded_steps();
        assert_eq!(err.step, Some(k));
        assert_eq!(sim.kernel().executed_steps() - before, k as u64, "replayed");
        assert_eq!(sim.incidents().len(), 1, "{:?}", sim.incidents());
        let mut twin = Simulation::new(&m, config, &wl);
        twin.run(k);
        assert_eq!(
            sim.state_bits(),
            twin.state_bits(),
            "stopped after {k} steps"
        );
        assert_eq!(sim.time().to_bits(), twin.time().to_bits());
        inside_a_window |= !k.is_multiple_of(32);
        if inside_a_window {
            break;
        }
    }
    assert!(
        inside_a_window,
        "eight budgets all ran out on a window boundary"
    );
}

/// A snapshot taken after a window was rolled back and replayed carries a
/// state that continues, from disk, exactly as the uninterrupted run does.
#[test]
fn snapshot_after_a_rolled_back_window_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("limpet-guard-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir).unwrap();
    for config in WIDTHS {
        let mut whole = Scenario::InjectedLate.build(config, HealthPolicy::FallbackRaw);
        whole.run_guarded(TOTAL).expect("fallback absorbs the NaN");

        let mut cut = Scenario::InjectedLate.build(config, HealthPolicy::FallbackRaw);
        cut.run_guarded(60).expect("fallback absorbs the NaN");
        assert_eq!(
            cut.tier(),
            Tier::Reference,
            "the window around step 45 rolled back"
        );
        let snap = cut.snapshot(&config.label(), cut.guarded_steps() as u64);
        store.save("job", &snap).unwrap();
        drop(cut);

        let loaded = store.load("job").snapshot.expect("just saved");
        let mut resumed = Simulation::resume_from(
            &model("BeelerReuter"),
            config,
            &ODD_WL,
            HealthPolicy::FallbackRaw,
            &loaded,
        )
        .expect("snapshot matches what is built");
        assert_eq!(resumed.guarded_steps(), 60);
        assert_eq!(resumed.tier(), Tier::Reference, "{}", config.label());
        resumed.run_guarded(TOTAL - 60).expect("healthy from here");
        assert_eq!(
            resumed.state_bits(),
            whole.state_bits(),
            "{}",
            config.label()
        );
        assert_eq!(resumed.time().to_bits(), whole.time().to_bits());
        assert_eq!(resumed.guarded_steps(), TOTAL);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
