//! The deterministic fault-injection suite: proves every degradation path
//! of the fault-tolerant compile/run chain fires and recovers.
//!
//! Fault plans are process-global, so every test here serializes on one
//! mutex and disarms all plans before and after its scenario. The
//! compile/run acceptance scenario is one `--inject`-style spec with
//! fixed seeds that exercises the four in-process fault kinds end to end
//! on the 3-model CI subset, each producing a recorded incident, with
//! the optimized → reference chain observed and the post-fallback
//! trajectory bit-identical to the reference pipeline. The three disk
//! faults (`disk-corrupt`, `disk-truncate`, `disk-stale-version`) get
//! their own combined-spec scenario here; `persistent_cache.rs` covers
//! each one individually plus self-healing and concurrency.

use limpet_harness::{
    compile_source, faults, CompileError, DiskCache, HealthPolicy, IncidentKind, KernelCache,
    PipelineKind, Simulation, Tier, Workload,
};
use limpet_models::{model, source};
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    faults::disarm_all();
    guard
}

const WL: Workload = Workload {
    n_cells: 8,
    steps: 0,
    dt: 0.01,
};

#[test]
fn parse_error_fault_yields_spanned_diagnostic_then_clears() {
    let _g = serialized();
    faults::arm("parse-error@11").unwrap();
    let src = source("HodgkinHuxley");
    let err = compile_source("HodgkinHuxley", &src).expect_err("injected corruption must fail");
    assert_eq!(err.stage(), "parse");
    let text = err.to_string();
    assert!(text.contains("HodgkinHuxley"), "model name in '{text}'");
    assert!(text.contains("error[E0"), "coded diagnostic in '{text}'");

    // Determinism: the same seed corrupts the same way.
    faults::arm("parse-error@11").unwrap();
    let again = compile_source("HodgkinHuxley", &src).expect_err("same seed, same failure");
    assert_eq!(err.to_string(), again.to_string());

    // Once-fired: with the plan spent, the same call succeeds.
    let ok = compile_source("HodgkinHuxley", &src).expect("plan is spent");
    assert_eq!(ok.name, "HodgkinHuxley");
    faults::disarm_all();
}

#[test]
fn verify_fail_quarantines_and_falls_back_to_reference() {
    let _g = serialized();
    let cache = KernelCache::new();
    let m = model("BeelerReuter");
    let config = PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx2);

    faults::arm("verify-fail@9").unwrap();
    let rk = cache
        .get_or_compile_resilient(&m, config)
        .expect("reference fallback must succeed");
    assert_eq!(rk.tier, Tier::Reference);
    assert_eq!(rk.config, PipelineKind::Baseline);
    assert!(rk
        .incidents
        .iter()
        .any(|i| i.kind == IncidentKind::TierFallback));

    // The failure is a structured pipeline error with a verifier code.
    let quarantined = cache.quarantine();
    assert_eq!(quarantined.len(), 1);
    let q = &quarantined[0];
    assert_eq!(q.model, "BeelerReuter");
    match &q.error {
        CompileError::Pipeline(p) => {
            let v = p.verify_error().expect("verify failure");
            assert_eq!(v.code, limpet_ir::VerifyCode::Dominance, "{v}");
        }
        other => panic!("expected a pipeline error, got {other}"),
    }

    // Negative caching: the broken config fails once, later lookups hit
    // the quarantine entry without compiling again.
    let misses_before = cache.stats().misses;
    let rk2 = cache
        .get_or_compile_resilient(&m, config)
        .expect("still served from reference");
    assert_eq!(rk2.tier, Tier::Reference);
    assert_eq!(
        cache.stats().misses,
        misses_before,
        "quarantine hit must not recompile"
    );
    faults::disarm_all();
}

#[test]
fn cache_poison_is_recovered_and_recorded() {
    let _g = serialized();
    let cache = KernelCache::new();
    let m = model("HodgkinHuxley");
    faults::arm("cache-poison@0").unwrap();
    let rk = cache
        .get_or_compile_resilient(&m, PipelineKind::Baseline)
        .expect("poisoned lock must not end the run");
    assert_eq!(rk.tier, Tier::Optimized);
    let s = cache.stats();
    assert!(s.poison_recoveries >= 1, "{s:?}");
    assert!(cache
        .incidents()
        .iter()
        .any(|i| i.kind == IncidentKind::CachePoisonRecovered));
    faults::disarm_all();
}

#[test]
fn state_nan_descends_one_tier_under_fallback_policy() {
    let _g = serialized();
    let m = model("MitchellSchaeffer");
    faults::arm("state-nan@5").unwrap();
    let mut sim =
        Simulation::new_resilient(&m, PipelineKind::Baseline, &WL, HealthPolicy::FallbackRaw)
            .expect("healthy model compiles");
    assert_eq!(sim.tier(), Tier::Optimized);
    sim.run_guarded(30).expect("fallback absorbs the NaN");
    assert_eq!(sim.tier(), Tier::Reference, "one rung down after the NaN");
    let kinds: Vec<IncidentKind> = sim.incidents().iter().map(|i| i.kind).collect();
    assert!(kinds.contains(&IncidentKind::NonFiniteState), "{kinds:?}");
    assert!(kinds.contains(&IncidentKind::TierFallback), "{kinds:?}");
    let nan_incident = sim
        .incidents()
        .iter()
        .find(|i| i.kind == IncidentKind::NonFiniteState)
        .unwrap();
    assert_eq!(nan_incident.step, Some(faults::nan_step(5)));
    // Everything stayed finite from the outside.
    for cell in 0..WL.n_cells {
        assert!(sim.vm(cell).is_finite());
    }
    faults::disarm_all();
}

/// The disk-fault trio rides the same spec grammar as the in-process
/// faults, and one spec arming all three spreads them across consecutive
/// disk-cache loads (at most one fault fires per load) — so a single
/// `--inject disk-corrupt@3,disk-truncate@5,disk-stale-version@1` run
/// exercises the checksum, length, and version rungs of the integrity
/// ladder on three successive lookups, each degrading to a recompile
/// whose trajectory stays bit-identical to the original cold compile.
#[test]
fn combined_disk_fault_spec_spreads_over_consecutive_loads() {
    let _g = serialized();
    let dir = std::env::temp_dir().join(format!("limpet-fault-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = Arc::new(DiskCache::open(&dir).expect("temp cache dir"));
    let m = model("HodgkinHuxley");
    let config = PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512);
    const STEPS: usize = 100;

    let trajectory = |cache: &KernelCache| -> Vec<u64> {
        let entry = cache.get_or_compile(&m, config);
        let mut sim = Simulation::with_kernel(entry.kernel().clone(), entry.layout(), &WL);
        sim.run(STEPS);
        (0..WL.n_cells).map(|c| sim.vm(c).to_bits()).collect()
    };

    // Seed the durable tier with one valid entry.
    let seeder = KernelCache::new();
    seeder.set_disk_cache(Some(Arc::clone(&disk)));
    let reference = trajectory(&seeder);

    faults::arm("disk-corrupt@3,disk-truncate@5,disk-stale-version@1").unwrap();
    for round in 1..=3 {
        // A fresh process-level cache forces each round down to disk.
        let cache = KernelCache::new();
        cache.set_disk_cache(Some(Arc::clone(&disk)));
        let bits = trajectory(&cache);
        let s = cache.stats();
        assert_eq!(s.disk_rejects, 1, "round {round}: one fault, one rejection");
        assert_eq!(s.misses, 1, "round {round}: degraded to a recompile");
        assert_eq!(s.disk_writes, 1, "round {round}: re-stored (self-heal)");
        assert!(
            cache
                .incidents()
                .iter()
                .any(|i| i.kind == IncidentKind::DiskCacheRejected),
            "round {round}: rejection recorded"
        );
        assert_eq!(bits, reference, "round {round}: bit-identical trajectory");
    }

    // All three plans are spent: the fourth load is a clean disk hit.
    let cache = KernelCache::new();
    cache.set_disk_cache(Some(Arc::clone(&disk)));
    let bits = trajectory(&cache);
    let s = cache.stats();
    assert_eq!((s.disk_hits, s.disk_rejects, s.misses), (1, 0, 0), "{s:?}");
    assert_eq!(bits, reference);
    let _ = std::fs::remove_dir_all(&dir);
    faults::disarm_all();
}

/// The acceptance scenario: one fixed-seed spec arms all four in-process
/// fault kinds; a roster-style pass over the 3-model CI subset trips every one
/// of them, each leaving a recorded incident; the degradation chain runs
/// optimized → reference end to end; and the post-fallback trajectory is
/// bit-identical to the reference pipeline.
#[test]
fn full_spec_exercises_every_in_process_fault_deterministically() {
    let _g = serialized();
    const SUBSET: [&str; 3] = ["HodgkinHuxley", "BeelerReuter", "TenTusscherPanfilov"];
    const STEPS: usize = 40;

    let run_scenario = |name: &str| -> (Vec<IncidentKind>, Vec<u64>) {
        faults::disarm_all();
        faults::arm("parse-error@3,verify-fail@5,cache-poison@2,state-nan@9").unwrap();
        let mut seen = Vec::new();

        // 1. parse-error: the frontend shim reports a spanned diagnostic
        //    (and logs a frontend-error incident globally).
        let err = compile_source(name, &source(name)).expect_err("injected parse failure");
        assert_eq!(err.stage(), "parse");
        assert!(
            KernelCache::global()
                .incidents()
                .iter()
                .any(|i| i.kind == IncidentKind::FrontendError && i.model == name),
            "frontend failure must land in the global incident report"
        );
        seen.push(IncidentKind::FrontendError);

        // 2-3. verify-fail, cache-poison: the resilient lookup recovers the
        // poisoned lock, quarantines the corrupted vectorized build, and
        // falls back to the reference pipeline. A fresh cache isolates the
        // scenario.
        let m = model(name);
        let cache = KernelCache::new();
        let config = PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512);
        let rk = cache
            .get_or_compile_resilient(&m, config)
            .expect("chain ends on a working kernel");
        assert_eq!(rk.config, PipelineKind::Baseline, "reference pipeline");
        assert_eq!(rk.tier, Tier::Reference);
        assert!(cache.stats().poison_recoveries >= 1);
        assert_eq!(cache.stats().quarantined, 1);
        for i in cache.incidents() {
            seen.push(i.kind);
        }
        for i in &rk.incidents {
            seen.push(i.kind);
        }

        // 4. state-nan: a guarded run (Baseline config so every tier is
        // the same arithmetic) absorbs a mid-run NaN by descending tiers.
        let mut sim =
            Simulation::new_resilient(&m, PipelineKind::Baseline, &WL, HealthPolicy::FallbackRaw)
                .expect("healthy model compiles");
        sim.run_guarded(STEPS).expect("NaN absorbed");
        for i in sim.incidents() {
            seen.push(i.kind);
        }

        // Post-fallback trajectory must be bit-identical to the reference
        // pipeline run without any faults.
        let mut reference = Simulation::new(&m, PipelineKind::Baseline, &WL);
        reference.run(STEPS);
        let mut bits = Vec::new();
        for cell in 0..WL.n_cells {
            assert_eq!(
                sim.vm(cell).to_bits(),
                reference.vm(cell).to_bits(),
                "{name} cell {cell}: post-fallback Vm diverged from reference"
            );
            bits.push(sim.vm(cell).to_bits());
        }
        faults::disarm_all();
        (seen, bits)
    };

    for name in SUBSET {
        let (seen, bits) = run_scenario(name);
        for kind in [
            IncidentKind::FrontendError,
            IncidentKind::CachePoisonRecovered,
            IncidentKind::Quarantined,
            IncidentKind::TierFallback,
            IncidentKind::NonFiniteState,
        ] {
            assert!(seen.contains(&kind), "{name}: missing incident {kind}");
        }
        // Determinism: the identical spec reproduces the identical
        // incidents and the identical trajectory.
        let (seen2, bits2) = run_scenario(name);
        assert_eq!(seen, seen2, "{name}: incident sequence must reproduce");
        assert_eq!(bits, bits2, "{name}: trajectory must reproduce");
    }
}
