//! Roster-wide differential test for the native execution tier: for
//! every ionic model, a simulation promoted onto compiled C must
//! reproduce the bytecode tier's trajectory bit for bit — every state
//! variable and every external of every cell, after every tested step
//! count. The native tier is only a performance tier, never a numerics
//! tier.
//!
//! Skips (with a note) on hosts without a C toolchain — the promotion
//! path itself degrades to bytecode there, which `fault_injection.rs`
//! and the `harness::native` unit tests cover.

use limpet_harness::{KernelCache, PipelineKind, Simulation, Stimulus, Tier, Workload};
use limpet_models::ROSTER;

const CELLS: usize = 7;
const STEPS: usize = 120;

fn stim() -> Stimulus {
    Stimulus {
        period: 0.5,
        duration: 0.1,
        amplitude: 40.0,
    }
}

/// Full-state bit-identity, native vs. bytecode, across the roster.
///
/// The width-1 scalar pipeline is the only promotion-eligible config;
/// both twins run under a stimulus so the trajectories exercise the
/// models' upstroke dynamics, not just their resting fixed point.
#[test]
fn native_tier_is_bit_identical_across_roster() {
    if !limpet_harness::toolchain_available() {
        eprintln!("skipping: no C toolchain on this host");
        return;
    }
    let cache = KernelCache::global();
    let wl = Workload {
        n_cells: CELLS,
        steps: 0,
        dt: 0.01,
    };
    let mut promoted = 0usize;
    for entry in &ROSTER {
        let m = limpet_models::model(entry.name);
        let mut bytecode = Simulation::new(&m, PipelineKind::Baseline, &wl);
        let mut native = Simulation::new(&m, PipelineKind::Baseline, &wl);
        bytecode.set_stimulus(stim());
        native.set_stimulus(stim());
        native
            .promote_native_blocking(cache)
            .unwrap_or_else(|e| panic!("{}: native promotion failed: {e}", entry.name));
        assert_eq!(native.tier(), Tier::Native, "{}", entry.name);
        assert_eq!(bytecode.tier(), Tier::Optimized, "{}", entry.name);
        promoted += 1;
        // Compare at several horizons so a divergence that later cancels
        // (or saturates) cannot hide at the final step.
        let mut done = 0usize;
        for horizon in [1usize, STEPS / 2, STEPS] {
            bytecode.run(horizon - done);
            native.run(horizon - done);
            done = horizon;
            assert_eq!(
                bytecode.state_bits(),
                native.state_bits(),
                "{}: native trajectory diverged from bytecode at step {horizon}",
                entry.name
            );
        }
        assert!(
            (bytecode.time() - native.time()).abs() < f64::EPSILON,
            "{}: clocks diverged",
            entry.name
        );
    }
    assert_eq!(promoted, ROSTER.len(), "every roster model must promote");
}

/// The ineligible configs (vectorized, AoSoA) must refuse promotion and
/// keep running on bytecode rather than producing a wrong-layout native
/// kernel.
#[test]
fn vectorized_configs_never_promote() {
    let cache = KernelCache::global();
    let wl = Workload {
        n_cells: CELLS,
        steps: 0,
        dt: 0.01,
    };
    let m = limpet_models::model("AlievPanfilov");
    let mut sim = Simulation::new(
        &m,
        PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512),
        &wl,
    );
    let err = sim
        .promote_native_blocking(cache)
        .expect_err("vectorized config must be ineligible");
    assert!(err.contains("eligible"), "unexpected reason: {err}");
    assert_eq!(sim.tier(), Tier::Optimized);
    sim.run(4); // still runs fine on bytecode
}
