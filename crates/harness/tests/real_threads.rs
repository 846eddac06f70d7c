//! Real-thread differential gate: the persistent worker pool must be
//! bit-identical to the single-thread driver — full state vector of every
//! cell, not just a probe voltage — for every roster model at T ∈
//! {2, 4, 8}, across uneven shard shapes, and while the fault-injection
//! framework is degrading kernels underneath it.
//!
//! A fault plan is current on the thread that armed it and on the shard
//! workers that thread spawns, so the tests run in parallel. The injected
//! scenario uses a (model, config) pair no other test in this binary
//! touches, because its quarantine entry lives in the process-global
//! kernel cache.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{
    faults, HealthPolicy, KernelCache, PipelineKind, ShardedSimulation, Simulation, Workload,
};
use limpet_models::{model, ROSTER};

/// Runs `steps` on a fresh single-thread driver and on a fresh pool of
/// `threads` workers, returning both full-state bit vectors.
fn run_pair(
    name: &str,
    config: PipelineKind,
    n_cells: usize,
    threads: usize,
    steps: usize,
) -> (Vec<u64>, Vec<u64>) {
    let m = model(name);
    let wl = Workload {
        n_cells,
        steps: 0,
        dt: 0.01,
    };
    let mut single = Simulation::new(&m, config, &wl);
    for _ in 0..steps {
        single.step();
    }
    let mut sharded = ShardedSimulation::new(&m, config, &wl, threads);
    sharded.run_threaded(steps);
    (single.state_bits(), sharded.state_bits())
}

/// The headline gate: every roster model, T ∈ {2, 4, 8}, full state
/// vector bit-identical between the pool and the single-thread driver.
#[test]
fn roster_wide_pool_matches_single_thread_bit_exactly() {
    let config = PipelineKind::LimpetMlir(VectorIsa::Avx512);
    let wl = Workload {
        n_cells: 24,
        steps: 0,
        dt: 0.01,
    };
    for e in &ROSTER {
        let m = model(e.name);
        let mut single = Simulation::new(&m, config, &wl);
        for _ in 0..25 {
            single.step();
        }
        let reference = single.state_bits();
        for threads in [2usize, 4, 8] {
            let mut sharded = ShardedSimulation::new(&m, config, &wl, threads);
            sharded.run_threaded(25);
            assert_eq!(
                reference,
                sharded.state_bits(),
                "{} diverged at T={threads} (full state vector)",
                e.name
            );
        }
    }
}

/// Uneven shapes: cell counts that don't divide the thread count, fewer
/// cells than threads, and every vector width (chunk padding differs per
/// width, so the shard boundaries land differently each time).
#[test]
fn uneven_shard_shapes_stay_bit_identical() {
    for config in [
        PipelineKind::Baseline,
        PipelineKind::LimpetMlir(VectorIsa::Sse),
        PipelineKind::LimpetMlir(VectorIsa::Avx2),
        PipelineKind::LimpetMlir(VectorIsa::Avx512),
    ] {
        for (n_cells, threads) in [(61, 4), (13, 8), (7, 3), (3, 8), (1, 4)] {
            let (single, sharded) = run_pair("BeelerReuter", config, n_cells, threads, 30);
            assert_eq!(
                single,
                sharded,
                "{} cells / {} threads diverged under {}",
                n_cells,
                threads,
                config.label()
            );
        }
    }
}

/// Under an injected verifier fault, every shard must degrade through the
/// same quarantine entry (the resilient lookup is deterministic per
/// (model, config)), so the pool still matches a resilient single-thread
/// run bit for bit. Courtemanche + AVX2 is used by no other test in this
/// binary: the quarantine it leaves in the global cache cannot leak into
/// the clean differential tests, which now run beside it, and a clean
/// test compiling the key first would leave the fault nothing to fire on.
#[test]
fn pool_matches_single_under_injected_verify_fault() {
    let m = model("Courtemanche");
    let config = PipelineKind::LimpetMlir(VectorIsa::Avx2);
    let wl = Workload {
        n_cells: 22,
        steps: 0,
        dt: 0.01,
    };

    let _plan = faults::arm("verify-fail@9").unwrap();
    let mut sharded = ShardedSimulation::new(&m, config, &wl, 4);
    sharded.run_threaded(25);
    assert!(
        KernelCache::global()
            .quarantine()
            .iter()
            .any(|q| q.model == "Courtemanche"),
        "injected fault must quarantine the kernel"
    );

    let mut single = Simulation::new_resilient(&m, config, &wl, HealthPolicy::Abort)
        .expect("reference fallback must succeed");
    for _ in 0..25 {
        single.step();
    }
    assert_eq!(
        single.state_bits(),
        sharded.state_bits(),
        "fault-degraded pool diverged from resilient single-thread driver"
    );
}

/// Pool reuse across thread counts: the same workload re-run on pools of
/// every size lands on the same bits (shard count is not observable).
#[test]
fn every_pool_size_produces_identical_bits() {
    let m = model("HodgkinHuxley");
    let wl = Workload {
        n_cells: 24,
        steps: 0,
        dt: 0.01,
    };
    let config = PipelineKind::LimpetMlir(VectorIsa::Avx512);
    let reference = {
        let mut sharded = ShardedSimulation::new(&m, config, &wl, 2);
        sharded.run_threaded(40);
        sharded.state_bits()
    };
    for threads in [3usize, 4, 5, 8] {
        let mut sharded = ShardedSimulation::new(&m, config, &wl, threads);
        sharded.run_threaded(40);
        assert_eq!(
            reference,
            sharded.state_bits(),
            "T={threads} disagrees with T=2"
        );
    }
}
