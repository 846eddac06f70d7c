//! Native promotion as the kernel cache governs it: with the process-wide
//! cache's promotion bit on, `Simulation::new` and `new_resilient` promote
//! an eligible (width-1 AoS) simulation once, at construction; a vector
//! configuration and a simulation built from a bare kernel stay on
//! bytecode. Every one of them computes the bits of its bytecode twin.
//!
//! One test in a binary of its own: the bit belongs to the process-wide
//! cache, and no other suite should run with it on.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{
    HealthPolicy, IncidentKind, KernelCache, PipelineKind, Simulation, Tier, Workload,
};

#[test]
fn construction_promotes_eligible_simulations_and_nothing_else() {
    if !limpet_harness::toolchain_available() {
        eprintln!("skipping: no C toolchain on this host");
        return;
    }
    let m = limpet_models::model("BeelerReuter");
    let wl = Workload {
        n_cells: 13,
        steps: 0,
        dt: 0.01,
    };
    let cache = KernelCache::global();
    let bytecode = |config| {
        let entry = cache.get_or_compile(&m, config);
        Simulation::with_kernel(entry.kernel().clone(), entry.layout(), &wl)
    };
    let baseline = PipelineKind::Baseline;
    let avx512 = PipelineKind::LimpetMlir(VectorIsa::Avx512);

    limpet_harness::set_promotion(true);
    assert!(cache.native_promotion());
    let resilient = Simulation::new_resilient(&m, baseline, &wl, HealthPolicy::FallbackRaw)
        .expect("roster model compiles");
    let promoted: Vec<_> = resilient
        .incidents()
        .iter()
        .filter(|i| i.kind == IncidentKind::NativePromoted)
        .collect();
    assert_eq!(promoted.len(), 1, "{:?}", resilient.incidents());
    assert_eq!(promoted[0].step, Some(0), "promoted before the first step");
    let scalar = Simulation::new(&m, baseline, &wl);
    let vector = Simulation::new(&m, avx512, &wl);
    let bare = bytecode(baseline);
    let cases = [
        ("new, baseline", scalar, Tier::Native, baseline),
        ("new_resilient, baseline", resilient, Tier::Native, baseline),
        ("new, avx512", vector, Tier::Optimized, avx512),
        ("with_kernel, baseline", bare, Tier::Optimized, baseline),
    ];
    for (what, mut sim, tier, config) in cases {
        assert_eq!(sim.tier(), tier, "{what}");
        let mut twin = bytecode(config);
        assert_eq!(
            twin.tier(),
            Tier::Optimized,
            "{what}: the twin runs bytecode"
        );
        // BeelerReuter's first unperturbed steps are bit-equal at W=1 and
        // W=8; a perturbed cell makes the trajectories the configuration's own.
        for s in [&mut sim, &mut twin] {
            s.perturb_vm(3, 25.0);
            s.run(120);
        }
        assert_eq!(sim.state_bits(), twin.state_bits(), "{what}");
    }
    assert_eq!(cache.stats().native_quarantined, 0);
}
