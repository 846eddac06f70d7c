//! The kernel cache keeps one copy of each model's lookup tables, with or
//! without a disk tier: every entry that enters the map reads a table set
//! a resident entry of its model already reads when the two are equal bit
//! for bit, and registers its own otherwise.
//!
//! * The roster under `baseline` and `limpetMLIR-AVX-512`, precompiled on
//!   two threads into a cache with no disk tier, holds one set per model —
//!   half the bytes its kernels tabulate — whichever thread finishes a
//!   model's second configuration first.
//!   Its entries hold no IR module until one is asked for; then each
//!   builds the module `module_fingerprints.csv` pins, and the raw sibling
//!   compiled from it steps to the optimized kernel's bits.
//! * A configuration that tabulates other tables (the spline's grid) keeps
//!   its own; those that tabulate the baseline's read the baseline's.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{fnv1a, KernelCache, PipelineKind, Simulation, Workload};
use limpet_models::{model, ROSTER};

const CONFIGS: [PipelineKind; 2] = [
    PipelineKind::Baseline,
    PipelineKind::LimpetMlir(VectorIsa::Avx512),
];

/// Bytes of the roster's tables as the kernels of [`CONFIGS`] tabulate
/// them, summed per kernel (`vm.lut_bytes` of `compile_roster`).
const ROSTER_LUT_BYTES: u64 = 71_158_784;

#[test]
fn a_diskless_cache_holds_one_table_set_per_roster_model() {
    let cache = KernelCache::new();
    let models: Vec<_> = ROSTER.iter().map(|entry| model(entry.name)).collect();
    assert_eq!(cache.precompile(&models, &CONFIGS, 2), 2 * ROSTER.len());
    let mut per_kernel = 0;
    for m in &models {
        let [base, avx] = CONFIGS.map(|config| cache.get_or_compile(m, config));
        assert!(base.kernel().shares_luts(avx.kernel()), "{}", m.name);
        per_kernel += (base.kernel().lut_bytes() + avx.kernel().lut_bytes()) as u64;
    }
    assert_eq!(per_kernel, ROSTER_LUT_BYTES);
    let s = cache.stats();
    assert_eq!(
        (s.table_sets, s.table_bytes),
        (ROSTER.len(), ROSTER_LUT_BYTES / 2)
    );
    assert!(cache.disk_cache().is_none());

    // What `module_fingerprints.csv` pins in its final column, per model and
    // configuration label.
    let pinned: std::collections::HashMap<(&str, &str), &str> =
        include_str!("module_fingerprints.csv")
            .lines()
            .skip(1)
            .map(|row| {
                let cols: Vec<&str> = row.split(',').collect();
                ((cols[0], cols[1]), cols[3])
            })
            .collect();
    let entries: Vec<_> = models
        .iter()
        .flat_map(|m| CONFIGS.map(|config| (m, config, cache.get_or_compile(m, config))))
        .collect();
    for (m, config, entry) in &entries {
        assert!(!entry.module_built(), "{} {}", m.name, config.label());
    }
    let wl = Workload {
        n_cells: 8,
        steps: 0,
        dt: 0.01,
    };
    let bits = |kernel: &limpet_vm::Kernel, layout| {
        let mut sim = Simulation::with_kernel(kernel.clone(), layout, &wl);
        sim.run(20);
        (0..wl.n_cells)
            .map(|cell| sim.vm(cell).to_bits())
            .collect::<Vec<_>>()
    };
    for (m, config, entry) in &entries {
        let what = format!("{} {}", m.name, config.label());
        let printed = limpet_ir::print_module(entry.module());
        let fnv = format!("{:016x}", fnv1a(printed.as_bytes()));
        assert_eq!(
            pinned[&(m.name.as_str(), config.label().as_str())],
            fnv,
            "{what}"
        );
        assert_eq!(
            bits(entry.raw_kernel(), entry.layout()),
            bits(entry.kernel(), entry.layout()),
            "{what}"
        );
    }
    drop(entries);

    cache.clear();
    let s = cache.stats();
    assert_eq!((s.entries, s.table_sets, s.table_bytes), (0, 0, 0));
}

#[test]
fn only_configurations_with_equal_tables_share_them() {
    let cache = KernelCache::new();
    let m = model("HodgkinHuxley");
    let base = cache.get_or_compile(&m, PipelineKind::Baseline);
    assert!(!base.kernel().luts().is_empty(), "the model tabulates");
    for config in [
        PipelineKind::LimpetMlirAos(VectorIsa::Avx512),
        PipelineKind::CompilerSimd(VectorIsa::Avx512),
    ] {
        let entry = cache.get_or_compile(&m, config);
        assert!(
            entry.kernel().shares_luts(base.kernel()),
            "{}",
            config.label()
        );
    }
    let spline = cache.get_or_compile(&m, PipelineKind::LimpetMlirSpline(VectorIsa::Avx512));
    assert!(!spline.kernel().luts().is_empty());
    assert!(
        !spline.kernel().shares_luts(base.kernel()),
        "the spline tabulates on another grid"
    );
    let s = cache.stats();
    assert_eq!((s.entries, s.table_sets), (4, 2));
    assert_eq!(
        s.table_bytes,
        (base.kernel().lut_bytes() + spline.kernel().lut_bytes()) as u64
    );

    // A bypassed cache stores nothing, so it shares nothing.
    let bypassed = KernelCache::new();
    bypassed.set_enabled(false);
    let [a, b] = [PipelineKind::Baseline; 2].map(|config| bypassed.get_or_compile(&m, config));
    assert!(!a.kernel().shares_luts(b.kernel()));
    assert_eq!(bypassed.stats().table_sets, 0);
}
