//! The kernel cache keeps one copy of each model's lookup tables, with or
//! without a disk tier: every entry that enters the map reads a table set
//! a resident entry of its model already reads when the two are equal bit
//! for bit, and registers its own otherwise.
//!
//! * The roster under `baseline` and `limpetMLIR-AVX-512`, precompiled on
//!   two threads into a cache with no disk tier, holds one set per model —
//!   half the bytes its kernels tabulate — whichever thread finishes a
//!   model's second configuration first.
//! * A configuration that tabulates other tables (the spline's grid) keeps
//!   its own; those that tabulate the baseline's read the baseline's.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{KernelCache, PipelineKind};
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
