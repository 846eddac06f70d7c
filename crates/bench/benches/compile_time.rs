//! Compiler-stage bench (supplementary): how long each stage of the
//! limpetMLIR pipeline takes — frontend, lowering, optimization passes,
//! vectorization, bytecode emission, and LUT tabulation — on a small and a
//! large model.
//! The paper's flow runs at model-build time, so compile speed bounds the
//! edit-run loop of model developers.
//!
//! The `kernel_*` trio measures kernel *acquisition* through the
//! compilation service, one row per cache tier (they used to be
//! conflated into a single "warm" row): `kernel_cold_compile` is a full
//! compile (lowering + bytecode + LUT tabulation), `kernel_memory_hit`
//! is an in-process lookup that clones the `Arc`-shared kernel, and
//! `kernel_disk_hit` is a reload + integrity-check + re-verify of a
//! persisted on-disk entry — the first-lookup cost a warm second
//! process pays per kernel. Expect memory ≪ disk ≪ cold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use limpet_codegen::pipeline::{limpet_mlir, Layout, VectorIsa};
use limpet_codegen::{lower_model, CodegenOptions};
use limpet_harness::{model_info, DiskCache, KernelCache, PipelineKind};
use limpet_vm::Kernel;
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile_time");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for name in ["HodgkinHuxley", "OHara"] {
        let src = limpet_models::source(name);
        g.bench_with_input(BenchmarkId::new("frontend", name), &(), |b, ()| {
            b.iter(|| limpet_easyml::compile_model(name, &src).unwrap());
        });
        let model = limpet_models::model(name);
        g.bench_with_input(BenchmarkId::new("lowering", name), &(), |b, ()| {
            b.iter(|| lower_model(&model, &CodegenOptions::default()));
        });
        g.bench_with_input(BenchmarkId::new("full_pipeline", name), &(), |b, ()| {
            b.iter(|| limpet_mlir(&model, VectorIsa::Avx512, Layout::AoSoA { block: 8 }));
        });
        let module = limpet_mlir(&model, VectorIsa::Avx512, Layout::AoSoA { block: 8 }).module;
        let info = model_info(&model);
        g.bench_with_input(BenchmarkId::new("bytecode+luts", name), &(), |b, ()| {
            b.iter(|| Kernel::from_module(&module, &info).unwrap());
        });
        // The LUT half of the row above on its own: `eval_func` over every
        // table key, the layer that dominates a cold compile's CPU time.
        g.bench_with_input(BenchmarkId::new("lut_tabulate", name), &(), |b, ()| {
            b.iter(|| limpet_vm::tabulate_luts(&module, &info).unwrap());
        });

        // Kernel acquisition, one row per cache tier: cold compile
        // (per-iteration fresh cache, no disk), memory hit (populated
        // in-process map), disk hit (per-iteration fresh process-cache
        // backed by a pre-populated disk entry).
        let config = PipelineKind::LimpetMlir(VectorIsa::Avx512);
        g.bench_with_input(
            BenchmarkId::new("kernel_cold_compile", name),
            &(),
            |b, ()| {
                b.iter(|| {
                    let cache = KernelCache::new();
                    cache.get_or_compile(&model, config)
                });
            },
        );
        let warm_cache = KernelCache::new();
        warm_cache.get_or_compile(&model, config);
        g.bench_with_input(BenchmarkId::new("kernel_memory_hit", name), &(), |b, ()| {
            b.iter(|| warm_cache.get_or_compile(&model, config));
        });
        let disk_dir =
            std::env::temp_dir().join(format!("limpet-bench-disk-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&disk_dir);
        let disk = Arc::new(DiskCache::open(&disk_dir).expect("temp cache dir"));
        {
            // Populate the disk entry once (a cold compile + store).
            let seeder = KernelCache::new();
            seeder.set_disk_cache(Some(Arc::clone(&disk)));
            seeder.get_or_compile(&model, config);
        }
        g.bench_with_input(BenchmarkId::new("kernel_disk_hit", name), &(), |b, ()| {
            b.iter(|| {
                // A fresh in-process cache each iteration forces every
                // lookup down to the disk tier, as a new process would.
                let cache = KernelCache::new();
                cache.set_disk_cache(Some(Arc::clone(&disk)));
                cache.get_or_compile(&model, config)
            });
        });
        let _ = std::fs::remove_dir_all(&disk_dir);
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
