//! Step-loop layer probes of the traced run: what one step executes
//! (exact counts from `vm::Profile`), what it costs per instruction, and
//! ablation ratios that isolate one mechanism each — bytecode optimizer,
//! LUTs, data layout, working-set size, health guard, threads, native
//! tier. Ratios are geomeans over a fixed nine-model subset (three per
//! size class) so the traced run stays short; counts and per-step costs
//! cover the whole roster.

use crate::golden;
use crate::host::nproc;
use crate::report::Outcome;
use crate::stats::median;
use crate::workloads::{
    block_steps, cells, perturb, Ctx, RosterModel, CONFIGS, PAPER_CELLS, W1, W8,
};
use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{
    geomean, HealthPolicy, KernelCache, PipelineKind, ShardedSimulation, Simulation,
};
use limpet_rng::SmallRng;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-model median seconds per step of the two stages of a step, per
/// configuration, from the stage-by-stage rounds.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    /// `Simulation::step_range` (the vm compute stage).
    pub compute: [Vec<f64>; 2],
    /// `Simulation::update_vm` (the membrane update).
    pub update: [Vec<f64>; 2],
}

/// Models the ablation ratios run on: three per size class.
pub const ABLATION_MODELS: [&str; 9] = [
    "Plonsey",
    "MitchellSchaeffer",
    "ISAC_Hu",
    "HodgkinHuxley",
    "LuoRudy91",
    "Courtemanche",
    "TenTusscherPanfilov",
    "GrandiPanditVoigt",
    "OHara",
];

/// Median seconds per step over three blocks of `steps` steps.
fn secs_per_step(cx: &mut Ctx, name: &'static str, steps: usize, mut block: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| cx.timed(name, 0, &mut block).1 / steps as f64)
        .collect();
    median(&samples)
}

fn timed_sim(
    cx: &mut Ctx,
    name: &'static str,
    mut sim: Simulation,
    offsets: &[f64],
    steps: usize,
) -> f64 {
    perturb(&mut sim, offsets);
    secs_per_step(cx, name, steps, || sim.run(steps))
}

/// Fills the `vm.*`, `sim.*`, `threads.*` and `native.*` metrics.
pub fn step_loop(
    cx: &mut Ctx,
    out: &mut Outcome,
    roster: &[RosterModel],
    offsets: &[f64],
    stages: &[StageTimes],
) {
    // What one 8192-cell step of the whole roster executes. Two fresh
    // simulations per model: the counts must repeat exactly.
    let mut profiles = [[limpet_vm::Profile::default(); 2]; 2];
    for r in roster {
        for (c, config) in CONFIGS.into_iter().enumerate() {
            for rep in &mut profiles[c] {
                let mut sim = Simulation::new(&r.model, config, &cells(PAPER_CELLS));
                perturb(&mut sim, offsets);
                let p = cx.tr.time("vm.step_profiled", 0, || sim.step_profiled()).0;
                rep.add(&p);
            }
        }
    }
    let [w1, w8] = profiles;
    out.exact("vm.instrs_per_step_w1", &w1.map(|p| p.instrs));
    out.exact("vm.instrs_per_step_w8", &w8.map(|p| p.instrs));
    out.exact(
        "vm.bytes_per_step",
        &w8.map(|p| p.bytes_read + p.bytes_written),
    );
    out.exact("vm.flops_per_step", &w8.map(|p| p.flops));
    out.exact("vm.math_calls_per_step", &w8.map(|p| p.math_calls));
    out.layer("vm.flop_per_byte", w8[0].intensity(), 1);

    let total = |pick: fn(&StageTimes) -> &[Vec<f64>; 2], c: usize| -> f64 {
        stages.iter().map(|s| median(&pick(s)[c])).sum()
    };
    let n = stages.first().map_or(0, |s| s.compute[1].len());
    out.layer(
        "vm.ns_per_instr_w1",
        total(|s| &s.compute, 0) * 1e9 / w1[0].instrs as f64,
        n,
    );
    out.layer(
        "vm.ns_per_instr_w8",
        total(|s| &s.compute, 1) * 1e9 / w8[0].instrs as f64,
        n,
    );
    out.layer("sim.compute_us_per_step", total(|s| &s.compute, 1) * 1e6, n);
    out.layer(
        "sim.update_vm_us_per_step",
        total(|s| &s.update, 1) * 1e6,
        n,
    );

    // Ablations, each against the same W=8 AoSoA LUT kernel at 8192 cells.
    // Variant kernels live in a private cache so the workload's own
    // cache counters stay untouched.
    let subset: Vec<&RosterModel> = roster
        .iter()
        .filter(|r| ABLATION_MODELS.contains(&r.entry.name))
        .collect();
    let variants = KernelCache::new();
    let isa = VectorIsa::Avx512;
    let mut ratios: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut ratio = |name, r: f64| ratios.entry(name).or_default().push(r);
    for r in &subset {
        let steps = block_steps(r.entry.class, 2);
        let wl = cells(PAPER_CELLS);
        let entry = KernelCache::global().get_or_compile(&r.model, W8);
        let with = |kernel: &limpet_vm::Kernel, layout, n_cells| {
            Simulation::with_kernel(kernel.clone(), layout, &cells(n_cells))
        };
        let base = timed_sim(
            cx,
            "vm.ablation",
            with(entry.kernel(), entry.layout(), PAPER_CELLS),
            offsets,
            steps,
        );
        let raw = timed_sim(
            cx,
            "vm.ablation",
            with(entry.raw_kernel(), entry.layout(), PAPER_CELLS),
            offsets,
            steps,
        );
        ratio("vm.opt_over_raw", base / raw);
        for (name, config) in [
            ("vm.nolut_over_lut", PipelineKind::LimpetMlirNoLut(isa)),
            ("vm.aos_over_aosoa", PipelineKind::LimpetMlirAos(isa)),
        ] {
            let e = variants.get_or_compile(&r.model, config);
            let t = timed_sim(
                cx,
                "vm.ablation",
                with(e.kernel(), e.layout(), PAPER_CELLS),
                offsets,
                steps,
            );
            ratio(name, t / base);
        }
        // Working set against the caches: cost per cell-step at 1/16 and
        // 16x the paper's population.
        for (name, n_cells) in [
            ("vm.cells512_over_cells8192", 512),
            ("vm.cells131072_over_cells8192", 131_072),
        ] {
            let mut sim = with(entry.kernel(), entry.layout(), n_cells);
            for cell in 0..n_cells {
                sim.perturb_vm(cell, offsets[cell % offsets.len()]);
            }
            let reps = (steps * PAPER_CELLS / n_cells).max(1);
            let t = secs_per_step(cx, "vm.ablation", reps, || sim.run(reps));
            ratio(name, (t / n_cells as f64) / (base / PAPER_CELLS as f64));
        }
        // The health guard as the daemon runs it (rollback copy + finite
        // scan every step) against the plain step.
        let mut guarded = Simulation::new_resilient(&r.model, W8, &wl, HealthPolicy::FallbackRaw)
            .expect("roster models compile");
        perturb(&mut guarded, offsets);
        let g = secs_per_step(cx, "sim.run_guarded", steps, || {
            guarded.run_guarded(steps).expect("healthy model")
        });
        ratio("sim.guarded_over_plain", g / base);
        // Real threads: T = nproc shards against one.
        let mut threaded = |threads| {
            let mut sharded = ShardedSimulation::new(&r.model, W8, &wl, threads);
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    let open = cx.tr.enter("threads.run_threaded", 0);
                    let secs = sharded.run_threaded(steps);
                    cx.tr.exit(open);
                    cx.pace.scale(secs)
                })
                .collect();
            median(&samples)
        };
        let (t1, tn) = (threaded(1), threaded(nproc()));
        ratio("threads.t2_speedup", t1 / tn);
    }
    for (name, rs) in ratios {
        out.layer(name, geomean(rs.iter().copied()), rs.len());
    }
    let (bw, _) = cx.tr.time(
        "threads.stream",
        0,
        limpet_harness::measure_stream_bandwidth,
    );
    out.layer("threads.stream_gbps", bw / 1e9, 1);

    micro(cx, out, roster);
    native(cx, out, roster, offsets);
}

/// The two inner kernels every step leans on, in isolation: `vmath`'s
/// exp over 8-lane blocks, and LUT row interpolation over 8-key blocks.
fn micro(cx: &mut Ctx, out: &mut Outcome, roster: &[RosterModel]) {
    const BLOCKS: usize = 1 << 15;
    let mut rng = SmallRng::seed_from_u64(cx.seed ^ 0x6d69_6372);
    let inputs: Vec<f64> = (0..8 * BLOCKS)
        .map(|_| rng.gen_range(-20.0..20.0))
        .collect();
    let mut buf = inputs.clone();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            buf.copy_from_slice(&inputs);
            let ((), secs) = cx.timed("vm.vmath_exp", 0, || {
                for block in buf.chunks_exact_mut(8) {
                    limpet_vm::vmath::exp_block(block);
                }
            });
            black_box(&buf);
            secs * 1e9 / inputs.len() as f64
        })
        .collect();
    out.layer("vm.vmath_exp_ns_per_lane", median(&samples), samples.len());

    // The widest table of the roster's last (largest) LUT model.
    let Some(kernel) = roster
        .iter()
        .rev()
        .map(|r| KernelCache::global().get_or_compile(&r.model, W8))
        .find(|e| !e.kernel().luts().is_empty())
    else {
        return;
    };
    let lut = &kernel.kernel().luts()[0];
    let keys: Vec<f64> = (0..8 * 4096)
        .map(|_| rng.gen_range(lut.lo()..lut.hi()))
        .collect();
    let mut sink = [0.0; 8];
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let ((), secs) = cx.timed("vm.lut_interp", 0, || {
                for block in keys.chunks_exact(8) {
                    for col in 0..lut.cols() {
                        lut.interp_block(block, col, &mut sink);
                        black_box(&sink);
                    }
                }
            });
            secs * 1e9 / (keys.len() * lut.cols()) as f64
        })
        .collect();
    out.layer("vm.lut_interp_ns_per_key", median(&samples), samples.len());
}

/// The native tier on one model per class: `cc` compile time, and native
/// over bytecode at W=1. Best effort — a host without `cc`, or one too
/// loaded to finish the compile in its budget, reports 0 rather than
/// failing the run (the bit-identity of what *did* build is still
/// checked).
fn native(cx: &mut Ctx, out: &mut Outcome, roster: &[RosterModel], offsets: &[f64]) {
    if !limpet_harness::toolchain_available() {
        eprintln!("limpet-perf: no C toolchain; native.* reported as 0");
        return;
    }
    let cache = KernelCache::new();
    let (mut compile_ms, mut speedups) = (Vec::new(), Vec::new());
    for r in roster
        .iter()
        .filter(|r| crate::workloads::QUICK_MODELS.contains(&r.entry.name))
    {
        let steps = block_steps(r.entry.class, 2);
        let entry = cache.get_or_compile(&r.model, W1);
        let build =
            || Simulation::with_kernel(entry.kernel().clone(), entry.layout(), &cells(PAPER_CELLS));
        let mut bytecode = build();
        perturb(&mut bytecode, offsets);
        let tb = secs_per_step(cx, "vm.ablation", steps, || bytecode.run(steps));
        let mut promoted = build();
        perturb(&mut promoted, offsets);
        let (built, secs) = cx.timed("native.cc_compile", 0, || {
            promoted.promote_native_blocking(&cache)
        });
        if let Err(e) = built {
            eprintln!("limpet-perf: native build of {} skipped: {e}", r.entry.name);
            continue;
        }
        compile_ms.push(secs * 1e3);
        let tn = secs_per_step(cx, "native.run", steps, || promoted.run(steps));
        speedups.push(tb / tn);
        out.check_eq(
            || format!("{} native vs bytecode final state", r.entry.name),
            golden::state_digest(&promoted),
            golden::state_digest(&bytecode),
        );
    }
    if !compile_ms.is_empty() {
        out.layer(
            "native.cc_compile_ms",
            median(&compile_ms),
            compile_ms.len(),
        );
        out.layer(
            "native.speedup_w1",
            geomean(speedups.iter().copied()),
            speedups.len(),
        );
    }
}

/// Share of the timed phase's wall time spent in spans of layers the
/// workload exists to bypass; above 1% the workload no longer isolates
/// what it claims to and the run fails.
pub fn bypass_share(cx: &Ctx, out: &mut Outcome, layers: &[&str], from_ns: u64, to_ns: u64) {
    // `+ 0.0`: an empty f64 sum is -0.0.
    let other = cx.tr.self_time_of_layers(layers, from_ns, to_ns) + 0.0;
    let share = other / ((to_ns - from_ns) as f64 * 1e-9);
    out.layer("trace.other_layers_share", share, 1);
    out.attempt((share > 0.01).then(|| {
        format!(
            "bypassed layers {layers:?} took {:.2}% of the timed phase (limit 1%)",
            share * 100.0
        )
    }));
}
