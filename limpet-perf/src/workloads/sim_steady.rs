//! `sim_steady` — the paper's headline (Fig. 2): every roster model at
//! 8192 cells on one thread, kernels precompiled in set-up, a fixed
//! per-class block of steps under `baseline` (W=1, AoS) beside
//! `limpetMLIR-AVX-512` (W=8, AoSoA), interleaved round after round.
//!
//! The vm step loop does nearly all the work and the compile layers none.
//! Running W=1 beside W=8 drives the same interpreter two ways, so a
//! dispatch change that helps one and costs the other shows.

use super::{
    block_steps, cells, golden_check, perturb, repeat_setup, roster, vm_offsets, Ctx, RosterModel,
    CONFIGS, PAPER_CELLS,
};
use crate::calib;
use crate::golden;
use crate::host::nproc;
use crate::probes::{self, StageTimes};
use crate::report::Outcome;
use crate::stats::median;
use limpet_harness::{geomean, KernelCache, Simulation};
use serve::Json;
use std::time::Instant;

/// Steps per block = class base × this (see [`block_steps`]); the issue's
/// 40/10/5 blocks are scale 5, sized for 30 s runs.
const BLOCK_SCALE: usize = 2;
const MIN_ROUNDS: usize = 3;
const SPAN_RUN: [&str; 2] = ["sim.run_w1", "sim.run_w8"];
const SPAN_COMPUTE: [&str; 2] = ["vm.step_range_w1", "vm.step_range_w8"];

/// Per-model seconds per step at reference speed, one sample per round,
/// per configuration.
type StepTimes = Vec<[Vec<f64>; 2]>;

fn set_up(cx: &mut Ctx, out: &mut Outcome, roster: &[RosterModel]) {
    let golden = golden::committed();
    let models: Vec<_> = roster.iter().map(|r| r.model.clone()).collect();
    let cache = KernelCache::global();
    cache.clear();
    cx.tr.time("cache.precompile", 0, || {
        cache.precompile(&models, &CONFIGS, nproc())
    });
    for r in roster {
        for config in CONFIGS {
            let sim = Simulation::new(&r.model, config, &cells(golden::CELLS));
            golden_check(out, &golden, r.entry.name, config, "global cache", sim);
        }
    }
}

/// Cells re-run in isolation by the placement check: every 128th.
const SAMPLE_STRIDE: usize = PAPER_CELLS / golden::CELLS;

/// Cells are independent, so a cell's trajectory may not depend on where
/// in the population it sits. Re-runs every 128th cell of the big run in
/// a 64-cell simulation, in reverse order (so each lands in a different
/// lane and block), and compares full state bit for bit — the check that
/// sees a lane mix-up or a block-boundary bug beyond the golden run's 64
/// cells.
fn placement_check(
    out: &mut Outcome,
    r: &RosterModel,
    c: usize,
    offsets: &[f64],
    steps: usize,
    big: &[u64],
) {
    let mut small = Simulation::new(&r.model, CONFIGS[c], &cells(golden::CELLS));
    let source = |j: usize| (golden::CELLS - 1 - j) * SAMPLE_STRIDE;
    for j in 0..golden::CELLS {
        small.perturb_vm(j, offsets[source(j)]);
    }
    small.run(steps);
    let bits = small.state_bits();
    let width = bits.len() / golden::CELLS;
    let same =
        (0..golden::CELLS).all(|j| bits[j * width..][..width] == big[source(j) * width..][..width]);
    out.attempt((!same).then(|| {
        format!(
            "{} {}: a cell's state depends on its position in the population",
            r.entry.name,
            CONFIGS[c].label()
        )
    }));
}

/// One round: every model, both configurations (order alternating so
/// neither always runs on the other's warm caches), each from the same
/// seeded initial state, so every round must reproduce the first one's
/// digest. With `stages`, each step is taken stage by stage through the
/// public functions the threaded driver uses, instead of
/// `Simulation::run`.
#[allow(clippy::too_many_arguments)]
fn round(
    cx: &mut Ctx,
    out: &mut Outcome,
    roster: &[RosterModel],
    offsets: &[f64],
    round: usize,
    times: &mut StepTimes,
    wall: &mut StepTimes,
    first: &mut [[Option<u64>; 2]],
    mut stages: Option<&mut [StageTimes]>,
) {
    for (i, r) in roster.iter().enumerate() {
        let steps = block_steps(r.entry.class, BLOCK_SCALE);
        let order = if (round + i).is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for c in order {
            let op = cx
                .tr
                .op(&format!("{}×{}", r.entry.name, CONFIGS[c].label()));
            // `Simulation::new`, with its cache lookup visible as a span.
            let (entry, _) = cx.tr.time("cache.lookup", op, || {
                KernelCache::global().get_or_compile(&r.model, CONFIGS[c])
            });
            let mut sim = Simulation::with_kernel(
                entry.kernel().clone(),
                entry.layout(),
                &cells(PAPER_CELLS),
            );
            perturb(&mut sim, offsets);
            match stages.as_deref_mut() {
                Some(stages) => {
                    let n = sim.padded_cells();
                    let (mut compute, mut update) = (0.0, 0.0);
                    for _ in 0..steps {
                        compute += cx.tr.time(SPAN_COMPUTE[c], op, || sim.step_range(0, n)).1;
                        update += cx.tr.time("sim.update_vm", op, || sim.update_vm()).1;
                        sim.advance_time();
                    }
                    // One reference sample paces the whole block.
                    let block = cx.pace.scale(compute + update);
                    let per_step = block / (compute + update) / steps as f64;
                    stages[i].compute[c].push(compute * per_step);
                    stages[i].update[c].push(update * per_step);
                    times[i][c].push(block / steps as f64);
                    wall[i][c].push((compute + update) / steps as f64);
                }
                None => {
                    let ((), secs) = cx.tr.time(SPAN_RUN[c], op, || sim.run(steps));
                    times[i][c].push(cx.pace.scale(secs) / steps as f64);
                    wall[i][c].push(secs / steps as f64);
                }
            }
            let bits = sim.state_bits();
            let digest = golden::fnv1a(bits.iter().copied());
            match first[i][c] {
                None => {
                    out.attempt(None);
                    first[i][c] = Some(digest);
                    placement_check(out, r, c, offsets, steps, &bits);
                }
                Some(want) => out.check_eq(
                    || {
                        format!(
                            "{} {} round {round} vs first run",
                            r.entry.name,
                            CONFIGS[c].label()
                        )
                    },
                    digest,
                    want,
                ),
            }
        }
    }
}

fn medians(times: &StepTimes, c: usize) -> Vec<f64> {
    times.iter().map(|t| median(&t[c])).collect()
}

/// One roster step under both configurations, in seconds.
fn roster_step_secs(times: &StepTimes) -> f64 {
    (0..2).flat_map(|c| medians(times, c)).sum()
}

/// Runs the workload.
pub fn run(cx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let roster = roster(cx.quick);
    repeat_setup(cx, &mut out, |cx, out| {
        calib::sampled(|| set_up(cx, out, &roster))
    });

    let offsets = vm_offsets(cx.seed, PAPER_CELLS);
    let min_rounds = if cx.quick { 1 } else { MIN_ROUNDS };
    let mut first = vec![[None; 2]; roster.len()];
    let mut timed_phase = |cx: &mut Ctx, out: &mut Outcome, stages: Option<&mut [StageTimes]>| {
        let mut times: StepTimes = vec![Default::default(); roster.len()];
        let mut wall = times.clone();
        let mut stages = stages;
        let started = Instant::now();
        let mut rounds = 0;
        while cx.another_round(rounds, min_rounds, started) {
            let stages = stages.as_deref_mut();
            round(
                cx, out, &roster, &offsets, rounds, &mut times, &mut wall, &mut first, stages,
            );
            rounds += 1;
        }
        (times, wall, rounds)
    };

    // The traced run first measures its own untraced reference.
    let compiled_before = KernelCache::global().stats();
    cx.tr.set_enabled(false);
    let (untraced, untraced_wall, _) = timed_phase(cx, &mut out, None);
    cx.tr.set_enabled(cx.traced);
    let timed_from = cx.tr.now_ns();
    let (times, wall, rounds) = if cx.traced {
        timed_phase(cx, &mut out, None)
    } else {
        let rounds = untraced[0][0].len();
        (untraced.clone(), untraced_wall, rounds)
    };
    let timed_to = cx.tr.now_ns();
    // Counted at the boundary: the timed phase may not compile or load.
    let compiled = KernelCache::global().stats();
    let entered = (compiled.misses - compiled_before.misses)
        + (compiled.disk_hits - compiled_before.disk_hits);
    out.attempt(
        (entered != 0).then(|| format!("{entered} kernel(s) were compiled during the timed phase")),
    );

    let (w1, w8) = (medians(&times, 0), medians(&times, 1));
    out.e2e("primary_ms", geomean(w8.iter().map(|s| s * 1e3)), rounds);
    out.e2e("secondary_ms", geomean(w1.iter().map(|s| s * 1e3)), rounds);
    // Aggregate throughput: the cell-steps of one step of every model
    // under both configurations over the time those steps take.
    out.e2e(
        "ops_per_s",
        (2 * roster.len() * PAPER_CELLS) as f64 / roster_step_secs(&times),
        rounds,
    );
    out.wall(
        "primary_ms",
        geomean(medians(&wall, 1).iter().map(|s| s * 1e3)),
    );
    out.wall(
        "secondary_ms",
        geomean(medians(&wall, 0).iter().map(|s| s * 1e3)),
    );
    out.scale = vec![
        ("rounds", rounds.into()),
        ("block_scale", BLOCK_SCALE.into()),
        ("cells", PAPER_CELLS.into()),
        ("models", roster.len().into()),
    ];
    for (i, r) in roster.iter().enumerate() {
        out.rows.push(Json::obj(vec![
            ("model", Json::str(r.entry.name)),
            ("class", Json::str(r.entry.class.name())),
            ("w1_ms_per_step", (w1[i] * 1e3).into()),
            ("w8_ms_per_step", (w8[i] * 1e3).into()),
            ("w1_cellsteps_per_s", (PAPER_CELLS as f64 / w1[i]).into()),
            ("w8_cellsteps_per_s", (PAPER_CELLS as f64 / w8[i]).into()),
            ("speedup", (w1[i] / w8[i]).into()),
        ]));
    }

    if cx.traced {
        let (off, on) = (roster_step_secs(&untraced), roster_step_secs(&times));
        out.layer("trace.overhead_pct", (on / off - 1.0) * 100.0, rounds);
        // The same rounds again, stage by stage; the decomposition must
        // add up to the opaque `Simulation::run` or it has drifted from it.
        let mut stages = vec![StageTimes::default(); roster.len()];
        let (staged, _, _) = timed_phase(cx, &mut out, Some(&mut stages));
        let unattributed = 1.0 - roster_step_secs(&staged) / on;
        out.layer("sim.unattributed_share", unattributed, rounds);
        out.attempt((unattributed.abs() > 0.10).then(|| {
            format!(
                "reconciliation: step_range + update_vm is {:.1}% away from Simulation::run \
                 over one roster step (limit 10%)",
                unattributed * 100.0
            )
        }));
        out.layer(
            "harness.fig2_speedup_geomean",
            geomean(w1.iter().zip(&w8).map(|(a, b)| a / b)),
            roster.len(),
        );
        probes::step_loop(cx, &mut out, &roster, &offsets, &stages);
        probes::bypass_share(
            cx,
            &mut out,
            &[
                "cache.",
                "easyml.",
                "codegen.",
                "passes.",
                "persist.",
                "vm.lut_build",
                "vm.bytecode",
            ],
            timed_from,
            timed_to,
        );
        out.layer("trace.spans", cx.tr.spans().len() as f64, 1);
    }
    out
}
