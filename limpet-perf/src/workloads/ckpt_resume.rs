//! `ckpt_resume` — durability cost: one model per size class at 8192
//! cells, W=8, guarded as the daemon runs jobs. Each cycle takes eight
//! checkpoints (5 steps → `Simulation::snapshot` → `SnapshotStore::save`)
//! and then throws the live simulation away and continues from disk
//! (`SnapshotStore::load` → `Simulation::resume_from`). At the end every
//! run must equal an uninterrupted twin bit for bit.
//!
//! `checkpoint` I/O dominates, compile and dispatch do not; it is the
//! read/write counterpart of `compile_roster` for the durable stores.

use super::{cells, golden_check, perturb, repeat_setup, roster, vm_offsets, Ctx, PAPER_CELLS, W8};
use crate::golden;
use crate::probes;
use crate::report::Outcome;
use crate::stats::median;
use limpet_harness::{HealthPolicy, KernelCache, Simulation, Snapshot, SnapshotStore};
use limpet_models::SizeClass;
use serve::Json;
use std::time::Instant;

const STEPS_PER_SAVE: usize = 5;
const SAVES_PER_CYCLE: usize = 8;
const MIN_CYCLES: usize = 3;
const POLICY: HealthPolicy = HealthPolicy::FallbackRaw;

/// Samples of one model, in seconds at reference speed: each checkpoint
/// (snapshot + save) and each continuation (load + resume) is paced as
/// one operation and its two parts scaled alike.
#[derive(Debug, Default, Clone)]
struct Samples {
    snapshot: Vec<f64>,
    save: Vec<f64>,
    load: Vec<f64>,
    resume: Vec<f64>,
    /// Raw wall seconds of each checkpoint and each continuation.
    checkpoint_wall: Vec<f64>,
    continuation_wall: Vec<f64>,
}

impl Samples {
    /// Snapshot + save, per checkpoint.
    fn checkpoint(&self) -> Vec<f64> {
        self.snapshot
            .iter()
            .zip(&self.save)
            .map(|(a, b)| a + b)
            .collect()
    }
    /// Load + resume, per continuation.
    fn continuation(&self) -> Vec<f64> {
        self.load
            .iter()
            .zip(&self.resume)
            .map(|(a, b)| a + b)
            .collect()
    }
}

/// Runs the workload.
pub fn run(cx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let golden = golden::committed();
    // The same three models in every run — one per class — so that
    // state size, and with it every time here, does not move with the
    // seed; the seed sets the cells' initial potentials.
    let models: Vec<_> = roster(true);
    let label = W8.label();
    let store = repeat_setup(cx, &mut out, |cx, out| {
        KernelCache::global().clear();
        let mut secs = 0.0;
        for r in &models {
            secs += cx
                .timed("bench.gate", 0, || {
                    let sim = Simulation::new(&r.model, W8, &cells(golden::CELLS));
                    golden_check(out, &golden, r.entry.name, W8, "global cache", sim);
                })
                .1;
        }
        let dir = cx.scratch.subdir("snapshots");
        let (store, s) = cx.timed("checkpoint.open", 0, || {
            SnapshotStore::new(&dir).expect("snapshot store in scratch")
        });
        (store, secs + s)
    });

    let offsets = vm_offsets(cx.seed, PAPER_CELLS);
    let wl = cells(PAPER_CELLS);
    let min_cycles = if cx.quick { 1 } else { MIN_CYCLES };
    let mut phase = 0;
    let mut timed_phase = |cx: &mut Ctx, out: &mut Outcome| {
        phase += 1;
        let mut samples = vec![Samples::default(); models.len()];
        let mut sims: Vec<Simulation> = models
            .iter()
            .map(|r| {
                let mut sim = Simulation::new_resilient(&r.model, W8, &wl, POLICY)
                    .expect("roster model compiles");
                perturb(&mut sim, &offsets);
                sim
            })
            .collect();
        let mut steps = 0;
        let mut cycles = 0;
        let started = Instant::now();
        while cx.another_round(cycles, min_cycles, started) {
            for (i, r) in models.iter().enumerate() {
                let key = format!("{}-{phase}", r.entry.name);
                let op = cx.tr.op(&key);
                let mut last = None;
                for k in 1..=SAVES_PER_CYCLE {
                    let sim = &mut sims[i];
                    let (stepped, _) = cx
                        .tr
                        .time("sim.run_guarded", op, || sim.run_guarded(STEPS_PER_SAVE));
                    out.attempt(
                        stepped
                            .err()
                            .map(|e| format!("{key}: step failed: {}", e.detail)),
                    );
                    let done = (steps + k * STEPS_PER_SAVE) as u64;
                    let (snap, a) = cx
                        .tr
                        .time("checkpoint.snapshot", op, || sim.snapshot(&label, done));
                    let (saved, b) = cx
                        .tr
                        .time("checkpoint.save", op, || store.save(&key, &snap));
                    let to_reference = cx.pace.scale(a + b) / (a + b);
                    samples[i].snapshot.push(a * to_reference);
                    samples[i].save.push(b * to_reference);
                    samples[i].checkpoint_wall.push(a + b);
                    out.attempt(saved.err().map(|e| format!("{key}: save failed: {e}")));
                    last = Some(snap);
                }
                // Continue from what is on disk, not from memory.
                let (loaded, a) = cx.tr.time("checkpoint.load", op, || store.load(&key));
                let intact = loaded.snapshot.is_some() && loaded.snapshot == last;
                out.attempt(
                    (!intact).then(|| format!("{key}: loaded snapshot differs from the saved one")),
                );
                let Some(snap) = loaded.snapshot.or(last) else {
                    continue;
                };
                let (resumed, b) = cx.tr.time("checkpoint.resume_from", op, || {
                    Simulation::resume_from(&r.model, W8, &wl, POLICY, &snap)
                });
                let to_reference = cx.pace.scale(a + b) / (a + b);
                samples[i].load.push(a * to_reference);
                samples[i].resume.push(b * to_reference);
                samples[i].continuation_wall.push(a + b);
                match resumed {
                    Ok(sim) => {
                        out.attempt(None);
                        sims[i] = sim;
                    }
                    Err(e) => out.attempt(Some(format!("{key}: resume failed: {e}"))),
                }
            }
            steps += SAVES_PER_CYCLE * STEPS_PER_SAVE;
            cycles += 1;
        }
        // The uninterrupted twin: same start, same steps, no guard, no
        // snapshot, never leaves memory.
        let verify = cx.tr.enter("bench.verify", 0);
        for (r, sim) in models.iter().zip(&sims) {
            let mut twin = Simulation::new(&r.model, W8, &wl);
            perturb(&mut twin, &offsets);
            twin.run(steps);
            out.check_eq(
                || {
                    format!(
                        "{} after {cycles} resumes vs uninterrupted twin",
                        r.entry.name
                    )
                },
                golden::state_digest(sim),
                golden::state_digest(&twin),
            );
            store.remove(&format!("{}-{phase}", r.entry.name));
        }
        cx.tr.exit(verify);
        (samples, cycles)
    };

    let compiled_before = KernelCache::global().stats().misses;
    cx.tr.set_enabled(false);
    let (untraced, mut cycles) = timed_phase(cx, &mut out);
    cx.tr.set_enabled(cx.traced);
    let timed_from = cx.tr.now_ns();
    let samples = if cx.traced {
        let (traced, n) = timed_phase(cx, &mut out);
        cycles = n;
        traced
    } else {
        untraced.clone()
    };
    let timed_to = cx.tr.now_ns();
    // Counted at the boundary: a resume may not recompile.
    let compiled = KernelCache::global().stats().misses - compiled_before;
    out.attempt(
        (compiled != 0)
            .then(|| format!("{compiled} kernel(s) were compiled during the timed phase")),
    );

    let large = models
        .iter()
        .position(|r| r.entry.class == SizeClass::Large)
        .expect("one model per class");
    let (saves, resumes) = (samples[large].checkpoint(), samples[large].continuation());
    out.e2e("primary_ms", median(&saves) * 1e3, saves.len());
    out.e2e("secondary_ms", median(&resumes) * 1e3, resumes.len());
    // One cycle of all three models at median cost: eight checkpoints
    // and one continuation each.
    let cycle_secs: f64 = samples
        .iter()
        .map(|s| SAVES_PER_CYCLE as f64 * median(&s.checkpoint()) + median(&s.continuation()))
        .sum();
    out.e2e(
        "ops_per_s",
        (models.len() * (SAVES_PER_CYCLE + 1)) as f64 / cycle_secs,
        cycles * models.len() * (SAVES_PER_CYCLE + 1),
    );
    out.wall("primary_ms", median(&samples[large].checkpoint_wall) * 1e3);
    out.wall(
        "secondary_ms",
        median(&samples[large].continuation_wall) * 1e3,
    );
    out.scale = vec![
        ("cycles", cycles.into()),
        ("saves_per_cycle", SAVES_PER_CYCLE.into()),
        ("steps_per_save", STEPS_PER_SAVE.into()),
        ("cells", PAPER_CELLS.into()),
    ];
    for (r, s) in models.iter().zip(&samples) {
        out.rows.push(Json::obj(vec![
            ("model", Json::str(r.entry.name)),
            ("class", Json::str(r.entry.class.name())),
            ("save_p50_ms", (median(&s.checkpoint()) * 1e3).into()),
            ("resume_p50_ms", (median(&s.continuation()) * 1e3).into()),
            ("saves", s.save.len().into()),
            ("resumes", s.resume.len().into()),
        ]));
    }

    if cx.traced {
        let off = median(&untraced[large].checkpoint());
        out.layer(
            "trace.overhead_pct",
            (median(&saves) / off - 1.0) * 100.0,
            saves.len(),
        );
        let s = &samples[large];
        out.layer(
            "checkpoint.snapshot_ms",
            median(&s.snapshot) * 1e3,
            s.snapshot.len(),
        );
        out.layer("checkpoint.save_ms", median(&s.save) * 1e3, s.save.len());
        out.layer("checkpoint.load_ms", median(&s.load) * 1e3, s.load.len());
        // The codec and the restore on their own, on the large model's
        // state: save = encode + write + fsync + rename, load = read +
        // decode, resume_from = cache lookup + allocate + restore.
        let r = &models[large];
        let mut sim = Simulation::new_resilient(&r.model, W8, &wl, POLICY).expect("compiles");
        perturb(&mut sim, &offsets);
        // Step 0 and a zeroed step counter, so the encoded size depends on
        // the format and the state, not on how many digits a counter has.
        let snap = Snapshot {
            executed_steps: 0,
            ..sim.snapshot(&label, 0)
        };
        let mut sizes = Vec::new();
        let (mut encode, mut decode, mut restore) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..5 {
            let (bytes, s) = cx.timed("checkpoint.encode", 0, || snap.encode());
            encode.push(s);
            let (decoded, s) = cx.timed("checkpoint.decode", 0, || Snapshot::decode(&bytes));
            decode.push(s);
            out.attempt(
                (decoded.ok().as_ref() != Some(&snap)).then(|| "codec round trip".to_owned()),
            );
            let (restored, s) = cx.timed("checkpoint.restore", 0, || sim.restore(&snap));
            restore.push(s);
            out.attempt(restored.err());
            sizes.push(bytes.len() as u64);
        }
        out.layer("checkpoint.encode_ms", median(&encode) * 1e3, encode.len());
        out.layer("checkpoint.decode_ms", median(&decode) * 1e3, decode.len());
        out.layer(
            "checkpoint.restore_ms",
            median(&restore) * 1e3,
            restore.len(),
        );
        out.exact("checkpoint.bytes", &sizes);
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
