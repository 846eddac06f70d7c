//! Roster-wide acceptance gate for durable mid-trajectory checkpoints:
//! a run interrupted at any step boundary and resumed from its snapshot
//! must finish **bit-identical** to the uninterrupted run — every state
//! variable and external of every cell, and the sim clock. Covered here:
//!
//! * every roster model × every SIMD width (scalar / AVX2 / AVX-512),
//!   interrupted at a per-model pseudo-random boundary, round-tripped
//!   through a real on-disk [`SnapshotStore`] (not just the in-memory
//!   codec);
//! * sharded pools: a 4-thread snapshot resumed into both 1- and
//!   4-thread pools (snapshots are logical-cells-only, so thread count
//!   is a free parameter of resume);
//! * the native tier, when a C toolchain is present — the snapshot
//!   records the tier and resume re-promotes;
//! * the three seeded checkpoint faults (`ckpt-torn`, `ckpt-corrupt`,
//!   `ckpt-stale-version`): each rejects the current snapshot, self-heals
//!   the store, falls back to the previous rotation, and still finishes
//!   bit-identical (the previous snapshot is just an earlier boundary of
//!   the same trajectory).
//!
//! A fault plan is current only on the thread that armed it, so the tests
//! run in parallel.

use std::path::PathBuf;
use std::sync::Arc;

use limpet_harness::{
    faults, HealthPolicy, KernelCache, PipelineKind, RejectReason, ShardedSimulation, Simulation,
    SnapshotStore, Stimulus, Tier, Workload,
};
use limpet_models::{model, ROSTER};

const CELLS: usize = 7;
const STEPS: usize = 96;

fn wl() -> Workload {
    Workload {
        n_cells: CELLS,
        steps: 0,
        dt: 0.01,
    }
}

fn stim() -> Stimulus {
    Stimulus {
        period: 0.5,
        duration: 0.1,
        amplitude: 40.0,
    }
}

/// Per-model "randomized" interruption boundary: FNV-1a of the model
/// name mapped into `1..STEPS-1`, so every model is cut at a different
/// step but reruns are reproducible.
fn boundary(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % (STEPS as u64 - 2)) as usize + 1
}

/// Fresh on-disk store under a collision-proof temp dir; the caller
/// removes the dir when done.
fn tmp_store(tag: &str) -> (PathBuf, SnapshotStore) {
    let dir = std::env::temp_dir().join(format!(
        "limpet-ckpt-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir).expect("create snapshot store");
    (dir, store)
}

fn guarded(m: &limpet_easyml::Model, config: PipelineKind) -> Simulation {
    let mut sim = Simulation::new_resilient(m, config, &wl(), HealthPolicy::Abort)
        .unwrap_or_else(|q| panic!("model '{}' quarantined on every tier: {}", q.model, q.error));
    sim.set_stimulus(stim());
    sim
}

/// Every roster model × every SIMD width: interrupt at a per-model
/// boundary, persist the snapshot through a real store (atomic write +
/// checksum verify on load), resume, and demand full-state and clock
/// bit-identity with the uninterrupted twin.
#[test]
fn resume_is_bit_identical_across_roster_and_widths() {
    let (dir, store) = tmp_store("widths");
    let configs = [
        PipelineKind::Baseline,
        PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx2),
        PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512),
    ];
    for entry in &ROSTER {
        let m = model(entry.name);
        let k = boundary(entry.name);
        for config in configs {
            let mut clean = guarded(&m, config);
            clean
                .run_guarded(STEPS)
                .unwrap_or_else(|i| panic!("{}: clean run unhealthy: {i:?}", entry.name));
            let clean_bits = clean.state_bits();
            let clean_t = clean.time().to_bits();

            let mut first = guarded(&m, config);
            first
                .run_guarded(k)
                .unwrap_or_else(|i| panic!("{}: first leg unhealthy: {i:?}", entry.name));
            let snap = first.snapshot(&config.label(), k as u64);
            let key = format!("{}-{}", entry.name, config.label());
            store.save(&key, &snap).expect("save snapshot");
            let out = store.load(&key);
            assert!(out.rejects.is_empty(), "{key}: clean store must not reject");
            assert!(!out.from_previous, "{key}: current rotation must load");
            let snap = out.snapshot.expect("durable round-trip");

            let mut resumed =
                Simulation::resume_from(&m, config, &wl(), HealthPolicy::Abort, &snap)
                    .unwrap_or_else(|e| panic!("{key}: resume failed: {e}"));
            resumed.set_stimulus(stim());
            assert_eq!(
                resumed.guarded_steps(),
                k,
                "{key}: step counter must survive"
            );
            resumed
                .run_guarded(STEPS - k)
                .unwrap_or_else(|i| panic!("{key}: resumed leg unhealthy: {i:?}"));
            assert_eq!(
                resumed.state_bits(),
                clean_bits,
                "{key}: resumed trajectory diverged (interrupted at step {k})"
            );
            assert_eq!(resumed.time().to_bits(), clean_t, "{key}: clocks diverged");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharded pools across the roster: a snapshot written by a 4-thread
/// pool at a chunk boundary resumes into 1- and 4-thread pools, both
/// finishing bit-identical to an uninterrupted single-`Simulation` run.
/// (Pools carry no stimulus, so the reference twin runs without one.)
#[test]
fn sharded_resume_is_thread_count_independent_across_roster() {
    let (dir, store) = tmp_store("sharded");
    let config = PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512);
    for entry in &ROSTER {
        let m = model(entry.name);
        let k = boundary(entry.name);

        let mut clean = Simulation::new(&m, config, &wl());
        clean.run(STEPS);
        let clean_bits = clean.state_bits();

        let mut writer = ShardedSimulation::new(&m, config, &wl(), 4);
        writer.run_threaded(k);
        let snap = writer.snapshot(&config.label(), k as u64);
        assert_eq!(snap.shards.len(), writer.threads(), "{}", entry.name);
        store.save(entry.name, &snap).expect("save snapshot");
        let snap = Arc::new(store.load(entry.name).snapshot.expect("durable round-trip"));

        for threads in [1usize, 4] {
            let mut resumed = ShardedSimulation::resume_from(&m, config, &wl(), threads, &snap)
                .unwrap_or_else(|e| panic!("{}: T={threads} resume failed: {e}", entry.name));
            resumed.run_threaded(STEPS - k);
            assert_eq!(
                resumed.state_bits(),
                clean_bits,
                "{}: T=4 snapshot resumed at T={threads} diverged (cut at step {k})",
                entry.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The native tier across the roster: the snapshot records `tier native`,
/// resume re-promotes, and the resumed native trajectory stays
/// bit-identical to the uninterrupted native run. Skips (with a note)
/// on hosts without a C toolchain.
#[test]
fn native_resume_is_bit_identical_across_roster() {
    if !limpet_harness::toolchain_available() {
        eprintln!("skipping: no C toolchain on this host");
        return;
    }
    let cache = KernelCache::global();
    let (dir, store) = tmp_store("native");
    let config = PipelineKind::Baseline;
    for entry in &ROSTER {
        let m = model(entry.name);
        let k = boundary(entry.name);

        let mut clean = Simulation::new(&m, config, &wl());
        clean.set_stimulus(stim());
        clean
            .promote_native_blocking(cache)
            .unwrap_or_else(|e| panic!("{}: promotion failed: {e}", entry.name));
        clean.run(STEPS);
        let clean_bits = clean.state_bits();

        let mut first = Simulation::new(&m, config, &wl());
        first.set_stimulus(stim());
        first
            .promote_native_blocking(cache)
            .unwrap_or_else(|e| panic!("{}: promotion failed: {e}", entry.name));
        first.run(k);
        let snap = first.snapshot(&config.label(), k as u64);
        assert_eq!(snap.tier, Tier::Native.to_string(), "{}", entry.name);
        store.save(entry.name, &snap).expect("save snapshot");
        let snap = store.load(entry.name).snapshot.expect("durable round-trip");

        let mut resumed = Simulation::resume_from(&m, config, &wl(), HealthPolicy::Abort, &snap)
            .unwrap_or_else(|e| panic!("{}: resume failed: {e}", entry.name));
        assert_eq!(
            resumed.tier(),
            Tier::Native,
            "{}: resume must re-promote a native snapshot",
            entry.name
        );
        resumed.set_stimulus(stim());
        resumed.run(STEPS - k);
        assert_eq!(
            resumed.state_bits(),
            clean_bits,
            "{}: resumed native trajectory diverged (cut at step {k})",
            entry.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// All three checkpoint fault kinds: the injected damage rejects the
/// current snapshot (on the expected ladder rung), the store self-heals
/// (damaged file removed, reject counted), resume falls back to the
/// previous rotation, and the finished trajectory is still bit-identical
/// — a resume from an *earlier* boundary of the same trajectory loses
/// wall-clock, never bits.
#[test]
fn ckpt_faults_self_heal_and_fall_back_to_previous_rotation() {
    let m = model("HodgkinHuxley");
    let config = PipelineKind::Baseline;
    let (k1, k2) = (24usize, 48usize);

    let mut clean = guarded(&m, config);
    clean.run_guarded(STEPS).expect("clean run healthy");
    let clean_bits = clean.state_bits();

    // `ckpt-torn` truncates at a seeded offset, which can land inside
    // the header — so its rung is torn-tail *or* bad-header; the other
    // two target one rung exactly.
    let scenarios: [(&str, &[RejectReason]); 3] = [
        (
            "ckpt-torn@7",
            &[RejectReason::TornTail, RejectReason::BadHeader],
        ),
        ("ckpt-corrupt@11", &[RejectReason::ChecksumMismatch]),
        ("ckpt-stale-version@3", &[RejectReason::StaleVersion]),
    ];
    for (spec, rungs) in scenarios {
        let (dir, store) = tmp_store(spec.split('@').next().unwrap());
        let mut sim = guarded(&m, config);
        sim.run_guarded(k1).expect("healthy");
        store
            .save("job", &sim.snapshot(&config.label(), k1 as u64))
            .expect("save first");
        sim.run_guarded(k2 - k1).expect("healthy");
        store
            .save("job", &sim.snapshot(&config.label(), k2 as u64))
            .expect("save second"); // rotates: prev = step 24, current = step 48

        let _plan = faults::arm(spec).unwrap();
        let out = store.load("job");
        assert_eq!(out.rejects.len(), 1, "{spec}: current must be rejected");
        let reason = out.rejects[0].1;
        assert!(
            rungs.contains(&reason),
            "{spec}: rejected on rung {reason:?}, expected one of {rungs:?}"
        );
        assert!(
            !store.path_for("job").exists(),
            "{spec}: damaged current snapshot must be removed (self-heal)"
        );
        assert!(out.from_previous, "{spec}: must fall back to previous");
        let snap = out.snapshot.expect("previous rotation survives");
        assert_eq!(snap.steps_done, k1 as u64, "{spec}");

        let mut resumed = Simulation::resume_from(&m, config, &wl(), HealthPolicy::Abort, &snap)
            .unwrap_or_else(|e| panic!("{spec}: resume failed: {e}"));
        resumed.set_stimulus(stim());
        resumed
            .run_guarded(STEPS - k1)
            .unwrap_or_else(|i| panic!("{spec}: resumed leg unhealthy: {i:?}"));
        assert_eq!(
            resumed.state_bits(),
            clean_bits,
            "{spec}: fallback resume diverged"
        );
        let stats = store.stats();
        assert!(
            stats.rejected_total() >= 1,
            "{spec}: reject must be counted"
        );
        assert_eq!(stats.loaded_previous, 1, "{spec}");
        assert_eq!(stats.fell_to_zero, 0, "{spec}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A daemon upgraded across the `.lcp` v1 → v2 change finds its old
/// snapshots on disk. `snapshot_written_at_0bbe8bc.lcp` is what the
/// parent build (state as hex text, byte-wise checksum) saved for
/// MitchellSchaeffer × 5 cells at step 40. There is one decoder: the file
/// is refused as stale — not misparsed, not half-read — and removed; the
/// job takes the previous rotation if that is readable and step 0
/// otherwise, and the next save writes the current format.
#[test]
fn snapshot_written_by_the_parent_build_is_stale_not_misparsed() {
    let v1 = include_bytes!("snapshot_written_at_0bbe8bc.lcp");
    assert!(v1.starts_with(b"limpet-checkpoint 1 400 "));
    let m = model("MitchellSchaeffer");
    let config = PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512);
    let wl = Workload {
        n_cells: 5,
        steps: 0,
        dt: 0.01,
    };
    let mut sim = Simulation::new_resilient(&m, config, &wl, HealthPolicy::Abort).unwrap();
    sim.run_guarded(20).expect("healthy");

    // Alone on disk: rejected on the stale rung, healed away, step 0.
    let (dir, store) = tmp_store("parent-v1");
    std::fs::write(store.path_for("job"), v1).unwrap();
    let out = store.load("job");
    assert!(out.snapshot.is_none());
    let rungs: Vec<_> = out.rejects.iter().map(|(_, reason)| *reason).collect();
    assert_eq!(rungs, [RejectReason::StaleVersion]);
    assert!(!store.has("job"), "the stale file must be removed");
    let stats = store.stats();
    assert_eq!((stats.rejected_stale_version, stats.fell_to_zero), (1, 1));

    // Over a readable previous rotation: that one is taken.
    let at_20 = sim.snapshot(&config.label(), 20);
    store.save("job", &at_20).unwrap();
    std::fs::rename(store.path_for("job"), store.prev_path_for("job")).unwrap();
    std::fs::write(store.path_for("job"), v1).unwrap();
    let out = store.load("job");
    assert!(out.from_previous);
    assert_eq!(out.snapshot.as_ref(), Some(&at_20));
    assert_eq!(store.stats().rejected_stale_version, 2);

    // The next save writes the current format, and at step 40 the state
    // block holds the very words the parent build spelled as hex.
    sim.run_guarded(20).expect("healthy");
    let path = store
        .save("job", &sim.snapshot(&config.label(), 40))
        .unwrap();
    let v2 = std::fs::read(path).unwrap();
    let version = limpet_harness::SNAPSHOT_FORMAT_VERSION;
    assert!(v2.starts_with(format!("limpet-checkpoint {version} ").as_bytes()));
    let v1_words: Vec<u64> = std::str::from_utf8(v1)
        .unwrap()
        .lines()
        .skip_while(|line| !line.starts_with("state "))
        .skip(1)
        .take_while(|line| *line != "end")
        .flat_map(str::split_whitespace)
        .map(|w| u64::from_str_radix(w, 16).unwrap())
        .collect();
    assert_eq!(v1_words, sim.state_bits());
    assert_eq!(store.load("job").snapshot.unwrap().state, v1_words);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon upgraded across the `.lcp` v2 → v3 change (the four-lane
/// payload sum) finds v2 snapshots on disk: what 0892a15 (before
/// `harness::store`) saved for MitchellSchaeffer × 5 cells and what
/// 7fd044a (the last build to sum serially) saved for Courtemanche × 13
/// cells — one whole AoSoA block and a ragged one — each at step 40 under
/// AVX-512. Each is refused on the stale rung before any sum is computed
/// (a v2 sum is not a v3 sum, but it must never read as damage) and
/// removed; the next save writes v3 with the very payload the parent wrote,
/// and that payload's state block holds the words this build's
/// `state_bits` reads out of its blocks.
#[test]
fn snapshot_written_at_format_2_is_stale_not_misparsed() {
    let config = PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512);
    let fixtures: [(&[u8], &str, usize, &[u8]); 2] = [
        (
            include_bytes!("snapshot_written_at_0892a15.lcp"),
            "MitchellSchaeffer",
            5,
            b"limpet-checkpoint 2 265 ",
        ),
        (
            include_bytes!("snapshot_written_at_7fd044a.lcp"),
            "Courtemanche",
            13,
            b"limpet-checkpoint 2 1494 ",
        ),
    ];
    let version = limpet_harness::SNAPSHOT_FORMAT_VERSION;
    for (parent, name, n_cells, header) in fixtures {
        assert!(parent.starts_with(header), "{name}");
        let m = model(name);
        let wl = Workload {
            n_cells,
            steps: 0,
            dt: 0.01,
        };
        let mut sim = Simulation::new_resilient(&m, config, &wl, HealthPolicy::Abort).unwrap();
        sim.run_guarded(40).expect("healthy");
        // The kernel's executed-step counter is shared through the
        // process-wide cache with whatever ran before; the parent's process
        // ran only this.
        let at_40 = limpet_harness::Snapshot {
            executed_steps: 40,
            ..sim.snapshot(&config.label(), 40)
        };

        let (dir, store) = tmp_store(&format!("parent-v2-{name}"));
        std::fs::write(store.path_for("job"), parent).unwrap();
        let out = store.load("job");
        assert!(out.snapshot.is_none(), "{name}");
        let rungs: Vec<_> = out.rejects.iter().map(|(_, reason)| *reason).collect();
        assert_eq!(rungs, [RejectReason::StaleVersion], "{name}");
        assert!(!store.has("job"), "{name}: the stale file must be removed");

        let path = store.save("job", &at_40).unwrap();
        let current = std::fs::read(path).unwrap();
        assert!(current.starts_with(format!("limpet-checkpoint {version} ").as_bytes()));
        let payload = |bytes: &[u8]| {
            let at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
            bytes[at..].to_vec()
        };
        assert_eq!(payload(&current), payload(parent), "{name}");
        let block = payload(parent);
        let state_at = block.windows(7).position(|w| w == b"\nstate ").unwrap() + 1;
        let words_at = state_at + block[state_at..].iter().position(|&b| b == b'\n').unwrap() + 1;
        let parent_words: Vec<u64> = block[words_at..block.len() - 4]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(parent_words, sim.state_bits(), "{name}");
        let out = store.load("job");
        assert_eq!(out.snapshot.as_ref(), Some(&at_40), "{name}");
        let stats = store.stats();
        assert_eq!(
            (
                stats.rejected_stale_version,
                stats.loaded_current,
                stats.rejected_checksum
            ),
            (1, 1, 0),
            "{name}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
