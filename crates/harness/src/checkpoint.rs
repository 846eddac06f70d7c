//! Durable mid-trajectory checkpoints: everything needed to continue a
//! run **bit-identically** after a crash, deadline, or disconnect.
//!
//! A [`Snapshot`] carries the full logical state vectors (the exact bits
//! [`crate::Simulation::state_bits`] reports, copied out of storage block
//! by block and written back the same way), the sim clock and step
//! counters, the seeded-fault "RNG state" (`nan_plan`), the [`Tier`] the
//! run was executing at, and the per-kernel executed-step counter.
//! Padding lanes are deliberately *not*
//! captured: element-wise SIMD never lets a padded lane feed a logical
//! one, so restoring logical cells into a freshly initialised simulation
//! — at any width, layout, or shard count — reproduces the identical
//! trajectory. That makes one snapshot resumable at a different SIMD
//! width or thread count than wrote it.
//!
//! On disk a snapshot is one record of [`crate::store`] — which owns the
//! header grammar, the atomic write, the reject ladder and the `ckpt-*`
//! fault injection — with a single field, the format version. The payload
//! is text key lines and the state vector as one binary block, so that
//! encoding and decoding it cost a block copy (format v3 is v2's payload
//! under the four-lane [`crate::checksum::payload_sum`]; v2 summed it in
//! one serial chain and v1 spelled every state word as 16 hex digits, and
//! both are rejected as stale before any sum is computed):
//!
//! ```text
//! limpet-checkpoint <format-ver> <payload-len> <sum:016x>\n
//! model <name>\n
//! config <pipeline-label>\n
//! cells <n>\n
//! dt <bits:016x>\n
//! t <bits:016x>\n
//! step <steps-done>\n
//! tier <tier>\n
//! executed <kernel-executed-steps>\n
//! nanplan <step> <seed>\n        (only when a fault plan is pending)
//! shards <s0> <s1> ...\n         (only for sharded snapshots)
//! spec <job-spec-json>\n         (only for serve-layer snapshots)
//! state <count>\n
//! <count × 8 bytes: each state word, little-endian>
//! end\n
//! ```
//!
//! After the `state` line the payload must hold exactly `count × 8` bytes
//! and `end\n` — the count is checked against what is there before
//! anything is allocated.
//!
//! A load walks the record's ladder for the current file; a rejected file
//! is *removed* (self-heal — a bad snapshot never wedges later runs),
//! counted by rung, and the load falls through to the previous rotation;
//! if that rejects too, the run restarts from step 0. A rejection costs
//! re-computed steps, never correctness.

use crate::checksum::fnv1a;
use crate::faults::FaultKind;
use crate::store::{self, take_line};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub use crate::store::RejectReason;

/// Version of the snapshot envelope + payload grammar. Bump on any layout
/// change; older files are then rejected as stale (and the run restarts
/// or falls to the previous rotation) rather than misparsed.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// First token of every snapshot file; anything else is not ours.
const MAGIC: &str = "limpet-checkpoint";

/// Last line of every payload, straight after the binary state block.
const END: &[u8] = b"end\n";

/// Everything needed to continue a trajectory bit-identically. The
/// `state` field is exactly what [`crate::Simulation::state_bits`]
/// returns — per logical cell, each state variable's bits then each
/// external's bits — so round-tripping through a snapshot is equality-
/// checkable against a live simulation with `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Model name (key echo: resume refuses a different model).
    pub model: String,
    /// Pipeline label, e.g. `limpetMLIR-avx512` (key echo).
    pub config: String,
    /// Logical cell count (key echo).
    pub n_cells: usize,
    /// `f64::to_bits` of the timestep (key echo — dt changes the math).
    pub dt_bits: u64,
    /// `f64::to_bits` of the sim clock at the snapshot point.
    pub t_bits: u64,
    /// Guarded steps completed when the snapshot was taken.
    pub steps_done: u64,
    /// Tier label (`Tier::as_str`) the run was executing at.
    pub tier: String,
    /// The kernel's executed-step counter, so a resumed process's
    /// `CacheStats::executed_steps` continues from the crashed one's.
    pub executed_steps: u64,
    /// Pending seeded-fault plan `(fire_at_step, seed)` — the only RNG
    /// state a run carries. `None` once fired or never armed.
    pub nan_plan: Option<(u64, u64)>,
    /// Shard sizes at snapshot time (informational; resume re-shards
    /// deterministically for whatever thread count it is given).
    pub shards: Vec<usize>,
    /// Opaque single-line sidecar, checksummed with the rest: the serve
    /// layer stores the job-spec JSON here (making the snapshot
    /// self-contained for the `resume` wire verb); the fig2 sweep stores
    /// its measured timing samples. Stored under the `spec` payload key.
    pub meta: Option<String>,
    /// Logical state bits, `n_cells * (n_state + n_ext)` values.
    pub state: Vec<u64>,
}

impl Snapshot {
    /// Checks the key echo against what a resume caller is about to
    /// build. Returns a human-readable mismatch description.
    pub fn key_matches(
        &self,
        model: &str,
        config: &str,
        n_cells: usize,
        dt: f64,
    ) -> Result<(), String> {
        if self.model != model {
            return Err(format!("snapshot is for model {}, not {model}", self.model));
        }
        if self.config != config {
            return Err(format!(
                "snapshot was taken under config {}, not {config}",
                self.config
            ));
        }
        if self.n_cells != n_cells {
            return Err(format!(
                "snapshot has {} cells, workload has {n_cells}",
                self.n_cells
            ));
        }
        if self.dt_bits != dt.to_bits() {
            return Err(format!(
                "snapshot dt bits {:016x} != workload dt bits {:016x}",
                self.dt_bits,
                dt.to_bits()
            ));
        }
        Ok(())
    }

    /// Serializes to the on-disk byte form (header + checksummed payload).
    /// One allocation of the final size; each state word is appended
    /// once, with no zero-fill before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut keys = String::new();
        let _ = writeln!(keys, "model {}", self.model);
        let _ = writeln!(keys, "config {}", self.config);
        let _ = writeln!(keys, "cells {}", self.n_cells);
        let _ = writeln!(keys, "dt {:016x}", self.dt_bits);
        let _ = writeln!(keys, "t {:016x}", self.t_bits);
        let _ = writeln!(keys, "step {}", self.steps_done);
        let _ = writeln!(keys, "tier {}", self.tier);
        let _ = writeln!(keys, "executed {}", self.executed_steps);
        if let Some((step, seed)) = self.nan_plan {
            let _ = writeln!(keys, "nanplan {step} {seed}");
        }
        if !self.shards.is_empty() {
            keys.push_str("shards");
            for s in &self.shards {
                let _ = write!(keys, " {s}");
            }
            keys.push('\n');
        }
        if let Some(spec) = &self.meta {
            debug_assert!(!spec.contains('\n'), "spec JSON must be one line");
            let _ = writeln!(keys, "spec {spec}");
        }
        let _ = writeln!(keys, "state {}", self.state.len());

        let block_len = 8 * self.state.len();
        let payload_len = keys.len() + block_len + END.len();
        store::seal(
            MAGIC,
            &[&SNAPSHOT_FORMAT_VERSION],
            &[],
            payload_len,
            |out| {
                out.extend_from_slice(keys.as_bytes());
                for v in &self.state {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(END);
            },
        )
    }

    /// Walks the record's ladder over raw file bytes and parses the
    /// payload. Every failure maps to exactly one [`RejectReason`] rung.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, RejectReason> {
        let payload = store::open(bytes, MAGIC, &[&SNAPSHOT_FORMAT_VERSION], &[])
            .map_err(|reject| reject.reason)?;
        parse_payload(payload).ok_or(RejectReason::Malformed)
    }
}

/// Parses the checksummed payload. Any deviation from the grammar is a
/// `None` (mapped to [`RejectReason::Malformed`] by the caller).
fn parse_payload(payload: &[u8]) -> Option<Snapshot> {
    let mut rest = payload;
    let field = |line: &str, key: &str| -> Option<String> {
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .map(str::to_string)
    };
    let model = field(take_line(&mut rest)?, "model")?;
    let config = field(take_line(&mut rest)?, "config")?;
    let n_cells: usize = field(take_line(&mut rest)?, "cells")?.parse().ok()?;
    let dt_bits = u64::from_str_radix(&field(take_line(&mut rest)?, "dt")?, 16).ok()?;
    let t_bits = u64::from_str_radix(&field(take_line(&mut rest)?, "t")?, 16).ok()?;
    let steps_done: u64 = field(take_line(&mut rest)?, "step")?.parse().ok()?;
    let tier = field(take_line(&mut rest)?, "tier")?;
    let executed_steps: u64 = field(take_line(&mut rest)?, "executed")?.parse().ok()?;

    let mut line = take_line(&mut rest)?;
    let mut nan_plan = None;
    if let Some(plan) = field(line, "nanplan") {
        let mut w = plan.split_whitespace();
        nan_plan = Some((w.next()?.parse().ok()?, w.next()?.parse().ok()?));
        if w.next().is_some() {
            return None;
        }
        line = take_line(&mut rest)?;
    }
    let mut shards = Vec::new();
    if let Some(sizes) = field(line, "shards") {
        for w in sizes.split_whitespace() {
            shards.push(w.parse().ok()?);
        }
        if shards.is_empty() {
            return None;
        }
        line = take_line(&mut rest)?;
    }
    let mut meta = None;
    if let Some(spec) = field(line, "spec") {
        meta = Some(spec);
        line = take_line(&mut rest)?;
    }
    // What follows the `state` line must be exactly the block it counts
    // and `end\n`: a count that overflows, exceeds the payload or leaves
    // bytes over is rejected before anything is allocated for it.
    let count: usize = field(line, "state")?.parse().ok()?;
    let block = rest.strip_suffix(END)?;
    if count.checked_mul(8)? != block.len() {
        return None;
    }
    let state = block
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")))
        .collect();
    Some(Snapshot {
        model,
        config,
        n_cells,
        dt_bits,
        t_bits,
        steps_done,
        tier,
        executed_steps,
        nan_plan,
        shards,
        meta,
        state,
    })
}

/// The three faults [`store::inject`] may apply to a snapshot read here.
const CKPT_FAULTS: [FaultKind; 3] = [
    FaultKind::CkptTorn,
    FaultKind::CkptCorrupt,
    FaultKind::CkptStaleVersion,
];

/// Counters for every ladder rung plus save/load traffic; all monotonic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Snapshots durably written.
    pub saved: u64,
    /// Saves that failed (staging write, `fsync` or rename): the run
    /// carries on, but would resume from an older snapshot.
    pub save_failed: u64,
    /// Loads served by the current file.
    pub loaded_current: u64,
    /// Loads served by the previous rotation after the current rejected.
    pub loaded_previous: u64,
    /// Loads that fell all the way to "no snapshot" after at least one
    /// rejection — the restart-from-step-0 rung.
    pub fell_to_zero: u64,
    /// Files rejected at the bad-header rung.
    pub rejected_bad_header: u64,
    /// Files rejected at the stale-version rung.
    pub rejected_stale_version: u64,
    /// Files rejected at the torn-tail rung.
    pub rejected_torn_tail: u64,
    /// Files rejected at the checksum rung.
    pub rejected_checksum: u64,
    /// Files rejected at the malformed-payload rung.
    pub rejected_malformed: u64,
    /// Staging files of killed writers removed by [`SnapshotStore::new`].
    pub orphans_removed: u64,
}

impl StoreStats {
    /// Total rejections across every ladder rung.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_bad_header
            + self.rejected_stale_version
            + self.rejected_torn_tail
            + self.rejected_checksum
            + self.rejected_malformed
    }
}

/// Outcome of [`SnapshotStore::load`]: which rung produced the snapshot
/// (if any) and every rejection hit on the way down.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The snapshot, if any rung produced one.
    pub snapshot: Option<Snapshot>,
    /// True when the current file was rejected and the previous rotation
    /// served the snapshot.
    pub from_previous: bool,
    /// Every file rejected (and removed) on the way down the ladder.
    pub rejects: Vec<(PathBuf, RejectReason)>,
}

/// One snapshot slot per key (run/job id), stored as
/// `ckpt-<fnv:016x>-<sanitized-key>.lcp` with a single `.prev.lcp`
/// rotation. Saves are atomic ([`store::publish`]); the previous rotation
/// is what the load ladder falls back to when the current file rejects.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    stats: Mutex<StoreStats>,
}

/// Keys are tenant/job ids off the wire; keep the filename readable but
/// never let a hostile key escape the directory. The FNV prefix keeps
/// distinct keys distinct even when sanitization collides them.
fn sanitize_key(key: &str) -> String {
    key.chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory, and removes the
    /// staging files a killed writer left beside its snapshots — a whole
    /// snapshot each — once they are older than [`store::STALE_AFTER`]; a
    /// younger one may belong to a live writer in another process.
    pub fn new(dir: &Path) -> io::Result<SnapshotStore> {
        fs::create_dir_all(dir)?;
        let stats = StoreStats {
            orphans_removed: store::remove_orphans(
                dir,
                |name| name.starts_with("ckpt-") && name.ends_with(".lcp"),
                store::STALE_AFTER,
            ),
            ..StoreStats::default()
        };
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
            stats: Mutex::new(stats),
        })
    }

    /// The directory snapshots live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current-snapshot path for a key (may not exist yet).
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!(
            "ckpt-{:016x}-{}.lcp",
            fnv1a(key.as_bytes()),
            sanitize_key(key)
        ))
    }

    /// Previous-rotation path for a key.
    pub fn prev_path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!(
            "ckpt-{:016x}-{}.prev.lcp",
            fnv1a(key.as_bytes()),
            sanitize_key(key)
        ))
    }

    /// True when a durable snapshot (current or previous) exists.
    pub fn has(&self, key: &str) -> bool {
        self.path_for(key).exists() || self.prev_path_for(key).exists()
    }

    /// Atomically writes `snap` as the current snapshot for `key`,
    /// rotating any existing current file to the previous slot first.
    pub fn save(&self, key: &str, snap: &Snapshot) -> io::Result<PathBuf> {
        let bytes = snap.encode();
        let final_path = self.path_for(key);
        if final_path.exists() {
            // The one rename outside `store::publish` (ci.sh allows this
            // line by its trailing comment): it moves a complete record,
            // and replaces any older `.prev` atomically on POSIX.
            let _ = fs::rename(&final_path, self.prev_path_for(key)); // rotation
        }
        let published = store::publish(&final_path, &bytes);
        self.count(|s| match published {
            Ok(()) => s.saved += 1,
            Err(_) => s.save_failed += 1,
        });
        published.map(|()| final_path)
    }

    /// Walks the load ladder: current file, then the previous rotation,
    /// then nothing. Every rejected file is removed (self-heal) and
    /// counted; fault injection mutates the just-read bytes so the real
    /// integrity checks do the rejecting.
    pub fn load(&self, key: &str) -> LoadOutcome {
        let mut rejects = Vec::new();
        let rungs = [(self.path_for(key), false), (self.prev_path_for(key), true)];
        for (path, from_previous) in rungs {
            let Ok(mut bytes) = fs::read(&path) else {
                continue;
            };
            store::inject(&mut bytes, CKPT_FAULTS);
            match Snapshot::decode(&bytes) {
                Ok(snap) => {
                    self.count(|s| {
                        if from_previous {
                            s.loaded_previous += 1;
                        } else {
                            s.loaded_current += 1;
                        }
                    });
                    return LoadOutcome {
                        snapshot: Some(snap),
                        from_previous,
                        rejects,
                    };
                }
                Err(reason) => {
                    self.count(|s| match reason {
                        RejectReason::BadHeader => s.rejected_bad_header += 1,
                        RejectReason::StaleVersion => s.rejected_stale_version += 1,
                        RejectReason::TornTail => s.rejected_torn_tail += 1,
                        RejectReason::ChecksumMismatch => s.rejected_checksum += 1,
                        // A snapshot's header has no key field (the payload
                        // echoes the key, for the resume caller's
                        // `key_matches`), so `decode` never names that rung.
                        RejectReason::Malformed | RejectReason::KeyMismatch => {
                            s.rejected_malformed += 1
                        }
                    });
                    let _ = fs::remove_file(&path);
                    rejects.push((path, reason));
                }
            }
        }
        if !rejects.is_empty() {
            self.count(|s| s.fell_to_zero += 1);
        }
        LoadOutcome {
            snapshot: None,
            from_previous: false,
            rejects,
        }
    }

    /// Drops both rotations for a key — called when a run completes so a
    /// finished job is never "resumed".
    pub fn remove(&self, key: &str) {
        let _ = fs::remove_file(self.path_for(key));
        let _ = fs::remove_file(self.prev_path_for(key));
    }

    fn count(&self, bump: impl FnOnce(&mut StoreStats)) {
        bump(&mut self.stats.lock().unwrap_or_else(|p| p.into_inner()));
    }

    /// A point-in-time copy of every counter.
    pub fn stats(&self) -> StoreStats {
        self.stats.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "limpet-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(state_len: usize) -> Snapshot {
        Snapshot {
            model: "HodgkinHuxley".into(),
            config: "limpetMLIR-avx512".into(),
            n_cells: 4,
            dt_bits: 0.01f64.to_bits(),
            t_bits: 1.23f64.to_bits(),
            steps_done: 321,
            tier: "optimized".into(),
            executed_steps: 4321,
            nan_plan: Some((9, 77)),
            shards: vec![2, 1, 1],
            meta: Some(r#"{"verb":"submit","id":"j-1"}"#.into()),
            state: (0..state_len as u64)
                .map(|i| i.wrapping_mul(0x9e37))
                .collect(),
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        for snap in [
            sample(19),
            Snapshot {
                nan_plan: None,
                shards: Vec::new(),
                meta: None,
                state: vec![
                    f64::NAN.to_bits(),
                    f64::NAN.to_bits() | 0xdead_beef, // NaN payload
                    (-f64::NAN).to_bits(),
                    f64::INFINITY.to_bits(),
                    f64::NEG_INFINITY.to_bits(),
                    (-0.0f64).to_bits(),
                    5e-324f64.to_bits(), // subnormal
                    0,
                    u64::MAX,
                    u64::from_le_bytes(*b"\nend\nend"), // looks like the trailer
                ],
                ..sample(0)
            },
        ] {
            let bytes = snap.encode();
            assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);
            // The block is the words themselves, little-endian, before `end\n`.
            let block = &bytes[bytes.len() - END.len() - 8 * snap.state.len()..];
            for (w, v) in block.chunks_exact(8).zip(&snap.state) {
                assert_eq!(w, v.to_le_bytes());
            }
        }
    }

    #[test]
    fn version_skew_is_stale_not_misparsed() {
        let bytes = sample(3).encode();
        let prefix = format!("{MAGIC} {SNAPSHOT_FORMAT_VERSION} ");
        let mut skewed = format!("{MAGIC} {} ", SNAPSHOT_FORMAT_VERSION + 1).into_bytes();
        skewed.extend_from_slice(bytes.strip_prefix(prefix.as_bytes()).unwrap());
        assert_eq!(
            Snapshot::decode(&skewed).unwrap_err(),
            RejectReason::StaleVersion
        );
    }

    #[test]
    fn store_saves_rotates_and_loads() {
        let dir = temp_dir("rotate");
        let store = SnapshotStore::new(&dir).unwrap();
        let mut snap = sample(9);
        store.save("job-1", &snap).unwrap();
        snap.steps_done = 640;
        store.save("job-1", &snap).unwrap();
        assert!(store.prev_path_for("job-1").exists());

        let out = store.load("job-1");
        assert_eq!(out.snapshot.unwrap().steps_done, 640);
        assert!(!out.from_previous);

        // Corrupt the current file: the ladder falls to the previous
        // rotation (steps 321) and heals the bad file away.
        let path = store.path_for("job-1");
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 4;
        bytes[at] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let out = store.load("job-1");
        assert_eq!(out.snapshot.unwrap().steps_done, 321);
        assert!(out.from_previous);
        assert_eq!(out.rejects.len(), 1);
        assert!(!path.exists(), "rejected file must self-heal away");

        let stats = store.stats();
        assert_eq!(stats.saved, 2);
        assert_eq!(stats.loaded_current, 1);
        assert_eq!(stats.loaded_previous, 1);
        assert_eq!(stats.rejected_checksum, 1);

        store.remove("job-1");
        assert!(!store.has("job-1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_reject_falls_to_zero_and_heals_both_files() {
        let dir = temp_dir("fallzero");
        let store = SnapshotStore::new(&dir).unwrap();
        let snap = sample(5);
        store.save("j", &snap).unwrap();
        store.save("j", &snap).unwrap();
        for path in [store.path_for("j"), store.prev_path_for("j")] {
            fs::write(&path, b"limpet-checkpoint garbage\n").unwrap();
        }
        let out = store.load("j");
        assert!(out.snapshot.is_none());
        assert_eq!(out.rejects.len(), 2);
        assert!(!store.has("j"));
        assert_eq!(store.stats().fell_to_zero, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_key_is_a_clean_miss_not_a_reject() {
        let dir = temp_dir("miss");
        let store = SnapshotStore::new(&dir).unwrap();
        let out = store.load("nope");
        assert!(out.snapshot.is_none());
        assert!(out.rejects.is_empty());
        assert_eq!(store.stats().fell_to_zero, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_ckpt_faults_drive_the_real_ladder() {
        let dir = temp_dir("inject");
        let store = SnapshotStore::new(&dir).unwrap();
        let snap = sample(17);

        for (spec, expect_prev) in [
            ("ckpt-corrupt@5", true),
            ("ckpt-torn@9", true),
            ("ckpt-stale-version@1", true),
        ] {
            store.remove("j");
            store.save("j", &snap).unwrap();
            store.save("j", &snap).unwrap();
            let _plan = faults::arm(spec).unwrap();
            let out = store.load("j");
            // The fault fires once (on the current file); the previous
            // rotation then serves the identical snapshot.
            assert_eq!(out.snapshot.as_ref(), Some(&snap), "spec {spec}");
            assert_eq!(out.from_previous, expect_prev, "spec {spec}");
            assert_eq!(out.rejects.len(), 1, "spec {spec}");
        }
        let stats = store.stats();
        assert_eq!(stats.rejected_total(), 3);
        assert_eq!(stats.loaded_previous, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_keys_cannot_escape_the_directory() {
        let dir = temp_dir("hostile");
        let store = SnapshotStore::new(&dir).unwrap();
        for key in ["../../etc/passwd", "a/b/c", "..", "x y\nz", ""] {
            let path = store.path_for(key);
            assert!(path.starts_with(&dir), "{key:?} escaped: {path:?}");
            assert!(path.file_name().is_some());
            store.save(key, &sample(1)).unwrap();
            assert!(store.load(key).snapshot.is_some(), "{key:?}");
        }
        // Distinct hostile keys stay distinct via the FNV prefix.
        assert_ne!(store.path_for("a/b"), store.path_for("a_b"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A correctly signed v2 envelope around an arbitrary payload.
    fn signed(payload: &[u8]) -> Vec<u8> {
        store::seal(
            MAGIC,
            &[&SNAPSHOT_FORMAT_VERSION],
            &[],
            payload.len(),
            |out| out.extend_from_slice(payload),
        )
    }

    #[test]
    fn malformed_payload_with_valid_checksum_is_rejected_as_malformed() {
        // Hand-built envelopes whose payload passes the checksum but not
        // the grammar: the last ladder rung.
        assert_eq!(
            Snapshot::decode(&signed(b"model X\nnot-a-field\n")),
            Err(RejectReason::Malformed)
        );

        // The `state` count must describe exactly the bytes between its
        // line and `end\n`. Each hostile count is refused by arithmetic
        // on the payload length — none of them is ever allocated.
        let good = Snapshot {
            meta: None,
            ..sample(2)
        };
        let bytes = good.encode();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let payload = &bytes[header_len..];
        assert_eq!(Snapshot::decode(&signed(payload)).as_ref(), Ok(&good));
        let at = payload.windows(8).position(|w| w == b"state 2\n").unwrap();
        let (keys, block) = (&payload[..at], &payload[at + 8..]);
        let rebuilt = |count: &str, block: &[u8]| {
            let mut p = keys.to_vec();
            p.extend_from_slice(format!("state {count}\n").as_bytes());
            p.extend_from_slice(block);
            signed(&p)
        };
        assert_eq!(Snapshot::decode(&rebuilt("2", block)).as_ref(), Ok(&good));
        let no_end = &block[..block.len() - END.len()];
        let extra_before_end = [no_end, b"\0", END].concat();
        let extra_after_end = [block, b"\n"].concat();
        for (count, block) in [
            ("1", block),                       // bytes left before `end`
            ("3", block),                       // more than the payload holds
            ("2305843009213693952", block),     // 2^61: × 8 overflows to 0
            ("2305843009213693954", block),     // 2^61 + 2: × 8 wraps to 16
            ("18446744073709551615", block),    // usize::MAX
            ("99999999999999999999999", block), // not a usize at all
            ("2", no_end),                      // trailer missing
            ("2", &extra_before_end),
            ("2", &extra_after_end),
            ("0", block), // nothing counted, sixteen bytes there
            ("-2", block),
        ] {
            assert_eq!(
                Snapshot::decode(&rebuilt(count, block)),
                Err(RejectReason::Malformed),
                "state {count} over {} block bytes",
                block.len()
            );
        }
    }

    /// Every save stages in its own file: two threads saving distinct
    /// keys into one store never publish each other's bytes. With the
    /// shared `ckpt.tmp-<pid>` staging name this lost ≈ 40 % of saves
    /// and served the other thread's snapshot for almost every load.
    #[test]
    fn concurrent_saves_of_distinct_keys_do_not_interfere() {
        let dir = temp_dir("two-threads");
        let store = SnapshotStore::new(&dir).unwrap();
        std::thread::scope(|scope| {
            for thread in 0..2u64 {
                let store = &store;
                scope.spawn(move || {
                    let key = format!("job-{thread}");
                    for i in 0..300 {
                        let snap = Snapshot {
                            steps_done: i,
                            executed_steps: thread,
                            model: key.clone(),
                            ..sample(64)
                        };
                        store
                            .save(&key, &snap)
                            .unwrap_or_else(|e| panic!("{key} save {i}: {e}"));
                        let out = store.load(&key);
                        assert_eq!(out.snapshot.as_ref(), Some(&snap), "{key} save {i}");
                        assert!(!out.from_previous, "{key} save {i}");
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!((stats.saved, stats.save_failed), (600, 0));
        assert_eq!(stats.loaded_current, 600);
        assert_eq!(stats.rejected_total(), 0);
        let left: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(left.len(), 4, "two rotations per key, no staging file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_saves_are_counted_and_leave_no_staging_file() {
        let dir = temp_dir("save-failed");
        let store = SnapshotStore::new(&dir).unwrap();
        // Non-empty directories squatting on both rotation paths: the
        // staging file is written, then its rename into place fails.
        for path in [store.path_for("j"), store.prev_path_for("j")] {
            fs::create_dir_all(path.join("occupied")).unwrap();
        }
        assert!(store.save("j", &sample(3)).is_err());
        assert_eq!((store.stats().saved, store.stats().save_failed), (0, 1));
        let staged = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .count();
        assert_eq!(staged, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A daemon killed between staging and rename (ci.sh does it twice on
    /// purpose) leaves a whole snapshot under a staging name that no save
    /// will ever reuse: the next daemon to open the directory removes it.
    #[test]
    fn staging_files_of_killed_writers_are_removed_when_the_store_opens() {
        let dir = temp_dir("orphans");
        let store = SnapshotStore::new(&dir).unwrap();
        store.save("job", &sample(3)).unwrap();
        let snapshot = store.path_for("job");
        let plant = |name: String, age| crate::store::tests::plant_aged(dir.join(name), age);
        let staged = snapshot.file_name().unwrap().to_str().unwrap().to_string();
        let old = Duration::from_secs(120);
        let dead = plant(format!("{staged}.tmp-4242-7"), old);
        let live = plant(format!("{staged}.tmp-4243-0"), Duration::ZERO);
        // Not staged for a snapshot: not ours to judge.
        let foreign = plant("notes.tmp-1-0".to_string(), old);
        assert_eq!(store.stats().orphans_removed, 0);

        let reopened = SnapshotStore::new(&dir).unwrap();
        assert!(!dead.exists());
        assert!(live.exists(), "a young staging file may have a live writer");
        assert!(foreign.exists() && snapshot.exists());
        assert_eq!(reopened.stats().orphans_removed, 1);
        assert_eq!(reopened.load("job").snapshot, Some(sample(3)));
        let _ = fs::remove_dir_all(&dir);
    }
}
