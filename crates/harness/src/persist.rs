//! The durable tier of the kernel cache: one record per compiled kernel,
//! multi-process locking, LRU eviction, and the resumable-sweep journal.
//!
//! [`crate::KernelCache`] is process-lifetime only — every `figures`
//! invocation used to recompile the full roster from scratch. [`DiskCache`]
//! persists each compiled kernel through the round-trips the compiler
//! already owns (IR text via [`limpet_ir::print_module`], bytecode text via
//! [`limpet_vm::serialize_program`], the lookup tables as bytes via
//! [`limpet_vm::encode_luts`]) so a later process can reload the
//! *identical* compilation and produce bit-identical trajectories.
//!
//! Entries (`.lke`) and native containers (`.lso`) are records of
//! [`crate::store`], which owns the header grammar, the atomic write, the
//! reject ladder and the `disk-*` fault injection. What this module adds
//! is what differs per store:
//!
//! * the **fields**: every header stamps the entry format version,
//!   [`limpet_ir::TEXT_FORMAT_VERSION`] and
//!   [`limpet_vm::BYTECODE_FORMAT_VERSION`] (any mismatch means "stale:
//!   recompile", never "try to parse anyway") and repeats the
//!   fingerprint/pipeline/opt key, so a renamed or mislabelled file cannot
//!   serve the wrong kernel;
//! * the **payload grammar**: the IR is re-verified and the bytecode
//!   re-validated on load, so even a checksum collision cannot smuggle in
//!   a malformed kernel;
//! * the directory: one lock for writers, an LRU size cap, and the removal
//!   of what killed writers leave behind.
//!
//! Every rejection degrades to a recompile (reported via
//! [`DiskLoad::Rejected`], which the cache records as an incident) and
//! removes the file, so the recompile's store heals the cache — a corrupt
//! cache can cost time, never correctness.

use crate::cache::{model_fingerprint, CompiledKernel};
use crate::checksum::fnv1a;
use crate::faults::{self, FaultKind};
use crate::sim::{model_info, storage_layout, PipelineKind};
use crate::store::{self, older_than, take_line, Reject, RejectReason};
use limpet_easyml::Model;
use limpet_vm::Kernel;
use std::fmt::{Display, Write as _};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

/// Version of the on-disk entry envelope (header + section framing). Bump
/// on any layout change; old entries are then rejected as stale and
/// recompiled rather than misparsed.
pub const ENTRY_FORMAT_VERSION: u32 = 4;

/// First token of every entry file; anything else is not ours.
const MAGIC: &str = "limpet-kernel-cache";

/// Version of the native shared-object container envelope.
pub const NATIVE_CONTAINER_VERSION: u32 = 2;

/// First token of every native container file.
const NATIVE_MAGIC: &str = "limpet-native-cache";

/// Default size cap: 512 MiB. It must hold what one run stores, or the run
/// evicts its own entries while writing them: the largest is `figures`'
/// full precompile, 43 models × 16 configurations = 688 entries, 387 MiB
/// in entry format 4 (803 MiB in format 2, which evicted 455 of them;
/// `scripts/ci.sh` holds "688 writes, 0 evicted"). A roster under two
/// configurations is 71 MiB.
pub const DEFAULT_CAP_BYTES: u64 = 512 * 1024 * 1024;

/// First backoff delay while waiting for the directory lock; doubles per
/// retry (with deterministic jitter) up to [`LOCK_BACKOFF_CAP`].
const LOCK_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Ceiling on the per-retry lock backoff delay.
const LOCK_BACKOFF_CAP: Duration = Duration::from_millis(32);

/// The identity of one persisted compilation: the same triple that keys
/// the in-memory map, spelled out so it can be embedded in (and checked
/// against) the entry header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryKey {
    /// [`model_fingerprint`] of the checked model.
    pub fingerprint: u64,
    /// The pipeline configuration.
    pub config: PipelineKind,
    /// The bytecode-optimizer toggle the kernel was compiled under.
    pub opt: bool,
}

impl EntryKey {
    /// The key for `model` under `config` with the bytecode-opt toggle
    /// `opt`.
    pub fn new(model: &Model, config: PipelineKind, opt: bool) -> EntryKey {
        EntryKey {
            fingerprint: model_fingerprint(model),
            config,
            opt,
        }
    }

    /// The entry's file name inside the cache directory. The format
    /// version is deliberately *not* part of the name: a newer reader must
    /// find (and reject in-header) a stale entry, not silently shadow it.
    pub fn file_name(&self) -> String {
        format!(
            "entry-{:016x}-{}-{}.lke",
            self.fingerprint,
            self.config.label(),
            u8::from(self.opt)
        )
    }
}

/// The file name of a persisted native shared object, keyed by the
/// emitted-C content fingerprint ([`crate::native::native_fingerprint`]).
/// Like [`EntryKey::file_name`], versions live in the header, not the
/// name, so a newer reader rejects stale containers instead of
/// shadowing them.
pub fn native_file_name(fingerprint: u64) -> String {
    format!("native-{fingerprint:016x}.lso")
}

/// Outcome of a [`DiskCache::load`] (a compilation) or a
/// [`DiskCache::load_native`] (`DiskLoad<Vec<u8>>`, a shared object's
/// bytes).
#[derive(Debug)]
pub enum DiskLoad<T = Box<CompiledKernel>> {
    /// The record was present and passed every rung of the ladder. Bytes
    /// of a shared object have still to be `dlopen`ed and
    /// probation-validated by the caller — the record proves integrity,
    /// not correctness.
    Hit(T),
    /// No record exists for the key (the ordinary cold-start case).
    Miss,
    /// A record exists but was refused (corruption, truncation, stale
    /// version, unparseable payload) and removed. The caller recompiles
    /// and should record the reason as an incident.
    Rejected(Reject),
}

/// The three faults [`store::inject`] may apply to a record read here.
const DISK_FAULTS: [FaultKind; 3] = [
    FaultKind::DiskTruncate,
    FaultKind::DiskCorrupt,
    FaultKind::DiskStaleVersion,
];

/// Monotonic counters for the disk tier (mirrors
/// [`crate::CacheStats`] for the in-memory tier).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Loads that reconstructed a kernel from disk.
    pub hits: u64,
    /// Loads that found an entry and rejected it.
    pub rejects: u64,
    /// Entries successfully written.
    pub writes: u64,
    /// Entries removed by the LRU size-cap sweep.
    pub evictions: u64,
    /// Staging files of killed writers removed (see
    /// [`DiskCache::store`]).
    pub orphans_removed: u64,
    /// Stale (crashed-writer) lock files broken.
    pub stale_locks_broken: u64,
    /// Backoff retries spent waiting for the directory lock (each retry
    /// is one jittered exponential-backoff sleep under contention).
    pub lock_retries: u64,
}

/// A point-in-time scan of the cache directory (the `figures --cache stat`
/// report).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskCacheStatus {
    /// Entry files present.
    pub entries: usize,
    /// Their total size in bytes.
    pub bytes: u64,
    /// The configured size cap in bytes.
    pub cap_bytes: u64,
}

impl DiskCacheStatus {
    /// The scan as one compact JSON object, for `figures --cache stat
    /// --json` and the service daemon's `stats` verb.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"entries\":{},\"bytes\":{},\"cap_bytes\":{}}}",
            self.entries, self.bytes, self.cap_bytes
        )
    }
}

/// The cache directory honoring `LIMPET_CACHE_DIR`, defaulting to
/// `~/.cache/limpet-rs` (falling back to a temp-dir path when `HOME` is
/// unset, e.g. in minimal CI containers).
pub fn default_cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("LIMPET_CACHE_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    match std::env::var("HOME") {
        Ok(home) if !home.is_empty() => Path::new(&home).join(".cache").join("limpet-rs"),
        _ => std::env::temp_dir().join("limpet-rs-cache"),
    }
}

/// Held while mutating the cache directory (store / evict / clear).
/// Readers do not take it: writes are atomic renames, so a reader either
/// sees the old complete entry or the new complete entry.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether `name` is a record of this cache: an entry or a native
/// container.
fn is_record(name: &str) -> bool {
    (name.starts_with("entry-") && name.ends_with(".lke"))
        || (name.starts_with("native-") && name.ends_with(".lso"))
}

/// The durable kernel-cache tier: one checksummed file per
/// `(fingerprint, pipeline, opt)` key under `dir`.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    cap_bytes: AtomicU64,
    lock_timeout_ms: AtomicU64,
    stale_lock_after_ms: AtomicU64,
    hits: AtomicU64,
    rejects: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    orphans_removed: AtomicU64,
    stale_locks_broken: AtomicU64,
    lock_retries: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) a disk cache rooted at `dir`, with the
    /// size cap from `LIMPET_CACHE_CAP_MB` when set, else
    /// [`DEFAULT_CAP_BYTES`].
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created.
    pub fn open(dir: &Path) -> io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        let cap = std::env::var("LIMPET_CACHE_CAP_MB")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|mb| mb.saturating_mul(1024 * 1024))
            .unwrap_or(DEFAULT_CAP_BYTES);
        Ok(DiskCache {
            dir: dir.to_path_buf(),
            cap_bytes: AtomicU64::new(cap),
            lock_timeout_ms: AtomicU64::new(5_000),
            stale_lock_after_ms: AtomicU64::new(store::STALE_AFTER.as_millis() as u64),
            hits: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            orphans_removed: AtomicU64::new(0),
            stale_locks_broken: AtomicU64::new(0),
            lock_retries: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Overrides the size cap (bytes). `0` evicts everything but the
    /// entry just written.
    pub fn set_cap_bytes(&self, cap: u64) {
        self.cap_bytes.store(cap, Ordering::Relaxed);
    }

    /// The current size cap in bytes.
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes.load(Ordering::Relaxed)
    }

    /// Overrides how long a writer waits for the directory lock before
    /// degrading (skipping its store). Tests shrink this.
    pub fn set_lock_timeout(&self, timeout: Duration) {
        self.lock_timeout_ms
            .store(timeout.as_millis() as u64, Ordering::Relaxed);
    }

    /// Overrides how old a lock file must be before it is treated as
    /// abandoned by a crashed writer and broken (10 s by default). Tests
    /// and chaos runs shrink this so lock-holder-crash recovery is fast to
    /// exercise.
    pub fn set_stale_lock_after(&self, age: Duration) {
        self.stale_lock_after_ms
            .store(age.as_millis() as u64, Ordering::Relaxed);
    }

    /// The lock-file path guarding directory mutation — exposed so tests
    /// can simulate a crashed writer.
    pub fn lock_path(&self) -> PathBuf {
        self.dir.join("lock")
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            orphans_removed: self.orphans_removed.load(Ordering::Relaxed),
            stale_locks_broken: self.stale_locks_broken.load(Ordering::Relaxed),
            lock_retries: self.lock_retries.load(Ordering::Relaxed),
        }
    }

    /// `(path, length, mtime)` of every record in the directory.
    fn scan(&self) -> io::Result<Vec<(PathBuf, u64, SystemTime)>> {
        let mut records = Vec::new();
        for item in fs::read_dir(&self.dir)? {
            let item = item?;
            if item.file_name().to_str().is_some_and(is_record) {
                let meta = item.metadata()?;
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                records.push((item.path(), meta.len(), mtime));
            }
        }
        Ok(records)
    }

    /// Removes the staging files killed writers left behind. Staging
    /// happens under the directory lock, so to whoever holds the lock a
    /// staging file older than the stale-lock age is garbage; a younger one
    /// may belong to a slow writer whose lock was broken under it.
    fn remove_orphans_locked(&self) {
        let stale_after = Duration::from_millis(self.stale_lock_after_ms.load(Ordering::Relaxed));
        let removed = store::remove_orphans(&self.dir, is_record, stale_after);
        self.orphans_removed.fetch_add(removed, Ordering::Relaxed);
    }

    /// Scans the directory for the `--cache stat` report.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk I/O errors.
    pub fn status(&self) -> io::Result<DiskCacheStatus> {
        let files = self.scan()?;
        Ok(DiskCacheStatus {
            entries: files.len(),
            bytes: files.iter().map(|(_, len, _)| len).sum(),
            cap_bytes: self.cap_bytes(),
        })
    }

    /// Removes every entry file (the `--cache clear` verb), returning how
    /// many were removed, and the orphaned staging files with them. Takes
    /// the directory lock.
    ///
    /// # Errors
    ///
    /// Returns a description on lock timeout or removal failure.
    pub fn clear(&self) -> Result<usize, String> {
        let _lock = self.acquire_lock()?;
        self.remove_orphans_locked();
        let files = self
            .scan()
            .map_err(|e| format!("cannot scan cache dir: {e}"))?;
        let mut removed = 0;
        for (path, _, _) in files {
            fs::remove_file(&path).map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Takes the directory lock with bounded exponential backoff:
    /// contention sleeps `1ms · 2^attempt` (capped at 32 ms) with
    /// deterministic jitter from [`crate::deadline::backoff_delay`]
    /// (seeded by pid and lock path, so a chaos run's delay schedule is
    /// reproducible), counting each sleep in
    /// [`DiskStats::lock_retries`]. Locks abandoned by a crashed writer
    /// (older than [`DiskCache::set_stale_lock_after`]) are broken.
    fn acquire_lock(&self) -> Result<DirLock, String> {
        let path = self.lock_path();
        let timeout = Duration::from_millis(self.lock_timeout_ms.load(Ordering::Relaxed));
        let stale_after = Duration::from_millis(self.stale_lock_after_ms.load(Ordering::Relaxed));
        let deadline = Instant::now() + timeout;
        let jitter_seed = u64::from(std::process::id()) ^ fnv1a(path.to_string_lossy().as_bytes());
        let mut attempt: u32 = 0;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    let lock = DirLock { path };
                    if faults::take(FaultKind::LockHolderCrash).is_some() {
                        // Simulate a writer that died while holding the
                        // lock: leak the guard so its Drop never removes
                        // the file, and fail the mutation the way a crash
                        // would. Contenders must back off until the lock
                        // ages past the stale threshold, then break it.
                        std::mem::forget(lock);
                        return Err("injected lock-holder crash: lock file abandoned while held"
                            .to_string());
                    }
                    return Ok(lock);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    // Break locks abandoned by a crashed writer.
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .is_ok_and(|mtime| older_than(mtime, stale_after));
                    if stale && fs::remove_file(&path).is_ok() {
                        self.stale_locks_broken.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "timed out waiting for cache lock {} after {attempt} backoff \
                             retries (held by another process?)",
                            path.display()
                        ));
                    }
                    self.lock_retries.fetch_add(1, Ordering::Relaxed);
                    let delay = crate::deadline::backoff_delay(
                        attempt,
                        LOCK_BACKOFF_BASE,
                        LOCK_BACKOFF_CAP,
                        jitter_seed,
                    )
                    .min(deadline.saturating_duration_since(Instant::now()));
                    std::thread::sleep(delay);
                    attempt = attempt.saturating_add(1);
                }
                Err(e) => return Err(format!("cannot create cache lock: {e}")),
            }
        }
    }

    /// Persists a compiled entry for `key`. Quarantined compilations must
    /// never reach this — only successful ones are worth (or safe)
    /// replaying in another process.
    ///
    /// # Errors
    ///
    /// Returns a description on lock timeout or I/O failure; the caller
    /// degrades (keeps the in-memory entry, records an incident).
    pub fn store(
        &self,
        key: &EntryKey,
        model_name: &str,
        entry: &CompiledKernel,
    ) -> Result<(), String> {
        self.put(&key.file_name(), &encode_entry(key, model_name, entry))
    }

    /// Publishes one record atomically ([`store::publish`]) under the
    /// directory lock, then enforces the size cap.
    fn put(&self, file_name: &str, bytes: &[u8]) -> Result<(), String> {
        let _lock = self.acquire_lock()?;
        let final_path = self.dir.join(file_name);
        store::publish(&final_path, bytes).map_err(|e| format!("cannot write {file_name}: {e}"))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.enforce_cap_locked(&final_path);
        Ok(())
    }

    /// Evicts least-recently-used entries (by mtime, which loads refresh)
    /// until the directory fits the cap. The just-written entry is
    /// protected so a tiny cap cannot make every store a self-defeating
    /// write-then-evict. Orphaned staging files go first: they are not
    /// entries, so nothing else would ever count or remove them.
    fn enforce_cap_locked(&self, protect: &Path) {
        let cap = self.cap_bytes();
        self.remove_orphans_locked();
        let Ok(mut files) = self.scan() else {
            return;
        };
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= cap {
            return;
        }
        files.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in files {
            if total <= cap || path == protect {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Loads and reconstructs the entry for `key`, running the full
    /// ladder (see the module docs). Never panics: every failure mode is a
    /// [`DiskLoad::Rejected`] (or [`DiskLoad::Miss`] when no entry exists).
    pub fn load(&self, key: &EntryKey, model: &Model) -> DiskLoad {
        self.get(&key.file_name(), |bytes| {
            decode_entry(bytes, key, model).map(Box::new)
        })
    }

    /// Reads one record, lets any armed `disk-*` fault damage the bytes,
    /// and decodes them. A hit refreshes the file's mtime so LRU eviction
    /// sees it as live (best-effort: a read-only cache dir still serves
    /// hits); a refused file is removed, so that the recompile's store
    /// heals the cache instead of re-rejecting forever.
    fn get<T>(
        &self,
        file_name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, Reject>,
    ) -> DiskLoad<T> {
        let path = self.dir.join(file_name);
        let decoded = match fs::read(&path) {
            Ok(mut bytes) => {
                store::inject(&mut bytes, DISK_FAULTS);
                decode(&bytes)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return DiskLoad::Miss,
            Err(e) => Err(Reject {
                reason: RejectReason::BadHeader,
                detail: format!("unreadable ({e})"),
            }),
        };
        match decoded {
            Ok(loaded) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let _ = fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                DiskLoad::Hit(loaded)
            }
            Err(reject) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                DiskLoad::Rejected(reject)
            }
        }
    }

    /// Persists a probation-validated native shared object as a record
    /// stamped with the container and emitter versions and keyed by
    /// `fingerprint`, like [`DiskCache::store`].
    ///
    /// Callers must only persist objects that passed the bit-identity
    /// probation — quarantined native code never reaches disk.
    ///
    /// # Errors
    ///
    /// Returns a description on lock timeout or I/O failure; the caller
    /// degrades to in-memory-only.
    pub fn store_native(&self, fingerprint: u64, so_bytes: &[u8]) -> Result<(), String> {
        self.put(
            &native_file_name(fingerprint),
            &seal_container(fingerprint, so_bytes),
        )
    }

    /// Loads the persisted shared object for `fingerprint` down the same
    /// ladder as [`DiskCache::load`]. Returns the raw object bytes on
    /// success; the caller still `dlopen`s and re-probates them.
    pub fn load_native(&self, fingerprint: u64) -> DiskLoad<Vec<u8>> {
        self.get(&native_file_name(fingerprint), |bytes| {
            open_container(bytes, fingerprint)
        })
    }

    /// Removes the persisted shared object for `fingerprint`, if any (one
    /// that loaded intact but failed probation).
    pub fn remove_native(&self, fingerprint: u64) {
        let _ = fs::remove_file(self.dir.join(native_file_name(fingerprint)));
    }
}

/// The format stamps of a native container.
const NATIVE_STAMPS: [&dyn Display; 2] = [
    &NATIVE_CONTAINER_VERSION,
    &limpet_codegen::NATIVE_EMITTER_VERSION,
];

/// A native container: the object's bytes under [`NATIVE_STAMPS`] and the
/// fingerprint.
pub(crate) fn seal_container(fingerprint: u64, so_bytes: &[u8]) -> Vec<u8> {
    let key = format_args!("{fingerprint:016x}");
    store::seal(
        NATIVE_MAGIC,
        &NATIVE_STAMPS,
        &[&key],
        so_bytes.len(),
        |out| out.extend_from_slice(so_bytes),
    )
}

/// The object bytes of the native container for `fingerprint`.
pub(crate) fn open_container(bytes: &[u8], fingerprint: u64) -> Result<Vec<u8>, Reject> {
    let key = format_args!("{fingerprint:016x}");
    store::open(bytes, NATIVE_MAGIC, &NATIVE_STAMPS, &[&key]).map(<[u8]>::to_vec)
}

/// The format stamps of an entry.
const ENTRY_STAMPS: [&dyn Display; 3] = [
    &ENTRY_FORMAT_VERSION,
    &limpet_ir::TEXT_FORMAT_VERSION,
    &limpet_vm::BYTECODE_FORMAT_VERSION,
];

impl EntryKey {
    /// The key as an entry's header echoes it.
    fn echo(&self) -> [String; 3] {
        [
            format!("{:016x}", self.fingerprint),
            self.config.label(),
            u8::from(self.opt).to_string(),
        ]
    }
}

/// Serializes one compiled entry into its on-disk byte form — a header
/// line, two framed text sections, and the lookup tables as bytes
/// ([`limpet_vm::encode_luts`], the layout of `.lcp`'s state block):
///
/// ```text
/// limpet-kernel-cache <entry-ver> <ir-ver> <bc-ver> <fp:016x> <label> <opt> <payload-len> <sum:016x>\n
/// model <name>\n
/// section module <len>\n<IR text>\n
/// section program.main <len>\n<bytecode text>\n
/// luts <count>\n
/// lut <lo:016x> <hi:016x> <step:016x> <rows> <cols>\n<rows·cols·8 bytes>\n     per table
/// end\n
/// ```
///
/// One allocation of the final size ([`store::seal`]): the tables are
/// copied into place once.
pub(crate) fn encode_entry(key: &EntryKey, model_name: &str, entry: &CompiledKernel) -> Vec<u8> {
    let mut text = format!("model {model_name}\n");
    for (name, body) in [
        ("module", limpet_ir::print_module(entry.module())),
        (
            "program.main",
            limpet_vm::serialize_program(entry.kernel().program()),
        ),
    ] {
        let _ = writeln!(text, "section {name} {}", body.len());
        text.push_str(&body);
        text.push('\n');
    }
    let luts = entry.kernel().luts();
    let [fp, label, opt] = key.echo();
    store::seal(
        MAGIC,
        &ENTRY_STAMPS,
        &[&fp, &label, &opt],
        text.len() + limpet_vm::encoded_luts_len(luts),
        |out| {
            out.extend_from_slice(text.as_bytes());
            limpet_vm::encode_luts(luts, out);
        },
    )
}

/// Walks the ladder over raw entry bytes and reconstructs the compilation.
pub(crate) fn decode_entry(
    bytes: &[u8],
    key: &EntryKey,
    model: &Model,
) -> Result<CompiledKernel, Reject> {
    let started = Instant::now();
    let [fp, label, opt] = key.echo();
    let payload = store::open(bytes, MAGIC, &ENTRY_STAMPS, &[&fp, &label, &opt])?;
    parse_entry(payload, model, key.opt, started).map_err(|detail| Reject {
        reason: RejectReason::Malformed,
        detail,
    })
}

/// The payload grammar of an entry: the `model` line, two text sections
/// and the table block. `opt` is the key's: whether the program is the
/// optimized one.
fn parse_entry(
    payload: &[u8],
    model: &Model,
    opt: bool,
    started: Instant,
) -> Result<CompiledKernel, String> {
    // Text is validated as UTF-8 section by section; the table block
    // after the sections is bytes and is not.
    let mut rest = payload;
    let recorded_model = take_line(&mut rest)
        .and_then(|line| line.strip_prefix("model "))
        .ok_or("payload missing model line")?;
    if recorded_model != model.name {
        return Err(format!(
            "model mismatch (entry records '{recorded_model}', wanted '{}')",
            model.name
        ));
    }
    let module_text = take_section(&mut rest, "module")?;
    let main_text = take_section(&mut rest, "program.main")?;
    let lut_block = rest;

    let module =
        limpet_ir::parse_module(module_text).map_err(|e| format!("unparseable IR: {e}"))?;
    limpet_ir::verify_module(&module).map_err(|e| format!("IR failed verification: {e}"))?;
    let width = module.attrs.i64_of("vector_width").unwrap_or(1) as usize;
    let info = model_info(model);
    let luts = limpet_vm::decode_luts(lut_block).map_err(|e| format!("bad LUT data: {e}"))?;
    let main_prog =
        limpet_vm::deserialize_program(main_text).map_err(|e| format!("bad main bytecode: {e}"))?;
    let kernel = Kernel::from_parts(module.name(), main_prog, width, &info, luts)
        .map_err(|e| format!("main kernel rejected: {e}"))?;
    let layout = storage_layout(&module);
    // The entry's provenance is visible in the pass report: a disk load
    // shows a single synthetic "disk-load" pass instead of the pipeline.
    let report = limpet_passes::RunReport {
        passes: vec![limpet_pm::PassRun {
            name: "disk-load",
            changed: false,
            duration: started.elapsed(),
            counters: Vec::new(),
        }],
        dumps: Vec::new(),
    };
    Ok(CompiledKernel::from_parts(
        module, kernel, opt, layout, report,
    ))
}

/// Splits the text section `want` — `section <want> <len>\n<len bytes of
/// UTF-8>\n` — off the front of `rest` and returns its body.
fn take_section<'a>(rest: &mut &'a [u8], want: &str) -> Result<&'a str, String> {
    let header = take_line(rest).ok_or_else(|| format!("missing section '{want}'"))?;
    let mut fields = header.split_whitespace();
    let (kw, name, len) = (fields.next(), fields.next(), fields.next());
    if kw != Some("section") || name != Some(want) || fields.next().is_some() {
        return Err(format!("expected section '{want}', found '{header}'"));
    }
    let len: usize = len
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("bad length for section '{want}'"))?;
    if rest.len() <= len {
        return Err(format!("section '{want}' is truncated"));
    }
    let (body, after) = rest.split_at(len);
    let body = std::str::from_utf8(body).map_err(|_| format!("section '{want}' is not UTF-8"))?;
    *rest = after
        .strip_prefix(b"\n")
        .ok_or_else(|| format!("section '{want}' has a bad terminator"))?;
    Ok(body)
}

/// An append-only checkpoint journal making long sweeps resumable: one
/// header line identifying the sweep's options, then one line per
/// completed unit of work. A restarted sweep re-opens the journal, skips
/// everything already recorded, and finishes the remainder; [`Journal::finish`]
/// removes the file once the sweep completes.
///
/// Partial trailing lines (a crash mid-append) are ignored on reopen, and
/// a header mismatch (same path, different options) restarts the journal
/// rather than resuming someone else's sweep.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for a sweep identified by
    /// `header`. Returns the journal and the lines already completed by a
    /// previous run (empty when starting fresh or when the existing file
    /// belongs to a different sweep).
    ///
    /// # Errors
    ///
    /// Propagates file creation/read errors.
    pub fn open(path: &Path, header: &str) -> io::Result<(Journal, Vec<String>)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let existing = fs::read_to_string(path).unwrap_or_default();
        // Only fully-written lines count: a crash mid-append leaves a
        // trailing fragment with no newline, which must be redone.
        let complete = &existing[..existing.rfind('\n').map_or(0, |i| i + 1)];
        let mut lines = complete.lines();
        let resumed = if lines.next() == Some(header) {
            lines.map(String::from).collect()
        } else {
            Vec::new()
        };
        let mut file = if resumed.is_empty() {
            let mut f = fs::File::create(path)?;
            writeln!(f, "{header}")?;
            f
        } else {
            // Truncate any partial trailing fragment, then append.
            let f = fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(complete.len() as u64)?;
            fs::OpenOptions::new().append(true).open(path)?
        };
        file.flush()?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
            resumed,
        ))
    }

    /// Records one completed unit of work (must not contain `\n`). The
    /// line is flushed and synced so it survives a crash immediately
    /// after.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn record(&self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal lines must be single lines");
        let mut f = self.file.lock().unwrap_or_else(|p| p.into_inner());
        writeln!(f, "{line}")?;
        f.flush()?;
        f.sync_data()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Marks the sweep complete: closes and removes the journal file.
    ///
    /// # Errors
    ///
    /// Propagates the removal error.
    pub fn finish(self) -> io::Result<()> {
        drop(self.file);
        fs::remove_file(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_models::model;
    use std::sync::atomic::AtomicUsize;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "limpet-persist-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry_path(cache: &DiskCache, key: &EntryKey) -> PathBuf {
        cache.dir().join(key.file_name())
    }

    fn sample_entry() -> (Model, EntryKey, CompiledKernel) {
        let m = model("Plonsey");
        let key = EntryKey::new(&m, PipelineKind::Baseline, true);
        let entry = CompiledKernel::compile(&m, PipelineKind::Baseline);
        (m, key, entry)
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, entry) = sample_entry();
        cache.store(&key, &m.name, &entry).unwrap();
        match cache.load(&key, &m) {
            DiskLoad::Hit(loaded) => {
                assert_eq!(
                    limpet_ir::print_module(loaded.module()),
                    limpet_ir::print_module(entry.module())
                );
                assert_eq!(loaded.layout(), entry.layout());
                assert_eq!(loaded.pass_report().passes[0].name, "disk-load");
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.rejects, s.writes), (1, 0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_miss_not_a_reject() {
        let dir = temp_dir("miss");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, _) = sample_entry();
        assert!(matches!(cache.load(&key, &m), DiskLoad::Miss));
        assert_eq!(cache.stats().rejects, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn physically_corrupted_entry_is_rejected_and_removed() {
        let dir = temp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, entry) = sample_entry();
        cache.store(&key, &m.name, &entry).unwrap();
        let path = entry_path(&cache, &key);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        match cache.load(&key, &m) {
            DiskLoad::Rejected(reject) => {
                assert_eq!(reject.reason, RejectReason::ChecksumMismatch, "{reject}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(!path.exists(), "bad entry must be dropped for self-heal");
        // Next lookup is a clean miss.
        assert!(matches!(cache.load(&key, &m), DiskLoad::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_rejected() {
        let dir = temp_dir("truncate");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, entry) = sample_entry();
        cache.store(&key, &m.name, &entry).unwrap();
        let path = entry_path(&cache, &key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(cache.load(&key, &m), DiskLoad::Rejected(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_is_rejected_with_a_stale_reason() {
        let dir = temp_dir("stale");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, entry) = sample_entry();
        cache.store(&key, &m.name, &entry).unwrap();
        let path = entry_path(&cache, &key);
        let text = fs::read_to_string(&path).unwrap();
        let patched = text.replacen(
            &format!("{MAGIC} {ENTRY_FORMAT_VERSION} "),
            &format!("{MAGIC} 999999 "),
            1,
        );
        assert_ne!(text, patched, "header must have been patched");
        fs::write(&path, patched).unwrap();
        match cache.load(&key, &m) {
            DiskLoad::Rejected(reject) => {
                assert_eq!(reject.reason, RejectReason::StaleVersion);
                assert!(reject.detail.contains("stale format version"), "{reject}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_entry_cannot_serve_the_wrong_key() {
        let dir = temp_dir("rename");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, entry) = sample_entry();
        cache.store(&key, &m.name, &entry).unwrap();
        // Pretend the file belongs to a different key (as if mis-renamed).
        let other = model("HodgkinHuxley");
        let other_key = EntryKey::new(&other, PipelineKind::Baseline, true);
        fs::copy(entry_path(&cache, &key), entry_path(&cache, &other_key)).unwrap();
        match cache.load(&other_key, &other) {
            DiskLoad::Rejected(reject) => {
                assert_eq!(reject.reason, RejectReason::KeyMismatch);
                assert!(reject.detail.contains("key mismatch"), "{reject}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_removes_oldest_entries_until_under_cap() {
        let dir = temp_dir("evict");
        let cache = DiskCache::open(&dir).unwrap();
        let models = ["Plonsey", "HodgkinHuxley", "BeelerReuter"];
        let mut keys = Vec::new();
        for (i, name) in models.iter().enumerate() {
            let m = model(name);
            let key = EntryKey::new(&m, PipelineKind::Baseline, true);
            let entry = CompiledKernel::compile(&m, PipelineKind::Baseline);
            cache.store(&key, &m.name, &entry).unwrap();
            // Age the earlier entries so LRU order is deterministic.
            let age = SystemTime::now() - Duration::from_secs(100 - i as u64 * 10);
            fs::OpenOptions::new()
                .append(true)
                .open(entry_path(&cache, &key))
                .and_then(|f| f.set_modified(age))
                .unwrap();
            keys.push((m, key));
        }
        // Cap to just the newest entry's size: the two oldest must go.
        let newest = fs::metadata(entry_path(&cache, &keys[2].1)).unwrap().len();
        cache.set_cap_bytes(newest);
        let (m, key) = &keys[2];
        let entry = CompiledKernel::compile(m, PipelineKind::Baseline);
        cache.store(key, &m.name, &entry).unwrap();
        let status = cache.status().unwrap();
        assert_eq!(status.entries, 1, "only the protected newest entry stays");
        assert!(matches!(
            cache.load(&keys[2].1, &keys[2].0),
            DiskLoad::Hit(_)
        ));
        assert!(matches!(cache.load(&keys[0].1, &keys[0].0), DiskLoad::Miss));
        assert!(cache.stats().evictions >= 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_broken_fresh_lock_times_out() {
        let dir = temp_dir("lock");
        let cache = DiskCache::open(&dir).unwrap();
        cache.set_lock_timeout(Duration::from_millis(50));
        let (m, key, entry) = sample_entry();
        // A fresh lock (live writer) must make the store time out.
        fs::write(cache.lock_path(), b"12345").unwrap();
        let err = cache.store(&key, &m.name, &entry).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        // An old lock (crashed writer) must be broken and the store succeed.
        let old = SystemTime::now() - Duration::from_secs(120);
        fs::OpenOptions::new()
            .append(true)
            .open(cache.lock_path())
            .and_then(|f| f.set_modified(old))
            .unwrap();
        cache.store(&key, &m.name, &entry).unwrap();
        assert_eq!(cache.stats().stale_locks_broken, 1);
        assert!(!cache.lock_path().exists(), "lock released after store");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_holder_crash_is_survived_by_backoff_and_stale_break() {
        let _g = faults::TEST_SERIAL
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        faults::disarm_all();
        let dir = temp_dir("crashlock");
        let cache = DiskCache::open(&dir).unwrap();
        cache.set_stale_lock_after(Duration::from_millis(100));
        cache.set_lock_timeout(Duration::from_secs(5));
        let (m, key, entry) = sample_entry();
        faults::arm("lock-holder-crash").unwrap();
        let err = cache.store(&key, &m.name, &entry).unwrap_err();
        assert!(err.contains("lock-holder crash"), "{err}");
        assert!(
            cache.lock_path().exists(),
            "the crash leaves the lock file behind"
        );
        // The next writer retries with backoff until the abandoned lock
        // ages past the stale threshold, breaks it, and completes.
        cache.store(&key, &m.name, &entry).unwrap();
        let s = cache.stats();
        assert!(s.stale_locks_broken >= 1, "{s:?}");
        assert!(s.lock_retries >= 1, "backoff retries were counted: {s:?}");
        assert!(matches!(cache.load(&key, &m), DiskLoad::Hit(_)));
        assert!(!cache.lock_path().exists(), "lock released after store");
        faults::disarm_all();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_entries_and_status_reports_them() {
        let dir = temp_dir("clear");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, entry) = sample_entry();
        cache.store(&key, &m.name, &entry).unwrap();
        let status = cache.status().unwrap();
        assert_eq!(status.entries, 1);
        assert!(status.bytes > 0);
        assert_eq!(cache.clear().unwrap(), 1);
        assert_eq!(cache.status().unwrap().entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn staging_files_of_killed_writers_are_removed_by_the_next_lock_holder() {
        let dir = temp_dir("orphans");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, entry) = sample_entry();
        // What a writer killed between staging and publishing leaves,
        // for an entry and for a native container: one long dead, one that
        // may still be at work.
        let plant = |name: String, age| crate::store::tests::plant_aged(dir.join(name), age);
        let old = Duration::from_secs(120);
        let dead_entry = plant(format!("{}.tmp-4242-0", key.file_name()), old);
        let dead_native = plant(format!("{}.tmp-4242-1", native_file_name(7)), old);
        let live = plant(format!("{}.tmp-4243-0", key.file_name()), Duration::ZERO);
        // Neither an entry nor ours to judge.
        let foreign = plant("notes.tmp-1".to_string(), old);

        cache.store(&key, &m.name, &entry).unwrap();
        assert!(!dead_entry.exists() && !dead_native.exists());
        assert!(live.exists(), "a young staging file may have a live writer");
        assert!(foreign.exists());
        assert_eq!(cache.stats().orphans_removed, 2);
        let status = cache.status().unwrap();
        let stored = fs::metadata(entry_path(&cache, &key)).unwrap().len();
        assert_eq!((status.entries, status.bytes), (1, stored));

        // `clear` sweeps them too, by the same rule.
        let dead_again = plant(format!("{}.tmp-4244-0", key.file_name()), old);
        assert_eq!(cache.clear().unwrap(), 1, "entries removed");
        assert!(!dead_again.exists() && live.exists());
        assert_eq!(cache.stats().orphans_removed, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_resumes_completed_lines_and_ignores_partial_tail() {
        let dir = temp_dir("journal");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        let (j, resumed) = Journal::open(&path, "sweep-v1 cells=100").unwrap();
        assert!(resumed.is_empty());
        j.record("row-a").unwrap();
        j.record("row-b").unwrap();
        drop(j);
        // Simulate a crash mid-append: a trailing fragment with no newline.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "row-c-partial").unwrap();
        drop(f);
        let (j, resumed) = Journal::open(&path, "sweep-v1 cells=100").unwrap();
        assert_eq!(resumed, vec!["row-a".to_string(), "row-b".to_string()]);
        j.record("row-c").unwrap();
        // A different sweep identity restarts instead of resuming.
        drop(j);
        let (j, resumed) = Journal::open(&path, "sweep-v1 cells=200").unwrap();
        assert!(resumed.is_empty(), "mismatched header must not resume");
        j.finish().unwrap();
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn native_container_round_trips_and_rejects_tampering() {
        let dir = temp_dir("native");
        let cache = DiskCache::open(&dir).unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let fp = 0xdead_beef_cafe_f00d;
        cache.store_native(fp, &payload).unwrap();
        match cache.load_native(fp) {
            DiskLoad::Hit(bytes) => assert_eq!(bytes, payload),
            other => panic!("expected hit, got {other:?}"),
        }
        // Unknown fingerprint is a miss.
        assert!(matches!(cache.load_native(fp ^ 1), DiskLoad::Miss));
        // A flipped payload byte fails the checksum.
        let path = dir.join(native_file_name(fp));
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match cache.load_native(fp) {
            DiskLoad::Rejected(reject) => {
                assert_eq!(reject.reason, RejectReason::ChecksumMismatch, "{reject}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(
            !path.exists(),
            "a refused container is removed like an entry"
        );
        // A stale emitter version is rejected before any parse.
        cache.store_native(fp, &payload).unwrap();
        let text = fs::read(&path).unwrap();
        let header_end = text.iter().position(|&b| b == b'\n').unwrap();
        let header = String::from_utf8(text[..header_end].to_vec()).unwrap();
        let stale = header.replacen(
            &format!("{NATIVE_MAGIC} {NATIVE_CONTAINER_VERSION} "),
            &format!("{NATIVE_MAGIC} 999999 "),
            1,
        );
        let mut patched = stale.into_bytes();
        patched.extend_from_slice(&text[header_end..]);
        fs::write(&path, &patched).unwrap();
        match cache.load_native(fp) {
            DiskLoad::Rejected(reject) => {
                assert_eq!(reject.reason, RejectReason::StaleVersion, "{reject}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // A container under another fingerprint's name is refused by its key.
        cache.store_native(fp, &payload).unwrap();
        fs::copy(&path, dir.join(native_file_name(fp ^ 1))).unwrap();
        match cache.load_native(fp ^ 1) {
            DiskLoad::Rejected(reject) => {
                assert_eq!(reject.reason, RejectReason::KeyMismatch, "{reject}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // remove_native clears the slot.
        cache.remove_native(fp);
        assert!(matches!(cache.load_native(fp), DiskLoad::Miss));
        // Native containers count in the directory status scan.
        cache.store_native(fp, &payload).unwrap();
        assert_eq!(cache.status().unwrap().entries, 1);
        assert_eq!(cache.clear().unwrap(), 1, "clear removes native containers");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_dir_honors_env_override() {
        // Can't mutate the environment safely in parallel tests; just
        // check the fallback shape is non-empty and rooted somewhere.
        let dir = default_cache_dir();
        assert!(!dir.as_os_str().is_empty());
    }
}
