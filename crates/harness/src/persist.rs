//! The durable tier of the kernel cache: checksummed on-disk entries,
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
//! Crash-safety and integrity rules, in order of enforcement on load:
//!
//! 1. **Atomic writes** — entries are written to a temp file and renamed
//!    into place, so readers never observe a half-written entry under the
//!    final name.
//! 2. **Version stamps** — every entry header embeds the entry format
//!    version, [`limpet_ir::TEXT_FORMAT_VERSION`], and
//!    [`limpet_vm::BYTECODE_FORMAT_VERSION`]. Any mismatch means "stale:
//!    recompile", never "try to parse anyway".
//! 3. **Key echo** — the header repeats the fingerprint/pipeline/opt key,
//!    so a renamed or mislabelled file cannot serve the wrong kernel.
//! 4. **Length + checksum** — the header carries the payload byte length
//!    and a word-wise FNV-1a checksum over it (`checksum::payload_sum`);
//!    truncation and bit-rot are caught before any parser runs.
//! 5. **Full re-parse + verify** — the IR is re-verified and the bytecode
//!    re-validated on load, so even a checksum collision cannot smuggle in
//!    a malformed kernel.
//!
//! Every rejection degrades to a recompile (reported via
//! [`DiskLoad::Rejected`], which the cache records as an incident) — a
//! corrupt cache can cost time, never correctness. The
//! [`crate::FaultKind::DiskCorrupt`] / `DiskTruncate` / `DiskStaleVersion`
//! injection points mutate the loaded bytes so the real integrity checks,
//! not mocks, exercise those paths.

use crate::cache::{model_fingerprint, CompiledKernel};
use crate::checkpoint::take_line;
use crate::checksum::{fnv1a, payload_sum};
use crate::faults::{self, FaultKind};
use crate::sim::{model_info, storage_layout, PipelineKind};
use limpet_easyml::Model;
use limpet_rng::SmallRng;
use limpet_vm::Kernel;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

/// Version of the on-disk entry envelope (header + section framing). Bump
/// on any layout change; old entries are then rejected as stale and
/// recompiled rather than misparsed.
pub const ENTRY_FORMAT_VERSION: u32 = 3;

/// First token of every entry file; anything else is not ours.
const MAGIC: &str = "limpet-kernel-cache";

/// Version of the native shared-object container envelope.
pub const NATIVE_CONTAINER_VERSION: u32 = 2;

/// First token of every native container file.
const NATIVE_MAGIC: &str = "limpet-native-cache";

/// Default size cap: 512 MiB. It must hold what one run stores, or the run
/// evicts its own entries while writing them: the largest is `figures`'
/// full precompile, 43 models × 16 configurations = 688 entries, 393 MiB
/// in entry format 3 (803 MiB in format 2, which evicted 455 of them;
/// `scripts/ci.sh` holds "688 writes, 0 evicted"). A roster under two
/// configurations is 72 MiB.
pub const DEFAULT_CAP_BYTES: u64 = 512 * 1024 * 1024;

/// A lock file older than this is considered abandoned by a crashed
/// process and is broken (removed) by the next writer. Overridable per
/// cache with [`DiskCache::set_stale_lock_after`] (tests and chaos runs
/// shrink it).
const STALE_LOCK_AFTER: Duration = Duration::from_secs(10);

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

/// Outcome of a [`DiskCache::load_native`].
#[derive(Debug)]
pub enum NativeDiskLoad {
    /// The container passed every envelope check; the payload is the
    /// shared object's bytes. The caller must still `dlopen` and
    /// probation-validate them — the envelope proves integrity, not
    /// correctness.
    Hit(Vec<u8>),
    /// No container exists for the fingerprint.
    Miss,
    /// A container exists but failed an envelope check and should be
    /// removed and recompiled.
    Rejected(String),
}

/// Outcome of a [`DiskCache::load`].
#[derive(Debug)]
pub enum DiskLoad {
    /// The entry was present, passed every integrity check, and
    /// reconstructed into a runnable compilation.
    Hit(Box<CompiledKernel>),
    /// No entry exists for the key (the ordinary cold-start case).
    Miss,
    /// An entry exists but failed an integrity check (corruption,
    /// truncation, stale version, unparseable payload) and was discarded.
    /// The caller recompiles and should record the reason as an incident.
    Rejected(String),
}

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

/// What one walk of the cache directory found.
#[derive(Debug, Default)]
struct DirScan {
    /// `(path, length, mtime)` of every entry (`entry-*.lke`) and native
    /// container (`native-*.lso`).
    entries: Vec<(PathBuf, u64, SystemTime)>,
    /// `(path, mtime)` of every staging file (`<final name>.tmp-<pid>`).
    staging: Vec<(PathBuf, SystemTime)>,
}

/// Whether `mtime` lies more than `age` in the past.
fn older_than(mtime: SystemTime, age: Duration) -> bool {
    SystemTime::now()
        .duration_since(mtime)
        .is_ok_and(|elapsed| elapsed > age)
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
            stale_lock_after_ms: AtomicU64::new(STALE_LOCK_AFTER.as_millis() as u64),
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
    /// abandoned by a crashed writer and broken. Tests and chaos runs
    /// shrink this so lock-holder-crash recovery is fast to exercise.
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

    fn entry_path(&self, key: &EntryKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Walks the cache directory once.
    fn scan(&self) -> io::Result<DirScan> {
        let is_entry = |n: &str| {
            (n.starts_with("entry-") && n.ends_with(".lke"))
                || (n.starts_with("native-") && n.ends_with(".lso"))
        };
        let mut scan = DirScan::default();
        for item in fs::read_dir(&self.dir)? {
            let item = item?;
            let name = item.file_name();
            let Some(name) = name.to_str() else { continue };
            let staged_for = name
                .rsplit_once(".tmp-")
                .map(|(final_name, _pid)| final_name);
            if !is_entry(staged_for.unwrap_or(name)) {
                continue;
            }
            let meta = item.metadata()?;
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            if staged_for.is_some() {
                scan.staging.push((item.path(), mtime));
            } else {
                scan.entries.push((item.path(), meta.len(), mtime));
            }
        }
        Ok(scan)
    }

    /// Removes the staging files a killed writer left behind. Staging
    /// happens under the directory lock, so to whoever holds the lock a
    /// staging file older than the stale-lock age is garbage; a younger one
    /// may belong to a slow writer whose lock was broken under it.
    fn remove_orphans_locked(&self, staging: &[(PathBuf, SystemTime)]) {
        let stale_after = Duration::from_millis(self.stale_lock_after_ms.load(Ordering::Relaxed));
        for (path, mtime) in staging {
            if older_than(*mtime, stale_after) && fs::remove_file(path).is_ok() {
                self.orphans_removed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Scans the directory for the `--cache stat` report.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk I/O errors.
    pub fn status(&self) -> io::Result<DiskCacheStatus> {
        let files = self.scan()?.entries;
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
        let scan = self
            .scan()
            .map_err(|e| format!("cannot scan cache dir: {e}"))?;
        self.remove_orphans_locked(&scan.staging);
        let mut removed = 0;
        for (path, _, _) in scan.entries {
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

    /// Persists a compiled entry for `key`, atomically (temp file +
    /// rename) and under the directory lock, then enforces the size cap.
    /// Quarantined compilations must never reach this — only successful
    /// ones are worth (or safe) replaying in another process.
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
        let bytes = encode_entry(key, model_name, entry);
        let _lock = self.acquire_lock()?;
        let final_path = self.entry_path(key);
        let tmp_path = self
            .dir
            .join(format!("{}.tmp-{}", key.file_name(), std::process::id()));
        let write = || -> io::Result<()> {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            // Flush to the device before the rename publishes the entry,
            // so a crash cannot leave a complete-looking empty file.
            f.sync_all()?;
            fs::rename(&tmp_path, &final_path)
        };
        if let Err(e) = write() {
            let _ = fs::remove_file(&tmp_path);
            return Err(format!("cannot write cache entry: {e}"));
        }
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
        let Ok(scan) = self.scan() else {
            return;
        };
        self.remove_orphans_locked(&scan.staging);
        let mut files = scan.entries;
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
    /// integrity ladder (see the module docs). Never panics: every
    /// failure mode is a [`DiskLoad::Rejected`] (or [`DiskLoad::Miss`]
    /// when no entry exists).
    pub fn load(&self, key: &EntryKey, model: &Model) -> DiskLoad {
        let path = self.entry_path(key);
        let mut bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return DiskLoad::Miss,
            Err(e) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                return DiskLoad::Rejected(format!("unreadable entry: {e}"));
            }
        };
        inject_disk_faults(&mut bytes);
        match decode_entry(&bytes, key, model) {
            Ok(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Refresh mtime so LRU eviction sees this entry as live.
                // Best-effort: a read-only cache dir still serves hits.
                let _ = fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                DiskLoad::Hit(Box::new(entry))
            }
            Err(reason) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                // Drop the bad file so the recompile's store self-heals
                // the cache instead of re-rejecting forever.
                let _ = fs::remove_file(&path);
                DiskLoad::Rejected(reason)
            }
        }
    }

    /// Persists a probation-validated native shared object, atomically
    /// and under the directory lock, like [`DiskCache::store`]. The
    /// envelope stamps the container and emitter versions and carries a
    /// word-wise FNV-1a checksum over the object bytes.
    ///
    /// Callers must only persist objects that passed the bit-identity
    /// probation — quarantined native code never reaches disk.
    ///
    /// # Errors
    ///
    /// Returns a description on lock timeout or I/O failure; the caller
    /// degrades to in-memory-only.
    pub fn store_native(&self, fingerprint: u64, so_bytes: &[u8]) -> Result<(), String> {
        let header = format!(
            "{NATIVE_MAGIC} {NATIVE_CONTAINER_VERSION} {} {fingerprint:016x} {} {:016x}\n",
            limpet_codegen::NATIVE_EMITTER_VERSION,
            so_bytes.len(),
            payload_sum(so_bytes),
        );
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(so_bytes);
        let _lock = self.acquire_lock()?;
        let final_path = self.dir.join(native_file_name(fingerprint));
        let tmp_path = self.dir.join(format!(
            "{}.tmp-{}",
            native_file_name(fingerprint),
            std::process::id()
        ));
        let write = || -> io::Result<()> {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp_path, &final_path)
        };
        if let Err(e) = write() {
            let _ = fs::remove_file(&tmp_path);
            return Err(format!("cannot write native container: {e}"));
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.enforce_cap_locked(&final_path);
        Ok(())
    }

    /// Loads the persisted shared object for `fingerprint`, running the
    /// envelope's integrity ladder (magic, versions, key echo, length,
    /// checksum). Returns the raw object bytes on success; the caller
    /// still `dlopen`s and re-probates them.
    pub fn load_native(&self, fingerprint: u64) -> NativeDiskLoad {
        let path = self.dir.join(native_file_name(fingerprint));
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return NativeDiskLoad::Miss,
            Err(e) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                return NativeDiskLoad::Rejected(format!("unreadable container: {e}"));
            }
        };
        match decode_native(&bytes, fingerprint) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Refresh mtime so LRU eviction sees the object as live.
                let _ = fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                NativeDiskLoad::Hit(payload)
            }
            Err(reason) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                NativeDiskLoad::Rejected(reason)
            }
        }
    }

    /// Removes the persisted shared object for `fingerprint`, if any
    /// (rejected containers self-heal this way).
    pub fn remove_native(&self, fingerprint: u64) {
        let _ = fs::remove_file(self.dir.join(native_file_name(fingerprint)));
    }
}

/// Envelope checks for a native container; returns the object payload.
fn decode_native(bytes: &[u8], fingerprint: u64) -> Result<Vec<u8>, String> {
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing header line")?;
    let header =
        std::str::from_utf8(&bytes[..header_end]).map_err(|_| "header is not UTF-8".to_string())?;
    let tokens: Vec<&str> = header.split_whitespace().collect();
    let [magic, container_ver, emitter_ver, fp, payload_len, checksum] = tokens[..] else {
        return Err(format!(
            "malformed header ({} fields, expected 6)",
            tokens.len()
        ));
    };
    if magic != NATIVE_MAGIC {
        return Err(format!("bad magic '{magic}'"));
    }
    let want = (
        NATIVE_CONTAINER_VERSION.to_string(),
        limpet_codegen::NATIVE_EMITTER_VERSION.to_string(),
    );
    if (container_ver, emitter_ver) != (&want.0, &want.1) {
        return Err(format!(
            "stale native container (container {container_ver}, emitter {emitter_ver}; this build wants {}/{})",
            want.0, want.1
        ));
    }
    let fp = u64::from_str_radix(fp, 16).map_err(|_| format!("bad fingerprint '{fp}'"))?;
    if fp != fingerprint {
        return Err(format!(
            "key mismatch (container is {fp:016x}, wanted {fingerprint:016x})"
        ));
    }
    let payload_len: usize = payload_len
        .parse()
        .map_err(|_| format!("bad payload length '{payload_len}'"))?;
    let checksum =
        u64::from_str_radix(checksum, 16).map_err(|_| format!("bad checksum '{checksum}'"))?;
    let payload = &bytes[header_end + 1..];
    if payload.len() != payload_len {
        return Err(format!(
            "truncated container (payload {} bytes, header promises {payload_len})",
            payload.len()
        ));
    }
    let got = payload_sum(payload);
    if got != checksum {
        return Err(format!(
            "checksum mismatch (computed {got:016x}, header says {checksum:016x})"
        ));
    }
    Ok(payload.to_vec())
}

/// Applies at most one armed disk-fault plan to the just-read entry
/// bytes (so a spec arming several disk faults spreads them across
/// consecutive loads instead of piling onto the first). The mutations
/// are deliberately fed through the *real* integrity checks — the test
/// asserts the rejection, not the mutation.
fn inject_disk_faults(bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    if let Some(seed) = faults::take(FaultKind::DiskCorrupt) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 0x20;
        return;
    }
    if let Some(seed) = faults::take(FaultKind::DiskTruncate) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let keep = rng.gen_range(0..bytes.len());
        bytes.truncate(keep);
        return;
    }
    if faults::take(FaultKind::DiskStaleVersion).is_some() {
        // Rewrite the entry-format-version token in the header, as if the
        // file had been written by an incompatible limpet-rs build.
        let header_end = bytes
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or(bytes.len());
        if let Ok(header) = std::str::from_utf8(&bytes[..header_end]) {
            let mut tokens: Vec<String> = header.split_whitespace().map(String::from).collect();
            if tokens.len() >= 2 {
                tokens[1] = "999999".to_string();
                let mut patched = tokens.join(" ").into_bytes();
                patched.extend_from_slice(&bytes[header_end..]);
                *bytes = patched;
            }
        }
    }
}

/// Serializes one compiled entry into its on-disk byte form — a header
/// line, three framed text sections, and the lookup tables as bytes
/// ([`limpet_vm::encode_luts`], the layout of `.lcp`'s state block):
///
/// ```text
/// limpet-kernel-cache <entry-ver> <ir-ver> <bc-ver> <fp:016x> <label> <opt> <payload-len> <sum:016x>\n
/// model <name>\n
/// section module <len>\n<IR text>\n
/// section program.main <len>\n<bytecode text>\n
/// section program.raw <len>\n<bytecode text>\n
/// luts <count>\n
/// lut <lo:016x> <hi:016x> <step:016x> <rows> <cols>\n<rows·cols·8 bytes>\n     per table
/// end\n
/// ```
///
/// One allocation of the final size: the tables are copied into place
/// once and the checksum patched into the header afterwards.
fn encode_entry(key: &EntryKey, model_name: &str, entry: &CompiledKernel) -> Vec<u8> {
    let mut text = format!("model {model_name}\n");
    for (name, body) in [
        ("module", limpet_ir::print_module(entry.module())),
        (
            "program.main",
            limpet_vm::serialize_program(entry.kernel().program()),
        ),
        (
            "program.raw",
            limpet_vm::serialize_program(entry.raw_kernel().program()),
        ),
    ] {
        let _ = writeln!(text, "section {name} {}", body.len());
        text.push_str(&body);
        text.push('\n');
    }
    let luts = entry.kernel().luts();
    let payload_len = text.len() + limpet_vm::encoded_luts_len(luts);
    let mut out = format!(
        "{MAGIC} {ENTRY_FORMAT_VERSION} {} {} {:016x} {} {} {payload_len} ",
        limpet_ir::TEXT_FORMAT_VERSION,
        limpet_vm::BYTECODE_FORMAT_VERSION,
        key.fingerprint,
        key.config.label(),
        u8::from(key.opt),
    )
    .into_bytes();
    let sum_at = out.len();
    out.reserve_exact(17 + payload_len);
    out.extend_from_slice(b"0000000000000000\n"); // the sum, once the payload is there
    let payload_at = out.len();
    out.extend_from_slice(text.as_bytes());
    limpet_vm::encode_luts(luts, &mut out);
    debug_assert_eq!(out.len() - payload_at, payload_len);
    let sum = format!("{:016x}", payload_sum(&out[payload_at..]));
    out[sum_at..sum_at + 16].copy_from_slice(sum.as_bytes());
    out
}

/// Runs the integrity ladder over raw entry bytes and reconstructs the
/// compilation. Every failure is a `String` reason (mapped to
/// [`DiskLoad::Rejected`] by the caller).
fn decode_entry(bytes: &[u8], key: &EntryKey, model: &Model) -> Result<CompiledKernel, String> {
    let started = Instant::now();
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing header line")?;
    let header =
        std::str::from_utf8(&bytes[..header_end]).map_err(|_| "header is not UTF-8".to_string())?;
    let tokens: Vec<&str> = header.split_whitespace().collect();
    let [magic, entry_ver, ir_ver, bc_ver, fp, label, opt, payload_len, checksum] = tokens[..]
    else {
        return Err(format!(
            "malformed header ({} fields, expected 9)",
            tokens.len()
        ));
    };
    if magic != MAGIC {
        return Err(format!("bad magic '{magic}'"));
    }
    let want_vers = (
        ENTRY_FORMAT_VERSION.to_string(),
        limpet_ir::TEXT_FORMAT_VERSION.to_string(),
        limpet_vm::BYTECODE_FORMAT_VERSION.to_string(),
    );
    if (entry_ver, ir_ver, bc_ver) != (&want_vers.0, &want_vers.1, &want_vers.2) {
        return Err(format!(
            "stale format version (entry {entry_ver}, ir {ir_ver}, bc {bc_ver}; this build wants {}/{}/{})",
            want_vers.0, want_vers.1, want_vers.2
        ));
    }
    let fp = u64::from_str_radix(fp, 16).map_err(|_| format!("bad fingerprint '{fp}'"))?;
    if fp != key.fingerprint || label != key.config.label() || opt != u8::from(key.opt).to_string()
    {
        return Err(format!(
            "key mismatch (entry is {fp:016x}/{label}/{opt}, wanted {:016x}/{}/{})",
            key.fingerprint,
            key.config.label(),
            u8::from(key.opt)
        ));
    }
    let payload_len: usize = payload_len
        .parse()
        .map_err(|_| format!("bad payload length '{payload_len}'"))?;
    let checksum =
        u64::from_str_radix(checksum, 16).map_err(|_| format!("bad checksum '{checksum}'"))?;
    let payload = &bytes[header_end + 1..];
    if payload.len() != payload_len {
        return Err(format!(
            "truncated entry (payload {} bytes, header promises {payload_len})",
            payload.len()
        ));
    }
    let got = payload_sum(payload);
    if got != checksum {
        return Err(format!(
            "checksum mismatch (computed {got:016x}, header says {checksum:016x})"
        ));
    }
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
    let raw_text = take_section(&mut rest, "program.raw")?;
    let lut_block = rest;

    let module =
        limpet_ir::parse_module(module_text).map_err(|e| format!("unparseable IR: {e}"))?;
    limpet_ir::verify_module(&module).map_err(|e| format!("IR failed verification: {e}"))?;
    let width = module.attrs.i64_of("vector_width").unwrap_or(1) as usize;
    let info = model_info(model);
    let luts = limpet_vm::decode_luts(lut_block).map_err(|e| format!("bad LUT data: {e}"))?;
    let main_prog =
        limpet_vm::deserialize_program(main_text).map_err(|e| format!("bad main bytecode: {e}"))?;
    let raw_prog =
        limpet_vm::deserialize_program(raw_text).map_err(|e| format!("bad raw bytecode: {e}"))?;
    // As in a cold compile, the pair shares one copy of the tables.
    let kernel = Kernel::from_parts(module.name(), main_prog, width, &info, luts)
        .map_err(|e| format!("main kernel rejected: {e}"))?;
    let raw_kernel = kernel
        .with_program(raw_prog)
        .map_err(|e| format!("raw kernel rejected: {e}"))?;
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
        module, kernel, raw_kernel, layout, report,
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
        let path = cache.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        match cache.load(&key, &m) {
            DiskLoad::Rejected(reason) => {
                assert!(
                    reason.contains("checksum") || reason.contains("UTF-8"),
                    "unexpected reason: {reason}"
                )
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
        let path = cache.entry_path(&key);
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
        let path = cache.entry_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        let patched = text.replacen(
            &format!("{MAGIC} {ENTRY_FORMAT_VERSION} "),
            &format!("{MAGIC} 999999 "),
            1,
        );
        assert_ne!(text, patched, "header must have been patched");
        fs::write(&path, patched).unwrap();
        match cache.load(&key, &m) {
            DiskLoad::Rejected(reason) => assert!(reason.contains("stale"), "{reason}"),
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
        fs::rename(cache.entry_path(&key), cache.entry_path(&other_key)).unwrap();
        match cache.load(&other_key, &other) {
            DiskLoad::Rejected(reason) => assert!(reason.contains("key mismatch"), "{reason}"),
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
                .open(cache.entry_path(&key))
                .and_then(|f| f.set_modified(age))
                .unwrap();
            keys.push((m, key));
        }
        // Cap to just the newest entry's size: the two oldest must go.
        let newest = fs::metadata(cache.entry_path(&keys[2].1)).unwrap().len();
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
        // What a writer killed between `File::create` and `rename` leaves,
        // for an entry and for a native container: one long dead, one that
        // may still be at work.
        let plant = |name: String, age: Duration| {
            let path = dir.join(name);
            fs::write(&path, vec![0u8; 4096]).unwrap();
            fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .and_then(|f| f.set_modified(SystemTime::now() - age))
                .unwrap();
            path
        };
        let old = Duration::from_secs(120);
        let dead_entry = plant(format!("{}.tmp-4242", key.file_name()), old);
        let dead_native = plant(format!("{}.tmp-4242", native_file_name(7)), old);
        let live = plant(format!("{}.tmp-4243", key.file_name()), Duration::ZERO);
        // Neither an entry nor ours to judge.
        let foreign = plant("notes.tmp-1".to_string(), old);

        cache.store(&key, &m.name, &entry).unwrap();
        assert!(!dead_entry.exists() && !dead_native.exists());
        assert!(live.exists(), "a young staging file may have a live writer");
        assert!(foreign.exists());
        assert_eq!(cache.stats().orphans_removed, 2);
        let status = cache.status().unwrap();
        let stored = fs::metadata(cache.entry_path(&key)).unwrap().len();
        assert_eq!((status.entries, status.bytes), (1, stored));

        // `clear` sweeps them too, by the same rule.
        let dead_again = plant(format!("{}.tmp-4244", key.file_name()), old);
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
            NativeDiskLoad::Hit(bytes) => assert_eq!(bytes, payload),
            other => panic!("expected hit, got {other:?}"),
        }
        // Unknown fingerprint is a miss.
        assert!(matches!(cache.load_native(fp ^ 1), NativeDiskLoad::Miss));
        // A flipped payload byte fails the checksum.
        let path = dir.join(native_file_name(fp));
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match cache.load_native(fp) {
            NativeDiskLoad::Rejected(reason) => {
                assert!(reason.contains("checksum"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
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
            NativeDiskLoad::Rejected(reason) => assert!(reason.contains("stale"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        // remove_native clears the slot.
        cache.remove_native(fp);
        assert!(matches!(cache.load_native(fp), NativeDiskLoad::Miss));
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
