//! The durable tier of the kernel cache: one entry per compiled kernel,
//! one table record per model's lookup tables, multi-process locking, LRU
//! eviction, and the resumable-sweep journal.
//!
//! [`crate::KernelCache`] is process-lifetime only — every `figures`
//! invocation used to recompile the full roster from scratch. [`DiskCache`]
//! persists each compiled kernel through the round-trips the compiler
//! already owns (bytecode text via [`limpet_vm::serialize_program`], the
//! lookup tables as bytes via [`limpet_vm::encode_luts`]) so a later
//! process can reload the *identical* compilation and produce
//! bit-identical trajectories. No IR is stored: a loaded entry, like a cold
//! one, builds its module from the model on first use
//! ([`CompiledKernel::try_module`]), and takes its width and layout from
//! its key's configuration.
//!
//! The tables belong to the model, not to the configuration: every
//! configuration of a model that tabulates the same tables names the same
//! table record (`.lkt`, keyed by the model's fingerprint and the tables'
//! payload sum), which is written once and read once per [`DiskCache`]:
//! the entries loaded through one cache read one copy of it. Sharing one
//! copy among a process's kernels is [`crate::KernelCache`]'s, with or
//! without this tier.
//!
//! A table record is mapped read-only, and its tables read their values
//! where they lie in the mapping ([`limpet_vm::decode_luts`]), each
//! table's values padded to an 8-aligned offset of the record. The mapping
//! lives as long as a table over it, and stays valid after its file is
//! gone: this crate replaces a record only by rename and removes it only
//! by unlink. A record truncated in place by another program ends the
//! process with `SIGBUS`; the cache directory is this crate's alone. A
//! load with a `disk-*` fault armed, or one the kernel refuses to map,
//! reads the record into a buffer of its own instead, which goes to the
//! same ladder and decoder.
//!
//! Entries (`.lke`), table records (`.lkt`) and native containers (`.lso`)
//! are records of [`crate::store`], which owns the header grammar, the
//! atomic write, the reject ladder and the `disk-*` fault injection. What
//! this module adds is what differs per store:
//!
//! * the **fields**: every header stamps the entry format version (an
//!   entry also [`limpet_ir::TEXT_FORMAT_VERSION`] and
//!   [`limpet_vm::BYTECODE_FORMAT_VERSION`]; any mismatch means "stale:
//!   recompile", never "try to parse anyway") and repeats its key, so a
//!   renamed or mislabelled file cannot serve the wrong kernel or tables;
//! * the **payload grammar**: on load the bytecode is re-validated and
//!   the kernel re-checked against the current model and its tables, so
//!   even a checksum collision cannot smuggle in a malformed kernel;
//! * the directory: one lock for writers, an LRU size cap, and the removal
//!   of what killed writers leave behind.
//!
//! Every rejection degrades to a recompile (reported via
//! [`DiskLoad::Rejected`], which the cache records as an incident) and
//! removes the file — an entry whose table record is missing or refused is
//! rejected with it — so the recompile's store heals the cache: a corrupt
//! cache can cost time, never correctness.

use crate::cache::{model_fingerprint, CompiledKernel};
use crate::checksum::fnv1a;
use crate::faults::{self, FaultKind};
use crate::sim::{model_info, PipelineKind};
use crate::store::{self, older_than, take_line, Reject, RejectReason};
use limpet_easyml::Model;
use limpet_vm::{Kernel, LutBytes, LutData};
use std::collections::{HashMap, HashSet};
use std::fmt::{Display, Write as _};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant, SystemTime};

/// Version of the on-disk entry and table-record envelopes (header +
/// section framing + table block). Bump on any layout change; old records
/// are then rejected as stale and recompiled rather than misparsed. Format
/// 7 is format 6 under the four-lane [`crate::checksum::payload_sum`];
/// format 8 pads each table's values to start 8-aligned in the record.
pub const ENTRY_FORMAT_VERSION: u32 = 8;

/// First token of every entry file; anything else is not ours.
const MAGIC: &str = "limpet-kernel-cache";

/// First token of every table record.
const TABLES_MAGIC: &str = "limpet-lut-tables";

/// Version of the native shared-object container envelope (3: the
/// four-lane payload sum).
pub const NATIVE_CONTAINER_VERSION: u32 = 3;

/// First token of every native container file.
const NATIVE_MAGIC: &str = "limpet-native-cache";

/// Default size cap: 512 MiB. It must hold what one run stores, or the run
/// evicts its own records while writing them: the largest is `figures`'
/// full precompile, 43 models × 16 configurations = 688 entries and 117
/// table records, 45.9 MiB in entry formats 6 and 7 (64.8 MiB in format 5, which
/// also stored each printed module; 387 MiB in format 4, where every entry
/// carried its tables; 803 MiB in format 2, which evicted 455 entries;
/// `scripts/ci.sh` holds "688 writes, 0 evicted" and 70 MiB). A roster
/// under two configurations is 86 entries and 43 table records, 34 MiB.
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

/// The identity of one table record: the fingerprint of the model whose
/// tables it holds and the [`crate::checksum::payload_sum`] of the tables'
/// bytes, so every configuration of the model that tabulates the same
/// tables names the same record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct TableKey {
    /// [`model_fingerprint`] of the model.
    pub(crate) fingerprint: u64,
    /// The payload sum of the record's payload, the
    /// [`limpet_vm::encode_luts`] block.
    pub(crate) sum: u64,
}

impl TableKey {
    /// The record's file name inside the cache directory.
    pub(crate) fn file_name(&self) -> String {
        format!("luts-{:016x}-{:016x}.lkt", self.fingerprint, self.sum)
    }

    /// The key as the record's header echoes it.
    fn echo(&self) -> [String; 2] {
        [
            format!("{:016x}", self.fingerprint),
            format!("{:016x}", self.sum),
        ]
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
    /// Entry files and native containers present.
    pub entries: usize,
    /// Table records present.
    pub tables: usize,
    /// The total size of every record in bytes, tables included.
    pub bytes: u64,
    /// The configured size cap in bytes.
    pub cap_bytes: u64,
}

impl DiskCacheStatus {
    /// The scan as one compact JSON object, for `figures --cache stat
    /// --json` and the service daemon's `stats` verb.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"entries\":{},\"tables\":{},\"bytes\":{},\"cap_bytes\":{}}}",
            self.entries, self.tables, self.bytes, self.cap_bytes
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

/// Whether `name` is a record of this cache: an entry, a table record or a
/// native container.
fn is_record(name: &str) -> bool {
    (name.starts_with("entry-") && name.ends_with(".lke"))
        || (name.starts_with("luts-") && name.ends_with(".lkt"))
        || (name.starts_with("native-") && name.ends_with(".lso"))
}

/// A record's path, length and mtime.
type Record = (PathBuf, u64, SystemTime);

/// The [`Record`] of `item`, when it is one.
fn record(item: &fs::DirEntry) -> io::Result<Option<Record>> {
    if !item.file_name().to_str().is_some_and(is_record) {
        return Ok(None);
    }
    let meta = item.metadata()?;
    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
    Ok(Some((item.path(), meta.len(), mtime)))
}

/// Whether the record at `path` is a table record.
fn is_tables_path(path: &Path) -> bool {
    path.extension().is_some_and(|ext| ext == "lkt")
}

/// What a [`DiskCache`] knows of the table records in this process.
#[derive(Debug, Default)]
struct Tables {
    /// Per record, the tables as this cache loaded or stored them, while a
    /// kernel still reads them.
    held: HashMap<TableKey, Weak<[LutData]>>,
    /// The file names of the records this cache wrote or read intact and
    /// has not removed since. A file that merely exists does not count: it
    /// may be damaged.
    on_disk: HashSet<String>,
}

/// The durable kernel-cache tier: one checksummed entry per
/// `(fingerprint, pipeline, opt)` key under `dir`, and one table record
/// per model's tables.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    tables: Mutex<Tables>,
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
            tables: Mutex::default(),
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
    fn scan(&self) -> io::Result<Vec<Record>> {
        let mut records = Vec::new();
        for item in fs::read_dir(&self.dir)? {
            records.extend(record(&item?)?);
        }
        Ok(records)
    }

    /// [`DiskCache::scan`] from the one listing that also removes the
    /// staging files killed writers left behind. Staging happens under the
    /// directory lock, so to whoever holds the lock a staging file older
    /// than the stale-lock age is garbage; a younger one may belong to a
    /// slow writer whose lock was broken under it.
    fn sweep_locked(&self) -> io::Result<Vec<Record>> {
        let stale_after = Duration::from_millis(self.stale_lock_after_ms.load(Ordering::Relaxed));
        let (mut records, mut failed) = (Vec::new(), None);
        let removed = store::sweep(&self.dir, is_record, stale_after, |item| {
            match record(item) {
                Ok(r) => records.extend(r),
                Err(e) => failed = Some(e),
            }
        })?;
        self.orphans_removed.fetch_add(removed, Ordering::Relaxed);
        failed.map_or(Ok(records), Err)
    }

    /// Scans the directory for the `--cache stat` report.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk I/O errors.
    pub fn status(&self) -> io::Result<DiskCacheStatus> {
        let files = self.scan()?;
        let tables = files.iter().filter(|(path, ..)| is_tables_path(path));
        Ok(DiskCacheStatus {
            entries: files.len() - tables.clone().count(),
            tables: tables.count(),
            bytes: files.iter().map(|(_, len, _)| len).sum(),
            cap_bytes: self.cap_bytes(),
        })
    }

    /// Removes every record (the `--cache clear` verb) and the orphaned
    /// staging files with them, returning how many entries and native
    /// containers were removed (the table records go too, uncounted).
    /// Takes the directory lock.
    ///
    /// # Errors
    ///
    /// Returns a description on lock timeout or removal failure.
    pub fn clear(&self) -> Result<usize, String> {
        let _lock = self.acquire_lock()?;
        let files = self
            .sweep_locked()
            .map_err(|e| format!("cannot scan cache dir: {e}"))?;
        let mut removed = 0;
        for (path, _, _) in files {
            fs::remove_file(&path).map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            removed += usize::from(!is_tables_path(&path));
        }
        self.tables().on_disk.clear();
        Ok(removed)
    }

    /// What this cache knows of the table records.
    fn tables(&self) -> MutexGuard<'_, Tables> {
        self.tables.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The copy of `luts` this cache already holds for the model
    /// `fingerprint` — the same allocation, or tables equal to them bit for
    /// bit that another configuration loaded or stored — and its record.
    fn held_copy(
        &self,
        fingerprint: u64,
        luts: &Arc<[LutData]>,
    ) -> Option<(TableKey, Arc<[LutData]>)> {
        self.tables()
            .held
            .iter()
            .filter(|(key, _)| key.fingerprint == fingerprint)
            .filter_map(|(key, held)| Some((*key, held.upgrade()?)))
            .find(|(_, held)| limpet_vm::same_luts(held, luts))
    }

    /// Holds `luts` as the tables of record `key`, or returns the copy held
    /// already when that one is equal bit for bit; `None` when the held
    /// copy differs, i.e. two table sets of one model share a sum.
    fn hold(&self, key: TableKey, luts: &Arc<[LutData]>) -> Option<Arc<[LutData]>> {
        let mut tables = self.tables();
        match tables.held.get(&key).and_then(Weak::upgrade) {
            Some(held) => limpet_vm::same_luts(&held, luts).then_some(held),
            None => {
                tables.held.insert(key, Arc::downgrade(luts));
                Some(Arc::clone(luts))
            }
        }
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

    /// Persists a compiled entry for `key` and, unless this cache wrote or
    /// read it intact before, the table record it names — both under one
    /// acquisition of the directory lock, the tables first — and holds the
    /// entry's tables for the loads that name the same record. Quarantined
    /// compilations must never reach this — only successful ones are worth
    /// (or safe) replaying in another process.
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
        let built = entry.kernel().shared_luts();
        // Tables this cache holds already need no encoding to be named.
        let (tables, luts, sealed) = match self.held_copy(key.fingerprint, built) {
            Some((tables, held)) => (tables, held, None),
            None => {
                let (tables, record) = seal_tables(key.fingerprint, built)?;
                (tables, Arc::clone(built), Some(record))
            }
        };
        let bytes = encode_entry(key, model_name, entry, &tables);
        let name = tables.file_name();
        let _lock = self.acquire_lock()?;
        let luts = self.hold(tables, &luts).ok_or_else(|| {
            format!("{name} holds other tables of {model_name} under the same sum")
        })?;
        if !self.tables().on_disk.contains(&name) {
            let record = match sealed {
                Some(record) => record,
                None => seal_tables(key.fingerprint, &luts)?.1,
            };
            self.publish_locked(&name, &record)?;
            self.tables().on_disk.insert(name.clone());
        }
        let entry_path = self.publish_locked(&key.file_name(), &bytes)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.enforce_cap_locked(&[&self.dir.join(name), &entry_path]);
        Ok(())
    }

    /// Publishes the record `file_name` atomically ([`store::publish`]);
    /// the caller holds the directory lock. Returns its path.
    fn publish_locked(&self, file_name: &str, bytes: &[u8]) -> Result<PathBuf, String> {
        let path = self.dir.join(file_name);
        store::publish(&path, bytes).map_err(|e| format!("cannot write {file_name}: {e}"))?;
        Ok(path)
    }

    /// Evicts least-recently-used records (by mtime, which loads refresh)
    /// until the directory fits the cap. The records just written are
    /// protected so a tiny cap cannot make every store a self-defeating
    /// write-then-evict. Orphaned staging files go first: they are not
    /// records, so nothing else would ever count or remove them. An evicted
    /// table record costs every entry that names it a recompile, which
    /// writes it again.
    fn enforce_cap_locked(&self, protect: &[&Path]) {
        let cap = self.cap_bytes();
        let Ok(mut files) = self.sweep_locked() else {
            return;
        };
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= cap {
            return;
        }
        files.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in files {
            if total <= cap || protect.contains(&path.as_path()) {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                if let Some(name) = path.file_name().and_then(|name| name.to_str()) {
                    self.tables().on_disk.remove(name);
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Loads and reconstructs the entry for `key`, running the full
    /// ladder (see the module docs). Never panics: every failure mode is a
    /// [`DiskLoad::Rejected`] (or [`DiskLoad::Miss`] when no entry exists).
    pub fn load(&self, key: &EntryKey, model: &Model) -> DiskLoad {
        self.load_shared(key, &Arc::new(model.clone()))
    }

    /// [`DiskCache::load`] of an entry that is to hold `model` as it is,
    /// shared with the entries of the model a [`crate::KernelCache`] holds.
    pub(crate) fn load_shared(&self, key: &EntryKey, model: &Arc<Model>) -> DiskLoad {
        self.get(&key.file_name(), |bytes| {
            decode_entry(bytes, key, model, |tables| self.load_tables(tables)).map(Box::new)
        })
    }

    /// The tables of record `key`: the copy this cache holds while a kernel
    /// reads it, else the record, mapped, walked down the ladder and then
    /// held — its tables read their values where they lie in the mapping,
    /// which lives as long as they do. A missing or refused record refuses
    /// the entry that names it.
    fn load_tables(&self, key: &TableKey) -> Result<Arc<[LutData]>, Reject> {
        if let Some(held) = self.tables().held.get(key).and_then(Weak::upgrade) {
            return Ok(held);
        }
        let name = key.file_name();
        let loaded = self.read(&name, true, |bytes| open_tables(bytes, key));
        if matches!(loaded, Some(Ok(_))) {
            self.tables().on_disk.insert(name.clone());
        } else {
            self.tables().on_disk.remove(&name);
        }
        match loaded {
            // Tables read beside a copy another thread loaded are that copy,
            // or (under one sum) what this record holds.
            Some(Ok(luts)) => {
                let luts = luts.into();
                Ok(self.hold(*key, &luts).unwrap_or(luts))
            }
            Some(Err(reject)) => Err(Reject {
                reason: reject.reason,
                detail: format!("table record {name}: {reject}"),
            }),
            None => Err(malformed(format!("table record {name} is missing"))),
        }
    }

    /// Reads one record through one descriptor — mapped when `map` asks for
    /// it ([`store::read`], which also lets an armed `disk-*` fault damage a
    /// copy) — and decodes it; `None` when there is no such file. A record
    /// that decodes has its mtime, its LRU clock, refreshed through the same
    /// descriptor (best-effort: a cache dir this process does not own still
    /// serves it); a refused file is removed, so that the recompile's store
    /// heals the cache instead of re-rejecting forever.
    fn read<T>(
        &self,
        file_name: &str,
        map: bool,
        decode: impl FnOnce(LutBytes) -> Result<T, Reject>,
    ) -> Option<Result<T, Reject>> {
        let path = self.dir.join(file_name);
        let unreadable = |e: io::Error| Reject {
            reason: RejectReason::BadHeader,
            detail: format!("unreadable ({e})"),
        };
        let decoded = match fs::File::open(&path) {
            Ok(file) => {
                let decoded = store::read(&file, map, DISK_FAULTS)
                    .map_err(unreadable)
                    .and_then(decode);
                if decoded.is_ok() {
                    let _ = file.set_modified(SystemTime::now());
                }
                decoded
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => Err(unreadable(e)),
        };
        if decoded.is_err() {
            let _ = fs::remove_file(&path);
        }
        Some(decoded)
    }

    /// [`DiskCache::read`] of an entry or a native container, counted.
    fn get<T>(
        &self,
        file_name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, Reject>,
    ) -> DiskLoad<T> {
        match self.read(file_name, false, |bytes| decode((*bytes).as_ref())) {
            Some(Ok(loaded)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                DiskLoad::Hit(loaded)
            }
            Some(Err(reject)) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                DiskLoad::Rejected(reject)
            }
            None => DiskLoad::Miss,
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
        let record = seal_container(fingerprint, so_bytes);
        let _lock = self.acquire_lock()?;
        let path = self.publish_locked(&native_file_name(fingerprint), &record)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.enforce_cap_locked(&[&path]);
        Ok(())
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

/// The format stamps of an entry. It holds no IR text since entry format 6;
/// the IR stamp stays so that every older header has as many fields and
/// reads as stale, not as a bad header.
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
/// line, the framed bytecode text, and the name of its table record:
///
/// ```text
/// limpet-kernel-cache <entry-ver> <ir-ver> <bc-ver> <fp:016x> <label> <opt> <payload-len> <sum:016x>\n
/// model <name>\n
/// section program.main <len>\n<bytecode text>\n
/// tables <tables-sum:016x>\n           names luts-<fp:016x>-<tables-sum:016x>.lkt
/// ```
pub(crate) fn encode_entry(
    key: &EntryKey,
    model_name: &str,
    entry: &CompiledKernel,
    tables: &TableKey,
) -> Vec<u8> {
    let program = limpet_vm::serialize_program(entry.kernel().program());
    let mut text = format!(
        "model {model_name}\nsection program.main {}\n",
        program.len()
    );
    text.push_str(&program);
    let _ = writeln!(text, "\ntables {:016x}", tables.sum);
    let [fp, label, opt] = key.echo();
    store::seal(
        MAGIC,
        &ENTRY_STAMPS,
        &[&fp, &label, &opt],
        text.len(),
        |out| out.extend_from_slice(text.as_bytes()),
    )
}

/// Walks the ladder over raw entry bytes and reconstructs the compilation
/// on the tables `load_tables` returns for the record the entry names.
pub(crate) fn decode_entry(
    bytes: &[u8],
    key: &EntryKey,
    model: &Arc<Model>,
    load_tables: impl FnOnce(&TableKey) -> Result<Arc<[LutData]>, Reject>,
) -> Result<CompiledKernel, Reject> {
    let started = Instant::now();
    let [fp, label, opt] = key.echo();
    let payload = store::open(bytes, MAGIC, &ENTRY_STAMPS, &[&fp, &label, &opt])?;
    parse_entry(payload, model, key, started, load_tables)
}

/// A refusal at the payload rung.
fn malformed(detail: impl Into<String>) -> Reject {
    Reject {
        reason: RejectReason::Malformed,
        detail: detail.into(),
    }
}

/// The payload grammar of an entry: the `model` line, the bytecode section
/// and the `tables` line, for the entry's `key`.
///
/// The kernel runs the stored program at the width of the key's
/// configuration, which [`Kernel::from_parts`] checks against the model and
/// the tables.
fn parse_entry(
    payload: &[u8],
    model: &Arc<Model>,
    key: &EntryKey,
    started: Instant,
    load_tables: impl FnOnce(&TableKey) -> Result<Arc<[LutData]>, Reject>,
) -> Result<CompiledKernel, Reject> {
    let mut rest = payload;
    let recorded_model = take_line(&mut rest)
        .and_then(|line| line.strip_prefix("model "))
        .ok_or_else(|| malformed("payload missing model line"))?;
    if recorded_model != model.name {
        return Err(malformed(format!(
            "model mismatch (entry records '{recorded_model}', wanted '{}')",
            model.name
        )));
    }
    let main_text = take_section(&mut rest, "program.main").map_err(malformed)?;
    let sum = take_line(&mut rest)
        .and_then(|line| line.strip_prefix("tables "))
        .and_then(|sum| {
            u64::from_str_radix(sum, 16)
                .ok()
                .filter(|n| format!("{n:016x}") == sum)
        })
        .ok_or_else(|| malformed("payload missing its tables line"))?;
    if !rest.is_empty() {
        return Err(malformed(format!(
            "{} bytes after the tables line",
            rest.len()
        )));
    }

    let info = model_info(model);
    let main_prog = limpet_vm::deserialize_program(main_text)
        .map_err(|e| malformed(format!("bad main bytecode: {e}")))?;
    let luts = load_tables(&TableKey {
        fingerprint: key.fingerprint,
        sum,
    })?;
    let kernel = Kernel::from_parts(&model.name, main_prog, key.config.lanes(), &info, luts)
        .map_err(|e| malformed(format!("main kernel rejected: {e}")))?;
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
        model, key.config, kernel, key.opt, report,
    ))
}

/// The format stamps of a table record.
const TABLE_STAMPS: [&dyn Display; 1] = [&ENTRY_FORMAT_VERSION];

/// The table record of `luts`, the tables of the model `fingerprint`, and
/// its key — the payload is the [`limpet_vm::encode_luts`] block, each
/// table's values padded with zero bytes to start at a multiple of 8 from
/// the record's first byte:
///
/// ```text
/// limpet-lut-tables <entry-ver> <fp:016x> <tables-sum:016x> <payload-len> <sum:016x>\n
/// luts <count>\n
/// lut <lo:016x> <hi:016x> <step:016x> <rows> <cols>\n<0-7 zero bytes><rows·cols·8 bytes>\n     per table
/// end\n
/// ```
///
/// `tables-sum` is the payload's sum when it is written: the key a
/// configuration's entry names the record by.
///
/// # Errors
///
/// Refuses the rare table set whose padded length spells itself in no
/// header ([`store::seal_placed`]); the caller keeps it in memory.
pub(crate) fn seal_tables(
    fingerprint: u64,
    luts: &[LutData],
) -> Result<(TableKey, Vec<u8>), String> {
    let fp = format!("{fingerprint:016x}");
    let (record, sum) = store::seal_by_sum(
        TABLES_MAGIC,
        &TABLE_STAMPS,
        &[&fp],
        |at| limpet_vm::encoded_luts_len(luts, at),
        |out| limpet_vm::encode_luts(luts, out),
    )
    .ok_or_else(|| format!("the tables of {fp} state no padded length"))?;
    Ok((TableKey { fingerprint, sum }, record))
}

/// The tables of the table record `key` in `bytes` (the grammar of
/// [`limpet_vm::decode_luts`]: nothing after `end`), which read their
/// values where they lie in `bytes` and hold them.
pub(crate) fn open_tables(bytes: LutBytes, key: &TableKey) -> Result<Vec<LutData>, Reject> {
    let [fp, sum] = key.echo();
    let all: &[u8] = (*bytes).as_ref();
    let payload = store::open(all, TABLES_MAGIC, &TABLE_STAMPS, &[&fp, &sum])?;
    limpet_vm::decode_luts(&bytes, all.len() - payload.len()..all.len())
        .map_err(|e| malformed(format!("bad LUT data: {e}")))
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
    fn a_loaded_entry_builds_its_module_on_first_use() {
        let dir = temp_dir("lazy");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, key, entry) = sample_entry();
        assert!(!entry.module_built(), "a cold compile keeps no module");
        cache.store(&key, &m.name, &entry).unwrap();
        let stored = fs::read(entry_path(&cache, &key)).unwrap();
        assert!(!String::from_utf8_lossy(&stored).contains("section module"));
        let DiskLoad::Hit(loaded) = cache.load(&key, &m) else {
            panic!("expected a hit");
        };
        let mut sim = crate::Simulation::with_kernel(
            loaded.kernel().clone(),
            loaded.layout(),
            &crate::Workload::default(),
        );
        sim.run(2);
        // Storing it again writes the same bytes.
        cache.store(&key, &m.name, &loaded).unwrap();
        assert_eq!(fs::read(entry_path(&cache, &key)).unwrap(), stored);
        assert!(
            !loaded.module_built() && !entry.module_built(),
            "running and storing need no module"
        );

        assert_eq!(
            limpet_ir::print_module(loaded.module()),
            limpet_ir::print_module(entry.module())
        );
        assert!(loaded.module_built() && entry.module_built());
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
        let dir = temp_dir("crashlock");
        let cache = DiskCache::open(&dir).unwrap();
        cache.set_stale_lock_after(Duration::from_millis(100));
        cache.set_lock_timeout(Duration::from_secs(5));
        let (m, key, entry) = sample_entry();
        let _plan = faults::arm("lock-holder-crash").unwrap();
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
        let status = cache.status().unwrap();
        assert_eq!((status.entries, status.tables), (0, 0));
        // The cache that cleared the table record writes it again.
        cache.store(&key, &m.name, &entry).unwrap();
        assert!(matches!(
            DiskCache::open(&dir).unwrap().load(&key, &m),
            DiskLoad::Hit(_)
        ));
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
        let stored = fs::metadata(entry_path(&cache, &key)).unwrap().len()
            + fs::metadata(tables_path(&dir)).unwrap().len();
        assert_eq!(
            (status.entries, status.tables, status.bytes),
            (1, 1, stored)
        );

        // `clear` sweeps them too, by the same rule.
        let dead_again = plant(format!("{}.tmp-4244-0", key.file_name()), old);
        assert_eq!(cache.clear().unwrap(), 1, "entries removed");
        assert!(!dead_again.exists() && live.exists());
        assert_eq!(cache.stats().orphans_removed, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    const CONFIGS: [PipelineKind; 2] = [
        PipelineKind::Baseline,
        PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512),
    ];

    /// The one table record in `dir`.
    fn tables_path(dir: &Path) -> PathBuf {
        let mut found = fs::read_dir(dir)
            .unwrap()
            .map(|item| item.unwrap().path())
            .filter(|path| is_tables_path(path));
        let path = found.next().expect("a table record");
        assert!(found.next().is_none(), "one table record");
        path
    }

    /// Every cell's Vm bits after 50 steps of `entry`'s kernel.
    fn bits(entry: &CompiledKernel) -> Vec<u64> {
        let wl = crate::Workload {
            n_cells: 8,
            steps: 0,
            dt: 0.01,
        };
        let mut sim = crate::Simulation::with_kernel(entry.kernel().clone(), entry.layout(), &wl);
        sim.run(50);
        (0..wl.n_cells).map(|cell| sim.vm(cell).to_bits()).collect()
    }

    /// Stores `m` under both configurations through `cache`, as a cold
    /// lookup does.
    fn store_both(cache: &DiskCache, m: &Model) -> Vec<CompiledKernel> {
        CONFIGS
            .map(|config| {
                let entry = CompiledKernel::compile(m, config);
                cache
                    .store(&EntryKey::new(m, config, true), &m.name, &entry)
                    .unwrap();
                entry
            })
            .into()
    }

    #[test]
    fn one_table_record_serves_every_configuration_of_a_model() {
        let dir = temp_dir("shared-tables");
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let m = model("HodgkinHuxley");
        // A kernel cache over the tier compiles and stores both
        // configurations, whose kernels read one copy of the tables.
        let cache = crate::KernelCache::new();
        cache.set_disk_cache(Some(Arc::clone(&disk)));
        let stored = CONFIGS.map(|config| cache.get_or_compile(&m, config));
        assert!(!stored[0].kernel().luts().is_empty(), "the model tabulates");
        assert!(stored[0].kernel().shares_luts(stored[1].kernel()));
        let status = disk.status().unwrap();
        assert_eq!((status.entries, status.tables), (2, 1));
        assert_eq!(disk.stats().writes, 2, "writes count entries");

        // A new process reads the record once: with it gone after the first
        // load, the second configuration still loads, on the same tables.
        let (fresh, record) = (DiskCache::open(&dir).unwrap(), tables_path(&dir));
        let mut loaded = Vec::new();
        for config in CONFIGS {
            match fresh.load(&EntryKey::new(&m, config, true), &m) {
                DiskLoad::Hit(entry) => loaded.push(entry),
                other => panic!("{}: expected a hit, got {other:?}", config.label()),
            }
            let _ = fs::remove_file(&record);
        }
        assert!(loaded[0].kernel().shares_luts(loaded[1].kernel()));
        for (loaded, stored) in loaded.iter().zip(&stored) {
            assert_eq!(bits(loaded), bits(stored));
        }
        assert_eq!((fresh.stats().hits, fresh.stats().rejects), (2, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_table_record_is_skipped_only_when_this_cache_wrote_or_read_it() {
        let dir = temp_dir("tables-known");
        let m = model("HodgkinHuxley");
        let [base, avx] = CONFIGS.map(|config| (EntryKey::new(&m, config, true), config));
        let writer = DiskCache::open(&dir).unwrap();
        writer
            .store(&base.0, &m.name, &CompiledKernel::compile(&m, base.1))
            .unwrap();
        let path = tables_path(&dir);
        let mut damaged = fs::read(&path).unwrap();
        let at = damaged.len() - 7;
        damaged[at] ^= 0x20;
        fs::write(&path, &damaged).unwrap();

        // The writer wrote the record, so its next store names it unwritten;
        // another cache has only the file's word for it, and writes it.
        let avx_entry = CompiledKernel::compile(&m, avx.1);
        writer.store(&avx.0, &m.name, &avx_entry).unwrap();
        assert_eq!(fs::read(&path).unwrap(), damaged);
        DiskCache::open(&dir)
            .unwrap()
            .store(&avx.0, &m.name, &avx_entry)
            .unwrap();
        assert_ne!(fs::read(&path).unwrap(), damaged);

        let fresh = DiskCache::open(&dir).unwrap();
        for (key, _) in [base, avx] {
            assert!(matches!(fresh.load(&key, &m), DiskLoad::Hit(_)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Stores HodgkinHuxley under both configurations, lets `damage` spoil
    /// their one table record (given the storing cache and the record's
    /// path), and checks what follows in a new process: loaded before
    /// anything writes the record again, every entry that names it is
    /// refused — the first for `reason`, the next for the record it removed
    /// — and removed; a cache over the directory recompiles with an
    /// incident, bit-identically, and its store writes the record again,
    /// so that the process after it loads both entries on one copy.
    fn assert_tables_refused_and_healed(
        tag: &str,
        reason: RejectReason,
        damage: impl Fn(&DiskCache, &Path),
    ) {
        let dir = temp_dir(tag);
        let m = model("HodgkinHuxley");
        let keys = CONFIGS.map(|config| EntryKey::new(&m, config, true));
        let seed = || {
            let seeder = DiskCache::open(&dir).unwrap();
            let reference: Vec<_> = store_both(&seeder, &m).iter().map(bits).collect();
            let path = tables_path(&dir);
            damage(&seeder, &path);
            (reference, path)
        };

        let (_, path) = seed();
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        let fresh = DiskCache::open(&dir).unwrap();
        for (n, key) in keys.iter().enumerate() {
            let DiskLoad::Rejected(reject) = fresh.load(key, &m) else {
                panic!("{tag}: {} loaded", key.config.label());
            };
            let want = if n == 0 {
                reason
            } else {
                RejectReason::Malformed
            };
            assert_eq!(reject.reason, want, "{tag}: {reject}");
            assert!(reject.detail.contains(&name), "{tag}: {reject}");
            assert!(!entry_path(&fresh, key).exists(), "{tag}: entry removed");
        }
        assert!(!path.exists(), "{tag}: the refused record is removed");

        let (reference, _) = seed();
        let cache = crate::KernelCache::new();
        cache.set_disk_cache(Some(Arc::new(DiskCache::open(&dir).unwrap())));
        for (config, bits_then) in CONFIGS.iter().zip(&reference) {
            assert_eq!(
                &bits(&cache.get_or_compile(&m, *config)),
                bits_then,
                "{tag}"
            );
        }
        let s = cache.stats();
        assert_eq!(
            (s.disk_rejects, s.misses, s.disk_writes, s.disk_hits),
            (1, 1, 1, 1),
            "{tag}: the first entry recompiled, whose store heals the record"
        );
        let incidents = cache.incidents();
        assert!(
            incidents
                .iter()
                .any(|i| i.kind == crate::IncidentKind::DiskCacheRejected
                    && i.detail.contains(&name)),
            "{tag}: {incidents:?}"
        );

        let healed = DiskCache::open(&dir).unwrap();
        let loaded: Vec<_> = keys
            .iter()
            .map(|key| match healed.load(key, &m) {
                DiskLoad::Hit(entry) => entry,
                other => panic!("{tag}: not healed: {other:?}"),
            })
            .collect();
        assert!(loaded[0].kernel().shares_luts(loaded[1].kernel()), "{tag}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_table_record_refuses_every_entry_that_names_it() {
        assert_tables_refused_and_healed("tables-truncated", RejectReason::TornTail, |_, path| {
            let bytes = fs::read(path).unwrap();
            fs::write(path, &bytes[..bytes.len() - 100]).unwrap();
        });
        assert_tables_refused_and_healed(
            "tables-corrupted",
            RejectReason::ChecksumMismatch,
            |_, path| {
                let mut bytes = fs::read(path).unwrap();
                let at = bytes.len() / 2;
                bytes[at] ^= 0x01;
                fs::write(path, &bytes).unwrap();
            },
        );
        assert_tables_refused_and_healed("tables-stale", RejectReason::StaleVersion, |_, path| {
            let bytes = fs::read(path).unwrap();
            let stamp = format!("{TABLES_MAGIC} {ENTRY_FORMAT_VERSION} ");
            assert!(bytes.starts_with(stamp.as_bytes()));
            let stale = format!("{TABLES_MAGIC} 999999 ");
            fs::write(path, [stale.as_bytes(), &bytes[stamp.len()..]].concat()).unwrap();
        });
        // Another model's record under this one's name.
        assert_tables_refused_and_healed("tables-renamed", RejectReason::KeyMismatch, |_, path| {
            let other = model("BeelerReuter");
            let entry = CompiledKernel::compile(&other, PipelineKind::Baseline);
            let fingerprint = model_fingerprint(&other);
            let (_, record) = seal_tables(fingerprint, entry.kernel().luts()).unwrap();
            fs::write(path, record).unwrap();
        });
    }

    #[test]
    fn an_evicted_table_record_refuses_every_entry_that_names_it() {
        // Under a cap one table record short of what the next store leaves,
        // the least recently used record goes: the one HodgkinHuxley's two
        // entries name, aged for it.
        assert_tables_refused_and_healed(
            "tables-evicted",
            RejectReason::Malformed,
            |seeder, path| {
                let aged = SystemTime::now() - Duration::from_secs(100);
                fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .and_then(|f| f.set_modified(aged))
                    .unwrap();
                let other = model("BeelerReuter");
                let key = EntryKey::new(&other, PipelineKind::Baseline, true);
                let entry = CompiledKernel::compile(&other, PipelineKind::Baseline);
                let (tables, record) = seal_tables(key.fingerprint, entry.kernel().luts()).unwrap();
                let adds = record.len() + encode_entry(&key, &other.name, &entry, &tables).len();
                let evicted = fs::metadata(path).unwrap().len();
                seeder.set_cap_bytes(seeder.status().unwrap().bytes + adds as u64 - evicted);
                seeder.store(&key, &other.name, &entry).unwrap();
                assert!(!path.exists(), "the table record is evicted");
                let status = seeder.status().unwrap();
                assert_eq!((status.entries, status.tables), (3, 1), "and nothing else");
                assert_eq!(seeder.stats().evictions, 1);
                // The other model's record would confuse `tables_path`.
                fs::remove_file(dir_of(path).join(tables.file_name())).unwrap();
            },
        );
    }

    fn dir_of(path: &Path) -> &Path {
        path.parent().unwrap()
    }

    #[test]
    fn the_cache_that_evicted_a_table_record_writes_it_again() {
        let dir = temp_dir("tables-evicted-rewritten");
        let cache = DiskCache::open(&dir).unwrap();
        let (m, other) = (model("HodgkinHuxley"), model("BeelerReuter"));
        let store = |m: &Model, config| {
            let entry = CompiledKernel::compile(m, config);
            cache
                .store(&EntryKey::new(m, config, true), &m.name, &entry)
                .unwrap();
        };
        store(&m, CONFIGS[0]);
        let path = tables_path(&dir);
        cache.set_cap_bytes(0);
        store(&other, CONFIGS[0]);
        assert!(!path.exists(), "evicted");
        cache.set_cap_bytes(DEFAULT_CAP_BYTES);
        store(&m, CONFIGS[1]);
        assert!(path.exists(), "written with the next entry that names it");
        let fresh = DiskCache::open(&dir).unwrap();
        let key = EntryKey::new(&m, CONFIGS[1], true);
        assert!(matches!(fresh.load(&key, &m), DiskLoad::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every state variable's bits after 50 steps of each kernel of
    /// `entry`, the optimized one and its raw sibling.
    fn state_bits(entry: &CompiledKernel) -> Vec<Vec<u64>> {
        [entry.kernel(), entry.raw_kernel()]
            .map(|kernel| {
                let wl = crate::Workload {
                    n_cells: 8,
                    steps: 0,
                    dt: 0.01,
                };
                let mut sim = crate::Simulation::with_kernel(kernel.clone(), entry.layout(), &wl);
                sim.run(50);
                sim.state_bits()
            })
            .into()
    }

    /// A disk-warm load of `m` under both configurations through `cache`.
    fn load_both(cache: &DiskCache, m: &Model) -> Vec<CompiledKernel> {
        CONFIGS
            .map(
                |config| match cache.load(&EntryKey::new(m, config, true), m) {
                    DiskLoad::Hit(entry) => *entry,
                    other => panic!("{}: expected a hit, got {other:?}", config.label()),
                },
            )
            .into()
    }

    /// Whether this process maps the file at `path` (Linux lists a mapping
    /// in `/proc/self/maps`, with ` (deleted)` after the path of a removed
    /// file); `true` where there is no such list.
    fn mapped(path: &Path) -> bool {
        fs::read_to_string("/proc/self/maps").map_or(true, |maps| {
            let path = path.to_str().unwrap();
            maps.lines().any(|line| line.contains(path))
        })
    }

    #[test]
    fn loaded_tables_outlive_their_record_and_faults_damage_a_copy() {
        let dir = temp_dir("mapped-tables");
        let m = model("HodgkinHuxley");
        let cold = store_both(&DiskCache::open(&dir).unwrap(), &m);
        let twins: Vec<_> = cold.iter().map(state_bits).collect();
        let assert_twins = |loaded: &[CompiledKernel], how: &str| {
            assert!(loaded[0].kernel().shares_luts(loaded[1].kernel()), "{how}");
            for (loaded, twin) in loaded.iter().zip(&twins) {
                assert_eq!(&state_bits(loaded), twin, "{how}");
            }
        };
        // A cache that never read the record: it writes the record again.
        let reseed = || {
            let writer = DiskCache::open(&dir).unwrap();
            for (config, entry) in CONFIGS.iter().zip(&cold) {
                let key = EntryKey::new(&m, *config, true);
                writer.store(&key, &m.name, entry).unwrap();
            }
        };
        let other = model("BeelerReuter");
        type Remove<'a> = (&'a str, Box<dyn Fn(&DiskCache) + 'a>);
        let removals: [Remove; 3] = [
            (
                "cleared",
                Box::new(|fresh| assert_eq!(fresh.clear().unwrap(), 2)),
            ),
            (
                "evicted",
                Box::new(|_| {
                    let evictor = DiskCache::open(&dir).unwrap();
                    evictor.set_cap_bytes(0);
                    let key = EntryKey::new(&other, CONFIGS[0], true);
                    let entry = CompiledKernel::compile(&other, CONFIGS[0]);
                    evictor.store(&key, &other.name, &entry).unwrap();
                    assert!(evictor.stats().evictions >= 3);
                    // The other model's records would confuse `tables_path`.
                    let (tables, _) = seal_tables(key.fingerprint, entry.kernel().luts()).unwrap();
                    fs::remove_file(entry_path(&evictor, &key)).unwrap();
                    fs::remove_file(dir.join(tables.file_name())).unwrap();
                }),
            ),
            ("replaced", Box::new(|_| reseed())),
        ];
        for (how, remove) in removals {
            let fresh = DiskCache::open(&dir).unwrap();
            let loaded = load_both(&fresh, &m);
            let path = tables_path(&dir);
            let inode = |path: &Path| {
                use std::os::unix::fs::MetadataExt;
                fs::metadata(path).ok().map(|meta| meta.ino())
            };
            let before = inode(&path);
            assert!(mapped(&path), "{how}: the loaded tables map their record");
            remove(&fresh);
            assert_ne!(inode(&path), before, "{how}: the record is gone");
            assert_twins(&loaded, how);
            drop(loaded);
            reseed();
        }

        // An armed fault refuses the record on its rung and removes it; what
        // it damaged was a copy: a hard link to the file still holds the
        // bytes, and the tables a kernel mapped before still step right.
        let held = load_both(&DiskCache::open(&dir).unwrap(), &m);
        for (spec, reason) in [
            ("disk-corrupt@3", RejectReason::ChecksumMismatch),
            ("disk-truncate@5", RejectReason::TornTail),
            ("disk-stale-version@1", RejectReason::StaleVersion),
        ] {
            let path = tables_path(&dir);
            let name = path.file_name().unwrap().to_str().unwrap();
            let (fp, sum) = name[5..name.len() - 4].split_once('-').unwrap();
            let key = TableKey {
                fingerprint: u64::from_str_radix(fp, 16).unwrap(),
                sum: u64::from_str_radix(sum, 16).unwrap(),
            };
            let (kept, bytes) = (dir.join("kept"), fs::read(&path).unwrap());
            fs::hard_link(&path, &kept).unwrap();
            let plan = faults::arm(spec).unwrap();
            let refused = DiskCache::open(&dir).unwrap().load_tables(&key);
            drop(plan);
            assert_eq!(refused.unwrap_err().reason, reason, "{spec}");
            assert!(!path.exists(), "{spec}: the refused record is removed");
            assert_eq!(
                fs::read(&kept).unwrap(),
                bytes,
                "{spec}: the file is intact"
            );
            fs::remove_file(&kept).unwrap();
            assert_twins(&held, spec);

            // Recompiled and healed: the entry that names the removed record
            // is refused, its recompile writes the record again, and the
            // next process loads both entries from it.
            let cache = crate::KernelCache::new();
            cache.set_disk_cache(Some(Arc::new(DiskCache::open(&dir).unwrap())));
            for (config, twin) in CONFIGS.iter().zip(&twins) {
                assert_eq!(&state_bits(&cache.get_or_compile(&m, *config)), twin);
            }
            let s = cache.stats();
            assert_eq!((s.disk_rejects, s.misses, s.disk_hits), (1, 1, 1), "{spec}");
            assert_twins(&load_both(&DiskCache::open(&dir).unwrap(), &m), spec);
        }
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
