//! The daemon: listener, per-connection I/O threads, verb dispatch,
//! journal-backed crash recovery, and graceful shutdown.
//!
//! Wire protocol: newline-delimited JSON in both directions. Each
//! request line is an object with a `"verb"` — `submit`, `result`,
//! `checkpoint`, `status`, `resume`, `stats`, `health`, `ping`,
//! `shutdown` — and
//! each response line an object with an `"event"`. A `submit` is
//! answered immediately with
//! `accepted` or `rejected` (typed quota code), then `chunk` events
//! stream as the job runs and a final `done` event carries the
//! trajectory digest. Events for every job of a connection share that
//! connection's bounded outbox: a client that stops reading blocks its
//! own workers at the outbox, and nobody else's.
//!
//! Crash safety: every accepted job is appended to a [`Journal`] as a
//! `job <spec>` line, and every terminal outcome as a `done <id> …`
//! line. A daemon restarted over the same journal re-admits every job
//! whose `done` line is missing and re-runs it (headless — the original
//! client is gone; the recomputed outcome is available via `result`).
//! With a snapshot store attached, the re-run does not start from step 0:
//! `run_job` restores the job's latest durable mid-trajectory checkpoint
//! and continues from its recorded step. Jobs are deterministic and
//! checkpoints are bit-exact, so either way the resumed run produces the
//! same digest the uninterrupted run would have. Cadence checkpoints are
//! written by the pool's checkpoint-writer thread, not by the workers, so
//! "latest durable" is the newest snapshot whose write had finished when
//! the daemon died — `survivability.checkpoints` counts those, and
//! `checkpoints_superseded` the snapshots a newer one overtook unwritten.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use limpet_harness::{shutdown, Journal, KernelCache, SnapshotStore};

use crate::json::Json;
use crate::queue::Bounded;
use crate::scheduler::{
    CheckpointRequester, JobOutcome, JobSpec, JobStatus, Pool, PoolConfig, QueuedJob,
};
use crate::tenant::{Ledger, QuotaConfig};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address, e.g. `127.0.0.1:7070` (port 0 picks a free port).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// Everything configurable about one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission quotas.
    pub quotas: QuotaConfig,
    /// Per-connection outbox capacity (events buffered before
    /// backpressure stalls the producing worker).
    pub outbox_cap: usize,
    /// Job journal path; `None` disables crash recovery.
    pub journal: Option<PathBuf>,
    /// Disk tier directory for the kernel cache; `None` stays in-memory.
    pub cache_dir: Option<PathBuf>,
    /// Wall-clock budget in milliseconds applied to every job that does
    /// not carry its own `deadline_ms`; `None` means jobs without a
    /// deadline run unbounded.
    pub default_deadline_ms: Option<u64>,
    /// Stuck-worker watchdog grace period in milliseconds; `None`
    /// disables the watchdog entirely.
    pub watchdog_ms: Option<u64>,
    /// Durable snapshot directory for mid-trajectory checkpoints. `None`
    /// defaults to `<cache_dir>/checkpoints` when a cache dir is set;
    /// with neither, checkpointing is disabled.
    pub snapshot_dir: Option<PathBuf>,
    /// Checkpoint cadence: snapshot every N completed chunks (plus on
    /// abort/deadline and on the `checkpoint` verb). 0 is treated as 1.
    pub checkpoint_every_chunks: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 2,
            quotas: QuotaConfig::default(),
            outbox_cap: 64,
            journal: None,
            cache_dir: None,
            default_deadline_ms: Some(300_000),
            watchdog_ms: Some(1_000),
            snapshot_dir: None,
            checkpoint_every_chunks: 1,
        }
    }
}

/// Service-wide monotonic counters (jobs, not per-tenant — the ledger
/// keeps those).
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    aborted: AtomicU64,
    rejected: AtomicU64,
    resumed: AtomicU64,
    connections: AtomicU64,
    /// Jobs that hit their wall-clock budget (cooperatively, at a chunk
    /// boundary) and ended with status `deadline`.
    deadlines: AtomicU64,
    /// Times the watchdog had to forcibly reclaim a wedged worker (the
    /// non-cooperative subset of `deadlines`).
    watchdog_stalls: AtomicU64,
    /// Replacement workers spawned after reclaims.
    workers_respawned: AtomicU64,
    /// Per-tier finish counts (which rung of the execution ladder each
    /// job ended on) — the operator's view of native promotion working.
    tier_native: AtomicU64,
    tier_optimized: AtomicU64,
    tier_reference: AtomicU64,
}

/// Shared state behind every connection and worker.
struct ServerState {
    ledger: Ledger,
    journal: Mutex<Option<Journal>>,
    /// Terminal outcomes by job id, with FIFO eviction.
    results: Mutex<(BTreeMap<String, JobOutcome>, VecDeque<String>)>,
    counters: Counters,
    next_id: AtomicU64,
    started: Instant,
    outbox_cap: usize,
    /// The durable snapshot store shared with the worker pool; `None`
    /// when checkpointing is disabled.
    snapshots: Option<Arc<SnapshotStore>>,
}

const RESULT_RETENTION: usize = 4096;

impl ServerState {
    fn fresh_id(&self) -> String {
        format!("job-{}", self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    fn record_result(&self, outcome: JobOutcome) {
        let mut guard = self.results.lock().unwrap_or_else(|p| p.into_inner());
        let (map, order) = &mut *guard;
        if map.insert(outcome.id.clone(), outcome.clone()).is_none() {
            order.push_back(outcome.id.clone());
            while order.len() > RESULT_RETENTION {
                if let Some(old) = order.pop_front() {
                    map.remove(&old);
                }
            }
        }
    }

    fn journal_line(&self, line: &str) {
        let guard = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(j) = guard.as_ref() {
            if let Err(e) = j.record(line) {
                eprintln!("limpet-serve: journal write failed: {e}");
            }
        }
    }

    /// The terminal bookkeeping every job goes through, however it ran,
    /// before its client sees `done`: a `stats` or `result` sent right
    /// after `done` counts the job.
    fn on_settled(&self, spec: &JobSpec, outcome: &JobOutcome) {
        let completed = outcome.status == JobStatus::Done;
        self.ledger.release(&spec.tenant, spec.cost(), completed);
        match outcome.status {
            JobStatus::Done => self.counters.completed.fetch_add(1, Ordering::SeqCst),
            JobStatus::Failed => self.counters.failed.fetch_add(1, Ordering::SeqCst),
            JobStatus::Aborted => self.counters.aborted.fetch_add(1, Ordering::SeqCst),
            JobStatus::Deadline => self.counters.deadlines.fetch_add(1, Ordering::SeqCst),
        };
        match outcome.tier.as_deref() {
            Some("native") => self.counters.tier_native.fetch_add(1, Ordering::SeqCst),
            Some("optimized") => self.counters.tier_optimized.fetch_add(1, Ordering::SeqCst),
            Some("reference") => self.counters.tier_reference.fetch_add(1, Ordering::SeqCst),
            _ => 0,
        };
        self.record_result(outcome.clone());
    }

    /// The journal's `done` line, after the client has its `done`: the
    /// line is synced to disk, which no reply should wait for.
    fn on_done(&self, outcome: &JobOutcome) {
        // A job aborted by daemon shutdown keeps its journal slot open so
        // the next incarnation resumes it; any other terminal state is
        // recorded so it is *not* re-run. A `deadline` job journals its
        // `done` line deliberately: re-running a job that already blew
        // its budget would just time out again on the next incarnation.
        let shutdown_abort = outcome.status == JobStatus::Aborted && shutdown::requested();
        if !shutdown_abort {
            self.journal_line(&format!("done {}", outcome.to_json()));
        }
    }

    fn stats_json(&self, queued: usize, ckpt_superseded: u64) -> Json {
        let cache = KernelCache::global();
        let cache_stats = Json::parse(&cache.stats().to_json()).unwrap_or(Json::Null);
        // What the disk tier holds (entries, table records, bytes), when
        // one is attached.
        let disk = cache
            .disk_cache()
            .and_then(|disk| disk.status().ok())
            .and_then(|status| Json::parse(&status.to_json()).ok())
            .unwrap_or(Json::Null);
        let incidents = Json::parse(&limpet_harness::incidents_json(&cache.incidents()))
            .unwrap_or(Json::Arr(Vec::new()));
        let c = &self.counters;
        Json::obj(vec![
            ("event", Json::str("stats")),
            ("uptime_s", self.started.elapsed().as_secs_f64().into()),
            (
                "jobs",
                Json::obj(vec![
                    ("submitted", c.submitted.load(Ordering::SeqCst).into()),
                    ("completed", c.completed.load(Ordering::SeqCst).into()),
                    ("failed", c.failed.load(Ordering::SeqCst).into()),
                    ("aborted", c.aborted.load(Ordering::SeqCst).into()),
                    ("deadlines", c.deadlines.load(Ordering::SeqCst).into()),
                    ("rejected", c.rejected.load(Ordering::SeqCst).into()),
                    ("resumed", c.resumed.load(Ordering::SeqCst).into()),
                    ("connections", c.connections.load(Ordering::SeqCst).into()),
                    ("active", self.ledger.total_active().into()),
                    ("queued", queued.into()),
                ]),
            ),
            (
                "tiers",
                Json::obj(vec![
                    ("native", c.tier_native.load(Ordering::SeqCst).into()),
                    ("optimized", c.tier_optimized.load(Ordering::SeqCst).into()),
                    ("reference", c.tier_reference.load(Ordering::SeqCst).into()),
                ]),
            ),
            ("survivability", self.survivability_json(ckpt_superseded)),
            ("cache", cache_stats),
            ("disk", disk),
            ("incidents", incidents),
            ("tenants", self.ledger.usage_json()),
        ])
    }

    /// The deadline/watchdog/checkpoint health block shared by `stats`
    /// and `health`: how often the daemon had to defend itself, and how
    /// often the snapshot store let work survive — or, under
    /// `checkpoint_save_failures`, could not be written to. `checkpoints`
    /// counts snapshots durably saved; `checkpoints_superseded` (the
    /// pool's count, passed in) those the checkpoint writer dropped
    /// unwritten for a newer state of the same job — together, the
    /// snapshots taken. `resumes` counts successful snapshot loads
    /// (journal replay, the `resume` verb, and client reconnects all go
    /// through the same store).
    fn survivability_json(&self, ckpt_superseded: u64) -> Json {
        let c = &self.counters;
        let ck = self
            .snapshots
            .as_deref()
            .map(SnapshotStore::stats)
            .unwrap_or_default();
        Json::obj(vec![
            ("deadlines", c.deadlines.load(Ordering::SeqCst).into()),
            (
                "watchdog_stalls",
                c.watchdog_stalls.load(Ordering::SeqCst).into(),
            ),
            (
                "workers_respawned",
                c.workers_respawned.load(Ordering::SeqCst).into(),
            ),
            ("checkpoints", ck.saved.into()),
            ("checkpoints_superseded", ckpt_superseded.into()),
            ("checkpoint_save_failures", ck.save_failed.into()),
            ("resumes", (ck.loaded_current + ck.loaded_previous).into()),
            ("checkpoint_rejects", ck.rejected_total().into()),
            ("checkpoint_restarts", ck.fell_to_zero.into()),
        ])
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

enum Stream {
    Tcp(std::net::TcpStream),
    Unix(std::os::unix::net::UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn shutdown_both(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, dur: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(dur)),
            Stream::Unix(s) => s.set_read_timeout(Some(dur)),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A running daemon.
pub struct Server {
    state: Arc<ServerState>,
    pool: Option<Pool>,
    listener: Listener,
    /// The address actually bound (resolves TCP port 0).
    local_addr: String,
    conn_handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Server {
    /// Binds the listener, attaches the disk cache tier, replays the
    /// journal (resubmitting every job without a terminal record), and
    /// spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the socket, cache
    /// directory, or journal cannot be set up.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        if let Some(dir) = &config.cache_dir {
            let disk = limpet_harness::DiskCache::open(dir)?;
            KernelCache::global().set_disk_cache(Some(Arc::new(disk)));
        }
        // The snapshot store lives beside the disk cache by default: same
        // volume, same operational lifetime.
        let snapshot_dir = config
            .snapshot_dir
            .clone()
            .or_else(|| config.cache_dir.as_ref().map(|d| d.join("checkpoints")));
        let snapshots = match &snapshot_dir {
            None => None,
            Some(dir) => Some(Arc::new(SnapshotStore::new(dir)?)),
        };
        let listener = match &config.listen {
            Listen::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            Listen::Unix(path) => {
                // A previous unclean exit leaves the socket file behind;
                // binding over it is the expected daemon restart path.
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?)
            }
        };
        let local_addr = match &listener {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            Listener::Unix(_) => match &config.listen {
                Listen::Unix(p) => p.display().to_string(),
                Listen::Tcp(_) => unreachable!("listener kind follows config"),
            },
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l) => l.set_nonblocking(true)?,
        }

        let mut resumable: Vec<JobSpec> = Vec::new();
        let journal = match &config.journal {
            None => None,
            Some(path) => {
                let (journal, lines) = Journal::open(path, "limpet-serve job journal v1")?;
                resumable = replay(&lines);
                Some(journal)
            }
        };

        let state = Arc::new(ServerState {
            ledger: Ledger::new(config.quotas),
            journal: Mutex::new(journal),
            results: Mutex::new((BTreeMap::new(), VecDeque::new())),
            counters: Counters::default(),
            next_id: AtomicU64::new(1),
            started: Instant::now(),
            outbox_cap: config.outbox_cap.max(1),
            snapshots: snapshots.clone(),
        });
        let settle_state = Arc::clone(&state);
        let done_state = Arc::clone(&state);
        let stall_state = Arc::clone(&state);
        let pool = Pool::new(
            PoolConfig {
                workers: config.workers,
                queue_cap: config.quotas.max_queue_depth.max(1),
                default_deadline_ms: config.default_deadline_ms,
                watchdog: config
                    .watchdog_ms
                    .map(|ms| Duration::from_millis(ms.max(1))),
                snapshot_store: snapshots,
                checkpoint_every_chunks: config.checkpoint_every_chunks,
            },
            move |spec, outcome| settle_state.on_settled(spec, outcome),
            move |_, outcome| done_state.on_done(outcome),
            move |_, _| {
                // Count the stall and the respawn for `stats`/`health`.
                stall_state
                    .counters
                    .watchdog_stalls
                    .fetch_add(1, Ordering::SeqCst);
                stall_state
                    .counters
                    .workers_respawned
                    .fetch_add(1, Ordering::SeqCst);
            },
        );

        for spec in resumable {
            state.counters.resumed.fetch_add(1, Ordering::SeqCst);
            state.counters.submitted.fetch_add(1, Ordering::SeqCst);
            state.ledger.admit_resumed(&spec.tenant);
            // Journal already holds the job line from the previous
            // incarnation; do not re-append it.
            let _ = pool.submit(QueuedJob { spec, outbox: None });
        }

        Ok(Server {
            state,
            pool: Some(pool),
            listener,
            local_addr,
            conn_handles: Vec::new(),
        })
    }

    /// The bound address (`host:port` for TCP — useful with port 0 —
    /// or the socket path).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Accepts connections until [`shutdown::requested`], then winds
    /// down: stops accepting, closes live connections, aborts running
    /// jobs at their next chunk boundary (leaving them journaled for the
    /// next incarnation), and joins every thread.
    pub fn serve_forever(mut self) {
        loop {
            if shutdown::requested() {
                break;
            }
            let accepted = match &self.listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((s, _)) => Some(Stream::Tcp(s)),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => {
                        eprintln!("limpet-serve: accept failed: {e}");
                        None
                    }
                },
                Listener::Unix(l) => match l.accept() {
                    Ok((s, _)) => Some(Stream::Unix(s)),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => {
                        eprintln!("limpet-serve: accept failed: {e}");
                        None
                    }
                },
            };
            match accepted {
                Some(stream) => self.spawn_connection(stream),
                None => std::thread::sleep(Duration::from_millis(10)),
            }
            self.reap_connections();
        }
        self.stop();
    }

    fn reap_connections(&mut self) {
        let mut live = Vec::new();
        for h in self.conn_handles.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        self.conn_handles = live;
    }

    fn spawn_connection(&mut self, stream: Stream) {
        self.state
            .counters
            .connections
            .fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let pool_queue = self
            .pool
            .as_ref()
            .map(PoolHandle::new)
            .expect("pool lives until stop()");
        let handle = std::thread::Builder::new()
            .name("limpet-conn".into())
            .spawn(move || serve_connection(stream, state, pool_queue))
            .expect("spawning a connection thread");
        self.conn_handles.push(handle);
    }

    /// Stops the daemon: workers abort at chunk boundaries, unfinished
    /// jobs stay journaled for resume, and the disk-cache tier is
    /// detached (releasing its resources with no operation in flight).
    fn stop(mut self) {
        if let Some(pool) = self.pool.take() {
            pool.shutdown(false);
        }
        for h in self.conn_handles.drain(..) {
            let _ = h.join();
        }
        KernelCache::global().set_disk_cache(None);
    }
}

/// What a connection needs from the pool: submit access and the
/// checkpoint-request capability, without owning the pool (the server
/// keeps ownership for shutdown).
struct PoolHandle {
    queue: Arc<Bounded<QueuedJob>>,
    ckpt: CheckpointRequester,
}

impl PoolHandle {
    fn new(pool: &Pool) -> PoolHandle {
        PoolHandle {
            queue: pool.queue_handle(),
            ckpt: pool.checkpoint_requester(),
        }
    }

    fn submit(&self, job: QueuedJob) -> Result<(), crate::queue::Closed> {
        self.queue.push(job)
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn checkpoints_superseded(&self) -> u64 {
        self.ckpt.superseded()
    }
}

/// Replays journal lines into the list of jobs to resume: every
/// `job <spec>` without a *later* matching `done {"id":…}` record.
/// Order-aware on purpose — the `resume` verb re-journals a job after
/// its `done` line (e.g. a deadline the operator chose to continue), and
/// that re-opened job must survive the next replay too.
fn replay(lines: &[String]) -> Vec<JobSpec> {
    let mut open: BTreeMap<String, JobSpec> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for line in lines {
        if let Some(body) = line.strip_prefix("job ") {
            if let Ok(v) = Json::parse(body) {
                if let Ok(spec) = JobSpec::from_json(&v, "journal") {
                    if open.insert(spec.id.clone(), spec.clone()).is_none() {
                        order.push(spec.id);
                    }
                }
            }
        } else if let Some(body) = line.strip_prefix("done ") {
            if let Ok(v) = Json::parse(body) {
                if let Some(id) = v.get("id").and_then(Json::as_str) {
                    open.remove(id);
                    order.retain(|o| o != id);
                }
            }
        }
    }
    order
        .into_iter()
        .filter_map(|id| open.remove(&id))
        .collect()
}

/// Longest request line the daemon accepts. One NDJSON frame is one job
/// spec or verb — a megabyte is orders of magnitude past any legitimate
/// frame (inline model sources included), so anything longer is either a
/// protocol error or a memory-exhaustion attempt.
const MAX_LINE: usize = 1 << 20;

/// One connection: a writer thread drains the bounded outbox to the
/// socket while this (reader) thread parses request lines and dispatches
/// verbs. Reader EOF closes the outbox, which cancels any of this
/// connection's jobs still pushing events. Reads run under a short
/// timeout so the reader notices a daemon shutdown even while idle.
///
/// Hostile-input rules: a request line with invalid UTF-8 gets a typed
/// `error` event and the connection keeps going (the newline frame
/// boundary is still unambiguous); a line that exceeds [`MAX_LINE`]
/// gets a typed `error` event and the connection is closed (the frame
/// boundary can no longer be trusted); a torn final frame at EOF is
/// processed as-is, matching `read_line` semantics for clients that
/// close without a trailing newline.
fn serve_connection(stream: Stream, state: Arc<ServerState>, pool: PoolHandle) {
    let outbox: Arc<Bounded<String>> = Arc::new(Bounded::new(state.outbox_cap));
    let (write_half, ctrl) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(w), Ok(c)) => (w, c),
        _ => return,
    };
    if stream.set_read_timeout(Duration::from_millis(200)).is_err() {
        return;
    }
    let writer_outbox = Arc::clone(&outbox);
    let writer = std::thread::Builder::new()
        .name("limpet-conn-writer".into())
        .spawn(move || {
            let mut stream = write_half;
            while let Some(line) = writer_outbox.pop() {
                if stream.write_all(line.as_bytes()).is_err()
                    || stream.write_all(b"\n").is_err()
                    || stream.flush().is_err()
                {
                    // Client gone: close so blocked workers abort.
                    writer_outbox.close();
                    break;
                }
            }
        })
        .expect("spawning a connection writer thread");

    let mut reader = BufReader::new(stream);
    let mut acc: Vec<u8> = Vec::new();
    loop {
        if shutdown::requested() {
            break;
        }
        // Cap each read at the remaining line budget so a firehose with
        // no newline cannot grow `acc` without bound inside one call.
        let budget = (MAX_LINE + 1).saturating_sub(acc.len()) as u64;
        let n = match std::io::Read::take(&mut reader, budget).read_until(b'\n', &mut acc) {
            Ok(n) => n,
            // Timeout mid-wait (or mid-line: partial bytes stay in
            // `acc` and the next pass appends to them).
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        if acc.len() > MAX_LINE {
            let _ = outbox.push(error_event("request line exceeds 1 MiB; closing").to_string());
            break;
        }
        let eof = n == 0;
        if eof && acc.is_empty() {
            break;
        }
        if !eof && acc.last() != Some(&b'\n') {
            // Partial line (the take budget or pending EOF split it);
            // keep accumulating.
            continue;
        }
        let line = match String::from_utf8(std::mem::take(&mut acc)) {
            Ok(s) => s,
            Err(_) => {
                if outbox
                    .push(error_event("request line is not valid UTF-8").to_string())
                    .is_err()
                {
                    break;
                }
                if eof {
                    break;
                }
                continue;
            }
        };
        if !line.trim().is_empty() {
            if let Some(resp) = dispatch(&line, &state, &pool, &outbox) {
                if outbox.push(resp.to_string()).is_err() {
                    break;
                }
            }
        }
        if eof {
            break;
        }
    }
    outbox.close();
    // Give the writer a moment to flush the tail of the outbox (e.g. a
    // final `stopping` response), then cut the socket to unblock it if
    // the client has stopped reading, and join.
    let flush_deadline = Instant::now() + Duration::from_secs(2);
    while !writer.is_finished() && Instant::now() < flush_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    ctrl.shutdown_both();
    let _ = writer.join();
}

fn error_event(reason: &str) -> Json {
    Json::obj(vec![
        ("event", Json::str("error")),
        ("reason", Json::str(reason)),
    ])
}

/// Handles one request line; `Some(response)` is queued behind any
/// streaming events already in the outbox.
fn dispatch(
    line: &str,
    state: &Arc<ServerState>,
    pool: &PoolHandle,
    outbox: &Arc<Bounded<String>>,
) -> Option<Json> {
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return Some(error_event(&format!("bad JSON: {e}"))),
    };
    let verb = match v.get("verb").and_then(Json::as_str) {
        Some(s) => s.to_owned(),
        None => return Some(error_event("missing 'verb'")),
    };
    match verb.as_str() {
        "ping" => Some(Json::obj(vec![("event", Json::str("pong"))])),
        "health" => Some(Json::obj(vec![
            ("event", Json::str("health")),
            ("status", Json::str("ok")),
            ("uptime_s", state.started.elapsed().as_secs_f64().into()),
            ("active", state.ledger.total_active().into()),
            (
                "survivability",
                state.survivability_json(pool.checkpoints_superseded()),
            ),
        ])),
        "stats" => Some(state.stats_json(pool.queued(), pool.checkpoints_superseded())),
        "result" => {
            let id = v.get("id").and_then(Json::as_str).unwrap_or("");
            let guard = state.results.lock().unwrap_or_else(|p| p.into_inner());
            match guard.0.get(id) {
                Some(outcome) => Some(outcome.to_json()),
                None => Some(Json::obj(vec![
                    ("event", Json::str("pending")),
                    ("id", Json::str(id)),
                ])),
            }
        }
        "shutdown" => {
            shutdown::request();
            Some(Json::obj(vec![("event", Json::str("stopping"))]))
        }
        "checkpoint" => {
            let id = v.get("id").and_then(Json::as_str).unwrap_or("");
            if id.is_empty() {
                return Some(error_event("checkpoint requires 'id'"));
            }
            let Some(store) = &state.snapshots else {
                return Some(error_event("checkpointing is disabled (no snapshot dir)"));
            };
            // `active` — the owning worker will snapshot at its next
            // chunk boundary; `snapshot` — a durable snapshot already
            // exists right now (an earlier cadence save whose write has
            // finished).
            let active = pool.ckpt.request(id);
            Some(Json::obj(vec![
                ("event", Json::str("checkpoint")),
                ("id", Json::str(id)),
                ("active", active.into()),
                ("snapshot", store.has(id).into()),
            ]))
        }
        "status" => {
            // `checkpoint`'s answer without its request: polling a job
            // costs it nothing.
            let id = v.get("id").and_then(Json::as_str).unwrap_or("");
            if id.is_empty() {
                return Some(error_event("status requires 'id'"));
            }
            let snapshot = state.snapshots.as_ref().is_some_and(|s| s.has(id));
            Some(Json::obj(vec![
                ("event", Json::str("status")),
                ("id", Json::str(id)),
                ("active", pool.ckpt.is_active(id).into()),
                ("snapshot", snapshot.into()),
            ]))
        }
        "resume" => resume(&v, state, pool, outbox),
        "submit" => submit(&v, state, pool, outbox),
        other => Some(error_event(&format!("unknown verb '{other}'"))),
    }
}

fn submit(
    v: &Json,
    state: &Arc<ServerState>,
    pool: &PoolHandle,
    outbox: &Arc<Bounded<String>>,
) -> Option<Json> {
    let fallback = state.fresh_id();
    let spec = match JobSpec::from_json(v, &fallback) {
        Ok(s) => s,
        Err(e) => return Some(error_event(&e)),
    };
    admit_and_queue(spec, state, pool, outbox, None)
}

/// The `resume` verb: re-admits a job from its durable snapshot. The
/// snapshot embeds the original job-spec JSON, so the caller supplies
/// only the id; the resubmitted job then restores the snapshot inside
/// `run_job` and continues from the recorded step. Works for jobs the
/// daemon lost to a crash, a disconnect, or (deliberately) a deadline.
fn resume(
    v: &Json,
    state: &Arc<ServerState>,
    pool: &PoolHandle,
    outbox: &Arc<Bounded<String>>,
) -> Option<Json> {
    let id = v.get("id").and_then(Json::as_str).unwrap_or("");
    if id.is_empty() {
        return Some(error_event("resume requires 'id'"));
    }
    let Some(store) = &state.snapshots else {
        return Some(error_event("checkpointing is disabled (no snapshot dir)"));
    };
    // Run the real load ladder: a corrupt current file is rejected,
    // healed, and the previous rotation (if any) serves the resume.
    let outcome = store.load(id);
    for (path, reason) in &outcome.rejects {
        eprintln!(
            "limpet-serve: checkpoint: rejected snapshot {} ({}); removed",
            path.display(),
            reason.as_str()
        );
    }
    let Some(snap) = &outcome.snapshot else {
        return Some(error_event(&format!("no durable snapshot for job '{id}'")));
    };
    let Some(meta) = &snap.meta else {
        return Some(error_event(&format!(
            "snapshot for job '{id}' carries no job spec"
        )));
    };
    let spec = match Json::parse(meta).map_err(|e| e.to_string()).and_then(|m| {
        JobSpec::from_json(&m, id).map_err(|e| format!("snapshot spec for '{id}' invalid: {e}"))
    }) {
        Ok(s) => s,
        Err(e) => return Some(error_event(&e)),
    };
    admit_and_queue(spec, state, pool, outbox, Some(snap.steps_done))
}

/// Shared admission tail of `submit` and `resume`: quota check, journal
/// `job` line, and hand-off to the pool. An admitted job's `accepted`
/// event goes into its outbox *before* the hand-off, so no worker can put
/// a `chunk` ahead of it; the returned event, if any, is the caller's to
/// push (`rejected`, or an `error` when the pool is shutting down).
fn admit_and_queue(
    spec: JobSpec,
    state: &Arc<ServerState>,
    pool: &PoolHandle,
    outbox: &Arc<Bounded<String>>,
    resumed_from: Option<u64>,
) -> Option<Json> {
    if let Err(r) = state.ledger.admit(&spec.tenant, spec.cost()) {
        state.counters.rejected.fetch_add(1, Ordering::SeqCst);
        return Some(Json::obj(vec![
            ("event", Json::str("rejected")),
            ("id", Json::str(&spec.id)),
            ("code", u64::from(r.code).into()),
            ("reason", Json::str(&r.reason)),
        ]));
    }
    state.counters.submitted.fetch_add(1, Ordering::SeqCst);
    state.journal_line(&format!("job {}", spec.to_json()));
    let mut fields = vec![
        ("event", Json::str("accepted")),
        ("id", Json::str(&spec.id)),
        ("tenant", Json::str(&spec.tenant)),
        ("cost", spec.cost().into()),
    ];
    if let Some(step) = resumed_from {
        fields.push(("resumed_from_step", step.into()));
    }
    // A closed outbox means the client is gone; the job still runs to the
    // journal's `done` line, as it would had the client left a moment later.
    let _ = outbox.push(Json::obj(fields).to_string());
    let job = QueuedJob {
        spec: spec.clone(),
        outbox: Some(Arc::clone(outbox)),
    };
    if pool.submit(job).is_err() {
        // Pool shutting down: undo the admission. The journal already
        // holds the job, so the next incarnation replays it.
        state.ledger.release(&spec.tenant, spec.cost(), false);
        return Some(error_event("server is shutting down"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_line(id: &str) -> String {
        format!(
            r#"job {{"id":"{id}","tenant":"t","model":"HodgkinHuxley","config":"baseline","cells":8,"steps":4,"dt":0.01,"chunk":4}}"#
        )
    }

    #[test]
    fn replay_resumes_only_unfinished_jobs() {
        let lines = vec![
            spec_line("a"),
            spec_line("b"),
            format!(r#"done {{"event":"done","id":"a","status":"done"}}"#),
            "garbage line".to_owned(),
            spec_line("c"),
        ];
        let resumed = replay(&lines);
        let ids: Vec<&str> = resumed.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["b", "c"]);
    }

    #[test]
    fn replay_tolerates_malformed_records() {
        let lines = vec![
            "job not-json".to_owned(),
            "job {\"tenant\":\"x\"}".to_owned(), // missing model
            "done also-not-json".to_owned(),
        ];
        assert!(replay(&lines).is_empty());
    }

    fn bare_state() -> ServerState {
        ServerState {
            ledger: Ledger::new(QuotaConfig::default()),
            journal: Mutex::new(None),
            results: Mutex::new((BTreeMap::new(), VecDeque::new())),
            counters: Counters::default(),
            next_id: AtomicU64::new(1),
            started: Instant::now(),
            outbox_cap: 4,
            snapshots: None,
        }
    }

    /// Pins the key layout of `stats` and its survivability block so a
    /// field rename cannot silently break dashboards or the CI greps.
    #[test]
    fn stats_json_shape_is_pinned() {
        let state = bare_state();
        state.counters.deadlines.store(3, Ordering::SeqCst);
        state.counters.watchdog_stalls.store(2, Ordering::SeqCst);
        state.counters.workers_respawned.store(2, Ordering::SeqCst);

        let stats = state.stats_json(7, 5);
        for key in [
            "event",
            "uptime_s",
            "jobs",
            "tiers",
            "survivability",
            "cache",
            "disk",
            "incidents",
            "tenants",
        ] {
            assert!(stats.get(key).is_some(), "stats is missing key '{key}'");
        }
        let jobs = stats.get("jobs").expect("jobs object");
        for key in [
            "submitted",
            "completed",
            "failed",
            "aborted",
            "deadlines",
            "rejected",
            "resumed",
            "connections",
            "active",
            "queued",
        ] {
            assert!(jobs.get(key).is_some(), "jobs is missing key '{key}'");
        }
        let surv = stats.get("survivability").expect("survivability object");
        let rendered = surv.to_string();
        assert_eq!(
            rendered,
            r#"{"checkpoint_rejects":0,"checkpoint_restarts":0,"checkpoint_save_failures":0,"checkpoints":0,"checkpoints_superseded":5,"deadlines":3,"resumes":0,"watchdog_stalls":2,"workers_respawned":2}"#,
            "survivability block shape drifted"
        );
        assert_eq!(
            stats.get("tiers").expect("tiers object").to_string(),
            r#"{"native":0,"optimized":0,"reference":0}"#,
            "one count per tier of the ladder"
        );
    }

    /// The worker that runs an admitted job streams into the same outbox
    /// the connection answers on, so `accepted` must be in it before the
    /// job reaches the pool, or a `chunk` can overtake it.
    #[test]
    fn accepted_is_the_first_event_of_an_admitted_job() {
        let state = Arc::new(bare_state());
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                ..PoolConfig::default()
            },
            |_: &JobSpec, _: &JobOutcome| {},
            |_: &JobSpec, _: &JobOutcome| {},
            |_: &JobSpec, _: &str| {},
        );
        let outbox = Arc::new(Bounded::new(16));
        let spec = Json::parse(
            r#"{"id":"first","tenant":"t","model":"Plonsey","config":"baseline","cells":8,"steps":4,"dt":0.01,"chunk":2}"#,
        )
        .and_then(|v| JobSpec::from_json(&v, "first"))
        .expect("valid spec");
        let returned = admit_and_queue(spec, &state, &PoolHandle::new(&pool), &outbox, None);
        assert!(
            returned.is_none(),
            "the caller pushes nothing: {returned:?}"
        );
        let first = outbox.pop().expect("an event");
        let event = Json::parse(&first).expect("JSON event");
        assert_eq!(
            event.get("event").and_then(Json::as_str),
            Some("accepted"),
            "{first}"
        );
        pool.shutdown(true);
    }

    /// A `resume`-verb re-journal must re-open a job that already has a
    /// `done` line — and a later `done` must close it again. Replay is
    /// order-aware, not a flat set-subtraction.
    #[test]
    fn replay_reopens_a_job_rejournaled_after_done() {
        let lines = vec![
            spec_line("a"),
            format!(r#"done {{"event":"done","id":"a","status":"deadline"}}"#),
            spec_line("a"), // the `resume` verb re-journals the spec
        ];
        let ids: Vec<String> = replay(&lines).into_iter().map(|s| s.id).collect();
        assert_eq!(ids, ["a"]);

        let closed = vec![
            spec_line("a"),
            format!(r#"done {{"event":"done","id":"a","status":"deadline"}}"#),
            spec_line("a"),
            format!(r#"done {{"event":"done","id":"a","status":"done"}}"#),
        ];
        assert!(replay(&closed).is_empty());
    }
}
