//! Job specifications, their wire/journal codec, and the worker pool.
//!
//! A [`JobSpec`] is the unit of work: one model (roster name or inline
//! EasyML source) × one pipeline configuration × a workload. The same
//! JSON encoding travels three paths — the client's `submit` line, the
//! daemon's journal (so a killed daemon can re-run in-flight jobs), and
//! the `result` verb — so there is exactly one codec to keep honest.
//!
//! Execution ([`run_job`]) deliberately mirrors the harness's
//! `trajectory_digest`: a resilient simulation (`HealthPolicy::FallbackRaw`,
//! so a fault degrades the job down the tier ladder instead of killing
//! the daemon), guarded stepping, then an FNV-1a digest over every cell's
//! membrane-potential bits. Chunked stepping is bit-identical to one
//! `run_guarded(steps)` call, which is what makes the service's digests
//! comparable to the single-process `figures --digest` driver.
//!
//! Cadence checkpoints do not run on the worker: at a cadence boundary
//! the worker takes the snapshot (a copy of the state) and leaves it with
//! the pool's one [`CheckpointWriter`] thread, which encodes, writes,
//! `fsync`s and renames it while the worker steps on. Only the terminal
//! store operations — the snapshot an aborted or deadlined job leaves
//! behind, the removal after `Done` — stay on the worker, ordered after
//! anything the writer still holds for that job.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use limpet_harness::{
    faults, CancelToken, HealthPolicy, IncidentKind, PipelineKind, Simulation, Snapshot,
    SnapshotStore, Workload,
};

use crate::json::Json;
use crate::queue::Bounded;

/// What model a job runs: a registry roster name, or inline EasyML
/// source compiled on arrival (cached under its content fingerprint like
/// any other model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelRef {
    /// A model from `limpet_models`' roster, by name.
    Roster(String),
    /// Inline EasyML source, with the name to register it under.
    Inline {
        /// Model name used for cache keys and incident reports.
        name: String,
        /// The EasyML source text.
        source: String,
    },
}

impl ModelRef {
    /// The model name (roster name or the inline source's given name).
    pub fn name(&self) -> &str {
        match self {
            ModelRef::Roster(n) => n,
            ModelRef::Inline { name, .. } => name,
        }
    }
}

/// One simulation job as accepted over the wire and recorded in the
/// journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job id (client-chosen or daemon-generated).
    pub id: String,
    /// The tenant the job is accounted to.
    pub tenant: String,
    /// The model to simulate.
    pub model: ModelRef,
    /// Pipeline configuration label (`baseline`, `limpetMLIR-avx512`, …)
    /// or an ISA shorthand (`sse`, `avx2`, `avx512`).
    pub config: String,
    /// Number of cells.
    pub cells: usize,
    /// Number of time steps.
    pub steps: usize,
    /// Time step in ms.
    pub dt: f64,
    /// Steps per streamed trajectory chunk.
    pub chunk: usize,
    /// Optional fault-injection spec (`verify-fail@42`) armed before the
    /// job compiles — the CI hook for asserting per-job degradation.
    pub inject: Option<String>,
    /// Optional per-job wall-clock budget in milliseconds. Overrides the
    /// daemon's default budget; absent means "use the daemon default".
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// The admission cost of the job: `cells × steps`.
    pub fn cost(&self) -> u64 {
        self.cells as u64 * self.steps as u64
    }

    /// The spec as a JSON object (the wire and journal encoding).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::str(&self.id)),
            ("tenant", Json::str(&self.tenant)),
        ];
        match &self.model {
            ModelRef::Roster(name) => fields.push(("model", Json::str(name))),
            ModelRef::Inline { name, source } => {
                fields.push(("model", Json::str(name)));
                fields.push(("source", Json::str(source)));
            }
        }
        fields.push(("config", Json::str(&self.config)));
        fields.push(("cells", self.cells.into()));
        fields.push(("steps", self.steps.into()));
        fields.push(("dt", self.dt.into()));
        fields.push(("chunk", self.chunk.into()));
        if let Some(inject) = &self.inject {
            fields.push(("inject", Json::str(inject)));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", ms.into()));
        }
        Json::obj(fields)
    }

    /// Decodes a spec from a `submit` request or a journal line.
    /// `fallback_id` names the job when the client did not.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a required field is missing
    /// or a value is out of range.
    pub fn from_json(v: &Json, fallback_id: &str) -> Result<JobSpec, String> {
        let id = match v.get("id").and_then(Json::as_str) {
            Some(s) if !s.is_empty() => s.to_owned(),
            _ => fallback_id.to_owned(),
        };
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("anon")
            .to_owned();
        let name = v
            .get("model")
            .and_then(Json::as_str)
            .ok_or("missing required field 'model'")?
            .to_owned();
        if name.is_empty() {
            return Err("field 'model' must be a non-empty string".into());
        }
        let model = match v.get("source").and_then(Json::as_str) {
            Some(src) => ModelRef::Inline {
                name,
                source: src.to_owned(),
            },
            None => ModelRef::Roster(name),
        };
        let config = v
            .get("config")
            .and_then(Json::as_str)
            .unwrap_or("baseline")
            .to_owned();
        parse_config(&config)?;
        let cells = field_usize(v, "cells", 256)?;
        let steps = field_usize(v, "steps", 100)?;
        let chunk = field_usize(v, "chunk", 32)?;
        let dt = match v.get("dt") {
            None => 0.01,
            Some(j) => j
                .as_f64()
                .filter(|d| d.is_finite() && *d > 0.0)
                .ok_or("field 'dt' must be a positive number")?,
        };
        let inject = v
            .get("inject")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .filter(|s| !s.is_empty());
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(j) => match j.as_u64() {
                Some(n) if n >= 1 => Some(n),
                _ => return Err("field 'deadline_ms' must be an integer >= 1".into()),
            },
        };
        Ok(JobSpec {
            id,
            tenant,
            model,
            config,
            cells,
            steps,
            dt,
            chunk,
            inject,
            deadline_ms,
        })
    }
}

fn field_usize(v: &Json, key: &str, default: usize) -> Result<usize, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => match j.as_u64() {
            Some(n) if n >= 1 => Ok(n as usize),
            _ => Err(format!("field '{key}' must be an integer >= 1")),
        },
    }
}

/// Resolves a configuration label to a [`PipelineKind`]: the ISA
/// shorthands `sse`/`avx2`/`avx512` (the vectorized pipeline at that
/// width) or any full label from `all_pipeline_kinds`.
///
/// # Errors
///
/// Returns a message listing the accepted shorthands on an unknown label.
pub fn parse_config(label: &str) -> Result<PipelineKind, String> {
    use limpet_codegen::pipeline::VectorIsa;
    match label {
        "sse" => return Ok(PipelineKind::LimpetMlir(VectorIsa::Sse)),
        "avx2" => return Ok(PipelineKind::LimpetMlir(VectorIsa::Avx2)),
        "avx512" => return Ok(PipelineKind::LimpetMlir(VectorIsa::Avx512)),
        _ => {}
    }
    limpet_harness::all_pipeline_kinds()
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| {
            format!("unknown config '{label}' (try baseline, sse, avx2, avx512, or a full pipeline label)")
        })
}

/// How a finished job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion; the digest is valid.
    Done,
    /// Could not run (bad model, full quarantine, rejected fault spec).
    Failed,
    /// The client went away (or the daemon hard-stopped) mid-run.
    Aborted,
    /// The job's wall-clock budget expired: cancelled cooperatively at a
    /// step boundary, or reclaimed by the stuck-worker watchdog.
    Deadline,
}

impl JobStatus {
    /// Stable wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Aborted => "aborted",
            JobStatus::Deadline => "deadline",
        }
    }
}

/// The terminal record of one job: what the `result` verb returns and
/// the last event streamed on the submitting connection.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job this belongs to.
    pub id: String,
    /// The tenant it was accounted to.
    pub tenant: String,
    /// How it ended.
    pub status: JobStatus,
    /// FNV-1a trajectory digest (valid for [`JobStatus::Done`]).
    pub digest: Option<u64>,
    /// The execution tier the job finished on (`native`, `optimized`,
    /// `reference`), when a simulation was built at all.
    pub tier: Option<String>,
    /// Steps actually executed.
    pub steps_run: usize,
    /// Deduplicated incident groups, as the harness's `incidents_json`.
    pub incidents: Json,
    /// Failure description for [`JobStatus::Failed`].
    pub error: Option<String>,
}

impl JobOutcome {
    fn failed(spec: &JobSpec, error: String) -> JobOutcome {
        JobOutcome {
            id: spec.id.clone(),
            tenant: spec.tenant.clone(),
            status: JobStatus::Failed,
            digest: None,
            tier: None,
            steps_run: 0,
            incidents: Json::Arr(Vec::new()),
            error: Some(error),
        }
    }

    /// The outcome as the `{"event":"done",…}` wire object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("event", Json::str("done")),
            ("id", Json::str(&self.id)),
            ("tenant", Json::str(&self.tenant)),
            ("status", Json::str(self.status.as_str())),
        ];
        match self.digest {
            // Hex, not a JSON number: a 64-bit digest does not survive
            // the round-trip through f64.
            Some(d) => fields.push(("digest", Json::str(format!("{d:016x}")))),
            None => fields.push(("digest", Json::Null)),
        }
        match &self.tier {
            Some(t) => fields.push(("tier", Json::str(t))),
            None => fields.push(("tier", Json::Null)),
        }
        fields.push(("steps_run", self.steps_run.into()));
        fields.push(("incidents", self.incidents.clone()));
        if let Some(e) = &self.error {
            fields.push(("error", Json::str(e)));
        }
        Json::obj(fields)
    }
}

/// Per-connection event sink: job events are serialized lines pushed
/// into the connection's bounded outbox. Resumed jobs have no live
/// connection, hence the `Option`.
pub type Outbox = Option<Arc<Bounded<String>>>;

/// Everything the execution loop consults besides the spec: the pool's
/// abort flag, the job's cancellation token, and the heartbeat counter
/// the stuck-worker watchdog samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCtl<'a> {
    /// Pool-global abort (daemon hard stop); checked at chunk boundaries.
    pub abort: Option<&'a AtomicBool>,
    /// Per-job cancellation/deadline token, also threaded into the
    /// simulation so expiry lands at a *step* boundary, not just a chunk.
    pub token: Option<&'a CancelToken>,
    /// Bumped once per completed chunk — a flat-lining heartbeat past
    /// the deadline is what the watchdog treats as a wedged worker.
    pub heartbeat: Option<&'a AtomicU64>,
    /// The writer over the durable snapshot store. When present, the job
    /// auto-resumes from its latest snapshot on start, hands the writer a
    /// snapshot on the `ckpt_every` cadence, saves one itself on
    /// abort/deadline, and removes its snapshot on `Done`.
    pub ckpt: Option<&'a CheckpointWriter>,
    /// Checkpoint cadence in chunks (0 is treated as 1: every chunk).
    pub ckpt_every: usize,
    /// Force-checkpoint request flag, polled (and cleared) at every chunk
    /// boundary — the `checkpoint` wire verb's hook into a running job.
    pub force_ckpt: Option<&'a AtomicBool>,
}

/// The roster model `name`, parsed for its first job and kept for the
/// daemon's life (a roster source never changes; parsing it cost every job
/// ≈ 0.4 ms). `None` for a name outside the roster.
fn roster_model(name: &str) -> Option<&'static limpet_easyml::Model> {
    const MODELS: usize = limpet_models::ROSTER.len();
    static PARSED: [OnceLock<limpet_easyml::Model>; MODELS] = [const { OnceLock::new() }; MODELS];
    let at = limpet_models::ROSTER.iter().position(|e| e.name == name)?;
    Some(PARSED[at].get_or_init(|| limpet_models::model(name)))
}

/// Runs one job to completion on the calling thread.
///
/// Streams a `{"event":"chunk",…}` line into `outbox` after every
/// `spec.chunk` steps — [`Bounded::push`] blocking on a full outbox is
/// the backpressure that slows this job (and only this job) down to its
/// reader's pace. A closed outbox (client gone) or a raised abort flag
/// ends the job as [`JobStatus::Aborted`]; a tripped cancellation token
/// ends it as [`JobStatus::Deadline`] at a step boundary, state whole.
pub fn run_job(spec: &JobSpec, outbox: &Outbox, ctl: &RunCtl) -> JobOutcome {
    let inline;
    let model = match &spec.model {
        ModelRef::Roster(name) => match roster_model(name) {
            Some(m) => m,
            None => {
                return JobOutcome::failed(spec, format!("unknown roster model '{name}'"));
            }
        },
        ModelRef::Inline { name, source } => match limpet_harness::compile_source(name, source) {
            Ok(m) => {
                inline = m;
                &inline
            }
            Err(e) => {
                return JobOutcome::failed(spec, format!("inline model rejected: {e}"));
            }
        },
    };
    let config = match parse_config(&spec.config) {
        Ok(c) => c,
        Err(e) => return JobOutcome::failed(spec, e),
    };
    // The job's own fault plan, current on this worker (and the threads the
    // harness spawns for it) until the job returns; no other job sees it.
    let _plan = match faults::arm(spec.inject.as_deref().unwrap_or_default()) {
        Ok(plan) => plan,
        Err(e) => return JobOutcome::failed(spec, format!("bad inject spec: {e}")),
    };
    // The WorkerHang injection stalls the thread for the payload's
    // duration in milliseconds ("worker-hang@3000" = 3s), deliberately
    // ignoring the token — a genuine non-cooperative stall only the
    // watchdog can deal with.
    if let Some(ms) = faults::take(faults::FaultKind::WorkerHang) {
        std::thread::sleep(Duration::from_millis(ms.clamp(1, 600_000)));
    }
    let wl = Workload {
        n_cells: spec.cells,
        steps: spec.steps,
        dt: spec.dt,
    };
    let mut sim = match Simulation::new_resilient(model, config, &wl, HealthPolicy::FallbackRaw) {
        Ok(sim) => sim,
        Err(q) => {
            return JobOutcome::failed(
                spec,
                format!("model quarantined on every tier: {}", q.error),
            );
        }
    };
    if let Some(token) = ctl.token {
        // Threaded into guarded stepping so expiry stops at a step
        // boundary inside a chunk, never leaving torn mid-step state.
        sim.set_cancel_token(token.clone());
    }
    let mut steps_run = 0;
    if let Some(writer) = ctl.ckpt {
        // Nothing of an earlier run of this id may land under the load.
        writer.settle(&spec.id);
        steps_run = try_resume(writer.store(), spec, &mut sim);
    }
    let mut aborted = false;
    let mut deadline = None;
    let mut chunks_done: u64 = 0;
    let ckpt_every = ctl.ckpt_every.max(1) as u64;
    while steps_run < spec.steps {
        if ctl.abort.is_some_and(|a| a.load(Ordering::SeqCst)) {
            aborted = true;
            break;
        }
        let n = spec.chunk.min(spec.steps - steps_run);
        // An Err here means the job's budget expired (typed incident) or
        // even the reference tier gave up; stop stepping (matching
        // `trajectory_digest`) and report what ran.
        let stopped = match sim.run_guarded(n) {
            Ok(()) => false,
            Err(incident) => {
                if incident.kind == IncidentKind::DeadlineExceeded {
                    deadline = Some(incident.detail.clone());
                }
                true
            }
        };
        steps_run += n;
        chunks_done += 1;
        if let Some(hb) = ctl.heartbeat {
            hb.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(writer) = ctl.ckpt {
            let forced = ctl
                .force_ckpt
                .is_some_and(|f| f.swap(false, Ordering::SeqCst));
            // Skip the final boundary: the job is about to finish and
            // remove its snapshot anyway.
            if (forced || chunks_done.is_multiple_of(ckpt_every))
                && steps_run < spec.steps
                && !stopped
            {
                writer.submit(&spec.id, job_snapshot(spec, &sim));
            }
        }
        if let Some(out) = outbox {
            let event = Json::obj(vec![
                ("event", Json::str("chunk")),
                ("id", Json::str(&spec.id)),
                ("step", steps_run.into()),
                ("t", sim.time().into()),
                ("vm0", sim.vm(0).into()),
                ("tier", Json::str(sim.tier().to_string())),
            ]);
            if out.push(event.to_string()).is_err() {
                aborted = true;
                break;
            }
        }
        if stopped {
            break;
        }
    }
    let status = if deadline.is_some() {
        JobStatus::Deadline
    } else if aborted {
        JobStatus::Aborted
    } else {
        JobStatus::Done
    };
    if let Some(writer) = ctl.ckpt {
        // Terminal store operations run here, on the worker, after
        // whatever the writer still had of this job: a cadence snapshot
        // written later would undo either of them.
        writer.settle(&spec.id);
        if status == JobStatus::Done {
            // The digest is journaled, the snapshot has served its
            // purpose. Leaving it would let a later resume of the same id
            // silently re-run from mid-trajectory.
            writer.store().remove(&spec.id);
        } else {
            // Aborted or deadline: persist the exact step-boundary state
            // so the next incarnation (journal replay or `resume` verb)
            // continues instead of recomputing from step 0 — durably,
            // before the outcome is reported or journaled.
            save_snapshot(writer.store(), &spec.id, &job_snapshot(spec, &sim));
        }
    }
    let digest = if status == JobStatus::Done {
        Some(vm_digest(&sim, spec.cells))
    } else {
        None
    };
    JobOutcome {
        id: spec.id.clone(),
        tenant: spec.tenant.clone(),
        status,
        digest,
        tier: Some(sim.tier().to_string()),
        steps_run,
        incidents: Json::parse(&limpet_harness::incidents_json(sim.incidents()))
            .unwrap_or(Json::Arr(Vec::new())),
        error: deadline,
    }
}

/// Attempts to restore the job's latest durable snapshot into `sim`.
/// Returns the step to continue from (0 when there is nothing usable).
/// Every rejected file on the load ladder is logged and already
/// self-healed (removed) by the store; a key or shape mismatch falls
/// back to step 0 rather than failing the job.
fn try_resume(store: &SnapshotStore, spec: &JobSpec, sim: &mut Simulation) -> usize {
    let outcome = store.load(&spec.id);
    for (path, reason) in &outcome.rejects {
        eprintln!(
            "limpet-serve: checkpoint: rejected snapshot {} ({}); removed",
            path.display(),
            reason.as_str()
        );
    }
    let Some(snap) = &outcome.snapshot else {
        if !outcome.rejects.is_empty() {
            eprintln!(
                "limpet-serve: checkpoint: no usable snapshot for job {}; starting from step 0",
                spec.id
            );
        }
        return 0;
    };
    let usable = snap
        .key_matches(spec.model.name(), &spec.config, spec.cells, spec.dt)
        .and_then(|()| sim.restore(snap));
    match usable {
        Ok(()) => {
            let at = (snap.steps_done as usize).min(spec.steps);
            eprintln!(
                "limpet-serve: checkpoint: resumed job {} at step {}{}",
                spec.id,
                at,
                if outcome.from_previous {
                    " (previous rotation)"
                } else {
                    ""
                }
            );
            at
        }
        Err(e) => {
            eprintln!(
                "limpet-serve: checkpoint: snapshot for job {} unusable ({e}); starting from step 0",
                spec.id
            );
            0
        }
    }
}

/// The job's state as a snapshot, embedding the job-spec JSON so that it
/// is self-contained for the `resume` wire verb. Uses the guard's own step
/// counter, not the chunk loop's tally — a deadline can stop a chunk
/// early, and recording too many steps would make the resumed trajectory
/// diverge.
fn job_snapshot(spec: &JobSpec, sim: &Simulation) -> Snapshot {
    let mut snap = sim.snapshot(&spec.config, sim.guarded_steps() as u64);
    snap.meta = Some(spec.to_json().to_string());
    snap
}

/// Durably saves a job's snapshot — the one call both the writer thread
/// and a terminating worker make. Failures are logged and counted by the
/// store (`survivability.checkpoint_save_failures`), never fatal: a job
/// must not die because its checkpoint could not be written.
fn save_snapshot(store: &SnapshotStore, id: &str, snap: &Snapshot) {
    if let Err(e) = store.save(id, snap) {
        eprintln!("limpet-serve: checkpoint: save for job {id} failed: {e}");
    }
}

/// What the writer thread and the workers share.
#[derive(Debug, Default)]
struct WriterQueue {
    /// At most one snapshot per job id, in the order the ids first asked.
    pending: VecDeque<(String, Snapshot)>,
    /// The job whose snapshot is being written right now.
    writing: Option<String>,
    /// Set by [`CheckpointWriter::shutdown`]: exit once `pending` is empty.
    stop: bool,
}

#[derive(Debug)]
struct WriterShared {
    store: Arc<SnapshotStore>,
    queue: Mutex<WriterQueue>,
    /// Signalled when a snapshot arrives or `stop` is set (the writer
    /// waits for those) and when a write ends ([`CheckpointWriter::settle`]
    /// waits for that).
    changed: Condvar,
    superseded: AtomicU64,
}

impl WriterShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, WriterQueue> {
        // Every update of the queue is a single push, pop or assignment.
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn write_until_stopped(&self) {
        let mut queue = self.lock();
        loop {
            if let Some((id, snap)) = queue.pending.pop_front() {
                queue.writing = Some(id.clone());
                drop(queue);
                save_snapshot(&self.store, &id, &snap);
                queue = self.lock();
                queue.writing = None;
                self.changed.notify_all();
            } else if queue.stop {
                return;
            } else {
                queue = self.changed.wait(queue).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

/// The one thread that writes cadence checkpoints, so that no worker
/// waits for the disk between two chunks. It holds at most one snapshot
/// per job: a newer one replaces an unwritten older one (counted as
/// superseded — the file it would have made would have been replaced by
/// the newer one's anyway). Writing is the unchanged
/// [`SnapshotStore::save`], every flush included; what a job can resume
/// from after a crash is the newest snapshot whose write had finished.
#[derive(Debug)]
pub struct CheckpointWriter {
    shared: Arc<WriterShared>,
    /// Taken by [`CheckpointWriter::shutdown`].
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl CheckpointWriter {
    /// Starts the writer thread over `store`.
    pub fn new(store: Arc<SnapshotStore>) -> CheckpointWriter {
        let shared = Arc::new(WriterShared {
            store,
            queue: Mutex::default(),
            changed: Condvar::new(),
            superseded: AtomicU64::new(0),
        });
        let sh = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("limpet-ckpt-writer".into())
            .spawn(move || sh.write_until_stopped())
            .expect("spawning the checkpoint writer thread");
        CheckpointWriter {
            shared,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// The store this writer saves into.
    pub fn store(&self) -> &SnapshotStore {
        &self.shared.store
    }

    /// Leaves `snap` to be written as job `id`'s checkpoint, replacing a
    /// snapshot of the same job that is still waiting.
    pub fn submit(&self, id: &str, snap: Snapshot) {
        let mut queue = self.shared.lock();
        match queue.pending.iter_mut().find(|(held, _)| held == id) {
            Some((_, held)) => {
                *held = snap;
                self.shared.superseded.fetch_add(1, Ordering::Relaxed);
            }
            None => queue.pending.push_back((id.to_owned(), snap)),
        }
        self.shared.changed.notify_all();
    }

    /// Makes the writer done with job `id`: a snapshot still waiting is
    /// dropped (superseded by what the caller does next), a write in
    /// flight is waited for. After this returns, nothing the writer was
    /// given for `id` before the call can reach the store.
    pub fn settle(&self, id: &str) {
        let mut queue = self.shared.lock();
        let before = queue.pending.len();
        queue.pending.retain(|(held, _)| held != id);
        if queue.pending.len() < before {
            self.shared.superseded.fetch_add(1, Ordering::Relaxed);
        }
        while queue.writing.as_deref() == Some(id) {
            queue = self
                .shared
                .changed
                .wait(queue)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Snapshots dropped unwritten because a newer state of their job
    /// took their place (monotonic).
    pub fn superseded(&self) -> u64 {
        self.shared.superseded.load(Ordering::Relaxed)
    }

    /// Writes what is still waiting, then stops and joins the thread
    /// (once; later calls find it gone).
    ///
    /// # Panics
    ///
    /// With the writer thread's panic, if it had one.
    pub fn shutdown(&self) {
        self.shared.lock().stop = true;
        self.shared.changed.notify_all();
        let thread = self.thread.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(Err(panic)) = thread.map(JoinHandle::join) {
            std::panic::resume_unwind(panic);
        }
    }
}

/// FNV-1a over every cell's membrane-potential bits — the very hash the
/// harness's `trajectory_digest` calls, so service digests are comparable
/// to `figures --digest` output.
fn vm_digest(sim: &Simulation, n_cells: usize) -> u64 {
    limpet_harness::fnv1a_words((0..n_cells).map(|cell| sim.vm(cell).to_bits()))
}

/// One queued unit of work: the spec plus the submitting connection's
/// outbox (absent for journal-resumed jobs, which have no live client).
#[derive(Debug)]
pub struct QueuedJob {
    /// The job to run.
    pub spec: JobSpec,
    /// Where to stream events, if anyone is listening.
    pub outbox: Outbox,
}

/// Sizing and survivability knobs for a [`Pool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded job-queue capacity.
    pub queue_cap: usize,
    /// Default per-job wall-clock budget (ms) for specs that carry none;
    /// `None` leaves such jobs unbudgeted.
    pub default_deadline_ms: Option<u64>,
    /// Stuck-worker watchdog sweep interval; `None` disables the
    /// watchdog entirely (then a non-cooperative worker is never
    /// reclaimed — tests and embedded pools only).
    pub watchdog: Option<Duration>,
    /// Durable snapshot store, written through the pool's one
    /// [`CheckpointWriter`]; `None` disables checkpointing (jobs always
    /// start from step 0).
    pub snapshot_store: Option<Arc<SnapshotStore>>,
    /// Checkpoint cadence: snapshot every N completed chunks (plus on
    /// abort/deadline and on a `checkpoint` request). 0 is treated as 1.
    pub checkpoint_every_chunks: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 2,
            queue_cap: 64,
            default_deadline_ms: None,
            watchdog: None,
            snapshot_store: None,
            checkpoint_every_chunks: 1,
        }
    }
}

/// The watchdog's view of one in-flight job, published by the worker
/// into its slot before stepping begins.
#[derive(Debug)]
struct ActiveJob {
    spec: JobSpec,
    outbox: Outbox,
    token: CancelToken,
    heartbeat: Arc<AtomicU64>,
    /// Set by the watchdog when it reclaims the job; the owning worker
    /// then suppresses its own (late) completion and exits.
    abandoned: Arc<AtomicBool>,
    /// The owning worker thread's wedged flag — set so shutdown does not
    /// block joining a thread that may never return.
    thread_wedged: Arc<AtomicBool>,
    /// When the watchdog first saw the job's budget tripped; reclaim
    /// fires one full sweep interval later, giving a cooperative worker
    /// time to stop at its own step boundary.
    tripped_at: Option<Instant>,
    /// Set by [`Pool::request_checkpoint`]; the worker snapshots (and
    /// clears the flag) at its next chunk boundary.
    force_ckpt: Arc<AtomicBool>,
}

/// Completion callback: invoked once per job with its final outcome
/// (once for each of [`PoolShared::on_settled`] and
/// [`PoolShared::on_done`]).
type DoneHook = Arc<dyn Fn(&JobSpec, &JobOutcome) + Send + Sync>;

/// Stall callback: invoked with the spec and a reason when the watchdog
/// reclaims a wedged worker.
type StallHook = Arc<dyn Fn(&JobSpec, &str) + Send + Sync>;

/// State shared between workers, the watchdog, and the pool handle.
struct PoolShared {
    queue: Arc<Bounded<QueuedJob>>,
    abort: AtomicBool,
    /// One slot per worker index; `None` when that worker is idle.
    slots: Vec<Mutex<Option<ActiveJob>>>,
    /// Invoked before the job's `done` event is pushed to its client, so
    /// whatever the client asks next already counts the job.
    on_settled: DoneHook,
    /// Invoked after the `done` event is pushed: for work no reply waits
    /// on (the journal's synced `done` line).
    on_done: DoneHook,
    /// Invoked (with the spec and a reason) when the watchdog reclaims a
    /// wedged worker — the server's hook for its counters.
    on_stall: StallHook,
    default_deadline_ms: Option<u64>,
    /// The checkpoint writer over the configured snapshot store.
    ckpt: Option<CheckpointWriter>,
    ckpt_every: usize,
    /// `(handle, wedged)` for every thread ever spawned; wedged threads
    /// are left behind (not joined) at shutdown.
    threads: Mutex<Vec<(JoinHandle<()>, Arc<AtomicBool>)>>,
    watchdog_stop: AtomicBool,
    respawns: AtomicU64,
}

impl PoolShared {
    fn lock_slot(&self, i: usize) -> std::sync::MutexGuard<'_, Option<ActiveJob>> {
        self.slots[i].lock().unwrap_or_else(|p| p.into_inner())
    }
}

fn spawn_worker(shared: &Arc<PoolShared>, i: usize) {
    let sh = Arc::clone(shared);
    let wedged = Arc::new(AtomicBool::new(false));
    let my_wedged = Arc::clone(&wedged);
    let handle = std::thread::Builder::new()
        .name(format!("limpet-worker-{i}"))
        .spawn(move || {
            while let Some(job) = sh.queue.pop() {
                let QueuedJob { spec, outbox } = job;
                let token = match spec.deadline_ms.or(sh.default_deadline_ms) {
                    Some(ms) => CancelToken::with_budget(Duration::from_millis(ms.max(1))),
                    None => CancelToken::new(),
                };
                let heartbeat = Arc::new(AtomicU64::new(0));
                let abandoned = Arc::new(AtomicBool::new(false));
                let force_ckpt = Arc::new(AtomicBool::new(false));
                *sh.lock_slot(i) = Some(ActiveJob {
                    spec: spec.clone(),
                    outbox: outbox.clone(),
                    token: token.clone(),
                    heartbeat: Arc::clone(&heartbeat),
                    abandoned: Arc::clone(&abandoned),
                    thread_wedged: Arc::clone(&my_wedged),
                    tripped_at: None,
                    force_ckpt: Arc::clone(&force_ckpt),
                });
                let outcome = run_job(
                    &spec,
                    &outbox,
                    &RunCtl {
                        abort: Some(&sh.abort),
                        token: Some(&token),
                        heartbeat: Some(&heartbeat),
                        ckpt: sh.ckpt.as_ref(),
                        ckpt_every: sh.ckpt_every,
                        force_ckpt: Some(&force_ckpt),
                    },
                );
                // Completion races the watchdog's reclaim; the slot lock
                // arbitrates. Losing means a replacement worker already
                // owns this slot and the job was reported as a deadline —
                // this thread is surplus and exits without reporting.
                let claimed = {
                    let mut slot = sh.lock_slot(i);
                    if abandoned.load(Ordering::SeqCst) {
                        false
                    } else {
                        *slot = None;
                        true
                    }
                };
                if !claimed {
                    return;
                }
                (sh.on_settled)(&spec, &outcome);
                if let Some(out) = &outbox {
                    // Best effort: the client may already be gone.
                    let _ = out.push(outcome.to_json().to_string());
                }
                (sh.on_done)(&spec, &outcome);
            }
        })
        .expect("spawning a worker thread");
    shared
        .threads
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push((handle, wedged));
}

/// One watchdog sweep: reclaim every slot whose job's budget tripped at
/// least `grace` ago and whose worker still hasn't returned.
fn watchdog_sweep(sh: &Arc<PoolShared>, grace: Duration) {
    for i in 0..sh.slots.len() {
        let reclaimed = {
            let mut slot = sh.lock_slot(i);
            let Some(active) = slot.as_mut() else {
                continue;
            };
            if active.token.checked().is_none() {
                // Budget not exhausted (or no budget at all): a slow
                // chunk is not a stall. The deadline is the authority.
                active.tripped_at = None;
                continue;
            }
            match active.tripped_at {
                None => {
                    active.tripped_at = Some(Instant::now());
                    continue;
                }
                Some(t) if t.elapsed() < grace => continue,
                Some(_) => slot.take(),
            }
        };
        let Some(active) = reclaimed else { continue };
        // The worker ignored its tripped budget for a full sweep
        // interval: treat it as wedged. Cancel (idempotent), mark the
        // job abandoned so the worker's late completion is suppressed
        // and the thread exits, report the 504, and restore capacity.
        active.token.cancel();
        active.abandoned.store(true, Ordering::SeqCst);
        active.thread_wedged.store(true, Ordering::SeqCst);
        let spec = &active.spec;
        let reason = format!(
            "watchdog: worker unresponsive {}ms past its deadline; job reclaimed",
            grace.as_millis()
        );
        if let Some(out) = &active.outbox {
            // try_push, not push: a full outbox must not stall the sweep
            // that protects every other connection.
            let _ = out.try_push(
                Json::obj(vec![
                    ("event", Json::str("deadline")),
                    ("id", Json::str(&spec.id)),
                    ("code", 504u64.into()),
                    ("reason", Json::str(&reason)),
                ])
                .to_string(),
            );
        }
        let chunks = active.heartbeat.load(Ordering::SeqCst) as usize;
        let outcome = JobOutcome {
            id: spec.id.clone(),
            tenant: spec.tenant.clone(),
            status: JobStatus::Deadline,
            digest: None,
            tier: None,
            steps_run: (chunks * spec.chunk).min(spec.steps),
            incidents: Json::Arr(Vec::new()),
            error: Some(reason.clone()),
        };
        (sh.on_settled)(spec, &outcome);
        if let Some(out) = &active.outbox {
            let _ = out.try_push(outcome.to_json().to_string());
        }
        (sh.on_done)(spec, &outcome);
        (sh.on_stall)(spec, &reason);
        sh.respawns.fetch_add(1, Ordering::SeqCst);
        spawn_worker(sh, i);
    }
}

fn request_checkpoint_in(sh: &Arc<PoolShared>, id: &str) -> bool {
    for i in 0..sh.slots.len() {
        let slot = sh.lock_slot(i);
        if let Some(active) = slot.as_ref() {
            if active.spec.id == id {
                active.force_ckpt.store(true, Ordering::SeqCst);
                return true;
            }
        }
    }
    false
}

/// A cloneable capability for flagging active jobs for an immediate
/// checkpoint (see [`Pool::request_checkpoint`]), held by connection
/// threads that must not own the pool itself.
#[derive(Clone)]
pub struct CheckpointRequester {
    shared: Arc<PoolShared>,
}

impl std::fmt::Debug for CheckpointRequester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointRequester").finish()
    }
}

impl CheckpointRequester {
    /// See [`Pool::request_checkpoint`].
    pub fn request(&self, id: &str) -> bool {
        request_checkpoint_in(&self.shared, id)
    }

    /// Cadence snapshots the pool's checkpoint writer dropped unwritten
    /// because a newer state of the same job (a later snapshot, or its
    /// terminal save or removal) took their place.
    pub fn superseded(&self) -> u64 {
        self.shared
            .ckpt
            .as_ref()
            .map_or(0, CheckpointWriter::superseded)
    }
}

/// A fixed-size worker pool draining a shared bounded job queue, with an
/// optional stuck-worker watchdog that reclaims wedged workers.
pub struct Pool {
    shared: Arc<PoolShared>,
    watchdog: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.shared.slots.len())
            .field("queued", &self.shared.queue.len())
            .finish()
    }
}

impl Pool {
    /// Spawns the configured worker threads popping jobs from a bounded
    /// queue. Every finished job is handed to `on_settled` before its
    /// `done` event reaches the client (ledger release, counters, results
    /// map) and to `on_done` after (the journal's `done` line) — the
    /// server's business, injected so the pool stays mechanism-only;
    /// every watchdog reclaim additionally fires `on_stall` with the
    /// wedged job's spec.
    pub fn new<S, F, G>(config: PoolConfig, on_settled: S, on_done: F, on_stall: G) -> Pool
    where
        S: Fn(&JobSpec, &JobOutcome) + Send + Sync + 'static,
        F: Fn(&JobSpec, &JobOutcome) + Send + Sync + 'static,
        G: Fn(&JobSpec, &str) + Send + Sync + 'static,
    {
        let workers = config.workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Arc::new(Bounded::new(config.queue_cap.max(1))),
            abort: AtomicBool::new(false),
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            on_settled: Arc::new(on_settled),
            on_done: Arc::new(on_done),
            on_stall: Arc::new(on_stall),
            default_deadline_ms: config.default_deadline_ms,
            ckpt: config.snapshot_store.clone().map(CheckpointWriter::new),
            ckpt_every: config.checkpoint_every_chunks.max(1),
            threads: Mutex::new(Vec::new()),
            watchdog_stop: AtomicBool::new(false),
            respawns: AtomicU64::new(0),
        });
        for i in 0..workers {
            spawn_worker(&shared, i);
        }
        let watchdog = config.watchdog.map(|grace| {
            let sh = Arc::clone(&shared);
            // Sweep a few times per grace interval so reclaim latency is
            // bounded by ~grace, not 2×grace.
            let tick = (grace / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
            std::thread::Builder::new()
                .name("limpet-watchdog".into())
                .spawn(move || {
                    while !sh.watchdog_stop.load(Ordering::SeqCst) {
                        std::thread::sleep(tick);
                        watchdog_sweep(&sh, grace);
                    }
                })
                .expect("spawning the watchdog thread")
        });
        Pool { shared, watchdog }
    }

    /// Enqueues a job. Blocks if the queue is momentarily full (admission
    /// control caps the in-flight total well below sustained fullness).
    ///
    /// # Errors
    ///
    /// Returns the job back when the pool is already shutting down.
    pub fn submit(&self, job: QueuedJob) -> Result<(), crate::queue::Closed> {
        self.shared.queue.push(job)
    }

    /// Jobs waiting in the queue (not counting ones being executed).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// Workers respawned by the watchdog after reclaiming a wedged one.
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::SeqCst)
    }

    /// A submit/len handle to the underlying queue, for connection
    /// threads that outlive nothing but must not own the pool.
    pub fn queue_handle(&self) -> Arc<Bounded<QueuedJob>> {
        Arc::clone(&self.shared.queue)
    }

    /// Requests an immediate durable checkpoint of an active job. The
    /// owning worker snapshots at its next chunk boundary. Returns `true`
    /// when the job is currently executing on some worker; `false` means
    /// queued, finished, or unknown (queued jobs checkpoint on their
    /// normal cadence once they start).
    pub fn request_checkpoint(&self, id: &str) -> bool {
        request_checkpoint_in(&self.shared, id)
    }

    /// A detachable handle for requesting checkpoints without owning the
    /// pool — what connection threads hold.
    pub fn checkpoint_requester(&self) -> CheckpointRequester {
        CheckpointRequester {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the pool. With `drain`, queued and running jobs finish
    /// first; without, running jobs abort at their next chunk boundary
    /// and still-queued jobs drain through as immediate aborts (their
    /// hooks fire with [`JobStatus::Aborted`], so the journal and
    /// ledger stay consistent). Threads the watchdog marked wedged are
    /// not joined — they may never return, and their late completions
    /// are already suppressed.
    pub fn shutdown(self, drain: bool) {
        if !drain {
            self.shared.abort.store(true, Ordering::SeqCst);
        }
        self.shared.queue.close();
        self.shared.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(w) = self.watchdog {
            let _ = w.join();
        }
        let threads = std::mem::take(
            &mut *self
                .shared
                .threads
                .lock()
                .unwrap_or_else(|p| p.into_inner()),
        );
        for (handle, wedged) in threads {
            if wedged.load(Ordering::SeqCst) {
                drop(handle);
            } else {
                let _ = handle.join();
            }
        }
        // Every joined worker settled its last job, so the writer has
        // nothing left; what a wedged one hands in later is never written.
        if let Some(writer) = &self.shared.ckpt {
            writer.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn spec(id: &str, model: &str, config: &str, cells: usize, steps: usize) -> JobSpec {
        JobSpec {
            id: id.into(),
            tenant: "t".into(),
            model: ModelRef::Roster(model.into()),
            config: config.into(),
            cells,
            steps,
            dt: 0.01,
            chunk: 8,
            inject: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let mut s = spec("j1", "HodgkinHuxley", "avx512", 64, 32);
        s.inject = Some("verify-fail@7".into());
        s.deadline_ms = Some(2500);
        let encoded = s.to_json().to_string();
        let decoded = JobSpec::from_json(&Json::parse(&encoded).unwrap(), "fallback").unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn from_json_applies_defaults_and_validates() {
        let v = Json::parse(r#"{"model":"HodgkinHuxley"}"#).unwrap();
        let s = JobSpec::from_json(&v, "gen-1").unwrap();
        assert_eq!(s.id, "gen-1");
        assert_eq!(s.tenant, "anon");
        assert_eq!(s.config, "baseline");
        assert_eq!((s.cells, s.steps, s.chunk), (256, 100, 32));
        assert!(JobSpec::from_json(&Json::parse("{}").unwrap(), "x").is_err());
        let bad = Json::parse(r#"{"model":"HH","cells":0}"#).unwrap();
        assert!(JobSpec::from_json(&bad, "x").is_err());
        let bad = Json::parse(r#"{"model":"HH","config":"warp9"}"#).unwrap();
        assert!(JobSpec::from_json(&bad, "x").is_err());
    }

    #[test]
    fn config_shorthands_resolve() {
        assert_eq!(parse_config("baseline").unwrap().label(), "baseline");
        assert_eq!(
            parse_config("avx512").unwrap().label(),
            "limpetMLIR-AVX-512"
        );
        assert_eq!(
            parse_config("limpetMLIR-AoS-SSE").unwrap().label(),
            "limpetMLIR-AoS-SSE"
        );
        assert!(parse_config("warp9").is_err());
    }

    #[test]
    fn run_job_digest_matches_harness_driver() {
        let wl = Workload {
            n_cells: 32,
            steps: 12,
            dt: 0.01,
        };
        let m = limpet_models::model("HodgkinHuxley");
        let expected =
            limpet_harness::trajectory_digest(&m, PipelineKind::Baseline, &wl, wl.steps).unwrap();
        let outcome = run_job(
            &spec("d", "HodgkinHuxley", "baseline", wl.n_cells, wl.steps),
            &None,
            &RunCtl::default(),
        );
        assert_eq!(outcome.status, JobStatus::Done);
        assert_eq!(outcome.digest, Some(expected));
        assert_eq!(outcome.tier.as_deref(), Some("optimized"));
    }

    #[test]
    fn run_job_reports_unknown_model_and_bad_config() {
        let out = run_job(
            &spec("x", "NoSuchModel", "baseline", 4, 4),
            &None,
            &RunCtl::default(),
        );
        assert_eq!(out.status, JobStatus::Failed);
        assert!(out.error.as_deref().unwrap().contains("NoSuchModel"));
    }

    #[test]
    fn a_roster_model_is_parsed_once_per_process() {
        let first = roster_model("HodgkinHuxley").unwrap();
        assert!(std::ptr::eq(first, roster_model("HodgkinHuxley").unwrap()));
        assert_eq!(first.name, "HodgkinHuxley");
        assert!(roster_model("NoSuchModel").is_none());
    }

    #[test]
    fn pool_runs_jobs_and_reports_done() {
        let done: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let done2 = Arc::clone(&done);
        let pool = Pool::new(
            PoolConfig {
                workers: 2,
                queue_cap: 8,
                ..PoolConfig::default()
            },
            |_, _| {},
            move |spec, outcome| {
                assert_eq!(outcome.status, JobStatus::Done);
                done2.lock().unwrap().push(spec.id.clone());
            },
            |_, _| {},
        );
        for i in 0..4 {
            pool.submit(QueuedJob {
                spec: spec(&format!("j{i}"), "HodgkinHuxley", "baseline", 8, 4),
                outbox: None,
            })
            .unwrap();
        }
        pool.shutdown(true);
        let mut ids = done.lock().unwrap().clone();
        ids.sort();
        assert_eq!(ids, ["j0", "j1", "j2", "j3"]);
    }

    /// A client that asks for `stats` or `result` as soon as it reads
    /// `done` must find the job counted, so the settle hook runs before
    /// the `done` event is pushed.
    #[test]
    fn a_job_is_settled_before_its_client_sees_done() {
        let settled: Arc<Mutex<Vec<String>>> = Arc::default();
        let settled2 = Arc::clone(&settled);
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_cap: 8,
                ..PoolConfig::default()
            },
            move |spec, _| {
                // Slow enough that a push made before this hook ran would
                // be read while the job is still unsettled.
                std::thread::sleep(Duration::from_millis(20));
                settled2.lock().unwrap().push(spec.id.clone());
            },
            |_, _| {},
            |_, _| {},
        );
        for i in 0..8 {
            let id = format!("s{i}");
            let outbox = Arc::new(Bounded::new(64));
            pool.submit(QueuedJob {
                spec: spec(&id, "HodgkinHuxley", "baseline", 8, 4),
                outbox: Some(Arc::clone(&outbox)),
            })
            .unwrap();
            while let Some(event) = outbox.pop() {
                let event = Json::parse(&event).unwrap();
                if event.get("event").and_then(Json::as_str) == Some("done") {
                    break;
                }
            }
            assert!(settled.lock().unwrap().contains(&id), "{id} not settled");
        }
        pool.shutdown(true);
    }

    #[test]
    fn expired_budget_ends_job_as_deadline_with_whole_state() {
        let mut s = spec("dl", "HodgkinHuxley", "baseline", 8, 1000);
        s.deadline_ms = Some(1);
        let token = CancelToken::with_budget(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        let out = run_job(
            &s,
            &None,
            &RunCtl {
                abort: None,
                token: Some(&token),
                heartbeat: None,
                ..RunCtl::default()
            },
        );
        assert_eq!(out.status, JobStatus::Deadline);
        assert_eq!(out.digest, None);
        assert!(out.error.as_deref().unwrap().contains("deadline-exceeded"));
        assert!(out.steps_run < 1000, "must stop early, not run to the end");
    }

    /// A job interrupted mid-trajectory (client gone → abort at a chunk
    /// boundary) must leave a durable snapshot, and a re-run of the same
    /// spec over the same store must resume from it — not step 0 — and
    /// finish with the digest an uninterrupted run produces.
    #[test]
    fn run_job_resumes_from_snapshot_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "limpet-sched-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = CheckpointWriter::new(Arc::new(SnapshotStore::new(&dir).unwrap()));
        let store = writer.store();
        let s = spec("ck", "HodgkinHuxley", "baseline", 16, 40);

        let clean = run_job(
            &spec("ck-ref", "HodgkinHuxley", "baseline", 16, 40),
            &None,
            &RunCtl::default(),
        );
        assert_eq!(clean.status, JobStatus::Done);

        // Interrupt: a reader that consumes two chunk events and then
        // closes its outbox, so the job aborts at the next boundary.
        let outbox = Arc::new(crate::queue::Bounded::new(1));
        let reader_outbox = Arc::clone(&outbox);
        let reader = std::thread::spawn(move || {
            for _ in 0..2 {
                let _ = reader_outbox.pop();
            }
            reader_outbox.close();
        });
        let interrupted = run_job(
            &s,
            &Some(Arc::clone(&outbox)),
            &RunCtl {
                ckpt: Some(&writer),
                ..RunCtl::default()
            },
        );
        reader.join().unwrap();
        assert_eq!(interrupted.status, JobStatus::Aborted);
        assert!(interrupted.steps_run < 40, "must have stopped mid-run");
        assert!(store.stats().saved >= 1, "abort must leave a snapshot");
        assert!(store.has("ck"), "snapshot file must exist for the job id");

        let resumed = run_job(
            &s,
            &None,
            &RunCtl {
                ckpt: Some(&writer),
                ..RunCtl::default()
            },
        );
        assert_eq!(resumed.status, JobStatus::Done);
        assert_eq!(
            resumed.digest, clean.digest,
            "resumed trajectory must be bit-identical to uninterrupted"
        );
        assert_eq!(resumed.steps_run, 40);
        assert!(
            store.stats().loaded_current >= 1,
            "completion must have come from a snapshot resume"
        );
        assert!(!store.has("ck"), "done must remove the snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<SnapshotStore>) {
        let dir = std::env::temp_dir().join(format!("limpet-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SnapshotStore::new(&dir).unwrap());
        (dir, store)
    }

    /// A snapshot of `words` state words that says it was taken at `step`.
    fn snapshot_at(step: u64, words: usize) -> Snapshot {
        Snapshot {
            model: "m".into(),
            config: "baseline".into(),
            n_cells: 1,
            dt_bits: 0.01f64.to_bits(),
            t_bits: 0,
            steps_done: step,
            tier: "optimized".into(),
            executed_steps: step,
            nan_plan: None,
            shards: Vec::new(),
            meta: None,
            state: vec![step; words],
        }
    }

    /// Three snapshots of one job, the second and third arriving while the
    /// first is being written: the first and the third reach the disk, in
    /// that order, and the second is counted, not written.
    #[test]
    fn writer_keeps_only_the_newest_snapshot_behind_a_write_in_flight() {
        let (dir, store) = temp_store("newest-wins");
        let writer = CheckpointWriter::new(Arc::clone(&store));
        // The premise — both submits land while the first write is still
        // in flight — is checked, not assumed: a first snapshot large
        // enough to take milliseconds makes it hold, and an attempt in
        // which it did not is repeated under another id.
        let id = (0..20)
            .map(|attempt| format!("job-{attempt}"))
            .find(|id| {
                let writing = || writer.shared.lock().writing.as_deref() == Some(id);
                writer.submit(id, snapshot_at(1, 1 << 20));
                while !writing() {
                    if writer.shared.lock().pending.is_empty() {
                        return false;
                    }
                    std::thread::yield_now();
                }
                let superseded = writer.superseded();
                writer.submit(id, snapshot_at(2, 8));
                writer.submit(id, snapshot_at(3, 8));
                let held = writing();
                assert_eq!(writer.superseded() - superseded, 1, "2 replaced by 3");
                held
            })
            .expect("in twenty attempts a 8 MiB write never outlasted two submits");
        writer.shutdown();
        let steps_at = |path: std::path::PathBuf| {
            Snapshot::decode(&std::fs::read(path).unwrap())
                .unwrap()
                .steps_done
        };
        assert_eq!(steps_at(store.path_for(&id)), 3, "the newest is current");
        assert_eq!(
            steps_at(store.prev_path_for(&id)),
            1,
            "the first came first"
        );
        assert_eq!(store.stats().save_failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `settle` is what orders a worker's terminal store operation after
    /// the writer: it drops what waits, and waits for what is being
    /// written — after it, a `remove` stays removed.
    #[test]
    fn settle_then_remove_leaves_no_file_whatever_the_writer_held() {
        let (dir, store) = temp_store("settle");
        let writer = CheckpointWriter::new(Arc::clone(&store));
        for i in 0..400u64 {
            let id = format!("job-{}", i % 3);
            // One, two or three snapshots in a row, so that settle finds
            // the writer idle, writing, or writing with one waiting.
            for k in 0..=i % 3 {
                writer.submit(&id, snapshot_at(i + k, 64));
            }
            writer.settle(&id);
            store.remove(&id);
            assert!(!store.has(&id), "round {i}");
        }
        writer.shutdown();
        let left = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(left, 0, "no snapshot, no staging file");
        let stats = store.stats();
        assert_eq!(stats.save_failed, 0);
        // Every snapshot taken was either written or counted.
        let taken: u64 = (0..400u64).map(|i| 1 + i % 3).sum();
        assert_eq!(stats.saved + writer.superseded(), taken);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two workers, 600 short jobs that each leave cadence snapshots with
    /// the writer right up to their last chunk: once a job is `Done`, no
    /// file of its id exists, and none appears afterwards.
    #[test]
    fn done_jobs_leave_no_snapshot_behind_the_writer() {
        let (dir, store) = temp_store("done-removes");
        let checked = Arc::new(AtomicU64::new(0));
        let (store2, checked2) = (Arc::clone(&store), Arc::clone(&checked));
        let pool = Pool::new(
            PoolConfig {
                workers: 2,
                queue_cap: 8,
                snapshot_store: Some(Arc::clone(&store)),
                ..PoolConfig::default()
            },
            |_, _| {},
            move |spec, outcome| {
                assert_eq!(outcome.status, JobStatus::Done);
                assert!(!store2.has(&spec.id), "{} done but on disk", spec.id);
                checked2.fetch_add(1, Ordering::SeqCst);
            },
            |_, _| {},
        );
        for i in 0..600 {
            let mut s = spec(&format!("j{i}"), "HodgkinHuxley", "baseline", 2, 6);
            s.chunk = 2;
            pool.submit(QueuedJob {
                spec: s,
                outbox: None,
            })
            .unwrap();
        }
        let superseded = pool.checkpoint_requester();
        pool.shutdown(true);
        assert_eq!(checked.load(Ordering::SeqCst), 600);
        let left = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(left, 0, "a write landed after its job's removal");
        // Two cadence boundaries per job (the last chunk takes none).
        let stats = store.stats();
        assert_eq!(stats.saved + superseded.superseded(), 1200);
        assert_eq!(stats.save_failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job that ends on its deadline has its snapshot on disk when
    /// `run_job` returns — the terminal one, not an older cadence one the
    /// writer got to first — and nothing is written over it afterwards.
    #[test]
    fn deadline_snapshot_is_durable_and_final_when_run_job_returns() {
        let (dir, store) = temp_store("deadline");
        let writer = CheckpointWriter::new(Arc::clone(&store));
        let mut s = spec("dl", "HodgkinHuxley", "baseline", 8, 2_000_000);
        s.chunk = 16;
        let token = CancelToken::with_budget(Duration::from_millis(30));
        let ctl = RunCtl {
            token: Some(&token),
            ckpt: Some(&writer),
            ..RunCtl::default()
        };
        let out = run_job(&s, &None, &ctl);
        assert_eq!(out.status, JobStatus::Deadline);
        let on_return = store.load("dl").snapshot.expect("durable on return");
        // The guard's own count: the job's tally includes the whole of
        // the chunk the deadline cut short.
        let steps = on_return.steps_done as usize;
        assert!(
            steps < out.steps_run && steps + s.chunk >= out.steps_run,
            "snapshot at {steps}, job says {}",
            out.steps_run
        );
        writer.shutdown();
        let later = store.load("dl").snapshot.expect("still there");
        assert_eq!(
            later, on_return,
            "a cadence snapshot landed after the final one"
        );

        // And it is the state after exactly that many steps: a run over it
        // ends on the digest of an uninterrupted one.
        s.steps = steps + 40;
        let writer = CheckpointWriter::new(Arc::clone(&store));
        let ctl = RunCtl {
            ckpt: Some(&writer),
            ..RunCtl::default()
        };
        let resumed = run_job(&s, &None, &ctl);
        let mut clean = s.clone();
        clean.id = "dl-ref".into();
        let clean = run_job(&clean, &None, &RunCtl::default());
        assert_eq!(resumed.status, JobStatus::Done);
        assert_eq!(resumed.digest, clean.digest);
        assert!(store.stats().loaded_current >= 1, "resumed, not re-run");
        writer.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store that cannot be written to (its directory is gone — this
    /// suite runs as root, which a read-only mode does not stop) costs a
    /// job its checkpoints, counted, and nothing else.
    #[test]
    fn unwritable_store_counts_failures_and_the_job_still_finishes() {
        let (dir, store) = temp_store("unwritable");
        std::fs::remove_dir_all(&dir).unwrap();
        let writer = CheckpointWriter::new(Arc::clone(&store));
        let ctl = RunCtl {
            ckpt: Some(&writer),
            ..RunCtl::default()
        };
        // A reader that takes an event only once the writer is idle, on an
        // outbox of one: the job cannot outrun every one of its writes.
        let outbox = Arc::new(crate::queue::Bounded::new(1));
        let (events, shared) = (Arc::clone(&outbox), Arc::clone(&writer.shared));
        let reader = std::thread::spawn(move || loop {
            let queue = shared.lock();
            let idle = queue.pending.is_empty() && queue.writing.is_none();
            drop(queue);
            if !idle {
                std::thread::yield_now();
            } else if events.pop().is_none() {
                return;
            }
        });
        let job = spec("u", "HodgkinHuxley", "baseline", 32, 40);
        let out = run_job(&job, &Some(Arc::clone(&outbox)), &ctl);
        outbox.close();
        reader.join().unwrap();
        let clean = run_job(
            &spec("u-ref", "HodgkinHuxley", "baseline", 32, 40),
            &None,
            &RunCtl::default(),
        );
        assert_eq!(out.status, JobStatus::Done);
        assert_eq!(out.digest, clean.digest);
        writer.shutdown();
        // Four cadence boundaries before the last chunk.
        let stats = store.stats();
        assert_eq!(stats.saved, 0);
        assert_eq!(stats.save_failed + writer.superseded(), 4);
        assert!(stats.save_failed >= 1);
    }

    /// Shutdown joins the writer with nothing left to write — draining,
    /// and not: jobs aborted by a hard stop have saved their own snapshot.
    #[test]
    fn pool_shutdown_joins_the_writer_with_nothing_pending() {
        for drain in [true, false] {
            let (dir, store) = temp_store(if drain { "drain" } else { "no-drain" });
            let outcomes: Arc<Mutex<Vec<JobOutcome>>> = Arc::default();
            let outcomes2 = Arc::clone(&outcomes);
            let pool = Pool::new(
                PoolConfig {
                    workers: 2,
                    queue_cap: 8,
                    snapshot_store: Some(Arc::clone(&store)),
                    ..PoolConfig::default()
                },
                |_, _| {},
                move |_, outcome| outcomes2.lock().unwrap().push(outcome.clone()),
                |_, _| {},
            );
            for i in 0..6 {
                pool.submit(QueuedJob {
                    spec: spec(&format!("s{i}"), "HodgkinHuxley", "baseline", 64, 4000),
                    outbox: None,
                })
                .unwrap();
            }
            let shared = Arc::clone(&pool.shared);
            pool.shutdown(drain);
            let writer = shared.ckpt.as_ref().unwrap();
            assert!(writer.thread.lock().unwrap().is_none(), "joined");
            let queue = writer.shared.lock();
            assert!(queue.pending.is_empty() && queue.writing.is_none());
            drop(queue);
            let outcomes = outcomes.lock().unwrap();
            assert_eq!(outcomes.len(), 6);
            for out in outcomes.iter() {
                match out.status {
                    JobStatus::Done => assert!(!store.has(&out.id), "{}", out.id),
                    JobStatus::Aborted if out.tier.is_some() => {
                        let snap = store.load(&out.id).snapshot.expect("aborted jobs resume");
                        assert_eq!(snap.steps_done as usize, out.steps_run, "{}", out.id);
                    }
                    other => panic!("{}: {other:?}", out.id),
                }
            }
            if drain {
                assert!(outcomes.iter().all(|o| o.status == JobStatus::Done));
            }
            assert_eq!(store.stats().save_failed, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn watchdog_reclaims_wedged_worker_and_pool_keeps_serving() {
        let done: Arc<Mutex<Vec<(String, JobStatus)>>> = Arc::new(Mutex::new(Vec::new()));
        let stalled: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let done2 = Arc::clone(&done);
        let stalled2 = Arc::clone(&stalled);
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_cap: 8,
                default_deadline_ms: Some(50),
                watchdog: Some(Duration::from_millis(60)),
                ..PoolConfig::default()
            },
            |_, _| {},
            move |spec, outcome| {
                done2
                    .lock()
                    .unwrap()
                    .push((spec.id.clone(), outcome.status))
            },
            move |spec, _reason| stalled2.lock().unwrap().push(spec.id.clone()),
        );
        // First job wedges its worker for ~2s, far past the 50ms budget;
        // the second job can only ever run if the watchdog reclaims the
        // worker and spawns a replacement.
        let mut hung = spec("hung", "HodgkinHuxley", "baseline", 8, 4);
        hung.inject = Some("worker-hang@2000".into());
        pool.submit(QueuedJob {
            spec: hung,
            outbox: None,
        })
        .unwrap();
        pool.submit(QueuedJob {
            spec: spec("after", "HodgkinHuxley", "baseline", 8, 4),
            outbox: None,
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            {
                let d = done.lock().unwrap();
                if d.iter().any(|(id, _)| id == "after") && d.iter().any(|(id, _)| id == "hung") {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "pool never recovered: {done:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
        {
            let d = done.lock().unwrap();
            let hung_status = d.iter().find(|(id, _)| id == "hung").unwrap().1;
            let after_status = d.iter().find(|(id, _)| id == "after").unwrap().1;
            assert_eq!(hung_status, JobStatus::Deadline);
            assert_eq!(after_status, JobStatus::Done);
            assert_eq!(d.len(), 2, "no double-report from the woken worker");
        }
        assert_eq!(stalled.lock().unwrap().as_slice(), ["hung"]);
        assert_eq!(pool.respawns(), 1);
        // The wedged thread is still sleeping; shutdown must not hang on
        // it (wedged threads are skipped at join).
        pool.shutdown(true);
    }
}
