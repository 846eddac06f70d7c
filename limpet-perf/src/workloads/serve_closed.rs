//! `serve_closed` — the operator's view: the real `limpet-serve` daemon as
//! README deploys it (Unix socket, `nproc` workers, disk cache, journal,
//! per-chunk checkpoints), driven over its socket by a **closed loop** of
//! `nproc` connections: each submits a job, waits for its `done`, submits
//! the next — as `limpet-client` callers do, so a slower daemon receives
//! less load rather than a growing queue.
//!
//! Every round is the same multiset of jobs in a seeded order: each
//! roster model once (configuration and population alternating over
//! `baseline`/`limpetMLIR-AVX-512` and 256/1024 cells, 250 steps, default
//! chunk), plus six inline-EasyML jobs — about one in eight — whose
//! source has one `.param()` constant changed to a seeded value, so the
//! daemon must parse and cold-compile them. The median job sits in the
//! warm, step-bound mode; the inline jobs sit in the compile-bound one.
//!
//! Queue, wire, JSON, journal and per-chunk checkpoints are exercised
//! only here.

use super::{cells, repeat_setup, roster, Ctx, RosterModel, CONFIGS, QUICK_MODELS, W8};
use crate::calib::{self, Pace};
use crate::golden::{self, Golden};
use crate::host::{self, nproc};
use crate::report::Outcome;
use crate::stats::{median, quantile, tail_percentile};
use crate::trace::Tracer;
use limpet_harness::{
    compile_source, geomean, HealthPolicy, KernelCache, PipelineKind, Simulation,
};
use limpet_rng::SmallRng;
use serve::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const JOB_CELLS: [usize; 2] = [256, 1024];
const MIN_ROUNDS: usize = 2;
/// Roster models whose source is resubmitted inline with a changed
/// constant: two per size class, all with a `scale` parameter.
pub const COLD_MODELS: [&str; 6] = [
    "IKChCheng",
    "EphMarkov",
    "Campbell",
    "Maleckar",
    "Bondarenko",
    "WangSobie",
];

/// How the parameter the inline jobs change appears in a source.
pub const SCALE_PARAM: &str = " scale = ";

/// The daemon process, killed and reaped on drop — also when a check
/// panics — so no run leaves a `limpet-serve` behind.
#[derive(Debug)]
struct Daemon {
    child: Child,
    socket: PathBuf,
    cache_dir: PathBuf,
    /// Spawn to first successful connect.
    accept_s: f64,
}

impl Daemon {
    fn spawn(dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("limpet-serve");
        let socket = dir.join("s.sock");
        let cache_dir = dir.join("cache");
        let started = Instant::now();
        let child = Command::new(&bin)
            .arg("--unix")
            .arg(&socket)
            .args(["--workers", &nproc().to_string()])
            .arg("--cache-dir")
            .arg(&cache_dir)
            .arg("--journal")
            .arg(dir.join("jobs.journal"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            socket,
            cache_dir,
            accept_s: 0.0,
            child,
        };
        // The daemon prints `listening on <addr>` once it accepts.
        let stdout = daemon.child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        if !line.starts_with("listening on") {
            return Err(format!("daemon did not come up (said '{}')", line.trim()));
        }
        drop(Conn::open(&daemon.socket)?);
        daemon.accept_s = started.elapsed().as_secs_f64();
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_mb(self.child.id()).unwrap_or(0.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: newline-delimited JSON both ways.
struct Conn {
    reader: BufReader<UnixStream>,
    bytes: usize,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        // A wedged daemon must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            bytes: 0,
        })
    }

    fn send(&mut self, request: &Json) -> Result<(), String> {
        let line = format!("{request}\n");
        self.bytes += line.len();
        self.reader
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(n) => {
                self.bytes += n;
                Json::parse(&line).map_err(|e| format!("daemon sent bad JSON: {e}"))
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One request, one reply (verbs without streaming).
    fn call(&mut self, verb: &str) -> Result<(Json, f64), String> {
        let started = Instant::now();
        self.send(&Json::obj(vec![("verb", Json::str(verb))]))?;
        let reply = self.recv()?;
        Ok((reply, started.elapsed().as_secs_f64()))
    }
}

/// One job to submit and the digest its `done` must carry.
#[derive(Debug, Clone)]
struct Job {
    id: String,
    model: String,
    /// Inline EasyML source; `None` for a roster job.
    source: Option<String>,
    config: PipelineKind,
    cells: usize,
    steps: usize,
    /// Expected `done.digest`; for inline jobs filled in after the timed
    /// phase, from an in-process run of the same source.
    want: Option<u64>,
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
struct Seen {
    job: Job,
    digest: Option<u64>,
    error: Option<String>,
    submit: Instant,
    accepted: Instant,
    first_chunk: Instant,
    last_chunk: Instant,
    done: Instant,
    chunk_gaps: Vec<f64>,
    events: u64,
    bytes: usize,
    rejected: bool,
    /// Reference-speed seconds per wall second around this job (the
    /// connection samples the reference kernel between jobs, while its
    /// worker is idle).
    to_reference: f64,
}

impl Seen {
    /// Submit to `done`, raw wall seconds.
    fn wall(&self) -> f64 {
        self.done.duration_since(self.submit).as_secs_f64()
    }

    /// Submit to `done` at reference speed.
    fn latency(&self) -> f64 {
        self.wall() * self.to_reference
    }

    /// An interval of this job's life at reference speed.
    fn span(&self, from: Instant, to: Instant) -> f64 {
        to.duration_since(from).as_secs_f64() * self.to_reference
    }
}

/// Submits `job` and reads events until its `done`.
fn run_job(
    conn: &mut Conn,
    tr: &mut Tracer,
    pace: &mut Pace,
    tenant: &str,
    job: Job,
) -> Result<Seen, String> {
    let mut fields = vec![
        ("verb", Json::str("submit")),
        ("id", Json::str(&job.id)),
        ("tenant", Json::str(tenant)),
        ("model", Json::str(&job.model)),
        ("config", Json::str(job.config.label())),
        ("cells", job.cells.into()),
        ("steps", job.steps.into()),
    ];
    if let Some(source) = &job.source {
        fields.push(("source", Json::str(source)));
    }
    let bytes_before = conn.bytes;
    let submit = Instant::now();
    conn.send(&Json::obj(fields))?;
    let mut seen = Seen {
        job,
        digest: None,
        error: None,
        submit,
        accepted: submit,
        first_chunk: submit,
        last_chunk: submit,
        done: submit,
        chunk_gaps: Vec::new(),
        events: 0,
        bytes: 0,
        rejected: false,
        to_reference: 1.0,
    };
    let mut chunks = 0;
    loop {
        let event = conn.recv()?;
        let now = Instant::now();
        seen.events += 1;
        match event.get("event").and_then(Json::as_str) {
            Some("accepted") => seen.accepted = now,
            Some("chunk") => {
                if chunks == 0 {
                    seen.first_chunk = now;
                } else {
                    seen.chunk_gaps
                        .push(now.duration_since(seen.last_chunk).as_secs_f64());
                }
                seen.last_chunk = now;
                chunks += 1;
            }
            Some("done") => {
                seen.done = now;
                seen.digest = event
                    .get("digest")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok());
                if event.get("status").and_then(Json::as_str) != Some("done") {
                    seen.error = Some(format!("job ended as {event}"));
                }
                break;
            }
            Some("rejected") | Some("error") => {
                seen.done = now;
                seen.rejected = true;
                seen.error = Some(format!("daemon refused the job: {event}"));
                break;
            }
            _ => return Err(format!("unexpected event {event}")),
        }
    }
    seen.bytes = conn.bytes - bytes_before;
    seen.to_reference = pace.scale(seen.wall()) / seen.wall();
    let op = tr.op(&seen.job.id);
    let whole = tr.record("serve.job", op, seen.submit, seen.done, None);
    for (name, from, to) in [
        ("serve.submit_to_accepted", seen.submit, seen.accepted),
        (
            "serve.accepted_to_first_chunk",
            seen.accepted,
            seen.first_chunk,
        ),
        ("serve.streaming", seen.first_chunk, seen.last_chunk),
        ("serve.last_chunk_to_done", seen.last_chunk, seen.done),
    ] {
        tr.record(name, op, from, to, whole);
    }
    Ok(seen)
}

/// Runs `queue` to exhaustion on `nproc` closed-loop connections; when
/// the queue runs dry, `refill` may supply another round. Returns every
/// job seen, connection errors as failures, and the wall seconds from
/// the first submit to the last `done`.
fn closed_loop(
    cx: &mut Ctx,
    out: &mut Outcome,
    socket: &Path,
    first: Vec<Job>,
    refill: impl FnMut() -> Option<Vec<Job>> + Send,
) -> (Vec<Seen>, f64) {
    let queue = Mutex::new((VecDeque::from(first), refill));
    let (enabled, epoch) = (cx.tr.enabled(), cx.tr.epoch());
    let started = Instant::now();
    let results: Vec<(Result<Vec<Seen>, String>, Tracer)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..nproc())
            .map(|i| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut tr = Tracer::new(enabled, epoch, i as u32 + 1);
                    let mut pace = Pace::start();
                    let tenant = format!("conn{i}");
                    let run = (|| {
                        let mut conn = Conn::open(socket)?;
                        let mut seen = Vec::new();
                        loop {
                            let job = {
                                let mut q = queue.lock().expect("no holder panics");
                                if q.0.is_empty() {
                                    if let Some(more) = (q.1)() {
                                        q.0.extend(more);
                                    }
                                }
                                q.0.pop_front()
                            };
                            match job {
                                Some(job) => {
                                    seen.push(run_job(&mut conn, &mut tr, &mut pace, &tenant, job)?)
                                }
                                None => return Ok(seen),
                            }
                        }
                    })();
                    (run, tr)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("connection thread does not panic"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for (result, tr) in results {
        cx.tr.absorb(tr);
        match result {
            Ok(seen) => all.extend(seen),
            Err(e) => out.attempt(Some(format!("connection failed: {e}"))),
        }
    }
    (all, wall)
}

/// Counts every job as one attempted operation, failed when it was
/// refused, ended badly, or carried the wrong digest.
fn judge(out: &mut Outcome, seen: &[Seen]) {
    for s in seen {
        let failure = match (&s.error, s.digest, s.job.want) {
            (Some(e), _, _) => Some(format!("{}: {e}", s.job.id)),
            (None, Some(got), Some(want)) if got == want => None,
            (None, got, want) => Some(format!(
                "{}: done.digest {got:016x?}, expected {want:016x?}",
                s.job.id
            )),
        };
        out.attempt(failure);
    }
}

fn golden_vm(golden: &Golden, model: &str, config: PipelineKind, steps: usize) -> Option<u64> {
    let row = golden.get(&(model.to_owned(), config.label()))?;
    match steps {
        golden::STEPS => Some(row.vm_100),
        golden::JOB_STEPS => Some(row.vm_250),
        _ => None,
    }
}

/// A fresh daemon in a fresh directory, gated and warmed: the golden
/// scenario of every model under both configurations goes through the
/// wire, which also leaves every roster kernel in the daemon's cache.
fn set_up(cx: &mut Ctx, out: &mut Outcome, roster: &[RosterModel], golden: &Golden) -> Daemon {
    let dir = cx.scratch.subdir("serve");
    let (daemon, _) = cx.tr.time("serve.accept", 0, || Daemon::spawn(&dir));
    let daemon = daemon.unwrap_or_else(|e| panic!("limpet-serve: {e}"));
    let jobs = roster
        .iter()
        .flat_map(|r| CONFIGS.map(|config| (r.entry.name, config)))
        .map(|(name, config)| Job {
            id: format!("golden-{name}-{}", config.label()),
            model: name.to_owned(),
            source: None,
            config,
            cells: golden::CELLS,
            steps: golden::STEPS,
            want: golden_vm(golden, name, config, golden::STEPS)
                .map(|bits| golden::uniform_vm_digest(bits, golden::CELLS)),
        })
        .collect();
    let (seen, _) = closed_loop(cx, out, &daemon.socket, jobs, || None);
    judge(out, &seen);
    daemon
}

/// The source of `r` with its `scale` parameter nudged by a seeded factor
/// within ±1%: physiologically the same model, a different fingerprint.
fn reparameterized(r: &RosterModel, rng: &mut SmallRng) -> String {
    let key = SCALE_PARAM;
    let at = r
        .source
        .find(key)
        .expect("cold models carry a scale parameter")
        + key.len();
    let end = at + r.source[at..].find(';').expect("parameter ends with ';'");
    let old: f64 = r.source[at..end].trim().parse().expect("scale is a number");
    let new = old * rng.gen_range(0.99..1.01);
    format!("{}{new:?}{}", &r.source[..at], &r.source[end..])
}

/// One round's jobs, in seeded order.
fn round_jobs(
    roster: &[RosterModel],
    golden: &Golden,
    rng: &mut SmallRng,
    round: usize,
) -> Vec<Job> {
    // The smoke roster holds none of `COLD_MODELS`; there any model with
    // the parameter will do.
    let full = roster.len() == limpet_models::ROSTER.len();
    let resubmitted = |r: &&RosterModel| {
        if full {
            COLD_MODELS.contains(&r.entry.name)
        } else {
            r.source.contains(SCALE_PARAM)
        }
    };
    let mut jobs: Vec<Job> = roster
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (config, n) = (CONFIGS[i % 2], JOB_CELLS[(i / 2) % 2]);
            Job {
                id: format!("r{round}-{}", r.entry.name),
                model: r.entry.name.to_owned(),
                source: None,
                config,
                cells: n,
                steps: golden::JOB_STEPS,
                want: golden_vm(golden, r.entry.name, config, golden::JOB_STEPS)
                    .map(|bits| golden::uniform_vm_digest(bits, n)),
            }
        })
        .collect();
    for r in roster.iter().filter(resubmitted) {
        jobs.push(Job {
            id: format!("r{round}-{}-inline", r.entry.name),
            model: format!("{}_inline", r.entry.name),
            source: Some(reparameterized(r, rng)),
            config: W8,
            cells: JOB_CELLS[0],
            steps: golden::JOB_STEPS,
            want: None,
        });
    }
    // Fisher–Yates with the workload's generator.
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.gen_range(0..i + 1));
    }
    jobs
}

/// The digest an inline job must produce: the same source compiled and
/// run in this process. All cells start equal and never interact, so one
/// 8-cell block stands for any population.
fn inline_reference(job: &Job, cache: &KernelCache) -> Option<u64> {
    let model = compile_source(&job.model, job.source.as_deref()?).ok()?;
    let entry = cache.get_or_compile(&model, job.config);
    let mut sim = Simulation::with_kernel(entry.kernel().clone(), entry.layout(), &cells(8));
    sim.run(job.steps);
    Some(golden::uniform_vm_digest(sim.vm(0).to_bits(), job.cells))
}

/// What one timed phase saw.
struct Phase {
    seen: Vec<Seen>,
    /// First submit to last `done`, wall seconds.
    wall: f64,
    rounds: usize,
    /// The daemon's peak memory once the jobs of the first
    /// [`MIN_ROUNDS`] rounds were handed out. Every round leaves six more
    /// inline kernels in the daemon's cache, so its peak at the *end* of
    /// the phase would grow with the number of rounds the host got through
    /// in the time; after a fixed amount of work it does not.
    daemon_rss_mb: f64,
}

/// One timed phase: whole rounds until the time is up.
fn timed_phase(
    cx: &mut Ctx,
    out: &mut Outcome,
    daemon: &Daemon,
    roster: &[RosterModel],
    golden: &Golden,
    rng: &mut SmallRng,
    phase: usize,
) -> Phase {
    let min_rounds = if cx.quick { 1 } else { MIN_ROUNDS };
    let started = Instant::now();
    let mut rounds = 1;
    let mut daemon_rss_mb = None;
    let first = round_jobs(roster, golden, rng, phase * 1000);
    let (quick, traced, seconds) = (cx.quick, cx.traced, cx.seconds);
    let refill = || {
        if rounds == min_rounds {
            daemon_rss_mb.get_or_insert_with(|| daemon.peak_rss_mb());
        }
        let more =
            rounds < min_rounds || (!quick && !traced && started.elapsed().as_secs_f64() < seconds);
        more.then(|| {
            rounds += 1;
            round_jobs(roster, golden, rng, phase * 1000 + rounds - 1)
        })
    };
    let (mut seen, wall) = closed_loop(cx, out, &daemon.socket, first, refill);
    let verify = cx.tr.enter("bench.verify", 0);
    let reference = KernelCache::new();
    for s in seen.iter_mut().filter(|s| s.job.source.is_some()) {
        s.job.want = inline_reference(&s.job, &reference);
    }
    judge(out, &seen);
    cx.tr.exit(verify);
    Phase {
        seen,
        wall,
        rounds,
        // `None` only when every connection failed before the queue ran dry.
        daemon_rss_mb: daemon_rss_mb.unwrap_or_else(|| daemon.peak_rss_mb()),
    }
}

fn latencies(seen: &[Seen], pick: impl Fn(&Seen) -> bool) -> Vec<f64> {
    seen.iter().filter(|s| pick(s)).map(Seen::latency).collect()
}

/// Typical job latency over a mix of very different jobs: the geomean
/// over job kinds (one per model; every round runs each kind once) of
/// the kind's median `of`. A plain median over all jobs sits wherever the
/// mix happens to put its middle — between a 256-cell W=8 job and a
/// 1024-cell W=1 one — and moves by 10 % from run to run; this moves by
/// what the daemon does.
fn typical(seen: &[Seen], inline: bool, of: impl Fn(&Seen) -> f64) -> (f64, usize) {
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in seen.iter().filter(|s| s.job.source.is_some() == inline) {
        kinds.entry(&s.job.model).or_default().push(of(s));
    }
    (geomean(kinds.values().map(|xs| median(xs))), kinds.len())
}

/// Runs the workload.
pub fn run(cx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let golden = golden::committed();
    let roster = roster(cx.quick);
    let daemon = repeat_setup(cx, &mut out, |cx, out| {
        calib::sampled(|| set_up(cx, out, &roster, &golden))
    });

    let mut rng = SmallRng::seed_from_u64(cx.seed ^ 0x7365_7276);
    cx.tr.set_enabled(false);
    let first = timed_phase(cx, &mut out, &daemon, &roster, &golden, &mut rng, 1);
    cx.tr.set_enabled(cx.traced);
    let (untraced, daemon_rss_mb) = (first.seen.clone(), first.daemon_rss_mb);
    let Phase {
        seen, wall, rounds, ..
    } = if cx.traced {
        timed_phase(cx, &mut out, &daemon, &roster, &golden, &mut rng, 2)
    } else {
        first
    };

    let all = latencies(&seen, |_| true);
    let cold = latencies(&seen, |s| s.job.source.is_some());
    let warm = latencies(&seen, |s| s.job.source.is_none());
    out.e2e(
        "primary_ms",
        typical(&seen, false, Seen::latency).0 * 1e3,
        warm.len(),
    );
    out.e2e(
        "secondary_ms",
        typical(&seen, true, Seen::latency).0 * 1e3,
        cold.len(),
    );
    // The closed-loop wall at reference speed: scaled like the median job.
    let to_reference = median(&seen.iter().map(|s| s.to_reference).collect::<Vec<_>>());
    out.e2e(
        "ops_per_s",
        all.len() as f64 / (wall * to_reference),
        all.len(),
    );
    out.wall("primary_ms", typical(&seen, false, Seen::wall).0 * 1e3);
    out.wall("secondary_ms", typical(&seen, true, Seen::wall).0 * 1e3);
    out.wall("ops_per_s", all.len() as f64 / wall);
    out.e2e("peak_rss_mb", daemon_rss_mb, 1);
    out.scale = vec![
        ("rounds", rounds.into()),
        ("connections", nproc().into()),
        ("jobs", all.len().into()),
        ("inline_jobs", cold.len().into()),
        ("steps", golden::JOB_STEPS.into()),
    ];
    for (kind, xs) in [("all", &all), ("roster", &warm), ("inline", &cold)] {
        out.rows.push(Json::obj(vec![
            ("jobs", Json::str(kind)),
            ("count", xs.len().into()),
            ("p50_ms", (median(xs) * 1e3).into()),
            ("max_ms", (quantile(xs, 1.0) * 1e3).into()),
        ]));
    }

    if cx.traced {
        let (off, on) = (
            typical(&untraced, false, Seen::latency).0,
            typical(&seen, false, Seen::latency).0,
        );
        out.layer("trace.overhead_pct", (on / off - 1.0) * 100.0, warm.len());
        layers(cx, &mut out, &daemon, &roster, &seen);
        out.layer("trace.spans", cx.tr.spans().len() as f64, 1);
        // Nothing is bypassed here: every layer is on a job's path.
        out.layer("trace.other_layers_share", 0.0, 1);
    }
    out
}

/// The daemon-side per-layer metrics, from what the client saw of the
/// traced phase's jobs plus a few direct probes of the idle daemon.
fn layers(cx: &mut Ctx, out: &mut Outcome, daemon: &Daemon, roster: &[RosterModel], seen: &[Seen]) {
    let n = seen.len();
    let of = |f: &dyn Fn(&Seen) -> f64| seen.iter().map(f).collect::<Vec<f64>>();
    let all = of(&Seen::latency);
    out.layer("serve.accept_ms", daemon.accept_s * 1e3, 1);
    out.layer("serve.job_p50_ms", median(&all) * 1e3, n);
    out.layer(
        "serve.ttfc_p50_ms",
        median(&of(&|s| s.span(s.submit, s.first_chunk))) * 1e3,
        n,
    );
    if let Some(p) = tail_percentile(n) {
        out.layer("serve.job_tail_ms", quantile(&all, p / 100.0) * 1e3, n);
        out.layer("serve.job_tail_percentile", p, n);
    }
    let gaps: Vec<f64> = seen
        .iter()
        .flat_map(|s| s.chunk_gaps.iter().map(|g| g * s.to_reference))
        .collect();
    out.layer("serve.chunk_gap_p50_ms", median(&gaps) * 1e3, gaps.len());
    out.layer(
        "serve.done_after_last_chunk_ms",
        median(&of(&|s| s.span(s.last_chunk, s.done))) * 1e3,
        n,
    );
    out.layer(
        "serve.wire_bytes_per_job",
        of(&|s| s.bytes as f64).iter().sum::<f64>() / n as f64,
        n,
    );
    // accepted + one chunk per 32 steps + done, the same for every job.
    let events: Vec<u64> = seen.iter().map(|s| s.events).collect();
    out.exact("serve.events_per_job", &events);
    for (name, inline) in [
        ("serve.warm_job_p50_ms", false),
        ("serve.cold_job_p50_ms", true),
    ] {
        let xs = latencies(seen, |s| s.job.source.is_some() == inline);
        out.layer(name, median(&xs) * 1e3, xs.len());
    }
    out.layer(
        "serve.rejected",
        seen.iter().filter(|s| s.rejected).count() as f64,
        n,
    );

    // What the daemon adds to a job: the same model, configuration,
    // population and steps, guarded the same way, run in this process on
    // the kernels the daemon itself persisted.
    let disk = limpet_harness::DiskCache::open(&daemon.cache_dir).expect("daemon's cache dir");
    KernelCache::global().set_disk_cache(Some(std::sync::Arc::new(disk)));
    let mut overheads = Vec::new();
    for s in seen.iter().filter(|s| s.job.source.is_none()) {
        let Some(r) = roster.iter().find(|r| r.entry.name == s.job.model) else {
            continue;
        };
        if !QUICK_MODELS.contains(&r.entry.name) {
            continue;
        }
        let mut sim = Simulation::new_resilient(
            &r.model,
            s.job.config,
            &cells(s.job.cells),
            HealthPolicy::FallbackRaw,
        )
        .expect("roster model compiles");
        let (ran, secs) = cx.timed("sim.run_guarded", 0, || sim.run_guarded(s.job.steps));
        out.attempt(
            ran.err()
                .map(|e| format!("{}: in-process twin failed: {}", s.job.id, e.detail)),
        );
        overheads.push(s.latency() - secs);
    }
    KernelCache::global().set_disk_cache(None);
    out.layer(
        "serve.overhead_ms",
        median(&overheads) * 1e3,
        overheads.len(),
    );

    let probes = (|| -> Result<(), String> {
        let mut conn = Conn::open(&daemon.socket)?;
        let mut pings = Vec::new();
        for _ in 0..50 {
            pings.push(conn.call("ping")?.1);
        }
        out.layer("serve.ping_rtt_us", median(&pings) * 1e6, pings.len());
        let mut stats_rtt = Vec::new();
        let mut stats = Json::Null;
        for _ in 0..10 {
            let (reply, secs) = conn.call("stats")?;
            stats_rtt.push(secs);
            stats = reply;
        }
        out.layer(
            "serve.stats_rtt_us",
            median(&stats_rtt) * 1e6,
            stats_rtt.len(),
        );
        let counter = |section: &str, key: &str| {
            stats
                .get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        out.layer("serve.daemon_cache_hits", counter("cache", "hits"), 1);
        out.layer("serve.daemon_cache_misses", counter("cache", "misses"), 1);
        out.layer(
            "serve.daemon_checkpoints",
            counter("survivability", "checkpoints"),
            1,
        );
        Ok(())
    })();
    out.attempt(probes.err().map(|e| format!("daemon probes: {e}")));
}
