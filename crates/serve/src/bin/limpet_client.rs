//! `limpet-client`: a small scriptable client for `limpet-serve`.
//!
//! One connection, newline-delimited JSON both ways. The `drive` verb is
//! the CI workhorse: it submits a models × configs matrix as concurrent
//! jobs (round-robin over tenants), waits for every terminal event, and
//! prints a sorted `model,config,digest,tier` CSV comparable
//! byte-for-byte with `figures --digest` output.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::time::Duration;

use limpet_harness::fnv1a;
use serve::Json;

const USAGE: &str = "\
limpet-client — scriptable client for limpet-serve

USAGE:
    limpet-client (--connect HOST:PORT | --unix PATH) VERB [OPTIONS]

VERBS:
    ping | health | stats | shutdown
                        one request, print the JSON response
    result --id ID      fetch a finished job's outcome
    checkpoint --id ID  ask the daemon to durably snapshot a running job
                        at its next chunk boundary; prints whether the
                        job is active and a snapshot already exists
    status --id ID      print the same two facts, requesting nothing
    resume --id ID      re-admit a job from its durable snapshot (the
                        snapshot embeds the job spec) and stream its
                        events; the job continues from the recorded step
    submit --model M    run one job and stream its events
        [--config C] [--cells N] [--steps N] [--chunk N] [--tenant T]
        [--id ID] [--inject SPEC] [--source FILE] [--no-wait]
        [--deadline-ms N] per-job wall-clock budget
        [--slow-ms N]   sleep N ms after reading each event (a
                        deliberately slow reader, for backpressure tests)
    drive --models A,B  submit a models x configs matrix concurrently,
        --configs X,Y   wait for all, print a sorted
        [--tenants T1,T2] model,config,digest,tier CSV
        [--cells N] [--steps N] [--chunk N]
    flood --model M --count N [--tenant T] [--cells N] [--steps N]
                        submit N jobs back-to-back without waiting for
                        completion; print accepted/rejected tallies
    chaos --models A,B  seeded hostile-client soak: baseline digests,
        [--seed N]      then rounds of faulty submissions (slow-loris
        [--configs X,Y] writes, torn frames, mid-stream disconnects,
        [--tenants ..]  wedge-the-worker injections). Asserts the daemon
        [--rounds N]    stays up and every submitted job resolves, then
        [--kill-pid P   prints the baseline model,config,digest,tier CSV
         --respawn CMD] (comparable with `figures --digest` / drive).
        [--kill-steps N] With --kill-pid/--respawn: additionally SIGKILL
                        the daemon mid-trajectory, respawn it with CMD,
                        and assert the checkpointed job resumes to the
                        same digest an uninterrupted run produces
                        (victim length --kill-steps, default 4000)

RELIABILITY OPTIONS (all verbs):
    --retry N           reconnect attempts after a transport failure
                        (default 0). For submit, each retry first asks
                        `result` for the job id and only resubmits when
                        the daemon does not know the outcome — job ids
                        make resubmission idempotent.
    --resume            for submit: before resubmitting, ask the daemon
                        to `resume` the job from its durable snapshot so
                        a reconnect continues mid-trajectory instead of
                        recomputing from step 0 (implied on retries)
    --backoff MS        base delay for jittered exponential reconnect
                        backoff (default 50)
";

/// splitmix64 — the chaos driver's deterministic PRNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn split(&self) -> std::io::Result<(Box<dyn BufRead>, Box<dyn Write>)> {
        Ok(match self {
            Conn::Tcp(s) => (
                Box::new(BufReader::new(s.try_clone()?)),
                Box::new(s.try_clone()?),
            ),
            Conn::Unix(s) => (
                Box::new(BufReader::new(s.try_clone()?)),
                Box::new(s.try_clone()?),
            ),
        })
    }
}

#[derive(Clone)]
struct Opts {
    flags: BTreeMap<String, String>,
}

impl Opts {
    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }
}

fn parse_cli() -> Result<(String, Opts), String> {
    let mut verb = None;
    let mut flags = BTreeMap::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if arg == "-h" || arg == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        if let Some(key) = arg.strip_prefix("--") {
            let value = match key {
                // Boolean flags. `--chaos` doubles as the verb so the
                // soak driver reads naturally as `limpet-client --chaos`.
                "no-wait" | "chaos" | "resume" => "true".to_owned(),
                _ => args
                    .next()
                    .ok_or_else(|| format!("--{key} requires a value"))?,
            };
            flags.insert(key.to_owned(), value);
        } else if verb.is_none() {
            verb = Some(arg);
        } else {
            return Err(format!("unexpected argument '{arg}'"));
        }
    }
    if verb.is_none() && flags.contains_key("chaos") {
        verb = Some("chaos".to_owned());
    }
    let verb = verb.ok_or("missing verb (see --help)")?;
    Ok((verb, Opts { flags }))
}

fn connect(opts: &Opts) -> Result<Conn, String> {
    if let Some(path) = opts.get("unix") {
        return UnixStream::connect(path)
            .map(Conn::Unix)
            .map_err(|e| format!("connect {path}: {e}"));
    }
    let addr = opts.get("connect").ok_or("--connect or --unix required")?;
    TcpStream::connect(addr)
        .map(Conn::Tcp)
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// [`connect`] with `--retry` reconnect attempts under jittered
/// exponential backoff (`--backoff` base, deterministic jitter keyed by
/// `seed` so two clients hammering a restarting daemon spread out).
fn connect_retry(opts: &Opts, seed: u64) -> Result<Conn, String> {
    let retry = opts.num("retry", 0)? as u32;
    let base = Duration::from_millis(opts.num("backoff", 50)?.max(1));
    let cap = base.saturating_mul(32);
    let mut last = String::new();
    for attempt in 0..=retry {
        if attempt > 0 {
            let delay = limpet_harness::backoff_delay(attempt, base, cap, seed);
            eprintln!(
                "limpet-client: {last}; reconnecting in {delay:?} (attempt {attempt}/{retry})"
            );
            std::thread::sleep(delay);
        }
        match connect(opts) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
    }
    Err(format!("giving up after {} attempt(s): {last}", retry + 1))
}

fn job_json(
    opts: &Opts,
    id: &str,
    model: &str,
    config: &str,
    tenant: &str,
) -> Result<Json, String> {
    let mut fields = vec![
        ("verb", Json::str("submit")),
        ("id", Json::str(id)),
        ("tenant", Json::str(tenant)),
        ("model", Json::str(model)),
        ("config", Json::str(config)),
        ("cells", opts.num("cells", 256)?.into()),
        ("steps", opts.num("steps", 100)?.into()),
        ("chunk", opts.num("chunk", 32)?.into()),
    ];
    if let Some(path) = opts.get("source") {
        let src = std::fs::read_to_string(path).map_err(|e| format!("--source {path}: {e}"))?;
        fields.push(("source", Json::str(&src)));
    }
    if let Some(spec) = opts.get("inject") {
        fields.push(("inject", Json::str(spec)));
    }
    if let Some(ms) = opts.get("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
        fields.push(("deadline_ms", ms.into()));
    }
    Ok(Json::obj(fields))
}

/// A connected reader/writer pair with line-oriented helpers.
struct Wire {
    reader: Box<dyn BufRead>,
    writer: Box<dyn Write>,
}

impl Wire {
    fn open(opts: &Opts, seed: u64) -> Result<Wire, String> {
        let conn = connect_retry(opts, seed)?;
        let (reader, writer) = conn.split().map_err(|e| e.to_string())?;
        Ok(Wire { reader, writer })
    }

    /// One connection attempt, no retry — for deliberately disposable
    /// connections (torn frames, mid-stream disconnects).
    fn open_once(opts: &Opts) -> Result<Wire, String> {
        let conn = connect(opts)?;
        let (reader, writer) = conn.split().map_err(|e| e.to_string())?;
        Ok(Wire { reader, writer })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Sends `line` a few bytes at a time with pauses between flushes —
    /// a valid but deliberately slow (slow-loris-shaped) writer.
    fn send_slowly(&mut self, line: &str, pause: Duration) -> Result<(), String> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        for chunk in bytes.chunks(7) {
            self.writer
                .write_all(chunk)
                .and_then(|()| self.writer.flush())
                .map_err(|e| format!("send: {e}"))?;
            std::thread::sleep(pause);
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Json>, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            return Json::parse(line.trim())
                .map(Some)
                .map_err(|e| format!("bad response: {e}"));
        }
    }
}

enum SubmitError {
    /// The daemon answered and the answer is bad — retrying cannot help.
    Fatal(String),
    /// The transport failed; a reconnect may succeed.
    Transport(String),
}

/// `submit --retry N`: survives transport failures by reconnecting under
/// jittered backoff. Every retry first asks `result` for the job id —
/// the daemon may have finished (or journaled and resumed) the job while
/// the client was away — and only resubmits when the outcome is unknown.
/// The stable job id makes resubmission idempotent: at worst the same
/// deterministic job runs twice, with one recorded outcome per id.
fn submit_resilient(opts: &Opts) -> Result<(), String> {
    let retry = opts.num("retry", 0)? as u32;
    let base = Duration::from_millis(opts.num("backoff", 50)?.max(1));
    let model = opts
        .get("model")
        .ok_or("submit requires --model")?
        .to_owned();
    let config = opts.get("config").unwrap_or("baseline").to_owned();
    let tenant = opts.get("tenant").unwrap_or("anon").to_owned();
    let id = match opts.get("id") {
        Some(id) if !id.is_empty() => id.to_owned(),
        _ => {
            // Stable for this invocation, distinct across invocations.
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            format!("cli-{}-{nanos:x}", std::process::id())
        }
    };
    let seed = fnv1a(id.as_bytes());
    let wait = opts.get("no-wait").is_none();
    let mut last = String::new();
    for attempt in 0..=retry {
        if attempt > 0 {
            let delay = limpet_harness::backoff_delay(attempt, base, base.saturating_mul(32), seed);
            eprintln!(
                "limpet-client: {last}; retrying job '{id}' in {delay:?} (attempt {attempt}/{retry})"
            );
            std::thread::sleep(delay);
        }
        match submit_attempt(opts, &id, &model, &config, &tenant, wait, attempt > 0) {
            Ok(()) => return Ok(()),
            Err(SubmitError::Fatal(e)) => return Err(e),
            Err(SubmitError::Transport(e)) => last = e,
        }
    }
    Err(format!(
        "job '{id}' unresolved after {} attempt(s): {last}",
        retry + 1
    ))
}

fn submit_attempt(
    opts: &Opts,
    id: &str,
    model: &str,
    config: &str,
    tenant: &str,
    wait: bool,
    retrying: bool,
) -> Result<(), SubmitError> {
    let mut wire = Wire::open_once(opts).map_err(SubmitError::Transport)?;
    if retrying {
        let req = Json::obj(vec![("verb", Json::str("result")), ("id", Json::str(id))]);
        wire.send(&req.to_string())
            .map_err(SubmitError::Transport)?;
        match wire.recv().map_err(SubmitError::Transport)? {
            None => return Err(SubmitError::Transport("connection closed".into())),
            Some(v) if v.get("event").and_then(Json::as_str) == Some("done") => {
                println!("{v}");
                return finish_done(&v).map_err(SubmitError::Fatal);
            }
            Some(_) => {} // pending/unknown: fall through to resume/resubmit
        }
    }
    if retrying || opts.get("resume").is_some() {
        // Before recomputing from step 0, ask the daemon to continue the
        // job from its durable mid-trajectory snapshot. An `error` reply
        // (no snapshot / checkpointing disabled) falls back to a plain
        // resubmit — bit-identical either way, just more recomputation.
        let req = Json::obj(vec![("verb", Json::str("resume")), ("id", Json::str(id))]);
        wire.send(&req.to_string())
            .map_err(SubmitError::Transport)?;
        match wire.recv().map_err(SubmitError::Transport)? {
            None => return Err(SubmitError::Transport("connection closed".into())),
            Some(v) => match v.get("event").and_then(Json::as_str).unwrap_or("") {
                "accepted" => {
                    println!("{v}");
                    if !wait {
                        return Ok(());
                    }
                    return stream_to_done(&mut wire);
                }
                "rejected" => return Err(SubmitError::Fatal(format!("resume not admitted: {v}"))),
                _ => {} // error: nothing durable to resume — resubmit
            },
        }
    }
    let req = job_json(opts, id, model, config, tenant).map_err(SubmitError::Fatal)?;
    wire.send(&req.to_string())
        .map_err(SubmitError::Transport)?;
    loop {
        match wire.recv().map_err(SubmitError::Transport)? {
            None => {
                return Err(SubmitError::Transport(
                    "connection closed mid-stream".into(),
                ))
            }
            Some(v) => {
                println!("{v}");
                match v.get("event").and_then(Json::as_str).unwrap_or("") {
                    "rejected" | "error" => {
                        return Err(SubmitError::Fatal(format!("job not accepted: {v}")))
                    }
                    "accepted" if !wait => return Ok(()),
                    "done" => return finish_done(&v).map_err(SubmitError::Fatal),
                    _ => {}
                }
            }
        }
    }
}

/// Drains an already-accepted job's event stream to its `done` event.
fn stream_to_done(wire: &mut Wire) -> Result<(), SubmitError> {
    loop {
        match wire.recv().map_err(SubmitError::Transport)? {
            None => {
                return Err(SubmitError::Transport(
                    "connection closed mid-stream".into(),
                ))
            }
            Some(v) => {
                println!("{v}");
                if v.get("event").and_then(Json::as_str) == Some("done") {
                    return finish_done(&v).map_err(SubmitError::Fatal);
                }
            }
        }
    }
}

fn finish_done(v: &Json) -> Result<(), String> {
    if v.get("status").and_then(Json::as_str) == Some("done") {
        Ok(())
    } else {
        Err(format!("job ended badly: {v}"))
    }
}

fn list(opts: &Opts, key: &str) -> Option<Vec<String>> {
    opts.get(key).map(|s| {
        s.split(',')
            .filter(|x| !x.is_empty())
            .map(str::to_owned)
            .collect()
    })
}

#[derive(Default)]
struct ChaosTally {
    resolved: u64,
    clean: u64,
    slow: u64,
    torn: u64,
    dropped: u64,
    wedged: u64,
    killed: u64,
}

impl ChaosTally {
    fn add(&mut self, o: &ChaosTally) {
        self.resolved += o.resolved;
        self.clean += o.clean;
        self.slow += o.slow;
        self.torn += o.torn;
        self.dropped += o.dropped;
        self.wedged += o.wedged;
        self.killed += o.killed;
    }
}

fn submit_and_wait(wire: &mut Wire, req: &Json) -> Result<Json, String> {
    wire.send(&req.to_string())?;
    let id = req
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    wait_done(wire, &id)
}

fn wait_done(wire: &mut Wire, id: &str) -> Result<Json, String> {
    loop {
        let v = wire
            .recv()?
            .ok_or_else(|| format!("connection closed waiting for '{id}'"))?;
        match v.get("event").and_then(Json::as_str) {
            Some("rejected") | Some("error") => return Err(format!("job '{id}' refused: {v}")),
            Some("done") if v.get("id").and_then(Json::as_str) == Some(id) => return Ok(v),
            _ => {}
        }
    }
}

fn check_done_digest(v: &Json, expect: Option<&String>) -> Result<(), String> {
    if v.get("status").and_then(Json::as_str) != Some("done") {
        return Err(format!("job ended badly: {v}"));
    }
    let digest = v
        .get("digest")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("done without digest: {v}"))?;
    if let Some(e) = expect {
        if digest != e {
            return Err(format!("digest mismatch: got {digest}, baseline {e}: {v}"));
        }
    }
    Ok(())
}

/// Polls `result --id` until the outcome is known. `Ok(None)` after the
/// attempt budget means the daemon never learned a terminal outcome (the
/// caller resubmits — stable ids make that idempotent).
fn poll_result(
    opts: &Opts,
    id: &str,
    pause: Duration,
    attempts: u32,
) -> Result<Option<Json>, String> {
    let mut wire = Wire::open(opts, fnv1a(id.as_bytes()))?;
    for _ in 0..attempts {
        let req = Json::obj(vec![("verb", Json::str("result")), ("id", Json::str(id))]);
        wire.send(&req.to_string())?;
        match wire.recv()? {
            None => return Err("connection closed during result poll".into()),
            Some(v) if v.get("event").and_then(Json::as_str) == Some("done") => return Ok(Some(v)),
            Some(_) => std::thread::sleep(pause),
        }
    }
    Ok(None)
}

/// One tenant's chaos thread: `rounds` passes over the model × config
/// matrix, each job with a PRNG-chosen hostile flavor. Returns the tally
/// or the first hard failure (unresolved job, digest mismatch, refusal).
fn chaos_tenant(
    opts: &Opts,
    tenant: &str,
    models: &[String],
    configs: &[String],
    baseline: &BTreeMap<(String, String), String>,
    rounds: u64,
    rng: &mut u64,
) -> Result<ChaosTally, String> {
    let mut tally = ChaosTally::default();
    let mut wire = Wire::open(opts, fnv1a(tenant.as_bytes()))?;
    for round in 0..rounds {
        for model in models {
            for config in configs {
                let flavor = splitmix(rng) % 8;
                let id = format!("c{round}|{tenant}|{model}|{config}|{flavor}");
                let expect = baseline.get(&(model.clone(), config.clone()));
                let mut req = job_json(opts, &id, model, config, tenant)?;
                match flavor {
                    2 => {
                        // Torn frame: half a submit line, then vanish.
                        // The daemon never sees a full frame, so nothing
                        // was submitted; follow up with a clean run so
                        // this slot still produces a digest.
                        if let Ok(mut torn) = Wire::open_once(opts) {
                            let line = req.to_string();
                            let _ = torn.writer.write_all(&line.as_bytes()[..line.len() / 2]);
                            let _ = torn.writer.flush();
                        }
                        tally.torn += 1;
                        let v = submit_and_wait(&mut wire, &req)?;
                        check_done_digest(&v, expect)?;
                        tally.resolved += 1;
                    }
                    3 | 7 => {
                        // Mid-stream disconnect: get the job accepted on
                        // a throwaway connection, then vanish. The
                        // daemon aborts the orphan; recovery goes
                        // through `result` polling, with an idempotent
                        // resubmit if the outcome never materializes.
                        {
                            let mut drop_wire = Wire::open_once(opts)?;
                            drop_wire.send(&req.to_string())?;
                            loop {
                                let v = drop_wire.recv()?.ok_or("closed before job acceptance")?;
                                match v.get("event").and_then(Json::as_str) {
                                    Some("accepted") => break,
                                    Some("rejected") | Some("error") => {
                                        return Err(format!("chaos job refused: {v}"))
                                    }
                                    _ => {}
                                }
                            }
                        }
                        let outcome = match poll_result(opts, &id, Duration::from_millis(50), 200)?
                        {
                            Some(v) => v,
                            None => submit_and_wait(&mut wire, &req)?,
                        };
                        // Aborted is a legitimate resolution for an
                        // abandoned job; a completed one must agree with
                        // the baseline bit-for-bit.
                        if outcome.get("status").and_then(Json::as_str) == Some("done") {
                            check_done_digest(&outcome, expect)?;
                        }
                        tally.dropped += 1;
                        tally.resolved += 1;
                    }
                    4 => {
                        // Wedge the worker: a non-cooperative hang with a
                        // short budget; only the daemon's watchdog can
                        // resolve this one.
                        if let Json::Obj(map) = &mut req {
                            map.insert("inject".into(), Json::str("worker-hang@2500"));
                            map.insert("deadline_ms".into(), 200.0.into());
                        }
                        let v = submit_and_wait(&mut wire, &req)?;
                        match v.get("status").and_then(Json::as_str) {
                            Some("deadline") => {}
                            // A concurrent job can steal the armed hang;
                            // a clean finish is also a resolution.
                            Some("done") => check_done_digest(&v, expect)?,
                            other => return Err(format!("wedged job '{id}' ended {other:?}: {v}")),
                        }
                        tally.wedged += 1;
                        tally.resolved += 1;
                    }
                    1 | 6 => {
                        wire.send_slowly(&req.to_string(), Duration::from_millis(2))?;
                        let v = wait_done(&mut wire, &id)?;
                        check_done_digest(&v, expect)?;
                        tally.slow += 1;
                        tally.resolved += 1;
                    }
                    _ => {
                        let v = submit_and_wait(&mut wire, &req)?;
                        check_done_digest(&v, expect)?;
                        tally.clean += 1;
                        tally.resolved += 1;
                    }
                }
            }
        }
    }
    Ok(tally)
}

/// The chaos soak's kill -9 flavor. Runs one long "victim" job, SIGKILLs
/// the daemon (`--kill-pid`) after a couple of streamed chunks — no
/// journal `done` line, no final snapshot, only the cadence checkpoints
/// survive — respawns it with `--respawn` (a shell command that must
/// reuse the same journal/snapshot dirs and listen address), and asserts:
///
/// 1. the respawned daemon's journal replay resumes the victim from its
///    durable snapshot (survivability `resumes` goes positive), and
/// 2. the resumed run's digest equals a clean uninterrupted run of the
///    identical spec, bit for bit.
fn kill_and_resume(opts: &Opts, model: &str, config: &str, tenant: &str) -> Result<(), String> {
    let pid = opts.get("kill-pid").expect("caller checked");
    let respawn = opts
        .get("respawn")
        .ok_or("--kill-pid requires --respawn CMD")?;
    let steps = opts.num("kill-steps", 4000)?;
    let with_steps = |mut req: Json| -> Json {
        if let Json::Obj(map) = &mut req {
            map.insert("steps".into(), steps.into());
        }
        req
    };

    // Uninterrupted reference digest for the victim's exact spec.
    let mut wire = Wire::open(opts, fnv1a(b"kill-ref"))?;
    let ref_req = with_steps(job_json(opts, "chaos-kill-ref", model, config, tenant)?);
    let v = submit_and_wait(&mut wire, &ref_req)?;
    check_done_digest(&v, None)?;
    let expect = v
        .get("digest")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();

    // The victim: wait for acceptance and a couple of chunk events so the
    // daemon has durably checkpointed mid-trajectory state, then SIGKILL.
    let victim = "chaos-kill-victim";
    let req = with_steps(job_json(opts, victim, model, config, tenant)?);
    {
        let mut w = Wire::open_once(opts)?;
        w.send(&req.to_string())?;
        let mut chunks = 0u32;
        loop {
            let v = w.recv()?.ok_or("daemon closed before the kill point")?;
            match v.get("event").and_then(Json::as_str) {
                Some("rejected") | Some("error") => {
                    return Err(format!("kill victim refused: {v}"))
                }
                Some("chunk") => {
                    chunks += 1;
                    if chunks >= 2 {
                        break;
                    }
                }
                Some("done") => {
                    return Err(format!(
                        "kill victim finished before the kill; raise --kill-steps (ran {steps})"
                    ))
                }
                _ => {}
            }
        }
    }
    let killed = std::process::Command::new("kill")
        .args(["-9", pid])
        .status()
        .map_err(|e| format!("kill -9 {pid}: {e}"))?;
    if !killed.success() {
        return Err(format!("kill -9 {pid} failed: {killed}"));
    }
    eprintln!("chaos: killed daemon pid {pid} mid-trajectory; respawning");
    std::thread::sleep(Duration::from_millis(200));
    std::process::Command::new("sh")
        .args(["-c", respawn])
        .spawn()
        .map_err(|e| format!("respawn '{respawn}': {e}"))?;

    // Wait for the respawned daemon to answer, then for the journal
    // replay to finish the resumed victim headless.
    let mut alive = false;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(100));
        if let Ok(mut w) = Wire::open_once(opts) {
            if w.send(r#"{"verb":"ping"}"#).is_ok() {
                if let Ok(Some(v)) = w.recv() {
                    if v.get("event").and_then(Json::as_str) == Some("pong") {
                        alive = true;
                        break;
                    }
                }
            }
        }
    }
    if !alive {
        return Err("respawned daemon never answered ping".into());
    }
    let outcome = poll_result(opts, victim, Duration::from_millis(100), 600)?
        .ok_or("kill victim never resolved after the daemon respawn")?;
    if outcome.get("status").and_then(Json::as_str) != Some("done") {
        return Err(format!("resumed kill victim ended badly: {outcome}"));
    }
    check_done_digest(&outcome, Some(&expect))?;

    // The digest match proves bit-identity; the survivability counter
    // proves it came from a snapshot rather than a silent step-0 re-run.
    let mut w = Wire::open(opts, fnv1a(b"kill-stats"))?;
    w.send(r#"{"verb":"stats"}"#)?;
    let stats = w.recv()?.ok_or("connection closed reading stats")?;
    let resumes = stats
        .get("survivability")
        .and_then(|s| s.get("resumes"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if resumes == 0 {
        return Err("daemon reports zero snapshot resumes after the kill".into());
    }
    eprintln!(
        "chaos: victim resumed from durable snapshot and matched the uninterrupted digest {expect}"
    );
    Ok(())
}

/// The seeded hostile-client soak (`--chaos`). Three phases:
///
/// 1. **Baseline** — one clean submission per model × config records the
///    reference digest.
/// 2. **Chaos rounds** — one thread per tenant, each submitting the full
///    matrix per round with PRNG-chosen hostile flavors: clean,
///    slow-loris writes, torn frames, mid-stream disconnects recovered
///    via `result`, and wedge-the-worker injections that must end as
///    `deadline`.
/// 3. **Verdict** — the daemon must still answer `ping`, every submitted
///    job must have resolved, and every digest observed must equal the
///    baseline bit-for-bit.
///
/// Prints the baseline CSV (sorted `model,config,digest`) on stdout —
/// byte-comparable with `drive` and `figures --digest` — and a summary
/// on stderr. Any leak, mismatch, or daemon death is a hard error.
fn chaos(opts: &Opts) -> Result<(), String> {
    let seed = opts.num("seed", 1)?;
    let rounds = opts.num("rounds", 2)?;
    let models = list(opts, "models").ok_or("chaos requires --models")?;
    let configs = list(opts, "configs").unwrap_or_else(|| vec!["baseline".to_owned()]);
    let tenants =
        list(opts, "tenants").unwrap_or_else(|| vec!["chaos-a".to_owned(), "chaos-b".to_owned()]);

    // Phase 1: baseline digests (and finishing tiers) over one clean
    // connection.
    let mut baseline: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut tiers: BTreeMap<(String, String), String> = BTreeMap::new();
    {
        let mut wire = Wire::open(opts, seed)?;
        for model in &models {
            for config in &configs {
                let id = format!("base|{model}|{config}");
                let req = job_json(opts, &id, model, config, &tenants[0])?;
                let v = submit_and_wait(&mut wire, &req)?;
                check_done_digest(&v, None)?;
                let digest = v.get("digest").and_then(Json::as_str).unwrap().to_owned();
                let tier = v
                    .get("tier")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                baseline.insert((model.clone(), config.clone()), digest);
                tiers.insert((model.clone(), config.clone()), tier);
            }
        }
    }

    // Phase 2: chaos rounds, one thread per tenant.
    let mut handles = Vec::new();
    for (ti, tenant) in tenants.iter().enumerate() {
        let opts = opts.clone();
        let tenant = tenant.clone();
        let models = models.clone();
        let configs = configs.clone();
        let baseline = baseline.clone();
        let mut rng = seed ^ ((ti as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        handles.push(std::thread::spawn(move || {
            chaos_tenant(
                &opts, &tenant, &models, &configs, &baseline, rounds, &mut rng,
            )
        }));
    }
    let mut tally = ChaosTally::default();
    for h in handles {
        let t = h.join().map_err(|_| "chaos thread panicked".to_owned())??;
        tally.add(&t);
    }

    // Phase 2.5 (opt-in): SIGKILL the daemon mid-trajectory, respawn it,
    // and prove the checkpointed victim resumes to the digest an
    // uninterrupted run produces. Runs after the tenant threads so the
    // kill cannot abort their in-flight jobs.
    if opts.get("kill-pid").is_some() {
        kill_and_resume(opts, &models[0], &configs[0], &tenants[0])?;
        tally.killed += 1;
    }

    // Phase 3: the daemon must still be alive and answering.
    let mut wire = Wire::open(opts, seed ^ 0xff)?;
    wire.send(r#"{"verb":"ping"}"#)?;
    match wire.recv()? {
        Some(v) if v.get("event").and_then(Json::as_str) == Some("pong") => {}
        other => return Err(format!("daemon not answering ping after chaos: {other:?}")),
    }

    eprintln!(
        "chaos: seed={seed} rounds={rounds} tenants={} resolved={} \
         (clean={} slow={} torn={} dropped={} wedged={} killed={})",
        tenants.len(),
        tally.resolved,
        tally.clean,
        tally.slow,
        tally.torn,
        tally.dropped,
        tally.wedged,
        tally.killed
    );
    println!("model,config,digest,tier");
    for ((model, config), digest) in &baseline {
        let tier = tiers
            .get(&(model.clone(), config.clone()))
            .map(String::as_str)
            .unwrap_or("");
        println!("{model},{config},{digest},{tier}");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let (verb, opts) = parse_cli()?;
    if verb == "chaos" {
        return chaos(&opts);
    }
    if verb == "submit" && (opts.num("retry", 0)? > 0 || opts.get("resume").is_some()) {
        return submit_resilient(&opts);
    }
    let conn = connect_retry(&opts, 0x636c69)?;
    let (mut reader, mut writer) = conn.split().map_err(|e| e.to_string())?;
    let slow_ms = opts.num("slow-ms", 0)?;
    let mut send = |line: &str| -> Result<(), String> {
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))
    };
    let recv = |reader: &mut Box<dyn BufRead>| -> Result<Option<Json>, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            if slow_ms > 0 {
                std::thread::sleep(Duration::from_millis(slow_ms));
            }
            return Json::parse(line.trim())
                .map(Some)
                .map_err(|e| format!("bad response: {e}"));
        }
    };

    match verb.as_str() {
        "ping" | "health" | "stats" | "shutdown" => {
            send(&Json::obj(vec![("verb", Json::str(&verb))]).to_string())?;
            match recv(&mut reader)? {
                Some(v) => println!("{v}"),
                None => return Err("connection closed before response".into()),
            }
        }
        "result" | "checkpoint" | "status" => {
            let id = opts
                .get("id")
                .ok_or("result/checkpoint/status requires --id")?;
            let req = Json::obj(vec![("verb", Json::str(&verb)), ("id", Json::str(id))]);
            send(&req.to_string())?;
            match recv(&mut reader)? {
                Some(v) => println!("{v}"),
                None => return Err("connection closed before response".into()),
            }
        }
        "resume" => {
            let id = opts.get("id").ok_or("resume requires --id")?;
            let req = Json::obj(vec![("verb", Json::str("resume")), ("id", Json::str(id))]);
            send(&req.to_string())?;
            let wait = opts.get("no-wait").is_none();
            while let Some(v) = recv(&mut reader)? {
                println!("{v}");
                let event = v.get("event").and_then(Json::as_str).unwrap_or("");
                if matches!(event, "rejected" | "error") {
                    return Err(format!("resume refused: {v}"));
                }
                if !wait && event == "accepted" {
                    break;
                }
                if event == "done" {
                    if v.get("status").and_then(Json::as_str) != Some("done") {
                        return Err(format!("resumed job ended badly: {v}"));
                    }
                    break;
                }
            }
        }
        "submit" => {
            let model = opts.get("model").ok_or("submit requires --model")?;
            let config = opts.get("config").unwrap_or("baseline");
            let tenant = opts.get("tenant").unwrap_or("anon");
            let id = opts.get("id").map(str::to_owned).unwrap_or_default();
            let req = job_json(&opts, &id, model, config, tenant)?;
            send(&req.to_string())?;
            let wait = opts.get("no-wait").is_none();
            while let Some(v) = recv(&mut reader)? {
                println!("{v}");
                let event = v.get("event").and_then(Json::as_str).unwrap_or("");
                if matches!(event, "rejected" | "error") {
                    return Err(format!("job not accepted: {v}"));
                }
                if !wait && event == "accepted" {
                    break;
                }
                if event == "done" {
                    if v.get("status").and_then(Json::as_str) != Some("done") {
                        return Err(format!("job ended badly: {v}"));
                    }
                    break;
                }
            }
        }
        "drive" => {
            let models: Vec<&str> = opts
                .get("models")
                .ok_or("drive requires --models")?
                .split(',')
                .filter(|s| !s.is_empty())
                .collect();
            let configs: Vec<&str> = opts
                .get("configs")
                .ok_or("drive requires --configs")?
                .split(',')
                .filter(|s| !s.is_empty())
                .collect();
            let tenants: Vec<&str> = opts
                .get("tenants")
                .unwrap_or("anon")
                .split(',')
                .filter(|s| !s.is_empty())
                .collect();
            let mut pending = Vec::new();
            let mut i = 0usize;
            for model in &models {
                for config in &configs {
                    let id = format!("{model}|{config}");
                    let tenant = tenants[i % tenants.len()];
                    send(&job_json(&opts, &id, model, config, tenant)?.to_string())?;
                    pending.push(id);
                    i += 1;
                }
            }
            let mut rows = Vec::new();
            while !pending.is_empty() {
                let Some(v) = recv(&mut reader)? else {
                    return Err(format!(
                        "connection closed with {} job(s) pending",
                        pending.len()
                    ));
                };
                let event = v.get("event").and_then(Json::as_str).unwrap_or("");
                if matches!(event, "rejected" | "error") {
                    return Err(format!("drive job refused: {v}"));
                }
                if event != "done" {
                    continue;
                }
                let id = v.get("id").and_then(Json::as_str).unwrap_or("").to_owned();
                if v.get("status").and_then(Json::as_str) != Some("done") {
                    return Err(format!("drive job ended badly: {v}"));
                }
                let digest = v
                    .get("digest")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("done event without digest: {v}"))?
                    .to_owned();
                let tier = v
                    .get("tier")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                let (model, config) = id
                    .split_once('|')
                    .ok_or_else(|| format!("unexpected job id '{id}'"))?;
                rows.push(format!("{model},{config},{digest},{tier}"));
                pending.retain(|p| p != &id);
            }
            rows.sort();
            println!("model,config,digest,tier");
            for row in rows {
                println!("{row}");
            }
        }
        "flood" => {
            let model = opts.get("model").ok_or("flood requires --model")?;
            let tenant = opts.get("tenant").unwrap_or("anon");
            let count = opts.num("count", 8)?;
            for i in 0..count {
                let req = job_json(&opts, &format!("flood-{i}"), model, "baseline", tenant)?;
                send(&req.to_string())?;
            }
            let (mut accepted, mut rejected_by_code) = (0u64, BTreeMap::<u64, u64>::new());
            let mut seen = 0;
            while seen < count {
                let Some(v) = recv(&mut reader)? else { break };
                match v.get("event").and_then(Json::as_str) {
                    Some("accepted") => {
                        accepted += 1;
                        seen += 1;
                    }
                    Some("rejected") => {
                        let code = v.get("code").and_then(Json::as_u64).unwrap_or(0);
                        *rejected_by_code.entry(code).or_default() += 1;
                        seen += 1;
                    }
                    _ => {}
                }
            }
            println!("accepted {accepted}");
            for (code, n) in rejected_by_code {
                println!("rejected-{code} {n}");
            }
        }
        other => return Err(format!("unknown verb '{other}' (see --help)")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("limpet-client: {e}");
            ExitCode::FAILURE
        }
    }
}
