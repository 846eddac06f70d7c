//! In-process integration tests for the service daemon: wire protocol,
//! admission control, and backpressure.
//!
//! These start a real [`serve::Server`] inside the test process (crash
//! recovery, which needs `kill -9`, lives in `crash_recovery.rs` and
//! drives the actual binary). Tests that rely on a stalled reader use a
//! Unix socket: its kernel buffer is a fixed ~200 KiB, so a
//! high-volume chunk stream reliably backs up into the daemon's bounded
//! outbox, whereas TCP auto-tunes its buffers into the megabytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serve::{Json, Listen, QuotaConfig, Server, ServerConfig};

fn unique_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "limpet-serve-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Starts a daemon; returns where to connect. The server thread is
/// detached — it only exits on process-global shutdown, which these
/// tests never request.
fn start_server(listen: Listen, workers: usize, quotas: QuotaConfig, outbox_cap: usize) -> Listen {
    let server = Server::start(ServerConfig {
        listen,
        workers,
        quotas,
        outbox_cap,
        journal: None,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_owned();
    let listen = match &server_kind(&addr) {
        Kind::Tcp => Listen::Tcp(addr),
        Kind::Unix => Listen::Unix(PathBuf::from(addr)),
    };
    std::thread::spawn(move || server.serve_forever());
    listen
}

enum Kind {
    Tcp,
    Unix,
}

fn server_kind(addr: &str) -> Kind {
    if addr.contains(':') && !addr.contains('/') {
        Kind::Tcp
    } else {
        Kind::Unix
    }
}

struct Client {
    reader: Box<dyn BufRead>,
    writer: Box<dyn Write>,
}

impl Client {
    fn connect(listen: &Listen) -> Client {
        fn halves<S: Read + Write + 'static>(a: S, b: S) -> (Box<dyn BufRead>, Box<dyn Write>) {
            (Box::new(BufReader::new(a)), Box::new(b))
        }
        let (reader, writer) = match listen {
            Listen::Tcp(addr) => {
                let s = TcpStream::connect(addr).expect("connect tcp");
                s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                halves(s.try_clone().unwrap(), s)
            }
            Listen::Unix(path) => {
                let s = UnixStream::connect(path).expect("connect unix");
                s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                halves(s.try_clone().unwrap(), s)
            }
        };
        Client { reader, writer }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read event");
        assert!(n > 0, "connection closed unexpectedly");
        Json::parse(line.trim()).expect("event is valid JSON")
    }

    /// Reads events until one matches `event`, returning it.
    fn recv_until(&mut self, event: &str) -> Json {
        loop {
            let v = self.recv();
            if v.get("event").and_then(Json::as_str) == Some(event) {
                return v;
            }
        }
    }
}

fn submit_line(id: &str, tenant: &str, cells: usize, steps: usize, chunk: usize) -> String {
    format!(
        r#"{{"verb":"submit","id":"{id}","tenant":"{tenant}","model":"HodgkinHuxley","config":"baseline","cells":{cells},"steps":{steps},"chunk":{chunk}}}"#
    )
}

#[test]
fn ping_health_and_bad_requests() {
    let listen = start_server(
        Listen::Tcp("127.0.0.1:0".into()),
        1,
        QuotaConfig::default(),
        16,
    );
    let mut c = Client::connect(&listen);
    c.send(r#"{"verb":"ping"}"#);
    assert_eq!(c.recv().get("event").and_then(Json::as_str), Some("pong"));
    c.send(r#"{"verb":"health"}"#);
    let h = c.recv();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));
    c.send("this is not json");
    let e = c.recv();
    assert_eq!(e.get("event").and_then(Json::as_str), Some("error"));
    c.send(r#"{"verb":"warp"}"#);
    let e = c.recv();
    assert_eq!(e.get("event").and_then(Json::as_str), Some("error"));
    // A broken request must not kill the connection.
    c.send(r#"{"verb":"ping"}"#);
    assert_eq!(c.recv().get("event").and_then(Json::as_str), Some("pong"));
}

#[test]
fn submit_streams_chunks_then_done_with_digest() {
    let listen = start_server(
        Listen::Tcp("127.0.0.1:0".into()),
        2,
        QuotaConfig::default(),
        16,
    );
    let mut c = Client::connect(&listen);
    c.send(&submit_line("j1", "alice", 16, 12, 4));
    let accepted = c.recv();
    assert_eq!(
        accepted.get("event").and_then(Json::as_str),
        Some("accepted")
    );
    let mut chunks = 0;
    let done = loop {
        let v = c.recv();
        match v.get("event").and_then(Json::as_str) {
            Some("chunk") => chunks += 1,
            Some("done") => break v,
            other => panic!("unexpected event {other:?}"),
        }
    };
    assert_eq!(chunks, 3, "12 steps / chunk 4");
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    let digest = done
        .get("digest")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    assert_eq!(digest.len(), 16, "16 hex chars: {digest}");
    assert_eq!(done.get("tier").and_then(Json::as_str), Some("optimized"));

    // The result verb replays the outcome after the fact.
    c.send(r#"{"verb":"result","id":"j1"}"#);
    let replay = c.recv();
    assert_eq!(
        replay.get("digest").and_then(Json::as_str),
        Some(digest.as_str())
    );
}

/// A job big enough (in events, not compute) to reliably stall on an
/// unread Unix-socket connection: ~20k chunk events ≈ 2.4 MB, an order
/// of magnitude past the socketpair buffers plus any outbox.
const STALL_STEPS: usize = 20_000;

#[test]
fn over_quota_and_oversized_submissions_get_typed_rejections() {
    let quotas = QuotaConfig {
        max_jobs_per_tenant: 1,
        max_job_cost: 2_000_000,
        max_queue_depth: 8,
    };
    // One worker and a tiny outbox: bob's first job blocks its worker on
    // the unread stream, so it is deterministically still in flight when
    // the follow-up submissions arrive.
    let listen = start_server(Listen::Unix(unique_path("quota.sock")), 1, quotas, 2);
    let mut pinned = Client::connect(&listen);
    pinned.send(&submit_line("big", "bob", 16, STALL_STEPS, 1));
    pinned.recv_until("accepted");
    // Stop reading `pinned`: its outbox fills and the job stalls.
    std::thread::sleep(Duration::from_millis(300));

    // Same tenant, fresh connection: over the per-tenant limit.
    let mut c = Client::connect(&listen);
    c.send(&submit_line("second", "bob", 4, 4, 4));
    let rejected = c.recv_until("rejected");
    assert_eq!(rejected.get("code").and_then(Json::as_u64), Some(429));
    // Another tenant is not affected by bob's quota (the job queues
    // behind the stalled one on the single worker).
    c.send(&submit_line("carol-1", "carol", 4, 4, 4));
    c.recv_until("accepted");
    // An oversized job is 413 regardless of load.
    c.send(&submit_line("huge", "dave", 8192, 1_000_000, 10));
    let rejected = c.recv_until("rejected");
    assert_eq!(rejected.get("code").and_then(Json::as_u64), Some(413));

    // Dropping the pinned connection aborts bob's stalled job, freeing
    // the worker for carol's queued one.
    drop(pinned);
    let done = c.recv_until("done");
    assert_eq!(done.get("id").and_then(Json::as_str), Some("carol-1"));
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
}

#[test]
fn slow_reader_throttles_only_its_own_stream() {
    // Tiny outbox so the slow connection backs up quickly; two workers
    // so both jobs run concurrently.
    let listen = start_server(
        Listen::Unix(unique_path("slow.sock")),
        2,
        QuotaConfig {
            max_job_cost: 2_000_000,
            ..QuotaConfig::default()
        },
        2,
    );

    // Slow client: submits a many-chunk job and then does not read.
    let mut slow = Client::connect(&listen);
    slow.send(&submit_line("slow", "sloth", 16, STALL_STEPS, 1));

    // Give the slow job time to fill its buffers and block its worker.
    std::thread::sleep(Duration::from_millis(300));

    // Fast client: same workload, read eagerly — must finish while the
    // slow job is stalled.
    let started = Instant::now();
    let mut fast = Client::connect(&listen);
    fast.send(&submit_line("fast", "cheetah", 16, STALL_STEPS, 500));
    let done = fast.recv_until("done");
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    let fast_elapsed = started.elapsed();

    // The slow job must still be unfinished: its worker is blocked on
    // the full outbox, not burning steps.
    let mut probe = Client::connect(&listen);
    probe.send(r#"{"verb":"result","id":"slow"}"#);
    let pending = probe.recv();
    assert_eq!(
        pending.get("event").and_then(Json::as_str),
        Some("pending"),
        "slow job should still be stalled after the fast one finished \
         (fast took {fast_elapsed:?})"
    );

    // Once the slow client starts reading, its job completes too — the
    // stream was throttled, not broken — and both digests agree (chunk
    // size does not change the trajectory).
    let slow_done = slow.recv_until("done");
    assert_eq!(slow_done.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(
        slow_done.get("digest").and_then(Json::as_str),
        done.get("digest").and_then(Json::as_str)
    );
}

/// Hostile bytes on the wire: invalid UTF-8, oversized and torn frames,
/// byte-at-a-time slow writes. Malformed input must produce a typed
/// `error` event (or at worst close that one connection); the daemon
/// itself must keep serving.
#[test]
fn hostile_wire_input_yields_typed_errors_and_daemon_survives() {
    let listen = start_server(
        Listen::Tcp("127.0.0.1:0".into()),
        1,
        QuotaConfig::default(),
        16,
    );
    let addr = match &listen {
        Listen::Tcp(a) => a.clone(),
        Listen::Unix(_) => unreachable!(),
    };

    // Invalid UTF-8 in a framed line: typed error, connection usable.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        s.write_all(b"\xff\xfe not utf8 \xc0\n").unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let e = Json::parse(line.trim()).unwrap();
        assert_eq!(e.get("event").and_then(Json::as_str), Some("error"));
        assert!(e
            .get("reason")
            .and_then(Json::as_str)
            .unwrap()
            .contains("UTF-8"));
        s.write_all(b"{\"verb\":\"ping\"}\n").unwrap();
        line.clear();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("pong"), "connection must survive: {line}");
    }

    // A depth bomb inside one frame: typed error, connection usable.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let bomb = format!("{}\n", "[".repeat(50_000));
        s.write_all(bomb.as_bytes()).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let e = Json::parse(line.trim()).unwrap();
        assert_eq!(e.get("event").and_then(Json::as_str), Some("error"));
        s.write_all(b"{\"verb\":\"ping\"}\n").unwrap();
        line.clear();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("pong"));
    }

    // A frame past the 1 MiB line cap: typed error, then the daemon
    // closes this connection (the frame boundary is untrustworthy).
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let huge = vec![b'x'; (1 << 20) + 4096];
        // The daemon may close mid-write; a send error is acceptable.
        let _ = s.write_all(&huge);
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        if r.read_line(&mut line).is_ok() && !line.is_empty() {
            assert!(line.contains("error"), "got: {line}");
        }
    }

    // Slow-loris: a valid ping written one byte at a time, slower than
    // the daemon's 200ms read timeout ticks. Partial lines accumulate.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        for b in b"{\"verb\":\"ping\"}\n" {
            s.write_all(&[*b]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("pong"), "slow-loris ping answered: {line}");
    }

    // Torn frame then hard close: the daemon must shrug it off.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"{\"verb\":\"sub").unwrap();
        drop(s);
    }

    // After all of the above, a fresh client gets normal service.
    let mut c = Client::connect(&listen);
    c.send(&submit_line("sane", "t", 8, 8, 4));
    let done = c.recv_until("done");
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
}

/// A deliberately wedged worker (non-cooperative hang, injected) must be
/// detected by the watchdog: its job ends with a typed `deadline` event
/// (code 504), a replacement worker is spawned, and the very next job on
/// the same connection succeeds. This is the end-to-end survivability
/// contract of the deadline/watchdog layer.
#[test]
fn wedged_worker_gets_504_and_daemon_keeps_serving() {
    let server = Server::start(ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        workers: 1,
        outbox_cap: 16,
        // Aggressive timings so the test runs in well under a second of
        // watchdog latency: 50ms budget, 60ms reclaim grace.
        default_deadline_ms: Some(50),
        watchdog_ms: Some(60),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let listen = Listen::Tcp(server.local_addr().to_owned());
    std::thread::spawn(move || server.serve_forever());

    let mut c = Client::connect(&listen);
    // The injected hang ignores the cancel token for 5s — only the
    // watchdog can get this worker's slot back.
    c.send(
        r#"{"verb":"submit","id":"wedge","tenant":"t","model":"HodgkinHuxley","config":"baseline","cells":8,"steps":400,"chunk":4,"inject":"worker-hang@5000"}"#,
    );
    c.recv_until("accepted");
    let deadline_event = c.recv_until("deadline");
    assert_eq!(deadline_event.get("code").and_then(Json::as_u64), Some(504));
    assert_eq!(
        deadline_event.get("id").and_then(Json::as_str),
        Some("wedge")
    );
    let done = c.recv_until("done");
    assert_eq!(done.get("id").and_then(Json::as_str), Some("wedge"));
    assert_eq!(done.get("status").and_then(Json::as_str), Some("deadline"));
    assert!(done.get("digest").is_none_or(|d| *d == Json::Null));

    // Same connection, fresh job: the respawned worker serves it. The
    // explicit per-job deadline overrides the aggressive 50ms default so
    // a cold kernel compile cannot trip it.
    c.send(
        r#"{"verb":"submit","id":"after","tenant":"t","model":"HodgkinHuxley","config":"baseline","cells":8,"steps":8,"chunk":4,"deadline_ms":60000}"#,
    );
    c.recv_until("accepted");
    let done = c.recv_until("done");
    assert_eq!(done.get("id").and_then(Json::as_str), Some("after"));
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));

    // The stall is visible to operators in both stats and health.
    c.send(r#"{"verb":"stats"}"#);
    let stats = c.recv_until("stats");
    let surv = stats.get("survivability").expect("survivability in stats");
    assert_eq!(surv.get("watchdog_stalls").and_then(Json::as_u64), Some(1));
    assert_eq!(
        surv.get("workers_respawned").and_then(Json::as_u64),
        Some(1)
    );
    assert!(surv.get("deadlines").and_then(Json::as_u64) >= Some(1));
    c.send(r#"{"verb":"health"}"#);
    let health = c.recv_until("health");
    assert!(health.get("survivability").is_some());
}

/// Reads one job's events to its `done`, returning its last `chunk` too.
fn last_chunk_and_done(c: &mut Client) -> (Json, Json) {
    let mut last_chunk = Json::Null;
    loop {
        let v = c.recv();
        match v.get("event").and_then(Json::as_str) {
            Some("chunk") => last_chunk = v,
            Some("done") => return (last_chunk, v),
            _ => {}
        }
    }
}

/// A fault plan belongs to the job that armed it. Job `a` wedges its
/// worker for 500 ms with a `state-nan` armed; job `b`, the same shape with
/// no `inject`, runs on the other worker inside that window and must
/// neither take the NaN nor lose its digest, while `a` takes its own.
#[test]
fn a_jobs_fault_plan_never_reaches_a_concurrent_job() {
    let listen = start_server(
        Listen::Tcp("127.0.0.1:0".into()),
        2,
        QuotaConfig::default(),
        16,
    );
    let job = |id: &str, inject: &str| {
        format!(
            r#"{{"verb":"submit","id":"{id}","tenant":"{id}","model":"HodgkinHuxley","config":"limpetMLIR-AVX-512","cells":16,"steps":40,"chunk":8{inject}}}"#
        )
    };
    let str_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_owned);
    // The undisturbed twin: its digest is the reference, and it leaves the
    // kernel compiled, so `b` reaches its NaN-plan lookup in microseconds.
    let mut c = Client::connect(&listen);
    c.send(&job("clean", ""));
    let (_, clean) = last_chunk_and_done(&mut c);
    assert_eq!(str_of(&clean, "tier").as_deref(), Some("optimized"));

    let mut a = Client::connect(&listen);
    a.send(&job("a", r#","inject":"worker-hang@500,state-nan@3""#));
    a.recv_until("accepted");
    // Once `a` is off the queue its worker arms the plan and hangs.
    loop {
        c.send(r#"{"verb":"stats"}"#);
        let stats = c.recv_until("stats");
        let jobs = stats.get("jobs").expect("jobs in stats");
        if jobs.get("queued").and_then(Json::as_u64) == Some(0) {
            break;
        }
    }
    let mut b = Client::connect(&listen);
    b.send(&job("b", ""));
    let (b_chunk, b_done) = last_chunk_and_done(&mut b);
    assert_eq!(str_of(&b_chunk, "tier").as_deref(), Some("optimized"));
    assert_eq!(str_of(&b_done, "digest"), str_of(&clean, "digest"));

    let (a_chunk, a_done) = last_chunk_and_done(&mut a);
    assert_eq!(str_of(&a_chunk, "tier").as_deref(), Some("reference"));
    assert_eq!(str_of(&a_done, "tier").as_deref(), Some("reference"));
}

#[test]
fn concurrent_tenants_share_one_cache_and_agree_on_digests() {
    let listen = start_server(
        Listen::Tcp("127.0.0.1:0".into()),
        4,
        QuotaConfig::default(),
        32,
    );
    // Two tenants, each submitting the same job shape on its own
    // connection: digests must agree (same deterministic simulation,
    // same shared kernel cache).
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    for tenant in ["t-a", "t-b"] {
        let listen = listen.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(&listen);
            barrier.wait();
            for i in 0..2 {
                c.send(&submit_line(&format!("{tenant}-{i}"), tenant, 24, 10, 5));
            }
            let mut digests = Vec::new();
            for _ in 0..2 {
                let done = c.recv_until("done");
                assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
                digests.push(
                    done.get("digest")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned(),
                );
            }
            digests
        }));
    }
    let all: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first = &all[0][0];
    for digests in &all {
        for d in digests {
            assert_eq!(d, first, "same job, same digest, every tenant");
        }
    }

    // Stats reflect both tenants.
    let mut c = Client::connect(&listen);
    c.send(r#"{"verb":"stats"}"#);
    let stats = c.recv();
    let tenants = stats.get("tenants").expect("tenants object");
    assert!(tenants.get("t-a").is_some() && tenants.get("t-b").is_some());
    let completed = stats
        .get("jobs")
        .and_then(|j| j.get("completed"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(completed >= 4, "completed={completed}");
}
