//! Crash-recovery integration test: run the real `limpet-serve` binary,
//! `kill -9` it with a job mid-run, restart it over the same journal,
//! and assert the resumed job completes with a trajectory digest
//! bit-identical to an uninterrupted in-process run.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use limpet_harness::{trajectory_digest, PipelineKind, Workload};
use serve::Json;

/// Kills the child on drop so a panicking assertion never leaks a
/// daemon process.
struct Daemon {
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(socket: &Path, journal: &Path, cache: &Path, workers: usize) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_limpet-serve"))
        .args([
            "--unix",
            &socket.display().to_string(),
            "--journal",
            &journal.display().to_string(),
            "--cache-dir",
            &cache.display().to_string(),
            "--workers",
            &workers.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn limpet-serve");
    // Wait for the readiness line before connecting.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines.next().expect("daemon printed a line").unwrap();
    assert!(ready.starts_with("listening on"), "unexpected: {ready}");
    // Keep draining stdout in the background so the daemon never blocks
    // on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    Daemon { child }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path) -> Client {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("connect {}: {e}", socket.display()),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
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

    fn recv_until(&mut self, event: &str) -> Json {
        loop {
            let v = self.recv();
            if v.get("event").and_then(Json::as_str) == Some(event) {
                return v;
            }
        }
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("limpet-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn killed_daemon_resumes_jobs_with_identical_digests() {
    let dir = tmp_dir("resume");
    let socket = dir.join("serve.sock");
    let journal = dir.join("jobs.journal");
    let cache = dir.join("cache");

    let cells = 16;
    let steps = 20_000;
    let wl = Workload {
        n_cells: cells,
        steps,
        dt: 0.01,
    };
    // The ground truth: an uninterrupted single-process run.
    let model = limpet_models::model("HodgkinHuxley");
    let expected = trajectory_digest(&model, PipelineKind::Baseline, &wl, steps)
        .expect("healthy model digests");
    let expected = format!("{expected:016x}");

    // ---- incarnation 1: stall a job mid-run, then kill -9 ----
    let daemon = spawn_daemon(&socket, &journal, &cache, 2);

    // The victim job streams one event per step and its connection never
    // reads them: the socket buffers fill and the worker blocks mid-run,
    // so the job is deterministically in flight when the kill lands.
    let mut stalled = Client::connect(&socket);
    stalled.send(&format!(
        r#"{{"verb":"submit","id":"victim","tenant":"crash","model":"HodgkinHuxley","config":"baseline","cells":{cells},"steps":{steps},"chunk":1}}"#
    ));
    stalled.recv_until("accepted");

    // A second job on the other worker runs to completion before the
    // kill; its journaled outcome must NOT be re-run on restart.
    let mut fine = Client::connect(&socket);
    fine.send(&format!(
        r#"{{"verb":"submit","id":"finished","tenant":"crash","model":"HodgkinHuxley","config":"baseline","cells":{cells},"steps":{steps},"chunk":{steps}}}"#
    ));
    let done = fine.recv_until("done");
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(
        done.get("digest").and_then(Json::as_str),
        Some(expected.as_str()),
        "daemon digest matches the single-process driver"
    );

    // Let the victim make progress into its stall, then SIGKILL.
    std::thread::sleep(Duration::from_millis(300));
    drop(daemon); // kill -9 (SIGKILL via Child::kill) + reap

    // ---- incarnation 2: resume over the same journal ----
    let daemon2 = spawn_daemon(&socket, &journal, &cache, 2);
    let mut c = Client::connect(&socket);

    // The resumed job is headless; poll `result` until it lands.
    let deadline = Instant::now() + Duration::from_secs(120);
    let outcome = loop {
        c.send(r#"{"verb":"result","id":"victim"}"#);
        let v = c.recv();
        match v.get("event").and_then(Json::as_str) {
            Some("done") => break v,
            Some("pending") => {
                assert!(Instant::now() < deadline, "resumed job never finished");
                std::thread::sleep(Duration::from_millis(100));
            }
            other => panic!("unexpected result event {other:?}: {v}"),
        }
    };
    assert_eq!(outcome.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(
        outcome.get("digest").and_then(Json::as_str),
        Some(expected.as_str()),
        "resumed run is bit-identical to the uninterrupted one"
    );

    // Only the unfinished job was resumed.
    c.send(r#"{"verb":"stats"}"#);
    let stats = c.recv();
    let resumed = stats
        .get("jobs")
        .and_then(|j| j.get("resumed"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(resumed, 1, "only the victim resumes: {stats}");
    // One model under one configuration: one entry and its table record.
    let disk = stats.get("disk").expect("the daemon has a disk tier");
    let count = |key| disk.get(key).and_then(Json::as_u64);
    assert_eq!(
        (count("entries"), count("tables")),
        (Some(1), Some(1)),
        "{stats}"
    );

    // Graceful shutdown path: the daemon acknowledges and exits cleanly.
    c.send(r#"{"verb":"shutdown"}"#);
    c.recv_until("stopping");
    let mut daemon2 = daemon2;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match daemon2.child.try_wait().unwrap() {
            Some(status) => {
                assert!(status.success(), "clean exit, got {status}");
                break;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => panic!("daemon did not exit after shutdown verb"),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
