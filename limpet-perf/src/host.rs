//! The hermetic shell around a run: scratch directories that clean up
//! after themselves, environment scrubbing, host provenance, and the
//! peak-memory probe.

use serve::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Removes every `LIMPET_*` variable so a developer's shell cannot turn
/// on native promotion, move the cache directory, or arm a fault plan
/// underneath a measurement. Call before spawning any thread.
pub fn scrub_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("LIMPET_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// Root of all on-disk state of one run: disk caches, snapshot stores,
/// the daemon's journal and socket. It lives next to the benchmark
/// executable — inside the build directory, so inside the checkout and
/// never in `~/.cache/limpet-rs` — and is removed on drop, also on panic.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Creates `<exe dir>/limpet-perf-tmp/<pid>`, expressed relative to
    /// the working directory when it lies beneath it: the daemon's Unix
    /// socket lives here and `sun_path` holds only ~100 bytes.
    pub fn new() -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("limpet-perf-tmp");
        let dir = match std::env::current_dir() {
            Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
            Err(_) => dir,
        };
        let root = dir.join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind when this was the only run.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from
/// `/proc/<pid>/status`. `None` off Linux or once the process is gone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Restarts this process's peak-memory watermark, so that when several
/// workloads run in one process each reports its own peak. Best effort:
/// needs Linux's `/proc/self/clear_refs`.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned()
    })
}

/// Host provenance recorded with every result file.
pub fn provenance() -> Json {
    let unknown = || "unknown".to_owned();
    Json::obj(vec![
        ("nproc", nproc().into()),
        (
            "rustc",
            Json::str(first_line_of("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_rev",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("cc", limpet_harness::toolchain_available().into()),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}
