//! The `limpet-serve` daemon binary: argument parsing and lifecycle.
//!
//! ```text
//! limpet-serve --listen 127.0.0.1:7070 --workers 4 \
//!     --cache-dir /var/cache/limpet --journal /var/lib/limpet/jobs.journal
//! ```
//!
//! Prints `listening on <addr>` once ready (scripts parse this to learn
//! the port when `--listen` uses port 0) and exits cleanly on
//! SIGINT/SIGTERM: in-flight jobs abort at their next chunk boundary and
//! stay journaled, so the next start resumes them.

use std::path::PathBuf;
use std::process::ExitCode;

use limpet_harness::shutdown;
use serve::{Listen, QuotaConfig, Server, ServerConfig};

const USAGE: &str = "\
limpet-serve — multi-tenant simulation service daemon

USAGE:
    limpet-serve [OPTIONS]

OPTIONS:
    --listen ADDR       TCP listen address (default 127.0.0.1:0; port 0
                        picks a free port, printed on startup)
    --unix PATH         listen on a Unix-domain socket instead of TCP
    --workers N         worker threads (default 2)
    --cache-dir DIR     attach the disk cache tier rooted at DIR
    --journal PATH      job journal for crash recovery
    --max-jobs N        per-tenant concurrent-job limit (default 8)
    --max-cost N        per-job cells*steps budget (default 67108864)
    --queue-depth N     service-wide in-flight cap (default 64)
    --outbox-cap N      per-connection event buffer (default 64)
    --deadline-ms N     default wall-clock budget per job in ms
                        (default 300000; 0 = jobs without their own
                        deadline run unbounded)
    --watchdog-ms N     stuck-worker watchdog grace period in ms
                        (default 1000; 0 disables the watchdog)
    --snapshot-dir DIR  durable mid-trajectory checkpoint store (default
                        <cache-dir>/checkpoints when --cache-dir is set;
                        with neither, checkpointing is disabled)
    --checkpoint-every N
                        checkpoint cadence in completed chunks
                        (default 1: every chunk boundary)
    -h, --help          this help
";

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut quotas = QuotaConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--listen" => config.listen = Listen::Tcp(value("--listen")?),
            "--unix" => config.listen = Listen::Unix(PathBuf::from(value("--unix")?)),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--journal" => config.journal = Some(PathBuf::from(value("--journal")?)),
            "--max-jobs" => {
                quotas.max_jobs_per_tenant = value("--max-jobs")?
                    .parse()
                    .map_err(|e| format!("--max-jobs: {e}"))?;
            }
            "--max-cost" => {
                quotas.max_job_cost = value("--max-cost")?
                    .parse()
                    .map_err(|e| format!("--max-cost: {e}"))?;
            }
            "--queue-depth" => {
                quotas.max_queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--outbox-cap" => {
                config.outbox_cap = value("--outbox-cap")?
                    .parse()
                    .map_err(|e| format!("--outbox-cap: {e}"))?;
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                config.default_deadline_ms = (ms > 0).then_some(ms);
            }
            "--watchdog-ms" => {
                let ms: u64 = value("--watchdog-ms")?
                    .parse()
                    .map_err(|e| format!("--watchdog-ms: {e}"))?;
                config.watchdog_ms = (ms > 0).then_some(ms);
            }
            "--snapshot-dir" => {
                config.snapshot_dir = Some(PathBuf::from(value("--snapshot-dir")?));
            }
            "--checkpoint-every" => {
                config.checkpoint_every_chunks = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }
    config.quotas = quotas;
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("limpet-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    shutdown::install();
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("limpet-serve: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    server.serve_forever();
    println!("limpet-serve: stopped");
    ExitCode::SUCCESS
}
