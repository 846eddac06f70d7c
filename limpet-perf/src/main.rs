//! `limpet-perf` — the repo's benchmark: four workloads that each stress a
//! different set of layers (step loop, compile chain, daemon, checkpoint
//! store), measured from outside through the crates' public functions.
//!
//! ```text
//! limpet-perf --seed 1 --out FILE            all workloads, end-to-end metrics
//! limpet-perf --seed 1 --out FILE --trace    the separate traced run, per-layer metrics
//! limpet-perf --workload W --seed N --seconds S --trace 0|1    one workload (driver contract)
//! limpet-perf --quick                        smoke run, <= 10 s
//! limpet-perf --compare A.json B.json        per-metric ratios, regressions, exact-count drift
//! limpet-perf --record-golden                write golden/digests.csv (refuses to overwrite)
//! limpet-perf --emit-contract                print BENCHMARK.json
//! ```
//!
//! Every run verifies what it measures (committed golden digests in
//! set-up, bit-identity across configurations, caches, the daemon and
//! resumes in the timed phase) and exits non-zero on any wrong digest.

mod calib;
mod golden;
mod host;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, WORKLOADS};
use serve::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::Ctx;

const USAGE: &str = "\
limpet-perf — end-to-end + per-layer benchmark of limpet-rs

USAGE:
    limpet-perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                [--quick] [--out FILE] [--trace-out FILE]
    limpet-perf --compare A.json B.json
    limpet-perf --record-golden | --emit-contract

    --workload NAME   run one of sim_steady, compile_roster, serve_closed,
                      ckpt_resume and print the driver's result line last;
                      without it all four run in turn
    --seed N          workload seed (default 1); the same seed gives the
                      same inputs
    --seconds S       length of each workload's timed phase (default 10)
    --trace [0|1]     the traced run: spans around every call into a layer,
                      per-layer metrics instead of end-to-end ones
    --quick           smoke mode: 3 models, tiny counts, <= 10 s in all
    --out FILE        write the result file (metrics, per-model rows, host)
    --trace-out FILE  write the spans as Chrome trace-event JSON
";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    Compare(PathBuf, PathBuf),
    RecordGolden,
    EmitContract,
    Help,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut args = Args {
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            // `--trace` alone is the flag; the driver passes `--trace 0|1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    args.traced = true;
                }
                _ => args.traced = true,
            },
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--compare" => {
                let a = PathBuf::from(value("--compare")?);
                let b = PathBuf::from(value("--compare")?);
                return Ok(Mode::Compare(a, b));
            }
            "--record-golden" => return Ok(Mode::RecordGolden),
            "--emit-contract" => return Ok(Mode::EmitContract),
            "-h" | "--help" => return Ok(Mode::Help),
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }
    Ok(Mode::Run(args))
}

fn run_workload(name: &str, cx: &mut Ctx) -> Outcome {
    host::reset_peak_rss();
    let open = cx.tr.enter("bench.workload", 0);
    let mut out = match name {
        "sim_steady" => workloads::sim_steady::run(cx),
        "compile_roster" => workloads::compile_roster::run(cx),
        "serve_closed" => workloads::serve_closed::run(cx),
        "ckpt_resume" => workloads::ckpt_resume::run(cx),
        _ => unreachable!("validated in parse_args"),
    };
    cx.tr.exit(open);
    if cx.traced {
        // Which speed mode the host was in (see `calib`).
        let refs = cx.pace.samples();
        out.layer("host.ref_kernel_us", stats::median(refs) * 1e6, refs.len());
        let fastest = refs.iter().copied().fold(f64::INFINITY, f64::min);
        out.layer("host.ref_kernel_min_us", fastest * 1e6, refs.len());
    }
    // The process doing the work is this one, except on serve_closed,
    // which has already reported the daemon's peak instead.
    if !out.end_to_end.contains_key("peak_rss_mb") {
        let rss = host::peak_rss_mb(std::process::id()).unwrap_or(0.0);
        out.e2e("peak_rss_mb", rss, 1);
    }
    out
}

fn run(args: Args) -> Result<bool, String> {
    host::scrub_env();
    // Measure the interpreter: promotion would swap kernels mid-run.
    limpet_harness::set_promotion(false);
    let scratch = host::Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    // The native-tier probe compiles C through the system temp dir; keep
    // that inside the run's scratch space too.
    let tmp = std::fs::canonicalize(scratch.subdir("tmp")).map_err(|e| e.to_string())?;
    std::env::set_var("TMPDIR", tmp);

    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(w, _)| *w).collect(),
    };
    let epoch = Instant::now();
    let mut cx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        traced: args.traced,
        tr: Tracer::new(args.traced, epoch, 0),
        pace: calib::Pace::start(),
        scratch: &scratch,
    };
    let mut sections = Vec::new();
    let mut last_line = String::new();
    let mut all_correct = true;
    for name in names {
        let out = run_workload(name, &mut cx);
        report::print_outcome(name, &out, args.traced);
        all_correct &= out.failed == 0;
        last_line = report::driver_line(&out, args.traced);
        sections.push((name, report::outcome_json(name, &out, args.traced)));
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, cx.tr.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.out {
        let file = Json::obj(vec![
            ("bench", Json::str("limpet-perf")),
            ("format", 1usize.into()),
            ("seed", args.seed.into()),
            ("seconds", args.seconds.into()),
            ("quick", args.quick.into()),
            ("traced", args.traced.into()),
            ("host", host::provenance()),
            ("workloads", Json::obj(sections)),
        ]);
        std::fs::write(path, format!("{file}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if args.workload.is_some() {
        println!("{last_line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Mode::Help) => {
            print!("{USAGE}");
            Ok(true)
        }
        Ok(Mode::EmitContract) => {
            print!("{}", report::contract_json());
            Ok(true)
        }
        Ok(Mode::RecordGolden) => workloads::record_golden().map(|path| {
            eprintln!("limpet-perf: wrote {}", path.display());
            true
        }),
        Ok(Mode::Compare(a, b)) => (|| {
            let read = |p: &PathBuf| {
                std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
            };
            let (text, flagged) = report::compare(&read(&a)?, &read(&b)?)?;
            print!("{text}");
            Ok(!flagged)
        })(),
        Ok(Mode::Run(args)) => run(args),
        Err(e) => Err(e),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("limpet-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let Ok(Mode::Run(a)) = parse(&[
            "--workload",
            "serve_closed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]) else {
            panic!()
        };
        assert_eq!(a.workload.as_deref(), Some("serve_closed"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, true));
        let Ok(Mode::Run(a)) = parse(&["--trace", "0", "--workload", "sim_steady"]) else {
            panic!()
        };
        assert!(!a.traced);
        // Bare --trace is the flag form.
        let Ok(Mode::Run(a)) = parse(&["--trace", "--out", "f.json"]) else {
            panic!()
        };
        assert!(a.traced && a.out.is_some());
    }

    #[test]
    fn bad_command_lines_are_errors() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
