//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [--fig2] [--fig3] [--fig4] [--fig5] [--layout] [--lut]
//!         [--ablations] [--icc] [--roofline] [--stats] [--digest] [--all]
//!         [--real-threads] [--max-threads N] [--validate-tm]
//!         [--cells N] [--steps N] [--repeats N] [--models a,b,c]
//!         [--jobs N] [--no-cache] [--native] [--native-bench]
//!         [--cache-dir PATH] [--no-disk-cache] [--cache clear|stat]
//!         [--json] [--cache-cap-mb N] [--checkpoint PATH]
//!         [--inject fault@seed[,fault@seed...]]
//! ```
//!
//! With no figure flag, `--fig2` runs (cheapest headline artifact).
//! Results print as aligned text tables and are also written as CSV files
//! under `output/`.
//!
//! `--real-threads` runs the thread-count figures (fig3/fig4/fig5) on the
//! persistent worker pool for every thread count the host can actually
//! provide, falling back to the calibrated simulated-parallel model
//! above that; every row carries a `measured|modeled` provenance tag.
//! `--max-threads N` widens (oversubscription) or narrows the measured
//! region. `--validate-tm` recalibrates the timing model, cross-validates
//! it against real-thread measurements on the overlap region, and
//! persists the calibrated constants next to the kernel disk cache.
//!
//! `--jobs N` precompiles the selected roster across every pipeline
//! configuration on N worker threads before any experiment runs, and
//! additionally shards the Fig. 2 measurement loop itself across those
//! workers (one model per work cell, rows kept in roster order; the
//! other figures still measure serially from the warm cache).
//! `--no-cache` disables the cache entirely — every simulation compiles
//! from scratch, as the harness did before the compilation service
//! existed — which is useful for validating that cached runs produce
//! identical results. `--native` promotes every eligible (width-1 AoS)
//! simulation to native code when it is built (DESIGN.md §13);
//! `--native-bench` times that tier against bytecode per model.
//! `--inject` arms the deterministic fault-injection framework (see
//! `limpet_harness::faults`) — e.g. `--inject verify-fail@42` — which is
//! also reachable through the `LIMPET_INJECT` environment variable (the
//! flag wins when both are given); any recorded incidents and quarantined
//! models print in the final summary.
//!
//! Compiled kernels persist across processes in an on-disk cache
//! (default `~/.cache/limpet-rs`, overridable via `--cache-dir` or
//! `LIMPET_CACHE_DIR`; `--no-disk-cache` keeps a run in-memory only).
//! `--cache stat` and `--cache clear` are maintenance verbs that run and
//! exit. `--checkpoint PATH` journals completed Fig. 2 rows so an
//! interrupted sweep resumes instead of restarting, and `--digest`
//! prints per-model trajectory digests for bit-identity acceptance
//! checks (CI compares them across cold, warm, and fault-injected runs).

use limpet_harness::{
    ablations, all_pipeline_kinds, available_cores, default_cache_dir, fig2_checkpointed,
    fig3_threads32, fig4_scaling, fig5_isa_threads, fig6_roofline, icc_comparison, kernel_stats,
    layout_ablation, lut_ablation, native_tier_bench, summarize_incidents,
    trajectory_digest_tiered, validate_timing_model, DiskCache, ExperimentOptions, KernelCache,
    PipelineKind, ThreadTiming, TimingModel, Workload,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct Args {
    fig2: bool,
    fig3: bool,
    fig4: bool,
    fig5: bool,
    layout: bool,
    lut: bool,
    ablations: bool,
    icc: bool,
    roofline: bool,
    stats: bool,
    digest: bool,
    native_bench: bool,
    validate_tm: bool,
    real_threads: bool,
    max_threads: Option<usize>,
    jobs: usize,
    no_cache: bool,
    no_disk_cache: bool,
    cache_dir: Option<PathBuf>,
    cache_verb: Option<String>,
    cache_cap_mb: Option<u64>,
    checkpoint: Option<PathBuf>,
    inject: Option<String>,
    json: bool,
    opts: ExperimentOptions,
}

fn parse_args() -> Args {
    let mut args = Args {
        opts: ExperimentOptions::default(),
        fig2: false,
        fig3: false,
        fig4: false,
        fig5: false,
        layout: false,
        lut: false,
        ablations: false,
        icc: false,
        roofline: false,
        stats: false,
        digest: false,
        native_bench: false,
        validate_tm: false,
        real_threads: false,
        max_threads: None,
        jobs: 0,
        no_cache: false,
        no_disk_cache: false,
        cache_dir: None,
        cache_verb: None,
        cache_cap_mb: None,
        checkpoint: None,
        inject: None,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig2" => args.fig2 = true,
            "--fig3" => args.fig3 = true,
            "--fig4" => args.fig4 = true,
            "--fig5" => args.fig5 = true,
            "--layout" => args.layout = true,
            "--lut" => args.lut = true,
            "--ablations" => args.ablations = true,
            "--icc" => args.icc = true,
            "--roofline" => args.roofline = true,
            "--stats" => args.stats = true,
            "--all" => {
                args.fig2 = true;
                args.fig3 = true;
                args.fig4 = true;
                args.fig5 = true;
                args.layout = true;
                args.lut = true;
                args.ablations = true;
                args.icc = true;
                args.roofline = true;
                args.stats = true;
            }
            "--cells" => {
                args.opts.n_cells = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cells needs a number");
            }
            "--steps" => {
                args.opts.steps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--steps needs a number");
            }
            "--repeats" => {
                args.opts.repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeats needs a number");
            }
            "--models" => {
                args.opts.only = it
                    .next()
                    .expect("--models needs a comma list")
                    .split(',')
                    .map(str::to_owned)
                    .collect();
            }
            "--jobs" => {
                args.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a number");
            }
            "--no-cache" => args.no_cache = true,
            "--no-disk-cache" => args.no_disk_cache = true,
            "--digest" => args.digest = true,
            "--native" => KernelCache::global().set_native_promotion(true),
            "--native-bench" => args.native_bench = true,
            "--json" => args.json = true,
            "--validate-tm" => args.validate_tm = true,
            "--real-threads" => args.real_threads = true,
            "--max-threads" => {
                args.max_threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n >= 1)
                        .expect("--max-threads needs a number >= 1"),
                );
            }
            "--cache-dir" => {
                args.cache_dir = Some(PathBuf::from(it.next().expect("--cache-dir needs a path")));
            }
            "--cache" => {
                let verb = it.next().unwrap_or_default();
                if verb != "clear" && verb != "stat" {
                    eprintln!("--cache needs a verb: clear or stat");
                    std::process::exit(2);
                }
                args.cache_verb = Some(verb);
            }
            "--cache-cap-mb" => {
                args.cache_cap_mb = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cache-cap-mb needs a number"),
                );
            }
            "--checkpoint" => {
                args.checkpoint =
                    Some(PathBuf::from(it.next().expect("--checkpoint needs a path")));
            }
            "--inject" => args.inject = Some(it.next().unwrap_or_default()),
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig2|--fig3|--fig4|--fig5|--layout|--lut|--ablations|--icc|--roofline|--stats|--digest|--all]\n\
                     \x20              [--real-threads] [--max-threads N] [--validate-tm]\n\
                     \x20              [--cells N] [--steps N] [--repeats N] [--models a,b,c]\n\
                     \x20              [--jobs N] [--no-cache] [--native] [--native-bench]\n\
                     \x20              [--cache-dir PATH] [--no-disk-cache] [--cache clear|stat]\n\
                     \x20              [--json] [--cache-cap-mb N] [--checkpoint PATH]\n\
                     \x20              [--inject fault@seed[,fault@seed...]]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    if !(args.fig2
        || args.fig3
        || args.fig4
        || args.fig5
        || args.layout
        || args.lut
        || args.ablations
        || args.icc
        || args.roofline
        || args.stats
        || args.digest
        || args.native_bench
        || args.validate_tm
        || args.cache_verb.is_some())
    {
        args.fig2 = true;
    }
    args
}

fn save_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("output");
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut s = String::from(header);
    s.push('\n');
    for r in rows {
        s.push_str(r);
        s.push('\n');
    }
    let path = dir.join(name);
    if fs::write(&path, s).is_ok() {
        println!("  [saved {}]", path.display());
    }
}

/// Header tag describing where thread-count timings come from.
fn region_label(timing: &ThreadTiming) -> String {
    if timing.real_max == 0 {
        "simulated-parallel model".to_owned()
    } else {
        format!(
            "measured T <= {}, simulated-parallel above",
            timing.real_max
        )
    }
}

fn main() {
    // Ctrl-C / SIGTERM stop long sweeps at a row boundary: journals are
    // kept for resume and the disk-cache lock is never left stale.
    limpet_harness::shutdown::install();
    let args = parse_args();
    // The run's one fault plan, current on this thread and entered by every
    // thread the harness spawns for it; --inject overrides LIMPET_INJECT.
    let (source, spec) = match &args.inject {
        Some(spec) => ("--inject", spec.clone()),
        None => (
            "LIMPET_INJECT",
            std::env::var("LIMPET_INJECT").unwrap_or_default(),
        ),
    };
    let _faults = limpet_harness::faults::arm(&spec).unwrap_or_else(|e| {
        eprintln!("{source}: {e}");
        std::process::exit(2);
    });
    let cache_dir = args.cache_dir.clone().unwrap_or_else(default_cache_dir);
    // Maintenance verbs run and exit before any measurement machinery.
    if let Some(verb) = &args.cache_verb {
        let disk = DiskCache::open(&cache_dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache dir {}: {e}", cache_dir.display());
            std::process::exit(1);
        });
        if let Some(mb) = args.cache_cap_mb {
            disk.set_cap_bytes(mb * 1024 * 1024);
        }
        match verb.as_str() {
            "stat" => match disk.status() {
                Ok(s) if args.json => {
                    // Machine-readable form: the same fragments the
                    // limpet-serve `stats` verb composes, so telemetry
                    // consumers never parse the pretty-printer.
                    let mem = KernelCache::global().stats();
                    let incidents =
                        limpet_harness::incidents_json(&KernelCache::global().incidents());
                    println!(
                        "{{\"dir\":\"{}\",\"disk\":{},\"memory\":{},\"incidents\":{}}}",
                        cache_dir
                            .display()
                            .to_string()
                            .replace('\\', "\\\\")
                            .replace('"', "\\\""),
                        s.to_json(),
                        mem.to_json(),
                        incidents
                    );
                }
                Ok(s) => println!(
                    "disk cache {}: {} entr{}, {} table record{}, {:.1} KiB used, cap {} MiB",
                    cache_dir.display(),
                    s.entries,
                    if s.entries == 1 { "y" } else { "ies" },
                    s.tables,
                    if s.tables == 1 { "" } else { "s" },
                    s.bytes as f64 / 1024.0,
                    s.cap_bytes / (1024 * 1024)
                ),
                Err(e) => {
                    eprintln!("cannot stat cache dir {}: {e}", cache_dir.display());
                    std::process::exit(1);
                }
            },
            _ => match disk.clear() {
                Ok(n) => println!(
                    "disk cache {}: cleared {n} entr{}",
                    cache_dir.display(),
                    if n == 1 { "y" } else { "ies" }
                ),
                Err(e) => {
                    eprintln!("cannot clear cache dir {}: {e}", cache_dir.display());
                    std::process::exit(1);
                }
            },
        }
        return;
    }
    println!(
        "limpet-rs figure runner: {} cells, {} steps, {} repeats{}",
        args.opts.n_cells,
        args.opts.steps,
        args.opts.repeats,
        if args.opts.only.is_empty() {
            ", full 43-model roster".to_owned()
        } else {
            format!(", models: {}", args.opts.only.join(","))
        }
    );
    // Which build of the step loop every timing below ran on (two hosts
    // that print different builds do not run the same code).
    println!("step loop: {}", limpet_vm::step_isa());
    // Timing model: calibrated constants persist next to the kernel disk
    // cache (`--validate-tm` writes them). A valid persisted file skips
    // recalibration; `--validate-tm` always recalibrates fresh.
    let (tm, tm_source) = if args.validate_tm || args.no_disk_cache || args.no_cache {
        (TimingModel::calibrate(), "calibrated")
    } else {
        let (tm, loaded) = TimingModel::load_or_calibrate(&cache_dir);
        (tm, if loaded { "persisted" } else { "calibrated" })
    };
    println!(
        "{tm_source} timing model: stream bandwidth {:.2} GB/s (x{} socket saturation)",
        tm.stream_bandwidth / 1e9,
        tm.bandwidth_saturation
    );
    let cores = available_cores();
    let timing = if args.real_threads {
        let t = ThreadTiming::real_threads(tm, args.max_threads);
        println!(
            "real threads: measuring T <= {} on {} core(s){}; modeling above",
            t.real_max,
            cores,
            if t.real_max > cores {
                " (oversubscribed)"
            } else {
                ""
            }
        );
        t
    } else {
        ThreadTiming::model_only(tm)
    };

    if args.no_cache {
        KernelCache::global().set_enabled(false);
        println!("kernel cache disabled (--no-cache): every run compiles from scratch\n");
    } else if args.no_disk_cache {
        println!("disk cache disabled (--no-disk-cache): kernels persist for this process only");
    } else {
        match DiskCache::open(&cache_dir) {
            Ok(disk) => {
                if let Some(mb) = args.cache_cap_mb {
                    disk.set_cap_bytes(mb * 1024 * 1024);
                }
                println!("disk cache: {}", cache_dir.display());
                KernelCache::global().set_disk_cache(Some(Arc::new(disk)));
            }
            Err(e) => eprintln!("warning: disk cache unavailable ({e}); continuing in-memory only"),
        }
    }
    if args.no_cache {
        // Nothing to precompile: the cache is bypassed entirely.
    } else if args.jobs > 0 {
        let models: Vec<_> = args
            .opts
            .roster()
            .iter()
            .map(|e| limpet_models::model(e.name))
            .collect();
        let kinds = all_pipeline_kinds();
        let t0 = Instant::now();
        let compiled = KernelCache::global().precompile(&models, &kinds, args.jobs);
        println!(
            "precompiled {compiled} kernels ({} models x {} configs) on {} threads in {:.2}s\n",
            models.len(),
            kinds.len(),
            args.jobs,
            t0.elapsed().as_secs_f64()
        );
    } else {
        println!();
    }

    if args.digest {
        println!("== Trajectory digests (bit-identity acceptance) ==");
        let wl = Workload {
            n_cells: args.opts.n_cells,
            steps: 0,
            dt: 0.01,
        };
        let mut rows = Vec::new();
        for e in args.opts.roster() {
            let m = limpet_models::model(e.name);
            for config in [
                PipelineKind::Baseline,
                PipelineKind::LimpetMlir(limpet_codegen::pipeline::VectorIsa::Avx512),
            ] {
                match trajectory_digest_tiered(&m, config, &wl, args.opts.steps) {
                    Some((d, tier)) => {
                        println!(
                            "  digest {:24} {:20} {d:016x}  {tier}",
                            e.name,
                            config.label()
                        );
                        rows.push(format!("{},{},{d:016x},{tier}", e.name, config.label()));
                    }
                    None => {
                        println!("  digest {:24} {:20} quarantined", e.name, config.label());
                        rows.push(format!(
                            "{},{},quarantined,quarantined",
                            e.name,
                            config.label()
                        ));
                    }
                }
            }
        }
        println!();
        save_csv("digests.csv", "model,config,digest,tier", &rows);
    }

    if args.native_bench {
        println!("== Native tier vs optimized bytecode (width 1, per-step wall-clock) ==");
        if !limpet_harness::toolchain_available() {
            println!("  note: no C toolchain on this host; rows degrade to bytecode");
        }
        let f = native_tier_bench(&args.opts);
        let mut rows = Vec::new();
        for r in &f.rows {
            if r.note.is_empty() {
                println!(
                    "  {:24} {:7} bytecode {:9.3} us/step  native {:9.3} us/step  {:5.2}x  bits {}",
                    r.model,
                    r.class,
                    r.bytecode_us,
                    r.native_us,
                    r.speedup,
                    if r.bit_identical { "OK" } else { "DIFF" }
                );
            } else {
                println!(
                    "  {:24} {:7} bytecode {:9.3} us/step  native unavailable ({})",
                    r.model, r.class, r.bytecode_us, r.note
                );
            }
            rows.push(format!(
                "{},{},{},{},{},{}",
                r.model, r.class, r.bytecode_us, r.native_us, r.speedup, r.bit_identical
            ));
        }
        if f.geomean.is_finite() {
            println!(
                "  geomean speedup (native over bytecode): {:.2}x\n",
                f.geomean
            );
        } else {
            println!("  no model promoted; geomean unavailable\n");
        }
        save_csv(
            "native_tier.csv",
            "model,class,bytecode_us_per_step,native_us_per_step,speedup,bit_identical",
            &rows,
        );
        if args.json {
            println!("{}", f.to_json());
        }
        println!();
    }

    if args.fig2 {
        println!("== Figure 2: single-thread speedup, limpetMLIR AVX-512 vs baseline ==");
        let f = fig2_checkpointed(&args.opts, args.jobs.max(1), args.checkpoint.as_deref());
        let mut rows = Vec::new();
        for r in &f.rows {
            println!(
                "  {:24} {:7} baseline {:9.4}s  limpetMLIR {:9.4}s  speedup {:6.2}x",
                r.model, r.class, r.baseline, r.limpet_mlir, r.speedup
            );
            rows.push(format!(
                "{},{},{},{},{}",
                r.model, r.class, r.baseline, r.limpet_mlir, r.speedup
            ));
        }
        println!("  geomean speedup: {:.2}x   (paper: 5.25x)\n", f.geomean);
        save_csv(
            "fig2.csv",
            "model,class,baseline_s,limpetmlir_s,speedup",
            &rows,
        );
    }

    if args.validate_tm {
        println!("== Timing-model cross-validation (real threads vs simulated-parallel) ==");
        // The overlap region needs at least T=2; on a single-core host
        // that means deliberate oversubscription unless --max-threads
        // narrows it further.
        let region = args.max_threads.unwrap_or_else(|| cores.max(2));
        let vt = ThreadTiming::real_threads(tm, Some(region));
        if region > cores {
            println!("  note: measuring up to T={region} on {cores} core(s) (oversubscribed)");
        }
        let v = validate_timing_model(&args.opts, &vt);
        if v.rows.is_empty() {
            println!("  empty overlap region (T <= {region}); raise --max-threads\n");
        } else {
            let mut rows = Vec::new();
            for r in &v.rows {
                println!(
                    "  {:24} {:7} {:20} T={:2}  measured {:9.5}s  modeled {:9.5}s  err {:+7.1}%",
                    r.model,
                    r.class,
                    r.config,
                    r.threads,
                    r.measured_s,
                    r.modeled_s,
                    r.rel_err * 100.0
                );
                rows.push(format!(
                    "{},{},{},{},{},{},{}",
                    r.model, r.class, r.config, r.threads, r.measured_s, r.modeled_s, r.rel_err
                ));
            }
            for (c, e) in &v.per_class {
                // Classes absent from the roster subset have no rows.
                if e.is_finite() {
                    println!("  {c:7} mean |rel err|: {:6.1}%", e * 100.0);
                }
            }
            println!(
                "  overall mean |rel err|: {:.1}% over threads {:?}\n",
                v.overall * 100.0,
                v.threads
            );
            save_csv(
                "validate_tm.csv",
                "model,class,config,threads,measured_s,modeled_s,rel_err",
                &rows,
            );
        }
        if !args.no_disk_cache && !args.no_cache {
            match tm.save(&cache_dir) {
                Ok(p) => println!("  persisted calibrated timing model: {}\n", p.display()),
                Err(e) => eprintln!("warning: could not persist timing model: {e}\n"),
            }
        }
    }

    if args.fig3 {
        println!(
            "== Figure 3: 32-thread speedup ({}) ==",
            region_label(&timing)
        );
        let f = fig3_threads32(&args.opts, &timing);
        let mut rows = Vec::new();
        for r in &f.rows {
            println!(
                "  {:24} {:7} speedup {:6.2}x  [{}]",
                r.model, r.class, r.speedup, r.provenance
            );
            rows.push(format!(
                "{},{},{},{}",
                r.model, r.class, r.speedup, r.provenance
            ));
        }
        for (c, g) in &f.class_geomeans {
            println!("  {c:7} geomean: {g:.2}x");
        }
        println!(
            "  overall geomean: {:.2}x   (paper: 1.93x; small 0.83x, medium 1.34x, large 6.03x)\n",
            f.geomean
        );
        save_csv("fig3.csv", "model,class,speedup,provenance", &rows);
    }

    if args.fig4 {
        println!(
            "== Figure 4: class-average times vs threads (AVX-512, {}) ==",
            region_label(&timing)
        );
        let f = fig4_scaling(&args.opts, &timing);
        let mut rows = Vec::new();
        for p in &f.series {
            println!(
                "  {:7} T={:2}  baseline {:10.5}s  limpetMLIR {:10.5}s  [{}]",
                p.class, p.threads, p.baseline_s, p.limpet_mlir_s, p.provenance
            );
            rows.push(format!(
                "{},{},{},{},{}",
                p.class, p.threads, p.baseline_s, p.limpet_mlir_s, p.provenance
            ));
        }
        println!();
        save_csv(
            "fig4.csv",
            "class,threads,baseline_s,limpetmlir_s,provenance",
            &rows,
        );
    }

    if args.fig5 {
        println!(
            "== Figure 5: geomean speedup per ISA x threads ({}) ==",
            region_label(&timing)
        );
        let f = fig5_isa_threads(&args.opts, &timing);
        let mut rows = Vec::new();
        for p in &f.series {
            println!(
                "  {:8} T={:2}  geomean {:5.2}x  [{}]",
                p.isa, p.threads, p.geomean, p.provenance
            );
            rows.push(format!(
                "{},{},{},{}",
                p.isa, p.threads, p.geomean, p.provenance
            ));
        }
        println!(
            "  overall geomean (all models, ISAs, threads): {:.2}x   (paper: 2.90x)\n",
            f.overall_geomean
        );
        save_csv("fig5.csv", "isa,threads,geomean_speedup,provenance", &rows);
    }

    if args.layout {
        println!("== Section 4.4: data-layout ablation (AoS vs AoSoA, 1 thread) ==");
        let f = layout_ablation(&args.opts);
        let mut rows = Vec::new();
        for (m, aos, aosoa) in &f.rows {
            println!("  {m:24} AoS {aos:5.2}x   AoSoA {aosoa:5.2}x");
            rows.push(format!("{m},{aos},{aosoa}"));
        }
        println!(
            "  geomeans: AoS {:.2}x -> AoSoA {:.2}x   (paper: 3.12x -> 3.37x)\n",
            f.geomeans.0, f.geomeans.1
        );
        save_csv(
            "layout_ablation.csv",
            "model,speedup_aos,speedup_aosoa",
            &rows,
        );
    }

    if args.lut {
        println!("== Section 3.4.2: LUT ablation (speedups vs baseline) ==");
        let f = lut_ablation(&args.opts);
        let mut rows = Vec::new();
        for (m, none, scalar, vec) in &f.rows {
            println!("  {m:24} noLUT {none:5.2}x   scalarLUT {scalar:5.2}x   vecLUT {vec:5.2}x");
            rows.push(format!("{m},{none},{scalar},{vec}"));
        }
        println!();
        save_csv(
            "lut_ablation.csv",
            "model,no_lut,scalar_lut,vector_lut",
            &rows,
        );
    }

    if args.ablations {
        println!(
            "== Ablations: FMA contraction, if-conversion (Section 5), spline LUTs (Section 7) =="
        );
        let mut rows = Vec::new();
        for r in ablations(&args.opts) {
            let ((reference, t_ref), (variant, t_var)) = (r.reference, r.variant);
            println!(
                "  {:14} {:24} {variant} over {reference}: {:5.2}x",
                r.ablation,
                r.model,
                r.speedup()
            );
            rows.push(format!(
                "{},{},{reference},{variant},{t_ref},{t_var},{}",
                r.ablation,
                r.model,
                r.speedup()
            ));
        }
        println!();
        save_csv(
            "ablations.csv",
            "ablation,model,reference,variant,reference_s,variant_s,speedup",
            &rows,
        );
    }

    if args.icc {
        println!("== Section 5: compiler-simd (icc omp simd) vs limpetMLIR ==");
        let f = icc_comparison(&args.opts, &tm);
        println!(
            "  compiler-simd geomean {:.2}x   limpetMLIR geomean {:.2}x   (paper: 2.19x vs 3.37x)\n",
            f.compiler_simd, f.limpet_mlir
        );
        save_csv(
            "icc_comparison.csv",
            "config,geomean",
            &[
                format!("compiler-simd,{}", f.compiler_simd),
                format!("limpetMLIR,{}", f.limpet_mlir),
            ],
        );
    }

    if args.roofline {
        println!("== Figure 6: roofline (limpetMLIR AVX-512, 32 modeled threads) ==");
        let f = fig6_roofline(&args.opts, &tm);
        let mut rows = Vec::new();
        for p in &f.points {
            println!(
                "  {:24} {:7} intensity {:7.3} F/B   {:9.2} GFlops/s",
                p.model, p.class, p.intensity, p.gflops
            );
            rows.push(format!(
                "{},{},{},{}",
                p.model, p.class, p.intensity, p.gflops
            ));
        }
        println!(
            "  ceilings: peak {:.0} GFlops/s, DRAM {:.0} GB/s   (paper: 760 GFlops/s, 199 GB/s)\n",
            f.peak_gflops, f.dram_gbps
        );
        save_csv("fig6_roofline.csv", "model,class,intensity,gflops", &rows);
    }

    if args.stats {
        println!("== Kernel statistics ==");
        let stats = kernel_stats(&args.opts);
        let mut rows = Vec::new();
        for s in &stats {
            let mix: Vec<String> = s
                .dialect_mix
                .iter()
                .map(|(d, n)| format!("{d}:{n}"))
                .collect();
            println!(
                "  {:24} baseline {:5} instrs   limpetMLIR {:5} instrs   LUT {:8} bytes   [{}]",
                s.model,
                s.baseline_instrs,
                s.mlir_instrs,
                s.lut_bytes,
                mix.join(" ")
            );
            rows.push(format!(
                "{},{},{},{}",
                s.model, s.baseline_instrs, s.mlir_instrs, s.lut_bytes
            ));
        }
        println!();
        save_csv(
            "kernel_stats.csv",
            "model,baseline_instrs,mlir_instrs,lut_bytes",
            &rows,
        );
    }

    let cs = KernelCache::global().stats();
    println!(
        "kernel cache: {} entries, {} memory hits, {} disk hits, {} cold compilations, {} executed steps, {} table sets, {} table bytes",
        cs.entries, cs.hits, cs.disk_hits, cs.misses, cs.executed_steps, cs.table_sets, cs.table_bytes
    );
    if cs.native_ready + cs.native_quarantined > 0 || cs.native_compiles + cs.native_disk_hits > 0 {
        println!(
            "  native tier: {} ready, {} cc compile(s), {} disk hit(s), {} quarantined",
            cs.native_ready, cs.native_compiles, cs.native_disk_hits, cs.native_quarantined
        );
    }
    if let Some(disk) = KernelCache::global().disk_cache() {
        let ds = disk.stats();
        let occupancy = disk
            .status()
            .map(|s| {
                format!(
                    "{} entr{}, {} table record{}, {:.1} KiB",
                    s.entries,
                    if s.entries == 1 { "y" } else { "ies" },
                    s.tables,
                    if s.tables == 1 { "" } else { "s" },
                    s.bytes as f64 / 1024.0
                )
            })
            .unwrap_or_else(|e| format!("unreadable: {e}"));
        println!(
            "  disk tier {}: {occupancy}; {} hits, {} writes, {} rejected, {} evicted",
            disk.dir().display(),
            ds.hits,
            ds.writes,
            ds.rejects,
            ds.evictions
        );
    }
    if cs.quarantined > 0 || cs.poison_recoveries > 0 || cs.disk_rejects > 0 {
        println!(
            "  degraded: {} quarantined model(s), {} lock recovery(ies), {} disk entr{} rejected",
            cs.quarantined,
            cs.poison_recoveries,
            cs.disk_rejects,
            if cs.disk_rejects == 1 { "y" } else { "ies" }
        );
    }
    let incidents = KernelCache::global().incidents();
    if !incidents.is_empty() {
        // Deduplicated: a per-step incident repeating for hundreds of
        // steps prints once with an xN count, sorted by model and kind.
        let summary = summarize_incidents(&incidents);
        println!(
            "incident report ({} event(s), {} distinct):",
            incidents.len(),
            summary.len()
        );
        for (incident, count) in &summary {
            if *count > 1 {
                println!("  {incident} x{count}");
            } else {
                println!("  {incident}");
            }
        }
    }
}
