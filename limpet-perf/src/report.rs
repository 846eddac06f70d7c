//! What the benchmark reports: the metric and workload tables (the single
//! source `BENCHMARK.json` is generated from), one workload's outcome, the
//! result-file and driver-line encodings, and `--compare`.

use serve::Json;
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, speed-ups).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name (`layer.metric` for per-layer ones).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before it is a regression.
    pub bound: f64,
    /// Per-layer only: a count that must repeat exactly run to run, so a
    /// later issue may rest a claim on it.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sim_steady",
        "Paper Fig. 2: 43 models x 8192 cells, W=1 AoS beside W=8 AoSoA, kernels precompiled; \
         the vm step loop does all the work and compile none.",
    ),
    (
        "compile_roster",
        "First-run cost: EasyML text to kernel, cold+store beside disk-warm load; \
         easyml/codegen/passes/vm-compile/persist do all the work and the step loop none.",
    ),
    (
        "serve_closed",
        "Operator view: closed loop of nproc connections on limpet-serve, 1 job in 8 inline source \
         that must cold-compile; only here are queue, wire, journal and per-chunk checkpoints used.",
    ),
    (
        "ckpt_resume",
        "Durability cost: snapshot+save and load+resume of 8192-cell runs; checkpoint I/O dominates, \
         compile and dispatch do not.",
    ),
];

/// End-to-end metrics. Every workload reports every one; what `primary`
/// and `secondary` time on each workload is in [`SLOTS`].
pub const END_TO_END: [Def; 5] = [
    e2e("primary_ms", "ms", Lower, 0.15),
    e2e("secondary_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
];

/// What the workload-generic slots mean on each workload:
/// `(workload, slot, the issue's name for it, definition)`.
pub const SLOTS: [(&str, &str, &str, &str); 12] = [
    (
        "sim_steady",
        "primary_ms",
        "sim_w8_ms_per_step",
        "geomean over models of the median ms per 8192-cell step, limpetMLIR-AVX-512 (W=8, AoSoA)",
    ),
    (
        "sim_steady",
        "secondary_ms",
        "sim_w1_ms_per_step",
        "the same under baseline (W=1, AoS)",
    ),
    (
        "sim_steady",
        "ops_per_s",
        "sim_cellsteps_per_s",
        "cell-steps over both configurations per second of step-loop time",
    ),
    (
        "compile_roster",
        "primary_ms",
        "compile_cold_ms",
        "median wall ms of text -> kernel for the roster x 2 configurations, cold, with store",
    ),
    (
        "compile_roster",
        "secondary_ms",
        "compile_disk_warm_ms",
        "the same through a fresh KernelCache over the populated directory (load + verify)",
    ),
    (
        "compile_roster",
        "ops_per_s",
        "compile_kernels_per_s",
        "kernels produced (cold + disk-warm) per second of compile time",
    ),
    (
        "serve_closed",
        "primary_ms",
        "serve_job_ms",
        "geomean over the 43 roster job kinds of the median submit -> done",
    ),
    (
        "serve_closed",
        "secondary_ms",
        "serve_cold_job_ms",
        "the same over the 6 inline-source job kinds, which cold-compile",
    ),
    (
        "serve_closed",
        "ops_per_s",
        "serve_jobs_per_s",
        "jobs completed per second of closed-loop wall time",
    ),
    (
        "ckpt_resume",
        "primary_ms",
        "ckpt_save_p50_ms",
        "median snapshot + durable save, large-class model",
    ),
    (
        "ckpt_resume",
        "secondary_ms",
        "ckpt_resume_p50_ms",
        "median load + resume_from, large-class model",
    ),
    (
        "ckpt_resume",
        "ops_per_s",
        "ckpt_ops_per_s",
        "checkpoints + continuations per second, over one cycle of all three models at median cost",
    ),
];

/// The issue's name for a slot on a workload, and what it measures there.
pub fn alias(workload: &str, slot: &str) -> Option<(&'static str, &'static str)> {
    SLOTS
        .iter()
        .find(|(w, s, _, _)| *w == workload && *s == slot)
        .map(|(_, _, alias, definition)| (*alias, *definition))
}

/// Per-layer metrics, layer = crate/module name. A workload that never
/// enters a layer reports 0 for it.
pub const PER_LAYER: [Def; 100] = [
    layer("easyml.parse_ms", "ms", Lower),
    layer("easyml.sema_ms", "ms", Lower),
    count("easyml.src_bytes", "B"),
    layer("codegen.lower_ms", "ms", Lower),
    count("codegen.lut_tables", "count"),
    count("codegen.lut_columns", "count"),
    layer("ir.verify_ms", "ms", Lower),
    layer("ir.print_parse_ms", "ms", Lower),
    count("ir.ops_lowered", "count"),
    count("ir.ops_final", "count"),
    layer("passes.total_ms", "ms", Lower),
    layer("passes.const-prop.ms", "ms", Lower),
    count("passes.const-prop.applied", "count"),
    layer("passes.canonicalize.ms", "ms", Lower),
    count("passes.canonicalize.applied", "count"),
    layer("passes.cse.ms", "ms", Lower),
    count("passes.cse.applied", "count"),
    layer("passes.licm.ms", "ms", Lower),
    count("passes.licm.applied", "count"),
    layer("passes.dce.ms", "ms", Lower),
    count("passes.dce.applied", "count"),
    layer("passes.vectorize.ms", "ms", Lower),
    count("passes.vectorize.applied", "count"),
    layer("passes.fixpoint.ms", "ms", Lower),
    count("passes.fixpoint.applied", "count"),
    layer("passes.fma-contract.ms", "ms", Lower),
    count("passes.fma-contract.applied", "count"),
    layer("passes.scalar-lut-mode.ms", "ms", Lower),
    count("passes.scalar-lut-mode.applied", "count"),
    layer("vm.bytecode_compile_ms", "ms", Lower),
    layer("vm.bytecode_opt_ms", "ms", Lower),
    layer("vm.lut_build_ms", "ms", Lower),
    count("vm.lut_bytes", "B"),
    count("vm.static_instrs_raw", "count"),
    count("vm.static_instrs_opt", "count"),
    layer("vm.serialize_ms", "ms", Lower),
    layer("vm.deserialize_ms", "ms", Lower),
    count("vm.instrs_per_step_w1", "count"),
    count("vm.instrs_per_step_w8", "count"),
    layer("vm.ns_per_instr_w1", "ns", Lower),
    layer("vm.ns_per_instr_w8", "ns", Lower),
    count("vm.bytes_per_step", "B"),
    count("vm.flops_per_step", "count"),
    count("vm.math_calls_per_step", "count"),
    layer("vm.flop_per_byte", "flop/B", Higher),
    layer("vm.opt_over_raw", "ratio", Lower),
    layer("vm.nolut_over_lut", "ratio", Higher),
    layer("vm.aos_over_aosoa", "ratio", Higher),
    layer("vm.vmath_exp_ns_per_lane", "ns", Lower),
    layer("vm.lut_interp_ns_per_key", "ns", Lower),
    layer("vm.cells512_over_cells8192", "ratio", Lower),
    layer("vm.cells131072_over_cells8192", "ratio", Lower),
    layer("sim.compute_us_per_step", "us", Lower),
    layer("sim.update_vm_us_per_step", "us", Lower),
    layer("sim.guarded_over_plain", "ratio", Lower),
    layer("sim.unattributed_share", "ratio", Lower),
    layer("threads.t2_speedup", "ratio", Higher),
    layer("threads.stream_gbps", "GB/s", Higher),
    layer("native.cc_compile_ms", "ms", Lower),
    layer("native.speedup_w1", "ratio", Higher),
    layer("cache.mem_hit_us", "us", Lower),
    count("cache.cold_compiles", "count"),
    count("cache.disk_hits", "count"),
    count("cache.disk_writes", "count"),
    layer("compile.unattributed_share", "ratio", Lower),
    layer("persist.store_ms", "ms", Lower),
    layer("persist.load_ms", "ms", Lower),
    count("persist.entry_bytes", "B"),
    count("persist.rejects", "count"),
    layer("checkpoint.snapshot_ms", "ms", Lower),
    layer("checkpoint.encode_ms", "ms", Lower),
    layer("checkpoint.save_ms", "ms", Lower),
    layer("checkpoint.load_ms", "ms", Lower),
    layer("checkpoint.decode_ms", "ms", Lower),
    layer("checkpoint.restore_ms", "ms", Lower),
    count("checkpoint.bytes", "B"),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.stats_rtt_us", "us", Lower),
    layer("serve.accept_ms", "ms", Lower),
    layer("serve.job_p50_ms", "ms", Lower),
    layer("serve.ttfc_p50_ms", "ms", Lower),
    layer("serve.job_tail_ms", "ms", Lower),
    layer("serve.job_tail_percentile", "%", Higher),
    layer("serve.chunk_gap_p50_ms", "ms", Lower),
    layer("serve.done_after_last_chunk_ms", "ms", Lower),
    layer("serve.wire_bytes_per_job", "B", Lower),
    count("serve.events_per_job", "count"),
    layer("serve.warm_job_p50_ms", "ms", Lower),
    layer("serve.cold_job_p50_ms", "ms", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.daemon_cache_hits", "count", Higher),
    layer("serve.daemon_cache_misses", "count", Lower),
    layer("serve.daemon_checkpoints", "count", Lower),
    layer("harness.fig2_speedup_geomean", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.other_layers_share", "ratio", Lower),
    layer("host.ref_kernel_us", "us", Lower),
    layer("host.ref_kernel_min_us", "us", Lower),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The measurement.
    pub value: f64,
    /// How many samples the statistic was taken over.
    pub samples: usize,
}

/// Everything one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, compiles, jobs, saves, resumes, and the
    /// digest comparisons that verify them).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong digest.
    pub failed: u64,
    /// What went wrong, for the log.
    pub failures: Vec<String>,
    /// End-to-end values by name (untraced run); times are at reference
    /// speed (see `calib`).
    pub end_to_end: BTreeMap<&'static str, Value>,
    /// The raw wall-clock counterparts of end-to-end times, by name.
    pub wall_clock: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced run).
    pub per_layer: BTreeMap<&'static str, Value>,
    /// Per-model (or per-job-kind) rows for the result file.
    pub rows: Vec<Json>,
    /// Scale actually run (rounds, block sizes, job counts).
    pub scale: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one attempted operation; a `Some(reason)` also counts it as
    /// failed.
    pub fn attempt(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.fail(reason);
        }
    }

    /// Counts a failure of an already-attempted operation.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(reason);
        }
    }

    /// Attempts a bit-identity check of two digests.
    pub fn check_eq(&mut self, what: impl FnOnce() -> String, got: u64, want: u64) {
        self.attempt(
            (got != want).then(|| format!("{}: digest {got:016x}, expected {want:016x}", what())),
        );
    }

    /// Sets an end-to-end value.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(END_TO_END.iter().any(|d| d.name == name), "{name}");
        self.end_to_end.insert(name, Value { value, samples });
    }

    /// Records the raw wall-clock counterpart of an end-to-end time.
    pub fn wall(&mut self, name: &'static str, value: f64) {
        self.wall_clock.insert(name, value);
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        self.per_layer.insert(name, Value { value, samples });
    }

    /// Sets an exact per-layer count from its value in every repetition:
    /// the repetitions must agree, or the count is not one a claim may
    /// rest on and the run fails.
    pub fn exact(&mut self, name: &'static str, reps: &[u64]) {
        debug_assert!(
            PER_LAYER.iter().any(|d| d.name == name && d.exact),
            "{name}"
        );
        let first = reps.first().copied().unwrap_or(0);
        self.attempt(
            reps.iter()
                .any(|&r| r != first)
                .then(|| format!("exact count {name} differs across repetitions: {reps:?}")),
        );
        self.layer(name, first as f64, reps.len());
    }

    /// Failed share of attempted operations.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn def_json(d: &Def, with_bound: bool) -> Json {
    let mut fields = vec![
        ("name", Json::str(d.name)),
        ("unit", Json::str(d.unit)),
        ("better", Json::str(d.better.as_str())),
    ];
    if with_bound {
        fields.push(("bound", d.bound.into()));
    }
    Json::obj(fields)
}

/// Seconds one driver run measures (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, generated from the tables above (keys in the
/// contract's order, one metric per line, so the file diffs well).
pub fn contract_json() -> String {
    let lines = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            Json::obj(vec![("name", Json::str(*name)), ("why", Json::str(*why))]).to_string()
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|d| def_json(d, true).to_string())
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|d| def_json(d, false).to_string())
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"limpet-perf/run.sh\"],\n  \"paths\": [\"limpet-perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        lines(workloads),
        lines(e2e),
        lines(layers),
    )
}

fn metrics_json(defs: &[Def], values: &BTreeMap<&'static str, Value>) -> Json {
    Json::Obj(
        defs.iter()
            .map(|d| {
                let value = values.get(d.name).map_or(0.0, |v| v.value);
                (
                    d.name.to_owned(),
                    Json::obj(vec![("value", value.into()), ("unit", Json::str(d.unit))]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output in driver mode: `correct`,
/// `attempted`, `failed`, and every end-to-end metric (untraced) or every
/// per-layer metric (traced).
pub fn driver_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        metrics_json(&PER_LAYER, &outcome.per_layer)
    } else {
        metrics_json(&END_TO_END, &outcome.end_to_end)
    };
    Json::obj(vec![
        ("correct", (outcome.failed == 0).into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics),
    ])
    .to_string()
}

/// One workload's section of the result file.
pub fn outcome_json(workload: &str, outcome: &Outcome, traced: bool) -> Json {
    let (defs, values): (&[Def], _) = if traced {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let metrics = defs
        .iter()
        .filter_map(|d| {
            let v = values.get(d.name)?;
            let mut fields = vec![
                ("value", v.value.into()),
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better.as_str())),
                ("samples", v.samples.into()),
            ];
            if traced {
                fields.push(("exact", d.exact.into()));
            } else {
                fields.push(("bound", d.bound.into()));
                if let Some((alias, definition)) = alias(workload, d.name) {
                    fields.push(("alias", Json::str(alias)));
                    fields.push(("definition", Json::str(definition)));
                }
                if let Some(w) = outcome.wall_clock.get(d.name) {
                    fields.push(("wall_clock", (*w).into()));
                }
            }
            Some((d.name.to_owned(), Json::obj(fields)))
        })
        .collect();
    Json::obj(vec![
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("failed_share", outcome.failed_share().into()),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        (
            if traced { "per_layer" } else { "end_to_end" },
            Json::Obj(metrics),
        ),
        ("scale", Json::obj(outcome.scale.clone())),
        ("rows", Json::Arr(outcome.rows.clone())),
    ])
}

/// Human-readable table of one outcome, to standard error.
pub fn print_outcome(workload: &str, outcome: &Outcome, traced: bool) {
    let (defs, values): (&[Def], _) = if traced {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    eprintln!(
        "{workload}: attempted {} failed {} (failed_share {})",
        outcome.attempted,
        outcome.failed,
        outcome.failed_share()
    );
    for d in defs {
        let Some(v) = values.get(d.name) else {
            continue;
        };
        let name = match alias(workload, d.name) {
            Some((a, _)) if !traced => format!("{} ({a})", d.name),
            _ => d.name.to_owned(),
        };
        let wall = match outcome.wall_clock.get(d.name) {
            Some(w) if !traced => format!(", wall clock {w:.6}"),
            _ => String::new(),
        };
        eprintln!(
            "  {name:<44} {:>16.6} {:<7} {} better, n={}{}{wall}",
            v.value,
            d.unit,
            d.better.as_str(),
            v.samples,
            if d.exact { ", exact" } else { "" }
        );
    }
    for f in &outcome.failures {
        eprintln!("  FAILED: {f}");
    }
}

/// `--compare A B`: per-metric ratio B/A with its base, a flag on every
/// end-to-end metric that worsened beyond its bound, and every exact
/// count that differs. Returns the report and whether anything was
/// flagged.
///
/// # Errors
///
/// Returns a description when either file is not a result file.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = Json::parse(a_text).map_err(|e| format!("A: {e}"))?;
    let b = Json::parse(b_text).map_err(|e| format!("B: {e}"))?;
    let workloads = |j: &Json| match j.get("workloads") {
        Some(Json::Obj(map)) => Ok(map.clone()),
        _ => Err("not a limpet-perf result file (no 'workloads')".to_owned()),
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut out = String::new();
    let mut flagged = false;
    for (workload, sa) in &wa {
        let Some(sb) = wb.get(workload) else {
            out.push_str(&format!("{workload}: only in A\n"));
            continue;
        };
        out.push_str(&format!("{workload}\n"));
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for d in defs {
                let value = |s: &Json| s.get(section)?.get(d.name)?.get("value")?.as_f64();
                let (Some(va), Some(vb)) = (value(sa), value(sb)) else {
                    continue;
                };
                if d.exact {
                    if va != vb {
                        flagged = true;
                        out.push_str(&format!(
                            "  EXACT COUNT DIFFERS  {:<36} {va} -> {vb} {}\n",
                            d.name, d.unit
                        ));
                    }
                    continue;
                }
                if va == 0.0 && vb == 0.0 {
                    continue;
                }
                let ratio = vb / va;
                let worse = match d.better {
                    Lower => ratio - 1.0,
                    Higher => 1.0 - ratio,
                };
                let flag = if section == "end_to_end" && worse > d.bound {
                    flagged = true;
                    format!("  REGRESSION beyond {:.0}% bound", d.bound * 100.0)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "  {:<36} {ratio:>8.4}x of {va:.6} {} ({} better){flag}\n",
                    d.name,
                    d.unit,
                    d.better.as_str()
                ));
            }
        }
        let failed = |s: &Json| s.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if failed(sb) > failed(sa) {
            flagged = true;
            out.push_str(&format!(
                "  MORE FAILURES        {} -> {}\n",
                failed(sa),
                failed(sb)
            ));
        }
    }
    Ok((out, flagged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(ok(d.name, "_.-", 64), "{}", d.name);
            assert!(ok(d.unit, "_/%.-", 16), "{} unit {}", d.name, d.unit);
        }
        for (name, why) in WORKLOADS {
            assert!(seen.insert(name));
            assert!(ok(name, "_.-", 64));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_slot_names_a_workload_and_an_end_to_end_metric() {
        for (w, s, _, _) in SLOTS {
            assert!(WORKLOADS.iter().any(|(name, _)| *name == w), "{w}");
            assert!(END_TO_END.iter().any(|d| d.name == s), "{s}");
        }
    }

    #[test]
    fn committed_contract_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with `limpet-perf --emit-contract > BENCHMARK.json`"
        );
        Json::parse(&committed).expect("valid JSON");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_all_metrics() {
        let mut o = Outcome::default();
        o.attempt(None);
        o.e2e("primary_ms", 1.25, 3);
        for traced in [false, true] {
            let line = Json::parse(&driver_line(&o, traced)).unwrap();
            let Json::Obj(map) = &line else { panic!() };
            let keys: Vec<&str> = map.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!()
            };
            let want = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), want);
        }
        assert_eq!(
            Json::parse(&driver_line(&o, false)).unwrap().get("correct"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn exact_counts_must_repeat() {
        let mut o = Outcome::default();
        o.exact("cache.cold_compiles", &[86, 86, 86]);
        assert_eq!((o.attempted, o.failed), (1, 0));
        o.exact("checkpoint.bytes", &[10, 11]);
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(o.failures[0].contains("checkpoint.bytes"));
    }

    fn result_file(primary: f64, instrs: f64, failed: u64) -> String {
        let mut o = Outcome {
            attempted: 10,
            failed,
            ..Outcome::default()
        };
        o.e2e("primary_ms", primary, 5);
        o.e2e("ops_per_s", 100.0, 5);
        let mut t = Outcome::default();
        t.layer("vm.instrs_per_step_w8", instrs, 2);
        t.layer("vm.lut_build_ms", 3.0, 2);
        let mut section = match outcome_json("sim_steady", &o, false) {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        section.insert(
            "per_layer".to_owned(),
            outcome_json("sim_steady", &t, true)
                .get("per_layer")
                .unwrap()
                .clone(),
        );
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![("sim_steady", Json::Obj(section))]),
        )])
        .to_string()
    }

    #[test]
    fn compare_flags_regressions_exact_drift_and_new_failures() {
        let base = result_file(10.0, 500.0, 0);
        let (report, flagged) = compare(&base, &result_file(10.5, 500.0, 0)).unwrap();
        assert!(!flagged, "{report}");
        assert!(report.contains("1.0500x of 10.000000 ms"), "{report}");
        let (report, flagged) = compare(&base, &result_file(11.6, 500.0, 0)).unwrap();
        assert!(
            flagged && report.contains("REGRESSION beyond 15% bound"),
            "{report}"
        );
        let (report, flagged) = compare(&base, &result_file(10.0, 501.0, 0)).unwrap();
        assert!(
            flagged && report.contains("EXACT COUNT DIFFERS"),
            "{report}"
        );
        let (report, flagged) = compare(&base, &result_file(10.0, 500.0, 1)).unwrap();
        assert!(flagged && report.contains("MORE FAILURES"), "{report}");
        assert!(compare("{}", &base).is_err());
    }
}
