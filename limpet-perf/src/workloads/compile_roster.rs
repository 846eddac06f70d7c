//! `compile_roster` — developer / first-run cost: EasyML *text* to an
//! executable kernel for every roster model under both configurations, on
//! one thread. Each round does it three ways: cold through a fresh
//! `KernelCache` over an empty `DiskCache` (compile + store), again on the
//! same cache (memory hit), and through a fresh `KernelCache` over the
//! now-populated directory (disk-warm: load + verify).
//!
//! `easyml`, `codegen`, `passes`, the `vm` compiler and `persist` do all
//! the work and the step loop none; store beside load drives `persist`
//! both ways.

use super::{cells, golden_check, repeat_setup, roster, Ctx, RosterModel, CONFIGS, QUICK_MODELS};
use crate::golden::{self, Golden};
use crate::probes;
use crate::report::Outcome;
use crate::stats::median;
use limpet_codegen::{lower_model, pipeline, CodegenOptions};
use limpet_easyml::Model;
use limpet_harness::{
    compile_source, model_info, CompiledKernel, DiskCache, DiskLoad, EntryKey, KernelCache,
    PipelineKind, Simulation,
};
use limpet_vm::{eval_func, Kernel, LutData, ParamOnlyContext, Val};
use serve::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const MIN_ROUNDS: usize = 2;

fn cache_over(dir: &Path) -> KernelCache {
    let cache = KernelCache::new();
    let disk = DiskCache::open(dir).expect("open disk cache in scratch");
    cache.set_disk_cache(Some(Arc::new(disk)));
    cache
}

/// Text to kernel for the whole roster through `cache`, as a first-time
/// user's process would: parse, analyse, look up. Returns the entries in
/// roster × configuration order, the seconds at reference speed (each
/// kernel paced on its own), and the raw wall seconds.
fn compile_all(
    cx: &mut Ctx,
    span: &'static str,
    cache: &KernelCache,
    roster: &[RosterModel],
) -> (Vec<(Model, Arc<CompiledKernel>)>, f64, f64) {
    let mut entries = Vec::with_capacity(roster.len() * CONFIGS.len());
    let (mut total, mut wall) = (0.0, 0.0);
    for r in roster {
        for config in CONFIGS {
            let op = cx.tr.op(&format!("{}×{}", r.entry.name, config.label()));
            let (entry, secs) = cx.tr.time(span, op, || {
                let model =
                    compile_source(r.entry.name, &r.source).expect("roster source compiles");
                let entry = cache.get_or_compile(&model, config);
                (model, entry)
            });
            wall += secs;
            total += cx.pace.scale(secs);
            entries.push(entry);
        }
    }
    (entries, total, wall)
}

fn sim_of(entry: &CompiledKernel) -> Simulation {
    Simulation::with_kernel(
        entry.kernel().clone(),
        entry.layout(),
        &cells(golden::CELLS),
    )
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    /// Cold roster compile + store, seconds at reference speed.
    cold_s: f64,
    cold_wall_s: f64,
    /// All memory-hit lookups, raw seconds (too short to pace).
    mem_hit_s: f64,
    /// Disk-warm roster load, seconds at reference speed.
    disk_warm_s: f64,
    disk_warm_wall_s: f64,
    cold_compiles: u64,
    disk_writes: u64,
    disk_hits: u64,
    entry_bytes: u64,
    rejects: u64,
}

fn round(cx: &mut Ctx, out: &mut Outcome, roster: &[RosterModel], golden: &Golden) -> Round {
    let dir = cx.scratch.subdir("kernels");
    let kernels = roster.len() * CONFIGS.len();
    let cold_cache = cache_over(&dir);
    let (cold, cold_s, cold_wall_s) = compile_all(cx, "cache.cold", &cold_cache, roster);
    let started = Instant::now();
    let hits: Vec<_> = cold
        .iter()
        .zip(roster.iter().flat_map(|_| CONFIGS))
        .map(|((model, _), config)| cold_cache.get_or_compile(model, config))
        .collect();
    let mem_hit_s = started.elapsed().as_secs_f64();
    let warm_cache = cache_over(&dir);
    let (warm, disk_warm_s, disk_warm_wall_s) =
        compile_all(cx, "cache.disk_warm", &warm_cache, roster);

    // Every kernel, however it was obtained, must reproduce the committed
    // digests; a memory hit must be the very same compilation.
    let verify = cx.tr.enter("bench.verify", 0);
    // Counted at the boundary: compiling may not have stepped a kernel.
    let stepped: u64 = cold
        .iter()
        .chain(&warm)
        .map(|(_, e)| e.kernel().executed_steps())
        .sum();
    out.attempt((stepped != 0).then(|| format!("the compile path executed {stepped} step(s)")));
    let names = roster
        .iter()
        .flat_map(|r| CONFIGS.map(|c| (r.entry.name, c)));
    for (((name, config), ((_, c), (_, w))), hit) in names.zip(cold.iter().zip(&warm)).zip(&hits) {
        golden_check(out, golden, name, config, "cold compile", sim_of(c));
        golden_check(out, golden, name, config, "disk-warm load", sim_of(w));
        out.attempt(
            (!Arc::ptr_eq(c, hit)).then(|| format!("{name}: memory hit returned another entry")),
        );
    }
    let (cs, ws) = (cold_cache.stats(), warm_cache.stats());
    for (what, got) in [
        ("cold compiles", cs.misses),
        ("disk writes", cs.disk_writes),
        ("memory hits", cs.hits),
        ("disk hits", ws.disk_hits),
        ("disk-warm recompiles", ws.misses + kernels as u64),
    ] {
        out.attempt((got != kernels as u64).then(|| format!("{what}: {got}, expected {kernels}")));
    }
    cx.tr.exit(verify);
    let disk = warm_cache.disk_cache().expect("attached above");
    Round {
        cold_s,
        cold_wall_s,
        mem_hit_s,
        disk_warm_s,
        disk_warm_wall_s,
        cold_compiles: cs.misses,
        disk_writes: cs.disk_writes,
        disk_hits: ws.disk_hits,
        entry_bytes: disk.status().map_or(0, |s| s.bytes),
        rejects: cs.disk_rejects + ws.disk_rejects,
    }
}

/// Runs the workload.
pub fn run(cx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let golden = golden::committed();
    // Set-up is small here — the timed phase starts from nothing by
    // design: generate the roster's sources, and gate on one model per
    // class so a broken step loop stops the run before it measures.
    let roster = repeat_setup(cx, &mut out, |cx, out| {
        let quick = cx.quick;
        let (roster, mut secs) = cx.timed("bench.roster", 0, || roster(quick));
        let cache = KernelCache::new();
        for r in roster
            .iter()
            .filter(|r| QUICK_MODELS.contains(&r.entry.name))
        {
            for config in CONFIGS {
                secs += cx
                    .timed("bench.gate", 0, || {
                        let entry = cache.get_or_compile(&r.model, config);
                        golden_check(out, &golden, r.entry.name, config, "set-up", sim_of(&entry));
                    })
                    .1;
            }
        }
        (roster, secs)
    });
    let kernels = (roster.len() * CONFIGS.len()) as f64;

    let min_rounds = if cx.quick || cx.traced { 1 } else { MIN_ROUNDS };
    let timed_phase = |cx: &mut Ctx, out: &mut Outcome| {
        let mut rounds = Vec::new();
        let started = Instant::now();
        while cx.another_round(rounds.len(), min_rounds, started) {
            rounds.push(round(cx, out, &roster, &golden));
        }
        rounds
    };
    cx.tr.set_enabled(false);
    let untraced = timed_phase(cx, &mut out);
    cx.tr.set_enabled(cx.traced);
    let timed_from = cx.tr.now_ns();
    let traced = if cx.traced {
        timed_phase(cx, &mut out)
    } else {
        Vec::new()
    };
    let timed_to = cx.tr.now_ns();
    let rounds = if cx.traced { &traced } else { &untraced };

    let col = |rs: &[Round], f: fn(&Round) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
    let (cold_s, warm_s) = (col(rounds, |r| r.cold_s), col(rounds, |r| r.disk_warm_s));
    out.e2e("primary_ms", cold_s * 1e3, rounds.len());
    out.e2e("secondary_ms", warm_s * 1e3, rounds.len());
    out.e2e("ops_per_s", 2.0 * kernels / (cold_s + warm_s), rounds.len());
    out.wall("primary_ms", col(rounds, |r| r.cold_wall_s) * 1e3);
    out.wall("secondary_ms", col(rounds, |r| r.disk_warm_wall_s) * 1e3);
    out.scale = vec![
        ("rounds", rounds.len().into()),
        ("kernels_per_round", kernels.into()),
        ("jobs", 1usize.into()),
    ];
    for (i, r) in rounds.iter().enumerate() {
        out.rows.push(Json::obj(vec![
            ("round", i.into()),
            ("cold_s", r.cold_s.into()),
            (
                "mem_hit_us_per_lookup",
                (r.mem_hit_s * 1e6 / kernels).into(),
            ),
            ("disk_warm_s", r.disk_warm_s.into()),
        ]));
    }

    if cx.traced {
        let on = cold_s + warm_s;
        let off = col(&untraced, |r| r.cold_s) + col(&untraced, |r| r.disk_warm_s);
        out.layer("trace.overhead_pct", (on / off - 1.0) * 100.0, rounds.len());
        let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
        let counts = |f: fn(&Round) -> u64| all.iter().map(|r| f(r)).collect::<Vec<_>>();
        out.exact("cache.cold_compiles", &counts(|r| r.cold_compiles));
        out.exact("cache.disk_writes", &counts(|r| r.disk_writes));
        out.exact("cache.disk_hits", &counts(|r| r.disk_hits));
        out.exact("persist.entry_bytes", &counts(|r| r.entry_bytes));
        out.exact("persist.rejects", &counts(|r| r.rejects));
        out.layer(
            "cache.mem_hit_us",
            col(rounds, |r| r.mem_hit_s) * 1e6 / kernels,
            rounds.len(),
        );
        stages(cx, &mut out, &roster, &golden);
        probes::bypass_share(
            cx,
            &mut out,
            &["sim.", "vm.step", "vm.run"],
            timed_from,
            timed_to,
        );
        out.layer("trace.spans", cx.tr.spans().len() as f64, 1);
    }
    out
}

/// Sums of one stage over the roster, one entry per repetition.
#[derive(Debug, Default)]
struct StageSums {
    secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl StageSums {
    fn add_secs(&mut self, name: &'static str, secs: f64) {
        *self.secs.entry(name).or_insert(0.0) += secs;
    }
    fn add_count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// The exact counts of one compiled kernel, read off its artifacts —
    /// the same reading for the staged compile and for the entry the
    /// opaque path produced, so the two can be held against each other.
    fn add_counts_of(
        &mut self,
        module: &limpet_ir::Module,
        report: &limpet_passes::RunReport,
        raw: &limpet_vm::Program,
        optimized: &limpet_vm::Program,
        lut_bytes: usize,
    ) {
        self.add_count("codegen.lut_tables", module.luts.len() as u64);
        let columns: usize = module.luts.iter().map(|l| l.cols.len()).sum();
        self.add_count("codegen.lut_columns", columns as u64);
        self.add_count("ir.ops_final", module.op_count() as u64);
        self.add_count("vm.static_instrs_raw", raw.instrs.len() as u64);
        self.add_count("vm.static_instrs_opt", optimized.instrs.len() as u64);
        self.add_count("vm.lut_bytes", lut_bytes as u64);
        for run in &report.passes {
            if let Some((_, _, applied)) = PASSES.iter().find(|(p, _, _)| *p == run.name) {
                let n = run
                    .counters
                    .iter()
                    .filter(|(k, _)| *k != "iterations")
                    .map(|(_, v)| v)
                    .sum();
                self.add_count(applied, n);
            }
        }
    }
}

const PASSES: [(&str, &str, &str); 9] = [
    (
        "const-prop",
        "passes.const-prop.ms",
        "passes.const-prop.applied",
    ),
    (
        "canonicalize",
        "passes.canonicalize.ms",
        "passes.canonicalize.applied",
    ),
    ("cse", "passes.cse.ms", "passes.cse.applied"),
    ("licm", "passes.licm.ms", "passes.licm.applied"),
    ("dce", "passes.dce.ms", "passes.dce.applied"),
    (
        "vectorize",
        "passes.vectorize.ms",
        "passes.vectorize.applied",
    ),
    ("fixpoint", "passes.fixpoint.ms", "passes.fixpoint.applied"),
    (
        "fma-contract",
        "passes.fma-contract.ms",
        "passes.fma-contract.applied",
    ),
    (
        "scalar-lut-mode",
        "passes.scalar-lut-mode.ms",
        "passes.scalar-lut-mode.applied",
    ),
];

/// The pipeline text and layout attribute the harness's
/// `PipelineKind::try_build_with_report` applies for the two benchmarked
/// configurations (`codegen::pipeline::{try_baseline,try_limpet_mlir}_with_report`).
fn pipeline_of(config: PipelineKind) -> (String, &'static str, pipeline::Layout) {
    match config {
        PipelineKind::Baseline => (
            "scalar-lut-mode".to_owned(),
            "baseline",
            pipeline::Layout::Aos,
        ),
        PipelineKind::LimpetMlir(isa) => (
            pipeline::standard_text(isa.lanes()),
            "limpetMLIR",
            pipeline::Layout::AoSoA { block: isa.lanes() },
        ),
        other => unreachable!("{} is not benchmarked", other.label()),
    }
}

/// One kernel compiled stage by stage through the public functions the
/// opaque path is made of. Returns the assembled kernel, its layout, and
/// the seconds of the stages `get_or_compile` contains (everything after
/// parse + sema).
fn staged_compile(
    cx: &mut Ctx,
    sums: &mut StageSums,
    r: &RosterModel,
    config: PipelineKind,
) -> (Kernel, limpet_vm::StateLayout, f64) {
    let op = cx
        .tr
        .op(&format!("{}×{} staged", r.entry.name, config.label()));
    let whole = cx.tr.enter("bench.staged_compile", op);
    // Raw stage seconds of this kernel; paced as one block at the end.
    let mut local: Vec<(&'static str, f64)> = Vec::new();
    let name = r.entry.name;
    let (ast, s) = cx.tr.time("easyml.parse", op, || {
        limpet_easyml::parse_model(name, &r.source).expect("roster source parses")
    });
    local.push(("easyml.parse_ms", s));
    let (model, s) = cx.tr.time("easyml.sema", op, || {
        limpet_easyml::analyze(&ast).expect("roster model checks")
    });
    local.push(("easyml.sema_ms", s));

    let mut inside = 0.0;
    let (mut lowered, s) = cx.tr.time("codegen.lower", op, || {
        lower_model(&model, &CodegenOptions { use_lut: true })
    });
    local.push(("codegen.lower_ms", s));
    inside += s;
    let ops_lowered = lowered.module.op_count() as u64;
    let (text, pipeline_name, layout) = pipeline_of(config);
    let (report, s) = cx.tr.time("passes.run", op, || {
        pipeline::try_apply_pipeline(&mut lowered.module, &text).expect("pipeline verifies")
    });
    inside += s;
    lowered.module.attrs.set("layout", layout.attr_value());
    lowered.module.attrs.set("pipeline", pipeline_name);
    let module = lowered.module;
    local.push(("passes.total_ms", report.total_time().as_secs_f64()));
    for run in &report.passes {
        if let Some((_, ms, _)) = PASSES.iter().find(|(p, _, _)| *p == run.name) {
            local.push((ms, run.duration.as_secs_f64()));
        }
    }

    let info = model_info(&model);
    let params: Vec<String> = info.params.iter().map(|(n, _)| n.clone()).collect();
    let (raw, s) = cx.tr.time("vm.bytecode_compile", op, || {
        limpet_vm::compile_program(&module, &info.state_names, &info.ext_names, &params)
            .expect("module compiles to bytecode")
    });
    local.push(("vm.bytecode_compile_ms", s));
    inside += s;
    let (optimized, s) = cx.tr.time("vm.bytecode_opt", op, || {
        let mut p = raw.clone();
        limpet_vm::optimize_program(&mut p);
        p
    });
    local.push(("vm.bytecode_opt_ms", s));
    inside += s;
    let (luts, s) = cx.tr.time("vm.lut_build", op, || {
        let mut ctx = ParamOnlyContext {
            params: info.params.iter().cloned().collect(),
        };
        module
            .luts
            .iter()
            .map(|spec| {
                LutData::build(
                    spec.lo,
                    spec.hi,
                    spec.step,
                    spec.cols.len().max(1),
                    |key, row| {
                        let vals = eval_func(&module, &spec.func, &[Val::F(key)], &mut ctx)
                            .expect("LUT function evaluates");
                        for (o, v) in row.iter_mut().zip(vals) {
                            *o = v.f();
                        }
                    },
                )
            })
            .collect::<Vec<_>>()
    });
    local.push(("vm.lut_build_ms", s));
    inside += s;

    sums.add_count("easyml.src_bytes", r.source.len() as u64);
    sums.add_count("ir.ops_lowered", ops_lowered);
    sums.add_counts_of(
        &module,
        &report,
        &raw,
        &optimized,
        luts.iter().map(LutData::bytes).sum(),
    );

    // Not on the compile path, measured for the IR layer's own sake.
    let ((), s) = cx.tr.time("ir.verify", op, || {
        limpet_ir::verify_module(&module).expect("final module verifies")
    });
    local.push(("ir.verify_ms", s));
    let (_, s) = cx.tr.time("ir.print_parse", op, || {
        limpet_ir::parse_module(&limpet_ir::print_module(&module)).expect("printed module parses")
    });
    local.push(("ir.print_parse_ms", s));

    let width = module.attrs.i64_of("vector_width").unwrap_or(1) as usize;
    let kernel = Kernel::from_parts(name, optimized, width, &info, luts).expect("parts assemble");
    let wall = cx.tr.exit(whole);
    let to_reference = cx.pace.scale(wall) / wall;
    for (stage, secs) in local {
        sums.add_secs(stage, secs * to_reference);
    }
    (
        kernel,
        limpet_harness::storage_layout(&module),
        inside * to_reference,
    )
}

/// The traced run's compile decomposition: every kernel once through the
/// opaque `KernelCache::get_or_compile` and once stage by stage. The two
/// must agree in time (within 10%), in every exact count, and in what
/// the kernels compute; then the persistence and serialization layers
/// are timed on the opaque entries.
fn stages(cx: &mut Ctx, out: &mut Outcome, roster: &[RosterModel], golden: &Golden) {
    let dir = cx.scratch.subdir("persist");
    let disk = DiskCache::open(&dir).expect("open disk cache in scratch");
    let opaque_cache = KernelCache::new();
    let (mut staged, mut opaque) = (StageSums::default(), StageSums::default());
    let (mut opaque_s, mut staged_s) = (0.0, 0.0);
    let mut persist = StageSums::default();
    for r in roster {
        for config in CONFIGS {
            let op = cx
                .tr
                .op(&format!("{}×{} opaque", r.entry.name, config.label()));
            let (entry, s) = cx.timed("cache.get_or_compile", op, || {
                opaque_cache.get_or_compile(&r.model, config)
            });
            opaque_s += s;
            opaque.add_count(
                "easyml.src_bytes",
                limpet_models::source(r.entry.name).len() as u64,
            );
            let relowered = lower_model(&r.model, &CodegenOptions { use_lut: true });
            opaque.add_count("ir.ops_lowered", relowered.module.op_count() as u64);
            opaque.add_counts_of(
                entry.module(),
                entry.pass_report(),
                entry.raw_kernel().program(),
                entry.kernel().program(),
                entry.kernel().lut_bytes(),
            );
            let (kernel, layout, inside) = staged_compile(cx, &mut staged, r, config);
            staged_s += inside;
            let sim = Simulation::with_kernel(kernel, layout, &cells(golden::CELLS));
            golden_check(out, golden, r.entry.name, config, "staged compile", sim);

            let key = EntryKey::new(&r.model, config, limpet_vm::bytecode_opt_enabled());
            let (stored, s) = cx.timed("persist.store", op, || {
                disk.store(&key, r.entry.name, &entry)
            });
            out.attempt(
                stored
                    .err()
                    .map(|e| format!("{}: store failed: {e}", r.entry.name)),
            );
            persist.add_secs("persist.store_ms", s);
            let (loaded, s) = cx.timed("persist.load", op, || disk.load(&key, &r.model));
            persist.add_secs("persist.load_ms", s);
            out.attempt((!matches!(loaded, DiskLoad::Hit(_))).then(|| {
                format!(
                    "{} {}: stored entry did not load",
                    r.entry.name,
                    config.label()
                )
            }));
            let kernel = entry.kernel();
            let ((program, luts), s) = cx.timed("vm.serialize", op, || {
                (
                    limpet_vm::serialize_program(kernel.program()),
                    limpet_vm::serialize_luts(kernel.luts()),
                )
            });
            persist.add_secs("vm.serialize_ms", s);
            let (round_trip, s) = cx.timed("vm.deserialize", op, || {
                limpet_vm::deserialize_program(&program).is_ok()
                    && limpet_vm::deserialize_luts(&luts).is_ok()
            });
            persist.add_secs("vm.deserialize_ms", s);
            out.attempt(
                (!round_trip).then(|| format!("{}: kernel text does not parse back", r.entry.name)),
            );
        }
    }

    let unattributed = 1.0 - staged_s / opaque_s;
    out.layer(
        "compile.unattributed_share",
        unattributed,
        roster.len() * CONFIGS.len(),
    );
    out.attempt((unattributed.abs() > 0.10).then(|| {
        format!(
            "reconciliation: compile stages sum to {staged_s:.4}s, KernelCache::get_or_compile \
             takes {opaque_s:.4}s ({:.1}% apart, limit 10%)",
            unattributed * 100.0
        )
    }));
    for def in crate::report::PER_LAYER.iter() {
        if let (Some(a), Some(b)) = (staged.counts.get(def.name), opaque.counts.get(def.name)) {
            out.exact(def.name, &[*a, *b]);
        } else if let Some(s) = staged.secs.get(def.name).or(persist.secs.get(def.name)) {
            out.layer(def.name, s * 1e3, roster.len() * CONFIGS.len());
        }
    }
}
