//! The compilation service: a shared, thread-safe cache of compiled
//! kernels, plus parallel roster precompilation.
//!
//! Every figure runner used to re-lower and re-tabulate the same
//! `(model, pipeline)` pair once per measurement repeat — for the full
//! `--all` run that is thousands of redundant compilations of 43 models.
//! [`KernelCache`] compiles each pair once and hands out [`Kernel`]
//! clones, which are a few refcount bumps since the kernel's program and
//! LUTs sit behind `Arc` (see `limpet_vm::Kernel`).
//!
//! Keys are `(model fingerprint, PipelineKind, bytecode-opt setting)`.
//! The fingerprint hashes the model's full checked structure (name,
//! states, parameters, statements), so two models that happen to share a
//! name but differ in content — e.g. synthetic specs with different
//! knobs — occupy distinct entries. Every public lookup runs the bytecode
//! optimizer; the setting is in the key because an entry compiled
//! without it (`KernelCache::lookup(.., false)`, what tests of the
//! unoptimized program use) holds a different program.
//!
//! The cache also owns the native tier's policy: with
//! [`KernelCache::set_native_promotion`] on, a simulation built through
//! it promotes its kernel to native code once, at construction
//! ([`crate::native`]).
//!
//! Every entry that enters the map, cold-compiled or loaded from the disk
//! tier, passes through one registry of what the resident entries of a
//! model share, keyed by model fingerprint: the checked model they were
//! compiled from, and the table sets they read — an entry whose tables
//! equal a held set bit for bit reads that set, any other registers its
//! own. The configurations of one model that tabulate the same tables
//! (paper §3.4.2's tables belong to the model) so hold one copy of them,
//! and of the model, with or without a disk tier
//! ([`CacheStats::table_sets`]).
//!
//! An entry holds one program, the one its lookups run. The unoptimized
//! sibling that opt-on/off measurements compare against is compiled only
//! when asked for ([`CompiledKernel::raw_kernel`]); it is no rung of the
//! degradation ladder, which at compile time is the requested pipeline,
//! then the reference one ([`KernelCache::get_or_compile_resilient`]).

use crate::checksum::{fnv1a_from, FNV_OFFSET};
use crate::error::CompileError;
use crate::faults::{self, FaultKind};
use crate::health::{Incident, IncidentKind, Tier};
use crate::sim::{model_info, PipelineKind};
use limpet_easyml::Model;
use limpet_vm::{Kernel, LutData, StateLayout};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One cached compilation: the executable kernel, the checked model and
/// configuration it was compiled from, and the pass manager's execution
/// report from the cold compile that produced it.
///
/// The IR module is a compile-time object: an entry keeps its model and
/// configuration instead, and builds the module through the deterministic
/// pipeline on the first [`CompiledKernel::try_module`],
/// [`CompiledKernel::module`] or [`CompiledKernel::raw_kernel`] call — cold
/// compile and disk load alike. A lookup that only runs the kernel never
/// holds a module. The unoptimized sibling kernel is compiled only when
/// asked for.
#[derive(Debug)]
pub struct CompiledKernel {
    model: Arc<Model>,
    config: PipelineKind,
    module: OnceLock<limpet_ir::Module>,
    kernel: Kernel,
    raw_kernel: OnceLock<Kernel>,
    pass_report: limpet_passes::RunReport,
}

impl CompiledKernel {
    /// Compiles `model` under `config` from scratch (no cache involved).
    ///
    /// # Panics
    ///
    /// Panics when the pipeline or bytecode compilation fails (roster
    /// models are tested not to). Fault-tolerant callers go through
    /// [`CompiledKernel::try_compile`] or the cache's resilient lookup.
    pub fn compile(model: &Model, config: PipelineKind) -> CompiledKernel {
        CompiledKernel::try_compile(model, config)
            .unwrap_or_else(|e| panic!("kernel compilation failed for {}: {e}", model.name))
    }

    /// Non-panicking [`CompiledKernel::compile`]: every stage failure —
    /// pipeline verification, bytecode emission — comes back as a
    /// structured [`CompileError`]. This is also where the
    /// [`FaultKind::VerifyFail`] injection point lives: an armed plan
    /// corrupts the lowered module so verification genuinely fails.
    pub fn try_compile(
        model: &Model,
        config: PipelineKind,
    ) -> Result<CompiledKernel, CompileError> {
        CompiledKernel::try_compile_opt(&Arc::new(model.clone()), config, true)
    }

    /// [`CompiledKernel::try_compile`] with the bytecode optimizer's
    /// setting passed in, so a cache lookup compiles under the same value
    /// it keyed the entry with. The module is dropped once the kernel and
    /// its tables exist.
    fn try_compile_opt(
        model: &Arc<Model>,
        config: PipelineKind,
        opt: bool,
    ) -> Result<CompiledKernel, CompileError> {
        let (mut module, mut pass_report) = config.try_build_with_report(model)?;
        if let Some(seed) = faults::take(FaultKind::VerifyFail) {
            faults::corrupt_module(&mut module, seed);
            if let Err(error) = limpet_ir::verify_module(&module) {
                return Err(CompileError::Pipeline(
                    limpet_pm::PipelineError::VerifyFailed {
                        pass: limpet_pm::PassManager::INPUT.to_string(),
                        error,
                    },
                ));
            }
        }
        let info = model_info(model);
        let started = std::time::Instant::now();
        let (kernel, opt_stats, tabulating) = Kernel::from_module_opt(&module, &info, opt)?;
        // Surface the bytecode compiler and optimizer, and the lookup-table
        // tabulation, as two more (synthetic) passes, so
        // `Compiled::pass_report()` shows their time and counters next to
        // the IR passes. The optimizer's row appears even when it is
        // disabled, with zero counters, so ablation reports are visibly
        // "optimizer off" rather than silent.
        pass_report.passes.push(limpet_pm::PassRun {
            name: "bytecode-opt",
            changed: opt && opt_stats.changed(),
            duration: started.elapsed().saturating_sub(tabulating),
            counters: if opt {
                opt_stats.counters()
            } else {
                Vec::new()
            },
        });
        let luts = kernel.luts();
        pass_report.passes.push(limpet_pm::PassRun {
            name: "lut-tabulate",
            changed: false,
            duration: tabulating,
            counters: vec![
                ("tables", luts.len() as u64),
                ("rows", luts.iter().map(|t| t.rows() as u64).sum()),
            ],
        });
        Ok(CompiledKernel::from_parts(
            model,
            config,
            kernel,
            opt,
            pass_report,
        ))
    }

    /// The lowered IR module, built from the entry's model and
    /// configuration on the first call and kept.
    ///
    /// # Errors
    ///
    /// Returns the [`limpet_pm::PipelineError`] of a pipeline that fails
    /// verification — which the pipeline that compiled the kernel did not,
    /// and it is deterministic. A failed build is not kept.
    pub fn try_module(&self) -> Result<&limpet_ir::Module, limpet_pm::PipelineError> {
        if let Some(module) = self.module.get() {
            return Ok(module);
        }
        let (module, _) = self.config.try_build_with_report(&self.model)?;
        Ok(self.module.get_or_init(|| module))
    }

    /// The lowered IR module ([`CompiledKernel::try_module`]).
    ///
    /// # Panics
    ///
    /// Panics, naming the model, when its pipeline fails verification.
    pub fn module(&self) -> &limpet_ir::Module {
        self.try_module().unwrap_or_else(|e| {
            panic!(
                "{} pipeline failed for {}: {e}",
                self.config.label(),
                self.model.name
            )
        })
    }

    /// Whether the module has been built ([`CompiledKernel::try_module`]).
    pub fn module_built(&self) -> bool {
        self.module.get().is_some()
    }

    /// The model the entry was compiled from, shared with every entry of
    /// it in the cache that holds this one.
    pub(crate) fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// The executable kernel (clone it to run — clones share the
    /// compilation).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The unoptimized sibling of [`CompiledKernel::kernel`]: the same
    /// module compiled with the bytecode optimizer off, sharing its LUTs —
    /// what the opt-on/off comparisons measure. Compiled on the first call
    /// (an entry built with the optimizer off answers its own kernel),
    /// which builds the module.
    ///
    /// # Panics
    ///
    /// Panics, naming the model, when the module does not build or compile
    /// again (it already compiled once into [`CompiledKernel::kernel`]).
    pub fn raw_kernel(&self) -> &Kernel {
        self.raw_kernel.get_or_init(|| {
            let info = self.kernel.info();
            let params: Vec<String> = info.params.iter().map(|(n, _)| n.clone()).collect();
            limpet_vm::compile_program(self.module(), &info.state_names, &info.ext_names, &params)
                .and_then(|program| self.kernel.with_program(program))
                .unwrap_or_else(|e| panic!("raw recompile of {} failed: {e}", self.kernel.name()))
        })
    }

    /// Makes the entry's kernels — its raw sibling included — read `luts`,
    /// the set another resident entry of the model reads, where those are
    /// equal bit for bit to their own ([`Kernel::share_luts`]), so the
    /// configurations of one model hold one copy.
    pub(crate) fn share_luts(&mut self, luts: &Arc<[LutData]>) {
        self.kernel.share_luts(luts);
        if let Some(raw) = self.raw_kernel.get_mut() {
            raw.share_luts(luts);
        }
    }

    /// The state storage layout the configuration mandates
    /// ([`PipelineKind::layout`]).
    pub fn layout(&self) -> StateLayout {
        self.config.layout()
    }

    /// The pass manager's execution report from the cold compile: one
    /// [`limpet_passes::PassRun`] per pipeline pass, with wall time and
    /// counters. Cache hits share the entry, so this is always the
    /// timing of the compile that actually ran — except for entries
    /// reloaded from the disk tier, whose report is a single synthetic
    /// `"disk-load"` pass (see [`crate::persist`]). Building the module
    /// later leaves it as it is.
    pub fn pass_report(&self) -> &limpet_passes::RunReport {
        &self.pass_report
    }

    /// Assembles an entry of `model` under `config` from a cold compile or
    /// from parts reconstructed off disk ([`crate::persist::DiskCache::load`]);
    /// `opt` says whether `kernel` runs the optimized program. Crate-private:
    /// the only legitimate producers of parts are the compiler and the
    /// persistence layer's checked decode path.
    pub(crate) fn from_parts(
        model: &Arc<Model>,
        config: PipelineKind,
        kernel: Kernel,
        opt: bool,
        pass_report: limpet_passes::RunReport,
    ) -> CompiledKernel {
        let raw_kernel = if opt {
            OnceLock::new()
        } else {
            OnceLock::from(kernel.clone())
        };
        CompiledKernel {
            model: Arc::clone(model),
            config,
            module: OnceLock::new(),
            kernel,
            raw_kernel,
            pass_report,
        }
    }
}

/// FNV-1a accumulator that consumes formatted text directly, so hashing
/// a model's debug representation allocates nothing.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a_from(self.0, s.as_bytes());
        Ok(())
    }
}

/// A content fingerprint of a checked model: stable within a process and
/// across identical sources, sensitive to any structural change (the
/// debug representation covers the name, every state/external/parameter,
/// and the full statement bodies).
pub fn model_fingerprint(model: &Model) -> u64 {
    use std::fmt::Write;
    let mut w = FnvWriter(FNV_OFFSET);
    write!(w, "{model:?}").expect("fmt to hasher cannot fail");
    w.0
}

/// Cache hit/miss counters (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-memory map.
    pub hits: u64,
    /// Lookups that compiled a new entry from scratch (cold compiles —
    /// disk hits are counted separately, not here).
    pub misses: u64,
    /// Lookups that missed in memory but reloaded a verified entry from
    /// the disk tier (no compilation ran).
    pub disk_hits: u64,
    /// Disk entries found but rejected by an integrity check (each one
    /// degraded to a cold compile and an incident).
    pub disk_rejects: u64,
    /// Entries persisted to the disk tier.
    pub disk_writes: u64,
    /// Entries currently resident (successful compilations only).
    pub entries: usize,
    /// Quarantined entries currently resident (models whose compilation
    /// failed; negative results so a broken model fails once, not per
    /// lookup).
    pub quarantined: usize,
    /// Times the map lock was found poisoned and recovered.
    pub poison_recoveries: u64,
    /// Full-population steps executed through the resident entries'
    /// kernels, summed.
    pub executed_steps: u64,
    /// Native kernels compiled and validated by this process.
    pub native_compiles: u64,
    /// Native kernels reloaded from the persisted `.so` container (no
    /// compiler ran).
    pub native_disk_hits: u64,
    /// Native slots currently ready to run.
    pub native_ready: usize,
    /// Native slots quarantined (compile, load, or probation failure).
    pub native_quarantined: usize,
    /// Native compiler invocations killed by the compile watchdog.
    pub native_cc_timeouts: u64,
    /// Backoff retries spent waiting for the disk tier's directory lock
    /// (zero when no disk tier is attached).
    pub disk_lock_retries: u64,
    /// Stale (crashed-writer) disk lock files broken.
    pub disk_stale_locks_broken: u64,
    /// Distinct allocations of lookup tables the resident entries read
    /// (one per model and table grid when they share).
    pub table_sets: usize,
    /// Bytes of those allocations.
    pub table_bytes: u64,
}

impl CacheStats {
    /// The counters as one compact JSON object — the machine-readable
    /// twin of the `figures --cache stat` pretty-printer, served verbatim
    /// by `limpet-serve`'s `stats` verb so nothing downstream has to
    /// parse human-formatted text.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"hits\":{},\"misses\":{},\"disk_hits\":{},",
                "\"disk_rejects\":{},\"disk_writes\":{},\"entries\":{},",
                "\"quarantined\":{},\"poison_recoveries\":{},",
                "\"executed_steps\":{},\"native_compiles\":{},",
                "\"native_disk_hits\":{},\"native_ready\":{},",
                "\"native_quarantined\":{},\"native_cc_timeouts\":{},",
                "\"disk_lock_retries\":{},",
                "\"disk_stale_locks_broken\":{},",
                "\"table_sets\":{},\"table_bytes\":{}}}"
            ),
            self.hits,
            self.misses,
            self.disk_hits,
            self.disk_rejects,
            self.disk_writes,
            self.entries,
            self.quarantined,
            self.poison_recoveries,
            self.executed_steps,
            self.native_compiles,
            self.native_disk_hits,
            self.native_ready,
            self.native_quarantined,
            self.native_cc_timeouts,
            self.disk_lock_retries,
            self.disk_stale_locks_broken,
            self.table_sets,
            self.table_bytes,
        )
    }
}

/// A negative cache entry: the model failed to compile under this
/// configuration, and the failure is remembered so every later lookup
/// fails fast instead of re-running a doomed compilation (or re-tripping
/// a panic).
#[derive(Debug)]
pub struct QuarantineEntry {
    /// The model that failed.
    pub model: String,
    /// The configuration it failed under.
    pub config: PipelineKind,
    /// Why it failed.
    pub error: CompileError,
}

/// What the resident entries of one model share.
#[derive(Debug, Default)]
struct Held {
    /// The checked model they were compiled from.
    model: Weak<Model>,
    /// The table sets they read.
    tables: Vec<Weak<[LutData]>>,
}

#[derive(Debug, Clone)]
enum CacheSlot {
    Ready(Arc<CompiledKernel>),
    Quarantined(Arc<QuarantineEntry>),
}

/// A kernel obtained through the degradation-aware lookup
/// ([`KernelCache::get_or_compile_resilient`]): the compiled entry plus
/// which tier of the optimized → reference ladder it landed on and every
/// incident recorded getting there.
#[derive(Debug)]
pub struct ResilientKernel {
    /// The compiled entry serving this kernel.
    pub entry: Arc<CompiledKernel>,
    /// The tier the lookup landed on.
    pub tier: Tier,
    /// The pipeline actually compiled — the requested one, or
    /// [`PipelineKind::Baseline`] after a reference-tier fallback.
    pub config: PipelineKind,
    /// Incidents recorded during this lookup (fallbacks, quarantines).
    pub incidents: Vec<Incident>,
}

/// A thread-safe map from `(model fingerprint, PipelineKind,
/// bytecode-opt setting)` to compiled kernels.
///
/// Compilation happens outside the map lock, so concurrent misses on
/// *different* keys compile in parallel; concurrent misses on the *same*
/// key race benignly (first insert wins, the loser's work is dropped).
///
/// The cache is also the containment boundary of the fault-tolerant
/// chain: compilation panics are caught and converted into quarantine
/// entries, a poisoned map lock is recovered rather than propagated, and
/// both events land in [`KernelCache::incidents`].
#[derive(Debug, Default)]
pub struct KernelCache {
    map: Mutex<HashMap<(u64, PipelineKind, bool), CacheSlot>>,
    /// Per model fingerprint, what the resident entries of the model share
    /// ([`KernelCache::held_model`], [`KernelCache::share_tables`]); locked
    /// on its own, never under the map lock.
    held: Mutex<HashMap<u64, Held>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_rejects: AtomicU64,
    disk_writes: AtomicU64,
    poison_recoveries: AtomicU64,
    incidents: Mutex<Vec<Incident>>,
    /// The durable tier, when attached ([`KernelCache::set_disk_cache`]):
    /// consulted between a memory miss and a cold compile, written after
    /// every successful compile.
    disk: Mutex<Option<Arc<crate::persist::DiskCache>>>,
    /// When set, every lookup compiles fresh and nothing is stored
    /// (`figures --no-cache`, A/B validation).
    bypass: std::sync::atomic::AtomicBool,
    /// The native-tier slot registry: C compilations keyed by
    /// emitted-source fingerprint (see [`crate::native`]).
    native: crate::native::NativeRegistry,
    /// Whether simulations built through this cache promote their kernel
    /// to the native tier at construction (off by default).
    native_promotion: std::sync::atomic::AtomicBool,
}

impl KernelCache {
    /// An empty cache.
    pub fn new() -> KernelCache {
        KernelCache::default()
    }

    /// The process-wide shared cache (what [`crate::Simulation::new`]
    /// uses).
    pub fn global() -> &'static KernelCache {
        static GLOBAL: OnceLock<KernelCache> = OnceLock::new();
        GLOBAL.get_or_init(KernelCache::new)
    }

    /// Turns caching off (every lookup compiles fresh, nothing is
    /// stored) or back on. Off is the `figures --no-cache` mode, kept
    /// for A/B-validating that cached and cold runs agree.
    pub fn set_enabled(&self, enabled: bool) {
        self.bypass.store(!enabled, Ordering::Relaxed);
    }

    /// Attaches (or with `None` detaches) the durable disk tier. Once
    /// attached, memory misses consult the disk before compiling and
    /// successful compiles are persisted for later processes.
    pub fn set_disk_cache(&self, disk: Option<Arc<crate::persist::DiskCache>>) {
        *self.disk.lock().unwrap_or_else(|p| p.into_inner()) = disk;
    }

    /// The attached disk tier, if any.
    pub fn disk_cache(&self) -> Option<Arc<crate::persist::DiskCache>> {
        self.disk.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// The native-tier slot registry owned by this cache. Simulations
    /// route promotions here so compilations are shared across runs and
    /// their counters/incidents surface in [`KernelCache::stats`] /
    /// [`KernelCache::incidents`].
    pub fn native_registry(&self) -> &crate::native::NativeRegistry {
        &self.native
    }

    /// Turns native promotion on or off for simulations built through
    /// this cache ([`crate::Simulation::new`] and
    /// [`crate::Simulation::new_resilient`] promote an eligible kernel once,
    /// at construction). Off by default: promotion costs a compiler
    /// subprocess, which short-lived tool invocations should opt into.
    pub fn set_native_promotion(&self, enabled: bool) {
        self.native_promotion.store(enabled, Ordering::Relaxed);
    }

    /// Whether simulations built through this cache promote to native.
    pub fn native_promotion(&self) -> bool {
        self.native_promotion.load(Ordering::Relaxed)
    }

    /// Locks the entry map, recovering (and recording) a poisoned lock.
    ///
    /// A panic while compiling used to poison this mutex and take every
    /// later lookup down with it — one broken model ending a whole roster
    /// run. The map holds only completed inserts (compilation happens
    /// outside the lock), so the data is consistent and recovery is safe.
    fn map_lock(&self) -> MutexGuard<'_, HashMap<(u64, PipelineKind, bool), CacheSlot>> {
        match self.map.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                self.map.clear_poison();
                self.log(Incident::new(
                    IncidentKind::CachePoisonRecovered,
                    "<cache>",
                    "kernel-cache mutex was poisoned by a panicking thread; recovered",
                ));
                poisoned.into_inner()
            }
        }
    }

    pub(crate) fn log(&self, incident: Incident) {
        self.incidents
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(incident);
    }

    /// Every incident the cache has recorded — quarantines, poison
    /// recoveries, and the native registry's build outcomes — in order
    /// (native incidents appended). The runtime counterpart lives on
    /// [`crate::Simulation::incidents`].
    pub fn incidents(&self) -> Vec<Incident> {
        let mut all = self
            .incidents
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        all.extend(self.native.incidents());
        all
    }

    /// Deliberately poisons the map lock (a thread panics while holding
    /// it) — the [`FaultKind::CachePoison`] injection point.
    fn poison(&self) {
        let guard = self.map_lock();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = guard;
            panic!("injected kernel-cache poisoning");
        }));
    }

    /// Returns the cached compilation for `(model, config)`, compiling it
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics when the model fails to compile — including when it is
    /// already quarantined from an earlier failed attempt (negative
    /// results are cached too). Roster callers that must survive broken
    /// models use [`KernelCache::try_get_or_compile`] or
    /// [`KernelCache::get_or_compile_resilient`].
    pub fn get_or_compile(&self, model: &Model, config: PipelineKind) -> Arc<CompiledKernel> {
        match self.try_get_or_compile(model, config) {
            Ok(entry) => entry,
            Err(q) => panic!(
                "model '{}' failed to compile under {}: {}",
                q.model,
                q.config.label(),
                q.error
            ),
        }
    }

    /// Returns the cached compilation for `(model, config)`, compiling it
    /// on first use; failures come back as a shared [`QuarantineEntry`].
    ///
    /// Failure is sticky: the first failed compilation of a key inserts a
    /// quarantine entry, and every later lookup of that key returns it
    /// without compiling again. Panics during compilation are caught and
    /// quarantined as [`CompileError::Panicked`], so one broken model
    /// neither aborts nor poisons a shared cache.
    ///
    /// # Errors
    ///
    /// Returns the quarantine entry recording why compilation failed.
    pub fn try_get_or_compile(
        &self,
        model: &Model,
        config: PipelineKind,
    ) -> Result<Arc<CompiledKernel>, Arc<QuarantineEntry>> {
        self.lookup(model, config, true)
    }

    /// [`KernelCache::try_get_or_compile`] for an explicit bytecode-opt
    /// setting: `opt` is part of the key and is what a miss compiles with.
    fn lookup(
        &self,
        model: &Model,
        config: PipelineKind,
        opt: bool,
    ) -> Result<Arc<CompiledKernel>, Arc<QuarantineEntry>> {
        let bypass = self.bypass.load(Ordering::Relaxed);
        let key = (model_fingerprint(model), config, opt);
        let shared = if bypass {
            Arc::new(model.clone())
        } else {
            if let Some(slot) = self.map_lock().get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return match slot {
                    CacheSlot::Ready(entry) => Ok(Arc::clone(entry)),
                    CacheSlot::Quarantined(q) => Err(Arc::clone(q)),
                };
            }
            let shared = self.held_model(key.0, model);
            // Memory miss: consult the durable tier before compiling.
            // Quarantines are never persisted, so disk can only hand back
            // verified successful compilations; any integrity failure
            // degrades to the cold compile below with an incident.
            if let Some(disk) = self.disk_cache() {
                let disk_key = crate::persist::EntryKey {
                    fingerprint: key.0,
                    config: key.1,
                    opt: key.2,
                };
                match disk.load_shared(&disk_key, &shared) {
                    crate::persist::DiskLoad::Hit(mut entry) => {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        self.share_tables(key.0, &mut entry);
                        let slot = CacheSlot::Ready(Arc::new(*entry));
                        return match self.map_lock().entry(key).or_insert(slot) {
                            CacheSlot::Ready(entry) => Ok(Arc::clone(entry)),
                            CacheSlot::Quarantined(q) => Err(Arc::clone(q)),
                        };
                    }
                    crate::persist::DiskLoad::Miss => {}
                    crate::persist::DiskLoad::Rejected(reason) => {
                        self.disk_rejects.fetch_add(1, Ordering::Relaxed);
                        self.log(Incident::new(
                            IncidentKind::DiskCacheRejected,
                            &model.name,
                            format!("disk cache entry rejected ({reason}); recompiling"),
                        ));
                    }
                }
            }
            shared
        };
        // Miss: compile without holding the lock, containing panics.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CompiledKernel::try_compile_opt(&shared, config, opt)
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(CompileError::Panicked(msg))
        });
        let slot = match built {
            Ok(mut entry) => {
                if !bypass {
                    self.share_tables(key.0, &mut entry);
                    self.persist_entry(&key, model, &entry);
                }
                CacheSlot::Ready(Arc::new(entry))
            }
            Err(error) => {
                let q = Arc::new(QuarantineEntry {
                    model: model.name.clone(),
                    config,
                    error,
                });
                self.log(Incident::new(
                    IncidentKind::Quarantined,
                    &model.name,
                    q.error.to_string(),
                ));
                CacheSlot::Quarantined(q)
            }
        };
        if bypass {
            match slot {
                CacheSlot::Ready(entry) => return Ok(entry),
                CacheSlot::Quarantined(q) => return Err(q),
            }
        }
        match self.map_lock().entry(key).or_insert(slot) {
            CacheSlot::Ready(entry) => Ok(Arc::clone(entry)),
            CacheSlot::Quarantined(q) => Err(Arc::clone(q)),
        }
    }

    /// The checked `model` (of fingerprint `fingerprint`) as the resident
    /// entries of the model hold it, or a copy of it that the next entries
    /// will share: a cache holds one per model, not one per configuration.
    fn held_model(&self, fingerprint: u64, model: &Model) -> Arc<Model> {
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        let slot = &mut held.entry(fingerprint).or_default().model;
        slot.upgrade().unwrap_or_else(|| {
            let model = Arc::new(model.clone());
            *slot = Arc::downgrade(&model);
            model
        })
    }

    /// Makes `entry`, about to enter the map, read a table set of the
    /// model `fingerprint` that a resident entry reads, when one equals its
    /// own bit for bit; otherwise registers its own set. Runs under the
    /// registry's lock, so two threads that finish two configurations of
    /// one model at the same moment still end on one allocation.
    fn share_tables(&self, fingerprint: u64, entry: &mut CompiledKernel) {
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        let sets = &mut held.entry(fingerprint).or_default().tables;
        sets.retain(|set| set.strong_count() > 0);
        let own = entry.kernel().shared_luts();
        match sets
            .iter()
            .filter_map(Weak::upgrade)
            .find(|set| limpet_vm::same_luts(set, own))
        {
            Some(held) => entry.share_luts(&held),
            None => sets.push(Arc::downgrade(own)),
        }
    }

    /// Writes a freshly compiled entry to the disk tier, if one is
    /// attached. Only successful compilations reach this — quarantined
    /// failures stay process-local (a negative result must be retried, not
    /// replayed, by the next process). Store failures degrade to an
    /// incident: persistence is an optimization, never a correctness
    /// dependency.
    fn persist_entry(
        &self,
        key: &(u64, PipelineKind, bool),
        model: &Model,
        entry: &CompiledKernel,
    ) {
        let Some(disk) = self.disk_cache() else {
            return;
        };
        let disk_key = crate::persist::EntryKey {
            fingerprint: key.0,
            config: key.1,
            opt: key.2,
        };
        match disk.store(&disk_key, &model.name, entry) {
            Ok(()) => {
                self.disk_writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => self.log(Incident::new(
                IncidentKind::DiskCacheDegraded,
                &model.name,
                format!("could not persist kernel ({e}); continuing in-memory only"),
            )),
        }
    }

    /// The degradation-aware lookup: tries the requested configuration
    /// first, and on compile failure falls back to the scalar reference
    /// pipeline ([`PipelineKind::Baseline`]), recording every step as an
    /// [`Incident`]. An armed [`FaultKind::CachePoison`] plan poisons the
    /// map lock first so the recovery path runs.
    ///
    /// # Errors
    ///
    /// Returns the quarantine entry of the *last* tier tried when even
    /// the reference pipeline fails to compile.
    pub fn get_or_compile_resilient(
        &self,
        model: &Model,
        config: PipelineKind,
    ) -> Result<ResilientKernel, Arc<QuarantineEntry>> {
        if faults::take(FaultKind::CachePoison).is_some() {
            self.poison();
        }
        let mut incidents = Vec::new();
        let (entry, tier, config) = match self.try_get_or_compile(model, config) {
            Ok(entry) => (entry, Tier::Optimized, config),
            Err(q) => {
                let detail = if config == PipelineKind::Baseline {
                    format!(
                        "{} failed to compile ({}); no tier below the reference pipeline",
                        config.label(),
                        q.error
                    )
                } else {
                    format!(
                        "{} failed to compile ({}); falling back to reference pipeline",
                        config.label(),
                        q.error
                    )
                };
                let incident = Incident::new(IncidentKind::TierFallback, &model.name, detail)
                    .to_tier(Tier::Reference);
                self.log(incident.clone());
                incidents.push(incident);
                if config == PipelineKind::Baseline {
                    // The reference pipeline itself failed; nothing below.
                    return Err(q);
                }
                let entry = self.try_get_or_compile(model, PipelineKind::Baseline)?;
                (entry, Tier::Reference, PipelineKind::Baseline)
            }
        };
        Ok(ResilientKernel {
            entry,
            tier,
            config,
            incidents,
        })
    }

    /// Quarantined entries currently resident, in no particular order.
    pub fn quarantine(&self) -> Vec<Arc<QuarantineEntry>> {
        self.map_lock()
            .values()
            .filter_map(|slot| match slot {
                CacheSlot::Quarantined(q) => Some(Arc::clone(q)),
                CacheSlot::Ready(_) => None,
            })
            .collect()
    }

    /// Hit/miss/occupancy counters, the resident kernels' executed-step
    /// total and table sets, and the native registry's counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, quarantined, executed_steps, table_sets, table_bytes) = {
            let map = self.map_lock();
            let mut sets = HashSet::new();
            let (mut entries, mut executed_steps, mut table_bytes) = (0, 0, 0);
            for slot in map.values() {
                let CacheSlot::Ready(entry) = slot else {
                    continue;
                };
                let kernel = entry.kernel();
                entries += 1;
                executed_steps += kernel.executed_steps();
                if sets.insert(Arc::as_ptr(kernel.shared_luts()).cast::<LutData>()) {
                    table_bytes += kernel.lut_bytes() as u64;
                }
            }
            (
                entries,
                map.len() - entries,
                executed_steps,
                sets.len(),
                table_bytes,
            )
        };
        let native = self.native.stats();
        let disk = self.disk_cache().map(|d| d.stats()).unwrap_or_default();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_rejects: self.disk_rejects.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            entries,
            quarantined,
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
            executed_steps,
            native_compiles: native.compiles,
            native_disk_hits: native.disk_hits,
            native_ready: native.ready,
            native_quarantined: native.quarantined,
            native_cc_timeouts: native.cc_timeouts,
            disk_lock_retries: disk.lock_retries,
            disk_stale_locks_broken: disk.stale_locks_broken,
            table_sets,
            table_bytes,
        }
    }

    /// Drops every entry, including quarantined ones, and the registry of
    /// what they share (counters are preserved).
    pub fn clear(&self) {
        self.map_lock().clear();
        self.held.lock().unwrap_or_else(|p| p.into_inner()).clear();
        self.incidents
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }

    /// Compiles every `(model, config)` pair on `jobs` worker threads,
    /// populating the cache. Returns the number of pairs compiled (cache
    /// misses); pairs already resident are counted as skipped work and
    /// cost one lookup.
    ///
    /// Work is distributed dynamically (an atomic cursor over the cross
    /// product), so a thread that drew small models keeps pulling work
    /// while another chews through TenTusscher-class ones.
    pub fn precompile(&self, models: &[Model], configs: &[PipelineKind], jobs: usize) -> usize {
        let jobs = jobs.max(1);
        let pairs: Vec<(&Model, PipelineKind)> = models
            .iter()
            .flat_map(|m| configs.iter().map(move |&c| (m, c)))
            .collect();
        let before = self.stats().misses;
        let cursor = AtomicUsize::new(0);
        let plan = faults::Plan::current();
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(pairs.len().max(1)) {
                scope.spawn(|| {
                    let _plan = plan.enter();
                    while let Some(&(model, config)) =
                        pairs.get(cursor.fetch_add(1, Ordering::Relaxed))
                    {
                        // A broken model quarantines instead of panicking,
                        // so one bad roster entry cannot end precompilation.
                        let _ = self.try_get_or_compile(model, config);
                    }
                });
            }
        });
        (self.stats().misses - before) as usize
    }
}

/// Every pipeline configuration the experiments exercise, across the
/// three vector ISAs — the "whole roster" precompilation set.
pub fn all_pipeline_kinds() -> Vec<PipelineKind> {
    use limpet_codegen::pipeline::VectorIsa;
    let mut kinds = vec![PipelineKind::Baseline];
    for isa in [VectorIsa::Sse, VectorIsa::Avx2, VectorIsa::Avx512] {
        kinds.extend([
            PipelineKind::LimpetMlir(isa),
            PipelineKind::LimpetMlirAos(isa),
            PipelineKind::LimpetMlirNoLut(isa),
            PipelineKind::CompilerSimd(isa),
            PipelineKind::LimpetMlirSpline(isa),
        ]);
    }
    kinds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Simulation, Workload};
    use limpet_codegen::pipeline::VectorIsa;
    use limpet_models::model;

    #[test]
    fn cache_hits_share_one_compilation() {
        let cache = KernelCache::new();
        let m = model("BeelerReuter");
        let a = cache.get_or_compile(&m, PipelineKind::Baseline);
        let b = cache.get_or_compile(&m, PipelineKind::Baseline);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be the same entry");
        assert!(a.kernel().shares_compilation(b.kernel()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));

        // A different pipeline is a different entry, of the same model.
        let c = cache.get_or_compile(&m, PipelineKind::LimpetMlir(VectorIsa::Avx2));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(Arc::ptr_eq(&a.model, &c.model), "one copy of the model");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn bytecode_opt_toggle_is_part_of_the_key() {
        let cache = KernelCache::new();
        let m = model("Plonsey");
        let optimized = cache.lookup(&m, PipelineKind::Baseline, true).unwrap();
        let plain = cache.lookup(&m, PipelineKind::Baseline, false).unwrap();
        assert!(
            !Arc::ptr_eq(&optimized, &plain),
            "ablation must not reuse the optimized entry"
        );
        assert_eq!(cache.stats().entries, 2);
        // The optimizer shows up as a synthetic pass in the report, with
        // counters only when it ran.
        let run = |ck: &CompiledKernel| {
            ck.pass_report()
                .passes
                .iter()
                .find(|p| p.name == "bytecode-opt")
                .expect("bytecode-opt pass recorded")
                .clone()
        };
        assert!(!run(&optimized).counters.is_empty());
        assert!(run(&plain).counters.is_empty());
        // An entry's raw sibling is its own kernel when the optimizer was
        // off, and a second program over the same tables when it was on.
        assert!(plain.raw_kernel().shares_compilation(plain.kernel()));
        let raw = optimized.raw_kernel();
        assert!(!raw.shares_compilation(optimized.kernel()));
        assert_eq!(raw.program(), plain.kernel().program());
        assert!(std::ptr::eq(raw.luts(), optimized.kernel().luts()));
    }

    #[test]
    fn fingerprint_distinguishes_structure_not_identity() {
        let m1 = model("HodgkinHuxley");
        let m2 = model("HodgkinHuxley");
        assert_eq!(model_fingerprint(&m1), model_fingerprint(&m2));
        let other = model("BeelerReuter");
        assert_ne!(model_fingerprint(&m1), model_fingerprint(&other));
    }

    #[test]
    fn cached_and_cold_kernels_produce_identical_trajectories() {
        let m = model("MitchellSchaeffer");
        let config = PipelineKind::LimpetMlir(VectorIsa::Avx512);
        let wl = Workload {
            n_cells: 16,
            steps: 0,
            dt: 0.05,
        };
        // Cold: compiled directly, bypassing every cache.
        let mut cold = Simulation::new_uncached(&m, config, &wl);
        // Warm: served from a cache entry.
        let cache = KernelCache::new();
        cache.get_or_compile(&m, config); // populate
        let entry = cache.get_or_compile(&m, config);
        let mut warm = Simulation::with_kernel(entry.kernel().clone(), entry.layout(), &wl);
        assert_eq!(cache.stats().hits, 1);

        for _ in 0..500 {
            cold.step();
            warm.step();
        }
        for cell in 0..wl.n_cells {
            // Bit-identical, not approximately equal: the cached kernel is
            // the same compilation, so the arithmetic is the same.
            assert_eq!(
                cold.vm(cell).to_bits(),
                warm.vm(cell).to_bits(),
                "cell {cell} diverged"
            );
        }
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        let cache = KernelCache::new();
        let m = model("HodgkinHuxley");
        cache.poison();
        // The next lookup recovers the lock, records the incident, and
        // serves the compilation as if nothing happened.
        cache.get_or_compile(&m, PipelineKind::Baseline);
        let s = cache.stats();
        assert!(s.poison_recoveries >= 1, "recovery must be counted: {s:?}");
        assert_eq!((s.entries, s.quarantined), (1, 0));
        assert!(cache
            .incidents()
            .iter()
            .any(|i| i.kind == crate::IncidentKind::CachePoisonRecovered));
        // The poison flag was cleared: later locks are clean.
        assert_eq!(cache.stats().poison_recoveries, s.poison_recoveries);
    }

    #[test]
    fn resilient_lookup_lands_on_the_optimized_tier_by_default() {
        let cache = KernelCache::new();
        let m = model("Plonsey");
        let rk = cache
            .get_or_compile_resilient(&m, PipelineKind::Baseline)
            .expect("healthy model compiles");
        assert_eq!(rk.tier, crate::Tier::Optimized);
        assert!(rk.incidents.is_empty());
    }

    #[test]
    fn cache_stats_json_shape_is_pinned() {
        // Telemetry consumers (limpet-serve `stats`, `figures --cache
        // stat --json`) key on these exact field names; this test is the
        // tripwire against silent renames or drops.
        let stats = CacheStats {
            hits: 1,
            misses: 2,
            disk_hits: 3,
            disk_rejects: 4,
            disk_writes: 5,
            entries: 6,
            quarantined: 7,
            poison_recoveries: 8,
            executed_steps: 9,
            native_compiles: 10,
            native_disk_hits: 11,
            native_ready: 12,
            native_quarantined: 13,
            native_cc_timeouts: 14,
            disk_lock_retries: 15,
            disk_stale_locks_broken: 16,
            table_sets: 17,
            table_bytes: 18,
        };
        assert_eq!(
            stats.to_json(),
            concat!(
                "{\"hits\":1,\"misses\":2,\"disk_hits\":3,",
                "\"disk_rejects\":4,\"disk_writes\":5,\"entries\":6,",
                "\"quarantined\":7,\"poison_recoveries\":8,",
                "\"executed_steps\":9,\"native_compiles\":10,",
                "\"native_disk_hits\":11,\"native_ready\":12,",
                "\"native_quarantined\":13,\"native_cc_timeouts\":14,",
                "\"disk_lock_retries\":15,\"disk_stale_locks_broken\":16,",
                "\"table_sets\":17,\"table_bytes\":18}"
            )
        );
    }

    #[test]
    fn parallel_precompile_populates_every_pair() {
        let cache = KernelCache::new();
        let models: Vec<_> = ["HodgkinHuxley", "MitchellSchaeffer", "FentonKarma"]
            .iter()
            .map(|n| model(n))
            .collect();
        let kinds = [
            PipelineKind::Baseline,
            PipelineKind::LimpetMlir(VectorIsa::Avx2),
        ];
        let compiled = cache.precompile(&models, &kinds, 4);
        assert_eq!(compiled, 6);
        assert_eq!(cache.stats().entries, 6);
        // Re-running compiles nothing new.
        assert_eq!(cache.precompile(&models, &kinds, 4), 0);
    }
}
