//! Seeded, deterministic fault injection for the compile/run chain.
//!
//! Robustness code that only runs when something breaks is robustness code
//! that never runs. This module makes every degradation path exercisable on
//! demand: a fault plan names an injection point ([`FaultKind`]) and a seed,
//! and the corresponding layer (frontend shim, kernel cache, simulation)
//! consults the armed plans at exactly one spot. Each plan fires **once** —
//! the first time its injection point is reached — so a recovery path can
//! retry the same operation cleanly, which is precisely what the
//! optimized → reference ladder does.
//!
//! A plan belongs to the run that armed it: [`arm`] makes it the calling
//! thread's plan until the returned [`PlanGuard`] drops, and the threads
//! the harness spawns for that run (the precompile pool, the fig2 `--jobs`
//! pool, the shard workers) enter the spawning thread's plan (`Plan::current`, `Plan::enter`). The `figures`
//! process arms one plan in `main` (`--inject` or `LIMPET_INJECT`), a
//! daemon job arms its own `inject` field, a test arms its own — none of
//! them sees another's. The spec grammar is a comma-separated list of
//! `fault@seed` items:
//!
//! ```text
//! LIMPET_INJECT="verify-fail@42,state-nan@7" cargo run --bin figures -- ...
//! ```
//!
//! Seeds feed [`limpet_rng::SmallRng`], so a given spec reproduces the same
//! corruption — same removed op, same NaN step — on every run.

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex};

use limpet_ir::Module;
use limpet_rng::SmallRng;

/// An injection point in the compile/run chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Corrupt the EasyML source before parsing (frontend diagnostic path).
    ParseError,
    /// Corrupt the lowered module so pipeline verification fails
    /// (quarantine + reference-tier fallback path).
    VerifyFail,
    /// Poison the kernel-cache mutex (lock-recovery path).
    CachePoison,
    /// Write a NaN into the cell state mid-run (health-guard path).
    StateNan,
    /// Flip one byte of a disk-cache entry as it is read (checksum /
    /// integrity rejection path).
    DiskCorrupt,
    /// Truncate a disk-cache entry as it is read (length-check path).
    DiskTruncate,
    /// Rewrite a disk-cache entry's format-version stamp as it is read
    /// (stale-version rejection path).
    DiskStaleVersion,
    /// Fail the system C toolchain invocation while building a native
    /// shared object (toolchain-missing / compile-error path).
    CcFail,
    /// Fail loading a built native shared object (`dlopen` path).
    DlopenFail,
    /// Corrupt a native kernel's probation output so the bitwise
    /// differential against the bytecode tier fails (quarantine path).
    NativeDivergent,
    /// Wedge a service worker mid-job — it stops polling its token and
    /// sleeps — so the scheduler's heartbeat watchdog must detect the
    /// stall, 504 the job, and respawn the worker (liveness path).
    WorkerHang,
    /// Hang the native `cc` compile (the child process sleeps instead of
    /// compiling) so the compile watchdog must time it out after the
    /// payload's milliseconds, kill the child, and quarantine the kernel
    /// as `cc-timeout` (liveness path).
    CompileHang,
    /// "Crash" while holding the disk-cache lock: the lock file is left
    /// behind un-released, so contending processes must retry with
    /// backoff and break the stale lock (lock-recovery path).
    LockHolderCrash,
    /// Truncate a trajectory checkpoint as it is read (torn-tail rung of
    /// the snapshot load ladder).
    CkptTorn,
    /// Flip one byte of a trajectory checkpoint as it is read (checksum
    /// rung of the snapshot load ladder).
    CkptCorrupt,
    /// Rewrite a trajectory checkpoint's format-version stamp as it is
    /// read (stale-version rung of the snapshot load ladder).
    CkptStaleVersion,
}

/// Every fault kind, in spec order — handy for exercising the whole chain.
pub const ALL_FAULT_KINDS: [FaultKind; 16] = [
    FaultKind::ParseError,
    FaultKind::VerifyFail,
    FaultKind::CachePoison,
    FaultKind::StateNan,
    FaultKind::DiskCorrupt,
    FaultKind::DiskTruncate,
    FaultKind::DiskStaleVersion,
    FaultKind::CcFail,
    FaultKind::DlopenFail,
    FaultKind::NativeDivergent,
    FaultKind::WorkerHang,
    FaultKind::CompileHang,
    FaultKind::LockHolderCrash,
    FaultKind::CkptTorn,
    FaultKind::CkptCorrupt,
    FaultKind::CkptStaleVersion,
];

impl FaultKind {
    /// The spec name used in `fault@seed` items.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::ParseError => "parse-error",
            FaultKind::VerifyFail => "verify-fail",
            FaultKind::CachePoison => "cache-poison",
            FaultKind::StateNan => "state-nan",
            FaultKind::DiskCorrupt => "disk-corrupt",
            FaultKind::DiskTruncate => "disk-truncate",
            FaultKind::DiskStaleVersion => "disk-stale-version",
            FaultKind::CcFail => "cc-fail",
            FaultKind::DlopenFail => "dlopen-fail",
            FaultKind::NativeDivergent => "native-divergent",
            FaultKind::WorkerHang => "worker-hang",
            FaultKind::CompileHang => "compile-hang",
            FaultKind::LockHolderCrash => "lock-holder-crash",
            FaultKind::CkptTorn => "ckpt-torn",
            FaultKind::CkptCorrupt => "ckpt-corrupt",
            FaultKind::CkptStaleVersion => "ckpt-stale-version",
        }
    }

    fn from_str(s: &str) -> Option<FaultKind> {
        ALL_FAULT_KINDS.iter().copied().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug)]
struct ArmedFault {
    kind: FaultKind,
    seed: u64,
    fired: bool,
}

/// The fault items of one run, each fired at most once. Clones share the
/// items, so an item fires once across every thread of the run. The empty
/// plan (the default) arms nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Plan(Option<Arc<Mutex<Vec<ArmedFault>>>>);

thread_local! {
    static CURRENT: RefCell<Plan> = const { RefCell::new(Plan(None)) };
}

impl Plan {
    /// The calling thread's plan: what a thread spawned for the same run
    /// enters.
    pub(crate) fn current() -> Plan {
        CURRENT.with(|current| current.borrow().clone())
    }

    /// Makes this plan the calling thread's until the guard drops, which
    /// restores the plan that was current before.
    pub(crate) fn enter(&self) -> PlanGuard {
        PlanGuard {
            previous: CURRENT.with(|current| current.replace(self.clone())),
        }
    }
}

/// Keeps a plan current on its thread until dropped, then restores the
/// plan that was current before.
#[derive(Debug)]
#[must_use = "the plan is current only while its guard lives"]
pub struct PlanGuard {
    previous: Plan,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        // Nothing to restore on a thread whose locals are already gone.
        let _ = CURRENT.try_with(|current| current.replace(previous));
    }
}

/// Parses `spec`, a comma-separated list of `fault@seed` items, and makes
/// it the calling thread's plan until the returned guard drops.
///
/// # Errors
///
/// Returns a description of the first malformed item. Valid fault names
/// are the [`FaultKind::as_str`] values; the seed is a decimal `u64` and
/// defaults to `0` when the `@seed` part is omitted.
pub fn arm(spec: &str) -> Result<PlanGuard, String> {
    let mut parsed = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, seed) = match item.split_once('@') {
            Some((name, seed)) => {
                let seed: u64 = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed in fault spec item '{item}'"))?;
                (name.trim(), seed)
            }
            None => (item, 0),
        };
        let kind = FaultKind::from_str(name).ok_or_else(|| {
            let known: Vec<&str> = ALL_FAULT_KINDS.iter().map(|k| k.as_str()).collect();
            format!("unknown fault '{name}' (known: {})", known.join(", "))
        })?;
        parsed.push(ArmedFault {
            kind,
            seed,
            fired: false,
        });
    }
    let plan = Plan((!parsed.is_empty()).then(|| Arc::new(Mutex::new(parsed))));
    Ok(plan.enter())
}

/// True while the calling thread's plan has any item, fired or not: it
/// outlives the once-fired items, so the measurement drivers keep swapping
/// the plain, panicking `Simulation::new` path for the degradation-ladder
/// one after a fault has fired and quarantined a kernel, while normal runs
/// keep the zero-overhead fast path.
pub fn injection_active() -> bool {
    CURRENT.with(|current| current.borrow().0.is_some())
}

/// Whether the calling thread's plan holds an unfired item of `kind`, which
/// the next [`take`] of it would fire.
pub(crate) fn armed(kind: FaultKind) -> bool {
    CURRENT.with(|current| {
        let plan = current.borrow();
        plan.0.as_ref().is_some_and(|items| {
            let items = items.lock().unwrap_or_else(|p| p.into_inner());
            items.iter().any(|p| p.kind == kind && !p.fired)
        })
    })
}

/// Consumes the first unfired item of `kind` in the calling thread's plan,
/// returning its seed.
///
/// Each item fires at most once; arming the same kind twice makes it fire
/// twice. Returns `None` when nothing (left) is armed for `kind` — without
/// taking a lock when the thread has no plan.
pub fn take(kind: FaultKind) -> Option<u64> {
    CURRENT.with(|current| {
        let plan = current.borrow();
        // A plan must stay usable even if a thread of its run panicked
        // while holding it — recovery is the whole point of this module.
        let mut items = plan.0.as_ref()?.lock().unwrap_or_else(|p| p.into_inner());
        let item = items.iter_mut().find(|p| p.kind == kind && !p.fired)?;
        item.fired = true;
        Some(item.seed)
    })
}

/// Deterministically corrupts EasyML source text: inserts an illegal byte
/// at a seed-chosen position so lexing fails with a spanned diagnostic.
/// Positions that land inside a comment (where the byte is ignored) are
/// skipped by retrying along the same seeded stream; position 0 is the
/// guaranteed fallback.
pub fn corrupt_source(src: &str, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Insert at a char boundary; '$' is not in the EasyML alphabet.
    let positions: Vec<usize> = src.char_indices().map(|(i, _)| i).collect();
    let insert = |at: usize| {
        let mut out = String::with_capacity(src.len() + 1);
        out.push_str(&src[..at]);
        out.push('$');
        out.push_str(&src[at..]);
        out
    };
    for _ in 0..32 {
        if positions.is_empty() {
            break;
        }
        let out = insert(positions[rng.gen_range(0..positions.len())]);
        if limpet_easyml::lex(&out).is_err() {
            return out;
        }
    }
    insert(0)
}

/// Deterministically corrupts a lowered module so verification fails:
/// removes one op from `@compute`'s body whose result feeds a later op,
/// producing a use-before-def (dominance) error. Returns a description of
/// what was removed, or `None` if no candidate op exists (the module is
/// left untouched in that case).
pub fn corrupt_module(module: &mut Module, seed: u64) -> Option<String> {
    let func = module.func_mut("compute")?;
    let body = func.body();
    let ops = func.region_mut(body).ops.clone();
    // Candidate ops: result is consumed by a later op in the same region.
    let mut candidates = Vec::new();
    for (i, &op_id) in ops.iter().enumerate() {
        let results = func.op(op_id).results.clone();
        if results.is_empty() {
            continue;
        }
        let used_later = ops[i + 1..]
            .iter()
            .any(|&later| func.op(later).operands.iter().any(|v| results.contains(v)));
        if used_later {
            candidates.push(i);
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let victim = candidates[rng.gen_range(0..candidates.len())];
    let removed = ops[victim];
    let kind = format!("{:?}", func.op(removed).kind);
    func.region_mut(body).ops.remove(victim);
    Some(format!(
        "removed op #{victim} ({kind}) from @compute, leaving dangling uses"
    ))
}

/// The simulation step (1-based) at which an armed [`FaultKind::StateNan`]
/// plan writes its NaN, derived from the seed so a spec pins the step.
/// Bounded to the first 16 steps so short CI workloads still hit it.
pub fn nan_step(seed: u64) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    rng.gen_range(1usize..17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trip_and_once_fired() {
        let _plan = arm("verify-fail@42, state-nan@7").unwrap();
        assert!(injection_active());
        assert_eq!(take(FaultKind::ParseError), None);
        assert_eq!(take(FaultKind::VerifyFail), Some(42));
        assert_eq!(take(FaultKind::VerifyFail), None, "plans fire once");
        assert_eq!(take(FaultKind::StateNan), Some(7));
        assert!(injection_active(), "a spent plan still marks the run");
    }

    #[test]
    fn a_plan_is_its_threads_until_the_guard_drops() {
        assert!(!injection_active());
        let outer = arm("cache-poison@1").unwrap();
        // Another thread has no plan unless it enters this one.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(take(FaultKind::CachePoison), None));
        });
        {
            let _inner = arm("").unwrap();
            assert!(!injection_active(), "the empty plan arms nothing");
            assert_eq!(take(FaultKind::CachePoison), None);
        }
        // Entered elsewhere, the same items fire once across both threads.
        let plan = Plan::current();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _entered = plan.enter();
                assert_eq!(take(FaultKind::CachePoison), Some(1));
            });
        });
        assert_eq!(take(FaultKind::CachePoison), None);
        drop(outer);
        assert!(!injection_active());
    }

    #[test]
    fn every_fault_kind_round_trips_through_its_spec_name() {
        for k in ALL_FAULT_KINDS {
            assert_eq!(FaultKind::from_str(k.as_str()), Some(k), "{k}");
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(arm("verify-fail@nope").is_err());
        assert!(arm("made-up-fault@1").is_err());
    }

    #[test]
    fn seedless_items_default_to_zero() {
        let _plan = arm("cache-poison").unwrap();
        assert_eq!(take(FaultKind::CachePoison), Some(0));
    }

    #[test]
    fn corrupt_source_is_deterministic_and_fails_lexing() {
        let src = "diff_x = -x;";
        let a = corrupt_source(src, 5);
        let b = corrupt_source(src, 5);
        assert_eq!(a, b);
        assert!(limpet_easyml::lex(&a).is_err());
    }

    #[test]
    fn corrupt_module_breaks_verification_deterministically() {
        let model = limpet_easyml::compile_model("M", "diff_x = -0.5 * x;").unwrap();
        let make = || {
            limpet_codegen::lower_model(&model, &limpet_codegen::CodegenOptions { use_lut: true })
                .module
        };
        let mut m1 = make();
        let mut m2 = make();
        let d1 = corrupt_module(&mut m1, 9).expect("candidate op");
        let d2 = corrupt_module(&mut m2, 9).expect("candidate op");
        assert_eq!(d1, d2, "same seed, same corruption");
        let err = limpet_ir::verify_module(&m1).unwrap_err();
        assert_eq!(err.code, limpet_ir::VerifyCode::Dominance, "{err}");
    }

    #[test]
    fn nan_step_is_stable_per_seed() {
        assert_eq!(nan_step(7), nan_step(7));
        assert!((1..17).contains(&nan_step(7)));
    }
}
