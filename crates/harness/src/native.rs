//! The native execution tier: background C compilation, `dlopen`
//! loading, probation, and hot-swap plumbing for [`crate::Tier::Native`].
//!
//! A long-lived width-1 simulation spends its life in the bytecode
//! interpreter. Once its kernel's executed-step counter crosses the
//! promotion threshold, this module turns the *exact bytecode program*
//! into serial C ([`limpet_codegen::emit_c_native`]), compiles it with
//! the system toolchain (`cc -O2 -fPIC -shared -ffp-contract=off`) on a
//! background thread, `dlopen`s the shared object, and — only after the
//! candidate passes a bit-identity probation run against the interpreter
//! — publishes it for the simulation to hot-swap in at a step boundary.
//!
//! Bit-identity is the contract, not a best effort: the emitted C calls
//! back into the *same Rust `f64` math* the VM executes (through a
//! function-pointer table, [`MathTable`]), IEEE primitives are compiled
//! without contraction or fast-math, and the probation differential
//! compares full raw storage bits. A native kernel that cannot prove
//! itself identical is quarantined, never persisted, and the simulation
//! stays on bytecode.
//!
//! Every failure mode degrades, none aborts:
//!
//! * toolchain missing / `cc` error → [`IncidentKind::NativeCcFail`],
//!   slot quarantined, bytecode continues;
//! * `dlopen`/`dlsym` error → [`IncidentKind::NativeDlopenFail`], same;
//! * probation mismatch → [`IncidentKind::NativeDivergent`], same;
//! * a corrupt or stale persisted `.so` container → entry deleted,
//!   recompiled from source.
//!
//! Validated shared objects persist in the kernel disk cache
//! ([`crate::DiskCache::store_native`]) keyed by a content fingerprint of
//! the emitted C, so a warm process re-enters the native tier without
//! invoking the compiler — after re-running probation, because a `.so`
//! from disk is exactly as untrusted as a fresh one.

use crate::checksum::{fnv1a_from, FNV_OFFSET};
use crate::faults::{self, FaultKind};
use crate::health::{Incident, IncidentKind};
use crate::persist::DiskLoad;
use limpet_codegen::{
    emit_c_native, native_math_table, NativeBinFn, NativeLutFn, NATIVE_EMITTER_VERSION,
    NATIVE_ENTRY_SYMBOL, NATIVE_TABLE_SLOTS,
};
use limpet_vm::{CellStates, ExtArrays, Kernel, LutData, SimContext, StateLayout};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Default executed-step count at which a kernel is offered for native
/// promotion. Low enough that any real run promotes early, high enough
/// that short-lived probes (tests, `--digest` spot checks) never pay a
/// compiler invocation.
pub const DEFAULT_PROMOTION_THRESHOLD: u64 = 200;

/// Cells in the probation differential.
const PROBATION_CELLS: usize = 5;
/// Steps in the probation differential.
const PROBATION_STEPS: usize = 8;

static PROMOTION_ENABLED: AtomicBool = AtomicBool::new(false);
static PROMOTION_THRESHOLD: AtomicU64 = AtomicU64::new(DEFAULT_PROMOTION_THRESHOLD);

/// Turns automatic native-tier promotion on or off process-wide
/// (`figures --native` / `--no-native`). Off by default: promotion costs
/// a compiler subprocess, which short-lived tool invocations should opt
/// into, not discover.
pub fn set_promotion(enabled: bool) {
    PROMOTION_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether automatic promotion is enabled.
pub fn promotion_enabled() -> bool {
    PROMOTION_ENABLED.load(Ordering::Relaxed)
}

/// Overrides the promotion threshold (executed steps).
pub fn set_promotion_threshold(steps: u64) {
    PROMOTION_THRESHOLD.store(steps.max(1), Ordering::Relaxed);
}

/// The current promotion threshold (executed steps).
pub fn promotion_threshold() -> u64 {
    PROMOTION_THRESHOLD.load(Ordering::Relaxed)
}

/// Arms promotion from the environment: `LIMPET_NATIVE=1` enables it,
/// `LIMPET_NATIVE_THRESHOLD=<steps>` overrides the threshold. Used by
/// the service daemon, where there is no per-run flag.
pub fn promotion_from_env() {
    if let Ok(v) = std::env::var("LIMPET_NATIVE") {
        set_promotion(v == "1" || v.eq_ignore_ascii_case("true"));
    }
    if let Ok(v) = std::env::var("LIMPET_NATIVE_THRESHOLD") {
        if let Ok(n) = v.trim().parse::<u64>() {
            set_promotion_threshold(n);
        }
    }
}

/// Wall-clock budget for one compiler invocation. A healthy `cc -O2` over
/// an emitted kernel finishes in well under a second; thirty seconds is
/// pure headroom for loaded CI hosts.
pub const DEFAULT_CC_TIMEOUT: Duration = Duration::from_secs(30);

/// True when `kernel` can be promoted: the scalar (width-1) tier over
/// AoS storage. Vectorized configurations never promote — their bytecode
/// already is the optimized artifact under measurement, and the serial C
/// ABI is defined over AoS indexing only.
pub fn native_eligible(kernel: &Kernel, layout: StateLayout) -> bool {
    kernel.width() == 1 && layout == StateLayout::Aos
}

/// Probes once for a working C toolchain (`cc` on `PATH`).
pub fn toolchain_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::process::Command::new("cc")
            .arg("--version")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false)
    })
}

/// Content fingerprint of an emitted native translation unit: FNV-1a
/// over the C source, seeded with the emitter version so an ABI change
/// re-keys every cached shared object.
pub fn native_fingerprint(source: &str) -> u64 {
    fnv1a_from(
        FNV_OFFSET ^ u64::from(NATIVE_EMITTER_VERSION),
        source.as_bytes(),
    )
}

/// Emits the native C for `kernel` and returns `(fingerprint, source)`.
///
/// # Errors
///
/// Propagates the emitter's rejection message.
pub fn emit_for_kernel(kernel: &Kernel) -> Result<(u64, String), String> {
    let source = emit_c_native(kernel.program(), kernel.name())?;
    let fp = native_fingerprint(&source);
    Ok((fp, source))
}

// ---------------------------------------------------------------------
// dlopen FFI (std-only; no crates)
// ---------------------------------------------------------------------

mod dl {
    use std::os::raw::{c_char, c_int, c_void};

    pub const RTLD_NOW: c_int = 2;

    #[link(name = "dl")]
    extern "C" {
        pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlclose(handle: *mut c_void) -> c_int;
        pub fn dlerror() -> *mut c_char;
    }

    /// The thread's last `dl*` error as a Rust string.
    pub fn last_error() -> String {
        // Safety: dlerror returns a thread-local NUL-terminated string
        // (or null when no error is pending).
        unsafe {
            let p = dlerror();
            if p.is_null() {
                "unknown dl error".to_string()
            } else {
                std::ffi::CStr::from_ptr(p).to_string_lossy().into_owned()
            }
        }
    }
}

/// An owned `dlopen` handle; `dlclose`d on drop.
struct DlHandle(*mut std::os::raw::c_void);

impl std::fmt::Debug for DlHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DlHandle({:p})", self.0)
    }
}

impl Drop for DlHandle {
    fn drop(&mut self) {
        // Safety: the handle came from a successful dlopen and is closed
        // exactly once.
        unsafe {
            dl::dlclose(self.0);
        }
    }
}

// ---------------------------------------------------------------------
// The call table the emitted C executes through
// ---------------------------------------------------------------------

/// LUT-callback context: a raw view of the kernel's table array. The C
/// side treats it as opaque and passes it straight back.
#[derive(Debug)]
struct LutCtx {
    luts: *const LutData,
    n: usize,
}

impl LutCtx {
    fn tables(&self) -> &[LutData] {
        // Safety: `luts`/`n` describe the owning kernel's LUT slice,
        // which the NativeKernel keeps alive (it owns a Kernel clone).
        unsafe { std::slice::from_raw_parts(self.luts, self.n) }
    }
}

unsafe extern "C" fn lut_linear_cb(ctx: *const (), table: i64, col: i64, key: f64) -> f64 {
    let ctx = &*(ctx as *const LutCtx);
    // Same math as the interpreter's linear `LutRow` modes at width 1:
    // `interp_one` and `interp_row` share the clamp and blend exactly.
    ctx.tables()[table as usize].interp_one(key, col as usize)
}

unsafe extern "C" fn lut_cubic_cb(ctx: *const (), table: i64, col: i64, key: f64) -> f64 {
    let ctx = &*(ctx as *const LutCtx);
    let mut out = [0.0];
    ctx.tables()[table as usize].interp_block_cubic(&[key], col as usize, &mut out);
    out[0]
}

/// The Rust mirror of the emitted `limpet_mtab` struct: the function
/// pointer table the native code calls for transcendentals and LUT
/// reads. Layout must match the C typedef field-for-field.
#[repr(C)]
#[derive(Debug)]
struct MathTable {
    fns: [NativeBinFn; NATIVE_TABLE_SLOTS],
    lut_linear: NativeLutFn,
    lut_cubic: NativeLutFn,
    lut_ctx: *const (),
}

/// Signature of the emitted entry symbol — see
/// [`limpet_codegen::emit_c_native`] for the C-side declaration.
type NativeEntryFn = unsafe extern "C" fn(
    *mut f64,        // state (AoS raw storage)
    *const *mut f64, // ext (one base pointer per external array)
    *const f64,      // params
    f64,             // dt
    f64,             // t
    i64,             // cell_begin
    i64,             // cell_end
    i64,             // stride (state vars per cell in storage)
    *const MathTable,
);

/// How a native kernel came to exist, for stats and incident detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeProvenance {
    /// Compiled by the toolchain in this process.
    Compiled,
    /// Reloaded from the persisted `.so` container (no compiler ran).
    Disk,
}

impl NativeProvenance {
    /// Short label for incident messages.
    pub fn label(self) -> &'static str {
        match self {
            NativeProvenance::Compiled => "compiled",
            NativeProvenance::Disk => "disk",
        }
    }
}

/// A loaded, probation-validated native kernel: the `dlopen` handle, the
/// resolved entry point, and the call table the code executes through.
/// Holds a clone of the bytecode kernel it was emitted from, so the LUT
/// storage the callbacks index stays alive.
#[derive(Debug)]
pub struct NativeKernel {
    entry: NativeEntryFn,
    /// Boxed so the address handed to C is stable.
    table: Box<MathTable>,
    /// Keeps `table.lut_ctx` alive.
    _lut_ctx: Box<LutCtx>,
    /// Keeps the LUT data (and program identity) alive.
    kernel: Kernel,
    fingerprint: u64,
    provenance: NativeProvenance,
    /// Closed (dlclose) when the kernel drops — declared last so the
    /// entry pointer dies before the library unmaps.
    _lib: DlHandle,
}

// Safety: the entry function is a pure function over the pointers passed
// per call; the table and context are immutable after construction; the
// dl handle is only used at drop. Concurrent `run_step` calls on
// disjoint storage are safe, matching `Kernel`.
unsafe impl Send for NativeKernel {}
unsafe impl Sync for NativeKernel {}

impl NativeKernel {
    /// Wraps a freshly `dlopen`ed library whose entry has been resolved.
    fn assemble(
        lib: DlHandle,
        entry: NativeEntryFn,
        kernel: Kernel,
        fingerprint: u64,
        provenance: NativeProvenance,
    ) -> NativeKernel {
        let lut_ctx = Box::new(LutCtx {
            luts: kernel.luts().as_ptr(),
            n: kernel.luts().len(),
        });
        let table = Box::new(MathTable {
            fns: native_math_table(),
            lut_linear: lut_linear_cb,
            lut_cubic: lut_cubic_cb,
            lut_ctx: &*lut_ctx as *const LutCtx as *const (),
        });
        NativeKernel {
            entry,
            table,
            _lut_ctx: lut_ctx,
            kernel,
            fingerprint,
            provenance,
            _lib: lib,
        }
    }

    /// The content fingerprint of the C source this kernel was built
    /// from (the persistence key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether this kernel was compiled in-process or reloaded from the
    /// disk cache.
    pub fn provenance(&self) -> NativeProvenance {
        self.provenance
    }

    /// The bytecode kernel this native code was emitted from.
    pub fn bytecode(&self) -> &Kernel {
        &self.kernel
    }

    /// Runs one compute step over all (padded) cells — the native twin
    /// of [`Kernel::run_step`], covering the same `[0, padded)` range so
    /// trajectories stay bit-identical including padding lanes.
    ///
    /// # Panics
    ///
    /// Panics (debug) when the storage is not AoS — eligibility
    /// ([`native_eligible`]) must have been checked at promotion time.
    pub fn run_step(
        &self,
        state: &mut CellStates,
        ext: &mut ExtArrays,
        params: &[f64],
        ctx: SimContext,
    ) {
        debug_assert_eq!(state.layout(), StateLayout::Aos, "native tier is AoS-only");
        let cells = state.padded_cells() as i64;
        let stride = state.n_vars() as i64;
        let ext_ptrs = ext.raw_mut_ptrs();
        // Safety: the entry was resolved from a library probated against
        // this exact program; state/ext are sized for `cells` with AoS
        // stride `stride`; the table outlives the call.
        unsafe {
            (self.entry)(
                state.raw_mut().as_mut_ptr(),
                ext_ptrs.as_ptr(),
                params.as_ptr(),
                ctx.dt,
                ctx.t,
                0,
                cells,
                stride,
                &*self.table,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Toolchain driver
// ---------------------------------------------------------------------

/// A temp file that best-effort deletes itself.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_path(ext: &str, fingerprint: u64) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "limpet-native-{fingerprint:016x}-{}-{}.{ext}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Marker prefix on compile-timeout errors, and the quarantine reason
/// tag, so [`NativeRegistry::build`] classifies them as
/// [`IncidentKind::NativeCcTimeout`] rather than a plain compiler error.
pub const CC_TIMEOUT_MARKER: &str = "cc-timeout";

/// Runs a compiler subprocess under a wall-clock watchdog: `spawn` +
/// `try_wait` polling instead of a blocking `output()`, so a wedged
/// toolchain is killed at the `timeout` budget instead of hanging
/// the builder thread (and with it the slot) forever.
fn run_with_watchdog(
    cmd: &mut std::process::Command,
    timeout: Duration,
) -> Result<std::process::Output, String> {
    use std::process::Stdio;
    // stderr stays piped but undrained during the poll loop: compiler
    // diagnostics beyond the pipe buffer would stall the child, which
    // the watchdog then treats as a hang. Acceptable — the only reader
    // is the first diagnostic line, and the degrade path is the same
    // quarantine either way.
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn cc: {e}"))?;
    let deadline = std::time::Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) => {
                if std::time::Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{CC_TIMEOUT_MARKER}: compiler exceeded its {}ms budget and was killed",
                        timeout.as_millis()
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot poll cc: {e}"));
            }
        }
    }
    child
        .wait_with_output()
        .map_err(|e| format!("cannot collect cc output: {e}"))
}

/// Compiles `source` to a shared object with the system toolchain and
/// returns its bytes. The [`FaultKind::CcFail`] and
/// [`FaultKind::CompileHang`] injection points live here, upstream of
/// the real compiler.
fn compile_so(source: &str, fingerprint: u64) -> Result<Vec<u8>, String> {
    if faults::take(FaultKind::CcFail).is_some() {
        return Err("injected C compiler failure".to_string());
    }
    let hang = faults::take(FaultKind::CompileHang);
    if hang.is_none() && !toolchain_available() {
        return Err("no C toolchain: `cc` not found on PATH".to_string());
    }
    let c_file = TempFile(temp_path("c", fingerprint));
    let so_file = TempFile(temp_path("so", fingerprint));
    std::fs::write(&c_file.0, source).map_err(|e| format!("cannot write C source: {e}"))?;
    // The CompileHang injection swaps the toolchain for a command that
    // sleeps far past any budget, and its payload (`compile-hang@MS`) is
    // this compile's budget, so the real spawn/poll/kill watchdog path is
    // exercised in milliseconds, even on hosts with no compiler at all.
    let (mut cmd, budget) = if let Some(ms) = hang {
        let mut c = std::process::Command::new("sh");
        c.args(["-c", "sleep 600"]);
        (c, Duration::from_millis(ms))
    } else {
        let mut c = std::process::Command::new("cc");
        c.args(["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-o"])
            .arg(&so_file.0)
            .arg(&c_file.0);
        (c, DEFAULT_CC_TIMEOUT)
    };
    let out = run_with_watchdog(&mut cmd, budget)?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or("no diagnostics");
        return Err(format!("cc failed ({}): {first}", out.status));
    }
    std::fs::read(&so_file.0).map_err(|e| format!("cannot read compiled object: {e}"))
}

/// `dlopen`s a shared object from `bytes` (via a transient temp file,
/// unlinked immediately after the map) and resolves the entry symbol.
/// The [`FaultKind::DlopenFail`] injection point lives here.
fn load_so_bytes(bytes: &[u8], fingerprint: u64) -> Result<(DlHandle, NativeEntryFn), String> {
    if faults::take(FaultKind::DlopenFail).is_some() {
        return Err("injected dlopen failure".to_string());
    }
    let so_file = TempFile(temp_path("so", fingerprint));
    std::fs::write(&so_file.0, bytes).map_err(|e| format!("cannot stage object: {e}"))?;
    let c_path = std::ffi::CString::new(so_file.0.as_os_str().as_encoded_bytes())
        .map_err(|_| "object path contains NUL".to_string())?;
    // Safety: plain dlopen of a regular file path; failure is a null
    // handle, reported via dlerror.
    let handle = unsafe { dl::dlopen(c_path.as_ptr(), dl::RTLD_NOW) };
    if handle.is_null() {
        return Err(format!("dlopen failed: {}", dl::last_error()));
    }
    let lib = DlHandle(handle);
    let sym = std::ffi::CString::new(NATIVE_ENTRY_SYMBOL).expect("symbol has no NUL");
    // Safety: handle is live; a missing symbol comes back null.
    let entry = unsafe { dl::dlsym(lib.0, sym.as_ptr()) };
    if entry.is_null() {
        return Err(format!(
            "dlsym({NATIVE_ENTRY_SYMBOL}) failed: {}",
            dl::last_error()
        ));
    }
    // Safety: the symbol was emitted with exactly this signature by
    // emit_c_native (version-stamped; mismatches are re-keyed away).
    let entry = unsafe { std::mem::transmute::<*mut std::os::raw::c_void, NativeEntryFn>(entry) };
    Ok((lib, entry))
}

/// Runs the bit-identity probation differential: a few cells stepped a
/// few times through the interpreter and the native code side by side,
/// comparing *all* raw storage bits (padding lanes included). The
/// [`FaultKind::NativeDivergent`] injection point corrupts the native
/// side's observed bits so the real comparison trips.
///
/// # Errors
///
/// Returns a description of the first diverging word.
pub fn probation(native: &NativeKernel, kernel: &Kernel) -> Result<(), String> {
    let mut ref_state = kernel.new_states(PROBATION_CELLS, StateLayout::Aos);
    let mut ref_ext = kernel.new_ext(PROBATION_CELLS);
    let mut nat_state = ref_state.clone();
    let mut nat_ext = ref_ext.clone();
    let dt = 0.01;
    for step in 0..PROBATION_STEPS {
        let ctx = SimContext {
            dt,
            t: step as f64 * dt,
        };
        kernel.run_step(&mut ref_state, &mut ref_ext, None, ctx);
        native.run_step(&mut nat_state, &mut nat_ext, kernel.param_values(), ctx);
    }
    let mut nat_bits: Vec<u64> = nat_state.raw().iter().map(|v| v.to_bits()).collect();
    for var in 0..nat_ext.n_vars() {
        for cell in 0..nat_ext.n_cells() {
            nat_bits.push(nat_ext.get(cell, var).to_bits());
        }
    }
    if faults::take(FaultKind::NativeDivergent).is_some() {
        if let Some(word) = nat_bits.first_mut() {
            *word ^= 1;
        }
    }
    let mut ref_bits: Vec<u64> = ref_state.raw().iter().map(|v| v.to_bits()).collect();
    for var in 0..ref_ext.n_vars() {
        for cell in 0..ref_ext.n_cells() {
            ref_bits.push(ref_ext.get(cell, var).to_bits());
        }
    }
    if let Some(at) = (0..ref_bits.len()).find(|&i| ref_bits[i] != nat_bits[i]) {
        return Err(format!(
            "probation divergence at word {at}: bytecode {:#018x} vs native {:#018x}",
            ref_bits[at], nat_bits[at]
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The slot registry (background compilation + publication)
// ---------------------------------------------------------------------

/// The state of one native compilation slot.
#[derive(Debug, Clone)]
pub enum NativeSlot {
    /// A build is in flight on a background thread.
    Pending,
    /// Probation passed; ready to hot-swap.
    Ready(Arc<NativeKernel>),
    /// The build or probation failed; bytecode stays authoritative. The
    /// failure is sticky for the process so a broken toolchain costs one
    /// attempt, not one per simulation.
    Quarantined(Arc<str>),
}

/// Everything a background build needs, captured by value.
#[derive(Debug)]
pub struct NativeRequest {
    /// Fingerprint of the emitted C ([`native_fingerprint`]).
    pub fingerprint: u64,
    /// The emitted C source.
    pub source: String,
    /// Model name for incidents.
    pub model: String,
    /// The bytecode kernel (probation reference + LUT owner).
    pub kernel: Kernel,
    /// The disk tier, when attached, for `.so` persistence.
    pub disk: Option<Arc<crate::persist::DiskCache>>,
}

/// Counter snapshot of a [`NativeRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Toolchain compilations that produced a validated kernel.
    pub compiles: u64,
    /// Validated kernels reloaded from the persisted container (no
    /// compiler ran).
    pub disk_hits: u64,
    /// Containers persisted.
    pub disk_writes: u64,
    /// Slots currently ready.
    pub ready: usize,
    /// Slots currently quarantined.
    pub quarantined: usize,
    /// Compiler invocations killed by the watchdog ([`DEFAULT_CC_TIMEOUT`]).
    pub cc_timeouts: u64,
}

/// The process-wide ledger of native compilations: one slot per emitted
/// C fingerprint, built on background threads, published atomically.
/// Owned by [`crate::KernelCache`] so stats and incidents surface
/// through the same channels as the bytecode tiers.
#[derive(Debug, Default)]
pub struct NativeRegistry {
    slots: Mutex<HashMap<u64, NativeSlot>>,
    /// Model name → fingerprint of the most recent build request for
    /// that model, so an external watchdog (which knows only which
    /// *job* wedged) can quarantine the right slot without re-emitting C.
    by_model: Mutex<HashMap<String, u64>>,
    compiles: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
    cc_timeouts: AtomicU64,
    incidents: Mutex<Vec<Incident>>,
}

impl NativeRegistry {
    /// An empty registry.
    pub fn new() -> NativeRegistry {
        NativeRegistry::default()
    }

    /// The current state of the slot for `fingerprint`, if any build was
    /// ever requested.
    pub fn poll(&self, fingerprint: u64) -> Option<NativeSlot> {
        self.lock_slots().get(&fingerprint).cloned()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NativeStats {
        let (ready, quarantined) = {
            let slots = self.lock_slots();
            (
                slots
                    .values()
                    .filter(|s| matches!(s, NativeSlot::Ready(_)))
                    .count(),
                slots
                    .values()
                    .filter(|s| matches!(s, NativeSlot::Quarantined(_)))
                    .count(),
            )
        };
        NativeStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            ready,
            quarantined,
            cc_timeouts: self.cc_timeouts.load(Ordering::Relaxed),
        }
    }

    /// Incidents recorded by builds (failures and their reasons).
    pub fn incidents(&self) -> Vec<Incident> {
        self.incidents
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Drops every slot and incident (counters survive). Tests only.
    pub fn clear(&self) {
        self.lock_slots().clear();
        self.incidents
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }

    fn lock_slots(&self) -> std::sync::MutexGuard<'_, HashMap<u64, NativeSlot>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn remember_model(&self, model: &str, fingerprint: u64) {
        self.by_model
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(model.to_string(), fingerprint);
    }

    /// Quarantines the native slot most recently requested for `model`,
    /// on behalf of an external watchdog that caught the slot's code
    /// wedging a worker. The bytecode `(model, config)` cache entry is
    /// deliberately untouched: the interpreter is still trusted, so
    /// subsequent jobs rerun on bytecode bit-identically instead of
    /// falling all the way back to the Baseline pipeline. Returns false
    /// when no build was ever requested for `model`.
    pub fn quarantine_for_model(&self, model: &str, reason: &str) -> bool {
        let fp = {
            let by_model = self.by_model.lock().unwrap_or_else(|p| p.into_inner());
            match by_model.get(model) {
                Some(&fp) => fp,
                None => return false,
            }
        };
        self.lock_slots()
            .insert(fp, NativeSlot::Quarantined(Arc::from(reason)));
        self.log(Incident::new(
            IncidentKind::DeadlineExceeded,
            model,
            format!("watchdog quarantined native kernel {fp:016x}: {reason}"),
        ));
        true
    }

    fn log(&self, incident: Incident) {
        self.incidents
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(incident);
    }

    /// Begins a background build for the request's fingerprint if no
    /// slot exists yet. Returns immediately; the simulation keeps
    /// stepping bytecode and polls for the published slot.
    pub fn request(self: &Arc<Self>, req: NativeRequest) {
        self.remember_model(&req.model, req.fingerprint);
        {
            let mut slots = self.lock_slots();
            if slots.contains_key(&req.fingerprint) {
                return;
            }
            slots.insert(req.fingerprint, NativeSlot::Pending);
        }
        let fingerprint = req.fingerprint;
        let registry = Arc::clone(self);
        let plan = faults::Plan::current();
        let spawned = std::thread::Builder::new()
            .name(format!("native-cc-{:08x}", fingerprint as u32))
            .spawn(move || {
                let _plan = plan.enter();
                let slot = registry.build_contained(&req);
                registry.lock_slots().insert(req.fingerprint, slot);
            });
        // Thread exhaustion degrades like any other build failure.
        if let Err(e) = spawned {
            self.lock_slots().insert(
                fingerprint,
                NativeSlot::Quarantined(Arc::from(format!("cannot spawn builder: {e}"))),
            );
        }
    }

    /// Synchronous [`NativeRegistry::request`]: builds (or reuses) the
    /// slot on the calling thread and returns its final state. Benches
    /// and tests use this to reach the native tier deterministically.
    pub fn request_blocking(self: &Arc<Self>, req: NativeRequest) -> NativeSlot {
        self.remember_model(&req.model, req.fingerprint);
        {
            let mut slots = self.lock_slots();
            match slots.get(&req.fingerprint) {
                None | Some(NativeSlot::Pending) => {
                    slots.insert(req.fingerprint, NativeSlot::Pending);
                }
                Some(done) => return done.clone(),
            }
        }
        let slot = self.build_contained(&req);
        self.lock_slots().insert(req.fingerprint, slot.clone());
        slot
    }

    /// Runs a build with panic containment: a panicking builder
    /// quarantines its slot instead of leaving it `Pending` forever.
    fn build_contained(&self, req: &NativeRequest) -> NativeSlot {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.build(req))).unwrap_or_else(
            |payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                self.log(Incident::new(
                    IncidentKind::NativeCcFail,
                    &req.model,
                    format!("native builder panicked ({msg}); staying on bytecode"),
                ));
                NativeSlot::Quarantined(Arc::from(format!("builder panicked: {msg}")))
            },
        )
    }

    /// The full build pipeline: disk reload → (else) emit+cc → dlopen →
    /// probation → persist → publish. Every failure returns a
    /// `Quarantined` slot and an incident; nothing propagates.
    fn build(&self, req: &NativeRequest) -> NativeSlot {
        // Warm path: a persisted container skips the compiler, but not
        // probation — disk bytes earn trust the same way fresh ones do.
        if let Some(disk) = &req.disk {
            match disk.load_native(req.fingerprint) {
                DiskLoad::Hit(bytes) => {
                    match self.validate(&bytes, req, NativeProvenance::Disk) {
                        Ok(native) => {
                            self.disk_hits.fetch_add(1, Ordering::Relaxed);
                            self.log(Incident::new(
                                IncidentKind::NativePromoted,
                                &req.model,
                                format!(
                                    "native kernel {:016x} reloaded from disk cache (0 compiles)",
                                    req.fingerprint
                                ),
                            ));
                            return NativeSlot::Ready(Arc::new(native));
                        }
                        Err((kind, reason)) => {
                            // A bad persisted object self-heals: drop it
                            // and fall through to a fresh compile.
                            disk.remove_native(req.fingerprint);
                            self.log(Incident::new(
                                kind,
                                &req.model,
                                format!("persisted native object rejected ({reason}); recompiling"),
                            ));
                        }
                    }
                }
                DiskLoad::Miss => {}
                DiskLoad::Rejected(reason) => {
                    self.log(Incident::new(
                        IncidentKind::NativeDlopenFail,
                        &req.model,
                        format!("native container rejected ({reason}); recompiling"),
                    ));
                }
            }
        }
        // Cold path: invoke the toolchain.
        let bytes = match compile_so(&req.source, req.fingerprint) {
            Ok(bytes) => bytes,
            Err(reason) => {
                let kind = if reason.starts_with(CC_TIMEOUT_MARKER) {
                    self.cc_timeouts.fetch_add(1, Ordering::Relaxed);
                    IncidentKind::NativeCcTimeout
                } else {
                    IncidentKind::NativeCcFail
                };
                self.log(Incident::new(
                    kind,
                    &req.model,
                    format!("{reason}; staying on bytecode"),
                ));
                return NativeSlot::Quarantined(Arc::from(reason));
            }
        };
        match self.validate(&bytes, req, NativeProvenance::Compiled) {
            Ok(native) => {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                // Persist only what survived probation: a quarantined
                // object must never outlive the process.
                if let Some(disk) = &req.disk {
                    match disk.store_native(req.fingerprint, &bytes) {
                        Ok(()) => {
                            self.disk_writes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => self.log(Incident::new(
                            IncidentKind::DiskCacheDegraded,
                            &req.model,
                            format!("could not persist native object ({e}); in-memory only"),
                        )),
                    }
                }
                self.log(Incident::new(
                    IncidentKind::NativePromoted,
                    &req.model,
                    format!(
                        "native kernel {:016x} compiled and validated",
                        req.fingerprint
                    ),
                ));
                NativeSlot::Ready(Arc::new(native))
            }
            Err((kind, reason)) => {
                self.log(Incident::new(
                    kind,
                    &req.model,
                    format!("{reason}; staying on bytecode"),
                ));
                NativeSlot::Quarantined(Arc::from(reason))
            }
        }
    }

    /// Loads object bytes and runs probation; the shared tail of the
    /// cold and warm paths.
    fn validate(
        &self,
        bytes: &[u8],
        req: &NativeRequest,
        provenance: NativeProvenance,
    ) -> Result<NativeKernel, (IncidentKind, String)> {
        let (lib, entry) = load_so_bytes(bytes, req.fingerprint)
            .map_err(|reason| (IncidentKind::NativeDlopenFail, reason))?;
        let native =
            NativeKernel::assemble(lib, entry, req.kernel.clone(), req.fingerprint, provenance);
        probation(&native, &req.kernel)
            .map_err(|reason| (IncidentKind::NativeDivergent, reason))?;
        Ok(native)
    }
}

/// Persists nothing, compiles nothing: a one-call helper that emits,
/// builds, and validates a native kernel for `kernel` through
/// `registry`, returning the final slot. The blocking entry used by
/// benches, tests, and `Simulation::promote_native_blocking`.
pub fn build_blocking(
    registry: &Arc<NativeRegistry>,
    kernel: &Kernel,
    model: &str,
    disk: Option<Arc<crate::persist::DiskCache>>,
) -> Result<NativeSlot, String> {
    let (fingerprint, source) = emit_for_kernel(kernel)?;
    Ok(registry.request_blocking(NativeRequest {
        fingerprint,
        source,
        model: model.to_string(),
        kernel: kernel.clone(),
        disk,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{model_info, PipelineKind};
    use limpet_models::model;

    fn scalar_kernel(name: &str) -> Kernel {
        let m = model(name);
        let module = PipelineKind::Baseline.build(&m);
        Kernel::from_module(&module, &model_info(&m)).expect("baseline compiles")
    }

    #[test]
    fn eligibility_is_width1_aos_only() {
        let k = scalar_kernel("HodgkinHuxley");
        assert!(native_eligible(&k, StateLayout::Aos));
        assert!(!native_eligible(&k, StateLayout::AoSoA { block: 8 }));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let k = scalar_kernel("HodgkinHuxley");
        let (fp1, src1) = emit_for_kernel(&k).unwrap();
        let (fp2, _) = emit_for_kernel(&k).unwrap();
        assert_eq!(fp1, fp2, "same program, same fingerprint");
        assert_ne!(fp1, native_fingerprint(&format!("{src1} ")));
    }

    #[test]
    fn native_kernel_matches_bytecode_bit_for_bit() {
        if !toolchain_available() {
            eprintln!("skipping: no C toolchain in this environment");
            return;
        }
        let k = scalar_kernel("HodgkinHuxley");
        let registry = Arc::new(NativeRegistry::new());
        let slot = build_blocking(&registry, &k, "HodgkinHuxley", None).unwrap();
        let NativeSlot::Ready(native) = slot else {
            panic!("expected ready slot, got {slot:?}");
        };
        assert_eq!(native.provenance(), NativeProvenance::Compiled);
        // Longer differential than probation, fresh storage.
        let mut sa = k.new_states(13, StateLayout::Aos);
        let mut ea = k.new_ext(13);
        let mut sb = sa.clone();
        let mut eb = ea.clone();
        for step in 0..200 {
            let ctx = SimContext {
                dt: 0.01,
                t: step as f64 * 0.01,
            };
            k.run_step(&mut sa, &mut ea, None, ctx);
            native.run_step(&mut sb, &mut eb, k.param_values(), ctx);
        }
        let bits = |s: &CellStates| s.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sa), bits(&sb), "state diverged");
        for var in 0..ea.n_vars() {
            for cell in 0..ea.n_cells() {
                assert_eq!(
                    ea.get(cell, var).to_bits(),
                    eb.get(cell, var).to_bits(),
                    "ext {var} cell {cell} diverged"
                );
            }
        }
        assert_eq!(registry.stats().compiles, 1);
    }

    #[test]
    fn injected_cc_failure_quarantines_with_incident() {
        let _plan = faults::arm("cc-fail@1").unwrap();
        let k = scalar_kernel("Plonsey");
        let registry = Arc::new(NativeRegistry::new());
        let slot = build_blocking(&registry, &k, "Plonsey", None).unwrap();
        assert!(matches!(slot, NativeSlot::Quarantined(_)), "{slot:?}");
        assert!(registry
            .incidents()
            .iter()
            .any(|i| i.kind == IncidentKind::NativeCcFail));
    }

    #[test]
    fn hung_compile_times_out_quarantines_and_bytecode_continues() {
        // The payload is the hung compile's budget in milliseconds.
        let _plan = faults::arm("compile-hang@200").unwrap();
        let k = scalar_kernel("Plonsey");
        let registry = Arc::new(NativeRegistry::new());
        let started = std::time::Instant::now();
        let slot = build_blocking(&registry, &k, "Plonsey", None).unwrap();
        assert!(
            started.elapsed() < DEFAULT_CC_TIMEOUT,
            "watchdog must kill the hung compiler, not wait it out"
        );
        let NativeSlot::Quarantined(reason) = slot else {
            panic!("expected quarantined slot, got {slot:?}");
        };
        assert!(
            reason.starts_with(CC_TIMEOUT_MARKER) && reason.contains("its 200ms budget"),
            "quarantine reason must be tagged {CC_TIMEOUT_MARKER}: {reason}"
        );
        assert!(registry
            .incidents()
            .iter()
            .any(|i| i.kind == IncidentKind::NativeCcTimeout));
        // The simulation carries on, on the bytecode tier, bit-identical
        // to a run that never attempted promotion.
        let mut attempted = k.new_states(7, StateLayout::Aos);
        let mut attempted_ext = k.new_ext(7);
        let mut control = attempted.clone();
        let mut control_ext = attempted_ext.clone();
        for step in 0..50 {
            let ctx = SimContext {
                dt: 0.01,
                t: step as f64 * 0.01,
            };
            k.run_step(&mut attempted, &mut attempted_ext, None, ctx);
            k.run_step(&mut control, &mut control_ext, None, ctx);
        }
        let bits = |s: &CellStates| s.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&attempted), bits(&control));
    }

    #[test]
    fn watchdog_quarantine_by_model_lands_on_the_requested_slot() {
        // cc-fail keeps the build away from the real toolchain; the
        // watchdog quarantine below overwrites the slot either way.
        let _plan = faults::arm("cc-fail@1").unwrap();
        let k = scalar_kernel("MitchellSchaeffer");
        let registry = Arc::new(NativeRegistry::new());
        assert!(
            !registry.quarantine_for_model("MitchellSchaeffer", "stuck worker"),
            "unknown model must report false"
        );
        let (fp, source) = emit_for_kernel(&k).unwrap();
        registry.request_blocking(NativeRequest {
            fingerprint: fp,
            source,
            model: "MitchellSchaeffer".to_string(),
            kernel: k,
            disk: None,
        });
        assert!(registry.quarantine_for_model("MitchellSchaeffer", "stuck worker"));
        assert!(matches!(
            registry.poll(fp),
            Some(NativeSlot::Quarantined(reason)) if reason.as_ref() == "stuck worker"
        ));
        assert!(registry
            .incidents()
            .iter()
            .any(|i| i.kind == IncidentKind::DeadlineExceeded));
    }

    #[test]
    fn injected_dlopen_failure_quarantines_with_incident() {
        if !toolchain_available() {
            eprintln!("skipping: no C toolchain in this environment");
            return;
        }
        let _plan = faults::arm("dlopen-fail@1").unwrap();
        let k = scalar_kernel("Plonsey");
        let registry = Arc::new(NativeRegistry::new());
        let slot = build_blocking(&registry, &k, "Plonsey", None).unwrap();
        assert!(matches!(slot, NativeSlot::Quarantined(_)), "{slot:?}");
        assert!(registry
            .incidents()
            .iter()
            .any(|i| i.kind == IncidentKind::NativeDlopenFail));
    }

    #[test]
    fn injected_divergence_quarantines_and_never_persists() {
        if !toolchain_available() {
            eprintln!("skipping: no C toolchain in this environment");
            return;
        }
        let _plan = faults::arm("native-divergent@1").unwrap();
        let dir = std::env::temp_dir().join(format!("limpet-native-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(crate::persist::DiskCache::open(&dir).unwrap());
        let k = scalar_kernel("Plonsey");
        let registry = Arc::new(NativeRegistry::new());
        let slot = build_blocking(&registry, &k, "Plonsey", Some(Arc::clone(&disk))).unwrap();
        assert!(matches!(slot, NativeSlot::Quarantined(_)), "{slot:?}");
        assert!(registry
            .incidents()
            .iter()
            .any(|i| i.kind == IncidentKind::NativeDivergent));
        // The quarantined object must not have been persisted.
        let (fp, _) = emit_for_kernel(&k).unwrap();
        assert!(matches!(disk.load_native(fp), DiskLoad::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_process_reloads_from_disk_without_compiling() {
        if !toolchain_available() {
            eprintln!("skipping: no C toolchain in this environment");
            return;
        }
        let dir = std::env::temp_dir().join(format!("limpet-native-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(crate::persist::DiskCache::open(&dir).unwrap());
        let k = scalar_kernel("MitchellSchaeffer");
        let cold = Arc::new(NativeRegistry::new());
        let slot = build_blocking(&cold, &k, "MitchellSchaeffer", Some(Arc::clone(&disk))).unwrap();
        assert!(matches!(slot, NativeSlot::Ready(_)));
        assert_eq!(cold.stats().compiles, 1);
        assert_eq!(cold.stats().disk_writes, 1);
        // A second registry models a warm process: no compiler run.
        let warm = Arc::new(NativeRegistry::new());
        let slot = build_blocking(&warm, &k, "MitchellSchaeffer", Some(Arc::clone(&disk))).unwrap();
        let NativeSlot::Ready(native) = slot else {
            panic!("warm reload failed");
        };
        assert_eq!(native.provenance(), NativeProvenance::Disk);
        assert_eq!(warm.stats().compiles, 0, "warm start must not compile");
        assert_eq!(warm.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_persisted_container_self_heals() {
        if !toolchain_available() {
            eprintln!("skipping: no C toolchain in this environment");
            return;
        }
        let dir = std::env::temp_dir().join(format!("limpet-native-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(crate::persist::DiskCache::open(&dir).unwrap());
        let k = scalar_kernel("Plonsey");
        let cold = Arc::new(NativeRegistry::new());
        build_blocking(&cold, &k, "Plonsey", Some(Arc::clone(&disk))).unwrap();
        let (fp, _) = emit_for_kernel(&k).unwrap();
        // Flip a payload byte on disk.
        let path = dir.join(crate::persist::native_file_name(fp));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 7;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // The warm process rejects the container, recompiles, re-stores.
        let warm = Arc::new(NativeRegistry::new());
        let slot = build_blocking(&warm, &k, "Plonsey", Some(Arc::clone(&disk))).unwrap();
        assert!(matches!(slot, NativeSlot::Ready(_)));
        assert_eq!(warm.stats().compiles, 1, "corrupt container must recompile");
        assert!(matches!(disk.load_native(fp), DiskLoad::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
