//! A kernel-cache memory hit, and the model fingerprint it keys on,
//! allocate nothing. The hit runs once per model per round inside
//! `limpet-perf`'s `sim_steady` timed phase, beside the step loop, and
//! `model_fingerprint` promises an allocation-free walk so that every
//! lookup can afford it.
//!
//! A binary of its own: its global allocator counts, per thread, the bytes
//! that thread asks for, and a test measures only its own thread.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{model_fingerprint, KernelCache, PipelineKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting the bytes each thread allocates.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so reading it never
// allocates or runs after the thread's storage is gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the bytes it allocated on this thread.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let r = f();
    (r, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn a_memory_hit_and_its_fingerprint_allocate_nothing() {
    let cache = KernelCache::new();
    let configs = [
        PipelineKind::Baseline,
        PipelineKind::LimpetMlir(VectorIsa::Avx512),
    ];
    for name in ["MitchellSchaeffer", "HodgkinHuxley"] {
        let m = limpet_models::model(name);
        for config in configs {
            let cold = cache.get_or_compile(&m, config);
            let (fp, bytes) = allocated_by(|| model_fingerprint(&m));
            assert_eq!(bytes, 0, "{name}: the fingerprint allocated {bytes} bytes");
            assert_eq!(fp, model_fingerprint(&m));
            let (hit, bytes) = allocated_by(|| cache.get_or_compile(&m, config));
            assert_eq!(bytes, 0, "{name}: a memory hit allocated {bytes} bytes");
            assert!(Arc::ptr_eq(&cold, &hit), "{name}: the hit is the entry");
        }
    }
    assert_eq!(cache.stats().hits, 4);
}
