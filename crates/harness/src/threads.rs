//! Multi-threaded execution and the parallel timing model.
//!
//! Two ways to obtain multi-thread numbers:
//!
//! * [`ShardedSimulation`] — real `std::thread` execution over a
//!   *persistent worker pool*: cells are partitioned into per-thread
//!   shards (the compute stage of §3.1 has no inter-cell communication),
//!   each shard is owned by a worker thread spawned once at construction
//!   and reused across steps and across timed repetitions, with a barrier
//!   separating compute and membrane-update stages each step. The wall
//!   clock of [`ShardedSimulation::run_threaded`] starts only after a
//!   warm-up rendezvous inside the pool, so thread-creation and wake-up
//!   cost is excluded from measured step time. Faithful when the host has
//!   that many cores.
//! * [`TimingModel`] — a deterministic *simulated-parallel* model used for
//!   the paper's 32-core scaling figures on hosts with fewer cores (the
//!   hardware substitution documented in DESIGN.md §3): per-step time at
//!   `T` threads is
//!   `max(t₁/T, bytes/BW(T)) + barrier(T)`,
//!   where `BW(T) = stream_bw × min(T, saturation)` models DRAM
//!   saturation and `barrier(T)` grows with both the thread count and the
//!   vector width (synchronization + vector-state flush overhead — the
//!   effect behind the paper's small-model slowdowns in Fig. 3).
//!
//! `figures --real-threads` measures every thread count up to the host's
//! cores with the pool and falls back to the model only above that;
//! `figures --validate-tm` cross-validates the model against the pool on
//! the overlap region and persists the calibrated constants next to the
//! kernel disk cache ([`TimingModel::save`]).

use crate::sim::{PipelineKind, Simulation, Workload};
use crate::store;
use limpet_easyml::Model;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// A command processed by one pool worker.
enum Cmd {
    /// Run `steps` barrier-separated steps. The caller times the interval
    /// between the two pool-wide rendezvous around the step loop.
    Run { steps: usize },
    /// Run a closure against the worker's shard (state inspection).
    Call(Box<dyn FnOnce(&mut Simulation) + Send>),
    /// Leave the worker loop (pool teardown).
    Exit,
}

/// One pool worker: its command channel and join handle. The worker
/// thread owns the shard's [`Simulation`].
#[derive(Debug)]
struct Worker {
    tx: mpsc::Sender<Cmd>,
    handle: Option<JoinHandle<()>>,
}

/// Real-thread execution over per-thread cell shards, backed by a
/// persistent worker pool: threads are spawned once in
/// [`ShardedSimulation::new`] and reused by every
/// [`ShardedSimulation::run_threaded`] call, so repeated timed runs pay
/// no spawn/teardown cost inside the measured region.
#[derive(Debug)]
pub struct ShardedSimulation {
    workers: Vec<Worker>,
    /// Pool-wide rendezvous (workers + caller) bracketing each step loop:
    /// the first crossing is the warm-up barrier (all workers awake), the
    /// second marks completion.
    rendezvous: Arc<Barrier>,
    /// Logical cells per shard, in shard (= global cell) order.
    shard_cells: Vec<usize>,
}

impl ShardedSimulation {
    /// Partitions `workload.n_cells` across at most `threads` shards
    /// (each padded to the kernel's chunk width internally) and spawns
    /// one worker thread per shard.
    ///
    /// Shard sizes always sum to exactly `workload.n_cells`: when the
    /// cell count does not fill every requested thread, the empty shards
    /// are dropped rather than padded with phantom cells, and
    /// [`ShardedSimulation::threads`] reports the real shard count.
    pub fn new(
        model: &Model,
        config: PipelineKind,
        workload: &Workload,
        threads: usize,
    ) -> ShardedSimulation {
        assert!(threads >= 1);
        assert!(workload.n_cells >= 1, "cannot shard an empty workload");
        let shards: Vec<Simulation> = shard_sizes(workload.n_cells, threads)
            .into_iter()
            .map(|cells| {
                let wl = Workload {
                    n_cells: cells,
                    ..*workload
                };
                if crate::faults::injection_active() {
                    // Injection runs must survive quarantined kernels:
                    // every shard degrades the same way (the resilient
                    // lookup is deterministic per (model, config) key).
                    Simulation::new_resilient(model, config, &wl, crate::HealthPolicy::Abort)
                        .unwrap_or_else(|q| {
                            panic!("model '{}' quarantined on every tier: {}", q.model, q.error)
                        })
                } else {
                    Simulation::new(model, config, &wl)
                }
            })
            .collect();
        let shard_cells: Vec<usize> = shards.iter().map(Simulation::n_cells).collect();
        let n = shards.len();
        let rendezvous = Arc::new(Barrier::new(n + 1));
        let step_barrier = Arc::new(Barrier::new(n));
        let plan = crate::faults::Plan::current();
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let (tx, rx) = mpsc::channel();
                let rendezvous = Arc::clone(&rendezvous);
                let step_barrier = Arc::clone(&step_barrier);
                let plan = plan.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("limpet-shard-{i}"))
                    .spawn(move || {
                        let _plan = plan.enter();
                        worker_loop(shard, &rx, &rendezvous, &step_barrier)
                    })
                    .expect("spawn shard worker");
                Worker {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        ShardedSimulation {
            workers,
            rendezvous,
            shard_cells,
        }
    }

    /// Number of shards actually created (≤ the requested thread count).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Total cells across all shards.
    pub fn n_cells(&self) -> usize {
        self.shard_cells.iter().sum()
    }

    /// Logical cells owned by shard `i`.
    pub fn shard_n_cells(&self, i: usize) -> usize {
        self.shard_cells[i]
    }

    /// Runs `steps` steps on the persistent pool (one OS thread per
    /// shard, barrier-separated stages) and returns the wall-clock
    /// seconds of the step loop alone.
    ///
    /// The clock starts after a warm-up rendezvous that every worker has
    /// crossed — so the measured interval excludes thread spawn (paid in
    /// [`ShardedSimulation::new`]) and command-channel wake-up, fixing
    /// the bias where per-call spawn/teardown overhead was charged to
    /// the simulation.
    pub fn run_threaded(&mut self, steps: usize) -> f64 {
        for w in &self.workers {
            w.tx.send(Cmd::Run { steps }).expect("shard worker died");
        }
        // Warm-up rendezvous: returns once every worker is awake and
        // about to enter its step loop.
        self.rendezvous.wait();
        let start = Instant::now();
        // Completion rendezvous: returns once the last worker finishes.
        self.rendezvous.wait();
        start.elapsed().as_secs_f64()
    }

    /// Runs up to `steps` steps in `chunk`-step slices, polling `token`
    /// between slices, and returns `(steps_completed, wall_seconds,
    /// cause)` where `cause` is `Some` iff the token tripped before all
    /// steps ran.
    ///
    /// The token is polled **only on the caller thread**, between
    /// pool-wide rendezvous: a per-worker poll could disagree about the
    /// trip mid-step and deadlock the stage barriers, so the caller is
    /// the single decider and every shard stops at the same step
    /// boundary. Cancellation granularity is therefore `chunk` steps.
    pub fn run_threaded_cancellable(
        &mut self,
        steps: usize,
        chunk: usize,
        token: &crate::CancelToken,
    ) -> (usize, f64, Option<crate::CancelCause>) {
        let chunk = chunk.max(1);
        let mut done = 0;
        let mut secs = 0.0;
        while done < steps {
            if let Some(cause) = token.checked() {
                return (done, secs, Some(cause));
            }
            let n = chunk.min(steps - done);
            secs += self.run_threaded(n);
            done += n;
        }
        (done, secs, None)
    }

    /// Runs a closure against shard `i`'s simulation on its worker thread
    /// and returns the result (e.g. to read voltages after a run).
    pub fn with_shard<R, F>(&self, i: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Simulation) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        self.workers[i]
            .tx
            .send(Cmd::Call(Box::new(move |sim| {
                let _ = tx.send(f(sim));
            })))
            .expect("shard worker died");
        rx.recv().expect("shard worker died")
    }

    /// Membrane potential of a global cell index (shards partition the
    /// cell range in order, so global indices map onto (shard, local)).
    pub fn vm(&self, cell: usize) -> f64 {
        let (shard, local) = self.locate(cell);
        self.with_shard(shard, move |s| s.vm(local))
    }

    /// Bit pattern of the full visible state of every cell, in global
    /// cell order — the payload of the real-thread differential gate
    /// (compare against [`Simulation::state_bits`] of a single-thread
    /// run).
    pub fn state_bits(&self) -> Vec<u64> {
        let mut bits = Vec::new();
        for i in 0..self.workers.len() {
            bits.extend(self.with_shard(i, |s| s.state_bits()));
        }
        bits
    }

    /// Captures a pool-wide [`crate::checkpoint::Snapshot`] at a
    /// rendezvous: `with_shard` drains each worker's command channel in
    /// turn, and between `run_threaded` calls every shard is parked at
    /// the same step boundary, so the concatenated state is exactly what
    /// a single-thread run of the same step count holds. The snapshot
    /// records the shard shape for observability, but resume re-shards
    /// deterministically for whatever thread count it is given — a
    /// 4-thread snapshot restores into a 1- or 8-thread pool unchanged.
    pub fn snapshot(&self, config_label: &str, steps_done: u64) -> crate::checkpoint::Snapshot {
        let label = config_label.to_string();
        let mut snap = self.with_shard(0, move |sim| sim.snapshot(&label, steps_done));
        for i in 1..self.workers.len() {
            let shard_bits = self.with_shard(i, |sim| sim.state_bits());
            snap.state.extend(shard_bits);
        }
        snap.n_cells = self.n_cells();
        snap.shards = self.shard_cells.clone();
        snap
    }

    /// Restores a snapshot into this pool, slicing the flat logical-cell
    /// state across shards by the pool's own (deterministic)
    /// [`shard_sizes`] partition.
    ///
    /// # Errors
    ///
    /// Returns a description when the snapshot's cell count or state
    /// width does not match this pool.
    pub fn restore(&mut self, snap: &crate::checkpoint::Snapshot) -> Result<(), String> {
        if snap.n_cells != self.n_cells() {
            return Err(format!(
                "snapshot has {} cells, pool has {}",
                snap.n_cells,
                self.n_cells()
            ));
        }
        if snap.n_cells == 0 || !snap.state.len().is_multiple_of(snap.n_cells) {
            return Err(format!(
                "snapshot state ({} values) is not a whole number of cells ({})",
                snap.state.len(),
                snap.n_cells
            ));
        }
        let per_cell = snap.state.len() / snap.n_cells;
        let mut offset = 0;
        for i in 0..self.workers.len() {
            let cells = self.shard_cells[i];
            let shard_snap = crate::checkpoint::Snapshot {
                n_cells: cells,
                // Shards never run native (it is width-1 single-sim
                // only) and never descend (their policy is `Abort`), so
                // a pool's snapshot is always of the optimized tier.
                tier: crate::Tier::Optimized.to_string(),
                nan_plan: None,
                shards: Vec::new(),
                meta: None,
                state: snap.state[offset * per_cell..(offset + cells) * per_cell].to_vec(),
                model: snap.model.clone(),
                config: snap.config.clone(),
                dt_bits: snap.dt_bits,
                t_bits: snap.t_bits,
                steps_done: snap.steps_done,
                executed_steps: snap.executed_steps,
            };
            self.with_shard(i, move |sim| sim.restore(&shard_snap))?;
            offset += cells;
        }
        Ok(())
    }

    /// Builds a pool for `threads` threads and restores `snap` into it —
    /// the sharded resume path. The thread count is free to differ from
    /// the one that wrote the snapshot; the key echo (model, config,
    /// cells, dt) must match.
    ///
    /// # Errors
    ///
    /// Returns a description on key mismatch or shape mismatch.
    pub fn resume_from(
        model: &Model,
        config: PipelineKind,
        workload: &Workload,
        threads: usize,
        snap: &crate::checkpoint::Snapshot,
    ) -> Result<ShardedSimulation, String> {
        snap.key_matches(&model.name, &config.label(), workload.n_cells, workload.dt)?;
        let mut sharded = ShardedSimulation::new(model, config, workload, threads);
        sharded.restore(snap)?;
        Ok(sharded)
    }

    fn locate(&self, cell: usize) -> (usize, usize) {
        let mut local = cell;
        for (i, &n) in self.shard_cells.iter().enumerate() {
            if local < n {
                return (i, local);
            }
            local -= n;
        }
        panic!("cell {cell} out of range ({} total)", self.n_cells());
    }
}

impl Drop for ShardedSimulation {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Cmd::Exit);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// The body of one pool worker: owns its shard and serves commands until
/// told to exit (or the pool is dropped and the channel disconnects).
fn worker_loop(
    mut shard: Simulation,
    rx: &mpsc::Receiver<Cmd>,
    rendezvous: &Barrier,
    step_barrier: &Barrier,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Run { steps } => {
                rendezvous.wait();
                let cells = shard.padded_cells();
                for _ in 0..steps {
                    // Compute stage over the shard's own cells.
                    shard.step_range(0, cells);
                    step_barrier.wait();
                    // Membrane stage.
                    shard.update_vm();
                    shard.advance_time();
                    step_barrier.wait();
                }
                rendezvous.wait();
            }
            Cmd::Call(f) => f(&mut shard),
            Cmd::Exit => break,
        }
    }
}

/// Balanced partition of `n_cells` into at most `threads` non-empty
/// shards: the first `n_cells % threads` shards get one extra cell, and
/// shards that would be empty (more threads than cells) are not created.
/// The returned sizes always sum to exactly `n_cells`.
pub fn shard_sizes(n_cells: usize, threads: usize) -> Vec<usize> {
    assert!(threads >= 1);
    let threads = threads.min(n_cells).max(1);
    let (base, extra) = (n_cells / threads, n_cells % threads);
    (0..threads)
        .map(|i| base + usize::from(i < extra))
        .filter(|&c| c > 0)
        .collect()
}

/// Machine constants for the simulated-parallel model, calibrated once
/// per process by micro-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Single-thread sustainable memory bandwidth (bytes/s), measured
    /// with a stream triad.
    pub stream_bandwidth: f64,
    /// How many threads' worth of bandwidth the socket sustains before
    /// DRAM saturates (the paper's platform: 199 GB/s aggregate vs.
    /// roughly 30 GB/s per-core demand).
    pub bandwidth_saturation: f64,
    /// Barrier cost per step per `log2(T)` in seconds.
    pub barrier_base: f64,
    /// Additional per-step synchronization cost per vector lane (vector
    /// register state flush at the barrier).
    pub lane_sync: f64,
}

impl Default for TimingModel {
    fn default() -> TimingModel {
        TimingModel {
            stream_bandwidth: 8e9,
            bandwidth_saturation: 6.0,
            barrier_base: 1.2e-6,
            lane_sync: 0.15e-6,
        }
    }
}

/// File name of the persisted calibration constants (stored next to the
/// kernel disk cache entries). The format stamp lives inside the record,
/// not in the name.
const TIMING_MODEL_FILE: &str = "timing-model.v1";
/// First token of the record; anything else is not ours.
const TIMING_MODEL_MAGIC: &str = "limpet-timing-model";
/// Format stamp of the record; bump on layout changes so stale files are
/// recalibrated instead of misread. Format 1 was four bare text lines
/// under a `timing-model-v1` line, with no length and no checksum; format
/// 2 summed its payload in one serial chain, not four lanes.
const TIMING_MODEL_VERSION: u32 = 3;

impl TimingModel {
    /// Calibrates the stream bandwidth on the current host; other
    /// constants keep representative defaults (documented in DESIGN.md).
    pub fn calibrate() -> TimingModel {
        TimingModel {
            stream_bandwidth: measure_stream_bandwidth(),
            ..TimingModel::default()
        }
    }

    /// The record around the text of the constants.
    fn seal(body: &str) -> Vec<u8> {
        store::seal(
            TIMING_MODEL_MAGIC,
            &[&TIMING_MODEL_VERSION],
            &[],
            body.len(),
            |out| out.extend_from_slice(body.as_bytes()),
        )
    }

    /// Persists the calibrated constants into `dir` (the kernel disk
    /// cache directory) as one record of [`crate::store`], atomically
    /// replaced, returning the file path. Values are stored as exact f64
    /// bit patterns so a loaded model reproduces the persisted one
    /// bit-for-bit.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let body = format!(
            "stream_bandwidth {:016x}\nbandwidth_saturation {:016x}\nbarrier_base {:016x}\nlane_sync {:016x}\n",
            self.stream_bandwidth.to_bits(),
            self.bandwidth_saturation.to_bits(),
            self.barrier_base.to_bits(),
            self.lane_sync.to_bits(),
        );
        let path = dir.join(TIMING_MODEL_FILE);
        store::publish(&path, &TimingModel::seal(&body))?;
        Ok(path)
    }

    /// Loads persisted calibration constants from `dir`. Returns `None`
    /// when the file is absent, fails any rung of the record's ladder (an
    /// older format, a flipped or missing byte), or holds non-finite /
    /// non-positive constants — any of which means the file should be
    /// ignored and the host recalibrated.
    pub fn load(dir: &Path) -> Option<TimingModel> {
        let bytes = std::fs::read(dir.join(TIMING_MODEL_FILE)).ok()?;
        let mut rest =
            store::open(&bytes, TIMING_MODEL_MAGIC, &[&TIMING_MODEL_VERSION], &[]).ok()?;
        let mut field = |name: &str| -> Option<f64> {
            let (key, bits) = store::take_line(&mut rest)?.split_once(' ')?;
            if key != name {
                return None;
            }
            Some(f64::from_bits(u64::from_str_radix(bits, 16).ok()?))
        };
        let tm = TimingModel {
            stream_bandwidth: field("stream_bandwidth")?,
            bandwidth_saturation: field("bandwidth_saturation")?,
            barrier_base: field("barrier_base")?,
            lane_sync: field("lane_sync")?,
        };
        let sane = [
            tm.stream_bandwidth,
            tm.bandwidth_saturation,
            tm.barrier_base,
            tm.lane_sync,
        ]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0);
        (sane && rest.is_empty()).then_some(tm)
    }

    /// Loads persisted constants from `dir` when present and valid, else
    /// calibrates. The boolean reports whether the persisted file was
    /// used.
    pub fn load_or_calibrate(dir: &Path) -> (TimingModel, bool) {
        match TimingModel::load(dir) {
            Some(tm) => (tm, true),
            None => (TimingModel::calibrate(), false),
        }
    }

    /// Estimated wall time of a `steps`-step run at `threads` threads,
    /// given the measured single-thread time `t1` of the same run, the
    /// kernel's bytes moved per step, and its vector width.
    pub fn estimate(
        &self,
        t1: f64,
        bytes_per_step: u64,
        steps: usize,
        threads: usize,
        width: usize,
    ) -> f64 {
        assert!(threads >= 1 && steps >= 1);
        let t1_step = t1 / steps as f64;
        let compute = t1_step / threads as f64;
        let bw = self.stream_bandwidth * (threads as f64).min(self.bandwidth_saturation);
        let mem_floor = bytes_per_step as f64 / bw;
        let barrier = if threads == 1 {
            0.0
        } else {
            (self.barrier_base + self.lane_sync * width as f64) * (threads as f64).log2()
        };
        steps as f64 * (compute.max(mem_floor) + barrier)
    }
}

/// Measures single-thread stream-triad bandwidth (bytes/s).
///
/// Traffic accounting includes the write-allocate (RFO) fill of `c`: a
/// store to a line not in cache first reads it from DRAM, so each triad
/// element moves 4 × 8 = 32 bytes (read `a`, read `b`, RFO + write-back
/// of `c`), not 24. The previous 24-byte accounting overstated calibrated
/// bandwidth by a third and skewed the `mem_floor` of every figure.
pub fn measure_stream_bandwidth() -> f64 {
    let n = 4 << 20; // 4M doubles = 32 MiB, beyond LLC on most hosts
    let a = vec![1.0f64; n];
    let b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    // Warm up.
    for i in 0..n {
        c[i] = a[i] + 0.5 * b[i];
    }
    let reps = 5;
    let start = Instant::now();
    for r in 0..reps {
        let s = 0.5 + r as f64 * 1e-9;
        for i in 0..n {
            c[i] = a[i] + s * b[i];
        }
        // Inside the timed loop so the triad is a observable effect each
        // repetition and cannot be hoisted/elided by licm.
        std::hint::black_box(&mut c);
    }
    let secs = start.elapsed().as_secs_f64();
    // 2 loads + 1 store + 1 write-allocate line fill, 8 bytes each.
    (reps * n * 32) as f64 / secs
}

/// Measures the median wall time of `runs` invocations of `f` (the paper
/// runs five, drops the extrema, and averages three; the median of three
/// has the same robustness at lower cost).
pub fn measure_median(runs: usize, mut f: impl FnMut()) -> f64 {
    measure_median_secs(runs, move || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    })
}

/// Median of `runs` wall-time samples produced by `f` — for callers that
/// measure the interval themselves (e.g. the worker pool, whose
/// [`ShardedSimulation::run_threaded`] excludes command wake-up from its
/// own clock).
///
/// An even sample count averages the two middle elements; indexing
/// `times[len / 2]` alone would return the upper middle and bias the
/// median upward.
pub fn measure_median_secs(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut times: Vec<f64> = (0..runs.max(1)).map(|_| f()).collect();
    times.sort_by(f64::total_cmp);
    let n = times.len();
    if n % 2 == 1 {
        times[n / 2]
    } else {
        (times[n / 2 - 1] + times[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_codegen::pipeline::VectorIsa;
    use limpet_models::model;

    #[test]
    fn timing_model_scales_compute_bound() {
        let tm = TimingModel {
            stream_bandwidth: 1e12, // effectively no memory floor
            ..TimingModel::default()
        };
        let t1 = 10.0;
        let t32 = tm.estimate(t1, 1000, 100, 32, 8);
        // Large compute-bound run: near-ideal speedup.
        assert!(t1 / t32 > 20.0, "speedup {}", t1 / t32);
    }

    #[test]
    fn timing_model_saturates_memory_bound() {
        let tm = TimingModel {
            stream_bandwidth: 1e9,
            bandwidth_saturation: 4.0,
            ..TimingModel::default()
        };
        // 1 GB per step, t1 = 1.2 s/step: memory floor dominates beyond
        // 4 threads.
        let t1 = 120.0;
        let t8 = tm.estimate(t1, 1_000_000_000, 100, 8, 8);
        let t32 = tm.estimate(t1, 1_000_000_000, 100, 32, 8);
        let s8 = t1 / t8;
        let s32 = t1 / t32;
        assert!((s8 - s32).abs() / s8 < 0.05, "saturated: {s8} vs {s32}");
        assert!(s8 < 6.0);
    }

    #[test]
    fn timing_model_barrier_hurts_tiny_work() {
        let tm = TimingModel::default();
        // 1 µs of work per step: barrier dominates at 32 threads.
        let t1 = 1e-4;
        let t32 = tm.estimate(t1, 100, 100, 32, 8);
        assert!(t32 > t1, "tiny work must slow down: {t32} vs {t1}");
    }

    #[test]
    fn timing_model_wider_vectors_pay_more_sync() {
        let tm = TimingModel::default();
        let t1 = 1e-3;
        let narrow = tm.estimate(t1, 100, 100, 32, 1);
        let wide = tm.estimate(t1, 100, 100, 32, 8);
        assert!(wide > narrow);
    }

    #[test]
    fn timing_model_persists_bit_exactly_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("limpet-tm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tm = TimingModel {
            stream_bandwidth: 12.345e9,
            bandwidth_saturation: 5.5,
            barrier_base: 1.7e-6,
            lane_sync: 0.21e-6,
        };
        let path = tm.save(&dir).expect("save");
        assert!(path.exists());
        let loaded = TimingModel::load(&dir).expect("load");
        assert_eq!(
            loaded.stream_bandwidth.to_bits(),
            tm.stream_bandwidth.to_bits()
        );
        assert_eq!(loaded, tm);
        let (again, was_loaded) = TimingModel::load_or_calibrate(&dir);
        assert!(was_loaded);
        assert_eq!(again, tm);
        // What the parent build saved (format 1: a stamp line, four bare
        // lines, no length, no sum) recalibrates, as its `-v0` did there.
        let file = dir.join(TIMING_MODEL_FILE);
        let saved = std::fs::read(&file).unwrap();
        let payload_at = saved.iter().position(|&b| b == b'\n').unwrap() + 1;
        let format_1 = [b"timing-model-v1\n", &saved[payload_at..]].concat();
        std::fs::write(&file, format_1).unwrap();
        assert!(TimingModel::load(&dir).is_none());
        // Damage the old reader let through: any byte of a constant flipped
        // (a bit-rotted bandwidth fed Fig. 3-5's modeled rows silently), any
        // truncation, an empty file published by a crash before `fsync`.
        for at in 0..saved.len() {
            let mut damaged = saved.clone();
            damaged[at] ^= 0x01;
            std::fs::write(&file, &damaged).unwrap();
            assert!(TimingModel::load(&dir).is_none(), "byte {at} flipped");
            std::fs::write(&file, &saved[..at]).unwrap();
            assert!(TimingModel::load(&dir).is_none(), "cut at {at}");
        }
        // Non-finite constants are rejected too, however well signed.
        let bad = format!(
            "stream_bandwidth {:016x}\nbandwidth_saturation {:016x}\nbarrier_base {:016x}\nlane_sync {:016x}\n",
            f64::NAN.to_bits(),
            1.0f64.to_bits(),
            1.0f64.to_bits(),
            1.0f64.to_bits(),
        );
        std::fs::write(&file, TimingModel::seal(&bad)).unwrap();
        assert!(TimingModel::load(&dir).is_none());
        // The rejections above were of the file, not of the reader.
        std::fs::write(&file, TimingModel::seal(&bad.replace("7ff8", "3ff8"))).unwrap();
        assert!(TimingModel::load(&dir).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Full-state bit-identity of the pool against the single-thread
    /// driver, over vector widths {1, 4, 8} (baseline, AVX2, AVX-512)
    /// and uneven shard shapes — not just cell 0's voltage.
    #[test]
    fn sharded_simulation_matches_single() {
        let m = model("Plonsey");
        for (config, label) in [
            (PipelineKind::Baseline, "width-1"),
            (PipelineKind::LimpetMlir(VectorIsa::Avx2), "width-4"),
            (PipelineKind::LimpetMlir(VectorIsa::Avx512), "width-8"),
        ] {
            // 61 cells over 4 threads: shards of 16+15+15+15, none a
            // multiple of the vector width, so padding lanes differ
            // between the sharded and single-thread layouts.
            for (n_cells, threads) in [(64, 4), (61, 4), (13, 8)] {
                let wl = Workload {
                    n_cells,
                    steps: 0,
                    dt: 0.01,
                };
                let mut single = Simulation::new(&m, config, &wl);
                let mut sharded = ShardedSimulation::new(&m, config, &wl, threads);
                for _ in 0..200 {
                    single.step();
                }
                sharded.run_threaded(200);
                assert_eq!(
                    sharded.state_bits(),
                    single.state_bits(),
                    "{label} n_cells={n_cells} threads={threads}: full state diverged"
                );
            }
        }
    }

    /// One single-thread snapshot resumes into pools of 1, 2 and 3 shards
    /// (13 cells: shards of 13, 7 + 6 and 5 + 4 + 4, each with a ragged
    /// block) under AoS and AoSoA blocks of 8, and every pool finishes on
    /// the single-thread run's digest.
    #[test]
    fn sharded_resume_equals_the_single_thread_digest() {
        let m = model("BeelerReuter");
        let wl = Workload {
            n_cells: 13,
            steps: 0,
            dt: 0.01,
        };
        for config in [
            PipelineKind::Baseline,
            PipelineKind::LimpetMlir(VectorIsa::Avx512),
        ] {
            let mut single = Simulation::new(&m, config, &wl);
            single.perturb_vm(5, 12.0);
            single.run(30);
            let snap = single.snapshot(&config.label(), 30);
            single.run(30);
            let digest = crate::checksum::fnv1a_words(single.state_bits().into_iter());
            for threads in 1..=3 {
                let mut pool = ShardedSimulation::resume_from(&m, config, &wl, threads, &snap)
                    .expect("snapshot fits the pool");
                assert_eq!(pool.shard_cells.len(), threads);
                pool.run_threaded(30);
                let resumed = crate::checksum::fnv1a_words(pool.state_bits().into_iter());
                assert_eq!(resumed, digest, "{} threads={threads}", config.label());
            }
        }
    }

    /// The pool is persistent: two back-to-back runs on the same
    /// `ShardedSimulation` continue one trajectory (reuse, not respawn).
    #[test]
    fn pool_reuse_across_runs_continues_trajectory() {
        let m = model("Plonsey");
        let wl = Workload {
            n_cells: 24,
            steps: 0,
            dt: 0.01,
        };
        let mut single = Simulation::new(&m, PipelineKind::Baseline, &wl);
        let mut sharded = ShardedSimulation::new(&m, PipelineKind::Baseline, &wl, 3);
        for _ in 0..150 {
            single.step();
        }
        let t0 = sharded.run_threaded(100);
        let t1 = sharded.run_threaded(50);
        assert!(t0 > 0.0 && t1 > 0.0);
        assert_eq!(sharded.state_bits(), single.state_bits());
        assert!((sharded.vm(0) - single.vm(0)).abs() < 1e-12);
    }

    /// Cancellation stops every shard at the same chunk boundary: the
    /// partial sharded run must be bit-identical to a single-thread run
    /// of exactly the completed step count.
    #[test]
    fn cancelled_sharded_run_stops_whole_at_a_boundary() {
        let m = model("Plonsey");
        let wl = Workload {
            n_cells: 24,
            steps: 0,
            dt: 0.01,
        };
        let mut single = Simulation::new(&m, PipelineKind::Baseline, &wl);
        let mut sharded = ShardedSimulation::new(&m, PipelineKind::Baseline, &wl, 3);
        // A pre-tripped token: zero chunks run.
        let token = crate::CancelToken::new();
        token.cancel();
        let (done, _, cause) = sharded.run_threaded_cancellable(100, 10, &token);
        assert_eq!(done, 0);
        assert_eq!(cause, Some(crate::CancelCause::Cancelled));
        // A live token: all steps run, no cause.
        let live = crate::CancelToken::new();
        let (done, secs, cause) = sharded.run_threaded_cancellable(40, 7, &live);
        assert_eq!((done, cause), (40, None));
        assert!(secs > 0.0);
        for _ in 0..40 {
            single.step();
        }
        assert_eq!(sharded.state_bits(), single.state_bits());
    }

    #[test]
    fn shard_sizes_sum_exactly_for_all_shapes() {
        // Every (n_cells, threads) pair: totals must equal the workload,
        // no shard may be empty, and sizes must be balanced (max-min ≤ 1).
        for n_cells in 1..=40 {
            for threads in 1..=10 {
                let sizes = shard_sizes(n_cells, threads);
                assert_eq!(
                    sizes.iter().sum::<usize>(),
                    n_cells,
                    "phantom or lost cells at n_cells={n_cells}, threads={threads}: {sizes:?}"
                );
                assert!(sizes.len() <= threads);
                assert!(sizes.iter().all(|&c| c > 0), "empty shard: {sizes:?}");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn sharded_simulation_has_no_phantom_cells() {
        let m = model("Plonsey");
        // The original bug: 5 cells over 4 threads made shards of
        // 2+2+1+1 = 6 cells. Check that shape and a few other uneven ones.
        for (n_cells, threads) in [(5, 4), (3, 8), (7, 3), (64, 5), (1, 4)] {
            let wl = Workload {
                n_cells,
                steps: 0,
                dt: 0.01,
            };
            let sharded = ShardedSimulation::new(&m, PipelineKind::Baseline, &wl, threads);
            assert_eq!(
                sharded.n_cells(),
                n_cells,
                "total cells wrong for n_cells={n_cells}, threads={threads}"
            );
            assert!(sharded.threads() <= threads);
            for i in 0..sharded.threads() {
                assert!(sharded.shard_n_cells(i) > 0);
            }
        }
    }

    #[test]
    fn stream_bandwidth_is_plausible() {
        let bw = measure_stream_bandwidth();
        assert!(bw > 1e8, "implausibly low bandwidth {bw}");
        assert!(bw < 1e12, "implausibly high bandwidth {bw}");
    }

    #[test]
    fn measure_median_returns_middle() {
        let mut i = 0;
        let t = measure_median(3, || {
            i += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(i, 3);
        assert!(t >= 0.001);
    }

    /// Even sample counts must average the two middle elements; the old
    /// `times[len / 2]` returned the upper middle (here: 3.0, not 2.5).
    #[test]
    fn measure_median_even_count_averages_middle_pair() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        let mut it = samples.iter();
        let med = measure_median_secs(4, || *it.next().unwrap());
        assert!((med - 2.5).abs() < 1e-12, "even-count median {med}");
        let samples = [5.0, 1.0, 3.0];
        let mut it = samples.iter();
        let med = measure_median_secs(3, || *it.next().unwrap());
        assert!((med - 3.0).abs() < 1e-12, "odd-count median {med}");
    }
}
