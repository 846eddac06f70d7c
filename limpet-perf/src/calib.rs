//! Host-speed calibration.
//!
//! The 2-core virtual host this benchmark is gated on flips between two
//! speed modes about 25 % apart, for seconds at a time (a busy SMT
//! sibling or a clock change — it shows identically in a pure arithmetic
//! loop, and no guest counter reports it). A median over a run cannot
//! remove that: a run of tens of seconds is often mostly in one mode, so
//! run medians are themselves bimodal, and a 25 % swing buries the 5–10 %
//! regressions the benchmark exists to catch.
//!
//! So every timed operation is bracketed by a fixed **reference kernel**
//! (≈ 0.25–0.3 ms of arithmetic that shares no code with the system under
//! test), and its wall time is scaled by how fast the host ran that
//! kernel around it:
//!
//! ```text
//! time at reference speed = wall time × NOMINAL / mean(ref before, ref after)
//! ```
//!
//! Every time the benchmark reports is at reference speed; for the
//! end-to-end ones the raw wall time sits beside it in the result file
//! (`wall_clock`). Short operations are paced one by one ([`Pace`]); a
//! set-up of seconds on every core is scaled by a background sampler's
//! median ([`sampled`]).
//!
//! What this cannot do: correct time spent waiting for the disk (an
//! `fsync` does not speed up with the CPU), or a mode flip inside one
//! long operation. Both are second-order for the operations timed here.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Seconds the reference kernel takes in the fast mode of the host the
/// benchmark was defined on. Only a scale: it makes values at reference
/// speed read like milliseconds on that host. Changing it rescales every
/// end-to-end time, so it may change only in a benchmark PR.
pub const NOMINAL_SECS: f64 = 0.000_24;

const LANES: usize = 4096;
const PASSES: usize = 20;

/// Runs the reference kernel once; returns its wall seconds.
///
/// A dependent chain per element — a degree-8 polynomial, then the
/// fractional part so the value stays in `[0, 1)` — over a buffer that
/// fits L1, repeated [`PASSES`] times. Floating-point multiply-add
/// throughput and latency, like the interpreter's inner loops, and
/// nothing from the crates under test: a change to `vmath` or the VM
/// must not move the yardstick.
pub fn reference_secs() -> f64 {
    let mut buf = [0.0f64; LANES];
    for (i, x) in buf.iter_mut().enumerate() {
        *x = (i as f64 + 0.5) / LANES as f64;
    }
    let started = Instant::now();
    for _ in 0..PASSES {
        for x in buf.iter_mut() {
            let v = *x;
            let p = 0.1
                + v * (0.9
                    + v * (0.45
                        + v * (0.15
                            + v * (0.0375
                                + v * (0.0075 + v * (0.00125 + v * (0.00018 + v * 0.00002)))))));
            *x = (p * 7.0).fract();
        }
        black_box(&mut buf);
    }
    started.elapsed().as_secs_f64()
}

/// Pairs timed operations with reference samples: each operation is
/// scaled by the mean of the sample taken before it and the one taken
/// after it (which is the next operation's "before").
#[derive(Debug)]
pub struct Pace {
    last: f64,
    samples: Vec<f64>,
}

impl Pace {
    /// Takes the first reference sample.
    pub fn start() -> Pace {
        let last = reference_secs();
        Pace {
            last,
            samples: vec![last],
        }
    }

    /// Call right after an operation that took `secs` of wall time:
    /// samples the reference kernel again and returns `secs` at reference
    /// speed.
    pub fn scale(&mut self, secs: f64) -> f64 {
        self.scale_with(secs, reference_secs())
    }

    fn scale_with(&mut self, secs: f64, after: f64) -> f64 {
        let before = std::mem::replace(&mut self.last, after);
        self.samples.push(after);
        secs * NOMINAL_SECS / ((before + after) / 2.0)
    }

    /// Every reference sample taken, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Runs `f` while a sampler thread runs the reference kernel every
/// 50 ms, and returns `f`'s result with its wall seconds at reference
/// speed (scaled by the median sample). For operations too long and too
/// parallel for [`Pace`] — a set-up of several seconds on every core —
/// where two samples at the ends would say little about the middle. The
/// sampler costs half a percent of one core.
pub fn sampled<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            loop {
                samples.push(reference_secs());
                if stop.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let started = Instant::now();
        let r = f();
        let wall = started.elapsed().as_secs_f64();
        // Relaxed: the flag publishes nothing but itself.
        stop.store(true, Ordering::Relaxed);
        let samples = sampler.join().expect("the sampler does not panic");
        (r, wall * NOMINAL_SECS / crate::stats::median(&samples))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        // An operation that costs 100 reference kernels reads the same
        // whether the host runs fast or 30 % slower.
        let at = |speed: f64| {
            let kernel = NOMINAL_SECS * speed;
            let mut pace = Pace {
                last: kernel,
                samples: Vec::new(),
            };
            pace.scale_with(100.0 * kernel, kernel)
        };
        assert!((at(1.0) - at(1.3)).abs() < 1e-12);
        assert!((at(1.0) - 100.0 * NOMINAL_SECS).abs() < 1e-12);
    }

    #[test]
    fn scaling_uses_the_samples_on_both_sides() {
        let mut pace = Pace {
            last: NOMINAL_SECS,
            samples: Vec::new(),
        };
        // Fast before, 50 % slower after: scaled by the mean, 1.25.
        let scaled = pace.scale_with(1.0, 1.5 * NOMINAL_SECS);
        assert!((scaled - 0.8).abs() < 1e-12);
        assert_eq!(pace.samples(), [1.5 * NOMINAL_SECS]);
        assert_eq!(pace.last, 1.5 * NOMINAL_SECS);
    }

    #[test]
    fn sampled_returns_the_result_and_a_positive_time() {
        let (value, secs) = sampled(|| {
            std::thread::sleep(Duration::from_millis(120));
            42
        });
        assert_eq!(value, 42);
        // 120 ms of wall at anything between 1/20 and 20x reference speed.
        assert!(secs > 0.006 && secs < 2.4, "{secs}");
    }

    #[test]
    fn reference_kernel_runs_and_takes_measurable_time() {
        let secs = reference_secs();
        assert!(secs > 1e-5 && secs < 0.5, "{secs}");
    }
}
