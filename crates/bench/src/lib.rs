//! # limpet-bench
//!
//! Criterion benches for the three ablations nothing else measures — FMA
//! contraction, if-conversion, spline LUTs; see the `benches/` directory.
//! Every figure of the paper is a `figures` runner, and every timed layer a
//! `limpet-perf` metric (`BENCHMARK.json`). This library only hosts shared
//! helpers.

#![warn(missing_docs)]

use limpet_harness::{PipelineKind, Simulation, Workload};

/// Builds a ready-to-run simulation for benchmarking.
pub fn bench_sim(model_name: &str, config: PipelineKind, n_cells: usize) -> Simulation {
    let m = limpet_models::model(model_name);
    let wl = Workload {
        n_cells,
        steps: 0,
        dt: 0.01,
    };
    Simulation::new(&m, config, &wl)
}
