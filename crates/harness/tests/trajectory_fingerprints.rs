//! Bit-identity gate for whole trajectories, independent of how the VM
//! executes a step: every roster model, under every pipeline
//! configuration (all three LUT interpolation modes, every lane count,
//! both layouts), with the optimized and the unoptimized bytecode, must
//! reach the state recorded in `trajectory_fingerprints.csv` — the FNV-1a
//! of `state_bits` after 100 steps of 64 cells whose membrane potentials
//! start from fixed, cell-dependent offsets, so the lanes of a vector
//! kernel index different LUT rows and feed `vmath` different inputs.
//!
//! The fixture was recorded at f9ea60c, before `Instr::LutRow` and the
//! branch-free `vmath::exp_block`/`log_block` existed; a change to the
//! bytecode, the optimizer, the engine, the interpolators or the math
//! kernels that alters any bit of any trajectory fails here.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{model_info, storage_layout, PipelineKind, Simulation, Workload};
use limpet_models::{model, ROSTER};
use limpet_vm::Kernel;

const CONFIGS: [PipelineKind; 8] = [
    PipelineKind::Baseline,
    PipelineKind::LimpetMlir(VectorIsa::Sse),
    PipelineKind::LimpetMlir(VectorIsa::Avx2),
    PipelineKind::LimpetMlir(VectorIsa::Avx512),
    PipelineKind::LimpetMlirNoLut(VectorIsa::Avx512),
    PipelineKind::LimpetMlirAos(VectorIsa::Avx512),
    // Scalar-call LUT interpolation at W=8, and the cubic interpolator.
    PipelineKind::CompilerSimd(VectorIsa::Avx512),
    PipelineKind::LimpetMlirSpline(VectorIsa::Avx512),
];

const CELLS: usize = 64;
const STEPS: usize = 100;

fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Offset of `cell`'s initial Vm in mV: 64 distinct values in ±20,
/// neighbours far apart.
fn vm_offset(cell: usize) -> f64 {
    ((cell * 37) % 64) as f64 * 0.625 - 20.0
}

fn fingerprint(kernel: Kernel, layout: limpet_vm::StateLayout) -> u64 {
    let wl = Workload {
        n_cells: CELLS,
        steps: STEPS,
        dt: 0.01,
    };
    let mut sim = Simulation::with_kernel(kernel, layout, &wl);
    for cell in 0..CELLS {
        sim.perturb_vm(cell, vm_offset(cell));
    }
    sim.run(STEPS);
    fnv1a(&sim.state_bits())
}

#[test]
fn roster_trajectories_match_the_recorded_fingerprints() {
    let mut computed = String::from("model,config,kernel,fnv1a_of_state_bits\n");
    for entry in &ROSTER {
        let m = model(entry.name);
        let info = model_info(&m);
        for config in CONFIGS {
            let module = config.build(&m);
            let layout = storage_layout(&module);
            let (opt, _, raw) = Kernel::from_module_both(&module, &info)
                .unwrap_or_else(|e| panic!("{} {}: {e}", m.name, config.label()));
            for (which, kernel) in [("opt", opt), ("raw", raw)] {
                computed.push_str(&format!(
                    "{},{},{which},{:016x}\n",
                    entry.name,
                    config.label(),
                    fingerprint(kernel, layout)
                ));
            }
        }
    }
    let recorded = include_str!("trajectory_fingerprints.csv");
    for (got, want) in computed.lines().zip(recorded.lines()) {
        assert_eq!(got, want, "trajectory drifted from the fixture");
    }
    assert_eq!(computed.lines().count(), recorded.lines().count());
}
