//! Differential proof that the VM's post-compile bytecode optimizer is
//! bit-exact: for every roster model, under configurations covering
//! vector widths {1, 4, 8} and both storage layouts (AoS and AoSoA),
//! the optimized and unoptimized kernels must produce bit-identical
//! state trajectories — not approximately equal, identical to the last
//! mantissa bit, because every rewrite (copy coalescing, mul+add→fma
//! with the engine's split fma semantics, constant-operand forms, the
//! Rush-Larsen gate update as one instruction, register compaction)
//! preserves the exact arithmetic.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{model_info, storage_layout, PipelineKind, Simulation, Workload};
use limpet_models::ROSTER;
use limpet_vm::{optimize_program_with, Instr, Kernel, Profile};

/// Widths 1 (baseline, AoS), 4 (AVX2, AoS layout ablation), and
/// 8 (AVX-512, AoSoA) — every lane count and layout the engine runs.
const CONFIGS: [PipelineKind; 3] = [
    PipelineKind::Baseline,
    PipelineKind::LimpetMlirAos(VectorIsa::Avx2),
    PipelineKind::LimpetMlir(VectorIsa::Avx512),
];

/// Runs one model under `config`, optimizer on and off, and demands
/// bit-identical state after several desynchronized steps.
fn check_bit_exact(m: &limpet_easyml::Model, config: PipelineKind) {
    let wl = Workload {
        n_cells: 8,
        steps: 0,
        dt: 0.02,
    };
    let info = model_info(m);
    let module = config.build(m);
    let layout = storage_layout(&module);
    let (k_opt, stats, k_raw) = Kernel::from_module_both(&module, &info)
        .unwrap_or_else(|e| panic!("{} {}: {e}", m.name, config.label()));
    let mut opt = Simulation::with_kernel(k_opt, layout, &wl);
    let mut raw = Simulation::with_kernel(k_raw, layout, &wl);
    assert!(
        stats.instrs_after < stats.instrs_before,
        "{} {}: optimizer removed nothing",
        m.name,
        config.label()
    );
    // Desynchronize the cells so lanes take different paths.
    for cell in 0..wl.n_cells {
        let dv = cell as f64 * 1.5;
        opt.perturb_vm(cell, dv);
        raw.perturb_vm(cell, dv);
    }
    for _ in 0..6 {
        opt.step();
        raw.step();
    }
    for cell in 0..wl.n_cells {
        for s in &m.states {
            let a = opt.state_of(cell, &s.name).unwrap();
            let b = raw.state_of(cell, &s.name).unwrap();
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {} cell {cell} state {}: {a} vs {b}",
                m.name,
                config.label(),
                s.name
            );
        }
    }
}

/// One sweep over the full roster: each model is parsed and checked once
/// per configuration (model sources are parsed a single time and shared
/// across the three configurations — this is the long pole of the test).
#[test]
fn optimizer_is_bit_exact_on_every_roster_model_all_widths_and_layouts() {
    for entry in &ROSTER {
        let m = limpet_models::model(entry.name);
        for config in CONFIGS {
            check_bit_exact(&m, config);
        }
    }
}

/// The counts a profiled step reports that the ledger's `vm.flops_per_step`,
/// `vm.bytes_per_step` and `vm.math_calls_per_step` sum.
fn counts(p: &Profile) -> (u64, u64, u64) {
    (p.flops, p.bytes_read + p.bytes_written, p.math_calls)
}

/// Every roster model at width 1 (baseline) and width 8 (AVX-512), its
/// program optimized with and without the Rush-Larsen fusion: the two
/// compute the same bits and count the same work step by step — one
/// `RushLarsen` counts what the instructions it replaces did — and the
/// fused one dispatches fewer instructions wherever it fused a gate.
#[test]
fn rush_larsen_fusion_keeps_bits_and_profile_counts_over_the_roster() {
    let wl = Workload {
        n_cells: 16,
        steps: 0,
        dt: 0.02,
    };
    let mut gates = [0usize; 2];
    for entry in &ROSTER {
        let m = limpet_models::model(entry.name);
        let info = model_info(&m);
        for (width, config) in [
            PipelineKind::Baseline,
            PipelineKind::LimpetMlir(VectorIsa::Avx512),
        ]
        .into_iter()
        .enumerate()
        {
            let module = config.build(&m);
            let layout = storage_layout(&module);
            let (raw, ..) = Kernel::from_module_opt(&module, &info, false).unwrap();
            let [fused, unfused] = [true, false].map(|rush_larsen| {
                let mut program = raw.program().clone();
                optimize_program_with(&mut program, rush_larsen);
                raw.with_program(program).unwrap()
            });
            let fused_gates = fused
                .program()
                .instrs
                .iter()
                .filter(|i| matches!(i, Instr::RushLarsen { .. }))
                .count();
            gates[width] += fused_gates;
            let [mut f, mut u] = [fused, unfused].map(|k| {
                let mut sim = Simulation::with_kernel(k, layout, &wl);
                for cell in 0..wl.n_cells {
                    sim.perturb_vm(cell, cell as f64 * 1.5);
                }
                sim
            });
            let what = format!("{} {}", m.name, config.label());
            for step in 0..4 {
                let (pf, pu) = (f.step_profiled(), u.step_profiled());
                assert_eq!(counts(&pf), counts(&pu), "{what} step {step}");
                assert_eq!(pf.instrs < pu.instrs, fused_gates > 0, "{what} step {step}");
            }
            for cell in 0..wl.n_cells {
                for s in &m.states {
                    let (a, b) = (f.state_of(cell, &s.name), u.state_of(cell, &s.name));
                    let (a, b) = (a.unwrap(), b.unwrap());
                    assert_eq!(a.to_bits(), b.to_bits(), "{what} cell {cell} {}", s.name);
                }
            }
        }
    }
    // Every gate of the roster, at both widths.
    assert_eq!(gates, [274, 274]);
}
