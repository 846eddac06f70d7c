//! Differential tests: every compilation pipeline (baseline, limpetMLIR at
//! each ISA width, compiler-simd, both data layouts) must produce the same
//! simulation trajectory — vectorization and layout are performance
//! transformations, not semantic ones.
//!
//! The tolerance accounts for the vmath (SVML stand-in) kernels being
//! ~1e-12-accurate rather than bit-identical to `std`.
//!
//! One kernel, though, must compute the same bits however it is run:
//! `run_step`/`run_range` (several blocks per dispatch, on the widest
//! instruction set the CPU and the kernel's width allow) against
//! `run_step_profiled` (one block per dispatch, portable build), over the
//! whole roster.

use limpet_codegen::pipeline::{self, Layout, VectorIsa};
use limpet_easyml::Model;
use limpet_ir::Module;
use limpet_vm::{CellStates, ExtArrays, Kernel, ModelInfo, SimContext, StateLayout};

/// A small but representative gated ionic model: Rush-Larsen gate, LUT on
/// Vm, conditional branch, parameter, and an external current output.
const MODEL: &str = "
Vm; .external(); .lookup(-100, 100, 0.05);
Iion; .external();
group{ g_max = 0.4; E_rev = -85.0; }.param();
n_inf = 1.0 / (1.0 + exp(-(Vm + 30.0) / 10.0));
tau_n = 1.0 + 4.0 * exp(-square(Vm + 30.0) / 500.0);
diff_n = (n_inf - n) / tau_n;
n_init = 0.05;
n;.method(rush_larsen);
diff_w = alpha * (1.0 - w) - beta * w;
alpha = 0.02 * exp(Vm / 25.0);
beta = 0.05 * exp(-Vm / 30.0);
w_init = 0.2;
w;.method(rk2);
diff_c = (target - c) / 20.0;
c_init = 0.1;
if (Vm > 0.0) { target = 1.0; } else { target = 0.0; }
Iion = g_max * n * w * (Vm - E_rev) + 0.01 * c;
";

fn model() -> Model {
    limpet_easyml::compile_model("Diff", MODEL).unwrap()
}

fn info(m: &Model) -> ModelInfo {
    ModelInfo {
        state_names: m.states.iter().map(|s| s.name.clone()).collect(),
        state_inits: m.states.iter().map(|s| s.init).collect(),
        ext_names: m.externals.iter().map(|e| e.name.clone()).collect(),
        ext_inits: m.externals.iter().map(|e| e.init).collect(),
        params: m
            .params
            .iter()
            .map(|p| (p.name.clone(), p.default))
            .collect(),
    }
}

/// Runs `steps` of a voltage-clamp protocol and returns the final state
/// and Iion of every cell.
fn simulate(module: &Module, mi: &ModelInfo, layout: StateLayout, steps: usize) -> Vec<f64> {
    let kernel = Kernel::from_module(module, mi).unwrap();
    let n_cells = 32;
    let mut state = kernel.new_states(n_cells, layout);
    let mut ext: ExtArrays = kernel.new_ext(n_cells);
    let dt = 0.02;
    for step in 0..steps {
        let t = step as f64 * dt;
        // Drive Vm with a per-cell waveform (stimulus + relaxation).
        for cell in 0..n_cells {
            let phase = cell as f64 * 0.37;
            let vm = -80.0 + 95.0 * (0.5 + 0.5 * (0.11 * t + phase).sin());
            ext.set(cell, 0, vm);
        }
        kernel.run_step(&mut state, &mut ext, None, SimContext { dt, t });
    }
    let mut out = Vec::new();
    for cell in 0..n_cells {
        for var in 0..state.n_vars() {
            out.push(state.get(cell, var));
        }
        out.push(ext.get(cell, 1)); // Iion
    }
    out
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let denom = x.abs().max(1e-9);
        let rel = (x - y).abs() / denom;
        assert!(
            rel < tol,
            "{what}: element {i} differs: {x} vs {y} (rel {rel:.3e})"
        );
    }
}

#[test]
fn all_pipelines_agree_on_trajectory() {
    let m = model();
    let mi = info(&m);
    let steps = 400;

    let base = pipeline::baseline(&m);
    let reference = simulate(&base.module, &mi, StateLayout::Aos, steps);
    assert!(
        reference.iter().all(|v| v.is_finite()),
        "baseline produced non-finite values"
    );
    // The trajectory must actually evolve (guard against a no-op kernel).
    assert!(reference.iter().any(|&v| v != 0.0 && v != 0.05 && v != 0.2));

    for isa in VectorIsa::ALL {
        let block = isa.lanes();
        let opt = pipeline::limpet_mlir(&m, isa, Layout::AoSoA { block });
        let got = simulate(
            &opt.module,
            &mi,
            StateLayout::AoSoA {
                block: block as usize,
            },
            steps,
        );
        assert_close(&reference, &got, 1e-6, isa.name());
    }
}

#[test]
fn layouts_agree_exactly_for_same_module() {
    let m = model();
    let mi = info(&m);
    let opt = pipeline::limpet_mlir(&m, VectorIsa::Avx512, Layout::AoSoA { block: 8 });
    let a = simulate(&opt.module, &mi, StateLayout::Aos, 200);
    let b = simulate(&opt.module, &mi, StateLayout::AoSoA { block: 8 }, 200);
    // Same module, different storage: bit-identical.
    assert_eq!(a, b);
}

#[test]
fn compiler_simd_agrees() {
    let m = model();
    let mi = info(&m);
    let base = pipeline::baseline(&m);
    let reference = simulate(&base.module, &mi, StateLayout::Aos, 200);
    let icc = pipeline::compiler_simd(&m, VectorIsa::Avx512);
    let got = simulate(&icc.module, &mi, StateLayout::Aos, 200);
    assert_close(&reference, &got, 1e-6, "compiler-simd");
}

#[test]
fn no_lut_agrees_with_lut() {
    let m = model();
    let mi = info(&m);
    let with = pipeline::limpet_mlir(&m, VectorIsa::Avx2, Layout::AoSoA { block: 4 });
    let without = pipeline::limpet_mlir_no_lut(&m, VectorIsa::Avx2);
    let a = simulate(&with.module, &mi, StateLayout::AoSoA { block: 4 }, 200);
    let b = simulate(&without.module, &mi, StateLayout::AoSoA { block: 4 }, 200);
    // LUT interpolation error at step 0.05 over smooth rates: small but
    // not zero.
    assert_close(&a, &b, 1e-3, "lut-vs-nolut");
}

#[test]
fn scalar_optimized_agrees_bitwise_modulo_reassociation() {
    // Running the scalar optimization pipeline (width 1: const-prop, CSE,
    // LICM, DCE — no vectorize) must not change semantics either.
    let m = model();
    let mi = info(&m);
    let base = pipeline::baseline(&m);
    let reference = simulate(&base.module, &mi, StateLayout::Aos, 200);

    let mut opt =
        limpet_codegen::lower_model(&m, &limpet_codegen::CodegenOptions { use_lut: true });
    let pm = limpet_passes::standard_pipeline(1);
    pm.run(&mut opt.module).expect("pipeline runs");
    opt.module.attrs.set("layout", "aos");
    let got = simulate(&opt.module, &mi, StateLayout::Aos, 200);
    assert_close(&reference, &got, 1e-9, "scalar-optimized");
}

#[test]
fn all_integration_methods_run_stably() {
    for method in ["fe", "rk2", "rk4", "rush_larsen", "sundnes", "markov_be"] {
        let src = format!(
            "Vm; .external();\n\
             diff_g = (g_inf - g) / 3.0;\n\
             g_inf = 1.0 / (1.0 + exp(-Vm / 8.0));\n\
             g_init = 0.5;\n\
             g;.method({method});"
        );
        let m = limpet_easyml::compile_model("M", &src).unwrap();
        let mi = info(&m);
        for build in [
            pipeline::baseline(&m),
            pipeline::limpet_mlir(&m, VectorIsa::Avx512, Layout::AoSoA { block: 8 }),
        ] {
            let kernel = Kernel::from_module(&build.module, &mi).unwrap();
            let layout = match build.module.attrs.str_of("layout") {
                Some("aos") => StateLayout::Aos,
                _ => StateLayout::AoSoA { block: 8 },
            };
            let mut state: CellStates = kernel.new_states(8, layout);
            let mut ext = kernel.new_ext(8);
            for step in 0..1000 {
                for cell in 0..8 {
                    ext.set(cell, 0, 20.0 * ((step as f64) * 0.01).sin());
                }
                kernel.run_step(
                    &mut state,
                    &mut ext,
                    None,
                    SimContext {
                        dt: 0.01,
                        t: step as f64 * 0.01,
                    },
                );
            }
            // A gate must stay within [0, 1] under every method.
            for cell in 0..8 {
                let g = state.get(cell, 0);
                assert!(
                    (0.0..=1.0).contains(&g),
                    "method {method}: gate escaped to {g}"
                );
            }
        }
    }
}

/// Every bit of every cell, padding included: all state variables, then
/// all externals.
fn all_bits(state: &CellStates, ext: &ExtArrays) -> Vec<u64> {
    let mut bits: Vec<u64> = state.raw().iter().map(|v| v.to_bits()).collect();
    for var in 0..ext.n_vars() {
        bits.extend(ext.array(var).iter().map(|v| v.to_bits()));
    }
    bits
}

/// The batched, ISA-specific step loop against the one-block-per-dispatch
/// portable one: for every roster model at every width, under both layouts
/// (AoS gathers lane by lane), with fewer cells than one batch, with a
/// ragged end, and with `run_range` cut at points that are no multiple of
/// the batch, every state and external value stays bit-identical.
#[test]
fn batched_isa_loop_is_bit_identical_to_the_profiled_reference_on_the_roster() {
    println!("step loop build: {}", limpet_vm::step_isa());
    let ctx = |step: usize| SimContext {
        dt: 0.01,
        t: step as f64 * 0.01,
    };
    for entry in &limpet_models::ROSTER {
        let m = limpet_models::model(entry.name);
        let mi = info(&m);
        let vm_index = mi.ext_names.iter().position(|n| n == "Vm");
        let mut modules = vec![(1, pipeline::baseline(&m).module)];
        for isa in VectorIsa::ALL {
            let block = isa.lanes();
            let built = pipeline::limpet_mlir(&m, isa, Layout::AoSoA { block });
            modules.push((block as usize, built.module));
        }
        for (width, module) in &modules {
            let width = *width;
            let kernel = Kernel::from_module(module, &mi).unwrap();
            for layout in [StateLayout::Aos, StateLayout::AoSoA { block: width }] {
                // 8 cells are fewer than a batch at widths 4 and 8; 72 are
                // whole batches and a ragged end at every width.
                for n_cells in [8, 72] {
                    let what = format!("{} W={width} {layout:?} n={n_cells}", entry.name);
                    let mut state = kernel.new_states(n_cells, layout);
                    let mut ext = kernel.new_ext(n_cells);
                    if let Some(vm) = vm_index {
                        // Desynchronize the cells so lanes differ.
                        for cell in 0..n_cells {
                            ext.set(cell, vm, ext.get(cell, vm) + 1.7 * cell as f64);
                        }
                    }
                    let (mut ref_state, mut ref_ext) = (state.clone(), ext.clone());
                    let (mut cut_state, mut cut_ext) = (state.clone(), ext.clone());
                    let n = state.padded_cells();
                    // Cuts one block in from either end, where there is room.
                    let cuts = [0, width, (n - width).max(width), n];
                    for step in 0..3 {
                        kernel.run_step_profiled(&mut ref_state, &mut ref_ext, None, ctx(step));
                        kernel.run_step(&mut state, &mut ext, None, ctx(step));
                        for range in cuts.windows(2).filter(|r| r[0] < r[1]) {
                            let (lo, hi) = (range[0], range[1]);
                            kernel.run_range(&mut cut_state, &mut cut_ext, None, ctx(step), lo, hi);
                        }
                        let want = all_bits(&ref_state, &ref_ext);
                        assert!(
                            all_bits(&state, &ext) == want,
                            "{what}: run_step, step {step}"
                        );
                        assert!(
                            all_bits(&cut_state, &cut_ext) == want,
                            "{what}: run_range over {cuts:?}, step {step}"
                        );
                    }
                }
            }
        }
    }
}
