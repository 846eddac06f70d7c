//! The `bench` binary — the counterpart of openCARP's `./bin/bench`
//! (paper §4 and appendix A.7): runs one ionic model over a cell
//! population for a simulated duration and reports the execution time.
//!
//! ```text
//! bench <model> [--duration MS] [--dt MS] [--cells N]
//!       [--config baseline|sse|avx2|avx512|icc|aos|nolut|spline]
//!       [--bcl MS] [--list] [--emit-ir] [--emit-c] [--validate]
//! ```

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{KernelCache, PipelineKind, Simulation, Stimulus, Workload};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: bench <model|--model-file F> [--duration MS] [--dt MS] [--cells N] [--threads T]\n\
         \x20             [--config baseline|sse|avx2|avx512|icc|aos|nolut|spline]\n\
         \x20             [--bcl MS] [--emit-ir] [--emit-c] [--validate]\n\
         \x20      bench --list"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        println!("43 ionic models (roster order, small -> large):");
        for e in &limpet_models::ROSTER {
            println!("  {:24} {:7} {:?}", e.name, e.class.name(), e.kind);
        }
        return;
    }
    // `--model-file path.model` loads a user model instead of a roster name.
    let file_model = args
        .iter()
        .position(|a| a == "--model-file")
        .and_then(|i| args.get(i + 1))
        .map(|p| match limpet_models::load_file(p) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("failed to load {p}: {e}");
                std::process::exit(2);
            }
        });
    let model_name: &str = match (&file_model, args.first()) {
        (Some(m), _) => &m.name,
        (None, Some(a)) if !a.starts_with("--") => {
            if limpet_models::entry(a).is_none() {
                eprintln!("unknown model {a}; try --list");
                std::process::exit(2);
            }
            a
        }
        _ => usage(),
    };
    let model_name = model_name.to_owned();
    let model_name = model_name.as_str();

    let mut duration: f64 = 100.0; // ms of simulated time
    let mut dt: f64 = 0.01;
    let mut cells = 8192usize;
    let mut config = PipelineKind::LimpetMlir(VectorIsa::Avx512);
    let mut bcl: f64 = 500.0;
    let mut threads = 1usize;
    let mut emit_ir = false;
    let mut emit_c = false;
    let mut validate = false;

    let mut it = args.iter().skip(if file_model.is_some() { 0 } else { 1 });
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model-file" => {
                let _ = it.next();
            }
            "--duration" => {
                duration = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--dt" => {
                dt = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--cells" => {
                cells = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--bcl" => {
                bcl = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--emit-ir" => emit_ir = true,
            "--emit-c" => emit_c = true,
            "--validate" => validate = true,
            "--config" => {
                config = match it.next().map(String::as_str) {
                    Some("baseline") => PipelineKind::Baseline,
                    Some("sse") => PipelineKind::LimpetMlir(VectorIsa::Sse),
                    Some("avx2") => PipelineKind::LimpetMlir(VectorIsa::Avx2),
                    Some("avx512") => PipelineKind::LimpetMlir(VectorIsa::Avx512),
                    Some("icc") => PipelineKind::CompilerSimd(VectorIsa::Avx512),
                    Some("aos") => PipelineKind::LimpetMlirAos(VectorIsa::Avx512),
                    Some("nolut") => PipelineKind::LimpetMlirNoLut(VectorIsa::Avx512),
                    Some("spline") => PipelineKind::LimpetMlirSpline(VectorIsa::Avx512),
                    _ => usage(),
                };
            }
            _ => usage(),
        }
    }

    let model = match &file_model {
        Some(m) => m.clone(),
        None => limpet_models::model(model_name),
    };

    if emit_ir {
        println!("{}", limpet_ir::print_module(&config.build(&model)));
        return;
    }
    if emit_c {
        let scalar = PipelineKind::Baseline.build(&model);
        match limpet_codegen::emit_c(&scalar) {
            Ok(c) => println!("{c}"),
            Err(e) => eprintln!("emit-c failed: {e}"),
        }
        return;
    }

    let steps = (duration / dt).round() as usize;
    let class = limpet_models::entry(model_name)
        .map(|e| e.class.name())
        .unwrap_or("custom");
    println!(
        "bench: {model_name} ({class}), {} cells, {steps} steps of {dt} ms ({duration} ms), config {}",
        cells,
        config.label(),
    );

    // Compile once through the shared cache: the sharded path below and
    // any --validate re-run reuse this kernel instead of re-lowering.
    let t0 = Instant::now();
    KernelCache::global().get_or_compile(&model, config);
    println!("compile: {:?} (cached for reuse)", t0.elapsed());

    let wl = Workload {
        n_cells: cells,
        steps: 0,
        dt,
    };
    if threads > 1 {
        // Real-thread sharded execution (one OS thread per shard).
        let mut sharded = limpet_harness::ShardedSimulation::new(&model, config, &wl, threads);
        let secs = sharded.run_threaded(steps);
        println!(
            "threads={threads}: {secs:.4}s wall ({:.3} us/step)",
            secs / steps as f64 * 1e6
        );
        println!("final: Vm = {:.4} mV", sharded.vm(0));
        return;
    }
    let mut sim = Simulation::new(&model, config, &wl);
    sim.set_stimulus(Stimulus {
        period: bcl,
        duration: 2.0,
        amplitude: 60.0,
    });

    let t0 = Instant::now();
    sim.run(steps);
    let elapsed = t0.elapsed();
    let per_step = elapsed.as_secs_f64() / steps as f64;
    println!(
        "run: {elapsed:?}  ({:.3} us/step, {:.1} Mcell-steps/s)",
        per_step * 1e6,
        (cells as f64 * steps as f64) / elapsed.as_secs_f64() / 1e6
    );
    println!("final: Vm = {:.4} mV, Iion = {:.6}", sim.vm(0), sim.iion(0));

    if validate {
        // Re-run under the baseline pipeline and compare end states.
        let mut reference = Simulation::new(&model, PipelineKind::Baseline, &wl);
        reference.set_stimulus(Stimulus {
            period: bcl,
            duration: 2.0,
            amplitude: 60.0,
        });
        reference.run(steps);
        let dv = (reference.vm(0) - sim.vm(0)).abs();
        let tol = if matches!(config, PipelineKind::LimpetMlirSpline(_))
            || matches!(config, PipelineKind::LimpetMlirNoLut(_))
        {
            1.0 // different interpolation/tabulation: loose bound
        } else {
            1e-4
        };
        if dv < tol {
            println!("validate: OK (|dVm| = {dv:.2e} vs baseline)");
        } else {
            println!("validate: FAILED (|dVm| = {dv:.2e} vs baseline)");
            std::process::exit(1);
        }
    }
}
