//! Byte-identity gate for the compiler's textual output: for every roster
//! model under every pipeline configuration, the FNV-1a of `print_module`
//! of the freshly lowered module (LUT extraction + lowering, before any
//! pass) and of the final module (after the configuration's pipeline) must
//! equal the values recorded in `module_fingerprints.csv`.
//!
//! The golden digests, `lut_fingerprints.csv` and
//! `trajectory_fingerprints.csv` pin what the compiled kernels compute;
//! this pins the IR itself, so a change to extraction, lowering, a pass or
//! the printer that alters one op, one operand order or one printed
//! character fails here even when the numbers it computes stay equal.
//!
//! Each final module's `layout` attribute must also be what its
//! configuration states ([`PipelineKind::layout`]), which is where a
//! kernel-cache entry takes its layout from.

use limpet_codegen::{lower_model, CodegenOptions};
use limpet_harness::{all_pipeline_kinds, fnv1a, storage_layout, PipelineKind};
use limpet_ir::print_module;
use limpet_models::{model, ROSTER};

#[test]
fn roster_modules_match_the_recorded_fingerprints() {
    let mut computed = String::from("model,config,fnv1a_of_lowered,fnv1a_of_final\n");
    for entry in &ROSTER {
        let m = model(entry.name);
        let lowered = |use_lut| {
            fnv1a(print_module(&lower_model(&m, &CodegenOptions { use_lut }).module).as_bytes())
        };
        let (with_lut, without_lut) = (lowered(true), lowered(false));
        for kind in all_pipeline_kinds() {
            let lowered = match kind {
                PipelineKind::LimpetMlirNoLut(_) => without_lut,
                _ => with_lut,
            };
            let module = kind.build(&m);
            assert_eq!(storage_layout(&module), kind.layout(), "{}", kind.label());
            let built = fnv1a(print_module(&module).as_bytes());
            computed.push_str(&format!(
                "{},{},{lowered:016x},{built:016x}\n",
                entry.name,
                kind.label()
            ));
        }
    }
    let recorded = include_str!("module_fingerprints.csv");
    for (got, want) in computed.lines().zip(recorded.lines()) {
        assert_eq!(got, want, "printed module drifted from the fixture");
    }
    assert_eq!(computed.lines().count(), recorded.lines().count());
}
