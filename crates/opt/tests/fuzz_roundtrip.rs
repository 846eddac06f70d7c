//! `limpet-opt` round-trip fuzzing (closes the ROADMAP open item): random
//! pass pipelines over random synthetic-model IR must keep every
//! parser/printer/pass invariant — the pipeline runs with
//! verify-after-each-pass, the result survives a print → parse → print
//! fixpoint, and the `limpet-opt` driver itself reproduces the same
//! output byte for byte. The bytecode compiled from the result survives
//! its own text round trip, and its `lutrow` lines — the one instruction
//! with a variable-length operand list — are rejected once malformed.
//!
//! The in-tree proptest shim derives its RNG seed from the test path, so
//! the exact same cases run locally and in CI (the ci.sh fuzz smoke).

use limpet_ir::{parse_module, print_module, verify_module};
use limpet_models::{generate, SynthSpec};
use proptest::prelude::*;

/// Structural knobs spanning every synthetic-generator feature, small
/// enough that one case compiles in milliseconds.
fn spec_strategy() -> impl Strategy<Value = SynthSpec> {
    (
        // At least one gate: the generator's current mixers require a
        // non-empty state set.
        (1usize..3, 0usize..3, 0usize..2),
        (0usize..4, 0usize..3),
        prop_oneof![Just(false), Just(true)],
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(
            |((n_gates, n_relax, n_markov), (n_algebraic, n_branches), use_lut, math_heavy)| {
                SynthSpec {
                    // The name seeds the generator's RNG: distinct knobs,
                    // distinct equations.
                    name: format!(
                        "Fuzz{n_gates}{n_relax}{n_markov}{n_algebraic}{n_branches}{}{}",
                        u8::from(use_lut),
                        u8::from(math_heavy)
                    ),
                    n_gates,
                    n_relax,
                    n_markov,
                    n_algebraic,
                    n_branches,
                    use_lut,
                    math_heavy,
                }
            },
        )
}

/// A random pipeline over the registered passes, mirroring what a user
/// could type after `--pipeline`.
fn pipeline_strategy() -> impl Strategy<Value = String> {
    let pass = prop_oneof![
        Just("const-prop".to_owned()),
        Just("canonicalize".to_owned()),
        Just("cse".to_owned()),
        Just("licm".to_owned()),
        Just("dce".to_owned()),
        Just("fma-contract".to_owned()),
        Just("scalar-lut-mode".to_owned()),
        Just("cubic-lut-mode".to_owned()),
        (1u32..4).prop_map(|i| format!("vectorize{{width={}}}", 1u32 << i)),
    ];
    prop::collection::vec(pass, 0..6).prop_map(|passes| passes.join(","))
}

fn lower(spec: &SynthSpec) -> limpet_ir::Module {
    let src = generate(spec);
    let model = limpet_easyml::compile_model(&spec.name, &src)
        .unwrap_or_else(|e| panic!("synthetic model {} must compile: {e}", spec.name));
    limpet_codegen::lower_model(&model, &limpet_codegen::CodegenOptions { use_lut: true }).module
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random pipeline over random IR: verify-after-each-pass holds, and
    /// the result is a print → parse → print fixpoint.
    #[test]
    fn random_pipeline_keeps_roundtrip_invariants(
        spec in spec_strategy(),
        pipeline in pipeline_strategy(),
    ) {
        let mut module = lower(&spec);
        let mut pm = limpet_passes::parse_pipeline(&pipeline)
            .unwrap_or_else(|e| panic!("pipeline '{pipeline}' must parse: {e}"));
        pm.verify_each(true);
        pm.run(&mut module).unwrap_or_else(|e| {
            panic!("pipeline '{pipeline}' broke IR invariants on {}: {e}", spec.name)
        });

        let printed = print_module(&module);
        let reparsed = parse_module(&printed)
            .unwrap_or_else(|e| panic!("printed module must reparse: {e}\n{printed}"));
        verify_module(&reparsed)
            .unwrap_or_else(|e| panic!("reparsed module must verify: {e}"));
        prop_assert_eq!(print_module(&reparsed), printed);
    }

    /// The driver end to end: `limpet-opt --pipeline <random> <file>`
    /// exits 0 and prints exactly what the in-process pipeline produced.
    #[test]
    fn driver_matches_in_process_pipeline(
        spec in spec_strategy(),
        pipeline in pipeline_strategy(),
    ) {
        let mut module = lower(&spec);
        let input = print_module(&module);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("limpet-fuzz-{}-{}.mlir", std::process::id(), spec.name));
        std::fs::write(&path, &input).unwrap();

        let mut args = vec![path.to_string_lossy().into_owned()];
        if !pipeline.is_empty() {
            args.insert(0, pipeline.clone());
            args.insert(0, "--pipeline".to_owned());
        }
        let mut stdout = Vec::new();
        let mut stderr = Vec::new();
        let code = limpet_opt::run(&args, &mut stdout, &mut stderr);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(
            code, 0,
            "driver failed on '{}': {}", pipeline, String::from_utf8_lossy(&stderr)
        );

        let mut pm = limpet_passes::parse_pipeline(&pipeline).unwrap();
        pm.verify_each(true);
        pm.run(&mut module).unwrap();
        prop_assert_eq!(String::from_utf8_lossy(&stdout), print_module(&module));
    }

    /// Bytecode of a random pipeline over a random LUT model, raw and
    /// optimized: the text form round-trips, every row lookup has the
    /// shape the deserializer demands, and each way of breaking that shape
    /// is refused.
    #[test]
    fn bytecode_with_lut_rows_roundtrips_and_rejects_malformed_rows(
        spec in spec_strategy(),
        pipeline in pipeline_strategy(),
    ) {
        let mut module = lower(&SynthSpec { use_lut: true, ..spec });
        let pm = limpet_passes::parse_pipeline(&pipeline).unwrap();
        pm.run(&mut module).unwrap();
        let mut program = limpet_vm::compile_program(&module, &[], &[], &[])
            .unwrap_or_else(|e| panic!("pipeline '{pipeline}' must compile to bytecode: {e}"));
        for optimize in [false, true] {
            if optimize {
                limpet_vm::optimize_program(&mut program);
            }
            let text = limpet_vm::serialize_program(&program);
            let back = limpet_vm::deserialize_program(&text)
                .unwrap_or_else(|e| panic!("serialized program must reparse: {e}\n{text}"));
            prop_assert_eq!(&back, &program);

            let Some(row) = text.lines().find(|l| l.starts_with("lutrow ")) else {
                continue;
            };
            // lutrow <table> <key> <mode> <n> (<col> <dst>)*
            let t: Vec<&str> = row.split(' ').collect();
            let n: usize = t[4].parse().unwrap();
            prop_assert!(n >= 1 && t.len() == 5 + 2 * n, "{}", row);
            let head = t[..4].join(" ");
            let pairs = t[5..].join(" ");
            let broken = [
                format!("{head} 0"),
                format!("{head} {} {pairs} 0 {}", n + 1, t[6]),
                format!("{head} {n} {} {} {}", t[5], t[2], t[7..].join(" ")),
                format!("{head} {} {pairs}", n + 1),
                format!("{head} {n} {pairs} 0"),
            ];
            for bad in broken {
                let mutated = text.replacen(row, bad.trim_end(), 1);
                prop_assert!(
                    limpet_vm::deserialize_program(&mutated).is_err(),
                    "accepted malformed row '{}' (was '{}')", bad, row
                );
            }
        }
    }
}
