//! Byte-identity gate for the EasyML front end: for every roster model
//! and for a fixed-seed list of synthetic specs (drawn the way
//! `crates/models/tests/proptest_models.rs` draws them), the FNV-1a of
//! the checked model's `Debug` text must equal the value recorded in
//! `frontend_fingerprints.csv`.
//!
//! The `Debug` text covers every field of the model — names, values,
//! methods, flags, statement order, line numbers and the shape of every
//! expression — so a lexer, parser or analyzer change that alters any of
//! them fails here, before lowering sees it. `module_fingerprints.csv`
//! pins what the compiler then prints.

use limpet_easyml::{analyze, parse_model, Model};
use limpet_harness::fnv1a;
use limpet_models::{generate, source, SynthSpec, ROSTER};
use proptest::prelude::*;

/// Synthetic specs in the space `proptest_models.rs` samples.
fn spec_strategy() -> impl Strategy<Value = SynthSpec> {
    (
        0usize..6,  // gates
        0usize..8,  // relax
        0usize..3,  // markov
        0usize..12, // algebraic
        0usize..3,  // branches
        any::<bool>(),
        any::<bool>(),
        "[A-Z][a-z]{2,8}",
    )
        .prop_filter_map(
            "need at least one state variable",
            |(g, r, mk, alg, br, lut, heavy, name)| {
                if g + r + mk == 0 {
                    return None;
                }
                Some(SynthSpec {
                    name,
                    n_gates: g,
                    n_relax: r,
                    n_markov: mk,
                    n_algebraic: alg,
                    n_branches: br,
                    use_lut: lut,
                    math_heavy: heavy,
                })
            },
        )
}

const GENERATED: usize = 64;

fn check(name: &str, src: &str) -> Model {
    let ast = parse_model(name, src).unwrap_or_else(|e| panic!("{name}: {e}"));
    analyze(&ast).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn debug_fnv(model: &Model) -> u64 {
    fnv1a(format!("{model:?}").as_bytes())
}

#[test]
fn checked_models_match_the_recorded_fingerprints() {
    let mut computed = String::from("kind,name,spec,fnv1a_of_debug\n");
    for entry in &ROSTER {
        let m = check(entry.name, &source(entry.name));
        computed.push_str(&format!("roster,{},-,{:016x}\n", entry.name, debug_fnv(&m)));
    }
    let mut rng = proptest::test_rng("frontend_fingerprints::generated");
    let strategy = spec_strategy();
    for _ in 0..GENERATED {
        let spec = strategy.generate(&mut rng);
        let m = check(&spec.name, &generate(&spec));
        computed.push_str(&format!(
            "generated,{},g{}r{}m{}a{}b{}{}{},{:016x}\n",
            spec.name,
            spec.n_gates,
            spec.n_relax,
            spec.n_markov,
            spec.n_algebraic,
            spec.n_branches,
            if spec.use_lut { "L" } else { "" },
            if spec.math_heavy { "H" } else { "" },
            debug_fnv(&m)
        ));
    }
    let recorded = include_str!("frontend_fingerprints.csv");
    for (got, want) in computed.lines().zip(recorded.lines()) {
        assert_eq!(got, want, "checked model drifted from the fixture");
    }
    assert_eq!(computed.lines().count(), recorded.lines().count());
}

#[test]
fn two_parses_of_one_source_agree() {
    for entry in &ROSTER {
        let src = source(entry.name);
        let (a, b) = (
            parse_model(entry.name, &src).unwrap(),
            parse_model(entry.name, &src).unwrap(),
        );
        assert_eq!(a, b, "{}", entry.name);
        assert_eq!(analyze(&a).unwrap(), analyze(&b).unwrap(), "{}", entry.name);
    }
}
