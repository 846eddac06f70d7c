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
//!
//! The fixture was recorded when each expression node was its own boxed
//! `Expr` and each name its own `String`; [`boxed_debug`] prints today's
//! flat model in that text, so the fixture holds across the change of
//! representation.

use limpet_easyml::{analyze, parse_model, ExprId, ExprRef, Exprs, Model, Stmt};
use limpet_harness::fnv1a;
use limpet_models::{generate, source, SynthSpec, ROSTER};
use proptest::prelude::*;
use std::fmt::Write;

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
    fnv1a(boxed_debug(model).as_bytes())
}

/// The `Debug` text of `model` as the boxed tree printed it: the fields
/// in order, each statement's name and expressions written out in place
/// of their symbols and node ids, and nothing of the table itself.
fn boxed_debug(model: &Model) -> String {
    let mut out = format!(
        "Model {{ name: {:?}, states: {:?}, externals: {:?}, params: {:?}, lookups: {:?}, stmts: ",
        model.name, model.states, model.externals, model.params, model.lookups
    );
    stmts(&mut out, &model.exprs, &model.stmts);
    out.push_str(" }");
    out
}

/// `[a, b, …]`, each item written by `item`.
fn list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
    out.push(']');
}

fn stmts(out: &mut String, x: &Exprs, body: &[Stmt]) {
    list(out, body, |out, s| match s {
        Stmt::Assign { lhs, expr: e, line } => {
            write!(out, "Assign {{ lhs: {:?}, expr: ", x.name(*lhs)).unwrap();
            expr(out, x, *e);
            write!(out, ", line: {line} }}").unwrap();
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            line,
        } => {
            out.push_str("If { cond: ");
            expr(out, x, *cond);
            out.push_str(", then_body: ");
            stmts(out, x, then_body);
            out.push_str(", else_body: ");
            stmts(out, x, else_body);
            write!(out, ", line: {line} }}").unwrap();
        }
    });
}

fn expr(out: &mut String, x: &Exprs, id: ExprId) {
    match x.get(id) {
        ExprRef::Num(v) => write!(out, "Num({v:?})").unwrap(),
        ExprRef::Var(name) => write!(out, "Var({:?})", x.name(name)).unwrap(),
        ExprRef::Unary(op, e) => {
            write!(out, "Unary({op:?}, ").unwrap();
            expr(out, x, e);
            out.push(')');
        }
        ExprRef::Binary(op, l, r) => {
            write!(out, "Binary({op:?}, ").unwrap();
            expr(out, x, l);
            out.push_str(", ");
            expr(out, x, r);
            out.push(')');
        }
        ExprRef::Call(name, args) => {
            write!(out, "Call({:?}, ", x.name(name)).unwrap();
            list(out, args.iter().copied(), |out, a| expr(out, x, a));
            out.push(')');
        }
        ExprRef::Cond(c, t, e) => {
            out.push_str("Cond(");
            expr(out, x, c);
            out.push_str(", ");
            expr(out, x, t);
            out.push_str(", ");
            expr(out, x, e);
            out.push(')');
        }
    }
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
