//! Robustness property tests for the EasyML frontend: arbitrary input
//! never panics the lexer/parser/analyzer (errors are returned, not
//! thrown), and well-formed fragments keep their invariants.

use limpet_easyml::{analyze, lex, parse_model};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: the frontend must return Ok or Err, never panic.
    #[test]
    fn arbitrary_input_never_panics(src in "\\PC{0,200}") {
        let _ = lex(&src);
        if let Ok(ast) = parse_model("fuzz", &src) {
            let _ = analyze(&ast);
        }
    }

    /// Token-soup from EasyML's own alphabet: denser coverage of parser
    /// paths than fully random bytes.
    #[test]
    fn easyml_token_soup_never_panics(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("group".to_owned()),
                Just("if".to_owned()),
                Just("else".to_owned()),
                Just("diff_x".to_owned()),
                Just("x_init".to_owned()),
                Just("x".to_owned()),
                Just("exp".to_owned()),
                Just(";".to_owned()),
                Just("=".to_owned()),
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just("{".to_owned()),
                Just("}".to_owned()),
                Just(".".to_owned()),
                Just(",".to_owned()),
                Just("+".to_owned()),
                Just("-".to_owned()),
                Just("*".to_owned()),
                Just("/".to_owned()),
                Just("?".to_owned()),
                Just(":".to_owned()),
                Just("<".to_owned()),
                Just("&&".to_owned()),
                Just("1.5".to_owned()),
                Just("external".to_owned()),
                Just("method".to_owned()),
                Just("lookup".to_owned()),
                Just("rk2".to_owned()),
            ],
            0..60,
        )
    ) {
        let src = tokens.join(" ");
        if let Ok(ast) = parse_model("soup", &src) {
            let _ = analyze(&ast);
        }
    }

    /// Any single well-formed diff equation over safe operators analyzes
    /// into exactly one state variable.
    #[test]
    fn single_diff_always_one_state(
        c1 in -100.0f64..100.0,
        c2 in 0.1f64..100.0,
    ) {
        let src = format!("diff_v = ({c1} - v) / {c2};");
        let m = analyze(&parse_model("one", &src).unwrap()).unwrap();
        prop_assert_eq!(m.states.len(), 1);
        prop_assert_eq!(m.states[0].name.as_str(), "v");
    }

    /// Expression printing is stable: parse(x) == parse(print(parse(x)))
    /// for generated arithmetic expressions.
    #[test]
    fn expression_display_reparses(
        a in -50.0f64..50.0,
        b in -50.0f64..50.0,
        op in 0usize..4,
    ) {
        let sym = ["+", "-", "*", "/"][op];
        let src = format!("diff_x = ({a} {sym} {b}) * x;");
        let m1 = analyze(&parse_model("p", &src).unwrap()).unwrap();
        let printed = match &m1.stmts[0] {
            limpet_easyml::Stmt::Assign { expr, .. } => m1.exprs.display(*expr).to_string(),
            _ => unreachable!(),
        };
        let src2 = format!("diff_x = {printed};");
        let m2 = analyze(&parse_model("p", &src2).unwrap()).unwrap();
        let reprinted = match &m2.stmts[0] {
            limpet_easyml::Stmt::Assign { expr, .. } => m2.exprs.display(*expr).to_string(),
            _ => unreachable!(),
        };
        prop_assert_eq!(printed, reprinted);
    }
}
