//! # limpet-easyml
//!
//! Frontend for **EasyML**, the markup language openCARP uses to describe
//! cardiac ionic models (paper §2.2). The crate lexes, parses, and
//! semantically analyzes model descriptions, producing a checked [`Model`]
//! consumed by the `limpet-codegen` crate.
//!
//! EasyML in brief:
//!
//! * single-assignment variables, C expression syntax and `if` statements,
//!   no loops (not Turing complete);
//! * `diff_X = …;` defines the time derivative of state variable `X`, and
//!   `X_init = …;` its initial value;
//! * markups adjust code generation: `.external()` (inter-cell variables
//!   such as `Vm`/`Iion`), `.param()` groups, `.lookup(lo,hi,step)` (tabulate
//!   expressions of a variable), `.method(rk2)` (integration method).
//!
//! # Examples
//!
//! ```
//! use limpet_easyml::{analyze, parse_model, Method};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//!     Vm; .external();
//!     Iion; .external();
//!     group{ g = 0.1; }.param();
//!     diff_n = (n_inf - n) / 5.0;
//!     n_inf = 1.0 / (1.0 + exp(-Vm / 10.0));
//!     n_init = 0.3;
//!     n;.method(rush_larsen);
//!     Iion = g * n * Vm;
//! ";
//! let model = analyze(&parse_model("Demo", src)?)?;
//! assert_eq!(model.states.len(), 1);
//! assert_eq!(model.state("n").unwrap().method, Method::RushLarsen);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The frontend must never bring down the host process on malformed input:
// every failure is a spanned [`Diagnostic`]. Tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod ast;
mod diag;
mod parser;
mod sema;
mod token;

pub use ast::{
    BinOp, ExprId, ExprRef, Exprs, GroupItem, Item, Markup, MarkupArg, ModelAst, Shown, Stmt, Sym,
    UnOp,
};
pub use diag::{Diagnostic, ErrorCode, Span};
pub use parser::{parse_model, ParseError};
pub use sema::{
    affine_in, analyze, builtin_arity, eval_const, ExtVar, Lookup, Method, Model, Param, SemaError,
    SemaErrors, StateVar, BUILTINS, IMPLICIT_SOURCES,
};
pub use token::{lex, LexError, Token, TokenKind};

/// Parses and analyzes a model in one step.
///
/// # Errors
///
/// Returns a boxed [`ParseError`] or [`SemaErrors`].
///
/// # Examples
///
/// ```
/// let m = limpet_easyml::compile_model("M", "diff_x = -x;").unwrap();
/// assert_eq!(m.states[0].name, "x");
/// ```
pub fn compile_model(name: &str, src: &str) -> Result<Model, Box<dyn std::error::Error>> {
    let ast = parse_model(name, src)?;
    Ok(analyze(&ast)?)
}
