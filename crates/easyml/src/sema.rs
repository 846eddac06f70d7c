//! Semantic analysis: turns a raw [`ModelAst`] into a checked [`Model`].
//!
//! Responsibilities (mirroring openCARP's `limpet_fe` frontend, paper §2.2):
//!
//! * classify variables into **state** (those with a `diff_X` equation),
//!   **external** (`.external()` markup: `Vm`, `Iion`, …), **parameters**
//!   (`.param()` groups), and intermediates;
//! * resolve `X_init` assignments into constant initial values;
//! * attach `.lookup(lo,hi,step)` and `.method(name)` markups;
//! * enforce single assignment and both-branch conditional definitions;
//! * topologically order the equation system (EasyML files may list
//!   equations in any order);
//! * provide the affine-form analysis used by the Rush-Larsen family of
//!   integrators.

use crate::ast::{BinOp, ExprId, ExprRef, Exprs, Item, Markup, ModelAst, Stmt, Sym, UnOp};
use crate::diag::{Diagnostic, ErrorCode, Span};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A temporal integration method (paper §3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Forward Euler — explicit first order, the openCARP default.
    #[default]
    Fe,
    /// 2-stage Runge-Kutta (midpoint) — explicit second order.
    Rk2,
    /// 4-stage Runge-Kutta — explicit fourth order.
    Rk4,
    /// Rush-Larsen — exact exponential update for gate equations.
    RushLarsen,
    /// Sundnes — second-order Rush-Larsen generalization.
    Sundnes,
    /// Backward-Euler-inspired implicit update with refinement, clamped to
    /// `[0, 1]`; used for Markov-chain state variables.
    MarkovBe,
}

impl Method {
    /// Parses the `.method(...)` markup spelling.
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "fe" => Method::Fe,
            "rk2" => Method::Rk2,
            "rk4" => Method::Rk4,
            "rush_larsen" => Method::RushLarsen,
            "sundnes" => Method::Sundnes,
            "markov_be" => Method::MarkovBe,
            _ => return None,
        })
    }

    /// The markup spelling.
    pub fn name(self) -> &'static str {
        match self {
            Method::Fe => "fe",
            Method::Rk2 => "rk2",
            Method::Rk4 => "rk4",
            Method::RushLarsen => "rush_larsen",
            Method::Sundnes => "sundnes",
            Method::MarkovBe => "markov_be",
        }
    }

    /// All methods, for exhaustive tests.
    pub const ALL: [Method; 6] = [
        Method::Fe,
        Method::Rk2,
        Method::Rk4,
        Method::RushLarsen,
        Method::Sundnes,
        Method::MarkovBe,
    ];
}

/// A state variable: it has a `diff_X` equation and is integrated in time.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVar {
    /// Variable name.
    pub name: String,
    /// Initial value (from `X_init`, default 0).
    pub init: f64,
    /// Integration method (from `.method()`, default forward Euler).
    pub method: Method,
}

/// An external variable (`.external()`): shared with the outside of the
/// model (e.g. the transmembrane voltage `Vm` and current `Iion`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtVar {
    /// Variable name.
    pub name: String,
    /// Initial value (from `X_init`, default 0).
    pub init: f64,
    /// Whether the model assigns this variable (output) or only reads it.
    pub assigned: bool,
    /// Whether reads should prefer an attached parent model's state
    /// (`.parent()` markup — multimodel support, paper §3.3.2).
    pub parent: bool,
}

/// A model parameter (`.param()` group member): uniform across cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Default value.
    pub default: f64,
}

/// A `.lookup(lo, hi, step)` markup: expressions depending only on this
/// variable may be tabulated and linearly interpolated (paper §3.4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Lookup {
    /// The lookup key variable.
    pub var: String,
    /// Lower bound of the tabulated range.
    pub lo: f64,
    /// Upper bound of the tabulated range.
    pub hi: f64,
    /// Tabulation step.
    pub step: f64,
}

/// A semantically checked ionic model.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Model name.
    pub name: String,
    /// State variables, in declaration order.
    pub states: Vec<StateVar>,
    /// External variables.
    pub externals: Vec<ExtVar>,
    /// Parameters with defaults.
    pub params: Vec<Param>,
    /// Lookup-table markups.
    pub lookups: Vec<Lookup>,
    /// The nodes and names the statements refer to: the parser's table,
    /// as it was.
    pub exprs: Exprs,
    /// Body statements in dependency (topological) order. `X_init`
    /// assignments are resolved into [`StateVar::init`] and removed.
    pub stmts: Vec<Stmt>,
}

impl Model {
    /// Looks up a state variable by name.
    pub fn state(&self, name: &str) -> Option<&StateVar> {
        self.states.iter().find(|s| s.name == name)
    }

    /// Looks up an external variable by name.
    pub fn external(&self, name: &str) -> Option<&ExtVar> {
        self.externals.iter().find(|e| e.name == name)
    }

    /// Looks up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Looks up the lookup markup for a variable.
    pub fn lookup(&self, var: &str) -> Option<&Lookup> {
        self.lookups.iter().find(|l| l.var == var)
    }

    /// The `diff_X` expression for state `name`, when it is a plain
    /// top-level assignment (conditional diff equations return `None`).
    pub fn diff_expr(&self, name: &str) -> Option<ExprId> {
        let want = self.exprs.sym(&format!("diff_{name}"))?;
        self.stmts.iter().find_map(|s| match s {
            Stmt::Assign { lhs, expr, .. } if *lhs == want => Some(*expr),
            _ => None,
        })
    }

    /// Total number of expression nodes, a complexity measure used for
    /// model-class calibration.
    pub fn complexity(&self) -> usize {
        fn stmt_size(x: &Exprs, s: &Stmt) -> usize {
            match s {
                Stmt::Assign { expr, .. } => x.size(*expr),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    x.size(*cond)
                        + then_body.iter().map(|s| stmt_size(x, s)).sum::<usize>()
                        + else_body.iter().map(|s| stmt_size(x, s)).sum::<usize>()
                }
            }
        }
        self.stmts.iter().map(|s| stmt_size(&self.exprs, s)).sum()
    }
}

/// A semantic error: a [`Diagnostic`] with an `E03xx` code.
pub type SemaError = Diagnostic;

/// All semantic errors found in one model.
#[derive(Debug, Clone, PartialEq)]
pub struct SemaErrors(pub Vec<SemaError>);

impl fmt::Display for SemaErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SemaErrors {}

/// Built-in function names and their arities.
pub const BUILTINS: [(&str, usize); 28] = [
    ("exp", 1),
    ("expm1", 1),
    ("log", 1),
    ("log1p", 1),
    ("log10", 1),
    ("log2", 1),
    ("sqrt", 1),
    ("cbrt", 1),
    ("sin", 1),
    ("cos", 1),
    ("tan", 1),
    ("asin", 1),
    ("acos", 1),
    ("atan", 1),
    ("sinh", 1),
    ("cosh", 1),
    ("tanh", 1),
    ("fabs", 1),
    ("abs", 1),
    ("floor", 1),
    ("ceil", 1),
    ("round", 1),
    ("square", 1),
    ("cube", 1),
    ("pow", 2),
    ("atan2", 2),
    ("copysign", 2),
    ("fmod", 2),
];

/// Looks up a builtin's arity.
pub fn builtin_arity(name: &str) -> Option<usize> {
    BUILTINS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, arity)| *arity)
}

/// Names implicitly available in every model body.
pub const IMPLICIT_SOURCES: [&str; 2] = ["t", "dt"];

/// Evaluates the expression `expr` of `exprs` to a constant under `env`
/// (typically the parameter defaults). Returns `None` when any referenced
/// name is missing.
pub fn eval_const(exprs: &Exprs, expr: ExprId, env: &HashMap<String, f64>) -> Option<f64> {
    eval_with(exprs, expr, &|name| env.get(exprs.name(name)).copied())
}

/// [`eval_const`] with the environment as a lookup function.
fn eval_with(x: &Exprs, expr: ExprId, env: &impl Fn(Sym) -> Option<f64>) -> Option<f64> {
    Some(match x.get(expr) {
        ExprRef::Num(v) => v,
        ExprRef::Var(name) => env(name)?,
        ExprRef::Unary(UnOp::Neg, e) => -eval_with(x, e, env)?,
        ExprRef::Unary(UnOp::Not, e) => {
            if eval_with(x, e, env)? != 0.0 {
                0.0
            } else {
                1.0
            }
        }
        ExprRef::Binary(op, l, r) => {
            let (a, b) = (eval_with(x, l, env)?, eval_with(x, r, env)?);
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Rem => a % b,
                BinOp::Lt => (a < b) as i32 as f64,
                BinOp::Le => (a <= b) as i32 as f64,
                BinOp::Gt => (a > b) as i32 as f64,
                BinOp::Ge => (a >= b) as i32 as f64,
                BinOp::Eq => (a == b) as i32 as f64,
                BinOp::Ne => (a != b) as i32 as f64,
                BinOp::And => ((a != 0.0) && (b != 0.0)) as i32 as f64,
                BinOp::Or => ((a != 0.0) || (b != 0.0)) as i32 as f64,
            }
        }
        ExprRef::Call(name, args) => {
            let vals: Option<Vec<f64>> = args.iter().map(|&a| eval_with(x, a, env)).collect();
            let vals = vals?;
            match (x.name(name), vals.as_slice()) {
                ("exp", [a]) => a.exp(),
                ("expm1", [a]) => a.exp_m1(),
                ("log", [a]) => a.ln(),
                ("log1p", [a]) => a.ln_1p(),
                ("log10", [a]) => a.log10(),
                ("log2", [a]) => a.log2(),
                ("sqrt", [a]) => a.sqrt(),
                ("cbrt", [a]) => a.cbrt(),
                ("sin", [a]) => a.sin(),
                ("cos", [a]) => a.cos(),
                ("tan", [a]) => a.tan(),
                ("asin", [a]) => a.asin(),
                ("acos", [a]) => a.acos(),
                ("atan", [a]) => a.atan(),
                ("sinh", [a]) => a.sinh(),
                ("cosh", [a]) => a.cosh(),
                ("tanh", [a]) => a.tanh(),
                ("fabs", [a]) | ("abs", [a]) => a.abs(),
                ("floor", [a]) => a.floor(),
                ("ceil", [a]) => a.ceil(),
                ("round", [a]) => a.round(),
                ("square", [a]) => a * a,
                ("cube", [a]) => a * a * a,
                ("pow", [a, b]) => a.powf(*b),
                ("atan2", [a, b]) => a.atan2(*b),
                ("copysign", [a, b]) => a.copysign(*b),
                ("fmod", [a, b]) => a % b,
                _ => return None,
            }
        }
        ExprRef::Cond(c, t, e) => {
            if eval_with(x, c, env)? != 0.0 {
                eval_with(x, t, env)?
            } else {
                eval_with(x, e, env)?
            }
        }
    })
}

/// Decomposes the expression `expr` of `exprs` as affine in `var`:
/// `expr = a + b * var`, returning the roots of `(a, b)`, expressions free
/// of `var` that share `expr`'s nodes where they can and append the rest
/// to `exprs`. Returns `None` when `var` occurs non-affinely (inside calls,
/// conditions, products with itself, …), having maybe appended nodes no
/// expression refers to.
///
/// This is the gate-form analysis behind the Rush-Larsen integrators: a gate
/// equation `dx/dt = (x_inf - x) / tau` is affine in `x` with
/// `a = x_inf/tau`, `b = -1/tau`.
pub fn affine_in(exprs: &mut Exprs, expr: ExprId, var: Sym) -> Option<(ExprId, ExprId)> {
    if !exprs.references(expr, var) {
        return Some((expr, exprs.num(0.0)));
    }
    match exprs.get(expr) {
        ExprRef::Var(v) if v == var => Some((exprs.num(0.0), exprs.num(1.0))),
        ExprRef::Unary(UnOp::Neg, e) => {
            let (a, b) = affine_in(exprs, e, var)?;
            Some((exprs.unary(UnOp::Neg, a), exprs.unary(UnOp::Neg, b)))
        }
        ExprRef::Binary(op @ (BinOp::Add | BinOp::Sub), l, r) => {
            let (al, bl) = affine_in(exprs, l, var)?;
            let (ar, br) = affine_in(exprs, r, var)?;
            Some((exprs.binary(op, al, ar), exprs.binary(op, bl, br)))
        }
        ExprRef::Binary(BinOp::Mul, l, r) => {
            // Exactly one side may reference var.
            if !exprs.references(r, var) {
                let (a, b) = affine_in(exprs, l, var)?;
                Some((
                    exprs.binary(BinOp::Mul, a, r),
                    exprs.binary(BinOp::Mul, b, r),
                ))
            } else if !exprs.references(l, var) {
                let (a, b) = affine_in(exprs, r, var)?;
                Some((
                    exprs.binary(BinOp::Mul, l, a),
                    exprs.binary(BinOp::Mul, l, b),
                ))
            } else {
                None
            }
        }
        ExprRef::Binary(BinOp::Div, l, r) => {
            if exprs.references(r, var) {
                return None;
            }
            let (a, b) = affine_in(exprs, l, var)?;
            Some((
                exprs.binary(BinOp::Div, a, r),
                exprs.binary(BinOp::Div, b, r),
            ))
        }
        _ => None,
    }
}

/// Runs semantic analysis.
///
/// # Errors
///
/// Returns every [`SemaError`] found: unknown variables, double assignment,
/// one-sided conditional definitions, bad markups, non-constant initial
/// values, dependency cycles, and calls to unknown functions.
pub fn analyze(ast: &ModelAst) -> Result<Model, SemaErrors> {
    let (mut model, order) = check(ast)?;
    model
        .stmts
        .extend(order.iter().filter_map(|&i| match &ast.items[i] {
            Item::Stmt(s) => Some(s.clone()),
            _ => None,
        }));
    Ok(model)
}

/// The markups' effect on the names they are attached to.
#[derive(Default)]
struct Markups<'a> {
    external: Vec<Sym>,
    parent: Vec<Sym>,
    /// Each `.lookup()` and the name it is on.
    lookups: Vec<(Sym, Lookup)>,
    /// `.method()`, the name it is on and the line of its markup, per name
    /// (the last markup wins); ordered by the name's text, so the
    /// diagnostics come out in one order.
    methods: BTreeMap<&'a str, (Sym, Method, usize)>,
}

impl<'a> Markups<'a> {
    fn apply(&mut self, x: &'a Exprs, names: &[Sym], m: &Markup, errors: &mut Vec<SemaError>) {
        match x.name(m.name) {
            "external" => push_new(&mut self.external, names),
            "parent" => push_new(&mut self.parent, names),
            "lookup" => {
                let nums: Vec<Option<f64>> = m.args.iter().map(|a| a.as_num()).collect();
                match nums.as_slice() {
                    [Some(lo), Some(hi), Some(step)] if *step > 0.0 && hi > lo => {
                        for &n in names {
                            let lookup = Lookup {
                                var: x.name(n).to_owned(),
                                lo: *lo,
                                hi: *hi,
                                step: *step,
                            };
                            self.lookups.push((n, lookup));
                        }
                    }
                    _ => errors.push(Diagnostic::new(
                        ErrorCode::BadLookupRange,
                        Span::line(m.line),
                        ".lookup() needs (lo, hi, step) with step > 0 and hi > lo",
                    )),
                }
            }
            "method" => {
                let arg = m.args.first().and_then(|a| a.as_ident()).map(|s| x.name(s));
                match arg.and_then(Method::parse) {
                    Some(method) => {
                        for &n in names {
                            self.methods.insert(x.name(n), (n, method, m.line));
                        }
                    }
                    None => errors.push(Diagnostic::new(
                        ErrorCode::UnknownMethod,
                        Span::line(m.line),
                        format!(
                            "unknown integration method {:?} (expected one of fe, rk2, rk4, rush_larsen, sundnes, markov_be)",
                            arg.unwrap_or("<missing>")
                        ),
                    )),
                }
            }
            // Markups that affect storage or tracing, not code shape.
            "nodal" | "regional" | "units" | "trace" | "store" | "param" => {}
            other => errors.push(Diagnostic::new(
                ErrorCode::UnknownMarkup,
                Span::line(m.line),
                format!("unknown markup .{other}()"),
            )),
        }
    }
}

/// Appends each of `names` that `list` does not hold yet.
fn push_new(list: &mut Vec<Sym>, names: &[Sym]) {
    for &n in names {
        if !list.contains(&n) {
            list.push(n);
        }
    }
}

/// The checks of [`analyze`], on the AST's names by symbol. Returns the
/// model with room for, but not yet, its statements, and the indices of
/// the `ModelAst::items` that hold them, in dependency order.
fn check(ast: &ModelAst) -> Result<(Model, Vec<usize>), SemaErrors> {
    let x = &ast.exprs;
    let mut errors: Vec<SemaError> = Vec::new();

    // ---- collect declarations & markups ----
    let mut marks = Markups::default();
    let mut params: Vec<(Sym, Param)> = Vec::new();
    for item in &ast.items {
        match item {
            Item::Decl { name, markups, .. } => {
                for m in markups {
                    marks.apply(x, &[*name], m, &mut errors);
                }
            }
            Item::Group {
                items,
                markups,
                line,
            } => {
                let is_param = markups.iter().any(|m| x.name(m.name) == "param");
                if is_param {
                    for gi in items {
                        let default = match gi.default {
                            Some(e) => eval_with(x, e, &|_| None).unwrap_or_else(|| {
                                errors.push(Diagnostic::new(
                                    ErrorCode::NonConstParamDefault,
                                    Span::line(*line),
                                    format!(
                                        "parameter {} default must be a constant",
                                        x.name(gi.name)
                                    ),
                                ));
                                0.0
                            }),
                            None => 0.0,
                        };
                        let name = x.name(gi.name).to_owned();
                        params.push((gi.name, Param { name, default }));
                    }
                } else {
                    for gi in items {
                        if gi.default.is_some() {
                            errors.push(Diagnostic::new(
                                ErrorCode::DefaultOutsideParamGroup,
                                Span::line(*line),
                                format!(
                                    "group member {} has a default but the group is not .param()",
                                    x.name(gi.name)
                                ),
                            ));
                        }
                    }
                }
                if !markups.is_empty() {
                    let names: Vec<Sym> = items.iter().map(|i| i.name).collect();
                    for m in markups {
                        marks.apply(x, &names, m, &mut errors);
                    }
                }
            }
            Item::Stmt(_) => {}
        }
    }

    // Everything the checks know of a name, by symbol. The parser interns
    // the `X` of every `diff_X` and `X_init` it reads.
    let mut known = vec![Known::default(); x.names()];
    let base = |name: &str| x.sym(name).map(Sym::index);

    // ---- partition statements ----
    // The body: item index and statement, in source order.
    let mut body: Vec<(usize, &Stmt)> = Vec::with_capacity(ast.items.len());
    for (i, item) in ast.items.iter().enumerate() {
        if let Item::Stmt(stmt) = item {
            match stmt {
                Stmt::Assign { lhs, expr, line } if x.name(*lhs).ends_with("_init") => {
                    let lhs = x.name(*lhs);
                    let Some(at) = base(lhs.trim_end_matches("_init")) else {
                        continue;
                    };
                    if known[at].init.replace((*expr, *line)).is_some() {
                        errors.push(Diagnostic::new(
                            ErrorCode::DuplicateInit,
                            Span::line(*line),
                            format!("{lhs} assigned more than once"),
                        ));
                    }
                }
                s => body.push((i, s)),
            }
        }
    }

    // ---- classify: state vars are those with diff_ equations ----
    let mut assigned_names: Vec<(Sym, usize)> = Vec::with_capacity(body.len());
    for (_, s) in &body {
        collect_top_defs(x, s, &mut assigned_names, &mut errors);
    }
    for (p, param) in &params {
        let k = &mut known[p.index()];
        k.flags |= PARAM;
        k.param_default = param.default;
    }
    // Single-assignment check.
    for &(n, line) in &assigned_names {
        let k = &mut known[n.index()];
        if k.flags & ASSIGNED != 0 {
            errors.push(Diagnostic::new(
                ErrorCode::DoubleAssignment,
                Span::line(line),
                format!(
                    "{} assigned more than once (EasyML is single-assignment)",
                    x.name(n)
                ),
            ));
        }
        k.flags |= ASSIGNED;
    }

    let param_default = |n: Sym| {
        let k = &known[n.index()];
        (k.flags & PARAM != 0).then_some(k.param_default)
    };
    let init_of = |name: &str, errors: &mut Vec<SemaError>| -> f64 {
        match base(name).and_then(|at| known[at].init) {
            Some((expr, line)) => match eval_with(x, expr, &param_default) {
                Some(v) => v,
                None => {
                    errors.push(Diagnostic::new(
                        ErrorCode::NonConstInit,
                        Span::line(line),
                        format!("{name}_init must be a constant expression over parameters"),
                    ));
                    0.0
                }
            },
            None => 0.0,
        }
    };

    let states: Vec<StateVar> = assigned_names
        .iter()
        .filter_map(|&(n, _)| x.name(n).strip_prefix("diff_"))
        .map(|n| StateVar {
            name: n.to_owned(),
            init: init_of(n, &mut errors),
            method: marks.methods.get(n).map(|m| m.1).unwrap_or_default(),
        })
        .collect();

    let externals: Vec<ExtVar> = marks
        .external
        .iter()
        .map(|&n| ExtVar {
            name: x.name(n).to_owned(),
            init: init_of(x.name(n), &mut errors),
            assigned: known[n.index()].flags & ASSIGNED != 0,
            parent: marks.parent.contains(&n),
        })
        .collect();

    for &p in &marks.parent {
        if !marks.external.contains(&p) {
            errors.push(Diagnostic::new(
                ErrorCode::ParentNotExternal,
                Span::none(),
                format!(
                    ".parent() applied to {}, which is not .external()",
                    x.name(p)
                ),
            ));
        }
    }

    // ---- validity checks on names ----
    for s in &states {
        if let Some(at) = base(&s.name) {
            known[at].flags |= STATE;
        }
    }
    for &e in &marks.external {
        known[e.index()].flags |= EXTERNAL;
    }
    let is = |n: Sym, kinds: u8| known[n.index()].flags & kinds != 0;

    for (&m, &(sym, _, line)) in &marks.methods {
        if !is(sym, STATE) {
            errors.push(Diagnostic::new(
                ErrorCode::MethodOnNonState,
                Span::line(line),
                format!(".method() applied to {m}, which has no diff_{m} equation"),
            ));
        }
    }
    for (n, l) in &marks.lookups {
        if !is(*n, STATE | EXTERNAL | ASSIGNED) {
            errors.push(Diagnostic::new(
                ErrorCode::LookupOnUndefined,
                Span::none(),
                format!(".lookup() applied to undefined variable {}", l.var),
            ));
        }
    }
    for &(n, line) in &assigned_names {
        let name = x.name(n);
        if is(n, STATE) {
            errors.push(Diagnostic::new(
                ErrorCode::DirectStateAssignment,
                Span::line(line),
                format!(
                    "state variable {name} cannot be assigned directly; assign diff_{name} instead"
                ),
            ));
        }
        if is(n, PARAM) {
            errors.push(Diagnostic::new(
                ErrorCode::ParamAssignment,
                Span::line(line),
                format!("parameter {name} cannot be assigned in the model body"),
            ));
        }
    }

    // Names readable without a definition are the sources; the body's
    // statements define the rest.
    for n in IMPLICIT_SOURCES {
        if let Some(at) = base(n) {
            known[at].flags |= IMPLICIT;
        }
    }
    for (i, (_, s)) in body.iter().enumerate() {
        s.for_each_assigned(&mut |d| known[d.index()].def = Some(i));
    }
    // One walk checks every read and collects the def-use edges.
    let mut uses = Uses {
        x,
        known: &known,
        errors: &mut errors,
        edges: Vec::new(),
    };
    for (i, (_, s)) in body.iter().enumerate() {
        uses.stmt(s, i);
    }
    let edges = uses.edges;

    // ---- topological order ----
    let order = match topo_order(x, &body, &edges) {
        Ok(o) => o,
        Err(cycle) => {
            errors.push(Diagnostic::new(
                ErrorCode::DependencyCycle,
                Span::none(),
                format!("dependency cycle through {cycle}"),
            ));
            Vec::new()
        }
    };

    if errors.is_empty() {
        let model = Model {
            name: ast.name.clone(),
            states,
            externals,
            params: params.into_iter().map(|(_, p)| p).collect(),
            lookups: marks.lookups.into_iter().map(|(_, l)| l).collect(),
            exprs: x.clone(),
            stmts: Vec::with_capacity(order.len()),
        };
        Ok((model, order))
    } else {
        Err(SemaErrors(
            errors
                .into_iter()
                .map(|e| e.with_model(&ast.name))
                .collect(),
        ))
    }
}

/// What the checks know of one name: the kinds it has ([`STATE`],
/// [`EXTERNAL`], [`PARAM`], [`IMPLICIT`], [`ASSIGNED`]; any kind makes it
/// readable), its default when it is a parameter, the body statement that
/// assigns it (the last, when several do), and the root and line of its
/// `_init` assignment.
#[derive(Clone, Default)]
struct Known {
    flags: u8,
    param_default: f64,
    def: Option<usize>,
    init: Option<(ExprId, usize)>,
}

const STATE: u8 = 1;
const EXTERNAL: u8 = 2;
const PARAM: u8 = 4;
/// `t` and `dt` ([`IMPLICIT_SOURCES`]).
const IMPLICIT: u8 = 8;
/// Defined by a top-level statement (on both branches of an `if`).
const ASSIGNED: u8 = 16;

/// Collects the names defined by a top-level statement. For `if` statements
/// every name must be assigned in both branches: each name assigned in
/// either branch is reported once, the then branch's in its order first.
fn collect_top_defs(
    x: &Exprs,
    stmt: &Stmt,
    out: &mut Vec<(Sym, usize)>,
    errors: &mut Vec<SemaError>,
) {
    match stmt {
        Stmt::Assign { lhs, line, .. } => out.push((*lhs, *line)),
        Stmt::If {
            then_body,
            else_body,
            line,
            ..
        } => {
            let mut then_names = Vec::new();
            let mut else_names = Vec::new();
            for s in then_body {
                s.for_each_assigned(&mut |n| then_names.push(n));
            }
            for s in else_body {
                s.for_each_assigned(&mut |n| else_names.push(n));
            }
            let mut either: Vec<Sym> = Vec::new();
            for &n in then_names.iter().chain(&else_names) {
                if !either.contains(&n) {
                    either.push(n);
                }
            }
            for n in either {
                if then_names.contains(&n) && else_names.contains(&n) {
                    out.push((n, *line));
                } else {
                    errors.push(Diagnostic::new(
                        ErrorCode::OneSidedConditional,
                        Span::line(*line),
                        format!(
                            "{} is assigned in only one branch of a conditional; EasyML \
                             requires both branches to define it",
                            x.name(n)
                        ),
                    ));
                }
            }
        }
    }
}

/// The walk over the body's reads: reports each unknown name and call,
/// and records a def-use edge (definer, reader) for each read of a name
/// another statement assigns — one per read, so a name read twice gives
/// two edges.
struct Uses<'k> {
    x: &'k Exprs,
    known: &'k [Known],
    errors: &'k mut Vec<SemaError>,
    edges: Vec<(usize, usize)>,
}

impl Uses<'_> {
    /// Statement `i` of the body, or a statement nested in it.
    fn stmt(&mut self, stmt: &Stmt, i: usize) {
        match stmt {
            Stmt::Assign { expr, line, .. } => self.expr(*expr, i, *line),
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                self.expr(*cond, i, *line);
                for s in then_body.iter().chain(else_body) {
                    self.stmt(s, i);
                }
            }
        }
    }

    fn expr(&mut self, expr: ExprId, i: usize, line: usize) {
        let e = self.x.get(expr);
        match e {
            ExprRef::Var(name) => {
                let known = &self.known[name.index()];
                if known.flags == 0 {
                    self.errors.push(Diagnostic::new(
                        ErrorCode::UndefinedVariable,
                        Span::line(line),
                        format!("use of undefined variable {}", self.x.name(name)),
                    ));
                }
                if let Some(j) = known.def.filter(|&j| j != i) {
                    self.edges.push((j, i));
                }
            }
            ExprRef::Call(name, args) => {
                let name = self.x.name(name);
                match builtin_arity(name) {
                    None => self.errors.push(Diagnostic::new(
                        ErrorCode::UnknownFunction,
                        Span::line(line),
                        format!("call to unknown function {name}()"),
                    )),
                    Some(arity) if arity != args.len() => self.errors.push(Diagnostic::new(
                        ErrorCode::WrongArity,
                        Span::line(line),
                        format!("{name}() expects {arity} argument(s), got {}", args.len()),
                    )),
                    Some(_) => {}
                }
            }
            _ => {}
        }
        for o in e.operands() {
            self.expr(o, i, line);
        }
    }
}

/// Kahn topological sort of the body along its def-use `edges`, returning
/// the item index of each statement in order (among ready statements, the
/// earliest in the source first). A repeated edge adds one to its
/// reader's in-degree and is taken once more when its definer is
/// ordered, so it delays nothing. On a cycle, returns the names one
/// statement stuck in it defines.
fn topo_order(
    x: &Exprs,
    body: &[(usize, &Stmt)],
    edges: &[(usize, usize)],
) -> Result<Vec<usize>, String> {
    let n = body.len();
    let mut indegree: Vec<usize> = vec![0; n];
    // `readers[first[j]..first[j + 1]]` read what statement `j` defines.
    let mut first: Vec<usize> = vec![0; n + 1];
    for &(j, i) in edges {
        indegree[i] += 1;
        first[j + 1] += 1;
    }
    for j in 0..n {
        first[j + 1] += first[j];
    }
    let mut readers = vec![0; edges.len()];
    let mut next = first.clone();
    for &(j, i) in edges {
        readers[next[j]] = i;
        next[j] += 1;
    }
    let mut order = Vec::with_capacity(n);
    let mut queue: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    while let Some(std::cmp::Reverse(j)) = queue.pop() {
        order.push(j);
        for &i in &readers[first[j]..first[j + 1]] {
            indegree[i] -= 1;
            if indegree[i] == 0 {
                queue.push(std::cmp::Reverse(i));
            }
        }
    }
    if order.len() != n {
        // Name a statement stuck in the cycle.
        let stuck = (0..n).find(|i| indegree[*i] != 0).unwrap_or(0);
        let mut defs = Vec::new();
        body[stuck]
            .1
            .for_each_assigned(&mut |d| defs.push(x.name(d)));
        return Err(defs.join(", "));
    }
    Ok(order.into_iter().map(|i| body[i].0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_model;

    const PATHMANATHAN: &str = r#"
Vm; .external(); .nodal(); .lookup(-100,100,0.05);
Iion; .external(); .nodal();
group{ u1; u2; u3; }.nodal();
group{ Cm = 200; beta = 1; xi = 3; }.param();
u1_init = 0; u2_init = 0; u3_init = 0; Vm_init = 0;
diff_u3 = 0;
diff_u2 = -(u1+u3-Vm)*cube(u2);
diff_u1 = square(u1+u3-Vm)*square(u2)+0.5*(u1+u3-Vm);
u1;.method(rk2);
Iion = (-(Cm/2.)*(u1+u3-Vm)*square(u2)*(Vm-u3)+beta);
"#;

    fn pathmanathan() -> Model {
        analyze(&parse_model("Pathmanathan", PATHMANATHAN).unwrap()).unwrap()
    }

    #[test]
    fn classifies_paper_model() {
        let m = pathmanathan();
        assert_eq!(
            m.states.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["u3", "u2", "u1"]
        );
        assert_eq!(m.state("u1").unwrap().method, Method::Rk2);
        assert_eq!(m.state("u2").unwrap().method, Method::Fe);
        assert_eq!(m.externals.len(), 2);
        assert!(m.external("Iion").unwrap().assigned);
        assert!(!m.external("Vm").unwrap().assigned);
        assert_eq!(m.params.len(), 3);
        assert_eq!(m.param("Cm").unwrap().default, 200.0);
        assert_eq!(m.lookup("Vm").unwrap().step, 0.05);
    }

    #[test]
    fn init_values_resolved() {
        let m = pathmanathan();
        assert_eq!(m.state("u1").unwrap().init, 0.0);
        let m2 = analyze(
            &parse_model("m", "group{k = 2;}.param();\ndiff_x = -x;\nx_init = k * 3;").unwrap(),
        )
        .unwrap();
        assert_eq!(m2.state("x").unwrap().init, 6.0);
    }

    #[test]
    fn topological_order() {
        // b depends on a but is written first.
        let src = "diff_x = b;\nb = a * 2;\na = x + 1;";
        let m = analyze(&parse_model("m", src).unwrap()).unwrap();
        let lhss: Vec<&str> = m
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::Assign { lhs, .. } => m.exprs.name(*lhs),
                _ => "?",
            })
            .collect();
        let pos = |n: &str| {
            lhss.iter()
                .position(|l| *l == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("diff_x"));
    }

    #[test]
    fn cycle_detected() {
        let src = "a = b + x;\nb = a * 2;\ndiff_x = a;";
        let err = analyze(&parse_model("m", src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn double_assignment_rejected() {
        let src = "a = 1;\na = 2;\ndiff_x = a + x;";
        let err = analyze(&parse_model("m", src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn direct_state_assignment_rejected() {
        let src = "diff_x = -x;\nx = 3;";
        let err = analyze(&parse_model("m", src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("assign diff_x instead"));
    }

    #[test]
    fn one_sided_conditional_rejected() {
        let src = "diff_x = -x;\nif (x > 0) { a = 1; } else { b = 2; }";
        let err = analyze(&parse_model("m", src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("only one branch"));
    }

    #[test]
    fn both_sided_conditional_ok() {
        let src = "diff_x = -x * a;\nif (x > 0) { a = 1; } else { a = 2; }";
        let m = analyze(&parse_model("m", src).unwrap()).unwrap();
        assert_eq!(m.stmts.len(), 2);
        assert!(matches!(m.stmts[0], Stmt::If { .. }));
    }

    /// A name assigned in both branches of one `if` takes its place from
    /// the then-branch, in every analysis: the branches' orders disagree,
    /// and no per-analysis hash order may pick between them.
    #[test]
    fn both_sided_states_keep_the_then_branch_order() {
        let src =
            "c = 1;\nif (c > 0) { diff_a = -a; diff_b = -b; } else { diff_b = b; diff_a = a; }";
        let ast = parse_model("m", src).unwrap();
        for _ in 0..64 {
            let m = analyze(&ast).unwrap();
            let states: Vec<&str> = m.states.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(states, ["a", "b"]);
        }
    }

    #[test]
    fn unknown_variable_rejected() {
        let err = analyze(&parse_model("m", "diff_x = y;").unwrap()).unwrap_err();
        assert!(err.to_string().contains("undefined variable y"));
    }

    #[test]
    fn unknown_function_rejected() {
        let err = analyze(&parse_model("m", "diff_x = frobnicate(x);").unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown function"));
    }

    #[test]
    fn wrong_arity_rejected() {
        let err = analyze(&parse_model("m", "diff_x = pow(x);").unwrap()).unwrap_err();
        assert!(err.to_string().contains("expects 2 argument"));
    }

    #[test]
    fn unknown_method_rejected() {
        let err =
            analyze(&parse_model("m", "diff_x = -x;\nx;.method(cvode);").unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown integration method"));
    }

    #[test]
    fn method_on_non_state_rejected() {
        let err =
            analyze(&parse_model("m", "a = 1;\nb = a;\ndiff_x = x;\na;.method(rk2);").unwrap())
                .unwrap_err();
        assert!(err.to_string().contains("no diff_a equation"));
    }

    #[test]
    fn method_diagnostics_come_out_in_name_order() {
        let src = "diff_x = -x;\nz = 1;\ny = 2;\nw = 3;\nz;.method(rk2);\nw;.method(rk2);\ny;.method(rk2);";
        let ast = parse_model("m", src).unwrap();
        for _ in 0..64 {
            let err = analyze(&ast).unwrap_err();
            let named: Vec<&str> = err
                .0
                .iter()
                .filter(|e| e.code == ErrorCode::MethodOnNonState)
                .map(|e| e.message.as_str())
                .collect();
            assert_eq!(
                named,
                ["w", "y", "z"]
                    .map(|m| format!(".method() applied to {m}, which has no diff_{m} equation"))
            );
        }
    }

    #[test]
    fn affine_gate_form() {
        // dx = (x_inf - x)/tau: a = x_inf/tau, b = -1/tau.
        let src = "diff_m = (m_inf - m) / tau;\nm_inf = 0.5;\ntau = 2.0;";
        let mut m = analyze(&parse_model("m", src).unwrap()).unwrap();
        let d = m.diff_expr("m").unwrap();
        let var = m.exprs.sym("m").unwrap();
        let (a, b) = affine_in(&mut m.exprs, d, var).expect("gate equation must be affine");
        let env: HashMap<String, f64> =
            [("m_inf".to_string(), 0.5), ("tau".to_string(), 2.0)].into();
        assert_eq!(eval_const(&m.exprs, a, &env), Some(0.25));
        assert_eq!(eval_const(&m.exprs, b, &env), Some(-0.5));
    }

    /// The root of the one statement of `diff_x = {src};`, and its table.
    fn expr(src: &str) -> (Exprs, ExprId) {
        let ast = parse_model("e", &format!("diff_x = {src};")).unwrap();
        let Item::Stmt(Stmt::Assign { expr, .. }) = ast.items[0] else {
            panic!("{src}");
        };
        (ast.exprs, expr)
    }

    #[test]
    fn affine_rejects_nonlinear() {
        for src in ["x * x", "exp(x)"] {
            let (mut x, e) = expr(src);
            let var = x.sym("x").unwrap();
            assert!(affine_in(&mut x, e, var).is_none(), "{src}");
        }
    }

    #[test]
    fn affine_alpha_beta_form() {
        // dx = alpha*(1-x) - beta*x  -> a = alpha, b = -(alpha+beta)
        let (mut x, e) = expr("alpha * (1 - x) - beta * x");
        let var = x.sym("x").unwrap();
        let (a, b) = affine_in(&mut x, e, var).unwrap();
        let env: HashMap<String, f64> =
            [("alpha".to_string(), 3.0), ("beta".to_string(), 5.0)].into();
        assert_eq!(eval_const(&x, a, &env), Some(3.0));
        assert_eq!(eval_const(&x, b, &env), Some(-8.0));
        assert_eq!(x.display(a).to_string(), "((alpha*(1-0))-(beta*0))");
    }

    #[test]
    fn eval_const_covers_all_builtins() {
        let env = HashMap::new();
        for (name, arity) in BUILTINS {
            let mut x = Exprs::default();
            let args = vec![x.num(0.5); arity];
            let f = x.intern(name);
            let e = x.call(f, &args);
            assert!(
                eval_const(&x, e, &env).is_some(),
                "builtin {name} not const-evaluable"
            );
        }
    }

    #[test]
    fn complexity_counts_nodes() {
        let m = pathmanathan();
        assert!(m.complexity() > 20);
    }

    #[test]
    fn methods_all_parse() {
        for meth in Method::ALL {
            assert_eq!(Method::parse(meth.name()), Some(meth));
        }
        assert_eq!(Method::parse("bogus"), None);
    }
}
