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

use crate::ast::{BinOp, Expr, Item, Markup, ModelAst, Stmt, UnOp};
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
    pub fn diff_expr(&self, name: &str) -> Option<&Expr> {
        let want = format!("diff_{name}");
        self.stmts.iter().find_map(|s| match s {
            Stmt::Assign { lhs, expr, .. } if *lhs == want => Some(expr),
            _ => None,
        })
    }

    /// Total number of expression nodes, a complexity measure used for
    /// model-class calibration.
    pub fn complexity(&self) -> usize {
        fn stmt_size(s: &Stmt) -> usize {
            match s {
                Stmt::Assign { expr, .. } => expr.size(),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    cond.size()
                        + then_body.iter().map(stmt_size).sum::<usize>()
                        + else_body.iter().map(stmt_size).sum::<usize>()
                }
            }
        }
        self.stmts.iter().map(stmt_size).sum()
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

/// Evaluates an expression to a constant under `env` (typically the
/// parameter defaults). Returns `None` when any referenced name is missing.
pub fn eval_const(expr: &Expr, env: &HashMap<String, f64>) -> Option<f64> {
    eval_with(expr, &|name| env.get(name).copied())
}

/// [`eval_const`] with the environment as a lookup function.
fn eval_with(expr: &Expr, env: &impl Fn(&str) -> Option<f64>) -> Option<f64> {
    Some(match expr {
        Expr::Num(v) => *v,
        Expr::Var(name) => env(name)?,
        Expr::Unary(UnOp::Neg, e) => -eval_with(e, env)?,
        Expr::Unary(UnOp::Not, e) => {
            if eval_with(e, env)? != 0.0 {
                0.0
            } else {
                1.0
            }
        }
        Expr::Binary(op, l, r) => {
            let (a, b) = (eval_with(l, env)?, eval_with(r, env)?);
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
        Expr::Call(name, args) => {
            let vals: Option<Vec<f64>> = args.iter().map(|a| eval_with(a, env)).collect();
            let vals = vals?;
            match (name.as_str(), vals.as_slice()) {
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
        Expr::Cond(c, t, e) => {
            if eval_with(c, env)? != 0.0 {
                eval_with(t, env)?
            } else {
                eval_with(e, env)?
            }
        }
    })
}

/// Decomposes `expr` as affine in `var`: `expr = a + b * var`, returning
/// `(a, b)` as expressions free of `var`. Returns `None` when `var` occurs
/// non-affinely (inside calls, conditions, products with itself, …).
///
/// This is the gate-form analysis behind the Rush-Larsen integrators: a gate
/// equation `dx/dt = (x_inf - x) / tau` is affine in `x` with
/// `a = x_inf/tau`, `b = -1/tau`.
pub fn affine_in(expr: &Expr, var: &str) -> Option<(Expr, Expr)> {
    if !expr.references(var) {
        return Some((expr.clone(), Expr::Num(0.0)));
    }
    match expr {
        Expr::Var(v) if v == var => Some((Expr::Num(0.0), Expr::Num(1.0))),
        Expr::Unary(UnOp::Neg, e) => {
            let (a, b) = affine_in(e, var)?;
            Some((
                Expr::Unary(UnOp::Neg, Box::new(a)),
                Expr::Unary(UnOp::Neg, Box::new(b)),
            ))
        }
        Expr::Binary(BinOp::Add, l, r) => {
            let (al, bl) = affine_in(l, var)?;
            let (ar, br) = affine_in(r, var)?;
            Some((Expr::bin(BinOp::Add, al, ar), Expr::bin(BinOp::Add, bl, br)))
        }
        Expr::Binary(BinOp::Sub, l, r) => {
            let (al, bl) = affine_in(l, var)?;
            let (ar, br) = affine_in(r, var)?;
            Some((Expr::bin(BinOp::Sub, al, ar), Expr::bin(BinOp::Sub, bl, br)))
        }
        Expr::Binary(BinOp::Mul, l, r) => {
            // Exactly one side may reference var.
            if !r.references(var) {
                let (a, b) = affine_in(l, var)?;
                Some((
                    Expr::bin(BinOp::Mul, a, (**r).clone()),
                    Expr::bin(BinOp::Mul, b, (**r).clone()),
                ))
            } else if !l.references(var) {
                let (a, b) = affine_in(r, var)?;
                Some((
                    Expr::bin(BinOp::Mul, (**l).clone(), a),
                    Expr::bin(BinOp::Mul, (**l).clone(), b),
                ))
            } else {
                None
            }
        }
        Expr::Binary(BinOp::Div, l, r) => {
            if r.references(var) {
                return None;
            }
            let (a, b) = affine_in(l, var)?;
            Some((
                Expr::bin(BinOp::Div, a, (**r).clone()),
                Expr::bin(BinOp::Div, b, (**r).clone()),
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

/// The markups' effect on the names they are attached to. Every name
/// borrows from the AST.
#[derive(Default)]
struct Markups<'a> {
    external: Vec<&'a str>,
    parent: Vec<&'a str>,
    lookups: Vec<Lookup>,
    /// `.method()` and the line of its markup, per name (the last markup
    /// wins); ordered, so the diagnostics come out in one order.
    methods: BTreeMap<&'a str, (Method, usize)>,
}

impl<'a> Markups<'a> {
    fn apply(&mut self, names: &[&'a str], m: &Markup, errors: &mut Vec<SemaError>) {
        match m.name.as_str() {
            "external" => push_new(&mut self.external, names),
            "parent" => push_new(&mut self.parent, names),
            "lookup" => {
                let nums: Vec<Option<f64>> = m.args.iter().map(|a| a.as_num()).collect();
                match nums.as_slice() {
                    [Some(lo), Some(hi), Some(step)] if *step > 0.0 && hi > lo => {
                        for n in names {
                            self.lookups.push(Lookup {
                                var: (*n).to_owned(),
                                lo: *lo,
                                hi: *hi,
                                step: *step,
                            });
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
                let arg = m.args.first().and_then(|a| a.as_ident());
                match arg.and_then(Method::parse) {
                    Some(method) => {
                        for &n in names {
                            self.methods.insert(n, (method, m.line));
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
fn push_new<'a>(list: &mut Vec<&'a str>, names: &[&'a str]) {
    for &n in names {
        if !list.contains(&n) {
            list.push(n);
        }
    }
}

/// The checks of [`analyze`], borrowing every name from `ast`. Returns the
/// model with room for, but not yet, its statements, and the indices of
/// the `ModelAst::items` that hold them, in dependency order.
fn check(ast: &ModelAst) -> Result<(Model, Vec<usize>), SemaErrors> {
    let mut errors: Vec<SemaError> = Vec::new();

    // ---- collect declarations & markups ----
    let mut marks = Markups::default();
    let mut params: Vec<Param> = Vec::new();
    for item in &ast.items {
        match item {
            Item::Decl { name, markups, .. } => {
                for m in markups {
                    marks.apply(&[name.as_str()], m, &mut errors);
                }
            }
            Item::Group {
                items,
                markups,
                line,
            } => {
                let is_param = markups.iter().any(|m| m.name == "param");
                if is_param {
                    for gi in items {
                        let default = match &gi.default {
                            Some(e) => eval_with(e, &|_| None).unwrap_or_else(|| {
                                errors.push(Diagnostic::new(
                                    ErrorCode::NonConstParamDefault,
                                    Span::line(*line),
                                    format!("parameter {} default must be a constant", gi.name),
                                ));
                                0.0
                            }),
                            None => 0.0,
                        };
                        params.push(Param {
                            name: gi.name.clone(),
                            default,
                        });
                    }
                } else {
                    for gi in items {
                        if gi.default.is_some() {
                            errors.push(Diagnostic::new(
                                ErrorCode::DefaultOutsideParamGroup,
                                Span::line(*line),
                                format!(
                                    "group member {} has a default but the group is not .param()",
                                    gi.name
                                ),
                            ));
                        }
                    }
                }
                if !markups.is_empty() {
                    let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
                    for m in markups {
                        marks.apply(&names, m, &mut errors);
                    }
                }
            }
            Item::Stmt(_) => {}
        }
    }

    // ---- partition statements ----
    // The body: item index and statement, in source order.
    let mut body: Vec<(usize, &Stmt)> = Vec::with_capacity(ast.items.len());
    let mut inits: HashMap<&str, (&Expr, usize)> = HashMap::new();
    for (i, item) in ast.items.iter().enumerate() {
        if let Item::Stmt(stmt) = item {
            match stmt {
                Stmt::Assign { lhs, expr, line } if lhs.ends_with("_init") => {
                    let base = lhs.trim_end_matches("_init");
                    if inits.insert(base, (expr, *line)).is_some() {
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
    let mut assigned_names: Vec<(&str, usize)> = Vec::with_capacity(body.len());
    for (_, s) in &body {
        collect_top_defs(s, &mut assigned_names, &mut errors);
    }
    // Every name the checks ask about, in one map: parameters, assigned
    // names and the states they define, externals, `t` and `dt`.
    let mut known: HashMap<&str, Known> =
        HashMap::with_capacity(params.len() + 2 * assigned_names.len() + 4);
    for p in &params {
        let k = known.entry(&p.name).or_default();
        k.flags |= PARAM;
        k.param_default = p.default;
    }
    // Single-assignment check.
    for &(n, line) in &assigned_names {
        let k = known.entry(n).or_default();
        if k.flags & ASSIGNED != 0 {
            errors.push(Diagnostic::new(
                ErrorCode::DoubleAssignment,
                Span::line(line),
                format!("{n} assigned more than once (EasyML is single-assignment)"),
            ));
        }
        k.flags |= ASSIGNED;
    }

    let param_default = |n: &str| {
        let k = known.get(n).filter(|k| k.flags & PARAM != 0);
        k.map(|k| k.param_default)
    };
    let init_of = |name: &str, errors: &mut Vec<SemaError>| -> f64 {
        match inits.get(name) {
            Some(&(expr, line)) => match eval_with(expr, &param_default) {
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
        .filter_map(|(n, _)| n.strip_prefix("diff_"))
        .map(|n| StateVar {
            name: n.to_owned(),
            init: init_of(n, &mut errors),
            method: marks.methods.get(n).map(|(m, _)| *m).unwrap_or_default(),
        })
        .collect();

    let externals: Vec<ExtVar> = marks
        .external
        .iter()
        .map(|&n| ExtVar {
            name: n.to_owned(),
            init: init_of(n, &mut errors),
            assigned: known.get(n).is_some_and(|k| k.flags & ASSIGNED != 0),
            parent: marks.parent.contains(&n),
        })
        .collect();

    for p in &marks.parent {
        if !marks.external.contains(p) {
            errors.push(Diagnostic::new(
                ErrorCode::ParentNotExternal,
                Span::none(),
                format!(".parent() applied to {p}, which is not .external()"),
            ));
        }
    }

    // ---- validity checks on names ----
    for s in &states {
        known.entry(&s.name).or_default().flags |= STATE;
    }
    for e in &externals {
        known.entry(&e.name).or_default().flags |= EXTERNAL;
    }
    let is = |n: &str, kinds: u8| known.get(n).is_some_and(|k| k.flags & kinds != 0);

    for (&m, &(_, line)) in &marks.methods {
        if !is(m, STATE) {
            errors.push(Diagnostic::new(
                ErrorCode::MethodOnNonState,
                Span::line(line),
                format!(".method() applied to {m}, which has no diff_{m} equation"),
            ));
        }
    }
    for l in &marks.lookups {
        if !is(&l.var, STATE | EXTERNAL | ASSIGNED) {
            errors.push(Diagnostic::new(
                ErrorCode::LookupOnUndefined,
                Span::none(),
                format!(".lookup() applied to undefined variable {}", l.var),
            ));
        }
    }
    for &(n, line) in &assigned_names {
        if is(n, STATE) {
            errors.push(Diagnostic::new(
                ErrorCode::DirectStateAssignment,
                Span::line(line),
                format!("state variable {n} cannot be assigned directly; assign diff_{n} instead"),
            ));
        }
        if is(n, PARAM) {
            errors.push(Diagnostic::new(
                ErrorCode::ParamAssignment,
                Span::line(line),
                format!("parameter {n} cannot be assigned in the model body"),
            ));
        }
    }

    // Names readable without a definition are the sources; the body's
    // statements define the rest.
    for n in IMPLICIT_SOURCES {
        known.entry(n).or_default().flags |= IMPLICIT;
    }
    for (i, (_, s)) in body.iter().enumerate() {
        s.for_each_assigned(&mut |d| known.entry(d).or_default().def = Some(i));
    }
    // One walk checks every read and collects the def-use edges.
    let mut uses = Uses {
        known: &known,
        errors: &mut errors,
        edges: Vec::new(),
    };
    for (i, (_, s)) in body.iter().enumerate() {
        uses.stmt(s, i);
    }
    let edges = uses.edges;

    // ---- topological order ----
    let order = match topo_order(&body, &edges) {
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
            params,
            lookups: marks.lookups,
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
/// readable), its default when it is a parameter, and the body statement
/// that assigns it (the last, when several do).
#[derive(Default)]
struct Known {
    flags: u8,
    param_default: f64,
    def: Option<usize>,
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
fn collect_top_defs<'a>(
    stmt: &'a Stmt,
    out: &mut Vec<(&'a str, usize)>,
    errors: &mut Vec<SemaError>,
) {
    match stmt {
        Stmt::Assign { lhs, line, .. } => out.push((lhs.as_str(), *line)),
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
            let mut either: Vec<&str> = Vec::new();
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
                            "{n} is assigned in only one branch of a conditional; EasyML \
                             requires both branches to define it"
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
struct Uses<'k, 'a> {
    known: &'k HashMap<&'a str, Known>,
    errors: &'k mut Vec<SemaError>,
    edges: Vec<(usize, usize)>,
}

impl Uses<'_, '_> {
    /// Statement `i` of the body, or a statement nested in it.
    fn stmt(&mut self, stmt: &Stmt, i: usize) {
        match stmt {
            Stmt::Assign { expr, line, .. } => self.expr(expr, i, *line),
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                self.expr(cond, i, *line);
                for s in then_body.iter().chain(else_body) {
                    self.stmt(s, i);
                }
            }
        }
    }

    fn expr(&mut self, expr: &Expr, i: usize, line: usize) {
        match expr {
            Expr::Num(_) => {}
            Expr::Var(name) => {
                let known = self.known.get(name.as_str());
                if known.is_none_or(|k| k.flags == 0) {
                    self.errors.push(Diagnostic::new(
                        ErrorCode::UndefinedVariable,
                        Span::line(line),
                        format!("use of undefined variable {name}"),
                    ));
                }
                if let Some(j) = known.and_then(|k| k.def).filter(|&j| j != i) {
                    self.edges.push((j, i));
                }
            }
            Expr::Unary(_, e) => self.expr(e, i, line),
            Expr::Binary(_, l, r) => {
                self.expr(l, i, line);
                self.expr(r, i, line);
            }
            Expr::Call(name, args) => {
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
                for a in args {
                    self.expr(a, i, line);
                }
            }
            Expr::Cond(c, t, e) => {
                self.expr(c, i, line);
                self.expr(t, i, line);
                self.expr(e, i, line);
            }
        }
    }
}

/// Kahn topological sort of the body along its def-use `edges`, returning
/// the item index of each statement in order (among ready statements, the
/// earliest in the source first). A repeated edge adds one to its
/// reader's in-degree and is taken once more when its definer is
/// ordered, so it delays nothing. On a cycle, returns the names one
/// statement stuck in it defines.
fn topo_order(body: &[(usize, &Stmt)], edges: &[(usize, usize)]) -> Result<Vec<usize>, String> {
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
        body[stuck].1.for_each_assigned(&mut |d| defs.push(d));
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
                Stmt::Assign { lhs, .. } => lhs.as_str(),
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
        let m = analyze(&parse_model("m", src).unwrap()).unwrap();
        let d = m.diff_expr("m").unwrap();
        let (a, b) = affine_in(d, "m").expect("gate equation must be affine");
        let env: HashMap<String, f64> =
            [("m_inf".to_string(), 0.5), ("tau".to_string(), 2.0)].into();
        assert_eq!(eval_const(&a, &env), Some(0.25));
        assert_eq!(eval_const(&b, &env), Some(-0.5));
    }

    #[test]
    fn affine_rejects_nonlinear() {
        let e = Expr::bin(BinOp::Mul, Expr::Var("x".into()), Expr::Var("x".into()));
        assert!(affine_in(&e, "x").is_none());
        let c = Expr::Call("exp".into(), vec![Expr::Var("x".into())]);
        assert!(affine_in(&c, "x").is_none());
    }

    #[test]
    fn affine_alpha_beta_form() {
        // dx = alpha*(1-x) - beta*x  -> a = alpha, b = -(alpha+beta)
        let e = Expr::bin(
            BinOp::Sub,
            Expr::bin(
                BinOp::Mul,
                Expr::Var("alpha".into()),
                Expr::bin(BinOp::Sub, Expr::Num(1.0), Expr::Var("x".into())),
            ),
            Expr::bin(BinOp::Mul, Expr::Var("beta".into()), Expr::Var("x".into())),
        );
        let (a, b) = affine_in(&e, "x").unwrap();
        let env: HashMap<String, f64> =
            [("alpha".to_string(), 3.0), ("beta".to_string(), 5.0)].into();
        assert_eq!(eval_const(&a, &env), Some(3.0));
        assert_eq!(eval_const(&b, &env), Some(-8.0));
    }

    #[test]
    fn eval_const_covers_all_builtins() {
        let env = HashMap::new();
        for (name, arity) in BUILTINS {
            let args = vec![Expr::Num(0.5); arity];
            let e = Expr::Call(name.to_string(), args);
            assert!(
                eval_const(&e, &env).is_some(),
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
