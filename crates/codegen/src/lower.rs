//! Lowering of checked EasyML models to IR.
//!
//! Produces the `@compute` kernel — the per-cell loop body of paper
//! Listing 2/3 — plus one `@lut_<var>` column function per extracted lookup
//! table. The kernel reads external and state variables, evaluates the
//! ordered equation system, applies each state variable's integration
//! method, and stores the new state and external outputs.
//!
//! All six integration methods of paper §3.3.2 are implemented: `fe`,
//! `rk2`, `rk4`, `rush_larsen`, `sundnes`, and `markov_be`.

use crate::lut::{extract_luts, LutTable, LUT_COL_MARKER};
use limpet_easyml::{affine_in, BinOp, ExprId, ExprRef, Exprs, Method, Model, Stmt, Sym, UnOp};
use limpet_ir::{Builder, CmpFPred, Func, LutSpec, MathFn, Module, Type, ValueId};
use std::cell::OnceCell;

/// Options controlling code generation.
#[derive(Debug, Clone)]
pub struct CodegenOptions {
    /// Honour `.lookup()` markups by extracting interpolation tables
    /// (paper §3.4.2). Both the openCARP baseline and limpetMLIR use LUTs;
    /// disabling them isolates the LUT contribution in ablations.
    pub use_lut: bool,
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions { use_lut: true }
    }
}

/// Diagnostics produced while lowering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// State variables that requested `rush_larsen`/`sundnes` but whose
    /// derivative is not affine in the variable; they fall back to forward
    /// Euler, as openCARP does for non-gate equations.
    pub rl_fallbacks: Vec<String>,
    /// `(lookup variable, column count)` for each extracted table.
    pub lut_tables: Vec<(String, usize)>,
}

/// The result of lowering a model.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The generated module (functions `@compute` and `@lut_*`).
    pub module: Module,
    /// Lowering diagnostics.
    pub report: Report,
}

/// Lowers a checked model to an IR module.
///
/// # Examples
///
/// ```
/// use limpet_codegen::{lower_model, CodegenOptions};
/// let model = limpet_easyml::compile_model("M", "diff_x = -x;").unwrap();
/// let lowered = lower_model(&model, &CodegenOptions::default());
/// assert!(lowered.module.func("compute").is_some());
/// limpet_ir::verify_module(&lowered.module).unwrap();
/// ```
pub fn lower_model(model: &Model, opts: &CodegenOptions) -> Lowered {
    // This lowering's copy of the model's nodes: LUT extraction and the
    // gate coefficients append theirs to it.
    let (mut exprs, stmts, tables) = if opts.use_lut {
        let ex = extract_luts(model);
        (ex.exprs, ex.stmts, ex.tables)
    } else {
        (model.exprs.clone(), model.stmts.clone(), Vec::new())
    };

    let mut report = Report::default();
    for t in &tables {
        report.lut_tables.push((t.var.clone(), t.columns.len()));
    }

    // Each state's name and that of its derivative, then `dt`, which the
    // integrators read whether or not the model does.
    let states: Vec<(Sym, Sym)> = model
        .states
        .iter()
        .map(|sv| {
            (
                exprs.intern(&sv.name),
                exprs.intern(&format!("diff_{}", sv.name)),
            )
        })
        .collect();
    let dt = exprs.intern("dt");
    let cones = Cones::new(&stmts, states.len());
    let gates = model
        .states
        .iter()
        .zip(&states)
        .enumerate()
        .map(|(at, (sv, &(x, diff)))| match sv.method {
            Method::RushLarsen | Method::Sundnes | Method::MarkovBe => {
                gate_coefficients(&mut exprs, &stmts, &cones, at, x, diff)
            }
            _ => None,
        })
        .collect();

    let mut module = Module::new(&model.name);
    let lowerer = Lowerer {
        model,
        marker: exprs.sym(LUT_COL_MARKER),
        exprs: &exprs,
        stmts: &stmts,
        tables: &tables,
        states,
        dt,
        cones,
        gates,
    };

    // LUT column functions + specs.
    for table in tables.iter() {
        let fname = format!("lut_{}", table.var);
        module.luts.push(LutSpec {
            name: table.var.clone(),
            lo: table.lookup.lo,
            hi: table.lookup.hi,
            step: table.lookup.step,
            func: fname.clone(),
            cols: (0..table.columns.len()).map(|i| format!("c{i}")).collect(),
        });
        module.add_func(lowerer.lower_lut_func(&fname, table));
    }

    module.add_func(lowerer.lower_compute(&mut report));
    Lowered { module, report }
}

struct Lowerer<'m> {
    model: &'m Model,
    exprs: &'m Exprs,
    stmts: &'m [Stmt],
    tables: &'m [LutTable],
    /// The name of LUT column references, when there are any.
    marker: Option<Sym>,
    /// `(X, diff_X)` of each entry of `model.states`.
    states: Vec<(Sym, Sym)>,
    dt: Sym,
    cones: Cones<'m>,
    /// The affine coefficients `(a, b)` of each state's derivative, for the
    /// methods that use them ([`gate_coefficients`]).
    gates: Vec<Option<(ExprId, ExprId)>>,
}

/// The def-use index of the statement list.
struct Deps {
    /// The statements that assign each name, by symbol index.
    defs: Vec<Vec<usize>>,
    /// The names each statement reads.
    reads: Vec<Vec<Sym>>,
}

impl Deps {
    fn of(exprs: &Exprs, stmts: &[Stmt]) -> Deps {
        let mut defs: Vec<Vec<usize>> = vec![Vec::new(); exprs.names()];
        let mut reads = Vec::with_capacity(stmts.len());
        for (i, s) in stmts.iter().enumerate() {
            s.for_each_assigned(&mut |n| defs[n.index()].push(i));
            let mut r = Vec::new();
            s.for_each_read(exprs, &mut |n| r.push(n));
            reads.push(r);
        }
        Deps { defs, reads }
    }
}

/// The dependency cones of the state variables, each built on first use.
struct Cones<'m> {
    stmts: &'m [Stmt],
    /// Who defines and reads what, built on the first cone.
    deps: OnceCell<Deps>,
    /// The cone of each entry of `model.states`.
    cones: Vec<OnceCell<Vec<usize>>>,
}

impl<'m> Cones<'m> {
    fn new(stmts: &'m [Stmt], states: usize) -> Cones<'m> {
        Cones {
            stmts,
            deps: OnceCell::new(),
            cones: vec![OnceCell::new(); states],
        }
    }

    fn deps(&self, exprs: &Exprs) -> &Deps {
        self.deps.get_or_init(|| Deps::of(exprs, self.stmts))
    }

    /// The indices, in order, of the statements needed to compute
    /// `diff_X` for state `at` (whose derivative is `diff`): those that
    /// assign `diff_X` or, transitively, a name one of them reads.
    fn cone(&self, exprs: &Exprs, at: usize, diff: Sym) -> &[usize] {
        self.cones[at].get_or_init(|| {
            let deps = self.deps(exprs);
            let mut needed = vec![false; self.stmts.len()];
            let mut seen = vec![false; deps.defs.len()];
            let mut want: Vec<Sym> = vec![diff];
            while let Some(w) = want.pop() {
                if std::mem::replace(&mut seen[w.index()], true) {
                    continue;
                }
                for &i in &deps.defs[w.index()] {
                    if !needed[i] {
                        needed[i] = true;
                        want.extend(&deps.reads[i]);
                    }
                }
            }
            (0..needed.len()).filter(|&i| needed[i]).collect()
        })
    }
}

/// Affine gate coefficients `(a, b)` with `diff_X = a + b·X` for state
/// `at` (`X` is `x`, its derivative `diff`), appended to `exprs`;
/// available only when no other statement in the dependency cone reads
/// `X`.
fn gate_coefficients(
    exprs: &mut Exprs,
    stmts: &[Stmt],
    cones: &Cones<'_>,
    at: usize,
    x: Sym,
    diff: Sym,
) -> Option<(ExprId, ExprId)> {
    let diff_expr = stmts.iter().find_map(|s| match *s {
        Stmt::Assign { lhs, expr, .. } if lhs == diff => Some(expr),
        _ => None,
    })?;
    // Transitive check: intermediates feeding diff may not read X.
    let reads = &cones.deps(exprs).reads;
    for &i in cones.cone(exprs, at, diff) {
        if let Stmt::Assign { lhs, .. } = stmts[i] {
            if lhs == diff {
                continue;
            }
        }
        if reads[i].contains(&x) {
            return None;
        }
    }
    affine_in(exprs, diff_expr, x)
}

/// Per-context value environment: defined names plus cached source reads,
/// by symbol index.
#[derive(Clone, Default)]
struct Env(Vec<Option<ValueId>>);

impl Env {
    fn get(&self, name: Sym) -> Option<ValueId> {
        self.0.get(name.index()).copied().flatten()
    }

    fn insert(&mut self, name: Sym, v: ValueId) {
        if self.0.len() <= name.index() {
            self.0.resize(name.index() + 1, None);
        }
        self.0[name.index()] = Some(v);
    }

    fn of(&self, name: Sym) -> ValueId {
        self.get(name).expect("name defined before it is read")
    }
}

impl<'m> Lowerer<'m> {
    // ---- compute kernel ----

    fn lower_compute(&self, report: &mut Report) -> Func {
        let mut func = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut func);
        let mut env = Env::default();
        let overrides = Env::default();

        // Evaluate the full equation system once.
        self.lower_stmts(&mut b, self.stmts, &mut env, &overrides);

        // Integrate every state variable from the *original* state
        // (simultaneous update, as in the generated code of Listing 2).
        let mut new_values: Vec<(&str, ValueId)> = Vec::new();
        for (at, sv) in self.model.states.iter().enumerate() {
            let v = self.integrate(&mut b, at, sv.method, &mut env, report);
            new_values.push((&sv.name, v));
        }

        // "Finish the update".
        for (name, v) in &new_values {
            b.set_state(name, *v);
        }
        // "Save all external vars".
        for ext in &self.model.externals {
            if ext.assigned {
                let v = self
                    .exprs
                    .sym(&ext.name)
                    .and_then(|n| env.get(n))
                    .expect("assigned external must be in env");
                b.set_ext(&ext.name, v);
            }
        }
        b.ret(&[]);
        func
    }

    // ---- LUT column function ----

    fn lower_lut_func(&self, name: &str, table: &LutTable) -> Func {
        let result_types = vec![Type::F64; table.columns.len()];
        let mut func = Func::new(name, &[Type::F64], &result_types);
        let key = func.args()[0];
        let mut b = Builder::new(&mut func);
        let mut env = Env::default();
        if let Some(var) = self.exprs.sym(&table.var) {
            env.insert(var, key);
        }
        let overrides = Env::default();
        let results: Vec<ValueId> = table
            .columns
            .iter()
            .map(|&c| self.lower_num(&mut b, c, &mut env, &overrides))
            .collect();
        b.ret(&results);
        func
    }

    // ---- statements ----

    fn lower_stmts(&self, b: &mut Builder<'_>, stmts: &[Stmt], env: &mut Env, ov: &Env) {
        for s in stmts {
            self.lower_stmt(b, s, env, ov);
        }
    }

    fn lower_stmt(&self, b: &mut Builder<'_>, stmt: &Stmt, env: &mut Env, ov: &Env) {
        match stmt {
            Stmt::Assign { lhs, expr, .. } => {
                let v = self.lower_num(b, *expr, env, ov);
                env.insert(*lhs, v);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.lower_bool(b, *cond, env, ov);
                let mut names = Vec::new();
                for s in then_body {
                    s.for_each_assigned(&mut |n| names.push(n));
                }
                names.sort_by_key(|&n| self.exprs.name(n));
                names.dedup();
                let result_types = vec![Type::F64; names.len()];
                // Each branch lowers into its own region with a copy of the
                // environment, then yields the assigned values.
                let results = {
                    let mut env_then = env.clone();
                    let mut env_else = env.clone();
                    b.if_op(
                        c,
                        &result_types,
                        |bb| {
                            self.lower_stmts(bb, then_body, &mut env_then, ov);
                            let vals: Vec<ValueId> =
                                names.iter().map(|&n| env_then.of(n)).collect();
                            bb.yield_(&vals);
                        },
                        |bb| {
                            self.lower_stmts(bb, else_body, &mut env_else, ov);
                            let vals: Vec<ValueId> =
                                names.iter().map(|&n| env_else.of(n)).collect();
                            bb.yield_(&vals);
                        },
                    )
                };
                for (&n, v) in names.iter().zip(results) {
                    env.insert(n, v);
                }
            }
        }
    }

    // ---- expressions ----

    /// Lowers an expression in numeric (f64) context.
    fn lower_num(&self, b: &mut Builder<'_>, expr: ExprId, env: &mut Env, ov: &Env) -> ValueId {
        match self.exprs.get(expr) {
            ExprRef::Num(v) => b.const_f(v),
            ExprRef::Var(name) => self.lower_var(b, name, env, ov),
            ExprRef::Unary(UnOp::Neg, e) => {
                let v = self.lower_num(b, e, env, ov);
                b.negf(v)
            }
            ExprRef::Unary(UnOp::Not, e) => {
                let c = self.lower_bool(b, e, env, ov);
                let n = b.not(c);
                self.bool_to_num(b, n)
            }
            ExprRef::Binary(op, _, _) if op.is_boolean() => {
                let c = self.lower_bool(b, expr, env, ov);
                self.bool_to_num(b, c)
            }
            ExprRef::Binary(op, l, r) => {
                let lv = self.lower_num(b, l, env, ov);
                let rv = self.lower_num(b, r, env, ov);
                match op {
                    BinOp::Add => b.addf(lv, rv),
                    BinOp::Sub => b.subf(lv, rv),
                    BinOp::Mul => b.mulf(lv, rv),
                    BinOp::Div => b.divf(lv, rv),
                    BinOp::Rem => b.remf(lv, rv),
                    _ => unreachable!("boolean ops handled above"),
                }
            }
            ExprRef::Call(name, &[t, c, key]) if Some(name) == self.marker => {
                let (ExprRef::Num(t), ExprRef::Num(c)) = (self.exprs.get(t), self.exprs.get(c))
                else {
                    panic!("malformed {LUT_COL_MARKER} marker");
                };
                let table = &self.tables[t as usize];
                let key = self.lower_num(b, key, env, ov);
                b.lut_col(&table.var, c as i64, key)
            }
            ExprRef::Call(name, args) => self.lower_call(b, self.exprs.name(name), args, env, ov),
            ExprRef::Cond(c, t, e) => {
                let cv = self.lower_bool(b, c, env, ov);
                let tv = self.lower_num(b, t, env, ov);
                let ev = self.lower_num(b, e, env, ov);
                b.select(cv, tv, ev)
            }
        }
    }

    /// Lowers an expression in boolean (i1) context.
    fn lower_bool(&self, b: &mut Builder<'_>, expr: ExprId, env: &mut Env, ov: &Env) -> ValueId {
        match self.exprs.get(expr) {
            ExprRef::Binary(op, l, r) if op.is_boolean() => match op {
                BinOp::And => {
                    let lv = self.lower_bool(b, l, env, ov);
                    let rv = self.lower_bool(b, r, env, ov);
                    b.andi(lv, rv)
                }
                BinOp::Or => {
                    let lv = self.lower_bool(b, l, env, ov);
                    let rv = self.lower_bool(b, r, env, ov);
                    b.ori(lv, rv)
                }
                cmp => {
                    let lv = self.lower_num(b, l, env, ov);
                    let rv = self.lower_num(b, r, env, ov);
                    let pred = match cmp {
                        BinOp::Lt => CmpFPred::Olt,
                        BinOp::Le => CmpFPred::Ole,
                        BinOp::Gt => CmpFPred::Ogt,
                        BinOp::Ge => CmpFPred::Oge,
                        BinOp::Eq => CmpFPred::Oeq,
                        BinOp::Ne => CmpFPred::One,
                        _ => unreachable!(),
                    };
                    b.cmpf(pred, lv, rv)
                }
            },
            ExprRef::Unary(UnOp::Not, e) => {
                let c = self.lower_bool(b, e, env, ov);
                b.not(c)
            }
            _ => {
                // Numeric truthiness: value != 0.
                let v = self.lower_num(b, expr, env, ov);
                let z = b.const_f(0.0);
                b.cmpf(CmpFPred::One, v, z)
            }
        }
    }

    fn bool_to_num(&self, b: &mut Builder<'_>, c: ValueId) -> ValueId {
        let one = b.const_f(1.0);
        let zero = b.const_f(0.0);
        b.select(c, one, zero)
    }

    fn lower_var(&self, b: &mut Builder<'_>, sym: Sym, env: &mut Env, ov: &Env) -> ValueId {
        if let Some(v) = ov.get(sym) {
            return v;
        }
        if let Some(v) = env.get(sym) {
            return v;
        }
        let name = self.exprs.name(sym);
        let v = if let Some(ext) = self.model.external(name) {
            if ext.parent {
                let fallback = b.get_ext(name);
                b.get_parent_state(name, fallback)
            } else {
                b.get_ext(name)
            }
        } else if self.model.state(name).is_some() {
            b.get_state(name)
        } else if self.model.param(name).is_some() {
            b.param(name)
        } else if name == "dt" {
            b.dt()
        } else if name == "t" {
            b.time()
        } else {
            panic!("sema must reject undefined variable {name}");
        };
        env.insert(sym, v);
        v
    }

    fn lower_call(
        &self,
        b: &mut Builder<'_>,
        name: &str,
        args: &[ExprId],
        env: &mut Env,
        ov: &Env,
    ) -> ValueId {
        let vals: Vec<ValueId> = args
            .iter()
            .map(|&a| self.lower_num(b, a, env, ov))
            .collect();
        match (name, vals.as_slice()) {
            ("square", [x]) => b.mulf(*x, *x),
            ("cube", [x]) => {
                let sq = b.mulf(*x, *x);
                b.mulf(sq, *x)
            }
            ("fabs", [x]) | ("abs", [x]) => b.math1(MathFn::Abs, *x),
            ("fmod", [x, y]) => b.remf(*x, *y),
            ("pow", [x, y]) => b.math2(MathFn::Pow, *x, *y),
            ("atan2", [x, y]) => b.math2(MathFn::Atan2, *x, *y),
            ("copysign", [x, y]) => b.math2(MathFn::CopySign, *x, *y),
            (unary, [x]) => {
                let f = MathFn::parse(map_math_name(unary))
                    .unwrap_or_else(|| panic!("sema must reject unknown function {unary}"));
                b.math1(f, *x)
            }
            _ => panic!("sema must reject bad call to {name}"),
        }
    }

    // ---- integration methods (paper §3.3.2) ----

    /// The new value of state `at` under `method`.
    fn integrate(
        &self,
        b: &mut Builder<'_>,
        at: usize,
        method: Method,
        env: &mut Env,
        report: &mut Report,
    ) -> ValueId {
        let (state, diff_name) = self.states[at];
        let diff = env.of(diff_name);
        let x = self.lower_var(b, state, env, &Env::default());
        let dt = self.lower_var(b, self.dt, env, &Env::default());

        match method {
            Method::Fe => self.fe_step(b, x, diff, dt),
            Method::Rk2 => {
                // Midpoint: x_mid = x + dt/2 * k1; x' = x + dt * f(x_mid).
                let half = b.const_f(0.5);
                let hdt = b.mulf(dt, half);
                let k1dt = b.mulf(diff, hdt);
                let x_mid = b.addf(x, k1dt);
                let k2 = self.eval_diff_with(b, at, x_mid);
                self.fe_step(b, x, k2, dt)
            }
            Method::Rk4 => {
                let half = b.const_f(0.5);
                let hdt = b.mulf(dt, half);
                let k1 = diff;
                let d1 = b.mulf(k1, hdt);
                let x1 = b.addf(x, d1);
                let k2 = self.eval_diff_with(b, at, x1);
                let d2 = b.mulf(k2, hdt);
                let x2 = b.addf(x, d2);
                let k3 = self.eval_diff_with(b, at, x2);
                let d3 = b.mulf(k3, dt);
                let x3 = b.addf(x, d3);
                let k4 = self.eval_diff_with(b, at, x3);
                // x + dt/6 * (k1 + 2k2 + 2k3 + k4)
                let two = b.const_f(2.0);
                let k2x2 = b.mulf(k2, two);
                let k3x2 = b.mulf(k3, two);
                let s1 = b.addf(k1, k2x2);
                let s2 = b.addf(s1, k3x2);
                let s3 = b.addf(s2, k4);
                let sixth = b.const_f(1.0 / 6.0);
                let dt6 = b.mulf(dt, sixth);
                let upd = b.mulf(s3, dt6);
                b.addf(x, upd)
            }
            Method::RushLarsen => match self.gates[at] {
                Some((a_expr, b_expr)) => {
                    let a = self.lower_num(b, a_expr, env, &Env::default());
                    let bb = self.lower_num(b, b_expr, env, &Env::default());
                    self.rl_step(b, x, a, bb, dt, diff)
                }
                None => {
                    report.rl_fallbacks.push(self.model.states[at].name.clone());
                    self.fe_step(b, x, diff, dt)
                }
            },
            Method::Sundnes => match self.gates[at] {
                Some((a_expr, b_expr)) => {
                    // Second-order Rush-Larsen (Sundnes et al. 2009):
                    // take all states a half-step, re-evaluate the gate
                    // coefficients there, then apply one full RL step.
                    let mut hov = Env::default();
                    let half = b.const_f(0.5);
                    let hdt = b.mulf(dt, half);
                    for &(s, ds) in &self.states {
                        let d = env.of(ds);
                        let xs = self.lower_var(b, s, env, &Env::default());
                        let dd = b.mulf(d, hdt);
                        let xh = b.addf(xs, dd);
                        hov.insert(s, xh);
                    }
                    let mut henv = Env::default();
                    self.lower_cone(b, at, &mut henv, &hov);
                    let a2 = self.lower_num(b, a_expr, &mut henv, &hov);
                    let b2 = self.lower_num(b, b_expr, &mut henv, &hov);
                    let d2 = henv.of(diff_name);
                    self.rl_step(b, x, a2, b2, dt, d2)
                }
                None => {
                    report.rl_fallbacks.push(self.model.states[at].name.clone());
                    self.fe_step(b, x, diff, dt)
                }
            },
            Method::MarkovBe => {
                // Backward Euler, clamped to [0, 1] (Markov occupancies).
                // Markov-chain rate equations are affine in the state with
                // the other states frozen, so the implicit equation
                //   y = x + dt (A + B y)
                // solves in closed form: y = (x + dt·A) / (1 − dt·B) —
                // unconditionally stable. Non-affine derivatives fall back
                // to a three-step fixed-point refinement (openCARP's
                // "refinement process to keep values as precise as
                // possible").
                let updated = match self.gates[at] {
                    Some((a_expr, b_expr)) => {
                        let a = self.lower_num(b, a_expr, env, &Env::default());
                        let bb_ = self.lower_num(b, b_expr, env, &Env::default());
                        let da = b.mulf(a, dt);
                        let num = b.addf(x, da);
                        let one = b.const_f(1.0);
                        let db = b.mulf(bb_, dt);
                        let den = b.subf(one, db);
                        b.divf(num, den)
                    }
                    None => {
                        let lb = b.const_index(0);
                        let ub = b.const_index(3);
                        let st = b.const_index(1);
                        let res = b.for_op(lb, ub, st, &[x], |bb, _iv, iters| {
                            let y = iters[0];
                            let f = self.eval_diff_with(bb, at, y);
                            let dt_in = bb.dt();
                            let fd = bb.mulf(f, dt_in);
                            let next = bb.addf(x, fd);
                            bb.yield_(&[next]);
                        });
                        res[0]
                    }
                };
                let zero = b.const_f(0.0);
                let one = b.const_f(1.0);
                let lo = b.maxf(updated, zero);
                b.minf(lo, one)
            }
        }
    }

    fn fe_step(&self, b: &mut Builder<'_>, x: ValueId, diff: ValueId, dt: ValueId) -> ValueId {
        let d = b.mulf(diff, dt);
        b.addf(x, d)
    }

    /// One Rush-Larsen exponential step for `x' = a + b·x`:
    /// `x_new = x·e^{b·dt} + (a/b)(e^{b·dt} − 1)`, guarded against `b ≈ 0`
    /// (where it degenerates to forward Euler). The bytecode optimizer
    /// fuses what this emits into one `Instr::RushLarsen`.
    fn rl_step(
        &self,
        bld: &mut Builder<'_>,
        x: ValueId,
        a: ValueId,
        b: ValueId,
        dt: ValueId,
        diff: ValueId,
    ) -> ValueId {
        let bdt = bld.mulf(b, dt);
        let ebdt = bld.exp(bdt);
        let xe = bld.mulf(x, ebdt);
        let one = bld.const_f(1.0);
        let em1 = bld.subf(ebdt, one);
        let ab = bld.divf(a, b);
        let inhom = bld.mulf(ab, em1);
        let rl = bld.addf(xe, inhom);
        // |b| tiny => division blows up; fall back to fe.
        let absb = bld.math1(MathFn::Abs, b);
        let tiny = bld.const_f(limpet_vm::RUSH_LARSEN_GUARD);
        let safe = bld.cmpf(CmpFPred::Ogt, absb, tiny);
        let fe = self.fe_step(bld, x, diff, dt);
        bld.select(safe, rl, fe)
    }

    /// Re-evaluates `diff_X` of state `at` with `X` overridden by `x` by
    /// re-lowering the dependency cone of `diff_X` in a fresh environment.
    /// This mirrors how the generated code of Listing 2 re-computes
    /// `diff_u1` for the second RK2 stage.
    fn eval_diff_with(&self, b: &mut Builder<'_>, at: usize, x: ValueId) -> ValueId {
        let (state, diff) = self.states[at];
        let mut env = Env::default();
        let mut ov = Env::default();
        ov.insert(state, x);
        self.lower_cone(b, at, &mut env, &ov);
        env.of(diff)
    }

    fn lower_cone(&self, b: &mut Builder<'_>, at: usize, env: &mut Env, ov: &Env) {
        for &i in self.cones.cone(self.exprs, at, self.states[at].1) {
            self.lower_stmt(b, &self.stmts[i], env, ov);
        }
    }
}

/// Maps EasyML spellings to `math` dialect spellings.
fn map_math_name(name: &str) -> &str {
    match name {
        "pow" => "powf",
        "fabs" | "abs" => "absf",
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_easyml::compile_model;
    use limpet_ir::{print_module, verify_module};

    fn lower(src: &str) -> Lowered {
        let m = compile_model("m", src).unwrap();
        lower_model(&m, &CodegenOptions::default())
    }

    fn lower_no_lut(src: &str) -> Lowered {
        let m = compile_model("m", src).unwrap();
        lower_model(&m, &CodegenOptions { use_lut: false })
    }

    #[test]
    fn fe_produces_x_plus_dt_diff() {
        let l = lower("diff_x = -x;");
        verify_module(&l.module).unwrap();
        let text = print_module(&l.module);
        assert!(text.contains("limpet.get_state {var = \"x\"}"));
        assert!(text.contains("limpet.dt"));
        assert!(text.contains("limpet.set_state"));
    }

    #[test]
    fn all_methods_verify() {
        for m in Method::ALL {
            let src = format!("diff_x = 0.5 - 0.25 * x;\nx;.method({});", m.name());
            let l = lower(&src);
            verify_module(&l.module).unwrap_or_else(|e| panic!("method {} failed: {e}", m.name()));
        }
    }

    #[test]
    fn rk2_reevaluates_cone() {
        let l = lower("a = x * 2.0;\ndiff_x = -a;\nx;.method(rk2);");
        verify_module(&l.module).unwrap();
        let text = print_module(&l.module);
        // The cone (a = 2x) must be lowered twice: once for k1, once for k2.
        let count = text.matches("arith.mulf").count();
        assert!(count >= 2, "expected re-lowered cone, got:\n{text}");
    }

    #[test]
    fn rush_larsen_emits_exp() {
        let l = lower("diff_x = (0.5 - x) / 2.0;\nx;.method(rush_larsen);");
        assert!(l.report.rl_fallbacks.is_empty());
        let text = print_module(&l.module);
        assert!(text.contains("math.exp"), "{text}");
    }

    #[test]
    fn rush_larsen_falls_back_on_nonlinear() {
        let l = lower("diff_x = -x * x;\nx;.method(rush_larsen);");
        assert_eq!(l.report.rl_fallbacks, vec!["x"]);
        verify_module(&l.module).unwrap();
    }

    #[test]
    fn markov_be_affine_solves_in_closed_form() {
        // Affine derivative: exact backward Euler, no refinement loop.
        let l = lower("diff_x = 0.2 - x;\nx;.method(markov_be);");
        let text = print_module(&l.module);
        assert!(!text.contains("scf.for"), "{text}");
        assert!(text.contains("arith.divf"), "{text}");
        assert!(text.contains("arith.maximumf"), "{text}");
        assert!(text.contains("arith.minimumf"), "{text}");
        verify_module(&l.module).unwrap();
    }

    #[test]
    fn markov_be_nonlinear_emits_refinement_loop() {
        let l = lower("diff_x = 0.2 - x * x;\nx;.method(markov_be);");
        let text = print_module(&l.module);
        assert!(text.contains("scf.for"), "{text}");
        assert!(text.contains("arith.maximumf"), "{text}");
        assert!(text.contains("arith.minimumf"), "{text}");
        verify_module(&l.module).unwrap();
    }

    #[test]
    fn lut_generates_table_function() {
        let l = lower(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             diff_x = exp(Vm / 10.0) - x;",
        );
        verify_module(&l.module).unwrap();
        assert_eq!(l.report.lut_tables, vec![("Vm".to_string(), 1)]);
        assert!(l.module.func("lut_Vm").is_some());
        let text = print_module(&l.module);
        assert!(text.contains("lut.col"), "{text}");
        assert!(text.contains("lut @Vm"), "{text}");
    }

    #[test]
    fn lut_disabled_inlines_math() {
        let l = lower_no_lut(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             diff_x = exp(Vm / 10.0) - x;",
        );
        assert!(l.report.lut_tables.is_empty());
        let text = print_module(&l.module);
        assert!(!text.contains("lut.col"));
        assert!(text.contains("math.exp"));
    }

    #[test]
    fn conditional_statements_lower_to_scf_if() {
        let l = lower(
            "Vm; .external();\n\
             diff_x = a - x;\n\
             if (Vm > 0.0) { a = 1.0; } else { a = 0.0; }",
        );
        let text = print_module(&l.module);
        assert!(text.contains("scf.if"), "{text}");
        verify_module(&l.module).unwrap();
    }

    #[test]
    fn external_outputs_stored() {
        let l = lower(
            "Vm; .external();\nIion; .external();\n\
             diff_x = -x;\nIion = x * Vm;",
        );
        let text = print_module(&l.module);
        assert!(text.contains("limpet.set_ext"), "{text}");
        assert!(text.contains("limpet.get_ext {var = \"Vm\"}"), "{text}");
    }

    #[test]
    fn parent_markup_uses_parent_state() {
        let l = lower(
            "Vm; .external(); .parent();\n\
             diff_x = -x * Vm;",
        );
        let text = print_module(&l.module);
        assert!(text.contains("limpet.get_parent_state"), "{text}");
        verify_module(&l.module).unwrap();
    }

    #[test]
    fn paper_listing_1_lowers_and_verifies() {
        let src = r#"
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
        let l = lower(src);
        verify_module(&l.module).unwrap();
        let text = print_module(&l.module);
        assert!(text.contains("limpet.param {name = \"Cm\"}"));
        // No LUT columns: the model's Vm expressions are polynomial (no
        // math calls), matching the "worth tabulating" criterion.
        assert!(l.report.lut_tables.is_empty());
    }

    #[test]
    fn ternary_lowered_as_select() {
        let l = lower("Vm; .external();\ndiff_x = (Vm > 0.0 ? 1.0 : -1.0) - x;");
        let text = print_module(&l.module);
        assert!(text.contains("arith.select"), "{text}");
        verify_module(&l.module).unwrap();
    }

    #[test]
    fn logical_ops_lower() {
        let l = lower(
            "Vm; .external();\n\
             diff_x = (Vm > 0.0 && Vm < 50.0 || !(Vm >= -20.0)) ? 1.0 : 0.0 - x;",
        );
        let text = print_module(&l.module);
        assert!(text.contains("arith.andi"));
        assert!(text.contains("arith.ori"));
        assert!(text.contains("arith.xori"));
        verify_module(&l.module).unwrap();
    }
}
