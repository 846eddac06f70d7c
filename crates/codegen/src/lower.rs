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
use limpet_easyml::{affine_in, BinOp, Expr, Method, Model, Stmt, UnOp};
use limpet_ir::{Builder, CmpFPred, Func, LutSpec, MathFn, Module, Type, ValueId};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

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
    let (stmts, tables) = if opts.use_lut {
        let ex = extract_luts(model);
        (ex.stmts, ex.tables)
    } else {
        (model.stmts.clone(), Vec::new())
    };

    let mut report = Report::default();
    for t in &tables {
        report.lut_tables.push((t.var.clone(), t.columns.len()));
    }

    let mut module = Module::new(&model.name);
    let lowerer = Lowerer {
        model,
        stmts: &stmts,
        tables: &tables,
        deps: OnceCell::new(),
        cones: vec![OnceCell::new(); model.states.len()],
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
    stmts: &'m [Stmt],
    tables: &'m [LutTable],
    /// Who defines and reads what, built on the first [`Lowerer::cone`].
    deps: OnceCell<Deps>,
    /// [`Lowerer::cone`] of each entry of `model.states`, built once.
    cones: Vec<OnceCell<Vec<usize>>>,
}

/// The def-use index of the statement list.
struct Deps {
    /// The statements that assign each name.
    defs: HashMap<String, Vec<usize>>,
    /// The names each statement reads.
    reads: Vec<Vec<String>>,
}

impl Deps {
    fn of(stmts: &[Stmt]) -> Deps {
        let mut defs: HashMap<String, Vec<usize>> = HashMap::new();
        let mut reads = Vec::with_capacity(stmts.len());
        for (i, s) in stmts.iter().enumerate() {
            let mut names = Vec::new();
            s.assigned_names(&mut names);
            for n in names {
                defs.entry(n).or_default().push(i);
            }
            let mut r = Vec::new();
            s.read_names(&mut r);
            reads.push(r);
        }
        Deps { defs, reads }
    }
}

/// Per-context value environment: defined names plus cached source reads.
type Env = HashMap<String, ValueId>;

impl<'m> Lowerer<'m> {
    // ---- compute kernel ----

    fn lower_compute(&self, report: &mut Report) -> Func {
        let mut func = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut func);
        let mut env = Env::new();
        let overrides = Env::new();

        // Evaluate the full equation system once.
        self.lower_stmts(&mut b, self.stmts, &mut env, &overrides);

        // Integrate every state variable from the *original* state
        // (simultaneous update, as in the generated code of Listing 2).
        let mut new_values: Vec<(String, ValueId)> = Vec::new();
        for sv in &self.model.states {
            let v = self.integrate(&mut b, sv.name.as_str(), sv.method, &mut env, report);
            new_values.push((sv.name.clone(), v));
        }

        // "Finish the update".
        for (name, v) in &new_values {
            b.set_state(name, *v);
        }
        // "Save all external vars".
        for ext in &self.model.externals {
            if ext.assigned {
                let v = env
                    .get(&ext.name)
                    .copied()
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
        let mut env = Env::new();
        env.insert(table.var.clone(), key);
        let overrides = Env::new();
        let results: Vec<ValueId> = table
            .columns
            .iter()
            .map(|c| self.lower_num(&mut b, c, &mut env, &overrides))
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
                let v = self.lower_num(b, expr, env, ov);
                env.insert(lhs.clone(), v);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.lower_bool(b, cond, env, ov);
                let mut names = Vec::new();
                for s in then_body {
                    s.assigned_names(&mut names);
                }
                names.sort();
                names.dedup();
                let result_types = vec![Type::F64; names.len()];
                // Each branch lowers into its own region with a copy of the
                // environment, then yields the assigned values.
                let results = {
                    let names_then = names.clone();
                    let names_else = names.clone();
                    let mut env_then = env.clone();
                    let mut env_else = env.clone();
                    b.if_op(
                        c,
                        &result_types,
                        |bb| {
                            self.lower_stmts(bb, then_body, &mut env_then, ov);
                            let vals: Vec<ValueId> =
                                names_then.iter().map(|n| env_then[n.as_str()]).collect();
                            bb.yield_(&vals);
                        },
                        |bb| {
                            self.lower_stmts(bb, else_body, &mut env_else, ov);
                            let vals: Vec<ValueId> =
                                names_else.iter().map(|n| env_else[n.as_str()]).collect();
                            bb.yield_(&vals);
                        },
                    )
                };
                for (n, v) in names.iter().zip(results) {
                    env.insert(n.clone(), v);
                }
            }
        }
    }

    // ---- expressions ----

    /// Lowers an expression in numeric (f64) context.
    fn lower_num(&self, b: &mut Builder<'_>, expr: &Expr, env: &mut Env, ov: &Env) -> ValueId {
        match expr {
            Expr::Num(v) => b.const_f(*v),
            Expr::Var(name) => self.lower_var(b, name, env, ov),
            Expr::Unary(UnOp::Neg, e) => {
                let v = self.lower_num(b, e, env, ov);
                b.negf(v)
            }
            Expr::Unary(UnOp::Not, e) => {
                let c = self.lower_bool(b, e, env, ov);
                let n = b.not(c);
                self.bool_to_num(b, n)
            }
            Expr::Binary(op, l, r) if op.is_boolean() => {
                let c = self.lower_bool(b, expr, env, ov);
                let _ = (l, r);
                self.bool_to_num(b, c)
            }
            Expr::Binary(op, l, r) => {
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
            Expr::Call(name, args) if name == LUT_COL_MARKER => {
                let (Expr::Num(t), Expr::Num(c)) = (&args[0], &args[1]) else {
                    panic!("malformed {LUT_COL_MARKER} marker");
                };
                let table = &self.tables[*t as usize];
                let key = self.lower_num(b, &args[2], env, ov);
                b.lut_col(&table.var, *c as i64, key)
            }
            Expr::Call(name, args) => self.lower_call(b, name, args, env, ov),
            Expr::Cond(c, t, e) => {
                let cv = self.lower_bool(b, c, env, ov);
                let tv = self.lower_num(b, t, env, ov);
                let ev = self.lower_num(b, e, env, ov);
                b.select(cv, tv, ev)
            }
        }
    }

    /// Lowers an expression in boolean (i1) context.
    fn lower_bool(&self, b: &mut Builder<'_>, expr: &Expr, env: &mut Env, ov: &Env) -> ValueId {
        match expr {
            Expr::Binary(op, l, r) if op.is_boolean() => match op {
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
            Expr::Unary(UnOp::Not, e) => {
                let c = self.lower_bool(b, e, env, ov);
                b.not(c)
            }
            other => {
                // Numeric truthiness: value != 0.
                let v = self.lower_num(b, other, env, ov);
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

    fn lower_var(&self, b: &mut Builder<'_>, name: &str, env: &mut Env, ov: &Env) -> ValueId {
        if let Some(&v) = ov.get(name) {
            return v;
        }
        if let Some(&v) = env.get(name) {
            return v;
        }
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
        env.insert(name.to_owned(), v);
        v
    }

    fn lower_call(
        &self,
        b: &mut Builder<'_>,
        name: &str,
        args: &[Expr],
        env: &mut Env,
        ov: &Env,
    ) -> ValueId {
        let vals: Vec<ValueId> = args.iter().map(|a| self.lower_num(b, a, env, ov)).collect();
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

    fn integrate(
        &self,
        b: &mut Builder<'_>,
        state: &str,
        method: Method,
        env: &mut Env,
        report: &mut Report,
    ) -> ValueId {
        let diff_name = format!("diff_{state}");
        let diff = env[&diff_name];
        let x = self.lower_var(b, state, env, &Env::new());
        let dt = self.lower_var(b, "dt", env, &Env::new());

        match method {
            Method::Fe => self.fe_step(b, x, diff, dt),
            Method::Rk2 => {
                // Midpoint: x_mid = x + dt/2 * k1; x' = x + dt * f(x_mid).
                let half = b.const_f(0.5);
                let hdt = b.mulf(dt, half);
                let k1dt = b.mulf(diff, hdt);
                let x_mid = b.addf(x, k1dt);
                let k2 = self.eval_diff_with(b, state, &[(state, x_mid)]);
                self.fe_step(b, x, k2, dt)
            }
            Method::Rk4 => {
                let half = b.const_f(0.5);
                let hdt = b.mulf(dt, half);
                let k1 = diff;
                let d1 = b.mulf(k1, hdt);
                let x1 = b.addf(x, d1);
                let k2 = self.eval_diff_with(b, state, &[(state, x1)]);
                let d2 = b.mulf(k2, hdt);
                let x2 = b.addf(x, d2);
                let k3 = self.eval_diff_with(b, state, &[(state, x2)]);
                let d3 = b.mulf(k3, dt);
                let x3 = b.addf(x, d3);
                let k4 = self.eval_diff_with(b, state, &[(state, x3)]);
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
            Method::RushLarsen => match self.gate_coefficients(state) {
                Some((a_expr, b_expr)) => {
                    let a = self.lower_num(b, &a_expr, env, &Env::new());
                    let bb = self.lower_num(b, &b_expr, env, &Env::new());
                    self.rl_step(b, x, a, bb, dt, diff)
                }
                None => {
                    report.rl_fallbacks.push(state.to_owned());
                    self.fe_step(b, x, diff, dt)
                }
            },
            Method::Sundnes => match self.gate_coefficients(state) {
                Some((a_expr, b_expr)) => {
                    // Second-order Rush-Larsen (Sundnes et al. 2009):
                    // take all states a half-step, re-evaluate the gate
                    // coefficients there, then apply one full RL step.
                    let mut half_overrides: Vec<(&str, ValueId)> = Vec::new();
                    let half = b.const_f(0.5);
                    let hdt = b.mulf(dt, half);
                    for sv in &self.model.states {
                        let d = env[&format!("diff_{}", sv.name)];
                        let xs = self.lower_var(b, &sv.name, env, &Env::new());
                        let dd = b.mulf(d, hdt);
                        let xh = b.addf(xs, dd);
                        half_overrides.push((sv.name.as_str(), xh));
                    }
                    let mut henv = Env::new();
                    let mut hov = Env::new();
                    for (n, v) in &half_overrides {
                        hov.insert((*n).to_string(), *v);
                    }
                    self.lower_cone(b, state, &mut henv, &hov);
                    let a2 = self.lower_num(b, &a_expr, &mut henv, &hov);
                    let b2 = self.lower_num(b, &b_expr, &mut henv, &hov);
                    let d2 = henv[&format!("diff_{state}")];
                    self.rl_step(b, x, a2, b2, dt, d2)
                }
                None => {
                    report.rl_fallbacks.push(state.to_owned());
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
                let updated = match self.gate_coefficients(state) {
                    Some((a_expr, b_expr)) => {
                        let a = self.lower_num(b, &a_expr, env, &Env::new());
                        let bb_ = self.lower_num(b, &b_expr, env, &Env::new());
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
                            let f = self.eval_diff_with(bb, state, &[(state, y)]);
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

    /// Affine gate coefficients `(a, b)` with `diff_X = a + b·X`, available
    /// only when no other statement in the dependency cone reads `X`.
    fn gate_coefficients(&self, state: &str) -> Option<(Expr, Expr)> {
        let diff_name = format!("diff_{state}");
        let diff_expr = self.stmts.iter().find_map(|s| match s {
            Stmt::Assign { lhs, expr, .. } if *lhs == diff_name => Some(expr),
            _ => None,
        })?;
        // Transitive check: intermediates feeding diff may not read X.
        let reads = &self.deps().reads;
        for &i in self.cone(state) {
            if let Stmt::Assign { lhs, .. } = &self.stmts[i] {
                if *lhs == diff_name {
                    continue;
                }
            }
            if reads[i].iter().any(|r| r == state) {
                return None;
            }
        }
        affine_in(diff_expr, state)
    }

    /// Re-evaluates `diff_X` with the given state overrides by re-lowering
    /// the dependency cone of `diff_X` in a fresh environment. This mirrors
    /// how the generated code of Listing 2 re-computes `diff_u1` for the
    /// second RK2 stage.
    fn eval_diff_with(
        &self,
        b: &mut Builder<'_>,
        state: &str,
        overrides: &[(&str, ValueId)],
    ) -> ValueId {
        let mut env = Env::new();
        let mut ov = Env::new();
        for (n, v) in overrides {
            ov.insert((*n).to_string(), *v);
        }
        self.lower_cone(b, state, &mut env, &ov);
        env[&format!("diff_{state}")]
    }

    fn lower_cone(&self, b: &mut Builder<'_>, state: &str, env: &mut Env, ov: &Env) {
        for &i in self.cone(state) {
            self.lower_stmt(b, &self.stmts[i], env, ov);
        }
    }

    fn deps(&self) -> &Deps {
        self.deps.get_or_init(|| Deps::of(self.stmts))
    }

    /// The indices, in order, of the statements needed to compute
    /// `diff_X`: those that assign `diff_X` or, transitively, a name one
    /// of them reads.
    fn cone(&self, state: &str) -> &[usize] {
        let at = self
            .model
            .states
            .iter()
            .position(|s| s.name == state)
            .expect("cones are taken of state variables");
        self.cones[at].get_or_init(|| {
            let deps = self.deps();
            let mut needed = vec![false; self.stmts.len()];
            let mut seen: HashSet<&str> = HashSet::new();
            let target = format!("diff_{state}");
            let mut want: Vec<&str> = vec![&target];
            while let Some(w) = want.pop() {
                if !seen.insert(w) {
                    continue;
                }
                for &i in deps.defs.get(w).into_iter().flatten() {
                    if !needed[i] {
                        needed[i] = true;
                        want.extend(deps.reads[i].iter().map(String::as_str));
                    }
                }
            }
            (0..needed.len()).filter(|&i| needed[i]).collect()
        })
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
