//! Reference tree-walking evaluator for IR functions.
//!
//! Used to (1) precompute LUT columns by evaluating the `@lut_*` functions
//! over the tabulated range, and (2) serve as the semantic oracle in
//! differential tests of the bytecode engine: both must compute identical
//! results for one cell.

use limpet_ir::{Func, Module, OpKind, RegionId, ValueId};
use std::collections::HashMap;
use std::fmt;

/// A runtime value during evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// A float (scalar lane).
    F(f64),
    /// An integer or index.
    I(i64),
    /// A boolean.
    B(bool),
}

/// Payload accessors. Each panics when the value is of another type: the
/// verifier rules that out, so it marks a bug in whatever produced the IR.
impl Val {
    /// The float payload.
    pub fn f(self) -> f64 {
        match self {
            Val::F(v) => v,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// The integer payload.
    pub fn i(self) -> i64 {
        match self {
            Val::I(v) => v,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// The boolean payload.
    pub fn b(self) -> bool {
        match self {
            Val::B(v) => v,
            other => panic!("expected bool, got {other:?}"),
        }
    }
}

/// The environment an evaluated kernel runs against: one cell's data.
pub trait EvalContext {
    /// Reads a model parameter.
    fn param(&self, name: &str) -> f64;
    /// Reads a state variable of the current cell.
    fn get_state(&mut self, var: &str) -> f64;
    /// Writes a state variable of the current cell.
    fn set_state(&mut self, var: &str, v: f64);
    /// Reads an external variable of the current cell.
    fn get_ext(&mut self, var: &str) -> f64;
    /// Writes an external variable of the current cell.
    fn set_ext(&mut self, var: &str, v: f64);
    /// The integration time step.
    fn dt(&self) -> f64;
    /// The current simulation time.
    fn time(&self) -> f64;
    /// The current cell index.
    fn cell_index(&self) -> i64 {
        0
    }
    /// Whether a parent model is attached.
    fn has_parent(&self) -> bool {
        false
    }
    /// Reads a parent state variable; `fallback` when no parent.
    fn get_parent_state(&mut self, _var: &str, fallback: f64) -> f64 {
        fallback
    }
    /// Writes a parent state variable (no-op without parent).
    fn set_parent_state(&mut self, _var: &str, _v: f64) {}
    /// Interpolated lookup-table column read.
    fn lut_col(&mut self, table: &str, col: usize, key: f64) -> f64;
}

/// An evaluation error (malformed IR reaching the evaluator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// Evaluates function `name` of `module` on `args`, returning its results.
///
/// # Errors
///
/// Returns [`EvalError`] for a missing function, an arity mismatch, a value
/// used before its definition, or more than [`MAX_OPERANDS`] on one op.
pub fn eval_func(
    module: &Module,
    name: &str,
    args: &[Val],
    ctx: &mut dyn EvalContext,
) -> Result<Vec<Val>, EvalError> {
    let func = module
        .func(name)
        .ok_or_else(|| EvalError(format!("no function @{name}")))?;
    if args.len() != func.args().len() {
        let (want, got) = (func.args().len(), args.len());
        return Err(EvalError(format!("@{name} takes {want} args, got {got}")));
    }
    let env = vec![None; func.num_values()];
    let mut ev = Evaluator { func, ctx, env };
    ev.bind(func.args(), args);
    let returned = ev.region(func.body())?;
    returned.iter().map(|&id| ev.get(id)).collect()
}

/// Most operands one op may carry: they are gathered into a stack array
/// of this size, so evaluating an op never allocates.
const MAX_OPERANDS: usize = 8;

struct Evaluator<'a> {
    func: &'a Func,
    ctx: &'a mut dyn EvalContext,
    /// Value of each SSA id by `ValueId::index()`; `None` until defined.
    env: Vec<Option<Val>>,
}

impl<'a> Evaluator<'a> {
    // `get`, `bind`, `gather` and `eval_simple` run per op and cost less than
    // a call, hence the forced inlining and the out-of-line error message.
    #[inline(always)]
    fn get(&self, id: ValueId) -> Result<Val, EvalError> {
        #[cold]
        fn undefined(id: ValueId) -> EvalError {
            EvalError(format!("value #{} used before definition", id.index()))
        }
        match self.env[id.index()] {
            Some(v) => Ok(v),
            None => Err(undefined(id)),
        }
    }

    #[inline(always)]
    fn bind(&mut self, ids: &[ValueId], vals: &[Val]) {
        for (id, &v) in ids.iter().zip(vals) {
            self.env[id.index()] = Some(v);
        }
    }

    /// Copies the current values of `ids` into the stack buffer `buf`.
    #[inline(always)]
    fn gather<'b>(&self, ids: &[ValueId], buf: &'b mut [Val]) -> Result<&'b [Val], EvalError> {
        let n = ids.len();
        let vals = buf
            .get_mut(..n)
            .ok_or_else(|| EvalError(format!("op has {n} operands, limit is {MAX_OPERANDS}")))?;
        for (slot, &id) in vals.iter_mut().zip(ids) {
            *slot = self.get(id)?;
        }
        Ok(vals)
    }

    /// Executes a region; returns the terminator's operands.
    fn region(&mut self, region: RegionId) -> Result<&'a [ValueId], EvalError> {
        let func = self.func;
        let mut buf = [Val::B(false); MAX_OPERANDS];
        for &op_id in &func.region(region).ops {
            let op = func.op(op_id);
            match &op.kind {
                OpKind::Yield | OpKind::Return => return Ok(&op.operands),
                OpKind::If => {
                    let cond = self.get(op.operands[0])?.b();
                    let yields = self.region(op.regions[if cond { 0 } else { 1 }])?;
                    for (&r, &y) in op.results.iter().zip(yields) {
                        self.env[r.index()] = Some(self.get(y)?);
                    }
                }
                OpKind::For => {
                    let bounds = self.gather(&op.operands[..3], &mut buf)?;
                    let (lb, ub, step) = (bounds[0].i(), bounds[1].i(), bounds[2].i().max(1));
                    // Yields may permute the block arguments: read a round whole, then bind.
                    let n = self.gather(&op.operands[3..], &mut buf)?.len();
                    let args = &func.region(op.regions[0]).args;
                    for iv in (lb..ub).step_by(step as usize) {
                        self.env[args[0].index()] = Some(Val::I(iv));
                        self.bind(&args[1..], &buf[..n]);
                        let yields = self.region(op.regions[0])?;
                        self.gather(yields, &mut buf)?;
                    }
                    self.bind(&op.results, &buf[..n]);
                }
                kind => {
                    let vals = self.gather(&op.operands, &mut buf)?;
                    let v = self.eval_simple(kind, &op.attrs, vals);
                    self.bind(&op.results, v.as_slice());
                }
            }
        }
        Ok(&[])
    }

    #[inline(always)]
    fn eval_simple(&mut self, kind: &OpKind, attrs: &limpet_ir::Attrs, v: &[Val]) -> Option<Val> {
        let text = |key| attrs.str_of(key).unwrap_or("");
        Some(match kind {
            OpKind::ConstantF(c) => Val::F(*c),
            OpKind::ConstantInt(c) => Val::I(*c),
            OpKind::ConstantBool(c) => Val::B(*c),
            OpKind::AddF => Val::F(v[0].f() + v[1].f()),
            OpKind::SubF => Val::F(v[0].f() - v[1].f()),
            OpKind::MulF => Val::F(v[0].f() * v[1].f()),
            OpKind::DivF => Val::F(v[0].f() / v[1].f()),
            OpKind::RemF => Val::F(v[0].f() % v[1].f()),
            OpKind::NegF => Val::F(-v[0].f()),
            OpKind::MinF => Val::F(v[0].f().min(v[1].f())),
            OpKind::MaxF => Val::F(v[0].f().max(v[1].f())),
            OpKind::Fma => Val::F(v[0].f() * v[1].f() + v[2].f()),
            OpKind::AddI => Val::I(v[0].i() + v[1].i()),
            OpKind::SubI => Val::I(v[0].i() - v[1].i()),
            OpKind::MulI => Val::I(v[0].i() * v[1].i()),
            OpKind::CmpF(p) => Val::B(p.apply(v[0].f(), v[1].f())),
            OpKind::CmpI(p) => Val::B(p.apply(v[0].i(), v[1].i())),
            OpKind::AndI => Val::B(v[0].b() && v[1].b()),
            OpKind::OrI => Val::B(v[0].b() || v[1].b()),
            OpKind::XorI => Val::B(v[0].b() ^ v[1].b()),
            OpKind::Select => v[if v[0].b() { 1 } else { 2 }],
            OpKind::SIToFP => Val::F(v[0].i() as f64),
            OpKind::IndexCast | OpKind::Broadcast => v[0],
            OpKind::Math(f) => {
                let b = if f.arity() == 2 { v[1].f() } else { 0.0 };
                Val::F(f.eval(v[0].f(), b))
            }
            OpKind::Param => Val::F(self.ctx.param(text("name"))),
            OpKind::GetState => Val::F(self.ctx.get_state(text("var"))),
            OpKind::GetExt => Val::F(self.ctx.get_ext(text("var"))),
            OpKind::HasParent => Val::B(self.ctx.has_parent()),
            OpKind::GetParentState => Val::F(self.ctx.get_parent_state(text("var"), v[0].f())),
            OpKind::SetState | OpKind::SetExt | OpKind::SetParentState => {
                match kind {
                    OpKind::SetState => self.ctx.set_state(text("var"), v[0].f()),
                    OpKind::SetExt => self.ctx.set_ext(text("var"), v[0].f()),
                    _ => self.ctx.set_parent_state(text("var"), v[0].f()),
                }
                return None;
            }
            OpKind::Dt => Val::F(self.ctx.dt()),
            OpKind::Time => Val::F(self.ctx.time()),
            OpKind::CellIndex => Val::I(self.ctx.cell_index()),
            OpKind::LutCol => {
                let col = attrs.i64_of("col").unwrap_or(0) as usize;
                Val::F(self.ctx.lut_col(text("table"), col, v[0].f()))
            }
            OpKind::If | OpKind::For | OpKind::Yield | OpKind::Return => {
                unreachable!("handled structurally")
            }
        })
    }
}

/// A context with no cell data: parameters only. Suitable for evaluating
/// `@lut_*` column functions.
#[derive(Debug, Clone, Default)]
pub struct ParamOnlyContext {
    /// Parameter values by name.
    pub params: HashMap<String, f64>,
}

impl EvalContext for ParamOnlyContext {
    fn param(&self, name: &str) -> f64 {
        *self.params.get(name).unwrap_or(&0.0)
    }
    fn get_state(&mut self, var: &str) -> f64 {
        panic!("LUT column function must not read state {var:?}")
    }
    fn set_state(&mut self, var: &str, _v: f64) {
        panic!("LUT column function must not write state {var:?}")
    }
    fn get_ext(&mut self, var: &str) -> f64 {
        panic!("LUT column function must not read external {var:?}")
    }
    fn set_ext(&mut self, var: &str, _v: f64) {
        panic!("LUT column function must not write external {var:?}")
    }
    fn dt(&self) -> f64 {
        0.0
    }
    fn time(&self) -> f64 {
        0.0
    }
    fn lut_col(&mut self, table: &str, _col: usize, _key: f64) -> f64 {
        panic!("LUT column function must not read table {table:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_ir::{Builder, Func as IrFunc, Module, Type};

    #[test]
    fn evaluates_arithmetic_function() {
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[Type::F64], &[Type::F64]);
        let arg = f.args()[0];
        let mut b = Builder::new(&mut f);
        let two = b.const_f(2.0);
        let d = b.mulf(arg, two);
        let e = b.exp(d);
        b.ret(&[e]);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        let r = eval_func(&m, "f", &[Val::F(1.0)], &mut ctx).unwrap();
        assert!((r[0].f() - 2.0f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn evaluates_if_and_for() {
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[Type::F64], &[Type::F64]);
        let arg = f.args()[0];
        let mut b = Builder::new(&mut f);
        let zero = b.const_f(0.0);
        let pos = b.cmpf(limpet_ir::CmpFPred::Ogt, arg, zero);
        let sign = b.if_op(
            pos,
            &[Type::F64],
            |b| {
                let v = b.const_f(1.0);
                b.yield_(&[v]);
            },
            |b| {
                let v = b.const_f(-1.0);
                b.yield_(&[v]);
            },
        );
        // Multiply sign by 2, four times, in a loop: sign * 16.
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let st = b.const_index(1);
        let r = b.for_op(lb, ub, st, &[sign[0]], |b, _iv, iters| {
            let two = b.const_f(2.0);
            let next = b.mulf(iters[0], two);
            b.yield_(&[next]);
        });
        b.ret(&[r[0]]);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        assert_eq!(
            eval_func(&m, "f", &[Val::F(3.0)], &mut ctx).unwrap()[0].f(),
            16.0
        );
        assert_eq!(
            eval_func(&m, "f", &[Val::F(-3.0)], &mut ctx).unwrap()[0].f(),
            -16.0
        );
    }

    #[test]
    fn params_read_from_context() {
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[], &[Type::F64]);
        let mut b = Builder::new(&mut f);
        let p = b.param("Cm");
        b.ret(&[p]);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        ctx.params.insert("Cm".into(), 200.0);
        assert_eq!(eval_func(&m, "f", &[], &mut ctx).unwrap()[0].f(), 200.0);
    }

    #[test]
    fn use_before_definition_is_an_error_not_a_default() {
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[Type::F64], &[Type::F64]);
        let arg = f.args()[0];
        let mut b = Builder::new(&mut f);
        let two = b.const_f(2.0);
        let d = b.mulf(arg, two);
        b.ret(&[d]);
        // Move the multiply in front of the constant it reads.
        let body = f.body();
        f.region_mut(body).ops.swap(0, 1);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        let err = eval_func(&m, "f", &[Val::F(1.0)], &mut ctx).unwrap_err();
        assert!(err.0.contains("used before definition"), "{err}");
    }

    #[test]
    fn returning_an_undefined_value_is_an_error() {
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[], &[Type::F64]);
        let mut b = Builder::new(&mut f);
        let c = b.const_f(1.0);
        b.ret(&[c]);
        let body = f.body();
        f.region_mut(body).ops.swap(0, 1);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        let err = eval_func(&m, "f", &[], &mut ctx).unwrap_err();
        assert!(err.0.contains("used before definition"), "{err}");
    }

    /// `for` carrying `n` copies of the argument, each doubled per round.
    fn loop_carrying(n: usize) -> Module {
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[Type::F64], &[Type::F64]);
        let arg = f.args()[0];
        let mut b = Builder::new(&mut f);
        let lb = b.const_index(0);
        let ub = b.const_index(3);
        let st = b.const_index(1);
        let r = b.for_op(lb, ub, st, &vec![arg; n], |b, _iv, iters| {
            let two = b.const_f(2.0);
            let next: Vec<_> = iters.iter().map(|&x| b.mulf(x, two)).collect();
            b.yield_(&next);
        });
        b.ret(&[r[n - 1]]);
        m.add_func(f);
        m
    }

    #[test]
    fn more_operands_than_the_stack_array_is_an_error() {
        let mut ctx = ParamOnlyContext::default();
        let full = eval_func(&loop_carrying(MAX_OPERANDS), "f", &[Val::F(1.0)], &mut ctx);
        assert_eq!(full.unwrap(), [Val::F(8.0)]);
        let over = eval_func(
            &loop_carrying(MAX_OPERANDS + 1),
            "f",
            &[Val::F(1.0)],
            &mut ctx,
        );
        let err = over.unwrap_err();
        assert!(err.0.contains("9 operands, limit is 8"), "{err}");
    }

    #[test]
    fn loop_yields_may_permute_the_carried_values() {
        // (a, b) <- (b, a) three times: an odd count leaves them swapped.
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[Type::F64, Type::F64], &[Type::F64, Type::F64]);
        let (x, y) = (f.args()[0], f.args()[1]);
        let mut b = Builder::new(&mut f);
        let lb = b.const_index(0);
        let ub = b.const_index(3);
        let st = b.const_index(1);
        let r = b.for_op(lb, ub, st, &[x, y], |b, _iv, iters| {
            b.yield_(&[iters[1], iters[0]]);
        });
        b.ret(&r);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        let out = eval_func(&m, "f", &[Val::F(1.0), Val::F(2.0)], &mut ctx).unwrap();
        assert_eq!(out, [Val::F(2.0), Val::F(1.0)]);
    }

    #[test]
    fn missing_function_is_error() {
        let m = Module::new("t");
        let mut ctx = ParamOnlyContext::default();
        assert!(eval_func(&m, "nope", &[], &mut ctx).is_err());
    }
}
