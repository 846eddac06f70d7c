//! Reference tree-walking evaluator for IR functions.
//!
//! Used to (1) precompute LUT columns by evaluating the `@lut_*` functions
//! over the tabulated range, and (2) serve as the semantic oracle in
//! differential tests of the bytecode engine: both must compute identical
//! results for one cell.
//!
//! One call keeps its values in two flat arrays indexed by
//! [`ValueId::index`]: an 8-byte slot per SSA value (the bits of an f64,
//! an i64, or a bool as 0 / 1) and a tag byte saying which of the three the
//! slot holds, or that the value is not defined yet. Reading an operand is
//! one compare of its tag against the type the op takes, so a use before
//! definition and a mistyped operand in unverified IR are both an
//! [`EvalError`], never a panic. A failed read carries the offending
//! [`ValueId`] up the walk, and [`eval_func`] alone turns it into a message.
//!
//! The walk passes both arrays down as local slices, not as fields behind
//! `&mut self`, which the compiler would have to reload after every store
//! through them. Tabulating the roster's 74 tables (295 348 rows, 80.1 M IR
//! ops, a third of them constants) takes 0.43-0.50 s this way against
//! 1.05-1.16 s with the `Option<Val>` environment and stack operand buffer
//! it replaced (2 vCPUs, AVX-512 host).
//!
//! Nothing is kept between calls. A prepared form of a function (constants
//! and attribute lookups resolved once, then reused for every row of a
//! table) would be faster still, but only [`crate::tabulate_luts`] would
//! use it: the benchmark's stage-by-stage compile tabulates through this
//! function, one call per row, and must time within 10 % of the cache's
//! compile. Tabulating with the engine's bytecode instead waits for that
//! check to change (ROADMAP "One interpreter").

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
/// Returns [`EvalError`] for a missing function, an arity mismatch, or a
/// value used before its definition or as another type than it holds.
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
    let mut slots = vec![0u64; func.num_values()];
    let mut tags = vec![UNDEF; func.num_values()];
    for (&id, &v) in func.args().iter().zip(args) {
        (slots[id.index()], tags[id.index()]) = match v {
            Val::F(x) => float(x),
            Val::I(x) => int(x),
            Val::B(x) => boolean(x),
        };
    }
    let returned = region(func, ctx, func.body(), &mut slots, &mut tags).and_then(|ids| {
        ids.iter()
            .map(|&id| {
                let bits = slots[id.index()];
                match tags[id.index()] {
                    F => Ok(Val::F(f64::from_bits(bits))),
                    I => Ok(Val::I(bits as i64)),
                    B => Ok(Val::B(bits != 0)),
                    _ => Err(id),
                }
            })
            .collect()
    });
    returned.map_err(|id| failed_read(id, tags[id.index()]))
}

/// Tag of a slot whose value is not defined yet.
const UNDEF: u8 = 0;
/// Tag of a slot holding the bits of an f64.
const F: u8 = 1;
/// Tag of a slot holding an i64 (or index).
const I: u8 = 2;
/// Tag of a slot holding a bool as 0 or 1.
const B: u8 = 3;

#[inline(always)]
fn float(x: f64) -> (u64, u8) {
    (x.to_bits(), F)
}

#[inline(always)]
fn int(x: i64) -> (u64, u8) {
    (x as u64, I)
}

#[inline(always)]
fn boolean(x: bool) -> (u64, u8) {
    (x as u64, B)
}

/// The message for a read of `id`, whose slot is tagged `tag`, that failed.
#[cold]
fn failed_read(id: ValueId, tag: u8) -> EvalError {
    let i = id.index();
    EvalError(match tag {
        UNDEF => format!("value #{i} used before definition"),
        _ => {
            let held = ["f64", "i64", "i1"][usize::from(tag - F)];
            format!("value #{i} holds an {held}, which its use does not take")
        }
    })
}

/// Copies the values of `from` into `to`, position by position.
#[inline(always)]
fn copy(
    from: &[ValueId],
    to: &[ValueId],
    slots: &mut [u64],
    tags: &mut [u8],
) -> Result<(), ValueId> {
    for (&src, &dst) in from.iter().zip(to) {
        let tag = tags[src.index()];
        if tag == UNDEF {
            return Err(src);
        }
        (slots[dst.index()], tags[dst.index()]) = (slots[src.index()], tag);
    }
    Ok(())
}

/// Executes region `at` of `func` over one call's `slots` and `tags`;
/// returns the terminator's operands, or the value whose read failed.
fn region<'f>(
    func: &'f Func,
    ctx: &mut dyn EvalContext,
    at: RegionId,
    slots: &mut [u64],
    tags: &mut [u8],
) -> Result<&'f [ValueId], ValueId> {
    // Equal lengths, as the compiler sees them: one bounds check per read.
    let n = slots.len().min(tags.len());
    let (slots, tags) = (&mut slots[..n], &mut tags[..n]);
    for &op_id in &func.region(at).ops {
        let op = func.op(op_id);
        let args = op.operands.as_slice();
        // Operand `k`'s slot if it is tagged `tag`: one compare finds both
        // an undefined and a mistyped operand.
        macro_rules! read {
            ($k:expr, $tag:expr) => {{
                let id = args[$k];
                if tags[id.index()] != $tag {
                    return Err(id);
                }
                slots[id.index()]
            }};
        }
        macro_rules! f {
            ($k:expr) => {
                f64::from_bits(read!($k, F))
            };
        }
        macro_rules! i {
            ($k:expr) => {
                read!($k, I) as i64
            };
        }
        macro_rules! b {
            ($k:expr) => {
                read!($k, B) != 0
            };
        }
        let text = |key| op.attrs.str_of(key).unwrap_or("");
        let (bits, tag) = match &op.kind {
            OpKind::ConstantF(c) => float(*c),
            OpKind::ConstantInt(c) => int(*c),
            OpKind::ConstantBool(c) => boolean(*c),
            OpKind::AddF => float(f!(0) + f!(1)),
            OpKind::SubF => float(f!(0) - f!(1)),
            OpKind::MulF => float(f!(0) * f!(1)),
            OpKind::DivF => float(f!(0) / f!(1)),
            OpKind::RemF => float(f!(0) % f!(1)),
            OpKind::NegF => float(-f!(0)),
            OpKind::MinF => float(f!(0).min(f!(1))),
            OpKind::MaxF => float(f!(0).max(f!(1))),
            OpKind::Fma => float(f!(0) * f!(1) + f!(2)),
            OpKind::AddI => int(i!(0) + i!(1)),
            OpKind::SubI => int(i!(0) - i!(1)),
            OpKind::MulI => int(i!(0) * i!(1)),
            OpKind::CmpF(p) => boolean(p.apply(f!(0), f!(1))),
            OpKind::CmpI(p) => boolean(p.apply(i!(0), i!(1))),
            // `&` and `|`, not `&&` and `||`: both operands are read.
            OpKind::AndI => boolean(b!(0) & b!(1)),
            OpKind::OrI => boolean(b!(0) | b!(1)),
            OpKind::XorI => boolean(b!(0) ^ b!(1)),
            OpKind::Select => {
                let pick = args[if b!(0) { 1 } else { 2 }];
                // Both arms defined, and of one type.
                let (yes, no) = (args[1], args[2]);
                let tag = tags[yes.index()];
                if tag == UNDEF {
                    return Err(yes);
                }
                if tags[no.index()] != tag {
                    return Err(no);
                }
                (slots[pick.index()], tag)
            }
            OpKind::SIToFP => float(i!(0) as f64),
            OpKind::IndexCast | OpKind::Broadcast => {
                let id = args[0];
                match tags[id.index()] {
                    UNDEF => return Err(id),
                    tag => (slots[id.index()], tag),
                }
            }
            OpKind::Math(m) => {
                let x = f!(0);
                let y = if m.arity() == 2 { f!(1) } else { 0.0 };
                float(m.eval(x, y))
            }
            OpKind::Param => float(ctx.param(text("name"))),
            OpKind::GetState => float(ctx.get_state(text("var"))),
            OpKind::GetExt => float(ctx.get_ext(text("var"))),
            OpKind::HasParent => boolean(ctx.has_parent()),
            OpKind::GetParentState => float(ctx.get_parent_state(text("var"), f!(0))),
            OpKind::SetState => {
                ctx.set_state(text("var"), f!(0));
                continue;
            }
            OpKind::SetExt => {
                ctx.set_ext(text("var"), f!(0));
                continue;
            }
            OpKind::SetParentState => {
                ctx.set_parent_state(text("var"), f!(0));
                continue;
            }
            OpKind::Dt => float(ctx.dt()),
            OpKind::Time => float(ctx.time()),
            OpKind::CellIndex => int(ctx.cell_index()),
            OpKind::LutCol => {
                let col = op.attrs.i64_of("col").unwrap_or(0) as usize;
                float(ctx.lut_col(text("table"), col, f!(0)))
            }
            OpKind::Yield | OpKind::Return => return Ok(args),
            OpKind::If => {
                let taken = op.regions[if b!(0) { 0 } else { 1 }];
                let yields = region(func, ctx, taken, slots, tags)?;
                copy(yields, &op.results, slots, tags)?;
                continue;
            }
            OpKind::For => {
                let (lb, ub, step) = (i!(0), i!(1), i!(2).max(1));
                let body = func.region(op.regions[0]);
                let (iv, carried) = (body.args[0], &body.args[1..]);
                // The results hold the carried values between rounds (the
                // body cannot name them: they do not dominate it). Yields
                // may permute the block arguments, so a round is copied out
                // whole before the next one is bound.
                copy(&args[3..], &op.results, slots, tags)?;
                for n in (lb..ub).step_by(step as usize) {
                    (slots[iv.index()], tags[iv.index()]) = int(n);
                    copy(&op.results, carried, slots, tags)?;
                    let yields = region(func, ctx, op.regions[0], slots, tags)?;
                    copy(yields, &op.results, slots, tags)?;
                }
                continue;
            }
        };
        if let Some(r) = op.results.first() {
            (slots[r.index()], tags[r.index()]) = (bits, tag);
        }
    }
    Ok(&[])
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
    use limpet_ir::{Attrs, Builder, CmpIPred, Func as IrFunc, Module, Type};

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

    #[test]
    fn a_mistyped_operand_is_an_error_not_a_panic() {
        // `arith.addf` on an i64 constant: the builder refuses to emit it,
        // so the op is pushed by hand, as a broken pass could.
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[Type::F64], &[Type::F64]);
        let arg = f.args()[0];
        let body = f.body();
        let one = Builder::new(&mut f).const_i(1);
        let sum = f.push_op(
            body,
            OpKind::AddF,
            vec![arg, one],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        let sum = f.op(sum).result();
        Builder::new(&mut f).ret(&[sum]);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        let err = eval_func(&m, "f", &[Val::F(1.0)], &mut ctx).unwrap_err();
        assert_eq!(
            err.0,
            format!(
                "value #{} holds an i64, which its use does not take",
                one.index()
            )
        );
    }

    #[test]
    fn integers_above_2_pow_53_come_back_exactly() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        let big = (1i64 << 53) + 1;
        let mut m = Module::new("t");
        let mut f = IrFunc::new(
            "f",
            &[Type::I64],
            &[Type::I64, Type::I64, Type::I1, Type::F64],
        );
        let x = f.args()[0];
        let mut b = Builder::new(&mut f);
        let two = b.const_i(2);
        let sum = b.addi(x, two);
        let product = b.muli(x, two);
        let less = b.cmpi(CmpIPred::Slt, x, sum);
        let float = b.sitofp(sum);
        b.ret(&[sum, product, less, float]);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        let out = eval_func(&m, "f", &[Val::I(big)], &mut ctx).unwrap();
        assert_eq!(
            out,
            [
                Val::I(big + 2),
                Val::I(big * 2),
                Val::B(true),
                Val::F((big + 2) as f64)
            ]
        );
    }

    #[test]
    fn negative_zero_and_nan_payloads_come_back_bit_exact() {
        let mut m = Module::new("t");
        let mut f = IrFunc::new(
            "f",
            &[Type::F64, Type::F64, Type::I1],
            &[Type::F64, Type::F64, Type::F64],
        );
        let (zero, nan, cond) = (f.args()[0], f.args()[1], f.args()[2]);
        let mut b = Builder::new(&mut f);
        let one = b.const_f(1.0);
        let scaled = b.mulf(zero, one);
        let negated = b.negf(nan);
        let twice = b.negf(negated);
        let picked = b.select(cond, nan, zero);
        b.ret(&[scaled, twice, picked]);
        m.add_func(f);
        let payload = f64::from_bits(0x7ff4_0000_dead_beef);
        let bits = |cond| {
            let args = [Val::F(-0.0), Val::F(payload), Val::B(cond)];
            let out = eval_func(&m, "f", &args, &mut ParamOnlyContext::default()).unwrap();
            out.iter().map(|v| v.f().to_bits()).collect::<Vec<_>>()
        };
        let (neg_zero, nan_bits) = ((-0.0f64).to_bits(), payload.to_bits());
        assert_eq!(bits(true), [neg_zero, nan_bits, nan_bits]);
        assert_eq!(bits(false), [neg_zero, nan_bits, neg_zero]);
    }

    #[test]
    fn bools_come_back_as_bools() {
        let mut m = Module::new("t");
        let mut f = IrFunc::new("f", &[Type::I1, Type::I1], &[Type::I1, Type::I1]);
        let (x, y) = (f.args()[0], f.args()[1]);
        let mut b = Builder::new(&mut f);
        let both = b.andi(x, y);
        let either_not_both = b.xori(x, y);
        b.ret(&[both, either_not_both]);
        m.add_func(f);
        let mut ctx = ParamOnlyContext::default();
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = eval_func(&m, "f", &[Val::B(x), Val::B(y)], &mut ctx).unwrap();
            assert_eq!(out, [Val::B(x & y), Val::B(x ^ y)]);
        }
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
    fn a_loop_carries_any_number_of_values() {
        let mut ctx = ParamOnlyContext::default();
        for n in [1, 8, 9, 40] {
            let out = eval_func(&loop_carrying(n), "f", &[Val::F(1.0)], &mut ctx);
            assert_eq!(out.unwrap(), [Val::F(8.0)], "{n} carried values");
        }
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
