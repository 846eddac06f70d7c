//! Common subexpression elimination.
//!
//! The paper calls out CSE as one of the in-tree MLIR transformations that
//! benefit generated ionic-model code (§3.4.2) — the integration methods
//! re-lower the derivative cone several times, producing many duplicates.
//!
//! Pure, region-free operations with identical `(kind, operands,
//! attributes)` are deduplicated. Scoping follows the region tree: an op in
//! a nested region may reuse a dominating op from an ancestor region, but
//! not vice versa, and sibling regions do not share.

use crate::{Pass, PassCtx};
use limpet_ir::{Attr, Func, Module, OpId, OpKind, RegionId, Type, ValueId};
use std::collections::HashMap;
use std::mem::Discriminant;

/// Common subexpression elimination pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, module: &mut Module, ctx: &mut PassCtx) -> bool {
        let mut deduped = 0u64;
        for func in module.funcs_mut() {
            let mut walk = Walk {
                scope: Vec::new(),
                subst: vec![None; func.num_values()],
            };
            deduped += walk.region(func, func.body());
        }
        ctx.count("ops-deduped", deduped);
        deduped > 0
    }
}

/// What makes two pure ops interchangeable: kind (with its payload's bits,
/// so `-0.0` and `0.0` stay apart), operands (sorted for commutative ops),
/// attributes and result type (which tells scalar from splat constants).
#[derive(Debug, PartialEq, Eq, Hash)]
struct Key {
    kind: Discriminant<OpKind>,
    payload: u64,
    operands: Vec<ValueId>,
    attrs: Vec<(String, AttrKey)>,
    ty: Type,
}

/// An attribute value compared by bits.
#[derive(Debug, PartialEq, Eq, Hash)]
enum AttrKey {
    F64(u64),
    I64(i64),
    Bool(bool),
    Str(String),
    Ty(Type),
}

fn key_of(func: &Func, op_id: OpId) -> Option<Key> {
    let op = func.op(op_id);
    if !op.kind.is_pure() || !op.regions.is_empty() || op.results.len() != 1 {
        return None;
    }
    // State reads are pure but must not be deduplicated across stores; in
    // our kernels stores only happen at the end, so reads are safe. Parent
    // reads are also safe. Constants, arithmetic, math, lut reads: safe.
    let payload = match op.kind {
        OpKind::ConstantF(x) => x.to_bits(),
        OpKind::ConstantInt(x) => x as u64,
        OpKind::ConstantBool(x) => x as u64,
        OpKind::CmpF(p) => p as u64,
        OpKind::CmpI(p) => p as u64,
        OpKind::Math(f) => f as u64,
        _ => 0,
    };
    let mut operands = op.operands.clone();
    if op.kind.is_commutative() {
        operands.sort();
    }
    let attrs = op
        .attrs
        .iter()
        .map(|(k, v)| {
            let v = match v {
                Attr::F64(x) => AttrKey::F64(x.to_bits()),
                Attr::I64(x) => AttrKey::I64(*x),
                Attr::Bool(x) => AttrKey::Bool(*x),
                Attr::Str(s) => AttrKey::Str(s.clone()),
                Attr::Ty(t) => AttrKey::Ty(*t),
            };
            (k.to_owned(), v)
        })
        .collect();
    Some(Key {
        kind: std::mem::discriminant(&op.kind),
        payload,
        operands,
        attrs,
        ty: func.value_type(op.results[0]),
    })
}

/// One walk over a function in execution order. A duplicate's result is
/// recorded in `subst` instead of being replaced everywhere at once; every
/// later op has its operands rewritten through it as the walk reaches it,
/// which covers every use, since a value's uses come after its definition.
struct Walk {
    /// Available expressions, one map per enclosing region.
    scope: Vec<HashMap<Key, ValueId>>,
    /// The surviving value of each deduplicated result.
    subst: Vec<Option<ValueId>>,
}

impl Walk {
    fn region(&mut self, func: &mut Func, region: RegionId) -> u64 {
        self.scope.push(HashMap::new());
        let mut changed = 0u64;
        let ops = std::mem::take(&mut func.region_mut(region).ops);
        let mut kept = Vec::with_capacity(ops.len());
        for op_id in ops {
            for o in &mut func.op_mut(op_id).operands {
                if let Some(v) = self.subst[o.index()] {
                    *o = v;
                }
            }
            if let Some(key) = key_of(func, op_id) {
                let result = func.op(op_id).result();
                match self.scope.iter().rev().find_map(|m| m.get(&key)) {
                    Some(&prev) => {
                        self.subst[result.index()] = Some(prev);
                        changed += 1;
                        continue;
                    }
                    None => {
                        let innermost = self.scope.last_mut().expect("pushed above");
                        innermost.insert(key, result);
                    }
                }
            }
            kept.push(op_id);
            for i in 0..func.op(op_id).regions.len() {
                let nested = func.op(op_id).regions[i];
                changed += self.region(func, nested);
            }
        }
        func.region_mut(region).ops = kept;
        self.scope.pop();
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_ir::{print_module, verify_module, Builder, Func, Module, OpKind, Type};

    fn prepare(build: impl FnOnce(&mut Builder<'_>)) -> Module {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        build(&mut b);
        m.add_func(f);
        m
    }

    fn count(m: &Module, op: &str) -> usize {
        print_module(m).matches(op).count()
    }

    #[test]
    fn dedups_identical_constants() {
        let mut m = prepare(|b| {
            let a = b.const_f(2.0);
            let c = b.const_f(2.0);
            let s = b.addf(a, c);
            b.set_state("x", s);
            b.ret(&[]);
        });
        assert!(Cse.run_on(&mut m));
        assert_eq!(count(&m, "arith.constant"), 1);
        verify_module(&m).unwrap();
    }

    #[test]
    fn dedups_arith_with_commutativity() {
        let mut m = prepare(|b| {
            let x = b.get_state("x");
            let y = b.get_state("y");
            let s1 = b.addf(x, y);
            let s2 = b.addf(y, x); // commuted duplicate
            let p = b.mulf(s1, s2);
            b.set_state("x", p);
            b.ret(&[]);
        });
        assert!(Cse.run_on(&mut m));
        assert_eq!(count(&m, "arith.addf"), 1);
        verify_module(&m).unwrap();
    }

    #[test]
    fn dedups_state_reads() {
        let mut m = prepare(|b| {
            let a = b.get_state("x");
            let c = b.get_state("x");
            let s = b.addf(a, c);
            b.set_state("x", s);
            b.ret(&[]);
        });
        assert!(Cse.run_on(&mut m));
        assert_eq!(count(&m, "limpet.get_state"), 1);
    }

    #[test]
    fn distinct_vars_not_merged() {
        let mut m = prepare(|b| {
            let a = b.get_state("x");
            let c = b.get_state("y");
            let s = b.addf(a, c);
            b.set_state("x", s);
            b.ret(&[]);
        });
        assert!(!Cse.run_on(&mut m));
        assert_eq!(count(&m, "limpet.get_state"), 2);
    }

    #[test]
    fn nested_region_reuses_outer_value() {
        let mut m = prepare(|b| {
            let x = b.get_state("x");
            let two = b.const_f(2.0);
            let outer = b.mulf(x, two);
            let c = b.const_bool(true);
            let r = b.if_op(
                c,
                &[Type::F64],
                |b| {
                    let x2 = b.get_state("x");
                    let two2 = b.const_f(2.0);
                    let dup = b.mulf(x2, two2);
                    b.yield_(&[dup]);
                },
                |b| {
                    let z = b.const_f(0.0);
                    b.yield_(&[z]);
                },
            );
            let s = b.addf(outer, r[0]);
            b.set_state("x", s);
            b.ret(&[]);
        });
        assert!(Cse.run_on(&mut m));
        // The inner mulf collapses onto the outer one.
        assert_eq!(count(&m, "arith.mulf"), 1);
        verify_module(&m).unwrap();
    }

    #[test]
    fn sibling_regions_do_not_share() {
        let mut m = prepare(|b| {
            let c = b.const_bool(true);
            let r = b.if_op(
                c,
                &[Type::F64],
                |b| {
                    let x = b.get_state("x");
                    let e = b.exp(x);
                    b.yield_(&[e]);
                },
                |b| {
                    let x = b.get_state("x");
                    let e = b.exp(x);
                    b.yield_(&[e]);
                },
            );
            b.set_state("x", r[0]);
            b.ret(&[]);
        });
        // Identical exprs in sibling branches cannot be merged (neither
        // dominates the other).
        assert!(!Cse.run_on(&mut m));
        assert_eq!(count(&m, "math.exp"), 2);
    }

    #[test]
    fn stores_never_touched() {
        let mut m = prepare(|b| {
            let x = b.get_state("x");
            b.set_state("a", x);
            b.set_state("a", x);
            b.ret(&[]);
        });
        Cse.run_on(&mut m);
        assert_eq!(count(&m, "limpet.set_state"), 2);
    }

    #[test]
    fn keys_distinguish_kinds() {
        let mut f = Func::new("f", &[], &[]);
        let body = f.body();
        let a = f.push_op(
            body,
            OpKind::ConstantF(1.0),
            vec![],
            &[Type::F64],
            limpet_ir::Attrs::new(),
            vec![],
        );
        let b_ = f.push_op(
            body,
            OpKind::ConstantInt(1),
            vec![],
            &[Type::I64],
            limpet_ir::Attrs::new(),
            vec![],
        );
        let ka = key_of(&f, a).unwrap();
        let kb = key_of(&f, b_).unwrap();
        assert_ne!(ka, kb);
    }

    /// Runs CSE and checks the result verifies: a use left pointing at an
    /// erased duplicate fails the dominance check.
    fn cse_verified(m: &mut Module) -> String {
        assert!(Cse.run_on(m));
        verify_module(m).unwrap_or_else(|e| panic!("{e}\n{}", print_module(m)));
        print_module(m)
    }

    #[test]
    fn substitution_reaches_a_nested_if_region() {
        let mut m = prepare(|b| {
            let x = b.get_state("x");
            let e1 = b.exp(x);
            let e2 = b.exp(x); // duplicate, used only inside the branches
            let c = b.const_bool(true);
            let r = b.if_op(
                c,
                &[Type::F64],
                |b| {
                    let sq = b.mulf(e2, e2);
                    b.yield_(&[sq]);
                },
                |b| b.yield_(&[e2]),
            );
            let s = b.addf(e1, r[0]);
            b.set_state("x", s);
            b.ret(&[]);
        });
        let text = cse_verified(&mut m);
        assert_eq!(count(&m, "math.exp"), 1, "{text}");
        assert!(text.contains("%4 = arith.mulf %1, %1 : f64"), "{text}");
        assert!(text.contains("scf.yield %1 : f64"), "{text}");
    }

    #[test]
    fn substitution_reaches_for_init_operands_and_yield() {
        let mut m = prepare(|b| {
            let lb = b.const_index(0);
            let ub = b.const_index(3);
            let st = b.const_index(1);
            let one = b.const_f(1.0);
            let one2 = b.const_f(1.0); // duplicate, the loop's init and yield
            let r = b.for_op(lb, ub, st, &[one2], |b, _iv, _iters| {
                b.yield_(&[one2]);
            });
            let s = b.addf(r[0], one);
            b.set_state("x", s);
            b.ret(&[]);
        });
        let text = cse_verified(&mut m);
        assert_eq!(count(&m, "arith.constant"), 4, "{text}");
        assert!(
            text.contains("scf.for %arg0 = %0 to %1 step %2 iter_args(%arg1 = %3) -> (f64) {"),
            "{text}"
        );
        assert!(text.contains("scf.yield %3 : f64"), "{text}");
    }

    #[test]
    fn substitution_reaches_func_return() {
        let mut m = Module::new("t");
        let mut f = Func::new("lut_Vm", &[Type::F64], &[Type::F64, Type::F64]);
        let key = f.args()[0];
        let mut b = Builder::new(&mut f);
        let a = b.exp(key);
        let c = b.exp(key); // duplicate, returned
        b.ret(&[a, c]);
        m.add_func(f);
        let text = cse_verified(&mut m);
        assert!(text.contains("func.return %0, %0 : f64"), "{text}");
    }

    #[test]
    fn commutative_duplicate_found_after_substitution() {
        let mut m = prepare(|b| {
            let x = b.get_state("x");
            let y1 = b.get_state("y");
            let y2 = b.get_state("y");
            let s1 = b.addf(x, y1);
            // (y2, x) is (y1, x) once y2 is substituted: a commuted s1.
            let s2 = b.addf(y2, x);
            let p = b.mulf(s1, s2);
            b.set_state("x", p);
            b.ret(&[]);
        });
        let text = cse_verified(&mut m);
        assert_eq!(count(&m, "limpet.get_state"), 2, "{text}");
        assert_eq!(count(&m, "arith.addf"), 1, "{text}");
        assert!(text.contains("arith.mulf %2, %2 : f64"), "{text}");
    }

    #[test]
    fn signed_zeros_stay_apart() {
        let mut m = prepare(|b| {
            let pz = b.const_f(0.0);
            let nz = b.const_f(-0.0);
            let s = b.addf(pz, nz);
            b.set_state("x", s);
            b.ret(&[]);
        });
        assert!(!Cse.run_on(&mut m));
        assert_eq!(count(&m, "arith.constant"), 2);
        let f = m.func("compute").unwrap();
        let ops = &f.region(f.body()).ops;
        assert_ne!(key_of(f, ops[0]), key_of(f, ops[1]));
    }
}
