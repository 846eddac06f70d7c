//! MLIR-style textual printing of modules.
//!
//! The output round-trips through [`crate::parser::parse_module`]. Value
//! names are assigned in print order (`%0`, `%1`, … for op results,
//! `%argN` for region arguments), so two structurally equal functions print
//! identically regardless of arena history.

use crate::attr::Attr;
use crate::module::{Func, Module, OpId, RegionId, ValueId};
use crate::ops::OpKind;
use std::fmt::{self, Write};

/// Prints a module in textual IR form.
///
/// # Examples
///
/// ```
/// use limpet_ir::{Builder, Func, Module, print_module};
/// let mut m = Module::new("demo");
/// let mut f = Func::new("compute", &[], &[]);
/// let mut b = Builder::new(&mut f);
/// let c = b.const_f(1.0);
/// b.set_state("u", c);
/// b.ret(&[]);
/// m.add_func(f);
/// let text = print_module(&m);
/// assert!(text.contains("module @demo"));
/// assert!(text.contains("arith.constant 1.0 : f64"));
/// ```
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    write!(out, "module @{}", module.name()).unwrap();
    if !module.attrs.is_empty() {
        write!(out, " attributes {}", module.attrs).unwrap();
    }
    out.push_str(" {\n");
    for lut in &module.luts {
        writeln!(
            out,
            "  lut @{} {{cols = \"{}\", func = \"{}\", hi = {}, lo = {}, step = {}}}",
            lut.name,
            lut.cols.join(","),
            lut.func,
            Attr::F64(lut.hi),
            Attr::F64(lut.lo),
            Attr::F64(lut.step),
        )
        .unwrap();
    }
    for func in module.funcs() {
        print_func(func, &mut out);
    }
    out.push_str("}\n");
    out
}

/// Prints a single function in textual IR form.
pub fn print_func(func: &Func, out: &mut String) {
    let mut p = FuncPrinter {
        func,
        names: vec![Name::Unnamed; func.num_values()],
        next_result: 0,
        next_arg: 0,
    };
    write!(out, "  func.func @{}(", func.name()).unwrap();
    for (i, &a) in func.args().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let name = p.name_arg(a);
        write!(out, "{name}: {}", func.value_type(a)).unwrap();
    }
    out.push(')');
    if !func.result_types().is_empty() {
        out.push_str(" -> (");
        write_list(out, func.result_types());
        out.push(')');
    }
    out.push_str(" {\n");
    p.print_region_body(func.body(), 2, out);
    out.push_str("  }\n");
}

/// A value's printed name, assigned in print order.
#[derive(Debug, Clone, Copy)]
enum Name {
    Unnamed,
    /// `%N`: the N-th op result.
    Result(usize),
    /// `%argN`: the N-th region argument.
    Arg(usize),
}

/// A value as printed: its name, or `%<undef:I>` before it has one.
struct Shown(Name, ValueId);

impl fmt::Display for Shown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Name::Result(n) => write!(f, "%{n}"),
            Name::Arg(n) => write!(f, "%arg{n}"),
            Name::Unnamed => write!(f, "%<undef:{}>", self.1.index()),
        }
    }
}

/// Writes `items` separated by `", "`.
fn write_list<T: fmt::Display>(out: &mut String, items: impl IntoIterator<Item = T>) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{item}").unwrap();
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

struct FuncPrinter<'a> {
    func: &'a Func,
    names: Vec<Name>,
    next_result: usize,
    next_arg: usize,
}

impl<'a> FuncPrinter<'a> {
    fn name_arg(&mut self, v: ValueId) -> Shown {
        self.names[v.index()] = Name::Arg(self.next_arg);
        self.next_arg += 1;
        self.name_of(v)
    }

    fn name_result(&mut self, v: ValueId) -> Shown {
        self.names[v.index()] = Name::Result(self.next_result);
        self.next_result += 1;
        self.name_of(v)
    }

    fn name_of(&self, v: ValueId) -> Shown {
        Shown(self.names[v.index()], v)
    }

    fn print_region_body(&mut self, region: RegionId, depth: usize, out: &mut String) {
        let func = self.func;
        for &op in &func.region(region).ops {
            self.print_op(op, depth, out);
        }
    }

    fn print_op(&mut self, op_id: OpId, depth: usize, out: &mut String) {
        let func = self.func;
        let op = func.op(op_id);
        indent(out, depth);

        // Results.
        if !op.results.is_empty() {
            let names: Vec<Shown> = op.results.iter().map(|&r| self.name_result(r)).collect();
            write_list(out, names);
            out.push_str(" = ");
        }
        let result_types = op.results.iter().map(|&r| func.value_type(r));

        match &op.kind {
            OpKind::If => {
                write!(out, "scf.if {}", self.name_of(op.operands[0])).unwrap();
                if !op.results.is_empty() {
                    out.push_str(" -> (");
                    write_list(out, result_types);
                    out.push(')');
                }
                out.push_str(" {\n");
                self.print_region_body(op.regions[0], depth + 1, out);
                indent(out, depth);
                out.push_str("} else {\n");
                self.print_region_body(op.regions[1], depth + 1, out);
                indent(out, depth);
                out.push_str("}\n");
            }
            OpKind::For => {
                let body = op.regions[0];
                let args = &func.region(body).args;
                let iv = self.name_arg(args[0]);
                write!(
                    out,
                    "scf.for {} = {} to {} step {}",
                    iv,
                    self.name_of(op.operands[0]),
                    self.name_of(op.operands[1]),
                    self.name_of(op.operands[2]),
                )
                .unwrap();
                if args.len() > 1 {
                    out.push_str(" iter_args(");
                    for (i, &a) in args[1..].iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let an = self.name_arg(a);
                        write!(out, "{an} = {}", self.name_of(op.operands[3 + i])).unwrap();
                    }
                    out.push_str(") -> (");
                    write_list(out, result_types);
                    out.push(')');
                }
                out.push_str(" {\n");
                self.print_region_body(body, depth + 1, out);
                indent(out, depth);
                out.push_str("}\n");
            }
            kind => {
                out.push_str(kind.name());
                // Inline payloads and predicates.
                match kind {
                    OpKind::ConstantF(v) => write!(out, " {}", Attr::F64(*v)).unwrap(),
                    OpKind::ConstantInt(v) => write!(out, " {v}").unwrap(),
                    OpKind::ConstantBool(v) => write!(out, " {v}").unwrap(),
                    OpKind::CmpF(p) => write!(out, " {},", p.name()).unwrap(),
                    OpKind::CmpI(p) => write!(out, " {},", p.name()).unwrap(),
                    _ => {}
                }
                // Operands.
                if !op.operands.is_empty() {
                    out.push(' ');
                    write_list(out, op.operands.iter().map(|&v| self.name_of(v)));
                }
                // Attributes.
                if !op.attrs.is_empty() {
                    write!(out, " {}", op.attrs).unwrap();
                }
                // Trailing type: result type, else first-operand type.
                let ty = op
                    .results
                    .first()
                    .or(op.operands.first())
                    .map(|&v| func.value_type(v));
                if let Some(ty) = ty {
                    write!(out, " : {ty}").unwrap();
                }
                out.push('\n');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::ops::CmpFPred;
    use crate::types::Type;

    fn demo_module() -> Module {
        let mut m = Module::new("demo");
        m.attrs.set("vector_width", 8i64);
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        let vm = b.get_ext("Vm");
        let c = b.const_f(2.0);
        let half = b.divf(vm, c);
        let is_neg = b.cmpf(CmpFPred::Olt, vm, c);
        let sel = b.if_op(
            is_neg,
            &[Type::F64],
            |b| {
                let v = b.negf(half);
                b.yield_(&[v]);
            },
            |b| {
                b.yield_(&[half]);
            },
        );
        b.set_state("u1", sel[0]);
        b.ret(&[]);
        m.add_func(f);
        m
    }

    #[test]
    fn prints_structured_if() {
        let text = print_module(&demo_module());
        assert!(text.contains("scf.if %3 -> (f64) {"));
        assert!(text.contains("} else {"));
        assert!(text.contains("limpet.get_ext {var = \"Vm\"} : f64"));
        assert!(text.contains("limpet.set_state %4 {var = \"u1\"} : f64"));
        assert!(text.contains("func.return"));
    }

    #[test]
    fn prints_module_attrs_and_header() {
        let text = print_module(&demo_module());
        assert!(text.starts_with("module @demo attributes {vector_width = 8} {"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn prints_for_loop() {
        let mut m = Module::new("loops");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        let lb = b.const_index(0);
        let ub = b.const_index(3);
        let st = b.const_index(1);
        let x0 = b.const_f(1.0);
        let r = b.for_op(lb, ub, st, &[x0], |b, _iv, iters| {
            let two = b.const_f(2.0);
            let next = b.mulf(iters[0], two);
            b.yield_(&[next]);
        });
        b.set_state("x", r[0]);
        b.ret(&[]);
        m.add_func(f);
        let text = print_module(&m);
        assert!(text.contains("scf.for %arg0 = %0 to %1 step %2 iter_args(%arg1 = %3) -> (f64) {"));
        assert!(text.contains("scf.yield %6 : f64"));
    }

    #[test]
    fn stable_numbering_is_print_order() {
        let text = print_module(&demo_module());
        // First op result must be %0.
        assert!(text.contains("%0 = limpet.get_ext"));
        assert!(text.contains("%1 = arith.constant 2.0 : f64"));
    }

    #[test]
    fn prints_function_signature() {
        let mut m = Module::new("sig");
        let mut f = Func::new("lut_Vm", &[Type::F64], &[Type::F64]);
        let arg = f.args()[0];
        let mut b = Builder::new(&mut f);
        b.ret(&[arg]);
        m.add_func(f);
        let text = print_module(&m);
        assert!(text.contains("func.func @lut_Vm(%arg0: f64) -> (f64) {"));
        assert!(text.contains("func.return %arg0 : f64"));
    }
}
