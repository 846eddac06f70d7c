//! Lookup-table extraction (paper §3.4.2).
//!
//! A `.lookup(lo, hi, step)` markup on a variable `L` tells the code
//! generator that expressions depending **only** on `L` (and parameters/
//! constants) may be precomputed over the tabulated range and replaced by a
//! linear interpolation at runtime. This mirrors openCARP's LUT machinery
//! (`LUT_interpRow`), which the paper found to dominate runtime in many
//! models and re-implemented as a vectorized MLIR function.
//!
//! The extraction pipeline:
//!
//! 1. find *L-pure* intermediates — variables whose defining expression
//!    reads only `L`, parameters, constants, and other L-pure variables;
//! 2. inline L-pure variables into every statement (their defining
//!    statements are dropped);
//! 3. walk each remaining expression top-down and replace every **maximal**
//!    subexpression that references `L`, is closed over `{L} ∪ params`, and
//!    contains at least one math call, by a reference to a fresh (or
//!    deduplicated) table column.
//!
//! Column references are encoded as internal calls
//! `__lut_col(table_index, col_index, L)` which only
//! [`crate::lower`] understands; they never appear in user-facing ASTs.

use limpet_easyml::{Expr, Lookup, Model, Stmt};
use std::collections::{HashMap, HashSet};

/// Internal marker function name for an extracted column reference.
pub(crate) const LUT_COL_MARKER: &str = "__lut_col";

/// One extracted lookup table.
#[derive(Debug, Clone, PartialEq)]
pub struct LutTable {
    /// The lookup key variable (e.g. `Vm`).
    pub var: String,
    /// Tabulated range and step from the markup.
    pub lookup: Lookup,
    /// Column expressions, closed over `{var} ∪ params`.
    pub columns: Vec<Expr>,
}

/// Result of LUT extraction over a model body.
#[derive(Debug, Clone, PartialEq)]
pub struct LutExtraction {
    /// Rewritten statements with `__lut_col` references.
    pub stmts: Vec<Stmt>,
    /// Extracted tables, indexed by the `table_index` argument of
    /// `__lut_col`.
    pub tables: Vec<LutTable>,
}

/// Runs LUT extraction for every `.lookup()` markup of the model.
///
/// Returns the rewritten statement list and the extracted tables. When the
/// model has no lookup markups (or nothing worth tabulating), the statements
/// are returned unchanged and `tables` is empty.
pub fn extract_luts(model: &Model) -> LutExtraction {
    let mut stmts = model.stmts.clone();
    let mut tables = Vec::new();

    for lookup in &model.lookups {
        let var = lookup.var.clone();
        let param_names: HashSet<String> = model.params.iter().map(|p| p.name.clone()).collect();

        // Step 1: L-pure intermediates (top-level plain assignments only).
        let mut pure: HashMap<String, Expr> = HashMap::new();
        loop {
            let mut grew = false;
            for s in &stmts {
                if let Stmt::Assign { lhs, expr, .. } = s {
                    if lhs.starts_with("diff_")
                        || pure.contains_key(lhs)
                        || model.external(lhs).is_some()
                    {
                        continue;
                    }
                    let mut reads_key = false;
                    let closed = all_vars(expr, &mut |v| {
                        let known = v == var || pure.contains_key(v);
                        reads_key |= known;
                        known || param_names.contains(v)
                    });
                    if closed && reads_key {
                        pure.insert(lhs.clone(), expr.clone());
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }

        // Step 2: inline L-pure vars everywhere; drop their definitions.
        let inlined: HashMap<String, Expr> = pure
            .keys()
            .map(|k| (k.clone(), inline_pure(&pure[k], &pure)))
            .collect();
        stmts.retain(|s| match s {
            Stmt::Assign { lhs, .. } => !inlined.contains_key(lhs),
            Stmt::If { .. } => true,
        });
        for s in &mut stmts {
            for_each_expr_mut(s, &mut |e| substitute(e, &inlined));
        }

        // Step 3: extract maximal closed subexpressions containing calls.
        let mut ex = Extractor {
            var: &lookup.var,
            params: &param_names,
            table: tables.len(),
            classes: Vec::new(),
            columns: Vec::new(),
            col_keys: HashMap::new(),
        };
        for s in &mut stmts {
            for_each_expr_mut(s, &mut |e| ex.extract(e));
        }

        if !ex.columns.is_empty() {
            tables.push(LutTable {
                var,
                lookup: lookup.clone(),
                columns: ex.columns,
            });
        }
    }

    LutExtraction { stmts, tables }
}

/// Whether `f` holds for every variable `expr` reads (no allocation).
fn all_vars(expr: &Expr, f: &mut impl FnMut(&str) -> bool) -> bool {
    match expr {
        Expr::Num(_) => true,
        Expr::Var(v) => f(v),
        Expr::Unary(_, e) => all_vars(e, f),
        Expr::Binary(_, l, r) => all_vars(l, f) && all_vars(r, f),
        Expr::Call(_, args) => args.iter().all(|a| all_vars(a, f)),
        Expr::Cond(c, t, e) => all_vars(c, f) && all_vars(t, f) && all_vars(e, f),
    }
}

/// Recursively inlines L-pure variable references.
fn inline_pure(expr: &Expr, pure: &HashMap<String, Expr>) -> Expr {
    match expr {
        Expr::Var(v) => match pure.get(v) {
            Some(def) => inline_pure(def, pure),
            None => expr.clone(),
        },
        Expr::Num(_) => expr.clone(),
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(inline_pure(e, pure))),
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(inline_pure(l, pure)),
            Box::new(inline_pure(r, pure)),
        ),
        Expr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter().map(|a| inline_pure(a, pure)).collect(),
        ),
        Expr::Cond(c, t, e) => Expr::Cond(
            Box::new(inline_pure(c, pure)),
            Box::new(inline_pure(t, pure)),
            Box::new(inline_pure(e, pure)),
        ),
    }
}

/// Replaces every reference to an inlined variable by its definition.
/// The definitions are fully inlined already, so one level suffices.
fn substitute(expr: &mut Expr, inlined: &HashMap<String, Expr>) {
    if let Expr::Var(v) = expr {
        if let Some(def) = inlined.get(v) {
            *expr = def.clone();
        }
        return;
    }
    for_each_child_mut(expr, &mut |e| substitute(e, inlined));
}

/// Visits the statement's expressions in source order: an `if`'s
/// condition, then its `then` body, then its `else` body.
fn for_each_expr_mut(stmt: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match stmt {
        Stmt::Assign { expr, .. } => f(expr),
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            f(cond);
            for s in then_body.iter_mut().chain(else_body) {
                for_each_expr_mut(s, f);
            }
        }
    }
}

/// Visits the direct operands of `expr`, left to right.
fn for_each_child_mut(expr: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match expr {
        Expr::Num(_) | Expr::Var(_) => {}
        Expr::Unary(_, e) => f(e),
        Expr::Binary(_, l, r) => {
            f(l);
            f(r);
        }
        Expr::Call(_, args) => args.iter_mut().for_each(f),
        Expr::Cond(c, t, e) => {
            f(c);
            f(t);
            f(e);
        }
    }
}

/// What step 3 needs to know of one expression node, computed bottom-up.
#[derive(Debug, Clone, Copy)]
struct Class {
    /// The subtree reads the lookup variable.
    reads_key: bool,
    /// Every variable the subtree reads is the lookup variable or a
    /// parameter.
    closed: bool,
    /// The subtree contains a call — the "worth tabulating" criterion:
    /// LUTs pay off when they elide transcendental evaluations.
    has_call: bool,
    /// Nodes in the subtree, to skip it in pre-order.
    size: usize,
}

impl Class {
    fn eligible(self) -> bool {
        self.reads_key && self.closed && self.has_call
    }
}

/// Step 3 for one lookup variable: replaces each maximal eligible
/// subexpression by a reference to a (deduplicated) table column.
struct Extractor<'a> {
    var: &'a str,
    params: &'a HashSet<String>,
    table: usize,
    /// Scratch: the classes of the expression being rewritten, pre-order.
    classes: Vec<Class>,
    columns: Vec<Expr>,
    col_keys: HashMap<String, usize>,
}

impl Extractor<'_> {
    fn extract(&mut self, expr: &mut Expr) {
        self.classes.clear();
        self.classify(expr);
        let mut at = 0;
        self.rewrite(expr, &mut at);
    }

    /// Appends the classes of `expr`'s subtree in pre-order and returns
    /// the root's.
    fn classify(&mut self, expr: &Expr) -> Class {
        let at = self.classes.len();
        let mut class = Class {
            reads_key: false,
            closed: true,
            has_call: matches!(expr, Expr::Call(..)),
            size: 1,
        };
        self.classes.push(class);
        match expr {
            Expr::Num(_) => {}
            Expr::Var(v) => {
                class.reads_key = v == self.var;
                class.closed = class.reads_key || self.params.contains(v);
            }
            Expr::Unary(_, e) => self.absorb(&mut class, e),
            Expr::Binary(_, l, r) => {
                self.absorb(&mut class, l);
                self.absorb(&mut class, r);
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.absorb(&mut class, a);
                }
            }
            Expr::Cond(c, t, e) => {
                self.absorb(&mut class, c);
                self.absorb(&mut class, t);
                self.absorb(&mut class, e);
            }
        }
        self.classes[at] = class;
        class
    }

    fn absorb(&mut self, node: &mut Class, child: &Expr) {
        let c = self.classify(child);
        node.reads_key |= c.reads_key;
        node.closed &= c.closed;
        node.has_call |= c.has_call;
        node.size += c.size;
    }

    fn rewrite(&mut self, expr: &mut Expr, at: &mut usize) {
        let class = self.classes[*at];
        if !class.eligible() {
            *at += 1;
            for_each_child_mut(expr, &mut |e| self.rewrite(e, at));
            return;
        }
        // Maximal eligible node: replace by a (deduplicated) column ref.
        *at += class.size;
        let column = std::mem::replace(expr, Expr::Num(0.0));
        let columns = &mut self.columns;
        let col = *self.col_keys.entry(column.to_string()).or_insert_with(|| {
            columns.push(column);
            columns.len() - 1
        });
        *expr = Expr::Call(
            LUT_COL_MARKER.to_owned(),
            vec![
                Expr::Num(self.table as f64),
                Expr::Num(col as f64),
                Expr::Var(self.var.to_owned()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_easyml::compile_model;

    fn model(src: &str) -> Model {
        compile_model("m", src).unwrap()
    }

    #[test]
    fn no_lookup_no_tables() {
        let m = model("diff_x = exp(-x);");
        let ex = extract_luts(&m);
        assert!(ex.tables.is_empty());
        assert_eq!(ex.stmts, m.stmts);
    }

    #[test]
    fn extracts_direct_subexpression() {
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             diff_x = exp(Vm / 10.0) * x;",
        );
        let ex = extract_luts(&m);
        assert_eq!(ex.tables.len(), 1);
        assert_eq!(ex.tables[0].columns.len(), 1);
        assert_eq!(ex.tables[0].columns[0].to_string(), "exp((Vm/10))");
        // The rewritten diff references the marker call.
        let rewritten = format!("{:?}", ex.stmts);
        assert!(rewritten.contains(LUT_COL_MARKER));
    }

    #[test]
    fn inlines_pure_intermediates_into_columns() {
        // `am` depends only on Vm: the whole chain becomes one column and
        // the am assignment is dropped.
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             am = 0.1 * (Vm + 40.0) / (1.0 - exp(-(Vm + 40.0) / 10.0));\n\
             diff_x = am * (1.0 - x);",
        );
        let ex = extract_luts(&m);
        assert_eq!(ex.tables[0].columns.len(), 1);
        assert!(ex.tables[0].columns[0].to_string().contains("exp"));
        // am's definition is gone.
        assert!(ex.stmts.iter().all(|s| !matches!(
            s,
            Stmt::Assign { lhs, .. } if lhs == "am"
        )));
    }

    #[test]
    fn dedups_identical_columns() {
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             diff_x = exp(Vm) * x;\n\
             diff_y = exp(Vm) * y;",
        );
        let ex = extract_luts(&m);
        assert_eq!(ex.tables[0].columns.len(), 1);
    }

    #[test]
    fn call_free_expressions_not_tabulated() {
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             diff_x = (Vm + 1.0) * x;",
        );
        let ex = extract_luts(&m);
        assert!(ex.tables.is_empty());
    }

    #[test]
    fn params_allowed_in_columns() {
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             group{ k = 2.0; }.param();\n\
             diff_x = exp(k * Vm) - x;",
        );
        let ex = extract_luts(&m);
        assert_eq!(ex.tables[0].columns.len(), 1);
        assert_eq!(ex.tables[0].columns[0].to_string(), "exp((k*Vm))");
    }

    #[test]
    fn state_dependent_expressions_stay() {
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             diff_x = exp(Vm * x);",
        );
        let ex = extract_luts(&m);
        // exp(Vm * x) is not closed over {Vm, params}: x is state.
        assert!(ex.tables.is_empty());
    }

    #[test]
    fn extraction_inside_if_branches() {
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             diff_x = a - x;\n\
             if (Vm > 0.0) { a = exp(Vm); } else { a = 0.0; }",
        );
        let ex = extract_luts(&m);
        assert_eq!(ex.tables.len(), 1);
        assert_eq!(ex.tables[0].columns[0].to_string(), "exp(Vm)");
    }

    #[test]
    fn multiple_lookup_vars_multiple_tables() {
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             Ca; .external(); .lookup(0, 10, 0.01);\n\
             diff_x = exp(Vm) + log(Ca + 1.0) - x;",
        );
        let ex = extract_luts(&m);
        assert_eq!(ex.tables.len(), 2);
        assert_eq!(ex.tables[0].var, "Vm");
        assert_eq!(ex.tables[1].var, "Ca");
    }

    #[test]
    fn classification_picks_maximal_closed_calls_in_order() {
        // `am` is L-pure and read by an `if` condition and by both of its
        // branches; `k*Vm + 1` is closed over {Vm, k} but call-free, so
        // only the call above it is a column; `exp(Vm*x)` has a call but
        // reads state, so neither it nor anything under it is one.
        let m = model(
            "Vm; .external(); .lookup(-100, 100, 0.5);\n\
             group{ k = 2.0; }.param();\n\
             am = exp(Vm / 10.0);\n\
             if (am > 1.0) { a = am * x; } else { a = exp(am) - x; }\n\
             diff_x = a + log(k * Vm + 1.0) * x + exp(Vm * x) + am;",
        );
        let ex = extract_luts(&m);
        assert_eq!(ex.tables.len(), 1);
        let columns: Vec<String> = ex.tables[0].columns.iter().map(Expr::to_string).collect();
        assert_eq!(
            columns,
            [
                "(exp((Vm/10))>1)",
                "exp((Vm/10))",
                "exp(exp((Vm/10)))",
                "log(((k*Vm)+1))"
            ]
        );
        let rendered: Vec<String> = ex
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::Assign { lhs, expr, .. } => format!("{lhs} = {expr}"),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    let body = |b: &[Stmt]| match b {
                        [Stmt::Assign { lhs, expr, .. }] => format!("{lhs} = {expr}"),
                        other => panic!("unexpected branch {other:?}"),
                    };
                    format!(
                        "if {cond} {{ {} }} else {{ {} }}",
                        body(then_body),
                        body(else_body)
                    )
                }
            })
            .collect();
        // `am`'s definition is gone; the second read of `exp(Vm/10)` reuses
        // column 1.
        assert_eq!(
            rendered,
            [
                "if __lut_col(0,0,Vm) { a = (__lut_col(0,1,Vm)*x) } else { a = (__lut_col(0,2,Vm)-x) }",
                "diff_x = (((a+(__lut_col(0,3,Vm)*x))+exp((Vm*x)))+__lut_col(0,1,Vm))",
            ]
        );
    }
}
