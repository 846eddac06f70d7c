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
//! The rewrites work on a copy of the model's node vector: a changed
//! expression is new nodes appended to it, which share every unchanged
//! operand with the model's. Column references are encoded as internal
//! calls `__lut_col(table_index, col_index, L)` which only
//! [`crate::lower`] understands; they never appear in user-facing ASTs.

use limpet_easyml::{ExprId, ExprRef, Exprs, Lookup, Model, Stmt, Sym};
use std::collections::HashMap;

/// Internal marker function name for an extracted column reference.
pub(crate) const LUT_COL_MARKER: &str = "__lut_col";

/// One extracted lookup table.
#[derive(Debug, Clone, PartialEq)]
pub struct LutTable {
    /// The lookup key variable (e.g. `Vm`).
    pub var: String,
    /// Tabulated range and step from the markup.
    pub lookup: Lookup,
    /// Roots of the column expressions in [`LutExtraction::exprs`], closed
    /// over `{var} ∪ params`.
    pub columns: Vec<ExprId>,
}

/// Result of LUT extraction over a model body.
#[derive(Debug, Clone, PartialEq)]
pub struct LutExtraction {
    /// The model's nodes and names, with the rewrites' nodes appended.
    pub exprs: Exprs,
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
    let mut exprs = model.exprs.clone();
    let mut stmts = model.stmts.clone();
    let mut tables = Vec::new();
    let marker = exprs.intern(LUT_COL_MARKER);
    let mut is_param = vec![false; exprs.names()];
    for p in &model.params {
        if let Some(s) = exprs.sym(&p.name) {
            is_param[s.index()] = true;
        }
    }

    for lookup in &model.lookups {
        let Some(var) = exprs.sym(&lookup.var) else {
            continue;
        };

        // Step 1: L-pure intermediates (top-level plain assignments only).
        let mut pure: Vec<Option<ExprId>> = vec![None; exprs.names()];
        loop {
            let mut grew = false;
            for s in &stmts {
                if let Stmt::Assign { lhs, expr, .. } = *s {
                    let name = exprs.name(lhs);
                    if name.starts_with("diff_")
                        || pure[lhs.index()].is_some()
                        || model.external(name).is_some()
                    {
                        continue;
                    }
                    let mut reads_key = false;
                    let closed = all_vars(&exprs, expr, &mut |v| {
                        let known = v == var || pure[v.index()].is_some();
                        reads_key |= known;
                        known || is_param[v.index()]
                    });
                    if closed && reads_key {
                        pure[lhs.index()] = Some(expr);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }

        // Step 2: inline L-pure vars everywhere; drop their definitions.
        let mut inlined: Vec<Option<ExprId>> = vec![None; pure.len()];
        stmts.retain(|s| !matches!(s, Stmt::Assign { lhs, .. } if pure[lhs.index()].is_some()));
        for s in &mut stmts {
            for_each_root_mut(s, &mut |e| *e = inline(&mut exprs, *e, &pure, &mut inlined));
        }

        // Step 3: extract maximal closed subexpressions containing calls.
        let mut ex = Extractor {
            var,
            marker,
            is_param: &is_param,
            table: tables.len(),
            classes: vec![None; exprs.len()],
            columns: Vec::new(),
            col_keys: HashMap::new(),
        };
        for s in &mut stmts {
            for_each_root_mut(s, &mut |e| *e = ex.rewrite(&mut exprs, *e));
        }

        if !ex.columns.is_empty() {
            tables.push(LutTable {
                var: lookup.var.clone(),
                lookup: lookup.clone(),
                columns: ex.columns,
            });
        }
    }

    LutExtraction {
        exprs,
        stmts,
        tables,
    }
}

/// Whether `f` holds for every variable `expr` reads (no allocation).
fn all_vars(exprs: &Exprs, expr: ExprId, f: &mut impl FnMut(Sym) -> bool) -> bool {
    match exprs.get(expr) {
        ExprRef::Var(v) => f(v),
        e => e.operands().all(|o| all_vars(exprs, o, f)),
    }
}

/// `expr` with every reference to an L-pure variable replaced by the
/// variable's definition, itself inlined. `pure` holds each L-pure
/// variable's definition by symbol index, and `inlined` the inlined
/// definitions built so far, each built once.
fn inline(
    exprs: &mut Exprs,
    expr: ExprId,
    pure: &[Option<ExprId>],
    inlined: &mut [Option<ExprId>],
) -> ExprId {
    let ExprRef::Var(v) = exprs.get(expr) else {
        return exprs.map_children(expr, |exprs, e| inline(exprs, e, pure, inlined));
    };
    let Some(def) = pure[v.index()] else {
        return expr;
    };
    if let Some(done) = inlined[v.index()] {
        return done;
    }
    let done = inline(exprs, def, pure, inlined);
    inlined[v.index()] = Some(done);
    done
}

/// Visits the roots of the statement's expressions in source order: an
/// `if`'s condition, then its `then` body, then its `else` body.
fn for_each_root_mut(stmt: &mut Stmt, f: &mut impl FnMut(&mut ExprId)) {
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
                for_each_root_mut(s, f);
            }
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
}

impl Class {
    fn eligible(self) -> bool {
        self.reads_key && self.closed && self.has_call
    }
}

/// Step 3 for one lookup variable: replaces each maximal eligible
/// subexpression by a reference to a (deduplicated) table column.
struct Extractor<'a> {
    var: Sym,
    marker: Sym,
    /// Per symbol index: the name is a parameter.
    is_param: &'a [bool],
    table: usize,
    /// The class of each node classified so far, by node index. A class
    /// belongs to the subtree, so a node shared by several expressions is
    /// classified once.
    classes: Vec<Option<Class>>,
    columns: Vec<ExprId>,
    col_keys: HashMap<String, usize>,
}

impl Extractor<'_> {
    fn classify(&mut self, exprs: &Exprs, expr: ExprId) -> Class {
        if let Some(class) = self.classes[expr.index()] {
            return class;
        }
        let e = exprs.get(expr);
        let mut class = Class {
            reads_key: false,
            closed: true,
            has_call: matches!(e, ExprRef::Call(..)),
        };
        if let ExprRef::Var(v) = e {
            class.reads_key = v == self.var;
            class.closed = class.reads_key || self.is_param[v.index()];
        }
        for o in e.operands() {
            let c = self.classify(exprs, o);
            class.reads_key |= c.reads_key;
            class.closed &= c.closed;
            class.has_call |= c.has_call;
        }
        self.classes[expr.index()] = Some(class);
        class
    }

    /// `expr` with its maximal eligible subexpressions replaced, top-down
    /// and left to right, by column references.
    fn rewrite(&mut self, exprs: &mut Exprs, expr: ExprId) -> ExprId {
        if !self.classify(exprs, expr).eligible() {
            return exprs.map_children(expr, |exprs, e| self.rewrite(exprs, e));
        }
        let columns = &mut self.columns;
        let col = *self
            .col_keys
            .entry(exprs.display(expr).to_string())
            .or_insert_with(|| {
                columns.push(expr);
                columns.len() - 1
            });
        let args = [
            exprs.num(self.table as f64),
            exprs.num(col as f64),
            exprs.var(self.var),
        ];
        exprs.call(self.marker, &args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_easyml::compile_model;

    fn model(src: &str) -> Model {
        compile_model("m", src).unwrap()
    }

    fn columns(ex: &LutExtraction, table: usize) -> Vec<String> {
        let shown = ex.tables[table].columns.iter();
        shown.map(|&c| ex.exprs.display(c).to_string()).collect()
    }

    /// Each statement as `lhs = expr` or `if cond { … } else { … }`.
    fn rendered(ex: &LutExtraction) -> Vec<String> {
        fn one(x: &Exprs, s: &Stmt) -> String {
            match s {
                Stmt::Assign { lhs, expr, .. } => {
                    format!("{} = {}", x.name(*lhs), x.display(*expr))
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    let body =
                        |b: &[Stmt]| b.iter().map(|s| one(x, s)).collect::<Vec<_>>().join("; ");
                    format!(
                        "if {} {{ {} }} else {{ {} }}",
                        x.display(*cond),
                        body(then_body),
                        body(else_body)
                    )
                }
            }
        }
        ex.stmts.iter().map(|s| one(&ex.exprs, s)).collect()
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
        assert_eq!(columns(&ex, 0), ["exp((Vm/10))"]);
        // The rewritten diff references the marker call.
        assert_eq!(rendered(&ex), ["diff_x = (__lut_col(0,0,Vm)*x)"]);
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
        assert!(columns(&ex, 0)[0].contains("exp"));
        // am's definition is gone.
        assert_eq!(rendered(&ex), ["diff_x = (__lut_col(0,0,Vm)*(1-x))"]);
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
        assert_eq!(columns(&ex, 0), ["exp((k*Vm))"]);
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
        assert_eq!(columns(&ex, 0), ["exp(Vm)"]);
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
        assert_eq!(
            columns(&ex, 0),
            [
                "(exp((Vm/10))>1)",
                "exp((Vm/10))",
                "exp(exp((Vm/10)))",
                "log(((k*Vm)+1))"
            ]
        );
        // `am`'s definition is gone; the second read of `exp(Vm/10)` reuses
        // column 1.
        assert_eq!(
            rendered(&ex),
            [
                "if __lut_col(0,0,Vm) { a = (__lut_col(0,1,Vm)*x) } else { a = (__lut_col(0,2,Vm)-x) }",
                "diff_x = (((a+(__lut_col(0,3,Vm)*x))+exp((Vm*x)))+__lut_col(0,1,Vm))",
            ]
        );
    }
}
