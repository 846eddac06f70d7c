//! Abstract syntax tree for EasyML models.

use std::fmt;

/// Binary operators, C precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether this operator yields a boolean.
    pub fn is_boolean(self) -> bool {
        matches!(
            self,
            BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::And
                | BinOp::Or
        )
    }

    /// The C spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// An EasyML expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Num(f64),
    /// A variable reference.
    Var(String),
    /// A unary application.
    Unary(UnOp, Box<Expr>),
    /// A binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A function call, e.g. `exp(x)`, `square(x)`, `pow(a, b)`.
    Call(String, Vec<Expr>),
    /// A C ternary `cond ? then : else`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Collects the free variable names referenced by this expression into
    /// `out` (duplicates included, in reference order).
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        self.for_each_var(&mut |v| out.push(v.to_owned()));
    }

    /// Calls `f` on every free variable name, in the order of
    /// [`Expr::collect_vars`], without copying any.
    pub(crate) fn for_each_var<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Num(_) => {}
            Expr::Var(v) => f(v),
            Expr::Unary(_, e) => e.for_each_var(f),
            Expr::Binary(_, l, r) => {
                l.for_each_var(f);
                r.for_each_var(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.for_each_var(f);
                }
            }
            Expr::Cond(c, t, e) => {
                c.for_each_var(f);
                t.for_each_var(f);
                e.for_each_var(f);
            }
        }
    }

    /// Whether `var` appears free in this expression.
    pub fn references(&self, var: &str) -> bool {
        match self {
            Expr::Num(_) => false,
            Expr::Var(v) => v == var,
            Expr::Unary(_, e) => e.references(var),
            Expr::Binary(_, l, r) => l.references(var) || r.references(var),
            Expr::Call(_, args) => args.iter().any(|a| a.references(var)),
            Expr::Cond(c, t, e) => c.references(var) || t.references(var) || e.references(var),
        }
    }

    /// Number of AST nodes, a rough complexity measure.
    pub fn size(&self) -> usize {
        match self {
            Expr::Num(_) | Expr::Var(_) => 1,
            Expr::Unary(_, e) => 1 + e.size(),
            Expr::Binary(_, l, r) => 1 + l.size() + r.size(),
            Expr::Call(_, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Cond(c, t, e) => 1 + c.size() + t.size() + e.size(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(v) => write!(f, "{v}"),
            Expr::Var(name) => write!(f, "{name}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(!{e})"),
            Expr::Binary(op, l, r) => write!(f, "({l}{}{r})", op.symbol()),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Cond(c, t, e) => write!(f, "({c}?{t}:{e})"),
        }
    }
}

/// A statement in the model body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = expr;` — `lhs` may be a plain name, `X_init`, or `diff_X`.
    Assign {
        /// Assigned name as written (`u1`, `u1_init`, `diff_u1`, …).
        lhs: String,
        /// Right-hand side.
        expr: Expr,
        /// Source line for diagnostics.
        line: usize,
    },
    /// `if (cond) { … } else { … }`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements of the then branch.
        then_body: Vec<Stmt>,
        /// Statements of the else branch (empty when absent).
        else_body: Vec<Stmt>,
        /// Source line for diagnostics.
        line: usize,
    },
}

impl Stmt {
    /// Names assigned by this statement (recursively for `if`).
    pub fn assigned_names(&self, out: &mut Vec<String>) {
        self.for_each_assigned(&mut |n| out.push(n.to_owned()));
    }

    /// Names read by this statement (recursively for `if`).
    pub fn read_names(&self, out: &mut Vec<String>) {
        self.for_each_read(&mut |n| out.push(n.to_owned()));
    }

    /// Calls `f` on every name [`Stmt::assigned_names`] lists, in order.
    pub(crate) fn for_each_assigned<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Stmt::Assign { lhs, .. } => f(lhs),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.for_each_assigned(f);
                }
            }
        }
    }

    /// Calls `f` on every name [`Stmt::read_names`] lists, in order.
    pub(crate) fn for_each_read<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Stmt::Assign { expr, .. } => expr.for_each_var(f),
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                cond.for_each_var(f);
                for s in then_body.iter().chain(else_body) {
                    s.for_each_read(f);
                }
            }
        }
    }
}

/// A markup applied to a variable or group, e.g. `.external()` or
/// `.lookup(-100, 100, 0.05)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Markup {
    /// Markup name (`external`, `nodal`, `param`, `lookup`, `method`,
    /// `units`, …).
    pub name: String,
    /// Arguments: numbers or identifiers.
    pub args: Vec<MarkupArg>,
    /// Source line for diagnostics.
    pub line: usize,
}

/// One markup argument.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkupArg {
    /// A numeric argument, e.g. the bounds of `.lookup()`.
    Num(f64),
    /// An identifier argument, e.g. the integrator of `.method(rk2)`.
    Ident(String),
}

impl MarkupArg {
    /// The numeric payload, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            MarkupArg::Num(v) => Some(*v),
            MarkupArg::Ident(_) => None,
        }
    }

    /// The identifier payload, if any.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            MarkupArg::Ident(s) => Some(s),
            MarkupArg::Num(_) => None,
        }
    }
}

/// A group member: a bare name or `name = default`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupItem {
    /// Member variable name.
    pub name: String,
    /// Optional default value expression (used by `.param()` groups).
    pub default: Option<Expr>,
}

/// A top-level item of a model file.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A bare declaration `X;` optionally followed by markups.
    Decl {
        /// Declared variable.
        name: String,
        /// Attached markups (from inline chain and following `.m();` lines).
        markups: Vec<Markup>,
        /// Source line.
        line: usize,
    },
    /// `group { a; b = 1; } .markup();`
    Group {
        /// Group members.
        items: Vec<GroupItem>,
        /// Attached markups.
        markups: Vec<Markup>,
        /// Source line.
        line: usize,
    },
    /// A body statement (assignment or `if`).
    Stmt(Stmt),
}

/// A parsed EasyML model file.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAst {
    /// Model name (from the file name or caller).
    pub name: String,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_vars_in_order() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::Var("u1".into()), Expr::Var("u3".into())),
            Expr::Call("cube".into(), vec![Expr::Var("u2".into())]),
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec!["u1", "u3", "u2"]);
        assert!(e.references("u2"));
        assert!(!e.references("Vm"));
    }

    #[test]
    fn expr_size() {
        let e = Expr::bin(BinOp::Add, Expr::Num(1.0), Expr::Var("x".into()));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn stmt_assigned_and_read_names() {
        let s = Stmt::If {
            cond: Expr::Var("c".into()),
            then_body: vec![Stmt::Assign {
                lhs: "a".into(),
                expr: Expr::Var("x".into()),
                line: 1,
            }],
            else_body: vec![Stmt::Assign {
                lhs: "b".into(),
                expr: Expr::Var("y".into()),
                line: 2,
            }],
            line: 1,
        };
        let mut assigned = Vec::new();
        s.assigned_names(&mut assigned);
        assert_eq!(assigned, vec!["a", "b"]);
        let mut read = Vec::new();
        s.read_names(&mut read);
        assert_eq!(read, vec!["c", "x", "y"]);
    }

    #[test]
    fn display_round_trips_shape() {
        let e = Expr::Cond(
            Box::new(Expr::bin(BinOp::Lt, Expr::Var("x".into()), Expr::Num(0.0))),
            Box::new(Expr::Unary(UnOp::Neg, Box::new(Expr::Var("x".into())))),
            Box::new(Expr::Var("x".into())),
        );
        assert_eq!(e.to_string(), "((x<0)?(-x):x)");
    }

    #[test]
    fn bool_op_classification() {
        assert!(BinOp::Lt.is_boolean());
        assert!(BinOp::And.is_boolean());
        assert!(!BinOp::Add.is_boolean());
    }
}
