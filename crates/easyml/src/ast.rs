//! The syntax of EasyML models, flat: a model's expressions are one vector
//! of nodes and its names one symbol table.
//!
//! The parser appends every expression node to an [`Exprs`] in post-order
//! — operands before their operator — and refers to a node by its
//! [`ExprId`]; every name (variables, called functions, markups) is
//! interned once, as a [`Sym`]. A statement holds the id of its
//! expression's root. Readers match on [`ExprRef`], the view of one node,
//! whose variants are the expression forms. A rewrite appends new nodes
//! ([`Exprs::map_children`]) and leaves the old ones as they are, so a
//! node's operands always precede it.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

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

/// The index of an expression node in its [`Exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The node's position in the vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned name: its index in the symbol table of an [`Exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The name's position in the table, for tables indexed by name.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node as stored: two words, so the node vector is flat data to
/// hash or compare. `head` holds the variant tag (its low byte), the
/// operator (the next byte) and the first operand (the high half); `tail`
/// the second and third operands, or a number's bits. A call's operands are
/// its name and its arguments `args[second..second + third]` of its
/// [`Exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    head: u64,
    tail: u64,
}

const NUM: u64 = 0;
const VAR: u64 = 1;
const UNARY: u64 = 2;
const BINARY: u64 = 3;
const CALL: u64 = 4;
const COND: u64 = 5;

/// The operators by their place in the enum, which is how a node stores
/// them.
const UNOPS: [UnOp; 2] = [UnOp::Neg, UnOp::Not];
const BINOPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::And,
    BinOp::Or,
];

impl Node {
    fn new(tag: u64, op: u64, first: u32, second: u32, third: u32) -> Node {
        Node {
            head: tag | op << 8 | u64::from(first) << 32,
            tail: u64::from(second) | u64::from(third) << 32,
        }
    }
}

/// One node of an [`Exprs`] as its readers see it: an EasyML expression
/// form, with the ids of its operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprRef<'m> {
    /// A numeric literal.
    Num(f64),
    /// A variable reference.
    Var(Sym),
    /// A unary application.
    Unary(UnOp, ExprId),
    /// A binary application.
    Binary(BinOp, ExprId, ExprId),
    /// A function call, e.g. `exp(x)`, `square(x)`, `pow(a, b)`.
    Call(Sym, &'m [ExprId]),
    /// A C ternary `cond ? then : else`.
    Cond(ExprId, ExprId, ExprId),
}

impl<'m> ExprRef<'m> {
    /// The operands' ids, left to right.
    pub fn operands(self) -> impl Iterator<Item = ExprId> + 'm {
        let (fixed, args): ([Option<ExprId>; 3], &'m [ExprId]) = match self {
            ExprRef::Num(_) | ExprRef::Var(_) => ([None; 3], &[]),
            ExprRef::Unary(_, e) => ([Some(e), None, None], &[]),
            ExprRef::Binary(_, l, r) => ([Some(l), Some(r), None], &[]),
            ExprRef::Call(_, args) => ([None; 3], args),
            ExprRef::Cond(c, t, e) => ([Some(c), Some(t), Some(e)], &[]),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }
}

/// A model's expressions and names: every node in one vector, the calls'
/// argument lists in a second, and every name once in a symbol table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exprs {
    nodes: Vec<Node>,
    args: Vec<ExprId>,
    names: Symbols,
}

impl Exprs {
    /// An empty table with room for `nodes` nodes.
    pub(crate) fn with_capacity(nodes: usize) -> Exprs {
        Exprs {
            nodes: Vec::with_capacity(nodes),
            ..Exprs::default()
        }
    }

    /// The node `id`.
    pub fn get(&self, id: ExprId) -> ExprRef<'_> {
        let Node { head, tail } = self.nodes[id.index()];
        let op = (head >> 8 & 0xff) as usize;
        let [first, second, third] = [head >> 32, tail & 0xffff_ffff, tail >> 32].map(|w| w as u32);
        match head & 0xff {
            NUM => ExprRef::Num(f64::from_bits(tail)),
            VAR => ExprRef::Var(Sym(first)),
            UNARY => ExprRef::Unary(UNOPS[op], ExprId(first)),
            BINARY => ExprRef::Binary(BINOPS[op], ExprId(first), ExprId(second)),
            CALL => {
                let args = &self.args[second as usize..(second + third) as usize];
                ExprRef::Call(Sym(first), args)
            }
            _ => ExprRef::Cond(ExprId(first), ExprId(second), ExprId(third)),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of names.
    pub fn names(&self) -> usize {
        self.names.ends.len()
    }

    /// The text of `name`.
    pub fn name(&self, name: Sym) -> &str {
        self.names.name(name)
    }

    /// The symbol of `name`, if it is interned.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.names.get(name)
    }

    /// The symbol of `name`, interning it if it is new.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.names.intern(name)
    }

    fn push(&mut self, node: Node) -> ExprId {
        self.nodes.push(node);
        ExprId(self.nodes.len() as u32 - 1)
    }

    /// Appends a numeric literal.
    pub fn num(&mut self, v: f64) -> ExprId {
        self.push(Node {
            head: NUM,
            tail: v.to_bits(),
        })
    }

    /// Appends a reference to `name`.
    pub fn var(&mut self, name: Sym) -> ExprId {
        self.push(Node::new(VAR, 0, name.0, 0, 0))
    }

    /// Appends `op e`.
    pub fn unary(&mut self, op: UnOp, e: ExprId) -> ExprId {
        self.push(Node::new(UNARY, op as u64, e.0, 0, 0))
    }

    /// Appends `l op r`.
    pub fn binary(&mut self, op: BinOp, l: ExprId, r: ExprId) -> ExprId {
        self.push(Node::new(BINARY, op as u64, l.0, r.0, 0))
    }

    /// Appends the call `name(args…)`.
    pub fn call(&mut self, name: Sym, args: &[ExprId]) -> ExprId {
        let start = self.args.len() as u32;
        self.args.extend_from_slice(args);
        self.push(Node::new(CALL, 0, name.0, start, args.len() as u32))
    }

    /// Appends `c ? t : e`.
    pub fn cond(&mut self, c: ExprId, t: ExprId, e: ExprId) -> ExprId {
        self.push(Node::new(COND, 0, c.0, t.0, e.0))
    }

    /// The node `id` with each operand replaced by `f` of it, left to right:
    /// `id` itself when `f` returns every operand unchanged, else a new
    /// node appended beside it.
    pub fn map_children(
        &mut self,
        id: ExprId,
        mut f: impl FnMut(&mut Exprs, ExprId) -> ExprId,
    ) -> ExprId {
        let Node { head, tail } = self.nodes[id.index()];
        let old = [head >> 32, tail & 0xffff_ffff, tail >> 32].map(|w| w as u32);
        if head & 0xff == CALL {
            let (start, len) = (old[1] as usize, old[2] as usize);
            let mut changed: Option<Vec<ExprId>> = None;
            for k in 0..len {
                let a = self.args[start + k];
                let a2 = f(self, a);
                if a2 != a && changed.is_none() {
                    changed = Some(self.args[start..start + k].to_vec());
                }
                if let Some(args) = &mut changed {
                    args.push(a2);
                }
            }
            return changed.map_or(id, |args| self.call(Sym(old[0]), &args));
        }
        let mut new = old;
        let operands = match head & 0xff {
            UNARY => 1,
            BINARY => 2,
            COND => 3,
            _ => 0,
        };
        for k in 0..operands {
            new[k] = f(self, ExprId(old[k])).0;
        }
        if new == old {
            id
        } else {
            self.push(Node::new(head & 0xffff, 0, new[0], new[1], new[2]))
        }
    }

    /// Calls `f` on every variable `id` reads, left to right, repeats
    /// included.
    pub fn for_each_var(&self, id: ExprId, f: &mut impl FnMut(Sym)) {
        match self.get(id) {
            ExprRef::Var(v) => f(v),
            e => e.operands().for_each(|o| self.for_each_var(o, f)),
        }
    }

    /// Whether `var` appears free in the expression `id`.
    pub fn references(&self, id: ExprId, var: Sym) -> bool {
        match self.get(id) {
            ExprRef::Var(v) => v == var,
            e => e.operands().any(|o| self.references(o, var)),
        }
    }

    /// Number of nodes of the expression `id`, a rough complexity measure.
    pub fn size(&self, id: ExprId) -> usize {
        1 + self.get(id).operands().map(|o| self.size(o)).sum::<usize>()
    }

    /// The expression `id` written as C, every operation parenthesized.
    pub fn display(&self, id: ExprId) -> Shown<'_> {
        Shown { exprs: self, id }
    }

    /// Calls `f` on the table as pairs of words: the lengths of its parts,
    /// then every node (two words each), the argument lists and the ends
    /// of the names four to a pair, and the names' text sixteen bytes to a
    /// pair, the last zero-padded. Two tables give the same words only when
    /// they hold the same nodes and the same names in the same order; a
    /// model's cache key hashes them.
    pub fn for_each_pair(&self, mut f: impl FnMut([u64; 2])) {
        let (ends, text) = (&self.names.ends, self.names.text.as_bytes());
        f([self.nodes.len() as u64, self.args.len() as u64]);
        f([ends.len() as u64, text.len() as u64]);
        for node in &self.nodes {
            f([node.head, node.tail]);
        }
        for q in self.args.chunks(4) {
            let at = |k: usize| q.get(k).map_or(0, |a| u64::from(a.0));
            f([at(0) | at(1) << 32, at(2) | at(3) << 32]);
        }
        for q in ends.chunks(4) {
            let at = |k: usize| q.get(k).map_or(0, |&end| u64::from(end));
            f([at(0) | at(1) << 32, at(2) | at(3) << 32]);
        }
        // Little-endian words, the last zero-padded.
        let word = |b: &[u8]| b.iter().rev().fold(0, |w, &x| w << 8 | u64::from(x));
        for p in text.chunks(16) {
            let (lo, hi) = p.split_at(p.len().min(8));
            f([word(lo), word(hi)]);
        }
    }
}

/// An expression written as C: [`Exprs::display`].
#[derive(Debug, Clone, Copy)]
pub struct Shown<'m> {
    exprs: &'m Exprs,
    id: ExprId,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let x = self.exprs;
        let show = |id| x.display(id);
        match x.get(self.id) {
            ExprRef::Num(v) => write!(f, "{v}"),
            ExprRef::Var(name) => f.write_str(x.name(name)),
            ExprRef::Unary(UnOp::Neg, e) => write!(f, "(-{})", show(e)),
            ExprRef::Unary(UnOp::Not, e) => write!(f, "(!{})", show(e)),
            ExprRef::Binary(op, l, r) => write!(f, "({}{}{})", show(l), op.symbol(), show(r)),
            ExprRef::Call(name, args) => {
                write!(f, "{}(", x.name(name))?;
                for (i, &a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", show(a))?;
                }
                write!(f, ")")
            }
            ExprRef::Cond(c, t, e) => write!(f, "({}?{}:{})", show(c), show(t), show(e)),
        }
    }
}

/// Interned names: their text back to back, where each one ends, and an
/// open-addressing index from text to symbol.
#[derive(Debug, Clone, Default)]
struct Symbols {
    text: String,
    ends: Vec<u32>,
    /// Symbol + 1 per slot, 0 when empty; a power of two long and at most
    /// half full.
    slots: Vec<u32>,
    /// The index's hash keys, random per table like a `HashMap`'s: the
    /// names come from sources a daemon accepts, which must not be able to
    /// pick names that all land in one run of slots.
    keys: Keys,
}

/// Random keys of a multiply-fold hash.
#[derive(Debug, Clone, Copy)]
struct Keys([u64; 2]);

impl Default for Keys {
    fn default() -> Keys {
        let random = RandomState::new();
        Keys([random.hash_one(0_u8), random.hash_one(1_u8) | 1])
    }
}

impl Keys {
    /// `name` eight bytes at a time: each word xor-ed in, then multiplied
    /// by the second key as 128 bits and the halves folded, so every bit
    /// of a word reaches every bit of the hash.
    fn hash(self, name: &str) -> u64 {
        let [seed, key] = self.0;
        let word = |b: &[u8]| b.iter().rev().fold(0, |w, &x| w << 8 | u64::from(x));
        name.as_bytes()
            .chunks(8)
            .fold(seed ^ name.len() as u64, |h, w| {
                let p = u128::from(h ^ word(w)) * u128::from(key);
                p as u64 ^ (p >> 64) as u64
            })
    }
}

/// The index follows from the names, so two tables with the same names in
/// the same order are equal.
impl PartialEq for Symbols {
    fn eq(&self, other: &Symbols) -> bool {
        self.text == other.text && self.ends == other.ends
    }
}

impl Symbols {
    fn name(&self, name: Sym) -> &str {
        &self.text[self.span(name)]
    }

    /// Where `name`'s text lies in `text`.
    fn span(&self, name: Sym) -> std::ops::Range<usize> {
        let at = name.index();
        let start = if at == 0 {
            0
        } else {
            self.ends[at - 1] as usize
        };
        start..self.ends[at] as usize
    }

    /// The slot holding `name`, or the empty one where it would go.
    fn slot(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.keys.hash(name) as usize & mask;
        loop {
            match self.slots[at] {
                0 => return at,
                s if self.text.as_bytes()[self.span(Sym(s - 1))] == *name.as_bytes() => return at,
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn get(&self, name: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.slot(name)].checked_sub(1).map(Sym)
    }

    fn intern(&mut self, name: &str) -> Sym {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            // Room for a model's names from the start: the roster's hold
            // about 110 each.
            self.slots = vec![0; (2 * self.slots.len()).max(256)];
            for s in 0..self.ends.len() as u32 {
                let at = self.slot(self.name(Sym(s)));
                self.slots[at] = s + 1;
            }
        }
        let at = self.slot(name);
        if let Some(s) = self.slots[at].checked_sub(1) {
            return Sym(s);
        }
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
        self.slots[at] = self.ends.len() as u32;
        Sym(self.ends.len() as u32 - 1)
    }
}

/// A statement in the model body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = expr;` — `lhs` may be a plain name, `X_init`, or `diff_X`.
    Assign {
        /// Assigned name as written (`u1`, `u1_init`, `diff_u1`, …).
        lhs: Sym,
        /// Root of the right-hand side.
        expr: ExprId,
        /// Source line for diagnostics.
        line: usize,
    },
    /// `if (cond) { … } else { … }`.
    If {
        /// Root of the branch condition.
        cond: ExprId,
        /// Statements of the then branch.
        then_body: Vec<Stmt>,
        /// Statements of the else branch (empty when absent).
        else_body: Vec<Stmt>,
        /// Source line for diagnostics.
        line: usize,
    },
}

impl Stmt {
    /// Calls `f` on every name this statement assigns (recursively for
    /// `if`), in order.
    pub fn for_each_assigned(&self, f: &mut impl FnMut(Sym)) {
        match self {
            Stmt::Assign { lhs, .. } => f(*lhs),
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

    /// Calls `f` on every name this statement reads (recursively for
    /// `if`), in order.
    pub fn for_each_read(&self, exprs: &Exprs, f: &mut impl FnMut(Sym)) {
        match self {
            Stmt::Assign { expr, .. } => exprs.for_each_var(*expr, f),
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                exprs.for_each_var(*cond, f);
                for s in then_body.iter().chain(else_body) {
                    s.for_each_read(exprs, f);
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
    pub name: Sym,
    /// Arguments: numbers or identifiers.
    pub args: Vec<MarkupArg>,
    /// Source line for diagnostics.
    pub line: usize,
}

/// One markup argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MarkupArg {
    /// A numeric argument, e.g. the bounds of `.lookup()`.
    Num(f64),
    /// An identifier argument, e.g. the integrator of `.method(rk2)`.
    Ident(Sym),
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
    pub fn as_ident(&self) -> Option<Sym> {
        match self {
            MarkupArg::Ident(s) => Some(*s),
            MarkupArg::Num(_) => None,
        }
    }
}

/// A group member: a bare name or `name = default`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupItem {
    /// Member variable name.
    pub name: Sym,
    /// Root of the optional default value (used by `.param()` groups).
    pub default: Option<ExprId>,
}

/// A top-level item of a model file.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A bare declaration `X;` optionally followed by markups.
    Decl {
        /// Declared variable.
        name: Sym,
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
    /// The items' expressions and names.
    pub exprs: Exprs,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(u1 + u3) * cube(u2)`.
    fn sample() -> (Exprs, ExprId) {
        let mut x = Exprs::default();
        let [u1, u3, u2, cube] = ["u1", "u3", "u2", "cube"].map(|n| x.intern(n));
        let (a, b) = (x.var(u1), x.var(u3));
        let sum = x.binary(BinOp::Add, a, b);
        let c = x.var(u2);
        let call = x.call(cube, &[c]);
        let root = x.binary(BinOp::Mul, sum, call);
        (x, root)
    }

    #[test]
    fn collect_vars_in_order() {
        let (x, root) = sample();
        let mut vars = Vec::new();
        x.for_each_var(root, &mut |v| vars.push(x.name(v).to_owned()));
        assert_eq!(vars, vec!["u1", "u3", "u2"]);
        assert!(x.references(root, x.sym("u2").unwrap()));
        assert!(x.sym("Vm").is_none());
    }

    #[test]
    fn expr_size() {
        let (x, root) = sample();
        assert_eq!(x.size(root), 6);
    }

    #[test]
    fn interning_gives_one_symbol_per_name() {
        let mut x = Exprs::default();
        let names: Vec<String> = (0..500).map(|i| format!("v{i}")).collect();
        let syms: Vec<Sym> = names.iter().map(|n| x.intern(n)).collect();
        for (n, &s) in names.iter().zip(&syms) {
            assert_eq!(x.intern(n), s);
            assert_eq!(x.sym(n), Some(s));
            assert_eq!(x.name(s), n);
        }
        assert_eq!(x.names(), 500);
        assert_eq!(x.intern(""), Sym(500));
        assert_eq!(x.name(Sym(500)), "");
    }

    #[test]
    fn map_children_appends_only_what_changed() {
        let (mut x, root) = sample();
        let n = x.len();
        assert_eq!(x.map_children(root, |_, c| c), root);
        assert_eq!(x.len(), n);
        let u2 = x.sym("u2").unwrap();
        let vm = x.intern("Vm");
        let swapped = swap_var(&mut x, root, u2, vm);
        assert_eq!(x.display(swapped).to_string(), "((u1+u3)*cube(Vm))");
        assert_eq!(x.display(root).to_string(), "((u1+u3)*cube(u2))");
        // The new `Vm`, `cube(Vm)` and root; `u1 + u3` is shared.
        assert_eq!(x.len(), n + 3);
    }

    fn swap_var(x: &mut Exprs, id: ExprId, from: Sym, to: Sym) -> ExprId {
        match x.get(id) {
            ExprRef::Var(v) if v == from => x.var(to),
            _ => x.map_children(id, |x, c| swap_var(x, c, from, to)),
        }
    }

    #[test]
    fn stmt_assigned_and_read_names() {
        let mut x = Exprs::default();
        let [a, b, c, vx, vy] = ["a", "b", "c", "x", "y"].map(|n| x.intern(n));
        let (ce, xe, ye) = (x.var(c), x.var(vx), x.var(vy));
        let s = Stmt::If {
            cond: ce,
            then_body: vec![Stmt::Assign {
                lhs: a,
                expr: xe,
                line: 1,
            }],
            else_body: vec![Stmt::Assign {
                lhs: b,
                expr: ye,
                line: 2,
            }],
            line: 1,
        };
        let mut assigned = Vec::new();
        s.for_each_assigned(&mut |n| assigned.push(x.name(n)));
        assert_eq!(assigned, vec!["a", "b"]);
        let mut read = Vec::new();
        s.for_each_read(&x, &mut |n| read.push(x.name(n)));
        assert_eq!(read, vec!["c", "x", "y"]);
    }

    #[test]
    fn display_round_trips_shape() {
        let mut x = Exprs::default();
        let v = x.intern("x");
        let (a, zero) = (x.var(v), x.num(0.0));
        let lt = x.binary(BinOp::Lt, a, zero);
        let b = x.var(v);
        let neg = x.unary(UnOp::Neg, b);
        let c = x.var(v);
        let root = x.cond(lt, neg, c);
        assert_eq!(x.display(root).to_string(), "((x<0)?(-x):x)");
    }

    #[test]
    fn words_see_every_name_and_node() {
        let words = |x: &Exprs| {
            let mut w = Vec::new();
            x.for_each_pair(|v| w.push(v));
            w
        };
        let (x, _) = sample();
        let mut renamed = Exprs::default();
        for n in ["u1", "u4", "u2", "cube"] {
            renamed.intern(n);
        }
        let mut same_names = renamed.clone();
        same_names.names = x.names.clone();
        renamed.nodes.clone_from(&x.nodes);
        renamed.args.clone_from(&x.args);
        same_names.nodes.clone_from(&x.nodes);
        same_names.args.clone_from(&x.args);
        assert_eq!(words(&same_names), words(&x));
        assert_ne!(words(&renamed), words(&x));
    }

    #[test]
    fn bool_op_classification() {
        assert!(BinOp::Lt.is_boolean());
        assert!(BinOp::And.is_boolean());
        assert!(!BinOp::Add.is_boolean());
    }
}
