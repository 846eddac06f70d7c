//! The register bytecode and its compiler from IR.
//!
//! The bytecode plays the role of the machine code a real MLIR → LLVM
//! pipeline would emit: a flat instruction list over three register files
//! (`W`-lane floats, `W`-lane booleans, scalar integers). Structured
//! control flow compiles to conditional jumps — which only uniform
//! (lane-invariant) conditions may feed, exactly the constraint that makes
//! the vectorizer if-convert varying `scf.if` into selects.

use limpet_ir::{CmpFPred, CmpIPred, Func, MathFn, Module, OpKind, RegionId, Type, ValueId};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Binary float operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FBin {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

/// Binary boolean operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BBin {
    And,
    Or,
    Xor,
}

/// Binary integer operations (uniform registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IBin {
    Add,
    Sub,
    Mul,
}

/// How an [`Instr::LutRow`] interpolates between table rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LutInterp {
    /// Linear, as branch-free lane loops — the paper's vectorized
    /// `LUT_interpRow_n_elements_vec`.
    Vec,
    /// Linear, through one opaque call per lane and row — openCARP's
    /// scalar `LUT_interpRow` (the baseline path).
    Scalar,
    /// Catmull-Rom cubic (the paper's future-work spline variant):
    /// four-row stencil, third-order accurate.
    Cubic,
}

/// The `|b|` at and below which a Rush-Larsen gate update takes the
/// forward-Euler step instead (its `a/b` would blow up): the constant
/// `codegen::lower::rl_step` compares against, and the one an
/// [`Instr::RushLarsen`] builds in.
pub const RUSH_LARSEN_GUARD: f64 = 1e-12;

/// One bytecode instruction. Register operands index the float (`f`),
/// boolean (`b`), or integer (`i`) register file as indicated per field.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Instr {
    /// `f[dst] = splat(v)`
    ConstF { dst: u16, v: f64 },
    /// `i[dst] = v`
    ConstI { dst: u16, v: i64 },
    /// `b[dst] = splat(v)`
    ConstB { dst: u16, v: bool },
    /// `f[dst] = f[src]`
    MovF { dst: u16, src: u16 },
    /// `b[dst] = b[src]`
    MovB { dst: u16, src: u16 },
    /// `i[dst] = i[src]`
    MovI { dst: u16, src: u16 },
    /// `f[dst] = splat(params[idx])`
    LoadParam { dst: u16, idx: u16 },
    /// `f[dst] = splat(dt)`
    LoadDt { dst: u16 },
    /// `f[dst] = splat(t)`
    LoadTime { dst: u16 },
    /// `i[dst] = cell0 (base index of the chunk)`
    CellIndex { dst: u16 },
    /// `f[dst][lane] = state[cell0+lane][var]`
    LoadState { dst: u16, var: u16 },
    /// `state[cell0+lane][var] = f[src][lane]`
    StoreState { src: u16, var: u16 },
    /// `f[dst][lane] = ext[var][cell0+lane]`
    LoadExt { dst: u16, var: u16 },
    /// `ext[var][cell0+lane] = f[src][lane]`
    StoreExt { src: u16, var: u16 },
    /// `b[dst] = splat(parent attached?)`
    HasParent { dst: u16 },
    /// `f[dst] = parent ? parent_state[var] : f[fallback]`
    LoadParentState { dst: u16, var: u16, fallback: u16 },
    /// `parent_state[var] = f[src] (no-op without parent)`
    StoreParentState { src: u16, var: u16 },
    /// `f[dst] = f[a] ⊕ f[b]`
    BinF { op: FBin, dst: u16, a: u16, b: u16 },
    /// `f[dst] = f[a] ⊕ splat(k)` — constant right operand, one register
    /// read fewer than [`Instr::BinF`] (optimizer-only; the compiler never
    /// emits it).
    BinFK { op: FBin, dst: u16, a: u16, k: f64 },
    /// `f[dst] = splat(k) ⊕ f[a]` — constant left operand, for
    /// non-commutative ops like `1.0 - x` (optimizer-only).
    BinKF { op: FBin, dst: u16, k: f64, a: u16 },
    /// `f[dst][lane] = state[cell0+lane][var] ⊕ f[b][lane]` — fused
    /// load-op (optimizer-only).
    LoadStateOp {
        op: FBin,
        dst: u16,
        var: u16,
        b: u16,
    },
    /// `f[dst][lane] = ext[var][cell0+lane] ⊕ f[b][lane]` — fused
    /// load-op (optimizer-only).
    LoadExtOp {
        op: FBin,
        dst: u16,
        var: u16,
        b: u16,
    },
    /// `f[dst] = -f[a]`
    NegF { dst: u16, a: u16 },
    /// `f[dst] = f[a]*f[b] + f[c]`
    FmaF { dst: u16, a: u16, b: u16, c: u16 },
    /// `f[dst] = fn(f[a])`
    Math1 { f: MathFn, dst: u16, a: u16 },
    /// `f[dst] = fn(f[a], f[b])`
    Math2 { f: MathFn, dst: u16, a: u16, b: u16 },
    /// `b[dst] = f[a] cmp f[b]`
    CmpF {
        pred: CmpFPred,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// `b[dst] = splat(i[a] cmp i[b])`
    CmpI {
        pred: CmpIPred,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// `b[dst] = b[a] ⊕ b[b]`
    BinB { op: BBin, dst: u16, a: u16, b: u16 },
    /// `f[dst] = b[cond] ? f[a] : f[b] (per lane)`
    SelectF { dst: u16, cond: u16, a: u16, b: u16 },
    /// `b[dst] = b[cond] ? b[a] : b[b] (per lane)`
    SelectB { dst: u16, cond: u16, a: u16, b: u16 },
    /// `f[dst] = splat(i[a] as f64)`
    SIToFP { dst: u16, a: u16 },
    /// `i[dst] = i[a] ⊕ i[b]`
    BinI { op: IBin, dst: u16, a: u16, b: u16 },
    /// `f[dst][lane] = interp(luts[table], col, f[key][lane])` for every
    /// `(col, dst)` of `outs`: one row lookup — clamp, row index and
    /// fraction computed once per lane — feeding every column the region
    /// reads at that key (paper §3.4.2; a single-column lookup is a row
    /// of one). No `dst` repeats or equals `key`.
    LutRow {
        table: u16,
        key: u16,
        interp: LutInterp,
        outs: Box<[(u16, u16)]>,
    },
    /// One Rush-Larsen gate update (`codegen::lower::rl_step`), per lane:
    /// `f[dst] = |f[b]| > 1e-12 ? f[x]·e + (f[a]/f[b])·(e − 1) : f[x] +
    /// f[diff]·f[dt]` with `e = exp(f[b]·f[dt])` — the float operations of
    /// the instructions it replaces, in their order (optimizer-only; the
    /// guard is [`RUSH_LARSEN_GUARD`]).
    RushLarsen {
        dst: u16,
        x: u16,
        a: u16,
        b: u16,
        dt: u16,
        diff: u16,
    },
    /// Unconditional jump to instruction index.
    Jump { target: u32 },
    /// `Jump when lane 0 of b[cond] is false (uniform conditions only).`
    JumpIfNot { cond: u16, target: u32 },
    /// End of kernel.
    Ret,
}

/// A compilation error (unsupported or malformed IR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode compilation error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// Register classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    F,
    B,
    I,
}

/// The compiled program plus register-file sizes and symbol tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Instructions; entry at index 0, ends with [`Instr::Ret`].
    pub instrs: Vec<Instr>,
    /// Float registers used.
    pub n_fregs: usize,
    /// Boolean registers used.
    pub n_bregs: usize,
    /// Integer registers used.
    pub n_iregs: usize,
    /// Distinct state variable names, indexed by `var` fields.
    pub state_vars: Vec<String>,
    /// Distinct external variable names, indexed by `var` fields.
    pub ext_vars: Vec<String>,
    /// Distinct parameter names, indexed by `idx` fields.
    pub params: Vec<String>,
    /// Distinct LUT table names, indexed by `table` fields.
    pub lut_tables: Vec<String>,
    /// Distinct parent state names, indexed by parent `var` fields.
    pub parent_vars: Vec<String>,
}

impl Program {
    /// Disassembles the program into a human-readable listing, one
    /// instruction per line with resolved symbol names.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let state = |i: u16| {
            self.state_vars
                .get(i as usize)
                .map(String::as_str)
                .unwrap_or("?")
        };
        let ext = |i: u16| {
            self.ext_vars
                .get(i as usize)
                .map(String::as_str)
                .unwrap_or("?")
        };
        for (pc, instr) in self.instrs.iter().enumerate() {
            write!(out, "{pc:4}: ").unwrap();
            match instr {
                Instr::ConstF { dst, v } => writeln!(out, "f{dst} = const {v}"),
                Instr::ConstI { dst, v } => writeln!(out, "i{dst} = const {v}"),
                Instr::ConstB { dst, v } => writeln!(out, "b{dst} = const {v}"),
                Instr::MovF { dst, src } => writeln!(out, "f{dst} = f{src}"),
                Instr::MovB { dst, src } => writeln!(out, "b{dst} = b{src}"),
                Instr::MovI { dst, src } => writeln!(out, "i{dst} = i{src}"),
                Instr::LoadParam { dst, idx } => writeln!(
                    out,
                    "f{dst} = param {}",
                    self.params
                        .get(*idx as usize)
                        .map(String::as_str)
                        .unwrap_or("?")
                ),
                Instr::LoadDt { dst } => writeln!(out, "f{dst} = dt"),
                Instr::LoadTime { dst } => writeln!(out, "f{dst} = t"),
                Instr::CellIndex { dst } => writeln!(out, "i{dst} = cell_index"),
                Instr::LoadState { dst, var } => {
                    writeln!(out, "f{dst} = load state.{}", state(*var))
                }
                Instr::StoreState { src, var } => {
                    writeln!(out, "store state.{} = f{src}", state(*var))
                }
                Instr::LoadExt { dst, var } => writeln!(out, "f{dst} = load ext.{}", ext(*var)),
                Instr::StoreExt { src, var } => writeln!(out, "store ext.{} = f{src}", ext(*var)),
                Instr::HasParent { dst } => writeln!(out, "b{dst} = has_parent"),
                Instr::LoadParentState { dst, var, fallback } => writeln!(
                    out,
                    "f{dst} = load parent.{} (fallback f{fallback})",
                    self.parent_vars
                        .get(*var as usize)
                        .map(String::as_str)
                        .unwrap_or("?")
                ),
                Instr::StoreParentState { src, var } => writeln!(
                    out,
                    "store parent.{} = f{src}",
                    self.parent_vars
                        .get(*var as usize)
                        .map(String::as_str)
                        .unwrap_or("?")
                ),
                Instr::BinF { op, dst, a, b } => {
                    writeln!(out, "f{dst} = {op:?}(f{a}, f{b})")
                }
                Instr::BinFK { op, dst, a, k } => {
                    writeln!(out, "f{dst} = {op:?}(f{a}, const {k})")
                }
                Instr::BinKF { op, dst, k, a } => {
                    writeln!(out, "f{dst} = {op:?}(const {k}, f{a})")
                }
                Instr::LoadStateOp { op, dst, var, b } => {
                    writeln!(out, "f{dst} = {op:?}(load state.{}, f{b})", state(*var))
                }
                Instr::LoadExtOp { op, dst, var, b } => {
                    writeln!(out, "f{dst} = {op:?}(load ext.{}, f{b})", ext(*var))
                }
                Instr::NegF { dst, a } => writeln!(out, "f{dst} = -f{a}"),
                Instr::FmaF { dst, a, b, c } => {
                    writeln!(out, "f{dst} = fma(f{a}, f{b}, f{c})")
                }
                Instr::Math1 { f, dst, a } => writeln!(out, "f{dst} = {}(f{a})", f.name()),
                Instr::Math2 { f, dst, a, b } => {
                    writeln!(out, "f{dst} = {}(f{a}, f{b})", f.name())
                }
                Instr::CmpF { pred, dst, a, b } => {
                    writeln!(out, "b{dst} = cmpf {} f{a}, f{b}", pred.name())
                }
                Instr::CmpI { pred, dst, a, b } => {
                    writeln!(out, "b{dst} = cmpi {} i{a}, i{b}", pred.name())
                }
                Instr::BinB { op, dst, a, b } => {
                    writeln!(out, "b{dst} = {op:?}(b{a}, b{b})")
                }
                Instr::SelectF { dst, cond, a, b } => {
                    writeln!(out, "f{dst} = b{cond} ? f{a} : f{b}")
                }
                Instr::SelectB { dst, cond, a, b } => {
                    writeln!(out, "b{dst} = b{cond} ? b{a} : b{b}")
                }
                Instr::SIToFP { dst, a } => writeln!(out, "f{dst} = (double)i{a}"),
                Instr::BinI { op, dst, a, b } => {
                    writeln!(out, "i{dst} = {op:?}(i{a}, i{b})")
                }
                Instr::LutRow {
                    table,
                    key,
                    interp,
                    outs,
                } => {
                    let cols: Vec<String> = outs
                        .iter()
                        .map(|(col, dst)| format!("f{dst}=[{col}]"))
                        .collect();
                    writeln!(
                        out,
                        "{} = lut_row.{} {}(f{key})",
                        cols.join(", "),
                        interp.as_str(),
                        self.lut_tables
                            .get(*table as usize)
                            .map(String::as_str)
                            .unwrap_or("?")
                    )
                }
                Instr::RushLarsen {
                    dst,
                    x,
                    a,
                    b,
                    dt,
                    diff,
                } => writeln!(
                    out,
                    "f{dst} = rush_larsen(x f{x}, a f{a}, b f{b}, dt f{dt}, diff f{diff})"
                ),
                Instr::Jump { target } => writeln!(out, "jump -> {target}"),
                Instr::JumpIfNot { cond, target } => {
                    writeln!(out, "jump_if_not b{cond} -> {target}")
                }
                Instr::Ret => writeln!(out, "ret"),
            }
            .unwrap();
        }
        out
    }
}

struct Compiler<'a> {
    func: &'a Func,
    instrs: Vec<Instr>,
    regs: HashMap<ValueId, (Class, u16)>,
    n: [u16; 3],
    state_vars: Vec<String>,
    ext_vars: Vec<String>,
    params: Vec<String>,
    lut_tables: Vec<String>,
    parent_vars: Vec<String>,
    /// `lut.col` ops already emitted as a column of an earlier op's row.
    in_row: HashSet<limpet_ir::OpId>,
    /// Preferred state/ext orderings (so indices match storage layout).
    state_order: &'a [String],
    ext_order: &'a [String],
    param_order: &'a [String],
}

/// Compiles the `compute` function of a module to bytecode.
///
/// `state_order`, `ext_order`, and `param_order` pin the variable indices
/// to the storage layout the harness allocates; variables the kernel
/// touches must appear there.
///
/// # Errors
///
/// Returns [`CompileError`] for IR the bytecode cannot express — most
/// importantly an `scf.if` whose condition is a multi-lane value (the
/// vectorizer must have if-converted those).
pub fn compile_program(
    module: &Module,
    state_order: &[String],
    ext_order: &[String],
    param_order: &[String],
) -> Result<Program, CompileError> {
    let func = module
        .func("compute")
        .ok_or_else(|| CompileError("module has no @compute".into()))?;
    let mut c = Compiler {
        func,
        instrs: Vec::new(),
        regs: HashMap::new(),
        n: [0, 0, 0],
        state_vars: state_order.to_vec(),
        ext_vars: ext_order.to_vec(),
        params: param_order.to_vec(),
        lut_tables: module.luts.iter().map(|l| l.name.clone()).collect(),
        parent_vars: Vec::new(),
        in_row: HashSet::new(),
        state_order,
        ext_order,
        param_order,
    };
    c.emit_region(func.body())?;
    c.instrs.push(Instr::Ret);
    Ok(Program {
        instrs: c.instrs,
        n_fregs: c.n[0] as usize,
        n_bregs: c.n[1] as usize,
        n_iregs: c.n[2] as usize,
        state_vars: c.state_vars,
        ext_vars: c.ext_vars,
        params: c.params,
        lut_tables: c.lut_tables,
        parent_vars: c.parent_vars,
    })
}

impl<'a> Compiler<'a> {
    fn class_of(&self, v: ValueId) -> Class {
        match self.func.value_type(v) {
            t if t.is_bool_like() => Class::B,
            Type::Scalar(s) if s.is_integer_like() => Class::I,
            _ => Class::F,
        }
    }

    fn alloc(&mut self, class: Class) -> u16 {
        let slot = match class {
            Class::F => 0,
            Class::B => 1,
            Class::I => 2,
        };
        let r = self.n[slot];
        self.n[slot] += 1;
        r
    }

    fn reg(&mut self, v: ValueId) -> u16 {
        if let Some(&(_, r)) = self.regs.get(&v) {
            return r;
        }
        let class = self.class_of(v);
        let r = self.alloc(class);
        self.regs.insert(v, (class, r));
        r
    }

    fn var_index(list: &mut Vec<String>, ordered: &[String], name: &str) -> u16 {
        if let Some(i) = list.iter().position(|n| n == name) {
            return i as u16;
        }
        // Not pre-registered (shouldn't happen when orders are complete);
        // append to keep compilation total.
        let _ = ordered;
        list.push(name.to_owned());
        (list.len() - 1) as u16
    }

    fn attr_var(&self, op: limpet_ir::OpId, key: &str) -> Result<String, CompileError> {
        self.func
            .op(op)
            .attrs
            .str_of(key)
            .map(str::to_owned)
            .ok_or_else(|| CompileError(format!("missing {key} attribute")))
    }

    fn emit_region(&mut self, region: RegionId) -> Result<(), CompileError> {
        let ops = self.func.region(region).ops.clone();
        for (i, &op_id) in ops.iter().enumerate() {
            self.emit_op(op_id, &ops[i + 1..])?;
        }
        Ok(())
    }

    /// `(table, interpolation mode, key, column)` of a `lut.col` op.
    fn lut_col(
        &self,
        op_id: limpet_ir::OpId,
    ) -> Result<(u16, LutInterp, ValueId, u16), CompileError> {
        let op = self.func.op(op_id);
        let table_name = op
            .attrs
            .str_of("table")
            .ok_or_else(|| CompileError("missing table attribute".into()))?;
        let table = self
            .lut_tables
            .iter()
            .position(|t| t == table_name)
            .ok_or_else(|| CompileError(format!("unknown lut table {table_name}")))?
            as u16;
        let col = op
            .attrs
            .i64_of("col")
            .ok_or_else(|| CompileError("lut.col missing col".into()))? as u16;
        let interp = if op.attrs.get("scalar_interp").and_then(|a| a.as_bool()) == Some(true) {
            LutInterp::Scalar
        } else if op.attrs.str_of("interp") == Some("cubic") {
            LutInterp::Cubic
        } else {
            LutInterp::Vec
        };
        Ok((table, interp, op.operands[0], col))
    }

    /// Emits one op; `rest` is what follows it in its region.
    fn emit_op(
        &mut self,
        op_id: limpet_ir::OpId,
        rest: &[limpet_ir::OpId],
    ) -> Result<(), CompileError> {
        let op = self.func.op(op_id).clone();
        let kind = op.kind.clone();
        match kind {
            OpKind::ConstantF(v) => {
                let dst = self.reg(op.result());
                self.instrs.push(Instr::ConstF { dst, v });
            }
            OpKind::ConstantInt(v) => {
                let dst = self.reg(op.result());
                self.instrs.push(Instr::ConstI { dst, v });
            }
            OpKind::ConstantBool(v) => {
                let dst = self.reg(op.result());
                self.instrs.push(Instr::ConstB { dst, v });
            }
            OpKind::AddF
            | OpKind::SubF
            | OpKind::MulF
            | OpKind::DivF
            | OpKind::RemF
            | OpKind::MinF
            | OpKind::MaxF => {
                let a = self.reg(op.operands[0]);
                let b = self.reg(op.operands[1]);
                let dst = self.reg(op.result());
                let fop = match kind {
                    OpKind::AddF => FBin::Add,
                    OpKind::SubF => FBin::Sub,
                    OpKind::MulF => FBin::Mul,
                    OpKind::DivF => FBin::Div,
                    OpKind::RemF => FBin::Rem,
                    OpKind::MinF => FBin::Min,
                    _ => FBin::Max,
                };
                self.instrs.push(Instr::BinF { op: fop, dst, a, b });
            }
            OpKind::NegF => {
                let a = self.reg(op.operands[0]);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::NegF { dst, a });
            }
            OpKind::Fma => {
                let a = self.reg(op.operands[0]);
                let b = self.reg(op.operands[1]);
                let c = self.reg(op.operands[2]);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::FmaF { dst, a, b, c });
            }
            OpKind::AddI | OpKind::SubI | OpKind::MulI => {
                let a = self.reg(op.operands[0]);
                let b = self.reg(op.operands[1]);
                let dst = self.reg(op.result());
                let iop = match kind {
                    OpKind::AddI => IBin::Add,
                    OpKind::SubI => IBin::Sub,
                    _ => IBin::Mul,
                };
                self.instrs.push(Instr::BinI { op: iop, dst, a, b });
            }
            OpKind::CmpF(pred) => {
                let a = self.reg(op.operands[0]);
                let b = self.reg(op.operands[1]);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::CmpF { pred, dst, a, b });
            }
            OpKind::CmpI(pred) => {
                let a = self.reg(op.operands[0]);
                let b = self.reg(op.operands[1]);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::CmpI { pred, dst, a, b });
            }
            OpKind::AndI | OpKind::OrI | OpKind::XorI => {
                let a = self.reg(op.operands[0]);
                let b = self.reg(op.operands[1]);
                let dst = self.reg(op.result());
                let bop = match kind {
                    OpKind::AndI => BBin::And,
                    OpKind::OrI => BBin::Or,
                    _ => BBin::Xor,
                };
                self.instrs.push(Instr::BinB { op: bop, dst, a, b });
            }
            OpKind::Select => {
                let cond = self.reg(op.operands[0]);
                let a = self.reg(op.operands[1]);
                let b = self.reg(op.operands[2]);
                let dst = self.reg(op.result());
                match self.class_of(op.result()) {
                    Class::B => self.instrs.push(Instr::SelectB { dst, cond, a, b }),
                    _ => self.instrs.push(Instr::SelectF { dst, cond, a, b }),
                }
            }
            OpKind::SIToFP => {
                let a = self.reg(op.operands[0]);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::SIToFP { dst, a });
            }
            OpKind::IndexCast => {
                let a = self.reg(op.operands[0]);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::MovI { dst, src: a });
            }
            OpKind::Math(f) => {
                let dst = self.reg(op.result());
                if f.arity() == 1 {
                    let a = self.reg(op.operands[0]);
                    self.instrs.push(Instr::Math1 { f, dst, a });
                } else {
                    let a = self.reg(op.operands[0]);
                    let b = self.reg(op.operands[1]);
                    self.instrs.push(Instr::Math2 { f, dst, a, b });
                }
            }
            OpKind::Broadcast => {
                let a = self.reg(op.operands[0]);
                let dst = self.reg(op.result());
                match self.class_of(op.result()) {
                    Class::B => self.instrs.push(Instr::MovB { dst, src: a }),
                    _ => self.instrs.push(Instr::MovF { dst, src: a }),
                }
            }
            OpKind::Param => {
                let name = self.attr_var(op_id, "name")?;
                let idx = Self::var_index(&mut self.params, self.param_order, &name);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::LoadParam { dst, idx });
            }
            OpKind::Dt => {
                let dst = self.reg(op.result());
                self.instrs.push(Instr::LoadDt { dst });
            }
            OpKind::Time => {
                let dst = self.reg(op.result());
                self.instrs.push(Instr::LoadTime { dst });
            }
            OpKind::CellIndex => {
                let dst = self.reg(op.result());
                self.instrs.push(Instr::CellIndex { dst });
            }
            OpKind::GetState => {
                let name = self.attr_var(op_id, "var")?;
                let var = Self::var_index(&mut self.state_vars, self.state_order, &name);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::LoadState { dst, var });
            }
            OpKind::SetState => {
                let name = self.attr_var(op_id, "var")?;
                let var = Self::var_index(&mut self.state_vars, self.state_order, &name);
                let src = self.reg(op.operands[0]);
                self.instrs.push(Instr::StoreState { src, var });
            }
            OpKind::GetExt => {
                let name = self.attr_var(op_id, "var")?;
                let var = Self::var_index(&mut self.ext_vars, self.ext_order, &name);
                let dst = self.reg(op.result());
                self.instrs.push(Instr::LoadExt { dst, var });
            }
            OpKind::SetExt => {
                let name = self.attr_var(op_id, "var")?;
                let var = Self::var_index(&mut self.ext_vars, self.ext_order, &name);
                let src = self.reg(op.operands[0]);
                self.instrs.push(Instr::StoreExt { src, var });
            }
            OpKind::HasParent => {
                let dst = self.reg(op.result());
                self.instrs.push(Instr::HasParent { dst });
            }
            OpKind::GetParentState => {
                let name = self.attr_var(op_id, "var")?;
                let var = Self::var_index(&mut self.parent_vars, &[], &name);
                let fallback = self.reg(op.operands[0]);
                let dst = self.reg(op.result());
                self.instrs
                    .push(Instr::LoadParentState { dst, var, fallback });
            }
            OpKind::SetParentState => {
                let name = self.attr_var(op_id, "var")?;
                let var = Self::var_index(&mut self.parent_vars, &[], &name);
                let src = self.reg(op.operands[0]);
                self.instrs.push(Instr::StoreParentState { src, var });
            }
            OpKind::LutCol => {
                if self.in_row.remove(&op_id) {
                    return Ok(());
                }
                // One row lookup serves every `lut.col` of this region
                // that reads the same table at the same key the same way,
                // in all three modes: index and fraction once per cell,
                // then the whole row — paper §3.4.2 for the vector modes,
                // openCARP's scalar `LUT_interpRow` for the baseline's.
                let (table, interp, key_val, col) = self.lut_col(op_id)?;
                let key = self.reg(key_val);
                let mut outs = vec![(col, self.reg(op.result()))];
                for &later in rest {
                    if self.func.op(later).kind != OpKind::LutCol {
                        continue;
                    }
                    let (t, i, k, col) = self.lut_col(later)?;
                    if (t, i, k) != (table, interp, key_val) {
                        continue;
                    }
                    self.in_row.insert(later);
                    outs.push((col, self.reg(self.func.op(later).result())));
                }
                self.instrs.push(Instr::LutRow {
                    table,
                    key,
                    interp,
                    outs: outs.into(),
                });
            }
            OpKind::If => {
                let cond_val = op.operands[0];
                if self.func.value_type(cond_val).lanes() != 1 {
                    return Err(CompileError(
                        "scf.if with a multi-lane condition reached the bytecode \
                         compiler; the vectorizer should have if-converted it"
                            .into(),
                    ));
                }
                let cond = self.reg(cond_val);
                // Result registers.
                let result_regs: Vec<u16> = op.results.iter().map(|&r| self.reg(r)).collect();
                let jump_to_else = self.instrs.len();
                self.instrs.push(Instr::JumpIfNot { cond, target: 0 });
                // then
                self.emit_branch(op.regions[0], &result_regs, &op.results)?;
                let jump_to_end = self.instrs.len();
                self.instrs.push(Instr::Jump { target: 0 });
                let else_start = self.instrs.len() as u32;
                self.emit_branch(op.regions[1], &result_regs, &op.results)?;
                let end = self.instrs.len() as u32;
                self.instrs[jump_to_else] = Instr::JumpIfNot {
                    cond,
                    target: else_start,
                };
                self.instrs[jump_to_end] = Instr::Jump { target: end };
            }
            OpKind::For => {
                let lb = self.reg(op.operands[0]);
                let ub = self.reg(op.operands[1]);
                let step = self.reg(op.operands[2]);
                let body = op.regions[0];
                let args = self.func.region(body).args.clone();
                // Induction register aliases the region's first argument.
                let iv = self.reg(args[0]);
                self.instrs.push(Instr::MovI { dst: iv, src: lb });
                // Iteration registers alias both the region args and the
                // loop results (copied through temps at the back edge).
                for (arg, init) in args[1..].iter().zip(&op.operands[3..]) {
                    let init_reg = self.reg(*init);
                    let arg_reg = self.reg(*arg);
                    self.push_mov(self.class_of(*arg), arg_reg, init_reg);
                }
                let loop_start = self.instrs.len() as u32;
                let cond = self.alloc(Class::B);
                self.instrs.push(Instr::CmpI {
                    pred: CmpIPred::Slt,
                    dst: cond,
                    a: iv,
                    b: ub,
                });
                let exit_jump = self.instrs.len();
                self.instrs.push(Instr::JumpIfNot { cond, target: 0 });
                // Body.
                let yields = self.emit_region_yields(body)?;
                // Copy yields to iteration registers through temporaries
                // (a yield may read a register about to be overwritten).
                let mut temps = Vec::with_capacity(yields.len());
                for &y in &yields {
                    let yr = self.reg(y);
                    let class = self.class_of(y);
                    let t = self.alloc(class);
                    self.push_mov(class, t, yr);
                    temps.push((class, t));
                }
                for ((class, t), arg) in temps.into_iter().zip(&args[1..]) {
                    let arg_reg = self.reg(*arg);
                    self.push_mov(class, arg_reg, t);
                }
                self.instrs.push(Instr::BinI {
                    op: IBin::Add,
                    dst: iv,
                    a: iv,
                    b: step,
                });
                self.instrs.push(Instr::Jump { target: loop_start });
                let end = self.instrs.len() as u32;
                self.instrs[exit_jump] = Instr::JumpIfNot { cond, target: end };
                // Results alias the iteration registers.
                for (res, arg) in op.results.iter().zip(&args[1..]) {
                    let arg_reg = self.reg(*arg);
                    let res_reg = self.reg(*res);
                    self.push_mov(self.class_of(*res), res_reg, arg_reg);
                }
            }
            OpKind::Yield => return Err(CompileError("scf.yield outside a handled region".into())),
            OpKind::Return => {}
        }
        Ok(())
    }

    fn push_mov(&mut self, class: Class, dst: u16, src: u16) {
        if dst == src {
            return;
        }
        match class {
            Class::F => self.instrs.push(Instr::MovF { dst, src }),
            Class::B => self.instrs.push(Instr::MovB { dst, src }),
            Class::I => self.instrs.push(Instr::MovI { dst, src }),
        }
    }

    /// Emits a branch region: its ops, then moves of its yield operands
    /// into the if's result registers.
    fn emit_branch(
        &mut self,
        region: RegionId,
        result_regs: &[u16],
        results: &[ValueId],
    ) -> Result<(), CompileError> {
        let yields = self.emit_region_yields(region)?;
        for ((&y, &dst), &res) in yields.iter().zip(result_regs).zip(results) {
            let src = self.reg(y);
            self.push_mov(self.class_of(res), dst, src);
        }
        Ok(())
    }

    /// Emits a region's ops (excluding the terminator) and returns the
    /// terminator's operands.
    fn emit_region_yields(&mut self, region: RegionId) -> Result<Vec<ValueId>, CompileError> {
        let ops = self.func.region(region).ops.clone();
        for (i, op_id) in ops.iter().enumerate() {
            let op = self.func.op(*op_id);
            if op.kind.is_terminator() {
                if i + 1 != ops.len() {
                    return Err(CompileError("terminator not last in region".into()));
                }
                return Ok(op.operands.clone());
            }
            self.emit_op(*op_id, &ops[i + 1..])?;
        }
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limpet_ir::{Builder, Module, Type};

    fn compile(build: impl FnOnce(&mut Builder<'_>)) -> Program {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        build(&mut b);
        m.add_func(f);
        compile_program(
            &m,
            &["x".into(), "y".into()],
            &["Vm".into()],
            &["Cm".into()],
        )
        .unwrap()
    }

    #[test]
    fn straight_line_compiles() {
        let p = compile(|b| {
            let x = b.get_state("x");
            let two = b.const_f(2.0);
            let y = b.mulf(x, two);
            b.set_state("y", y);
            b.ret(&[]);
        });
        assert_eq!(p.instrs.last(), Some(&Instr::Ret));
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::LoadState { var: 0, .. })));
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::StoreState { var: 1, .. })));
        assert_eq!(p.n_fregs, 3);
    }

    #[test]
    fn state_indices_follow_given_order() {
        let p = compile(|b| {
            let y = b.get_state("y");
            b.set_state("x", y);
            b.ret(&[]);
        });
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::LoadState { var: 1, .. })));
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::StoreState { var: 0, .. })));
        assert_eq!(p.state_vars, vec!["x", "y"]);
    }

    #[test]
    fn if_compiles_to_jumps() {
        let p = compile(|b| {
            let x = b.get_state("x");
            let z = b.const_f(0.0);
            let c = b.cmpf(limpet_ir::CmpFPred::Ogt, x, z);
            let r = b.if_op(
                c,
                &[Type::F64],
                |b| {
                    let v = b.const_f(1.0);
                    b.yield_(&[v]);
                },
                |b| {
                    let v = b.const_f(2.0);
                    b.yield_(&[v]);
                },
            );
            b.set_state("x", r[0]);
            b.ret(&[]);
        });
        let jumps = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Jump { .. } | Instr::JumpIfNot { .. }))
            .count();
        assert_eq!(jumps, 2);
        // Targets are in range.
        for i in &p.instrs {
            match i {
                Instr::Jump { target } | Instr::JumpIfNot { target, .. } => {
                    assert!((*target as usize) <= p.instrs.len());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn vector_if_condition_is_rejected() {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        {
            let body = f.body();
            let c = f.push_op(
                body,
                limpet_ir::OpKind::ConstantBool(true),
                vec![],
                &[Type::vector(4, limpet_ir::ScalarType::I1)],
                limpet_ir::Attrs::new(),
                vec![],
            );
            let cv = f.op(c).result();
            let then_r = f.new_region(&[]);
            let else_r = f.new_region(&[]);
            f.push_op(
                then_r,
                limpet_ir::OpKind::Yield,
                vec![],
                &[],
                limpet_ir::Attrs::new(),
                vec![],
            );
            f.push_op(
                else_r,
                limpet_ir::OpKind::Yield,
                vec![],
                &[],
                limpet_ir::Attrs::new(),
                vec![],
            );
            f.push_op(
                body,
                limpet_ir::OpKind::If,
                vec![cv],
                &[],
                limpet_ir::Attrs::new(),
                vec![then_r, else_r],
            );
            f.push_op(
                body,
                limpet_ir::OpKind::Return,
                vec![],
                &[],
                limpet_ir::Attrs::new(),
                vec![],
            );
        }
        m.add_func(f);
        let err = compile_program(&m, &[], &[], &[]).unwrap_err();
        assert!(err.0.contains("if-converted"));
    }

    #[test]
    fn for_loop_compiles_with_back_edge() {
        let p = compile(|b| {
            let lb = b.const_index(0);
            let ub = b.const_index(3);
            let st = b.const_index(1);
            let x0 = b.get_state("x");
            let r = b.for_op(lb, ub, st, &[x0], |b, _iv, iters| {
                let k = b.const_f(0.5);
                let n = b.mulf(iters[0], k);
                b.yield_(&[n]);
            });
            b.set_state("x", r[0]);
            b.ret(&[]);
        });
        // Contains a backward jump.
        let has_back_edge = p.instrs.iter().enumerate().any(|(i, ins)| match ins {
            Instr::Jump { target } => (*target as usize) < i,
            _ => false,
        });
        assert!(has_back_edge);
    }

    #[test]
    fn disassembly_is_readable() {
        let p = compile(|b| {
            let x = b.get_state("x");
            let two = b.const_f(2.0);
            let y = b.mulf(x, two);
            let e = b.exp(y);
            b.set_state("y", e);
            b.ret(&[]);
        });
        let d = p.disassemble();
        assert!(d.contains("load state.x"), "{d}");
        assert!(d.contains("Mul"), "{d}");
        assert!(d.contains("exp("), "{d}");
        assert!(d.contains("store state.y"), "{d}");
        assert!(d.trim_end().ends_with("ret"), "{d}");
        assert_eq!(d.lines().count(), p.instrs.len());
    }

    #[test]
    fn lut_cols_of_a_region_at_one_key_compile_to_one_row() {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        let k = b.get_ext("Vm");
        let c0 = b.lut_col("Vm", 0, k);
        let one = b.const_f(1.0);
        let k2 = b.addf(k, one);
        let other_key = b.lut_col("Vm", 0, k2);
        let c1 = b.lut_col("Vm", 1, k);
        let c0_again = b.lut_col("Vm", 0, k);
        let zero = b.const_f(0.0);
        let cond = b.cmpf(limpet_ir::CmpFPred::Ogt, one, zero);
        let nested = b.if_op(
            cond,
            &[Type::F64],
            |b| {
                let v = b.lut_col("Vm", 1, k);
                b.yield_(&[v]);
            },
            |b| {
                let v = b.const_f(2.0);
                b.yield_(&[v]);
            },
        );
        let mut sum = b.addf(c0, c1);
        for v in [other_key, c0_again, nested[0]] {
            sum = b.addf(sum, v);
        }
        b.set_state("x", sum);
        b.ret(&[]);
        m.add_func(f);
        m.luts.push(limpet_ir::LutSpec {
            name: "Vm".into(),
            lo: 0.0,
            hi: 1.0,
            step: 0.1,
            func: "lut_Vm".into(),
            cols: vec!["c0".into(), "c1".into()],
        });
        let p = compile_program(&m, &["x".into()], &["Vm".into()], &[]).unwrap();
        // (pc, key, columns) of every row lookup.
        let rows: Vec<_> = p
            .instrs
            .iter()
            .enumerate()
            .filter_map(|(pc, i)| match i {
                Instr::LutRow { key, outs, .. } => {
                    let cols: Vec<u16> = outs.iter().map(|&(col, _)| col).collect();
                    Some((pc, *key, cols))
                }
                _ => None,
            })
            .collect();
        // The row at `k` (both columns, and column 0 again for the op
        // that repeats it — the baseline pipeline runs no CSE), the row at
        // `k2`, and the nested region's own row.
        assert_eq!(rows.len(), 3, "{}", p.disassemble());
        let (first_pc, key, _) = rows[0];
        assert_eq!(rows[0].2, [0, 1, 0]);
        assert_ne!(rows[1].1, key);
        assert_eq!(rows[1].2, [0]);
        assert_eq!(rows[2].1, key, "the nested lookup reads the same key");
        assert_eq!(rows[2].2, [1]);
        // The row sits where its first `lut.col` was, after the key's def.
        assert!(matches!(p.instrs[first_pc - 1], Instr::LoadExt { .. }));
        // Marking one op cubic takes it out of the linear row.
        let f = m.func_mut("compute").unwrap();
        let (_, _, second) = f
            .walk_ops()
            .into_iter()
            .filter(|&(_, _, op)| f.op(op).kind == OpKind::LutCol)
            .nth(2)
            .unwrap();
        f.op_mut(second).attrs.set("interp", "cubic");
        let p = compile_program(&m, &["x".into()], &["Vm".into()], &[]).unwrap();
        let modes: Vec<(LutInterp, usize)> = p
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::LutRow { interp, outs, .. } => Some((*interp, outs.len())),
                _ => None,
            })
            .collect();
        assert_eq!(
            modes,
            [
                (LutInterp::Vec, 2),
                (LutInterp::Vec, 1),
                (LutInterp::Cubic, 1),
                (LutInterp::Vec, 1)
            ]
        );
    }

    #[test]
    fn lut_scalar_flag_selects_instruction() {
        let mut m = Module::new("t");
        let mut f = Func::new("compute", &[], &[]);
        let mut b = Builder::new(&mut f);
        let k = b.get_ext("Vm");
        let c0 = b.lut_col("Vm", 0, k);
        let c1 = b.lut_col("Vm", 1, k);
        let one = b.const_f(1.0);
        let k2 = b.addf(k, one);
        let other_key = b.lut_col("Vm", 1, k2);
        let v = b.addf(c0, c1);
        let v = b.addf(v, other_key);
        b.set_state("x", v);
        b.ret(&[]);
        m.add_func(f);
        m.luts.push(limpet_ir::LutSpec {
            name: "Vm".into(),
            lo: 0.0,
            hi: 1.0,
            step: 0.1,
            func: "lut_Vm".into(),
            cols: vec!["c0".into(), "c1".into()],
        });
        let rows = |p: &Program| -> Vec<(LutInterp, Vec<u16>)> {
            p.instrs
                .iter()
                .filter_map(|i| match i {
                    Instr::LutRow { interp, outs, .. } => {
                        Some((*interp, outs.iter().map(|&(col, _)| col).collect()))
                    }
                    _ => None,
                })
                .collect()
        };
        let p = compile_program(&m, &["x".into()], &["Vm".into()], &[]).unwrap();
        assert_eq!(
            rows(&p),
            [(LutInterp::Vec, vec![0, 1]), (LutInterp::Vec, vec![1])]
        );

        // Mark scalar and recompile.
        let f = m.func_mut("compute").unwrap();
        let targets: Vec<_> = f
            .walk_ops()
            .into_iter()
            .filter(|&(_, _, op)| f.op(op).kind == OpKind::LutCol)
            .map(|(_, _, op)| op)
            .collect();
        for t in targets {
            f.op_mut(t).attrs.set("scalar_interp", true);
        }
        // The baseline's lookups form rows by the same rule: the two columns
        // read at `k` are one row of two, the one at `k2` a row of its own.
        let p2 = compile_program(&m, &["x".into()], &["Vm".into()], &[]).unwrap();
        assert_eq!(
            rows(&p2),
            [
                (LutInterp::Scalar, vec![0, 1]),
                (LutInterp::Scalar, vec![1])
            ]
        );
    }
}
