//! Machine-readable textual serialization of compiled bytecode.
//!
//! The on-disk kernel cache (harness layer) persists compiled kernels
//! through this module and `limpet_ir::print_module` (the IR module). The
//! two bytecode programs are text — line-oriented and diffable, but exact:
//! every `f64` is written as the hex of its IEEE-754 bit pattern, so a
//! deserialized kernel computes bit-identical trajectories. The tabulated
//! lookup tables have two codecs: [`serialize_luts`] is the same readable
//! text (the export form, 2.1 bytes of hex per byte of table), and
//! [`encode_luts`] the byte form the cache stores (a text line per table,
//! then its values as they lie in memory, padded to start 8-aligned from
//! the start of the record). [`decode_luts`] reads that form in place: each
//! table's values stay in the record's bytes, which the tables hold.
//!
//! Each format carries a version stamp ([`BYTECODE_FORMAT_VERSION`] for
//! programs, one of its own for LUT payloads); readers reject any other
//! version, so a stale cache entry degrades to a recompile instead of
//! misinterpreting fields. Deserialization never panics on malformed
//! input — every structural defect comes back as an `Err` describing the
//! offending line.

use crate::bytecode::{BBin, FBin, IBin, Instr, LutInterp, Program};
use crate::lut::{LutBytes, LutData, Values};
use crate::optimize::{for_each_def, for_each_use, RegClass};
use limpet_ir::{CmpFPred, CmpIPred, MathFn};
use std::fmt::Write as _;
use std::ops::Range;

/// Version stamp of the textual bytecode format. Bump on any change to
/// the serialized shape, and also when `compile_program`/`optimize_program`
/// would emit a different program for the same module; readers reject
/// mismatched stamps so old cache entries are recompiled rather than misread
/// or run as the older program. Version 2 replaced the per-column
/// `lutvec`/`lutscalar`/`lutcubic` by `lutrow`; version 3 fuses scalar
/// lookups of one table at one key into one `lutrow`, as vector ones were;
/// version 4 adds `rushlarsen`, which the optimizer fuses every gate update
/// into.
pub const BYTECODE_FORMAT_VERSION: u32 = 4;

/// Version stamp of the textual LUT payload, which did not change when
/// the bytecode's did: the same tables still serialize to the same bytes.
const LUT_FORMAT_VERSION: u32 = 1;

impl FBin {
    /// Stable lowercase mnemonic used by the bytecode serializer.
    pub fn as_str(self) -> &'static str {
        match self {
            FBin::Add => "add",
            FBin::Sub => "sub",
            FBin::Mul => "mul",
            FBin::Div => "div",
            FBin::Rem => "rem",
            FBin::Min => "min",
            FBin::Max => "max",
        }
    }

    /// Parses a [`FBin::as_str`] mnemonic.
    pub fn parse(s: &str) -> Option<FBin> {
        [
            FBin::Add,
            FBin::Sub,
            FBin::Mul,
            FBin::Div,
            FBin::Rem,
            FBin::Min,
            FBin::Max,
        ]
        .into_iter()
        .find(|op| op.as_str() == s)
    }
}

impl BBin {
    /// Stable lowercase mnemonic used by the bytecode serializer.
    pub fn as_str(self) -> &'static str {
        match self {
            BBin::And => "and",
            BBin::Or => "or",
            BBin::Xor => "xor",
        }
    }

    /// Parses a [`BBin::as_str`] mnemonic.
    pub fn parse(s: &str) -> Option<BBin> {
        [BBin::And, BBin::Or, BBin::Xor]
            .into_iter()
            .find(|op| op.as_str() == s)
    }
}

impl IBin {
    /// Stable lowercase mnemonic used by the bytecode serializer.
    pub fn as_str(self) -> &'static str {
        match self {
            IBin::Add => "add",
            IBin::Sub => "sub",
            IBin::Mul => "mul",
        }
    }

    /// Parses an [`IBin::as_str`] mnemonic.
    pub fn parse(s: &str) -> Option<IBin> {
        [IBin::Add, IBin::Sub, IBin::Mul]
            .into_iter()
            .find(|op| op.as_str() == s)
    }
}

impl LutInterp {
    /// Stable lowercase mnemonic used by the bytecode serializer.
    pub fn as_str(self) -> &'static str {
        match self {
            LutInterp::Vec => "vec",
            LutInterp::Scalar => "scalar",
            LutInterp::Cubic => "cubic",
        }
    }

    /// Parses a [`LutInterp::as_str`] mnemonic.
    pub fn parse(s: &str) -> Option<LutInterp> {
        [LutInterp::Vec, LutInterp::Scalar, LutInterp::Cubic]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

/// An `f64` as the 16 hex digits of its bit pattern (exact round-trip,
/// NaN payloads included).
fn fbits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn write_symbols(out: &mut String, key: &str, names: &[String]) {
    write!(out, "{key} {}", names.len()).unwrap();
    for n in names {
        debug_assert!(
            !n.is_empty() && !n.chars().any(char::is_whitespace),
            "symbol '{n}' is not serializable"
        );
        write!(out, " {n}").unwrap();
    }
    out.push('\n');
}

/// Serializes a compiled program to the versioned textual format.
pub fn serialize_program(p: &Program) -> String {
    let mut out = String::new();
    writeln!(out, "program v{BYTECODE_FORMAT_VERSION}").unwrap();
    writeln!(out, "regs {} {} {}", p.n_fregs, p.n_bregs, p.n_iregs).unwrap();
    write_symbols(&mut out, "state", &p.state_vars);
    write_symbols(&mut out, "ext", &p.ext_vars);
    write_symbols(&mut out, "params", &p.params);
    write_symbols(&mut out, "luts", &p.lut_tables);
    write_symbols(&mut out, "parents", &p.parent_vars);
    writeln!(out, "instrs {}", p.instrs.len()).unwrap();
    for instr in &p.instrs {
        write_instr(&mut out, instr);
    }
    out
}

fn write_instr(out: &mut String, instr: &Instr) {
    match instr {
        Instr::ConstF { dst, v } => writeln!(out, "constf {dst} {}", fbits(*v)),
        Instr::ConstI { dst, v } => writeln!(out, "consti {dst} {v}"),
        Instr::ConstB { dst, v } => writeln!(out, "constb {dst} {}", u8::from(*v)),
        Instr::MovF { dst, src } => writeln!(out, "movf {dst} {src}"),
        Instr::MovB { dst, src } => writeln!(out, "movb {dst} {src}"),
        Instr::MovI { dst, src } => writeln!(out, "movi {dst} {src}"),
        Instr::LoadParam { dst, idx } => writeln!(out, "loadparam {dst} {idx}"),
        Instr::LoadDt { dst } => writeln!(out, "loaddt {dst}"),
        Instr::LoadTime { dst } => writeln!(out, "loadtime {dst}"),
        Instr::CellIndex { dst } => writeln!(out, "cellindex {dst}"),
        Instr::LoadState { dst, var } => writeln!(out, "loadstate {dst} {var}"),
        Instr::StoreState { src, var } => writeln!(out, "storestate {src} {var}"),
        Instr::LoadExt { dst, var } => writeln!(out, "loadext {dst} {var}"),
        Instr::StoreExt { src, var } => writeln!(out, "storeext {src} {var}"),
        Instr::HasParent { dst } => writeln!(out, "hasparent {dst}"),
        Instr::LoadParentState { dst, var, fallback } => {
            writeln!(out, "loadparentstate {dst} {var} {fallback}")
        }
        Instr::StoreParentState { src, var } => writeln!(out, "storeparentstate {src} {var}"),
        Instr::BinF { op, dst, a, b } => writeln!(out, "binf {} {dst} {a} {b}", op.as_str()),
        Instr::BinFK { op, dst, a, k } => {
            writeln!(out, "binfk {} {dst} {a} {}", op.as_str(), fbits(*k))
        }
        Instr::BinKF { op, dst, k, a } => {
            writeln!(out, "binkf {} {dst} {} {a}", op.as_str(), fbits(*k))
        }
        Instr::LoadStateOp { op, dst, var, b } => {
            writeln!(out, "loadstateop {} {dst} {var} {b}", op.as_str())
        }
        Instr::LoadExtOp { op, dst, var, b } => {
            writeln!(out, "loadextop {} {dst} {var} {b}", op.as_str())
        }
        Instr::NegF { dst, a } => writeln!(out, "negf {dst} {a}"),
        Instr::FmaF { dst, a, b, c } => writeln!(out, "fmaf {dst} {a} {b} {c}"),
        Instr::Math1 { f, dst, a } => writeln!(out, "math1 {} {dst} {a}", f.name()),
        Instr::Math2 { f, dst, a, b } => writeln!(out, "math2 {} {dst} {a} {b}", f.name()),
        Instr::CmpF { pred, dst, a, b } => writeln!(out, "cmpf {} {dst} {a} {b}", pred.name()),
        Instr::CmpI { pred, dst, a, b } => writeln!(out, "cmpi {} {dst} {a} {b}", pred.name()),
        Instr::BinB { op, dst, a, b } => writeln!(out, "binb {} {dst} {a} {b}", op.as_str()),
        Instr::SelectF { dst, cond, a, b } => writeln!(out, "selectf {dst} {cond} {a} {b}"),
        Instr::SelectB { dst, cond, a, b } => writeln!(out, "selectb {dst} {cond} {a} {b}"),
        Instr::SIToFP { dst, a } => writeln!(out, "sitofp {dst} {a}"),
        Instr::BinI { op, dst, a, b } => writeln!(out, "bini {} {dst} {a} {b}", op.as_str()),
        Instr::LutRow {
            table,
            key,
            interp,
            outs,
        } => {
            write!(
                out,
                "lutrow {table} {key} {} {}",
                interp.as_str(),
                outs.len()
            )
            .unwrap();
            for (col, dst) in outs.iter() {
                write!(out, " {col} {dst}").unwrap();
            }
            writeln!(out)
        }
        Instr::RushLarsen {
            dst,
            x,
            a,
            b,
            dt,
            diff,
        } => writeln!(out, "rushlarsen {dst} {x} {a} {b} {dt} {diff}"),
        Instr::Jump { target } => writeln!(out, "jump {target}"),
        Instr::JumpIfNot { cond, target } => writeln!(out, "jumpifnot {cond} {target}"),
        Instr::Ret => writeln!(out, "ret"),
    }
    .unwrap();
}

/// Whitespace-separated fields of one line, with positional error context.
struct Fields<'a> {
    it: std::str::SplitWhitespace<'a>,
    line_no: usize,
}

impl<'a> Fields<'a> {
    fn of(line: &'a str, line_no: usize) -> Fields<'a> {
        Fields {
            it: line.split_whitespace(),
            line_no,
        }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.it
            .next()
            .ok_or_else(|| format!("line {}: missing field", self.line_no))
    }

    fn u16(&mut self) -> Result<u16, String> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| format!("line {}: bad u16 '{t}'", self.line_no))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| format!("line {}: bad u32 '{t}'", self.line_no))
    }

    fn usize(&mut self) -> Result<usize, String> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| format!("line {}: bad count '{t}'", self.line_no))
    }

    fn i64(&mut self) -> Result<i64, String> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| format!("line {}: bad i64 '{t}'", self.line_no))
    }

    fn f64(&mut self) -> Result<f64, String> {
        let t = self.next()?;
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("line {}: bad f64 bits '{t}'", self.line_no))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.next()? {
            "0" => Ok(false),
            "1" => Ok(true),
            t => Err(format!("line {}: bad bool '{t}'", self.line_no)),
        }
    }

    fn fbin(&mut self) -> Result<FBin, String> {
        let t = self.next()?;
        FBin::parse(t).ok_or_else(|| format!("line {}: bad float op '{t}'", self.line_no))
    }

    fn bbin(&mut self) -> Result<BBin, String> {
        let t = self.next()?;
        BBin::parse(t).ok_or_else(|| format!("line {}: bad bool op '{t}'", self.line_no))
    }

    fn ibin(&mut self) -> Result<IBin, String> {
        let t = self.next()?;
        IBin::parse(t).ok_or_else(|| format!("line {}: bad int op '{t}'", self.line_no))
    }

    fn mathfn(&mut self) -> Result<MathFn, String> {
        let t = self.next()?;
        MathFn::parse(t).ok_or_else(|| format!("line {}: unknown math fn '{t}'", self.line_no))
    }

    fn lut_interp(&mut self) -> Result<LutInterp, String> {
        let t = self.next()?;
        LutInterp::parse(t).ok_or_else(|| format!("line {}: bad lut mode '{t}'", self.line_no))
    }

    fn cmpf(&mut self) -> Result<CmpFPred, String> {
        let t = self.next()?;
        CmpFPred::parse(t).ok_or_else(|| format!("line {}: bad cmpf pred '{t}'", self.line_no))
    }

    fn cmpi(&mut self) -> Result<CmpIPred, String> {
        let t = self.next()?;
        CmpIPred::parse(t).ok_or_else(|| format!("line {}: bad cmpi pred '{t}'", self.line_no))
    }

    fn done(mut self) -> Result<(), String> {
        match self.it.next() {
            Some(t) => Err(format!("line {}: trailing field '{t}'", self.line_no)),
            None => Ok(()),
        }
    }
}

/// Line iterator that skips blank lines and tracks 1-based line numbers.
struct LineCursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> LineCursor<'a> {
    fn of(text: &'a str) -> LineCursor<'a> {
        LineCursor {
            lines: text.lines().enumerate(),
        }
    }

    fn next(&mut self) -> Result<(usize, &'a str), String> {
        for (i, line) in self.lines.by_ref() {
            if !line.trim().is_empty() {
                return Ok((i + 1, line));
            }
        }
        Err("unexpected end of input".to_string())
    }
}

fn read_symbols(cur: &mut LineCursor<'_>, key: &str) -> Result<Vec<String>, String> {
    let (no, line) = cur.next()?;
    let mut f = Fields::of(line, no);
    let got = f.next()?;
    if got != key {
        return Err(format!("line {no}: expected '{key}' section, got '{got}'"));
    }
    let count = f.usize()?;
    let mut names = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        names.push(f.next()?.to_string());
    }
    f.done()?;
    Ok(names)
}

/// Deserializes a [`serialize_program`] payload.
///
/// # Errors
///
/// Returns a description of the first defect: version mismatch, missing
/// or malformed field, unknown mnemonic, a register file larger than
/// operands can address, or an out-of-range register, symbol or jump
/// index. Never panics on malformed input.
pub fn deserialize_program(text: &str) -> Result<Program, String> {
    let mut cur = LineCursor::of(text);
    let (no, header) = cur.next()?;
    let expect = format!("program v{BYTECODE_FORMAT_VERSION}");
    if header.trim() != expect {
        return Err(format!(
            "line {no}: unsupported bytecode format '{}' (expected '{expect}')",
            header.trim()
        ));
    }
    let (no, line) = cur.next()?;
    let mut f = Fields::of(line, no);
    if f.next()? != "regs" {
        return Err(format!("line {no}: expected 'regs' line"));
    }
    let (n_fregs, n_bregs, n_iregs) = (f.usize()?, f.usize()?, f.usize()?);
    f.done()?;
    let state_vars = read_symbols(&mut cur, "state")?;
    let ext_vars = read_symbols(&mut cur, "ext")?;
    let params = read_symbols(&mut cur, "params")?;
    let lut_tables = read_symbols(&mut cur, "luts")?;
    let parent_vars = read_symbols(&mut cur, "parents")?;
    let (no, line) = cur.next()?;
    let mut f = Fields::of(line, no);
    if f.next()? != "instrs" {
        return Err(format!("line {no}: expected 'instrs' line"));
    }
    let count = f.usize()?;
    f.done()?;
    let mut instrs = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let (no, line) = cur.next()?;
        instrs.push(read_instr(line, no)?);
    }
    let program = Program {
        instrs,
        n_fregs,
        n_bregs,
        n_iregs,
        state_vars,
        ext_vars,
        params,
        lut_tables,
        parent_vars,
    };
    validate(&program)?;
    Ok(program)
}

fn read_instr(line: &str, no: usize) -> Result<Instr, String> {
    let mut f = Fields::of(line, no);
    let mnemonic = f.next()?;
    let instr = match mnemonic {
        "constf" => Instr::ConstF {
            dst: f.u16()?,
            v: f.f64()?,
        },
        "consti" => Instr::ConstI {
            dst: f.u16()?,
            v: f.i64()?,
        },
        "constb" => Instr::ConstB {
            dst: f.u16()?,
            v: f.bool()?,
        },
        "movf" => Instr::MovF {
            dst: f.u16()?,
            src: f.u16()?,
        },
        "movb" => Instr::MovB {
            dst: f.u16()?,
            src: f.u16()?,
        },
        "movi" => Instr::MovI {
            dst: f.u16()?,
            src: f.u16()?,
        },
        "loadparam" => Instr::LoadParam {
            dst: f.u16()?,
            idx: f.u16()?,
        },
        "loaddt" => Instr::LoadDt { dst: f.u16()? },
        "loadtime" => Instr::LoadTime { dst: f.u16()? },
        "cellindex" => Instr::CellIndex { dst: f.u16()? },
        "loadstate" => Instr::LoadState {
            dst: f.u16()?,
            var: f.u16()?,
        },
        "storestate" => Instr::StoreState {
            src: f.u16()?,
            var: f.u16()?,
        },
        "loadext" => Instr::LoadExt {
            dst: f.u16()?,
            var: f.u16()?,
        },
        "storeext" => Instr::StoreExt {
            src: f.u16()?,
            var: f.u16()?,
        },
        "hasparent" => Instr::HasParent { dst: f.u16()? },
        "loadparentstate" => Instr::LoadParentState {
            dst: f.u16()?,
            var: f.u16()?,
            fallback: f.u16()?,
        },
        "storeparentstate" => Instr::StoreParentState {
            src: f.u16()?,
            var: f.u16()?,
        },
        "binf" => Instr::BinF {
            op: f.fbin()?,
            dst: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
        },
        "binfk" => Instr::BinFK {
            op: f.fbin()?,
            dst: f.u16()?,
            a: f.u16()?,
            k: f.f64()?,
        },
        "binkf" => {
            let op = f.fbin()?;
            let dst = f.u16()?;
            let k = f.f64()?;
            let a = f.u16()?;
            Instr::BinKF { op, dst, k, a }
        }
        "loadstateop" => Instr::LoadStateOp {
            op: f.fbin()?,
            dst: f.u16()?,
            var: f.u16()?,
            b: f.u16()?,
        },
        "loadextop" => Instr::LoadExtOp {
            op: f.fbin()?,
            dst: f.u16()?,
            var: f.u16()?,
            b: f.u16()?,
        },
        "negf" => Instr::NegF {
            dst: f.u16()?,
            a: f.u16()?,
        },
        "fmaf" => Instr::FmaF {
            dst: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
            c: f.u16()?,
        },
        "math1" => Instr::Math1 {
            f: f.mathfn()?,
            dst: f.u16()?,
            a: f.u16()?,
        },
        "math2" => Instr::Math2 {
            f: f.mathfn()?,
            dst: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
        },
        "cmpf" => Instr::CmpF {
            pred: f.cmpf()?,
            dst: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
        },
        "cmpi" => Instr::CmpI {
            pred: f.cmpi()?,
            dst: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
        },
        "binb" => Instr::BinB {
            op: f.bbin()?,
            dst: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
        },
        "selectf" => Instr::SelectF {
            dst: f.u16()?,
            cond: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
        },
        "selectb" => Instr::SelectB {
            dst: f.u16()?,
            cond: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
        },
        "sitofp" => Instr::SIToFP {
            dst: f.u16()?,
            a: f.u16()?,
        },
        "bini" => Instr::BinI {
            op: f.ibin()?,
            dst: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
        },
        "lutrow" => {
            let (table, key, interp) = (f.u16()?, f.u16()?, f.lut_interp()?);
            let count = f.usize()?;
            let mut outs = Vec::with_capacity(count.min(256));
            for _ in 0..count {
                outs.push((f.u16()?, f.u16()?));
            }
            Instr::LutRow {
                table,
                key,
                interp,
                outs: outs.into(),
            }
        }
        "rushlarsen" => Instr::RushLarsen {
            dst: f.u16()?,
            x: f.u16()?,
            a: f.u16()?,
            b: f.u16()?,
            dt: f.u16()?,
            diff: f.u16()?,
        },
        "jump" => Instr::Jump { target: f.u32()? },
        "jumpifnot" => Instr::JumpIfNot {
            cond: f.u16()?,
            target: f.u32()?,
        },
        "ret" => Instr::Ret,
        other => return Err(format!("line {no}: unknown mnemonic '{other}'")),
    };
    f.done()?;
    Ok(instr)
}

/// Registers a file can have at most: operands are `u16`. A larger count in
/// a `regs` line names registers nothing can address, and the engine sizes
/// its register file by it.
const MAX_REGS: usize = 1 << 16;

/// Structural validation of a deserialized program: every register operand
/// must lie inside its register file (and no file be larger than operands
/// can address), every symbol-indexed field must point inside its symbol
/// table, every jump target must stay inside the instruction list (`==`
/// length is the fall-off-the-end exit the compiler emits for loop back
/// edges), and a row lookup must write at least one register, each once,
/// none of them its key — the shape the compiler and optimizer guarantee, so
/// that a program that loads cannot index outside the engine's register
/// file. Column indices are checked against the tables themselves when a
/// kernel is assembled.
fn validate(p: &Program) -> Result<(), String> {
    let regs_of = |class: RegClass| match class {
        RegClass::F => ('f', p.n_fregs),
        RegClass::B => ('b', p.n_bregs),
        RegClass::I => ('i', p.n_iregs),
    };
    for (file, n) in [RegClass::F, RegClass::B, RegClass::I].map(regs_of) {
        if n > MAX_REGS {
            return Err(format!(
                "{n} '{file}' registers (operands address at most {MAX_REGS})"
            ));
        }
    }
    let in_table = |pc: usize, idx: u16, len: usize, what: &str| -> Result<(), String> {
        if (idx as usize) < len {
            Ok(())
        } else {
            Err(format!(
                "instr {pc}: {what} index {idx} out of range (table has {len})"
            ))
        }
    };
    for (pc, instr) in p.instrs.iter().enumerate() {
        let mut outside = None;
        let mut in_file = |class: RegClass, r: u16| {
            let (file, n) = regs_of(class);
            if r as usize >= n {
                outside.get_or_insert_with(|| {
                    format!("instr {pc}: register {file}{r} out of range (file has {n})")
                });
            }
        };
        for_each_def(instr, &mut in_file);
        for_each_use(instr, &mut in_file);
        if let Some(e) = outside {
            return Err(e);
        }
        match instr {
            Instr::LoadParam { idx, .. } => in_table(pc, *idx, p.params.len(), "param")?,
            Instr::LoadState { var, .. }
            | Instr::StoreState { var, .. }
            | Instr::LoadStateOp { var, .. } => {
                in_table(pc, *var, p.state_vars.len(), "state var")?
            }
            Instr::LoadExt { var, .. }
            | Instr::StoreExt { var, .. }
            | Instr::LoadExtOp { var, .. } => in_table(pc, *var, p.ext_vars.len(), "ext var")?,
            Instr::LoadParentState { var, .. } | Instr::StoreParentState { var, .. } => {
                in_table(pc, *var, p.parent_vars.len(), "parent var")?
            }
            Instr::LutRow {
                table, key, outs, ..
            } => {
                in_table(pc, *table, p.lut_tables.len(), "lut table")?;
                if outs.is_empty() {
                    return Err(format!("instr {pc}: lut row without columns"));
                }
                for (i, (_, dst)) in outs.iter().enumerate() {
                    if dst == key || outs[..i].iter().any(|(_, d)| d == dst) {
                        return Err(format!(
                            "instr {pc}: lut row writes f{dst} twice or over its key"
                        ));
                    }
                }
            }
            Instr::Jump { target } | Instr::JumpIfNot { target, .. }
                if *target as usize > p.instrs.len() =>
            {
                return Err(format!(
                    "instr {pc}: jump target {target} out of range ({})",
                    p.instrs.len()
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// The digits [`fbits`] prints, by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Values per line of LUT data: keeps entries diffable without blowing up
/// the line count for 4000-row tables.
const LUT_VALUES_PER_LINE: usize = 8;

/// Appends one line of LUT data — each value as [`fbits`] would print it,
/// space-separated — formatted in place on the stack: a roster's tables
/// are ~9 M values, and one heap `String` per value dominated the store.
fn push_lut_line(out: &mut String, values: &[f64]) {
    let mut line = [b' '; LUT_VALUES_PER_LINE * 17];
    for (cell, v) in line.chunks_exact_mut(17).zip(values) {
        let bits = v.to_bits();
        for (i, digit) in cell[..16].iter_mut().enumerate() {
            *digit = HEX_DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf];
        }
    }
    line[values.len() * 17 - 1] = b'\n';
    out.push_str(std::str::from_utf8(&line[..values.len() * 17]).expect("ASCII hex"));
}

/// Value of each lowercase hex digit; `0xff` for every other byte.
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Reads a line of exactly the shape [`push_lut_line`] writes: at most
/// `room` values of 16 lowercase hex digits, single spaces between them.
/// Anything else returns `false` with `data` untouched, and the caller
/// re-reads the line token by token.
fn read_lut_line(line: &str, room: usize, data: &mut Vec<f64>) -> bool {
    let bytes = line.as_bytes();
    if bytes.len() % 17 != 16 || bytes.len().div_ceil(17) > room {
        return false;
    }
    let start = data.len();
    for cell in bytes.chunks(17) {
        let (mut bits, mut seen) = (0u64, 0u8);
        for &c in &cell[..16] {
            let digit = HEX_VALUE[c as usize];
            seen |= digit;
            bits = bits << 4 | u64::from(digit & 0xf);
        }
        if seen > 0xf || cell.get(16).is_some_and(|&sep| sep != b' ') {
            data.truncate(start);
            return false;
        }
        data.push(f64::from_bits(bits));
    }
    true
}

/// Serializes a kernel's tabulated lookup tables (in program order).
pub fn serialize_luts(luts: &[LutData]) -> String {
    let values: usize = luts.iter().map(|l| l.data().len()).sum();
    let mut out = String::with_capacity(values * 17 + luts.len() * 96 + 32);
    writeln!(out, "luts v{LUT_FORMAT_VERSION} {}", luts.len()).unwrap();
    for lut in luts {
        writeln!(
            out,
            "lut {} {} {} {} {}",
            fbits(lut.lo()),
            fbits(lut.hi()),
            fbits(lut.step()),
            lut.rows(),
            lut.cols()
        )
        .unwrap();
        for chunk in lut.data().chunks(LUT_VALUES_PER_LINE) {
            push_lut_line(&mut out, chunk);
        }
    }
    out
}

/// Deserializes a [`serialize_luts`] payload.
///
/// # Errors
///
/// Returns a description of the first defect (version mismatch, malformed
/// header, short or inconsistent data). Never panics on malformed input.
pub fn deserialize_luts(text: &str) -> Result<Vec<LutData>, String> {
    let mut cur = LineCursor::of(text);
    let (no, header) = cur.next()?;
    let mut f = Fields::of(header, no);
    let expect = format!("v{LUT_FORMAT_VERSION}");
    if f.next()? != "luts" {
        return Err(format!("line {no}: expected 'luts' header"));
    }
    if f.next()? != expect {
        return Err(format!("line {no}: unsupported lut format version"));
    }
    let count = f.usize()?;
    f.done()?;
    let mut luts = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let (no, line) = cur.next()?;
        let mut f = Fields::of(line, no);
        if f.next()? != "lut" {
            return Err(format!("line {no}: expected 'lut' header"));
        }
        let (lo, hi, step) = (f.f64()?, f.f64()?, f.f64()?);
        let (rows, cols) = (f.usize()?, f.usize()?);
        f.done()?;
        let need = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("line {no}: lut dimensions overflow"))?;
        if need > (1 << 28) {
            return Err(format!("line {no}: lut implausibly large ({need} values)"));
        }
        let mut data = Vec::with_capacity(need);
        while data.len() < need {
            let (no, line) = cur.next()?;
            if read_lut_line(line, need - data.len(), &mut data) {
                continue;
            }
            for tok in line.split_whitespace() {
                if data.len() == need {
                    return Err(format!("line {no}: trailing lut data"));
                }
                let bits = u64::from_str_radix(tok, 16)
                    .map_err(|_| format!("line {no}: bad f64 bits '{tok}'"))?;
                data.push(f64::from_bits(bits));
            }
        }
        luts.push(LutData::from_raw(lo, hi, step, cols, data)?);
    }
    Ok(luts)
}

/// Last line of a [`encode_luts`] block.
const LUT_BLOCK_END: &[u8] = b"end\n";

/// The text line in front of one table's bytes in an [`encode_luts`] block.
fn lut_block_head(lut: &LutData) -> String {
    format!(
        "lut {} {} {} {} {}\n",
        fbits(lut.lo()),
        fbits(lut.hi()),
        fbits(lut.step()),
        lut.rows(),
        lut.cols()
    )
}

/// The zero bytes in front of values that would start at offset `at`, so
/// that they start at a multiple of 8.
fn lut_pad(at: usize) -> usize {
    at.wrapping_neg() % 8
}

/// How many bytes [`encode_luts`] appends for `luts` to a record of `at`
/// bytes, so that the record can state its length ahead of the block and
/// allocate once.
pub fn encoded_luts_len(luts: &[LutData], at: usize) -> usize {
    let mut end = at + format!("luts {}\n", luts.len()).len();
    for lut in luts {
        end += lut_block_head(lut).len();
        end += lut_pad(end) + lut.bytes() + 1;
    }
    end + LUT_BLOCK_END.len() - at
}

/// Appends a kernel's tabulated lookup tables (in program order) to `out`
/// in the byte form the disk cache stores: the values as they lie in
/// memory, not as text ([`serialize_luts`] is the readable export form),
/// each table's values padded with zero bytes to start at a multiple of 8
/// from the start of `out` — the record — so that a reader whose record
/// starts 8-aligned reads them in place ([`decode_luts`]).
///
/// ```text
/// luts <count>\n
/// lut <lo:016x> <hi:016x> <step:016x> <rows> <cols>\n     per table, then
/// <0-7 zero bytes, to an offset that is a multiple of 8>
/// <rows·cols·8 bytes: each value's bits, little-endian>\n
/// end\n
/// ```
pub fn encode_luts(luts: &[LutData], out: &mut Vec<u8>) {
    out.extend_from_slice(format!("luts {}\n", luts.len()).as_bytes());
    for lut in luts {
        out.extend_from_slice(lut_block_head(lut).as_bytes());
        let at = out.len() + lut_pad(out.len());
        out.resize(at + lut.bytes(), 0);
        for (dst, v) in out[at..].chunks_exact_mut(8).zip(lut.data()) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        out.push(b'\n');
    }
    out.extend_from_slice(LUT_BLOCK_END);
}

/// Splits the next `\n`-terminated text line off the front of `rest`.
fn take_block_line<'a>(rest: &mut &'a [u8], no: usize) -> Result<&'a str, String> {
    let nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| format!("line {no}: unexpected end of input"))?;
    let line =
        std::str::from_utf8(&rest[..nl]).map_err(|_| format!("line {no}: not UTF-8 text"))?;
    *rest = &rest[nl + 1..];
    Ok(line)
}

/// Decodes the [`encode_luts`] block that is `block` of `bytes`, a record
/// whose offsets the padding counts from. The tables' values stay where
/// they lie: each table reads them in place and holds `bytes`.
///
/// # Errors
///
/// Returns a description of the first defect: a malformed line (numbered
/// among the block's text lines), a table whose `rows × cols` values
/// overflow or exceed the bytes that are left — decided before anything is
/// read for them —, a non-zero pad byte, values that are not 8-aligned in
/// memory, a missing terminator, a table count that disagrees with the
/// tables present, a grid [`LutData::from_raw`] rejects, or bytes after
/// `end`. Never panics on malformed input.
pub fn decode_luts(bytes: &LutBytes, block: Range<usize>) -> Result<Vec<LutData>, String> {
    let all: &[u8] = (**bytes).as_ref();
    let mut rest = all
        .get(block.clone())
        .ok_or_else(|| format!("lut block {block:?} lies outside {} bytes", all.len()))?;
    let mut f = Fields::of(take_block_line(&mut rest, 1)?, 1);
    if f.next()? != "luts" {
        return Err("line 1: expected 'luts' header".to_string());
    }
    let count = f.usize()?;
    f.done()?;
    // Grown table by table: `count` is only believed as far as the bytes
    // bear it out.
    let mut luts = Vec::new();
    for table in 0..count {
        let no = table + 2;
        let mut f = Fields::of(take_block_line(&mut rest, no)?, no);
        if f.next()? != "lut" {
            return Err(format!("line {no}: expected 'lut' header"));
        }
        let (lo, hi, step) = (f.f64()?, f.f64()?, f.f64()?);
        let (rows, cols) = (f.usize()?, f.usize()?);
        f.done()?;
        let values = rows
            .checked_mul(cols)
            .filter(|values| values.checked_mul(8).is_some())
            .ok_or_else(|| format!("line {no}: lut dimensions overflow"))?;
        let pad = lut_pad(block.end - rest.len());
        if rest.len().saturating_sub(pad) <= values * 8 {
            return Err(format!(
                "line {no}: lut of {rows} x {cols} values is cut short ({} bytes left)",
                rest.len()
            ));
        }
        if rest[..pad].iter().any(|&b| b != 0) {
            return Err(format!(
                "line {no}: a non-zero pad byte before the lut values"
            ));
        }
        let at = block.end - rest.len() + pad;
        let data = Values::shared(bytes, at, values).map_err(|e| format!("line {no}: {e}"))?;
        rest = rest[pad + values * 8..]
            .strip_prefix(b"\n")
            .ok_or_else(|| format!("line {no}: lut data has a bad terminator"))?;
        luts.push(LutData::assemble(lo, hi, step, cols, data)?);
    }
    if rest != LUT_BLOCK_END {
        return Err(format!(
            "expected 'end' after {count} lut(s), found {} other bytes",
            rest.len()
        ));
    }
    Ok(luts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::same_luts;
    use std::sync::Arc;

    fn sample_program() -> Program {
        use limpet_ir::{CmpFPred, CmpIPred, MathFn};
        let instrs = vec![
            Instr::ConstF { dst: 0, v: -0.5 },
            Instr::ConstI { dst: 0, v: -3 },
            Instr::ConstB { dst: 0, v: true },
            Instr::MovF { dst: 1, src: 0 },
            Instr::MovB { dst: 1, src: 0 },
            Instr::MovI { dst: 1, src: 0 },
            Instr::LoadParam { dst: 2, idx: 0 },
            Instr::LoadDt { dst: 3 },
            Instr::LoadTime { dst: 4 },
            Instr::CellIndex { dst: 2 },
            Instr::LoadState { dst: 5, var: 0 },
            Instr::StoreState { src: 5, var: 1 },
            Instr::LoadExt { dst: 6, var: 0 },
            Instr::StoreExt { src: 6, var: 0 },
            Instr::HasParent { dst: 2 },
            Instr::LoadParentState {
                dst: 7,
                var: 0,
                fallback: 5,
            },
            Instr::StoreParentState { src: 7, var: 0 },
            Instr::BinF {
                op: FBin::Add,
                dst: 8,
                a: 0,
                b: 1,
            },
            Instr::BinFK {
                op: FBin::Mul,
                dst: 8,
                a: 8,
                k: 2.5,
            },
            Instr::BinKF {
                op: FBin::Sub,
                dst: 8,
                k: 1.0,
                a: 8,
            },
            Instr::LoadStateOp {
                op: FBin::Div,
                dst: 9,
                var: 0,
                b: 8,
            },
            Instr::LoadExtOp {
                op: FBin::Max,
                dst: 9,
                var: 0,
                b: 8,
            },
            Instr::NegF { dst: 9, a: 9 },
            Instr::FmaF {
                dst: 10,
                a: 8,
                b: 9,
                c: 0,
            },
            Instr::Math1 {
                f: MathFn::Exp,
                dst: 10,
                a: 10,
            },
            Instr::Math2 {
                f: MathFn::Pow,
                dst: 10,
                a: 10,
                b: 8,
            },
            Instr::CmpF {
                pred: CmpFPred::Ogt,
                dst: 3,
                a: 10,
                b: 8,
            },
            Instr::CmpI {
                pred: CmpIPred::Slt,
                dst: 4,
                a: 0,
                b: 1,
            },
            Instr::BinB {
                op: BBin::And,
                dst: 5,
                a: 3,
                b: 4,
            },
            Instr::SelectF {
                dst: 11,
                cond: 5,
                a: 10,
                b: 8,
            },
            Instr::SelectB {
                dst: 6,
                cond: 5,
                a: 3,
                b: 4,
            },
            Instr::SIToFP { dst: 11, a: 0 },
            Instr::BinI {
                op: IBin::Mul,
                dst: 3,
                a: 0,
                b: 1,
            },
            Instr::LutRow {
                table: 0,
                key: 11,
                interp: LutInterp::Vec,
                outs: [(0, 12), (1, 9), (0, 10)].into(),
            },
            Instr::LutRow {
                table: 0,
                key: 11,
                interp: LutInterp::Scalar,
                outs: [(1, 12)].into(),
            },
            Instr::LutRow {
                table: 0,
                key: 11,
                interp: LutInterp::Cubic,
                outs: [(0, 12)].into(),
            },
            Instr::RushLarsen {
                dst: 12,
                x: 0,
                a: 8,
                b: 9,
                dt: 3,
                diff: 10,
            },
            Instr::Jump { target: 39 },
            Instr::JumpIfNot {
                cond: 5,
                target: 39,
            },
            Instr::Ret,
        ];
        Program {
            instrs,
            n_fregs: 13,
            n_bregs: 7,
            n_iregs: 5,
            state_vars: vec!["x".into(), "y".into()],
            ext_vars: vec!["Vm".into()],
            params: vec!["Cm".into()],
            lut_tables: vec!["Vm".into()],
            parent_vars: vec!["V".into()],
        }
    }

    #[test]
    fn every_instr_variant_round_trips() {
        let p = sample_program();
        let text = serialize_program(&p);
        let q = deserialize_program(&text).expect("round trip");
        assert_eq!(p, q);
    }

    #[test]
    fn f64_constants_round_trip_bit_exactly() {
        for v in [
            0.1,
            -0.0,
            f64::MIN_POSITIVE,
            1e300,
            std::f64::consts::PI,
            f64::INFINITY,
        ] {
            let p = Program {
                instrs: vec![Instr::ConstF { dst: 0, v }, Instr::Ret],
                n_fregs: 1,
                n_bregs: 0,
                n_iregs: 0,
                state_vars: vec![],
                ext_vars: vec![],
                params: vec![],
                lut_tables: vec![],
                parent_vars: vec![],
            };
            let q = deserialize_program(&serialize_program(&p)).unwrap();
            match q.instrs[0] {
                Instr::ConstF { v: got, .. } => assert_eq!(got.to_bits(), v.to_bits()),
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let p = sample_program();
        let text = serialize_program(&p).replacen(
            &format!("program v{BYTECODE_FORMAT_VERSION}"),
            "program v999",
            1,
        );
        let err = deserialize_program(&text).unwrap_err();
        assert!(err.contains("unsupported bytecode format"), "{err}");
    }

    #[test]
    fn truncated_input_is_rejected_without_panic() {
        let text = serialize_program(&sample_program());
        for cut in [0, 10, text.len() / 2, text.len() - 2] {
            let _ = deserialize_program(&text[..cut]);
        }
        let half = &text[..text.len() / 2];
        assert!(deserialize_program(half).is_err());
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let mut p = sample_program();
        p.instrs.insert(0, Instr::LoadState { dst: 0, var: 99 });
        let err = deserialize_program(&serialize_program(&p)).unwrap_err();
        assert!(err.contains("state var index"), "{err}");

        let mut p = sample_program();
        p.instrs.insert(0, Instr::Jump { target: 9999 });
        let err = deserialize_program(&serialize_program(&p)).unwrap_err();
        assert!(err.contains("jump target"), "{err}");
    }

    /// Where each mnemonic's line holds register operands — the field's
    /// position after the mnemonic and its file — written out from the
    /// format, not derived from the walkers `validate` uses. A row lookup
    /// holds its key and, from field 5 on, every second field a destination.
    const REG_FIELDS: [(&str, &[(usize, char)]); 38] = [
        ("constf", &[(0, 'f')]),
        ("consti", &[(0, 'i')]),
        ("constb", &[(0, 'b')]),
        ("movf", &[(0, 'f'), (1, 'f')]),
        ("movb", &[(0, 'b'), (1, 'b')]),
        ("movi", &[(0, 'i'), (1, 'i')]),
        ("loadparam", &[(0, 'f')]),
        ("loaddt", &[(0, 'f')]),
        ("loadtime", &[(0, 'f')]),
        ("cellindex", &[(0, 'i')]),
        ("loadstate", &[(0, 'f')]),
        ("storestate", &[(0, 'f')]),
        ("loadext", &[(0, 'f')]),
        ("storeext", &[(0, 'f')]),
        ("hasparent", &[(0, 'b')]),
        ("loadparentstate", &[(0, 'f'), (2, 'f')]),
        ("storeparentstate", &[(0, 'f')]),
        ("binf", &[(1, 'f'), (2, 'f'), (3, 'f')]),
        ("binfk", &[(1, 'f'), (2, 'f')]),
        ("binkf", &[(1, 'f'), (3, 'f')]),
        ("loadstateop", &[(1, 'f'), (3, 'f')]),
        ("loadextop", &[(1, 'f'), (3, 'f')]),
        ("negf", &[(0, 'f'), (1, 'f')]),
        ("fmaf", &[(0, 'f'), (1, 'f'), (2, 'f'), (3, 'f')]),
        ("math1", &[(1, 'f'), (2, 'f')]),
        ("math2", &[(1, 'f'), (2, 'f'), (3, 'f')]),
        ("cmpf", &[(1, 'b'), (2, 'f'), (3, 'f')]),
        ("cmpi", &[(1, 'b'), (2, 'i'), (3, 'i')]),
        ("binb", &[(1, 'b'), (2, 'b'), (3, 'b')]),
        ("selectf", &[(0, 'f'), (1, 'b'), (2, 'f'), (3, 'f')]),
        ("selectb", &[(0, 'b'), (1, 'b'), (2, 'b'), (3, 'b')]),
        ("sitofp", &[(0, 'f'), (1, 'i')]),
        ("bini", &[(1, 'i'), (2, 'i'), (3, 'i')]),
        ("lutrow", &[(1, 'f'), (5, 'f'), (7, 'f'), (9, 'f')]),
        (
            "rushlarsen",
            &[(0, 'f'), (1, 'f'), (2, 'f'), (3, 'f'), (4, 'f'), (5, 'f')],
        ),
        ("jump", &[]),
        ("jumpifnot", &[(0, 'b')]),
        ("ret", &[]),
    ];

    #[test]
    fn every_register_field_of_every_variant_is_checked_against_its_file() {
        let p = sample_program();
        let text = serialize_program(&p);
        let lines: Vec<&str> = text.lines().collect();
        let first = lines.iter().position(|l| l.starts_with("instrs ")).unwrap() + 1;
        let mut seen = std::collections::BTreeSet::new();
        let mut forged = 0;
        for at in first..lines.len() {
            let tokens: Vec<&str> = lines[at].split(' ').collect();
            let (mnemonic, fields) = REG_FIELDS
                .iter()
                .find(|(m, _)| *m == tokens[0])
                .unwrap_or_else(|| panic!("no register fields listed for '{}'", tokens[0]));
            seen.insert(*mnemonic);
            // A row of one column has no field 7.
            for &(field, file) in fields.iter().filter(|(f, _)| f + 1 < tokens.len()) {
                // The first register past the end of its file.
                let count = match file {
                    'f' => p.n_fregs,
                    'b' => p.n_bregs,
                    _ => p.n_iregs,
                };
                let mut tokens = tokens.clone();
                let count = count.to_string();
                tokens[field + 1] = &count;
                let mut lines = lines.clone();
                let line = tokens.join(" ");
                lines[at] = &line;
                let err = deserialize_program(&(lines.join("\n") + "\n")).expect_err(&line);
                let want = format!("register {file}{count} out of range");
                assert!(err.contains(&want), "'{line}': {err}");
                forged += 1;
            }
        }
        assert_eq!(seen.len(), REG_FIELDS.len(), "the sample has every variant");
        assert_eq!(forged, 80, "register fields in the sample");
    }

    #[test]
    fn register_files_larger_than_operands_can_address_are_rejected() {
        // What the engine would size its register file by.
        let regs = |n: &str| {
            row_text("constf 0 0000000000000000").replacen("regs 4 ", &format!("regs {n} "), 1)
        };
        assert!(deserialize_program(&regs("65536")).is_ok());
        for n in ["65537", "1152921504606846976", "18446744073709551615"] {
            let err = deserialize_program(&regs(n)).expect_err(n);
            assert!(
                err.contains("registers (operands address at most 65536)"),
                "{n}: {err}"
            );
        }
        // And the register no file of one has.
        let err = deserialize_program(&row_text("binf add 500 0 0")).unwrap_err();
        assert!(
            err.contains("register f500 out of range (file has 4)"),
            "{err}"
        );
    }

    /// A program whose only computation is `row`.
    fn row_text(row: &str) -> String {
        let p = Program {
            instrs: vec![Instr::Ret],
            n_fregs: 4,
            n_bregs: 0,
            n_iregs: 0,
            state_vars: vec![],
            ext_vars: vec![],
            params: vec![],
            lut_tables: vec!["Vm".into()],
            parent_vars: vec![],
        };
        serialize_program(&p).replacen("instrs 1\n", &format!("instrs 2\n{row}\n"), 1)
    }

    #[test]
    fn lutrow_text_form_round_trips_and_rejects_malformed_rows() {
        let p = deserialize_program(&row_text("lutrow 0 0 cubic 3 2 1 0 2 2 3")).expect("valid");
        assert_eq!(
            p.instrs[0],
            Instr::LutRow {
                table: 0,
                key: 0,
                interp: LutInterp::Cubic,
                outs: [(2, 1), (0, 2), (2, 3)].into(),
            },
            "a column may repeat; order is kept"
        );
        assert!(serialize_program(&p).contains("\nlutrow 0 0 cubic 3 2 1 0 2 2 3\n"));

        for (row, why) in [
            ("lutrow 0 0 vec 0", "without columns"),
            ("lutrow 0 0 vec 2 0 1 1 1", "twice or over its key"),
            ("lutrow 0 0 vec 2 0 1 1 0", "twice or over its key"),
            ("lutrow 1 0 vec 1 0 1", "lut table index"),
            ("lutrow 0 0 vec 2 0 1", "missing field"),
            ("lutrow 0 0 vec 1 0 1 1 2", "trailing field"),
            ("lutrow 0 0 linear 1 0 1", "bad lut mode"),
            ("lutrow 0 0 vec 70000 0 1", "missing field"),
            ("lutvec 0 0 1 0", "unknown mnemonic"),
        ] {
            let err = deserialize_program(&row_text(row)).expect_err(row);
            assert!(err.contains(why), "{row}: {err}");
        }
    }

    #[test]
    fn luts_round_trip_bit_exactly() {
        let luts = vec![
            LutData::build(-100.0, 100.0, 0.5, 2, |x, out| {
                out[0] = (x / 10.0).exp();
                out[1] = x * x;
            }),
            LutData::build(0.0, 1.0, 0.1, 1, |x, out| out[0] = x.sin()),
        ];
        let text = serialize_luts(&luts);
        let back = deserialize_luts(&text).expect("round trip");
        assert_eq!(luts, back);
    }

    /// Bytes laid out `shift` bytes past an 8-aligned address, as a
    /// record whose first byte is there.
    struct Shifted(Vec<u8>, usize);

    impl AsRef<[u8]> for Shifted {
        fn as_ref(&self) -> &[u8] {
            &self.0[self.1..]
        }
    }

    fn shifted(bytes: &[u8], shift: usize) -> LutBytes {
        let mut buf: Vec<u8> = Vec::with_capacity(bytes.len() + 15);
        let at = (buf.as_ptr() as usize).wrapping_neg() % 8 + shift;
        buf.resize(at, 0);
        buf.extend_from_slice(bytes);
        Arc::new(Shifted(buf, at))
    }

    /// Decodes `bytes[at..]` from an 8-aligned copy of `bytes`.
    fn decode_at(bytes: &[u8], at: usize) -> Result<Vec<LutData>, String> {
        decode_luts(&shifted(bytes, 0), at..bytes.len())
    }

    fn two_tables() -> Vec<LutData> {
        vec![
            LutData::build(-100.0, 100.0, 5.0, 2, |x, out| {
                out[0] = (x / 10.0).exp();
                out[1] = -x;
            }),
            LutData::build(0.0, 1.0, 0.1, 1, |x, out| out[0] = x.sin()),
        ]
    }

    /// Where each table's values start in `record` (after its `lut` line and
    /// the padding).
    fn value_offsets(record: &[u8], luts: &[LutData]) -> Vec<usize> {
        let mut at = 0;
        luts.iter()
            .map(|lut| {
                let head = lut_block_head(lut);
                at += record[at..]
                    .windows(head.len())
                    .position(|w| w == head.as_bytes())
                    .expect("the table's line")
                    + head.len();
                at += lut_pad(at);
                at
            })
            .collect()
    }

    #[test]
    fn lut_bytes_round_trip_and_state_their_length() {
        let luts = two_tables();
        // Appended: what is in the buffer already is the record's, and the
        // padding counts from its first byte.
        let mut bytes = b"header\n".to_vec();
        encode_luts(&luts, &mut bytes);
        let block = &bytes[7..];
        assert_eq!(block.len(), encoded_luts_len(&luts, 7));
        let decoded = decode_at(&bytes, 7).expect("round trip");
        assert_eq!(decoded, luts);
        assert!(same_luts(&decoded, &luts));
        // The values are the words themselves, little-endian, after the
        // table's line and zero bytes up to an offset that is a multiple of 8.
        let head = lut_block_head(&luts[0]);
        assert!(head.ends_with(" 42 2\n"), "{head}");
        let line_end = 7 + "luts 2\n".len() + head.len();
        let at = value_offsets(&bytes, &luts)[0];
        assert_eq!((at % 8, at - line_end), (0, lut_pad(line_end)));
        assert!(bytes[line_end..at].iter().all(|&b| b == 0));
        for (w, v) in bytes[at..].chunks_exact(8).zip(luts[0].data()) {
            assert_eq!(w, v.to_bits().to_le_bytes());
        }
        // No prefix of a block is a block, and nothing may follow one.
        for cut in 0..block.len() {
            assert!(decode_at(&bytes[..7 + cut], 7).is_err(), "cut at {cut}");
        }
        let err = decode_at(&[&bytes[..], b"\n"].concat(), 7).unwrap_err();
        assert!(err.contains("expected 'end' after 2 lut(s)"), "{err}");

        let mut none = Vec::new();
        encode_luts(&[], &mut none);
        assert_eq!(none, b"luts 0\nend\n");
        assert_eq!(none.len(), encoded_luts_len(&[], 0));
        assert_eq!(decode_at(&none, 0), Ok(Vec::new()));
    }

    #[test]
    fn lut_values_start_8_aligned_after_every_header_length() {
        let luts = two_tables();
        // Headers of every length mod 8, and a 9- then a 10-digit length in
        // a header of the record's own shape: the block follows whatever the
        // header is.
        for header in (0..16).map(|n| format!("h{}\n", "x".repeat(n))).chain([
            format!("limpet-lut-tables 8 {} 999999999 0\n", "f".repeat(16)),
            format!("limpet-lut-tables 8 {} 1000000000 0\n", "f".repeat(16)),
        ]) {
            let mut record = header.clone().into_bytes();
            encode_luts(&luts, &mut record);
            let at = header.len();
            assert_eq!(record.len() - at, encoded_luts_len(&luts, at), "{header:?}");
            for offset in value_offsets(&record, &luts) {
                assert_eq!(offset % 8, 0, "{header:?}");
            }
            let decoded = decode_at(&record, at).expect("round trip");
            assert!(same_luts(&decoded, &luts), "{header:?}");
            // Read in place: the values are the record's bytes.
            let bytes = shifted(&record, 0);
            let decoded = decode_luts(&bytes, at..record.len()).unwrap();
            let all: &[u8] = (*bytes).as_ref();
            let start = all.as_ptr() as usize;
            for (lut, offset) in decoded.iter().zip(value_offsets(&record, &luts)) {
                assert_eq!(lut.data().as_ptr() as usize - start, offset);
            }
        }
    }

    #[test]
    fn lut_blocks_with_a_non_zero_pad_or_unaligned_values_are_malformed() {
        let luts = two_tables();
        let mut record = b"hdr\n".to_vec();
        encode_luts(&luts, &mut record);
        let line_end = 4 + "luts 2\n".len() + lut_block_head(&luts[0]).len();
        let pad = lut_pad(line_end);
        assert!(pad > 0, "the sample has a pad to damage");
        for at in line_end..line_end + pad {
            let mut damaged = record.clone();
            damaged[at] = b' ';
            let err = decode_at(&damaged, 4).unwrap_err();
            assert!(err.contains("line 2: a non-zero pad byte"), "{err}");
        }
        // The same bytes, with the record's first byte off an 8-aligned
        // address by every amount: the values would not be `f64`s in place.
        for shift in 1..8 {
            let err = decode_luts(&shifted(&record, shift), 4..record.len()).unwrap_err();
            assert!(err.contains("not 8-aligned in memory"), "{shift}: {err}");
        }
        // A block cut inside the padding is cut short.
        let err = decode_at(&record[..line_end + 1], 4).unwrap_err();
        assert!(err.contains("cut short"), "{err}");
    }

    #[test]
    fn corrupted_lut_payload_is_rejected() {
        let luts = vec![LutData::build(0.0, 1.0, 0.1, 1, |x, out| out[0] = x)];
        let text = serialize_luts(&luts);
        // Flip the declared row count so the data length disagrees.
        let bad = text.replacen("lut ", "lutX ", 1);
        assert!(deserialize_luts(&bad).is_err());
        let bad = text.replacen(" 12 1", " 13 1", 1);
        assert!(deserialize_luts(&bad).is_err());
    }
}
