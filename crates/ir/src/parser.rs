//! Parser for the textual IR form produced by [`crate::printer`].
//!
//! The grammar is the exact output language of the printer, so
//! `parse_module(&print_module(&m))` reconstructs a structurally equal
//! module (round-trip property, tested in `tests/roundtrip.rs`).

use crate::attr::{Attr, Attrs};
use crate::module::{Func, LutSpec, Module, RegionId, ValueId};
use crate::ops::{CmpFPred, CmpIPred, MathFn, OpKind};
use crate::types::{ScalarType, Type};
use std::collections::HashMap;
use std::fmt;

/// An error produced while parsing textual IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where the error occurred.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),   // bare identifiers incl. dotted op names
    Percent(String), // %name
    At(String),      // @name
    Num(String),     // numeric literal (lexeme kept for int/float choice)
    Str(String),     // "string"
    LParen,
    RParen,
    LBrace,
    RBrace,
    Lt,
    Gt,
    Eq,
    Comma,
    Colon,
    Arrow,
    Question,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek_byte() {
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek_byte() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn lex_word(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek_byte() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn lex_number(&mut self) -> String {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        let mut seen_e = false;
        while let Some(c) = self.peek_byte() {
            match c {
                b'0'..=b'9' | b'.' => self.pos += 1,
                b'e' | b'E' if !seen_e => {
                    seen_e = true;
                    self.pos += 1;
                    if matches!(self.peek_byte(), Some(b'+') | Some(b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn next_tok(&mut self) -> Result<Option<(Tok, usize)>> {
        self.skip_ws();
        let line = self.line;
        let Some(c) = self.peek_byte() else {
            return Ok(None);
        };
        let tok = match c {
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b'<' => {
                self.pos += 1;
                Tok::Lt
            }
            b'>' => {
                self.pos += 1;
                Tok::Gt
            }
            b'=' => {
                self.pos += 1;
                Tok::Eq
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b':' => {
                self.pos += 1;
                Tok::Colon
            }
            b'?' => {
                self.pos += 1;
                Tok::Question
            }
            b'%' => {
                self.pos += 1;
                Tok::Percent(self.lex_word())
            }
            b'@' => {
                self.pos += 1;
                Tok::At(self.lex_word())
            }
            b'"' => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.peek_byte() {
                        Some(b'"') => {
                            self.pos += 1;
                            break;
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.peek_byte() {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                other => {
                                    return Err(
                                        self.error(format!("bad escape {:?} in string", other))
                                    )
                                }
                            }
                            self.pos += 1;
                        }
                        Some(c) => {
                            s.push(c as char);
                            self.pos += 1;
                        }
                        None => return Err(self.error("unterminated string")),
                    }
                }
                Tok::Str(s)
            }
            b'-' => {
                if self.src.get(self.pos + 1) == Some(&b'>') {
                    self.pos += 2;
                    Tok::Arrow
                } else {
                    Tok::Num(self.lex_number())
                }
            }
            b'0'..=b'9' => Tok::Num(self.lex_number()),
            c if c.is_ascii_alphabetic() || c == b'_' => Tok::Ident(self.lex_word()),
            other => return Err(self.error(format!("unexpected character {:?}", other as char))),
        };
        Ok(Some((tok, line)))
    }
}

/// A recursive-descent parser over a one-token lookahead: the lexer runs
/// one token ahead of the parse, so a caller that stops early (the header
/// parse) leaves the rest of the input unlexed.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token; `None` at the end of the input or at a lexical
    /// error.
    ahead: Option<Tok>,
    /// The lexical error the lexer stopped at, if it did. It outranks
    /// whatever parse error it causes.
    lex_error: Option<ParseError>,
    /// The line of the last token lexed: the lookahead's, or at the end of
    /// the input the last token's (0 for an empty input).
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut p = Parser {
            lexer: Lexer::new(src),
            ahead: None,
            lex_error: None,
            line: 0,
        };
        p.lex_ahead();
        p
    }

    fn lex_ahead(&mut self) {
        match self.lexer.next_tok() {
            Ok(Some((tok, line))) => {
                self.ahead = Some(tok);
                self.line = line;
            }
            Ok(None) => self.ahead = None,
            Err(e) => {
                self.ahead = None;
                self.lex_error = Some(e);
            }
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        self.lex_error.clone().unwrap_or_else(|| ParseError {
            line: self.line,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.ahead.as_ref()
    }

    fn next(&mut self) -> Result<Tok> {
        let tok = self
            .ahead
            .take()
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.lex_ahead();
        Ok(tok)
    }

    fn expect(&mut self, want: &Tok) -> Result<()> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(self.error(format!("expected {want:?}, got {got:?}")))
        }
    }

    fn eat(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.lex_ahead();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, got {other:?}"))),
        }
    }

    fn expect_at(&mut self) -> Result<String> {
        match self.next()? {
            Tok::At(s) => Ok(s),
            other => Err(self.error(format!("expected @symbol, got {other:?}"))),
        }
    }

    fn expect_percent(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Percent(s) => Ok(s),
            other => Err(self.error(format!("expected %value, got {other:?}"))),
        }
    }

    // type := f64 | i1 | i64 | index | vector '<' N 'x' scalar '>' | memref '<' ? 'x' scalar '>'
    fn parse_type(&mut self) -> Result<Type> {
        let head = self.expect_ident()?;
        self.parse_type_named(&head)
    }

    /// The rest of a type whose leading identifier `head` has been read.
    fn parse_type_named(&mut self, head: &str) -> Result<Type> {
        match head {
            "f64" => Ok(Type::F64),
            "i1" => Ok(Type::I1),
            "i64" => Ok(Type::I64),
            "index" => Ok(Type::INDEX),
            "vector" => {
                self.expect(&Tok::Lt)?;
                // The printer emits e.g. `8xf64`, which lexes as Num("8")
                // followed by Ident("xf64").
                let width: u32 = match self.next()? {
                    Tok::Num(n) => n
                        .parse()
                        .map_err(|_| self.error(format!("bad vector width {n}")))?,
                    other => return Err(self.error(format!("expected width, got {other:?}"))),
                };
                let elem = self.parse_x_scalar()?;
                self.expect(&Tok::Gt)?;
                Ok(Type::vector(width, elem))
            }
            "memref" => {
                self.expect(&Tok::Lt)?;
                self.expect(&Tok::Question)?;
                let elem = self.parse_x_scalar()?;
                self.expect(&Tok::Gt)?;
                Ok(Type::memref(elem))
            }
            other => Err(self.error(format!("unknown type {other:?}"))),
        }
    }

    fn parse_x_scalar(&mut self) -> Result<ScalarType> {
        let w = self.expect_ident()?;
        let rest = w
            .strip_prefix('x')
            .ok_or_else(|| self.error(format!("expected xTYPE, got {w:?}")))?;
        match rest {
            "f64" => Ok(ScalarType::F64),
            "i1" => Ok(ScalarType::I1),
            "i64" => Ok(ScalarType::I64),
            "index" => Ok(ScalarType::Index),
            other => Err(self.error(format!("unknown element type {other:?}"))),
        }
    }

    fn parse_attr_value(&mut self) -> Result<Attr> {
        match self.next()? {
            Tok::Num(n) => {
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    Ok(Attr::F64(n.parse().map_err(|_| {
                        self.error(format!("bad float literal {n}"))
                    })?))
                } else {
                    Ok(Attr::I64(
                        n.parse()
                            .map_err(|_| self.error(format!("bad int literal {n}")))?,
                    ))
                }
            }
            Tok::Str(s) => Ok(Attr::Str(s)),
            Tok::Ident(w) => match w.as_str() {
                "true" => Ok(Attr::Bool(true)),
                "false" => Ok(Attr::Bool(false)),
                "f64" | "i1" | "i64" | "index" | "vector" => {
                    Ok(Attr::Ty(self.parse_type_named(&w)?))
                }
                other => Err(self.error(format!("bad attribute value {other:?}"))),
            },
            other => Err(self.error(format!("bad attribute value {other:?}"))),
        }
    }

    fn parse_attr_dict(&mut self) -> Result<Attrs> {
        self.expect(&Tok::LBrace)?;
        let mut attrs = Attrs::new();
        if self.eat(&Tok::RBrace) {
            return Ok(attrs);
        }
        loop {
            let key = self.expect_ident()?;
            self.expect(&Tok::Eq)?;
            let value = self.parse_attr_value()?;
            attrs.set(&key, value);
            if self.eat(&Tok::RBrace) {
                break;
            }
            self.expect(&Tok::Comma)?;
        }
        Ok(attrs)
    }
}

struct FuncParser<'p, 'a> {
    p: &'p mut Parser<'a>,
    func: Func,
    scope: HashMap<String, ValueId>,
}

impl FuncParser<'_, '_> {
    fn lookup(&self, name: &str) -> Result<ValueId> {
        self.scope
            .get(name)
            .copied()
            .ok_or_else(|| self.p.error(format!("unknown value %{name}")))
    }

    /// Parses operations into `region` until (and consuming) the closing `}`.
    fn parse_region_body(&mut self, region: RegionId) -> Result<()> {
        loop {
            if self.p.eat(&Tok::RBrace) {
                return Ok(());
            }
            self.parse_op(region)?;
        }
    }

    fn parse_op(&mut self, region: RegionId) -> Result<()> {
        // Optional result list.
        let mut result_names = Vec::new();
        while let Some(Tok::Percent(_)) = self.p.peek() {
            let Tok::Percent(n) = self.p.next()? else {
                unreachable!()
            };
            result_names.push(n);
            if !self.p.eat(&Tok::Comma) {
                break;
            }
        }
        if !result_names.is_empty() {
            self.p.expect(&Tok::Eq)?;
        }
        let op_name = self.p.expect_ident()?;
        match op_name.as_str() {
            "scf.if" => self.parse_if(region, &result_names),
            "scf.for" => self.parse_for(region, &result_names),
            "arith.constant" => self.parse_constant(region, &result_names),
            other => self.parse_generic(region, other, &result_names),
        }
    }

    fn bind_results(&mut self, op: crate::module::OpId, names: &[String]) -> Result<()> {
        let results = self.func.op(op).results.clone();
        if results.len() != names.len() {
            return Err(self.p.error(format!(
                "op produces {} results but {} names given",
                results.len(),
                names.len()
            )));
        }
        for (n, r) in names.iter().zip(results) {
            self.scope.insert(n.clone(), r);
        }
        Ok(())
    }

    fn parse_if(&mut self, region: RegionId, result_names: &[String]) -> Result<()> {
        let cond_name = self.p.expect_percent()?;
        let cond = self.lookup(&cond_name)?;
        let mut result_types = Vec::new();
        if self.p.eat(&Tok::Arrow) {
            self.p.expect(&Tok::LParen)?;
            loop {
                result_types.push(self.p.parse_type()?);
                if self.p.eat(&Tok::RParen) {
                    break;
                }
                self.p.expect(&Tok::Comma)?;
            }
        }
        self.p.expect(&Tok::LBrace)?;
        let then_r = self.func.new_region(&[]);
        self.parse_region_body(then_r)?;
        let else_kw = self.p.expect_ident()?;
        if else_kw != "else" {
            return Err(self.p.error("expected `else`"));
        }
        self.p.expect(&Tok::LBrace)?;
        let else_r = self.func.new_region(&[]);
        self.parse_region_body(else_r)?;
        let op = self.func.push_op(
            region,
            OpKind::If,
            vec![cond],
            &result_types,
            Attrs::new(),
            vec![then_r, else_r],
        );
        self.bind_results(op, result_names)
    }

    fn parse_for(&mut self, region: RegionId, result_names: &[String]) -> Result<()> {
        let iv_name = self.p.expect_percent()?;
        self.p.expect(&Tok::Eq)?;
        let lb_name = self.p.expect_percent()?;
        let lb = self.lookup(&lb_name)?;
        let to_kw = self.p.expect_ident()?;
        if to_kw != "to" {
            return Err(self.p.error("expected `to`"));
        }
        let ub_name = self.p.expect_percent()?;
        let ub = self.lookup(&ub_name)?;
        let step_kw = self.p.expect_ident()?;
        if step_kw != "step" {
            return Err(self.p.error("expected `step`"));
        }
        let st_name = self.p.expect_percent()?;
        let st = self.lookup(&st_name)?;

        let mut iter_names = Vec::new();
        let mut iter_inits = Vec::new();
        if matches!(self.p.peek(), Some(Tok::Ident(w)) if w == "iter_args") {
            self.p.next()?;
            self.p.expect(&Tok::LParen)?;
            loop {
                let an = self.p.expect_percent()?;
                self.p.expect(&Tok::Eq)?;
                let init_name = self.p.expect_percent()?;
                let init = self.lookup(&init_name)?;
                iter_names.push(an);
                iter_inits.push(init);
                if self.p.eat(&Tok::RParen) {
                    break;
                }
                self.p.expect(&Tok::Comma)?;
            }
            self.p.expect(&Tok::Arrow)?;
            self.p.expect(&Tok::LParen)?;
            // Result types are redundant with init types; consume them.
            loop {
                let _ = self.p.parse_type()?;
                if self.p.eat(&Tok::RParen) {
                    break;
                }
                self.p.expect(&Tok::Comma)?;
            }
        }
        self.p.expect(&Tok::LBrace)?;

        let mut arg_types = vec![Type::INDEX];
        let iter_types: Vec<Type> = iter_inits
            .iter()
            .map(|&v| self.func.value_type(v))
            .collect();
        arg_types.extend(iter_types.iter().copied());
        let body = self.func.new_region(&arg_types);
        let args = self.func.region(body).args.clone();
        self.scope.insert(iv_name, args[0]);
        for (n, &a) in iter_names.iter().zip(&args[1..]) {
            self.scope.insert(n.clone(), a);
        }
        self.parse_region_body(body)?;

        let mut operands = vec![lb, ub, st];
        operands.extend(iter_inits);
        let op = self.func.push_op(
            region,
            OpKind::For,
            operands,
            &iter_types,
            Attrs::new(),
            vec![body],
        );
        self.bind_results(op, result_names)
    }

    fn parse_constant(&mut self, region: RegionId, result_names: &[String]) -> Result<()> {
        let payload = self.p.next()?;
        self.p.expect(&Tok::Colon)?;
        let ty = self.p.parse_type()?;
        let kind = match (payload, ty.scalar()) {
            (Tok::Num(n), Some(ScalarType::F64)) => OpKind::ConstantF(
                n.parse()
                    .map_err(|_| self.p.error(format!("bad float {n}")))?,
            ),
            (Tok::Num(n), Some(ScalarType::I64)) | (Tok::Num(n), Some(ScalarType::Index)) => {
                OpKind::ConstantInt(
                    n.parse()
                        .map_err(|_| self.p.error(format!("bad int {n}")))?,
                )
            }
            (Tok::Ident(w), Some(ScalarType::I1)) if w == "true" || w == "false" => {
                OpKind::ConstantBool(w == "true")
            }
            (p, _) => {
                return Err(self
                    .p
                    .error(format!("bad constant payload {p:?} for type {ty}")))
            }
        };
        let op = self
            .func
            .push_op(region, kind, vec![], &[ty], Attrs::new(), vec![]);
        self.bind_results(op, result_names)
    }

    fn parse_generic(
        &mut self,
        region: RegionId,
        op_name: &str,
        result_names: &[String],
    ) -> Result<()> {
        // Optional predicate for cmp ops: `pred,`.
        let mut pred: Option<String> = None;
        if op_name == "arith.cmpf" || op_name == "arith.cmpi" {
            pred = Some(self.p.expect_ident()?);
            self.p.expect(&Tok::Comma)?;
        }
        // Operand list.
        let mut operands = Vec::new();
        while let Some(Tok::Percent(_)) = self.p.peek() {
            let Tok::Percent(n) = self.p.next()? else {
                unreachable!()
            };
            operands.push(self.lookup(&n)?);
            if !self.p.eat(&Tok::Comma) {
                break;
            }
        }
        // Optional attribute dict.
        let attrs = if self.p.peek() == Some(&Tok::LBrace) {
            self.p.parse_attr_dict()?
        } else {
            Attrs::new()
        };
        // Optional trailing type.
        let trailing = if self.p.eat(&Tok::Colon) {
            Some(self.p.parse_type()?)
        } else {
            None
        };

        let kind = op_kind_from_name(op_name, pred.as_deref())
            .ok_or_else(|| self.p.error(format!("unknown op {op_name:?}")))?;
        let result_types: Vec<Type> = if result_names.is_empty() {
            vec![]
        } else {
            let ty =
                trailing.ok_or_else(|| self.p.error(format!("{op_name} needs a result type")))?;
            vec![ty; result_names.len()]
        };
        let op = self
            .func
            .push_op(region, kind, operands, &result_types, attrs, vec![]);
        self.bind_results(op, result_names)
    }
}

/// Maps an op name (and optional cmp predicate) to its [`OpKind`].
fn op_kind_from_name(name: &str, pred: Option<&str>) -> Option<OpKind> {
    if let Some(suffix) = name.strip_prefix("math.") {
        if suffix == "fma" {
            return Some(OpKind::Fma);
        }
        return MathFn::parse(suffix).map(OpKind::Math);
    }
    Some(match name {
        "arith.addf" => OpKind::AddF,
        "arith.subf" => OpKind::SubF,
        "arith.mulf" => OpKind::MulF,
        "arith.divf" => OpKind::DivF,
        "arith.remf" => OpKind::RemF,
        "arith.negf" => OpKind::NegF,
        "arith.minimumf" => OpKind::MinF,
        "arith.maximumf" => OpKind::MaxF,
        "arith.addi" => OpKind::AddI,
        "arith.subi" => OpKind::SubI,
        "arith.muli" => OpKind::MulI,
        "arith.cmpf" => OpKind::CmpF(CmpFPred::parse(pred?)?),
        "arith.cmpi" => OpKind::CmpI(CmpIPred::parse(pred?)?),
        "arith.andi" => OpKind::AndI,
        "arith.ori" => OpKind::OrI,
        "arith.xori" => OpKind::XorI,
        "arith.select" => OpKind::Select,
        "arith.sitofp" => OpKind::SIToFP,
        "arith.index_cast" => OpKind::IndexCast,
        "vector.broadcast" => OpKind::Broadcast,
        "scf.yield" => OpKind::Yield,
        "func.return" => OpKind::Return,
        "limpet.get_ext" => OpKind::GetExt,
        "limpet.set_ext" => OpKind::SetExt,
        "limpet.get_state" => OpKind::GetState,
        "limpet.set_state" => OpKind::SetState,
        "limpet.param" => OpKind::Param,
        "limpet.has_parent" => OpKind::HasParent,
        "limpet.get_parent_state" => OpKind::GetParentState,
        "limpet.set_parent_state" => OpKind::SetParentState,
        "limpet.dt" => OpKind::Dt,
        "limpet.time" => OpKind::Time,
        "limpet.cell_index" => OpKind::CellIndex,
        "lut.col" => OpKind::LutCol,
        _ => return None,
    })
}

/// Parses a module header off the front of `p`, leaving it at the first
/// token of the body.
fn parse_header(p: &mut Parser<'_>) -> Result<Module> {
    let kw = p.expect_ident()?;
    if kw != "module" {
        return Err(p.error("expected `module`"));
    }
    let name = p.expect_at()?;
    let mut module = Module::new(&name);
    if matches!(p.peek(), Some(Tok::Ident(w)) if w == "attributes") {
        p.next()?;
        module.attrs = p.parse_attr_dict()?;
    }
    if !p.eat(&Tok::LBrace) {
        return Err(p.error("expected `{` opening the module body"));
    }
    Ok(module)
}

/// Parses a textual IR module.
///
/// # Errors
///
/// Returns a [`ParseError`] (with line number) on any lexical, syntactic, or
/// name-resolution failure.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), limpet_ir::ParseError> {
/// let m = limpet_ir::parse_module(
///     "module @m {\n  func.func @f() {\n    func.return\n  }\n}\n",
/// )?;
/// assert_eq!(m.name(), "m");
/// assert!(m.func("f").is_some());
/// # Ok(())
/// # }
/// ```
pub fn parse_module(src: &str) -> Result<Module> {
    let mut p = Parser::new(src);
    let mut module = parse_header(&mut p)?;
    loop {
        match p.peek() {
            Some(Tok::RBrace) => {
                p.next()?;
                break;
            }
            Some(Tok::Ident(w)) if w == "lut" => {
                p.next()?;
                let name = p.expect_at()?;
                let attrs = p.parse_attr_dict()?;
                let spec = LutSpec {
                    name,
                    lo: attrs
                        .f64_of("lo")
                        .ok_or_else(|| p.error("lut missing lo"))?,
                    hi: attrs
                        .f64_of("hi")
                        .ok_or_else(|| p.error("lut missing hi"))?,
                    step: attrs
                        .f64_of("step")
                        .ok_or_else(|| p.error("lut missing step"))?,
                    func: attrs
                        .str_of("func")
                        .ok_or_else(|| p.error("lut missing func"))?
                        .to_owned(),
                    cols: attrs
                        .str_of("cols")
                        .map(|s| {
                            s.split(',')
                                .filter(|c| !c.is_empty())
                                .map(str::to_owned)
                                .collect()
                        })
                        .unwrap_or_default(),
                };
                module.luts.push(spec);
            }
            Some(Tok::Ident(w)) if w == "func.func" => {
                p.next()?;
                let fname = p.expect_at()?;
                p.expect(&Tok::LParen)?;
                let mut arg_names = Vec::new();
                let mut arg_types = Vec::new();
                if !p.eat(&Tok::RParen) {
                    loop {
                        let an = p.expect_percent()?;
                        p.expect(&Tok::Colon)?;
                        let ty = p.parse_type()?;
                        arg_names.push(an);
                        arg_types.push(ty);
                        if p.eat(&Tok::RParen) {
                            break;
                        }
                        p.expect(&Tok::Comma)?;
                    }
                }
                let mut result_types = Vec::new();
                if p.eat(&Tok::Arrow) {
                    p.expect(&Tok::LParen)?;
                    loop {
                        result_types.push(p.parse_type()?);
                        if p.eat(&Tok::RParen) {
                            break;
                        }
                        p.expect(&Tok::Comma)?;
                    }
                }
                p.expect(&Tok::LBrace)?;
                let func = Func::new(&fname, &arg_types, &result_types);
                let mut scope = HashMap::new();
                for (n, &v) in arg_names.iter().zip(func.args()) {
                    scope.insert(n.clone(), v);
                }
                let mut fp = FuncParser {
                    p: &mut p,
                    func,
                    scope,
                };
                let body = fp.func.body();
                fp.parse_region_body(body)?;
                module.add_func(fp.func);
            }
            other => return Err(p.error(format!("expected lut/func.func/}}, got {other:?}"))),
        }
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    #[test]
    fn parse_minimal_module() {
        let m = parse_module("module @m {\n}\n").unwrap();
        assert_eq!(m.name(), "m");
        assert!(m.funcs().is_empty());
    }

    #[test]
    fn parse_simple_ops() {
        let src = "module @m {
  func.func @f() {
    %0 = arith.constant 2.0 : f64
    %1 = arith.constant 3.0 : f64
    %2 = arith.addf %0, %1 : f64
    limpet.set_state %2 {var = \"u\"} : f64
    func.return
  }
}
";
        let m = parse_module(src).unwrap();
        let f = m.func("f").unwrap();
        assert_eq!(f.region(f.body()).ops.len(), 5);
        // Re-print must equal the original.
        assert_eq!(print_module(&m), src);
    }

    #[test]
    fn parse_if_with_results() {
        let src = "module @m {
  func.func @f() {
    %0 = arith.constant true : i1
    %1 = scf.if %0 -> (f64) {
      %2 = arith.constant 1.0 : f64
      scf.yield %2 : f64
    } else {
      %3 = arith.constant 2.0 : f64
      scf.yield %3 : f64
    }
    func.return
  }
}
";
        let m = parse_module(src).unwrap();
        assert_eq!(print_module(&m), src);
    }

    #[test]
    fn parse_for_loop() {
        let src = "module @m {
  func.func @f() {
    %0 = arith.constant 0 : index
    %1 = arith.constant 4 : index
    %2 = arith.constant 1 : index
    %3 = arith.constant 1.0 : f64
    %4 = scf.for %arg0 = %0 to %1 step %2 iter_args(%arg1 = %3) -> (f64) {
      %5 = arith.addf %arg1, %arg1 : f64
      scf.yield %5 : f64
    }
    func.return
  }
}
";
        let m = parse_module(src).unwrap();
        assert_eq!(print_module(&m), src);
    }

    #[test]
    fn parse_vector_types_and_cmp() {
        let src = "module @m {
  func.func @f() {
    %0 = arith.constant 1.5 : vector<8xf64>
    %1 = arith.cmpf olt, %0, %0 : vector<8xi1>
    %2 = arith.select %1, %0, %0 : vector<8xf64>
    func.return
  }
}
";
        let m = parse_module(src).unwrap();
        assert_eq!(print_module(&m), src);
    }

    #[test]
    fn parse_lut_decl() {
        let src = "module @m {
  lut @Vm {cols = \"e0,e1\", func = \"lut_Vm\", hi = 100.0, lo = -100.0, step = 0.05}
  func.func @lut_Vm(%arg0: f64) -> (f64, f64) {
    func.return %arg0, %arg0 : f64
  }
}
";
        let m = parse_module(src).unwrap();
        let lut = m.lut("Vm").unwrap();
        assert_eq!(lut.cols, vec!["e0", "e1"]);
        assert_eq!(lut.rows(), 4002);
        assert_eq!(print_module(&m), src);
    }

    #[test]
    fn header_without_an_opening_brace_is_an_error() {
        for src in [
            "module @m attributes {vector_width = 8}",
            "module @m attributes {vector_width = 8}\n",
            "module @m",
            "module @m attributes {vector_width = 8} func.func",
        ] {
            let err = parse_module(src).unwrap_err();
            assert!(
                err.message.contains("opening the module body"),
                "{src:?}: {err}"
            );
        }
        for src in ["module @m attributes {vector_width 8} {", "module m {", ""] {
            assert!(parse_module(src).is_err(), "{src:?}");
        }
    }

    #[test]
    fn error_has_line_number() {
        let err =
            parse_module("module @m {\n  func.func @f() {\n    %0 = bogus.op : f64\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("bogus.op"));
    }

    #[test]
    fn unknown_value_is_error() {
        let src = "module @m {\n  func.func @f() {\n    limpet.set_state %9 {var = \"u\"} : f64\n  }\n}\n";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("unknown value"));
    }

    #[test]
    fn all_generic_ops_parse_by_name() {
        // Every op name emitted by OpKind::name must be recognized.
        use crate::ops::OpKind::*;
        let kinds = [
            AddF,
            SubF,
            MulF,
            DivF,
            RemF,
            NegF,
            MinF,
            MaxF,
            Fma,
            AddI,
            SubI,
            MulI,
            AndI,
            OrI,
            XorI,
            Select,
            SIToFP,
            IndexCast,
            Broadcast,
            Yield,
            Return,
            GetExt,
            SetExt,
            GetState,
            SetState,
            Param,
            HasParent,
            GetParentState,
            SetParentState,
            Dt,
            Time,
            CellIndex,
            LutCol,
        ];
        for k in kinds {
            assert!(
                op_kind_from_name(k.name(), None).is_some(),
                "{} unrecognized",
                k.name()
            );
        }
        for f in MathFn::ALL {
            assert!(op_kind_from_name(OpKind::Math(f).name(), None).is_some());
        }
    }
}
