//! Recursive-descent parser for EasyML.
//!
//! The grammar follows openCARP's EasyML (paper §2.2): C-style expressions
//! and `if` statements, single-assignment variables, `group { … }`
//! declarations, and markup statements (`.external();`, `.lookup(lo,hi,step);`,
//! `.method(rk2);`, …) that attach to the most recently declared variable or
//! group.

use crate::ast::{
    BinOp, ExprId, Exprs, GroupItem, Item, Markup, MarkupArg, ModelAst, Stmt, Sym, UnOp,
};
use crate::diag::{Diagnostic, ErrorCode, Span};
use crate::token::{lex, Token, TokenKind};

/// A syntax error: a [`Diagnostic`] with an `E02xx` (or, forwarded from the
/// lexer, `E01xx`) code, carrying the model name.
pub type ParseError = Diagnostic;

type Result<T> = std::result::Result<T, ParseError>;

/// Parses an EasyML model file.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical or syntactic failure, including
/// markup statements with no preceding declaration to attach to.
///
/// # Examples
///
/// ```
/// use limpet_easyml::parse_model;
/// let ast = parse_model("Demo", "Vm; .external();\ndiff_u = -u * Vm;\nu_init = 1;").unwrap();
/// assert_eq!(ast.name, "Demo");
/// assert_eq!(ast.items.len(), 3);
/// ```
pub fn parse_model(name: &str, src: &str) -> Result<ModelAst> {
    let inner = || -> Result<ModelAst> {
        let toks = lex(src)?;
        let mut p = Parser {
            // At most one node per token.
            exprs: Exprs::with_capacity(toks.len()),
            toks,
            pos: 0,
            args: Vec::new(),
        };
        let mut items: Vec<Item> = Vec::new();
        while !p.at_end() {
            p.parse_item(&mut items)?;
        }
        Ok(ModelAst {
            name: name.to_owned(),
            items,
            exprs: p.exprs,
        })
    };
    inner().map_err(|e| e.with_model(name))
}

/// The token stream, the cursor into it, and the model's expressions as
/// they are built. Tokens are `Copy` and their identifiers borrow from the
/// source; each expression node is appended to `exprs` once its operands
/// are, and each name is interned there the first time it is seen.
struct Parser<'src> {
    toks: Vec<Token<'src>>,
    pos: usize,
    exprs: Exprs,
    /// The arguments of the calls being parsed, innermost last.
    args: Vec<ExprId>,
}

impl<'src> Parser<'src> {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn line(&self) -> usize {
        self.span().line
    }

    /// The span of the current token (or, at end of input, the last one).
    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(Span::none(), Token::span)
    }

    fn error(&self, code: ErrorCode, message: impl Into<String>) -> ParseError {
        Diagnostic::new(code, self.span(), message)
    }

    fn peek(&self) -> Option<TokenKind<'src>> {
        self.toks.get(self.pos).map(|t| t.kind)
    }

    fn peek2(&self) -> Option<TokenKind<'src>> {
        self.toks.get(self.pos + 1).map(|t| t.kind)
    }

    fn next(&mut self) -> Result<TokenKind<'src>> {
        let t = self
            .toks
            .get(self.pos)
            .map(|t| t.kind)
            .ok_or_else(|| self.error(ErrorCode::UnexpectedEof, "unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, want: TokenKind<'_>) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: TokenKind<'_>) -> Result<()> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(self.error(
                ErrorCode::UnexpectedToken,
                format!("expected {want}, got {got}"),
            ))
        }
    }

    /// The name an assignment defines, interned with the variable a
    /// `diff_X` or `X_init` is about, which sema looks up by its text.
    fn lhs(&mut self, name: &str) -> Sym {
        if let Some(base) = name.strip_prefix("diff_") {
            self.exprs.intern(base);
        }
        if name.ends_with("_init") {
            self.exprs.intern(name.trim_end_matches("_init"));
        }
        self.exprs.intern(name)
    }

    fn expect_ident(&mut self) -> Result<&'src str> {
        match self.next()? {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.error(
                ErrorCode::UnexpectedToken,
                format!("expected identifier, got {other}"),
            )),
        }
    }

    fn parse_item(&mut self, items: &mut Vec<Item>) -> Result<()> {
        let line = self.line();
        match self.peek() {
            Some(TokenKind::Ident("group")) => {
                self.pos += 1;
                let item = self.parse_group(line)?;
                items.push(item);
                Ok(())
            }
            Some(TokenKind::Ident("if")) => {
                self.pos += 1;
                let stmt = self.parse_if(line)?;
                items.push(Item::Stmt(stmt));
                Ok(())
            }
            Some(TokenKind::Ident(_)) => {
                let name = self.expect_ident()?;
                if self.eat(TokenKind::Assign) {
                    let expr = self.parse_expr()?;
                    self.expect(TokenKind::Semi)?;
                    items.push(Item::Stmt(Stmt::Assign {
                        lhs: self.lhs(name),
                        expr,
                        line,
                    }));
                } else {
                    self.expect(TokenKind::Semi)?;
                    items.push(Item::Decl {
                        name: self.exprs.intern(name),
                        markups: Vec::new(),
                        line,
                    });
                }
                Ok(())
            }
            Some(TokenKind::Dot) => {
                // Markup statement: one or more `.name(args)` then `;`,
                // attaching to the last declaration or group.
                let mut markups = Vec::new();
                while self.eat(TokenKind::Dot) {
                    markups.push(self.parse_markup()?);
                }
                self.expect(TokenKind::Semi)?;
                let target = items.iter_mut().rev().find_map(|item| match item {
                    Item::Decl { markups, .. } | Item::Group { markups, .. } => Some(markups),
                    Item::Stmt(_) => None,
                });
                match target {
                    Some(t) => {
                        t.extend(markups);
                        Ok(())
                    }
                    None => Err(Diagnostic::new(
                        ErrorCode::OrphanMarkup,
                        Span::line(line),
                        "markup with no preceding declaration",
                    )),
                }
            }
            Some(other) => Err(self.error(
                ErrorCode::UnexpectedToken,
                format!("unexpected {other} at top level"),
            )),
            None => Ok(()),
        }
    }

    fn parse_group(&mut self, line: usize) -> Result<Item> {
        self.expect(TokenKind::LBrace)?;
        let mut group_items = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            let name = self.expect_ident()?;
            let default = if self.eat(TokenKind::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect(TokenKind::Semi)?;
            group_items.push(GroupItem {
                name: self.exprs.intern(name),
                default,
            });
        }
        // Optional inline markup chain, then `;`.
        let mut markups = Vec::new();
        while self.eat(TokenKind::Dot) {
            markups.push(self.parse_markup()?);
        }
        self.expect(TokenKind::Semi)?;
        Ok(Item::Group {
            items: group_items,
            markups,
            line,
        })
    }

    fn parse_markup(&mut self) -> Result<Markup> {
        let line = self.line();
        let name = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.eat(TokenKind::RParen) {
            loop {
                let mut neg = false;
                while self.eat(TokenKind::Minus) {
                    neg = !neg;
                }
                match self.next()? {
                    TokenKind::Num(v) => args.push(MarkupArg::Num(if neg { -v } else { v })),
                    TokenKind::Ident(s) if !neg => {
                        args.push(MarkupArg::Ident(self.exprs.intern(s)))
                    }
                    other => {
                        return Err(self.error(
                            ErrorCode::BadMarkupArg,
                            format!("bad markup argument {other}"),
                        ));
                    }
                }
                if self.eat(TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        Ok(Markup {
            name: self.exprs.intern(name),
            args,
            line,
        })
    }

    fn parse_if(&mut self, line: usize) -> Result<Stmt> {
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        let then_body = self.parse_block()?;
        let mut else_body = Vec::new();
        if matches!(self.peek(), Some(TokenKind::Ident("else"))) {
            self.pos += 1;
            if matches!(self.peek(), Some(TokenKind::Ident("if"))) {
                let line2 = self.line();
                self.pos += 1;
                else_body = vec![self.parse_if(line2)?];
            } else {
                else_body = self.parse_block()?;
            }
        }
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            line,
        })
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            let line = self.line();
            if matches!(self.peek(), Some(TokenKind::Ident("if"))) {
                self.pos += 1;
                stmts.push(self.parse_if(line)?);
            } else {
                let lhs = self.expect_ident()?;
                let lhs = self.lhs(lhs);
                self.expect(TokenKind::Assign)?;
                let expr = self.parse_expr()?;
                self.expect(TokenKind::Semi)?;
                stmts.push(Stmt::Assign { lhs, expr, line });
            }
        }
        Ok(stmts)
    }

    // ---- expressions (precedence climbing) ----

    fn parse_expr(&mut self) -> Result<ExprId> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<ExprId> {
        let cond = self.parse_binary(1)?;
        if self.eat(TokenKind::Question) {
            let t = self.parse_expr()?;
            self.expect(TokenKind::Colon)?;
            let e = self.parse_ternary()?;
            Ok(self.exprs.cond(cond, t, e))
        } else {
            Ok(cond)
        }
    }

    /// Binary operators by precedence climbing: an operand, then every
    /// operator binding at least as tightly as `min`, each with a
    /// right-hand side of strictly tighter operators — the left-associative
    /// C tree, from one loop per operand instead of one call per level.
    fn parse_binary(&mut self, min: u8) -> Result<ExprId> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.peek().and_then(binary_op) {
            if prec < min {
                break;
            }
            self.pos += 1;
            let rhs = self.parse_binary(prec + 1)?;
            lhs = self.exprs.binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<ExprId> {
        if self.eat(TokenKind::Minus) {
            let e = self.parse_unary()?;
            Ok(self.exprs.unary(UnOp::Neg, e))
        } else if self.eat(TokenKind::Not) {
            let e = self.parse_unary()?;
            Ok(self.exprs.unary(UnOp::Not, e))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<ExprId> {
        match self.next()? {
            TokenKind::Num(v) => Ok(self.exprs.num(v)),
            TokenKind::Ident(name) => {
                let name = self.exprs.intern(name);
                if self.peek() == Some(TokenKind::LParen) && self.peek2().is_some() {
                    self.pos += 1;
                    let outer = self.args.len();
                    if !self.eat(TokenKind::RParen) {
                        loop {
                            let arg = self.parse_expr()?;
                            self.args.push(arg);
                            if self.eat(TokenKind::RParen) {
                                break;
                            }
                            self.expect(TokenKind::Comma)?;
                        }
                    }
                    let call = self.exprs.call(name, &self.args[outer..]);
                    self.args.truncate(outer);
                    Ok(call)
                } else {
                    Ok(self.exprs.var(name))
                }
            }
            TokenKind::LParen => {
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(self.error(
                ErrorCode::UnexpectedToken,
                format!("expected expression, got {other}"),
            )),
        }
    }
}

/// A binary operator token's operator and precedence, loosest (`||`) 1
/// to tightest (`*` `/` `%`) 6.
fn binary_op(t: TokenKind<'_>) -> Option<(BinOp, u8)> {
    Some(match t {
        TokenKind::OrOr => (BinOp::Or, 1),
        TokenKind::AndAnd => (BinOp::And, 2),
        TokenKind::EqEq => (BinOp::Eq, 3),
        TokenKind::NotEq => (BinOp::Ne, 3),
        TokenKind::Lt => (BinOp::Lt, 4),
        TokenKind::Le => (BinOp::Le, 4),
        TokenKind::Gt => (BinOp::Gt, 4),
        TokenKind::Ge => (BinOp::Ge, 4),
        TokenKind::Plus => (BinOp::Add, 5),
        TokenKind::Minus => (BinOp::Sub, 5),
        TokenKind::Star => (BinOp::Mul, 6),
        TokenKind::Slash => (BinOp::Div, 6),
        TokenKind::Percent => (BinOp::Rem, 6),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ExprRef;

    /// The paper's Listing 1: the modified Pathmanathan model.
    pub const PATHMANATHAN: &str = r#"
Vm; .external(); .nodal(); .lookup(-100,100,0.05);
Iion; .external(); .nodal();
group{ u1; u2; u3; }.nodal();

group{ Cm = 200; beta = 1; xi = 3; }.param();
u1_init = 0; u2_init = 0; u3_init = 0; Vm_init = 0;
diff_u3 = 0;
diff_u2 = -(u1+u3-Vm)*cube(u2);
diff_u1 = square(u1+u3-Vm)*square(u2)+0.5*(u1+u3-Vm);
u1;.method(rk2);

Iion = (-(Cm/2.)*(u1+u3-Vm)*square(u2)*(Vm-u3)+beta);
"#;

    #[test]
    fn parses_paper_listing_1() {
        let ast = parse_model("Pathmanathan", PATHMANATHAN).unwrap();
        // Items: Vm decl, Iion decl, state group, param group, 4 inits,
        // 3 diffs, u1 decl (for method), Iion assignment.
        let decls: Vec<_> = ast
            .items
            .iter()
            .filter(|i| matches!(i, Item::Decl { .. }))
            .collect();
        assert_eq!(decls.len(), 3); // Vm, Iion, u1
        let groups: Vec<_> = ast
            .items
            .iter()
            .filter(|i| matches!(i, Item::Group { .. }))
            .collect();
        assert_eq!(groups.len(), 2);
        let stmts: Vec<_> = ast
            .items
            .iter()
            .filter(|i| matches!(i, Item::Stmt(_)))
            .collect();
        assert_eq!(stmts.len(), 8);
    }

    #[test]
    fn markups_attach_to_preceding_decl() {
        let ast = parse_model("m", "Vm; .external(); .nodal(); .lookup(-100,100,0.05);").unwrap();
        let Item::Decl { name, markups, .. } = &ast.items[0] else {
            panic!("expected decl");
        };
        let text = |s| ast.exprs.name(s);
        assert_eq!(text(*name), "Vm");
        assert_eq!(markups.len(), 3);
        assert_eq!(text(markups[0].name), "external");
        assert_eq!(text(markups[2].name), "lookup");
        assert_eq!(markups[2].args[0].as_num(), Some(-100.0));
        assert_eq!(markups[2].args[2].as_num(), Some(0.05));
    }

    #[test]
    fn method_markup_ident_arg() {
        let ast = parse_model("m", "u1;.method(rk2);").unwrap();
        let Item::Decl { markups, .. } = &ast.items[0] else {
            panic!();
        };
        assert_eq!(markups[0].args[0].as_ident(), ast.exprs.sym("rk2"));
        assert!(ast.exprs.sym("rk2").is_some());
    }

    #[test]
    fn group_with_defaults() {
        let ast = parse_model("m", "group{ Cm = 200; beta = 1; }.param();").unwrap();
        let Item::Group { items, markups, .. } = &ast.items[0] else {
            panic!();
        };
        assert_eq!(items.len(), 2);
        assert_eq!(ast.exprs.name(items[0].name), "Cm");
        let default = items[0].default.map(|d| ast.exprs.get(d));
        assert_eq!(default, Some(ExprRef::Num(200.0)));
        assert_eq!(ast.exprs.name(markups[0].name), "param");
    }

    #[test]
    fn precedence_mul_over_add() {
        let ast = parse_model("m", "x = a + b * c;").unwrap();
        let Item::Stmt(Stmt::Assign { expr, .. }) = &ast.items[0] else {
            panic!();
        };
        assert_eq!(ast.exprs.display(*expr).to_string(), "(a+(b*c))");
    }

    #[test]
    fn ternary_and_comparison() {
        let ast = parse_model("m", "x = v < 0 ? -v : v;").unwrap();
        let Item::Stmt(Stmt::Assign { expr, .. }) = &ast.items[0] else {
            panic!();
        };
        assert_eq!(ast.exprs.display(*expr).to_string(), "((v<0)?(-v):v)");
    }

    #[test]
    fn if_else_statement() {
        let src = "if (Vm > 0) { a = 1; } else { a = 2; b = 3; }";
        let ast = parse_model("m", src).unwrap();
        let Item::Stmt(Stmt::If {
            then_body,
            else_body,
            ..
        }) = &ast.items[0]
        else {
            panic!();
        };
        assert_eq!(then_body.len(), 1);
        assert_eq!(else_body.len(), 2);
    }

    #[test]
    fn else_if_chains() {
        let src = "if (a > 0) { x = 1; } else if (a < 0) { x = 2; } else { x = 3; }";
        let ast = parse_model("m", src).unwrap();
        let Item::Stmt(Stmt::If { else_body, .. }) = &ast.items[0] else {
            panic!();
        };
        assert!(matches!(&else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn nested_calls() {
        let ast = parse_model("m", "x = pow(exp(a), log(b + 1));").unwrap();
        let Item::Stmt(Stmt::Assign { expr, .. }) = &ast.items[0] else {
            panic!();
        };
        assert_eq!(
            ast.exprs.display(*expr).to_string(),
            "pow(exp(a),log((b+1)))"
        );
        // Post-order: every operand precedes its operator, the root last.
        assert_eq!(expr.index(), ast.exprs.len() - 1);
    }

    #[test]
    fn markup_without_decl_is_error() {
        let err = parse_model("m", ".external();").unwrap_err();
        assert!(err.message.contains("no preceding declaration"));
        assert_eq!(err.code, ErrorCode::OrphanMarkup);
        assert_eq!(err.model.as_deref(), Some("m"));
    }

    #[test]
    fn markup_skips_statements_to_find_decl() {
        // `u1; ... diff_u1 = …; u1;.method(rk2);` pattern: markup after an
        // assignment attaches to the most recent decl.
        let ast = parse_model("m", "u1;\ndiff_u1 = 1;\n.method(rk2);").unwrap();
        let Item::Decl { markups, .. } = &ast.items[0] else {
            panic!();
        };
        assert_eq!(ast.exprs.name(markups[0].name), "method");
    }

    #[test]
    fn assignments_intern_the_variable_they_are_about() {
        let ast = parse_model(
            "m",
            "diff_v = 1;
w_init_init = 2;",
        )
        .unwrap();
        for name in ["diff_v", "v", "w_init_init", "w"] {
            assert!(ast.exprs.sym(name).is_some(), "{name}");
        }
        assert!(ast.exprs.sym("w_init").is_none());
    }

    #[test]
    fn error_line_numbers() {
        let err = parse_model("m", "x = 1;\ny = ;\n").unwrap_err();
        assert_eq!(err.span.line, 2);
        assert_eq!(err.span.col, 5);
        assert_eq!(err.code, ErrorCode::UnexpectedToken);
    }

    #[test]
    fn lex_errors_forward_model_name() {
        let err = parse_model("m", "x = $;").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnexpectedChar);
        assert_eq!(err.model.as_deref(), Some("m"));
    }
}
