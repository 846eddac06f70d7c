//! Lexer for the EasyML ionic-model description language.
//!
//! EasyML is the markup language used by openCARP to describe ionic models
//! (see paper §2.2). Tokens follow C expression syntax plus the markup
//! punctuation (`.markup(args);`) and the `group { … }` construct.

use crate::diag::{Diagnostic, ErrorCode, Span};
use std::fmt;

/// A lexical token with its source position. Identifiers borrow from the
/// source text, so lexing allocates nothing per token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// The token kind and payload.
    pub kind: TokenKind<'src>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column of the token's first byte.
    pub col: usize,
}

impl Token<'_> {
    /// The token's source span.
    pub fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }
}

/// Token kinds of EasyML.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier or keyword (`group`, `if`, `else` are recognized later),
    /// as a slice of the source.
    Ident(&'src str),
    /// Numeric literal.
    Num(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.` (markup introducer)
    Dot,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `?`
    Question,
    /// `:`
    Colon,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Num(v) => write!(f, "number `{v}`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Assign => write!(f, "`=`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Percent => write!(f, "`%`"),
            TokenKind::Question => write!(f, "`?`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::NotEq => write!(f, "`!=`"),
            TokenKind::AndAnd => write!(f, "`&&`"),
            TokenKind::OrOr => write!(f, "`||`"),
            TokenKind::Not => write!(f, "`!`"),
        }
    }
}

/// A lexical error: a [`Diagnostic`] with an `E01xx` code.
pub type LexError = Diagnostic;

/// Tokenizes EasyML source.
///
/// Comments run from `#` or `//` to end-of-line, and from `/*` to `*/`.
///
/// # Errors
///
/// Returns a [`LexError`] on malformed numbers or unexpected characters.
///
/// # Examples
///
/// ```
/// use limpet_easyml::lex;
/// let toks = lex("diff_u2 = -(u1+u3-Vm)*cube(u2);").unwrap();
/// assert_eq!(toks.len(), 16);
/// ```
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    // About one token per three source bytes in the roster's models.
    let mut toks = Vec::with_capacity(src.len() / 2);
    let mut pos = 0usize;
    let mut line = 1usize;
    // Byte offset of the current line's first byte; columns derive from it.
    let mut line_start = 0usize;

    macro_rules! push_at {
        ($kind:expr, $start:expr) => {
            toks.push(Token {
                kind: $kind,
                line,
                col: $start - line_start + 1,
            })
        };
    }
    macro_rules! push {
        ($kind:expr) => {
            push_at!($kind, pos)
        };
    }
    macro_rules! err {
        ($code:expr, $($msg:tt)*) => {
            Diagnostic::new(
                $code,
                Span { line, col: pos - line_start + 1 },
                format!($($msg)*),
            )
        };
    }

    while pos < bytes.len() {
        let c = bytes[pos];
        match c {
            b'\n' => {
                line += 1;
                pos += 1;
                line_start = pos;
            }
            b' ' | b'\t' | b'\r' => pos += 1,
            b'#' => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'/' if bytes.get(pos + 1) == Some(&b'/') => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'/' if bytes.get(pos + 1) == Some(&b'*') => {
                pos += 2;
                loop {
                    if pos + 1 >= bytes.len() {
                        return Err(err!(
                            ErrorCode::UnterminatedComment,
                            "unterminated block comment"
                        ));
                    }
                    if bytes[pos] == b'\n' {
                        line += 1;
                        line_start = pos + 1;
                    }
                    if bytes[pos] == b'*' && bytes[pos + 1] == b'/' {
                        pos += 2;
                        break;
                    }
                    pos += 1;
                }
            }
            b'(' => {
                push!(TokenKind::LParen);
                pos += 1;
            }
            b')' => {
                push!(TokenKind::RParen);
                pos += 1;
            }
            b'{' => {
                push!(TokenKind::LBrace);
                pos += 1;
            }
            b'}' => {
                push!(TokenKind::RBrace);
                pos += 1;
            }
            b';' => {
                push!(TokenKind::Semi);
                pos += 1;
            }
            b',' => {
                push!(TokenKind::Comma);
                pos += 1;
            }
            b'+' => {
                push!(TokenKind::Plus);
                pos += 1;
            }
            b'-' => {
                push!(TokenKind::Minus);
                pos += 1;
            }
            b'*' => {
                push!(TokenKind::Star);
                pos += 1;
            }
            b'/' => {
                push!(TokenKind::Slash);
                pos += 1;
            }
            b'%' => {
                push!(TokenKind::Percent);
                pos += 1;
            }
            b'?' => {
                push!(TokenKind::Question);
                pos += 1;
            }
            b':' => {
                push!(TokenKind::Colon);
                pos += 1;
            }
            b'<' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(TokenKind::Le);
                    pos += 2;
                } else {
                    push!(TokenKind::Lt);
                    pos += 1;
                }
            }
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(TokenKind::Ge);
                    pos += 2;
                } else {
                    push!(TokenKind::Gt);
                    pos += 1;
                }
            }
            b'=' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(TokenKind::EqEq);
                    pos += 2;
                } else {
                    push!(TokenKind::Assign);
                    pos += 1;
                }
            }
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push!(TokenKind::NotEq);
                    pos += 2;
                } else {
                    push!(TokenKind::Not);
                    pos += 1;
                }
            }
            b'&' => {
                if bytes.get(pos + 1) == Some(&b'&') {
                    push!(TokenKind::AndAnd);
                    pos += 2;
                } else {
                    return Err(err!(
                        ErrorCode::BadOperator,
                        "single `&` is not an EasyML operator"
                    ));
                }
            }
            b'|' => {
                if bytes.get(pos + 1) == Some(&b'|') {
                    push!(TokenKind::OrOr);
                    pos += 2;
                } else {
                    return Err(err!(
                        ErrorCode::BadOperator,
                        "single `|` is not an EasyML operator"
                    ));
                }
            }
            b'0'..=b'9' => {
                let start = pos;
                let mut seen_e = false;
                while pos < bytes.len() {
                    match bytes[pos] {
                        b'0'..=b'9' | b'.' => pos += 1,
                        b'e' | b'E' if !seen_e => {
                            seen_e = true;
                            pos += 1;
                            if matches!(bytes.get(pos), Some(b'+') | Some(b'-')) {
                                pos += 1;
                            }
                        }
                        _ => break,
                    }
                }
                // The scanned bytes are ASCII, so both ends are char
                // boundaries of `src`.
                let text = &src[start..pos];
                let v: f64 = text
                    .parse()
                    .map_err(|_| err!(ErrorCode::MalformedNumber, "malformed number `{text}`"))?;
                push_at!(TokenKind::Num(v), start);
            }
            b'.' => {
                // Either a markup dot or a leading-dot float like `.05`.
                if matches!(bytes.get(pos + 1), Some(b'0'..=b'9')) {
                    let start = pos;
                    pos += 1;
                    let mut seen_e = false;
                    while pos < bytes.len() {
                        match bytes[pos] {
                            b'0'..=b'9' => pos += 1,
                            b'e' | b'E' if !seen_e => {
                                seen_e = true;
                                pos += 1;
                                if matches!(bytes.get(pos), Some(b'+') | Some(b'-')) {
                                    pos += 1;
                                }
                            }
                            _ => break,
                        }
                    }
                    let text = &src[start..pos];
                    let v: f64 = text.parse().map_err(|_| {
                        err!(ErrorCode::MalformedNumber, "malformed number `{text}`")
                    })?;
                    push_at!(TokenKind::Num(v), start);
                } else {
                    push!(TokenKind::Dot);
                    pos += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                push_at!(TokenKind::Ident(&src[start..pos]), start);
            }
            other => {
                return Err(err!(
                    ErrorCode::UnexpectedChar,
                    "unexpected character `{}`",
                    other as char
                ))
            }
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_markup_line() {
        let k = kinds("Vm; .external(); .lookup(-100,100,0.05);");
        assert_eq!(k[0], TokenKind::Ident("Vm"));
        assert_eq!(k[1], TokenKind::Semi);
        assert_eq!(k[2], TokenKind::Dot);
        assert_eq!(k[3], TokenKind::Ident("external"));
        assert!(k.contains(&TokenKind::Num(0.05)));
        // -100 lexes as Minus then Num(100).
        assert!(k.contains(&TokenKind::Minus));
        assert!(k.contains(&TokenKind::Num(100.0)));
    }

    #[test]
    fn lexes_leading_dot_float() {
        let k = kinds("x = .5;");
        assert!(k.contains(&TokenKind::Num(0.5)));
    }

    #[test]
    fn trailing_dot_number_then_markup() {
        // `2.` is a float; `2.);` from the paper's `(Cm/2.)` pattern.
        let k = kinds("Iion = Cm/2.;");
        assert!(k.contains(&TokenKind::Num(2.0)));
    }

    #[test]
    fn lexes_comments() {
        let k = kinds("# full line\nx = 1; // tail\n/* block\nspanning */ y = 2;");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("x"),
                TokenKind::Assign,
                TokenKind::Num(1.0),
                TokenKind::Semi,
                TokenKind::Ident("y"),
                TokenKind::Assign,
                TokenKind::Num(2.0),
                TokenKind::Semi,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let k = kinds("a<=b >= c != d == e && f || !g");
        assert!(k.contains(&TokenKind::Le));
        assert!(k.contains(&TokenKind::Ge));
        assert!(k.contains(&TokenKind::NotEq));
        assert!(k.contains(&TokenKind::EqEq));
        assert!(k.contains(&TokenKind::AndAnd));
        assert!(k.contains(&TokenKind::OrOr));
        assert!(k.contains(&TokenKind::Not));
    }

    #[test]
    fn scientific_notation() {
        let k = kinds("x = 1.5e-3 + 2E+4;");
        assert!(k.contains(&TokenKind::Num(1.5e-3)));
        assert!(k.contains(&TokenKind::Num(2e4)));
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = lex("a = 1;\nb = 2;\n\nc = 3;").unwrap();
        let line_of = |name: &str| {
            toks.iter()
                .find(|t| t.kind == TokenKind::Ident(name))
                .unwrap()
                .line
        };
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 2);
        assert_eq!(line_of("c"), 4);
    }

    #[test]
    fn error_on_stray_char() {
        let err = lex("x = $;").unwrap_err();
        assert!(err.message.contains('$'));
        assert_eq!(err.span.line, 1);
        assert_eq!(err.span.col, 5);
        assert_eq!(err.code, ErrorCode::UnexpectedChar);
    }

    #[test]
    fn error_on_unterminated_block_comment() {
        let err = lex("/* nope").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnterminatedComment);
    }

    #[test]
    fn columns_tracked_per_line() {
        let toks = lex("a = 1;\n  bb = 22;").unwrap();
        let tok = |name: &str| {
            toks.iter()
                .find(|t| t.kind == TokenKind::Ident(name))
                .unwrap()
        };
        assert_eq!((tok("a").line, tok("a").col), (1, 1));
        assert_eq!((tok("bb").line, tok("bb").col), (2, 3));
        let num22 = toks
            .iter()
            .find(|t| t.kind == TokenKind::Num(22.0))
            .unwrap();
        assert_eq!((num22.line, num22.col), (2, 8));
    }
}
