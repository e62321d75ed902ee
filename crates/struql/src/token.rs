//! Tokens and source spans for STRUQL.

use std::fmt;

/// A source position (1-based line and column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Span {
    /// Constructs a span.
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier: variables, collection names, Skolem symbols, keywords.
    Ident(String),
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `->`
    Arrow,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `:` — ends a quantifier of a constraint (`forall p in Pages :`).
    Colon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `?`
    Question,
    /// `|`
    Pipe,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "'{s}'"),
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Float(x) => write!(f, "{x}"),
            TokenKind::Arrow => f.write_str("'->'"),
            TokenKind::LParen => f.write_str("'('"),
            TokenKind::RParen => f.write_str("')'"),
            TokenKind::LBrace => f.write_str("'{'"),
            TokenKind::RBrace => f.write_str("'}'"),
            TokenKind::Comma => f.write_str("','"),
            TokenKind::Colon => f.write_str("':'"),
            TokenKind::Star => f.write_str("'*'"),
            TokenKind::Plus => f.write_str("'+'"),
            TokenKind::Question => f.write_str("'?'"),
            TokenKind::Pipe => f.write_str("'|'"),
            TokenKind::Dot => f.write_str("'.'"),
            TokenKind::Eq => f.write_str("'='"),
            TokenKind::Ne => f.write_str("'!='"),
            TokenKind::Lt => f.write_str("'<'"),
            TokenKind::Le => f.write_str("'<='"),
            TokenKind::Gt => f.write_str("'>'"),
            TokenKind::Ge => f.write_str("'>='"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Payload.
    pub kind: TokenKind,
    /// Where the token starts.
    pub span: Span,
}
