//! Recursive-descent parser for STRUQL.

use crate::ast::*;
use crate::error::{StruqlError, StruqlResult};
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};
use strudel_graph::Value;

/// Reserved words that cannot name variables or collections.
const RESERVED: &[&str] = &["where", "create", "link", "collect", "not", "true", "false"];

/// Parses and statically checks a STRUQL program.
///
/// Equivalent to `parse_unchecked` (available for tooling via this
/// module) followed by [`analyze::check`](crate::analyze::check).
pub fn parse(src: &str) -> StruqlResult<Program> {
    let program = parse_unchecked(src)?;
    crate::analyze::check(&program)?;
    Ok(program)
}

/// Parses a standalone regular path expression (the `R` of `x -> R -> y`),
/// e.g. `"cites"* . ("journal" | "booktitle")`.
pub fn parse_path_regex(src: &str) -> StruqlResult<PathRegex> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let r = p.regex_alt()?;
    if p.peek().kind != TokenKind::Eof {
        return Err(p.err_here("trailing input after path expression"));
    }
    Ok(r)
}

/// The quantifiers of a quantified conjunction as `(kind, var,
/// collection)`, outermost first, and its conditions in textual order.
type Quantified<Q> = (Vec<(Q, String, String)>, Vec<Condition>);

/// Parses a quantified conjunction, the shape of the schema crate's
/// integrity constraints (§2.5): a prefix of quantifiers
/// `word var 'in' Collection ':'`, then where conditions joined by `and`,
/// where `var in Collection` is the membership `Collection(var)`. A
/// leading word opens a quantifier when `quantifier` maps it to a kind.
pub fn parse_conjunction<Q>(
    src: &str,
    quantifier: impl Fn(&str) -> Option<Q>,
) -> StruqlResult<Quantified<Q>> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut prefix = Vec::new();
    while let TokenKind::Ident(word) = &p.peek().kind {
        let Some(kind) = quantifier(word) else { break };
        p.advance();
        let (var, _) = p.non_reserved_ident("a quantified variable")?;
        if !p.at_keyword("in") {
            let found = &p.peek().kind;
            return Err(p.err_here(format!("expected 'in' after '{var}', found {found}")));
        }
        p.advance();
        let (collection, _) = p.non_reserved_ident("a collection name")?;
        p.eat(&TokenKind::Colon, "':' ending the quantifier")?;
        prefix.push((kind, var, collection));
    }
    let mut conds = vec![p.conjunct()?];
    while p.at_keyword("and") {
        p.advance();
        conds.push(p.conjunct()?);
    }
    if p.peek().kind != TokenKind::Eof {
        let found = &p.peek().kind;
        return Err(p.err_here(format!("expected 'and' or end of input, found {found}")));
    }
    Ok((prefix, conds))
}

/// Parses a STRUQL program without static checks. Useful for tooling that
/// wants to inspect malformed programs; evaluation requires a checked
/// program.
pub fn parse_unchecked(src: &str) -> StruqlResult<Program> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut blocks = Vec::new();
    while p.peek().kind != TokenKind::Eof {
        blocks.push(p.block()?);
    }
    if blocks.is_empty() {
        return Err(StruqlError::parse(Span::new(1, 1), "empty program"));
    }
    Ok(Program { blocks })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> StruqlError {
        StruqlError::parse(self.peek().span, msg)
    }

    fn eat(&mut self, kind: &TokenKind, what: &str) -> StruqlResult<Token> {
        if std::mem::discriminant(&self.peek().kind) == std::mem::discriminant(kind) {
            Ok(self.advance())
        } else {
            Err(self.err_here(format!("expected {what}, found {}", self.peek().kind)))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn ident(&mut self, what: &str) -> StruqlResult<(String, Span)> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let t = self.advance();
                if let TokenKind::Ident(s) = t.kind {
                    Ok((s, t.span))
                } else {
                    unreachable!()
                }
            }
            _ => Err(self.err_here(format!("expected {what}, found {}", self.peek().kind))),
        }
    }

    fn non_reserved_ident(&mut self, what: &str) -> StruqlResult<(String, Span)> {
        let (s, span) = self.ident(what)?;
        if RESERVED.contains(&s.as_str()) {
            return Err(StruqlError::parse(
                span,
                format!("'{s}' is a reserved word and cannot be used as {what}"),
            ));
        }
        Ok((s, span))
    }

    /// One block. A `where` clause may only open a block (a later `where`
    /// begins the next top-level block); `create`, `link`, `collect`
    /// sections and nested `{ … }` blocks may then interleave freely and
    /// repeat — the paper's Fig. 3 puts `collect` after nested blocks.
    fn block(&mut self) -> StruqlResult<Block> {
        let span = self.peek().span;
        let mut block = Block {
            span,
            ..Block::default()
        };
        let mut any = false;

        if self.at_keyword("where") {
            self.advance();
            block.where_ = self.comma_list(Self::condition)?;
            any = true;
        }
        loop {
            if self.at_keyword("create") {
                self.advance();
                block.create.extend(self.comma_list(Self::create_term)?);
            } else if self.at_keyword("link") {
                self.advance();
                block.link.extend(self.comma_list(Self::link_expr)?);
            } else if self.at_keyword("collect") {
                self.advance();
                block.collect.extend(self.comma_list(Self::collect_expr)?);
            } else if self.peek().kind == TokenKind::LBrace {
                self.advance();
                let nested = self.block()?;
                self.eat(&TokenKind::RBrace, "'}' closing nested block")?;
                block.nested.push(nested);
            } else {
                break;
            }
            any = true;
        }
        if !any {
            return Err(self.err_here(
                "expected a block ('where', 'create', 'link', 'collect', or '{')",
            ));
        }
        Ok(block)
    }

    /// Parses `item (',' item)*`, stopping before keywords, braces, or EOF.
    fn comma_list<T>(
        &mut self,
        item: fn(&mut Self) -> StruqlResult<T>,
    ) -> StruqlResult<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            out.push(item(self)?);
        }
        Ok(out)
    }

    // ----- where-stage ----------------------------------------------------

    fn condition(&mut self) -> StruqlResult<Condition> {
        let span = self.peek().span;
        // not(…)
        if self.at_keyword("not") {
            self.advance();
            self.eat(&TokenKind::LParen, "'(' after 'not'")?;
            let inner = self.condition()?;
            self.eat(&TokenKind::RParen, "')' closing 'not'")?;
            return Ok(Condition::Not(Box::new(inner), span));
        }
        // Builtin or collection atom: IDENT '(' term ')'
        if let TokenKind::Ident(name) = &self.peek().kind {
            if self.peek2().kind == TokenKind::LParen {
                let name = name.clone();
                let (_, span) = self.ident("atom name")?;
                self.eat(&TokenKind::LParen, "'('")?;
                let arg = self.where_term()?;
                self.eat(&TokenKind::RParen, "')'")?;
                return Ok(match BuiltinPred::from_name(&name) {
                    Some(pred) => Condition::Builtin { pred, arg, span },
                    None => {
                        if RESERVED.contains(&name.as_str()) {
                            return Err(StruqlError::parse(
                                span,
                                format!("'{name}' cannot name a collection"),
                            ));
                        }
                        Condition::Collection { name, arg, span }
                    }
                });
            }
        }
        // Path atom or comparison: term (…)
        let lhs = self.where_term()?;
        match self.peek().kind {
            TokenKind::Arrow => {
                self.advance();
                let path = self.path_spec()?;
                self.eat(&TokenKind::Arrow, "'->' after path expression")?;
                let dst = self.where_term()?;
                Ok(Condition::Path {
                    src: lhs,
                    path,
                    dst,
                    span,
                })
            }
            TokenKind::Eq
            | TokenKind::Ne
            | TokenKind::Lt
            | TokenKind::Le
            | TokenKind::Gt
            | TokenKind::Ge => {
                let op = match self.advance().kind {
                    TokenKind::Eq => CmpOp::Eq,
                    TokenKind::Ne => CmpOp::Ne,
                    TokenKind::Lt => CmpOp::Lt,
                    TokenKind::Le => CmpOp::Le,
                    TokenKind::Gt => CmpOp::Gt,
                    TokenKind::Ge => CmpOp::Ge,
                    _ => unreachable!(),
                };
                let rhs = self.where_term()?;
                Ok(Condition::Compare { op, lhs, rhs, span })
            }
            _ => Err(self.err_here("expected '->' or a comparison operator")),
        }
    }

    /// A condition of a conjunction: `var in Collection`, or any where
    /// condition.
    fn conjunct(&mut self) -> StruqlResult<Condition> {
        if !matches!(&self.peek2().kind, TokenKind::Ident(w) if w == "in") {
            return self.condition();
        }
        let (var, span) = self.non_reserved_ident("a variable")?;
        self.advance();
        let (name, _) = self.non_reserved_ident("a collection name")?;
        Ok(Condition::Collection {
            name,
            arg: Term::Var(var),
            span,
        })
    }

    /// A term legal in the where stage: variable or constant.
    fn where_term(&mut self) -> StruqlResult<Term> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                match s.as_str() {
                    "true" => {
                        self.advance();
                        Ok(Term::Const(Value::Bool(true)))
                    }
                    "false" => {
                        self.advance();
                        Ok(Term::Const(Value::Bool(false)))
                    }
                    _ => {
                        let (v, span) = self.non_reserved_ident("a variable")?;
                        if self.peek().kind == TokenKind::LParen {
                            return Err(StruqlError::parse(
                                span,
                                "Skolem terms are not allowed in the where stage",
                            ));
                        }
                        Ok(Term::Var(v))
                    }
                }
            }
            TokenKind::Str(s) => {
                let v = Value::string(s.clone());
                self.advance();
                Ok(Term::Const(v))
            }
            TokenKind::Int(i) => {
                let v = Value::Int(*i);
                self.advance();
                Ok(Term::Const(v))
            }
            TokenKind::Float(x) => {
                let v = Value::Float(*x);
                self.advance();
                Ok(Term::Const(v))
            }
            other => Err(self.err_here(format!("expected a term, found {other}"))),
        }
    }

    fn path_spec(&mut self) -> StruqlResult<PathSpec> {
        // A single non-keyword identifier is an arc variable …
        if let TokenKind::Ident(name) = &self.peek().kind {
            if name != "true" {
                let (v, _) = self.non_reserved_ident("an arc variable")?;
                return Ok(PathSpec::ArcVar(v));
            }
        }
        // … everything else is a regular path expression.
        Ok(PathSpec::Regex(self.regex_alt()?))
    }

    fn regex_alt(&mut self) -> StruqlResult<PathRegex> {
        let mut left = self.regex_seq()?;
        while self.peek().kind == TokenKind::Pipe {
            self.advance();
            let right = self.regex_seq()?;
            left = PathRegex::Alt(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn regex_seq(&mut self) -> StruqlResult<PathRegex> {
        let mut left = self.regex_postfix()?;
        while self.peek().kind == TokenKind::Dot {
            self.advance();
            let right = self.regex_postfix()?;
            left = PathRegex::Seq(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn regex_postfix(&mut self) -> StruqlResult<PathRegex> {
        let mut inner = self.regex_primary()?;
        loop {
            match self.peek().kind {
                TokenKind::Star => {
                    self.advance();
                    inner = PathRegex::Star(Box::new(inner));
                }
                TokenKind::Plus => {
                    self.advance();
                    inner = PathRegex::Plus(Box::new(inner));
                }
                TokenKind::Question => {
                    self.advance();
                    inner = PathRegex::Opt(Box::new(inner));
                }
                _ => return Ok(inner),
            }
        }
    }

    fn regex_primary(&mut self) -> StruqlResult<PathRegex> {
        match &self.peek().kind {
            TokenKind::Str(s) => {
                let r = PathRegex::Label(s.clone());
                self.advance();
                Ok(r)
            }
            TokenKind::Ident(s) if s == "true" => {
                self.advance();
                Ok(PathRegex::Any)
            }
            // Bare `*` abbreviates `true*` — "we abbreviate the latter
            // with *" (§2.2).
            TokenKind::Star => {
                self.advance();
                Ok(PathRegex::Star(Box::new(PathRegex::Any)))
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.regex_alt()?;
                self.eat(&TokenKind::RParen, "')' closing path group")?;
                Ok(inner)
            }
            other => Err(self.err_here(format!(
                "expected a path expression (label literal, 'true', '*', or '('), found {other}"
            ))),
        }
    }

    // ----- construction stage ----------------------------------------------

    /// A term in the `create` clause: must be a Skolem term.
    fn create_term(&mut self) -> StruqlResult<Term> {
        let span = self.peek().span;
        let term = self.construct_term()?;
        match term {
            Term::Skolem { .. } => Ok(term),
            _ => Err(StruqlError::parse(
                span,
                "create clause expects Skolem terms like Page(x) or Root()",
            )),
        }
    }

    /// A term in the construction stage: Skolem term, variable, or
    /// constant.
    fn construct_term(&mut self) -> StruqlResult<Term> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                match s.as_str() {
                    "true" => {
                        self.advance();
                        return Ok(Term::Const(Value::Bool(true)));
                    }
                    "false" => {
                        self.advance();
                        return Ok(Term::Const(Value::Bool(false)));
                    }
                    _ => {}
                }
                let (name, _) = self.non_reserved_ident("a term")?;
                if self.peek().kind == TokenKind::LParen {
                    self.advance();
                    let mut args = Vec::new();
                    if self.peek().kind != TokenKind::RParen {
                        args = self.comma_list(Self::construct_term)?;
                    }
                    self.eat(&TokenKind::RParen, "')' closing Skolem term")?;
                    Ok(Term::Skolem { symbol: name, args })
                } else {
                    Ok(Term::Var(name))
                }
            }
            TokenKind::Str(s) => {
                let v = Value::string(s.clone());
                self.advance();
                Ok(Term::Const(v))
            }
            TokenKind::Int(i) => {
                let v = Value::Int(*i);
                self.advance();
                Ok(Term::Const(v))
            }
            TokenKind::Float(x) => {
                let v = Value::Float(*x);
                self.advance();
                Ok(Term::Const(v))
            }
            other => Err(self.err_here(format!("expected a term, found {other}"))),
        }
    }

    fn link_expr(&mut self) -> StruqlResult<LinkExpr> {
        let span = self.peek().span;
        let src = self.construct_term()?;
        self.eat(&TokenKind::Arrow, "'->' in link expression")?;
        let label = match &self.peek().kind {
            TokenKind::Str(s) => {
                let l = LabelTerm::Const(s.clone());
                self.advance();
                l
            }
            TokenKind::Ident(_) => {
                let (v, _) = self.non_reserved_ident("an arc variable")?;
                LabelTerm::Var(v)
            }
            other => {
                return Err(self.err_here(format!(
                    "expected a label literal or arc variable, found {other}"
                )))
            }
        };
        self.eat(&TokenKind::Arrow, "'->' in link expression")?;
        let dst = self.construct_term()?;
        Ok(LinkExpr {
            src,
            label,
            dst,
            span,
        })
    }

    fn collect_expr(&mut self) -> StruqlResult<CollectExpr> {
        let (collection, span) = self.non_reserved_ident("a collection name")?;
        self.eat(&TokenKind::LParen, "'(' after collection name")?;
        let arg = self.construct_term()?;
        self.eat(&TokenKind::RParen, "')'")?;
        Ok(CollectExpr {
            collection,
            arg,
            span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_textonly_query() {
        let q = r#"
            where Root(p), p -> * -> q, q -> l -> r, not(isImageFile(r))
            create New(p), New(q), New(r)
            link   New(q) -> l -> New(r)
            collect TextOnlyRoot(New(p))
        "#;
        let prog = parse_unchecked(q).unwrap();
        assert_eq!(prog.blocks.len(), 1);
        let b = &prog.blocks[0];
        assert_eq!(b.where_.len(), 4);
        assert_eq!(b.create.len(), 3);
        assert_eq!(b.link.len(), 1);
        assert_eq!(b.collect.len(), 1);
        assert!(matches!(&b.where_[3], Condition::Not(..)));
        assert!(matches!(
            &b.where_[1],
            Condition::Path {
                path: PathSpec::Regex(PathRegex::Star(_)),
                ..
            }
        ));
        assert!(matches!(
            &b.where_[2],
            Condition::Path {
                path: PathSpec::ArcVar(v),
                ..
            } if v == "l"
        ));
    }

    #[test]
    fn parses_multiple_blocks_and_nesting() {
        let q = r#"
            create RootPage(), AbstractsPage()
            link RootPage() -> "Abstracts" -> AbstractsPage()

            where Publications(x)
            create AbstractPage(x), PaperPresentation(x)
            link AbstractsPage() -> "Abstract" -> AbstractPage(x)
            { where x -> l -> v
              link PaperPresentation(x) -> l -> v }
            { where x -> "year" -> y
              create YearPage(y)
              link YearPage(y) -> "Year" -> y,
                   YearPage(y) -> "Paper" -> PaperPresentation(x),
                   RootPage() -> "YearPage" -> YearPage(y) }
        "#;
        let prog = parse_unchecked(q).unwrap();
        assert_eq!(prog.blocks.len(), 2);
        assert_eq!(prog.blocks[1].nested.len(), 2);
        assert_eq!(prog.blocks[1].nested[1].link.len(), 3);
        assert_eq!(prog.link_clause_count(), 6);
        let symbols = prog.skolem_symbols();
        assert!(symbols.contains(&"YearPage"));
        assert!(symbols.contains(&"RootPage"));
    }

    #[test]
    fn parses_comparisons() {
        let q = r#"where Publications(x), x -> "year" -> y, y >= 1997, y != 2000 create P(x)"#;
        let prog = parse_unchecked(q).unwrap();
        assert!(matches!(
            &prog.blocks[0].where_[2],
            Condition::Compare { op: CmpOp::Ge, .. }
        ));
    }

    #[test]
    fn parses_regex_forms() {
        let q = r#"where x -> ("a" | "b") . true* . "c"+ . "d"? -> y create P(x)"#;
        let prog = parse_unchecked(q).unwrap();
        let Condition::Path {
            path: PathSpec::Regex(r),
            ..
        } = &prog.blocks[0].where_[0]
        else {
            panic!("expected regex path");
        };
        // ((a|b) . true*) . c+) . d?
        let mut seqs = 0;
        fn count_seqs(r: &PathRegex, n: &mut usize) {
            if let PathRegex::Seq(a, b) = r {
                *n += 1;
                count_seqs(a, n);
                count_seqs(b, n);
            }
        }
        count_seqs(r, &mut seqs);
        assert_eq!(seqs, 3);
    }

    #[test]
    fn create_requires_skolem_terms() {
        let err = parse_unchecked("create x").unwrap_err();
        assert!(err.message().contains("Skolem"));
    }

    #[test]
    fn skolem_in_where_is_rejected() {
        let err = parse_unchecked("where P(F(x)) create G(x)").unwrap_err();
        assert!(err.message().contains("where stage"), "{err}");
    }

    #[test]
    fn reserved_words_rejected_as_names() {
        assert!(parse_unchecked("where where(x) create P(x)").is_err());
        assert!(parse_unchecked("collect true(x)").is_err());
    }

    #[test]
    fn empty_program_is_rejected() {
        assert!(parse_unchecked("").is_err());
        assert!(parse_unchecked("  -- just a comment\n").is_err());
    }

    #[test]
    fn constants_in_conditions() {
        let q = r#"where x -> "year" -> 1998 create P(x)"#;
        let prog = parse_unchecked(q).unwrap();
        assert!(matches!(
            &prog.blocks[0].where_[0],
            Condition::Path {
                dst: Term::Const(Value::Int(1998)),
                ..
            }
        ));
    }

    #[test]
    fn link_label_forms() {
        let q = r#"where x -> l -> y create P(x) link P(x) -> "lit" -> y, P(x) -> l -> y"#;
        let prog = parse_unchecked(q).unwrap();
        assert!(matches!(&prog.blocks[0].link[0].label, LabelTerm::Const(s) if s == "lit"));
        assert!(matches!(&prog.blocks[0].link[1].label, LabelTerm::Var(v) if v == "l"));
    }

    #[test]
    fn collect_accepts_skolem_and_vars() {
        let q = r#"where C(x) create P(x) collect Out(P(x)), Others(x)"#;
        let prog = parse_unchecked(q).unwrap();
        assert_eq!(prog.blocks[0].collect.len(), 2);
    }

    #[test]
    fn nested_skolem_args() {
        let q = r#"where C(x) create P(Q(x), "tag")"#;
        let prog = parse_unchecked(q).unwrap();
        let Term::Skolem { symbol, args } = &prog.blocks[0].create[0] else {
            panic!()
        };
        assert_eq!(symbol, "P");
        assert_eq!(args.len(), 2);
        assert!(matches!(&args[0], Term::Skolem { .. }));
    }

    #[test]
    fn error_positions_are_useful() {
        let err = parse_unchecked("where P(x) create").unwrap_err();
        let StruqlError::Parse { span, .. } = err else {
            panic!()
        };
        assert_eq!(span.line, 1);
    }
}
