//! STRUQL tokenizer.

use crate::error::StruqlError;
use crate::token::{Span, Token, TokenKind};

/// Tokenizes a STRUQL program. Comments run from `--`, `//`, or `#` to end
/// of line. The final token is always `Eof`.
pub fn lex(src: &str) -> Result<Vec<Token>, StruqlError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }
    macro_rules! push {
        ($kind:expr, $l:expr, $c:expr) => {
            tokens.push(Token {
                kind: $kind,
                span: Span::new($l, $c),
            })
        };
    }

    while i < bytes.len() {
        let (tl, tc) = (line, col);
        match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => bump!(),
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => {
                bump!();
                bump!();
                push!(TokenKind::Arrow, tl, tc);
            }
            b'(' => {
                bump!();
                push!(TokenKind::LParen, tl, tc);
            }
            b')' => {
                bump!();
                push!(TokenKind::RParen, tl, tc);
            }
            b'{' => {
                bump!();
                push!(TokenKind::LBrace, tl, tc);
            }
            b'}' => {
                bump!();
                push!(TokenKind::RBrace, tl, tc);
            }
            b',' => {
                bump!();
                push!(TokenKind::Comma, tl, tc);
            }
            b':' => {
                bump!();
                push!(TokenKind::Colon, tl, tc);
            }
            b'*' => {
                bump!();
                push!(TokenKind::Star, tl, tc);
            }
            b'+' => {
                bump!();
                push!(TokenKind::Plus, tl, tc);
            }
            b'?' => {
                bump!();
                push!(TokenKind::Question, tl, tc);
            }
            b'|' => {
                bump!();
                push!(TokenKind::Pipe, tl, tc);
            }
            b'.' => {
                bump!();
                push!(TokenKind::Dot, tl, tc);
            }
            b'=' => {
                bump!();
                push!(TokenKind::Eq, tl, tc);
            }
            b'!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                bump!();
                bump!();
                push!(TokenKind::Ne, tl, tc);
            }
            b'<' => {
                bump!();
                if i < bytes.len() && bytes[i] == b'=' {
                    bump!();
                    push!(TokenKind::Le, tl, tc);
                } else {
                    push!(TokenKind::Lt, tl, tc);
                }
            }
            b'>' => {
                bump!();
                if i < bytes.len() && bytes[i] == b'=' {
                    bump!();
                    push!(TokenKind::Ge, tl, tc);
                } else {
                    push!(TokenKind::Gt, tl, tc);
                }
            }
            b'"' => {
                bump!();
                let mut s = String::new();
                loop {
                    if i >= bytes.len() || bytes[i] == b'\n' {
                        return Err(StruqlError::parse(
                            Span::new(tl, tc),
                            "unterminated string literal",
                        ));
                    }
                    match bytes[i] {
                        b'"' => {
                            bump!();
                            break;
                        }
                        b'\\' => {
                            bump!();
                            if i >= bytes.len() {
                                return Err(StruqlError::parse(
                                    Span::new(tl, tc),
                                    "unterminated string literal",
                                ));
                            }
                            let esc = bytes[i];
                            s.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'"' => '"',
                                b'\\' => '\\',
                                other => {
                                    return Err(StruqlError::parse(
                                        Span::new(line, col),
                                        format!("unknown escape '\\{}'", other as char),
                                    ))
                                }
                            });
                            bump!();
                        }
                        _ => {
                            let rest = &src[i..];
                            let ch = rest.chars().next().expect("in-bounds char");
                            s.push(ch);
                            for _ in 0..ch.len_utf8() {
                                bump!();
                            }
                        }
                    }
                }
                push!(TokenKind::Str(s), tl, tc);
            }
            b'0'..=b'9' | b'-' => {
                // '-' here is always unary minus: arrow and comment forms
                // were matched above.
                let start = i;
                let mut is_float = false;
                if bytes[i] == b'-' {
                    if i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit() {
                        return Err(StruqlError::parse(
                            Span::new(tl, tc),
                            "expected digit after '-'",
                        ));
                    }
                    bump!();
                }
                while i < bytes.len() {
                    match bytes[i] {
                        b'0'..=b'9' => bump!(),
                        // Only treat '.' as part of a number when a digit
                        // follows — '.' is also the path concatenation
                        // operator.
                        b'.' if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() => {
                            is_float = true;
                            bump!();
                        }
                        _ => break,
                    }
                }
                let text = &src[start..i];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| {
                        StruqlError::parse(Span::new(tl, tc), format!("bad float '{text}'"))
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        StruqlError::parse(Span::new(tl, tc), format!("bad integer '{text}'"))
                    })?)
                };
                push!(kind, tl, tc);
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'\'')
                {
                    bump!();
                }
                push!(TokenKind::Ident(src[start..i].to_string()), tl, tc);
            }
            other => {
                return Err(StruqlError::parse(
                    Span::new(tl, tc),
                    format!("unexpected character '{}'", other as char),
                ))
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(line, col),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn arrows_vs_comments() {
        use TokenKind::*;
        assert_eq!(
            kinds("x -> y -- comment\nz"),
            vec![
                Ident("x".into()),
                Arrow,
                Ident("y".into()),
                Ident("z".into()),
                Eof
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        use TokenKind::*;
        assert_eq!(kinds("= != < <= > >="), vec![Eq, Ne, Lt, Le, Gt, Ge, Eof]);
    }

    #[test]
    fn path_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("\"a\" . \"b\" | \"c\" * + ?"),
            vec![
                Str("a".into()),
                Dot,
                Str("b".into()),
                Pipe,
                Str("c".into()),
                Star,
                Plus,
                Question,
                Eof
            ]
        );
    }

    #[test]
    fn dot_before_digit_is_float() {
        use TokenKind::*;
        assert_eq!(kinds("1.5"), vec![Float(1.5), Eof]);
        assert_eq!(
            kinds("x . y"),
            vec![Ident("x".into()), Dot, Ident("y".into()), Eof]
        );
    }

    #[test]
    fn primed_variables() {
        assert_eq!(
            kinds("q q'"),
            vec![
                TokenKind::Ident("q".into()),
                TokenKind::Ident("q'".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn all_comment_styles() {
        assert_eq!(
            kinds("a # x\nb // y\nc -- z\nd"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Ident("d".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\ndef\"").is_err());
    }

    #[test]
    fn spans_are_tracked() {
        let toks = lex("where\n  Publications(x)").unwrap();
        assert_eq!(toks[0].span, Span::new(1, 1));
        assert_eq!(toks[1].span, Span::new(2, 3));
    }
}
