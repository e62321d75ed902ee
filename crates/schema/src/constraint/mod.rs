//! Integrity constraints on Strudel-generated sites.
//!
//! The paper (§2.5): *"Integrity constraints are logical sentences built
//! from expressions of the form `C(X)` and `X -> R -> Y` using logical
//! connectives and quantifiers"*, e.g. "all paper presentation pages are
//! reachable from a category page":
//!
//! ```text
//! forall p in PaperPages : exists c in CategoryPages : c -> * -> p
//! ```
//!
//! The concrete syntax accepted by [`parse_constraint`] is a quantifier
//! prefix over a STRUQL where clause, parsed by STRUQL's own lexer and
//! condition parser ([`strudel_struql::parse_conjunction`]):
//!
//! ```text
//! constraint := quantifier* body
//! quantifier := ('forall' | 'exists') var 'in' Collection ':'
//! body       := atom ('and' atom)*
//! atom       := var '->' R '->' term        -- R: STRUQL path regex
//!             | var 'in' Collection         -- STRUQL's Collection(var)
//! term       := var | STRUQL constant
//! ```
//!
//! Free variables in path-atom target position are implicitly
//! existentially quantified ("the page has *a* title").
//!
//! Two checkers read this AST:
//!
//! * [`runtime::check`] — complete, over a materialized graph: the body
//!   runs through STRUQL's evaluator, the prefix is a loop over members;
//! * [`verify::verify`] — sound static proof against the site schema,
//!   deciding `Proved` without materializing any site, or `Unknown`.

pub mod runtime;
pub mod verify;

use std::fmt;
use strudel_struql::{parse_conjunction, pretty_condition, Condition, PathSpec, Term};

/// Quantifier kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quant {
    /// Universal.
    Forall,
    /// Existential.
    Exists,
}

/// One quantifier: `forall v in Coll`.
#[derive(Clone, Debug, PartialEq)]
pub struct Quantifier {
    /// Kind.
    pub quant: Quant,
    /// Bound variable.
    pub var: String,
    /// The collection the variable ranges over.
    pub collection: String,
}

/// A parsed constraint: a quantifier prefix over a conjunction of where
/// conditions, each a path (`Condition::Path` with a path regex) from a
/// quantified variable or the membership (`Condition::Collection`) of one.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// Quantifier prefix, outermost first.
    pub quantifiers: Vec<Quantifier>,
    /// Body conjunction.
    pub atoms: Vec<Condition>,
    /// The original source text (for reports).
    pub source: String,
}

/// A constraint syntax error.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint error: {}", self.message)
    }
}

impl std::error::Error for ConstraintError {}

fn err(message: impl Into<String>) -> ConstraintError {
    ConstraintError {
        message: message.into(),
    }
}

/// Parses a constraint.
pub fn parse_constraint(src: &str) -> Result<Constraint, ConstraintError> {
    let (prefix, atoms) = parse_conjunction(src, |word| match word {
        "forall" => Some(Quant::Forall),
        "exists" => Some(Quant::Exists),
        _ => None,
    })
    .map_err(|e| err(e.to_string()))?;
    let quantifiers: Vec<Quantifier> = prefix
        .into_iter()
        .map(|(quant, var, collection)| Quantifier {
            quant,
            var,
            collection,
        })
        .collect();

    // Scope sanity: path sources and members must be quantified variables.
    let quantified = |t: &Term, what: &str| match t {
        Term::Var(v) if quantifiers.iter().any(|q| &q.var == v) => Ok(()),
        Term::Var(v) => Err(err(format!("{what} '{v}' is not a quantified variable"))),
        _ => Err(err(format!("{what} is not a quantified variable"))),
    };
    for a in &atoms {
        match a {
            Condition::Path { src, path, .. } => {
                quantified(src, "path source")?;
                if let PathSpec::ArcVar(l) = path {
                    return Err(err(format!(
                        "'{l}' is an arc variable; a constraint path is a path \
                         expression (a label is written \"{l}\")"
                    )));
                }
            }
            Condition::Collection { arg, .. } => quantified(arg, "membership variable")?,
            other => {
                return Err(err(format!(
                    "'{}' is not a constraint atom (a path or a membership)",
                    pretty_condition(other)
                )))
            }
        }
    }

    Ok(Constraint {
        quantifiers,
        atoms,
        source: src.trim().to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::Value;

    /// The target term of the constraint's one path atom.
    fn target(c: &Constraint) -> &Term {
        let [Condition::Path { dst, .. }] = c.atoms.as_slice() else {
            panic!("one path atom: {c:?}")
        };
        dst
    }

    #[test]
    fn parses_reachability_constraint() {
        let c = parse_constraint(
            "forall p in PaperPages : exists c in CategoryPages : c -> * -> p",
        )
        .unwrap();
        assert_eq!(c.quantifiers.len(), 2);
        assert_eq!(c.quantifiers[0].quant, Quant::Forall);
        assert_eq!(c.quantifiers[1].quant, Quant::Exists);
        assert_eq!(c.atoms.len(), 1);
        let Condition::Path { src, dst, .. } = &c.atoms[0] else {
            panic!()
        };
        assert_eq!(src, &Term::Var("c".into()));
        assert_eq!(dst, &Term::Var("p".into()));
    }

    #[test]
    fn parses_attribute_existence() {
        let c = parse_constraint(r#"forall p in Pages : p -> "title" -> t"#).unwrap();
        assert_eq!(c.atoms.len(), 1);
    }

    #[test]
    fn parses_conjunction() {
        let c = parse_constraint(
            r#"forall p in Pages : p -> "title" -> t and p -> "year" -> y"#,
        )
        .unwrap();
        assert_eq!(c.atoms.len(), 2);
    }

    #[test]
    fn parses_membership_atom() {
        let c = parse_constraint("forall p in Pages : p in Reachable").unwrap();
        assert!(matches!(&c.atoms[0], Condition::Collection { .. }));
    }

    #[test]
    fn parses_constant_target() {
        let c = parse_constraint(r#"forall p in Pages : p -> "lang" -> "en""#).unwrap();
        let Condition::Path { dst, .. } = &c.atoms[0] else {
            panic!()
        };
        assert_eq!(dst, &Term::Const(Value::string("en")));
    }

    #[test]
    fn parses_complex_regex() {
        let c = parse_constraint(
            r#"forall p in Pages : p -> ("next" | "prev")* . "home" -> h"#,
        )
        .unwrap();
        assert_eq!(c.atoms.len(), 1);
    }

    #[test]
    fn rejects_unquantified_source() {
        let e = parse_constraint("forall p in Pages : q -> * -> p").unwrap_err();
        assert!(e.message.contains("'q'"));
    }

    #[test]
    fn rejects_malformed_prefix() {
        assert!(parse_constraint("forall p Pages : p -> * -> q").is_err());
        assert!(parse_constraint("forall in Pages : x -> * -> y").is_err());
        assert!(parse_constraint("forall p in Pages p -> * -> q").is_err());
    }

    #[test]
    fn rejects_empty_body() {
        assert!(parse_constraint("forall p in Pages :").is_err());
    }

    #[test]
    fn and_inside_quotes_does_not_split() {
        let c = parse_constraint(r#"forall p in Pages : p -> "black and white" -> v"#).unwrap();
        assert_eq!(c.atoms.len(), 1);
    }

    #[test]
    fn arrow_inside_a_quoted_target_is_part_of_the_constant() {
        let c = parse_constraint(r#"forall p in Pages : p -> "title" -> "a->b""#).unwrap();
        assert_eq!(target(&c), &Term::Const(Value::string("a->b")));
    }

    #[test]
    fn float_target_is_a_float_constant() {
        let c = parse_constraint(r#"forall p in Pages : p -> "price" -> 3.5"#).unwrap();
        assert_eq!(target(&c), &Term::Const(Value::Float(3.5)));
    }

    #[test]
    fn escapes_in_a_target_are_unescaped() {
        let c = parse_constraint(r#"forall p in Pages : p -> "t" -> "say \"hi\"""#).unwrap();
        assert_eq!(target(&c), &Term::Const(Value::string(r#"say "hi""#)));
    }

    #[test]
    fn rejects_an_arc_variable_by_name() {
        let e = parse_constraint("forall p in Pages : p -> l -> v").unwrap_err();
        assert!(e.message.contains("'l' is an arc variable"), "{}", e.message);
    }
}
