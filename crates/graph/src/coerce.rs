//! Dynamic type coercion for run-time comparisons.
//!
//! The paper (§2.1): *"The atomic types are handled in a uniform fashion,
//! and values are coerced dynamically when they are compared at run time."*
//! Query predicates therefore do not use [`Value`]'s structural `Eq`/`Ord`
//! (which are for index keys) but the coercing relations in this module:
//!
//! * numbers compare numerically across `Int`/`Float`;
//! * a string comparing against a number is parsed as a number when
//!   possible;
//! * `Str` and `Url` compare by their text;
//! * booleans compare against the strings `"true"`/`"false"`;
//! * files compare by path against files of the same kind only — a
//!   PostScript file is never equal to an image with the same path;
//! * nodes only compare against nodes.
//!
//! Comparisons between values that cannot be coerced into a common domain
//! (for example an oid vs. an integer) return `None`, and predicates over
//! them evaluate to false — the usual semantics for irregular,
//! semistructured data where an attribute may hold differently typed values
//! on different objects.

use crate::{Oid, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Coercing equality between two run-time values.
pub fn eq(a: &Value, b: &Value) -> bool {
    compare(a, b) == Some(Ordering::Equal)
}

/// Coercing three-way comparison.
///
/// Returns `None` when the values cannot be coerced into a common domain;
/// such a pair satisfies neither `<`, `=`, nor `>`.
pub fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    use Value::*;
    match (a, b) {
        (Node(x), Node(y)) => Some(x.cmp(y)),
        (Node(_), _) | (_, Node(_)) => None,

        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Float(x), Float(y)) => partial(x, y),
        (Int(x), Float(y)) => partial(&(*x as f64), y),
        (Float(x), Int(y)) => partial(x, &(*y as f64)),

        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        (Bool(x), Str(s)) | (Str(s), Bool(x)) => {
            let parsed = match s.as_ref() {
                "true" => true,
                "false" => false,
                _ => return None,
            };
            // Orientation matters: put the bool operand back on its side.
            if matches!(a, Bool(_)) {
                Some(x.cmp(&parsed))
            } else {
                Some(parsed.cmp(x))
            }
        }

        (Str(x), Str(y)) => Some(x.cmp(y)),
        (Url(x), Url(y)) => Some(x.cmp(y)),
        (Str(x), Url(y)) | (Url(x), Str(y)) => Some(x.cmp(y)),

        (Int(_) | Float(_), Str(s) | Url(s)) => {
            let n = parse_number(s)?;
            compare(a, &n)
        }
        (Str(s) | Url(s), Int(_) | Float(_)) => {
            let n = parse_number(s)?;
            compare(&n, b)
        }

        (File(x), File(y)) if x.kind == y.kind => Some(x.path.cmp(&y.path)),
        (File(x), Str(s)) | (Str(s), File(x)) => {
            let ord = x.path.as_ref().cmp(s.as_ref());
            if matches!(a, File(_)) {
                Some(ord)
            } else {
                Some(ord.reverse())
            }
        }

        _ => None,
    }
}

/// A lossy canonical form of a value under coercion: values that
/// [`eq`] relates always share a class, so a class can key an index that
/// must find every coercion-equal spelling of a value (`Int(1998)`,
/// `Float(1998.0)`, `Str("1998")`). The converse does not hold — a class
/// is coarser than [`eq`], which is not even transitive (a PostScript
/// and an image file of one path both equal that path's string, never
/// each other).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// An internal node, by oid.
    Node(Oid),
    /// Every number and every text that parses as one, by `f64` bits
    /// (`-0.0` folded into `0.0`).
    Num(u64),
    /// Any other text: strings, URLs, file paths, booleans as
    /// `"true"`/`"false"`.
    Text(Arc<str>),
}

/// The coercion class of `v`: `eq(a, b)` implies `class(a) == class(b)`.
pub fn class(v: &Value) -> Class {
    fn num(f: f64) -> Class {
        Class::Num(if f == 0.0 { 0.0f64 } else { f }.to_bits())
    }
    fn text(s: &Arc<str>) -> Class {
        match parse_number(s) {
            Some(Value::Int(i)) => num(i as f64),
            // Text spelling NaN equals no number; it stays text.
            Some(Value::Float(f)) if !f.is_nan() => num(f),
            _ => Class::Text(Arc::clone(s)),
        }
    }
    match v {
        Value::Node(o) => Class::Node(*o),
        Value::Int(i) => num(*i as f64),
        Value::Float(f) => num(*f),
        Value::Bool(b) => Class::Text(Arc::from(if *b { "true" } else { "false" })),
        Value::Str(s) | Value::Url(s) => text(s),
        Value::File(f) => text(&f.path),
    }
}

/// Coercing less-than.
pub fn lt(a: &Value, b: &Value) -> bool {
    compare(a, b) == Some(Ordering::Less)
}

/// Coercing less-than-or-equal.
pub fn le(a: &Value, b: &Value) -> bool {
    matches!(compare(a, b), Some(Ordering::Less | Ordering::Equal))
}

fn partial(x: &f64, y: &f64) -> Option<Ordering> {
    x.partial_cmp(y)
}

fn parse_number(s: &str) -> Option<Value> {
    let t = s.trim();
    if let Ok(i) = t.parse::<i64>() {
        Some(Value::Int(i))
    } else if let Ok(f) = t.parse::<f64>() {
        Some(Value::Float(f))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileKind, Oid};

    #[test]
    fn int_coerces_against_numeric_string() {
        assert!(eq(&Value::Int(1998), &Value::string("1998")));
        assert!(eq(&Value::string("1998"), &Value::Int(1998)));
        assert!(lt(&Value::string("1997"), &Value::Int(1998)));
        assert!(lt(&Value::Int(1997), &Value::string("1998")));
    }

    #[test]
    fn non_numeric_string_vs_int_is_incomparable() {
        assert_eq!(compare(&Value::Int(5), &Value::string("five")), None);
        assert!(!eq(&Value::Int(5), &Value::string("five")));
        assert!(!lt(&Value::Int(5), &Value::string("five")));
    }

    #[test]
    fn int_and_float_compare_numerically() {
        assert!(eq(&Value::Int(2), &Value::Float(2.0)));
        assert!(lt(&Value::Int(2), &Value::Float(2.5)));
        assert!(lt(&Value::Float(1.5), &Value::Int(2)));
    }

    #[test]
    fn url_and_string_compare_by_text() {
        assert!(eq(&Value::url("http://a"), &Value::string("http://a")));
        assert!(lt(&Value::string("http://a"), &Value::url("http://b")));
    }

    #[test]
    fn bool_coerces_against_keyword_strings() {
        assert!(eq(&Value::Bool(true), &Value::string("true")));
        assert!(eq(&Value::string("false"), &Value::Bool(false)));
        assert_eq!(compare(&Value::Bool(true), &Value::string("yes")), None);
    }

    #[test]
    fn files_of_different_kinds_never_equal() {
        let ps = Value::file(FileKind::PostScript, "p");
        let img = Value::file(FileKind::Image, "p");
        assert_eq!(compare(&ps, &img), None);
        assert!(eq(&ps, &Value::file(FileKind::PostScript, "p")));
    }

    #[test]
    fn file_compares_with_string_by_path() {
        let f = Value::file(FileKind::Text, "abs/p1.txt");
        assert!(eq(&f, &Value::string("abs/p1.txt")));
        assert!(lt(&Value::string("abs/p0.txt"), &f));
        assert!(lt(&f, &Value::string("abs/p2.txt")));
    }

    #[test]
    fn nodes_only_compare_with_nodes() {
        let n = Value::Node(Oid::from_index(3));
        assert!(eq(&n, &Value::Node(Oid::from_index(3))));
        assert_eq!(compare(&n, &Value::Int(3)), None);
        assert_eq!(compare(&Value::string("&3"), &n), None);
    }

    #[test]
    fn coercing_comparison_is_antisymmetric() {
        let vals = [
            Value::Int(3),
            Value::Float(3.5),
            Value::string("3"),
            Value::string("zebra"),
            Value::url("http://x"),
            Value::Bool(true),
            Value::file(FileKind::Text, "t"),
            Value::Node(Oid::from_index(0)),
        ];
        for a in &vals {
            for b in &vals {
                let ab = compare(a, b);
                let ba = compare(b, a);
                assert_eq!(ab.map(Ordering::reverse), ba, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn nan_float_is_incomparable() {
        assert_eq!(compare(&Value::Float(f64::NAN), &Value::Float(1.0)), None);
    }
}
