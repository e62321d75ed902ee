//! Atomic values and edge targets.

use crate::Oid;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The kind of an external file value.
///
/// Strudel models page content that lives outside the graph — paper
/// abstracts, PostScript files, photos, legacy HTML fragments — as typed
/// file references so that the template language and built-in predicates
/// (`isImageFile`, `isPostScript`, …) can dispatch on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileKind {
    /// Plain text (e.g. a paper abstract).
    Text,
    /// A PostScript document.
    PostScript,
    /// A raster or vector image.
    Image,
    /// An HTML fragment or page.
    Html,
}

impl FileKind {
    /// The DDL keyword naming this kind (`text`, `postscript`, `image`,
    /// `html`).
    pub fn keyword(self) -> &'static str {
        match self {
            FileKind::Text => "text",
            FileKind::PostScript => "postscript",
            FileKind::Image => "image",
            FileKind::Html => "html",
        }
    }

    /// Parses a DDL keyword into a kind.
    pub fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "text" => FileKind::Text,
            "postscript" => FileKind::PostScript,
            "image" => FileKind::Image,
            "html" => FileKind::Html,
            _ => return None,
        })
    }
}

impl fmt::Display for FileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A typed reference to an external file.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileRef {
    /// What kind of content the file holds.
    pub kind: FileKind,
    /// Source-relative path of the file.
    pub path: Arc<str>,
}

/// An object in the Strudel data model: an internal node or an atomic value.
///
/// Edges in a [`Graph`](crate::Graph) point at `Value`s, so "the target of
/// an edge" and "an atomic value" share this one representation, exactly as
/// in OEM. Atomic types are handled uniformly and coerced dynamically when
/// compared at run time — see [`coerce`](crate::coerce).
///
/// `Value` implements `Eq`/`Ord`/`Hash` *structurally* (an `Int(5)` is not
/// equal to a `Str("5")`); the coercing comparison used by query predicates
/// lives in [`coerce`](crate::coerce). Floats order by `total_cmp` and hash
/// by bit pattern so that values can serve as join and index keys.
#[derive(Clone, Debug)]
pub enum Value {
    /// An internal node of the graph.
    Node(Oid),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string. Reference-counted: values are copied freely between the
    /// bindings relations of query evaluation.
    Str(Arc<str>),
    /// A URL.
    Url(Arc<str>),
    /// A typed external file.
    File(FileRef),
}

impl Value {
    /// Convenience constructor for a string value.
    pub fn string(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for a URL value.
    pub fn url(s: impl Into<Arc<str>>) -> Self {
        Value::Url(s.into())
    }

    /// Convenience constructor for a file value.
    pub fn file(kind: FileKind, path: impl Into<Arc<str>>) -> Self {
        Value::File(FileRef {
            kind,
            path: path.into(),
        })
    }

    /// Returns the node oid if this value is an internal node.
    pub fn as_node(&self) -> Option<Oid> {
        match self {
            Value::Node(o) => Some(*o),
            _ => None,
        }
    }

    /// Returns the string contents if this value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Whether this value is an atomic value (not an internal node).
    pub fn is_atomic(&self) -> bool {
        !matches!(self, Value::Node(_))
    }

    /// Whether this value is a file of the given kind.
    pub fn is_file_kind(&self, kind: FileKind) -> bool {
        matches!(self, Value::File(f) if f.kind == kind)
    }

    /// A short name for the value's type, used in error messages and the
    /// repository's DataGuide.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Node(_) => "node",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Url(_) => "url",
            Value::File(f) => f.kind.keyword(),
        }
    }

    /// Renders the value as display text, the form the template language
    /// emits for atomic values. Nodes render as their oid; callers that can
    /// resolve node names should prefer those.
    pub fn display_text(&self) -> Cow<'_, str> {
        match self {
            Value::Node(o) => Cow::Owned(o.to_string()),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(x) => Cow::Owned(format_float(*x)),
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Str(s) => Cow::Borrowed(s),
            Value::Url(u) => Cow::Borrowed(u),
            Value::File(f) => Cow::Borrowed(&f.path),
        }
    }

    /// Discriminant rank used to order values of different types; gives
    /// `Value` a total order for index keys.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Node(_) => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Url(_) => 5,
            Value::File(_) => 6,
        }
    }
}

/// Formats a float the way the DDL printer and templates render it:
/// shortest form that round-trips, always with a decimal point.
pub(crate) fn format_float(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Node(a), Node(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Url(a), Url(b)) => a.cmp(b),
            (File(a), File(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Node(o) => o.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Str(s) => s.hash(state),
            Value::Url(u) => u.hash(state),
            Value::File(f) => f.hash(state),
        }
    }
}

impl From<Oid> for Value {
    fn from(o: Oid) -> Self {
        Value::Node(o)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::string(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::string(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Node(o) => write!(f, "{o}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => f.write_str(&format_float(*x)),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Url(u) => write!(f, "url({u:?})"),
            Value::File(fr) => write!(f, "{}({:?})", fr.kind, fr.path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn structural_equality_distinguishes_types() {
        assert_ne!(Value::Int(5), Value::string("5"));
        assert_ne!(Value::string("x"), Value::url("x"));
        assert_eq!(Value::Int(5), Value::Int(5));
    }

    #[test]
    fn eq_values_hash_alike() {
        let a = Value::string("hello");
        let b = Value::string("hello");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(hash_of(&nan), hash_of(&Value::Float(f64::NAN)));
        assert!(Value::Float(1.0) < Value::Float(2.0));
    }

    #[test]
    fn cross_type_order_is_total_and_antisymmetric() {
        let vals = [
            Value::Node(Oid(0)),
            Value::Bool(true),
            Value::Int(3),
            Value::Float(2.5),
            Value::string("s"),
            Value::url("u"),
            Value::file(FileKind::Text, "a.txt"),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(a.cmp(b), b.cmp(a).reverse());
            }
        }
    }

    #[test]
    fn display_text_renders_atomic_values() {
        assert_eq!(Value::Int(42).display_text(), "42");
        assert_eq!(Value::string("hi").display_text(), "hi");
        assert_eq!(Value::url("http://x").display_text(), "http://x");
        assert_eq!(Value::Bool(false).display_text(), "false");
        assert_eq!(Value::Float(2.0).display_text(), "2.0");
        assert_eq!(Value::file(FileKind::Image, "p.gif").display_text(), "p.gif");
    }

    #[test]
    fn file_kind_keywords_round_trip() {
        for k in [
            FileKind::Text,
            FileKind::PostScript,
            FileKind::Image,
            FileKind::Html,
        ] {
            assert_eq!(FileKind::from_keyword(k.keyword()), Some(k));
        }
        assert_eq!(FileKind::from_keyword("video"), None);
    }

    #[test]
    fn is_file_kind_dispatches() {
        let v = Value::file(FileKind::Image, "x.png");
        assert!(v.is_file_kind(FileKind::Image));
        assert!(!v.is_file_kind(FileKind::Text));
        assert!(!Value::Int(1).is_file_kind(FileKind::Image));
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::file(FileKind::Html, "f").type_name(), "html");
        assert_eq!(Value::Node(Oid(0)).type_name(), "node");
    }
}
