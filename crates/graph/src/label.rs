//! Interned edge labels (attribute names).
//!
//! Attribute names recur massively in a semistructured graph — a data graph
//! with 400 people has 400 `name` edges — so labels are interned once into a
//! [`LabelInterner`] and carried as `u32` handles. Equality and hashing on
//! the hot paths of query evaluation are then integer operations, per the
//! performance guidance for database-style Rust.

use crate::hash::FastMap;
use std::fmt;

/// An interned edge label (attribute name).
///
/// Only meaningful relative to the [`LabelInterner`] that issued it; graphs
/// own their interner and resolve labels back to strings on demand.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub(crate) u32);

impl Label {
    /// Returns the dense index backing this label.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a label from a dense index previously obtained from
    /// [`Label::index`] against the same interner.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "label index overflow");
        Label(index as u32)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({})", self.0)
    }
}

/// A string interner for edge labels and collection names.
///
/// Interning is idempotent: the same string always maps to the same
/// [`Label`]. Lookups that must not allocate use [`LabelInterner::get`].
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    names: Vec<Box<str>>,
    by_name: FastMap<Box<str>, Label>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable [`Label`].
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&l) = self.by_name.get(name) {
            return l;
        }
        let label = Label::from_index(self.names.len());
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.by_name.insert(boxed, label);
        label
    }

    /// Returns the label for `name` if it has been interned, without
    /// interning it.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.by_name.get(name).copied()
    }

    /// Resolves a label back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `label` was not issued by this interner.
    pub fn resolve(&self, label: Label) -> &str {
        &self.names[label.index()]
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all interned labels in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Label::from_index(i), n.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = LabelInterner::new();
        let a = i.intern("title");
        let b = i.intern("title");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_labels() {
        let mut i = LabelInterner::new();
        let a = i.intern("title");
        let b = i.intern("year");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "title");
        assert_eq!(i.resolve(b), "year");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = LabelInterner::new();
        assert_eq!(i.get("author"), None);
        let l = i.intern("author");
        assert_eq!(i.get("author"), Some(l));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_preserves_creation_order() {
        let mut i = LabelInterner::new();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        let names: Vec<&str> = i.iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn empty_interner_reports_empty() {
        let i = LabelInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
