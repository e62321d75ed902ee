//! Template abstract syntax.

/// A parsed template: a sequence of nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Template {
    /// Top-level nodes.
    pub nodes: Vec<Node>,
    /// Source line count (the paper reports template sizes in lines).
    pub line_count: usize,
    /// The attribute names the template reads — path steps and `KEY=`
    /// attributes — each once, in first-use order. An [`AttrId`] indexes
    /// this list, so a renderer resolves each name against its graph once
    /// instead of at every step.
    pub attrs: Vec<String>,
}

impl Template {
    /// The attribute name `id` stands for.
    pub fn attr(&self, id: AttrId) -> &str {
        &self.attrs[id.index()]
    }
}

/// An attribute name of a [`Template`], by its position in
/// [`Template::attrs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The position in [`Template::attrs`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One template node.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Literal HTML text, passed through verbatim.
    Text(String),
    /// `<SFMT expr directives…>`
    Fmt {
        /// What to render.
        expr: AttrExpr,
        /// How to render it.
        directives: Directives,
    },
    /// `<SIF expr> then <SELSE> else </SIF>`
    If {
        /// The existence test.
        cond: AttrExpr,
        /// Taken when the expression has at least one value.
        then: Vec<Node>,
        /// Taken otherwise (empty when no `<SELSE>`).
        else_: Vec<Node>,
    },
    /// `<SFOR var IN expr …> body </SFOR>`
    For {
        /// Loop variable, referenced as `$var` in the body.
        var: String,
        /// The values to iterate.
        expr: AttrExpr,
        /// Emitted between iterations.
        delim: Option<String>,
        /// Optional sort.
        order: Option<OrderDir>,
        /// Sort key attribute for object values.
        key: Option<AttrId>,
        /// Body nodes.
        body: Vec<Node>,
    },
}

/// Where an attribute expression starts navigating.
#[derive(Clone, Debug, PartialEq)]
pub enum Base {
    /// The object the template is being rendered for.
    CurrentObject,
    /// A loop variable bound by an enclosing `<SFOR>`.
    LoopVar(String),
}

/// An attribute expression: a base and a bounded path of attribute names.
#[derive(Clone, Debug, PartialEq)]
pub struct AttrExpr {
    /// Starting point.
    pub base: Base,
    /// Attribute names navigated in order.
    pub path: Vec<AttrId>,
}

/// List rendering for multi-valued format expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListKind {
    /// `<ul>` with one `<li>` per value.
    Unordered,
    /// `<ol>` with one `<li>` per value.
    Ordered,
}

/// Sort direction for `ORDER=`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderDir {
    /// Lexicographically / numerically increasing.
    Ascend,
    /// Decreasing.
    Descend,
}

/// Directives on a format expression.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Directives {
    /// Render referenced objects inline instead of linking to their pages.
    pub embed: bool,
    /// Emit all values (implied by `UL`/`OL`).
    pub enumerate: bool,
    /// Separator between enumerated values.
    pub delim: Option<String>,
    /// Render values as an HTML list.
    pub list: Option<ListKind>,
    /// Sort the values.
    pub order: Option<OrderDir>,
    /// Sort key attribute for object values.
    pub key: Option<AttrId>,
}

impl Directives {
    /// Whether all values are emitted (ENUM, UL, or OL present).
    pub fn multi(&self) -> bool {
        self.enumerate || self.list.is_some()
    }
}
