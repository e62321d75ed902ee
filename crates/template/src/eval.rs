//! Template evaluation: renders template nodes for one object into HTML.
//!
//! Values are borrowed from the site for the whole render, attribute
//! names arrive as labels resolved once per generator, and text is escaped
//! straight into the page buffer.

use crate::ast::*;
use crate::error::TemplateError;
use crate::escape::escape_into;
use crate::generate::{GenCtx, Item, SiteSource};
use std::cmp::Ordering;
use std::fmt::Write;
use strudel_graph::{coerce, FileKind, Value};

/// The evaluation environment for one render: the current object, where
/// the rendered template's labels start in the context's table, and the
/// enclosing `<SFOR>` bindings.
pub(crate) struct Env<'g, N> {
    pub current: N,
    pub labels: usize,
    pub loops: Vec<(&'g str, Item<'g, N>)>,
}

impl<'g, N: Copy> Env<'g, N> {
    fn lookup(&self, var: &str) -> Result<Item<'g, N>, TemplateError> {
        self.loops
            .iter()
            .rev()
            .find(|(name, _)| *name == var)
            .map(|&(_, v)| v)
            .ok_or_else(|| TemplateError::new(0, format!("loop variable '${var}' is not in scope")))
    }
}

/// Renders a node list into `out`.
pub(crate) fn render_nodes<'g, S: SiteSource<'g>>(
    nodes: &'g [Node],
    env: &mut Env<'g, S::Node>,
    ctx: &mut GenCtx<'g, S>,
    out: &mut String,
) -> Result<(), TemplateError> {
    for node in nodes {
        match node {
            Node::Text(t) => out.push_str(t),
            Node::Fmt { expr, directives } if !directives.multi() && directives.order.is_none() => {
                if let Some(v) = first_value(expr, env, ctx)? {
                    render_value(v, directives.embed, ctx, out)?;
                }
            }
            Node::Fmt { expr, directives } => {
                let mut values = ctx.take_values();
                eval_attr_expr(expr, env, ctx, &mut values)?;
                if let Some(dir) = directives.order {
                    sort_values(&mut values, dir, directives.key, env, ctx);
                }
                if directives.multi() {
                    match directives.list {
                        Some(kind) => {
                            let (open, close) = match kind {
                                ListKind::Unordered => ("<ul>\n", "</ul>\n"),
                                ListKind::Ordered => ("<ol>\n", "</ol>\n"),
                            };
                            out.push_str(open);
                            for &v in &values {
                                out.push_str("<li>");
                                render_value(v, directives.embed, ctx, out)?;
                                out.push_str("</li>\n");
                            }
                            out.push_str(close);
                        }
                        None => {
                            let delim = directives.delim.as_deref().unwrap_or("");
                            for (i, &v) in values.iter().enumerate() {
                                if i > 0 {
                                    out.push_str(delim);
                                }
                                render_value(v, directives.embed, ctx, out)?;
                            }
                        }
                    }
                } else if let Some(&v) = values.first() {
                    render_value(v, directives.embed, ctx, out)?;
                }
                ctx.give_values(values);
            }
            Node::If { cond, then, else_ } => {
                let branch = match first_value(cond, env, ctx)? {
                    Some(_) => then,
                    None => else_,
                };
                render_nodes(branch, env, ctx, out)?;
            }
            Node::For {
                var,
                expr,
                delim,
                order,
                key,
                body,
            } => {
                let mut values = ctx.take_values();
                eval_attr_expr(expr, env, ctx, &mut values)?;
                if let Some(dir) = order {
                    sort_values(&mut values, *dir, *key, env, ctx);
                }
                for (i, &v) in values.iter().enumerate() {
                    if i > 0 {
                        if let Some(d) = delim {
                            out.push_str(d);
                        }
                    }
                    env.loops.push((var, v));
                    let r = render_nodes(body, env, ctx, out);
                    env.loops.pop();
                    r?;
                }
                ctx.give_values(values);
            }
        }
    }
    Ok(())
}

/// Where an attribute expression starts.
enum Start<'g, N> {
    /// A bare `$var`: the expression's one value.
    Value(Item<'g, N>),
    /// The object the path's first step reads.
    Object(N),
    /// A path out of an atomic value: no values.
    Nothing,
}

fn start<'g, N: Copy>(expr: &AttrExpr, env: &Env<'g, N>) -> Result<Start<'g, N>, TemplateError> {
    Ok(match &expr.base {
        Base::CurrentObject => Start::Object(env.current),
        Base::LoopVar(var) => match (env.lookup(var)?, expr.path.is_empty()) {
            (v, true) => Start::Value(v),
            (Item::Node(o), false) => Start::Object(o),
            (Item::Value(_), false) => Start::Nothing,
        },
    })
}

/// Evaluates an attribute expression into `values` (empty on entry), in
/// edge order.
fn eval_attr_expr<'g, S: SiteSource<'g>>(
    expr: &AttrExpr,
    env: &Env<'g, S::Node>,
    ctx: &mut GenCtx<'g, S>,
    values: &mut Vec<Item<'g, S::Node>>,
) -> Result<(), TemplateError> {
    let src = ctx.src;
    let (o, first, rest) = match (start(expr, env)?, expr.path.split_first()) {
        (Start::Value(v), _) => {
            values.push(v);
            return Ok(());
        }
        (Start::Object(o), Some((&first, rest))) => (o, first, rest),
        _ => return Ok(()),
    };
    if let Some(l) = ctx.label(env, first) {
        values.extend(src.edges(o, Some(l)).map(|(_, v)| v));
    }
    if rest.is_empty() {
        return Ok(());
    }
    let mut next = ctx.take_values();
    for &step in rest {
        let label = ctx.label(env, step);
        for v in values.iter() {
            if let (Item::Node(o), Some(l)) = (v, label) {
                next.extend(src.edges(*o, Some(l)).map(|(_, v)| v));
            }
        }
        std::mem::swap(values, &mut next);
        next.clear();
    }
    ctx.give_values(next);
    Ok(())
}

/// The first value of an attribute expression — for `SIF` and a
/// single-valued `SFMT`. A path of one step stops at the first matching
/// edge; a longer path is evaluated whole.
fn first_value<'g, S: SiteSource<'g>>(
    expr: &AttrExpr,
    env: &Env<'g, S::Node>,
    ctx: &mut GenCtx<'g, S>,
) -> Result<Option<Item<'g, S::Node>>, TemplateError> {
    if expr.path.len() > 1 {
        let mut values = ctx.take_values();
        eval_attr_expr(expr, env, ctx, &mut values)?;
        let first = values.first().copied();
        ctx.give_values(values);
        return Ok(first);
    }
    Ok(match start(expr, env)? {
        Start::Value(v) => Some(v),
        Start::Object(o) => {
            let src = ctx.src;
            ctx.label(env, expr.path[0])
                .and_then(|l| src.edges(o, Some(l)).next())
                .map(|(_, v)| v)
        }
        Start::Nothing => None,
    })
}

/// The order `ORDER=` sorts by: atomic values with dynamic coercion and a
/// structural fallback, objects before atomic values (as in [`Value`]'s
/// structural order), and objects by [`SiteSource::cmp_nodes`].
fn compare<'g, S: SiteSource<'g>>(src: S, a: Item<'g, S::Node>, b: Item<'g, S::Node>) -> Ordering {
    match (a, b) {
        (Item::Value(a), Item::Value(b)) => coerce::compare(a, b).unwrap_or_else(|| a.cmp(b)),
        (Item::Node(a), Item::Node(b)) => src.cmp_nodes(a, b),
        (Item::Node(_), Item::Value(_)) => Ordering::Less,
        (Item::Value(_), Item::Node(_)) => Ordering::Greater,
    }
}

/// Sorts values for ORDER=: by a KEY attribute when the values are objects,
/// else by the values themselves, so the order is total and deterministic.
/// Each key is read once, before a stable sort over the decorated values;
/// the comparator answers every pair as comparing the keys in place would,
/// so the order is the same.
fn sort_values<'g, S: SiteSource<'g>>(
    values: &mut Vec<Item<'g, S::Node>>,
    dir: OrderDir,
    key: Option<AttrId>,
    env: &Env<'g, S::Node>,
    ctx: &GenCtx<'g, S>,
) {
    let src = ctx.src;
    let order = |a, b| {
        let ord = compare(src, a, b);
        match dir {
            OrderDir::Ascend => ord,
            OrderDir::Descend => ord.reverse(),
        }
    };
    let Some(key) = key else {
        values.sort_by(|&a, &b| order(a, b));
        return;
    };
    let label = ctx.label(env, key);
    let mut keyed = Vec::with_capacity(values.len());
    for &v in values.iter() {
        let k = match (label, v) {
            (Some(l), Item::Node(o)) => src.edges(o, Some(l)).next().map_or(v, |(_, k)| k),
            _ => v,
        };
        keyed.push((k, v));
    }
    keyed.sort_by(|&(a, _), &(b, _)| order(a, b));
    values.clear();
    values.extend(keyed.into_iter().map(|(_, v)| v));
}

/// Renders one value: atomic values inline, objects as links or (with
/// EMBED) inline renderings of their own templates.
fn render_value<'g, S: SiteSource<'g>>(
    v: Item<'g, S::Node>,
    embed: bool,
    ctx: &mut GenCtx<'g, S>,
    out: &mut String,
) -> Result<(), TemplateError> {
    let v = match v {
        Item::Node(o) => {
            if embed && !ctx.embedding(o) {
                return ctx.render_embedded(o, out);
            }
            ctx.write_link(o, out);
            return Ok(());
        }
        Item::Value(v) => v,
    };
    match v {
        Value::Url(u) => write_anchor(out, u),
        Value::File(f) if f.kind == FileKind::Image => {
            out.push_str("<img src=\"");
            escape_into(out, &f.path);
            out.push_str("\" alt=\"");
            escape_into(out, &f.path);
            out.push_str("\">");
        }
        Value::File(f) if embed => match ctx.resolve_file(&f.path) {
            Some(contents) => {
                out.push_str("<blockquote>");
                escape_into(out, &contents);
                out.push_str("</blockquote>");
            }
            None => {
                out.push_str("<blockquote data-src=\"");
                escape_into(out, &f.path);
                out.push_str("\"></blockquote>");
            }
        },
        Value::File(f) => write_anchor(out, &f.path),
        atomic => write_text(out, atomic),
    }
    Ok(())
}

/// `<a href="target">target</a>`.
fn write_anchor(out: &mut String, target: &str) {
    out.push_str("<a href=\"");
    escape_into(out, target);
    out.push_str("\">");
    escape_into(out, target);
    out.push_str("</a>");
}

/// Writes an atomic value's display text, escaped. Integers are formatted
/// in place; their digits need no escaping.
pub(crate) fn write_text(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        other => escape_into(out, &other.display_text()),
    }
}
