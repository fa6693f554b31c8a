//! Flat e-node storage: interned payloads plus a shared child arena.
//!
//! The public [`ENode`](crate::lang::ENode) carries heap payloads — a
//! `Vec<Id>` per n-ary node, a `String` per relation name, a `Schema`
//! per binder — which made every hashcons insert, class append, and
//! parent registration a deep clone. Internally the e-graph now stores
//! [`CNode`]: a `Copy` mirror of `ENode` whose names, schemas, values,
//! and variables are interned into side tables and whose child lists
//! are *views* into one shared `u32` child arena. Lists of up to two
//! children are kept inline in the [`Span`] handle itself (the fast
//! path — every unary/binary operator and most products), longer lists
//! are deduplicated slices of the flat buffer.
//!
//! Because spans are deduplicated, two nodes are structurally equal iff
//! their `CNode` values are equal, and hashing a node hashes a handle —
//! the slice hash is paid once at span interning instead of on every
//! congruence lookup.

use crate::lang::ENode;
use crate::unionfind::Id;
use relalg::{Schema, Value};
use std::collections::HashMap;
use uninomial::syntax::Var;

/// Interned relation/predicate/function name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct NameId(u32);

/// Interned binder schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct SchemaId(u32);

/// Interned scalar constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ValueId(u32);

/// Interned free variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct VarId(u32);

/// A view of a child list. Up to two children live inline (no arena
/// traffic at all); longer lists are deduplicated `(start, len)` ranges
/// of the shared child buffer, so equal lists get equal spans and span
/// equality is list equality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Span {
    /// Inline storage for 0–2 children; unused slots are zeroed so the
    /// derived `Eq`/`Hash` stay content-based.
    Inline([Id; 2], u8),
    /// A deduplicated range of the shared child buffer.
    Arena {
        /// Start offset in the flat buffer.
        start: u32,
        /// Number of children.
        len: u32,
    },
}

/// The compact, `Copy` e-node stored in the hashcons, class node lists,
/// and parent lists. Mirrors [`ENode`] variant-for-variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum CNode {
    Zero,
    One,
    Add(Span),
    Mul(Span),
    Not(Id),
    Squash(Id),
    Sum(SchemaId, Id),
    Eq(Id, Id),
    Rel(NameId, Id),
    Pred(NameId, Id),
    FreeVar(VarId),
    Bound(u32, SchemaId),
    Unit,
    Const(ValueId),
    Pair(Id, Id),
    Fst(Id),
    Snd(Id),
    Fn(NameId, Span),
    Agg(NameId, SchemaId, Id),
}

impl CNode {
    /// Operator name, for congruence-proof notes (mirrors
    /// [`ENode::op_name`]).
    pub(crate) fn op_name(self) -> &'static str {
        match self {
            CNode::Zero => "0",
            CNode::One => "1",
            CNode::Add(_) => "+",
            CNode::Mul(_) => "×",
            CNode::Not(_) => "¬",
            CNode::Squash(_) => "‖·‖",
            CNode::Sum(_, _) => "Σ",
            CNode::Eq(_, _) => "=",
            CNode::Rel(_, _) => "rel",
            CNode::Pred(_, _) => "pred",
            CNode::FreeVar(_) => "var",
            CNode::Bound(_, _) => "bound",
            CNode::Unit => "()",
            CNode::Const(_) => "const",
            CNode::Pair(_, _) => "pair",
            CNode::Fst(_) => ".1",
            CNode::Snd(_) => ".2",
            CNode::Fn(_, _) => "fn",
            CNode::Agg(_, _, _) => "agg",
        }
    }
}

/// The interning side tables and the shared child buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeArena {
    children: Vec<Id>,
    span_dedup: HashMap<Box<[Id]>, Span>,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    schemas: Vec<Schema>,
    schema_ids: HashMap<Schema, u32>,
    values: Vec<Value>,
    value_ids: HashMap<Value, u32>,
    vars: Vec<Var>,
    var_ids: HashMap<Var, u32>,
}

impl NodeArena {
    pub(crate) fn new() -> NodeArena {
        NodeArena::default()
    }

    fn intern_name(&mut self, s: &str) -> NameId {
        if let Some(&i) = self.name_ids.get(s) {
            return NameId(i);
        }
        let i = u32::try_from(self.names.len()).expect("name table overflow");
        self.names.push(s.to_owned());
        self.name_ids.insert(s.to_owned(), i);
        NameId(i)
    }

    fn intern_schema(&mut self, s: &Schema) -> SchemaId {
        if let Some(&i) = self.schema_ids.get(s) {
            return SchemaId(i);
        }
        let i = u32::try_from(self.schemas.len()).expect("schema table overflow");
        self.schemas.push(s.clone());
        self.schema_ids.insert(s.clone(), i);
        SchemaId(i)
    }

    fn intern_value(&mut self, v: &Value) -> ValueId {
        if let Some(&i) = self.value_ids.get(v) {
            return ValueId(i);
        }
        let i = u32::try_from(self.values.len()).expect("value table overflow");
        self.values.push(v.clone());
        self.value_ids.insert(v.clone(), i);
        ValueId(i)
    }

    fn intern_var(&mut self, v: &Var) -> VarId {
        if let Some(&i) = self.var_ids.get(v) {
            return VarId(i);
        }
        let i = u32::try_from(self.vars.len()).expect("var table overflow");
        self.vars.push(v.clone());
        self.var_ids.insert(v.clone(), i);
        VarId(i)
    }

    /// Interns a child list, deduplicating long lists and keeping short
    /// ones inline.
    pub(crate) fn intern_span(&mut self, kids: &[Id]) -> Span {
        if kids.len() <= 2 {
            let mut buf = [Id(0); 2];
            buf[..kids.len()].copy_from_slice(kids);
            return Span::Inline(buf, kids.len() as u8);
        }
        if let Some(&s) = self.span_dedup.get(kids) {
            return s;
        }
        let start = u32::try_from(self.children.len()).expect("child arena overflow");
        self.children.extend_from_slice(kids);
        let span = Span::Arena {
            start,
            len: kids.len() as u32,
        };
        self.span_dedup
            .insert(kids.to_vec().into_boxed_slice(), span);
        span
    }

    /// The children a span views, as a borrowed slice.
    pub(crate) fn span_slice<'a>(&'a self, s: &'a Span) -> &'a [Id] {
        match s {
            Span::Inline(buf, len) => &buf[..*len as usize],
            Span::Arena { start, len } => &self.children[*start as usize..][..*len as usize],
        }
    }

    /// The children a span views, copied out (for sites that mutate).
    pub(crate) fn span_vec(&self, s: Span) -> Vec<Id> {
        self.span_slice(&s).to_vec()
    }

    /// Number of children a span views.
    pub(crate) fn span_len(&self, s: Span) -> usize {
        match s {
            Span::Inline(_, len) => len as usize,
            Span::Arena { len, .. } => len as usize,
        }
    }

    /// Appends `node`'s children to `out`, in node order.
    pub(crate) fn push_children(&self, node: CNode, out: &mut Vec<Id>) {
        match node {
            CNode::Zero
            | CNode::One
            | CNode::FreeVar(_)
            | CNode::Bound(_, _)
            | CNode::Unit
            | CNode::Const(_) => {}
            CNode::Add(s) | CNode::Mul(s) | CNode::Fn(_, s) => {
                out.extend_from_slice(self.span_slice(&s));
            }
            CNode::Not(x)
            | CNode::Squash(x)
            | CNode::Sum(_, x)
            | CNode::Rel(_, x)
            | CNode::Pred(_, x)
            | CNode::Fst(x)
            | CNode::Snd(x)
            | CNode::Agg(_, _, x) => out.push(x),
            CNode::Eq(a, b) | CNode::Pair(a, b) => {
                out.push(a);
                out.push(b);
            }
        }
    }

    /// Converts a public node to compact form, canonicalizing children
    /// through `canon`. Applies the same canonical child ordering as
    /// [`ENode::map_children`]: sorted `+`/`×` children, oriented `=`.
    pub(crate) fn intern(&mut self, node: &ENode, mut canon: impl FnMut(Id) -> Id) -> CNode {
        match node {
            ENode::Zero => CNode::Zero,
            ENode::One => CNode::One,
            ENode::Add(xs) => {
                let mut kids: Vec<Id> = xs.iter().map(|&x| canon(x)).collect();
                kids.sort_unstable();
                CNode::Add(self.intern_span(&kids))
            }
            ENode::Mul(xs) => {
                let mut kids: Vec<Id> = xs.iter().map(|&x| canon(x)).collect();
                kids.sort_unstable();
                CNode::Mul(self.intern_span(&kids))
            }
            ENode::Not(x) => CNode::Not(canon(*x)),
            ENode::Squash(x) => CNode::Squash(canon(*x)),
            ENode::Sum(s, x) => CNode::Sum(self.intern_schema(s), canon(*x)),
            ENode::Eq(a, b) => {
                let (a, b) = (canon(*a), canon(*b));
                if a <= b {
                    CNode::Eq(a, b)
                } else {
                    CNode::Eq(b, a)
                }
            }
            ENode::Rel(r, t) => CNode::Rel(self.intern_name(r), canon(*t)),
            ENode::Pred(p, t) => CNode::Pred(self.intern_name(p), canon(*t)),
            ENode::FreeVar(v) => CNode::FreeVar(self.intern_var(v)),
            ENode::Bound(i, s) => CNode::Bound(*i, self.intern_schema(s)),
            ENode::Unit => CNode::Unit,
            ENode::Const(c) => CNode::Const(self.intern_value(c)),
            ENode::Pair(a, b) => CNode::Pair(canon(*a), canon(*b)),
            ENode::Fst(t) => CNode::Fst(canon(*t)),
            ENode::Snd(t) => CNode::Snd(canon(*t)),
            ENode::Fn(f, xs) => {
                let kids: Vec<Id> = xs.iter().map(|&x| canon(x)).collect();
                CNode::Fn(self.intern_name(f), self.intern_span(&kids))
            }
            ENode::Agg(n, s, b) => {
                CNode::Agg(self.intern_name(n), self.intern_schema(s), canon(*b))
            }
        }
    }

    /// Rebuilds a compact node with children replaced by `canon(child)`,
    /// with the same canonical orderings as [`NodeArena::intern`].
    pub(crate) fn canonicalize(&mut self, node: CNode, mut canon: impl FnMut(Id) -> Id) -> CNode {
        match node {
            CNode::Zero
            | CNode::One
            | CNode::FreeVar(_)
            | CNode::Bound(_, _)
            | CNode::Unit
            | CNode::Const(_) => node,
            CNode::Add(s) => {
                let mut kids = self.span_vec(s);
                for k in &mut kids {
                    *k = canon(*k);
                }
                kids.sort_unstable();
                CNode::Add(self.intern_span(&kids))
            }
            CNode::Mul(s) => {
                let mut kids = self.span_vec(s);
                for k in &mut kids {
                    *k = canon(*k);
                }
                kids.sort_unstable();
                CNode::Mul(self.intern_span(&kids))
            }
            CNode::Fn(f, s) => {
                let mut kids = self.span_vec(s);
                for k in &mut kids {
                    *k = canon(*k);
                }
                CNode::Fn(f, self.intern_span(&kids))
            }
            CNode::Not(x) => CNode::Not(canon(x)),
            CNode::Squash(x) => CNode::Squash(canon(x)),
            CNode::Sum(sc, x) => CNode::Sum(sc, canon(x)),
            CNode::Rel(r, x) => CNode::Rel(r, canon(x)),
            CNode::Pred(p, x) => CNode::Pred(p, canon(x)),
            CNode::Fst(x) => CNode::Fst(canon(x)),
            CNode::Snd(x) => CNode::Snd(canon(x)),
            CNode::Agg(n, sc, x) => CNode::Agg(n, sc, canon(x)),
            CNode::Eq(a, b) => {
                let (a, b) = (canon(a), canon(b));
                if a <= b {
                    CNode::Eq(a, b)
                } else {
                    CNode::Eq(b, a)
                }
            }
            CNode::Pair(a, b) => CNode::Pair(canon(a), canon(b)),
        }
    }

    /// Converts a compact node back to the public representation.
    pub(crate) fn enode(&self, node: CNode) -> ENode {
        match node {
            CNode::Zero => ENode::Zero,
            CNode::One => ENode::One,
            CNode::Add(s) => ENode::Add(self.span_vec(s)),
            CNode::Mul(s) => ENode::Mul(self.span_vec(s)),
            CNode::Not(x) => ENode::Not(x),
            CNode::Squash(x) => ENode::Squash(x),
            CNode::Sum(sc, x) => ENode::Sum(self.schemas[sc.0 as usize].clone(), x),
            CNode::Eq(a, b) => ENode::Eq(a, b),
            CNode::Rel(r, x) => ENode::Rel(self.names[r.0 as usize].clone(), x),
            CNode::Pred(p, x) => ENode::Pred(self.names[p.0 as usize].clone(), x),
            CNode::FreeVar(v) => ENode::FreeVar(self.vars[v.0 as usize].clone()),
            CNode::Bound(i, sc) => ENode::Bound(i, self.schemas[sc.0 as usize].clone()),
            CNode::Unit => ENode::Unit,
            CNode::Const(c) => ENode::Const(self.values[c.0 as usize].clone()),
            CNode::Pair(a, b) => ENode::Pair(a, b),
            CNode::Fst(x) => ENode::Fst(x),
            CNode::Snd(x) => ENode::Snd(x),
            CNode::Fn(f, s) => ENode::Fn(self.names[f.0 as usize].clone(), self.span_vec(s)),
            CNode::Agg(n, sc, x) => ENode::Agg(
                self.names[n.0 as usize].clone(),
                self.schemas[sc.0 as usize].clone(),
                x,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_inline_below_three_children_and_deduped_above() {
        let mut a = NodeArena::new();
        let short = a.intern_span(&[Id(1), Id(2)]);
        assert!(matches!(short, Span::Inline(_, 2)));
        assert_eq!(a.children.len(), 0, "inline spans never touch the buffer");
        let s1 = a.intern_span(&[Id(1), Id(2), Id(3)]);
        let s2 = a.intern_span(&[Id(1), Id(2), Id(3)]);
        assert_eq!(s1, s2, "equal lists intern to one span");
        assert_eq!(a.children.len(), 3);
        let s3 = a.intern_span(&[Id(1), Id(2), Id(4)]);
        assert_ne!(s1, s3);
        assert_eq!(a.span_vec(s1), vec![Id(1), Id(2), Id(3)]);
    }

    #[test]
    fn compact_round_trip_preserves_structure() {
        let mut a = NodeArena::new();
        let n = ENode::Rel("R".into(), Id(7));
        let c = a.intern(&n, |id| id);
        assert_eq!(a.enode(c), n);
        // Equal nodes intern to equal (Copy) compact nodes.
        let c2 = a.intern(&ENode::Rel("R".into(), Id(7)), |id| id);
        assert_eq!(c, c2);
        // map_children semantics: Add children are sorted, Eq oriented.
        let add = a.intern(&ENode::Add(vec![Id(9), Id(3), Id(5)]), |id| id);
        assert_eq!(a.enode(add), ENode::Add(vec![Id(3), Id(5), Id(9)]));
        let eq = a.intern(&ENode::Eq(Id(8), Id(2)), |id| id);
        assert_eq!(a.enode(eq), ENode::Eq(Id(2), Id(8)));
    }
}
