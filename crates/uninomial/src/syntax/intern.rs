//! Hash-consed (interned) representation of the UniNomial term language.
//!
//! Every distinct [`Term`]/[`UExpr`] tree structure is stored exactly
//! once in an arena and addressed by a small copyable id ([`TermId`],
//! [`UExprId`]). Interning gives the hot paths three things the boxed
//! trees cannot:
//!
//! - **O(1) structural equality** — two interned nodes are structurally
//!   equal iff their ids are equal;
//! - **cached analyses** — free-variable sets and binder-occurrence
//!   flags are computed once per distinct node at interning time and
//!   shared by every occurrence;
//! - **stable memoization keys** — the memoizing normalizer
//!   ([`crate::normalize::NormCache`]) keys its table by [`UExprId`], so
//!   a subterm shared by many rules (or duplicated inside one rule by
//!   `refresh_binders`-free cloning) normalizes once.
//!
//! The arenas only ever grow; ids are never invalidated, and a clone of
//! an interner keeps every id it had at the time of cloning (ids are
//! indices and the arenas are append-only).

use crate::syntax::{Term, UExpr, Var};
use relalg::Value;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Arena id of an interned [`Term`]. Ids are only meaningful relative to
/// the [`Interner`] that issued them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

/// Arena id of an interned [`UExpr`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UExprId(u32);

impl TermId {
    /// The raw arena index. Ids are issued densely from 0, so an index
    /// below an interner's `term_count` addresses the same tree in every
    /// clone of that interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl UExprId {
    /// The raw arena index (see [`TermId::index`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Flattened [`Term`] node: children are ids, not boxes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// A tuple variable.
    Var(Var),
    /// The unit tuple.
    Unit,
    /// Pairing.
    Pair(TermId, TermId),
    /// First projection.
    Fst(TermId),
    /// Second projection.
    Snd(TermId),
    /// A scalar constant.
    Const(Value),
    /// Uninterpreted function application.
    Fn(String, Vec<TermId>),
    /// Aggregate over a relation body.
    Agg(String, Var, UExprId),
}

/// Flattened [`UExpr`] node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum UExprNode {
    /// `0`.
    Zero,
    /// `1`.
    One,
    /// `n₁ + n₂`.
    Add(UExprId, UExprId),
    /// `n₁ × n₂`.
    Mul(UExprId, UExprId),
    /// `n → 0`.
    Not(UExprId),
    /// `‖n‖`.
    Squash(UExprId),
    /// `Σ v. body`.
    Sum(Var, UExprId),
    /// `t₁ = t₂`.
    Eq(TermId, TermId),
    /// `⟦R⟧ t`.
    Rel(String, TermId),
    /// `⟦b⟧ t`.
    Pred(String, TermId),
}

/// Per-node cached analyses.
#[derive(Clone, Debug)]
struct NodeMeta {
    /// Free variables of the subtree rooted here (binders removed).
    free_vars: Arc<BTreeSet<Var>>,
    /// Whether the subtree contains any binder (`Σ` or an aggregate).
    has_binder: bool,
}

/// The hash-consing arena for both sorts.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    terms: Vec<TermNode>,
    term_meta: Vec<NodeMeta>,
    term_ids: HashMap<TermNode, TermId>,
    uexprs: Vec<UExprNode>,
    uexpr_meta: Vec<NodeMeta>,
    uexpr_ids: HashMap<UExprNode, UExprId>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Number of distinct interned terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Number of distinct interned expressions.
    pub fn uexpr_count(&self) -> usize {
        self.uexprs.len()
    }

    fn intern_term_node(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.term_ids.get(&node) {
            return id;
        }
        let meta = self.term_node_meta(&node);
        let id = TermId(u32::try_from(self.terms.len()).expect("term arena overflow"));
        self.terms.push(node.clone());
        self.term_meta.push(meta);
        self.term_ids.insert(node, id);
        id
    }

    fn intern_uexpr_node(&mut self, node: UExprNode) -> UExprId {
        if let Some(&id) = self.uexpr_ids.get(&node) {
            return id;
        }
        let meta = self.uexpr_node_meta(&node);
        let id = UExprId(u32::try_from(self.uexprs.len()).expect("uexpr arena overflow"));
        self.uexprs.push(node.clone());
        self.uexpr_meta.push(meta);
        self.uexpr_ids.insert(node, id);
        id
    }

    fn term_node_meta(&self, node: &TermNode) -> NodeMeta {
        let empty = || Arc::new(BTreeSet::new());
        match node {
            TermNode::Var(v) => NodeMeta {
                free_vars: Arc::new(BTreeSet::from([v.clone()])),
                has_binder: false,
            },
            TermNode::Unit | TermNode::Const(_) => NodeMeta {
                free_vars: empty(),
                has_binder: false,
            },
            TermNode::Pair(a, b) => self.merge_meta(&[self.term_meta(*a), self.term_meta(*b)]),
            TermNode::Fst(t) | TermNode::Snd(t) => self.term_meta(*t).clone(),
            TermNode::Fn(_, args) => {
                let metas: Vec<&NodeMeta> = args.iter().map(|a| self.term_meta(*a)).collect();
                self.merge_meta(&metas)
            }
            TermNode::Agg(_, v, body) => {
                let inner = self.uexpr_meta(*body);
                let mut fv = (*inner.free_vars).clone();
                fv.remove(v);
                NodeMeta {
                    free_vars: Arc::new(fv),
                    has_binder: true,
                }
            }
        }
    }

    fn uexpr_node_meta(&self, node: &UExprNode) -> NodeMeta {
        let empty = || Arc::new(BTreeSet::new());
        match node {
            UExprNode::Zero | UExprNode::One => NodeMeta {
                free_vars: empty(),
                has_binder: false,
            },
            UExprNode::Add(a, b) | UExprNode::Mul(a, b) => {
                self.merge_meta(&[self.uexpr_meta(*a), self.uexpr_meta(*b)])
            }
            UExprNode::Not(e) | UExprNode::Squash(e) => self.uexpr_meta(*e).clone(),
            UExprNode::Sum(v, body) => {
                let inner = self.uexpr_meta(*body);
                let mut fv = (*inner.free_vars).clone();
                fv.remove(v);
                NodeMeta {
                    free_vars: Arc::new(fv),
                    has_binder: true,
                }
            }
            UExprNode::Eq(a, b) => self.merge_meta(&[self.term_meta(*a), self.term_meta(*b)]),
            UExprNode::Rel(_, t) | UExprNode::Pred(_, t) => self.term_meta(*t).clone(),
        }
    }

    fn merge_meta(&self, parts: &[&NodeMeta]) -> NodeMeta {
        // Reuse a child's set when the others contribute nothing — the
        // common case (e.g. `R(t) × (t = c)` shares `{t}` all the way up).
        let has_binder = parts.iter().any(|m| m.has_binder);
        let nonempty: Vec<&&NodeMeta> = parts.iter().filter(|m| !m.free_vars.is_empty()).collect();
        let free_vars = match nonempty.as_slice() {
            [] => Arc::new(BTreeSet::new()),
            [one] => Arc::clone(&one.free_vars),
            many => {
                let mut fv = (*many[0].free_vars).clone();
                for m in &many[1..] {
                    fv.extend(m.free_vars.iter().cloned());
                }
                Arc::new(fv)
            }
        };
        NodeMeta {
            free_vars,
            has_binder,
        }
    }

    fn term_meta(&self, id: TermId) -> &NodeMeta {
        &self.term_meta[id.0 as usize]
    }

    fn uexpr_meta(&self, id: UExprId) -> &NodeMeta {
        &self.uexpr_meta[id.0 as usize]
    }

    /// Interns a tuple term.
    pub fn intern_term(&mut self, t: &Term) -> TermId {
        let node = match t {
            Term::Var(v) => TermNode::Var(v.clone()),
            Term::Unit => TermNode::Unit,
            Term::Const(v) => TermNode::Const(v.clone()),
            Term::Pair(a, b) => {
                let (a, b) = (self.intern_term(a), self.intern_term(b));
                TermNode::Pair(a, b)
            }
            Term::Fst(x) => {
                let x = self.intern_term(x);
                TermNode::Fst(x)
            }
            Term::Snd(x) => {
                let x = self.intern_term(x);
                TermNode::Snd(x)
            }
            Term::Fn(f, args) => {
                let args = args.iter().map(|a| self.intern_term(a)).collect();
                TermNode::Fn(f.clone(), args)
            }
            Term::Agg(name, v, body) => {
                let body = self.intern(body);
                TermNode::Agg(name.clone(), v.clone(), body)
            }
        };
        self.intern_term_node(node)
    }

    /// Interns an expression.
    pub fn intern(&mut self, e: &UExpr) -> UExprId {
        let node = match e {
            UExpr::Zero => UExprNode::Zero,
            UExpr::One => UExprNode::One,
            UExpr::Add(a, b) => {
                let (a, b) = (self.intern(a), self.intern(b));
                UExprNode::Add(a, b)
            }
            UExpr::Mul(a, b) => {
                let (a, b) = (self.intern(a), self.intern(b));
                UExprNode::Mul(a, b)
            }
            UExpr::Not(x) => {
                let x = self.intern(x);
                UExprNode::Not(x)
            }
            UExpr::Squash(x) => {
                let x = self.intern(x);
                UExprNode::Squash(x)
            }
            UExpr::Sum(v, body) => {
                let body = self.intern(body);
                UExprNode::Sum(v.clone(), body)
            }
            UExpr::Eq(a, b) => {
                let (a, b) = (self.intern_term(a), self.intern_term(b));
                UExprNode::Eq(a, b)
            }
            UExpr::Rel(r, t) => {
                let t = self.intern_term(t);
                UExprNode::Rel(r.clone(), t)
            }
            UExpr::Pred(p, t) => {
                let t = self.intern_term(t);
                UExprNode::Pred(p.clone(), t)
            }
        };
        self.intern_uexpr_node(node)
    }

    /// The interned node behind a term id.
    pub fn term_node(&self, id: TermId) -> &TermNode {
        &self.terms[id.0 as usize]
    }

    /// The interned node behind an expression id.
    pub fn uexpr_node(&self, id: UExprId) -> &UExprNode {
        &self.uexprs[id.0 as usize]
    }

    /// Reconstructs the boxed [`Term`] tree (the round-trip inverse of
    /// [`Interner::intern_term`]).
    pub fn extract_term(&self, id: TermId) -> Term {
        match self.term_node(id) {
            TermNode::Var(v) => Term::Var(v.clone()),
            TermNode::Unit => Term::Unit,
            TermNode::Const(v) => Term::Const(v.clone()),
            TermNode::Pair(a, b) => Term::pair(self.extract_term(*a), self.extract_term(*b)),
            TermNode::Fst(t) => Term::fst(self.extract_term(*t)),
            TermNode::Snd(t) => Term::snd(self.extract_term(*t)),
            TermNode::Fn(f, args) => Term::Fn(
                f.clone(),
                args.iter().map(|a| self.extract_term(*a)).collect(),
            ),
            TermNode::Agg(name, v, body) => {
                Term::Agg(name.clone(), v.clone(), Box::new(self.extract(*body)))
            }
        }
    }

    /// Reconstructs the boxed [`UExpr`] tree (the round-trip inverse of
    /// [`Interner::intern`]).
    pub fn extract(&self, id: UExprId) -> UExpr {
        match self.uexpr_node(id) {
            UExprNode::Zero => UExpr::Zero,
            UExprNode::One => UExpr::One,
            UExprNode::Add(a, b) => UExpr::add(self.extract(*a), self.extract(*b)),
            UExprNode::Mul(a, b) => UExpr::mul(self.extract(*a), self.extract(*b)),
            UExprNode::Not(e) => UExpr::not(self.extract(*e)),
            UExprNode::Squash(e) => UExpr::squash(self.extract(*e)),
            UExprNode::Sum(v, body) => UExpr::Sum(v.clone(), Box::new(self.extract(*body))),
            UExprNode::Eq(a, b) => UExpr::eq(self.extract_term(*a), self.extract_term(*b)),
            UExprNode::Rel(r, t) => UExpr::Rel(r.clone(), self.extract_term(*t)),
            UExprNode::Pred(p, t) => UExpr::Pred(p.clone(), self.extract_term(*t)),
        }
    }

    /// Cached free variables of an interned expression. O(1) per call —
    /// computed once at interning time.
    pub fn free_vars(&self, id: UExprId) -> &BTreeSet<Var> {
        &self.uexpr_meta(id).free_vars
    }

    /// Cached free variables of an interned term.
    pub fn term_free_vars(&self, id: TermId) -> &BTreeSet<Var> {
        &self.term_meta(id).free_vars
    }

    /// Whether the interned expression contains any binder (`Σ` or an
    /// aggregate). Binder-free expressions normalize purely — the
    /// precondition for memoizing their normal forms.
    pub fn has_binder(&self, id: UExprId) -> bool {
        self.uexpr_meta(id).has_binder
    }

    /// Whether the interned term contains an aggregate binder.
    pub fn term_has_binder(&self, id: TermId) -> bool {
        self.term_meta(id).has_binder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::VarGen;
    use relalg::{BaseType, Schema};

    fn leaf_int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    #[test]
    fn interning_deduplicates_shared_structure() {
        let mut gen = VarGen::new();
        let t = gen.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let e = UExpr::mul(r.clone(), r.clone());
        let mut i = Interner::new();
        let id = i.intern(&e);
        // `R(t)` is stored once even though it occurs twice.
        let UExprNode::Mul(a, b) = i.uexpr_node(id) else {
            panic!("expected Mul");
        };
        assert_eq!(a, b, "shared subterm must intern to one id");
        assert_eq!(i.intern(&e), id, "re-interning is stable");
    }

    #[test]
    fn equal_ids_iff_equal_trees() {
        let mut gen = VarGen::new();
        let x = gen.fresh(leaf_int());
        let y = gen.fresh(leaf_int());
        let mut i = Interner::new();
        let a = i.intern(&UExpr::rel("R", Term::var(&x)));
        let b = i.intern(&UExpr::rel("R", Term::var(&y)));
        let a2 = i.intern(&UExpr::rel("R", Term::var(&x)));
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn roundtrip_preserves_trees() {
        let mut gen = VarGen::new();
        let v = gen.fresh(Schema::node(leaf_int(), leaf_int()));
        let w = gen.fresh(leaf_int());
        let e = UExpr::sum(
            v.clone(),
            UExpr::mul(
                UExpr::rel("R", Term::var(&v)),
                UExpr::squash(UExpr::eq(
                    Term::fst(Term::var(&v)),
                    Term::agg("SUM", w.clone(), UExpr::rel("S", Term::var(&w))),
                )),
            ),
        );
        let mut i = Interner::new();
        let id = i.intern(&e);
        assert_eq!(i.extract(id), e);
    }

    #[test]
    fn cached_free_vars_match_tree_computation() {
        let mut gen = VarGen::new();
        let free = gen.fresh(leaf_int());
        let bound = gen.fresh(leaf_int());
        let e = UExpr::sum(
            bound.clone(),
            UExpr::mul(
                UExpr::rel("R", Term::var(&bound)),
                UExpr::eq(Term::var(&free), Term::var(&bound)),
            ),
        );
        let mut i = Interner::new();
        let id = i.intern(&e);
        assert_eq!(i.free_vars(id), &e.free_vars());
        assert!(i.has_binder(id));
        let atom = i.intern(&UExpr::rel("R", Term::var(&free)));
        assert!(!i.has_binder(atom));
    }

    #[test]
    fn snapshot_ids_survive_cloning_and_extension() {
        let mut base = Interner::new();
        let mut gen = VarGen::new();
        let t = gen.fresh(leaf_int());
        let e = UExpr::rel("R", Term::var(&t));
        let id = base.intern(&e);
        let mut worker_a = base.clone();
        let mut worker_b = base.clone();
        assert_eq!(worker_a.intern(&e), id);
        let new = worker_b.intern(&UExpr::pred("b", Term::var(&t)));
        assert_ne!(new, id);
        assert_eq!(worker_b.extract(id), e, "old ids stay valid after growth");
    }
}
