//! The e-graph: hash-consed e-nodes over a proof-producing union-find,
//! with congruence-closure rebuilding.
//!
//! Beyond plain congruence, canonicalization is *theory-aware*: the
//! semiring's unit, zero, and reflexivity laws are applied while nodes
//! are (re)canonicalized, each such collapse unioning through the
//! justification of the trusted lemma it instantiates. Combined with
//! the sorted n-ary `+`/`×` nodes of [`crate::lang`], the entire
//! ACU-with-zero fragment of the axiom catalog is decided by the
//! rebuild loop itself; the searching rewrites in [`crate::rewrite`]
//! only handle the laws that genuinely change term structure.
//!
//! Internally nodes are stored in the compact, `Copy` form of the
//! crate's private `arena` module: interned payloads plus child-list
//! views into a shared flat arena, so hashcons lookups, class appends,
//! and parent registration move handles instead of deep-cloning
//! [`ENode`]s, and
//! congruence hashing is a handle hash (the slice hash is paid once at
//! span interning). The public API still speaks [`ENode`].
//!
//! Congruence repair is *deferred* by default ([`RebuildMode::Deferred`]):
//! [`EGraph::union`] only pushes the merged class onto a pending
//! worklist, and [`EGraph::rebuild`] drains it to fixpoint once per
//! saturation iteration — and, via the internal clean-guard, once
//! before any snapshot, extraction, or explanation is taken. The
//! rebuild-per-union baseline survives as [`RebuildMode::PerUnion`] so
//! property tests can assert the batched path is observationally
//! identical.

use crate::arena::{CNode, NodeArena};
use crate::lang::{node_to_term, node_to_uexpr, ENode, NameEnv};
use crate::unionfind::{Id, Justification, UnionFind};
use std::collections::{HashMap, HashSet};
use uninomial::lemmas::Lemma;
use uninomial::normalize::Trace;
use uninomial::syntax::{Term, UExpr};

/// One equivalence class: its member nodes and the parent nodes that
/// reference it (for congruence repair).
#[derive(Clone, Debug, Default)]
pub struct EClass {
    /// Member nodes (canonical at the time they were recorded).
    nodes: Vec<CNode>,
    /// Parent nodes and the class each belongs to.
    parents: Vec<(CNode, Id)>,
}

/// When congruence repair runs relative to unions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RebuildMode {
    /// Unions only enqueue the merged class; [`EGraph::rebuild`] drains
    /// the worklist once per saturation iteration (and once before any
    /// snapshot/extraction/explanation). The shipping fast path.
    #[default]
    Deferred,
    /// Every union immediately rebuilds to fixpoint — the simple
    /// baseline the batched path must be observationally identical to.
    PerUnion,
}

/// The e-graph.
#[derive(Clone, Debug)]
pub struct EGraph {
    uf: UnionFind,
    arena: NodeArena,
    classes: HashMap<Id, EClass>,
    hashcons: HashMap<CNode, Id>,
    dirty: Vec<Id>,
    rebuild_mode: RebuildMode,
    /// Re-entrancy guard: unions performed *by* the rebuild loop are
    /// always deferred to its own worklist, in either mode.
    rebuilding: bool,
    n_nodes: usize,
    n_unions: usize,
    zero: Id,
    one: Id,
}

/// Result of theory simplification during canonicalization.
enum Simplified {
    /// The node collapsed to an existing class outright.
    Alias(Id, Lemma, &'static str),
    /// The (possibly rewritten) node stands on its own.
    Node(CNode),
}

/// Hard cap on n-ary node width; flattening stops growing beyond it.
const MAX_NARY: usize = 64;

impl Default for EGraph {
    fn default() -> EGraph {
        EGraph::new()
    }
}

impl EGraph {
    /// An empty e-graph (with `0` and `1` pre-interned).
    pub fn new() -> EGraph {
        let mut eg = EGraph {
            uf: UnionFind::new(),
            arena: NodeArena::new(),
            classes: HashMap::new(),
            hashcons: HashMap::new(),
            dirty: Vec::new(),
            rebuild_mode: RebuildMode::Deferred,
            rebuilding: false,
            n_nodes: 0,
            n_unions: 0,
            zero: Id(0),
            one: Id(0),
        };
        // Bootstrap the constant classes directly — `add` consults them
        // during simplification, so they must exist first.
        for node in [CNode::Zero, CNode::One] {
            let id = eg.uf.make_set();
            eg.classes.entry(id).or_default().nodes.push(node);
            eg.hashcons.insert(node, id);
            eg.n_nodes += 1;
            if node == CNode::Zero {
                eg.zero = id;
            } else {
                eg.one = id;
            }
        }
        eg
    }

    /// The class of `0`.
    pub fn zero(&mut self) -> Id {
        self.uf.find(self.zero)
    }

    /// The class of `1`.
    pub fn one(&mut self) -> Id {
        self.uf.find(self.one)
    }

    /// Total number of distinct e-nodes ever interned.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of unions performed so far.
    pub fn union_count(&self) -> usize {
        self.n_unions
    }

    /// Number of live e-class entries (growth-timeline sample; includes
    /// child-only classes that exist solely to track parents).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of live hashcons (memo) entries — the canonical-node
    /// index whose growth bounds congruence-rebuild work.
    pub fn memo_size(&self) -> usize {
        self.hashcons.len()
    }

    /// The active [`RebuildMode`].
    pub fn rebuild_mode(&self) -> RebuildMode {
        self.rebuild_mode
    }

    /// Selects when congruence repair runs. [`RebuildMode::PerUnion`]
    /// exists for differential testing against the batched default.
    pub fn set_rebuild_mode(&mut self, mode: RebuildMode) {
        self.rebuild_mode = mode;
    }

    /// Canonical representative of a class id.
    pub fn find(&mut self, id: Id) -> Id {
        self.uf.find(id)
    }

    /// Whether two ids are currently in the same class.
    pub fn same(&mut self, a: Id, b: Id) -> bool {
        self.uf.same(a, b)
    }

    /// The member nodes of the class of `id`.
    pub fn class_nodes(&mut self, id: Id) -> Vec<ENode> {
        let id = self.uf.find(id);
        match self.classes.get(&id) {
            Some(c) => c.nodes.iter().map(|&n| self.arena.enode(n)).collect(),
            None => Vec::new(),
        }
    }

    /// Interns a node (children need not be canonical), returning its
    /// class id. Theory simplification may collapse it to an existing
    /// class without creating a node.
    pub fn add(&mut self, node: ENode) -> Id {
        let node = {
            let EGraph { uf, arena, .. } = self;
            arena.intern(&node, |c| uf.find(c))
        };
        self.add_compact(node)
    }

    /// [`EGraph::add`] after payload interning and child
    /// canonicalization.
    fn add_compact(&mut self, node: CNode) -> Id {
        match self.simplify(node) {
            Simplified::Alias(id, _, _) => self.uf.find(id),
            Simplified::Node(node) => {
                if let Some(&id) = self.hashcons.get(&node) {
                    return self.uf.find(id);
                }
                let id = self.uf.make_set();
                let mut kids = Vec::new();
                self.arena.push_children(node, &mut kids);
                for child in kids {
                    self.classes
                        .entry(child)
                        .or_default()
                        .parents
                        .push((node, id));
                }
                let class = self.classes.entry(id).or_default();
                class.nodes.push(node);
                self.hashcons.insert(node, id);
                self.n_nodes += 1;
                id
            }
        }
    }

    /// Theory-aware canonicalization. `node`'s children are canonical.
    fn simplify(&mut self, node: CNode) -> Simplified {
        let zero = self.uf.find(self.zero);
        let one = self.uf.find(self.one);
        match node {
            CNode::Mul(s) => {
                let xs = self.arena.span_vec(s);
                let xs = self.flatten(xs, /* mul: */ true);
                if xs.contains(&zero) {
                    return Simplified::Alias(zero, Lemma::MulZero, "a × 0 = 0");
                }
                let mut xs: Vec<Id> = xs.into_iter().filter(|&x| x != one).collect();
                xs.sort_unstable();
                match xs.len() {
                    0 => Simplified::Alias(one, Lemma::MulAcu, "empty product is 1"),
                    1 => Simplified::Alias(xs[0], Lemma::MulAcu, "a × 1 = a"),
                    _ => Simplified::Node(CNode::Mul(self.arena.intern_span(&xs))),
                }
            }
            CNode::Add(s) => {
                let xs = self.arena.span_vec(s);
                let xs = self.flatten(xs, /* mul: */ false);
                let mut xs: Vec<Id> = xs.into_iter().filter(|&x| x != zero).collect();
                xs.sort_unstable();
                match xs.len() {
                    0 => Simplified::Alias(zero, Lemma::AddAcu, "empty sum is 0"),
                    1 => Simplified::Alias(xs[0], Lemma::AddAcu, "a + 0 = a"),
                    _ => Simplified::Node(CNode::Add(self.arena.intern_span(&xs))),
                }
            }
            CNode::Eq(a, b) => {
                if a == b {
                    return Simplified::Alias(one, Lemma::EqRefl, "(t = t) = 1");
                }
                if let (Some(x), Some(y)) = (self.const_id_of(a), self.const_id_of(b)) {
                    if x != y {
                        return Simplified::Alias(
                            zero,
                            Lemma::EqConstNeq,
                            "distinct constants are unequal",
                        );
                    }
                }
                Simplified::Node(CNode::Eq(a, b))
            }
            CNode::Sum(schema, body) => {
                if body == zero {
                    return Simplified::Alias(zero, Lemma::SumZero, "Σx.0 = 0");
                }
                Simplified::Node(CNode::Sum(schema, body))
            }
            CNode::Not(x) => {
                if x == zero {
                    return Simplified::Alias(one, Lemma::NotBase, "¬0 = 1");
                }
                if x == one {
                    return Simplified::Alias(zero, Lemma::NotBase, "¬1 = 0");
                }
                Simplified::Node(CNode::Not(x))
            }
            CNode::Squash(x) => {
                if x == zero {
                    return Simplified::Alias(zero, Lemma::SquashBase, "‖0‖ = 0");
                }
                if x == one {
                    return Simplified::Alias(one, Lemma::SquashBase, "‖1‖ = 1");
                }
                Simplified::Node(CNode::Squash(x))
            }
            CNode::Fst(t) => {
                // Tuple β: (a, b).1 = a.
                if let Some((a, _)) = self.pair_of(t) {
                    return Simplified::Alias(a, Lemma::TupleBeta, "(a,b).1 = a");
                }
                Simplified::Node(CNode::Fst(t))
            }
            CNode::Snd(t) => {
                if let Some((_, b)) = self.pair_of(t) {
                    return Simplified::Alias(b, Lemma::TupleBeta, "(a,b).2 = b");
                }
                Simplified::Node(CNode::Snd(t))
            }
            other => Simplified::Node(other),
        }
    }

    /// Splices children that are themselves `+`/`×` classes into the
    /// parent's child list (associativity), up to the width cap.
    fn flatten(&mut self, xs: Vec<Id>, mul: bool) -> Vec<Id> {
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            if out.len() >= MAX_NARY {
                out.push(x);
                continue;
            }
            let x = self.uf.find(x);
            let inner: Option<crate::arena::Span> = self.classes.get(&x).and_then(|c| {
                c.nodes.iter().find_map(|n| match (mul, n) {
                    (true, CNode::Mul(s)) => Some(*s),
                    (false, CNode::Add(s)) => Some(*s),
                    _ => None,
                })
            });
            match inner {
                Some(s) if out.len() + self.arena.span_len(s) <= MAX_NARY => {
                    let kids = self.arena.span_vec(s);
                    out.extend(kids.into_iter().map(|k| self.uf.find(k)));
                }
                _ => out.push(x),
            }
        }
        out
    }

    /// The interned constant a term-sort class is known to equal, if
    /// any (payload compare without cloning the value).
    fn const_id_of(&mut self, id: Id) -> Option<crate::arena::ValueId> {
        let id = self.uf.find(id);
        self.classes.get(&id)?.nodes.iter().find_map(|n| match n {
            CNode::Const(v) => Some(*v),
            _ => None,
        })
    }

    /// The `(fst, snd)` classes of a term-sort class containing a pair
    /// node, if any.
    fn pair_of(&mut self, id: Id) -> Option<(Id, Id)> {
        let id = self.uf.find(id);
        self.classes.get(&id)?.nodes.iter().find_map(|n| match n {
            CNode::Pair(a, b) => Some((*a, *b)),
            _ => None,
        })
    }

    /// Merges two classes with a rewrite justification. Returns whether
    /// anything changed. Under [`RebuildMode::Deferred`] this only
    /// enqueues repair work — call [`EGraph::rebuild`] before the next
    /// match phase.
    pub fn union(&mut self, a: Id, b: Id, lemma: Lemma, note: impl Into<String>) -> bool {
        self.union_detailed(a, b, lemma, note, Vec::new())
    }

    /// [`EGraph::union`] carrying the lemma steps of the oracle that
    /// discharged the rewrite's side condition.
    pub fn union_detailed(
        &mut self,
        a: Id,
        b: Id,
        lemma: Lemma,
        note: impl Into<String>,
        substeps: Vec<(Lemma, String)>,
    ) -> bool {
        self.union_just(
            a,
            b,
            Justification::Rule {
                lemma,
                note: note.into(),
                substeps,
            },
        )
    }

    fn union_just(&mut self, a: Id, b: Id, just: Justification) -> bool {
        let Some((winner, loser)) = self.uf.union(a, b, just) else {
            return false;
        };
        self.n_unions += 1;
        let lost = self.classes.remove(&loser).unwrap_or_default();
        let class = self.classes.entry(winner).or_default();
        class.nodes.extend(lost.nodes);
        class.parents.extend(lost.parents);
        self.dirty.push(winner);
        if self.rebuild_mode == RebuildMode::PerUnion && !self.rebuilding {
            self.rebuild();
        }
        true
    }

    /// Rebuilds now if any union left the congruence invariant pending —
    /// the guard every snapshot/extraction/explanation entry point runs,
    /// so deferred repair can never leak stale structure to a reader.
    fn ensure_clean(&mut self) {
        if !self.dirty.is_empty() {
            self.rebuild();
        }
    }

    /// Restores the congruence invariant after unions: re-canonicalizes
    /// parents of merged classes, re-simplifies them, and unions classes
    /// whose nodes collapse together. Runs to fixpoint.
    pub fn rebuild(&mut self) {
        self.rebuilding = true;
        while let Some(id) = self.dirty.pop() {
            let id = self.uf.find(id);
            let parents = match self.classes.get_mut(&id) {
                Some(c) => std::mem::take(&mut c.parents),
                None => continue,
            };
            let mut kept: Vec<(CNode, Id)> = Vec::new();
            let mut seen: HashSet<CNode> = HashSet::new();
            for (node, pid) in parents {
                self.hashcons.remove(&node);
                let pid = self.uf.find(pid);
                let canon = {
                    let EGraph { uf, arena, .. } = self;
                    arena.canonicalize(node, |c| uf.find(c))
                };
                match self.simplify(canon) {
                    Simplified::Alias(target, lemma, note) => {
                        self.union_just(
                            pid,
                            target,
                            Justification::Rule {
                                lemma,
                                note: note.to_owned(),
                                substeps: Vec::new(),
                            },
                        );
                    }
                    Simplified::Node(canon) => {
                        match self.hashcons.get(&canon) {
                            Some(&other) => {
                                let other = self.uf.find(other);
                                if other != pid {
                                    let mut old_kids = Vec::new();
                                    self.arena.push_children(node, &mut old_kids);
                                    let mut new_kids = Vec::new();
                                    self.arena.push_children(canon, &mut new_kids);
                                    let children: Vec<(Id, Id)> =
                                        old_kids.into_iter().zip(new_kids).collect();
                                    self.union_just(
                                        pid,
                                        other,
                                        Justification::Congruence {
                                            op: canon.op_name(),
                                            children,
                                        },
                                    );
                                }
                            }
                            None => {
                                self.hashcons.insert(canon, pid);
                            }
                        }
                        if seen.insert(canon) {
                            kept.push((canon, pid));
                        }
                    }
                }
            }
            let id = self.uf.find(id);
            self.classes.entry(id).or_default().parents.extend(kept);
        }
        self.rebuilding = false;
        debug_assert!(self.dirty.is_empty());
    }

    /// A snapshot of `(canonical node, class id)` pairs for the match
    /// phase of a saturation iteration. Sorted by class then node, so
    /// rewrite matching and extraction tie-breaking are deterministic
    /// (hash-map iteration order must never leak into chosen plans or
    /// explanations). Pending congruence repair is drained first.
    pub fn node_snapshot(&mut self) -> Vec<(ENode, Id)> {
        self.ensure_clean();
        let entries: Vec<(CNode, Id)> = self.hashcons.iter().map(|(&n, &id)| (n, id)).collect();
        let mut canon: Vec<(ENode, Id)> = entries
            .into_iter()
            .map(|(n, id)| {
                let id = self.uf.find(id);
                let cn = {
                    let EGraph { uf, arena, .. } = self;
                    arena.canonicalize(n, |c| uf.find(c))
                };
                (self.arena.enode(cn), id)
            })
            .collect();
        canon.sort_unstable_by(|(na, ia), (nb, ib)| ia.cmp(ib).then_with(|| na.cmp(nb)));
        canon
    }

    /// Minimum-size extraction table: canonical class id → (cost, best
    /// node). Classes reachable only through cycles are absent. The
    /// cost-generic version is [`EGraph::extraction_with`].
    pub fn extraction(&mut self) -> HashMap<Id, (usize, ENode)> {
        self.extraction_with(&crate::extract::TreeSize)
    }

    /// Best-cost extraction table under an arbitrary
    /// [`CostFunction`](crate::extract::CostFunction): canonical class
    /// id → (cost, best node).
    pub fn extraction_with<C: crate::extract::CostFunction>(
        &mut self,
        cost: &C,
    ) -> HashMap<Id, (C::Cost, ENode)> {
        let snapshot = self.node_snapshot();
        crate::extract::best_costs(&snapshot, cost)
    }

    /// Extracts the best [`UExpr`] of a class under an extraction table
    /// (any cost type), resolving bound indices through `env`. `None`
    /// when the class has no finite-cost representative (cycle-only) or
    /// `best` lacks an entry.
    pub fn extract_uexpr<K: Clone>(
        &mut self,
        best: &HashMap<Id, (K, ENode)>,
        id: Id,
        env: &mut NameEnv<'_>,
    ) -> Option<UExpr> {
        let key = self.extraction_key(best, id)?;
        let (_, node) = best.get(&key)?.clone();
        if !self.extractable(best, key) {
            return None;
        }
        Some(best_uexpr(best, &node, env))
    }

    /// Term-sort counterpart of [`EGraph::extract_uexpr`].
    pub fn extract_term<K: Clone>(
        &mut self,
        best: &HashMap<Id, (K, ENode)>,
        id: Id,
        env: &mut NameEnv<'_>,
    ) -> Option<Term> {
        let key = self.extraction_key(best, id)?;
        let (_, node) = best.get(&key)?.clone();
        if !self.extractable(best, key) {
            return None;
        }
        Some(best_term(best, &node, env))
    }

    /// The key under which `id` appears in an extraction table. The
    /// table is keyed by ids canonical at the time it was built; unions
    /// performed since may have re-rooted `id`, in which case the
    /// original id still indexes the (still-valid) pre-union entry.
    fn extraction_key<K>(&mut self, best: &HashMap<Id, (K, ENode)>, id: Id) -> Option<Id> {
        let canon = self.uf.find(id);
        if best.contains_key(&canon) {
            Some(canon)
        } else if best.contains_key(&id) {
            Some(id)
        } else {
            None
        }
    }

    /// Whether every class reachable from `id`'s best node has a best
    /// node itself, with no cycle among the chosen nodes (extraction
    /// will neither panic nor recurse forever). A non-monotone cost
    /// function can record a self-referential best node — a table a
    /// readback must refuse, not chase. `id` must be a valid extraction
    /// key.
    fn extractable<K>(&mut self, best: &HashMap<Id, (K, ENode)>, id: Id) -> bool {
        // Iterative DFS with an explicit on-path set: `Enter` pushes the
        // children, `Exit` pops the class off the current path.
        enum Step {
            Enter(Id),
            Exit(Id),
        }
        let mut stack = vec![Step::Enter(id)];
        let mut done: HashSet<Id> = HashSet::new();
        let mut on_path: HashSet<Id> = HashSet::new();
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(c) => {
                    if done.contains(&c) {
                        continue;
                    }
                    if !on_path.insert(c) {
                        return false; // chosen nodes form a cycle
                    }
                    let Some((_, node)) = best.get(&c) else {
                        return false;
                    };
                    stack.push(Step::Exit(c));
                    for child in node.children() {
                        stack.push(Step::Enter(child));
                    }
                }
                Step::Exit(c) => {
                    on_path.remove(&c);
                    done.insert(c);
                }
            }
        }
        true
    }

    /// Appends to `trace` the chain of lemma applications that merged
    /// `a` and `b`, recursing through congruence steps. Returns `false`
    /// if the ids are not equivalent. Pending congruence repair is
    /// drained first, so the proof forest the walk reads is final.
    pub fn explain_into(&mut self, a: Id, b: Id, trace: &mut Trace) -> bool {
        self.ensure_clean();
        let mut seen: HashSet<(Id, Id)> = HashSet::new();
        self.explain_rec(a, b, trace, &mut seen, 0)
    }

    fn explain_rec(
        &mut self,
        a: Id,
        b: Id,
        trace: &mut Trace,
        seen: &mut HashSet<(Id, Id)>,
        depth: usize,
    ) -> bool {
        if a == b || depth > 16 {
            return true;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if !seen.insert(key) {
            return true; // already explained elsewhere in this proof
        }
        let Some(path) = self.uf.explain(a, b) else {
            return false;
        };
        let steps: Vec<Justification> = path.into_iter().cloned().collect();
        for just in steps {
            match just {
                Justification::Rule {
                    lemma,
                    note,
                    substeps,
                } => {
                    trace.step(lemma, note);
                    for (l, n) in substeps {
                        trace.step(l, n);
                    }
                }
                Justification::Congruence { op, children } => {
                    trace.step(Lemma::EqCongruence, format!("congruence on {op}"));
                    for (x, y) in children {
                        self.explain_rec(x, y, trace, seen, depth + 1);
                    }
                }
            }
        }
        true
    }
}

/// Builds the best [`UExpr`] from a chosen representative node.
fn best_uexpr<K: Clone>(
    best: &HashMap<Id, (K, ENode)>,
    node: &ENode,
    env: &mut NameEnv<'_>,
) -> UExpr {
    node_to_uexpr(
        node,
        env,
        &mut |id, env| {
            let (_, n) = best.get(&id).expect("finite-cost child").clone();
            best_uexpr(best, &n, env)
        },
        &mut |id, env| {
            let (_, n) = best.get(&id).expect("finite-cost child").clone();
            best_term(best, &n, env)
        },
    )
}

/// Builds the best [`Term`] from a chosen representative node.
fn best_term<K: Clone>(
    best: &HashMap<Id, (K, ENode)>,
    node: &ENode,
    env: &mut NameEnv<'_>,
) -> Term {
    node_to_term(
        node,
        env,
        &mut |id, env| {
            let (_, n) = best.get(&id).expect("finite-cost child").clone();
            best_uexpr(best, &n, env)
        },
        &mut |id, env| {
            let (_, n) = best.get(&id).expect("finite-cost child").clone();
            best_term(best, &n, env)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::Value;

    #[test]
    fn ac_is_structural() {
        let mut eg = EGraph::new();
        let u = eg.add(ENode::Unit);
        let r = eg.add(ENode::Rel("R".into(), u));
        let s = eg.add(ENode::Rel("S".into(), u));
        let ab = eg.add(ENode::Mul(vec![r, s]));
        let ba = eg.add(ENode::Mul(vec![s, r]));
        assert!(eg.same(ab, ba), "sorted n-ary children make × commutative");
    }

    #[test]
    fn units_and_zero_collapse() {
        let mut eg = EGraph::new();
        let one = eg.one();
        let zero = eg.zero();
        let u = eg.add(ENode::Unit);
        let r = eg.add(ENode::Rel("R".into(), u));
        let r1 = eg.add(ENode::Mul(vec![r, one]));
        assert!(eg.same(r1, r), "R × 1 = R");
        let rz = eg.add(ENode::Mul(vec![r, zero]));
        assert!(eg.same(rz, zero), "R × 0 = 0");
        let r_plus_zero = eg.add(ENode::Add(vec![r, zero]));
        assert!(eg.same(r_plus_zero, r), "R + 0 = R");
    }

    #[test]
    fn duplicates_are_kept_in_products() {
        let mut eg = EGraph::new();
        let u = eg.add(ENode::Unit);
        let r = eg.add(ENode::Rel("R".into(), u));
        let rr = eg.add(ENode::Mul(vec![r, r]));
        assert!(!eg.same(rr, r), "R × R ≠ R (bag semantics)");
    }

    #[test]
    fn congruence_propagates_after_union() {
        let mut eg = EGraph::new();
        let u = eg.add(ENode::Unit);
        let x = eg.add(ENode::FreeVar(
            uninomial::syntax::VarGen::new().fresh(relalg::Schema::leaf(relalg::BaseType::Int)),
        ));
        let ru = eg.add(ENode::Rel("R".into(), u));
        let rx = eg.add(ENode::Rel("R".into(), x));
        assert!(!eg.same(ru, rx));
        eg.union(u, x, Lemma::EqCongruence, "test premise");
        eg.rebuild();
        assert!(eg.same(ru, rx), "R(u) = R(x) once u = x");
        // The explanation must mention congruence.
        let mut tr = Trace::new();
        assert!(eg.explain_into(ru, rx, &mut tr));
        assert!(!tr.is_empty());
    }

    #[test]
    fn eq_of_merged_children_is_one() {
        let mut eg = EGraph::new();
        let mut gen = uninomial::syntax::VarGen::new();
        let schema = relalg::Schema::leaf(relalg::BaseType::Int);
        let a = eg.add(ENode::FreeVar(gen.fresh(schema.clone())));
        let b = eg.add(ENode::FreeVar(gen.fresh(schema)));
        let e = eg.add(ENode::Eq(a, b));
        assert!(!eg.same(e, eg.one));
        eg.union(a, b, Lemma::EqCongruence, "premise");
        eg.rebuild();
        let one = eg.one();
        let e = eg.find(e);
        assert_eq!(e, one, "(a = a) collapses to 1 on rebuild");
    }

    #[test]
    fn distinct_constants_make_eq_zero() {
        let mut eg = EGraph::new();
        let c1 = eg.add(ENode::Const(Value::Int(1)));
        let c2 = eg.add(ENode::Const(Value::Int(2)));
        let e = eg.add(ENode::Eq(c1, c2));
        let zero = eg.zero();
        assert_eq!(eg.find(e), zero);
    }

    #[test]
    fn flattening_merges_nested_products() {
        let mut eg = EGraph::new();
        let u = eg.add(ENode::Unit);
        let r = eg.add(ENode::Rel("R".into(), u));
        let s = eg.add(ENode::Rel("S".into(), u));
        let t = eg.add(ENode::Rel("T".into(), u));
        let rs = eg.add(ENode::Mul(vec![r, s]));
        let nested = eg.add(ENode::Mul(vec![rs, t]));
        let flat = eg.add(ENode::Mul(vec![r, s, t]));
        assert!(eg.same(nested, flat), "associativity by flattening");
    }

    #[test]
    fn per_union_mode_matches_deferred_on_congruence_cascade() {
        // Same premise as `congruence_propagates_after_union`, but the
        // per-union baseline needs no explicit rebuild call at all.
        let mut eg = EGraph::new();
        eg.set_rebuild_mode(RebuildMode::PerUnion);
        let u = eg.add(ENode::Unit);
        let x = eg.add(ENode::FreeVar(
            uninomial::syntax::VarGen::new().fresh(relalg::Schema::leaf(relalg::BaseType::Int)),
        ));
        let ru = eg.add(ENode::Rel("R".into(), u));
        let rx = eg.add(ENode::Rel("R".into(), x));
        eg.union(u, x, Lemma::EqCongruence, "test premise");
        assert!(eg.same(ru, rx), "per-union mode repairs immediately");
    }

    #[test]
    fn snapshot_and_explain_self_clean_pending_repair() {
        let mut eg = EGraph::new();
        let u = eg.add(ENode::Unit);
        let x = eg.add(ENode::FreeVar(
            uninomial::syntax::VarGen::new().fresh(relalg::Schema::leaf(relalg::BaseType::Int)),
        ));
        let ru = eg.add(ENode::Rel("R".into(), u));
        let rx = eg.add(ENode::Rel("R".into(), x));
        eg.union(u, x, Lemma::EqCongruence, "premise");
        // No explicit rebuild: the snapshot guard must drain the
        // worklist, so both `R` applications land in one class.
        let snap = eg.node_snapshot();
        let r_classes: HashSet<Id> = snap
            .iter()
            .filter_map(|(n, id)| matches!(n, ENode::Rel(_, _)).then_some(*id))
            .collect();
        assert_eq!(r_classes.len(), 1, "snapshot self-cleans: {snap:?}");
        let mut tr = Trace::new();
        assert!(eg.explain_into(ru, rx, &mut tr));
    }
}
