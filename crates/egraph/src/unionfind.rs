//! Proof-producing union-find.
//!
//! The classic disjoint-set structure with path compression for `find`,
//! extended with the *proof forest* of Nieuwenhuis and Oliveras: every
//! [`union`](UnionFind::union) records a justification edge between the
//! two ids it was asked to merge (not their representatives), in a
//! second, never-compressed parent structure.
//! [`explain`](UnionFind::explain) later recovers, for any two equivalent
//! ids, the chain of justifications that merged them — the skeleton of an
//! auditable proof.
//!
//! Justifications carry the trusted [`Lemma`] that licensed the union,
//! so a saturation proof extracted from the forest references the same
//! axiom catalog as the normalizer's traces.

use std::fmt;
use uninomial::lemmas::Lemma;

/// An e-class id. Only meaningful relative to the [`UnionFind`] /
/// e-graph that issued it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id(pub(crate) u32);

impl Id {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Why two e-classes were merged.
#[derive(Clone, Debug)]
pub enum Justification {
    /// A rewrite compiled from the named trusted lemma.
    Rule {
        /// The axiom that licensed the union.
        lemma: Lemma,
        /// Human-readable instance note.
        note: String,
        /// Lemma steps recorded by the oracle that discharged the
        /// rewrite's side condition (e.g. the deductive entailment
        /// behind an absorption), keeping the full proof auditable.
        substeps: Vec<(Lemma, String)>,
    },
    /// Congruence: the merged classes contain nodes with the same
    /// operator whose children are pairwise equal.
    Congruence {
        /// Operator name (for the proof note).
        op: &'static str,
        /// Pairwise-equal child ids, for recursive explanation.
        children: Vec<(Id, Id)>,
    },
}

/// Union-find with a proof forest.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<Id>,
    rank: Vec<u32>,
    /// Proof forest: uncompressed justification edges.
    proof: Vec<Option<(Id, Justification)>>,
}

impl UnionFind {
    /// An empty structure.
    pub fn new() -> UnionFind {
        UnionFind::default()
    }

    /// Number of ids issued.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no ids have been issued.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Creates a fresh singleton class.
    pub fn make_set(&mut self) -> Id {
        let id = Id(u32::try_from(self.parent.len()).expect("e-class id overflow"));
        self.parent.push(id);
        self.rank.push(0);
        self.proof.push(None);
        id
    }

    /// Canonical representative of `id`, with path compression.
    pub fn find(&mut self, id: Id) -> Id {
        let mut root = id;
        while self.parent[root.index()] != root {
            root = self.parent[root.index()];
        }
        // Compress.
        let mut cur = id;
        while self.parent[cur.index()] != root {
            let next = self.parent[cur.index()];
            self.parent[cur.index()] = root;
            cur = next;
        }
        root
    }

    /// Whether two ids are in the same class.
    pub fn same(&mut self, a: Id, b: Id) -> bool {
        self.find(a) == self.find(b)
    }

    /// Merges the classes of `a` and `b`, recording `just` in the proof
    /// forest. Returns `(winner, loser)` representatives — `None` if the
    /// ids were already equal (nothing recorded).
    pub fn union(&mut self, a: Id, b: Id, just: Justification) -> Option<(Id, Id)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        // Proof forest: re-root a's justification tree at `a`, then hang
        // it below `b`. Edges always connect the ids the caller named,
        // which is what makes the recorded justification meaningful.
        self.reroot_proof(a);
        self.proof[a.index()] = Some((b, just));
        // Union by rank on the compressed structure.
        let (winner, loser) = if self.rank[ra.index()] >= self.rank[rb.index()] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser.index()] = winner;
        if self.rank[ra.index()] == self.rank[rb.index()] {
            self.rank[winner.index()] += 1;
        }
        Some((winner, loser))
    }

    /// Reverses the proof-forest path from `id` to its forest root, so
    /// that `id` becomes the root of its justification tree.
    fn reroot_proof(&mut self, id: Id) {
        let mut prev: Option<(Id, Justification)> = None;
        let mut cur = id;
        loop {
            let next = self.proof[cur.index()].take();
            if let Some(p) = prev {
                self.proof[cur.index()] = Some(p);
            }
            match next {
                None => break,
                Some((parent, just)) => {
                    prev = Some((cur, just));
                    cur = parent;
                }
            }
        }
    }

    /// The path of justification edges from `a` to `b`, if they are
    /// equivalent. Each element is the justification of one union on the
    /// path, in order from `a` to `b`.
    pub fn explain(&self, a: Id, b: Id) -> Option<Vec<&Justification>> {
        if a == b {
            return Some(Vec::new());
        }
        // Walk both ids to their proof-forest roots, then drop the
        // common suffix of the two paths.
        let path = |mut id: Id| -> Vec<Id> {
            let mut out = vec![id];
            while let Some((next, _)) = &self.proof[id.index()] {
                id = *next;
                out.push(id);
            }
            out
        };
        let pa = path(a);
        let pb = path(b);
        if pa.last() != pb.last() {
            return None; // different forests: not equivalent
        }
        let mut ia = pa.len();
        let mut ib = pb.len();
        while ia > 0 && ib > 0 && pa[ia - 1] == pb[ib - 1] {
            ia -= 1;
            ib -= 1;
        }
        // Edges a → lca, then lca → b (reverse direction of pb's edges).
        let mut out = Vec::new();
        for node in pa.iter().take(ia) {
            let (_, just) = self.proof[node.index()].as_ref().expect("edge on path");
            out.push(just);
        }
        for node in pb.iter().take(ib).rev() {
            let (_, just) = self.proof[node.index()].as_ref().expect("edge on path");
            out.push(just);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(note: &str) -> Justification {
        Justification::Rule {
            lemma: Lemma::AddAcu,
            note: note.to_owned(),
            substeps: Vec::new(),
        }
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        let c = uf.make_set();
        assert!(!uf.same(a, b));
        uf.union(a, b, rule("ab"));
        assert!(uf.same(a, b));
        assert!(!uf.same(a, c));
        uf.union(b, c, rule("bc"));
        assert!(uf.same(a, c));
        assert_eq!(uf.len(), 3);
    }

    #[test]
    fn explain_collects_path_justifications() {
        let mut uf = UnionFind::new();
        let ids: Vec<Id> = (0..5).map(|_| uf.make_set()).collect();
        uf.union(ids[0], ids[1], rule("01"));
        uf.union(ids[2], ids[3], rule("23"));
        uf.union(ids[1], ids[2], rule("12"));
        let path = uf.explain(ids[0], ids[3]).expect("equivalent");
        let notes: Vec<&str> = path
            .iter()
            .map(|j| match j {
                Justification::Rule { note, .. } => note.as_str(),
                Justification::Congruence { .. } => "congruence",
            })
            .collect();
        assert_eq!(notes, vec!["01", "12", "23"]);
        assert!(uf.explain(ids[0], ids[4]).is_none(), "not equivalent");
    }

    #[test]
    fn explain_is_symmetric_in_reachability() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        uf.union(a, b, rule("ab"));
        assert_eq!(uf.explain(a, b).unwrap().len(), 1);
        assert_eq!(uf.explain(b, a).unwrap().len(), 1);
        assert_eq!(uf.explain(a, a).unwrap().len(), 0);
    }
}
