//! Cross-seed discovery: equalities between many tagged roots.
//!
//! A [`Discovery`] seeds tagged roots into ONE [`Solver`] and saturates
//! it once. With many roots in one graph, saturation merges classes *of
//! different roots* — equalities no single-seed search would pose.
//! Catalog discovery (`dopcert catalog --discover`) and the rule miner
//! each build one. Both reads consume the value, so the graph saturates
//! exactly once, after every root is seeded.

use crate::solve::{Budget, Solver};
use crate::unionfind::Id;
use uninomial::syntax::intern::{Interner, UExprId};
use uninomial::UExpr;

/// A tagged seed.
#[derive(Debug)]
struct Root {
    tag: String,
    class: Id,
    /// Interned expression: equal keys mean structurally equal roots.
    key: UExprId,
}

/// A multi-seed discovery graph. See the module docs.
#[derive(Debug)]
pub struct Discovery {
    solver: Solver,
    interner: Interner,
    roots: Vec<Root>,
}

impl Discovery {
    /// An empty graph whose one saturation runs under `budget`.
    pub fn new(budget: Budget) -> Discovery {
        Discovery {
            solver: Solver::new(budget),
            interner: Interner::new(),
            roots: Vec::new(),
        }
    }

    /// Seeds a tagged root. A root structurally equal to an earlier one
    /// lands in the same class; its tag is still recorded, so
    /// [`Discovery::discovered`] can report both names.
    pub fn add_root(&mut self, tag: impl Into<String>, expr: &UExpr) {
        let key = self.interner.intern(expr);
        self.solver.reserve_names_above(expr.max_var_id());
        let class = self.solver.seed_interned(&self.interner, key);
        self.roots.push(Root {
            tag: tag.into(),
            class,
            key,
        });
    }

    /// Saturates the graph, then lists every pair of roots `(i, j)`,
    /// `i < j`, whose classes merged.
    fn merged(&mut self) -> Vec<(usize, usize)> {
        self.solver.saturate();
        let eg = self.solver.egraph();
        let mut out = Vec::new();
        for (i, a) in self.roots.iter().enumerate() {
            for (j, b) in self.roots.iter().enumerate().skip(i + 1) {
                if eg.same(a.class, b.class) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Pairs of distinct tags whose roots merged, sorted for a
    /// deterministic report. Roots that interned to the same expression
    /// count too — two differently-tagged seeds normalizing to one
    /// expression is itself a discovery — but the pair is flagged so
    /// consumers can set them apart from saturation-proved equalities.
    /// Returns `(tag_a, tag_b, structural)` with `structural = true` for
    /// the same-expression case.
    pub fn discovered(mut self) -> Vec<(String, String, bool)> {
        let mut out = Vec::new();
        for (i, j) in self.merged() {
            let (a, b) = (&self.roots[i], &self.roots[j]);
            let (ta, tb) = if a.tag <= b.tag {
                (&a.tag, &b.tag)
            } else {
                (&b.tag, &a.tag)
            };
            if ta == tb {
                continue;
            }
            // Canonical (lhs, rhs) key pair first: the report order
            // survives tag renames, and orientation-symmetric duplicates
            // (one expression pair seeded under swapped tags) land
            // adjacent so the key-pair dedup below removes them.
            let structural = a.key == b.key;
            out.push((
                a.key.min(b.key),
                a.key.max(b.key),
                ta.clone(),
                tb.clone(),
                structural,
            ));
        }
        out.sort();
        out.dedup_by(|x, y| (x.0, x.1) == (y.0, y.1) && x.4 == y.4);
        out.into_iter()
            .map(|(_, _, ta, tb, structural)| (ta, tb, structural))
            .collect()
    }

    /// Every merged pair of structurally different roots as
    /// expressions, deduped and sorted by key pair. This is the rule
    /// miner's worklist — tags are irrelevant to mining, so
    /// structurally equal seeds are skipped rather than flagged.
    pub fn discovered_exprs(mut self) -> Vec<(UExpr, UExpr)> {
        let mut keys: Vec<(UExprId, UExprId)> = self
            .merged()
            .into_iter()
            .map(|(i, j)| (self.roots[i].key, self.roots[j].key))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|(a, b)| (self.interner.extract(a), self.interner.extract(b)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninomial::syntax::Term;

    fn rel(name: &str) -> UExpr {
        UExpr::rel(name, Term::Unit)
    }

    #[test]
    fn cross_seed_discovery_reports_merged_roots() {
        let lhs = UExpr::mul(rel("R"), UExpr::add(rel("S"), rel("T")));
        let rhs = UExpr::add(
            UExpr::mul(rel("S"), rel("R")),
            UExpr::mul(rel("T"), rel("R")),
        );
        let mut graph = Discovery::new(Budget::default());
        graph.add_root("rule-a/lhs", &lhs);
        graph.add_root("rule-b/rhs", &rhs);
        // Same-expression roots under different tags are discoveries
        // too, flagged structural.
        graph.add_root("rule-c/lhs", &lhs);
        let found = graph.discovered();
        assert!(
            found.contains(&("rule-a/lhs".into(), "rule-b/rhs".into(), false)),
            "{found:?}"
        );
        assert!(
            found.contains(&("rule-a/lhs".into(), "rule-c/lhs".into(), true)),
            "{found:?}"
        );
    }
}
