//! Unions of conjunctive queries (UCQs).
//!
//! Sagiv–Yannakakis \[42\]: a UCQ `q₁ ∪ … ∪ qₙ` is contained in
//! `p₁ ∪ … ∪ pₘ` (set semantics) iff every `qᵢ` is contained in *some*
//! `pⱼ`. Containment/equivalence of UCQs is NP-complete (Fig. 9, row 2).

use crate::containment::contained_in;
use crate::Cq;
use std::fmt;

/// A union of conjunctive queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ucq {
    /// The disjuncts.
    pub disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Builds a UCQ from disjuncts.
    pub fn new(disjuncts: Vec<Cq>) -> Ucq {
        Ucq { disjuncts }
    }

    /// Removes disjuncts that are contained in another disjunct
    /// (redundant union arms).
    pub fn simplify(&self) -> Ucq {
        let mut keep: Vec<Cq> = Vec::new();
        for (i, q) in self.disjuncts.iter().enumerate() {
            let redundant = self.disjuncts.iter().enumerate().any(|(j, p)| {
                i != j
                    && contained_in(q, p)
                    // Break ties deterministically for mutually-contained
                    // pairs: keep the earlier one.
                    && !(contained_in(p, q) && j > i)
            });
            if !redundant {
                keep.push(q.clone());
            }
        }
        Ucq::new(keep)
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∪  ")?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

/// Decides `a ⊆ b` for UCQs (Sagiv–Yannakakis).
pub fn ucq_contained_in(a: &Ucq, b: &Ucq) -> bool {
    a.disjuncts
        .iter()
        .all(|q| b.disjuncts.iter().any(|p| contained_in(q, p)))
}

/// Decides set equivalence of UCQs.
pub fn ucq_equivalent(a: &Ucq, b: &Ucq) -> bool {
    ucq_contained_in(a, b) && ucq_contained_in(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CqAtom, CqTerm};

    fn v(n: u32) -> CqTerm {
        CqTerm::Var(n)
    }

    fn edge() -> Cq {
        Cq::new(vec![], vec![CqAtom::new("R", vec![v(0), v(1)])])
    }

    fn path2() -> Cq {
        Cq::new(
            vec![],
            vec![
                CqAtom::new("R", vec![v(0), v(1)]),
                CqAtom::new("R", vec![v(1), v(2)]),
            ],
        )
    }

    fn s_atom() -> Cq {
        Cq::new(vec![], vec![CqAtom::new("S", vec![v(0)])])
    }

    #[test]
    fn union_with_redundant_arm_simplifies() {
        let u = Ucq::new(vec![edge(), path2()]);
        // path2 ⊆ edge, so the union collapses to edge.
        let s = u.simplify();
        assert_eq!(s.disjuncts.len(), 1);
        assert_eq!(s.disjuncts[0], edge());
        assert!(ucq_equivalent(&u, &s));
    }

    #[test]
    fn containment_per_disjunct() {
        let a = Ucq::new(vec![path2()]);
        let b = Ucq::new(vec![edge(), s_atom()]);
        assert!(ucq_contained_in(&a, &b));
        assert!(!ucq_contained_in(&b, &a));
    }

    #[test]
    fn disjuncts_may_map_to_different_arms() {
        let a = Ucq::new(vec![path2(), s_atom()]);
        let b = Ucq::new(vec![edge(), s_atom()]);
        assert!(ucq_contained_in(&a, &b));
    }

    #[test]
    fn equivalence_of_reordered_unions() {
        let a = Ucq::new(vec![edge(), s_atom()]);
        let b = Ucq::new(vec![s_atom(), edge()]);
        assert!(ucq_equivalent(&a, &b));
    }

    #[test]
    fn mutually_contained_duplicates_keep_one() {
        let u = Ucq::new(vec![edge(), edge()]);
        let s = u.simplify();
        assert_eq!(s.disjuncts.len(), 1);
    }

    #[test]
    fn display_joins_with_union() {
        let u = Ucq::new(vec![edge(), s_atom()]);
        assert!(u.to_string().contains("∪"));
    }
}
