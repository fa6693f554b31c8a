//! Bag equivalence of conjunctive queries.
//!
//! Under bag semantics, two CQs are equivalent iff they are *isomorphic*
//! (Chaudhuri–Vardi \[10\]; Fig. 9 lists the problem as graph-isomorphism
//! complete). The implementation searches for a variable bijection that
//! maps the atom multiset of one query onto the other's exactly and
//! preserves the head.

use crate::{Cq, CqTerm};
use std::collections::BTreeMap;

/// Decides bag equivalence of two CQs (isomorphism), returning the
/// variable bijection on success.
pub fn bag_equivalent_witness(a: &Cq, b: &Cq) -> Option<BTreeMap<u32, u32>> {
    if a.head.len() != b.head.len() || a.atoms.len() != b.atoms.len() {
        return None;
    }
    // Necessary: same multiset of relation names.
    let mut ra: Vec<&str> = a.atoms.iter().map(|x| x.rel.as_str()).collect();
    let mut rb: Vec<&str> = b.atoms.iter().map(|x| x.rel.as_str()).collect();
    ra.sort_unstable();
    rb.sort_unstable();
    if ra != rb {
        return None;
    }
    let mut map: BTreeMap<u32, u32> = BTreeMap::new();
    let mut used_b: BTreeMap<u32, u32> = BTreeMap::new(); // reverse map
                                                          // Head must map pointwise.
    for (ta, tb) in a.head.iter().zip(&b.head) {
        if !extend(&mut map, &mut used_b, ta, tb) {
            return None;
        }
    }
    let mut used_atoms = vec![false; b.atoms.len()];
    if match_atoms(a, b, 0, &mut used_atoms, &mut map, &mut used_b) {
        Some(map)
    } else {
        None
    }
}

/// Decides bag equivalence.
pub fn bag_equivalent(a: &Cq, b: &Cq) -> bool {
    bag_equivalent_witness(a, b).is_some()
}

fn extend(
    map: &mut BTreeMap<u32, u32>,
    rev: &mut BTreeMap<u32, u32>,
    ta: &CqTerm,
    tb: &CqTerm,
) -> bool {
    match (ta, tb) {
        (CqTerm::Const(x), CqTerm::Const(y)) => x == y,
        (CqTerm::Var(x), CqTerm::Var(y)) => match (map.get(x), rev.get(y)) {
            (Some(mapped), _) if mapped != y => false,
            (_, Some(src)) if src != x => false,
            _ => {
                map.insert(*x, *y);
                rev.insert(*y, *x);
                true
            }
        },
        _ => false,
    }
}

fn match_atoms(
    a: &Cq,
    b: &Cq,
    i: usize,
    used: &mut [bool],
    map: &mut BTreeMap<u32, u32>,
    rev: &mut BTreeMap<u32, u32>,
) -> bool {
    let Some(atom) = a.atoms.get(i) else {
        return true;
    };
    for (j, cand) in b.atoms.iter().enumerate() {
        if used[j] || cand.rel != atom.rel || cand.terms.len() != atom.terms.len() {
            continue;
        }
        let (m0, r0) = (map.clone(), rev.clone());
        let ok = atom
            .terms
            .iter()
            .zip(&cand.terms)
            .all(|(ta, tb)| extend(map, rev, ta, tb));
        if ok {
            used[j] = true;
            if match_atoms(a, b, i + 1, used, map, rev) {
                return true;
            }
            used[j] = false;
        }
        *map = m0;
        *rev = r0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CqAtom;

    fn v(n: u32) -> CqTerm {
        CqTerm::Var(n)
    }

    #[test]
    fn alpha_renaming_is_bag_equivalent() {
        let a = Cq::new(vec![v(0)], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        let b = Cq::new(vec![v(7)], vec![CqAtom::new("R", vec![v(7), v(9)])]);
        let w = bag_equivalent_witness(&a, &b).unwrap();
        assert_eq!(w.get(&0), Some(&7));
        assert_eq!(w.get(&1), Some(&9));
    }

    #[test]
    fn atom_reordering_is_bag_equivalent() {
        let a = Cq::new(
            vec![],
            vec![
                CqAtom::new("R", vec![v(0)]),
                CqAtom::new("S", vec![v(0), v(1)]),
            ],
        );
        let b = Cq::new(
            vec![],
            vec![
                CqAtom::new("S", vec![v(2), v(3)]),
                CqAtom::new("R", vec![v(2)]),
            ],
        );
        assert!(bag_equivalent(&a, &b));
    }

    #[test]
    fn redundant_self_join_not_bag_equivalent() {
        // Set-equivalent but multiplicities differ: a key distinction the
        // paper's semantics gets right (Sec. 2).
        let q2 = Cq::new(vec![v(0)], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        let q3 = Cq::new(
            vec![v(0)],
            vec![
                CqAtom::new("R", vec![v(0), v(1)]),
                CqAtom::new("R", vec![v(0), v(2)]),
            ],
        );
        assert!(crate::containment::equivalent_set(&q2, &q3));
        assert!(!bag_equivalent(&q2, &q3));
    }

    #[test]
    fn injectivity_enforced() {
        // ans() :- R(x, y)  vs  ans() :- R(x, x): not isomorphic.
        let a = Cq::new(vec![], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        let b = Cq::new(vec![], vec![CqAtom::new("R", vec![v(0), v(0)])]);
        assert!(!bag_equivalent(&a, &b));
        assert!(!bag_equivalent(&b, &a));
    }

    #[test]
    fn head_order_matters() {
        let a = Cq::new(vec![v(0), v(1)], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        let b = Cq::new(vec![v(1), v(0)], vec![CqAtom::new("R", vec![v(0), v(1)])]);
        assert!(!bag_equivalent(&a, &b));
    }

    #[test]
    fn constants_compared_exactly() {
        use relalg::Value;
        let a = Cq::new(
            vec![],
            vec![CqAtom::new("R", vec![CqTerm::Const(Value::Int(1))])],
        );
        let b = Cq::new(
            vec![],
            vec![CqAtom::new("R", vec![CqTerm::Const(Value::Int(2))])],
        );
        assert!(!bag_equivalent(&a, &b));
        assert!(bag_equivalent(&a, &a.clone()));
    }
}
