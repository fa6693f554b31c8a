//! Congruence closure over tuple terms.
//!
//! The deductive prover (Sec. 5.2) reasons from equality atoms: after
//! destructing the hypotheses of a bi-implication goal, it must decide
//! whether a goal equality follows from the hypothesis equalities by
//! reflexivity, symmetry, transitivity, and congruence (the classic
//! Nelson–Oppen congruence-closure problem the paper cites in Sec. 3.4).
//!
//! Beyond standard congruence, this implementation knows two facts about
//! the tuple model:
//!
//! - **pairing is injective**: `(a, b) = (c, d)` entails `a = c` and
//!   `b = d`;
//! - **η**: any term `t` of product schema equals `(t.1, t.2)`, so
//!   unifying `(a, b)` with an opaque `t` entails `a = t.1`, `b = t.2`;
//! - **distinct constants differ**: unifying `1` with `2` marks the
//!   closure contradictory (hypotheses inconsistent — everything follows).

use crate::syntax::Term;
use std::collections::HashMap;

/// A congruence-closure instance over [`Term`]s.
#[derive(Debug, Default)]
pub struct Congruence {
    terms: Vec<Term>,
    index: HashMap<Term, usize>,
    parent: Vec<usize>,
    contradictory: bool,
}

impl Congruence {
    /// An empty closure.
    pub fn new() -> Congruence {
        Congruence::default()
    }

    /// Whether the asserted equalities are inconsistent (two distinct
    /// constants were unified). In that case [`Congruence::equal`]
    /// returns `true` for everything.
    pub fn contradictory(&self) -> bool {
        self.contradictory
    }

    /// Registers a term (β-reduced) and all of its subterms; returns its
    /// node id.
    pub fn add_term(&mut self, t: &Term) -> usize {
        let t = t.beta_reduce();
        if let Some(&i) = self.index.get(&t) {
            return i;
        }
        // Register children first.
        match &t {
            Term::Pair(a, b) => {
                self.add_term(a);
                self.add_term(b);
            }
            Term::Fst(x) | Term::Snd(x) => {
                self.add_term(x);
            }
            Term::Fn(_, args) => {
                for a in args {
                    self.add_term(a);
                }
            }
            _ => {}
        }
        let i = self.terms.len();
        self.terms.push(t.clone());
        self.parent.push(i);
        self.index.insert(t, i);
        self.rebuild();
        i
    }

    /// Asserts `a = b`.
    pub fn add_eq(&mut self, a: &Term, b: &Term) {
        let i = self.add_term(a);
        let j = self.add_term(b);
        self.union(i, j);
        self.rebuild();
    }

    /// Whether `a = b` follows from the asserted equalities.
    pub fn equal(&mut self, a: &Term, b: &Term) -> bool {
        if self.contradictory {
            return true;
        }
        let i = self.add_term(a);
        let j = self.add_term(b);
        self.find(i) == self.find(j)
    }

    /// All registered terms (used to build instantiation candidates).
    pub fn known_terms(&self) -> Vec<Term> {
        self.terms.clone()
    }

    /// A canonical representative of `t`'s equivalence class.
    pub fn representative(&mut self, t: &Term) -> Term {
        let i = self.add_term(t);
        let r = self.find(i);
        self.terms[r].clone()
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, i: usize, j: usize) {
        let (ri, rj) = (self.find(i), self.find(j));
        if ri == rj {
            return;
        }
        // Contradiction on distinct constants.
        if let (Term::Const(x), Term::Const(y)) = (&self.terms[ri], &self.terms[rj]) {
            if x != y {
                self.contradictory = true;
            }
        }
        self.parent[ri] = rj;
        // Pair injectivity / η-expansion.
        let (ti, tj) = (self.terms[i].clone(), self.terms[j].clone());
        match (&ti, &tj) {
            (Term::Pair(a1, b1), Term::Pair(a2, b2)) => {
                let (a1, b1, a2, b2) = (
                    (**a1).clone(),
                    (**b1).clone(),
                    (**a2).clone(),
                    (**b2).clone(),
                );
                self.add_eq_raw(&a1, &a2);
                self.add_eq_raw(&b1, &b2);
            }
            (Term::Pair(a, b), other) | (other, Term::Pair(a, b)) => {
                let (a, b) = ((**a).clone(), (**b).clone());
                let fst = Term::fst(other.clone()).beta_reduce();
                let snd = Term::snd(other.clone()).beta_reduce();
                self.add_eq_raw(&a, &fst);
                self.add_eq_raw(&b, &snd);
            }
            _ => {}
        }
    }

    /// `add_eq` without the trailing rebuild (used inside propagation).
    fn add_eq_raw(&mut self, a: &Term, b: &Term) {
        let i = self.add_term(a);
        let j = self.add_term(b);
        self.union(i, j);
    }

    /// Congruence propagation to a fixpoint: unify applications with
    /// pairwise-equal children. Quadratic per pass — term sets are small
    /// in every proof the system performs.
    fn rebuild(&mut self) {
        loop {
            let mut changed = false;
            let n = self.terms.len();
            for i in 0..n {
                for j in (i + 1)..n {
                    if self.find(i) == self.find(j) {
                        continue;
                    }
                    if self.congruent(i, j) {
                        self.union(i, j);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn congruent(&mut self, i: usize, j: usize) -> bool {
        let (a, b) = (self.terms[i].clone(), self.terms[j].clone());
        match (&a, &b) {
            (Term::Fst(x), Term::Fst(y)) | (Term::Snd(x), Term::Snd(y)) => {
                let (x, y) = ((**x).clone(), (**y).clone());
                self.pairwise_equal(&[x], &[y])
            }
            (Term::Pair(a1, b1), Term::Pair(a2, b2)) => {
                let args1 = [(**a1).clone(), (**b1).clone()];
                let args2 = [(**a2).clone(), (**b2).clone()];
                self.pairwise_equal(&args1, &args2)
            }
            (Term::Fn(f, xs), Term::Fn(g, ys)) if f == g && xs.len() == ys.len() => {
                let xs = xs.clone();
                let ys = ys.clone();
                self.pairwise_equal(&xs, &ys)
            }
            _ => false,
        }
    }

    fn pairwise_equal(&mut self, xs: &[Term], ys: &[Term]) -> bool {
        xs.iter().zip(ys).all(|(x, y)| {
            let i = self.add_term(x);
            let j = self.add_term(y);
            self.find(i) == self.find(j)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::VarGen;
    use relalg::{BaseType, Schema};

    fn vars(n: usize) -> Vec<Term> {
        let mut g = VarGen::new();
        (0..n)
            .map(|_| Term::var(&g.fresh(Schema::leaf(BaseType::Int))))
            .collect()
    }

    #[test]
    fn reflexivity_and_symmetry() {
        let v = vars(2);
        let mut cc = Congruence::new();
        assert!(cc.equal(&v[0], &v[0]));
        assert!(!cc.equal(&v[0], &v[1]));
        cc.add_eq(&v[0], &v[1]);
        assert!(cc.equal(&v[1], &v[0]));
    }

    #[test]
    fn transitivity() {
        // A chain v0 = v1 = … closes end to end, and congruence lifts
        // the end-to-end equality through a function symbol.
        for n in [3, 8, 16, 32] {
            let v = vars(n);
            let mut cc = Congruence::new();
            for w in v.windows(2) {
                cc.add_eq(&w[0], &w[1]);
            }
            assert!(cc.equal(&v[0], &v[n - 1]));
            let fa = Term::func("f", vec![v[0].clone()]);
            let fb = Term::func("f", vec![v[n - 1].clone()]);
            assert!(cc.equal(&fa, &fb));
        }
    }

    #[test]
    fn congruence_over_functions() {
        let v = vars(2);
        let mut cc = Congruence::new();
        let fa = Term::func("f", vec![v[0].clone()]);
        let fb = Term::func("f", vec![v[1].clone()]);
        cc.add_term(&fa);
        cc.add_term(&fb);
        assert!(!cc.equal(&fa, &fb));
        cc.add_eq(&v[0], &v[1]);
        assert!(cc.equal(&fa, &fb));
    }

    #[test]
    fn congruence_discovered_after_union() {
        // Classic: a = b ⊢ f(f(a)) = f(f(b)).
        let v = vars(2);
        let mut cc = Congruence::new();
        let ffa = Term::func("f", vec![Term::func("f", vec![v[0].clone()])]);
        let ffb = Term::func("f", vec![Term::func("f", vec![v[1].clone()])]);
        cc.add_eq(&v[0], &v[1]);
        assert!(cc.equal(&ffa, &ffb));
    }

    #[test]
    fn pair_injectivity() {
        let v = vars(4);
        let mut cc = Congruence::new();
        cc.add_eq(
            &Term::pair(v[0].clone(), v[1].clone()),
            &Term::pair(v[2].clone(), v[3].clone()),
        );
        assert!(cc.equal(&v[0], &v[2]));
        assert!(cc.equal(&v[1], &v[3]));
    }

    #[test]
    fn eta_expansion_through_pairs() {
        // (a, b) = t  ⊢  a = t.1 and b = t.2.
        let mut g = VarGen::new();
        let int = Schema::leaf(BaseType::Int);
        let a = Term::var(&g.fresh(int.clone()));
        let b = Term::var(&g.fresh(int.clone()));
        let t = Term::var(&g.fresh(Schema::node(int.clone(), int)));
        let mut cc = Congruence::new();
        cc.add_eq(&Term::pair(a.clone(), b.clone()), &t);
        assert!(cc.equal(&a, &Term::fst(t.clone())));
        assert!(cc.equal(&b, &Term::snd(t)));
    }

    #[test]
    fn distinct_constants_contradict() {
        let mut cc = Congruence::new();
        cc.add_eq(&Term::int(1), &Term::int(2));
        assert!(cc.contradictory());
        // Everything follows from a contradiction.
        let v = vars(2);
        let mut cc2 = Congruence::new();
        cc2.add_eq(&Term::int(1), &Term::int(2));
        assert!(cc2.equal(&v[0], &v[1]));
    }

    #[test]
    fn same_constants_do_not_contradict() {
        let mut cc = Congruence::new();
        cc.add_eq(&Term::int(1), &Term::int(1));
        assert!(!cc.contradictory());
    }

    #[test]
    fn transitive_constant_contradiction() {
        let v = vars(1);
        let mut cc = Congruence::new();
        cc.add_eq(&v[0], &Term::int(1));
        cc.add_eq(&v[0], &Term::int(2));
        assert!(cc.contradictory());
    }

    #[test]
    fn beta_reduction_on_entry() {
        let v = vars(2);
        let proj = Term::fst(Term::pair(v[0].clone(), v[1].clone()));
        let mut cc = Congruence::new();
        assert!(cc.equal(&proj, &v[0]));
    }

    #[test]
    fn fst_congruence() {
        let mut g = VarGen::new();
        let int = Schema::leaf(BaseType::Int);
        let s = Schema::node(int.clone(), int);
        let t1 = Term::var(&g.fresh(s.clone()));
        let t2 = Term::var(&g.fresh(s));
        let mut cc = Congruence::new();
        cc.add_eq(&t1, &t2);
        assert!(cc.equal(&Term::fst(t1.clone()), &Term::fst(t2.clone())));
        assert!(cc.equal(&Term::snd(t1), &Term::snd(t2)));
    }

    #[test]
    fn representative_is_stable_within_class() {
        let v = vars(3);
        let mut cc = Congruence::new();
        cc.add_eq(&v[0], &v[1]);
        cc.add_eq(&v[1], &v[2]);
        let r0 = cc.representative(&v[0]);
        let r2 = cc.representative(&v[2]);
        assert_eq!(r0, r2);
    }
}
