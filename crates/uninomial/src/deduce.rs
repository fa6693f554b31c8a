//! The deductive prover for propositional goals.
//!
//! The paper proves squash-type equivalences `‖A‖ = ‖B‖` by the
//! bi-implication `A ↔ B` (univalence gives `(A ↔ B) ⇒ (A = B)` for
//! propositions — Sec. 2), establishing each direction by destructing the
//! hypothesis existentials and *instantiating* the goal existentials with
//! witnesses built from the hypotheses (the Ltac backtracking procedure of
//! Sec. 5.2). This module is that procedure:
//!
//! - [`prove_iff`] — proves `A ↔ B` for normal forms `A`, `B`;
//! - [`provable_from`] — proves `hyps ⊢ goal` with case splitting on
//!   hypothesis disjunctions and witness search for goal existentials;
//! - [`entails_atom`] — discharges a single goal atom from hypotheses via
//!   congruence closure, including the aggregate-congruence extension
//!   needed by the Sec. 5.1.2 aggregation rewrite.

use crate::congruence::Congruence;
use crate::equiv;
use crate::lemmas::Lemma;
use crate::normalize::{atom_subst_raw, Atom, Spnf, SpnfTerm, Trace};
use crate::syntax::{Term, UExpr, Var, VarGen};
use relalg::Schema;

/// Shared prover state: fresh-variable source, proof trace, and a depth
/// budget bounding the mutual recursion between entailment, witness
/// search, and aggregate-body equivalence.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Fresh variable source.
    pub gen: &'a mut VarGen,
    /// Proof trace accumulating lemma applications.
    pub trace: &'a mut Trace,
    /// Remaining recursion depth; `0` makes nested entailments fail
    /// (soundly — the prover only ever under-approximates provability).
    pub depth: u32,
}

impl<'a> Ctx<'a> {
    /// Creates a context with the default depth budget.
    pub fn new(gen: &'a mut VarGen, trace: &'a mut Trace) -> Ctx<'a> {
        Ctx {
            gen,
            trace,
            depth: 6,
        }
    }
}

/// Proves `A ↔ B` where both sides are (sums of) propositions, by proving
/// each direction with [`provable_from`]. `ambient` atoms are hypotheses
/// available in both directions (used when the goal sits under an outer
/// product, e.g. inside an aggregate body).
pub fn prove_iff(a: &Spnf, b: &Spnf, ambient: &[Atom], ctx: &mut Ctx<'_>) -> bool {
    let forward = a.terms.iter().all(|ta| {
        let mut hyps = ambient.to_vec();
        hyps.extend(ta.atoms.iter().cloned());
        provable_from(&hyps, b, ctx)
    });
    if !forward {
        return false;
    }
    let backward = b.terms.iter().all(|tb| {
        let mut hyps = ambient.to_vec();
        hyps.extend(tb.atoms.iter().cloned());
        provable_from(&hyps, a, ctx)
    });
    if backward {
        ctx.trace.step(Lemma::PropExt, "A ↔ B proves ‖A‖ = ‖B‖");
    }
    backward
}

/// Proves `hyps ⊢ goal` (both read propositionally). Hypothesis squash
/// atoms are destructed — skolemizing single-summand existentials and case
/// splitting on multi-summand ones — then some goal summand is proved by
/// witness search.
pub fn provable_from(hyps: &[Atom], goal: &Spnf, ctx: &mut Ctx<'_>) -> bool {
    if ctx.depth == 0 {
        return false;
    }
    let branches = flatten_hyps(hyps.to_vec(), ctx);
    branches
        .into_iter()
        .all(|branch| branch_proves(&branch, goal, ctx))
}

/// Destructs hypothesis squash atoms into (possibly several) branches of
/// plain atom lists; every branch must subsequently prove the goal.
fn flatten_hyps(atoms: Vec<Atom>, ctx: &mut Ctx<'_>) -> Vec<Vec<Atom>> {
    let mut branches: Vec<Vec<Atom>> = vec![Vec::new()];
    for a in atoms {
        match a {
            Atom::Squash(s) if !s.terms.is_empty() => {
                if s.terms.len() > 1 {
                    ctx.trace
                        .step(Lemma::CaseSplit, format!("case split on ‖{s}‖"));
                }
                let mut next = Vec::new();
                for term in &s.terms {
                    // Skolemize: the (globally unique) bound vars become
                    // free constants of the branch.
                    let sub_branches = flatten_hyps(term.atoms.clone(), ctx);
                    for b in &branches {
                        for sb in &sub_branches {
                            let mut nb = b.clone();
                            nb.extend(sb.iter().cloned());
                            next.push(nb);
                        }
                    }
                }
                branches = next;
            }
            other => {
                for b in &mut branches {
                    b.push(other.clone());
                }
            }
        }
    }
    branches
}

fn branch_proves(hyps: &[Atom], goal: &Spnf, ctx: &mut Ctx<'_>) -> bool {
    if goal.terms.is_empty() {
        // Goal 0 holds only from inconsistent hypotheses.
        return build_cc(hyps).contradictory();
    }
    goal.terms.iter().any(|gt| disjunct_provable(hyps, gt, ctx))
}

fn disjunct_provable(hyps: &[Atom], gt: &SpnfTerm, ctx: &mut Ctx<'_>) -> bool {
    let mut cc = build_cc(hyps);
    if cc.contradictory() {
        ctx.trace
            .step(Lemma::MulZero, "hypotheses are inconsistent");
        return true;
    }
    search(hyps, &mut cc, &gt.vars, gt.atoms.clone(), ctx)
}

/// Backtracking witness search: instantiate goal variables with candidate
/// terms drawn from the hypotheses, pruning on already-ground atoms.
fn search(
    hyps: &[Atom],
    cc: &mut Congruence,
    vars: &[Var],
    atoms: Vec<Atom>,
    ctx: &mut Ctx<'_>,
) -> bool {
    // Check atoms that mention none of the remaining variables; prune
    // immediately if one fails.
    let remaining: Vec<&Var> = vars.iter().collect();
    for a in &atoms {
        let fv = a.free_vars();
        if remaining.iter().all(|v| !fv.contains(v)) && !entails_atom(hyps, cc, a, ctx) {
            return false;
        }
    }
    let Some((v, rest)) = vars.split_first() else {
        return true; // all atoms ground and verified above
    };
    for cand in candidates(hyps, &atoms, v) {
        let next: Vec<Atom> = atoms.iter().map(|a| atom_subst_raw(a, v, &cand)).collect();
        if search(hyps, cc, rest, next, ctx) {
            ctx.trace.step(
                Lemma::ExistsWitness,
                format!("instantiate {} := {cand}", v.name()),
            );
            return true;
        }
    }
    false
}

/// Candidate witness terms for variable `v`: subterms of the hypotheses
/// and of the goal's ground part, filtered by schema compatibility.
fn candidates(hyps: &[Atom], goal_atoms: &[Atom], v: &Var) -> Vec<Term> {
    let mut pool: Vec<Term> = Vec::new();
    let collect_atom = |a: &Atom, pool: &mut Vec<Term>| match a {
        Atom::Rel(_, t) | Atom::Pred(_, t) => pool.extend(t.subterms()),
        Atom::Eq(x, y) => {
            pool.extend(x.subterms());
            pool.extend(y.subterms());
        }
        Atom::Not(_) | Atom::Squash(_) => {}
    };
    for h in hyps {
        collect_atom(h, &mut pool);
    }
    for ga in goal_atoms {
        collect_atom(ga, &mut pool);
    }
    // Keep only terms whose free variables are all hypothesis-level (i.e.
    // exclude anything mentioning a still-unbound goal variable, detected
    // as "not free in any hypothesis").
    let mut hyp_vars = std::collections::BTreeSet::new();
    for h in hyps {
        hyp_vars.extend(h.free_vars());
    }
    pool.retain(|t| {
        let fv = t.free_vars();
        fv.iter().all(|x| hyp_vars.contains(x))
    });
    pool.retain(|t| match t.schema() {
        Some(s) => s == v.schema,
        None => matches!(v.schema, Schema::Leaf(_)),
    });
    pool.sort_by_key(|t| format!("{t}").len());
    pool.dedup();
    pool
}

/// Builds a congruence closure from the equality atoms of `hyps`,
/// registering all hypothesis terms for candidate/representative queries.
pub fn build_cc(hyps: &[Atom]) -> Congruence {
    let mut cc = Congruence::new();
    for h in hyps {
        match h {
            Atom::Eq(a, b) => cc.add_eq(a, b),
            Atom::Rel(_, t) | Atom::Pred(_, t) => {
                cc.add_term(t);
            }
            _ => {}
        }
    }
    cc
}

/// Does one goal atom follow from the hypotheses?
pub fn entails_atom(hyps: &[Atom], cc: &mut Congruence, goal: &Atom, ctx: &mut Ctx<'_>) -> bool {
    if cc.contradictory() {
        return true;
    }
    match goal {
        Atom::Eq(a, b) => eq_entailed(hyps, cc, a, b, ctx),
        Atom::Rel(r, t) => hyps.iter().any(|h| match h {
            Atom::Rel(r2, t2) => r2 == r && cc.equal(t, t2),
            _ => false,
        }),
        Atom::Pred(p, t) => hyps.iter().any(|h| match h {
            Atom::Pred(p2, t2) => p2 == p && cc.equal(t, t2),
            _ => false,
        }),
        Atom::Not(s) => hyps.iter().any(|h| match h {
            Atom::Not(s2) => nested_equiv(s, s2, hyps, ctx),
            _ => false,
        }),
        Atom::Squash(s) => {
            let direct = hyps.iter().any(|h| match h {
                Atom::Squash(s2) => nested_equiv(s, s2, hyps, ctx),
                _ => false,
            });
            if direct {
                return true;
            }
            // Prove the existential outright from the hypotheses
            // (Lemma 5.3 absorption uses this for semijoin introduction).
            if ctx.depth == 0 {
                return false;
            }
            ctx.depth -= 1;
            let ok = provable_from(hyps, s, ctx);
            ctx.depth += 1;
            if ok {
                ctx.trace
                    .step(Lemma::Absorption, format!("hypotheses entail ‖{s}‖"));
            }
            ok
        }
    }
}

fn nested_equiv(a: &Spnf, b: &Spnf, ambient: &[Atom], ctx: &mut Ctx<'_>) -> bool {
    if a == b {
        return true;
    }
    if ctx.depth == 0 {
        return false;
    }
    ctx.depth -= 1;
    let ok = equiv::equiv(a, b, ambient, ctx);
    ctx.depth += 1;
    ok
}

/// Equality entailment: congruence closure, extended with aggregate
/// congruence — `agg(λv. B₁) = agg(λv. B₂)` follows when the bodies are
/// equivalent relations under the current hypotheses (function
/// extensionality plus congruence of `agg`).
pub fn eq_entailed(
    hyps: &[Atom],
    cc: &mut Congruence,
    a: &Term,
    b: &Term,
    ctx: &mut Ctx<'_>,
) -> bool {
    if cc.equal(a, b) {
        return true;
    }
    if ctx.depth == 0 {
        return false;
    }
    // Aggregate congruence: compare any aggregate term in a's class with
    // any in b's class.
    let class_a = class_members(cc, a);
    let class_b = class_members(cc, b);
    for x in &class_a {
        for y in &class_b {
            if let (Term::Agg(n1, v1, body1), Term::Agg(n2, v2, body2)) = (x, y) {
                if n1 != n2 {
                    continue;
                }
                let body2 = body2.subst(v2, &Term::var(v1));
                if agg_bodies_equiv(body1, &body2, hyps, ctx) {
                    ctx.trace.step(
                        Lemma::EqCongruence,
                        format!("aggregate bodies of {n1} are equal relations"),
                    );
                    return true;
                }
            }
        }
    }
    false
}

fn class_members(cc: &mut Congruence, t: &Term) -> Vec<Term> {
    let mut out = vec![t.clone()];
    for k in cc.known_terms() {
        if cc.equal(&k, t) {
            out.push(k);
        }
    }
    out.sort();
    out.dedup();
    out
}

fn agg_bodies_equiv(b1: &UExpr, b2: &UExpr, hyps: &[Atom], ctx: &mut Ctx<'_>) -> bool {
    ctx.depth -= 1;
    let n1 = crate::normalize::normalize(b1, ctx.gen, ctx.trace);
    let n2 = crate::normalize::normalize(b2, ctx.gen, ctx.trace);
    let ok = equiv::equiv(&n1, &n2, hyps, ctx);
    ctx.depth += 1;
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use relalg::BaseType;

    fn leaf_int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    struct Setup {
        gen: VarGen,
        trace: Trace,
    }

    impl Setup {
        fn new() -> Setup {
            Setup {
                gen: VarGen::new(),
                trace: Trace::new(),
            }
        }
        fn ctx(&mut self) -> Ctx<'_> {
            Ctx::new(&mut self.gen, &mut self.trace)
        }
        fn nf(&mut self, e: &UExpr) -> Spnf {
            let mut tr = Trace::new();
            normalize(e, &mut self.gen, &mut tr)
        }
    }

    #[test]
    fn trivial_iff() {
        let mut s = Setup::new();
        let t = s.gen.fresh(leaf_int());
        let p = UExpr::pred("b", Term::var(&t));
        let n = s.nf(&p);
        let mut ctx = s.ctx();
        assert!(prove_iff(&n, &n.clone(), &[], &mut ctx));
    }

    #[test]
    fn exists_intro_with_witness_from_hypothesis() {
        // R(c) ⊢ ‖Σx. R(x)‖
        let mut s = Setup::new();
        let c = s.gen.fresh(leaf_int());
        let x = s.gen.fresh(leaf_int());
        let hyp = s.nf(&UExpr::rel("R", Term::var(&c)));
        let goal = s.nf(&UExpr::squash(UExpr::sum(
            x.clone(),
            UExpr::rel("R", Term::var(&x)),
        )));
        let mut ctx = s.ctx();
        let hyps = hyp.terms[0].atoms.clone();
        assert!(provable_from(&hyps, &goal, &mut ctx));

        // R(c1), …, R(cn) ⊢ ‖Σx,y. R(x) × R(y)‖ with n² candidate
        // witness pairs; the entailed squash factor then cancels:
        // R(c1) × … × R(cn) × ‖…‖ = R(c1) × … × R(cn).
        for n in [2, 4, 6] {
            let mut s = Setup::new();
            let consts: Vec<_> = (0..n).map(|_| s.gen.fresh(leaf_int())).collect();
            let hyp = UExpr::product(consts.iter().map(|c| UExpr::rel("R", Term::var(c))));
            let x = s.gen.fresh(leaf_int());
            let y = s.gen.fresh(leaf_int());
            let goal = UExpr::squash(UExpr::sum(
                x.clone(),
                UExpr::sum(
                    y.clone(),
                    UExpr::mul(
                        UExpr::rel("R", Term::var(&x)),
                        UExpr::rel("R", Term::var(&y)),
                    ),
                ),
            ));
            let hyps = s.nf(&hyp).terms[0].atoms.clone();
            assert_eq!(hyps.len(), n);
            let goal_nf = s.nf(&goal);
            assert!(provable_from(&hyps, &goal_nf, &mut s.ctx()));
            assert!(crate::prove_eq(&UExpr::mul(hyp.clone(), goal), &hyp, &mut s.gen).is_ok());
        }
    }

    #[test]
    fn exists_needs_matching_relation() {
        // R(c) ⊬ ‖Σx. S(x)‖
        let mut s = Setup::new();
        let c = s.gen.fresh(leaf_int());
        let x = s.gen.fresh(leaf_int());
        let hyp = s.nf(&UExpr::rel("R", Term::var(&c)));
        let goal = s.nf(&UExpr::squash(UExpr::sum(
            x.clone(),
            UExpr::rel("S", Term::var(&x)),
        )));
        let mut ctx = s.ctx();
        let hyps = hyp.terms[0].atoms.clone();
        assert!(!provable_from(&hyps, &goal, &mut ctx));
    }

    #[test]
    fn fig2_self_join_iff() {
        // ∃t1,t2. (t = a t1) × (a t1 = a t2) × R t1 × R t2
        //   ↔ ∃t0. (t = a t0) × R t0            (Fig. 2, deductive proof)
        let mut s = Setup::new();
        let t = s.gen.fresh(leaf_int());
        let t0 = s.gen.fresh(leaf_int());
        let t1 = s.gen.fresh(leaf_int());
        let t2 = s.gen.fresh(leaf_int());
        let a = |v: &Var| Term::func("a", vec![Term::var(v)]);
        let lhs = s.nf(&UExpr::sum(
            t1.clone(),
            UExpr::sum(
                t2.clone(),
                UExpr::product([
                    UExpr::eq(Term::var(&t), a(&t1)),
                    UExpr::eq(a(&t1), a(&t2)),
                    UExpr::rel("R", Term::var(&t1)),
                    UExpr::rel("R", Term::var(&t2)),
                ]),
            ),
        ));
        let rhs = s.nf(&UExpr::sum(
            t0.clone(),
            UExpr::product([
                UExpr::eq(Term::var(&t), a(&t0)),
                UExpr::rel("R", Term::var(&t0)),
            ]),
        ));
        let mut ctx = s.ctx();
        assert!(prove_iff(&lhs, &rhs, &[], &mut ctx));
    }

    #[test]
    fn case_split_on_disjunctive_hypothesis() {
        // ‖R(c) + S(c)‖ ⊢ ‖Σx. R(x) + Σy. S(y)‖
        let mut s = Setup::new();
        let c = s.gen.fresh(leaf_int());
        let x = s.gen.fresh(leaf_int());
        let y = s.gen.fresh(leaf_int());
        let hyp = s.nf(&UExpr::squash(UExpr::add(
            UExpr::rel("R", Term::var(&c)),
            UExpr::rel("S", Term::var(&c)),
        )));
        let goal = s.nf(&UExpr::squash(UExpr::add(
            UExpr::sum(x.clone(), UExpr::rel("R", Term::var(&x))),
            UExpr::sum(y.clone(), UExpr::rel("S", Term::var(&y))),
        )));
        let mut ctx = s.ctx();
        let hyps = hyp.terms[0].atoms.clone();
        assert!(provable_from(&hyps, &goal, &mut ctx));
    }

    #[test]
    fn congruence_used_in_goal_equalities() {
        // (a = b) × R(f(a)) ⊢ ‖Σx. R(x) × (x = f(b))‖
        let mut s = Setup::new();
        let a = s.gen.fresh(leaf_int());
        let b = s.gen.fresh(leaf_int());
        let x = s.gen.fresh(leaf_int());
        let fa = Term::func("f", vec![Term::var(&a)]);
        let fb = Term::func("f", vec![Term::var(&b)]);
        let hypnf = s.nf(&UExpr::mul(
            UExpr::eq(Term::var(&a), Term::var(&b)),
            UExpr::rel("R", fa.clone()),
        ));
        let goal = s.nf(&UExpr::squash(UExpr::sum(
            x.clone(),
            UExpr::mul(
                UExpr::rel("R", Term::var(&x)),
                UExpr::eq(Term::var(&x), fb.clone()),
            ),
        )));
        let mut ctx = s.ctx();
        let hyps = hypnf.terms[0].atoms.clone();
        assert!(provable_from(&hyps, &goal, &mut ctx));
    }

    #[test]
    fn inconsistent_hypotheses_prove_anything() {
        let mut s = Setup::new();
        let x = s.gen.fresh(leaf_int());
        let goal = s.nf(&UExpr::squash(UExpr::sum(
            x.clone(),
            UExpr::rel("Q", Term::var(&x)),
        )));
        let hyps = vec![Atom::Eq(Term::int(1), Term::int(2))];
        let mut ctx = s.ctx();
        assert!(provable_from(&hyps, &goal, &mut ctx));
    }

    #[test]
    fn goal_zero_needs_contradiction() {
        let mut s = Setup::new();
        let c = s.gen.fresh(leaf_int());
        let hyps = vec![Atom::Rel("R".into(), Term::var(&c))];
        let mut ctx = s.ctx();
        assert!(!provable_from(&hyps, &Spnf::zero(), &mut ctx));
    }

    #[test]
    fn aggregate_congruence_under_hypotheses() {
        // Hypotheses: k(t1) = l. Then
        //   SUM(λx. Σt2.(k t1 = k t2) × R t2 × (x = b t2))
        // = SUM(λx. Σt2.(k t1 = k t2) × (k t2 = l) × R t2 × (x = b t2)).
        let mut s = Setup::new();
        let t1 = s.gen.fresh(leaf_int());
        let l = s.gen.fresh(leaf_int());
        let x = s.gen.fresh(leaf_int());
        let t2a = s.gen.fresh(leaf_int());
        let t2b = s.gen.fresh(leaf_int());
        let k = |v: &Var| Term::func("k", vec![Term::var(v)]);
        let bf = |v: &Var| Term::func("b", vec![Term::var(v)]);
        let body1 = UExpr::sum(
            t2a.clone(),
            UExpr::product([
                UExpr::eq(k(&t1), k(&t2a)),
                UExpr::rel("R", Term::var(&t2a)),
                UExpr::eq(Term::var(&x), bf(&t2a)),
            ]),
        );
        let body2 = UExpr::sum(
            t2b.clone(),
            UExpr::product([
                UExpr::eq(k(&t1), k(&t2b)),
                UExpr::eq(k(&t2b), Term::var(&l)),
                UExpr::rel("R", Term::var(&t2b)),
                UExpr::eq(Term::var(&x), bf(&t2b)),
            ]),
        );
        let agg1 = Term::agg("SUM", x.clone(), body1);
        let agg2 = Term::agg("SUM", x.clone(), body2);
        let hyps = vec![Atom::Eq(k(&t1), Term::var(&l))];
        let mut cc = build_cc(&hyps);
        let mut ctx = s.ctx();
        assert!(eq_entailed(&hyps, &mut cc, &agg1, &agg2, &mut ctx));
        // Without the hypothesis the bodies differ.
        let no_hyps: Vec<Atom> = Vec::new();
        let mut cc2 = build_cc(&no_hyps);
        let mut ctx2 = s.ctx();
        assert!(!eq_entailed(&no_hyps, &mut cc2, &agg1, &agg2, &mut ctx2));
    }
}
