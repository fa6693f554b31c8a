//! Tactic orchestration: the top-level equivalence prover.
//!
//! [`prove_eq`] mirrors the DOPCERT proof strategy (Sec. 5): apply
//! functional extensionality, normalize both denotations (the equational
//! phase of Fig. 1/Fig. 2), then try in order:
//!
//! 1. syntactic equality of normal forms;
//! 2. equational matching up to AC/bijection/congruence/absorption
//!    ([`crate::equiv`]);
//! 3. for propositional goals, the deductive bi-implication prover
//!    ([`crate::deduce`]), justified by `(A ↔ B) ⇒ (‖A‖ = ‖B‖)`.
//!
//! A success returns a [`Proof`] carrying the machine-checkable
//! [`ProofTrace`]; a failure returns both normal forms for inspection
//! (the typical counterexample-hunting workflow).
//!
//! [`prove_eq_with_axioms`] is the one pipeline; [`prove_eq`] is it with
//! no axioms. Both keep no state between calls.

use crate::deduce::{self, Ctx};
use crate::equiv;
use crate::lemmas::Lemma;
use crate::normalize::{normalize, Spnf, Trace};
use crate::syntax::{UExpr, VarGen};
use std::fmt;

/// Re-export: proof traces are [`Trace`]s.
pub type ProofTrace = Trace;

/// Which tactic closed the proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Normal forms were syntactically identical.
    Syntactic,
    /// Equational matching (AC + bijection + congruence + absorption).
    Equational,
    /// Deductive bi-implication on propositional goals.
    Deductive,
    /// Equality saturation: the `egraph` crate's budgeted proof search
    /// over rewrites compiled from the [`Lemma`] catalog. The tactic
    /// lives downstream (the solver depends on this crate); this variant
    /// is how its proofs are reported and traced.
    Saturate,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Syntactic => write!(f, "syntactic"),
            Method::Equational => write!(f, "equational"),
            Method::Deductive => write!(f, "deductive"),
            Method::Saturate => write!(f, "saturation"),
        }
    }
}

/// A successful equivalence proof.
#[derive(Clone, Debug)]
pub struct Proof {
    method: Method,
    trace: Trace,
    lhs_nf: Spnf,
    rhs_nf: Spnf,
}

impl Proof {
    /// Assembles a proof from its parts — the constructor used by
    /// external tactics (notably the `egraph` saturation solver) whose
    /// search produces a [`Trace`] of trusted-lemma applications.
    pub fn new(method: Method, trace: Trace, lhs_nf: Spnf, rhs_nf: Spnf) -> Proof {
        Proof {
            method,
            trace,
            lhs_nf,
            rhs_nf,
        }
    }

    /// Which tactic closed the proof.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The lemma-application trace (the "proof script").
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of lemma applications — the analog of proof LOC in Fig. 8.
    pub fn steps(&self) -> usize {
        self.trace.len()
    }

    /// Normal form of the left-hand side.
    pub fn lhs_normal_form(&self) -> &Spnf {
        &self.lhs_nf
    }

    /// Normal form of the right-hand side.
    pub fn rhs_normal_form(&self) -> &Spnf {
        &self.rhs_nf
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "proved by the {} tactic in {} steps",
            self.method,
            self.steps()
        )?;
        writeln!(f, "  lhs ⇓ {}", self.lhs_nf)?;
        writeln!(f, "  rhs ⇓ {}", self.rhs_nf)?;
        write!(f, "{}", self.trace)
    }
}

/// Failure to prove (not a disproof — equivalence of SQL queries is
/// undecidable in general, Sec. 5.2 / Fig. 9).
#[derive(Clone, Debug)]
pub struct ProveError {
    /// Pretty-printed normal form of the left-hand side.
    pub lhs_nf: String,
    /// Pretty-printed normal form of the right-hand side.
    pub rhs_nf: String,
}

impl fmt::Display for ProveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "not proved: normal forms differ\n  lhs ⇓ {}\n  rhs ⇓ {}",
            self.lhs_nf, self.rhs_nf
        )
    }
}

impl std::error::Error for ProveError {}

/// Proves `lhs = rhs` as UniNomial expressions.
///
/// # Errors
///
/// Returns [`ProveError`] when no tactic closes the goal; the normal forms
/// are included for debugging. This is *not* a semantic disproof.
///
/// # Example
///
/// ```
/// use uninomial::syntax::{Term, UExpr, VarGen};
/// use relalg::{BaseType, Schema};
/// let mut gen = VarGen::new();
/// let t = gen.fresh(Schema::leaf(BaseType::Int));
/// let r = UExpr::rel("R", Term::var(&t));
/// let proof = uninomial::prove_eq(
///     &UExpr::mul(r.clone(), UExpr::One),
///     &r,
///     &mut gen,
/// ).expect("R × 1 = R");
/// assert_eq!(proof.method(), uninomial::prove::Method::Syntactic);
/// ```
pub fn prove_eq(lhs: &UExpr, rhs: &UExpr, gen: &mut VarGen) -> Result<Proof, ProveError> {
    prove_eq_with_axioms(lhs, rhs, &[], gen)
}

/// Proves `lhs = rhs` under assumed integrity constraints
/// ([`crate::axioms::RelAxiom`], Sec. 4.2) — required by the index
/// rewrite rules of Sec. 5.1.4, whose validity depends on a key
/// constraint.
///
/// # Errors
///
/// Returns [`ProveError`] when no tactic closes the goal.
pub fn prove_eq_with_axioms(
    lhs: &UExpr,
    rhs: &UExpr,
    axioms: &[crate::axioms::RelAxiom],
    gen: &mut VarGen,
) -> Result<Proof, ProveError> {
    let mut trace = Trace::new();
    trace.step(
        Lemma::FunExt,
        "reduce query equality to pointwise equality of denotations",
    );
    let nl = normalize(lhs, gen, &mut trace);
    let nr = normalize(rhs, gen, &mut trace);
    let nl = crate::axioms::saturate(&nl, axioms, gen, &mut trace);
    let nr = crate::axioms::saturate(&nr, axioms, gen, &mut trace);
    if nl == nr {
        return Ok(Proof {
            method: Method::Syntactic,
            trace,
            lhs_nf: nl,
            rhs_nf: nr,
        });
    }
    // Equational matching.
    {
        let mut attempt = trace.clone();
        let mut ctx = Ctx::new(gen, &mut attempt);
        if equiv::equiv(&nl, &nr, &[], &mut ctx) {
            return Ok(Proof {
                method: Method::Equational,
                trace: attempt,
                lhs_nf: nl,
                rhs_nf: nr,
            });
        }
    }
    // Deductive bi-implication for propositional goals.
    if nl.is_prop() && nr.is_prop() {
        let mut attempt = trace.clone();
        let mut ctx = Ctx::new(gen, &mut attempt);
        if deduce::prove_iff(&nl, &nr, &[], &mut ctx) {
            return Ok(Proof {
                method: Method::Deductive,
                trace: attempt,
                lhs_nf: nl,
                rhs_nf: nr,
            });
        }
    }
    Err(ProveError {
        lhs_nf: nl.to_string(),
        rhs_nf: nr.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Term, Var};
    use relalg::{BaseType, Schema};

    fn leaf_int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    #[test]
    fn fig1_union_selection_distributes() {
        // λt. (R t + S t) × b t  =  λt. R t × b t + S t × b t
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let s = UExpr::rel("S", Term::var(&t));
        let b = UExpr::pred("b", Term::var(&t));
        let lhs = UExpr::mul(UExpr::add(r.clone(), s.clone()), b.clone());
        let rhs = UExpr::add(UExpr::mul(r, b.clone()), UExpr::mul(s, b));
        let proof = prove_eq(&lhs, &rhs, &mut g).expect("Fig. 1 rule");
        assert_eq!(proof.method(), Method::Syntactic);
    }

    #[test]
    fn fig2_self_join_distinct() {
        // ‖Σt1,t2. (t = a t1)(a t1 = a t2) R t1 R t2‖ = ‖Σt0. (t = a t0) R t0‖
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let t0 = g.fresh(leaf_int());
        let t1 = g.fresh(leaf_int());
        let t2 = g.fresh(leaf_int());
        let a = |v: &Var| Term::func("a", vec![Term::var(v)]);
        let lhs = UExpr::squash(UExpr::sum(
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
        let rhs = UExpr::squash(UExpr::sum(
            t0.clone(),
            UExpr::mul(
                UExpr::eq(Term::var(&t), a(&t0)),
                UExpr::rel("R", Term::var(&t0)),
            ),
        ));
        let proof = prove_eq(&lhs, &rhs, &mut g).expect("Fig. 2 rule");
        // The equational tactic's squash-entailment already performs the
        // witness search, so either method may close the goal.
        assert!(matches!(
            proof.method(),
            Method::Equational | Method::Deductive
        ));
        assert!(proof.steps() > 1);
    }

    #[test]
    fn unequal_relations_fail() {
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let s = UExpr::rel("S", Term::var(&t));
        let err = prove_eq(&r, &s, &mut g).unwrap_err();
        assert!(err.to_string().contains("not proved"));
    }

    #[test]
    fn excluded_middle_fails_as_it_should() {
        // R t × ‖b t + ¬(b t)‖ vs R t: with b uninterpreted this *is*
        // provable classically, but ¬ in UniNomial is constructive over
        // props, so the prover accepts it (b is a prop: b + ¬b is
        // inhabited iff decidable — our Pred atoms are decidable bools).
        // What must NOT be provable is the 3-valued-logic variant, which
        // the hottsql crate models with an uninterpreted *function* —
        // checked there. Here: ‖b + ¬b‖ entailment requires a case split
        // the prover cannot witness, so the proof fails (conservative).
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let b = UExpr::pred("b", Term::var(&t));
        let lhs = UExpr::mul(
            r.clone(),
            UExpr::squash(UExpr::add(b.clone(), UExpr::not(b))),
        );
        assert!(prove_eq(&lhs, &r, &mut g).is_err());
    }

    #[test]
    fn proof_display_shows_method_and_steps() {
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let lhs = UExpr::mul(r.clone(), UExpr::One);
        let proof = prove_eq(&lhs, &r, &mut g).unwrap();
        let shown = proof.to_string();
        assert!(shown.contains("syntactic"), "{shown}");
        assert!(shown.contains("lhs ⇓"), "{shown}");
    }

    #[test]
    fn distinct_projection_idempotent() {
        // ‖‖R t‖‖ = ‖R t‖.
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let proof = prove_eq(
            &UExpr::squash(UExpr::squash(r.clone())),
            &UExpr::squash(r),
            &mut g,
        )
        .unwrap();
        assert_eq!(proof.method(), Method::Syntactic);
    }

    #[test]
    fn key_axiom_enables_self_join_identity() {
        // Σt2. R(t) × R(t2) × (k t = k t2) = R(t), with key(k)(R) —
        // the symbolic core of the Sec. 5.1.4 index rules.
        use crate::axioms::RelAxiom;
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let t2 = g.fresh(leaf_int());
        let k = |v: &Var| Term::func("k", vec![Term::var(v)]);
        let lhs = UExpr::sum(
            t2.clone(),
            UExpr::product([
                UExpr::rel("R", Term::var(&t)),
                UExpr::rel("R", Term::var(&t2)),
                UExpr::eq(k(&t), k(&t2)),
            ]),
        );
        let rhs = UExpr::rel("R", Term::var(&t));
        // Unprovable without the axiom…
        assert!(prove_eq(&lhs, &rhs, &mut g).is_err());
        // …provable with it.
        let axioms = vec![RelAxiom::Key {
            rel: "R".into(),
            key_fn: "k".into(),
        }];
        let proof = prove_eq_with_axioms(&lhs, &rhs, &axioms, &mut g).expect("key axiom closes it");
        assert!(proof
            .trace()
            .steps()
            .iter()
            .any(|(l, _)| *l == Lemma::Absorption));
    }

    #[test]
    fn or_of_exists_splits() {
        // ‖ ‖ΣS‖ + ‖ΣT‖ ‖ = ‖Σ(S + T)‖ — the subquery rule's core.
        let mut g = VarGen::new();
        let s1 = g.fresh(leaf_int());
        let s2 = g.fresh(leaf_int());
        let s3 = g.fresh(leaf_int());
        let lhs = UExpr::squash(UExpr::add(
            UExpr::squash(UExpr::sum(s1.clone(), UExpr::rel("S", Term::var(&s1)))),
            UExpr::squash(UExpr::sum(s2.clone(), UExpr::rel("T", Term::var(&s2)))),
        ));
        let rhs = UExpr::squash(UExpr::sum(
            s3.clone(),
            UExpr::add(
                UExpr::rel("S", Term::var(&s3)),
                UExpr::rel("T", Term::var(&s3)),
            ),
        ));
        assert!(prove_eq(&lhs, &rhs, &mut g).is_ok());
    }

    #[test]
    fn except_self_is_zero() {
        // R t × (‖R t‖ → 0) = 0.
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let lhs = UExpr::mul(r.clone(), UExpr::not(UExpr::squash(r)));
        let proof = prove_eq(&lhs, &UExpr::Zero, &mut g).unwrap();
        assert_eq!(proof.method(), Method::Syntactic);
    }
}
