//! The saturation tactic: prove `lhs = rhs` by equality saturation,
//! producing the same kind of auditable [`Proof`] as the
//! normalization-based tactics.
//!
//! The pipeline mirrors [`uninomial::prove::prove_eq`]'s opening moves —
//! functional extensionality, trusted normalization, integrity-axiom
//! saturation — and then replaces the bespoke matching tactics with the
//! generic e-graph search: both normal forms are seeded, the compiled
//! lemma rewrites run under budget, and success extracts the union-find
//! explanation into the proof trace. Both entry points normalize with
//! the one stateless [`normalize`]; the session path differs only in
//! closing the goal on a persistent [`Session`].

use crate::session::Session;
use crate::solve::{Budget, Outcome, Solver, Stats};
use std::fmt;
use uninomial::axioms::RelAxiom;
use uninomial::lemmas::Lemma;
use uninomial::normalize::{normalize, NormCache, Spnf, Trace};
use uninomial::prove::{Method, Proof};
use uninomial::syntax::{UExpr, VarGen};

/// Failure to prove by saturation (not a disproof): the normal forms,
/// plus how the search ended and its statistics — budget exhaustion is
/// reported distinctly from genuine saturation.
#[derive(Clone, Debug)]
pub struct SaturateFailure {
    /// Pretty-printed normal form of the left-hand side.
    pub lhs_nf: String,
    /// Pretty-printed normal form of the right-hand side.
    pub rhs_nf: String,
    /// How the search stopped (never [`Outcome::Proved`]).
    pub outcome: Outcome,
    /// Search statistics at stop time.
    pub stats: Stats,
}

impl fmt::Display for SaturateFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "not proved: {} after {} iterations / {} e-nodes\n  lhs ⇓ {}\n  rhs ⇓ {}",
            self.outcome, self.stats.iters, self.stats.nodes, self.lhs_nf, self.rhs_nf
        )
    }
}

impl std::error::Error for SaturateFailure {}

/// Proves `lhs = rhs` by equality saturation under the given budget,
/// on a fresh [`Solver`] — the sessionless reference the session path
/// is checked against.
///
/// # Errors
///
/// Returns [`SaturateFailure`] when the goal classes never merge; the
/// outcome distinguishes saturation from budget exhaustion.
pub fn prove_eq_saturate(
    lhs: &UExpr,
    rhs: &UExpr,
    axioms: &[RelAxiom],
    gen: &mut VarGen,
    budget: Budget,
) -> Result<Proof, SaturateFailure> {
    let (mut trace, nl, nr) = saturate_prefix(lhs, rhs, axioms, gen);
    let el = nl.reify();
    let er = nr.reify();
    let mut solver = Solver::new(budget);
    solver.reserve_names_above(el.max_var_id().max(er.max_var_id()));
    let l = solver.seed_expr(&el);
    let r = solver.seed_expr(&er);
    // Propositional goals may be equal only up to bi-implication; the
    // `PropExt` rewrite works on squash classes, and `‖P‖ = P` for
    // propositions (SquashProp), so seeding the squash-wrapped sides
    // routes such goals through it.
    if nl.is_prop() && nr.is_prop() {
        solver.seed_expr(&UExpr::squash(el.clone()));
        solver.seed_expr(&UExpr::squash(er.clone()));
    }
    let (outcome, stats) = solver.run(l, r);
    if outcome == Outcome::Proved {
        solver.explain_into(l, r, &mut trace);
        return Ok(Proof::new(Method::Saturate, trace, nl, nr));
    }
    Err(SaturateFailure {
        lhs_nf: nl.to_string(),
        rhs_nf: nr.to_string(),
        outcome,
        stats,
    })
}

/// [`prove_eq_saturate`] on a persistent [`Session`] — the path every
/// prover takes. The goal-closing search runs under the session's
/// budget and is memoized across goals; its answer is byte-identical to
/// [`prove_eq_saturate`] by construction (see the [`Session`] docs).
///
/// `_cache` is unused: the normalizer keeps no state. The parameter
/// stays only because the `perfbench/` harness still passes one.
///
/// # Errors
///
/// Returns [`SaturateFailure`] when the goal classes never merge.
pub fn prove_eq_saturate_session(
    lhs: &UExpr,
    rhs: &UExpr,
    axioms: &[RelAxiom],
    gen: &mut VarGen,
    _cache: &mut NormCache,
    session: &mut Session,
) -> Result<Proof, SaturateFailure> {
    let (mut trace, nl, nr) = saturate_prefix(lhs, rhs, axioms, gen);
    let el = nl.reify();
    let er = nr.reify();
    let prop = nl.is_prop() && nr.is_prop();
    match session.close_goal(&el, &er, prop, &mut trace) {
        Ok(()) => Ok(Proof::new(Method::Saturate, trace, nl, nr)),
        Err((outcome, stats)) => Err(SaturateFailure {
            lhs_nf: nl.to_string(),
            rhs_nf: nr.to_string(),
            outcome,
            stats,
        }),
    }
}

/// The trace prefix every saturation proof shares: functional
/// extensionality, normalization, and declared integrity-constraint
/// axioms.
fn saturate_prefix(
    lhs: &UExpr,
    rhs: &UExpr,
    axioms: &[RelAxiom],
    gen: &mut VarGen,
) -> (Trace, Spnf, Spnf) {
    let mut trace = Trace::new();
    trace.step(
        Lemma::FunExt,
        "reduce query equality to pointwise equality of denotations",
    );
    let nl = normalize(lhs, gen, &mut trace);
    let nr = normalize(rhs, gen, &mut trace);
    let nl = uninomial::axioms::saturate(&nl, axioms, gen, &mut trace);
    let nr = uninomial::axioms::saturate(&nr, axioms, gen, &mut trace);
    (trace, nl, nr)
}
