//! Equality-saturation proof search for the UniNomial algebra.
//!
//! The normalization-based tactics of [`uninomial::prove`] follow one
//! fixed rewrite strategy; everything they cannot reach needs bespoke
//! lemma chains. This crate replaces "rules we wrote derivations for"
//! with "anything the axioms reach within budget": an e-graph
//! ([`EGraph`]) seeded with both sides of a goal is saturated under a
//! rewrite set compiled *directly from the trusted axiom catalog*
//! ([`uninomial::lemmas::Lemma`]), and the goal is proved the moment the
//! two seed classes merge. The union-find records a justification for
//! every union, so a successful search replays as an auditable
//! [`ProofTrace`](uninomial::prove::ProofTrace) referencing only `Lemma`
//! axioms — exactly like the normalizer's traces.
//!
//! The pipeline ([`prove::prove_eq_saturate`]):
//!
//! 1. normalize both sides with the trusted normalizer (its rewrites are
//!    already lemma-audited) and apply any declared integrity-constraint
//!    axioms;
//! 2. intern the reified normal forms and seed them into the e-graph as
//!    locally nameless (de Bruijn) e-nodes — α-equivalent inputs merge
//!    for free, and n-ary sorted `+`/`×` nodes decide ACU structurally;
//! 3. run the budgeted saturation loop ([`Solver`]) over the compiled
//!    rewrites until the goal classes merge, the graph saturates, or the
//!    iteration/node budget runs out.
//!
//! The solver is `Send`: the parallel batch engine runs one e-graph per
//! worker. For batch workloads a persistent [`Session`] (one per
//! worker) memoizes goal answers with byte-identical traces, and a
//! [`Discovery`] graph seeds many tagged roots into one solver to
//! report equalities between different roots — the engine behind
//! `dopcert catalog --discover` and rule mining; see [`session`] and
//! [`discovery`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
pub mod discovery;
pub mod extract;
pub mod graph;
pub mod lang;
pub mod mined;
pub mod prove;
pub mod rewrite;
pub mod session;
pub mod solve;
pub mod unionfind;

pub use discovery::Discovery;
pub use extract::{CostFunction, TreeSize};
pub use graph::{EGraph, RebuildMode};
pub use lang::ENode;
pub use mined::{MinedRule, MINED_LABEL_PREFIX};
pub use prove::{prove_eq_saturate, prove_eq_saturate_session, SaturateFailure};
pub use session::{Admission, BatchBudget, Session};
pub use solve::{Budget, Outcome, Solver, Stats};
pub use unionfind::Id;
