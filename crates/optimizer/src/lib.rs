//! Certified cost-based query optimization — the paper's motivating
//! use case (Sec. 1), built end-to-end on the proving stack.
//!
//! A conventional optimizer applies rewrites it *believes* are sound; a
//! certified optimizer only ships plans it can *prove* equivalent to
//! the input. This crate closes the loop the repo has been building
//! toward: the e-graph of `egraph` proves equivalences, and this crate
//! *chooses among* them:
//!
//! 1. denote the HoTTSQL query into UniNomial (Fig. 7);
//! 2. normalize and seed the e-graph, saturate under the
//!    lemma-compiled rewrite set within a budget;
//! 3. extract the **cheapest** equivalent denotation under a pluggable
//!    cost model ([`StatsCost`] — statistics-driven: table row counts,
//!    per-conjunct equality selectivity from distinct-value estimates,
//!    product = cross size, `DISTINCT`/squash discounts);
//! 4. read the winner back into query syntax
//!    ([`hottsql::readback`]), with conjunctive-query core
//!    minimization ([`cq::minimize`]) as a second candidate route;
//! 5. certify: prove input ≡ output with the ordinary prover stack and
//!    ship the [`ProofTrace`](uninomial::prove::ProofTrace) as a
//!    replayable [`Certificate`]. Uncertifiable candidates are
//!    discarded, so `cost_after ≤ cost_before` holds by construction.
//!
//! ```
//! use hottsql::parse::parse_query;
//! use hottsql::env::QueryEnv;
//! use optimizer::{optimize, OptimizeOptions, PlanCtx};
//! use relalg::stats::Statistics;
//! use relalg::{BaseType, Schema};
//!
//! let env = QueryEnv::new()
//!     .with_table("R", Schema::flat([BaseType::Int, BaseType::Int]));
//! // The Sec. 2 redundant self-join: its core is a single scan.
//! let q = parse_query(
//!     "DISTINCT SELECT Right.Left.Left FROM R, R \
//!      WHERE Right.Left.Left = Right.Right.Left",
//! ).unwrap();
//! let report = optimize(
//!     &q, &env, &Statistics::new().with_rows("R", 1000.0),
//!     OptimizeOptions::default(), PlanCtx::default(),
//! ).unwrap();
//! assert!(report.improved);
//! assert!(report.cost_after < report.cost_before);
//! assert!(!report.certificate.trace.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod optimize;
pub mod session;

pub use cost::{Cost, StatsCost};
pub use optimize::{
    optimize, CandidateInfo, Certificate, OptimizeError, OptimizeOptions, OptimizeReport, PlanCtx,
    Route,
};
pub use session::PlanSession;
