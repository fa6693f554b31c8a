//! DOPCERT: a system for proving SQL rewrite rules (Sec. 5).
//!
//! This crate assembles the full pipeline of the paper:
//!
//! 1. a rewrite rule is two HoTTSQL queries with shared meta-variables
//!    ([`rule`]);
//! 2. both sides are denoted into UniNomial (Fig. 7) and proved equal by
//!    the tactic library, or — for conjunctive-query rules — by the fully
//!    automated decision procedure ([`prove`], Sec. 5.2);
//! 3. every rule (sound or not) is additionally *differentially tested*:
//!    both sides are executed on hundreds of random database instances and
//!    compared bag-for-bag ([`difftest`]); unsound rules must be rejected
//!    by the prover *and* refuted by a concrete counterexample.
//!
//! The rule catalog ([`catalog`]) reproduces Fig. 8: 23 rules in six
//! categories (8 basic, 1 aggregation, 2 subquery, 7 magic set, 3 index,
//! 2 conjunctive query), plus known-unsound rules from the paper's
//! motivation (Sec. 1, Sec. 7) that the system must reject.
//!
//! # Example
//!
//! ```
//! let rules = dopcert::catalog::sound_rules();
//! assert_eq!(rules.len(), 23); // the Fig. 8 census
//! let fig1 = rules.iter().find(|r| r.name == "union-slct-distr").unwrap();
//! let report = dopcert::api::prove_rule(fig1);
//! assert!(report.proved);
//! ```
//!
//! Everything the system can do is reachable through one typed request
//! API ([`api`]): the CLI subcommands, the script runner, and the
//! resident `dopcert serve` daemon ([`serve`], line-delimited JSON over
//! TCP — [`wire`]) all build [`api::Request`] values and render
//! [`api::Response`]s through the same code, which is what makes the
//! daemon's answers byte-identical to the single-shot CLI's.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod catalog;
pub mod difftest;
pub mod engine;
pub mod prove;
pub mod rule;
pub mod rules;
pub mod script;
pub mod serve;
pub mod session;
pub mod wire;

pub use api::{execute, BudgetSpec, Request, RequestOptions, Response, Workspace};
pub use engine::Engine;
pub use prove::RuleReport;
pub use rule::{Category, Rule, RuleInstance, SchemaSource};
