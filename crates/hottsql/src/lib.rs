//! The HoTTSQL language (Sec. 3 of the paper).
//!
//! HoTTSQL is a SQL-like language for expressing query rewrite rules:
//! queries over tree-shaped schemas with explicit path projections
//! (`Left`, `Right`, `*`), meta-variables for relations, predicates,
//! expressions, and projections, and explicit context casts (`CASTPRED`,
//! `CASTEXPR`). This crate implements:
//!
//! - [`ast`] — the abstract syntax of Fig. 5;
//! - [`env`](mod@env) — declaration environments for tables and meta-variables;
//! - [`ty`] — the context-schema type system (`Γ ⊢ q : σ`, Fig. 7's
//!   typing side);
//! - [`parse`] — a recursive-descent parser for the paper's concrete
//!   syntax;
//! - [`denote`] — the denotational semantics of Fig. 7, producing
//!   [`uninomial::UExpr`]s;
//! - [`eval`] — direct evaluation of queries against concrete
//!   [`relalg::Relation`] instances (the executable reading of Fig. 7,
//!   used as the differential-testing oracle);
//! - [`desugar`] — derived constructs: `GROUP BY` (Sec. 4.2), `SEMIJOIN`
//!   (Sec. 5.1.3), and `LEFT OUTER JOIN` (Sec. 7).
//!
//! # Example
//!
//! ```
//! use hottsql::parse::parse_query;
//! use hottsql::env::QueryEnv;
//! use relalg::{BaseType, Schema};
//!
//! let env = QueryEnv::new()
//!     .with_table("R", Schema::flat([BaseType::Int, BaseType::Int]));
//! let q = parse_query("DISTINCT SELECT Right.Left FROM R").unwrap();
//! let sigma = hottsql::ty::infer_query(&q, &env, &Schema::Empty).unwrap();
//! assert_eq!(sigma, Schema::leaf(BaseType::Int));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbitrary;
pub mod ast;
pub mod denote;
pub mod desugar;
pub mod env;
pub mod error;
pub mod eval;
pub mod parse;
pub mod readback;
pub mod ty;

pub use ast::{Expr, Predicate, Proj, Query};
pub use env::QueryEnv;
pub use error::{HottsqlError, Result};
