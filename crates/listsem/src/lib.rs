//! The list-semantics baseline (Sec. 2, "List Semantics").
//!
//! Prior mechanized SQL semantics (\[35\], \[53\], \[54\] in the paper)
//! interpret relations as *lists* and queries as recursive functions over
//! lists; two queries are equivalent when their outputs are equal up to
//! permutation (bag semantics) or up to permutation and duplicate
//! elimination (set semantics). The paper's motivation is that proofs in
//! this style require intricate induction; this crate implements the
//! semantics as the *comparison baseline*:
//!
//! - it is a second, independently-written oracle for differential
//!   testing (its results must agree bag-wise with the K-relation
//!   evaluator [`hottsql::eval`]), and
//! - the `bench` crate measures the cost of the permutation-equivalence
//!   checks it forces, versus the normalized-multiset representation of
//!   [`relalg::Relation`] — the quantitative version of the paper's
//!   "65 lines vs 10 lines" comparison (Sec. 2).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use hottsql::ast::{Expr, Predicate, Proj, Query};
use hottsql::env::QueryEnv;
use hottsql::error::{HottsqlError, Result};
use hottsql::eval::Instance;
use hottsql::ty::{infer_proj, infer_query};
use relalg::ops::Aggregate;
use relalg::{Relation, Schema, Tuple, Value};

/// Evaluates a query to a *list* of tuples (order-sensitive recursive
/// semantics). Table contents are read from `inst` in their normalized
/// relation order expanded to explicit duplicates.
///
/// # Errors
///
/// Same failure modes as [`hottsql::eval::eval_query`], plus
/// [`relalg::RelalgError::InfiniteCardinality`] when a table carries an
/// `ω` multiplicity (lists cannot represent infinite bags — one of the
/// paper's arguments for K-relations, Sec. 7).
pub fn eval_query_list(
    q: &Query,
    env: &QueryEnv,
    inst: &Instance,
    ctx: &Schema,
    g: &Tuple,
) -> Result<Vec<Tuple>> {
    match q {
        Query::Table(name) => {
            infer_query(q, env, ctx)?;
            let rel = inst
                .tables
                .get(name)
                .ok_or_else(|| HottsqlError::Unbound(name.clone()))?;
            Ok(rel.to_list()?)
        }
        Query::Select(p, inner) => {
            let rows = eval_query_list(inner, env, inst, ctx, g)?;
            let sigma_inner = infer_query(inner, env, ctx)?;
            let select_ctx = Schema::node(ctx.clone(), sigma_inner);
            let mut out = Vec::with_capacity(rows.len());
            for t in rows {
                let gt = Tuple::pair(g.clone(), t);
                out.push(eval_proj_list(p, env, inst, &select_ctx, &gt)?);
            }
            Ok(out)
        }
        Query::Product(a, b) => {
            let la = eval_query_list(a, env, inst, ctx, g)?;
            let lb = eval_query_list(b, env, inst, ctx, g)?;
            let mut out = Vec::with_capacity(la.len() * lb.len());
            for x in &la {
                for y in &lb {
                    out.push(Tuple::pair(x.clone(), y.clone()));
                }
            }
            Ok(out)
        }
        Query::Where(inner, b) => {
            let rows = eval_query_list(inner, env, inst, ctx, g)?;
            let sigma = infer_query(inner, env, ctx)?;
            let where_ctx = Schema::node(ctx.clone(), sigma);
            let mut out = Vec::new();
            for t in rows {
                let gt = Tuple::pair(g.clone(), t.clone());
                if eval_pred_list(b, env, inst, &where_ctx, &gt)? {
                    out.push(t);
                }
            }
            Ok(out)
        }
        Query::UnionAll(a, b) => {
            let mut out = eval_query_list(a, env, inst, ctx, g)?;
            out.extend(eval_query_list(b, env, inst, ctx, g)?);
            Ok(out)
        }
        Query::Except(a, b) => {
            let la = eval_query_list(a, env, inst, ctx, g)?;
            let lb = eval_query_list(b, env, inst, ctx, g)?;
            Ok(la.into_iter().filter(|t| !lb.contains(t)).collect())
        }
        Query::Distinct(inner) => {
            let rows = eval_query_list(inner, env, inst, ctx, g)?;
            let mut out: Vec<Tuple> = Vec::new();
            for t in rows {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
            Ok(out)
        }
    }
}

fn eval_pred_list(
    b: &Predicate,
    env: &QueryEnv,
    inst: &Instance,
    ctx: &Schema,
    gamma: &Tuple,
) -> Result<bool> {
    match b {
        Predicate::Eq(e1, e2) => Ok(eval_expr_list(e1, env, inst, ctx, gamma)?
            == eval_expr_list(e2, env, inst, ctx, gamma)?),
        Predicate::Not(x) => Ok(!eval_pred_list(x, env, inst, ctx, gamma)?),
        Predicate::And(x, y) => {
            Ok(eval_pred_list(x, env, inst, ctx, gamma)?
                && eval_pred_list(y, env, inst, ctx, gamma)?)
        }
        Predicate::Or(x, y) => {
            Ok(eval_pred_list(x, env, inst, ctx, gamma)?
                || eval_pred_list(y, env, inst, ctx, gamma)?)
        }
        Predicate::True => Ok(true),
        Predicate::False => Ok(false),
        Predicate::CastPred(p, inner) => {
            let target = infer_proj(p, env, ctx)?;
            let cast = eval_proj_list(p, env, inst, ctx, gamma)?;
            eval_pred_list(inner, env, inst, &target, &cast)
        }
        Predicate::Exists(q) => Ok(!eval_query_list(q, env, inst, ctx, gamma)?.is_empty()),
        Predicate::Var(name) => {
            hottsql::ty::check_pred(b, env, ctx)?;
            let f = inst
                .preds
                .get(name)
                .ok_or_else(|| HottsqlError::Unbound(name.clone()))?;
            Ok(f(gamma))
        }
        Predicate::Uninterp(name, args) => {
            let f = inst
                .upreds
                .get(name)
                .ok_or_else(|| HottsqlError::Unbound(name.clone()))?;
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr_list(a, env, inst, ctx, gamma)?);
            }
            Ok(f(&vals))
        }
    }
}

fn eval_expr_list(
    e: &Expr,
    env: &QueryEnv,
    inst: &Instance,
    ctx: &Schema,
    gamma: &Tuple,
) -> Result<Value> {
    match e {
        Expr::P2E(p) => match eval_proj_list(p, env, inst, ctx, gamma)? {
            Tuple::Leaf(v) => Ok(v),
            other => Err(HottsqlError::Eval(format!("non-scalar projection {other}"))),
        },
        Expr::Fn(name, args) => {
            let f = inst
                .fns
                .get(name)
                .ok_or_else(|| HottsqlError::Unbound(name.clone()))?;
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr_list(a, env, inst, ctx, gamma)?);
            }
            Ok(f(&vals))
        }
        Expr::Agg(name, q) => {
            let agg = Aggregate::parse(name)
                .ok_or_else(|| HottsqlError::Unbound(format!("aggregate {name}")))?;
            let rows = eval_query_list(q, env, inst, ctx, gamma)?;
            let sigma = infer_query(q, env, ctx)?;
            let rel = Relation::from_tuples(sigma, rows)?;
            Ok(relalg::ops::aggregate(agg, &rel)?)
        }
        Expr::CastExpr(p, inner) => {
            let target = infer_proj(p, env, ctx)?;
            let cast = eval_proj_list(p, env, inst, ctx, gamma)?;
            eval_expr_list(inner, env, inst, &target, &cast)
        }
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(name) => {
            hottsql::ty::infer_expr(e, env, ctx)?;
            let f = inst
                .exprs
                .get(name)
                .ok_or_else(|| HottsqlError::Unbound(name.clone()))?;
            Ok(f(gamma))
        }
    }
}

fn eval_proj_list(
    p: &Proj,
    env: &QueryEnv,
    inst: &Instance,
    ctx: &Schema,
    gamma: &Tuple,
) -> Result<Tuple> {
    match p {
        Proj::Star => Ok(gamma.clone()),
        Proj::Left => gamma
            .fst()
            .cloned()
            .ok_or_else(|| HottsqlError::Eval("Left on non-pair".into())),
        Proj::Right => gamma
            .snd()
            .cloned()
            .ok_or_else(|| HottsqlError::Eval("Right on non-pair".into())),
        Proj::Empty => Ok(Tuple::Unit),
        Proj::Dot(p1, p2) => {
            let mid_schema = infer_proj(p1, env, ctx)?;
            let mid = eval_proj_list(p1, env, inst, ctx, gamma)?;
            eval_proj_list(p2, env, inst, &mid_schema, &mid)
        }
        Proj::Pair(p1, p2) => Ok(Tuple::pair(
            eval_proj_list(p1, env, inst, ctx, gamma)?,
            eval_proj_list(p2, env, inst, ctx, gamma)?,
        )),
        Proj::E2P(e) => Ok(Tuple::Leaf(eval_expr_list(e, env, inst, ctx, gamma)?)),
        Proj::Var(name) => {
            infer_proj(p, env, ctx)?;
            let f = inst
                .projs
                .get(name)
                .ok_or_else(|| HottsqlError::Unbound(name.clone()))?;
            Ok(f(gamma))
        }
    }
}

/// Equality of lists up to permutation — the bag-semantics equivalence
/// check forced by list representations (requires a full sort, the cost
/// the paper's semantics avoids by normalizing into multisets).
pub fn bag_equal_lists(a: &[Tuple], b: &[Tuple]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort();
    sb.sort();
    sa == sb
}

/// Equality of lists up to permutation and duplicate elimination — the
/// set-semantics equivalence check.
pub fn set_equal_lists(a: &[Tuple], b: &[Tuple]) -> bool {
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort();
    sa.dedup();
    sb.sort();
    sb.dedup();
    sa == sb
}

/// Converts a list back to a K-relation (for cross-checking the two
/// semantics).
///
/// # Errors
///
/// Propagates schema-conformance failures.
pub fn list_to_relation(schema: Schema, rows: Vec<Tuple>) -> Result<Relation> {
    Ok(Relation::from_tuples(schema, rows)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hottsql::ast::{Predicate, Proj, Query};
    use relalg::BaseType;

    fn int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    fn setup() -> (QueryEnv, Instance) {
        let sigma = Schema::node(int(), int());
        let r = Relation::from_tuples(
            sigma.clone(),
            [
                Tuple::pair(Tuple::int(1), Tuple::int(40)),
                Tuple::pair(Tuple::int(2), Tuple::int(40)),
                Tuple::pair(Tuple::int(2), Tuple::int(50)),
            ],
        )
        .unwrap();
        (
            QueryEnv::new().with_table("R", sigma),
            Instance::new().with_table("R", r),
        )
    }

    #[test]
    fn q1_list_projection() {
        let (env, inst) = setup();
        let q = Query::select(Proj::path([Proj::Right, Proj::Left]), Query::table("R"));
        let rows = eval_query_list(&q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
        assert!(bag_equal_lists(
            &rows,
            &[Tuple::int(1), Tuple::int(2), Tuple::int(2)]
        ));
    }

    #[test]
    fn distinct_first_occurrence() {
        let (env, inst) = setup();
        let q = Query::distinct(Query::select(
            Proj::path([Proj::Right, Proj::Left]),
            Query::table("R"),
        ));
        let rows = eval_query_list(&q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(set_equal_lists(&rows, &[Tuple::int(2), Tuple::int(1)]));
    }

    #[test]
    fn agrees_with_k_relation_semantics() {
        // The two evaluators must produce bag-equal outputs.
        let (env, inst) = setup();
        let x_a = Proj::path([Proj::Right, Proj::Left, Proj::Left]);
        let y_a = Proj::path([Proj::Right, Proj::Right, Proj::Left]);
        let queries = [
            Query::select(Proj::path([Proj::Right, Proj::Left]), Query::table("R")),
            Query::union_all(Query::table("R"), Query::table("R")),
            Query::except(Query::table("R"), Query::table("R")),
            Query::distinct(Query::select(
                x_a.clone(),
                Query::where_(
                    Query::product(Query::table("R"), Query::table("R")),
                    Predicate::eq(hottsql::ast::Expr::p2e(x_a), hottsql::ast::Expr::p2e(y_a)),
                ),
            )),
        ];
        for q in &queries {
            let rows = eval_query_list(q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
            let rel =
                hottsql::eval::eval_query(q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
            let as_rel = list_to_relation(rel.schema().clone(), rows).unwrap();
            assert!(as_rel.bag_eq(&rel), "disagreement on {q}");
        }
    }

    #[test]
    fn except_follows_paper_negation_semantics() {
        let (env, _) = setup();
        let sigma = Schema::node(int(), int());
        let many = Relation::from_tuples(
            sigma.clone(),
            [
                Tuple::pair(Tuple::int(1), Tuple::int(1)),
                Tuple::pair(Tuple::int(1), Tuple::int(1)),
                Tuple::pair(Tuple::int(2), Tuple::int(2)),
            ],
        )
        .unwrap();
        let one =
            Relation::from_tuples(sigma, [Tuple::pair(Tuple::int(1), Tuple::int(1))]).unwrap();
        let env = env.with_table("A", Schema::node(int(), int()));
        let env = env.with_table("B", Schema::node(int(), int()));
        let inst = Instance::new().with_table("A", many).with_table("B", one);
        let q = Query::except(Query::table("A"), Query::table("B"));
        let rows = eval_query_list(&q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
        // Both copies of (1,1) are removed — negation semantics, not
        // per-copy subtraction.
        assert_eq!(rows, vec![Tuple::pair(Tuple::int(2), Tuple::int(2))]);
    }

    #[test]
    fn omega_tables_are_rejected() {
        let (env, _) = setup();
        let mut r = Relation::empty(Schema::node(int(), int()));
        r.insert_with(
            Tuple::pair(Tuple::int(1), Tuple::int(1)),
            relalg::Card::Omega,
        );
        let inst = Instance::new().with_table("R", r);
        let q = Query::table("R");
        assert!(eval_query_list(&q, &env, &inst, &Schema::Empty, &Tuple::Unit).is_err());
    }

    #[test]
    fn permutation_equality_checks() {
        let a = [Tuple::int(1), Tuple::int(2), Tuple::int(2)];
        let b = [Tuple::int(2), Tuple::int(1), Tuple::int(2)];
        let c = [Tuple::int(1), Tuple::int(2)];
        assert!(bag_equal_lists(&a, &b));
        assert!(!bag_equal_lists(&a, &c));
        assert!(set_equal_lists(&a, &c));
        assert!(!set_equal_lists(&a, &[Tuple::int(3)]));
    }
}
