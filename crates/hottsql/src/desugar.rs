//! Derived HoTTSQL constructs (Sec. 4.2 and Sec. 7).
//!
//! HoTTSQL supports `GROUP BY`, `SEMIJOIN`, and `LEFT OUTER JOIN` not as
//! primitives but as *syntactic rewrites* into the core language:
//!
//! - `GROUP BY` desugars to a `DISTINCT` projection with a correlated
//!   aggregate subquery (Sec. 4.2, after Buneman et al. \[6\]);
//! - `A SEMIJOIN B ON θ` desugars to
//!   `SELECT * FROM A WHERE EXISTS (SELECT * FROM B WHERE θ)` (Sec. 5.1.3);
//! - `LEFT OUTER JOIN` desugars to an inner join unioned with the
//!   unmatched left rows padded by NULLs, where NULL is modeled as an
//!   uninterpreted nullary function per base type (Sec. 7's "external
//!   operators" encoding).

use crate::ast::{Expr, Predicate, Proj, Query};
use crate::env::QueryEnv;
use relalg::{BaseType, Schema, Value};

/// `A SEMIJOIN B ON θ` (Sec. 5.1.3).
///
/// `theta` is evaluated under the context `node (node Γ σ_A) σ_B`: the
/// outer context extended with the `A`-tuple, then the `B`-tuple.
pub fn semijoin(a: Query, b: Query, theta: Predicate) -> Query {
    Query::where_(a, Predicate::exists(Query::where_(b, theta)))
}

/// Desugars `SELECT key, agg(attr) FROM table GROUP BY key` into the core
/// language (Sec. 4.2):
///
/// ```text
/// DISTINCT SELECT (key(t), agg(SELECT attr FROM table WHERE key(inner) = key(t)))
/// FROM table
/// ```
///
/// `key` and `attr` are projections *from the table's schema* to a leaf.
/// `table` must not reference the enclosing context (base tables and
/// closed queries are fine).
pub fn group_by_agg(table: Query, key: Proj, agg: &str, attr: Proj) -> Query {
    // Outer projection context: node(Γ, σ_table); the grouped tuple is Right.
    let outer_key = Proj::dot(Proj::Right, key.clone());
    // Inner WHERE context: node(node(Γ, σ_table), σ_table):
    //  - the inner table tuple is Right,
    //  - the outer (group representative) tuple is Left.Right.
    let inner_cond = Predicate::eq(
        Expr::p2e(Proj::dot(Proj::Right, key.clone())),
        Expr::p2e(Proj::path([Proj::Left, Proj::Right, key])),
    );
    let inner = Query::select(
        Proj::dot(Proj::Right, attr),
        Query::where_(table.clone(), inner_cond),
    );
    Query::distinct(Query::select(
        Proj::pair(outer_key, Proj::e2p(Expr::agg(agg, inner))),
        table,
    ))
}

/// The name of the uninterpreted nullary function standing for `NULL` at
/// a base type (Sec. 7 encoding).
pub fn null_fn_name(ty: BaseType) -> &'static str {
    match ty {
        BaseType::Int => "null_int",
        BaseType::Bool => "null_bool",
        BaseType::Str => "null_string",
    }
}

/// A projection producing a NULL-padded tuple of the given schema (every
/// leaf is the corresponding `null_τ()` call).
pub fn null_proj(schema: &Schema) -> Proj {
    match schema {
        Schema::Empty => Proj::Empty,
        Schema::Leaf(t) => Proj::e2p(Expr::func(null_fn_name(*t), vec![])),
        Schema::Node(l, r) => Proj::pair(null_proj(l), null_proj(r)),
    }
}

/// Declares the `null_τ` functions in an environment (call before typing
/// queries produced by [`left_outer_join`]).
pub fn declare_null_fns(env: QueryEnv) -> QueryEnv {
    env.with_fn("null_int", BaseType::Int)
        .with_fn("null_bool", BaseType::Bool)
        .with_fn("null_string", BaseType::Str)
}

/// Installs `null_τ` implementations (returning [`Value::Null`]) into an
/// instance.
pub fn install_null_fns(inst: crate::eval::Instance) -> crate::eval::Instance {
    inst.with_fn("null_int", |_: &[Value]| Value::Null)
        .with_fn("null_bool", |_: &[Value]| Value::Null)
        .with_fn("null_string", |_: &[Value]| Value::Null)
}

/// `R LEFT OUTER JOIN S ON θ` (Sec. 7): the inner join unioned with the
/// unmatched rows of `R` padded by NULLs.
///
/// `theta` is evaluated under `node (Γ, node σ_R σ_S)` — the context of a
/// plain join `FROM R, S WHERE θ`. `s_schema` is the schema of `S`, used
/// to build the NULL padding. `r` and `s` must not reference the
/// enclosing context.
pub fn left_outer_join(r: Query, s: Query, theta: Predicate, s_schema: &Schema) -> Query {
    let joined = Query::where_(Query::product(r.clone(), s.clone()), theta.clone());
    // Unmatched rows: R WHERE NOT EXISTS (S WHERE θ′), where θ′ re-targets
    // θ from node(Γ, node σR σS) to node(node(Γ, σR), σS).
    let retarget = Proj::pair(
        Proj::dot(Proj::Left, Proj::Left),
        Proj::pair(Proj::dot(Proj::Left, Proj::Right), Proj::Right),
    );
    let theta_prime = Predicate::cast(retarget, theta);
    let unmatched = Query::where_(
        r,
        Predicate::not(Predicate::exists(Query::where_(s, theta_prime))),
    );
    // Pad: SELECT (Right.*, NULLs) FROM unmatched.
    let padded = Query::select(Proj::pair(Proj::Right, null_proj(s_schema)), unmatched);
    Query::union_all(joined, padded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_query, Instance};
    use crate::ty::infer_query;
    use relalg::{Card, Relation, Tuple};

    fn int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    fn two_col(rows: &[(i64, i64)]) -> Relation {
        Relation::from_tuples(
            Schema::node(int(), int()),
            rows.iter()
                .map(|&(a, b)| Tuple::pair(Tuple::int(a), Tuple::int(b))),
        )
        .unwrap()
    }

    #[test]
    fn group_by_sums_per_group() {
        // R(k, g) = {(1,10), (1,20), (2,5)}: GROUP BY k, SUM(g) gives
        // {(1,30), (2,5)}.
        let env = QueryEnv::new().with_table("R", Schema::node(int(), int()));
        let inst = Instance::new().with_table("R", two_col(&[(1, 10), (1, 20), (2, 5)]));
        let q = group_by_agg(Query::table("R"), Proj::Left, "SUM", Proj::Right);
        assert!(infer_query(&q, &env, &Schema::Empty).is_ok());
        let out = eval_query(&q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
        assert_eq!(
            out.multiplicity(&Tuple::pair(Tuple::int(1), Tuple::int(30))),
            Card::ONE
        );
        assert_eq!(
            out.multiplicity(&Tuple::pair(Tuple::int(2), Tuple::int(5))),
            Card::ONE
        );
        assert_eq!(out.support_size(), 2);
    }

    #[test]
    fn group_by_count() {
        let env = QueryEnv::new().with_table("R", Schema::node(int(), int()));
        let inst = Instance::new().with_table("R", two_col(&[(1, 10), (1, 20), (1, 20)]));
        let q = group_by_agg(Query::table("R"), Proj::Left, "COUNT", Proj::Right);
        let out = eval_query(&q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
        assert_eq!(
            out.multiplicity(&Tuple::pair(Tuple::int(1), Tuple::int(3))),
            Card::ONE
        );
    }

    #[test]
    fn semijoin_keeps_multiplicity_of_left() {
        // A = {1, 1, 2}, B = {1}: A ⋉ B on equality = {1, 1}.
        let env = QueryEnv::new()
            .with_table("A", int())
            .with_table("B", int());
        let a =
            Relation::from_tuples(int(), [Tuple::int(1), Tuple::int(1), Tuple::int(2)]).unwrap();
        let b = Relation::from_tuples(int(), [Tuple::int(1)]).unwrap();
        let inst = Instance::new().with_table("A", a).with_table("B", b);
        // θ under node(node(Γ, σA), σB): A-tuple at Left.Right, B at Right.
        let theta = Predicate::eq(
            Expr::p2e(Proj::path([Proj::Left, Proj::Right])),
            Expr::p2e(Proj::Right),
        );
        let q = semijoin(Query::table("A"), Query::table("B"), theta);
        let out = eval_query(&q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
        assert_eq!(out.multiplicity(&Tuple::int(1)), Card::Fin(2));
        assert_eq!(out.multiplicity(&Tuple::int(2)), Card::ZERO);
    }

    #[test]
    fn left_outer_join_pads_unmatched_rows() {
        // R = {1, 2}, S = {(1, 10)}: R LOJ S on R = S.key gives
        // {(1, (1,10)), (2, (NULL,NULL))}.
        let s_schema = Schema::node(int(), int());
        let env = declare_null_fns(
            QueryEnv::new()
                .with_table("R", int())
                .with_table("S", s_schema.clone()),
        );
        let r = Relation::from_tuples(int(), [Tuple::int(1), Tuple::int(2)]).unwrap();
        let s = two_col(&[(1, 10)]);
        let inst = install_null_fns(Instance::new().with_table("R", r).with_table("S", s));
        // θ under node(Γ, node σR σS): R at Right.Left, S at Right.Right.
        let theta = Predicate::eq(
            Expr::p2e(Proj::path([Proj::Right, Proj::Left])),
            Expr::p2e(Proj::path([Proj::Right, Proj::Right, Proj::Left])),
        );
        let q = left_outer_join(Query::table("R"), Query::table("S"), theta, &s_schema);
        assert!(infer_query(&q, &env, &Schema::Empty).is_ok());
        let out = eval_query(&q, &env, &inst, &Schema::Empty, &Tuple::Unit).unwrap();
        let matched = Tuple::pair(Tuple::int(1), Tuple::pair(Tuple::int(1), Tuple::int(10)));
        let padded = Tuple::pair(
            Tuple::int(2),
            Tuple::pair(Tuple::Leaf(Value::Null), Tuple::Leaf(Value::Null)),
        );
        assert_eq!(out.multiplicity(&matched), Card::ONE);
        assert_eq!(out.multiplicity(&padded), Card::ONE);
        assert_eq!(out.support_size(), 2);
    }

    #[test]
    fn null_proj_shapes_follow_schema() {
        let s = Schema::node(
            int(),
            Schema::node(Schema::leaf(BaseType::Bool), Schema::Empty),
        );
        match null_proj(&s) {
            Proj::Pair(l, r) => {
                assert!(matches!(*l, Proj::E2P(_)));
                assert!(matches!(*r, Proj::Pair(_, _)));
            }
            other => panic!("expected pair, got {other}"),
        }
    }

    #[test]
    fn group_by_is_well_typed_under_nonempty_context() {
        // The derived form must also type under a nonempty outer context.
        let env = QueryEnv::new().with_table("R", Schema::node(int(), int()));
        let q = group_by_agg(Query::table("R"), Proj::Left, "SUM", Proj::Right);
        let ctx = Schema::leaf(BaseType::Str);
        assert!(infer_query(&q, &env, &ctx).is_ok());
    }
}
