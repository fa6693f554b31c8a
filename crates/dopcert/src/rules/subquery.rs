//! Subquery elimination rules: 2 rules.
//!
//! Correlated-subquery unnesting is the optimization family behind the
//! classic nested-query bugs the paper cites (\[17\] in Sec. 1); both rules
//! here are staples of real optimizers.

use crate::rule::{Category, Rule, RuleInstance, SchemaSource};
use hottsql::ast::{Expr, Predicate, Proj, Query};
use hottsql::env::QueryEnv;
use relalg::{BaseType, Schema};

/// Both subquery rules.
pub fn rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "exists-unnest-join",
            category: Category::Subquery,
            description: "correlated EXISTS becomes a join with a deduplicated key column",
            build: exists_unnest_join,
            expected_sound: true,
        },
        Rule {
            name: "exists-union-or",
            category: Category::Subquery,
            description: "EXISTS over UNION ALL splits into a disjunction of EXISTS",
            build: exists_union_or,
            expected_sound: true,
        },
    ]
}

/// `SELECT * FROM R WHERE EXISTS (SELECT * FROM S WHERE kS(S) = kR(R))`
/// ≡ `SELECT R.* FROM R, (DISTINCT SELECT kS FROM S) WHERE kR(R) = v`.
fn exists_unnest_join(src: &mut dyn SchemaSource) -> RuleInstance {
    let (sr, ss) = (src.schema("sigma_r"), src.schema("sigma_s"));
    let leaf = Schema::leaf(BaseType::Int);
    let env = QueryEnv::new()
        .with_table("R", sr.clone())
        .with_table("S", ss.clone())
        .with_proj("kr", sr, leaf.clone())
        .with_proj("ks", ss, leaf);
    // lhs: R WHERE EXISTS (S WHERE ks(S-tuple) = kr(outer R-tuple)).
    // Inner WHERE context: node(node(empty, σR), σS).
    let inner = Query::where_(
        Query::table("S"),
        Predicate::eq(
            Expr::p2e(Proj::path([Proj::Right, Proj::var("ks")])),
            Expr::p2e(Proj::path([Proj::Left, Proj::Right, Proj::var("kr")])),
        ),
    );
    let lhs = Query::where_(Query::table("R"), Predicate::exists(inner));
    // rhs: SELECT Right.Left FROM R, (DISTINCT SELECT Right.ks FROM S)
    //      WHERE kr(Right.Left) = Right.Right.
    let keys = Query::distinct(Query::select(
        Proj::path([Proj::Right, Proj::var("ks")]),
        Query::table("S"),
    ));
    let rhs = Query::select(
        Proj::path([Proj::Right, Proj::Left]),
        Query::where_(
            Query::product(Query::table("R"), keys),
            Predicate::eq(
                Expr::p2e(Proj::path([Proj::Right, Proj::Left, Proj::var("kr")])),
                Expr::p2e(Proj::path([Proj::Right, Proj::Right])),
            ),
        ),
    );
    RuleInstance::plain(env, lhs, rhs)
}

/// `R WHERE EXISTS (S UNION ALL T)` ≡ `R WHERE EXISTS S OR EXISTS T`.
fn exists_union_or(src: &mut dyn SchemaSource) -> RuleInstance {
    let (sr, ss) = (src.schema("sigma_r"), src.schema("sigma_s"));
    let env = QueryEnv::new()
        .with_table("R", sr)
        .with_table("S", ss.clone())
        .with_table("T", ss);
    let lhs = Query::where_(
        Query::table("R"),
        Predicate::exists(Query::union_all(Query::table("S"), Query::table("T"))),
    );
    let rhs = Query::where_(
        Query::table("R"),
        Predicate::or(
            Predicate::exists(Query::table("S")),
            Predicate::exists(Query::table("T")),
        ),
    );
    RuleInstance::plain(env, lhs, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::prove_rule;

    #[test]
    fn subquery_rules_prove() {
        for rule in rules() {
            let report = prove_rule(&rule);
            assert!(report.proved, "{} failed: {:?}", rule.name, report.failure);
        }
    }

    #[test]
    fn there_are_two() {
        assert_eq!(rules().len(), 2);
    }
}
