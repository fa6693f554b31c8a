//! Index-as-relation (Sec. 4.2, after Tsatalos et al. \[49\]).
//!
//! The paper treats an index not as a physical data structure but as a
//! *logical relation*: given a key projection `k` of `R` and an indexed
//! attribute projection `a`, the index is the query `SELECT k, a FROM R`.
//! This module materializes that definition and provides the lookup
//! operation a query optimizer would use when rewriting a full scan into
//! an index lookup plus join (the Sec. 5.1.4 rewrite).

use crate::card::Card;
use crate::ops;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A logical index on a relation: the materialized `SELECT k, a FROM R`.
#[derive(Clone, Debug)]
pub struct Index {
    relation: Relation,
}

impl Index {
    /// Builds the index `SELECT k, a FROM R`.
    ///
    /// The paper requires `k` to be a key of `R`; this constructor checks
    /// that and returns `None` otherwise (an index over a non-key would
    /// not determine unique row "pointers").
    pub fn build(
        r: &Relation,
        key_schema: Schema,
        attr_schema: Schema,
        k: impl Fn(&Tuple) -> Tuple,
        a: impl Fn(&Tuple) -> Tuple,
    ) -> Option<Index> {
        if !crate::constraints::is_key(r, &k) {
            return None;
        }
        let out_schema = Schema::node(key_schema, attr_schema);
        let relation = ops::project(r, out_schema, |t| Tuple::pair(k(t), a(t))).ok()?;
        Some(Index { relation })
    }

    /// The index as a relation (`(key, attr)` pairs).
    pub fn as_relation(&self) -> &Relation {
        &self.relation
    }

    /// Index lookup: all key values whose indexed attribute equals `v`.
    /// This is the access path the Sec. 5.1.4 rewrite rule exploits.
    pub fn lookup(&self, v: &Value) -> Vec<Tuple> {
        let target = Tuple::Leaf(v.clone());
        self.relation
            .iter()
            .filter(|(t, _)| t.snd().map(|s| *s == target).unwrap_or(false))
            .map(|(t, _)| t.fst().expect("index tuples are pairs").clone())
            .collect()
    }

    /// Evaluates `SELECT * FROM R WHERE a = v` through the index:
    /// semi-join `R` with the looked-up keys. `k` must be the same key
    /// projection the index was built with.
    pub fn scan_via_index(&self, r: &Relation, v: &Value, k: impl Fn(&Tuple) -> Tuple) -> Relation {
        let keys: std::collections::BTreeSet<Tuple> = self.lookup(v).into_iter().collect();
        ops::select(r, |t| Card::from_bool(keys.contains(&k(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BaseType;

    /// R(k:int, a:int) with k a key.
    fn indexed_relation() -> Relation {
        let s = Schema::node(Schema::leaf(BaseType::Int), Schema::leaf(BaseType::Int));
        Relation::from_tuples(
            s,
            [
                Tuple::pair(Tuple::int(1), Tuple::int(100)),
                Tuple::pair(Tuple::int(2), Tuple::int(200)),
                Tuple::pair(Tuple::int(3), Tuple::int(100)),
            ],
        )
        .unwrap()
    }

    fn fst(t: &Tuple) -> Tuple {
        t.fst().unwrap().clone()
    }
    fn snd(t: &Tuple) -> Tuple {
        t.snd().unwrap().clone()
    }

    #[test]
    fn build_requires_key() {
        let r = indexed_relation();
        assert!(Index::build(
            &r,
            Schema::leaf(BaseType::Int),
            Schema::leaf(BaseType::Int),
            fst,
            snd
        )
        .is_some());
        // The attribute column is not a key (100 appears twice).
        assert!(Index::build(
            &r,
            Schema::leaf(BaseType::Int),
            Schema::leaf(BaseType::Int),
            snd,
            fst
        )
        .is_none());
    }

    #[test]
    fn lookup_finds_all_matching_keys() {
        let r = indexed_relation();
        let idx = Index::build(
            &r,
            Schema::leaf(BaseType::Int),
            Schema::leaf(BaseType::Int),
            fst,
            snd,
        )
        .unwrap();
        let mut keys = idx.lookup(&Value::Int(100));
        keys.sort();
        assert_eq!(keys, vec![Tuple::int(1), Tuple::int(3)]);
        assert!(idx.lookup(&Value::Int(999)).is_empty());
    }

    #[test]
    fn index_scan_equals_full_scan() {
        // The Sec. 5.1.4 rewrite at the instance level:
        // SELECT * FROM R WHERE a = v  ≡  index lookup + semi-join.
        let r = indexed_relation();
        let idx = Index::build(
            &r,
            Schema::leaf(BaseType::Int),
            Schema::leaf(BaseType::Int),
            fst,
            snd,
        )
        .unwrap();
        for v in [100, 200, 999] {
            let v = Value::Int(v);
            let full = ops::select(&r, |t| {
                Card::from_bool(t.snd().unwrap() == &Tuple::Leaf(v.clone()))
            });
            let via = idx.scan_via_index(&r, &v, fst);
            assert!(full.bag_eq(&via), "mismatch for v={v}");
        }
    }

    #[test]
    fn index_relation_has_pair_schema() {
        let r = indexed_relation();
        let idx = Index::build(
            &r,
            Schema::leaf(BaseType::Int),
            Schema::leaf(BaseType::Int),
            fst,
            snd,
        )
        .unwrap();
        assert_eq!(
            idx.as_relation().schema(),
            &Schema::node(Schema::leaf(BaseType::Int), Schema::leaf(BaseType::Int))
        );
        assert_eq!(idx.as_relation().support_size(), 3);
    }
}
