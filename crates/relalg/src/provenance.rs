//! Provenance semirings: the general K-relations of Green et al. \[23\].
//!
//! The paper's semantics instantiates K-relations at cardinals; the
//! original framework interprets relations over *any* commutative
//! semiring `K` — booleans give set semantics, naturals give bags, and
//! the free semiring of *provenance polynomials* `ℕ[X]` records how each
//! output tuple was derived. This module implements the generic
//! framework and the polynomial instance, with the specialization
//! theorems (evaluating a polynomial at 1s recovers bag multiplicity)
//! as tests — tying the executable substrate back to its theory.

use crate::card::Card;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::fmt;

/// A commutative semiring.
pub trait Semiring: Clone + PartialEq + fmt::Debug {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Addition.
    fn add(&self, other: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Whether this is the additive identity (for support pruning).
    fn is_zero(&self) -> bool;
}

impl Semiring for bool {
    fn zero() -> bool {
        false
    }
    fn one() -> bool {
        true
    }
    fn add(&self, other: &bool) -> bool {
        *self || *other
    }
    fn mul(&self, other: &bool) -> bool {
        *self && *other
    }
    fn is_zero(&self) -> bool {
        !*self
    }
}

impl Semiring for Card {
    fn zero() -> Card {
        Card::ZERO
    }
    fn one() -> Card {
        Card::ONE
    }
    fn add(&self, other: &Card) -> Card {
        *self + *other
    }
    fn mul(&self, other: &Card) -> Card {
        *self * *other
    }
    fn is_zero(&self) -> bool {
        Card::is_zero(*self)
    }
}

/// A provenance polynomial in `ℕ[X]`: a map from monomials (multisets of
/// named source-tuple variables) to natural coefficients.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Polynomial {
    /// monomial (sorted variable-with-exponent list) → coefficient
    terms: BTreeMap<Vec<(String, u32)>, u64>,
}

impl Polynomial {
    /// The polynomial `x` for a named source tuple.
    pub fn var(name: impl Into<String>) -> Polynomial {
        let mut terms = BTreeMap::new();
        terms.insert(vec![(name.into(), 1)], 1);
        Polynomial { terms }
    }

    /// A constant polynomial.
    pub fn constant(n: u64) -> Polynomial {
        let mut terms = BTreeMap::new();
        if n > 0 {
            terms.insert(Vec::new(), n);
        }
        Polynomial { terms }
    }

    /// Evaluates the polynomial under an assignment of variables to
    /// cardinals (absent variables default to 1 — "the tuple is
    /// present once").
    pub fn evaluate(&self, assignment: &BTreeMap<String, Card>) -> Card {
        let mut total = Card::ZERO;
        for (monomial, coeff) in &self.terms {
            let mut product = Card::Fin(*coeff);
            for (v, exp) in monomial {
                let base = assignment.get(v).copied().unwrap_or(Card::ONE);
                for _ in 0..*exp {
                    product *= base;
                }
            }
            total += product;
        }
        total
    }

    /// The set of source variables mentioned — the *lineage* of the
    /// annotated tuple.
    pub fn lineage(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .terms
            .keys()
            .flat_map(|m| m.iter().map(|(v, _)| v.as_str()))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl Semiring for Polynomial {
    fn zero() -> Polynomial {
        Polynomial::default()
    }
    fn one() -> Polynomial {
        Polynomial::constant(1)
    }
    fn add(&self, other: &Polynomial) -> Polynomial {
        let mut terms = self.terms.clone();
        for (m, c) in &other.terms {
            *terms.entry(m.clone()).or_insert(0) += c;
        }
        terms.retain(|_, c| *c > 0);
        Polynomial { terms }
    }
    fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut terms: BTreeMap<Vec<(String, u32)>, u64> = BTreeMap::new();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                let mut vars: BTreeMap<String, u32> = BTreeMap::new();
                for (v, e) in m1.iter().chain(m2) {
                    *vars.entry(v.clone()).or_insert(0) += e;
                }
                let monomial: Vec<(String, u32)> = vars.into_iter().collect();
                *terms.entry(monomial).or_insert(0) += c1 * c2;
            }
        }
        Polynomial { terms }
    }
    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (monomial, coeff)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if *coeff != 1 || monomial.is_empty() {
                write!(f, "{coeff}")?;
            }
            for (j, (v, e)) in monomial.iter().enumerate() {
                if j > 0 || *coeff != 1 {
                    write!(f, "·")?;
                }
                write!(f, "{v}")?;
                if *e > 1 {
                    write!(f, "^{e}")?;
                }
            }
        }
        Ok(())
    }
}

/// A K-relation over an arbitrary commutative semiring.
#[derive(Clone, Debug, PartialEq)]
pub struct KRelation<K: Semiring> {
    schema: Schema,
    entries: BTreeMap<Tuple, K>,
}

impl<K: Semiring> KRelation<K> {
    /// The empty K-relation.
    pub fn empty(schema: Schema) -> KRelation<K> {
        KRelation {
            schema,
            entries: BTreeMap::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adds annotation `k` to tuple `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not conform to the schema.
    pub fn insert(&mut self, t: Tuple, k: K) {
        assert!(t.conforms_to(&self.schema), "tuple must conform");
        if k.is_zero() {
            return;
        }
        let entry = self.entries.entry(t).or_insert_with(K::zero);
        *entry = entry.add(&k);
    }

    /// The annotation of a tuple (`zero` if absent).
    pub fn annotation(&self, t: &Tuple) -> K {
        self.entries.get(t).cloned().unwrap_or_else(K::zero)
    }

    /// Iterates over annotated tuples.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &K)> {
        self.entries.iter()
    }

    /// Union: annotations add.
    ///
    /// # Panics
    ///
    /// Panics when the schemas differ.
    pub fn union(&self, other: &KRelation<K>) -> KRelation<K> {
        assert_eq!(self.schema, other.schema, "schemas must match");
        let mut out = self.clone();
        for (t, k) in other.iter() {
            out.insert(t.clone(), k.clone());
        }
        out
    }

    /// Product: annotations multiply.
    pub fn product(&self, other: &KRelation<K>) -> KRelation<K> {
        let mut out = KRelation::empty(Schema::node(self.schema.clone(), other.schema.clone()));
        for (t1, k1) in self.iter() {
            for (t2, k2) in other.iter() {
                out.insert(Tuple::pair(t1.clone(), t2.clone()), k1.mul(k2));
            }
        }
        out
    }

    /// Selection: keeps tuples satisfying the predicate.
    pub fn select(&self, pred: impl Fn(&Tuple) -> bool) -> KRelation<K> {
        let mut out = KRelation::empty(self.schema.clone());
        for (t, k) in self.iter() {
            if pred(t) {
                out.insert(t.clone(), k.clone());
            }
        }
        out
    }

    /// Projection: annotations of merged tuples add.
    pub fn project(&self, out_schema: Schema, f: impl Fn(&Tuple) -> Tuple) -> KRelation<K> {
        let mut out = KRelation::empty(out_schema);
        for (t, k) in self.iter() {
            out.insert(f(t), k.clone());
        }
        out
    }

    /// Maps annotations through a semiring homomorphism — Green et al.'s
    /// fundamental theorem: homomorphisms commute with queries.
    pub fn map_annotations<K2: Semiring>(&self, h: impl Fn(&K) -> K2) -> KRelation<K2> {
        let mut out = KRelation::empty(self.schema.clone());
        for (t, k) in self.iter() {
            out.insert(t.clone(), h(k));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BaseType;

    fn int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    /// Source relation annotated with provenance variables.
    fn annotated() -> KRelation<Polynomial> {
        let mut r = KRelation::empty(int());
        r.insert(Tuple::int(1), Polynomial::var("r1"));
        r.insert(Tuple::int(2), Polynomial::var("r2"));
        r.insert(Tuple::int(2), Polynomial::var("r3"));
        r
    }

    #[test]
    fn polynomial_semiring_laws() {
        let (x, y, z) = (
            Polynomial::var("x"),
            Polynomial::var("y"),
            Polynomial::var("z"),
        );
        assert_eq!(x.add(&y), y.add(&x));
        assert_eq!(x.mul(&y), y.mul(&x));
        assert_eq!(x.mul(&y.add(&z)), x.mul(&y).add(&x.mul(&z)));
        assert_eq!(x.add(&Polynomial::zero()), x);
        assert_eq!(x.mul(&Polynomial::one()), x);
        assert!(x.mul(&Polynomial::zero()).is_zero());
    }

    #[test]
    fn union_annotations_add() {
        let r = annotated();
        let u = r.union(&r);
        // 2 appears with r2 + r3 on each side.
        let ann = u.annotation(&Tuple::int(2));
        assert_eq!(ann.to_string(), "2·r2 + 2·r3");
    }

    #[test]
    fn join_records_derivations() {
        let r = annotated();
        let joined = r.product(&r).select(|t| t.fst() == t.snd());
        let ann = joined.annotation(&Tuple::pair(Tuple::int(2), Tuple::int(2)));
        // (r2 + r3)² expanded.
        assert_eq!(ann.to_string(), "2·r2·r3 + r2^2 + r3^2");
        assert_eq!(ann.lineage(), vec!["r2", "r3"]);
    }

    #[test]
    fn specialization_to_bags() {
        // Evaluating provenance at multiplicity-1 sources recovers the
        // bag multiplicity computed directly over Card.
        let r_poly = annotated();
        let joined_poly = r_poly.product(&r_poly);
        let ones = BTreeMap::new(); // defaults to 1 per source
        let as_bag = joined_poly.map_annotations(|p: &Polynomial| p.evaluate(&ones));

        let mut r_card: KRelation<Card> = KRelation::empty(int());
        r_card.insert(Tuple::int(1), Card::ONE);
        r_card.insert(Tuple::int(2), Card::Fin(2));
        let joined_card = r_card.product(&r_card);
        assert_eq!(as_bag, joined_card);
    }

    #[test]
    fn specialization_to_sets() {
        // The boolean image forgets multiplicity.
        let r = annotated();
        let sets = r.map_annotations(|p: &Polynomial| !p.is_zero());
        assert!(sets.annotation(&Tuple::int(2)));
        assert!(!sets.annotation(&Tuple::int(9)));
    }

    #[test]
    fn homomorphism_commutes_with_queries() {
        // Green et al.'s fundamental property, on a join-project query:
        // evaluate-then-map equals map-then-evaluate.
        let r = annotated();
        let query = |rel: &KRelation<Polynomial>| {
            rel.product(rel)
                .select(|t| t.fst() == t.snd())
                .project(int(), |t| t.fst().unwrap().clone())
        };
        let query_card = |rel: &KRelation<Card>| {
            rel.product(rel)
                .select(|t| t.fst() == t.snd())
                .project(int(), |t| t.fst().unwrap().clone())
        };
        let mut assignment = BTreeMap::new();
        assignment.insert("r1".to_string(), Card::Fin(3));
        assignment.insert("r2".to_string(), Card::Fin(2));
        assignment.insert("r3".to_string(), Card::ZERO);
        let h = |p: &Polynomial| p.evaluate(&assignment);
        let path1 = query(&r).map_annotations(h);
        let path2 = query_card(&r.map_annotations(h));
        assert_eq!(path1, path2);
    }

    #[test]
    fn card_and_bool_semiring_impls() {
        assert_eq!(Semiring::add(&Card::Fin(2), &Card::Fin(3)), Card::Fin(5));
        assert!(Semiring::is_zero(&Card::ZERO));
        assert!(bool::one());
        assert!(!bool::zero());
        assert!(true.mul(&true));
        assert!(!true.mul(&false));
    }

    #[test]
    fn polynomial_display_and_constants() {
        let p = Polynomial::constant(2).add(&Polynomial::var("x").mul(&Polynomial::var("x")));
        assert_eq!(p.to_string(), "2 + x^2");
        assert_eq!(Polynomial::zero().to_string(), "0");
        assert_eq!(Polynomial::constant(0), Polynomial::zero());
    }
}
