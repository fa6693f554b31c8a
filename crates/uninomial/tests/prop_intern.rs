//! Property-based validation of the hash-consed core: interning must
//! round-trip exactly, and re-interning an extracted tree must give back
//! the same id.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relalg::{BaseType, Schema};
use uninomial::syntax::intern::Interner;
use uninomial::syntax::{Term, UExpr, Var, VarGen};

/// Random well-scoped UniNomial expressions (same shape as the
/// generator in `prop_normalize.rs`, plus aggregate terms so binders
/// inside terms are interned too).
struct ExprGen {
    rng: StdRng,
    gen: VarGen,
}

impl ExprGen {
    fn new(seed: u64) -> ExprGen {
        ExprGen {
            rng: StdRng::seed_from_u64(seed),
            gen: VarGen::new(),
        }
    }

    fn schema(&mut self) -> Schema {
        if self.rng.gen_bool(0.7) {
            Schema::leaf(BaseType::Int)
        } else {
            Schema::node(Schema::leaf(BaseType::Int), Schema::leaf(BaseType::Int))
        }
    }

    fn term(&mut self, scope: &[Var], depth: usize) -> Term {
        let leafy: Vec<&Var> = scope
            .iter()
            .filter(|v| matches!(v.schema, Schema::Leaf(_)))
            .collect();
        match self.rng.gen_range(0..7) {
            0 if depth > 0 => Term::func("f", vec![self.term(scope, depth - 1)]),
            1 if depth > 0 => {
                let v = self.gen.fresh(Schema::leaf(BaseType::Int));
                let body = UExpr::rel("R", Term::var(&v));
                Term::agg("SUM", v, body)
            }
            2 => Term::int(self.rng.gen_range(-2..=2)),
            _ if !leafy.is_empty() => Term::var(leafy[self.rng.gen_range(0..leafy.len())]),
            _ => Term::int(self.rng.gen_range(-2..=2)),
        }
    }

    fn expr(&mut self, scope: &[Var], depth: usize) -> UExpr {
        if depth == 0 {
            return self.atom(scope);
        }
        match self.rng.gen_range(0..9) {
            0 => UExpr::add(self.expr(scope, depth - 1), self.expr(scope, depth - 1)),
            1 => UExpr::mul(self.expr(scope, depth - 1), self.expr(scope, depth - 1)),
            2 => UExpr::not(self.expr(scope, depth - 1)),
            3 => UExpr::squash(self.expr(scope, depth - 1)),
            4 | 5 => {
                let schema = self.schema();
                let v = self.gen.fresh(schema);
                let mut inner = scope.to_vec();
                inner.push(v.clone());
                let body = UExpr::mul(
                    UExpr::rel(
                        if self.rng.gen_bool(0.5) { "R" } else { "S" },
                        Term::var(&v),
                    ),
                    self.expr(&inner, depth - 1),
                );
                UExpr::sum(v, body)
            }
            6 => {
                // Deliberately duplicated subtree: it must intern to one
                // id.
                let shared = self.expr(scope, depth - 1);
                UExpr::mul(shared.clone(), shared)
            }
            _ => self.atom(scope),
        }
    }

    fn atom(&mut self, scope: &[Var]) -> UExpr {
        match self.rng.gen_range(0..5) {
            0 => UExpr::One,
            1 => UExpr::Zero,
            2 => UExpr::eq(self.term(scope, 1), self.term(scope, 1)),
            3 => UExpr::pred("b", self.term(scope, 1)),
            _ => {
                let t = self.term(scope, 0);
                UExpr::rel("R", t)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn intern_extract_roundtrips(seed in 0u64..1_000_000) {
        let mut eg = ExprGen::new(seed);
        let scope = eg.gen.fresh(Schema::leaf(BaseType::Int));
        let e = eg.expr(&[scope], 3);
        let mut interner = Interner::new();
        let id = interner.intern(&e);
        prop_assert_eq!(interner.extract(id), e.clone());
        // Re-interning the extracted tree is the identity on ids.
        let extracted = interner.extract(id);
        prop_assert_eq!(interner.intern(&extracted), id);
    }

    #[test]
    fn term_intern_roundtrips(seed in 0u64..1_000_000) {
        let mut eg = ExprGen::new(seed);
        let scope = eg.gen.fresh(Schema::leaf(BaseType::Int));
        let t = eg.term(&[scope], 3);
        let mut interner = Interner::new();
        let id = interner.intern_term(&t);
        prop_assert_eq!(interner.extract_term(id), t.clone());
    }
}
