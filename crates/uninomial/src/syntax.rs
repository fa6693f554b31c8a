//! The UniNomial term language.
//!
//! Two mutually recursive sorts, matching the paper's denotations:
//!
//! - [`Term`] — *tuple-valued* terms: variables, pairing, the `.1`/`.2`
//!   projections, scalar constants, uninterpreted functions, and
//!   aggregates (whose argument is a relation, i.e. a `λ tuple. UExpr`).
//! - [`UExpr`] — *type-valued* expressions: the algebra
//!   `(U, 0, 1, +, ×, ·→0, ‖·‖, Σ)` of Definition 3.1 extended with the
//!   base atoms produced by Fig. 7: `⟦R⟧ t`, `⟦b⟧ t`, and `t₁ = t₂`.
//!
//! Binders ([`UExpr::Sum`] and [`Term::Agg`]) use globally unique
//! variables issued by [`VarGen`]; no shadowing ever occurs, which makes
//! capture-avoiding substitution a plain traversal.

pub mod intern;

use relalg::{Schema, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A bound or free tuple variable, carrying its schema.
///
/// Equality, ordering and hashing are derived: they compare the id
/// first and then the schema tree, so two variables with one id are
/// equal only if their schemas are too, and comparing equal ids walks
/// both schema trees. The schema is bookkeeping used by normalization
/// (pair-splitting) and the instantiation search.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var {
    /// Globally unique identifier.
    pub id: u32,
    /// Schema of the tuples this variable ranges over.
    pub schema: Schema,
}

impl Var {
    /// A display name like `t3`.
    pub fn name(&self) -> String {
        format!("t{}", self.id)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.id)
    }
}

/// Issues fresh, globally unique variables.
#[derive(Debug, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> VarGen {
        VarGen::default()
    }

    /// Issues a fresh variable of the given schema.
    pub fn fresh(&mut self, schema: Schema) -> Var {
        let id = self.next;
        self.next += 1;
        Var { id, schema }
    }

    /// Makes sure future ids are strictly greater than `id` (used when
    /// ingesting expressions built elsewhere).
    pub fn reserve_above(&mut self, id: u32) {
        if id >= self.next {
            self.next = id + 1;
        }
    }
}

/// Tuple-valued terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A tuple variable.
    Var(Var),
    /// The unit tuple (of the empty schema).
    Unit,
    /// Pairing `(t₁, t₂)`.
    Pair(Box<Term>, Box<Term>),
    /// First projection `t.1`.
    Fst(Box<Term>),
    /// Second projection `t.2`.
    Snd(Box<Term>),
    /// A scalar constant (a leaf tuple).
    Const(Value),
    /// An uninterpreted scalar function `f(e₁, …, eₙ)` (Sec. 3.2).
    Fn(String, Vec<Term>),
    /// An aggregate `agg(λ v : Tuple σ. body)` where `body : U` is the
    /// multiplicity of `v` in the aggregated relation (Fig. 7's
    /// `⟦agg⟧ (⟦Γ ⊢ q : leaf τ⟧ g)`).
    Agg(String, Var, Box<UExpr>),
}

impl Term {
    /// A variable occurrence.
    pub fn var(v: &Var) -> Term {
        Term::Var(v.clone())
    }

    /// Pairing.
    pub fn pair(a: Term, b: Term) -> Term {
        Term::Pair(Box::new(a), Box::new(b))
    }

    /// First projection (`.1`).
    pub fn fst(t: Term) -> Term {
        Term::Fst(Box::new(t))
    }

    /// Second projection (`.2`).
    pub fn snd(t: Term) -> Term {
        Term::Snd(Box::new(t))
    }

    /// An integer constant.
    pub fn int(n: i64) -> Term {
        Term::Const(Value::Int(n))
    }

    /// A string constant.
    pub fn string(s: impl Into<String>) -> Term {
        Term::Const(Value::Str(s.into()))
    }

    /// An uninterpreted function application.
    pub fn func(name: impl Into<String>, args: Vec<Term>) -> Term {
        Term::Fn(name.into(), args)
    }

    /// An aggregate term.
    pub fn agg(name: impl Into<String>, var: Var, body: UExpr) -> Term {
        Term::Agg(name.into(), var, Box::new(body))
    }

    /// Free variables of the term (binders inside `Agg` bodies excluded).
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut out);
        out
    }

    fn collect_free(&self, out: &mut BTreeSet<Var>) {
        match self {
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::Unit | Term::Const(_) => {}
            Term::Pair(a, b) => {
                a.collect_free(out);
                b.collect_free(out);
            }
            Term::Fst(t) | Term::Snd(t) => t.collect_free(out),
            Term::Fn(_, args) => {
                for a in args {
                    a.collect_free(out);
                }
            }
            Term::Agg(_, v, body) => {
                let mut inner = body.free_vars();
                inner.remove(v);
                out.extend(inner);
            }
        }
    }

    /// Capture-avoiding substitution `self[var := repl]`. Because all
    /// binders are globally unique, no renaming is needed.
    pub fn subst(&self, var: &Var, repl: &Term) -> Term {
        match self {
            Term::Var(v) if v == var => repl.clone(),
            Term::Var(_) | Term::Unit | Term::Const(_) => self.clone(),
            Term::Pair(a, b) => Term::pair(a.subst(var, repl), b.subst(var, repl)),
            Term::Fst(t) => Term::fst(t.subst(var, repl)),
            Term::Snd(t) => Term::snd(t.subst(var, repl)),
            Term::Fn(f, args) => {
                Term::Fn(f.clone(), args.iter().map(|a| a.subst(var, repl)).collect())
            }
            Term::Agg(name, v, body) => {
                debug_assert_ne!(v, var, "binders are globally unique");
                Term::Agg(name.clone(), v.clone(), Box::new(body.subst(var, repl)))
            }
        }
    }

    /// β/η-normalizes the tuple structure: `(a,b).1 → a`, `(a,b).2 → b`,
    /// and `(t.1, t.2) → t`. Idempotent.
    pub fn beta_reduce(&self) -> Term {
        match self {
            Term::Var(_) | Term::Unit | Term::Const(_) => self.clone(),
            Term::Pair(a, b) => {
                let a = a.beta_reduce();
                let b = b.beta_reduce();
                // η: (t.1, t.2) → t
                if let (Term::Fst(x), Term::Snd(y)) = (&a, &b) {
                    if x == y {
                        return (**x).clone();
                    }
                }
                Term::pair(a, b)
            }
            Term::Fst(t) => match t.beta_reduce() {
                Term::Pair(a, _) => (*a).clone(),
                t => Term::fst(t),
            },
            Term::Snd(t) => match t.beta_reduce() {
                Term::Pair(_, b) => (*b).clone(),
                t => Term::snd(t),
            },
            Term::Fn(f, args) => Term::Fn(f.clone(), args.iter().map(Term::beta_reduce).collect()),
            Term::Agg(name, v, body) => {
                Term::Agg(name.clone(), v.clone(), Box::new(body.beta_reduce_terms()))
            }
        }
    }

    /// Best-effort schema of this term. `Fn` results and `Agg` results are
    /// scalars of unknown base type, so `None` is returned for them (and
    /// propagated).
    pub fn schema(&self) -> Option<Schema> {
        match self {
            Term::Var(v) => Some(v.schema.clone()),
            Term::Unit => Some(Schema::Empty),
            Term::Const(v) => v.base_type().map(Schema::Leaf),
            Term::Pair(a, b) => Some(Schema::node(a.schema()?, b.schema()?)),
            Term::Fst(t) => match t.schema()? {
                Schema::Node(l, _) => Some(*l),
                _ => None,
            },
            Term::Snd(t) => match t.schema()? {
                Schema::Node(_, r) => Some(*r),
                _ => None,
            },
            Term::Fn(_, _) | Term::Agg(_, _, _) => None,
        }
    }

    /// All subterms of this term (including itself), used as instantiation
    /// candidates by the deductive prover. `Agg` bodies are not entered.
    pub fn subterms(&self) -> Vec<Term> {
        let mut out = Vec::new();
        self.collect_subterms(&mut out);
        out
    }

    fn collect_subterms(&self, out: &mut Vec<Term>) {
        out.push(self.clone());
        match self {
            Term::Pair(a, b) => {
                a.collect_subterms(out);
                b.collect_subterms(out);
            }
            Term::Fst(t) | Term::Snd(t) => t.collect_subterms(out),
            Term::Fn(_, args) => {
                for a in args {
                    a.collect_subterms(out);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{}", v.name()),
            Term::Unit => write!(f, "()"),
            Term::Pair(a, b) => write!(f, "({a}, {b})"),
            Term::Fst(t) => write!(f, "{t}.1"),
            Term::Snd(t) => write!(f, "{t}.2"),
            Term::Const(v) => write!(f, "{v}"),
            Term::Fn(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Term::Agg(name, v, body) => write!(f, "{name}(λ{}. {body})", v.name()),
        }
    }
}

/// Type-valued UniNomial expressions (Definition 3.1 plus base atoms).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UExpr {
    /// The empty type `0`.
    Zero,
    /// The unit type `1`.
    One,
    /// Disjoint union `n₁ + n₂`.
    Add(Box<UExpr>, Box<UExpr>),
    /// Cartesian product `n₁ × n₂`.
    Mul(Box<UExpr>, Box<UExpr>),
    /// Negation `n → 0`.
    Not(Box<UExpr>),
    /// Squash `‖n‖`.
    Squash(Box<UExpr>),
    /// Infinitary sum `Σ_{v : Tuple σ} body` (σ is stored in the binder).
    Sum(Var, Box<UExpr>),
    /// Propositional equality of two tuple terms, `t₁ = t₂`.
    Eq(Term, Term),
    /// `⟦R⟧ t` — the multiplicity of tuple `t` in relation symbol `R`
    /// (a table or a meta-variable ranging over all relations).
    Rel(String, Term),
    /// `⟦b⟧ t` — an uninterpreted predicate meta-variable applied to a
    /// tuple term; always a squash type (Sec. 4.1).
    Pred(String, Term),
}

impl UExpr {
    /// Addition.
    #[allow(clippy::should_implement_trait)] // paper-idiom constructor, not an operator impl
    pub fn add(a: UExpr, b: UExpr) -> UExpr {
        UExpr::Add(Box::new(a), Box::new(b))
    }

    /// Multiplication.
    #[allow(clippy::should_implement_trait)] // paper-idiom constructor, not an operator impl
    pub fn mul(a: UExpr, b: UExpr) -> UExpr {
        UExpr::Mul(Box::new(a), Box::new(b))
    }

    /// Product of many factors (`1` if empty).
    pub fn product(factors: impl IntoIterator<Item = UExpr>) -> UExpr {
        let mut it = factors.into_iter();
        match it.next() {
            None => UExpr::One,
            Some(first) => it.fold(first, UExpr::mul),
        }
    }

    /// Sum of many addends (`0` if empty).
    pub fn sum_of(addends: impl IntoIterator<Item = UExpr>) -> UExpr {
        let mut it = addends.into_iter();
        match it.next() {
            None => UExpr::Zero,
            Some(first) => it.fold(first, UExpr::add),
        }
    }

    /// Negation `· → 0`.
    #[allow(clippy::should_implement_trait)] // paper-idiom constructor, not an operator impl
    pub fn not(e: UExpr) -> UExpr {
        UExpr::Not(Box::new(e))
    }

    /// Squash `‖·‖`.
    pub fn squash(e: UExpr) -> UExpr {
        UExpr::Squash(Box::new(e))
    }

    /// Infinitary sum over a fresh variable.
    pub fn sum(v: Var, body: UExpr) -> UExpr {
        UExpr::Sum(v, Box::new(body))
    }

    /// Tuple equality.
    pub fn eq(a: Term, b: Term) -> UExpr {
        UExpr::Eq(a, b)
    }

    /// Relation atom `⟦R⟧ t`.
    pub fn rel(name: impl Into<String>, t: Term) -> UExpr {
        UExpr::Rel(name.into(), t)
    }

    /// Predicate atom `⟦b⟧ t`.
    pub fn pred(name: impl Into<String>, t: Term) -> UExpr {
        UExpr::Pred(name.into(), t)
    }

    /// Free variables.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut out);
        out
    }

    fn collect_free(&self, out: &mut BTreeSet<Var>) {
        match self {
            UExpr::Zero | UExpr::One => {}
            UExpr::Add(a, b) | UExpr::Mul(a, b) => {
                a.collect_free(out);
                b.collect_free(out);
            }
            UExpr::Not(e) | UExpr::Squash(e) => e.collect_free(out),
            UExpr::Sum(v, body) => {
                let mut inner = body.free_vars();
                inner.remove(v);
                out.extend(inner);
            }
            UExpr::Eq(a, b) => {
                a.collect_free(out);
                b.collect_free(out);
            }
            UExpr::Rel(_, t) | UExpr::Pred(_, t) => t.collect_free(out),
        }
    }

    /// Capture-avoiding substitution `self[var := repl]`.
    pub fn subst(&self, var: &Var, repl: &Term) -> UExpr {
        match self {
            UExpr::Zero | UExpr::One => self.clone(),
            UExpr::Add(a, b) => UExpr::add(a.subst(var, repl), b.subst(var, repl)),
            UExpr::Mul(a, b) => UExpr::mul(a.subst(var, repl), b.subst(var, repl)),
            UExpr::Not(e) => UExpr::not(e.subst(var, repl)),
            UExpr::Squash(e) => UExpr::squash(e.subst(var, repl)),
            UExpr::Sum(v, body) => {
                debug_assert_ne!(v, var, "binders are globally unique");
                UExpr::Sum(v.clone(), Box::new(body.subst(var, repl)))
            }
            UExpr::Eq(a, b) => UExpr::eq(a.subst(var, repl), b.subst(var, repl)),
            UExpr::Rel(r, t) => UExpr::Rel(r.clone(), t.subst(var, repl)),
            UExpr::Pred(p, t) => UExpr::Pred(p.clone(), t.subst(var, repl)),
        }
    }

    /// β/η-normalizes all tuple terms inside the expression.
    pub fn beta_reduce_terms(&self) -> UExpr {
        match self {
            UExpr::Zero | UExpr::One => self.clone(),
            UExpr::Add(a, b) => UExpr::add(a.beta_reduce_terms(), b.beta_reduce_terms()),
            UExpr::Mul(a, b) => UExpr::mul(a.beta_reduce_terms(), b.beta_reduce_terms()),
            UExpr::Not(e) => UExpr::not(e.beta_reduce_terms()),
            UExpr::Squash(e) => UExpr::squash(e.beta_reduce_terms()),
            UExpr::Sum(v, body) => UExpr::Sum(v.clone(), Box::new(body.beta_reduce_terms())),
            UExpr::Eq(a, b) => UExpr::eq(a.beta_reduce(), b.beta_reduce()),
            UExpr::Rel(r, t) => UExpr::Rel(r.clone(), t.beta_reduce()),
            UExpr::Pred(p, t) => UExpr::Pred(p.clone(), t.beta_reduce()),
        }
    }

    /// Renames every bound variable to a fresh one from `gen`, so that an
    /// expression can be safely combined with others (unique-binder
    /// invariant).
    pub fn refresh_binders(&self, gen: &mut VarGen) -> UExpr {
        match self {
            UExpr::Zero | UExpr::One | UExpr::Eq(_, _) | UExpr::Rel(_, _) | UExpr::Pred(_, _) => {
                self.clone()
            }
            UExpr::Add(a, b) => UExpr::add(a.refresh_binders(gen), b.refresh_binders(gen)),
            UExpr::Mul(a, b) => UExpr::mul(a.refresh_binders(gen), b.refresh_binders(gen)),
            UExpr::Not(e) => UExpr::not(e.refresh_binders(gen)),
            UExpr::Squash(e) => UExpr::squash(e.refresh_binders(gen)),
            UExpr::Sum(v, body) => {
                let fresh = gen.fresh(v.schema.clone());
                let renamed = body.subst(v, &Term::var(&fresh));
                UExpr::Sum(fresh, Box::new(renamed.refresh_binders(gen)))
            }
        }
    }

    /// The largest variable id occurring anywhere (bound or free), used to
    /// seed [`VarGen::reserve_above`].
    pub fn max_var_id(&self) -> u32 {
        fn term_max(t: &Term) -> u32 {
            match t {
                Term::Var(v) => v.id,
                Term::Unit | Term::Const(_) => 0,
                Term::Pair(a, b) => term_max(a).max(term_max(b)),
                Term::Fst(t) | Term::Snd(t) => term_max(t),
                Term::Fn(_, args) => args.iter().map(term_max).max().unwrap_or(0),
                Term::Agg(_, v, body) => v.id.max(body.max_var_id()),
            }
        }
        match self {
            UExpr::Zero | UExpr::One => 0,
            UExpr::Add(a, b) | UExpr::Mul(a, b) => a.max_var_id().max(b.max_var_id()),
            UExpr::Not(e) | UExpr::Squash(e) => e.max_var_id(),
            UExpr::Sum(v, body) => v.id.max(body.max_var_id()),
            UExpr::Eq(a, b) => term_max(a).max(term_max(b)),
            UExpr::Rel(_, t) | UExpr::Pred(_, t) => term_max(t),
        }
    }
}

impl fmt::Debug for UExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for UExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UExpr::Zero => write!(f, "0"),
            UExpr::One => write!(f, "1"),
            UExpr::Add(a, b) => write!(f, "({a} + {b})"),
            UExpr::Mul(a, b) => write!(f, "({a} × {b})"),
            UExpr::Not(e) => write!(f, "¬{e}"),
            UExpr::Squash(e) => write!(f, "‖{e}‖"),
            UExpr::Sum(v, body) => write!(f, "Σ{}:{}. {body}", v.name(), v.schema),
            UExpr::Eq(a, b) => write!(f, "({a} = {b})"),
            UExpr::Rel(r, t) => write!(f, "{r}({t})"),
            UExpr::Pred(p, t) => write!(f, "{p}({t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::BaseType;

    fn leaf_int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    #[test]
    fn vargen_is_monotone_and_unique() {
        let mut g = VarGen::new();
        let a = g.fresh(leaf_int());
        let b = g.fresh(leaf_int());
        assert_ne!(a.id, b.id);
        g.reserve_above(100);
        let c = g.fresh(leaf_int());
        assert!(c.id > 100);
    }

    #[test]
    fn beta_reduces_projections_of_pairs() {
        let mut g = VarGen::new();
        let v = g.fresh(leaf_int());
        let t = Term::fst(Term::pair(Term::var(&v), Term::int(3)));
        assert_eq!(t.beta_reduce(), Term::var(&v));
        let t = Term::snd(Term::pair(Term::var(&v), Term::int(3)));
        assert_eq!(t.beta_reduce(), Term::int(3));
    }

    #[test]
    fn eta_contracts_pair_of_projections() {
        let mut g = VarGen::new();
        let v = g.fresh(Schema::node(leaf_int(), leaf_int()));
        let t = Term::pair(Term::fst(Term::var(&v)), Term::snd(Term::var(&v)));
        assert_eq!(t.beta_reduce(), Term::var(&v));
    }

    #[test]
    fn beta_reduce_is_idempotent() {
        let mut g = VarGen::new();
        let v = g.fresh(Schema::node(leaf_int(), leaf_int()));
        let t = Term::fst(Term::pair(
            Term::snd(Term::var(&v)),
            Term::fst(Term::var(&v)),
        ));
        let once = t.beta_reduce();
        assert_eq!(once.beta_reduce(), once);
    }

    #[test]
    fn term_schema_inference() {
        let mut g = VarGen::new();
        let v = g.fresh(Schema::node(leaf_int(), Schema::leaf(BaseType::Bool)));
        assert_eq!(Term::fst(Term::var(&v)).schema(), Some(leaf_int()));
        assert_eq!(
            Term::snd(Term::var(&v)).schema(),
            Some(Schema::leaf(BaseType::Bool))
        );
        assert_eq!(Term::Unit.schema(), Some(Schema::Empty));
        assert_eq!(Term::int(1).schema(), Some(leaf_int()));
        assert_eq!(Term::func("f", vec![]).schema(), None);
    }

    #[test]
    fn free_vars_of_expr() {
        let mut g = VarGen::new();
        let v = g.fresh(leaf_int());
        let w = g.fresh(leaf_int());
        let e = UExpr::sum(
            w.clone(),
            UExpr::mul(
                UExpr::rel("R", Term::var(&w)),
                UExpr::eq(Term::var(&v), Term::var(&w)),
            ),
        );
        let fv = e.free_vars();
        assert!(fv.contains(&v));
        assert!(!fv.contains(&w));
    }

    #[test]
    fn subst_avoids_binders_and_hits_occurrences() {
        let mut g = VarGen::new();
        let v = g.fresh(leaf_int());
        let w = g.fresh(leaf_int());
        let e = UExpr::sum(w.clone(), UExpr::eq(Term::var(&v), Term::var(&w)));
        let e2 = e.subst(&v, &Term::int(7));
        assert_eq!(
            e2,
            UExpr::sum(w.clone(), UExpr::eq(Term::int(7), Term::var(&w)))
        );
    }

    #[test]
    fn subst_inside_agg_body() {
        let mut g = VarGen::new();
        let v = g.fresh(leaf_int());
        let w = g.fresh(leaf_int());
        let agg = Term::agg("SUM", w.clone(), UExpr::eq(Term::var(&v), Term::var(&w)));
        let agg2 = agg.subst(&v, &Term::int(5));
        match agg2 {
            Term::Agg(_, _, body) => {
                assert_eq!(*body, UExpr::eq(Term::int(5), Term::var(&w)));
            }
            other => panic!("expected Agg, got {other}"),
        }
    }

    #[test]
    fn refresh_binders_gives_unique_ids() {
        let mut g = VarGen::new();
        let v = g.fresh(leaf_int());
        let body = UExpr::rel("R", Term::var(&v));
        let e = UExpr::sum(v.clone(), body);
        // Combine the same expression twice; binders must not collide.
        let mut g2 = VarGen::new();
        g2.reserve_above(e.max_var_id());
        let e1 = e.refresh_binders(&mut g2);
        let e2 = e.refresh_binders(&mut g2);
        let combined = UExpr::mul(e1.clone(), e2.clone());
        // Collect all binder ids.
        fn binders(e: &UExpr, out: &mut Vec<u32>) {
            match e {
                UExpr::Sum(v, b) => {
                    out.push(v.id);
                    binders(b, out);
                }
                UExpr::Add(a, b) | UExpr::Mul(a, b) => {
                    binders(a, out);
                    binders(b, out);
                }
                UExpr::Not(x) | UExpr::Squash(x) => binders(x, out),
                _ => {}
            }
        }
        let mut ids = Vec::new();
        binders(&combined, &mut ids);
        let distinct: BTreeSet<u32> = ids.iter().copied().collect();
        assert_eq!(ids.len(), distinct.len(), "binder ids must be unique");
    }

    #[test]
    fn display_is_readable() {
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let e = UExpr::squash(UExpr::sum(
            t.clone(),
            UExpr::mul(
                UExpr::rel("R", Term::var(&t)),
                UExpr::eq(Term::var(&t), Term::int(1)),
            ),
        ));
        let s = e.to_string();
        assert!(s.contains("Σ"), "{s}");
        assert!(s.contains("R(t0)"), "{s}");
        assert!(s.contains("‖"), "{s}");
    }

    #[test]
    fn product_and_sum_of_builders() {
        assert_eq!(UExpr::product([]), UExpr::One);
        assert_eq!(UExpr::sum_of([]), UExpr::Zero);
        let p = UExpr::product([UExpr::One, UExpr::Zero]);
        assert_eq!(p, UExpr::mul(UExpr::One, UExpr::Zero));
    }

    #[test]
    fn max_var_id_sees_all_positions() {
        let mut g = VarGen::new();
        let a = g.fresh(leaf_int());
        let b = g.fresh(leaf_int());
        let c = g.fresh(leaf_int());
        let e = UExpr::mul(
            UExpr::rel("R", Term::var(&a)),
            UExpr::sum(
                b.clone(),
                UExpr::eq(Term::var(&b), Term::agg("SUM", c.clone(), UExpr::One)),
            ),
        );
        assert_eq!(e.max_var_id(), c.id);
    }
}
