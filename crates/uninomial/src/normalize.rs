//! Normalization of UniNomial expressions into *sum-product normal form*.
//!
//! A [`Spnf`] is a finite sum of [`SpnfTerm`]s; each term is
//! `Σ x₁ … xₖ . a₁ × a₂ × ⋯ × aₙ` where every `xᵢ` ranges over a *leaf*
//! schema (pair-valued sum variables are split by Lemma 5.1) and every
//! `aⱼ` is an [`Atom`]: a relation application `R(t)`, a predicate
//! application `b(t)`, a tuple equality `t₁ = t₂`, or a negation/squash of
//! a nested normal form.
//!
//! The rewrites used are exactly the trusted axioms of
//! [`crate::lemmas`]; each application is recorded in the supplied
//! [`Trace`]. The normal form enjoys two properties the provers rely on:
//!
//! 1. **Soundness** — every rewrite preserves the denotation of the
//!    expression under every interpretation (property-tested against
//!    [`crate::eval`]).
//! 2. **Canonicity up to bijection** — two normal forms denote equal
//!    functions whenever [`crate::equiv`] finds a sum/product/variable
//!    matching, which suffices for all rewrite rules in the paper.
//!
//! There is one normalizer, the tree walker behind [`normalize`]. It
//! keeps no state between calls, and every call, from the provers, the
//! planner, the e-graph oracles or certificate replay, is timed by the
//! `uninomial.normalize` telemetry span.

use crate::lemmas::Lemma;
use crate::syntax::{Term, UExpr, Var, VarGen};
use relalg::Schema;
use std::collections::BTreeSet;
use std::fmt;

/// A record of lemma applications — the machine-checkable skeleton of a
/// proof, analogous to the lines of a Coq proof script.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    steps: Vec<(Lemma, String)>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Records one lemma application with a short note.
    pub fn step(&mut self, lemma: Lemma, note: impl Into<String>) {
        self.steps.push((lemma, note.into()));
    }

    /// The recorded steps, in application order.
    pub fn steps(&self) -> &[(Lemma, String)] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends all steps of `other`.
    pub fn extend(&mut self, other: Trace) {
        self.steps.extend(other.steps);
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (lemma, note)) in self.steps.iter().enumerate() {
            writeln!(f, "{:>4}. {lemma}  {note}", i + 1)?;
        }
        Ok(())
    }
}

/// An atomic factor of a normal-form product.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// `R(t)` — multiplicity of tuple `t` in relation `R`. Not a
    /// proposition (can exceed 1).
    Rel(String, Term),
    /// `b(t)` — uninterpreted predicate; a proposition.
    Pred(String, Term),
    /// `t₁ = t₂` — tuple equality; a proposition. Canonically oriented
    /// so that the smaller term (by `Ord`) is first.
    Eq(Term, Term),
    /// `¬ s` — negation of a nested normal form; a proposition.
    Not(Spnf),
    /// `‖s‖` — squash of a nested normal form; a proposition.
    Squash(Spnf),
}

impl Atom {
    /// Whether the atom denotes a proposition (a squash type): everything
    /// except relation applications.
    pub fn is_prop(&self) -> bool {
        !matches!(self, Atom::Rel(_, _))
    }

    /// Free variables of the atom.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Atom::Rel(_, t) | Atom::Pred(_, t) => t.free_vars(),
            Atom::Eq(a, b) => {
                let mut s = a.free_vars();
                s.extend(b.free_vars());
                s
            }
            Atom::Not(s) | Atom::Squash(s) => s.free_vars(),
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Rel(r, t) => write!(f, "{r}({t})"),
            Atom::Pred(p, t) => write!(f, "{p}({t})"),
            Atom::Eq(a, b) => write!(f, "({a} = {b})"),
            Atom::Not(s) => write!(f, "¬[{s}]"),
            Atom::Squash(s) => write!(f, "‖{s}‖"),
        }
    }
}

/// One summand: `Σ vars . Π atoms` (an empty product denotes `1`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpnfTerm {
    /// Bound sum variables, all with leaf (or unknown-leaf) schemas.
    pub vars: Vec<Var>,
    /// The product's factors, canonically sorted.
    pub atoms: Vec<Atom>,
}

impl SpnfTerm {
    /// The term `1` (no binders, empty product).
    pub fn one() -> SpnfTerm {
        SpnfTerm {
            vars: Vec::new(),
            atoms: Vec::new(),
        }
    }

    /// Whether the term is syntactically `Σ vars . 1` — inhabited for any
    /// (nonempty-domain) interpretation.
    pub fn is_trivially_inhabited(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Free variables (bound variables removed).
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut s = BTreeSet::new();
        for a in &self.atoms {
            s.extend(a.free_vars());
        }
        for v in &self.vars {
            s.remove(v);
        }
        s
    }

    /// Whether every atom is a proposition and there are no binders (the
    /// term as a whole is then a proposition).
    pub fn is_prop(&self) -> bool {
        self.vars.is_empty() && self.atoms.iter().all(Atom::is_prop)
    }

    fn sort_atoms(&mut self) {
        self.atoms.sort();
        self.vars.sort();
        self.vars.dedup();
    }
}

impl fmt::Debug for SpnfTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SpnfTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.vars.is_empty() {
            write!(f, "Σ")?;
            for (i, v) in self.vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", v.name())?;
            }
            write!(f, ". ")?;
        }
        if self.atoms.is_empty() {
            write!(f, "1")
        } else {
            for (i, a) in self.atoms.iter().enumerate() {
                if i > 0 {
                    write!(f, " × ")?;
                }
                write!(f, "{a}")?;
            }
            Ok(())
        }
    }
}

/// A normal form: a sum of [`SpnfTerm`]s (an empty sum denotes `0`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Spnf {
    /// The summands.
    pub terms: Vec<SpnfTerm>,
}

impl Spnf {
    /// The normal form of `0`.
    pub fn zero() -> Spnf {
        Spnf { terms: Vec::new() }
    }

    /// The normal form of `1`.
    pub fn one() -> Spnf {
        Spnf {
            terms: vec![SpnfTerm::one()],
        }
    }

    /// Whether this is the zero normal form.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Free variables across all summands.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut s = BTreeSet::new();
        for t in &self.terms {
            s.extend(t.free_vars());
        }
        s
    }

    /// Whether the whole sum denotes a proposition: a single summand that
    /// is itself a proposition, or zero.
    pub fn is_prop(&self) -> bool {
        match self.terms.as_slice() {
            [] => true,
            [t] => t.is_prop(),
            _ => false,
        }
    }

    /// Reifies the normal form back into a [`UExpr`], mainly for display,
    /// round-trip testing, and canonicalized aggregate bodies.
    pub fn reify(&self) -> UExpr {
        UExpr::sum_of(self.terms.iter().map(|t| {
            let product = UExpr::product(t.atoms.iter().map(Atom::reify));
            t.vars
                .iter()
                .rev()
                .fold(product, |acc, v| UExpr::sum(v.clone(), acc))
        }))
    }
}

impl Atom {
    /// Reifies the atom back into a [`UExpr`].
    pub fn reify(&self) -> UExpr {
        match self {
            Atom::Rel(r, t) => UExpr::Rel(r.clone(), t.clone()),
            Atom::Pred(p, t) => UExpr::Pred(p.clone(), t.clone()),
            Atom::Eq(a, b) => UExpr::Eq(a.clone(), b.clone()),
            Atom::Not(s) => UExpr::not(s.reify()),
            Atom::Squash(s) => UExpr::squash(s.reify()),
        }
    }
}

impl fmt::Debug for Spnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Spnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, "  +  ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Normalizes an expression into sum-product normal form, recording every
/// lemma application in `trace`.
///
/// The input's binders are refreshed first, so expressions with shared
/// (cloned) subtrees are handled correctly.
pub fn normalize(e: &UExpr, gen: &mut VarGen, trace: &mut Trace) -> Spnf {
    let _span = telemetry::span("uninomial.normalize");
    gen.reserve_above(e.max_var_id());
    let e = e.beta_reduce_terms().refresh_binders(gen);
    norm(&e, gen, trace)
}

fn norm(e: &UExpr, gen: &mut VarGen, trace: &mut Trace) -> Spnf {
    match e {
        UExpr::Zero => Spnf::zero(),
        UExpr::One => Spnf::one(),
        UExpr::Add(a, b) => {
            let mut s = norm(a, gen, trace);
            s.terms.extend(norm(b, gen, trace).terms);
            s
        }
        UExpr::Mul(a, b) => {
            let sa = norm(a, gen, trace);
            let sb = norm(b, gen, trace);
            if sa.terms.len() > 1 || sb.terms.len() > 1 {
                trace.step(Lemma::Distrib, "distributing × over +");
            }
            let mut out = Spnf::zero();
            for ta in &sa.terms {
                for tb in &sb.terms {
                    let mut vars = ta.vars.clone();
                    vars.extend(tb.vars.iter().cloned());
                    if !ta.vars.is_empty() || !tb.vars.is_empty() {
                        trace.step(Lemma::SumHoist, "hoisting Σ out of ×");
                    }
                    let mut atoms = ta.atoms.clone();
                    atoms.extend(tb.atoms.iter().cloned());
                    if let Some(t) = simplify_term(vars, atoms, gen, trace) {
                        out.terms.push(t);
                    }
                }
            }
            out
        }
        UExpr::Sum(v, body) => {
            let nb = norm(body, gen, trace);
            if nb.terms.len() > 1 {
                trace.step(Lemma::SumAdd, "distributing Σ over +");
            }
            let mut out = Spnf::zero();
            for (i, t) in nb.terms.iter().enumerate() {
                // Each summand gets its own copy of the binder; α-rename
                // all but the first to keep binder ids unique.
                let (binder, term) = if i == 0 {
                    (v.clone(), t.clone())
                } else {
                    trace.step(Lemma::AlphaRename, "fresh binder per summand");
                    let fresh = gen.fresh(v.schema.clone());
                    (fresh.clone(), term_subst(t, v, &Term::var(&fresh)))
                };
                let mut vars = term.vars.clone();
                let mut atoms = term.atoms.clone();
                push_binder_split(binder, &mut vars, &mut atoms, gen, trace);
                if let Some(t) = simplify_term(vars, atoms, gen, trace) {
                    out.terms.push(t);
                }
            }
            out
        }
        UExpr::Not(a) => {
            let na = norm(a, gen, trace);
            atoms_to_spnf(not_spnf(na, trace), gen, trace)
        }
        UExpr::Squash(a) => {
            let na = norm(a, gen, trace);
            atoms_to_spnf(squash_spnf(na, trace), gen, trace)
        }
        UExpr::Eq(a, b) => match norm_eq(a.clone(), b.clone(), gen, trace) {
            EqSimp::True => Spnf::one(),
            EqSimp::False => Spnf::zero(),
            EqSimp::Atoms(atoms) => atoms_to_spnf(Some(atoms), gen, trace),
        },
        UExpr::Rel(r, t) => {
            let atoms = vec![Atom::Rel(r.clone(), norm_term(t, gen, trace))];
            atoms_to_spnf(Some(atoms), gen, trace)
        }
        UExpr::Pred(p, t) => {
            let atoms = vec![Atom::Pred(p.clone(), norm_term(t, gen, trace))];
            atoms_to_spnf(Some(atoms), gen, trace)
        }
    }
}

/// Converts an optional atom list (None = the whole product is `0`) into
/// a one-term normal form.
fn atoms_to_spnf(atoms: Option<Vec<Atom>>, gen: &mut VarGen, trace: &mut Trace) -> Spnf {
    match atoms {
        None => Spnf::zero(),
        Some(atoms) => match simplify_term(Vec::new(), atoms, gen, trace) {
            None => Spnf::zero(),
            Some(t) => Spnf { terms: vec![t] },
        },
    }
}

/// Normalizes a tuple term: β/η plus recursive normalization of aggregate
/// bodies (reified back to a canonical expression).
fn norm_term(t: &Term, gen: &mut VarGen, trace: &mut Trace) -> Term {
    let t = t.beta_reduce();
    match t {
        Term::Agg(name, v, body) => {
            let nb = norm(&body.beta_reduce_terms(), gen, trace);
            Term::Agg(name, v, Box::new(nb.reify()))
        }
        Term::Pair(a, b) => Term::pair(norm_term(&a, gen, trace), norm_term(&b, gen, trace)),
        Term::Fst(x) => Term::fst(norm_term(&x, gen, trace)),
        Term::Snd(x) => Term::snd(norm_term(&x, gen, trace)),
        Term::Fn(f, args) => Term::Fn(f, args.iter().map(|a| norm_term(a, gen, trace)).collect()),
        other => other,
    }
    .beta_reduce()
}

/// Normalizes the equality `a = b` into atoms (pair-splitting, constant
/// folding, canonical orientation). Returns `None` when the equality is
/// refutable (`0`), and `Some(vec![])` when it is trivially true (`1`).
/// Used by the axiom-saturation pass.
pub(crate) fn eq_atoms(
    a: &Term,
    b: &Term,
    gen: &mut VarGen,
    trace: &mut Trace,
) -> Option<Vec<Atom>> {
    match norm_eq(a.clone(), b.clone(), gen, trace) {
        EqSimp::True => Some(Vec::new()),
        EqSimp::False => None,
        EqSimp::Atoms(atoms) => Some(atoms),
    }
}

/// Result of normalizing an equality.
enum EqSimp {
    True,
    False,
    Atoms(Vec<Atom>),
}

/// Normalizes `a = b`: β/η, reflexivity, constant comparison, and
/// component-wise splitting of pair equalities (valid because tuple types
/// are sets — their identity types are propositions that decompose
/// componentwise).
fn norm_eq(a: Term, b: Term, gen: &mut VarGen, trace: &mut Trace) -> EqSimp {
    let a = norm_term(&a, gen, trace);
    let b = norm_term(&b, gen, trace);
    if a == b {
        trace.step(Lemma::EqRefl, format!("({a} = {a}) ↦ 1"));
        return EqSimp::True;
    }
    if let (Term::Const(x), Term::Const(y)) = (&a, &b) {
        if x != y {
            trace.step(Lemma::EqConstNeq, format!("({a} = {b}) ↦ 0"));
            return EqSimp::False;
        }
    }
    // Unit-schema equality is trivially true.
    if a.schema() == Some(Schema::Empty) && b.schema() == Some(Schema::Empty) {
        trace.step(Lemma::EqRefl, "unit tuples are equal");
        return EqSimp::True;
    }
    // Split equalities at product schemas into components.
    let node_schema = match (a.schema(), b.schema()) {
        (Some(Schema::Node(_, _)), _) | (_, Some(Schema::Node(_, _))) => true,
        _ => matches!((&a, &b), (Term::Pair(_, _), _) | (_, Term::Pair(_, _))),
    };
    if node_schema {
        trace.step(Lemma::EqPairSplit, format!("splitting ({a} = {b})"));
        let a1 = Term::fst(a.clone()).beta_reduce();
        let a2 = Term::snd(a.clone()).beta_reduce();
        let b1 = Term::fst(b.clone()).beta_reduce();
        let b2 = Term::snd(b.clone()).beta_reduce();
        let first = norm_eq(a1, b1, gen, trace);
        let second = norm_eq(a2, b2, gen, trace);
        return match (first, second) {
            (EqSimp::False, _) | (_, EqSimp::False) => EqSimp::False,
            (EqSimp::True, x) | (x, EqSimp::True) => x,
            (EqSimp::Atoms(mut xs), EqSimp::Atoms(ys)) => {
                xs.extend(ys);
                EqSimp::Atoms(xs)
            }
        };
    }
    // Canonical orientation (EqSym).
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    EqSimp::Atoms(vec![Atom::Eq(lo, hi)])
}

/// Splits a binder until all bound variables have leaf schemas
/// (Lemma 5.1), substituting into the atom list.
fn push_binder_split(
    v: Var,
    vars: &mut Vec<Var>,
    atoms: &mut Vec<Atom>,
    gen: &mut VarGen,
    trace: &mut Trace,
) {
    match v.schema.clone() {
        Schema::Empty => {
            trace.step(Lemma::SumPairSplit, "Σ over unit domain");
            let unit = Term::Unit;
            subst_atoms(atoms, &v, &unit, gen, trace);
        }
        Schema::Leaf(_) => vars.push(v),
        Schema::Node(l, r) => {
            trace.step(
                Lemma::SumPairSplit,
                format!("splitting Σ{} over {}", v.name(), v.schema),
            );
            let v1 = gen.fresh(*l);
            let v2 = gen.fresh(*r);
            let repl = Term::pair(Term::var(&v1), Term::var(&v2));
            subst_atoms(atoms, &v, &repl, gen, trace);
            push_binder_split(v1, vars, atoms, gen, trace);
            push_binder_split(v2, vars, atoms, gen, trace);
        }
    }
}

/// Substitutes `var := repl` in every atom, re-normalizing equalities
/// (substitution can expose reflexivity or constant clashes — those are
/// rewritten to `1`/`0` later by `simplify_term`, encoded here as
/// equalities against a sentinel; instead we perform eager resimplification
/// by rebuilding the atom list).
fn subst_atoms(atoms: &mut Vec<Atom>, var: &Var, repl: &Term, gen: &mut VarGen, trace: &mut Trace) {
    let old = std::mem::take(atoms);
    for a in old {
        match atom_subst(a, var, repl, gen, trace) {
            AtomSimp::One => {}
            AtomSimp::Zero => {
                // Mark the whole product as zero with an impossible atom.
                atoms.clear();
                atoms.push(zero_atom());
                return;
            }
            AtomSimp::Atoms(mut new_atoms) => atoms.append(&mut new_atoms),
        }
    }
}

/// The canonical "impossible" atom used internally to mark a dead product
/// during in-place rewriting; `simplify_term` turns it into term removal.
fn zero_atom() -> Atom {
    Atom::Eq(Term::int(0), Term::int(1))
}

fn is_zero_atom(a: &Atom) -> bool {
    match a {
        Atom::Eq(Term::Const(x), Term::Const(y)) => x != y,
        _ => false,
    }
}

/// Result of simplifying a single atom.
enum AtomSimp {
    /// The atom reduced to `1` (drop it).
    One,
    /// The atom reduced to `0` (kill the product).
    Zero,
    /// Replacement atoms.
    Atoms(Vec<Atom>),
}

fn atom_subst(a: Atom, var: &Var, repl: &Term, gen: &mut VarGen, trace: &mut Trace) -> AtomSimp {
    match a {
        Atom::Rel(r, t) => AtomSimp::Atoms(vec![Atom::Rel(
            r,
            norm_term(&t.subst(var, repl), gen, trace),
        )]),
        Atom::Pred(p, t) => AtomSimp::Atoms(vec![Atom::Pred(
            p,
            norm_term(&t.subst(var, repl), gen, trace),
        )]),
        Atom::Eq(x, y) => match norm_eq(x.subst(var, repl), y.subst(var, repl), gen, trace) {
            EqSimp::True => AtomSimp::One,
            EqSimp::False => AtomSimp::Zero,
            EqSimp::Atoms(atoms) => AtomSimp::Atoms(atoms),
        },
        Atom::Not(s) => {
            let s2 = spnf_subst(&s, var, repl, gen, trace);
            match not_spnf(s2, trace) {
                None => AtomSimp::Zero,
                Some(atoms) if atoms.is_empty() => AtomSimp::One,
                Some(atoms) => AtomSimp::Atoms(atoms),
            }
        }
        Atom::Squash(s) => {
            let s2 = spnf_subst(&s, var, repl, gen, trace);
            match squash_spnf(s2, trace) {
                None => AtomSimp::Zero,
                Some(atoms) if atoms.is_empty() => AtomSimp::One,
                Some(atoms) => AtomSimp::Atoms(atoms),
            }
        }
    }
}

/// Substitution inside a nested normal form, with per-term
/// resimplification.
fn spnf_subst(s: &Spnf, var: &Var, repl: &Term, gen: &mut VarGen, trace: &mut Trace) -> Spnf {
    let mut out = Spnf::zero();
    for t in &s.terms {
        let nt = term_subst(t, var, repl);
        if let Some(simplified) = simplify_term(nt.vars, nt.atoms, gen, trace) {
            out.terms.push(simplified);
        }
    }
    out
}

/// Raw (no-resimplification) substitution on a single atom; used for
/// α-renaming and by the deductive prover's witness instantiation.
pub(crate) fn atom_subst_raw(a: &Atom, var: &Var, repl: &Term) -> Atom {
    match a {
        Atom::Rel(r, t) => Atom::Rel(r.clone(), t.subst(var, repl).beta_reduce()),
        Atom::Pred(p, t) => Atom::Pred(p.clone(), t.subst(var, repl).beta_reduce()),
        Atom::Eq(x, y) => Atom::Eq(
            x.subst(var, repl).beta_reduce(),
            y.subst(var, repl).beta_reduce(),
        ),
        Atom::Not(s) => Atom::Not(spnf_subst_raw(s, var, repl)),
        Atom::Squash(s) => Atom::Squash(spnf_subst_raw(s, var, repl)),
    }
}

fn spnf_subst_raw(s: &Spnf, var: &Var, repl: &Term) -> Spnf {
    Spnf {
        terms: s.terms.iter().map(|t| term_subst(t, var, repl)).collect(),
    }
}

/// Raw (no-resimplification) substitution in a term, used for α-renaming.
pub(crate) fn term_subst(t: &SpnfTerm, var: &Var, repl: &Term) -> SpnfTerm {
    SpnfTerm {
        vars: t.vars.clone(),
        atoms: t
            .atoms
            .iter()
            .map(|a| atom_subst_raw(a, var, repl))
            .collect(),
    }
}

/// Negation of a normal form, returning the atoms of the resulting
/// product (`None` = `0`, empty vec = `1`).
fn not_spnf(s: Spnf, trace: &mut Trace) -> Option<Vec<Atom>> {
    if s.terms.is_empty() {
        trace.step(Lemma::NotBase, "¬0 = 1");
        return Some(Vec::new());
    }
    if s.terms.iter().any(SpnfTerm::is_trivially_inhabited) {
        trace.step(Lemma::NotBase, "¬(inhabited) = 0");
        return None;
    }
    if s.terms.len() > 1 {
        trace.step(Lemma::NotAdd, "¬(a + b) = ¬a × ¬b");
    }
    let mut out = Vec::new();
    for t in s.terms {
        // ¬‖x‖ = ¬x and ¬¬x = ‖x‖ on single-atom propositions.
        if t.vars.is_empty() && t.atoms.len() == 1 {
            match &t.atoms[0] {
                Atom::Squash(inner) => {
                    trace.step(Lemma::NotSquash, "¬‖x‖ = ¬x");
                    match not_spnf(inner.clone(), trace) {
                        None => return None,
                        Some(atoms) => {
                            out.extend(atoms);
                            continue;
                        }
                    }
                }
                Atom::Not(inner) => {
                    trace.step(Lemma::NotBase, "¬¬x = ‖x‖");
                    match squash_spnf(inner.clone(), trace) {
                        None => return None,
                        Some(atoms) => {
                            out.extend(atoms);
                            continue;
                        }
                    }
                }
                _ => {}
            }
        }
        out.push(Atom::Not(Spnf { terms: vec![t] }));
    }
    Some(out)
}

/// Squash of a normal form, returning the atoms of the resulting product
/// (`None` = `0`, empty vec = `1`).
fn squash_spnf(s: Spnf, trace: &mut Trace) -> Option<Vec<Atom>> {
    if s.terms.is_empty() {
        trace.step(Lemma::SquashBase, "‖0‖ = 0");
        return None;
    }
    if s.terms.iter().any(SpnfTerm::is_trivially_inhabited) {
        trace.step(Lemma::SquashBase, "‖inhabited‖ = 1");
        return Some(Vec::new());
    }
    // Dedup atoms within each summand: ‖n × n‖ = ‖n‖.
    let mut terms: Vec<SpnfTerm> = s
        .terms
        .into_iter()
        .map(|mut t| {
            let before = t.atoms.len();
            t.sort_atoms();
            t.atoms.dedup();
            if t.atoms.len() != before {
                trace.step(Lemma::SquashDedup, "dedup under ‖·‖");
            }
            t
        })
        .collect();
    // Dedup identical summands: ‖n + n‖ = ‖n‖.
    terms.sort();
    let before = terms.len();
    terms.dedup();
    if terms.len() != before {
        trace.step(Lemma::SquashDedup, "dedup summands under ‖·‖");
    }
    if terms.len() == 1 {
        let t = terms.pop().expect("one term");
        if t.vars.is_empty() {
            // ‖a × b‖ = ‖a‖ × ‖b‖: squash each factor independently.
            trace.step(Lemma::SquashMul, "splitting ‖·‖ over ×");
            let mut out = Vec::new();
            for a in t.atoms {
                if a.is_prop() {
                    trace.step(Lemma::SquashProp, "‖prop‖ = prop");
                    out.push(a);
                } else {
                    out.push(Atom::Squash(Spnf {
                        terms: vec![SpnfTerm {
                            vars: Vec::new(),
                            atoms: vec![a],
                        }],
                    }));
                }
            }
            return Some(out);
        }
        return Some(vec![Atom::Squash(Spnf { terms: vec![t] })]);
    }
    Some(vec![Atom::Squash(Spnf { terms })])
}

/// Simplifies a product: drops `1`s, kills the term on `0` atoms or on a
/// contradiction `A × ¬A`, runs singleton-sum elimination to a fixpoint,
/// and sorts. Returns `None` when the product is `0`.
pub(crate) fn simplify_term(
    mut vars: Vec<Var>,
    mut atoms: Vec<Atom>,
    gen: &mut VarGen,
    trace: &mut Trace,
) -> Option<SpnfTerm> {
    loop {
        if atoms.iter().any(is_zero_atom) {
            trace.step(Lemma::MulZero, "product contains 0");
            return None;
        }
        // Contradiction: both A and ¬A in the product.
        for a in &atoms {
            if let Atom::Not(inner) = a {
                if inner.terms.len() == 1 && inner.terms[0].vars.is_empty() {
                    let negated = &inner.terms[0].atoms;
                    if negated.len() == 1 && atoms.contains(&negated[0]) {
                        trace.step(Lemma::MulZero, "A × ¬A = 0");
                        return None;
                    }
                }
            }
        }
        // Singleton-sum elimination (Lemma 5.2).
        let mut eliminated = false;
        'outer: for vi in 0..vars.len() {
            let v = vars[vi].clone();
            for ai in 0..atoms.len() {
                if let Atom::Eq(x, y) = &atoms[ai] {
                    let repl = if *x == Term::Var(v.clone()) && !y.free_vars().contains(&v) {
                        Some(y.clone())
                    } else if *y == Term::Var(v.clone()) && !x.free_vars().contains(&v) {
                        Some(x.clone())
                    } else {
                        None
                    };
                    if let Some(repl) = repl {
                        trace.step(
                            Lemma::SumSingleton,
                            format!("Σ{} eliminated by {} := {repl}", v.name(), v.name()),
                        );
                        atoms.remove(ai);
                        vars.remove(vi);
                        subst_atoms(&mut atoms, &v, &repl, gen, trace);
                        eliminated = true;
                        break 'outer;
                    }
                }
            }
        }
        if !eliminated {
            break;
        }
    }
    let mut t = SpnfTerm { vars, atoms };
    t.sort_atoms();
    Some(t)
}

/// Unused: the normalizer keeps no state. Kept, empty, only because the
/// `perfbench/` harness still names it; the next change to that harness
/// deletes it.
#[derive(Clone, Debug, Default)]
pub struct NormCache;

impl NormCache {
    /// The (stateless) cache.
    pub fn new() -> NormCache {
        NormCache
    }
}

/// Unused: exactly [`normalize`]; `cache` is ignored. Kept only because
/// the `perfbench/` harness still calls it.
pub fn normalize_with_cache(
    e: &UExpr,
    gen: &mut VarGen,
    trace: &mut Trace,
    _cache: &mut NormCache,
) -> Spnf {
    normalize(e, gen, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::BaseType;

    fn leaf_int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    fn setup() -> (VarGen, Trace) {
        (VarGen::new(), Trace::new())
    }

    #[test]
    fn constants_normalize() {
        let (mut g, mut tr) = setup();
        assert!(normalize(&UExpr::Zero, &mut g, &mut tr).is_zero());
        assert_eq!(normalize(&UExpr::One, &mut g, &mut tr), Spnf::one());
        assert!(normalize(&UExpr::mul(UExpr::One, UExpr::Zero), &mut g, &mut tr).is_zero());
        assert_eq!(
            normalize(&UExpr::add(UExpr::Zero, UExpr::One), &mut g, &mut tr),
            Spnf::one()
        );
    }

    #[test]
    fn fig1_distributivity() {
        // (R t + S t) × b t  normalizes to the same form as
        // R t × b t + S t × b t.
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let s = UExpr::rel("S", Term::var(&t));
        let b = UExpr::pred("b", Term::var(&t));
        let lhs = UExpr::mul(UExpr::add(r.clone(), s.clone()), b.clone());
        let rhs = UExpr::add(UExpr::mul(r, b.clone()), UExpr::mul(s, b));
        let nl = normalize(&lhs, &mut g, &mut tr);
        let nr = normalize(&rhs, &mut g, &mut tr);
        assert_eq!(nl, nr);
        assert_eq!(nl.terms.len(), 2);
    }

    #[test]
    fn eq_refl_vanishes() {
        let (mut g, mut tr) = setup();
        let v = g.fresh(leaf_int());
        let e = UExpr::eq(Term::var(&v), Term::var(&v));
        assert_eq!(normalize(&e, &mut g, &mut tr), Spnf::one());
    }

    #[test]
    fn eq_distinct_constants_vanish() {
        let (mut g, mut tr) = setup();
        let e = UExpr::eq(Term::int(1), Term::int(2));
        assert!(normalize(&e, &mut g, &mut tr).is_zero());
        let e = UExpr::eq(Term::int(3), Term::int(3));
        assert_eq!(normalize(&e, &mut g, &mut tr), Spnf::one());
    }

    #[test]
    fn eq_pair_splits() {
        let (mut g, mut tr) = setup();
        let a = g.fresh(leaf_int());
        let b = g.fresh(leaf_int());
        let e = UExpr::eq(
            Term::pair(Term::var(&a), Term::int(1)),
            Term::pair(Term::var(&b), Term::int(1)),
        );
        let n = normalize(&e, &mut g, &mut tr);
        assert_eq!(n.terms.len(), 1);
        assert_eq!(n.terms[0].atoms.len(), 1, "{n}");
        assert!(matches!(&n.terms[0].atoms[0], Atom::Eq(_, _)));
    }

    #[test]
    fn eq_orientation_is_canonical() {
        let (mut g, mut tr) = setup();
        let a = g.fresh(leaf_int());
        let b = g.fresh(leaf_int());
        let e1 = UExpr::eq(Term::var(&a), Term::var(&b));
        let e2 = UExpr::eq(Term::var(&b), Term::var(&a));
        assert_eq!(
            normalize(&e1, &mut g, &mut tr),
            normalize(&e2, &mut g, &mut tr)
        );
    }

    #[test]
    fn singleton_sum_eliminates() {
        // Σx. (x = 3) × R(x)  =  R(3)   (Lemma 5.2)
        let (mut g, mut tr) = setup();
        let x = g.fresh(leaf_int());
        let e = UExpr::sum(
            x.clone(),
            UExpr::mul(
                UExpr::eq(Term::var(&x), Term::int(3)),
                UExpr::rel("R", Term::var(&x)),
            ),
        );
        let n = normalize(&e, &mut g, &mut tr);
        assert_eq!(n.terms.len(), 1);
        assert!(n.terms[0].vars.is_empty(), "{n}");
        assert_eq!(n.terms[0].atoms, vec![Atom::Rel("R".into(), Term::int(3))]);
    }

    #[test]
    fn pair_sum_splits() {
        // Σx:(int × int). R(x)  becomes  Σx1,x2. R((x1,x2))  (Lemma 5.1);
        // a flat schema of width w splits into w leaf binders.
        let wide = |w| Schema::flat(std::iter::repeat_n(BaseType::Int, w));
        for (schema, width) in [
            (Schema::node(leaf_int(), leaf_int()), 2),
            (wide(4), 4),
            (wide(8), 8),
            (wide(16), 16),
        ] {
            let (mut g, mut tr) = setup();
            let x = g.fresh(schema);
            let e = UExpr::sum(x.clone(), UExpr::rel("R", Term::var(&x)));
            let n = normalize(&e, &mut g, &mut tr);
            assert_eq!(n.terms.len(), 1);
            assert_eq!(n.terms[0].vars.len(), width, "{n}");
            for v in &n.terms[0].vars {
                assert!(matches!(v.schema, Schema::Leaf(_)));
            }
        }
    }

    #[test]
    fn sum_over_unit_domain_disappears() {
        let (mut g, mut tr) = setup();
        let x = g.fresh(Schema::Empty);
        let e = UExpr::sum(x.clone(), UExpr::rel("R", Term::var(&x)));
        let n = normalize(&e, &mut g, &mut tr);
        assert_eq!(n.terms.len(), 1);
        assert!(n.terms[0].vars.is_empty());
        assert_eq!(n.terms[0].atoms, vec![Atom::Rel("R".into(), Term::Unit)]);
    }

    #[test]
    fn squash_laws() {
        let (mut g, mut tr) = setup();
        assert!(normalize(&UExpr::squash(UExpr::Zero), &mut g, &mut tr).is_zero());
        assert_eq!(
            normalize(&UExpr::squash(UExpr::One), &mut g, &mut tr),
            Spnf::one()
        );
        // ‖R(t) × R(t)‖ = ‖R(t)‖
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let lhs = UExpr::squash(UExpr::mul(r.clone(), r.clone()));
        let rhs = UExpr::squash(r);
        assert_eq!(
            normalize(&lhs, &mut g, &mut tr),
            normalize(&rhs, &mut g, &mut tr)
        );
    }

    #[test]
    fn squash_of_squash_collapses() {
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let once = UExpr::squash(r.clone());
        let twice = UExpr::squash(UExpr::squash(r));
        assert_eq!(
            normalize(&once, &mut g, &mut tr),
            normalize(&twice, &mut g, &mut tr)
        );
    }

    #[test]
    fn squash_of_prop_is_identity() {
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let p = UExpr::pred("b", Term::var(&t));
        assert_eq!(
            normalize(&UExpr::squash(p.clone()), &mut g, &mut tr),
            normalize(&p, &mut g, &mut tr)
        );
    }

    #[test]
    fn negation_laws() {
        let (mut g, mut tr) = setup();
        assert_eq!(
            normalize(&UExpr::not(UExpr::Zero), &mut g, &mut tr),
            Spnf::one()
        );
        assert!(normalize(&UExpr::not(UExpr::One), &mut g, &mut tr).is_zero());
        // ¬¬¬x = ¬x
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let n1 = UExpr::not(r.clone());
        let n3 = UExpr::not(UExpr::not(UExpr::not(r)));
        assert_eq!(
            normalize(&n1, &mut g, &mut tr),
            normalize(&n3, &mut g, &mut tr)
        );
    }

    #[test]
    fn double_negation_is_squash() {
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let nn = UExpr::not(UExpr::not(r.clone()));
        let sq = UExpr::squash(r);
        assert_eq!(
            normalize(&nn, &mut g, &mut tr),
            normalize(&sq, &mut g, &mut tr)
        );
    }

    #[test]
    fn not_distributes_over_add() {
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let s = UExpr::rel("S", Term::var(&t));
        let lhs = UExpr::not(UExpr::add(r.clone(), s.clone()));
        let rhs = UExpr::mul(UExpr::not(r), UExpr::not(s));
        assert_eq!(
            normalize(&lhs, &mut g, &mut tr),
            normalize(&rhs, &mut g, &mut tr)
        );
    }

    #[test]
    fn contradiction_is_zero() {
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let p = UExpr::pred("b", Term::var(&t));
        let e = UExpr::mul(p.clone(), UExpr::not(p));
        assert!(normalize(&e, &mut g, &mut tr).is_zero());
    }

    #[test]
    fn cloned_subtrees_get_distinct_binders() {
        let (mut g, mut tr) = setup();
        let x = g.fresh(leaf_int());
        let q = UExpr::sum(x.clone(), UExpr::rel("R", Term::var(&x)));
        // q × q with shared binder ids must not confuse the normalizer.
        let e = UExpr::mul(q.clone(), q);
        let n = normalize(&e, &mut g, &mut tr);
        assert_eq!(n.terms.len(), 1);
        assert_eq!(n.terms[0].vars.len(), 2);
        let ids: BTreeSet<u32> = n.terms[0].vars.iter().map(|v| v.id).collect();
        assert_eq!(ids.len(), 2, "binders must be distinct: {n}");
    }

    #[test]
    fn mul_is_commutative_after_normalization() {
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let b = UExpr::pred("b", Term::var(&t));
        let lhs = UExpr::mul(r.clone(), b.clone());
        let rhs = UExpr::mul(b, r);
        assert_eq!(
            normalize(&lhs, &mut g, &mut tr),
            normalize(&rhs, &mut g, &mut tr)
        );
    }

    #[test]
    fn selection_pushdown_shape() {
        // Sec 5.1.1: b1(g,t) × b2(g,t) × R(t)  vs  b2(g,t) × (b1(g,t) × R(t))
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let b1 = UExpr::pred("b1", Term::var(&t));
        let b2 = UExpr::pred("b2", Term::var(&t));
        let r = UExpr::rel("R", Term::var(&t));
        let lhs = UExpr::mul(UExpr::mul(b1.clone(), b2.clone()), r.clone());
        let rhs = UExpr::mul(b2, UExpr::mul(b1, r));
        assert_eq!(
            normalize(&lhs, &mut g, &mut tr),
            normalize(&rhs, &mut g, &mut tr)
        );
    }

    #[test]
    fn reify_roundtrips() {
        let (mut g, mut tr) = setup();
        let x = g.fresh(Schema::node(leaf_int(), leaf_int()));
        let e = UExpr::sum(
            x.clone(),
            UExpr::mul(
                UExpr::rel("R", Term::var(&x)),
                UExpr::squash(UExpr::rel("S", Term::fst(Term::var(&x)))),
            ),
        );
        let n1 = normalize(&e, &mut g, &mut tr);
        let n2 = normalize(&n1.reify(), &mut g, &mut tr);
        // Round-tripping may rename binders, so compare modulo count/shape.
        assert_eq!(n1.terms.len(), n2.terms.len());
        assert_eq!(n1.terms[0].vars.len(), n2.terms[0].vars.len());
        assert_eq!(n1.terms[0].atoms.len(), n2.terms[0].atoms.len());
    }

    #[test]
    fn trace_records_lemmas() {
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let r = UExpr::rel("R", Term::var(&t));
        let s = UExpr::rel("S", Term::var(&t));
        let b = UExpr::pred("b", Term::var(&t));
        let lhs = UExpr::mul(UExpr::add(r, s), b);
        normalize(&lhs, &mut g, &mut tr);
        assert!(tr.steps().iter().any(|(l, _)| *l == Lemma::Distrib));
        let printed = tr.to_string();
        assert!(printed.contains("distributivity"), "{printed}");
    }

    #[test]
    fn exists_becomes_squash_atom() {
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let e = UExpr::squash(UExpr::sum(t.clone(), UExpr::rel("R", Term::var(&t))));
        let n = normalize(&e, &mut g, &mut tr);
        assert_eq!(n.terms.len(), 1);
        assert_eq!(n.terms[0].atoms.len(), 1);
        match &n.terms[0].atoms[0] {
            Atom::Squash(inner) => {
                assert_eq!(inner.terms.len(), 1);
                assert_eq!(inner.terms[0].vars.len(), 1);
            }
            other => panic!("expected squash atom, got {other}"),
        }
    }

    #[test]
    fn fig2_equational_core() {
        // ‖Σt1,t2. (t=a(t1)) × (a(t1)=a(t2)) × R(t1) × R(t2)‖ has, after
        // congruence-free normalization, the same support as
        // ‖Σt1. (t=a(t1)) × R(t1)‖ — full equivalence needs the deductive
        // prover; here we only check both normalize without panicking and
        // produce squash atoms.
        let (mut g, mut tr) = setup();
        let t = g.fresh(leaf_int());
        let t1 = g.fresh(leaf_int());
        let t2 = g.fresh(leaf_int());
        let a = |v: &Var| Term::func("a", vec![Term::var(v)]);
        let lhs = UExpr::squash(UExpr::sum(
            t1.clone(),
            UExpr::sum(
                t2.clone(),
                UExpr::product([
                    UExpr::eq(Term::var(&t), a(&t1)),
                    UExpr::eq(a(&t1), a(&t2)),
                    UExpr::rel("R", Term::var(&t1)),
                    UExpr::rel("R", Term::var(&t2)),
                ]),
            ),
        ));
        let n = normalize(&lhs, &mut g, &mut tr);
        assert_eq!(n.terms.len(), 1);
        assert!(matches!(n.terms[0].atoms[0], Atom::Squash(_)));
    }
}
