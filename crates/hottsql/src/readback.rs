//! Readback: from a UniNomial normal form back to a HoTTSQL query.
//!
//! The certified optimizer works on denotations — it saturates and
//! extracts [`UExpr`](uninomial::UExpr)s — but must ship *plans*, i.e. [`Query`] syntax.
//! This module inverts Fig. 7 on the sum-product normal forms
//! ([`Spnf`]) the pipeline produces:
//!
//! - a sum of terms reads back as `UNION ALL`;
//! - a squash reads back as `DISTINCT`;
//! - a `¬` factor reads back as `EXCEPT`;
//! - a binder-free product of relation atoms over projections of the
//!   output tuple reads back as `FROM` products with `WHERE` filters;
//! - a `Σ`-term whose product contains an output equation reads back as
//!   `SELECT` over a `FROM`/`WHERE` body, with repeated binder
//!   occurrences becoming join equalities.
//!
//! Readback is *partial*: shapes outside this fragment (correlated
//! `EXISTS` factors, aggregates, unsourced binders) return `None`, and
//! the optimizer falls back to the input plan. It does not need to be
//! inverse-exact either — the caller re-denotes the result and proves
//! it equal to the input, so any readback slip is caught by the
//! certificate, never shipped.

use crate::ast::{Expr, Predicate, Proj, Query};
use crate::env::QueryEnv;
use relalg::Schema;
use uninomial::normalize::{Atom, Spnf, SpnfTerm};
use uninomial::syntax::{Term, Var};

/// One step of a tuple path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// `.1`
    L,
    /// `.2`
    R,
}

fn proj_of_path(base: Proj, path: &[Step]) -> Proj {
    path.iter().fold(base, |acc, s| {
        Proj::dot(
            acc,
            match s {
                Step::L => Proj::Left,
                Step::R => Proj::Right,
            },
        )
    })
}

/// Reads a normal form back as a query over output variable `out`
/// (closed query, empty context): the result `q` satisfies
/// `⟦q⟧ () out = nf` up to provable equivalence. `None` outside the
/// supported fragment.
pub fn query_of_spnf(nf: &Spnf, out: &Var, env: &QueryEnv) -> Option<Query> {
    let mut branches = nf.terms.iter().map(|t| branch(t, out, env));
    let first = branches.next()??;
    branches.try_fold(first, |acc, b| Some(Query::union_all(acc, b?)))
}

fn branch(term: &SpnfTerm, out: &Var, env: &QueryEnv) -> Option<Query> {
    // DISTINCT: a lone squash factor.
    if term.vars.is_empty() && term.atoms.len() == 1 {
        if let Atom::Squash(inner) = &term.atoms[0] {
            return Some(Query::distinct(query_of_spnf(inner, out, env)?));
        }
    }
    // EXCEPT: exactly one ¬ factor next to an otherwise-readable term.
    if term.vars.is_empty() {
        let nots: Vec<usize> = term
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Atom::Not(_)))
            .map(|(i, _)| i)
            .collect();
        if let [i] = nots.as_slice() {
            let Atom::Not(inner) = &term.atoms[*i] else {
                unreachable!("filtered on Not");
            };
            let mut rest = term.clone();
            rest.atoms.remove(*i);
            let a = branch(&rest, out, env)?;
            let b = query_of_spnf(inner, out, env)?;
            return Some(Query::except(a, b));
        }
    }
    if term.vars.is_empty() {
        // Prefer the direct product form (`R`, `R, S`, `… WHERE b`);
        // fall back to a `SELECT` when atoms mix output paths with
        // other leaves (e.g. `R((t, 5))` after constant propagation).
        product_branch(term, out, env).or_else(|| select_branch(term, out, env))
    } else {
        select_branch(term, out, env)
    }
}

/// Binder-free branch: relation atoms over paths of `out` tile the
/// output schema into a `FROM` product; propositional factors become a
/// `WHERE`.
fn product_branch(term: &SpnfTerm, out: &Var, env: &QueryEnv) -> Option<Query> {
    let mut rels: Vec<(&str, Vec<Step>)> = Vec::new();
    let mut props: Vec<&Atom> = Vec::new();
    for a in &term.atoms {
        match a {
            Atom::Rel(r, t) => rels.push((r, out_path(t, out)?)),
            other => props.push(other),
        }
    }
    if rels.is_empty() {
        return None;
    }
    let from = tile(&out.schema, &rels, env)?;
    if props.is_empty() {
        return Some(from);
    }
    // WHERE context: node(empty, σ_out); `out` is reached by `Right`.
    let resolve = |v: &Var| (v == out).then_some(Proj::Right);
    let preds: Option<Vec<Predicate>> = props.iter().map(|a| pred_of_atom(a, &resolve)).collect();
    Some(Query::where_(from, Predicate::and_all(preds?)))
}

/// Recursively tiles an output-schema subtree with the relation atoms
/// whose paths lead into it.
fn tile(schema: &Schema, rels: &[(&str, Vec<Step>)], env: &QueryEnv) -> Option<Query> {
    if let [(name, path)] = rels {
        if path.is_empty() {
            return (env.table(name)? == schema).then(|| Query::table(*name));
        }
    }
    let (left, right) = match schema {
        Schema::Node(l, r) => (l, r),
        _ => return None,
    };
    let mut lefts = Vec::new();
    let mut rights = Vec::new();
    for (name, path) in rels {
        match path.split_first() {
            Some((Step::L, rest)) => lefts.push((*name, rest.to_vec())),
            Some((Step::R, rest)) => rights.push((*name, rest.to_vec())),
            None => return None, // a whole-tuple atom amid siblings
        }
    }
    Some(Query::product(
        tile(left, &lefts, env)?,
        tile(right, &rights, env)?,
    ))
}

/// The `.1`/`.2` path from `out` to this term, if it is such a path.
fn out_path(t: &Term, out: &Var) -> Option<Vec<Step>> {
    match t {
        Term::Var(v) if v == out => Some(Vec::new()),
        Term::Fst(x) => {
            let mut p = out_path(x, out)?;
            p.push(Step::L);
            Some(p)
        }
        Term::Snd(x) => {
            let mut p = out_path(x, out)?;
            p.push(Step::R);
            Some(p)
        }
        _ => None,
    }
}

/// A `Σ`-branch reads back as `SELECT … FROM R₁, … WHERE joins ∧
/// conditions`. The head is wherever the output variable is sourced:
/// either `out` occurs at a position inside a relation atom (the
/// normalizer substitutes projections into atoms), or an explicit
/// `(h = out)` equation provides the head term.
fn select_branch(term: &SpnfTerm, out: &Var, env: &QueryEnv) -> Option<Query> {
    // 1. Source variables (binders and the output) from relation atoms.
    let mut sources: Vec<Var> = term.vars.clone();
    sources.push(out.clone());
    let mut tables: Vec<&str> = Vec::new();
    let mut occurrences: Vec<(Var, Slot)> = Vec::new();
    let mut deferred: Vec<(Slot, Term)> = Vec::new();
    let mut props: Vec<&Atom> = Vec::new();
    for a in &term.atoms {
        match a {
            Atom::Rel(r, arg) => {
                let schema = env.table(r)?;
                let slot = tables.len();
                tables.push(r);
                let base = Vec::new();
                pattern(
                    arg,
                    schema,
                    &sources,
                    slot,
                    &base,
                    &mut occurrences,
                    &mut deferred,
                )?;
            }
            other => props.push(other),
        }
    }
    if tables.is_empty() {
        return None;
    }
    // 2. The head: the sourced position of `out`, or an explicit
    //    `(h = out)` equation among the propositional factors.
    let out_sourced = occurrences.iter().any(|(v, _)| v == out);
    let mut head_owned: Option<Term> = None;
    if out_sourced {
        head_owned = Some(Term::Var(out.clone()));
    } else {
        let mut keep: Vec<&Atom> = Vec::new();
        for a in props {
            if head_owned.is_none() {
                if let Atom::Eq(x, y) = a {
                    let candidate = if *x == Term::Var(out.clone()) {
                        Some(y)
                    } else if *y == Term::Var(out.clone()) {
                        Some(x)
                    } else {
                        None
                    };
                    if let Some(h) = candidate {
                        if !h.free_vars().contains(out) {
                            head_owned = Some(h.clone());
                            continue;
                        }
                    }
                }
            }
            keep.push(a);
        }
        props = keep;
    }
    let head = head_owned?;
    // Left-associated FROM product: table slot `i` of `n` sits under
    // `n-1-i` `Left` steps, then one `Right` unless it is the first.
    let n = tables.len();
    let full_path = |s: &Slot| -> Vec<Step> {
        let mut p = vec![Step::L; n - 1 - s.table];
        if s.table > 0 {
            p.push(Step::R);
        }
        p.extend_from_slice(&s.path);
        p
    };
    // Every binder needs at least one source occurrence; the output
    // variable joins them when it was sourced from an atom.
    let mut rep: Vec<(Var, Vec<Step>)> = Vec::new();
    for v in &term.vars {
        let path = occurrences
            .iter()
            .find(|(w, _)| w == v)
            .map(|(_, s)| full_path(s))?;
        rep.push((v.clone(), path));
    }
    if out_sourced {
        let path = occurrences
            .iter()
            .find(|(w, _)| w == out)
            .map(|(_, s)| full_path(s))?;
        rep.push((out.clone(), path));
    }
    let resolve = |v: &Var| -> Option<Proj> {
        rep.iter()
            .find(|(w, _)| w == v)
            .map(|(_, p)| proj_of_path(Proj::Right, p))
    };
    let mut preds: Vec<Predicate> = Vec::new();
    // Join equalities for repeated occurrences.
    for (v, slot) in &occurrences {
        let path = full_path(slot);
        let rep_path = &rep.iter().find(|(w, _)| w == v).expect("binder sourced").1;
        if &path != rep_path {
            preds.push(Predicate::eq(
                Expr::p2e(proj_of_path(Proj::Right, rep_path)),
                Expr::p2e(proj_of_path(Proj::Right, &path)),
            ));
        }
    }
    // Constraints from non-variable pattern leaves.
    for (slot, t) in &deferred {
        preds.push(Predicate::eq(
            Expr::p2e(proj_of_path(Proj::Right, &full_path(slot))),
            expr_of_term(t, &resolve)?,
        ));
    }
    // Remaining propositional factors.
    for a in &props {
        preds.push(pred_of_atom(a, &resolve)?);
    }
    let from = Query::product_all(tables.iter().map(|t| Query::table(*t)));
    let body = if preds.is_empty() {
        from
    } else {
        Query::where_(from, Predicate::and_all(preds))
    };
    let head_proj = proj_of_term(&head, &resolve)?;
    Some(Query::select(head_proj, body))
}

/// A position inside the FROM product: which table, and the path within
/// that table's tuple.
#[derive(Clone, Debug)]
struct Slot {
    table: usize,
    path: Vec<Step>,
}

/// Matches a relation-atom argument against the table schema: `Pair`
/// structure follows `Node` structure, binder variables record
/// occurrences, anything else records a deferred equality constraint.
fn pattern(
    arg: &Term,
    schema: &Schema,
    binders: &[Var],
    table: usize,
    path: &[Step],
    occurrences: &mut Vec<(Var, Slot)>,
    deferred: &mut Vec<(Slot, Term)>,
) -> Option<()> {
    let slot = || Slot {
        table,
        path: path.to_vec(),
    };
    match (arg, schema) {
        (Term::Var(v), s) if binders.contains(v) => {
            if v.schema != *s {
                return None;
            }
            occurrences.push((v.clone(), slot()));
            Some(())
        }
        (Term::Pair(a, b), Schema::Node(l, r)) => {
            let mut pl = path.to_vec();
            pl.push(Step::L);
            pattern(a, l, binders, table, &pl, occurrences, deferred)?;
            let mut pr = path.to_vec();
            pr.push(Step::R);
            pattern(b, r, binders, table, &pr, occurrences, deferred)
        }
        (Term::Unit, Schema::Empty) => Some(()),
        (other, _) => {
            // A non-variable leaf: the column must equal this term.
            if other.free_vars().iter().any(|v| !binders.contains(v)) {
                return None;
            }
            deferred.push((slot(), other.clone()));
            Some(())
        }
    }
}

/// Converts a propositional atom into a predicate under the variable
/// resolver.
fn pred_of_atom(a: &Atom, resolve: &dyn Fn(&Var) -> Option<Proj>) -> Option<Predicate> {
    match a {
        Atom::Eq(x, y) => Some(Predicate::eq(
            expr_of_term(x, resolve)?,
            expr_of_term(y, resolve)?,
        )),
        Atom::Pred(name, t) => Some(Predicate::cast(
            proj_of_term(t, resolve)?,
            Predicate::var(name.clone()),
        )),
        Atom::Rel(_, _) | Atom::Not(_) | Atom::Squash(_) => None,
    }
}

/// Converts a tuple term into a projection under the variable resolver.
fn proj_of_term(t: &Term, resolve: &dyn Fn(&Var) -> Option<Proj>) -> Option<Proj> {
    match t {
        Term::Var(v) => resolve(v),
        Term::Unit => Some(Proj::Empty),
        Term::Const(c) => Some(Proj::e2p(Expr::Const(c.clone()))),
        Term::Pair(a, b) => Some(Proj::pair(
            proj_of_term(a, resolve)?,
            proj_of_term(b, resolve)?,
        )),
        Term::Fst(x) => Some(Proj::dot(proj_of_term(x, resolve)?, Proj::Left)),
        Term::Snd(x) => Some(Proj::dot(proj_of_term(x, resolve)?, Proj::Right)),
        Term::Fn(_, _) => Some(Proj::e2p(expr_of_term(t, resolve)?)),
        Term::Agg(_, _, _) => None,
    }
}

/// Converts a tuple term into a scalar expression under the resolver.
fn expr_of_term(t: &Term, resolve: &dyn Fn(&Var) -> Option<Proj>) -> Option<Expr> {
    match t {
        Term::Const(c) => Some(Expr::Const(c.clone())),
        Term::Fn(f, args) => {
            let args: Option<Vec<Expr>> = args.iter().map(|a| expr_of_term(a, resolve)).collect();
            Some(Expr::func(f.clone(), args?))
        }
        other => Some(Expr::p2e(proj_of_term(other, resolve)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denote::denote_closed_query;
    use crate::parse::parse_query;
    use relalg::BaseType;
    use uninomial::normalize::{normalize, Trace};
    use uninomial::syntax::VarGen;

    fn env() -> QueryEnv {
        QueryEnv::new()
            .with_table("R", Schema::flat([BaseType::Int, BaseType::Int]))
            .with_table("S", Schema::flat([BaseType::Int, BaseType::Int]))
    }

    /// Denote → normalize → read back → re-denote must be provably
    /// equal to the original denotation.
    fn roundtrips(sql: &str) {
        let env = env();
        let q = parse_query(sql).unwrap();
        let mut gen = VarGen::new();
        let (t, e) = denote_closed_query(&q, &env, &mut gen).unwrap();
        let mut tr = Trace::new();
        let nf = normalize(&e, &mut gen, &mut tr);
        let q2 = query_of_spnf(&nf, &t, &env)
            .unwrap_or_else(|| panic!("readback failed for {sql}: {nf}"));
        // Schemas agree…
        let s1 = crate::ty::infer_query(&q, &env, &Schema::Empty).unwrap();
        let s2 = crate::ty::infer_query(&q2, &env, &Schema::Empty)
            .unwrap_or_else(|e| panic!("{sql} → ill-typed {q2}: {e}"));
        assert_eq!(s1, s2, "{sql} → {q2}");
        // …and the denotations are provably equal.
        let e2 = crate::denote::denote_query(
            &q2,
            &env,
            &Schema::Empty,
            &Term::Unit,
            &Term::var(&t),
            &mut gen,
        )
        .unwrap();
        uninomial::prove_eq(&e, &e2, &mut gen)
            .unwrap_or_else(|err| panic!("{sql} → {q2} not provably equal: {err}"));
    }

    #[test]
    fn table_roundtrips() {
        roundtrips("R");
    }

    #[test]
    fn union_and_product_roundtrip() {
        roundtrips("R UNION ALL S");
        roundtrips("R, S");
    }

    #[test]
    fn distinct_and_except_roundtrip() {
        roundtrips("DISTINCT R");
        roundtrips("R EXCEPT S");
    }

    #[test]
    fn select_project_roundtrips() {
        roundtrips("SELECT Right.Left FROM R");
        roundtrips("DISTINCT SELECT Right.Left FROM R");
    }

    #[test]
    fn join_with_where_roundtrips() {
        roundtrips(
            "DISTINCT SELECT Right.Left.Left FROM R, S \
             WHERE Right.Left.Left = Right.Right.Left",
        );
    }

    #[test]
    fn three_way_join_roundtrips() {
        // Three tables exercise the middle-slot path of the FROM
        // product (left-assoc: ((R, S), T)).
        let env = env().with_table("T", Schema::flat([BaseType::Int, BaseType::Int]));
        let q = parse_query(
            "DISTINCT SELECT Right.Left.Left.Left FROM R, S, T \
             WHERE Right.Left.Left.Right = Right.Left.Right.Left \
             AND Right.Left.Right.Right = Right.Right.Left",
        )
        .unwrap();
        let mut gen = VarGen::new();
        let (t, e) = denote_closed_query(&q, &env, &mut gen).unwrap();
        let mut tr = Trace::new();
        let nf = normalize(&e, &mut gen, &mut tr);
        let q2 = query_of_spnf(&nf, &t, &env).expect("3-way join reads back");
        let s2 = crate::ty::infer_query(&q2, &env, &Schema::Empty)
            .unwrap_or_else(|e| panic!("ill-typed {q2}: {e}"));
        assert_eq!(
            s2,
            crate::ty::infer_query(&q, &env, &Schema::Empty).unwrap()
        );
        let e2 = crate::denote::denote_query(
            &q2,
            &env,
            &Schema::Empty,
            &Term::Unit,
            &Term::var(&t),
            &mut gen,
        )
        .unwrap();
        uninomial::prove_eq(&e, &e2, &mut gen)
            .unwrap_or_else(|err| panic!("{q2} not provably equal: {err}"));
    }

    #[test]
    fn constant_filter_roundtrips() {
        roundtrips("DISTINCT SELECT Right.Left FROM R WHERE Right.Right = 5");
    }

    #[test]
    fn unsupported_shapes_return_none() {
        // A normal form with an unsourced binder cannot read back.
        let mut gen = VarGen::new();
        let out = gen.fresh(Schema::leaf(BaseType::Int));
        let v = gen.fresh(Schema::leaf(BaseType::Int));
        let e = uninomial::UExpr::sum(
            v.clone(),
            uninomial::UExpr::eq(Term::var(&out), Term::var(&v)),
        );
        let mut tr = Trace::new();
        let nf = normalize(&e, &mut gen, &mut tr);
        // (May normalize to something readable; only assert no panic.)
        let _ = query_of_spnf(&nf, &out, &env());
    }
}
