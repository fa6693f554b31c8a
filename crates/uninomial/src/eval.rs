//! Concrete evaluation of UniNomial expressions over finite domains.
//!
//! This is the soundness oracle for the symbolic machinery: a [`UExpr`]
//! is evaluated to a [`Card`] under an [`Interp`] assigning concrete
//! relations to relation symbols, boolean functions to predicate symbols,
//! and value functions to scalar symbols. Infinitary sums `Σ` range over
//! the *finite evaluation domain* of the interpretation; every rewrite
//! axiom of [`crate::lemmas`] is valid for an arbitrary fixed domain, so
//! any normalization bug shows up as an evaluation mismatch on some
//! random interpretation (see the property tests in `tests/`).

use crate::normalize::Spnf;
use crate::syntax::{Term, UExpr, Var};
use relalg::ops::Aggregate;
use relalg::{BaseType, Card, Relation, Schema, Tuple, Value};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A predicate interpretation: tuple → bool.
pub type PredFn = Rc<dyn Fn(&Tuple) -> bool>;
/// A scalar-function interpretation: values → value.
pub type ScalarFn = Rc<dyn Fn(&[Value]) -> Value>;

/// Evaluation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A symbol had no interpretation.
    Unbound(String),
    /// A term did not evaluate to the shape an operation required.
    Shape(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unbound(s) => write!(f, "unbound symbol: {s}"),
            EvalError::Shape(s) => write!(f, "shape error: {s}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// An interpretation of all free symbols plus a finite evaluation domain.
#[derive(Clone)]
pub struct Interp {
    /// Relation symbols.
    pub rels: HashMap<String, Relation>,
    /// Predicate symbols.
    pub preds: HashMap<String, PredFn>,
    /// Scalar function symbols.
    pub fns: HashMap<String, ScalarFn>,
    /// Finite domain per base type used to enumerate `Σ`.
    pub domains: HashMap<BaseType, Vec<Value>>,
}

impl fmt::Debug for Interp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("rels", &self.rels.keys().collect::<Vec<_>>())
            .field("preds", &self.preds.keys().collect::<Vec<_>>())
            .field("fns", &self.fns.keys().collect::<Vec<_>>())
            .field("domains", &self.domains)
            .finish()
    }
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

impl Interp {
    /// An empty interpretation with the standard small sample domains.
    pub fn new() -> Interp {
        let mut domains = HashMap::new();
        for ty in BaseType::ALL {
            domains.insert(ty, ty.sample_domain());
        }
        Interp {
            rels: HashMap::new(),
            preds: HashMap::new(),
            fns: HashMap::new(),
            domains,
        }
    }

    /// Registers a relation.
    pub fn with_rel(mut self, name: impl Into<String>, r: Relation) -> Interp {
        self.rels.insert(name.into(), r);
        self
    }

    /// Registers a predicate.
    pub fn with_pred(
        mut self,
        name: impl Into<String>,
        p: impl Fn(&Tuple) -> bool + 'static,
    ) -> Interp {
        self.preds.insert(name.into(), Rc::new(p));
        self
    }

    /// Registers a scalar function.
    pub fn with_fn(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Value + 'static,
    ) -> Interp {
        self.fns.insert(name.into(), Rc::new(f));
        self
    }

    /// Enumerates all tuples of a schema over the finite domains.
    pub fn enumerate(&self, schema: &Schema) -> Vec<Tuple> {
        match schema {
            Schema::Empty => vec![Tuple::Unit],
            Schema::Leaf(t) => self
                .domains
                .get(t)
                .map(|vs| vs.iter().cloned().map(Tuple::Leaf).collect())
                .unwrap_or_default(),
            Schema::Node(l, r) => {
                let ls = self.enumerate(l);
                let rs = self.enumerate(r);
                let mut out = Vec::with_capacity(ls.len() * rs.len());
                for lt in &ls {
                    for rt in &rs {
                        out.push(Tuple::pair(lt.clone(), rt.clone()));
                    }
                }
                out
            }
        }
    }
}

/// A variable environment.
pub type Env = HashMap<u32, Tuple>;

/// Evaluates a tuple term to a concrete tuple.
///
/// # Errors
///
/// [`EvalError::Unbound`] for unassigned variables or uninterpreted
/// symbols; [`EvalError::Shape`] when a projection meets a non-pair.
pub fn eval_term(t: &Term, interp: &Interp, env: &Env) -> Result<Tuple, EvalError> {
    match t {
        Term::Var(v) => env
            .get(&v.id)
            .cloned()
            .ok_or_else(|| EvalError::Unbound(v.name())),
        Term::Unit => Ok(Tuple::Unit),
        Term::Const(v) => Ok(Tuple::Leaf(v.clone())),
        Term::Pair(a, b) => Ok(Tuple::pair(
            eval_term(a, interp, env)?,
            eval_term(b, interp, env)?,
        )),
        Term::Fst(x) => match eval_term(x, interp, env)? {
            Tuple::Pair(a, _) => Ok(*a),
            other => Err(EvalError::Shape(format!("{other}.1 on non-pair"))),
        },
        Term::Snd(x) => match eval_term(x, interp, env)? {
            Tuple::Pair(_, b) => Ok(*b),
            other => Err(EvalError::Shape(format!("{other}.2 on non-pair"))),
        },
        Term::Fn(name, args) => {
            let f = interp
                .fns
                .get(name)
                .ok_or_else(|| EvalError::Unbound(name.clone()))?;
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                match eval_term(a, interp, env)? {
                    Tuple::Leaf(v) => vals.push(v),
                    other => {
                        return Err(EvalError::Shape(format!(
                            "function argument {other} is not a scalar"
                        )))
                    }
                }
            }
            Ok(Tuple::Leaf(f(&vals)))
        }
        Term::Agg(name, v, body) => {
            let agg = Aggregate::parse(name)
                .ok_or_else(|| EvalError::Unbound(format!("aggregate {name}")))?;
            let mut rel = Relation::empty(v.schema.clone());
            for tup in interp.enumerate(&v.schema) {
                let mut env2 = env.clone();
                env2.insert(v.id, tup.clone());
                let c = eval(body, interp, &env2)?;
                rel.insert_with(tup, c);
            }
            let value =
                relalg::ops::aggregate(agg, &rel).map_err(|e| EvalError::Shape(e.to_string()))?;
            Ok(Tuple::Leaf(value))
        }
    }
}

/// Evaluates a UniNomial expression to a cardinal.
///
/// # Errors
///
/// See [`eval_term`].
pub fn eval(e: &UExpr, interp: &Interp, env: &Env) -> Result<Card, EvalError> {
    match e {
        UExpr::Zero => Ok(Card::ZERO),
        UExpr::One => Ok(Card::ONE),
        UExpr::Add(a, b) => Ok(eval(a, interp, env)? + eval(b, interp, env)?),
        UExpr::Mul(a, b) => Ok(eval(a, interp, env)? * eval(b, interp, env)?),
        UExpr::Not(x) => Ok(eval(x, interp, env)?.not()),
        UExpr::Squash(x) => Ok(eval(x, interp, env)?.squash()),
        UExpr::Sum(v, body) => {
            let mut total = Card::ZERO;
            for tup in interp.enumerate(&v.schema) {
                let mut env2 = env.clone();
                env2.insert(v.id, tup);
                total += eval(body, interp, &env2)?;
            }
            Ok(total)
        }
        UExpr::Eq(a, b) => Ok(Card::from_bool(
            eval_term(a, interp, env)? == eval_term(b, interp, env)?,
        )),
        UExpr::Rel(r, t) => {
            let rel = interp
                .rels
                .get(r)
                .ok_or_else(|| EvalError::Unbound(r.clone()))?;
            Ok(rel.multiplicity(&eval_term(t, interp, env)?))
        }
        UExpr::Pred(p, t) => {
            let f = interp
                .preds
                .get(p)
                .ok_or_else(|| EvalError::Unbound(p.clone()))?;
            Ok(Card::from_bool(f(&eval_term(t, interp, env)?)))
        }
    }
}

/// Evaluates a normal form (by reification) — used to cross-check the
/// normalizer.
///
/// # Errors
///
/// See [`eval`].
pub fn eval_spnf(s: &Spnf, interp: &Interp, env: &Env) -> Result<Card, EvalError> {
    eval(&s.reify(), interp, env)
}

/// Builds an environment binding the free variables of an expression to
/// given tuples (convenience for tests).
pub fn env_of(bindings: impl IntoIterator<Item = (Var, Tuple)>) -> Env {
    bindings.into_iter().map(|(v, t)| (v.id, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, Trace};
    use crate::syntax::VarGen;

    fn leaf_int() -> Schema {
        Schema::leaf(BaseType::Int)
    }

    fn simple_rel(vals: &[i64]) -> Relation {
        Relation::from_tuples(leaf_int(), vals.iter().map(|&n| Tuple::int(n))).unwrap()
    }

    #[test]
    fn constants_and_arithmetic() {
        let i = Interp::new();
        let env = Env::new();
        assert_eq!(eval(&UExpr::Zero, &i, &env).unwrap(), Card::ZERO);
        assert_eq!(eval(&UExpr::One, &i, &env).unwrap(), Card::ONE);
        let two = UExpr::add(UExpr::One, UExpr::One);
        assert_eq!(eval(&two, &i, &env).unwrap(), Card::Fin(2));
        let four = UExpr::mul(two.clone(), two);
        assert_eq!(eval(&four, &i, &env).unwrap(), Card::Fin(4));
    }

    #[test]
    fn relation_multiplicity() {
        let i = Interp::new().with_rel("R", simple_rel(&[1, 1, 2]));
        let env = Env::new();
        let e = UExpr::rel("R", Term::int(1));
        assert_eq!(eval(&e, &i, &env).unwrap(), Card::Fin(2));
        let e = UExpr::rel("R", Term::int(5));
        assert_eq!(eval(&e, &i, &env).unwrap(), Card::ZERO);
    }

    #[test]
    fn sum_counts_domain() {
        // Σx:int. R(x) = |R| when R's support is inside the domain.
        let mut g = VarGen::new();
        let x = g.fresh(leaf_int());
        let i = Interp::new().with_rel("R", simple_rel(&[-1, 0, 0, 2]));
        let e = UExpr::sum(x.clone(), UExpr::rel("R", Term::var(&x)));
        assert_eq!(eval(&e, &i, &Env::new()).unwrap(), Card::Fin(4));
    }

    #[test]
    fn squash_and_not() {
        let i = Interp::new().with_rel("R", simple_rel(&[1, 1]));
        let env = Env::new();
        let r1 = UExpr::rel("R", Term::int(1));
        assert_eq!(
            eval(&UExpr::squash(r1.clone()), &i, &env).unwrap(),
            Card::ONE
        );
        assert_eq!(eval(&UExpr::not(r1), &i, &env).unwrap(), Card::ZERO);
        let r9 = UExpr::rel("R", Term::int(9));
        assert_eq!(eval(&UExpr::not(r9), &i, &env).unwrap(), Card::ONE);
    }

    #[test]
    fn predicates_and_functions() {
        let i = Interp::new()
            .with_pred("pos", |t: &Tuple| {
                t.value().and_then(Value::as_int).map(|n| n > 0) == Some(true)
            })
            .with_fn("neg", |vs: &[Value]| {
                Value::Int(-vs[0].as_int().unwrap_or(0))
            });
        let env = Env::new();
        assert_eq!(
            eval(&UExpr::pred("pos", Term::int(2)), &i, &env).unwrap(),
            Card::ONE
        );
        assert_eq!(
            eval(
                &UExpr::pred("pos", Term::func("neg", vec![Term::int(2)])),
                &i,
                &env
            )
            .unwrap(),
            Card::ZERO
        );
    }

    #[test]
    fn aggregate_evaluation() {
        // SUM over λx. R(x): sums values weighted by multiplicity.
        let mut g = VarGen::new();
        let x = g.fresh(leaf_int());
        let i = Interp::new().with_rel("R", simple_rel(&[1, 2, 2]));
        let agg = Term::agg("SUM", x.clone(), UExpr::rel("R", Term::var(&x)));
        assert_eq!(
            eval_term(&agg, &i, &Env::new()).unwrap(),
            Tuple::int(5) // 1 + 2 + 2
        );
        let cnt = Term::agg("COUNT", x.clone(), UExpr::rel("R", Term::var(&x)));
        assert_eq!(eval_term(&cnt, &i, &Env::new()).unwrap(), Tuple::int(3));
    }

    #[test]
    fn unbound_symbols_error() {
        let i = Interp::new();
        let env = Env::new();
        assert!(matches!(
            eval(&UExpr::rel("Z", Term::int(0)), &i, &env),
            Err(EvalError::Unbound(_))
        ));
        assert!(matches!(
            eval(&UExpr::pred("q", Term::int(0)), &i, &env),
            Err(EvalError::Unbound(_))
        ));
    }

    #[test]
    fn normalization_preserves_evaluation_samples() {
        // A handful of deterministic checks; the heavy randomized version
        // lives in tests/prop_normalize.rs.
        let mut g = VarGen::new();
        let t = g.fresh(leaf_int());
        let x = g.fresh(leaf_int());
        let i = Interp::new()
            .with_rel("R", simple_rel(&[0, 1, 1, 2]))
            .with_rel("S", simple_rel(&[1, 2]))
            .with_pred("b", |t: &Tuple| {
                t.value().and_then(Value::as_int).map(|n| n != 0) == Some(true)
            });
        let exprs = [
            UExpr::mul(
                UExpr::add(
                    UExpr::rel("R", Term::var(&t)),
                    UExpr::rel("S", Term::var(&t)),
                ),
                UExpr::pred("b", Term::var(&t)),
            ),
            UExpr::sum(
                x.clone(),
                UExpr::mul(
                    UExpr::eq(Term::var(&x), Term::var(&t)),
                    UExpr::rel("R", Term::var(&x)),
                ),
            ),
            UExpr::squash(UExpr::mul(
                UExpr::rel("R", Term::var(&t)),
                UExpr::rel("R", Term::var(&t)),
            )),
            UExpr::mul(
                UExpr::rel("R", Term::var(&t)),
                UExpr::not(UExpr::squash(UExpr::rel("S", Term::var(&t)))),
            ),
        ];
        for e in &exprs {
            let mut tr = Trace::new();
            let nf = normalize(e, &mut g, &mut tr);
            for val in [-2i64, -1, 0, 1, 2] {
                let env = env_of([(t.clone(), Tuple::int(val))]);
                let orig = eval(e, &i, &env).unwrap();
                let post = eval_spnf(&nf, &i, &env).unwrap();
                assert_eq!(orig, post, "mismatch for {e} at t={val}: nf = {nf}");
            }
        }
    }
}
