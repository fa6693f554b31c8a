//! Persistent goal memos, and the daemon's per-tenant admission budget.
//!
//! A [`Session`] memoizes goal-closing saturation searches across many
//! goals. A goal is keyed by its (hash-consed) normalized sides; posing
//! the same obligation twice returns the recorded verdict *and the
//! byte-identical lemma trace* without re-running the search. Each
//! prover keeps one session per batch worker for it.
//!
//! **Determinism is a hard requirement**: session verdicts and traces
//! must be byte-identical to fresh-solver mode. The session guarantees
//! this *by construction*: a memo miss runs a deterministic goal-scoped
//! derivation (an isolated solver seeded with exactly that goal, just
//! like fresh mode) and records its result.
//!
//! [`BatchBudget`] is the `dopcert serve` daemon's per-tenant admission
//! budget. Cross-seed discovery has a type of its own,
//! [`Discovery`](crate::discovery::Discovery).

use crate::solve::{Budget, Outcome, Solver, Stats};
use std::collections::HashMap;
use uninomial::lemmas::Lemma;
use uninomial::normalize::Trace;
use uninomial::syntax::intern::{Interner, UExprId};
use uninomial::UExpr;

/// A per-tenant admission budget: how many saturation iterations one
/// account may spend in total, and how many one request may ask for.
/// The `dopcert serve` daemon charges each request's per-goal budget
/// against it before dispatch ([`BatchBudget::admit`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchBudget {
    /// Total iterations one account may spend.
    pub max_total_iters: usize,
    /// Iteration cap any single request may ask for — the starvation
    /// guard.
    pub per_goal_iters: usize,
}

impl Default for BatchBudget {
    fn default() -> BatchBudget {
        BatchBudget {
            max_total_iters: 2_048,
            per_goal_iters: 24,
        }
    }
}

impl BatchBudget {
    /// A batch budget scaled from a per-goal budget: an account may
    /// spend what ~64 fresh goals would, with one request capped at one
    /// fresh goal's iterations.
    pub fn scaled_from(goal: Budget) -> BatchBudget {
        BatchBudget {
            max_total_iters: goal.max_iters.saturating_mul(64),
            per_goal_iters: goal.max_iters,
        }
    }

    /// Admission control against this budget: may a goal that wants
    /// `request_iters` iterations run, given `spent_iters` already
    /// charged to the same account? This is the per-tenant gate the
    /// `dopcert serve` daemon applies before dispatching a request —
    /// [`Admission::PerGoalCap`] rejects a single oversized goal,
    /// [`Admission::Exhausted`] rejects once the cumulative allowance
    /// is gone (so one hot tenant cannot starve the rest).
    pub fn admit(&self, spent_iters: usize, request_iters: usize) -> Admission {
        if request_iters > self.per_goal_iters {
            Admission::PerGoalCap
        } else if spent_iters.saturating_add(request_iters) > self.max_total_iters {
            Admission::Exhausted
        } else {
            Admission::Admit
        }
    }
}

/// Outcome of a [`BatchBudget::admit`] check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Within budget: run the goal and charge its iterations.
    Admit,
    /// The single goal asks for more iterations than the per-goal cap
    /// allows — rejected regardless of how much allowance remains.
    PerGoalCap,
    /// The cumulative allowance is exhausted.
    Exhausted,
}

/// A recorded goal answer: the lemma steps the goal-scoped derivation
/// appended (proved), or how its search ended (unproved).
#[derive(Clone, Debug)]
enum MemoEntry {
    Proved(Vec<(Lemma, String)>),
    Unproved { outcome: Outcome, stats: Stats },
}

/// A persistent goal memo: one per worker, shared across the whole
/// batch. See the module docs for the contract.
#[derive(Debug)]
pub struct Session {
    budget: Budget,
    /// Hash-consing arena for goal keys.
    interner: Interner,
    memo: HashMap<(UExprId, UExprId, bool), MemoEntry>,
    hits: usize,
}

impl Session {
    /// A session whose goal-scoped derivations run under `budget`.
    pub fn new(budget: Budget) -> Session {
        Session {
            budget,
            interner: Interner::new(),
            memo: HashMap::new(),
            hits: 0,
        }
    }

    /// Goals answered from the memo so far.
    pub fn memo_hits(&self) -> usize {
        self.hits
    }

    /// Answers the goal `el = er` (already-normalized reified sides;
    /// `prop` marks a propositional goal, which additionally seeds the
    /// squash-wrapped sides exactly as the fresh pipeline does),
    /// appending the proving lemma steps to `trace` on success.
    ///
    /// The answer — verdict *and* appended steps — is byte-identical to
    /// what a fresh [`Solver`] run on exactly this goal produces: a
    /// memo miss runs that isolated derivation and records it; a memo
    /// hit replays the recording.
    ///
    /// # Errors
    ///
    /// Returns the goal-scoped search's terminal outcome and statistics
    /// when the sides never merge.
    pub fn close_goal(
        &mut self,
        el: &UExpr,
        er: &UExpr,
        prop: bool,
        trace: &mut Trace,
    ) -> Result<(), (Outcome, Stats)> {
        let _span = telemetry::span("egraph.goal");
        let key = (self.interner.intern(el), self.interner.intern(er), prop);
        if let Some(entry) = self.memo.get(&key) {
            self.hits += 1;
            telemetry::count("memo.goal.hit", 1);
            telemetry::profile_count("session", "goal_memo_hits", 1);
            return match entry {
                MemoEntry::Proved(steps) => {
                    for (lemma, note) in steps {
                        trace.step(*lemma, note.clone());
                    }
                    Ok(())
                }
                MemoEntry::Unproved { outcome, stats } => Err((*outcome, *stats)),
            };
        }
        telemetry::count("memo.goal.miss", 1);
        // Goal-scoped derivation: an isolated solver seeded with exactly
        // this goal — the same construction as fresh-solver mode, so the
        // verdict and trace are identical by construction.
        let mut solver = Solver::new(self.budget);
        solver.reserve_names_above(el.max_var_id().max(er.max_var_id()));
        let l = solver.seed_expr(el);
        let r = solver.seed_expr(er);
        if prop {
            solver.seed_expr(&UExpr::squash(el.clone()));
            solver.seed_expr(&UExpr::squash(er.clone()));
        }
        let (outcome, stats) = solver.run(l, r);
        telemetry::profile_count("session", "goal_derivations", 1);
        telemetry::profile_count("session", "local_iters", stats.iters as u64);
        if outcome == Outcome::Proved {
            let mark = trace.len();
            solver.explain_into(l, r, trace);
            let steps = trace.steps()[mark..].to_vec();
            self.memo.insert(key, MemoEntry::Proved(steps));
            Ok(())
        } else {
            self.memo
                .insert(key, MemoEntry::Unproved { outcome, stats });
            Err((outcome, stats))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninomial::syntax::{Term, UExpr};

    fn rel(name: &str) -> UExpr {
        UExpr::rel(name, Term::Unit)
    }

    #[test]
    fn admission_control_orders_its_rejections() {
        let budget = BatchBudget {
            max_total_iters: 100,
            per_goal_iters: 24,
        };
        assert_eq!(budget.admit(0, 24), Admission::Admit);
        assert_eq!(budget.admit(76, 24), Admission::Admit);
        // One oversized goal is rejected even with a full allowance.
        assert_eq!(budget.admit(0, 25), Admission::PerGoalCap);
        // A within-cap goal is rejected once the allowance is gone.
        assert_eq!(budget.admit(77, 24), Admission::Exhausted);
        assert_eq!(budget.admit(usize::MAX, 1), Admission::Exhausted);
    }

    #[test]
    fn memo_replays_identical_traces() {
        let mut session = Session::new(Budget::default());
        let a = UExpr::mul(rel("R"), UExpr::add(rel("S"), rel("T")));
        let b = UExpr::add(
            UExpr::mul(rel("R"), rel("S")),
            UExpr::mul(rel("R"), rel("T")),
        );
        let mut t1 = Trace::new();
        session.close_goal(&a, &b, false, &mut t1).expect("proves");
        let mut t2 = Trace::new();
        session.close_goal(&a, &b, false, &mut t2).expect("proves");
        assert_eq!(t1.steps(), t2.steps(), "memo hit must replay the trace");
        assert_eq!(session.memo_hits(), 1, "the repeat is a memo hit");
    }

    #[test]
    fn goal_answer_matches_fresh_solver() {
        let a = UExpr::mul(rel("R"), UExpr::add(rel("S"), rel("T")));
        let b = UExpr::add(
            UExpr::mul(rel("R"), rel("S")),
            UExpr::mul(rel("R"), rel("T")),
        );
        // Fresh solver on exactly this goal.
        let mut solver = Solver::new(Budget::default());
        solver.reserve_names_above(a.max_var_id().max(b.max_var_id()));
        let l = solver.seed_expr(&a);
        let r = solver.seed_expr(&b);
        let (outcome, _) = solver.run(l, r);
        assert_eq!(outcome, Outcome::Proved);
        let mut fresh = Trace::new();
        solver.explain_into(l, r, &mut fresh);
        // Session answer — even after unrelated goals polluted it.
        let mut session = Session::new(Budget::default());
        let mut scratch = Trace::new();
        let _ = session.close_goal(&rel("X"), &rel("Y"), false, &mut scratch);
        let mut via_session = Trace::new();
        session
            .close_goal(&a, &b, false, &mut via_session)
            .expect("proves");
        assert_eq!(fresh.steps(), via_session.steps());
    }
}
