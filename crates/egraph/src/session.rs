//! Persistent multi-seed saturation sessions.
//!
//! A [`Session`] is the long-lived counterpart of the one-shot
//! [`Solver`]: one e-graph, one compiled rewrite set, and one set of
//! memo caches that live across *many* goals. It provides three things
//! the fresh-solver-per-goal pipeline cannot:
//!
//! - **Goal memoization** ([`Session::close_goal`]): a goal is keyed by
//!   its (hash-consed) normalized sides; posing the same obligation
//!   twice returns the recorded verdict *and the byte-identical lemma
//!   trace* without re-running the search. Production query traffic is
//!   heavily repetitive, so this is the headline amortization; proving
//!   and planning keep one session per batch worker for it.
//! - **Incremental multi-seed saturation** ([`Session::add_root`] +
//!   [`Session::resume`]): roots can be added after a saturate pass and
//!   saturation *resumes* from the current graph instead of restarting.
//!   The e-graph's [`generation`](crate::graph::EGraph::generation)
//!   counter makes a resume with no new seeds a strict no-op.
//! - **Cross-seed discovery** ([`Session::discovered`]): with many
//!   roots seeded into one graph, saturation merges classes *of
//!   different roots* — equalities no single-seed search would pose.
//!   Catalog discovery (`dopcert catalog --discover`) and the rule
//!   miner seed their own sessions for this; closing a goal seeds
//!   nothing.
//!
//! **Determinism is a hard requirement**: session-mode verdicts and
//! traces must be byte-identical to fresh-solver mode. The session
//! guarantees this *by construction*: every goal is answered by a
//! deterministic goal-scoped derivation (an isolated solver seeded with
//! exactly that goal, just like fresh mode) whose result is memoized.
//! The shared multi-seed graph never takes part in answering a goal.
//!
//! Budgets are batch-level with per-goal accounting: the shared graph
//! runs under a [`BatchBudget`] whose per-goal iteration cap bounds how
//! much discovery work any one resume may charge, so a runaway seed
//! cannot starve the rest of the batch.

use crate::solve::{Budget, Outcome, Solver, Stats};
use crate::unionfind::Id;
use std::collections::HashMap;
use uninomial::lemmas::Lemma;
use uninomial::normalize::Trace;
use uninomial::syntax::intern::{Interner, UExprId};
use uninomial::UExpr;

/// Batch-level saturation budget for the session's *shared* graph, with
/// per-goal accounting. The goal-scoped derivations that produce
/// verdicts and traces run under the ordinary per-goal [`Budget`]; this
/// budget only bounds the discovery side-channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchBudget {
    /// Total saturation iterations the shared graph may spend across
    /// the whole session.
    pub max_total_iters: usize,
    /// Node cap for the shared graph; once reached, no further roots
    /// are seeded and resumes stop immediately.
    pub max_nodes: usize,
    /// Iteration cap any single goal may charge to the shared graph in
    /// one resume — the starvation guard.
    pub per_goal_iters: usize,
}

impl Default for BatchBudget {
    fn default() -> BatchBudget {
        BatchBudget {
            max_total_iters: 2_048,
            max_nodes: 60_000,
            per_goal_iters: 24,
        }
    }
}

impl BatchBudget {
    /// A batch budget scaled from a per-goal budget: the shared graph
    /// may spend what ~64 fresh goals would, with one goal's resume
    /// capped at one fresh goal's iterations.
    pub fn scaled_from(goal: Budget) -> BatchBudget {
        BatchBudget {
            max_total_iters: goal.max_iters.saturating_mul(64),
            max_nodes: goal.max_nodes.saturating_mul(6),
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

/// Accounting across the session's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Goals posed through [`Session::close_goal`].
    pub goals: usize,
    /// Goals answered from the memo (no search ran).
    pub memo_hits: usize,
    /// Iterations spent in goal-scoped derivations.
    pub local_iters: usize,
    /// Iterations spent resuming the shared graph.
    pub shared_iters: usize,
    /// Resumes skipped because the shared graph was already saturated
    /// at its current generation (the incremental-rebuild fast path).
    pub resume_noops: usize,
    /// Roots seeded into the shared graph (post-dedup).
    pub roots: usize,
}

/// A tagged seed in the shared graph.
#[derive(Clone, Debug)]
struct Root {
    tag: String,
    class: Id,
    key: UExprId,
}

/// A recorded goal answer: the lemma steps the goal-scoped derivation
/// appended (proved), or how its search ended (unproved).
#[derive(Clone, Debug)]
enum MemoEntry {
    Proved(Vec<(Lemma, String)>),
    Unproved { outcome: Outcome, stats: Stats },
}

/// A persistent saturation session: one e-graph per worker, shared
/// across the whole batch. See the module docs for the contract.
#[derive(Debug)]
pub struct Session {
    goal_budget: Budget,
    batch: BatchBudget,
    /// The shared multi-seed solver (e-graph + rewrites + the
    /// `attempted` oracle memo, all persistent across goals).
    shared: Solver,
    /// Hash-consing arena for goal keys and root dedup.
    interner: Interner,
    memo: HashMap<(UExprId, UExprId, bool), MemoEntry>,
    roots: Vec<Root>,
    root_classes: HashMap<UExprId, Id>,
    /// Shared-graph generation at which the last resume ended
    /// [`Outcome::Saturated`]; `None` until then or after new seeds.
    clean_at: Option<u64>,
    stats: SessionStats,
}

impl Session {
    /// A session whose goal-scoped derivations run under `goal_budget`,
    /// with the default batch budget scaled from it.
    pub fn new(goal_budget: Budget) -> Session {
        Session::with_batch_budget(goal_budget, BatchBudget::scaled_from(goal_budget))
    }

    /// A session with an explicit batch budget for the shared graph.
    pub fn with_batch_budget(goal_budget: Budget, batch: BatchBudget) -> Session {
        Session {
            goal_budget,
            batch,
            shared: Solver::new(goal_budget),
            interner: Interner::new(),
            memo: HashMap::new(),
            roots: Vec::new(),
            root_classes: HashMap::new(),
            clean_at: None,
            stats: SessionStats::default(),
        }
    }

    /// The per-goal budget of the goal-scoped derivations.
    pub fn goal_budget(&self) -> Budget {
        self.goal_budget
    }

    /// Lifetime accounting.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Answers the goal `el = er` (already-normalized reified sides;
    /// `prop` marks a propositional goal, which additionally seeds the
    /// squash-wrapped sides exactly as the fresh pipeline does),
    /// appending the proving lemma steps to `trace` on success.
    ///
    /// The answer — verdict *and* appended steps — is byte-identical to
    /// what a fresh [`Solver`] run on exactly this goal produces: a
    /// memo miss runs that isolated derivation and records it; a memo
    /// hit replays the recording. The shared graph is left untouched.
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
        self.stats.goals += 1;
        let key = (self.interner.intern(el), self.interner.intern(er), prop);
        if let Some(entry) = self.memo.get(&key) {
            self.stats.memo_hits += 1;
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
        let mut solver = Solver::new(self.goal_budget);
        solver.reserve_names_above(el.max_var_id().max(er.max_var_id()));
        let l = solver.seed_expr(el);
        let r = solver.seed_expr(er);
        if prop {
            solver.seed_expr(&UExpr::squash(el.clone()));
            solver.seed_expr(&UExpr::squash(er.clone()));
        }
        let (outcome, stats) = solver.run(l, r);
        self.stats.local_iters += stats.iters;
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

    /// Seeds a tagged root into the shared graph, returning its class.
    /// Structurally identical roots are deduplicated (the tag is still
    /// recorded, so discovery can report both names); once the batch
    /// node cap is reached, new structure is no longer seeded and
    /// `None` is returned.
    pub fn add_root(&mut self, tag: impl Into<String>, expr: &UExpr) -> Option<Id> {
        let key = self.interner.intern(expr);
        if let Some(&class) = self.root_classes.get(&key) {
            self.roots.push(Root {
                tag: tag.into(),
                class,
                key,
            });
            return Some(class);
        }
        if self.shared.egraph().node_count() >= self.batch.max_nodes {
            return None;
        }
        self.shared.reserve_names_above(expr.max_var_id());
        let class = self.shared.seed_interned(&self.interner, key);
        self.root_classes.insert(key, class);
        self.roots.push(Root {
            tag: tag.into(),
            class,
            key,
        });
        self.stats.roots += 1;
        // New structure invalidates the clean marker unless seeding
        // created no nodes (fully hash-consed into existing classes).
        if self.clean_at != Some(self.shared.egraph().generation()) {
            self.clean_at = None;
        }
        Some(class)
    }

    /// Resumes saturation of the shared graph under the remaining batch
    /// budget (capped per goal). A resume with no graph changes since
    /// the last full saturation is a no-op.
    pub fn resume(&mut self) -> (Outcome, Stats) {
        let _span = telemetry::span("egraph.resume");
        let generation = self.shared.egraph().generation();
        if self.clean_at == Some(generation) {
            self.stats.resume_noops += 1;
            let stats = Stats {
                iters: 0,
                nodes: self.shared.egraph().node_count(),
                unions: self.shared.egraph().union_count(),
            };
            return (Outcome::Saturated, stats);
        }
        let remaining = self
            .batch
            .max_total_iters
            .saturating_sub(self.stats.shared_iters);
        let iters = remaining.min(self.batch.per_goal_iters);
        if iters == 0 {
            let stats = Stats {
                iters: 0,
                nodes: self.shared.egraph().node_count(),
                unions: self.shared.egraph().union_count(),
            };
            return (Outcome::IterBudget, stats);
        }
        let budget = Budget {
            max_iters: iters,
            max_nodes: self.batch.max_nodes,
            oracle_calls_per_iter: self.goal_budget.oracle_calls_per_iter,
        };
        let (outcome, stats) = self.shared.run_with_budget(None, budget);
        self.stats.shared_iters += stats.iters;
        telemetry::profile_count("session", "shared_iters", stats.iters as u64);
        if outcome == Outcome::Saturated {
            self.clean_at = Some(self.shared.egraph().generation());
        }
        (outcome, stats)
    }

    /// Whether two previously returned root classes are currently known
    /// equal in the shared graph.
    pub fn proved(&mut self, a: Id, b: Id) -> bool {
        self.shared.egraph().same(a, b)
    }

    /// Appends the lemma chain that merged `a` and `b` in the shared
    /// graph to `trace` (Lemma-only, replayable per goal). Returns
    /// `false` when the classes are not equal.
    pub fn explain_into(&mut self, a: Id, b: Id, trace: &mut Trace) -> bool {
        self.shared.explain_into(a, b, trace)
    }

    /// Drains the remaining batch budget: resumes shared saturation
    /// until the graph saturates, a node/iteration budget runs out, or
    /// nothing changes. This is what discovery consumers call before
    /// reading equalities; per-resume caps still apply, so accounting
    /// stays per-call.
    pub fn saturate_shared(&mut self) -> Outcome {
        loop {
            let before = self.stats.shared_iters;
            let (outcome, _) = self.resume();
            match outcome {
                Outcome::IterBudget if self.stats.shared_iters > before => continue,
                other => return other,
            }
        }
    }

    /// Cross-seed discovery: pairs of distinct tagged roots whose
    /// classes are equal in the shared graph, sorted by tag for a
    /// deterministic report. The shared graph is saturated first
    /// (lazily, under the remaining batch budget). Roots that interned
    /// to the same expression count too — two differently-tagged seeds
    /// normalizing to one expression is itself a discovery — but the
    /// pair is flagged so consumers can set them apart from
    /// saturation-proved equalities. Returns `(tag_a, tag_b,
    /// structural)` with `structural = true` for the same-expression
    /// case.
    pub fn discovered(&mut self) -> Vec<(String, String, bool)> {
        self.saturate_shared();
        let mut out = Vec::new();
        for i in 0..self.roots.len() {
            for j in (i + 1)..self.roots.len() {
                let (a, b) = (self.roots[i].class, self.roots[j].class);
                if self.shared.egraph().same(a, b) {
                    let structural = self.roots[i].key == self.roots[j].key;
                    let (ki, kj) = (self.roots[i].key.index(), self.roots[j].key.index());
                    let (ta, tb) = (self.roots[i].tag.clone(), self.roots[j].tag.clone());
                    let (ta, tb) = if ta <= tb { (ta, tb) } else { (tb, ta) };
                    if ta == tb {
                        continue;
                    }
                    // Canonical (lhs, rhs) interned-id pair first: the
                    // worklist order survives tag renames, and
                    // orientation-symmetric duplicates (same expression
                    // pair seeded under swapped tags) land adjacent so
                    // the id-keyed dedup below removes them.
                    out.push((ki.min(kj), ki.max(kj), ta, tb, structural));
                }
            }
        }
        out.sort();
        out.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1) && a.4 == b.4);
        out.into_iter()
            .map(|(_, _, ta, tb, s)| (ta, tb, s))
            .collect()
    }

    /// The discovery worklist as expressions: every merged pair of
    /// distinct roots whose *interned keys* differ, read back from the
    /// session interner, deduped by canonical key pair and sorted by it.
    /// This is the rule miner's input — tags are irrelevant to mining,
    /// so structurally-equal seeds (same key under two tags) are
    /// skipped rather than flagged.
    pub fn discovered_exprs(&mut self) -> Vec<(UExpr, UExpr)> {
        self.saturate_shared();
        let mut keys: Vec<(usize, usize)> = Vec::new();
        for i in 0..self.roots.len() {
            for j in (i + 1)..self.roots.len() {
                let (a, b) = (self.roots[i].class, self.roots[j].class);
                let (ki, kj) = (self.roots[i].key.index(), self.roots[j].key.index());
                if ki != kj && self.shared.egraph().same(a, b) {
                    keys.push((ki.min(kj), ki.max(kj)));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let ids: std::collections::HashMap<usize, _> =
            self.roots.iter().map(|r| (r.key.index(), r.key)).collect();
        keys.into_iter()
            .filter_map(|(ka, kb)| {
                let (ia, ib) = (ids.get(&ka)?, ids.get(&kb)?);
                Some((self.interner.extract(*ia), self.interner.extract(*ib)))
            })
            .collect()
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
            max_nodes: 1000,
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
        assert_eq!(session.stats().goals, 2);
        assert_eq!(session.stats().memo_hits, 1);
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

    #[test]
    fn resume_without_new_seeds_is_a_noop() {
        let mut session = Session::new(Budget::default());
        session.add_root("a", &UExpr::mul(rel("R"), rel("S")));
        session.resume();
        let before = session.stats();
        let (outcome, _) = session.resume();
        assert_eq!(outcome, Outcome::Saturated);
        assert_eq!(session.stats().resume_noops, before.resume_noops + 1);
        assert_eq!(session.stats().shared_iters, before.shared_iters);
    }

    #[test]
    fn cross_seed_discovery_reports_merged_roots() {
        let mut session = Session::new(Budget::default());
        let lhs = UExpr::mul(rel("R"), UExpr::add(rel("S"), rel("T")));
        let rhs = UExpr::add(
            UExpr::mul(rel("S"), rel("R")),
            UExpr::mul(rel("T"), rel("R")),
        );
        session.add_root("rule-a/lhs", &lhs);
        session.add_root("rule-b/rhs", &rhs);
        session.resume();
        let found = session.discovered();
        assert!(
            found.contains(&("rule-a/lhs".into(), "rule-b/rhs".into(), false)),
            "{found:?}"
        );
        // Same-expression roots under different tags are discoveries
        // too, flagged structural.
        session.add_root("rule-c/lhs", &lhs);
        let found = session.discovered();
        assert!(
            found.contains(&("rule-a/lhs".into(), "rule-c/lhs".into(), true)),
            "{found:?}"
        );
    }

    #[test]
    fn per_goal_cap_bounds_one_resume() {
        let batch = BatchBudget {
            max_total_iters: 100,
            max_nodes: 10_000,
            per_goal_iters: 1,
        };
        let mut session = Session::with_batch_budget(Budget::default(), batch);
        // A root with rewrite work to do: one resume may spend at most
        // one iteration.
        session.add_root("a", &UExpr::mul(rel("R"), UExpr::add(rel("S"), rel("T"))));
        let (_, stats) = session.resume();
        assert!(stats.iters <= 1, "{stats:?}");
    }
}
