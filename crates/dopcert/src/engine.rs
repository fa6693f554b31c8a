//! The batch proving engine: verify and differentially test whole rule
//! catalogs, and optimize query batches, across CPU cores.
//!
//! The sequential pipeline (`for rule in rules { prove_rule(rule) }`)
//! leaves every core but one idle. This module distributes the work:
//! rules, queries, or goal pairs go to a scoped worker pool
//! (`std::thread`; the environment has no third-party crates, so the
//! work-stealing is a simple shared atomic cursor — ideal for this
//! catalog-shaped workload of few, coarse, unevenly-sized tasks).
//!
//! Each worker builds ONE private [`Workspace`] and keeps it for every
//! item it claims. The workspace's sessions persist across the worker's
//! items: its prove session memoizes verdicts and saturation goals, its
//! plan session finished plans. Normalization keeps no state, so nothing
//! else is carried. Answers are byte-identical to proving each item on
//! fresh state, by construction. The workspaces are not siblings: no
//! memo is shared between workers, so memo counts do not depend on
//! which worker claimed which item.
//!
//! A work item is the whole job for its input:
//! [`Engine::optimize_batch_with`] runs a caller's `finish` step on the
//! worker that optimized the query. The `api` optimize path passes
//! [`PlanReport::new`](crate::api::PlanReport::new) (the cost gate, the
//! certificate replay and the lemma list), so one pass optimizes,
//! certifies and replays the whole batch on every worker and no core
//! idles while another replays.
//!
//! Determinism: every worker uses its own [`VarGen`] (created per rule
//! inside the prover, exactly as on the sequential path), and reports
//! are returned **in catalog order** regardless of which worker finished
//! when. `prove_catalog` is observationally identical to the sequential
//! loop — same verdicts, methods, and step counts (wall-clock fields
//! excepted) — which `tests/engine.rs` asserts for the full catalog.
//!
//! [`VarGen`]: uninomial::VarGen

use crate::api::Workspace;
use crate::difftest::{differential_test, DiffOutcome};
use crate::prove::{ProveOptions, RuleReport, VerifyMethod};
use crate::rule::{Rule, RuleInstance};
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use optimizer::{OptimizeError, OptimizeReport};
use relalg::stats::Statistics;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The batch proving engine: a worker count and the options every
/// worker's [`Workspace`] runs under. Construction is cheap; every batch
/// builds its worker states afresh.
#[derive(Clone, Debug)]
pub struct Engine {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub threads: NonZeroUsize,
    /// Verification options for every item: by default the tactics run
    /// first and equality saturation is the fallback when they fail,
    /// reported as the distinct [`crate::prove::VerifyMethod::Saturation`].
    pub prove: ProveOptions,
    /// Mined rewrite rules for every worker's plan search
    /// (`--mined-rules`). `None` (the default) keeps optimization
    /// bit-identical to a build without the mining subsystem.
    pub mined: Option<Arc<Vec<egraph::MinedRule>>>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine {
            threads: std::thread::available_parallelism()
                .unwrap_or(NonZeroUsize::new(1).expect("1 is nonzero")),
            prove: ProveOptions::default(),
            mined: None,
        }
    }
}

/// Outcome of one goal in a [`Engine::prove_pairs`] batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairReport {
    /// Whether the pair was proved equivalent.
    pub proved: bool,
    /// The successful method, if any.
    pub method: Option<VerifyMethod>,
    /// Proof-trace length (0 when unproved).
    pub steps: usize,
}

impl Engine {
    /// An engine with default configuration (all cores).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine with an explicit worker count.
    pub fn with_threads(threads: usize) -> Engine {
        Engine {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1"),
            ..Engine::default()
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Proves every rule of the catalog in parallel, returning reports
    /// in catalog order. Verdicts, methods, and step counts are
    /// identical to running [`crate::api::prove_rule`] sequentially.
    /// Each worker keeps one [`Workspace`] for its whole shard — its
    /// persistent session with memoized verdicts — with answers
    /// byte-identical to proving each rule on fresh state.
    pub fn prove_catalog(&self, rules: &[Rule]) -> Vec<RuleReport> {
        self.par_map(rules, |rule, ws| ws.prove_rule(rule))
    }

    /// Differentially tests every rule in parallel (`trials` random
    /// instances each), returning `(name, outcome)` in catalog order.
    pub fn difftest_catalog(
        &self,
        rules: &[Rule],
        trials: usize,
        base_seed: u64,
    ) -> Vec<(String, DiffOutcome)> {
        // Difftest evaluates concrete instances: the workspace idles.
        self.par_map(rules, |rule, _| {
            (
                rule.name.to_owned(),
                differential_test(rule, trials, base_seed),
            )
        })
    }

    /// The full catalog check the CLI runs: each rule passes when the
    /// prover's verdict matches its expected soundness; an unsound rule
    /// the prover *wrongly accepts* can still pass via the fallback —
    /// differential testing refuting it with a concrete counterexample.
    /// Returns `(name, passed)` in catalog order.
    pub fn check_catalog(&self, rules: &[Rule]) -> Vec<(String, bool)> {
        self.par_map(rules, |rule, ws| {
            let report = ws.prove_rule(rule);
            let ok = report.proved == rule.expected_sound
                || (!rule.expected_sound
                    && matches!(differential_test(rule, 200, 0xC11), DiffOutcome::Refuted(_)));
            (rule.name.to_owned(), ok)
        })
    }

    /// Optimizes a batch of closed queries in parallel with the
    /// certified optimizer, returning reports in input order. Budget
    /// comes from the engine's prove options. Each worker keeps one
    /// [`Workspace`]; reports are identical to calling
    /// [`optimizer::optimize()`] sequentially on fresh state.
    pub fn optimize_batch(
        &self,
        env: &QueryEnv,
        stats: &Statistics,
        queries: &[Query],
    ) -> Vec<Result<OptimizeReport, OptimizeError>> {
        self.optimize_batch_with(env, stats, queries, |_, report| report)
    }

    /// [`Engine::optimize_batch`] with a per-query `finish` step run on
    /// the worker that optimized the query, in the same pass: `finish(q,
    /// report)` lands in `q`'s input slot. The `api` optimize path
    /// passes its report builder here, so each plan's certificate
    /// replays on the worker that certified it.
    pub fn optimize_batch_with<R, F>(
        &self,
        env: &QueryEnv,
        stats: &Statistics,
        queries: &[Query],
        finish: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(&Query, Result<OptimizeReport, OptimizeError>) -> R + Sync,
    {
        let mined = self.mined.as_ref();
        self.par_map(queries, |q, ws| {
            finish(q, ws.optimize(q, env, stats, mined))
        })
    }

    /// Batch-proves arbitrary query pairs in parallel — the traffic-
    /// scale entry point behind the `session_vs_fresh` BENCH series.
    /// Each worker keeps one [`Workspace`] for its shard; reports land
    /// in input order and are identical to verifying each pair alone
    /// (one call per pair, the series' fresh reference).
    pub fn prove_pairs(&self, env: &QueryEnv, pairs: &[(Query, Query)]) -> Vec<PairReport> {
        self.par_map(pairs, |(l, r), ws| {
            let inst = RuleInstance::plain(env.clone(), l.clone(), r.clone());
            match ws.verify_instance(&inst) {
                Ok((method, steps, _)) => PairReport {
                    proved: true,
                    method: Some(method),
                    steps,
                },
                Err(_) => PairReport {
                    proved: false,
                    method: None,
                    steps: 0,
                },
            }
        })
    }

    /// Order-preserving parallel map over a work list: a shared atomic
    /// cursor hands out indices, each worker builds ONE private
    /// [`Workspace`] at the engine's options and threads it through
    /// every item it claims, and results land in their input slots.
    fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &mut Workspace) -> R + Sync,
    {
        let opts = self.prove;
        let threads = self.threads().min(items.len().max(1));
        if threads <= 1 {
            // Degenerate pool: run inline (still through the worker
            // state, so single-threaded callers get the memoization
            // win).
            let mut ws = Workspace::with_options(opts);
            return items.iter().map(|r| f(r, &mut ws)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (cursor, slots, f) = (&cursor, &slots, &f);
                scope.spawn(move || {
                    // Per-worker state: a private VarGen lives inside
                    // each prove call; the workspace's sessions persist
                    // across the items this worker claims.
                    let mut ws = Workspace::with_options(opts);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let result = f(item, &mut ws);
                        slots.lock().expect("no poisoned workers")[i] = Some(result);
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("scope joined all workers")
            .into_iter()
            .map(|slot| slot.expect("every index was claimed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn single_threaded_engine_matches_sequential_prover() {
        let rules = catalog::sound_rules();
        let engine = Engine::with_threads(1);
        let parallel = engine.prove_catalog(&rules);
        assert_eq!(parallel.len(), rules.len());
        for (rule, report) in rules.iter().zip(&parallel) {
            let sequential = crate::api::prove_rule(rule);
            assert_eq!(report.name, sequential.name);
            assert_eq!(report.proved, sequential.proved, "{}", rule.name);
            assert_eq!(report.method, sequential.method, "{}", rule.name);
            assert_eq!(report.steps, sequential.steps, "{}", rule.name);
        }
    }

    #[test]
    fn thread_count_clamps_to_at_least_one() {
        let engine = Engine::with_threads(0);
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn difftest_catalog_preserves_order() {
        let rules: Vec<Rule> = catalog::sound_rules().into_iter().take(4).collect();
        let engine = Engine::with_threads(4);
        let outcomes = engine.difftest_catalog(&rules, 8, 0xDA7A);
        assert_eq!(outcomes.len(), 4);
        for (rule, (name, outcome)) in rules.iter().zip(&outcomes) {
            assert_eq!(rule.name, name);
            assert!(outcome.agreed(), "{name}: {outcome:?}");
        }
    }
}
