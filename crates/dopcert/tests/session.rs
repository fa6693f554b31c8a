//! Determinism of persistent sessions: verdicts, report order, and
//! proof traces from one batch — where every worker's session persists
//! across its items — must be **bit-identical** to fresh state per
//! item, on both the Fig. 8 catalog and seeded generated CQ corpora,
//! and every certificate a batch optimization ships must still replay.
//! The reference throughout runs each item through its own engine
//! call, so nothing is shared between items.

use dopcert::api::Prover;
use dopcert::catalog;
use dopcert::engine::{Engine, EngineConfig};
use dopcert::prove::{ProveOptions, SaturateMode, VerifyMethod};
use egraph::Budget;
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use proptest::prelude::*;

fn engine(saturate: SaturateMode) -> Engine {
    Engine::with_config(EngineConfig {
        prove: ProveOptions {
            saturate,
            ..ProveOptions::default()
        },
        ..EngineConfig::default()
    })
}

/// The fresh-state reference: each item through its own `batch` call.
fn one_by_one<T, R>(items: &[T], batch: impl Fn(&[T]) -> Vec<R>) -> Vec<R> {
    items
        .iter()
        .flat_map(|item| batch(std::slice::from_ref(item)))
        .collect()
}

/// A small seeded corpus of equivalence goals with repetition (the
/// traffic shape sessions amortize), rendered as queries.
fn corpus(seed: u64, goals: usize, pool: usize) -> (QueryEnv, Vec<(Query, Query)>) {
    use relalg::{BaseType, Schema};
    let binary = Schema::flat([BaseType::Int, BaseType::Int]);
    let env = QueryEnv::new()
        .with_table("R", binary.clone())
        .with_table("S", binary.clone())
        .with_table("T", binary);
    let mut base = Vec::new();
    for (a, b) in cq::generate::equivalent_pairs(seed, pool) {
        if let (Some(qa), Some(qb)) = (
            cq::translate::to_query(&a, &env),
            cq::translate::to_query(&b, &env),
        ) {
            base.push((qa, qb));
        }
    }
    let mut out = Vec::with_capacity(goals);
    let mut state = seed | 1;
    for _ in 0..goals {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push(base[(state >> 33) as usize % base.len()].clone());
    }
    (env, out)
}

#[test]
fn catalog_session_reports_are_identical_to_fresh_mode() {
    for saturate in [SaturateMode::Fallback, SaturateMode::Only] {
        let rules = catalog::sound_rules();
        let engine = engine(saturate);
        let with = engine.prove_catalog(&rules);
        let without = one_by_one(&rules, |rules| engine.prove_catalog(rules));
        assert_eq!(with.len(), without.len(), "report order and length");
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(a.name, b.name, "report order");
            assert_eq!(a.proved, b.proved, "{}", a.name);
            assert_eq!(a.method, b.method, "{}", a.name);
            assert_eq!(a.steps, b.steps, "{}", a.name);
            assert_eq!(a.attempted, b.attempted, "{}", a.name);
            assert_eq!(a.failure, b.failure, "{}", a.name);
        }
    }
}

#[test]
fn repeated_rule_through_one_session_replays_the_same_report() {
    // The same rule posed twice through one session: the second answer
    // comes from the memo and must be identical (wall clock aside).
    let rules = catalog::sound_rules();
    let opts = ProveOptions {
        saturate: SaturateMode::Only,
        ..ProveOptions::default()
    };
    let rule = rules
        .iter()
        .find(|r| r.name == "union-slct-distr")
        .expect("catalog rule");
    let mut prover = Prover::new(opts);
    let first = prover.prove_rule(rule);
    let second = prover.prove_rule(rule);
    assert!(first.proved);
    assert_eq!(first.method, second.method);
    assert_eq!(first.steps, second.steps);
    assert_eq!(prover.memo_hits(), 1, "second answer from the memo");
    // And the memoized answer equals a derivation on fresh state.
    let fresh = Prover::new(opts).prove_rule(rule);
    assert_eq!(fresh.method, second.method);
    assert_eq!(fresh.steps, second.steps);
}

#[test]
fn corpus_session_verdicts_and_order_match_fresh_mode() {
    let (env, pairs) = corpus(0xC0FFEE, 60, 16);
    let engine = engine(SaturateMode::Fallback);
    let with = engine.prove_pairs(&env, &pairs);
    let without = one_by_one(&pairs, |pairs| engine.prove_pairs(&env, pairs));
    assert_eq!(with, without, "verdicts, methods, steps, and order");
    assert!(with.iter().all(|r| r.proved), "corpus goals all prove");
    assert!(with.iter().all(|r| matches!(
        r.method,
        Some(VerifyMethod::Tactic(_) | VerifyMethod::Saturation)
    )));
}

#[test]
fn optimize_batch_session_reports_are_identical_and_certificates_replay() {
    use relalg::stats::Statistics;
    let (env, pairs) = corpus(0x0971CA, 24, 12);
    let queries: Vec<Query> = pairs.into_iter().map(|(a, _)| a).collect();
    let stats = Statistics::new().with_rows("R", 1e5).with_rows("S", 2e4);
    let engine = engine(SaturateMode::Fallback);
    let with = engine.optimize_batch(&env, &stats, &queries);
    let without = one_by_one(&queries, |queries| {
        engine.optimize_batch(&env, &stats, queries)
    });
    assert_eq!(with.len(), without.len());
    for ((q, a), b) in queries.iter().zip(&with).zip(&without) {
        let (a, b) = (
            a.as_ref().expect("corpus optimizes"),
            b.as_ref().expect("corpus optimizes"),
        );
        assert_eq!(a.output, b.output, "{q}");
        assert_eq!(a.cost_before, b.cost_before, "{q}");
        assert_eq!(a.cost_after, b.cost_after, "{q}");
        assert_eq!(a.route, b.route, "{q}");
        assert_eq!(a.improved, b.improved, "{q}");
        assert_eq!(a.certificate.method, b.certificate.method, "{q}");
        assert_eq!(
            a.certificate.trace.steps(),
            b.certificate.trace.steps(),
            "{q}: certificate traces must be bit-identical"
        );
        assert_eq!(a.sat_outcome, b.sat_outcome, "{q}");
        assert_eq!(a.sat_stats, b.sat_stats, "{q}");
        assert!(
            a.certificate
                .replay(&a.input, &a.output, &env, Budget::default()),
            "{q}: session-extracted certificate must replay"
        );
    }
}

#[test]
fn plan_session_rebind_under_new_statistics_invalidates_the_memo() {
    use optimizer::{optimize, OptimizeOptions, PlanCtx, PlanSession};
    use relalg::stats::Statistics;
    let (env, pairs) = corpus(0x57A1E, 1, 4);
    let q = pairs[0].0.clone();
    let opts = OptimizeOptions::default();
    let mut session = PlanSession::new(opts.budget);
    let small = Statistics::new().with_default_rows(10.0);
    let large = Statistics::new().with_default_rows(1e6);
    let a = optimize(&q, &env, &small, opts, PlanCtx::session(&mut session)).unwrap();
    let b = optimize(&q, &env, &large, opts, PlanCtx::session(&mut session)).unwrap();
    assert!(
        b.cost_before > a.cost_before,
        "a session reused under new statistics must not replay stale costs \
         ({} vs {})",
        b.cost_before,
        a.cost_before
    );
    // And rebinding back must still be self-consistent.
    let c = optimize(&q, &env, &small, opts, PlanCtx::session(&mut session)).unwrap();
    assert_eq!(a.cost_before, c.cost_before);
    assert_eq!(a.output, c.output);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // For any corpus seed, batch proving is report-identical to fresh
    // state per goal.
    #[test]
    fn prop_session_reports_match_fresh_for_any_seed(seed in 0u64..1_000_000) {
        let (env, pairs) = corpus(seed, 20, 8);
        let engine = engine(SaturateMode::Fallback);
        let with = engine.prove_pairs(&env, &pairs);
        let without = one_by_one(&pairs, |pairs| engine.prove_pairs(&env, pairs));
        prop_assert_eq!(with, without);
    }
}
