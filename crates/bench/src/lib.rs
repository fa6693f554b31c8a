//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each experiment has a printable harness binary (`fig8`, `fig9`,
//! `baseline`) that emits the same rows/series the paper reports; the
//! `scale` binary emits the versioned BENCH series that `scale diff`
//! gates. This library holds the workload definitions they share.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use cq::Cq;
use dopcert::api::prove_rule;
use dopcert::engine::Engine;
use dopcert::prove::{fig8_table, Fig8Row, RuleReport};
use std::time::{Duration, Instant};

/// Runs the full Fig. 8 experiment on the parallel batch engine:
/// proves every sound rule and returns the per-rule reports (catalog
/// order; verdicts identical to the sequential path).
pub fn fig8_reports() -> Vec<RuleReport> {
    Engine::new().prove_catalog(&dopcert::catalog::sound_rules())
}

/// Renders the Fig. 8 table (category, rule count, average proof steps —
/// the LOC analog — and average time).
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>12} {:>18} {:>14}\n",
        "Category", "No. of rules", "Avg. steps (LOC)", "Avg. time (µs)"
    ));
    let mut total = 0;
    let mut weighted_steps = 0.0;
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>12} {:>18.1} {:>14.0}\n",
            r.category.name(),
            r.proved,
            r.avg_steps,
            r.avg_micros
        ));
        total += r.proved;
        weighted_steps += r.avg_steps * r.proved as f64;
    }
    out.push_str(&format!(
        "{:<20} {:>12} {:>18.1}\n",
        "Total",
        total,
        if total > 0 {
            weighted_steps / total as f64
        } else {
            0.0
        }
    ));
    out
}

/// Computes the Fig. 8 table end-to-end.
pub fn fig8() -> (Vec<RuleReport>, Vec<Fig8Row>) {
    let reports = fig8_reports();
    let rows = fig8_table(&reports);
    (reports, rows)
}

/// One measured point of a scaling series.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Instance-size parameter.
    pub size: u32,
    /// Wall-clock time.
    pub time: Duration,
    /// The decision reached (for sanity display).
    pub answer: bool,
}

/// Measures one closure, returning its duration and result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Renders a telemetry snapshot as one JSON object for BENCH lines:
/// every span histogram (count, total and p50/p99 in ns) and every
/// counter, sorted by name — the phase-breakdown fields committed to
/// `bench-results/`.
pub fn phase_breakdown_json(snap: &telemetry::Metrics) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"spans\":{");
    for (i, (name, h)) in snap.hists().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            h.count(),
            h.sum(),
            h.p50(),
            h.p99()
        );
    }
    out.push_str("},\"counters\":{");
    for (i, (name, v)) in snap.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("}}");
    out
}

/// Fig. 9 row 1 (NP-complete set containment): time to decide whether a
/// random graph query contains a `k`-clique pattern, for growing `k`.
/// The worst-case blowup is exponential in `k`.
pub fn fig9_containment_series(ks: &[u32], graph_vars: u32) -> Vec<ScalePoint> {
    ks.iter()
        .map(|&k| {
            let pattern = cq::generate::clique(k);
            // A sparse-ish graph so the backtracking search must work.
            let graph = cq::generate::random_graph_query(42, graph_vars, 0.3);
            let (time, answer) = timed(|| cq::containment::contained_in(&graph, &pattern));
            ScalePoint {
                size: k,
                time,
                answer,
            }
        })
        .collect()
}

/// Fig. 9 row "bag equivalence" (graph isomorphism): time to decide bag
/// equivalence of a random CQ against an α-renamed shuffled copy, for
/// growing size — easy instances stay fast.
pub fn fig9_bag_series(sizes: &[u32]) -> Vec<ScalePoint> {
    sizes
        .iter()
        .map(|&n| {
            let q = cq::generate::random_cq(7, n, n.max(2) / 2 + 1, &["R", "S", "T"]);
            let copy = cq::generate::shuffled_copy(&q, 99);
            let (time, answer) = timed(|| cq::bag::bag_equivalent(&q, &copy));
            ScalePoint {
                size: n,
                time,
                answer,
            }
        })
        .collect()
}

/// Fig. 9 row 2 (UCQ containment): per-disjunct CQ containment over
/// unions of growing width.
pub fn fig9_ucq_series(widths: &[u32]) -> Vec<ScalePoint> {
    widths
        .iter()
        .map(|&w| {
            let a = cq::ucq::Ucq::new((0..w).map(|i| cq::generate::boolean_chain(i + 2)).collect());
            let b = cq::ucq::Ucq::new((0..w).map(|i| cq::generate::boolean_chain(i + 1)).collect());
            let (time, answer) = timed(|| cq::ucq::ucq_contained_in(&a, &b));
            ScalePoint {
                size: w,
                time,
                answer,
            }
        })
        .collect()
}

/// CQ minimization scaling (the decidable-fragment workhorse): star
/// queries of growing width collapse to one atom.
pub fn minimize_series(sizes: &[u32]) -> Vec<ScalePoint> {
    sizes
        .iter()
        .map(|&n| {
            let q = cq::generate::star(n);
            let (time, core) = timed(|| cq::minimize::minimize(&q));
            ScalePoint {
                size: n,
                time,
                answer: core.size() == 1,
            }
        })
        .collect()
}

/// Renders a scaling series as a printable table.
pub fn render_series(title: &str, unit: &str, points: &[ScalePoint]) -> String {
    let mut out = format!(
        "{title}\n{:<10} {:>14} {:>8}\n",
        unit, "time (µs)", "answer"
    );
    for p in points {
        out.push_str(&format!(
            "{:<10} {:>14.1} {:>8}\n",
            p.size,
            p.time.as_secs_f64() * 1e6,
            p.answer
        ));
    }
    out
}

/// The baseline comparison (Sec. 2's "65 LOC vs 10 LOC" claim, made
/// quantitative): proof-trace length for commutativity of selection in
/// our semantics, and the cost of list-permutation equivalence checks vs
/// normalized-multiset equality on instances of growing size.
pub fn baseline_proof_steps() -> usize {
    let rules = dopcert::catalog::sound_rules();
    let rule = rules
        .iter()
        .find(|r| r.name == "conj-slct-split")
        .expect("commutativity-of-selection rule present");
    let report = prove_rule(rule);
    assert!(report.proved, "baseline rule must prove");
    report.steps
}

/// Timing one bag-equivalence check over `n`-row outputs, list semantics
/// (sort-based) vs K-relation (already-normalized map equality).
pub fn baseline_equivalence_times(n: u64) -> (Duration, Duration) {
    use relalg::{BaseType, Relation, Schema, Tuple};
    let schema = Schema::flat([BaseType::Int, BaseType::Int]);
    let rows: Vec<Tuple> = (0..n)
        .map(|i| Tuple::pair(Tuple::int((i % 17) as i64), Tuple::int((i % 23) as i64)))
        .collect();
    let mut reversed = rows.clone();
    reversed.reverse();
    let (list_time, list_eq) = timed(|| listsem::bag_equal_lists(&rows, &reversed));
    assert!(list_eq);
    let ra = Relation::from_tuples(schema.clone(), rows).expect("conforming rows");
    let rb = Relation::from_tuples(schema, reversed).expect("conforming rows");
    let (rel_time, rel_eq) = timed(|| ra.bag_eq(&rb));
    assert!(rel_eq);
    (list_time, rel_time)
}

/// Proves the Fig. 8 sound catalog with explicit verification options
/// (the `saturation_vs_tactics` comparison entry point).
pub fn fig8_reports_with(opts: dopcert::prove::ProveOptions) -> Vec<RuleReport> {
    Engine::with_prove_options(opts).prove_catalog(&dopcert::catalog::sound_rules())
}

/// Decides a seeded batch of equivalent-by-construction CQ pairs with
/// the shared-index batch decider, returning how many were (correctly)
/// decided equivalent. This is the N-thousand-pair scale workload that
/// makes batching and indexing costs visible.
pub fn decide_cq_pairs(pairs: &[(Cq, Cq)]) -> usize {
    decide_cq_pairs_stats(pairs).0
}

/// [`decide_cq_pairs`] that also reports the batch decider's
/// [`cq::containment::SearchStats`] — the `containment_scale` series.
pub fn decide_cq_pairs_stats(pairs: &[(Cq, Cq)]) -> (usize, cq::containment::SearchStats) {
    let mut queries = Vec::with_capacity(pairs.len() * 2);
    let mut index_pairs = Vec::with_capacity(pairs.len());
    for (a, b) in pairs {
        queries.push(a);
        queries.push(b);
        index_pairs.push((queries.len() - 2, queries.len() - 1));
    }
    let (verdicts, stats) = cq::containment::equivalent_set_batch_stats_ref(&queries, &index_pairs);
    (verdicts.into_iter().filter(|&eq| eq).count(), stats)
}

/// The certified-optimizer scale corpus: a seeded batch of generated
/// conjunctive queries (both sides of every equivalent pair) rendered
/// as `DISTINCT SELECT` queries over the binary `R`/`S`/`T` vocabulary.
pub fn optimizer_corpus(seed: u64, n: usize) -> (hottsql::env::QueryEnv, Vec<hottsql::ast::Query>) {
    use relalg::{BaseType, Schema};
    let binary = Schema::flat([BaseType::Int, BaseType::Int]);
    let env = hottsql::env::QueryEnv::new()
        .with_table("R", binary.clone())
        .with_table("S", binary.clone())
        .with_table("T", binary);
    // Over-generate: unsafe heads (a head variable absent from the
    // body) have no query rendering and are skipped.
    let mut queries = Vec::with_capacity(n);
    for (a, b) in cq::generate::equivalent_pairs(seed, n) {
        for side in [&a, &b] {
            if queries.len() < n {
                if let Some(q) = cq::translate::to_query(side, &env) {
                    queries.push(q);
                }
            }
        }
    }
    (env, queries)
}

/// Aggregate outcome of optimizing a corpus.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimizeSummary {
    /// Queries optimized.
    pub queries: usize,
    /// Plans that genuinely changed.
    pub improved: usize,
    /// Total estimated work before.
    pub cost_before: f64,
    /// Total estimated work after (`≤ cost_before`).
    pub cost_after: f64,
}

/// Optimizes a corpus through the parallel batch engine under the
/// given saturation budget, checking the no-worse invariant on every
/// report.
pub fn optimize_corpus(
    env: &hottsql::env::QueryEnv,
    queries: &[hottsql::ast::Query],
    budget: egraph::Budget,
) -> OptimizeSummary {
    let engine = Engine::with_config(dopcert::engine::EngineConfig {
        prove: dopcert::prove::ProveOptions {
            budget,
            ..Default::default()
        },
        ..Default::default()
    });
    let stats = relalg::stats::Statistics::new();
    let mut summary = OptimizeSummary::default();
    for report in engine.optimize_batch(env, &stats, queries) {
        let r = report.expect("corpus queries optimize");
        assert!(r.cost_after <= r.cost_before, "{}: costlier plan", r.input);
        summary.queries += 1;
        summary.improved += usize::from(r.improved);
        summary.cost_before += r.cost_before;
        summary.cost_after += r.cost_after;
    }
    summary
}

/// Corpus for the `containment_scale` series: `n` equivalent CQ pairs
/// decorated so the containment search's per-relation bitset indexes
/// have something to prune. Each side gains three same-relation `K`
/// atoms over its own head variable — one unary, two binary with
/// *different* constants — so every `K` goal atom faces candidates that
/// mismatch on arity or on a constant position. Both sides get the same
/// decoration, so pair equivalence is preserved (the α-rename between
/// them extends trivially). Returns the flat query list plus the
/// `(lhs, rhs)` index pairs for the batch decider.
pub fn containment_corpus(seed: u64, n: usize) -> (Vec<Cq>, Vec<(usize, usize)>) {
    use cq::{CqAtom, CqTerm};
    use relalg::Value;
    let pairs = cq::generate::equivalent_pairs(seed, n);
    let mut queries = Vec::with_capacity(2 * n);
    let mut index_pairs = Vec::with_capacity(n);
    for (i, (a, b)) in pairs.into_iter().enumerate() {
        let c1 = Value::Int((i % 4) as i64);
        let c2 = Value::Int(((i % 4) + 4) as i64);
        let decorate = |mut q: Cq| {
            let head = q.head[0].clone();
            q.atoms.push(CqAtom::new(
                "K",
                vec![head.clone(), CqTerm::Const(c1.clone())],
            ));
            q.atoms.push(CqAtom::new(
                "K",
                vec![head.clone(), CqTerm::Const(c2.clone())],
            ));
            q.atoms.push(CqAtom::new("K", vec![head]));
            q
        };
        queries.push(decorate(a));
        queries.push(decorate(b));
        index_pairs.push((2 * i, 2 * i + 1));
    }
    (queries, index_pairs)
}

/// Corpus for the `session_vs_fresh` series: `goals` equivalence goals
/// sampled *with repetition* from a pool of `pool` generated equivalent
/// CQ pairs rendered as queries — production query traffic repeats
/// heavily, and repetition is exactly what a persistent session
/// amortizes. Returns the environment, the goal list, and the number of
/// distinct pairs actually in play.
pub fn session_corpus(
    seed: u64,
    goals: usize,
    pool: usize,
) -> (
    hottsql::env::QueryEnv,
    Vec<(hottsql::ast::Query, hottsql::ast::Query)>,
    usize,
) {
    use relalg::{BaseType, Schema};
    let binary = Schema::flat([BaseType::Int, BaseType::Int]);
    let env = hottsql::env::QueryEnv::new()
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
    assert!(!base.is_empty(), "pool must render at least one pair");
    // Sample with repetition through a seeded LCG (no third-party RNG).
    let mut out = Vec::with_capacity(goals);
    let mut state = seed | 1;
    for _ in 0..goals {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = (state >> 33) as usize % base.len();
        out.push(base[idx].clone());
    }
    let distinct = base.len();
    (env, out, distinct)
}

/// Batch-proves a pair corpus through the engine, returning the
/// reports. With `session` the whole corpus is one batch, so every
/// worker's session persists across its goals; without it each pair
/// gets its own engine call on fresh state — the reference the session
/// path must match.
pub fn prove_corpus(
    env: &hottsql::env::QueryEnv,
    pairs: &[(hottsql::ast::Query, hottsql::ast::Query)],
    session: bool,
) -> Vec<dopcert::engine::PairReport> {
    let engine = Engine::new();
    if session {
        return engine.prove_pairs(env, pairs);
    }
    pairs
        .iter()
        .flat_map(|pair| engine.prove_pairs(env, std::slice::from_ref(pair)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_proves_everything() {
        let (reports, rows) = fig8();
        assert_eq!(reports.len(), 23);
        assert!(reports.iter().all(|r| r.proved));
        let rendered = render_fig8(&rows);
        assert!(rendered.contains("Magic Set"), "{rendered}");
        assert!(rendered.contains("Total"), "{rendered}");
    }

    #[test]
    fn fig9_series_shapes() {
        let c = fig9_containment_series(&[2, 3], 6);
        assert_eq!(c.len(), 2);
        // A k-clique restricts to a (k-1)-clique, so answers only go
        // from true to false as k grows.
        let c = fig9_containment_series(&[2, 3, 4, 5], 9);
        assert!(c.windows(2).all(|w| w[0].answer || !w[1].answer));
        let b = fig9_bag_series(&[2, 4, 8, 16]);
        assert!(b.iter().all(|p| p.answer), "shuffled copies are equivalent");
        let u = fig9_ucq_series(&[1, 2, 4, 8]);
        assert!(u.iter().all(|p| p.answer), "longer chains are contained");
        let m = minimize_series(&[3, 4, 5, 8, 12]);
        assert!(m.iter().all(|p| p.answer), "stars minimize to one atom");
    }

    #[test]
    fn baseline_measures() {
        assert!(baseline_proof_steps() >= 1);
        for n in [500, 1_000, 10_000] {
            let (list, rel) = baseline_equivalence_times(n);
            // Both must complete; no timing assertion (CI noise), just sanity.
            assert!(list.as_nanos() > 0 && rel.as_nanos() > 0);
        }
    }

    #[test]
    fn cq_pair_batch_decides_all_equivalent() {
        for (seed, n) in [(7, 200), (0x5CA1E, 1000), (0x5CA1E, 2000)] {
            let pairs = cq::generate::equivalent_pairs(seed, n);
            assert_eq!(decide_cq_pairs(&pairs), n);
        }
    }

    #[test]
    fn saturation_mode_proves_the_catalog() {
        use dopcert::prove::{ProveOptions, SaturateMode, VerifyMethod};
        for saturate in [
            SaturateMode::Off,
            SaturateMode::Only,
            SaturateMode::Fallback,
        ] {
            let reports = fig8_reports_with(ProveOptions {
                saturate,
                ..ProveOptions::default()
            });
            assert!(reports.iter().all(|r| r.proved), "{saturate:?}");
            if saturate == SaturateMode::Only {
                assert!(reports
                    .iter()
                    .any(|r| r.method == Some(VerifyMethod::Saturation)));
            }
        }
    }
}
