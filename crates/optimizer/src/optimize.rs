//! The certified optimization pipeline.
//!
//! [`optimize`] takes a HoTTSQL query, denotes it (Fig. 7),
//! saturates an e-graph under the lemma-compiled rewrites, extracts the
//! cheapest equivalent denotation under the cost model, reads it back
//! into a plan, and — crucially — *certifies* the plan: the input and
//! output denotations are proved equal by the ordinary prover stack
//! (tactics, then equality saturation), and the resulting
//! [`ProofTrace`] ships inside the report. A plan that cannot be
//! certified is never returned: the pipeline falls back to the next
//! cheapest candidate, ultimately the input itself, whose reflexive
//! certificate always exists. `cost_after ≤ cost_before` therefore
//! holds by construction, with both costs measured the same way (on the
//! query denotations, not on intermediate forms). [`Certificate::replay`]
//! re-runs the very derivation that certified the plan, so a replay
//! that disagrees means the report, not the checker, changed.
//!
//! The only state a call keeps is the [`PlanSession`] in its [`PlanCtx`]:
//! normalization keeps none.
//!
//! Candidate plans come from two routes:
//!
//! - **e-graph extraction** — normalize, seed, saturate under budget,
//!   extract the best class representative under [`StatsCost`], read
//!   back via [`hottsql::readback`];
//! - **core minimization** — queries in the conjunctive fragment are
//!   minimized (Chandra–Merlin cores) and rendered back via
//!   [`cq::translate::to_query`], the Cosette-lineage redundant-join
//!   elimination.

use crate::cost::{Cost, StatsCost};
use crate::session::PlanSession;
use egraph::extract::cost_uexpr;
use egraph::solve::{Budget, Outcome, Solver, Stats};
use egraph::MinedRule;
use hottsql::ast::Query;
use hottsql::denote::{denote_closed_query, denote_query};
use hottsql::env::QueryEnv;
use relalg::stats::Statistics;
use relalg::Schema;
use std::fmt;
use std::sync::Arc;
use uninomial::normalize::{normalize, NormCache, Trace};
use uninomial::prove::{prove_eq_with_axioms, Method, ProofTrace};
use uninomial::syntax::{Term, UExpr, VarGen};

/// Optimization options.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimizeOptions {
    /// Saturation budget for the plan search (and for the certificate's
    /// saturation fallback).
    pub budget: Budget,
}

/// Which route produced the chosen plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Cost-based extraction from the saturated e-graph.
    EGraph,
    /// Conjunctive-query core minimization.
    CqMinimize,
    /// No certified cheaper plan was found; the input is returned.
    Unchanged,
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Route::EGraph => write!(f, "e-graph extraction"),
            Route::CqMinimize => write!(f, "CQ core minimization"),
            Route::Unchanged => write!(f, "unchanged"),
        }
    }
}

/// The machine-checkable equivalence certificate shipped with a plan:
/// an ordinary [`ProofTrace`] over the trusted lemma catalog, exactly
/// like the proof-checker's traces.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Which prover closed the equivalence.
    pub method: Method,
    /// The lemma-application trace.
    pub trace: ProofTrace,
}

impl Certificate {
    /// Replays the certificate: re-derives the input ≡ output proof by
    /// the same derivation [`optimize`] certifies with (tactics, then a
    /// fresh saturation solver) and checks that it reproduces this trace
    /// step for step. `false` means the certificate does not match what
    /// the checker derives — a corrupt or forged report, or a plan memo
    /// that diverged from the pipeline it caches.
    pub fn replay(&self, input: &Query, output: &Query, env: &QueryEnv, budget: Budget) -> bool {
        derive(input, output, env, budget)
            .is_some_and(|c| c.method == self.method && c.trace.steps() == self.trace.steps())
    }
}

/// One measured plan candidate — a line of the `--explain` narrative.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateInfo {
    /// Which route produced it.
    pub route: String,
    /// Its measured cost (same cost model as the input).
    pub cost: f64,
    /// Whether this is the candidate that certified and shipped.
    pub chosen: bool,
}

/// The result of optimizing one query.
#[derive(Clone, Debug)]
pub struct OptimizeReport {
    /// The query as given.
    pub input: Query,
    /// The chosen (certified) plan.
    pub output: Query,
    /// Estimated work of the input plan.
    pub cost_before: f64,
    /// Estimated work of the output plan (`≤ cost_before` by
    /// construction).
    pub cost_after: f64,
    /// Which route produced the plan.
    pub route: Route,
    /// Whether the output differs from the input.
    pub improved: bool,
    /// The equivalence certificate (present even when unchanged — the
    /// reflexive proof).
    pub certificate: Certificate,
    /// How the plan-search saturation ended.
    pub sat_outcome: Outcome,
    /// Plan-search saturation statistics.
    pub sat_stats: Stats,
    /// Every candidate measured (cheapest first, input included), with
    /// the shipped one flagged — the route narrative of `--explain`.
    /// Deterministic, so memoized reports replay it byte-identically.
    pub candidates: Vec<CandidateInfo>,
}

/// Failure to optimize: the query does not denote (typing error).
#[derive(Clone, Debug)]
pub struct OptimizeError(pub String);

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot optimize: {}", self.0)
    }
}

impl std::error::Error for OptimizeError {}

/// The session context an [`optimize`] call runs in.
///
/// Borrowed (not owned) so a batch worker can thread its long-lived
/// plan session through many calls ([`PlanCtx::session`]). A missing
/// session is replaced by a fresh one for the call, so
/// `PlanCtx::default()` plans on fresh state; every call runs the same
/// pipeline either way.
#[derive(Debug, Default)]
pub struct PlanCtx<'a> {
    /// Unused: the normalizer keeps no state, and [`optimize`] ignores
    /// this field. It stays only because the `perfbench/` harness still
    /// sets it.
    pub cache: Option<&'a mut NormCache>,
    /// Persistent per-worker session: the plan memo, kept across calls.
    /// Its budget bounds the certificates' saturation fallback; a
    /// missing session certifies under the call's options.
    pub session: Option<&'a mut PlanSession>,
    /// Mined rewrite rules for the plan search (`--mined-rules`). The
    /// rules only widen the e-graph's search space; every candidate they
    /// surface is still certified by the ordinary trusted prover stack,
    /// so an unsound catalog can waste budget but never ship a wrong
    /// plan. `None` (the default) leaves the search bit-identical to a
    /// build without mining.
    pub mined: Option<&'a Arc<Vec<MinedRule>>>,
}

impl<'a> PlanCtx<'a> {
    /// A context on the persistent per-worker [`PlanSession`].
    pub fn session(session: &'a mut PlanSession) -> PlanCtx<'a> {
        PlanCtx {
            cache: None,
            session: Some(session),
            mined: None,
        }
    }

    /// This context with a mined-rule catalog for the plan search.
    pub fn with_mined(self, mined: Option<&'a Arc<Vec<MinedRule>>>) -> PlanCtx<'a> {
        PlanCtx { mined, ..self }
    }
}

/// Optimizes a closed query under the given statistics — the single
/// entry point for fresh and resident optimization.
///
/// Repeated queries are answered from the session's plan memo,
/// byte-identical by determinism of the pipeline. Memoized reports are
/// only valid under the exact configuration they were computed with;
/// a lookup under a different one clears the memo rather than
/// replaying stale costs.
///
/// # Errors
///
/// Returns [`OptimizeError`] when the query fails to type or denote.
pub fn optimize(
    q: &Query,
    env: &QueryEnv,
    stats: &Statistics,
    opts: OptimizeOptions,
    ctx: PlanCtx<'_>,
) -> Result<OptimizeReport, OptimizeError> {
    let _span = telemetry::span("optimizer.query");
    let mut fresh_session;
    let session = match ctx.session {
        Some(session) => session,
        None => {
            fresh_session = PlanSession::new(opts.budget);
            &mut fresh_session
        }
    };
    let mined = ctx.mined.filter(|m| !m.is_empty());
    // Mined rules change the reachable plan space, so reports computed
    // with a different catalog (or none) must not replay; the
    // fingerprint therefore names the catalog. With mining off, the
    // fingerprint is byte-identical to a build without mining.
    let mined_fp = match mined {
        Some(m) => {
            let labels: Vec<&str> = m.iter().map(|r| r.name.as_str()).collect();
            format!("|mined:[{}]", labels.join(","))
        }
        None => String::new(),
    };
    let config = format!("{env:?}|{stats:?}|{opts:?}{mined_fp}");
    if let Some(report) = session.lookup_plan(&config, q) {
        telemetry::count("memo.plan.hit", 1);
        return Ok(report);
    }
    telemetry::count("memo.plan.miss", 1);
    let report = optimize_query_impl(q, env, stats, opts, session.budget(), mined)?;
    session.record_plan(&config, q, &report);
    Ok(report)
}

fn optimize_query_impl(
    q: &Query,
    env: &QueryEnv,
    stats: &Statistics,
    opts: OptimizeOptions,
    cert_budget: Budget,
    mined: Option<&Arc<Vec<MinedRule>>>,
) -> Result<OptimizeReport, OptimizeError> {
    let model = StatsCost::new(stats);
    let input_schema = hottsql::ty::infer_query(q, env, &Schema::Empty)
        .map_err(|e| OptimizeError(e.to_string()))?;
    let mut gen = VarGen::new();
    let denote_span = telemetry::span("optimizer.denote");
    let (t, el) =
        denote_closed_query(q, env, &mut gen).map_err(|e| OptimizeError(e.to_string()))?;
    let cost_before = cost_uexpr(&el.beta_reduce_terms(), &model);
    drop(denote_span);

    // Plan search: normalize, seed, saturate, extract cheapest.
    let mut scratch = Trace::new();
    let nf = normalize(&el, &mut gen, &mut scratch);
    let mut solver = Solver::new(opts.budget);
    if let Some(m) = mined {
        solver.set_mined_rules(Arc::clone(m));
    }
    let root = solver.seed_expr(&nf.reify());
    let (sat_outcome, sat_stats) = {
        let _s = telemetry::span("optimizer.search");
        solver.saturate()
    };
    let mut candidates: Vec<(Query, Route)> = Vec::new();
    if let Some((_, best)) = solver.extract_best(root, &model) {
        let _s = telemetry::span("optimizer.readback");
        if let Some(q2) = readback(&best, &t, env, &mut gen) {
            candidates.push((q2, Route::EGraph));
        }
    }
    // Conjunctive-query core minimization.
    if let Some(cq0) = cq::translate::from_query(q, env) {
        let core = cq::minimize::minimize(&cq0);
        if core.size() < cq0.size() {
            if let Some(q2) = cq::translate::to_query(&core, env) {
                candidates.push((q2, Route::CqMinimize));
            }
        }
    }
    // Measure every candidate the same way the input was measured,
    // discarding plans that fail to type at the input schema. The input
    // goes FIRST: the sort is stable, so an equal-cost rewritten plan
    // never displaces it — no plan churn without a strict cost win.
    let mut measured: Vec<(Cost, Query, Route)> = vec![(cost_before, q.clone(), Route::Unchanged)];
    for (cand, route) in candidates {
        if hottsql::ty::infer_query(&cand, env, &Schema::Empty).ok() != Some(input_schema.clone()) {
            continue;
        }
        if let Some(cost) = measure(&cand, env, &model) {
            measured.push((cost, cand, route));
        }
    }
    measured.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    let considered: Vec<CandidateInfo> = measured
        .iter()
        .map(|(cost, _, route)| CandidateInfo {
            route: route.to_string(),
            cost: cost.work,
            chosen: false,
        })
        .collect();

    // Ship the cheapest candidate that certifies; the input always
    // does (reflexive proof), so the loop cannot fall through.
    for (k, (cost, cand, route)) in measured.into_iter().enumerate() {
        let Some(certificate) = certify(q, &cand, env, cert_budget) else {
            continue;
        };
        let route = if cand == *q { Route::Unchanged } else { route };
        let mut candidates = considered;
        candidates[k].chosen = true;
        // Holds by construction (the input sorts into the list and the
        // sort is stable); reported unclamped so the downstream gates
        // can actually catch a regression here.
        debug_assert!(cost.work <= cost_before.work);
        return Ok(OptimizeReport {
            improved: route != Route::Unchanged,
            input: q.clone(),
            output: cand,
            cost_before: cost_before.work,
            cost_after: cost.work,
            route,
            certificate,
            sat_outcome,
            sat_stats,
            candidates,
        });
    }
    Err(OptimizeError(
        "reflexive certificate unexpectedly failed".into(),
    ))
}

/// Extraction → normal form → query syntax. Re-normalizing the
/// extracted expression puts it into the shape the readback fragment
/// covers (and is itself a trusted, lemma-audited step).
fn readback(best: &UExpr, t: &uninomial::Var, env: &QueryEnv, gen: &mut VarGen) -> Option<Query> {
    gen.reserve_above(best.max_var_id());
    let mut scratch = Trace::new();
    let nf = normalize(best, gen, &mut scratch);
    hottsql::readback::query_of_spnf(&nf, t, env)
}

/// Costs a candidate plan exactly the way the input was costed: on its
/// β-reduced denotation.
fn measure(q: &Query, env: &QueryEnv, model: &StatsCost) -> Option<Cost> {
    let mut gen = VarGen::new();
    let (_, e) = denote_closed_query(q, env, &mut gen).ok()?;
    Some(cost_uexpr(&e.beta_reduce_terms(), model))
}

/// Proves `input ≡ output` with the ordinary prover stack — tactics,
/// then saturation on a fresh solver under `budget` — and packages the
/// trace as a [`Certificate`]. Deterministic: the same pair always
/// yields the same trace, which is what makes certificates replayable.
fn certify(input: &Query, output: &Query, env: &QueryEnv, budget: Budget) -> Option<Certificate> {
    let _span = telemetry::span("optimizer.certify");
    derive(input, output, env, budget)
}

/// The derivation [`certify`] and [`Certificate::replay`] share: denotes
/// `input` and `output` over one output tuple variable, then proves the
/// two denotations equal by the tactics, falling back to saturation.
fn derive(input: &Query, output: &Query, env: &QueryEnv, budget: Budget) -> Option<Certificate> {
    let mut gen = VarGen::new();
    let (t, el) = denote_closed_query(input, env, &mut gen).ok()?;
    let er = denote_query(
        output,
        env,
        &Schema::Empty,
        &Term::Unit,
        &Term::var(&t),
        &mut gen,
    )
    .ok()?;
    let proof = prove_eq_with_axioms(&el, &er, &[], &mut gen)
        .ok()
        .or_else(|| egraph::prove_eq_saturate(&el, &er, &[], &mut gen, budget).ok())?;
    Some(Certificate {
        method: proof.method(),
        trace: proof.trace().clone(),
    })
}
