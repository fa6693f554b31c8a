//! `prove_distinct`: single-goal `Prove` requests, one after another on
//! one thread, through a resident `api::Workspace` — a daemon worker's
//! path without TCP. No goal repeats, so every request pays for the fresh
//! pipeline and the memos answer nothing. The workspace is replaced every
//! [`WORKSPACE_GOALS`] goals, and the thread moves between CPUs (see
//! [`cpu`]).
//!
//! The traced run replays the same requests through [`shadow_prove`],
//! which drives the same pipeline from outside through each layer's
//! public functions, with a span around every call.

use crate::corpus::{self, ProveGoal};
use crate::cpu;
use crate::report::{self, Outcome};
use crate::span::{self, span};
use crate::verdict::{judge_goal, Judgement};
use crate::{Args, SetupTimer};
use dopcert::api::{GoalReport, Request, RequestOptions, Response, Workspace};
use dopcert::prove::{ProveOptions, VerifyMethod};
use dopcert::rule::RuleInstance;
use dopcert::script::{parse_script, GoalOutcome};
use dopcert::session::ProveSession;
use hottsql::env::QueryEnv;
use relalg::Schema;
use std::time::Instant;
use uninomial::lemmas::Lemma;
use uninomial::normalize::{normalize_with_cache, NormCache, Trace};
use uninomial::prove::{Method, ProveError};

/// Goals excluded from measurement at the start of a run (one block).
const WARMUP_GOALS: usize = corpus::BLOCK_LEN;

/// Goals per second of run that set-up generates. The measured rate is
/// 400–600 on the reference machine; a run that gets further extends the
/// corpus with its clock stopped.
const GOALS_PER_SECOND: usize = 500;

/// Goals per second of run the traced run replays.
const TRACED_GOALS_PER_SECOND: usize = 100;

/// Goals one workspace serves before the run replaces it with a fresh
/// one, with the clock stopped. The resident memos grow with every
/// distinct goal (about 120 MB per 1 000), and requests slow as they do,
/// so without a bound a run's rate and memory would depend on how many
/// goals it got through.
const WORKSPACE_GOALS: usize = 2000;

pub fn run(args: &Args) -> Outcome {
    let n = WARMUP_GOALS + GOALS_PER_SECOND * args.seconds as usize;
    let blocks_per_part = n.div_ceil(corpus::BLOCK_LEN).div_ceil(SetupTimer::PARTS);
    let mut stream = corpus::ProveStream::new(args.seed);
    let mut goals = Vec::new();
    let setup_s = SetupTimer::in_parts(|| {
        for _ in 0..blocks_per_part {
            stream.block(&mut goals);
        }
    });
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.note("goals_generated", goals.len());
    out.note("threads", 1);
    if args.trace {
        let (warmup, measured) = goals.split_at(WARMUP_GOALS);
        traced(args, warmup, measured, &mut out);
    } else {
        untraced(args, &mut stream, goals, setup_s, &mut out);
    }
    out.note("refute_candidates_dropped", stream.dropped);
    out
}

fn request(goal: &ProveGoal) -> Request {
    Request::Prove {
        script: goal.script.clone(),
        opts: RequestOptions::default(),
    }
}

/// Tallies judgements into the outcome.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub decided: usize,
    pub failed: usize,
}

impl Tally {
    pub fn add(&mut self, j: Judgement) {
        self.attempted += 1;
        match j {
            Judgement::Decided => self.decided += 1,
            Judgement::Undecided => {}
            Judgement::Failed => self.failed += 1,
        }
    }
}

fn untraced(
    args: &Args,
    stream: &mut corpus::ProveStream,
    mut goals: Vec<ProveGoal>,
    setup_s: f64,
    out: &mut Outcome,
) {
    let mut cpus = cpu::Rotation::new();
    out.note(
        "cpu_rotation",
        format!("{} CPUs, {:?} each", cpus.cpus(), cpu::Rotation::PERIOD),
    );
    let mut ws = Workspace::new(RequestOptions::default());
    for g in &goals[..WARMUP_GOALS] {
        cpus.tick();
        std::hint::black_box(ws.execute(&request(g)).render());
    }
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut next = WARMUP_GOALS;
    let (mut served, mut memo_hits, mut replaced) = (WARMUP_GOALS, 0, 0);
    // Time spent extending the corpus or replacing the workspace mid-run,
    // kept off the clock.
    let mut paused = std::time::Duration::ZERO;
    let mut extended = 0;
    let start = Instant::now();
    while (start.elapsed() - paused).as_secs_f64() < args.seconds as f64 {
        if next == goals.len() {
            let t = Instant::now();
            stream.block(&mut goals);
            extended += 1;
            paused += t.elapsed();
        }
        if served == WORKSPACE_GOALS {
            let t = Instant::now();
            memo_hits += ws.memo_hits();
            ws = Workspace::new(RequestOptions::default());
            (served, replaced) = (0, replaced + 1);
            paused += t.elapsed();
        }
        served += 1;
        let g = &goals[next];
        next += 1;
        cpus.tick();
        let t = Instant::now();
        let lines = ws.execute(&request(g)).render();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.push(ms);
        by_kind.entry(g.kind.name()).or_default().push(ms);
        tally.add(judge_goal(&lines, g.equivalent));
    }
    let wall = (start.elapsed() - paused).as_secs_f64();
    out.note("corpus_blocks_added_mid_run", extended);
    out.note("workspaces_replaced", replaced);
    if memo_hits + ws.memo_hits() != 0 {
        // Distinct goals must never be answered from a memo.
        out.correct = false;
    }
    for (kind, ms) in &by_kind {
        out.note(
            match *kind {
                "set" => "p50_ms_set",
                "bag" => "p50_ms_bag",
                _ => "p50_ms_refute",
            },
            format!(
                "{:.3} p99 {:.3} max {:.3} (n={})",
                report::median(ms),
                report::percentile(ms, 0.99),
                report::percentile(ms, 1.0),
                ms.len()
            ),
        );
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.metric("setup_s", setup_s, "s");
    out.metric("requests_per_s", latencies.len() as f64 / wall, "1/s");
    out.metric("latency_p50_ms", report::percentile(&latencies, 0.50), "ms");
    out.metric("latency_p90_ms", report::percentile(&latencies, 0.90), "ms");
    out.metric("latency_p99_ms", report::percentile(&latencies, 0.99), "ms");
    out.metric(
        "decided_ratio",
        tally.decided as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    // No plans ship on this workload: the ratio of two empty sums is 1.
    out.metric("plan_cost_ratio", 1.0, "ratio");
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
}

/// Counters the shadow pipeline keeps while it runs.
#[derive(Default, Debug)]
pub struct LayerCounts {
    pub cq_decided: u64,
    pub tactic_attempts: u64,
    pub tactic_proved: u64,
    pub saturate_calls: u64,
    pub saturate_proved: u64,
    pub hunts: u64,
    pub witnesses: u64,
    pub instances_evaluated: u64,
}

/// State the shadow pipeline keeps across requests: the same cache and
/// session a resident `Prover` holds.
pub struct Shadow {
    cache: NormCache,
    session: ProveSession,
    opts: ProveOptions,
    pub counts: LayerCounts,
}

impl Shadow {
    pub fn new() -> Shadow {
        let opts = RequestOptions::default().prove_options(Default::default());
        Shadow {
            cache: NormCache::new(),
            session: ProveSession::new(opts),
            opts,
            counts: LayerCounts::default(),
        }
    }
}

fn traced(args: &Args, warmup: &[ProveGoal], measured: &[ProveGoal], out: &mut Outcome) {
    let n = (TRACED_GOALS_PER_SECOND * args.seconds as usize).min(measured.len());
    let goals = &measured[..n];

    // Each request runs untraced on the real resident path, then traced
    // through the shadow pipeline on its own state, so drift over the run
    // touches both sides alike.
    let mut cpus = cpu::Rotation::new();
    let mut ws = Workspace::new(RequestOptions::default());
    let mut shadow = Shadow::new();
    for g in warmup {
        ws.execute(&request(g));
        shadow_prove(&g.script, &mut shadow);
    }
    shadow.counts = LayerCounts::default();
    let mut hits_before = ws.memo_hits();
    let mut memo_hits = 0;
    let mut untraced_ms = 0.0;
    let mut tally = Tally::default();
    for (i, g) in goals.iter().enumerate() {
        if (WARMUP_GOALS + i).is_multiple_of(WORKSPACE_GOALS) {
            // Both sides start over, as the untraced run does.
            memo_hits += ws.memo_hits() - hits_before;
            ws = Workspace::new(RequestOptions::default());
            let counts = std::mem::take(&mut shadow.counts);
            shadow = Shadow::new();
            shadow.counts = counts;
            hits_before = 0;
        }
        cpus.tick();
        let t = Instant::now();
        let real = ws.execute(&request(g)).render();
        untraced_ms += t.elapsed().as_secs_f64() * 1e3;
        span::set_enabled(true);
        span::set_request(i as u64 + 1);
        let lines = shadow_prove(&g.script, &mut shadow);
        span::set_enabled(false);
        tally.add(judge_goal(&lines, g.equivalent));
        if !same_outcome(&lines, &real) {
            out.correct = false;
            out.note(
                "shadow_mismatch",
                format!("goal {i}: {lines:?} vs {real:?}"),
            );
        }
    }
    memo_hits += ws.memo_hits() - hits_before;
    let buffers = span::take_all();
    let b = span::Breakdown::from_buffers(&buffers);
    crate::write_trace(args, &buffers, out);

    let c = &shadow.counts;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    if memo_hits != 0 {
        out.correct = false;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let untraced_mean = untraced_ms / n.max(1) as f64;
    out.metric(
        "hottsql.parse_ms",
        b.self_ms_per_request(&["hottsql.parse"]),
        "ms",
    );
    out.metric(
        "hottsql.denote_ms",
        b.self_ms_per_request(&["hottsql.denote"]),
        "ms",
    );
    out.metric("cq.decide_ms", b.self_ms_per_request(&["cq.decide"]), "ms");
    out.metric("cq.decided", c.cq_decided as f64, "count");
    out.metric(
        "uninomial.normalize_ms",
        b.self_ms_per_request(&["uninomial.normalize"]),
        "ms",
    );
    out.metric(
        "uninomial.tactics_ms",
        b.self_ms_per_request(&["uninomial.tactics"]),
        "ms",
    );
    out.metric(
        "uninomial.tactic_proved_ratio",
        ratio(c.tactic_proved, c.tactic_attempts),
        "ratio",
    );
    out.metric(
        "egraph.saturate_ms",
        b.self_ms_per_request(&["egraph.saturate"]),
        "ms",
    );
    out.metric("egraph.saturate_calls", c.saturate_calls as f64, "count");
    out.metric(
        "egraph.saturate_proved_ratio",
        ratio(c.saturate_proved, c.saturate_calls),
        "ratio",
    );
    out.metric(
        "difftest.hunt_ms",
        b.self_ms_per_request(&[
            "difftest.hunt",
            "difftest.build_instance",
            "difftest.eval_query",
        ]),
        "ms",
    );
    out.metric(
        "difftest.instances_evaluated",
        c.instances_evaluated as f64,
        "count",
    );
    out.metric(
        "difftest.witness_ratio",
        ratio(c.witnesses, c.hunts),
        "ratio",
    );
    out.metric(
        "session.memo_hit_ratio",
        ratio(memo_hits as u64, n as u64),
        "ratio",
    );
    out.metric(
        "session.lookup_ms",
        b.self_ms_per_request(&["session.lookup", "session.record"]),
        "ms",
    );
    out.metric("render.ms", b.self_ms_per_request(&["render"]), "ms");
    crate::trace_summary(out, &b, untraced_mean);
    out.metric(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    out.note("traced_requests", n);
}

/// Whether two renderings agree on the goal line and outcome. An
/// `unknown` outcome is compared by kind only (its diagnostic prints
/// normal forms the shadow does not rebuild).
fn same_outcome(a: &[String], b: &[String]) -> bool {
    let key = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .map(|l| match l.find("\n    unknown: ") {
                Some(i) => l[..i + 13].to_owned(),
                None => l.clone(),
            })
            .collect()
    };
    key(a) == key(b)
}

/// The resident prove path, driven from outside: parse, CQ decision,
/// then per goal the verdict memo, denotation, normalization, tactics,
/// saturation, and the witness hunt, and finally render — each call
/// wrapped in a span named after its layer. Returns the rendered lines.
pub fn shadow_prove(text: &str, st: &mut Shadow) -> Vec<String> {
    let _root = span("request");
    let script = {
        let _s = span("hottsql.parse");
        parse_script(text).expect("generated scripts parse")
    };
    let (pair_of_goal, decisions) = {
        let _s = span("cq.decide");
        let mut queries = Vec::new();
        let mut pair_of_goal = Vec::new();
        for goal in &script.goals {
            let l = cq::translate::from_query(&goal.lhs, &script.env);
            let r = cq::translate::from_query(&goal.rhs, &script.env);
            pair_of_goal.push(match (l, r) {
                (Some(l), Some(r)) => {
                    queries.push(l);
                    queries.push(r);
                    Some((queries.len() - 2, queries.len() - 1))
                }
                _ => None,
            });
        }
        let pairs: Vec<(usize, usize)> = pair_of_goal.iter().flatten().copied().collect();
        (
            pair_of_goal,
            cq::containment::equivalent_set_batch(&queries, &pairs),
        )
    };
    let mut decisions = decisions.into_iter();
    let mut reports = Vec::with_capacity(script.goals.len());
    for (goal, cq_pair) in script.goals.iter().zip(&pair_of_goal) {
        let inst = RuleInstance::plain(script.env.clone(), goal.lhs.clone(), goal.rhs.clone());
        let outcome = match cq_pair.map(|_| decisions.next().expect("one decision per CQ goal")) {
            Some(true) => {
                st.counts.cq_decided += 1;
                GoalOutcome::Proved {
                    method: VerifyMethod::CqDecision,
                    steps: 1,
                }
            }
            Some(false) => {
                st.counts.cq_decided += 1;
                match hunt(&script.env, &inst, st) {
                    Some(counterexample) => GoalOutcome::Refuted { counterexample },
                    None => GoalOutcome::Unknown {
                        diagnostics: "decision procedure says inequivalent, \
                                      but no small counterexample found"
                            .into(),
                    },
                }
            }
            None => match verify(&inst, st) {
                Ok((method, steps)) => GoalOutcome::Proved { method, steps },
                Err(diagnostics) => match hunt(&script.env, &inst, st) {
                    Some(counterexample) => GoalOutcome::Refuted { counterexample },
                    None => GoalOutcome::Unknown { diagnostics },
                },
            },
        };
        reports.push(GoalReport {
            expect_equivalent: goal.expect_equivalent,
            satisfied: outcome.satisfies(goal.expect_equivalent),
            lhs: goal.lhs.to_string(),
            outcome: outcome.to_string(),
        });
    }
    let _s = span("render");
    Response::Goals(reports).render()
}

type Verdict = Result<(VerifyMethod, usize, Vec<String>), (String, Vec<String>)>;

/// The general prover on one goal, through the session's verdict memo.
fn verify(inst: &RuleInstance, st: &mut Shadow) -> Result<(VerifyMethod, usize), String> {
    let strip = |v: Verdict| v.map(|(m, s, _)| (m, s)).map_err(|(d, _)| d);
    {
        let _s = span("session.lookup");
        if let Some(v) = st.session.lookup_query(inst, st.opts) {
            return strip(v);
        }
    }
    let denoted = {
        let _s = span("hottsql.denote");
        dopcert::prove::denote_instance(inst).and_then(|(el, er, gen)| {
            let sl = hottsql::ty::infer_query(&inst.lhs, &inst.env, &Schema::Empty)
                .map_err(|e| e.to_string())?;
            let sr = hottsql::ty::infer_query(&inst.rhs, &inst.env, &Schema::Empty)
                .map_err(|e| e.to_string())?;
            if sl != sr {
                return Err(format!("schema mismatch: {sl} vs {sr}"));
            }
            Ok((el, er, gen))
        })
    };
    let (el, er, mut gen) = denoted?;
    {
        let _s = span("session.lookup");
        if let Some(v) = st.session.lookup(&el, &er, st.opts) {
            return strip(v);
        }
    }
    let mut attempted: Vec<String> = ["syntactic", "equational", "deductive"]
        .map(String::from)
        .into();
    let mut trace = Trace::new();
    trace.step(
        Lemma::FunExt,
        "reduce query equality to pointwise equality of denotations",
    );
    let (nl, nr) = {
        let _s = span("uninomial.normalize");
        (
            normalize_with_cache(&el, &mut gen, &mut trace, &mut st.cache),
            normalize_with_cache(&er, &mut gen, &mut trace, &mut st.cache),
        )
    };
    st.counts.tactic_attempts += 1;
    let tactic = {
        let _s = span("uninomial.tactics");
        tactics(nl, nr, &mut gen, trace)
    };
    let verdict: Verdict = match tactic {
        Ok((method, steps)) => {
            st.counts.tactic_proved += 1;
            Ok((VerifyMethod::Tactic(method), steps, attempted))
        }
        Err(diag) => {
            attempted.push(format!(
                "saturation (≤{} iters, ≤{} nodes)",
                st.opts.budget.max_iters, st.opts.budget.max_nodes
            ));
            st.counts.saturate_calls += 1;
            let _s = span("egraph.saturate");
            match egraph::prove_eq_saturate_session(
                &el,
                &er,
                &inst.axioms,
                &mut gen,
                &mut st.cache,
                &mut st.session.sat,
            ) {
                Ok(proof) => {
                    st.counts.saturate_proved += 1;
                    Ok((VerifyMethod::Saturation, proof.steps(), attempted))
                }
                Err(sat) => Err((format!("{diag}; saturation: {sat}"), attempted)),
            }
        }
    };
    {
        let _s = span("session.record");
        st.session.record(&el, &er, st.opts, verdict.clone());
        st.session.record_query(inst, st.opts, verdict.clone());
    }
    strip(verdict)
}

/// The normalization-based tactics over normal forms: syntactic
/// identity, equational matching, deductive bi-implication.
fn tactics(
    nl: uninomial::normalize::Spnf,
    nr: uninomial::normalize::Spnf,
    gen: &mut uninomial::syntax::VarGen,
    mut trace: Trace,
) -> Result<(Method, usize), String> {
    let nl = uninomial::axioms::saturate(&nl, &[], gen, &mut trace);
    let nr = uninomial::axioms::saturate(&nr, &[], gen, &mut trace);
    if nl == nr {
        return Ok((Method::Syntactic, trace.len()));
    }
    {
        let mut attempt = trace.clone();
        let mut ctx = uninomial::deduce::Ctx::new(gen, &mut attempt);
        if uninomial::equiv::equiv(&nl, &nr, &[], &mut ctx) {
            return Ok((Method::Equational, attempt.len()));
        }
    }
    if nl.is_prop() && nr.is_prop() {
        let mut attempt = trace.clone();
        let mut ctx = uninomial::deduce::Ctx::new(gen, &mut attempt);
        if uninomial::deduce::prove_iff(&nl, &nr, &[], &mut ctx) {
            return Ok((Method::Deductive, attempt.len()));
        }
    }
    Err(ProveError {
        lhs_nf: nl.to_string(),
        rhs_nf: nr.to_string(),
    }
    .to_string())
}

/// The random-instance witness hunt, as the script runner runs it.
fn hunt(env: &QueryEnv, inst: &RuleInstance, st: &mut Shadow) -> Option<String> {
    let _s = span("difftest.hunt");
    st.counts.hunts += 1;
    for seed in 0..400u64 {
        let instance = {
            let _s = span("difftest.build_instance");
            dopcert::difftest::build_instance(inst, seed)
        };
        let eval = |q| {
            let _s = span("difftest.eval_query");
            hottsql::eval::eval_query(q, env, &instance, &Schema::Empty, &relalg::Tuple::Unit)
        };
        let l = eval(&inst.lhs).ok()?;
        let r = eval(&inst.rhs).ok()?;
        st.counts.instances_evaluated += 1;
        if !l.bag_eq(&r) {
            st.counts.witnesses += 1;
            let tables: Vec<String> = instance
                .tables
                .iter()
                .map(|(n, rel)| format!("{n} = {rel:?}"))
                .collect();
            return Some(format!(
                "on {} the sides give {l:?} vs {r:?}",
                tables.join(", ")
            ));
        }
    }
    None
}
