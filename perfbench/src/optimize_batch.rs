//! `optimize_batch`: shaped like `dopcert optimize --jobs 2`. Each
//! request is an in-process `api::execute(Request::Optimize)` on fresh
//! state over a script of 32 distinct generated queries; no query repeats
//! across the run. This is where the engine (`par_map`, the warm-interner
//! pre-pass, the shared memo) and the optimizer (search, extract,
//! readback, certify) do the work.
//!
//! The traced run replays the requests through the same public calls
//! `api::execute` makes — `parse_script`, `Engine::optimize_batch`, the
//! certificate replay and `Response::render` — with a span around each,
//! reads the optimizer's internal phases from the program's own span
//! histograms (`telemetry::snapshot()`), and then re-plans every request
//! on one thread through `optimizer::optimize` for the parallel speed-up.

use crate::corpus::{self, Rng};
use crate::report::{self, Outcome};
use crate::span::{self, span};
use crate::verdict::{parse_plans, plan_ok};
use crate::{Args, SetupTimer};
use dopcert::api::{PlanReport, Request, RequestOptions, Response};
use dopcert::script::parse_script;
use hottsql::ast::Query;
use optimizer::{OptimizeOptions, PlanCtx, PlanSession};
use std::collections::HashSet;
use std::time::Instant;
use uninomial::normalize::NormCache;

/// Distinct queries per request.
pub const QUERIES_PER_REQUEST: usize = 32;

/// Engine worker threads per request (`--jobs 2`).
pub const JOBS: usize = 2;

/// Requests per second of run the corpus is sized for.
const REQUESTS_PER_SECOND: usize = 12;

/// Requests excluded from measurement at the start of a run.
const WARMUP_REQUESTS: usize = 2;

/// Requests the traced run replays.
const TRACED_REQUESTS: usize = 12;

struct Batch {
    script: String,
    queries: Vec<Query>,
}

/// Generates the request corpus in [`SetupTimer::PARTS`] timed parts;
/// returns the set-up time and at least `requests` batches.
fn corpus(seed: u64, requests: usize) -> (f64, Vec<Batch>) {
    let env = corpus::env();
    let mut rng = Rng::new(seed ^ 0x0A11_CE55);
    let mut seen = HashSet::new();
    let mut batches = Vec::with_capacity(requests + SetupTimer::PARTS);
    let per_part = requests.div_ceil(SetupTimer::PARTS);
    let setup_s = SetupTimer::in_parts(|| {
        for _ in 0..per_part {
            let (script, queries) =
                corpus::optimize_script(&mut rng, &env, QUERIES_PER_REQUEST, &mut seen);
            batches.push(Batch { script, queries });
        }
    });
    (setup_s, batches)
}

fn options() -> RequestOptions {
    RequestOptions {
        jobs: Some(JOBS),
        ..RequestOptions::default()
    }
}

fn request(b: &Batch) -> Request {
    Request::Optimize {
        script: b.script.clone(),
        opts: options(),
    }
}

/// Checked totals over the plans of a run.
#[derive(Default)]
struct PlanTally {
    requests: usize,
    failed: usize,
    plans: usize,
    improved: usize,
    cost_before: f64,
    cost_after: f64,
}

impl PlanTally {
    /// Checks one response's plans against their inputs; a request with
    /// any bad plan counts as failed.
    fn add(&mut self, batch: &Batch, lines: &[String], seed: u64) {
        self.requests += 1;
        let Some(plans) = parse_plans(lines) else {
            self.failed += 1;
            return;
        };
        let mut ok = plans.len() == batch.queries.len();
        for (i, (plan, q)) in plans.iter().zip(&batch.queries).enumerate() {
            ok &= plan_ok(plan, q, seed.wrapping_add(i as u64));
            self.plans += 1;
            self.improved += usize::from(plan.cost_after < plan.cost_before);
            self.cost_before += plan.cost_before;
            self.cost_after += plan.cost_after;
        }
        if !ok {
            self.failed += 1;
        }
    }

    /// Checks every response against its batch, split over two threads
    /// (list-semantics evaluation is the slow part of a run).
    fn check(batches: &[Batch], responses: &[Vec<String>], seed: u64) -> PlanTally {
        let half = responses.len().div_ceil(2);
        let parts: Vec<PlanTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = responses
                .chunks(half.max(1))
                .enumerate()
                .map(|(c, chunk)| {
                    scope.spawn(move || {
                        let mut t = PlanTally::default();
                        for (j, lines) in chunk.iter().enumerate() {
                            let i = c * half + j;
                            t.add(&batches[i], lines, seed.wrapping_add(1000 * i as u64));
                        }
                        t
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("checker thread"))
                .collect()
        });
        parts
            .into_iter()
            .fold(PlanTally::default(), |a, b| PlanTally {
                requests: a.requests + b.requests,
                failed: a.failed + b.failed,
                plans: a.plans + b.plans,
                improved: a.improved + b.improved,
                cost_before: a.cost_before + b.cost_before,
                cost_after: a.cost_after + b.cost_after,
            })
    }
}

pub fn run(args: &Args) -> Outcome {
    let n = WARMUP_REQUESTS + REQUESTS_PER_SECOND * args.seconds as usize;
    let (setup_s, batches) = corpus(args.seed, n);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.note("jobs", JOBS);
    out.note("queries_per_request", QUERIES_PER_REQUEST);
    let (warmup, measured) = batches.split_at(WARMUP_REQUESTS);
    if args.trace {
        traced(args, warmup, measured, &mut out);
    } else {
        untraced(args, warmup, measured, setup_s, &mut out);
    }
    out
}

fn untraced(args: &Args, warmup: &[Batch], measured: &[Batch], setup_s: f64, out: &mut Outcome) {
    for b in warmup {
        std::hint::black_box(dopcert::execute(&request(b)).render());
    }
    let mut latencies = Vec::new();
    let mut responses = Vec::new();
    let start = Instant::now();
    for b in measured {
        let t = Instant::now();
        let lines = dopcert::execute(&request(b)).render();
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        responses.push(lines);
        if start.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    if responses.len() == measured.len() {
        out.note("corpus_exhausted", true);
    }
    // Checked after the clock stops: list-semantics evaluation is the
    // reference, not part of the measured path.
    let check = Instant::now();
    let tally = PlanTally::check(measured, &responses, args.seed);
    out.attempted = tally.requests;
    out.failed = tally.failed;
    out.note("plans_checked", tally.plans);
    out.note(
        "plan_check_s",
        format!("{:.2}", check.elapsed().as_secs_f64()),
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("requests_per_s", latencies.len() as f64 / wall, "1/s");
    out.metric("latency_p50_ms", report::percentile(&latencies, 0.50), "ms");
    out.metric("latency_p90_ms", report::percentile(&latencies, 0.90), "ms");
    out.metric("latency_p99_ms", report::percentile(&latencies, 0.99), "ms");
    out.metric(
        "decided_ratio",
        (tally.requests - tally.failed) as f64 / tally.requests.max(1) as f64,
        "ratio",
    );
    out.metric(
        "plan_cost_ratio",
        tally.cost_after / tally.cost_before,
        "ratio",
    );
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
}

fn traced(args: &Args, warmup: &[Batch], measured: &[Batch], out: &mut Outcome) {
    let batches = &measured[..TRACED_REQUESTS.min(measured.len())];
    for b in warmup {
        dopcert::execute(&request(b));
    }
    // Each request runs untraced on the real path, then traced: benchmark
    // spans, plus the program's own phase spans inside the engine call.
    telemetry::reset();
    let mut untraced_ms = 0.0;
    let mut batch_wall = 0.0;
    let mut batch_cpu = 0.0;
    let mut responses = Vec::with_capacity(batches.len());
    for (i, b) in batches.iter().enumerate() {
        let t = Instant::now();
        let real = dopcert::execute(&request(b)).render();
        untraced_ms += t.elapsed().as_secs_f64() * 1e3;
        span::set_enabled(true);
        span::set_request(i as u64 + 1);
        let (lines, wall, cpu) = shadow_optimize(&b.script);
        span::set_enabled(false);
        batch_wall += wall;
        batch_cpu += cpu;
        if lines != real {
            out.correct = false;
            out.note("shadow_mismatch", format!("request {i}"));
        }
        responses.push(lines);
    }
    let snap = telemetry::snapshot();
    let buffers = span::take_all();
    let bd = span::Breakdown::from_buffers(&buffers);
    crate::write_trace(args, &buffers, out);

    // One-thread re-plan of the same queries: `optimizer::optimize` on
    // the state one engine worker holds.
    span::set_enabled(true);
    let mut plan_wall = 0.0;
    for b in batches {
        plan_wall += plan_sequentially(&b.script);
    }
    span::set_enabled(false);
    let probe = span::Breakdown::from_buffers(&span::take_all());
    let tally = PlanTally::check(batches, &responses, args.seed);

    let queries = (batches.len() * QUERIES_PER_REQUEST).max(1) as f64;
    let hist_ms = |name: &str| {
        snap.hist(name).map_or(0.0, |h| h.sum() as f64 / 1e6) / batches.len().max(1) as f64
    };
    let plan_hits = snap.counter("memo.plan.hit");
    let plan_lookups = plan_hits + snap.counter("memo.plan.miss");
    out.attempted = tally.requests;
    out.failed = tally.failed;
    out.metric(
        "hottsql.parse_ms",
        bd.self_ms_per_request(&["hottsql.parse"]),
        "ms",
    );
    out.metric(
        "optimizer.plan_ms",
        probe.total_ns.get("optimizer.plan").copied().unwrap_or(0) as f64 / 1e6 / queries,
        "ms",
    );
    out.metric("optimizer.search_ms", hist_ms("optimizer.search"), "ms");
    out.metric("optimizer.readback_ms", hist_ms("optimizer.readback"), "ms");
    out.metric("optimizer.certify_ms", hist_ms("optimizer.certify"), "ms");
    out.metric(
        "optimizer.replay_ms",
        bd.self_ms_per_request(&["optimizer.replay"]),
        "ms",
    );
    out.metric(
        "optimizer.improved_ratio",
        tally.improved as f64 / tally.plans.max(1) as f64,
        "ratio",
    );
    out.metric(
        "engine.batch_ms",
        bd.self_ms_per_request(&["engine.optimize_batch"]),
        "ms",
    );
    out.metric("engine.parallel_speedup", plan_wall / batch_wall, "x");
    out.metric(
        "engine.cpu_util",
        batch_cpu / (batch_wall * JOBS as f64),
        "ratio",
    );
    out.metric(
        "session.memo_hit_ratio",
        if plan_lookups == 0 {
            0.0
        } else {
            plan_hits as f64 / plan_lookups as f64
        },
        "ratio",
    );
    out.metric("render.ms", bd.self_ms_per_request(&["render"]), "ms");
    crate::trace_summary(out, &bd, untraced_ms / batches.len().max(1) as f64);
    out.metric(
        "failed_ratio",
        tally.failed as f64 / tally.requests.max(1) as f64,
        "ratio",
    );
    out.note("traced_requests", batches.len());
    out.note(
        "optimizer_phase_ms",
        "per request, summed over both engine threads",
    );
    out.note(
        "saturation",
        "runs inside the plan search and is counted in optimizer.search_ms",
    );
}

/// `api::execute(Request::Optimize)` driven from outside: parse, the
/// engine batch, the certificate replay that gates each plan, render.
/// Returns the rendered lines, and the engine call's wall and CPU
/// seconds.
fn shadow_optimize(text: &str) -> (Vec<String>, f64, f64) {
    let _root = span("request");
    let script = {
        let _s = span("hottsql.parse");
        parse_script(text).expect("generated scripts parse")
    };
    let mut queries: Vec<Query> = Vec::new();
    for goal in &script.goals {
        for q in [&goal.lhs, &goal.rhs] {
            if !queries.contains(q) {
                queries.push(q.clone());
            }
        }
    }
    let opts = options();
    let (reports, wall, cpu) = {
        let _s = span("engine.optimize_batch");
        // The program's phase histograms cover the engine call only: the
        // replay below certifies again and would count twice.
        telemetry::enable();
        let cpu0 = report::cpu_seconds();
        let t = Instant::now();
        let reports =
            opts.engine(script.budget)
                .optimize_batch(&script.env, &script.stats, &queries);
        let (wall, cpu) = (t.elapsed().as_secs_f64(), report::cpu_seconds() - cpu0);
        telemetry::disable();
        (reports, wall, cpu)
    };
    let budget = opts.prove_options(script.budget).budget;
    let plans: Vec<PlanReport> = {
        let _s = span("optimizer.replay");
        queries
            .iter()
            .zip(reports)
            .map(|(q, report)| {
                let r = report.unwrap_or_else(|e| panic!("{q}: {e}"));
                let mut lemmas: Vec<String> = Vec::new();
                for (lemma, _) in r.certificate.trace.steps() {
                    if !lemmas.iter().any(|n| n == lemma.name()) {
                        lemmas.push(lemma.name().to_owned());
                    }
                }
                PlanReport {
                    sound: r.cost_after <= r.cost_before
                        && r.certificate
                            .replay(&r.input, &r.output, &script.env, budget),
                    cost_before: r.cost_before,
                    cost_after: r.cost_after,
                    route: r.route.to_string(),
                    method: r.certificate.method.to_string(),
                    steps: r.certificate.trace.len(),
                    input: r.input.to_string(),
                    output: r.output.to_string(),
                    error: None,
                    lemmas,
                    candidates: r.candidates,
                }
            })
            .collect()
    };
    let _s = span("render");
    (Response::Plans(plans).render(), wall, cpu)
}

/// Plans a script's queries one after another through
/// `optimizer::optimize`, on the cache and plan session one engine
/// worker keeps. Returns the wall seconds.
fn plan_sequentially(text: &str) -> f64 {
    let script = parse_script(text).expect("generated scripts parse");
    let budget = options().prove_options(script.budget).budget;
    let mut cache = NormCache::new();
    let mut session = PlanSession::new(budget);
    let mut queries: Vec<&Query> = Vec::new();
    for goal in &script.goals {
        for q in [&goal.lhs, &goal.rhs] {
            if !queries.contains(&q) {
                queries.push(q);
            }
        }
    }
    let t = Instant::now();
    for q in queries {
        let _s = span("optimizer.plan");
        let report = optimizer::optimize(
            q,
            &script.env,
            &script.stats,
            OptimizeOptions { budget },
            PlanCtx {
                cache: Some(&mut cache),
                session: Some(&mut session),
                mined: None,
            },
        );
        std::hint::black_box(report.expect("generated queries optimize"));
    }
    t.elapsed().as_secs_f64()
}
