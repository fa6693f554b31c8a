//! Scale harness: batch-proves thousands of generated CQ equivalence
//! pairs and compares tactic vs saturation proving over the Fig. 8
//! catalog, emitting machine-readable BENCH json lines (one object per
//! measurement) alongside a human summary.
//!
//! Usage: `cargo run -p bench --bin scale --release [-- pairs] [--out file.json]`
//!
//! `--out` additionally writes the BENCH objects as newline-delimited
//! JSON to a file — the committed `bench-results/` artifacts and the
//! CI upload come from this. The first object is always a `meta` line
//! carrying the artifact schema version and the series list, so that
//! `diff` can refuse incompatible artifacts.
//!
//! Regression mode: `scale diff baseline.json candidate.json
//! [--tolerance pct]` compares two artifacts series-by-series. A schema
//! mismatch, a series present in the baseline but missing from the
//! candidate, or a deterministic count (any field that is not a timing)
//! that changed or went missing is a hard failure (exit 1). Timings
//! beyond the tolerance and fields new in the candidate are warnings
//! only. The counts are reproducible on one CPU (`taskset -c 0`): with
//! more workers each one's private memo misses every distinct goal.

use dopcert::engine::{Engine, EngineConfig};
use dopcert::prove::{ProveOptions, SaturateMode};
use dopcert::wire::{parse_json, Json};
use egraph::{Budget, Outcome, Solver};
use std::fmt::Write as _;
use std::io::Write;
use std::process::ExitCode;
use uninomial::syntax::UExpr;

/// Artifact schema version: bump when a series changes shape or
/// meaning, so `diff` refuses to compare across the break.
const SCHEMA: u64 = 3;

/// Every series a full run emits, in emission order. `diff` hard-fails
/// when a baseline series is missing from the candidate.
const SERIES: [&str; 11] = [
    "cq_scale",
    "containment_scale",
    "optimizer_scale",
    "session_vs_fresh",
    "telemetry_overhead",
    "telemetry_phases",
    "saturation_vs_tactics",
    "rule_attribution",
    "egraph_growth",
    "rule_mining",
    "mining_gap",
];

/// Emits one measurement: a `BENCH {json}` line on stdout, the human
/// summary on stderr, and (with `--out`) the bare JSON object appended
/// to the artifact file.
struct Emitter {
    out: Option<std::io::BufWriter<std::fs::File>>,
}

impl Emitter {
    fn emit(&mut self, json: String, human: String) {
        println!("BENCH {json}");
        eprintln!("{human}");
        if let Some(f) = &mut self.out {
            writeln!(f, "{json}").expect("write --out file");
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("diff") {
        return run_diff(&argv[1..]);
    }

    let mut max_pairs: usize = 4000;
    let mut out = None;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--out" {
            let path = args.next().expect("--out needs a path");
            out = Some(std::io::BufWriter::new(
                std::fs::File::create(&path)
                    .unwrap_or_else(|e| panic!("cannot create {path}: {e}")),
            ));
        } else {
            max_pairs = arg.parse().expect("pairs must be a number");
        }
    }
    let mut em = Emitter { out };

    // The meta line first: schema and series versioning for `diff`.
    {
        let series: Vec<String> = SERIES.iter().map(|s| format!("\"{s}\"")).collect();
        em.emit(
            format!(
                "{{\"bench\":\"meta\",\"schema\":{SCHEMA},\"series\":[{}]}}",
                series.join(",")
            ),
            format!("meta: schema v{SCHEMA}, {} series", SERIES.len()),
        );
    }

    // Untimed warmup: the first timed block of the process otherwise
    // absorbs one-time costs (allocator arena growth, lazy binding)
    // that have nothing to do with the series being measured.
    {
        let warmup = cq::generate::equivalent_pairs(0x5CA1E, 1000.min(max_pairs));
        let _ = bench::decide_cq_pairs(&warmup);
    }

    // N-thousand CQ equivalence pairs through the batch decider.
    let mut n = 1000;
    while n <= max_pairs {
        let pairs = cq::generate::equivalent_pairs(0x5CA1E, n);
        let (time, equivalent) = bench::timed(|| bench::decide_cq_pairs(&pairs));
        assert_eq!(equivalent, n, "every generated pair is equivalent");
        em.emit(
            format!(
                "{{\"bench\":\"cq_scale\",\"pairs\":{n},\"equivalent\":{equivalent},\"millis\":{:.3}}}",
                time.as_secs_f64() * 1e3
            ),
            format!(
                "cq_scale: {n} pairs decided in {:.1} ms ({:.1} µs/pair)",
                time.as_secs_f64() * 1e3,
                time.as_secs_f64() * 1e6 / n as f64
            ),
        );
        n *= 2;
    }

    // Containment-search internals: the same batch decider over a
    // corpus decorated so the per-relation candidate bitsets have
    // something to prune (same-relation atoms of mixed arity and with
    // clashing constant positions). The counts are deterministic — the
    // pruned/scanned split is exactly the bitset index's claim to its
    // speedup, so `diff` compares it exactly; only `millis` floats.
    {
        let n = max_pairs.min(1000);
        let (queries, index_pairs) = bench::containment_corpus(0x0B175E7, n);
        let (time, (verdicts, stats)) =
            bench::timed(|| cq::containment::equivalent_set_batch_stats(&queries, &index_pairs));
        let equivalent = verdicts.iter().filter(|&&v| v).count();
        assert_eq!(equivalent, n, "decorated pairs stay equivalent");
        em.emit(
            format!(
                "{{\"bench\":\"containment_scale\",\"pairs\":{n},\"equivalent\":{equivalent},\"checks\":{},\"candidates_total\":{},\"bitset_pruned\":{},\"candidates_scanned\":{},\"millis\":{:.3}}}",
                stats.checks,
                stats.candidates_total,
                stats.bitset_pruned,
                stats.candidates_scanned,
                time.as_secs_f64() * 1e3
            ),
            format!(
                "containment_scale: {n} pairs, {} hom checks, {} of {} candidates bitset-pruned ({} scanned) in {:.1} ms",
                stats.checks,
                stats.bitset_pruned,
                stats.candidates_total,
                stats.candidates_scanned,
                time.as_secs_f64() * 1e3
            ),
        );
    }

    // Certified optimizer over a generated CQ corpus: total cost
    // reduction and wall time (the optimizer's first BENCH series).
    {
        let n = 64.min(max_pairs.max(2));
        let (env, queries) = bench::optimizer_corpus(0x0971, n);
        let budget = egraph::Budget::new(8, 1500);
        let (time, summary) = bench::timed(|| bench::optimize_corpus(&env, &queries, budget));
        em.emit(
            format!(
                "{{\"bench\":\"optimizer_scale\",\"queries\":{},\"improved\":{},\"cost_before\":{:.0},\"cost_after\":{:.0},\"millis\":{:.3}}}",
                summary.queries,
                summary.improved,
                summary.cost_before,
                summary.cost_after,
                time.as_secs_f64() * 1e3
            ),
            format!(
                "optimizer_scale: {} queries, {} improved, total cost {:.0} -> {:.0} ({:.1}% saved) in {:.1} ms",
                summary.queries,
                summary.improved,
                summary.cost_before,
                summary.cost_after,
                100.0 * (1.0 - summary.cost_after / summary.cost_before.max(1.0)),
                time.as_secs_f64() * 1e3
            ),
        );
    }

    // Persistent sessions vs fresh state per goal (one engine call
    // each) over a repetition-heavy generated corpus (≥1k goals sampled
    // from a pool of distinct equivalent CQ pairs — production traffic
    // repeats, and repetition is what the per-worker session
    // amortizes). Verdicts must be identical; only the wall clock may
    // differ.
    {
        let goals = max_pairs.max(1000);
        let (env, pairs, distinct) = bench::session_corpus(0x005E_5510, goals, 48);
        let mut fresh_reports = None;
        for (session, name) in [(false, "fresh"), (true, "session")] {
            let (time, reports) = bench::timed(|| bench::prove_corpus(&env, &pairs, session));
            let proved = reports.iter().filter(|r| r.proved).count();
            let steps: usize = reports.iter().map(|r| r.steps).sum();
            em.emit(
                format!(
                    "{{\"bench\":\"session_vs_fresh\",\"mode\":\"{name}\",\"goals\":{},\"distinct\":{distinct},\"proved\":{proved},\"steps\":{steps},\"millis\":{:.3}}}",
                    pairs.len(),
                    time.as_secs_f64() * 1e3
                ),
                format!(
                    "session_vs_fresh[{name}]: {proved}/{} goals proved ({distinct} distinct), {:.1} ms ({:.1} µs/goal)",
                    pairs.len(),
                    time.as_secs_f64() * 1e3,
                    time.as_secs_f64() * 1e6 / pairs.len() as f64
                ),
            );
            match &fresh_reports {
                None => fresh_reports = Some(reports),
                Some(fresh) => assert_eq!(
                    fresh, &reports,
                    "session-mode verdicts must be identical to fresh mode"
                ),
            }
        }
    }

    // Telemetry: the disabled-path overhead (same 1k-goal session
    // corpus proved with collection off and on — verdicts must be
    // bit-identical, only the wall clock may move) and the phase
    // breakdown the enabled run recorded.
    {
        let goals = 1000;
        let (env, pairs, distinct) = bench::session_corpus(0x005E_5510, goals, 48);
        telemetry::disable();
        telemetry::reset();
        let (t_off, off_reports) = bench::timed(|| bench::prove_corpus(&env, &pairs, true));
        telemetry::enable();
        telemetry::reset();
        let (t_on, on_reports) = bench::timed(|| bench::prove_corpus(&env, &pairs, true));
        assert_eq!(
            off_reports, on_reports,
            "telemetry must not change a verdict"
        );
        let snap = telemetry::snapshot();
        telemetry::disable();
        let (off_ms, on_ms) = (t_off.as_secs_f64() * 1e3, t_on.as_secs_f64() * 1e3);
        em.emit(
            format!(
                "{{\"bench\":\"telemetry_overhead\",\"goals\":{goals},\"distinct\":{distinct},\"millis_off\":{off_ms:.3},\"millis_on\":{on_ms:.3}}}"
            ),
            format!(
                "telemetry_overhead: {goals} goals, {off_ms:.1} ms off vs {on_ms:.1} ms on ({:+.1}%)",
                100.0 * (on_ms - off_ms) / off_ms.max(1e-9)
            ),
        );
        let hits = snap.counter("memo.verdict.hit");
        let misses = snap.counter("memo.verdict.miss");
        em.emit(
            format!(
                "{{\"bench\":\"telemetry_phases\",\"goals\":{goals},\"distinct\":{distinct},\"breakdown\":{}}}",
                bench::phase_breakdown_json(&snap)
            ),
            format!(
                "telemetry_phases: {} spans, {} counters recorded; memo.verdict {hits} hit / {misses} miss",
                snap.hists().count(),
                snap.counters().count()
            ),
        );
    }

    // Fig. 8 catalog: tactics-only vs saturation-only cost.
    for (mode, name) in [
        (SaturateMode::Off, "tactics"),
        (SaturateMode::Only, "saturate"),
    ] {
        let opts = ProveOptions {
            saturate: mode,
            ..ProveOptions::default()
        };
        let (time, reports) = bench::timed(|| bench::fig8_reports_with(opts));
        let proved = reports.iter().filter(|r| r.proved).count();
        let steps: usize = reports.iter().map(|r| r.steps).sum();
        em.emit(
            format!(
                "{{\"bench\":\"saturation_vs_tactics\",\"mode\":\"{name}\",\"rules\":{},\"proved\":{proved},\"steps\":{steps},\"millis\":{:.3}}}",
                reports.len(),
                time.as_secs_f64() * 1e3
            ),
            format!(
                "saturation_vs_tactics[{name}]: {proved}/{} rules, {steps} total steps, {:.1} ms",
                reports.len(),
                time.as_secs_f64() * 1e3
            ),
        );
    }

    // Per-rule attribution over the saturation-only catalog run: which
    // rewrite rules produce the matches, nodes, unions, and oracle
    // calls. The counter fields are deterministic (the saturation loop
    // is), so `diff` compares them exactly; only `millis` gets the
    // tolerance.
    {
        telemetry::disable();
        telemetry::reset();
        telemetry::enable();
        telemetry::enable_profiling();
        let opts = ProveOptions {
            saturate: SaturateMode::Only,
            ..ProveOptions::default()
        };
        let (time, reports) = bench::timed(|| bench::fig8_reports_with(opts));
        assert!(reports.iter().all(|r| r.proved), "catalog must prove");
        let profile = telemetry::profile_snapshot();
        let snap = telemetry::snapshot();
        telemetry::disable();
        telemetry::reset();
        assert!(!profile.is_empty(), "saturation left no attribution rows");
        assert_eq!(
            profile.total("nodes_added"),
            snap.counter("egraph.nodes_added"),
            "attribution must telescope to the aggregate"
        );
        let mut rows = String::from("{");
        for (i, (label, metrics)) in profile.rows().enumerate() {
            if i > 0 {
                rows.push(',');
            }
            let _ = write!(
                rows,
                "\"{label}\":{{\"matches\":{},\"unions\":{},\"nodes_added\":{},\"oracle_calls\":{}}}",
                metrics.counter("matches"),
                metrics.counter("unions"),
                metrics.counter("nodes_added"),
                metrics.counter("oracle_calls")
            );
        }
        rows.push('}');
        em.emit(
            format!(
                "{{\"bench\":\"rule_attribution\",\"rules\":{},\"rows\":{rows},\"total_matches\":{},\"total_unions\":{},\"total_nodes_added\":{},\"total_oracle_calls\":{},\"millis\":{:.3}}}",
                reports.len(),
                profile.total("matches"),
                profile.total("unions"),
                profile.total("nodes_added"),
                profile.total("oracle_calls"),
                time.as_secs_f64() * 1e3
            ),
            format!(
                "rule_attribution: {} rules, {} attribution rows, {} matches -> {} nodes added, {} unions, {} oracle calls in {:.1} ms",
                reports.len(),
                profile.len(),
                profile.total("matches"),
                profile.total("nodes_added"),
                profile.total("unions"),
                profile.total("oracle_calls"),
                time.as_secs_f64() * 1e3
            ),
        );
    }

    // E-graph growth timeline: the classes/nodes/memo counter samples
    // the solve loop emits once per iteration, over the saturation-only
    // catalog on a single worker (sequential, so the sample order is
    // the catalog order). Deterministic — `diff` compares the arrays
    // exactly.
    {
        telemetry::disable();
        telemetry::reset();
        telemetry::enable();
        telemetry::enable_tracing();
        telemetry::enable_profiling();
        let rules = dopcert::catalog::sound_rules();
        let engine = Engine::with_config(EngineConfig {
            prove: ProveOptions {
                saturate: SaturateMode::Only,
                ..ProveOptions::default()
            },
            ..EngineConfig::with_threads(1)
        });
        let reports = engine.prove_catalog(&rules);
        assert!(reports.iter().all(|r| r.proved), "catalog must prove");
        let events = telemetry::take_trace();
        telemetry::disable();
        telemetry::reset();
        let series = |metric: &str| -> Vec<u64> {
            events
                .iter()
                .filter(|ev| ev.name == metric)
                .filter_map(|ev| ev.value)
                .collect()
        };
        let (classes, nodes, memo) = (
            series("egraph.classes"),
            series("egraph.nodes"),
            series("egraph.memo"),
        );
        assert!(!classes.is_empty(), "no growth samples recorded");
        let arr = |vs: &[u64]| {
            let strs: Vec<String> = vs.iter().map(u64::to_string).collect();
            format!("[{}]", strs.join(","))
        };
        em.emit(
            format!(
                "{{\"bench\":\"egraph_growth\",\"rules\":{},\"iterations\":{},\"classes\":{},\"nodes\":{},\"memo\":{}}}",
                reports.len(),
                classes.len(),
                arr(&classes),
                arr(&nodes),
                arr(&memo)
            ),
            format!(
                "egraph_growth: {} samples over {} rules, peak {} classes / {} nodes / {} memo entries",
                classes.len(),
                reports.len(),
                classes.iter().max().copied().unwrap_or(0),
                nodes.iter().max().copied().unwrap_or(0),
                memo.iter().max().copied().unwrap_or(0)
            ),
        );
    }

    // Rule mining: the full synthesis loop (corpus → discovery →
    // anti-unification → screening → certification). Every funnel
    // count is deterministic under the default config; only the
    // wall-clock is timing-tolerant.
    let mined = {
        let cfg = mine::MineConfig::default();
        let (time, report) = bench::timed(|| mine::mine(&cfg));
        let replays = report.accepted.iter().filter(|e| e.replays).count();
        assert_eq!(
            replays,
            report.rules.len(),
            "every accepted mined rule carries a replaying certificate"
        );
        em.emit(
            format!(
                "{{\"bench\":\"rule_mining\",\"corpus\":{},\"discovered\":{},\"candidates\":{},\"screened_out\":{},\"uncertified\":{},\"accepted\":{},\"replays\":{replays},\"millis\":{:.3}}}",
                report.corpus_size,
                report.discovered,
                report.candidates,
                report.screened_out,
                report.uncertified,
                report.rules.len(),
                time.as_secs_f64() * 1e3
            ),
            format!(
                "rule_mining: {} rules certified from {} candidates ({} screened out, {} uncertified) in {:.1} ms; all {replays} certificates replay",
                report.rules.len(),
                report.candidates,
                report.screened_out,
                report.uncertified,
                time.as_secs_f64() * 1e3
            ),
        );
        std::sync::Arc::new(report.rules)
    };

    // Mining gap: replay every mined equation under a zero oracle
    // budget. The shallow schemas stay provable syntactically, but the
    // CQ-derived ground rules needed the equational oracle to discover
    // — without it the default set *saturates* unproven at any
    // iteration budget, while the mined catalog closes each in one
    // iteration. Mining amortizes the oracle work: certification paid
    // it once, replay is a syntactic match.
    {
        let prove = |lhs: &UExpr, rhs: &UExpr, catalog: bool| {
            let mut solver = Solver::new(Budget::new(4, 20_000).with_oracle_calls(0));
            if catalog {
                solver.set_mined_rules(std::sync::Arc::clone(&mined));
            }
            let l = solver.seed_expr(lhs);
            let r = solver.seed_expr(rhs);
            solver.run(l, r).0
        };
        let (mut proved_default, mut proved_mined, mut gap_rules) = (0usize, 0usize, 0usize);
        for rule in mined.iter() {
            let d = prove(&rule.lhs, &rule.rhs, false);
            let m = prove(&rule.lhs, &rule.rhs, true);
            proved_default += usize::from(d == Outcome::Proved);
            proved_mined += usize::from(m == Outcome::Proved);
            gap_rules += usize::from(d != Outcome::Proved && m == Outcome::Proved);
        }
        assert_eq!(
            proved_mined,
            mined.len(),
            "every mined rule must replay through its own catalog"
        );
        assert!(
            gap_rules > 0,
            "at least one mined rule must close a goal the oracle-free default set cannot"
        );
        em.emit(
            format!(
                "{{\"bench\":\"mining_gap\",\"rules\":{},\"proved_default\":{proved_default},\"proved_mined\":{proved_mined},\"gap_rules\":{gap_rules}}}",
                mined.len()
            ),
            format!(
                "mining_gap: oracle-free replay of {} mined equations — default rules prove {proved_default}, mined catalog proves {proved_mined} ({gap_rules} beyond the default set's reach)",
                mined.len()
            ),
        );
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// `scale diff`: the bench-regression pipeline.
// ---------------------------------------------------------------------

/// One parsed artifact: the meta line plus every measurement keyed by
/// series name (and `mode`/size where a series emits several points).
struct Artifact {
    schema: u64,
    series_names: Vec<String>,
    measurements: Vec<(String, Json)>,
}

fn series_key(obj: &Json) -> Option<String> {
    let bench = obj.get("bench")?.as_str()?;
    let mut key = bench.to_owned();
    if let Some(mode) = obj.get("mode").and_then(Json::as_str) {
        let _ = write!(key, "[{mode}]");
    }
    if bench == "cq_scale" {
        if let Some(Json::Num(pairs)) = obj.get("pairs") {
            let _ = write!(key, "[{pairs}]");
        }
    }
    Some(key)
}

fn load_artifact(path: &str) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    parse_artifact(path, &text)
}

fn parse_artifact(path: &str, text: &str) -> Result<Artifact, String> {
    let mut schema = None;
    let mut series_names = Vec::new();
    let mut measurements = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim().trim_start_matches("BENCH ");
        if line.is_empty() {
            continue;
        }
        let obj = parse_json(line).map_err(|e| format!("{path}:{}: bad JSON: {e}", lineno + 1))?;
        let bench = obj
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: object without a \"bench\" field", lineno + 1))?;
        if bench == "meta" {
            schema = obj.get("schema").and_then(Json::as_usize).map(|s| s as u64);
            if let Some(Json::Arr(names)) = obj.get("series") {
                series_names = names
                    .iter()
                    .filter_map(|n| n.as_str().map(str::to_owned))
                    .collect();
            }
        } else if let Some(key) = series_key(&obj) {
            measurements.push((key, obj));
        }
    }
    let schema = schema.ok_or_else(|| {
        format!("{path}: no meta line — not a versioned BENCH artifact (regenerate with the current harness)")
    })?;
    Ok(Artifact {
        schema,
        series_names,
        measurements,
    })
}

/// Numeric leaves whose key names a duration are compared with the
/// tolerance; everything else in a BENCH object is a deterministic
/// count and must match exactly.
fn is_timing_field(key: &str) -> bool {
    key.contains("millis") || key.ends_with("_ms") || key.ends_with("_ns")
}

/// What `diff` found: any error fails the run (exit 1), warnings only
/// print.
#[derive(Debug, Default)]
struct Findings {
    errors: Vec<String>,
    warnings: Vec<String>,
    compared: usize,
}

/// Walks two JSON values in parallel, recording one finding per
/// divergence. `path` names the location for the report.
fn diff_values(path: &str, base: &Json, cand: &Json, tolerance: f64, found: &mut Findings) {
    match (base, cand) {
        (Json::Num(b), Json::Num(c)) => {
            let key = path.rsplit('.').next().unwrap_or(path);
            if is_timing_field(key) {
                if *c > *b * (1.0 + tolerance / 100.0) && *c - *b > 1.0 {
                    found.warnings.push(format!(
                        "{path}: {c:.1} vs baseline {b:.1} ({:+.1}%, tolerance {tolerance}%)",
                        100.0 * (c - b) / b.max(1e-9)
                    ));
                }
            } else if b != c {
                found.errors.push(format!(
                    "{path}: deterministic field changed: {c} vs baseline {b}"
                ));
            }
        }
        (Json::Obj(b), Json::Obj(c)) => {
            for (k, bv) in b {
                let sub = format!("{path}.{k}");
                match c.get(k) {
                    Some(cv) => diff_values(&sub, bv, cv, tolerance, found),
                    None if is_timing_field(k) => found
                        .warnings
                        .push(format!("{sub}: missing from candidate")),
                    None => found.errors.push(format!("{sub}: missing from candidate")),
                }
            }
            for k in c.keys().filter(|k| !b.contains_key(*k)) {
                found
                    .warnings
                    .push(format!("{path}.{k}: new field absent from baseline"));
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            if b.len() != c.len() {
                found.errors.push(format!(
                    "{path}: length changed: {} vs baseline {}",
                    c.len(),
                    b.len()
                ));
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                diff_values(&format!("{path}[{i}]"), bv, cv, tolerance, found);
            }
        }
        _ => {
            if base != cand {
                found
                    .errors
                    .push(format!("{path}: value changed shape or content"));
            }
        }
    }
}

fn diff_artifacts(base: &Artifact, cand: &Artifact, tolerance: f64) -> Findings {
    let mut found = Findings::default();
    if base.schema != cand.schema {
        found.errors.push(format!(
            "schema mismatch: baseline v{} vs candidate v{}",
            base.schema, cand.schema
        ));
        return found;
    }
    // Coverage is judged over the *intersection* of the two meta series
    // lists: a series only one artifact's harness knows about (an older
    // baseline diffed against a newer candidate, or vice versa) is not a
    // regression — a series both metas claim but the candidate failed to
    // measure is.
    let mut missing = Vec::new();
    for name in base
        .series_names
        .iter()
        .filter(|n| cand.series_names.contains(n))
    {
        let covered = cand
            .measurements
            .iter()
            .any(|(_, obj)| obj.get("bench").and_then(Json::as_str) == Some(name.as_str()));
        if !covered {
            missing.push(name.clone());
        }
    }
    for (key, _) in &base.measurements {
        // A keyed point absent from the candidate is only fatal when its
        // whole series vanished *and* the candidate's meta claims the
        // series; scale points beyond the candidate's pair count — or
        // whole series outside the meta intersection — are fine.
        let series = key.split('[').next().unwrap_or(key);
        if !cand.series_names.iter().any(|n| n == series) {
            continue;
        }
        let series_alive = cand
            .measurements
            .iter()
            .any(|(k, _)| k == key || k.split('[').next() == key.split('[').next());
        if !series_alive && !missing.contains(key) {
            missing.push(key.clone());
        }
    }
    for name in missing {
        found
            .errors
            .push(format!("series missing from candidate: {name}"));
    }

    for (key, base_obj) in &base.measurements {
        let Some((_, cand_obj)) = cand.measurements.iter().find(|(k, _)| k == key) else {
            continue;
        };
        found.compared += 1;
        diff_values(key, base_obj, cand_obj, tolerance, &mut found);
    }
    found
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut tolerance = 25.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            let pct = it.next().expect("--tolerance needs a percentage");
            tolerance = pct.parse().expect("tolerance must be a number");
        } else {
            paths.push(arg.clone());
        }
    }
    let [base_path, cand_path] = paths.as_slice() else {
        eprintln!("usage: scale diff <baseline.json> <candidate.json> [--tolerance pct]");
        return ExitCode::FAILURE;
    };
    let (base, cand) = match (load_artifact(base_path), load_artifact(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench diff: error: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    let found = diff_artifacts(&base, &cand, tolerance);
    for w in &found.warnings {
        println!("WARN {w}");
    }
    for e in &found.errors {
        eprintln!("bench diff: error: {e}");
    }
    println!(
        "bench diff: {} series compared, {} errors, {} warnings (tolerance {tolerance}%)",
        found.compared,
        found.errors.len(),
        found.warnings.len()
    );
    if found.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"bench":"cq_scale","pairs":1000,"equivalent":1000,"millis":2.0}"#;

    fn diff(cand: &str) -> Findings {
        let artifact = |line: &str| {
            let meta = r#"{"bench":"meta","schema":3,"series":["cq_scale"]}"#;
            parse_artifact("test", &format!("{meta}\n{line}\n")).expect("artifact parses")
        };
        diff_artifacts(&artifact(BASE), &artifact(cand), 25.0)
    }

    #[test]
    fn a_changed_count_fails() {
        let found = diff(r#"{"bench":"cq_scale","pairs":1000,"equivalent":999,"millis":2.0}"#);
        assert_eq!(found.compared, 1);
        assert_eq!(found.errors.len(), 1, "{found:?}");
        assert!(found.errors[0].contains("equivalent"), "{found:?}");
    }

    #[test]
    fn a_missing_count_fails() {
        let found = diff(r#"{"bench":"cq_scale","pairs":1000,"millis":2.0}"#);
        assert_eq!(found.errors.len(), 1, "{found:?}");
        assert!(found.errors[0].contains("equivalent: missing"), "{found:?}");
    }

    #[test]
    fn a_slow_timing_or_a_new_field_only_warns() {
        let same = diff(BASE);
        assert!(same.errors.is_empty() && same.warnings.is_empty());
        let found =
            diff(r#"{"bench":"cq_scale","pairs":1000,"equivalent":1000,"millis":20.0,"new":1}"#);
        assert!(found.errors.is_empty(), "{found:?}");
        assert_eq!(found.warnings.len(), 2, "{found:?}");
    }
}
