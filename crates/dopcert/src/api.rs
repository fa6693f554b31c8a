//! The unified request API: one typed entry point for everything the
//! system can be asked to do.
//!
//! Each capability has one entry point here, and every front end — the
//! CLI subcommands, the `.dop` script runner, the batch engine, and the
//! `dopcert serve` daemon — routes through it:
//!
//! - [`Workspace`] is the one per-worker state: a prove session and a
//!   plan session, with one method per capability. A new workspace is
//!   fresh state, a kept one is resident state, and both run the same
//!   pipeline.
//! - [`Request`] / [`Response`] are the typed request values every
//!   front end routes through: the CLI builds a `Request` from its
//!   flags, the script runner from a parsed [`Script`], and the
//!   `dopcert serve` daemon decodes one from each wire line.
//! - [`execute`] answers a request on fresh state — the single-shot
//!   CLI path. [`Workspace::execute`] answers it on resident state —
//!   the daemon's per-worker path — with responses byte-identical to
//!   [`execute`] by the session-identity guarantee.
//! - [`BudgetSpec`] is the one place the three saturation-budget knobs
//!   are parsed and validated; CLI flags, script `budget` directives,
//!   and serve requests all funnel through it.
//!
//! [`Response::render`] produces exactly the lines the CLI prints, so
//! "daemon answers bit-identical to the single-shot CLI" is a property
//! of shared code, not of two renderers kept manually in sync.

use crate::engine::Engine;
use crate::prove::{ProveOptions, RuleReport, SaturateMode};
use crate::rule::{Rule, RuleInstance};
use crate::script::{parse_script, GoalOutcome, Script};
use crate::session::{ProveSession, Verdict};
use egraph::solve::Budget;
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use optimizer::{OptimizeError, OptimizeOptions, OptimizeReport, PlanCtx, PlanSession};
use relalg::stats::Statistics;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};

/// Partial saturation budget: the three knobs, each optionally
/// overridden. This is THE parse/validate point for budgets — CLI
/// flags (`--sat-iters` …), script directives (`budget iters 40;`),
/// and serve requests (`"budget":{"iters":40}`) all build one of
/// these, and [`BudgetSpec::apply`] resolves it against a base.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Override for [`Budget::max_iters`].
    pub iters: Option<usize>,
    /// Override for [`Budget::max_nodes`].
    pub nodes: Option<usize>,
    /// Override for [`Budget::oracle_calls_per_iter`].
    pub oracle_calls: Option<usize>,
}

impl BudgetSpec {
    /// The knob names, as spelled in scripts and wire requests.
    pub const KNOBS: [&'static str; 3] = ["iters", "nodes", "oracle-calls"];

    /// Sets one knob by name, rejecting unknown knobs and zero values
    /// (a zero budget can never prove anything and always signals a
    /// caller mistake).
    ///
    /// # Errors
    ///
    /// Returns a description of the bad knob or value.
    pub fn set(&mut self, knob: &str, value: usize) -> Result<(), String> {
        if value == 0 {
            return Err(format!("budget {knob} must be positive"));
        }
        match knob {
            "iters" => self.iters = Some(value),
            "nodes" => self.nodes = Some(value),
            "oracle-calls" => self.oracle_calls = Some(value),
            other => {
                return Err(format!(
                    "unknown budget knob {other:?} (expected iters, nodes, or oracle-calls)"
                ))
            }
        }
        Ok(())
    }

    /// [`BudgetSpec::set`] from an unparsed value string.
    ///
    /// # Errors
    ///
    /// Returns a description of the bad knob or value.
    pub fn parse_set(&mut self, knob: &str, value: &str) -> Result<(), String> {
        let value = value
            .parse::<usize>()
            .map_err(|_| format!("invalid budget {knob} value {value:?}"))?;
        self.set(knob, value)
    }

    /// Whether any knob is set.
    pub fn is_empty(&self) -> bool {
        *self == BudgetSpec::default()
    }

    /// This spec with unset knobs filled from `fallback` — the
    /// precedence combinator (explicit request knobs over script
    /// directives over defaults).
    pub fn or(self, fallback: BudgetSpec) -> BudgetSpec {
        BudgetSpec {
            iters: self.iters.or(fallback.iters),
            nodes: self.nodes.or(fallback.nodes),
            oracle_calls: self.oracle_calls.or(fallback.oracle_calls),
        }
    }

    /// Resolves the spec against a base budget.
    pub fn apply(self, base: Budget) -> Budget {
        Budget {
            max_iters: self.iters.unwrap_or(base.max_iters),
            max_nodes: self.nodes.unwrap_or(base.max_nodes),
            oracle_calls_per_iter: self.oracle_calls.unwrap_or(base.oracle_calls_per_iter),
        }
    }
}

/// Options carried by a [`Request`]: how to verify, on how many
/// workers. The budget is a *partial* [`BudgetSpec`] so that unset
/// knobs fall through to the script's `budget` directives and then the
/// defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// When the saturation tactic runs.
    pub saturate: SaturateMode,
    /// Explicit budget overrides (highest precedence).
    pub budget: BudgetSpec,
    /// Worker threads for batch subcommands (`None` = all cores).
    pub jobs: Option<usize>,
    /// Whether the certified optimizer's plan search may use mined
    /// rewrite rules (`--mined-rules`). Off by default: with the flag
    /// off, every prove/optimize output is bit-identical to a build
    /// without the mining subsystem. Mined rules only widen the search
    /// space — shipped plans are still certified by the trusted stack.
    pub mined_rules: bool,
}

impl RequestOptions {
    /// Resolves to concrete [`ProveOptions`], merging budgets by
    /// precedence: explicit request knobs over the script's `budget`
    /// directives over [`Budget::default`].
    pub fn prove_options(&self, script_budget: BudgetSpec) -> ProveOptions {
        ProveOptions {
            saturate: self.saturate,
            budget: self.budget.or(script_budget).apply(Budget::default()),
        }
    }

    /// The batch engine these options describe.
    pub fn engine(&self, script_budget: BudgetSpec) -> Engine {
        Engine {
            prove: self.prove_options(script_budget),
            mined: self.mined_rules.then(default_mined_catalog),
            ..self.jobs.map_or_else(Engine::new, Engine::with_threads)
        }
    }
}

/// A typed request — everything the system can be asked to do, in one
/// value the CLI, the script runner, and the serve daemon all build.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a verification script (`dopcert check` / `dopcert prove`).
    Prove {
        /// The `.dop` script source.
        script: String,
        /// Verification options.
        opts: RequestOptions,
    },
    /// Certified cost-based optimization of every query in a script's
    /// goals (`dopcert optimize`).
    Optimize {
        /// The `.dop` script source.
        script: String,
        /// Verification options (the budget drives the plan search).
        opts: RequestOptions,
    },
    /// Check the built-in rule catalog (`dopcert catalog`).
    Catalog {
        /// Also run cross-rule discovery (`--discover`).
        discover: bool,
        /// Verification options.
        opts: RequestOptions,
    },
    /// Cross-rule discovery alone over the sound catalog.
    Discover {
        /// Verification options (the budget scales the discovery
        /// graph's).
        opts: RequestOptions,
    },
    /// Run the rule-mining loop (`dopcert mine`): generate a CQ corpus,
    /// discover equalities, anti-unify them into candidate schemas,
    /// screen by random interpretation, and certify survivors with the
    /// trusted prover stack. On the daemon, accepted rules become the
    /// resident mined catalog that `optimize` requests with
    /// `mined-rules` on search with.
    Mine {
        /// Corpus seed (the whole run is a pure function of it).
        seed: u64,
        /// Cap on accepted rules.
        count: usize,
    },
    /// Server counters (`dopcert serve` only).
    Stats,
    /// Prometheus-style metrics exposition (`dopcert serve` only):
    /// per-request-kind latency histograms, memo hit/miss counters, and
    /// the saturation phase breakdown.
    Metrics,
    /// Per-rule saturation attribution table (`dopcert serve` only):
    /// the daemon's merged [`telemetry::Profile`] across all workers.
    Profile,
    /// Flush the Chrome-trace buffer (`dopcert serve` only): drains the
    /// accumulated events and returns them rendered, without stopping
    /// the daemon.
    Trace,
    /// Graceful daemon shutdown (`dopcert serve` only).
    Shutdown,
}

impl Request {
    /// The request's command name: its `cmd` on the wire and its label
    /// in the daemon's latency metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Prove { .. } => "prove",
            Request::Optimize { .. } => "optimize",
            Request::Catalog { .. } => "catalog",
            Request::Discover { .. } => "discover",
            Request::Mine { .. } => "mine",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Profile => "profile",
            Request::Trace => "trace",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One goal's result, rendered for the wire but keeping the verdict
/// machine-readable.
#[derive(Clone, Debug, PartialEq)]
pub struct GoalReport {
    /// Whether the goal was `verify` (else `refute`).
    pub expect_equivalent: bool,
    /// Whether the outcome satisfied the expectation.
    pub satisfied: bool,
    /// The goal's left query, rendered.
    pub lhs: String,
    /// The outcome line ([`GoalOutcome`]'s display form).
    pub outcome: String,
}

/// One query's optimization result (or failure).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanReport {
    /// Whether the plan is certified sound (cost did not regress and
    /// the certificate replays). `false` for errored queries.
    pub sound: bool,
    /// Estimated work of the input plan.
    pub cost_before: f64,
    /// Estimated work of the chosen plan.
    pub cost_after: f64,
    /// Which route produced the plan, rendered.
    pub route: String,
    /// The certifying prover, rendered.
    pub method: String,
    /// Certificate-trace length.
    pub steps: usize,
    /// The input query, rendered.
    pub input: String,
    /// The chosen plan, rendered.
    pub output: String,
    /// The optimizer error, when the query failed to optimize (the
    /// other fields are then zero/empty except `input`).
    pub error: Option<String>,
    /// Every candidate plan the optimizer measured (cheapest first,
    /// input included), with the shipped one flagged — the route
    /// narrative behind `dopcert optimize --explain`. Always populated
    /// on success; [`Response::render`] ignores it, so plain output is
    /// unchanged.
    pub candidates: Vec<optimizer::CandidateInfo>,
    /// Distinct lemma names appearing in the winning certificate's
    /// trace, in first-appearance order. Empty for structural
    /// (zero-step) certificates and errored queries.
    pub lemmas: Vec<String>,
}

impl PlanReport {
    /// The report for query `q`'s optimization outcome. A plan is
    /// sound only if it is no costlier than its input and its
    /// certificate replays under `budget` in `env` (see
    /// [`optimizer::Certificate::replay`]); an errored query is never
    /// sound. This is the one place both optimize paths gate a plan.
    pub fn new(
        q: &Query,
        report: Result<OptimizeReport, OptimizeError>,
        env: &QueryEnv,
        budget: Budget,
    ) -> PlanReport {
        match report {
            Err(e) => PlanReport {
                sound: false,
                cost_before: 0.0,
                cost_after: 0.0,
                route: String::new(),
                method: String::new(),
                steps: 0,
                input: q.to_string(),
                output: String::new(),
                error: Some(e.to_string()),
                candidates: Vec::new(),
                lemmas: Vec::new(),
            },
            Ok(r) => PlanReport {
                sound: r.cost_after <= r.cost_before
                    && r.certificate.replay(&r.input, &r.output, env, budget),
                cost_before: r.cost_before,
                cost_after: r.cost_after,
                route: r.route.to_string(),
                method: r.certificate.method.to_string(),
                steps: r.certificate.trace.len(),
                input: r.input.to_string(),
                output: r.output.to_string(),
                error: None,
                lemmas: certificate_lemmas(&r.certificate),
                candidates: r.candidates,
            },
        }
    }
}

/// One catalog rule's check result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleCheck {
    /// Rule name.
    pub name: String,
    /// Whether the verdict matched the rule's expected soundness.
    pub passed: bool,
}

/// One mined rule, as reported by a `mine` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinedRuleReport {
    /// Deterministic rule name (`m000`, `m001`, …).
    pub name: String,
    /// Rendered left side of the schema (holes spelled `?hN`).
    pub lhs: String,
    /// Rendered right side.
    pub rhs: String,
    /// Metavariable holes (0 = ground rule).
    pub holes: usize,
    /// The certifying engine (`tactics`, `tactics/syntactic`, or
    /// `saturate`).
    pub method: String,
    /// Certificate length in lemma steps.
    pub steps: usize,
    /// Whether re-proving reproduced the certificate byte for byte.
    pub replays: bool,
}

/// The outcome of a `mine` request: funnel counters plus the accepted
/// rules in mining order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MineSummary {
    /// Closed corpus expressions seeded into the discovery session.
    pub corpus: usize,
    /// Equal pairs the saturated discovery graph found.
    pub discovered: usize,
    /// Wellformed candidate schemas after dedup.
    pub candidates: usize,
    /// Candidates refuted by the screening oracle.
    pub screened_out: usize,
    /// Screened candidates the prover stack could not certify.
    pub uncertified: usize,
    /// Accepted rules with their certificates' vitals.
    pub rules: Vec<MinedRuleReport>,
}

/// One discovered cross-rule equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Discovery {
    /// First seed tag.
    pub lhs: String,
    /// Second seed tag.
    pub rhs: String,
    /// Whether the sides already normalize to one expression.
    pub structural: bool,
}

/// Latency summary of one request kind, derived from the daemon's
/// log₂-bucketed histogram for that kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindLatency {
    /// Request kind (`prove`, `optimize`, `catalog`, …).
    pub kind: String,
    /// Requests of this kind that completed.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
}

/// Counters a `dopcert serve` daemon reports for a `stats` request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Worker threads, each owning one resident [`Workspace`]; the
    /// workspaces share their verdict and plan memos.
    pub workers: usize,
    /// Requests received (including rejected and malformed ones).
    pub requests: usize,
    /// Requests answered with `ok: true`.
    pub ok: usize,
    /// Requests answered with an error response.
    pub errors: usize,
    /// Requests rejected by per-tenant budget admission control.
    pub budget_rejections: usize,
    /// Script goals checked across all prove requests.
    pub goals: usize,
    /// Memo hits across all resident sessions (verdict + plan memos).
    /// Published live, per goal — a long-running request shows progress
    /// here before it finishes.
    pub memo_hits: usize,
    /// Busy time across workers, microseconds.
    pub micros: u128,
    /// Memo hits per worker slot (sums to `memo_hits`; empty when the
    /// daemon predates the breakdown or has no workers).
    pub memo_hits_by_worker: Vec<usize>,
    /// Per-request-kind latency summaries, sorted by kind.
    pub latency: Vec<KindLatency>,
    /// Chrome-trace events dropped at the ring-buffer cap since start.
    /// Zero in healthy daemons; rendered only when nonzero.
    pub trace_dropped: u64,
}

/// A typed response. [`Response::render`] yields exactly the lines the
/// single-shot CLI prints for the same request.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Per-goal outcomes of a prove/check request.
    Goals(Vec<GoalReport>),
    /// Per-query reports of an optimize request.
    Plans(Vec<PlanReport>),
    /// Catalog check results, with discovery when requested.
    Catalog {
        /// Per-rule pass/fail in catalog order.
        rules: Vec<RuleCheck>,
        /// Cross-rule discoveries (`--discover` only).
        discovered: Option<Vec<Discovery>>,
    },
    /// Cross-rule discoveries alone.
    Discovered(Vec<Discovery>),
    /// A mining run's funnel and accepted rules.
    Mined(MineSummary),
    /// Server counters.
    Stats(ServerStats),
    /// Prometheus-style text exposition (one newline-terminated block).
    Metrics(String),
    /// The daemon's merged per-rule attribution table.
    Profile(telemetry::Profile),
    /// The drained Chrome-trace buffer, rendered as trace JSON.
    Trace(String),
    /// The request failed before producing a report (parse error,
    /// budget rejection, malformed wire line, …).
    Error(String),
}

impl Response {
    /// Whether every goal/plan/rule in the response passed.
    pub fn ok(&self) -> bool {
        match self {
            Response::Goals(goals) => goals.iter().all(|g| g.satisfied),
            Response::Plans(plans) => plans.iter().all(|p| p.sound),
            Response::Catalog { rules, .. } => rules.iter().all(|r| r.passed),
            Response::Mined(m) => !m.rules.is_empty() && m.rules.iter().all(|r| r.replays),
            Response::Discovered(_)
            | Response::Stats(_)
            | Response::Metrics(_)
            | Response::Profile(_)
            | Response::Trace(_) => true,
            Response::Error(_) => false,
        }
    }

    /// The exact stdout lines the CLI prints for this response — one
    /// string per `println!`, embedded newlines included. Shared by
    /// the CLI and the serve daemon, which is what makes their outputs
    /// diffable byte for byte.
    pub fn render(&self) -> Vec<String> {
        let tag = |ok: bool| if ok { "ok" } else { "FAIL" };
        match self {
            Response::Goals(goals) => goals
                .iter()
                .map(|g| {
                    format!(
                        "[{}] {}: {}\n    {}",
                        tag(g.satisfied),
                        if g.expect_equivalent {
                            "verify"
                        } else {
                            "refute"
                        },
                        g.lhs,
                        g.outcome
                    )
                })
                .collect(),
            Response::Plans(plans) => plans
                .iter()
                .map(|p| match &p.error {
                    Some(e) => format!("[FAIL] {}\n    {e}", p.input),
                    None => format!(
                        "[{}] cost {:.0} -> {:.0} via {} ({} in {} steps)\n    in:  {}\n    out: {}",
                        tag(p.sound),
                        p.cost_before,
                        p.cost_after,
                        p.route,
                        p.method,
                        p.steps,
                        p.input,
                        p.output,
                    ),
                })
                .collect(),
            Response::Catalog { rules, discovered } => {
                let mut lines: Vec<String> = rules
                    .iter()
                    .map(|r| format!("[{}] {}", tag(r.passed), r.name))
                    .collect();
                if let Some(found) = discovered {
                    lines.extend(render_discoveries(found));
                }
                lines
            }
            Response::Discovered(found) => render_discoveries(found),
            Response::Mined(m) => {
                let mut lines = vec![format!(
                    "mined {} rules (corpus {}, discovered {}, candidates {}, \
                     screened out {}, uncertified {})",
                    m.rules.len(), m.corpus, m.discovered, m.candidates,
                    m.screened_out, m.uncertified,
                )];
                for r in &m.rules {
                    let holes = match r.holes {
                        0 => "ground".to_owned(),
                        1 => "1 hole".to_owned(),
                        n => format!("{n} holes"),
                    };
                    lines.push(format!(
                        "[{}] {}{}: {} == {}\n    certified by {} in {} steps ({holes}); \
                         certificate {}",
                        tag(r.replays),
                        egraph::MINED_LABEL_PREFIX,
                        r.name,
                        r.lhs,
                        r.rhs,
                        r.method,
                        r.steps,
                        if r.replays { "replays" } else { "DOES NOT replay" },
                    ));
                }
                lines
            }
            Response::Stats(s) => {
                let hit_rate = if s.goals == 0 {
                    0.0
                } else {
                    100.0 * s.memo_hits as f64 / s.goals as f64
                };
                let mut lines = vec![
                    format!("workers: {}", s.workers),
                    format!(
                        "requests: {} ({} ok, {} error, {} budget-rejected)",
                        s.requests, s.ok, s.errors, s.budget_rejections
                    ),
                    format!("goals: {}", s.goals),
                    format!("memo hits: {} ({hit_rate:.1}% of goals)", s.memo_hits),
                    format!("busy: {:.1} ms", s.micros as f64 / 1e3),
                ];
                if !s.memo_hits_by_worker.is_empty() {
                    let per_worker: Vec<String> = s
                        .memo_hits_by_worker
                        .iter()
                        .enumerate()
                        .map(|(i, h)| format!("w{i}={h}"))
                        .collect();
                    lines.push(format!("memo hits by worker: {}", per_worker.join(" ")));
                }
                for l in &s.latency {
                    lines.push(format!(
                        "latency[{}]: p50={}us p90={}us p99={}us (n={})",
                        l.kind, l.p50_us, l.p90_us, l.p99_us, l.count
                    ));
                }
                if s.trace_dropped > 0 {
                    lines.push(format!("trace events dropped: {}", s.trace_dropped));
                }
                lines
            }
            Response::Metrics(text) => text.lines().map(str::to_owned).collect(),
            Response::Profile(profile) => profile.render_table(),
            Response::Trace(text) => text.lines().map(str::to_owned).collect(),
            Response::Error(e) => vec![format!("error: {e}")],
        }
    }

    /// The `dopcert optimize --explain` narrative: per query, every
    /// candidate route the optimizer measured with its estimated cost
    /// (the shipped one flagged) and the lemmas the winning certificate
    /// leans on. Empty for non-plan responses and errored queries. The
    /// data rides inside the memoized [`OptimizeReport`], so session
    /// and fresh answers narrate identically.
    pub fn render_explain(&self) -> Vec<String> {
        let Response::Plans(plans) = self else {
            return Vec::new();
        };
        let mut lines = Vec::new();
        for p in plans {
            if p.error.is_some() {
                continue;
            }
            lines.push(format!("explain {}:", p.input));
            for c in &p.candidates {
                lines.push(format!(
                    "  candidate cost {:>8.0}  {}{}",
                    c.cost,
                    c.route,
                    if c.chosen { "  <- shipped" } else { "" }
                ));
            }
            if p.lemmas.is_empty() {
                lines.push("  certificate lemmas: none (structural)".into());
            } else {
                lines.push(format!("  certificate lemmas: {}", p.lemmas.join(", ")));
            }
        }
        lines
    }
}

fn render_discoveries(found: &[Discovery]) -> Vec<String> {
    let mut lines = vec![format!("{} cross-rule equalities discovered:", found.len())];
    lines.extend(found.iter().map(|d| {
        format!(
            "  {} == {}{}",
            d.lhs,
            d.rhs,
            if d.structural {
                " (same normal form)"
            } else {
                ""
            }
        )
    }));
    lines
}

/// One worker's state: a [`ProveSession`] and a [`PlanSession`] bound to
/// one set of [`ProveOptions`], plus the mined catalog that `mined-rules`
/// optimize requests search with. A new workspace is fresh state, a kept
/// one is resident state, and both run the same pipeline: answers are
/// byte-identical either way (the session-identity guarantee, asserted by
/// `tests/session.rs` and `tests/serve.rs`).
///
/// The batch [`Engine`] builds one private workspace per worker. A
/// `dopcert serve` daemon's workers hold [`Workspace::sibling`]s of one
/// workspace, which share its query-level verdict memo, its plan memo
/// and its mined catalog.
///
/// [`Workspace::execute`] answers a request whose *effective options
/// differ* from the workspace's on fresh state ([`execute`]): a session
/// only answers under the exact options it was built with, so routing,
/// say, a tighter-budget request through it would either bypass every
/// memo or (worse) close goals under the wrong budget.
#[derive(Debug)]
pub struct Workspace {
    pub(crate) prove: ProveSession,
    plan: PlanSession,
    /// The catalog the last `mine` request produced, shared with every
    /// sibling. Until one runs, `mined-rules` requests search with the
    /// process-wide default catalog.
    mined: Arc<Mutex<Option<Arc<Vec<egraph::MinedRule>>>>>,
}

impl Workspace {
    /// A workspace resident at these default options.
    pub fn new(defaults: RequestOptions) -> Workspace {
        Workspace::with_options(defaults.prove_options(BudgetSpec::default()))
    }

    /// A workspace on fresh state under resolved verification options.
    pub fn with_options(opts: ProveOptions) -> Workspace {
        Workspace {
            prove: ProveSession::new(opts),
            plan: PlanSession::new(opts.budget),
            mined: Arc::default(),
        }
    }

    /// A workspace at this one's options that shares its query-level
    /// verdict memo, its plan memo and its mined catalog: a repeat is a
    /// hit on either memo, and a `mine` request on one sets the catalog
    /// of all. Everything else starts fresh and stays its own: the
    /// denotation-level memo and its interner, the saturation goal memo
    /// and the hit counters.
    pub fn sibling(&self) -> Workspace {
        Workspace {
            prove: self.prove.sibling(),
            plan: self.plan.sibling(),
            mined: Arc::clone(&self.mined),
        }
    }

    /// Verifies a rule. Verdict, method, and step count are identical
    /// whether the workspace is fresh or warm (the session-identity
    /// guarantee); only wall-clock differs.
    pub fn prove_rule(&mut self, rule: &Rule) -> RuleReport {
        let _span = telemetry::span("prove.rule");
        crate::prove::prove_rule_on(rule, &mut self.prove)
    }

    /// Verifies one denoted instance (the engine's pair path).
    ///
    /// # Errors
    ///
    /// Returns the diagnostics and attempted-method list on failure.
    pub fn verify_instance(&mut self, inst: &RuleInstance) -> Verdict {
        let _span = telemetry::span("prove.goal");
        crate::prove::verify_instance(inst, &mut self.prove)
    }

    /// Runs a parsed script's goals on this workspace's state.
    pub fn run_script(&mut self, script: &Script) -> Vec<GoalOutcome> {
        crate::script::run_script_in(script, self)
    }

    /// Optimizes one query on this workspace's plan memo, searching with
    /// `mined` rewrite rules when given. Reports are identical whether
    /// the memo is fresh or warm; the memo keys its plans by catalog, so
    /// `None` is bit-identical to a workspace that never saw mined rules.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] when the query fails to type or
    /// denote.
    pub fn optimize(
        &mut self,
        q: &Query,
        env: &QueryEnv,
        stats: &Statistics,
        mined: Option<&Arc<Vec<egraph::MinedRule>>>,
    ) -> Result<OptimizeReport, OptimizeError> {
        let opts = OptimizeOptions {
            budget: self.plan.budget(),
        };
        let ctx = PlanCtx::session(&mut self.plan).with_mined(mined);
        optimizer::optimize(q, env, stats, opts, ctx)
    }

    /// Total memo hits across the two sessions.
    pub fn memo_hits(&self) -> usize {
        self.prove.verdict_hits() + self.plan.plan_hits()
    }

    /// The live hit counters of the verdict memo and the plan memo: the
    /// sessions add to them on every hit, so a clone taken once reads
    /// this workspace's hits from another thread, mid-request.
    pub fn hit_counters(&self) -> [Arc<AtomicUsize>; 2] {
        [self.prove.hit_counter(), self.plan.hit_counter()]
    }

    /// The catalog `mined-rules` requests search with: the one the last
    /// `mine` request produced, the process-wide default otherwise.
    fn mined_catalog(&self) -> Arc<Vec<egraph::MinedRule>> {
        let mined = self.mined.lock().expect("mined catalog lock").clone();
        mined.unwrap_or_else(default_mined_catalog)
    }

    /// Answers a request on the resident state where the effective
    /// options allow it, on fresh state otherwise (see type docs).
    pub fn execute(&mut self, req: &Request) -> Response {
        match req {
            Request::Prove { script, opts } => {
                let script = match parse_script(script) {
                    Ok(s) => s,
                    Err(e) => return Response::Error(e.to_string()),
                };
                if opts.prove_options(script.budget) != self.prove.options() {
                    return execute(req);
                }
                goals_response(&script, self.run_script(&script))
            }
            Request::Optimize { script, opts } => {
                let script = match parse_script(script) {
                    Ok(s) => s,
                    Err(e) => return Response::Error(e.to_string()),
                };
                if opts.prove_options(script.budget).budget != self.plan.budget() {
                    return execute(req);
                }
                optimize_script(&script, opts, Some(self))
            }
            Request::Mine { seed, count } => {
                let (summary, rules) = run_mine(*seed, *count);
                *self.mined.lock().expect("mined catalog lock") = Some(rules);
                Response::Mined(summary)
            }
            // Catalog/discovery runs are engine-shaped (their own
            // worker pool); resident state would buy nothing, so they
            // always run fresh.
            _ => execute(req),
        }
    }
}

/// One-shot rule verification on fresh state.
pub fn prove_rule(rule: &Rule) -> RuleReport {
    Workspace::with_options(ProveOptions::default()).prove_rule(rule)
}

/// Runs the mining loop and packages the result for the wire, returning
/// the compiled rules alongside so residents can adopt them as their
/// catalog.
fn run_mine(seed: u64, count: usize) -> (MineSummary, Arc<Vec<egraph::MinedRule>>) {
    let report = mine::mine(&mine::MineConfig {
        seed,
        max_rules: count.max(1),
        ..mine::MineConfig::default()
    });
    let summary = MineSummary {
        corpus: report.corpus_size,
        discovered: report.discovered,
        candidates: report.candidates,
        screened_out: report.screened_out,
        uncertified: report.uncertified,
        rules: report
            .accepted
            .iter()
            .map(|e| MinedRuleReport {
                name: e.name.clone(),
                lhs: e.lhs.clone(),
                rhs: e.rhs.clone(),
                holes: e.holes,
                method: e.method.clone(),
                steps: e.steps,
                replays: e.replays,
            })
            .collect(),
    };
    (summary, Arc::new(report.rules))
}

/// The catalog a single-shot `--mined-rules` run searches with: one
/// default-configuration mining run, cached for the life of the process
/// (mining is a pure function of its config, so the cache is
/// transparent).
pub(crate) fn default_mined_catalog() -> Arc<Vec<egraph::MinedRule>> {
    static CATALOG: std::sync::OnceLock<Arc<Vec<egraph::MinedRule>>> = std::sync::OnceLock::new();
    Arc::clone(CATALOG.get_or_init(|| {
        let cfg = mine::MineConfig::default();
        run_mine(cfg.seed, cfg.max_rules).1
    }))
}

/// Answers a request on fresh state — what one CLI invocation does.
/// `Stats`/`Shutdown` are daemon-only and answer with an error here.
pub fn execute(req: &Request) -> Response {
    match req {
        Request::Prove { script, opts } => {
            let script = match parse_script(script) {
                Ok(s) => s,
                Err(e) => return Response::Error(e.to_string()),
            };
            let mut ws = Workspace::with_options(opts.prove_options(script.budget));
            goals_response(&script, ws.run_script(&script))
        }
        Request::Optimize { script, opts } => {
            let script = match parse_script(script) {
                Ok(s) => s,
                Err(e) => return Response::Error(e.to_string()),
            };
            optimize_script(&script, opts, None)
        }
        Request::Catalog { discover, opts } => {
            let popts = opts.prove_options(BudgetSpec::default());
            let engine = opts.engine(BudgetSpec::default());
            let rules = engine
                .check_catalog(&crate::catalog::all_rules())
                .into_iter()
                .map(|(name, passed)| RuleCheck { name, passed })
                .collect();
            let discovered = discover.then(|| discoveries(popts));
            Response::Catalog { rules, discovered }
        }
        Request::Discover { opts } => {
            Response::Discovered(discoveries(opts.prove_options(BudgetSpec::default())))
        }
        Request::Mine { seed, count } => Response::Mined(run_mine(*seed, *count).0),
        Request::Stats
        | Request::Metrics
        | Request::Profile
        | Request::Trace
        | Request::Shutdown => Response::Error(
            "stats/metrics/profile/trace/shutdown requests are answered by `dopcert serve` only"
                .into(),
        ),
    }
}

/// Zips a script's goals with their outcomes into a response.
fn goals_response(script: &Script, outcomes: Vec<GoalOutcome>) -> Response {
    Response::Goals(
        script
            .goals
            .iter()
            .zip(outcomes)
            .map(|(goal, outcome)| GoalReport {
                expect_equivalent: goal.expect_equivalent,
                satisfied: outcome.satisfies(goal.expect_equivalent),
                lhs: goal.lhs.to_string(),
                outcome: outcome.to_string(),
            })
            .collect(),
    )
}

/// The optimize pipeline over a parsed script: every distinct goal
/// query in first-seen order, through the batch engine (fresh path) or
/// a resident [`Workspace`] (serve path). Both paths build each report
/// with [`PlanReport::new`], so each plan is gated on its certificate
/// replaying; on the engine path that replay runs on the worker that
/// optimized the query, in the same parallel pass.
fn optimize_script(
    script: &Script,
    opts: &RequestOptions,
    resident: Option<&mut Workspace>,
) -> Response {
    let mut queries: Vec<Query> = Vec::new();
    for goal in &script.goals {
        for q in [&goal.lhs, &goal.rhs] {
            if !queries.contains(q) {
                queries.push(q.clone());
            }
        }
    }
    if queries.is_empty() {
        return Response::Error("the script declares no goals to optimize".into());
    }
    let budget = opts.prove_options(script.budget).budget;
    let finish = |q: &Query, report| PlanReport::new(q, report, &script.env, budget);
    Response::Plans(match resident {
        Some(ws) => {
            let mined = opts.mined_rules.then(|| ws.mined_catalog());
            let (env, stats) = (&script.env, &script.stats);
            queries
                .iter()
                .map(|q| finish(q, ws.optimize(q, env, stats, mined.as_ref())))
                .collect()
        }
        None => opts.engine(script.budget).optimize_batch_with(
            &script.env,
            &script.stats,
            &queries,
            finish,
        ),
    })
}

/// Distinct lemma names in a certificate's trace, first-appearance
/// order — the "which algebra did the proof lean on" half of the
/// explain narrative.
fn certificate_lemmas(cert: &optimizer::Certificate) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (lemma, _) in cert.trace.steps() {
        let name = lemma.name();
        if !names.iter().any(|n| n == name) {
            names.push(name.to_owned());
        }
    }
    names
}

/// Cross-rule discovery over the sound catalog.
fn discoveries(popts: ProveOptions) -> Vec<Discovery> {
    crate::session::discover_catalog(&crate::catalog::sound_rules(), popts)
        .into_iter()
        .map(|(lhs, rhs, structural)| Discovery {
            lhs,
            rhs,
            structural,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_spec_is_the_single_validation_point() {
        let mut spec = BudgetSpec::default();
        assert!(spec.is_empty());
        spec.set("iters", 40).unwrap();
        spec.parse_set("oracle-calls", "7").unwrap();
        assert!(spec.set("iters", 0).is_err(), "zero budgets rejected");
        assert!(spec.set("bogus", 3).is_err(), "unknown knobs rejected");
        assert!(spec.parse_set("nodes", "many").is_err());
        let resolved = spec.apply(Budget::default());
        assert_eq!(resolved.max_iters, 40);
        assert_eq!(resolved.max_nodes, Budget::default().max_nodes);
        assert_eq!(resolved.oracle_calls_per_iter, 7);
    }

    #[test]
    fn budget_precedence_is_request_over_script_over_default() {
        let mut request = BudgetSpec::default();
        request.set("iters", 50).unwrap();
        let mut script = BudgetSpec::default();
        script.set("iters", 10).unwrap();
        script.set("nodes", 500).unwrap();
        let merged = request.or(script).apply(Budget::default());
        assert_eq!(merged.max_iters, 50, "request knob wins");
        assert_eq!(merged.max_nodes, 500, "script fills unset knobs");
        assert_eq!(
            merged.oracle_calls_per_iter,
            Budget::default().oracle_calls_per_iter,
            "defaults fill the rest"
        );
    }

    #[test]
    fn execute_prove_matches_the_script_runner() {
        let src = "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);";
        let resp = execute(&Request::Prove {
            script: src.into(),
            opts: RequestOptions::default(),
        });
        assert!(resp.ok());
        let lines = resp.render();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("[ok] verify: "), "{}", lines[0]);
        assert!(lines[0].contains("proved by"), "{}", lines[0]);
    }

    #[test]
    fn execute_reports_parse_errors_as_error_responses() {
        let resp = execute(&Request::Prove {
            script: "tble R(int);".into(),
            opts: RequestOptions::default(),
        });
        assert!(!resp.ok());
        assert!(matches!(&resp, Response::Error(e) if e.starts_with("parse error at byte ")));
    }

    #[test]
    fn workspace_is_bit_identical_to_fresh_execute_and_hits_its_memo() {
        let src = "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);";
        let req = Request::Prove {
            script: src.into(),
            opts: RequestOptions::default(),
        };
        let fresh = execute(&req);
        let mut ws = Workspace::new(RequestOptions::default());
        let first = ws.execute(&req);
        let second = ws.execute(&req);
        assert_eq!(fresh.render(), first.render());
        assert_eq!(fresh.render(), second.render());
        assert!(ws.memo_hits() > 0, "repeat request must hit the memo");
    }

    #[test]
    fn a_sibling_answers_its_workspaces_repeats_from_the_shared_memos() {
        let opts = RequestOptions::default();
        let prove = Request::Prove {
            script: "table R(int);\ntable S(int);\n\
                     verify (R UNION ALL S) == (S UNION ALL R);\n\
                     refute S == (S UNION ALL S);"
                .into(),
            opts,
        };
        let optimize = Request::Optimize {
            script: "table R(int, int);\nrows R 1000000;\n\
                     verify DISTINCT SELECT Right.Left FROM R \
                     == DISTINCT SELECT Right.Left.Left FROM R, R \
                     WHERE Right.Left.Left = Right.Right.Left;"
                .into(),
            opts,
        };
        let mut a = Workspace::new(opts);
        let mut b = a.sibling();
        // Two goals, then two distinct queries: each is a hit on B.
        for req in [prove, optimize] {
            a.execute(&req);
            let before = b.memo_hits();
            let resp = b.execute(&req);
            assert_eq!(b.memo_hits() - before, 2, "{req:?}");
            assert!(resp.ok(), "{:?}", resp.render());
            assert_eq!(resp.render(), execute(&req).render());
        }
        assert_eq!(a.memo_hits(), 0, "A only recorded");
    }

    #[test]
    fn a_sibling_optimizes_with_the_catalog_its_root_mined() {
        let mut root = Workspace::new(RequestOptions::default());
        let mut sibling = root.sibling();
        // Three rules, where the default catalog has sixteen: the plan
        // memo's fingerprint names the catalog, so only a sibling
        // searching with the root's catalog can hit the root's plan.
        let mine = Request::Mine {
            seed: mine::MineConfig::default().seed,
            count: 3,
        };
        assert!(root.execute(&mine).ok());
        let optimize = Request::Optimize {
            script: "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);".into(),
            opts: RequestOptions {
                mined_rules: true,
                ..RequestOptions::default()
            },
        };
        let resp = root.execute(&optimize);
        assert!(resp.ok(), "{:?}", resp.render());
        assert_eq!(sibling.execute(&optimize).render(), resp.render());
        assert_eq!(sibling.memo_hits(), 1, "the root's plan, under its catalog");
        assert_eq!(sibling.mined_catalog().len(), 3);
    }

    #[test]
    fn a_cloned_hit_counter_reads_a_repeats_hits() {
        let opts = RequestOptions::default();
        let prove = Request::Prove {
            script: "table R(int);\ntable S(int);\n\
                     verify (R UNION ALL S) == (S UNION ALL R);\n\
                     refute S == (S UNION ALL S);"
                .into(),
            opts,
        };
        let optimize = Request::Optimize {
            script: "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);".into(),
            opts,
        };
        let mut ws = Workspace::new(opts);
        let [verdicts, plans] = ws.hit_counters();
        for req in [&prove, &prove, &optimize, &optimize] {
            ws.execute(req);
        }
        // Two goals, then one distinct query, answered from the memos
        // on their repeats.
        assert_eq!(verdicts.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(plans.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(ws.memo_hits(), 3);
    }

    #[test]
    fn workspace_falls_back_to_fresh_state_on_non_default_options() {
        let src = "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);";
        let mut tighter = RequestOptions::default();
        tighter.budget.set("iters", 3).unwrap();
        let req = Request::Prove {
            script: src.into(),
            opts: tighter,
        };
        let mut ws = Workspace::new(RequestOptions::default());
        let resp = ws.execute(&req);
        assert_eq!(resp.render(), execute(&req).render());
        ws.execute(&req);
        assert_eq!(ws.memo_hits(), 0, "non-default requests bypass the memo");
    }

    #[test]
    fn mine_request_certifies_replayable_rules() {
        let resp = execute(&Request::Mine {
            seed: mine::MineConfig::default().seed,
            count: 3,
        });
        assert!(resp.ok(), "{:?}", resp.render());
        let Response::Mined(summary) = &resp else {
            panic!("expected Mined, got {resp:?}");
        };
        assert_eq!(summary.rules.len(), 3);
        assert!(summary.rules.iter().all(|r| r.replays), "{summary:?}");
        let lines = resp.render();
        assert!(lines[0].starts_with("mined 3 rules ("), "{}", lines[0]);
        assert!(lines[1].starts_with("[ok] mined:m000: "), "{}", lines[1]);
        assert!(lines[2].contains("certified by"), "{}", lines[2]);
    }

    #[test]
    fn mined_rules_widen_the_search_and_off_restores_bit_identity() {
        let src = "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);";
        let on = RequestOptions {
            mined_rules: true,
            ..RequestOptions::default()
        };
        let req_on = Request::Optimize {
            script: src.into(),
            opts: on,
        };
        let req_off = Request::Optimize {
            script: src.into(),
            opts: RequestOptions::default(),
        };
        let fresh_off = execute(&req_off);
        assert!(fresh_off.ok(), "{:?}", fresh_off.render());
        let mut ws = Workspace::new(RequestOptions::default());
        let resp_on = ws.execute(&req_on);
        assert!(resp_on.ok(), "{:?}", resp_on.render());
        // Turning the flag back off restores the default search exactly.
        let resp_off = ws.execute(&req_off);
        assert_eq!(resp_off.render(), fresh_off.render());
        // The fresh (engine) path answers the flagged request the same
        // way the resident planner does.
        let fresh_on = execute(&req_on);
        assert!(fresh_on.ok(), "{:?}", fresh_on.render());
        assert_eq!(fresh_on.render(), resp_on.render());
    }

    #[test]
    fn stats_render_reports_the_hit_rate() {
        let stats = ServerStats {
            workers: 2,
            requests: 10,
            ok: 8,
            errors: 1,
            budget_rejections: 1,
            goals: 20,
            memo_hits: 5,
            micros: 1234,
            memo_hits_by_worker: vec![2, 3],
            latency: vec![KindLatency {
                kind: "prove".into(),
                count: 8,
                p50_us: 150,
                p90_us: 900,
                p99_us: 1100,
            }],
            trace_dropped: 0,
        };
        let lines = Response::Stats(stats.clone()).render();
        assert_eq!(lines[0], "workers: 2");
        assert_eq!(lines[1], "requests: 10 (8 ok, 1 error, 1 budget-rejected)");
        assert_eq!(lines[3], "memo hits: 5 (25.0% of goals)");
        assert!(lines.contains(&"memo hits by worker: w0=2 w1=3".to_owned()));
        assert!(lines.contains(&"latency[prove]: p50=150us p90=900us p99=1100us (n=8)".to_owned()));
        assert!(
            !lines.iter().any(|l| l.contains("trace events dropped")),
            "healthy daemons don't mention the drop counter"
        );
        let noisy = ServerStats {
            trace_dropped: 3,
            ..stats
        };
        let lines = Response::Stats(noisy).render();
        assert_eq!(lines.last().unwrap(), "trace events dropped: 3");
    }
}
