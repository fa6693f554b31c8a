//! The DOPCERT command-line checker.
//!
//! ```sh
//! dopcert check file.dop        # run a verification script
//! dopcert prove file.dop        # prover-only (no counterexample search
//!                               #   shortcuts), same script syntax
//! dopcert prove --saturate -    # …every non-CQ goal by equality
//!                               #   saturation alone
//! dopcert optimize file.dop     # certified cost-based optimization of
//!                               #   every query in the script's goals
//! dopcert catalog               # verify the whole built-in rule catalog
//! dopcert catalog --jobs 4      # …on an explicit number of workers
//! dopcert catalog --saturate    # …with saturation instead of tactics
//! dopcert mine                  # synthesize rewrite rules from the
//!                               #   discovery corpus, certify each one
//! dopcert mine --seed 7 --count 4       # …a different corpus shuffle
//! dopcert optimize --mined-rules q.dop  # plan with the mined catalog
//! dopcert serve --addr 127.0.0.1:7411   # resident daemon (JSON lines)
//! dopcert request --addr 127.0.0.1:7411 file.dop   # one request to it
//! ```
//!
//! Every subcommand builds one [`dopcert::api::Request`] and prints
//! [`dopcert::api::Response::render`] — the same code path the `serve`
//! daemon answers over the wire, which is why `dopcert request` output
//! is byte-identical to running the subcommand locally. Timing
//! summaries go to stderr so stdout is diffable.
//!
//! Shared flags:
//!
//! - `--saturate` — prove with equality saturation only (the smoke mode
//!   for the `egraph` crate); the default is tactics with saturation
//!   fallback;
//! - `--sat-iters N` / `--sat-nodes N` / `--sat-oracle-calls N` —
//!   saturation budget (iterations, e-nodes, oracle calls/iteration),
//!   validated by the same [`BudgetSpec`] as script `budget` directives
//!   and serve requests;
//! - `--jobs N` / `-j N` — worker threads (catalog/optimize), or the
//!   resident workspaces in the daemon's pool (serve); each worker or
//!   workspace keeps one persistent session, and answers are the same
//!   whatever the count;
//! - `--discover` — after `catalog` verification, saturate one
//!   multi-seed discovery graph over every rule's sides and list the
//!   equalities it proved between *different* rules' seeds;
//! - `--addr HOST:PORT` — listen address (`serve`) or daemon address
//!   (`request`);
//! - `--cmd NAME` / `--tenant NAME` — the request kind (default
//!   `prove`) and budget account (`request` only);
//! - `--trace-out FILE` — dump phase spans as Chrome trace-event JSON
//!   on exit (`prove`/`optimize`/`serve`; load in Perfetto);
//! - `--profile` — after the response, print the per-rule saturation
//!   attribution table: matches, unions, e-nodes added, oracle calls,
//!   and apply time per rewrite rule (`prove`/`optimize`/`catalog`);
//! - `--explain` — after the plans, narrate each query's optimization:
//!   every candidate route measured with its cost, which one shipped,
//!   and the lemmas the winning certificate leans on (`optimize`);
//! - `--budget-refill N` — refill every tenant's spent iterations at
//!   `N` iterations/second (`serve`; the default never refills);
//! - `--mined-rules` — add the mined rewrite catalog to the plan
//!   search (`optimize`, or `serve` to make it the daemon default);
//!   off, plans are bit-identical to a build without mining;
//! - `--seed N` / `--count N` — mining corpus seed and the maximum
//!   number of rules to certify (`mine` only).
//!
//! Script syntax (see `dopcert::script`):
//!
//! ```text
//! table R(int, int);
//! budget iters 40;
//! verify DISTINCT SELECT Right.Left FROM R
//!     == DISTINCT SELECT Right.Left.Left FROM R, R
//!        WHERE Right.Left.Left = Right.Right.Left;
//! ```

use dopcert::api::{BudgetSpec, Request, RequestOptions, Response};
use dopcert::prove::SaturateMode;
use dopcert::serve::{request_once, RefillPolicy, ServeConfig, Server};
use dopcert::wire::Json;
use egraph::session::BatchBudget;
use std::io::Read;
use std::process::ExitCode;

/// Flags shared by the subcommands, parsed from the trailing arguments.
#[derive(Debug, Default)]
struct Flags {
    jobs: Option<usize>,
    saturate: bool,
    /// The three saturation knobs, through the shared validation point.
    budget: BudgetSpec,
    discover: bool,
    addr: Option<String>,
    cmd: Option<String>,
    tenant: Option<String>,
    /// Chrome-trace output path (`prove`/`optimize`/`serve`): enables
    /// phase tracing and dumps the events on exit.
    trace_out: Option<String>,
    /// Print the per-rule attribution table after the response
    /// (`prove`/`optimize`/`catalog`): enables profiling for the run.
    profile: bool,
    /// Narrate candidate routes and certificate lemmas per optimized
    /// query (`optimize` only).
    explain: bool,
    /// Budget refill rate in iterations per second (`serve` only).
    budget_refill: Option<u64>,
    /// Plan with the mined rewrite catalog (`optimize`/`serve`).
    mined_rules: bool,
    /// Mining corpus seed (`mine` only).
    seed: Option<u64>,
    /// Maximum number of mined rules to certify (`mine` only).
    count: Option<usize>,
    /// First non-flag argument (the script path for check/prove).
    positional: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    let parse_num = |flag: &str, v: Option<&String>| -> Result<usize, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a number"))?;
        v.parse::<usize>()
            .map_err(|_| format!("invalid {flag} value {v:?}"))
    };
    let parse_str = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_knob = |flags: &mut Flags, knob: &str, v: Option<&String>| match v {
        Some(v) => flags.budget.parse_set(knob, v),
        None => Err(format!("--sat-{knob} needs a number")),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => flags.jobs = Some(parse_num(arg, it.next())?),
            "--saturate" => flags.saturate = true,
            "--sat-iters" => parse_knob(&mut flags, "iters", it.next())?,
            "--sat-nodes" => parse_knob(&mut flags, "nodes", it.next())?,
            "--sat-oracle-calls" => parse_knob(&mut flags, "oracle-calls", it.next())?,
            "--discover" => flags.discover = true,
            "--addr" => flags.addr = Some(parse_str(arg, it.next())?),
            "--cmd" => flags.cmd = Some(parse_str(arg, it.next())?),
            "--tenant" => flags.tenant = Some(parse_str(arg, it.next())?),
            "--trace-out" => flags.trace_out = Some(parse_str(arg, it.next())?),
            "--profile" => flags.profile = true,
            "--explain" => flags.explain = true,
            "--budget-refill" => {
                let n = parse_num(arg, it.next())?;
                if n == 0 {
                    return Err("--budget-refill must be positive".into());
                }
                flags.budget_refill = Some(n as u64);
            }
            "--mined-rules" => flags.mined_rules = true,
            "--seed" => flags.seed = Some(parse_num(arg, it.next())? as u64),
            "--count" => {
                let n = parse_num(arg, it.next())?;
                if n == 0 {
                    return Err("--count must be positive".into());
                }
                flags.count = Some(n);
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown flag {other:?}"));
            }
            other => {
                if flags.positional.replace(other.to_owned()).is_some() {
                    return Err("more than one input path".into());
                }
            }
        }
    }
    Ok(flags)
}

impl Flags {
    /// Rejects flags the subcommand would silently ignore.
    fn validate_for(&self, cmd: &str) -> Result<(), String> {
        let reject = |cond: bool, flag: &str| {
            if cond {
                Err(format!("{flag} is not accepted by `{cmd}`"))
            } else {
                Ok(())
            }
        };
        if !matches!(cmd, "serve" | "request") {
            reject(self.addr.is_some(), "--addr (use `serve` or `request`)")?;
            reject(self.cmd.is_some(), "--cmd (use `request`)")?;
            reject(self.tenant.is_some(), "--tenant (use `request`)")?;
        }
        if !matches!(cmd, "prove" | "optimize" | "serve") {
            reject(
                self.trace_out.is_some(),
                "--trace-out (use `prove`, `optimize`, or `serve`)",
            )?;
        }
        if cmd != "serve" {
            reject(
                self.budget_refill.is_some(),
                "--budget-refill (use `serve`)",
            )?;
        }
        if !matches!(cmd, "prove" | "optimize" | "catalog") {
            reject(
                self.profile,
                "--profile (use `prove`, `optimize`, or `catalog`)",
            )?;
        }
        if cmd != "optimize" {
            reject(self.explain, "--explain (use `optimize`)")?;
        }
        if !matches!(cmd, "optimize" | "serve" | "request") {
            reject(
                self.mined_rules,
                "--mined-rules (use `optimize`, `serve`, or `request`)",
            )?;
        }
        if !matches!(cmd, "mine" | "request") {
            reject(self.seed.is_some(), "--seed (use `mine`)")?;
            reject(self.count.is_some(), "--count (use `mine`)")?;
        }
        match cmd {
            "check" => {
                reject(self.jobs.is_some(), "--jobs")?;
                reject(self.saturate, "--saturate (use `prove`)")?;
                reject(self.budget.iters.is_some(), "--sat-iters (use `prove`)")?;
                reject(self.budget.nodes.is_some(), "--sat-nodes (use `prove`)")?;
                reject(
                    self.budget.oracle_calls.is_some(),
                    "--sat-oracle-calls (use `prove`)",
                )?;
                reject(self.discover, "--discover (use `catalog`)")?;
            }
            "prove" => {
                reject(self.jobs.is_some(), "--jobs")?;
                reject(self.discover, "--discover (use `catalog`)")?;
            }
            "optimize" => {
                // Optimization always saturates; the mode flag would be
                // silently ignored, so reject it (budget flags apply).
                reject(self.saturate, "--saturate (optimize always saturates)")?;
                reject(self.discover, "--discover (use `catalog`)")?;
            }
            "catalog" => {
                reject(self.positional.is_some(), "a script path")?;
            }
            "mine" => {
                // Mining runs under its own internal budgets; every
                // engine/budget flag would be silently ignored.
                reject(self.positional.is_some(), "a script path")?;
                reject(self.jobs.is_some(), "--jobs")?;
                reject(self.saturate, "--saturate")?;
                reject(self.budget.iters.is_some(), "--sat-iters")?;
                reject(self.budget.nodes.is_some(), "--sat-nodes")?;
                reject(self.budget.oracle_calls.is_some(), "--sat-oracle-calls")?;
                reject(self.discover, "--discover (use `catalog`)")?;
            }
            "serve" => {
                reject(self.positional.is_some(), "a script path")?;
                reject(self.discover, "--discover (use `catalog`)")?;
                reject(self.cmd.is_some(), "--cmd (use `request`)")?;
                reject(self.tenant.is_some(), "--tenant (use `request`)")?;
            }
            "request" => {
                reject(self.addr.is_none(), "(missing) --addr")?;
            }
            _ => {}
        }
        Ok(())
    }

    /// The request options these flags describe — [`RequestOptions`] is
    /// the typed form every front end shares.
    fn request_options(&self) -> RequestOptions {
        RequestOptions {
            saturate: if self.saturate {
                SaturateMode::Only
            } else {
                SaturateMode::Fallback
            },
            budget: self.budget,
            jobs: self.jobs,
            mined_rules: self.mined_rules,
        }
    }

    fn read_script(&self) -> Result<String, String> {
        match self.positional.as_deref() {
            Some("-") | None => {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("cannot read stdin: {e}"))?;
                Ok(buf)
            }
            Some(path) => {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
            }
        }
    }

    /// Builds the typed request for a subcommand (or `--cmd` name).
    fn build_request(&self, cmd: &str) -> Result<Request, String> {
        Ok(match cmd {
            // `check` runs at the library defaults: tactics first,
            // saturation as fallback (non-CQ goals only gain proofs
            // from this; refute goals pay at most the ms-scale
            // saturation budget before the counterexample hunt).
            "check" => Request::Prove {
                script: self.read_script()?,
                opts: RequestOptions::default(),
            },
            "prove" => Request::Prove {
                script: self.read_script()?,
                opts: self.request_options(),
            },
            "optimize" => Request::Optimize {
                script: self.read_script()?,
                opts: self.request_options(),
            },
            "catalog" => Request::Catalog {
                discover: self.discover,
                opts: self.request_options(),
            },
            "discover" => Request::Discover {
                opts: self.request_options(),
            },
            "mine" => {
                let defaults = mine::MineConfig::default();
                Request::Mine {
                    seed: self.seed.unwrap_or(defaults.seed),
                    count: self.count.unwrap_or(defaults.max_rules),
                }
            }
            "stats" => Request::Stats,
            "metrics" => Request::Metrics,
            "profile" => Request::Profile,
            "trace" => Request::Trace,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request cmd {other:?}")),
        })
    }
}

/// Turns phase tracing on when `--trace-out` was given.
fn start_tracing(flags: &Flags) {
    if flags.trace_out.is_some() {
        telemetry::enable_tracing();
    }
}

/// Dumps the buffered trace events as Chrome trace-event JSON (load in
/// Perfetto / `chrome://tracing`) when `--trace-out` was given.
fn finish_tracing(flags: &Flags) {
    if let Some(path) = &flags.trace_out {
        match telemetry::write_chrome_trace(std::path::Path::new(path)) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("error: cannot write trace to {path}: {e}"),
        }
    }
}

/// Prints a response the way the subcommands always have: rendered
/// lines to stdout, error responses to stderr, exit code from `ok()`.
fn print_response(resp: &Response) -> ExitCode {
    match resp {
        Response::Error(_) => {
            for line in resp.render() {
                eprintln!("{line}");
            }
            ExitCode::FAILURE
        }
        other => {
            for line in other.render() {
                println!("{line}");
            }
            if other.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// `dopcert serve`: bind, announce, and block until a client sends a
/// `shutdown` request.
fn run_serve(flags: &Flags) -> ExitCode {
    let defaults = flags.request_options();
    let config = ServeConfig {
        addr: flags
            .addr
            .clone()
            .unwrap_or_else(|| ServeConfig::default().addr),
        workers: flags.jobs.unwrap_or(ServeConfig::default().workers),
        // Each tenant may spend what a generous batch would; scaled
        // from the same per-goal budget requests are charged at.
        tenant_budget: BatchBudget::scaled_from(
            defaults.prove_options(BudgetSpec::default()).budget,
        ),
        refill: flags
            .budget_refill
            .map(|iters_per_sec| RefillPolicy { iters_per_sec }),
        defaults,
    };
    start_tracing(flags);
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    // The announce line must reach pipes before we block.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    // Workers have exited (their buffered spans flushed on thread
    // drop), so the dump is complete.
    finish_tracing(flags);
    ExitCode::SUCCESS
}

/// `dopcert request`: one request to a running daemon, printed exactly
/// as the local subcommand would print it.
fn run_request(flags: &Flags) -> ExitCode {
    let addr = flags.addr.as_deref().expect("validated");
    let cmd = flags.cmd.as_deref().unwrap_or("prove");
    let req = match flags.build_request(cmd) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tenant = flags.tenant.as_deref().unwrap_or("default");
    let reply = match request_once(addr, &Json::Null, tenant, &req) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(e) = &reply.error {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    for line in &reply.lines {
        println!("{line}");
    }
    if reply.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("", &[][..]),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = flags.validate_for(cmd) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    match cmd {
        "check" | "prove" | "optimize" | "catalog" | "mine" => {
            let req = match flags.build_request(cmd) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            start_tracing(&flags);
            if flags.profile {
                // OR-composes with tracing/metrics; without the flag the
                // attribution paths stay strict no-ops.
                telemetry::enable_profiling();
            }
            let start = std::time::Instant::now();
            let resp = dopcert::api::execute(&req);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            finish_tracing(&flags);
            let code = print_response(&resp);
            if flags.explain {
                for line in resp.render_explain() {
                    println!("{line}");
                }
            }
            if flags.profile {
                for line in telemetry::profile_snapshot().render_table() {
                    println!("{line}");
                }
            }
            // Timing is diagnostics, not output: stderr keeps stdout
            // byte-comparable with serve responses.
            match (&resp, cmd) {
                (Response::Plans(plans), _) => eprintln!(
                    "{} queries optimized on {} threads in {elapsed_ms:.1} ms",
                    plans.len(),
                    flags
                        .request_options()
                        .engine(BudgetSpec::default())
                        .threads(),
                ),
                (Response::Catalog { rules, .. }, _) => eprintln!(
                    "{} rules checked on {} threads in {elapsed_ms:.1} ms{}",
                    rules.len(),
                    flags
                        .request_options()
                        .engine(BudgetSpec::default())
                        .threads(),
                    if flags.saturate {
                        " (saturation only)"
                    } else {
                        ""
                    },
                ),
                (Response::Mined(m), _) => eprintln!(
                    "{} rules certified from {} candidates in {elapsed_ms:.1} ms",
                    m.rules.len(),
                    m.candidates,
                ),
                _ => {}
            }
            code
        }
        "serve" => run_serve(&flags),
        "request" => run_request(&flags),
        _ => {
            eprintln!(
                "usage: dopcert check <file.dop | ->\n\
                 \x20      dopcert prove [--saturate] [--sat-iters N] [--sat-nodes N] [--sat-oracle-calls N] [--trace-out FILE] [--profile] <file.dop | ->\n\
                 \x20      dopcert optimize [--jobs N] [--sat-iters N] [--sat-nodes N] [--sat-oracle-calls N] [--mined-rules] [--trace-out FILE] [--profile] [--explain] <file.dop | ->\n\
                 \x20      dopcert catalog [--jobs N] [--saturate] [--sat-iters N] [--sat-nodes N] [--sat-oracle-calls N] [--discover] [--profile]\n\
                 \x20      dopcert mine [--seed N] [--count N]\n\
                 \x20      dopcert serve [--addr HOST:PORT] [--jobs N] [--saturate] [--sat-iters N] [--sat-nodes N] [--sat-oracle-calls N] [--mined-rules] [--budget-refill N] [--trace-out FILE]\n\
                 \x20      dopcert request --addr HOST:PORT [--cmd check|prove|optimize|catalog|discover|mine|stats|metrics|profile|trace|shutdown] [--tenant NAME] [flags] [file.dop | -]"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_flags_and_positional() {
        let f = flags(&["--jobs", "4", "--sat-iters", "9", "x.dop"]).unwrap();
        assert_eq!(f.jobs, Some(4));
        assert_eq!(f.budget.iters, Some(9));
        assert_eq!(f.positional.as_deref(), Some("x.dop"));
        assert!(flags(&["--jobs"]).is_err());
        assert!(flags(&["--bogus"]).is_err());
        assert!(flags(&["a.dop", "b.dop"]).is_err());
        // Removed flags fail loudly instead of being silently ignored.
        for retired in ["--no-shared-cache", "--no-session"] {
            let err = flags(&[retired]).unwrap_err();
            assert!(err.contains("unknown flag"), "{retired}: {err}");
        }
    }

    #[test]
    fn budget_flags_share_the_api_validation() {
        // Zero and garbage are rejected at parse time, by BudgetSpec —
        // the same code path scripts and serve requests go through.
        assert!(flags(&["--sat-iters", "0"]).is_err());
        assert!(flags(&["--sat-nodes", "many"]).is_err());
        assert!(flags(&["--sat-oracle-calls"]).is_err(), "needs a number");
        let f = flags(&["--sat-oracle-calls", "7"]).unwrap();
        assert_eq!(f.budget.oracle_calls, Some(7));
    }

    #[test]
    fn check_rejects_every_flag_it_would_ignore() {
        for args in [
            &["--saturate"][..],
            &["--sat-iters", "5"][..],
            &["--sat-nodes", "100"][..],
            &["--sat-oracle-calls", "16"][..],
            &["--jobs", "2"][..],
            &["--discover"][..],
            &["--addr", "h:1"][..],
            &["--tenant", "t"][..],
            &["--trace-out", "t.json"][..],
            &["--budget-refill", "10"][..],
            &["--profile"][..],
            &["--explain"][..],
            &["--mined-rules"][..],
            &["--seed", "7"][..],
            &["--count", "3"][..],
        ] {
            let f = flags(args).unwrap();
            let err = f.validate_for("check").unwrap_err();
            assert!(err.contains("not accepted"), "{args:?}: {err}");
        }
    }

    #[test]
    fn profile_is_prove_optimize_catalog_only() {
        let f = flags(&["--profile"]).unwrap();
        assert!(f.profile);
        f.validate_for("prove").unwrap();
        f.validate_for("optimize").unwrap();
        f.validate_for("catalog").unwrap();
        for cmd in ["check", "serve", "request"] {
            let err = f.validate_for(cmd).unwrap_err();
            assert!(err.contains("--profile"), "{cmd}: {err}");
        }
    }

    #[test]
    fn explain_is_optimize_only() {
        let f = flags(&["--explain"]).unwrap();
        assert!(f.explain);
        f.validate_for("optimize").unwrap();
        for cmd in ["check", "prove", "catalog", "serve", "request"] {
            let err = f.validate_for(cmd).unwrap_err();
            assert!(err.contains("--explain"), "{cmd}: {err}");
        }
    }

    #[test]
    fn profile_and_trace_requests_build() {
        let f = flags(&["--addr", "h:1", "--cmd", "profile"]).unwrap();
        f.validate_for("request").unwrap();
        assert!(matches!(f.build_request("profile"), Ok(Request::Profile)));
        assert!(matches!(f.build_request("trace"), Ok(Request::Trace)));
    }

    #[test]
    fn oracle_calls_flag_reaches_the_budget() {
        let f = flags(&["--sat-oracle-calls", "7"]).unwrap();
        f.validate_for("prove").unwrap();
        f.validate_for("optimize").unwrap();
        f.validate_for("catalog").unwrap();
        let opts = f.request_options().prove_options(BudgetSpec::default());
        assert_eq!(opts.budget.oracle_calls_per_iter, 7);
    }

    #[test]
    fn discover_is_catalog_only() {
        let f = flags(&["--discover"]).unwrap();
        f.validate_for("catalog").unwrap();
        for cmd in ["check", "prove", "optimize", "serve"] {
            let err = f.validate_for(cmd).unwrap_err();
            assert!(err.contains("--discover"), "{cmd}: {err}");
        }
    }

    #[test]
    fn prove_rejects_engine_flags_but_accepts_saturation_budget() {
        let f = flags(&["--saturate", "--sat-iters", "5", "--sat-nodes", "10"]).unwrap();
        f.validate_for("prove").unwrap();
        assert!(flags(&["--jobs", "2"])
            .unwrap()
            .validate_for("prove")
            .is_err());
    }

    #[test]
    fn optimize_accepts_budget_and_jobs_but_rejects_saturate() {
        let f = flags(&[
            "--jobs",
            "2",
            "--sat-iters",
            "5",
            "--sat-nodes",
            "10",
            "x.dop",
        ])
        .unwrap();
        f.validate_for("optimize").unwrap();
        let err = flags(&["--saturate"])
            .unwrap()
            .validate_for("optimize")
            .unwrap_err();
        assert!(err.contains("--saturate"), "{err}");
    }

    #[test]
    fn catalog_rejects_a_script_path_and_budget_flags_reach_the_engine() {
        assert!(flags(&["x.dop"]).unwrap().validate_for("catalog").is_err());
        let f = flags(&["--sat-iters", "7", "--sat-nodes", "11"]).unwrap();
        f.validate_for("catalog").unwrap();
        let opts = f.request_options().prove_options(BudgetSpec::default());
        assert_eq!(opts.budget.max_iters, 7);
        assert_eq!(opts.budget.max_nodes, 11);
    }

    #[test]
    fn serve_and_request_own_the_network_flags() {
        let f = flags(&["--addr", "127.0.0.1:7411", "--jobs", "2"]).unwrap();
        f.validate_for("serve").unwrap();
        let err = flags(&[]).unwrap().validate_for("request").unwrap_err();
        assert!(err.contains("--addr"), "request requires an address: {err}");
        let f = flags(&["--addr", "h:1", "--cmd", "stats", "--tenant", "alice"]).unwrap();
        f.validate_for("request").unwrap();
        assert!(matches!(f.build_request("stats"), Ok(Request::Stats)));
        assert!(f.build_request("levitate").is_err());
        let err = f.validate_for("serve").unwrap_err();
        assert!(err.contains("--cmd"), "{err}");
    }

    #[test]
    fn trace_out_is_prove_optimize_serve_only() {
        let f = flags(&["--trace-out", "trace.json"]).unwrap();
        assert_eq!(f.trace_out.as_deref(), Some("trace.json"));
        f.validate_for("prove").unwrap();
        f.validate_for("optimize").unwrap();
        f.validate_for("serve").unwrap();
        for cmd in ["check", "catalog", "request"] {
            let err = f.validate_for(cmd).unwrap_err();
            assert!(err.contains("--trace-out"), "{cmd}: {err}");
        }
        assert!(flags(&["--trace-out"]).is_err(), "needs a path");
    }

    #[test]
    fn budget_refill_is_serve_only_and_positive() {
        let f = flags(&["--budget-refill", "48"]).unwrap();
        assert_eq!(f.budget_refill, Some(48));
        f.validate_for("serve").unwrap();
        for cmd in ["check", "prove", "optimize", "catalog", "request"] {
            let err = f.validate_for(cmd).unwrap_err();
            assert!(err.contains("--budget-refill"), "{cmd}: {err}");
        }
        assert!(flags(&["--budget-refill", "0"]).is_err(), "zero rejected");
        assert!(flags(&["--budget-refill", "x"]).is_err());
        assert!(flags(&["--budget-refill"]).is_err());
    }

    #[test]
    fn mined_rules_is_optimize_serve_request_only() {
        let f = flags(&["--mined-rules"]).unwrap();
        assert!(f.mined_rules);
        f.validate_for("optimize").unwrap();
        f.validate_for("serve").unwrap();
        assert!(f.request_options().mined_rules);
        assert!(
            !flags(&[]).unwrap().request_options().mined_rules,
            "off by default"
        );
        for cmd in ["check", "prove", "catalog", "mine"] {
            let err = f.validate_for(cmd).unwrap_err();
            assert!(err.contains("--mined-rules"), "{cmd}: {err}");
        }
    }

    #[test]
    fn mine_owns_seed_and_count_and_rejects_engine_flags() {
        let f = flags(&["--seed", "7", "--count", "4"]).unwrap();
        f.validate_for("mine").unwrap();
        match f.build_request("mine") {
            Ok(Request::Mine { seed, count }) => {
                assert_eq!(seed, 7);
                assert_eq!(count, 4);
            }
            other => panic!("expected Mine request, got {other:?}"),
        }
        // Defaults come from the mining config itself.
        let defaults = mine::MineConfig::default();
        match flags(&[]).unwrap().build_request("mine") {
            Ok(Request::Mine { seed, count }) => {
                assert_eq!(seed, defaults.seed);
                assert_eq!(count, defaults.max_rules);
            }
            other => panic!("expected Mine request, got {other:?}"),
        }
        assert!(flags(&["--count", "0"]).is_err(), "zero rejected");
        for args in [
            &["--jobs", "2"][..],
            &["--saturate"][..],
            &["--sat-iters", "5"][..],
            &["x.dop"][..],
        ] {
            let err = flags(args).unwrap().validate_for("mine").unwrap_err();
            assert!(err.contains("not accepted"), "{args:?}: {err}");
        }
        for cmd in ["check", "prove", "optimize", "catalog", "serve"] {
            let err = f.validate_for(cmd).unwrap_err();
            assert!(err.contains("--seed"), "{cmd}: {err}");
        }
    }

    #[test]
    fn metrics_request_builds() {
        let f = flags(&["--addr", "h:1", "--cmd", "metrics"]).unwrap();
        f.validate_for("request").unwrap();
        assert!(matches!(f.build_request("metrics"), Ok(Request::Metrics)));
    }
}
