//! The repository benchmark: three workloads over the public API of
//! `dopcert::{api, engine, serve, wire}`, measured end to end, with a
//! separate traced run that splits the time by layer.
//!
//! ```text
//! perfbench --workload <prove_distinct|optimize_batch|serve_repeat>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it records the machine shape. See `perfbench/README.md`.

mod corpus;
mod cpu;
mod optimize_batch;
mod prove_distinct;
mod report;
mod serve_repeat;
mod span;
mod verdict;

use report::Outcome;
use std::time::Instant;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "requests_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "latency_p99_ms",
    "decided_ratio",
    "plan_cost_ratio",
    "peak_rss_mb",
];

/// Per-layer metrics and their units, in the order `BENCHMARK.json`
/// lists them. A layer that does not run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("hottsql.parse_ms", "ms"),
    ("hottsql.denote_ms", "ms"),
    ("cq.decide_ms", "ms"),
    ("cq.decided", "count"),
    ("uninomial.normalize_ms", "ms"),
    ("uninomial.tactics_ms", "ms"),
    ("uninomial.tactic_proved_ratio", "ratio"),
    ("egraph.saturate_ms", "ms"),
    ("egraph.saturate_calls", "count"),
    ("egraph.saturate_proved_ratio", "ratio"),
    ("difftest.hunt_ms", "ms"),
    ("difftest.instances_evaluated", "count"),
    ("difftest.witness_ratio", "ratio"),
    ("optimizer.plan_ms", "ms"),
    ("optimizer.search_ms", "ms"),
    ("optimizer.readback_ms", "ms"),
    ("optimizer.certify_ms", "ms"),
    ("optimizer.replay_ms", "ms"),
    ("optimizer.improved_ratio", "ratio"),
    ("engine.batch_ms", "ms"),
    ("engine.parallel_speedup", "x"),
    ("engine.cpu_util", "ratio"),
    ("session.memo_hit_ratio", "ratio"),
    ("session.lookup_ms", "ms"),
    ("session.repeat_share", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_request", "bytes"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.worker_skew", "ratio"),
    ("render.ms", "ms"),
    ("trace.request_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layer_share", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Times set-up. Every workload builds its corpus in equal parts, each
/// part timed; the set-up time is the part count times the median part,
/// which a slow moment on the host moves less than one total would.
pub struct SetupTimer;

impl SetupTimer {
    /// Parts a corpus set-up is split into.
    pub const PARTS: usize = 4;

    /// Runs `part` [`SetupTimer::PARTS`] times, each on the next CPU in
    /// turn, and returns the set-up time.
    pub fn in_parts(mut part: impl FnMut()) -> f64 {
        let parts = Self::PARTS;
        let mut cpus = cpu::Rotation::new();
        let times: Vec<f64> = (0..parts)
            .map(|_| {
                cpus.step();
                let t = Instant::now();
                part();
                t.elapsed().as_secs_f64()
            })
            .collect();
        parts as f64 * report::median(&times)
    }
}

/// The traced run's own summary: traced and untraced request time, the
/// tracing overhead, and the share of traced time the layer spans cover.
pub fn trace_summary(out: &mut Outcome, b: &span::Breakdown, untraced_ms: f64) {
    out.metric("trace.request_ms", b.request_ms(), "ms");
    out.metric("trace.overhead_ms", b.request_ms() - untraced_ms, "ms");
    out.metric("trace.layer_share", b.layer_share(), "ratio");
    out.note("untraced_request_ms", format!("{untraced_ms:.4}"));
}

/// Writes the traced run's spans as a Chrome trace under `.bench_out/`.
pub fn write_trace(args: &Args, buffers: &[Vec<span::Span>], out: &mut Outcome) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, span::chrome_trace(buffers)));
    match written {
        Ok(()) => out.note("chrome_trace", path.display()),
        Err(e) => out.note("chrome_trace_error", e),
    }
}

/// Orders the metrics as `BENCHMARK.json` lists them. Every end-to-end
/// metric must be reported exactly once; a per-layer metric the workload
/// did not report belongs to a layer that does not run on it, and reads 0.
fn finish(out: &mut Outcome, trace: bool) {
    let expected: Vec<(&str, Option<&str>)> = if trace {
        PER_LAYER.iter().map(|&(n, u)| (n, Some(u))).collect()
    } else {
        END_TO_END.iter().map(|&n| (n, None)).collect()
    };
    for m in &out.metrics {
        assert!(
            expected.iter().any(|&(name, _)| name == m.name),
            "unexpected metric {}",
            m.name
        );
    }
    let mut ordered = Vec::with_capacity(expected.len());
    for (name, absent_unit) in expected {
        let found: Vec<_> = out.metrics.iter().filter(|m| m.name == name).collect();
        match (found.as_slice(), absent_unit) {
            ([m], _) => ordered.push((*m).clone()),
            ([], Some(unit)) => ordered.push(report::Metric {
                name,
                value: 0.0,
                unit,
            }),
            _ => panic!("metric {name} reported {} times", found.len()),
        }
    }
    out.metrics = ordered;
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "prove_distinct" => prove_distinct::run(&args),
        "optimize_batch" => optimize_batch::run(&args),
        "serve_repeat" => serve_repeat::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    finish(&mut out, args.trace);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta = Outcome::default();
    meta.note("workload", &args.workload);
    meta.note("seed", args.seed);
    meta.note("seconds", args.seconds);
    meta.note("trace", args.trace);
    meta.note("nproc", nproc);
    meta.note(
        "commit",
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    meta.note(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    meta.notes.append(&mut out.notes);
    println!("{}", meta.meta_json());
    println!("{}", out.result_json());
}
