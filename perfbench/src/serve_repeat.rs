//! `serve_repeat`: an in-process `serve::Server` on `127.0.0.1:0` with two
//! workers and two kept-open, closed-loop client connections. Each
//! request is drawn with Zipf-like repetition from a pool of prove
//! scripts (the `prove_distinct` generator under another seed) and small
//! optimize scripts. This is the only workload that crosses the wire
//! codec, TCP, admission, routing and the worker queues, and the one
//! where the resident memos absorb most of the work.
//!
//! The traced run records client-side spans around the wire encode, the
//! round trip and the wire decode. The daemon's render and wire calls run
//! inside the server, so they are timed afterwards on a seeded sample of
//! the traced requests, through the same public functions.

use crate::corpus::{self, GoalKind, ProveGoal, Rng};
use crate::report::{self, Outcome};
use crate::span::{self, span};
use crate::verdict::{judge_goal, parse_plans, plan_ok, Judgement};
use crate::{Args, SetupTimer};
use dopcert::api::{Request, RequestOptions, Workspace};
use dopcert::serve::{ServeConfig, Server};
use dopcert::wire::{decode_request, decode_response, encode_request, encode_response, Json};
use egraph::BatchBudget;
use hottsql::ast::Query;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop client connections, one load thread each.
pub const CLIENTS: usize = 2;
/// The request classes: share of requests, items in the class pool, and
/// the Zipf exponent over the pool's seeded rank order. A class is a goal
/// kind of the `prove_distinct` generator or a small optimize script.
/// The two costly classes repeat uniformly: even as memo hits their items
/// cost 10x a proved goal and vary 10x among themselves (the daemon
/// re-runs a refute's witness hunt and an optimize plan's certificate
/// replay on every repeat), so one hot item would set the run's pace.
/// Optimize requests are 15 %, so the 90th latency percentile falls
/// inside their cluster rather than in the sparse gap between a memo hit
/// and a costly request. Pool sizes are multiples of the set-up parts.
const CLASSES: [(Class, f64, usize, f64); 4] = [
    (Class::Prove(GoalKind::Set), 0.34, 256, 1.0),
    (Class::Prove(GoalKind::Bag), 0.50, 256, 1.0),
    (Class::Prove(GoalKind::Refute), 0.01, 128, 0.0),
    (Class::Optimize, 0.15, 128, 0.0),
];
/// Queries per optimize script.
const OPTIMIZE_QUERIES: usize = 1;
/// The tenant every request is charged to.
const TENANT: &str = "bench";
/// Seed salt separating this pool from the `prove_distinct` stream.
const POOL_SALT: u64 = 0x5E_7E_A7;
/// Requests whose daemon-side render and wire cost the traced run samples.
const PROBE_SAMPLES: usize = 256;

/// One pool entry and its reference.
enum Item {
    Prove(ProveGoal),
    Optimize { script: String, queries: Vec<Query> },
}

impl Item {
    fn request(&self) -> Request {
        match self {
            Item::Prove(g) => Request::Prove {
                script: g.script.clone(),
                opts: RequestOptions::default(),
            },
            Item::Optimize { script, .. } => Request::Optimize {
                script: script.clone(),
                opts: RequestOptions::default(),
            },
        }
    }

    /// Goals plus queries: the units the daemon's memos count hits in.
    fn units(&self) -> usize {
        match self {
            Item::Prove(_) => 1,
            Item::Optimize { queries, .. } => queries.len(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Class {
    Prove(GoalKind),
    Optimize,
}

struct Pool {
    items: Vec<Item>,
    /// Per class: its request share, and its item indices in rank order
    /// with the Zipf CDF over them.
    classes: Vec<(f64, Vec<usize>, Vec<f64>)>,
}

fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(exponent);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Builds the pool; returns the set-up time with it. Set-up runs in
/// [`SetupTimer::PARTS`] timed parts, each generating an equal share of
/// every class.
fn pool(seed: u64) -> (f64, Pool) {
    let env = corpus::env();
    let mut rng = Rng::new(seed ^ POOL_SALT);
    let mut goals = corpus::ProveStream::new(seed ^ POOL_SALT);
    let mut seen = std::collections::HashSet::new();
    let mut by_class: Vec<Vec<Item>> = CLASSES.iter().map(|_| Vec::new()).collect();
    let setup_s = SetupTimer::in_parts(|| {
        for (&(class, _, size, _), items) in CLASSES.iter().zip(&mut by_class) {
            for _ in 0..size / SetupTimer::PARTS {
                items.push(match class {
                    Class::Prove(kind) => Item::Prove(goals.goal(kind)),
                    Class::Optimize => {
                        let (script, queries) =
                            corpus::optimize_script(&mut rng, &env, OPTIMIZE_QUERIES, &mut seen);
                        Item::Optimize { script, queries }
                    }
                });
            }
        }
    });
    let mut items: Vec<Item> = Vec::new();
    let mut classes = Vec::new();
    for ((class, share, size, exponent), class_items) in CLASSES.into_iter().zip(by_class) {
        assert_eq!(class_items.len(), size, "class {class:?} is short of items");
        let first = items.len();
        items.extend(class_items);
        // Which items are hot is itself seeded: rank order is a shuffle.
        let mut ranks: Vec<usize> = (first..items.len()).collect();
        rng.shuffle(&mut ranks);
        classes.push((share, ranks, zipf_cdf(size, exponent)));
    }
    (setup_s, Pool { items, classes })
}

impl Pool {
    fn draw(&self, rng: &mut Rng) -> usize {
        let mut u = rng.unit();
        let (_, ranks, cdf) = self
            .classes
            .iter()
            .find(|(share, _, _)| {
                u -= share;
                u < 0.0
            })
            .unwrap_or_else(|| self.classes.last().expect("classes"));
        let v = rng.unit();
        ranks[cdf.partition_point(|&c| c < v).min(ranks.len() - 1)]
    }
}

/// The daemon's request routing, a stable hash of the request kind and
/// script taken modulo the worker count, recomputed here to read the
/// per-worker load off the request log.
fn route(req: &Request, workers: usize) -> usize {
    let mut h = DefaultHasher::new();
    match req {
        Request::Prove { script, .. } => {
            "prove".hash(&mut h);
            script.hash(&mut h);
        }
        Request::Optimize { script, .. } => {
            "optimize".hash(&mut h);
            script.hash(&mut h);
        }
        _ => {}
    }
    (h.finish() % workers as u64) as usize
}

/// State the clients share while a phase runs.
struct Shared<'a> {
    pool: &'a Pool,
    /// Whether an item was sent before (the warm pass included).
    seen: Vec<AtomicBool>,
    /// First reply per item; later replies must match it byte for byte.
    first: Vec<OnceLock<Vec<String>>>,
    mismatches: AtomicUsize,
}

impl<'a> Shared<'a> {
    fn new(pool: &'a Pool) -> Shared<'a> {
        let n = pool.items.len();
        Shared {
            pool,
            seen: (0..n).map(|_| AtomicBool::new(false)).collect(),
            first: (0..n).map(|_| OnceLock::new()).collect(),
            mismatches: AtomicUsize::new(0),
        }
    }
}

/// How long a client keeps sending once the warm-up is over.
#[derive(Clone, Copy)]
enum Stop {
    After(f64),
    Count(usize),
}

/// One client connection: its stream, its seeded request stream, and what
/// it has seen.
struct Client<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    rng: Rng,
    shared: &'a Shared<'a>,
    reply: String,
}

impl Client<'_> {
    /// Sends the next request of the stream; see [`Client::send`].
    fn exchange(&mut self, id: u64, log: Option<&mut ClientLog>) {
        let idx = self.shared.pool.draw(&mut self.rng);
        self.send(idx, id, log);
    }

    /// Sends pool item `idx` and checks its reply; records the exchange
    /// in `log` when one is given.
    fn send(&mut self, idx: usize, id: u64, log: Option<&mut ClientLog>) {
        let req = self.shared.pool.items[idx].request();
        span::set_request(id);
        let t = Instant::now();
        let root = span("request");
        let line = {
            let _s = span("wire.encode");
            let mut line = encode_request(&Json::Num(id as f64), TENANT, &req);
            line.push('\n');
            line
        };
        {
            let _s = span("serve.roundtrip");
            self.reply.clear();
            self.writer
                .write_all(line.as_bytes())
                .expect("send request");
            self.reader.read_line(&mut self.reply).expect("read reply");
        }
        let decoded = {
            let _s = span("wire.decode");
            decode_response(self.reply.trim_end())
        };
        drop(root);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let repeat = self.shared.seen[idx].swap(true, Ordering::Relaxed);
        let mut scratch = ClientLog::default();
        let log = match log {
            Some(log) => {
                log.latencies_ms.push(ms);
                log.bytes += (line.len() + self.reply.len()) as u64;
                log.sent.push(idx);
                log.repeats += usize::from(repeat);
                log
            }
            None => &mut scratch,
        };
        let lines = match decoded {
            Ok(d) if d.kind != "error" => d.lines,
            _ => {
                log.failed += 1;
                return;
            }
        };
        if *self.shared.first[idx].get_or_init(|| lines.clone()) != lines {
            self.shared.mismatches.fetch_add(1, Ordering::Relaxed);
            log.failed += 1;
            return;
        }
        if let Item::Prove(g) = &self.shared.pool.items[idx] {
            match judge_goal(&lines, g.equivalent) {
                Judgement::Decided => log.decided += 1,
                Judgement::Undecided => {}
                Judgement::Failed => log.failed += 1,
            }
        }
    }
}

/// Daemon-side latency totals read from the `metrics` exposition.
#[derive(Clone, Debug, Default)]
struct DaemonLatency {
    sum_us: f64,
    count: f64,
    /// Requests per log₂ bucket, keyed by the bucket's upper bound (µs).
    buckets: std::collections::BTreeMap<u64, f64>,
}

impl DaemonLatency {
    /// Prove and optimize latency totals from a `metrics` exposition.
    fn parse(text: &str) -> DaemonLatency {
        let mut d = DaemonLatency::default();
        for kind in ["prove", "optimize"] {
            let bucket = format!("dopcert_request_latency_us_bucket{{kind=\"{kind}\",le=\"");
            let sum = format!("dopcert_request_latency_us_sum{{kind=\"{kind}\"}} ");
            let count = format!("dopcert_request_latency_us_count{{kind=\"{kind}\"}} ");
            let mut prev = 0.0;
            for line in text.lines() {
                if let Some(v) = line.strip_prefix(&sum) {
                    d.sum_us += v.parse::<f64>().unwrap_or(0.0);
                } else if let Some(v) = line.strip_prefix(&count) {
                    d.count += v.parse::<f64>().unwrap_or(0.0);
                } else if let Some(rest) = line.strip_prefix(&bucket) {
                    let Some((le, n)) = rest.split_once("\"} ") else {
                        continue;
                    };
                    let (Ok(le), Ok(n)) = (le.parse::<u64>(), n.parse::<f64>()) else {
                        continue;
                    };
                    *d.buckets.entry(le).or_default() += n - prev;
                    prev = n;
                }
            }
        }
        d
    }

    /// What was recorded since `earlier`.
    fn since(&self, earlier: &DaemonLatency) -> DaemonLatency {
        let mut buckets = self.buckets.clone();
        for (le, n) in &earlier.buckets {
            *buckets.entry(*le).or_default() -= n;
        }
        DaemonLatency {
            sum_us: self.sum_us - earlier.sum_us,
            count: self.count - earlier.count,
            buckets,
        }
    }

    fn mean_ms(&self) -> f64 {
        self.sum_us / 1e3 / self.count.max(1.0)
    }

    /// Quantile `q`, ms, interpolated inside its log₂ bucket.
    fn quantile_ms(&self, q: f64) -> f64 {
        let total: f64 = self.buckets.values().sum();
        let (mut acc, mut lo) = (0.0, 0.0);
        for (&le, &n) in &self.buckets {
            if n > 0.0 && acc + n >= q * total {
                return (lo + (le as f64 - lo) * (q * total - acc) / n) / 1e3;
            }
            acc += n;
            lo = le as f64;
        }
        lo / 1e3
    }
}

/// What one client connection saw while measured.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    sent: Vec<usize>,
    repeats: usize,
    bytes: u64,
    failed: usize,
    decided: usize,
}

/// One closed-loop phase against a fresh daemon: a shared warm-up, then
/// the measured requests.
struct Phase {
    logs: Vec<ClientLog>,
    /// Seconds from daemon start to the end of the warm pass.
    warm_s: f64,
    wall: f64,
    mismatches: usize,
    /// Daemon counters at the end, and what the daemon measured after the
    /// warm-up.
    stats: dopcert::api::ServerStats,
    memo_hits: usize,
    daemon: DaemonLatency,
    /// Checked optimize items whose plans failed.
    bad_items: Vec<bool>,
    /// Σ cost_before and Σ cost_after of each optimize item's reply.
    plan_costs: Vec<(f64, f64)>,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        // An explicit tenant budget that never refuses: the default
        // refuses a tenant after about 85 requests (2 048 ÷ 24).
        tenant_budget: BatchBudget {
            max_total_iters: usize::MAX,
            ..BatchBudget::default()
        },
        ..ServeConfig::default()
    }
}

fn phase(pool: &Pool, seed: u64, stops: &[Stop]) -> Phase {
    let started = Instant::now();
    let server = Server::start(serve_config()).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let shared = Shared::new(pool);
    let barrier = Barrier::new(stops.len());
    // Daemon state when measurement starts, taken by the barrier leader.
    let at_start: OnceLock<(Instant, usize, String)> = OnceLock::new();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = stops
            .iter()
            .enumerate()
            .map(|(c, &stop)| {
                let (shared, barrier, at_start, server) = (&shared, &barrier, &at_start, &server);
                scope.spawn(move || {
                    let stream =
                        TcpStream::connect(addr).expect("connect to the in-process daemon");
                    stream.set_nodelay(true).expect("set TCP_NODELAY");
                    let mut client = Client {
                        writer: stream.try_clone().expect("clone the client stream"),
                        reader: BufReader::new(stream),
                        rng: Rng::new(seed.wrapping_add(c as u64 * 7919)),
                        shared,
                        reply: String::new(),
                    };
                    let id = |i: usize| ((c as u64) << 32) | i as u64;
                    // Warm pass: every pool item once, split between the
                    // clients, so no first-time miss lands in the measured
                    // window and every measured request is a repeat.
                    let mut i = 0;
                    for idx in (c..shared.pool.items.len()).step_by(stops.len()) {
                        client.send(idx, id(i), None);
                        i += 1;
                    }
                    if barrier.wait().is_leader() {
                        let stats = server.stats();
                        let _ =
                            at_start.set((Instant::now(), stats.memo_hits, server.metrics_text()));
                    }
                    let mut log = ClientLog::default();
                    let start = Instant::now();
                    for n in 0.. {
                        match stop {
                            Stop::After(s) if start.elapsed().as_secs_f64() >= s => break,
                            Stop::Count(count) if n >= count => break,
                            _ => {}
                        }
                        client.exchange(id(i), Some(&mut log));
                        i += 1;
                    }
                    span::flush_thread();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (start, hits_at_start, metrics_at_start) =
        at_start.into_inner().expect("barrier leader ran");
    let wall = start.elapsed().as_secs_f64();
    let stats = server.stats();
    let daemon = DaemonLatency::parse(&server.metrics_text())
        .since(&DaemonLatency::parse(&metrics_at_start));
    server.shutdown();
    server.wait();
    // Plans are checked once per distinct optimize item, after the run
    // (every later reply for the item matched the first byte for byte).
    let mut bad_items = vec![false; pool.items.len()];
    let mut plan_costs = vec![(0.0, 0.0); pool.items.len()];
    for (i, (item, first)) in pool.items.iter().zip(&shared.first).enumerate() {
        let (Item::Optimize { queries, .. }, Some(lines)) = (item, first.get()) else {
            continue;
        };
        match parse_plans(lines) {
            Some(plans) if plans.len() == queries.len() => {
                bad_items[i] = plans
                    .iter()
                    .zip(queries)
                    .any(|(p, q)| !plan_ok(p, q, seed.wrapping_add(i as u64)));
                plan_costs[i] = plans.iter().fold((0.0, 0.0), |(b, a), p| {
                    (b + p.cost_before, a + p.cost_after)
                });
            }
            _ => bad_items[i] = true,
        }
    }
    Phase {
        logs,
        warm_s: (start - started).as_secs_f64(),
        wall,
        mismatches: shared.mismatches.into_inner(),
        memo_hits: stats.memo_hits - hits_at_start,
        stats,
        daemon,
        bad_items,
        plan_costs,
    }
}

impl Phase {
    fn requests(&self) -> usize {
        self.logs.iter().map(|l| l.latencies_ms.len()).sum()
    }

    fn latencies(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.latencies_ms.iter().copied())
            .collect()
    }

    fn failed(&self) -> usize {
        let bad_sends: usize = self
            .logs
            .iter()
            .flat_map(|l| &l.sent)
            .filter(|&&i| self.bad_items[i])
            .count();
        self.logs.iter().map(|l| l.failed).sum::<usize>() + bad_sends
    }

    /// Prove goals decided as the reference says, plus optimize requests
    /// whose plans checked out, over all requests.
    fn decided_ratio(&self, pool: &Pool) -> f64 {
        let proved: usize = self.logs.iter().map(|l| l.decided).sum();
        let plans_ok = self
            .logs
            .iter()
            .flat_map(|l| &l.sent)
            .filter(|&&i| matches!(pool.items[i], Item::Optimize { .. }) && !self.bad_items[i])
            .count();
        (proved + plans_ok) as f64 / self.requests().max(1) as f64
    }

    /// Share of measured requests for an item sent before.
    fn repeat_share(&self) -> f64 {
        self.logs.iter().map(|l| l.repeats).sum::<usize>() as f64 / self.requests().max(1) as f64
    }
}

pub fn run(args: &Args) -> Outcome {
    let (setup_s, pool) = pool(args.seed);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.note("workers", WORKERS);
    out.note("load_threads", CLIENTS);
    out.note("connections", CLIENTS);
    out.note(
        "protocol",
        "closed loop, one outstanding request per connection",
    );
    out.note("classes", format!("{CLASSES:?}"));
    if args.trace {
        traced(args, &pool, &mut out);
    } else {
        untraced(args, &pool, setup_s, &mut out);
    }
    out
}

fn untraced(args: &Args, pool: &Pool, setup_s: f64, out: &mut Outcome) {
    let p = phase(
        pool,
        args.seed,
        &[Stop::After(args.seconds as f64); CLIENTS],
    );
    let lat = p.latencies();
    check(&p, out);
    out.attempted = p.requests();
    out.failed = p.failed();
    out.note("repeat_share", format!("{:.4}", p.repeat_share()));
    out.note("memo_hits", p.memo_hits);
    out.note("warm_pass_items", pool.items.len());
    out.note("warm_pass_s", format!("{:.2}", p.warm_s));
    for (c, (class, ..)) in CLASSES.iter().enumerate() {
        let ms: Vec<f64> = p
            .logs
            .iter()
            .flat_map(|l| l.sent.iter().zip(&l.latencies_ms))
            .filter(|(i, _)| pool.classes[c].1.contains(i))
            .map(|(_, &ms)| ms)
            .collect();
        out.note(
            "class_latency_ms",
            format!(
                "{class:?}: p50 {:.3} p90 {:.3} p99 {:.3} n={}",
                report::percentile(&ms, 0.5),
                report::percentile(&ms, 0.9),
                report::percentile(&ms, 0.99),
                ms.len()
            ),
        );
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("requests_per_s", p.requests() as f64 / p.wall, "1/s");
    out.metric("latency_p50_ms", report::percentile(&lat, 0.50), "ms");
    out.metric("latency_p90_ms", report::percentile(&lat, 0.90), "ms");
    out.metric("latency_p99_ms", report::percentile(&lat, 0.99), "ms");
    out.metric("decided_ratio", p.decided_ratio(pool), "ratio");
    out.metric("plan_cost_ratio", plan_cost_ratio(&p), "ratio");
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
}

/// Marks the run incorrect when the daemon refused or failed a request
/// or a repeated request got a different answer.
fn check(p: &Phase, out: &mut Outcome) {
    if p.stats.budget_rejections != 0 || p.stats.errors != 0 || p.mismatches != 0 {
        out.correct = false;
    }
    if p.bad_items.iter().any(|&b| b) {
        out.correct = false;
    }
}

/// Σ cost_after / Σ cost_before over every optimize reply received.
fn plan_cost_ratio(p: &Phase) -> f64 {
    let (mut before, mut after) = (0.0, 0.0);
    for &i in p.logs.iter().flat_map(|l| &l.sent) {
        before += p.plan_costs[i].0;
        after += p.plan_costs[i].1;
    }
    after / before
}

fn traced(args: &Args, pool: &Pool, out: &mut Outcome) {
    let half = args.seconds as f64 / 2.0;
    // Untraced phase: fixes how many requests each client sends.
    let a = phase(pool, args.seed, &[Stop::After(half); CLIENTS]);
    let counts: Vec<Stop> = a.logs.iter().map(|l| Stop::Count(l.sent.len())).collect();
    // Traced phase: the same request streams on a fresh daemon.
    span::set_enabled(true);
    let b = phase(pool, args.seed, &counts);
    span::set_enabled(false);
    let buffers = span::take_all();
    let bd = span::Breakdown::from_buffers(&buffers);
    crate::write_trace(args, &buffers, out);
    check(&a, out);
    check(&b, out);
    out.attempted = b.requests();
    out.failed = b.failed();

    let requests = a.requests().max(1) as f64;
    let untraced_mean = a.latencies().iter().sum::<f64>() / requests;
    let units: usize = a
        .logs
        .iter()
        .flat_map(|l| &l.sent)
        .map(|&i| pool.items[i].units())
        .sum();
    let mut per_worker = [0usize; WORKERS];
    for &i in a.logs.iter().flat_map(|l| &l.sent) {
        per_worker[route(&pool.items[i].request(), WORKERS)] += 1;
    }
    let mean_load = requests / WORKERS as f64;
    let skew = *per_worker.iter().max().unwrap_or(&0) as f64 / mean_load;
    let bytes: u64 = a.logs.iter().map(|l| l.bytes).sum();
    let probe = probe(pool, &b, args.seed);

    out.metric(
        "session.memo_hit_ratio",
        a.memo_hits as f64 / units.max(1) as f64,
        "ratio",
    );
    out.metric("session.repeat_share", a.repeat_share(), "ratio");
    out.metric(
        "wire.encode_us",
        bd.self_ms_per_request(&["wire.encode"]) * 1e3 + probe.encode_us,
        "us",
    );
    out.metric(
        "wire.decode_us",
        bd.self_ms_per_request(&["wire.decode"]) * 1e3 + probe.decode_us,
        "us",
    );
    out.metric("wire.bytes_per_request", bytes as f64 / requests, "bytes");
    out.metric("serve.server_p50_ms", a.daemon.quantile_ms(0.50), "ms");
    out.metric("serve.server_p99_ms", a.daemon.quantile_ms(0.99), "ms");
    out.metric(
        "serve.overhead_ms",
        untraced_mean - a.daemon.mean_ms(),
        "ms",
    );
    out.metric("serve.worker_skew", skew, "ratio");
    out.metric("render.ms", probe.render_ms, "ms");
    crate::trace_summary(out, &bd, untraced_mean);
    out.metric(
        "failed_ratio",
        b.failed() as f64 / b.requests().max(1) as f64,
        "ratio",
    );
    out.note("traced_requests", b.requests());
    out.note("requests_per_worker", format!("{per_worker:?}"));
    out.note("daemon_mean_ms", format!("{:.4}", a.daemon.mean_ms()));
    out.note(
        "render_and_server_wire",
        format!("sampled over {PROBE_SAMPLES} traced requests"),
    );
}

/// Daemon-side costs the client cannot see, timed on a seeded sample of
/// the traced requests: `Response::render`, and the daemon's wire calls
/// `decode_request` and `encode_response` (render time taken out).
struct Probe {
    render_ms: f64,
    encode_us: f64,
    decode_us: f64,
}

fn probe(pool: &Pool, b: &Phase, seed: u64) -> Probe {
    let sent: Vec<usize> = b.logs.iter().flat_map(|l| l.sent.iter().copied()).collect();
    let mut rng = Rng::new(seed ^ 0x9_0BE);
    let mut ws = Workspace::new(RequestOptions::default());
    let mut responses: std::collections::HashMap<usize, dopcert::api::Response> =
        Default::default();
    let (mut render_ns, mut encode_ns, mut decode_ns) = (0u128, 0u128, 0u128);
    let samples = PROBE_SAMPLES.min(sent.len()).max(1);
    for _ in 0..samples {
        let idx = sent[rng.range(0, sent.len() as u64 - 1) as usize];
        let req = pool.items[idx].request();
        let line = encode_request(&Json::Num(1.0), TENANT, &req);
        let resp = responses.entry(idx).or_insert_with(|| ws.execute(&req));
        let t = Instant::now();
        std::hint::black_box(decode_request(&line).expect("own request line decodes"));
        decode_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        std::hint::black_box(resp.render());
        let render = t.elapsed().as_nanos();
        render_ns += render;
        let t = Instant::now();
        std::hint::black_box(encode_response(&Json::Num(1.0), resp));
        encode_ns += t.elapsed().as_nanos().saturating_sub(render);
    }
    let n = samples as f64;
    Probe {
        render_ms: render_ns as f64 / 1e6 / n,
        encode_us: encode_ns as f64 / 1e3 / n,
        decode_us: decode_ns as f64 / 1e3 / n,
    }
}
