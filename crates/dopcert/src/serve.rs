//! `dopcert serve`: the resident proving/optimization daemon.
//!
//! The server accepts newline-delimited JSON requests ([`crate::wire`])
//! over plain TCP and puts them on one job queue that a fixed pool of
//! worker threads takes from: whichever worker is free runs the next
//! request, so no worker idles while a request waits. Each worker owns
//! one resident [`Workspace`] (prove session + plan session), and the
//! workspaces are [`Workspace::sibling`]s that share the query-level
//! verdict memo, the plan memo and the mined catalog, so a repeated
//! script is a memo hit whichever worker takes it — that is where the
//! hit-rate reported by `stats` comes from — and a `mine` request on any
//! worker sets the catalog every worker's `mined-rules` optimize
//! requests search with. By the session-identity guarantee,
//! every answer is byte-identical to a fresh single-shot CLI run of the
//! same request (`tests/serve.rs` asserts this against
//! [`crate::execute`]).
//!
//! Admission control is per *tenant* (the request's `tenant` field,
//! default `"default"`): each prove/optimize/catalog/discover request
//! charges its effective per-goal iteration budget against the
//! server's [`BatchBudget`] before dispatch. A single oversized
//! request is rejected by the per-goal cap; a tenant that has spent
//! its cumulative allowance is rejected as exhausted, so one hot
//! client cannot starve the rest. With a [`RefillPolicy`] configured
//! (`--budget-refill`), spent iterations decay over wall-clock time,
//! so a steady client regains allowance instead of being locked out
//! for the daemon's lifetime. Clients choose their tenant names, so the
//! ledger is bounded: a name is at most 64 bytes (longer ones are a bad
//! request), the ledger holds at most 1 024 names, and a new name that
//! arrives when it is full is charged to one shared overflow account.
//!
//! Observability is part of the protocol: every request's end-to-end
//! latency lands in a per-request-kind histogram, each worker's memo
//! hits are read *live* from its sessions' hit counters (mid-request,
//! not only after a worker finishes), and a `metrics` request answers
//! with a Prometheus-style text exposition combining these server-owned
//! series (including the `dopcert_serve_queued` and
//! `dopcert_serve_in_flight` gauges: requests waiting in the queue and
//! requests a worker is running) with the process-wide [`telemetry`]
//! snapshot (phase spans, memo counters).
//!
//! Error handling is per request: a malformed line or rejected budget
//! answers with an error *response* on the same connection — the
//! connection stays open and subsequent lines are processed normally.
//! A line longer than 1 MiB is answered with one error as soon as it
//! outgrows that cap; the rest of it is skipped unbuffered.
//! A `shutdown` request is acknowledged, then the listener and all
//! workers drain and exit; [`Server::wait`] joins them.

use crate::api::{
    BudgetSpec, KindLatency, Request, RequestOptions, Response, ServerStats, Workspace,
};
use crate::script::budget_directives;
use crate::wire::{decode_request, encode_response, Json};
use egraph::session::{Admission, BatchBudget};
use egraph::solve::Budget;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Histogram;

/// How often blocked connection reads wake up to poll the shutdown
/// flag. Short enough that `shutdown` feels immediate, long enough
/// that idle connections cost nothing measurable.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// The longest request line a connection buffers. Scripts are a few
/// kilobytes (`scripts/optimize_smoke.dop` is under one), so the cap
/// only bounds what a hostile or broken client can make the daemon
/// hold.
const MAX_LINE_BYTES: usize = 1 << 20;

/// The most tenant names the admission ledger keeps an account for.
/// Later names share one overflow account, so a client inventing names
/// can neither grow the ledger nor mint itself fresh allowances.
const MAX_TENANTS: usize = 1024;

/// Budget refill: a tenant's spent iterations decay at this rate, so
/// exhaustion is a rate limit rather than a lifetime ban.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefillPolicy {
    /// Iterations credited back per second of wall-clock time.
    pub iters_per_sec: u64,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (the default —
    /// [`Server::local_addr`] reports what was bound).
    pub addr: String,
    /// Worker threads taking requests from one queue, each with one
    /// resident [`Workspace`]; the workspaces share their verdict and
    /// plan memos.
    pub workers: usize,
    /// Options resident workspaces are built at; requests that resolve
    /// to different effective options run on fresh state instead.
    pub defaults: RequestOptions,
    /// Per-tenant admission budget.
    pub tenant_budget: BatchBudget,
    /// Budget refill policy; `None` (the default) keeps the original
    /// behavior where spent iterations never decay.
    pub refill: Option<RefillPolicy>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            defaults: RequestOptions::default(),
            tenant_budget: BatchBudget::default(),
            refill: None,
        }
    }
}

/// Rolling counters behind one lock (all cheap increments; the lock is
/// never held across proving work).
#[derive(Debug, Default)]
struct Counters {
    requests: usize,
    ok: usize,
    errors: usize,
    budget_rejections: usize,
    goals: usize,
    micros: u128,
}

/// One tenant's admission account.
#[derive(Debug, Default)]
struct TenantEntry {
    /// Iterations charged so far (net of refill).
    spent: usize,
    /// Clock reading (ns since server start) up to which refill has
    /// been credited; the fractional remainder stays pending so slow
    /// drips are not rounded away.
    credited_ns: u64,
}

/// Per-tenant spent-iteration accounts with optional time-based decay.
/// The clock is injected (`now_ns`) so the refill arithmetic is unit
/// testable without sleeping.
#[derive(Debug)]
struct TenantLedger {
    policy: Option<RefillPolicy>,
    /// At most [`MAX_TENANTS`] named accounts.
    entries: HashMap<String, TenantEntry>,
    /// The account every name past the first [`MAX_TENANTS`] shares.
    overflow: TenantEntry,
}

impl TenantLedger {
    fn new(policy: Option<RefillPolicy>) -> TenantLedger {
        TenantLedger {
            policy,
            entries: HashMap::new(),
            overflow: TenantEntry::default(),
        }
    }

    /// Whether `tenant` has an account of its own, rather than being
    /// charged to the overflow account.
    fn holds(&self, tenant: &str) -> bool {
        self.entries.contains_key(tenant)
    }

    /// Refills the tenant's account (if a policy is configured), then
    /// charges `iters` against it under `budget`'s admission rule. A new
    /// tenant gets an account while the ledger has room, and is charged
    /// to the overflow account once it is full.
    fn charge(
        &mut self,
        tenant: &str,
        iters: usize,
        now_ns: u64,
        budget: BatchBudget,
    ) -> Admission {
        if !self.holds(tenant) && self.entries.len() < MAX_TENANTS {
            let fresh = TenantEntry {
                spent: 0,
                credited_ns: now_ns,
            };
            self.entries.insert(tenant.to_owned(), fresh);
        }
        let e = self.entries.get_mut(tenant).unwrap_or(&mut self.overflow);
        if let Some(policy) = self.policy {
            let elapsed = now_ns.saturating_sub(e.credited_ns);
            let refill = (elapsed as u128 * policy.iters_per_sec as u128 / 1_000_000_000) as usize;
            if refill >= e.spent {
                // Fully refilled; restart the drip from now.
                e.spent = 0;
                e.credited_ns = now_ns;
            } else if refill > 0 {
                e.spent -= refill;
                // Advance only by the time the granted refill accounts
                // for, keeping the fractional remainder pending.
                e.credited_ns +=
                    (refill as u128 * 1_000_000_000 / policy.iters_per_sec as u128) as u64;
            }
        }
        let admission = budget.admit(e.spent, iters);
        if admission == Admission::Admit {
            e.spent += iters;
        }
        admission
    }
}

/// State shared by the listener, every connection, and every worker.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    /// The bound listen address (port 0 resolved).
    addr: SocketAddr,
    /// The refill clock's epoch (ns-since-start feeds the ledger).
    started: Instant,
    shutdown: AtomicBool,
    counters: Mutex<Counters>,
    /// Per-tenant admission accounts.
    tenants: Mutex<TenantLedger>,
    /// Each worker's live memo-hit counters
    /// ([`Workspace::hit_counters`]).
    memo_hits: Vec<[Arc<AtomicUsize>; 2]>,
    /// Requests waiting in the job queue.
    queued: AtomicUsize,
    /// Requests a worker is running.
    in_flight: AtomicUsize,
    /// End-to-end request latency (µs) per request kind, including
    /// queueing — the tail a client actually observes.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
}

/// One worker's memo hits so far.
fn worker_hits(counters: &[Arc<AtomicUsize>; 2]) -> usize {
    counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let by_worker: Vec<usize> = self.memo_hits.iter().map(worker_hits).collect();
        let c = self.counters.lock().expect("counters lock");
        ServerStats {
            workers: self.config.workers,
            requests: c.requests,
            ok: c.ok,
            errors: c.errors,
            budget_rejections: c.budget_rejections,
            goals: c.goals,
            memo_hits: by_worker.iter().sum(),
            micros: c.micros,
            memo_hits_by_worker: by_worker,
            latency: self.latency_summaries(),
            trace_dropped: telemetry::snapshot().counter("trace.dropped"),
        }
    }

    /// Counts a finished response into the rolling counters.
    fn count_response(&self, resp: &Response, micros: u128) {
        let mut c = self.counters.lock().expect("counters lock");
        match resp {
            Response::Error(_) => c.errors += 1,
            Response::Goals(goals) => {
                c.ok += 1;
                c.goals += goals.len();
            }
            _ => c.ok += 1,
        }
        c.micros += micros;
    }

    /// Records one request's end-to-end latency under its kind.
    fn record_latency(&self, kind: &'static str, micros: u64) {
        let mut lat = self.latency.lock().expect("latency lock");
        lat.entry(kind).or_default().record(micros);
    }

    /// Per-kind latency summaries for the `stats` response.
    fn latency_summaries(&self) -> Vec<KindLatency> {
        let lat = self.latency.lock().expect("latency lock");
        lat.iter()
            .map(|(kind, h)| KindLatency {
                kind: (*kind).to_owned(),
                count: h.count(),
                p50_us: h.p50(),
                p90_us: h.p90(),
                p99_us: h.p99(),
            })
            .collect()
    }

    /// The Prometheus-style text exposition: server-owned counters and
    /// latency histograms merged with the process-wide [`telemetry`]
    /// snapshot (phase spans, memo hit/miss counters).
    fn metrics_text(&self) -> String {
        let mut bag = telemetry::snapshot();
        // Surface the drop counter even while it is zero, so dashboards
        // can alert on it existing-but-rising rather than appearing.
        bag.incr("trace.dropped", 0);
        {
            let c = self.counters.lock().expect("counters lock");
            bag.incr("serve.requests", c.requests as u64);
            bag.incr("serve.ok", c.ok as u64);
            bag.incr("serve.errors", c.errors as u64);
            bag.incr("serve.budget_rejections", c.budget_rejections as u64);
            bag.incr("serve.goals", c.goals as u64);
        }
        for (slot, hits) in self.memo_hits.iter().enumerate() {
            bag.incr(
                &format!("serve.memo_hits{{worker=\"{slot}\"}}"),
                worker_hits(hits) as u64,
            );
        }
        {
            let lat = self.latency.lock().expect("latency lock");
            for (kind, h) in lat.iter() {
                bag.merge_hist(&format!("request.latency_us{{kind=\"{kind}\"}}"), h);
            }
        }
        let mut text = bag.render_prometheus();
        for (name, gauge) in [("queued", &self.queued), ("in_flight", &self.in_flight)] {
            let value = gauge.load(Ordering::Relaxed);
            let _ = writeln!(
                text,
                "# TYPE dopcert_serve_{name} gauge\ndopcert_serve_{name} {value}"
            );
        }
        text
    }
}

/// A unit of work on the job queue: the request plus a reply slot.
struct Job {
    req: Request,
    reply: Sender<Response>,
}

/// A running `dopcert serve` daemon. Dropping the handle does *not*
/// stop the server — call [`Server::shutdown`] (or send a `shutdown`
/// request) and then [`Server::wait`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    jobs: Sender<Job>,
    listener_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the address and starts the listener and worker threads.
    /// Enables process-wide telemetry metrics (if not already on) so
    /// the `metrics` exposition carries phase spans and memo counters,
    /// and per-rule attribution profiling so a `profile` request always
    /// has a table to answer with.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        if !telemetry::metrics_enabled() {
            telemetry::enable();
        }
        telemetry::enable_profiling();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let refill = config.refill;
        // Every worker's workspace shares `root`'s verdict memo, plan
        // memo and mined catalog; `stats` reads their hit counters.
        let root = Workspace::new(config.defaults);
        let workspaces: Vec<Workspace> = (0..workers).map(|_| root.sibling()).collect();
        let shared = Arc::new(Shared {
            config: ServeConfig { workers, ..config },
            addr,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            counters: Mutex::new(Counters::default()),
            tenants: Mutex::new(TenantLedger::new(refill)),
            memo_hits: workspaces.iter().map(Workspace::hit_counters).collect(),
            latency: Mutex::new(BTreeMap::new()),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
        });

        // One queue feeds every worker.
        let (jobs, queue) = channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let mut worker_threads = Vec::with_capacity(workers);
        for mut workspace in workspaces {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            worker_threads.push(std::thread::spawn(move || loop {
                // The lock is held while waiting for the next job and
                // released before running it. The queue ends once every
                // sender is gone.
                let next = queue.lock().expect("job queue lock").recv();
                let Ok(job) = next else { break };
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                shared.in_flight.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let resp = workspace.execute(&job.req);
                shared.count_response(&resp, start.elapsed().as_micros());
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                // A dropped receiver means the client hung up
                // mid-request; the work is already counted.
                let _ = job.reply.send(resp);
            }));
        }

        let listener_shared = Arc::clone(&shared);
        let listener_jobs = jobs.clone();
        let listener_thread = std::thread::spawn(move || {
            let mut connections = Vec::new();
            for stream in listener.incoming() {
                if listener_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&listener_shared);
                let jobs = listener_jobs.clone();
                // Dropping a finished connection's handle releases its
                // stack; `wait` joins the ones still open.
                connections.retain(|conn: &JoinHandle<()>| !conn.is_finished());
                connections.push(std::thread::spawn(move || {
                    serve_connection(stream, &shared, &jobs);
                }));
            }
            connections
        });

        Ok(Server {
            addr,
            shared,
            jobs,
            listener_thread: Some(listener_thread),
            worker_threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The Prometheus-style text exposition the `metrics` request
    /// answers with.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Initiates a graceful shutdown: no new connections are accepted,
    /// open connections drain their in-flight request and close.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared, self.addr);
    }

    /// Blocks until the listener, every connection, and every worker
    /// have exited. Call after [`Server::shutdown`] or after a client
    /// sent a `shutdown` request.
    pub fn wait(self) {
        let Server {
            jobs,
            listener_thread,
            worker_threads,
            ..
        } = self;
        if let Some(listener) = listener_thread {
            if let Ok(connections) = listener.join() {
                for conn in connections {
                    let _ = conn.join();
                }
            }
        }
        // Workers exit once every sender is gone (the listener and the
        // connections held clones, and they have all exited by now).
        drop(jobs);
        for worker in worker_threads {
            let _ = worker.join();
        }
    }
}

/// Flips the shutdown flag and wakes the blocking `accept` with one
/// throwaway connection so the listener notices.
fn request_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::SeqCst);
    drop(TcpStream::connect(addr));
}

/// One connection's read loop: one request per line, one response line
/// per request, until EOF or shutdown.
fn serve_connection(stream: TcpStream, shared: &Shared, jobs: &Sender<Job>) {
    // Reads wake up periodically to poll the shutdown flag; a timeout
    // mid-line keeps the partial line in `line` and resumes appending.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    // Set once the current line outgrew the cap: its error has been
    // sent, and its remaining bytes are dropped through the newline.
    let mut skipping = false;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (used, complete) = match reader.fill_buf() {
            Ok([]) => return, // EOF: the client hung up.
            Ok(buf) => {
                let end = buf.iter().position(|&b| b == b'\n');
                let chunk = &buf[..end.unwrap_or(buf.len())];
                if !skipping && line.len() + chunk.len() > MAX_LINE_BYTES {
                    skipping = true;
                    line = Vec::new();
                    if send_line(&mut writer, &reject_overlong(shared)).is_err() {
                        return;
                    }
                } else if !skipping {
                    line.extend_from_slice(chunk);
                }
                (chunk.len() + usize::from(end.is_some()), end.is_some())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return,
        };
        reader.consume(used);
        if !complete {
            continue;
        }
        if !std::mem::take(&mut skipping) {
            // A line that is not UTF-8 closes the connection.
            let Ok(text) = std::str::from_utf8(&line) else {
                return;
            };
            if !text.trim().is_empty() {
                let reply = answer_line(text.trim(), shared, jobs);
                if send_line(&mut writer, &reply).is_err() {
                    return;
                }
            }
        }
        line.clear();
    }
}

/// Writes one response line and flushes it to the client.
fn send_line(writer: &mut impl Write, reply: &str) -> std::io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// The answer to a line that outgrew [`MAX_LINE_BYTES`], counted as one
/// request and one error.
fn reject_overlong(shared: &Shared) -> String {
    {
        let mut c = shared.counters.lock().expect("counters lock");
        c.requests += 1;
        c.errors += 1;
    }
    let msg = format!("bad request: line longer than {MAX_LINE_BYTES} bytes");
    encode_response(&Json::Null, &Response::Error(msg))
}

/// Answers one request line, recording its end-to-end latency
/// (decode through response, queueing included) under its kind.
fn answer_line(line: &str, shared: &Shared, jobs: &Sender<Job>) -> String {
    let start = Instant::now();
    let (kind, reply) = handle_line(line, shared, jobs);
    shared.record_latency(kind, start.elapsed().as_micros() as u64);
    reply
}

/// One request line's actual handling: decode, admit, queue, encode.
fn handle_line(line: &str, shared: &Shared, jobs: &Sender<Job>) -> (&'static str, String) {
    shared.counters.lock().expect("counters lock").requests += 1;
    let (id, tenant, req) = match decode_request(line) {
        Ok(parts) => parts,
        Err(e) => {
            shared.counters.lock().expect("counters lock").errors += 1;
            return (
                "invalid",
                encode_response(&Json::Null, &Response::Error(format!("bad request: {e}"))),
            );
        }
    };
    let kind = req.kind();

    // Control requests are answered inline — they must work even when
    // every worker is busy proving.
    match req {
        Request::Stats => {
            let resp = Response::Stats(shared.stats());
            shared.counters.lock().expect("counters lock").ok += 1;
            return (kind, encode_response(&id, &resp));
        }
        Request::Metrics => {
            let resp = Response::Metrics(shared.metrics_text());
            shared.counters.lock().expect("counters lock").ok += 1;
            return (kind, encode_response(&id, &resp));
        }
        Request::Profile => {
            // The process-wide profile is already merged across worker
            // flushes; snapshotting it here costs one lock, not a trip
            // through the (possibly busy) worker pool.
            let resp = Response::Profile(telemetry::profile_snapshot());
            shared.counters.lock().expect("counters lock").ok += 1;
            return (kind, encode_response(&id, &resp));
        }
        Request::Trace => {
            // Drain-and-render on demand: the daemon keeps running and
            // the buffer starts filling again from empty.
            let events = telemetry::take_trace();
            let resp = Response::Trace(telemetry::trace::render_chrome_trace(&events));
            shared.counters.lock().expect("counters lock").ok += 1;
            return (kind, encode_response(&id, &resp));
        }
        Request::Shutdown => {
            shared.counters.lock().expect("counters lock").ok += 1;
            // Acknowledge first, then stop the listener; the caller's
            // connection drains with everyone else's.
            let ack = {
                let mut map = std::collections::BTreeMap::new();
                map.insert("id".to_owned(), id);
                map.insert("ok".to_owned(), Json::Bool(true));
                map.insert("kind".to_owned(), Json::Str("shutdown".to_owned()));
                map.insert(
                    "lines".to_owned(),
                    Json::Arr(vec![Json::Str("shutting down".to_owned())]),
                );
                Json::Obj(map).render()
            };
            request_shutdown(shared, shared.addr);
            return (kind, ack);
        }
        _ => {}
    }

    if let Err(rejection) = admit(&tenant, &req, shared) {
        let mut c = shared.counters.lock().expect("counters lock");
        c.budget_rejections += 1;
        return (kind, encode_response(&id, &Response::Error(rejection)));
    }

    let (reply_tx, reply_rx) = channel();
    // Counted before the send, so a worker never takes a job the gauge
    // has not counted yet.
    shared.queued.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        req,
        reply: reply_tx,
    };
    if jobs.send(job).is_err() {
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        shared.counters.lock().expect("counters lock").errors += 1;
        return (
            kind,
            encode_response(&id, &Response::Error("server is shutting down".into())),
        );
    }
    match reply_rx.recv() {
        Ok(resp) => (kind, encode_response(&id, &resp)),
        Err(_) => {
            shared.counters.lock().expect("counters lock").errors += 1;
            (
                kind,
                encode_response(&id, &Response::Error("server is shutting down".into())),
            )
        }
    }
}

/// Per-tenant admission control: charges the request's effective
/// per-goal iteration budget against the tenant's allowance (refilled
/// first, when a policy is configured).
fn admit(tenant: &str, req: &Request, shared: &Shared) -> Result<(), String> {
    let iters = match req {
        Request::Prove { script, opts } | Request::Optimize { script, opts } => {
            // What the worker will run under: request knobs over the
            // script's `budget` directives over the defaults.
            opts.prove_options(budget_directives(script))
                .budget
                .max_iters
        }
        Request::Catalog { opts, .. } | Request::Discover { opts } => {
            opts.prove_options(BudgetSpec::default()).budget.max_iters
        }
        // Mining runs its own internal discovery/certification budgets;
        // charge it like a default-budget request.
        Request::Mine { .. } => Budget::default().max_iters,
        Request::Stats
        | Request::Metrics
        | Request::Profile
        | Request::Trace
        | Request::Shutdown => return Ok(()),
    };
    let budget = shared.config.tenant_budget;
    let now_ns = shared.started.elapsed().as_nanos() as u64;
    let mut ledger = shared.tenants.lock().expect("tenants lock");
    match ledger.charge(tenant, iters, now_ns, budget) {
        Admission::Admit => Ok(()),
        Admission::PerGoalCap => Err(format!(
            "budget rejected: {iters} iterations exceeds the per-request cap of {}",
            budget.per_goal_iters
        )),
        Admission::Exhausted if ledger.holds(tenant) => Err(format!(
            "budget rejected: tenant {tenant:?} has exhausted its allowance of {} iterations",
            budget.max_total_iters
        )),
        Admission::Exhausted => Err(format!(
            "budget rejected: tenant {tenant:?} is charged to the shared overflow account \
             (the ledger holds {MAX_TENANTS} tenants), which has exhausted its allowance \
             of {} iterations",
            budget.max_total_iters
        )),
    }
}

/// Blocking client helper: sends one request and reads one response
/// line — the `dopcert request` subcommand and the CI smoke test.
///
/// # Errors
///
/// Returns the connect/write/read error, or the malformed response
/// line described as [`ErrorKind::InvalidData`].
pub fn request_once(
    addr: &str,
    id: &Json,
    tenant: &str,
    req: &Request,
) -> std::io::Result<crate::wire::WireReply> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // One write: a second small one would wait out the daemon's
    // delayed ACK.
    let line = crate::wire::encode_request(id, tenant, req);
    writer.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    crate::wire::decode_response(reply.trim())
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::execute;

    fn local_config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn server_answers_identically_to_fresh_execute() {
        let server = Server::start(local_config()).expect("bind");
        let addr = server.local_addr().to_string();
        let req = Request::Prove {
            script: "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);".into(),
            opts: RequestOptions::default(),
        };
        let reply = request_once(&addr, &Json::Num(1.0), "default", &req).expect("request");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.lines, execute(&req).render());
        server.shutdown();
        server.wait();
    }

    #[test]
    fn malformed_lines_get_error_responses_and_the_connection_survives() {
        let server = Server::start(local_config()).expect("bind");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"this is not json\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let reply = crate::wire::decode_response(line.trim()).expect("decode");
        assert!(!reply.ok);
        assert!(reply.error.expect("error").starts_with("bad request:"));
        // The connection is still usable.
        writer.write_all(b"{\"cmd\":\"stats\"}\n").expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        let reply = crate::wire::decode_response(line.trim()).expect("decode");
        assert!(reply.ok);
        let stats = reply.stats.expect("stats");
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn admission_rejects_oversized_and_exhausted_tenants() {
        let mut config = local_config();
        config.tenant_budget = BatchBudget {
            max_total_iters: 48,
            per_goal_iters: 24,
        };
        let server = Server::start(config).expect("bind");
        let addr = server.local_addr().to_string();
        let mut big = RequestOptions::default();
        big.budget.set("iters", 100).unwrap();
        let oversized = Request::Prove {
            script: "table R(int);\nverify R == R;".into(),
            opts: big,
        };
        let reply = request_once(&addr, &Json::Null, "default", &oversized).expect("request");
        assert!(!reply.ok);
        assert!(
            reply.error.expect("error").contains("per-request cap"),
            "oversized request hits the per-goal cap"
        );

        let small = Request::Prove {
            script: "table R(int);\nverify R == R;".into(),
            opts: RequestOptions::default(),
        };
        // Default budget is 24 iters; the third request exceeds 48.
        for _ in 0..2 {
            let reply = request_once(&addr, &Json::Null, "bob", &small).expect("request");
            assert!(reply.ok, "{reply:?}");
        }
        let reply = request_once(&addr, &Json::Null, "bob", &small).expect("request");
        assert!(!reply.ok);
        assert!(reply.error.expect("error").contains("exhausted"));
        // Another tenant's allowance is untouched.
        let reply = request_once(&addr, &Json::Null, "carol", &small).expect("request");
        assert!(reply.ok, "{reply:?}");

        // A script's `budget` directive is charged like the request
        // knob: raised past the cap, it is rejected …
        let raised = Request::Prove {
            script: "table R(int);\nbudget iters 1000;\nverify R == R;".into(),
            opts: RequestOptions::default(),
        };
        let reply = request_once(&addr, &Json::Null, "dave", &raised).expect("request");
        assert!(!reply.ok);
        let error = reply.error.expect("error");
        assert!(error.contains("1000 iterations exceeds"), "{error}");
        // … and lowered, it is charged what it runs under: six 8-iter
        // requests fit a 48-iter allowance, a seventh does not.
        let lowered = Request::Prove {
            script: "table R(int);\nbudget iters 8;\nverify R == R;".into(),
            opts: RequestOptions::default(),
        };
        for _ in 0..6 {
            let reply = request_once(&addr, &Json::Null, "erin", &lowered).expect("request");
            assert!(reply.ok, "{reply:?}");
        }
        let reply = request_once(&addr, &Json::Null, "erin", &lowered).expect("request");
        assert!(reply.error.expect("error").contains("exhausted"));
        assert_eq!(server.stats().budget_rejections, 4);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn refill_recovers_an_exhausted_tenant_over_time() {
        let budget = BatchBudget {
            max_total_iters: 48,
            per_goal_iters: 24,
        };
        let mut ledger = TenantLedger::new(Some(RefillPolicy { iters_per_sec: 24 }));
        // Two 24-iter requests exhaust the 48-iter allowance at t=0.
        assert_eq!(ledger.charge("bob", 24, 0, budget), Admission::Admit);
        assert_eq!(ledger.charge("bob", 24, 0, budget), Admission::Admit);
        assert_eq!(ledger.charge("bob", 24, 0, budget), Admission::Exhausted);
        // Half a second refills 12 iterations — not yet enough headroom
        // for a 24-iter request (36 + 24 > 48).
        assert_eq!(
            ledger.charge("bob", 24, 500_000_000, budget),
            Admission::Exhausted
        );
        // A full second from start has refilled 24 total: recovered.
        assert_eq!(
            ledger.charge("bob", 24, 1_000_000_000, budget),
            Admission::Admit
        );
        // The per-goal cap is not affected by refill.
        assert_eq!(
            ledger.charge("bob", 100, 2_000_000_000, budget),
            Admission::PerGoalCap
        );
    }

    #[test]
    fn tenants_past_the_ledger_cap_share_the_overflow_account() {
        let budget = BatchBudget {
            max_total_iters: 48,
            per_goal_iters: 24,
        };
        let mut ledger = TenantLedger::new(None);
        for i in 0..MAX_TENANTS {
            let tenant = format!("t{i}");
            assert_eq!(ledger.charge(&tenant, 24, 0, budget), Admission::Admit);
            assert!(ledger.holds(&tenant));
        }
        // The 1 025th name gets no account of its own: it and every
        // later name draw on one shared allowance.
        assert_eq!(ledger.charge("late", 24, 0, budget), Admission::Admit);
        assert!(!ledger.holds("late"));
        assert_eq!(ledger.charge("later", 24, 0, budget), Admission::Admit);
        assert_eq!(ledger.charge("late", 24, 0, budget), Admission::Exhausted);
        assert_eq!(ledger.charge("latest", 1, 0, budget), Admission::Exhausted);
        assert_eq!(ledger.entries.len(), MAX_TENANTS);
        // Named accounts keep their own allowance.
        assert_eq!(ledger.charge("t0", 24, 0, budget), Admission::Admit);
    }

    #[test]
    fn a_rejection_names_the_overflow_account() {
        let mut config = local_config();
        config.tenant_budget = BatchBudget {
            max_total_iters: 24,
            per_goal_iters: 24,
        };
        let server = Server::start(config).expect("bind");
        let addr = server.local_addr().to_string();
        {
            let mut ledger = server.shared.tenants.lock().expect("tenants lock");
            for i in 0..MAX_TENANTS {
                ledger.charge(&format!("t{i}"), 0, 0, BatchBudget::default());
            }
        }
        let small = Request::Prove {
            script: "table R(int);\nverify R == R;".into(),
            opts: RequestOptions::default(),
        };
        let reply = request_once(&addr, &Json::Null, "new", &small).expect("request");
        assert!(reply.ok, "{reply:?}");
        let reply = request_once(&addr, &Json::Null, "newer", &small).expect("request");
        let error = reply.error.expect("error");
        assert!(error.contains("shared overflow account"), "{error}");
        server.shutdown();
        server.wait();
    }

    #[test]
    fn refill_fractions_accumulate_and_no_policy_means_no_decay() {
        let budget = BatchBudget {
            max_total_iters: 10,
            per_goal_iters: 10,
        };
        // 4 iters/sec: one 250ms step is exactly one iteration; an 80ms
        // step grants nothing but the remainder must not be lost.
        let mut ledger = TenantLedger::new(Some(RefillPolicy { iters_per_sec: 4 }));
        assert_eq!(ledger.charge("t", 10, 0, budget), Admission::Admit);
        assert_eq!(
            ledger.charge("t", 1, 80_000_000, budget),
            Admission::Exhausted
        );
        assert_eq!(
            ledger.charge("t", 1, 160_000_000, budget),
            Admission::Exhausted
        );
        // 250ms total: the three fractional steps add up to 1 iteration.
        assert_eq!(ledger.charge("t", 1, 250_000_000, budget), Admission::Admit);

        // Without a policy, exhaustion is permanent (pre-refill
        // behavior preserved — the default configuration).
        let mut fixed = TenantLedger::new(None);
        assert_eq!(fixed.charge("t", 10, 0, budget), Admission::Admit);
        assert_eq!(fixed.charge("t", 1, u64::MAX, budget), Admission::Exhausted);
    }

    #[test]
    fn profile_and_trace_requests_answer_inline() {
        let server = Server::start(local_config()).expect("bind");
        let addr = server.local_addr().to_string();
        let opts = RequestOptions {
            saturate: crate::prove::SaturateMode::Only,
            ..Default::default()
        };
        let prove = Request::Prove {
            script: "table R(int);\ntable S(int);\nverify (R UNION ALL S) == (S UNION ALL R);"
                .into(),
            opts,
        };
        let reply = request_once(&addr, &Json::Null, "default", &prove).expect("request");
        assert!(reply.ok, "{reply:?}");

        // The daemon enabled profiling at start, so the saturation run
        // left per-rule attribution rows behind.
        let reply =
            request_once(&addr, &Json::Null, "default", &Request::Profile).expect("profile");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.kind, "profile");
        let profile = reply.profile.expect("profile table");
        assert!(
            !profile.is_empty(),
            "a saturation run must leave attribution rows"
        );

        // `trace` drains on demand without stopping the daemon; with
        // tracing off the buffer is empty but the reply is well-formed.
        let reply = request_once(&addr, &Json::Null, "default", &Request::Trace).expect("trace");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.kind, "trace");
        assert!(reply.lines.concat().contains("traceEvents"), "{reply:?}");
        server.shutdown();
        server.wait();
    }

    #[test]
    fn mine_request_over_the_wire_publishes_the_daemon_catalog() {
        let server = Server::start(local_config()).expect("bind");
        let addr = server.local_addr().to_string();
        let mine_req = Request::Mine {
            seed: mine::MineConfig::default().seed,
            count: 3,
        };
        let reply = request_once(&addr, &Json::Null, "default", &mine_req).expect("request");
        assert!(reply.ok, "{reply:?}");
        assert!(
            reply.lines[0].starts_with("mined 3 rules"),
            "{:?}",
            reply.lines
        );
        assert_eq!(reply.lines, execute(&mine_req).render());
        // The mined catalog is now daemon-resident: a flagged optimize
        // adopts it and still ships a certified plan.
        let opt_req = Request::Optimize {
            script: "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);".into(),
            opts: RequestOptions {
                mined_rules: true,
                ..RequestOptions::default()
            },
        };
        let reply = request_once(&addr, &Json::Null, "default", &opt_req).expect("request");
        assert!(reply.ok, "{reply:?}");
        server.shutdown();
        server.wait();
    }

    #[test]
    fn metrics_exposition_reflects_served_traffic() {
        let server = Server::start(local_config()).expect("bind");
        let addr = server.local_addr().to_string();
        let prove = Request::Prove {
            script: "table R(int);\nverify R == R;".into(),
            opts: RequestOptions::default(),
        };
        for _ in 0..2 {
            let reply = request_once(&addr, &Json::Null, "default", &prove).expect("request");
            assert!(reply.ok, "{reply:?}");
        }
        let reply = request_once(&addr, &Json::Null, "default", &Request::Metrics)
            .expect("metrics request");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.kind, "metrics");
        let text = reply.lines.join("\n");
        // Server-owned counters match the actual request totals: two
        // proves plus the metrics request itself.
        assert!(text.contains("dopcert_serve_requests 3"), "{text}");
        assert!(text.contains("dopcert_serve_ok 2"), "{text}");
        // The per-kind latency histogram counted both proves.
        assert!(
            text.contains("dopcert_request_latency_us_count{kind=\"prove\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("dopcert_request_latency_us_bucket{kind=\"prove\",le=\"+Inf\"} 2"),
            "{text}"
        );
        // Quantile summary lines are present for the kind.
        assert!(
            text.contains("dopcert_request_latency_us{kind=\"prove\",quantile=\"0.5\"}"),
            "{text}"
        );
        // The whole exposition parses: every non-comment line is
        // `name[{labels}] value` with a numeric value.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line");
            assert!(!name.is_empty(), "{line}");
            value.parse::<f64>().unwrap_or_else(|_| panic!("{line}"));
        }

        // Live memo hits: the repeated script was a memo hit on its
        // worker, visible in `stats` per worker and in total.
        let stats = server.stats();
        assert!(stats.memo_hits >= 1, "{stats:?}");
        assert_eq!(
            stats.memo_hits,
            stats.memo_hits_by_worker.iter().sum::<usize>()
        );
        assert!(
            stats
                .latency
                .iter()
                .any(|l| l.kind == "prove" && l.count == 2),
            "{stats:?}"
        );
        server.shutdown();
        server.wait();
    }
}
