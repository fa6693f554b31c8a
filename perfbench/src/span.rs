//! In-memory span recording for the traced run.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. Each thread
//! keeps its own stack and buffer, flushed into one process-wide list
//! when the thread finishes its work. At the end of a traced run the
//! spans are written out as a Chrome trace and folded into per-layer
//! self times (a span's duration minus what its child spans cover).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<usize>,
    /// Request id the span belongs to (shared by every span of a request).
    pub req: u64,
    pub tid: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SINK: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Local {
    tid: u32,
    req: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turns recording on or off process-wide.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Marks the request id the current thread's next spans belong to.
pub fn set_request(req: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        LOCAL.with(|l| l.borrow_mut().req = req);
    }
}

/// Guard that closes its span on drop.
pub struct Guard(Option<usize>);

/// Opens a span named `name` on the current thread.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let start_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.tid == 0 {
            l.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        let idx = l.spans.len();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: l.stack.last().copied(),
            req: l.req,
            tid: l.tid,
        };
        l.spans.push(span);
        l.stack.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.spans[idx].end_ns = end;
                l.stack.pop();
            });
        }
    }
}

/// Moves the current thread's closed spans into the process-wide list.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        SINK.lock().expect("span sink lock").push(spans);
    }
}

/// Takes every flushed span buffer (one per thread flush).
pub fn take_all() -> Vec<Vec<Span>> {
    flush_thread();
    std::mem::take(&mut *SINK.lock().expect("span sink lock"))
}

/// Per-name totals folded from span trees.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total (inclusive) time per span name, ns.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the root spans named `request`, ns.
    pub request_ns: u64,
    /// Number of `request` root spans.
    pub requests: u64,
}

impl Breakdown {
    /// Folds buffers into self and total times.
    pub fn from_buffers(buffers: &[Vec<Span>]) -> Breakdown {
        let mut b = Breakdown::default();
        for spans in buffers {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
            for (i, s) in spans.iter().enumerate() {
                let dur = s.end_ns - s.start_ns;
                *b.self_ns.entry(s.name).or_default() += dur.saturating_sub(child_ns[i]);
                *b.total_ns.entry(s.name).or_default() += dur;
                if s.parent.is_none() && s.name == "request" {
                    b.request_ns += dur;
                    b.requests += 1;
                }
            }
        }
        b
    }

    /// Self time of `name` per request, ms.
    pub fn self_ms_per_request(&self, names: &[&str]) -> f64 {
        let ns: u64 = names
            .iter()
            .map(|n| self.self_ns.get(n).copied().unwrap_or(0))
            .sum();
        ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// Mean traced request latency, ms.
    pub fn request_ms(&self) -> f64 {
        self.request_ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// Share of the traced request time that the layer spans (every span
    /// below a `request` root) account for as self time.
    pub fn layer_share(&self) -> f64 {
        let root_self = self.self_ns.get("request").copied().unwrap_or(0);
        if self.request_ns == 0 {
            return 0.0;
        }
        (self.request_ns - root_self.min(self.request_ns)) as f64 / self.request_ns as f64
    }
}

/// Renders span buffers as Chrome trace-event JSON.
pub fn chrome_trace(buffers: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for spans in buffers {
        for s in spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req
            ));
        }
    }
    out.push_str("]}\n");
    out
}
