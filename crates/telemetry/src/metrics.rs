//! Named counters + histograms and the Prometheus-style text exposition.
//!
//! Metric names are dotted (`memo.verdict.hit`, `egraph.rebuild`) and may
//! carry a literal label suffix (`request.latency_ns{kind="prove"}`). The
//! exposition sanitizes dots to underscores, prefixes `dopcert_`, and for
//! histograms emits cumulative `_bucket{le=...}` lines plus `_sum`,
//! `_count` and `quantile=` summary lines (p50/p90/p99).

use crate::hist::{bucket_bound, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A mergeable bag of named counters and histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty metric bag.
    pub const fn new() -> Metrics {
        Metrics {
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// Adds `by` to the named counter.
    pub fn incr(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::new();
            h.record(v);
            self.hists.insert(name.to_owned(), h);
        }
    }

    /// Merges a whole histogram into the named slot — how a server
    /// folds externally-kept histograms (e.g. per-request-kind latency)
    /// into an exposition bag.
    pub fn merge_hist(&mut self, name: &str, h: &Histogram) {
        if let Some(mine) = self.hists.get_mut(name) {
            mine.merge(h);
        } else {
            self.hists.insert(name.to_owned(), h.clone());
        }
    }

    /// Merges another bag into this one (summing counters, merging
    /// histograms).
    pub fn merge(&mut self, other: &Metrics) {
        for (name, by) in &other.counters {
            self.incr(name, *by);
        }
        for (name, h) in &other.hists {
            if let Some(mine) = self.hists.get_mut(name) {
                mine.merge(h);
            } else {
                self.hists.insert(name.clone(), h.clone());
            }
        }
    }

    /// True when no counter or histogram has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Drops all recorded data.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.hists.clear();
    }

    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, sorted by name.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the whole bag as Prometheus-style text exposition.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, v) in &self.counters {
            let (base, labels) = sanitize(name);
            if base != last_family {
                let _ = writeln!(out, "# TYPE {base} counter");
                last_family = base.clone();
            }
            let _ = writeln!(out, "{base}{} {v}", braced(&labels, ""));
        }
        for (name, h) in &self.hists {
            let (base, labels) = sanitize(name);
            if base != last_family {
                let _ = writeln!(out, "# TYPE {base} histogram");
                last_family = base.clone();
            }
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let le = bucket_bound(i);
                let _ = writeln!(
                    out,
                    "{base}_bucket{} {cumulative}",
                    braced(&labels, &format!("le=\"{le}\""))
                );
            }
            let _ = writeln!(
                out,
                "{base}_bucket{} {}",
                braced(&labels, "le=\"+Inf\""),
                h.count()
            );
            let _ = writeln!(out, "{base}_sum{} {}", braced(&labels, ""), h.sum());
            let _ = writeln!(out, "{base}_count{} {}", braced(&labels, ""), h.count());
            for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                let _ = writeln!(
                    out,
                    "{base}{} {v}",
                    braced(&labels, &format!("quantile=\"{q}\""))
                );
            }
        }
        out
    }
}

/// Splits a metric name into a sanitized `dopcert_`-prefixed base and the
/// literal label list carried in a `{...}` suffix (empty when absent).
fn sanitize(name: &str) -> (String, String) {
    let (raw, labels) = match name.split_once('{') {
        Some((raw, rest)) => (raw, rest.trim_end_matches('}').to_owned()),
        None => (name, String::new()),
    };
    let mut base = String::with_capacity(raw.len() + 8);
    base.push_str("dopcert_");
    for ch in raw.chars() {
        if ch.is_ascii_alphanumeric() {
            base.push(ch);
        } else {
            base.push('_');
        }
    }
    (base, labels)
}

/// Joins stored labels with an extra label into a `{...}` block (empty
/// string when there are no labels at all).
fn braced(labels: &str, extra: &str) -> String {
    match (labels.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (true, false) => format!("{{{extra}}}"),
        (false, true) => format!("{{{labels}}}"),
        (false, false) => format!("{{{labels},{extra}}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_buckets() {
        let mut a = Metrics::new();
        a.incr("memo.norm.hit", 3);
        a.observe("egraph.rebuild", 100);
        let mut b = Metrics::new();
        b.incr("memo.norm.hit", 4);
        b.incr("memo.norm.miss", 1);
        b.observe("egraph.rebuild", 200);
        a.merge(&b);
        assert_eq!(a.counter("memo.norm.hit"), 7);
        assert_eq!(a.counter("memo.norm.miss"), 1);
        assert_eq!(a.hist("egraph.rebuild").unwrap().count(), 2);
        assert_eq!(a.hist("egraph.rebuild").unwrap().sum(), 300);
    }

    #[test]
    fn prometheus_render_is_labelled_and_cumulative() {
        let mut m = Metrics::new();
        m.incr("serve.requests", 2);
        m.observe("request.latency_ns{kind=\"prove\"}", 3);
        m.observe("request.latency_ns{kind=\"prove\"}", 100);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE dopcert_serve_requests counter"));
        assert!(text.contains("dopcert_serve_requests 2"));
        assert!(text.contains("# TYPE dopcert_request_latency_ns histogram"));
        assert!(text.contains("dopcert_request_latency_ns_bucket{kind=\"prove\",le=\"3\"} 1"));
        assert!(text.contains("dopcert_request_latency_ns_bucket{kind=\"prove\",le=\"+Inf\"} 2"));
        assert!(text.contains("dopcert_request_latency_ns_sum{kind=\"prove\"} 103"));
        assert!(text.contains("dopcert_request_latency_ns_count{kind=\"prove\"} 2"));
        assert!(text.contains("dopcert_request_latency_ns{kind=\"prove\",quantile=\"0.5\"}"));
        // Every line is `name{labels} value` or a comment — parseable.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.rsplit_once(' ').is_some(),
                "bad line: {line}"
            );
        }
    }
}
