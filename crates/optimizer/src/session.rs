//! Persistent per-worker optimization sessions.
//!
//! A [`PlanSession`] is the optimizer's face of [`egraph::Session`]:
//! one per batch worker, shared across every query the worker
//! optimizes. It layers two memo tables over the saturation session's
//! goal memo:
//!
//! - **plan memo** — query → finished [`OptimizeReport`]. The
//!   optimization pipeline is deterministic, so a repeated query (the
//!   common case in production traffic) returns the byte-identical
//!   report without re-running search, readback, or certification;
//! - **certificate memo** — `(input, output)` query pair →
//!   [`Certificate`] (or the recorded failure to certify). Candidate
//!   plans recur across related queries, and the reflexive certificate
//!   of an already-seen query is free.
//!
//! The embedded saturation session memoizes the certificates' goal-
//! closing searches. Every memo replays a deterministic computation, so
//! reports are byte-identical to planning each query on fresh state.

use crate::optimize::{Certificate, OptimizeReport};
use egraph::session::Session;
use egraph::solve::Budget;
use hottsql::ast::Query;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A persistent per-worker optimization session.
#[derive(Debug)]
pub struct PlanSession {
    /// The saturation session whose goal memo certification runs on.
    pub sat: Session,
    plans: HashMap<Query, OptimizeReport>,
    /// Certificate memo, nested so lookups need no key allocation:
    /// input → output → recorded outcome (`None` = tried and failed).
    certs: HashMap<Query, HashMap<Query, Option<Certificate>>>,
    /// Fingerprint of the configuration the memos were computed under
    /// (environment, statistics, options). A memo is only valid for the
    /// exact configuration; a rebind with a different fingerprint clears
    /// the memos instead of replaying stale reports.
    config: Option<String>,
    plan_hits: usize,
    cert_hits: usize,
    publish: Option<Arc<AtomicUsize>>,
}

impl PlanSession {
    /// A session sized by the per-goal saturation budget.
    pub fn new(budget: Budget) -> PlanSession {
        PlanSession {
            sat: Session::new(budget),
            plans: HashMap::new(),
            certs: HashMap::new(),
            config: None,
            plan_hits: 0,
            cert_hits: 0,
            publish: None,
        }
    }

    /// Mirrors the live plan-hit count into `sink` on every subsequent
    /// memo hit (and once now): an observer sees a long batch's memo
    /// progress without waiting for it to finish.
    pub fn publish_hits_to(&mut self, sink: Arc<AtomicUsize>) {
        sink.store(self.plan_hits, Ordering::Relaxed);
        self.publish = Some(sink);
    }

    /// Binds the session to an optimization configuration. Reports and
    /// certificates depend on the environment, statistics, and options
    /// — not just the query — so reusing a session under a *different*
    /// configuration invalidates the memos (the saturation session is
    /// kept; its goal answers are configuration-independent).
    pub fn bind_config(&mut self, fingerprint: String) {
        if self.config.as_deref() != Some(fingerprint.as_str()) {
            if self.config.is_some() {
                self.plans.clear();
                self.certs.clear();
            }
            self.config = Some(fingerprint);
        }
    }

    /// The recorded report for a query, if it was optimized before.
    pub fn lookup_plan(&mut self, q: &Query) -> Option<OptimizeReport> {
        let hit = self.plans.get(q).cloned();
        if hit.is_some() {
            self.plan_hits += 1;
            if let Some(sink) = &self.publish {
                sink.store(self.plan_hits, Ordering::Relaxed);
            }
        }
        hit
    }

    /// Records a finished report.
    pub fn record_plan(&mut self, q: &Query, report: &OptimizeReport) {
        self.plans.insert(q.clone(), report.clone());
    }

    /// The recorded certification outcome for an `(input, output)`
    /// pair, if this pair was certified before. The outer `Option` is
    /// the memo lookup; the inner one records "tried and failed".
    #[allow(clippy::option_option)]
    pub fn lookup_cert(&mut self, input: &Query, output: &Query) -> Option<Option<Certificate>> {
        let hit = self.certs.get(input).and_then(|m| m.get(output)).cloned();
        if hit.is_some() {
            self.cert_hits += 1;
        }
        hit
    }

    /// Records a certification outcome (including failures).
    pub fn record_cert(&mut self, input: &Query, output: &Query, cert: Option<Certificate>) {
        self.certs
            .entry(input.clone())
            .or_default()
            .insert(output.clone(), cert);
    }

    /// Queries answered from the plan memo.
    pub fn plan_hits(&self) -> usize {
        self.plan_hits
    }

    /// Certificates answered from the certificate memo.
    pub fn cert_hits(&self) -> usize {
        self.cert_hits
    }
}
