//! Persistent per-worker optimization sessions.
//!
//! A [`PlanSession`] is one batch worker's **plan memo**: query →
//! finished [`OptimizeReport`], shared across every query the worker
//! optimizes. The optimization pipeline is deterministic, so a repeated
//! query (the common case in production traffic) returns the
//! byte-identical report without re-running search, readback, or
//! certification. A memo miss certifies its plan on a fresh saturation
//! solver under the session's budget, so reports are byte-identical to
//! planning each query on fresh state.

use crate::optimize::OptimizeReport;
use egraph::solve::Budget;
use hottsql::ast::Query;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A persistent per-worker optimization session.
#[derive(Debug)]
pub struct PlanSession {
    plans: HashMap<Query, OptimizeReport>,
    /// Fingerprint of the configuration the memo was computed under
    /// (environment, statistics, options). The memo is only valid for
    /// the exact configuration; a rebind with a different fingerprint
    /// clears it instead of replaying stale reports.
    config: Option<String>,
    /// Budget of the certificates' saturation fallback.
    pub(crate) budget: Budget,
    plan_hits: usize,
    publish: Option<Arc<AtomicUsize>>,
}

impl PlanSession {
    /// A session whose certificates fall back to saturation under
    /// `budget`.
    pub fn new(budget: Budget) -> PlanSession {
        PlanSession {
            plans: HashMap::new(),
            config: None,
            budget,
            plan_hits: 0,
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

    /// Binds the session to an optimization configuration. Reports
    /// depend on the environment, statistics, and options — not just
    /// the query — so reusing a session under a *different*
    /// configuration clears the memo.
    pub fn bind_config(&mut self, fingerprint: String) {
        if self.config.as_deref() != Some(fingerprint.as_str()) {
            if self.config.is_some() {
                self.plans.clear();
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

    /// Queries answered from the plan memo.
    pub fn plan_hits(&self) -> usize {
        self.plan_hits
    }
}
