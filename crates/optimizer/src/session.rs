//! Persistent per-worker optimization sessions.
//!
//! A [`PlanSession`] is one worker's handle on a **plan memo**: query →
//! finished [`OptimizeReport`]. The optimization pipeline is
//! deterministic, so a repeated query (the common case in production
//! traffic) returns the byte-identical report without re-running search,
//! readback, or certification. A memo miss certifies its plan on a fresh
//! saturation solver under the session's budget, so reports are
//! byte-identical to planning each query on fresh state.
//!
//! The memo itself may be shared: [`PlanSession::sibling`] hands another
//! worker a session over the same memo, which is how a `dopcert serve`
//! daemon's workers answer each other's repeats. The hit counter stays
//! per session; [`PlanSession::hit_counter`] lets another thread read it
//! live.

use crate::optimize::OptimizeReport;
use egraph::solve::Budget;
use hottsql::ast::Query;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The plan memo and the configuration its reports were computed
/// under, kept behind one lock so no caller can read a report under a
/// configuration another caller has since bound.
#[derive(Debug, Default)]
struct PlanMemo {
    /// Fingerprint of the configuration (environment, statistics,
    /// options) every report in `plans` was computed under.
    config: Option<String>,
    plans: HashMap<Query, OptimizeReport>,
}

/// A persistent per-worker optimization session.
#[derive(Debug)]
pub struct PlanSession {
    memo: Arc<Mutex<PlanMemo>>,
    /// Budget of the certificates' saturation fallback.
    budget: Budget,
    plan_hits: Arc<AtomicUsize>,
}

impl PlanSession {
    /// A session whose certificates fall back to saturation under
    /// `budget`.
    pub fn new(budget: Budget) -> PlanSession {
        PlanSession {
            memo: Arc::default(),
            budget,
            plan_hits: Arc::default(),
        }
    }

    /// A session with this one's budget over this one's plan memo, with
    /// a hit counter of its own.
    pub fn sibling(&self) -> PlanSession {
        PlanSession {
            memo: Arc::clone(&self.memo),
            ..PlanSession::new(self.budget)
        }
    }

    /// Budget of the certificates' saturation fallback.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The report recorded for `q` under configuration `config` (a
    /// fingerprint of the environment, statistics and options). Reports
    /// depend on all of these, not just the query, so a lookup under a
    /// configuration other than the memo's clears the memo, binds it to
    /// `config`, and misses.
    pub fn lookup_plan(&mut self, config: &str, q: &Query) -> Option<OptimizeReport> {
        let hit = {
            let mut memo = self.memo.lock().expect("plan memo lock");
            if memo.config.as_deref() == Some(config) {
                memo.plans.get(q).cloned()
            } else {
                memo.plans.clear();
                memo.config = Some(config.to_owned());
                None
            }
        };
        if hit.is_some() {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Records a report computed under configuration `config`. It is
    /// dropped when the memo has since been bound to another
    /// configuration.
    pub fn record_plan(&self, config: &str, q: &Query, report: &OptimizeReport) {
        let mut memo = self.memo.lock().expect("plan memo lock");
        if memo.config.as_deref() == Some(config) {
            memo.plans.insert(q.clone(), report.clone());
        }
    }

    /// Queries answered from the plan memo.
    pub fn plan_hits(&self) -> usize {
        self.plan_hits.load(Ordering::Relaxed)
    }

    /// The counter this session adds one to on every memo hit. A clone
    /// taken once reads the live count from another thread, so an
    /// observer sees a long batch's memo progress before it finishes.
    pub fn hit_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.plan_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::{optimize, OptimizeOptions, PlanCtx};
    use hottsql::env::QueryEnv;
    use relalg::stats::Statistics;
    use relalg::Schema;

    /// A query and a real report for it.
    fn planned() -> (Query, OptimizeReport) {
        let env = QueryEnv::new().with_table("R", Schema::flat(vec![relalg::BaseType::Int]));
        let q = hottsql::parse::parse_query("R UNION ALL R").expect("parses");
        let report = optimize(
            &q,
            &env,
            &Statistics::default(),
            OptimizeOptions::default(),
            PlanCtx::default(),
        )
        .expect("optimizes");
        (q, report)
    }

    #[test]
    fn siblings_share_the_memo_and_count_their_own_hits() {
        let (q, report) = planned();
        let mut a = PlanSession::new(Budget::default());
        let mut b = a.sibling();
        assert!(a.lookup_plan("X", &q).is_none());
        a.record_plan("X", &q, &report);
        assert!(b.lookup_plan("X", &q).is_some(), "b hits a's plan");
        assert_eq!((a.plan_hits(), b.plan_hits()), (0, 1));
    }

    #[test]
    fn a_sibling_never_receives_a_plan_for_another_configuration() {
        let (q, report) = planned();
        let mut theirs = report.clone();
        theirs.cost_after = -1.0;
        let mut a = PlanSession::new(Budget::default());
        let mut b = a.sibling();
        // A misses q under X; B rebinds the memo to Y and records its
        // plan; A's next lookup under X must miss, not ship B's plan.
        assert!(a.lookup_plan("X", &q).is_none());
        assert!(b.lookup_plan("Y", &q).is_none());
        b.record_plan("Y", &q, &theirs);
        assert!(a.lookup_plan("X", &q).is_none());
        // A's record under X, made after B rebound the memo to Y, is
        // dropped: B misses rather than receiving A's plan.
        assert!(b.lookup_plan("Y", &q).is_none());
        a.record_plan("X", &q, &report);
        assert!(b.lookup_plan("Y", &q).is_none());
        assert_eq!((a.plan_hits(), b.plan_hits()), (0, 0));
        // Under one configuration, a record is a hit for both.
        b.record_plan("Y", &q, &theirs);
        let hit = b.lookup_plan("Y", &q).expect("recorded under Y");
        assert_eq!(hit.cost_after, -1.0);
    }
}
