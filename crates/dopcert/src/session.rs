//! Per-worker proving sessions: the verification-pipeline face of
//! [`egraph::Session`].
//!
//! Every [`Workspace`](crate::api::Workspace) holds ONE
//! [`ProveSession`]; the batch engine keeps one workspace per worker for
//! its whole shard. A session is bound to one set of [`ProveOptions`] and
//! layers a two-level *verdict memo* over the e-graph session's goal
//! memo. The outer level keys on the surface query pair + table
//! environment and answers before the pipeline runs at all. It may be
//! shared: [`ProveSession::sibling`] hands another worker a session over
//! the same outer memo, which is how a `dopcert serve` daemon's workers
//! answer each other's repeats. The inner level, the goal memo and the
//! hit counter stay per session. The inner level keys on
//! the raw denotations (which are deterministic per query pair — every
//! instance denotes over a fresh `VarGen`) and catches distinct query
//! texts with equal denotations. The recorded answer is the full
//! [`verify_instance`](crate::prove::verify_instance) result — method,
//! step count, attempted list, or failure diagnostics. Because the
//! underlying pipeline is deterministic, a memo hit is byte-identical to
//! recomputation; repeated goals across a batch (the common case in
//! production query traffic) skip denotation, type inference,
//! normalization, tactics, and saturation entirely.
//!
//! The embedded [`egraph::Session`] memoizes the saturation step's
//! goal-closing searches. Cross-rule discovery ([`discover_catalog`],
//! `dopcert catalog --discover`) seeds an [`egraph::Discovery`] graph
//! of its own.

use crate::prove::{denote_instance, ProveOptions, VerifyMethod};
use crate::rule::{Rule, RuleInstance};
use egraph::solve::Budget;
use egraph::{Discovery, Session};
use hottsql::ast::Query;
use relalg::Schema;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use uninomial::normalize::{normalize, Trace};
use uninomial::syntax::intern::{Interner, UExprId};
use uninomial::UExpr;

/// The memoized outcome of one verification goal — exactly the shape
/// [`verify_instance`](crate::prove::verify_instance) returns.
pub type Verdict = Result<(VerifyMethod, usize, Vec<String>), (String, Vec<String>)>;

/// Key of the query-level memo: the surface query pair plus the table
/// environment it types under. Everything the pipeline computes for an
/// axiom-free goal — denotation, typing, tactics, saturation — is a
/// deterministic function of this triple.
type QueryKey = (Query, Query, Vec<(String, Schema)>);

fn query_key(inst: &RuleInstance) -> QueryKey {
    (
        inst.lhs.clone(),
        inst.rhs.clone(),
        inst.env
            .tables()
            .map(|(name, schema)| (name.clone(), schema.clone()))
            .collect(),
    )
}

/// A persistent per-worker proving session: a two-level verdict memo
/// (surface query pairs, then raw denotations) plus the saturation
/// session's goal memo.
///
/// The query-level memo is the hot-path layer: a repeated goal is
/// answered before any denotation or type inference runs, and
/// [`ProveSession::sibling`]s share it. The denotation-level memo stays
/// underneath it to catch distinct query texts that denote to the same
/// trees.
#[derive(Debug)]
pub struct ProveSession {
    /// The saturation session the goal-closing searches run on.
    pub sat: Session,
    /// The options verdicts were computed under. A verdict depends on
    /// the saturation mode and budget, not just the goal, so lookups
    /// under different options bypass the memo.
    opts: ProveOptions,
    interner: Interner,
    verdicts: HashMap<(UExprId, UExprId), Verdict>,
    /// The query-level memo, shared with every sibling session.
    query_verdicts: Arc<Mutex<HashMap<QueryKey, Verdict>>>,
    /// Goals answered from either memo level; see
    /// [`ProveSession::hit_counter`].
    hits: Arc<AtomicUsize>,
}

impl ProveSession {
    /// A session bound to one set of verification options (and sized by
    /// its saturation budget).
    pub fn new(opts: ProveOptions) -> ProveSession {
        ProveSession {
            sat: Session::new(opts.budget),
            opts,
            interner: Interner::new(),
            verdicts: HashMap::new(),
            query_verdicts: Arc::default(),
            hits: Arc::default(),
        }
    }

    /// A session at this one's options that shares its query-level
    /// memo, with every other part fresh: the denotation-level memo and
    /// its interner, the goal memo and the hit counter.
    pub fn sibling(&self) -> ProveSession {
        ProveSession {
            query_verdicts: Arc::clone(&self.query_verdicts),
            ..ProveSession::new(self.opts)
        }
    }

    /// The options this session's verdicts are computed under.
    pub(crate) fn options(&self) -> ProveOptions {
        self.opts
    }

    /// Number of goals answered from the verdict memo.
    pub fn verdict_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// The counter this session adds one to on every memo hit. A clone
    /// taken once reads the live count from another thread, so an
    /// observer sees progress mid-request.
    pub(crate) fn hit_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.hits)
    }

    /// Looks up the recorded verdict for a goal with these denotations,
    /// verified under `opts`. Only axiom-free goals are memoized
    /// (declared integrity axioms are not part of the key), and only
    /// under the options this session is bound to — a different mode or
    /// budget bypasses the memo rather than replaying a stale verdict.
    pub fn lookup(&mut self, el: &UExpr, er: &UExpr, opts: ProveOptions) -> Option<Verdict> {
        if opts != self.opts {
            return None;
        }
        let key = (self.interner.intern(el), self.interner.intern(er));
        let hit = self.verdicts.get(&key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count("memo.verdict.hit", 1);
        } else {
            telemetry::count("memo.verdict.miss", 1);
        }
        hit
    }

    /// Records a goal's verdict computed under `opts` (ignored when the
    /// options differ from the session's).
    pub fn record(&mut self, el: &UExpr, er: &UExpr, opts: ProveOptions, verdict: Verdict) {
        if opts != self.opts {
            return;
        }
        let key = (self.interner.intern(el), self.interner.intern(er));
        self.verdicts.insert(key, verdict);
    }

    /// Looks up the recorded verdict for a whole instance *before any
    /// denotation or typing runs* — the fast path for repeated query
    /// traffic. Same admission rules as the denotation layer: axiom-free
    /// goals only (declared integrity axioms are not part of the key),
    /// and only under the options this session is bound to. Misses are
    /// not counted here; the goal falls through to the denotation-level
    /// [`ProveSession::lookup`], which counts it once.
    pub fn lookup_query(&mut self, inst: &RuleInstance, opts: ProveOptions) -> Option<Verdict> {
        if opts != self.opts || !inst.axioms.is_empty() {
            return None;
        }
        let key = query_key(inst);
        let hit = self
            .query_verdicts
            .lock()
            .expect("verdict memo lock")
            .get(&key)
            .cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count("memo.verdict.hit", 1);
        }
        hit
    }

    /// Records an instance's verdict in the query-level memo (ignored
    /// for axiomatized goals or when the options differ).
    pub fn record_query(&mut self, inst: &RuleInstance, opts: ProveOptions, verdict: Verdict) {
        if opts != self.opts || !inst.axioms.is_empty() {
            return;
        }
        let key = query_key(inst);
        self.query_verdicts
            .lock()
            .expect("verdict memo lock")
            .insert(key, verdict);
    }
}

/// Cross-rule discovery over the catalog: seed every rule's normalized
/// sides into ONE [`Discovery`] graph, saturate it once, and report
/// equalities it proved between *different* rules' seeds — the first
/// step from "prove given pairs" toward "search for equal pairs". The
/// graph may spend what 64 goals under `opts.budget` would. The report
/// is deterministic (sorted by tag) and purely additive: per-rule
/// verdicts are untouched. The boolean marks pairs whose sides already
/// normalize to one expression (equal before any saturation) as opposed
/// to equalities the rewrites proved.
pub fn discover_catalog(rules: &[Rule], opts: ProveOptions) -> Vec<(String, String, bool)> {
    let budget = Budget {
        max_iters: opts.budget.max_iters.saturating_mul(64),
        max_nodes: opts.budget.max_nodes.saturating_mul(6),
        ..opts.budget
    };
    let mut graph = Discovery::new(budget);
    for rule in rules {
        let Ok((el, er, mut gen)) = denote_instance(&rule.generic()) else {
            continue;
        };
        let mut scratch = Trace::new();
        let nl = normalize(&el, &mut gen, &mut scratch);
        let nr = normalize(&er, &mut gen, &mut scratch);
        graph.add_root(format!("{}.lhs", rule.name), &nl.reify());
        graph.add_root(format!("{}.rhs", rule.name), &nr.reify());
    }
    let rule_of = |tag: &str| tag.rsplit_once('.').map(|(r, _)| r.to_owned());
    graph
        .discovered()
        .into_iter()
        .filter(|(a, b, _)| rule_of(a) != rule_of(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::prove::SaturateMode;

    #[test]
    fn verdict_memo_round_trips_and_is_option_bound() {
        let opts = ProveOptions::default();
        let mut s = ProveSession::new(opts);
        let el = UExpr::rel("R", uninomial::syntax::Term::Unit);
        let er = UExpr::rel("S", uninomial::syntax::Term::Unit);
        assert!(s.lookup(&el, &er, opts).is_none());
        s.record(&el, &er, opts, Ok((VerifyMethod::CqDecision, 1, vec![])));
        let hit = s.lookup(&el, &er, opts).expect("recorded");
        assert_eq!(hit.unwrap().1, 1);
        assert_eq!(s.verdict_hits(), 1);
        // A different mode or budget must bypass the memo: the recorded
        // verdict is only valid for the options it was computed under.
        let other = ProveOptions {
            saturate: SaturateMode::Only,
            ..opts
        };
        assert!(s.lookup(&el, &er, other).is_none());
        let mut tighter = opts;
        tighter.budget.max_iters = 1;
        assert!(s.lookup(&el, &er, tighter).is_none());
    }

    #[test]
    fn query_level_memo_round_trips_and_is_option_and_axiom_bound() {
        use crate::catalog;
        let opts = ProveOptions::default();
        let mut s = ProveSession::new(opts);
        let inst = catalog::sound_rules()[0].generic();
        assert!(inst.axioms.is_empty(), "test needs an axiom-free rule");
        assert!(s.lookup_query(&inst, opts).is_none());
        s.record_query(&inst, opts, Ok((VerifyMethod::Saturation, 7, vec![])));
        let hit = s.lookup_query(&inst, opts).expect("recorded");
        assert_eq!(hit.unwrap().1, 7);
        assert_eq!(s.verdict_hits(), 1);
        // Different options bypass.
        let other = ProveOptions {
            saturate: SaturateMode::Only,
            ..opts
        };
        assert!(s.lookup_query(&inst, other).is_none());
        // Axiomatized goals are never admitted.
        let axiomatized = catalog::sound_rules()
            .into_iter()
            .map(|r| r.generic())
            .find(|i| !i.axioms.is_empty());
        if let Some(inst) = axiomatized {
            s.record_query(&inst, opts, Ok((VerifyMethod::Saturation, 1, vec![])));
            assert!(s.lookup_query(&inst, opts).is_none());
        }
    }

    #[test]
    fn siblings_share_the_query_level_memo_only() {
        let opts = ProveOptions::default();
        let mut a = ProveSession::new(opts);
        let mut b = a.sibling();
        let inst = catalog::sound_rules()[0].generic();
        a.record_query(&inst, opts, Ok((VerifyMethod::Saturation, 7, vec![])));
        let hit = b.lookup_query(&inst, opts).expect("shared");
        assert_eq!(hit.unwrap().1, 7);
        assert_eq!((a.verdict_hits(), b.verdict_hits()), (0, 1));
        // The denotation-level memo is the session's own.
        let el = UExpr::rel("R", uninomial::syntax::Term::Unit);
        a.record(&el, &el, opts, Ok((VerifyMethod::CqDecision, 1, vec![])));
        assert!(b.lookup(&el, &el, opts).is_none());
    }

    #[test]
    fn discovery_runs_on_a_catalog_slice_and_is_deterministic() {
        let rules: Vec<Rule> = catalog::sound_rules().into_iter().take(6).collect();
        let opts = ProveOptions {
            saturate: SaturateMode::Only,
            ..ProveOptions::default()
        };
        let a = discover_catalog(&rules, opts);
        let b = discover_catalog(&rules, opts);
        assert_eq!(a, b, "discovery report must be deterministic");
        for (x, y, _) in &a {
            let rule = |t: &str| t.rsplit_once('.').unwrap().0.to_owned();
            assert_ne!(rule(x), rule(y), "only cross-rule equalities reported");
        }
    }
}
