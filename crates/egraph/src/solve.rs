//! The saturation scheduler: iterate match → apply → rebuild under an
//! iteration/node budget until the goal classes merge, the graph
//! saturates, or the budget runs out.

use crate::graph::EGraph;
use crate::lang::{BinderStack, ENode};
use crate::mined::MinedRule;
use crate::rewrite::{default_rewrites, OracleMemo, Rewrite, RewriteCtx};
use crate::unionfind::Id;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use uninomial::normalize::Trace;
use uninomial::syntax::VarGen;
use uninomial::{Interner, UExpr, UExprId};

/// Saturation budget. Defaults are sized so that every Fig. 8 catalog
/// rule closes comfortably while runaway searches stay bounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum saturation iterations (match/apply/rebuild rounds).
    pub max_iters: usize,
    /// Maximum distinct e-nodes before the search is cut off.
    pub max_nodes: usize,
    /// Maximum oracle invocations (deductive/equational side-condition
    /// checks) per iteration.
    pub oracle_calls_per_iter: usize,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_iters: 24,
            max_nodes: 10_000,
            oracle_calls_per_iter: 64,
        }
    }
}

impl Budget {
    /// A budget with explicit iteration and node caps.
    pub fn new(max_iters: usize, max_nodes: usize) -> Budget {
        Budget {
            max_iters,
            max_nodes,
            ..Budget::default()
        }
    }

    /// Replaces the per-iteration oracle-call cap (the third budget
    /// knob: side-condition checks are the expensive part of a round).
    pub fn with_oracle_calls(mut self, calls: usize) -> Budget {
        self.oracle_calls_per_iter = calls;
        self
    }
}

/// Why the saturation loop stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The goal classes merged: the equality is proved.
    Proved,
    /// A full iteration produced no new nodes or unions: the rewrite
    /// set is exhausted and the goal classes remain distinct.
    Saturated,
    /// The iteration budget ran out first.
    IterBudget,
    /// The node budget ran out first.
    NodeBudget,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Proved => write!(f, "proved"),
            Outcome::Saturated => write!(f, "saturated without merging"),
            Outcome::IterBudget => write!(f, "iteration budget exhausted"),
            Outcome::NodeBudget => write!(f, "node budget exhausted"),
        }
    }
}

/// Search statistics, reported alongside the outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Iterations run.
    pub iters: usize,
    /// Distinct e-nodes at stop time.
    pub nodes: usize,
    /// Unions performed (rewrites + congruence + theory collapses).
    pub unions: usize,
}

/// The equality-saturation solver: an e-graph plus the compiled default
/// rewrite set and a budget. Owned data only — `Send`, so the parallel
/// batch engine runs one solver per worker.
#[derive(Debug)]
pub struct Solver {
    budget: Budget,
    eg: EGraph,
    gen: VarGen,
    rewrites: Vec<Rewrite>,
    /// Certified mined rules applied after the built-in rewrites each
    /// iteration. Empty by default — an empty table leaves the search
    /// bit-identical to a solver without mined-rule support. `Arc` so a
    /// daemon's workers share one mined catalog without copying.
    mined: Arc<Vec<MinedRule>>,
    attempted: HashSet<(Rewrite, Id, Id)>,
    /// Per-(rule, class) application dedup for mined rules, cleared on
    /// progress exactly like `attempted`.
    mined_attempted: HashSet<(usize, Id)>,
    /// Oracle verdicts memoized across iterations (never cleared on
    /// progress — entries carry input fingerprints that decide their own
    /// validity; see [`OracleMemo`]).
    oracle_memo: OracleMemo,
    /// Hash-consing interner backing the memo's fingerprints.
    memo_interner: Interner,
}

impl Solver {
    /// A solver with the full lemma-compiled rewrite set.
    pub fn new(budget: Budget) -> Solver {
        Solver {
            budget,
            eg: EGraph::new(),
            gen: VarGen::new(),
            rewrites: default_rewrites(),
            mined: Arc::new(Vec::new()),
            attempted: HashSet::new(),
            mined_attempted: HashSet::new(),
            oracle_memo: OracleMemo::new(),
            memo_interner: Interner::new(),
        }
    }

    /// The underlying e-graph.
    pub fn egraph(&mut self) -> &mut EGraph {
        &mut self.eg
    }

    /// The solver's configured (per-run) budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Installs a mined-rule catalog: certified rule schemas applied
    /// after the built-in rewrites each iteration, attributed under
    /// `mined:`-prefixed profile labels. Passing an empty catalog
    /// restores the default behavior exactly.
    pub fn set_mined_rules(&mut self, rules: Arc<Vec<MinedRule>>) {
        self.mined = rules;
        self.mined_attempted.clear();
    }

    /// The installed mined-rule catalog (empty by default).
    pub fn mined_rules(&self) -> &Arc<Vec<MinedRule>> {
        &self.mined
    }

    /// Reserves fresh-variable ids above `id` so extraction-generated
    /// names never collide with names already in the seeds.
    pub fn reserve_names_above(&mut self, id: u32) {
        self.gen.reserve_above(id);
    }

    /// Seeds an interned expression (no boxed-tree re-hashing: the
    /// interner's id-DAG is walked directly). Returns the seed class.
    pub fn seed_interned(&mut self, interner: &Interner, id: UExprId) -> Id {
        let eg = &mut self.eg;
        let mut stack = BinderStack::new();
        crate::lang::seed_uexpr(interner, id, &mut stack, &mut |n| eg.add(n))
    }

    /// Convenience: interns a boxed expression and seeds it.
    pub fn seed_expr(&mut self, e: &UExpr) -> Id {
        self.gen.reserve_above(e.max_var_id());
        let mut interner = Interner::new();
        let id = interner.intern(e);
        self.seed_interned(&interner, id)
    }

    /// Runs the saturation loop until `l = r` is proved or the search
    /// gives out.
    pub fn run(&mut self, l: Id, r: Id) -> (Outcome, Stats) {
        self.run_with_budget(Some((l, r)), self.budget)
    }

    /// Runs the saturation loop with no goal: saturate the graph under
    /// the rewrite set until nothing changes or the budget runs out.
    /// Never returns [`Outcome::Proved`] — this is the optimizer's entry
    /// point, where the payoff is the enriched class structure that
    /// [`Solver::extract_best`] mines, not a merge of two seeds.
    pub fn saturate(&mut self) -> (Outcome, Stats) {
        self.run_with_budget(None, self.budget)
    }

    /// The saturation loop behind [`Solver::run`] and
    /// [`Solver::saturate`], continuing from the graph's current state.
    fn run_with_budget(&mut self, goal: Option<(Id, Id)>, budget: Budget) -> (Outcome, Stats) {
        let _run = telemetry::span("egraph.run");
        let mut stats = Stats::default();
        loop {
            {
                let _s = telemetry::span("egraph.rebuild");
                self.eg.rebuild();
            }
            stats.nodes = self.eg.node_count();
            stats.unions = self.eg.union_count();
            if let Some((l, r)) = goal {
                if self.eg.same(l, r) {
                    return (Outcome::Proved, stats);
                }
            }
            if stats.iters >= budget.max_iters {
                return (Outcome::IterBudget, stats);
            }
            if stats.nodes >= budget.max_nodes {
                return (Outcome::NodeBudget, stats);
            }
            stats.iters += 1;
            let nodes_before = self.eg.node_count();
            let unions_before = self.eg.union_count();
            let snapshot = self.eg.node_snapshot();
            let best = self.eg.extraction();
            let props = self.prop_classes(&snapshot);
            let rewrites = self.rewrites.clone();
            let mut ctx = RewriteCtx {
                gen: &mut self.gen,
                snapshot: &snapshot,
                best: &best,
                props: &props,
                attempted: &mut self.attempted,
                oracle_budget: budget.oracle_calls_per_iter,
                matches: 0,
                oracle_calls: 0,
                oracle_memo: &mut self.oracle_memo,
                memo_interner: &mut self.memo_interner,
            };
            let profiling = telemetry::profiling_enabled();
            {
                // Matching and applying are fused in this rewrite
                // representation: each `Rewrite::apply` scans the
                // snapshot for its pattern and installs the result.
                let _s = telemetry::span("egraph.match_apply");
                for rw in rewrites {
                    if profiling {
                        // Node/union counts are monotone, so the deltas
                        // around each pass — plus the rebuild delta below
                        // — telescope exactly to the flat
                        // `egraph.nodes_added`/`egraph.unions` counters.
                        let t0 = telemetry::clock::now_ns();
                        let n0 = self.eg.node_count();
                        let u0 = self.eg.union_count();
                        let m0 = ctx.matches;
                        let o0 = ctx.oracle_calls;
                        rw.apply(&mut self.eg, &mut ctx);
                        let label = rw.name();
                        telemetry::profile_observe(
                            label,
                            "apply_ns",
                            telemetry::clock::now_ns().saturating_sub(t0),
                        );
                        telemetry::profile_count(label, "matches", (ctx.matches - m0) as u64);
                        telemetry::profile_count(
                            label,
                            "nodes_added",
                            (self.eg.node_count() - n0) as u64,
                        );
                        telemetry::profile_count(
                            label,
                            "unions",
                            (self.eg.union_count() - u0) as u64,
                        );
                        telemetry::profile_count(
                            label,
                            "oracle_calls",
                            (ctx.oracle_calls - o0) as u64,
                        );
                    } else {
                        rw.apply(&mut self.eg, &mut ctx);
                    }
                    if self.eg.node_count() >= budget.max_nodes {
                        break;
                    }
                }
            }
            if !self.mined.is_empty() && self.eg.node_count() < budget.max_nodes {
                // Mined rules run after the built-ins, one pass each,
                // with their own per-class dedup. Attribution mirrors
                // the built-in block, under `mined:`-prefixed labels so
                // mined rows can never collide with catalog rule rows.
                let _s = telemetry::span("egraph.mined");
                let mined = Arc::clone(&self.mined);
                for (idx, rule) in mined.iter().enumerate() {
                    if profiling {
                        let t0 = telemetry::clock::now_ns();
                        let n0 = self.eg.node_count();
                        let u0 = self.eg.union_count();
                        let m0 = ctx.matches;
                        crate::mined::apply_rule(
                            &mut self.eg,
                            &mut ctx,
                            idx,
                            rule,
                            &mut self.mined_attempted,
                        );
                        let label = rule.label();
                        telemetry::profile_observe(
                            &label,
                            "apply_ns",
                            telemetry::clock::now_ns().saturating_sub(t0),
                        );
                        telemetry::profile_count(&label, "matches", (ctx.matches - m0) as u64);
                        telemetry::profile_count(
                            &label,
                            "nodes_added",
                            (self.eg.node_count() - n0) as u64,
                        );
                        telemetry::profile_count(
                            &label,
                            "unions",
                            (self.eg.union_count() - u0) as u64,
                        );
                    } else {
                        crate::mined::apply_rule(
                            &mut self.eg,
                            &mut ctx,
                            idx,
                            rule,
                            &mut self.mined_attempted,
                        );
                    }
                    if self.eg.node_count() >= budget.max_nodes {
                        break;
                    }
                }
            }
            let nodes_mid = self.eg.node_count();
            let unions_mid = self.eg.union_count();
            let rebuild_t0 = profiling.then(telemetry::clock::now_ns);
            {
                let _s = telemetry::span("egraph.rebuild");
                self.eg.rebuild();
            }
            if profiling {
                // Congruence restoration gets its own attribution row so
                // the per-label sums still telescope to the aggregates.
                // With deferred rebuilds, this is where the batched
                // repair work actually runs — charge its wall time here,
                // not to whichever rewrite happened to union last.
                if let Some(t0) = rebuild_t0 {
                    telemetry::profile_observe(
                        "congruence",
                        "apply_ns",
                        telemetry::clock::now_ns().saturating_sub(t0),
                    );
                }
                telemetry::profile_count(
                    "congruence",
                    "nodes_added",
                    (self.eg.node_count() - nodes_mid) as u64,
                );
                telemetry::profile_count(
                    "congruence",
                    "unions",
                    (self.eg.union_count() - unions_mid) as u64,
                );
            }
            telemetry::count("egraph.iters", 1);
            telemetry::count(
                "egraph.nodes_added",
                self.eg.node_count().saturating_sub(nodes_before) as u64,
            );
            telemetry::count(
                "egraph.unions",
                self.eg.union_count().saturating_sub(unions_before) as u64,
            );
            // Growth timeline: one counter sample per iteration, drawn
            // as value-over-time tracks by Perfetto (no-op unless both
            // tracing and profiling are on).
            telemetry::counter_event("egraph.classes", self.eg.class_count() as u64);
            telemetry::counter_event("egraph.nodes", self.eg.node_count() as u64);
            telemetry::counter_event("egraph.memo", self.eg.memo_size() as u64);
            if self.eg.union_count() != unions_before {
                // Progress can change a conditional rewrite's verdict
                // even for pairs whose canonical ids survived (a class
                // may have gained nodes/hypotheses), so failed attempts
                // become retryable. Dedup only matters within stalled
                // rounds, where the set persists and drives termination.
                self.attempted.clear();
                self.mined_attempted.clear();
            }
            if self.eg.node_count() == nodes_before && self.eg.union_count() == unions_before {
                stats.nodes = self.eg.node_count();
                stats.unions = self.eg.union_count();
                let outcome = match goal {
                    Some((l, r)) if self.eg.same(l, r) => Outcome::Proved,
                    _ => Outcome::Saturated,
                };
                return (outcome, stats);
            }
        }
    }

    /// Extracts the cheapest equivalent [`UExpr`] of a class under the
    /// given cost function, together with its table cost. `None` when
    /// the class has no finite-cost representative.
    pub fn extract_best<C: crate::extract::CostFunction>(
        &mut self,
        id: Id,
        cost: &C,
    ) -> Option<(C::Cost, UExpr)> {
        let _span = telemetry::span("egraph.extract");
        let best = self.eg.extraction_with(cost);
        let canon = self.eg.find(id);
        let key = if best.contains_key(&canon) { canon } else { id };
        let recorded = best.get(&key)?.0.clone();
        let Solver { eg, gen, .. } = self;
        let mut env = crate::lang::NameEnv::new(gen);
        let expr = eg.extract_uexpr(&best, id, &mut env)?;
        Some((recorded, expr))
    }

    /// Appends the lemma chain that merged `a` and `b` to `trace`.
    pub fn explain_into(&mut self, a: Id, b: Id, trace: &mut Trace) -> bool {
        self.eg.explain_into(a, b, trace)
    }

    /// Classes known to denote propositions (squash types): fixpoint of
    /// "node is a `Pred`/`Eq`/`Not`/`Squash`/`0`/`1`, or a `×` of
    /// propositional classes".
    fn prop_classes(&mut self, snapshot: &[(ENode, Id)]) -> HashSet<Id> {
        let mut props: HashSet<Id> = HashSet::new();
        loop {
            let mut changed = false;
            for (node, id) in snapshot {
                if props.contains(id) {
                    continue;
                }
                let is_prop = match node {
                    ENode::Zero
                    | ENode::One
                    | ENode::Pred(_, _)
                    | ENode::Eq(_, _)
                    | ENode::Not(_)
                    | ENode::Squash(_) => true,
                    ENode::Mul(kids) => kids.iter().all(|k| props.contains(k)),
                    _ => false,
                };
                if is_prop {
                    props.insert(*id);
                    changed = true;
                }
            }
            if !changed {
                return props;
            }
        }
    }
}
