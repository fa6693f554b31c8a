//! Ruler-style rule mining: grow the lemma catalog from discovered
//! equalities.
//!
//! The prover's catalog is fixed and hand-proved; multi-seed discovery
//! graphs already *discover* cross-seed equalities (`catalog
//! --discover`) but drop them. This crate closes the loop:
//!
//! ```text
//!   corpus ──seed──▶ Discovery ──saturate──▶ discovered pairs
//!      │                                        │
//!      │                              anti-unification (schemas)
//!      │                                        │
//!      └────random interps────▶ screening (refute cheaply)
//!                                               │
//!                              certification (tactics → saturation)
//!                                               │
//!                          MinedRule + replayable Certificate
//!                                               │
//!                         e-graph rewrite table (provenance `mined:`)
//! ```
//!
//! Generation is cheap and unsound; validation is expensive and
//! trusted — the same split as the CHC-expansion line of work. Every
//! accepted rule carries a Lemma-only proof trace, so saturation unions
//! performed by mined rules explain exactly like hand-written ones.
//!
//! The whole pipeline is a pure function of [`MineConfig`]: the corpus,
//! discovery worklist, candidate order, screening trials, and rule
//! names (`m000`, `m001`, …) are all deterministic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod antiunify;
pub mod certify;
pub mod corpus;
pub mod screen;

use antiunify::{anti_unify, canonical_key, ground_candidate, Candidate};
use certify::{certify, to_mined_rule, Certificate};
use egraph::{Budget, Discovery, MinedRule};
use screen::{screen, ScreenConfig};
use uninomial::syntax::UExpr;

pub use screen::Refutation;

/// Mining-run configuration. Everything downstream is a pure function
/// of this.
#[derive(Clone, Copy, Debug)]
pub struct MineConfig {
    /// Corpus seed.
    pub seed: u64,
    /// Number of base CQ denotations in the corpus.
    pub atoms: usize,
    /// Screening trials per candidate.
    pub trials: usize,
    /// Hard cap on candidates sent to certification.
    pub max_candidates: usize,
    /// Hard cap on accepted rules.
    pub max_rules: usize,
}

impl Default for MineConfig {
    fn default() -> Self {
        MineConfig {
            seed: 0xC0_FFEE,
            atoms: 4,
            trials: 8,
            max_candidates: 64,
            max_rules: 16,
        }
    }
}

/// One accepted rule, with its certificate and mining provenance.
#[derive(Clone, Debug)]
pub struct MinedReportEntry {
    /// Deterministic rule name (`m000`, `m001`, …).
    pub name: String,
    /// Rendered left side.
    pub lhs: String,
    /// Rendered right side.
    pub rhs: String,
    /// Number of metavariable holes (0 = ground rule).
    pub holes: usize,
    /// Proving engine (`tactics`, `tactics/syntactic`, or `saturate`).
    pub method: String,
    /// Certificate length in lemma steps.
    pub steps: usize,
    /// Conclusive screening trials the candidate survived.
    pub screen_trials: usize,
    /// Whether the certificate replayed byte-identically.
    pub replays: bool,
}

/// The outcome of one mining run.
#[derive(Clone, Debug, Default)]
pub struct MineReport {
    /// Closed corpus expressions seeded.
    pub corpus_size: usize,
    /// Equal pairs the saturated discovery graph found.
    pub discovered: usize,
    /// Wellformed candidate schemas after dedup.
    pub candidates: usize,
    /// Candidates refuted by the screening oracle.
    pub screened_out: usize,
    /// Screened candidates the prover stack could not certify.
    pub uncertified: usize,
    /// Accepted rules, in mining order.
    pub accepted: Vec<MinedReportEntry>,
    /// The compiled rewrite-table entries for the accepted rules.
    pub rules: Vec<MinedRule>,
}

/// Generates the candidate worklist from discovered pairs: every
/// cross-pair generalization plus every ground pair, deduped by
/// α-canonical schema, generalized candidates first.
fn candidates_of(pairs: &[(UExpr, UExpr)], cap: usize) -> Vec<(Candidate, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut out: Vec<(Candidate, usize)> = Vec::new();
    for i in 0..pairs.len() {
        for j in (i + 1)..pairs.len() {
            if out.len() >= cap {
                break;
            }
            if let Some(g) = anti_unify(&pairs[i], &pairs[j]) {
                if seen.insert(canonical_key(&g.candidate.lhs, &g.candidate.rhs)) {
                    let holes = g.candidate.holes.len();
                    out.push((g.candidate, holes));
                }
            }
        }
    }
    for pair in pairs {
        if out.len() >= cap {
            break;
        }
        if let Some(c) = ground_candidate(pair) {
            if seen.insert(canonical_key(&c.lhs, &c.rhs)) {
                out.push((c, 0));
            }
        }
    }
    out
}

/// Runs the full mining loop. See the crate docs for the pipeline.
pub fn mine(cfg: &MineConfig) -> MineReport {
    let _span = telemetry::span("mine.run");
    let mut report = MineReport::default();

    // 1. Corpus + discovery: seed everything into one graph, saturate
    //    it, and read back the merged-root worklist. The budget is
    //    deliberately tight: discovery only needs the shallow equalities
    //    a few iterations surface.
    let pool = corpus::corpus(cfg.seed, cfg.atoms);
    report.corpus_size = pool.len();
    telemetry::count("mine.corpus", pool.len() as u64);
    let mut graph = Discovery::new(Budget::new(3, 3_000));
    for (i, e) in pool.iter().enumerate() {
        graph.add_root(format!("c{i}"), e);
    }
    let pairs = graph.discovered_exprs();
    report.discovered = pairs.len();
    telemetry::count("mine.discovered", pairs.len() as u64);

    // 2. Anti-unification: ground + cross-pair candidates.
    let candidates = candidates_of(&pairs, cfg.max_candidates);
    report.candidates = candidates.len();
    telemetry::count("mine.candidates", candidates.len() as u64);

    // 3-4. Screen cheaply, certify survivors, compile accepted rules.
    // Holes are instantiated from the small end of the pool only:
    // evaluation cost is exponential in Σ-schema width, and a small
    // closed witness refutes exactly as well as a large one.
    let mut screen_pool: Vec<UExpr> = pool
        .iter()
        .filter(|e| antiunify::size(e) <= 12)
        .cloned()
        .collect();
    if screen_pool.is_empty() {
        screen_pool = pool.clone();
    }
    let screen_cfg = ScreenConfig {
        trials: cfg.trials,
        seed: cfg.seed ^ 0x5C4E,
    };
    for (cand, holes) in candidates {
        if report.rules.len() >= cfg.max_rules {
            break;
        }
        let conclusive = match screen(&cand, &screen_pool, &screen_cfg) {
            Ok(n) => n,
            Err(_refutation) => {
                report.screened_out += 1;
                telemetry::count("mine.screened_out", 1);
                continue;
            }
        };
        let Some(cert) = certify(&cand.lhs, &cand.rhs) else {
            report.uncertified += 1;
            telemetry::count("mine.uncertified", 1);
            continue;
        };
        let name = format!("m{:03}", report.rules.len());
        let replays = cert.replays(&cand.lhs, &cand.rhs);
        report.accepted.push(MinedReportEntry {
            name: name.clone(),
            lhs: format!("{}", cand.lhs),
            rhs: format!("{}", cand.rhs),
            holes,
            method: cert.method.clone(),
            steps: cert.steps.len(),
            screen_trials: conclusive,
            replays,
        });
        report
            .rules
            .push(to_mined_rule(&name, &cand.lhs, &cand.rhs, &cert));
        telemetry::count("mine.accepted", 1);
    }
    report
}

/// Convenience: certificate lookup for a compiled rule (used by smoke
/// tests and the CLI's replay check).
pub fn replay_rule(rule: &MinedRule) -> bool {
    certify(&rule.lhs, &rule.rhs).is_some_and(|c: Certificate| {
        // The compiled rule flattens (lemma, note) + steps; rebuild the
        // flat list and compare against a fresh certification.
        let mut flat = vec![(rule.lemma, rule.note.clone())];
        flat.extend(rule.steps.iter().cloned());
        let fresh = to_mined_rule(&rule.name, &rule.lhs, &rule.rhs, &c);
        let mut fresh_flat = vec![(fresh.lemma, fresh.note)];
        fresh_flat.extend(fresh.steps);
        flat == fresh_flat
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mining_certifies_at_least_three_rules_with_replaying_certificates() {
        let report = mine(&MineConfig::default());
        assert!(
            report.accepted.len() >= 3,
            "expected ≥3 certified rules, got {} (discovered {}, candidates {}, screened out {}, uncertified {})",
            report.accepted.len(),
            report.discovered,
            report.candidates,
            report.screened_out,
            report.uncertified,
        );
        for entry in &report.accepted {
            assert!(entry.replays, "certificate for {} must replay", entry.name);
        }
        for rule in &report.rules {
            assert!(rule.label().starts_with("mined:"));
            assert!(replay_rule(rule), "compiled rule {} must replay", rule.name);
        }
    }

    #[test]
    fn mining_is_deterministic() {
        let a = mine(&MineConfig::default());
        let b = mine(&MineConfig::default());
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.accepted.len(), b.accepted.len());
    }
}
