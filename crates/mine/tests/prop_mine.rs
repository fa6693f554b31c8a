//! Property tests for the mining pipeline's two untrusted stages.
//!
//! - **Anti-unification soundness**: whenever `anti_unify` generalizes
//!   two discovered pairs into a schema, substituting the returned hole
//!   assignments back into the schema must recover the source pairs up
//!   to α-renaming — the schema is a *generalization*, never a guess.
//! - **Screening completeness**: the random-interpretation screen only
//!   rejects on a concrete countermodel, so a candidate the trusted
//!   prover stack can certify is never screened out. (Soundness of
//!   accepted rules is not screening's job — certification gates every
//!   rule behind a replayable certificate.)

use egraph::mined::{alpha_canonical, instantiate_schema};
use egraph::{Budget, Discovery};
use mine::antiunify::{anti_unify, ground_candidate, holes_of, Candidate, Generalization};
use mine::certify::certify;
use mine::screen::{screen, ScreenConfig};
use mine::MineConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relalg::{BaseType, Schema};
use std::collections::HashMap;
use uninomial::syntax::{Term, UExpr, VarGen};

/// Random *closed* expression generator: the mining corpus is closed
/// (holes come only from anti-unification), so the property inputs are
/// too. Sums are guarded by a relation atom over the binder, the same
/// discipline the corpus generator follows.
struct ExprGen {
    rng: StdRng,
    gen: VarGen,
}

impl ExprGen {
    fn new(seed: u64) -> ExprGen {
        ExprGen {
            rng: StdRng::seed_from_u64(seed),
            gen: VarGen::new(),
        }
    }

    fn expr(&mut self, depth: usize) -> UExpr {
        if depth == 0 {
            return self.atom();
        }
        match self.rng.gen_range(0..8) {
            0 => UExpr::add(self.expr(depth - 1), self.expr(depth - 1)),
            1 => UExpr::mul(self.expr(depth - 1), self.expr(depth - 1)),
            2 => UExpr::not(self.expr(depth - 1)),
            3 | 4 => UExpr::squash(self.expr(depth - 1)),
            5 => {
                let v = self.gen.fresh(Schema::leaf(BaseType::Int));
                let body = UExpr::mul(UExpr::rel("R", Term::var(&v)), self.expr(depth - 1));
                UExpr::sum(v, body)
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> UExpr {
        match self.rng.gen_range(0..4) {
            0 => UExpr::One,
            1 => UExpr::Zero,
            _ => UExpr::rel("X", Term::Unit),
        }
    }
}

/// Replaces every occurrence of the nullary atom `X` by `name` — the
/// cheap way to manufacture pairs that agree in shape but disagree in
/// closed subterms, which is exactly the situation anti-unification
/// abstracts into holes.
fn reatom(e: &UExpr, name: &str) -> UExpr {
    match e {
        UExpr::Rel(n, Term::Unit) if n == "X" => UExpr::rel(name, Term::Unit),
        UExpr::Add(a, b) => UExpr::add(reatom(a, name), reatom(b, name)),
        UExpr::Mul(a, b) => UExpr::mul(reatom(a, name), reatom(b, name)),
        UExpr::Not(x) => UExpr::not(reatom(x, name)),
        UExpr::Squash(x) => UExpr::squash(reatom(x, name)),
        UExpr::Sum(v, b) => UExpr::sum(v.clone(), reatom(b, name)),
        other => other.clone(),
    }
}

/// True α-canonicalization for closed expressions: hole substitution
/// can duplicate binder *ids* across sibling subtrees (each binding was
/// canonicalized independently), and `alpha_canonical` renames by id —
/// so refresh every binder to a globally distinct id first.
fn alpha(e: &UExpr) -> UExpr {
    let mut gen = VarGen::new();
    gen.reserve_above(e.max_var_id());
    alpha_canonical(&e.refresh_binders(&mut gen))
}

/// The soundness check: instantiating the schema with one of the
/// returned hole assignments recovers the corresponding source pair up
/// to α (anti_unify refreshes the second pair's binders and may swap
/// the orientation, so the comparison allows both pairings).
fn recovers(g: &Generalization, source: &(UExpr, UExpr), binds: &HashMap<String, UExpr>) -> bool {
    let l = alpha(&instantiate_schema(&g.candidate.lhs, binds));
    let r = alpha(&instantiate_schema(&g.candidate.rhs, binds));
    let (sl, sr) = (alpha(&source.0), alpha(&source.1));
    (l == sl && r == sr) || (l == sr && r == sl)
}

/// Structural invariants every emitted candidate must satisfy.
fn assert_well_formed(c: &Candidate) {
    assert!(c.lhs.free_vars().is_empty(), "open lhs: {}", c.lhs);
    assert!(c.rhs.free_vars().is_empty(), "open rhs: {}", c.rhs);
    let lh = holes_of(&c.lhs);
    for h in holes_of(&c.rhs) {
        assert!(
            lh.contains(&h),
            "rhs invents hole {h}: {} == {}",
            c.lhs,
            c.rhs
        );
    }
    assert_ne!(
        alpha_canonical(&c.lhs),
        alpha_canonical(&c.rhs),
        "trivial schema survived wellformedness"
    );
}

/// The discovered-pair worklist of the seeded mining corpus, exactly as
/// `mine::mine` builds it (tight explicit discovery budget).
fn discovered_pairs(cfg: &MineConfig) -> Vec<(UExpr, UExpr)> {
    let pool = mine::corpus::corpus(cfg.seed, cfg.atoms);
    let mut graph = Discovery::new(Budget::new(3, 3_000));
    for (i, e) in pool.iter().enumerate() {
        graph.add_root(format!("c{i}"), e);
    }
    graph.discovered_exprs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random shape-aligned pairs: anti-unification must either refuse
    // (capture / ill-formedness) or return a schema whose hole
    // assignments recover both sources.
    #[test]
    fn anti_unification_recovers_its_sources(seed in 0u64..1_000_000) {
        let mut eg = ExprGen::new(seed);
        let shape_l = eg.expr(3);
        let shape_r = eg.expr(2);
        let p1 = (reatom(&shape_l, "A"), reatom(&shape_r, "A"));
        let p2 = (reatom(&shape_l, "B"), reatom(&shape_r, "B"));
        if let Some(g) = anti_unify(&p1, &p2) {
            assert_well_formed(&g.candidate);
            prop_assert!(
                recovers(&g, &p1, &g.first),
                "first assignment fails to recover\n  schema {} == {}\n  source {} == {}",
                g.candidate.lhs, g.candidate.rhs, p1.0, p1.1
            );
            prop_assert!(
                recovers(&g, &p2, &g.second),
                "second assignment fails to recover\n  schema {} == {}\n  source {} == {}",
                g.candidate.lhs, g.candidate.rhs, p2.0, p2.1
            );
        }
        // Fully independent pairs exercise the refusal paths.
        let q2 = (eg.expr(2), eg.expr(2));
        if let Some(g) = anti_unify(&p1, &q2) {
            assert_well_formed(&g.candidate);
            prop_assert!(recovers(&g, &p1, &g.first));
            prop_assert!(recovers(&g, &q2, &g.second));
        }
    }
}

// On the real seeded corpus the property must hold for every cross-pair
// generalization the miner would enumerate — this is the non-vacuous
// counterpart of the fuzzed test above.
#[test]
fn corpus_generalizations_recover_their_sources() {
    let pairs = discovered_pairs(&MineConfig::default());
    assert!(!pairs.is_empty(), "discovery found nothing to generalize");
    let mut generalized = 0;
    for i in 0..pairs.len() {
        for j in (i + 1)..pairs.len() {
            let Some(g) = anti_unify(&pairs[i], &pairs[j]) else {
                continue;
            };
            generalized += 1;
            assert_well_formed(&g.candidate);
            assert!(
                recovers(&g, &pairs[i], &g.first),
                "schema {} == {} does not recover pair #{i}",
                g.candidate.lhs,
                g.candidate.rhs
            );
            assert!(
                recovers(&g, &pairs[j], &g.second),
                "schema {} == {} does not recover pair #{j}",
                g.candidate.lhs,
                g.candidate.rhs
            );
        }
    }
    assert!(generalized > 0, "no cross-pair generalization succeeded");
}

// Screening completeness: on the seeded corpus (two different corpus
// seeds), no candidate the prover stack certifies is ever rejected by
// the random-interpretation screen. The screen may *pass* an uncertifiable
// candidate (certification catches those); the reverse would lose
// sound rules, which is the failure this test pins down.
#[test]
fn screening_never_rejects_a_certifiable_candidate() {
    for corpus_seed in [MineConfig::default().seed, 7] {
        let cfg = MineConfig {
            seed: corpus_seed,
            ..MineConfig::default()
        };
        let pairs = discovered_pairs(&cfg);
        let pool = mine::corpus::corpus(cfg.seed, cfg.atoms);
        let screen_cfg = ScreenConfig {
            trials: cfg.trials,
            seed: cfg.seed ^ 0x5C4E,
        };
        let mut candidates: Vec<Candidate> = Vec::new();
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                if candidates.len() >= cfg.max_candidates {
                    break;
                }
                if let Some(g) = anti_unify(&pairs[i], &pairs[j]) {
                    candidates.push(g.candidate);
                }
            }
        }
        for pair in &pairs {
            if let Some(c) = ground_candidate(pair) {
                candidates.push(c);
            }
        }
        assert!(!candidates.is_empty(), "seed {corpus_seed}: no candidates");
        for cand in &candidates {
            if screen(cand, &pool, &screen_cfg).is_err() {
                assert!(
                    certify(&cand.lhs, &cand.rhs).is_none(),
                    "seed {corpus_seed}: screened out a certifiable rule {} == {}",
                    cand.lhs,
                    cand.rhs
                );
            }
        }
    }
}
