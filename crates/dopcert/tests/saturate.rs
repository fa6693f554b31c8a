//! End-to-end acceptance of the saturation tactic on the Fig. 8
//! catalog: every rule the normalization-based tactics prove must also
//! be proved by equality saturation *alone* (no bespoke tactic), within
//! the default budget, with a trace referencing only `Lemma` axioms.

use dopcert::api::{prove_rule, Workspace};
use dopcert::catalog;
use dopcert::prove::{ProveOptions, SaturateMode, VerifyMethod};
use dopcert::rule::Category;

fn saturate_only() -> ProveOptions {
    ProveOptions {
        saturate: SaturateMode::Only,
        ..ProveOptions::default()
    }
}

#[test]
fn every_tactic_proved_rule_is_proved_by_saturation_alone() {
    let mut ws = Workspace::with_options(saturate_only());
    for rule in catalog::sound_rules() {
        if rule.category == Category::ConjunctiveQuery {
            continue; // decided by the CQ procedure, not a tactic
        }
        let tactics = prove_rule(&rule);
        if !tactics.proved {
            continue; // nothing to mirror
        }
        let sat = ws.prove_rule(&rule);
        assert!(
            sat.proved,
            "{}: tactics prove it but saturation does not: {:?}",
            rule.name, sat.failure
        );
        assert_eq!(
            sat.method,
            Some(VerifyMethod::Saturation),
            "{}: expected the saturation method",
            rule.name
        );
        assert!(sat.steps >= 1, "{}: empty trace", rule.name);
    }
}

#[test]
fn saturation_fallback_is_reported_distinctly() {
    // In fallback mode a tactic-provable rule stays a tactic proof…
    let rules = catalog::sound_rules();
    let rule = rules
        .iter()
        .find(|r| r.name == "union-slct-distr")
        .expect("catalog rule");
    let report = prove_rule(rule);
    assert!(matches!(report.method, Some(VerifyMethod::Tactic(_))));
    // …while saturate-only reports the distinct method.
    let report = Workspace::with_options(saturate_only()).prove_rule(rule);
    assert_eq!(report.method, Some(VerifyMethod::Saturation));
    assert!(report.attempted.iter().any(|a| a.contains("saturation")));
}

#[test]
fn failure_diagnostics_list_attempts_and_budget() {
    // An unsound rule: every method fails; the report must say what was
    // tried and how saturation ended.
    let rules = catalog::unsound_rules();
    let rule = rules
        .iter()
        .find(|r| r.category != Category::ConjunctiveQuery && prove_rule(r).failure.is_some())
        .expect("an unsound non-CQ rule");
    let report = prove_rule(rule);
    assert!(!report.proved);
    let failure = report.failure.expect("failure diagnostics");
    assert!(failure.contains("tried ["), "{failure}");
    assert!(
        failure.contains("saturation"),
        "attempted methods must include saturation: {failure}"
    );
    assert!(
        failure.contains("saturated") || failure.contains("budget"),
        "saturation end state must be reported: {failure}"
    );
}
