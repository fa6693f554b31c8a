//! The acceptance gate for the batch engine: parallel catalog proving
//! must be observationally identical to the sequential loop, across the
//! full catalog (sound rules, extension rules, unsound rules, and the
//! conjunctive-query instances that take the decision-procedure path).

use dopcert::api::prove_rule;
use dopcert::engine::Engine;
use dopcert::{catalog, RuleReport};

fn key(r: &RuleReport) -> (String, bool, String, usize) {
    (
        r.name.to_owned(),
        r.proved,
        r.method.map(|m| m.to_string()).unwrap_or_default(),
        r.steps,
    )
}

#[test]
fn parallel_prove_catalog_equals_sequential_on_full_catalog() {
    let rules = catalog::all_rules();
    let sequential: Vec<_> = rules.iter().map(prove_rule).map(|r| key(&r)).collect();
    for threads in [2, 4, 8] {
        let engine = Engine::with_threads(threads);
        let parallel: Vec<_> = engine.prove_catalog(&rules).iter().map(key).collect();
        assert_eq!(
            parallel, sequential,
            "{threads}-thread engine diverged from the sequential path"
        );
    }
}

#[test]
fn parallel_prove_catalog_is_deterministic_across_runs() {
    let rules = catalog::sound_rules();
    let engine = Engine::with_threads(4);
    let first: Vec<_> = engine.prove_catalog(&rules).iter().map(key).collect();
    let second: Vec<_> = engine.prove_catalog(&rules).iter().map(key).collect();
    assert_eq!(first, second);
}

#[test]
fn parallel_check_catalog_accepts_sound_and_rejects_unsound() {
    let engine = Engine::new();
    let results = engine.check_catalog(&catalog::all_rules());
    let failures: Vec<&str> = results
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        failures.is_empty(),
        "catalog check failed for: {failures:?}"
    );
    // Order must be catalog order.
    let names: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = catalog::all_rules().iter().map(|r| r.name).collect();
    assert_eq!(names, expected);
}

#[test]
fn engine_difftest_matches_direct_difftest_verdicts() {
    let rules = catalog::unsound_rules();
    let engine = Engine::with_threads(4);
    let outcomes = engine.difftest_catalog(&rules, 200, 0x5EED);
    for (rule, (name, outcome)) in rules.iter().zip(&outcomes) {
        assert_eq!(rule.name, name);
        assert!(
            matches!(outcome, dopcert::difftest::DiffOutcome::Refuted(_)),
            "unsound rule {name} not refuted by the engine path: {outcome:?}"
        );
    }
    // Sound rules agree on every trial, through the engine and directly.
    let rules = catalog::sound_rules();
    let outcomes = engine.difftest_catalog(&rules, 8, 0xDA7A);
    for (rule, (name, outcome)) in rules.iter().zip(&outcomes) {
        assert_eq!(rule.name, name);
        assert!(outcome.agreed(), "sound rule {name} refuted: {outcome:?}");
        assert!(dopcert::difftest::differential_test(rule, 8, 0xDA7A).agreed());
    }
}
