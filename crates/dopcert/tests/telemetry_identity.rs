//! The bit-identity gate for telemetry: turning collection on (metrics
//! and full tracing) must not change a single byte of any verdict,
//! report, or rendered response. Spans and counters observe the hot
//! paths; they must never steer them.
//!
//! This test binary owns its process (integration tests compile
//! separately), so it can flip the process-wide telemetry state freely
//! without racing other tests.

use dopcert::api::{execute, Request, RequestOptions, Response, Workspace};
use dopcert::engine::Engine;
use dopcert::wire::{decode_response, encode_response, Json};
use dopcert::{catalog, RuleReport};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Tests in one binary run on parallel threads; the telemetry state is
/// process-wide, so each test holds this for its whole body.
fn exclusive() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

const SCRIPT: &str = "table R(int);\n\
    table S(int);\n\
    verify (R UNION ALL S) == (S UNION ALL R);\n\
    verify DISTINCT (R UNION ALL R) == DISTINCT R;\n\
    refute R == S;\n";

fn render_all(reqs: &[Request]) -> Vec<Vec<String>> {
    reqs.iter().map(|r| execute(r).render()).collect()
}

fn requests() -> Vec<Request> {
    vec![
        Request::Prove {
            script: SCRIPT.into(),
            opts: RequestOptions::default(),
        },
        Request::Optimize {
            script: SCRIPT.into(),
            opts: RequestOptions::default(),
        },
        Request::Catalog {
            discover: false,
            opts: RequestOptions::default(),
        },
    ]
}

fn rule_key(r: &RuleReport) -> (String, bool, String, usize) {
    (
        r.name.to_owned(),
        r.proved,
        r.method.map(|m| m.to_string()).unwrap_or_default(),
        r.steps,
    )
}

#[test]
fn responses_are_bit_identical_with_telemetry_on_and_off() {
    let _guard = exclusive();
    telemetry::disable();
    telemetry::reset();
    let off = render_all(&requests());

    telemetry::enable();
    let metrics_on = render_all(&requests());

    telemetry::enable_tracing();
    let tracing_on = render_all(&requests());

    assert_eq!(off, metrics_on, "metrics collection changed a response");
    assert_eq!(off, tracing_on, "tracing changed a response");

    // The instrumentation actually fired: the enabled runs recorded
    // phase spans, normalization among them.
    let snap = telemetry::snapshot();
    assert!(snap.hist("egraph.run").is_some(), "no egraph.run span");
    assert!(
        snap.hist("uninomial.normalize").is_some(),
        "no uninomial.normalize span"
    );
    let events = telemetry::take_trace();
    assert!(!events.is_empty(), "tracing recorded no events");

    telemetry::disable();
    telemetry::reset();
}

#[test]
fn responses_are_bit_identical_with_profiling_on_and_off() {
    let _guard = exclusive();
    telemetry::disable();
    telemetry::reset();
    let off = render_all(&requests());

    telemetry::enable();
    telemetry::enable_profiling();
    let profiling_on = render_all(&requests());
    assert_eq!(off, profiling_on, "profiling changed a response");

    // Attribution actually fired: the catalog request saturates, so
    // per-rule rows exist.
    let profile = telemetry::profile_snapshot();
    assert!(!profile.is_empty(), "profiling recorded no attribution");

    telemetry::disable();
    telemetry::reset();
}

/// The headline acceptance check of the attribution table: every
/// nodes-added / union / oracle-call counted into a per-rule row (plus
/// the `congruence` rebuild row) telescopes exactly to the flat
/// aggregate counters recorded over the same runs. No double counting,
/// nothing dropped.
#[test]
fn per_rule_attribution_sums_to_the_aggregate_counters() {
    let _guard = exclusive();
    telemetry::disable();
    telemetry::reset();
    telemetry::enable();
    telemetry::enable_profiling();

    // The full catalog with saturation fallback — the same run shape
    // `dopcert prove --profile` prints the table for.
    let resp = execute(&Request::Catalog {
        discover: false,
        opts: RequestOptions::default(),
    });
    assert!(resp.ok(), "catalog must pass");

    let profile = telemetry::profile_snapshot();
    let snap = telemetry::snapshot();
    assert!(!profile.is_empty(), "catalog saturation left no rows");
    assert_eq!(
        profile.total("nodes_added"),
        snap.counter("egraph.nodes_added"),
        "per-rule nodes-added must telescope to the aggregate"
    );
    assert_eq!(
        profile.total("unions"),
        snap.counter("egraph.unions"),
        "per-rule unions must telescope to the aggregate"
    );
    assert_eq!(
        profile.total("oracle_calls"),
        snap.counter("egraph.oracle_calls"),
        "per-rule oracle calls must telescope to the aggregate"
    );

    telemetry::disable();
    telemetry::reset();
}

#[test]
fn engine_reports_are_bit_identical_with_telemetry_on_and_off() {
    let _guard = exclusive();
    let rules = catalog::sound_rules();
    telemetry::disable();
    let off: Vec<_> = Engine::with_threads(4)
        .prove_catalog(&rules)
        .iter()
        .map(rule_key)
        .collect();
    telemetry::enable();
    let on: Vec<_> = Engine::with_threads(4)
        .prove_catalog(&rules)
        .iter()
        .map(rule_key)
        .collect();
    assert_eq!(off, on, "telemetry changed an engine verdict");
    telemetry::disable();
    telemetry::reset();
}

#[test]
fn workspace_sessions_are_bit_identical_with_telemetry_on_and_off() {
    let _guard = exclusive();
    let req = Request::Prove {
        script: SCRIPT.into(),
        opts: RequestOptions::default(),
    };
    telemetry::disable();
    let mut ws = Workspace::new(RequestOptions::default());
    // Second execution answers from the verdict memo — both the fresh
    // and the memoized path must be identity-preserving.
    let off = [ws.execute(&req).render(), ws.execute(&req).render()];
    telemetry::enable_tracing();
    let mut ws = Workspace::new(RequestOptions::default());
    let on = [ws.execute(&req).render(), ws.execute(&req).render()];
    assert_eq!(off, on);
    telemetry::disable();
    telemetry::reset();
}

/// A deterministic pseudo-random profile: a handful of labels, counter
/// bumps, and timing observations derived from `seed`.
fn arbitrary_profile(seed: u64) -> telemetry::Profile {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let labels = ["Distrib", "SumAdd", "PropExt", "congruence", "session"];
    let counters = ["matches", "unions", "nodes_added", "oracle_calls"];
    let mut p = telemetry::Profile::new();
    for _ in 0..=(next() % 4) {
        let label = labels[(next() % labels.len() as u64) as usize];
        for _ in 0..(next() % 4) {
            let metric = counters[(next() % counters.len() as u64) as usize];
            p.incr(label, metric, next() % 1000);
        }
        for _ in 0..(next() % 3) {
            p.observe(label, "apply_ns", next() % 1_000_000);
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn profile_merge_never_loses_an_observation(
        a_seed in 0u64..1_000_000,
        b_seed in 0u64..1_000_000,
    ) {
        let a = arbitrary_profile(a_seed);
        let b = arbitrary_profile(b_seed);
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(
            merged.observations(),
            a.observations() + b.observations(),
            "merge dropped or invented observations"
        );
        for metric in ["matches", "unions", "nodes_added", "oracle_calls"] {
            prop_assert_eq!(
                merged.total(metric),
                a.total(metric) + b.total(metric),
                "merge changed the {} total", metric
            );
        }
    }

    #[test]
    fn profiles_round_trip_through_the_wire(seed in 0u64..1_000_000) {
        // Labels, counters, and histogram shapes all survive the
        // `profile` request's JSON encoding losslessly.
        let profile = arbitrary_profile(seed);
        let line = encode_response(&Json::Null, &Response::Profile(profile.clone()));
        let reply = decode_response(&line).unwrap();
        prop_assert_eq!(reply.kind.as_str(), "profile");
        prop_assert_eq!(reply.profile, Some(profile));
    }
}
