//! Engine integration of the certified optimizer: the parallel batch
//! path must agree report-for-report with the sequential
//! `optimizer::optimize`, in input order, and uphold the
//! cost/certificate gates, including on the worker that replays each
//! plan's certificate.

use dopcert::api::{execute, PlanReport, Request, RequestOptions, Response, Workspace};
use dopcert::engine::Engine;
use hottsql::ast::Query;
use optimizer::{optimize, OptimizeOptions, PlanCtx};
use relalg::stats::Statistics;
use uninomial::lemmas::Lemma;

const SMOKE: &str = include_str!("../../../scripts/optimize_smoke.dop");

const SCRIPT: &str = "\
table R(int, int);
table S(int, int);

verify DISTINCT SELECT Right.Left.Left FROM R, R
       WHERE Right.Left.Left = Right.Right.Left
    == DISTINCT SELECT Right.Left FROM R;

verify SELECT Right FROM S == S;
";

fn queries() -> (hottsql::env::QueryEnv, Vec<Query>) {
    let script = dopcert::script::parse_script(SCRIPT).unwrap();
    let mut queries = Vec::new();
    for goal in &script.goals {
        queries.push(goal.lhs.clone());
        queries.push(goal.rhs.clone());
    }
    (script.env, queries)
}

#[test]
fn batch_reports_match_sequential_and_keep_order() {
    let (env, queries) = queries();
    let stats = Statistics::new();
    let batch = Engine::with_threads(3).optimize_batch(&env, &stats, &queries);
    assert_eq!(batch.len(), queries.len());
    for (q, report) in queries.iter().zip(&batch) {
        let report = report.as_ref().expect("optimizes");
        assert_eq!(&report.input, q, "reports must stay in input order");
        let sequential = optimize(
            q,
            &env,
            &stats,
            OptimizeOptions::default(),
            PlanCtx::default(),
        )
        .expect("optimizes");
        assert_eq!(report.output, sequential.output, "{q}");
        assert_eq!(report.route, sequential.route, "{q}");
        assert_eq!(report.cost_before, sequential.cost_before, "{q}");
        assert_eq!(report.cost_after, sequential.cost_after, "{q}");
        assert_eq!(
            report.certificate.trace.steps(),
            sequential.certificate.trace.steps(),
            "{q}: certificates must be bit-identical across the cache"
        );
    }
}

#[test]
fn batch_upholds_the_cost_and_certificate_gates() {
    let (env, queries) = queries();
    let stats = Statistics::new();
    let opts = OptimizeOptions::default();
    let reports = Engine::new().optimize_batch(&env, &stats, &queries);
    let mut improved = 0;
    for report in reports {
        let r = report.expect("optimizes");
        assert!(r.cost_after <= r.cost_before, "{}: costlier plan", r.input);
        assert!(
            r.certificate.replay(&r.input, &r.output, &env, opts.budget),
            "{}: certificate does not replay",
            r.input
        );
        if r.improved {
            improved += 1;
        }
    }
    // The redundant self-join and the SELECT * must both improve.
    assert!(improved >= 2, "expected at least two improved plans");
}

#[test]
fn one_and_two_workers_and_a_resident_workspace_render_identical_plans() {
    let request = |jobs| Request::Optimize {
        script: SMOKE.into(),
        opts: RequestOptions {
            jobs,
            ..RequestOptions::default()
        },
    };
    let one = execute(&request(Some(1))).render();
    let two = execute(&request(Some(2))).render();
    let resident = Workspace::new(RequestOptions::default())
        .execute(&request(None))
        .render();
    assert!(one.len() > 1, "{one:?}");
    assert!(one.iter().all(|l| l.starts_with("[ok] ")), "{one:?}");
    assert_eq!(one, two);
    assert_eq!(one, resident);
}

#[test]
fn a_certificate_that_does_not_replay_fails_its_plan() {
    let (env, queries) = queries();
    let budget = OptimizeOptions::default().budget;
    let mut reports = Engine::with_threads(1).optimize_batch(&env, &Statistics::new(), &queries);
    let report = reports.swap_remove(0);
    let honest = PlanReport::new(&queries[0], report.clone(), &env, budget);
    assert!(honest.sound, "{honest:?}");
    let mut forged = report.expect("optimizes");
    forged
        .certificate
        .trace
        .step(Lemma::MulAcu, "a step the checker never derives");
    let report = PlanReport::new(&queries[0], Ok(forged), &env, budget);
    assert!(!report.sound, "{report:?}");
    assert_eq!(report.steps, honest.steps + 1);
    let lines = Response::Plans(vec![report]).render();
    assert!(lines[0].starts_with("[FAIL] "), "{lines:?}");
}
