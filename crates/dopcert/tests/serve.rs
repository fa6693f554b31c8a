//! End-to-end acceptance of `dopcert serve`: concurrent clients over
//! real TCP, answers bit-identical to a fresh single-shot run of the
//! same request, per-request error handling, per-tenant budget
//! admission, a nonzero memo hit-rate on repetition-heavy traffic, and
//! cheap requests answered while a slow one holds a worker.

use dopcert::api::{execute, Request, RequestOptions};
use dopcert::serve::{request_once, ServeConfig, Server};
use dopcert::wire::{decode_response, encode_request, Json};
use egraph::session::BatchBudget;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A repetition-heavy script stream: the same few goals posed over and
/// over — the traffic shape a resident daemon amortizes.
fn scripts() -> Vec<String> {
    let goals = [
        "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);",
        "table R(int, int);\nverify DISTINCT SELECT Right.Left FROM R \
         == DISTINCT SELECT Right.Left.Left FROM R, R \
         WHERE Right.Left.Left = Right.Right.Left;",
        "table S(int);\nrefute S == (S UNION ALL S);",
    ];
    (0..4)
        .flat_map(|_| goals.iter().map(|g| (*g).to_owned()))
        .collect()
}

/// The single-shot CLI baseline: the request alone on fresh state.
fn baseline(script: &str) -> Vec<String> {
    execute(&Request::Prove {
        script: script.to_owned(),
        opts: RequestOptions::default(),
    })
    .render()
}

#[test]
fn concurrent_clients_get_answers_bit_identical_to_the_fresh_cli() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    // Two clients, each with its own connection, interleaving the same
    // repetition-heavy stream — every answer must equal the fresh
    // single-shot baseline byte for byte, whichever worker answered and
    // however warm its memos were.
    let handles: Vec<_> = (0..2)
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                for (i, script) in scripts().iter().enumerate() {
                    let req = Request::Prove {
                        script: script.clone(),
                        opts: RequestOptions::default(),
                    };
                    let id = Json::Num((client * 100 + i) as f64);
                    let line = encode_request(&id, "default", &req);
                    writer
                        .write_all(format!("{line}\n").as_bytes())
                        .expect("write");
                    let mut reply = String::new();
                    reader.read_line(&mut reply).expect("read");
                    let reply = decode_response(reply.trim()).expect("decode");
                    assert_eq!(reply.id, id, "responses arrive in request order");
                    assert_eq!(
                        reply.lines,
                        baseline(script),
                        "daemon answers must be bit-identical to the fresh CLI"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client");
    }

    // 24 prove requests over 3 distinct scripts: almost all goals must
    // have been answered from the resident memos.
    let stats = server.stats();
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.ok, 24);
    assert!(
        stats.memo_hits > 0,
        "repetition-heavy traffic must hit the memo: {stats:?}"
    );
    assert!(stats.goals >= 24);
    server.shutdown();
    server.wait();
}

#[test]
fn malformed_and_over_budget_requests_fail_without_poisoning_the_connection() {
    let config = ServeConfig {
        tenant_budget: BatchBudget {
            max_total_iters: 72,
            per_goal_iters: 24,
        },
        ..ServeConfig::default()
    };
    let server = Server::start(config).expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        decode_response(reply.trim()).expect("decode")
    };

    // Malformed JSON, a bad cmd, and a zero budget: each answers with
    // a typed error on the same connection.
    let reply = roundtrip("{{{");
    assert!(!reply.ok);
    assert!(reply.error.expect("error").starts_with("bad request:"));
    let reply = roundtrip(r#"{"cmd":"levitate"}"#);
    assert!(!reply.ok);
    let reply = roundtrip(r#"{"cmd":"prove","script":"x","budget":{"iters":0}}"#);
    assert!(!reply.ok);
    assert!(reply.error.expect("error").contains("must be positive"));

    // An oversized request trips the per-goal cap; a tenant that spent
    // its allowance is exhausted; a fresh tenant still gets through.
    let script = "table R(int);\nverify R == R;".to_owned();
    let reply = roundtrip(
        r#"{"cmd":"prove","script":"table R(int);\nverify R == R;","budget":{"iters":999}}"#,
    );
    assert!(!reply.ok);
    assert!(reply.error.expect("error").contains("per-request cap"));
    for _ in 0..3 {
        let reply = roundtrip(&encode_request(
            &Json::Null,
            "hot",
            &Request::Prove {
                script: script.clone(),
                opts: RequestOptions::default(),
            },
        ));
        assert!(reply.ok, "{reply:?}");
    }
    let reply = roundtrip(&encode_request(
        &Json::Null,
        "hot",
        &Request::Prove {
            script: script.clone(),
            opts: RequestOptions::default(),
        },
    ));
    assert!(!reply.ok);
    assert!(reply.error.expect("error").contains("exhausted"));
    let reply = roundtrip(&encode_request(
        &Json::Null,
        "cold",
        &Request::Prove {
            script,
            opts: RequestOptions::default(),
        },
    ));
    assert!(reply.ok, "one tenant's exhaustion must not starve another");

    let stats = server.stats();
    assert_eq!(stats.budget_rejections, 2);
    assert_eq!(stats.errors, 3, "the three malformed lines");
    server.shutdown();
    server.wait();
}

#[test]
fn a_shutdown_request_stops_the_server() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let reply =
        request_once(&addr, &Json::Num(9.0), "default", &Request::Shutdown).expect("request");
    assert!(reply.ok);
    assert_eq!(reply.kind, "shutdown");
    assert_eq!(reply.id, Json::Num(9.0));
    // wait() returns because the shutdown request stopped the listener
    // and drained the workers; a fresh connection must now fail.
    server.wait();
    assert!(TcpStream::connect(&addr).is_err(), "listener must be gone");
}

#[test]
fn non_default_option_requests_run_fresh_and_still_match_the_baseline() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut opts = RequestOptions::default();
    opts.budget.set("iters", 12).unwrap();
    let req = Request::Prove {
        script: "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);".into(),
        opts,
    };
    let reply = request_once(&addr, &Json::Null, "default", &req).expect("request");
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.lines, execute(&req).render());
    assert_eq!(server.stats().memo_hits, 0, "fresh path bypasses the memo");

    // An optimize request through the same daemon.
    let opt = Request::Optimize {
        script: "table R(int, int);\nrows R 1000000;\n\
                 verify DISTINCT SELECT Right.Left FROM R \
                 == DISTINCT SELECT Right.Left.Left FROM R, R \
                 WHERE Right.Left.Left = Right.Right.Left;"
            .into(),
        opts: RequestOptions::default(),
    };
    let reply = request_once(&addr, &Json::Null, "default", &opt).expect("request");
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.lines, execute(&opt).render());
    server.shutdown();
    server.wait();
}

#[test]
fn hostile_nesting_and_retired_options_leave_the_daemon_answering() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply
    };

    // A 200 KB line of `[` must cost one bad-request error, not the
    // daemon: unbounded parser recursion would overflow the connection
    // thread's stack and abort the whole process.
    let reply = decode_response(roundtrip(&"[".repeat(200_000)).trim()).expect("decode");
    assert!(!reply.ok);
    assert!(reply.error.expect("error").contains("nesting deeper than"));
    let reply = decode_response(roundtrip(r#"{"cmd":"stats"}"#).trim()).expect("decode");
    assert!(reply.ok, "same connection still answers: {reply:?}");
    let reply = request_once(&addr, &Json::Null, "default", &Request::Stats).expect("request");
    assert!(reply.ok, "new connections are still accepted: {reply:?}");

    // A 2 MiB line must cost one bad-request error, not 2 MiB of
    // buffer: the daemon answers once the line outgrows its cap, skips
    // the rest, and serves the next line on the same connection.
    let reply = decode_response(roundtrip(&"x".repeat(2 << 20)).trim()).expect("decode");
    assert!(!reply.ok);
    assert!(reply.error.expect("error").contains("line longer than"));
    let reply = decode_response(roundtrip(r#"{"cmd":"stats"}"#).trim()).expect("decode");
    assert!(reply.ok, "same connection still answers: {reply:?}");
    assert!(
        reply
            .lines
            .iter()
            .any(|l| l.starts_with("requests: 5 (2 ok, 2 error")),
        "the long line counts as one request and one error: {:?}",
        reply.lines
    );

    // A 2 KB script nesting 1 000 parentheses must cost one parse
    // error, not the daemon: parsed unchecked, it overflowed a thread's
    // stack and aborted the whole process.
    let nested = Request::Prove {
        script: format!(
            "table R(int);\nverify {}R{} == R;",
            "(".repeat(1_000),
            ")".repeat(1_000)
        ),
        opts: RequestOptions::default(),
    };
    let reply = roundtrip(&encode_request(&Json::Null, "default", &nested));
    let reply = decode_response(reply.trim()).expect("decode");
    assert!(!reply.ok);
    let error = reply.error.expect("error");
    assert!(error.contains("nesting deeper than 256 levels"), "{error}");
    let reply = decode_response(roundtrip(r#"{"cmd":"stats"}"#).trim()).expect("decode");
    assert!(reply.ok, "same connection still answers: {reply:?}");

    // A 1 MB tenant name must cost one bad-request error, not a 1 MB
    // ledger entry: the daemon keeps an account per tenant name.
    let small = Request::Prove {
        script: "table R(int);\nverify R == R;".into(),
        opts: RequestOptions::default(),
    };
    let long_tenant = "t".repeat(1_000_000);
    let reply = roundtrip(&encode_request(&Json::Null, &long_tenant, &small));
    let reply = decode_response(reply.trim()).expect("decode");
    assert!(!reply.ok);
    let error = reply.error.expect("error");
    assert!(
        error.contains("tenant name longer than 64 bytes"),
        "{error}"
    );
    let reply = decode_response(roundtrip(r#"{"cmd":"stats"}"#).trim()).expect("decode");
    assert!(reply.ok, "same connection still answers: {reply:?}");
    assert!(
        reply
            .lines
            .iter()
            .any(|l| l.starts_with("requests: 9 (4 ok, 4 error")),
        "the long tenant name counts as one request and one error: {:?}",
        reply.lines
    );

    // Old clients may still send the retired `shared-cache` and
    // `session` fields: the daemon answers byte for byte as if they
    // were absent.
    let base = r#"{"cmd":"prove","id":4,"script":"table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);""#;
    let plain = roundtrip(&format!("{base}}}"));
    assert!(decode_response(plain.trim()).expect("decode").ok, "{plain}");
    for field in ["shared-cache", "session"] {
        for flag in ["true", "false"] {
            let with = roundtrip(&format!(r#"{base},"{field}":{flag}}}"#));
            assert_eq!(with, plain, "{field}: {flag}");
        }
    }
    server.shutdown();
    server.wait();
}

/// The value of gauge `name` in a `metrics` exposition.
fn gauge(server: &Server, name: &str) -> u64 {
    let text = server.metrics_text();
    let prefix = format!("dopcert_serve_{name} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} gauge in:\n{text}"))
}

#[test]
fn a_cheap_request_is_not_queued_behind_a_slow_one() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let cheap: Vec<String> = (0..8)
        .map(|k| {
            format!("table T{k}(int);\nverify (T{k} UNION ALL T{k}) == (T{k} UNION ALL T{k});")
        })
        .collect();
    let expected: Vec<Vec<String>> = cheap.iter().map(|s| baseline(s)).collect();

    // Client A: optimize a 20-deep `SELECT * FROM (…)` chain, which holds
    // one worker for 0.5–0.9 s, over 100 times as long as all of client
    // B's checks together.
    let chain = (0..20).fold("R".to_owned(), |q, _| format!("SELECT * FROM ({q})"));
    let slow = Request::Optimize {
        script: format!("table R(int);\nverify {chain} == R;"),
        opts: RequestOptions::default(),
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let client_a = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let reply = request_once(&addr, &Json::Null, "default", &slow).expect("request");
            done_tx.send(()).expect("test thread waits");
            reply
        })
    };
    let started = std::time::Instant::now();
    while gauge(&server, "in_flight") == 0 {
        assert!(
            started.elapsed().as_secs() < 60,
            "the slow request never started"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Client B: 8 distinct one-goal checks while A's request runs. Each
    // is answered by the idle worker, before A's reply.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for (k, script) in cheap.iter().enumerate() {
        let line = encode_request(
            &Json::Num(k as f64),
            "default",
            &Request::Prove {
                script: script.clone(),
                opts: RequestOptions::default(),
            },
        );
        // One write per request: a second small write would wait out
        // the daemon's delayed acknowledgement of the first.
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        let reply = decode_response(reply.trim()).expect("decode");
        assert_eq!(reply.lines, expected[k]);
        assert!(
            done_rx.try_recv().is_err(),
            "check {k} was answered after the slow request"
        );
    }
    assert_eq!(
        (gauge(&server, "in_flight"), gauge(&server, "queued")),
        (1, 0)
    );

    let reply = client_a.join().expect("client A");
    assert!(reply.ok, "{reply:?}");
    assert_eq!(
        (gauge(&server, "in_flight"), gauge(&server, "queued")),
        (0, 0)
    );
    server.shutdown();
    server.wait();
}
