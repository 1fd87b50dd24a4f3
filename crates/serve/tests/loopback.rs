//! In-process loopback tests: a real server on an ephemeral port, real
//! TCP clients, the full dispatch → queue → worker → cache path.

mod common;

use std::io::{BufRead, Write};
use std::sync::Barrier;
use std::time::Duration;

use m3d_core::ErrorCode;
use m3d_serve::protocol::{Request, Response, MAX_LINE_BYTES};
use m3d_serve::{serve, Handle, ServerConfig};
use serde::Value;

use common::{obj, Client};

fn start(workers: usize, queue_depth: usize) -> Handle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth,
        default_timeout_ms: 60_000,
        // Scrape limiting off: several tests hammer `metrics` in a loop.
        scrape_min_interval_ms: 0,
    })
    .expect("server starts")
}

fn result_bytes(resp: &Response) -> String {
    match resp {
        Response::Ok { result, .. } => serde_json::to_string(result).expect("serialises"),
        Response::Err { code, error, .. } => panic!("expected OK, got {code}: {error}"),
    }
}

fn flags(resp: &Response) -> (bool, bool) {
    match resp {
        Response::Ok {
            cached, coalesced, ..
        } => (*cached, *coalesced),
        Response::Err { code, error, .. } => panic!("expected OK, got {code}: {error}"),
    }
}

fn stats(handle: &Handle) -> Value {
    match Client::connect(handle.addr()).round_trip_line(r#"{"case":"stats"}"#) {
        Response::Ok { result, .. } => result,
        other => panic!("stats failed: {other:?}"),
    }
}

#[test]
fn concurrent_identical_requests_execute_one_flow() {
    let handle = start(4, 32);
    let n = 8;
    let gate = Barrier::new(n);
    let req = Request::new(1, "pd_flow", obj(vec![("n_cs", Value::U64(2))]));
    let responses: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let (handle, req, gate) = (&handle, &req, &gate);
                s.spawn(move || {
                    let mut client = Client::connect(handle.addr());
                    gate.wait();
                    client.round_trip(req)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let payloads: Vec<String> = responses.iter().map(result_bytes).collect();
    assert!(
        payloads.iter().all(|p| p == &payloads[0]),
        "identical keys must yield byte-identical payloads"
    );
    let executed = responses
        .iter()
        .filter(|r| flags(r) == (false, false))
        .count();
    assert_eq!(executed, 1, "exactly one request computes, the rest reuse");

    // The decisive check: the shared FlowCache saw exactly one miss —
    // one flow execution for 8 concurrent identical requests.
    let s = stats(&handle);
    assert_eq!(
        s.get("flow_cache").unwrap().get("misses").unwrap(),
        &Value::U64(1)
    );

    handle.shutdown();
    handle.wait();
}

#[test]
fn distinct_requests_compute_and_repeats_hit_the_cache() {
    let handle = start(2, 16);
    let mut client = Client::connect(handle.addr());
    let a = Request::new(
        1,
        "sensitivity",
        obj(vec![("samples", Value::U64(40)), ("seed", Value::U64(1))]),
    );
    let b = Request::new(
        2,
        "sensitivity",
        obj(vec![("samples", Value::U64(40)), ("seed", Value::U64(2))]),
    );
    let ra = client.round_trip(&a);
    let rb = client.round_trip(&b);
    assert_eq!(flags(&ra), (false, false));
    assert_eq!(flags(&rb), (false, false), "distinct keys never coalesce");
    assert_ne!(result_bytes(&ra), result_bytes(&rb));

    // Same key again — from a different connection, with fields in a
    // different order — replays from the response cache.
    let mut other = Client::connect(handle.addr());
    let shuffled = r#"{"params":{"seed":1,"samples":40},"case":"sensitivity","id":9}"#;
    let again = other.round_trip_line(shuffled);
    assert!(flags(&again).0, "repeat must be a cache hit");
    assert_eq!(result_bytes(&again), result_bytes(&ra));

    handle.shutdown();
    handle.wait();
}

#[test]
fn overload_is_rejected_with_retry_hint_not_dropped() {
    let handle = start(1, 1);
    let sleep = |tag: u64| {
        Request::new(
            tag,
            "sleep",
            obj(vec![("ms", Value::U64(600)), ("tag", Value::U64(tag))]),
        )
    };
    std::thread::scope(|s| {
        let running = s.spawn(|| Client::connect(handle.addr()).round_trip(&sleep(1)));
        std::thread::sleep(Duration::from_millis(150)); // worker busy on #1
        let queued = s.spawn(|| Client::connect(handle.addr()).round_trip(&sleep(2)));
        std::thread::sleep(Duration::from_millis(150)); // queue holds #2
        let refused = Client::connect(handle.addr()).round_trip(&sleep(3));
        match refused {
            Response::Err {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert!(
                    retry_after_ms.is_some(),
                    "overloaded carries a Retry-After hint"
                );
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        // The refused request was shed, not the queued ones: both
        // admitted sleeps complete normally.
        assert_eq!(running.join().unwrap().status(), 200);
        assert_eq!(queued.join().unwrap().status(), 200);
    });
    handle.shutdown();
    handle.wait();
}

#[test]
fn queued_past_its_deadline_returns_408() {
    let handle = start(1, 4);
    std::thread::scope(|s| {
        let blocker = s.spawn(|| {
            Client::connect(handle.addr()).round_trip(&Request::new(
                1,
                "sleep",
                obj(vec![("ms", Value::U64(500)), ("tag", Value::U64(1))]),
            ))
        });
        std::thread::sleep(Duration::from_millis(150));
        let mut impatient = Request::new(
            2,
            "sleep",
            obj(vec![("ms", Value::U64(10)), ("tag", Value::U64(2))]),
        );
        impatient.timeout_ms = Some(50);
        let resp = Client::connect(handle.addr()).round_trip(&impatient);
        match resp {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::Deadline),
            other => panic!("expected deadline, got {other:?}"),
        }
        assert_eq!(blocker.join().unwrap().status(), 200);
    });
    handle.shutdown();
    handle.wait();
}

#[test]
fn bad_lines_and_unknown_cases_answer_without_closing() {
    let handle = start(1, 4);
    let mut client = Client::connect(handle.addr());
    match client.round_trip_line("this is not json") {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad-request, got {other:?}"),
    }
    match client.round_trip_line(r#"{"case":"no_such_case"}"#) {
        Response::Err { code, error, .. } => {
            assert_eq!(code, ErrorCode::UnknownCase);
            assert!(error.contains("no_such_case"));
        }
        other => panic!("expected unknown-case, got {other:?}"),
    }
    match client.round_trip_line(r#"{"case":"thermal_cap","params":{"power_w":-1}}"#) {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad-request, got {other:?}"),
    }
    // The connection survived all three failures.
    assert_eq!(client.round_trip_line(r#"{"case":"ping"}"#).status(), 200);
    handle.shutdown();
    handle.wait();
}

#[test]
fn oversized_request_lines_are_refused_and_the_server_keeps_serving() {
    let handle = start(1, 4);
    let mut client = Client::connect(handle.addr());
    // One byte past the cap and no newline: the server must answer
    // instead of buffering until it runs out of memory.
    client
        .writer
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send");
    client.writer.flush().expect("flush");
    let mut reply = String::new();
    client.reader.read_line(&mut reply).expect("receive");
    match Response::parse(reply.trim()).expect("valid response line") {
        Response::Err { code, error, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(error.contains("exceeds"), "{error}");
        }
        other => panic!("expected bad-request, got {other:?}"),
    }
    // The stream cannot be framed any more, so the server hangs up...
    reply.clear();
    assert_eq!(client.reader.read_line(&mut reply).expect("clean EOF"), 0);
    // ...and keeps serving fresh connections.
    let ping = Client::connect(handle.addr()).round_trip_line(r#"{"case":"ping"}"#);
    assert_eq!(ping.status(), 200);
    handle.shutdown();
    handle.wait();
}

/// Outcome counter from a `metrics` response payload.
fn counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn metrics(client: &mut Client) -> Value {
    match client.round_trip_line(r#"{"case":"metrics"}"#) {
        Response::Ok { result, .. } => result,
        other => panic!("metrics failed: {other:?}"),
    }
}

#[test]
fn metrics_round_trip_counts_every_outcome() {
    let handle = start(2, 16);
    let mut client = Client::connect(handle.addr());

    let before = metrics(&mut client);
    // The snapshot has the full recorder shape even on a fresh server.
    assert!(before.get("counters").is_some());
    assert!(before.get("histograms").is_some());
    assert!(before.get("spans").is_some());

    // Two distinct computations, then both replayed from the response
    // cache, tallied from the client side as the gate mixes are.
    let mut computed = 0;
    let mut reused = 0;
    for id in 0..4u64 {
        let req = Request::new(
            id,
            "sensitivity",
            obj(vec![
                ("samples", Value::U64(40)),
                ("seed", Value::U64(id % 2)),
            ]),
        );
        let (cached, coalesced) = flags(&client.round_trip(&req));
        if cached || coalesced {
            reused += 1;
        } else {
            computed += 1;
        }
    }
    assert_eq!((computed, reused), (2, 2));

    let after = metrics(&mut client);
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    assert_eq!(delta("executed"), computed, "server agrees on computed");
    assert_eq!(
        delta("cache_hits") + delta("coalesced"),
        reused,
        "server agrees on reuse"
    );
    assert_eq!(delta("accepted"), 2, "only the leaders were queued");
    assert_eq!(delta("rejected"), 0);
    assert_eq!(delta("failed"), 0);

    // Latency histogram sampled once per finished request, and the
    // per-request span ring retained them.
    let hist_total = |m: &Value| {
        m.get("histograms")
            .and_then(|h| h.get("request_latency_us"))
            .and_then(|h| h.get("total"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(hist_total(&after) - hist_total(&before), 4);
    let spans_recorded = after
        .get("spans")
        .and_then(|s| s.get("recorded"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(spans_recorded >= 4, "per-request spans were recorded");

    handle.shutdown();
    handle.wait();
}

/// A one-inverter design, small enough for a quick flow.
const INVERTER_EDIF: &str = "(edif demo (library work (cell top (view net (interface \
    (port a (direction INPUT)) (port y (direction OUTPUT))) (contents (instance u1 \
    (cellRef INV_X1)) (net na (joined (portRef a) (portRef A (instanceRef u1)))) (net ny \
    (joined (portRef Y (instanceRef u1)) (portRef y))))))) (design demo (cellRef top)))";

#[test]
fn repeated_uploads_replay_and_malformed_ones_are_still_rejected() {
    let handle = start(1, 4);
    let mut client = Client::connect(handle.addr());
    let before = metrics(&mut client);
    let upload = |id, source: &str| {
        Request::new(
            id,
            "ingest",
            obj(vec![("source", Value::Str(source.to_owned()))]),
        )
    };
    let malformed = upload(1, "(edif broken");
    for _ in 0..2 {
        match client.round_trip(&malformed) {
            Response::Err { code, error, .. } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(error.contains("line 1, column"), "no position in {error:?}");
            }
            other => panic!("expected bad-request, got {other:?}"),
        }
    }
    let first = client.round_trip(&upload(2, INVERTER_EDIF));
    let again = client.round_trip(&upload(3, INVERTER_EDIF));
    assert_eq!(flags(&first), (false, false), "the first upload computes");
    assert!(flags(&again).0, "a repeated upload is a cache hit");
    assert_eq!(result_bytes(&again), result_bytes(&first));

    let after = metrics(&mut client);
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    assert_eq!(delta("rejected"), 2, "each malformed upload is rejected");
    assert_eq!(delta("accepted"), 1, "only the first valid upload queued");
    assert_eq!(delta("executed"), 1);
    assert_eq!(delta("cache_hits"), 1);
    handle.shutdown();
    handle.wait();
}

#[test]
fn shutdown_drains_queued_work_then_stops() {
    let handle = start(1, 8);
    std::thread::scope(|s| {
        let in_flight = s.spawn(|| {
            Client::connect(handle.addr()).round_trip(&Request::new(
                1,
                "sleep",
                obj(vec![("ms", Value::U64(300)), ("tag", Value::U64(1))]),
            ))
        });
        let queued = s.spawn(|| {
            std::thread::sleep(Duration::from_millis(80));
            Client::connect(handle.addr()).round_trip(&Request::new(
                2,
                "sleep",
                obj(vec![("ms", Value::U64(50)), ("tag", Value::U64(2))]),
            ))
        });
        std::thread::sleep(Duration::from_millis(160));
        let mut admin = Client::connect(handle.addr());
        assert_eq!(
            admin.round_trip_line(r#"{"case":"shutdown"}"#).status(),
            200
        );
        // Work accepted before the drain completes normally.
        assert_eq!(in_flight.join().unwrap().status(), 200, "in-flight drains");
        assert_eq!(queued.join().unwrap().status(), 200, "queued drains");
        // Work after the drain is refused (`draining` on a live
        // connection).
        match admin.round_trip_line(r#"{"case":"sleep","params":{"ms":1,"tag":9}}"#) {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::Draining),
            other => panic!("expected draining, got {other:?}"),
        }
    });
    handle.wait(); // returns: accept loop and workers exited
}

#[test]
fn metrics_scrapes_are_rate_limited_per_connection() {
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 4,
        default_timeout_ms: 60_000,
        scrape_min_interval_ms: 150,
    })
    .expect("server starts");

    let mut fast = Client::connect(handle.addr());
    assert_eq!(fast.round_trip_line(r#"{"case":"metrics"}"#).status(), 200);
    // A second scrape inside the interval is shed with a retry hint —
    // `metrics_text` shares the same per-connection gate.
    let wait_ms = match fast.round_trip_line(r#"{"case":"metrics_text"}"#) {
        Response::Err {
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(code, ErrorCode::Overloaded);
            retry_after_ms.expect("rate-limit reply carries a retry hint")
        }
        other => panic!("expected a 429, got {other:?}"),
    };
    assert!(wait_ms > 0 && wait_ms <= 150, "hint {wait_ms} out of range");

    // The gate is per connection: a fresh connection scrapes at once.
    let mut other = Client::connect(handle.addr());
    assert_eq!(other.round_trip_line(r#"{"case":"metrics"}"#).status(), 200);

    // Sleeping out the hint readmits the scrape, and the shed scrape
    // was counted.
    std::thread::sleep(Duration::from_millis(wait_ms + 20));
    match fast.round_trip_line(r#"{"case":"metrics"}"#) {
        Response::Ok { result, .. } => {
            let limited = result
                .get("counters")
                .and_then(|c| c.get("scrapes_limited"))
                .and_then(Value::as_u64);
            assert_eq!(limited, Some(1), "the shed scrape is counted");
        }
        other => panic!("expected OK after the hinted wait, got {other:?}"),
    }

    // Non-scrape admin cases are never gated.
    assert_eq!(fast.round_trip_line(r#"{"case":"stats"}"#).status(), 200);
    assert_eq!(fast.round_trip_line(r#"{"case":"ping"}"#).status(), 200);

    handle.shutdown();
    handle.wait();
}

#[test]
fn health_and_ready_track_the_drain() {
    let handle = start(1, 4);
    let mut c = Client::connect(handle.addr());

    match c.round_trip_line(r#"{"case":"health"}"#) {
        Response::Ok { result, .. } => {
            assert_eq!(result.get("healthy"), Some(&Value::Bool(true)));
            assert_eq!(result.get("draining"), Some(&Value::Bool(false)));
        }
        other => panic!("health failed: {other:?}"),
    }
    match c.round_trip_line(r#"{"case":"ready"}"#) {
        Response::Ok { result, .. } => {
            assert_eq!(result.get("ready"), Some(&Value::Bool(true)));
            assert!(result.get("queue_len").is_some(), "ready carries the depth");
        }
        other => panic!("ready failed: {other:?}"),
    }

    assert_eq!(c.round_trip_line(r#"{"case":"shutdown"}"#).status(), 200);

    // On the still-open connection: alive but no longer ready — the
    // distinction the fleet supervisor keys respawn vs routing off.
    match c.round_trip_line(r#"{"case":"health"}"#) {
        Response::Ok { result, .. } => {
            assert_eq!(result.get("healthy"), Some(&Value::Bool(true)));
            assert_eq!(result.get("draining"), Some(&Value::Bool(true)));
        }
        other => panic!("health during drain failed: {other:?}"),
    }
    match c.round_trip_line(r#"{"case":"ready"}"#) {
        Response::Ok { result, .. } => {
            assert_eq!(result.get("ready"), Some(&Value::Bool(false)));
            assert_eq!(result.get("draining"), Some(&Value::Bool(true)));
        }
        other => panic!("ready during drain failed: {other:?}"),
    }

    handle.wait();
}
