//! The service gates, against real `m3d-serve` processes: the paper's
//! experiments answer byte-identically whatever the worker count or
//! `M3D_JOBS`, the server's own accounting matches what its clients
//! saw, and a shutdown request drains the process to exit 0 after its
//! reply is on the wire. Every server is a fresh process detached from
//! any disk cache, so each count below is what a cold server computes.

mod common;

use std::process::Command;

use common::{
    assert_metrics_agree, case_names, declares, metrics, metrics_text, obj, request_shutdown,
    run_mix, sample, Client, Spawned,
};
use m3d_core::ErrorCode;
use m3d_serve::protocol::{Request, Response};
use m3d_tech::StableHasher;
use serde::Value;

const SERVE: &str = env!("CARGO_BIN_EXE_m3d-serve");

/// A traced quick Fig. 2 flow, and the digest of its whole reply line.
const TRACED_PD_FLOW: &str =
    r#"{"id":7100,"case":"pd_flow","quick":true,"trace":true,"params":{"activity_pct":37.5}}"#;
const TRACED_PD_FLOW_REPLY_FNV: &str = "ecdd3fbd0ae9eafe";

/// A one-buffer design, uploaded as EDIF.
const PROBE_EDIF: &str = "(edif probe (library work (cell top (view v (interface (port a \
    (direction INPUT)) (port y (direction OUTPUT))) (contents (instance u1 (cellRef BUF_X1)) \
    (net na (joined (portRef a) (portRef A (instanceRef u1)))) (net ny (joined (portRef Y \
    (instanceRef u1)) (portRef y))))))) (design probe (cellRef top)))";

fn serve(workers: &str, queue_depth: &str, env: &[(&str, &str)]) -> Spawned {
    let mut cmd = Command::new(SERVE);
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--workers",
        workers,
        "--queue-depth",
        queue_depth,
    ]);
    for (k, v) in env {
        cmd.env(k, v);
    }
    Spawned::start(&mut cmd)
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.write(bytes);
    format!("{:016x}", h.finish())
}

fn upload(id: u64, source: &str) -> Request {
    Request::new(
        id,
        "ingest",
        obj(vec![("source", Value::Str(source.to_owned()))]),
    )
}

/// The mixes run in this order on one server: `mixed` computes exactly
/// three requests only because the earlier mixes filled the response
/// cache with the rest.
fn serve_smoke(workers: &str) {
    let server = serve(workers, "64", &[]);
    let addr = server.addr;

    // Cold: 12 distinct seeds all compute, traced, with the expected
    // payloads, and the server books exactly what the clients saw.
    let before = metrics(addr);
    let cold = run_mix(addr, 3, 4, true, common::cold);
    let after = metrics(addr);
    assert_eq!(cold.computed, 12, "workers {workers}: cold mix");
    assert_metrics_agree(&before, &after, &cold);
    cold.assert_cold_payloads();

    // Its rerun replays every reply.
    let before = metrics(addr);
    let rerun = run_mix(addr, 3, 4, false, common::cold);
    let after = metrics(addr);
    assert_eq!(rerun.computed, 0, "workers {workers}: cold rerun");
    assert_metrics_agree(&before, &after, &rerun);

    // 16 identical requests from 4 clients compute once.
    let repeated = run_mix(addr, 4, 4, false, common::repeated);
    assert_eq!(repeated.computed, 1, "workers {workers}: repeated mix");

    let text = metrics_text(addr);
    assert!(declares(&text, "executed", "counter"), "{text}");
    assert!(declares(&text, "spans_dropped", "counter"), "{text}");
    assert!(sample(&text, "spans_recorded") >= 1, "{text}");

    // A malformed upload is refused before it is queued, with its
    // source position, and counted; a valid one computes and then
    // replays.
    let mut c = Client::connect(addr);
    match c.round_trip_line(r#"{"id":9001,"case":"ingest","params":{"source":"(edif broken"}}"#) {
        Response::Err { code, error, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(error.contains("line 1"), "no position in {error:?}");
        }
        other => panic!("malformed upload accepted: {other:?}"),
    }
    let counters = c.result(r#"{"id":9002,"case":"metrics","params":{}}"#);
    assert_eq!(
        counters.get("counters").and_then(|c| c.get("rejected")),
        Some(&Value::U64(1)),
        "the refusal is counted"
    );
    match c.round_trip(&upload(9003, PROBE_EDIF)) {
        Response::Ok { cached, .. } => assert!(!cached, "the first upload computes"),
        other => panic!("upload failed: {other:?}"),
    }
    match c.round_trip(&upload(9004, PROBE_EDIF)) {
        Response::Ok { cached, .. } => assert!(cached, "a repeated upload replays"),
        other => panic!("repeated upload failed: {other:?}"),
    }

    // `mixed`: pd_flow and tier_sweep defaults and the inline-EDIF
    // upload are new; every other request replays.
    let cases = case_names(addr);
    let mixed = run_mix(addr, 2, 4, false, |g| common::mixed(g, &cases));
    assert_eq!(mixed.computed, 3, "workers {workers}: mixed mix");

    request_shutdown(addr);
    let status = server.wait();
    assert!(status.success(), "m3d-serve drained with {status}");
}

#[test]
fn serve_smoke_with_one_worker() {
    serve_smoke("1");
}

#[test]
fn serve_smoke_with_four_workers() {
    serve_smoke("4");
}

/// The whole traced envelope, trace included, is deterministic: its
/// rendering leaves wall-clock time out.
#[test]
fn traced_pd_flow_reply_is_byte_identical_across_m3d_jobs() {
    for jobs in ["1", "7"] {
        let server = serve("2", "16", &[("M3D_JOBS", jobs)]);
        let reply = Client::connect(server.addr).send_line(TRACED_PD_FLOW);
        for part in [
            r#""trace_id""#,
            r#""name":"req:pd_flow""#,
            r#""name":"pd-flow""#,
            r#""name":"place""#,
        ] {
            assert!(
                reply.contains(part),
                "M3D_JOBS={jobs}: no {part} in {reply}"
            );
        }
        assert_eq!(
            fnv1a(reply.as_bytes()),
            TRACED_PD_FLOW_REPLY_FNV,
            "M3D_JOBS={jobs}: {reply}"
        );
        request_shutdown(server.addr);
        let status = server.wait();
        assert!(
            status.success(),
            "M3D_JOBS={jobs}: m3d-serve exited {status}"
        );
    }
}

/// The process must not exit between taking a shutdown request and
/// writing its reply.
#[test]
fn every_shutdown_request_is_answered_before_the_process_exits() {
    for attempt in 0..20 {
        let server = serve("2", "64", &[]);
        request_shutdown(server.addr);
        let status = server.wait();
        assert!(
            status.success(),
            "attempt {attempt}: m3d-serve exited {status}"
        );
    }
}
