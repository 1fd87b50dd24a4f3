//! A sweep that runs inside an `m3d-serve` worker stays on that worker's
//! thread: the server's workers already fill the cores, so `M3D_JOBS`
//! must not make a request fan out. The server runs as its own process,
//! so the engine recorder its `metrics_text` exposes has seen only the
//! requests sent here.

mod common;

use std::process::Command;

use common::{request_shutdown, sample, Client, Spawned};
use serde::Value;

#[test]
fn sweeps_inside_server_workers_run_on_the_worker_thread() {
    let server = Spawned::start(
        Command::new(env!("CARGO_BIN_EXE_m3d-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .env("M3D_JOBS", "4"),
    );
    let mut client = Client::connect(server.addr);
    let mut call = |line: String| -> Value { client.result(&line) };

    let mut requests = Vec::new();
    for seed in 1..=6 {
        requests.push(format!(r#""sensitivity","params":{{"seed":{seed}}}"#));
    }
    for mb in [32, 64, 128] {
        requests.push(format!(
            r#""capacity_sweep","params":{{"max_capacity_mb":{mb}}}"#
        ));
    }
    for pairs in [2, 3, 4] {
        requests.push(format!(r#""tier_sweep","params":{{"max_pairs":{pairs}}}"#));
    }
    for (id, req) in requests.iter().enumerate() {
        call(format!(r#"{{"id":{id},"case":{req}}}"#));
    }

    let text = match call(r#"{"case":"metrics_text"}"#.to_owned()).get("text") {
        Some(Value::Str(text)) => text.clone(),
        other => panic!("metrics_text returned {other:?}"),
    };
    let calls = sample(&text, "par_map_workers_count");
    assert!(
        calls >= requests.len() as u64,
        "every sweep request calls par_map at least once; saw {calls}"
    );
    assert_eq!(
        sample(&text, r#"par_map_workers_bucket{le="1"}"#),
        calls,
        "a sweep inside a server worker fanned out:\n{text}"
    );

    request_shutdown(server.addr);
    let status = server.wait();
    assert!(status.success(), "m3d-serve drained with {status}");
}
