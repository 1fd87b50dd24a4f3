//! A sweep that runs inside an `m3d-serve` worker stays on that worker's
//! thread: the server's workers already fill the cores, so `M3D_JOBS`
//! must not make a request fan out. The server runs as its own process,
//! so the engine recorder its `metrics_text` exposes has seen only the
//! requests sent here.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use m3d_serve::protocol::Response;
use serde::Value;

/// Kills the server if the test fails before it shuts down cleanly.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{series}` sample in:\n{text}"))
        .parse()
        .expect("integer sample")
}

#[test]
fn sweeps_inside_server_workers_run_on_the_worker_thread() {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_m3d-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .env("M3D_JOBS", "4")
            .env_remove("M3D_CACHE_DIR")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("m3d-serve starts"),
    );
    let mut announce = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut announce)
        .expect("bind announcement");
    let addr = match serde_json::from_str_value(announce.trim()) {
        Ok(v) => match v.get("listening") {
            Some(Value::Str(addr)) => addr.clone(),
            _ => panic!("unexpected announcement {announce:?}"),
        },
        Err(e) => panic!("unparsable announcement {announce:?}: {e}"),
    };

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut call = |line: String| -> Value {
        writeln!(writer, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("receive");
        match Response::parse(reply.trim()).expect("response line") {
            Response::Ok { result, .. } => result,
            Response::Err { code, error, .. } => panic!("{line} failed: {code}: {error}"),
        }
    };

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

    // The process may exit before the shutdown reply reaches the
    // socket, so only its exit status is checked.
    writeln!(writer, r#"{{"case":"shutdown"}}"#).expect("send");
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "m3d-serve drained with {status}");
}
