//! Shared harness of the serve integration tests: one NDJSON client, a
//! guard around a spawned `m3d-serve` or `m3d-gateway` process, the
//! deterministic request mixes, and a closed-loop runner that tallies
//! what a mix computed and which payloads it got back.

// Each test file uses its own subset of the harness.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use m3d_core::obs::validate_exposition;
use m3d_core::ErrorCode;
use m3d_serve::protocol::{
    Request, Response, CASE_CASES, CASE_METRICS, CASE_METRICS_TEXT, CASE_TRACES,
};
use m3d_tech::{StableHash, StableHasher};
use serde::Value;

/// The cold mix's result digests per content key, as every server and
/// fleet configuration must return them (3 clients × 4 requests).
pub const COLD_PAYLOADS: [(&str, &str); 12] = [
    ("0d90f480c7b6ccff", "7ff5229e26e90995"),
    ("331bcec2a20ae55a", "6610dd884eb4d064"),
    ("4b9925e99b9bf242", "52e10821b4385e72"),
    ("60d070bc24e4acad", "002f4c305be758b6"),
    ("63f13663191fdd28", "79cc063442797e1c"),
    ("794dc7e31e75b995", "78dbc9a250fb787a"),
    ("897c10a4f373f583", "4e481aee45188a5f"),
    ("a1f967cbed05026b", "3a5b1179e054e6a3"),
    ("b730b29e764dbcd6", "91bda309f1262dd5"),
    ("dfdc528744dd05ac", "9a89d8ec056648a0"),
    ("e4e55497f9278429", "102d883875bbc49a"),
    ("f859a9ae3e6e1294", "a56536a0db161ad7"),
];

/// Hinted 429s a call sleeps out before it gives up.
const MAX_RETRIES: u32 = 8;

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// One persistent client connection.
pub struct Client {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Self {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one line and returns the reply line without its newline.
    pub fn send_line(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("receive");
        assert!(
            n > 0,
            "the server closed the connection instead of answering {line}"
        );
        reply.truncate(reply.trim_end().len());
        reply
    }

    pub fn round_trip_line(&mut self, line: &str) -> Response {
        Response::parse(&self.send_line(line)).expect("valid response line")
    }

    pub fn round_trip(&mut self, req: &Request) -> Response {
        self.round_trip_line(&req.to_line())
    }

    /// A round trip through a gateway: the response and the replica
    /// that served it.
    pub fn routed(&mut self, req: &Request) -> (Response, Option<u64>) {
        let line = self.send_line(&req.to_line());
        (
            Response::parse(&line).expect("valid response line"),
            replica_tag(&line),
        )
    }

    /// [`Client::send_line`], sleeping out and resending a 429 that
    /// carries a retry hint (a full queue or a scrape rate limit).
    pub fn call_line(&mut self, line: &str) -> String {
        for _ in 0..MAX_RETRIES {
            let reply = self.send_line(line);
            match Response::parse(&reply) {
                Ok(Response::Err {
                    code: ErrorCode::Overloaded,
                    retry_after_ms: Some(ms),
                    ..
                }) => std::thread::sleep(Duration::from_millis(ms.min(1_000))),
                _ => return reply,
            }
        }
        self.send_line(line)
    }

    /// The result payload of an OK reply to `line`; any error fails the
    /// test.
    pub fn result(&mut self, line: &str) -> Value {
        match Response::parse(&self.call_line(line)).expect("valid response line") {
            Response::Ok { result, .. } => result,
            Response::Err { code, error, .. } => panic!("{line} failed: {code}: {error}"),
        }
    }

    /// The result payload of an admin case.
    pub fn admin(&mut self, case: &str, params: Value) -> Value {
        self.result(&Request::new(0, case, params).to_line())
    }
}

/// The gateway's `replica` envelope tag, if the reply carries one.
fn replica_tag(line: &str) -> Option<u64> {
    serde_json::from_str_value(line)
        .ok()
        .and_then(|v| v.get("replica").and_then(Value::as_u64))
}

/// A spawned `m3d-serve` or `m3d-gateway` process, announced and
/// listening. Dropping one that still runs (a failed test) asks it to
/// shut down, so a gateway stops its replicas, and kills it after 5 s.
pub struct Spawned {
    child: Child,
    pub addr: SocketAddr,
}

impl Spawned {
    /// Starts `cmd` detached from any disk cache (`M3D_CACHE_DIR`
    /// removed) and waits for its `{"listening":"host:port"}` line.
    pub fn start(cmd: &mut Command) -> Self {
        let mut child = cmd
            .env_remove("M3D_CACHE_DIR")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("process starts");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut announce = String::new();
        let read = BufReader::new(stdout).read_line(&mut announce);
        let addr = match serde_json::from_str_value(announce.trim()) {
            Ok(v) => match v.get("listening") {
                Some(Value::Str(addr)) => addr.parse().ok(),
                _ => None,
            },
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("unexpected announcement {announce:?} ({read:?})");
        };
        Self { child, addr }
    }

    /// Waits for the process to exit.
    pub fn wait(mut self) -> ExitStatus {
        self.child.wait().expect("process exits")
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            if let Ok(stream) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)) {
                let _ = (&stream).write_all(b"{\"case\":\"shutdown\"}\n");
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// SIGKILLs a process behind its supervisor's back.
pub fn kill_9(pid: u32) {
    let killed = Command::new("kill")
        .arg("-9")
        .arg(pid.to_string())
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {pid} failed");
}

/// The `cold` mix: every request a distinct `sensitivity` seed.
pub fn cold(global: u64) -> Request {
    Request::new(
        global,
        "sensitivity",
        obj(vec![
            ("samples", Value::U64(400)),
            ("seed", Value::U64(1_000 + global)),
        ]),
    )
}

/// The `repeated` mix: one identical `sensitivity` request.
pub fn repeated(global: u64) -> Request {
    Request::new(
        global,
        "sensitivity",
        obj(vec![("samples", Value::U64(400)), ("seed", Value::U64(7))]),
    )
}

/// The `sleep` mix: distinct-tag 20 ms diagnostic stalls.
pub fn sleep(global: u64) -> Request {
    Request::new(
        global,
        "sleep",
        obj(vec![("ms", Value::U64(20)), ("tag", Value::U64(global))]),
    )
}

/// The design the `mixed` mix uploads through `ingest`: one inverter.
const INGEST_EDIF: &str = "(edif loadgen (library work (cell top (view net \
                               (interface (port a (direction INPUT)) \
                               (port y (direction OUTPUT))) \
                               (contents (instance u1 (cellRef INV_X1)) \
                               (net na (joined (portRef a) (portRef A (instanceRef u1)))) \
                               (net ny (joined (portRef Y (instanceRef u1)) (portRef y))))))) \
                               (design loadgen (cellRef top)))";

/// The `mixed` mix: every fourth request walks the server's `cases`
/// listing with default params, every eighth uploads [`INGEST_EDIF`],
/// and the rest alternate the `cold` and `repeated` shapes.
pub fn mixed(global: u64, cases: &[String]) -> Request {
    if global % 4 == 3 && !cases.is_empty() {
        let case = &cases[(global / 4) as usize % cases.len()];
        Request::new(global, case, Value::Object(Vec::new()))
    } else if global % 8 == 5 {
        Request::new(
            global,
            "ingest",
            obj(vec![("source", Value::Str(INGEST_EDIF.to_owned()))]),
        )
    } else if global.is_multiple_of(2) {
        cold(global)
    } else {
        repeated(global)
    }
}

/// The registered case names, in registry order.
pub fn case_names(addr: SocketAddr) -> Vec<String> {
    match Client::connect(addr)
        .admin(CASE_CASES, Value::Null)
        .get("cases")
    {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|item| match item.get("name") {
                Some(Value::Str(name)) => Some(name.clone()),
                _ => None,
            })
            .collect(),
        other => panic!("`cases` carries no list: {other:?}"),
    }
}

/// The digest a result payload is compared by.
fn digest(result: &Value) -> String {
    let bytes = serde_json::to_string(result).expect("result serialises");
    let mut h = StableHasher::new();
    bytes.stable_hash(&mut h);
    format!("{:016x}", h.finish())
}

/// What one closed-loop run of a mix got back.
#[derive(Debug, Default)]
pub struct Tally {
    /// Replies that ran their case (neither cached nor coalesced).
    pub computed: u64,
    /// Replies replayed from a cache or joined onto an in-flight leader.
    pub reused: u64,
    /// Content key → [`digest`] of its result payload.
    pub payloads: BTreeMap<String, String>,
    /// Replies per serving replica (the gateway's envelope tag).
    pub by_replica: BTreeMap<u64, u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.computed += other.computed;
        self.reused += other.reused;
        self.payloads.extend(other.payloads);
        for (replica, n) in other.by_replica {
            *self.by_replica.entry(replica).or_insert(0) += n;
        }
    }

    pub fn assert_cold_payloads(&self) {
        let pinned: BTreeMap<String, String> = COLD_PAYLOADS
            .iter()
            .map(|&(k, d)| (k.to_owned(), d.to_owned()))
            .collect();
        assert_eq!(self.payloads, pinned, "cold mix payload digests moved");
    }
}

/// Runs `clients` connections at once, each sending `requests` requests
/// built by `build(global index)` and waiting for every reply. Any
/// reply but OK fails the test.
///
/// With `trace`, every request opts into tracing and every reply must
/// carry a well-formed inline trace. Client 0 then also checks, after
/// every second request, that `metrics` answers mid-run and that the
/// `traces` flight recorder returns its latest trace by id.
pub fn run_mix(
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    trace: bool,
    build: impl Fn(u64) -> Request + Sync,
) -> Tally {
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..clients)
            .map(|client| {
                let build = &build;
                s.spawn(move || run_client(addr, client, requests, trace, build))
            })
            .collect();
        let mut total = Tally::default();
        for run in runs {
            total.merge(run.join().expect("client thread panicked"));
        }
        total
    })
}

fn run_client(
    addr: SocketAddr,
    client: usize,
    requests: usize,
    trace: bool,
    build: &(impl Fn(u64) -> Request + Sync),
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = Client::connect(addr);
    let mut last_trace = None;
    for i in 0..requests {
        let global = (client * requests + i) as u64;
        let mut req = build(global);
        req.trace = trace;
        let line = conn.call_line(&req.to_line());
        match Response::parse(&line).expect("valid response line") {
            Response::Ok {
                key,
                cached,
                coalesced,
                result,
                trace: doc,
                ..
            } => {
                if trace {
                    let id = inline_trace_id(doc.as_ref());
                    assert!(
                        id.is_some(),
                        "request {global}: no well-formed trace in {line}"
                    );
                    last_trace = id;
                }
                if cached || coalesced {
                    tally.reused += 1;
                } else {
                    tally.computed += 1;
                }
                tally.payloads.insert(key, digest(&result));
                if let Some(replica) = replica_tag(&line) {
                    *tally.by_replica.entry(replica).or_insert(0) += 1;
                }
            }
            Response::Err { .. } => panic!("request {global} failed: {line}"),
        }
        if trace && client == 0 && (i + 1) % 2 == 0 {
            let metrics = conn.admin(CASE_METRICS, Value::Null);
            assert!(metrics.get("counters").is_some(), "{metrics:?}");
            let id = last_trace.clone().expect("traced replies carry ids");
            let found = conn.admin(CASE_TRACES, obj(vec![("trace_id", Value::Str(id.clone()))]));
            let holds = |list: Option<&Value>| {
                matches!(list, Some(Value::Array(items)) if items.iter().any(
                    |t| matches!(t.get("trace_id"), Some(Value::Str(s)) if *s == id)
                ))
            };
            assert!(
                holds(found.get("recent")) || holds(found.get("slow")),
                "trace {id} came back inline but the flight recorder lacks it: {found:?}"
            );
        }
    }
    tally
}

/// The trace id of a well-formed inline trace document: a 32-hex
/// `trace_id` beside a span tree `root`.
fn inline_trace_id(doc: Option<&Value>) -> Option<String> {
    let doc = doc?;
    doc.get("root")?;
    match doc.get("trace_id") {
        Some(Value::Str(id)) if is_trace_id(id) => Some(id.clone()),
        _ => None,
    }
}

fn is_trace_id(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Every distinct `"trace_id":"<32 hex>"` in a raw reply line.
pub fn trace_ids(line: &str) -> BTreeSet<&str> {
    const FIELD: &str = "\"trace_id\":\"";
    line.match_indices(FIELD)
        .filter_map(|(at, _)| line.get(at + FIELD.len()..at + FIELD.len() + 33))
        .filter(|id| id.ends_with('"') && is_trace_id(&id[..32]))
        .map(|id| &id[..32])
        .collect()
}

/// Whether `parts` occur in `line` in this order.
pub fn contains_in_order(line: &str, parts: &[&str]) -> bool {
    let mut rest = line;
    parts.iter().all(|part| match rest.find(part) {
        Some(at) => {
            rest = &rest[at + part.len()..];
            true
        }
        None => false,
    })
}

/// The request accounting of one `metrics` reply.
pub struct MetricsSnap {
    counters: BTreeMap<String, u64>,
    latency_count: u64,
    /// `(dropped, recorded, retained)` of the span ring.
    spans: (u64, u64, u64),
}

/// Snapshots `metrics` over a fresh connection.
pub fn metrics(addr: SocketAddr) -> MetricsSnap {
    let result = Client::connect(addr).admin(CASE_METRICS, Value::Null);
    let counters = match result.get("counters") {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), v.as_u64()?)))
            .collect(),
        other => panic!("`metrics` carries no counters: {other:?}"),
    };
    let latency_count = result
        .get("histograms")
        .and_then(|h| h.get("request_latency_us"))
        .and_then(|h| h.get("total"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let spans = result.get("spans").expect("`metrics` carries span totals");
    let field = |name: &str| spans.get(name).and_then(Value::as_u64).unwrap_or(0);
    MetricsSnap {
        counters,
        latency_count,
        spans: (field("dropped"), field("recorded"), field("retained")),
    }
}

/// The server's accounting between two snapshots must match what the
/// clients saw: `executed` counts the computed replies, `cache_hits +
/// coalesced` the reused ones, and the latency histogram and the span
/// ring record one sample per reply, counting every span the ring
/// drops.
pub fn assert_metrics_agree(before: &MetricsSnap, after: &MetricsSnap, tally: &Tally) {
    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };
    let replies = tally.computed + tally.reused;
    assert_eq!(delta("executed"), tally.computed, "executed vs computed");
    assert_eq!(
        delta("cache_hits") + delta("coalesced"),
        tally.reused,
        "cache_hits + coalesced vs reused"
    );
    assert_eq!(
        after.latency_count - before.latency_count,
        replies,
        "request_latency_us samples vs replies"
    );
    let (dropped, recorded, retained) = (
        after.spans.0 - before.spans.0,
        after.spans.1 - before.spans.1,
        after.spans.2 - before.spans.2,
    );
    assert_eq!(recorded, replies, "spans recorded vs replies");
    assert_eq!(dropped, recorded - retained, "spans dropped vs ring growth");
}

/// Scrapes `metrics_text` over a fresh connection; the exposition must
/// parse.
pub fn metrics_text(addr: SocketAddr) -> String {
    match Client::connect(addr)
        .admin(CASE_METRICS_TEXT, Value::Null)
        .get("text")
    {
        Some(Value::Str(text)) => {
            if let Err(line) = validate_exposition(text) {
                panic!("metrics_text does not parse at {line}:\n{text}");
            }
            text.clone()
        }
        other => panic!("metrics_text returned {other:?}"),
    }
}

/// The value of one exposition sample.
pub fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{series}` sample in:\n{text}"))
        .parse()
        .expect("integer sample")
}

/// Whether the exposition declares `family` with `kind`.
pub fn declares(text: &str, family: &str, kind: &str) -> bool {
    text.lines()
        .any(|line| line == format!("# TYPE {family} {kind}"))
}

/// Sends `{"case":"shutdown"}` and checks the drain reply arrives.
pub fn request_shutdown(addr: SocketAddr) {
    let reply = Client::connect(addr).round_trip_line(r#"{"case":"shutdown"}"#);
    match reply {
        Response::Ok { result, .. } => assert_eq!(
            result,
            obj(vec![("draining", Value::Bool(true))]),
            "shutdown reply"
        ),
        other => panic!("shutdown refused: {other:?}"),
    }
}
