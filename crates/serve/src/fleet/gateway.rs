//! The fleet gateway: accept loop, routing, forwarding and fleet
//! metrics.
//!
//! ```text
//!  client ──NDJSON──▶ gateway connection thread
//!                        │ consistent-hash on the request content key
//!                        ▼
//!                ┌─ replica 0 (m3d-serve child) ─┐
//!                ├─ replica 1                    ├─ shared M3D_CACHE_DIR
//!                └─ replica 2                    ┘
//! ```
//!
//! The gateway speaks the exact same wire protocol as a single
//! `m3d-serve`: clients need no changes. Experiment cases are routed by
//! consistent-hashing the request's *content key* — the same
//! [`Request::key`] the replica's response cache is keyed on — so
//! repeats of a request always land on the replica already holding its
//! cached response. Admin cases are answered by the gateway itself
//! (fleet-wide view) or forwarded round-robin (`ping`, `cases`).
//!
//! Every registry case is idempotent and its payload deterministic, so
//! when a replica dies mid-request the gateway transparently retries on
//! the next ring-adjacent survivor; the client sees one response,
//! byte-identical in its `result` payload to what the dead replica
//! would have sent.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use m3d_bench::registry;
use m3d_core::obs::{
    render_parts, span_ring_counters, SpanNode, StitchedTrace, TraceContext, TraceSink,
};
use m3d_core::ErrorCode;
use serde::Value;

use super::replica::{send_one, Replica, ReplicaConfig};
use super::ring::{Ring, DEFAULT_VNODES};
use crate::metrics::Metrics;
use crate::protocol::{
    key_hex, serve_connection, Request, Response, ShutdownReplies, CASE_CASES, CASE_DRAIN,
    CASE_HEALTH, CASE_METRICS, CASE_METRICS_TEXT, CASE_PING, CASE_READY, CASE_SHUTDOWN, CASE_STATS,
    CASE_TRACES, CASE_UNDRAIN,
};
use crate::server::{trace_filter, ScrapeGate};

/// Backpressure hint when no replica is routable right now.
const NO_REPLICA_RETRY_MS: u64 = 250;
/// Connect budget for a forwarding connection to a replica.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(2_000);
/// How long a graceful replica stop may take before the child is
/// killed.
const STOP_GRACE: Duration = Duration::from_secs(10);

/// Tunables for [`serve_fleet`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Gateway bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Replica child processes to spawn and supervise.
    pub replicas: usize,
    /// Virtual nodes per replica on the routing ring.
    pub vnodes: usize,
    /// Path to the `m3d-serve` binary replicas run.
    pub serve_bin: PathBuf,
    /// Worker threads per replica.
    pub workers: usize,
    /// Queue depth per replica.
    pub queue_depth: usize,
    /// Default per-request deadline handed to replicas.
    pub default_timeout_ms: u64,
    /// Supervisor heartbeat: probe/reap/respawn cadence.
    pub probe_interval_ms: u64,
    /// Per-connection minimum interval between fleet metrics scrapes
    /// (each scrape fans out to every live replica, so this guards N
    /// connections, not one). `0` disables.
    pub scrape_min_interval_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            replicas: 3,
            vnodes: DEFAULT_VNODES,
            serve_bin: PathBuf::from("m3d-serve"),
            workers: 2,
            queue_depth: 64,
            default_timeout_ms: 120_000,
            probe_interval_ms: 200,
            scrape_min_interval_ms: 25,
        }
    }
}

/// State shared by the accept loop, connection threads and the
/// supervisor.
struct FleetShared {
    ring: Ring,
    replicas: Vec<Replica>,
    metrics: Metrics,
    /// Flight recorder of stitched end-to-end traces: the fleet-wide
    /// view behind the `traces` case (each replica also keeps its own
    /// local recorder).
    traces: TraceSink,
    /// Round-robin cursor for admin forwards.
    rr: AtomicUsize,
    shutdown: AtomicBool,
    /// Cuts the supervisor's wait between probe rounds short once
    /// `shutdown` is set.
    supervisor_lock: Mutex<()>,
    supervisor_wake: Condvar,
    shutdown_replies: ShutdownReplies,
    addr: SocketAddr,
    scrape_min_interval: Duration,
}

impl FleetShared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the supervisor for its draining round. Taking the lock
        // orders this after any wait that missed the flag.
        drop(self.supervisor_lock.lock());
        self.supervisor_wake.notify_all();
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }

    /// Which replicas the ring may currently route to.
    fn routable_mask(&self) -> Vec<bool> {
        self.replicas.iter().map(Replica::is_routable).collect()
    }
}

/// A running gateway: resolved address, threads to join, and the
/// supervised fleet.
pub struct FleetHandle {
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    shared: Arc<FleetShared>,
}

impl FleetHandle {
    /// The gateway's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replica count (configured, not currently-up).
    pub fn replicas(&self) -> usize {
        self.shared.replicas.len()
    }

    /// The announced address of replica `i`, while it is running.
    pub fn replica_addr(&self, i: usize) -> Option<SocketAddr> {
        self.shared.replicas.get(i).and_then(Replica::addr)
    }

    /// The OS pid of replica `i`'s child, while it is running (crash
    /// injection from outside the gateway's own supervision).
    pub fn replica_pid(&self, i: usize) -> Option<u32> {
        self.shared.replicas.get(i).and_then(Replica::pid)
    }

    /// Kills replica `i`'s child outright (crash injection). The
    /// supervisor respawns it after its backoff. Returns `false` for an
    /// out-of-range index.
    pub fn kill_replica(&self, i: usize) -> bool {
        match self.shared.replicas.get(i) {
            Some(r) => {
                r.kill();
                true
            }
            None => false,
        }
    }

    /// Starts a graceful fleet drain, exactly like a
    /// `{"case":"shutdown"}` request.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Joins the accept loop and supervisor, then stops every replica
    /// gracefully; returns once the reply to a shutdown request is
    /// written. Call [`FleetHandle::shutdown`] first or this blocks
    /// forever.
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            t.join().expect("gateway accept thread panicked");
        }
        if let Some(t) = self.supervisor.take() {
            t.join().expect("gateway supervisor thread panicked");
        }
        std::thread::scope(|s| {
            for r in &self.shared.replicas {
                s.spawn(|| r.stop(STOP_GRACE));
            }
        });
        self.shared.shutdown_replies.wait();
    }
}

impl Drop for FleetHandle {
    fn drop(&mut self) {
        // Children must not outlive the gateway; a graceful path has
        // already reaped them and this is a no-op.
        for r in &self.shared.replicas {
            r.kill();
        }
    }
}

/// Spawns the replica fleet, binds the gateway socket, and starts the
/// accept loop and supervisor.
///
/// # Errors
///
/// Propagates bind failures and any replica's initial spawn/announce
/// failure (the fleet starts complete or not at all; *re*spawns are
/// the supervisor's retried-with-backoff job).
pub fn serve_fleet(cfg: &GatewayConfig) -> std::io::Result<FleetHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let rcfg = ReplicaConfig {
        serve_bin: cfg.serve_bin.clone(),
        workers: cfg.workers.max(1),
        queue_depth: cfg.queue_depth.max(1),
        default_timeout_ms: cfg.default_timeout_ms.max(1),
    };
    let replicas: Vec<Replica> = (0..cfg.replicas.max(1))
        .map(|i| Replica::new(i, rcfg.clone()))
        .collect();
    for r in &replicas {
        if let Err(e) = r.spawn_now() {
            for spawned in &replicas {
                spawned.kill();
            }
            return Err(e);
        }
    }

    let shared = Arc::new(FleetShared {
        ring: Ring::new(replicas.len(), cfg.vnodes.max(1)),
        replicas,
        metrics: Metrics::new(),
        traces: TraceSink::default(),
        rr: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        supervisor_lock: Mutex::new(()),
        supervisor_wake: Condvar::new(),
        shutdown_replies: ShutdownReplies::default(),
        addr,
        scrape_min_interval: Duration::from_millis(cfg.scrape_min_interval_ms),
    });

    let supervisor = {
        let shared = Arc::clone(&shared);
        let interval = Duration::from_millis(cfg.probe_interval_ms.clamp(10, 10_000));
        std::thread::Builder::new()
            .name("m3d-gateway-supervisor".to_owned())
            .spawn(move || supervisor_loop(&shared, interval))
            .expect("spawn supervisor")
    };
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("m3d-gateway-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn gateway accept loop")
    };

    Ok(FleetHandle {
        addr,
        accept: Some(accept),
        supervisor: Some(supervisor),
        shared,
    })
}

/// Probes, reaps and respawns replicas, and refreshes the per-replica
/// gauge families, every `interval` until the gateway drains; the
/// draining round runs as soon as shutdown begins.
fn supervisor_loop(shared: &Arc<FleetShared>, interval: Duration) {
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        for r in &shared.replicas {
            r.tick(draining);
            let i = r.index();
            let rec = shared.metrics.recorder();
            rec.gauge_set(&format!("fleet.replica{i}.up"), i64::from(r.is_up()));
            rec.gauge_set(
                &format!("fleet.replica{i}.queue_len"),
                r.queue_len.load(Ordering::SeqCst),
            );
            rec.gauge_set(
                &format!("fleet.replica{i}.in_flight"),
                r.in_flight.load(Ordering::SeqCst),
            );
            rec.gauge_set(
                &format!("fleet.replica{i}.restarts"),
                i64::try_from(r.restarts.load(Ordering::SeqCst)).unwrap_or(i64::MAX),
            );
        }
        if draining {
            return;
        }
        let idle = shared
            .supervisor_lock
            .lock()
            .expect("supervisor lock poisoned");
        let _ = shared
            .supervisor_wake
            .wait_timeout_while(idle, interval, |()| !shared.shutdown.load(Ordering::SeqCst))
            .expect("supervisor lock poisoned");
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<FleetShared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let shared = Arc::clone(shared);
                // A failed spawn drops (closes) this one connection; the
                // loop keeps accepting.
                let _ = std::thread::Builder::new()
                    .name("m3d-gateway-conn".to_owned())
                    .spawn(move || {
                        let _ = handle_connection(&shared, stream);
                    });
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// A pooled forwarding connection to one replica incarnation.
struct ReplicaConn {
    stream: BufReader<TcpStream>,
    /// The address the connection was made to; a respawned replica
    /// announces a new port, which invalidates the pooled connection.
    addr: SocketAddr,
}

/// Reads client request lines and writes one response line each —
/// answered locally or forwarded to a replica. Forwarding connections
/// are pooled per client connection so a client's repeat requests ride
/// one warm TCP path to their owning replica.
fn handle_connection(shared: &Arc<FleetShared>, stream: TcpStream) -> std::io::Result<()> {
    let mut scrapes = ScrapeGate::new(shared.scrape_min_interval);
    let mut pool: HashMap<usize, ReplicaConn> = HashMap::new();
    serve_connection(stream, &shared.shutdown_replies, |req| {
        dispatch(shared, req, &mut scrapes, &mut pool)
    })
}

/// Routes one parsed request and returns the response *line* (local
/// responses serialised, forwarded responses passed through with the
/// serving replica's index tagged into the envelope).
fn dispatch(
    shared: &Arc<FleetShared>,
    req: Request,
    scrapes: &mut ScrapeGate,
    pool: &mut HashMap<usize, ReplicaConn>,
) -> String {
    match req.case.as_str() {
        CASE_HEALTH => return health_response(shared, &req).to_line(),
        CASE_READY => return ready_response(shared, &req).to_line(),
        CASE_STATS => return stats_response(shared, &req).to_line(),
        CASE_METRICS | CASE_METRICS_TEXT => {
            if let Err(wait_ms) = scrapes.admit() {
                shared.metrics.bump("scrapes_limited");
                return Response::Err {
                    id: req.id,
                    code: ErrorCode::Overloaded,
                    error: format!("`{}` scraped too fast on this connection", req.case),
                    retry_after_ms: Some(wait_ms),
                }
                .to_line();
            }
            return metrics_response(shared, &req).to_line();
        }
        CASE_DRAIN | CASE_UNDRAIN => return drain_response(shared, &req).to_line(),
        CASE_TRACES => {
            // Answered locally: the gateway's sink holds the stitched
            // fleet-wide traces (replicas answer with their local view
            // when asked directly).
            return match trace_filter(&req.params) {
                Ok(filter) => ok(&req, shared.traces.render(&filter)).to_line(),
                Err(e) => Response::Err {
                    id: req.id,
                    code: ErrorCode::BadRequest,
                    error: e,
                    retry_after_ms: None,
                }
                .to_line(),
            };
        }
        CASE_SHUTDOWN => {
            shared.begin_shutdown();
            return Response::Ok {
                id: req.id,
                case: req.case.clone(),
                key: key_hex(req.key()),
                cached: false,
                coalesced: false,
                result: Value::Object(vec![("draining".to_owned(), Value::Bool(true))]),
                trace: None,
            }
            .to_line();
        }
        CASE_PING | CASE_CASES => return forward_round_robin(shared, &req, pool),
        other => {
            // Same front door as a single server: reject malformed
            // requests before they cost a forward.
            match registry::find(other) {
                None => {
                    return Response::Err {
                        id: req.id,
                        code: ErrorCode::UnknownCase,
                        error: format!("unknown case `{other}`"),
                        retry_after_ms: None,
                    }
                    .to_line();
                }
                Some(case) => {
                    if let Err(e) = case.validate(req.quick, &req.params) {
                        shared.metrics.bump("rejected");
                        return Response::Err {
                            id: req.id,
                            code: e.code,
                            error: e.message,
                            retry_after_ms: None,
                        }
                        .to_line();
                    }
                }
            }
        }
    }
    forward_routed(shared, &req, pool)
}

/// Forwards an experiment case to its ring owner, retrying ring-
/// adjacent survivors when a replica dies mid-request (idempotent
/// cases, deterministic payloads — a retry is always safe). A
/// `replica` delivery field pins the target instead and never fails
/// over (the cross-replica identity check needs *that* replica's
/// answer or an error, not a silent fallback).
///
/// Every forward opens a `gateway` root span: one `attempt:{k}` child
/// per replica tried (the serving replica's own `req:{case}` subtree
/// stitched under the winning attempt), with `attempts`/`retries`
/// counters on the root. The stitched tree lands in the gateway's
/// flight recorder; when the client sent `trace: true` it also
/// replaces the replica's local trace in the response envelope, so the
/// client sees the whole request end to end.
fn forward_routed(
    shared: &Arc<FleetShared>,
    req: &Request,
    pool: &mut HashMap<usize, ReplicaConn>,
) -> String {
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.metrics.bump("rejected");
        return Response::Err {
            id: req.id,
            code: ErrorCode::Draining,
            error: "gateway is draining".to_owned(),
            retry_after_ms: None,
        }
        .to_line();
    }

    let born = Instant::now();
    let key = req.key();
    // Root the trace here (or adopt an upstream context): replicas are
    // handed a per-attempt child context so their spans join this trace
    // instead of rooting their own.
    let ctx = req
        .trace_ctx
        .unwrap_or_else(|| TraceContext::root(&req.case, key, req.id));
    let mut fwd = req.clone();
    let mut attempts: Vec<SpanNode> = Vec::new();
    let forced = match req.replica {
        Some(k) => match usize::try_from(k) {
            Ok(k) if k < shared.replicas.len() => Some(k),
            _ => {
                shared.metrics.bump("rejected");
                return Response::Err {
                    id: req.id,
                    code: ErrorCode::BadRequest,
                    error: format!(
                        "`replica` {k} out of range (fleet has {})",
                        shared.replicas.len()
                    ),
                    retry_after_ms: None,
                }
                .to_line();
            }
        },
        None => None,
    };

    let mut eligible = shared.routable_mask();
    let max_attempts = if forced.is_some() {
        1
    } else {
        shared.replicas.len()
    };
    for attempt in 0..max_attempts {
        let target = match forced {
            Some(k) => {
                if !shared.replicas[k].is_up() {
                    shared.metrics.bump("rejected");
                    return Response::Err {
                        id: req.id,
                        code: ErrorCode::Overloaded,
                        error: format!("replica {k} is down"),
                        retry_after_ms: Some(NO_REPLICA_RETRY_MS),
                    }
                    .to_line();
                }
                k
            }
            None => match shared.ring.route_available(key, &eligible) {
                Some(t) => t,
                None => break,
            },
        };
        let mut attempt_span = SpanNode::new(format!("attempt:{attempt}"));
        attempt_span.counter("replica", target as u64);
        fwd.trace_ctx = Some(ctx.child(&format!("attempt:{attempt}")));
        let line = fwd.to_line();
        let r = &shared.replicas[target];
        r.in_flight.fetch_add(1, Ordering::SeqCst);
        let sent = forward_line(pool, r, &line);
        r.in_flight.fetch_sub(1, Ordering::SeqCst);
        match sent {
            Ok(resp_line) => {
                shared.metrics.bump("accepted");
                let rec = shared.metrics.recorder();
                rec.incr("gateway.routed", 1);
                rec.incr(&format!("fleet.replica{target}.routed"), 1);
                let elapsed = born.elapsed();
                let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
                shared.metrics.observe_latency_us(elapsed_us);

                let mut fields = match serde_json::from_str_value(resp_line.trim()) {
                    Ok(Value::Object(fields)) => fields,
                    // Not an object (a replica bug): pass it through
                    // untouched, untagged and untraced.
                    _ => return resp_line.trim_end().to_owned(),
                };
                let is_ok = fields
                    .iter()
                    .any(|(n, v)| n == "status" && v.as_u64() == Some(200));
                if is_ok {
                    if let Some(sub) = replica_subtree(&fields, &ctx) {
                        attempt_span.children.push(sub);
                    }
                    attempts.push(attempt_span);
                    let root = gateway_root(elapsed, attempts);
                    shared.metrics.record_span(root.clone());
                    let trace_id = ctx.trace_id_hex();
                    record_trace(
                        shared,
                        StitchedTrace {
                            trace_id: trace_id.clone(),
                            case: req.case.clone(),
                            wall_us: elapsed_us,
                            root: root.clone(),
                        },
                    );
                    if req.trace {
                        let doc = Value::Object(vec![
                            ("trace_id".to_owned(), Value::Str(trace_id)),
                            ("root".to_owned(), root.to_value(false)),
                        ]);
                        match fields.iter_mut().find(|(n, _)| n == "trace") {
                            Some((_, v)) => *v = doc,
                            None => fields.push(("trace".to_owned(), doc)),
                        }
                    }
                }
                fields.push(("replica".to_owned(), Value::U64(target as u64)));
                return serde_json::to_string(&Value::Object(fields))
                    .expect("response re-serialises");
            }
            Err(_) => {
                // The connection died with the replica: stop routing
                // here now (the supervisor confirms and respawns) and
                // retry the next ring-adjacent survivor.
                attempt_span.counter("failed", 1);
                attempts.push(attempt_span);
                r.mark_down();
                eligible[target] = false;
                shared.metrics.recorder().incr("gateway.retried", 1);
            }
        }
    }

    shared.metrics.bump("rejected");
    Response::Err {
        id: req.id,
        code: ErrorCode::Overloaded,
        error: "no routable replica".to_owned(),
        retry_after_ms: Some(NO_REPLICA_RETRY_MS),
    }
    .to_line()
}

/// Forwards an admin case (`ping`, `cases`) to the next live replica
/// round-robin — these are replica-agnostic, so spreading them doubles
/// as a cheap liveness exercise of the whole fleet.
fn forward_round_robin(
    shared: &Arc<FleetShared>,
    req: &Request,
    pool: &mut HashMap<usize, ReplicaConn>,
) -> String {
    let line = req.to_line();
    let n = shared.replicas.len();
    for _ in 0..n {
        let target = shared.rr.fetch_add(1, Ordering::SeqCst) % n;
        let r = &shared.replicas[target];
        if !r.is_up() {
            continue;
        }
        match forward_line(pool, r, &line) {
            Ok(resp_line) => {
                shared.metrics.recorder().incr("gateway.admin_forwarded", 1);
                return tag_replica(&resp_line, target);
            }
            Err(_) => {
                r.mark_down();
                shared.metrics.recorder().incr("gateway.retried", 1);
            }
        }
    }
    Response::Err {
        id: req.id,
        code: ErrorCode::Overloaded,
        error: "no routable replica".to_owned(),
        retry_after_ms: Some(NO_REPLICA_RETRY_MS),
    }
    .to_line()
}

/// Sends one request line over the pooled connection to `replica`,
/// reconnecting when there is none yet or the replica was respawned on
/// a new port. Any I/O failure invalidates the pooled connection.
fn forward_line(
    pool: &mut HashMap<usize, ReplicaConn>,
    replica: &Replica,
    line: &str,
) -> Result<String, String> {
    let addr = replica.addr().ok_or("replica has no address")?;
    let stale = pool.get(&replica.index()).is_none_or(|c| c.addr != addr);
    if stale {
        let stream =
            TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        pool.insert(
            replica.index(),
            ReplicaConn {
                stream: BufReader::new(stream),
                addr,
            },
        );
    }
    let conn = pool.get_mut(&replica.index()).expect("just inserted");
    let io = (|| -> std::io::Result<String> {
        conn.stream.get_mut().write_all(line.as_bytes())?;
        conn.stream.get_mut().write_all(b"\n")?;
        conn.stream.get_mut().flush()?;
        let mut resp = String::new();
        if conn.stream.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "replica closed the connection",
            ));
        }
        Ok(resp)
    })();
    match io {
        Ok(resp) => Ok(resp),
        Err(e) => {
            pool.remove(&replica.index());
            Err(e.to_string())
        }
    }
}

/// Assembles the gateway root span over the attempt spans (the last
/// attempt is the serving one, carrying the replica's subtree).
fn gateway_root(elapsed: Duration, attempts: Vec<SpanNode>) -> SpanNode {
    let mut root = SpanNode::new("gateway");
    root.wall_ms = elapsed.as_secs_f64() * 1.0e3;
    root.counter("attempts", attempts.len() as u64);
    root.counter("retries", attempts.len() as u64 - 1);
    root.children = attempts;
    root
}

/// Pulls the replica's span subtree out of a forwarded response
/// envelope, accepting it only when it belongs to this trace and
/// parses cleanly (a replica that answers garbage costs us its
/// subtree, not the whole stitched trace).
fn replica_subtree(fields: &[(String, Value)], ctx: &TraceContext) -> Option<SpanNode> {
    let doc = fields.iter().find(|(n, _)| n == "trace").map(|(_, v)| v)?;
    match doc.get("trace_id") {
        Some(Value::Str(id)) if *id == ctx.trace_id_hex() => {}
        _ => return None,
    }
    SpanNode::from_value(doc.get("root")?).ok()
}

/// Records one stitched trace into the gateway's flight recorder,
/// mirroring the sink accounting into the metrics counters.
fn record_trace(shared: &FleetShared, trace: StitchedTrace) {
    let outcome = shared.traces.record(trace);
    let rec = shared.metrics.recorder();
    rec.incr("trace.recorded", 1);
    if outcome.dropped {
        rec.incr("trace.dropped", 1);
    }
    if outcome.slow_retained {
        rec.incr("trace.slow_retained", 1);
    }
}

/// Tags the serving replica's index into the response envelope so
/// clients can attribute responses without the tag ever touching the
/// deterministic `result` payload.
fn tag_replica(resp_line: &str, replica: usize) -> String {
    match serde_json::from_str_value(resp_line.trim()) {
        Ok(Value::Object(mut fields)) => {
            fields.push(("replica".to_owned(), Value::U64(replica as u64)));
            serde_json::to_string(&Value::Object(fields)).expect("response re-serialises")
        }
        // Not an object (a replica bug): pass it through untouched.
        _ => resp_line.trim_end().to_owned(),
    }
}

fn ok(req: &Request, result: Value) -> Response {
    Response::Ok {
        id: req.id,
        case: req.case.clone(),
        key: key_hex(req.key()),
        cached: false,
        coalesced: false,
        result,
        trace: None,
    }
}

fn health_response(shared: &Arc<FleetShared>, req: &Request) -> Response {
    let up = shared.replicas.iter().filter(|r| r.is_up()).count();
    ok(
        req,
        Value::Object(vec![
            ("healthy".to_owned(), Value::Bool(true)),
            (
                "draining".to_owned(),
                Value::Bool(shared.shutdown.load(Ordering::SeqCst)),
            ),
            (
                "replicas".to_owned(),
                Value::U64(shared.replicas.len() as u64),
            ),
            ("replicas_up".to_owned(), Value::U64(up as u64)),
        ]),
    )
}

fn ready_response(shared: &Arc<FleetShared>, req: &Request) -> Response {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let routable = shared.replicas.iter().filter(|r| r.is_routable()).count();
    let queue_len: i64 = shared
        .replicas
        .iter()
        .map(|r| r.queue_len.load(Ordering::SeqCst).max(0))
        .sum();
    ok(
        req,
        Value::Object(vec![
            ("ready".to_owned(), Value::Bool(!draining && routable > 0)),
            ("draining".to_owned(), Value::Bool(draining)),
            ("replicas_routable".to_owned(), Value::U64(routable as u64)),
            (
                "queue_len".to_owned(),
                Value::U64(u64::try_from(queue_len).unwrap_or(0)),
            ),
        ]),
    )
}

fn stats_response(shared: &Arc<FleetShared>, req: &Request) -> Response {
    let rec = shared.metrics.recorder();
    let replicas = Value::Array(
        shared
            .replicas
            .iter()
            .map(|r| {
                let i = r.index();
                Value::Object(vec![
                    ("index".to_owned(), Value::U64(i as u64)),
                    (
                        "pid".to_owned(),
                        r.pid().map_or(Value::Null, |p| Value::U64(u64::from(p))),
                    ),
                    (
                        "addr".to_owned(),
                        r.addr().map_or(Value::Null, |a| Value::Str(a.to_string())),
                    ),
                    ("up".to_owned(), Value::Bool(r.is_up())),
                    ("draining".to_owned(), Value::Bool(r.is_draining())),
                    (
                        "restarts".to_owned(),
                        Value::U64(r.restarts.load(Ordering::SeqCst)),
                    ),
                    (
                        "routed".to_owned(),
                        Value::U64(rec.counter(&format!("fleet.replica{i}.routed"))),
                    ),
                    (
                        "in_flight".to_owned(),
                        Value::I64(r.in_flight.load(Ordering::SeqCst)),
                    ),
                    (
                        "queue_len".to_owned(),
                        Value::I64(r.queue_len.load(Ordering::SeqCst)),
                    ),
                ])
            })
            .collect(),
    );
    let up = shared.replicas.iter().filter(|r| r.is_up()).count();
    ok(
        req,
        Value::Object(vec![
            ("metrics".to_owned(), shared.metrics.counters_snapshot()),
            (
                "gateway".to_owned(),
                Value::Object(vec![
                    (
                        "routed".to_owned(),
                        Value::U64(rec.counter("gateway.routed")),
                    ),
                    (
                        "retried".to_owned(),
                        Value::U64(rec.counter("gateway.retried")),
                    ),
                    (
                        "drained".to_owned(),
                        Value::U64(rec.counter("gateway.drained")),
                    ),
                    (
                        "admin_forwarded".to_owned(),
                        Value::U64(rec.counter("gateway.admin_forwarded")),
                    ),
                ]),
            ),
            ("replicas".to_owned(), replicas),
            ("replicas_up".to_owned(), Value::U64(up as u64)),
            (
                "draining".to_owned(),
                Value::Bool(shared.shutdown.load(Ordering::SeqCst)),
            ),
        ]),
    )
}

/// The fleet-wide metrics view: every live replica's counters summed
/// under their plain names (so a `metrics` scrape against the gateway
/// reads like one big server), the gateway's own counters under a
/// `gateway.` prefix (its `fleet.replica*` families keep their names),
/// the per-replica gauge families, and the gateway's own latency
/// histogram. Replica histograms are not aggregated — only counts
/// cross the wire, not bucket edges.
fn fleet_counters(shared: &Arc<FleetShared>) -> Vec<(String, u64)> {
    let mut merged: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for r in &shared.replicas {
        let Some(addr) = r.addr().filter(|_| r.is_up()) else {
            continue;
        };
        let resp = send_one(addr, &Request::new(0, CASE_METRICS, Value::Null));
        if let Ok(Response::Ok { result, .. }) = resp {
            if let Some(Value::Object(counters)) = result.get("counters") {
                for (name, v) in counters {
                    if let Some(n) = v.as_u64() {
                        *merged.entry(name.clone()).or_insert(0) += n;
                    }
                }
            }
        }
    }
    for (name, v) in shared.metrics.recorder().counters_sorted() {
        let key = if name.starts_with("fleet.") || name.starts_with("gateway.") {
            name
        } else {
            format!("gateway.{name}")
        };
        *merged.entry(key).or_insert(0) += v;
    }
    // The gateway's own span-ring accounting (stitched request spans),
    // namespaced apart from the replicas' summed `spans.*` families.
    for (name, v) in span_ring_counters(shared.metrics.recorder()) {
        *merged.entry(format!("gateway.{name}")).or_insert(0) += v;
    }
    merged.into_iter().collect()
}

fn metrics_response(shared: &Arc<FleetShared>, req: &Request) -> Response {
    let counters = fleet_counters(shared);
    let gauges = shared.metrics.recorder().gauges_sorted();
    let hists = shared.metrics.recorder().hists_sorted();
    if req.case == CASE_METRICS_TEXT {
        return ok(
            req,
            Value::Object(vec![(
                "text".to_owned(),
                Value::Str(render_parts(&counters, &gauges, &hists)),
            )]),
        );
    }
    ok(
        req,
        Value::Object(vec![
            (
                "counters".to_owned(),
                Value::Object(
                    counters
                        .into_iter()
                        .map(|(n, v)| (n, Value::U64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Value::Object(
                    gauges
                        .into_iter()
                        .map(|(n, v)| (n, Value::I64(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Value::Object(hists.into_iter().map(|(n, h)| (n, h.to_value())).collect()),
            ),
            (
                "spans".to_owned(),
                Value::Object(vec![
                    (
                        "dropped".to_owned(),
                        Value::U64(shared.metrics.recorder().spans_dropped()),
                    ),
                    (
                        "recorded".to_owned(),
                        Value::U64(shared.metrics.recorder().spans_recorded()),
                    ),
                    (
                        "retained".to_owned(),
                        Value::U64(shared.metrics.recorder().spans_retained() as u64),
                    ),
                ]),
            ),
        ]),
    )
}

/// Handles the gateway-only `drain`/`undrain` cases: take one replica
/// out of (or back into) the routing ring without touching its process.
fn drain_response(shared: &Arc<FleetShared>, req: &Request) -> Response {
    let k = match req.params.get("replica").and_then(Value::as_u64) {
        Some(k) => k,
        None => {
            return Response::Err {
                id: req.id,
                code: ErrorCode::BadRequest,
                error: "`drain`/`undrain` need params `{\"replica\": K}`".to_owned(),
                retry_after_ms: None,
            }
        }
    };
    let Some(r) = usize::try_from(k).ok().and_then(|k| shared.replicas.get(k)) else {
        return Response::Err {
            id: req.id,
            code: ErrorCode::BadRequest,
            error: format!(
                "`replica` {k} out of range (fleet has {})",
                shared.replicas.len()
            ),
            retry_after_ms: None,
        };
    };
    let draining = req.case == CASE_DRAIN;
    r.set_draining(draining);
    if draining {
        shared.metrics.recorder().incr("gateway.drained", 1);
    }
    ok(
        req,
        Value::Object(vec![
            ("replica".to_owned(), Value::U64(k)),
            ("draining".to_owned(), Value::Bool(draining)),
        ]),
    )
}
