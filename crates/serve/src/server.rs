//! The service: TCP accept loop, connection handlers, and the shared
//! worker pool.
//!
//! ```text
//!  client ──NDJSON──▶ connection thread ──▶ bounded queue ──▶ worker pool
//!                         │    ▲                                  │
//!                         │    └──── response slot (Condvar) ◀────┤
//!                         ▼                                       ▼
//!                    429/503 shed                   response cache + InFlight
//!                                                   FlowCache + ThermalCache
//! ```
//!
//! Every request resolves to a content key; the worker pool runs each
//! key at most once concurrently (single-flight) and at most once ever
//! (response cache), so N concurrent identical requests trigger one
//! case execution — one *flow* execution for `pd_flow` — and everyone
//! receives byte-identical payloads. The queue is bounded: when it is
//! full the connection thread answers 429 with a `retry_after_ms` hint
//! instead of buffering unboundedly. Shutdown (`{"case":"shutdown"}` or
//! [`Handle::shutdown`]) drains: queued work completes, new work is
//! refused with 503, workers exit when the queue runs dry.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use m3d_bench::registry::{self, CaseCtx};
use m3d_core::engine::{as_worker, Flight, FlowCache, InFlight, Pipeline};
use m3d_core::obs::{
    Provenance, Recorder, SpanNode, StitchedTrace, TraceContext, TraceFilter, TraceSink,
};
use m3d_core::ErrorCode;
use m3d_thermal::ThermalCache;
use serde::Value;

use crate::metrics::Metrics;
use crate::protocol::{
    key_hex, serve_connection, Request, Response, ShutdownReplies, CASE_CASES, CASE_HEALTH,
    CASE_METRICS, CASE_METRICS_TEXT, CASE_PING, CASE_READY, CASE_SHUTDOWN, CASE_STATS, CASE_TRACES,
};
use crate::queue::{Bounded, PushError};

/// Backpressure hint clients receive with a 429.
const RETRY_AFTER_MS: u64 = 100;

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Handle::addr`]).
    pub addr: String,
    /// Worker threads executing cases: the server's parallelism. Each
    /// worker runs its request's sweeps ([`m3d_core::engine::par_map`])
    /// on its own thread, whatever `M3D_JOBS` says.
    pub workers: usize,
    /// Bounded queue depth; pushes beyond it are refused with 429.
    pub queue_depth: usize,
    /// Default per-request deadline (overridable per request via
    /// `timeout_ms`).
    pub default_timeout_ms: u64,
    /// Minimum interval between `metrics`/`metrics_text` scrapes on one
    /// connection; a faster scraper gets 429 + `retry_after_ms` instead
    /// of occupying the handler with snapshot rendering. `0` disables
    /// the limit.
    pub scrape_min_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            queue_depth: 64,
            default_timeout_ms: 120_000,
            scrape_min_interval_ms: 25,
        }
    }
}

/// Per-connection scrape cadence limiter for the `metrics` /
/// `metrics_text` cases. One gate covers both cases: a scraper
/// alternating them is still held to the interval.
pub(crate) struct ScrapeGate {
    min_interval: Duration,
    last: Option<Instant>,
}

impl ScrapeGate {
    pub(crate) fn new(min_interval: Duration) -> Self {
        Self {
            min_interval,
            last: None,
        }
    }

    /// Admits the scrape (recording its time) or returns how many
    /// milliseconds the caller should wait before retrying.
    pub(crate) fn admit(&mut self) -> Result<(), u64> {
        let now = Instant::now();
        if self.min_interval > Duration::ZERO {
            if let Some(last) = self.last {
                let elapsed = now.saturating_duration_since(last);
                if elapsed < self.min_interval {
                    let wait = (self.min_interval - elapsed).as_millis() as u64;
                    return Err(wait.max(1));
                }
            }
        }
        self.last = Some(now);
        Ok(())
    }
}

/// A finished case, shared between the response cache, in-flight
/// followers and every envelope that replays it.
struct Computed {
    result: Value,
    /// The *case* reported an internal cache hit (flow/thermal cache).
    deep_hit: bool,
    /// The stage spans the leader's pipeline captured while computing
    /// (pd-flow/thermal sub-spans included). Only the leading request
    /// claims them in its trace — cache hits and coalesced followers
    /// did not run the stages, and their traces say so.
    spans: Vec<SpanNode>,
}

/// One queued request and the slot its connection thread waits on.
struct Job {
    req: Request,
    key: u64,
    born: Instant,
    deadline: Instant,
    slot: Arc<Slot>,
}

/// Single-use rendezvous between a worker and a connection thread.
struct Slot {
    response: Mutex<Option<Response>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            response: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, resp: Response) {
        *self.response.lock().expect("slot poisoned") = Some(resp);
        self.ready.notify_all();
    }

    /// Blocks until the worker fulfills the slot. Safe without a
    /// timeout: every successfully queued job is popped and fulfilled,
    /// even during a drain.
    fn wait(&self) -> Response {
        let mut guard = self.response.lock().expect("slot poisoned");
        loop {
            if let Some(resp) = guard.take() {
                return resp;
            }
            guard = self.ready.wait(guard).expect("slot poisoned");
        }
    }
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    flows: FlowCache,
    thermals: ThermalCache,
    responses: Mutex<HashMap<u64, Arc<Computed>>>,
    inflight: InFlight<Arc<Computed>>,
    queue: Bounded<Job>,
    metrics: Metrics,
    traces: TraceSink,
    shutdown: AtomicBool,
    shutdown_replies: ShutdownReplies,
    addr: SocketAddr,
    default_timeout: Duration,
    scrape_min_interval: Duration,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        self.queue.close();
        // Unblock the accept loop so it can observe the flag; errors are
        // irrelevant (the listener may already be gone).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// A running server: its resolved address and the threads to join.
pub struct Handle {
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Handle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain, exactly like a `{"case":"shutdown"}`
    /// request.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Joins the accept loop and the worker pool; returns once queued
    /// work has drained and the reply to a shutdown request is written.
    /// Call [`Handle::shutdown`] (or send the shutdown case) first, or
    /// this blocks forever.
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            t.join().expect("accept thread panicked");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        self.shared.shutdown_replies.wait();
    }
}

/// Binds, spawns the worker pool and the accept loop, and returns
/// immediately.
///
/// # Errors
///
/// Propagates socket bind failures.
pub fn serve(cfg: &ServerConfig) -> std::io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        flows: FlowCache::persistent(),
        thermals: ThermalCache::new(),
        responses: Mutex::new(HashMap::new()),
        inflight: InFlight::new(),
        queue: Bounded::new(cfg.queue_depth.max(1)),
        metrics: Metrics::new(),
        traces: TraceSink::default(),
        shutdown: AtomicBool::new(false),
        shutdown_replies: ShutdownReplies::default(),
        addr,
        default_timeout: Duration::from_millis(cfg.default_timeout_ms.clamp(1, 3_600_000)),
        scrape_min_interval: Duration::from_millis(cfg.scrape_min_interval_ms),
    });

    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("m3d-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("m3d-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn accept loop")
    };

    Ok(Handle {
        addr,
        accept: Some(accept),
        workers,
        shared,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break; // the drain's wake-up connection (or later)
                }
                let shared = Arc::clone(shared);
                // A failed spawn drops (closes) this one connection; the
                // loop keeps accepting.
                let _ = std::thread::Builder::new()
                    .name("m3d-serve-conn".to_owned())
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
    // Redundant after a shutdown request, but makes `Handle::shutdown`
    // → accept-exit → drain ordering airtight.
    shared.queue.close();
}

/// Reads request lines and writes one response line each, in order.
/// Connection threads block while their request is in flight, so one
/// connection contributes at most one queue slot at a time — client
/// concurrency comes from concurrent connections.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    let mut scrapes = ScrapeGate::new(shared.scrape_min_interval);
    serve_connection(stream, &shared.shutdown_replies, |req| {
        dispatch(shared, req, &mut scrapes).to_line()
    })
}

/// Routes one parsed request: admin cases inline, experiment cases
/// through the queue and worker pool.
fn dispatch(shared: &Arc<Shared>, req: Request, scrapes: &mut ScrapeGate) -> Response {
    let case = match req.case.as_str() {
        CASE_PING => {
            return admin_ok(
                &req,
                Value::Object(vec![("pong".to_owned(), Value::Bool(true))]),
            )
        }
        CASE_HEALTH => {
            // Liveness: true as long as the connection handler runs,
            // draining or not — the fleet supervisor uses `ready` to
            // decide routing and this case to decide respawning.
            return admin_ok(
                &req,
                Value::Object(vec![
                    ("healthy".to_owned(), Value::Bool(true)),
                    (
                        "draining".to_owned(),
                        Value::Bool(shared.shutdown.load(Ordering::SeqCst)),
                    ),
                ]),
            );
        }
        CASE_READY => {
            let draining = shared.shutdown.load(Ordering::SeqCst);
            return admin_ok(
                &req,
                Value::Object(vec![
                    ("ready".to_owned(), Value::Bool(!draining)),
                    ("draining".to_owned(), Value::Bool(draining)),
                    (
                        "queue_len".to_owned(),
                        Value::U64(shared.queue.len() as u64),
                    ),
                ]),
            );
        }
        CASE_STATS => return stats_response(shared, &req),
        CASE_METRICS => {
            if let Err(wait_ms) = scrapes.admit() {
                shared.metrics.bump("scrapes_limited");
                return scrape_limited(&req, wait_ms);
            }
            // Per-server request counters plus the process-global
            // engine recorder (flow/thermal caches, sweeps, pd-flow
            // tallies) in one snapshot — the namespaces are disjoint.
            return admin_ok(&req, shared.metrics.merged_snapshot(Recorder::global()));
        }
        CASE_METRICS_TEXT => {
            if let Err(wait_ms) = scrapes.admit() {
                shared.metrics.bump("scrapes_limited");
                return scrape_limited(&req, wait_ms);
            }
            return admin_ok(
                &req,
                Value::Object(vec![(
                    "text".to_owned(),
                    Value::Str(shared.metrics.merged_text(Recorder::global())),
                )]),
            );
        }
        CASE_TRACES => {
            return match trace_filter(&req.params) {
                Ok(filter) => admin_ok(&req, shared.traces.render(&filter)),
                Err(e) => Response::Err {
                    id: req.id,
                    code: ErrorCode::BadRequest,
                    error: e,
                    retry_after_ms: None,
                },
            };
        }
        CASE_SHUTDOWN => {
            shared.begin_shutdown();
            return admin_ok(
                &req,
                Value::Object(vec![("draining".to_owned(), Value::Bool(true))]),
            );
        }
        CASE_CASES => {
            return admin_ok(&req, cases_listing());
        }
        other => match registry::find(other) {
            None => {
                return Response::Err {
                    id: req.id,
                    code: ErrorCode::UnknownCase,
                    error: format!("unknown case `{other}`"),
                    retry_after_ms: None,
                };
            }
            Some(case) => case,
        },
    };

    let born = Instant::now();
    let key = req.key();
    // Fast path: an identical request already completed. Only requests
    // that validated are cached, and the key covers the case, `quick`
    // and the canonical params, so a hit needs no re-validation (for
    // `ingest` that would be a full parse of the upload).
    if let Some(done) = shared
        .responses
        .lock()
        .expect("responses poisoned")
        .get(&key)
    {
        let done = Arc::clone(done);
        let trace = finish_request(shared, &req, key, born, Provenance::CacheHit, &[]);
        return ok_envelope(&req, key, done, true, false, trace);
    }
    // Typed-params validation before queueing: a malformed request is
    // rejected before it occupies a queue slot or worker.
    if let Err(e) = case.validate(req.quick, &req.params) {
        shared.metrics.bump("rejected");
        return Response::Err {
            id: req.id,
            code: e.code,
            error: e.message,
            retry_after_ms: None,
        };
    }

    let timeout = req
        .timeout_ms
        .map_or(shared.default_timeout, Duration::from_millis);
    let job = Job {
        key,
        born,
        deadline: born + timeout,
        slot: Slot::new(),
        req,
    };
    let slot = Arc::clone(&job.slot);
    let (id, retriable) = (job.req.id, job.req.case.clone());
    // Depth observed *before* this push: the distribution of what an
    // arriving request finds ahead of it.
    shared
        .metrics
        .observe_queue_depth(shared.queue.len() as u64);
    match shared.queue.push(job) {
        Ok(()) => {
            shared.metrics.bump("accepted");
            slot.wait()
        }
        Err(PushError::Full { depth }) => {
            shared.metrics.bump("rejected");
            Response::Err {
                id,
                code: ErrorCode::Overloaded,
                error: format!("queue full ({depth} deep) — retry `{retriable}` later"),
                retry_after_ms: Some(RETRY_AFTER_MS),
            }
        }
        Err(PushError::Closed) => {
            shared.metrics.bump("rejected");
            Response::Err {
                id,
                code: ErrorCode::Draining,
                error: "server is draining".to_owned(),
                retry_after_ms: None,
            }
        }
    }
}

/// An OK envelope for an inline admin case (never cached, coalesced or
/// traced).
fn admin_ok(req: &Request, result: Value) -> Response {
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

/// Parses the optional `traces` filter params: `{case, trace_id,
/// min_wall_us}`, all optional, unknown fields rejected.
pub(crate) fn trace_filter(params: &Value) -> Result<TraceFilter, String> {
    let mut filter = TraceFilter::default();
    let fields = match params {
        Value::Null => return Ok(filter),
        Value::Object(fields) => fields,
        _ => return Err("`traces` params must be an object".to_owned()),
    };
    for (k, v) in fields {
        match (k.as_str(), v) {
            ("case", Value::Str(s)) => filter.case = Some(s.clone()),
            ("trace_id", Value::Str(s)) => filter.trace_id = Some(s.clone()),
            ("min_wall_us", x) => {
                filter.min_wall_us = x
                    .as_u64()
                    .ok_or("`min_wall_us` must be a non-negative integer")?;
            }
            ("case" | "trace_id", _) => {
                return Err(format!("`{k}` must be a string"));
            }
            (other, _) => return Err(format!("unknown `traces` filter field `{other}`")),
        }
    }
    Ok(filter)
}

/// The 429 a too-eager `metrics`/`metrics_text` scraper receives: retry
/// after the remainder of the per-connection minimum interval.
fn scrape_limited(req: &Request, wait_ms: u64) -> Response {
    Response::Err {
        id: req.id,
        code: ErrorCode::Overloaded,
        error: format!("`{}` scraped too fast on this connection", req.case),
        retry_after_ms: Some(wait_ms),
    }
}

/// The `cases` admin payload: every registered experiment case with its
/// summary and parameter schema, in registry order. Served straight off
/// the registry, so the listing can never drift from dispatch.
fn cases_listing() -> Value {
    Value::Object(vec![(
        "cases".to_owned(),
        Value::Array(
            registry::registry()
                .iter()
                .map(|case| {
                    Value::Object(vec![
                        ("name".to_owned(), Value::Str(case.name().to_owned())),
                        ("summary".to_owned(), Value::Str(case.summary().to_owned())),
                        (
                            "params".to_owned(),
                            Value::Array(
                                case.param_fields()
                                    .iter()
                                    .map(|f| {
                                        Value::Object(vec![
                                            ("name".to_owned(), Value::Str(f.name.to_owned())),
                                            (
                                                "default".to_owned(),
                                                Value::Str(f.default.to_owned()),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Books a request's terminal accounting: outcome counter, end-to-end
/// latency sample, a per-request span on the metrics recorder, and the
/// request's trace on the flight recorder. `children` are the stage
/// spans the leader's pipeline captured (empty for cache hits and
/// coalesced followers — they did not run the stages).
///
/// Returns the inline trace document `{trace_id, root}` when the
/// request opted in with `trace: true`: the `req:{case}` span subtree
/// in deterministic rendering, parented under the inbound
/// [`TraceContext`] when the gateway supplied one (same derivation
/// otherwise, so direct and fleet-routed traces share ids).
fn finish_request(
    shared: &Shared,
    req: &Request,
    key: u64,
    born: Instant,
    provenance: Provenance,
    children: &[SpanNode],
) -> Option<Value> {
    shared.metrics.bump(match provenance {
        // Warm-started requests still executed the case end to end; the
        // flow-cache warm counter (surfaced in `stats`) carries the
        // seed-reuse signal.
        Provenance::Computed | Provenance::Warm => "executed",
        Provenance::CacheHit | Provenance::DiskHit => "cache_hits",
        Provenance::Coalesced => "coalesced",
    });
    let elapsed = born.elapsed();
    let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    shared.metrics.observe_latency_us(elapsed_us);
    let mut span = SpanNode::new(format!("req:{}", req.case));
    span.wall_ms = elapsed.as_secs_f64() * 1.0e3;
    span.provenance = provenance;
    span.children = children.to_vec();
    shared.metrics.record_span(span.clone());

    let ctx = req
        .trace_ctx
        .unwrap_or_else(|| TraceContext::root(&req.case, key, req.id));
    let trace_id = ctx.trace_id_hex();
    let outcome = shared.traces.record(StitchedTrace {
        trace_id: trace_id.clone(),
        case: req.case.clone(),
        wall_us: elapsed_us,
        root: span.clone(),
    });
    let rec = shared.metrics.recorder();
    rec.incr("trace.recorded", 1);
    if outcome.dropped {
        rec.incr("trace.dropped", 1);
    }
    if outcome.slow_retained {
        rec.incr("trace.slow_retained", 1);
    }
    req.trace.then(|| {
        Value::Object(vec![
            ("trace_id".to_owned(), Value::Str(trace_id)),
            ("root".to_owned(), span.to_value(false)),
        ])
    })
}

/// The workers already fill the cores, so each runs its request's
/// sweeps on its own thread instead of spawning more.
fn worker_loop(shared: &Arc<Shared>) {
    as_worker(|| {
        while let Some(job) = shared.queue.pop() {
            let resp = execute(shared, &job);
            job.slot.fulfill(resp);
        }
    });
}

/// Runs one dequeued job under deadline, response-cache and
/// single-flight discipline.
fn execute(shared: &Arc<Shared>, job: &Job) -> Response {
    let now = Instant::now();
    if now >= job.deadline {
        shared.metrics.bump("timed_out");
        return timeout_response(job);
    }
    // The key may have completed while this job sat queued.
    if let Some(done) = shared
        .responses
        .lock()
        .expect("responses poisoned")
        .get(&job.key)
    {
        let done = Arc::clone(done);
        let trace = finish_request(
            shared,
            &job.req,
            job.key,
            job.born,
            Provenance::CacheHit,
            &[],
        );
        return ok_envelope(&job.req, job.key, done, true, false, trace);
    }

    let flown = shared.inflight.run(job.key, Some(job.deadline), || {
        // A pipeline rides along so the leader's trace carries the
        // stage spans (pd-flow sub-spans included) the case records.
        let pipeline = std::sync::Mutex::new(Pipeline::new());
        let ctx = CaseCtx::new(&shared.flows, &shared.thermals).with_pipeline(&pipeline);
        let case = registry::find(&job.req.case).expect("checked at dispatch");
        case.run(&ctx, job.req.quick, &job.req.params)
            .map(|outcome| {
                let done = Arc::new(Computed {
                    result: outcome.result,
                    deep_hit: outcome.cache_hit,
                    spans: pipeline
                        .into_inner()
                        .expect("pipeline poisoned")
                        .spans()
                        .to_vec(),
                });
                // Cached before the key leaves flight: a request that
                // arrives once the followers are released must find it
                // here rather than lead a second computation.
                shared
                    .responses
                    .lock()
                    .expect("responses poisoned")
                    .insert(job.key, Arc::clone(&done));
                done
            })
    });
    match flown {
        Ok((Some(done), Flight::Led)) => {
            let trace = finish_request(
                shared,
                &job.req,
                job.key,
                job.born,
                Provenance::Computed,
                &done.spans,
            );
            let deep_hit = done.deep_hit;
            ok_envelope(&job.req, job.key, done, deep_hit, false, trace)
        }
        Ok((Some(done), _)) => {
            let trace = finish_request(
                shared,
                &job.req,
                job.key,
                job.born,
                Provenance::Coalesced,
                &[],
            );
            ok_envelope(&job.req, job.key, done, false, true, trace)
        }
        Ok((None, _)) => {
            shared.metrics.bump("timed_out");
            timeout_response(job)
        }
        Err(e) => {
            shared.metrics.bump("failed");
            Response::Err {
                id: job.req.id,
                code: e.code,
                error: e.message,
                retry_after_ms: None,
            }
        }
    }
}

fn ok_envelope(
    req: &Request,
    key: u64,
    done: Arc<Computed>,
    cached: bool,
    coalesced: bool,
    trace: Option<Value>,
) -> Response {
    Response::Ok {
        id: req.id,
        case: req.case.clone(),
        key: key_hex(key),
        cached,
        coalesced,
        result: done.result.clone(),
        trace,
    }
}

fn timeout_response(job: &Job) -> Response {
    Response::Err {
        id: job.req.id,
        code: ErrorCode::Deadline,
        error: format!("deadline exceeded for `{}`", job.req.case),
        retry_after_ms: None,
    }
}

fn stats_response(shared: &Arc<Shared>, req: &Request) -> Response {
    let cache_stats = |s: m3d_core::engine::CacheStats| {
        Value::Object(vec![
            ("hits".to_owned(), Value::U64(s.hits)),
            ("misses".to_owned(), Value::U64(s.misses)),
            ("disk_hits".to_owned(), Value::U64(s.disk_hits)),
        ])
    };
    let result = Value::Object(vec![
        ("metrics".to_owned(), shared.metrics.counters_snapshot()),
        ("engine".to_owned(), Recorder::global().counters_value()),
        ("flow_cache".to_owned(), cache_stats(shared.flows.stats())),
        (
            "flow_coalesced".to_owned(),
            Value::U64(shared.flows.coalesced_count()),
        ),
        (
            "flow_warm_hits".to_owned(),
            Value::U64(shared.flows.warm_count()),
        ),
        (
            "thermal_cache".to_owned(),
            cache_stats(shared.thermals.stats()),
        ),
        (
            "response_cache_len".to_owned(),
            Value::U64(shared.responses.lock().expect("responses poisoned").len() as u64),
        ),
        (
            "queue_len".to_owned(),
            Value::U64(shared.queue.len() as u64),
        ),
        (
            "draining".to_owned(),
            Value::Bool(shared.shutdown.load(Ordering::SeqCst)),
        ),
    ]);
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
