//! The workloads: set-up, the op each times, and its output check.
//!
//! `fig2_cold` runs a closed loop on the calling thread; `serve_mixed`
//! runs rounds of one closed-loop client per core against a fresh
//! in-process `m3d_serve` server.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use m3d_bench::registry::{self, Case, CaseCtx};
use m3d_core::engine::FlowCache;
use m3d_serve::{serve, Handle, Request, Response, ServerConfig};
use m3d_thermal::ThermalCache;
use serde::Value;

use crate::client::Client;
use crate::inputs::{digest, CaseRequest, ServeStream, ROUND_REQUESTS};
use crate::pins::Pins;
use crate::trace::{Scope, Tracer};

/// The workloads, in `BENCHMARK.json` order. Two more were built and
/// left out as unsteady on a shared 2-core host whose speed swung by up
/// to 2× with other tenants' load: one warm-started M3D(8) sign-off point
/// per op (`sweep_warm`, 10-seed p50 spread up to 0.39 at `M3D_JOBS=1`)
/// and one paper-size `obs10_thermal` per op (`thermal_cap`, up to 0.31),
/// against a 0.25 cap on bounds. The traced probe still measures the warm
/// engine path and the thermal layer.
pub const NAMES: &[&str] = &["fig2_cold", "serve_mixed"];

/// What the command line fixes for one run.
#[derive(Debug, Clone, Copy)]
pub struct RunEnv {
    pub seed: u64,
    pub seconds: f64,
    /// Closed-loop clients and server workers of `serve_mixed` (`nproc`).
    pub clients: usize,
    /// Interleave traced ops with untraced ones.
    pub trace: bool,
}

/// One run's raw measurements.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Latencies of untraced ops (every op of an untraced run).
    pub op_ms: Vec<f64>,
    /// Latencies of traced ops (trace runs only).
    pub traced_ms: Vec<f64>,
    /// Wall time of the timed ops, set-ups excluded.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Peak RSS over the measured work, read before any checks that
    /// allocate on their own.
    pub peak_rss_mb: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Measured {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

fn case(name: &str) -> &'static dyn Case {
    registry::find(name).expect("case is registered")
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The closed loop of a batch workload on this thread: a warm-up, then
/// an op, back to back until the ops have taken `seconds`; in trace runs
/// every other op is traced. The first warm-up runs untimed (the first
/// second of a fresh process ran up to 1.5× slow on a 2-core host); every
/// later one is a set-up sample. Spread over the run, the samples see
/// the same host conditions as the ops, where one burst at the start
/// left their median swinging by 30-50 % between runs.
fn batch_loop(
    env: &RunEnv,
    tracer: &Tracer,
    m: &mut Measured,
    warm_up: impl Fn() -> Result<(), String>,
    op: impl Fn(u64, Scope) -> Result<(), String>,
) -> Result<(), String> {
    let quiet = Tracer::new(false);
    warm_up()?;
    let mut i = 0u64;
    while m.wall_s < env.seconds {
        let (res, s) = timed(&warm_up);
        res?;
        m.setup_s.push(s);
        let traced = env.trace && i.is_multiple_of(2);
        let scope = if traced { tracer.op(i) } else { quiet.op(i) };
        let (res, s) = timed(|| scope.span("op", |sc| op(i, sc)));
        m.wall_s += s;
        m.attempted += 1;
        match res {
            Ok(()) if traced => m.traced_ms.push(s * 1e3),
            Ok(()) => m.op_ms.push(s * 1e3),
            Err(e) => m.fail(format!("op {i}: {e}")),
        }
        i += 1;
    }
    m.peak_rss_mb = crate::stats::peak_rss_mb().unwrap_or(0.0);
    eprintln!("op latencies (ms): {:.1?}", m.op_ms);
    Ok(())
}

// --- fig2_cold ------------------------------------------------------------

/// One paper-size `fig2_physical_design` against fresh memory caches.
pub fn fig2_cold(env: &RunEnv, pins: &Pins, tracer: &Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let fig2 = case("fig2_physical_design");
    // Warm-up: the quick-mode experiment (scaled arrays) on fresh caches,
    // the same code as an op at a fraction of its cost.
    let warm_up = || {
        let (flows, thermals) = (FlowCache::new(), ThermalCache::new());
        fig2.run(&CaseCtx::new(&flows, &thermals), true, &Value::Null)
            .map(drop)
            .map_err(|e| e.to_string())
    };
    batch_loop(env, tracer, &mut m, warm_up, |_, scope| {
        let (flows, thermals) = (FlowCache::new(), ThermalCache::new());
        let out = scope
            .span("registry.fig2_physical_design", |_| {
                fig2.run(&CaseCtx::new(&flows, &thermals), false, &Value::Null)
            })
            .map_err(|e| e.to_string())?;
        if out.cache_hit || flows.stats().misses != 2 {
            return Err("fig2 did not compute both flows".to_owned());
        }
        check_digest("fig2_physical_design", &digest(&out.result), &pins.fig2)
    })?;
    Ok(m)
}

fn check_digest(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: payload digest {got}, pinned {want}"))
    }
}

// --- serve_mixed ----------------------------------------------------------

/// A fresh in-process server with the hot set prefilled.
pub fn start_server(workers: usize, stream: &ServeStream) -> Result<Handle, String> {
    let handle = serve(&ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(handle.addr())?;
    for (k, r) in stream.hot().iter().enumerate() {
        match client.call(&Request::new(k as u64, r.case, r.params.clone()))? {
            Response::Ok { .. } => {}
            err => return Err(format!("prefill {}: {}", r.case, err.to_line())),
        }
    }
    Ok(handle)
}

pub fn stop_server(handle: Handle) {
    handle.shutdown();
    handle.wait();
}

/// One answered request: stream index, latency, whether it was traced,
/// and the digest of its result payload or the failure.
pub type Answer = (u64, f64, bool, Result<String, String>);

/// Drives `clients` closed-loop connections through the first `count`
/// requests of `stream`; `traced(j)` picks the requests whose spans are
/// recorded on `tracer`. Returns the answers in stream order and the
/// wall time.
pub fn drive(
    addr: SocketAddr,
    stream: &ServeStream,
    clients: usize,
    count: u64,
    traced: impl Fn(u64) -> bool + Sync,
    tracer: &Tracer,
) -> Result<(Vec<Answer>, f64), String> {
    let next = AtomicU64::new(0);
    let answers = Mutex::new(Vec::new());
    let quiet = Tracer::new(false);
    let start = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(addr)?;
                    let mut mine = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= count {
                            break;
                        }
                        let CaseRequest { case, params } = stream.request(j);
                        let req = Request::new(j, case, params);
                        let on = traced(j);
                        let scope = if on { tracer.op(j) } else { quiet.op(j) };
                        let t0 = Instant::now();
                        let resp = scope.span("serve.request", |_| client.call(&req));
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let outcome = match resp {
                            Ok(Response::Ok { result, .. }) => Ok(digest(&result)),
                            Ok(err) => Err(err.to_line()),
                            Err(e) => Err(e),
                        };
                        mine.push((j, ms, on, outcome));
                    }
                    answers.lock().expect("answers poisoned").extend(mine);
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_owned()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    results.into_iter().collect::<Result<(), String>>()?;
    let mut answers = answers.into_inner().expect("answers poisoned");
    answers.sort_by_key(|a| a.0);
    Ok((answers, wall))
}

/// Checks every answer against the in-process `Case::run` payload of the
/// same request (memoised per request key). Returns the failures.
pub fn verify_answers(stream: &ServeStream, answers: &[Answer]) -> Vec<String> {
    let (flows, thermals) = (FlowCache::new(), ThermalCache::new());
    let ctx = CaseCtx::new(&flows, &thermals);
    let mut expected: HashMap<u64, Result<String, String>> = HashMap::new();
    let mut failures = Vec::new();
    for (j, _, _, got) in answers {
        let CaseRequest { case: name, params } = stream.request(*j);
        let key = Request::new(0, name, params.clone()).key();
        let want = expected.entry(key).or_insert_with(|| {
            case(name)
                .run(&ctx, true, &params)
                .map(|o| digest(&o.result))
                .map_err(|e| e.to_string())
        });
        match (got, &*want) {
            (Ok(g), Ok(w)) if g == w => {}
            (Ok(_), Ok(_)) => failures.push(format!("request {j} ({name}): payload mismatch")),
            (Err(e), _) => failures.push(format!("request {j} ({name}): {e}")),
            (Ok(_), Err(e)) => failures.push(format!("request {j} ({name}): in-process {e}")),
        }
    }
    failures
}

/// One request of the seeded mixed stream from `nproc` closed-loop
/// clients to an in-process server with `nproc` workers. The run is a
/// series of identical rounds of [`ROUND_REQUESTS`] requests, each on a
/// freshly started server, until `seconds` of driving have passed; each
/// round's server start is one set-up sample.
pub fn serve_mixed(env: &RunEnv, _pins: &Pins, tracer: &Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let stream = ServeStream::new(env.seed);
    // The first server start of a process runs untimed (see
    // `batch_loop`).
    stop_server(start_server(env.clients, &stream)?);
    let trace = env.trace;
    let mut answers = Vec::new();
    while m.wall_s < env.seconds {
        let (handle, s) = timed(|| start_server(env.clients, &stream));
        m.setup_s.push(s);
        let handle = handle?;
        let round = drive(
            handle.addr(),
            &stream,
            env.clients,
            ROUND_REQUESTS,
            |j| trace && j.is_multiple_of(2),
            tracer,
        );
        stop_server(handle);
        let (round, wall) = round?;
        m.wall_s += wall;
        answers.extend(round);
        if answers.len() as u64 == ROUND_REQUESTS {
            // The peak over the first round's fixed work: later rounds
            // repeat it and would only add the allocator's fragmentation.
            m.peak_rss_mb = crate::stats::peak_rss_mb().unwrap_or(0.0);
        }
    }
    m.attempted = answers.len() as u64;
    for (_, ms, traced, _) in &answers {
        if *traced {
            m.traced_ms.push(*ms);
        } else {
            m.op_ms.push(*ms);
        }
    }
    let (failures, verify_s) = timed(|| verify_answers(&stream, &answers));
    eprintln!(
        "serve_mixed: {} rounds, checked {} answers in {verify_s:.2} s",
        m.setup_s.len(),
        answers.len()
    );
    for f in failures {
        m.fail(f);
    }
    Ok(m)
}
