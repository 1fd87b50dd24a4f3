//! Fleet integration tests: a gateway supervising real `m3d-serve`
//! child processes (the binary cargo built for this test run),
//! exercised over real TCP. Most run the gateway in process; one runs
//! the `m3d-gateway` binary for its shared disk tier and exit status.
//!
//! The contracts pinned here are the fleet's hard gates:
//!
//! * routing affinity — repeats of one request land on one replica,
//! * cross-replica byte-identity — the same request forced through
//!   every replica digests identically, and a mix returns the payloads
//!   a single server does,
//! * accounting — the fleet's metrics agree with its clients' tallies,
//! * stitched traces — one trace id from the gateway's root span down
//!   to the replica's flow phases, failed attempts included,
//! * crash transparency — a replica killed with the gateway unaware
//!   (SIGKILL to the pid, no `kill_replica` bookkeeping) still yields
//!   successful, payload-identical responses via retry, and the
//!   supervisor respawns the replica,
//! * a shared disk tier across replicas, and a drain to exit 0.

mod common;

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use common::{
    assert_metrics_agree, case_names, contains_in_order, declares, kill_9, metrics, metrics_text,
    obj, request_shutdown, run_mix, sample, trace_ids, Client, Spawned,
};
use m3d_serve::fleet::{serve_fleet, FleetHandle, GatewayConfig};
use m3d_serve::protocol::{Request, Response};
use serde::Value;

fn config(replicas: usize) -> GatewayConfig {
    GatewayConfig {
        addr: "127.0.0.1:0".to_owned(),
        replicas,
        serve_bin: PathBuf::from(env!("CARGO_BIN_EXE_m3d-serve")),
        workers: 2,
        queue_depth: 16,
        default_timeout_ms: 30_000,
        probe_interval_ms: 50,
        scrape_min_interval_ms: 0,
        ..GatewayConfig::default()
    }
}

/// Starts an in-process gateway. Its replicas inherit this process's
/// environment, so any disk cache is detached first: the counts below
/// are a cold fleet's.
fn start_fleet_with(cfg: &GatewayConfig) -> FleetHandle {
    if std::env::var_os("M3D_CACHE_DIR").is_some() {
        std::env::remove_var("M3D_CACHE_DIR");
    }
    serve_fleet(cfg).expect("fleet starts")
}

fn start_fleet(replicas: usize) -> FleetHandle {
    start_fleet_with(&config(replicas))
}

fn sensitivity(id: u64, seed: u64) -> Request {
    Request::new(
        id,
        "sensitivity",
        obj(vec![
            ("samples", Value::U64(300)),
            ("seed", Value::U64(seed)),
        ]),
    )
}

/// Serialised `result` payload of an OK response.
fn payload(resp: &Response) -> String {
    match resp {
        Response::Ok { result, .. } => serde_json::to_string(result).expect("result serialises"),
        Response::Err { error, code, .. } => {
            panic!("expected OK response, got {code:?}: {error}")
        }
    }
}

/// The per-replica rows of the gateway's `stats`.
fn replica_stats(c: &mut Client) -> Vec<Value> {
    match c.admin("stats", Value::Null).get("replicas") {
        Some(Value::Array(replicas)) => replicas.clone(),
        other => panic!("stats carries no replicas array: {other:?}"),
    }
}

fn field(row: &Value, name: &str) -> u64 {
    row.get(name).and_then(Value::as_u64).unwrap_or(0)
}

#[test]
fn fleet_routes_with_affinity_and_cross_replica_identity() {
    let fleet = start_fleet(3);
    let addr = fleet.addr();

    // Admin cases answer fleet-wide.
    let mut admin = Client::connect(addr);
    let (health, _) = admin.routed(&Request::new(1, "health", Value::Null));
    match &health {
        Response::Ok { result, .. } => {
            assert_eq!(result.get("healthy"), Some(&Value::Bool(true)));
            assert_eq!(result.get("replicas_up"), Some(&Value::U64(3)));
        }
        other => panic!("health failed: {other:?}"),
    }
    let (ready, _) = admin.routed(&Request::new(2, "ready", Value::Null));
    match &ready {
        Response::Ok { result, .. } => {
            assert_eq!(result.get("ready"), Some(&Value::Bool(true)));
        }
        other => panic!("ready failed: {other:?}"),
    }
    // `ping` forwards round-robin and gets tagged.
    let (pong, replica) = admin.routed(&Request::new(3, "ping", Value::Null));
    assert_eq!(pong.status(), 200);
    assert!(replica.is_some(), "forwarded responses carry a replica tag");

    // Affinity: the same request from several connections always lands
    // on one replica, and repeats replay its response cache.
    let mut owners = Vec::new();
    let mut payloads = Vec::new();
    for conn in 0..4 {
        let mut c = Client::connect(addr);
        for i in 0..3 {
            let (resp, replica) = c.routed(&sensitivity(100 + conn * 10 + i, 7));
            assert_eq!(resp.status(), 200, "routed request failed: {resp:?}");
            owners.push(replica.expect("routed response must be tagged"));
            payloads.push(payload(&resp));
        }
    }
    let owner = owners[0];
    assert!(
        owners.iter().all(|&r| r == owner),
        "affinity broken: owners {owners:?}"
    );
    assert!(
        payloads.iter().all(|p| p == &payloads[0]),
        "repeat payloads must be byte-identical"
    );

    // Cross-replica identity: the same content key forced through
    // every replica must produce byte-identical payloads.
    for k in 0..3u64 {
        let mut c = Client::connect(addr);
        let mut req = sensitivity(200 + k, 7);
        req.replica = Some(k);
        let (resp, replica) = c.routed(&req);
        assert_eq!(resp.status(), 200, "forced route to {k} failed: {resp:?}");
        assert_eq!(replica, Some(k), "forced routing must pin the replica");
        assert_eq!(
            payload(&resp),
            payloads[0],
            "replica {k} diverged from the fleet payload"
        );
    }

    // Drain the owner: fresh traffic for its keys spills elsewhere,
    // undrain snaps it back.
    let (drained, _) = admin.routed(&Request::new(
        300,
        "drain",
        obj(vec![("replica", Value::U64(owner))]),
    ));
    assert_eq!(drained.status(), 200);
    let mut c = Client::connect(addr);
    let (resp, spilled) = c.routed(&sensitivity(301, 7));
    assert_eq!(resp.status(), 200);
    assert_ne!(
        spilled,
        Some(owner),
        "a draining replica must get no new work"
    );
    assert_eq!(payload(&resp), payloads[0], "failover payload identical");
    let (undrained, _) = admin.routed(&Request::new(
        302,
        "undrain",
        obj(vec![("replica", Value::U64(owner))]),
    ));
    assert_eq!(undrained.status(), 200);
    let (resp, back) = c.routed(&sensitivity(303, 7));
    assert_eq!(resp.status(), 200);
    assert_eq!(back, Some(owner), "keys snap back after undrain");

    // Fleet stats name the per-replica routed tallies.
    let (stats, _) = admin.routed(&Request::new(400, "stats", Value::Null));
    match &stats {
        Response::Ok { result, .. } => {
            let Some(Value::Array(replicas)) = result.get("replicas") else {
                panic!("stats carries no replicas array: {result:?}");
            };
            assert_eq!(replicas.len(), 3);
            let routed: u64 = replicas
                .iter()
                .filter_map(|r| r.get("routed").and_then(Value::as_u64))
                .sum();
            assert!(routed >= 16, "expected routed tallies, saw {routed}");
        }
        other => panic!("stats failed: {other:?}"),
    }

    // The mixes a single server answers, in its order. `repeated`: 16
    // identical requests compute once fleet-wide, one replica routes
    // all of them, and the fleet's metrics agree with the clients.
    let routed_before = replica_stats(&mut admin);
    let before = metrics(addr);
    let repeated = run_mix(addr, 4, 4, false, common::repeated);
    let after = metrics(addr);
    assert_eq!(repeated.computed, 1, "repeated mix");
    assert_metrics_agree(&before, &after, &repeated);
    assert_eq!(
        repeated.by_replica.values().collect::<Vec<_>>(),
        [&16],
        "affinity broken: {:?}",
        repeated.by_replica
    );
    let replicas = replica_stats(&mut admin);
    assert_eq!(replicas.len(), 3, "{replicas:?}");
    assert!(
        replicas
            .iter()
            .all(|r| matches!(r.get("up"), Some(Value::Bool(true)))),
        "every replica is up: {replicas:?}"
    );
    assert!(
        replicas
            .iter()
            .zip(&routed_before)
            .any(|(now, was)| field(now, "routed") - field(was, "routed") >= 16),
        "no replica routed all 16 repeats: {replicas:?}"
    );

    // `cold`: 12 distinct seeds compute, with a single server's
    // payloads; `mixed` then computes its 3 new requests.
    let cold = run_mix(addr, 3, 4, false, common::cold);
    assert_eq!(cold.computed, 12, "cold mix");
    cold.assert_cold_payloads();
    let cases = case_names(addr);
    let mixed = run_mix(addr, 2, 4, false, |g| common::mixed(g, &cases));
    assert_eq!(mixed.computed, 3, "mixed mix");

    // A traced request answers with one stitched tree under one trace
    // id, and the gateway's flight recorder holds it with its root.
    let reply = Client::connect(addr).send_line(
        r#"{"id":9401,"case":"pd_flow","quick":true,"trace":true,"params":{"activity_pct":41.5}}"#,
    );
    for part in [
        r#""name":"gateway""#,
        r#""attempts":1"#,
        r#""name":"attempt:0""#,
        r#""name":"req:pd_flow""#,
        r#""name":"pd-flow""#,
        r#""name":"place""#,
    ] {
        assert!(reply.contains(part), "stitched trace lacks {part}: {reply}");
    }
    let ids = trace_ids(&reply);
    assert_eq!(ids.len(), 1, "one trace id per stitched tree: {reply}");
    let tid = ids.first().expect("one id");
    let recorded = Client::connect(addr).send_line(&format!(
        r#"{{"id":9402,"case":"traces","params":{{"trace_id":"{tid}"}}}}"#
    ));
    assert!(
        recorded.contains(&format!(r#""trace_id":"{tid}""#)),
        "the flight recorder lacks {tid}: {recorded}"
    );
    assert!(
        recorded.contains(r#""name":"gateway""#),
        "the recorded trace lost its gateway root: {recorded}"
    );

    fleet.shutdown();
    fleet.wait();
}

#[test]
fn killed_replica_is_retried_transparently_and_respawned() {
    let fleet = start_fleet(3);
    let addr = fleet.addr();
    let mut c = Client::connect(addr);

    let (first, owner) = c.routed(&sensitivity(1, 42));
    assert_eq!(first.status(), 200);
    let owner = owner.expect("tagged") as usize;
    let reference = payload(&first);

    // SIGKILL the owner behind the gateway's back: the gateway still
    // believes it is up, routes there, hits the dead socket, retries a
    // survivor — the client must see one successful response.
    kill_9(fleet.replica_pid(owner).expect("owner has a pid"));
    // Give the kernel a beat to tear the socket down.
    std::thread::sleep(Duration::from_millis(100));

    let (retried, survivor) = c.routed(&sensitivity(2, 42));
    assert_eq!(
        retried.status(),
        200,
        "request lost with the replica: {retried:?}"
    );
    assert_ne!(survivor, Some(owner as u64), "dead replica cannot answer");
    assert_eq!(
        payload(&retried),
        reference,
        "retried response must be byte-identical"
    );

    // The supervisor respawns the owner (250 ms backoff, 50 ms ticks).
    let mut admin = Client::connect(addr);
    await_respawn(&mut admin, owner, 1);

    // Affinity snaps back to the respawned owner, payload unchanged
    // (its response cache died with it; the result must not differ).
    let (after, back) = c.routed(&sensitivity(4, 42));
    assert_eq!(after.status(), 200);
    assert_eq!(
        back,
        Some(owner as u64),
        "keys return to the respawned owner"
    );
    assert_eq!(payload(&after), reference);

    // 24 distinct sleeps, and the replica serving most of them is
    // SIGKILLed once a few are answered: each is still answered, and
    // computed, and the replica comes back.
    let before = replica_stats(&mut admin);
    let (sleeps, victim) = std::thread::scope(|s| {
        let run = s.spawn(|| run_mix(addr, 4, 6, false, common::sleep));
        let deadline = Instant::now() + Duration::from_secs(20);
        let victim = loop {
            let served: Vec<u64> = replica_stats(&mut admin)
                .iter()
                .zip(&before)
                .map(|(now, was)| field(now, "routed") - field(was, "routed"))
                .collect();
            if served.iter().sum::<u64>() >= 4 {
                break (0..served.len())
                    .max_by_key(|&i| served[i])
                    .expect("a fleet");
            }
            assert!(Instant::now() < deadline, "the sleep mix stalled");
            std::thread::sleep(Duration::from_millis(5));
        };
        kill_9(fleet.replica_pid(victim).expect("the victim has a pid"));
        (run.join().expect("sleep mix"), victim)
    });
    assert_eq!(sleeps.computed, 24, "requests lost with replica {victim}");
    await_respawn(&mut admin, victim, field(&before[victim], "restarts") + 1);

    fleet.shutdown();
    fleet.wait();
}

/// Waits until `replica` is up after at least `restarts` restarts, and
/// all 3 replicas are up.
fn await_respawn(admin: &mut Client, replica: usize, restarts: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = admin.admin("stats", Value::Null);
        let respawned = stats.get("replicas_up") == Some(&Value::U64(3))
            && match stats.get("replicas") {
                Some(Value::Array(replicas)) => replicas.get(replica).is_some_and(|r| {
                    matches!(r.get("up"), Some(Value::Bool(true)))
                        && field(r, "restarts") >= restarts
                }),
                _ => false,
            };
        if respawned {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica {replica} not respawned in time: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// With a 5 s health probe the gateway learns of a SIGKILLed replica
/// only by forwarding to it, so some request fails its first attempt:
/// its stitched trace shows the failed attempt and the retry that
/// answered, with the replica's request subtree under the retry.
#[test]
fn a_retried_request_shows_both_attempts_in_its_trace() {
    let fleet = start_fleet_with(&GatewayConfig {
        workers: 1,
        queue_depth: 64,
        probe_interval_ms: 5_000,
        ..config(3)
    });
    let addr = fleet.addr();
    // Kill only after the supervisor's first probe round, which ends
    // with the last replica's gauges: the next round is 5 s away.
    let mut admin = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(20);
    while admin
        .admin("metrics", Value::Null)
        .get("gauges")
        .and_then(|g| g.get("fleet.replica2.up"))
        .is_none()
    {
        assert!(Instant::now() < deadline, "no probe round finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    kill_9(fleet.replica_pid(0).expect("replica 0 has a pid"));

    let retried = (1..=60)
        .map(|i| {
            Client::connect(addr).send_line(&format!(
                r#"{{"id":{},"case":"sensitivity","quick":true,"trace":true,"params":{{"seed":{}}}}}"#,
                9510 + i,
                52000 + i
            ))
        })
        .find(|reply| reply.contains(r#""name":"attempt:1""#))
        .expect("no retry showed in 60 traced requests past the SIGKILL");
    assert!(
        contains_in_order(
            &retried,
            &[
                r#""attempts":2"#,
                r#""retries":1"#,
                r#""failed":1"#,
                r#""name":"attempt:1""#,
                r#""name":"req:sensitivity""#,
            ]
        ),
        "the retry's trace lacks the failed-then-won attempt pair: {retried}"
    );

    request_shutdown(addr);
    fleet.wait();
}

/// A drain does not sit out the probe interval: shutdown wakes the
/// supervisor for its last round at once, so `wait` returns long before
/// the next 5 s probe would have come due.
#[test]
fn a_drain_does_not_wait_out_the_probe_interval() {
    let fleet = start_fleet_with(&GatewayConfig {
        probe_interval_ms: 5_000,
        ..config(1)
    });
    // The first probe round has run once the replica's gauge shows; the
    // supervisor is then waiting for the next one.
    let mut admin = Client::connect(fleet.addr());
    let deadline = Instant::now() + Duration::from_secs(20);
    while admin
        .admin("metrics", Value::Null)
        .get("gauges")
        .and_then(|g| g.get("fleet.replica0.up"))
        .is_none()
    {
        assert!(Instant::now() < deadline, "no probe round finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(admin);

    let started = Instant::now();
    fleet.shutdown();
    fleet.wait();
    let drained = started.elapsed();
    assert!(
        drained < Duration::from_secs(2),
        "the drain took {drained:?} under a 5 s probe interval"
    );
}

/// An upload computed on replica 0 is a cache hit on replica 1: only
/// the disk tier the `--cache-dir` replicas share can carry it across
/// processes.
fn fleet_probe(id: u64, replica: u64) -> Request {
    let mut req = Request::new(
        id,
        "ingest",
        obj(vec![(
            "source",
            Value::Str(
                "(edif fleetprobe (library work (cell top (view v (interface (port a \
                 (direction INPUT)) (port y (direction OUTPUT))) (contents (instance u1 \
                 (cellRef BUF_X1)) (net na (joined (portRef a) (portRef A (instanceRef u1)))) \
                 (net ny (joined (portRef Y (instanceRef u1)) (portRef y))))))) \
                 (design fleetprobe (cellRef top)))"
                    .to_owned(),
            ),
        )]),
    );
    req.replica = Some(replica);
    req
}

/// The `m3d-gateway` binary over a shared disk tier: an upload crosses
/// replicas through it, the fleet's exposition carries the gateway and
/// per-replica families, and a shutdown request drains the whole fleet
/// to exit 0.
#[test]
fn gateway_binary_shares_its_disk_tier_and_drains_to_exit_0() {
    let cache = std::env::temp_dir().join(format!("m3d-fleet-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).expect("cache dir");
    let gateway = Spawned::start(Command::new(env!("CARGO_BIN_EXE_m3d-gateway")).args([
        "--addr",
        "127.0.0.1:0",
        "--replicas",
        "3",
        "--workers",
        "2",
        "--queue-depth",
        "64",
        "--serve-bin",
        env!("CARGO_BIN_EXE_m3d-serve"),
        "--cache-dir",
        cache.to_str().expect("UTF-8 temp path"),
        "--probe-interval-ms",
        "100",
    ]));
    let addr = gateway.addr;

    let (first, on) = Client::connect(addr).routed(&fleet_probe(9201, 0));
    match first {
        Response::Ok { cached, .. } => assert!(!cached, "the upload computes on replica 0"),
        other => panic!("upload to replica 0 failed: {other:?}"),
    }
    assert_eq!(on, Some(0));
    let (second, on) = Client::connect(addr).routed(&fleet_probe(9202, 1));
    match second {
        Response::Ok { cached, .. } => assert!(cached, "replica 1 missed the shared disk tier"),
        other => panic!("upload to replica 1 failed: {other:?}"),
    }
    assert_eq!(on, Some(1));

    let text = metrics_text(addr);
    assert!(
        declares(&text, "fleet_replica0_queue_len", "gauge"),
        "{text}"
    );
    assert_eq!(sample(&text, "fleet_replica0_up"), 1, "{text}");
    assert_eq!(sample(&text, "fleet_replica2_up"), 1, "{text}");
    assert!(sample(&text, "gateway_routed") >= 2, "{text}");
    assert!(sample(&text, "executed") >= 1, "{text}");
    assert!(sample(&text, "gateway_spans_recorded") >= 1, "{text}");
    assert!(
        declares(&text, "gateway_spans_dropped", "counter"),
        "{text}"
    );
    assert!(sample(&text, "spans_recorded") >= 1, "{text}");

    request_shutdown(addr);
    let status = gateway.wait();
    let _ = std::fs::remove_dir_all(&cache);
    assert!(status.success(), "m3d-gateway drained with {status}");
}
