//! The traced layer probe: a fixed amount of work driven through each
//! layer's public functions from this file, one span per layer call.
//!
//! * `m3d_netlist` + `m3d_pd`: the paper-size M3D(8) flow replayed phase
//!   by phase, in flow order, and checked against `Rtl2GdsFlow::run`.
//! * `m3d_core::engine`: cold, warm, hit and coalesced `FlowCache::fetch`.
//! * `m3d_thermal`: the `obs10_thermal` steady sweep and transient.
//! * `m3d_bench::registry`: in-process `Case::run` of `serve_mixed`-style
//!   requests.
//! * `m3d_serve`: a fixed slice of the `serve_mixed` stream, with the
//!   server's own counters read back through its `metrics` case.
//!
//! Work counts (cells, annealing steps, opt rounds, SOR iterations, warm
//! hits, executed requests) repeat exactly for a given seed.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use m3d_arch::trace::Phase;
use m3d_bench::registry::{self, CaseCtx};
use m3d_core::cases::BaselineAreas;
use m3d_core::engine::{FetchOpts, FlowCache};
use m3d_netlist::{accelerator_soc, Netlist, NetlistStats};
use m3d_pd::{
    analyze_power, analyze_timing, estimate_clock_tree, estimate_routing, legalize, place_traced,
    post_route_optimize, Clustering, Floorplan, FlowConfig, PowerDensityGrid, Rtl2GdsFlow,
};
use m3d_tech::LayerStack;
use m3d_thermal::{
    solve_steady, step_phases, GridConfig, PhaseInterval, PowerMap, SolverConfig, ThermalCache,
    TransientConfig,
};
use serde::Value;

use crate::client::{hist_max, hist_median, ServerMetrics};
use crate::inputs::{ingest_request, m3d8_config, pd_flow_request, ServeStream};
use crate::stats::median;
use crate::trace::{self, Scope, Tracer};
use crate::workloads::{drive, start_server, stop_server, verify_answers};

/// Op id the probe's spans carry (workload ops count from 0 upwards).
pub const PROBE_OP: u64 = u64::MAX;

/// Cache-hit fetches timed for `engine.fetch_hit_us`.
const HIT_FETCHES: usize = 200;

/// Requests of the serve slice, after the hot-set prefill.
const SERVE_REQUESTS: u64 = 400;

pub type LayerMetrics = BTreeMap<&'static str, f64>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What the phase replay produced, for the equivalence check.
struct Replay {
    cells: usize,
    wirelength_m: f64,
    critical_path_ns: f64,
    total_power_mw: f64,
    place_steps: u64,
    opt_rounds: u64,
}

/// Replays `Rtl2GdsFlow::run` phase by phase, then times one standalone
/// routing estimate and one STA on the final placement.
fn replay_flow(scope: Scope, cfg: &FlowConfig) -> Result<Replay, String> {
    let mut netlist = scope
        .span("netlist.gen", |_| {
            let mut nl = Netlist::new(format!("{}_{}cs", cfg.pdk.name, cfg.soc.cs_count));
            accelerator_soc(&mut nl, &cfg.soc).map(|_| nl)
        })
        .map_err(err)?;
    let floorplan = scope
        .span("pd.floorplan", |_| {
            Floorplan::plan(&cfg.pdk, &cfg.soc, &netlist, cfg.die_override)
        })
        .map_err(err)?;
    let clustering = scope
        .span("pd.cluster", |_| Clustering::build(&netlist, &cfg.pdk))
        .map_err(err)?;
    let (mut placement, place_span) = scope
        .span("pd.place", |_| {
            place_traced(&clustering, &floorplan, &cfg.placer)
        })
        .map_err(err)?;
    if cfg.legalize {
        let leg = scope
            .span("pd.legalize", |_| {
                legalize(&netlist, &placement, &floorplan, &cfg.pdk)
            })
            .map_err(err)?;
        placement.cell_pos = leg.cell_pos;
    }
    let opt = scope
        .span("pd.opt", |_| {
            post_route_optimize(
                &mut netlist,
                &mut placement,
                &cfg.pdk,
                floorplan.target_clock,
                &cfg.opt,
            )
        })
        .map_err(err)?;
    scope
        .span("pd.cts", |_| {
            estimate_clock_tree(&netlist, &placement, &floorplan, &cfg.pdk)
        })
        .map_err(err)?;
    let power = scope
        .span("pd.power", |_| {
            analyze_power(
                &netlist,
                &opt.routing,
                &placement,
                &floorplan,
                &cfg.pdk,
                floorplan.target_clock,
                cfg.activity,
            )
        })
        .map_err(err)?;
    scope
        .span("netlist.stats", |_| {
            NetlistStats::compute(&netlist, &cfg.pdk)
        })
        .map_err(err)?;
    let routing = scope
        .span("pd.route", |_| {
            estimate_routing(&netlist, &placement, &cfg.pdk, cfg.opt.detour)
        })
        .map_err(err)?;
    scope
        .span("pd.sta", |_| {
            analyze_timing(&netlist, &routing, &cfg.pdk, floorplan.target_clock)
        })
        .map_err(err)?;
    Ok(Replay {
        cells: netlist.cell_count(),
        wirelength_m: opt.routing.total_wirelength.value() * 1.0e-6,
        critical_path_ns: opt.timing.critical_path.value(),
        total_power_mw: power.total.value(),
        place_steps: place_span.counter_value("steps").unwrap_or(0),
        opt_rounds: opt.rounds as u64,
    })
}

/// The phases whose self times sum to the replayed flow.
const FLOW_PHASES: &[&str] = &[
    "netlist.gen",
    "pd.floorplan",
    "pd.cluster",
    "pd.place",
    "pd.legalize",
    "pd.opt",
    "pd.cts",
    "pd.power",
    "netlist.stats",
];

/// Metric name → the span whose self time (ms, one call) it reports.
const PHASE_METRICS: &[(&str, &str)] = &[
    ("netlist.gen_ms", "netlist.gen"),
    ("netlist.stats_ms", "netlist.stats"),
    ("pd.floorplan_ms", "pd.floorplan"),
    ("pd.cluster_ms", "pd.cluster"),
    ("pd.place_ms", "pd.place"),
    ("pd.legalize_ms", "pd.legalize"),
    ("pd.opt_ms", "pd.opt"),
    ("pd.route_ms", "pd.route"),
    ("pd.sta_ms", "pd.sta"),
    ("pd.cts_ms", "pd.cts"),
    ("pd.power_ms", "pd.power"),
];

/// Runs the probe, recording spans on `tracer`. Fails on any wrong
/// output, including a replay that disagrees with `Rtl2GdsFlow::run`.
pub fn run(tracer: &Tracer, seed: u64, clients: usize) -> Result<LayerMetrics, String> {
    let root = tracer.op(PROBE_OP);
    let cfg = m3d8_config();
    let mut out = LayerMetrics::new();

    // --- m3d_core::engine ----------------------------------------------------
    // First, so the phase replay and the flow it is compared with both
    // run on a heap that has already held one M3D(8) design.
    let density = engine_probe(root, &cfg, &mut out)?;

    // --- m3d_netlist + m3d_pd: phase replay vs the flow --------------------
    let replay = root.span("flow.replay", |s| replay_flow(s, &cfg))?;
    let t0 = Instant::now();
    let (report, artifacts) = Rtl2GdsFlow::new(cfg.clone()).run().map_err(err)?;
    let flow_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(artifacts);
    let same = report.cell_count == replay.cells
        && report.wirelength_m == replay.wirelength_m
        && report.critical_path_ns == replay.critical_path_ns
        && report.total_power_mw == replay.total_power_mw;
    if !same {
        return Err(format!(
            "phase replay diverges from Rtl2GdsFlow::run: cells {} vs {}, wirelength {} vs {}, \
             critical path {} vs {}, power {} vs {}",
            replay.cells,
            report.cell_count,
            replay.wirelength_m,
            report.wirelength_m,
            replay.critical_path_ns,
            report.critical_path_ns,
            replay.total_power_mw,
            report.total_power_mw
        ));
    }
    let spans = tracer.spans();
    let selfs = trace::self_times_ns(&spans);
    let one = |name: &str| trace::self_ms(&spans, &selfs, name).iter().sum::<f64>();
    for &(metric, span) in PHASE_METRICS {
        out.insert(metric, one(span));
    }
    let phases: f64 = FLOW_PHASES.iter().map(|p| one(p)).sum();
    out.insert("pd.flow_ms", flow_ms);
    out.insert("pd.unattributed_ms", flow_ms - phases);
    out.insert("netlist.cells", replay.cells as f64);
    out.insert("pd.place_steps", replay.place_steps as f64);
    out.insert("pd.opt_rounds", replay.opt_rounds as f64);

    // --- m3d_thermal -----------------------------------------------------------
    let cell_iterations = thermal_probe(root, &density, &mut out)?;

    // --- m3d_bench::registry ----------------------------------------------------
    registry_probe(root, seed)?;

    // --- m3d_serve ---------------------------------------------------------------
    serve_probe(tracer, seed, clients, &mut out)?;

    let spans = tracer.spans();
    let selfs = trace::self_times_ns(&spans);
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.op == PROBE_OP)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    out.insert(
        "engine.fetch_cold_ms",
        median(&durs("engine.fetch_cold")) / 1e6,
    );
    out.insert(
        "engine.fetch_warm_ms",
        median(&durs("engine.fetch_warm")) / 1e6,
    );
    out.insert(
        "engine.fetch_hit_us",
        median(&durs("engine.fetch_hit")) / 1e3,
    );
    let solve_ns: f64 = durs("thermal.solve").iter().sum();
    out.insert("thermal.solve_ms", solve_ns / 1e6);
    out.insert(
        "thermal.ns_per_cell_iter",
        solve_ns / cell_iterations.max(1.0),
    );
    out.insert(
        "thermal.transient_ms",
        trace::self_ms(&spans, &selfs, "thermal.transient")
            .iter()
            .sum(),
    );
    for (metric, span) in [
        ("registry.sensitivity_us", "registry.sensitivity"),
        ("registry.tier_sweep_us", "registry.tier_sweep"),
        ("registry.capacity_sweep_us", "registry.capacity_sweep"),
        ("registry.pd_flow_us", "registry.pd_flow"),
        ("registry.ingest_us", "registry.ingest"),
    ] {
        out.insert(metric, median(&durs(span)) / 1e3);
    }
    Ok(out)
}

/// Cold, warm, hit and coalesced fetches on one fresh cache. Returns the
/// M3D(8) placed power-density grid for the thermal probe.
fn engine_probe(
    root: Scope,
    cfg: &FlowConfig,
    out: &mut LayerMetrics,
) -> Result<PowerDensityGrid, String> {
    let cache = FlowCache::new();
    let cold = root
        .span("engine.fetch_cold", |_| {
            cache.fetch(cfg, FetchOpts::artifacts())
        })
        .map_err(err)?;
    if cold.warm || cold.reused() {
        return Err("first fetch on a fresh cache did not compute cold".to_owned());
    }
    let density = cold
        .artifacts
        .as_ref()
        .expect("artifact-level fetch")
        .1
        .power
        .density_grid
        .clone();
    drop(cold);
    let at = |act: f64| {
        let mut c = cfg.clone();
        c.activity = act;
        c
    };
    let warm = root
        .span("engine.fetch_warm", |_| {
            cache.fetch(&at(0.20), FetchOpts::report())
        })
        .map_err(err)?;
    if !warm.warm {
        return Err("neighbouring activity did not warm-start".to_owned());
    }
    for _ in 0..HIT_FETCHES {
        let hit = root
            .span("engine.fetch_hit", |_| {
                cache.fetch(cfg, FetchOpts::report())
            })
            .map_err(err)?;
        if !hit.cache_hit {
            return Err("repeated fetch missed the memory tier".to_owned());
        }
    }
    // Two callers race on one new key: one computes (warm), one joins.
    let gate = Barrier::new(2);
    let joined = std::thread::scope(|s| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    gate.wait();
                    root.span("engine.fetch_coalesce", |_| {
                        cache.fetch(&at(0.25), FetchOpts::report())
                    })
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|h| h.join().expect("fetch thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(err)?;
    if joined.iter().filter(|f| !f.reused()).count() != 1 {
        return Err("racing fetches did not run exactly one flow".to_owned());
    }
    let stats = cache.stats();
    out.insert("engine.hits", stats.hits as f64);
    out.insert("engine.misses", stats.misses as f64);
    out.insert("engine.warm_hits", cache.warm_count() as f64);
    out.insert("engine.coalesced", cache.coalesced_count() as f64);
    Ok(density)
}

/// The `obs10_thermal` paper-size steady sweep (4 powers × 8 tier pairs
/// on the placed power map) and its transient, solved directly. Returns
/// the SOR work done: grid cells × iterations, summed over the solves.
fn thermal_probe(
    root: Scope,
    density: &PowerDensityGrid,
    out: &mut LayerMetrics,
) -> Result<f64, String> {
    let stack = LayerStack::m3d_130nm();
    let die_mm2 = BaselineAreas::case_study_64mb().total_mm2();
    let solver = SolverConfig::default();
    let placed = |g: &GridConfig, per_pair_w: f64, tiers: u32| -> Result<PowerMap, String> {
        let map = PowerMap::from_density_grid(g, density).map_err(err)?;
        let total = map.total_w();
        Ok(map.scaled(per_pair_w * f64::from(tiers) / total))
    };
    let (mut solves, mut iterations, mut cell_iters) = (0u64, 0u64, 0f64);
    for p in [2.0, 5.0, 10.0, 20.0] {
        for tiers in 1..=8u32 {
            let g = GridConfig::from_stack(&stack, die_mm2, 8, 8, tiers, 1.0, 60.0).map_err(err)?;
            let power = placed(&g, p, tiers)?;
            let sol = root
                .span("thermal.solve", |_| solve_steady(&g, &power, &solver))
                .map_err(err)?;
            if !sol.converged {
                return Err(format!("SOR did not converge at {p} W, {tiers} pairs"));
            }
            solves += 1;
            iterations += sol.iterations as u64;
            cell_iters += (g.cells() * sol.iterations) as f64;
        }
    }
    let g = GridConfig::from_stack(&stack, die_mm2, 4, 4, 2, 1.0, 60.0).map_err(err)?;
    let base = placed(&g, 5.0, 2)?;
    let phases: Vec<PhaseInterval> = [
        (Phase::WeightLoad, 2.0e-4),
        (Phase::Stream, 6.0e-4),
        (Phase::FillDrain, 1.0e-4),
        (Phase::Idle, 4.0e-4),
    ]
    .iter()
    .map(|&(phase, duration_s)| PhaseInterval { phase, duration_s })
    .collect();
    root.span("thermal.transient", |_| {
        step_phases(&g, &base, &phases, &TransientConfig::default())
    })
    .map_err(err)?;
    out.insert("thermal.solves", solves as f64);
    out.insert("thermal.sor_iterations", iterations as f64);
    Ok(cell_iters)
}

/// In-process `Case::run` of the request kinds `serve_mixed` sends, eight
/// distinct requests per case on one fresh context.
fn registry_probe(root: Scope, seed: u64) -> Result<(), String> {
    let (flows, thermals) = (FlowCache::new(), ThermalCache::new());
    let ctx = CaseCtx::new(&flows, &thermals);
    let obj = |k: &str, v: Value| Value::Object(vec![(k.to_owned(), v)]);
    let run = |case: &str, params: &Value, timed: bool| -> Result<(), String> {
        let c = registry::find(case).expect("case is registered");
        let go = || c.run(&ctx, true, params).map(drop).map_err(err);
        if timed {
            root.span(&format!("registry.{case}"), |_| go())
        } else {
            go()
        }
    };
    // The quick default flow seeds the warm tier, as the server's hot set
    // does; it is not one of the timed calls.
    run("pd_flow", &Value::Null, false)?;
    let s = seed % 1_000_000;
    for k in 0..8u64 {
        run(
            "sensitivity",
            &obj("seed", Value::U64(2_000_000 + s + k)),
            true,
        )?;
        run("tier_sweep", &obj("max_pairs", Value::U64(1 + k)), true)?;
        run(
            "capacity_sweep",
            &obj(
                "max_capacity_mb",
                Value::U64([16, 24, 32, 48, 64, 96, 128, 192][k as usize]),
            ),
            true,
        )?;
        run("pd_flow", &pd_flow_request(seed, k).params, true)?;
        run("ingest", &ingest_request(k, k / 2).params, true)?;
    }
    Ok(())
}

/// A fixed slice of the `serve_mixed` stream through a fresh server, with
/// the server's counters read back as deltas.
fn serve_probe(
    tracer: &Tracer,
    seed: u64,
    clients: usize,
    out: &mut LayerMetrics,
) -> Result<(), String> {
    let stream = ServeStream::new(seed);
    let handle = start_server(clients, &stream)?;
    let addr = handle.addr();
    let before = ServerMetrics::scrape(addr)?;
    let (answers, _) = drive(addr, &stream, clients, SERVE_REQUESTS, |_| true, tracer)?;
    let after = ServerMetrics::scrape(addr)?;
    stop_server(handle);
    let failures = verify_answers(&stream, &answers);
    if let Some(f) = failures.first() {
        return Err(format!(
            "serve probe: {} wrong answers, first: {f}",
            failures.len()
        ));
    }
    let d = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let (executed, hits, coalesced) = (d("executed"), d("cache_hits"), d("coalesced"));
    let (edges, counts) = after.hist_delta(&before, "request_latency_us");
    let server_p50 = hist_median(&edges, &counts);
    let client_us: Vec<f64> = answers.iter().map(|a| a.1 * 1e3).collect();
    let (qedges, qcounts) = after.hist_delta(&before, "queue_depth");
    out.insert("serve.server_us_p50", server_p50);
    out.insert("serve.wire_us_p50", median(&client_us) - server_p50);
    out.insert("serve.executed", executed);
    out.insert("serve.cache_hits", hits);
    out.insert("serve.coalesced", coalesced);
    out.insert("serve.rejected", d("rejected"));
    out.insert(
        "serve.hit_ratio",
        hits / (executed + hits + coalesced).max(1.0),
    );
    out.insert("serve.queue_depth_max", hist_max(&qedges, &qcounts));
    Ok(())
}
