//! Criterion bench: the end-to-end RTL-to-GDS flow (scaled design),
//! warm-started vs cold sign-off at default placer effort, row
//! legalisation in isolation, and the ZigZag mapper kernel.
//!
//! Beyond timings, the warm-vs-cold pair emits `BENCH_warmstart.json`
//! (path overridable via `M3D_BENCH_WARMSTART_JSON`) with the cold and
//! warm sweep wall-clock medians; `scripts/tier1.sh` smoke-runs this
//! bench and asserts only non-timing facts about that file plus the
//! byte-identity of warm and cold reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use m3d_arch::{map_workload, models, table2_architectures, MapperChip};
use m3d_netlist::{accelerator_soc, CsConfig, Netlist, PeConfig, SocConfig};
use m3d_pd::{
    legalize, place, Clustering, Floorplan, FlowConfig, PlacementSeed, PlacerConfig, Rtl2GdsFlow,
};
use m3d_tech::Pdk;

fn small_cs() -> CsConfig {
    CsConfig {
        rows: 4,
        cols: 4,
        pe: PeConfig::default(),
        global_buffer_kb: 64,
        local_buffer_kb: 8,
    }
}

/// The warm-start showcase configuration: default (non-quick) placer
/// effort, so annealing dominates and seed reuse pays.
fn sweep_cfg(activity: f64) -> FlowConfig {
    let mut cfg = FlowConfig::baseline_2d().with_cs(small_cs());
    cfg.activity = activity;
    cfg
}

/// The default sensitivity grid: six activity points, one placement key.
fn sweep_grid() -> Vec<f64> {
    (0..6).map(|i| 0.10 + 0.05 * f64::from(i)).collect()
}

/// One full sweep, cold: every point anneals from scratch.
fn sweep_cold() -> Duration {
    let t = Instant::now();
    for a in sweep_grid() {
        black_box(Rtl2GdsFlow::new(sweep_cfg(a)).run().unwrap());
    }
    t.elapsed()
}

/// One full sweep, warm: the first point anneals, later points reuse
/// its placement seed and re-evaluate sign-off only.
fn sweep_warm(seed: &Arc<PlacementSeed>) -> Duration {
    let t = Instant::now();
    for a in sweep_grid() {
        black_box(
            Rtl2GdsFlow::new(sweep_cfg(a))
                .run_seeded(Some(Arc::clone(seed)))
                .unwrap(),
        );
    }
    t.elapsed()
}

fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1.0e3
}

fn bench_warmstart(c: &mut Criterion) {
    // Non-timing sanity first: a warm-started run must reproduce the
    // cold run byte for byte (same report, placement, span tree).
    let grid = sweep_grid();
    let (_, cold_artifacts) = Rtl2GdsFlow::new(sweep_cfg(grid[0])).run().unwrap();
    assert!(!cold_artifacts.warm, "no seed given, run must be cold");
    let seed = cold_artifacts.seed;
    let probe = grid[grid.len() - 1];
    let (wr, wa) = Rtl2GdsFlow::new(sweep_cfg(probe))
        .run_seeded(Some(Arc::clone(&seed)))
        .unwrap();
    assert!(wa.warm, "neighbour seed shares the placement key");
    let (cr, ca) = Rtl2GdsFlow::new(sweep_cfg(probe)).run().unwrap();
    assert_eq!(wr, cr, "warm report must equal cold");
    assert_eq!(wa.placement, ca.placement, "warm placement must equal cold");
    assert_eq!(wa.span, ca.span, "warm span tree must equal cold");

    c.bench_function("flow_sweep_cold_6pt", |b| b.iter(sweep_cold));
    c.bench_function("flow_sweep_warm_6pt", |b| b.iter(|| sweep_warm(&seed)));

    // Medians for the tier-1 smoke: modest sample counts keep the bench
    // quick; tier1 asserts shape and identity, never timings.
    const SAMPLES: usize = 7;
    let mut cold: Vec<Duration> = (0..SAMPLES).map(|_| sweep_cold()).collect();
    let mut warm: Vec<Duration> = (0..SAMPLES).map(|_| sweep_warm(&seed)).collect();
    let (cold_ms, warm_ms) = (median_ms(&mut cold), median_ms(&mut warm));
    let speedup = if warm_ms > 0.0 {
        cold_ms / warm_ms
    } else {
        0.0
    };
    let path = std::env::var("M3D_BENCH_WARMSTART_JSON").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_warmstart.json"
        )
        .to_owned()
    });
    let json = format!(
        "{{\n  \"bench\": \"flow_sweep_warm_vs_cold\",\n  \"grid_points\": {},\n  \
         \"samples\": {SAMPLES},\n  \"cold_ms_median\": {cold_ms:.3},\n  \
         \"warm_ms_median\": {warm_ms:.3},\n  \"speedup\": {speedup:.3}\n}}\n",
        sweep_grid().len(),
    );
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warmstart bench: cannot write {path}: {e}");
    }
    println!("warmstart sweep: cold {cold_ms:.1} ms, warm {warm_ms:.1} ms, {speedup:.2}x");
}

fn bench_flow(c: &mut Criterion) {
    c.bench_function("rtl_to_gds_quick_2d", |b| {
        b.iter(|| {
            Rtl2GdsFlow::new(FlowConfig::baseline_2d().with_cs(small_cs()).quick())
                .run()
                .unwrap()
        })
    });

    // Legalisation in isolation.
    let cfg = SocConfig {
        cs: small_cs(),
        ..SocConfig::baseline_2d()
    };
    let pdk = Pdk::baseline_2d_130nm();
    let mut nl = Netlist::new("soc");
    accelerator_soc(&mut nl, &cfg).unwrap();
    let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
    let cl = Clustering::build(&nl, &pdk).unwrap();
    let p = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
    c.bench_function("legalize_small_soc", |b| {
        b.iter(|| legalize(&nl, &p, &fp, &pdk).unwrap())
    });
}

fn bench_mapper(c: &mut Criterion) {
    // The ZigZag mapper kernel: full-workload DSE over the paper's
    // arch 6 at the M3D computing-sub-system count.
    let chip = MapperChip::from_arch(&table2_architectures()[5], 8);
    let alexnet = models::alexnet();
    let resnet = models::resnet18();
    c.bench_function("zigzag_map_alexnet_arch6x8", |b| {
        b.iter(|| black_box(map_workload(&chip, &alexnet)))
    });
    c.bench_function("zigzag_map_resnet18_arch6x8", |b| {
        b.iter(|| black_box(map_workload(&chip, &resnet)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_warmstart, bench_flow, bench_mapper
}
criterion_main!(benches);
