//! Criterion bench: the end-to-end RTL-to-GDS flow (scaled design), a
//! cold activity sweep vs the same sweep through a `FlowCache` at
//! default placer effort, row legalisation in isolation, and the ZigZag
//! mapper kernel.
//!
//! That a cached sweep point reproduces the cold run byte for byte is a
//! test, `m3d_core::engine::cache::tests::warm_runs_match_cold_runs_exactly`;
//! this bench only times the two.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use m3d_arch::{map_workload, models, table2_architectures, MapperChip};
use m3d_core::engine::{FetchOpts, FlowCache};
use m3d_netlist::{accelerator_soc, CsConfig, Netlist, PeConfig, SocConfig};
use m3d_pd::{legalize, place, Clustering, Floorplan, FlowConfig, PlacerConfig, Rtl2GdsFlow};
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
fn sweep_cold() {
    for a in sweep_grid() {
        black_box(Rtl2GdsFlow::new(sweep_cfg(a)).run().unwrap());
    }
}

/// One full sweep through a fresh flow cache: the first point runs
/// cold, and points 2–6 share its opt key, so each runs power and the
/// report alone on the first point's post-optimisation state.
fn sweep_warm() {
    let cache = FlowCache::new();
    for a in sweep_grid() {
        black_box(cache.fetch(&sweep_cfg(a), FetchOpts::report()).unwrap());
    }
    assert_eq!(cache.warm_count(), 5, "the grid shares one opt key");
}

fn bench_warmstart(c: &mut Criterion) {
    c.bench_function("flow_sweep_cold_6pt", |b| b.iter(sweep_cold));
    c.bench_function("flow_sweep_warm_6pt", |b| b.iter(sweep_warm));
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
