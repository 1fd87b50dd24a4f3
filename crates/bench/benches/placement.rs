//! Criterion bench: cluster-based annealing global placement on a
//! mid-size computing sub-system, and on the paper-size iso-footprint
//! M3D(8) design that `fig2` places.

use criterion::{criterion_group, criterion_main, Criterion};

use m3d_netlist::{accelerator_soc, CsConfig, Netlist, PeConfig, SocConfig};
use m3d_pd::{place, Clustering, Floorplan, PlacerConfig};
use m3d_tech::Pdk;

fn setup() -> (Clustering, Floorplan) {
    let cfg = SocConfig {
        cs: CsConfig {
            rows: 8,
            cols: 8,
            pe: PeConfig::default(),
            global_buffer_kb: 128,
            local_buffer_kb: 16,
        },
        ..SocConfig::baseline_2d()
    };
    let mut nl = Netlist::new("bench");
    accelerator_soc(&mut nl, &cfg).unwrap();
    let pdk = Pdk::baseline_2d_130nm();
    let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
    let cl = Clustering::build(&nl, &pdk).unwrap();
    (cl, fp)
}

/// The paper-size M3D(8) design inside the die planned for the
/// paper-size 2D baseline (the iso-footprint pair of Fig. 2).
fn setup_m3d8() -> (Clustering, Floorplan) {
    let cfg2d = SocConfig::baseline_2d();
    let mut nl2d = Netlist::new("bench_2d");
    accelerator_soc(&mut nl2d, &cfg2d).unwrap();
    let die = Floorplan::plan(&Pdk::baseline_2d_130nm(), &cfg2d, &nl2d, None)
        .unwrap()
        .die;
    drop(nl2d);
    let cfg = SocConfig::m3d(8);
    let pdk = Pdk::m3d_130nm();
    let mut nl = Netlist::new("bench_m3d8");
    accelerator_soc(&mut nl, &cfg).unwrap();
    let fp = Floorplan::plan(&pdk, &cfg, &nl, Some(die)).unwrap();
    let cl = Clustering::build(&nl, &pdk).unwrap();
    (cl, fp)
}

fn bench_placement(c: &mut Criterion) {
    let (cl, fp) = setup();
    c.bench_function("place_8x8_cs_quick", |b| {
        b.iter(|| place(&cl, &fp, &PlacerConfig::quick()).unwrap())
    });
    let (cl, fp) = setup_m3d8();
    c.bench_function("place_m3d8_default", |b| {
        b.iter(|| place(&cl, &fp, &PlacerConfig::default()).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_placement
}
criterion_main!(benches);
