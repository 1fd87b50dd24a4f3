//! Integration tests asserting the paper's headline results — the bands
//! every table and figure must land in (see EXPERIMENTS.md for the full
//! paper-vs-measured record).

use m3d::arch::{compare, models, ChipConfig};
use m3d::core::cases::{case1_sweep, case2_via_pitch, BaselineAreas};
use m3d::core::design_point::case_study_design_point;
use m3d::core::explore::{capacity_sweep, sram_baseline_design_point, tier_sweep};
use m3d::core::framework::{ChipParams, WorkloadPoint};
use m3d::tech::{IlvSpec, Pdk, RramCellModel};

fn resnet_points() -> Vec<WorkloadPoint> {
    models::resnet18()
        .layers
        .iter()
        .map(|l| WorkloadPoint::from_layer(l, 8, 16))
        .collect()
}

#[test]
fn design_point_is_eight_css_at_64mb() {
    let dp = case_study_design_point(&Pdk::m3d_130nm(), 64).unwrap();
    assert_eq!(dp.n_cs, 8);
    assert_eq!(dp.banks, 8);
}

#[test]
fn table1_total_band() {
    // Paper: 5.64× speedup, 0.99× energy, 5.66× EDP.
    let t = compare(
        &ChipConfig::baseline_2d(),
        &ChipConfig::m3d(8),
        &models::resnet18(),
    );
    assert!(
        (5.0..=6.5).contains(&t.total.speedup),
        "{}",
        t.total.speedup
    );
    assert!((0.95..=1.02).contains(&t.total.energy_ratio));
    assert!((5.0..=6.6).contains(&t.total.edp_benefit));
}

#[test]
fn table1_layer_shape() {
    let t = compare(
        &ChipConfig::baseline_2d(),
        &ChipConfig::m3d(8),
        &models::resnet18(),
    );
    let row = |name: &str| t.rows.iter().find(|r| r.name == name).unwrap();
    // Early convolutions cap near 4× (K-tile limit).
    for l in ["L1.0 CONV1", "L1.1 CONV2"] {
        assert!(
            (3.3..=4.1).contains(&row(l).speedup),
            "{l}: {}",
            row(l).speedup
        );
    }
    // Late convolutions approach 8×.
    for l in ["L3.1 CONV2", "L4.1 CONV2"] {
        assert!(
            (7.3..=8.1).contains(&row(l).speedup),
            "{l}: {}",
            row(l).speedup
        );
    }
    // The stage-2 downsample is activation-bus bound near the paper's 2.57×.
    assert!((2.0..=3.6).contains(&row("L2.0 DS").speedup));
    // The stem is partition-capped.
    assert!(row("CONV1+POOL").speedup <= 4.05);
    // Energy stays ≈ 1× everywhere.
    for r in &t.rows {
        assert!(
            (0.9..=1.1).contains(&r.energy_ratio),
            "{}: {}",
            r.name,
            r.energy_ratio
        );
    }
}

#[test]
fn fig5_all_models_in_band() {
    // Paper: 5.7×–7.5× speedup at ≈ 0.99× energy across models.
    let base = ChipConfig::baseline_2d();
    let m3d = ChipConfig::m3d(8);
    for w in models::evaluation_models() {
        let c = compare(&base, &m3d, &w);
        assert!(
            (5.0..=8.2).contains(&c.total.speedup),
            "{}: {}",
            c.workload,
            c.total.speedup
        );
        assert!(
            (0.95..=1.05).contains(&c.total.energy_ratio),
            "{}",
            c.workload
        );
    }
}

#[test]
fn fig9_capacity_anchors() {
    // Paper: 1× at 12 MB → 6.8× at 128 MB.
    let pts = capacity_sweep(&Pdk::m3d_130nm(), &[12, 64, 128], &models::resnet18()).unwrap();
    assert_eq!(pts[0].n_cs, 1);
    assert!((0.95..=1.05).contains(&pts[0].edp_benefit));
    assert_eq!(pts[1].n_cs, 8);
    assert!((5.0..=6.5).contains(&pts[1].edp_benefit));
    assert_eq!(pts[2].n_cs, 16);
    assert!((6.0..=7.5).contains(&pts[2].edp_benefit));
    assert!(pts[2].edp_benefit > pts[1].edp_benefit);
}

#[test]
fn fig10c_relaxation_shape() {
    // Obs. 7: flat to 1.6×, reduced-but-positive at 2.5×.
    let areas = BaselineAreas::case_study_64mb();
    let base = ChipParams::baseline_2d();
    let pts = case1_sweep(&areas, &base, &resnet_points(), &[1.0, 1.6, 2.5]).unwrap();
    assert!(pts[1].edp_benefit >= pts[0].edp_benefit * 0.9);
    assert!(pts[2].edp_benefit > 1.0);
    assert!(pts[2].edp_benefit < pts[0].edp_benefit * 0.6);
}

#[test]
fn obs8_via_pitch_shape() {
    // Fine pitch free to ~1.3×; coarse (≥ ~1.8×) erodes the benefit.
    let areas = BaselineAreas::case_study_64mb();
    let base = ChipParams::baseline_2d();
    let cell = RramCellModel::foundry_130nm();
    let ilv = IlvSpec::ultra_dense_130nm();
    let w = resnet_points();
    let fine = case2_via_pitch(&areas, &base, &w, &cell, &ilv, 1.0).unwrap();
    let ok = case2_via_pitch(&areas, &base, &w, &cell, &ilv, 1.3).unwrap();
    let coarse = case2_via_pitch(&areas, &base, &w, &cell, &ilv, 2.0).unwrap();
    assert!((ok.edp_benefit / fine.edp_benefit - 1.0).abs() < 0.1);
    assert!(coarse.edp_benefit < fine.edp_benefit * 0.6);
    assert!(coarse.edp_benefit > 1.0);
}

#[test]
fn fig10d_tier_shape() {
    // Obs. 9: one extra pair helps, then a plateau.
    let areas = BaselineAreas::case_study_64mb();
    let base = ChipParams::baseline_2d();
    let pts = tier_sweep(&areas, &base, &resnet_points(), 8);
    assert!(
        pts[1].edp_benefit > pts[0].edp_benefit * 1.05,
        "one pair helps"
    );
    let plateau = pts.last().unwrap().edp_benefit / pts[2].edp_benefit;
    assert!(plateau < 1.05, "plateau, got ×{plateau}");
    // A highly parallelisable layer keeps scaling much further.
    let layer = vec![WorkloadPoint::from_layer(
        &m3d::arch::Layer::conv("L4.1", 512, 512, 3, (7, 7), 1),
        8,
        16,
    )];
    let lp = tier_sweep(&areas, &base, &layer, 8);
    assert!(
        lp.last().unwrap().edp_benefit > 20.0,
        "paper: approaches 23x, got {}",
        lp.last().unwrap().edp_benefit
    );
}

#[test]
fn obs3_sram_baseline() {
    // 2× less dense baseline memory → 16 CSs → higher EDP benefit.
    let pdk = Pdk::m3d_130nm();
    let sram_dp = sram_baseline_design_point(&pdk, 64, 2.0).unwrap();
    assert_eq!(sram_dp.n_cs, 16);
    let base = ChipConfig::baseline_2d();
    let rram = compare(&base, &ChipConfig::m3d(8), &models::resnet18());
    let sram = compare(&base, &sram_dp.m3d_chip_config(), &models::resnet18());
    assert!(sram.total.edp_benefit > rram.total.edp_benefit);
}
