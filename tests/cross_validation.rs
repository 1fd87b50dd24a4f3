//! Cross-validation between the three independent evaluation routes:
//! the physical-design flow (areas), the architectural simulator
//! (cycles) and the analytical framework (eqs. 1–8), plus the mapper
//! cross-check of Fig. 7.

use m3d::arch::{
    map_workload, models, simulate_layer, table2_architectures, ChipConfig, Layer, MapperChip,
};
use m3d::core::design_point::{DesignPoint, CASE_STUDY_CS_DEMAND_MM2};
use m3d::core::framework::{evaluate_workload, ChipParams, WorkloadPoint};
use m3d::netlist::{accelerator_soc, Netlist, SocConfig};
use m3d::pd::cs_geometric_demand;
use m3d::tech::{Pdk, RramMacro, SelectorTech};

#[test]
fn flow_measured_cs_area_matches_calibration_constant() {
    // The analytical design-point constant must equal what the physical
    // netlist + PDK actually measure for the full-size CS.
    let mut nl = Netlist::new("full2d");
    accelerator_soc(&mut nl, &SocConfig::baseline_2d()).unwrap();
    let measured = cs_geometric_demand(&nl, &Pdk::baseline_2d_130nm())
        .unwrap()
        .as_mm2();
    let err = (measured - CASE_STUDY_CS_DEMAND_MM2).abs() / CASE_STUDY_CS_DEMAND_MM2;
    assert!(
        err < 0.02,
        "measured {measured:.3} vs constant {CASE_STUDY_CS_DEMAND_MM2}"
    );
}

#[test]
fn analytical_framework_tracks_simulator_per_layer() {
    // For weight-dominated compute-bound layers, the partitioned
    // framework and the cycle-level simulator must agree on speedup
    // within ~15 %.
    let sim2 = ChipConfig::baseline_2d();
    let sim3 = ChipConfig::m3d(8);
    let an2 = ChipParams::baseline_2d().partitioned();
    let an3 = ChipParams::m3d(8).partitioned();
    for layer in [
        Layer::conv("late", 512, 512, 3, (7, 7), 1),
        Layer::conv("mid", 256, 256, 3, (14, 14), 1),
        Layer::conv("early", 64, 64, 3, (56, 56), 1),
    ] {
        let s2 = simulate_layer(&sim2, &layer);
        let s3 = simulate_layer(&sim3, &layer);
        let sim_speedup = s2.cycles as f64 / s3.cycles as f64;
        let w = WorkloadPoint::from_layer(&layer, 8, 16);
        let an_speedup = m3d::core::framework::speedup(&an2, &an3, &w);
        let gap = (sim_speedup - an_speedup).abs() / sim_speedup;
        assert!(
            gap < 0.15,
            "{}: sim {sim_speedup:.2} vs analytical {an_speedup:.2}",
            layer.name
        );
    }
}

#[test]
fn fig7_analytical_within_fifteen_percent_of_mapper() {
    // The paper claims ≤ 10 % on its six points; we allow 15 % across
    // the zoo to absorb mapper search granularity.
    let pdk = Pdk::m3d_130nm();
    let rram = RramMacro::with_capacity_mb(256, 1, 256, SelectorTech::SiFet).unwrap();
    let alexnet = models::alexnet();
    for arch in table2_architectures() {
        let dp = DesignPoint::derive(&pdk, &rram, arch.cs_demand_mm2()).unwrap();
        let zz2 = map_workload(&MapperChip::from_arch(&arch, 1), &alexnet);
        let zz3 = map_workload(&MapperChip::from_arch(&arch, dp.n_cs), &alexnet);
        let zz_edp = (zz2.cycles as f64 / zz3.cycles as f64) * (zz2.energy_pj / zz3.energy_pj);

        let points: Vec<WorkloadPoint> = alexnet
            .layers
            .iter()
            .map(|l| WorkloadPoint::from_layer(l, 8, arch.spatial.k.max(1)))
            .collect();
        let base = ChipParams {
            peak_ops_per_cs: arch.spatial.pes() as f64,
            ..ChipParams::baseline_2d()
        }
        .partitioned();
        let m3d = ChipParams {
            n_cs: dp.n_cs,
            bandwidth: base.bandwidth * f64::from(dp.n_cs),
            ..base
        };
        let a2 = evaluate_workload(&base, &points);
        let a3 = evaluate_workload(&m3d, &points);
        let an_edp = (a2.cycles / a3.cycles) * (a2.energy_pj / a3.energy_pj);

        let gap = (an_edp - zz_edp).abs() / zz_edp;
        assert!(
            gap < 0.15,
            "arch {}: mapper {zz_edp:.2} vs analytical {an_edp:.2}",
            arch.id
        );
        // The paper's benefits band (5.3×–11.5×), widened for our
        // calibration: everything lands well above the folding baseline.
        assert!(zz_edp > 5.0, "arch {} EDP {zz_edp}", arch.id);
    }
}

#[test]
fn design_point_from_flow_report_roundtrip() {
    use m3d::netlist::{CsConfig, PeConfig};
    use m3d::pd::{FlowConfig, Rtl2GdsFlow};
    let cs = CsConfig {
        rows: 4,
        cols: 4,
        pe: PeConfig::default(),
        global_buffer_kb: 64,
        local_buffer_kb: 8,
    };
    let (report, _) = Rtl2GdsFlow::new(FlowConfig::baseline_2d().with_cs(cs).quick())
        .run()
        .unwrap();
    let pdk = Pdk::m3d_130nm();
    let rram = RramMacro::with_capacity_mb(64, 1, 256, SelectorTech::SiFet).unwrap();
    let dp = DesignPoint::derive(&pdk, &rram, report.cs_demand_mm2).unwrap();
    // Tiny CSs → many fit under the 64 MB array.
    assert!(dp.n_cs > 8);
    assert!((dp.cs_demand_mm2 - report.cs_demand_mm2).abs() < 1e-12);
}
