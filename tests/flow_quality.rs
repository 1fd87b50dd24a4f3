//! Sign-off-quality integration: the flow with legalisation produces a
//! DRC-clean, corner-robust implementation with sensible clock-tree and
//! congestion numbers.

use m3d::netlist::{CsConfig, PeConfig};
use m3d::pd::{analyze_congestion, check_placement, estimate_clock_tree, FlowConfig, Rtl2GdsFlow};
use m3d::tech::Corner;

fn small_cs() -> CsConfig {
    CsConfig {
        rows: 4,
        cols: 4,
        pe: PeConfig::default(),
        global_buffer_kb: 64,
        local_buffer_kb: 8,
    }
}

#[test]
fn legalized_flow_is_drc_clean_before_buffering() {
    // Run with legalisation on (not the quick profile), 1 opt round off
    // so positions stay on rows, then check DRC with row rules.
    let mut cfg = FlowConfig::baseline_2d().with_cs(small_cs());
    cfg.placer = m3d::pd::PlacerConfig::quick();
    cfg.opt.max_rounds = 0;
    cfg.legalize = true;
    let (report, a) = Rtl2GdsFlow::new(cfg.clone()).run().unwrap();
    assert!(report.legalization_displacement_um > 0.0);
    let drc = check_placement(
        &a.signoff.netlist,
        &a.signoff.placement,
        &a.signoff.floorplan,
        &cfg.pdk,
        true,
    )
    .unwrap();
    assert!(
        drc.is_clean(),
        "{} violations, first {:?}",
        drc.total,
        drc.violations.first()
    );
}

#[test]
fn clock_tree_and_congestion_are_consistent_with_the_flow() {
    let cfg = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
    let (report, a) = Rtl2GdsFlow::new(cfg.clone()).run().unwrap();
    let cts = estimate_clock_tree(
        &a.signoff.netlist,
        &a.signoff.placement,
        &a.signoff.floorplan,
        &cfg.pdk,
    )
    .unwrap();
    let flops = a
        .signoff
        .netlist
        .cells()
        .iter()
        .filter(|c| c.kind.is_sequential())
        .count();
    assert_eq!(cts.sinks, flops);
    // Clock power is within the same order as the quick model's estimate.
    assert!(cts.power.value() < report.total_power_mw);
    assert!(cts.insertion_delay.value() < report.critical_path_ns);

    let cong = analyze_congestion(
        &a.signoff.netlist,
        &a.signoff.placement,
        &a.signoff.routing,
        &a.signoff.floorplan,
        &cfg.pdk,
        1000.0,
    );
    assert!(
        cong.max_utilization < 1.0,
        "no overflow on the small design"
    );
    assert_eq!(cong.overflow_tiles, 0);
}

#[test]
fn timing_closes_across_corners() {
    for corner in Corner::ALL {
        let mut cfg = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        cfg.pdk = cfg.pdk.at_corner(corner);
        let (report, _) = Rtl2GdsFlow::new(cfg).run().unwrap();
        assert!(
            report.timing_met,
            "{}: {} ns vs 50 ns",
            corner.name(),
            report.critical_path_ns
        );
    }
}

#[test]
fn worst_endpoint_table_is_populated() {
    let cfg = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
    let (_, a) = Rtl2GdsFlow::new(cfg).run().unwrap();
    let t = &a.signoff.timing;
    assert!(!t.worst_endpoints.is_empty());
    assert!((t.worst_endpoints[0].arrival_ns - t.critical_path.value()).abs() < 1e-9);
    for w in t.worst_endpoints.windows(2) {
        assert!(w[0].arrival_ns >= w[1].arrival_ns);
    }
}
