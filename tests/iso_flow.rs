//! End-to-end physical-design integration: the 2D baseline and the
//! iso-footprint M3D implementation through the full RTL-to-GDS flow
//! (scaled computing sub-systems keep the test fast; the full-size run
//! is `cargo run --release -p m3d-bench --bin fig2_physical_design`).

use m3d::netlist::{CsConfig, PeConfig};
use m3d::pd::{FlowConfig, Rtl2GdsFlow};

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
fn iso_footprint_pair_end_to_end() {
    let (r2d, a2d) = Rtl2GdsFlow::new(FlowConfig::baseline_2d().with_cs(small_cs()).quick())
        .run()
        .unwrap();
    let (r3d, a3d) = Rtl2GdsFlow::new(
        FlowConfig::m3d(4)
            .with_cs(small_cs())
            .quick()
            .with_die(r2d.die),
    )
    .run()
    .unwrap();

    // Iso-footprint and iso-capacity by construction.
    assert_eq!(r2d.die, r3d.die);
    assert!((r2d.rram_array_mm2 - r3d.rram_array_mm2).abs() < 1e-9);

    // Both close the same 20 MHz target (identical target frequencies).
    assert!(r2d.timing_met, "2D critical path {}", r2d.critical_path_ns);
    assert!(r3d.timing_met, "M3D critical path {}", r3d.critical_path_ns);

    // The M3D chip has 4× the compute and 4× the weight bandwidth.
    assert_eq!(r3d.cs_count, 4);
    assert_eq!(
        r3d.rram_bandwidth_bits_per_cycle,
        4 * r2d.rram_bandwidth_bits_per_cycle
    );

    // Tier usage: only the M3D design crosses tiers.
    assert_eq!(r2d.signal_ilvs, 0);
    assert!(r3d.signal_ilvs > 0);
    assert!(r3d.memory_cell_ilvs > r3d.signal_ilvs);

    // Observation 2: upper layers dissipate ≈ 1 % or less at full design
    // size. This test's scaled-down 4×4 CS keeps the full RRAM array but
    // 1/16th of the logic, so the share is a few percent here (the
    // full-size check is fig2_physical_design).
    assert_eq!(r2d.upper_tier_fraction, 0.0);
    assert!(r3d.upper_tier_fraction > 0.0);
    assert!(
        r3d.upper_tier_fraction < 0.05,
        "{}",
        r3d.upper_tier_fraction
    );
    assert!(r3d.cs_stack_density_increase < 0.05);

    // Netlists stay structurally clean through optimisation.
    assert!(a2d.signoff.netlist.lint().is_empty());
    assert!(a3d.signoff.netlist.lint().is_empty());
}

#[test]
fn m3d_uses_freed_si_and_2d_cannot() {
    let (r2d, _) = Rtl2GdsFlow::new(FlowConfig::baseline_2d().with_cs(small_cs()).quick())
        .run()
        .unwrap();
    assert_eq!(r2d.extra_cs_capacity, 0, "Si selectors free nothing");

    let (r3d, a3d) = Rtl2GdsFlow::new(
        FlowConfig::m3d(2)
            .with_cs(small_cs())
            .quick()
            .with_die(r2d.die),
    )
    .run()
    .unwrap();
    assert!(r3d.extra_cs_capacity > 0);
    assert!(a3d.signoff.floorplan.under_array_region().is_some());
}

#[test]
fn undersized_die_is_rejected() {
    // A forced outline too small for the RRAM macro must fail the fit
    // check, not silently overlap.
    let (r2d, _) = Rtl2GdsFlow::new(FlowConfig::baseline_2d().with_cs(small_cs()).quick())
        .run()
        .unwrap();
    let w = r2d.die.width().value();
    let needed_h = (r2d.rram_array_mm2 + r2d.rram_perif_mm2) * 1.0e6 / w;
    let too_small = m3d::pd::Rect::new(0.0, 0.0, w, needed_h * 0.95);
    let res = Rtl2GdsFlow::new(
        FlowConfig::m3d(2)
            .with_cs(small_cs())
            .quick()
            .with_die(too_small),
    )
    .run();
    assert!(matches!(res, Err(m3d::pd::PdError::DoesNotFit { .. })));
}
