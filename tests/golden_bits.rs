//! Bit-level golden values for the small-CS iso-footprint flow pair.
//!
//! Pins, by `f64::to_bits`, the inter-cluster HPWL of the placement, the
//! `place` span's final HPWL counter, and the routed wirelength, critical
//! path and total power of the report, for the 2D baseline and the
//! iso-footprint M3D(2) flow at quick and at default placer effort. Any
//! change to the annealer, the cell library lookup or the downstream
//! phases that moves a single bit of these results fails here.

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

/// `[inter_hpwl, final_hpwl_um, wirelength_m, critical_path_ns,
/// total_power_mw]`; `final_hpwl_um` is an integer span counter, the
/// rest are `f64` bit patterns.
type Bits = [u64; 5];

fn measure(cfg: FlowConfig) -> (Bits, m3d::pd::Rect) {
    let (report, artifacts) = Rtl2GdsFlow::new(cfg).run().unwrap();
    let place = artifacts.span.find("place").expect("place span");
    let bits = [
        artifacts.seed.placement.inter_hpwl.value().to_bits(),
        place.counter_value("final_hpwl_um").expect("final_hpwl_um"),
        report.wirelength_m.to_bits(),
        report.critical_path_ns.to_bits(),
        report.total_power_mw.to_bits(),
    ];
    (bits, report.die)
}

fn check_pair(quick: bool, want_2d: Bits, want_m3d: Bits) {
    let effort = |cfg: FlowConfig| if quick { cfg.quick() } else { cfg };
    let (got_2d, die) = measure(effort(FlowConfig::baseline_2d().with_cs(small_cs())));
    let (got_m3d, _) = measure(effort(FlowConfig::m3d(2).with_cs(small_cs())).with_die(die));
    assert_eq!(got_2d, want_2d, "2D (quick = {quick})");
    assert_eq!(got_m3d, want_m3d, "M3D(2) (quick = {quick})");
}

#[test]
fn quick_effort_flow_pair_is_bit_identical() {
    check_pair(
        true,
        [
            4699846165372467895,
            1652016,
            4612388133129986742,
            4626354225066334395,
            4614513963726151356,
        ],
        [
            4707216031813281706,
            5083178,
            4619359524059453711,
            4626383385975154880,
            4620452465221306908,
        ],
    );
}

#[test]
fn default_effort_flow_pair_is_bit_identical() {
    check_pair(
        false,
        [
            4697833610477636986,
            1183431,
            4610849454659756924,
            4626355819217280170,
            4613602761405080302,
        ],
        [
            4705537826959708212,
            3857266,
            4617663370544090340,
            4626356320229712702,
            4619119724895079264,
        ],
    );
}
