//! Bit-level golden values for the small-CS iso-footprint flow pair.
//!
//! Pins, by `f64::to_bits`, the inter-cluster HPWL of the placement, the
//! `place` span's final HPWL counter, the `clustering` span's cluster and
//! net counts, and the routed wirelength, critical path, total power,
//! cell area, signal ILVs, hottest-CS power and peak power density of the
//! report, and the placement's density overflow, for the 2D baseline and
//! the iso-footprint M3D(2) flow at quick and at default placer effort.
//! Any change to the annealer, the cell library lookup or the downstream
//! phases that moves a single bit of these results fails here.
//!
//! Also pins the paper-size 2D placement (every placement `f64`, its
//! regions and its `place` span), and the bytes generated names reach:
//! the Verilog export and the content key of the small-CS M3D(4) netlist.

use m3d::netlist::{accelerator_soc, to_verilog, CsConfig, Netlist, PeConfig, SocConfig};
use m3d::pd::{place_traced, Clustering, Floorplan, FlowConfig, PlacerConfig, Rtl2GdsFlow};
use m3d::tech::{Pdk, SpanNode, StableHash, StableHasher};

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
/// total_power_mw, cell_area_mm2, signal_ilvs, hottest_cs_power_mw,
/// peak_density_mw_per_mm2, clusters, cluster_nets, overflow]`;
/// `final_hpwl_um`, `clusters` and `cluster_nets` are integer span
/// counters and `signal_ilvs` is an integer report field, the rest are
/// `f64` bit patterns.
type Bits = [u64; 12];

fn measure(cfg: FlowConfig) -> (Bits, m3d::pd::Rect) {
    let (report, artifacts) = Rtl2GdsFlow::new(cfg).run().unwrap();
    let place = artifacts.span.find("place").expect("place span");
    let clustering = artifacts.span.find("clustering").expect("clustering span");
    let bits = [
        artifacts
            .signoff
            .seed
            .placement
            .inter_hpwl
            .value()
            .to_bits(),
        place.counter_value("final_hpwl_um").expect("final_hpwl_um"),
        report.wirelength_m.to_bits(),
        report.critical_path_ns.to_bits(),
        report.total_power_mw.to_bits(),
        report.cell_area_mm2.to_bits(),
        report.signal_ilvs,
        report.hottest_cs_power_mw.to_bits(),
        report.peak_density_mw_per_mm2.to_bits(),
        clustering.counter_value("clusters").expect("clusters"),
        clustering.counter_value("nets").expect("nets"),
        artifacts.signoff.seed.placement.overflow.value().to_bits(),
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
            4590219143051742697,
            0,
            4608184236475359301,
            4604171918002208823,
            43,
            2108,
            0,
        ],
        [
            4707216031813281706,
            5083178,
            4619359524059453711,
            4626383385975154880,
            4620452465221306908,
            4596255025977754047,
            560,
            4609236307814496320,
            4609146716581170495,
            82,
            3957,
            4672775555842196068,
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
            4589828333159337129,
            0,
            4607416646555471189,
            4604130054177434678,
            43,
            2108,
            0,
        ],
        [
            4705537826959708212,
            3857266,
            4617663370544090340,
            4626356320229712702,
            4619119724895079264,
            4595010078369442156,
            560,
            4608385718577495429,
            4608253366052575519,
            82,
            3957,
            4668022466704847576,
        ],
    );
}

/// Absorbs a span's name, counters and children, depth first.
fn hash_span(h: &mut StableHasher, span: &SpanNode) {
    h.write_str(&span.name);
    for (name, value) in &span.counters {
        h.write_str(name);
        h.write_u64(*value);
    }
    h.write_u64(span.children.len() as u64);
    for child in &span.children {
        hash_span(h, child);
    }
}

/// The paper-size 2D design (default CS, the die `fig2` plans) placed at
/// default effort: the final HPWL and density overflow by bits, and an
/// FNV-1a digest of every placement `f64`, its regions and its `place`
/// span.
#[test]
fn paper_size_2d_placement_is_bit_identical() {
    let cfg = SocConfig::baseline_2d();
    let pdk = Pdk::baseline_2d_130nm();
    let mut nl = Netlist::new("soc_2d");
    accelerator_soc(&mut nl, &cfg).unwrap();
    let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
    let cl = Clustering::build(&nl, &pdk).unwrap();
    let (p, span) = place_traced(&cl, &fp, &PlacerConfig::default()).unwrap();

    let mut h = StableHasher::new();
    let points = p.cluster_pos.iter().chain(&p.cell_pos).chain(&p.macro_pos);
    for pt in points {
        h.write_u64(pt.x.value().to_bits());
        h.write_u64(pt.y.value().to_bits());
    }
    for v in [
        p.inter_hpwl.value(),
        p.intra_wl.value(),
        p.initial_hpwl.value(),
        p.overflow.value(),
    ] {
        h.write_u64(v.to_bits());
    }
    for &r in &p.cluster_region {
        h.write_u64(r as u64);
    }
    hash_span(&mut h, &span);

    assert_eq!(
        format!("{:016x}", p.inter_hpwl.value().to_bits()),
        "415b094ff0bd240f",
        "inter_hpwl moved"
    );
    assert_eq!(
        format!("{:016x}", p.overflow.value().to_bits()),
        "4136d03819976940",
        "overflow moved"
    );
    assert_eq!(
        format!("{:016x}", h.finish()),
        "636398e303fa2454",
        "placement or span moved"
    );
}

/// FNV-1a digests of `to_verilog` and `stable_key()` for the small-CS
/// M3D(4) SoC: every instance and net name, their order and the sink
/// lists reach these bytes.
#[test]
fn generated_netlist_names_are_byte_identical() {
    let mut nl = Netlist::new("soc_m3d4");
    let cfg = SocConfig {
        cs: small_cs(),
        ..SocConfig::m3d(4)
    };
    accelerator_soc(&mut nl, &cfg).unwrap();
    let mut h = StableHasher::new();
    h.write(to_verilog(&nl).as_bytes());
    assert_eq!(
        format!("{:016x}", h.finish()),
        "cab4b6228426c7f4",
        "to_verilog bytes moved"
    );
    assert_eq!(
        format!("{:016x}", nl.stable_key()),
        "7072493d1f8c047b",
        "stable_key moved"
    );
}
