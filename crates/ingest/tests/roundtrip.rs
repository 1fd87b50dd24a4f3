//! Property tests: every netlist the generators can produce must
//! survive `to_verilog` → ingest unchanged — identical statistics and,
//! because instance/net names are preserved exactly, an identical
//! content key ([`StableHash`]).

use proptest::prelude::*;

use m3d_ingest::{ingest, Format};
use m3d_netlist::gen::{
    accelerator_soc, array_multiplier, bind_cs_ports_as_primary, counter, mac_pe, register,
    ripple_carry_adder, systolic_cs, CsConfig, PeConfig, SocConfig,
};
use m3d_netlist::stats::NetlistStats;
use m3d_netlist::{to_verilog, NetId, Netlist};
use m3d_tech::{Pdk, StableHash, Tier};

fn inputs(nl: &mut Netlist, prefix: &str, n: usize) -> Vec<NetId> {
    (0..n)
        .map(|i| {
            let id = nl.add_net(format!("{prefix}{i}"));
            nl.set_primary_input(id).unwrap();
            id
        })
        .collect()
}

fn check_round_trip(nl: &Netlist) {
    let src = to_verilog(nl);
    let r = ingest(&src, Format::Auto).unwrap_or_else(|e| panic!("re-ingest failed: {e}\n{src}"));
    assert_eq!(r.format, "verilog");
    // The M3D PDK provides both tiers, so stats always compute.
    let pdk = Pdk::m3d_130nm();
    let want = NetlistStats::compute(nl, &pdk).unwrap();
    let got = NetlistStats::compute(&r.netlist, &pdk).unwrap();
    assert_eq!(got, want);
    assert_eq!(
        r.netlist.stable_key(),
        nl.stable_key(),
        "content key must survive the round trip"
    );
}

fn tier_strategy() -> impl Strategy<Value = Tier> {
    prop_oneof![Just(Tier::SiCmos), Just(Tier::Cnfet)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adders_round_trip(width in 1usize..=12, tier in tier_strategy(), cin_bit in 0u8..=1) {
        let with_cin = cin_bit == 1;
        let mut nl = Netlist::new("rca");
        let a = inputs(&mut nl, "a", width);
        let b = inputs(&mut nl, "b", width);
        let cin = with_cin.then(|| inputs(&mut nl, "cin", 1)[0]);
        let out = ripple_carry_adder(&mut nl, "add", tier, &a, &b, cin).unwrap();
        for s in out.sum.iter().chain(std::iter::once(&out.cout)) {
            nl.set_primary_output(*s).unwrap();
        }
        check_round_trip(&nl);
    }

    #[test]
    // The array multiplier needs at least one reduction row (width ≥ 2).
    fn multipliers_round_trip(width in 2usize..=6, tier in tier_strategy()) {
        let mut nl = Netlist::new("mul");
        let a = inputs(&mut nl, "a", width);
        let b = inputs(&mut nl, "b", width);
        let p = array_multiplier(&mut nl, "m", tier, &a, &b).unwrap();
        for n in p {
            nl.set_primary_output(n).unwrap();
        }
        check_round_trip(&nl);
    }

    #[test]
    fn registers_round_trip(width in 1usize..=16, tier in tier_strategy()) {
        let mut nl = Netlist::new("reg");
        let d = inputs(&mut nl, "d", width);
        let q = register(&mut nl, "r", tier, &d).unwrap();
        for n in q {
            nl.set_primary_output(n).unwrap();
        }
        check_round_trip(&nl);
    }

    #[test]
    fn counters_round_trip(width in 1usize..=10, tier in tier_strategy()) {
        let mut nl = Netlist::new("cnt");
        let q = counter(&mut nl, "c", tier, width).unwrap();
        // At width 1 the rollover carry IS q[0] and the generator has
        // already exposed it; don't double-register the port.
        for n in q {
            if !nl.primary_outputs.contains(&n) {
                nl.set_primary_output(n).unwrap();
            }
        }
        check_round_trip(&nl);
    }

    #[test]
    fn processing_elements_round_trip(data_bits in 2usize..=4, extra in 0usize..=3, tier in tier_strategy()) {
        let cfg = PeConfig { data_bits, acc_bits: 2 * data_bits + extra };
        let mut nl = Netlist::new("pe");
        let act = inputs(&mut nl, "act", cfg.data_bits);
        let wgt = inputs(&mut nl, "wgt", cfg.data_bits);
        let psum = inputs(&mut nl, "psum", cfg.acc_bits);
        let out = mac_pe(&mut nl, "pe", tier, cfg, &act, &wgt, &psum).unwrap();
        for n in out.act_out.iter().chain(&out.psum_out) {
            nl.set_primary_output(*n).unwrap();
        }
        check_round_trip(&nl);
    }
}

proptest! {
    // The CS/SoC designs are thousands of cells; a handful of cases is
    // plenty and keeps the suite fast.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn systolic_arrays_round_trip(rows in 1usize..=2, cols in 1usize..=2) {
        let cfg = CsConfig {
            rows,
            cols,
            pe: PeConfig { data_bits: 2, acc_bits: 5 },
            global_buffer_kb: 8,
            local_buffer_kb: 2,
        };
        let mut nl = Netlist::new("cs");
        let zero = nl.add_net("const0");
        nl.set_primary_input(zero).unwrap();
        let ports = systolic_cs(&mut nl, "cs0", Tier::SiCmos, cfg, zero).unwrap();
        bind_cs_ports_as_primary(&mut nl, &ports).unwrap();
        for n in &ports.result_out {
            nl.set_primary_output(*n).unwrap();
        }
        check_round_trip(&nl);
    }

    #[test]
    fn accelerator_socs_round_trip(cs_count in 1u32..=2) {
        let cfg = SocConfig {
            cs_count,
            cs: CsConfig {
                rows: 2,
                cols: 2,
                pe: PeConfig { data_bits: 2, acc_bits: 5 },
                global_buffer_kb: 8,
                local_buffer_kb: 2,
            },
            ..SocConfig::baseline_2d()
        };
        let mut nl = Netlist::new("soc");
        accelerator_soc(&mut nl, &cfg).unwrap();
        check_round_trip(&nl);
    }
}
