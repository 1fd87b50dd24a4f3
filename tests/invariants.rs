//! Property-based invariants spanning the crates: the analytical
//! framework's identities, the simulator's bounds and the technology
//! models' monotonicity, under randomly drawn parameters.

use proptest::prelude::*;

use m3d::arch::{simulate_layer, unique_input_words, ChipConfig, Layer};
use m3d::core::framework::{
    edp_benefit, energy_pj, energy_ratio, exec_cycles, speedup, ChipParams, WorkloadPoint,
};
use m3d::tech::{IlvSpec, RramCellModel, RramMacro, SelectorTech};

fn arb_layer() -> impl Strategy<Value = Layer> {
    (
        1u32..512, // in channels
        1u32..512, // out channels
        prop_oneof![Just(1u32), Just(3), Just(5), Just(7)],
        1u32..64, // out w
        1u32..64, // out h
        1u32..3,  // stride
    )
        .prop_map(|(c, k, kern, ow, oh, s)| Layer::conv("prop", c, k, kern, (ow, oh), s))
}

fn arb_workload_point() -> impl Strategy<Value = WorkloadPoint> {
    (1.0e3..1.0e10_f64, 1.0e3..1.0e10_f64, 1u32..1024)
        .prop_map(|(ops, bits, parts)| WorkloadPoint::new(ops, bits, parts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn framework_identities(w in arb_workload_point(), n in 1u32..64) {
        let base = ChipParams::baseline_2d();
        let m3d = ChipParams::m3d(n);
        // EDP = speedup × energy ratio, exactly.
        let lhs = edp_benefit(&base, &m3d, &w);
        let rhs = speedup(&base, &m3d, &w) * energy_ratio(&base, &m3d, &w);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * lhs.abs().max(1.0));
        // Self-comparison is unity.
        prop_assert!((speedup(&base, &base, &w) - 1.0).abs() < 1e-12);
        // Energies and times are positive and finite.
        for p in [&base, &m3d] {
            prop_assert!(exec_cycles(p, &w).is_finite() && exec_cycles(p, &w) > 0.0);
            prop_assert!(energy_pj(p, &w).is_finite() && energy_pj(p, &w) > 0.0);
        }
    }

    #[test]
    fn speedup_bounded_by_parallelism(w in arb_workload_point(), n in 1u32..64) {
        // With banked bandwidth, speedup can never exceed min(N, N#).
        let base = ChipParams::baseline_2d();
        let m3d = ChipParams::m3d(n);
        let s = speedup(&base, &m3d, &w);
        let cap = f64::from(n.min(w.max_partitions));
        prop_assert!(s <= cap + 1e-9, "speedup {s} exceeds cap {cap}");
        prop_assert!(s >= 1.0 - 1e-9, "M3D never slower under eq. (4)");
    }

    #[test]
    fn exec_time_respects_both_bounds(w in arb_workload_point()) {
        let p = ChipParams::baseline_2d();
        let t = exec_cycles(&p, &w);
        prop_assert!(t + 1e-9 >= w.data_bits / p.bandwidth);
        prop_assert!(t + 1e-9 >= w.ops / p.peak_ops_per_cs);
    }

    #[test]
    fn simulator_speedup_within_physical_bounds(layer in arb_layer(), n in 1u32..16) {
        let a = simulate_layer(&ChipConfig::baseline_2d(), &layer);
        let b = simulate_layer(&ChipConfig::m3d(n), &layer);
        let s = a.cycles as f64 / b.cycles as f64;
        prop_assert!(s >= 0.99, "{}: M3D slower ({s})", layer.name);
        prop_assert!(
            s <= f64::from(n) + 1e-9,
            "speedup {s} exceeds CS count {n}"
        );
        prop_assert!(b.used_cs <= n);
        prop_assert!(b.used_cs >= 1);
        // Energy breakdown terms are non-negative.
        for e in [a.energy, b.energy] {
            prop_assert!(e.compute_pj >= 0.0 && e.weight_pj >= 0.0);
            prop_assert!(e.buffer_pj >= 0.0 && e.bus_pj >= 0.0 && e.static_pj >= 0.0);
        }
    }

    #[test]
    fn unique_inputs_bounded(layer in arb_layer()) {
        // Never more than the full receptive coverage, never less than
        // one word per input channel.
        let u = unique_input_words(&layer);
        let upper = u64::from(layer.in_channels)
            * u64::from(layer.out_w * layer.kernel)
            * u64::from(layer.out_h * layer.kernel);
        prop_assert!(u <= upper);
        prop_assert!(u >= u64::from(layer.in_channels));
    }

    #[test]
    fn rram_area_monotone_in_delta_and_pitch(
        delta in 1.0..4.0_f64,
        pitch in 1.0..4.0_f64,
    ) {
        let cell = RramCellModel::foundry_130nm();
        let ilv = IlvSpec::ultra_dense_130nm();
        let base = cell
            .area_per_bit(SelectorTech::IDEAL_CNFET, &ilv)
            .unwrap();
        let relaxed = cell
            .area_per_bit(SelectorTech::Cnfet { delta }, &ilv)
            .unwrap();
        prop_assert!(relaxed >= base);
        let coarse = cell
            .area_per_bit(SelectorTech::IDEAL_CNFET, &ilv.with_pitch_scaled(pitch))
            .unwrap();
        prop_assert!(coarse >= base);
    }

    #[test]
    fn rram_macro_bandwidth_scales_with_banks(banks in 1u32..32) {
        let capacity = 64u64 * 1024 * 1024 * 8;
        if capacity.is_multiple_of(u64::from(banks)) {
            let m = RramMacro::new(capacity, banks, 256, SelectorTech::SiFet).unwrap();
            prop_assert_eq!(m.total_bandwidth_bits_per_cycle(), u64::from(banks) * 256);
        }
    }
}
