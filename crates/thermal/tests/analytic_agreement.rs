//! Limiting-case validation: on a single-lateral-cell grid whose chain
//! of vertical resistances mirrors eq. 17, the SOR solve must agree
//! with the analytic [`ThermalModel`] within 2 % (the acceptance
//! criterion for the grid solver).

use m3d_core::ThermalModel;
use m3d_thermal::{solve_steady, GridConfig, LumpedGridModel, PowerMap, SolverConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lumped_grid_matches_eq17_within_two_percent(
        power in 1.0..20.0_f64,
        sink in 0.5..2.0_f64,
        per_tier in 0.1..0.8_f64,
        tiers in 1u32..=8,
    ) {
        let model = ThermalModel {
            sink_k_per_w: sink,
            per_tier_k_per_w: per_tier,
            power_per_tier_w: power,
            max_rise_k: 60.0,
        };
        let grid = GridConfig::lumped(&model, tiers);
        let map = PowerMap::uniform(&grid, power);
        let sol = solve_steady(&grid, &map, &SolverConfig::default()).unwrap();
        prop_assert!(sol.converged);
        let analytic = model.temperature_rise(tiers);
        let rel = (sol.peak_rise_k - analytic).abs() / analytic;
        prop_assert!(
            rel < 0.02,
            "tiers={} grid={} analytic={} rel={}",
            tiers, sol.peak_rise_k, analytic, rel
        );
    }
}

#[test]
fn conventional_case_matches_across_the_obs10_power_sweep() {
    // The Obs 10 power points the bench sweeps.
    for power in [2.0, 5.0, 10.0, 20.0] {
        let model = ThermalModel::conventional(power);
        for tiers in 1..=6 {
            let grid = GridConfig::lumped(&model, tiers);
            let map = PowerMap::uniform(&grid, power);
            let sol = solve_steady(&grid, &map, &SolverConfig::default()).unwrap();
            assert!(sol.converged);
            let analytic = model.temperature_rise(tiers);
            assert!(
                (sol.peak_rise_k - analytic).abs() / analytic < 0.02,
                "P={power} Y={tiers}: {} vs {analytic}",
                sol.peak_rise_k
            );
        }
    }
}

#[test]
fn lumped_model_reproduces_the_analytic_tier_cap() {
    for power in [2.0, 5.0, 10.0] {
        let analytic = ThermalModel::conventional(power);
        let lumped = LumpedGridModel::new(analytic);
        let cap = (1u32..)
            .take_while(|&tiers| lumped.temperature_rise(tiers) <= analytic.max_rise_k)
            .count();
        assert_eq!(cap, analytic.max_tiers().unwrap() as usize, "P={power}");
    }
}
