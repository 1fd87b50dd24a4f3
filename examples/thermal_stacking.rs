//! Multi-tier M3D exploration: how many interleaved compute/memory tier
//! pairs help (Fig. 10d), where the thermal budget caps the stack
//! (Observation 10, eq. 17), and how the voxelized RC grid from
//! `m3d-thermal` moves that cap when the stack is monolithic rather
//! than bonded.
//!
//! Run with `cargo run --example thermal_stacking`.

use m3d::arch::models;
use m3d::core::cases::BaselineAreas;
use m3d::core::explore::tier_sweep;
use m3d::core::framework::{ChipParams, WorkloadPoint};
use m3d::core::thermal::ThermalModel;
use m3d::tech::LayerStack;
use m3d::thermal::{solve_steady, GridConfig, PowerMap, SolverConfig, ThermalError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let areas = BaselineAreas::case_study_64mb();
    let base = ChipParams::baseline_2d();

    // ResNet-18 as analytical workload points.
    let resnet: Vec<WorkloadPoint> = models::resnet18()
        .layers
        .iter()
        .map(|l| WorkloadPoint::from_layer(l, 8, 16))
        .collect();
    // One highly parallelisable layer (the L4.1 CONV class the paper says
    // approaches 23×).
    let big_layer = vec![WorkloadPoint::from_layer(
        &m3d::arch::Layer::conv("L4.1 CONV", 512, 512, 3, (7, 7), 1),
        8,
        16,
    )];

    println!("== Interleaved tier pairs vs EDP benefit (Fig. 10d) ==");
    println!(
        "{:>6} {:>6} {:>14} {:>16}",
        "pairs", "N", "ResNet-18 EDP", "L4.1-CONV EDP"
    );
    let whole = tier_sweep(&areas, &base, &resnet, 8);
    let single = tier_sweep(&areas, &base, &big_layer, 8);
    for (w, s) in whole.iter().zip(&single) {
        println!(
            "{:>6} {:>6} {:>13.2}x {:>15.2}x",
            w.tiers, w.n_cs, w.edp_benefit, s.edp_benefit
        );
    }

    println!("\n== Thermal cap (Obs. 10, ΔT ≤ 60 K) ==");
    for power_w in [2.0, 5.0, 10.0, 20.0] {
        let model = ThermalModel::conventional(power_w);
        match model.max_tiers() {
            Ok(y) => println!(
                "{power_w:>5.0} W/tier-pair → max {y} pairs (ΔT = {:.1} K at the cap)",
                model.temperature_rise(y)
            ),
            Err(_) => println!("{power_w:>5.0} W/tier-pair → even one pair exceeds the budget"),
        }
    }

    println!("\n== Thermally capped sweep (5 W per pair) ==");
    let thermal = ThermalModel::conventional(5.0);
    let cap = thermal.max_tiers().map_or(8, |c| c.min(8));
    let capped = tier_sweep(&areas, &base, &resnet, cap);
    println!(
        "allowed pairs: {} of 8 requested; best EDP benefit {:.2}x",
        capped.len(),
        capped.last().map_or(0.0, |p| p.edp_benefit)
    );

    // The same sweep at grid fidelity: the monolithic stack's BEOL
    // conducts far better than the 0.35 K/W-per-pair bonded assumption,
    // so the voxel model admits deeper stacks. Each pair count is
    // voxelized and solved under the same 1 K/W sink and 60 K budget.
    println!("\n== Grid-fidelity cap (voxelized RC solve, 5 W per pair) ==");
    let stack = LayerStack::m3d_130nm();
    let rises = (1..=8)
        .map(|tiers| {
            let grid = GridConfig::from_stack(&stack, areas.total_mm2(), 8, 8, tiers, 1.0, 60.0)?;
            let power = PowerMap::uniform(&grid, 5.0);
            let sol = solve_steady(&grid, &power, &SolverConfig::default())?;
            Ok(if sol.converged {
                sol.peak_rise_k
            } else {
                f64::INFINITY
            })
        })
        .collect::<Result<Vec<f64>, ThermalError>>()?;
    println!(
        "grid model: {:.1} K at 4 pairs (eq. 17 predicts {:.1} K)",
        rises[3],
        thermal.temperature_rise(4)
    );
    let grid_cap = rises.iter().take_while(|&&r| r <= 60.0).count() as u32;
    let grid_capped = tier_sweep(&areas, &base, &resnet, grid_cap);
    println!(
        "allowed pairs: {} of 8 requested; best EDP benefit {:.2}x",
        grid_capped.len(),
        grid_capped.last().map_or(0.0, |p| p.edp_benefit)
    );
    Ok(())
}
