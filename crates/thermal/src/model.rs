//! [`LumpedGridModel`]: the eq. 17 chain solved on the voxel grid.
//!
//! It runs the grid solver on the [`GridConfig::lumped`] chain, which
//! must agree with the analytic model within discretization noise — the
//! crate's limiting-case validation, exercised by
//! `tests/analytic_agreement.rs` and by the `obs10_thermal` case.

use m3d_core::ThermalModel;

use crate::grid::GridConfig;
use crate::power::PowerMap;
use crate::solve::{solve_steady, SolverConfig};

/// The analytic chain solved on the grid: a 1×1-cell stack whose
/// vertical resistances reproduce eq. 17 exactly.
#[derive(Debug, Clone)]
pub struct LumpedGridModel {
    /// The analytic model being mirrored.
    pub analytic: ThermalModel,
    /// Iteration controls for the steady solve.
    pub solver: SolverConfig,
}

impl LumpedGridModel {
    /// Mirrors `analytic` with default solver controls.
    pub fn new(analytic: ThermalModel) -> Self {
        Self {
            analytic,
            solver: SolverConfig::default(),
        }
    }

    /// Peak temperature rise over ambient of a `tiers`-pair stack, in K;
    /// infinite when the solve fails or does not converge, so it never
    /// passes a thermal check.
    pub fn temperature_rise(&self, tiers: u32) -> f64 {
        let grid = GridConfig::lumped(&self.analytic, tiers);
        let power = PowerMap::uniform(&grid, self.analytic.power_per_tier_w);
        match solve_steady(&grid, &power, &self.solver) {
            Ok(s) if s.converged => s.peak_rise_k,
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lumped_grid_model_tracks_the_analytic_cap() {
        let analytic = ThermalModel::conventional(5.0);
        let lumped = LumpedGridModel::new(analytic);
        let cap = (1u32..)
            .take_while(|&tiers| lumped.temperature_rise(tiers) <= analytic.max_rise_k)
            .count();
        assert_eq!(
            cap,
            analytic.max_tiers().unwrap() as usize,
            "same tier cap through either fidelity"
        );
    }
}
