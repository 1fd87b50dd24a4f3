//! Steady-state temperature solve: red-black successive over-relaxation
//! on the 7-point voxel stencil.
//!
//! The grid is two-colored by `(i + j + l) % 2`; every neighbour of a
//! red cell is black and vice versa, so all cells of one color update
//! independently from a consistent snapshot of the other. Each
//! half-sweep runs in place on the calling thread: a half-sweep is a few
//! µs of arithmetic, far less than handing its rows to worker threads
//! would cost, so parallelism lives one level up (independent solves of
//! a sweep run concurrently). The solution does not depend on the worker
//! count. Convergence is judged on the sweep's maximum absolute update.
//!
//! The solve runs in the *rise* domain: ambient is 0 K and the returned
//! field is the temperature rise above it.

use m3d_tech::{StableHash, StableHasher};
use serde::{Deserialize, Serialize};

use crate::error::{ThermalError, ThermalResult};
use crate::grid::{Assembled, GridConfig};
use crate::power::PowerMap;

/// Iteration controls for the SOR solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Iteration cap (one iteration = one red + one black half-sweep).
    pub max_iters: usize,
    /// Convergence threshold on the max per-sweep update, in K.
    pub tol_k: f64,
    /// Over-relaxation factor, in `(0, 2)`.
    pub omega: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            max_iters: 50_000,
            tol_k: 1.0e-7,
            omega: 1.7,
        }
    }
}

impl StableHash for SolverConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.max_iters.stable_hash(h);
        self.tol_k.stable_hash(h);
        self.omega.stable_hash(h);
    }
}

impl SolverConfig {
    /// Validates the iteration controls.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a zero iteration
    /// cap, a non-positive tolerance or an omega outside `(0, 2)`.
    pub fn check(&self) -> ThermalResult<()> {
        if self.max_iters == 0 {
            return Err(ThermalError::InvalidParameter {
                parameter: "max_iters",
                value: 0.0,
                expected: "at least one iteration",
            });
        }
        if !self.tol_k.is_finite() || self.tol_k <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                parameter: "tol_k",
                value: self.tol_k,
                expected: "finite and > 0",
            });
        }
        if !self.omega.is_finite() || self.omega <= 0.0 || self.omega >= 2.0 {
            return Err(ThermalError::InvalidParameter {
                parameter: "omega",
                value: self.omega,
                expected: "in (0, 2)",
            });
        }
        Ok(())
    }
}

/// The converged temperature field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteadySolution {
    /// Lateral cells along x.
    pub nx: usize,
    /// Lateral cells along y.
    pub ny: usize,
    /// Grid layers.
    pub nz: usize,
    /// Per-voxel temperature rise over ambient, in K (row-major
    /// `(l * ny + j) * nx + i`).
    pub t_k: Vec<f64>,
    /// Hottest voxel's rise, in K.
    pub peak_rise_k: f64,
    /// Iterations spent (red + black half-sweeps count as one).
    pub iterations: usize,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
}

/// The per-cell SOR update and the shared stencil arithmetic.
struct Stencil<'a> {
    asm: &'a Assembled,
    q: &'a [f64],
    omega: f64,
}

impl Stencil<'_> {
    /// The relaxed new value of cell `(i, j, l)` given the current
    /// field `t`. Reads only the cell itself and its six neighbours —
    /// all of the opposite color.
    #[inline]
    fn updated(&self, t: &[f64], i: usize, j: usize, l: usize) -> f64 {
        let a = self.asm;
        let idx = (l * a.ny + j) * a.nx + i;
        let mut num = self.q[idx];
        let mut den = 0.0;
        if i > 0 {
            num += a.g_x[l] * t[idx - 1];
            den += a.g_x[l];
        }
        if i + 1 < a.nx {
            num += a.g_x[l] * t[idx + 1];
            den += a.g_x[l];
        }
        if j > 0 {
            num += a.g_y[l] * t[idx - a.nx];
            den += a.g_y[l];
        }
        if j + 1 < a.ny {
            num += a.g_y[l] * t[idx + a.nx];
            den += a.g_y[l];
        }
        let plane = a.nx * a.ny;
        if l > 0 {
            num += a.g_v[l - 1] * t[idx - plane];
            den += a.g_v[l - 1];
        }
        if l + 1 < a.nz {
            num += a.g_v[l] * t[idx + plane];
            den += a.g_v[l];
        }
        if l == 0 {
            // Sink to ambient (0 K in the rise domain): contributes to
            // the diagonal only.
            den += a.g_sink;
        }
        let t_gs = num / den.max(f64::MIN_POSITIVE);
        (1.0 - self.omega) * t[idx] + self.omega * t_gs
    }

    /// One in-place half-sweep over `color`; returns the max absolute
    /// update.
    fn half_sweep(&self, t: &mut [f64], color: usize) -> f64 {
        let a = self.asm;
        let mut max_d = 0.0f64;
        for l in 0..a.nz {
            for j in 0..a.ny {
                for i in ((l + j + color) % 2..a.nx).step_by(2) {
                    let new = self.updated(t, i, j, l);
                    let idx = (l * a.ny + j) * a.nx + i;
                    max_d = max_d.max((new - t[idx]).abs());
                    t[idx] = new;
                }
            }
        }
        max_d
    }
}

/// Solves the steady-state rise field of `power` on `grid`.
///
/// # Errors
///
/// Returns [`ThermalError::ShapeMismatch`] when the map does not fit
/// the grid and [`ThermalError::InvalidParameter`] for bad iteration
/// controls.
pub fn solve_steady(
    grid: &GridConfig,
    power: &PowerMap,
    cfg: &SolverConfig,
) -> ThermalResult<SteadySolution> {
    power.check(grid)?;
    cfg.check()?;
    let asm = grid.assemble();
    let q: Vec<f64> = power.layer_w.iter().flatten().copied().collect();
    let mut t = vec![0.0f64; grid.cells()];
    let stencil = Stencil {
        asm: &asm,
        q: &q,
        omega: cfg.omega,
    };
    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.max_iters {
        iterations += 1;
        let mut max_d = 0.0f64;
        for color in 0..2 {
            max_d = max_d.max(stencil.half_sweep(&mut t, color));
        }
        if max_d < cfg.tol_k {
            converged = true;
            break;
        }
    }
    let peak = t.iter().fold(0.0f64, |m, &v| m.max(v));
    let rec = m3d_core::obs::Recorder::global();
    rec.incr("thermal.solves", 1);
    rec.observe(
        "thermal.sor_iterations",
        iterations as u64,
        m3d_core::obs::ITER_EDGES,
    );
    Ok(SteadySolution {
        nx: grid.nx,
        ny: grid.ny,
        nz: asm.nz,
        t_k: t,
        peak_rise_k: peak,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_core::ThermalModel;
    use m3d_tech::LayerStack;

    fn grid() -> GridConfig {
        GridConfig::from_stack(&LayerStack::m3d_130nm(), 100.0, 8, 8, 2, 1.0, 60.0).unwrap()
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let g = grid();
        let s = solve_steady(&g, &PowerMap::zero(&g), &SolverConfig::default()).unwrap();
        assert!(s.converged);
        assert!(s.t_k.iter().all(|&t| t == 0.0));
        assert_eq!(s.peak_rise_k, 0.0);
    }

    #[test]
    fn lumped_grid_reproduces_the_analytic_model() {
        let m = ThermalModel::conventional(5.0);
        for tiers in [1u32, 2, 4] {
            let g = GridConfig::lumped(&m, tiers);
            let p = PowerMap::uniform(&g, 5.0);
            let s = solve_steady(&g, &p, &SolverConfig::default()).unwrap();
            assert!(s.converged);
            let want = m.temperature_rise(tiers);
            let got = s.peak_rise_k;
            assert!(
                (got - want).abs() / want < 0.02,
                "tiers={tiers}: grid {got} vs analytic {want}"
            );
        }
    }

    #[test]
    fn energy_balance_holds_at_the_sink() {
        // In steady state all injected power leaves through the sink:
        // Σ g_sink · T_bottom = P_total.
        let g = grid();
        let p = PowerMap::uniform(&g, 5.0);
        let tight = SolverConfig {
            tol_k: 1.0e-10,
            ..SolverConfig::default()
        };
        let s = solve_steady(&g, &p, &tight).unwrap();
        assert!(s.converged);
        let g_sink = g.assemble().g_sink;
        let bottom_sum: f64 = s.t_k[..g.nx * g.ny].iter().sum();
        let out_w = g_sink * bottom_sum;
        assert!(
            (out_w - p.total_w()).abs() / p.total_w() < 1e-3,
            "sink extracts {out_w} W of {} W injected",
            p.total_w()
        );
    }

    #[test]
    fn hotter_map_means_hotter_peak() {
        let g = grid();
        let cfg = SolverConfig::default();
        let cool = solve_steady(&g, &PowerMap::uniform(&g, 2.0), &cfg).unwrap();
        let hot = solve_steady(&g, &PowerMap::uniform(&g, 8.0), &cfg).unwrap();
        assert!(hot.peak_rise_k > cool.peak_rise_k);
        // The network is linear: 4× the power is 4× the rise.
        assert!((hot.peak_rise_k / cool.peak_rise_k - 4.0).abs() < 1e-3);
    }

    #[test]
    fn solver_config_validation() {
        let g = grid();
        let p = PowerMap::uniform(&g, 1.0);
        let bad_omega = SolverConfig {
            omega: 2.5,
            ..SolverConfig::default()
        };
        assert!(solve_steady(&g, &p, &bad_omega).is_err());
        let bad_iters = SolverConfig {
            max_iters: 0,
            ..SolverConfig::default()
        };
        assert!(solve_steady(&g, &p, &bad_iters).is_err());
        // The stable key tracks exactly the physics knobs.
        let a = SolverConfig::default();
        let c = SolverConfig { omega: 1.5, ..a };
        assert_eq!(a.stable_key(), SolverConfig::default().stable_key());
        assert_ne!(a.stable_key(), c.stable_key());
    }
}
