//! Coarse transient stepping: explicit-Euler integration of the voxel
//! RC network through a schedule of workload phases.
//!
//! Each [`m3d_arch::trace::Phase`] scales the steady power map — active
//! device layers by [`Phase::compute_weight`], BEOL memory layers by
//! [`Phase::memory_weight`] — so a `WeightLoad → Stream → FillDrain`
//! trace produces the heat-up/cool-down excursions the steady solve
//! averages away. The step size is the explicit-stability limit
//! `min(C / ΣG)` scaled by a safety factor, and the integration is a
//! plain serial loop, deterministic by construction.

use m3d_arch::trace::Phase;
use m3d_tech::thermal_profile::HeatSource;

use crate::error::{ThermalError, ThermalResult};
use crate::grid::GridConfig;
use crate::power::PowerMap;

/// One entry of a phase schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseInterval {
    /// What the chip is doing.
    pub phase: Phase,
    /// For how long, in seconds.
    pub duration_s: f64,
}

/// Stepper controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Fraction of the explicit-stability step limit actually used
    /// (in `(0, 1]`).
    pub dt_safety: f64,
    /// Cap on integration steps per phase; longer phases error out
    /// rather than silently burn time.
    pub max_steps_per_phase: usize,
}

impl Default for TransientConfig {
    fn default() -> Self {
        Self {
            dt_safety: 0.5,
            max_steps_per_phase: 200_000,
        }
    }
}

/// The sampled transient response.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Elapsed time at the end of each phase, in s.
    pub times_s: Vec<f64>,
    /// Peak voxel rise at the end of each phase, in K.
    pub peak_rise_k: Vec<f64>,
    /// Hottest peak observed at any sampled instant, in K.
    pub max_peak_k: f64,
    /// Total integration steps taken.
    pub steps: usize,
}

/// `base` rescaled for `phase`: active layers by the compute weight,
/// memory layers by the memory weight, passive layers untouched (they
/// carry no power).
pub fn phase_power(grid: &GridConfig, base: &PowerMap, phase: Phase) -> PowerMap {
    let mut map = base.clone();
    for (l, spec) in grid.layers.iter().enumerate() {
        let w = match spec.source {
            HeatSource::Active { .. } => phase.compute_weight(),
            HeatSource::Memory { .. } => phase.memory_weight(),
            HeatSource::Passive => continue,
        };
        for p in &mut map.layer_w[l] {
            *p *= w;
        }
    }
    map
}

/// Integrates the grid through `phases`, starting from ambient.
///
/// # Errors
///
/// Returns [`ThermalError::ShapeMismatch`] when `base` does not fit the
/// grid, and [`ThermalError::InvalidParameter`] for bad controls, a
/// non-positive phase duration, or a phase needing more steps than the
/// configured cap.
pub fn step_phases(
    grid: &GridConfig,
    base: &PowerMap,
    phases: &[PhaseInterval],
    cfg: &TransientConfig,
) -> ThermalResult<TransientResult> {
    base.check(grid)?;
    if !cfg.dt_safety.is_finite() || cfg.dt_safety <= 0.0 || cfg.dt_safety > 1.0 {
        return Err(ThermalError::InvalidParameter {
            parameter: "dt_safety",
            value: cfg.dt_safety,
            expected: "in (0, 1]",
        });
    }
    if cfg.max_steps_per_phase == 0 {
        return Err(ThermalError::InvalidParameter {
            parameter: "max_steps_per_phase",
            value: 0.0,
            expected: "at least one step",
        });
    }
    let asm = grid.assemble();
    let plane = asm.nx * asm.ny;
    // Per-cell total conductance for the stability bound.
    let mut sum_g = vec![0.0f64; grid.cells()];
    for l in 0..asm.nz {
        for j in 0..asm.ny {
            for i in 0..asm.nx {
                let idx = (l * asm.ny + j) * asm.nx + i;
                let mut g = 0.0;
                if i > 0 {
                    g += asm.g_x[l];
                }
                if i + 1 < asm.nx {
                    g += asm.g_x[l];
                }
                if j > 0 {
                    g += asm.g_y[l];
                }
                if j + 1 < asm.ny {
                    g += asm.g_y[l];
                }
                if l > 0 {
                    g += asm.g_v[l - 1];
                }
                if l + 1 < asm.nz {
                    g += asm.g_v[l];
                }
                if l == 0 {
                    g += asm.g_sink;
                }
                sum_g[idx] = g;
            }
        }
    }
    let dt_limit = (0..grid.cells())
        .map(|idx| asm.cap_j_per_k[idx / plane] / sum_g[idx].max(f64::MIN_POSITIVE))
        .fold(f64::INFINITY, f64::min);
    let dt_stable = cfg.dt_safety * dt_limit;

    let mut t = vec![0.0f64; grid.cells()];
    let mut t_next = vec![0.0f64; grid.cells()];
    let mut out = TransientResult {
        times_s: Vec::with_capacity(phases.len()),
        peak_rise_k: Vec::with_capacity(phases.len()),
        max_peak_k: 0.0,
        steps: 0,
    };
    let mut elapsed = 0.0f64;
    for pi in phases {
        if !pi.duration_s.is_finite() || pi.duration_s <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                parameter: "duration_s",
                value: pi.duration_s,
                expected: "finite and > 0",
            });
        }
        let steps = (pi.duration_s / dt_stable).ceil().max(1.0) as usize;
        if steps > cfg.max_steps_per_phase {
            return Err(ThermalError::InvalidParameter {
                parameter: "phase duration",
                value: pi.duration_s,
                expected: "short enough for the per-phase step cap",
            });
        }
        let dt = pi.duration_s / steps as f64;
        let q = phase_power(grid, base, pi.phase);
        let q_flat: Vec<f64> = q.layer_w.iter().flatten().copied().collect();
        for _ in 0..steps {
            for l in 0..asm.nz {
                for j in 0..asm.ny {
                    for i in 0..asm.nx {
                        let idx = (l * asm.ny + j) * asm.nx + i;
                        let mut flow = q_flat[idx] - sum_g[idx] * t[idx];
                        if i > 0 {
                            flow += asm.g_x[l] * t[idx - 1];
                        }
                        if i + 1 < asm.nx {
                            flow += asm.g_x[l] * t[idx + 1];
                        }
                        if j > 0 {
                            flow += asm.g_y[l] * t[idx - asm.nx];
                        }
                        if j + 1 < asm.ny {
                            flow += asm.g_y[l] * t[idx + asm.nx];
                        }
                        if l > 0 {
                            flow += asm.g_v[l - 1] * t[idx - plane];
                        }
                        if l + 1 < asm.nz {
                            flow += asm.g_v[l] * t[idx + plane];
                        }
                        t_next[idx] = t[idx] + dt * flow / asm.cap_j_per_k[l];
                    }
                }
            }
            std::mem::swap(&mut t, &mut t_next);
            out.steps += 1;
        }
        elapsed += pi.duration_s;
        let peak = t.iter().fold(0.0f64, |m, &v| m.max(v));
        out.times_s.push(elapsed);
        out.peak_rise_k.push(peak);
        out.max_peak_k = out.max_peak_k.max(peak);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{solve_steady, SolverConfig};
    use m3d_tech::LayerStack;

    fn grid() -> GridConfig {
        GridConfig::from_stack(&LayerStack::m3d_130nm(), 100.0, 4, 4, 2, 1.0, 60.0).unwrap()
    }

    #[test]
    fn heats_up_monotonically_under_sustained_streaming() {
        let g = grid();
        let base = PowerMap::uniform(&g, 5.0);
        let phases: Vec<PhaseInterval> = (0..4)
            .map(|_| PhaseInterval {
                phase: Phase::Stream,
                duration_s: 2.0e-4,
            })
            .collect();
        let r = step_phases(&g, &base, &phases, &TransientConfig::default()).unwrap();
        assert_eq!(r.peak_rise_k.len(), 4);
        for w in r.peak_rise_k.windows(2) {
            assert!(w[1] >= w[0], "monotone heat-up: {:?}", r.peak_rise_k);
        }
        assert!(r.peak_rise_k[0] > 0.0);
    }

    #[test]
    fn idle_phase_cools_the_die() {
        let g = grid();
        let base = PowerMap::uniform(&g, 8.0);
        let phases = [
            PhaseInterval {
                phase: Phase::Stream,
                duration_s: 5.0e-4,
            },
            PhaseInterval {
                phase: Phase::Idle,
                duration_s: 5.0e-4,
            },
        ];
        let r = step_phases(&g, &base, &phases, &TransientConfig::default()).unwrap();
        assert!(
            r.peak_rise_k[1] < r.peak_rise_k[0],
            "idle cools: {:?}",
            r.peak_rise_k
        );
        assert_eq!(r.max_peak_k, r.peak_rise_k[0]);
    }

    #[test]
    fn long_streaming_approaches_the_steady_solve() {
        // A fast sink keeps the slowest time constant (R_sink · C_die)
        // in the milliseconds so 20 ms of streaming fully settles.
        let g =
            GridConfig::from_stack(&LayerStack::m3d_130nm(), 100.0, 4, 4, 2, 0.05, 60.0).unwrap();
        let base = PowerMap::uniform(&g, 5.0);
        let phases = [PhaseInterval {
            phase: Phase::Stream,
            duration_s: 2.0e-2,
        }];
        let r = step_phases(&g, &base, &phases, &TransientConfig::default()).unwrap();
        let steady = solve_steady(
            &g,
            &phase_power(&g, &base, Phase::Stream),
            &SolverConfig::default(),
        )
        .unwrap();
        let err = (r.max_peak_k - steady.peak_rise_k).abs() / steady.peak_rise_k;
        assert!(
            err < 0.02,
            "transient settles to steady: {} vs {}",
            r.max_peak_k,
            steady.peak_rise_k
        );
    }

    #[test]
    fn phase_scaling_orders_power() {
        let g = grid();
        let base = PowerMap::uniform(&g, 5.0);
        let stream = phase_power(&g, &base, Phase::Stream).total_w();
        let idle = phase_power(&g, &base, Phase::Idle).total_w();
        assert!(stream > idle);
        assert!(idle > 0.0);
    }

    #[test]
    fn bad_controls_are_rejected() {
        let g = grid();
        let base = PowerMap::uniform(&g, 5.0);
        let phases = [PhaseInterval {
            phase: Phase::Stream,
            duration_s: 1.0e-4,
        }];
        let bad = TransientConfig {
            dt_safety: 0.0,
            ..TransientConfig::default()
        };
        assert!(step_phases(&g, &base, &phases, &bad).is_err());
        let tiny_cap = TransientConfig {
            max_steps_per_phase: 1,
            ..TransientConfig::default()
        };
        assert!(step_phases(&g, &base, &phases, &tiny_cap).is_err());
        let neg = [PhaseInterval {
            phase: Phase::Stream,
            duration_s: -1.0,
        }];
        assert!(step_phases(&g, &base, &neg, &TransientConfig::default()).is_err());
    }
}
