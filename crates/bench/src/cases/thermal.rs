//! Observation 10 as a registered case: the eq. (17) analytic
//! temperature rise of stacked M3D tier pairs vs the voxelized RC-grid
//! solve, with tier caps at both fidelities and a transient excursion.
//!
//! Heat sources come from the physical design: the M3D sign-off flow's
//! placed per-block power-density grid is resampled onto each thermal
//! grid and rescaled to the per-pair budget under sweep, so hotspots
//! land where the placer put the logic.

use m3d_arch::trace::Phase;
use m3d_core::cases::BaselineAreas;
use m3d_core::engine::{par_map, FetchOpts, Stage};
use m3d_core::thermal::{ThermalModel, TierThermalModel};
use m3d_pd::FlowConfig;
use m3d_tech::LayerStack;
use m3d_thermal::{
    step_phases, GridConfig, LumpedGridModel, PhaseInterval, PowerMap, SolverConfig,
    TransientConfig,
};
use serde::Value;

use crate::cases::{case_cs, flows::staged_fetch};
use crate::registry::{obj, reject_unknown, Case, CaseCtx, CaseError, CaseOutcome};

/// Per-(power, tier-count) comparison point.
struct RisePoint {
    power_w: f64,
    tiers: u32,
    rise_grid_k: f64,
    rise_eq17_k: f64,
}

/// `obs10_thermal` — Observation 10: thermal limits on interleaved M3D
/// tiers under a ≈ 60 K budget, eq. 17 vs the RC grid.
pub struct Obs10ThermalCase;

impl Case for Obs10ThermalCase {
    fn name(&self) -> &'static str {
        "obs10_thermal"
    }

    fn summary(&self) -> &'static str {
        "Obs. 10 thermal tier cap: eq. 17 vs voxelized RC grid"
    }

    fn validate(&self, _quick: bool, params: &Value) -> Result<(), CaseError> {
        reject_unknown(params, &[])
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        reject_unknown(params, &[])?;
        let powers: Vec<f64> = if quick {
            vec![5.0, 20.0]
        } else {
            vec![2.0, 5.0, 10.0, 20.0]
        };
        let max_pairs: u32 = if quick { 4 } else { 8 };
        let n_lat: usize = if quick { 4 } else { 8 };
        let budget_k = 60.0;
        let die_mm2 = BaselineAreas::case_study_64mb().total_mm2();
        let solver = SolverConfig::default();
        let before = (ctx.flows.stats(), ctx.thermals.stats());

        let stack = ctx.stage(Stage::Tech, "", |_| LayerStack::m3d_130nm());
        let grid_for = |tiers: u32| {
            GridConfig::from_stack(&stack, die_mm2, n_lat, n_lat, tiers, 1.0, budget_k)
                .map_err(CaseError::internal)
        };

        // The sign-off flow's placed per-block power map: its lateral
        // distribution shapes every deposit below (rescaled per sweep
        // point), replacing a uniform sheet.
        let density = ctx.stage(Stage::PdFlow, "m3d", |sctx| {
            let mut cfg = FlowConfig::m3d(if quick { 2 } else { 8 }).with_cs(case_cs(quick));
            if quick {
                cfg = cfg.quick();
            }
            let fetch = staged_fetch(ctx.flows, sctx, &cfg, FetchOpts::artifacts())?;
            let flow = fetch.artifacts.expect("artifact-level fetch");
            Ok::<_, CaseError>(flow.1.power.density_grid.clone())
        })?;
        // Placed deposit at the sweep's per-pair budget: the flow's
        // lateral hotspot pattern, rescaled so the stack dissipates `p`
        // W per pair.
        let power_for = |g: &GridConfig, p: f64, tiers: u32| {
            PowerMap::from_density_grid(g, &density)
                .map(|placed| {
                    let total = placed.total_w();
                    placed.scaled(p * f64::from(tiers) / total)
                })
                .map_err(CaseError::internal)
        };

        // The power sweep: independent per-pair budgets fan across
        // workers; the cache key includes the deposited power, so points
        // never alias.
        let rises: Vec<Vec<RisePoint>> = ctx.stage(Stage::Thermal, "steady", |_| {
            par_map(&powers, |&p| {
                (1..=max_pairs)
                    .map(|tiers| {
                        let g = grid_for(tiers)?;
                        let sol = ctx
                            .thermals
                            .solve(&g, &power_for(&g, p, tiers)?, &solver)
                            .map_err(CaseError::internal)?;
                        if !sol.converged {
                            return Err(CaseError::internal("SOR solve did not converge"));
                        }
                        Ok(RisePoint {
                            power_w: p,
                            tiers,
                            rise_grid_k: sol.peak_rise_k,
                            rise_eq17_k: ThermalModel::conventional(p).temperature_rise(tiers),
                        })
                    })
                    .collect::<Result<Vec<_>, CaseError>>()
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
        })?;

        // Tier caps at both fidelities, read off the sweep's own rises.
        let caps: Vec<(f64, u32, Option<u32>)> = powers
            .iter()
            .zip(&rises)
            .map(|(&p, per_power)| {
                let grid_cap = per_power
                    .iter()
                    .take_while(|pt| pt.rise_grid_k <= budget_k)
                    .last()
                    .map_or(0, |pt| pt.tiers);
                (p, grid_cap, ThermalModel::conventional(p).max_tiers().ok())
            })
            .collect();

        // Limiting-case validation: the single-lateral-cell chain must
        // reproduce eq. 17 within 2 %.
        let max_rel_err = ctx.stage(Stage::Thermal, "lumped-agreement", |_| {
            powers
                .iter()
                .flat_map(|&p| {
                    let lumped = LumpedGridModel::new(ThermalModel::conventional(p));
                    (1..=max_pairs).map(move |tiers| {
                        let grid_rise = lumped.temperature_rise(tiers);
                        let analytic = ThermalModel::conventional(p).temperature_rise(tiers);
                        (grid_rise - analytic).abs() / analytic
                    })
                })
                .fold(0.0f64, f64::max)
        });
        if max_rel_err >= 0.02 {
            return Err(CaseError::internal(format!(
                "lumped 1x1 grid deviates {max_rel_err:.4} from eq. 17 (acceptance: < 2 %)"
            )));
        }

        // A coarse transient: weight-load / stream / fill-drain / idle
        // at 5 W per pair on a 2-pair stack.
        let transient = ctx.stage(Stage::Thermal, "transient", |_| {
            let g = GridConfig::from_stack(&stack, die_mm2, 4, 4, 2, 1.0, budget_k)
                .map_err(CaseError::internal)?;
            let base = power_for(&g, 5.0, 2)?;
            let phases: Vec<PhaseInterval> = [
                (Phase::WeightLoad, 2.0e-4),
                (Phase::Stream, 6.0e-4),
                (Phase::FillDrain, 1.0e-4),
                (Phase::Idle, 4.0e-4),
            ]
            .iter()
            .map(|&(phase, duration_s)| PhaseInterval { phase, duration_s })
            .collect();
            step_phases(&g, &base, &phases, &TransientConfig::default())
                .map_err(CaseError::internal)
        })?;

        let after = (ctx.flows.stats(), ctx.thermals.stats());
        let all_cached = after.0.misses == before.0.misses && after.1.misses == before.1.misses;
        let result = obj(vec![
            ("budget_k", Value::F64(budget_k)),
            ("die_mm2", Value::F64(die_mm2)),
            ("lumped_max_rel_err", Value::F64(max_rel_err)),
            ("transient_max_peak_k", Value::F64(transient.max_peak_k)),
            (
                "caps",
                Value::Array(
                    caps.iter()
                        .map(|&(p, grid_cap, analytic_cap)| {
                            obj(vec![
                                ("label", Value::Str(format!("{p:.0}w"))),
                                ("power_w", Value::F64(p)),
                                ("cap_grid", Value::U64(u64::from(grid_cap))),
                                ("cap_eq17", Value::U64(analytic_cap.map_or(0, u64::from))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rises",
                Value::Array(
                    rises
                        .iter()
                        .flatten()
                        .map(|pt| {
                            obj(vec![
                                (
                                    "label",
                                    Value::Str(format!("p={}w tiers={}", pt.power_w, pt.tiers)),
                                ),
                                ("power_w", Value::F64(pt.power_w)),
                                ("tiers", Value::U64(u64::from(pt.tiers))),
                                ("rise_grid_k", Value::F64(pt.rise_grid_k)),
                                ("rise_eq17_k", Value::F64(pt.rise_eq17_k)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        Ok(CaseOutcome {
            result,
            cache_hit: all_cached,
            coalesced: false,
        })
    }
}
