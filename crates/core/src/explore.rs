//! Design-space exploration drivers for the paper's sweep figures:
//! Fig. 8 (bandwidth × CS grid), Fig. 9 (RRAM capacity), Fig. 10d
//! (interleaved tiers vs workload parallelisability) and Observation 3
//! (SRAM-density 2D baseline).

use serde::{Deserialize, Serialize};

use m3d_arch::{compare, ChipConfig, Workload};
use m3d_tech::{Pdk, RramMacro, SelectorTech};

use crate::cases::{case3_tiers, BaselineAreas, TierPoint};
use crate::design_point::{case_study_design_point, DesignPoint, CASE_STUDY_CS_DEMAND_MM2};
use crate::engine::par_map;
use crate::error::CoreResult;
use crate::framework::{workload_edp_benefit, ChipParams, WorkloadPoint};

/// One cell of the Fig. 8 grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// Total-bandwidth multiple vs the baseline.
    pub bw_factor: f64,
    /// CS-count multiple vs the baseline.
    pub cs_factor: f64,
    /// EDP benefit vs the baseline.
    pub edp_benefit: f64,
}

/// Sweeps EDP benefit over (bandwidth ×, #CS ×) for one workload point
/// (Fig. 8). The baseline cell `(1, 1)` is exactly 1×.
///
/// Grid cells are independent and are fanned across [`par_map`] workers
/// (`M3D_JOBS`); the returned row-major order — `bw_factors` outer,
/// `cs_factors` inner — and every value are identical to serial
/// execution.
pub fn bandwidth_cs_grid(
    base: &ChipParams,
    w: &WorkloadPoint,
    bw_factors: &[f64],
    cs_factors: &[f64],
) -> Vec<GridPoint> {
    let cells: Vec<(f64, f64)> = bw_factors
        .iter()
        .flat_map(|&bf| cs_factors.iter().map(move |&cf| (bf, cf)))
        .collect();
    par_map(&cells, |&(bf, cf)| {
        let n = ((f64::from(base.n_cs) * cf).round() as u32).max(1);
        let chip = ChipParams {
            n_cs: n,
            bandwidth: base.bandwidth * bf,
            ..*base
        };
        GridPoint {
            bw_factor: bf,
            cs_factor: cf,
            edp_benefit: workload_edp_benefit(base, &chip, std::slice::from_ref(w)),
        }
    })
}

/// A compute-bound probe workload: `ratio` operations per memory bit
/// (Obs. 5 uses 16:1 and 1:16).
pub fn intensity_workload(ops_per_bit: f64) -> WorkloadPoint {
    let data_bits = 1.0e7;
    WorkloadPoint::new(data_bits * ops_per_bit, data_bits, u32::MAX)
}

/// One point of the Fig. 9 capacity sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityPoint {
    /// Baseline RRAM capacity in MB.
    pub capacity_mb: u64,
    /// Derived M3D CS count.
    pub n_cs: u32,
    /// Simulated speedup.
    pub speedup: f64,
    /// Simulated EDP benefit.
    pub edp_benefit: f64,
}

/// Sweeps baseline RRAM capacity and simulates the derived design point
/// on `workload` (Fig. 9: ResNet-18 from 12 MB to 128 MB).
///
/// Capacity points are independent and are fanned across [`par_map`]
/// workers (`M3D_JOBS`); the output order follows `capacities_mb` and is
/// identical to serial execution.
///
/// # Errors
///
/// Propagates derivation errors (the first failing capacity, in input
/// order).
pub fn capacity_sweep(
    pdk: &Pdk,
    capacities_mb: &[u64],
    workload: &Workload,
) -> CoreResult<Vec<CapacityPoint>> {
    let base = ChipConfig::baseline_2d();
    par_map(capacities_mb, |&mb| {
        let dp = case_study_design_point(pdk, mb)?;
        let cmp = compare(&base, &dp.m3d_chip_config(), workload);
        Ok(CapacityPoint {
            capacity_mb: mb,
            n_cs: dp.n_cs,
            speedup: cmp.total.speedup,
            edp_benefit: cmp.total.edp_benefit,
        })
    })
    .into_iter()
    .collect()
}

/// Sweeps interleaved tier pairs from 1 to `max_pairs` (Fig. 10d). Tier
/// points run in parallel via [`par_map`], ordered by pair count exactly
/// as the serial sweep. A thermally capped sweep (Obs. 10) passes its
/// cap, e.g. [`crate::ThermalModel::max_tiers`], as `max_pairs`.
pub fn tier_sweep(
    areas: &BaselineAreas,
    base: &ChipParams,
    workload: &[WorkloadPoint],
    max_pairs: u32,
) -> Vec<TierPoint> {
    let pairs: Vec<u32> = (1..=max_pairs.max(1)).collect();
    par_map(&pairs, |&y| case3_tiers(areas, base, workload, y))
}

/// Observation 3: the design point when the 2D baseline uses a
/// `density_ratio`-times less dense (non-BEOL) memory like SRAM — the
/// larger iso-footprint chip frees proportionally more Si for the M3D
/// design (8 → 16 CSs for a 2× ratio).
///
/// # Errors
///
/// Propagates derivation errors.
pub fn sram_baseline_design_point(
    pdk: &Pdk,
    capacity_mb: u64,
    density_ratio: f64,
) -> CoreResult<DesignPoint> {
    // Model the less dense baseline as an RRAM whose cell is
    // `density_ratio×` larger — same capacity, larger array footprint.
    let mut mem = RramMacro::with_capacity_mb(capacity_mb, 1, 256, SelectorTech::SiFet)?;
    mem.cell.selector_limited_area = mem.cell.selector_limited_area * density_ratio;
    DesignPoint::derive(pdk, &mem, CASE_STUDY_CS_DEMAND_MM2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_arch::models;

    #[test]
    fn grid_baseline_cell_is_unity() {
        let base = ChipParams::baseline_2d();
        let w = intensity_workload(16.0);
        let g = bandwidth_cs_grid(&base, &w, &[1.0, 2.0], &[1.0, 2.0]);
        let unity = g
            .iter()
            .find(|p| p.bw_factor == 1.0 && p.cs_factor == 1.0)
            .unwrap();
        assert!((unity.edp_benefit - 1.0).abs() < 1e-9);
    }

    #[test]
    fn obs5_compute_bound_prefers_more_css() {
        // 16 ops/bit: doubling CSs without bandwidth ≈ 2.1× EDP.
        let base = ChipParams::baseline_2d();
        let w = intensity_workload(16.0);
        let g = bandwidth_cs_grid(&base, &w, &[1.0], &[2.0]);
        assert!(
            (1.8..=2.3).contains(&g[0].edp_benefit),
            "EDP {}",
            g[0].edp_benefit
        );
    }

    #[test]
    fn obs5_memory_bound_prefers_bandwidth() {
        // 1/16 ops per bit: from the N=8 M3D point, halving the CS count
        // while doubling per-CS bandwidth (same total port width) halves
        // the eq.-4 memory term → ≈ 2.1× EDP.
        let m3d8 = ChipParams::m3d(8);
        let w = intensity_workload(1.0 / 16.0);
        let fewer_faster = ChipParams { n_cs: 4, ..m3d8 };
        let edp = workload_edp_benefit(&m3d8, &fewer_faster, std::slice::from_ref(&w));
        assert!((1.8..=2.4).contains(&edp), "EDP {edp}");
    }

    #[test]
    fn fig9_capacity_sweep_shape() {
        let pdk = Pdk::m3d_130nm();
        let pts = capacity_sweep(&pdk, &[12, 32, 64, 128], &models::resnet18()).unwrap();
        assert_eq!(pts[0].n_cs, 1);
        assert!((pts[0].edp_benefit - 1.0).abs() < 0.05, "12 MB ≈ 1×");
        assert_eq!(pts[2].n_cs, 8);
        assert!(pts[2].edp_benefit > 4.5, "64 MB ≈ 5.7×");
        assert_eq!(pts[3].n_cs, 16);
        assert!(
            pts[3].edp_benefit > pts[2].edp_benefit,
            "128 MB exceeds 64 MB"
        );
        assert!(
            pts[3].edp_benefit < pts[2].edp_benefit * 1.5,
            "…but plateaus"
        );
    }

    #[test]
    fn tier_sweep_respects_thermal_cap() {
        let areas = BaselineAreas::case_study_64mb();
        let base = ChipParams::baseline_2d();
        let w: Vec<WorkloadPoint> = models::resnet18()
            .layers
            .iter()
            .map(|l| WorkloadPoint::from_layer(l, 8, 16))
            .collect();
        let free = tier_sweep(&areas, &base, &w, 8);
        assert_eq!(free.len(), 8);
        // A thermally capped sweep passes the eq. 17 cap as its pair count.
        let cap = crate::ThermalModel::conventional(8.0).max_tiers().unwrap();
        assert!(cap < 8);
        assert_eq!(tier_sweep(&areas, &base, &w, cap).len(), cap as usize);
    }

    #[test]
    fn obs3_sram_baseline_doubles_the_css() {
        let pdk = Pdk::m3d_130nm();
        let rram_point = case_study_design_point(&pdk, 64).unwrap();
        let sram_point = sram_baseline_design_point(&pdk, 64, 2.0).unwrap();
        assert_eq!(rram_point.n_cs, 8);
        assert_eq!(sram_point.n_cs, 16, "Obs. 3: 8 → 16 CSs");
    }
}
