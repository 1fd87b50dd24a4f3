//! Monte-Carlo sensitivity analysis of the M3D EDP benefit.
//!
//! The paper's constants (memory energy α, MAC energy, idle powers,
//! bandwidths) come from one foundry kit; this module quantifies how
//! robust the headline benefit is to calibration error. Perturbations
//! are applied *coherently* to both the 2D baseline and the M3D design
//! (they share the technology), which is why the benefit distribution
//! comes out much tighter than the individual energies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::engine::par_map;
use crate::error::{CoreError, CoreResult};
use crate::framework::{workload_edp_benefit, ChipParams, WorkloadPoint};

/// Relative half-ranges of the uniform perturbations (0.2 = ±20 %).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Perturbation {
    /// Memory access energy α.
    pub alpha: f64,
    /// Compute energy per op.
    pub op_energy: f64,
    /// Idle energies (memory and CS).
    pub idle: f64,
    /// Memory bandwidth.
    pub bandwidth: f64,
    /// Peak throughput.
    pub peak_ops: f64,
}

impl Perturbation {
    /// ±20 % on every constant — a conservative calibration-error bound.
    pub fn twenty_percent() -> Self {
        Self {
            alpha: 0.2,
            op_energy: 0.2,
            idle: 0.2,
            bandwidth: 0.2,
            peak_ops: 0.2,
        }
    }

    /// Validates the half-ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for ranges outside
    /// `[0, 0.95]`.
    pub fn validate(&self) -> CoreResult<()> {
        for (name, v) in [
            ("alpha", self.alpha),
            ("op_energy", self.op_energy),
            ("idle", self.idle),
            ("bandwidth", self.bandwidth),
            ("peak_ops", self.peak_ops),
        ] {
            if !(0.0..=0.95).contains(&v) || !v.is_finite() {
                return Err(CoreError::InvalidParameter {
                    parameter: "perturbation half-range",
                    value: v,
                    expected: "within [0, 0.95]",
                });
            }
            let _ = name;
        }
        Ok(())
    }
}

/// Summary statistics of the sampled EDP-benefit distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityResult {
    /// Nominal (unperturbed) benefit.
    pub nominal: f64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Smallest sampled benefit.
    pub min: f64,
    /// Largest sampled benefit.
    pub max: f64,
    /// Samples drawn.
    pub samples: usize,
}

fn perturbed(p: &ChipParams, f: &[f64; 5]) -> ChipParams {
    ChipParams {
        alpha_pj_per_bit: p.alpha_pj_per_bit * f[0],
        op_pj: p.op_pj * f[1],
        mem_idle_pj: p.mem_idle_pj * f[2],
        cs_idle_pj: p.cs_idle_pj * f[2],
        bandwidth: p.bandwidth * f[3],
        peak_ops_per_cs: p.peak_ops_per_cs * f[4],
        ..*p
    }
}

/// Samples the EDP-benefit distribution under coherent technology
/// perturbations. Deterministic for a fixed `seed`.
///
/// Perturbation factors are drawn serially from the seeded RNG — exactly
/// the sequence a fully serial implementation would draw — and only the
/// (independent) evaluations fan out across [`par_map`] workers
/// (`M3D_JOBS`), so the statistics are bit-identical for any worker
/// count.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for invalid perturbations or
/// `samples == 0`.
pub fn edp_benefit_sensitivity(
    base: &ChipParams,
    m3d: &ChipParams,
    workload: &[WorkloadPoint],
    perturbation: &Perturbation,
    samples: usize,
    seed: u64,
) -> CoreResult<SensitivityResult> {
    perturbation.validate()?;
    if samples == 0 {
        return Err(CoreError::InvalidParameter {
            parameter: "samples",
            value: 0.0,
            expected: "> 0",
        });
    }
    let nominal = workload_edp_benefit(base, m3d, workload);
    let mut rng = StdRng::seed_from_u64(seed);
    let ranges = [
        perturbation.alpha,
        perturbation.op_energy,
        perturbation.idle,
        perturbation.bandwidth,
        perturbation.peak_ops,
    ];
    let factors: Vec<[f64; 5]> = (0..samples)
        .map(|_| {
            let mut f = [1.0f64; 5];
            for (fi, r) in f.iter_mut().zip(ranges) {
                *fi = 1.0 + rng.gen_range(-r..=r);
            }
            f
        })
        .collect();
    let mut draws: Vec<f64> = par_map(&factors, |f| {
        // Coherent: the same technology scaling applies to both chips.
        let b = perturbed(base, f);
        let m = perturbed(m3d, f);
        workload_edp_benefit(&b, &m, workload)
    });
    draws.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = draws.iter().sum::<f64>() / samples as f64;
    let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / samples as f64;
    let pct = |q: f64| draws[((q * (samples - 1) as f64).round() as usize).min(samples - 1)];
    Ok(SensitivityResult {
        nominal,
        mean,
        std_dev: var.sqrt(),
        p5: pct(0.05),
        p95: pct(0.95),
        min: draws[0],
        max: draws[samples - 1],
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_arch::models;

    fn workload() -> Vec<WorkloadPoint> {
        models::resnet18()
            .layers
            .iter()
            .map(|l| WorkloadPoint::from_layer(l, 8, 16))
            .collect()
    }

    #[test]
    fn benefit_is_robust_to_coherent_perturbation() {
        let base = ChipParams::baseline_2d();
        let m3d = ChipParams::m3d(8);
        let r = edp_benefit_sensitivity(
            &base,
            &m3d,
            &workload(),
            &Perturbation::twenty_percent(),
            256,
            7,
        )
        .unwrap();
        // ±20 % on every constant moves the 5.7× benefit by < ±15 %:
        // the comparison is iso-technology.
        assert!((r.mean / r.nominal - 1.0).abs() < 0.1, "mean {}", r.mean);
        assert!(r.p5 > r.nominal * 0.8, "p5 {}", r.p5);
        assert!(r.p95 < r.nominal * 1.2, "p95 {}", r.p95);
        assert!(r.min <= r.p5 && r.p5 <= r.mean && r.mean <= r.p95 && r.p95 <= r.max);
        assert_eq!(r.samples, 256);
    }

    #[test]
    fn zero_perturbation_collapses_the_distribution() {
        let base = ChipParams::baseline_2d();
        let m3d = ChipParams::m3d(8);
        let none = Perturbation {
            alpha: 0.0,
            op_energy: 0.0,
            idle: 0.0,
            bandwidth: 0.0,
            peak_ops: 0.0,
        };
        let r = edp_benefit_sensitivity(&base, &m3d, &workload(), &none, 32, 1).unwrap();
        assert!(r.std_dev < 1e-12);
        assert!((r.mean - r.nominal).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_seed() {
        let base = ChipParams::baseline_2d();
        let m3d = ChipParams::m3d(8);
        let p = Perturbation::twenty_percent();
        let a = edp_benefit_sensitivity(&base, &m3d, &workload(), &p, 64, 42).unwrap();
        let b = edp_benefit_sensitivity(&base, &m3d, &workload(), &p, 64, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let base = ChipParams::baseline_2d();
        let m3d = ChipParams::m3d(8);
        let bad = Perturbation {
            alpha: 1.5,
            ..Perturbation::twenty_percent()
        };
        assert!(edp_benefit_sensitivity(&base, &m3d, &workload(), &bad, 8, 0).is_err());
        assert!(edp_benefit_sensitivity(
            &base,
            &m3d,
            &workload(),
            &Perturbation::twenty_percent(),
            0,
            0
        )
        .is_err());
    }
}
