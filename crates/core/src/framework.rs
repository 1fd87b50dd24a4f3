//! The analytical framework of Sec. III: equations (1)–(8).
//!
//! A chip is characterised by its parallel CS count `N`, per-CS peak
//! throughput `P_peak`, total memory bandwidth `B`, memory access energy
//! `α`, idle energies and compute energy `E_C`. A workload point is
//! `(F₀, D₀, N#)`: compute operations, memory traffic and the maximum
//! parallel partitioning. Execution time is the roofline-style maximum
//! of the memory and compute phases (after the Gables roofline, paper ref. 12).

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};

/// How workload data `D₀` maps onto parallel CSs.
///
/// The paper's eq. (4) writes the memory phase as `D₀·N/B_3D`, i.e. each
/// CS streams the *full* dataset (**replicated** — partitioning over
/// output pixels with weights broadcast). Designs that partition the
/// dataset itself (the Sec.-II weight-stationary design splits weights
/// across banks by output channel) instead see `D₀·N/(N_max·B_3D)`
/// (**partitioned**). Observation 5's worked examples follow the
/// replicated reading; the Fig. 7 mapper cross-check and the Sec.-II
/// simulator follow the partitioned one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MemoryTraffic {
    /// Eq. (4) as printed: every CS reads the full `D₀`.
    #[default]
    Replicated,
    /// Banked designs: `D₀` splits across the active CSs.
    Partitioned,
}

/// Analytical chip parameters (one instance each for the 2D baseline and
/// the M3D design point).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipParams {
    /// Parallel computing sub-systems `N` (1 in the 2D baseline).
    pub n_cs: u32,
    /// Peak operations per cycle of one CS (`P_peak`).
    pub peak_ops_per_cs: f64,
    /// Total memory bandwidth in bits/cycle (`B_2D` or `B_3D`).
    pub bandwidth: f64,
    /// Memory access energy per bit in pJ (`α`).
    pub alpha_pj_per_bit: f64,
    /// Memory idle energy per cycle in pJ (`E_M^idle`).
    pub mem_idle_pj: f64,
    /// Idle energy of one CS per cycle in pJ (`E_C^idle`).
    pub cs_idle_pj: f64,
    /// Compute energy per operation in pJ (`E_C`).
    pub op_pj: f64,
    /// Clock period in ns (identical for both designs per Sec. II).
    pub cycle_ns: f64,
    /// Memory-traffic semantics (see [`MemoryTraffic`]).
    pub traffic: MemoryTraffic,
    /// When `true`, CSs beyond `N_max` are power-gated instead of idling
    /// (eq. 7's `(N−N_max)·E_C^idle·T` term vanishes). Multi-tier stacks
    /// (Case 3) gate unused tiers; the Sec.-II chip does not.
    pub idle_gated: bool,
}

impl ChipParams {
    /// The 2D baseline calibrated to the Sec. II case study: one 16×16
    /// CS at 256 bits/cycle of RRAM bandwidth.
    pub fn baseline_2d() -> Self {
        Self {
            n_cs: 1,
            peak_ops_per_cs: 256.0,
            bandwidth: 256.0,
            alpha_pj_per_bit: 1.0,
            mem_idle_pj: 2.7,
            cs_idle_pj: 6.0,
            op_pj: 2.0,
            cycle_ns: 50.0,
            traffic: MemoryTraffic::Replicated,
            idle_gated: false,
        }
    }

    /// Returns a copy using [`MemoryTraffic::Partitioned`] semantics
    /// (banked-weight designs, the Fig. 7 mapper cross-check).
    pub fn partitioned(self) -> Self {
        Self {
            traffic: MemoryTraffic::Partitioned,
            ..self
        }
    }

    /// The M3D design point with `n` CSs and the memory partitioned into
    /// `n` banks (bandwidth scales with `n`).
    pub fn m3d(n: u32) -> Self {
        let base = Self::baseline_2d();
        Self {
            n_cs: n.max(1),
            bandwidth: base.bandwidth * f64::from(n.max(1)),
            ..base
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive
    /// bandwidth, throughput or period.
    pub fn validate(&self) -> CoreResult<()> {
        let checks: [(&'static str, f64); 3] = [
            ("peak_ops_per_cs", self.peak_ops_per_cs),
            ("bandwidth", self.bandwidth),
            ("cycle_ns", self.cycle_ns),
        ];
        for (name, v) in checks {
            // `!(v > 0.0)` also rejects NaN, which `v <= 0.0` would let through.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let invalid = !(v > 0.0) || !v.is_finite();
            if invalid {
                return Err(CoreError::InvalidParameter {
                    parameter: name,
                    value: v,
                    expected: "finite and > 0",
                });
            }
        }
        Ok(())
    }
}

/// A workload point `(F₀, D₀, N#)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPoint {
    /// Compute operations `F₀`.
    pub ops: f64,
    /// Memory traffic in bits `D₀`.
    pub data_bits: f64,
    /// Maximum parallel partitions `N#`.
    pub max_partitions: u32,
}

impl WorkloadPoint {
    /// Creates a workload point.
    pub fn new(ops: f64, data_bits: f64, max_partitions: u32) -> Self {
        Self {
            ops,
            data_bits,
            max_partitions: max_partitions.max(1),
        }
    }

    /// Builds a point from an [`m3d_arch::Layer`] for a CS with
    /// `array_cols` output channels (D₀ = weight traffic).
    pub fn from_layer(layer: &m3d_arch::Layer, weight_bits: u32, array_cols: u32) -> Self {
        Self::new(
            layer.ops() as f64,
            layer.weight_bits(weight_bits) as f64,
            layer.max_partitions(array_cols),
        )
    }
}

/// CSs actually usable: `N_max = min(N#, N)` (Sec. III-A).
pub fn n_max(params: &ChipParams, w: &WorkloadPoint) -> u32 {
    params.n_cs.min(w.max_partitions).max(1)
}

/// Execution time in cycles — eq. (1) for the 2D baseline (`N = 1`) and
/// eq. (4) in general: `max(D₀·N/B, F₀/(N_max·P_peak))` under
/// [`MemoryTraffic::Replicated`]; the memory phase becomes
/// `D₀·N/(N_max·B)` under [`MemoryTraffic::Partitioned`].
pub fn exec_cycles(params: &ChipParams, w: &WorkloadPoint) -> f64 {
    let nmax = f64::from(n_max(params, w));
    let mem = memory_cycles(params, w);
    let compute = w.ops / (nmax * params.peak_ops_per_cs);
    mem.max(compute)
}

/// The memory-phase duration in cycles under the chip's traffic
/// semantics.
pub fn memory_cycles(params: &ChipParams, w: &WorkloadPoint) -> f64 {
    let n = f64::from(params.n_cs);
    match params.traffic {
        MemoryTraffic::Replicated => w.data_bits * n / params.bandwidth,
        MemoryTraffic::Partitioned => {
            let nmax = f64::from(n_max(params, w));
            w.data_bits * n / (nmax * params.bandwidth)
        }
    }
}

/// Workload energy in pJ — eq. (6) for the baseline and eq. (7) in
/// general (they coincide at `N = 1`).
pub fn energy_pj(params: &ChipParams, w: &WorkloadPoint) -> f64 {
    let n = f64::from(params.n_cs);
    let nmax = f64::from(n_max(params, w));
    let t = exec_cycles(params, w);
    let t_mem = memory_cycles(params, w);
    let t_compute = w.ops / (nmax * params.peak_ops_per_cs);

    let access = params.alpha_pj_per_bit * w.data_bits;
    let mem_idle = params.mem_idle_pj * (t - t_mem).max(0.0);
    let unused_cs_idle = if params.idle_gated {
        0.0
    } else {
        (n - nmax) * params.cs_idle_pj * t
    };
    let stalled_cs_idle = n * params.cs_idle_pj * (t - t_compute).max(0.0);
    let compute = params.op_pj * w.ops;
    access + mem_idle + unused_cs_idle + stalled_cs_idle + compute
}

/// Speedup of `m3d` over `base` — eq. (5).
pub fn speedup(base: &ChipParams, m3d: &ChipParams, w: &WorkloadPoint) -> f64 {
    exec_cycles(base, w) / exec_cycles(m3d, w)
}

/// Energy ratio `E_2D / E_3D`.
pub fn energy_ratio(base: &ChipParams, m3d: &ChipParams, w: &WorkloadPoint) -> f64 {
    energy_pj(base, w) / energy_pj(m3d, w)
}

/// EDP benefit — eq. (8): speedup × energy ratio.
pub fn edp_benefit(base: &ChipParams, m3d: &ChipParams, w: &WorkloadPoint) -> f64 {
    speedup(base, m3d, w) * energy_ratio(base, m3d, w)
}

/// Evaluation of a multi-layer workload: times and energies add per
/// layer (each layer has its own `N#`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FrameworkTotals {
    /// Total cycles.
    pub cycles: f64,
    /// Total energy in pJ.
    pub energy_pj: f64,
}

impl FrameworkTotals {
    /// EDP in pJ·cycles (for ratios).
    pub fn edp(&self) -> f64 {
        self.cycles * self.energy_pj
    }
}

/// Evaluates a set of workload points (layers) on one chip.
pub fn evaluate_workload(params: &ChipParams, points: &[WorkloadPoint]) -> FrameworkTotals {
    let mut t = FrameworkTotals::default();
    for w in points {
        t.cycles += exec_cycles(params, w);
        t.energy_pj += energy_pj(params, w);
    }
    t
}

/// Whole-workload EDP benefit of `m3d` over `base`.
pub fn workload_edp_benefit(base: &ChipParams, m3d: &ChipParams, points: &[WorkloadPoint]) -> f64 {
    let a = evaluate_workload(base, points);
    let b = evaluate_workload(m3d, points);
    (a.cycles / b.cycles) * (a.energy_pj / b.energy_pj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_bound() -> WorkloadPoint {
        // 16 ops per memory bit: strongly compute-bound.
        WorkloadPoint::new(16.0e6, 1.0e6, 64)
    }

    fn memory_bound() -> WorkloadPoint {
        WorkloadPoint::new(1.0e6, 16.0e6, 64)
    }

    #[test]
    fn identical_chips_give_unity() {
        let p = ChipParams::baseline_2d();
        for w in [compute_bound(), memory_bound()] {
            assert!((speedup(&p, &p, &w) - 1.0).abs() < 1e-12);
            assert!((edp_benefit(&p, &p, &w) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn m3d_with_one_cs_equals_baseline() {
        let b = ChipParams::baseline_2d();
        let m = ChipParams::m3d(1);
        assert_eq!(b, m);
    }

    #[test]
    fn compute_bound_speedup_tracks_n() {
        let b = ChipParams::baseline_2d();
        let m = ChipParams::m3d(8);
        let s = speedup(&b, &m, &compute_bound());
        assert!((s - 8.0).abs() < 1e-9, "speedup {s}");
    }

    #[test]
    fn partition_limit_caps_speedup() {
        let b = ChipParams::baseline_2d();
        let m = ChipParams::m3d(8);
        let w = WorkloadPoint::new(16.0e6, 1.0e6, 4);
        let s = speedup(&b, &m, &w);
        assert!((s - 4.0).abs() < 1e-9, "speedup {s}");
        assert_eq!(n_max(&m, &w), 4);
    }

    #[test]
    fn banked_memory_preserves_memory_bound_time() {
        // Eq. (4): with B_3D = N·B_2D the memory term D₀N/B_3D equals the
        // baseline D₀/B_2D — memory-bound time is unchanged.
        let b = ChipParams::baseline_2d();
        let m = ChipParams::m3d(8);
        let w = memory_bound();
        let t2 = exec_cycles(&b, &w);
        let t3 = exec_cycles(&m, &w);
        assert!((t2 - t3).abs() / t2 < 1e-12);
    }

    #[test]
    fn partitioned_traffic_scales_memory_bound_time() {
        // Banked designs split D₀ across the active CSs: memory-bound
        // time improves by N_max.
        let b = ChipParams::baseline_2d().partitioned();
        let m = ChipParams::m3d(8).partitioned();
        let w = memory_bound();
        let t2 = exec_cycles(&b, &w);
        let t3 = exec_cycles(&m, &w);
        assert!((t2 / t3 - 8.0).abs() < 1e-9, "ratio {}", t2 / t3);
        // The 2D baseline is unaffected by the semantics (N = 1).
        assert!((exec_cycles(&ChipParams::baseline_2d(), &w) - t2).abs() < 1e-12);
    }

    #[test]
    fn energy_terms_nonnegative_and_energy_ratio_near_one() {
        let b = ChipParams::baseline_2d();
        let m = ChipParams::m3d(8);
        for w in [compute_bound(), memory_bound()] {
            let e2 = energy_pj(&b, &w);
            let e3 = energy_pj(&m, &w);
            assert!(e2 > 0.0 && e3 > 0.0);
            let r = e2 / e3;
            assert!((0.5..=1.05).contains(&r), "ratio {r}");
        }
    }

    #[test]
    fn edp_identity() {
        let b = ChipParams::baseline_2d();
        let m = ChipParams::m3d(8);
        let w = compute_bound();
        let lhs = edp_benefit(&b, &m, &w);
        let rhs = speedup(&b, &m, &w) * energy_ratio(&b, &m, &w);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn workload_evaluation_sums() {
        let p = ChipParams::baseline_2d();
        let pts = [compute_bound(), memory_bound()];
        let tot = evaluate_workload(&p, &pts);
        let manual: f64 = pts.iter().map(|w| exec_cycles(&p, w)).sum();
        assert!((tot.cycles - manual).abs() < 1e-9);
        assert!(tot.edp() > 0.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut p = ChipParams::baseline_2d();
        assert!(p.validate().is_ok());
        p.bandwidth = 0.0;
        assert!(p.validate().is_err());
        p.bandwidth = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn from_layer_builds_points() {
        let l = m3d_arch::Layer::conv("x", 64, 64, 3, (56, 56), 1);
        let w = WorkloadPoint::from_layer(&l, 8, 16);
        assert_eq!(w.max_partitions, 4);
        assert!((w.ops - l.ops() as f64).abs() < 1e-9);
    }
}
