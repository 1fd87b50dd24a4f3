//! M3D design-point derivation: eq. (2) with physical-design overheads.
//!
//! Folding the RRAM selectors onto the CNFET tier frees the Si area under
//! the cell array; the number of parallel CSs that fit is
//! `N = 1 + ⌊usable_freed_area / A_C⌋` where the usable area applies the
//! under-array routing-availability derate and the bank-interface
//! reserve calibrated in `m3d-pd`. The M3D design pairs one RRAM bank
//! with each CS.

use serde::{Deserialize, Serialize};

use m3d_pd::under_array_usable_area;
use m3d_tech::{Pdk, RramMacro, SelectorTech};

use crate::error::{CoreError, CoreResult};
use crate::framework::ChipParams;

/// A derived iso-footprint, iso-capacity M3D design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Parallel CSs (N), including the original one.
    pub n_cs: u32,
    /// RRAM banks (paired 1:1 with CSs).
    pub banks: u32,
    /// Usable freed Si area in mm².
    pub freed_usable_mm2: f64,
    /// Geometric CS demand in mm² (`A_C`).
    pub cs_demand_mm2: f64,
    /// Memory cell-array area in mm² (`A_M^cells`).
    pub array_mm2: f64,
    /// γ_cells = A_M^cells / A_C.
    pub gamma_cells: f64,
}

impl DesignPoint {
    /// Derives the M3D design point for a 2D baseline built around
    /// `rram_2d` (Si selectors) with per-CS area `cs_demand_mm2`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-positive CS
    /// area, and propagates technology errors.
    pub fn derive(pdk: &Pdk, rram_2d: &RramMacro, cs_demand_mm2: f64) -> CoreResult<Self> {
        // `!(x > 0.0)` also rejects NaN, which `x <= 0.0` would let through.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let invalid = !(cs_demand_mm2 > 0.0) || !cs_demand_mm2.is_finite();
        if invalid {
            return Err(CoreError::InvalidParameter {
                parameter: "cs_demand_mm2",
                value: cs_demand_mm2,
                expected: "finite and > 0",
            });
        }
        // The M3D twin of the baseline memory: same capacity and port,
        // CNFET selectors.
        let mut m3d_mem = RramMacro::new(
            rram_2d.capacity_bits,
            rram_2d.banks,
            rram_2d.port_bits_per_bank,
            SelectorTech::IDEAL_CNFET,
        )?;
        m3d_mem.cell = rram_2d.cell;
        m3d_mem.peripheral_fraction = rram_2d.peripheral_fraction;
        m3d_mem.per_bank_overhead = rram_2d.per_bank_overhead;

        let freed = under_array_usable_area(pdk, &m3d_mem)?.as_mm2();
        let array = m3d_mem.array_area(pdk.ilv())?.as_mm2();
        let extra = (freed / cs_demand_mm2).floor().max(0.0) as u32;
        let n = 1 + extra;
        Ok(Self {
            n_cs: n,
            banks: n,
            freed_usable_mm2: freed,
            cs_demand_mm2,
            array_mm2: array,
            gamma_cells: array / cs_demand_mm2,
        })
    }

    /// Analytical chip parameters for this design point (bandwidth
    /// scales with the bank count).
    pub fn m3d_params(&self) -> ChipParams {
        ChipParams::m3d(self.n_cs)
    }

    /// Simulator configuration for this design point.
    pub fn m3d_chip_config(&self) -> m3d_arch::ChipConfig {
        m3d_arch::ChipConfig::m3d(self.n_cs)
    }
}

/// The Sec. II case-study geometric CS demand in mm², as measured by the
/// physical-design flow on the full-size netlist (16×16 PEs, 1 MB global
/// buffer, two 32 KB locals) — see EXPERIMENTS.md.
pub const CASE_STUDY_CS_DEMAND_MM2: f64 = 4.73;

/// Derives the case-study design point for a given RRAM capacity in MB
/// (the Fig. 9 sweep; 64 MB reproduces the paper's N = 8).
///
/// # Errors
///
/// Propagates technology and derivation errors.
pub fn case_study_design_point(pdk: &Pdk, capacity_mb: u64) -> CoreResult<DesignPoint> {
    let rram = RramMacro::with_capacity_mb(capacity_mb, 1, 256, SelectorTech::SiFet)?;
    DesignPoint::derive(pdk, &rram, CASE_STUDY_CS_DEMAND_MM2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdk() -> Pdk {
        Pdk::m3d_130nm()
    }

    #[test]
    fn sixty_four_megabytes_yields_eight_css() {
        let dp = case_study_design_point(&pdk(), 64).unwrap();
        assert_eq!(dp.n_cs, 8, "the paper's 8× parallel CSs");
        assert_eq!(dp.banks, 8);
        assert!(dp.gamma_cells > 10.0);
    }

    #[test]
    fn twelve_megabytes_yields_no_extra_cs() {
        let dp = case_study_design_point(&pdk(), 12).unwrap();
        assert_eq!(dp.n_cs, 1, "Fig. 9: no freed room at 12 MB");
    }

    #[test]
    fn one_hundred_twenty_eight_megabytes_yields_sixteen() {
        let dp = case_study_design_point(&pdk(), 128).unwrap();
        assert_eq!(dp.n_cs, 16, "Fig. 9 / Obs. 3 plateau");
    }

    #[test]
    fn n_grows_monotonically_with_capacity() {
        let mut last = 0;
        for mb in [12u64, 16, 24, 32, 48, 64, 96, 128] {
            let dp = case_study_design_point(&pdk(), mb).unwrap();
            assert!(dp.n_cs >= last, "N regressed at {mb} MB");
            last = dp.n_cs;
        }
        assert!(last >= 15);
    }

    #[test]
    fn derived_params_match_n() {
        let dp = case_study_design_point(&pdk(), 64).unwrap();
        let p = dp.m3d_params();
        assert_eq!(p.n_cs, 8);
        assert!((p.bandwidth - 8.0 * 256.0).abs() < 1e-9);
        let c = dp.m3d_chip_config();
        assert_eq!(c.cs_count, 8);
        assert_eq!(c.rram_banks, 8);
    }

    #[test]
    fn invalid_cs_area_rejected() {
        let rram = RramMacro::with_capacity_mb(64, 1, 256, SelectorTech::SiFet).unwrap();
        assert!(DesignPoint::derive(&pdk(), &rram, 0.0).is_err());
        assert!(DesignPoint::derive(&pdk(), &rram, f64::NAN).is_err());
    }

    #[test]
    fn bigger_cs_means_fewer_parallel_units() {
        let rram = RramMacro::with_capacity_mb(64, 1, 256, SelectorTech::SiFet).unwrap();
        let small = DesignPoint::derive(&pdk(), &rram, 3.0).unwrap();
        let large = DesignPoint::derive(&pdk(), &rram, 12.0).unwrap();
        assert!(small.n_cs > large.n_cs);
    }
}
