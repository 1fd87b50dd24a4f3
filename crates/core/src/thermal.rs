//! Thermal model for stacked M3D tiers — eq. (17) and Observation 10.
//!
//! Heat from tier `i` crosses every tier below it plus the heat-sink
//! resistance: `ΔT = Σᵢ ((Σ_{j≤i} R_j) + R₀) · P_i`. A maximum allowed
//! rise (≈ 60 K with conventional packaging, paper ref. 20) caps the number of
//! interleaved compute/memory pairs.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};

/// Thermal stack description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    /// Heat-sink (to ambient) resistance `R₀` in K/W.
    pub sink_k_per_w: f64,
    /// Added thermal resistance per interleaved tier pair `R_j` in K/W.
    pub per_tier_k_per_w: f64,
    /// Power per tier pair in W (compute + memory, `P_j`).
    pub power_per_tier_w: f64,
    /// Maximum allowed temperature rise in K.
    pub max_rise_k: f64,
}

impl ThermalModel {
    /// Conventional-package defaults: 1 K/W sink, 0.35 K/W per bonded
    /// tier pair, 60 K budget (paper refs. 19 and 20).
    pub fn conventional(power_per_tier_w: f64) -> Self {
        Self {
            sink_k_per_w: 1.0,
            per_tier_k_per_w: 0.35,
            power_per_tier_w,
            max_rise_k: 60.0,
        }
    }

    /// Temperature rise of a `tiers`-pair stack — eq. (17) with uniform
    /// per-tier resistance and power.
    pub fn temperature_rise(&self, tiers: u32) -> f64 {
        let mut rise = 0.0;
        for i in 1..=tiers {
            let path = self.sink_k_per_w + self.per_tier_k_per_w * f64::from(i);
            rise += path * self.power_per_tier_w;
        }
        rise
    }

    /// Largest tier count whose rise stays within the budget, walking
    /// tier counts upwards (the rise is monotonic in the tier count).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when even one tier
    /// exceeds the budget.
    pub fn max_tiers(&self) -> CoreResult<u32> {
        let budget = self.max_rise_k;
        let first = self.temperature_rise(1);
        if first > budget {
            return Err(CoreError::InvalidParameter {
                parameter: "temperature_rise",
                value: first,
                expected: "a single tier within the thermal budget",
            });
        }
        let mut y = 1;
        while self.temperature_rise(y + 1) <= budget {
            y += 1;
            if y > 10_000 {
                break;
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rise_is_superlinear_in_tiers() {
        let m = ThermalModel::conventional(5.0);
        let r1 = m.temperature_rise(1);
        let r2 = m.temperature_rise(2);
        let r4 = m.temperature_rise(4);
        assert!(r2 > 2.0 * r1, "stacking compounds resistance");
        assert!(r4 > 2.0 * r2);
    }

    #[test]
    fn eq17_hand_check() {
        // Two tiers, R0=1, Rj=0.5, P=10 W each:
        // ΔT = (1+0.5)·10 + (1+0.5+0.5)·10 = 15 + 20 = 35 K.
        let m = ThermalModel {
            sink_k_per_w: 1.0,
            per_tier_k_per_w: 0.5,
            power_per_tier_w: 10.0,
            max_rise_k: 60.0,
        };
        assert!((m.temperature_rise(2) - 35.0).abs() < 1e-12);
    }

    #[test]
    fn budget_caps_tier_count() {
        let m = ThermalModel::conventional(5.0);
        let y = m.max_tiers().unwrap();
        assert!(y >= 2, "a few tiers fit at 5 W each, got {y}");
        assert!(m.temperature_rise(y) <= 60.0);
        assert!(m.temperature_rise(y + 1) > 60.0);
    }

    #[test]
    fn hot_tiers_capped_harder() {
        let cool = ThermalModel::conventional(2.0).max_tiers().unwrap();
        let hot = ThermalModel::conventional(10.0).max_tiers().unwrap();
        assert!(cool > hot);
    }

    #[test]
    fn impossible_budget_rejected() {
        let m = ThermalModel::conventional(100.0);
        assert!(m.max_tiers().is_err());
    }
}
