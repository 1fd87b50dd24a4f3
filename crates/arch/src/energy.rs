//! Energy model constants bridging the PDK/physical-design results into
//! the architectural simulator.
//!
//! All per-event energies are in picojoules; static power in milliwatts.
//! Defaults are calibrated to the 130 nm synthetic PDK (see
//! EXPERIMENTS.md for the paper-vs-model table).

use serde::{Deserialize, Serialize};

/// Per-event energies and static power of one chip configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one 8-bit MAC (datapath + local register traffic).
    pub mac_pj: f64,
    /// RRAM read energy per bit (α of the analytical framework).
    pub rram_read_pj_per_bit: f64,
    /// SRAM buffer access energy per bit.
    pub sram_pj_per_bit: f64,
    /// Shared-bus transfer energy per bit (long on-chip wires).
    pub bus_pj_per_bit: f64,
    /// Static (leakage) power per computing sub-system in mW, including
    /// its SRAM buffers.
    pub cs_static_mw: f64,
    /// Static power of the RRAM macro in mW (selector off-state only —
    /// RRAM is non-volatile).
    pub rram_static_mw: f64,
    /// Clock period in nanoseconds.
    pub cycle_ns: f64,
}

impl EnergyModel {
    /// The 130 nm, 20 MHz calibration used throughout the case study.
    pub fn pdk_130nm_20mhz() -> Self {
        Self {
            mac_pj: 2.0,
            rram_read_pj_per_bit: 1.0,
            sram_pj_per_bit: 0.08,
            bus_pj_per_bit: 0.5,
            cs_static_mw: 0.12,
            rram_static_mw: 0.054,
            cycle_ns: 50.0,
        }
    }

    /// Static energy per cycle for a chip with `cs_count` CSs, in pJ
    /// (`mW × ns = pJ`).
    pub fn static_pj_per_cycle(&self, cs_count: u32) -> f64 {
        (self.cs_static_mw * f64::from(cs_count) + self.rram_static_mw) * self.cycle_ns
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::pdk_130nm_20mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_physical() {
        let e = EnergyModel::default();
        assert!(e.mac_pj > 0.0 && e.mac_pj < 100.0);
        assert!(e.rram_read_pj_per_bit > e.sram_pj_per_bit);
        assert!(e.cycle_ns == 50.0, "20 MHz target");
    }

    #[test]
    fn static_energy_scales_with_cs_count() {
        let e = EnergyModel::default();
        let one = e.static_pj_per_cycle(1);
        let eight = e.static_pj_per_cycle(8);
        assert!(eight > one);
        // 8 CSs leak 8× the CS share but the RRAM share is constant.
        let cs_share = e.cs_static_mw * e.cycle_ns;
        assert!((eight - one - 7.0 * cs_share).abs() < 1e-9);
    }
}
