//! Hard-macro models: banked RRAM arrays and SRAM buffers.
//!
//! Macros are what the physical-design flow floorplans around. The
//! critical M3D property lives here: an RRAM macro with **Si selectors**
//! fully occupies the Si tier beneath its cell array, while one with
//! **CNFET selectors** leaves that Si area free for logic (only the RRAM
//! and CNFET layers are blocked), with routing restricted to the layers
//! below the RRAM plane.

use serde::{Deserialize, Serialize};

use crate::error::{TechError, TechResult};
use crate::layers::IlvSpec;
use crate::rram::{RramCellModel, SelectorTech};
use crate::units::{Nanoseconds, Picojoules, SquareMicrons};

/// A banked on-chip RRAM memory macro.
///
/// # Examples
///
/// ```
/// use m3d_tech::macro_model::RramMacro;
/// use m3d_tech::rram::SelectorTech;
/// use m3d_tech::layers::IlvSpec;
///
/// # fn main() -> Result<(), m3d_tech::TechError> {
/// // The paper's 64 MB, 8-bank M3D weight memory.
/// let mem = RramMacro::new(64 * 8 * 1024 * 1024, 8, 256, SelectorTech::IDEAL_CNFET)?;
/// let ilv = IlvSpec::ultra_dense_130nm();
/// assert!(mem.freed_si_area(&ilv)?.as_mm2() > 70.0);
/// assert_eq!(mem.total_bandwidth_bits_per_cycle(), 2048);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RramMacro {
    /// Total capacity in bits.
    pub capacity_bits: u64,
    /// Number of independently accessible banks.
    pub banks: u32,
    /// Read-port width per bank, in bits per cycle.
    pub port_bits_per_bank: u32,
    /// Selector implementation (Si FET = 2D baseline, CNFET = M3D).
    pub selector: SelectorTech,
    /// Bitcell model.
    pub cell: RramCellModel,
    /// Si-tier peripheral (sense amps, drivers, controller) area as a
    /// fraction of the cell-array area, at one bank.
    pub peripheral_fraction: f64,
    /// Additional peripheral fraction per extra bank (bank replication
    /// cost of the 8× partitioning).
    pub per_bank_overhead: f64,
}

impl RramMacro {
    /// Creates a macro with the foundry cell model and default peripheral
    /// cost model.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] when `capacity_bits` or
    /// `banks` is zero, the capacity does not divide evenly into banks,
    /// or the selector is invalid.
    pub fn new(
        capacity_bits: u64,
        banks: u32,
        port_bits_per_bank: u32,
        selector: SelectorTech,
    ) -> TechResult<Self> {
        if capacity_bits == 0 {
            return Err(TechError::InvalidParameter {
                parameter: "capacity_bits",
                value: 0.0,
                expected: "> 0",
            });
        }
        if banks == 0 {
            return Err(TechError::InvalidParameter {
                parameter: "banks",
                value: 0.0,
                expected: "> 0",
            });
        }
        if !capacity_bits.is_multiple_of(banks as u64) {
            return Err(TechError::InvalidParameter {
                parameter: "capacity_bits",
                value: capacity_bits as f64,
                expected: "a multiple of the bank count",
            });
        }
        selector.validate()?;
        Ok(Self {
            capacity_bits,
            banks,
            port_bits_per_bank,
            selector,
            cell: RramCellModel::foundry_130nm(),
            peripheral_fraction: 0.18,
            per_bank_overhead: 0.01,
        })
    }

    /// Convenience constructor taking the capacity in megabytes.
    ///
    /// # Errors
    ///
    /// Same as [`RramMacro::new`].
    pub fn with_capacity_mb(
        megabytes: u64,
        banks: u32,
        port_bits_per_bank: u32,
        selector: SelectorTech,
    ) -> TechResult<Self> {
        Self::new(
            megabytes * 1024 * 1024 * 8,
            banks,
            port_bits_per_bank,
            selector,
        )
    }

    /// Cell-array area (the region whose Si tier is freed in M3D).
    ///
    /// # Errors
    ///
    /// Propagates selector validation errors.
    pub fn array_area(&self, ilv: &IlvSpec) -> TechResult<SquareMicrons> {
        self.cell.array_area(self.capacity_bits, self.selector, ilv)
    }

    /// Si-tier peripheral area (always blocks the Si tier, in both 2D and
    /// M3D — "power-hungry memory peripherals/controllers are still
    /// located in Si CMOS").
    ///
    /// # Errors
    ///
    /// Propagates selector validation errors.
    pub fn peripheral_area(&self, ilv: &IlvSpec) -> TechResult<SquareMicrons> {
        let frac = self.peripheral_fraction
            * (1.0 + self.per_bank_overhead * (self.banks.saturating_sub(1)) as f64);
        Ok(self.array_area(ilv)? * frac)
    }

    /// Full macro footprint: array + peripherals.
    ///
    /// # Errors
    ///
    /// Propagates selector validation errors.
    pub fn footprint(&self, ilv: &IlvSpec) -> TechResult<SquareMicrons> {
        Ok(self.array_area(ilv)? + self.peripheral_area(ilv)?)
    }

    /// Si-tier area freed for logic placement by this macro: the array
    /// region when selectors are CNFETs, zero with Si selectors.
    ///
    /// # Errors
    ///
    /// Propagates selector validation errors.
    pub fn freed_si_area(&self, ilv: &IlvSpec) -> TechResult<SquareMicrons> {
        if self.selector.frees_si_tier() {
            self.array_area(ilv)
        } else {
            Ok(SquareMicrons::ZERO)
        }
    }

    /// Aggregate read bandwidth: banks × port width, in bits per cycle.
    pub fn total_bandwidth_bits_per_cycle(&self) -> u64 {
        self.banks as u64 * self.port_bits_per_bank as u64
    }

    /// Read energy for `bits` of data.
    pub fn read_energy(&self, bits: u64) -> Picojoules {
        self.cell.read_energy_per_bit * bits as f64
    }

    /// Random-access read latency.
    pub fn read_latency(&self) -> Nanoseconds {
        self.cell.read_latency
    }

    /// Static leakage of the whole macro in milliwatts (selector
    /// off-state; RRAM itself is non-volatile).
    pub fn leakage_mw(&self) -> f64 {
        self.cell.leakage_nw_per_bit * self.capacity_bits as f64 * 1.0e-6
    }
}

/// An on-chip SRAM buffer macro (6T, Si tier only).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SramMacro {
    /// Capacity in bits.
    pub capacity_bits: u64,
    /// 6T bitcell area.
    pub bit_area: SquareMicrons,
    /// Peripheral overhead as a fraction of the bitcell array.
    pub overhead_fraction: f64,
    /// Read energy per bit.
    pub read_energy_per_bit: Picojoules,
    /// Write energy per bit.
    pub write_energy_per_bit: Picojoules,
    /// Leakage per bit in nanowatts (SRAM retains state → real leakage).
    pub leakage_nw_per_bit: f64,
    /// Access latency.
    pub latency: Nanoseconds,
}

impl SramMacro {
    /// High-density foundry SRAM at the 130 nm node; ≈ 2× less dense than
    /// the RRAM (with peripherals), matching the paper's Observation 3.
    pub fn foundry_130nm(capacity_bits: u64) -> Self {
        Self {
            capacity_bits,
            bit_area: SquareMicrons::new(0.30),
            overhead_fraction: 0.35,
            read_energy_per_bit: Picojoules::new(0.08),
            write_energy_per_bit: Picojoules::new(0.10),
            leakage_nw_per_bit: 5.0e-3,
            latency: Nanoseconds::new(2.0),
        }
    }

    /// Convenience constructor taking kilobytes.
    pub fn with_capacity_kb(kilobytes: u64) -> Self {
        Self::foundry_130nm(kilobytes * 1024 * 8)
    }

    /// Full macro footprint including peripherals.
    pub fn footprint(&self) -> SquareMicrons {
        self.bit_area * self.capacity_bits as f64 * (1.0 + self.overhead_fraction)
    }

    /// Read energy for `bits`.
    pub fn read_energy(&self, bits: u64) -> Picojoules {
        self.read_energy_per_bit * bits as f64
    }

    /// Macro leakage in milliwatts.
    pub fn leakage_mw(&self) -> f64 {
        self.leakage_nw_per_bit * self.capacity_bits as f64 * 1.0e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::IlvSpec;

    fn ilv() -> IlvSpec {
        IlvSpec::ultra_dense_130nm()
    }

    #[test]
    fn si_selector_macro_frees_nothing() {
        let m = RramMacro::with_capacity_mb(64, 1, 256, SelectorTech::SiFet).unwrap();
        assert_eq!(m.freed_si_area(&ilv()).unwrap(), SquareMicrons::ZERO);
    }

    #[test]
    fn cnfet_selector_macro_frees_array_area() {
        let m = RramMacro::with_capacity_mb(64, 8, 256, SelectorTech::IDEAL_CNFET).unwrap();
        let freed = m.freed_si_area(&ilv()).unwrap();
        assert_eq!(freed, m.array_area(&ilv()).unwrap());
    }

    #[test]
    fn iso_footprint_between_2d_and_m3d_at_delta_one() {
        let two_d = RramMacro::with_capacity_mb(64, 1, 256, SelectorTech::SiFet).unwrap();
        let m3d = RramMacro::with_capacity_mb(64, 8, 256, SelectorTech::IDEAL_CNFET).unwrap();
        let a = two_d.array_area(&ilv()).unwrap();
        let b = m3d.array_area(&ilv()).unwrap();
        assert_eq!(a, b, "folding must be iso-footprint on the array");
    }

    #[test]
    fn banking_multiplies_bandwidth_and_grows_peripherals() {
        let one = RramMacro::with_capacity_mb(64, 1, 256, SelectorTech::IDEAL_CNFET).unwrap();
        let eight = RramMacro::with_capacity_mb(64, 8, 256, SelectorTech::IDEAL_CNFET).unwrap();
        assert_eq!(eight.total_bandwidth_bits_per_cycle(), 8 * 256);
        assert!(eight.peripheral_area(&ilv()).unwrap() > one.peripheral_area(&ilv()).unwrap());
    }

    #[test]
    fn validation_errors() {
        assert!(RramMacro::new(0, 1, 256, SelectorTech::SiFet).is_err());
        assert!(RramMacro::new(1024, 0, 256, SelectorTech::SiFet).is_err());
        assert!(RramMacro::new(1023, 8, 256, SelectorTech::SiFet).is_err());
        assert!(RramMacro::new(1024, 8, 256, SelectorTech::Cnfet { delta: 0.2 }).is_err());
    }

    #[test]
    fn energy_scales_with_bits() {
        let m = RramMacro::with_capacity_mb(1, 1, 256, SelectorTech::SiFet).unwrap();
        let e1 = m.read_energy(1000);
        let e2 = m.read_energy(2000);
        assert!((e2.value() / e1.value() - 2.0).abs() < 1e-12);
        assert!(m.leakage_mw() > 0.0);
        assert!(m.read_latency().value() > 0.0);
    }

    #[test]
    fn sram_is_about_2x_less_dense_than_rram_with_peripherals() {
        let sram = SramMacro::with_capacity_kb(64);
        let rram = RramMacro::new(64 * 1024 * 8, 1, 256, SelectorTech::SiFet).unwrap();
        let sram_per_bit = sram.footprint().value() / sram.capacity_bits as f64;
        let rram_per_bit = rram.footprint(&ilv()).unwrap().value() / rram.capacity_bits as f64;
        let ratio = sram_per_bit / rram_per_bit;
        assert!(ratio > 1.8 && ratio < 2.6, "density ratio {ratio}");
    }

    #[test]
    fn sram_energy_and_leakage() {
        let s = SramMacro::with_capacity_kb(256);
        assert_eq!(s.capacity_bits, 256 * 1024 * 8);
        assert!(s.read_energy(64).value() > 0.0);
        assert!(s.leakage_mw() > 0.0);
    }
}
