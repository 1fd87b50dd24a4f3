//! The process design kit (PDK): one value bundling the layer stack, cell
//! libraries, memory models and design rules that the physical-design and
//! architecture crates consume.
//!
//! Two configurations mirror the paper's methodology (Sec. II):
//!
//! * [`Pdk::m3d_130nm`] — the full foundry M3D kit: Si CMOS + BEOL RRAM +
//!   one BEOL CNFET tier with ultra-dense ILVs.
//! * [`Pdk::baseline_2d_130nm`] — the *same* kit restricted for the 2D
//!   baseline: a floorplan placement blockage removes the CNFET library
//!   (no CNFET standard cells may be placed) while all routing layers
//!   remain usable.

use serde::{Deserialize, Serialize};

use crate::error::{TechError, TechResult};
use crate::layers::{IlvSpec, LayerStack, Tier};
use crate::rram::RramCellModel;
use crate::stable_hash::{StableHash, StableHasher};
use crate::stdcell::CellLibrary;
use crate::units::{Megahertz, SquareMicrons};

/// Floorplan/placement rules calibrated against the foundry flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignRules {
    /// Standard-cell placement utilisation in unobstructed regions.
    pub placement_utilization: f64,
    /// Placement utilisation in the Si-tier region *under* RRAM arrays,
    /// where only the routing layers below the RRAM plane (M1–M3) are
    /// available — congestion limits achievable density.
    pub under_array_utilization: f64,
    /// Si-tier area reserved for system buses and I/O (the `A_bus` term
    /// of the analytical model).
    pub bus_io_reserve: SquareMicrons,
    /// Maximum sustainable power density before additional thermal
    /// management is required, in mW/mm².
    pub max_power_density_mw_per_mm2: f64,
}

impl Default for DesignRules {
    fn default() -> Self {
        Self {
            placement_utilization: 0.70,
            under_array_utilization: 0.50,
            bus_io_reserve: SquareMicrons::from_mm2(6.0),
            max_power_density_mw_per_mm2: 100.0,
        }
    }
}

impl StableHash for DesignRules {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.placement_utilization.stable_hash(h);
        self.under_array_utilization.stable_hash(h);
        self.bus_io_reserve.stable_hash(h);
        self.max_power_density_mw_per_mm2.stable_hash(h);
    }
}

/// A complete technology configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pdk {
    /// Kit name, e.g. `"m3d_130nm"`.
    pub name: String,
    /// Technology node in nanometres.
    pub node_nm: u32,
    /// The M3D layer stack.
    pub stack: LayerStack,
    /// FEOL Si CMOS cell library.
    pub si_lib: CellLibrary,
    /// BEOL CNFET cell library; `None` models the 2D-baseline floorplan
    /// blockage that forbids CNFET standard cells.
    pub cnfet_lib: Option<CellLibrary>,
    /// RRAM bitcell model.
    pub rram_cell: RramCellModel,
    /// Floorplan and placement rules.
    pub rules: DesignRules,
    /// Nominal supply voltage in volts.
    pub vdd: f64,
    /// Default physical-design target clock (relaxed to 20 MHz to account
    /// for RRAM access at the 130 nm node, per Sec. II).
    pub default_clock: Megahertz,
    /// Global timing derate applied to macro access paths (1.0 at the
    /// typical corner; process corners scale it).
    pub timing_derate: f64,
}

impl StableHash for Pdk {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.node_nm.stable_hash(h);
        self.stack.stable_hash(h);
        self.si_lib.stable_hash(h);
        self.cnfet_lib.stable_hash(h);
        self.rram_cell.stable_hash(h);
        self.rules.stable_hash(h);
        self.vdd.stable_hash(h);
        self.default_clock.stable_hash(h);
        self.timing_derate.stable_hash(h);
    }
}

impl Pdk {
    /// The full foundry M3D kit with ideal (δ = 1) CNFETs.
    pub fn m3d_130nm() -> Self {
        Self::m3d_130nm_relaxed(1.0).expect("delta = 1.0 is always valid")
    }

    /// The foundry M3D kit with CNFET width-relaxation `delta` (δ ≥ 1),
    /// the Case-1 knob of Sec. III-D.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] for δ < 1 or non-finite δ.
    pub fn m3d_130nm_relaxed(delta: f64) -> TechResult<Self> {
        Ok(Self {
            name: "m3d_130nm".to_owned(),
            node_nm: 130,
            stack: LayerStack::m3d_130nm(),
            si_lib: CellLibrary::si_cmos_130(),
            cnfet_lib: Some(CellLibrary::cnfet_beol_130(delta)?),
            rram_cell: RramCellModel::foundry_130nm(),
            rules: DesignRules::default(),
            vdd: 1.5,
            default_clock: Megahertz::new(20.0),
            timing_derate: 1.0,
        })
    }

    /// The 2D-baseline configuration: same stack and rules, but CNFET
    /// standard cells are forbidden by a floorplan placement blockage
    /// (all routing layers stay available).
    pub fn baseline_2d_130nm() -> Self {
        Self {
            name: "baseline_2d_130nm".to_owned(),
            cnfet_lib: None,
            ..Self::m3d_130nm()
        }
    }

    /// `true` when CNFET standard cells may be placed.
    pub fn has_cnfet_tier(&self) -> bool {
        self.cnfet_lib.is_some()
    }

    /// Cell library for `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::MissingTier`] for the CNFET tier when this
    /// PDK carries the 2D placement blockage.
    pub fn library(&self, tier: Tier) -> TechResult<&CellLibrary> {
        match tier {
            Tier::SiCmos => Ok(&self.si_lib),
            Tier::Cnfet => self
                .cnfet_lib
                .as_ref()
                .ok_or(TechError::MissingTier { tier: "CNFET" }),
        }
    }

    /// ILV specification of the stack.
    pub fn ilv(&self) -> &IlvSpec {
        &self.stack.ilv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m3d_kit_has_both_libraries() {
        let pdk = Pdk::m3d_130nm();
        assert!(pdk.has_cnfet_tier());
        assert!(pdk.library(Tier::SiCmos).is_ok());
        assert!(pdk.library(Tier::Cnfet).is_ok());
        assert_eq!(pdk.node_nm, 130);
        assert!((pdk.default_clock.value() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_blocks_cnfet_cells_but_keeps_routing() {
        let pdk = Pdk::baseline_2d_130nm();
        assert!(!pdk.has_cnfet_tier());
        assert!(matches!(
            pdk.library(Tier::Cnfet),
            Err(TechError::MissingTier { .. })
        ));
        // All routing layers remain available.
        assert_eq!(pdk.stack.routing().len(), 5);
    }

    #[test]
    fn relaxed_kit_propagates_delta() {
        let pdk = Pdk::m3d_130nm_relaxed(1.6).unwrap();
        let relaxed_inv = pdk
            .library(Tier::Cnfet)
            .unwrap()
            .min_drive(crate::stdcell::CellKind::Inv)
            .area;
        let ideal_inv = Pdk::m3d_130nm()
            .library(Tier::Cnfet)
            .unwrap()
            .min_drive(crate::stdcell::CellKind::Inv)
            .area;
        assert!((relaxed_inv / ideal_inv - 1.6).abs() < 1e-9);
        assert!(Pdk::m3d_130nm_relaxed(0.3).is_err());
    }

    #[test]
    fn default_rules_are_sane() {
        let r = DesignRules::default();
        assert!(r.placement_utilization > r.under_array_utilization);
        assert!(r.bus_io_reserve.as_mm2() > 0.0);
    }
}
