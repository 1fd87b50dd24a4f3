//! # m3d-tech — synthetic foundry monolithic-3D PDK
//!
//! This crate is the technology substrate of the DATE 2023 reproduction
//! *"Ultra-Dense 3D Physical Design Unlocks New Architectural Design
//! Points with Large Benefits"*. It stands in for the proprietary foundry
//! 130 nm M3D process design kit the paper uses: a Si CMOS FEOL tier, a
//! BEOL RRAM memory layer, a single BEOL CNFET device tier, and
//! ultra-dense inter-layer vias (ILVs) connecting them.
//!
//! The kit exposes exactly the quantities the paper's results depend on:
//!
//! * **area ratios** between memory arrays, peripherals and logic
//!   (γ_cells, γ_perif of the analytical framework),
//! * **bandwidths** of banked RRAM macros,
//! * **energies** per memory access and per logic transition,
//! * and the two M3D-specific sensitivity knobs: the CNFET
//!   **width-relaxation δ** (Case 1) and the **ILV pitch β** (Case 2).
//!
//! # Quickstart
//!
//! ```
//! use m3d_tech::{Pdk, RramMacro, SelectorTech};
//!
//! # fn main() -> Result<(), m3d_tech::TechError> {
//! // The paper's two technology configurations.
//! let m3d = Pdk::m3d_130nm();
//! let two_d = Pdk::baseline_2d_130nm();
//! assert!(m3d.has_cnfet_tier() && !two_d.has_cnfet_tier());
//!
//! // A 64 MB weight memory: Si selectors occupy the Si tier under the
//! // array; CNFET selectors free it for 8 parallel compute sub-systems.
//! let baseline = RramMacro::with_capacity_mb(64, 1, 256, SelectorTech::SiFet)?;
//! let folded = RramMacro::with_capacity_mb(64, 8, 256, SelectorTech::IDEAL_CNFET)?;
//! let freed = folded.freed_si_area(m3d.ilv())?;
//! assert!(freed > baseline.freed_si_area(two_d.ilv())?);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod corners;
pub mod error;
pub mod layers;
pub mod macro_model;
pub mod pdk;
pub mod rram;
pub mod scaling;
pub mod span;
pub mod stable_hash;
pub mod stdcell;
pub mod thermal_profile;
pub mod units;

pub use corners::Corner;
pub use error::{TechError, TechResult};
pub use layers::{IlvSpec, LayerStack, RoutingLayer, Tier};
pub use macro_model::{RramMacro, SramMacro};
pub use pdk::{DesignRules, Pdk};
pub use rram::{RramCellModel, SelectorTech};
pub use scaling::{projection_ladder, NodeScaling};
pub use span::{Provenance, SpanNode};
pub use stable_hash::{StableHash, StableHasher};
pub use stdcell::{CellKind, CellLibrary, DriveStrength, StdCell};
pub use thermal_profile::{HeatSource, ThermalLayerSpec};
