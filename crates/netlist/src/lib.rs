//! # m3d-netlist — gate-level netlists and accelerator generators
//!
//! The netlist substrate of the DATE 2023 M3D reproduction. It provides:
//!
//! * a flat gate-level [`Netlist`] graph (cells, hard macros, nets with
//!   single drivers and sink pins) that the physical-design crate places,
//!   routes and times;
//! * deterministic **generators** standing in for RTL synthesis: adders,
//!   multipliers, weight-stationary MAC PEs, the 16×16 systolic computing
//!   sub-system (CS) and the full accelerator SoC with banked RRAM;
//! * [`NetlistStats`] — synthesis-report style roll-ups.
//!
//! # Quickstart
//!
//! ```
//! use m3d_netlist::{accelerator_soc, Netlist, NetlistStats, SocConfig};
//! use m3d_tech::Pdk;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("soc_2d");
//! accelerator_soc(&mut nl, &SocConfig::baseline_2d())?;
//! assert!(nl.lint().is_empty());
//!
//! let stats = NetlistStats::compute(&nl, &Pdk::baseline_2d_130nm())?;
//! assert!(stats.cell_count > 10_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod eval;
pub mod gen;
pub mod names;
pub mod netlist;
pub mod parser;
pub mod stats;
pub mod verilog;

pub use error::{NetlistError, NetlistResult};
pub use eval::Simulator;
pub use gen::{
    accelerator_soc, bind_cs_ports_as_primary, systolic_cs, CsConfig, CsPorts, PeConfig, SocConfig,
    SocPorts,
};
pub use netlist::{
    CellId, CellInst, Driver, MacroId, MacroInst, MacroKind, Name, Net, NetId, Netlist, Pins, Sink,
    Sinks, MAX_INPUTS, MAX_OUTPUTS,
};
pub use parser::from_verilog;
pub use stats::NetlistStats;
pub use verilog::to_verilog;
