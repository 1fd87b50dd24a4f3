//! Deterministic netlist generators — the reproduction's stand-in for
//! RTL synthesis (Synopsys DC in the paper's flow).
//!
//! Each generator produces a correctly wired gate-level structure for one
//! accelerator block; [`soc::accelerator_soc`] assembles the full chip.
//! Generation is deterministic: the same configuration always yields the
//! same netlist, so physical-design results are reproducible.

pub mod arith;
pub mod pe;
pub mod soc;
pub mod systolic;

pub use arith::{array_multiplier, counter, register, ripple_carry_adder, AdderOut};
pub use pe::{mac_pe, PeConfig, PeOutputs};
pub use soc::{accelerator_soc, SocConfig, SocPorts};
pub use systolic::{
    bind_cs_ports_as_primary, systolic_cs, CsConfig, CsPorts, EXT_BUS_BITS, RESULT_BITS,
};
