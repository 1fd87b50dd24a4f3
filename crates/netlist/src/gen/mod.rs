//! Deterministic netlist generators — the reproduction's stand-in for
//! RTL synthesis (Synopsys DC in the paper's flow).
//!
//! Each generator produces a correctly wired gate-level structure for one
//! accelerator block; [`soc::accelerator_soc`] assembles the full chip.
//! Generation is deterministic: the same configuration always yields the
//! same netlist, so physical-design results are reproducible.

pub mod arith;
pub mod cla;
pub mod pe;
pub mod soc;
pub mod systolic;

pub use arith::{array_multiplier, counter, register, ripple_carry_adder, AdderOut};
pub use cla::carry_select_adder;
pub use pe::{mac_pe, PeConfig, PeOutputs};
pub use soc::{accelerator_soc, SocConfig, SocPorts};
pub use systolic::{
    bind_cs_ports_as_primary, systolic_cs, CsConfig, CsPorts, EXT_BUS_BITS, RESULT_BITS,
};

use std::fmt::{self, Write as _};

/// `format!` for generated instance and net names: the name is built
/// once, in a `String` allocated at its final length. (`format!` starts
/// from a small guess and regrows, which for the SoC's million names is
/// a million reallocations and slack bytes that the netlist then keeps.)
macro_rules! name {
    ($($arg:tt)*) => {
        $crate::gen::exact_string(format_args!($($arg)*))
    };
}
pub(crate) use name;

/// Renders `args` into a `String` whose capacity is exactly its length:
/// one pass measures, the second writes.
pub(crate) fn exact_string(args: fmt::Arguments<'_>) -> String {
    struct Len(usize);
    impl fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(0);
    // Neither writer can fail: both only count or append.
    let _ = len.write_fmt(args);
    let mut name = String::with_capacity(len.0);
    let _ = name.write_fmt(args);
    name
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_match_format_at_exact_capacity() {
        let prefix = "cs0/pe_r3_c7/mult";
        for i in [0usize, 9, 10, 12345] {
            let got = name!("{prefix}/pp{i}_{}", i + 1);
            assert_eq!(got, format!("{prefix}/pp{i}_{}", i + 1));
            assert_eq!(got.capacity(), got.len());
        }
    }
}
