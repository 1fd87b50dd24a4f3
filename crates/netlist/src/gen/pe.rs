//! Generator for the weight-stationary MAC processing element.
//!
//! The PE mirrors the paper's accelerator (paper refs. 9/10 style): an 8-bit
//! weight register (stationary), an 8-bit input-activation register that
//! forwards to the right neighbour, an 8×8 array multiplier, and a 24-bit
//! accumulator adding the partial sum flowing down the column.

use m3d_tech::{StableHash, StableHasher, Tier};

use crate::error::NetlistResult;
use crate::gen::arith::{array_multiplier, register, ripple_carry_adder};
use crate::netlist::{NetId, Netlist};

/// Output nets of a generated PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeOutputs {
    /// Registered activation forwarded to the right neighbour.
    pub act_out: Vec<NetId>,
    /// Partial-sum output to the PE below.
    pub psum_out: Vec<NetId>,
}

/// Datapath widths of a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeConfig {
    /// Activation/weight operand width in bits.
    pub data_bits: usize,
    /// Accumulator width in bits.
    pub acc_bits: usize,
}

impl StableHash for PeConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.data_bits.stable_hash(h);
        self.acc_bits.stable_hash(h);
    }
}

impl Default for PeConfig {
    fn default() -> Self {
        Self {
            data_bits: 8,
            acc_bits: 24,
        }
    }
}

/// Generates one PE under `prefix`, consuming the given activation,
/// weight and partial-sum input nets.
///
/// # Errors
///
/// Propagates netlist wiring errors.
///
/// # Panics
///
/// Panics when bus widths disagree with `cfg` or when
/// `cfg.acc_bits < 2 × cfg.data_bits`.
pub fn mac_pe(
    nl: &mut Netlist,
    prefix: &str,
    tier: Tier,
    cfg: PeConfig,
    act_in: &[NetId],
    weight_in: &[NetId],
    psum_in: &[NetId],
) -> NetlistResult<PeOutputs> {
    assert!(
        cfg.acc_bits >= 2 * cfg.data_bits,
        "accumulator must hold a full product"
    );
    assert_eq!(act_in.len(), cfg.data_bits, "act_in width");
    assert_eq!(weight_in.len(), cfg.data_bits, "weight_in width");
    assert_eq!(psum_in.len(), cfg.acc_bits, "psum_in width");

    // Stationary weight register and activation forwarding register.
    let weight = register(nl, &format!("{prefix}/wreg"), tier, weight_in)?;
    let act_out = register(nl, &format!("{prefix}/areg"), tier, act_in)?;

    // Multiply the registered activation by the stationary weight.
    let product = array_multiplier(nl, &format!("{prefix}/mult"), tier, &act_out, &weight)?;

    // Extend the product to accumulator width by fanning out its MSB
    // (structural sign-extension) and add the incoming partial sum.
    let msb = *product.last().expect("non-empty product");
    let mut addend = product;
    while addend.len() < cfg.acc_bits {
        addend.push(msb);
    }
    let acc = ripple_carry_adder(nl, &format!("{prefix}/acc"), tier, psum_in, &addend, None)?;
    let psum_out = register(nl, &format!("{prefix}/psreg"), tier, &acc.sum)?;
    // The terminal carry doubles as a saturation flag; expose it so the
    // graph stays sink-complete.
    nl.set_primary_output(acc.cout)?;

    Ok(PeOutputs { act_out, psum_out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::stdcell::CellKind;

    fn bus(nl: &mut Netlist, name: &str, w: usize) -> Vec<NetId> {
        (0..w)
            .map(|i| {
                let n = nl.add_net(format_args!("{name}{i}"));
                nl.set_primary_input(n).unwrap();
                n
            })
            .collect()
    }

    fn build() -> (Netlist, PeOutputs) {
        let mut nl = Netlist::new("t");
        let act = bus(&mut nl, "a", 8);
        let w = bus(&mut nl, "w", 8);
        let ps = bus(&mut nl, "p", 24);
        let out = mac_pe(
            &mut nl,
            "pe",
            Tier::SiCmos,
            PeConfig::default(),
            &act,
            &w,
            &ps,
        )
        .unwrap();
        (nl, out)
    }

    #[test]
    fn pe_port_widths() {
        let (_, out) = build();
        assert_eq!(out.act_out.len(), 8);
        assert_eq!(out.psum_out.len(), 24);
    }

    #[test]
    fn pe_cell_budget_matches_architecture() {
        let (nl, _) = build();
        let dffs = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::Dff)
            .count();
        // 8 weight + 8 activation + 24 psum.
        assert_eq!(dffs, 40);
        let ands = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::And2)
            .count();
        assert_eq!(ands, 64);
        // Multiplier rows (7×8) + 24-bit accumulator.
        let adders = nl
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, CellKind::FullAdder | CellKind::HalfAdder))
            .count();
        assert_eq!(adders, 56 + 24);
        assert!(nl.cell_count() > 150 && nl.cell_count() < 220);
    }

    #[test]
    fn pe_lints_clean_once_outputs_are_bound() {
        let (mut nl, out) = build();
        for n in out
            .psum_out
            .iter()
            .chain(&out.act_out)
            .copied()
            .collect::<Vec<_>>()
        {
            nl.set_primary_output(n).unwrap();
        }
        assert!(nl.lint().is_empty(), "{:?}", nl.lint());
    }

    #[test]
    #[should_panic(expected = "act_in width")]
    fn pe_rejects_wrong_bus_width() {
        let mut nl = Netlist::new("t");
        let act = bus(&mut nl, "a", 4);
        let w = bus(&mut nl, "w", 8);
        let ps = bus(&mut nl, "p", 24);
        let _ = mac_pe(
            &mut nl,
            "pe",
            Tier::SiCmos,
            PeConfig::default(),
            &act,
            &w,
            &ps,
        );
    }
}
