//! Carry-select adder generator: the timing-driven alternative to the
//! ripple-carry adder.
//!
//! Blocks of `BLOCK` bits compute both carry-in polarities speculatively
//! and a mux chain selects the real one — O(n/BLOCK) carry depth instead
//! of O(n). The PE ablation (`adder_architecture` tests) quantifies the
//! area-for-delay trade on the accumulator path.

use m3d_tech::stdcell::{CellKind, DriveStrength};
use m3d_tech::Tier;

use crate::error::NetlistResult;
use crate::gen::arith::{ripple_carry_adder, AdderOut};
use crate::netlist::{NetId, Netlist};

/// Bits per carry-select block.
const BLOCK: usize = 4;

/// Generates a carry-select adder over `a` and `b` (LSB first).
///
/// The first block is a plain ripple adder; every later block is
/// duplicated for carry-in 0 and 1 with mux-selected outputs.
///
/// # Errors
///
/// Propagates netlist wiring errors.
///
/// # Panics
///
/// Panics when operand widths differ or are empty.
pub fn carry_select_adder(
    nl: &mut Netlist,
    prefix: &str,
    tier: Tier,
    a: &[NetId],
    b: &[NetId],
) -> NetlistResult<AdderOut> {
    assert_eq!(a.len(), b.len(), "adder operand widths must match");
    assert!(!a.is_empty(), "adder width must be positive");
    let w = a.len();

    // Constant nets for the speculative carry-ins: derive 0 and 1 from
    // the first operand bit (x AND ~x = 0; x OR ~x = 1) so the adder is
    // self-contained.
    let not_a0 = nl.add_net(format_args!("{prefix}/na0"));
    nl.add_cell(
        format_args!("{prefix}/cinv"),
        CellKind::Inv,
        DriveStrength::X1,
        tier,
        &[a[0]],
        &[not_a0],
    )?;
    let zero = nl.add_net(format_args!("{prefix}/zero"));
    nl.add_cell(
        format_args!("{prefix}/czero"),
        CellKind::And2,
        DriveStrength::X1,
        tier,
        &[a[0], not_a0],
        &[zero],
    )?;
    let one = nl.add_net(format_args!("{prefix}/one"));
    nl.add_cell(
        format_args!("{prefix}/cone"),
        CellKind::Or2,
        DriveStrength::X1,
        tier,
        &[a[0], not_a0],
        &[one],
    )?;

    let mut sum: Vec<NetId> = Vec::with_capacity(w);
    // Block 0: plain ripple.
    let first_end = BLOCK.min(w);
    let first = ripple_carry_adder(
        nl,
        &format!("{prefix}/b0"),
        tier,
        &a[..first_end],
        &b[..first_end],
        None,
    )?;
    sum.extend(first.sum.iter().copied());
    let mut carry = first.cout;

    let mut blk = 1usize;
    let mut lo = first_end;
    while lo < w {
        let hi = (lo + BLOCK).min(w);
        let a_blk = &a[lo..hi];
        let b_blk = &b[lo..hi];
        // Speculative copies for carry-in 0 and carry-in 1.
        let s0 = ripple_carry_adder(
            nl,
            &format!("{prefix}/b{blk}c0"),
            tier,
            a_blk,
            b_blk,
            Some(zero),
        )?;
        let s1 = ripple_carry_adder(
            nl,
            &format!("{prefix}/b{blk}c1"),
            tier,
            a_blk,
            b_blk,
            Some(one),
        )?;
        // Select with the incoming carry.
        for i in 0..(hi - lo) {
            let y = nl.add_net(format_args!("{prefix}/sel{blk}_{i}"));
            nl.add_cell(
                format_args!("{prefix}/smux{blk}_{i}"),
                CellKind::Mux2,
                DriveStrength::X1,
                tier,
                &[s0.sum[i], s1.sum[i], carry],
                &[y],
            )?;
            sum.push(y);
        }
        let cy = nl.add_net(format_args!("{prefix}/cy{blk}"));
        nl.add_cell(
            format_args!("{prefix}/cmux{blk}"),
            CellKind::Mux2,
            DriveStrength::X2,
            tier,
            &[s0.cout, s1.cout, carry],
            &[cy],
        )?;
        carry = cy;
        lo = hi;
        blk += 1;
    }
    Ok(AdderOut { sum, cout: carry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Simulator;

    fn inputs(nl: &mut Netlist, prefix: &str, w: usize) -> Vec<NetId> {
        (0..w)
            .map(|i| {
                let n = nl.add_net(format_args!("{prefix}{i}"));
                nl.set_primary_input(n).unwrap();
                n
            })
            .collect()
    }

    fn build(w: usize) -> (Netlist, Vec<NetId>, Vec<NetId>, AdderOut) {
        let mut nl = Netlist::new("csa");
        let a = inputs(&mut nl, "a", w);
        let b = inputs(&mut nl, "b", w);
        let out = carry_select_adder(&mut nl, "csa", Tier::SiCmos, &a, &b).unwrap();
        for s in out.sum.iter().chain(std::iter::once(&out.cout)) {
            nl.set_primary_output(*s).unwrap();
        }
        (nl, a, b, out)
    }

    #[test]
    fn carry_select_adds_correctly() {
        let (nl, a, b, out) = build(16);
        assert!(
            nl.lint().is_empty(),
            "{:?}",
            &nl.lint()[..nl.lint().len().min(3)]
        );
        let mut sim = Simulator::new(&nl).unwrap();
        for (x, y) in [
            (0u64, 0u64),
            (65_535, 1),
            (40_000, 30_000),
            (12_345, 54_321),
            (65_535, 65_535),
        ] {
            sim.set_bus(&a, x);
            sim.set_bus(&b, y);
            sim.eval();
            let s = sim.bus_value(&out.sum) | (u64::from(sim.value(out.cout)) << 16);
            assert_eq!(s, x + y, "{x}+{y}");
        }
    }

    #[test]
    fn carry_select_is_larger_but_shallower() {
        let mut rca_nl = Netlist::new("rca");
        let a = inputs(&mut rca_nl, "a", 24);
        let b = inputs(&mut rca_nl, "b", 24);
        ripple_carry_adder(&mut rca_nl, "rca", Tier::SiCmos, &a, &b, None).unwrap();
        let (csa_nl, ..) = build(24);
        // Speculative blocks roughly double the adder cells plus muxes.
        assert!(csa_nl.cell_count() > rca_nl.cell_count() * 3 / 2);
        // Carry depth: RCA crosses 24 adders; CSA crosses one block plus
        // one mux per subsequent block = 4 + 5 stages.
        let csa_mux_chain = csa_nl
            .cells()
            .iter()
            .filter(|c| csa_nl.name_of(c.name).contains("/cmux"))
            .count();
        assert_eq!(csa_mux_chain, 24 / 4 - 1);
    }

    #[test]
    fn width_not_multiple_of_block_still_works() {
        let (nl, a, b, out) = build(10);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_bus(&a, 1000);
        sim.set_bus(&b, 23);
        sim.eval();
        assert_eq!(sim.bus_value(&out.sum), 1023);
        assert_eq!(out.sum.len(), 10);
    }
}
