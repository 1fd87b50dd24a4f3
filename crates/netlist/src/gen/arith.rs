//! Generators for arithmetic datapath blocks: ripple-carry adders, array
//! multipliers, registers and counters.
//!
//! These produce correctly wired gate-level structures so that downstream
//! static timing analysis sees realistic topologies (carry chains are the
//! critical paths of the accelerator datapath).

use m3d_tech::stdcell::{CellKind, DriveStrength};
use m3d_tech::Tier;

use crate::error::NetlistResult;
use crate::netlist::{NetId, Netlist};

/// Result of adding two buses: sum bits plus the final carry out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdderOut {
    /// Sum bits, LSB first, same width as the inputs.
    pub sum: Vec<NetId>,
    /// Final carry out.
    pub cout: NetId,
}

/// Generates a ripple-carry adder over `a` and `b` (equal widths, LSB
/// first). With `cin = None` the LSB stage uses a half adder.
///
/// # Errors
///
/// Propagates netlist wiring errors.
///
/// # Panics
///
/// Panics when `a` and `b` have different widths or are empty.
pub fn ripple_carry_adder(
    nl: &mut Netlist,
    prefix: &str,
    tier: Tier,
    a: &[NetId],
    b: &[NetId],
    cin: Option<NetId>,
) -> NetlistResult<AdderOut> {
    assert_eq!(a.len(), b.len(), "adder operand widths must match");
    assert!(!a.is_empty(), "adder width must be positive");
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = cin;
    for (i, (&ai, &bi)) in a.iter().zip(b).enumerate() {
        let s = nl.add_net(format_args!("{prefix}/s{i}"));
        let c = nl.add_net(format_args!("{prefix}/c{i}"));
        match carry {
            Some(cn) => {
                nl.add_cell(
                    format_args!("{prefix}/fa{i}"),
                    CellKind::FullAdder,
                    DriveStrength::X1,
                    tier,
                    &[ai, bi, cn],
                    &[s, c],
                )?;
            }
            None => {
                nl.add_cell(
                    format_args!("{prefix}/ha{i}"),
                    CellKind::HalfAdder,
                    DriveStrength::X1,
                    tier,
                    &[ai, bi],
                    &[s, c],
                )?;
            }
        }
        sum.push(s);
        carry = Some(c);
    }
    Ok(AdderOut {
        sum,
        cout: carry.expect("width > 0 guarantees a carry"),
    })
}

/// Generates an unsigned array multiplier of two `w`-bit buses, returning
/// the `2w`-bit product (LSB first).
///
/// Structure: AND-gate partial products accumulated row by row with
/// ripple-carry adders — the classic array topology whose carry chain
/// dominates PE timing.
///
/// # Errors
///
/// Propagates netlist wiring errors.
///
/// # Panics
///
/// Panics when the operand widths differ or are empty.
pub fn array_multiplier(
    nl: &mut Netlist,
    prefix: &str,
    tier: Tier,
    a: &[NetId],
    b: &[NetId],
) -> NetlistResult<Vec<NetId>> {
    assert_eq!(a.len(), b.len(), "multiplier operand widths must match");
    assert!(!a.is_empty(), "multiplier width must be positive");
    let w = a.len();

    // Partial-product row generator: pp[i] = a[i] AND b[j].
    let pp_row = |nl: &mut Netlist, j: usize| -> NetlistResult<Vec<NetId>> {
        let mut row = Vec::with_capacity(w);
        for (i, &ai) in a.iter().enumerate() {
            let p = nl.add_net(format_args!("{prefix}/pp{j}_{i}"));
            nl.add_cell(
                format_args!("{prefix}/and{j}_{i}"),
                CellKind::And2,
                DriveStrength::X1,
                tier,
                &[ai, b[j]],
                &[p],
            )?;
            row.push(p);
        }
        Ok(row)
    };

    // Accumulate row 0 directly; rows 1..w are added at increasing
    // offset. After row j−1 the running product has j−1+w bits, so the
    // slice above the offset is w−1 bits wide: add it to the low w−1 row
    // bits with a ripple chain, then fold the row's top bit in with the
    // chain's carry through a half adder.
    let mut product: Vec<NetId> = pp_row(nl, 0)?;
    for j in 1..w {
        let row = pp_row(nl, j)?;
        let lo = product[..j].to_vec();
        let hi = product[j..].to_vec();
        let mut next = lo;
        if hi.len() == w {
            // Steady state: both operands are w bits; keep the carry.
            let added = ripple_carry_adder(nl, &format!("{prefix}/row{j}"), tier, &hi, &row, None)?;
            next.extend(added.sum);
            next.push(added.cout);
        } else {
            // First accumulation: the slice above the offset is w−1 bits;
            // fold the row's top bit in with the chain's carry.
            debug_assert_eq!(hi.len(), w - 1);
            let added = ripple_carry_adder(
                nl,
                &format!("{prefix}/row{j}"),
                tier,
                &hi,
                &row[..w - 1],
                None,
            )?;
            let top_s = nl.add_net(format_args!("{prefix}/top_s{j}"));
            let top_c = nl.add_net(format_args!("{prefix}/top_c{j}"));
            nl.add_cell(
                format_args!("{prefix}/top{j}"),
                CellKind::HalfAdder,
                DriveStrength::X1,
                tier,
                &[row[w - 1], added.cout],
                &[top_s, top_c],
            )?;
            next.extend(added.sum);
            next.push(top_s);
            next.push(top_c);
        }
        product = next;
    }
    debug_assert_eq!(product.len(), 2 * w);
    Ok(product)
}

/// Generates a `width`-bit register bank (one DFF per bit) capturing `d`.
/// Returns the Q outputs in bit order.
///
/// # Errors
///
/// Propagates netlist wiring errors.
pub fn register(
    nl: &mut Netlist,
    prefix: &str,
    tier: Tier,
    d: &[NetId],
) -> NetlistResult<Vec<NetId>> {
    let mut q = Vec::with_capacity(d.len());
    for (i, &di) in d.iter().enumerate() {
        let qi = nl.add_net(format_args!("{prefix}/q{i}"));
        nl.add_cell(
            format_args!("{prefix}/dff{i}"),
            CellKind::Dff,
            DriveStrength::X1,
            tier,
            &[di],
            &[qi],
        )?;
        q.push(qi);
    }
    Ok(q)
}

/// Generates a `width`-bit synchronous up-counter: an incrementer feeding
/// a register whose outputs loop back. Returns the count outputs.
///
/// # Errors
///
/// Propagates netlist wiring errors.
///
/// # Panics
///
/// Panics when `width == 0`.
pub fn counter(
    nl: &mut Netlist,
    prefix: &str,
    tier: Tier,
    width: usize,
) -> NetlistResult<Vec<NetId>> {
    assert!(width > 0, "counter width must be positive");
    // Registers first (their D inputs are wired afterwards via the
    // incrementer outputs), so declare D nets upfront.
    let d: Vec<NetId> = (0..width)
        .map(|i| nl.add_net(format_args!("{prefix}/d{i}")))
        .collect();
    let q = register(nl, &format!("{prefix}/reg"), tier, &d)?;
    // Incrementer: half-adder chain adding 1 (carry-in = q[0] toggle).
    // d[0] = NOT q[0]; carry = q[0]; d[i] = q[i] XOR carry.
    nl.add_cell(
        format_args!("{prefix}/inv0"),
        CellKind::Inv,
        DriveStrength::X1,
        tier,
        &[q[0]],
        &[d[0]],
    )?;
    let mut carry = q[0];
    for i in 1..width {
        let s = d[i];
        let c = nl.add_net(format_args!("{prefix}/cc{i}"));
        nl.add_cell(
            format_args!("{prefix}/ha{i}"),
            CellKind::HalfAdder,
            DriveStrength::X1,
            tier,
            &[q[i], carry],
            &[s, c],
        )?;
        carry = c;
    }
    // Terminal carry is the rollover flag; expose it as an output net so
    // it is not dangling.
    nl.set_primary_output(carry)?;
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(nl: &mut Netlist, prefix: &str, w: usize) -> Vec<NetId> {
        (0..w)
            .map(|i| {
                let n = nl.add_net(format_args!("{prefix}{i}"));
                nl.set_primary_input(n).unwrap();
                n
            })
            .collect()
    }

    #[test]
    fn adder_structure() {
        let mut nl = Netlist::new("t");
        let a = inputs(&mut nl, "a", 8);
        let b = inputs(&mut nl, "b", 8);
        let out = ripple_carry_adder(&mut nl, "add", Tier::SiCmos, &a, &b, None).unwrap();
        assert_eq!(out.sum.len(), 8);
        // 1 HA + 7 FA.
        let ha = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::HalfAdder)
            .count();
        let fa = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::FullAdder)
            .count();
        assert_eq!((ha, fa), (1, 7));
        for s in &out.sum {
            nl.set_primary_output(*s).unwrap();
        }
        nl.set_primary_output(out.cout).unwrap();
        assert!(nl.lint().is_empty());
    }

    #[test]
    fn adder_with_cin_uses_all_full_adders() {
        let mut nl = Netlist::new("t");
        let a = inputs(&mut nl, "a", 4);
        let b = inputs(&mut nl, "b", 4);
        let cin = inputs(&mut nl, "cin", 1)[0];
        ripple_carry_adder(&mut nl, "add", Tier::SiCmos, &a, &b, Some(cin)).unwrap();
        let fa = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::FullAdder)
            .count();
        assert_eq!(fa, 4);
    }

    #[test]
    fn multiplier_has_2w_product_bits_and_expected_gates() {
        let mut nl = Netlist::new("t");
        let a = inputs(&mut nl, "a", 8);
        let b = inputs(&mut nl, "b", 8);
        let p = array_multiplier(&mut nl, "mul", Tier::SiCmos, &a, &b).unwrap();
        assert_eq!(p.len(), 16);
        let ands = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::And2)
            .count();
        assert_eq!(ands, 64);
        let adders = nl
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, CellKind::FullAdder | CellKind::HalfAdder))
            .count();
        assert_eq!(adders, 7 * 8); // 7 accumulate rows of width 8
        for s in p {
            nl.set_primary_output(s).unwrap();
        }
        assert!(nl.lint().is_empty());
    }

    #[test]
    fn register_is_one_dff_per_bit() {
        let mut nl = Netlist::new("t");
        let d = inputs(&mut nl, "d", 24);
        let q = register(&mut nl, "r", Tier::SiCmos, &d).unwrap();
        assert_eq!(q.len(), 24);
        assert_eq!(nl.cell_count(), 24);
        assert!(nl.cells().iter().all(|c| c.kind == CellKind::Dff));
    }

    #[test]
    fn counter_loops_back_and_lints_clean() {
        let mut nl = Netlist::new("t");
        let q = counter(&mut nl, "cnt", Tier::SiCmos, 8).unwrap();
        assert_eq!(q.len(), 8);
        for n in q {
            nl.set_primary_output(n).unwrap();
        }
        assert!(nl.lint().is_empty(), "{:?}", nl.lint());
        let dffs = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::Dff)
            .count();
        assert_eq!(dffs, 8);
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn adder_rejects_mismatched_widths() {
        let mut nl = Netlist::new("t");
        let a = inputs(&mut nl, "a", 4);
        let b = inputs(&mut nl, "b", 5);
        let _ = ripple_carry_adder(&mut nl, "add", Tier::SiCmos, &a, &b, None);
    }
}
