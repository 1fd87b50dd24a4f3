//! Generator for a complete computing sub-system (CS): the 16×16
//! weight-stationary systolic array with its SRAM buffers, accumulators,
//! input-skew registers and control, as in Fig. 2 of the paper.

use m3d_tech::stdcell::{CellKind, DriveStrength};
use m3d_tech::{SramMacro, StableHash, StableHasher, Tier};

use crate::error::NetlistResult;
use crate::gen::arith::{counter, register, ripple_carry_adder};
use crate::gen::pe::{mac_pe, PeConfig};
use crate::netlist::{MacroKind, NetId, Netlist};

/// Configuration of one computing sub-system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsConfig {
    /// Systolic-array rows (input channels unrolled spatially).
    pub rows: usize,
    /// Systolic-array columns (output channels unrolled spatially).
    pub cols: usize,
    /// PE datapath widths.
    pub pe: PeConfig,
    /// Global activation buffer capacity in kilobytes.
    pub global_buffer_kb: u64,
    /// Input/output local buffer capacity in kilobytes (each).
    pub local_buffer_kb: u64,
}

impl Default for CsConfig {
    fn default() -> Self {
        Self {
            rows: 16,
            cols: 16,
            pe: PeConfig::default(),
            global_buffer_kb: 1024,
            local_buffer_kb: 32,
        }
    }
}

impl StableHash for CsConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.rows.stable_hash(h);
        self.cols.stable_hash(h);
        self.pe.stable_hash(h);
        self.global_buffer_kb.stable_hash(h);
        self.local_buffer_kb.stable_hash(h);
    }
}

/// Port map of a generated CS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsPorts {
    /// Per-column weight-load buses (undriven; the SoC connects them to
    /// an RRAM bank interface). `cols × data_bits` nets.
    pub weight_cols: Vec<Vec<NetId>>,
    /// External activation input bus (undriven; connected to the shared
    /// activation bus at SoC level). `ext_bus_bits` nets.
    pub ext_act_in: Vec<NetId>,
    /// Result output bus (driven; consumed by the SoC or exposed).
    pub result_out: Vec<NetId>,
}

/// Width of the CS external activation/result interface in bits.
pub const EXT_BUS_BITS: usize = 128;

/// Width of the CS result port in bits.
pub const RESULT_BITS: usize = 32;

/// Generates a full CS under `prefix` on `tier`.
///
/// `zero` must be a driven net carrying logic 0 (used for the top-row
/// partial-sum inputs).
///
/// # Errors
///
/// Propagates netlist wiring errors.
///
/// # Panics
///
/// Panics when `rows` or `cols` is zero.
pub fn systolic_cs(
    nl: &mut Netlist,
    prefix: &str,
    tier: Tier,
    cfg: CsConfig,
    zero: NetId,
) -> NetlistResult<CsPorts> {
    assert!(
        cfg.rows > 0 && cfg.cols > 0,
        "array dimensions must be positive"
    );
    let db = cfg.pe.data_bits;
    let ab = cfg.pe.acc_bits;

    // --- SRAM buffers -----------------------------------------------------
    // External activations land in the global buffer; the input local
    // buffer stages rows for streaming; the output local buffer collects
    // results before they return to the global buffer.
    let ext_act_in: Vec<NetId> = (0..EXT_BUS_BITS)
        .map(|i| nl.add_net(format_args!("{prefix}/ext_act{i}")))
        .collect();
    let gbuf_rd: Vec<NetId> = (0..EXT_BUS_BITS)
        .map(|i| nl.add_net(format_args!("{prefix}/gbuf_rd{i}")))
        .collect();
    // Control counters generate addresses.
    let addr_a = counter(nl, &format!("{prefix}/ctl/addr_a"), tier, 16)?;
    let addr_b = counter(nl, &format!("{prefix}/ctl/addr_b"), tier, 16)?;
    let tile_cnt = counter(nl, &format!("{prefix}/ctl/tile"), tier, 12)?;

    let mut gbuf_recv: Vec<NetId> = ext_act_in.clone();
    gbuf_recv.extend(addr_a.iter().copied());
    nl.add_macro(
        format_args!("{prefix}/gbuf"),
        MacroKind::Sram(SramMacro::with_capacity_kb(cfg.global_buffer_kb)),
        &gbuf_rd,
        &gbuf_recv,
    )?;

    let ibuf_rd: Vec<NetId> = (0..cfg.rows * db)
        .map(|i| nl.add_net(format_args!("{prefix}/ibuf_rd{i}")))
        .collect();
    let mut ibuf_recv: Vec<NetId> = gbuf_rd.clone();
    ibuf_recv.extend(addr_b.iter().copied());
    nl.add_macro(
        format_args!("{prefix}/ibuf"),
        MacroKind::Sram(SramMacro::with_capacity_kb(cfg.local_buffer_kb)),
        &ibuf_rd,
        &ibuf_recv,
    )?;

    // --- Input skew registers and the PE array ----------------------------
    // Row r sees r delay stages so the wavefront enters diagonally.
    let mut row_act: Vec<Vec<NetId>> = Vec::with_capacity(cfg.rows);
    for r in 0..cfg.rows {
        let mut bus: Vec<NetId> = ibuf_rd[r * db..(r + 1) * db].to_vec();
        for s in 0..r {
            bus = register(nl, &format!("{prefix}/skew_r{r}_s{s}"), tier, &bus)?;
        }
        row_act.push(bus);
    }

    // Weight-load column buses (ports; driven by the SoC or exposed).
    let weight_cols: Vec<Vec<NetId>> = (0..cfg.cols)
        .map(|c| {
            (0..db)
                .map(|i| nl.add_net(format_args!("{prefix}/wcol{c}_{i}")))
                .collect()
        })
        .collect();

    // PEs, column-major: activations flow right, partial sums flow down.
    let zero_psum = vec![zero; ab];
    let mut col_psum: Vec<Vec<NetId>> = Vec::with_capacity(cfg.cols);
    let mut act_bus = row_act;
    for (c, wcol) in weight_cols.iter().enumerate() {
        let mut psum = zero_psum.clone();
        for (r, act) in act_bus.iter_mut().enumerate() {
            let out = mac_pe(
                nl,
                &format!("{prefix}/pe_r{r}_c{c}"),
                tier,
                cfg.pe,
                act,
                wcol,
                &psum,
            )?;
            *act = out.act_out;
            psum = out.psum_out;
        }
        col_psum.push(psum);
    }
    // Rightmost activation outputs terminate at the netlist boundary.
    for bus in act_bus {
        for n in bus {
            nl.set_primary_output(n)?;
        }
    }

    // --- Column accumulators ----------------------------------------------
    // Each column accumulates tile partial sums: psum + acc_reg → acc_reg.
    let mut col_acc: Vec<Vec<NetId>> = Vec::with_capacity(cfg.cols);
    for (c, psum) in col_psum.iter().enumerate() {
        let fb: Vec<NetId> = (0..ab)
            .map(|i| nl.add_net(format_args!("{prefix}/accfb{c}_{i}")))
            .collect();
        let sum = ripple_carry_adder(nl, &format!("{prefix}/colacc{c}"), tier, psum, &fb, None)?;
        nl.set_primary_output(sum.cout)?;
        let q = register(nl, &format!("{prefix}/colreg{c}"), tier, &sum.sum)?;
        // Feedback: register output drives the adder's second operand via
        // an AND gate with the clear signal (tile boundary).
        for i in 0..ab {
            nl.add_cell(
                format_args!("{prefix}/accclr{c}_{i}"),
                CellKind::And2,
                DriveStrength::X1,
                tier,
                &[q[i], tile_cnt[0]],
                &[fb[i]],
            )?;
        }
        col_acc.push(q);
    }

    // --- Output mux tree → result port → output buffer --------------------
    // RESULT_BITS-wide bus selected across columns with a MUX2 reduction
    // tree controlled by the tile counter bits.
    let mut level: Vec<Vec<NetId>> = col_acc
        .iter()
        .map(|acc| acc[..RESULT_BITS.min(ab)].to_vec())
        .collect();
    let mut sel_bit = 1usize;
    let mut stage = 0usize;
    while level.len() > 1 {
        let sel = tile_cnt[sel_bit.min(tile_cnt.len() - 1)];
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for (pair_idx, pair) in level.chunks(2).enumerate() {
            if pair.len() == 1 {
                next.push(pair[0].clone());
                continue;
            }
            let mut merged = Vec::with_capacity(pair[0].len());
            for (i, &a) in pair[0].iter().enumerate() {
                let y = nl.add_net(format_args!("{prefix}/omux{stage}_{pair_idx}_{i}"));
                nl.add_cell(
                    format_args!("{prefix}/omuxc{stage}_{pair_idx}_{i}"),
                    CellKind::Mux2,
                    DriveStrength::X1,
                    tier,
                    &[a, pair[1][i], sel],
                    &[y],
                )?;
                merged.push(y);
            }
            next.push(merged);
        }
        level = next;
        sel_bit += 1;
        stage += 1;
    }
    let selected = level.into_iter().next().expect("non-empty mux tree");
    // Pad/truncate to the result width and register it.
    let mut res_d = selected;
    while res_d.len() < RESULT_BITS {
        res_d.push(zero);
    }
    res_d.truncate(RESULT_BITS);
    let result_out = register(nl, &format!("{prefix}/oreg"), tier, &res_d)?;

    let mut obuf_recv = result_out.clone();
    obuf_recv.extend(addr_b.iter().copied());
    let obuf_rd: Vec<NetId> = (0..RESULT_BITS)
        .map(|i| nl.add_net(format_args!("{prefix}/obuf_rd{i}")))
        .collect();
    nl.add_macro(
        format_args!("{prefix}/obuf"),
        MacroKind::Sram(SramMacro::with_capacity_kb(cfg.local_buffer_kb)),
        &obuf_rd,
        &obuf_recv,
    )?;
    // Output-buffer read data leaves through the boundary (towards the
    // shared bus / IO).
    for n in &obuf_rd {
        nl.set_primary_output(*n)?;
    }
    // Spare counter bits terminate cleanly.
    for n in addr_a.iter().chain(&addr_b).chain(&tile_cnt) {
        if nl.net(*n)?.sinks.is_empty() {
            nl.set_primary_output(*n)?;
        }
    }

    Ok(CsPorts {
        weight_cols,
        ext_act_in,
        result_out,
    })
}

/// Binds the undriven ports of a standalone CS to primary inputs so the
/// netlist lints clean (used when running CS-level physical design).
///
/// # Errors
///
/// Propagates netlist errors.
pub fn bind_cs_ports_as_primary(nl: &mut Netlist, ports: &CsPorts) -> NetlistResult<()> {
    for col in &ports.weight_cols {
        for &n in col {
            nl.set_primary_input(n)?;
        }
    }
    for &n in &ports.ext_act_in {
        nl.set_primary_input(n)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(rows: usize, cols: usize) -> (Netlist, CsPorts) {
        let mut nl = Netlist::new("cs");
        let zero = nl.add_net("const0");
        nl.set_primary_input(zero).unwrap();
        let cfg = CsConfig {
            rows,
            cols,
            ..CsConfig::default()
        };
        let ports = systolic_cs(&mut nl, "cs0", Tier::SiCmos, cfg, zero).unwrap();
        bind_cs_ports_as_primary(&mut nl, &ports).unwrap();
        (nl, ports)
    }

    #[test]
    fn small_cs_lints_clean() {
        let (nl, ports) = build(4, 4);
        assert!(
            nl.lint().is_empty(),
            "first issues: {:?}",
            &nl.lint()[..nl.lint().len().min(5)]
        );
        assert_eq!(ports.weight_cols.len(), 4);
        assert_eq!(ports.ext_act_in.len(), EXT_BUS_BITS);
        assert_eq!(ports.result_out.len(), RESULT_BITS);
    }

    #[test]
    fn cs_has_three_sram_macros() {
        let (nl, _) = build(4, 4);
        assert_eq!(nl.macros().len(), 3);
        let names: Vec<_> = nl.macros().iter().map(|m| nl.name_of(m.name)).collect();
        assert!(names.iter().any(|n| n.ends_with("gbuf")));
        assert!(names.iter().any(|n| n.ends_with("ibuf")));
        assert!(names.iter().any(|n| n.ends_with("obuf")));
    }

    #[test]
    fn full_cs_cell_count_in_expected_band() {
        let (nl, _) = build(16, 16);
        // 256 PEs ≈ 185 cells each plus skew/accumulator/control overhead.
        assert!(
            nl.cell_count() > 45_000 && nl.cell_count() < 65_000,
            "cells = {}",
            nl.cell_count()
        );
    }

    #[test]
    fn skew_registers_grow_with_row_index() {
        let (nl, _) = build(4, 4);
        let skew_dffs = nl
            .cells()
            .iter()
            .filter(|c| nl.name_of(c.name).contains("/skew_r3_"))
            .count();
        // Row 3 has 3 stages × 8 bits.
        assert_eq!(skew_dffs, 24);
        assert_eq!(
            nl.cells()
                .iter()
                .filter(|c| nl.name_of(c.name).contains("/skew_r0_"))
                .count(),
            0
        );
    }
}
