//! Generator for the full AI-accelerator SoC: N computing sub-systems,
//! the banked on-chip RRAM weight memory, per-bank interfaces and the
//! shared activation bus (Fig. 2 of the paper).
//!
//! The 2D baseline instantiates one CS and a single-bank RRAM with Si
//! selectors; the M3D design instantiates N (= 8) CSs with the RRAM
//! partitioned into N banks using CNFET selectors.

use m3d_tech::stdcell::{CellKind, DriveStrength};
use m3d_tech::{RramMacro, SelectorTech, StableHash, StableHasher, TechError, Tier};

use crate::error::{NetlistError, NetlistResult};
use crate::gen::arith::{counter, register};
use crate::gen::systolic::{systolic_cs, CsConfig, CsPorts, EXT_BUS_BITS};
use crate::netlist::{MacroKind, NetId, NetMap, Netlist};

/// Configuration of the accelerator SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocConfig {
    /// Number of parallel computing sub-systems.
    pub cs_count: u32,
    /// Per-CS configuration.
    pub cs: CsConfig,
    /// On-chip RRAM capacity in megabytes.
    pub rram_mb: u64,
    /// Number of RRAM banks.
    pub rram_banks: u32,
    /// Read-port width per bank in bits.
    pub rram_port_bits: u32,
    /// RRAM access-transistor implementation.
    pub selector: SelectorTech,
}

impl StableHash for SocConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.cs_count.stable_hash(h);
        self.cs.stable_hash(h);
        self.rram_mb.stable_hash(h);
        self.rram_banks.stable_hash(h);
        self.rram_port_bits.stable_hash(h);
        self.selector.stable_hash(h);
    }
}

impl SocConfig {
    /// The paper's 2D baseline: one CS, 64 MB single-bank RRAM with Si
    /// selectors.
    pub fn baseline_2d() -> Self {
        Self {
            cs_count: 1,
            cs: CsConfig::default(),
            rram_mb: 64,
            rram_banks: 1,
            rram_port_bits: 256,
            selector: SelectorTech::SiFet,
        }
    }

    /// The paper's iso-footprint, iso-capacity M3D design point:
    /// `cs_count` CSs with the RRAM partitioned into as many banks and
    /// CNFET selectors freeing the Si tier.
    pub fn m3d(cs_count: u32) -> Self {
        Self {
            cs_count,
            rram_banks: cs_count,
            selector: SelectorTech::IDEAL_CNFET,
            ..Self::baseline_2d()
        }
    }

    /// The RRAM macro this configuration instantiates.
    ///
    /// # Errors
    ///
    /// Propagates [`TechError`] for invalid capacities/banking.
    pub fn rram_macro(&self) -> Result<RramMacro, TechError> {
        RramMacro::with_capacity_mb(
            self.rram_mb,
            self.rram_banks,
            self.rram_port_bits,
            self.selector,
        )
    }
}

/// Port and sub-block map of a generated SoC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocPorts {
    /// Per-CS port maps.
    pub cs: Vec<CsPorts>,
    /// The shared activation bus nets.
    pub act_bus: Vec<NetId>,
}

/// Generates the accelerator SoC into `nl`.
///
/// All standard cells are generated on the Si CMOS tier; the M3D flow
/// later re-binds RRAM selector logic to the CNFET tier via the macro
/// model (selectors live inside the RRAM macro, not as discrete cells).
///
/// The CSs are identical, so one is generated, into a standalone block,
/// and every CS is a stamped copy of it (`Netlist::append`) renamed
/// `cs{i}/…`: the same netlist, in the same order, as generating each
/// in place, for a fraction of the work.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidParameter`] for a zero CS count and
/// propagates wiring errors.
pub fn accelerator_soc(nl: &mut Netlist, cfg: &SocConfig) -> NetlistResult<SocPorts> {
    let mut block = None;
    soc_with(nl, cfg, |nl, i, tier, zero| {
        let (cs, ports) = match &block {
            Some(b) => b,
            None => block.insert(cs_block(cfg.cs, tier)?),
        };
        let map = nl.append(cs, &format!("cs{i}"), zero)?;
        Ok(remap_ports(ports, map))
    })
}

/// One CS generated into a standalone netlist whose first net stands in
/// for the SoC's `const0`; its names are the CS's own, each starting
/// with `/`, for [`Netlist::append`] to prefix.
fn cs_block(cfg: CsConfig, tier: Tier) -> NetlistResult<(Netlist, CsPorts)> {
    let mut block = Netlist::new("cs");
    let zero = block.add_net("const0");
    let ports = systolic_cs(&mut block, "", tier, cfg, zero)?;
    Ok((block, ports))
}

/// `ports` of a block, translated to where `map` says it was appended.
fn remap_ports(ports: &CsPorts, map: NetMap) -> CsPorts {
    let bus = |nets: &[NetId]| nets.iter().map(|&n| map.net(n)).collect();
    CsPorts {
        weight_cols: ports.weight_cols.iter().map(|col| bus(col)).collect(),
        ext_act_in: bus(&ports.ext_act_in),
        result_out: bus(&ports.result_out),
    }
}

/// The SoC around its CSs: `add_cs(nl, i, tier, const0)` enters CS `i`
/// into `nl` and returns its ports.
fn soc_with(
    nl: &mut Netlist,
    cfg: &SocConfig,
    mut add_cs: impl FnMut(&mut Netlist, u32, Tier, NetId) -> NetlistResult<CsPorts>,
) -> NetlistResult<SocPorts> {
    if cfg.cs_count == 0 {
        return Err(NetlistError::InvalidParameter {
            parameter: "cs_count",
            value: 0.0,
            expected: "> 0",
        });
    }
    let tier = Tier::SiCmos;
    let zero = nl.add_net("const0");
    nl.set_primary_input(zero)?;

    // --- RRAM weight memory -------------------------------------------
    let rram = cfg
        .rram_macro()
        .map_err(|e| NetlistError::InvalidParameter {
            parameter: "rram configuration",
            value: cfg.rram_mb as f64,
            expected: match e {
                TechError::InvalidParameter { expected, .. } => expected,
                _ => "a valid RRAM configuration",
            },
        })?;
    let mut bank_ports: Vec<Vec<NetId>> = Vec::with_capacity(cfg.rram_banks as usize);
    let mut rram_drives = Vec::new();
    let mut rram_recv = Vec::new();
    for b in 0..cfg.rram_banks {
        let port: Vec<NetId> = (0..cfg.rram_port_bits)
            .map(|i| nl.add_net(format_args!("rram/bank{b}_rd{i}")))
            .collect();
        rram_drives.extend(port.iter().copied());
        let addr = counter(nl, &format!("rram_if/addr{b}"), tier, 24)?;
        rram_recv.extend(addr);
        bank_ports.push(port);
    }
    nl.add_macro("rram/mem", MacroKind::Rram(rram), &rram_drives, &rram_recv)?;

    // Weight-half select bit (choosing which 128-bit half of a 256-bit
    // bank read feeds the 128-bit weight-load bus this cycle).
    let wsel = counter(nl, "rram_if/wsel", tier, 2)?;

    // --- Shared activation bus ----------------------------------------
    // Driven once by the IO block; received by every CS through bus
    // repeaters. Its bandwidth is NOT banked — the architectural
    // bottleneck for low-intensity layers.
    let io_in: Vec<NetId> = (0..EXT_BUS_BITS)
        .map(|i| nl.add_net(format_args!("io/act_in{i}")))
        .collect();
    for &n in &io_in {
        nl.set_primary_input(n)?;
    }
    let act_bus = register(nl, "io/bus_reg", tier, &io_in)?;

    // --- Computing sub-systems ----------------------------------------
    let mut cs_ports = Vec::with_capacity(cfg.cs_count as usize);
    for i in 0..cfg.cs_count {
        let ports = add_cs(nl, i, tier, zero)?;

        // Bank interface: capture the bank's read port, then mux the two
        // halves down onto this CS's weight-load buses.
        let bank = &bank_ports[(i % cfg.rram_banks) as usize];
        let ifreg = register(nl, &format!("cs{i}_if/wreg"), tier, bank)?;
        let wl_bits = cfg.cs.cols * cfg.cs.pe.data_bits;
        let mut flat_targets: Vec<NetId> = Vec::with_capacity(wl_bits);
        for col in &ports.weight_cols {
            flat_targets.extend(col.iter().copied());
        }
        for (j, &target) in flat_targets.iter().enumerate() {
            let lo = ifreg[j % ifreg.len()];
            let hi = ifreg[(j + wl_bits) % ifreg.len()];
            nl.add_cell(
                format_args!("cs{i}_if/wmux{j}"),
                CellKind::Mux2,
                DriveStrength::X2,
                tier,
                &[lo, hi, wsel[0]],
                &[target],
            )?;
        }
        // Interface-register bits beyond the weight bus terminate at the
        // boundary (narrow CS configurations).
        for &q in &ifreg {
            if nl.net(q)?.sinks.is_empty() {
                nl.set_primary_output(q)?;
            }
        }

        // Bus repeaters driving this CS's external activation port.
        for (j, &target) in ports.ext_act_in.iter().enumerate() {
            nl.add_cell(
                format_args!("cs{i}_if/busbuf{j}"),
                CellKind::Buf,
                DriveStrength::X4,
                tier,
                &[act_bus[j % act_bus.len()]],
                &[target],
            )?;
        }
        cs_ports.push(ports);
    }

    // Banks not paired with any CS terminate at the boundary.
    for port in &bank_ports {
        for &n in port {
            if nl.net(n)?.sinks.is_empty() {
                nl.set_primary_output(n)?;
            }
        }
    }
    // Terminate spare control bits.
    for n in wsel {
        if nl.net(n)?.sinks.is_empty() {
            nl.set_primary_output(n)?;
        }
    }

    Ok(SocPorts {
        cs: cs_ports,
        act_bus,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::pe::PeConfig;

    fn small_cs() -> CsConfig {
        CsConfig {
            rows: 4,
            cols: 4,
            pe: PeConfig::default(),
            global_buffer_kb: 64,
            local_buffer_kb: 8,
        }
    }

    #[test]
    fn baseline_soc_lints_clean() {
        let mut nl = Netlist::new("soc2d");
        let cfg = SocConfig {
            cs: small_cs(),
            ..SocConfig::baseline_2d()
        };
        let ports = accelerator_soc(&mut nl, &cfg).unwrap();
        assert_eq!(ports.cs.len(), 1);
        assert!(
            nl.lint().is_empty(),
            "{:?}",
            &nl.lint()[..nl.lint().len().min(5)]
        );
        // 1 RRAM + 3 SRAMs.
        assert_eq!(nl.macros().len(), 4);
    }

    #[test]
    fn m3d_soc_instantiates_eight_of_everything() {
        let mut nl = Netlist::new("soc3d");
        let cfg = SocConfig {
            cs: small_cs(),
            ..SocConfig::m3d(8)
        };
        let ports = accelerator_soc(&mut nl, &cfg).unwrap();
        assert_eq!(ports.cs.len(), 8);
        assert!(
            nl.lint().is_empty(),
            "{:?}",
            &nl.lint()[..nl.lint().len().min(5)]
        );
        // 1 RRAM + 8 × 3 SRAMs.
        assert_eq!(nl.macros().len(), 25);
        let m = cfg.rram_macro().unwrap();
        assert_eq!(m.total_bandwidth_bits_per_cycle(), 8 * 256);
    }

    #[test]
    fn m3d_has_roughly_n_times_the_cells() {
        let mut nl2d = Netlist::new("a");
        let mut nl3d = Netlist::new("b");
        let c2 = SocConfig {
            cs: small_cs(),
            ..SocConfig::baseline_2d()
        };
        let c3 = SocConfig {
            cs: small_cs(),
            ..SocConfig::m3d(4)
        };
        accelerator_soc(&mut nl2d, &c2).unwrap();
        accelerator_soc(&mut nl3d, &c3).unwrap();
        let ratio = nl3d.cell_count() as f64 / nl2d.cell_count() as f64;
        assert!(ratio > 3.0 && ratio < 4.5, "ratio = {ratio}");
    }

    /// The SoC with every CS generated in place, as before stamping.
    fn in_place_soc(nl: &mut Netlist, cfg: &SocConfig) -> NetlistResult<SocPorts> {
        soc_with(nl, cfg, |nl, i, tier, zero| {
            systolic_cs(nl, &format!("cs{i}"), tier, cfg.cs, zero)
        })
    }

    /// Asserts `a` and `b` hold the same design, field by field, with
    /// names compared as rendered text; names the first difference.
    fn assert_same_design(a: &Netlist, b: &Netlist, what: &str) {
        assert_eq!(a.name, b.name, "{what}: design name");
        assert_eq!(a.cell_count(), b.cell_count(), "{what}: cells");
        assert_eq!(a.net_count(), b.net_count(), "{what}: nets");
        assert_eq!(a.macros().len(), b.macros().len(), "{what}: macros");
        for (i, (x, y)) in a.cells().iter().zip(b.cells()).enumerate() {
            assert_eq!(a.name_of(x.name), b.name_of(y.name), "{what}: cell {i}");
            assert_eq!(
                (x.kind, x.drive, x.tier, &*x.inputs, &*x.outputs),
                (y.kind, y.drive, y.tier, &*y.inputs, &*y.outputs),
                "{what}: cell {i} `{}`",
                a.name_of(x.name)
            );
        }
        for (i, (x, y)) in a.nets().iter().zip(b.nets()).enumerate() {
            assert_eq!(a.name_of(x.name), b.name_of(y.name), "{what}: net {i}");
            assert_eq!(x.driver, y.driver, "{what}: net {i} driver");
            assert_eq!(&*x.sinks, &*y.sinks, "{what}: net {i} sinks, in order");
        }
        for (i, (x, y)) in a.macros().iter().zip(b.macros()).enumerate() {
            assert_eq!(a.name_of(x.name), b.name_of(y.name), "{what}: macro {i}");
            assert_eq!(x.kind, y.kind, "{what}: macro {i} kind");
            assert_eq!(x.drives, y.drives, "{what}: macro {i} drives");
            assert_eq!(x.receives, y.receives, "{what}: macro {i} receives");
        }
        assert_eq!(a.primary_inputs, b.primary_inputs, "{what}: PI order");
        assert_eq!(a.primary_outputs, b.primary_outputs, "{what}: PO order");
        assert_eq!(a.clock, b.clock, "{what}: clock");
        assert!(a == b, "{what}: Netlist equality");
        assert_eq!(a.stable_key(), b.stable_key(), "{what}: stable key");
    }

    #[test]
    fn stamped_css_match_in_place_generation() {
        for array in [4, 8] {
            for cs_count in [1, 2, 4, 8] {
                let cfg = SocConfig {
                    cs: CsConfig {
                        rows: array,
                        cols: array,
                        ..small_cs()
                    },
                    ..SocConfig::m3d(cs_count)
                };
                let what = format!("{array}x{array} M3D({cs_count})");
                let mut stamped = Netlist::new("soc");
                let mut in_place = Netlist::new("soc");
                let ports = accelerator_soc(&mut stamped, &cfg).unwrap();
                let want = in_place_soc(&mut in_place, &cfg).unwrap();
                assert_eq!(ports, want, "{what}: ports");
                assert_same_design(&stamped, &in_place, &what);
                assert!(stamped.lint().is_empty(), "{what}: lint");
            }
        }
    }

    #[test]
    fn zero_cs_rejected() {
        let mut nl = Netlist::new("t");
        let cfg = SocConfig {
            cs_count: 0,
            ..SocConfig::baseline_2d()
        };
        assert!(accelerator_soc(&mut nl, &cfg).is_err());
    }

    #[test]
    fn invalid_rram_banking_rejected() {
        let mut nl = Netlist::new("t");
        let cfg = SocConfig {
            rram_banks: 7, // 64 MB does not split evenly into 7 banks
            ..SocConfig::baseline_2d()
        };
        assert!(accelerator_soc(&mut nl, &cfg).is_err());
    }

    #[test]
    fn config_builders() {
        let c = SocConfig::m3d(8);
        assert_eq!(c.rram_banks, 8);
        assert!(c.selector.frees_si_tier());
        assert!(!SocConfig::baseline_2d().selector.frees_si_tier());
    }
}
