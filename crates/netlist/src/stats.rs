//! Netlist statistics: cell counts, area roll-ups and fanout metrics —
//! the numbers a synthesis report would print.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use m3d_tech::stdcell::CellKind;
use m3d_tech::units::SquareMicrons;
use m3d_tech::{Pdk, TechResult, Tier};

use crate::netlist::{MacroKind, Netlist};

/// Aggregated statistics of a netlist against a PDK.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Total standard-cell instances.
    pub cell_count: usize,
    /// Sequential (flip-flop) instances.
    pub sequential_count: usize,
    /// Instances per cell kind.
    pub by_kind: BTreeMap<String, usize>,
    /// Instances per device tier.
    pub by_tier: BTreeMap<String, usize>,
    /// Summed standard-cell area per tier.
    pub cell_area_by_tier: BTreeMap<String, SquareMicrons>,
    /// Summed macro footprint (RRAM + SRAM).
    pub macro_area: SquareMicrons,
    /// Number of nets.
    pub net_count: usize,
    /// Mean net fanout.
    pub avg_fanout: f64,
    /// Largest net fanout.
    pub max_fanout: usize,
}

impl NetlistStats {
    /// Computes statistics for `netlist` under `pdk`.
    ///
    /// # Errors
    ///
    /// Returns an error when the netlist uses a tier or cell the PDK does
    /// not provide (e.g. CNFET cells under the 2D placement blockage).
    pub fn compute(netlist: &Netlist, pdk: &Pdk) -> TechResult<Self> {
        // Count into arrays indexed like `CellKind::ALL` / `Tier::ALL`
        // (declaration order) and name the map keys once at the end, so
        // no cell allocates. Each tier's area sums its cells in netlist
        // order: the float sums behind `total_cell_area` depend on it.
        let mut by_kind = [0usize; CellKind::ALL.len()];
        let mut by_tier = [0usize; Tier::ALL.len()];
        let mut area_by_tier = [SquareMicrons::ZERO; Tier::ALL.len()];
        let mut sequential = 0usize;
        for c in netlist.cells() {
            by_kind[c.kind as usize] += 1;
            by_tier[c.tier as usize] += 1;
            if c.kind.is_sequential() {
                sequential += 1;
            }
            let lib = pdk.library(c.tier)?;
            area_by_tier[c.tier as usize] += lib.cell(c.kind, c.drive)?.area;
        }
        let mut macro_area = SquareMicrons::ZERO;
        for m in netlist.macros() {
            macro_area += match &m.kind {
                MacroKind::Rram(r) => r.footprint(pdk.ilv())?,
                MacroKind::Sram(s) => s.footprint(),
                MacroKind::BlackBox { area, .. } => *area,
            };
        }
        let mut total_fanout = 0usize;
        let mut max_fanout = 0usize;
        for n in netlist.nets() {
            total_fanout += n.fanout();
            max_fanout = max_fanout.max(n.fanout());
        }
        let avg_fanout = if netlist.net_count() == 0 {
            0.0
        } else {
            total_fanout as f64 / netlist.net_count() as f64
        };
        // Only kinds and tiers that occur get a map entry.
        let tiers = || {
            Tier::ALL
                .into_iter()
                .zip(by_tier)
                .zip(area_by_tier)
                .filter(|((_, n), _)| *n > 0)
        };
        Ok(Self {
            cell_count: netlist.cell_count(),
            sequential_count: sequential,
            by_kind: CellKind::ALL
                .into_iter()
                .zip(by_kind)
                .filter(|(_, n)| *n > 0)
                .map(|(k, n)| (k.base_name().to_owned(), n))
                .collect(),
            by_tier: tiers()
                .map(|((t, n), _)| (t.name().to_owned(), n))
                .collect(),
            cell_area_by_tier: tiers()
                .map(|((t, _), area)| (t.name().to_owned(), area))
                .collect(),
            macro_area,
            net_count: netlist.net_count(),
            avg_fanout,
            max_fanout,
        })
    }

    /// Total standard-cell area across tiers.
    pub fn total_cell_area(&self) -> SquareMicrons {
        self.cell_area_by_tier.values().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::pe::PeConfig;
    use crate::gen::soc::{accelerator_soc, SocConfig};
    use crate::gen::systolic::CsConfig;

    fn small_soc() -> Netlist {
        let mut nl = Netlist::new("soc");
        let cfg = SocConfig {
            cs: CsConfig {
                rows: 4,
                cols: 4,
                pe: PeConfig::default(),
                global_buffer_kb: 64,
                local_buffer_kb: 8,
            },
            ..SocConfig::baseline_2d()
        };
        accelerator_soc(&mut nl, &cfg).unwrap();
        nl
    }

    #[test]
    fn stats_roll_up() {
        let nl = small_soc();
        let pdk = Pdk::baseline_2d_130nm();
        let s = NetlistStats::compute(&nl, &pdk).unwrap();
        assert_eq!(s.cell_count, nl.cell_count());
        assert!(s.sequential_count > 0);
        assert!(s.by_kind[CellKind::FullAdder.base_name()] > 0);
        assert!(s.total_cell_area().value() > 0.0);
        assert!(s.macro_area.as_mm2() > 50.0, "64 MB RRAM dominates");
        assert!(s.avg_fanout >= 1.0);
        assert!(s.max_fanout >= 1);
    }

    #[test]
    fn all_lists_follow_declaration_order() {
        for (i, kind) in CellKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
        for (i, tier) in Tier::ALL.into_iter().enumerate() {
            assert_eq!(tier as usize, i, "{tier:?}");
        }
    }

    #[test]
    fn all_cells_on_si_tier_by_default() {
        let nl = small_soc();
        let pdk = Pdk::baseline_2d_130nm();
        let s = NetlistStats::compute(&nl, &pdk).unwrap();
        assert_eq!(s.by_tier.len(), 1);
        assert!(s.by_tier.contains_key("Si CMOS"));
    }

    #[test]
    fn cnfet_cells_fail_under_2d_blockage() {
        let mut nl = small_soc();
        nl.bind_tier_by_prefix("cs0/ctl", m3d_tech::Tier::Cnfet);
        let pdk = Pdk::baseline_2d_130nm();
        assert!(NetlistStats::compute(&nl, &pdk).is_err());
        // ... but succeed with the full M3D kit.
        let m3d = Pdk::m3d_130nm();
        let s = NetlistStats::compute(&nl, &m3d).unwrap();
        assert_eq!(s.by_tier.len(), 2);
    }
}
