//! Routing estimation: net lengths from the placement, Steiner scaling,
//! layer-averaged RC parasitics and inter-layer-via (ILV) counting.
//!
//! This stands in for detailed routing: each net's length is its pin
//! bounding-box half-perimeter scaled by a Steiner factor for multi-pin
//! nets and a detour factor for congestion, then converted to RC with the
//! PDK's layer-averaged per-micron parasitics.

use serde::{Deserialize, Serialize};

use m3d_netlist::{Driver, MacroKind, Netlist, Sink};
use m3d_tech::units::{Femtofarads, KiloOhms, Microns};
use m3d_tech::{Pdk, TechResult, Tier};

use crate::cluster::GLOBAL_NET_FANOUT;
use crate::geom::{BoundingBox, Point};
use crate::place::Placement;

/// Routed parasitics of one net.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutedNet {
    /// Estimated routed length.
    pub length: Microns,
    /// Wire capacitance.
    pub wire_cap: Femtofarads,
    /// Wire resistance.
    pub wire_res: KiloOhms,
    /// Sum of sink pin capacitances.
    pub pin_cap: Femtofarads,
    /// ILVs used by this net (tier crossings).
    pub ilv_count: u32,
    /// `true` when the net is globally distributed (constants/resets):
    /// excluded from timing as an ideal network.
    pub is_global: bool,
}

impl RoutedNet {
    /// Total load the driver sees.
    pub fn total_cap(&self) -> Femtofarads {
        self.wire_cap + self.pin_cap
    }
}

/// Routing estimate for a whole design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingEstimate {
    /// Per-net parasitics (indexed like `Netlist::nets`).
    pub nets: Vec<RoutedNet>,
    /// Total routed wirelength, including the intra-cluster estimate.
    pub total_wirelength: Microns,
    /// Total signal-net ILV count (excludes the RRAM array's internal
    /// cell ILVs, reported separately).
    pub signal_ilvs: u64,
    /// ILVs inside RRAM arrays (every bitcell taps the upper selector
    /// tier in M3D).
    pub memory_cell_ilvs: u64,
    /// Detour factor used.
    pub detour: f64,
}

/// Detour factor applied on top of Steiner length (routing congestion).
pub const DEFAULT_DETOUR: f64 = 1.15;

fn pin_tier(netlist: &Netlist, pdk: &Pdk, driver_or_sink_is_macro: Option<usize>) -> Tier {
    // Macro pins sit on the CNFET tier when the RRAM uses CNFET selectors
    // (the word/bit lines terminate at the upper selector layer).
    if let Some(mi) = driver_or_sink_is_macro {
        if let MacroKind::Rram(r) = &netlist.macros()[mi].kind {
            if r.selector.frees_si_tier() && pdk.has_cnfet_tier() {
                return Tier::Cnfet;
            }
        }
    }
    Tier::SiCmos
}

/// Per-net routing context: everything [`estimate_routing`] derives
/// once per design.
struct NetRouter<'a> {
    netlist: &'a Netlist,
    placement: &'a Placement,
    pdk: &'a Pdk,
    io_point: Point,
    r_per_um: KiloOhms,
    c_per_um: Femtofarads,
    detour: f64,
}

impl<'a> NetRouter<'a> {
    fn new(netlist: &'a Netlist, placement: &'a Placement, pdk: &'a Pdk, detour: f64) -> Self {
        Self {
            netlist,
            placement,
            pdk,
            io_point: placement
                .cluster_pos
                .first()
                .copied()
                .unwrap_or(Point::default()),
            r_per_um: pdk.stack.avg_resistance_per_um(),
            c_per_um: pdk.stack.avg_capacitance_per_um(),
            detour,
        }
    }

    fn route(&self, ni: usize) -> TechResult<RoutedNet> {
        let net = &self.netlist.nets()[ni];
        let mut bb = BoundingBox::new();
        let mut pins = 0usize;
        let mut pin_cap = Femtofarads::ZERO;
        // Tier crossings need one ILV each: every pin off the first pin's
        // tier counts one, tallied as the pins stream past.
        let mut base_tier: Option<Tier> = None;
        let mut crossings = 0u32;
        let mut on_tier = |t: Tier| match base_tier {
            None => base_tier = Some(t),
            Some(base) => crossings += u32::from(t != base),
        };

        match net.driver {
            Some(Driver::Cell { cell, .. }) => {
                bb.include(self.placement.cell_pos[cell.0 as usize]);
                on_tier(self.netlist.cells()[cell.0 as usize].tier);
                pins += 1;
            }
            Some(Driver::Macro { id }) => {
                bb.include(self.placement.macro_pos[id.0 as usize]);
                on_tier(pin_tier(self.netlist, self.pdk, Some(id.0 as usize)));
                pins += 1;
            }
            Some(Driver::PrimaryInput) => {
                bb.include(self.io_point);
                on_tier(Tier::SiCmos);
                pins += 1;
            }
            None => {}
        }
        for s in &net.sinks {
            match *s {
                Sink::Cell { cell, .. } => {
                    bb.include(self.placement.cell_pos[cell.0 as usize]);
                    let c = &self.netlist.cells()[cell.0 as usize];
                    on_tier(c.tier);
                    let lib = self.pdk.library(c.tier)?;
                    pin_cap += lib.cell(c.kind, c.drive)?.input_cap;
                }
                Sink::Macro { id } => {
                    bb.include(self.placement.macro_pos[id.0 as usize]);
                    on_tier(pin_tier(self.netlist, self.pdk, Some(id.0 as usize)));
                    pin_cap += Femtofarads::new(5.0);
                }
                Sink::PrimaryOutput => {
                    bb.include(self.io_point);
                    on_tier(Tier::SiCmos);
                    pin_cap += Femtofarads::new(10.0);
                }
            }
            pins += 1;
        }

        let is_global = net.fanout() > GLOBAL_NET_FANOUT;
        let steiner = if pins <= 3 {
            1.0
        } else {
            (0.5 * (pins as f64).sqrt()).max(1.0)
        };
        let length = Microns::new(bb.hpwl().value() * steiner * self.detour);

        Ok(RoutedNet {
            length,
            wire_cap: self.c_per_um * length.value(),
            wire_res: self.r_per_um * length.value(),
            pin_cap,
            ilv_count: crossings,
            is_global,
        })
    }
}

fn memory_cell_ilvs(netlist: &Netlist) -> u64 {
    netlist
        .macros()
        .iter()
        .map(|m| match &m.kind {
            MacroKind::Rram(r) if r.selector.frees_si_tier() => {
                r.capacity_bits * u64::from(r.cell.vias_per_cell)
            }
            _ => 0,
        })
        .sum()
}

/// Estimates routing for a placed design.
///
/// # Errors
///
/// Returns technology errors when a cell is missing from the PDK
/// libraries.
pub fn estimate_routing(
    netlist: &Netlist,
    placement: &Placement,
    pdk: &Pdk,
    detour: f64,
) -> TechResult<RoutingEstimate> {
    let router = NetRouter::new(netlist, placement, pdk, detour);
    let mut nets = Vec::with_capacity(netlist.net_count());
    let mut total_len = 0.0f64;
    let mut signal_ilvs = 0u64;
    for ni in 0..netlist.net_count() {
        let rn = router.route(ni)?;
        total_len += rn.length.value();
        signal_ilvs += u64::from(rn.ilv_count);
        nets.push(rn);
    }
    Ok(RoutingEstimate {
        nets,
        total_wirelength: Microns::new(total_len) + placement.intra_wl,
        signal_ilvs,
        memory_cell_ilvs: memory_cell_ilvs(netlist),
        detour,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use crate::floorplan::Floorplan;
    use crate::place::{place, PlacerConfig};
    use m3d_netlist::{accelerator_soc, CsConfig, PeConfig, SocConfig};

    fn routed(m3d: bool) -> (Netlist, RoutingEstimate) {
        let cs = CsConfig {
            rows: 4,
            cols: 4,
            pe: PeConfig::default(),
            global_buffer_kb: 64,
            local_buffer_kb: 8,
        };
        let (cfg, pdk) = if m3d {
            (
                SocConfig {
                    cs,
                    ..SocConfig::m3d(2)
                },
                m3d_tech::Pdk::m3d_130nm(),
            )
        } else {
            (
                SocConfig {
                    cs,
                    ..SocConfig::baseline_2d()
                },
                m3d_tech::Pdk::baseline_2d_130nm(),
            )
        };
        let mut nl = Netlist::new("soc");
        accelerator_soc(&mut nl, &cfg).unwrap();
        let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
        let cl = Clustering::build(&nl, &pdk).unwrap();
        let p = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        let r = estimate_routing(&nl, &p, &pdk, DEFAULT_DETOUR).unwrap();
        (nl, r)
    }

    #[test]
    fn every_net_is_routed() {
        let (nl, r) = routed(false);
        assert_eq!(r.nets.len(), nl.net_count());
        assert!(r.total_wirelength.value() > 0.0);
        for rn in &r.nets {
            assert!(rn.length.value() >= 0.0);
            assert!(rn.wire_cap.value() >= 0.0);
        }
    }

    #[test]
    fn global_nets_are_flagged() {
        let (nl, r) = routed(false);
        let globals = r.nets.iter().filter(|n| n.is_global).count();
        assert!(globals >= 1, "const0 should be global");
        let matching = nl
            .nets()
            .iter()
            .zip(&r.nets)
            .all(|(n, rn)| rn.is_global == (n.fanout() > GLOBAL_NET_FANOUT));
        assert!(matching);
    }

    #[test]
    fn m3d_memory_ilvs_counted() {
        let (_, r2d) = routed(false);
        let (_, r3d) = routed(true);
        assert_eq!(r2d.memory_cell_ilvs, 0);
        // 64 MB × 4 vias/cell.
        assert_eq!(r3d.memory_cell_ilvs, 64 * 1024 * 1024 * 8 * 4);
        // Signal nets to the RRAM macro cross tiers in M3D.
        assert!(r3d.signal_ilvs > 0);
        assert_eq!(r2d.signal_ilvs, 0);
    }

    #[test]
    fn rc_scales_with_length() {
        let (_, r) = routed(false);
        let long = r
            .nets
            .iter()
            .max_by(|a, b| a.length.partial_cmp(&b.length).unwrap())
            .unwrap();
        let short = r
            .nets
            .iter()
            .filter(|n| n.length.value() > 0.0)
            .min_by(|a, b| a.length.partial_cmp(&b.length).unwrap())
            .unwrap();
        assert!(long.wire_cap > short.wire_cap);
        assert!(long.wire_res > short.wire_res);
        assert!(long.total_cap() >= long.wire_cap);
    }
}
