//! Routing-congestion analysis: per-tile wiring demand versus track
//! supply, honouring the reduced layer stack under RRAM arrays.
//!
//! This is the physical justification for the under-array availability
//! derate: logic placed beneath the memory may only route on the layers
//! below the RRAM plane (M1–M3 in the 130 nm stack), roughly half the
//! track supply of the full stack. The analysis reports per-region
//! utilisation so the derate can be checked rather than assumed.

use serde::{Deserialize, Serialize};

use m3d_netlist::{Driver, Netlist, Sink};
use m3d_tech::Pdk;

use crate::floorplan::{Floorplan, RegionKind};
use crate::place::Placement;
use crate::route::RoutingEstimate;

/// Per-tile congestion map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionMap {
    /// Tiles in x.
    pub nx: usize,
    /// Tiles in y.
    pub ny: usize,
    /// Tile edge in µm.
    pub tile_um: f64,
    /// Routing demand per tile (wire-µm).
    pub demand: Vec<f64>,
    /// Track supply per tile (track-µm).
    pub supply: Vec<f64>,
    /// Tiles whose demand exceeds supply.
    pub overflow_tiles: usize,
    /// Worst tile utilisation (demand/supply).
    pub max_utilization: f64,
    /// Mean utilisation over non-empty tiles.
    pub avg_utilization: f64,
    /// Mean utilisation of tiles under the RRAM array.
    pub under_array_utilization: f64,
    /// Mean utilisation of free-region tiles.
    pub free_region_utilization: f64,
}

/// Analyses routing congestion for a placed-and-routed design.
///
/// # Panics
///
/// Panics when `routing` does not match `netlist`.
pub fn analyze_congestion(
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingEstimate,
    floorplan: &Floorplan,
    pdk: &Pdk,
    tile_um: f64,
) -> CongestionMap {
    assert_eq!(routing.nets.len(), netlist.net_count());
    let die = floorplan.die;
    let x0 = die.x0.value();
    let y0 = die.y0.value();
    let nx = (die.width().value() / tile_um).ceil().max(1.0) as usize;
    let ny = (die.height().value() / tile_um).ceil().max(1.0) as usize;

    // --- Supply: tracks per tile, full stack vs sub-RRAM stack ----------
    let track_per_um = |below_only: bool| -> f64 {
        pdk.stack
            .routing()
            .iter()
            .filter(|l| !below_only || l.below_rram)
            .map(|l| 1.0 / l.pitch.value())
            .sum()
    };
    let full_tracks = track_per_um(false);
    let sub_tracks = track_per_um(true);
    let under_array = floorplan
        .regions
        .iter()
        .find(|r| r.kind == RegionKind::UnderArray)
        .map(|r| r.rect);
    let mut supply = vec![0.0f64; nx * ny];
    for ty in 0..ny {
        for tx in 0..nx {
            let cx = x0 + (tx as f64 + 0.5) * tile_um;
            let cy = y0 + (ty as f64 + 0.5) * tile_um;
            let p = crate::geom::Point::new(cx, cy);
            let tracks = match under_array {
                Some(rect) if rect.contains(p) => sub_tracks,
                _ => full_tracks,
            };
            // Tracks in both directions across the tile.
            supply[ty * nx + tx] = tracks * tile_um * tile_um;
        }
    }

    // --- Demand: each net's length spread over its bounding-box tiles ----
    let mut demand = vec![0.0f64; nx * ny];
    for (ni, net) in netlist.nets().iter().enumerate() {
        let rn = &routing.nets[ni];
        if rn.length.value() <= 0.0 {
            continue;
        }
        let mut min = (f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut incl = |p: crate::geom::Point| {
            min.0 = min.0.min(p.x.value());
            min.1 = min.1.min(p.y.value());
            max.0 = max.0.max(p.x.value());
            max.1 = max.1.max(p.y.value());
        };
        match net.driver {
            Some(Driver::Cell { cell, .. }) => incl(placement.cell_pos[cell.0 as usize]),
            Some(Driver::Macro { id }) => incl(placement.macro_pos[id.0 as usize]),
            _ => {}
        }
        for s in &net.sinks {
            match *s {
                Sink::Cell { cell, .. } => incl(placement.cell_pos[cell.0 as usize]),
                Sink::Macro { id } => incl(placement.macro_pos[id.0 as usize]),
                Sink::PrimaryOutput => {}
            }
        }
        if !min.0.is_finite() {
            continue;
        }
        let tx0 = (((min.0 - x0) / tile_um).floor().max(0.0) as usize).min(nx - 1);
        let ty0 = (((min.1 - y0) / tile_um).floor().max(0.0) as usize).min(ny - 1);
        let tx1 = (((max.0 - x0) / tile_um).floor().max(0.0) as usize).min(nx - 1);
        let ty1 = (((max.1 - y0) / tile_um).floor().max(0.0) as usize).min(ny - 1);
        let tiles = ((tx1 - tx0 + 1) * (ty1 - ty0 + 1)) as f64;
        let per_tile = rn.length.value() / tiles;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                demand[ty * nx + tx] += per_tile;
            }
        }
    }

    // --- Roll-ups ----------------------------------------------------------
    let mut overflow = 0usize;
    let mut max_util = 0.0f64;
    let mut sum_util = 0.0f64;
    let mut used_tiles = 0usize;
    let mut ua_sum = 0.0f64;
    let mut ua_n = 0usize;
    let mut fr_sum = 0.0f64;
    let mut fr_n = 0usize;
    for ty in 0..ny {
        for tx in 0..nx {
            let i = ty * nx + tx;
            if demand[i] <= 0.0 {
                continue;
            }
            let u = demand[i] / supply[i].max(1e-9);
            if u > 1.0 {
                overflow += 1;
            }
            max_util = max_util.max(u);
            sum_util += u;
            used_tiles += 1;
            let cx = x0 + (tx as f64 + 0.5) * tile_um;
            let cy = y0 + (ty as f64 + 0.5) * tile_um;
            let p = crate::geom::Point::new(cx, cy);
            match under_array {
                Some(rect) if rect.contains(p) => {
                    ua_sum += u;
                    ua_n += 1;
                }
                _ => {
                    fr_sum += u;
                    fr_n += 1;
                }
            }
        }
    }
    CongestionMap {
        nx,
        ny,
        tile_um,
        demand,
        supply,
        overflow_tiles: overflow,
        max_utilization: max_util,
        avg_utilization: if used_tiles > 0 {
            sum_util / used_tiles as f64
        } else {
            0.0
        },
        under_array_utilization: if ua_n > 0 { ua_sum / ua_n as f64 } else { 0.0 },
        free_region_utilization: if fr_n > 0 { fr_sum / fr_n as f64 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowConfig, Rtl2GdsFlow};
    use m3d_netlist::{CsConfig, PeConfig};

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
    fn congestion_map_covers_the_die() {
        let (_, a) = Rtl2GdsFlow::new(FlowConfig::baseline_2d().with_cs(small_cs()).quick())
            .run()
            .unwrap();
        let c = analyze_congestion(
            &a.signoff.netlist,
            &a.signoff.placement,
            &a.signoff.routing,
            &a.signoff.floorplan,
            &Rtl2GdsFlow::new(FlowConfig::baseline_2d()).config().pdk,
            1000.0,
        );
        assert_eq!(c.demand.len(), c.nx * c.ny);
        assert!(c.avg_utilization > 0.0);
        assert!(c.max_utilization >= c.avg_utilization);
        // 2D has no under-array tiles with demand (array blocks placement).
        assert_eq!(c.under_array_utilization, 0.0);
    }

    #[test]
    fn under_array_supply_is_reduced() {
        let (r2d, _) = Rtl2GdsFlow::new(FlowConfig::baseline_2d().with_cs(small_cs()).quick())
            .run()
            .unwrap();
        let (_, a) = Rtl2GdsFlow::new(
            FlowConfig::m3d(4)
                .with_cs(small_cs())
                .quick()
                .with_die(r2d.die),
        )
        .run()
        .unwrap();
        let pdk = m3d_tech::Pdk::m3d_130nm();
        let c = analyze_congestion(
            &a.signoff.netlist,
            &a.signoff.placement,
            &a.signoff.routing,
            &a.signoff.floorplan,
            &pdk,
            1000.0,
        );
        // Supply under the array must be lower than outside it: index the
        // tile containing the under-array region's centre vs tile (0, 0)
        // in the free bottom strip.
        let ua = a.signoff.floorplan.under_array_region().unwrap().rect;
        let die = a.signoff.floorplan.die;
        let centre = ua.center();
        let tx = (((centre.x.value() - die.x0.value()) / c.tile_um) as usize).min(c.nx - 1);
        let ty = (((centre.y.value() - die.y0.value()) / c.tile_um) as usize).min(c.ny - 1);
        let inside = c.supply[ty * c.nx + tx];
        let outside = c.supply[0];
        assert!(inside < outside, "sub-RRAM stack must supply fewer tracks");
        // Demand exists under the array (CSs placed there).
        assert!(c.under_array_utilization > 0.0);
    }

    #[test]
    fn conservation_of_demand() {
        let (_, a) = Rtl2GdsFlow::new(FlowConfig::baseline_2d().with_cs(small_cs()).quick())
            .run()
            .unwrap();
        let pdk = m3d_tech::Pdk::baseline_2d_130nm();
        let c = analyze_congestion(
            &a.signoff.netlist,
            &a.signoff.placement,
            &a.signoff.routing,
            &a.signoff.floorplan,
            &pdk,
            1000.0,
        );
        let spread: f64 = c.demand.iter().sum();
        let routed: f64 = a
            .signoff
            .routing
            .nets
            .iter()
            .map(|n| n.length.value())
            .sum();
        assert!(
            (spread - routed).abs() / routed.max(1.0) < 1e-6,
            "demand spread {spread} vs routed {routed}"
        );
    }
}
