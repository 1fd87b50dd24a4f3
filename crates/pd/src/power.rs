//! Power analysis: activity-based dynamic power, clock-network power,
//! leakage, macro access power and the on-die power-density map.
//!
//! Stands in for the paper's Cadence Tempus sign-off ("power analysis is
//! performed using Cadence Tempus with default activation factors").
//! The density map supports Observation 2: the power dissipated in the
//! M3D upper layers (CNFET selectors + RRAM cells) is < 1 % of total chip
//! power, so peak power density grows ≈ 1 % vs the 2D baseline.

use serde::{Deserialize, Serialize};

use m3d_netlist::{MacroKind, Netlist};
use m3d_tech::units::{Femtofarads, Megahertz, Milliwatts};
use m3d_tech::{Pdk, StableHash, StableHasher, TechResult};

use crate::floorplan::Floorplan;
use crate::place::Placement;
use crate::route::RoutingEstimate;

/// Default signal activity factor (fraction of cycles a net toggles).
pub const DEFAULT_ACTIVITY: f64 = 0.15;

/// Fraction of an RRAM access's dynamic energy dissipated in the cell
/// array itself (selector + cell); the remainder is peripheral (sense
/// amplifiers, drivers, controllers) and stays in the Si tier.
pub const RRAM_CELL_ENERGY_FRACTION: f64 = 0.08;

/// Fraction of cycles each memory port is active.
const MACRO_ACTIVITY: f64 = 0.25;

/// Estimated clock-network wire capacitance per sequential cell.
const CLOCK_WIRE_CAP_PER_FF: f64 = 3.0;

/// Tiled per-block power map of a signed-off design, split by vertical
/// position: Si-tier power (standard cells, SRAM buffers, RRAM
/// peripherals) and upper-layer power (RRAM cells + CNFET selectors when
/// the M3D stack frees the Si tier). Row-major, `iy * nx + ix`,
/// origin at the die's lower-left corner.
///
/// This is the heat-source input a thermal solver lays onto its grid:
/// each tile's `si_mw` heats the active device slabs, `upper_mw` the
/// BEOL memory slabs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerDensityGrid {
    /// Tile columns.
    pub nx: usize,
    /// Tile rows.
    pub ny: usize,
    /// Tile edge length in µm.
    pub tile_um: f64,
    /// Die origin (lower-left) x in µm.
    pub x0_um: f64,
    /// Die origin (lower-left) y in µm.
    pub y0_um: f64,
    /// Si-tier power per tile, in mW (`ny * nx` entries, row-major).
    pub si_mw: Vec<f64>,
    /// Upper-layer (BEOL RRAM + selector) power per tile, in mW.
    pub upper_mw: Vec<f64>,
}

impl PowerDensityGrid {
    /// Tile footprint in mm².
    pub fn tile_area_mm2(&self) -> f64 {
        self.tile_um * self.tile_um / 1.0e6
    }

    /// Total deposited power across all tiles and tiers, in mW.
    pub fn total_power_mw(&self) -> f64 {
        self.si_mw.iter().sum::<f64>() + self.upper_mw.iter().sum::<f64>()
    }

    /// Peak combined tile density in mW/mm².
    pub fn peak_density_mw_per_mm2(&self) -> f64 {
        let peak = self
            .si_mw
            .iter()
            .zip(&self.upper_mw)
            .map(|(s, u)| s + u)
            .fold(0.0, f64::max);
        peak / self.tile_area_mm2()
    }

    /// Scales every deposit by `factor` (power-sweep what-ifs without
    /// re-running sign-off).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            si_mw: self.si_mw.iter().map(|p| p * factor).collect(),
            upper_mw: self.upper_mw.iter().map(|p| p * factor).collect(),
            ..self.clone()
        }
    }
}

impl StableHash for PowerDensityGrid {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.nx.stable_hash(h);
        self.ny.stable_hash(h);
        self.tile_um.stable_hash(h);
        self.x0_um.stable_hash(h);
        self.y0_um.stable_hash(h);
        self.si_mw.stable_hash(h);
        self.upper_mw.stable_hash(h);
    }
}

/// Power analysis result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Combinational + sequential switching power.
    pub cell_dynamic: Milliwatts,
    /// Clock network power.
    pub clock: Milliwatts,
    /// Standard-cell leakage.
    pub cell_leakage: Milliwatts,
    /// Memory macro power (access + leakage), all tiers.
    pub macro_power: Milliwatts,
    /// Power dissipated in the upper M3D layers (CNFET selectors + RRAM
    /// cells); zero in the 2D baseline.
    pub upper_tier: Milliwatts,
    /// Total chip power.
    pub total: Milliwatts,
    /// Peak power density over 1 mm² tiles, in mW/mm².
    pub peak_density_mw_per_mm2: f64,
    /// Average power density over the die, in mW/mm².
    pub avg_density_mw_per_mm2: f64,
    /// Power of the hottest computing sub-system (cells + buffers with a
    /// `cs<i>/` name prefix), in mW — the basis of the paper's
    /// Observation 2 peak-density comparison: CSs are replicated, not
    /// stacked, so the hottest block's density barely changes.
    pub hottest_cs_power_mw: f64,
    /// Power of the RRAM cell-array layers per mm² of array, in mW/mm²
    /// (the density the M3D upper tiers add on top of whatever sits
    /// underneath).
    pub upper_layer_density_mw_per_mm2: f64,
    /// Activity factor used.
    pub activity: f64,
    /// Clock frequency used.
    pub clock_freq: Megahertz,
    /// The tiled per-block power map (Si vs upper layers) behind the
    /// density scalars above — the thermal solver's heat-source input.
    pub density_grid: PowerDensityGrid,
}

impl PowerReport {
    /// Upper-tier share of total power (Observation 2's "< 1 %").
    pub fn upper_tier_fraction(&self) -> f64 {
        if self.total.value() <= 0.0 {
            0.0
        } else {
            self.upper_tier.value() / self.total.value()
        }
    }
}

/// The CS a cell or macro belongs to: its leading `cs<digit>…` hierarchy
/// segment without any `_if` suffix (`cs3/pe_r0_c1/…` and `cs3_if/…`
/// both give `cs3`); `None` outside the CSs.
fn cs_key(name: &str) -> Option<&str> {
    let first = name.split('/').next()?;
    (first.starts_with("cs")
        && first[2..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit()))
    .then(|| first.trim_end_matches("_if"))
}

/// Runs power analysis on a placed-and-routed design at `clock`.
///
/// # Errors
///
/// Returns technology errors when a cell is missing from the PDK
/// libraries.
///
/// # Panics
///
/// Panics when `routing` does not match `netlist`.
pub fn analyze_power(
    netlist: &Netlist,
    routing: &RoutingEstimate,
    placement: &Placement,
    floorplan: &Floorplan,
    pdk: &Pdk,
    clock: Megahertz,
    activity: f64,
) -> TechResult<PowerReport> {
    assert_eq!(routing.nets.len(), netlist.net_count());
    let f_mhz = clock.value();
    // pJ × MHz = µW; µW × 1e-3 = mW.
    let pj_mhz_to_mw = 1.0e-3;

    // --- Density grid ------------------------------------------------------
    let tile = 1000.0_f64; // 1 mm tiles
    let nx = (floorplan.die.width().value() / tile).ceil().max(1.0) as usize;
    let ny = (floorplan.die.height().value() / tile).ceil().max(1.0) as usize;
    // Si-tier and upper-layer (BEOL RRAM) deposits tracked separately;
    // the density scalars below use their per-tile sum, so they are
    // unchanged by the split.
    let mut si_grid = vec![0.0f64; nx * ny];
    let mut upper_grid = vec![0.0f64; nx * ny];
    let x0 = floorplan.die.x0.value();
    let y0 = floorplan.die.y0.value();
    let deposit = |x: f64, y: f64, mw: f64, grid: &mut Vec<f64>| {
        let bx = (((x - x0) / tile).floor().max(0.0) as usize).min(nx - 1);
        let by = (((y - y0) / tile).floor().max(0.0) as usize).min(ny - 1);
        grid[by * nx + bx] += mw;
    };
    let spread = |r: &crate::geom::Rect, mw: f64, grid: &mut Vec<f64>| {
        // Deposit uniformly over the tiles the rect covers.
        let bx0 = (((r.x0.value() - x0) / tile).floor().max(0.0) as usize).min(nx - 1);
        let by0 = (((r.y0.value() - y0) / tile).floor().max(0.0) as usize).min(ny - 1);
        let bx1 = (((r.x1.value() - x0) / tile).ceil().max(1.0) as usize).min(nx);
        let by1 = (((r.y1.value() - y0) / tile).ceil().max(1.0) as usize).min(ny);
        let tiles = ((bx1 - bx0).max(1) * (by1 - by0).max(1)) as f64;
        for by in by0..by1.max(by0 + 1) {
            for bx in bx0..bx1.max(bx0 + 1) {
                grid[by * nx + bx] += mw / tiles;
            }
        }
    };

    // --- Standard cells ----------------------------------------------------
    let mut cell_dynamic = 0.0f64;
    let mut cell_leak = 0.0f64;
    let mut clock_mw = 0.0f64;
    let mut per_cs_power: std::collections::BTreeMap<String, f64> = Default::default();
    // Credits `p` to the CS that owns `name`, if any. A key is allocated
    // only the first time its CS appears, and its total starts at
    // `0.0 + p` (not `p`, so that a `-0.0` credit still starts at `+0.0`).
    let mut credit_cs = |name: &str, p: f64| {
        let Some(key) = cs_key(name) else {
            return;
        };
        match per_cs_power.get_mut(key) {
            Some(total) => *total += p,
            None => {
                per_cs_power.insert(key.to_owned(), 0.0 + p);
            }
        }
    };
    for (ci, cell) in netlist.cells().iter().enumerate() {
        let lib = pdk.library(cell.tier)?;
        let lc = lib.cell(cell.kind, cell.drive)?;
        let mut load = Femtofarads::ZERO;
        for out in &cell.outputs {
            load += routing.nets[out.0 as usize].total_cap();
        }
        let e_sw = lc.switching_energy(load, lib.vdd).value();
        let p_dyn = activity * f_mhz * e_sw * pj_mhz_to_mw;
        cell_dynamic += p_dyn;
        let p_leak = lc.leakage_nw * 1.0e-6;
        cell_leak += p_leak;
        let mut p_cell = p_dyn + p_leak;
        if cell.kind.is_sequential() {
            // c_clk in fF × V² = fJ per cycle; fJ × MHz = nW; nW → mW is 1e-6.
            let c_clk = lc.input_cap.value() + CLOCK_WIRE_CAP_PER_FF;
            let p_clk = c_clk * lib.vdd * lib.vdd * f_mhz * 1.0e-6;
            clock_mw += p_clk;
            p_cell += p_clk;
        }
        let pos = placement.cell_pos[ci];
        deposit(pos.x.value(), pos.y.value(), p_cell, &mut si_grid);
        credit_cs(netlist.name_of(cell.name), p_cell);
    }

    // --- Macros --------------------------------------------------------------
    let mut macro_mw = 0.0f64;
    let mut upper_mw = 0.0f64;
    for (mi, m) in netlist.macros().iter().enumerate() {
        match &m.kind {
            MacroKind::Sram(s) => {
                let port_bits = m.drives.len().max(8) as u64;
                let e_access = s.read_energy(port_bits).value();
                let p = MACRO_ACTIVITY * f_mhz * e_access * pj_mhz_to_mw + s.leakage_mw();
                macro_mw += p;
                // Spread over the macro footprint rather than one point.
                let pos = placement.macro_pos[mi];
                let half = s.footprint().value().max(1.0).sqrt() / 2.0;
                let r = crate::geom::Rect::new(
                    pos.x.value() - half,
                    pos.y.value() - half,
                    pos.x.value() + half,
                    pos.y.value() + half,
                );
                spread(&r, p, &mut si_grid);
                credit_cs(netlist.name_of(m.name), p);
            }
            MacroKind::Rram(r) => {
                let bits_per_cycle = r.total_bandwidth_bits_per_cycle();
                let e_access = r.read_energy(bits_per_cycle).value();
                let p_dyn = MACRO_ACTIVITY * f_mhz * e_access * pj_mhz_to_mw;
                let p = p_dyn + r.leakage_mw();
                macro_mw += p;
                // The cell-array share lands in the BEOL layers when the
                // selectors free the Si tier (M3D); otherwise the array
                // sits on Si and heats the bottom tier like everything
                // else.
                let (p_cellarray, p_perif, array_is_upper) = if r.selector.frees_si_tier() {
                    let up = p_dyn * RRAM_CELL_ENERGY_FRACTION;
                    upper_mw += up;
                    (up, p - up, true)
                } else {
                    (
                        p_dyn * RRAM_CELL_ENERGY_FRACTION,
                        p * (1.0 - RRAM_CELL_ENERGY_FRACTION),
                        false,
                    )
                };
                let array_grid = if array_is_upper {
                    &mut upper_grid
                } else {
                    &mut si_grid
                };
                spread(&floorplan.rram_array().rect, p_cellarray, array_grid);
                spread(&floorplan.rram_periph().rect, p_perif, &mut si_grid);
            }
            // Opaque ingested blocks have no power model: they occupy
            // area (clustering/floorplan) but dissipate nothing here.
            MacroKind::BlackBox { .. } => {}
        }
    }

    let total = cell_dynamic + clock_mw + cell_leak + macro_mw;
    let density_grid = PowerDensityGrid {
        nx,
        ny,
        tile_um: tile,
        x0_um: x0,
        y0_um: y0,
        si_mw: si_grid,
        upper_mw: upper_grid,
    };
    let peak = density_grid
        .si_mw
        .iter()
        .zip(&density_grid.upper_mw)
        .map(|(s, u)| s + u)
        .fold(0.0, f64::max);
    let die_mm2 = floorplan.die.area().as_mm2();
    let hottest_cs = per_cs_power.values().copied().fold(0.0, f64::max);
    let array_mm2 = floorplan.rram_array().rect.area().as_mm2();
    let upper_density = if array_mm2 > 0.0 {
        upper_mw / array_mm2
    } else {
        0.0
    };
    Ok(PowerReport {
        cell_dynamic: Milliwatts::new(cell_dynamic),
        clock: Milliwatts::new(clock_mw),
        cell_leakage: Milliwatts::new(cell_leak),
        macro_power: Milliwatts::new(macro_mw),
        upper_tier: Milliwatts::new(upper_mw),
        total: Milliwatts::new(total),
        peak_density_mw_per_mm2: peak / (tile * tile / 1.0e6),
        avg_density_mw_per_mm2: if die_mm2 > 0.0 { total / die_mm2 } else { 0.0 },
        hottest_cs_power_mw: hottest_cs,
        upper_layer_density_mw_per_mm2: upper_density,
        activity,
        clock_freq: clock,
        density_grid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use crate::floorplan::Floorplan;
    use crate::place::{place, PlacerConfig};
    use crate::route::{estimate_routing, DEFAULT_DETOUR};
    use m3d_netlist::{accelerator_soc, CsConfig, PeConfig, SocConfig};

    fn analyzed(m3d: bool) -> PowerReport {
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
                Pdk::m3d_130nm(),
            )
        } else {
            (
                SocConfig {
                    cs,
                    ..SocConfig::baseline_2d()
                },
                Pdk::baseline_2d_130nm(),
            )
        };
        let mut nl = Netlist::new("soc");
        accelerator_soc(&mut nl, &cfg).unwrap();
        let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
        let cl = Clustering::build(&nl, &pdk).unwrap();
        let p = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        let r = estimate_routing(&nl, &p, &pdk, DEFAULT_DETOUR).unwrap();
        analyze_power(&nl, &r, &p, &fp, &pdk, pdk.default_clock, DEFAULT_ACTIVITY).unwrap()
    }

    #[test]
    fn power_components_positive_and_consistent() {
        let p = analyzed(false);
        assert!(p.cell_dynamic.value() > 0.0);
        assert!(p.clock.value() > 0.0);
        assert!(p.cell_leakage.value() > 0.0);
        assert!(p.macro_power.value() > 0.0);
        let sum = p.cell_dynamic + p.clock + p.cell_leakage + p.macro_power;
        assert!((sum.value() - p.total.value()).abs() < 1e-9);
    }

    #[test]
    fn baseline_has_no_upper_tier_power() {
        let p = analyzed(false);
        assert_eq!(p.upper_tier.value(), 0.0);
        assert_eq!(p.upper_tier_fraction(), 0.0);
    }

    #[test]
    fn m3d_upper_tier_power_is_small() {
        let p = analyzed(true);
        assert!(p.upper_tier.value() > 0.0);
        assert!(
            p.upper_tier_fraction() < 0.05,
            "upper tier fraction {} too large",
            p.upper_tier_fraction()
        );
    }

    #[test]
    fn density_sane() {
        let p = analyzed(false);
        assert!(p.peak_density_mw_per_mm2 >= p.avg_density_mw_per_mm2);
        assert!(p.peak_density_mw_per_mm2 < 1000.0);
    }

    #[test]
    fn density_grid_accounts_for_all_power() {
        let p = analyzed(true);
        let g = &p.density_grid;
        assert_eq!(g.si_mw.len(), g.nx * g.ny);
        assert_eq!(g.upper_mw.len(), g.nx * g.ny);
        // Every milliwatt of the sign-off lands in some tile.
        assert!(
            (g.total_power_mw() - p.total.value()).abs() < 1e-6,
            "grid {} vs total {}",
            g.total_power_mw(),
            p.total.value()
        );
        // The scalar peak is derived from the same grid.
        assert!((g.peak_density_mw_per_mm2() - p.peak_density_mw_per_mm2).abs() < 1e-9);
        // M3D: the upper layers carry exactly the upper-tier power.
        assert!((g.upper_mw.iter().sum::<f64>() - p.upper_tier.value()).abs() < 1e-9);
    }

    #[test]
    fn baseline_grid_has_empty_upper_layers() {
        let p = analyzed(false);
        assert_eq!(p.density_grid.upper_mw.iter().sum::<f64>(), 0.0);
        assert!(p.density_grid.si_mw.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn grid_scaling_and_stable_key() {
        let p = analyzed(false);
        let g = &p.density_grid;
        let double = g.scaled(2.0);
        assert!((double.total_power_mw() - 2.0 * g.total_power_mw()).abs() < 1e-9);
        assert_eq!(g.stable_key(), p.density_grid.clone().stable_key());
        assert_ne!(g.stable_key(), double.stable_key());
    }

    #[test]
    fn power_scales_with_frequency() {
        // Doubling the clock should roughly double dynamic power.
        let cs = CsConfig {
            rows: 4,
            cols: 4,
            pe: PeConfig::default(),
            global_buffer_kb: 64,
            local_buffer_kb: 8,
        };
        let cfg = SocConfig {
            cs,
            ..SocConfig::baseline_2d()
        };
        let pdk = Pdk::baseline_2d_130nm();
        let mut nl = Netlist::new("soc");
        accelerator_soc(&mut nl, &cfg).unwrap();
        let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
        let cl = Clustering::build(&nl, &pdk).unwrap();
        let pl = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        let r = estimate_routing(&nl, &pl, &pdk, DEFAULT_DETOUR).unwrap();
        let p1 = analyze_power(&nl, &r, &pl, &fp, &pdk, Megahertz::new(20.0), 0.15).unwrap();
        let p2 = analyze_power(&nl, &r, &pl, &fp, &pdk, Megahertz::new(40.0), 0.15).unwrap();
        let ratio = p2.cell_dynamic.value() / p1.cell_dynamic.value();
        assert!((ratio - 2.0).abs() < 1e-9);
        assert!(
            p2.cell_leakage == p1.cell_leakage,
            "leakage is frequency independent"
        );
    }
}
