//! Row legalisation: snaps the global placement's cells onto standard
//! cell rows with no overlap (a Tetris-style scan, after Hill's
//! classical legaliser).
//!
//! Rows are generated inside every placeable region at the library row
//! pitch; cells are processed in increasing-x order and pushed onto the
//! nearest row with space, paying displacement. Under-array rows model
//! their routing-availability derate by inflating effective cell widths
//! (placement gaps left for the reduced routing stack).

use serde::{Deserialize, Serialize};

use m3d_netlist::Netlist;
use m3d_tech::units::Microns;
use m3d_tech::{Pdk, TechResult};

use crate::floorplan::Floorplan;
use crate::geom::Point;
use crate::place::Placement;

/// Result of legalisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LegalizeReport {
    /// Snapped per-cell positions (cell centres), indexed like
    /// `Netlist::cells`.
    pub cell_pos: Vec<Point>,
    /// Rows that received at least one cell.
    pub rows_used: usize,
    /// Mean displacement from the global position.
    pub avg_displacement: Microns,
    /// Largest single-cell displacement.
    pub max_displacement: Microns,
    /// Cells that could not be placed near their target and were pushed
    /// to a distant row (displacement > 50 rows).
    pub far_placed: usize,
}

struct Row {
    y: f64,
    x0: f64,
    x1: f64,
    cursor: f64,
    /// Width inflation inside this row (1/availability).
    inflation: f64,
}

/// Legalises `placement` onto rows.
///
/// # Errors
///
/// Returns technology errors for cells missing from the PDK libraries.
///
/// # Panics
///
/// Panics when `placement` does not cover the netlist's cells.
pub fn legalize(
    netlist: &Netlist,
    placement: &Placement,
    floorplan: &Floorplan,
    pdk: &Pdk,
) -> TechResult<LegalizeReport> {
    assert_eq!(placement.cell_pos.len(), netlist.cell_count());
    let row_h = pdk.si_lib.row_height.value();

    // --- Build rows over every placeable region -------------------------
    let mut rows: Vec<Row> = Vec::new();
    for region in &floorplan.regions {
        let y0 = region.rect.y0.value();
        let y1 = region.rect.y1.value();
        let mut y = y0;
        while y + row_h <= y1 {
            rows.push(Row {
                y: y + row_h / 2.0,
                x0: region.rect.x0.value(),
                x1: region.rect.x1.value(),
                cursor: region.rect.x0.value(),
                inflation: 1.0 / region.availability.max(0.05),
            });
            y += row_h;
        }
    }
    rows.sort_by(|a, b| a.y.partial_cmp(&b.y).unwrap_or(std::cmp::Ordering::Equal));
    let row_ys: Vec<f64> = rows.iter().map(|r| r.y).collect();

    // --- Cells in increasing-x order -------------------------------------
    let mut order: Vec<u32> = (0..netlist.cell_count() as u32).collect();
    order.sort_by(|&a, &b| {
        let xa = placement.cell_pos[a as usize].x.value();
        let xb = placement.cell_pos[b as usize].x.value();
        xa.partial_cmp(&xb).unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut cell_pos = vec![Point::default(); netlist.cell_count()];
    let mut used = vec![false; rows.len()];
    let mut total_disp = 0.0f64;
    let mut max_disp = 0.0f64;
    let mut far = 0usize;

    for ci in order {
        let cell = &netlist.cells()[ci as usize];
        let lib = pdk.library(cell.tier)?;
        let area = lib.cell(cell.kind, cell.drive)?.area.value();
        let width = area / row_h;
        let target = placement.cell_pos[ci as usize];
        let tx = target.x.value();
        let ty = target.y.value();

        // Nearest row index by binary search, then expand outward.
        let start = row_ys
            .binary_search_by(|y| y.partial_cmp(&ty).unwrap_or(std::cmp::Ordering::Equal))
            .unwrap_or_else(|i| i.min(rows.len().saturating_sub(1)));
        let mut best: Option<(usize, f64, f64)> = None; // (row, x, cost)
        let mut radius = 0usize;
        loop {
            for dir in [-1isize, 1] {
                let idx = start as isize + dir * radius as isize;
                if dir == 1 && radius == 0 {
                    continue; // avoid double-visiting `start`
                }
                if idx < 0 || idx as usize >= rows.len() {
                    continue;
                }
                let r = &rows[idx as usize];
                let w = width * r.inflation;
                if r.cursor + w > r.x1 {
                    continue; // row full
                }
                let x = tx.max(r.cursor).min(r.x1 - w);
                let cost = (x - tx).abs() + (r.y - ty).abs();
                if best.as_ref().is_none_or(|(_, _, c)| cost < *c) {
                    best = Some((idx as usize, x, cost));
                }
            }
            // Stop when a found candidate cannot be beaten by farther rows.
            if let Some((_, _, c)) = best {
                if (radius as f64) * row_h > c {
                    break;
                }
            }
            radius += 1;
            if radius > rows.len() {
                break;
            }
        }
        // Fallback (no row had space at/right of the target): append to
        // the least-loaded row that still has room — never overlapping.
        let fallback = || -> TechResult<(usize, f64, f64)> {
            let ri = (0..rows.len())
                .filter(|&i| {
                    let w = width * rows[i].inflation;
                    rows[i].cursor + w <= rows[i].x1
                })
                .min_by(|&a, &b| {
                    (rows[a].cursor - rows[a].x0)
                        .partial_cmp(&(rows[b].cursor - rows[b].x0))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .ok_or(m3d_tech::TechError::InvalidParameter {
                    parameter: "placement",
                    value: width,
                    expected: "row capacity not exceeded",
                })?;
            Ok((ri, rows[ri].cursor, f64::MAX))
        };
        let (ri, x, cost) = match best {
            Some(b) => b,
            None => fallback()?,
        };
        let r = &mut rows[ri];
        let w = width * r.inflation;
        let place_x = x.max(r.cursor);
        debug_assert!(place_x + w <= r.x1 + 1e-6, "legalizer row overflow");
        r.cursor = place_x + w;
        used[ri] = true;
        cell_pos[ci as usize] = Point::new(place_x + w / 2.0, r.y);
        let disp = if cost == f64::MAX {
            (place_x - tx).abs() + (r.y - ty).abs()
        } else {
            cost
        };
        total_disp += disp;
        max_disp = max_disp.max(disp);
        if disp > 50.0 * row_h {
            far += 1;
        }
    }

    let n = netlist.cell_count().max(1) as f64;
    Ok(LegalizeReport {
        cell_pos,
        rows_used: used.iter().filter(|&&u| u).count(),
        avg_displacement: Microns::new(total_disp / n),
        max_displacement: Microns::new(max_disp),
        far_placed: far,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use crate::place::{place, PlacerConfig};
    use m3d_netlist::{accelerator_soc, CsConfig, PeConfig, SocConfig};

    fn setup() -> (Netlist, Placement, Floorplan, Pdk) {
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
        let pdk = Pdk::baseline_2d_130nm();
        let mut nl = Netlist::new("soc");
        accelerator_soc(&mut nl, &cfg).unwrap();
        let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
        let cl = Clustering::build(&nl, &pdk).unwrap();
        let p = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        (nl, p, fp, pdk)
    }

    #[test]
    fn legalized_cells_do_not_overlap_within_rows() {
        let (nl, p, fp, pdk) = setup();
        let leg = legalize(&nl, &p, &fp, &pdk).unwrap();
        // Group by row y, check pairwise gaps via sorted x and widths.
        use std::collections::BTreeMap;
        let mut by_row: BTreeMap<i64, Vec<(f64, f64)>> = BTreeMap::new();
        for (ci, pos) in leg.cell_pos.iter().enumerate() {
            let c = &nl.cells()[ci];
            let lib = pdk.library(c.tier).unwrap();
            let w = lib.cell(c.kind, c.drive).unwrap().area.value() / pdk.si_lib.row_height.value();
            by_row
                .entry((pos.y.value() * 1000.0) as i64)
                .or_default()
                .push((pos.x.value(), w));
        }
        for (_, mut cells) in by_row {
            cells.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in cells.windows(2) {
                let right_edge = pair[0].0 + pair[0].1 / 2.0;
                let left_edge = pair[1].0 - pair[1].1 / 2.0;
                assert!(
                    left_edge >= right_edge - 1e-6,
                    "overlap: {right_edge} vs {left_edge}"
                );
            }
        }
    }

    #[test]
    fn cells_snap_to_row_centres() {
        let (nl, p, fp, pdk) = setup();
        let leg = legalize(&nl, &p, &fp, &pdk).unwrap();
        let row_h = pdk.si_lib.row_height.value();
        for pos in &leg.cell_pos {
            // y must be a region y0 + (k + 0.5)·row_height for some region.
            let on_row = fp.regions.iter().any(|r| {
                let rel = pos.y.value() - r.rect.y0.value();
                let k = (rel / row_h - 0.5).round();
                k >= 0.0 && (rel - (k + 0.5) * row_h).abs() < 1e-6
            });
            assert!(on_row, "cell at y={} not on a row", pos.y);
        }
    }

    #[test]
    fn displacement_is_modest() {
        let (nl, p, fp, pdk) = setup();
        let leg = legalize(&nl, &p, &fp, &pdk).unwrap();
        assert!(leg.rows_used > 10);
        assert!(
            leg.avg_displacement.value() < 500.0,
            "avg displacement {}",
            leg.avg_displacement
        );
        let frac_far = leg.far_placed as f64 / nl.cell_count() as f64;
        assert!(frac_far < 0.05, "{} cells displaced far", leg.far_placed);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Any in-die scatter of global positions legalises to a
            /// row-snapped, overlap-free placement — or fails with a
            /// clean capacity error, never with a corrupt placement.
            #[test]
            fn legalization_is_always_legal(seed in 0u64..1000) {
                let (nl, mut p, fp, pdk) = setup();
                // Scatter cells pseudo-randomly across the die interior
                // (the legaliser's input contract).
                let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mut next = || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) as f64 / (1u64 << 31) as f64
                };
                let w = fp.die.width().value();
                let h = fp.die.height().value();
                for pos in &mut p.cell_pos {
                    *pos = crate::geom::Point::new(0.99 * w * next(), 0.99 * h * next());
                }
                match legalize(&nl, &p, &fp, &pdk) {
                    Ok(leg) => {
                        let legal = Placement { cell_pos: leg.cell_pos, ..p };
                        let drc =
                            crate::drc::check_placement(&nl, &legal, &fp, &pdk, true).unwrap();
                        prop_assert!(drc.is_clean(), "{} violations", drc.total);
                    }
                    Err(e) => prop_assert!(
                        matches!(e, m3d_tech::TechError::InvalidParameter { .. }),
                        "unexpected error {e}"
                    ),
                }
            }
        }
    }

    #[test]
    fn cells_stay_inside_the_die() {
        let (nl, p, fp, pdk) = setup();
        let leg = legalize(&nl, &p, &fp, &pdk).unwrap();
        for pos in &leg.cell_pos {
            assert!(fp.die.contains(*pos), "cell escaped the die: {pos:?}");
        }
        assert_eq!(leg.cell_pos.len(), nl.cell_count());
    }
}
