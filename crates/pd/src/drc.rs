//! Placement design-rule checks: the sign-off gate between legalisation
//! and tape-out. Checks row alignment, in-row overlap, die containment
//! and blockage violations (cells inside the RRAM peripheral strip, or
//! under the array in the 2D baseline).

use serde::{Deserialize, Serialize};

use m3d_netlist::Netlist;
use m3d_tech::{Pdk, TechResult};

use crate::floorplan::Floorplan;
use crate::place::Placement;

/// A single design-rule violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrcViolation {
    /// Violation class.
    pub kind: DrcKind,
    /// Offending instance name.
    pub instance: String,
    /// Location of the violation.
    pub x_um: f64,
    /// Location of the violation.
    pub y_um: f64,
}

/// Violation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DrcKind {
    /// Cell centre outside the die outline.
    OffDie,
    /// Cell not aligned to a placement row.
    OffRow,
    /// Two cells overlap within a row.
    Overlap,
    /// Cell inside a hard blockage (RRAM peripherals, or the array
    /// region when the Si tier is blocked).
    InBlockage,
}

/// DRC summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrcReport {
    /// All violations found (capped at 1 000 for reporting).
    pub violations: Vec<DrcViolation>,
    /// Total violation count (uncapped).
    pub total: usize,
    /// Cells checked.
    pub checked: usize,
    /// Whether row alignment was required (post-legalisation only).
    pub rows_checked: bool,
}

impl DrcReport {
    /// `true` when the placement is clean.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Violations of one class.
    pub fn count_of(&self, kind: DrcKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }
}

/// Runs placement DRC. `check_rows` enables row-alignment and in-row
/// overlap checks (meaningful only after legalisation).
///
/// # Errors
///
/// Returns technology errors for cells missing from the PDK libraries.
pub fn check_placement(
    netlist: &Netlist,
    placement: &Placement,
    floorplan: &Floorplan,
    pdk: &Pdk,
    check_rows: bool,
) -> TechResult<DrcReport> {
    let mut violations = Vec::new();
    let mut total = 0usize;
    let push = |violations: &mut Vec<DrcViolation>, total: &mut usize, v: DrcViolation| {
        *total += 1;
        if violations.len() < 1000 {
            violations.push(v);
        }
    };
    let row_h = pdk.si_lib.row_height.value();

    // Blockages: peripherals always; the array only when it blocks Si.
    let blockages: Vec<_> = floorplan
        .fixed
        .iter()
        .filter(|f| f.blocks_si)
        .map(|f| f.rect)
        .collect();

    // In-row overlap bookkeeping: (quantised y) → sorted (x, half-width).
    let mut rows: std::collections::BTreeMap<i64, Vec<(f64, f64, u32)>> = Default::default();

    for (ci, cell) in netlist.cells().iter().enumerate() {
        let pos = placement.cell_pos[ci];
        if !floorplan.die.contains(pos) {
            push(
                &mut violations,
                &mut total,
                DrcViolation {
                    kind: DrcKind::OffDie,
                    instance: netlist.name_of(cell.name).to_owned(),
                    x_um: pos.x.value(),
                    y_um: pos.y.value(),
                },
            );
            continue;
        }
        for b in &blockages {
            if b.contains(pos) {
                push(
                    &mut violations,
                    &mut total,
                    DrcViolation {
                        kind: DrcKind::InBlockage,
                        instance: netlist.name_of(cell.name).to_owned(),
                        x_um: pos.x.value(),
                        y_um: pos.y.value(),
                    },
                );
            }
        }
        if check_rows {
            let on_row = floorplan.regions.iter().any(|r| {
                let rel = pos.y.value() - r.rect.y0.value();
                if rel < 0.0 {
                    return false;
                }
                let k = (rel / row_h - 0.5).round();
                k >= 0.0 && (rel - (k + 0.5) * row_h).abs() < 1e-3
            });
            if !on_row {
                push(
                    &mut violations,
                    &mut total,
                    DrcViolation {
                        kind: DrcKind::OffRow,
                        instance: netlist.name_of(cell.name).to_owned(),
                        x_um: pos.x.value(),
                        y_um: pos.y.value(),
                    },
                );
            }
            let lib = pdk.library(cell.tier)?;
            let w = lib.cell(cell.kind, cell.drive)?.area.value() / row_h;
            rows.entry((pos.y.value() * 1000.0).round() as i64)
                .or_default()
                .push((pos.x.value(), w / 2.0, ci as u32));
        }
    }

    if check_rows {
        for (_, mut cells) in rows {
            cells.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            for pair in cells.windows(2) {
                let right_edge = pair[0].0 + pair[0].1;
                let left_edge = pair[1].0 - pair[1].1;
                if left_edge < right_edge - 1e-6 {
                    let ci = pair[1].2 as usize;
                    push(
                        &mut violations,
                        &mut total,
                        DrcViolation {
                            kind: DrcKind::Overlap,
                            instance: netlist.name_of(netlist.cells()[ci].name).to_owned(),
                            x_um: pair[1].0,
                            y_um: 0.0,
                        },
                    );
                }
            }
        }
    }

    Ok(DrcReport {
        violations,
        total,
        checked: netlist.cell_count(),
        rows_checked: check_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use crate::legalize::legalize;
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
    fn legalized_placement_is_drc_clean() {
        let (nl, p, fp, pdk) = setup();
        let leg = legalize(&nl, &p, &fp, &pdk).unwrap();
        let legal = Placement {
            cell_pos: leg.cell_pos,
            ..p
        };
        let report = check_placement(&nl, &legal, &fp, &pdk, true).unwrap();
        assert!(
            report.is_clean(),
            "violations: {} (first: {:?})",
            report.total,
            report.violations.first()
        );
        assert_eq!(report.checked, nl.cell_count());
        assert!(report.rows_checked);
    }

    #[test]
    fn global_placement_passes_without_row_checks() {
        let (nl, p, fp, pdk) = setup();
        let report = check_placement(&nl, &p, &fp, &pdk, false).unwrap();
        // Global placement keeps cells on-die and out of blockages.
        assert_eq!(report.count_of(DrcKind::OffDie), 0);
        assert!(!report.rows_checked);
    }

    #[test]
    fn corrupted_positions_are_flagged() {
        let (nl, mut p, fp, pdk) = setup();
        p.cell_pos[0] = crate::geom::Point::new(-1.0e6, -1.0e6);
        p.cell_pos[1] = fp.rram_periph().rect.center();
        let report = check_placement(&nl, &p, &fp, &pdk, false).unwrap();
        assert_eq!(report.count_of(DrcKind::OffDie), 1);
        assert_eq!(report.count_of(DrcKind::InBlockage), 1);
        assert!(!report.is_clean());
        assert_eq!(report.total, 2);
    }
}
