//! Technology-node scaling projections.
//!
//! The paper's flow "is compatible with state-of-the-art technology
//! nodes" (Sec. II); this module provides first-order scaling factors to
//! project the 130 nm calibration to smaller nodes. The key asymmetry:
//! logic area scales quadratically with the node, the RRAM selector
//! scales roughly linearly, and the **ILV pitch barely scales at all**
//! (it is a BEOL via) — so at advanced nodes memory cells become
//! via-pitch-limited and the freed-area ratio γ_cells explodes, pushing
//! the design point against the workload-parallelism and shared-bus
//! walls instead of the area wall.

use serde::{Deserialize, Serialize};

use crate::error::{TechError, TechResult};
use crate::layers::IlvSpec;
use crate::rram::RramCellModel;
use crate::units::SquareMicrons;

/// First-order scaling factors from the 130 nm calibration node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeScaling {
    /// Target node in nanometres.
    pub node_nm: u32,
    /// Logic (standard-cell and SRAM) area multiplier.
    pub logic_area: f64,
    /// Gate-delay multiplier.
    pub delay: f64,
    /// Switching-energy multiplier.
    pub energy: f64,
    /// RRAM selector-limited cell-area multiplier (memory scales worse
    /// than logic).
    pub rram_cell_area: f64,
    /// ILV pitch multiplier (BEOL vias barely scale).
    pub ilv_pitch: f64,
}

impl NodeScaling {
    /// Projection factors for a target node, from 130 nm.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] for nodes outside
    /// 5–130 nm.
    pub fn from_130nm(node_nm: u32) -> TechResult<Self> {
        if !(5..=130).contains(&node_nm) {
            return Err(TechError::InvalidParameter {
                parameter: "node_nm",
                value: f64::from(node_nm),
                expected: "between 5 and 130",
            });
        }
        let s = f64::from(node_nm) / 130.0;
        Ok(Self {
            node_nm,
            logic_area: s * s,
            delay: s.powf(0.8),
            energy: s.powf(1.5),
            // 1T1R selectors track the front-end roughly linearly.
            rram_cell_area: s,
            // BEOL via pitch improves only mildly across nodes.
            ilv_pitch: s.powf(0.25),
        })
    }

    /// Projected RRAM area per bit at this node: the scaled selector
    /// limit floored by the (barely scaled) via-pitch limit `m·β²`.
    pub fn rram_area_per_bit(&self, cell: &RramCellModel, base_ilv: &IlvSpec) -> SquareMicrons {
        let selector = cell.selector_limited_area * self.rram_cell_area;
        let beta = base_ilv.pitch.value() * self.ilv_pitch;
        let via = SquareMicrons::new(f64::from(cell.vias_per_cell) * beta * beta);
        selector.max(via)
    }

    /// `true` when the memory cell is via-pitch-limited at this node —
    /// the regime where Observation 8's "ultra-dense vias are key"
    /// becomes the design constraint.
    pub fn via_limited(&self, cell: &RramCellModel, base_ilv: &IlvSpec) -> bool {
        let selector = cell.selector_limited_area.value() * self.rram_cell_area;
        let beta = base_ilv.pitch.value() * self.ilv_pitch;
        f64::from(cell.vias_per_cell) * beta * beta > selector
    }
}

/// The standard projection ladder used by the projection experiment.
pub fn projection_ladder() -> Vec<NodeScaling> {
    [130u32, 65, 28, 14, 7]
        .into_iter()
        .map(|n| NodeScaling::from_130nm(n).expect("ladder nodes are valid"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_at_130nm() {
        let s = NodeScaling::from_130nm(130).unwrap();
        assert!((s.logic_area - 1.0).abs() < 1e-12);
        assert!((s.delay - 1.0).abs() < 1e-12);
        assert_eq!(s.node_nm, 130);
    }

    #[test]
    fn logic_scales_faster_than_memory_and_vias() {
        let s = NodeScaling::from_130nm(28).unwrap();
        assert!(s.logic_area < s.rram_cell_area);
        assert!(s.rram_cell_area < 1.0);
        assert!(s.ilv_pitch > s.rram_cell_area, "vias barely scale");
    }

    #[test]
    fn advanced_nodes_become_via_limited() {
        let cell = RramCellModel::foundry_130nm();
        let ilv = IlvSpec::ultra_dense_130nm();
        let n130 = NodeScaling::from_130nm(130).unwrap();
        let n7 = NodeScaling::from_130nm(7).unwrap();
        assert!(!n130.via_limited(&cell, &ilv), "130 nm is selector-limited");
        assert!(n7.via_limited(&cell, &ilv), "7 nm is via-pitch-limited");
        // The via floor keeps the 7 nm cell far larger than pure scaling.
        let scaled = n7.rram_area_per_bit(&cell, &ilv).value();
        let naive = cell.selector_limited_area.value() * n7.rram_cell_area;
        assert!(scaled > 2.0 * naive, "{scaled} vs naive {naive}");
    }

    #[test]
    fn gamma_growth_is_monotone_down_the_ladder() {
        let cell = RramCellModel::foundry_130nm();
        let ilv = IlvSpec::ultra_dense_130nm();
        let ladder = projection_ladder();
        let mut last = 0.0;
        for s in &ladder {
            // γ_cells growth: memory shrinks slower than logic.
            let g = s.rram_area_per_bit(&cell, &ilv) / cell.selector_limited_area / s.logic_area;
            assert!(g >= last, "γ growth must rise as nodes shrink");
            last = g;
        }
        assert!(last > 10.0, "7 nm frees vastly more relative area: ×{last}");
    }

    #[test]
    fn invalid_nodes_rejected() {
        assert!(NodeScaling::from_130nm(3).is_err());
        assert!(NodeScaling::from_130nm(200).is_err());
        assert!(NodeScaling::from_130nm(5).is_ok());
    }
}
