//! A ZigZag-style loop-nest mapping design-space explorer (paper ref. 13).
//!
//! For each layer the mapper searches temporal loop orderings and
//! buffer-tile sizes over a three-level memory hierarchy (RRAM weight
//! memory → global SRAM → local buffers/registers), counting per-level
//! accesses with standard data-reuse analysis and taking the best
//! energy–delay mapping. It is the *independent cross-check* the paper
//! uses in Fig. 7: the analytical framework must agree with this mapper
//! within ≈ 10 %.

use serde::{Deserialize, Serialize};

use crate::accel::AccelArch;
use crate::energy::EnergyModel;
use crate::systolic::unique_input_words;
use crate::workload::{Layer, Workload};

/// The three tiled loop dimensions of the mapper's view of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dim {
    /// Output channels.
    K,
    /// Input channels × kernel positions (C·k²).
    C,
    /// Output pixels (OX·OY).
    P,
}

/// A temporal loop order, outermost first.
pub type LoopOrder = [Dim; 3];

/// All six orderings.
pub const ORDERS: [LoopOrder; 6] = [
    [Dim::K, Dim::C, Dim::P],
    [Dim::K, Dim::P, Dim::C],
    [Dim::C, Dim::K, Dim::P],
    [Dim::C, Dim::P, Dim::K],
    [Dim::P, Dim::K, Dim::C],
    [Dim::P, Dim::C, Dim::K],
];

/// The mapper's abstraction of one chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapperChip {
    /// Chip name.
    pub name: String,
    /// Spatial unrolling over K (output channels), including CS-level
    /// partitioning in M3D.
    pub spatial_k: u32,
    /// Spatial unrolling over C.
    pub spatial_c: u32,
    /// Spatial unrolling over output pixels.
    pub spatial_p: u32,
    /// Weight precision, bits.
    pub weight_bits: u32,
    /// Activation precision, bits.
    pub act_bits: u32,
    /// Local-buffer capacity in bits (registers + per-operand locals).
    pub local_bits: u64,
    /// Global SRAM capacity in bits.
    pub global_bits: u64,
    /// Global SRAM bandwidth, bits/cycle.
    pub global_bw: u64,
    /// Total RRAM weight-memory bandwidth, bits/cycle (banked in M3D).
    pub rram_bw: u64,
    /// Shared activation-bus bandwidth, bits/cycle (never banked).
    pub bus_bw: u64,
    /// Parallel computing sub-systems.
    pub cs_count: u32,
    /// Energy constants.
    pub energy: EnergyModel,
}

impl MapperChip {
    /// Builds the mapper chip for a Table II architecture with `cs_count`
    /// parallel CSs (1 = the 2D baseline).
    pub fn from_arch(arch: &AccelArch, cs_count: u32) -> Self {
        let n = cs_count.max(1);
        Self {
            name: format!("{} ×{n}", arch.name),
            spatial_k: arch.spatial.k.max(1) * n,
            spatial_c: arch.spatial.c.max(1),
            spatial_p: arch.spatial.pixels(),
            weight_bits: 8,
            act_bits: 8,
            local_bits: (arch.local.total_bits() + arch.reg_bits()) * u64::from(n),
            global_bits: (arch.global_mb * 1024.0 * 1024.0 * 8.0) as u64 * u64::from(n),
            global_bw: 512 * u64::from(n),
            rram_bw: 256 * u64::from(n),
            bus_bw: 128,
            cs_count: n,
            energy: EnergyModel::default(),
        }
    }

    /// Peak MACs per cycle.
    pub fn peak_ops(&self) -> u64 {
        u64::from(self.spatial_k) * u64::from(self.spatial_c) * u64::from(self.spatial_p)
    }
}

/// Cost of one mapping (or a workload total).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MappingCost {
    /// Execution cycles.
    pub cycles: u64,
    /// Energy in pJ.
    pub energy_pj: f64,
}

impl MappingCost {
    /// Energy–delay product in pJ·cycles (relative comparisons only).
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.cycles as f64
    }
}

/// A chosen mapping for one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// Temporal order, outermost first.
    pub order: LoopOrder,
    /// Local-buffer tile sizes in outer-iteration units (K, C, P).
    pub tile: (u32, u32, u32),
    /// Cost of the mapping.
    pub cost: MappingCost,
    /// Spatial utilisation achieved.
    pub utilization: f64,
}

fn innermost(order: &LoopOrder, d: Dim) -> bool {
    order[2] == d
}

fn candidate_tiles(total: u32) -> Vec<u32> {
    let mut v = vec![1u32];
    let mut t = 2u32;
    while t < total {
        v.push(t);
        t *= 2;
    }
    if total > 1 {
        v.push(total);
    }
    v
}

/// Evaluates one (order, tile) candidate; returns `None` when the tile
/// does not fit the local buffer.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    chip: &MapperChip,
    layer: &Layer,
    order: &LoopOrder,
    tk: u32,
    tc: u32,
    tp: u32,
    totals: (u32, u32, u32),
    spatial: (u32, u32, u32),
) -> Option<MappingCost> {
    let (kt, ct, pt) = totals;
    let (ks, cs, ps) = spatial;
    let wb = u64::from(chip.weight_bits);
    let ab = u64::from(chip.act_bits);

    // Tile footprints in the local buffer.
    let w_tile = u64::from(tk) * u64::from(ks) * u64::from(tc) * u64::from(cs) * wb;
    let i_tile = u64::from(tc) * u64::from(cs) * u64::from(tp) * u64::from(ps) * ab;
    let o_tile = u64::from(tk) * u64::from(ks) * u64::from(tp) * u64::from(ps) * ab;
    if w_tile + i_tile + o_tile > chip.local_bits && (tk, tc, tp) != (1, 1, 1) {
        return None;
    }

    let ok = kt.div_ceil(tk).max(1);
    let oc = ct.div_ceil(tc).max(1);
    let op = pt.div_ceil(tp).max(1);

    // --- Access counts --------------------------------------------------
    let w_bits = layer.weight_bits(chip.weight_bits);
    let i_bits = unique_input_words(layer) * ab;
    let o_bits = layer.output_words() * ab;

    // Weights are read from RRAM each time their tile is re-activated:
    // once if the pixel loop is innermost (stationary) or the whole model
    // layer fits the global SRAM; `op` times otherwise.
    let w_reload = if innermost(order, Dim::P) || w_bits <= chip.global_bits {
        1
    } else {
        u64::from(op)
    };
    let rram_bits = w_bits * w_reload;

    // Inputs are re-read from global SRAM per K iteration unless the K
    // loop is innermost or the inputs fit locally.
    let i_reload = if innermost(order, Dim::K) || i_bits <= chip.local_bits {
        1
    } else {
        u64::from(ok)
    };
    // Outputs spill per C iteration unless C is innermost (accumulate in
    // place) or they fit locally.
    let o_spill = if innermost(order, Dim::C) || o_bits <= chip.local_bits {
        1
    } else {
        2 * u64::from(oc)
    };
    let global_bits = i_bits * i_reload + o_bits * o_spill + w_bits;

    // Shared bus: unique inputs in, outputs out — once each.
    let bus_bits = i_bits + o_bits;

    // --- Latency ----------------------------------------------------------
    let macs = layer.ops();
    let compute = macs.div_ceil(u64::from(ks) * u64::from(cs) * u64::from(ps));
    let cycles = compute
        .max(rram_bits.div_ceil(chip.rram_bw.max(1)))
        .max(global_bits.div_ceil(chip.global_bw.max(1)))
        .max(bus_bits.div_ceil(chip.bus_bw.max(1)))
        .max(1);

    // --- Energy -------------------------------------------------------------
    let e = &chip.energy;
    let energy_pj = macs as f64 * e.mac_pj
        + rram_bits as f64 * e.rram_read_pj_per_bit
        + global_bits as f64 * e.sram_pj_per_bit
        + bus_bits as f64 * e.bus_pj_per_bit
        + e.static_pj_per_cycle(chip.cs_count) * cycles as f64;

    Some(MappingCost { cycles, energy_pj })
}

/// Searches the mapping space for `layer`, returning the minimum-EDP
/// mapping.
pub fn map_layer(chip: &MapperChip, layer: &Layer) -> Mapping {
    let k = layer.out_channels.max(1);
    let c2 = (layer.in_channels * layer.kernel * layer.kernel).max(1);
    let p = (layer.out_w * layer.out_h).max(1);

    let ks = chip.spatial_k.min(k);
    let cs = chip.spatial_c.min(c2);
    let ps = chip.spatial_p.min(p);
    let kt = k.div_ceil(ks);
    let ct = c2.div_ceil(cs);
    let pt = p.div_ceil(ps);
    let utilization =
        (u64::from(ks) * u64::from(cs) * u64::from(ps)) as f64 / chip.peak_ops() as f64;

    let mut best: Option<Mapping> = None;
    for order in ORDERS {
        for &tk in &candidate_tiles(kt) {
            for &tc in &candidate_tiles(ct) {
                for &tp in &candidate_tiles(pt) {
                    if let Some(cost) =
                        evaluate(chip, layer, &order, tk, tc, tp, (kt, ct, pt), (ks, cs, ps))
                    {
                        let better = best.as_ref().is_none_or(|b| cost.edp() < b.cost.edp());
                        if better {
                            best = Some(Mapping {
                                order,
                                tile: (tk, tc, tp),
                                cost,
                                utilization,
                            });
                        }
                    }
                }
            }
        }
    }
    best.expect("tile (1,1,1) always evaluates")
}

/// Maps a whole workload, summing the per-layer best mappings.
pub fn map_workload(chip: &MapperChip, workload: &Workload) -> MappingCost {
    let mut total = MappingCost::default();
    for layer in &workload.layers {
        let m = map_layer(chip, layer);
        total.cycles += m.cost.cycles;
        total.energy_pj += m.cost.energy_pj;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::table2_architectures;
    use crate::models::alexnet;
    use crate::workload::Layer;

    fn arch6_chip(n: u32) -> MapperChip {
        MapperChip::from_arch(&table2_architectures()[5], n)
    }

    #[test]
    fn mapper_finds_a_mapping_for_every_layer() {
        let chip = arch6_chip(1);
        for l in &alexnet().layers {
            let m = map_layer(&chip, l);
            assert!(m.cost.cycles > 0, "{}", l.name);
            assert!(m.cost.energy_pj > 0.0);
            assert!(m.utilization > 0.0 && m.utilization <= 1.0);
        }
    }

    #[test]
    fn more_css_speed_up_compute_bound_layers() {
        let l = Layer::conv("big", 256, 256, 3, (28, 28), 1);
        let m1 = map_layer(&arch6_chip(1), &l);
        let m8 = map_layer(&arch6_chip(8), &l);
        let speedup = m1.cost.cycles as f64 / m8.cost.cycles as f64;
        assert!(speedup > 4.0, "speedup {speedup}");
    }

    #[test]
    fn fc_layers_are_weight_bandwidth_bound() {
        let chip = arch6_chip(1);
        let fc = Layer::fc("FC6", 9216, 4096);
        let m = map_layer(&chip, &fc);
        // Weight fetch dominates: cycles ≈ weight bits / RRAM bandwidth.
        let wf = fc.weight_bits(8).div_ceil(chip.rram_bw);
        assert!(
            m.cost.cycles >= wf,
            "cycles {} < weight fetch {}",
            m.cost.cycles,
            wf
        );
        // Banked memory in M3D cuts the fetch time.
        let m8 = map_layer(&arch6_chip(8), &fc);
        assert!(m8.cost.cycles * 4 < m.cost.cycles);
    }

    #[test]
    fn workload_mapping_sums_layers() {
        let chip = arch6_chip(1);
        let wl = alexnet();
        let total = map_workload(&chip, &wl);
        let manual: u64 = wl
            .layers
            .iter()
            .map(|l| map_layer(&chip, l).cost.cycles)
            .sum();
        assert_eq!(total.cycles, manual);
        assert!(total.edp() > 0.0);
    }

    #[test]
    fn m3d_gives_large_edp_benefit_on_alexnet() {
        let wl = alexnet();
        let c1 = map_workload(&arch6_chip(1), &wl);
        let c13 = map_workload(&arch6_chip(13), &wl);
        let speedup = c1.cycles as f64 / c13.cycles as f64;
        let energy_ratio = c1.energy_pj / c13.energy_pj;
        let edp = speedup * energy_ratio;
        assert!(edp > 3.0, "EDP benefit {edp}");
        assert!(edp < 20.0, "EDP benefit {edp} implausibly large");
    }

    #[test]
    fn candidate_tiles_cover_ends() {
        assert_eq!(candidate_tiles(1), vec![1]);
        assert_eq!(candidate_tiles(8), vec![1, 2, 4, 8]);
        let t = candidate_tiles(12);
        assert!(t.contains(&1) && t.contains(&12) && t.contains(&8));
    }
}
