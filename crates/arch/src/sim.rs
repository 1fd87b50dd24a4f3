//! Chip-level architectural simulator: N parallel computing sub-systems,
//! banked RRAM weight memory and a *shared* activation bus — the three
//! mechanisms that shape Table I:
//!
//! 1. **K-tile partitioning** — a layer with few output channels cannot
//!    use all CSs (`N_max = min(N, ⌈K/cols⌉)`), capping early-layer
//!    speedups near 4×;
//! 2. **banked weight fetch** — each CS owns a bank, so compute-bound
//!    layers scale nearly linearly;
//! 3. **shared activation bus** — input/output activations are not
//!    banked, bounding low-intensity (downsample/stem) layers at 2.5–3.5×.

use serde::{Deserialize, Serialize};

use crate::energy::EnergyModel;
use crate::systolic::{
    schedule_layer, schedule_layer_output_stationary, unique_input_words, CsGeometry, Dataflow,
};
use crate::workload::{Layer, Workload};

/// One chip configuration (the Sec. II case-study design points).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Configuration name.
    pub name: &'static str,
    /// Parallel computing sub-systems (N).
    pub cs_count: u32,
    /// CS datapath geometry.
    pub geometry: CsGeometry,
    /// RRAM banks (one per CS in the M3D design).
    pub rram_banks: u32,
    /// Read-port width per bank, bits per cycle.
    pub bank_port_bits: u32,
    /// Shared activation-bus width, bits per cycle (not banked).
    pub act_bus_bits: u32,
    /// Array dataflow (the paper's design is weight-stationary).
    pub dataflow: Dataflow,
    /// Energy model.
    pub energy: EnergyModel,
}

impl ChipConfig {
    /// The paper's 2D baseline: 1 CS, single-bank 64 MB RRAM.
    pub fn baseline_2d() -> Self {
        Self {
            name: "2D baseline",
            cs_count: 1,
            geometry: CsGeometry::default(),
            rram_banks: 1,
            bank_port_bits: 256,
            act_bus_bits: 128,
            dataflow: Dataflow::WeightStationary,
            energy: EnergyModel::default(),
        }
    }

    /// Returns a copy using the given dataflow.
    pub fn with_dataflow(mut self, dataflow: Dataflow) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// The iso-footprint, iso-capacity M3D design point with `n` CSs and
    /// the RRAM partitioned into `n` banks.
    pub fn m3d(n: u32) -> Self {
        Self {
            name: "M3D",
            cs_count: n.max(1),
            rram_banks: n.max(1),
            ..Self::baseline_2d()
        }
    }

    /// Chip peak MACs/cycle.
    pub fn peak_ops(&self) -> u64 {
        u64::from(self.cs_count) * self.geometry.peak_ops()
    }
}

/// Energy breakdown of one simulated layer, in pJ.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// MAC datapath energy.
    pub compute_pj: f64,
    /// RRAM weight-read energy.
    pub weight_pj: f64,
    /// SRAM buffer access energy.
    pub buffer_pj: f64,
    /// Shared-bus transfer energy.
    pub bus_pj: f64,
    /// Leakage over the layer's runtime (busy + idle CSs).
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.weight_pj + self.buffer_pj + self.bus_pj + self.static_pj
    }
}

/// Simulated performance of one layer on one chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPerf {
    /// Layer name.
    pub name: String,
    /// Execution cycles (max of compute, weight fetch and bus phases).
    pub cycles: u64,
    /// Compute cycles of the busiest CS.
    pub compute_cycles: u64,
    /// Shared-bus cycles.
    pub bus_cycles: u64,
    /// CSs actually used (N_max).
    pub used_cs: u32,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl LayerPerf {
    /// Total energy in pJ.
    pub fn energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }
}

/// Whole-workload simulation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipPerf {
    /// Chip name.
    pub chip: String,
    /// Per-layer results.
    pub layers: Vec<LayerPerf>,
    /// Total cycles.
    pub total_cycles: u64,
    /// Total energy in pJ.
    pub total_energy_pj: f64,
}

impl ChipPerf {
    /// Total runtime in seconds.
    pub fn runtime_s(&self, cycle_ns: f64) -> f64 {
        self.total_cycles as f64 * cycle_ns * 1e-9
    }

    /// Energy–delay product in J·s.
    pub fn edp(&self, cycle_ns: f64) -> f64 {
        self.total_energy_pj * 1e-12 * self.runtime_s(cycle_ns)
    }
}

/// Simulates one layer on `chip`.
pub fn simulate_layer(chip: &ChipConfig, layer: &Layer) -> LayerPerf {
    let g = &chip.geometry;
    let k_tiles_total = layer.out_channels.div_ceil(g.cols).max(1);
    let n_max = chip.cs_count.min(layer.max_partitions(g.cols));
    let k_tiles_per_cs = k_tiles_total.div_ceil(n_max);

    // Busiest CS: owns ⌈Ktiles/N_max⌉ output-channel tiles, fed by its
    // own bank (each bank serves cs_count/banks CSs; sharing divides the
    // effective port).
    let cs_per_bank = chip.cs_count.div_ceil(chip.rram_banks).max(1);
    let eff_bank_bits = (chip.bank_port_bits / cs_per_bank).max(1);
    let (compute_cycles, os_weight_bits) = match chip.dataflow {
        Dataflow::WeightStationary => {
            let sched = schedule_layer(layer, g, k_tiles_per_cs, eff_bank_bits);
            (sched.total_cycles(), None)
        }
        Dataflow::OutputStationary => {
            let k_channels = layer.out_channels.div_ceil(n_max);
            let (cycles, per_cs_bits) =
                schedule_layer_output_stationary(layer, g, k_channels, eff_bank_bits);
            (cycles, Some(per_cs_bits * u64::from(n_max)))
        }
    };

    // Shared activation bus: unique inputs broadcast once, outputs
    // written once — identical traffic in 2D and M3D.
    let act_bits = (unique_input_words(layer) + layer.output_words()) * u64::from(g.act_bits);
    let bus_cycles = act_bits.div_ceil(u64::from(chip.act_bus_bits.max(1)));

    let cycles = compute_cycles.max(bus_cycles).max(1);

    // --- Energy ----------------------------------------------------------
    let e = &chip.energy;
    // Weights: stationary reuse reads each weight once; the output-
    // stationary alternative re-streams them per output-pixel tile.
    let weight_bits_read = os_weight_bits.unwrap_or_else(|| layer.weight_bits(g.weight_bits));
    // Buffer traffic: the input stream is re-read from the local buffer
    // once per K-tile pass; outputs are staged once.
    let buffer_bits = layer.activation_bits(g.act_bits, g.rows) * u64::from(k_tiles_total)
        + layer.output_words() * u64::from(g.act_bits);
    let energy = EnergyBreakdown {
        compute_pj: layer.ops() as f64 * e.mac_pj,
        weight_pj: weight_bits_read as f64 * e.rram_read_pj_per_bit,
        buffer_pj: buffer_bits as f64 * e.sram_pj_per_bit,
        bus_pj: act_bits as f64 * e.bus_pj_per_bit,
        static_pj: e.static_pj_per_cycle(chip.cs_count) * cycles as f64,
    };

    LayerPerf {
        name: layer.name.clone(),
        cycles,
        compute_cycles,
        bus_cycles,
        used_cs: n_max,
        energy,
    }
}

/// Simulates a whole workload on `chip`.
pub fn simulate(chip: &ChipConfig, workload: &Workload) -> ChipPerf {
    let layers: Vec<LayerPerf> = workload
        .layers
        .iter()
        .map(|l| simulate_layer(chip, l))
        .collect();
    let total_cycles = layers.iter().map(|l| l.cycles).sum();
    let total_energy_pj = layers.iter().map(LayerPerf::energy_pj).sum();
    ChipPerf {
        chip: chip.name.to_owned(),
        layers,
        total_cycles,
        total_energy_pj,
    }
}

/// One row of a 2D-vs-M3D comparison (Table I format).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Layer (or `"Total"`).
    pub name: String,
    /// Speedup of M3D over 2D.
    pub speedup: f64,
    /// Energy ratio (2D energy / M3D energy; < 1 means M3D uses more).
    pub energy_ratio: f64,
    /// EDP benefit = speedup × energy ratio.
    pub edp_benefit: f64,
}

/// Full 2D-vs-M3D comparison of a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Per-layer rows.
    pub rows: Vec<ComparisonRow>,
    /// Whole-network totals.
    pub total: ComparisonRow,
}

/// Compares `workload` on the 2D baseline vs the M3D design point.
pub fn compare(chip_2d: &ChipConfig, chip_3d: &ChipConfig, workload: &Workload) -> Comparison {
    let p2 = simulate(chip_2d, workload);
    let p3 = simulate(chip_3d, workload);
    let rows = p2
        .layers
        .iter()
        .zip(&p3.layers)
        .map(|(a, b)| ComparisonRow {
            name: a.name.clone(),
            speedup: a.cycles as f64 / b.cycles.max(1) as f64,
            energy_ratio: a.energy_pj() / b.energy_pj().max(1e-12),
            edp_benefit: (a.cycles as f64 / b.cycles.max(1) as f64)
                * (a.energy_pj() / b.energy_pj().max(1e-12)),
        })
        .collect();
    let speedup = p2.total_cycles as f64 / p3.total_cycles.max(1) as f64;
    let energy_ratio = p2.total_energy_pj / p3.total_energy_pj.max(1e-12);
    Comparison {
        workload: workload.name.clone(),
        rows,
        total: ComparisonRow {
            name: "Total".to_owned(),
            speedup,
            energy_ratio,
            edp_benefit: speedup * energy_ratio,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::resnet18;

    #[test]
    fn chip_configs() {
        let c2 = ChipConfig::baseline_2d();
        let c3 = ChipConfig::m3d(8);
        assert_eq!(c2.peak_ops(), 256);
        assert_eq!(c3.peak_ops(), 2048);
    }

    #[test]
    fn late_convs_scale_nearly_linearly() {
        let l = Layer::conv("L4", 512, 512, 3, (7, 7), 1);
        let a = simulate_layer(&ChipConfig::baseline_2d(), &l);
        let b = simulate_layer(&ChipConfig::m3d(8), &l);
        let speedup = a.cycles as f64 / b.cycles as f64;
        assert!((7.5..=8.0).contains(&speedup), "speedup {speedup}");
        assert_eq!(b.used_cs, 8);
    }

    #[test]
    fn early_convs_capped_by_k_tiles() {
        let l = Layer::conv("L1", 64, 64, 3, (56, 56), 1);
        let a = simulate_layer(&ChipConfig::baseline_2d(), &l);
        let b = simulate_layer(&ChipConfig::m3d(8), &l);
        assert_eq!(b.used_cs, 4, "only 4 K-tiles available");
        let speedup = a.cycles as f64 / b.cycles as f64;
        assert!((3.4..=4.05).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn downsample_layers_are_bus_bound() {
        let l = Layer::conv("L2.0 DS", 64, 128, 1, (28, 28), 2);
        let a = simulate_layer(&ChipConfig::baseline_2d(), &l);
        let b = simulate_layer(&ChipConfig::m3d(8), &l);
        assert!(b.cycles == b.bus_cycles.max(b.compute_cycles));
        assert!(b.bus_cycles > b.compute_cycles, "DS is bus-bound in M3D");
        let speedup = a.cycles as f64 / b.cycles as f64;
        assert!((2.0..=3.6).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn resnet18_total_matches_paper_band() {
        let cmp = compare(&ChipConfig::baseline_2d(), &ChipConfig::m3d(8), &resnet18());
        // Paper Table I: total speedup 5.64×, energy 0.99×, EDP 5.66×.
        assert!(
            (5.0..=6.5).contains(&cmp.total.speedup),
            "total speedup {}",
            cmp.total.speedup
        );
        assert!(
            (0.95..=1.02).contains(&cmp.total.energy_ratio),
            "energy ratio {}",
            cmp.total.energy_ratio
        );
        assert!(
            (4.9..=6.6).contains(&cmp.total.edp_benefit),
            "EDP {}",
            cmp.total.edp_benefit
        );
    }

    #[test]
    fn output_stationary_multiplies_weight_traffic() {
        use crate::systolic::Dataflow;
        // A large-map layer: OS re-reads weights once per pixel tile.
        let l = Layer::conv("L1", 64, 64, 3, (56, 56), 1);
        let ws = simulate_layer(&ChipConfig::baseline_2d(), &l);
        let os = simulate_layer(
            &ChipConfig::baseline_2d().with_dataflow(Dataflow::OutputStationary),
            &l,
        );
        // 56² = 3136 pixels → 13 tiles of 256 → ~13× the RRAM reads.
        let ratio = os.energy.weight_pj / ws.energy.weight_pj;
        assert!((12.0..=14.0).contains(&ratio), "weight ratio {ratio}");
        assert!(os.energy_pj() > ws.energy_pj());
    }

    #[test]
    fn output_stationary_underutilises_small_maps() {
        use crate::systolic::Dataflow;
        // 7×7 maps leave most of a 256-PE OS array idle.
        let l = Layer::conv("L4", 512, 512, 3, (7, 7), 1);
        let ws = simulate_layer(&ChipConfig::baseline_2d(), &l);
        let os = simulate_layer(
            &ChipConfig::baseline_2d().with_dataflow(Dataflow::OutputStationary),
            &l,
        );
        assert!(
            os.cycles > 2 * ws.cycles,
            "OS {} vs WS {} cycles",
            os.cycles,
            ws.cycles
        );
    }

    #[test]
    fn energy_breakdown_sums() {
        let l = Layer::conv("x", 64, 64, 3, (14, 14), 1);
        let p = simulate_layer(&ChipConfig::baseline_2d(), &l);
        let e = p.energy;
        assert!(
            (e.total_pj() - (e.compute_pj + e.weight_pj + e.buffer_pj + e.bus_pj + e.static_pj))
                .abs()
                < 1e-9
        );
        assert!(e.compute_pj > 0.0 && e.weight_pj > 0.0);
    }

    #[test]
    fn comparison_rows_align_with_layers() {
        let w = resnet18();
        let cmp = compare(&ChipConfig::baseline_2d(), &ChipConfig::m3d(8), &w);
        assert_eq!(cmp.rows.len(), w.layers.len());
        assert_eq!(cmp.rows[0].name, "CONV1+POOL");
        for r in &cmp.rows {
            assert!(r.speedup >= 0.9, "{} regressed: {}", r.name, r.speedup);
            assert!(
                (r.edp_benefit - r.speedup * r.energy_ratio).abs() < 1e-9,
                "EDP identity"
            );
        }
    }
}
