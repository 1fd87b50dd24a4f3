//! Tile-level cycle model of the weight-stationary systolic computing
//! sub-system (CS).
//!
//! A convolution is executed as a triple tile loop: output-channel tiles
//! (`K`-tiles of `cols` channels), input-channel tiles (`C`-tiles of
//! `rows` channels) and kernel positions (`k²`). Each tile pass loads the
//! stationary weights from the CS's RRAM bank, fills the array, streams
//! one output-pixel column per cycle and drains.

use serde::{Deserialize, Serialize};

use crate::workload::Layer;

/// Geometry of one CS datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsGeometry {
    /// Array rows (input channels unrolled).
    pub rows: u32,
    /// Array columns (output channels unrolled).
    pub cols: u32,
    /// Weight precision in bits.
    pub weight_bits: u32,
    /// Activation precision in bits.
    pub act_bits: u32,
}

impl Default for CsGeometry {
    fn default() -> Self {
        Self {
            rows: 16,
            cols: 16,
            weight_bits: 8,
            act_bits: 8,
        }
    }
}

impl CsGeometry {
    /// Peak MACs per cycle (`P_peak` per CS).
    pub fn peak_ops(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }

    /// Bits of weights held stationary in one tile pass.
    pub fn tile_weight_bits(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols) * u64::from(self.weight_bits)
    }
}

/// Per-layer tile-loop breakdown for one CS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileSchedule {
    /// Output-channel tiles assigned to this CS.
    pub k_tiles: u32,
    /// Input-channel tiles.
    pub c_tiles: u32,
    /// Kernel positions (k²).
    pub positions: u32,
    /// Streaming cycles per tile pass (output pixels).
    pub stream_cycles: u64,
    /// Fill + drain cycles per tile pass.
    pub fill_drain_cycles: u64,
    /// Weight-load cycles per tile pass at the bank bandwidth.
    pub weight_load_cycles: u64,
}

impl TileSchedule {
    /// Total compute cycles for this CS on the layer.
    pub fn total_cycles(&self) -> u64 {
        u64::from(self.k_tiles)
            * u64::from(self.c_tiles)
            * u64::from(self.positions)
            * (self.stream_cycles + self.fill_drain_cycles + self.weight_load_cycles)
    }
}

/// Builds the tile schedule for `layer` on one CS that owns
/// `k_tiles_assigned` output-channel tiles and reads weights from a bank
/// delivering `bank_bits_per_cycle`.
pub fn schedule_layer(
    layer: &Layer,
    geom: &CsGeometry,
    k_tiles_assigned: u32,
    bank_bits_per_cycle: u32,
) -> TileSchedule {
    let c_tiles = layer.in_channels.div_ceil(geom.rows).max(1);
    let positions = layer.kernel * layer.kernel;
    let stream = u64::from(layer.out_w) * u64::from(layer.out_h);
    let fill_drain = u64::from(geom.rows) + u64::from(geom.cols);
    let wload = geom
        .tile_weight_bits()
        .div_ceil(u64::from(bank_bits_per_cycle.max(1)));
    TileSchedule {
        k_tiles: k_tiles_assigned.max(1),
        c_tiles,
        positions: positions.max(1),
        stream_cycles: stream,
        fill_drain_cycles: fill_drain,
        weight_load_cycles: wload,
    }
}

/// The dataflow executed by the array.
///
/// The paper's accelerator is weight-stationary (weights rest in the
/// PEs, ideal when weights live in RRAM); the output-stationary
/// alternative keeps partial sums in place and *streams* weights, which
/// multiplies RRAM weight traffic by the number of output-pixel tiles —
/// the ablation `cargo run -p m3d-bench --bin ablation_dataflow` shows
/// why WS is the right choice for an RRAM-backed design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Dataflow {
    /// Weights rest in the array; inputs stream (the paper's design).
    #[default]
    WeightStationary,
    /// Partial sums rest in the array; weights stream.
    OutputStationary,
}

/// Output-stationary schedule: the array holds a `rows×cols` tile of
/// output pixels for one output channel; each pass streams the channel's
/// `C·k²` weights (re-reading them once per pixel tile). Returns
/// `(cycles, weight_bits_read)` for a CS owning `k_channels` output
/// channels.
pub fn schedule_layer_output_stationary(
    layer: &Layer,
    geom: &CsGeometry,
    k_channels: u32,
    bank_bits_per_cycle: u32,
) -> (u64, u64) {
    let pixels = u64::from(layer.out_w) * u64::from(layer.out_h);
    let array = geom.peak_ops();
    let p_tiles = pixels.div_ceil(array).max(1);
    let pass_weights_bits = u64::from(layer.in_channels)
        * u64::from(layer.kernel)
        * u64::from(layer.kernel)
        * u64::from(geom.weight_bits);
    let pass_compute =
        u64::from(layer.in_channels) * u64::from(layer.kernel) * u64::from(layer.kernel);
    let pass_stream = pass_weights_bits.div_ceil(u64::from(bank_bits_per_cycle.max(1)));
    let fill_drain = u64::from(geom.rows) + u64::from(geom.cols);
    let passes = u64::from(k_channels.max(1)) * p_tiles;
    let cycles = passes * (pass_compute.max(pass_stream) + fill_drain);
    let weight_bits = passes * pass_weights_bits;
    (cycles, weight_bits)
}

/// Unique input-activation words a layer touches (for shared-bus traffic):
/// `C × min(ix, OX·k) × min(iy, OY·k)` where `ix/iy` are the receptive
/// spans — strided kernels smaller than the stride skip pixels.
pub fn unique_input_words(layer: &Layer) -> u64 {
    let span_w = (layer.out_w.saturating_sub(1)) * layer.stride + layer.kernel;
    let span_h = (layer.out_h.saturating_sub(1)) * layer.stride + layer.kernel;
    let used_w = span_w.min(layer.out_w * layer.kernel);
    let used_h = span_h.min(layer.out_h * layer.kernel);
    u64::from(layer.in_channels) * u64::from(used_w) * u64::from(used_h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Layer;

    fn geom() -> CsGeometry {
        CsGeometry::default()
    }

    #[test]
    fn peak_ops_and_tile_bits() {
        let g = geom();
        assert_eq!(g.peak_ops(), 256);
        assert_eq!(g.tile_weight_bits(), 2048);
    }

    #[test]
    fn l4_conv_schedule() {
        let l = Layer::conv("L4", 512, 512, 3, (7, 7), 1);
        // One CS owning 4 of the 32 K-tiles, fed by a 256-bit bank.
        let s = schedule_layer(&l, &geom(), 4, 256);
        assert_eq!(s.c_tiles, 32);
        assert_eq!(s.positions, 9);
        assert_eq!(s.stream_cycles, 49);
        assert_eq!(s.fill_drain_cycles, 32);
        assert_eq!(s.weight_load_cycles, 8);
        assert_eq!(s.total_cycles(), 4 * 32 * 9 * (49 + 32 + 8));
    }

    #[test]
    fn narrow_stem_uses_one_c_tile() {
        let l = Layer::conv("CONV1", 3, 64, 7, (112, 112), 2);
        let s = schedule_layer(&l, &geom(), 4, 256);
        assert_eq!(s.c_tiles, 1, "3 input channels fit one 16-row tile");
        assert_eq!(s.positions, 49);
    }

    #[test]
    fn unique_inputs_respect_stride_skipping() {
        // 1×1 stride-2: only every other pixel is read.
        let ds = Layer::conv("DS", 64, 128, 1, (28, 28), 2);
        assert_eq!(unique_input_words(&ds), 64 * 28 * 28);
        // 3×3 stride-1 on 56×56 reads the 58-wide halo.
        let c = Layer::conv("C", 64, 64, 3, (56, 56), 1);
        assert_eq!(unique_input_words(&c), 64 * 58 * 58);
        // 3×3 stride-2 covers the doubled map.
        let c2 = Layer::conv("C2", 64, 128, 3, (28, 28), 2);
        assert_eq!(unique_input_words(&c2), 64 * 57 * 57);
    }

    #[test]
    fn weight_load_rounds_up() {
        let l = Layer::conv("x", 16, 16, 1, (4, 4), 1);
        let s = schedule_layer(&l, &geom(), 1, 1000);
        assert_eq!(s.weight_load_cycles, 3, "2048/1000 rounds up to 3");
    }
}
