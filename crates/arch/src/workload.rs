//! DNN workload descriptors: layer shapes and the derived quantities the
//! performance models consume (`F₀` compute operations, `D₀` memory
//! traffic, `N#` maximum parallel partitions).

use serde::{Deserialize, Serialize};

/// The kind of a network layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Depthwise convolution (one filter per channel — MobileNet-style).
    Depthwise,
    /// Fully connected (matrix–vector).
    FullyConnected,
    /// Pooling (fused into the preceding layer's streaming pass).
    Pool,
}

/// One DNN layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Layer name, e.g. `"L2.0 CONV1"`.
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Input channels (C).
    pub in_channels: u32,
    /// Output channels (K).
    pub out_channels: u32,
    /// Kernel spatial size (square kernels: `kernel × kernel`).
    pub kernel: u32,
    /// Output feature-map width (OX).
    pub out_w: u32,
    /// Output feature-map height (OY).
    pub out_h: u32,
    /// Convolution stride.
    pub stride: u32,
}

impl Layer {
    /// Builds a convolution layer.
    pub fn conv(
        name: impl Into<String>,
        in_channels: u32,
        out_channels: u32,
        kernel: u32,
        out_wh: (u32, u32),
        stride: u32,
    ) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Conv,
            in_channels,
            out_channels,
            kernel,
            out_w: out_wh.0,
            out_h: out_wh.1,
            stride,
        }
    }

    /// Builds a depthwise convolution: `channels` independent `k×k`
    /// filters, one per channel (MobileNet-style).
    pub fn depthwise(
        name: impl Into<String>,
        channels: u32,
        kernel: u32,
        out_wh: (u32, u32),
        stride: u32,
    ) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Depthwise,
            in_channels: channels,
            out_channels: channels,
            kernel,
            out_w: out_wh.0,
            out_h: out_wh.1,
            stride,
        }
    }

    /// Builds a fully connected layer (`1×1` output map).
    pub fn fc(name: impl Into<String>, in_features: u32, out_features: u32) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::FullyConnected,
            in_channels: in_features,
            out_channels: out_features,
            kernel: 1,
            out_w: 1,
            out_h: 1,
            stride: 1,
        }
    }

    /// Multiply-accumulate operations in this layer.
    pub fn macs(&self) -> u64 {
        let cross_channel = match self.kind {
            LayerKind::Depthwise => 1,
            _ => u64::from(self.in_channels),
        };
        cross_channel
            * u64::from(self.out_channels)
            * u64::from(self.kernel)
            * u64::from(self.kernel)
            * u64::from(self.out_w)
            * u64::from(self.out_h)
    }

    /// Compute operations `F₀` (one MAC = one operation, matching the
    /// paper's `P_peak` convention of MACs/cycle).
    pub fn ops(&self) -> u64 {
        self.macs()
    }

    /// Weight parameters in this layer.
    pub fn weights(&self) -> u64 {
        let cross_channel = match self.kind {
            LayerKind::Depthwise => 1,
            _ => u64::from(self.in_channels),
        };
        cross_channel
            * u64::from(self.out_channels)
            * u64::from(self.kernel)
            * u64::from(self.kernel)
    }

    /// Weight bits at `bits` per parameter (the `D₀` read from RRAM).
    pub fn weight_bits(&self, bits: u32) -> u64 {
        self.weights() * u64::from(bits)
    }

    /// Output activation words written.
    pub fn output_words(&self) -> u64 {
        u64::from(self.out_channels) * u64::from(self.out_w) * u64::from(self.out_h)
    }

    /// Activation traffic in bits: inputs read once per K-tile pass plus
    /// outputs written, at `bits` per word, for a systolic array with
    /// `array_rows` input channels per pass.
    pub fn activation_bits(&self, bits: u32, array_rows: u32) -> u64 {
        // Inputs must be streamed once per C-tile (C/rows passes of the
        // full output map); outputs written once.
        let c_tiles = self.in_channels.div_ceil(array_rows).max(1);
        let per_pass = u64::from(self.kernel)
            * u64::from(self.kernel)
            * u64::from(self.out_w)
            * u64::from(self.out_h)
            * u64::from(array_rows.min(self.in_channels));
        per_pass * u64::from(c_tiles) * u64::from(bits) + self.output_words() * u64::from(bits)
    }

    /// Maximum parallel partitions `N#` for a weight-stationary array
    /// with `array_cols` output channels per tile: independent K-tile
    /// groups can run on different CSs without cross-CS accumulation.
    pub fn max_partitions(&self, array_cols: u32) -> u32 {
        self.out_channels.div_ceil(array_cols).max(1)
    }
}

/// A whole network: an ordered list of layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Network name, e.g. `"ResNet-18"`.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl Workload {
    /// Creates a workload from layers.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Self {
            name: name.into(),
            layers,
        }
    }

    /// Total operations across layers.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(Layer::ops).sum()
    }

    /// Total weight parameters.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(Layer::weights).sum()
    }

    /// Total model size in bytes at `bits` per weight.
    pub fn model_bytes(&self, bits: u32) -> u64 {
        self.total_weights() * u64::from(bits) / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l4_conv() -> Layer {
        Layer::conv("L4.0 CONV2", 512, 512, 3, (7, 7), 1)
    }

    /// Arithmetic intensity: operations per 8-bit weight bit.
    fn ops_per_weight_bit(l: &Layer) -> f64 {
        l.ops() as f64 / l.weight_bits(8) as f64
    }

    #[test]
    fn macs_and_weights() {
        let l = l4_conv();
        assert_eq!(l.macs(), 512 * 512 * 9 * 49);
        assert_eq!(l.weights(), 512 * 512 * 9);
        assert_eq!(l.weight_bits(8), 512 * 512 * 9 * 8);
        assert_eq!(l.ops(), l.macs());
    }

    #[test]
    fn fc_layer_shape() {
        let l = Layer::fc("FC", 512, 1000);
        assert_eq!(l.macs(), 512_000);
        assert_eq!(l.weights(), 512_000);
        assert_eq!(l.output_words(), 1000);
    }

    #[test]
    fn partitions_follow_output_channels() {
        let l = l4_conv();
        assert_eq!(l.max_partitions(16), 32);
        let early = Layer::conv("L1.0 CONV1", 64, 64, 3, (56, 56), 1);
        assert_eq!(early.max_partitions(16), 4);
        let tiny = Layer::conv("t", 8, 8, 1, (4, 4), 1);
        assert_eq!(tiny.max_partitions(16), 1);
    }

    #[test]
    fn activation_traffic_scales_with_c_tiles() {
        let l = l4_conv();
        // 512 input channels → 32 C-tiles of 16 rows.
        let bits = l.activation_bits(8, 16);
        let per_pass = 9u64 * 49 * 16 * 8;
        assert_eq!(bits, per_pass * 32 + l.output_words() * 8);
    }

    #[test]
    fn intensity_distinguishes_conv_from_fc() {
        let conv = l4_conv();
        let fc = Layer::fc("FC", 512, 1000);
        assert!(ops_per_weight_bit(&conv) > ops_per_weight_bit(&fc));
        // FC reads each weight once: 1 MAC per weight = 1/8 ops per bit.
        assert!((ops_per_weight_bit(&fc) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn depthwise_layers_have_per_channel_filters() {
        let dw = Layer::depthwise("DW", 512, 3, (14, 14), 1);
        assert_eq!(dw.macs(), 512 * 9 * 14 * 14);
        assert_eq!(dw.weights(), 512 * 9);
        // A dense conv of the same shape does 512× the work.
        let dense = Layer::conv("C", 512, 512, 3, (14, 14), 1);
        assert_eq!(dense.macs(), dw.macs() * 512);
        // Depthwise arithmetic intensity (ops per weight bit) matches a
        // dense conv on the same map: both do OX·OY MACs per weight.
        assert!((ops_per_weight_bit(&dw) - ops_per_weight_bit(&dense)).abs() < 1e-12);
        assert_eq!(dw.max_partitions(16), 32);
    }

    #[test]
    fn workload_roll_up() {
        let w = Workload::new("tiny", vec![l4_conv(), Layer::fc("FC", 512, 1000)]);
        assert_eq!(w.total_ops(), l4_conv().ops() + 512_000);
        assert_eq!(w.total_weights(), l4_conv().weights() + 512_000);
        assert_eq!(w.model_bytes(8), w.total_weights());
    }
}
