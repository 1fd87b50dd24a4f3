//! # m3d-arch — accelerator architecture substrate
//!
//! The architectural-simulation layer of the DATE 2023 M3D reproduction:
//!
//! * [`workload`] / [`models`] — DNN layer descriptors and the paper's
//!   evaluation networks (AlexNet, VGG-16, ResNet-18, ResNet-152);
//! * [`systolic`] — the tile-level cycle model of the weight-stationary
//!   16×16 computing sub-system;
//! * [`sim`] — the chip simulator (N CSs, banked RRAM, shared activation
//!   bus) that regenerates Table I and Fig. 5;
//! * [`accel`] — the Table II architecture zoo;
//! * [`zigzag`] — a ZigZag-style mapping DSE used as the independent
//!   cross-check of Fig. 7;
//! * [`energy`] — the PDK-calibrated energy constants;
//! * [`trace`] — the workload [`Phase`]s whose power weights drive the
//!   thermal transient.
//!
//! # Quickstart
//!
//! ```
//! use m3d_arch::{compare, models, ChipConfig};
//!
//! let table1 = compare(
//!     &ChipConfig::baseline_2d(),
//!     &ChipConfig::m3d(8),
//!     &models::resnet18(),
//! );
//! assert!(table1.total.speedup > 5.0);
//! assert!(table1.total.energy_ratio > 0.95);
//! ```

#![warn(missing_docs)]

pub mod accel;
pub mod batch;
pub mod energy;
pub mod models;
pub mod sim;
pub mod systolic;
pub mod trace;
pub mod workload;
pub mod zigzag;

pub use accel::{table2_architectures, AccelArch, BufferSpec, SpatialUnroll};
pub use batch::{batch_speedup, simulate_batch, BatchPerf};
pub use energy::EnergyModel;
pub use sim::{
    compare, simulate, simulate_layer, ChipConfig, ChipPerf, Comparison, ComparisonRow,
    EnergyBreakdown, LayerPerf,
};
pub use systolic::{
    schedule_layer, schedule_layer_output_stationary, unique_input_words, CsGeometry, Dataflow,
    TileSchedule,
};
pub use trace::Phase;
pub use workload::{Layer, LayerKind, Workload};
pub use zigzag::{map_layer, map_workload, MapperChip, Mapping, MappingCost};
