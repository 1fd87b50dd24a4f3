//! # m3d-core — the paper's contribution
//!
//! The analytical framework and design-point machinery of *"Ultra-Dense
//! 3D Physical Design Unlocks New Architectural Design Points with Large
//! Benefits"* (DATE 2023):
//!
//! * [`framework`] — equations (1)–(8): execution time, energy, speedup
//!   and EDP benefit of iso-footprint, iso-memory-capacity M3D vs 2D;
//! * [`design_point`] — eq. (2) with physical-design overheads: how many
//!   parallel computing sub-systems the freed Si under the RRAM array
//!   hosts (N = 8 for the 64 MB case study);
//! * [`cases`] — Case 1 (relaxed CNFET drive δ, eqs. 9–12), Case 2 (ILV
//!   pitch β, `A = m·k·β²`) and Case 3 (interleaved tier pairs);
//! * [`thermal`] — eq. (17) and the tier cap of Observation 10;
//! * [`explore`] — the sweep drivers regenerating Figs. 8–10.
//!
//! # Quickstart
//!
//! ```
//! use m3d_core::design_point::case_study_design_point;
//! use m3d_core::framework::{edp_benefit, ChipParams, WorkloadPoint};
//! use m3d_tech::Pdk;
//!
//! # fn main() -> Result<(), m3d_core::CoreError> {
//! // The paper's design point: folding the 64 MB RRAM's selectors onto
//! // the CNFET tier frees room for 8 parallel CSs.
//! let dp = case_study_design_point(&Pdk::m3d_130nm(), 64)?;
//! assert_eq!(dp.n_cs, 8);
//!
//! // A compute-bound layer gains nearly N× in EDP.
//! let w = WorkloadPoint::new(16.0e6, 1.0e6, 64);
//! let gain = edp_benefit(&ChipParams::baseline_2d(), &dp.m3d_params(), &w);
//! assert!(gain > 6.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cases;
pub mod design_point;
pub mod engine;
pub mod error;
pub mod explore;
pub mod framework;
pub mod obs;
pub mod report;
pub mod roofline;
pub mod sensitivity;
pub mod thermal;

pub use cases::{
    case1_relaxation, case1_sweep, case2_via_pitch, case3_tiers, case4_upper_logic,
    via_pitch_equivalent_delta, BaselineAreas, RelaxationPoint, TierPoint, UpperLogicPoint,
};
pub use design_point::{case_study_design_point, DesignPoint, CASE_STUDY_CS_DEMAND_MM2};
pub use engine::{
    jobs, par_map, par_map_jobs, CacheStats, ExperimentReport, FlowCache, Pipeline, Stage,
    StageRecord,
};
pub use error::{CoreError, CoreResult, ErrorCode};
pub use explore::{
    bandwidth_cs_grid, capacity_sweep, fig5_comparisons, intensity_workload,
    sram_baseline_design_point, tier_sweep, CapacityPoint, GridPoint,
};
pub use framework::{
    edp_benefit, energy_pj, energy_ratio, evaluate_workload, exec_cycles, memory_cycles, n_max,
    speedup, workload_edp_benefit, ChipParams, FrameworkTotals, MemoryTraffic, WorkloadPoint,
};
pub use obs::{trace_document, Provenance, Recorder, SpanNode};
pub use report::{ExperimentRecord, Metric, Row};
pub use roofline::{Roofline, SocRoofline};
pub use sensitivity::{
    edp_benefit_sensitivity, edp_benefit_sensitivity_pruned, Perturbation, SensitivityResult,
};
pub use thermal::{ThermalModel, TierThermalModel};
