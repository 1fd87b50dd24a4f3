//! # m3d-pd — the physical-design substrate (RTL-to-GDS flow)
//!
//! This crate stands in for the commercial EDA flow the paper uses
//! (Synopsys DC synthesis + modified Cadence Innovus 3D place-and-route +
//! Cadence Tempus power): floorplanning with RRAM macro blockages,
//! cluster-based annealing global placement with an under-array region
//! for M3D, Steiner/HPWL routing estimation with per-layer RC and ILV
//! counting, Elmore static timing analysis, post-route buffer insertion
//! and upsizing, activity-based power sign-off with a power-density map,
//! and a GDS-like JSON layout export.
//!
//! The entry point is [`Rtl2GdsFlow`]:
//!
//! ```no_run
//! use m3d_pd::flow::{FlowConfig, Rtl2GdsFlow};
//!
//! # fn main() -> Result<(), m3d_pd::PdError> {
//! // 2D baseline, then the iso-footprint M3D design in the same outline.
//! let (r2d, _) = Rtl2GdsFlow::new(FlowConfig::baseline_2d()).run()?;
//! let m3d = FlowConfig::m3d(8).with_die(r2d.die);
//! let (r3d, _) = Rtl2GdsFlow::new(m3d).run()?;
//! assert_eq!(r3d.die_mm2, r2d.die_mm2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod congestion;
pub mod cts;
pub mod drc;
pub mod error;
pub mod floorplan;
pub mod flow;
pub mod gds;
pub mod geom;
pub mod legalize;
pub mod observe;
pub mod opt;
pub mod partition;
pub mod place;
pub mod power;
pub mod route;
pub mod spef;
pub mod sta;

pub use cluster::{Cluster, ClusterKind, Clustering};
pub use congestion::{analyze_congestion, CongestionMap};
pub use cts::{estimate_clock_tree, ClockTree};
pub use drc::{check_placement, DrcKind, DrcReport, DrcViolation};
pub use error::{PdError, PdResult};
pub use floorplan::{under_array_usable_area, FixedBlock, Floorplan, Region, RegionKind};
pub use flow::{
    cs_geometric_demand, FlowArtifacts, FlowConfig, FlowReport, NetlistSource, ParamPoint,
    PlacementSeed, Rtl2GdsFlow,
};
pub use gds::LayoutExport;
pub use geom::{BoundingBox, Point, Rect};
pub use legalize::{legalize, LegalizeReport};
pub use observe::round_counter;
pub use opt::{post_route_optimize, OptConfig, OptOutcome};
pub use partition::{fold_two_tier, FoldingReport};
pub use place::{place, place_traced, Placement, PlacerConfig};
pub use power::{analyze_power, PowerDensityGrid, PowerReport, DEFAULT_ACTIVITY};
pub use route::{estimate_routing, reestimate_routing, RoutedNet, RoutingEstimate, DEFAULT_DETOUR};
pub use spef::to_spef;
pub use sta::{analyze_timing, EndpointSlack, TimingReport};
