//! Voxelized 3D thermal analysis of the M3D stack (Observation 10 at
//! grid fidelity).
//!
//! The analytic eq. 17 lump in `m3d-core` treats each tier pair as one
//! resistance; this crate solves the stack as a physical model:
//!
//! 1. **Voxelize** — [`GridConfig::from_stack`] slices the
//!    `m3d-tech` [`m3d_tech::LayerStack`]'s thermal profile (substrate,
//!    active tiers, BEOL + RRAM slabs) into an `nx × ny × nz` RC grid.
//! 2. **Deposit** — [`PowerMap`] lays heat onto the source layers:
//!    uniform per-pair budgets for sweeps, or the physical-design
//!    sign-off's [`m3d_pd::PowerDensityGrid`] resampled tile-by-tile.
//! 3. **Solve** — [`solve_steady`] runs red-black SOR on the calling
//!    thread, deterministic at any worker count; [`step_phases`] adds a coarse explicit-Euler
//!    transient driven by `m3d-arch` workload [`m3d_arch::trace::Phase`]s.
//!
//! A grid tier cap is the largest pair count whose steady peak rise stays
//! within the budget, as the `obs10_thermal` and `thermal_cap` cases
//! read it off a per-tier-count sweep. [`LumpedGridModel`] solves the
//! analytic chain on the same grid machinery and must agree with eq. 17
//! within 2 % (the crate's limiting-case validation). [`ThermalCache`]
//! memoizes solves by [`m3d_tech::StableHash`] content key.

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod grid;
pub mod model;
pub mod power;
pub mod solve;
pub mod transient;

pub use cache::ThermalCache;
pub use error::{ThermalError, ThermalResult};
pub use grid::GridConfig;
pub use model::LumpedGridModel;
pub use power::PowerMap;
pub use solve::{solve_steady, SolverConfig, SteadySolution};
pub use transient::{phase_power, step_phases, PhaseInterval, TransientConfig, TransientResult};
