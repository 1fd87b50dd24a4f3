//! The unified experiment engine: one staged, instrumented, memoised and
//! parallelised execution substrate shared by every paper experiment.
//!
//! The paper's figures all follow the same shape — configure a technology
//! ([`m3d_tech::Pdk`]), generate a netlist, push it through the
//! RTL-to-GDS flow ([`m3d_pd::Rtl2GdsFlow`]), evaluate architectures
//! analytically or by simulation, and report a table. Before this module
//! every `m3d-bench` binary re-implemented that sequence ad hoc; the
//! engine factors it into four orthogonal pieces:
//!
//! * [`stage`] — the typed pipeline stages (`tech → netlist → pd-flow →
//!   arch-sim → report`) with per-stage wall-clock and provenance
//!   instrumentation, a uniform `stage, wall_ms, provenance` stderr
//!   summary, and the [`crate::obs::SpanNode`] trace tree behind the
//!   bench binaries' `--trace-json` flag;
//! * [`cache`] — a content-keyed [`cache::FlowCache`] memoising whole
//!   flow runs by the [`m3d_tech::StableHash`] of their
//!   [`m3d_pd::FlowConfig`], fetched through the single
//!   [`cache::FlowCache::fetch`] entry point — optionally backed by an
//!   on-disk [`store::DiskStore`] tier (`M3D_CACHE_DIR`) shared across
//!   CLI invocations and replicas, which also supplies warm-start
//!   placement seeds to every configuration sharing a placement key;
//! * [`store`] — the versioned on-disk files behind the cache's disk
//!   tier: one report per configuration key, one placement seed per
//!   placement key;
//! * [`inflight`] — a single-flight dedup map coalescing *concurrent*
//!   identical computations (the cache handles *repeated* ones); the
//!   experiment service (`m3d-serve`) and the coalescing fetch path run
//!   on it;
//! * [`parallel`] — a scoped-thread sweep executor ([`parallel::par_map`])
//!   that fans independent design points across cores, honouring the
//!   `M3D_JOBS` environment variable, with output ordering (and therefore
//!   every downstream number) independent of the worker count; a thread
//!   that is already one of a fixed set of workers
//!   ([`parallel::as_worker`]) runs its sweeps on itself;
//! * [`report`] — the [`report::ExperimentReport`] envelope serialised by
//!   the bench binaries' `--json` flag, byte-reproducible across runs.

pub mod cache;
pub mod corners;
pub mod inflight;
pub mod parallel;
pub mod report;
pub mod stage;
pub mod store;

pub use cache::{CacheStats, FetchOpts, FlowCache, FlowFetch};
pub use corners::{corner_sweep, CornerRun};
pub use inflight::{Flight, InFlight};
pub use parallel::{as_worker, jobs, par_map, par_map_jobs};
pub use report::{ExperimentReport, StageRecord};
pub use stage::{Pipeline, Stage, StageCtx};
pub use store::{DiskStore, StoredEnvelope};
