//! # m3d-serve — the concurrent experiment service
//!
//! Serves every `m3d_bench::registry` experiment case over a
//! newline-delimited-JSON TCP protocol, std-only (no async runtime, no
//! external networking crates):
//!
//! * **Shared caches** — one process-wide
//!   [`m3d_core::engine::FlowCache`] (disk-backed via `M3D_CACHE_DIR`)
//!   and [`m3d_thermal::ThermalCache`] behind all workers, plus a
//!   response cache keyed by request content, so repeated work replays
//!   instead of recomputing.
//! * **Request coalescing** — concurrent identical requests
//!   single-flight onto one execution
//!   ([`m3d_core::engine::InFlight`]): N clients asking for the same
//!   flow trigger exactly one flow run and all receive byte-identical
//!   payloads.
//! * **Backpressure** — a bounded job queue ([`queue::Bounded`]); when
//!   it is full, clients get an immediate 429 with a `retry_after_ms`
//!   hint rather than unbounded buffering.
//! * **Deadlines & drain** — per-request timeouts (408) and graceful
//!   shutdown that completes queued work before exiting.
//!
//! * **Fleet mode** — [`fleet`] scales one server to N supervised
//!   replica processes behind `m3d-gateway`: consistent-hash routing
//!   on the request content key (cache affinity), crash respawn with
//!   bounded backoff, transparent retry of idempotent requests, and a
//!   shared on-disk artifact tier via `M3D_CACHE_DIR`.
//!
//! Binaries: `m3d-serve` (the server) and `m3d-gateway` (the fleet
//! router). Drive either by hand with one JSON line per request (`nc`
//! works); `perfbench`'s `serve_mixed` workload generates load, and
//! the integration tests under `tests/` are the gates. See
//! `EXPERIMENTS.md` for the wire protocol and tuning knobs.

#![warn(missing_docs)]

pub mod fleet;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use fleet::{serve_fleet, FleetHandle, GatewayConfig};
pub use metrics::Metrics;
pub use protocol::{Request, Response};
pub use server::{serve, Handle, ServerConfig};
