//! The repository benchmark: four named workloads driven in-process
//! through the repository's public APIs, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run. The
//! `m3d-perfbench` binary is the command-line front end.

pub mod client;
pub mod inputs;
pub mod metrics;
pub mod pins;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workloads;
