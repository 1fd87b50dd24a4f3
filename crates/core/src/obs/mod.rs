//! Observability: span traces, counters and histograms for the
//! experiment stack.
//!
//! Three pieces, layered so each consumer pays only for what it uses:
//!
//! * [`SpanNode`]/[`Provenance`] (from [`m3d_tech::span`], shared with
//!   the pd flow's phase spans) — per-stage execution traces built by
//!   `engine::Pipeline`, dumped via `--trace-json`. Deterministic mode
//!   renders structure + provenance only (no wall clock), so traces are
//!   byte-identical across `M3D_JOBS` values and machines.
//! * [`Histogram`] — fixed-bucket aggregates (latency, queue depth,
//!   solver iterations) that serialise to counts and edges only.
//! * [`Recorder`] — a sink owning named counters, last-value gauges,
//!   histograms and a bounded span ring; `m3d-serve` holds one per
//!   server for the `metrics` wire request, the `m3d-gateway` fleet
//!   router holds one for per-replica gauge families, and engine
//!   internals report into [`Recorder::global`].
//! * [`render`] — deterministic exposition of a recorder: Prometheus
//!   text format ([`render_text`]) behind `--metrics-text` and the
//!   serve `metrics_text` case, plus the versioned JSON document
//!   ([`metrics_document`]) behind `--metrics-json`.
//! * [`TraceContext`]/[`TraceSink`] — distributed tracing: the
//!   StableHash-derived trace identity a request carries across the
//!   NDJSON wire, and the flight recorder of recent stitched traces
//!   with slow-request exemplar retention behind the `traces` admin
//!   case.

mod context;
mod hist;
mod recorder;
pub mod render;
mod sink;
mod span;

pub use context::TraceContext;
pub use hist::{Histogram, DEPTH_EDGES, ITER_EDGES, LATENCY_US_EDGES};
pub use recorder::Recorder;
pub use render::{
    metrics_document, render_parts, render_text, sanitize_metric_name, span_ring_counters,
    validate_exposition, METRICS_VERSION,
};
pub use sink::{RecordOutcome, StitchedTrace, TraceFilter, TraceSink, TraceSinkConfig};
pub use span::{trace_document, Provenance, SpanNode, TRACE_VERSION};
