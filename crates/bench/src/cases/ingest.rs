//! The `ingest` case: an externally-authored netlist — EDIF 2.0.0 or
//! structural Verilog — flattened by `m3d-ingest` and implemented
//! through the full RTL-to-GDS flow.
//!
//! The flow-cache key is derived from the [`StableHash`] of the
//! *flattened* netlist (via `FlowConfig`'s `NetlistSource::External`),
//! so the same design uploaded twice — whatever its id, whitespace or
//! upload path — coalesces in flight and replays from
//! `FlowCache`/`M3D_CACHE_DIR` like any generated configuration.
//!
//! Validation parses and elaborates the source in full, so the service
//! answers malformed designs with a `bad-request` carrying `line N,
//! column M` before the request ever occupies a queue slot or worker.

use std::sync::Arc;

use m3d_core::engine::{FetchOpts, Stage};
use m3d_core::obs::{Recorder, SpanNode};
use m3d_ingest::{ingest, Format, IngestReport};
use m3d_pd::FlowConfig;
use m3d_tech::StableHash;
use serde::Value;

use crate::cases::{case_cs, flows::staged_fetch};
use crate::registry::{
    field, obj, reject_unknown, Case, CaseCtx, CaseError, CaseOutcome, ParamField,
};

/// Largest accepted source payload in bytes: bounds the parse work a
/// single (pre-queue) validation can burn and keeps NDJSON request
/// lines reasonable.
pub const MAX_SOURCE_BYTES: usize = 1 << 20;

/// The design ingested when no `source`/`file` parameter is given: the
/// checked-in hierarchical 4-bit adder example.
const DEFAULT_SOURCE: &str = include_str!("../../../../examples/adder4.edif");

/// `ingest` — flatten an uploaded netlist and run it through the flow.
pub struct IngestCase;

/// Typed parameters of [`IngestCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct IngestParams {
    /// The netlist source text (inline, from `file`, or the built-in
    /// example).
    pub source: String,
    /// Format selector (`auto` sniffs: EDIF opens with `(`).
    pub format: Format,
    /// Reduced-effort flow.
    pub quick: bool,
}

impl IngestParams {
    /// Parses and range-checks the wire params, resolving `file` paths
    /// to their contents.
    ///
    /// # Errors
    ///
    /// [`m3d_core::ErrorCode::BadRequest`]-coded on malformed or
    /// oversized values, unreadable files, or unknown format names.
    pub fn parse(quick: bool, params: &Value) -> Result<Self, CaseError> {
        reject_unknown(params, &["source", "file", "format"])?;
        let text = |key: &str| -> Result<Option<String>, CaseError> {
            match field(params, key) {
                None => Ok(None),
                Some(Value::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(CaseError::bad_request(format!(
                    "parameter `{key}` must be a string"
                ))),
            }
        };
        let source = match (text("source")?, text("file")?) {
            (Some(_), Some(_)) => {
                return Err(CaseError::bad_request(
                    "parameters `source` and `file` are mutually exclusive",
                ));
            }
            (Some(inline), None) => inline,
            (None, Some(path)) => std::fs::read_to_string(&path).map_err(|e| {
                CaseError::bad_request(format!("cannot read `file` = `{path}`: {e}"))
            })?,
            (None, None) => DEFAULT_SOURCE.to_owned(),
        };
        if source.len() > MAX_SOURCE_BYTES {
            return Err(CaseError::bad_request(format!(
                "source payload is {} bytes; the limit is {MAX_SOURCE_BYTES}",
                source.len()
            )));
        }
        let format = match text("format")? {
            None => Format::Auto,
            Some(name) => Format::from_name(&name).ok_or_else(|| {
                CaseError::bad_request(format!(
                    "parameter `format` must be one of: auto, edif, verilog (got `{name}`)"
                ))
            })?,
        };
        Ok(Self {
            source,
            format,
            quick,
        })
    }

    /// Parses and flattens the source, timing the front-end into the
    /// process metrics (`ingest.parse_ns` — wall-clock, so it never
    /// appears in the deterministic trace).
    fn flatten(&self) -> Result<IngestReport, CaseError> {
        let start = std::time::Instant::now();
        let out =
            ingest(&self.source, self.format).map_err(|e| CaseError::bad_request(e.to_string()))?;
        // The floorplanner refuses non-lint-clean netlists; surfacing
        // the issues here keeps them bad-requests (caught pre-queue)
        // instead of internal flow failures.
        let issues = out.netlist.lint();
        if !issues.is_empty() {
            return Err(CaseError::bad_request(format!(
                "design fails netlist lint: {}",
                issues.join("; ")
            )));
        }
        let rec = Recorder::global();
        rec.incr("ingest.runs", 1);
        rec.incr(
            "ingest.parse_ns",
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        rec.incr("ingest.cells", out.netlist.cell_count() as u64);
        rec.incr("ingest.nets", out.netlist.nets().len() as u64);
        Ok(out)
    }
}

impl Case for IngestCase {
    fn name(&self) -> &'static str {
        "ingest"
    }

    fn summary(&self) -> &'static str {
        "flatten an uploaded EDIF/Verilog netlist and run the RTL-to-GDS flow"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[
            ParamField {
                name: "source",
                default: "examples/adder4.edif (embedded)",
            },
            ParamField {
                name: "file",
                default: "unset",
            },
            ParamField {
                name: "format",
                default: "auto",
            },
        ]
    }

    fn validate(&self, quick: bool, params: &Value) -> Result<(), CaseError> {
        // Full parse + elaboration: bounded by MAX_SOURCE_BYTES, and it
        // means a malformed design is refused before enqueue with the
        // exact `line N, column M` diagnostic the run would hit.
        IngestParams::parse(quick, params)?.flatten().map(drop)
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let p = IngestParams::parse(quick, params)?;
        let ingested = ctx.stage(Stage::Netlist, "ingest", |sctx| {
            let out = p.flatten()?;
            // Deterministic front-end counters for the trace: shape
            // only, no timings.
            let mut span = SpanNode::new("parse");
            span.counter("ingest.cells", out.netlist.cell_count() as u64);
            span.counter("ingest.nets", out.netlist.nets().len() as u64);
            span.counter("ingest.macros", out.netlist.macros().len() as u64);
            span.counter("ingest.flatten_depth", u64::from(out.flatten_depth));
            sctx.child_span(span);
            Ok::<_, CaseError>(out)
        })?;
        let netlist = Arc::new(ingested.netlist);
        let content_key = netlist.stable_key();
        let mut cfg = FlowConfig::baseline_2d()
            .with_cs(case_cs(quick))
            .with_external_netlist(Arc::clone(&netlist));
        if quick {
            cfg = cfg.quick();
        }
        let fetch = ctx.stage(Stage::PdFlow, "ingest", |sctx| {
            staged_fetch(ctx.flows, sctx, &cfg, FetchOpts::report())
        })?;
        let r = &*fetch.report;
        Ok(CaseOutcome {
            result: obj(vec![
                ("design", Value::Str(r.design.clone())),
                ("format", Value::Str(ingested.format.to_owned())),
                ("ingest_cells", Value::U64(netlist.cell_count() as u64)),
                ("ingest_nets", Value::U64(netlist.nets().len() as u64)),
                ("ingest_macros", Value::U64(netlist.macros().len() as u64)),
                (
                    "flatten_depth",
                    Value::U64(u64::from(ingested.flatten_depth)),
                ),
                ("content_key", Value::Str(format!("{content_key:016x}"))),
                ("die_mm2", Value::F64(r.die_mm2)),
                ("cell_count", Value::U64(r.cell_count as u64)),
                ("wirelength_m", Value::F64(r.wirelength_m)),
                ("critical_path_ns", Value::F64(r.critical_path_ns)),
                ("timing_met", Value::Bool(r.timing_met)),
                ("total_power_mw", Value::F64(r.total_power_mw)),
            ]),
            cache_hit: fetch.reused(),
            coalesced: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(fields: Vec<(&str, Value)>) -> Value {
        obj(fields)
    }

    #[test]
    fn default_params_resolve_to_the_embedded_example() {
        let p = IngestParams::parse(true, &Value::Null).unwrap();
        assert_eq!(p.source, DEFAULT_SOURCE);
        assert_eq!(p.format, Format::Auto);
        let flat = p.flatten().unwrap();
        assert_eq!(flat.netlist.name, "adder4");
        assert_eq!(flat.flatten_depth, 2);
    }

    #[test]
    fn inline_source_and_file_are_mutually_exclusive() {
        let e = IngestParams::parse(
            false,
            &params(vec![
                ("source", Value::Str("(edif x)".into())),
                ("file", Value::Str("x.edif".into())),
            ]),
        )
        .unwrap_err();
        assert!(e.message.contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn oversized_payloads_are_capped() {
        let big = "x".repeat(MAX_SOURCE_BYTES + 1);
        let e = IngestParams::parse(false, &params(vec![("source", Value::Str(big))])).unwrap_err();
        assert_eq!(e.code, m3d_core::ErrorCode::BadRequest);
        assert!(e.message.contains("limit"), "{e}");
    }

    #[test]
    fn malformed_edif_validates_as_bad_request_with_position() {
        let e = IngestCase
            .validate(
                true,
                &params(vec![("source", Value::Str("(edif broken".into()))]),
            )
            .unwrap_err();
        assert_eq!(e.code, m3d_core::ErrorCode::BadRequest);
        assert!(e.message.contains("line 1, column 1"), "{e}");
    }

    #[test]
    fn lint_failures_are_bad_requests() {
        // Parses and elaborates, but net `na` has no driver — the
        // floorplanner would refuse it, so validation must.
        let src = "(edif d (library L (cell top (view v \
                   (interface (port y (direction OUTPUT))) \
                   (contents (instance u1 (cellRef INV_X1)) \
                   (net na (joined (portRef A (instanceRef u1)))) \
                   (net ny (joined (portRef Y (instanceRef u1)) (portRef y))))))))";
        let e = IngestCase
            .validate(true, &params(vec![("source", Value::Str(src.into()))]))
            .unwrap_err();
        assert_eq!(e.code, m3d_core::ErrorCode::BadRequest);
        assert!(e.message.contains("lint"), "{e}");
        assert!(e.message.contains("undriven"), "{e}");
    }

    #[test]
    fn unknown_format_names_are_rejected() {
        let e = IngestParams::parse(false, &params(vec![("format", Value::Str("vhdl".into()))]))
            .unwrap_err();
        assert!(e.message.contains("vhdl"), "{e}");
    }
}
