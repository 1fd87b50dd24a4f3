//! Shared command-line driver for the experiment binaries.
//!
//! Every binary is a thin wrapper over [`case_main`], which looks its
//! registered [`Case`](crate::registry::Case) up in the
//! [`registry`](crate::registry::registry) and drives it with the same
//! flags everywhere:
//!
//! * `--quick` — scaled-down configuration for fast smoke runs;
//! * `--set <key>=<value>` — typed case parameter (repeatable); the
//!   value is validated by the case's params schema, so unknown keys and
//!   out-of-range values are rejected exactly like malformed `m3d-serve`
//!   requests;
//! * `--json <path>` — write the [`ExperimentReport`] produced by the run
//!   to `path` (deterministic, byte-reproducible JSON);
//! * `--trace-json <path>` — write the per-stage span tree
//!   ([`m3d_core::obs::trace_document`]) to `path`. The trace carries
//!   span names, nesting, cache provenance and deterministic integer
//!   counters only — no wall-clock numbers — so it is byte-identical
//!   across runs, machines and `M3D_JOBS` values;
//! * `--metrics-json <path>` — write the process-global
//!   [`Recorder`] as the versioned JSON document
//!   ([`m3d_core::obs::metrics_document`]);
//! * `--metrics-text <path>` — write the same recorder in Prometheus
//!   text exposition format ([`m3d_core::obs::render_text`]);
//!
//! and honours the `M3D_JOBS` environment variable for sweep
//! parallelism. Unknown flags are rejected with a usage message
//! (exit 2). On exit each binary prints the per-stage
//! `stage, wall_ms, provenance` summary to stderr via
//! [`Pipeline::eprint_summary`].
//!
//! The metrics artifacts are deterministic for a fixed configuration
//! (sorted names, integers only, no timestamps), but unlike the trace
//! they are *not* byte-identical across `M3D_JOBS` values: the
//! `par_map.workers` histogram genuinely observes how many workers each
//! sweep engaged.

use std::path::PathBuf;
use std::sync::Mutex;

use m3d_core::engine::{jobs, CacheStats, ExperimentReport, FlowCache, Pipeline, Stage};
use m3d_core::obs::{trace_document, Recorder};
use m3d_core::{ErrorCode, ExperimentRecord, Metric};
use m3d_thermal::ThermalCache;
use serde::Value;

use crate::registry::{registry, CaseCtx};

/// Parsed common flags.
#[derive(Debug, Clone, Default)]
pub struct RunArgs {
    /// `--quick`: scaled-down run.
    pub quick: bool,
    /// `--set key=value` pairs, in order of appearance.
    pub sets: Vec<(String, String)>,
    /// `--json <path>`: where to write the experiment report.
    pub json: Option<PathBuf>,
    /// `--trace-json <path>`: where to write the deterministic span
    /// trace.
    pub trace_json: Option<PathBuf>,
    /// `--metrics-json <path>`: where to write the global recorder as
    /// a versioned JSON document.
    pub metrics_json: Option<PathBuf>,
    /// `--metrics-text <path>`: where to write the global recorder in
    /// Prometheus text exposition format.
    pub metrics_text: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: [--quick] [--set key=value ...] [--json <path>] [--trace-json <path>] \
         [--metrics-json <path>] [--metrics-text <path>]"
    );
    std::process::exit(2);
}

impl RunArgs {
    /// Parses the process arguments, exiting with a usage message on
    /// malformed or unknown flags (exit 2).
    pub fn parse() -> Self {
        let mut out = Self::default();
        let mut args = std::env::args().skip(1);
        let path = |flag: &str, next: Option<String>| -> PathBuf {
            next.map_or_else(
                || {
                    eprintln!("error: {flag} requires a path argument");
                    usage();
                },
                PathBuf::from,
            )
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--set" => {
                    let Some(pair) = args.next() else {
                        eprintln!("error: --set requires a key=value argument");
                        usage();
                    };
                    let Some((k, v)) = pair.split_once('=') else {
                        eprintln!("error: --set expects key=value, got `{pair}`");
                        usage();
                    };
                    out.sets.push((k.to_owned(), v.to_owned()));
                }
                "--json" => out.json = Some(path("--json", args.next())),
                "--trace-json" => out.trace_json = Some(path("--trace-json", args.next())),
                "--metrics-json" => out.metrics_json = Some(path("--metrics-json", args.next())),
                "--metrics-text" => out.metrics_text = Some(path("--metrics-text", args.next())),
                other => {
                    eprintln!("error: unknown flag `{other}`");
                    usage();
                }
            }
        }
        out
    }

    /// The `--set` pairs as a params object for the typed case schema
    /// (`Value::Null` when no `--set` was given). Values parse as bool,
    /// then integer, then float, falling back to a string.
    pub fn params(&self) -> Value {
        if self.sets.is_empty() {
            return Value::Null;
        }
        Value::Object(
            self.sets
                .iter()
                .map(|(k, v)| (k.clone(), literal(v)))
                .collect(),
        )
    }

    /// Standard epilogue for an experiment binary: assembles the
    /// [`ExperimentReport`] from the finished pipeline, prints the
    /// per-stage timing summary (and sweep worker count) to stderr,
    /// records the run's span tree on the process [`Recorder`], and
    /// writes the JSON report and span trace when `--json` /
    /// `--trace-json` were given.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the JSON files.
    pub fn finalize(
        &self,
        record: ExperimentRecord,
        pipeline: &Pipeline,
        cache: CacheStats,
    ) -> std::io::Result<ExperimentReport> {
        let experiment = record.id.clone();
        let report = ExperimentReport::new(record, pipeline).with_cache(cache);
        pipeline.eprint_summary();
        eprintln!("# jobs: {}", jobs());
        let rec = Recorder::global();
        rec.incr("engine.runs", 1);
        rec.incr("engine.stages", report.stages.len() as u64);
        let root = pipeline.span_tree(&experiment);
        rec.record_span(root.clone());
        if let Some(path) = &self.trace_json {
            let doc = trace_document(&experiment, &root, false);
            let text = serde_json::to_string_pretty(&doc)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            std::fs::write(path, text + "\n")?;
            eprintln!("# trace: {} ({} spans)", path.display(), root.span_count());
        }
        if let Some(path) = &self.json {
            report.write_json(path)?;
            eprintln!("# json: {}", path.display());
        }
        if let Some(path) = &self.metrics_json {
            let doc = m3d_core::obs::metrics_document(rec);
            let text = serde_json::to_string_pretty(&doc)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            std::fs::write(path, text + "\n")?;
            eprintln!("# metrics-json: {}", path.display());
        }
        if let Some(path) = &self.metrics_text {
            std::fs::write(path, m3d_core::obs::render_text(rec))?;
            eprintln!("# metrics-text: {}", path.display());
        }
        Ok(report)
    }
}

/// A `--set` value literal: bool, then unsigned, then signed, then
/// float, falling back to a string.
fn literal(v: &str) -> Value {
    match v {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => v.parse::<u64>().map(Value::U64).unwrap_or_else(|_| {
            v.parse::<i64>().map(Value::I64).unwrap_or_else(|_| {
                v.parse::<f64>()
                    .map(Value::F64)
                    .unwrap_or_else(|_| Value::Str(v.to_owned()))
            })
        }),
    }
}

/// Numeric view of a JSON leaf for the derived record (booleans count
/// as 0/1; strings, nulls and containers are not metrics).
fn as_metric(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        Value::Bool(b) => Some(f64::from(*b)),
        Value::Null | Value::Str(_) | Value::Array(_) | Value::Object(_) => None,
    }
}

/// Derives the archival [`ExperimentRecord`] from a case's result
/// payload: top-level numeric fields become metrics, top-level arrays
/// of objects become rows (the first string field labels each row, the
/// numeric fields become its values, in payload order).
fn derive_record(id: &str, reproduces: &str, result: &Value) -> ExperimentRecord {
    let mut rec = ExperimentRecord::new(id, reproduces);
    let Value::Object(fields) = result else {
        return rec;
    };
    for (key, value) in fields {
        if let Some(num) = as_metric(value) {
            rec = rec.metric(Metric::new(key.clone(), num));
            continue;
        }
        let Value::Array(items) = value else {
            continue;
        };
        for (i, item) in items.iter().enumerate() {
            let Value::Object(cols) = item else {
                continue;
            };
            let label = cols
                .iter()
                .find_map(|(_, v)| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| format!("{key}{i}"));
            let values: Vec<(String, f64)> = cols
                .iter()
                .filter_map(|(name, v)| as_metric(v).map(|num| (name.clone(), num)))
                .collect();
            rec = rec.row(label, values);
        }
    }
    rec
}

/// The whole main of an experiment binary: looks `name` up in the
/// [`registry`], runs it against the process-shared caches with the
/// parsed flags, prints the deterministic result payload to stdout, and
/// finalizes the report/trace/metrics artifacts.
///
/// Exits 2 on parameter errors (the CLI analogue of a `BadRequest`
/// wire rejection) and 1 on evaluation or I/O failures.
pub fn case_main(name: &str, args: RunArgs) {
    let Some(case) = registry().iter().find(|c| c.name() == name) else {
        eprintln!("error: case `{name}` is not registered");
        std::process::exit(2);
    };
    let flows = FlowCache::persistent();
    let thermals = ThermalCache::new();
    let pipeline = Mutex::new(Pipeline::new());
    let params = args.params();
    let outcome = {
        let ctx = CaseCtx::new(&flows, &thermals).with_pipeline(&pipeline);
        case.run(&ctx, args.quick, &params)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(if err.code == ErrorCode::BadRequest {
                2
            } else {
                1
            });
        }
    };
    match serde_json::to_string_pretty(&outcome.result) {
        Ok(text) => println!("{text}"),
        Err(err) => {
            eprintln!("error: result serialization failed: {err}");
            std::process::exit(1);
        }
    }
    let mut pipe = pipeline.into_inner().expect("pipeline poisoned");
    let record = pipe.stage(Stage::Report, "", |_| {
        derive_record(name, case.summary(), &outcome.result)
    });
    let (fs, ts) = (flows.stats(), thermals.stats());
    let cache = CacheStats {
        hits: fs.hits + ts.hits,
        misses: fs.misses + ts.misses,
        disk_hits: fs.disk_hits,
    };
    if let Err(err) = args.finalize(record, &pipe, cache) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_parse_by_narrowest_type() {
        assert_eq!(literal("true"), Value::Bool(true));
        assert_eq!(literal("8"), Value::U64(8));
        assert_eq!(literal("-3"), Value::I64(-3));
        assert_eq!(literal("2.5"), Value::F64(2.5));
        assert_eq!(literal("ss,tt"), Value::Str("ss,tt".to_owned()));
    }

    #[test]
    fn derive_record_extracts_metrics_and_rows() {
        let result = Value::Object(vec![
            ("total".to_owned(), Value::F64(5.66)),
            ("count".to_owned(), Value::U64(3)),
            ("note".to_owned(), Value::Str("skipped".to_owned())),
            (
                "layers".to_owned(),
                Value::Array(vec![Value::Object(vec![
                    ("name".to_owned(), Value::Str("conv1".to_owned())),
                    ("speedup".to_owned(), Value::F64(4.0)),
                ])]),
            ),
        ]);
        let rec = derive_record("t", "test", &result);
        assert_eq!(rec.metrics.len(), 2);
        assert_eq!(rec.metrics[0].name, "total");
        assert_eq!(rec.rows.len(), 1);
        assert_eq!(rec.rows[0].label, "conv1");
        assert_eq!(rec.rows[0].values, vec![("speedup".to_owned(), 4.0)]);
    }
}
