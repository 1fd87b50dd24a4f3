//! The serialisable experiment envelope behind the bench binaries'
//! `--json` flag.
//!
//! [`ExperimentReport`] wraps the existing [`ExperimentRecord`] (metrics
//! and table rows) with engine provenance: which stages ran, whether each
//! was a cache hit, and the flow-cache counters. Wall-clock timings and
//! the worker count are deliberately **excluded** — they live only in
//! the stderr summary ([`crate::engine::Pipeline::eprint_summary`]) — so
//! the JSON artifact is byte-identical across runs and worker counts,
//! which the determinism regression test asserts.

use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::engine::cache::CacheStats;
use crate::engine::stage::Pipeline;
use crate::obs::{Provenance, SpanNode};
use crate::report::ExperimentRecord;

/// One executed stage, stripped of wall-clock time for reproducibility.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Stage name, optionally suffixed `:label` for repeated stages.
    pub stage: String,
    /// Whether the stage was satisfied from the flow cache.
    pub cache_hit: bool,
}

impl StageRecord {
    /// The record of one stage span: its name, and whether a cache tier
    /// (memory or disk) satisfied it. Coalesced joins count as misses
    /// because *someone* computed the result.
    pub(crate) fn from_span(span: &SpanNode) -> Self {
        Self {
            stage: span.name.clone(),
            cache_hit: matches!(span.provenance, Provenance::CacheHit | Provenance::DiskHit),
        }
    }
}

/// A complete experiment result as written by `--json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Metrics and table rows of the experiment.
    pub record: ExperimentRecord,
    /// Stages executed, in order.
    pub stages: Vec<StageRecord>,
    /// Flow-cache hit/miss counters at the end of the run.
    pub cache: CacheStats,
}

impl ExperimentReport {
    /// Assembles a report from a finished pipeline.
    ///
    /// The sweep worker count is intentionally not part of the report:
    /// results are independent of it, and recording it would break
    /// byte-identity of `--json` artifacts across `M3D_JOBS` settings.
    pub fn new(record: ExperimentRecord, pipeline: &Pipeline) -> Self {
        Self {
            record,
            stages: pipeline
                .spans()
                .iter()
                .map(StageRecord::from_span)
                .collect(),
            cache: CacheStats::default(),
        }
    }

    /// Attaches flow-cache counters (builder style).
    pub fn with_cache(mut self, cache: CacheStats) -> Self {
        self.cache = cache;
        self
    }

    /// Serialises to pretty JSON. Deterministic: field order is fixed and
    /// no timestamps or durations are included.
    ///
    /// # Errors
    ///
    /// Propagates serialisation failures (never for this type in
    /// practice).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Writes the JSON serialisation (plus trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates serialisation and I/O failures.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let body = self
            .to_json()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut f = std::fs::File::create(path)?;
        f.write_all(body.as_bytes())?;
        f.write_all(b"\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::stage::Stage;
    use crate::report::Metric;

    fn sample() -> ExperimentReport {
        let mut pipe = Pipeline::new();
        pipe.stage(Stage::Tech, "", |_| ());
        pipe.stage(Stage::PdFlow, "2d", |ctx| ctx.mark_cache_hit());
        let rec = ExperimentRecord::new("fig8", "Fig. 8 grid").metric(Metric::new("points", 25.0));
        ExperimentReport::new(rec, &pipe).with_cache(CacheStats {
            hits: 3,
            misses: 2,
            disk_hits: 0,
        })
    }

    #[test]
    fn stage_records_carry_labels_and_hits() {
        let r = sample();
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.stages[0].stage, "tech");
        assert!(!r.stages[0].cache_hit);
        assert_eq!(r.stages[1].stage, "pd-flow:2d");
        assert!(r.stages[1].cache_hit);
    }

    #[test]
    fn json_round_trip_and_no_wall_clock() {
        let r = sample();
        let s = r.to_json().unwrap();
        let back: ExperimentReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
        assert!(!s.contains("wall_ms"), "timings must stay out of JSON");
    }

    #[test]
    fn serialisation_is_reproducible() {
        assert_eq!(sample().to_json().unwrap(), sample().to_json().unwrap());
    }
}
