//! Service metrics, backed by the shared [`m3d_core::obs::Recorder`].
//!
//! The server owns one [`Metrics`] (its own recorder instance, not the
//! process-global one) so its counters are isolated per server — the
//! loopback tests run several servers in one process. Counters split
//! along the axes the acceptance tests care about: every accepted
//! request is eventually exactly one of `executed` (a leader actually
//! ran the case), `cache_hits` (replayed from the response cache),
//! `coalesced` (joined an in-flight leader), or a failure (`timed_out`,
//! `failed`). `rejected` counts backpressure refusals, which are
//! answered — never silently dropped.
//!
//! On top of the counters, the recorder aggregates per-request latency
//! and queue-depth histograms and retains a ring of per-request spans;
//! the `metrics` wire case returns the whole recorder snapshot.

use std::collections::BTreeMap;

use m3d_core::obs::{render_parts, Histogram, Recorder, SpanNode, DEPTH_EDGES, LATENCY_US_EDGES};
use serde::Value;

/// The request-outcome counters, in stable snapshot order. Every name
/// appears in [`Metrics::counters_snapshot`] even at zero, so the JSON
/// shape is independent of which events have occurred.
pub const COUNTERS: &[&str] = &[
    "accepted",
    "rejected",
    "executed",
    "cache_hits",
    "coalesced",
    "timed_out",
    "failed",
    "scrapes_limited",
];

/// Per-server metrics: named counters, latency/queue-depth histograms
/// and a bounded ring of per-request spans.
#[derive(Debug, Default)]
pub struct Metrics {
    rec: Recorder,
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying recorder (span recording, ad-hoc counters).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Adds one to the named counter.
    pub fn bump(&self, name: &str) {
        self.rec.incr(name, 1);
    }

    /// Current value of the named counter.
    pub fn get(&self, name: &str) -> u64 {
        self.rec.counter(name)
    }

    /// Records one end-to-end request latency sample.
    pub fn observe_latency_us(&self, us: u64) {
        self.rec.observe("request_latency_us", us, LATENCY_US_EDGES);
    }

    /// Records the queue depth seen at admission time.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.rec.observe("queue_depth", depth, DEPTH_EDGES);
    }

    /// Retains one completed per-request span.
    pub fn record_span(&self, span: SpanNode) {
        self.rec.record_span(span);
    }

    /// The outcome counters as a JSON object with every [`COUNTERS`]
    /// name present (zeros included) in stable order — the `stats`
    /// case's `metrics` field.
    pub fn counters_snapshot(&self) -> Value {
        Value::Object(
            COUNTERS
                .iter()
                .map(|&n| (n.to_owned(), Value::U64(self.rec.counter(n))))
                .collect(),
        )
    }

    /// The full recorder snapshot (`{counters, histograms, spans}`) —
    /// the `metrics` case's result payload. Deterministic field order;
    /// counts and bucket edges only, no timestamps.
    pub fn snapshot(&self) -> Value {
        self.rec.snapshot()
    }

    /// This server's counters, gauges and histograms merged with a second
    /// recorder (the process-global engine one). The two namespaces are
    /// disjoint by construction — request-outcome counters here,
    /// `flow_cache.*` / `par_map.*` / `pd_flow.*` / `engine.*` there —
    /// so a merge is a union; on an unexpected name collision the
    /// server-local entry wins.
    #[allow(clippy::type_complexity)]
    fn merged(
        &self,
        other: &Recorder,
    ) -> (
        Vec<(String, u64)>,
        Vec<(String, i64)>,
        Vec<(String, Histogram)>,
    ) {
        let mut counters: BTreeMap<String, u64> = other.counters_sorted().into_iter().collect();
        counters.extend(self.rec.counters_sorted());
        // Span-ring accounting joins the counter families (this
        // server's per-request ring, not the global engine ring) so
        // drop accounting is visible to text scrapes too.
        counters.extend(m3d_core::obs::span_ring_counters(&self.rec));
        let mut gauges: BTreeMap<String, i64> = other.gauges_sorted().into_iter().collect();
        gauges.extend(self.rec.gauges_sorted());
        let mut hists: BTreeMap<String, Histogram> = other.hists_sorted().into_iter().collect();
        hists.extend(self.rec.hists_sorted());
        (
            counters.into_iter().collect(),
            gauges.into_iter().collect(),
            hists.into_iter().collect(),
        )
    }

    /// [`Metrics::snapshot`] with `other`'s counters, gauges and
    /// histograms merged in (the `metrics` wire case). The span ring stays
    /// server-local: per-request spans belong to this server, and the
    /// global ring holds whole-run engine spans that are not request
    /// observability.
    pub fn merged_snapshot(&self, other: &Recorder) -> Value {
        let (counters, gauges, hists) = self.merged(other);
        Value::Object(vec![
            (
                "counters".to_owned(),
                Value::Object(
                    counters
                        .into_iter()
                        .map(|(n, v)| (n, Value::U64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Value::Object(
                    gauges
                        .into_iter()
                        .map(|(n, v)| (n, Value::I64(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Value::Object(hists.into_iter().map(|(n, h)| (n, h.to_value())).collect()),
            ),
            (
                "spans".to_owned(),
                Value::Object(vec![
                    ("dropped".to_owned(), Value::U64(self.rec.spans_dropped())),
                    ("recorded".to_owned(), Value::U64(self.rec.spans_recorded())),
                    (
                        "retained".to_owned(),
                        Value::U64(self.rec.spans_retained() as u64),
                    ),
                ]),
            ),
        ])
    }

    /// The merged counters, gauges and histograms rendered as a Prometheus text
    /// exposition (the `metrics_text` wire case). Same grammar and
    /// determinism rules as [`m3d_core::obs::render_text`].
    pub fn merged_text(&self, other: &Recorder) -> String {
        let (counters, gauges, hists) = self.merged(other);
        render_parts(&counters, &gauges, &hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_reflects_bumps_and_includes_zeros() {
        let m = Metrics::new();
        m.bump("accepted");
        m.bump("accepted");
        m.bump("executed");
        let s = m.counters_snapshot();
        assert_eq!(s.get("accepted").unwrap().as_u64(), Some(2));
        assert_eq!(s.get("executed").unwrap().as_u64(), Some(1));
        assert_eq!(s.get("rejected").unwrap().as_u64(), Some(0));
        assert_eq!(s.get("failed").unwrap().as_u64(), Some(0));
        assert_eq!(m.get("accepted"), 2);
    }

    #[test]
    fn full_snapshot_carries_histograms_and_spans() {
        let m = Metrics::new();
        m.observe_latency_us(1_234);
        m.observe_queue_depth(3);
        m.record_span(SpanNode::new("req:sensitivity"));
        let s = m.snapshot();
        let hists = s.get("histograms").unwrap();
        assert_eq!(
            hists
                .get("request_latency_us")
                .unwrap()
                .get("total")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            hists
                .get("queue_depth")
                .unwrap()
                .get("total")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            s.get("spans").unwrap().get("recorded").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn merged_views_union_disjoint_recorders() {
        let m = Metrics::new();
        m.bump("accepted");
        m.bump("executed");
        m.observe_latency_us(10);
        let global = Recorder::new();
        global.incr("flow_cache.hits", 4);
        global.incr("accepted", 100); // collision: server-local wins
        global.gauge_set("fleet.replica0.in_flight", 2);
        m.recorder().gauge_set("queue_len", 5);

        let s = m.merged_snapshot(&global);
        let counters = s.get("counters").unwrap();
        assert_eq!(counters.get("accepted").unwrap().as_u64(), Some(1));
        assert_eq!(counters.get("flow_cache.hits").unwrap().as_u64(), Some(4));
        let gauges = s.get("gauges").unwrap();
        assert_eq!(
            gauges.get("fleet.replica0.in_flight").unwrap().as_i64(),
            Some(2)
        );
        assert_eq!(gauges.get("queue_len").unwrap().as_i64(), Some(5));
        assert!(s
            .get("histograms")
            .unwrap()
            .get("request_latency_us")
            .is_some());

        let text = m.merged_text(&global);
        m3d_core::obs::validate_exposition(&text).expect("exposition parses");
        assert!(text.contains("flow_cache_hits 4\n"), "{text}");
        assert!(text.contains("executed 1\n"), "{text}");
        assert!(text.contains("fleet_replica0_in_flight 2\n"), "{text}");
        assert!(text.contains("request_latency_us_count 1\n"), "{text}");
        assert!(text.contains("spans_dropped 0\n"), "{text}");
    }

    #[test]
    fn span_drop_accounting_reaches_both_expositions() {
        let m = Metrics::new();
        m.record_span(SpanNode::new("req:pd_flow"));
        let global = Recorder::new();
        let spans = m.merged_snapshot(&global);
        let spans = spans.get("spans").unwrap();
        assert_eq!(spans.get("dropped").unwrap().as_u64(), Some(0));
        assert_eq!(spans.get("recorded").unwrap().as_u64(), Some(1));
        let text = m.merged_text(&global);
        assert!(text.contains("spans_recorded 1\n"), "{text}");
        assert!(text.contains("spans_dropped 0\n"), "{text}");
    }
}
