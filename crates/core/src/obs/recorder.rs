//! The metrics recorder: named counters, last-value gauges,
//! fixed-bucket histograms and a bounded ring of recent spans,
//! snapshot-able as deterministic JSON.
//!
//! A [`Recorder`] is plain shared state — the experiment service owns
//! one per server so its counters stay test-isolated, while the engine
//! internals (flow cache, single-flight map, sweep executor, thermal
//! solver) report into the [`Recorder::global`] process instance for
//! always-on diagnostics. Snapshots have fixed field order and contain
//! no timestamps: two recorders holding the same counts render
//! byte-identically, which is what lets the `metrics` wire request and
//! trace artifacts participate in regression diffs.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};

use serde::Value;

use crate::obs::hist::Histogram;
use crate::obs::span::SpanNode;

/// How many completed spans the ring retains (older spans age out; the
/// `spans.recorded` total keeps counting).
const SPAN_RING_CAPACITY: usize = 256;

/// A process- or subsystem-scoped metrics sink.
#[derive(Debug, Default)]
pub struct Recorder {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, i64>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<SpanRing>,
}

#[derive(Debug, Default)]
struct SpanRing {
    recent: VecDeque<SpanNode>,
    recorded: u64,
    dropped: u64,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global recorder the engine internals report into.
    pub fn global() -> &'static Recorder {
        static GLOBAL: OnceLock<Recorder> = OnceLock::new();
        GLOBAL.get_or_init(Recorder::new)
    }

    /// Adds `by` to the monotonic counter `name` (created at 0).
    pub fn incr(&self, name: &str, by: u64) {
        let mut counters = self.counters.lock().expect("counters poisoned");
        match counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                counters.insert(name.to_owned(), by);
            }
        }
    }

    /// Current value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        *self
            .counters
            .lock()
            .expect("counters poisoned")
            .get(name)
            .unwrap_or(&0)
    }

    /// Sets gauge `name` to `value` (last-value semantics, unlike the
    /// monotonic counters — a gauge moves both ways: queue depth,
    /// in-flight requests, live replica count).
    pub fn gauge_set(&self, name: &str, value: i64) {
        let mut gauges = self.gauges.lock().expect("gauges poisoned");
        match gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Current value of gauge `name` (0 when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        *self
            .gauges
            .lock()
            .expect("gauges poisoned")
            .get(name)
            .unwrap_or(&0)
    }

    /// Records `value` into histogram `name`, creating it over `edges`
    /// on first use. The edges of an existing histogram are not changed.
    pub fn observe(&self, name: &str, value: u64, edges: &'static [u64]) {
        let mut hists = self.hists.lock().expect("histograms poisoned");
        match hists.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new(edges);
                h.observe(value);
                hists.insert(name.to_owned(), h);
            }
        }
    }

    /// Total samples histogram `name` has seen (0 when absent).
    pub fn hist_total(&self, name: &str) -> u64 {
        self.hists
            .lock()
            .expect("histograms poisoned")
            .get(name)
            .map_or(0, Histogram::total)
    }

    /// Appends a completed span to the bounded ring, aging out (and
    /// counting) the oldest entries past capacity.
    pub fn record_span(&self, span: SpanNode) {
        let mut ring = self.spans.lock().expect("spans poisoned");
        ring.recorded += 1;
        ring.recent.push_back(span);
        while ring.recent.len() > SPAN_RING_CAPACITY {
            ring.recent.pop_front();
            ring.dropped += 1;
        }
    }

    /// Spans recorded since construction (monotonic; unaffected by ring
    /// aging).
    pub fn spans_recorded(&self) -> u64 {
        self.spans.lock().expect("spans poisoned").recorded
    }

    /// Spans the ring has aged out since construction (monotonic);
    /// always `spans_recorded() - spans_retained()`.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.lock().expect("spans poisoned").dropped
    }

    /// Spans currently retained in the ring.
    pub fn spans_retained(&self) -> usize {
        self.spans.lock().expect("spans poisoned").recent.len()
    }

    /// Name-sorted clone of every counter (render/export paths).
    pub fn counters_sorted(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("counters poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Name-sorted clone of every gauge (render/export paths).
    pub fn gauges_sorted(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .expect("gauges poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Name-sorted clone of every histogram (render/export paths).
    pub fn hists_sorted(&self) -> Vec<(String, Histogram)> {
        self.hists
            .lock()
            .expect("histograms poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect()
    }

    /// The counters alone, as a sorted-by-name JSON object.
    pub fn counters_value(&self) -> Value {
        Value::Object(
            self.counters
                .lock()
                .expect("counters poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), Value::U64(*v)))
                .collect(),
        )
    }

    /// The gauges alone, as a sorted-by-name JSON object.
    pub fn gauges_value(&self) -> Value {
        Value::Object(
            self.gauges
                .lock()
                .expect("gauges poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), Value::I64(*v)))
                .collect(),
        )
    }

    /// Point-in-time JSON snapshot: `{counters, gauges, histograms,
    /// spans}`. Fixed field order, names sorted, counts and bucket
    /// edges only — no timestamps — so equal contents render
    /// byte-identically.
    pub fn snapshot(&self) -> Value {
        let hists = Value::Object(
            self.hists
                .lock()
                .expect("histograms poisoned")
                .iter()
                .map(|(k, h)| (k.clone(), h.to_value()))
                .collect(),
        );
        let ring = self.spans.lock().expect("spans poisoned");
        let spans = Value::Object(vec![
            ("dropped".to_owned(), Value::U64(ring.dropped)),
            ("recorded".to_owned(), Value::U64(ring.recorded)),
            ("retained".to_owned(), Value::U64(ring.recent.len() as u64)),
        ]);
        drop(ring);
        Value::Object(vec![
            ("counters".to_owned(), self.counters_value()),
            ("gauges".to_owned(), self.gauges_value()),
            ("histograms".to_owned(), hists),
            ("spans".to_owned(), spans),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::hist::LATENCY_US_EDGES;

    #[test]
    fn counters_accumulate_and_sort_in_snapshots() {
        let r = Recorder::new();
        r.incr("zeta", 2);
        r.incr("alpha", 1);
        r.incr("zeta", 3);
        assert_eq!(r.counter("zeta"), 5);
        assert_eq!(r.counter("never"), 0);
        let s = serde_json::to_string(&r.counters_value()).unwrap();
        assert!(
            s.find("alpha").unwrap() < s.find("zeta").unwrap(),
            "snapshot order is name-sorted, not insertion order"
        );
    }

    #[test]
    fn snapshots_with_equal_contents_are_byte_identical() {
        let a = Recorder::new();
        let b = Recorder::new();
        for r in [&a, &b] {
            r.incr("requests", 7);
            r.observe("latency_us", 420, LATENCY_US_EDGES);
            r.record_span(SpanNode::new("pd_flow"));
        }
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
    }

    #[test]
    fn span_ring_bounds_retention_not_the_total() {
        let r = Recorder::new();
        for i in 0..(SPAN_RING_CAPACITY + 10) {
            r.record_span(SpanNode::new(format!("s{i}")));
        }
        assert_eq!(r.spans_recorded(), (SPAN_RING_CAPACITY + 10) as u64);
        assert_eq!(r.spans_retained(), SPAN_RING_CAPACITY);
        assert_eq!(r.spans_dropped(), 10, "evictions are counted, not silent");
        assert_eq!(
            r.spans_recorded() - r.spans_retained() as u64,
            r.spans_dropped(),
            "the three tallies stay consistent"
        );
        let spans = r.snapshot();
        let spans = spans.get("spans").unwrap();
        assert_eq!(spans.get("dropped"), Some(&Value::U64(10)));
    }

    #[test]
    fn gauges_hold_last_value_and_move_both_ways() {
        let r = Recorder::new();
        assert_eq!(r.gauge("depth"), 0, "unset gauges read 0");
        r.gauge_set("depth", 7);
        r.gauge_set("depth", 3);
        assert_eq!(r.gauge("depth"), 3, "set is last-value, not additive");
        r.gauge_set("in_flight", 2);
        r.gauge_set("in_flight", -3);
        assert_eq!(r.gauge("in_flight"), -3, "a gauge moves both directions");
        let sorted = r.gauges_sorted();
        assert_eq!(
            sorted,
            vec![("depth".to_owned(), 3), ("in_flight".to_owned(), -3)]
        );
        let snap = r.snapshot();
        assert_eq!(
            snap.get("gauges").unwrap().get("depth"),
            Some(&Value::I64(3))
        );
    }

    #[test]
    fn global_is_a_singleton() {
        let a = Recorder::global() as *const Recorder;
        let b = Recorder::global() as *const Recorder;
        assert_eq!(a, b);
    }
}
