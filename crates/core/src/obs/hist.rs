//! Fixed-bucket histograms: cumulative-free, deterministic to render.
//!
//! Buckets are defined by a static slice of inclusive upper edges plus
//! an implicit overflow bucket, so a histogram serialises to *counts
//! and bucket edges only* — no timestamps, no floating-point summary
//! statistics — and two histograms that saw the same samples render
//! byte-identically. Percentile summaries over raw samples are left to
//! clients that keep their own samples; the histogram is the cheap
//! always-on aggregate a service can expose without retaining
//! per-request state.

use serde::Value;

/// Upper edges (µs) for request/stage latency histograms: log-spaced
/// from 100 µs to 10 s.
pub const LATENCY_US_EDGES: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

/// Upper edges for queue-depth histograms: powers of two up to 1024.
pub const DEPTH_EDGES: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Upper edges for solver-iteration histograms.
pub const ITER_EDGES: &[u64] = &[10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000];

/// A fixed-bucket counter histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    edges: &'static [u64],
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram over `edges` (inclusive upper bounds, strictly
    /// increasing) plus one implicit overflow bucket.
    pub fn new(edges: &'static [u64]) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        Self {
            edges,
            counts: vec![0; edges.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one sample: it lands in the first bucket whose edge is
    /// `>= value`, or the overflow bucket past the last edge.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all sample values (saturating) — the Prometheus `_sum`
    /// series.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The bucket edges this histogram was built over.
    pub fn edges(&self) -> &'static [u64] {
        self.edges
    }

    /// Per-bucket counts (`edges.len() + 1` entries; the last one is the
    /// overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Deterministic JSON view: `{edges, counts, total, sum}` with
    /// fixed field order. Contains no timestamps, so two histograms
    /// with equal contents serialise byte-identically.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "edges".to_owned(),
                Value::Array(self.edges.iter().map(|&e| Value::U64(e)).collect()),
            ),
            (
                "counts".to_owned(),
                Value::Array(self.counts.iter().map(|&c| Value::U64(c)).collect()),
            ),
            ("total".to_owned(), Value::U64(self.total)),
            ("sum".to_owned(), Value::U64(self.sum)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_the_right_buckets() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [0, 10, 11, 100, 5_000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 0, 2], "inclusive edges + overflow");
        assert_eq!(h.total(), 6);
        assert_eq!(h.sum(), 1_005_121);
    }

    #[test]
    fn sum_saturates_instead_of_overflowing() {
        let mut h = Histogram::new(&[10]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn rendering_is_deterministic_and_timestamp_free() {
        let mut a = Histogram::new(LATENCY_US_EDGES);
        let mut b = Histogram::new(LATENCY_US_EDGES);
        for v in [99, 101, 77_000, 12_345_678] {
            a.observe(v);
            b.observe(v);
        }
        let ra = serde_json::to_string(&a.to_value()).unwrap();
        let rb = serde_json::to_string(&b.to_value()).unwrap();
        assert_eq!(ra, rb);
        assert!(ra.contains("\"edges\"") && ra.contains("\"counts\""));
    }

    #[test]
    fn presets_are_strictly_increasing() {
        for edges in [LATENCY_US_EDGES, DEPTH_EDGES, ITER_EDGES] {
            assert!(edges.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
