//! Flow instrumentation helpers.
//!
//! Every flow phase records an [`m3d_tech::SpanNode`] (the engine's own
//! span type) with integer counters derived from the flow's seeded,
//! single-threaded math: iteration counts, rounded HPWL in µm, ILV
//! crossings, picosecond critical paths. A given [`crate::FlowConfig`]
//! therefore always produces a byte-identical tree — wall-clock time
//! never enters.

/// Rounds a non-negative physical quantity (µm, µW, ps, …) to the
/// nearest integer counter value. Deterministic for deterministic
/// inputs; negatives clamp to 0.
pub fn round_counter(value: f64) -> u64 {
    if value.is_finite() && value > 0.0 {
        value.round() as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_is_clamped_and_finite() {
        assert_eq!(round_counter(1234.49), 1234);
        assert_eq!(round_counter(1234.5), 1235);
        assert_eq!(round_counter(-3.0), 0);
        assert_eq!(round_counter(f64::NAN), 0);
        assert_eq!(round_counter(f64::INFINITY), 0);
    }
}
