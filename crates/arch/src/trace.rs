//! Workload phases: what a compute sub-system is doing at a point in a
//! layer's execution, and how hard each phase drives compute and memory
//! power (the thermal transient's per-phase power weights).

use serde::{Deserialize, Serialize};

/// What a resource is doing during a stretch of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Loading stationary weights from the RRAM bank.
    WeightLoad,
    /// Streaming activations through the array.
    Stream,
    /// Array fill/drain bubbles.
    FillDrain,
    /// Shared-bus activation transfer.
    Bus,
    /// Idle (partition-capped CS).
    Idle,
}

impl Phase {
    /// Relative compute (Si/active-tier) power of this phase, as a
    /// fraction of peak CS power. Streaming saturates the MAC array;
    /// fill/drain keeps the array clocked but half-utilised; weight
    /// loads and bus transfers leave the array mostly idle; a
    /// power-gated idle CS burns only leakage.
    pub fn compute_weight(self) -> f64 {
        match self {
            Phase::Stream => 1.0,
            Phase::FillDrain => 0.55,
            Phase::WeightLoad => 0.25,
            Phase::Bus => 0.15,
            Phase::Idle => 0.05,
        }
    }

    /// Relative memory (BEOL RRAM + selector) power of this phase, as a
    /// fraction of peak array-access power. Weight loads hammer the
    /// RRAM banks; streaming reads activations steadily; everything
    /// else leaves the arrays quiescent.
    pub fn memory_weight(self) -> f64 {
        match self {
            Phase::WeightLoad => 1.0,
            Phase::Stream => 0.45,
            Phase::Bus => 0.20,
            Phase::FillDrain => 0.10,
            Phase::Idle => 0.02,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_power_weights_are_sane() {
        for p in [
            Phase::WeightLoad,
            Phase::Stream,
            Phase::FillDrain,
            Phase::Bus,
            Phase::Idle,
        ] {
            assert!((0.0..=1.0).contains(&p.compute_weight()), "{p:?}");
            assert!((0.0..=1.0).contains(&p.memory_weight()), "{p:?}");
        }
        // Streaming is the compute-dominant phase, weight loads the
        // memory-dominant one.
        assert_eq!(Phase::Stream.compute_weight(), 1.0);
        assert_eq!(Phase::WeightLoad.memory_weight(), 1.0);
        assert!(Phase::Idle.compute_weight() < 0.1);
    }
}
