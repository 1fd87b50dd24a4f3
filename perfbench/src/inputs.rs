//! Seeded inputs. Every input a workload hands the program is derived
//! here from `--seed`, so one seed always yields one input set.

use m3d_netlist::CsConfig;
use m3d_pd::FlowConfig;
use serde::Value;

/// SplitMix64: tiny, seedable, and stable across platforms and releases,
/// which is what lets a seed name an input set for good.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a 64 over `bytes`, as 16 hex digits: the payload digest the
/// output checks compare against `pins.json`.
pub fn digest_bytes(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a payload's canonical JSON text.
pub fn digest<T: serde::Serialize + ?Sized>(value: &T) -> String {
    digest_bytes(
        serde_json::to_string(value)
            .expect("payloads serialise")
            .as_bytes(),
    )
}

/// The paper-size M3D(8) sign-off configuration (the flow
/// `obs10_thermal` fetches), which the traced probe replays.
pub fn m3d8_config() -> FlowConfig {
    FlowConfig::m3d(8).with_cs(CsConfig::default())
}

const ADDER4_EDIF: &str = include_str!("../../examples/adder4.edif");
const MAC_UNIT_V: &str = include_str!("../../examples/mac_unit.v");

/// One request of the `serve_mixed` stream: a registry case and its
/// wire parameters (always quick mode).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseRequest {
    pub case: &'static str,
    pub params: Value,
}

fn req(case: &'static str, fields: Vec<(&str, Value)>) -> CaseRequest {
    CaseRequest {
        case,
        params: Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()),
    }
}

/// An `ingest` upload of one of the two checked-in example designs; the
/// trailing blank lines make `variant`s distinct requests over the same
/// flattened netlist. The `ingest` case implements uploads on the 2D
/// baseline, which has no CNFET tier, so the Verilog example goes up
/// without its one `tier = "cnfet"` attribute.
pub fn ingest_request(design: u64, variant: u64) -> CaseRequest {
    let src = if design.is_multiple_of(2) {
        ADDER4_EDIF.to_owned()
    } else {
        MAC_UNIT_V.replace("(* tier = \"cnfet\" *) ", "")
    };
    let text = format!("{src}{}", "\n".repeat(variant as usize));
    req("ingest", vec![("source", Value::Str(text))])
}

/// A quick `pd_flow` at one of 600 activities; `slot` picks it.
pub fn pd_flow_request(seed: u64, slot: u64) -> CaseRequest {
    let step = (seed.wrapping_mul(31).wrapping_add(slot)) % 600;
    req(
        "pd_flow",
        vec![("activity_pct", Value::F64(5.0 + 0.125 * step as f64))],
    )
}

/// The `serve_mixed` request stream under one seed.
#[derive(Debug, Clone)]
pub struct ServeStream {
    seed: u64,
    hot: Vec<CaseRequest>,
}

/// Requests in one `serve_mixed` round: requests `0..ROUND_REQUESTS` of
/// the stream against a fresh server. Every round does the same work,
/// so the keys a server computes and holds do not grow with throughput.
pub const ROUND_REQUESTS: u64 = 32_768;

// An odd multiplier permutes `0..ROUND_REQUESTS` only for a power of two.
const _: () = assert!(ROUND_REQUESTS.is_power_of_two());

/// Distinct quick `pd_flow` activities in a round, one after another
/// over its requests, so the flow executions spread over the round
/// instead of bunching at its start; repeats of the current activity
/// coalesce or hit the response cache.
pub const PD_FLOW_POOL: u64 = 32;

impl ServeStream {
    pub fn new(seed: u64) -> Self {
        let s = seed % 1_000_000;
        let hot = vec![
            req("sensitivity", vec![("seed", Value::U64(s))]),
            req("sensitivity", vec![("seed", Value::U64(s + 1))]),
            req("tier_sweep", vec![("max_pairs", Value::U64(4))]),
            req("capacity_sweep", vec![]),
            req("thermal_cap", vec![]),
            req("pd_flow", vec![]),
            ingest_request(0, 0),
            req(
                "sensitivity",
                vec![("seed", Value::U64(s + 2)), ("samples", Value::U64(200))],
            ),
        ];
        Self { seed, hot }
    }

    /// The hot set the set-up prefills; about half the stream repeats it.
    pub fn hot(&self) -> &[CaseRequest] {
        &self.hot
    }

    /// Request `j` (`j < ROUND_REQUESTS`) of the stream: 50 % hot, 34 %
    /// cheap cases (distinct `sensitivity` seeds, `capacity_sweep` and
    /// `tier_sweep` params), 12 % quick flows, 4 % uploads. The shares are
    /// exact in every round; the seed picks their order (a seeded affine
    /// permutation of the round's slots) and their parameters.
    ///
    /// `thermal_cap` is only in the hot set: at the default `M3D_JOBS` on
    /// a 2-core host one request takes ~100 ms against ~0.35 ms serially,
    /// because its red-black SOR fans each half-sweep out over fresh
    /// `par_map` threads, so distinct ones would swamp the round. Its
    /// compute shows in the set-up's prefill instead.
    pub fn request(&self, j: u64) -> CaseRequest {
        let mut order = SplitMix::new(self.seed);
        let (a, b) = (order.next_u64() | 1, order.next_u64());
        let slot = (a.wrapping_mul(j).wrapping_add(b)) % ROUND_REQUESTS;
        let u = slot as f64 / ROUND_REQUESTS as f64;
        let mut rng = SplitMix::new(self.seed ^ j.wrapping_mul(0xa076_1d64_78bd_642f));
        if u < 0.50 {
            return self.hot[rng.below(self.hot.len() as u64) as usize].clone();
        }
        if u < 0.84 {
            return match slot % 10 {
                0..=4 => req(
                    "sensitivity",
                    vec![("seed", Value::U64(1_000_000 + self.seed % 1_000_000 + j))],
                ),
                5..=7 => req(
                    "capacity_sweep",
                    vec![("max_capacity_mb", Value::U64(12 + rng.below(500)))],
                ),
                _ => req(
                    "tier_sweep",
                    vec![("max_pairs", Value::U64(1 + rng.below(16)))],
                ),
            };
        }
        if u < 0.96 {
            return pd_flow_request(self.seed, j * PD_FLOW_POOL / ROUND_REQUESTS);
        }
        ingest_request(rng.below(2), rng.below(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a = ServeStream::new(3);
        let b = ServeStream::new(3);
        let c = ServeStream::new(4);
        let same = (0..200).all(|j| a.request(j) == b.request(j));
        let differ = (0..200).any(|j| a.request(j) != c.request(j));
        assert!(same && differ);
    }

    #[test]
    fn every_seed_gives_a_round_the_same_case_mix() {
        // Distinct sensitivity and capacity_sweep requests never equal a
        // hot one, so their counts show the round's fixed shares.
        let mix = |seed: u64| {
            let stream = ServeStream::new(seed);
            let distinct = |case: &str| {
                (0..ROUND_REQUESTS)
                    .map(|j| stream.request(j))
                    .filter(|r| r.case == case && !stream.hot().contains(r))
                    .count()
            };
            (distinct("sensitivity"), distinct("capacity_sweep"))
        };
        assert_eq!(mix(1), (5571, 3343));
        assert!((2..6).all(|seed| mix(seed) == mix(1)));
    }
}
