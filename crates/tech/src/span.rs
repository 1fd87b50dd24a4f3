//! Span trees: the execution trace of one experiment run, from the
//! physical-design flow's phases up to the engine's pipeline stages.
//!
//! A [`SpanNode`] names one unit of work (a pipeline stage, a flow
//! phase, one annealing step, one service request), how it was
//! satisfied ([`Provenance`]: computed fresh, replayed from a cache
//! tier, or coalesced onto another caller's in-flight run), its
//! wall-clock time, and its children. The type lives in this leaf crate
//! so the flow (`m3d-pd`) and the engine (`m3d-core`) build the same
//! tree. Rendering comes in two modes:
//!
//! * **deterministic** ([`SpanNode::to_value`] with `include_timing =
//!   false`) — structure, provenance and counters only. This is what
//!   `--trace-json` writes, what crosses the gateway wire and what the
//!   [`serde`] impls (and so the on-disk artifact envelope) use: two
//!   runs of the same experiment produce byte-identical trees whatever
//!   the worker count or machine load.
//! * **timed** (`include_timing = true`) — adds `wall_ms` per span, for
//!   interactive inspection where reproducibility does not matter.

use serde::{Deserialize, Serialize, Value};

/// How a span's work was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Provenance {
    /// The work actually ran.
    #[default]
    Computed,
    /// Replayed from an in-memory cache (flow, thermal or response).
    CacheHit,
    /// Replayed from the on-disk artifact store (`M3D_CACHE_DIR`).
    DiskHit,
    /// Joined another caller's in-flight execution (single-flight).
    Coalesced,
    /// The work ran, warm-started from a cached neighbour's artifacts
    /// (byte-identical to a cold run; only wall-clock differs).
    Warm,
}

impl Provenance {
    /// Stable wire/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Provenance::Computed => "computed",
            Provenance::CacheHit => "cache-hit",
            Provenance::DiskHit => "disk-hit",
            Provenance::Coalesced => "coalesced",
            Provenance::Warm => "warm",
        }
    }

    /// Whether the work was reused rather than executed by this caller.
    /// `Warm` is *not* reuse: the flow ran (and recorded sub-spans);
    /// only its placement phase was seeded.
    pub fn is_reuse(self) -> bool {
        !matches!(self, Provenance::Computed | Provenance::Warm)
    }

    /// Inverse of [`Provenance::name`] — the wire parser for span
    /// subtrees crossing process boundaries.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "computed" => Provenance::Computed,
            "cache-hit" => Provenance::CacheHit,
            "disk-hit" => Provenance::DiskHit,
            "coalesced" => Provenance::Coalesced,
            "warm" => Provenance::Warm,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One node of an execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name (stage name, optionally `:label`-suffixed).
    pub name: String,
    /// Wall-clock duration in milliseconds (observability only; never
    /// rendered in deterministic mode).
    pub wall_ms: f64,
    /// How the span's work was satisfied.
    pub provenance: Provenance,
    /// Deterministic named counters attached to this span (iteration
    /// counts, HPWL, ILV crossings, …), in insertion order. Rendered
    /// only when non-empty, so counter-free traces keep the byte layout
    /// they had before counters existed.
    pub counters: Vec<(String, u64)>,
    /// Nested child spans, in execution order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A fresh computed leaf span.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            wall_ms: 0.0,
            provenance: Provenance::Computed,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Appends one named counter (insertion order is preserved in the
    /// rendering).
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Looks up a counter attached to this span by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Total spans in this subtree (including `self`).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// JSON view. With `include_timing = false` the rendering is fully
    /// deterministic: `{name, provenance, [counters], children}` only,
    /// fixed field order, no wall-clock numbers. `counters` appears
    /// only when the span carries any, so counter-free trees render
    /// exactly as they did before counters existed.
    pub fn to_value(&self, include_timing: bool) -> Value {
        let mut fields = vec![
            ("name".to_owned(), Value::Str(self.name.clone())),
            (
                "provenance".to_owned(),
                Value::Str(self.provenance.name().to_owned()),
            ),
        ];
        if !self.counters.is_empty() {
            fields.push((
                "counters".to_owned(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ));
        }
        if include_timing {
            fields.push(("wall_ms".to_owned(), Value::F64(self.wall_ms)));
        }
        fields.push((
            "children".to_owned(),
            Value::Array(
                self.children
                    .iter()
                    .map(|c| c.to_value(include_timing))
                    .collect(),
            ),
        ));
        Value::Object(fields)
    }

    /// Parses a span subtree back from its [`SpanNode::to_value`] JSON —
    /// the wire decoder for traces crossing process boundaries (replica
    /// → gateway stitching). Accepts both rendering modes: `wall_ms`
    /// and `counters` are optional, unknown fields are rejected so a
    /// malformed replica reply fails loudly instead of silently losing
    /// spans.
    pub fn from_value(v: &Value) -> Result<SpanNode, String> {
        let Value::Object(fields) = v else {
            return Err("span node must be an object".to_owned());
        };
        let mut node = SpanNode::new("");
        let mut saw_name = false;
        for (k, val) in fields {
            match (k.as_str(), val) {
                ("name", Value::Str(s)) => {
                    node.name = s.clone();
                    saw_name = true;
                }
                ("provenance", Value::Str(s)) => {
                    node.provenance = Provenance::from_name(s)
                        .ok_or_else(|| format!("unknown provenance {s:?}"))?;
                }
                ("wall_ms", w) => {
                    node.wall_ms = w.as_f64().ok_or("wall_ms must be a number")?;
                }
                ("counters", Value::Object(cs)) => {
                    for (name, c) in cs {
                        let c = c.as_u64().ok_or("span counters must be u64")?;
                        node.counters.push((name.clone(), c));
                    }
                }
                ("children", Value::Array(items)) => {
                    node.children = items
                        .iter()
                        .map(SpanNode::from_value)
                        .collect::<Result<_, _>>()?;
                }
                (other, _) => return Err(format!("unexpected span field {other:?}")),
            }
        }
        if !saw_name {
            return Err("span node lacks a name".to_owned());
        }
        Ok(node)
    }
}

/// Serialises through the deterministic wire form
/// (`to_value(false)`): no wall-clock time.
impl Serialize for SpanNode {
    fn to_value(&self) -> Value {
        SpanNode::to_value(self, false)
    }
}

impl Deserialize for SpanNode {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        SpanNode::from_value(v).map_err(serde::Error)
    }
}
