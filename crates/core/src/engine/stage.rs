//! Typed pipeline stages with wall-clock and provenance instrumentation.
//!
//! Every experiment decomposes into the same coarse stages; [`Pipeline`]
//! names them and records one timed [`SpanNode`] per executed stage.
//! Everything else derives from those spans: the uniform
//! `stage, wall_ms, provenance` summary the bench binaries print to
//! stderr, the `--json` stage records and the span tree `--trace-json`
//! dumps. Wall-clock numbers are *observability only*: they are kept
//! out of the serialised [`crate::engine::ExperimentReport`] and out of
//! deterministic trace renderings so that JSON artifacts stay
//! byte-reproducible run to run.

use std::time::Instant;

use crate::obs::{Provenance, SpanNode};

/// One coarse stage of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Technology configuration: PDK construction, RRAM macro sizing.
    Tech,
    /// Netlist generation (the synthesis stand-in).
    Netlist,
    /// The RTL-to-GDS physical-design flow.
    PdFlow,
    /// Architecture evaluation: analytical framework, simulator, mapper.
    ArchSim,
    /// Thermal analysis: RC-grid voxelization and steady/transient solve.
    Thermal,
    /// Table/record assembly and serialisation.
    Report,
}

impl Stage {
    /// Stable display name (also used in JSON stage records and spans).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Tech => "tech",
            Stage::Netlist => "netlist",
            Stage::PdFlow => "pd-flow",
            Stage::ArchSim => "arch-sim",
            Stage::Thermal => "thermal",
            Stage::Report => "report",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An instrumented sequence of stages.
///
/// ```
/// use m3d_core::engine::{Pipeline, Stage};
///
/// let mut pipe = Pipeline::new();
/// let sum = pipe.stage(Stage::ArchSim, "", |_| (0..100u64).sum::<u64>());
/// assert_eq!(sum, 4950);
/// assert_eq!(pipe.spans()[0].name, "arch-sim");
/// assert_eq!(pipe.span_tree("demo").span_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct Pipeline {
    spans: Vec<SpanNode>,
}

/// Handle passed to a running stage, letting it report provenance and
/// attach nested child spans (per-sweep-point flow runs, solver passes).
#[derive(Debug)]
pub struct StageCtx {
    provenance: Provenance,
    children: Vec<SpanNode>,
}

impl StageCtx {
    /// A free-standing stage context bound to no [`Pipeline`]: provenance
    /// marks and child spans are accepted and dropped. Lets pipeline-aware
    /// code (registry cases) run unchanged where no trace is collected —
    /// the experiment service executes cases this way.
    pub fn detached() -> Self {
        Self {
            provenance: Provenance::Computed,
            children: Vec::new(),
        }
    }

    /// Marks this stage as satisfied from an in-memory cache.
    pub fn mark_cache_hit(&mut self) {
        self.provenance = Provenance::CacheHit;
    }

    /// Sets the stage's provenance explicitly.
    pub fn mark(&mut self, provenance: Provenance) {
        self.provenance = provenance;
    }

    /// Appends a leaf child span under this stage (e.g. one flow run of
    /// a sweep). Children appear in the trace in insertion order.
    pub fn child(&mut self, name: impl Into<String>, provenance: Provenance) {
        let mut node = SpanNode::new(name);
        node.provenance = provenance;
        self.children.push(node);
    }

    /// Appends an already-built child span subtree.
    pub fn child_span(&mut self, span: SpanNode) {
        self.children.push(span);
    }
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` as `stage`, recording a span named `stage` (suffixed
    /// `:label` when `label` is non-empty, to tell repeated stages such
    /// as the `"2d"` and `"m3d"` flow runs apart) with its wall-clock
    /// time. The closure receives a [`StageCtx`] to report provenance
    /// and attach child spans.
    pub fn stage<T>(&mut self, stage: Stage, label: &str, f: impl FnOnce(&mut StageCtx) -> T) -> T {
        let mut ctx = StageCtx {
            provenance: Provenance::Computed,
            children: Vec::new(),
        };
        let start = Instant::now();
        let out = f(&mut ctx);
        let wall_ms = start.elapsed().as_secs_f64() * 1.0e3;
        let name = if label.is_empty() {
            stage.name().to_owned()
        } else {
            format!("{}:{label}", stage.name())
        };
        let mut span = SpanNode::new(name);
        span.wall_ms = wall_ms;
        span.provenance = ctx.provenance;
        span.children = ctx.children;
        self.spans.push(span);
        out
    }

    /// The per-stage spans recorded so far, in execution order.
    pub fn spans(&self) -> &[SpanNode] {
        &self.spans
    }

    /// Assembles the stage spans under a root named `root_name` (the
    /// experiment id), ready for [`crate::obs::trace_document`].
    pub fn span_tree(&self, root_name: &str) -> SpanNode {
        let mut root = SpanNode::new(root_name);
        root.wall_ms = self.spans.iter().map(|s| s.wall_ms).sum();
        root.children = self.spans.clone();
        root
    }

    /// Prints the per-stage summary to stderr: one
    /// `stage, wall_ms, provenance` line per executed stage.
    pub fn eprint_summary(&self) {
        eprintln!("# stage, wall_ms, provenance");
        for s in &self.spans {
            eprintln!("# {}, {:.1}, {}", s.name, s.wall_ms, s.provenance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::report::StageRecord;

    #[test]
    fn stages_record_in_order_with_labels() {
        let mut pipe = Pipeline::new();
        let a = pipe.stage(Stage::Tech, "", |_| 1);
        let b = pipe.stage(Stage::PdFlow, "m3d", |ctx| {
            ctx.mark_cache_hit();
            2
        });
        assert_eq!((a, b), (1, 2));
        let ss = pipe.spans();
        assert_eq!(ss.len(), 2);
        assert_eq!(ss[0].name, "tech");
        assert_eq!(ss[0].provenance, Provenance::Computed);
        assert_eq!(ss[1].name, "pd-flow:m3d");
        assert_eq!(ss[1].provenance, Provenance::CacheHit);
        assert!(ss.iter().all(|s| s.wall_ms >= 0.0));
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = [
            Stage::Tech,
            Stage::Netlist,
            Stage::PdFlow,
            Stage::ArchSim,
            Stage::Thermal,
            Stage::Report,
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        assert_eq!(
            names,
            ["tech", "netlist", "pd-flow", "arch-sim", "thermal", "report"]
        );
    }

    #[test]
    fn coalesced_stages_are_not_cache_hits_but_are_reuse() {
        let mut pipe = Pipeline::new();
        pipe.stage(Stage::PdFlow, "", |ctx| ctx.mark(Provenance::Coalesced));
        let span = &pipe.spans()[0];
        assert!(!StageRecord::from_span(span).cache_hit);
        assert_eq!(span.provenance, Provenance::Coalesced);
        assert!(span.provenance.is_reuse());
    }

    #[test]
    fn span_tree_nests_stages_and_children_under_the_root() {
        let mut pipe = Pipeline::new();
        pipe.stage(Stage::PdFlow, "sweep", |ctx| {
            ctx.child("pd-flow:pt0", Provenance::Computed);
            ctx.child("pd-flow:pt1", Provenance::CacheHit);
        });
        pipe.stage(Stage::Report, "", |_| ());
        let root = pipe.span_tree("fig8");
        assert_eq!(root.name, "fig8");
        assert_eq!(root.span_count(), 5);
        assert_eq!(
            root.find("pd-flow:pt1").unwrap().provenance,
            Provenance::CacheHit
        );
        assert!(root.find("report").is_some());
        // Deterministic renderings of structurally equal trees match.
        let mut again = Pipeline::new();
        again.stage(Stage::PdFlow, "sweep", |ctx| {
            ctx.child("pd-flow:pt0", Provenance::Computed);
            ctx.child("pd-flow:pt1", Provenance::CacheHit);
        });
        again.stage(Stage::Report, "", |_| ());
        assert_eq!(
            serde_json::to_string(&root.to_value(false)).unwrap(),
            serde_json::to_string(&again.span_tree("fig8").to_value(false)).unwrap()
        );
    }
}
