//! The trace document `--trace-json` writes, around the span tree.
//!
//! [`SpanNode`] and [`Provenance`] live in [`m3d_tech::span`], the leaf
//! crate the physical-design flow shares with the engine, and are
//! re-exported here. This module wraps a tree into the versioned trace
//! document and pins the span rendering contract the engine, the
//! service wire and the artifact store rely on: deterministic mode
//! carries no wall clock, counters keep insertion order, and the wire
//! form round-trips.

use serde::Value;

pub use m3d_tech::span::{Provenance, SpanNode};

/// Version tag of the trace document schema.
pub const TRACE_VERSION: u64 = 1;

/// Wraps a span tree into the trace document `--trace-json` writes:
/// `{experiment, trace_version, root}`. Deterministic when
/// `include_timing` is false.
pub fn trace_document(experiment: &str, root: &SpanNode, include_timing: bool) -> Value {
    Value::Object(vec![
        ("experiment".to_owned(), Value::Str(experiment.to_owned())),
        ("trace_version".to_owned(), Value::U64(TRACE_VERSION)),
        ("root".to_owned(), root.to_value(include_timing)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpanNode {
        let mut root = SpanNode::new("table1");
        root.wall_ms = 12.5;
        let mut flow = SpanNode::new("pd-flow:2d");
        flow.provenance = Provenance::CacheHit;
        flow.wall_ms = 3.25;
        flow.children.push(SpanNode::new("place"));
        root.children.push(flow);
        root.children.push(SpanNode::new("report"));
        root
    }

    #[test]
    fn counting_and_lookup_walk_the_tree() {
        let root = sample();
        assert_eq!(root.span_count(), 4);
        assert_eq!(
            root.find("pd-flow:2d").unwrap().provenance,
            Provenance::CacheHit
        );
        assert!(root.find("place").is_some());
        assert!(root.find("missing").is_none());
    }

    #[test]
    fn deterministic_mode_strips_wall_clock() {
        let root = sample();
        let det = serde_json::to_string(&root.to_value(false)).unwrap();
        assert!(!det.contains("wall_ms"), "no timing in deterministic mode");
        assert!(det.contains("cache-hit"));
        let timed = serde_json::to_string(&root.to_value(true)).unwrap();
        assert!(timed.contains("wall_ms"));
        // Equal trees render identically in deterministic mode even
        // when their wall clocks differ.
        let mut other = sample();
        other.wall_ms = 99.0;
        other.children[0].wall_ms = 0.001;
        assert_eq!(serde_json::to_string(&other.to_value(false)).unwrap(), det);
    }

    #[test]
    fn trace_document_carries_the_schema_version() {
        let doc = trace_document("table1", &sample(), false);
        assert_eq!(doc.get("trace_version"), Some(&Value::U64(TRACE_VERSION)));
        assert_eq!(doc.get("experiment"), Some(&Value::Str("table1".into())));
        assert!(doc.get("root").unwrap().get("children").is_some());
    }

    #[test]
    fn counters_render_in_insertion_order_only_when_present() {
        let mut bare = SpanNode::new("place");
        let before = serde_json::to_string(&bare.to_value(false)).unwrap();
        assert!(!before.contains("counters"), "absent when empty");
        bare.counter("iterations", 25);
        bare.counter("hpwl_um", 1_234);
        assert_eq!(bare.counter_value("iterations"), Some(25));
        assert_eq!(bare.counter_value("missing"), None);
        let after = serde_json::to_string(&bare.to_value(false)).unwrap();
        assert!(
            after.contains("\"counters\":{\"iterations\":25,\"hpwl_um\":1234}"),
            "insertion order preserved: {after}"
        );
    }

    #[test]
    fn span_trees_round_trip_through_the_wire_form() {
        let mut root = sample();
        root.counter("attempts", 2);
        // Deterministic mode: wall clocks are gone after the round trip.
        let det = SpanNode::from_value(&root.to_value(false)).unwrap();
        assert_eq!(det.name, root.name);
        assert_eq!(det.counter_value("attempts"), Some(2));
        assert_eq!(det.span_count(), root.span_count());
        assert_eq!(det.wall_ms, 0.0, "deterministic form carries no timing");
        assert_eq!(
            serde_json::to_string(&det.to_value(false)).unwrap(),
            serde_json::to_string(&root.to_value(false)).unwrap(),
            "re-encoding the parse reproduces the bytes"
        );
        // Timed mode survives byte-exactly too.
        let timed = SpanNode::from_value(&root.to_value(true)).unwrap();
        assert_eq!(timed, root);
        // The serde impls (the artifact-store encoding) are the
        // deterministic wire form.
        let text = serde_json::to_string(&root).unwrap();
        assert_eq!(text, serde_json::to_string(&root.to_value(false)).unwrap());
        assert_eq!(serde_json::from_str::<SpanNode>(&text).unwrap(), det);
    }

    #[test]
    fn malformed_span_documents_are_rejected() {
        for bad in [
            r#"[1,2]"#,
            r#"{"provenance":"computed","children":[]}"#,
            r#"{"name":"x","provenance":"teleported","children":[]}"#,
            r#"{"name":"x","surprise":1,"children":[]}"#,
            r#"{"name":"x","counters":{"n":-1},"children":[]}"#,
            r#"{"name":"x","children":[{"children":[]}]}"#,
        ] {
            let v = serde_json::from_str_value(bad).unwrap();
            assert!(SpanNode::from_value(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn provenance_names_are_stable() {
        assert_eq!(Provenance::Computed.name(), "computed");
        assert_eq!(Provenance::CacheHit.name(), "cache-hit");
        assert_eq!(Provenance::DiskHit.name(), "disk-hit");
        assert_eq!(Provenance::Coalesced.name(), "coalesced");
        assert_eq!(Provenance::Warm.name(), "warm");
        assert!(!Provenance::Computed.is_reuse());
        assert!(Provenance::Coalesced.is_reuse());
        assert!(!Provenance::Warm.is_reuse(), "a warm flow still ran");
        for p in [
            Provenance::Computed,
            Provenance::CacheHit,
            Provenance::DiskHit,
            Provenance::Coalesced,
            Provenance::Warm,
        ] {
            assert_eq!(Provenance::from_name(p.name()), Some(p));
        }
        assert_eq!(Provenance::from_name("teleported"), None);
    }
}
