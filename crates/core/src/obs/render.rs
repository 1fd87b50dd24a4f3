//! Deterministic metric exposition: Prometheus text format + a
//! versioned JSON snapshot document.
//!
//! Rendering a [`Recorder`] must be reproducible — the `--metrics-text`
//! / `--metrics-json` artifacts and the serve `metrics_text` wire case
//! participate in smoke gates that grep and re-parse them. So the
//! exposition here is sorted by (sanitised) metric name, uses only
//! integers, and carries no timestamps, process ids or help prose that
//! could drift between runs. Histograms follow the Prometheus
//! convention: cumulative `name_bucket{le="edge"}` series per fixed
//! edge plus `le="+Inf"`, then `name_sum` and `name_count`.
//!
//! Recorder names like `flow_cache.hits` are not legal Prometheus
//! metric names; [`sanitize_metric_name`] maps every character outside
//! `[a-zA-Z0-9_:]` to `_` and prefixes `_` when the first character
//! is a digit. Counters whose sanitised names collide are summed;
//! a histogram colliding with an already-emitted name gets `_`
//! appended until unique — both rules are deterministic, so equal
//! recorder contents always render byte-identically.

use std::collections::BTreeMap;

use serde::Value;

use crate::obs::hist::Histogram;
use crate::obs::recorder::Recorder;

/// Version tag of the `--metrics-json` document schema.
pub const METRICS_VERSION: u64 = 1;

/// Maps an internal metric name onto the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character becomes `_`, a
/// leading digit gains a `_` prefix, and the empty string becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if ok {
            out.push(ch);
        } else if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders the recorder as Prometheus text exposition format.
///
/// Output is fully deterministic for equal recorder contents: metric
/// families sorted by sanitised name (counters first, then gauges,
/// then histograms), one `# TYPE` comment per family, integer values
/// only, trailing newline. The span-ring accounting joins the counter
/// families as `spans.recorded`/`spans.dropped`, so ring overflow is
/// visible to scrapes, not just the JSON snapshot.
pub fn render_text(rec: &Recorder) -> String {
    let mut counters = rec.counters_sorted();
    counters.extend(span_ring_counters(rec));
    render_parts(&counters, &rec.gauges_sorted(), &rec.hists_sorted())
}

/// The span-ring accounting of `rec` as counter samples — shared by
/// [`render_text`] and the serve-side merged exposition.
pub fn span_ring_counters(rec: &Recorder) -> Vec<(String, u64)> {
    vec![
        ("spans.dropped".to_owned(), rec.spans_dropped()),
        ("spans.recorded".to_owned(), rec.spans_recorded()),
    ]
}

/// Renders pre-collected counter, gauge and histogram data with the
/// exact rules of [`render_text`]. This is the shared body behind both
/// the single-recorder render and the serve-side exposition, which
/// merges a per-server recorder with the process-global one before
/// rendering. A gauge or histogram whose sanitised name collides with
/// an already-emitted family gets `_` appended until unique.
pub fn render_parts(
    raw_counters: &[(String, u64)],
    raw_gauges: &[(String, i64)],
    raw_hists: &[(String, Histogram)],
) -> String {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (name, value) in raw_counters {
        let slot = counters.entry(sanitize_metric_name(name)).or_insert(0);
        *slot = slot.saturating_add(*value);
    }
    let mut out = String::new();
    for (name, value) in &counters {
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    let mut taken: BTreeMap<String, ()> = counters.into_keys().map(|k| (k, ())).collect();
    let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
    for (name, value) in raw_gauges {
        // Last-value semantics extend to sanitised-name collisions: the
        // later entry (input is name-sorted) wins deterministically.
        gauges.insert(sanitize_metric_name(name), *value);
    }
    for (name, value) in gauges {
        let mut name = name;
        while taken.contains_key(&name) {
            name.push('_');
        }
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        taken.insert(name, ());
    }
    for (name, hist) in raw_hists {
        let mut name = sanitize_metric_name(name);
        while taken.contains_key(&name) {
            name.push('_');
        }
        taken.insert(name.clone(), ());
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (edge, count) in hist.edges().iter().zip(hist.counts()) {
            cumulative += count;
            out.push_str(&format!("{name}_bucket{{le=\"{edge}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {total}\n{name}_sum {sum}\n{name}_count {total}\n",
            total = hist.total(),
            sum = hist.sum(),
        ));
    }
    out
}

/// The versioned JSON metrics document `--metrics-json` writes:
/// `{metrics_version, counters, histograms, spans}` — the recorder
/// snapshot plus a schema tag. Deterministic field order, sorted
/// names, no timestamps.
pub fn metrics_document(rec: &Recorder) -> Value {
    let mut fields = vec![("metrics_version".to_owned(), Value::U64(METRICS_VERSION))];
    match rec.snapshot() {
        Value::Object(inner) => fields.extend(inner),
        other => fields.push(("snapshot".to_owned(), other)),
    }
    Value::Object(fields)
}

/// Checks that `text` is a well-formed Prometheus exposition: every
/// line is a `# TYPE`/`# HELP` comment or a `name[{le="…"}] value`
/// sample with a legal metric name, and every `# TYPE` family name is
/// unique. Returns the offending line on failure. Used by the renderer
/// tests and the `--check-metrics` load-generator gate.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut families: BTreeMap<String, ()> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let fam = parts.next().unwrap_or_default();
            if !is_valid_name(fam) || families.insert(fam.to_owned(), ()).is_some() {
                return Err(format!("bad or duplicate TYPE line: {line}"));
            }
            match parts.next() {
                Some("counter") | Some("gauge") | Some("histogram") | Some("summary")
                | Some("untyped") => {}
                _ => return Err(format!("unknown metric type: {line}")),
            }
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("sample line without value: {line}")),
        };
        if value.parse::<u64>().is_err() && value.parse::<f64>().is_err() {
            return Err(format!("non-numeric sample value: {line}"));
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("unterminated label set: {line}"));
                }
                name
            }
            None => series,
        };
        if !is_valid_name(name) {
            return Err(format!("illegal metric name: {line}"));
        }
    }
    Ok(())
}

fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::hist::{DEPTH_EDGES, LATENCY_US_EDGES};

    #[test]
    fn sanitisation_covers_the_edge_cases() {
        assert_eq!(sanitize_metric_name("flow_cache.hits"), "flow_cache_hits");
        assert_eq!(sanitize_metric_name("pd-flow:2d"), "pd_flow:2d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("ünïcode µs"), "_n_code__s");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_metric_name("a.b-c d"), "a_b_c_d");
    }

    #[test]
    fn text_rendering_is_sorted_cumulative_and_parseable() {
        let r = Recorder::new();
        r.incr("flow_cache.hits", 3);
        r.incr("accepted", 7);
        r.observe("queue_depth", 2, DEPTH_EDGES);
        r.observe("queue_depth", 9_999, DEPTH_EDGES);
        let text = render_text(&r);
        validate_exposition(&text).expect("exposition parses");
        let accepted = text.find("accepted 7").unwrap();
        let hits = text.find("flow_cache_hits 3").unwrap();
        assert!(accepted < hits, "counters sorted by sanitised name");
        assert!(text.contains("queue_depth_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("queue_depth_bucket{le=\"1024\"} 1\n"));
        assert!(text.contains("queue_depth_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("queue_depth_sum 10001\n"));
        assert!(text.contains("queue_depth_count 2\n"));
    }

    #[test]
    fn colliding_sanitised_names_stay_deterministic() {
        let r = Recorder::new();
        r.incr("a.b", 1);
        r.incr("a_b", 2);
        r.observe("a-b", 5, DEPTH_EDGES);
        let text = render_text(&r);
        validate_exposition(&text).expect("exposition parses");
        assert!(text.contains("a_b 3\n"), "colliding counters merge: {text}");
        assert!(
            text.contains("# TYPE a_b_ histogram"),
            "histogram colliding with a counter is suffixed: {text}"
        );
        assert_eq!(text, render_text(&r), "stable across renders");
    }

    #[test]
    fn gauges_render_between_counters_and_histograms() {
        let r = Recorder::new();
        r.incr("routed", 9);
        r.gauge_set("fleet.replica0.queue_depth", 4);
        r.gauge_set("in_flight", -2);
        r.observe("latency", 5, LATENCY_US_EDGES);
        let text = render_text(&r);
        validate_exposition(&text).expect("exposition parses");
        assert!(text.contains("# TYPE fleet_replica0_queue_depth gauge\n"));
        assert!(text.contains("fleet_replica0_queue_depth 4\n"));
        assert!(text.contains("in_flight -2\n"), "negative gauges render");
        let counter = text.find("routed 9").unwrap();
        let gauge = text.find("in_flight -2").unwrap();
        let hist = text.find("# TYPE latency histogram").unwrap();
        assert!(counter < gauge && gauge < hist, "counter/gauge/hist order");
        assert_eq!(text, render_text(&r), "stable across renders");
    }

    #[test]
    fn gauge_name_collisions_suffix_deterministically() {
        let r = Recorder::new();
        r.incr("a.b", 1);
        r.gauge_set("a_b", 2);
        let text = render_text(&r);
        validate_exposition(&text).expect("exposition parses");
        assert!(text.contains("a_b 1\n"), "counter keeps the name: {text}");
        assert!(
            text.contains("# TYPE a_b_ gauge\na_b_ 2\n"),
            "gauge colliding with a counter is suffixed: {text}"
        );
    }

    #[test]
    fn metrics_document_wraps_the_snapshot_with_a_version() {
        let r = Recorder::new();
        r.incr("runs", 1);
        r.observe("latency", 42, LATENCY_US_EDGES);
        let doc = metrics_document(&r);
        assert_eq!(
            doc.get("metrics_version"),
            Some(&Value::U64(METRICS_VERSION))
        );
        assert_eq!(
            doc.get("counters").unwrap().get("runs").unwrap().as_u64(),
            Some(1)
        );
        assert!(doc.get("histograms").unwrap().get("latency").is_some());
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_exposition("ok_metric 1\n").is_ok());
        assert!(validate_exposition("9bad 1\n").is_err());
        assert!(validate_exposition("no_value\n").is_err());
        assert!(validate_exposition("nan_value abc\n").is_err());
        assert!(validate_exposition("unterminated{le=\"1\" 2\n").is_err());
        assert!(validate_exposition("# TYPE dup counter\n# TYPE dup counter\n").is_err());
        assert!(validate_exposition("# TYPE x weird\n").is_err());
    }

    #[test]
    fn validator_accepts_gauge_families_including_negative_values() {
        assert!(validate_exposition("# TYPE depth gauge\ndepth 4\n").is_ok());
        assert!(validate_exposition("# TYPE in_flight gauge\nin_flight -3\n").is_ok());
        // A gauge family name must still be unique and legal.
        assert!(validate_exposition("# TYPE g gauge\n# TYPE g gauge\n").is_err());
        assert!(validate_exposition("# TYPE 9g gauge\n").is_err());
    }

    #[test]
    fn span_ring_accounting_renders_as_counters() {
        let r = Recorder::new();
        r.incr("accepted", 1);
        r.record_span(crate::obs::SpanNode::new("req:pd_flow"));
        let text = render_text(&r);
        validate_exposition(&text).expect("exposition parses");
        assert!(text.contains("# TYPE spans_recorded counter\nspans_recorded 1\n"));
        assert!(
            text.contains("# TYPE spans_dropped counter\nspans_dropped 0\n"),
            "drop accounting is rendered even at zero: {text}"
        );
    }
}
