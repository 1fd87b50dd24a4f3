//! The benchmark's own contract: metric names and units agree with
//! `BENCHMARK.json`, every workload reports every metric on a short run,
//! and the named work counts repeat exactly for one seed.

use std::process::Command;

use m3d_perfbench::metrics::{END_TO_END, EXACT_COUNTS, PER_LAYER};
use m3d_perfbench::workloads::NAMES;
use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn table(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key} entry lacks `{k}`: {other:?}"),
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn owned(t: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
    t.iter()
        .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let doc = serde_json::from_str_value(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert_eq!(table(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(table(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| match w.get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("workload without a name"),
        })
        .collect();
    assert_eq!(workloads, NAMES);
}

/// Runs one short workload and returns its parsed result line.
fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_m3d-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str_value(last).expect("result is JSON")
}

fn metric(result: &Value, name: &str, unit: &str) -> f64 {
    let m = result
        .get("metrics")
        .and_then(|ms| ms.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"));
    assert_eq!(m.get("unit"), Some(&Value::Str(unit.to_owned())), "{name}");
    m.get("value")
        .and_then(Value::as_f64)
        .expect("numeric value")
}

#[test]
fn short_runs_report_every_metric_and_repeat_exact_counts() {
    for &workload in NAMES {
        let plain = run(workload, false);
        assert_eq!(plain.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert_eq!(plain.get("failed").and_then(Value::as_u64), Some(0));
        for &(name, unit, _) in END_TO_END {
            assert!(metric(&plain, name, unit) > 0.0, "{workload}: {name} is 0");
        }

        let (a, b) = (run(workload, true), run(workload, true));
        for &(name, unit, _) in PER_LAYER {
            metric(&a, name, unit);
        }
        for &name in EXACT_COUNTS {
            let unit = PER_LAYER
                .iter()
                .find(|m| m.0 == name)
                .expect("exact counts are per-layer metrics")
                .1;
            assert_eq!(
                metric(&a, name, unit),
                metric(&b, name, unit),
                "{workload}: {name} differs across same-seed runs"
            );
        }
    }
}
