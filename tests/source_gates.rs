//! Source gates: every experiment binary drives the typed case engine,
//! and retired helpers and APIs stay deleted. The scan is textual, so a
//! retired name coming back in code, a call or a doc link fails with the
//! line that brought it back. This file names every pattern and is not
//! scanned.

use std::fs;
use std::path::{Path, PathBuf};

/// Retired names, matched anywhere in the workspace's Rust sources.
const RETIRED: &[&str] = &[
    // Pre-`fetch` `FlowCache` entry points.
    ".run_report_traced(",
    ".run_report_coalesced(",
    "flows.run(",
    // The flow's own span type, its engine converter and the traced
    // twins: the flow builds `m3d_tech::SpanNode` directly.
    "FlowSpan",
    "FlowObserver",
    "flow_span_node",
    "run_traced",
    "post_route_optimize_traced",
    // Stage timings kept beside `Pipeline`'s stage spans.
    "StageTiming",
    "timings(",
    // The `flow-v1` report read path of the disk store.
    "legacy_report_path",
    "get_report",
];

/// `FlowCache` shims that must not regrow in `engine/cache.rs`.
const RETIRED_CACHE_FNS: &[&str] = &[
    "fn run(",
    "fn run_report_traced(",
    "fn run_report_coalesced(",
];

/// Pre-engine table helpers of `m3d-bench`, matched as calls.
const RETIRED_TABLE_HELPERS: &[&str] = &["header", "rule", "pct"];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() && !path.ends_with("target") {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Whether `line` calls `name(` with no identifier character before it.
fn calls(line: &str, name: &str) -> bool {
    line.match_indices(&format!("{name}(")).any(|(at, _)| {
        !line[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn retired_names_stay_deleted_and_binaries_use_the_engine() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut files);
    }
    files.retain(|p| *p != root.join(file!()));
    files.sort();
    let bins = Path::new("crates/bench/src/bin");
    let cache = Path::new("crates/core/src/engine/cache.rs");
    let mut failures = Vec::new();
    let mut bin_count = 0;
    for path in &files {
        let rel = path.strip_prefix(root).expect("under the root");
        let text = fs::read_to_string(path).expect("source is UTF-8");
        if rel.starts_with(bins) {
            bin_count += 1;
            if !text.contains("RunArgs") {
                failures.push(format!(
                    "{}: bypasses the RunArgs case engine",
                    rel.display()
                ));
            }
        }
        for (i, line) in text.lines().enumerate() {
            let at = || format!("{}:{}: {}", rel.display(), i + 1, line.trim());
            if let Some(name) = RETIRED.iter().find(|name| line.contains(*name)) {
                failures.push(format!("{}  <- retired `{name}`", at()));
            }
            if rel == cache && RETIRED_CACHE_FNS.iter().any(|f| line.contains(f)) {
                failures.push(format!("{}  <- FlowCache run* shim", at()));
            }
            if rel.starts_with("crates/bench/src")
                && RETIRED_TABLE_HELPERS.iter().any(|h| calls(line, h))
            {
                failures.push(format!("{}  <- pre-engine table helper", at()));
            }
        }
    }
    assert!(bin_count > 0, "no experiment binaries found");
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
