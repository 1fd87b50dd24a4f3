//! Source gates: every experiment binary drives the typed case engine,
//! retired helpers and APIs stay deleted, and every public module is
//! reached from code outside it. The scans are textual, so a retired
//! name coming back in code, a call or a doc link fails with the line
//! that brought it back. This file names every pattern and is not
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
    // Warm-start neighbour ranking, its sidecars and the store trait:
    // a seed is addressed by its placement key alone.
    "ParamPoint",
    "param_point",
    "nearest_neighbour",
    "NeighbourMeta",
    "EnvelopeMeta",
    "MemoryStore",
    "ArtifactStore",
    "with_store",
    "meta_path",
    ".meta.json",
    // `FetchOpts` knobs nobody set.
    "uncoalesced",
    ".cold()",
    // Per-name `String`s sized twice, and the id-remapping merge: names
    // live in the netlist's one buffer, and CSs are stamped by `append`.
    "exact_string",
    "absorb(",
    // The load generator, whose gates are `cargo test`s now, its
    // percentile summary, and the warm-start bench's JSON writer.
    "m3d-loadgen",
    "LatencySummary",
    "M3D_BENCH_WARMSTART_JSON",
    // Modules nothing reached: the Gables rooflines and the per-layer
    // execution traces (`m3d_arch::trace` keeps only `Phase`).
    "SocRoofline",
    "trace_layer",
    "ExecutionTrace",
    // Writers, models and options no binary, case, service or benchmark
    // reached: the Liberty/LEF, GDS-JSON and SPEF writers, the device
    // model, the carry-select adder, the memoised grid tier-cap model
    // with its trait, the thermal-pruned sensitivity variant, two
    // one-line wrappers, and the incremental re-route.
    "to_liberty",
    "to_lef",
    "LayoutExport",
    "to_spef",
    "carry_select_adder",
    "DeviceModel",
    "GridThermalModel",
    "TierThermalModel",
    "edp_benefit_sensitivity_pruned",
    "fig5_comparisons(",
    "from_flow_report(",
    "reestimate_routing",
    // The seed-only warm path: a flow resumes from a stage result
    // through `Rtl2GdsFlow::resume`, and the cache picks that result in
    // `resume_point`.
    "run_seeded",
    "find_seed",
];

/// Public modules nothing outside them reaches, each kept on purpose.
const UNREACHED_ON_PURPOSE: &[(&str, &str)] = &[
    (
        "crates/netlist/src/eval.rs",
        "the functional oracle that shows the generators add and multiply",
    ),
    (
        "crates/netlist/src/verilog.rs",
        "the ingest round-trip oracle; tests/golden_bits.rs pins its bytes",
    ),
    (
        "crates/pd/src/drc.rs",
        "the legality oracle for `legalize` and tests/flow_quality.rs",
    ),
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

/// `text` without `#[cfg(test)]` items, `use`/`mod` statements and `//`
/// comments: the code a module's names must appear in to count as
/// reached.
fn non_test_code(text: &str) -> String {
    let mut out = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        if trimmed == "#[cfg(test)]" {
            // A one-line item ends at its `;`; rustfmt closes a block
            // item at the attribute's own indent.
            let close = format!("{}}}", &line[..line.len() - trimmed.len()]);
            if lines.next().is_some_and(|item| item.contains('{')) {
                for inner in lines.by_ref() {
                    if inner == close {
                        break;
                    }
                }
            }
            continue;
        }
        let item = trimmed
            .strip_prefix("pub(crate) ")
            .or_else(|| trimmed.strip_prefix("pub "))
            .unwrap_or(trimmed);
        if item.starts_with("use ") || item.starts_with("mod ") {
            let mut end = line;
            while !end.trim_end().ends_with(';') && !end.trim_end().ends_with('{') {
                match lines.next() {
                    Some(next) => end = next,
                    None => break,
                }
            }
            continue;
        }
        out.push_str(line.find("//").map_or(line, |at| &line[..at]));
        out.push('\n');
    }
    out
}

/// The names a module file declares at column 0 as `pub` items.
fn public_names(text: &str) -> Vec<&str> {
    const KINDS: &[&str] = &[
        "fn ", "struct ", "enum ", "trait ", "const ", "static ", "type ",
    ];
    text.lines()
        .filter_map(|line| line.strip_prefix("pub "))
        .filter_map(|rest| KINDS.iter().find_map(|kind| rest.strip_prefix(kind)))
        .map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// Whether `name` occurs in `code` with no identifier character on
/// either side.
fn mentions(code: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(name).any(|(at, _)| {
        !code[..at].chars().next_back().is_some_and(ident)
            && !code[at + name.len()..].chars().next().is_some_and(ident)
    })
}

#[test]
fn every_public_module_is_reached() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    files.retain(|p| p.components().any(|c| c.as_os_str() == "src"));
    rust_sources(&root.join("perfbench/src"), &mut files);
    files.sort();
    let code: Vec<(PathBuf, String)> = files
        .iter()
        .map(|p| {
            let text = fs::read_to_string(p).expect("source is UTF-8");
            (
                p.strip_prefix(root).expect("under the root").to_owned(),
                non_test_code(&text),
            )
        })
        .collect();

    let mut unreached = Vec::new();
    let mut allowed = Vec::new();
    for decl in code
        .iter()
        .map(|(p, _)| p)
        .filter(|p| p.ends_with("lib.rs") || p.ends_with("mod.rs"))
    {
        let dir = decl.parent().expect("a source file has a directory");
        let raw = fs::read_to_string(root.join(decl)).expect("source is UTF-8");
        for module in raw
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
        {
            let (file, inside) = if root.join(dir).join(format!("{module}.rs")).is_file() {
                let file = dir.join(format!("{module}.rs"));
                (file.clone(), file)
            } else {
                (dir.join(module).join("mod.rs"), dir.join(module))
            };
            let body = fs::read_to_string(root.join(&file)).expect("module file exists");
            let names = public_names(&body);
            if names.is_empty() {
                continue;
            }
            let reached = code
                .iter()
                .filter(|(p, _)| !p.starts_with(&inside))
                .any(|(_, other)| names.iter().any(|n| mentions(other, n)));
            let on_purpose = UNREACHED_ON_PURPOSE
                .iter()
                .any(|(path, _)| Path::new(path) == file);
            match (reached, on_purpose) {
                (false, false) => unreached.push(format!(
                    "{}: none of {names:?} appears outside it",
                    file.display()
                )),
                (false, true) => allowed.push(file),
                (true, true) => unreached.push(format!(
                    "{}: reached now; drop it from UNREACHED_ON_PURPOSE",
                    file.display()
                )),
                (true, false) => {}
            }
        }
    }
    assert!(unreached.is_empty(), "\n{}", unreached.join("\n"));
    assert_eq!(
        allowed.len(),
        UNREACHED_ON_PURPOSE.len(),
        "an UNREACHED_ON_PURPOSE entry names no public module: {allowed:?}"
    );
}
