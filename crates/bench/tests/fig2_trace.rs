//! End-to-end contract of `--trace-json` on the pd-flow experiments and
//! Table I: the span tree must expose the flow's internals (placement
//! steps, opt rounds, CTS and STA child spans with integer counters),
//! the corner sweep must carry one span per corner with provenance,
//! Table I its pipeline stages with provenance, and each document must
//! stay byte-identical across `M3D_JOBS` values and equal to its pinned
//! FNV-1a digest. Table I's `--metrics-text` must be a well-formed
//! exposition carrying the engine's guaranteed counters.

use std::path::Path;
use std::process::Command;

use m3d_tech::StableHasher;

fn run_trace(exe: &str, jobs: &str, trace: &Path) {
    let status = Command::new(exe)
        .args(["--quick", "--trace-json"])
        .arg(trace)
        .env("M3D_JOBS", jobs)
        // A shared disk cache would flip the second run's provenance to
        // disk-hit; keep both runs computing from scratch.
        .env_remove("M3D_CACHE_DIR")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("binary runs");
    assert!(
        status.success(),
        "{exe} --quick failed under M3D_JOBS={jobs}"
    );
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.write(bytes);
    format!("{:016x}", h.finish())
}

/// What the fig2 trace must expose: the flow phases as child spans of
/// the pd-flow stages, carrying deterministic integer counters
/// (per-step annealing children, per-round optimisation children and
/// ILV tallies).
const FIG2_MARKERS: &[&str] = &[
    "\"place\"",
    "\"route\"",
    "\"cts\"",
    "\"sta\"",
    "\"opt\"",
    "\"counters\"",
    "\"step0\"",
    "\"round0\"",
    "\"steps\"",
    "\"signal_ilvs\"",
    "\"insertion_delay_ps\"",
];

/// What the corner sweep must expose: one child span per corner, with
/// cache provenance.
const CORNER_MARKERS: &[&str] = &[
    "\"corner:ss\"",
    "\"corner:tt\"",
    "\"corner:ff\"",
    "\"provenance\"",
];

/// What the Table I trace must expose: the analytical pipeline's
/// stages, with cache provenance.
const TABLE1_MARKERS: &[&str] = &["\"arch-sim\"", "\"report\"", "\"provenance\""];

#[test]
fn fig2_trace_exposes_pd_sub_spans_and_ignores_job_count() {
    let dir = std::env::temp_dir().join(format!("m3d-fig2-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, exe, digest, markers) in [
        (
            "fig2_physical_design",
            env!("CARGO_BIN_EXE_fig2_physical_design"),
            "0e504fc9b732723d",
            FIG2_MARKERS,
        ),
        (
            "flow_sensitivity",
            env!("CARGO_BIN_EXE_flow_sensitivity"),
            "6a7bc6da8a24bbc0",
            &[],
        ),
        (
            "corners_signoff",
            env!("CARGO_BIN_EXE_corners_signoff"),
            "dfff7511b215bc5f",
            CORNER_MARKERS,
        ),
        (
            "table1_resnet18",
            env!("CARGO_BIN_EXE_table1_resnet18"),
            "a6de66b925c82d99",
            TABLE1_MARKERS,
        ),
    ] {
        let t1 = dir.join(format!("{name}-jobs1.json"));
        let t4 = dir.join(format!("{name}-jobs4.json"));
        run_trace(exe, "1", &t1);
        run_trace(exe, "4", &t4);
        let a = std::fs::read(&t1).expect("trace written");
        let b = std::fs::read(&t4).expect("trace written");
        assert_eq!(a, b, "{name} trace bytes must not depend on M3D_JOBS");
        assert_eq!(fnv1a(&a), digest, "{name} --trace-json bytes moved");
        let text = String::from_utf8(a).expect("trace is UTF-8");
        for marker in markers {
            assert!(text.contains(marker), "{name} trace is missing {marker}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The line grammar the exposition keeps to: `# TYPE name …` and
/// `# HELP name …` comments, and `name[{le="…"}] <integer>` samples.
fn is_exposition_line(line: &str) -> bool {
    if let Some(rest) = line
        .strip_prefix("# TYPE ")
        .or_else(|| line.strip_prefix("# HELP "))
    {
        return is_metric_name(rest.split(' ').next().unwrap_or_default());
    }
    let Some((series, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let name = match series.split_once('{') {
        Some((name, labels)) => match labels
            .strip_prefix("le=\"")
            .and_then(|l| l.strip_suffix("\"}"))
        {
            Some(edge) if !edge.contains('"') => name,
            _ => return false,
        },
        None => series,
    };
    is_metric_name(name) && !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit())
}

#[test]
fn table1_metrics_text_is_a_well_formed_exposition() {
    let path = std::env::temp_dir().join(format!("m3d-table1-metrics-{}.prom", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_table1_resnet18"))
        .args(["--quick", "--metrics-text"])
        .arg(&path)
        .env_remove("M3D_CACHE_DIR")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("binary runs");
    assert!(
        status.success(),
        "table1_resnet18 --quick --metrics-text failed"
    );
    let text = std::fs::read_to_string(&path).expect("metrics written");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.contains(&"engine_runs 1"),
        "no `engine_runs 1` in:\n{text}"
    );
    assert!(
        lines.contains(&"# TYPE engine_runs counter"),
        "untyped engine_runs:\n{text}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("engine_stages ")),
        "no engine_stages sample in:\n{text}"
    );
    m3d_core::obs::validate_exposition(&text).expect("exposition parses");
    let malformed: Vec<&&str> = lines.iter().filter(|l| !is_exposition_line(l)).collect();
    assert!(
        malformed.is_empty(),
        "malformed exposition lines: {malformed:?}"
    );
}

#[test]
fn exposition_line_grammar_admits_samples_and_comments_only() {
    for ok in [
        "# TYPE engine_runs counter",
        "# HELP engine_runs Completed engine runs.",
        "engine_runs 1",
        "par_map_workers_bucket{le=\"+Inf\"} 12",
        "a:b_c 0",
    ] {
        assert!(is_exposition_line(ok), "rejected {ok:?}");
    }
    for bad in [
        "",
        "engine_runs",
        "engine_runs 1.5",
        "engine_runs -1",
        "9runs 1",
        "# TYPE 9runs counter",
        "# NOTE engine_runs",
        "h_bucket{quantile=\"0.5\"} 1",
        "h_bucket{le=\"1\" 1",
        "engine runs 1",
    ] {
        assert!(!is_exposition_line(bad), "admitted {bad:?}");
    }
}
