//! Round-trip contract of the typed case registry: every registered
//! experiment validates its params schema the same way on the CLI and
//! the wire, and the freshly engine-ported binaries produce
//! byte-identical `--json` artifacts at any `M3D_JOBS` value, equal to
//! their pinned FNV-1a digests — also when `flow_sensitivity`
//! warm-starts from a prewarmed disk cache — and so does the `ingest`
//! binary on the checked-in example EDIF.

use std::path::Path;
use std::process::{Command, Stdio};

use m3d_bench::registry::registry;
use m3d_core::engine::store::STORE_VERSION;
use m3d_tech::StableHasher;
use serde::Value;

/// The 21 paper experiments (the registry also carries the `sleep`
/// diagnostic and legacy aliases; this is the experiment surface the
/// binaries expose).
const EXPERIMENTS: [&str; 21] = [
    "pd_flow",
    "tier_sweep",
    "capacity_sweep",
    "sensitivity",
    "thermal_cap",
    "fig2_physical_design",
    "fig5_models",
    "table1_resnet18",
    "fig7_architectures",
    "fig8_bw_cs",
    "fig10_relaxation",
    "obs3_sram_baseline",
    "obs8_via_pitch",
    "obs10_thermal",
    "projection_nodes",
    "ablation_dataflow",
    "ablation_precision",
    "ablation_batch",
    "ablation_congestion",
    "sensitivity_analysis",
    "folding_ablation",
];

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[test]
fn every_experiment_is_registered_with_a_schema() {
    let names: Vec<&str> = registry().iter().map(|c| c.name()).collect();
    for want in EXPERIMENTS {
        assert!(names.contains(&want), "case `{want}` is not registered");
    }
    // The five backlog binaries all dispatch through the registry now.
    for ported in [
        "ablation_congestion",
        "folding_ablation",
        "corners_signoff",
        "extension_mobilenet",
        "future_upper_logic",
    ] {
        assert!(names.contains(&ported), "backlog case `{ported}` missing");
    }
    // The external-netlist front door is a registered case too.
    assert!(names.contains(&"ingest"), "ingest case missing");
}

#[test]
fn ingest_rejects_malformed_payloads_before_enqueue() {
    let case = registry()
        .iter()
        .find(|c| c.name() == "ingest")
        .expect("registered");
    // validate() is the service's pre-queue gate: a syntactically
    // invalid EDIF upload must answer bad-request with its position
    // without ever occupying a worker.
    let err = case
        .validate(
            true,
            &obj(vec![(
                "source",
                Value::Str("(edif d (library broken".to_owned()),
            )]),
        )
        .expect_err("malformed EDIF must be rejected");
    assert_eq!(err.code, m3d_core::ErrorCode::BadRequest);
    assert!(err.message.contains("line 1"), "{}", err.message);
}

#[test]
fn null_params_validate_everywhere() {
    for case in registry() {
        assert_eq!(
            case.validate(true, &Value::Null),
            Ok(()),
            "case `{}` must accept null params",
            case.name()
        );
        assert_eq!(
            case.validate(true, &Value::Object(Vec::new())),
            Ok(()),
            "case `{}` must accept an empty params object",
            case.name()
        );
    }
}

#[test]
fn unknown_params_are_bad_requests_everywhere() {
    for case in registry() {
        let err = case
            .validate(
                true,
                &obj(vec![("definitely_not_a_real_param", Value::U64(1))]),
            )
            .expect_err(&format!(
                "case `{}` must reject unknown params",
                case.name()
            ));
        assert_eq!(
            err.code,
            m3d_core::ErrorCode::BadRequest,
            "case `{}` rejection must be BadRequest-coded",
            case.name()
        );
        assert!(
            err.message.contains("definitely_not_a_real_param"),
            "case `{}` rejection must name the offending key",
            case.name()
        );
    }
}

#[test]
fn non_object_params_are_bad_requests_everywhere() {
    for case in registry() {
        let err = case
            .validate(true, &Value::Str("nope".to_owned()))
            .expect_err(&format!(
                "case `{}` must reject non-object params",
                case.name()
            ));
        assert_eq!(err.code, m3d_core::ErrorCode::BadRequest);
    }
}

#[test]
fn typed_param_values_are_range_checked() {
    let corners = registry()
        .iter()
        .find(|c| c.name() == "corners_signoff")
        .expect("registered");
    let err = corners
        .validate(
            true,
            &obj(vec![("corners", Value::Str("ss,xx".to_owned()))]),
        )
        .expect_err("unknown corner must be rejected");
    assert_eq!(err.code, m3d_core::ErrorCode::BadRequest);
    assert!(err.message.contains("xx"));
    let err = corners
        .validate(true, &obj(vec![("corners", Value::U64(3))]))
        .expect_err("non-string corners must be rejected");
    assert_eq!(err.code, m3d_core::ErrorCode::BadRequest);
}

#[test]
fn param_fields_carry_names_and_defaults() {
    for case in registry() {
        for field in case.param_fields() {
            assert!(
                !field.name.is_empty() && !field.default.is_empty(),
                "case `{}` has a blank param field",
                case.name()
            );
        }
    }
}

fn run_json(exe: &str, jobs: &str, path: &Path) {
    let status = Command::new(exe)
        .args(["--quick", "--json"])
        .arg(path)
        .env("M3D_JOBS", jobs)
        // A shared disk cache would flip provenance between runs; keep
        // every run computing from scratch.
        .env_remove("M3D_CACHE_DIR")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("binary runs");
    assert!(status.success(), "{exe} --quick failed (M3D_JOBS={jobs})");
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.write(bytes);
    format!("{:016x}", h.finish())
}

/// The five freshly ported binaries plus the warm-started
/// `flow_sensitivity` sweep and the Obs. 10 thermal report (whose
/// lumped-grid vs eq. 17 agreement the binary asserts in-process):
/// byte-identical `--json` across worker counts, straight off the
/// engine executor, and equal to the pinned digest.
#[test]
fn ported_binaries_emit_deterministic_json() {
    let dir = std::env::temp_dir().join(format!("m3d-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, exe, digest) in [
        (
            "ablation_congestion",
            env!("CARGO_BIN_EXE_ablation_congestion"),
            "e34ca8d0852c466a",
        ),
        (
            "folding_ablation",
            env!("CARGO_BIN_EXE_folding_ablation"),
            "d5ec1dd231311968",
        ),
        (
            "corners_signoff",
            env!("CARGO_BIN_EXE_corners_signoff"),
            "49c6b30d3b23abe6",
        ),
        (
            "extension_mobilenet",
            env!("CARGO_BIN_EXE_extension_mobilenet"),
            "f5282aab089d89f5",
        ),
        (
            "future_upper_logic",
            env!("CARGO_BIN_EXE_future_upper_logic"),
            "9434f27c2396538a",
        ),
        (
            "flow_sensitivity",
            env!("CARGO_BIN_EXE_flow_sensitivity"),
            "9760943f51e87e9d",
        ),
        (
            "obs10_thermal",
            env!("CARGO_BIN_EXE_obs10_thermal"),
            "3e5426c3a2b82d86",
        ),
    ] {
        let a = dir.join(format!("{name}-jobs1.json"));
        let b = dir.join(format!("{name}-jobs4.json"));
        run_json(exe, "1", &a);
        run_json(exe, "4", &b);
        let one = std::fs::read(&a).expect("report written");
        let four = std::fs::read(&b).expect("report written");
        assert_eq!(one, four, "{name} --json must not depend on M3D_JOBS");
        assert!(!one.is_empty(), "{name} report must not be empty");
        assert_eq!(fnv1a(&one), digest, "{name} --json bytes moved");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The disk-tier warm gate: a fresh `M3D_CACHE_DIR` prewarmed with a
/// shifted activity grid (same placement key, no exact-key hits) leaves
/// one seed file, every default-grid point then warm-starts from it,
/// and the `--json` still equals the pinned cold digest above.
#[test]
fn flow_sensitivity_warm_starts_from_the_disk_seed_byte_identically() {
    let dir = std::env::temp_dir().join(format!("m3d-warm-disk-{}", std::process::id()));
    let cache = dir.join("cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&cache).expect("temp dir");
    let json = dir.join("sens-warm.json");
    let prom = dir.join("sens-warm.prom");
    let run = |args: &[&std::ffi::OsStr]| {
        let status = Command::new(env!("CARGO_BIN_EXE_flow_sensitivity"))
            .arg("--quick")
            .args(args)
            .env("M3D_CACHE_DIR", &cache)
            .env("M3D_JOBS", "1")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("binary runs");
        assert!(status.success(), "flow_sensitivity {args:?} failed");
    };
    run(&["--set".as_ref(), "activity_lo_pct=12".as_ref()]);
    run(&[
        "--json".as_ref(),
        json.as_os_str(),
        "--metrics-text".as_ref(),
        prom.as_os_str(),
    ]);

    let payload = std::fs::read(&json).expect("report written");
    assert_eq!(fnv1a(&payload), "9760943f51e87e9d", "warm --json != cold");
    let metrics = std::fs::read_to_string(&prom).expect("metrics written");
    let warm_runs: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("pd_flow_warm_runs "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    assert!(warm_runs >= 1, "never warm-started:\n{metrics}");

    let names: Vec<String> = std::fs::read_dir(&cache)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    let count = |prefix: &str| {
        names
            .iter()
            .filter(|n| n.starts_with(prefix) && n.ends_with(".json"))
            .count()
    };
    assert_eq!(count(&format!("flow-v{STORE_VERSION}-")), 6, "{names:?}");
    assert_eq!(count(&format!("place-v{STORE_VERSION}-")), 1, "{names:?}");
    assert_eq!(names.len(), 7, "nothing else is written: {names:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The ingest gate: the checked-in example EDIF flattens and implements
/// deterministically (the `--json` is byte-identical across worker
/// counts and equal to its pinned digest), the trace carries the
/// front-end counters, and a malformed source is a bad request (exit 2)
/// whose message names a source position.
#[test]
fn ingest_example_is_deterministic_and_malformed_sources_exit_2() {
    let exe = env!("CARGO_BIN_EXE_ingest");
    let example = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/adder4.edif");
    let mut file = std::ffi::OsString::from("file=");
    file.push(&example);
    let dir = std::env::temp_dir().join(format!("m3d-ingest-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("ingest-trace.json");
    let run = |jobs: &str, json: &Path, extra: &[&std::ffi::OsStr]| {
        let status = Command::new(exe)
            .arg("--quick")
            .arg("--set")
            .arg(&file)
            .arg("--json")
            .arg(json)
            .args(extra)
            .env("M3D_JOBS", jobs)
            .env_remove("M3D_CACHE_DIR")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("binary runs");
        assert!(status.success(), "ingest --quick failed (M3D_JOBS={jobs})");
        std::fs::read(json).expect("report written")
    };
    let one = run(
        "1",
        &dir.join("ingest-a.json"),
        &["--trace-json".as_ref(), trace.as_os_str()],
    );
    let four = run("4", &dir.join("ingest-b.json"), &[]);
    assert_eq!(one, four, "ingest --json must not depend on M3D_JOBS");
    assert_eq!(fnv1a(&one), "12a825e0e1a1ab6a", "ingest --json bytes moved");
    let spans = std::fs::read_to_string(&trace).expect("trace written");
    for counter in [
        "\"ingest.cells\"",
        "\"ingest.nets\"",
        "\"ingest.flatten_depth\"",
    ] {
        assert!(spans.contains(counter), "trace lacks {counter}:\n{spans}");
    }

    let out = Command::new(exe)
        .args(["--set", "source=(edif broken"])
        .env_remove("M3D_CACHE_DIR")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "malformed EDIF: {stderr}");
    assert!(stderr.contains("line 1, column"), "no position: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
