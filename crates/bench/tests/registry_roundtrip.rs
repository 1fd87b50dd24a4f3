//! Round-trip contract of the typed case registry: every registered
//! experiment validates its params schema the same way on the CLI and
//! the wire, and the freshly engine-ported binaries produce
//! byte-identical `--json` artifacts at any `M3D_JOBS` value, equal to
//! their pinned FNV-1a digests.

use std::process::Command;

use m3d_bench::registry::registry;
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
    let names: Vec<&str> = registry().into_iter().map(|c| c.name()).collect();
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
        .into_iter()
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
        .into_iter()
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

fn run_json(exe: &str, jobs: &str, path: &std::path::Path) {
    let status = Command::new(exe)
        .args(["--quick", "--json"])
        .arg(path)
        .env("M3D_JOBS", jobs)
        // A shared disk cache would flip provenance between runs; keep
        // every run computing from scratch.
        .env_remove("M3D_CACHE_DIR")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
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
/// `flow_sensitivity` sweep: byte-identical `--json` across worker
/// counts, straight off the engine executor, and equal to the pinned
/// digest.
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
