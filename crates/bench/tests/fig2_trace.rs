//! End-to-end contract of `--trace-json` on the pd-flow experiments: the
//! span tree must expose the flow's internals (placement steps, opt
//! rounds, CTS and STA child spans with integer counters) and each
//! document must stay byte-identical across `M3D_JOBS` values and equal
//! to its pinned FNV-1a digest.

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

#[test]
fn fig2_trace_exposes_pd_sub_spans_and_ignores_job_count() {
    let dir = std::env::temp_dir().join(format!("m3d-fig2-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, exe, digest) in [
        (
            "fig2_physical_design",
            env!("CARGO_BIN_EXE_fig2_physical_design"),
            "0e504fc9b732723d",
        ),
        (
            "flow_sensitivity",
            env!("CARGO_BIN_EXE_flow_sensitivity"),
            "6a7bc6da8a24bbc0",
        ),
        (
            "corners_signoff",
            env!("CARGO_BIN_EXE_corners_signoff"),
            "dfff7511b215bc5f",
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
        if name != "fig2_physical_design" {
            continue;
        }

        let text = String::from_utf8(a).expect("trace is UTF-8");
        // Flow phases surface as child spans of the pd-flow stages...
        for span in ["\"place\"", "\"route\"", "\"cts\"", "\"sta\"", "\"opt\""] {
            assert!(text.contains(span), "missing {span} sub-span in trace");
        }
        // ...carrying deterministic integer counters: per-step annealing
        // children, per-round optimisation children, and ILV tallies.
        for marker in [
            "\"counters\"",
            "\"step0\"",
            "\"round0\"",
            "\"steps\"",
            "\"signal_ilvs\"",
            "\"insertion_delay_ps\"",
        ] {
            assert!(text.contains(marker), "missing {marker} in trace");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
