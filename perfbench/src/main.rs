//! The repository benchmark: one named workload per run, end-to-end
//! metrics untraced, per-layer metrics from a separate traced run.
//!
//! ```text
//! m3d-perfbench --workload <fig2_cold|serve_mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--trace-out <file>] [--commit <id>] [--source-digest <hex>]
//! m3d-perfbench --pin        # recompute pins.json from cold runs
//! ```
//!
//! The last stdout line is `{"correct", "attempted", "failed", "metrics"}`;
//! the line before it records the run environment. The exit code is 0
//! only when every output checked out.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use m3d_perfbench::stats::{median, tail};
use m3d_perfbench::trace::{self, Tracer};
use m3d_perfbench::workloads::{self, Measured, RunEnv};
use m3d_perfbench::{metrics, pins, probe};
use serde::Value;

const USAGE: &str = "usage: m3d-perfbench --workload <fig2_cold|serve_mixed> \
--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--commit <id>] \
[--source-digest <hex>] | --pin";

#[derive(Debug, Default)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    commit: String,
    source_digest: String,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        commit: "unknown".to_owned(),
        source_digest: "unknown".to_owned(),
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            a.pin = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(val)),
            "--commit" => a.commit = val,
            "--source-digest" => a.source_digest = val,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.pin {
        return Ok(a);
    }
    a.workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    a.seed = seed.ok_or("--seed is required")?;
    a.seconds = seconds.ok_or("--seconds is required")?;
    a.trace = trace.ok_or("--trace is required")?;
    Ok(a)
}

/// Pins the engine environment before any thread starts: no disk tier,
/// and `M3D_JOBS` at most `nproc`. Unset, it stays at the program's own
/// default, `nproc`, so the `par_map` fan-outs (the red-black SOR
/// half-sweeps, the sweep and Monte-Carlo cases) run as they do for users.
fn pin_environment() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs = std::env::var("M3D_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map_or(nproc, |n| n.min(nproc));
    std::env::remove_var("M3D_CACHE_DIR");
    std::env::set_var("M3D_JOBS", jobs.to_string());
    (nproc, jobs)
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_owned(), Value::F64(value)),
        ("unit".to_owned(), Value::Str(unit.to_owned())),
    ])
}

fn end_to_end(m: &Measured) -> BTreeMap<&'static str, f64> {
    let done = (m.op_ms.len() + m.traced_ms.len()) as f64;
    BTreeMap::from([
        ("setup_s", median(&m.setup_s)),
        ("ops_per_s", done / m.wall_s.max(1e-9)),
        ("op_ms_p50", median(&m.op_ms)),
        ("op_ms_tail", tail(&m.op_ms).value),
        ("peak_rss_mb", m.peak_rss_mb),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (nproc, jobs) = pin_environment();
    if args.pin {
        return match pins::Pins::compute() {
            Ok(p) => {
                println!("{}", p.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let pins = match pins::Pins::load() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let env = RunEnv {
        seed: args.seed,
        seconds: args.seconds,
        clients: nproc,
        trace: args.trace,
    };
    let tracer = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "fig2_cold" => workloads::fig2_cold,
        _ => workloads::serve_mixed,
    };
    let mut m = match run(&env, &pins, &tracer) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };

    let (units, values): (metrics::MetricTable, BTreeMap<&str, f64>) = if args.trace {
        m.attempted += 1;
        let mut layer = match probe::run(&tracer, args.seed, nproc) {
            Ok(l) => l,
            Err(e) => {
                m.failed += 1;
                m.errors.push(format!("probe: {e}"));
                BTreeMap::new()
            }
        };
        let traced = median(&m.traced_ms);
        layer.insert("trace.op_ms_p50", traced);
        layer.insert("trace.overhead_ms", traced - median(&m.op_ms));
        (metrics::PER_LAYER, layer)
    } else {
        (metrics::END_TO_END, end_to_end(&m))
    };
    let fail_ratio = m.failed as f64 / m.attempted.max(1) as f64;
    let t = tail(&m.op_ms);
    let env_line = Value::Object(vec![
        ("workload".to_owned(), Value::Str(args.workload.clone())),
        ("seed".to_owned(), Value::U64(args.seed)),
        ("seconds".to_owned(), Value::F64(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("commit".to_owned(), Value::Str(args.commit.clone())),
        (
            "source_digest".to_owned(),
            Value::Str(args.source_digest.clone()),
        ),
        ("nproc".to_owned(), Value::U64(nproc as u64)),
        ("m3d_jobs".to_owned(), Value::U64(jobs as u64)),
        ("setup_reps".to_owned(), Value::U64(m.setup_s.len() as u64)),
        ("attempted".to_owned(), Value::U64(m.attempted)),
        ("samples".to_owned(), Value::U64(m.op_ms.len() as u64)),
        (
            "traced_samples".to_owned(),
            Value::U64(m.traced_ms.len() as u64),
        ),
        ("tail_percentile".to_owned(), Value::F64(t.percentile)),
        ("tail_beyond".to_owned(), Value::U64(t.beyond as u64)),
        ("fail_ratio".to_owned(), Value::F64(fail_ratio)),
        (
            "errors".to_owned(),
            Value::Array(m.errors.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    for e in &m.errors {
        eprintln!("failure: {e}");
    }
    if let Some(path) = &args.trace_out {
        let doc = Value::Object(vec![
            ("env".to_owned(), env_line.clone()),
            ("spans".to_owned(), trace::to_value(&tracer.spans())),
        ]);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::write(path, serde_json::to_string(&doc).expect("trace serialises"))
            });
        if let Err(e) = written {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    let correct = m.failed == 0;
    let metrics = Value::Object(
        units
            .iter()
            .filter_map(|&(name, unit, _)| {
                values
                    .get(name)
                    .map(|&v| (name.to_owned(), metric_value(v, unit)))
            })
            .collect(),
    );
    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::U64(m.attempted)),
        ("failed".to_owned(), Value::U64(m.failed)),
        ("metrics".to_owned(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![("env".to_owned(), env_line)]))
            .expect("env serialises")
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
