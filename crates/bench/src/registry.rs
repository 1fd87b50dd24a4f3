//! The experiment case registry: every serveable experiment, by name.
//!
//! The bench binaries and the `m3d-serve` experiment service share this
//! dispatch table. A [`Case`] names one parameterised experiment — a
//! physical-design flow, an exploration sweep, a Monte-Carlo sensitivity
//! run, a thermal tier-cap solve — and runs it against the *shared*
//! process-wide caches in a [`CaseCtx`], so identical configurations are
//! computed once however many callers (CLI invocations, service
//! requests, sweep workers) ask.
//!
//! Each case is one trait impl over a **typed params struct**: the wire
//! [`serde::Value`] is parsed once into the struct (range-checked, with
//! quick-mode defaults), and the execution logic takes the struct — so
//! adding a case is one `impl Case` plus a registry line, and parameter
//! validation cannot drift from execution. Result construction uses
//! fixed field order so a case's payload is **byte-identical** for
//! identical parameters — across runs, worker counts and server
//! instances (an acceptance criterion of the service).

use std::sync::Mutex;

use m3d_arch::models;
use m3d_core::cases::BaselineAreas;
use m3d_core::engine::{FetchOpts, FlowCache, FlowFetch, Pipeline, Stage, StageCtx};
use m3d_core::explore::{capacity_sweep, tier_sweep};
use m3d_core::framework::{ChipParams, WorkloadPoint};
use m3d_core::sensitivity::{edp_benefit_sensitivity, Perturbation};
use m3d_core::thermal::ThermalModel;
use m3d_core::ErrorCode;
use m3d_netlist::CsConfig;
use m3d_pd::FlowConfig;
use m3d_tech::{LayerStack, Pdk};
use m3d_thermal::{GridConfig, PowerMap, SolverConfig, ThermalCache};
use serde::Value;

use crate::cases;

/// Shared evaluation backend a case runs against, optionally carrying a
/// [`Pipeline`] to instrument the run's coarse stages.
pub struct CaseCtx<'a> {
    /// Process-wide flow memo (optionally disk-backed, `M3D_CACHE_DIR`).
    pub flows: &'a FlowCache,
    /// Process-wide steady-solve memo.
    pub thermals: &'a ThermalCache,
    /// Stage instrumentation sink, when the caller collects one (the CLI
    /// driver does; the service runs cases detached).
    pipeline: Option<&'a Mutex<Pipeline>>,
}

impl<'a> CaseCtx<'a> {
    /// A context over the shared caches, with no stage instrumentation.
    pub fn new(flows: &'a FlowCache, thermals: &'a ThermalCache) -> Self {
        Self {
            flows,
            thermals,
            pipeline: None,
        }
    }

    /// Attaches a pipeline: subsequent [`CaseCtx::stage`] calls record
    /// timings and spans on it.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: &'a Mutex<Pipeline>) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Runs `f` as an instrumented `stage` when a pipeline is attached,
    /// or against a detached [`StageCtx`] (marks and spans dropped)
    /// otherwise. Stages must not nest — the pipeline is mutex-guarded.
    pub fn stage<T>(&self, stage: Stage, label: &str, f: impl FnOnce(&mut StageCtx) -> T) -> T {
        match self.pipeline {
            Some(pipe) => pipe
                .lock()
                .expect("pipeline poisoned")
                .stage(stage, label, f),
            None => f(&mut StageCtx::detached()),
        }
    }
}

/// A finished case run.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Deterministic result payload (byte-identical for identical
    /// parameters).
    pub result: Value,
    /// Satisfied from a shared cache rather than recomputed.
    pub cache_hit: bool,
    /// Joined another caller's in-flight computation.
    pub coalesced: bool,
}

impl CaseOutcome {
    pub(crate) fn fresh(result: Value) -> Self {
        Self {
            result,
            cache_hit: false,
            coalesced: false,
        }
    }
}

/// A case failure, classified by the shared [`ErrorCode`] the service
/// maps onto its wire protocol ([`ErrorCode::BadRequest`] for parameter
/// errors, [`ErrorCode::Internal`] for evaluation failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseError {
    /// Failure category (carries the wire name and numeric status).
    pub code: ErrorCode,
    /// Human-readable cause.
    pub message: String,
}

impl CaseError {
    pub(crate) fn bad_request(message: impl Into<String>) -> Self {
        Self {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }

    pub(crate) fn internal(err: impl std::fmt::Display) -> Self {
        Self {
            code: ErrorCode::Internal,
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for CaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for CaseError {}

/// One declared parameter of a case, for registry-served listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamField {
    /// Wire field name.
    pub name: &'static str,
    /// Human-readable default (quick-mode value where they differ).
    pub default: &'static str,
}

/// One registered experiment: a wire name, a summary, and a run method
/// that parses its typed params from the wire `Value` and executes
/// against the shared caches.
///
/// Implementations are stateless unit structs; per-run state lives in
/// the typed params struct their `run` parses. The same impl serves the
/// CLI binaries, the NDJSON service, and in-process callers.
pub trait Case: Sync {
    /// Wire name (`"pd_flow"`, `"tier_sweep"`, …).
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn summary(&self) -> &'static str;

    /// The case's parameter schema, for the `cases` admin listing.
    fn param_fields(&self) -> &'static [ParamField] {
        &[]
    }

    /// Parses `params` without running anything: the cheap front-door
    /// check the service applies before a request occupies a worker.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-coded for malformed, unknown or
    /// out-of-range parameters.
    fn validate(&self, quick: bool, params: &Value) -> Result<(), CaseError>;

    /// Parses `params` (quick-mode defaults when `quick`) and runs the
    /// experiment against the shared caches in `ctx`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-coded for malformed or out-of-range
    /// parameters, [`ErrorCode::Internal`]-coded for evaluation
    /// failures.
    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError>;
}

/// The dispatch table, in stable order: the six service primitives
/// first, then the `ingest` workload front door, then the paper
/// experiments in their `EXPERIMENTS.md` order.
pub fn registry() -> &'static [&'static dyn Case] {
    &[
        &PdFlowCase,
        &TierSweepCase,
        &CapacitySweepCase,
        &SensitivityCase,
        &ThermalCapCase,
        &SleepCase,
        &cases::IngestCase,
        &cases::Fig2PhysicalDesignCase,
        &cases::Fig5ModelsCase,
        &cases::Table1Resnet18Case,
        &cases::Fig7ArchitecturesCase,
        &cases::Fig8BwCsCase,
        &cases::Fig10RelaxationCase,
        &cases::Obs3SramBaselineCase,
        &cases::Obs8ViaPitchCase,
        &cases::Obs10ThermalCase,
        &cases::ProjectionNodesCase,
        &cases::AblationDataflowCase,
        &cases::AblationPrecisionCase,
        &cases::AblationBatchCase,
        &cases::AblationCongestionCase,
        &cases::FlowSensitivityCase,
        &cases::SensitivityAnalysisCase,
        &cases::FoldingAblationCase,
        &cases::CornersSignoffCase,
        &cases::ExtensionMobilenetCase,
        &cases::FutureUpperLogicCase,
    ]
}

/// Looks a case up by wire name.
pub fn find(name: &str) -> Option<&'static dyn Case> {
    registry().iter().copied().find(|c| c.name() == name)
}

// --- parameter extraction ----------------------------------------------

pub(crate) fn field<'v>(params: &'v Value, key: &str) -> Option<&'v Value> {
    match params {
        Value::Object(_) => params.get(key),
        _ => None,
    }
}

/// Rejects params that are not `Null`/an object, and object keys outside
/// `allowed` — so typos surface as [`ErrorCode::BadRequest`] on the wire
/// instead of silently running defaults.
pub(crate) fn reject_unknown(params: &Value, allowed: &[&str]) -> Result<(), CaseError> {
    match params {
        Value::Null => Ok(()),
        Value::Object(fields) => {
            for (key, _) in fields {
                if !allowed.contains(&key.as_str()) {
                    return Err(CaseError::bad_request(format!(
                        "unknown parameter `{key}` (expected one of: {})",
                        allowed.join(", ")
                    )));
                }
            }
            Ok(())
        }
        _ => Err(CaseError::bad_request(
            "params must be a JSON object or null",
        )),
    }
}

pub(crate) fn param_u64(
    params: &Value,
    key: &str,
    default: u64,
    max: u64,
) -> Result<u64, CaseError> {
    match field(params, key) {
        None => Ok(default),
        Some(v) => match v.as_u64() {
            Some(u) if u <= max => Ok(u),
            Some(u) => Err(CaseError::bad_request(format!(
                "parameter `{key}` = {u} exceeds the limit {max}"
            ))),
            None => Err(CaseError::bad_request(format!(
                "parameter `{key}` must be a non-negative integer"
            ))),
        },
    }
}

pub(crate) fn param_f64(
    params: &Value,
    key: &str,
    default: f64,
    range: (f64, f64),
) -> Result<f64, CaseError> {
    match field(params, key) {
        None => Ok(default),
        Some(v) => match v.as_f64() {
            Some(f) if f.is_finite() && f >= range.0 && f <= range.1 => Ok(f),
            _ => Err(CaseError::bad_request(format!(
                "parameter `{key}` must be a finite number in [{}, {}]",
                range.0, range.1
            ))),
        },
    }
}

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub(crate) fn resnet_points() -> Vec<WorkloadPoint> {
    models::resnet18()
        .layers
        .iter()
        .map(|l| WorkloadPoint::from_layer(l, 8, 16))
        .collect()
}

// --- pd_flow ------------------------------------------------------------

/// `pd_flow` — one RTL-to-GDS implementation through the shared
/// [`FlowCache`], single-flight coalesced.
pub struct PdFlowCase;

/// Typed parameters of [`PdFlowCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct PdFlowParams {
    /// Computing sub-systems (0 = 2D baseline).
    pub n_cs: u32,
    /// PE array rows.
    pub rows: usize,
    /// PE array columns.
    pub cols: usize,
    /// Global buffer size (0 = the netlist default).
    pub global_buffer_kb: u64,
    /// Switching activity override in percent (≤ 0 = flow default).
    pub activity_pct: f64,
    /// Reduced-effort flow.
    pub quick: bool,
}

impl PdFlowParams {
    /// Parses and range-checks the wire params.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-coded on malformed or out-of-range
    /// values.
    pub fn parse(quick: bool, params: &Value) -> Result<Self, CaseError> {
        reject_unknown(
            params,
            &["n_cs", "rows", "cols", "global_buffer_kb", "activity_pct"],
        )?;
        let default_dim = if quick {
            4
        } else {
            CsConfig::default().rows as u64
        };
        Ok(Self {
            n_cs: u32::try_from(param_u64(params, "n_cs", 0, 64)?).expect("bounded"),
            rows: param_u64(params, "rows", default_dim, 64)? as usize,
            cols: param_u64(params, "cols", default_dim, 64)? as usize,
            global_buffer_kb: param_u64(
                params,
                "global_buffer_kb",
                if quick { 64 } else { 0 },
                1 << 20,
            )?,
            activity_pct: param_f64(params, "activity_pct", -1.0, (0.1, 100.0)).or_else(|e| {
                if field(params, "activity_pct").is_none() {
                    Ok(-1.0)
                } else {
                    Err(e)
                }
            })?,
            quick,
        })
    }

    /// The [`FlowConfig`] these parameters denote.
    pub fn flow_config(&self) -> FlowConfig {
        let mut cfg = if self.n_cs == 0 {
            FlowConfig::baseline_2d()
        } else {
            FlowConfig::m3d(self.n_cs)
        };
        let mut cs = CsConfig {
            rows: self.rows,
            cols: self.cols,
            ..CsConfig::default()
        };
        if self.global_buffer_kb > 0 {
            cs.global_buffer_kb = self.global_buffer_kb;
            cs.local_buffer_kb = cs.local_buffer_kb.min(self.global_buffer_kb);
        }
        cfg = cfg.with_cs(cs);
        if self.quick {
            cfg = cfg.quick();
        }
        if self.activity_pct > 0.0 {
            cfg.activity = self.activity_pct / 100.0;
        }
        cfg
    }
}

impl Case for PdFlowCase {
    fn name(&self) -> &'static str {
        "pd_flow"
    }

    fn summary(&self) -> &'static str {
        "RTL-to-GDS flow of one configuration (shared flow cache)"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[
            ParamField {
                name: "n_cs",
                default: "0",
            },
            ParamField {
                name: "rows",
                default: "4",
            },
            ParamField {
                name: "cols",
                default: "4",
            },
            ParamField {
                name: "global_buffer_kb",
                default: "64",
            },
            ParamField {
                name: "activity_pct",
                default: "flow default",
            },
        ]
    }

    fn validate(&self, quick: bool, params: &Value) -> Result<(), CaseError> {
        PdFlowParams::parse(quick, params).map(drop)
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let cfg = PdFlowParams::parse(quick, params)?.flow_config();
        let fetch: FlowFetch = ctx.stage(Stage::PdFlow, "", |sctx| {
            let out = ctx.flows.fetch(&cfg, FetchOpts::report());
            if let Ok(fetch) = &out {
                sctx.mark(fetch.provenance());
                if let (false, Some(flow)) = (fetch.reused(), &fetch.artifacts) {
                    sctx.child_span(flow.1.span.clone());
                }
            }
            out.map_err(CaseError::internal)
        })?;
        let r = &*fetch.report;
        Ok(CaseOutcome {
            result: obj(vec![
                ("design", Value::Str(r.design.clone())),
                ("cs_count", Value::U64(u64::from(r.cs_count))),
                ("die_mm2", Value::F64(r.die_mm2)),
                ("cell_count", Value::U64(r.cell_count as u64)),
                ("wirelength_m", Value::F64(r.wirelength_m)),
                ("signal_ilvs", Value::U64(r.signal_ilvs)),
                ("critical_path_ns", Value::F64(r.critical_path_ns)),
                ("timing_met", Value::Bool(r.timing_met)),
                ("total_power_mw", Value::F64(r.total_power_mw)),
                ("upper_tier_fraction", Value::F64(r.upper_tier_fraction)),
            ]),
            cache_hit: fetch.cache_hit,
            coalesced: fetch.coalesced,
        })
    }
}

// --- tier_sweep ---------------------------------------------------------

/// `tier_sweep` — Fig. 10d: EDP benefit vs interleaved tier pairs over
/// ResNet-18.
pub struct TierSweepCase;

/// Typed parameters of [`TierSweepCase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSweepParams {
    /// Largest interleaved pair count explored.
    pub max_pairs: u32,
}

impl TierSweepParams {
    /// Parses and range-checks the wire params.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-coded on malformed or out-of-range
    /// values.
    pub fn parse(quick: bool, params: &Value) -> Result<Self, CaseError> {
        reject_unknown(params, &["max_pairs"])?;
        let default_pairs = if quick { 4 } else { 8 };
        Ok(Self {
            max_pairs: u32::try_from(param_u64(params, "max_pairs", default_pairs, 16)?)
                .expect("bounded")
                .max(1),
        })
    }
}

fn tier_points(points: &[m3d_core::cases::TierPoint]) -> Value {
    Value::Array(
        points
            .iter()
            .map(|p| {
                obj(vec![
                    ("tiers", Value::U64(u64::from(p.tiers))),
                    ("n_cs", Value::U64(u64::from(p.n_cs))),
                    ("edp_benefit", Value::F64(p.edp_benefit)),
                ])
            })
            .collect(),
    )
}

impl Case for TierSweepCase {
    fn name(&self) -> &'static str {
        "tier_sweep"
    }

    fn summary(&self) -> &'static str {
        "Fig. 10d interleaved tier-pair exploration sweep"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[ParamField {
            name: "max_pairs",
            default: "4 (quick) / 8",
        }]
    }

    fn validate(&self, quick: bool, params: &Value) -> Result<(), CaseError> {
        TierSweepParams::parse(quick, params).map(drop)
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let p = TierSweepParams::parse(quick, params)?;
        let areas = BaselineAreas::case_study_64mb();
        let base = ChipParams::baseline_2d();
        let layer_points = vec![WorkloadPoint::from_layer(
            &m3d_arch::Layer::conv("L4.1 CONV", 512, 512, 3, (7, 7), 1),
            8,
            16,
        )];
        let (whole, layer) = ctx.stage(Stage::ArchSim, "", |_| {
            (
                tier_sweep(&areas, &base, &resnet_points(), p.max_pairs),
                tier_sweep(&areas, &base, &layer_points, p.max_pairs),
            )
        });
        let last_edp =
            |pts: &[m3d_core::cases::TierPoint]| pts.last().map_or(0.0, |pt| pt.edp_benefit);
        Ok(CaseOutcome::fresh(obj(vec![
            ("max_pairs", Value::U64(u64::from(p.max_pairs))),
            ("plateau_edp_benefit", Value::F64(last_edp(&whole))),
            ("layer_max_edp_benefit", Value::F64(last_edp(&layer))),
            ("points", tier_points(&whole)),
            ("layer_points", tier_points(&layer)),
        ])))
    }
}

// --- capacity_sweep -----------------------------------------------------

/// `capacity_sweep` — Fig. 9: benefits vs baseline RRAM capacity.
pub struct CapacitySweepCase;

/// Typed parameters of [`CapacitySweepCase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySweepParams {
    /// Ladder ceiling in MB (steps up to it).
    pub max_capacity_mb: u64,
}

impl CapacitySweepParams {
    /// Parses and range-checks the wire params.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-coded on malformed or out-of-range
    /// values.
    pub fn parse(quick: bool, params: &Value) -> Result<Self, CaseError> {
        reject_unknown(params, &["max_capacity_mb"])?;
        Ok(Self {
            max_capacity_mb: param_u64(
                params,
                "max_capacity_mb",
                if quick { 32 } else { 128 },
                512,
            )?
            .max(12),
        })
    }

    /// The capacity ladder these parameters denote.
    pub fn ladder(&self) -> Vec<u64> {
        [12u64, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512]
            .into_iter()
            .filter(|&mb| mb <= self.max_capacity_mb)
            .collect()
    }
}

impl Case for CapacitySweepCase {
    fn name(&self) -> &'static str {
        "capacity_sweep"
    }

    fn summary(&self) -> &'static str {
        "Fig. 9 RRAM-capacity ladder"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[ParamField {
            name: "max_capacity_mb",
            default: "32 (quick) / 128",
        }]
    }

    fn validate(&self, quick: bool, params: &Value) -> Result<(), CaseError> {
        CapacitySweepParams::parse(quick, params).map(drop)
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let p = CapacitySweepParams::parse(quick, params)?;
        let points = ctx.stage(Stage::ArchSim, "", |_| {
            capacity_sweep(&Pdk::m3d_130nm(), &p.ladder(), &models::resnet18())
                .map_err(CaseError::internal)
        })?;
        let edp_at = |mb: u64| {
            points
                .iter()
                .find(|pt| pt.capacity_mb == mb)
                .map_or(0.0, |pt| pt.edp_benefit)
        };
        Ok(CaseOutcome::fresh(obj(vec![
            ("edp_64mb", Value::F64(edp_at(64))),
            ("edp_128mb", Value::F64(edp_at(128))),
            (
                "points",
                Value::Array(
                    points
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("capacity_mb", Value::U64(p.capacity_mb)),
                                ("n_cs", Value::U64(u64::from(p.n_cs))),
                                ("speedup", Value::F64(p.speedup)),
                                ("edp_benefit", Value::F64(p.edp_benefit)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])))
    }
}

// --- sensitivity --------------------------------------------------------

/// `sensitivity` — seeded ±20 % Monte-Carlo robustness of the ResNet-18
/// EDP benefit.
pub struct SensitivityCase;

/// Typed parameters of [`SensitivityCase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensitivityParams {
    /// Monte-Carlo sample count.
    pub samples: usize,
    /// RNG seed (deterministic per seed).
    pub seed: u64,
}

impl SensitivityParams {
    /// Parses and range-checks the wire params.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-coded on malformed or out-of-range
    /// values.
    pub fn parse(quick: bool, params: &Value) -> Result<Self, CaseError> {
        reject_unknown(params, &["samples", "seed"])?;
        Ok(Self {
            samples: param_u64(params, "samples", if quick { 100 } else { 1000 }, 50_000)?.max(1)
                as usize,
            seed: param_u64(params, "seed", 2023, u64::MAX)?,
        })
    }
}

impl Case for SensitivityCase {
    fn name(&self) -> &'static str {
        "sensitivity"
    }

    fn summary(&self) -> &'static str {
        "Monte-Carlo EDP-benefit robustness (seeded, deterministic)"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[
            ParamField {
                name: "samples",
                default: "100 (quick) / 1000",
            },
            ParamField {
                name: "seed",
                default: "2023",
            },
        ]
    }

    fn validate(&self, quick: bool, params: &Value) -> Result<(), CaseError> {
        SensitivityParams::parse(quick, params).map(drop)
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let p = SensitivityParams::parse(quick, params)?;
        let r = ctx.stage(Stage::ArchSim, "", |_| {
            edp_benefit_sensitivity(
                &ChipParams::baseline_2d(),
                &ChipParams::m3d(8),
                &resnet_points(),
                &Perturbation::twenty_percent(),
                p.samples,
                p.seed,
            )
            .map_err(CaseError::internal)
        })?;
        Ok(CaseOutcome::fresh(obj(vec![
            ("samples", Value::U64(r.samples as u64)),
            ("seed", Value::U64(p.seed)),
            ("nominal", Value::F64(r.nominal)),
            ("mean", Value::F64(r.mean)),
            ("std_dev", Value::F64(r.std_dev)),
            ("p5", Value::F64(r.p5)),
            ("p95", Value::F64(r.p95)),
            ("min", Value::F64(r.min)),
            ("max", Value::F64(r.max)),
        ])))
    }
}

// --- thermal_cap --------------------------------------------------------

/// `thermal_cap` — Obs. 10: RC-grid temperature rise vs stacked tier
/// pairs through the shared [`ThermalCache`], against the eq. 17
/// analytic cap.
pub struct ThermalCapCase;

/// Typed parameters of [`ThermalCapCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalCapParams {
    /// Per-tier power (W).
    pub power_w: f64,
    /// Largest stacked pair count explored.
    pub max_pairs: u32,
    /// Lateral grid resolution per axis.
    pub n_lat: usize,
    /// Temperature-rise budget (K).
    pub budget_k: f64,
}

impl ThermalCapParams {
    /// Parses and range-checks the wire params.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-coded on malformed or out-of-range
    /// values.
    pub fn parse(quick: bool, params: &Value) -> Result<Self, CaseError> {
        reject_unknown(params, &["power_w", "max_pairs", "n_lat", "budget_k"])?;
        Ok(Self {
            power_w: param_f64(params, "power_w", 5.0, (0.01, 500.0))?,
            max_pairs: u32::try_from(param_u64(
                params,
                "max_pairs",
                if quick { 4 } else { 8 },
                12,
            )?)
            .expect("bounded")
            .max(1),
            n_lat: param_u64(params, "n_lat", if quick { 4 } else { 8 }, 64)?.max(2) as usize,
            budget_k: param_f64(params, "budget_k", 60.0, (1.0, 500.0))?,
        })
    }
}

impl Case for ThermalCapCase {
    fn name(&self) -> &'static str {
        "thermal_cap"
    }

    fn summary(&self) -> &'static str {
        "Obs. 10 RC-grid tier cap (shared thermal cache)"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[
            ParamField {
                name: "power_w",
                default: "5.0",
            },
            ParamField {
                name: "max_pairs",
                default: "4 (quick) / 8",
            },
            ParamField {
                name: "n_lat",
                default: "4 (quick) / 8",
            },
            ParamField {
                name: "budget_k",
                default: "60.0",
            },
        ]
    }

    fn validate(&self, quick: bool, params: &Value) -> Result<(), CaseError> {
        ThermalCapParams::parse(quick, params).map(drop)
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let p = ThermalCapParams::parse(quick, params)?;
        let stack = LayerStack::m3d_130nm();
        let die_mm2 = BaselineAreas::case_study_64mb().total_mm2();
        let solver = SolverConfig::default();
        let mut rows = Vec::new();
        let mut cache_hit = true;
        let mut grid_cap = 0u32;
        let mut capped = false;
        ctx.stage(Stage::Thermal, "", |_| -> Result<(), CaseError> {
            for tiers in 1..=p.max_pairs {
                let grid = GridConfig::from_stack(
                    &stack, die_mm2, p.n_lat, p.n_lat, tiers, 1.0, p.budget_k,
                )
                .map_err(CaseError::internal)?;
                let before = ctx.thermals.stats().hits;
                let sol = ctx
                    .thermals
                    .solve(&grid, &PowerMap::uniform(&grid, p.power_w), &solver)
                    .map_err(CaseError::internal)?;
                cache_hit &= ctx.thermals.stats().hits > before;
                let rise_eq17 = ThermalModel::conventional(p.power_w).temperature_rise(tiers);
                if sol.peak_rise_k <= p.budget_k && !capped {
                    grid_cap = tiers;
                } else {
                    capped = true;
                }
                rows.push(obj(vec![
                    ("tiers", Value::U64(u64::from(tiers))),
                    ("rise_grid_k", Value::F64(sol.peak_rise_k)),
                    ("rise_eq17_k", Value::F64(rise_eq17)),
                ]));
            }
            Ok(())
        })?;
        let eq17_cap = ThermalModel::conventional(p.power_w)
            .max_tiers()
            .map_or(Value::Null, |c| Value::U64(u64::from(c)));
        Ok(CaseOutcome {
            result: obj(vec![
                ("power_w", Value::F64(p.power_w)),
                ("budget_k", Value::F64(p.budget_k)),
                ("cap_grid", Value::U64(u64::from(grid_cap))),
                ("cap_eq17", eq17_cap),
                ("rises", Value::Array(rows)),
            ]),
            cache_hit,
            coalesced: false,
        })
    }
}

// --- sleep --------------------------------------------------------------

/// `sleep` — stalls a worker deterministically. Exists so load
/// generators and the backpressure tests can occupy the service.
pub struct SleepCase;

/// Typed parameters of [`SleepCase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SleepParams {
    /// Stall duration (bounded).
    pub ms: u64,
    /// Distinguishes otherwise-identical requests.
    pub tag: u64,
}

impl SleepParams {
    /// Parses and range-checks the wire params.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`]-coded on malformed or out-of-range
    /// values.
    pub fn parse(params: &Value) -> Result<Self, CaseError> {
        reject_unknown(params, &["ms", "tag"])?;
        Ok(Self {
            ms: param_u64(params, "ms", 10, 5_000)?,
            tag: param_u64(params, "tag", 0, u64::MAX)?,
        })
    }
}

impl Case for SleepCase {
    fn name(&self) -> &'static str {
        "sleep"
    }

    fn summary(&self) -> &'static str {
        "diagnostic stall (load generation and backpressure tests)"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[
            ParamField {
                name: "ms",
                default: "10",
            },
            ParamField {
                name: "tag",
                default: "0",
            },
        ]
    }

    fn validate(&self, _quick: bool, params: &Value) -> Result<(), CaseError> {
        SleepParams::parse(params).map(drop)
    }

    fn run(&self, _ctx: &CaseCtx, _quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let p = SleepParams::parse(params)?;
        std::thread::sleep(std::time::Duration::from_millis(p.ms));
        Ok(CaseOutcome::fresh(obj(vec![
            ("slept_ms", Value::U64(p.ms)),
            ("tag", Value::U64(p.tag)),
        ])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_caches() -> (FlowCache, ThermalCache) {
        (FlowCache::new(), ThermalCache::new())
    }

    fn run(name: &str, quick: bool, params: Value) -> Result<CaseOutcome, CaseError> {
        let (flows, thermals) = ctx_caches();
        let ctx = CaseCtx::new(&flows, &thermals);
        find(name).expect("registered").run(&ctx, quick, &params)
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(find(n).is_some());
            assert!(!find(n).unwrap().summary().is_empty());
        }
        assert!(find("no_such_case").is_none());
    }

    #[test]
    fn tier_sweep_returns_requested_pairs() {
        let out = run("tier_sweep", true, Value::Null).unwrap();
        let points = out.result.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 4, "quick default max_pairs");
        assert!(points[0].get("edp_benefit").unwrap().as_f64().unwrap() > 1.0);
    }

    #[test]
    fn identical_params_produce_identical_payload_bytes() {
        let a = run("sensitivity", true, Value::Null).unwrap();
        let b = run("sensitivity", true, Value::Null).unwrap();
        assert_eq!(
            serde_json::to_string(&a.result).unwrap(),
            serde_json::to_string(&b.result).unwrap()
        );
    }

    #[test]
    fn bad_parameters_are_rejected_not_crashed() {
        let err = run(
            "thermal_cap",
            true,
            obj(vec![("power_w", Value::F64(-3.0))]),
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.code.status(), 400);
        let err = run("sleep", true, obj(vec![("ms", Value::Str("long".into()))])).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn typed_params_parse_defaults_and_reject_out_of_range() {
        let p = PdFlowParams::parse(true, &Value::Null).unwrap();
        assert_eq!((p.rows, p.cols), (4, 4), "quick-mode default PE array");
        assert_eq!(p.global_buffer_kb, 64);
        assert!(p.quick);
        let err = PdFlowParams::parse(true, &obj(vec![("rows", Value::U64(65))])).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);

        let s = SensitivityParams::parse(false, &Value::Null).unwrap();
        assert_eq!((s.samples, s.seed), (1000, 2023));

        let t = ThermalCapParams::parse(true, &Value::Null).unwrap();
        assert_eq!((t.max_pairs, t.n_lat), (4, 4));
    }

    #[test]
    fn typed_params_drive_the_same_flow_config_as_the_wire_path() {
        // Two PdFlowParams parsed from equal wire params key the same
        // cache entry — the typed layer cannot drift from dispatch.
        let a = PdFlowParams::parse(true, &Value::Null).unwrap();
        let b = PdFlowParams::parse(true, &obj(vec![])).unwrap();
        assert_eq!(a.flow_config().stable_key(), b.flow_config().stable_key());
    }

    #[test]
    fn thermal_cap_shares_the_cache() {
        let (flows, thermals) = ctx_caches();
        let ctx = CaseCtx::new(&flows, &thermals);
        let case = find("thermal_cap").unwrap();
        let first = case.run(&ctx, true, &Value::Null).unwrap();
        assert!(!first.cache_hit);
        let second = case.run(&ctx, true, &Value::Null).unwrap();
        assert!(second.cache_hit, "every solve replayed from the memo");
        assert_eq!(first.result, second.result);
    }

    #[test]
    fn pd_flow_uses_the_flow_cache() {
        let (flows, thermals) = ctx_caches();
        let ctx = CaseCtx::new(&flows, &thermals);
        let case = find("pd_flow").unwrap();
        let first = case.run(&ctx, true, &Value::Null).unwrap();
        let second = case.run(&ctx, true, &Value::Null).unwrap();
        assert!(!first.cache_hit && second.cache_hit);
        assert_eq!(flows.stats().misses, 1);
        assert_eq!(first.result, second.result);
        // Structurally different parameters miss.
        let other = case
            .run(&ctx, true, &obj(vec![("activity_pct", Value::F64(31.0))]))
            .unwrap();
        assert!(!other.cache_hit);
        assert_ne!(other.result, first.result);
    }
}
