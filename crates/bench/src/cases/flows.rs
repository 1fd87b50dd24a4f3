//! Cases that run the RTL-to-GDS flow: Fig. 2, the under-array
//! congestion ablation, the multi-corner sign-off, and the prior-work
//! folding baseline.

use m3d_core::engine::{corner_sweep, par_map, FetchOpts, FlowCache, FlowFetch, Stage, StageCtx};
use m3d_pd::{analyze_congestion, fold_two_tier, Clustering, FlowConfig, FlowReport};
use m3d_tech::{Corner, Pdk};
use serde::Value;

use crate::cases::case_cs;
use crate::registry::{
    field, obj, param_u64, reject_unknown, Case, CaseCtx, CaseError, CaseOutcome, ParamField,
};

/// Fetches `cfg` through the flow cache under an active stage: a reused
/// result marks the stage a cache hit, a fresh compute attaches the
/// flow's sub-spans.
pub(crate) fn staged_fetch(
    flows: &FlowCache,
    sctx: &mut StageCtx,
    cfg: &FlowConfig,
    opts: FetchOpts,
) -> Result<FlowFetch, CaseError> {
    let fetch = flows.fetch(cfg, opts).map_err(CaseError::internal)?;
    if fetch.reused() {
        sctx.mark_cache_hit();
    } else if let Some(flow) = &fetch.artifacts {
        // A run this caller is accountable for always carries its flow.
        sctx.child_span(flow.1.span.clone());
    }
    Ok(fetch)
}

// --- fig2_physical_design -----------------------------------------------

/// `fig2_physical_design` — Fig. 2: post-route 2D baseline vs the
/// iso-footprint M3D SoC, plus the Observation-2 power-density check.
pub struct Fig2PhysicalDesignCase;

impl Case for Fig2PhysicalDesignCase {
    fn name(&self) -> &'static str {
        "fig2_physical_design"
    }

    fn summary(&self) -> &'static str {
        "Fig. 2 post-route 2D vs iso-footprint M3D physical design + Observation 2"
    }

    fn validate(&self, _quick: bool, params: &Value) -> Result<(), CaseError> {
        reject_unknown(params, &[])
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        reject_unknown(params, &[])?;
        let cs = case_cs(quick);
        let prep = |c: FlowConfig| if quick { c.quick() } else { c };
        let f2d = ctx.stage(Stage::PdFlow, "2d", |sctx| {
            let cfg = prep(FlowConfig::baseline_2d().with_cs(cs));
            staged_fetch(ctx.flows, sctx, &cfg, FetchOpts::report())
        })?;
        let r2d = &*f2d.report;
        let n = 1 + r2d.extra_cs_capacity.max(if quick { 1 } else { 7 });
        let f3d = ctx.stage(Stage::PdFlow, "m3d", |sctx| {
            let cfg = prep(FlowConfig::m3d(n).with_cs(cs)).with_die(r2d.die);
            staged_fetch(ctx.flows, sctx, &cfg, FetchOpts::report())
        })?;
        let r3d = &*f3d.report;
        let design = |label: &str, r: &FlowReport| {
            obj(vec![
                ("design", Value::Str(label.to_owned())),
                ("cs_count", Value::U64(u64::from(r.cs_count))),
                ("die_mm2", Value::F64(r.die_mm2)),
                ("cell_count", Value::U64(r.cell_count as u64)),
                ("wirelength_m", Value::F64(r.wirelength_m)),
                ("critical_path_ns", Value::F64(r.critical_path_ns)),
                ("total_power_mw", Value::F64(r.total_power_mw)),
            ])
        };
        Ok(CaseOutcome {
            result: obj(vec![
                ("m3d_cs_count", Value::U64(u64::from(r3d.cs_count))),
                ("upper_tier_fraction", Value::F64(r3d.upper_tier_fraction)),
                (
                    "cs_stack_density_increase",
                    Value::F64(r3d.cs_stack_density_increase),
                ),
                (
                    "designs",
                    Value::Array(vec![design("2d", r2d), design("m3d", r3d)]),
                ),
            ]),
            cache_hit: f2d.reused() && f3d.reused(),
            coalesced: false,
        })
    }
}

// --- ablation_congestion ------------------------------------------------

/// `ablation_congestion` — per-region routing-track utilisation of the
/// implemented M3D design: the physical basis of the 0.5 under-array
/// availability derate.
pub struct AblationCongestionCase;

impl Case for AblationCongestionCase {
    fn name(&self) -> &'static str {
        "ablation_congestion"
    }

    fn summary(&self) -> &'static str {
        "under-array routing congestion (the 0.5 availability derate)"
    }

    fn validate(&self, _quick: bool, params: &Value) -> Result<(), CaseError> {
        reject_unknown(params, &[])
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        reject_unknown(params, &[])?;
        let cs = case_cs(quick);
        let prep = |c: FlowConfig| if quick { c.quick() } else { c };
        let f2d = ctx.stage(Stage::PdFlow, "2d", |sctx| {
            let cfg = prep(FlowConfig::baseline_2d().with_cs(cs));
            staged_fetch(ctx.flows, sctx, &cfg, FetchOpts::artifacts())
        })?;
        let n = 1 + f2d.report.extra_cs_capacity.max(if quick { 1 } else { 7 });
        let m3d_cfg = prep(FlowConfig::m3d(n).with_cs(cs)).with_die(f2d.report.die);
        let f3d = ctx.stage(Stage::PdFlow, "m3d", |sctx| {
            staged_fetch(ctx.flows, sctx, &m3d_cfg, FetchOpts::artifacts())
        })?;
        let a = &f3d
            .artifacts
            .as_ref()
            .expect("artifact-level fetch")
            .1
            .signoff;
        let pdk = &m3d_cfg.pdk;
        let c = ctx.stage(Stage::PdFlow, "congestion", |_| {
            analyze_congestion(
                &a.netlist,
                &a.placement,
                &a.routing,
                &a.floorplan,
                pdk,
                1000.0,
            )
        });
        let ratio = if c.free_region_utilization > 0.0 {
            c.under_array_utilization / c.free_region_utilization
        } else {
            0.0
        };
        Ok(CaseOutcome {
            result: obj(vec![
                ("nx", Value::U64(c.nx as u64)),
                ("ny", Value::U64(c.ny as u64)),
                ("tile_um", Value::F64(c.tile_um)),
                (
                    "free_region_utilization",
                    Value::F64(c.free_region_utilization),
                ),
                (
                    "under_array_utilization",
                    Value::F64(c.under_array_utilization),
                ),
                ("max_utilization", Value::F64(c.max_utilization)),
                ("overflow_tiles", Value::U64(c.overflow_tiles as u64)),
                ("under_over_free_ratio", Value::F64(ratio)),
            ]),
            cache_hit: f2d.reused() && f3d.reused(),
            coalesced: false,
        })
    }
}

// --- corners_signoff ----------------------------------------------------

/// `corners_signoff` — multi-corner (SS/TT/FF) sign-off of the 2D
/// baseline through the engine's [`corner_sweep`]: setup must close at
/// SS, leakage is reported at FF. Corners cache independently and fan
/// across the parallel executor.
pub struct CornersSignoffCase;

/// Typed parameters of [`CornersSignoffCase`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CornersSignoffParams {
    /// The corners to sign off, in report order.
    pub corners: Vec<Corner>,
}

impl CornersSignoffParams {
    /// Parses and validates the wire params.
    ///
    /// # Errors
    ///
    /// [`m3d_core::ErrorCode::BadRequest`]-coded on unknown corner names
    /// or a malformed `corners` value.
    pub fn parse(params: &Value) -> Result<Self, CaseError> {
        reject_unknown(params, &["corners"])?;
        let spec = match field(params, "corners") {
            None => "ss,tt,ff".to_owned(),
            Some(Value::Str(s)) => s.clone(),
            Some(_) => {
                return Err(CaseError::bad_request(
                    "parameter `corners` must be a comma-separated string like \"ss,tt,ff\"",
                ))
            }
        };
        let corners = spec
            .split(',')
            .map(|name| {
                Corner::from_name(name).ok_or_else(|| {
                    CaseError::bad_request(format!(
                        "unknown corner `{}` (expected ss, tt or ff)",
                        name.trim()
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { corners })
    }
}

impl Case for CornersSignoffCase {
    fn name(&self) -> &'static str {
        "corners_signoff"
    }

    fn summary(&self) -> &'static str {
        "SS/TT/FF multi-corner sign-off of the 2D baseline (shared flow cache)"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[ParamField {
            name: "corners",
            default: "ss,tt,ff",
        }]
    }

    fn validate(&self, _quick: bool, params: &Value) -> Result<(), CaseError> {
        CornersSignoffParams::parse(params).map(drop)
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let p = CornersSignoffParams::parse(params)?;
        let mut cfg = FlowConfig::baseline_2d().with_cs(case_cs(quick));
        if quick {
            cfg = cfg.quick();
        }
        let runs = ctx.stage(Stage::PdFlow, "corners", |sctx| {
            let runs = corner_sweep(ctx.flows, &cfg, &p.corners).map_err(CaseError::internal)?;
            for run in &runs {
                sctx.child_span(run.span_node());
            }
            if runs.iter().all(|r| r.fetch.cache_hit) {
                sctx.mark_cache_hit();
            }
            Ok::<_, CaseError>(runs)
        })?;
        Ok(CaseOutcome {
            result: obj(vec![(
                "corners",
                Value::Array(
                    runs.iter()
                        .map(|run| {
                            obj(vec![
                                ("corner", Value::Str(run.corner.name().to_owned())),
                                ("critical_path_ns", Value::F64(run.report.critical_path_ns)),
                                ("timing_met", Value::Bool(run.report.timing_met)),
                                ("cell_leakage_mw", Value::F64(run.report.cell_leakage_mw)),
                                ("total_power_mw", Value::F64(run.report.total_power_mw)),
                            ])
                        })
                        .collect(),
                ),
            )]),
            cache_hit: runs.iter().all(|r| r.fetch.cache_hit),
            coalesced: runs.iter().any(|r| r.fetch.coalesced),
        })
    }
}

// --- flow_sensitivity ---------------------------------------------------

/// `flow_sensitivity` — sign-off sensitivity of the 2D baseline to the
/// signal-activity assumption: one placement, a grid of activity
/// factors, every point a full sign-off evaluation.
///
/// All grid points share a placement key (activity only shapes the
/// post-placement phases), so this sweep is the cache's warm-start
/// showcase: after the first point anneals, every later point re-seeds
/// from it and re-evaluates route/STA/power incrementally. Warm and
/// cold runs are byte-identical by construction, so the payload and
/// trace do not depend on `M3D_JOBS` or on which seeds were available.
/// `ported_binaries_emit_deterministic_json` and
/// `flow_sensitivity_warm_starts_from_the_disk_seed_byte_identically`
/// (`tests/registry_roundtrip.rs`) and
/// `fig2_trace_exposes_pd_sub_spans_and_ignores_job_count`
/// (`tests/fig2_trace.rs`) gate on exactly that.
pub struct FlowSensitivityCase;

/// Typed parameters of [`FlowSensitivityCase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSensitivityParams {
    /// Grid points.
    pub points: u32,
    /// First activity factor, in percent.
    pub activity_lo_pct: u32,
    /// Grid step, in percent.
    pub activity_step_pct: u32,
}

impl FlowSensitivityParams {
    /// Parses and range-checks the wire params.
    ///
    /// # Errors
    ///
    /// [`m3d_core::ErrorCode::BadRequest`]-coded on malformed or
    /// out-of-range values.
    pub fn parse(quick: bool, params: &Value) -> Result<Self, CaseError> {
        reject_unknown(params, &["points", "activity_lo_pct", "activity_step_pct"])?;
        let points = u32::try_from(param_u64(params, "points", if quick { 3 } else { 6 }, 32)?)
            .expect("bounded")
            .max(1);
        let lo = u32::try_from(param_u64(params, "activity_lo_pct", 10, 80)?).expect("bounded");
        let step = u32::try_from(param_u64(params, "activity_step_pct", 5, 50)?).expect("bounded");
        if lo == 0 || step == 0 {
            return Err(CaseError::bad_request(
                "`activity_lo_pct` and `activity_step_pct` must be positive",
            ));
        }
        if lo + (points - 1) * step > 100 {
            return Err(CaseError::bad_request(
                "activity grid exceeds 100 % at its top point",
            ));
        }
        Ok(Self {
            points,
            activity_lo_pct: lo,
            activity_step_pct: step,
        })
    }

    /// The swept activity factors, in grid order.
    fn grid(self) -> Vec<f64> {
        (0..self.points)
            .map(|i| f64::from(self.activity_lo_pct + i * self.activity_step_pct) / 100.0)
            .collect()
    }
}

impl Case for FlowSensitivityCase {
    fn name(&self) -> &'static str {
        "flow_sensitivity"
    }

    fn summary(&self) -> &'static str {
        "activity-factor sensitivity sweep (one placement, warm-started sign-off grid)"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[
            ParamField {
                name: "points",
                default: "3 (quick) / 6",
            },
            ParamField {
                name: "activity_lo_pct",
                default: "10",
            },
            ParamField {
                name: "activity_step_pct",
                default: "5",
            },
        ]
    }

    fn validate(&self, quick: bool, params: &Value) -> Result<(), CaseError> {
        FlowSensitivityParams::parse(quick, params).map(drop)
    }

    fn run(&self, ctx: &CaseCtx, quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        let p = FlowSensitivityParams::parse(quick, params)?;
        let mut base = FlowConfig::baseline_2d().with_cs(case_cs(quick));
        if quick {
            base = base.quick();
        }
        let cfgs: Vec<FlowConfig> = p
            .grid()
            .into_iter()
            .map(|activity| {
                let mut cfg = base.clone();
                cfg.activity = activity;
                cfg
            })
            .collect();
        let fetches = ctx.stage(Stage::PdFlow, "sweep", |sctx| {
            let fetches = par_map(&cfgs, |cfg| ctx.flows.fetch(cfg, FetchOpts::report()))
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(CaseError::internal)?;
            // Sub-spans attach in grid order — never completion order —
            // and carry no per-point provenance, so the trace is
            // byte-identical across `M3D_JOBS` and across warm-start
            // seed availability (warm == cold by construction).
            for cfg in &cfgs {
                if let Some(sub) = ctx.flows.sub_span(cfg) {
                    sctx.child_span(sub);
                }
            }
            if fetches.iter().all(FlowFetch::reused) {
                sctx.mark_cache_hit();
            }
            Ok::<_, CaseError>(fetches)
        })?;
        let points: Vec<Value> = cfgs
            .iter()
            .zip(&fetches)
            .map(|(cfg, fetch)| {
                let r = &*fetch.report;
                obj(vec![
                    ("activity", Value::F64(cfg.activity)),
                    ("wirelength_m", Value::F64(r.wirelength_m)),
                    ("critical_path_ns", Value::F64(r.critical_path_ns)),
                    ("timing_met", Value::Bool(r.timing_met)),
                    ("total_power_mw", Value::F64(r.total_power_mw)),
                ])
            })
            .collect();
        let power = |f: &FlowFetch| f.report.total_power_mw;
        let first = fetches.first().map(power).unwrap_or_default();
        let last = fetches.last().map(power).unwrap_or_default();
        Ok(CaseOutcome {
            result: obj(vec![
                ("points", Value::U64(u64::from(p.points))),
                (
                    "power_swing_ratio",
                    Value::F64(if first > 0.0 { last / first } else { 0.0 }),
                ),
                ("grid", Value::Array(points)),
            ]),
            cache_hit: fetches.iter().all(FlowFetch::reused),
            coalesced: fetches.iter().any(|f| f.coalesced),
        })
    }
}

// --- folding_ablation ---------------------------------------------------

/// `folding_ablation` — the prior-work approach the paper contrasts
/// against: folding the existing 2D design across two device tiers with
/// min-cut partitioning (≈ 1.1–1.4× EDP vs the paper's 5.7×).
pub struct FoldingAblationCase;

impl Case for FoldingAblationCase {
    fn name(&self) -> &'static str {
        "folding_ablation"
    }

    fn summary(&self) -> &'static str {
        "prior-work two-tier folding baseline (min-cut partitioning)"
    }

    fn param_fields(&self) -> &'static [ParamField] {
        &[ParamField {
            name: "seed",
            default: "2023",
        }]
    }

    fn validate(&self, _quick: bool, params: &Value) -> Result<(), CaseError> {
        reject_unknown(params, &["seed"])?;
        param_u64(params, "seed", 2023, u64::MAX).map(drop)
    }

    fn run(&self, ctx: &CaseCtx, _quick: bool, params: &Value) -> Result<CaseOutcome, CaseError> {
        reject_unknown(params, &["seed"])?;
        let seed = param_u64(params, "seed", 2023, u64::MAX)?;
        let clustering = ctx.stage(Stage::Netlist, "", |_| {
            let cfg = m3d_netlist::SocConfig {
                cs: m3d_netlist::CsConfig {
                    rows: 8,
                    cols: 8,
                    pe: m3d_netlist::PeConfig::default(),
                    global_buffer_kb: 256,
                    local_buffer_kb: 16,
                },
                ..m3d_netlist::SocConfig::baseline_2d()
            };
            let mut nl = m3d_netlist::Netlist::new("fold_target");
            m3d_netlist::accelerator_soc(&mut nl, &cfg).map_err(CaseError::internal)?;
            Clustering::build(&nl, &Pdk::m3d_130nm()).map_err(CaseError::internal)
        })?;
        let fold = ctx.stage(Stage::PdFlow, "fold", |_| fold_two_tier(&clustering, seed));
        // EDP estimate for folding: wire-capacitance energy scales with
        // WL; delay improves with the shorter critical wires. Wire
        // energy ≈ 40 % of total, wire delay ≈ 30 % of the path.
        let wl = fold.wirelength_ratio;
        let energy_ratio = 1.0 / (0.6 + 0.4 * wl);
        let speedup = 1.0 / (0.7 + 0.3 * wl);
        Ok(CaseOutcome::fresh(obj(vec![
            ("clusters", Value::U64(clustering.clusters.len() as u64)),
            ("total_nets", Value::U64(fold.total_nets as u64)),
            ("cut_nets", Value::U64(fold.cut_nets as u64)),
            ("cut_fraction", Value::F64(fold.cut_fraction())),
            ("tier0_mm2", Value::F64(fold.tier_area[0] / 1e6)),
            ("tier1_mm2", Value::F64(fold.tier_area[1] / 1e6)),
            ("footprint_ratio", Value::F64(fold.footprint_ratio)),
            ("wirelength_ratio", Value::F64(wl)),
            ("speedup", Value::F64(speedup)),
            ("energy_ratio", Value::F64(energy_ratio)),
            ("edp_benefit", Value::F64(energy_ratio * speedup)),
        ])))
    }
}
