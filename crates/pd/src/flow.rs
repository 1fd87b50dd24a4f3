//! The RTL-to-GDS flow driver (Fig. 4b of the paper): synthesis stand-in
//! → floorplan → clustering → global placement → routing estimation →
//! post-route optimisation → timing/power sign-off, producing a
//! [`FlowReport`] of exactly the metrics the paper compares in Fig. 2.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use m3d_netlist::{accelerator_soc, MacroKind, Netlist, SocConfig};
use m3d_tech::units::SquareMicrons;
use m3d_tech::{Pdk, SpanNode};

use crate::cluster::Clustering;
use crate::cts::{estimate_clock_tree, ClockTree};
use crate::error::PdResult;
use crate::floorplan::{under_array_usable_area, Floorplan};
use crate::geom::Rect;
use crate::observe::round_counter;
use crate::opt::{post_route_optimize, OptConfig, OptOutcome};
use crate::place::{place_traced, Placement, PlacerConfig};
use crate::power::{analyze_power, PowerReport, DEFAULT_ACTIVITY};
use crate::route::RoutingEstimate;
use crate::sta::TimingReport;

/// Where the flow's input netlist comes from.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum NetlistSource {
    /// Generate the accelerator SoC from [`FlowConfig::soc`] (the
    /// default, and the paper's own design).
    #[default]
    Generated,
    /// Implement an externally ingested netlist as-is; `soc` still
    /// supplies the floorplan/clock targets. Shared via `Arc` so cheap
    /// config clones don't copy the design.
    External(std::sync::Arc<Netlist>),
}

impl m3d_tech::StableHash for NetlistSource {
    fn stable_hash(&self, h: &mut m3d_tech::StableHasher) {
        match self {
            // Write nothing for the default so every pre-existing
            // cache key (computed before this variant existed) is
            // preserved.
            NetlistSource::Generated => {}
            NetlistSource::External(nl) => {
                h.write_u8(1);
                nl.stable_hash(h);
            }
        }
    }
}

/// Full configuration of one flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Technology to implement in.
    pub pdk: Pdk,
    /// The SoC to build.
    pub soc: SocConfig,
    /// Netlist source: generated SoC or an ingested external design.
    pub source: NetlistSource,
    /// Placer effort.
    pub placer: PlacerConfig,
    /// Post-route optimisation knobs.
    pub opt: OptConfig,
    /// Forced die outline (iso-footprint comparisons), if any.
    pub die_override: Option<Rect>,
    /// Signal activity factor for power analysis.
    pub activity: f64,
    /// Run row legalisation after global placement (snaps cells onto
    /// non-overlapping rows; slightly slower but sign-off accurate).
    pub legalize: bool,
}

impl m3d_tech::StableHash for FlowConfig {
    fn stable_hash(&self, h: &mut m3d_tech::StableHasher) {
        self.pdk.stable_hash(h);
        self.soc.stable_hash(h);
        self.source.stable_hash(h);
        self.placer.stable_hash(h);
        self.opt.stable_hash(h);
        self.die_override.stable_hash(h);
        self.activity.stable_hash(h);
        self.legalize.stable_hash(h);
    }
}

impl FlowConfig {
    /// Content key of this configuration under [`m3d_tech::StableHash`] —
    /// the memoisation key the experiment engine's flow cache uses. Equal
    /// configurations always produce equal keys, across processes and
    /// threads.
    pub fn stable_key(&self) -> u64 {
        m3d_tech::StableHash::stable_key(self)
    }

    /// Content key of the **placement-determining prefix** of this
    /// configuration: everything the flow consumes up to and including
    /// row legalisation (`pdk`, `soc`, `source`, `placer`,
    /// `die_override`, `legalize`) — and nothing it does not (`opt`,
    /// `activity` only shape post-placement phases). Two configurations
    /// with equal placement keys provably produce byte-identical
    /// pre-optimisation placements, which is what lets a warm-started
    /// run reuse another configuration's placement without perturbing a
    /// single output bit.
    pub fn placement_key(&self) -> u64 {
        let mut h = m3d_tech::StableHasher::new();
        self.hash_placement_inputs(&mut h);
        h.finish()
    }

    /// Content key of everything the flow consumes up to and including
    /// clock-tree synthesis: the placement-key inputs plus `opt`. Only
    /// `activity` is left out, so configurations with equal opt keys
    /// share one post-optimisation [`SignoffState`] and differ only in
    /// power.
    pub fn opt_key(&self) -> u64 {
        use m3d_tech::StableHash as _;
        let mut h = m3d_tech::StableHasher::new();
        self.hash_placement_inputs(&mut h);
        self.opt.stable_hash(&mut h);
        h.finish()
    }

    fn hash_placement_inputs(&self, h: &mut m3d_tech::StableHasher) {
        use m3d_tech::StableHash as _;
        self.pdk.stable_hash(h);
        self.soc.stable_hash(h);
        self.source.stable_hash(h);
        self.placer.stable_hash(h);
        self.die_override.stable_hash(h);
        self.legalize.stable_hash(h);
    }
}

/// The place + legalize stage's result, which one flow run leaves for
/// every configuration sharing its placement key: the pre-optimisation
/// placement together with the recorded `place`/`legalize` spans and the
/// legalisation displacement.
/// A seeded run replays these verbatim instead of re-annealing — valid
/// only when [`PlacementSeed::placement_key`] matches the target
/// configuration's [`FlowConfig::placement_key`], in which case the
/// cold run would have recomputed the exact same bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementSeed {
    /// [`FlowConfig::placement_key`] of the run that produced this seed.
    pub placement_key: u64,
    /// The pre-optimisation placement (legalised when the configuration
    /// legalises).
    pub placement: Placement,
    /// The recorded `place` span (per-step annealing children included).
    pub place_span: SpanNode,
    /// The recorded `legalize` span, when legalisation ran.
    pub legalize_span: Option<SpanNode>,
    /// Mean legalisation displacement in µm (0 when skipped).
    pub legalization_displacement_um: f64,
}

impl PlacementSeed {
    /// Whether this seed can warm-start `cfg`: the placement keys match
    /// and the seed's shape is consistent with what the configuration's
    /// own synthesis/floorplan/clustering produce. A seed read from a
    /// corrupted artifact file fails these checks and the flow falls
    /// back to a cold run — never an error.
    fn validates_against(
        &self,
        cfg: &FlowConfig,
        netlist: &Netlist,
        clustering: &Clustering,
    ) -> bool {
        self.placement_key == cfg.placement_key()
            && self.placement.cell_pos.len() == netlist.cell_count()
            && self.placement.macro_pos.len() == netlist.macros().len()
            && self.placement.cluster_pos.len() == clustering.clusters.len()
            && self.placement.cluster_region.len() == clustering.clusters.len()
            && self.place_span.name == "place"
            && self.legalize_span.is_some() == cfg.legalize
            && self
                .legalize_span
                .as_ref()
                .is_none_or(|s| s.name == "legalize")
    }
}

impl FlowConfig {
    /// The paper's 2D baseline flow: Si CMOS + RRAM, CNFET cells blocked.
    pub fn baseline_2d() -> Self {
        Self {
            pdk: Pdk::baseline_2d_130nm(),
            soc: SocConfig::baseline_2d(),
            source: NetlistSource::Generated,
            placer: PlacerConfig::default(),
            opt: OptConfig::default(),
            die_override: None,
            activity: DEFAULT_ACTIVITY,
            legalize: true,
        }
    }

    /// The M3D flow with `cs_count` parallel computing sub-systems.
    pub fn m3d(cs_count: u32) -> Self {
        Self {
            pdk: Pdk::m3d_130nm(),
            soc: SocConfig::m3d(cs_count),
            ..Self::baseline_2d()
        }
    }

    /// Low-effort profile for tests and quick experiments.
    pub fn quick(mut self) -> Self {
        self.placer = PlacerConfig::quick();
        self.opt.max_rounds = 1;
        self.legalize = false;
        self
    }

    /// Replaces the per-CS configuration (e.g. smaller arrays in tests).
    pub fn with_cs(mut self, cs: m3d_netlist::CsConfig) -> Self {
        self.soc.cs = cs;
        self
    }

    /// Forces the die outline (the iso-footprint constraint).
    pub fn with_die(mut self, die: Rect) -> Self {
        self.die_override = Some(die);
        self
    }

    /// Re-characterises the configuration at a process `corner`: the
    /// PDK's libraries, supply and derates shift, everything else stays.
    /// Corner configurations have distinct [`FlowConfig::stable_key`]s,
    /// so SS/TT/FF runs occupy independent flow-cache entries.
    pub fn at_corner(mut self, corner: m3d_tech::Corner) -> Self {
        self.pdk = self.pdk.at_corner(corner);
        self
    }

    /// Implements an ingested netlist instead of generating the SoC.
    /// The design's content ([`m3d_tech::StableHash`] of the netlist)
    /// becomes part of [`FlowConfig::stable_key`], so distinct uploads
    /// occupy distinct flow-cache entries.
    pub fn with_external_netlist(mut self, netlist: std::sync::Arc<Netlist>) -> Self {
        self.source = NetlistSource::External(netlist);
        self
    }
}

/// The post-optimisation state every configuration sharing one
/// [`FlowConfig::opt_key`] signs off from: the flow's products through
/// clock-tree synthesis, which `activity` never reaches. Immutable once
/// built, so one `Arc` serves every activity evaluated on it.
#[derive(Debug)]
pub struct SignoffState {
    /// [`FlowConfig::opt_key`] of the run that produced this state.
    pub opt_key: u64,
    /// Final netlist (including post-route buffers).
    pub netlist: Netlist,
    /// Floorplan used.
    pub floorplan: Floorplan,
    /// Cluster view used by placement.
    pub clustering: Clustering,
    /// Final placement (including buffer positions).
    pub placement: Placement,
    /// Final routing estimate.
    pub routing: RoutingEstimate,
    /// Final timing.
    pub timing: TimingReport,
    /// Estimated clock tree over the final placement.
    pub clock_tree: ClockTree,
    /// The placement seed the state was optimised from, reusable by any
    /// configuration sharing its [`FlowConfig::placement_key`].
    pub seed: Arc<PlacementSeed>,
    /// The recorded `flow` span through `cts`; each sign-off appends its
    /// own `power` child to a copy.
    pub span: SpanNode,
    /// The report's activity-independent fields; the power fields stay 0
    /// until a sign-off fills them in.
    report: FlowReport,
}

/// Everything the flow produced, for export and inspection.
#[derive(Debug, Clone)]
pub struct FlowArtifacts {
    /// The post-optimisation state, shared with every run of the same
    /// [`FlowConfig::opt_key`].
    pub signoff: Arc<SignoffState>,
    /// Power sign-off at this run's activity.
    pub power: PowerReport,
    /// The run's deterministic sub-span tree: a `flow` root with one
    /// child per phase (synthesis, floorplan, clustering, place,
    /// legalize, opt, cts, power), per-iteration children and integer
    /// counters (annealing steps, optimisation rounds, HPWL, ILV
    /// crossings, critical paths). Equal configurations always yield
    /// byte-identical trees.
    pub span: SpanNode,
    /// Whether the run resumed from a seed or a sign-off state (see
    /// [`Rtl2GdsFlow::resume`]).
    pub warm: bool,
}

/// Where [`Rtl2GdsFlow::resume`] starts: each variant skips the stages
/// whose content key it carries.
#[derive(Debug, Clone)]
pub enum Resume {
    /// Run every stage.
    Cold,
    /// Adopt this placement seed instead of placing and legalising,
    /// when it validates against the configuration.
    Placed(Arc<PlacementSeed>),
    /// Sign off this post-optimisation state, running only power and
    /// the report, when its opt key matches the configuration's; with
    /// another opt key, resume from its seed instead.
    SignedOff(Arc<SignoffState>),
}

/// Post-route comparison metrics (the Fig. 2 numbers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// Parallel computing sub-systems implemented.
    pub cs_count: u32,
    /// Die outline.
    pub die: Rect,
    /// Die area in mm².
    pub die_mm2: f64,
    /// Standard-cell instances (after optimisation).
    pub cell_count: usize,
    /// Total standard-cell area in mm².
    pub cell_area_mm2: f64,
    /// SRAM macro footprint in mm².
    pub sram_area_mm2: f64,
    /// RRAM cell-array area in mm².
    pub rram_array_mm2: f64,
    /// RRAM peripheral area in mm².
    pub rram_perif_mm2: f64,
    /// Geometric placement demand of one CS (cells at utilisation plus
    /// its SRAM buffers) in mm² — `A_C` of the analytical framework.
    pub cs_demand_mm2: f64,
    /// γ_cells = memory cell-array area / CS area (eq. 2 input).
    pub gamma_cells: f64,
    /// γ_perif = memory peripheral area / CS area.
    pub gamma_perif: f64,
    /// Extra CSs the freed under-array Si could host (0 in 2D).
    pub extra_cs_capacity: u32,
    /// Total routed wirelength in metres.
    pub wirelength_m: f64,
    /// Signal-net inter-layer vias.
    pub signal_ilvs: u64,
    /// RRAM-array internal ILVs (M3D only).
    pub memory_cell_ilvs: u64,
    /// Post-route repeaters inserted.
    pub buffers_inserted: usize,
    /// Drivers upsized.
    pub upsized: usize,
    /// Critical path in ns.
    pub critical_path_ns: f64,
    /// Fastest closable clock in MHz.
    pub achieved_mhz: f64,
    /// `true` when the target clock closed.
    pub timing_met: bool,
    /// Target clock in MHz.
    pub target_mhz: f64,
    /// Total power in mW at the target clock.
    pub total_power_mw: f64,
    /// Standard-cell leakage in mW (the FF-corner sign-off number).
    pub cell_leakage_mw: f64,
    /// Upper-tier (CNFET + RRAM layer) power in mW.
    pub upper_tier_power_mw: f64,
    /// Upper-tier share of total power.
    pub upper_tier_fraction: f64,
    /// Peak power density in mW/mm².
    pub peak_density_mw_per_mm2: f64,
    /// Average power density in mW/mm².
    pub avg_density_mw_per_mm2: f64,
    /// Power of the hottest CS block in mW.
    pub hottest_cs_power_mw: f64,
    /// Fractional increase in the hottest block's stacked power density
    /// contributed by the M3D upper layers (Observation 2: ≈ +1 %).
    pub cs_stack_density_increase: f64,
    /// Aggregate RRAM read bandwidth in bits/cycle.
    pub rram_bandwidth_bits_per_cycle: u64,
    /// Mean cell displacement paid by row legalisation in µm (0 when
    /// legalisation was skipped).
    pub legalization_displacement_um: f64,
}

/// The flow driver.
#[derive(Debug, Clone)]
pub struct Rtl2GdsFlow {
    config: FlowConfig,
}

impl Rtl2GdsFlow {
    /// Creates a flow for `config`.
    pub fn new(config: FlowConfig) -> Self {
        Self { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs the full flow cold.
    ///
    /// # Errors
    ///
    /// Propagates netlist generation, floorplan fit, placement, routing
    /// and timing errors.
    pub fn run(&self) -> PdResult<(FlowReport, FlowArtifacts)> {
        self.resume(Resume::Cold)
    }

    /// [`Rtl2GdsFlow::run`], resumed `from` a stage result of another
    /// run.
    ///
    /// The flow is a chain of content-keyed stages: place + legalize
    /// ([`FlowConfig::placement_key`]), opt + CTS
    /// ([`FlowConfig::opt_key`]), then power + report. A stage result
    /// whose key matches this configuration's is exactly what the stage
    /// would recompute, so it is adopted and its recorded spans replayed
    /// verbatim: the report, artifacts and span tree are
    /// **byte-identical** to a cold run, and resuming only removes
    /// wall-clock. [`FlowArtifacts::warm`] says whether a stage was
    /// skipped; a mismatched or invalid seed silently falls back to the
    /// cold path (never an error).
    ///
    /// # Errors
    ///
    /// Same as [`Rtl2GdsFlow::run`].
    pub fn resume(&self, from: Resume) -> PdResult<(FlowReport, FlowArtifacts)> {
        let seed = match from {
            Resume::SignedOff(state) if state.opt_key == self.config.opt_key() => {
                return self.power_stage(state, true);
            }
            Resume::SignedOff(state) => Some(Arc::clone(&state.seed)),
            Resume::Placed(seed) => Some(seed),
            Resume::Cold => None,
        };
        let (state, warm) = self.opt_stage(seed)?;
        self.power_stage(Arc::new(state), warm)
    }

    /// Every stage before power: synthesis, floorplan, clustering,
    /// placement and legalisation (adopting `seed` when it validates),
    /// opt and CTS, and the report's activity-independent fields. Also
    /// says whether the seed was adopted.
    fn opt_stage(&self, seed: Option<Arc<PlacementSeed>>) -> PdResult<(SignoffState, bool)> {
        let cfg = &self.config;
        let mut span = SpanNode::new("flow");

        // --- Synthesis stand-in -----------------------------------------
        let mut netlist = match &cfg.source {
            NetlistSource::Generated => {
                let mut nl = Netlist::new(format!("{}_{}cs", cfg.pdk.name, cfg.soc.cs_count));
                accelerator_soc(&mut nl, &cfg.soc)?;
                nl
            }
            // Ingested designs arrive pre-elaborated; implement as-is.
            NetlistSource::External(nl) => (**nl).clone(),
        };
        let mut syn = SpanNode::new("synthesis");
        syn.counter("cells", netlist.cell_count() as u64);
        syn.counter("macros", netlist.macros().len() as u64);
        syn.counter("nets", netlist.nets().len() as u64);
        span.children.push(syn);

        // --- Floorplan ----------------------------------------------------
        let floorplan = Floorplan::plan(&cfg.pdk, &cfg.soc, &netlist, cfg.die_override)?;
        let mut fps = SpanNode::new("floorplan");
        fps.counter("regions", floorplan.regions.len() as u64);
        fps.counter("die_um2", round_counter(floorplan.die.area().value()));
        fps.counter(
            "target_clock_khz",
            round_counter(floorplan.target_clock.value() * 1_000.0),
        );
        span.children.push(fps);

        // --- Clustering ---------------------------------------------------
        let clustering = Clustering::build(&netlist, &cfg.pdk)?;
        let mut cls = SpanNode::new("clustering");
        cls.counter("clusters", clustering.clusters.len() as u64);
        cls.counter("nets", clustering.nets.len() as u64);
        span.children.push(cls);

        // --- Global placement + row legalisation ---------------------------
        let (seed, warm) = match seed {
            Some(s) if s.validates_against(cfg, &netlist, &clustering) => (s, true),
            _ => (
                Arc::new(self.place_stage(&netlist, &floorplan, &clustering)?),
                false,
            ),
        };
        span.children.push(seed.place_span.clone());
        span.children.extend(seed.legalize_span.clone());
        let mut placement = seed.placement.clone();

        // --- Route, post-route optimisation, CTS ---------------------------
        let OptOutcome {
            upsized,
            buffers_inserted,
            routing,
            timing,
            span: opt_span,
            ..
        } = post_route_optimize(
            &mut netlist,
            &mut placement,
            &cfg.pdk,
            floorplan.target_clock,
            &cfg.opt,
        )?;
        span.children.push(opt_span);
        let clock_tree = estimate_clock_tree(&netlist, &placement, &floorplan, &cfg.pdk)?;
        let mut cts = SpanNode::new("cts");
        cts.counter("sinks", clock_tree.sinks as u64);
        cts.counter("levels", u64::from(clock_tree.levels));
        cts.counter("buffers", clock_tree.buffers as u64);
        cts.counter(
            "wirelength_um",
            round_counter(clock_tree.wirelength.value()),
        );
        cts.counter(
            "insertion_delay_ps",
            round_counter(clock_tree.insertion_delay.value() * 1_000.0),
        );
        cts.counter(
            "skew_ps",
            round_counter(clock_tree.skew_bound.value() * 1_000.0),
        );
        span.children.push(cts);

        // --- Activity-independent report fields ------------------------------
        let stats = m3d_netlist::NetlistStats::compute(&netlist, &cfg.pdk)?;
        let rram = cfg.soc.rram_macro()?;
        let array = rram.array_area(cfg.pdk.ilv())?;
        let perif = rram.peripheral_area(cfg.pdk.ilv())?;
        let cs_demand = cs_geometric_demand(&netlist, &cfg.pdk)?;
        let freed = under_array_usable_area(&cfg.pdk, &rram)?;
        let extra = if cs_demand.value() > 0.0 {
            (freed.value() / cs_demand.value()).floor() as u32
        } else {
            0
        };
        let report = FlowReport {
            design: netlist.name.clone(),
            cs_count: cfg.soc.cs_count,
            die: floorplan.die,
            die_mm2: floorplan.die.area().as_mm2(),
            cell_count: netlist.cell_count(),
            cell_area_mm2: stats.total_cell_area().as_mm2(),
            sram_area_mm2: floorplan.movable_macro_area.as_mm2(),
            rram_array_mm2: array.as_mm2(),
            rram_perif_mm2: perif.as_mm2(),
            cs_demand_mm2: cs_demand.as_mm2(),
            gamma_cells: array.value() / cs_demand.value().max(1e-12),
            gamma_perif: perif.value() / cs_demand.value().max(1e-12),
            extra_cs_capacity: extra,
            wirelength_m: routing.total_wirelength.value() * 1.0e-6,
            signal_ilvs: routing.signal_ilvs,
            memory_cell_ilvs: routing.memory_cell_ilvs,
            buffers_inserted,
            upsized,
            critical_path_ns: timing.critical_path.value(),
            achieved_mhz: timing.achieved_clock.value(),
            timing_met: timing.timing_met(),
            target_mhz: floorplan.target_clock.value(),
            total_power_mw: 0.0,
            cell_leakage_mw: 0.0,
            upper_tier_power_mw: 0.0,
            upper_tier_fraction: 0.0,
            peak_density_mw_per_mm2: 0.0,
            avg_density_mw_per_mm2: 0.0,
            hottest_cs_power_mw: 0.0,
            cs_stack_density_increase: 0.0,
            rram_bandwidth_bits_per_cycle: rram.total_bandwidth_bits_per_cycle(),
            legalization_displacement_um: seed.legalization_displacement_um,
        };
        let state = SignoffState {
            opt_key: cfg.opt_key(),
            netlist,
            floorplan,
            clustering,
            placement,
            routing,
            timing,
            clock_tree,
            seed,
            span,
            report,
        };
        Ok((state, warm))
    }

    /// Anneals and (when configured) legalises cold, recording the seed
    /// every configuration sharing this placement key can resume from.
    fn place_stage(
        &self,
        netlist: &Netlist,
        floorplan: &Floorplan,
        clustering: &Clustering,
    ) -> PdResult<PlacementSeed> {
        let cfg = &self.config;
        let (mut placement, place_span) = place_traced(clustering, floorplan, &cfg.placer)?;
        let (legalize_span, legalization_displacement_um) = if cfg.legalize {
            let leg = crate::legalize::legalize(netlist, &placement, floorplan, &cfg.pdk)?;
            placement.cell_pos = leg.cell_pos;
            let mut ls = SpanNode::new("legalize");
            ls.counter("rows_used", leg.rows_used as u64);
            ls.counter("far_placed", leg.far_placed as u64);
            ls.counter(
                "avg_displacement_nm",
                round_counter(leg.avg_displacement.value() * 1_000.0),
            );
            (Some(ls), leg.avg_displacement.value())
        } else {
            (None, 0.0)
        };
        Ok(PlacementSeed {
            placement_key: cfg.placement_key(),
            placement,
            place_span,
            legalize_span,
            legalization_displacement_um,
        })
    }

    /// Power + report, the one stage `activity` reaches: signs `state`
    /// off at this configuration's activity.
    fn power_stage(
        &self,
        state: Arc<SignoffState>,
        warm: bool,
    ) -> PdResult<(FlowReport, FlowArtifacts)> {
        let cfg = &self.config;
        let power = analyze_power(
            &state.netlist,
            &state.routing,
            &state.placement,
            &state.floorplan,
            &cfg.pdk,
            state.floorplan.target_clock,
            cfg.activity,
        )?;
        let mut span = state.span.clone();
        let mut pws = SpanNode::new("power");
        pws.counter("total_uw", round_counter(power.total.value() * 1_000.0));
        pws.counter(
            "upper_tier_uw",
            round_counter(power.upper_tier.value() * 1_000.0),
        );
        span.children.push(pws);

        let cs_density = power.hottest_cs_power_mw / state.report.cs_demand_mm2.max(1e-9);
        let report = FlowReport {
            total_power_mw: power.total.value(),
            cell_leakage_mw: power.cell_leakage.value(),
            upper_tier_power_mw: power.upper_tier.value(),
            upper_tier_fraction: power.upper_tier_fraction(),
            peak_density_mw_per_mm2: power.peak_density_mw_per_mm2,
            avg_density_mw_per_mm2: power.avg_density_mw_per_mm2,
            hottest_cs_power_mw: power.hottest_cs_power_mw,
            cs_stack_density_increase: if cs_density > 0.0 {
                power.upper_layer_density_mw_per_mm2 / cs_density
            } else {
                0.0
            },
            ..state.report.clone()
        };
        let artifacts = FlowArtifacts {
            signoff: state,
            power,
            span,
            warm,
        };
        Ok((report, artifacts))
    }
}

/// Geometric placement demand of computing sub-system 0 (cells at the
/// free-region utilisation plus its SRAM buffer footprints), including
/// its per-CS bank-interface logic — the `A_C` the analytical framework
/// divides memory area by.
///
/// # Errors
///
/// Returns technology errors for cells missing from the PDK.
pub fn cs_geometric_demand(netlist: &Netlist, pdk: &Pdk) -> PdResult<SquareMicrons> {
    let util = pdk.rules.placement_utilization;
    let mut cells = SquareMicrons::ZERO;
    for c in netlist.cells() {
        let name = netlist.name_of(c.name);
        if name.starts_with("cs0/") || name.starts_with("cs0_if/") {
            let lib = pdk.library(c.tier)?;
            cells += lib.cell(c.kind, c.drive)?.area;
        }
    }
    let mut srams = SquareMicrons::ZERO;
    for m in netlist.macros() {
        if netlist.name_of(m.name).starts_with("cs0/") {
            if let MacroKind::Sram(s) = &m.kind {
                srams += s.footprint();
            }
        }
    }
    Ok(cells * (1.0 / util) + srams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{CsConfig, PeConfig};

    fn small_cs() -> CsConfig {
        CsConfig {
            rows: 4,
            cols: 4,
            pe: PeConfig::default(),
            global_buffer_kb: 64,
            local_buffer_kb: 8,
        }
    }

    #[test]
    fn baseline_flow_end_to_end() {
        let cfg = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        let (report, artifacts) = Rtl2GdsFlow::new(cfg).run().unwrap();
        assert_eq!(report.cs_count, 1);
        assert!(report.timing_met, "20 MHz must close");
        assert!(report.die_mm2 > 80.0, "64 MB RRAM dominates the die");
        assert!(report.wirelength_m > 0.0);
        assert_eq!(report.signal_ilvs, 0, "no tier crossings in 2D");
        assert_eq!(report.upper_tier_power_mw, 0.0);
        assert!(report.extra_cs_capacity == 0, "Si selectors free nothing");
        assert!(artifacts.signoff.netlist.lint().is_empty());
    }

    #[test]
    fn m3d_flow_iso_footprint_pair() {
        let base = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        let (r2d, _) = Rtl2GdsFlow::new(base).run().unwrap();

        let m3d = FlowConfig::m3d(2)
            .with_cs(small_cs())
            .quick()
            .with_die(r2d.die);
        let (r3d, _) = Rtl2GdsFlow::new(m3d).run().unwrap();

        assert_eq!(r3d.die, r2d.die, "iso-footprint");
        assert_eq!(r3d.cs_count, 2);
        assert!(r3d.memory_cell_ilvs > 0);
        assert!(r3d.upper_tier_power_mw > 0.0);
        assert!(r3d.upper_tier_fraction < 0.05);
        assert!(
            r3d.rram_bandwidth_bits_per_cycle == 2 * r2d.rram_bandwidth_bits_per_cycle,
            "banked memory doubles bandwidth"
        );
        // The small test CS is tiny, so the freed area could host many.
        assert!(r3d.extra_cs_capacity >= 2);
    }

    #[test]
    fn traced_flow_exposes_phase_spans_and_is_deterministic() {
        let cfg = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        let (r1, a1) = Rtl2GdsFlow::new(cfg.clone()).run().unwrap();
        let (r2, a2) = Rtl2GdsFlow::new(cfg).run().unwrap();
        let (t1, t2) = (&a1.span, &a2.span);
        assert_eq!(r1, r2, "flow report is deterministic");
        assert_eq!(t1, t2, "sub-span tree is deterministic");
        assert_eq!(t1.name, "flow");
        for phase in [
            "synthesis",
            "floorplan",
            "clustering",
            "place",
            "opt",
            "cts",
            "power",
        ] {
            assert!(t1.find(phase).is_some(), "missing phase span: {phase}");
        }
        // quick() skips legalisation.
        assert!(t1.find("legalize").is_none());
        let place = t1.find("place").unwrap();
        assert!(!place.children.is_empty(), "annealing step spans present");
        assert!(t1.find("route").is_some() && t1.find("sta").is_some());
        let cts = t1.find("cts").unwrap();
        assert_eq!(
            cts.counter_value("sinks"),
            Some(a1.signoff.clock_tree.sinks as u64)
        );
        assert!(
            a1.signoff.clock_tree.buffers > 0,
            "CTS is wired into the flow"
        );
    }

    #[test]
    fn external_netlist_runs_the_flow_and_keys_the_cache_by_content() {
        use m3d_netlist::gen::ripple_carry_adder;
        use m3d_tech::Tier;
        use std::sync::Arc;

        let mut nl = Netlist::new("uploaded");
        let a: Vec<_> = (0..8).map(|i| nl.add_net(format!("a{i}"))).collect();
        let b: Vec<_> = (0..8).map(|i| nl.add_net(format!("b{i}"))).collect();
        for &n in a.iter().chain(&b) {
            nl.set_primary_input(n).unwrap();
        }
        let out = ripple_carry_adder(&mut nl, "add", Tier::SiCmos, &a, &b, None).unwrap();
        for s in out.sum.iter().chain(std::iter::once(&out.cout)) {
            nl.set_primary_output(*s).unwrap();
        }

        let base = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        let ext = base.clone().with_external_netlist(Arc::new(nl.clone()));
        // The external design changes the content key; the default
        // source leaves pre-existing keys untouched.
        assert_ne!(ext.stable_key(), base.stable_key());
        let mut renamed = nl.clone();
        renamed.name = "uploaded2".into();
        let ext2 = base.clone().with_external_netlist(Arc::new(renamed));
        assert_ne!(ext.stable_key(), ext2.stable_key());

        let (report, artifacts) = Rtl2GdsFlow::new(ext).run().unwrap();
        assert_eq!(report.design, "uploaded");
        assert_eq!(report.cell_count, nl.cell_count());
        assert!(report.die_mm2 > 0.0);
        assert!(report.achieved_mhz > 0.0);
        assert_eq!(artifacts.signoff.netlist.macros().len(), 0);
    }

    #[test]
    fn warm_seeded_run_is_byte_identical_to_cold() {
        // Quick, and the default placer effort warm-started sweeps run
        // at, where annealing dominates the flow.
        let full = FlowConfig::baseline_2d().with_cs(small_cs());
        for mut cold_cfg in [full.clone().quick(), full] {
            cold_cfg.activity = 0.20;
            let (cr, ca) = Rtl2GdsFlow::new(cold_cfg.clone()).run().unwrap();
            assert!(!ca.warm);

            // A lattice neighbour: same placement key, different
            // post-placement knobs — its seed must warm-start the target
            // bit-for-bit.
            let mut warm_cfg = cold_cfg.clone();
            warm_cfg.activity = 0.25;
            warm_cfg.opt.upsize_threshold_ns = cold_cfg.opt.upsize_threshold_ns * 0.5;
            assert_eq!(warm_cfg.placement_key(), cold_cfg.placement_key());
            assert_ne!(warm_cfg.opt_key(), cold_cfg.opt_key());
            assert_ne!(warm_cfg.stable_key(), cold_cfg.stable_key());
            let (_, na) = Rtl2GdsFlow::new(warm_cfg).run().unwrap();

            // Its sign-off state has another opt key, so only its seed
            // is adopted.
            let (wr, wa) = Rtl2GdsFlow::new(cold_cfg)
                .resume(Resume::SignedOff(na.signoff))
                .unwrap();
            assert!(wa.warm, "matching placement key must take the warm path");
            assert_eq!(wr, cr, "warm report == cold report");
            assert_eq!(wa.span, ca.span, "warm span tree == cold span tree");
            assert_eq!(wa.signoff.placement, ca.signoff.placement);
            assert_eq!(wa.signoff.routing, ca.signoff.routing);
            assert_eq!(wa.signoff.seed, ca.signoff.seed);
        }
    }

    #[test]
    fn signed_off_resume_runs_power_alone_byte_identically() {
        let mut a = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        a.activity = 0.10;
        let mut b = a.clone();
        b.activity = 0.30;
        assert_eq!(a.opt_key(), b.opt_key());
        let (_, aa) = Rtl2GdsFlow::new(a).run().unwrap();
        let (cr, ca) = Rtl2GdsFlow::new(b.clone()).run().unwrap();
        let (wr, wa) = Rtl2GdsFlow::new(b)
            .resume(Resume::SignedOff(Arc::clone(&aa.signoff)))
            .unwrap();
        assert!(wa.warm);
        assert!(Arc::ptr_eq(&wa.signoff, &aa.signoff), "the state is shared");
        assert_eq!(wr, cr);
        assert_eq!(wa.span, ca.span);
        assert_eq!(wa.power, ca.power);
        assert_ne!(wr.total_power_mw, aa.power.total.value());
    }

    #[test]
    fn opt_key_moves_with_every_opt_and_placement_input_but_not_activity() {
        let base = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        let key = base.opt_key();
        let mut act = base.clone();
        act.activity *= 2.0;
        assert_eq!(act.opt_key(), key, "activity reaches only power");
        assert_ne!(act.stable_key(), base.stable_key());

        let opt: [fn(&mut OptConfig); 4] = [
            |o| o.max_rounds += 1,
            |o| o.upsize_threshold_ns *= 0.5,
            |o| o.buffer_length_um *= 0.5,
            |o| o.detour *= 1.1,
        ];
        for (i, change) in opt.iter().enumerate() {
            let mut c = base.clone();
            change(&mut c.opt);
            assert_ne!(c.opt_key(), key, "opt field {i}");
            assert_eq!(c.placement_key(), base.placement_key(), "opt field {i}");
        }
        let placement: [fn(&mut FlowConfig); 6] = [
            |c| c.pdk = Pdk::m3d_130nm(),
            |c| c.soc.cs_count += 1,
            |c| c.source = NetlistSource::External(Arc::new(Netlist::new("x"))),
            |c| c.placer = PlacerConfig::default(),
            |c| c.die_override = Some(Rect::new(0.0, 0.0, 1000.0, 1000.0)),
            |c| c.legalize = !c.legalize,
        ];
        for (i, change) in placement.iter().enumerate() {
            let mut c = base.clone();
            change(&mut c);
            assert_ne!(c.placement_key(), base.placement_key(), "input {i}");
            assert_ne!(c.opt_key(), key, "input {i}");
        }
    }

    #[test]
    fn mismatched_or_corrupt_seed_falls_back_to_cold() {
        let cfg = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        let (cr, ca) = Rtl2GdsFlow::new(cfg.clone()).run().unwrap();

        // Different placement key (placer effort differs) → cold, from a
        // seed or from a sign-off state.
        let mut other = cfg.clone();
        other.placer = PlacerConfig::default();
        assert_ne!(other.placement_key(), cfg.placement_key());
        let (_, oa) = Rtl2GdsFlow::new(other).run().unwrap();
        for from in [
            Resume::Placed(Arc::clone(&oa.signoff.seed)),
            Resume::SignedOff(oa.signoff),
        ] {
            let (r1, a1) = Rtl2GdsFlow::new(cfg.clone()).resume(from).unwrap();
            assert!(!a1.warm);
            assert_eq!(r1, cr);
        }

        // Right key but truncated placement (a corrupt artifact) → cold.
        let mut corrupt = (*ca.signoff.seed).clone();
        corrupt.placement.cell_pos.pop();
        let (r2, a2) = Rtl2GdsFlow::new(cfg)
            .resume(Resume::Placed(Arc::new(corrupt)))
            .unwrap();
        assert!(!a2.warm);
        assert_eq!(r2, cr);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// Warm-vs-cold byte-identity over random adjacent lattice pairs:
        /// any seed from a configuration sharing the placement key
        /// reproduces the cold run exactly, whatever the post-placement
        /// knobs of either side.
        #[test]
        fn warm_start_matches_cold_for_random_adjacent_pairs(
            act_a in 1u32..=8,
            act_b in 1u32..=8,
            thr_a in 1u32..=6,
            thr_b in 1u32..=6,
            rounds_b in 1u32..=2,
            buf_b in 0u32..2,
        ) {
            let mut a = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
            a.activity = f64::from(act_a) * 0.05;
            a.opt.upsize_threshold_ns = f64::from(thr_a) * 0.05;
            let mut b = a.clone();
            b.activity = f64::from(act_b) * 0.05;
            b.opt.upsize_threshold_ns = f64::from(thr_b) * 0.05;
            b.opt.max_rounds = rounds_b as usize;
            if buf_b == 1 {
                b.opt.buffer_length_um *= 0.5;
            }
            proptest::prop_assert_eq!(a.placement_key(), b.placement_key());

            let (_, na) = Rtl2GdsFlow::new(a).run().unwrap();
            let (cr, ca) = Rtl2GdsFlow::new(b.clone()).run().unwrap();
            let (wr, wa) = Rtl2GdsFlow::new(b)
                .resume(Resume::Placed(Arc::clone(&na.signoff.seed)))
                .unwrap();
            proptest::prop_assert!(wa.warm);
            proptest::prop_assert_eq!(wr, cr);
            proptest::prop_assert_eq!(wa.span, ca.span);
            proptest::prop_assert_eq!(&wa.signoff.placement, &ca.signoff.placement);
            proptest::prop_assert_eq!(&wa.signoff.routing, &ca.signoff.routing);
        }
    }

    #[test]
    fn gamma_ratios_consistent() {
        let cfg = FlowConfig::baseline_2d().with_cs(small_cs()).quick();
        let (r, _) = Rtl2GdsFlow::new(cfg).run().unwrap();
        assert!(r.gamma_cells > 0.0);
        assert!(r.gamma_perif > 0.0);
        assert!((r.gamma_cells / r.gamma_perif - r.rram_array_mm2 / r.rram_perif_mm2).abs() < 1e-6);
        assert!(r.cs_demand_mm2 > 0.0);
    }
}
