//! Post-route optimisation: driver upsizing and buffer insertion to meet
//! timing and max-capacitance limits, as the paper's flow performs after
//! 3D routing ("post-route optimization is performed to meet power and
//! timing constraints").

use m3d_netlist::{Driver, Netlist, Sink};
use m3d_tech::stdcell::{CellKind, DriveStrength};
use m3d_tech::units::Megahertz;
use m3d_tech::{Pdk, SpanNode, Tier};

use std::collections::HashSet;

use crate::error::PdResult;
use crate::geom::Point;
use crate::observe::round_counter;
use crate::place::Placement;
use crate::route::{estimate_routing, reestimate_routing, RoutingEstimate};
use crate::sta::{analyze_timing, TimingReport};

/// Builds a `route` span from one routing estimate (net count, rounded
/// wirelength, and the paper's headline ILV-crossing counters).
fn route_span(routing: &RoutingEstimate) -> SpanNode {
    let mut s = SpanNode::new("route");
    s.counter("nets", routing.nets.len() as u64);
    s.counter(
        "wirelength_um",
        round_counter(routing.total_wirelength.value()),
    );
    s.counter("signal_ilvs", routing.signal_ilvs);
    s.counter("memory_cell_ilvs", routing.memory_cell_ilvs);
    s
}

/// Builds an `sta` span from one timing report (endpoint/violation
/// counts and the critical path in integer picoseconds).
fn sta_span(timing: &TimingReport) -> SpanNode {
    let mut s = SpanNode::new("sta");
    s.counter("endpoints", timing.endpoints as u64);
    s.counter("violations", timing.violations as u64);
    s.counter(
        "critical_path_ps",
        round_counter(timing.critical_path.value() * 1_000.0),
    );
    s.counter("timing_met", u64::from(timing.timing_met()));
    s
}

/// Optimisation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptConfig {
    /// Maximum optimisation rounds (route → STA → fix).
    pub max_rounds: usize,
    /// Driver delay (R_drive × C_load) above which the driver is upsized,
    /// in nanoseconds.
    pub upsize_threshold_ns: f64,
    /// Wire length above which a repeater is inserted, in microns.
    pub buffer_length_um: f64,
    /// Routing detour factor.
    pub detour: f64,
}

impl m3d_tech::StableHash for OptConfig {
    fn stable_hash(&self, h: &mut m3d_tech::StableHasher) {
        self.max_rounds.stable_hash(h);
        self.upsize_threshold_ns.stable_hash(h);
        self.buffer_length_um.stable_hash(h);
        self.detour.stable_hash(h);
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            max_rounds: 3,
            upsize_threshold_ns: 0.8,
            buffer_length_um: 1500.0,
            detour: crate::route::DEFAULT_DETOUR,
        }
    }
}

/// What post-route optimisation did.
#[derive(Debug, Clone, PartialEq)]
pub struct OptOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Drivers upsized to a stronger variant.
    pub upsized: usize,
    /// Repeater buffers inserted.
    pub buffers_inserted: usize,
    /// Routing estimate after the final round.
    pub routing: RoutingEstimate,
    /// Timing after the final round.
    pub timing: TimingReport,
    /// The `opt` span: the initial `route`/`sta` children, then one
    /// `round{N}` child per executed round holding that round's fix
    /// counters and its re-route / re-timing spans.
    pub span: SpanNode,
}

fn net_center(netlist: &Netlist, placement: &Placement, ni: usize) -> Point {
    let net = &netlist.nets()[ni];
    let mut min = (f64::INFINITY, f64::INFINITY);
    let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut count = 0usize;
    let mut incl = |p: Point| {
        min.0 = min.0.min(p.x.value());
        min.1 = min.1.min(p.y.value());
        max.0 = max.0.max(p.x.value());
        max.1 = max.1.max(p.y.value());
        count += 1;
    };
    match net.driver {
        Some(Driver::Cell { cell, .. }) => incl(placement.cell_pos[cell.0 as usize]),
        Some(Driver::Macro { id }) => incl(placement.macro_pos[id.0 as usize]),
        _ => {}
    }
    for s in &net.sinks {
        match *s {
            Sink::Cell { cell, .. } => incl(placement.cell_pos[cell.0 as usize]),
            Sink::Macro { id } => incl(placement.macro_pos[id.0 as usize]),
            Sink::PrimaryOutput => {}
        }
    }
    if count == 0 {
        Point::default()
    } else {
        Point::new((min.0 + max.0) / 2.0, (min.1 + max.1) / 2.0)
    }
}

/// Runs post-route optimisation, mutating the netlist (buffer insertion)
/// and placement (positions for the new buffers). The outcome carries
/// the `opt` span, deterministic for a given netlist + placement.
///
/// # Errors
///
/// Propagates routing/timing errors.
pub fn post_route_optimize(
    netlist: &mut Netlist,
    placement: &mut Placement,
    pdk: &Pdk,
    target_clock: Megahertz,
    config: &OptConfig,
) -> PdResult<OptOutcome> {
    let mut upsized = 0usize;
    let mut buffers = 0usize;
    let mut rounds = 0usize;
    let mut routing = estimate_routing(netlist, placement, pdk, config.detour)?;
    let mut timing = analyze_timing(netlist, &routing, pdk, target_clock)?;
    let mut span = SpanNode::new("opt");
    span.children.push(route_span(&routing));
    span.children.push(sta_span(&timing));

    for round in 0..config.max_rounds {
        rounds = round + 1;
        let mut changed = false;
        let upsized_before = upsized;
        let buffers_before = buffers;
        // Nets whose parasitics the round's fixes perturb: rewired nets
        // and every net loaded by an upsized cell's input pin. Only
        // these are re-routed below — the re-estimate is incremental
        // against the placement/netlist delta, bit-identical to a full
        // re-route.
        let mut dirty: Vec<usize> = Vec::new();
        let mut upsized_cells: HashSet<u32> = HashSet::new();

        // --- Pass 1: upsize weak drivers of heavily loaded nets ---------
        let mut to_upsize: Vec<u32> = Vec::new();
        for (ni, rn) in routing.nets.iter().enumerate() {
            if rn.is_global {
                continue;
            }
            if let Some(Driver::Cell { cell, .. }) = netlist.nets()[ni].driver {
                let c = &netlist.cells()[cell.0 as usize];
                let lib = pdk.library(c.tier)?;
                let lc = lib.cell(c.kind, c.drive)?;
                let drv_delay = (lc.drive_resistance * rn.total_cap()).value();
                if drv_delay > config.upsize_threshold_ns && lib.upsize(lc).is_some() {
                    to_upsize.push(cell.0);
                }
            }
        }
        to_upsize.sort_unstable();
        to_upsize.dedup();
        for ci in to_upsize {
            let (kind, drive, tier) = {
                let c = &netlist.cells()[ci as usize];
                (c.kind, c.drive, c.tier)
            };
            let lib = pdk.library(tier)?;
            if let Some(up) = lib.upsize(lib.cell(kind, drive)?) {
                netlist.cell_mut(m3d_netlist::CellId(ci))?.drive = up.drive;
                upsized += 1;
                changed = true;
                upsized_cells.insert(ci);
            }
        }
        if !upsized_cells.is_empty() {
            // A stronger drive variant presents a larger input pin, so
            // every net with an upsized cell among its sinks carries a
            // stale pin capacitance.
            for (ni, net) in netlist.nets().iter().enumerate() {
                if net.sinks.iter().any(
                    |s| matches!(*s, Sink::Cell { cell, .. } if upsized_cells.contains(&cell.0)),
                ) {
                    dirty.push(ni);
                }
            }
        }

        // --- Pass 2: repeaters on long nets ------------------------------
        let long_nets: Vec<usize> = routing
            .nets
            .iter()
            .enumerate()
            .filter(|(ni, rn)| {
                !rn.is_global
                    && rn.length.value() > config.buffer_length_um
                    && !netlist.nets()[*ni].sinks.is_empty()
                    && !matches!(
                        netlist.nets()[*ni].driver,
                        None | Some(Driver::PrimaryInput)
                    )
            })
            .map(|(ni, _)| ni)
            .collect();
        for ni in long_nets {
            let center = net_center(netlist, placement, ni);
            let from = m3d_netlist::NetId(ni as u32);
            let nb = netlist.add_net(format!("postopt_n{ni}"));
            netlist.rewire_sinks(from, nb)?;
            netlist.add_cell(
                format!("postopt/rep{ni}"),
                CellKind::Buf,
                DriveStrength::X8,
                Tier::SiCmos,
                &[from],
                &[nb],
            )?;
            placement.cell_pos.push(center);
            buffers += 1;
            changed = true;
            // The rewired source net changed topology; the new net is
            // appended past `routing.nets` and re-routed implicitly.
            dirty.push(ni);
        }

        dirty.sort_unstable();
        dirty.dedup();
        routing = reestimate_routing(netlist, placement, pdk, config.detour, &routing, &dirty)?;
        timing = analyze_timing(netlist, &routing, pdk, target_clock)?;
        let mut round_span = SpanNode::new(format!("round{round}"));
        round_span.counter("upsized", (upsized - upsized_before) as u64);
        round_span.counter("buffers_inserted", (buffers - buffers_before) as u64);
        round_span.children.push(route_span(&routing));
        round_span.children.push(sta_span(&timing));
        span.children.push(round_span);
        if !changed || timing.timing_met() {
            break;
        }
    }
    span.counter("rounds", rounds as u64);
    span.counter("upsized", upsized as u64);
    span.counter("buffers_inserted", buffers as u64);

    Ok(OptOutcome {
        rounds,
        upsized,
        buffers_inserted: buffers,
        routing,
        timing,
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use crate::floorplan::Floorplan;
    use crate::place::{place, PlacerConfig};
    use m3d_netlist::{accelerator_soc, CsConfig, PeConfig, SocConfig};

    fn setup() -> (Netlist, Placement, Pdk, Megahertz) {
        let cfg = SocConfig {
            cs: CsConfig {
                rows: 4,
                cols: 4,
                pe: PeConfig::default(),
                global_buffer_kb: 64,
                local_buffer_kb: 8,
            },
            ..SocConfig::baseline_2d()
        };
        let pdk = Pdk::baseline_2d_130nm();
        let mut nl = Netlist::new("soc");
        accelerator_soc(&mut nl, &cfg).unwrap();
        let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
        let cl = Clustering::build(&nl, &pdk).unwrap();
        let p = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        let clock = pdk.default_clock;
        (nl, p, pdk, clock)
    }

    #[test]
    fn optimization_keeps_netlist_clean() {
        let (mut nl, mut p, pdk, clock) = setup();
        let before = nl.cell_count();
        let out = post_route_optimize(&mut nl, &mut p, &pdk, clock, &OptConfig::default()).unwrap();
        assert!(
            nl.lint().is_empty(),
            "{:?}",
            &nl.lint()[..nl.lint().len().min(3)]
        );
        assert_eq!(nl.cell_count(), before + out.buffers_inserted);
        assert_eq!(p.cell_pos.len(), nl.cell_count());
        assert!(out.rounds >= 1);
    }

    #[test]
    fn optimization_helps_or_maintains_timing() {
        let (mut nl, mut p, pdk, clock) = setup();
        let r0 = estimate_routing(&nl, &p, &pdk, crate::route::DEFAULT_DETOUR).unwrap();
        let t0 = analyze_timing(&nl, &r0, &pdk, clock).unwrap();
        let out = post_route_optimize(&mut nl, &mut p, &pdk, clock, &OptConfig::default()).unwrap();
        assert!(
            out.timing.critical_path.value() <= t0.critical_path.value() * 1.001,
            "opt {} vs base {}",
            out.timing.critical_path,
            t0.critical_path
        );
    }

    #[test]
    fn traced_optimisation_records_rounds_and_ilv_counters() {
        let (mut nl, mut p, pdk, clock) = setup();
        let out = post_route_optimize(&mut nl, &mut p, &pdk, clock, &OptConfig::default()).unwrap();
        let span = &out.span;
        assert_eq!(span.name, "opt");
        assert_eq!(span.counter_value("rounds"), Some(out.rounds as u64));
        assert_eq!(span.counter_value("upsized"), Some(out.upsized as u64));
        // Initial route + sta, then route + sta inside each round span.
        assert_eq!(span.children.len(), 2 + out.rounds);
        // The final round's spans reflect the returned routing/timing.
        let last = span.find(&format!("round{}", out.rounds - 1)).unwrap();
        let route = last.find("route").unwrap();
        assert_eq!(
            route.counter_value("nets"),
            Some(out.routing.nets.len() as u64)
        );
        assert_eq!(
            route.counter_value("signal_ilvs"),
            Some(out.routing.signal_ilvs)
        );
        let sta = last.find("sta").unwrap();
        assert_eq!(
            sta.counter_value("endpoints"),
            Some(out.timing.endpoints as u64)
        );
        assert_eq!(
            sta.counter_value("timing_met"),
            Some(u64::from(out.timing.timing_met()))
        );
    }

    #[test]
    fn incremental_reroute_is_bit_identical_to_full_reroute() {
        let (mut nl, mut p, pdk, clock) = setup();
        // Aggressive thresholds force both fix kinds, so the dirty-set
        // bookkeeping is exercised on upsizes, rewires and new nets.
        let cfg = OptConfig {
            buffer_length_um: 100.0,
            upsize_threshold_ns: 0.05,
            ..OptConfig::default()
        };
        let out = post_route_optimize(&mut nl, &mut p, &pdk, clock, &cfg).unwrap();
        assert!(out.buffers_inserted > 0, "test must insert buffers");
        let full = estimate_routing(&nl, &p, &pdk, cfg.detour).unwrap();
        assert_eq!(
            out.routing, full,
            "incrementally patched estimate must equal a from-scratch one bit-for-bit"
        );
    }

    #[test]
    fn aggressive_thresholds_insert_buffers() {
        let (mut nl, mut p, pdk, clock) = setup();
        let cfg = OptConfig {
            buffer_length_um: 100.0,
            max_rounds: 1,
            ..OptConfig::default()
        };
        let out = post_route_optimize(&mut nl, &mut p, &pdk, clock, &cfg).unwrap();
        assert!(out.buffers_inserted > 0);
        assert!(nl.lint().is_empty());
    }
}
