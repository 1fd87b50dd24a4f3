//! Static timing analysis: topological arrival propagation with a linear
//! cell-delay model and Elmore wire delays.
//!
//! Sources are primary inputs, flip-flop outputs (clock-to-Q) and macro
//! read ports (access latency). Endpoints are flip-flop D pins (setup),
//! macro write/address pins and primary outputs. Globally distributed
//! nets (constants, resets) are treated as ideal networks, as a signoff
//! tool would treat them after dedicated distribution synthesis.

use serde::{Deserialize, Serialize};

use m3d_netlist::{Driver, MacroKind, Netlist, Sink};
use m3d_tech::units::{Megahertz, Nanoseconds};
use m3d_tech::{Pdk, TechResult};

use crate::route::RoutingEstimate;

/// Margin required at macro input pins (address/write-data setup).
const MACRO_SETUP_NS: f64 = 1.0;

/// Load a driver sees on a globally distributed net (the first stage of
/// its dedicated distribution tree).
const GLOBAL_NET_DRIVER_LOAD: m3d_tech::units::Femtofarads =
    m3d_tech::units::Femtofarads::new(20.0);

/// One endpoint row of the report_timing-style table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointSlack {
    /// Endpoint description (flop D pin, macro input or primary output).
    pub endpoint: String,
    /// Arrival including the endpoint's setup requirement, in ns.
    pub arrival_ns: f64,
    /// Slack against the target clock, in ns (negative = violating).
    pub slack_ns: f64,
}

/// Result of a timing analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Worst endpoint arrival including setup (the minimum workable clock
    /// period).
    pub critical_path: Nanoseconds,
    /// Fastest clock the design closes at.
    pub achieved_clock: Megahertz,
    /// Target clock the analysis was run against.
    pub target_clock: Megahertz,
    /// Worst negative slack against the target (negative = violating).
    pub worst_slack: Nanoseconds,
    /// Number of violating endpoints at the target clock.
    pub violations: usize,
    /// Total timing endpoints.
    pub endpoints: usize,
    /// Instance names along the critical path (endpoint last, truncated).
    pub critical_cells: Vec<String>,
    /// Arrival time (ns) at each cell's output along the critical path,
    /// aligned with [`TimingReport::critical_cells`].
    pub critical_arrivals: Vec<f64>,
    /// The worst endpoints, most critical first (report_timing style).
    pub worst_endpoints: Vec<EndpointSlack>,
}

impl TimingReport {
    /// `true` when every endpoint meets the target clock.
    pub fn timing_met(&self) -> bool {
        self.violations == 0
    }
}

/// Runs static timing analysis on a placed-and-routed design.
///
/// # Errors
///
/// Returns technology errors when a cell is missing from the PDK
/// libraries.
///
/// # Panics
///
/// Panics when `routing` does not match `netlist` (different net counts).
pub fn analyze_timing(
    netlist: &Netlist,
    routing: &RoutingEstimate,
    pdk: &Pdk,
    target_clock: Megahertz,
) -> TechResult<TimingReport> {
    assert_eq!(
        routing.nets.len(),
        netlist.net_count(),
        "routing/netlist mismatch"
    );
    let ncells = netlist.cell_count();
    let nnets = netlist.net_count();

    // Arrival time per net; None = not yet resolved.
    let mut arrival: Vec<Option<f64>> = vec![None; nnets];
    // Predecessor cell per net, for critical-path reconstruction.
    let mut pred: Vec<Option<u32>> = vec![None; nnets];

    // Wire delay of a net as seen by its sinks (driver resistance is
    // accounted in the driving cell's delay).
    let wire_delay = |ni: usize| -> f64 {
        let rn = &routing.nets[ni];
        if rn.is_global {
            return 0.0;
        }
        (rn.wire_res * (rn.wire_cap * 0.5 + rn.pin_cap)).value()
    };

    // --- Seed sources ------------------------------------------------------
    let mut remaining_inputs: Vec<u32> = vec![0; ncells];
    for (ci, cell) in netlist.cells().iter().enumerate() {
        if cell.kind.is_sequential() {
            remaining_inputs[ci] = 0; // launched by the clock, not by D
        } else {
            remaining_inputs[ci] = cell.inputs.len() as u32;
        }
    }

    let mut ready: Vec<u32> = Vec::new();
    // Macro and PI driven nets resolve immediately.
    for (ni, net) in netlist.nets().iter().enumerate() {
        match net.driver {
            Some(Driver::PrimaryInput) => {
                arrival[ni] = Some(wire_delay(ni));
            }
            Some(Driver::Macro { id }) => {
                // Macro access paths (sense amplifiers, decoders) are
                // transistor-limited and scale with the process corner.
                let lat = match &netlist.macros()[id.0 as usize].kind {
                    MacroKind::Rram(r) => r.read_latency().value(),
                    MacroKind::Sram(s) => s.latency.value(),
                    // Opaque ingested blocks launch like primary inputs.
                    MacroKind::BlackBox { .. } => 0.0,
                } * pdk.timing_derate;
                arrival[ni] = Some(lat + wire_delay(ni));
            }
            _ => {}
        }
    }
    // Sequential cells launch at clk-to-Q.
    for (ci, cell) in netlist.cells().iter().enumerate() {
        if cell.kind.is_sequential() {
            ready.push(ci as u32);
        }
    }

    // Decrement fanin counters for already-resolved nets.
    let dec_for_net = |ni: usize, remaining: &mut Vec<u32>, ready: &mut Vec<u32>| {
        for s in &netlist.nets()[ni].sinks {
            if let Sink::Cell { cell, .. } = *s {
                let c = &netlist.cells()[cell.0 as usize];
                if !c.kind.is_sequential() {
                    let r = &mut remaining[cell.0 as usize];
                    *r = r.saturating_sub(1);
                    if *r == 0 {
                        ready.push(cell.0);
                    }
                }
            }
        }
    };
    for (ni, a) in arrival.iter().enumerate() {
        if a.is_some() {
            dec_for_net(ni, &mut remaining_inputs, &mut ready);
        }
    }

    // --- Topological propagation -------------------------------------------
    let mut processed = vec![false; ncells];
    while let Some(ci) = ready.pop() {
        let ci = ci as usize;
        if processed[ci] {
            continue;
        }
        processed[ci] = true;
        let cell = &netlist.cells()[ci];
        let lib = pdk.library(cell.tier)?;
        let lib_cell = lib.cell(cell.kind, cell.drive)?;

        let input_arrival = if cell.kind.is_sequential() {
            0.0 // launch edge
        } else {
            cell.inputs
                .iter()
                .map(|n| arrival[n.0 as usize].unwrap_or(0.0))
                .fold(0.0, f64::max)
        };
        for &out in &cell.outputs {
            let ni = out.0 as usize;
            // Globally distributed nets (constants, resets, broadcast
            // selects) receive a dedicated buffered distribution network,
            // like a clock tree: the driver sees only its first stage.
            let load = if routing.nets[ni].is_global {
                GLOBAL_NET_DRIVER_LOAD
            } else {
                routing.nets[ni].total_cap()
            };
            let d = lib_cell.delay(load).value();
            let a = input_arrival + d + wire_delay(ni);
            if arrival[ni].is_none_or(|prev| a > prev) {
                arrival[ni] = Some(a);
                pred[ni] = Some(ci as u32);
            }
            dec_for_net(ni, &mut remaining_inputs, &mut ready);
        }
    }

    // --- Endpoints -----------------------------------------------------------
    let period = target_clock.period().value();
    let mut worst = 0.0f64;
    let mut worst_net: Option<usize> = None;
    let mut endpoints = 0usize;
    let mut violations = 0usize;
    // Top-k endpoint table (report_timing style). Labels are formatted
    // only for endpoints that enter it.
    const TOP_K: usize = 8;
    let mut top: Vec<EndpointSlack> = Vec::with_capacity(TOP_K + 1);
    let mut check = |required_extra: f64,
                     ni: usize,
                     endpoint: &dyn Fn() -> String,
                     arrival: &[Option<f64>],
                     worst: &mut f64,
                     worst_net: &mut Option<usize>,
                     endpoints: &mut usize,
                     violations: &mut usize| {
        let a = arrival[ni].unwrap_or(0.0) + required_extra;
        *endpoints += 1;
        if a > *worst {
            *worst = a;
            *worst_net = Some(ni);
        }
        if a > period {
            *violations += 1;
        }
        if top.len() < TOP_K || a > top.last().map_or(0.0, |e| e.arrival_ns) {
            top.push(EndpointSlack {
                endpoint: endpoint(),
                arrival_ns: a,
                slack_ns: period - a,
            });
            top.sort_by(|x, y| {
                y.arrival_ns
                    .partial_cmp(&x.arrival_ns)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            top.truncate(TOP_K);
        }
    };
    for cell in netlist.cells() {
        if cell.kind.is_sequential() {
            let lib = pdk.library(cell.tier)?;
            let setup = lib
                .cell(cell.kind, cell.drive)?
                .setup
                .map_or(0.0, |s| s.value());
            for n in &cell.inputs {
                check(
                    setup,
                    n.0 as usize,
                    &|| format!("{}/D", netlist.name_of(cell.name)),
                    &arrival,
                    &mut worst,
                    &mut worst_net,
                    &mut endpoints,
                    &mut violations,
                );
            }
        }
    }
    for m in netlist.macros() {
        for n in &m.receives {
            check(
                MACRO_SETUP_NS,
                n.0 as usize,
                &|| netlist.name_of(m.name).to_owned(),
                &arrival,
                &mut worst,
                &mut worst_net,
                &mut endpoints,
                &mut violations,
            );
        }
    }
    for n in &netlist.primary_outputs {
        check(
            0.0,
            n.0 as usize,
            &|| format!("PO {}", netlist.name_of(netlist.nets()[n.0 as usize].name)),
            &arrival,
            &mut worst,
            &mut worst_net,
            &mut endpoints,
            &mut violations,
        );
    }

    // --- Critical path reconstruction ----------------------------------------
    let mut critical_cells = Vec::new();
    let mut critical_arrivals = Vec::new();
    let mut cursor = worst_net;
    while let Some(ni) = cursor {
        match pred[ni] {
            Some(ci) => {
                let cell = &netlist.cells()[ci as usize];
                critical_cells.push(netlist.name_of(cell.name).to_owned());
                critical_arrivals.push(arrival[ni].unwrap_or(0.0));
                if cell.kind.is_sequential() || critical_cells.len() >= 64 {
                    break;
                }
                cursor = cell
                    .inputs
                    .iter()
                    .max_by(|a, b| {
                        let aa = arrival[a.0 as usize].unwrap_or(0.0);
                        let ab = arrival[b.0 as usize].unwrap_or(0.0);
                        aa.partial_cmp(&ab).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|n| n.0 as usize);
            }
            None => break,
        }
    }
    // Paths launched directly from a memory macro (e.g. RRAM read →
    // capture register) have no predecessor cell; name the macro.
    if critical_cells.is_empty() {
        if let Some(ni) = worst_net {
            if let Some(m3d_netlist::Driver::Macro { id }) = netlist.nets()[ni].driver {
                critical_cells.push(
                    netlist
                        .name_of(netlist.macros()[id.0 as usize].name)
                        .to_owned(),
                );
                critical_arrivals.push(arrival[ni].unwrap_or(0.0));
            }
        }
    }
    critical_cells.reverse();
    critical_arrivals.reverse();

    let critical = Nanoseconds::new(worst.max(1e-3));
    Ok(TimingReport {
        critical_path: critical,
        achieved_clock: critical.as_frequency(),
        target_clock,
        worst_slack: Nanoseconds::new(period - worst),
        violations,
        endpoints,
        critical_cells,
        critical_arrivals,
        worst_endpoints: top,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use crate::floorplan::Floorplan;
    use crate::place::{place, PlacerConfig};
    use crate::route::{estimate_routing, DEFAULT_DETOUR};
    use m3d_netlist::{accelerator_soc, CsConfig, PeConfig, SocConfig};
    use m3d_tech::Pdk;

    fn analyzed() -> (Netlist, TimingReport) {
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
        let r = estimate_routing(&nl, &p, &pdk, DEFAULT_DETOUR).unwrap();
        let t = analyze_timing(&nl, &r, &pdk, pdk.default_clock).unwrap();
        (nl, t)
    }

    #[test]
    fn arrival_times_are_physical() {
        let (_, t) = analyzed();
        assert!(
            t.critical_path.value() > 1.0,
            "multiplier+adder chains take time"
        );
        assert!(
            t.critical_path.value() < 200.0,
            "path {} suspicious",
            t.critical_path
        );
        assert!(t.endpoints > 100);
        assert!(!t.critical_cells.is_empty());
    }

    #[test]
    fn slack_consistent_with_critical_path() {
        let (_, t) = analyzed();
        let period = t.target_clock.period().value();
        assert!((t.worst_slack.value() - (period - t.critical_path.value())).abs() < 1e-9);
        if t.worst_slack.value() >= 0.0 {
            assert!(t.timing_met());
        } else {
            assert!(!t.timing_met());
        }
    }

    #[test]
    fn achieved_clock_matches_critical_path() {
        let (_, t) = analyzed();
        let f = 1.0e3 / t.critical_path.value();
        assert!((t.achieved_clock.value() - f).abs() < 1e-9);
    }

    #[test]
    fn twenty_megahertz_closes_on_the_relaxed_target() {
        // The paper relaxes the target to 20 MHz for the 130 nm node; the
        // datapath must close comfortably.
        let (_, t) = analyzed();
        assert!(
            t.timing_met(),
            "critical path {} vs period {}",
            t.critical_path,
            t.target_clock.period()
        );
    }

    #[test]
    fn worst_endpoint_table_is_sorted_and_consistent() {
        let (_, t) = analyzed();
        assert!(!t.worst_endpoints.is_empty());
        assert!(t.worst_endpoints.len() <= 8);
        for w in t.worst_endpoints.windows(2) {
            assert!(w[0].arrival_ns >= w[1].arrival_ns, "table not sorted");
        }
        let head = &t.worst_endpoints[0];
        assert!((head.arrival_ns - t.critical_path.value()).abs() < 1e-9);
        let period = t.target_clock.period().value();
        assert!((head.slack_ns - (period - head.arrival_ns)).abs() < 1e-9);
        assert!(!head.endpoint.is_empty());
    }

    #[test]
    fn critical_path_ends_in_real_cells() {
        let (nl, t) = analyzed();
        for name in &t.critical_cells {
            assert!(
                nl.cells().iter().any(|c| nl.name_of(c.name) == name)
                    || nl.macros().iter().any(|m| nl.name_of(m.name) == name),
                "unknown instance {name} on critical path"
            );
        }
        assert_eq!(t.critical_cells.len(), t.critical_arrivals.len());
    }
}
