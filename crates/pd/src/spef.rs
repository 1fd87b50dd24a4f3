//! SPEF-style parasitics export: the per-net RC annotation file a
//! sign-off tool would consume after routing.
//!
//! Each net is written as a lumped π-model (total capacitance, total
//! resistance) with its driver and sink pins — the level of detail the
//! Elmore STA in this crate actually uses.

use std::fmt::Write as _;

use m3d_netlist::{Driver, Netlist, Sink};

use crate::route::RoutingEstimate;

/// Emits a SPEF-like parasitics annotation for the routed design.
///
/// # Panics
///
/// Panics when `routing` does not match `netlist`.
pub fn to_spef(netlist: &Netlist, routing: &RoutingEstimate, design: &str) -> String {
    assert_eq!(routing.nets.len(), netlist.net_count());
    let mut out = String::new();
    let _ = writeln!(out, "*SPEF \"IEEE 1481-1998-like\"");
    let _ = writeln!(out, "*DESIGN \"{design}\"");
    let _ = writeln!(out, "*T_UNIT 1 NS");
    let _ = writeln!(out, "*C_UNIT 1 FF");
    let _ = writeln!(out, "*R_UNIT 1 KOHM");
    let _ = writeln!(out, "*L_UNIT 1 UM");
    let _ = writeln!(out);

    for (ni, net) in netlist.nets().iter().enumerate() {
        let rn = &routing.nets[ni];
        if net.sinks.is_empty() && net.driver.is_none() {
            continue;
        }
        let total_cap = rn.total_cap().value();
        let _ = writeln!(out, "*D_NET n{ni} {total_cap:.4}");
        let _ = writeln!(out, "*CONN");
        match net.driver {
            Some(Driver::Cell { cell, pin }) => {
                let _ = writeln!(
                    out,
                    "*I {}:{pin} O",
                    netlist.name_of(netlist.cells()[cell.0 as usize].name)
                );
            }
            Some(Driver::Macro { id }) => {
                let _ = writeln!(
                    out,
                    "*I {}:Q O",
                    netlist.name_of(netlist.macros()[id.0 as usize].name)
                );
            }
            Some(Driver::PrimaryInput) => {
                let _ = writeln!(out, "*P n{ni} I");
            }
            None => {}
        }
        for s in &net.sinks {
            match *s {
                Sink::Cell { cell, pin } => {
                    let _ = writeln!(
                        out,
                        "*I {}:{pin} I",
                        netlist.name_of(netlist.cells()[cell.0 as usize].name)
                    );
                }
                Sink::Macro { id } => {
                    let _ = writeln!(
                        out,
                        "*I {}:D I",
                        netlist.name_of(netlist.macros()[id.0 as usize].name)
                    );
                }
                Sink::PrimaryOutput => {
                    let _ = writeln!(out, "*P n{ni} O");
                }
            }
        }
        let _ = writeln!(out, "*CAP");
        let _ = writeln!(out, "1 n{ni} {:.4}", rn.wire_cap.value());
        let _ = writeln!(out, "*RES");
        let _ = writeln!(out, "1 n{ni} {:.4}", rn.wire_res.value());
        let _ = writeln!(out, "*END");
        let _ = writeln!(out);
    }
    out
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

    fn routed() -> (Netlist, RoutingEstimate) {
        let cfg = SocConfig {
            cs: CsConfig {
                rows: 2,
                cols: 2,
                pe: PeConfig::default(),
                global_buffer_kb: 16,
                local_buffer_kb: 4,
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
        (nl, r)
    }

    #[test]
    fn spef_has_one_block_per_net() {
        let (nl, r) = routed();
        let spef = to_spef(&nl, &r, "soc");
        assert!(spef.starts_with("*SPEF"));
        assert!(spef.contains("*DESIGN \"soc\""));
        assert_eq!(spef.matches("*D_NET").count(), nl.net_count());
        assert_eq!(spef.matches("*END").count(), nl.net_count());
    }

    #[test]
    fn parasitics_match_the_routing_estimate() {
        let (nl, r) = routed();
        let spef = to_spef(&nl, &r, "soc");
        // Spot-check net 0's cap annotation.
        let line = spef.lines().find(|l| l.starts_with("*D_NET n0 ")).unwrap();
        let cap: f64 = line.split_whitespace().nth(2).unwrap().parse().unwrap();
        assert!((cap - r.nets[0].total_cap().value()).abs() < 1e-3);
    }

    #[test]
    fn driver_and_sink_directions_are_marked() {
        let (nl, r) = routed();
        let spef = to_spef(&nl, &r, "soc");
        assert!(spef.contains(" O\n"), "driver pins marked O");
        assert!(spef.contains(" I\n"), "sink pins marked I");
        assert!(spef.contains("rram/mem:Q O"), "macro driver present");
    }
}
