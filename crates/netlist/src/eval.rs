//! Two-valued functional simulation of gate-level netlists.
//!
//! The generators in [`crate::gen`] claim to be *correctly wired*
//! structures; this module proves it: a [`Simulator`] evaluates the
//! combinational logic in topological order and steps flip-flop state on
//! clock edges, so tests can check that the ripple-carry adder really
//! adds, the array multiplier really multiplies and the MAC PE really
//! multiplies-and-accumulates.
//!
//! # Examples
//!
//! ```
//! use m3d_netlist::{Netlist, Simulator};
//! use m3d_netlist::gen::ripple_carry_adder;
//! use m3d_tech::Tier;
//!
//! # fn main() -> Result<(), m3d_netlist::NetlistError> {
//! let mut nl = Netlist::new("adder");
//! let a: Vec<_> = (0..8).map(|i| nl.add_net(format!("a{i}"))).collect();
//! let b: Vec<_> = (0..8).map(|i| nl.add_net(format!("b{i}"))).collect();
//! for &n in a.iter().chain(&b) { nl.set_primary_input(n)?; }
//! let out = ripple_carry_adder(&mut nl, "add", Tier::SiCmos, &a, &b, None)?;
//!
//! let mut sim = Simulator::new(&nl)?;
//! sim.set_bus(&a, 25);
//! sim.set_bus(&b, 17);
//! sim.eval();
//! assert_eq!(sim.bus_value(&out.sum), 42 & 0xff);
//! # Ok(())
//! # }
//! ```

use m3d_tech::stdcell::CellKind;

use crate::error::{NetlistError, NetlistResult};
use crate::netlist::{CellId, Driver, NetId, Netlist, Sink};

/// A two-valued event-free simulator over a netlist.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    /// Current logic value of every net.
    values: Vec<bool>,
    /// Flip-flop state (indexed like cells; only sequential entries
    /// used).
    state: Vec<bool>,
    /// Combinational cells in topological order.
    order: Vec<CellId>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator, computing the topological evaluation order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidParameter`] when the combinational
    /// logic contains a cycle (which the generators never produce).
    pub fn new(netlist: &'a Netlist) -> NetlistResult<Self> {
        let ncells = netlist.cell_count();
        let mut remaining: Vec<u32> = netlist
            .cells()
            .iter()
            .map(|c| {
                if c.kind.is_sequential() {
                    0
                } else {
                    c.inputs.len() as u32
                }
            })
            .collect();

        // Nets resolved before any combinational evaluation: primary
        // inputs, macro outputs and flip-flop outputs.
        let mut ready: Vec<u32> = Vec::new();
        let mut resolved = vec![false; netlist.net_count()];
        for (ni, net) in netlist.nets().iter().enumerate() {
            if matches!(
                net.driver,
                Some(Driver::PrimaryInput | Driver::Macro { .. })
            ) {
                resolved[ni] = true;
            }
        }
        for (ci, c) in netlist.cells().iter().enumerate() {
            if c.kind.is_sequential() {
                for out in &c.outputs {
                    resolved[out.0 as usize] = true;
                }
                let _ = ci;
            }
        }
        let mut order = Vec::with_capacity(ncells);
        let dec = |ni: usize, remaining: &mut Vec<u32>, ready: &mut Vec<u32>| {
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
        for (ni, &r) in resolved.iter().enumerate() {
            if r {
                dec(ni, &mut remaining, &mut ready);
            }
        }
        let mut processed = vec![false; ncells];
        while let Some(ci) = ready.pop() {
            if processed[ci as usize] {
                continue;
            }
            processed[ci as usize] = true;
            order.push(CellId(ci));
            for out in &netlist.cells()[ci as usize].outputs {
                dec(out.0 as usize, &mut remaining, &mut ready);
            }
        }
        let comb_count = netlist
            .cells()
            .iter()
            .filter(|c| !c.kind.is_sequential())
            .count();
        if order.len() != comb_count {
            return Err(NetlistError::InvalidParameter {
                parameter: "netlist",
                value: (comb_count - order.len()) as f64,
                expected: "an acyclic combinational graph",
            });
        }
        Ok(Self {
            netlist,
            values: vec![false; netlist.net_count()],
            state: vec![false; ncells],
            order,
        })
    }

    /// Sets the value of an externally driven net (primary input or
    /// macro output).
    ///
    /// # Panics
    ///
    /// Panics when the net is driven by a cell (its value is computed,
    /// not set).
    pub fn set_input(&mut self, net: NetId, value: bool) {
        let d = self.netlist.nets()[net.0 as usize].driver;
        assert!(
            matches!(d, Some(Driver::PrimaryInput | Driver::Macro { .. })),
            "net is not externally driven"
        );
        self.values[net.0 as usize] = value;
    }

    /// Sets a little-endian bus from the low bits of `value`.
    pub fn set_bus(&mut self, bus: &[NetId], value: u64) {
        for (i, &n) in bus.iter().enumerate() {
            self.set_input(n, (value >> i) & 1 == 1);
        }
    }

    /// Current value of a net (valid after [`Simulator::eval`]).
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.0 as usize]
    }

    /// Reads a little-endian bus as an integer.
    pub fn bus_value(&self, bus: &[NetId]) -> u64 {
        bus.iter()
            .enumerate()
            .map(|(i, &n)| u64::from(self.value(n)) << i)
            .sum()
    }

    fn cell_outputs(&self, ci: CellId) -> (bool, Option<bool>) {
        let c = &self.netlist.cells()[ci.0 as usize];
        let v = |pin: usize| self.values[c.inputs[pin].0 as usize];
        match c.kind {
            CellKind::Inv => (!v(0), None),
            CellKind::Buf => (v(0), None),
            CellKind::Nand2 => (!(v(0) && v(1)), None),
            CellKind::Nor2 => (!(v(0) || v(1)), None),
            CellKind::And2 => (v(0) && v(1), None),
            CellKind::Or2 => (v(0) || v(1), None),
            CellKind::Xor2 => (v(0) ^ v(1), None),
            // AOI21: y = !((a & b) | c).
            CellKind::Aoi21 => (!((v(0) && v(1)) || v(2)), None),
            // MUX2 pin order (a, b, sel): y = sel ? b : a.
            CellKind::Mux2 => (if v(2) { v(1) } else { v(0) }, None),
            // HA: (sum, carry).
            CellKind::HalfAdder => (v(0) ^ v(1), Some(v(0) && v(1))),
            // FA: (sum, carry).
            CellKind::FullAdder => {
                let (a, b, cin) = (v(0), v(1), v(2));
                (a ^ b ^ cin, Some((a && b) || (cin && (a ^ b))))
            }
            CellKind::Dff => (self.state[ci.0 as usize], None),
            // `CellKind` is non-exhaustive; new kinds need explicit
            // simulation semantics.
            other => unreachable!("no simulation semantics for {other:?}"),
        }
    }

    /// Propagates all combinational logic from the current inputs and
    /// flip-flop state.
    pub fn eval(&mut self) {
        // Flip-flop outputs reflect their state.
        for (ci, c) in self.netlist.cells().iter().enumerate() {
            if c.kind.is_sequential() {
                self.values[c.outputs[0].0 as usize] = self.state[ci];
            }
        }
        for idx in 0..self.order.len() {
            let ci = self.order[idx];
            let (o0, o1) = self.cell_outputs(ci);
            let c = &self.netlist.cells()[ci.0 as usize];
            self.values[c.outputs[0].0 as usize] = o0;
            if let (Some(v), Some(out)) = (o1, c.outputs.get(1)) {
                self.values[out.0 as usize] = v;
            }
        }
    }

    /// One clock edge: captures every flip-flop's D input into its
    /// state, then re-evaluates the combinational logic.
    pub fn step_clock(&mut self) {
        // Capture first (all flops see pre-edge values)…
        let captures: Vec<(usize, bool)> = self
            .netlist
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(ci, c)| (ci, self.values[c.inputs[0].0 as usize]))
            .collect();
        for (ci, v) in captures {
            self.state[ci] = v;
        }
        // …then propagate the new state.
        self.eval();
    }

    /// Resets all flip-flop state and net values to 0.
    pub fn reset(&mut self) {
        self.values.iter_mut().for_each(|v| *v = false);
        self.state.iter_mut().for_each(|v| *v = false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{array_multiplier, counter, register, ripple_carry_adder};
    use m3d_tech::Tier;

    fn inputs(nl: &mut Netlist, prefix: &str, w: usize) -> Vec<NetId> {
        (0..w)
            .map(|i| {
                let n = nl.add_net(format!("{prefix}{i}"));
                nl.set_primary_input(n).unwrap();
                n
            })
            .collect()
    }

    #[test]
    fn adder_adds() {
        let mut nl = Netlist::new("t");
        let a = inputs(&mut nl, "a", 8);
        let b = inputs(&mut nl, "b", 8);
        let out = ripple_carry_adder(&mut nl, "add", Tier::SiCmos, &a, &b, None).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        for (x, y) in [(0u64, 0u64), (1, 1), (200, 100), (255, 255), (170, 85)] {
            sim.set_bus(&a, x);
            sim.set_bus(&b, y);
            sim.eval();
            let sum = sim.bus_value(&out.sum) | (u64::from(sim.value(out.cout)) << 8);
            assert_eq!(sum, x + y, "{x} + {y}");
        }
    }

    #[test]
    fn adder_with_carry_in() {
        let mut nl = Netlist::new("t");
        let a = inputs(&mut nl, "a", 4);
        let b = inputs(&mut nl, "b", 4);
        let cin = inputs(&mut nl, "c", 1)[0];
        let out = ripple_carry_adder(&mut nl, "add", Tier::SiCmos, &a, &b, Some(cin)).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_bus(&a, 7);
        sim.set_bus(&b, 8);
        sim.set_input(cin, true);
        sim.eval();
        assert_eq!(sim.bus_value(&out.sum), 0, "7+8+1 = 16 → sum 0 carry 1");
        assert!(sim.value(out.cout));
    }

    #[test]
    fn multiplier_multiplies() {
        let mut nl = Netlist::new("t");
        let a = inputs(&mut nl, "a", 8);
        let b = inputs(&mut nl, "b", 8);
        let p = array_multiplier(&mut nl, "mul", Tier::SiCmos, &a, &b).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        for (x, y) in [
            (0u64, 7u64),
            (1, 255),
            (12, 12),
            (255, 255),
            (13, 17),
            (99, 201),
        ] {
            sim.set_bus(&a, x);
            sim.set_bus(&b, y);
            sim.eval();
            assert_eq!(sim.bus_value(&p), x * y, "{x} × {y}");
        }
    }

    #[test]
    fn register_captures_on_clock() {
        let mut nl = Netlist::new("t");
        let d = inputs(&mut nl, "d", 8);
        let q = register(&mut nl, "r", Tier::SiCmos, &d).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_bus(&d, 0xA5);
        sim.eval();
        assert_eq!(sim.bus_value(&q), 0, "before the edge, Q holds reset state");
        sim.step_clock();
        assert_eq!(sim.bus_value(&q), 0xA5);
        sim.set_bus(&d, 0x3C);
        sim.eval();
        assert_eq!(sim.bus_value(&q), 0xA5, "Q holds until the next edge");
        sim.step_clock();
        assert_eq!(sim.bus_value(&q), 0x3C);
    }

    #[test]
    fn counter_counts() {
        let mut nl = Netlist::new("t");
        let q = counter(&mut nl, "cnt", Tier::SiCmos, 6).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.eval();
        for expect in 1..=70u64 {
            sim.step_clock();
            assert_eq!(sim.bus_value(&q), expect % 64, "after {expect} edges");
        }
    }

    #[test]
    fn mac_pe_multiplies_and_accumulates() {
        use crate::gen::{mac_pe, PeConfig};
        let mut nl = Netlist::new("t");
        let act = inputs(&mut nl, "a", 8);
        let w = inputs(&mut nl, "w", 8);
        let ps = inputs(&mut nl, "p", 24);
        let out = mac_pe(
            &mut nl,
            "pe",
            Tier::SiCmos,
            PeConfig::default(),
            &act,
            &w,
            &ps,
        )
        .unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_bus(&act, 9);
        sim.set_bus(&w, 11);
        sim.set_bus(&ps, 1000);
        sim.eval();
        // Edge 1: weight/activation registers capture; edge 2: the psum
        // register captures psum_in + act×weight.
        sim.step_clock();
        sim.step_clock();
        assert_eq!(sim.bus_value(&out.psum_out), 1000 + 9 * 11);
        assert_eq!(sim.bus_value(&out.act_out), 9, "activation forwards right");
    }

    #[test]
    fn cyclic_combinational_logic_is_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_cell(
            "u1",
            CellKind::Inv,
            m3d_tech::stdcell::DriveStrength::X1,
            Tier::SiCmos,
            &[a],
            &[b],
        )
        .unwrap();
        nl.add_cell(
            "u2",
            CellKind::Inv,
            m3d_tech::stdcell::DriveStrength::X1,
            Tier::SiCmos,
            &[b],
            &[a],
        )
        .unwrap();
        assert!(Simulator::new(&nl).is_err());
    }
}
