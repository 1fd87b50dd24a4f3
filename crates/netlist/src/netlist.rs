//! The gate-level netlist data model.
//!
//! A [`Netlist`] is a flat graph of standard-cell instances, hard-macro
//! instances and nets. Hierarchy is encoded in instance names with `/`
//! separators (`"cs0/pe_3_4/mult/fa12"`), which the physical-design crate
//! uses for hierarchical clustering. Each net records its single driver
//! and its sink pins, which is exactly what placement, routing estimation
//! and static timing analysis need.
//!
//! The model is plain data: every instance and net name lives in one
//! name buffer owned by the netlist (a [`Name`] is a handle into it,
//! rendered by [`Netlist::name_of`]), cell pins are inline [`Pins`] and
//! a net keeps up to two sinks inline ([`Sinks`]). A paper-size SoC of
//! ~400k cells and ~570k nets then holds one heap block per net with more
//! than two sinks (~36k) instead of one per name and per sink list.

use std::fmt;

use serde::{Deserialize, Serialize};

use m3d_tech::stdcell::{CellKind, DriveStrength};
use m3d_tech::{RramMacro, SramMacro, Tier};

use crate::error::{NetlistError, NetlistResult};

/// Identifier of a cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

/// Identifier of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

/// Identifier of a macro instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MacroId(pub u32);

/// An instance or net name: a handle into its netlist's name buffer,
/// rendered by [`Netlist::name_of`]. Handles of different netlists are
/// unrelated, so names compare by their rendered text only.
#[derive(Debug, Clone, Copy)]
pub struct Name(u32);

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Driver {
    /// Driven by output pin `pin` of a cell instance.
    Cell {
        /// Driving instance.
        cell: CellId,
        /// Output pin index on that instance.
        pin: u8,
    },
    /// Driven by a macro's read port.
    Macro {
        /// Driving macro.
        id: MacroId,
    },
    /// Driven from outside the netlist (primary input).
    PrimaryInput,
}

/// A sink pin on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sink {
    /// Input pin `pin` of a cell instance.
    Cell {
        /// Receiving instance.
        cell: CellId,
        /// Input pin index on that instance.
        pin: u8,
    },
    /// A macro input port.
    Macro {
        /// Receiving macro.
        id: MacroId,
    },
    /// Leaves the netlist (primary output).
    PrimaryOutput,
}

/// Up to `N` pin nets stored inline, in pin order; dereferences to
/// `[NetId]`. Every library cell has at most [`MAX_INPUTS`] inputs and
/// [`MAX_OUTPUTS`] outputs, so a cell's pin lists need no heap block of
/// their own (a flow builds and drops hundreds of thousands of cells).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Pins<const N: usize> {
    len: u8,
    // Slots at and past `len` stay `NetId(0)`, so the derived equality
    // compares exactly the connected pins.
    nets: [NetId; N],
}

/// Most input pins of any library cell (AOI21, MUX2, FA).
pub const MAX_INPUTS: usize = 3;

/// Most output pins of any library cell (HA, FA).
pub const MAX_OUTPUTS: usize = 2;

impl<const N: usize> Pins<N> {
    /// Copies `nets` inline; `None` when there are more than `N`.
    pub fn new(nets: &[NetId]) -> Option<Self> {
        let mut pins = Self {
            len: u8::try_from(nets.len()).ok()?,
            nets: [NetId(0); N],
        };
        pins.nets.get_mut(..nets.len())?.copy_from_slice(nets);
        Some(pins)
    }
}

impl<const N: usize> std::ops::Deref for Pins<N> {
    type Target = [NetId];

    fn deref(&self) -> &[NetId] {
        &self.nets[..usize::from(self.len)]
    }
}

impl<const N: usize> std::ops::DerefMut for Pins<N> {
    fn deref_mut(&mut self) -> &mut [NetId] {
        &mut self.nets[..usize::from(self.len)]
    }
}

impl<'a, const N: usize> IntoIterator for &'a Pins<N> {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<const N: usize> fmt::Debug for Pins<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Sinks a net holds without a heap block of its own. Most nets of a
/// generated design (94 % of the paper-size SoC's) have at most two.
const INLINE_SINKS: usize = 2;

/// The sink pins of one net, in the order they were connected;
/// dereferences to `[Sink]`. Up to two sinks are stored inline, more
/// spill to a heap vector. Equality compares the sink slices, whichever
/// form holds them.
#[derive(Clone)]
pub struct Sinks(SinkStore);

#[derive(Clone)]
enum SinkStore {
    // Slots at and past `len` are unused filler.
    Inline {
        len: u8,
        sinks: [Sink; INLINE_SINKS],
    },
    Heap(Vec<Sink>),
}

impl Default for Sinks {
    fn default() -> Self {
        Sinks(SinkStore::Inline {
            len: 0,
            sinks: [Sink::PrimaryOutput; INLINE_SINKS],
        })
    }
}

impl Sinks {
    /// Appends one sink; a third spills the list to the heap.
    pub fn push(&mut self, sink: Sink) {
        match &mut self.0 {
            SinkStore::Inline { len, sinks } if usize::from(*len) < INLINE_SINKS => {
                sinks[usize::from(*len)] = sink;
                *len += 1;
            }
            SinkStore::Inline { sinks, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_SINKS);
                spilled.extend_from_slice(sinks);
                spilled.push(sink);
                self.0 = SinkStore::Heap(spilled);
            }
            SinkStore::Heap(sinks) => sinks.push(sink),
        }
    }

    /// A copy with every sink passed through `f`, in the same form: a
    /// spilled list is copied into one block of its exact length.
    fn map(&self, f: impl Fn(Sink) -> Sink) -> Sinks {
        Sinks(match &self.0 {
            SinkStore::Inline { len, sinks } => SinkStore::Inline {
                len: *len,
                sinks: sinks.map(f),
            },
            SinkStore::Heap(sinks) => SinkStore::Heap(sinks.iter().map(|&s| f(s)).collect()),
        })
    }
}

impl Extend<Sink> for Sinks {
    fn extend<I: IntoIterator<Item = Sink>>(&mut self, iter: I) {
        for sink in iter {
            self.push(sink);
        }
    }
}

impl std::ops::Deref for Sinks {
    type Target = [Sink];

    fn deref(&self) -> &[Sink] {
        match &self.0 {
            SinkStore::Inline { len, sinks } => &sinks[..usize::from(*len)],
            SinkStore::Heap(sinks) => sinks,
        }
    }
}

impl<'a> IntoIterator for &'a Sinks {
    type Item = &'a Sink;
    type IntoIter = std::slice::Iter<'a, Sink>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Sinks {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Sinks {}

impl fmt::Debug for Sinks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One standard-cell instance.
#[derive(Debug, Clone)]
pub struct CellInst {
    /// Hierarchical instance name (`/`-separated).
    pub name: Name,
    /// Logical function.
    pub kind: CellKind,
    /// Drive strength.
    pub drive: DriveStrength,
    /// Device tier the instance is bound to.
    pub tier: Tier,
    /// Nets connected to input pins, in pin order.
    pub inputs: Pins<MAX_INPUTS>,
    /// Nets connected to output pins, in pin order.
    pub outputs: Pins<MAX_OUTPUTS>,
}

/// The kind of hard macro instantiated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MacroKind {
    /// Banked RRAM memory.
    Rram(RramMacro),
    /// SRAM buffer.
    Sram(SramMacro),
    /// An unmapped external cell kept as an opaque block. Ingested
    /// designs may instantiate cells outside the PDK library; they
    /// occupy floorplan area but contribute no modelled power.
    BlackBox {
        /// Model name as it appeared in the source.
        model: String,
        /// Assumed placement footprint.
        area: m3d_tech::units::SquareMicrons,
    },
}

impl MacroKind {
    /// The black-box model name the Verilog writer emits and both
    /// netlist parsers map back (`RRAM_<mb>MB_<banks>B`, `SRAM_<kb>KB`,
    /// or an external model's own name).
    pub fn model_name(&self) -> String {
        match self {
            MacroKind::Rram(r) => {
                format!("RRAM_{}MB_{}B", r.capacity_bits / 8 / 1024 / 1024, r.banks)
            }
            MacroKind::Sram(s) => format!("SRAM_{}KB", s.capacity_bits / 8 / 1024),
            MacroKind::BlackBox { model, .. } => model.clone(),
        }
    }
}

/// One hard-macro instance.
#[derive(Debug, Clone)]
pub struct MacroInst {
    /// Hierarchical instance name.
    pub name: Name,
    /// What macro this is.
    pub kind: MacroKind,
    /// Nets the macro drives (its read-data port bits, represented as a
    /// bundle on one net per port).
    pub drives: Vec<NetId>,
    /// Nets the macro receives (address/write-data bundles).
    pub receives: Vec<NetId>,
}

/// One net with its connectivity.
#[derive(Debug, Clone)]
pub struct Net {
    /// Net name.
    pub name: Name,
    /// The single driver, if connected yet.
    pub driver: Option<Driver>,
    /// All sink pins.
    pub sinks: Sinks,
}

impl Net {
    /// Number of sink pins (fanout).
    pub fn fanout(&self) -> usize {
        self.sinks.len()
    }
}

/// A flat gate-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    cells: Vec<CellInst>,
    macros: Vec<MacroInst>,
    nets: Vec<Net>,
    /// Every instance and net name, back to back.
    names: String,
    /// End offset in `names` of each [`Name`], by handle.
    name_ends: Vec<u32>,
    /// Primary input nets.
    pub primary_inputs: Vec<NetId>,
    /// Primary output nets.
    pub primary_outputs: Vec<NetId>,
    /// The clock net, if the design is sequential.
    pub clock: Option<NetId>,
}

impl m3d_tech::StableHash for Netlist {
    /// Content key of the flattened design. Connectivity is hashed
    /// through *net names* rather than raw [`NetId`]s, so two netlists
    /// that differ only in net numbering — e.g. a design and its
    /// export → re-import round trip, where ports are recreated before
    /// internal wires — key identically. Cell, macro and port order is
    /// significant; macros hash their black-box model name (the
    /// representation both parsers reconstruct), not their full
    /// technology parameters.
    fn stable_hash(&self, h: &mut m3d_tech::StableHasher) {
        let net_name = |id: &NetId| self.name_of(self.nets[id.0 as usize].name);
        h.write_str(&self.name);
        h.write_u64(self.cells.len() as u64);
        for c in &self.cells {
            h.write_str(self.name_of(c.name));
            h.write_str(c.kind.base_name());
            h.write_str(c.drive.suffix());
            c.tier.stable_hash(h);
            h.write_u64(c.inputs.len() as u64);
            for n in &c.inputs {
                h.write_str(net_name(n));
            }
            h.write_u64(c.outputs.len() as u64);
            for n in &c.outputs {
                h.write_str(net_name(n));
            }
        }
        h.write_u64(self.macros.len() as u64);
        for m in &self.macros {
            h.write_str(self.name_of(m.name));
            h.write_str(&m.kind.model_name());
            if let MacroKind::BlackBox { area, .. } = &m.kind {
                h.write_f64(area.value());
            }
            h.write_u64(m.drives.len() as u64);
            for n in &m.drives {
                h.write_str(net_name(n));
            }
            h.write_u64(m.receives.len() as u64);
            for n in &m.receives {
                h.write_str(net_name(n));
            }
        }
        h.write_u64(self.primary_inputs.len() as u64);
        for n in &self.primary_inputs {
            h.write_str(net_name(n));
        }
        h.write_u64(self.primary_outputs.len() as u64);
        for n in &self.primary_outputs {
            h.write_str(net_name(n));
        }
        match &self.clock {
            None => h.write_u8(0),
            Some(id) => {
                h.write_u8(1);
                h.write_str(net_name(id));
            }
        }
        let mut names: Vec<&str> = self.nets.iter().map(|n| self.name_of(n.name)).collect();
        names.sort_unstable();
        h.write_u64(names.len() as u64);
        for name in names {
            h.write_str(name);
        }
    }
}

/// Structural equality with names compared as text: two netlists that
/// wrote their names into the buffer in different orders are equal when
/// every cell, macro and net carries the same rendered name, kind and
/// connectivity (sink order included) and the ports match.
impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        let same_name = |a: Name, b: Name| self.name_of(a) == other.name_of(b);
        self.name == other.name
            && self.primary_inputs == other.primary_inputs
            && self.primary_outputs == other.primary_outputs
            && self.clock == other.clock
            && self.cells.len() == other.cells.len()
            && self.macros.len() == other.macros.len()
            && self.nets.len() == other.nets.len()
            && self.cells.iter().zip(&other.cells).all(|(a, b)| {
                same_name(a.name, b.name)
                    && (a.kind, a.drive, a.tier, a.inputs, a.outputs)
                        == (b.kind, b.drive, b.tier, b.inputs, b.outputs)
            })
            && self.macros.iter().zip(&other.macros).all(|(a, b)| {
                same_name(a.name, b.name)
                    && a.kind == b.kind
                    && a.drives == b.drives
                    && a.receives == b.receives
            })
            && self.nets.iter().zip(&other.nets).all(|(a, b)| {
                same_name(a.name, b.name) && a.driver == b.driver && a.sinks == b.sinks
            })
    }
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The text of an instance or net name of this netlist.
    ///
    /// # Panics
    ///
    /// `name` must come from this netlist: another netlist's handle
    /// renders an unrelated name of this one, or panics past its last.
    pub fn name_of(&self, name: Name) -> &str {
        let i = name.0 as usize;
        let start = match i.checked_sub(1) {
            Some(prev) => self.name_ends[prev] as usize,
            None => 0,
        };
        &self.names[start..self.name_ends[i] as usize]
    }

    /// Writes `name` into the name buffer and returns its handle.
    fn intern(&mut self, name: impl fmt::Display) -> Name {
        use fmt::Write as _;
        write!(self.names, "{name}").expect("a Display implementation returned an error");
        self.end_name()
    }

    /// Writes `prefix` followed by `rest` into the name buffer.
    fn intern_prefixed(&mut self, prefix: &str, rest: &str) -> Name {
        self.names.push_str(prefix);
        self.names.push_str(rest);
        self.end_name()
    }

    /// Closes the name written since the previous one.
    fn end_name(&mut self) -> Name {
        let handle = u32::try_from(self.name_ends.len()).expect("fewer than 2^32 names");
        let end = u32::try_from(self.names.len()).expect("name buffer under 4 GiB");
        self.name_ends.push(end);
        Name(handle)
    }

    /// All cell instances.
    pub fn cells(&self) -> &[CellInst] {
        &self.cells
    }

    /// All macro instances.
    pub fn macros(&self) -> &[MacroInst] {
        &self.macros
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Looks up a cell instance.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidId`] for out-of-range ids.
    pub fn cell(&self, id: CellId) -> NetlistResult<&CellInst> {
        self.cells
            .get(id.0 as usize)
            .ok_or(NetlistError::InvalidId {
                kind: "cell",
                index: id.0 as usize,
            })
    }

    /// Mutable cell lookup.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidId`] for out-of-range ids.
    pub fn cell_mut(&mut self, id: CellId) -> NetlistResult<&mut CellInst> {
        self.cells
            .get_mut(id.0 as usize)
            .ok_or(NetlistError::InvalidId {
                kind: "cell",
                index: id.0 as usize,
            })
    }

    /// Looks up a net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidId`] for out-of-range ids.
    pub fn net(&self, id: NetId) -> NetlistResult<&Net> {
        self.nets.get(id.0 as usize).ok_or(NetlistError::InvalidId {
            kind: "net",
            index: id.0 as usize,
        })
    }

    /// Creates a fresh unconnected net. `name` is written straight into
    /// the name buffer, so generators pass `format_args!`.
    pub fn add_net(&mut self, name: impl fmt::Display) -> NetId {
        let id = NetId(self.nets.len() as u32);
        let name = self.intern(name);
        self.nets.push(Net {
            name,
            driver: None,
            sinks: Sinks::default(),
        });
        id
    }

    /// Marks a net as a primary input (its driver comes from outside).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] when the net is already
    /// driven, or [`NetlistError::InvalidId`] for an unknown net.
    pub fn set_primary_input(&mut self, net: NetId) -> NetlistResult<()> {
        let n = self
            .nets
            .get_mut(net.0 as usize)
            .ok_or(NetlistError::InvalidId {
                kind: "net",
                index: net.0 as usize,
            })?;
        if n.driver.is_some() {
            let net = n.name;
            return Err(NetlistError::MultipleDrivers {
                net: self.name_of(net).to_owned(),
            });
        }
        n.driver = Some(Driver::PrimaryInput);
        self.primary_inputs.push(net);
        Ok(())
    }

    /// Marks a net as a primary output.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidId`] for an unknown net.
    pub fn set_primary_output(&mut self, net: NetId) -> NetlistResult<()> {
        let n = self
            .nets
            .get_mut(net.0 as usize)
            .ok_or(NetlistError::InvalidId {
                kind: "net",
                index: net.0 as usize,
            })?;
        n.sinks.push(Sink::PrimaryOutput);
        self.primary_outputs.push(net);
        Ok(())
    }

    /// Adds a cell instance connected to the given input and output nets
    /// (in pin order), wiring drivers and sinks. A failed call leaves the
    /// netlist, its name buffer included, unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PinCountMismatch`] when the pin counts do
    /// not match `kind`, [`NetlistError::MultipleDrivers`] when an output
    /// net is already driven, or [`NetlistError::InvalidId`] for unknown
    /// nets.
    pub fn add_cell(
        &mut self,
        name: impl fmt::Display,
        kind: CellKind,
        drive: DriveStrength,
        tier: Tier,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> NetlistResult<CellId> {
        let Some(input_pins) = Pins::new(inputs).filter(|_| inputs.len() == kind.input_count())
        else {
            return Err(NetlistError::PinCountMismatch {
                instance: name.to_string(),
                expected: kind.input_count(),
                provided: inputs.len(),
                direction: "input",
            });
        };
        let Some(output_pins) = Pins::new(outputs).filter(|_| outputs.len() == kind.output_count())
        else {
            return Err(NetlistError::PinCountMismatch {
                instance: name.to_string(),
                expected: kind.output_count(),
                provided: outputs.len(),
                direction: "output",
            });
        };
        self.check_connectable(inputs, outputs)?;
        let name = self.intern(name);
        let id = CellId(self.cells.len() as u32);
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.0 as usize].sinks.push(Sink::Cell {
                cell: id,
                pin: pin as u8,
            });
        }
        for (pin, &net) in outputs.iter().enumerate() {
            self.nets[net.0 as usize].driver = Some(Driver::Cell {
                cell: id,
                pin: pin as u8,
            });
        }
        self.cells.push(CellInst {
            name,
            kind,
            drive,
            tier,
            inputs: input_pins,
            outputs: output_pins,
        });
        Ok(id)
    }

    /// Adds a hard-macro instance with driven and received port nets. A
    /// failed call leaves the netlist, its name buffer included, unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] when a driven net is
    /// already driven, or [`NetlistError::InvalidId`] for unknown nets.
    pub fn add_macro(
        &mut self,
        name: impl fmt::Display,
        kind: MacroKind,
        drives: &[NetId],
        receives: &[NetId],
    ) -> NetlistResult<MacroId> {
        self.check_connectable(receives, drives)?;
        let name = self.intern(name);
        let id = MacroId(self.macros.len() as u32);
        for &net in drives {
            self.nets[net.0 as usize].driver = Some(Driver::Macro { id });
        }
        for &net in receives {
            self.nets[net.0 as usize].sinks.push(Sink::Macro { id });
        }
        self.macros.push(MacroInst {
            name,
            kind,
            drives: drives.to_vec(),
            receives: receives.to_vec(),
        });
        Ok(id)
    }

    /// Checks that a new instance may sink `sinks` and drive `drives`:
    /// every id names a net, and no driven net already has a driver (nor
    /// appears twice in `drives`).
    fn check_connectable(&self, sinks: &[NetId], drives: &[NetId]) -> NetlistResult<()> {
        for &net in sinks {
            self.net(net)?;
        }
        for (i, &net) in drives.iter().enumerate() {
            let n = self.net(net)?;
            if n.driver.is_some() || drives[..i].contains(&net) {
                return Err(NetlistError::MultipleDrivers {
                    net: self.name_of(n.name).to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Moves every sink of `from` onto `to`, updating the input-net
    /// references of the affected cells and macros (used by post-route
    /// buffer insertion: driver → buffer → relocated sinks).
    ///
    /// Primary-output sinks move as well; `primary_outputs` entries are
    /// updated accordingly.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidId`] for unknown nets.
    pub fn rewire_sinks(&mut self, from: NetId, to: NetId) -> NetlistResult<()> {
        if from == to {
            return Ok(());
        }
        if from.0 as usize >= self.nets.len() || to.0 as usize >= self.nets.len() {
            let bad = if from.0 as usize >= self.nets.len() {
                from
            } else {
                to
            };
            return Err(NetlistError::InvalidId {
                kind: "net",
                index: bad.0 as usize,
            });
        }
        let sinks = std::mem::take(&mut self.nets[from.0 as usize].sinks);
        for s in &sinks {
            match *s {
                Sink::Cell { cell, pin } => {
                    let c = &mut self.cells[cell.0 as usize];
                    if let Some(slot) = c.inputs.get_mut(pin as usize) {
                        *slot = to;
                    }
                }
                Sink::Macro { id } => {
                    let m = &mut self.macros[id.0 as usize];
                    for slot in &mut m.receives {
                        if *slot == from {
                            *slot = to;
                        }
                    }
                }
                Sink::PrimaryOutput => {
                    for po in &mut self.primary_outputs {
                        if *po == from {
                            *po = to;
                        }
                    }
                }
            }
        }
        self.nets[to.0 as usize].sinks.extend(sinks.iter().copied());
        Ok(())
    }

    /// Re-binds every cell whose hierarchical name starts with `prefix`
    /// to `tier` (used for constraint-driven M3D tier assignment).
    ///
    /// Returns the number of re-bound instances.
    pub fn bind_tier_by_prefix(&mut self, prefix: &str, tier: Tier) -> usize {
        let mut n = 0;
        for i in 0..self.cells.len() {
            if self.name_of(self.cells[i].name).starts_with(prefix) {
                self.cells[i].tier = tier;
                n += 1;
            }
        }
        n
    }

    /// Checks structural invariants: every net is driven and every
    /// non-primary-output net has at least one sink. The clock net is
    /// exempt from the sink check — flip-flops sink it implicitly (the
    /// clock tree is synthesised later, not listed as a logical input).
    /// Returns the names of offending nets (empty = clean).
    pub fn lint(&self) -> Vec<String> {
        let mut issues = Vec::new();
        for (i, net) in self.nets.iter().enumerate() {
            if net.driver.is_none() {
                issues.push(format!("net `{}` is undriven", self.name_of(net.name)));
            }
            if net.sinks.is_empty() && self.clock != Some(NetId(i as u32)) {
                issues.push(format!("net `{}` has no sinks", self.name_of(net.name)));
            }
        }
        issues
    }

    /// Appends a copy of `block`: every id is offset past this netlist's
    /// own and every name is written as `prefix` followed by the block's
    /// name. `block`'s first net stands in for `tie`: it is not copied,
    /// its sinks join `tie`'s (in `block`'s order) and any listing of it
    /// maps to `tie`. Cells, nets, macros, sinks and primary inputs and
    /// outputs keep `block`'s order, so appending a generated block gives
    /// the netlist that generating it in place would. `block`'s clock
    /// designation is not copied.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidId`] when `tie` is not a net of
    /// this netlist; nothing is appended then.
    pub(crate) fn append(
        &mut self,
        block: &Netlist,
        prefix: &str,
        tie: NetId,
    ) -> NetlistResult<NetMap> {
        self.net(tie)?;
        let map = NetMap {
            tie,
            offset: self.nets.len() as u32,
        };
        let cell_off = self.cells.len() as u32;
        let macro_off = self.macros.len() as u32;
        let cell_id = |c: CellId| CellId(c.0 + cell_off);
        let macro_id = |m: MacroId| MacroId(m.0 + macro_off);
        let sink = |s: Sink| match s {
            Sink::Cell { cell, pin } => Sink::Cell {
                cell: cell_id(cell),
                pin,
            },
            Sink::Macro { id } => Sink::Macro { id: macro_id(id) },
            Sink::PrimaryOutput => Sink::PrimaryOutput,
        };
        let driver = |d: Driver| match d {
            Driver::Cell { cell, pin } => Driver::Cell {
                cell: cell_id(cell),
                pin,
            },
            Driver::Macro { id } => Driver::Macro { id: macro_id(id) },
            Driver::PrimaryInput => Driver::PrimaryInput,
        };
        if let Some(stand_in) = block.nets.first() {
            let tied = &mut self.nets[tie.0 as usize].sinks;
            tied.extend(stand_in.sinks.iter().copied().map(sink));
        }
        for net in block.nets.iter().skip(1) {
            let name = self.intern_prefixed(prefix, block.name_of(net.name));
            self.nets.push(Net {
                name,
                driver: net.driver.map(driver),
                sinks: net.sinks.map(sink),
            });
        }
        for cell in &block.cells {
            let mut cell = cell.clone();
            cell.name = self.intern_prefixed(prefix, block.name_of(cell.name));
            for n in cell.inputs.iter_mut().chain(cell.outputs.iter_mut()) {
                *n = map.net(*n);
            }
            self.cells.push(cell);
        }
        for mac in &block.macros {
            let name = self.intern_prefixed(prefix, block.name_of(mac.name));
            self.macros.push(MacroInst {
                name,
                kind: mac.kind.clone(),
                drives: mac.drives.iter().map(|&n| map.net(n)).collect(),
                receives: mac.receives.iter().map(|&n| map.net(n)).collect(),
            });
        }
        let inputs = block.primary_inputs.iter().map(|&n| map.net(n));
        self.primary_inputs.extend(inputs);
        let outputs = block.primary_outputs.iter().map(|&n| map.net(n));
        self.primary_outputs.extend(outputs);
        Ok(map)
    }
}

/// Where [`Netlist::append`] put a block's nets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetMap {
    tie: NetId,
    offset: u32,
}

impl NetMap {
    /// The appended copy of the block's net `n`.
    pub(crate) fn net(self, n: NetId) -> NetId {
        match n.0.checked_sub(1) {
            Some(i) => NetId(self.offset + i),
            None => self.tie,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Netlist, NetId, NetId, NetId) {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        nl.set_primary_input(a).unwrap();
        nl.set_primary_input(b).unwrap();
        nl.add_cell(
            "u1",
            CellKind::Nand2,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a, b],
            &[y],
        )
        .unwrap();
        nl.set_primary_output(y).unwrap();
        (nl, a, b, y)
    }

    #[test]
    fn tiny_netlist_is_clean() {
        let (nl, a, _b, y) = tiny();
        assert_eq!(nl.cell_count(), 1);
        assert_eq!(nl.net_count(), 3);
        assert!(nl.lint().is_empty());
        assert_eq!(nl.net(a).unwrap().fanout(), 1);
        assert!(matches!(
            nl.net(y).unwrap().driver,
            Some(Driver::Cell { .. })
        ));
    }

    #[test]
    fn pin_count_mismatch_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        let r = nl.add_cell(
            "u1",
            CellKind::Nand2,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a],
            &[y],
        );
        assert!(matches!(r, Err(NetlistError::PinCountMismatch { .. })));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        nl.set_primary_input(a).unwrap();
        nl.add_cell(
            "u1",
            CellKind::Inv,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a],
            &[y],
        )
        .unwrap();
        let r = nl.add_cell(
            "u2",
            CellKind::Inv,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a],
            &[y],
        );
        assert!(matches!(r, Err(NetlistError::MultipleDrivers { .. })));
        assert!(nl.set_primary_input(y).is_err());
    }

    #[test]
    fn failed_adds_leave_the_netlist_unchanged() {
        let (mut nl, a, b, y) = tiny();
        let before = nl.clone();
        let sram = || MacroKind::Sram(m3d_tech::SramMacro::with_capacity_kb(8));
        // `y` is already driven by `u1`: no sink may be wired on `a` or
        // `b` for a cell (or macro) that is never added.
        let r = nl.add_cell(
            "u2",
            CellKind::Nand2,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a, b],
            &[y],
        );
        assert!(matches!(r, Err(NetlistError::MultipleDrivers { .. })));
        let r = nl.add_macro("m0", sram(), &[y], &[a]);
        assert!(matches!(r, Err(NetlistError::MultipleDrivers { .. })));
        let r = nl.add_macro("m1", sram(), &[], &[a, NetId(99)]);
        assert!(matches!(r, Err(NetlistError::InvalidId { .. })));
        assert_eq!(nl.net(a).unwrap().fanout(), 1);
        assert!(nl.lint().is_empty(), "{:?}", nl.lint());
        assert_eq!(nl, before);
        // Equality renders names, so check the name buffer itself too.
        assert_eq!(nl.names, before.names);
        assert_eq!(nl.name_ends, before.name_ends);
        let r = nl.add_cell(
            "u4",
            CellKind::Nand2,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a],
            &[],
        );
        assert!(matches!(r, Err(NetlistError::PinCountMismatch { .. })));
        assert_eq!(nl.names, before.names);

        // A fresh net listed twice as an output is a second driver too,
        // and the first listing must not stick.
        let z = nl.add_net("z");
        let r = nl.add_cell(
            "u3",
            CellKind::HalfAdder,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a, b],
            &[z, z],
        );
        assert!(matches!(r, Err(NetlistError::MultipleDrivers { .. })));
        assert!(nl.net(z).unwrap().driver.is_none());
        assert_eq!(nl.net(b).unwrap().fanout(), 1);
        assert_eq!(nl.cell_count(), 1);
    }

    #[test]
    fn pins_are_inline_slices() {
        let p = Pins::<3>::new(&[NetId(4), NetId(7)]).unwrap();
        assert_eq!(&*p, &[NetId(4), NetId(7)]);
        assert_eq!(format!("{p:?}"), format!("{:?}", vec![NetId(4), NetId(7)]));
        assert!(Pins::<2>::new(&[NetId(1); 3]).is_none());
        for kind in CellKind::ALL {
            assert!(kind.input_count() <= MAX_INPUTS, "{kind:?}");
            assert!(kind.output_count() <= MAX_OUTPUTS, "{kind:?}");
        }
    }

    fn cell_sink(i: u32) -> Sink {
        Sink::Cell {
            cell: CellId(i),
            pin: (i % 3) as u8,
        }
    }

    #[test]
    fn sinks_spill_from_inline_to_heap_in_order() {
        let mut s = Sinks::default();
        assert!(s.is_empty());
        for i in 0..5 {
            s.push(cell_sink(i));
            assert_eq!(
                matches!(s.0, SinkStore::Inline { .. }),
                i < INLINE_SINKS as u32,
                "after {} pushes",
                i + 1
            );
            let want: Vec<Sink> = (0..=i).map(cell_sink).collect();
            assert_eq!(&*s, &want[..]);
        }
        assert_eq!(
            format!("{s:?}"),
            format!("{:?}", (0..5).map(cell_sink).collect::<Vec<_>>())
        );
        assert_eq!(s.iter().count(), 5);
    }

    #[test]
    fn sinks_take_and_extend_keep_order() {
        let mut from = Sinks::default();
        from.extend((0..3).map(cell_sink));
        let taken = std::mem::take(&mut from);
        assert!(from.is_empty());
        assert!(matches!(from.0, SinkStore::Inline { len: 0, .. }));
        let mut to = Sinks::default();
        to.push(Sink::PrimaryOutput);
        to.extend(taken.iter().copied());
        let want = [
            Sink::PrimaryOutput,
            cell_sink(0),
            cell_sink(1),
            cell_sink(2),
        ];
        assert_eq!(&*to, &want[..]);
    }

    #[test]
    fn sinks_compare_by_slice_across_inline_and_heap() {
        let mut inline = Sinks::default();
        inline.extend([cell_sink(1), Sink::Macro { id: MacroId(2) }]);
        // The same two sinks held on the heap.
        let heap = Sinks(SinkStore::Heap(vec![
            cell_sink(1),
            Sink::Macro { id: MacroId(2) },
        ]));
        assert_eq!(inline, heap);
        assert_eq!(heap, inline);
        let mut longer = heap.clone();
        longer.push(Sink::PrimaryOutput);
        assert_ne!(inline, longer);
        let mut reordered = Sinks::default();
        reordered.extend([Sink::Macro { id: MacroId(2) }, cell_sink(1)]);
        assert_ne!(inline, reordered);
        assert_eq!(Sinks::default(), Sinks(SinkStore::Heap(Vec::new())));
    }

    #[test]
    fn names_render_from_one_buffer_and_compare_as_text() {
        let (nl, a, _b, y) = tiny();
        assert_eq!(nl.name_of(nl.net(a).unwrap().name), "a");
        assert_eq!(nl.name_of(nl.net(y).unwrap().name), "y");
        assert_eq!(nl.name_of(nl.cells()[0].name), "u1");
        let mut n = Netlist::new("t");
        let i = 7;
        let net = n.add_net(format_args!("bus/q{i}"));
        let owned = n.add_net(String::from("owned"));
        assert_eq!(n.name_of(n.net(net).unwrap().name), "bus/q7");
        assert_eq!(n.name_of(n.net(owned).unwrap().name), "owned");
        assert_eq!(n.names, "bus/q7owned");
        // The same design with its names written in another order is
        // equal and keys identically.
        use m3d_tech::StableHash;
        let mut alt = nl.clone();
        let mut names = String::new();
        let mut ends = Vec::new();
        for c in alt.cells.iter_mut().rev() {
            names.push_str(nl.name_of(c.name));
            ends.push(names.len() as u32);
            c.name = Name(ends.len() as u32 - 1);
        }
        for net in alt.nets.iter_mut().rev() {
            names.push_str(nl.name_of(net.name));
            ends.push(names.len() as u32);
            net.name = Name(ends.len() as u32 - 1);
        }
        alt.names = names;
        alt.name_ends = ends;
        assert_ne!(alt.names, nl.names);
        assert_eq!(alt, nl);
        assert_eq!(alt.stable_key(), nl.stable_key());
        alt.cells[0].name = alt.intern("u9");
        assert_ne!(alt, nl);
    }

    #[test]
    fn lint_flags_undriven_and_unsunk() {
        let mut nl = Netlist::new("t");
        let _dangling = nl.add_net("dangling");
        let issues = nl.lint();
        assert_eq!(issues.len(), 2); // undriven AND no sinks
    }

    #[test]
    fn tier_binding_by_prefix() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let y1 = nl.add_net("y1");
        let y2 = nl.add_net("y2");
        nl.set_primary_input(a).unwrap();
        nl.add_cell(
            "sel/u1",
            CellKind::Inv,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a],
            &[y1],
        )
        .unwrap();
        nl.add_cell(
            "core/u2",
            CellKind::Inv,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a],
            &[y2],
        )
        .unwrap();
        let n = nl.bind_tier_by_prefix("sel/", Tier::Cnfet);
        assert_eq!(n, 1);
        assert_eq!(nl.cells()[0].tier, Tier::Cnfet);
        assert_eq!(nl.cells()[1].tier, Tier::SiCmos);
    }

    #[test]
    fn rewire_sinks_moves_everything() {
        let (mut nl, a, _b, y) = tiny();
        // Insert a buffer between the PI `a` and the NAND input.
        let buffered = nl.add_net("a_buf");
        nl.rewire_sinks(a, buffered).unwrap();
        nl.add_cell(
            "buf1",
            CellKind::Buf,
            DriveStrength::X2,
            Tier::SiCmos,
            &[a],
            &[buffered],
        )
        .unwrap();
        assert!(nl.lint().is_empty(), "{:?}", nl.lint());
        // The NAND's pin-0 input now reads the buffered net.
        assert_eq!(nl.cells()[0].inputs[0], buffered);
        assert_eq!(nl.net(a).unwrap().fanout(), 1);
        // Rewiring a net with a PrimaryOutput sink updates the PO list.
        let y2 = nl.add_net("y2");
        nl.rewire_sinks(y, y2).unwrap();
        assert!(nl.primary_outputs.contains(&y2));
        // Self-rewire is a no-op; bad ids error.
        nl.rewire_sinks(y2, y2).unwrap();
        assert!(nl.rewire_sinks(NetId(99), y2).is_err());
    }

    #[test]
    fn stable_hash_ignores_net_numbering() {
        use m3d_tech::StableHash;
        let (nl, ..) = tiny();
        // Same design, nets created in a different order: identical key.
        let mut alt = Netlist::new("tiny");
        let y = alt.add_net("y");
        let a = alt.add_net("a");
        let b = alt.add_net("b");
        alt.set_primary_input(a).unwrap();
        alt.set_primary_input(b).unwrap();
        alt.add_cell(
            "u1",
            CellKind::Nand2,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a, b],
            &[y],
        )
        .unwrap();
        alt.set_primary_output(y).unwrap();
        assert_eq!(nl.stable_key(), alt.stable_key());
        // Renaming an instance changes the key.
        let mut renamed = nl.clone();
        renamed.cells[0].name = renamed.intern("u2");
        assert_ne!(nl.stable_key(), renamed.stable_key());
        // Swapping the input pin order changes the key.
        let mut swapped = nl.clone();
        swapped.cells[0].inputs.reverse();
        assert_ne!(nl.stable_key(), swapped.stable_key());
    }

    #[test]
    fn invalid_ids_error() {
        let (nl, ..) = tiny();
        assert!(nl.cell(CellId(99)).is_err());
        assert!(nl.net(NetId(99)).is_err());
    }
}
