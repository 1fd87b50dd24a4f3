//! Recursive elaboration: flattens a hierarchical EDIF AST into one
//! flat [`Netlist`].
//!
//! Scoping follows the generator convention — child objects are named
//! `parent/child` — so ingested hierarchy drives the same hierarchical
//! clustering as generated designs. Instance references resolve in
//! this order:
//!
//! 1. PDK standard cells by model name (`NAND2_X1`, …), pins mapped
//!    through [`m3d_netlist::names`];
//! 2. memory macros (`RRAM_<mb>MB_<banks>B`, `SRAM_<kb>KB`);
//! 3. cells defined with `(contents …)` recurse, binding child
//!    interface ports to the parent's nets;
//! 4. interface-only cell declarations become [`MacroKind::BlackBox`]
//!    blocks using their declared port directions (and `area_um2`
//!    property, when present);
//! 5. references to cells declared nowhere become black boxes under
//!    the writer convention that `Q*` pins drive and all others
//!    receive.

use m3d_netlist::names::{input_pins, macro_kind_from_model, output_pins, parse_cell_model};
use m3d_netlist::{MacroKind, NetId, Netlist};
use m3d_tech::units::SquareMicrons;
use m3d_tech::Tier;

use crate::ast::{Cell, Dir, Edif, Instance};
use crate::error::{IngestError, IngestResult};
use crate::intern::{Atom, FxHashMap, Interner};

/// Footprint assumed for a black box with no `area_um2` property.
pub const DEFAULT_BLACKBOX_AREA: f64 = 1.0;

/// Maximum instantiation depth (guards against recursive hierarchy).
pub const MAX_FLATTEN_DEPTH: u32 = 32;

/// Largest design elaboration flattens, counted as the objects it would
/// create: every instance (leaf or hierarchical) and every net, summed
/// over the flattened hierarchy. The source-size cap does not bound
/// this: a cell instantiating the previous one ten times multiplies the
/// design tenfold per ~1 KB of source.
pub const MAX_FLAT_OBJECTS: u64 = 1 << 20;

/// The flattening result.
#[derive(Debug)]
pub struct Elaborated {
    /// The flat netlist.
    pub netlist: Netlist,
    /// Deepest instantiation level reached (a flat design is 1).
    pub flatten_depth: u32,
}

/// Flattens the AST starting from its top cell.
///
/// The top cell is the one named by the `(design …)` form; without
/// one, the unique `(contents …)`-bearing cell that no other cell
/// instantiates.
///
/// # Errors
///
/// Returns a positioned [`IngestError`] for unresolved or ambiguous
/// references, direction violations, shorted or doubly-driven nets,
/// hierarchy deeper than [`MAX_FLATTEN_DEPTH`], and designs that would
/// flatten to more than [`MAX_FLAT_OBJECTS`] objects (refused before
/// anything is built).
pub fn elaborate(edif: &Edif, intern: &Interner) -> IngestResult<Elaborated> {
    let mut cells: FxHashMap<Atom, &Cell> = FxHashMap::default();
    for lib in &edif.libraries {
        for cell in &lib.cells {
            if cells.insert(cell.name, cell).is_some() {
                return Err(IngestError::new(
                    cell.line,
                    cell.col,
                    format!(
                        "cell `{}` is defined more than once",
                        intern.resolve(cell.name)
                    ),
                ));
            }
        }
    }
    let top = top_cell(edif, &cells, intern)?;
    if !top.view.has_contents {
        return Err(IngestError::new(
            top.line,
            top.col,
            format!(
                "top cell `{}` has no `(contents …)`",
                intern.resolve(top.name)
            ),
        ));
    }

    let size = flat_size(top, &cells, intern, 1, &mut FxHashMap::default())?;
    if size > MAX_FLAT_OBJECTS {
        return Err(IngestError::new(
            top.line,
            top.col,
            format!(
                "design `{}` flattens to more than {MAX_FLAT_OBJECTS} instances and nets",
                intern.resolve(top.name)
            ),
        ));
    }

    let mut ctx = Ctx {
        intern,
        cells,
        nl: Netlist::new(intern.resolve(top.name)),
        max_depth: 1,
    };

    // Root interface ports become the primary inputs/outputs; outputs
    // are deferred until flattening has produced their drivers.
    let mut bindings: FxHashMap<Atom, NetId> = FxHashMap::default();
    let mut outputs: Vec<(NetId, Atom, u32, u32)> = Vec::new();
    for port in &top.view.interface {
        let pname = intern.resolve(port.name);
        let id = ctx.nl.add_net(pname);
        if bindings.insert(port.name, id).is_some() {
            return Err(IngestError::new(
                port.line,
                port.col,
                format!("duplicate port `{pname}`"),
            ));
        }
        match port.dir {
            Dir::Input => ctx
                .nl
                .set_primary_input(id)
                .map_err(|e| IngestError::new(port.line, port.col, e.to_string()))?,
            Dir::Output => outputs.push((id, port.name, port.line, port.col)),
            Dir::Inout => {
                return Err(IngestError::new(
                    port.line,
                    port.col,
                    format!("inout port `{pname}` is not supported"),
                ));
            }
        }
    }

    ctx.flatten(top, "", &bindings, 1)?;

    for (id, name, line, col) in outputs {
        let driven = ctx
            .nl
            .net(id)
            .map_err(|e| IngestError::unpositioned(e.to_string()))?
            .driver
            .is_some();
        if !driven {
            return Err(IngestError::new(
                line,
                col,
                format!("output `{}` is undriven", intern.resolve(name)),
            ));
        }
        ctx.nl
            .set_primary_output(id)
            .map_err(|e| IngestError::new(line, col, e.to_string()))?;
    }

    Ok(Elaborated {
        netlist: ctx.nl,
        flatten_depth: ctx.max_depth,
    })
}

fn top_cell<'a>(
    edif: &Edif,
    cells: &FxHashMap<Atom, &'a Cell>,
    intern: &Interner,
) -> IngestResult<&'a Cell> {
    if let Some(t) = edif.top {
        return cells.get(&t).copied().ok_or_else(|| {
            IngestError::unpositioned(format!(
                "design top cell `{}` is not defined",
                intern.resolve(t)
            ))
        });
    }
    let mut instantiated: FxHashMap<Atom, ()> = FxHashMap::default();
    for lib in &edif.libraries {
        for cell in &lib.cells {
            for inst in &cell.view.instances {
                instantiated.insert(inst.cell_ref, ());
            }
        }
    }
    let mut roots: Vec<&Cell> = cells
        .values()
        .filter(|c| c.view.has_contents && !instantiated.contains_key(&c.name))
        .copied()
        .collect();
    roots.sort_by_key(|c| (c.line, c.col));
    match roots.len() {
        1 => Ok(roots[0]),
        0 => Err(IngestError::unpositioned(
            "no top cell: every cell with contents is instantiated somewhere \
             (add a `(design … (cellRef …))` form)",
        )),
        _ => Err(IngestError::unpositioned(format!(
            "ambiguous top cell: {} (add a `(design … (cellRef …))` form)",
            roots
                .iter()
                .map(|c| format!("`{}`", intern.resolve(c.name)))
                .collect::<Vec<_>>()
                .join(", ")
        ))),
    }
}

/// The error for an instance of `cell` deeper than
/// [`MAX_FLATTEN_DEPTH`].
fn too_deep(cell: &Cell) -> IngestError {
    IngestError::new(
        cell.line,
        cell.col,
        format!("hierarchy deeper than {MAX_FLATTEN_DEPTH} levels (recursive instantiation?)"),
    )
}

/// How many instances and nets flattening `cell` creates, saturating,
/// with each cell counted once in `memo`. Instances resolve as
/// [`Ctx::flatten`] resolves them, so only defined cells with contents
/// that are neither PDK cells nor memory macros recurse. The depth cap
/// also ends the pass on a recursive hierarchy, with the error
/// flattening would reach.
fn flat_size(
    cell: &Cell,
    cells: &FxHashMap<Atom, &Cell>,
    intern: &Interner,
    depth: u32,
    memo: &mut FxHashMap<Atom, u64>,
) -> IngestResult<u64> {
    if let Some(&size) = memo.get(&cell.name) {
        return Ok(size);
    }
    if depth > MAX_FLATTEN_DEPTH {
        return Err(too_deep(cell));
    }
    let mut size = cell.view.nets.len() as u64;
    for inst in &cell.view.instances {
        let model = intern.resolve(inst.cell_ref);
        let leaf = parse_cell_model(model).is_some() || macro_kind_from_model(model, 1).is_some();
        let child = match cells.get(&inst.cell_ref) {
            Some(child) if !leaf && child.view.has_contents => {
                flat_size(child, cells, intern, depth + 1, memo)?
            }
            _ => 0,
        };
        size = size.saturating_add(1).saturating_add(child);
    }
    memo.insert(cell.name, size);
    Ok(size)
}

fn scoped(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_owned()
    } else {
        format!("{path}/{name}")
    }
}

/// Sort key giving numeric-aware pin order (`Q2` before `Q10`).
fn pin_sort_key(pin: &str) -> (String, u64, String) {
    let split = pin.len() - pin.chars().rev().take_while(char::is_ascii_digit).count();
    let (alpha, digits) = pin.split_at(split);
    (
        alpha.to_owned(),
        digits.parse().unwrap_or(0),
        pin.to_owned(),
    )
}

struct Ctx<'a> {
    intern: &'a Interner,
    cells: FxHashMap<Atom, &'a Cell>,
    nl: Netlist,
    max_depth: u32,
}

impl<'a> Ctx<'a> {
    /// Flattens one cell instance. `bindings` maps the cell's interface
    /// port names to the parent nets they are connected to; ports the
    /// parent left unconnected get fresh scoped nets.
    fn flatten(
        &mut self,
        cell: &'a Cell,
        path: &str,
        bindings: &FxHashMap<Atom, NetId>,
        depth: u32,
    ) -> IngestResult<()> {
        let intern = self.intern;
        if depth > MAX_FLATTEN_DEPTH {
            return Err(too_deep(cell));
        }
        self.max_depth = self.max_depth.max(depth);
        let view = &cell.view;

        let mut inst_by_name: FxHashMap<Atom, &Instance> = FxHashMap::default();
        for inst in &view.instances {
            if inst_by_name.insert(inst.name, inst).is_some() {
                return Err(IngestError::new(
                    inst.line,
                    inst.col,
                    format!("duplicate instance `{}`", intern.resolve(inst.name)),
                ));
            }
        }

        // Materialise nets. A net joining one of this cell's own
        // interface ports aliases the parent net bound to that port;
        // purely internal nets get fresh scoped names.
        let mut conns: FxHashMap<Atom, Vec<(Atom, NetId, u32, u32)>> = FxHashMap::default();
        let mut seen_nets: FxHashMap<Atom, ()> = FxHashMap::default();
        let mut seen_pins: FxHashMap<(Atom, Atom), ()> = FxHashMap::default();
        for net in &view.nets {
            if seen_nets.insert(net.name, ()).is_some() {
                return Err(IngestError::new(
                    net.line,
                    net.col,
                    format!("duplicate net `{}`", intern.resolve(net.name)),
                ));
            }
            let own: Vec<_> = net.ports.iter().filter(|p| p.instance.is_none()).collect();
            let id = if let Some(first) = own.first() {
                if !view.interface.iter().any(|p| p.name == first.port) {
                    return Err(IngestError::new(
                        first.line,
                        first.col,
                        format!(
                            "`{}` is not a port of cell `{}`",
                            intern.resolve(first.port),
                            intern.resolve(cell.name)
                        ),
                    ));
                }
                let id = match bindings.get(&first.port) {
                    Some(&id) => id,
                    // Port left unconnected by the parent: fresh net;
                    // lint flags the dangling end downstream.
                    None => self.nl.add_net(scoped(path, intern.resolve(net.name))),
                };
                for extra in own.iter().skip(1) {
                    if bindings.get(&extra.port).copied() != Some(id) {
                        return Err(IngestError::new(
                            extra.line,
                            extra.col,
                            format!(
                                "net `{}` shorts two interface ports",
                                intern.resolve(net.name)
                            ),
                        ));
                    }
                }
                id
            } else {
                self.nl.add_net(scoped(path, intern.resolve(net.name)))
            };
            for p in &net.ports {
                let Some(inst) = p.instance else { continue };
                if !inst_by_name.contains_key(&inst) {
                    return Err(IngestError::new(
                        p.line,
                        p.col,
                        format!(
                            "`portRef` names unknown instance `{}`",
                            intern.resolve(inst)
                        ),
                    ));
                }
                if seen_pins.insert((inst, p.port), ()).is_some() {
                    return Err(IngestError::new(
                        p.line,
                        p.col,
                        format!(
                            "pin `{}` of instance `{}` is joined twice",
                            intern.resolve(p.port),
                            intern.resolve(inst)
                        ),
                    ));
                }
                conns
                    .entry(inst)
                    .or_default()
                    .push((p.port, id, p.line, p.col));
            }
        }

        for inst in &view.instances {
            let iname = scoped(path, intern.resolve(inst.name));
            let iconns = conns.remove(&inst.name).unwrap_or_default();
            let model = intern.resolve(inst.cell_ref);
            let find_pin = |pin: &str| -> Option<NetId> {
                let a = intern.get(pin)?;
                iconns.iter().find(|(p, ..)| *p == a).map(|(_, id, ..)| *id)
            };

            // 1. PDK standard cell.
            if let Some((kind, drive)) = parse_cell_model(model) {
                for (p, _, pl, pc) in &iconns {
                    let pn = intern.resolve(*p);
                    if !input_pins(kind).contains(&pn) && !output_pins(kind).contains(&pn) {
                        return Err(IngestError::new(
                            *pl,
                            *pc,
                            format!("unknown pin `{pn}` on `{model}`"),
                        ));
                    }
                }
                let pin_net = |pin: &&str| -> IngestResult<NetId> {
                    find_pin(pin).ok_or_else(|| {
                        IngestError::new(
                            inst.line,
                            inst.col,
                            format!(
                                "instance `{iname}` ({model}) has no connection on pin `{pin}`"
                            ),
                        )
                    })
                };
                let ins: Vec<NetId> = input_pins(kind)
                    .iter()
                    .map(pin_net)
                    .collect::<IngestResult<_>>()?;
                let outs: Vec<NetId> = output_pins(kind)
                    .iter()
                    .map(pin_net)
                    .collect::<IngestResult<_>>()?;
                let tier = if inst.tier_cnfet {
                    Tier::Cnfet
                } else {
                    Tier::SiCmos
                };
                self.nl
                    .add_cell(iname, kind, drive, tier, &ins, &outs)
                    .map_err(|e| IngestError::new(inst.line, inst.col, e.to_string()))?;
                continue;
            }

            // Deterministic macro port order: numeric-aware sort on pin
            // names, `Q*` pins drive (the writer convention).
            let mut sorted: Vec<(Atom, NetId)> =
                iconns.iter().map(|(p, id, ..)| (*p, *id)).collect();
            sorted.sort_by_key(|(p, _)| pin_sort_key(intern.resolve(*p)));
            let drives: Vec<NetId> = sorted
                .iter()
                .filter(|(p, _)| intern.resolve(*p).starts_with('Q'))
                .map(|(_, id)| *id)
                .collect();
            let receives: Vec<NetId> = sorted
                .iter()
                .filter(|(p, _)| !intern.resolve(*p).starts_with('Q'))
                .map(|(_, id)| *id)
                .collect();

            // 2. Memory macro.
            if let Some(mac) = macro_kind_from_model(model, drives.len()) {
                let kind = mac.map_err(|msg| IngestError::new(inst.line, inst.col, msg))?;
                self.nl
                    .add_macro(iname, kind, &drives, &receives)
                    .map_err(|e| IngestError::new(inst.line, inst.col, e.to_string()))?;
                continue;
            }

            if let Some(child) = self.cells.get(&inst.cell_ref).copied() {
                for (p, _, pl, pc) in &iconns {
                    if !child.view.interface.iter().any(|ip| ip.name == *p) {
                        return Err(IngestError::new(
                            *pl,
                            *pc,
                            format!(
                                "`{}` is not a port of cell `{}`",
                                intern.resolve(*p),
                                intern.resolve(child.name)
                            ),
                        ));
                    }
                }
                // 3. Hierarchical cell: recurse.
                if child.view.has_contents {
                    let mut child_bindings: FxHashMap<Atom, NetId> = FxHashMap::default();
                    for (p, id, ..) in &iconns {
                        child_bindings.insert(*p, *id);
                    }
                    self.flatten(child, &iname, &child_bindings, depth + 1)?;
                    continue;
                }
                // 4. Interface-only declaration: a black box with the
                //    declared port directions.
                let mut drives = Vec::new();
                let mut receives = Vec::new();
                for port in &child.view.interface {
                    let Some(id) = iconns
                        .iter()
                        .find(|(p, ..)| *p == port.name)
                        .map(|(_, id, ..)| *id)
                    else {
                        continue;
                    };
                    match port.dir {
                        Dir::Output => drives.push(id),
                        Dir::Input => receives.push(id),
                        Dir::Inout => {
                            return Err(IngestError::new(
                                inst.line,
                                inst.col,
                                format!(
                                    "inout port `{}` of `{model}` is not supported",
                                    intern.resolve(port.name)
                                ),
                            ));
                        }
                    }
                }
                let area = child.area_um2.unwrap_or(DEFAULT_BLACKBOX_AREA);
                self.nl
                    .add_macro(
                        iname,
                        MacroKind::BlackBox {
                            model: model.to_owned(),
                            area: SquareMicrons::new(area),
                        },
                        &drives,
                        &receives,
                    )
                    .map_err(|e| IngestError::new(inst.line, inst.col, e.to_string()))?;
                continue;
            }

            // 5. Declared nowhere: opaque black box, `Q*` pins drive.
            self.nl
                .add_macro(
                    iname,
                    MacroKind::BlackBox {
                        model: model.to_owned(),
                        area: SquareMicrons::new(DEFAULT_BLACKBOX_AREA),
                    },
                    &drives,
                    &receives,
                )
                .map_err(|e| IngestError::new(inst.line, inst.col, e.to_string()))?;
        }
        Ok(())
    }
}
