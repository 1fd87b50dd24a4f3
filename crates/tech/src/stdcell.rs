//! Standard-cell libraries for the Si CMOS FEOL tier and the BEOL CNFET
//! tier.
//!
//! The foundry M3D PDK ships two cell libraries: a conventional 130 nm Si
//! CMOS library and a CNFET library fabricated on the upper device tier.
//! Downstream crates consume cells through [`CellLibrary`]; timing uses a
//! linear delay model `d = d₀ + R_drive · C_load` and energy uses
//! `E = E_int + ½·C_load·Vdd²` per output transition.

use serde::{Deserialize, Serialize};

use crate::error::{TechError, TechResult};
use crate::layers::Tier;
use crate::units::{Femtofarads, KiloOhms, Microns, Nanoseconds, Picojoules, SquareMicrons};

/// Logical function of a standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer (used heavily by post-route optimisation).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// AND-OR-invert 21.
    Aoi21,
    /// 2:1 multiplexer.
    Mux2,
    /// Half adder (sum + carry).
    HalfAdder,
    /// Full adder.
    FullAdder,
    /// D flip-flop with clock enable.
    Dff,
}

impl CellKind {
    /// All kinds, for iteration in tests and library construction.
    pub const ALL: [CellKind; 12] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Aoi21,
        CellKind::Mux2,
        CellKind::HalfAdder,
        CellKind::FullAdder,
        CellKind::Dff,
    ];

    /// Library base name (without drive suffix).
    pub fn base_name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Mux2 => "MUX2",
            CellKind::HalfAdder => "HA",
            CellKind::FullAdder => "FA",
            CellKind::Dff => "DFF",
        }
    }

    /// Number of signal input pins (excluding clock).
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::HalfAdder => 2,
            CellKind::Aoi21 | CellKind::Mux2 | CellKind::FullAdder => 3,
            CellKind::Dff => 1,
        }
    }

    /// Number of output pins.
    pub fn output_count(self) -> usize {
        match self {
            CellKind::HalfAdder | CellKind::FullAdder => 2,
            _ => 1,
        }
    }

    /// `true` for clocked cells.
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }
}

impl crate::stable_hash::StableHash for CellKind {
    fn stable_hash(&self, h: &mut crate::stable_hash::StableHasher) {
        h.write_str(self.base_name());
    }
}

/// Drive strength variant of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DriveStrength {
    /// Unit drive.
    X1,
    /// Double drive.
    X2,
    /// Quadruple drive.
    X4,
    /// Octuple drive (buffers for long nets).
    X8,
}

impl DriveStrength {
    /// Numeric drive multiple.
    pub fn multiple(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 2.0,
            DriveStrength::X4 => 4.0,
            DriveStrength::X8 => 8.0,
        }
    }

    /// Suffix used in cell names, e.g. `"X2"`.
    pub fn suffix(self) -> &'static str {
        match self {
            DriveStrength::X1 => "X1",
            DriveStrength::X2 => "X2",
            DriveStrength::X4 => "X4",
            DriveStrength::X8 => "X8",
        }
    }

    /// All strengths in increasing drive order.
    pub const ALL: [DriveStrength; 4] = [
        DriveStrength::X1,
        DriveStrength::X2,
        DriveStrength::X4,
        DriveStrength::X8,
    ];
}

impl crate::stable_hash::StableHash for DriveStrength {
    fn stable_hash(&self, h: &mut crate::stable_hash::StableHasher) {
        h.write_str(self.suffix());
    }
}

/// One characterised standard cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StdCell {
    /// Full cell name, e.g. `"NAND2_X2"`.
    pub name: String,
    /// Logical function.
    pub kind: CellKind,
    /// Drive variant.
    pub drive: DriveStrength,
    /// Placed footprint.
    pub area: SquareMicrons,
    /// Capacitance of one input pin.
    pub input_cap: Femtofarads,
    /// Load-independent delay component.
    pub intrinsic_delay: Nanoseconds,
    /// Output drive resistance (delay slope vs load).
    pub drive_resistance: KiloOhms,
    /// Static leakage power in nanowatts.
    pub leakage_nw: f64,
    /// Internal (short-circuit + internal-node) energy per output
    /// transition.
    pub internal_energy: Picojoules,
    /// Setup time for sequential cells.
    pub setup: Option<Nanoseconds>,
}

impl StdCell {
    /// Propagation delay driving `load` (linear delay model).
    pub fn delay(&self, load: Femtofarads) -> Nanoseconds {
        self.intrinsic_delay + self.drive_resistance * load
    }

    /// Dynamic energy of one output transition driving `load` at supply
    /// voltage `vdd`.
    pub fn switching_energy(&self, load: Femtofarads, vdd: f64) -> Picojoules {
        // ½·C·V² with C in fF and V in volts gives femtojoules; /1000 → pJ.
        let cap_fj = 0.5 * load.value() * vdd * vdd;
        self.internal_energy + Picojoules::new(cap_fj / 1.0e3)
    }
}

impl crate::stable_hash::StableHash for StdCell {
    fn stable_hash(&self, h: &mut crate::stable_hash::StableHasher) {
        self.name.stable_hash(h);
        self.kind.stable_hash(h);
        self.drive.stable_hash(h);
        self.area.stable_hash(h);
        self.input_cap.stable_hash(h);
        self.intrinsic_delay.stable_hash(h);
        self.drive_resistance.stable_hash(h);
        self.leakage_nw.stable_hash(h);
        self.internal_energy.stable_hash(h);
        self.setup.stable_hash(h);
    }
}

/// A characterised cell library bound to one device tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    /// Library name, e.g. `"si_cmos_130"`.
    pub name: String,
    /// Device tier the library's cells occupy.
    pub tier: Tier,
    /// Placement row height.
    pub row_height: Microns,
    /// Placement site width (cell widths are integer multiples).
    pub site_width: Microns,
    /// Supply voltage in volts.
    pub vdd: f64,
    cells: Vec<StdCell>,
}

impl crate::stable_hash::StableHash for CellLibrary {
    fn stable_hash(&self, h: &mut crate::stable_hash::StableHasher) {
        self.name.stable_hash(h);
        self.tier.stable_hash(h);
        self.row_height.stable_hash(h);
        self.site_width.stable_hash(h);
        self.vdd.stable_hash(h);
        self.cells.stable_hash(h);
    }
}

/// Per-kind base characterisation: (sites at X1, input cap fF, intrinsic
/// delay ns, drive resistance kΩ at X1, leakage nW, internal energy pJ).
fn base_params(kind: CellKind) -> (f64, f64, f64, f64, f64, f64) {
    match kind {
        CellKind::Inv => (2.0, 2.0, 0.020, 4.0, 0.20, 0.0030),
        CellKind::Buf => (4.0, 2.0, 0.040, 2.0, 0.35, 0.0050),
        CellKind::Nand2 => (3.0, 2.4, 0.025, 4.5, 0.30, 0.0040),
        CellKind::Nor2 => (3.0, 2.4, 0.030, 5.0, 0.30, 0.0040),
        CellKind::And2 => (4.0, 2.2, 0.045, 4.0, 0.40, 0.0055),
        CellKind::Or2 => (4.0, 2.2, 0.048, 4.0, 0.40, 0.0055),
        CellKind::Xor2 => (6.0, 3.0, 0.060, 4.5, 0.55, 0.0080),
        CellKind::Aoi21 => (4.0, 2.5, 0.035, 5.0, 0.40, 0.0050),
        CellKind::Mux2 => (6.0, 2.5, 0.050, 4.5, 0.50, 0.0070),
        CellKind::HalfAdder => (8.0, 3.0, 0.070, 4.5, 0.70, 0.0100),
        CellKind::FullAdder => (12.0, 3.5, 0.090, 4.5, 1.00, 0.0150),
        CellKind::Dff => (10.0, 2.5, 0.150, 4.0, 1.00, 0.0120),
    }
}

/// Number of drive strengths offered for `kind`, counted from X1: only
/// INV/BUF/NAND2/DFF get the full ladder; other kinds stop at X2
/// (typical of a lean foundry library).
const fn ladder_len(kind: CellKind) -> usize {
    match kind {
        CellKind::Inv | CellKind::Buf | CellKind::Nand2 | CellKind::Dff => 4,
        _ => 2,
    }
}

/// Index of each kind's X1 cell in a library laid out by
/// [`CellLibrary::build`]: kinds in [`CellKind::ALL`] order, each with
/// its drive ladder in [`DriveStrength::ALL`] order.
const LADDER_START: [usize; CellKind::ALL.len()] = {
    let mut start = [0; CellKind::ALL.len()];
    let mut k = 1;
    while k < start.len() {
        start[k] = start[k - 1] + ladder_len(CellKind::ALL[k - 1]);
        k += 1;
    }
    start
};

/// Index of `(kind, drive)` in a built library; `None` when the variant
/// is beyond the kind's ladder.
fn built_slot(kind: CellKind, drive: DriveStrength) -> Option<usize> {
    let d = drive as usize;
    (d < ladder_len(kind)).then(|| LADDER_START[kind as usize] + d)
}

impl CellLibrary {
    /// The 130 nm Si CMOS FEOL library.
    pub fn si_cmos_130() -> Self {
        Self::build("si_cmos_130", Tier::SiCmos, 1.0, 1.0, 1.0)
    }

    /// The BEOL CNFET library with width-relaxation `delta` (δ ≥ 1).
    ///
    /// Relaxed CNFETs deliver `1/δ` the drive per width, so CNFET cells
    /// are drawn `δ×` wider to meet the same timing, with a mild intrinsic
    /// delay penalty reflecting the newly introduced BEOL process.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] when `delta < 1.0` or is
    /// not finite.
    pub fn cnfet_beol_130(delta: f64) -> TechResult<Self> {
        if !delta.is_finite() || delta < 1.0 {
            return Err(TechError::InvalidParameter {
                parameter: "delta",
                value: delta,
                expected: "finite and >= 1.0",
            });
        }
        Ok(Self::build("cnfet_beol_130", Tier::Cnfet, delta, 1.15, 0.7))
    }

    fn build(name: &str, tier: Tier, area_scale: f64, delay_scale: f64, leak_scale: f64) -> Self {
        let row_height = Microns::new(3.69);
        let site_width = Microns::new(0.49);
        let mut cells = Vec::new();
        for kind in CellKind::ALL {
            let (sites, cin, d0, r1, leak, eint) = base_params(kind);
            for &drive in &DriveStrength::ALL[..ladder_len(kind)] {
                let m = drive.multiple();
                // Width grows sub-linearly with drive (shared diffusion).
                let width_sites = (sites + (m - 1.0) * sites * 0.6) * area_scale;
                cells.push(StdCell {
                    name: format!("{}_{}", kind.base_name(), drive.suffix()),
                    kind,
                    drive,
                    area: Microns::new(width_sites) * site_width * row_height.value(),
                    input_cap: Femtofarads::new(cin * m * 0.8_f64.max(1.0 / m) * area_scale),
                    intrinsic_delay: Nanoseconds::new(d0 * delay_scale),
                    drive_resistance: KiloOhms::new(r1 * delay_scale / m),
                    leakage_nw: leak * m * leak_scale * area_scale,
                    internal_energy: Picojoules::new(eint * m.sqrt() * area_scale),
                    setup: kind
                        .is_sequential()
                        .then(|| Nanoseconds::new(0.08 * delay_scale)),
                });
            }
        }
        Self {
            name: name.to_owned(),
            tier,
            row_height,
            site_width,
            vdd: 1.5,
            cells,
        }
    }

    /// All cells in the library.
    pub fn cells(&self) -> &[StdCell] {
        &self.cells
    }

    /// Mutable access for in-crate re-characterisation (corners).
    pub(crate) fn cells_mut(&mut self) -> &mut [StdCell] {
        &mut self.cells
    }

    /// Looks up a cell by kind and drive strength.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownCell`] when the library has no such
    /// variant (not every kind is offered at every drive).
    pub fn cell(&self, kind: CellKind, drive: DriveStrength) -> TechResult<&StdCell> {
        let is_variant = |c: &&StdCell| c.kind == kind && c.drive == drive;
        // Built libraries hold the variant at a computed slot; the entry
        // is checked, so a library deserialised in another order still
        // resolves by scan.
        built_slot(kind, drive)
            .and_then(|i| self.cells.get(i))
            .filter(is_variant)
            .or_else(|| self.cells.iter().find(is_variant))
            .ok_or_else(|| TechError::UnknownCell {
                name: format!("{}_{}", kind.base_name(), drive.suffix()),
                library: self.name.clone(),
            })
    }

    /// The smallest-drive variant of `kind` present in the library.
    ///
    /// # Panics
    ///
    /// Never panics: every kind is offered at least at X1.
    pub fn min_drive(&self, kind: CellKind) -> &StdCell {
        self.cells
            .iter()
            .filter(|c| c.kind == kind)
            .min_by(|a, b| a.drive.cmp(&b.drive))
            .expect("every kind present at X1")
    }

    /// Strongest drive variant of `kind` in the library.
    pub fn max_drive(&self, kind: CellKind) -> &StdCell {
        self.cells
            .iter()
            .filter(|c| c.kind == kind)
            .max_by(|a, b| a.drive.cmp(&b.drive))
            .expect("every kind present at X1")
    }

    /// Next-stronger variant of the given cell, if any (used by the
    /// post-route upsizing pass).
    pub fn upsize(&self, cell: &StdCell) -> Option<&StdCell> {
        self.cells
            .iter()
            .filter(|c| c.kind == cell.kind && c.drive > cell.drive)
            .min_by(|a, b| a.drive.cmp(&b.drive))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si_library_has_all_kinds_at_x1() {
        let lib = CellLibrary::si_cmos_130();
        for kind in CellKind::ALL {
            assert!(lib.cell(kind, DriveStrength::X1).is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn drive_ladder_is_restricted_for_complex_cells() {
        let lib = CellLibrary::si_cmos_130();
        assert!(lib.cell(CellKind::Inv, DriveStrength::X8).is_ok());
        assert!(lib.cell(CellKind::FullAdder, DriveStrength::X8).is_err());
        assert!(lib.cell(CellKind::FullAdder, DriveStrength::X2).is_ok());
    }

    #[test]
    fn stronger_drive_means_lower_resistance_and_larger_area() {
        let lib = CellLibrary::si_cmos_130();
        let x1 = lib.cell(CellKind::Inv, DriveStrength::X1).unwrap();
        let x4 = lib.cell(CellKind::Inv, DriveStrength::X4).unwrap();
        assert!(x4.drive_resistance < x1.drive_resistance);
        assert!(x4.area > x1.area);
    }

    #[test]
    fn delay_model_is_linear_in_load() {
        let lib = CellLibrary::si_cmos_130();
        let c = lib.cell(CellKind::Nand2, DriveStrength::X1).unwrap();
        let d1 = c.delay(Femtofarads::new(10.0));
        let d2 = c.delay(Femtofarads::new(20.0));
        let slope = (d2 - d1).value() / 10.0;
        assert!((slope - c.drive_resistance.value() * 1.0e-3).abs() < 1e-12);
    }

    #[test]
    fn switching_energy_grows_with_load() {
        let lib = CellLibrary::si_cmos_130();
        let c = lib.cell(CellKind::Inv, DriveStrength::X1).unwrap();
        let e0 = c.switching_energy(Femtofarads::ZERO, 1.5);
        let e1 = c.switching_energy(Femtofarads::new(100.0), 1.5);
        assert_eq!(e0, c.internal_energy);
        // ½·100 fF·(1.5 V)² = 112.5 fJ = 0.1125 pJ on top of internal.
        assert!(((e1 - e0).value() - 0.1125).abs() < 1e-9);
    }

    #[test]
    fn cnfet_library_is_slower_and_larger_when_relaxed() {
        let ideal = CellLibrary::cnfet_beol_130(1.0).unwrap();
        let relaxed = CellLibrary::cnfet_beol_130(2.0).unwrap();
        let a = ideal.cell(CellKind::Inv, DriveStrength::X1).unwrap();
        let b = relaxed.cell(CellKind::Inv, DriveStrength::X1).unwrap();
        assert!((b.area / a.area - 2.0).abs() < 1e-9);
        assert_eq!(a.intrinsic_delay, b.intrinsic_delay);
        assert_eq!(ideal.tier, Tier::Cnfet);
    }

    #[test]
    fn cnfet_rejects_bad_delta() {
        assert!(CellLibrary::cnfet_beol_130(0.9).is_err());
        assert!(CellLibrary::cnfet_beol_130(f64::INFINITY).is_err());
    }

    #[test]
    fn name_lookup_and_upsize() {
        let lib = CellLibrary::si_cmos_130();
        let c = lib.cell(CellKind::Dff, DriveStrength::X1).unwrap();
        assert!(c.setup.is_some());
        let up = lib.upsize(c).unwrap();
        assert_eq!(up.drive, DriveStrength::X2);
        let top = lib.max_drive(CellKind::Dff);
        assert!(lib.upsize(top).is_none());
    }

    #[test]
    fn sequential_flags() {
        assert!(CellKind::Dff.is_sequential());
        assert!(!CellKind::FullAdder.is_sequential());
        assert_eq!(CellKind::FullAdder.output_count(), 2);
        assert_eq!(CellKind::Mux2.input_count(), 3);
    }

    /// The lookup before it became a slot index: a scan of the cells.
    fn scan(lib: &CellLibrary, kind: CellKind, drive: DriveStrength) -> TechResult<&StdCell> {
        lib.cells
            .iter()
            .find(|c| c.kind == kind && c.drive == drive)
            .ok_or_else(|| TechError::UnknownCell {
                name: format!("{}_{}", kind.base_name(), drive.suffix()),
                library: lib.name.clone(),
            })
    }

    #[test]
    fn slot_lookup_matches_a_linear_scan() {
        let mut libs = vec![CellLibrary::si_cmos_130()];
        for delta in [1.0, 1.5, 2.0, 3.7] {
            libs.push(CellLibrary::cnfet_beol_130(delta).unwrap());
        }
        for lib in libs.clone() {
            libs.extend(crate::Corner::ALL.map(|corner| lib.at_corner(corner)));
        }
        for lib in &libs {
            for kind in CellKind::ALL {
                for drive in DriveStrength::ALL {
                    let want = scan(lib, kind, drive);
                    let got = lib.cell(kind, drive);
                    assert_eq!(got, want, "{} {kind:?} {drive:?}", lib.name);
                    // Present variants resolve at their computed slot,
                    // not through the fallback scan.
                    if let Ok(cell) = want {
                        let slot = built_slot(kind, drive).expect("present variant has a slot");
                        assert!(std::ptr::eq(&lib.cells[slot], cell));
                    }
                }
            }
        }
        let si = &libs[0];
        assert_eq!(
            si.cell(CellKind::Xor2, DriveStrength::X8),
            Err(TechError::UnknownCell {
                name: "XOR2_X8".to_owned(),
                library: "si_cmos_130".to_owned(),
            })
        );
    }

    #[test]
    fn reordered_library_still_resolves_every_variant() {
        let built = CellLibrary::si_cmos_130();
        let mut shuffled = built.clone();
        shuffled.cells.reverse();
        for kind in CellKind::ALL {
            for drive in DriveStrength::ALL {
                assert_eq!(
                    shuffled.cell(kind, drive).map(|c| &c.name),
                    built.cell(kind, drive).map(|c| &c.name)
                );
            }
        }
    }

    #[test]
    fn min_drive_is_x1() {
        let lib = CellLibrary::si_cmos_130();
        for kind in CellKind::ALL {
            assert_eq!(lib.min_drive(kind).drive, DriveStrength::X1);
        }
    }
}
