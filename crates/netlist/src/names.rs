//! The PDK cell naming scheme shared by every netlist front- and
//! back-end: the structural-Verilog writer ([`crate::verilog`]), the
//! Verilog parser ([`crate::parser`]) and the EDIF ingester map cell
//! models and pins through these tables, so a name round-trips through
//! any export/import pair unchanged.

use m3d_tech::stdcell::{CellKind, DriveStrength};
use m3d_tech::{RramMacro, SelectorTech, SramMacro};

use crate::netlist::MacroKind;

/// Maps a model base name (`"NAND2"`) to its [`CellKind`].
pub fn kind_from_name(base: &str) -> Option<CellKind> {
    Some(match base {
        "INV" => CellKind::Inv,
        "BUF" => CellKind::Buf,
        "NAND2" => CellKind::Nand2,
        "NOR2" => CellKind::Nor2,
        "AND2" => CellKind::And2,
        "OR2" => CellKind::Or2,
        "XOR2" => CellKind::Xor2,
        "AOI21" => CellKind::Aoi21,
        "MUX2" => CellKind::Mux2,
        "HA" => CellKind::HalfAdder,
        "FA" => CellKind::FullAdder,
        "DFF" => CellKind::Dff,
        _ => return None,
    })
}

/// Maps a drive-strength suffix (`"X4"`) to its [`DriveStrength`].
pub fn drive_from_suffix(s: &str) -> Option<DriveStrength> {
    Some(match s {
        "X1" => DriveStrength::X1,
        "X2" => DriveStrength::X2,
        "X4" => DriveStrength::X4,
        "X8" => DriveStrength::X8,
        _ => return None,
    })
}

/// The full library model name of a sized cell (`"NAND2_X1"`).
pub fn cell_model(kind: CellKind, drive: DriveStrength) -> String {
    format!("{}_{}", kind.base_name(), drive.suffix())
}

/// Splits a full model name (`"NAND2_X1"`) back into kind and drive.
/// `None` when the model is not a PDK standard cell.
pub fn parse_cell_model(model: &str) -> Option<(CellKind, DriveStrength)> {
    let (base, suffix) = model.rsplit_once('_')?;
    Some((kind_from_name(base)?, drive_from_suffix(suffix)?))
}

/// Reconstructs a hard macro from its black-box model name
/// (`RRAM_<mb>MB_<banks>B` or `SRAM_<kb>KB`). Returns `None` when the
/// model is not a memory macro at all, and `Some(Err(message))` when it
/// looks like one but is malformed. `drive_count` — the number of
/// connected read-port bits — sizes the reconstructed RRAM port width.
pub fn macro_kind_from_model(model: &str, drive_count: usize) -> Option<Result<MacroKind, String>> {
    if let Some(rest) = model.strip_prefix("RRAM_") {
        let parsed = (|| {
            let (mb_s, banks_s) = rest
                .split_once("MB_")
                .ok_or_else(|| format!("malformed RRAM model `{model}`"))?;
            let mb: u64 = mb_s
                .parse()
                .map_err(|_| format!("malformed RRAM capacity in `{model}`"))?;
            let banks: u32 = banks_s
                .strip_suffix('B')
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed RRAM bank count in `{model}`"))?;
            let port = (drive_count as u32 / banks.max(1)).max(1);
            let mac = RramMacro::with_capacity_mb(mb, banks, port, SelectorTech::SiFet)
                .map_err(|e| format!("invalid RRAM macro `{model}`: {e}"))?;
            Ok(MacroKind::Rram(mac))
        })();
        Some(parsed)
    } else {
        model.strip_prefix("SRAM_").map(|rest| {
            rest.strip_suffix("KB")
                .and_then(|v| v.parse().ok())
                .map(|kb| MacroKind::Sram(SramMacro::with_capacity_kb(kb)))
                .ok_or_else(|| format!("malformed SRAM model `{model}`"))
        })
    }
}

/// Input pin names of a cell kind, in pin order.
pub fn input_pins(kind: CellKind) -> &'static [&'static str] {
    match kind {
        CellKind::Inv | CellKind::Buf => &["A"],
        CellKind::Dff => &["D"],
        CellKind::Aoi21 => &["A", "B", "C"],
        CellKind::Mux2 => &["A", "B", "S"],
        CellKind::FullAdder => &["A", "B", "CI"],
        _ => &["A", "B"],
    }
}

/// Output pin names of a cell kind, in pin order.
pub fn output_pins(kind: CellKind) -> &'static [&'static str] {
    match kind {
        CellKind::HalfAdder | CellKind::FullAdder => &["S", "CO"],
        CellKind::Dff => &["Q"],
        _ => &["Y"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_its_model_name() {
        for kind in [
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
        ] {
            for drive in [
                DriveStrength::X1,
                DriveStrength::X2,
                DriveStrength::X4,
                DriveStrength::X8,
            ] {
                let model = cell_model(kind, drive);
                assert_eq!(parse_cell_model(&model), Some((kind, drive)), "{model}");
            }
            assert_eq!(input_pins(kind).len(), kind.input_count());
            assert_eq!(output_pins(kind).len(), kind.output_count());
        }
    }

    #[test]
    fn non_library_models_are_rejected() {
        assert_eq!(parse_cell_model("RRAM_64MB_1B"), None);
        assert_eq!(parse_cell_model("SRAM_16KB"), None);
        assert_eq!(parse_cell_model("NAND2_X3"), None);
        assert_eq!(parse_cell_model("NAND3_X1"), None);
        assert_eq!(parse_cell_model("plainname"), None);
    }

    #[test]
    fn macro_models_round_trip() {
        let k = macro_kind_from_model("RRAM_64MB_4B", 8).unwrap().unwrap();
        assert_eq!(k.model_name(), "RRAM_64MB_4B");
        let k = macro_kind_from_model("SRAM_16KB", 1).unwrap().unwrap();
        assert_eq!(k.model_name(), "SRAM_16KB");
        assert!(macro_kind_from_model("RRAM_xMB_1B", 1).unwrap().is_err());
        assert!(macro_kind_from_model("SRAM_tiny", 1).unwrap().is_err());
        assert!(macro_kind_from_model("PLL", 1).is_none());
    }
}
