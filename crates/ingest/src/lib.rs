//! # m3d-ingest — external netlist ingestion
//!
//! Parses external designs — EDIF 2.0.0 netlists or the repo's
//! structural-Verilog subset — and flattens them into
//! [`m3d_netlist::Netlist`]s ready for the physical-design flow:
//!
//! 1. [`sexpr`] reads the EDIF source into a generic s-expression tree
//!    with line/column positions, interning every token ([`intern`]);
//! 2. [`edif`] walks that tree into a typed hierarchical AST
//!    ([`ast`]): libraries, cells, views, interfaces, instances, nets;
//! 3. [`elaborate`] recursively flattens the hierarchy, mapping cell
//!    references onto PDK standard cells, memory macros, or opaque
//!    black boxes via the shared naming scheme in
//!    [`m3d_netlist::names`].
//!
//! Structural Verilog is delegated to [`m3d_netlist::from_verilog`];
//! [`Format::Auto`] picks the parser by inspecting the source (EDIF
//! files open with `(`). All failures surface as positioned
//! [`IngestError`]s so callers can report `line N, column M` to the
//! user without re-parsing.
//!
//! ```
//! let src = r#"
//!     (edif demo
//!       (library work
//!         (cell top
//!           (view net (viewType NETLIST)
//!             (interface
//!               (port a (direction INPUT))
//!               (port y (direction OUTPUT)))
//!             (contents
//!               (instance u1 (viewRef net (cellRef INV_X1)))
//!               (net na (joined (portRef a) (portRef A (instanceRef u1))))
//!               (net ny (joined (portRef Y (instanceRef u1)) (portRef y)))))))
//!       (design demo (cellRef top (libraryRef work))))
//! "#;
//! let report = m3d_ingest::ingest(src, m3d_ingest::Format::Auto).unwrap();
//! assert_eq!(report.format, "edif");
//! assert_eq!(report.netlist.cell_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod edif;
pub mod elaborate;
pub mod error;
pub mod intern;
pub mod sexpr;

pub use elaborate::{MAX_FLATTEN_DEPTH, MAX_FLAT_OBJECTS};
pub use error::{IngestError, IngestResult};

use m3d_netlist::Netlist;

/// Input format selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Detect from the content: EDIF sources open with `(`.
    #[default]
    Auto,
    /// EDIF 2.0.0 netlist.
    Edif,
    /// Structural Verilog (the [`m3d_netlist::parser`] subset).
    Verilog,
}

impl Format {
    /// Parses a format name: `"auto"`, `"edif"` or `"verilog"`.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "auto" => Format::Auto,
            "edif" => Format::Edif,
            "verilog" => Format::Verilog,
            _ => return None,
        })
    }
}

/// Resolves [`Format::Auto`]: an EDIF file's first non-whitespace
/// character is `(`; anything else is treated as Verilog.
pub fn detect_format(source: &str) -> Format {
    if source.trim_start().starts_with('(') {
        Format::Edif
    } else {
        Format::Verilog
    }
}

/// A successfully ingested design.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The flattened netlist.
    pub netlist: Netlist,
    /// The concrete source format: `"edif"` or `"verilog"`.
    pub format: &'static str,
    /// Deepest hierarchy level flattened (1 = already flat).
    pub flatten_depth: u32,
}

/// Parses and flattens `source`.
///
/// # Errors
///
/// Returns a positioned [`IngestError`] on lexical, syntactic or
/// semantic problems in the source.
pub fn ingest(source: &str, format: Format) -> IngestResult<IngestReport> {
    let format = match format {
        Format::Auto => detect_format(source),
        f => f,
    };
    match format {
        Format::Edif => {
            let mut interner = intern::Interner::default();
            let tree = sexpr::parse(source, &mut interner)?;
            let ast = edif::parse_edif(&tree, &mut interner)?;
            let out = elaborate::elaborate(&ast, &interner)?;
            Ok(IngestReport {
                netlist: out.netlist,
                format: "edif",
                flatten_depth: out.flatten_depth,
            })
        }
        Format::Verilog => {
            let netlist = m3d_netlist::from_verilog(source)?;
            Ok(IngestReport {
                netlist,
                format: "verilog",
                flatten_depth: 1,
            })
        }
        Format::Auto => unreachable!("Auto was resolved above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_parse() {
        assert_eq!(Format::from_name("auto"), Some(Format::Auto));
        assert_eq!(Format::from_name("edif"), Some(Format::Edif));
        assert_eq!(Format::from_name("verilog"), Some(Format::Verilog));
        assert_eq!(Format::from_name("vhdl"), None);
    }

    #[test]
    fn auto_detection_picks_by_first_character() {
        assert_eq!(detect_format("  \n (edif x)"), Format::Edif);
        assert_eq!(detect_format("// comment\nmodule m ();"), Format::Verilog);
    }

    #[test]
    fn verilog_sources_are_delegated_to_the_netlist_parser() {
        let src = "module m (input a, output y);\n  INV_X1 u1 (.A(a), .Y(y));\nendmodule\n";
        let r = ingest(src, Format::Auto).unwrap();
        assert_eq!(r.format, "verilog");
        assert_eq!(r.flatten_depth, 1);
        assert_eq!(r.netlist.cell_count(), 1);
        assert!(r.netlist.lint().is_empty(), "{:?}", r.netlist.lint());
    }

    #[test]
    fn verilog_errors_keep_positions() {
        let e = ingest("module m (input a output y);\nendmodule\n", Format::Verilog).unwrap_err();
        assert!(e.line > 0, "{e}");
    }
}
