//! Typed walker: generic [`Sexp`] trees → the EDIF AST.
//!
//! EDIF files are richly decorated (`status`, `written`, `comment`,
//! `timeStamp`, `property`, …); the walker recognises the netlist
//! subset it needs — libraries, cells, views, interfaces, contents,
//! instances, nets and a handful of properties — and skips unknown
//! forms, while malformed *recognised* forms fail with a positioned
//! error. Keywords are matched case-insensitively (`cellRef` ≡
//! `cellref`), and `(rename sane "original")` names resolve to the
//! original spelling.

use crate::ast::{Cell, Dir, Edif, Instance, Library, Net, Port, PortRef, View};
use crate::error::{IngestError, IngestResult};
use crate::intern::{Atom, Interner};
use crate::sexpr::Sexp;

struct Walker<'a> {
    interner: &'a mut Interner,
}

fn parse_nonneg(s: &str, line: u32, col: u32) -> IngestResult<f64> {
    let v: f64 = s
        .parse()
        .map_err(|_| IngestError::new(line, col, format!("invalid number `{s}`")))?;
    if !v.is_finite() || v < 0.0 {
        return Err(IngestError::new(line, col, format!("invalid number `{s}`")));
    }
    Ok(v)
}

impl Walker<'_> {
    /// Dissects a list whose first item is a symbol, returning the
    /// lower-cased keyword, all items, and the list's position.
    fn list_with_head<'s>(&self, s: &'s Sexp) -> Option<(String, &'s [Sexp], u32, u32)> {
        if let Sexp::List { items, line, col } = s {
            if let Some(Sexp::Sym { atom, .. }) = items.first() {
                let kw = self.interner.resolve(*atom).to_ascii_lowercase();
                return Some((kw, items, *line, *col));
            }
        }
        None
    }

    /// Resolves a name position: a bare symbol, or
    /// `(rename sane "original")` yielding the original spelling.
    fn name_of(&mut self, s: &Sexp) -> IngestResult<Atom> {
        match s {
            Sexp::Sym { atom, .. } => Ok(*atom),
            Sexp::List { .. } => {
                if let Some((kw, items, line, col)) = self.list_with_head(s) {
                    if kw == "rename" {
                        if let Some(Sexp::Str { value, .. }) = items.get(2) {
                            let v = value.clone();
                            return Ok(self.interner.intern(&v));
                        }
                        if let Some(Sexp::Sym { atom, .. }) = items.get(1) {
                            return Ok(*atom);
                        }
                        return Err(IngestError::new(line, col, "malformed `(rename …)`"));
                    }
                    if kw == "array" {
                        return Err(IngestError::new(
                            line,
                            col,
                            "bus (array) names are not supported",
                        ));
                    }
                }
                let (l, c) = s.pos();
                Err(IngestError::new(l, c, "expected a name"))
            }
            Sexp::Str { line, col, .. } => Err(IngestError::new(
                *line,
                *col,
                "expected a name, found a string",
            )),
        }
    }

    /// The lower-cased property name of a `(property NAME …)` form.
    fn property_name(&self, items: &[Sexp]) -> Option<String> {
        match items.get(1) {
            Some(Sexp::Sym { atom, .. }) => Some(self.interner.resolve(*atom).to_ascii_lowercase()),
            _ => None,
        }
    }

    /// The string payload of a `(property N (string "v"))` form.
    fn string_value(&self, items: &[Sexp], line: u32, col: u32) -> IngestResult<String> {
        for form in items.iter().skip(2) {
            if let Sexp::Str { value, .. } = form {
                return Ok(value.clone());
            }
            if let Some((kw, vs, ..)) = self.list_with_head(form) {
                if kw == "string" {
                    if let Some(Sexp::Str { value, .. }) = vs.get(1) {
                        return Ok(value.clone());
                    }
                }
            }
        }
        Err(IngestError::new(line, col, "property has no string value"))
    }

    /// `(e mantissa exponent)` → `mantissa · 10^exponent`.
    fn scaled_number(&self, items: &[Sexp], line: u32, col: u32) -> IngestResult<f64> {
        let num = |s: Option<&Sexp>| -> Option<f64> {
            if let Some(Sexp::Sym { atom, .. }) = s {
                self.interner.resolve(*atom).parse().ok()
            } else {
                None
            }
        };
        match (num(items.get(1)), num(items.get(2))) {
            (Some(m), Some(x)) => Ok(m * 10f64.powf(x)),
            _ => Err(IngestError::new(
                line,
                col,
                "malformed `(e mantissa exponent)`",
            )),
        }
    }

    /// Parses `(property area_um2 …)` with a number, `(e m x)` or
    /// string payload. `Ok(None)` when the property has another name.
    fn area_property(&self, items: &[Sexp]) -> IngestResult<Option<f64>> {
        if self.property_name(items).as_deref() != Some("area_um2") {
            return Ok(None);
        }
        for form in items.iter().skip(2) {
            let (l, c) = form.pos();
            match form {
                Sexp::Str { value, .. } => return parse_nonneg(value, l, c).map(Some),
                Sexp::Sym { atom, .. } => {
                    return parse_nonneg(self.interner.resolve(*atom), l, c).map(Some);
                }
                Sexp::List { .. } => {
                    if let Some((kw, vs, vl, vc)) = self.list_with_head(form) {
                        match kw.as_str() {
                            "string" => {
                                if let Some(Sexp::Str { value, line, col }) = vs.get(1) {
                                    return parse_nonneg(value, *line, *col).map(Some);
                                }
                            }
                            "number" => return self.number_value(vs, vl, vc).map(Some),
                            "e" => return self.scaled_number(vs, vl, vc).map(Some),
                            _ => {}
                        }
                    }
                }
            }
        }
        let (l, c) = items.first().map_or((0, 0), Sexp::pos);
        Err(IngestError::new(l, c, "`area_um2` property has no value"))
    }

    /// The payload of a `(number …)` form: a numeric token or `(e m x)`.
    fn number_value(&self, items: &[Sexp], line: u32, col: u32) -> IngestResult<f64> {
        match items.get(1) {
            Some(Sexp::Sym { atom, line, col }) => {
                parse_nonneg(self.interner.resolve(*atom), *line, *col)
            }
            Some(form @ Sexp::List { .. }) => {
                if let Some((kw, vs, l, c)) = self.list_with_head(form) {
                    if kw == "e" {
                        return self.scaled_number(vs, l, c);
                    }
                }
                let (l, c) = form.pos();
                Err(IngestError::new(l, c, "malformed number"))
            }
            _ => Err(IngestError::new(line, col, "malformed number")),
        }
    }

    fn library(&mut self, items: &[Sexp], line: u32, col: u32) -> IngestResult<Library> {
        let name_form = items
            .get(1)
            .ok_or_else(|| IngestError::new(line, col, "missing library name"))?;
        let name = self.name_of(name_form)?;
        let mut cells = Vec::new();
        for form in items.iter().skip(2) {
            if let Some((kw, sub, l, c)) = self.list_with_head(form) {
                if kw == "cell" {
                    cells.push(self.cell(sub, l, c)?);
                }
            }
        }
        Ok(Library { name, cells })
    }

    fn cell(&mut self, items: &[Sexp], line: u32, col: u32) -> IngestResult<Cell> {
        let name_form = items
            .get(1)
            .ok_or_else(|| IngestError::new(line, col, "missing cell name"))?;
        let name = self.name_of(name_form)?;
        let mut view = View::default();
        let mut area_um2 = None;
        let mut saw_view = false;
        for form in items.iter().skip(2) {
            let Some((kw, sub, l, c)) = self.list_with_head(form) else {
                continue;
            };
            match kw.as_str() {
                "view" if !saw_view => {
                    saw_view = true;
                    let (v, a) = self.view(sub, l, c)?;
                    view = v;
                    if a.is_some() {
                        area_um2 = a;
                    }
                }
                "property" => {
                    if let Some(v) = self.area_property(sub)? {
                        area_um2 = Some(v);
                    }
                }
                _ => {}
            }
        }
        Ok(Cell {
            name,
            view,
            area_um2,
            line,
            col,
        })
    }

    fn view(&mut self, items: &[Sexp], _line: u32, _col: u32) -> IngestResult<(View, Option<f64>)> {
        let mut view = View::default();
        let mut area_um2 = None;
        for form in items.iter().skip(2) {
            let Some((kw, sub, ..)) = self.list_with_head(form) else {
                continue;
            };
            match kw.as_str() {
                "interface" => {
                    for pf in sub.iter().skip(1) {
                        if let Some((pkw, ps, pl, pc)) = self.list_with_head(pf) {
                            if pkw == "port" {
                                view.interface.push(self.port(ps, pl, pc)?);
                            }
                        }
                    }
                }
                "contents" => {
                    view.has_contents = true;
                    for cf in sub.iter().skip(1) {
                        let Some((ckw, cs, cl, cc)) = self.list_with_head(cf) else {
                            continue;
                        };
                        match ckw.as_str() {
                            "instance" => view.instances.push(self.instance(cs, cl, cc)?),
                            "net" => view.nets.push(self.net(cs, cl, cc)?),
                            _ => {}
                        }
                    }
                }
                "property" => {
                    if let Some(v) = self.area_property(sub)? {
                        area_um2 = Some(v);
                    }
                }
                _ => {}
            }
        }
        Ok((view, area_um2))
    }

    fn port(&mut self, items: &[Sexp], line: u32, col: u32) -> IngestResult<Port> {
        let name_form = items
            .get(1)
            .ok_or_else(|| IngestError::new(line, col, "missing port name"))?;
        let name = self.name_of(name_form)?;
        let mut dir = None;
        for form in items.iter().skip(2) {
            if let Some((kw, sub, l, c)) = self.list_with_head(form) {
                if kw == "direction" {
                    let d = match sub.get(1) {
                        Some(Sexp::Sym { atom, .. }) => {
                            match self.interner.resolve(*atom).to_ascii_uppercase().as_str() {
                                "INPUT" => Dir::Input,
                                "OUTPUT" => Dir::Output,
                                "INOUT" => Dir::Inout,
                                other => {
                                    return Err(IngestError::new(
                                        l,
                                        c,
                                        format!("unknown port direction `{other}`"),
                                    ));
                                }
                            }
                        }
                        _ => return Err(IngestError::new(l, c, "malformed `(direction …)`")),
                    };
                    dir = Some(d);
                }
            }
        }
        match dir {
            Some(dir) => Ok(Port {
                name,
                dir,
                line,
                col,
            }),
            None => Err(IngestError::new(
                line,
                col,
                format!(
                    "port `{}` has no `(direction …)`",
                    self.interner.resolve(name)
                ),
            )),
        }
    }

    fn instance(&mut self, items: &[Sexp], line: u32, col: u32) -> IngestResult<Instance> {
        let name_form = items
            .get(1)
            .ok_or_else(|| IngestError::new(line, col, "missing instance name"))?;
        let name = self.name_of(name_form)?;
        let mut cell_ref = None;
        let mut tier_cnfet = false;
        for form in items.iter().skip(2) {
            let Some((kw, sub, l, c)) = self.list_with_head(form) else {
                continue;
            };
            match kw.as_str() {
                "viewref" => {
                    for inner in sub.iter().skip(1) {
                        if let Some((ikw, isub, il, ic)) = self.list_with_head(inner) {
                            if ikw == "cellref" {
                                let nf = isub.get(1).ok_or_else(|| {
                                    IngestError::new(il, ic, "missing cell name in `cellRef`")
                                })?;
                                cell_ref = Some(self.name_of(nf)?);
                            }
                        }
                    }
                }
                "cellref" => {
                    let nf = sub
                        .get(1)
                        .ok_or_else(|| IngestError::new(l, c, "missing cell name in `cellRef`"))?;
                    cell_ref = Some(self.name_of(nf)?);
                }
                "property" if self.property_name(sub).as_deref() == Some("tier") => {
                    match self.string_value(sub, l, c)?.as_str() {
                        "cnfet" => tier_cnfet = true,
                        "si_cmos" => tier_cnfet = false,
                        other => {
                            return Err(IngestError::new(l, c, format!("unknown tier `{other}`")));
                        }
                    }
                }
                _ => {}
            }
        }
        let cell_ref =
            cell_ref.ok_or_else(|| IngestError::new(line, col, "instance has no `cellRef`"))?;
        Ok(Instance {
            name,
            cell_ref,
            tier_cnfet,
            line,
            col,
        })
    }

    fn net(&mut self, items: &[Sexp], line: u32, col: u32) -> IngestResult<Net> {
        let name_form = items
            .get(1)
            .ok_or_else(|| IngestError::new(line, col, "missing net name"))?;
        let name = self.name_of(name_form)?;
        let mut ports = Vec::new();
        for form in items.iter().skip(2) {
            let Some((kw, sub, ..)) = self.list_with_head(form) else {
                continue;
            };
            if kw != "joined" {
                continue;
            }
            for pf in sub.iter().skip(1) {
                let Some((pkw, ps, pl, pc)) = self.list_with_head(pf) else {
                    let (l, c) = pf.pos();
                    return Err(IngestError::new(l, c, "expected a `(portRef …)`"));
                };
                if pkw != "portref" {
                    return Err(IngestError::new(
                        pl,
                        pc,
                        format!("expected `portRef`, found `{pkw}`"),
                    ));
                }
                let pname_form = ps
                    .get(1)
                    .ok_or_else(|| IngestError::new(pl, pc, "missing port name in `portRef`"))?;
                if let Some((mk, _, ml, mc)) = self.list_with_head(pname_form) {
                    if mk == "member" {
                        return Err(IngestError::new(
                            ml,
                            mc,
                            "bus (member) port refs are not supported",
                        ));
                    }
                }
                let port = self.name_of(pname_form)?;
                let mut instance = None;
                for inner in ps.iter().skip(2) {
                    if let Some((ikw, isub, il, ic)) = self.list_with_head(inner) {
                        if ikw == "instanceref" {
                            let nf = isub.get(1).ok_or_else(|| {
                                IngestError::new(il, ic, "missing instance name in `instanceRef`")
                            })?;
                            instance = Some(self.name_of(nf)?);
                        }
                    }
                }
                ports.push(PortRef {
                    port,
                    instance,
                    line: pl,
                    col: pc,
                });
            }
        }
        Ok(Net {
            name,
            ports,
            line,
            col,
        })
    }

    fn design_top(&mut self, items: &[Sexp], line: u32, col: u32) -> IngestResult<Atom> {
        for form in items.iter().skip(2) {
            if let Some((kw, sub, l, c)) = self.list_with_head(form) {
                if kw == "cellref" {
                    let nf = sub
                        .get(1)
                        .ok_or_else(|| IngestError::new(l, c, "missing cell name in `cellRef`"))?;
                    return self.name_of(nf);
                }
            }
        }
        Err(IngestError::new(
            line,
            col,
            "`design` form has no `cellRef`",
        ))
    }
}

/// Walks one parsed s-expression into the typed [`Edif`] AST.
///
/// # Errors
///
/// Returns a positioned [`IngestError`] when the form is not an
/// `(edif …)` netlist or a recognised sub-form is malformed.
pub fn parse_edif(sexp: &Sexp, interner: &mut Interner) -> IngestResult<Edif> {
    let mut w = Walker { interner };
    let Some((kw, items, line, col)) = w.list_with_head(sexp) else {
        let (l, c) = sexp.pos();
        return Err(IngestError::new(l, c, "expected an `(edif …)` form"));
    };
    if kw != "edif" {
        return Err(IngestError::new(
            line,
            col,
            format!("expected `edif`, found `{kw}`"),
        ));
    }
    let name_form = items
        .get(1)
        .ok_or_else(|| IngestError::new(line, col, "missing design name after `edif`"))?;
    let design_name = w.name_of(name_form)?;
    let mut libraries = Vec::new();
    let mut top = None;
    for form in items.iter().skip(2) {
        let Some((kw, sub, l, c)) = w.list_with_head(form) else {
            continue;
        };
        match kw.as_str() {
            "library" | "external" => libraries.push(w.library(sub, l, c)?),
            "design" => top = Some(w.design_top(sub, l, c)?),
            // edifVersion, edifLevel, keywordMap, status, comment, … are
            // accepted and ignored.
            _ => {}
        }
    }
    Ok(Edif {
        design_name,
        libraries,
        top,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sexpr;

    fn walk(src: &str) -> IngestResult<(Edif, Interner)> {
        let mut i = Interner::default();
        let tree = sexpr::parse(src, &mut i)?;
        let ast = parse_edif(&tree, &mut i)?;
        Ok((ast, i))
    }

    #[test]
    fn parses_a_minimal_hierarchical_file() {
        let src = r#"
            (edif demo
              (edifVersion 2 0 0)
              (library work
                (cell top
                  (view net (viewType NETLIST)
                    (interface
                      (port a (direction INPUT))
                      (port y (direction OUTPUT)))
                    (contents
                      (instance u1 (viewRef net (cellRef INV_X1 (libraryRef pdk))))
                      (net n1 (joined (portRef a) (portRef A (instanceRef u1))))
                      (net n2 (joined (portRef Y (instanceRef u1)) (portRef y)))))))
              (design demo (cellRef top (libraryRef work))))
        "#;
        let (ast, i) = walk(src).unwrap();
        assert_eq!(i.resolve(ast.design_name), "demo");
        assert_eq!(ast.libraries.len(), 1);
        let cell = &ast.libraries[0].cells[0];
        assert_eq!(i.resolve(cell.name), "top");
        assert_eq!(cell.view.interface.len(), 2);
        assert_eq!(cell.view.interface[0].dir, Dir::Input);
        assert_eq!(cell.view.instances.len(), 1);
        assert_eq!(i.resolve(cell.view.instances[0].cell_ref), "INV_X1");
        assert_eq!(cell.view.nets.len(), 2);
        assert!(cell.view.nets[0].ports[0].instance.is_none());
        assert_eq!(i.resolve(ast.top.unwrap()), "top");
    }

    #[test]
    fn rename_recovers_the_original_spelling() {
        let src = r#"(edif d (library L (cell (rename c_1 "c/1")
            (view v (viewType NETLIST) (interface)))))"#;
        let (ast, i) = walk(src).unwrap();
        assert_eq!(i.resolve(ast.libraries[0].cells[0].name), "c/1");
    }

    #[test]
    fn area_property_accepts_number_string_and_scaled_forms() {
        for payload in ["(number 12.5)", "(string \"12.5\")", "(number (e 125 -1))"] {
            let src = format!(
                "(edif d (library L (cell bb (view v (interface \
                 (port Q0 (direction OUTPUT)))) (property area_um2 {payload}))))"
            );
            let (ast, _) = walk(&src).unwrap();
            let a = ast.libraries[0].cells[0].area_um2.unwrap();
            assert!((a - 12.5).abs() < 1e-9, "{payload}: {a}");
        }
    }

    #[test]
    fn missing_direction_is_a_positioned_error() {
        let src = "(edif d\n  (library L\n    (cell c (view v\n      (interface (port a))))))";
        let e = walk(src).unwrap_err();
        assert_eq!((e.line, e.col), (4, 18), "{e}");
        assert!(e.message.contains("direction"));
    }

    #[test]
    fn bus_ports_are_rejected() {
        let src = "(edif d (library L (cell c (view v (interface \
                   (port (array data 8) (direction INPUT)))))))";
        let e = walk(src).unwrap_err();
        assert!(e.message.contains("array"), "{e}");
    }
}
