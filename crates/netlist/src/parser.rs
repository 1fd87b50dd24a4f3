//! Parser for the structural-Verilog subset emitted by
//! [`crate::verilog::to_verilog`], closing the round trip: a netlist can
//! be exported, re-imported and re-simulated with identical behaviour
//! and an identical [`m3d_tech::StableHash`] content key.
//!
//! Unlike a line-oriented scraper, this is a real tokenizer + recursive
//! parser: whitespace is free-form, `//` line and `/* … */` block
//! comments are skipped anywhere, escaped identifiers (`\cs0/pe_3 `)
//! map back to their exact source spelling, and `(* key = "value" *)`
//! attribute lists are honoured for the module clock, instance tier
//! bindings and black-box areas. Every syntax and semantic error
//! carries the 1-based line and column of the offending token
//! ([`NetlistError::Parse`]), which the ingestion service surfaces as a
//! `bad-request` diagnostic.
//!
//! The accepted subset requires every net to be declared (as a port or
//! a `wire`) before use, and rejects instances of models outside the
//! PDK library unless they are `RRAM_*`/`SRAM_*` hard macros or carry
//! an `(* area_um2 = "…" *)` black-box attribute.

use std::collections::HashMap;

use m3d_tech::units::SquareMicrons;
use m3d_tech::Tier;

use crate::error::{NetlistError, NetlistResult};
use crate::names::{input_pins, macro_kind_from_model, output_pins, parse_cell_model};
use crate::netlist::{MacroKind, NetId, Netlist};

fn err_at(line: u32, col: u32, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        col,
        message: message.into(),
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// An identifier; `escaped` distinguishes `\wire ` from the keyword.
    Ident { name: String, escaped: bool },
    /// A double-quoted string literal (attribute values).
    Str(String),
    /// `(`, `)`, `;`, `,`, `.` or `=`.
    Punct(char),
    /// `(*`
    AttrOpen,
    /// `*)`
    AttrClose,
}

fn describe(t: &Tok) -> String {
    match t {
        Tok::Ident { name, .. } => format!("`{name}`"),
        Tok::Str(_) => "a string literal".into(),
        Tok::Punct(c) => format!("`{c}`"),
        Tok::AttrOpen => "`(*`".into(),
        Tok::AttrClose => "`*)`".into(),
    }
}

/// A token with its 1-based source position.
#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: u32,
    col: u32,
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Self {
            chars: source.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn lex(mut self) -> NetlistResult<Vec<Token>> {
        let mut toks = Vec::new();
        loop {
            // Skip whitespace and comments.
            loop {
                match (self.peek(), self.peek2()) {
                    (Some(c), _) if c.is_whitespace() => {
                        self.bump();
                    }
                    (Some('/'), Some('/')) => {
                        while self.peek().is_some_and(|c| c != '\n') {
                            self.bump();
                        }
                    }
                    (Some('/'), Some('*')) => {
                        let (l, c) = (self.line, self.col);
                        self.bump();
                        self.bump();
                        loop {
                            match (self.peek(), self.peek2()) {
                                (Some('*'), Some('/')) => {
                                    self.bump();
                                    self.bump();
                                    break;
                                }
                                (Some(_), _) => {
                                    self.bump();
                                }
                                (None, _) => {
                                    return Err(err_at(l, c, "unterminated block comment"));
                                }
                            }
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                '(' if self.peek2() == Some('*') => {
                    self.bump();
                    self.bump();
                    Tok::AttrOpen
                }
                '*' if self.peek2() == Some(')') => {
                    self.bump();
                    self.bump();
                    Tok::AttrClose
                }
                '(' | ')' | ';' | ',' | '.' | '=' => {
                    self.bump();
                    Tok::Punct(c)
                }
                '"' => {
                    self.bump();
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            Some('"') => break,
                            Some(ch) => s.push(ch),
                            None => return Err(err_at(line, col, "unterminated string literal")),
                        }
                    }
                    Tok::Str(s)
                }
                '\\' => {
                    self.bump();
                    let mut s = String::new();
                    while self.peek().is_some_and(|ch| !ch.is_whitespace()) {
                        s.push(self.bump().unwrap_or_default());
                    }
                    if s.is_empty() {
                        return Err(err_at(line, col, "empty escaped identifier"));
                    }
                    Tok::Ident {
                        name: s,
                        escaped: true,
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                    let mut s = String::new();
                    while self
                        .peek()
                        .is_some_and(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == '$')
                    {
                        s.push(self.bump().unwrap_or_default());
                    }
                    Tok::Ident {
                        name: s,
                        escaped: false,
                    }
                }
                other => return Err(err_at(line, col, format!("unexpected character `{other}`"))),
            };
            toks.push(Token { tok, line, col });
        }
        Ok(toks)
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn eof(&self) -> NetlistError {
        let (l, c) = self.toks.last().map_or((1, 1), |t| (t.line, t.col));
        err_at(l, c, "unexpected end of input")
    }

    fn next(&mut self) -> NetlistResult<&'a Token> {
        let t = self.toks.get(self.pos).ok_or_else(|| self.eof())?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_punct(&mut self, want: char) -> NetlistResult<()> {
        let t = self.next()?;
        match t.tok {
            Tok::Punct(c) if c == want => Ok(()),
            _ => Err(err_at(
                t.line,
                t.col,
                format!("expected `{want}`, found {}", describe(&t.tok)),
            )),
        }
    }

    fn expect_ident(&mut self) -> NetlistResult<(&'a str, u32, u32)> {
        let t = self.next()?;
        match &t.tok {
            Tok::Ident { name, .. } => Ok((name, t.line, t.col)),
            _ => Err(err_at(
                t.line,
                t.col,
                format!("expected an identifier, found {}", describe(&t.tok)),
            )),
        }
    }
}

/// One `key = "value"` attribute with the key's position.
struct Attr {
    key: String,
    value: String,
    line: u32,
    col: u32,
}

fn parse_attrs(p: &mut Parser) -> NetlistResult<Vec<Attr>> {
    let mut attrs = Vec::new();
    while matches!(
        p.peek(),
        Some(Token {
            tok: Tok::AttrOpen,
            ..
        })
    ) {
        p.next()?;
        loop {
            let (key, line, col) = p.expect_ident()?;
            p.expect_punct('=')?;
            let t = p.next()?;
            let value = match &t.tok {
                Tok::Str(s) => s.clone(),
                _ => {
                    return Err(err_at(
                        t.line,
                        t.col,
                        format!(
                            "expected a quoted attribute value, found {}",
                            describe(&t.tok)
                        ),
                    ));
                }
            };
            attrs.push(Attr {
                key: key.to_owned(),
                value,
                line,
                col,
            });
            let t = p.next()?;
            match t.tok {
                Tok::Punct(',') => continue,
                Tok::AttrClose => break,
                _ => {
                    return Err(err_at(
                        t.line,
                        t.col,
                        format!("expected `,` or `*)`, found {}", describe(&t.tok)),
                    ));
                }
            }
        }
    }
    Ok(attrs)
}

/// One `.PIN(net)` connection with the pin's position.
struct Conn {
    pin: String,
    net: String,
    line: u32,
    col: u32,
}

fn parse_conns(p: &mut Parser) -> NetlistResult<Vec<Conn>> {
    let mut conns = Vec::new();
    if let Some(Token {
        tok: Tok::Punct(')'),
        ..
    }) = p.peek()
    {
        p.next()?;
        return Ok(conns);
    }
    loop {
        p.expect_punct('.')?;
        let (pin, line, col) = p.expect_ident()?;
        p.expect_punct('(')?;
        let (net, ..) = p.expect_ident()?;
        p.expect_punct(')')?;
        conns.push(Conn {
            pin: pin.to_owned(),
            net: net.to_owned(),
            line,
            col,
        });
        let t = p.next()?;
        match t.tok {
            Tok::Punct(',') => continue,
            Tok::Punct(')') => break,
            _ => {
                return Err(err_at(
                    t.line,
                    t.col,
                    format!("expected `,` or `)`, found {}", describe(&t.tok)),
                ));
            }
        }
    }
    Ok(conns)
}

/// Parses a structural-Verilog module produced by
/// [`crate::verilog::to_verilog`] (or written by hand within the same
/// subset) back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with the 1-based line and column of
/// the offending token on malformed input, undeclared nets, undriven
/// outputs or unknown cell models, and propagates wiring errors.
pub fn from_verilog(source: &str) -> NetlistResult<Netlist> {
    let toks = Lexer::new(source).lex()?;
    let mut p = Parser {
        toks: &toks,
        pos: 0,
    };

    let mut nl = Netlist::new("parsed");
    let mut nets: HashMap<String, NetId> = HashMap::new();

    let module_attrs = parse_attrs(&mut p)?;
    let clock_attr = module_attrs.into_iter().find(|a| a.key == "clock");

    // `module <name> ( <ports> ) ;`
    let t = p.next()?;
    if !matches!(&t.tok, Tok::Ident { name, escaped: false } if name == "module") {
        return Err(err_at(
            t.line,
            t.col,
            format!("expected `module`, found {}", describe(&t.tok)),
        ));
    }
    let (mname, ..) = p.expect_ident()?;
    nl.name = mname.to_owned();
    p.expect_punct('(')?;
    // Primary outputs are resolved after the body so their drivers can
    // be checked; keep each declaration's position for the diagnostic.
    let mut outputs: Vec<(String, u32, u32)> = Vec::new();
    if let Some(Token {
        tok: Tok::Punct(')'),
        ..
    }) = p.peek()
    {
        p.next()?;
    } else {
        loop {
            let (dir, dl, dc) = p.expect_ident()?;
            let is_input = match dir {
                "input" => true,
                "output" => false,
                _ => {
                    return Err(err_at(
                        dl,
                        dc,
                        format!("expected `input` or `output`, found `{dir}`"),
                    ));
                }
            };
            let (pname, pl, pc) = p.expect_ident()?;
            if nets.contains_key(pname) {
                return Err(err_at(pl, pc, format!("duplicate port `{pname}`")));
            }
            let id = nl.add_net(pname.to_owned());
            nets.insert(pname.to_owned(), id);
            if is_input {
                nl.set_primary_input(id)?;
            } else {
                outputs.push((pname.to_owned(), pl, pc));
            }
            let t = p.next()?;
            match t.tok {
                Tok::Punct(',') => continue,
                Tok::Punct(')') => break,
                _ => {
                    return Err(err_at(
                        t.line,
                        t.col,
                        format!("expected `,` or `)`, found {}", describe(&t.tok)),
                    ));
                }
            }
        }
    }
    p.expect_punct(';')?;

    let lookup = |nets: &HashMap<String, NetId>, c: &Conn| -> NetlistResult<NetId> {
        nets.get(&c.net).copied().ok_or_else(|| {
            err_at(
                c.line,
                c.col,
                format!("unknown net `{}` (declare it as a port or wire)", c.net),
            )
        })
    };

    // Body items: wire declarations and instances, until `endmodule`.
    loop {
        let attrs = parse_attrs(&mut p)?;
        let t = p.next()?;
        let (head, head_escaped) = match &t.tok {
            Tok::Ident { name, escaped } => (name.as_str(), *escaped),
            _ => {
                return Err(err_at(
                    t.line,
                    t.col,
                    format!(
                        "expected a declaration or instance, found {}",
                        describe(&t.tok)
                    ),
                ));
            }
        };
        if !head_escaped && head == "endmodule" {
            break;
        }
        if !head_escaped && head == "wire" {
            loop {
                let (wname, wl, wc) = p.expect_ident()?;
                if nets.contains_key(wname) {
                    return Err(err_at(wl, wc, format!("duplicate net `{wname}`")));
                }
                let id = nl.add_net(wname.to_owned());
                nets.insert(wname.to_owned(), id);
                let t = p.next()?;
                match t.tok {
                    Tok::Punct(',') => continue,
                    Tok::Punct(';') => break,
                    _ => {
                        return Err(err_at(
                            t.line,
                            t.col,
                            format!("expected `,` or `;`, found {}", describe(&t.tok)),
                        ));
                    }
                }
            }
            continue;
        }
        if !head_escaped && (head == "input" || head == "output") {
            return Err(err_at(
                t.line,
                t.col,
                "port declarations must appear in the module port list",
            ));
        }

        // Instance: `[attrs] MODEL inst ( .PIN(net), … ) ;`
        let (model, ml, mc) = (head, t.line, t.col);
        let (iname, ..) = p.expect_ident()?;
        p.expect_punct('(')?;
        let conns = parse_conns(&mut p)?;
        p.expect_punct(';')?;

        let tier = match attrs.iter().find(|a| a.key == "tier") {
            None => Tier::SiCmos,
            Some(a) if a.value == "cnfet" => Tier::Cnfet,
            Some(a) if a.value == "si_cmos" => Tier::SiCmos,
            Some(a) => return Err(err_at(a.line, a.col, format!("unknown tier `{}`", a.value))),
        };

        if let Some((kind, drive)) = parse_cell_model(model) {
            for c in &conns {
                if !input_pins(kind).contains(&c.pin.as_str())
                    && !output_pins(kind).contains(&c.pin.as_str())
                {
                    return Err(err_at(
                        c.line,
                        c.col,
                        format!("unknown pin `{}` on `{model}`", c.pin),
                    ));
                }
            }
            let find = |pin: &str| conns.iter().find(|c| c.pin == pin);
            let mut ins = Vec::new();
            for pin in input_pins(kind) {
                let c = find(pin).ok_or_else(|| {
                    err_at(
                        ml,
                        mc,
                        format!("instance `{iname}` is missing input pin `{pin}`"),
                    )
                })?;
                ins.push(lookup(&nets, c)?);
            }
            let mut outs = Vec::new();
            for pin in output_pins(kind) {
                let c = find(pin).ok_or_else(|| {
                    err_at(
                        ml,
                        mc,
                        format!("instance `{iname}` is missing output pin `{pin}`"),
                    )
                })?;
                outs.push(lookup(&nets, c)?);
            }
            nl.add_cell(iname.to_owned(), kind, drive, tier, &ins, &outs)?;
            continue;
        }

        // Hard macros and black boxes follow the writer's convention:
        // `Q*` pins drive, everything else receives.
        let mut drives = Vec::new();
        let mut recvs = Vec::new();
        for c in &conns {
            let id = lookup(&nets, c)?;
            if c.pin.starts_with('Q') {
                drives.push(id);
            } else {
                recvs.push(id);
            }
        }
        let kind = if let Some(mac) = macro_kind_from_model(model, drives.len()) {
            mac.map_err(|msg| err_at(ml, mc, msg))?
        } else if let Some(a) = attrs.iter().find(|a| a.key == "area_um2") {
            let v: f64 = a
                .value
                .parse()
                .map_err(|_| err_at(a.line, a.col, format!("invalid area `{}`", a.value)))?;
            if !v.is_finite() || v < 0.0 {
                return Err(err_at(a.line, a.col, format!("invalid area `{}`", a.value)));
            }
            MacroKind::BlackBox {
                model: model.to_owned(),
                area: SquareMicrons::new(v),
            }
        } else {
            return Err(err_at(
                ml,
                mc,
                format!(
                    "unknown cell model `{model}` \
                     (black boxes need an `(* area_um2 = \"…\" *)` attribute)"
                ),
            ));
        };
        nl.add_macro(iname.to_owned(), kind, &drives, &recvs)?;
    }

    if let Some(t) = p.peek() {
        return Err(err_at(
            t.line,
            t.col,
            format!("unexpected {} after `endmodule`", describe(&t.tok)),
        ));
    }
    for (name, l, c) in outputs {
        let id = nets[&name];
        if nl.net(id)?.driver.is_none() {
            return Err(err_at(l, c, format!("output `{name}` is undriven")));
        }
        nl.set_primary_output(id)?;
    }
    if let Some(a) = clock_attr {
        let id = nets.get(&a.value).copied().ok_or_else(|| {
            err_at(
                a.line,
                a.col,
                format!("clock net `{}` is not declared", a.value),
            )
        })?;
        nl.clock = Some(id);
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Simulator;
    use crate::gen::{array_multiplier, ripple_carry_adder};
    use crate::verilog::to_verilog;
    use m3d_tech::stdcell::{CellKind, DriveStrength};
    use m3d_tech::StableHash;

    fn export_adder() -> (Netlist, Vec<NetId>, Vec<NetId>, Vec<NetId>) {
        let mut nl = Netlist::new("add8");
        let a: Vec<_> = (0..8).map(|i| nl.add_net(format!("a{i}"))).collect();
        let b: Vec<_> = (0..8).map(|i| nl.add_net(format!("b{i}"))).collect();
        for &n in a.iter().chain(&b) {
            nl.set_primary_input(n).unwrap();
        }
        let out = ripple_carry_adder(&mut nl, "add", Tier::SiCmos, &a, &b, None).unwrap();
        for s in out.sum.iter().chain(std::iter::once(&out.cout)) {
            nl.set_primary_output(*s).unwrap();
        }
        (nl, a, b, out.sum)
    }

    #[test]
    fn adder_round_trip_preserves_structure() {
        let (nl, ..) = export_adder();
        let v = to_verilog(&nl);
        let parsed = from_verilog(&v).unwrap();
        assert_eq!(parsed.name, "add8");
        assert_eq!(parsed.cell_count(), nl.cell_count());
        assert_eq!(parsed.net_count(), nl.net_count());
        assert_eq!(parsed.primary_inputs.len(), nl.primary_inputs.len());
        assert_eq!(parsed.primary_outputs.len(), nl.primary_outputs.len());
        assert!(
            parsed.lint().is_empty(),
            "{:?}",
            &parsed.lint()[..parsed.lint().len().min(3)]
        );
        // Names survive exactly, so the content key matches too.
        assert_eq!(parsed.stable_key(), nl.stable_key());
    }

    #[test]
    fn adder_round_trip_preserves_function() {
        let (nl, ..) = export_adder();
        let parsed = from_verilog(&to_verilog(&nl)).unwrap();
        // Names are preserved, so buses re-identify by exact name.
        let find_bus = |prefix: &str, n: usize| -> Vec<NetId> {
            (0..n)
                .map(|i| {
                    let want = format!("{prefix}{i}");
                    NetId(
                        parsed
                            .nets()
                            .iter()
                            .position(|net| parsed.name_of(net.name) == want)
                            .unwrap() as u32,
                    )
                })
                .collect()
        };
        let a = find_bus("a", 8);
        let b = find_bus("b", 8);
        let mut sim = Simulator::new(&parsed).unwrap();
        for (x, y) in [(3u64, 4u64), (100, 155), (255, 1)] {
            sim.set_bus(&a, x);
            sim.set_bus(&b, y);
            sim.eval();
            let sum = parsed
                .primary_outputs
                .iter()
                .enumerate()
                .map(|(i, &n)| u64::from(sim.value(n)) << i)
                .sum::<u64>();
            assert_eq!(sum, x + y, "{x}+{y} (9-bit output incl carry)");
        }
    }

    #[test]
    fn multiplier_round_trip_counts() {
        let mut nl = Netlist::new("mul");
        let a: Vec<_> = (0..8).map(|i| nl.add_net(format!("a{i}"))).collect();
        let b: Vec<_> = (0..8).map(|i| nl.add_net(format!("b{i}"))).collect();
        for &n in a.iter().chain(&b) {
            nl.set_primary_input(n).unwrap();
        }
        let p = array_multiplier(&mut nl, "m", Tier::SiCmos, &a, &b).unwrap();
        for n in p {
            nl.set_primary_output(n).unwrap();
        }
        let parsed = from_verilog(&to_verilog(&nl)).unwrap();
        assert_eq!(parsed.cell_count(), nl.cell_count());
        assert_eq!(parsed.net_count(), nl.net_count());
        assert_eq!(parsed.stable_key(), nl.stable_key());
    }

    #[test]
    fn comments_and_flexible_whitespace_are_accepted() {
        let src = "/* header\n   block */\nmodule m(input a,output y); // ports\n  \
                   NAND2_X1 u1 (.A(a),.B(a),\n     .Y(y)); /* inline */\nendmodule\n";
        let nl = from_verilog(src).unwrap();
        assert_eq!(nl.cell_count(), 1);
        assert!(nl.lint().is_empty());
    }

    #[test]
    fn escaped_identifiers_preserve_hierarchical_names() {
        let src = "module m (\n  input \\cs0/in ,\n  output \\cs0/out \n);\n  \
                   INV_X1 \\cs0/u1 (.A(\\cs0/in ), .Y(\\cs0/out ));\nendmodule";
        let nl = from_verilog(src).unwrap();
        assert_eq!(nl.name_of(nl.nets()[0].name), "cs0/in");
        assert_eq!(nl.name_of(nl.cells()[0].name), "cs0/u1");
    }

    #[test]
    fn tier_and_black_box_attributes_round_trip() {
        let mut nl = Netlist::new("mixed");
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.set_primary_input(a).unwrap();
        nl.add_cell(
            "u1",
            CellKind::Inv,
            DriveStrength::X1,
            Tier::Cnfet,
            &[a],
            &[y],
        )
        .unwrap();
        nl.add_macro(
            "bb",
            MacroKind::BlackBox {
                model: "PLL".into(),
                area: SquareMicrons::new(12.5),
            },
            &[q],
            &[y],
        )
        .unwrap();
        nl.set_primary_output(q).unwrap();
        let v = to_verilog(&nl);
        assert!(v.contains("(* tier = \"cnfet\" *)"));
        assert!(v.contains("(* area_um2 = \"12.5\" *)"));
        let parsed = from_verilog(&v).unwrap();
        assert_eq!(parsed.cells()[0].tier, Tier::Cnfet);
        assert!(matches!(
            &parsed.macros()[0].kind,
            MacroKind::BlackBox { model, area }
                if model == "PLL" && (area.value() - 12.5).abs() < 1e-12
        ));
        assert_eq!(parsed.stable_key(), nl.stable_key());
    }

    #[test]
    fn clock_attribute_round_trips() {
        let mut nl = Netlist::new("seq");
        let clk = nl.add_net("clk");
        let d = nl.add_net("d");
        let q = nl.add_net("q");
        nl.set_primary_input(clk).unwrap();
        nl.set_primary_input(d).unwrap();
        nl.add_cell(
            "ff",
            CellKind::Dff,
            DriveStrength::X1,
            Tier::SiCmos,
            &[d],
            &[q],
        )
        .unwrap();
        nl.set_primary_output(q).unwrap();
        nl.clock = Some(clk);
        let parsed = from_verilog(&to_verilog(&nl)).unwrap();
        let pclk = parsed.clock.expect("clock survives the round trip");
        assert_eq!(parsed.name_of(parsed.nets()[pclk.0 as usize].name), "clk");
        assert_eq!(parsed.stable_key(), nl.stable_key());
    }

    #[test]
    fn duplicate_names_stay_distinct() {
        let mut nl = Netlist::new("dup");
        let a = nl.add_net("x");
        let b = nl.add_net("x");
        nl.set_primary_input(a).unwrap();
        nl.set_primary_input(b).unwrap();
        let y = nl.add_net("y");
        nl.add_cell(
            "u",
            CellKind::Nand2,
            DriveStrength::X1,
            Tier::SiCmos,
            &[a, b],
            &[y],
        )
        .unwrap();
        nl.set_primary_output(y).unwrap();
        let v = to_verilog(&nl);
        assert!(v.contains("x__2"), "{v}");
        let parsed = from_verilog(&v).unwrap();
        assert_eq!(parsed.net_count(), 3, "the two `x` nets must not merge");
        assert_ne!(parsed.cells()[0].inputs[0], parsed.cells()[0].inputs[1]);
    }

    #[test]
    fn errors_carry_source_positions() {
        // Bad port direction at line 3, column 3.
        let err = from_verilog("module m (\n  input a,\n  banana b\n);\nendmodule").unwrap_err();
        match err {
            NetlistError::Parse { line, col, message } => {
                assert_eq!((line, col), (3, 3), "{message}");
                assert!(message.contains("banana"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Unknown model at line 5, column 3.
        let src = "module m (\n  input a\n);\n  wire y;\n  FANCY u1 (.A(a), .Q0(y));\nendmodule";
        match from_verilog(src).unwrap_err() {
            NetlistError::Parse { line, col, message } => {
                assert_eq!((line, col), (5, 3), "{message}");
                assert!(message.contains("FANCY"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Undeclared net at its use site.
        let src =
            "module m (\n  input a\n);\n  wire y;\n  INV_X1 u1 (.A(ghost), .Y(y));\nendmodule";
        match from_verilog(src).unwrap_err() {
            NetlistError::Parse { line, message, .. } => {
                assert_eq!(line, 5, "{message}");
                assert!(message.contains("ghost"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_input_is_rejected() {
        // Undriven output.
        assert!(from_verilog("module broken (\n  output z\n);\nendmodule").is_err());
        // An input-only module is fine.
        let ok = from_verilog("// Generated\nmodule empty (\n  input n0_a\n);\nendmodule");
        assert!(ok.is_ok());
        // Truncated source reports end-of-input.
        assert!(from_verilog("module cut (").is_err());
    }
}
