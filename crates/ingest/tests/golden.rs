//! Golden-file tests: the checked-in example designs must ingest
//! cleanly with the expected flattened shape, and malformed EDIF must
//! fail with accurate source positions.

use std::time::{Duration, Instant};

use m3d_ingest::{ingest, Format, MAX_FLAT_OBJECTS};
use m3d_tech::StableHash;

const ADDER4_EDIF: &str = include_str!("../../../examples/adder4.edif");
const MAC_UNIT_V: &str = include_str!("../../../examples/mac_unit.v");

#[test]
fn adder4_example_flattens_to_four_full_adders() {
    let r = ingest(ADDER4_EDIF, Format::Auto).unwrap();
    assert_eq!(r.format, "edif");
    assert_eq!(r.flatten_depth, 2, "top + bit_slice");
    let nl = &r.netlist;
    assert_eq!(nl.name, "adder4");
    assert_eq!(nl.cell_count(), 4, "one FA per slice");
    assert_eq!(nl.primary_inputs.len(), 9);
    assert_eq!(nl.primary_outputs.len(), 5);
    assert!(nl.lint().is_empty(), "{:?}", nl.lint());
    // Scoped instance names follow the generator convention.
    let names: Vec<&str> = nl.cells().iter().map(|c| nl.name_of(c.name)).collect();
    assert!(names.contains(&"slice0/fa"), "{names:?}");
    assert!(names.contains(&"slice3/fa"), "{names:?}");
}

#[test]
fn adder4_example_computes_sums() {
    use m3d_netlist::eval::Simulator;
    let nl = ingest(ADDER4_EDIF, Format::Edif).unwrap().netlist;
    let find = |want: &str| {
        nl.nets()
            .iter()
            .enumerate()
            .find(|(_, n)| nl.name_of(n.name) == want)
            .map(|(i, _)| m3d_netlist::NetId(i as u32))
            .unwrap_or_else(|| panic!("net `{want}` missing"))
    };
    let mut sim = Simulator::new(&nl).unwrap();
    // 5 + 9 + 1 = 15: a = 0101, b = 1001, cin = 1.
    for (net, v) in [
        ("a0", true),
        ("a1", false),
        ("a2", true),
        ("a3", false),
        ("b0", true),
        ("b1", false),
        ("b2", false),
        ("b3", true),
        ("cin", true),
    ] {
        sim.set_input(find(net), v);
    }
    sim.eval();
    let sum = [
        sim.value(find("s0")),
        sim.value(find("s1")),
        sim.value(find("s2")),
        sim.value(find("s3")),
        sim.value(find("cout")),
    ]
    .iter()
    .enumerate()
    .map(|(i, &b)| u32::from(b) << i)
    .sum::<u32>();
    assert_eq!(sum, 15);
}

#[test]
fn mac_unit_example_ingests_as_verilog() {
    let r = ingest(MAC_UNIT_V, Format::Auto).unwrap();
    assert_eq!(r.format, "verilog");
    let nl = &r.netlist;
    assert_eq!(nl.cell_count(), 3);
    assert!(nl.clock.is_some(), "clock attribute survives");
    assert!(nl.lint().is_empty(), "{:?}", nl.lint());
    assert!(
        nl.nets().iter().any(|n| nl.name_of(n.name) == "mul/p"),
        "escaped identifier keeps its hierarchical spelling"
    );
}

#[test]
fn edif_errors_point_into_the_source() {
    // Line 4: port with a bad direction keyword.
    let src = "(edif d\n  (library L\n    (cell c (view v\n      \
               (interface (port a (direction SIDEWAYS)))))))";
    let e = ingest(src, Format::Edif).unwrap_err();
    assert_eq!(e.line, 4, "{e}");
    assert!(e.message.contains("SIDEWAYS"), "{e}");

    // Unbalanced parentheses report the opening position.
    let e = ingest("(edif d (library L", Format::Edif).unwrap_err();
    assert!(e.to_string().contains("unclosed"), "{e}");
    assert_eq!((e.line, e.col), (1, 9), "{e}");

    // Semantic error: net joined to a pin of an unknown instance.
    let src = "(edif d (library L (cell top (view v\n\
               (interface (port y (direction OUTPUT)))\n\
               (contents\n\
               (net n (joined (portRef y) (portRef Y (instanceRef ghost)))))))))";
    let e = ingest(src, Format::Edif).unwrap_err();
    assert_eq!(e.line, 4, "{e}");
    assert!(e.message.contains("ghost"), "{e}");
}

#[test]
fn undriven_outputs_and_recursion_are_rejected() {
    let src = "(edif d (library L (cell top (view v\n\
               (interface (port y (direction OUTPUT)))\n\
               (contents)))))";
    let e = ingest(src, Format::Edif).unwrap_err();
    assert!(e.message.contains("undriven"), "{e}");

    // A cell instantiating itself must hit the depth cap, not the stack.
    let src = "(edif d (library L (cell loop (view v (interface)\n\
               (contents (instance again (cellRef loop))))))\n\
               (design d (cellRef loop)))";
    let e = ingest(src, Format::Edif).unwrap_err();
    assert!(e.message.contains("recursive"), "{e}");
}

/// An EDIF hierarchy of `levels` levels over a two-inverter chain, each
/// level chaining ten instances of the one below: it flattens to
/// 2 × 10^`levels` inverters from about 1 KB of source per level.
fn nested_x10(levels: u32) -> String {
    let ports = "(interface (port a (direction INPUT)) (port y (direction OUTPUT)))";
    let mut src = format!(
        "(edif nested (library L\n (cell c0 (view v {ports} (contents\n\
         (instance u0 (cellRef INV_X1)) (instance u1 (cellRef INV_X1))\n\
         (net n0 (joined (portRef a) (portRef A (instanceRef u0))))\n\
         (net n1 (joined (portRef Y (instanceRef u0)) (portRef A (instanceRef u1))))\n\
         (net n2 (joined (portRef Y (instanceRef u1)) (portRef y))))))\n"
    );
    for k in 1..=levels {
        src += &format!(" (cell c{k} (view v {ports} (contents\n");
        for i in 0..10 {
            src += &format!(" (instance u{i} (cellRef c{}))", k - 1);
        }
        src += "\n (net n0 (joined (portRef a) (portRef a (instanceRef u0))))\n";
        for i in 1..10 {
            src += &format!(
                " (net n{i} (joined (portRef y (instanceRef u{})) (portRef a (instanceRef u{i}))))\n",
                i - 1
            );
        }
        src += " (net n10 (joined (portRef y (instanceRef u9)) (portRef y))))))\n";
    }
    src + &format!(") (design nested (cellRef c{levels})))")
}

#[test]
fn nested_hierarchies_over_the_flat_budget_are_refused_before_elaboration() {
    let small = ingest(&nested_x10(2), Format::Edif).unwrap();
    assert_eq!(small.netlist.cell_count(), 200);
    assert_eq!(small.flatten_depth, 3);
    assert!(
        small.netlist.lint().is_empty(),
        "{:?}",
        small.netlist.lint()
    );

    // 2 × 10^6 inverters, 2× the budget in leaves alone, from ~7 KB.
    let src = nested_x10(6);
    assert!(src.len() < 8_000, "{} bytes", src.len());
    let start = Instant::now();
    let e = ingest(&src, Format::Edif).unwrap_err();
    let took = start.elapsed();
    assert!(
        e.message
            .contains(&format!("flattens to more than {MAX_FLAT_OBJECTS}")),
        "{e}"
    );
    assert!(e.line > 0 && e.col > 0, "positioned at the top cell: {e}");
    assert!(took < Duration::from_millis(100), "refused after {took:?}");
}

#[test]
fn black_boxes_come_from_interface_declarations_and_unknown_refs() {
    let src = r#"
        (edif d
          (external iplib
            (cell pll
              (view v (viewType NETLIST)
                (interface
                  (port REF (direction INPUT))
                  (port Q0 (direction OUTPUT))))
              (property area_um2 (number 42.5))))
          (library work
            (cell top
              (view v (viewType NETLIST)
                (interface
                  (port refclk (direction INPUT))
                  (port out (direction OUTPUT)))
                (contents
                  (instance u_pll (cellRef pll))
                  (instance u_mist (cellRef MYSTERY))
                  (net nref (joined (portRef refclk) (portRef REF (instanceRef u_pll))))
                  (net nclk (joined (portRef Q0 (instanceRef u_pll))
                                    (portRef D0 (instanceRef u_mist))))
                  (net nout (joined (portRef out) (portRef Q0 (instanceRef u_mist))))))))
          (design d (cellRef top)))
    "#;
    let r = ingest(src, Format::Edif).unwrap();
    let nl = &r.netlist;
    assert_eq!(nl.cell_count(), 0);
    assert_eq!(nl.macros().len(), 2);
    let pll = nl
        .macros()
        .iter()
        .find(|m| nl.name_of(m.name) == "u_pll")
        .expect("pll macro");
    match &pll.kind {
        m3d_netlist::MacroKind::BlackBox { model, area } => {
            assert_eq!(model, "pll");
            assert!((area.value() - 42.5).abs() < 1e-9);
        }
        other => panic!("expected a black box, got {other:?}"),
    }
    assert_eq!(pll.drives.len(), 1);
    assert_eq!(pll.receives.len(), 1);
    assert!(nl.lint().is_empty(), "{:?}", nl.lint());
}

/// The content keys of both checked-in examples after ingest. Ingested
/// keys name the `flow-v4-<key>.json` cache files, so every name byte
/// and the order of cells, macros and ports are pinned here.
#[test]
fn example_content_keys_are_pinned() {
    for (src, want) in [
        (ADDER4_EDIF, "54647cbbce9e4d3b"),
        (MAC_UNIT_V, "3e901f98b0c89057"),
    ] {
        let nl = ingest(src, Format::Auto).unwrap().netlist;
        assert_eq!(format!("{:016x}", nl.stable_key()), want, "{}", nl.name);
    }
}
