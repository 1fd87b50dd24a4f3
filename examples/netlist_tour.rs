//! A tour of the netlist substrate: generate the accelerator's datapath
//! blocks, prove they compute with the functional simulator, and
//! round-trip through structural Verilog.
//!
//! Run with `cargo run --example netlist_tour`.

use m3d::netlist::gen::{array_multiplier, ripple_carry_adder};
use m3d::netlist::{from_verilog, to_verilog, Netlist, Simulator};
use m3d::tech::Tier;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Generate an 8×8 array multiplier ---------------------------
    let mut nl = Netlist::new("mul8");
    let a: Vec<_> = (0..8).map(|i| nl.add_net(format!("a{i}"))).collect();
    let b: Vec<_> = (0..8).map(|i| nl.add_net(format!("b{i}"))).collect();
    for &n in a.iter().chain(&b) {
        nl.set_primary_input(n)?;
    }
    let product = array_multiplier(&mut nl, "mul", Tier::SiCmos, &a, &b)?;
    for &n in &product {
        nl.set_primary_output(n)?;
    }
    println!(
        "generated {} cells, {} nets",
        nl.cell_count(),
        nl.net_count()
    );

    // --- 2. Prove it multiplies -----------------------------------------
    let mut sim = Simulator::new(&nl)?;
    for (x, y) in [(13u64, 17u64), (255, 255), (99, 201)] {
        sim.set_bus(&a, x);
        sim.set_bus(&b, y);
        sim.eval();
        let p = sim.bus_value(&product);
        println!("  {x} × {y} = {p} {}", if p == x * y { "✓" } else { "✗" });
        assert_eq!(p, x * y);
    }

    // --- 3. Verilog round trip -------------------------------------------
    let verilog = to_verilog(&nl);
    println!(
        "\nVerilog export: {} lines (head below)",
        verilog.lines().count()
    );
    for line in verilog.lines().take(5) {
        println!("  {line}");
    }
    let parsed = from_verilog(&verilog)?;
    assert_eq!(parsed.cell_count(), nl.cell_count());
    println!(
        "re-parsed: {} cells — structure preserved ✓",
        parsed.cell_count()
    );

    // --- 4. A fast adder for contrast --------------------------------------
    let mut add = Netlist::new("add16");
    let aa: Vec<_> = (0..16).map(|i| add.add_net(format!("a{i}"))).collect();
    let bb: Vec<_> = (0..16).map(|i| add.add_net(format!("b{i}"))).collect();
    for &n in aa.iter().chain(&bb) {
        add.set_primary_input(n)?;
    }
    let out = ripple_carry_adder(&mut add, "add", Tier::SiCmos, &aa, &bb, None)?;
    for s in out.sum.iter().chain(std::iter::once(&out.cout)) {
        add.set_primary_output(*s)?;
    }
    let mut sim = Simulator::new(&add)?;
    sim.set_bus(&aa, 40_000);
    sim.set_bus(&bb, 30_000);
    sim.eval();
    let sum = sim.bus_value(&out.sum) | (u64::from(sim.value(out.cout)) << 16);
    println!("\n16-bit adder: 40000 + 30000 = {sum} ✓");
    Ok(())
}
