//! Runs the full RTL-to-GDS flow on the 2D baseline and on the
//! iso-footprint, iso-memory-capacity M3D design (the Fig. 2 / Fig. 4b
//! experiment) and prints the post-route comparison.
//!
//! Run with `cargo run --release --example m3d_physical_design`.
//! (Pass `--quick` to use a scaled-down 4×4 computing sub-system.)

use m3d::netlist::{CsConfig, PeConfig};
use m3d::pd::{FlowConfig, FlowReport, Rtl2GdsFlow};

fn row(label: &str, a: impl std::fmt::Display, b: impl std::fmt::Display) {
    println!("{label:<34} {a:>14} {b:>14}");
}

fn report_pair(r2d: &FlowReport, r3d: &FlowReport) {
    row("", "2D baseline", "M3D");
    row("computing sub-systems", r2d.cs_count, r3d.cs_count);
    row(
        "die area (mm²)",
        format!("{:.1}", r2d.die_mm2),
        format!("{:.1}", r3d.die_mm2),
    );
    row("standard cells", r2d.cell_count, r3d.cell_count);
    row(
        "cell area (mm²)",
        format!("{:.2}", r2d.cell_area_mm2),
        format!("{:.2}", r3d.cell_area_mm2),
    );
    row(
        "wirelength (m)",
        format!("{:.2}", r2d.wirelength_m),
        format!("{:.2}", r3d.wirelength_m),
    );
    row("signal ILVs", r2d.signal_ilvs, r3d.signal_ilvs);
    row("RRAM-cell ILVs", r2d.memory_cell_ilvs, r3d.memory_cell_ilvs);
    row(
        "buffers inserted",
        r2d.buffers_inserted,
        r3d.buffers_inserted,
    );
    row(
        "critical path (ns)",
        format!("{:.2}", r2d.critical_path_ns),
        format!("{:.2}", r3d.critical_path_ns),
    );
    row(
        "timing met @20 MHz",
        r2d.timing_met.to_string(),
        r3d.timing_met.to_string(),
    );
    row(
        "RRAM bandwidth (b/cyc)",
        r2d.rram_bandwidth_bits_per_cycle,
        r3d.rram_bandwidth_bits_per_cycle,
    );
    row(
        "total power (mW)",
        format!("{:.1}", r2d.total_power_mw),
        format!("{:.1}", r3d.total_power_mw),
    );
    row(
        "upper-tier power share",
        format!("{:.2} %", 100.0 * r2d.upper_tier_fraction),
        format!("{:.2} %", 100.0 * r3d.upper_tier_fraction),
    );
    row(
        "CS stacked-density increase",
        format!("{:.2} %", 100.0 * r2d.cs_stack_density_increase),
        format!("{:.2} %", 100.0 * r3d.cs_stack_density_increase),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let cs = if quick {
        CsConfig {
            rows: 4,
            cols: 4,
            pe: PeConfig::default(),
            global_buffer_kb: 64,
            local_buffer_kb: 8,
        }
    } else {
        CsConfig::default()
    };

    println!("== 2D baseline flow (Si CMOS + RRAM, CNFET cells blocked) ==");
    let base_cfg = if quick {
        FlowConfig::baseline_2d().with_cs(cs).quick()
    } else {
        FlowConfig::baseline_2d().with_cs(cs)
    };
    let (r2d, _) = Rtl2GdsFlow::new(base_cfg).run()?;

    println!("== M3D flow (8 CSs, CNFET selectors, iso-footprint) ==");
    let m3d_cfg = if quick {
        FlowConfig::m3d(8).with_cs(cs).quick().with_die(r2d.die)
    } else {
        FlowConfig::m3d(8).with_cs(cs).with_die(r2d.die)
    };
    let (r3d, _) = Rtl2GdsFlow::new(m3d_cfg).run()?;

    println!("\n== Post-route comparison (Fig. 2) ==");
    report_pair(&r2d, &r3d);
    Ok(())
}
