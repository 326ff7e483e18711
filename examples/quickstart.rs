//! Quickstart: size the paper's folded-cascode OTA, run the full
//! layout-oriented synthesis loop, and print what came out.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use losac::flow::prelude::*;
use losac::sizing::eval::evaluate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A technology and a specification (the paper's example values).
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();
    println!("spec: {specs}");

    // 2. Run the layout-oriented flow: sizing and layout iterate until
    //    the calculated parasitics stop changing.
    let result = layout_oriented_synthesis(
        &tech,
        &specs,
        &FoldedCascodePlan::default(),
        &FlowOptions::default(),
    )?;
    println!(
        "\nconverged: {} ({} layout calls, {:.2?})",
        result.converged, result.layout_calls, result.elapsed
    );

    // 3. The sized devices.
    println!("\ndevices:");
    for (name, d) in result.ota.devices() {
        println!(
            "  {name:<8} W = {:7.2} um  L = {:.2} um",
            d.w * 1e6,
            d.l * 1e6
        );
    }

    // 4. Verified performance, with all extracted parasitics.
    let perf = evaluate(result.ota.as_ref(), &tech, &result.mode)?;
    println!("\nperformance (with layout parasitics):\n{perf}");

    // 5. The physical layout.
    let bbox = result.layout.cell.bbox().expect("layout exists");
    println!(
        "\nlayout: {:.1} x {:.1} um ({} shapes)",
        bbox.width() as f64 / 1000.0,
        bbox.height() as f64 / 1000.0,
        result.layout.cell.shapes.len()
    );
    Ok(())
}
