//! Matched current-mirror layout (the paper's Fig. 3 scenario): stack a
//! 1:2:4 NMOS mirror, inspect the matching pattern, check the design
//! rules, extract the parasitics, and export the geometry.
//!
//! ```sh
//! cargo run --release --example current_mirror_layout
//! ```

use losac::layout::drc;
use losac::layout::export::{to_svg, to_text};
use losac::layout::extract::extract_default;
use losac::layout::row::build_row;
use losac::layout::stack::{plan_stack, stack_row_spec, StackDevice, StackSpec, StackStyle};
use losac::tech::units::um;
use losac::tech::{Polarity, Technology};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::cmos06();

    // A 1:2:4 mirror carrying 200 µA on the diode leg.
    let i_unit = 200e-6;
    let mut net_currents = BTreeMap::new();
    net_currents.insert("src".to_owned(), 7.0 * i_unit);
    net_currents.insert("d_bias".to_owned(), i_unit);
    net_currents.insert("d_out1".to_owned(), 2.0 * i_unit);
    net_currents.insert("d_out2".to_owned(), 4.0 * i_unit);

    let spec = StackSpec {
        name: "mirror".into(),
        polarity: Polarity::Nmos,
        finger_w: um(5.0),
        gate_l: um(2.0),
        devices: vec![
            StackDevice {
                name: "bias".into(),
                fingers: 2,
                drain_net: "d_bias".into(),
                gate_net: "g".into(),
            },
            StackDevice {
                name: "out1".into(),
                fingers: 4,
                drain_net: "d_out1".into(),
                gate_net: "g".into(),
            },
            StackDevice {
                name: "out2".into(),
                fingers: 8,
                drain_net: "d_out2".into(),
                gate_net: "g".into(),
            },
        ],
        source_net: "src".into(),
        bulk_net: "gnd".into(),
        end_dummies: true,
        style: StackStyle::CommonCentroid,
        net_currents,
    };

    let plan = plan_stack(&spec)?;
    println!("pattern: {}", plan.pattern());
    for d in ["bias", "out1", "out2"] {
        println!(
            "  {d:<5} centroid offset {:+.2} gp, direction imbalance {}",
            plan.centroid_offset[d], plan.direction_imbalance[d]
        );
    }

    let row = build_row(&tech, &stack_row_spec(&spec, &plan))?;
    println!("\nEM-clean: {}", row.em_clean);
    let violations = drc::check(&tech, &row.cell);
    println!("DRC violations: {}", violations.len());

    let x = extract_default(&tech, &row.cell);
    println!("\nper-net wiring capacitance:");
    for (net, c) in &x.net_cap {
        println!("  {net:<8} {:6.1} fF", c * 1e15);
    }

    std::fs::create_dir_all("target")?;
    std::fs::write("target/current_mirror.svg", to_svg(&row.cell))?;
    std::fs::write("target/current_mirror.txt", to_text(&row.cell))?;
    println!("\nlayout written to target/current_mirror.svg (+ .txt)");
    Ok(())
}
