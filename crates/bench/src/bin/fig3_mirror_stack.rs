//! Regenerates the paper's **Fig. 3**: a current mirror with width ratios
//! M1:M2:M3 = 1:3:6, stacked with dummies, current-direction balancing
//! and centred placement, wire widths and contact counts adjusted for a
//! high current density.
//!
//! Prints the finger pattern, the matching metrics, the EM report, and
//! writes the layout to `target/fig3_mirror.svg`.

use losac_layout::drc;
use losac_layout::export::to_svg;
use losac_layout::row::build_row;
use losac_layout::stack::{plan_stack, stack_row_spec, StackDevice, StackSpec, StackStyle};
use losac_tech::units::um;
use losac_tech::{Polarity, Technology};
use std::collections::BTreeMap;

fn main() {
    let tech = Technology::cmos06();

    // The paper's mirror: high current density (1 mA through the diode
    // leg scaled by the ratios) so the reliability rules visibly widen
    // wires and multiply contacts.
    let i_unit = 0.5e-3;
    let mut net_currents = BTreeMap::new();
    net_currents.insert("s".to_owned(), 10.0 * i_unit);
    net_currents.insert("d_m1".to_owned(), i_unit);
    net_currents.insert("d_m2".to_owned(), 3.0 * i_unit);
    net_currents.insert("d_m3".to_owned(), 6.0 * i_unit);

    let mk = |name: &str, fingers: u32| StackDevice {
        name: name.into(),
        fingers,
        drain_net: format!("d_{name}"),
        gate_net: "g".into(),
    };
    let spec = StackSpec {
        name: "fig3_mirror".into(),
        polarity: Polarity::Nmos,
        finger_w: um(6.0),
        gate_l: um(2.0),
        devices: vec![mk("m1", 1), mk("m2", 3), mk("m3", 6)],
        source_net: "s".into(),
        bulk_net: "gnd".into(),
        end_dummies: true,
        style: StackStyle::CommonCentroid,
        net_currents,
    };

    let plan = plan_stack(&spec).expect("stack plans");
    println!("Fig. 3 — current mirror stack M1:M2:M3 = 1:3:6");
    println!();
    println!("finger pattern ('-' = dummy):");
    println!("  {}", plan.pattern());
    println!();
    println!(
        "{:>6} {:>18} {:>22}",
        "device", "centroid offset", "direction imbalance"
    );
    for name in ["m1", "m2", "m3"] {
        println!(
            "{name:>6} {:>14.2} gp {:>18}",
            plan.centroid_offset[name], plan.direction_imbalance[name]
        );
    }
    println!("dummies inserted: {}", plan.dummies);

    let row = build_row(&tech, &stack_row_spec(&spec, &plan)).expect("row builds");
    println!();
    println!("electromigration-clean: {}", row.em_clean);
    println!("contacts per net (sized for the current):");
    for (net, n) in &row.contacts {
        println!("  {net:<8} {n:>3} cuts");
    }

    let violations = drc::check(&tech, &row.cell);
    println!("DRC violations: {}", violations.len());
    for v in violations.iter().take(5) {
        println!("  {v}");
    }

    let svg = to_svg(&row.cell);
    let path = "target/fig3_mirror.svg";
    std::fs::create_dir_all("target").ok();
    std::fs::write(path, svg).expect("write svg");
    println!();
    println!("layout written to {path}");
}
