//! Regenerates the paper's **Fig. 5**: the generated layout of the
//! case-4 (all parasitics considered) folded-cascode OTA.
//!
//! Runs the full layout-oriented flow, writes the final layout as SVG and
//! as a CIF-flavoured text dump, and verifies the structural claims the
//! paper makes about the figure:
//!
//! * all transistor folds are chosen so drains are internal diffusions,
//! * the input differential pair is common-centroid with dummies at the
//!   ends,
//! * the layout is free of shorts and design-rule violations.

use losac_core::prelude::*;
use losac_layout::drc;
use losac_layout::export::{to_svg, to_text};

fn main() {
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();
    println!("Fig. 5 — generated layout of the case-4 OTA");

    let flow = layout_oriented_synthesis(
        &tech,
        &specs,
        &FoldedCascodePlan::default(),
        &FlowOptions::default(),
    )
    .expect("flow runs");
    let g = &flow.layout;

    let bbox = g.cell.bbox().expect("layout nonempty");
    println!(
        "layout: {:.1} x {:.1} um, area {:.1} um2",
        bbox.width() as f64 / 1000.0,
        bbox.height() as f64 / 1000.0,
        g.area_m2() * 1e12
    );
    println!("electromigration-clean: {}", g.em_clean);
    println!();

    println!("{:<8} {:>6} {:>12}", "device", "folds", "drawn W (um)");
    for (name, d) in &g.devices {
        println!(
            "{name:<8} {:>6} {:>12.2}",
            d.folds,
            d.drawn_w as f64 / 1000.0
        );
    }
    println!();

    // Structural claims.
    let even_folds = g.devices.values().all(|d| d.folds % 2 == 0 || d.folds == 1);
    println!("all fold counts even (drains internal): {even_folds}");
    let pair = &g.stack_plans["pair"];
    println!("input pair pattern: {}", pair.pattern());
    println!(
        "input pair centroids coincide: {}",
        pair.centroid_offset.values().all(|o| o.abs() < 1e-9)
    );
    println!("input pair dummies: {}", pair.dummies);

    let shorts = drc::check(&tech, &g.cell)
        .into_iter()
        .filter(|v| v.rule == "short")
        .count();
    println!("shorts in final layout: {shorts}");

    std::fs::create_dir_all("target").ok();
    std::fs::write("target/fig5_ota.svg", to_svg(&g.cell)).expect("svg");
    std::fs::write("target/fig5_ota.txt", to_text(&g.cell)).expect("txt");
    println!();
    println!("layout written to target/fig5_ota.svg and target/fig5_ota.txt");
}
