//! Ablation studies for the layout decisions the paper argues for
//! (DESIGN.md §5). Each compares a decision against its ablated variant
//! in the measured quantity, not in wall-clock time:
//!
//! * folding policy — even/internal-drain folding vs a single fold: the
//!   drain area of a frequency-critical device (Fig. 2);
//! * matching style — common-centroid vs interdigitated stacks: the
//!   worst centroid error the stack generator achieves (Fig. 3);
//! * reliability sizing — EM-driven wire widths vs minimum-width wires:
//!   the violation the reliability rules prevent (§3).

use losac::device::folding::{DiffusionGeometry, FoldSpec};
use losac::layout::stack::{plan_stack, StackDevice, StackPlan, StackSpec, StackStyle};
use losac::tech::units::um;
use losac::tech::{Polarity, Technology};
use std::collections::BTreeMap;

#[test]
fn even_internal_folding_at_least_halves_the_drain_area() {
    let tech = Technology::cmos06();
    let w = 40_000;
    let unfolded = DiffusionGeometry::drain(w, FoldSpec::UNFOLDED, &tech.rules);
    let folded = DiffusionGeometry::drain(w, FoldSpec::even_internal(6), &tech.rules);
    let ratio = folded.area / unfolded.area;
    assert!(
        ratio < 0.6,
        "even/internal folding must at least halve the drain area: folded/unfolded = {ratio}"
    );
}

fn two_device_stack(style: StackStyle) -> StackPlan {
    let device = |name: &str| StackDevice {
        name: name.into(),
        fingers: 6,
        drain_net: format!("d{name}"),
        gate_net: format!("g{name}"),
    };
    plan_stack(&StackSpec {
        name: "pair".into(),
        polarity: Polarity::Pmos,
        finger_w: um(6.0),
        gate_l: um(1.0),
        devices: vec![device("a"), device("b")],
        source_net: "s".into(),
        bulk_net: "vdd".into(),
        end_dummies: true,
        style,
        net_currents: BTreeMap::new(),
    })
    .expect("a two-device stack plans")
}

/// The largest centroid offset of any device, in gate pitches.
fn worst_centroid_error(plan: &StackPlan) -> f64 {
    plan.centroid_offset
        .values()
        .fold(0.0f64, |m, o| m.max(o.abs()))
}

#[test]
fn common_centroid_is_no_worse_than_interdigitated() {
    let cc = worst_centroid_error(&two_device_stack(StackStyle::CommonCentroid));
    let inter = worst_centroid_error(&two_device_stack(StackStyle::Interdigitated));
    assert!(
        cc <= inter + 1e-9,
        "common centroid must not be worse than interdigitated: {cc} vs {inter} gate pitches"
    );
}

#[test]
fn em_sizing_widens_a_wire_the_minimum_width_cannot_carry() {
    let tech = Technology::cmos06();
    let current = 5e-3;
    let em_width = tech.reliability.min_metal_width(1, current);
    let min_width = tech.rules.metal1_width;
    assert!(
        em_width > min_width,
        "5 mA must demand more than the minimum width: {em_width} vs {min_width} nm"
    );
    assert!(!tech.reliability.wire_ok(1, min_width, current));
    assert!(tech.reliability.wire_ok(1, em_width, current));
}
