//! Layout-plan construction from a topology's declared layout spec, and
//! the conversion of the layout tool's parasitic report into sizing-tool
//! feedback.
//!
//! This module is the "glue" the paper describes in §2: it carries
//! transistor sizes, currents, layout options (matching styles) and the
//! shape constraint *to* the layout tool, and folding styles, diffusion
//! geometry, routing/coupling/well capacitance *back* to the sizing tool.
//! The plan is built from [`Topology::layout_spec`] — matched groups
//! become interdigitated stacks, standalone devices fold individually —
//! so any topology that declares its groups gets the full treatment.

use losac_layout::plan::{DeviceDef, FoldPolicy, LayoutPlan, Module, ParasiticReport};
use losac_layout::slicing::SlicingTree;
use losac_layout::stack::{StackDevice, StackSpec, StackStyle};
use losac_sizing::{DeviceFeedback, LayoutFeedback, LayoutModule, Topology};
use losac_tech::units::{m_to_nm, Nm};
use losac_tech::Technology;
use std::collections::BTreeMap;

/// Options forwarded to the layout tool ("layout options regarding the
/// implementation of certain devices", §2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayoutOptions {
    /// Matching style of the input differential pair.
    pub input_pair_style: StackStyle,
    /// Target finger channel width for the stacked matched groups (nm);
    /// 0, the default, means 12 µm.
    pub finger_target: Nm,
    /// Freeze fold counts to these values (device name → folds). The flow
    /// sets this after the first layout call so the discrete folding
    /// decisions stay put while the continuous sizes converge.
    pub fold_hints: BTreeMap<String, u32>,
}

/// Build a topology's layout plan from the sized circuit.
///
/// Matched groups that share a source net become stacks (input pair,
/// bottom sinks, mirror sources); cascodes have distinct sources and
/// become individually folded devices with the even/internal-drain
/// policy that minimises drain capacitance on the signal path (Fig. 2
/// case (a)). The module set, the placement rows and the net currents
/// all come from [`Topology::layout_spec`].
pub fn topology_layout_plan(
    tech: &Technology,
    ota: &dyn Topology,
    opts: &LayoutOptions,
) -> LayoutPlan {
    let spec = ota.layout_spec();
    let devices = ota.devices();
    let w_nm = |name: &str| m_to_nm(devices[name].w);
    let l_nm = |name: &str| m_to_nm(devices[name].l);

    // Even finger count per stacked device near the target finger width,
    // unless a fold hint pins it.
    let target = if opts.finger_target > 0 {
        opts.finger_target
    } else {
        12_000
    };
    let fingers_of = |name: &str| -> u32 {
        if let Some(&nf) = opts.fold_hints.get(name) {
            return nf.max(2);
        }
        let w = w_nm(name);
        // Multiples of four give each device an even number of pair
        // units, so the common-centroid interleave mirrors *exactly*.
        let nf4 = ((w as f64 / target as f64) / 4.0).round() as u32 * 4;
        if nf4 >= 4 {
            nf4
        } else {
            2
        }
    };
    let finger_w_of = |name: &str, nf: u32| -> Nm {
        tech.snap(w_nm(name) / nf as Nm)
            .max(losac_layout::row::min_finger_width(tech))
    };

    let net_currents = spec.net_currents;

    let modules: Vec<Module> = spec
        .modules
        .iter()
        .map(|module| match module {
            // A matched group becomes one interdigitated stack; the lead
            // device's size decides the shared finger geometry (members
            // are sized identically by construction).
            LayoutModule::Group(g) => {
                let lead = &g.devices[0].name;
                let nf = fingers_of(lead);
                Module::Stack(StackSpec {
                    name: g.name.clone(),
                    polarity: g.polarity,
                    finger_w: finger_w_of(lead, nf),
                    gate_l: l_nm(lead),
                    devices: g
                        .devices
                        .iter()
                        .map(|d| StackDevice {
                            name: d.name.clone(),
                            fingers: nf,
                            drain_net: d.drain_net.clone(),
                            gate_net: d.gate_net.clone(),
                        })
                        .collect(),
                    source_net: g.source_net.clone(),
                    bulk_net: g.bulk_net.clone(),
                    end_dummies: true,
                    style: if g.is_input_pair {
                        opts.input_pair_style
                    } else {
                        StackStyle::CommonCentroid
                    },
                    net_currents: net_currents.clone(),
                })
            }
            // A standalone device folds individually with the
            // even/internal-drain policy, unless a fold hint pins it.
            LayoutModule::Single(s) => {
                let policy = match opts.fold_hints.get(&s.name) {
                    Some(&nf) => FoldPolicy::Fixed(nf),
                    None => FoldPolicy::EvenInternal,
                };
                Module::Device(DeviceDef {
                    name: s.name.clone(),
                    polarity: s.polarity,
                    w: w_nm(&s.name),
                    l: l_nm(&s.name),
                    d: s.d.clone(),
                    g: s.g.clone(),
                    s: s.s.clone(),
                    b: s.b.clone(),
                    policy,
                })
            }
        })
        .collect();

    let mut plan = LayoutPlan::new(spec.cell_name, modules);
    plan.tree = tree_of_rows(&spec.placement_rows);
    plan.net_currents = net_currents;
    plan
}

/// Stack the placement rows (bottom first) into a slicing tree.
fn tree_of_rows(rows: &[Vec<usize>]) -> SlicingTree {
    assert!(!rows.is_empty(), "a layout spec needs at least one row");
    if rows.len() == 1 {
        return SlicingTree::row_of(&rows[0]);
    }
    SlicingTree::Column(
        Box::new(SlicingTree::row_of(&rows[0])),
        Box::new(tree_of_rows(&rows[1..])),
    )
}

/// Convert the layout tool's parasitic report into the sizing tool's
/// feedback structure.
pub fn to_feedback(report: &ParasiticReport, lump_coupling_to_ground: bool) -> LayoutFeedback {
    let devices = report.devices.iter().map(|(name, d)| {
        let fb = DeviceFeedback {
            folds: d.folds,
            drawn_w: d.drawn_w,
            drain: d.drain,
            source: d.source,
        };
        (name.clone(), fb)
    });
    LayoutFeedback {
        devices: devices.collect(),
        net_caps: report.net_cap.clone(),
        coupling: report.coupling.clone(),
        well_caps: report.well_cap.clone(),
        lump_coupling_to_ground,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_layout::slicing::ShapeConstraint;
    use losac_sizing::{FoldedCascodeOta, FoldedCascodePlan, OtaSpecs, ParasiticMode};

    fn sized() -> (Technology, FoldedCascodeOta) {
        let tech = Technology::cmos06();
        let ota = FoldedCascodePlan::default()
            .size(&tech, &OtaSpecs::paper_example(), &ParasiticMode::None)
            .unwrap();
        (tech, ota)
    }

    #[test]
    fn plan_builds_and_generates() {
        let (tech, ota) = sized();
        let plan = topology_layout_plan(&tech, &ota, &LayoutOptions::default());
        assert_eq!(plan.modules.len(), 8);
        let g = plan.generate(&tech, ShapeConstraint::MinArea).unwrap();
        // All eleven transistors reported.
        assert_eq!(g.devices.len(), 11);
        // The stacks carry their matching metrics.
        assert!(g.stack_plans.contains_key("pair"));
        assert!(g.stack_plans["pair"].dummies >= 2);
    }

    #[test]
    fn parasitic_report_roundtrip() {
        let (tech, ota) = sized();
        let plan = topology_layout_plan(&tech, &ota, &LayoutOptions::default());
        let rep = plan
            .calculate_parasitics(&tech, ShapeConstraint::MinArea)
            .unwrap();
        let fb = to_feedback(&rep, true);
        assert_eq!(fb.devices.len(), 11);
        assert!(fb.lump_coupling_to_ground);
        // Every signal net picked up some routing capacitance.
        for net in ["out", "f1", "f2", "m"] {
            assert!(
                fb.net_caps.get(net).copied().unwrap_or(0.0) > 0.0,
                "net {net} has no routing capacitance"
            );
        }
        // Folding: drains of the cascodes are internal (even folds).
        assert_eq!(fb.devices["mn2c"].folds % 2, 0);
        // Input pair drawn widths are identical (matching!).
        assert_eq!(fb.devices["mp1"].drawn_w, fb.devices["mp2"].drawn_w);
    }

    #[test]
    fn generic_planner_handles_every_builtin_topology() {
        use losac_sizing::TopologyRegistry;
        let tech = Technology::cmos06();
        for name in ["folded_cascode", "telescopic", "two_stage"] {
            let plan = TopologyRegistry::builtin().get(name).unwrap();
            let topo = plan
                .size_topology(&tech, &plan.example_specs(), &ParasiticMode::None)
                .unwrap();
            let lplan = topology_layout_plan(&tech, topo.as_ref(), &LayoutOptions::default());
            assert_eq!(
                lplan.modules.len(),
                topo.layout_spec().modules.len(),
                "{name}"
            );
            let g = lplan.generate(&tech, ShapeConstraint::MinArea).unwrap();
            assert_eq!(g.devices.len(), topo.devices().len(), "{name}");
            let rep = lplan
                .calculate_parasitics(&tech, ShapeConstraint::MinArea)
                .unwrap();
            let fb = to_feedback(&rep, true);
            assert_eq!(fb.devices.len(), topo.devices().len(), "{name}");
            assert!(
                fb.net_caps.get("out").copied().unwrap_or(0.0) > 0.0,
                "{name}: out has no routing capacitance"
            );
        }
    }

    #[test]
    fn em_clean_with_plan_currents() {
        let (tech, ota) = sized();
        let plan = topology_layout_plan(&tech, &ota, &LayoutOptions::default());
        let rep = plan
            .calculate_parasitics(&tech, ShapeConstraint::MinArea)
            .unwrap();
        assert!(rep.em_clean, "reliability rules satisfied");
    }
}
