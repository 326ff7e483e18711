//! The measuring oracle: for every row a plan measures, the size
//! [`row_size`] reports equals the bounding box of the cell [`build_row`]
//! draws, exactly.
//!
//! The shape functions choose every transistor's folding from measured
//! sizes alone, so a measurement that drifts from the drawing would pick
//! a different realisation and move the extracted numbers.

use losac_core::cases::{Case, CaseOptions};
use losac_core::flow::layout_oriented_synthesis;
use losac_core::layout_gen::{topology_layout_plan, LayoutOptions};
use losac_layout::plan::{LayoutPlan, Module};
use losac_layout::row::{build_row, min_finger_width, row_size, Finger, RowLayout, RowSpec};
use losac_layout::stack::{plan_stack, stack_row_spec};
use losac_sizing::{ParasiticMode, Topology, TopologyRegistry};
use losac_tech::rng::Xorshift128Plus;
use losac_tech::{Polarity, Technology};
use std::collections::BTreeMap;

/// Measure and draw one row; both must agree, on success and on failure.
/// Returns whether the row was buildable.
fn agree<R: RowLayout + ?Sized>(tech: &Technology, row: &R, what: &str) -> bool {
    match (row_size(tech, row), build_row(tech, row)) {
        (Ok(size), Ok(drawn)) => {
            let bb = drawn.cell.bbox().expect("a drawn row has geometry");
            assert_eq!(size, (bb.width(), bb.height()), "{what}");
            true
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{what}");
            false
        }
        (m, d) => panic!(
            "{what}: measuring gave {m:?}, drawing gave {:?}",
            d.map(|_| ())
        ),
    }
}

/// Every fold candidate of every device module, and every stack, of a
/// plan. Returns the number of rows checked.
fn check_plan(tech: &Technology, plan: &LayoutPlan, what: &str) -> usize {
    let mut rows = 0;
    for m in &plan.modules {
        match m {
            Module::Device(def) => {
                for nf in plan.fold_candidates(tech, def).expect("candidates") {
                    let row = plan.folded(tech, def, nf).expect("fold count");
                    assert!(agree(tech, &row, &format!("{what} {} nf={nf}", def.name)));
                    rows += 1;
                }
            }
            Module::Stack(spec) => {
                let stack = plan_stack(spec).expect("stack plans");
                assert!(agree(tech, &stack_row_spec(spec, &stack), what));
                rows += 1;
            }
        }
    }
    rows
}

#[test]
fn measured_size_equals_the_drawn_bbox_for_every_table1_plan() {
    let registry = TopologyRegistry::builtin();
    let mut rows = 0;
    for name in ["folded_cascode", "telescopic", "two_stage"] {
        let plan = registry.get(name).expect("built-in topology");
        let specs = plan.example_specs();
        // The four Table-1 cases: cases 1–2 size once, cases 3–4 run the
        // sizing↔layout flow.
        let tech = Technology::cmos06();
        let opts = CaseOptions::builder().with_plan(plan.clone()).build();
        let mut otas: Vec<Box<dyn Topology>> = Vec::new();
        for mode in [ParasiticMode::None, ParasiticMode::UnfoldedDiffusion] {
            otas.push(plan.size_topology(&tech, &specs, &mode).expect("sizes"));
        }
        for case in [Case::ExactDiffusion, Case::AllParasitics] {
            let flow = opts.flow_options(case == Case::ExactDiffusion);
            let r = layout_oriented_synthesis(&tech, &specs, plan.as_ref(), &flow).expect("flow");
            // The flow's last layout call froze the folds it found.
            let hinted = LayoutOptions {
                fold_hints: r
                    .report
                    .devices
                    .iter()
                    .map(|(n, d)| (n.clone(), d.folds))
                    .collect(),
                ..LayoutOptions::default()
            };
            let lplan = topology_layout_plan(&tech, r.ota.as_ref(), &hinted);
            rows += check_plan(&tech, &lplan, &format!("{name} {case:?} hinted"));
            let lplan = topology_layout_plan(&tech, r.ota.as_ref(), &LayoutOptions::default());
            rows += check_plan(&tech, &lplan, &format!("{name} {case:?}"));
        }
        for (k, ota) in otas.iter().enumerate() {
            let lplan = topology_layout_plan(&tech, ota.as_ref(), &LayoutOptions::default());
            rows += check_plan(&tech, &lplan, &format!("{name} case{}", k + 1));
        }
        // Both technologies across a band of GBW targets.
        for tech in [Technology::cmos06(), Technology::cmos035()] {
            for scale in [0.5, 0.75, 1.25, 1.5] {
                let mut specs = specs;
                specs.gbw *= scale;
                let Ok(ota) = plan.size_topology(&tech, &specs, &ParasiticMode::None) else {
                    continue;
                };
                let lplan = topology_layout_plan(&tech, ota.as_ref(), &LayoutOptions::default());
                rows += check_plan(&tech, &lplan, &format!("{name} {} x{scale}", tech.name()));
            }
        }
    }
    assert!(rows > 4_000, "only {rows} rows checked");
}

fn pick<'a>(rng: &mut Xorshift128Plus, from: &[&'a str]) -> &'a str {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

/// A seeded random row: 1–64 fingers, either polarity, optional dummies,
/// 1–4 gate nets, and optionally currents large enough to widen rails,
/// straps and risers and to add contacts and vias.
fn random_row(rng: &mut Xorshift128Plus, tech: &Technology) -> RowSpec {
    let nf = 1 + (rng.next_u64() % 64) as usize;
    let pmos = rng.next_u64() & 1 == 1;
    let gate_nets = &["ga", "gb", "gc", "gd"][..1 + (rng.next_u64() % 4) as usize];
    // Gate nets either interleave at random or drive contiguous blocks;
    // three or more interleaved nets often cannot share the bands.
    let blocks = rng.next_u64() & 1 == 1;
    let dummies = rng.next_u64() & 1 == 1;
    let em = rng.next_u64() & 1 == 1;
    let strip_nets = ["s", "d1", "d2", "x"];
    let min_wf = min_finger_width(tech);
    let finger_w = tech.snap_up(min_wf + (rng.next_f64() * 25_000.0) as i64);
    let gate_l = tech.snap_up(tech.rules.poly_width + (rng.next_f64() * 2_500.0) as i64);
    let net_currents: BTreeMap<String, f64> = if em {
        strip_nets
            .iter()
            .map(|&n| (n.to_owned(), rng.next_f64() * 6e-3))
            .collect()
    } else {
        BTreeMap::new()
    };
    RowSpec {
        name: "r".into(),
        polarity: if pmos { Polarity::Pmos } else { Polarity::Nmos },
        finger_w,
        gate_l,
        strip_nets: (0..=nf)
            .map(|_| pick(rng, &strip_nets).to_owned())
            .collect(),
        fingers: (0..nf)
            .map(|i| Finger {
                gate_net: if blocks {
                    gate_nets[i * gate_nets.len() / nf].to_owned()
                } else {
                    pick(rng, gate_nets).to_owned()
                },
                device: (!dummies || (i > 0 && i + 1 < nf && !rng.next_u64().is_multiple_of(4)))
                    .then(|| "m".to_owned()),
                flipped: i % 2 == 1,
            })
            .collect(),
        bulk_net: if pmos { "vdd".into() } else { "gnd".into() },
        net_currents,
    }
}

#[test]
fn measured_size_equals_the_drawn_bbox_for_random_rows() {
    let mut built = 0;
    for (seed, tech) in [(0x0A, Technology::cmos06()), (0x0B, Technology::cmos035())] {
        let mut rng = Xorshift128Plus::seed_from_u64(seed);
        for case in 0..300 {
            let row = random_row(&mut rng, &tech);
            if agree(
                &tech,
                &row,
                &format!("{} case {case}: {row:?}", tech.name()),
            ) {
                built += 1;
            }
        }
    }
    // Rows whose gate nets cannot share the four poly bands fail in both
    // paths alike; most rows build.
    assert!(built > 400, "only {built} of 600 random rows built");
}
