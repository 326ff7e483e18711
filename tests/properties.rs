//! Seeded property tests over the core invariants of the workspace:
//! device-model monotonicity and totality, folding-factor identities,
//! junction-capacitance physics, shape-function pruning, slicing-area
//! bounds, stack conservation, linear-solver round trips, DRC-clean
//! generated rows, DC solutions bounded by their sources, AC reciprocity
//! of passive networks and finite, non-negative extraction of every
//! built-in topology.
//!
//! Each property runs [`CASES`] inputs drawn from
//! [`Xorshift128Plus`] with a fixed seed of its own, so every run checks
//! the same cases. A failure names the case index, the seed and the
//! inputs, which is all it takes to replay the case.

use losac::device::ekv::evaluate;
use losac::device::folding::{factor, DiffusionGeometry, DrainPosition, FoldSpec};
use losac::device::Mosfet;
use losac::flow::layout_gen::{topology_layout_plan, LayoutOptions};
use losac::layout::drc;
use losac::layout::row::{build_row, Finger, RowSpec};
use losac::layout::shape::{ShapeFunction, Variant};
use losac::layout::slicing::{optimize, ShapeConstraint, SlicingTree};
use losac::layout::stack::{plan_stack, StackDevice, StackSpec, StackStyle};
use losac::sim::dc::{dc_operating_point, DcOptions};
use losac::sim::linear::{AcWorkspace, Linearized};
use losac::sim::netlist::Circuit;
use losac::sim::num::{Complex, Matrix};
use losac::sizing::{ParasiticMode, TopologyRegistry};
use losac::tech::rng::Xorshift128Plus;
use losac::tech::units::nm_to_m;
use losac::tech::{Polarity, Technology};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Inputs drawn per property.
const CASES: usize = 64;

/// Fail the enclosing property with a message (the condition's source
/// text by default).
macro_rules! ensure {
    ($cond:expr) => {
        ensure!($cond, "{}", stringify!($cond))
    };
    ($cond:expr, $($msg:tt)+) => {
        let held: bool = $cond;
        if !held {
            return Err(format!($($msg)+));
        }
    };
}

/// Check `property` on [`CASES`] inputs drawn by `draw` from a generator
/// seeded with `seed`.
fn check<T: Debug>(
    seed: u64,
    draw: impl Fn(&mut Xorshift128Plus) -> T,
    property: impl Fn(&T) -> Result<(), String>,
) {
    let mut rng = Xorshift128Plus::seed_from_u64(seed);
    for case in 0..CASES {
        let input = draw(&mut rng);
        if let Err(msg) = property(&input) {
            panic!("case {case} of seed {seed:#x} failed: {msg}\ninput: {input:#?}");
        }
    }
}

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut Xorshift128Plus, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// Log-uniform in `[lo, hi)`.
fn log_uniform(rng: &mut Xorshift128Plus, lo: f64, hi: f64) -> f64 {
    (uniform(rng, lo.ln(), hi.ln())).exp()
}

/// Integer in `lo..hi`.
fn int(rng: &mut Xorshift128Plus, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

fn coin(rng: &mut Xorshift128Plus) -> bool {
    rng.next_u64() & 1 == 1
}

#[test]
fn ekv_total_and_monotone_in_vgs() {
    check(
        0xE1,
        |r| {
            (
                uniform(r, 1.0, 200.0), // W (µm)
                uniform(r, 0.6, 5.0),   // L (µm)
                uniform(r, 0.0, 3.3),   // vgs
                uniform(r, 0.05, 3.3),  // vds
                uniform(r, -2.0, 0.0),  // vbs
            )
        },
        |&(w_um, l_um, vgs, vds, vbs)| {
            let tech = Technology::cmos06();
            let m = Mosfet::new(tech.nmos, w_um * 1e-6, l_um * 1e-6);
            let op = evaluate(&m, vgs, vds, vbs);
            ensure!(op.id.is_finite() && op.gm.is_finite() && op.gds.is_finite());
            ensure!(op.id >= -1e-15, "forward bias reversed the current");
            let up = evaluate(&m, vgs + 0.05, vds, vbs);
            ensure!(up.id >= op.id, "id falls with vgs: {} -> {}", op.id, up.id);
            // gm is the derivative of a monotone function.
            ensure!(op.gm >= -1e-15);
            Ok(())
        },
    );
}

#[test]
fn ekv_current_scales_linearly_with_width() {
    check(
        0xE2,
        |r| {
            (
                uniform(r, 1.0, 100.0), // W (µm)
                uniform(r, 1.1, 8.0),   // width scale
                uniform(r, 0.8, 2.0),   // vgs
            )
        },
        |&(w_um, scale, vgs)| {
            let tech = Technology::cmos06();
            let a = evaluate(&Mosfet::new(tech.nmos, w_um * 1e-6, 1e-6), vgs, 1.5, 0.0).id;
            let b = evaluate(
                &Mosfet::new(tech.nmos, w_um * scale * 1e-6, 1e-6),
                vgs,
                1.5,
                0.0,
            )
            .id;
            ensure!((b / a / scale - 1.0).abs() < 1e-6, "{a} -> {b}");
            Ok(())
        },
    );
}

#[test]
fn folding_factor_identities() {
    check(
        0xF1,
        |r| int(r, 1, 40) as u32,
        |&nf| {
            for pos in [DrainPosition::Internal, DrainPosition::External] {
                let f = factor(nf, pos);
                ensure!((0.5..=1.0).contains(&f), "F({nf}, {pos:?}) = {f}");
            }
            // The paper's closed forms for even fold counts.
            if nf >= 2 && nf % 2 == 0 {
                ensure!(factor(nf, DrainPosition::Internal) == 0.5);
                let nf_f = f64::from(nf);
                let external = factor(nf, DrainPosition::External);
                ensure!((external - (nf_f + 2.0) / (2.0 * nf_f)).abs() < 1e-12);
            }
            Ok(())
        },
    );
}

#[test]
fn folding_geometry_matches_formula() {
    check(
        0xF2,
        |r| (int(r, 1, 16) as u32, uniform(r, 2.0, 100.0)),
        |&(nf, w_um)| {
            let tech = Technology::cmos06();
            let w_nm = (w_um * 1000.0) as i64;
            let pos = if nf % 2 == 0 {
                DrainPosition::Internal
            } else {
                DrainPosition::External
            };
            let spec = FoldSpec::new(nf, pos);
            let g = DiffusionGeometry::drain(w_nm, spec, &tech.rules);
            let f_geom = g.effective_width(w_nm, spec) / nm_to_m(w_nm);
            ensure!(
                (f_geom - spec.drain_factor()).abs() < 1e-9,
                "geometric {f_geom} vs formula {}",
                spec.drain_factor()
            );
            ensure!(g.area > 0.0 && g.perimeter > 0.0);
            Ok(())
        },
    );
}

#[test]
fn junction_cap_decreases_with_reverse_bias() {
    check(
        0xC1,
        |r| {
            (
                uniform(r, 1.0, 1000.0), // area (µm²)
                uniform(r, 1.0, 500.0),  // perimeter (µm)
                uniform(r, 0.0, 2.0),    // reverse bias
                uniform(r, 0.1, 2.0),    // bias step
            )
        },
        |&(area_um2, perim_um, v1, dv)| {
            let j = Technology::cmos06().caps.ndiff;
            let a = j.capacitance(area_um2 * 1e-12, perim_um * 1e-6, v1);
            let b = j.capacitance(area_um2 * 1e-12, perim_um * 1e-6, v1 + dv);
            ensure!(b < a, "{a} -> {b}");
            ensure!(b > 0.0);
            Ok(())
        },
    );
}

#[test]
fn shape_function_pruning_invariants() {
    check(
        0x51,
        |r| {
            let n = int(r, 1, 20);
            (0..n)
                .map(|_| (int(r, 1, 100_000) as i64, int(r, 1, 100_000) as i64))
                .collect::<Vec<_>>()
        },
        |dims| {
            let variants: Vec<Variant> = dims
                .iter()
                .enumerate()
                .map(|(i, &(w, h))| Variant {
                    w,
                    h,
                    tag: i as u32,
                })
                .collect();
            let sf = ShapeFunction::new(variants.clone());
            // Sorted by width, strictly decreasing height.
            let kept = sf.variants();
            ensure!(kept.windows(2).all(|p| p[0].w < p[1].w && p[0].h > p[1].h));
            // Every input is dominated-or-kept: some survivor is no wider
            // and no taller.
            for v in &variants {
                ensure!(
                    kept.iter().any(|k| k.w <= v.w && k.h <= v.h),
                    "input {}x{} has no dominating survivor",
                    v.w,
                    v.h
                );
            }
            Ok(())
        },
    );
}

#[test]
fn slicing_area_bounds() {
    check(
        0x52,
        |r| {
            let n = int(r, 2, 6);
            (0..n)
                .map(|_| (int(r, 1_000, 50_000) as i64, int(r, 1_000, 50_000) as i64))
                .collect::<Vec<_>>()
        },
        |sizes| {
            let shapes: Vec<ShapeFunction> = sizes
                .iter()
                .map(|&(w, h)| ShapeFunction::fixed(w, h, 0))
                .collect();
            let ids: Vec<usize> = (0..shapes.len()).collect();
            let tree = SlicingTree::row_of(&ids);
            let placed =
                optimize(&tree, &shapes, 0, ShapeConstraint::MinArea).map_err(|e| e.to_string())?;
            let parts: i128 = sizes.iter().map(|&(w, h)| w as i128 * h as i128).sum();
            ensure!(
                placed.area() >= parts,
                "area {} < parts {parts}",
                placed.area()
            );
            // A row is as wide as its parts together and as tall as the
            // tallest.
            ensure!(placed.w == sizes.iter().map(|s| s.0).sum::<i64>());
            ensure!(Some(placed.h) == sizes.iter().map(|s| s.1).max());
            Ok(())
        },
    );
}

#[test]
fn stack_conserves_fingers_and_isolates_drains() {
    check(
        0x53,
        |r| {
            let n = int(r, 1, 4);
            let fingers: Vec<u32> = (0..n).map(|_| int(r, 1, 9) as u32).collect();
            (fingers, coin(r))
        },
        |(fingers, dummies)| {
            let devices: Vec<StackDevice> = fingers
                .iter()
                .enumerate()
                .map(|(i, &nf)| StackDevice {
                    name: format!("m{i}"),
                    fingers: nf,
                    drain_net: format!("d{i}"),
                    gate_net: "g".into(),
                })
                .collect();
            let spec = StackSpec {
                name: "s".into(),
                polarity: Polarity::Nmos,
                finger_w: 5_000,
                gate_l: 1_000,
                devices,
                source_net: "s".into(),
                bulk_net: "gnd".into(),
                end_dummies: *dummies,
                style: StackStyle::CommonCentroid,
                net_currents: BTreeMap::new(),
            };
            let plan = plan_stack(&spec).map_err(|e| e.to_string())?;
            // Conservation.
            let placed = plan.fingers.iter().filter(|f| f.device.is_some()).count();
            ensure!(placed as u32 == fingers.iter().sum::<u32>());
            ensure!(plan.strip_nets.len() == plan.fingers.len() + 1);
            // Drain strips only touch their own device.
            for (i, net) in plan.strip_nets.iter().enumerate() {
                let Some(suffix) = net.strip_prefix('d') else {
                    continue;
                };
                let owner = format!("m{suffix}");
                for fi in [i.checked_sub(1), (i < plan.fingers.len()).then_some(i)]
                    .into_iter()
                    .flatten()
                {
                    if let Some(dev) = &plan.fingers[fi].device {
                        ensure!(*dev == owner, "strip {i} ({net}) touches {dev}");
                    }
                }
            }
            // Direction imbalance is at most one finger per device.
            ensure!(plan.direction_imbalance.values().all(|&imb| imb <= 1));
            Ok(())
        },
    );
}

#[test]
fn lu_roundtrip_on_diagonally_dominant_systems() {
    const N: usize = 4;
    check(
        0x71,
        |r| {
            let a: Vec<f64> = (0..N * N).map(|_| uniform(r, -1.0, 1.0)).collect();
            let rhs: Vec<f64> = (0..N).map(|_| uniform(r, -10.0, 10.0)).collect();
            (a, rhs)
        },
        |(a, rhs)| {
            let mut m = Matrix::<f64>::zeros(N);
            for i in 0..N {
                for j in 0..N {
                    m.set(i, j, a[i * N + j]);
                }
                m.add(i, i, 4.0);
            }
            let x = m.clone().lu().map_err(|e| e.to_string())?.solve(rhs);
            let back = m.mul_vec(&x);
            for i in 0..N {
                ensure!((back[i] - rhs[i]).abs() < 1e-9, "row {i}: {}", back[i]);
            }
            Ok(())
        },
    );
}

/// One generated transistor row: fingers, W and L (µm), polarity and
/// drain current (mA).
#[derive(Debug)]
struct RowCase {
    nf: usize,
    w_um: f64,
    l_um: f64,
    pmos: bool,
    current_ma: f64,
}

fn row_is_drc_clean(c: &RowCase) -> Result<(), String> {
    let tech = Technology::cmos06();
    let polarity = if c.pmos {
        Polarity::Pmos
    } else {
        Polarity::Nmos
    };
    let finger_w = tech.snap_up((c.w_um * 1000.0) as i64);
    let gate_l = tech
        .snap_up((c.l_um * 1000.0) as i64)
        .max(tech.rules.poly_width);
    let spec = RowSpec {
        name: "m".into(),
        polarity,
        finger_w,
        gate_l,
        strip_nets: (0..=c.nf)
            .map(|i| if i % 2 == 0 { "s".into() } else { "d".into() })
            .collect(),
        fingers: (0..c.nf)
            .map(|i| Finger {
                gate_net: "g".into(),
                device: Some("m".into()),
                flipped: i % 2 == 1,
            })
            .collect(),
        bulk_net: if c.pmos { "vdd".into() } else { "gnd".into() },
        net_currents: BTreeMap::from([("d".to_owned(), c.current_ma * 1e-3)]),
    };
    let row = build_row(&tech, &spec).map_err(|e| e.to_string())?;
    let violations = drc::check(&tech, &row.cell);
    ensure!(violations.is_empty(), "{violations:#?}");
    Ok(())
}

#[test]
fn random_folded_rows_are_drc_clean() {
    // A case that once failed: one finger at minimum W and L carrying
    // enough current to widen the drain strap.
    let recorded = RowCase {
        nf: 1,
        w_um: 3.0,
        l_um: 0.6,
        pmos: false,
        current_ma: 1.304_701_472_386_356_6,
    };
    if let Err(msg) = row_is_drc_clean(&recorded) {
        panic!("recorded case failed: {msg}\ninput: {recorded:#?}");
    }
    check(
        0xD1,
        |r| RowCase {
            nf: int(r, 1, 10) as usize,
            w_um: uniform(r, 3.0, 30.0),
            l_um: uniform(r, 0.6, 3.0),
            pmos: coin(r),
            current_ma: uniform(r, 0.0, 1.5),
        },
        row_is_drc_clean,
    );
}

#[test]
fn dc_solution_bounded_by_sources() {
    check(
        0xDC,
        |r| {
            (
                uniform(r, 100.0, 100_000.0),
                uniform(r, 100.0, 100_000.0),
                uniform(r, 100.0, 100_000.0),
                uniform(r, 0.1, 10.0),
            )
        },
        |&(r1, r2, r3, v)| {
            let mut c = Circuit::new();
            c.vsource("v1", "a", "0", v);
            c.resistor("r1", "a", "b", r1);
            c.resistor("r2", "b", "c", r2);
            c.resistor("r3", "c", "0", r3);
            let sol = dc_operating_point(&c, &DcOptions::default()).map_err(|e| e.to_string())?;
            // A resistive ladder driven by one source: every node between
            // 0 and v, falling along the ladder.
            let (va, vb, vc) = (
                sol.voltage(&c, "a"),
                sol.voltage(&c, "b"),
                sol.voltage(&c, "c"),
            );
            ensure!((va - v).abs() < 1e-9, "va = {va}");
            ensure!(
                vb <= va + 1e-9 && vc <= vb + 1e-9 && vc >= -1e-9,
                "{va} {vb} {vc}"
            );
            Ok(())
        },
    );
}

/// A random connected passive RC network: every node has a resistor
/// and a capacitor to ground, a random R or C branch to an earlier node,
/// and random extra branches between nodes or to ground. It is probed
/// between two distinct nodes at one frequency.
#[derive(Debug)]
struct RcNetwork {
    nodes: usize,
    /// `(a, b, is_resistor, value)`; node `nodes` is ground.
    branches: Vec<(usize, usize, bool, f64)>,
    probe: (usize, usize),
    freq: f64,
}

fn draw_rc_network(r: &mut Xorshift128Plus) -> RcNetwork {
    let branch = |r: &mut Xorshift128Plus, a: usize, b: usize| {
        if coin(r) {
            (a, b, true, log_uniform(r, 1e2, 1e6))
        } else {
            (a, b, false, log_uniform(r, 1e-15, 1e-11))
        }
    };
    let nodes = int(r, 2, 9) as usize;
    let mut branches = Vec::new();
    for n in 0..nodes {
        branches.push((n, nodes, true, log_uniform(r, 1e2, 1e6)));
        branches.push((n, nodes, false, log_uniform(r, 1e-15, 1e-11)));
        if n > 0 {
            let earlier = int(r, 0, n as u64) as usize;
            branches.push(branch(r, earlier, n));
        }
    }
    for _ in 0..int(r, 0, 2 * nodes as u64 + 1) {
        let a = int(r, 0, nodes as u64) as usize;
        let b = int(r, 0, nodes as u64 + 1) as usize;
        if a != b {
            branches.push(branch(r, a, b));
        }
    }
    let a = int(r, 0, nodes as u64) as usize;
    let b = (a + int(r, 1, nodes as u64) as usize) % nodes;
    RcNetwork {
        nodes,
        branches,
        probe: (a, b),
        freq: log_uniform(r, 1e3, 1e10),
    }
}

#[test]
fn ac_transfer_impedance_of_passive_rc_networks_is_reciprocal() {
    check(0xAC, draw_rc_network, |net| {
        let name = |n: usize| {
            if n == net.nodes {
                "0".to_owned()
            } else {
                format!("n{n}")
            }
        };
        let mut c = Circuit::new();
        for (k, &(a, b, is_r, value)) in net.branches.iter().enumerate() {
            if is_r {
                c.resistor(&format!("r{k}"), &name(a), &name(b), value);
            } else {
                c.capacitor(&format!("c{k}"), &name(a), &name(b), value);
            }
        }
        let dc = dc_operating_point(&c, &DcOptions::default()).map_err(|e| e.to_string())?;
        let lin = Linearized::build(&c, &dc);
        let mut ws = AcWorkspace::new();
        lin.factor_into(2.0 * std::f64::consts::PI * net.freq, &mut ws)
            .map_err(|e| e.to_string())?;
        let node = |n: usize| c.find_node(&name(n)).expect("probe node exists");
        let (a, b) = (node(net.probe.0), node(net.probe.1));
        // Z_ab: the voltage at `a` per unit current driven into `b` from
        // ground, and the other way round.
        let mut transfer = |from: usize, to: usize| -> Complex {
            let x = ws.solve(&lin.unit_current_rhs(0, to));
            lin.voltage(x, from)
        };
        let (z_ab, z_ba) = (transfer(a, b), transfer(b, a));
        let scale = z_ab.abs().max(z_ba.abs());
        ensure!(scale > 0.0 && scale.is_finite(), "Z = {z_ab:?}");
        ensure!(
            (z_ab - z_ba).abs() <= 1e-12 * scale,
            "Z_ab = {z_ab:?}, Z_ba = {z_ba:?}"
        );
        Ok(())
    });
}

#[test]
fn extraction_is_finite_and_non_negative_for_every_builtin_topology() {
    let tech = Technology::cmos06();
    let registry = TopologyRegistry::builtin();
    for name in registry.names() {
        let plan = registry.get(name).expect("registered topology");
        let topo = plan
            .size_topology(&tech, &plan.example_specs(), &ParasiticMode::None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = topology_layout_plan(&tech, topo.as_ref(), &LayoutOptions::default())
            .calculate_parasitics(&tech, ShapeConstraint::MinArea)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!report.net_cap.is_empty(), "{name}: no net extracted");
        for (what, caps) in [("net_cap", &report.net_cap), ("well_cap", &report.well_cap)] {
            for (net, &c) in caps {
                assert!(c.is_finite() && c >= 0.0, "{name}: {what}[{net}] = {c}");
            }
        }
        for ((a, b), &c) in &report.coupling {
            assert!(
                c.is_finite() && c >= 0.0,
                "{name}: coupling[{a}, {b}] = {c}"
            );
        }
    }
}
