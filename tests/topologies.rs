//! Integration: the synthesis flow and the batch engine are
//! topology-generic. Every built-in topology — selected by name through
//! the registry — completes the full sizing↔layout parasitic loop, and a
//! mixed-topology batch replays bit-identically at any worker count.

use losac::engine::{Engine, EngineOptions, SweepBuilder};
use losac::flow::prelude::*;
use losac::sim::netlist::Element;
use losac::sizing::ota::{folded_cascode, telescopic, two_stage, Pins};
use losac::sizing::{InputDrive, LayoutFeedback, ParasiticMode};
use std::collections::BTreeSet;
use std::sync::Arc;

fn perf_bits(p: &Performance) -> [u64; 11] {
    [
        p.dc_gain_db,
        p.gbw,
        p.phase_margin,
        p.slew_rate,
        p.cmrr_db,
        p.offset,
        p.output_resistance,
        p.input_noise_rms,
        p.thermal_noise_density,
        p.flicker_noise_density,
        p.power,
    ]
    .map(f64::to_bits)
}

#[test]
fn every_builtin_topology_completes_the_full_parasitic_loop() {
    let tech = Technology::cmos06();
    let registry = TopologyRegistry::builtin();
    let opts = FlowOptions::default();
    for name in ["folded_cascode", "telescopic", "two_stage"] {
        let plan = registry.get(name).expect("registered topology");
        let r = layout_oriented_synthesis(&tech, &plan.example_specs(), plan.as_ref(), &opts)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            r.converged && r.layout_calls <= opts.max_layout_calls,
            "{name}: converged={} after {} calls (history {:?})",
            r.converged,
            r.layout_calls,
            r.history
        );
        // Convergence means the triggering change was within tolerance,
        // and the parasitic change shrank monotonically towards it: the
        // loop's relaxation must not re-expand the parasitics once they
        // start settling.
        let final_change = r
            .final_change()
            .expect("at least two layout calls compared");
        assert!(
            final_change <= opts.tolerance,
            "{name}: final change {final_change} > tolerance {}",
            opts.tolerance
        );
        assert!(
            r.history.windows(2).all(|w| w[1] <= w[0]),
            "{name}: parasitic change expanded after convergence began: {:?}",
            r.history
        );
        // The final sizing ran against full layout feedback covering
        // every device, with real routing capacitance on the output.
        let fb = r.mode.feedback().expect("final mode carries feedback");
        assert_eq!(fb.devices.len(), r.ota.devices().len(), "{name}");
        assert!(
            fb.net_caps.get("out").copied().unwrap_or(0.0) > 0.0,
            "{name}: no routing capacitance fed back on the output net"
        );
        // The generation-mode layout physically exists.
        assert!(r.layout.cell.bbox().is_some(), "{name}: empty layout");
    }
}

#[test]
fn mixed_topology_batch_is_bitwise_deterministic_across_worker_counts() {
    let tech = Arc::new(Technology::cmos06());
    let registry = TopologyRegistry::builtin();
    let sweep = || {
        SweepBuilder::new(tech.clone(), OtaSpecs::paper_example())
            .over_topologies(
                ["two_stage", "folded_cascode", "telescopic"]
                    .iter()
                    .map(|n| registry.get(n).expect("registered topology")),
            )
            .over_cases([Case::AllParasitics])
            .build()
    };

    let serial = Engine::new(EngineOptions::with_workers(1)).run_batch(sweep());
    let parallel = Engine::new(EngineOptions::with_workers(4)).run_batch(sweep());
    assert_eq!(serial.outcomes.len(), 3);
    for (i, (s, p)) in serial.outcomes.iter().zip(&parallel.outcomes).enumerate() {
        let (s, p) = (
            s.result()
                .unwrap_or_else(|| panic!("serial job {i} failed: {}", s.status())),
            p.result()
                .unwrap_or_else(|| panic!("parallel job {i} failed: {}", p.status())),
        );
        assert_eq!(
            perf_bits(&s.synthesized),
            perf_bits(&p.synthesized),
            "job {i}: synthesized rows diverge across worker counts"
        );
        assert_eq!(
            perf_bits(&s.extracted),
            perf_bits(&p.extracted),
            "job {i}: extracted rows diverge across worker counts"
        );
        assert_eq!(s.layout_calls, p.layout_calls, "job {i}");
        assert_eq!(
            s.ota.topology_name(),
            p.ota.topology_name(),
            "job {i}: topology mixed up across worker counts"
        );
    }
}

#[test]
fn routing_caps_land_on_the_signal_and_input_nets_only() {
    // A net capacitance on every net of a topology's pin table, plus `0`:
    // exactly the signal nets and the two inputs take one. Ground and the
    // bias nets are driven ideally by the testbench, and the layout
    // reports parasitics on nets the netlist must not grow.
    let cases: [(&str, &[Pins], &[&str]); 3] = [
        (
            "folded_cascode",
            &folded_cascode::PINS,
            &[
                "tail", "f1", "f2", "m", "a", "b", "out", "vdd", "vinp", "vinn",
            ],
        ),
        (
            "telescopic",
            &telescopic::PINS,
            &[
                "tail", "x1", "x2", "y1", "z1", "z2", "out", "vdd", "vinp", "vinn",
            ],
        ),
        (
            "two_stage",
            &two_stage::PINS,
            &["tail", "x0", "x1", "out", "vdd", "vinp", "vinn"],
        ),
    ];
    let tech = Technology::cmos06();
    let registry = TopologyRegistry::builtin();
    for (name, pins, want) in cases {
        let plan = registry.get(name).expect("registered topology");
        let ota = plan
            .size_topology(&tech, &plan.example_specs(), &ParasiticMode::None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut fb = LayoutFeedback::default();
        for net in pins.iter().flat_map(|p| [p.d, p.g, p.s, p.b]).chain(["0"]) {
            fb.net_caps.insert(net.to_owned(), 1e-15);
        }
        let c = ota.netlist(
            &tech,
            &ParasiticMode::Full(fb),
            InputDrive::Differential { dv: 0.0 },
        );
        let got: BTreeSet<&str> = c
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { name, a, .. } if name.starts_with("cr") => {
                    Some(c.node_name(*a))
                }
                _ => None,
            })
            .collect();
        assert_eq!(got, want.iter().copied().collect(), "{name}");
    }
}
