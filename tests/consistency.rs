//! Integration test: the model-consistency property the paper credits for
//! its accuracy — the sizing tool and the simulator evaluate the same
//! transistor model, so the sizing plan's chosen currents and
//! transconductances reappear in the simulated operating point.

use losac::sim::dc::{dc_operating_point, DcOptions};
use losac::sizing::{FoldedCascodePlan, InputDrive, OtaSpecs, ParasiticMode, Topology};
use losac::tech::Technology;

#[test]
fn planned_currents_match_the_simulated_operating_point() {
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();
    let ota = FoldedCascodePlan::default()
        .size(&tech, &specs, &ParasiticMode::None)
        .expect("sizes");
    let c = ota.netlist(
        &tech,
        &ParasiticMode::None,
        InputDrive::Differential { dv: 0.0 },
    );
    let sol = dc_operating_point(&c, &DcOptions::default()).expect("solves");

    // Input device current ≈ the plan's i_in.
    let op1 = sol.mos_op("mp1").expect("mp1 present");
    let err_in = (op1.id - ota.currents.i_in).abs() / ota.currents.i_in;
    assert!(
        err_in < 0.30,
        "mp1: planned {:.1} µA vs simulated {:.1} µA",
        ota.currents.i_in * 1e6,
        op1.id * 1e6
    );

    // Cascode branch current ≈ the plan's i_casc (through mp4c).
    let op4c = sol.mos_op("mp4c").expect("mp4c present");
    let err_c = (op4c.id - ota.currents.i_casc).abs() / ota.currents.i_casc;
    assert!(
        err_c < 0.30,
        "mp4c: planned {:.1} µA vs simulated {:.1} µA",
        ota.currents.i_casc * 1e6,
        op4c.id * 1e6
    );

    // Total supply current ≈ the plan's estimate.
    let i_dd = sol.supply_current(&c, "vdd");
    let est = ota.layout_spec().net_currents["vdd"];
    assert!(
        (i_dd - est).abs() / est < 0.25,
        "supply: estimated {:.0} µA vs simulated {:.0} µA",
        est * 1e6,
        i_dd * 1e6
    );
}

#[test]
fn every_transistor_saturated_at_the_planned_bias() {
    // The design plan places each device in saturation; the simulator must
    // agree — the whole point of sharing the model.
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();
    let ota = FoldedCascodePlan::default()
        .size(&tech, &specs, &ParasiticMode::None)
        .expect("sizes");
    let c = ota.netlist(
        &tech,
        &ParasiticMode::None,
        InputDrive::Differential { dv: 0.0 },
    );
    let sol = dc_operating_point(&c, &DcOptions::default()).expect("solves");
    // The signal-path devices must be saturated; the bottom sinks may sit
    // at the saturation edge (their VDS is the fold-node voltage, placed
    // one margin above VDsat by design).
    for name in [
        "mp1", "mp2", "mptail", "mn1c", "mn2c", "mp3", "mp4", "mp3c", "mp4c",
    ] {
        let op = sol.mos_op(name).unwrap();
        assert!(
            op.region == losac::device::Region::Saturation,
            "{name} in {:?} (id = {:.1} µA)",
            op.region,
            op.id * 1e6
        );
    }
    for name in ["mn5", "mn6"] {
        let op = sol.mos_op(name).unwrap();
        assert!(
            op.region != losac::device::Region::Cutoff && op.region != losac::device::Region::Weak,
            "{name} in {:?}",
            op.region
        );
    }
}

#[test]
fn gbw_tracks_the_load_capacitance() {
    // Fundamental sizing relation: with the calibration loop active,
    // doubling CL roughly doubles the current budget at fixed GBW.
    let tech = Technology::cmos06();
    let mut specs = OtaSpecs::paper_example();
    let small = FoldedCascodePlan::default()
        .size(&tech, &specs, &ParasiticMode::None)
        .unwrap();
    specs.c_load *= 2.0;
    let big = FoldedCascodePlan::default()
        .size(&tech, &specs, &ParasiticMode::None)
        .unwrap();
    let ratio = big.currents.i_tail / small.currents.i_tail;
    assert!((1.5..3.0).contains(&ratio), "i_tail ratio {ratio:.2}");
}

#[test]
fn ac_measured_gate_capacitance_matches_the_model() {
    // Cross-check the Meyer capacitance model against the simulator's own
    // AC analysis: the imaginary part of the gate input current of a
    // biased transistor, divided by ω, must equal cgs + cgd + cgb (with
    // drain/source/bulk at AC ground, all gate capacitances appear in
    // parallel at the gate).
    use losac::device::caps::intrinsic_caps;
    use losac::device::ekv::evaluate;
    use losac::device::Mosfet;
    use losac::sim::ac::{ac_sweep, AcOptions};
    use losac::sim::netlist::Circuit;

    let tech = Technology::cmos06();
    let m = Mosfet::new(tech.nmos, 20e-6, 1e-6);
    let (vgs, vds) = (1.2, 1.5);

    let mut c = Circuit::new();
    // Series resistor turns the gate admittance into a measurable divider.
    let rs = 10e3;
    c.vsource_ac("vin", "in", "0", vgs, 1.0);
    c.resistor("rs", "in", "g", rs);
    c.vsource("vd", "d", "0", vds);
    c.mos(
        "m1",
        "d",
        "g",
        "0",
        "0",
        m,
        tech.caps.ndiff,
        Default::default(),
        Default::default(),
    );

    let dc = dc_operating_point(&c, &DcOptions::default()).expect("dc");
    let f = 1.0e6; // well below the RC pole? pole = 1/(2π·10k·~50f) ≈ 300 MHz
    let ac = ac_sweep(
        &c,
        &dc,
        &AcOptions {
            fstart: f,
            fstop: 2.0 * f,
            points_per_decade: 4,
        },
    )
    .expect("ac");
    let vg = ac.node(&c, "g")[0];
    // Gate current through rs: (vin − vg)/rs with vin = 1∠0.
    let i = (losac::sim::Complex::ONE - vg) * (1.0 / rs);
    let c_meas = i.im / (2.0 * std::f64::consts::PI * f * vg.abs());

    let op = evaluate(&m, vgs, vds, 0.0);
    let model = intrinsic_caps(&m, &op);
    let c_model = model.cgs + model.cgd + model.cgb;
    let err = (c_meas - c_model).abs() / c_model;
    assert!(
        err < 0.02,
        "AC-measured {:.2} fF vs model {:.2} fF ({:.1}% off)",
        c_meas * 1e15,
        c_model * 1e15,
        err * 100.0
    );
}
