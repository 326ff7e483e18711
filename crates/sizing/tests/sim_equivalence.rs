//! Equivalence gates for the evaluator's reuse of work.
//!
//! A linearisation restamped with a new excitation and the keyed
//! evaluation cache must be **bitwise identical** to building afresh.
//! These tests enforce that with `f64::to_bits` comparisons on full
//! sweeps and on every `Performance` field; any reordering of
//! floating-point operations fails the suite. The evaluator's output
//! itself is pinned by the Table-1 goldens (`tests/table1_goldens.rs` in
//! the workspace root).

use losac_sim::ac::{ac_sweep, ac_sweep_on, AcOptions};
use losac_sim::dc::{dc_operating_point, DcOptions};
use losac_sim::linear::Linearized;
use losac_sizing::eval::{evaluate_with, EvalCache, EvalOptions, InputDrive, Performance};
use losac_sizing::{FoldedCascodeOta, FoldedCascodePlan, OtaSpecs, ParasiticMode, Topology};
use losac_tech::Technology;
use std::sync::Arc;

fn sized_ota() -> (Technology, FoldedCascodeOta) {
    let tech = Technology::cmos06();
    let ota = FoldedCascodePlan::default()
        .size(&tech, &OtaSpecs::paper_example(), &ParasiticMode::None)
        .expect("paper-example sizing succeeds");
    (tech, ota)
}

/// Every field of a `Performance`, as raw bits, for exact comparison.
fn perf_bits(p: &Performance) -> [u64; 11] {
    [
        p.dc_gain_db.to_bits(),
        p.gbw.to_bits(),
        p.phase_margin.to_bits(),
        p.slew_rate.to_bits(),
        p.cmrr_db.to_bits(),
        p.offset.to_bits(),
        p.output_resistance.to_bits(),
        p.input_noise_rms.to_bits(),
        p.thermal_noise_density.to_bits(),
        p.flicker_noise_density.to_bits(),
        p.power.to_bits(),
    ]
}

#[test]
fn restamped_linearisation_sweeps_bitwise_identical_to_a_fresh_build() {
    let (tech, ota) = sized_ota();
    let mut circuit = ota.netlist(
        &tech,
        &ParasiticMode::None,
        InputDrive::Differential { dv: 0.0 },
    );
    let dc = dc_operating_point(&circuit, &DcOptions::default()).expect("dc");
    let opts = AcOptions {
        fstart: 10.0,
        fstop: 20e9,
        points_per_decade: 24,
    };

    // Linearise under a differential drive, then switch to a common-mode
    // drive and restamp only the excitation — as the evaluator does.
    circuit.set_source_ac("vinp", 0.5).expect("vinp");
    circuit.set_source_ac("vinn", -0.5).expect("vinn");
    let mut lin = Linearized::build(&circuit, &dc);
    circuit.set_source_ac("vinp", 1.0).expect("vinp");
    circuit.set_source_ac("vinn", 1.0).expect("vinn");
    lin.restamp_excitation(&circuit);
    let sweep = ac_sweep_on(&lin, &opts).expect("sweep on lin");

    // Reference: a fresh linearisation of the common-mode circuit.
    let reference = ac_sweep(&circuit, &dc, &opts).expect("fresh sweep");
    assert_eq!(sweep.freqs.len(), reference.freqs.len());
    for (f, g) in sweep.freqs.iter().zip(&reference.freqs) {
        assert_eq!(f.to_bits(), g.to_bits(), "frequency grid differs");
    }
    for (i, (row, ref_row)) in sweep.v.iter().zip(&reference.v).enumerate() {
        assert_eq!(row.len(), ref_row.len());
        for (node, (z, w)) in row.iter().zip(ref_row).enumerate() {
            assert_eq!(
                (z.re.to_bits(), z.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "phasor differs at point {i}, node {node}"
            );
        }
    }
}

#[test]
fn cached_evaluate_returns_the_identical_performance() {
    let (tech, ota) = sized_ota();
    let mode = ParasiticMode::UnfoldedDiffusion;
    let uncached = evaluate_with(&ota, &tech, &mode, &EvalOptions::default()).expect("uncached");

    let cache = Arc::new(EvalCache::new());
    let opts = EvalOptions::default().with_cache(cache.clone());
    let first = evaluate_with(&ota, &tech, &mode, &opts).expect("miss");
    let second = evaluate_with(&ota, &tech, &mode, &opts).expect("hit");

    assert_eq!(cache.len(), 1, "one key for the repeated evaluation");
    assert_eq!(perf_bits(&first), perf_bits(&uncached));
    assert_eq!(perf_bits(&second), perf_bits(&uncached));
}

#[test]
fn cache_distinguishes_parasitic_modes() {
    let (tech, ota) = sized_ota();
    let cache = Arc::new(EvalCache::new());
    let opts = EvalOptions::default().with_cache(cache.clone());
    let none = evaluate_with(&ota, &tech, &ParasiticMode::None, &opts).expect("none");
    let diff =
        evaluate_with(&ota, &tech, &ParasiticMode::UnfoldedDiffusion, &opts).expect("diffusion");
    assert_eq!(cache.len(), 2, "distinct modes must not collide");
    assert_ne!(
        none.gbw.to_bits(),
        diff.gbw.to_bits(),
        "parasitics must change the result (otherwise this test is vacuous)"
    );
}
