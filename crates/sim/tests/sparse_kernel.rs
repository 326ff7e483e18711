//! End-to-end gates for the sparse MNA kernel.
//!
//! The in-module tests in `sparse.rs` cover the kernel in isolation, and
//! those in `dc.rs` compare it against the dense fallback on randomised
//! netlists and pin [`losac_sim::dc::DcSession`] reuse. These tests drive
//! it through the public simulator entry points:
//!
//! * error semantics survive the kernel swap (a singular circuit is
//!   still reported as [`DcError::Singular`], via the dense retry);
//! * the noise-source PSD fast paths are bit-identical to the general
//!   formula.

use losac_sim::dc::{dc_operating_point, DcError, DcOptions};
use losac_sim::linear::NoiseSource;
use losac_sim::netlist::Circuit;

#[test]
fn vsource_loop_is_still_singular_under_sparse_kernel() {
    let mut c = Circuit::new();
    c.vsource("v1", "a", "0", 1.0);
    c.vsource("v2", "a", "0", 2.0);
    let err = dc_operating_point(&c, &DcOptions::default()).unwrap_err();
    assert!(
        matches!(err, DcError::Singular(_)),
        "a contradictory vsource loop must stay a Singular error, got {err}"
    );
}

#[test]
fn flicker_psd_fast_paths_match_the_general_formula() {
    let src = |white: f64, flicker: f64, af: f64| NoiseSource {
        element: "m1".into(),
        mechanism: "flicker",
        a: 0,
        b: 1,
        psd_white: white,
        psd_flicker_1hz: flicker,
        af,
    };
    let freqs: [f64; 5] = [1.0, 7.5, 1e3, 3.7e6, 1e9];
    for &f in &freqs {
        // af = 1.0 fast path: psd_white + flicker / f^1.0, bit for bit.
        let fast = src(1e-24, 3e-22, 1.0);
        let general = fast.psd_white + fast.psd_flicker_1hz / f.powf(1.0);
        assert_eq!(fast.psd(f).to_bits(), general.to_bits(), "af=1 at f={f}");
        // Pure-thermal fast path: the flicker term must not perturb bits.
        let thermal = src(4.2e-23, 0.0, 1.0);
        assert_eq!(thermal.psd(f).to_bits(), thermal.psd_white.to_bits());
        // Fractional exponent still takes the powf route.
        let frac = src(1e-24, 3e-22, 1.3);
        let expect = frac.psd_white + frac.psd_flicker_1hz / f.powf(1.3);
        assert_eq!(frac.psd(f).to_bits(), expect.to_bits(), "af=1.3 at f={f}");
    }
}
