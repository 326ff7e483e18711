//! Analytic-vs-finite-difference equivalence gates for the EKV model
//! (DESIGN §6j, tier "tolerance-gated").
//!
//! The oracle is central differences of the public
//! [`OpEval::drain_current`], the very current expression the model
//! differentiates. The analytic derivatives must agree with it everywhere
//! the current is smooth — across both polarities, all operating regions
//! and a range of temperatures — and must be *better* than central
//! differences at the two pinch-off clamp boundaries, where a straddling
//! probe averages two regimes and returns a step-size-dependent answer.

use losac_device::ekv::{evaluate_at, OpEval};
use losac_device::Mosfet;
use losac_tech::units::T_NOMINAL;
use losac_tech::{MosParams, Technology};

/// SplitMix64: tiny, seedable, no dependencies — enough to scatter bias
/// points; statistical quality is irrelevant here.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [lo, hi).
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }
}

/// The pinch-off clamp constants, mirrored from `ekv.rs` (they are part
/// of the model's documented semantics, see DESIGN §6j).
const ARG_CLAMP: f64 = 1e-12;
const PV_CLAMP: f64 = 0.05;
const VT_TEMP_COEFF: f64 = -2.0e-3;

/// The central-difference probe step (1 µV).
const H: f64 = 1e-6;

/// Temperature-shifted threshold and the pinch-off constant `a`, from
/// the public model-card fields.
fn vt0_t_and_a(p: &MosParams, temp_k: f64) -> (f64, f64) {
    (
        p.vt0 + VT_TEMP_COEFF * (temp_k - T_NOMINAL),
        p.phi.sqrt() + p.gamma / 2.0,
    )
}

/// Whether a central-difference probe pair at this bias straddles (or
/// comes within `margin` of) either derivative kink, making FD itself
/// unreliable there. Such points are gated by the dedicated boundary
/// tests below, not the smooth-region grid.
fn near_clamp_kink(m: &Mosfet, vgs: f64, vds: f64, vbs: f64, temp_k: f64, margin: f64) -> bool {
    let s = m.params.polarity.sign();
    let vg = s * (vgs - vbs);
    let (vt0_t, a) = vt0_t_and_a(&m.params, temp_k);
    let raw = vg - vt0_t + a * a;
    if (raw - ARG_CLAMP).abs() < margin {
        return true;
    }
    let op = evaluate_at(m, vgs, vds, vbs, temp_k);
    (m.params.phi + op.vp - PV_CLAMP).abs() < margin
}

#[test]
fn analytic_matches_central_differences_on_randomised_grid() {
    let tech = Technology::cmos06();
    let mut rng = SplitMix64(0x105a_c0de_0000_0009);
    let mut tested = 0usize;
    let mut by_region = [0usize; 4];
    for (params, w, l) in [
        (tech.nmos, 12e-6, 0.8e-6),
        (tech.nmos, 80e-6, 3e-6),
        (tech.pmos, 30e-6, 1.2e-6),
        (tech.pmos, 6e-6, 0.6e-6),
    ] {
        let m = Mosfet::new(params, w, l);
        let s = params.polarity.sign();
        for temp_k in [250.0, T_NOMINAL, 350.0, 400.0] {
            for _ in 0..96 {
                // Bias magnitudes spanning cutoff → weak → triode →
                // saturation; vbs is reverse body bias.
                let vgs = s * rng.uniform(0.0, 3.3);
                let vds = s * rng.uniform(0.0, 3.3);
                let vbs = -s * rng.uniform(0.0, 1.5);
                if near_clamp_kink(&m, vgs, vds, vbs, temp_k, 5.0 * H) {
                    continue;
                }
                let ev = OpEval::new(&m, temp_k);
                let op_a = evaluate_at(&m, vgs, vds, vbs, temp_k);
                // The oracle differentiates the current the model reports.
                assert_eq!(op_a.id.to_bits(), ev.drain_current(vgs, vds, vbs).to_bits());
                let (gm_f, gds_f, gmb_f) = fd_conductances(&ev, vgs, vds, vbs, H);
                // Derivatives agree to FD truncation accuracy: documented
                // tolerance 1e-5 relative per conductance, with a small
                // cushion against cancellation in near-zero conductances
                // (gmb sums three terms that can nearly cancel).
                let gmax = [op_a.gm, op_a.gds, op_a.gmb, gm_f, gds_f, gmb_f]
                    .iter()
                    .fold(0.0f64, |acc, v| acc.max(v.abs()));
                for (what, a, f) in [
                    ("gm", op_a.gm, gm_f),
                    ("gds", op_a.gds, gds_f),
                    ("gmb", op_a.gmb, gmb_f),
                ] {
                    let tol = 1e-5 * a.abs().max(f.abs()) + 1e-9 * gmax + 1e-25;
                    assert!(
                        (a - f).abs() <= tol,
                        "{what}: analytic {a:e} vs fd {f:e} at \
                         (vgs={vgs:.4}, vds={vds:.4}, vbs={vbs:.4}, T={temp_k}) \
                         [{:?}]",
                        op_a.region
                    );
                }
                by_region[match op_a.region {
                    losac_device::Region::Cutoff => 0,
                    losac_device::Region::Weak => 1,
                    losac_device::Region::Triode => 2,
                    losac_device::Region::Saturation => 3,
                }] += 1;
                tested += 1;
            }
        }
    }
    // The clamp exclusion must not hollow the property out, and the draw
    // ranges must actually cover every region.
    assert!(tested >= 1200, "only {tested} grid points survived");
    assert!(
        by_region.iter().all(|&n| n > 0),
        "region coverage hole: {by_region:?}"
    );
}

/// Central differences `(gm, gds, gmb)` of the drain current over `2·h`
/// in VGS, VDS and VBS. The biases are in the device's natural signs and
/// the current is polarity-normalised, so each slope carries the
/// polarity sign to land in the model's convention.
fn fd_conductances(ev: &OpEval, vgs: f64, vds: f64, vbs: f64, h: f64) -> (f64, f64, f64) {
    let s = ev.device().params.polarity.sign();
    let slope = |lo: f64, hi: f64| s * (hi - lo) / (2.0 * h);
    let id = |vgs, vds, vbs| ev.drain_current(vgs, vds, vbs);
    (
        slope(id(vgs - h, vds, vbs), id(vgs + h, vds, vbs)),
        slope(id(vgs, vds - h, vbs), id(vgs, vds + h, vbs)),
        slope(id(vgs, vds, vbs - h), id(vgs, vds, vbs + h)),
    )
}

/// Central-difference gm over `2·h`.
fn fd_gm(ev: &OpEval, vgs: f64, vds: f64, vbs: f64, h: f64) -> f64 {
    fd_conductances(ev, vgs, vds, vbs, h).0
}

#[test]
fn sqrt_arg_clamp_boundary_gm_is_clamp_consistent() {
    // Clamp 1: `arg.max(1e-12)` inside the pinch-off square root. Place
    // the bias *inside* the clamp, within one probe step of the boundary,
    // so a central difference at step `H` straddles the kink.
    let m = Mosfet::new(Technology::cmos06().nmos, 12e-6, 0.8e-6);
    let p = &m.params;
    let (vt0_t, a) = vt0_t_and_a(p, T_NOMINAL);
    // raw = vgs − vt0_t + a² (vbs = 0): the boundary sits at raw = 1e-12.
    let vgs_boundary = vt0_t - a * a + ARG_CLAMP;
    let vgs = vgs_boundary - 0.3 * H;
    let (vds, vbs) = (1.0, 0.0);

    let ev = OpEval::new(&m, T_NOMINAL);
    // Reference: a central difference whose *both* probes stay inside the
    // clamp (step 0.1·h), where the current is smooth.
    let reference = fd_gm(&ev, vgs, vds, vbs, 0.1 * H);
    assert!(reference > 0.0);

    let analytic = evaluate_at(&m, vgs, vds, vbs, T_NOMINAL).gm;
    let straddling = fd_gm(&ev, vgs, vds, vbs, H);

    let rel = |x: f64| (x - reference).abs() / reference.abs();
    // Inside the clamp the analytic slope (frozen √arg term, dvp = 1) is
    // exact; the straddling probe averages in the far-side regime where
    // dvp ≈ 1 − γ/(2√arg) is a huge negative number, and comes back
    // wildly wrong (the historical bug this PR fixes).
    assert!(rel(analytic) < 1e-4, "analytic off by {:e}", rel(analytic));
    assert!(
        rel(straddling) > 0.05,
        "straddling FD unexpectedly accurate ({:e}) — boundary test is \
         not exercising the kink",
        rel(straddling)
    );
}

#[test]
fn slope_factor_clamp_boundary_gm_is_clamp_consistent() {
    // Clamp 2: `(phi + vp).max(0.05)` inside the slope factor. The
    // boundary bias is found by bisecting the reported pinch-off voltage.
    let m = Mosfet::new(Technology::cmos06().nmos, 12e-6, 0.8e-6);
    let p = &m.params;
    let (vds, vbs) = (1.5, 0.0);
    let pv_raw = |vgs: f64| p.phi + evaluate_at(&m, vgs, vds, vbs, T_NOMINAL).vp;
    // vp is increasing in vgs here; bracket the pv = 0.05 crossing.
    let (mut lo, mut hi) = (-0.6, 0.7);
    assert!(pv_raw(lo) < PV_CLAMP && pv_raw(hi) > PV_CLAMP);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if pv_raw(mid) < PV_CLAMP {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let vgs_boundary = 0.5 * (lo + hi);
    // Sanity: this boundary must be far from clamp 1 — the two regressions
    // exercise distinct kinks.
    let (vt0_t, a) = vt0_t_and_a(p, T_NOMINAL);
    assert!((vgs_boundary - vt0_t + a * a - ARG_CLAMP).abs() > 1e-3);

    let vgs = vgs_boundary - 0.3 * H; // inside the clamp (n frozen)
    let ev = OpEval::new(&m, T_NOMINAL);
    let reference = fd_gm(&ev, vgs, vds, vbs, 0.1 * H);
    assert!(reference > 0.0);

    let analytic = evaluate_at(&m, vgs, vds, vbs, T_NOMINAL).gm;
    let straddling = fd_gm(&ev, vgs, vds, vbs, H);

    let rel = |x: f64| (x - reference).abs() / reference.abs();
    // The kink here is milder than clamp 1 (only dn jumps, by
    // γ·dvp/(4·pv^1.5) ≈ 6/V), so the straddling error is percent-level
    // rather than order-one — still far outside the analytic error.
    assert!(rel(analytic) < 1e-4, "analytic off by {:e}", rel(analytic));
    assert!(
        rel(straddling) > 10.0 * rel(analytic).max(1e-7),
        "straddling FD ({:e}) not measurably worse than analytic ({:e})",
        rel(straddling),
        rel(analytic)
    );
}
