//! Inverse device problems used by the sizing plans.
//!
//! The sizing tool works the way COMDIAC does: fix the operating point
//! (effective gate voltage), then find the geometry that delivers a target
//! current or transconductance by "simple monotonic numerical iterations".
//! The solvers here exploit the monotonicities of the EKV model:
//! at fixed terminal voltages the current is proportional to W; at fixed
//! current, gm grows monotonically with W (towards the weak-inversion
//! ceiling `Id/(n·Ut)`).

use crate::ekv::{drain_current_only, evaluate, MosOp, OpEval};
use crate::Mosfet;
use losac_obs::Counter;
use losac_tech::units::T_NOMINAL;
use losac_tech::MosParams;
use std::fmt;

/// Bisection calls made by [`vgs_for_current`].
static VGS_BISECT_CALLS: Counter = Counter::new("device.vgs_bisect.calls");
/// Bisection iterations spent inside [`vgs_for_current`].
static VGS_BISECT_ITERS: Counter = Counter::new("device.vgs_bisect.iters");
/// Bisection calls made by [`width_for_gm_at_current`].
static GM_BISECT_CALLS: Counter = Counter::new("device.gm_bisect.calls");
/// Bisection iterations spent inside [`width_for_gm_at_current`].
static GM_BISECT_ITERS: Counter = Counter::new("device.gm_bisect.iters");
/// Inverse problems that came back without a solution.
static SOLVE_FAILURES: Counter = Counter::new("device.solve.failures");

/// Error returned when an inverse problem has no solution in the allowed
/// geometry range.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveError {
    what: String,
}

impl SolveError {
    fn new(what: impl Into<String>) -> Self {
        // Every solver failure funnels through here, so this is the one
        // place the convergence-failure counter needs to live.
        SOLVE_FAILURES.incr();
        Self { what: what.into() }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device solve failed: {}", self.what)
    }
}

impl std::error::Error for SolveError {}

/// Geometry bounds for the solvers (metres).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidthBounds {
    /// Smallest admissible width.
    pub min: f64,
    /// Largest admissible width.
    pub max: f64,
}

impl Default for WidthBounds {
    fn default() -> Self {
        // 0.8 µm (min active) to 10 mm (absurd but finite upper bound).
        Self {
            min: 0.8e-6,
            max: 10e-3,
        }
    }
}

/// Find the width that conducts `id_target` amperes at the given bias.
///
/// The model current is exactly proportional to W at fixed voltages, so a
/// single reference evaluation suffices.
///
/// # Errors
///
/// Fails if the target is non-positive, the device does not conduct at
/// this bias, or the solution falls outside `bounds`.
pub fn width_for_current(
    params: &MosParams,
    l: f64,
    vgs: f64,
    vds: f64,
    vbs: f64,
    id_target: f64,
    bounds: WidthBounds,
) -> Result<f64, SolveError> {
    if !(id_target > 0.0 && id_target.is_finite()) {
        return Err(SolveError::new(format!(
            "target current {id_target} must be positive"
        )));
    }
    let w_ref = 10e-6;
    let m = Mosfet::new(*params, w_ref, l);
    let i_ref = drain_current_only(&m, vgs, vds, vbs);
    if i_ref <= 0.0 {
        return Err(SolveError::new(format!(
            "device does not conduct at vgs = {vgs}, vds = {vds} (i = {i_ref:e})"
        )));
    }
    let w = w_ref * id_target / i_ref;
    if w < bounds.min || w > bounds.max {
        return Err(SolveError::new(format!(
            "required width {:.3} µm outside [{:.3}, {:.3}] µm",
            w * 1e6,
            bounds.min * 1e6,
            bounds.max * 1e6
        )));
    }
    Ok(w)
}

/// Find the gate-source voltage that conducts `id_target` at fixed
/// geometry (bisection; the current is monotone in VGS).
///
/// # Errors
///
/// Fails if the target cannot be reached below `vgs_max`.
pub fn vgs_for_current(
    m: &Mosfet,
    vds: f64,
    vbs: f64,
    id_target: f64,
    vgs_max: f64,
) -> Result<f64, SolveError> {
    if !(id_target > 0.0 && id_target.is_finite()) {
        return Err(SolveError::new(format!(
            "target current {id_target} must be positive"
        )));
    }
    VGS_BISECT_CALLS.incr();
    let sign = m.params.polarity.sign();
    // Hoist the bias-independent precomputation out of the probe loop:
    // ~100 probes per call used to rebuild it each time. Bit-identical to
    // probing through `drain_current_only` (regression-tested).
    let ev = OpEval::new(m, T_NOMINAL);
    // Work in NMOS-normalised vgs magnitude.
    let f = |vgs_mag: f64| ev.drain_current(sign * vgs_mag, vds, vbs) - id_target;
    let (mut lo, mut hi) = (0.0, vgs_max.abs());
    if f(hi) < 0.0 {
        return Err(SolveError::new(format!(
            "cannot reach {id_target:e} A below |vgs| = {vgs_max}"
        )));
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    VGS_BISECT_ITERS.add(100);
    Ok(sign * 0.5 * (lo + hi))
}

/// Find the width that achieves transconductance `gm_target` while
/// conducting exactly `id` amperes (the bias VGS is re-solved for every
/// candidate width). This is the classic gm/Id sizing step.
///
/// # Errors
///
/// Fails if even the widest device (weak inversion, gm/Id ceiling) cannot
/// reach the target, or the narrowest is already above it.
pub fn width_for_gm_at_current(
    params: &MosParams,
    l: f64,
    vds: f64,
    vbs: f64,
    id: f64,
    gm_target: f64,
    bounds: WidthBounds,
) -> Result<f64, SolveError> {
    if !(gm_target > 0.0 && id > 0.0) {
        return Err(SolveError::new("targets must be positive"));
    }
    GM_BISECT_CALLS.incr();
    let gm_at = |w: f64| -> Result<f64, SolveError> {
        let m = Mosfet::new(*params, w, l);
        let vgs = vgs_for_current(&m, vds, vbs, id, 5.0)?;
        Ok(evaluate(&m, vgs, vds, vbs).gm)
    };
    let g_lo = gm_at(bounds.min)?;
    if g_lo >= gm_target {
        // Even the narrowest device exceeds the target; return it (the
        // caller asked for *at least* this gm in practice).
        return Ok(bounds.min);
    }
    let g_hi = gm_at(bounds.max)?;
    if g_hi < gm_target {
        return Err(SolveError::new(format!(
            "gm target {gm_target:e} above the weak-inversion ceiling {g_hi:e} at id = {id:e}"
        )));
    }
    let (mut lo, mut hi) = (bounds.min, bounds.max);
    for _ in 0..80 {
        let mid = (lo * hi).sqrt(); // geometric bisection: W spans decades
        if gm_at(mid)? < gm_target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    GM_BISECT_ITERS.add(80);
    Ok((lo * hi).sqrt())
}

/// Evaluate a device at the bias that conducts `id`: convenience used all
/// over the sizing plans.
///
/// # Errors
///
/// Propagates [`vgs_for_current`] failures.
pub fn op_at_current(m: &Mosfet, vds: f64, vbs: f64, id: f64) -> Result<(f64, MosOp), SolveError> {
    let vgs = vgs_for_current(m, vds, vbs, id, 5.0)?;
    Ok((vgs, evaluate(m, vgs, vds, vbs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_tech::Technology;

    fn nparams() -> MosParams {
        Technology::cmos06().nmos
    }

    fn pparams() -> MosParams {
        Technology::cmos06().pmos
    }

    #[test]
    fn width_for_current_roundtrip() {
        let p = nparams();
        let w = width_for_current(&p, 1e-6, 1.2, 1.5, 0.0, 100e-6, WidthBounds::default()).unwrap();
        let m = Mosfet::new(p, w, 1e-6);
        let i = drain_current_only(&m, 1.2, 1.5, 0.0);
        assert!((i - 100e-6).abs() < 1e-9, "i = {i:e}");
    }

    #[test]
    fn width_for_current_rejects_off_device() {
        let p = nparams();
        let err = width_for_current(&p, 1e-6, 0.0, 1.5, 0.0, 100e-6, WidthBounds::default());
        assert!(err.is_err());
    }

    #[test]
    fn width_for_current_rejects_negative_target() {
        let p = nparams();
        assert!(width_for_current(&p, 1e-6, 1.2, 1.5, 0.0, -1e-6, WidthBounds::default()).is_err());
    }

    #[test]
    fn vgs_for_current_roundtrip_nmos() {
        let m = Mosfet::new(nparams(), 20e-6, 1e-6);
        let vgs = vgs_for_current(&m, 1.5, 0.0, 50e-6, 3.3).unwrap();
        let i = drain_current_only(&m, vgs, 1.5, 0.0);
        assert!((i - 50e-6).abs() < 1e-9);
        assert!(vgs > 0.0);
    }

    #[test]
    fn vgs_for_current_roundtrip_pmos() {
        let m = Mosfet::new(pparams(), 60e-6, 1e-6);
        let vgs = vgs_for_current(&m, -1.5, 0.0, 50e-6, 3.3).unwrap();
        assert!(vgs < 0.0, "PMOS needs negative vgs, got {vgs}");
        let i = drain_current_only(&m, vgs, -1.5, 0.0);
        assert!((i - 50e-6).abs() < 1e-9);
    }

    #[test]
    fn vgs_for_unreachable_current_errors() {
        let m = Mosfet::new(nparams(), 1e-6, 10e-6);
        assert!(vgs_for_current(&m, 1.5, 0.0, 1.0, 3.3).is_err());
    }

    #[test]
    fn gm_sizing_reaches_target() {
        let p = nparams();
        let id = 50e-6;
        let gm_target = 600e-6; // gm/Id = 12 → moderate inversion
        let w = width_for_gm_at_current(&p, 1e-6, 1.5, 0.0, id, gm_target, WidthBounds::default())
            .unwrap();
        let m = Mosfet::new(p, w, 1e-6);
        let (_, op) = op_at_current(&m, 1.5, 0.0, id).unwrap();
        assert!(
            (op.gm - gm_target).abs() < 0.01 * gm_target,
            "gm = {:e}",
            op.gm
        );
    }

    #[test]
    fn gm_sizing_ceiling_detected() {
        let p = nparams();
        // gm/Id = 40 is above the ~28/V weak-inversion ceiling.
        let err =
            width_for_gm_at_current(&p, 1e-6, 1.5, 0.0, 10e-6, 400e-6, WidthBounds::default());
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("ceiling"));
    }

    #[test]
    fn vgs_for_current_bitwise_stable_vs_unhoisted_bisection() {
        // Replay the exact bisection with per-probe rebuilds and require
        // the identical result bit for bit.
        let m = Mosfet::new(nparams(), 20e-6, 1e-6);
        let got = vgs_for_current(&m, 1.5, 0.0, 50e-6, 3.3).unwrap();
        let f = |vgs_mag: f64| drain_current_only(&m, vgs_mag, 1.5, 0.0) - 50e-6;
        let (mut lo, mut hi) = (0.0, 3.3f64.abs());
        assert!(f(hi) >= 0.0);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if f(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let expect = 0.5 * (lo + hi);
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn wider_device_more_gm_at_fixed_current() {
        let p = nparams();
        let gm_of = |w: f64| {
            let m = Mosfet::new(p, w, 1e-6);
            op_at_current(&m, 1.5, 0.0, 50e-6).unwrap().1.gm
        };
        assert!(gm_of(40e-6) > gm_of(10e-6));
    }
}
