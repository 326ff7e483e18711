//! Reusable building-block sizing routines.
//!
//! COMDIAC is hierarchical: "fixed routines have been developed for
//! frequently used building blocks with different styles — this
//! simplifies the addition of new topologies" (§4). These are those
//! routines: each sizes one canonical analog block at a designer-chosen
//! effective gate voltage, using the shared EKV model. The amplifier
//! plans ([`crate::ota`]) are thin compositions of these.

use crate::ota::folded_cascode::{SizedDevice, SizingError};
use losac_device::ekv::{evaluate, threshold, MosOp};
use losac_device::solve::{vgs_for_current, width_for_current, WidthBounds};
use losac_device::Mosfet;
use losac_tech::{Polarity, Technology};

/// Size a single device to conduct `i` at effective gate voltage `veff`
/// and drain–source magnitude `vds` (both magnitudes; polarity signs are
/// applied internally).
///
/// # Errors
///
/// Propagates the width-solver failures (unreachable current, width
/// bounds), prefixed with the device `name`.
pub fn size_device(
    name: &str,
    tech: &Technology,
    polarity: Polarity,
    l: f64,
    veff: f64,
    i: f64,
    vds: f64,
) -> Result<SizedDevice, SizingError> {
    let params = tech.mos(polarity);
    let sgn = polarity.sign();
    let vgs = sgn * (threshold(params, 0.0) + veff);
    let w = width_for_current(params, l, vgs, sgn * vds, 0.0, i, WidthBounds::default())
        .map_err(|e| SizingError::new(format!("{name}: {e}")))?;
    Ok(SizedDevice { polarity, w, l })
}

/// Size a differential pair for a target transconductance: returns the
/// per-side device and the per-side drain current.
///
/// The bias point is fixed by `veff` (the COMDIAC discipline: V_GS − V_TH
/// held constant through the sizing iteration); the current follows from
/// the model's gm/ID at that point.
///
/// # Errors
///
/// Fails when the device cannot transconduct at this bias or the width
/// solver fails.
pub fn size_diff_pair(
    tech: &Technology,
    polarity: Polarity,
    l: f64,
    veff: f64,
    gm_target: f64,
) -> Result<(SizedDevice, f64), SizingError> {
    let params = tech.mos(polarity);
    let sgn = polarity.sign();
    let m_ref = Mosfet::new(*params, 10e-6, l);
    let gm_over_id = evaluate(
        &m_ref,
        sgn * (threshold(params, 0.0) + veff),
        sgn * 1.0,
        0.0,
    )
    .gm_over_id();
    if gm_over_id <= 0.0 {
        return Err(SizingError::new(
            "pair device does not transconduct at this bias",
        ));
    }
    let i_side = gm_target / gm_over_id;
    let dev = size_device("pair device", tech, polarity, l, veff, i_side, 0.9)?;
    Ok((dev, i_side))
}

/// Size a ratioed current mirror: the reference (diode) device conducts
/// `i_ref`; each output leg conducts `i_ref × ratio`. All devices share
/// `l` and `veff`, so the ratios realise as pure width ratios — the
/// condition the stacked-layout generator needs for integer finger
/// ratios.
///
/// # Errors
///
/// Fails when a ratio is non-positive or a width solve fails.
pub fn size_mirror(
    tech: &Technology,
    polarity: Polarity,
    l: f64,
    veff: f64,
    i_ref: f64,
    ratios: &[f64],
) -> Result<Vec<SizedDevice>, SizingError> {
    let mut out = Vec::with_capacity(ratios.len() + 1);
    let diode = size_device(
        "mirror diode",
        tech,
        polarity,
        l,
        veff,
        i_ref,
        threshold(tech.mos(polarity), 0.0) + veff,
    )?;
    out.push(diode);
    for (k, &ratio) in ratios.iter().enumerate() {
        if !(ratio > 0.0 && ratio.is_finite()) {
            return Err(SizingError::new(format!(
                "mirror ratio #{k} = {ratio} must be positive"
            )));
        }
        // Same L and veff: width scales exactly with the ratio.
        out.push(SizedDevice {
            polarity,
            w: diode.w * ratio,
            l,
        });
    }
    Ok(out)
}

/// Compute the gate bias that makes `dev` conduct `i` with its source at
/// `v_source` and a drain–source magnitude `vds` — the bias-chain helper
/// every plan uses for its cascode/tail voltages.
///
/// # Errors
///
/// Fails when the current is unreachable.
pub fn gate_bias_for(
    tech: &Technology,
    dev: &SizedDevice,
    i: f64,
    v_source: f64,
    vds: f64,
) -> Result<f64, SizingError> {
    let m = Mosfet::new(*tech.mos(dev.polarity), dev.w, dev.l);
    let sgn = dev.polarity.sign();
    let vgs =
        vgs_for_current(&m, sgn * vds, 0.0, i, 5.0).map_err(|e| SizingError::new(e.to_string()))?;
    Ok(v_source + vgs)
}

/// Operating point of a sized device conducting `i` at drain–source
/// magnitude `vds` — used by plans for analytic pole estimates.
///
/// # Errors
///
/// Fails when the current is unreachable.
pub fn op_of(tech: &Technology, dev: &SizedDevice, i: f64, vds: f64) -> Result<MosOp, SizingError> {
    let m = Mosfet::new(*tech.mos(dev.polarity), dev.w, dev.l);
    let sgn = dev.polarity.sign();
    let vgs =
        vgs_for_current(&m, sgn * vds, 0.0, i, 5.0).map_err(|e| SizingError::new(e.to_string()))?;
    Ok(evaluate(&m, vgs, sgn * vds, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_device::ekv::drain_current_only;

    fn tech() -> Technology {
        Technology::cmos06()
    }

    #[test]
    fn size_device_hits_current() {
        let t = tech();
        let d = size_device("m1", &t, Polarity::Nmos, 1e-6, 0.2, 100e-6, 1.0).unwrap();
        let m = Mosfet::new(t.nmos, d.w, d.l);
        let i = drain_current_only(&m, t.nmos.vt0 + 0.2, 1.0, 0.0);
        assert!((i - 100e-6).abs() < 1e-9);
    }

    #[test]
    fn diff_pair_delivers_gm() {
        let t = tech();
        let (dev, i_side) = size_diff_pair(&t, Polarity::Pmos, 1e-6, 0.2, 1e-3).unwrap();
        let op = op_of(&t, &dev, i_side, 1.0).unwrap();
        assert!((op.gm - 1e-3).abs() < 0.02e-3, "gm = {:e}", op.gm);
    }

    #[test]
    fn mirror_ratios_are_width_ratios() {
        let t = tech();
        let m = size_mirror(&t, Polarity::Nmos, 2e-6, 0.25, 50e-6, &[3.0, 6.0]).unwrap();
        assert_eq!(m.len(), 3);
        assert!((m[1].w / m[0].w - 3.0).abs() < 1e-9);
        assert!((m[2].w / m[0].w - 6.0).abs() < 1e-9);
        // And the ratioed legs conduct the ratioed currents at the mirror
        // bias (same VGS).
        let vgs = t.nmos.vt0 + 0.25;
        let i0 = drain_current_only(&Mosfet::new(t.nmos, m[0].w, m[0].l), vgs, vgs, 0.0);
        let i1 = drain_current_only(&Mosfet::new(t.nmos, m[1].w, m[1].l), vgs, vgs, 0.0);
        assert!((i1 / i0 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mirror_rejects_bad_ratio() {
        let t = tech();
        assert!(size_mirror(&t, Polarity::Nmos, 2e-6, 0.25, 50e-6, &[0.0]).is_err());
    }

    #[test]
    fn gate_bias_roundtrip() {
        let t = tech();
        let d = size_device("m1", &t, Polarity::Nmos, 1e-6, 0.25, 80e-6, 0.5).unwrap();
        let vg = gate_bias_for(&t, &d, 80e-6, 0.3, 0.5).unwrap();
        // Source at 0.3 V: gate must sit roughly VT + veff above it.
        assert!((vg - (0.3 + t.nmos.vt0 + 0.25)).abs() < 0.15, "vg = {vg}");
    }
}
