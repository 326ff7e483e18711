//! Unit conventions and conversion helpers.
//!
//! * Geometry: **integer nanometres** ([`Nm`]). Integer coordinates make
//!   grid snapping, equality and DRC checks exact.
//! * Physics: SI `f64` — farads, amperes, volts, metres, hertz, watts.
//!
//! The helpers below make call sites read like the datasheet values they
//! come from:
//!
//! ```
//! use losac_tech::units::{um, nm_to_m, pf, KBOLTZMANN};
//!
//! let w = um(10.0);            // 10 µm expressed in nanometres
//! assert_eq!(w, 10_000);
//! assert!((nm_to_m(w) - 10e-6).abs() < 1e-18);
//! assert!((pf(3.0) - 3.0e-12).abs() < 1e-24);
//! assert!(KBOLTZMANN > 0.0);
//! ```

/// Geometric length in integer nanometres.
pub type Nm = i64;

/// Boltzmann constant (J/K).
pub const KBOLTZMANN: f64 = 1.380_649e-23;

/// Elementary charge (C).
pub const QELECTRON: f64 = 1.602_176_634e-19;

/// Default analysis temperature (K): 300.15 K = 27 °C.
pub const T_NOMINAL: f64 = 300.15;

/// Thermal voltage kT/q at the default temperature (V), ≈ 25.9 mV.
pub const UT_NOMINAL: f64 = KBOLTZMANN * T_NOMINAL / QELECTRON;
const _: () = assert!(UT_NOMINAL > 0.0255 && UT_NOMINAL < 0.0262);

/// Convert micrometres to integer nanometres (rounds to nearest).
///
/// # Panics
///
/// Panics in debug builds if the value does not fit an `i64` or is NaN.
pub fn um(v: f64) -> Nm {
    debug_assert!(v.is_finite());
    (v * 1.0e3).round() as Nm
}

/// Convert integer nanometres to metres.
pub fn nm_to_m(v: Nm) -> f64 {
    v as f64 * 1.0e-9
}

/// Convert integer nanometres to micrometres.
pub fn nm_to_um(v: Nm) -> f64 {
    v as f64 * 1.0e-3
}

/// Convert metres to integer nanometres (rounds to nearest).
pub fn m_to_nm(v: f64) -> Nm {
    debug_assert!(v.is_finite());
    (v * 1.0e9).round() as Nm
}

/// Picofarads to farads.
pub fn pf(v: f64) -> f64 {
    v * 1.0e-12
}

/// Femtofarads to farads.
pub fn ff(v: f64) -> f64 {
    v * 1.0e-15
}

/// Megahertz to hertz.
pub fn mhz(v: f64) -> f64 {
    v * 1.0e6
}

/// Kilohertz to hertz.
pub fn khz(v: f64) -> f64 {
    v * 1.0e3
}

/// Microamperes to amperes.
pub fn ua(v: f64) -> f64 {
    v * 1.0e-6
}

/// Milliamperes to amperes.
pub fn ma(v: f64) -> f64 {
    v * 1.0e-3
}

/// Milliwatts to watts.
pub fn mw(v: f64) -> f64 {
    v * 1.0e-3
}

/// Area of a `w × h` nanometre rectangle in m².
pub fn nm2_to_m2(w: Nm, h: Nm) -> f64 {
    nm_to_m(w) * nm_to_m(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_um_nm() {
        assert_eq!(um(0.6), 600);
        assert_eq!(um(1.25), 1250);
        assert!((nm_to_um(um(12.35)) - 12.35).abs() < 1e-9);
    }

    #[test]
    fn si_conversions() {
        assert!((pf(1.0) - 1e-12).abs() < 1e-25);
        assert!((ff(1.0) - 1e-15).abs() < 1e-28);
        assert!((mhz(65.0) - 65.0e6).abs() < 1e-3);
        assert!((ua(50.0) - 50e-6).abs() < 1e-15);
        assert!((ma(1.0) - 1e-3).abs() < 1e-12);
        assert!((mw(2.0) - 2e-3).abs() < 1e-12);
        assert!((khz(1.0) - 1e3).abs() < 1e-9);
    }

    #[test]
    fn area_conversion() {
        // 1 µm × 1 µm = 1e-12 m²
        assert!((nm2_to_m2(1000, 1000) - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn m_to_nm_roundtrip() {
        assert_eq!(m_to_nm(1e-6), 1000);
        assert_eq!(m_to_nm(nm_to_m(12_345)), 12_345);
    }
}
