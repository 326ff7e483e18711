//! PVT scenarios: process corner × temperature × supply, plus an
//! optional seeded per-device mismatch draw.
//!
//! A [`Scenario`] is the evaluation context the whole workspace threads
//! from the sweep axes down to the device model: the systematic
//! die-to-die shift ([`Corner`]), the analysis temperature, a supply
//! scale, and — for Monte-Carlo yield analysis — one deterministic draw
//! of within-die random mismatch. The nominal scenario (Typical corner,
//! 27 °C, nominal supply, no mismatch) is the identity: every consumer
//! is required to be **bitwise identical** to the scenario-free
//! historical path under it, which is what lets scenario-blind cache
//! keys, golden Table-1 numbers and old wire-protocol clients keep
//! working unchanged.
//!
//! Mismatch draws are addressed, not streamed: the normal deviates for a
//! device are a pure function of `(seed, sample, device name)`, so any
//! evaluation order — serial, 4 workers, a resumed run — sees the same
//! silicon die. The deviates are *unit* normals; the consumer scales
//! them by the Pelgrom sigmas of the concrete device geometry
//! (σ(ΔVt) = A_VT/√(W·L)), which is only known once the netlist is
//! built.

use crate::units::T_NOMINAL;
use crate::{Corner, Technology};
use std::fmt;

/// The nominal analysis temperature in °C (27 °C = [`T_NOMINAL`] K).
pub const NOMINAL_TEMP_C: f64 = 27.0;

/// A process–voltage–temperature point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pvt {
    /// Process corner (systematic, die-wide parameter shift).
    pub corner: Corner,
    /// Analysis temperature (°C).
    pub temp_c: f64,
    /// Supply scale relative to the design supply (1.0 = nominal).
    pub vdd_scale: f64,
}

impl Default for Pvt {
    fn default() -> Self {
        Self::nominal()
    }
}

impl Pvt {
    /// The nominal point: Typical corner, 27 °C, nominal supply.
    pub fn nominal() -> Self {
        Self {
            corner: Corner::Typical,
            temp_c: NOMINAL_TEMP_C,
            vdd_scale: 1.0,
        }
    }

    /// A PVT point from its three coordinates.
    pub fn new(corner: Corner, temp_c: f64, vdd_scale: f64) -> Self {
        Self {
            corner,
            temp_c,
            vdd_scale,
        }
    }

    /// Whether this is exactly the nominal point.
    pub fn is_nominal(&self) -> bool {
        self.corner == Corner::Typical && self.temp_c == NOMINAL_TEMP_C && self.vdd_scale == 1.0
    }

    /// The analysis temperature in kelvin.
    ///
    /// Computed as an offset from [`T_NOMINAL`] rather than by adding
    /// 273.15, so `temp_c == 27.0` yields *exactly* `T_NOMINAL` — the
    /// bit-equality the device model's nominal-temperature fast path and
    /// the nominal-scenario identity gates key on.
    pub fn temp_k(&self) -> f64 {
        T_NOMINAL + (self.temp_c - NOMINAL_TEMP_C)
    }

    /// This technology shifted to the PVT point: corner parameter shifts
    /// (same derivation as [`Technology::at_corner`], including the name
    /// suffix) plus the supply scale applied to `vdd_nominal`. The
    /// temperature does not alter the technology — it is an analysis
    /// condition threaded to the simulator, not a process property.
    ///
    /// Deterministic: equal inputs produce field-for-field equal
    /// technologies, and the nominal point returns an unchanged clone.
    pub fn derive(&self, tech: &Technology) -> Technology {
        let mut t = tech.at_corner(self.corner);
        t.vdd_nominal *= self.vdd_scale;
        t
    }

    /// Compact label, e.g. `tt/27C`, `ss/-40C`, `ff/125C/v0.90`.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}C", self.corner.label(), self.temp_c);
        if self.vdd_scale != 1.0 {
            s.push_str(&format!("/v{:.2}", self.vdd_scale));
        }
        s
    }
}

impl fmt::Display for Pvt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One deterministic draw of within-die random mismatch: a Monte-Carlo
/// sample index under a sweep seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MismatchDraw {
    /// Sweep-level user seed.
    pub seed: u64,
    /// Sample index within the sweep (one index = one virtual die).
    pub sample: u32,
}

impl MismatchDraw {
    /// Unit-normal deviates `(ΔVt, Δβ)` for `device` — a pure function
    /// of `(seed, sample, device)`, independent of evaluation order, so
    /// every worker count and traversal sees the same die.
    pub fn unit_gauss(&self, device: &str) -> (f64, f64) {
        // FNV-1a over the full address decorrelates adjacent samples and
        // similarly named devices before SplitMix64 expands the state.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self
            .seed
            .to_le_bytes()
            .iter()
            .chain(self.sample.to_le_bytes().iter())
            .chain(device.as_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = crate::rng::Xorshift128Plus::seed_from_u64(h);
        (rng.next_gauss(), rng.next_gauss())
    }
}

/// The full evaluation context: a PVT point plus an optional mismatch
/// draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// The process–voltage–temperature point.
    pub pvt: Pvt,
    /// The mismatch draw, when this scenario is one Monte-Carlo die.
    pub mismatch: Option<MismatchDraw>,
}

impl Default for Scenario {
    fn default() -> Self {
        Self::nominal()
    }
}

impl From<Pvt> for Scenario {
    fn from(pvt: Pvt) -> Self {
        Self {
            pvt,
            mismatch: None,
        }
    }
}

impl Scenario {
    /// The nominal scenario — the identity context every consumer must
    /// treat as bit-identical to the scenario-free path.
    pub fn nominal() -> Self {
        Self {
            pvt: Pvt::nominal(),
            mismatch: None,
        }
    }

    /// A scenario at a PVT point without mismatch.
    pub fn at(pvt: Pvt) -> Self {
        pvt.into()
    }

    /// A corner scenario at the nominal temperature and supply.
    pub fn corner(corner: Corner) -> Self {
        Self::at(Pvt::new(corner, NOMINAL_TEMP_C, 1.0))
    }

    /// This scenario with a mismatch draw attached.
    #[must_use]
    pub fn with_mismatch(mut self, seed: u64, sample: u32) -> Self {
        self.mismatch = Some(MismatchDraw { seed, sample });
        self
    }

    /// Whether this is exactly the nominal scenario.
    pub fn is_nominal(&self) -> bool {
        self.pvt.is_nominal() && self.mismatch.is_none()
    }

    /// Compact label, e.g. `tt/27C`, `ss/125C/mc3`.
    pub fn label(&self) -> String {
        let mut s = self.pvt.label();
        if let Some(m) = &self.mismatch {
            s.push_str(&format!("/mc{}", m.sample));
        }
        s
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_the_identity() {
        let s = Scenario::nominal();
        assert!(s.is_nominal());
        assert!(s.pvt.is_nominal());
        // Kelvin conversion is bit-exact at the nominal point.
        assert_eq!(s.pvt.temp_k().to_bits(), T_NOMINAL.to_bits());
        let tech = Technology::cmos06();
        let derived = s.pvt.derive(&tech);
        assert_eq!(derived, tech);
        assert_eq!(derived.name(), "cmos06");
    }

    #[test]
    fn derive_is_deterministic_and_corner_shifted() {
        let tech = Technology::cmos06();
        let pvt = Pvt::new(Corner::Slow, 125.0, 0.9);
        let a = pvt.derive(&tech);
        let b = pvt.derive(&tech);
        assert_eq!(a, b);
        assert_eq!(a.name(), "cmos06_ss");
        assert!(a.nmos.vt0 > tech.nmos.vt0);
        assert!((a.vdd_nominal - tech.vdd_nominal * 0.9).abs() < 1e-12);
        // Temperature never alters the technology.
        let hot = Pvt::new(Corner::Slow, 125.0, 0.9);
        let cold = Pvt::new(Corner::Slow, -40.0, 0.9);
        assert_eq!(hot.derive(&tech), cold.derive(&tech));
    }

    #[test]
    fn temp_k_tracks_celsius_offsets() {
        assert_eq!(
            Pvt::new(Corner::Typical, 27.0, 1.0).temp_k().to_bits(),
            T_NOMINAL.to_bits()
        );
        let hot = Pvt::new(Corner::Typical, 125.0, 1.0).temp_k();
        let cold = Pvt::new(Corner::Typical, -40.0, 1.0).temp_k();
        assert!((hot - (T_NOMINAL + 98.0)).abs() < 1e-12);
        assert!((cold - (T_NOMINAL - 67.0)).abs() < 1e-12);
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        assert_eq!(Scenario::nominal().label(), "tt/27C");
        assert_eq!(Scenario::corner(Corner::Slow).label(), "ss/27C");
        let s = Scenario::at(Pvt::new(Corner::Fast, -40.0, 0.9)).with_mismatch(7, 3);
        assert_eq!(s.label(), "ff/-40C/v0.90/mc3");
    }

    #[test]
    fn mismatch_draw_is_addressed_not_streamed() {
        let d = MismatchDraw {
            seed: 42,
            sample: 1,
        };
        // Pure function of the address: same inputs, same deviates.
        assert_eq!(d.unit_gauss("mp1"), d.unit_gauss("mp1"));
        // Distinct devices, samples and seeds all decorrelate.
        assert_ne!(d.unit_gauss("mp1"), d.unit_gauss("mp2"));
        let d2 = MismatchDraw {
            seed: 42,
            sample: 2,
        };
        assert_ne!(d.unit_gauss("mp1"), d2.unit_gauss("mp1"));
        let d3 = MismatchDraw {
            seed: 43,
            sample: 1,
        };
        assert_ne!(d.unit_gauss("mp1"), d3.unit_gauss("mp1"));
        // Deviates are plausible unit normals.
        let (a, b) = d.unit_gauss("mp1");
        assert!(a.is_finite() && b.is_finite());
        assert!(a.abs() < 8.0 && b.abs() < 8.0);
    }
}
