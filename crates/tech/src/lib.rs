//! # losac-tech — technology description for analog layout synthesis
//!
//! This crate holds everything the sizing, layout and simulation tools need
//! to know about a CMOS process:
//!
//! * [`layers::Layer`] — the symbolic mask layers,
//! * [`rules::DesignRules`] — minimum widths / spacings / enclosures (all in
//!   integer nanometres, snapped to the process grid),
//! * [`parasitics::CapacitanceRules`] and [`parasitics::ResistanceRules`] —
//!   the coefficients used by the geometric parasitic extractor,
//! * [`reliability::ReliabilityRules`] — electromigration current-density
//!   limits that drive wire widths and contact counts,
//! * [`mos::MosParams`] — the analytic MOS model cards (one per polarity),
//! * [`Technology`] — the bundle of all of the above.
//!
//! Two self-consistent processes are built in: [`Technology::cmos06`]
//! (the 0.6 µm process used by the paper's experiments) and
//! [`Technology::cmos035`] (used to demonstrate technology independence of
//! the procedural layout generators).
//!
//! All geometry in this workspace is expressed in **integer nanometres**
//! ([`units::Nm`]); all physical quantities are SI `f64` (farads, amperes,
//! volts, metres) unless a name says otherwise.
//!
//! ```
//! use losac_tech::Technology;
//!
//! let tech = Technology::cmos06();
//! assert_eq!(tech.name(), "cmos06");
//! // minimum gate length is 0.6 µm:
//! assert_eq!(tech.rules.poly_width, 600);
//! tech.validate().expect("built-in technologies are self-consistent");
//! ```

pub mod layers;
pub mod mos;
pub mod parasitics;
pub mod pvt;
pub mod reliability;
pub mod rng;
pub mod rules;
pub mod units;

use std::fmt;

pub use layers::Layer;
pub use mos::{MosParams, Polarity};
pub use parasitics::{CapacitanceRules, JunctionCaps, ResistanceRules, WireCaps};
pub use pvt::{MismatchDraw, Pvt, Scenario};
pub use reliability::ReliabilityRules;
pub use rules::DesignRules;
pub use units::Nm;

/// A complete process description.
///
/// A [`Technology`] is immutable once constructed; tools hold it behind a
/// shared reference (`&Technology` or `Arc<Technology>`) for the duration of
/// a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    name: String,
    /// Layout grid: every coordinate produced by the generators is a
    /// multiple of this (nanometres).
    pub grid: Nm,
    /// Nominal supply voltage of the process (volts).
    pub vdd_nominal: f64,
    /// Geometric design rules.
    pub rules: DesignRules,
    /// Capacitance coefficients for parasitic extraction.
    pub caps: CapacitanceRules,
    /// Sheet / contact resistances.
    pub res: ResistanceRules,
    /// Electromigration limits.
    pub reliability: ReliabilityRules,
    /// NMOS model card.
    pub nmos: MosParams,
    /// PMOS model card.
    pub pmos: MosParams,
}

impl Technology {
    /// Create a technology from parts.
    ///
    /// Prefer the built-in constructors [`Technology::cmos06`] /
    /// [`Technology::cmos035`] unless you are characterising a new process
    /// (the paper's "technology evaluation interface" workflow).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        grid: Nm,
        vdd_nominal: f64,
        rules: DesignRules,
        caps: CapacitanceRules,
        res: ResistanceRules,
        reliability: ReliabilityRules,
        nmos: MosParams,
        pmos: MosParams,
    ) -> Self {
        Self {
            name: name.into(),
            grid,
            vdd_nominal,
            rules,
            caps,
            res,
            reliability,
            nmos,
            pmos,
        }
    }

    /// The process name, e.g. `"cmos06"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Model card for the requested polarity.
    pub fn mos(&self, polarity: Polarity) -> &MosParams {
        match polarity {
            Polarity::Nmos => &self.nmos,
            Polarity::Pmos => &self.pmos,
        }
    }

    /// Snap a length down to the layout grid.
    pub fn snap_down(&self, v: Nm) -> Nm {
        debug_assert!(self.grid > 0);
        v.div_euclid(self.grid) * self.grid
    }

    /// Snap a length to the nearest grid point.
    pub fn snap(&self, v: Nm) -> Nm {
        debug_assert!(self.grid > 0);
        let g = self.grid;
        ((v + g / 2).div_euclid(g)) * g
    }

    /// Snap a length up to the layout grid.
    pub fn snap_up(&self, v: Nm) -> Nm {
        debug_assert!(self.grid > 0);
        let g = self.grid;
        ((v + g - 1).div_euclid(g)) * g
    }

    /// Check internal consistency of the description.
    ///
    /// # Errors
    ///
    /// Returns a [`TechnologyError`] describing the first inconsistency
    /// found (non-positive grid, rule not on grid, non-physical model or
    /// parasitic coefficients, …).
    pub fn validate(&self) -> Result<(), TechnologyError> {
        if self.grid <= 0 {
            return Err(TechnologyError::new("layout grid must be positive"));
        }
        if !(self.vdd_nominal.is_finite() && self.vdd_nominal > 0.0) {
            return Err(TechnologyError::new("nominal supply must be positive"));
        }
        self.rules
            .validate(self.grid)
            .map_err(|m| TechnologyError::new(format!("design rules: {m}")))?;
        self.caps
            .validate()
            .map_err(|m| TechnologyError::new(format!("capacitance rules: {m}")))?;
        self.res
            .validate()
            .map_err(|m| TechnologyError::new(format!("resistance rules: {m}")))?;
        self.reliability
            .validate()
            .map_err(|m| TechnologyError::new(format!("reliability rules: {m}")))?;
        self.nmos
            .validate()
            .map_err(|m| TechnologyError::new(format!("nmos model: {m}")))?;
        self.pmos
            .validate()
            .map_err(|m| TechnologyError::new(format!("pmos model: {m}")))?;
        if self.nmos.polarity != Polarity::Nmos {
            return Err(TechnologyError::new("nmos card has wrong polarity"));
        }
        if self.pmos.polarity != Polarity::Pmos {
            return Err(TechnologyError::new("pmos card has wrong polarity"));
        }
        Ok(())
    }

    /// The 0.6 µm, 3.3 V/5 V CMOS process used throughout the paper's
    /// experiments.
    ///
    /// The coefficients are synthetic but chosen in the range of published
    /// 0.6 µm processes of the period; see `DESIGN.md` for the substitution
    /// rationale.
    pub fn cmos06() -> Self {
        let rules = DesignRules {
            poly_width: 600,
            poly_space: 800,
            active_width: 800,
            active_space: 1200,
            gate_extension: 600,
            gate_to_contact: 600,
            contact_size: 600,
            contact_space: 700,
            active_over_contact: 400,
            poly_over_contact: 400,
            metal1_width: 800,
            metal1_space: 800,
            metal1_over_contact: 400,
            metal2_width: 900,
            metal2_space: 900,
            via_size: 700,
            via_space: 800,
            metal_over_via: 150,
            nwell_over_pactive: 1800,
            nwell_space: 3000,
            well_contact_space: 5000,
            guard_width: 1600,
        };
        let caps = CapacitanceRules {
            cox_area: 2.3e-3, // 15 nm gate oxide -> 2.3 fF/um^2
            ndiff: JunctionCaps {
                cj: 0.45e-3,
                cjsw: 0.35e-9,
                pb: 0.90,
                mj: 0.50,
                mjsw: 0.33,
            },
            pdiff: JunctionCaps {
                cj: 0.65e-3,
                cjsw: 0.42e-9,
                pb: 0.95,
                mj: 0.48,
                mjsw: 0.32,
            },
            nwell: JunctionCaps {
                cj: 0.10e-3,
                cjsw: 0.45e-9,
                pb: 0.80,
                mj: 0.45,
                mjsw: 0.30,
            },
            cgdo: 0.30e-9,
            cgso: 0.30e-9,
            poly_field: WireCaps {
                area: 0.060e-3,
                fringe: 0.045e-9,
                coupling: 0.055e-9,
            },
            metal1: WireCaps {
                area: 0.030e-3,
                fringe: 0.080e-9,
                coupling: 0.100e-9,
            },
            metal2: WireCaps {
                area: 0.020e-3,
                fringe: 0.070e-9,
                coupling: 0.090e-9,
            },
        };
        let res = ResistanceRules {
            poly_sheet: 25.0,
            diff_sheet: 60.0,
            metal1_sheet: 0.07,
            metal2_sheet: 0.05,
            contact: 10.0,
            via: 2.0,
        };
        let reliability = ReliabilityRules {
            metal1_ma_per_um: 1.0,
            metal2_ma_per_um: 1.0,
            contact_ma: 0.4,
            via_ma: 1.0,
        };
        let nmos = MosParams {
            polarity: Polarity::Nmos,
            vt0: 0.75,
            kp: 100e-6,
            gamma: 0.80,
            phi: 0.70,
            slope_n: 1.35,
            theta: 0.15,
            ecrit: 4.0e6,
            va_per_l: 8.0e6,
            ld: 50e-9,
            cox: 2.3e-3,
            cgdo: 0.30e-9,
            cgso: 0.30e-9,
            kf: 6.0e-27,
            af: 1.0,
            avt: 10.0e-9,
            abeta: 0.02e-6,
        };
        let pmos = MosParams {
            polarity: Polarity::Pmos,
            vt0: 0.85,
            kp: 34e-6,
            gamma: 0.55,
            phi: 0.70,
            slope_n: 1.40,
            theta: 0.12,
            ecrit: 12.0e6,
            va_per_l: 12.0e6,
            ld: 60e-9,
            cox: 2.3e-3,
            cgdo: 0.30e-9,
            cgso: 0.30e-9,
            kf: 2.0e-27,
            af: 1.0,
            avt: 12.0e-9,
            abeta: 0.025e-6,
        };
        Self::new("cmos06", 50, 3.3, rules, caps, res, reliability, nmos, pmos)
    }

    /// A 0.35 µm, 3.3 V process, provided to exercise technology
    /// independence of the procedural generators (every generator must
    /// produce DRC-clean geometry for both processes).
    pub fn cmos035() -> Self {
        let rules = DesignRules {
            poly_width: 350,
            poly_space: 500,
            active_width: 500,
            active_space: 700,
            gate_extension: 400,
            gate_to_contact: 400,
            contact_size: 400,
            contact_space: 450,
            active_over_contact: 250,
            poly_over_contact: 250,
            metal1_width: 500,
            metal1_space: 500,
            metal1_over_contact: 250,
            metal2_width: 600,
            metal2_space: 600,
            via_size: 500,
            via_space: 500,
            metal_over_via: 100,
            nwell_over_pactive: 1200,
            nwell_space: 2400,
            well_contact_space: 4000,
            guard_width: 1000,
        };
        let caps = CapacitanceRules {
            cox_area: 4.6e-3, // 7.5 nm gate oxide
            ndiff: JunctionCaps {
                cj: 0.45e-3,
                cjsw: 0.30e-9,
                pb: 0.85,
                mj: 0.45,
                mjsw: 0.30,
            },
            pdiff: JunctionCaps {
                cj: 0.70e-3,
                cjsw: 0.38e-9,
                pb: 0.90,
                mj: 0.45,
                mjsw: 0.30,
            },
            nwell: JunctionCaps {
                cj: 0.12e-3,
                cjsw: 0.50e-9,
                pb: 0.75,
                mj: 0.42,
                mjsw: 0.28,
            },
            cgdo: 0.25e-9,
            cgso: 0.25e-9,
            poly_field: WireCaps {
                area: 0.080e-3,
                fringe: 0.050e-9,
                coupling: 0.065e-9,
            },
            metal1: WireCaps {
                area: 0.035e-3,
                fringe: 0.090e-9,
                coupling: 0.120e-9,
            },
            metal2: WireCaps {
                area: 0.024e-3,
                fringe: 0.080e-9,
                coupling: 0.110e-9,
            },
        };
        let res = ResistanceRules {
            poly_sheet: 8.0,
            diff_sheet: 75.0,
            metal1_sheet: 0.08,
            metal2_sheet: 0.06,
            contact: 12.0,
            via: 3.0,
        };
        let reliability = ReliabilityRules {
            metal1_ma_per_um: 0.9,
            metal2_ma_per_um: 0.9,
            contact_ma: 0.3,
            via_ma: 0.8,
        };
        let nmos = MosParams {
            polarity: Polarity::Nmos,
            vt0: 0.55,
            kp: 175e-6,
            gamma: 0.60,
            phi: 0.80,
            slope_n: 1.30,
            theta: 0.20,
            ecrit: 4.5e6,
            va_per_l: 10.0e6,
            ld: 30e-9,
            cox: 4.6e-3,
            cgdo: 0.25e-9,
            cgso: 0.25e-9,
            kf: 4.0e-27,
            af: 1.0,
            avt: 7.0e-9,
            abeta: 0.015e-6,
        };
        let pmos = MosParams {
            polarity: Polarity::Pmos,
            vt0: 0.65,
            kp: 60e-6,
            gamma: 0.45,
            phi: 0.80,
            slope_n: 1.35,
            theta: 0.15,
            ecrit: 14.0e6,
            va_per_l: 14.0e6,
            ld: 35e-9,
            cox: 4.6e-3,
            cgdo: 0.25e-9,
            cgso: 0.25e-9,
            kf: 1.5e-27,
            af: 1.0,
            avt: 9.0e-9,
            abeta: 0.020e-6,
        };
        Self::new(
            "cmos035",
            25,
            3.3,
            rules,
            caps,
            res,
            reliability,
            nmos,
            pmos,
        )
    }
}

/// A process corner: systematic (die-to-die) parameter shifts.
///
/// The sizing tool's statistical interface covers *random* (within-die)
/// mismatch; corners model the correlated shift of every device on a die
/// — the other half of the paper's "statistical analysis to check the
/// reliability of the synthesized circuit".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Corner {
    /// Nominal process.
    #[default]
    Typical,
    /// Slow corner: thresholds up, mobility down.
    Slow,
    /// Fast corner: thresholds down, mobility up.
    Fast,
}

impl Corner {
    /// The short label of job labels and the wire: `tt`, `ss` or `ff`.
    pub fn label(self) -> &'static str {
        match self {
            Corner::Typical => "tt",
            Corner::Slow => "ss",
            Corner::Fast => "ff",
        }
    }

    /// The corner whose [`label`](Self::label) is `label`, if any.
    pub fn from_label(label: &str) -> Option<Corner> {
        [Corner::Typical, Corner::Slow, Corner::Fast]
            .into_iter()
            .find(|c| c.label() == label)
    }

    /// The suffix the derived technology's name gains (`""` for Typical).
    pub fn suffix(self) -> &'static str {
        match self {
            Corner::Typical => "",
            Corner::Slow => "_ss",
            Corner::Fast => "_ff",
        }
    }

    /// The corner's systematic parameter shift: threshold offset (V) and
    /// transconductance-factor scale, applied to both polarities.
    fn shifts(self) -> (f64, f64) {
        match self {
            Corner::Typical => (0.0, 1.0),
            Corner::Slow => (0.06, 0.85),
            Corner::Fast => (-0.06, 1.15),
        }
    }
}

impl Technology {
    /// This technology shifted to a process corner. The name gains the
    /// corner's [`suffix`](Corner::suffix); `Typical` returns an
    /// unchanged clone. This is the corner half of [`Pvt::derive`],
    /// which additionally applies the supply scale.
    pub fn at_corner(&self, corner: Corner) -> Technology {
        if corner == Corner::Typical {
            return self.clone();
        }
        let (dvt, kp_scale) = corner.shifts();
        let mut t = self.clone();
        t.name = format!("{}{}", self.name, corner.suffix());
        t.nmos.vt0 += dvt;
        t.pmos.vt0 += dvt;
        t.nmos.kp *= kp_scale;
        t.pmos.kp *= kp_scale;
        t
    }
}

/// Error produced by [`Technology::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TechnologyError {
    message: String,
}

impl TechnologyError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TechnologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid technology: {}", self.message)
    }
}

impl std::error::Error for TechnologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_technologies_validate() {
        Technology::cmos06().validate().unwrap();
        Technology::cmos035().validate().unwrap();
    }

    #[test]
    fn snap_behaviour() {
        let t = Technology::cmos06();
        assert_eq!(t.grid, 50);
        assert_eq!(t.snap_down(149), 100);
        assert_eq!(t.snap_up(101), 150);
        assert_eq!(t.snap(101), 100);
        assert_eq!(t.snap(130), 150);
        assert_eq!(t.snap_down(-30), -50);
        assert_eq!(t.snap_up(-30), 0);
    }

    #[test]
    fn mos_lookup_matches_polarity() {
        let t = Technology::cmos06();
        assert_eq!(t.mos(Polarity::Nmos).polarity, Polarity::Nmos);
        assert_eq!(t.mos(Polarity::Pmos).polarity, Polarity::Pmos);
    }

    #[test]
    fn invalid_grid_rejected() {
        let mut t = Technology::cmos06();
        t.grid = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn error_display_mentions_cause() {
        let mut t = Technology::cmos06();
        t.nmos.kp = -1.0;
        let err = t.validate().unwrap_err();
        assert!(err.to_string().contains("nmos"));
    }

    #[test]
    fn corners_shift_parameters() {
        let t = Technology::cmos06();
        let ss = t.at_corner(Corner::Slow);
        let ff = t.at_corner(Corner::Fast);
        assert!(ss.nmos.vt0 > t.nmos.vt0 && ss.nmos.kp < t.nmos.kp);
        assert!(ff.nmos.vt0 < t.nmos.vt0 && ff.nmos.kp > t.nmos.kp);
        assert_eq!(ss.name(), "cmos06_ss");
        assert_eq!(ff.name(), "cmos06_ff");
        assert_eq!(t.at_corner(Corner::Typical).name(), "cmos06");
        ss.validate().unwrap();
        ff.validate().unwrap();
    }

    #[test]
    fn corner_derivation_is_deterministic() {
        let t = Technology::cmos06();
        for corner in [Corner::Typical, Corner::Slow, Corner::Fast] {
            // Field-for-field equal on repeated derivation — the property
            // scenario-keyed caches rely on.
            assert_eq!(t.at_corner(corner), t.at_corner(corner));
            assert_eq!(
                t.at_corner(corner).name(),
                format!("{}{}", t.name(), corner.suffix())
            );
        }
        // Typical is the identity, not merely equivalent.
        assert_eq!(t.at_corner(Corner::Typical), t);
    }

    #[test]
    fn cmos035_is_denser() {
        let a = Technology::cmos06();
        let b = Technology::cmos035();
        assert!(b.rules.poly_width < a.rules.poly_width);
        assert!(b.caps.cox_area > a.caps.cox_area);
    }
}
