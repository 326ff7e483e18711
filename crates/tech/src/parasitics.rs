//! Capacitance and resistance coefficients for geometric parasitic
//! extraction.
//!
//! The extractor in `losac-layout` multiplies drawn areas and perimeters by
//! these coefficients — the "simple geometrical methods which combine
//! reasonable accuracy with low computational cost" of §3 of the paper.
//!
//! Units:
//! * `area` coefficients: F/m² (so 1 fF/µm² = 1e-3 F/m²),
//! * `fringe` / sidewall / coupling coefficients: F/m (1 fF/µm = 1e-9 F/m),
//! * sheet resistances: Ω/□, contact/via resistance: Ω per cut.

use std::collections::BTreeMap;

/// The capacitance lumped on `net` (F): its routing and well capacitance
/// to ground plus every coupling that touches it, added in key order.
/// The layout tool's parasitic report and the sizing tool's layout
/// feedback both carry these three maps and sum them here.
pub fn lumped_on(
    net_caps: &BTreeMap<String, f64>,
    well_caps: &BTreeMap<String, f64>,
    coupling: &BTreeMap<(String, String), f64>,
    net: &str,
) -> f64 {
    let own =
        net_caps.get(net).copied().unwrap_or(0.0) + well_caps.get(net).copied().unwrap_or(0.0);
    coupling
        .iter()
        .filter(|((a, b), _)| a == net || b == net)
        .fold(own, |c, (_, v)| c + v)
}

/// Bias-dependent junction (diffusion) capacitance coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JunctionCaps {
    /// Zero-bias bottom-plate capacitance (F/m²).
    pub cj: f64,
    /// Zero-bias sidewall capacitance (F/m).
    pub cjsw: f64,
    /// Built-in junction potential (V).
    pub pb: f64,
    /// Bottom-plate grading coefficient.
    pub mj: f64,
    /// Sidewall grading coefficient.
    pub mjsw: f64,
}

impl JunctionCaps {
    /// Junction capacitance of an `area` (m²), `perimeter` (m) diffusion at
    /// reverse bias `vr` (V, positive = reverse biased).
    ///
    /// Reverse bias reduces the capacitance as `1/(1+vr/pb)^m`; a small
    /// forward bias is clamped to half the built-in potential, matching
    /// SPICE practice, so the expression never blows up.
    pub fn capacitance(&self, area: f64, perimeter: f64, vr: f64) -> f64 {
        debug_assert!(area >= 0.0 && perimeter >= 0.0);
        let v = vr.max(-self.pb / 2.0);
        let base = 1.0 + v / self.pb;
        let bottom = self.cj * area / base.powf(self.mj);
        let side = self.cjsw * perimeter / base.powf(self.mjsw);
        bottom + side
    }

    /// Zero-bias capacitance of an `area` (m²), `perimeter` (m) diffusion.
    pub fn capacitance_zero_bias(&self, area: f64, perimeter: f64) -> f64 {
        self.capacitance(area, perimeter, 0.0)
    }

    fn validate(&self, name: &str) -> Result<(), String> {
        if !(self.cj > 0.0 && self.cj.is_finite()) {
            return Err(format!("{name}.cj must be positive"));
        }
        if !(self.cjsw > 0.0 && self.cjsw.is_finite()) {
            return Err(format!("{name}.cjsw must be positive"));
        }
        if !(self.pb > 0.0 && self.pb < 2.0) {
            return Err(format!("{name}.pb out of physical range"));
        }
        if !(self.mj > 0.0 && self.mj < 1.0 && self.mjsw > 0.0 && self.mjsw < 1.0) {
            return Err(format!("{name}: grading coefficients must lie in (0, 1)"));
        }
        Ok(())
    }
}

/// Routing-layer capacitance coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCaps {
    /// Plate capacitance to substrate (F/m²).
    pub area: f64,
    /// Fringe capacitance per edge length (F/m).
    pub fringe: f64,
    /// Line-to-line coupling per parallel-run length at minimum spacing
    /// (F/m). The extractor scales this by `min_spacing / actual_spacing`.
    pub coupling: f64,
}

impl WireCaps {
    /// Capacitance to substrate of a wire of `width` × `length` (m):
    /// plate term plus fringe on both long edges.
    pub fn wire_to_substrate(&self, width: f64, length: f64) -> f64 {
        debug_assert!(width >= 0.0 && length >= 0.0);
        self.area * width * length + 2.0 * self.fringe * length
    }

    fn validate(&self, name: &str) -> Result<(), String> {
        for (field, v) in [
            ("area", self.area),
            ("fringe", self.fringe),
            ("coupling", self.coupling),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name}.{field} must be positive"));
            }
        }
        Ok(())
    }
}

/// All capacitance coefficients of the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitanceRules {
    /// Gate-oxide capacitance (F/m²).
    pub cox_area: f64,
    /// N+ diffusion junction (NMOS source/drain to substrate).
    pub ndiff: JunctionCaps,
    /// P+ diffusion junction (PMOS source/drain to N-well).
    pub pdiff: JunctionCaps,
    /// N-well to substrate junction (the "floating well capacitance" the
    /// layout tool reports back to the sizing tool).
    pub nwell: JunctionCaps,
    /// Gate-drain overlap capacitance per gate width (F/m).
    pub cgdo: f64,
    /// Gate-source overlap capacitance per gate width (F/m).
    pub cgso: f64,
    /// Poly over field oxide.
    pub poly_field: WireCaps,
    /// Metal-1 over field.
    pub metal1: WireCaps,
    /// Metal-2 over field.
    pub metal2: WireCaps,
}

impl CapacitanceRules {
    /// Wire coefficients for a routing layer (`poly`, `met1`, `met2` via
    /// levels 0, 1, 2).
    ///
    /// # Panics
    ///
    /// Panics if `level > 2`.
    pub fn wire(&self, level: u8) -> &WireCaps {
        match level {
            0 => &self.poly_field,
            1 => &self.metal1,
            2 => &self.metal2,
            _ => panic!("no routing level {level} in this process"),
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.cox_area > 0.0 && self.cox_area.is_finite()) {
            return Err("cox_area must be positive".into());
        }
        if !(self.cgdo > 0.0 && self.cgso > 0.0) {
            return Err("overlap capacitances must be positive".into());
        }
        self.ndiff.validate("ndiff")?;
        self.pdiff.validate("pdiff")?;
        self.nwell.validate("nwell")?;
        self.poly_field.validate("poly_field")?;
        self.metal1.validate("metal1")?;
        self.metal2.validate("metal2")?;
        Ok(())
    }
}

/// Sheet and cut resistances of the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistanceRules {
    /// Poly sheet resistance (Ω/□).
    pub poly_sheet: f64,
    /// Source/drain diffusion sheet resistance (Ω/□).
    pub diff_sheet: f64,
    /// Metal-1 sheet resistance (Ω/□).
    pub metal1_sheet: f64,
    /// Metal-2 sheet resistance (Ω/□).
    pub metal2_sheet: f64,
    /// Resistance of one contact cut (Ω).
    pub contact: f64,
    /// Resistance of one via cut (Ω).
    pub via: f64,
}

impl ResistanceRules {
    /// Resistance of a wire of `width` × `length` (m) on a routing level
    /// (0 = poly, 1 = metal-1, 2 = metal-2).
    ///
    /// # Panics
    ///
    /// Panics if `level > 2` or `width` is zero.
    pub fn wire_resistance(&self, level: u8, width: f64, length: f64) -> f64 {
        assert!(width > 0.0, "wire width must be positive");
        let sheet = match level {
            0 => self.poly_sheet,
            1 => self.metal1_sheet,
            2 => self.metal2_sheet,
            _ => panic!("no routing level {level} in this process"),
        };
        sheet * length / width
    }

    /// Resistance of `n` parallel contact cuts.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn contacts(&self, n: usize) -> f64 {
        assert!(n > 0, "at least one contact required");
        self.contact / n as f64
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("poly_sheet", self.poly_sheet),
            ("diff_sheet", self.diff_sheet),
            ("metal1_sheet", self.metal1_sheet),
            ("metal2_sheet", self.metal2_sheet),
            ("contact", self.contact),
            ("via", self.via),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} must be positive"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Technology;

    #[test]
    fn lumped_on_sums_couplings_in_key_order() {
        // Magnitudes far apart, so the rounding of the sum depends on the
        // order the couplings are added in.
        let couplings = [
            (("a", "out"), 1.0e-12),
            (("b", "out"), 3.3e-16),
            (("out", "c"), 7.7e-17),
            (("d", "out"), 2.9e-13),
            (("out", "e"), 5.1e-18),
        ];
        let coupling = couplings
            .iter()
            .map(|&((a, b), v)| ((a.to_owned(), b.to_owned()), v))
            .collect();
        let net_caps = BTreeMap::from([("out".to_owned(), 1.7e-14)]);
        let mut want = 1.7e-14;
        let mut sorted_couplings = couplings;
        sorted_couplings.sort_by(|x, y| x.0.cmp(&y.0));
        for (_, v) in sorted_couplings {
            want += v;
        }
        let got = lumped_on(&net_caps, &BTreeMap::new(), &coupling, "out");
        assert_eq!(got.to_bits(), want.to_bits());
    }

    fn caps() -> CapacitanceRules {
        Technology::cmos06().caps
    }

    #[test]
    fn junction_cap_decreases_with_reverse_bias() {
        let j = caps().ndiff;
        let a = 10e-6 * 2e-6; // 10 µm × 2 µm
        let p = 2.0 * (10e-6 + 2e-6);
        let c0 = j.capacitance(a, p, 0.0);
        let c2 = j.capacitance(a, p, 2.0);
        assert!(c2 < c0);
        assert!(c0 > 0.0);
    }

    #[test]
    fn junction_cap_forward_bias_clamped() {
        let j = caps().ndiff;
        let c = j.capacitance(1e-12, 4e-6, -5.0);
        assert!(c.is_finite() && c > 0.0);
    }

    #[test]
    fn junction_zero_bias_magnitude() {
        // 10 µm × 2 µm n+ diffusion: bottom 0.45 fF/µm² × 20 µm² = 9 fF,
        // sidewall 0.35 fF/µm × 24 µm = 8.4 fF → 17.4 fF total.
        let j = caps().ndiff;
        let c = j.capacitance_zero_bias(20e-12, 24e-6);
        assert!((c - 17.4e-15).abs() < 0.1e-15, "got {c:e}");
    }

    #[test]
    fn wire_cap_scales_with_length() {
        let w = caps().metal1;
        let c1 = w.wire_to_substrate(1e-6, 100e-6);
        let c2 = w.wire_to_substrate(1e-6, 200e-6);
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wire_levels() {
        let c = caps();
        assert_eq!(c.wire(0), &c.poly_field);
        assert_eq!(c.wire(1), &c.metal1);
        assert_eq!(c.wire(2), &c.metal2);
    }

    #[test]
    fn resistance_of_square_is_sheet() {
        let r = Technology::cmos06().res;
        let v = r.wire_resistance(1, 1e-6, 1e-6);
        assert!((v - r.metal1_sheet).abs() < 1e-12);
    }

    #[test]
    fn parallel_contacts_divide() {
        let r = Technology::cmos06().res;
        assert!((r.contacts(4) - r.contact / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one contact")]
    fn zero_contacts_panics() {
        let r = Technology::cmos06().res;
        let _ = r.contacts(0);
    }

    #[test]
    fn invalid_grading_rejected() {
        let mut j = caps().ndiff;
        j.mj = 1.5;
        assert!(j.validate("x").is_err());
    }
}
