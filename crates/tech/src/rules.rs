//! Geometric design rules.
//!
//! All values are in integer nanometres and must be multiples of the
//! process grid. Field names follow the usual *object_relation* style:
//! `gate_to_contact` is the minimum spacing between a gate edge and a
//! contact cut, `active_over_contact` is the minimum enclosure of a contact
//! by active, and so on.

use crate::units::Nm;

/// Minimum widths, spacings, enclosures and extensions of the process.
///
/// This is a plain data struct in the C spirit (all fields public): it is a
/// passive rule deck consumed by the generators and the DRC checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignRules {
    /// Minimum poly width == minimum drawn gate length.
    pub poly_width: Nm,
    /// Minimum poly-to-poly spacing (sets the finger pitch together with
    /// contacted diffusion width).
    pub poly_space: Nm,
    /// Minimum active width.
    pub active_width: Nm,
    /// Minimum active-to-active spacing.
    pub active_space: Nm,
    /// Poly extension past active (gate end cap).
    pub gate_extension: Nm,
    /// Spacing from gate poly to a contact cut on the same active.
    pub gate_to_contact: Nm,
    /// Contact cut size (square).
    pub contact_size: Nm,
    /// Contact-to-contact spacing.
    pub contact_space: Nm,
    /// Enclosure of a contact by active.
    pub active_over_contact: Nm,
    /// Enclosure of a contact by poly.
    pub poly_over_contact: Nm,
    /// Minimum metal-1 width.
    pub metal1_width: Nm,
    /// Minimum metal-1 spacing.
    pub metal1_space: Nm,
    /// Enclosure of a contact by metal-1.
    pub metal1_over_contact: Nm,
    /// Minimum metal-2 width.
    pub metal2_width: Nm,
    /// Minimum metal-2 spacing.
    pub metal2_space: Nm,
    /// Via cut size (square).
    pub via_size: Nm,
    /// Via-to-via spacing.
    pub via_space: Nm,
    /// Enclosure of a via by either metal.
    pub metal_over_via: Nm,
    /// Enclosure of P+ active by N-well.
    pub nwell_over_pactive: Nm,
    /// N-well to N-well spacing.
    pub nwell_space: Nm,
    /// Maximum distance from any device to a well/substrate tap
    /// (latch-up rule; used by the guard-ring generator).
    pub well_contact_space: Nm,
    /// Guard-ring diffusion width.
    pub guard_width: Nm,
}

impl DesignRules {
    /// The pitch of one transistor finger: gate plus one contacted
    /// diffusion gap (centre-to-centre of adjacent gates).
    pub fn finger_pitch(&self) -> Nm {
        self.poly_width + self.contacted_diffusion()
    }

    /// Width of a contacted source/drain diffusion strip between two gates:
    /// gate-to-contact spacing on both sides plus the contact itself.
    pub fn contacted_diffusion(&self) -> Nm {
        2 * self.gate_to_contact + self.contact_size
    }

    /// Width of the outer (end) diffusion of a transistor: gate-to-contact,
    /// the contact, and the active enclosure of the contact.
    pub fn end_diffusion(&self) -> Nm {
        self.gate_to_contact + self.contact_size + self.active_over_contact
    }

    /// Minimum width of a metal wire on the given routing level (1 or 2).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not 1 or 2.
    pub fn metal_width(&self, level: u8) -> Nm {
        match level {
            1 => self.metal1_width,
            2 => self.metal2_width,
            _ => panic!("no metal level {level} in this process"),
        }
    }

    /// Minimum spacing of a metal wire on the given routing level (1 or 2).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not 1 or 2.
    pub fn metal_space(&self, level: u8) -> Nm {
        match level {
            1 => self.metal1_space,
            2 => self.metal2_space,
            _ => panic!("no metal level {level} in this process"),
        }
    }

    /// Validate positivity and grid alignment of every rule.
    pub(crate) fn validate(&self, grid: Nm) -> Result<(), String> {
        let named: [(&str, Nm); 22] = [
            ("poly_width", self.poly_width),
            ("poly_space", self.poly_space),
            ("active_width", self.active_width),
            ("active_space", self.active_space),
            ("gate_extension", self.gate_extension),
            ("gate_to_contact", self.gate_to_contact),
            ("contact_size", self.contact_size),
            ("contact_space", self.contact_space),
            ("active_over_contact", self.active_over_contact),
            ("poly_over_contact", self.poly_over_contact),
            ("metal1_width", self.metal1_width),
            ("metal1_space", self.metal1_space),
            ("metal1_over_contact", self.metal1_over_contact),
            ("metal2_width", self.metal2_width),
            ("metal2_space", self.metal2_space),
            ("via_size", self.via_size),
            ("via_space", self.via_space),
            ("metal_over_via", self.metal_over_via),
            ("nwell_over_pactive", self.nwell_over_pactive),
            ("nwell_space", self.nwell_space),
            ("well_contact_space", self.well_contact_space),
            ("guard_width", self.guard_width),
        ];
        for (name, v) in named {
            if v <= 0 {
                return Err(format!("{name} must be positive, got {v}"));
            }
            if v % grid != 0 {
                return Err(format!("{name} = {v} nm is not on the {grid} nm grid"));
            }
        }
        // A contacted diffusion must be wide enough to host its contact.
        if self.contacted_diffusion() < self.contact_size {
            return Err("contacted diffusion narrower than a contact".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::Technology;

    #[test]
    fn derived_dimensions() {
        let r = Technology::cmos06().rules;
        // 600 gate + 2*600 spacing + 600 contact
        assert_eq!(r.contacted_diffusion(), 1800);
        assert_eq!(r.finger_pitch(), 2400);
        assert_eq!(r.end_diffusion(), 600 + 600 + 400);
    }

    #[test]
    fn metal_accessors() {
        let r = Technology::cmos06().rules;
        assert_eq!(r.metal_width(1), r.metal1_width);
        assert_eq!(r.metal_width(2), r.metal2_width);
        assert_eq!(r.metal_space(1), r.metal1_space);
        assert_eq!(r.metal_space(2), r.metal2_space);
    }

    #[test]
    #[should_panic(expected = "no metal level")]
    fn metal_level_3_panics() {
        let r = Technology::cmos06().rules;
        let _ = r.metal_width(3);
    }

    #[test]
    fn off_grid_rule_rejected() {
        let mut r = Technology::cmos06().rules;
        r.poly_width = 601;
        assert!(r.validate(50).is_err());
    }

    #[test]
    fn negative_rule_rejected() {
        let mut r = Technology::cmos06().rules;
        r.metal1_space = -50;
        let err = r.validate(50).unwrap_err();
        assert!(err.contains("metal1_space"));
    }
}
