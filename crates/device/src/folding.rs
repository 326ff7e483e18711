//! Transistor folding and its effect on diffusion capacitance.
//!
//! Folding a transistor into `nf` parallel fingers lets adjacent fingers
//! *share* source/drain diffusions, shrinking the junction capacitance.
//! The paper quantifies this with the capacitance-reduction factor
//! `F = W_eff / W` (Fig. 2):
//!
//! ```text
//! F = 1/2              nf even, net on internal diffusions   (case a)
//! F = (nf + 2)/(2·nf)  nf even, net on external diffusions   (case b)
//! F = (nf + 1)/(2·nf)  nf odd                                 (case c)
//! ```
//!
//! The layout-oriented flow exploits case (a): choosing an **even** fold
//! count and keeping the **drain internal** halves the drain junction
//! capacitance, which directly improves the amplifier's frequency response.
//!
//! This module provides both the closed-form factor and the exact diffusion
//! geometry (area and perimeter per terminal) for a fold specification —
//! the quantities the parasitic-calculation mode reports back to the
//! sizing tool.

use losac_tech::rules::DesignRules;
use losac_tech::units::{nm_to_m, Nm};

/// Which diffusions the *drain* occupies in the alternating
/// source/drain sequence of a folded transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DrainPosition {
    /// Drain on internal diffusions only (possible for even `nf`):
    /// the sequence is S d S d … S, every drain shared by two gates.
    Internal,
    /// Drain on the external (end) diffusions: D s D s … D.
    External,
}

/// A fold specification: how one logical transistor is split into fingers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldSpec {
    /// Number of fingers (≥ 1).
    pub nf: u32,
    /// Drain assignment. For odd `nf` the two choices are geometrically
    /// equivalent (one end is drain, the other source) and yield the same
    /// factor; the flag still selects which end carries the drain.
    pub drain_position: DrainPosition,
}

impl FoldSpec {
    /// Unfolded transistor (one finger; drain on one end by construction).
    pub const UNFOLDED: FoldSpec = FoldSpec {
        nf: 1,
        drain_position: DrainPosition::External,
    };

    /// Create a fold spec.
    ///
    /// # Panics
    ///
    /// Panics if `nf` is zero.
    pub fn new(nf: u32, drain_position: DrainPosition) -> Self {
        assert!(nf >= 1, "a transistor needs at least one finger");
        Self { nf, drain_position }
    }

    /// The even-fold, internal-drain spec the paper's flow prefers for
    /// frequency-critical nets: the smallest even `nf ≥ requested`.
    pub fn even_internal(requested: u32) -> Self {
        let nf = if requested <= 1 {
            2
        } else if requested.is_multiple_of(2) {
            requested
        } else {
            requested + 1
        };
        Self {
            nf,
            drain_position: DrainPosition::Internal,
        }
    }

    /// Number of diffusion strips the **drain** occupies.
    pub fn drain_strips(&self) -> u32 {
        strip_counts(self.nf, self.drain_position).0
    }

    /// Number of diffusion strips the **source** occupies.
    pub fn source_strips(&self) -> u32 {
        strip_counts(self.nf, self.drain_position).1
    }

    /// Capacitance-reduction factor `F = W_eff/W` for the **drain**
    /// (the paper's Fig. 2).
    pub fn drain_factor(&self) -> f64 {
        factor(self.nf, self.drain_position)
    }

    /// Capacitance-reduction factor for the **source** (the complementary
    /// assignment).
    pub fn source_factor(&self) -> f64 {
        let complementary = match self.drain_position {
            DrainPosition::Internal => DrainPosition::External,
            DrainPosition::External => DrainPosition::Internal,
        };
        factor(self.nf, complementary)
    }
}

/// (drain strips, source strips) for `nf` alternating fingers.
///
/// A row of `nf` gates has `nf + 1` diffusion strips. With the drain
/// internal (even `nf`): drains take the `nf/2` internal odd positions.
/// With the drain external (even `nf`): drains take `nf/2 + 1` positions
/// including both ends. Odd `nf`: the split is (nf+1)/2 for the terminal
/// owning one end and `(nf+1)/2` … see the factor formulas.
fn strip_counts(nf: u32, drain: DrainPosition) -> (u32, u32) {
    let total = nf + 1;
    if nf.is_multiple_of(2) {
        match drain {
            DrainPosition::Internal => (nf / 2, total - nf / 2),
            DrainPosition::External => (nf / 2 + 1, total - (nf / 2 + 1)),
        }
    } else {
        // Odd: alternating assignment gives both terminals (nf+1)/2 strips.
        (nf.div_ceil(2), nf.div_ceil(2))
    }
}

/// The paper's capacitance-reduction factor F(nf, position).
///
/// Derivation: every strip has width `W/nf` (the finger width); a strip
/// shared by two fingers still counts once. `F = strips·(W/nf)/W`.
pub fn factor(nf: u32, drain: DrainPosition) -> f64 {
    assert!(nf >= 1, "a transistor needs at least one finger");
    if nf == 1 {
        return 1.0;
    }
    let nf_f = nf as f64;
    if nf.is_multiple_of(2) {
        match drain {
            DrainPosition::Internal => 0.5,
            DrainPosition::External => (nf_f + 2.0) / (2.0 * nf_f),
        }
    } else {
        (nf_f + 1.0) / (2.0 * nf_f)
    }
}

/// Diffusion geometry of one transistor terminal (SI units): what the
/// layout reports per device, what the sizing feedback carries and what a
/// netlist MOS instance evaluates its junction capacitance from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiffGeom {
    /// Bottom-plate area (m²).
    pub area: f64,
    /// Sidewall perimeter (m).
    pub perimeter: f64,
}

/// Exact diffusion geometry of one terminal of a folded transistor:
/// the inputs to the junction-capacitance model (SI units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionGeometry {
    /// Total bottom-plate area (m²).
    pub area: f64,
    /// Total sidewall perimeter (m), excluding the gate edge (standard
    /// extraction convention: the gate-side junction is part of the
    /// channel-side capacitance already counted in the intrinsic model).
    pub perimeter: f64,
    /// Number of diffusion strips this terminal occupies.
    pub strips: u32,
}

impl DiffusionGeometry {
    /// Geometry of the **drain** of a transistor of total width `w_nm`
    /// folded per `spec`, in technology `rules`.
    pub fn drain(w_nm: Nm, spec: FoldSpec, rules: &DesignRules) -> Self {
        Self::of_terminal(w_nm, spec, rules, true)
    }

    /// Geometry of the **source**.
    pub fn source(w_nm: Nm, spec: FoldSpec, rules: &DesignRules) -> Self {
        Self::of_terminal(w_nm, spec, rules, false)
    }

    fn of_terminal(w_nm: Nm, spec: FoldSpec, rules: &DesignRules, is_drain: bool) -> Self {
        assert!(w_nm > 0, "transistor width must be positive");
        let (d_strips, s_strips) = strip_counts(spec.nf, spec.drain_position);
        let strips = if is_drain { d_strips } else { s_strips };

        // Finger width: the drawn channel width of each finger.
        let wf = nm_to_m(w_nm) / spec.nf as f64;

        // Strip lengths (the dimension perpendicular to the gate):
        // internal strips sit between two gates, end strips stick out to
        // host the contact enclosure.
        let l_int = nm_to_m(rules.contacted_diffusion());
        let l_end = nm_to_m(rules.end_diffusion());

        // How many of this terminal's strips are at the row ends?
        let ends = match (spec.nf.is_multiple_of(2), spec.drain_position, is_drain) {
            (true, DrainPosition::Internal, true) => 0, // all drains internal
            (true, DrainPosition::Internal, false) => 2, // sources own both ends
            (true, DrainPosition::External, true) => 2,
            (true, DrainPosition::External, false) => 0,
            // Odd nf: one end each.
            (false, _, _) => 1,
        };
        let internals = strips - ends;

        let area = wf * (internals as f64 * l_int + ends as f64 * l_end);
        // Sidewall: each strip contributes its two "width" edges
        // (top/bottom, parallel to current flow) of length = strip length,
        // plus — for end strips only — one outer edge of length wf.
        // Gate-side edges are excluded per extraction convention; internal
        // strips have gates on both sides, end strips on one side.
        let perimeter = internals as f64 * (2.0 * l_int) + ends as f64 * (2.0 * l_end + wf);

        Self {
            area,
            perimeter,
            strips,
        }
    }

    /// The effective diffusion *width* W_eff = strips · W/nf implied by
    /// this geometry (m) — used to cross-check the closed-form F factor.
    pub fn effective_width(&self, w_nm: Nm, spec: FoldSpec) -> f64 {
        let wf = nm_to_m(w_nm) / spec.nf as f64;
        self.strips as f64 * wf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_tech::Technology;

    #[test]
    fn paper_formulas() {
        // Fig. 2 cases, spot values.
        assert_eq!(factor(1, DrainPosition::External), 1.0);
        assert_eq!(factor(2, DrainPosition::Internal), 0.5);
        assert_eq!(factor(4, DrainPosition::Internal), 0.5);
        assert_eq!(factor(2, DrainPosition::External), 1.0); // (2+2)/4
        assert_eq!(factor(4, DrainPosition::External), 0.75); // 6/8
        assert_eq!(factor(3, DrainPosition::External), 4.0 / 6.0);
        assert_eq!(factor(5, DrainPosition::Internal), 0.6); // 6/10
    }

    #[test]
    fn factor_monotone_decreasing_for_external() {
        let mut prev = f64::INFINITY;
        for nf in (2..=12).step_by(2) {
            let f = factor(nf, DrainPosition::External);
            assert!(f < prev);
            prev = f;
        }
    }

    #[test]
    fn factor_bounds() {
        for nf in 1..=20 {
            for pos in [DrainPosition::Internal, DrainPosition::External] {
                let f = factor(nf, pos);
                assert!((0.5..=1.0).contains(&f), "F({nf}, {pos:?}) = {f}");
            }
        }
    }

    #[test]
    fn strip_counts_conserve_total() {
        for nf in 1..=15 {
            for pos in [DrainPosition::Internal, DrainPosition::External] {
                let (d, s) = strip_counts(nf, pos);
                assert_eq!(d + s, nf + 1, "nf = {nf}, pos = {pos:?}");
            }
        }
    }

    #[test]
    fn geometry_matches_closed_form_factor() {
        let rules = Technology::cmos06().rules;
        let w = 20_000; // 20 µm
        for nf in 1..=10 {
            for pos in [DrainPosition::Internal, DrainPosition::External] {
                if nf % 2 == 1 && pos == DrainPosition::Internal {
                    continue; // internal-only drains need even nf
                }
                let spec = FoldSpec::new(nf, pos);
                let g = DiffusionGeometry::drain(w, spec, &rules);
                let f_geom = g.effective_width(w, spec) / nm_to_m(w);
                let f_formula = spec.drain_factor();
                assert!(
                    (f_geom - f_formula).abs() < 1e-12,
                    "nf = {nf}, pos = {pos:?}: geometric {f_geom} vs formula {f_formula}"
                );
            }
        }
    }

    #[test]
    fn internal_drain_halves_area_vs_unfolded() {
        let rules = Technology::cmos06().rules;
        let w = 40_000;
        let unfolded = DiffusionGeometry::drain(w, FoldSpec::UNFOLDED, &rules);
        let folded = DiffusionGeometry::drain(w, FoldSpec::even_internal(4), &rules);
        // F = 1/2, adjusted by the internal/end strip-length ratio
        // (contacted_diffusion / end_diffusion = 1800/1600 in cmos06).
        let expected = 0.5 * 1800.0 / 1600.0;
        let ratio = folded.area / unfolded.area;
        assert!(
            (ratio - expected).abs() < 1e-9,
            "ratio {ratio} vs expected {expected}"
        );
    }

    #[test]
    fn even_internal_rounds_up() {
        assert_eq!(FoldSpec::even_internal(1).nf, 2);
        assert_eq!(FoldSpec::even_internal(4).nf, 4);
        assert_eq!(FoldSpec::even_internal(5).nf, 6);
        assert_eq!(FoldSpec::even_internal(0).nf, 2);
        assert_eq!(
            FoldSpec::even_internal(7).drain_position,
            DrainPosition::Internal
        );
    }

    #[test]
    fn source_factor_complements_drain() {
        let spec = FoldSpec::new(4, DrainPosition::Internal);
        assert_eq!(spec.drain_factor(), 0.5);
        assert_eq!(spec.source_factor(), 0.75); // sources got the ends
    }

    #[test]
    fn drain_and_source_strips_partition() {
        let spec = FoldSpec::new(6, DrainPosition::Internal);
        assert_eq!(spec.drain_strips(), 3);
        assert_eq!(spec.source_strips(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one finger")]
    fn zero_folds_panics() {
        let _ = FoldSpec::new(0, DrainPosition::Internal);
    }

    #[test]
    fn area_scales_with_width() {
        let rules = Technology::cmos06().rules;
        let spec = FoldSpec::new(4, DrainPosition::Internal);
        let a1 = DiffusionGeometry::drain(10_000, spec, &rules).area;
        let a2 = DiffusionGeometry::drain(20_000, spec, &rules).area;
        assert!((a2 / a1 - 2.0).abs() < 1e-9);
    }
}
