//! Layout-parasitic feedback: the information the layout tool's
//! parasitic-calculation mode sends back to the sizing tool (§2 of the
//! paper), plus the simpler assumptions used by the comparison cases of
//! Table 1.
//!
//! The types here are deliberately independent of `losac-layout` so that
//! the sizing crate stays usable stand-alone; the flow crate converts the
//! layout tool's report into a [`LayoutFeedback`].

pub use losac_device::DiffGeom;
use losac_tech::units::Nm;
use std::collections::BTreeMap;

/// Per-transistor layout feedback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFeedback {
    /// Fold count the layout chose.
    pub folds: u32,
    /// Drawn total width (nm) after grid snapping — the width the
    /// verification netlist must use.
    pub drawn_w: Nm,
    /// Drain diffusion geometry.
    pub drain: DiffGeom,
    /// Source diffusion geometry.
    pub source: DiffGeom,
}

/// Full layout feedback for one circuit.
#[derive(Debug, Clone, Default)]
pub struct LayoutFeedback {
    /// Per-device folding and diffusion geometry, by device name.
    pub devices: BTreeMap<String, DeviceFeedback>,
    /// Routing capacitance to ground per net (F).
    pub net_caps: BTreeMap<String, f64>,
    /// Coupling capacitance between net pairs (F).
    pub coupling: BTreeMap<(String, String), f64>,
    /// Floating-well capacitance per net (F).
    pub well_caps: BTreeMap<String, f64>,
    /// Lump coupling capacitances to ground instead of instantiating them
    /// between their nets. `true` models how the *sizing* tool treats the
    /// fed-back parasitics (one lumped capacitance per net); `false` is
    /// the faithful extracted network used for final verification.
    pub lump_coupling_to_ground: bool,
}

impl LayoutFeedback {
    /// Look up a device, if the layout reported it.
    pub fn device(&self, name: &str) -> Option<&DeviceFeedback> {
        self.devices.get(name)
    }
}

/// Which parasitics the sizing/verification netlist accounts for —
/// exactly the four cases of the paper's Table 1.
#[derive(Debug, Clone, Default)]
pub enum ParasiticMode {
    /// Case 1: no layout capacitances at all (only gate capacitance and
    /// transistor folding are considered).
    #[default]
    None,
    /// Case 2: diffusion capacitance assuming a single fold per
    /// transistor, no routing capacitance (no layout information used).
    UnfoldedDiffusion,
    /// Case 3: exact diffusion capacitance from layout feedback, routing
    /// capacitance ignored.
    DiffusionOnly(LayoutFeedback),
    /// Case 4: all layout parasitics (diffusion, routing, coupling,
    /// well).
    Full(LayoutFeedback),
}

impl ParasiticMode {
    /// The layout feedback, when this mode carries one.
    pub fn feedback(&self) -> Option<&LayoutFeedback> {
        match self {
            ParasiticMode::None | ParasiticMode::UnfoldedDiffusion => None,
            ParasiticMode::DiffusionOnly(f) | ParasiticMode::Full(f) => Some(f),
        }
    }

    /// Does the mode include routing/coupling/well capacitance?
    pub fn includes_routing(&self) -> bool {
        matches!(self, ParasiticMode::Full(_))
    }

    /// Table-1 label of the mode ("case 1" … "case 4").
    pub fn case_label(&self) -> &'static str {
        match self {
            ParasiticMode::None => "case 1",
            ParasiticMode::UnfoldedDiffusion => "case 2",
            ParasiticMode::DiffusionOnly(_) => "case 3",
            ParasiticMode::Full(_) => "case 4",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_properties() {
        assert!(ParasiticMode::None.feedback().is_none());
        assert!(!ParasiticMode::None.includes_routing());
        assert_eq!(ParasiticMode::None.case_label(), "case 1");
        assert_eq!(ParasiticMode::UnfoldedDiffusion.case_label(), "case 2");
        let fb = LayoutFeedback::default();
        assert_eq!(
            ParasiticMode::DiffusionOnly(fb.clone()).case_label(),
            "case 3"
        );
        let full = ParasiticMode::Full(fb);
        assert_eq!(full.case_label(), "case 4");
        assert!(full.includes_routing());
        assert!(full.feedback().is_some());
    }

    #[test]
    fn device_lookup() {
        let mut fb = LayoutFeedback::default();
        fb.devices.insert(
            "mp1".into(),
            DeviceFeedback {
                folds: 4,
                drawn_w: 40_000,
                drain: DiffGeom {
                    area: 1e-12,
                    perimeter: 4e-6,
                },
                source: DiffGeom {
                    area: 2e-12,
                    perimeter: 6e-6,
                },
            },
        );
        assert_eq!(fb.device("mp1").unwrap().folds, 4);
        assert!(fb.device("zz").is_none());
    }
}
