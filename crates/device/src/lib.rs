//! # losac-device — analytic MOS device model
//!
//! A single-piece, continuous EKV-style MOS model used by **both** the
//! sizing tool (`losac-sizing`) and the circuit simulator (`losac-sim`).
//! The paper attributes much of its synthesis accuracy to using the same
//! transistor model during sizing and verification; this crate is that
//! shared model.
//!
//! Contents:
//!
//! * [`ekv`] — the current model: drain current, small-signal parameters
//!   (gm, gds, gmb), inversion coefficient, saturation voltage; smooth from
//!   weak through strong inversion, with mobility degradation, velocity
//!   saturation and channel-length modulation;
//! * [`caps`] — Meyer-style intrinsic capacitances plus overlaps;
//! * [`folding`] — transistor folding: the capacitance-reduction factor *F*
//!   of the paper's Fig. 2, and exact diffusion area/perimeter for a given
//!   fold count and drain position;
//! * [`noise`] — thermal and flicker noise densities;
//! * [`mismatch`] — Pelgrom-model mismatch sigmas;
//! * [`solve`] — inverse problems used by the sizing plans (width for a
//!   target current, width for a target gm, …).
//!
//! ```
//! use losac_device::{ekv, Mosfet};
//! use losac_tech::Technology;
//!
//! let tech = Technology::cmos06();
//! let m = Mosfet::new(tech.nmos, 10e-6, 1e-6); // W = 10 µm, L = 1 µm
//! let op = ekv::evaluate(&m, 1.2, 1.5, 0.0);   // VGS, VDS, VBS
//! assert!(op.id > 0.0);
//! assert!(op.gm > 0.0);
//! ```

pub mod caps;
pub mod ekv;
pub mod folding;
pub mod mismatch;
pub mod noise;
pub mod solve;

pub use caps::IntrinsicCaps;
pub use ekv::{evaluate, evaluate_at, MosBatch, MosOp, OpEval, Region};
pub use folding::{DiffGeom, DiffusionGeometry, DrainPosition, FoldSpec};
pub use losac_tech::{MosParams, Polarity};

/// A sized MOS transistor: a model card plus drawn dimensions.
///
/// Dimensions are in metres (`w` is the *total* channel width across all
/// folds; `l` is the drawn channel length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Model card (copied: cards are small plain data).
    pub params: MosParams,
    /// Total drawn channel width (m).
    pub w: f64,
    /// Drawn channel length (m).
    pub l: f64,
}

impl Mosfet {
    /// Create a transistor.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive and finite.
    pub fn new(params: MosParams, w: f64, l: f64) -> Self {
        assert!(w.is_finite() && w > 0.0, "width must be positive, got {w}");
        assert!(l.is_finite() && l > 0.0, "length must be positive, got {l}");
        Self { params, w, l }
    }

    /// Effective channel length after lateral diffusion (m), floored at
    /// 10 nm so a pathological card can never produce a non-positive value.
    pub fn l_eff(&self) -> f64 {
        (self.l - 2.0 * self.params.ld).max(10e-9)
    }

    /// Total gate-oxide capacitance Cox·W·L_eff (F).
    pub fn c_gate_total(&self) -> f64 {
        self.params.cox * self.w * self.l_eff()
    }

    /// Aspect ratio W/L_eff.
    pub fn aspect(&self) -> f64 {
        self.w / self.l_eff()
    }

    /// This transistor with a random-mismatch perturbation applied to its
    /// model card: a threshold offset `dvt` (V, added to the stored
    /// magnitude) and a relative transconductance-factor deviation
    /// `dbeta` (so `kp` scales by `1 + dbeta`, floored just above zero to
    /// keep the card physical under extreme draws).
    ///
    /// The scenario machinery computes `dvt`/`dbeta` from a seeded unit
    /// normal scaled by the Pelgrom sigmas of this geometry (see
    /// [`crate::mismatch`]); applying them here, on the card the
    /// evaluators key their caches by, means a perturbed device can never
    /// reuse a clean device's [`ekv::OpEval`] precomputation — the
    /// parameters themselves are the cache key.
    ///
    /// `(0.0, 0.0)` returns a bit-identical copy.
    #[must_use]
    pub fn with_mismatch(mut self, dvt: f64, dbeta: f64) -> Self {
        self.params.vt0 += dvt;
        self.params.kp = (self.params.kp * (1.0 + dbeta)).max(1e-9 * self.params.kp);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_tech::Technology;

    #[test]
    fn mosfet_derived_values() {
        let t = Technology::cmos06();
        let m = Mosfet::new(t.nmos, 10e-6, 1e-6);
        assert!((m.l_eff() - 0.9e-6).abs() < 1e-12); // 2 × 50 nm lateral diffusion
        assert!((m.aspect() - 10e-6 / 0.9e-6).abs() < 1e-9);
        let c = m.c_gate_total();
        // 2.3 fF/µm² × 10 µm × 0.9 µm = 20.7 fF
        assert!((c - 20.7e-15).abs() < 0.1e-15, "got {c:e}");
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let t = Technology::cmos06();
        let _ = Mosfet::new(t.nmos, 0.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn nan_length_panics() {
        let t = Technology::cmos06();
        let _ = Mosfet::new(t.nmos, 1e-6, f64::NAN);
    }
}
