//! Statistical (mismatch) analysis — the paper's "verification interface
//! … also permits to undergo statistical analysis to check the
//! reliability of the synthesized circuit".
//!
//! Random device mismatch is modelled with the Pelgrom sigmas of the
//! technology; each Monte-Carlo sample perturbs the threshold voltage and
//! current factor of every matched pair and accumulates the input-referred
//! offset analytically through the signal path. The layout's matching
//! style enters through the *systematic* term: a common-centroid pair
//! cancels the on-die gradient, a plain side-by-side pair does not — this
//! is the quantitative argument behind the paper's Fig. 3 and the dummy
//! devices in Fig. 5.

use crate::ota::folded_cascode::FoldedCascodeOta;
use crate::topology::{LayoutModule, Topology};
use losac_device::ekv::evaluate;
use losac_device::mismatch::{systematic_vt_offset, PairMismatch};
use losac_device::Mosfet;
use losac_tech::{MismatchDraw, Technology};

/// One matched pair's contribution setup.
#[derive(Debug, Clone, Copy)]
struct PairSlot {
    /// σ(ΔVT) of the pair (V).
    sigma_vt: f64,
    /// σ(Δβ/β) of the pair.
    sigma_beta: f64,
    /// Id/gm of the devices (V) — converts β mismatch to a gate voltage.
    id_over_gm: f64,
    /// gm of this pair over gm of the input pair — refers the pair's gate
    /// error to the amplifier input.
    gm_ratio: f64,
    /// Centroid separation along the die gradient (m); zero for a
    /// common-centroid layout.
    centroid_distance: f64,
}

/// Result of a Monte-Carlo offset analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetStatistics {
    /// Mean input-referred offset (V) — the systematic part.
    pub mean: f64,
    /// Standard deviation of the input-referred offset (V).
    pub sigma: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Matching-style assumption for the statistical model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchingStyle {
    /// Common-centroid stacks with dummies: gradients cancel.
    CommonCentroid,
    /// Plain side-by-side placement: the pair centroids sit one module
    /// width apart along the gradient.
    SideBySide,
}

/// Monte-Carlo input-referred offset of the folded-cascode OTA.
///
/// Thin wrapper over [`offset_monte_carlo_topology`], kept for the
/// historical call sites that hold the concrete type.
pub fn offset_monte_carlo(
    ota: &FoldedCascodeOta,
    tech: &Technology,
    style: MatchingStyle,
    gradient: f64,
    samples: usize,
    seed: u64,
) -> OffsetStatistics {
    offset_monte_carlo_topology(ota, tech, style, gradient, samples, seed)
}

/// Monte-Carlo input-referred offset of any [`Topology`].
///
/// The mismatch-critical pairs are read off the topology's own layout
/// description: every [`MatchedGroup`](crate::topology::MatchedGroup) in
/// [`Topology::layout_spec`] contributes one slot, referred to the input
/// pair's transconductance. The per-device branch current is recovered
/// from the spec's net currents as `min(source-net current / members,
/// drain-net current)` — each bound alone over-counts on a net shared
/// with other branches (the folded node, the supply rail), but the
/// branch current satisfies both, and for all built-in topologies the
/// minimum is exact.
///
/// `gradient` is the threshold drift across the die (V/m, ~10 V/m
/// typical); `style` selects whether the layout cancels it. Draws are
/// addressed through [`MismatchDraw`] — sample `n` of group `g` is a
/// pure function of `(seed, n, g)` — so the statistics are independent
/// of slot order and reproducible per die, the same scenario machinery
/// the evaluator's Monte-Carlo sweeps use. To analyse a process corner,
/// pass the corner-derived technology (`pvt.derive(&tech)`).
pub fn offset_monte_carlo_topology(
    topo: &dyn Topology,
    tech: &Technology,
    style: MatchingStyle,
    gradient: f64,
    samples: usize,
    seed: u64,
) -> OffsetStatistics {
    let spec = topo.layout_spec();
    let devices = topo.devices();
    let vdd = topo.specs().vdd;

    // Per-device branch current of a group (A).
    let group_current = |g: &crate::topology::MatchedGroup| -> f64 {
        let share = spec
            .net_currents
            .get(&g.source_net)
            .map(|i| i / g.devices.len() as f64);
        let drain = g
            .devices
            .first()
            .and_then(|d| spec.net_currents.get(&d.drain_net))
            .copied();
        match (share, drain) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            // No current information at all: split the supply current
            // across the group as a coarse floor.
            (None, None) => spec.net_currents["vdd"] / (2.0 * g.devices.len() as f64),
        }
    };

    // gm and Id/gm of a group's lead device at its branch current.
    let bias_of = |g: &crate::topology::MatchedGroup| -> losac_device::MosOp {
        let d = &devices[&g.devices[0].name];
        let m = Mosfet::new(*tech.mos(d.polarity), d.w, d.l);
        let sgn = d.polarity.sign();
        let vgs = losac_device::solve::vgs_for_current(&m, sgn * 1.0, 0.0, group_current(g), vdd)
            .unwrap_or(sgn * 1.0);
        evaluate(&m, vgs, sgn * 1.0, 0.0)
    };

    let groups: Vec<&crate::topology::MatchedGroup> = spec
        .modules
        .iter()
        .filter_map(|m| match m {
            LayoutModule::Group(g) => Some(g),
            LayoutModule::Single(_) => None,
        })
        .collect();

    // Input-pair gm as the reference; without an input pair every gate
    // error is taken at unit ratio (a conservative degenerate case).
    let gm_in = groups
        .iter()
        .find(|g| g.is_input_pair)
        .map(|g| bias_of(g).gm)
        .unwrap_or(0.0);

    let slots: Vec<(String, PairSlot)> = groups
        .iter()
        .map(|g| {
            let d = &devices[&g.devices[0].name];
            let mm = PairMismatch::of(&Mosfet::new(*tech.mos(d.polarity), d.w, d.l));
            let op = bias_of(g);
            let slot = PairSlot {
                sigma_vt: mm.sigma_vt,
                sigma_beta: mm.sigma_beta,
                id_over_gm: if op.gm > 0.0 { op.id / op.gm } else { 0.0 },
                gm_ratio: if gm_in > 0.0 { op.gm / gm_in } else { 1.0 },
                // A side-by-side pair sits roughly one device width
                // apart; common centroid cancels.
                centroid_distance: match style {
                    MatchingStyle::CommonCentroid => 0.0,
                    MatchingStyle::SideBySide => d.w,
                },
            };
            (g.name.clone(), slot)
        })
        .collect();

    let mut sum = 0.0;
    let mut sum2 = 0.0;
    for sample in 0..samples {
        let draw = MismatchDraw {
            seed,
            sample: sample as u32,
        };
        let mut offset = 0.0;
        for (name, s) in &slots {
            let (g_vt, g_beta) = draw.unit_gauss(name);
            let dvt = g_vt * s.sigma_vt + systematic_vt_offset(gradient, s.centroid_distance);
            let dbeta = g_beta * s.sigma_beta;
            offset += s.gm_ratio * (dvt + s.id_over_gm * dbeta);
        }
        sum += offset;
        sum2 += offset * offset;
    }
    let n = samples.max(1) as f64;
    let mean = sum / n;
    let var = (sum2 / n - mean * mean).max(0.0);
    OffsetStatistics {
        mean,
        sigma: var.sqrt(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::ParasiticMode;
    use crate::ota::folded_cascode::FoldedCascodePlan;
    use crate::specs::OtaSpecs;

    fn setup() -> (Technology, FoldedCascodeOta) {
        let tech = Technology::cmos06();
        let ota = FoldedCascodePlan::default()
            .size(&tech, &OtaSpecs::paper_example(), &ParasiticMode::None)
            .unwrap();
        (tech, ota)
    }

    #[test]
    fn sigma_in_the_millivolt_range() {
        let (tech, ota) = setup();
        let st = offset_monte_carlo(&ota, &tech, MatchingStyle::CommonCentroid, 10.0, 2000, 7);
        assert!(
            st.sigma > 0.1e-3 && st.sigma < 20e-3,
            "σ = {:.2} mV",
            st.sigma * 1e3
        );
        // Common centroid: no systematic part.
        assert!(
            st.mean.abs() < 0.3 * st.sigma,
            "mean {:.3} mV",
            st.mean * 1e3
        );
    }

    #[test]
    fn side_by_side_shows_systematic_offset() {
        let (tech, ota) = setup();
        let gradient = 50.0; // a deliberately harsh 50 V/m drift
        let cc = offset_monte_carlo(
            &ota,
            &tech,
            MatchingStyle::CommonCentroid,
            gradient,
            2000,
            7,
        );
        let sbs = offset_monte_carlo(&ota, &tech, MatchingStyle::SideBySide, gradient, 2000, 7);
        assert!(
            sbs.mean.abs() > 3.0 * cc.mean.abs().max(1e-6),
            "side-by-side {:.3} mV vs common-centroid {:.3} mV",
            sbs.mean * 1e3,
            cc.mean * 1e3
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (tech, ota) = setup();
        let a = offset_monte_carlo(&ota, &tech, MatchingStyle::CommonCentroid, 10.0, 500, 42);
        let b = offset_monte_carlo(&ota, &tech, MatchingStyle::CommonCentroid, 10.0, 500, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn generic_analysis_covers_every_builtin_topology() {
        use crate::topology::TopologyRegistry;
        let tech = Technology::cmos06();
        let r = TopologyRegistry::builtin();
        for name in r.names() {
            let plan = r.get(name).unwrap();
            let topo = plan
                .size_topology(&tech, &plan.example_specs(), &ParasiticMode::None)
                .unwrap();
            let st = offset_monte_carlo_topology(
                topo.as_ref(),
                &tech,
                MatchingStyle::CommonCentroid,
                10.0,
                1000,
                7,
            );
            assert!(
                st.sigma > 0.05e-3 && st.sigma < 30e-3,
                "{name}: σ = {:.3} mV",
                st.sigma * 1e3
            );
            // Addressed draws: deterministic per (seed, sample, group).
            let again = offset_monte_carlo_topology(
                topo.as_ref(),
                &tech,
                MatchingStyle::CommonCentroid,
                10.0,
                1000,
                7,
            );
            assert_eq!(st, again);
        }
    }

    #[test]
    fn sigma_shrinks_with_bigger_devices() {
        let (tech, mut ota) = setup();
        let base = offset_monte_carlo(&ota, &tech, MatchingStyle::CommonCentroid, 0.0, 4000, 1);
        // Quadruple the input-pair area (double W and L).
        let d = ota.devices.get_mut("mp1").unwrap();
        d.w *= 2.0;
        d.l *= 2.0;
        let d2 = *d;
        ota.devices.insert("mp2".into(), d2);
        let big = offset_monte_carlo(&ota, &tech, MatchingStyle::CommonCentroid, 0.0, 4000, 1);
        assert!(big.sigma < base.sigma, "{} !< {}", big.sigma, base.sigma);
    }
}
