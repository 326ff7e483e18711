//! Seeded inputs shared by the workloads, and the fresh set-up each one
//! times. The program only ever sees the generated specifications,
//! scenarios and order; the seed itself stays in the benchmark.

use losac_core::CaseOptions;
use losac_sizing::{OtaSpecs, TopologyPlan, TopologyRegistry};
use losac_tech::rng::Xorshift128Plus;
use losac_tech::Technology;
use std::sync::Arc;

/// The built-in topologies, in registry order.
pub const TOPOLOGIES: [&str; 3] = ["folded_cascode", "telescopic", "two_stage"];

/// Relative half-width of the GBW and load-capacitance jitter. A probe
/// of every topology and case never failed inside ±10 %.
const JITTER: f64 = 0.10;

/// Independent random streams drawn from one run seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Spec = 1,
    Order = 2,
    Mismatch = 3,
    Hot = 4,
}

/// The generator for `(seed, stream, index)`: the same triple always
/// yields the same draws, whatever else the run did before.
pub fn rng(seed: u64, stream: Stream, index: u64) -> Xorshift128Plus {
    let key = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (stream as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
        ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    Xorshift128Plus::seed_from_u64(key)
}

/// The jitter of one op kind: draw `i` scales GBW and load capacitance
/// by factors in `1 ± JITTER`, taken from a two-dimensional additive
/// recurrence (the R2 sequence) whose start the seed draws. Any prefix of
/// the sequence covers the band evenly, so the mix of op costs over a run
/// barely depends on the seed, while every draw is a distinct point.
pub struct Jitter {
    start: (f64, f64),
}

impl Jitter {
    /// Steps of the R2 sequence: 1/g and 1/g² for the plastic number g.
    const STEP: (f64, f64) = (0.754_877_666_246_692_7, 0.569_840_290_998_053_2);

    pub fn new(seed: u64, stream: Stream, kind: u64) -> Self {
        let mut r = rng(seed, stream, kind);
        Self {
            start: (r.next_f64(), r.next_f64()),
        }
    }

    pub fn specs(&self, base: OtaSpecs, i: u64) -> OtaSpecs {
        let u = (self.start.0 + i as f64 * Self::STEP.0).fract();
        let v = (self.start.1 + i as f64 * Self::STEP.1).fract();
        OtaSpecs {
            gbw: base.gbw * (1.0 + JITTER * (2.0 * u - 1.0)),
            c_load: base.c_load * (1.0 + JITTER * (2.0 * v - 1.0)),
            ..base
        }
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut Xorshift128Plus) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// What a workload builds before its first op: the technology, the
/// topology registry's plans and one case-options set per plan. Timed as
/// (part of) `setup_s`, so work moved out of the ops into set-up shows.
pub struct Setup {
    pub tech: Arc<Technology>,
    pub plans: Vec<Arc<dyn TopologyPlan>>,
    pub case_options: Vec<CaseOptions>,
}

impl Setup {
    pub fn new() -> Self {
        let tech = Arc::new(Technology::cmos06());
        let registry = TopologyRegistry::builtin();
        let plans: Vec<Arc<dyn TopologyPlan>> = TOPOLOGIES
            .iter()
            .map(|name| registry.get(name).expect("built-in topology"))
            .collect();
        let case_options = plans
            .iter()
            .map(|p| CaseOptions::builder().with_plan(p.clone()).build())
            .collect();
        Self {
            tech,
            plans,
            case_options,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a = rng(7, Stream::Spec, 3).next_u64();
        assert_eq!(a, rng(7, Stream::Spec, 3).next_u64());
        assert_ne!(a, rng(7, Stream::Order, 3).next_u64());
        assert_ne!(a, rng(8, Stream::Spec, 3).next_u64());
        assert_ne!(a, rng(7, Stream::Spec, 4).next_u64());
    }

    #[test]
    fn jitter_covers_the_band_and_shuffle_is_a_permutation() {
        let base = OtaSpecs::paper_example();
        let jitter = Jitter::new(1, Stream::Spec, 0);
        let mut below = 0;
        for i in 0..1000 {
            let s = jitter.specs(base, i);
            assert!((s.gbw / base.gbw - 1.0).abs() <= JITTER);
            assert!((s.c_load / base.c_load - 1.0).abs() <= JITTER);
            assert_eq!(s.vdd, base.vdd);
            below += usize::from(s.gbw < base.gbw);
        }
        // Evenly spread: half the draws on each side of the base point.
        assert!((480..=520).contains(&below), "{below}");
        let mut p = shuffled(12, &mut rng(1, Stream::Order, 0));
        p.sort_unstable();
        assert_eq!(p, (0..12).collect::<Vec<_>>());
    }
}
