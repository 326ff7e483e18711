//! Sweep constructors: expand a cartesian grid of [`SynthesisJob`]s.
//!
//! The batch-parallel exploration pattern from the related work (many
//! sized candidates through layout+extraction per optimizer step; layout
//! variants as a dataset) is "run the flow N times with varied inputs".
//! A [`SweepBuilder`] owns the shared inputs and expands the cartesian
//! product of the varied axes into a job list for
//! [`crate::Engine::run_batch`].

use crate::job::SynthesisJob;
use losac_core::prelude::{Case, OtaSpecs};
use losac_layout::slicing::ShapeConstraint;
use losac_sizing::{TopologyPlan, TopologyRegistry};
use losac_tech::pvt::NOMINAL_TEMP_C;
use losac_tech::{Corner, MismatchDraw, Pvt, Scenario, Technology};
use std::sync::Arc;
use std::time::Duration;

/// A specification field a sweep can vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecAxis {
    /// Gain–bandwidth product (Hz).
    Gbw,
    /// Phase margin (degrees).
    PhaseMargin,
    /// Load capacitance (F).
    LoadCap,
    /// Supply voltage (V).
    Vdd,
}

impl SpecAxis {
    /// Short label used in job names (`gbw=6.5e7`).
    pub fn label(&self) -> &'static str {
        match self {
            SpecAxis::Gbw => "gbw",
            SpecAxis::PhaseMargin => "pm",
            SpecAxis::LoadCap => "cl",
            SpecAxis::Vdd => "vdd",
        }
    }

    fn apply(&self, specs: &mut OtaSpecs, value: f64) {
        match self {
            SpecAxis::Gbw => specs.gbw = value,
            SpecAxis::PhaseMargin => specs.phase_margin = value,
            SpecAxis::LoadCap => specs.c_load = value,
            SpecAxis::Vdd => specs.vdd = value,
        }
    }
}

/// Builder expanding a cartesian grid of jobs over cases, shape
/// constraints and specification axes.
///
/// Axes left unset contribute a single default point (case 4 /
/// min-area / the base specification), so
/// `SweepBuilder::new(tech, specs).build()` yields exactly one job.
///
/// ```
/// use losac_engine::{SweepBuilder, SpecAxis};
/// use losac_core::prelude::*;
/// use std::sync::Arc;
///
/// let jobs = SweepBuilder::new(Arc::new(Technology::cmos06()), OtaSpecs::paper_example())
///     .over_cases(Case::ALL)
///     .over_shapes([ShapeConstraint::MinArea, ShapeConstraint::Aspect(1.0)])
///     .over_spec_axis(SpecAxis::Gbw, [50.0e6, 65.0e6])
///     .build();
/// assert_eq!(jobs.len(), 4 * 2 * 2);
/// ```
#[derive(Debug, Clone)]
#[must_use = "call .build() to expand the sweep into jobs"]
pub struct SweepBuilder {
    tech: Arc<Technology>,
    base: OtaSpecs,
    cases: Vec<Case>,
    shapes: Vec<ShapeConstraint>,
    axes: Vec<(SpecAxis, Vec<f64>)>,
    plan: Arc<dyn TopologyPlan>,
    topologies: Vec<Arc<dyn TopologyPlan>>,
    budget: Option<Duration>,
    corners: Vec<Corner>,
    temperatures: Vec<f64>,
    supplies: Vec<f64>,
    monte_carlo: Option<(u32, u64)>,
}

impl SweepBuilder {
    /// A sweep over the given technology and base specification.
    pub fn new(tech: Arc<Technology>, base: OtaSpecs) -> Self {
        Self {
            tech,
            base,
            cases: Vec::new(),
            shapes: Vec::new(),
            axes: Vec::new(),
            plan: TopologyRegistry::builtin()
                .get("folded_cascode")
                .expect("the folded cascode is built in"),
            topologies: Vec::new(),
            budget: None,
            corners: Vec::new(),
            temperatures: Vec::new(),
            supplies: Vec::new(),
            monte_carlo: None,
        }
    }

    /// Vary the Table-1 case.
    pub fn over_cases(mut self, cases: impl IntoIterator<Item = Case>) -> Self {
        self.cases = cases.into_iter().collect();
        self
    }

    /// Vary the layout shape constraint.
    pub fn over_shapes(mut self, shapes: impl IntoIterator<Item = ShapeConstraint>) -> Self {
        self.shapes = shapes.into_iter().collect();
        self
    }

    /// Vary one specification field over the given values. Each call
    /// adds another cartesian axis.
    pub fn over_spec_axis(mut self, axis: SpecAxis, values: impl IntoIterator<Item = f64>) -> Self {
        self.axes.push((axis, values.into_iter().collect()));
        self
    }

    /// Use this topology plan for every job.
    pub fn with_topology_plan(mut self, plan: Arc<dyn TopologyPlan>) -> Self {
        self.plan = plan;
        self
    }

    /// Vary the amplifier topology. This is the slowest axis; each
    /// topology runs against *its own* example specification
    /// ([`TopologyPlan::example_specs`]) rather than the builder's base
    /// (a telescopic cascode cannot meet the folded cascode's wide
    /// swing), with any [`over_spec_axis`](Self::over_spec_axis) values
    /// applied on top. Job labels gain a `topo=<name>/` prefix; without
    /// this axis labels are unchanged.
    pub fn over_topologies(
        mut self,
        plans: impl IntoIterator<Item = Arc<dyn TopologyPlan>>,
    ) -> Self {
        self.topologies = plans.into_iter().collect();
        self
    }

    /// Vary the process corner. A scenario axis: the same design point
    /// is *measured* under each corner (sizing itself stays nominal —
    /// that is what makes the sweep a yield analysis rather than a
    /// per-corner re-design).
    pub fn corners(mut self, corners: impl IntoIterator<Item = Corner>) -> Self {
        self.corners = corners.into_iter().collect();
        self
    }

    /// Vary the analysis temperature (°C). A scenario axis.
    pub fn temperatures(mut self, temps_c: impl IntoIterator<Item = f64>) -> Self {
        self.temperatures = temps_c.into_iter().collect();
        self
    }

    /// Vary the supply scale (1.0 = the specification's nominal supply).
    /// A scenario axis.
    pub fn supplies(mut self, scales: impl IntoIterator<Item = f64>) -> Self {
        self.supplies = scales.into_iter().collect();
        self
    }

    /// Add `n` Monte-Carlo mismatch samples under `seed` — the fastest
    /// scenario axis. Each sample is one virtual die: mismatch deviates
    /// are a pure function of `(seed, sample, device)`
    /// ([`MismatchDraw::unit_gauss`]), so the expanded batch replays
    /// bitwise identically at any worker count.
    pub fn monte_carlo(mut self, n: u32, seed: u64) -> Self {
        self.monte_carlo = Some((n, seed));
        self
    }

    /// Give every job this wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Expand the cartesian product into jobs. Order is deterministic:
    /// the first axis varies slowest (topologies, then cases, then
    /// shapes, then each spec axis in the order added, then the scenario
    /// axes: corners, temperatures, supplies, Monte-Carlo samples).
    pub fn build(self) -> Vec<SynthesisJob> {
        let cases = if self.cases.is_empty() {
            vec![Case::AllParasitics]
        } else {
            self.cases
        };
        let shapes = if self.shapes.is_empty() {
            vec![ShapeConstraint::MinArea]
        } else {
            self.shapes
        };
        // Without a topology axis every job shares the builder's plan and
        // base specification, and labels keep their historical form.
        let topologies: Vec<(String, Arc<dyn TopologyPlan>, OtaSpecs)> =
            if self.topologies.is_empty() {
                vec![(String::new(), self.plan.clone(), self.base)]
            } else {
                self.topologies
                    .iter()
                    .map(|p| {
                        (
                            format!("topo={}/", p.topology_name()),
                            p.clone(),
                            p.example_specs(),
                        )
                    })
                    .collect()
            };

        // Scenario grid: corners × temperatures × supply scales ×
        // Monte-Carlo samples, expanded as the fastest axes. Unset axes
        // contribute their nominal point; with *no* scenario axis set the
        // grid is the single nominal scenario, labels keep their
        // historical form and no design-point key is attached.
        let scenario_axes_set = !self.corners.is_empty()
            || !self.temperatures.is_empty()
            || !self.supplies.is_empty()
            || self.monte_carlo.is_some();
        let corners = if self.corners.is_empty() {
            vec![Corner::Typical]
        } else {
            self.corners.clone()
        };
        let temperatures = if self.temperatures.is_empty() {
            vec![NOMINAL_TEMP_C]
        } else {
            self.temperatures.clone()
        };
        let supplies = if self.supplies.is_empty() {
            vec![1.0]
        } else {
            self.supplies.clone()
        };
        let draws: Vec<Option<MismatchDraw>> = match self.monte_carlo {
            None => vec![None],
            Some((n, seed)) => (0..n.max(1))
                .map(|sample| Some(MismatchDraw { seed, sample }))
                .collect(),
        };
        let mut scenarios =
            Vec::with_capacity(corners.len() * temperatures.len() * supplies.len() * draws.len());
        for corner in &corners {
            for temp_c in &temperatures {
                for scale in &supplies {
                    for draw in &draws {
                        scenarios.push(Scenario {
                            pvt: Pvt::new(*corner, *temp_c, *scale),
                            mismatch: *draw,
                        });
                    }
                }
            }
        }

        let mut jobs = Vec::new();
        for (prefix, plan, base) in &topologies {
            // Expand the spec axes into (label-suffix, specs) points on
            // top of this topology's base specification.
            let mut spec_points: Vec<(String, OtaSpecs)> = vec![(String::new(), *base)];
            for (axis, values) in &self.axes {
                let mut next = Vec::with_capacity(spec_points.len() * values.len().max(1));
                for (suffix, specs) in &spec_points {
                    for v in values {
                        let mut s = *specs;
                        axis.apply(&mut s, *v);
                        next.push((format!("{suffix}/{}={v}", axis.label()), s));
                    }
                }
                if !next.is_empty() {
                    spec_points = next;
                }
            }

            jobs.reserve(cases.len() * shapes.len() * spec_points.len() * scenarios.len());
            for case in &cases {
                for shape in &shapes {
                    for (suffix, specs) in &spec_points {
                        let point = format!("{prefix}{}/{shape}{suffix}", case.label());
                        for scenario in &scenarios {
                            let mut job = SynthesisJob::new(self.tech.clone(), *specs, *case);
                            job.options.plan = plan.clone();
                            job.options.shape = *shape;
                            job.options.eval.scenario = *scenario;
                            job = if scenario_axes_set {
                                // Jobs sharing a design point are one
                                // design measured under many scenarios —
                                // the engine aggregates them into yield.
                                job.with_label(format!("{point}/{}", scenario.label()))
                                    .with_design_point(point.clone())
                            } else {
                                job.with_label(point.clone())
                            };
                            jobs.push(job);
                        }
                    }
                }
            }
        }
        if let Some(budget) = self.budget {
            for job in &mut jobs {
                job.budget = Some(budget);
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> SweepBuilder {
        SweepBuilder::new(Arc::new(Technology::cmos06()), OtaSpecs::paper_example())
    }

    #[test]
    fn empty_axes_yield_one_default_job() {
        let jobs = builder().build();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].case, Case::AllParasitics);
        assert_eq!(jobs[0].options.shape, ShapeConstraint::MinArea);
    }

    #[test]
    fn cartesian_expansion_order_is_deterministic() {
        let jobs = builder()
            .over_cases([Case::NoParasitics, Case::AllParasitics])
            .over_shapes([ShapeConstraint::MinArea, ShapeConstraint::Aspect(1.0)])
            .over_spec_axis(SpecAxis::Gbw, [50.0e6, 65.0e6])
            .build();
        assert_eq!(jobs.len(), 8);
        // First axis (case) varies slowest.
        assert!(jobs[..4].iter().all(|j| j.case == Case::NoParasitics));
        assert!(jobs[4..].iter().all(|j| j.case == Case::AllParasitics));
        // Shapes next.
        assert_eq!(jobs[0].options.shape, ShapeConstraint::MinArea);
        assert_eq!(jobs[2].options.shape, ShapeConstraint::Aspect(1.0));
        // Spec axis fastest.
        assert_eq!(jobs[0].specs.gbw, 50.0e6);
        assert_eq!(jobs[1].specs.gbw, 65.0e6);
        // Labels are unique and descriptive.
        let labels: std::collections::BTreeSet<_> = jobs.iter().map(|j| j.label.clone()).collect();
        assert_eq!(labels.len(), 8, "{labels:?}");
        assert!(jobs[0].label.contains("Case 1"), "{}", jobs[0].label);
        assert!(jobs[0].label.contains("min_area"));
        assert!(jobs[0].label.contains("gbw=50000000"));
    }

    #[test]
    fn a_budget_applies_to_every_job() {
        let jobs = builder()
            .over_cases(Case::ALL)
            .with_budget(Duration::from_secs(30))
            .build();
        assert_eq!(jobs.len(), 4);
        assert!(jobs
            .iter()
            .all(|j| j.budget == Some(Duration::from_secs(30))));
    }

    #[test]
    fn topology_axis_is_slowest_and_uses_example_specs() {
        use losac_sizing::TopologyRegistry;
        let registry = TopologyRegistry::builtin();
        let plans: Vec<_> = ["folded_cascode", "telescopic", "two_stage"]
            .iter()
            .map(|n| registry.get(n).unwrap())
            .collect();
        let jobs = builder()
            .over_topologies(plans.clone())
            .over_cases([Case::NoParasitics, Case::AllParasitics])
            .build();
        assert_eq!(jobs.len(), 3 * 2);
        // Topology varies slowest; labels carry the topo prefix.
        assert!(jobs[0].label.starts_with("topo=folded_cascode/Case 1"));
        assert!(jobs[2].label.starts_with("topo=telescopic/"));
        assert!(jobs[4].label.starts_with("topo=two_stage/"));
        // Each topology runs against its own example specification.
        for (i, plan) in plans.iter().enumerate() {
            let want = plan.example_specs();
            assert_eq!(jobs[2 * i].specs.output_range, want.output_range);
            assert_eq!(
                jobs[2 * i].options.plan.topology_name(),
                plan.topology_name()
            );
        }
        // Without the axis, labels keep their historical form.
        let plain = builder().build();
        assert_eq!(plain[0].label, "Case 4/min_area");
    }

    #[test]
    fn scenario_axes_expand_fastest_with_design_point_keys() {
        let jobs = builder()
            .over_cases([Case::NoParasitics])
            .corners([Corner::Typical, Corner::Slow, Corner::Fast])
            .temperatures([-40.0, 27.0, 125.0])
            .monte_carlo(2, 7)
            .build();
        assert_eq!(jobs.len(), 3 * 3 * 2);
        // Every job shares one design point (one case, one shape, one
        // spec point) and carries a scenario-suffixed label.
        assert!(jobs
            .iter()
            .all(|j| j.design_point.as_deref() == Some("Case 1/min_area")));
        assert_eq!(jobs[0].label, "Case 1/min_area/tt/-40C/mc0");
        assert_eq!(jobs[1].label, "Case 1/min_area/tt/-40C/mc1");
        // Corners vary slowest among the scenario axes, MC fastest.
        assert_eq!(jobs[0].options.eval.scenario.pvt.corner, Corner::Typical);
        assert_eq!(jobs[6].options.eval.scenario.pvt.corner, Corner::Slow);
        assert_eq!(jobs[12].options.eval.scenario.pvt.corner, Corner::Fast);
        assert_eq!(jobs[2].options.eval.scenario.pvt.temp_c, 27.0);
        assert_eq!(
            jobs[1].options.eval.scenario.mismatch,
            Some(MismatchDraw { seed: 7, sample: 1 })
        );
        // Labels are unique.
        let labels: std::collections::BTreeSet<_> = jobs.iter().map(|j| j.label.clone()).collect();
        assert_eq!(labels.len(), jobs.len());
        // Without scenario axes, jobs are nominal, unlabelled and
        // unaggregated — the historical form.
        let plain = builder().build();
        assert!(plain[0].options.eval.scenario.is_nominal());
        assert!(plain[0].design_point.is_none());
        assert_eq!(plain[0].label, "Case 4/min_area");
    }

    #[test]
    fn supply_axis_scales_the_scenario_not_the_spec() {
        let jobs = builder().supplies([0.9, 1.0, 1.1]).build();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].options.eval.scenario.pvt.vdd_scale, 0.9);
        // The specification itself is untouched: the scenario moves the
        // rails at evaluation time.
        assert_eq!(jobs[0].specs.vdd, OtaSpecs::paper_example().vdd);
        assert!(
            jobs[0].label.ends_with("/tt/27C/v0.90"),
            "{}",
            jobs[0].label
        );
    }

    #[test]
    fn multiple_spec_axes_multiply() {
        let jobs = builder()
            .over_spec_axis(SpecAxis::Gbw, [50.0e6, 60.0e6, 70.0e6])
            .over_spec_axis(SpecAxis::LoadCap, [2.0e-12, 3.0e-12])
            .build();
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].specs.c_load, 2.0e-12);
        assert_eq!(jobs[1].specs.c_load, 3.0e-12);
        assert_eq!(jobs[2].specs.gbw, 60.0e6);
    }
}
