//! The job value type: every input of one synthesis run, made explicit.

use losac_core::cases::{CaseError, CaseOptions};
use losac_core::flow::FlowControl;
use losac_core::prelude::{Case, CaseResult, FlowOptions};
use losac_core::LayoutOptions;
use losac_layout::slicing::ShapeConstraint;
use losac_sizing::{OtaSpecs, TopologyPlan};
use losac_tech::{Scenario, Technology};
use std::sync::Arc;
use std::time::Duration;

/// All inputs of one synthesis run, as one self-contained value.
///
/// Where `run_case` buried its plan, layout options and shape constraint
/// in hardwired defaults, a `SynthesisJob` spells every input out, so a
/// batch can vary any of them per job. Jobs are cheap to clone; the
/// technology is shared behind an [`Arc`] because a sweep typically runs
/// hundreds of jobs against one process description.
#[derive(Debug, Clone)]
pub struct SynthesisJob {
    /// Display label carried through to outcomes and run records.
    pub label: String,
    /// Process technology (shared across the batch).
    pub tech: Arc<Technology>,
    /// Performance specification to size for.
    pub specs: OtaSpecs,
    /// Which Table-1 parasitic-awareness strategy to run.
    pub case: Case,
    /// Topology design plan (shared across jobs of the same topology).
    pub plan: Arc<dyn TopologyPlan>,
    /// Layout implementation options.
    pub layout: LayoutOptions,
    /// Layout shape constraint.
    pub shape: ShapeConstraint,
    /// Convergence tolerance of the sizing↔layout loop.
    pub tolerance: f64,
    /// Layout-call budget of the sizing↔layout loop.
    pub max_layout_calls: usize,
    /// Optional per-job wall-clock budget; the engine turns it into a
    /// deadline when the job starts and the run stops cooperatively at
    /// the next phase boundary past it.
    pub budget: Option<Duration>,
    /// The PVT/mismatch scenario both performance rows are measured
    /// under. The nominal default is bitwise identical to the
    /// scenario-free historical path.
    pub scenario: Scenario,
    /// Corner-aware acceptance set (see
    /// [`CaseOptions::scenarios`]). Empty by default.
    pub scenarios: Vec<Scenario>,
    /// The design point this job belongs to in a scenario sweep: jobs
    /// that share a `design_point` are the *same* design measured under
    /// different scenarios, and the engine aggregates their outcomes
    /// into per-point yield/Cpk statistics. `None` (the default) opts
    /// out of aggregation.
    pub design_point: Option<String>,
    /// Deterministic fault-injection plan, installed on the worker for
    /// the duration of this job. Testing hook; `None` (the default)
    /// injects nothing.
    pub fail_plan: Option<losac_obs::failpoint::FailPlan>,
}

impl SynthesisJob {
    /// A job with the historical `run_case` defaults: default plan,
    /// default layout options, min-area shape, default flow knobs, no
    /// budget.
    pub fn new(tech: Arc<Technology>, specs: OtaSpecs, case: Case) -> Self {
        let defaults = CaseOptions::default();
        Self {
            label: case.label().to_owned(),
            tech,
            specs,
            case,
            plan: defaults.plan,
            layout: defaults.layout,
            shape: defaults.shape,
            tolerance: defaults.tolerance,
            max_layout_calls: defaults.max_layout_calls,
            budget: None,
            scenario: Scenario::nominal(),
            scenarios: Vec::new(),
            design_point: None,
            fail_plan: None,
        }
    }

    /// Set the display label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Set the shape constraint.
    #[must_use]
    pub fn with_shape(mut self, shape: ShapeConstraint) -> Self {
        self.shape = shape;
        self
    }

    /// Set the topology design plan.
    #[must_use]
    pub fn with_topology_plan(mut self, plan: Arc<dyn TopologyPlan>) -> Self {
        self.plan = plan;
        self
    }

    /// Set the layout implementation options.
    #[must_use]
    pub fn with_layout(mut self, layout: LayoutOptions) -> Self {
        self.layout = layout;
        self
    }

    /// Set the flow convergence tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Set the flow layout-call budget.
    #[must_use]
    pub fn with_max_layout_calls(mut self, calls: usize) -> Self {
        self.max_layout_calls = calls;
        self
    }

    /// Set the per-job wall-clock budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Set the measurement scenario (see [`SynthesisJob::scenario`]).
    #[must_use]
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Set the corner-aware acceptance set (see
    /// [`SynthesisJob::scenarios`]).
    #[must_use]
    pub fn with_scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.scenarios = scenarios.into_iter().collect();
        self
    }

    /// Set the design-point key for yield aggregation (see
    /// [`SynthesisJob::design_point`]).
    #[must_use]
    pub fn with_design_point(mut self, point: impl Into<String>) -> Self {
        self.design_point = Some(point.into());
        self
    }

    /// Install a fault-injection plan for this job (testing only).
    #[must_use]
    pub fn with_fail_plan(mut self, plan: losac_obs::failpoint::FailPlan) -> Self {
        self.fail_plan = Some(plan);
        self
    }

    /// The [`CaseOptions`] this job implies, with the given run control
    /// attached. The evaluation options carry the job's scenario and no
    /// cache; the engine attaches its per-batch evaluation cache.
    pub fn case_options(&self, control: FlowControl) -> CaseOptions {
        CaseOptions::builder()
            .with_plan(self.plan.clone())
            .with_layout(self.layout.clone())
            .with_shape(self.shape)
            .with_tolerance(self.tolerance)
            .with_max_layout_calls(self.max_layout_calls)
            .with_control(control)
            .with_eval(losac_sizing::EvalOptions::default().with_scenario(self.scenario))
            .with_scenarios(self.scenarios.iter().copied())
            .build()
    }

    /// The [`FlowOptions`] this job implies (no run control), for
    /// reference or for running the job manually.
    pub fn flow_options(&self) -> FlowOptions {
        self.case_options(FlowControl::default())
            .flow_options(matches!(self.case, Case::ExactDiffusion))
    }
}

/// What became of one job in a batch. One entry per submitted job, in
/// submission order.
#[derive(Debug)]
#[non_exhaustive]
pub enum JobOutcome {
    /// The run completed; the boxed [`CaseResult`] carries both
    /// performance rows.
    Finished(Box<CaseResult>),
    /// The run failed in sizing, layout or measurement.
    Failed(CaseError),
    /// The run panicked; the engine caught it and carried on.
    Panicked(String),
    /// The run exceeded its per-job wall-clock budget.
    TimedOut,
    /// The batch was cancelled before or during this job.
    Cancelled,
}

impl JobOutcome {
    /// The case result, when the job [`Finished`](JobOutcome::Finished).
    pub fn result(&self) -> Option<&CaseResult> {
        match self {
            JobOutcome::Finished(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the job produced a result.
    pub fn is_finished(&self) -> bool {
        matches!(self, JobOutcome::Finished(_))
    }

    /// Short machine-readable status tag (used in run records).
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Finished(_) => "finished",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Panicked(_) => "panicked",
            JobOutcome::TimedOut => "timed_out",
            JobOutcome::Cancelled => "cancelled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_core::flow::FlowError;

    #[test]
    fn job_defaults_match_case_options_defaults() {
        let tech = Arc::new(Technology::cmos06());
        let job = SynthesisJob::new(tech, OtaSpecs::paper_example(), Case::AllParasitics);
        let d = CaseOptions::default();
        assert_eq!(job.shape, d.shape);
        assert_eq!(job.layout, d.layout);
        assert_eq!(job.tolerance, d.tolerance);
        assert_eq!(job.max_layout_calls, d.max_layout_calls);
        assert_eq!(job.label, "Case 4");
        assert!(job.budget.is_none());
        // Flow options derived from a case-3 job are diffusion-only.
        let j3 = SynthesisJob::new(
            Arc::new(Technology::cmos06()),
            OtaSpecs::paper_example(),
            Case::ExactDiffusion,
        );
        assert!(j3.flow_options().diffusion_only);
        assert!(!job.flow_options().diffusion_only);
    }

    #[test]
    fn outcome_accessors() {
        let failed = JobOutcome::Failed(CaseError::Flow(FlowError::InvalidOptions("nope".into())));
        assert_eq!(failed.status(), "failed");
        assert!(failed.result().is_none());
        assert!(!failed.is_finished());
        assert_eq!(JobOutcome::Panicked("boom".into()).status(), "panicked");
        assert_eq!(JobOutcome::TimedOut.status(), "timed_out");
        assert_eq!(JobOutcome::Cancelled.status(), "cancelled");
    }
}
