//! The job value type: every input of one synthesis run, made explicit.

use losac_core::cases::{CaseError, CaseOptions};
use losac_core::prelude::{Case, CaseResult};
use losac_sizing::OtaSpecs;
use losac_tech::Technology;
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
    /// Every other input of the run: the plan, layout options, shape
    /// constraint, flow knobs, the scenario both performance rows are
    /// measured under (`options.eval.scenario`) and the corner-aware
    /// acceptance set. A lone run of the job is
    /// `run_case_with(&job.tech, &job.specs, job.case, &job.options)`;
    /// the engine runs a clone whose `eval.cache` is the batch's
    /// evaluation cache and changes no other field.
    pub options: CaseOptions,
    /// Optional per-job wall-clock budget; the engine turns it into a
    /// deadline when the job starts and the run stops cooperatively at
    /// the next phase boundary or Newton iteration past it.
    pub budget: Option<Duration>,
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
    /// A job with the historical `run_case` defaults
    /// ([`CaseOptions::default`]) and no budget.
    pub fn new(tech: Arc<Technology>, specs: OtaSpecs, case: Case) -> Self {
        Self {
            label: case.label().to_owned(),
            tech,
            specs,
            case,
            options: CaseOptions::default(),
            budget: None,
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

    /// Set the per-job wall-clock budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
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
