//! Integration: scenario sweeps through the batch engine.
//!
//! The tentpole guarantees pinned here:
//! * the nominal scenario is bitwise identical to the scenario-free
//!   historical path (checked at the `evaluate` layer in the sizing
//!   crate; here we check the job layer);
//! * a seeded corner × temperature × Monte-Carlo sweep through
//!   `Engine::run_batch` produces **identical yield/Cpk statistics at
//!   1 and 4 workers** — the statistics are a pure fold over
//!   submission-ordered outcomes, never over completion order;
//! * corner-aware acceptance (`CaseOptions::scenarios`) reports the
//!   per-metric worst case over the scenario set;
//! * scenario jobs of one design point share one case preparation per
//!   batch, and every outcome still equals that job run alone through
//!   `run_case_with`, at 1 and 4 workers;
//! * a memo shared across batches keeps a preparation only once a later
//!   batch reuses it, and never keeps a stopped or one-shot one.

use losac::flow::Preparations;
use losac::prelude::*;
use losac::sizing::EvalCache;
use losac::tech::pvt::NOMINAL_TEMP_C;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sweep_jobs() -> Vec<SynthesisJob> {
    // One design point (Case 1, min-area) measured under a corner ×
    // temperature × mismatch grid: 2 corners × 2 temperatures × 2 dies.
    SweepBuilder::new(Arc::new(Technology::cmos06()), OtaSpecs::paper_example())
        .over_cases([Case::NoParasitics])
        .corners([Corner::Typical, Corner::Slow])
        .temperatures([NOMINAL_TEMP_C, 125.0])
        .monte_carlo(2, 42)
        .build()
}

#[test]
fn corner_mc_sweep_yield_is_identical_at_1_and_4_workers() {
    let serial = Engine::new(EngineOptions::with_workers(1)).run_batch(sweep_jobs());
    let parallel = Engine::new(EngineOptions::with_workers(4)).run_batch(sweep_jobs());

    assert_eq!(serial.outcomes.len(), 8);
    for (i, (a, b)) in serial.outcomes.iter().zip(&parallel.outcomes).enumerate() {
        let (ra, rb) = (
            a.result()
                .unwrap_or_else(|| panic!("serial job {i}: {}", a.status())),
            b.result()
                .unwrap_or_else(|| panic!("parallel job {i}: {}", b.status())),
        );
        assert_eq!(
            ra.extracted.gbw.to_bits(),
            rb.extracted.gbw.to_bits(),
            "job {i} extracted GBW differs across worker counts"
        );
    }

    let (sdp, pdp) = (
        &serial.telemetry.design_points,
        &parallel.telemetry.design_points,
    );
    assert_eq!(sdp.len(), 1, "one design point expected");
    assert_eq!(pdp.len(), 1);
    let (s, p) = (&sdp[0], &pdp[0]);
    assert_eq!(s.design_point, "Case 1/min_area");
    assert_eq!(s.scenarios, 8);
    assert_eq!(s.measured, p.measured);
    assert_eq!(s.passed, p.passed);
    // The statistics are bitwise identical, not merely close.
    assert_eq!(s.gbw.mean.to_bits(), p.gbw.mean.to_bits());
    assert_eq!(s.gbw.sigma.to_bits(), p.gbw.sigma.to_bits());
    assert_eq!(s.gbw.worst.to_bits(), p.gbw.worst.to_bits());
    assert_eq!(s.phase_margin.mean.to_bits(), p.phase_margin.mean.to_bits());
    assert_eq!(
        s.phase_margin.sigma.to_bits(),
        p.phase_margin.sigma.to_bits()
    );
    assert_eq!(s.cpk.map(f64::to_bits), p.cpk.map(f64::to_bits));

    // The sweep is physically sensible: slow/hot scenarios lose GBW, so
    // the worst case sits below the mean and the spread is non-trivial.
    assert!(s.gbw.sigma > 0.0, "corner spread must move GBW");
    assert!(s.gbw.worst < s.gbw.mean);
    // Sized blind at nominal, the slow/125C scenarios miss the spec:
    // yield reflects that rather than reporting all-pass.
    assert!(
        s.passed < s.scenarios,
        "expected corner failures, yield = {}",
        s.yield_fraction()
    );
    assert!(s.cpk.is_some());
}

#[test]
fn nominal_scenario_job_matches_the_historical_path_bitwise() {
    let tech = Arc::new(Technology::cmos06());
    let specs = OtaSpecs::paper_example();
    let legacy = run_case(&tech, &specs, Case::NoParasitics).expect("legacy path runs");
    let mut jobs = vec![SynthesisJob::new(tech.clone(), specs, Case::NoParasitics)];
    jobs[0].options.eval.scenario = Scenario::nominal();
    let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    let r = batch.outcomes[0].result().expect("job finishes");
    assert_eq!(
        legacy.synthesized.gbw.to_bits(),
        r.synthesized.gbw.to_bits()
    );
    assert_eq!(legacy.extracted.gbw.to_bits(), r.extracted.gbw.to_bits());
    assert_eq!(
        legacy.extracted.phase_margin.to_bits(),
        r.extracted.phase_margin.to_bits()
    );
    assert_eq!(
        legacy.extracted.power.to_bits(),
        r.extracted.power.to_bits()
    );
    // No scenario axes → no yield aggregation.
    assert!(batch.telemetry.design_points.is_empty());
}

#[test]
fn corner_aware_acceptance_reports_the_worst_case_row() {
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();
    let corners = [
        Scenario::nominal(),
        Scenario::corner(Corner::Slow),
        Scenario::corner(Corner::Fast),
    ];

    // Per-scenario rows, measured one at a time.
    let rows: Vec<CaseResult> = corners
        .iter()
        .map(|sc| {
            let opts = CaseOptions::builder()
                .with_eval(EvalOptions::default().with_scenario(*sc))
                .build();
            run_case_with(&tech, &specs, Case::NoParasitics, &opts).expect("scenario runs")
        })
        .collect();

    // The corner-aware run folds them into one worst-case row.
    let opts = CaseOptions::builder().with_scenarios(corners).build();
    let worst = run_case_with(&tech, &specs, Case::NoParasitics, &opts).expect("worst-case runs");

    let min_gbw = rows
        .iter()
        .map(|r| r.extracted.gbw)
        .fold(f64::INFINITY, f64::min);
    let max_power = rows
        .iter()
        .map(|r| r.extracted.power)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(worst.extracted.gbw.to_bits(), min_gbw.to_bits());
    assert_eq!(worst.extracted.power.to_bits(), max_power.to_bits());
    // The slow corner genuinely bites: the worst-case row sits below
    // the nominal row.
    assert!(worst.extracted.gbw < rows[0].extracted.gbw);
}

/// One outcome in comparable form: its status plus both rows and the
/// layout-call count of a result (`f64` Debug round-trips, so equal text
/// means equal bits), or the text of a failure.
fn digest(result: Result<&CaseResult, String>) -> String {
    match result {
        Ok(r) => format!(
            "finished {:?} {:?} {}",
            r.synthesized, r.extracted, r.layout_calls
        ),
        Err(e) => format!("failed [{e}]"),
    }
}

fn batch_digest(o: &JobOutcome) -> String {
    match o {
        JobOutcome::Finished(r) => digest(Ok(r)),
        JobOutcome::Failed(e) => digest(Err(e.to_string())),
        other => other.status().to_owned(),
    }
}

/// The digest of `job` run alone through `run_case_with`, outside any
/// batch.
fn alone_digest(job: &SynthesisJob) -> String {
    let r = run_case_with(&job.tech, &job.specs, job.case, &job.options);
    digest(r.as_ref().map_err(ToString::to_string))
}

/// Batch `jobs` at 1 and 4 workers; every outcome must equal its job run
/// alone, and the batch must run `prepared` case preparations. Returns
/// the lone runs' digests.
fn assert_batches_match_lone_runs(
    jobs: impl Fn() -> Vec<SynthesisJob>,
    prepared: u64,
) -> Vec<String> {
    let alone: Vec<String> = jobs().iter().map(alone_digest).collect();
    for workers in [1, 4] {
        let batch = Engine::new(EngineOptions::with_workers(workers)).run_batch(jobs());
        let got: Vec<String> = batch.outcomes.iter().map(batch_digest).collect();
        assert_eq!(got, alone, "{workers} workers");
        assert_eq!(batch.telemetry.prepared, prepared, "{workers} workers");
    }
    alone
}

#[test]
fn scenario_jobs_share_one_preparation_per_design_point() {
    // Two case-4 design points under four scenarios each, plus a
    // budgeted copy of one job of the first point: the copy prepares
    // alone, so the batch prepares 3 times. Both points share one plan
    // and carry the design-point label `Case 4/min_area`; only their GBW
    // specs differ, and that alone must keep them apart.
    let jobs = || {
        let tech = Arc::new(Technology::cmos06());
        let plan = TopologyRegistry::builtin()
            .get("folded_cascode")
            .expect("builtin topology");
        let point = |gbw: f64| {
            let specs = OtaSpecs {
                gbw,
                ..OtaSpecs::paper_example()
            };
            SweepBuilder::new(tech.clone(), specs)
                .with_topology_plan(plan.clone())
                .over_cases([Case::AllParasitics])
                .corners([Corner::Typical, Corner::Slow])
                .temperatures([NOMINAL_TEMP_C, 125.0])
                .build()
        };
        let mut jobs = point(65.0e6);
        let budgeted = jobs[3].clone().with_budget(Duration::from_secs(600));
        jobs.extend(point(60.0e6));
        jobs.push(budgeted);
        jobs
    };
    let alone = assert_batches_match_lone_runs(jobs, 3);
    let finished = alone.iter().filter(|d| d.starts_with("finished")).count();
    assert!(finished >= 4, "only {finished} of 9 lone runs finished");
}

#[test]
fn a_rejected_design_point_fails_every_scenario_job_from_one_preparation() {
    // The telescopic plan rejects the paper's output range, which only
    // the folded cascode reaches: the one shared preparation fails, and
    // every scenario job reports the lone run's typed error.
    let plan = TopologyRegistry::builtin()
        .get("telescopic")
        .expect("builtin topology");
    let jobs = || {
        SweepBuilder::new(Arc::new(Technology::cmos06()), OtaSpecs::paper_example())
            .with_topology_plan(plan.clone())
            .over_cases([Case::AllParasitics])
            .corners([Corner::Typical, Corner::Slow, Corner::Fast])
            .build()
    };
    for d in assert_batches_match_lone_runs(jobs, 1) {
        assert!(
            d.starts_with("failed") && d.contains("folded cascode"),
            "{d}"
        );
    }
}

#[test]
fn a_failed_synthesized_measurement_is_reported_before_a_failed_layout() {
    // No layout fits a 1 nm width, and at 0.9 × VDD the case-1 design
    // cannot centre its output. The two scenario jobs share the
    // preparation that holds the layout failure, yet the one measured at
    // 0.9 × VDD still reports its evaluation error first, as a lone run
    // always has.
    let jobs = || {
        SweepBuilder::new(Arc::new(Technology::cmos06()), OtaSpecs::paper_example())
            .over_cases([Case::NoParasitics])
            .over_shapes([ShapeConstraint::MaxWidth(1)])
            .supplies([1.0, 0.9])
            .build()
    };
    let alone = assert_batches_match_lone_runs(jobs, 1);
    assert!(
        alone[0].starts_with("failed [flow failed in layout:"),
        "{alone:?}"
    );
    assert!(
        alone[1].starts_with("failed [evaluation failed: output cannot be centred"),
        "{alone:?}"
    );
}

/// Case-1 jobs of the paper example at `gbw`, one per supply scale.
fn case1_point(gbw: f64, supplies: &[f64]) -> Vec<SynthesisJob> {
    let specs = OtaSpecs {
        gbw,
        ..OtaSpecs::paper_example()
    };
    SweepBuilder::new(Arc::new(Technology::cmos06()), specs)
        .over_cases([Case::NoParasitics])
        .supplies(supplies.iter().copied())
        .build()
}

/// Engine options sharing `memo`.
fn with_memo(workers: usize, memo: &Arc<Preparations>) -> EngineOptions {
    let mut opts = EngineOptions::with_workers(workers);
    opts.preparations = Some(memo.clone());
    opts
}

#[test]
fn a_shared_memo_prepares_a_point_on_two_batches_then_never() {
    // Two design points under two supply scales each. Every batch builds
    // its jobs afresh, as a daemon does per request: they still share the
    // built-in plan `Arc`. The evaluation cache is shared as a daemon
    // shares it, so only the first batch simulates.
    let jobs = || {
        let mut jobs = case1_point(65.0e6, &[1.0, 1.05]);
        jobs.extend(case1_point(60.0e6, &[1.0, 1.05]));
        jobs
    };
    let alone: Vec<String> = jobs().iter().map(alone_digest).collect();
    let cache = Arc::new(EvalCache::new());
    for workers in [1, 4] {
        let memo = Arc::new(Preparations::default());
        let mut opts = with_memo(workers, &memo);
        opts.cache = Some(cache.clone());
        let engine = Engine::new(opts);
        let mut prepared = Vec::new();
        for _ in 0..3 {
            let batch = engine.run_batch(jobs());
            let got: Vec<String> = batch.outcomes.iter().map(batch_digest).collect();
            assert_eq!(got, alone, "{workers} workers");
            prepared.push(batch.telemetry.prepared);
        }
        assert_eq!(prepared, [2, 2, 0], "{workers} workers");
        assert_eq!(memo.len(), 2);
    }
}

#[test]
fn a_stopped_batch_leaves_the_memo_empty() {
    let list = case1_point(65.0e6, &[1.0, 1.05]);
    let jobs = || list.clone();
    let alone: Vec<String> = jobs().iter().map(alone_digest).collect();
    let memo = Arc::new(Preparations::default());
    let cancelled = Engine::new(with_memo(2, &memo));
    cancelled.cancel_token().cancel();
    for o in &cancelled.run_batch(jobs()).outcomes {
        assert!(matches!(o, JobOutcome::Cancelled), "{}", o.status());
    }
    assert!(memo.is_empty());
    let mut late = with_memo(2, &memo);
    late.deadline = Some(Instant::now());
    for o in &Engine::new(late).run_batch(jobs()).outcomes {
        assert!(matches!(o, JobOutcome::TimedOut), "{}", o.status());
    }
    assert!(
        memo.is_empty(),
        "a timed-out preparation outlived its batch"
    );
    // The point prepares afresh, with the lone runs' outcomes.
    let batch = Engine::new(with_memo(2, &memo)).run_batch(jobs());
    let got: Vec<String> = batch.outcomes.iter().map(batch_digest).collect();
    assert_eq!(got, alone);
    assert_eq!(batch.telemetry.prepared, 1);
}

#[test]
fn one_shot_points_leave_no_preparation_behind() {
    // At 0.9 × VDD the case-1 design cannot centre its output, so each
    // job fails fast in its measurement; its preparation succeeds.
    let memo = Arc::new(Preparations::default());
    let engine = Engine::new(with_memo(2, &memo));
    for k in 0..20 {
        let batch = engine.run_batch(case1_point(60.0e6 + 0.25e6 * f64::from(k), &[0.9]));
        assert_eq!(batch.telemetry.prepared, 1);
        assert!(matches!(batch.outcomes[0], JobOutcome::Failed(_)));
    }
    assert_eq!(memo.len(), 0);
}
