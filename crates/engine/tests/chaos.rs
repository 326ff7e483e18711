//! Seeded chaos suite: drive batches through deterministic fault
//! schedules and prove the retry/isolation machinery holds up.
//!
//! The headline test runs one seeded schedule at 1 and at 4 workers in
//! one process and requires bitwise-identical outcomes: injected panics
//! stay contained, and budget stops win over hung solvers.

use losac_core::prelude::{Case, OtaSpecs};
use losac_engine::{Engine, EngineOptions, JobOutcome, RetryPolicy, SynthesisJob};
use losac_obs::failpoint::{FailAction, FailPlan};
use losac_sizing::rng::Xorshift128Plus;
use losac_sizing::{FoldedCascodePlan, TopologyPlan, TopologyRegistry};
use losac_tech::{Corner, Scenario, Technology};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tech() -> Arc<Technology> {
    Arc::new(Technology::cmos06())
}

fn job(case: Case) -> SynthesisJob {
    SynthesisJob::new(tech(), OtaSpecs::paper_example(), case)
}

/// A value-faithful digest of one outcome: status, attempt count and the
/// full Debug form of any result (f64 Debug is shortest-roundtrip, so
/// equal digests mean bitwise-equal numbers).
fn digest(outcomes: &[JobOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| match o {
            JobOutcome::Finished(r) => {
                format!(
                    "finished {:?} {:?} {}",
                    r.synthesized, r.extracted, r.layout_calls
                )
            }
            JobOutcome::Degraded {
                attempts,
                last_error,
                partial,
            } => match partial.as_deref() {
                Some(r) => format!(
                    "degraded x{attempts} [{last_error}] {:?} {:?} {}",
                    r.synthesized, r.extracted, r.layout_calls
                ),
                None => format!("degraded x{attempts} [{last_error}] exhausted"),
            },
            JobOutcome::Failed(e) => format!("failed [{e}]"),
            other => other.status().to_owned(),
        })
        .collect()
}

/// The seeded schedule: a deterministic pseudo-random mix of healthy
/// jobs, one-shot analysis faults, injected panics, persistent faults
/// (retry exhaustion) and a permanent bad-netlist job.
fn seeded_batch(seed: u64) -> Vec<SynthesisJob> {
    let mut rng = Xorshift128Plus::seed_from_u64(seed);
    let retry = RetryPolicy::attempts(3).with_jitter_seed(seed);
    let mut jobs = Vec::new();
    for i in 0..10usize {
        let case = if rng.next_f64() < 0.5 {
            Case::NoParasitics
        } else {
            Case::UnfoldedDiffusion
        };
        let j = job(case)
            .with_label(format!("chaos-{i}"))
            .with_retry(retry.clone());
        let roll = (rng.next_f64() * 5.0) as usize;
        let j = match roll {
            0 => j.with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Fail)),
            1 => j.with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Panic)),
            2 => j.with_fail_plan(FailPlan::new().always("sim.dc.newton", FailAction::Fail)),
            3 => j.with_fail_plan(FailPlan::new().once("sim.ac.sweep", FailAction::Nan)),
            _ => j,
        };
        jobs.push(j);
    }
    // Topology axis: one full-loop job per built-in topology, each
    // against its own example specification. One-shot faults on the
    // sizing evaluation exercise retry across the dynamic dispatch too.
    let registry = TopologyRegistry::builtin();
    for (i, name) in registry.names().iter().enumerate() {
        let plan = registry.get(name).expect("builtin topology");
        let j = SynthesisJob::new(tech(), plan.example_specs(), Case::AllParasitics)
            .with_topology_plan(plan)
            .with_label(format!("chaos-topo-{name}"))
            .with_retry(RetryPolicy::attempts(3).with_jitter_seed(seed));
        let j = if i % 2 == 0 {
            j.with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Fail))
        } else {
            j
        };
        jobs.push(j);
    }
    // One design point under three corners, with equal flow inputs and
    // one plan `Arc` (the technology is equal by value, not by pointer):
    // the two healthy jobs share one case preparation, while the job
    // with a fault plan prepares alone, fails once and retries.
    let plan: Arc<dyn TopologyPlan> = Arc::new(FoldedCascodePlan::default());
    for (k, corner) in [Corner::Typical, Corner::Slow, Corner::Fast]
        .into_iter()
        .enumerate()
    {
        let j = job(Case::AllParasitics)
            .with_topology_plan(plan.clone())
            .with_scenario(Scenario::corner(corner))
            .with_label(format!("chaos-shared-{k}"))
            .with_retry(retry.clone());
        jobs.push(if k == 1 {
            j.with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Fail))
        } else {
            j
        });
    }
    // One permanently-broken job: a NaN load capacitance is rejected by
    // netlist validation, a failure no retry can fix.
    let mut bad = OtaSpecs::paper_example();
    bad.c_load = f64::NAN;
    jobs.push(
        SynthesisJob::new(tech(), bad, Case::NoParasitics)
            .with_label("chaos-bad-netlist".to_owned())
            .with_retry(retry),
    );
    jobs
}

#[test]
fn seeded_chaos_batch_is_deterministic_across_worker_counts() {
    const SEED: u64 = 0xC0FF_EE00;
    let started = Instant::now();
    let serial = Engine::new(EngineOptions::with_workers(1)).run_batch(seeded_batch(SEED));
    let parallel = Engine::new(EngineOptions::with_workers(4)).run_batch(seeded_batch(SEED));
    // No deadlock / no runaway: the whole double run stays well under a
    // minute even with every backoff slept twice.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "chaos batch took {:?}",
        started.elapsed()
    );
    assert_eq!(
        digest(&serial.outcomes),
        digest(&parallel.outcomes),
        "outcomes must be a pure function of the jobs, not the worker count"
    );
    assert_eq!(serial.telemetry.retries, parallel.telemetry.retries);
    assert_eq!(serial.telemetry.degraded, parallel.telemetry.degraded);
    assert_eq!(serial.telemetry.prepared, parallel.telemetry.prepared);

    // The schedule exercises every classification: injected panics are
    // retried (never reported as Panicked), some jobs degrade, healthy
    // jobs finish, and the bad netlist fails typed without retries.
    let outcomes = &serial.outcomes;
    assert!(
        !outcomes
            .iter()
            .any(|o| matches!(o, JobOutcome::Panicked(_))),
        "{:?}",
        digest(outcomes)
    );
    assert!(
        outcomes.iter().any(|o| o.is_finished()),
        "{:?}",
        digest(outcomes)
    );
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, JobOutcome::Degraded { .. })),
        "{:?}",
        digest(outcomes)
    );
    assert!(
        matches!(outcomes.last(), Some(JobOutcome::Failed(_))),
        "bad netlist must fail typed, got {:?}",
        outcomes.last().map(JobOutcome::status)
    );
    assert!(serial.telemetry.retries >= 1);
    assert!(serial.telemetry.degraded >= 1);
    // The shared design point: its healthy jobs finish from the one
    // shared preparation, and the faulted job recovers on its second
    // attempt.
    let shared = &outcomes[outcomes.len() - 4..outcomes.len() - 1];
    assert!(
        shared[0].is_finished() && shared[2].is_finished(),
        "{:?}",
        digest(shared)
    );
    assert!(
        matches!(
            &shared[1],
            JobOutcome::Degraded {
                attempts: 2,
                partial: Some(_),
                ..
            }
        ),
        "{:?}",
        digest(shared)
    );
}

#[test]
fn a_one_shot_transient_fault_recovers_on_the_second_attempt() {
    let jobs = vec![job(Case::NoParasitics)
        .with_retry(RetryPolicy::attempts(3))
        .with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Fail))];
    let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    match &batch.outcomes[0] {
        JobOutcome::Degraded {
            attempts,
            last_error,
            partial,
        } => {
            assert_eq!(*attempts, 2);
            assert!(last_error.contains("sizing.evaluate"), "{last_error}");
            assert!(partial.is_some(), "second attempt should have succeeded");
        }
        other => panic!("expected Degraded, got {}", other.status()),
    }
    assert_eq!(batch.telemetry.retries, 1);
    assert_eq!(batch.telemetry.degraded, 1);
}

#[test]
fn an_injected_panic_is_retried_when_a_policy_is_set() {
    let jobs = vec![
        job(Case::NoParasitics)
            .with_retry(RetryPolicy::attempts(3))
            .with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Panic)),
        job(Case::NoParasitics),
    ];
    let batch = Engine::new(EngineOptions::with_workers(2)).run_batch(jobs);
    match &batch.outcomes[0] {
        JobOutcome::Degraded {
            attempts, partial, ..
        } => {
            assert_eq!(*attempts, 2);
            assert!(partial.is_some());
        }
        other => panic!("expected Degraded, got {}", other.status()),
    }
    assert!(
        batch.outcomes[1].is_finished(),
        "panic poisoned a neighbour"
    );
}

#[test]
fn an_injected_panic_without_a_policy_keeps_the_historical_outcome() {
    let jobs = vec![
        job(Case::NoParasitics)
            .with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Panic)),
        job(Case::NoParasitics),
    ];
    let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    match &batch.outcomes[0] {
        JobOutcome::Panicked(msg) => assert!(msg.contains("injected panic"), "{msg}"),
        other => panic!("expected Panicked, got {}", other.status()),
    }
    assert!(batch.outcomes[1].is_finished());
    assert_eq!(batch.telemetry.retries, 0);
}

#[test]
fn exhausted_retries_degrade_without_poisoning_the_batch() {
    let jobs = vec![
        job(Case::NoParasitics)
            .with_retry(RetryPolicy::attempts(3))
            .with_fail_plan(FailPlan::new().always("sizing.evaluate", FailAction::Fail)),
        job(Case::NoParasitics),
    ];
    let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    match &batch.outcomes[0] {
        JobOutcome::Degraded {
            attempts, partial, ..
        } => {
            assert_eq!(*attempts, 3, "all attempts must be spent");
            assert!(partial.is_none());
        }
        other => panic!("expected Degraded, got {}", other.status()),
    }
    assert!(batch.outcomes[1].is_finished());
    assert_eq!(batch.telemetry.retries, 2);
}

#[test]
fn a_hung_solver_times_out_within_tolerance() {
    // The injected delay stalls the first DC Newton solve well past the
    // job's budget; the solver-level interrupt poll must catch the
    // deadline right after the stall instead of letting the job run to
    // completion. The overshoot is bounded by the delay itself plus one
    // solver phase, far below the no-interrupt runtime.
    let delay = Duration::from_millis(300);
    let budget = Duration::from_millis(100);
    let jobs = vec![job(Case::AllParasitics)
        .with_budget(budget)
        .with_fail_plan(FailPlan::new().once("sim.dc.newton", FailAction::Delay(delay)))];
    let started = Instant::now();
    let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    let elapsed = started.elapsed();
    assert!(
        matches!(batch.outcomes[0], JobOutcome::TimedOut),
        "expected TimedOut, got {}",
        batch.outcomes[0].status()
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "hung solver outlived its budget by too much: {elapsed:?}"
    );
}

#[test]
fn a_timed_out_job_is_never_retried() {
    let jobs = vec![job(Case::NoParasitics)
        .with_budget(Duration::ZERO)
        .with_retry(RetryPolicy::attempts(5))];
    let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    assert!(matches!(batch.outcomes[0], JobOutcome::TimedOut));
    assert_eq!(batch.telemetry.retries, 0);
}
