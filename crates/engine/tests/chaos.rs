//! Seeded chaos suite: drive batches through deterministic fault
//! schedules and check that the engine isolates every failure.
//!
//! The headline test runs one seeded schedule at 1 and at 4 workers in
//! one process and requires bitwise-identical outcomes: injected faults
//! come back as typed failures, injected panics stay inside their job,
//! and budget stops win over hung solvers.

use losac_core::prelude::{Case, OtaSpecs};
use losac_engine::{Engine, EngineOptions, JobOutcome, SynthesisJob};
use losac_obs::failpoint::{FailAction, FailPlan};
use losac_obs::Collector;
use losac_sizing::{FoldedCascodePlan, TopologyPlan, TopologyRegistry};
use losac_tech::rng::Xorshift128Plus;
use losac_tech::{Corner, Scenario, Technology};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tech() -> Arc<Technology> {
    Arc::new(Technology::cmos06())
}

fn job(case: Case) -> SynthesisJob {
    SynthesisJob::new(tech(), OtaSpecs::paper_example(), case)
}

/// A value-faithful digest of one outcome: status, error text and the
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
            JobOutcome::Failed(e) => format!("failed [{e}]"),
            JobOutcome::Panicked(m) => format!("panicked [{m}]"),
            other => other.status().to_owned(),
        })
        .collect()
}

/// The seeded schedule: a deterministic pseudo-random mix of healthy
/// jobs, one-shot analysis faults, injected panics, persistent faults
/// and a bad-netlist job. Returns the jobs and the indices of the ones
/// whose plan injects a panic.
fn seeded_batch(seed: u64) -> (Vec<SynthesisJob>, Vec<usize>) {
    let mut rng = Xorshift128Plus::seed_from_u64(seed);
    let mut jobs = Vec::new();
    let mut panics = Vec::new();
    for i in 0..10usize {
        let case = if rng.next_f64() < 0.5 {
            Case::NoParasitics
        } else {
            Case::UnfoldedDiffusion
        };
        let j = job(case).with_label(format!("chaos-{i}"));
        let roll = (rng.next_f64() * 5.0) as usize;
        let j = match roll {
            0 => j.with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Fail)),
            1 => {
                panics.push(jobs.len());
                j.with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Panic))
            }
            2 => j.with_fail_plan(FailPlan::new().always("sim.dc.newton", FailAction::Fail)),
            3 => j.with_fail_plan(FailPlan::new().once("sim.ac.sweep", FailAction::Nan)),
            _ => j,
        };
        jobs.push(j);
    }
    // Topology axis: one full-loop job per built-in topology, each
    // against its own example specification. One-shot faults on the
    // sizing evaluation go through the dynamic dispatch too.
    let registry = TopologyRegistry::builtin();
    for (i, name) in registry.names().iter().enumerate() {
        let plan = registry.get(name).expect("builtin topology");
        let mut j = SynthesisJob::new(tech(), plan.example_specs(), Case::AllParasitics)
            .with_label(format!("chaos-topo-{name}"));
        j.options.plan = plan;
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
    // with a fault plan prepares alone and fails.
    let plan: Arc<dyn TopologyPlan> = Arc::new(FoldedCascodePlan::default());
    for (k, corner) in [Corner::Typical, Corner::Slow, Corner::Fast]
        .into_iter()
        .enumerate()
    {
        let mut j = job(Case::AllParasitics).with_label(format!("chaos-shared-{k}"));
        j.options.plan = plan.clone();
        j.options.eval.scenario = Scenario::corner(corner);
        jobs.push(if k == 1 {
            j.with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Fail))
        } else {
            j
        });
    }
    // A NaN load capacitance, which sizing rejects with a typed error.
    let mut bad = OtaSpecs::paper_example();
    bad.c_load = f64::NAN;
    jobs.push(SynthesisJob::new(tech(), bad, Case::NoParasitics).with_label("chaos-bad-netlist"));
    (jobs, panics)
}

#[test]
fn seeded_chaos_batch_is_deterministic_across_worker_counts() {
    const SEED: u64 = 0xC0FF_EE00;
    let started = Instant::now();
    let (jobs, panics) = seeded_batch(SEED);
    let serial = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    let parallel = Engine::new(EngineOptions::with_workers(4)).run_batch(seeded_batch(SEED).0);
    // No deadlock, no runaway.
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
    assert_eq!(serial.telemetry.prepared, parallel.telemetry.prepared);

    // Injected panics end their own job only, as `Panicked`; healthy
    // jobs finish, and the bad netlist fails typed.
    let outcomes = &serial.outcomes;
    assert!(!panics.is_empty(), "the schedule injects no panic");
    for (i, o) in outcomes.iter().enumerate() {
        let panicked = matches!(o, JobOutcome::Panicked(m) if m.contains("injected panic"));
        assert_eq!(
            panicked,
            panics.contains(&i),
            "job {i}: {}",
            digest(outcomes)[i]
        );
    }
    assert!(
        outcomes.iter().any(|o| o.is_finished()),
        "{:?}",
        digest(outcomes)
    );
    assert!(
        matches!(outcomes.last(), Some(JobOutcome::Failed(_))),
        "bad netlist must fail typed, got {:?}",
        outcomes.last().map(JobOutcome::status)
    );
    // The shared design point: its healthy jobs finish from the one
    // shared preparation, and the faulted job fails, naming the site.
    let shared = &outcomes[outcomes.len() - 4..outcomes.len() - 1];
    assert!(
        shared[0].is_finished() && shared[2].is_finished(),
        "{:?}",
        digest(shared)
    );
    assert!(
        matches!(&shared[1], JobOutcome::Failed(e) if e.to_string().contains("sizing.evaluate")),
        "{:?}",
        digest(shared)
    );
}

#[test]
fn an_injected_simulator_fault_names_its_site() {
    // An injected fault reads as injected, not as a singular system at
    // column `usize::MAX`.
    let sites = ["sim.dc.newton", "sim.ac.sweep"];
    let jobs = sites
        .iter()
        .map(|site| {
            job(Case::NoParasitics).with_fail_plan(FailPlan::new().always(site, FailAction::Fail))
        })
        .collect();
    let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    for (site, o) in sites.iter().zip(&batch.outcomes) {
        let JobOutcome::Failed(e) = o else {
            panic!("{site}: expected Failed, got {}", o.status());
        };
        let msg = e.to_string();
        assert!(
            msg.contains(&format!("injected failure at `{site}`")),
            "{msg}"
        );
        assert!(!msg.contains(&usize::MAX.to_string()), "{msg}");
    }
}

#[test]
fn a_panicking_job_is_booked_like_any_other() {
    let collector = Collector::new();
    let guard = losac_obs::install(Arc::new(collector.clone()));
    let jobs = vec![
        job(Case::NoParasitics)
            .with_label("bookkeeping-panic")
            .with_fail_plan(FailPlan::new().once("sizing.evaluate", FailAction::Panic)),
        job(Case::NoParasitics).with_label("bookkeeping-healthy"),
    ];
    let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
    drop(guard);
    match &batch.outcomes[0] {
        JobOutcome::Panicked(msg) => assert!(msg.contains("injected panic"), "{msg}"),
        other => panic!("expected Panicked, got {}", other.status()),
    }
    assert!(
        batch.outcomes[1].is_finished(),
        "the panic poisoned its neighbour"
    );
    // One `engine.job.done` per job, the panicking one included, and one
    // latency sample each. Sinks are process-wide and the other tests of
    // this binary run batches at the same time, so keep the events of
    // this batch's one worker: the thread that started its jobs.
    let worker = collector
        .all_events("engine.job.start")
        .into_iter()
        .find(|e| e.field("label").map(ToString::to_string).as_deref() == Some("bookkeeping-panic"))
        .expect("the job started")
        .thread;
    let done: Vec<(u64, String)> = collector
        .all_events("engine.job.done")
        .iter()
        .filter(|e| e.thread == worker)
        .map(|e| {
            (
                e.field("job").and_then(|v| v.as_u64()).expect("job index"),
                e.field("status").expect("status").to_string(),
            )
        })
        .collect();
    assert_eq!(
        done,
        [(0, "panicked".to_owned()), (1, "finished".to_owned())]
    );
    assert_eq!(batch.telemetry.job_ms.count, 2);
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
