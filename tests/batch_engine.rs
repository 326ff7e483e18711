//! Integration: the batch engine reproduces serial `run_case` results
//! bit-for-bit, in submission order, with per-job fault isolation.
//!
//! The 4-case Table-1 batch must be bitwise identical to serial
//! `run_case` whether one worker or four execute it, so the tests below
//! run both the degenerate 1-worker pool and a contended one.

use losac::engine::{Engine, EngineOptions, JobOutcome, SynthesisJob};
use losac::flow::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The worker counts every batch test runs at.
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn perf_bits(p: &Performance) -> [u64; 11] {
    [
        p.dc_gain_db,
        p.gbw,
        p.phase_margin,
        p.slew_rate,
        p.cmrr_db,
        p.offset,
        p.output_resistance,
        p.input_noise_rms,
        p.thermal_noise_density,
        p.flicker_noise_density,
        p.power,
    ]
    .map(f64::to_bits)
}

#[test]
fn batch_of_table1_cases_matches_serial_run_case_bitwise() {
    let tech = Arc::new(Technology::cmos06());
    let specs = OtaSpecs::paper_example();

    // Serial reference, through the historical entry point.
    let serial: Vec<CaseResult> = Case::ALL
        .into_iter()
        .map(|c| run_case(&tech, &specs, c).expect("serial case runs"))
        .collect();

    for workers in WORKER_COUNTS {
        // The same four cases as one batch.
        let jobs: Vec<SynthesisJob> = Case::ALL
            .into_iter()
            .map(|c| SynthesisJob::new(tech.clone(), specs, c))
            .collect();
        let batch = Engine::new(EngineOptions::with_workers(workers)).run_batch(jobs);

        assert_eq!(batch.outcomes.len(), 4);
        assert_eq!(batch.telemetry.jobs, 4);
        assert!(batch.telemetry.workers <= workers);
        for (i, (s, o)) in serial.iter().zip(&batch.outcomes).enumerate() {
            let b = o.result().unwrap_or_else(|| {
                panic!("{workers} workers: job {i} did not finish: {}", o.status())
            });
            // Submission order is preserved: outcome i is case i.
            assert_eq!(
                b.case,
                Case::ALL[i],
                "{workers} workers: job {i} out of order"
            );
            // And the numbers are byte-identical to the serial run.
            assert_eq!(
                perf_bits(&s.synthesized),
                perf_bits(&b.synthesized),
                "{workers} workers: job {i} synthesized row differs from serial"
            );
            assert_eq!(
                perf_bits(&s.extracted),
                perf_bits(&b.extracted),
                "{workers} workers: job {i} extracted row differs from serial"
            );
            assert_eq!(
                s.layout_calls, b.layout_calls,
                "{workers} workers: job {i} layout calls"
            );
        }
    }
}

#[test]
fn faulty_jobs_do_not_poison_the_batch() {
    let tech = Arc::new(Technology::cmos06());
    let specs = OtaSpecs::paper_example();
    for workers in WORKER_COUNTS {
        // Job 0 times out immediately; job 1 is a quick healthy case; job
        // 2 has an invalid call budget and fails validation.
        let mut jobs = vec![
            SynthesisJob::new(tech.clone(), specs, Case::NoParasitics).with_budget(Duration::ZERO),
            SynthesisJob::new(tech.clone(), specs, Case::NoParasitics),
            SynthesisJob::new(tech.clone(), specs, Case::AllParasitics),
        ];
        jobs[2].options.max_layout_calls = 0;
        let batch = Engine::new(EngineOptions::with_workers(workers)).run_batch(jobs);
        assert!(matches!(batch.outcomes[0], JobOutcome::TimedOut));
        assert!(
            batch.outcomes[1].is_finished(),
            "{workers} workers: healthy job was poisoned: {}",
            batch.outcomes[1].status()
        );
        assert!(matches!(batch.outcomes[2], JobOutcome::Failed(_)));
    }
}

#[test]
fn cancel_token_stops_pending_jobs() {
    let tech = Arc::new(Technology::cmos06());
    let specs = OtaSpecs::paper_example();
    let engine = Engine::new(EngineOptions::with_workers(1));
    engine.cancel_token().cancel();
    let batch = engine.run_batch(vec![
        SynthesisJob::new(tech.clone(), specs, Case::AllParasitics),
        SynthesisJob::new(tech, specs, Case::ExactDiffusion),
    ]);
    for (i, o) in batch.outcomes.iter().enumerate() {
        assert!(
            matches!(o, JobOutcome::Cancelled),
            "job {i}: {}",
            o.status()
        );
    }
}
