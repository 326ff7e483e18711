//! `yield`: Table 1 as a distribution at dataset scale. A closed loop of
//! batches through `Engine::run_batch` on two workers, each batch with a
//! fresh evaluation cache (the engine default). A batch holds one
//! jittered case-4 design point per topology, measured under
//! {tt, ss, ff} × {−40, 27, 125} °C with one seeded mismatch draw each:
//! 27 scenario jobs. Every evaluation runs under a non-nominal scenario,
//! so none hits the cache, and every job re-runs the nominal flow.
//!
//! An op is one batch. A scenario job that cannot be measured (today the
//! folded cascode at ss/−40 °C: "output cannot be centred") is a yield
//! failure of the design, part of the batch's correct result: the
//! canary batch pins it and `engine.failed_jobs` counts it.

use crate::canary::{Reference, Row};
use crate::inputs::{rng, shuffled, Jitter, Setup, Stream, TOPOLOGIES};
use crate::measure::{median, ms, peak_rss_mb, quantile, timed, us, HostProbe, Report};
use crate::trace::{CountWindow, Layers, Tracer};
use crate::Config;
use losac_core::Case;
use losac_engine::{BatchResult, Engine, EngineOptions, JobOutcome, SweepBuilder, SynthesisJob};
use losac_tech::{Corner, Pvt};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads: one per vCPU of the reference host.
const WORKERS: usize = 2;
const CORNERS: [Corner; 3] = [Corner::Typical, Corner::Slow, Corner::Fast];
const TEMPS_C: [f64; 3] = [-40.0, 27.0, 125.0];
/// Scenario jobs per design point and per batch.
const SCENARIOS: usize = CORNERS.len() * TEMPS_C.len();
const JOBS: usize = SCENARIOS * TOPOLOGIES.len();
/// Seed of the canary batch (batch 0 of this seed).
pub const CANARY_SEED: u64 = 2000;
/// Set-ups timed before each batch.
const SETUPS_PER_BATCH: usize = 8;
/// Every run has at least this many batches (the traced run needs a
/// count batch, a traced and an untraced one).
const MIN_BATCHES: u64 = 3;

const REFERENCE: &str = include_str!("../reference/yield.txt");

/// Batch `index` of `seed`: per topology one jittered case-4 design
/// point under every scenario, in seeded order.
pub fn batch_jobs(setup: &Setup, seed: u64, index: u64) -> Vec<SynthesisJob> {
    let mc_seed = rng(seed, Stream::Mismatch, index).next_u64();
    let mut jobs = Vec::with_capacity(JOBS);
    for (t, (name, plan)) in TOPOLOGIES.iter().zip(&setup.plans).enumerate() {
        let specs = Jitter::new(seed, Stream::Spec, t as u64).specs(plan.example_specs(), index);
        // Separate builders all key their rows `Case 4/min_area`; the
        // topology keeps the three design points apart.
        let point = format!("{name}/case4");
        jobs.extend(
            SweepBuilder::new(setup.tech.clone(), specs)
                .with_topology_plan(plan.clone())
                .over_cases([Case::AllParasitics])
                .corners(CORNERS)
                .temperatures(TEMPS_C)
                .monte_carlo(1, mc_seed)
                .build()
                .into_iter()
                .map(|job| job.with_design_point(point.clone())),
        );
    }
    let mut slots: Vec<Option<SynthesisJob>> = jobs.into_iter().map(Some).collect();
    shuffled(slots.len(), &mut rng(seed, Stream::Order, index))
        .into_iter()
        .map(|i| slots[i].take().expect("a permutation visits each job once"))
        .collect()
}

/// The batch's yield rows and job statuses, as reference rows.
pub fn batch_rows(batch: &BatchResult) -> Vec<Row> {
    let mut rows: Vec<Row> = batch
        .telemetry
        .design_points
        .iter()
        .map(|dp| {
            Row::new(dp.design_point.clone())
                .nums([dp.scenarios, dp.measured, dp.passed].map(|n| n as f64))
                .nums([dp.gbw.mean, dp.gbw.sigma, dp.gbw.worst])
                .nums([
                    dp.phase_margin.mean,
                    dp.phase_margin.sigma,
                    dp.phase_margin.worst,
                ])
                .num(dp.cpk.unwrap_or(f64::NAN))
        })
        .collect();
    rows.extend(
        batch
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| Row::new(format!("job{i:02}")).word(o.status())),
    );
    rows
}

/// What is wrong with a batch whatever its seed, if anything: every job
/// ran to a verdict, every design point got all its scenarios, and every
/// measured GBW is a positive number.
fn sanity(batch: &BatchResult) -> Option<String> {
    let mut problems = Vec::new();
    if batch.outcomes.len() != JOBS {
        problems.push(format!(
            "{} outcomes, expected {JOBS}",
            batch.outcomes.len()
        ));
    }
    for (i, o) in batch.outcomes.iter().enumerate() {
        match o {
            JobOutcome::Finished(r) if r.extracted.gbw > 0.0 => {}
            JobOutcome::Failed(_) => {}
            other => problems.push(format!("job {i}: {}", other.status())),
        }
    }
    let points = &batch.telemetry.design_points;
    if points.len() != TOPOLOGIES.len() || points.iter().any(|p| p.scenarios != SCENARIOS) {
        problems.push(format!("design points {points:?}"));
    }
    (!problems.is_empty()).then(|| problems.join("; "))
}

fn failed_jobs(batch: &BatchResult) -> usize {
    batch
        .outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Failed(_)))
        .count()
}

fn finished_jobs(batch: &BatchResult) -> usize {
    batch.outcomes.iter().filter(|o| o.is_finished()).count()
}

pub fn new_engine() -> Engine {
    Engine::new(EngineOptions::with_workers(WORKERS))
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut probe = HostProbe::default();
    probe.sample();
    let setup = Setup::new();
    let engine = new_engine();

    // The canaries double as the warm-up: the Table-1 points (the `synth`
    // workload is not in BENCHMARK.json) and the canary batch.
    crate::synth::check_table1(&setup, &mut report);
    let canary = engine.run_batch(batch_jobs(&setup, CANARY_SEED, 0));
    let problems = Reference::parse(REFERENCE).check_all(&batch_rows(&canary));
    report.op((!problems.is_empty()).then(|| format!("canary batch: {}", problems.join("; "))));

    let mut tracer = cfg.trace.then(Tracer::new);
    let mut window = CountWindow::default();
    let mut setup_s = Vec::new();
    let mut batch_ms = Vec::new();
    let mut rate = Vec::new();
    let mut utilization = Vec::new();
    let mut unmeasured = Vec::new();
    let start = Instant::now();
    let mut index = 0;
    while index < MIN_BATCHES || start.elapsed() < cfg.seconds {
        for _ in 0..SETUPS_PER_BATCH {
            let (fresh, d) = timed(|| (Setup::new(), new_engine()));
            black_box(fresh);
            setup_s.push(d.as_secs_f64());
        }
        // Traced run: batch 0 is the count window, then traced and
        // untraced batches alternate for the overhead estimate.
        let counting = cfg.trace && index == 0;
        let traced = cfg.trace && index % 2 == 0;
        if let Some(t) = tracer.as_mut() {
            t.set(traced);
        }
        let jobs = batch_jobs(&setup, cfg.seed, index);
        let op = || {
            let _span = losac_obs::span("bench.yield.op");
            engine.run_batch(jobs)
        };
        let batch = if counting { window.measure(op) } else { op() };
        report.op(sanity(&batch).map(|p| format!("batch {index}: {p}")));
        let wall = batch.telemetry.wall;
        let r = finished_jobs(&batch) as f64 / wall.as_secs_f64();
        batch_ms.push(ms(wall));
        rate.push(r);
        utilization.push(batch.telemetry.utilization());
        if let (true, Some(t)) = (counting, tracer.as_ref()) {
            window.close(t);
        }
        unmeasured.push(failed_jobs(&batch));
        if let Some(tr) = tracer.as_mut() {
            tr.record(ms(wall), counting);
        }
        index += 1;
        probe.sample();
    }
    report.notes.push(format!(
        "{index} batches of {JOBS} scenario jobs; {} jobs could not be measured \
         (yield failures of the design, not failed ops)",
        unmeasured.iter().sum::<usize>()
    ));

    match tracer {
        None => {
            report.metric("setup_s", median(&setup_s), "s");
            report.metric("op_ms_p50", median(&batch_ms), "ms");
            report.metric("op_ms_p90", quantile(&batch_ms, 0.9), "ms");
            report.metric("scen_per_s", median(&rate), "1/s");
            report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Some(mut tracer) => {
            tracer.set(false);
            let mut layers = Layers::default();
            layers.set_counts(&window);
            layers.set_span_times(&tracer);
            layers.set("engine.utilization", median(&utilization));
            layers.set("engine.job_ms_p50", median(&tracer.job_ms()));
            layers.set(
                "engine.flows_per_point",
                window.flows as f64 / TOPOLOGIES.len() as f64,
            );
            layers.set("engine.failed_jobs", unmeasured[0] as f64);
            layers.set("tech.derive_us", derive_us(&setup));
            layers.set("host.ref_ms", probe.ref_ms());
            report.notes.push(tracer.profile().render_table());
            layers.emit(&mut report);
        }
    }
    report
        .notes
        .push(format!("host.ref_ms {}", probe.describe()));
    report
}

/// Median time of one `Pvt::derive` over the batch's nine PVT points.
fn derive_us(setup: &Setup) -> f64 {
    let points: Vec<Pvt> = CORNERS
        .iter()
        .flat_map(|&c| TEMPS_C.map(|t| Pvt::new(c, t, 1.0)))
        .collect();
    let samples: Vec<f64> = (0..200)
        .flat_map(|_| &points)
        .map(|p| us(timed(|| black_box(p.derive(&setup.tech))).1))
        .collect();
    median(&samples)
}
