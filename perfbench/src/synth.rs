//! `synth`: the paper's loop as a designer runs it — one thread, no
//! engine, no evaluation cache. Each op is one `run_case_with` on a
//! distinct jittered specification. A cycle runs every topology × Table-1
//! case once, in seeded order, and a run ends on a cycle boundary, so
//! every run has the same mix of op kinds.

use crate::canary::{Reference, Row};
use crate::inputs::{rng, shuffled, Jitter, Setup, Stream, TOPOLOGIES};
use crate::measure::{median, ms, peak_rss_mb, quantile, timed, HostProbe, Report};
use crate::trace::{CountWindow, Layers, Tracer};
use crate::Config;
use losac_core::{run_case_with, Case, CaseResult};
use losac_serve::wire::perf_values;
use losac_sizing::OtaSpecs;
use std::hint::black_box;
use std::time::Instant;

/// Op kinds per cycle: topologies × cases.
const KINDS: usize = TOPOLOGIES.len() * Case::ALL.len();
/// Set-ups timed before each cycle.
const SETUPS_PER_CYCLE: usize = 8;
/// Cycles between host-speed probes.
const PROBE_EVERY: u64 = 4;
/// Every run has at least this many cycles (the traced run needs a
/// count cycle, a traced and an untraced one).
const MIN_CYCLES: u64 = 3;

const REFERENCE: &str = include_str!("../reference/table1.txt");

/// The 12 unjittered Table-1 points — every topology at its example
/// specification under every case — as reference rows (or errors).
pub fn table1(setup: &Setup) -> Vec<Result<Row, String>> {
    let mut rows = Vec::with_capacity(KINDS);
    for (t, name) in TOPOLOGIES.iter().enumerate() {
        let specs = setup.plans[t].example_specs();
        for (c, case) in Case::ALL.into_iter().enumerate() {
            let key = format!("{name}/case{}", c + 1);
            rows.push(
                run_case_with(&setup.tech, &specs, case, &setup.case_options[t])
                    .map(|r| case_row(key.clone(), &r))
                    .map_err(|e| format!("{key}: {e}")),
            );
        }
    }
    rows
}

/// Run the Table-1 canaries, one op each, against `reference/table1.txt`.
pub fn check_table1(setup: &Setup, report: &mut Report) {
    let reference = Reference::parse(REFERENCE);
    for row in table1(setup) {
        report.op(row.map_or_else(Some, |r| reference.check(&r)));
    }
}

fn case_row(key: String, r: &CaseResult) -> Row {
    Row::new(key)
        .num(r.layout_calls as f64)
        .nums(perf_values(&r.synthesized))
        .nums(perf_values(&r.extracted))
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut probe = HostProbe::default();
    probe.sample();
    let setup = Setup::new();

    // The canaries double as the warm-up.
    check_table1(&setup, &mut report);

    let jitter: Vec<Jitter> = (0..KINDS as u64)
        .map(|k| Jitter::new(cfg.seed, Stream::Spec, k))
        .collect();
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut window = CountWindow::default();
    let mut setup_s = Vec::new();
    let mut op_ms = Vec::new();
    let mut cycle_rate = Vec::new();
    let start = Instant::now();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || start.elapsed() < cfg.seconds {
        for _ in 0..SETUPS_PER_CYCLE {
            let (fresh, d) = timed(Setup::new);
            black_box(fresh);
            setup_s.push(d.as_secs_f64());
        }
        // Traced run: cycle 0 is the count window, then traced and
        // untraced cycles alternate for the overhead estimate.
        let counting = cfg.trace && cycle == 0;
        let traced = cfg.trace && cycle % 2 == 0;
        if let Some(t) = tracer.as_mut() {
            t.set(traced);
        }
        let specs: Vec<OtaSpecs> = (0..KINDS)
            .map(|k| jitter[k].specs(setup.plans[k / Case::ALL.len()].example_specs(), cycle))
            .collect();
        let cycle_start = Instant::now();
        for k in shuffled(KINDS, &mut rng(cfg.seed, Stream::Order, cycle)) {
            let t = k / Case::ALL.len();
            let case = Case::ALL[k % Case::ALL.len()];
            let op = || {
                let _span = losac_obs::span("bench.synth.op");
                timed(|| run_case_with(&setup.tech, &specs[k], case, &setup.case_options[t]))
            };
            let (result, d) = if counting { window.measure(op) } else { op() };
            report.op(result
                .err()
                .map(|e| format!("{}/{case} at {:?}: {e}", TOPOLOGIES[t], specs[k])));
            op_ms.push(ms(d));
            if let Some(tr) = tracer.as_mut() {
                tr.record(ms(d), counting);
            }
        }
        cycle_rate.push(KINDS as f64 / cycle_start.elapsed().as_secs_f64());
        if let (true, Some(t)) = (counting, tracer.as_ref()) {
            window.close(t);
        }
        cycle += 1;
        if cycle % PROBE_EVERY == 0 {
            probe.sample();
        }
    }
    probe.sample();
    report
        .notes
        .push(format!("{cycle} cycles, {} timed ops", op_ms.len()));

    match tracer {
        None => {
            report.metric("setup_s", median(&setup_s), "s");
            report.metric("op_ms_p50", median(&op_ms), "ms");
            report.metric("op_ms_p90", quantile(&op_ms, 0.9), "ms");
            report.metric("scen_per_s", median(&cycle_rate), "1/s");
            report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Some(mut tracer) => {
            tracer.set(false);
            let mut layers = Layers::default();
            layers.set_counts(&window);
            layers.set_span_times(&tracer);
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
