//! Telemetry-pipeline integration: the span-tree profiler must see the
//! same call tree whether a batch runs on 1 worker or 4, the batch
//! telemetry must carry the job-latency distribution the progress stream
//! is built from, and every line of the JSONL stream must parse.
//!
//! Everything lives in one test function, run sequentially: sinks are
//! process-global, so two concurrently-profiled batches would pollute
//! each other's trees.

use losac::engine::{Engine, EngineOptions, SynthesisJob};
use losac::flow::prelude::{Case, OtaSpecs};
use losac::obs::{Collector, JsonlSink, Profiler, RecordKind};
use losac::serve::json::Value;
use losac::tech::Technology;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A byte buffer shared between a sink and the test that reads it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn jobs() -> Vec<SynthesisJob> {
    let tech = Arc::new(Technology::cmos06());
    Case::ALL
        .into_iter()
        .map(|c| SynthesisJob::new(tech.clone(), OtaSpecs::paper_example(), c))
        .collect()
}

/// Profile one batch run and return the engine-rooted call counts.
///
/// `engine.worker` is collapsed (the pool makes one wrapper span per
/// worker, so its count depends on the pool size by design), and the
/// descendants of `sizing.evaluate` are dropped: the batch-wide eval
/// cache answers a repeated evaluation from memory, and *which* worker
/// reaches a repeated evaluation first is a race — a hit skips the inner
/// simulator spans without changing any result. Everything else in the
/// tree must be identical at any worker count.
fn profiled_counts(workers: usize) -> (BTreeMap<String, u64>, losac::engine::BatchTelemetry) {
    let profiler = Profiler::collapse(&["engine.worker"]);
    let guard = losac::obs::install(Arc::new(profiler.clone()));
    let batch = Engine::new(EngineOptions::with_workers(workers)).run_batch(jobs());
    drop(guard);
    for o in &batch.outcomes {
        assert!(o.is_finished(), "job ended {}", o.status());
    }
    let counts = profiler
        .report()
        .call_counts()
        .into_iter()
        .filter(|(path, _)| path.starts_with("engine") && !path.contains("sizing.evaluate>"))
        .collect();
    (counts, batch.telemetry)
}

#[test]
fn profiler_tree_and_progress_telemetry_are_worker_count_invariant() {
    let (serial_counts, serial_tel) = profiled_counts(1);
    let (parallel_counts, parallel_tel) = profiled_counts(4);

    // The aggregated call tree (shape and call counts) is identical.
    assert!(!serial_counts.is_empty(), "profiler saw no engine spans");
    assert_eq!(serial_counts, parallel_counts);
    // Span paths are per-thread: `engine.batch` lives on the caller's
    // thread while jobs run inside (collapsed) `engine.worker` wrappers,
    // so jobs root at `engine.job` regardless of the worker count.
    assert_eq!(serial_counts.get("engine.batch"), Some(&1));
    assert_eq!(serial_counts.get("engine.job"), Some(&4));
    assert!(
        serial_counts.contains_key("engine.job>flow"),
        "flow spans nest under jobs: {serial_counts:?}"
    );

    // The batch telemetry carries a per-job latency histogram in both
    // runs: one observation per job, quantiles defined and ordered.
    for tel in [&serial_tel, &parallel_tel] {
        assert_eq!(tel.job_ms.count, 4);
        assert!(tel.job_ms.p50() > 0.0);
        assert!(tel.job_ms.p50() <= tel.job_ms.p90());
        assert!(tel.job_ms.p90() <= tel.job_ms.p99());
        let json = tel.to_json();
        assert!(json.contains("\"job_ms\":{\"count\":4,"), "{json}");
    }

    // The progress event stream: re-run one batch under a collector and
    // a JSONL sink, and check the engine event vocabulary a ProgressSink
    // consumes.
    let collector = Collector::new();
    let jsonl = SharedBuf::default();
    let guard = losac::obs::install(Arc::new(collector.clone()));
    let jsonl_guard = losac::obs::install(Arc::new(JsonlSink::new(jsonl.clone())));
    let batch = Engine::new(EngineOptions::with_workers(4)).run_batch(jobs());
    drop(jsonl_guard);
    drop(guard);
    assert!(batch.outcomes.iter().all(|o| o.is_finished()));
    // Every JSONL line parses and carries schema version 2, and the
    // stream holds the four engine events.
    let text = String::from_utf8(jsonl.0.lock().expect("buffer lock").clone()).expect("UTF-8");
    let mut names = BTreeSet::new();
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let record = Value::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}: {line}"));
        assert_eq!(record.get("v").and_then(Value::as_u64), Some(2), "{line}");
        if let Some(name) = record.get("name").and_then(Value::as_str) {
            names.insert(name.to_owned());
        }
    }
    for event in [
        "engine.batch.start",
        "engine.job.start",
        "engine.job.done",
        "engine.batch.done",
    ] {
        assert!(
            names.contains(event),
            "JSONL stream lacks {event}: {names:?}"
        );
    }
    let telemetry = Value::parse(&batch.telemetry.to_json()).expect("telemetry JSON");
    let job_ms = telemetry.get("job_ms").expect("job_ms");
    for key in ["p50", "p90", "p99"] {
        assert!(job_ms.get(key).is_some(), "job_ms lacks {key}");
    }
    assert_eq!(
        job_ms.get("count").and_then(Value::as_u64),
        Some(batch.outcomes.len() as u64)
    );
    // Job events fire on worker threads, so count across all threads.
    assert_eq!(collector.all_events("engine.batch.start").len(), 1);
    assert_eq!(collector.all_events("engine.job.start").len(), 4);
    let done = collector.all_events("engine.job.done");
    assert_eq!(done.len(), 4);
    for e in &done {
        assert_eq!(e.kind, RecordKind::Event);
        assert!(e.field("ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert_eq!(e.field("total").and_then(|v| v.as_u64()), Some(4));
        let d = e.field("done").and_then(|v| v.as_u64()).unwrap();
        assert!((1..=4).contains(&d));
        let rate = e
            .field("cache_hit_rate")
            .and_then(|v| v.as_f64())
            .expect("cache_hit_rate field");
        assert!((0.0..=1.0).contains(&rate), "hit rate {rate}");
    }
    let finals = collector.all_events("engine.batch.done");
    assert_eq!(finals.len(), 1);
    assert!(finals[0].field("wall_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
}
