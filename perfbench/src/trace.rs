//! Instruments of the traced run (`--trace 1`): a profiler sink for span
//! times, counter snapshots for exact work counts, and the per-layer
//! metric table. The untraced run never installs a sink, so its spans
//! stay disarmed.

use crate::measure::{median, Report};
use losac_obs::metrics::{snapshot, MetricsSnapshot};
use losac_obs::profile::ProfileReport;
use losac_obs::{FieldValue, Profiler, Record, RecordKind, Sink, SinkGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// workload that does not exercise a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("device.evals", "count"),
    ("device.transcendentals", "count"),
    ("sim.newton_iters", "count"),
    ("sim.dc_solves", "count"),
    ("sim.factorizations", "count"),
    ("sim.symbolic_analyses", "count"),
    ("sim.ac_points", "count"),
    ("sim.dc_ms", "ms"),
    ("sim.ac_ms", "ms"),
    ("sizing.size_ms", "ms"),
    ("sizing.evaluate_ms", "ms"),
    ("sizing.evaluates", "count"),
    ("sizing.cache_hit_ratio", "ratio"),
    ("sizing.disk_hits", "count"),
    ("sizing.cache_hit_us", "us"),
    ("layout.parasitic_calls", "count"),
    ("layout.generates", "count"),
    ("layout.parasitic_ms", "ms"),
    ("layout.verify_ms", "ms"),
    ("layout.shapes_ms", "ms"),
    ("layout.place_ms", "ms"),
    ("layout.route_ms", "ms"),
    ("layout.extract_ms", "ms"),
    ("core.flow_ms", "ms"),
    ("engine.utilization", "ratio"),
    ("engine.job_ms_p50", "ms"),
    ("engine.flows_per_point", "count"),
    ("engine.failed_jobs", "count"),
    ("serve.connect_ms", "ms"),
    ("serve.ping_us", "us"),
    ("serve.status_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("tech.derive_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans", "count"),
    ("host.ref_ms", "ms"),
];

/// Counter-based metrics: (metric, program counter). Per op over the
/// count window, so they repeat exactly at one seed.
const COUNTERS: &[(&str, &str)] = &[
    ("device.evals", "device.model.evals"),
    ("device.transcendentals", "device.model.transcendentals"),
    ("sim.newton_iters", "sim.dc.newton_iters"),
    ("sim.dc_solves", "sim.dc.solves"),
    ("sim.factorizations", "sim.matrix.factorizations"),
    ("sim.symbolic_analyses", "sim.matrix.symbolic_analyses"),
    ("sim.ac_points", "sim.ac.points"),
    ("layout.generates", "layout.generate.calls"),
    ("sizing.disk_hits", "sizing.eval.cache_disk_hit"),
];

/// Per-layer values of one traced run; [`Layers::emit`] fills the gaps
/// with 0 and emits them in table order.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    pub fn emit(self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    /// Work counts per op of the count window.
    pub fn set_counts(&mut self, window: &CountWindow) {
        let ops = window.ops.max(1) as f64;
        for (metric, counter) in COUNTERS {
            self.set(metric, window.counter(counter) as f64 / ops);
        }
        self.set(
            "layout.parasitic_calls",
            window.histogram_count("flow.layout_call.ms") as f64 / ops,
        );
        let (hits, misses) = (
            window.counter("sizing.eval.cache_hit"),
            window.counter("sizing.eval.cache_miss"),
        );
        // Uncached and missed evaluations both land in the latency
        // histogram; hits are counted on their own.
        self.set(
            "sizing.evaluates",
            (window.histogram_count("sizing.evaluate.ms") + hits) as f64 / ops,
        );
        if hits + misses > 0 {
            self.set(
                "sizing.cache_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
        }
        self.set("obs.spans", window.spans as f64 / ops);
    }

    /// Span times per traced op, from the profiler, and the tracing
    /// overhead: how much the median traced op time exceeds the untraced.
    pub fn set_span_times(&mut self, tracer: &Tracer) {
        let p = tracer.profile();
        let per_op = |ns: u64| ns as f64 / 1e6 / tracer.traced_ops.max(1) as f64;
        self.set(
            "obs.trace_overhead_pct",
            (median(&tracer.traced_ms) / median(&tracer.untraced_ms) - 1.0) * 100.0,
        );
        self.set("sim.dc_ms", per_op(self_ns(&p, "sim.dc.solve")));
        self.set("sim.ac_ms", per_op(self_ns(&p, "sim.ac.sweep")));
        self.set("sizing.size_ms", per_op(self_ns(&p, "sizing.size")));
        self.set("sizing.evaluate_ms", per_op(self_ns(&p, "sizing.evaluate")));
        self.set("core.flow_ms", per_op(self_ns(&p, "flow")));
        self.set(
            "layout.parasitic_ms",
            per_op(total_ns(&p, "flow.layout_call", |_| true)),
        );
        // The verification layout is the `layout.generate` the case runner
        // makes after the flow: the only one outside every `flow` span.
        self.set(
            "layout.verify_ms",
            per_op(total_ns(&p, "layout.generate", |path| {
                !path.iter().any(|s| s == "flow")
            })),
        );
        for (metric, span) in [
            ("layout.shapes_ms", "layout.shapes"),
            ("layout.place_ms", "layout.place"),
            ("layout.route_ms", "layout.route"),
            ("layout.extract_ms", "layout.extract"),
        ] {
            self.set(metric, per_op(total_ns(&p, span, |_| true)));
        }
    }
}

fn self_ns(p: &ProfileReport, name: &str) -> u64 {
    p.nodes
        .iter()
        .filter(|n| n.path.last().is_some_and(|s| s == name))
        .map(|n| n.self_ns)
        .sum()
}

fn total_ns(p: &ProfileReport, name: &str, keep: impl Fn(&[String]) -> bool) -> u64 {
    p.nodes
        .iter()
        .filter(|n| n.path.last().is_some_and(|s| s == name) && keep(&n.path))
        .map(|n| n.total_ns)
        .sum()
}

/// Counter deltas summed over the ops of a fixed, seed-determined
/// window — the first cycle of the traced run. Only the ops themselves
/// are diffed, so set-up samples and probes between them count nowhere.
#[derive(Default)]
pub struct CountWindow {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, u64>,
    pub ops: u64,
    /// Spans ended in the window (the tracer starts with it).
    pub spans: u64,
    /// `flow` spans ended in the window.
    pub flows: u64,
}

impl CountWindow {
    /// Run one op and add its counter deltas.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = snapshot();
        let out = f();
        self.add(&before, &snapshot());
        self.ops += 1;
        out
    }

    fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for (name, delta) in after.counters_since(before) {
            *self.counters.entry(name).or_default() += delta;
        }
        for (name, h) in &after.histograms {
            let earlier = before.histograms.get(name).map_or(0, |b| b.count);
            *self.histograms.entry(name).or_default() += h.count.saturating_sub(earlier);
        }
    }

    /// End the window: take the span counts the tracer has so far.
    pub fn close(&mut self, tracer: &Tracer) {
        self.spans = tracer.spans();
        self.flows = tracer
            .profile()
            .nodes
            .iter()
            .filter(|n| n.path.last().is_some_and(|s| s == "flow"))
            .map(|n| n.count)
            .sum();
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn histogram_count(&self, name: &str) -> u64 {
        self.histograms.get(name).copied().unwrap_or(0)
    }
}

/// A process-wide sink feeding a span-tree profiler, counting span ends
/// and keeping the `ms` of every `engine.job.done` event. Switched on
/// and off between ops so traced and untraced ops interleave.
pub struct Tracer {
    sink: Arc<BenchSink>,
    guard: Option<SinkGuard>,
    traced_ops: u64,
    /// Op times outside the count window, for the overhead estimate.
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

struct BenchSink {
    profiler: Profiler,
    spans: AtomicU64,
    job_ms: Mutex<Vec<f64>>,
}

impl Sink for BenchSink {
    fn record(&self, r: &Record) {
        match r.kind {
            RecordKind::SpanEnd { .. } => {
                self.spans.fetch_add(1, Ordering::Relaxed);
                self.profiler.record(r);
            }
            RecordKind::Event if r.name == "engine.job.done" => {
                let ms = r.fields.iter().find_map(|f| match f.value {
                    FieldValue::F64(v) if f.key == "ms" => Some(v),
                    _ => None,
                });
                if let Some(ms) = ms {
                    self.job_ms.lock().expect("job-ms lock poisoned").push(ms);
                }
            }
            _ => {}
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            sink: Arc::new(BenchSink {
                // Per-thread pool wrappers would make the tree depend on
                // the worker count.
                profiler: Profiler::collapse(&["engine.worker"]),
                spans: AtomicU64::new(0),
                job_ms: Mutex::new(Vec::new()),
            }),
            guard: None,
            traced_ops: 0,
            traced_ms: Vec::new(),
            untraced_ms: Vec::new(),
        }
    }

    /// Record one op's time, traced or not as the tracer is set now. The
    /// count window's ops are traced but kept out of the overhead estimate.
    pub fn record(&mut self, ms: f64, counting: bool) {
        if self.guard.is_none() {
            self.untraced_ms.push(ms);
            return;
        }
        self.traced_ops += 1;
        if !counting {
            self.traced_ms.push(ms);
        }
    }

    pub fn set(&mut self, on: bool) {
        if on && self.guard.is_none() {
            self.guard = Some(losac_obs::install(self.sink.clone()));
        } else if !on {
            self.guard = None;
        }
    }

    pub fn profile(&self) -> ProfileReport {
        self.sink.profiler.report()
    }

    pub fn spans(&self) -> u64 {
        self.sink.spans.load(Ordering::Relaxed)
    }

    pub fn job_ms(&self) -> Vec<f64> {
        self.sink
            .job_ms
            .lock()
            .expect("job-ms lock poisoned")
            .clone()
    }
}
