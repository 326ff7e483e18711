//! # losac-obs — zero-dependency tracing and metrics for the synthesis flow
//!
//! The sizing↔layout loop is the paper's whole argument ("three calls of
//! the layout tool … under two minutes"); this crate makes that loop —
//! and every layer under it — observable at runtime without adding a
//! single external dependency:
//!
//! * **Spans** ([`span()`], [`span_with`]) — hierarchical RAII guards with
//!   wall-clock timing; nesting is tracked per thread and every record
//!   carries its span path.
//! * **Events** ([`event`]) — point-in-time records with typed fields
//!   ([`Field`], [`FieldValue`], the [`f`] shorthand).
//! * **Metrics** ([`Counter`], [`Gauge`], [`metrics::snapshot`]) —
//!   process-global atomics, declared as statics next to the code they
//!   instrument.
//! * **Sinks** ([`Sink`], [`install`]) — a pretty stderr printer
//!   ([`PrettySink`]), a JSONL file writer ([`JsonlSink`]) and a
//!   thread-safe in-memory [`Collector`] for tests and benches.
//! * **Fail points** ([`failpoint`]) — named thread-local
//!   fault-injection sites the chaos suite uses to drive the engine
//!   through synthetic failures; an unarmed site costs one relaxed load.
//!
//! ## Zero cost when idle
//!
//! With no sink installed, every instrumentation site reduces to one
//! relaxed atomic load (spans/events) or one atomic add (counters): no
//! clocks, no allocation, no locks. The whole layer adds well under 1 %
//! to the default flow — asserted by the overhead smoke test in the
//! `losac` integration suite.
//!
//! ## Environment control
//!
//! The first instrumented call reads `LOSAC_LOG` once:
//!
//! | value | effect |
//! |---|---|
//! | unset / `off` | nothing (default) |
//! | `pretty` | indented human-readable lines on stderr |
//! | `jsonl` | one JSON record per line to `LOSAC_LOG_FILE` (default `losac_run.jsonl`) |
//!
//! ## Example
//!
//! ```
//! use losac_obs as obs;
//! use std::sync::Arc;
//!
//! let collector = obs::Collector::new();
//! let guard = obs::install(Arc::new(collector.clone()));
//! {
//!     let _call = obs::span_with("layout_call", vec![obs::f("call", 1u64)]);
//!     obs::event("parasitic_change", &[obs::f("change", 0.013)]);
//! }
//! drop(guard);
//! assert_eq!(collector.spans("layout_call").len(), 1);
//! ```

pub mod collector;
pub mod failpoint;
pub mod field;
pub mod histogram;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod pretty;
pub mod profile;
pub mod progress;
pub mod record;
pub mod sink;
pub mod span;

pub use collector::Collector;
pub use field::{f, Field, FieldValue};
pub use histogram::{Histogram, HistogramCore, HistogramSnapshot};
pub use jsonl::JsonlSink;
pub use metrics::{Counter, Gauge, MetricsSnapshot};
pub use pretty::PrettySink;
pub use profile::Profiler;
pub use progress::{ProgressMode, ProgressSink};
pub use record::{Record, RecordKind, SCHEMA_VERSION};
pub use sink::{active, flush_all, init_from_env, install, Sink, SinkGuard};
pub use span::{thread_id, SpanGuard};

/// Enter a span. The span ends (and its `span_end` record, carrying the
/// elapsed wall-clock time, is emitted) when the guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name, Vec::new())
}

/// Enter a span with fields attached to its `span_start` record.
///
/// The `fields` vector is only meaningful while a sink is installed, but
/// it is evaluated by the caller either way — keep construction cheap on
/// hot paths (numeric fields do not allocate).
#[inline]
pub fn span_with(name: &'static str, fields: Vec<Field>) -> SpanGuard {
    SpanGuard::enter(name, fields)
}

/// Emit a structured event at the current span position.
#[inline]
pub fn event(name: &'static str, fields: &[Field]) {
    if !sink::active() {
        return;
    }
    sink::dispatch(&Record {
        t_us: record::now_us(),
        thread: span::thread_id(),
        kind: RecordKind::Event,
        name,
        path: {
            let parent = span::current_path();
            if parent.is_empty() {
                name.to_owned()
            } else {
                format!("{parent}>{name}")
            }
        },
        fields: fields.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_are_cheap_and_silent() {
        // No sink installed by this test: spans stay disarmed and events
        // vanish. (Another test's sink may be active concurrently, in
        // which case armed spans are fine — only assert the no-sink case.)
        let s = span("lib_test_idle");
        if !active() {
            assert!(!s.is_armed());
        }
        drop(s);
        event("lib_test_idle_event", &[f("x", 1u64)]);
    }
}
