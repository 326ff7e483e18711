//! In-memory sink for tests and benches.

use crate::record::{Record, RecordKind};
use crate::sink::Sink;
use std::sync::{Arc, Mutex};

/// Thread-safe in-memory record store. Clones share the same buffer, so
/// keep one clone and install the other:
///
/// ```
/// let collector = losac_obs::Collector::new();
/// let guard = losac_obs::install(std::sync::Arc::new(collector.clone()));
/// losac_obs::event("doc_event", &[]);
/// drop(guard);
/// assert!(collector.records().iter().any(|r| r.name == "doc_event"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Collector {
    records: Arc<Mutex<Vec<Record>>>,
}

impl Collector {
    /// Create an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of everything collected so far, in arrival order.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("collector poisoned").clone()
    }

    /// Records emitted by the calling thread (use to de-interleave
    /// concurrent tests sharing the process-global dispatcher).
    pub fn current_thread_records(&self) -> Vec<Record> {
        let me = crate::span::thread_id();
        self.records()
            .into_iter()
            .filter(|r| r.thread == me)
            .collect()
    }

    /// Completed spans (`span_end` records) with the given name, from
    /// the calling thread.
    pub fn spans(&self, name: &str) -> Vec<Record> {
        self.current_thread_records()
            .into_iter()
            .filter(|r| r.name == name && matches!(r.kind, RecordKind::SpanEnd { .. }))
            .collect()
    }

    /// Events with the given name, from the calling thread.
    pub fn events(&self, name: &str) -> Vec<Record> {
        self.current_thread_records()
            .into_iter()
            .filter(|r| r.name == name && matches!(r.kind, RecordKind::Event))
            .collect()
    }

    /// Events with the given name from *every* thread, in arrival order.
    /// Use for multi-threaded emitters like the batch engine, whose
    /// `engine.job.*` events fire on whichever thread runs the worker.
    pub fn all_events(&self, name: &str) -> Vec<Record> {
        self.records()
            .into_iter()
            .filter(|r| r.name == name && matches!(r.kind, RecordKind::Event))
            .collect()
    }

    /// Sum of counter deltas recorded for `name` on the calling thread.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.current_thread_records()
            .iter()
            .filter(|r| r.name == name)
            .filter_map(|r| match r.kind {
                RecordKind::Counter { delta, .. } => Some(delta),
                _ => None,
            })
            .sum()
    }

    /// Drop everything collected so far.
    pub fn clear(&self) {
        self.records.lock().expect("collector poisoned").clear();
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.lock().expect("collector poisoned").len()
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for Collector {
    fn record(&self, r: &Record) {
        self.records
            .lock()
            .expect("collector poisoned")
            .push(r.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::f;

    #[test]
    fn collects_spans_events_and_counters() {
        let c = Collector::new();
        let guard = crate::install(Arc::new(c.clone()));
        {
            let _s = crate::span("collector_test_span");
            crate::event("collector_test_event", &[f("x", 1.5)]);
        }
        static CNT: crate::Counter = crate::Counter::new("obs.test.collector");
        CNT.add(5);
        CNT.add(2);
        drop(guard);

        assert_eq!(c.spans("collector_test_span").len(), 1);
        let ev = c.events("collector_test_event");
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].field("x").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(ev[0].path, "collector_test_span>collector_test_event");
        assert_eq!(c.counter_sum("obs.test.collector"), 7);
        c.clear();
        assert!(c.is_empty());
    }
}
