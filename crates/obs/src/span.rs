//! Hierarchical RAII spans with wall-clock timing.
//!
//! A span is entered with [`crate::span()`] and exited when the returned
//! guard drops. Nesting is tracked per thread; every record carries the
//! `>`-joined path of enclosing spans, so sinks can reconstruct the tree
//! without bookkeeping.

use crate::field::Field;
use crate::record::{now_us, Record, RecordKind};
use crate::sink;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Dense id of the current thread (1, 2, … in first-use order). Stable
/// for the thread's lifetime; used to de-interleave records emitted by
/// concurrent flows sharing one process.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

fn path_with(name: &'static str) -> String {
    STACK.with(|s| {
        let stack = s.borrow();
        let mut path = String::with_capacity(16 * (stack.len() + 1));
        for part in stack.iter() {
            path.push_str(part);
            path.push('>');
        }
        path.push_str(name);
        path
    })
}

pub(crate) fn current_path() -> String {
    STACK.with(|s| s.borrow().join(">"))
}

/// Set this thread's span stack aside until the guard drops: spans
/// entered meanwhile root at the top, as they would on a fresh thread.
/// A worker pool that runs a worker on the calling thread uses it, so
/// that worker's span paths are those of a spawned one.
pub fn detach() -> DetachGuard {
    DetachGuard {
        saved: STACK.with(|s| std::mem::take(&mut *s.borrow_mut())),
    }
}

/// Restores the span stack [`detach`] set aside, on drop.
#[must_use = "the span stack is restored when the guard drops"]
#[derive(Debug)]
pub struct DetachGuard {
    saved: Vec<&'static str>,
}

impl Drop for DetachGuard {
    fn drop(&mut self) {
        STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.saved));
    }
}

/// RAII guard for an entered span. Created by [`crate::span()`] /
/// [`crate::span_with`]; emits the `span_end` record (with elapsed time)
/// when dropped.
#[must_use = "a span guard that is dropped immediately times nothing"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    pub(crate) fn enter(name: &'static str, fields: Vec<Field>) -> Self {
        if !sink::active() {
            return SpanGuard { name, start: None };
        }
        let record = Record {
            t_us: now_us(),
            thread: thread_id(),
            kind: RecordKind::SpanStart,
            name,
            path: path_with(name),
            fields,
        };
        STACK.with(|s| s.borrow_mut().push(name));
        sink::dispatch(&record);
        SpanGuard {
            name,
            start: Some(Instant::now()),
        }
    }

    /// Span name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether this span is actually recording (a sink was installed at
    /// entry time).
    pub fn is_armed(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Pop unconditionally (the push happened at entry), dispatch even
        // if the sink list changed meanwhile — an empty list is a no-op.
        let path = current_path();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert_eq!(
                stack.last().copied(),
                Some(self.name),
                "unbalanced span nesting"
            );
            stack.pop();
        });
        sink::dispatch(&Record {
            t_us: now_us(),
            thread: thread_id(),
            kind: RecordKind::SpanEnd { elapsed_ns },
            name: self.name,
            path,
            fields: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::field::f;
    use std::sync::Arc;

    #[test]
    fn nesting_paths_and_timing() {
        let c = Collector::new();
        let guard = crate::install(Arc::new(c.clone()));
        {
            let _outer = crate::span("outer_span");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span_with("inner_span", vec![f("k", 1u64)]);
            }
        }
        drop(guard);
        let me = thread_id();
        let mine: Vec<_> = c.records().into_iter().filter(|r| r.thread == me).collect();
        let starts: Vec<_> = mine
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::SpanStart))
            .collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(starts[0].path, "outer_span");
        assert_eq!(starts[1].path, "outer_span>inner_span");
        let ends: Vec<_> = mine
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::SpanEnd { .. }))
            .collect();
        assert_eq!(ends.len(), 2);
        // Inner ends before outer; outer's elapsed covers the sleep.
        assert_eq!(ends[0].name, "inner_span");
        assert_eq!(ends[1].name, "outer_span");
        let RecordKind::SpanEnd { elapsed_ns } = ends[1].kind else {
            unreachable!()
        };
        assert!(elapsed_ns >= 2_000_000, "outer elapsed {elapsed_ns} ns");
    }

    #[test]
    fn a_detached_stack_roots_new_spans_and_comes_back() {
        let c = Collector::new();
        let guard = crate::install(Arc::new(c.clone()));
        {
            let _outer = crate::span("detach_outer");
            {
                let _detached = detach();
                assert_eq!(current_path(), "");
                let _inner = crate::span("detach_inner");
            }
            assert_eq!(current_path(), "detach_outer");
        }
        drop(guard);
        let me = thread_id();
        let inner: Vec<_> = c
            .records()
            .into_iter()
            .filter(|r| r.thread == me && r.name == "detach_inner")
            .map(|r| r.path)
            .collect();
        assert_eq!(inner, ["detach_inner", "detach_inner"]);
    }

    #[test]
    fn disarmed_without_sinks_is_balanced() {
        // No sink installed by this test: guards must not touch the stack.
        let depth_before = STACK.with(|s| s.borrow().len());
        {
            let g = SpanGuard {
                name: "idle",
                start: None,
            };
            assert!(!g.is_armed());
        }
        assert_eq!(STACK.with(|s| s.borrow().len()), depth_before);
    }
}
