//! A std-only, crossbeam-free worker pool over scoped threads.
//!
//! Jobs are claimed from a shared [`Mutex`]-guarded [`VecDeque`] and
//! their results are written into per-submission-index slots, so the output
//! order is **always** the submission order regardless of which worker
//! finished first. Each job runs under [`std::panic::catch_unwind`]: a
//! panicking job yields [`PoolOutcome::Panicked`] and the worker moves on
//! to the next job — one bad job never poisons the pool.
//!
//! Cancellation is cooperative: the stop flag is re-checked before every
//! claim, so raising it lets in-flight jobs finish while everything still
//! queued comes back as [`PoolOutcome::Skipped`].
//!
//! Worker 0 is the calling thread, so a one-worker batch spawns no
//! thread. It runs in the context a spawned worker starts with: the
//! caller's span stack, fail plan and simulator interrupt are set aside
//! while it works and restored afterwards.

use losac_obs::f;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What happened to one submitted item.
#[derive(Debug)]
pub enum PoolOutcome<R> {
    /// The work function returned.
    Done(R),
    /// The work function panicked; the payload message is captured.
    Panicked(String),
    /// The stop flag was raised before this item was claimed.
    Skipped,
}

impl<R> PoolOutcome<R> {
    /// The result, if the work function returned.
    pub fn done(&self) -> Option<&R> {
        match self {
            PoolOutcome::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-worker activity summary.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Total wall-clock time this worker spent inside the work function.
    pub busy: Duration,
    /// Number of items this worker claimed.
    pub jobs: usize,
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

/// Run `work` over `items` on `workers` workers: the calling thread and
/// `workers - 1` scoped threads.
///
/// Returns one [`PoolOutcome`] per item **in submission order**, plus a
/// [`WorkerStats`] per worker. `workers` is clamped to `1..=items.len()`;
/// an empty batch returns immediately. The `stop` flag is checked before
/// every claim; items not yet claimed when it is raised come back
/// [`PoolOutcome::Skipped`].
pub fn run_indexed<T, R, F>(
    workers: usize,
    items: Vec<T>,
    stop: &AtomicBool,
    work: F,
) -> (Vec<PoolOutcome<R>>, Vec<WorkerStats>)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let workers = workers.clamp(1, n);
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Vec<Mutex<Option<PoolOutcome<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let stats: Vec<Mutex<WorkerStats>> = (0..workers)
        .map(|_| Mutex::new(WorkerStats::default()))
        .collect();

    let worker = |w: usize| {
        let _worker_span = losac_obs::span_with("engine.worker", vec![f("worker", w as u64)]);
        let mut local = WorkerStats::default();
        while !stop.load(Ordering::Relaxed) {
            let claimed = queue.lock().expect("queue lock poisoned").pop_front();
            let Some((i, item)) = claimed else {
                break;
            };
            let begun = Instant::now();
            let outcome = match catch_unwind(AssertUnwindSafe(|| work(i, item))) {
                Ok(r) => PoolOutcome::Done(r),
                Err(payload) => PoolOutcome::Panicked(panic_message(payload)),
            };
            local.busy += begun.elapsed();
            local.jobs += 1;
            *results[i].lock().expect("result lock poisoned") = Some(outcome);
        }
        *stats[w].lock().expect("stats lock poisoned") = local;
    };
    std::thread::scope(|s| {
        for w in 1..workers {
            s.spawn(move || worker(w));
        }
        let _spans = losac_obs::span::detach();
        let _plan = losac_obs::failpoint::suspend();
        let _interrupt = losac_core::interrupt::suspend();
        worker(0);
    });

    let outcomes = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result lock poisoned")
                .unwrap_or(PoolOutcome::Skipped)
        })
        .collect();
    let stats = stats
        .into_iter()
        .map(|s| s.into_inner().expect("stats lock poisoned"))
        .collect();
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn no_stop() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 4] {
            let items: Vec<u64> = (0..16).collect();
            let stop = no_stop();
            let (out, stats) = run_indexed(workers, items, &stop, |i, v| {
                // Earlier jobs sleep longer, so completion order is
                // roughly the reverse of submission order.
                std::thread::sleep(Duration::from_millis(8u64.saturating_sub(i as u64 / 2)));
                v * 10
            });
            let got: Vec<u64> = out.iter().map(|o| *o.done().unwrap()).collect();
            let want: Vec<u64> = (0..16).map(|v| v * 10).collect();
            assert_eq!(got, want, "{workers} workers");
            assert_eq!(stats.len(), workers.min(16));
            assert_eq!(stats.iter().map(|s| s.jobs).sum::<usize>(), 16);
        }
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_pool() {
        let items: Vec<u32> = (0..8).collect();
        let stop = no_stop();
        let (out, _) = run_indexed(4, items, &stop, |_, v| {
            assert!(v != 3, "job {v} exploded");
            v
        });
        for (i, o) in out.iter().enumerate() {
            if i == 3 {
                match o {
                    PoolOutcome::Panicked(msg) => {
                        assert!(msg.contains("job 3 exploded"), "{msg}")
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(*o.done().unwrap(), i as u32);
            }
        }
    }

    #[test]
    fn raising_the_stop_flag_skips_pending_jobs() {
        // One worker, sequential claims: job 0 raises the flag, so jobs
        // 1.. must never run.
        let stop = no_stop();
        let ran = AtomicUsize::new(0);
        let (out, _) = run_indexed(1, vec![0, 1, 2, 3], &stop, |i, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                stop.store(true, Ordering::Relaxed);
            }
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert!(matches!(out[0], PoolOutcome::Done(0)));
        for o in &out[1..] {
            assert!(matches!(o, PoolOutcome::Skipped), "{o:?}");
        }
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let stop = no_stop();
        let (out, stats) = run_indexed::<u32, u32, _>(4, vec![], &stop, |_, v| v);
        assert!(out.is_empty());
        assert!(stats.is_empty());
    }

    #[test]
    fn worker_0_is_the_calling_thread_in_a_fresh_context() {
        use losac_core::interrupt::{self, Interrupted, SimInterrupt};
        use losac_obs::failpoint::{self, FailAction, FailPlan};
        use losac_obs::{Collector, RecordKind};
        use std::sync::Arc;

        let collector = Collector::new();
        let sink = losac_obs::install(Arc::new(collector.clone()));
        let _plan =
            failpoint::install(FailPlan::new().always("engine.test.caller", FailAction::Fail));
        let _interrupt =
            interrupt::install(SimInterrupt::new().with_stop(Arc::new(AtomicBool::new(true))));
        let caller = std::thread::current().id();
        let stop = no_stop();
        {
            let _batch = losac_obs::span("engine.test.batch");
            let (out, stats) = run_indexed(1, vec![0], &stop, |_, _| {
                let _job = losac_obs::span("engine.test.job");
                (
                    std::thread::current().id(),
                    failpoint::hit("engine.test.caller"),
                    interrupt::poll().is_ok(),
                )
            });
            assert_eq!(stats.len(), 1);
            let (thread, fired, no_interrupt) = *out[0].done().expect("the job ran");
            assert_eq!(thread, caller, "a one-worker batch runs on the caller");
            assert_eq!(fired, None, "the caller's fail plan is set aside");
            assert!(no_interrupt, "the caller's interrupt is set aside");
            // Restored afterwards: the span stack, the plan, the interrupt.
            let _after = losac_obs::span("engine.test.after");
        }
        drop(sink);
        assert_eq!(failpoint::hit("engine.test.caller"), Some(FailAction::Fail));
        assert_eq!(interrupt::poll(), Err(Interrupted::Cancelled));
        let me = losac_obs::thread_id();
        let paths: Vec<String> = collector
            .records()
            .into_iter()
            .filter(|r| r.thread == me && matches!(r.kind, RecordKind::SpanStart))
            .map(|r| r.path)
            .filter(|p| p.contains("engine.test"))
            .collect();
        assert_eq!(
            paths,
            [
                "engine.test.batch",
                "engine.worker>engine.test.job",
                "engine.test.batch>engine.test.after"
            ]
        );
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let stop = no_stop();
        let (out, stats) = run_indexed(16, vec![1, 2], &stop, |_, v| v + 1);
        assert_eq!(out.iter().filter_map(|o| o.done()).count(), 2);
        assert_eq!(stats.len(), 2);
    }
}
