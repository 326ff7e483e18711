//! The engine: a configured worker pool that runs [`SynthesisJob`]
//! batches.

use crate::job::{JobOutcome, SynthesisJob};
use crate::pool::{panic_message, run_indexed, PoolOutcome};
use crate::telemetry::{collect_design_points, BatchTelemetry, YieldRow};
use losac_core::cases::{prepare_case, CaseError, Preparations};
use losac_core::flow::FlowError;
use losac_core::interrupt::{self, SimInterrupt};
use losac_obs::{f, Counter, Histogram, HistogramCore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-job wall-clock time, across all batches (milliseconds).
static ENGINE_JOB_MS: Histogram = Histogram::new("engine.job.ms");
/// The sizing crate's cache counters, resolved by name to the same
/// registry slots — read here to report a running hit rate on
/// `engine.job.done` events. Process-global, so concurrent batches see
/// each other's deltas (same approximation the flow telemetry makes).
static EVAL_CACHE_HITS: Counter = Counter::new("sizing.eval.cache_hit");
static EVAL_CACHE_MISSES: Counter = Counter::new("sizing.eval.cache_miss");

/// Whether a job may share its case preparation with other jobs. A job
/// with its own budget prepares alone, so no job's budget can stop
/// another job's flow; so does a job with a fault plan, whose faults
/// must fire on its own thread.
fn shares_preparation(job: &SynthesisJob) -> bool {
    job.fail_plan.is_none() && job.budget.is_none()
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct EngineOptions {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Shared evaluation cache. `None` (the default, and the historical
    /// behaviour) gives each batch a fresh in-memory cache; a daemon
    /// passes one cache — possibly disk-backed via
    /// [`losac_sizing::EvalCache::persistent`] — so hits carry across
    /// batches and restarts. Memoisation is bitwise-neutral either way.
    pub cache: Option<Arc<losac_sizing::EvalCache>>,
    /// Shared case-preparation memo. `None` (the default) gives each
    /// batch a fresh memo; a daemon passes one memo, so a reused design
    /// point skips its sizing and layout calls across batches. Sharing
    /// is bitwise-neutral either way.
    pub preparations: Option<Arc<Preparations>>,
    /// Batch-wide absolute deadline, merged under each job's own budget
    /// via [`SimInterrupt::with_deadline_earliest`]: jobs past it stop at
    /// their next phase boundary as [`JobOutcome::TimedOut`]. `None`
    /// means no batch deadline.
    pub deadline: Option<Instant>,
}

impl EngineOptions {
    /// Options with an explicit worker count (`0` = auto) and every
    /// other field at its default. The struct is `#[non_exhaustive]`, so
    /// downstream crates start from this or [`EngineOptions::default`]
    /// and assign the remaining fields.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// A handle that cancels the batch it was taken from. Raising it stops
/// pending jobs before they start and in-flight jobs at their next phase
/// boundary (which then report [`JobOutcome::Cancelled`]).
#[derive(Debug, Clone)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Raise the stop flag.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The outcome of one batch: per-job outcomes in submission order, plus
/// batch telemetry.
#[derive(Debug)]
pub struct BatchResult {
    /// One outcome per submitted job, indexed by submission order —
    /// **not** completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Wall-clock / worker-utilisation summary of the batch.
    pub telemetry: BatchTelemetry,
}

/// Parallel batch-synthesis engine.
///
/// ```no_run
/// use losac_engine::{Engine, EngineOptions, SynthesisJob};
/// use losac_core::prelude::*;
/// use std::sync::Arc;
///
/// let tech = Arc::new(Technology::cmos06());
/// let jobs: Vec<SynthesisJob> = Case::ALL
///     .into_iter()
///     .map(|c| SynthesisJob::new(tech.clone(), OtaSpecs::paper_example(), c))
///     .collect();
/// let batch = Engine::new(EngineOptions::with_workers(4)).run_batch(jobs);
/// for (i, o) in batch.outcomes.iter().enumerate() {
///     println!("job {i}: {}", o.status());
/// }
/// ```
#[derive(Debug)]
pub struct Engine {
    opts: EngineOptions,
    stop: Arc<AtomicBool>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineOptions::default())
    }
}

impl Engine {
    /// Build an engine from options.
    pub fn new(opts: EngineOptions) -> Self {
        Self {
            opts,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A token that cancels batches run by this engine. Tokens stay
    /// valid across `run_batch` calls (the flag is engine-scoped).
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken(self.stop.clone())
    }

    /// The worker count a batch would run with.
    pub fn workers(&self) -> usize {
        self.opts.resolved_workers()
    }

    /// Run a batch of jobs to completion.
    ///
    /// Guarantees:
    /// * `outcomes[i]` corresponds to `jobs[i]` — results are indexed by
    ///   submission order regardless of completion order;
    /// * a job that panics yields [`JobOutcome::Panicked`] without
    ///   affecting any other job;
    /// * a job whose [`SynthesisJob::budget`] elapses yields
    ///   [`JobOutcome::TimedOut`] at its next phase boundary;
    /// * after [`CancelToken::cancel`], jobs not yet started yield
    ///   [`JobOutcome::Cancelled`] and in-flight jobs stop at their next
    ///   phase boundary;
    /// * every job runs once: a job is a pure function of its inputs, so
    ///   a second run would fail the same way;
    /// * jobs whose flow inputs are exactly equal (same plan `Arc`,
    ///   equal technology, case, layout options, shape and call budget,
    ///   bitwise-equal specification and tolerance; see
    ///   [`losac_core::cases::same_preparation`]) and that carry no
    ///   budget or fault plan of their own share one case preparation
    ///   ([`losac_core::cases::prepare_case`]) through the batch's
    ///   [`Preparations`] memo, run at most once per batch; every job
    ///   then measures its own scenario from it, with the outcome a lone
    ///   run of that job would give ([`BatchTelemetry::prepared`] counts
    ///   the preparations);
    /// * outcomes are a pure function of (jobs, cancellation): the
    ///   worker count never changes what comes back, only how fast.
    pub fn run_batch(&self, jobs: Vec<SynthesisJob>) -> BatchResult {
        let n = jobs.len();
        let workers = self.opts.resolved_workers().clamp(1, n.max(1));
        let _span = losac_obs::span_with(
            "engine.batch",
            vec![f("jobs", n as u64), f("workers", workers as u64)],
        );
        losac_obs::event(
            "engine.batch.start",
            &[f("jobs", n as u64), f("workers", workers as u64)],
        );
        let started = Instant::now();
        // Live-progress state: jobs currently inside a worker, jobs
        // completed, the batch's own latency distribution, and the cache
        // counters at batch start (for a running hit rate).
        let busy = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let batch_job_ms = HistogramCore::new();
        let cache_base = (EVAL_CACHE_HITS.get(), EVAL_CACHE_MISSES.get());
        let job_times: Vec<std::sync::Mutex<Duration>> = (0..n)
            .map(|_| std::sync::Mutex::new(Duration::ZERO))
            .collect();
        // Per-job yield metadata, captured before the pool consumes the
        // jobs: the design-point key and the spec limits the scenario
        // runs are accepted against.
        let yield_meta: Vec<(Option<String>, f64, f64)> = jobs
            .iter()
            .map(|j| (j.design_point.clone(), j.specs.gbw, j.specs.phase_margin))
            .collect();
        // One evaluation cache for the whole batch: jobs that reach an
        // identical (sizing, parasitic-mode) evaluation — common when a
        // sweep varies a knob the sizing is insensitive to, or when the
        // synthesized and extracted measurements coincide — reuse the
        // stored result. Memoisation is bitwise-neutral, so outcomes are
        // unchanged; `sizing.eval.cache_hit` counts what it saved. A
        // cache passed through `EngineOptions::cache` (the daemon's
        // shared, possibly disk-backed one) is used as-is so hits carry
        // across batches; otherwise each batch gets a fresh one.
        let eval_cache = self
            .opts
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(losac_sizing::EvalCache::new()));
        // The cache renders each job technology's key segment once.
        for job in &jobs {
            eval_cache.hold_technology(&job.tech);
        }
        // One case preparation per distinct flow input: the first job to
        // reach its memo cell runs the sizing, the flow and the
        // verification layout, later ones wait for it (or find it kept
        // from an earlier batch), and every job measures from the stored
        // result. Errors are stored and shared; a panic is not, so a job
        // waiting on a cell whose preparation panicked prepares again and
        // panics on its own. Outcomes are unchanged, because the
        // preparation is a pure function of the inputs that key it.
        let memo = self.opts.preparations.clone().unwrap_or_default();
        let prepared = AtomicU64::new(0);

        let (pool_out, stats) = run_indexed(workers, jobs, &self.stop, |i, job: SynthesisJob| {
            let _job_span = losac_obs::span_with(
                "engine.job",
                vec![f("job", i as u64), f("label", job.label.as_str())],
            );
            let busy_now = busy.fetch_add(1, Ordering::Relaxed) + 1;
            let done_now = done.load(Ordering::Relaxed);
            losac_obs::event(
                "engine.job.start",
                &[
                    f("job", i as u64),
                    f("label", job.label.as_str()),
                    f("busy", busy_now as u64),
                    f("queued", n.saturating_sub(done_now + busy_now) as u64),
                ],
            );
            let begun = Instant::now();
            // The job's one run control: the batch's stop flag and the
            // earlier of the job's budget and the batch deadline. The
            // flow, the case runner and every Newton iteration poll it.
            let mut control = SimInterrupt::new().with_stop(self.stop.clone());
            if let Some(b) = job.budget {
                control = control.with_deadline(begun + b);
            }
            if let Some(d) = self.opts.deadline {
                control = control.with_deadline_earliest(d);
            }
            let _interrupt = interrupt::install(control);
            let _fail_guard = job.fail_plan.clone().map(losac_obs::failpoint::install);
            // The job's own catch_unwind lets a panicking job reach the
            // bookkeeping below; the pool's stays as a backstop for this
            // orchestration code itself.
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut opts = job.options.clone();
                opts.eval.cache = Some(eval_cache.clone());
                let prepare = || {
                    prepared.fetch_add(1, Ordering::Relaxed);
                    prepare_case(&job.tech, &job.specs, job.case, &opts)
                };
                // A shared preparation runs under the batch's stop flag
                // and deadline only: shareable jobs carry no budget of
                // their own.
                if !shares_preparation(&job) {
                    return prepare()?.measure(&job.tech, &opts);
                }
                match memo
                    .cell(&job.tech, &job.specs, job.case, &opts)
                    .get_or_init(prepare)
                {
                    Ok(case) => case.measure(&job.tech, &opts),
                    Err(e) => Err(e.clone()),
                }
            }));
            let outcome = match run {
                Ok(Ok(res)) => JobOutcome::Finished(Box::new(res)),
                Ok(Err(CaseError::Flow(FlowError::TimedOut))) => JobOutcome::TimedOut,
                Ok(Err(CaseError::Flow(FlowError::Cancelled))) => JobOutcome::Cancelled,
                Ok(Err(e)) => JobOutcome::Failed(e),
                Err(payload) => JobOutcome::Panicked(panic_message(payload)),
            };
            let elapsed = begun.elapsed();
            *job_times[i].lock().expect("job time lock poisoned") = elapsed;
            ENGINE_JOB_MS.observe_duration(elapsed);
            batch_job_ms.observe_duration(elapsed);
            let done_now = done.fetch_add(1, Ordering::Relaxed) + 1;
            let busy_now = busy.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
            let (hits, misses) = (
                EVAL_CACHE_HITS.get().saturating_sub(cache_base.0),
                EVAL_CACHE_MISSES.get().saturating_sub(cache_base.1),
            );
            let cache_hit_rate = if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            };
            losac_obs::event(
                "engine.job.done",
                &[
                    f("job", i as u64),
                    f("status", outcome.status()),
                    f("ms", elapsed.as_secs_f64() * 1e3),
                    f("done", done_now as u64),
                    f("total", n as u64),
                    f("busy", busy_now as u64),
                    f("cache_hit_rate", cache_hit_rate),
                ],
            );
            outcome
        });

        memo.end_batch();
        let outcomes: Vec<JobOutcome> = pool_out
            .into_iter()
            .map(|o| match o {
                PoolOutcome::Done(outcome) => outcome,
                PoolOutcome::Panicked(msg) => JobOutcome::Panicked(msg),
                PoolOutcome::Skipped => JobOutcome::Cancelled,
            })
            .collect();

        let serial_estimate = job_times
            .iter()
            .map(|t| *t.lock().expect("job time lock poisoned"))
            .sum();
        // Yield/Cpk aggregation over the scenario runs of each design
        // point, in submission order — the fold is a pure function of
        // (jobs, outcomes), so the statistics are bitwise identical at
        // any worker count.
        let yield_rows: Vec<YieldRow> = yield_meta
            .into_iter()
            .zip(&outcomes)
            .map(|((point, lsl_gbw, lsl_pm), outcome)| {
                let measured = outcome
                    .result()
                    .map(|r| (r.extracted.gbw, r.extracted.phase_margin));
                (point, lsl_gbw, lsl_pm, measured)
            })
            .collect();
        let design_points = collect_design_points(&yield_rows);
        for dp in &design_points {
            losac_obs::event(
                "engine.yield",
                &[
                    f("design_point", dp.design_point.as_str()),
                    f("scenarios", dp.scenarios as u64),
                    f("passed", dp.passed as u64),
                    f("yield", dp.yield_fraction()),
                ],
            );
        }
        let telemetry = BatchTelemetry {
            jobs: n,
            workers: stats.len(),
            wall: started.elapsed(),
            worker_busy: stats.iter().map(|s| s.busy).collect(),
            worker_jobs: stats.iter().map(|s| s.jobs).collect(),
            serial_estimate,
            prepared: prepared.into_inner(),
            job_ms: batch_job_ms.snapshot(),
            design_points,
        };
        losac_obs::event(
            "engine.batch.done",
            &[
                f("jobs", n as u64),
                f("wall_ms", telemetry.wall.as_secs_f64() * 1e3),
                f("speedup", telemetry.speedup()),
            ],
        );
        BatchResult {
            outcomes,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_core::prelude::{Case, CaseOptions, OtaSpecs};
    use losac_tech::Technology;

    fn paper_job(case: Case) -> SynthesisJob {
        SynthesisJob::new(
            Arc::new(Technology::cmos06()),
            OtaSpecs::paper_example(),
            case,
        )
    }

    /// A copy of `job` with `edit` applied to its case options.
    fn edited(job: &SynthesisJob, edit: impl FnOnce(&mut CaseOptions)) -> SynthesisJob {
        let mut job = job.clone();
        edit(&mut job.options);
        job
    }

    #[test]
    fn the_memo_keys_on_every_flow_input() {
        use losac_layout::slicing::ShapeConstraint;
        use losac_sizing::FoldedCascodePlan;
        use losac_tech::{Corner, Scenario};
        let base = edited(&paper_job(Case::AllParasitics), |o| {
            o.plan = Arc::new(FoldedCascodePlan::default());
        });
        let mut next_gbw = base.clone();
        next_gbw.specs.gbw = f64::from_bits(base.specs.gbw.to_bits() + 1);
        let jobs = vec![
            // Scenario and design-point label play no part.
            edited(&base, |o| o.eval.scenario = Scenario::corner(Corner::Slow))
                .with_design_point("a"),
            base.clone().with_design_point("b"),
            // An equal technology behind another `Arc` shares too.
            SynthesisJob {
                tech: Arc::new(Technology::cmos06()),
                ..base.clone()
            },
            // One ulp of GBW under the same label is another cell.
            next_gbw.clone().with_design_point("a"),
            next_gbw,
            // Each of these differs in one flow input, or carries its
            // own budget, and shares with no other job.
            edited(&base, |o| o.plan = Arc::new(FoldedCascodePlan::default())),
            base.clone().with_budget(Duration::from_secs(60)),
            edited(&base, |o| o.tolerance = 0.03),
            edited(&base, |o| o.max_layout_calls = 4),
            edited(&base, |o| o.shape = ShapeConstraint::Aspect(1.0)),
            SynthesisJob {
                case: Case::ExactDiffusion,
                ..base.clone()
            },
        ];
        // The cells `run_batch` hands each job, numbered by first use.
        let memo = Preparations::default();
        let mut cells: Vec<losac_core::cases::PreparationCell> = Vec::new();
        let cell_of: Vec<Option<usize>> = jobs
            .iter()
            .map(|job| {
                shares_preparation(job).then(|| {
                    let cell = memo.cell(&job.tech, &job.specs, job.case, &job.options);
                    cells
                        .iter()
                        .position(|c| Arc::ptr_eq(c, &cell))
                        .unwrap_or_else(|| {
                            cells.push(cell);
                            cells.len() - 1
                        })
                })
            })
            .collect();
        let want = [
            Some(0),
            Some(0),
            Some(0),
            Some(1),
            Some(1),
            Some(2),
            None,
            Some(3),
            Some(4),
            Some(5),
            Some(6),
        ];
        assert_eq!(cell_of, want);
        assert_eq!(memo.len(), 7);
    }

    #[test]
    fn zero_budget_jobs_time_out_without_poisoning_the_batch() {
        // Job 0 has an already-expired budget; job 1 must still finish.
        let jobs = vec![
            paper_job(Case::NoParasitics).with_budget(Duration::ZERO),
            paper_job(Case::NoParasitics),
        ];
        let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
        assert!(matches!(batch.outcomes[0], JobOutcome::TimedOut));
        assert!(
            batch.outcomes[1].is_finished(),
            "{:?}",
            batch.outcomes[1].status()
        );
        assert_eq!(batch.telemetry.jobs, 2);
    }

    #[test]
    fn a_cancelled_engine_reports_every_job_cancelled() {
        let engine = Engine::new(EngineOptions::with_workers(2));
        engine.cancel_token().cancel();
        let batch = engine.run_batch(vec![
            paper_job(Case::NoParasitics),
            paper_job(Case::UnfoldedDiffusion),
            paper_job(Case::AllParasitics),
        ]);
        assert_eq!(batch.outcomes.len(), 3);
        for o in &batch.outcomes {
            assert!(matches!(o, JobOutcome::Cancelled), "{}", o.status());
        }
    }

    #[test]
    fn empty_batch() {
        let batch = Engine::default().run_batch(vec![]);
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.telemetry.jobs, 0);
        assert_eq!(batch.telemetry.speedup(), 1.0);
    }

    #[test]
    fn an_invalid_netlist_is_a_typed_failure_not_a_panic() {
        // A NaN load capacitance used to trip an assert deep in the
        // netlist builder and panic the worker; it must now surface as
        // a typed failure.
        let mut bad = OtaSpecs::paper_example();
        bad.c_load = f64::NAN;
        let jobs = vec![
            SynthesisJob::new(Arc::new(Technology::cmos06()), bad, Case::NoParasitics),
            paper_job(Case::NoParasitics),
        ];
        let batch = Engine::new(EngineOptions::with_workers(1)).run_batch(jobs);
        assert!(
            matches!(batch.outcomes[0], JobOutcome::Failed(_)),
            "expected a typed failure, got {}",
            batch.outcomes[0].status()
        );
        assert!(batch.outcomes[1].is_finished());
    }
}
