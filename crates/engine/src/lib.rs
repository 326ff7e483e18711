//! # losac-engine — parallel batch synthesis with a job-oriented API
//!
//! The paper's headline is throughput: the whole sizing↔layout loop
//! finishes in minutes per circuit. This crate turns the single-run flow
//! into a **batch** substrate — run the losac flow N times with varied
//! inputs, fast — the access pattern behind batch-parallel sizing
//! exploration and layout-variant dataset generation:
//!
//! * [`SynthesisJob`] — every input of one run as one explicit value
//!   (technology, specs, plan, layout options, shape constraint, case,
//!   flow knobs, wall-clock budget), replacing the implicit defaults the
//!   old free-function API buried in `run_case`;
//! * [`Engine`] / [`EngineOptions`] — a std-only scoped-thread worker
//!   pool ([`pool`]), `workers = 0` meaning
//!   [`std::thread::available_parallelism`];
//! * [`Engine::run_batch`] — deterministic result ordering (outcomes are
//!   indexed by submission order regardless of completion order), per-job
//!   panic isolation ([`JobOutcome::Panicked`]), per-job wall-clock
//!   budgets ([`JobOutcome::TimedOut`]) and cooperative cancellation
//!   ([`CancelToken`], [`JobOutcome::Cancelled`]);
//! * [`RetryPolicy`] — opt-in retry of *transient* failures
//!   (non-convergence, singular systems, panics) with exponential
//!   backoff and deterministic jitter; recovered or exhausted jobs
//!   report [`JobOutcome::Degraded`], while permanent failures (invalid
//!   options, bad netlists, sizing/layout rejections) and budget stops
//!   are never retried. With the `failpoints` feature, per-job fault
//!   plans (`SynthesisJob::with_fail_plan`) drive the seeded chaos
//!   suite in `tests/chaos.rs`;
//! * [`SweepBuilder`] — cartesian job grids over cases, shape
//!   constraints, specification axes ([`SpecAxis`]) and *scenario* axes:
//!   process corners, temperatures, supply scales and seeded Monte-Carlo
//!   mismatch samples ([`SweepBuilder::corners`],
//!   [`SweepBuilder::temperatures`], [`SweepBuilder::supplies`],
//!   [`SweepBuilder::monte_carlo`]). Scenario jobs share a design-point
//!   key, and the engine folds their outcomes into per-point yield/Cpk
//!   statistics ([`DesignPointYield`]);
//! * [`BatchTelemetry`] — wall-clock, per-worker busy time and the
//!   measured speedup versus a serial run, on top of per-worker
//!   `losac-obs` spans (`engine.worker`, `engine.job`, `engine.batch`).
//!
//! ## Determinism
//!
//! A batch produces exactly the results a serial loop over the same jobs
//! would: every job is a pure function of its `SynthesisJob` inputs, and
//! `outcomes[i]` always corresponds to `jobs[i]`. The integration suite
//! pins this down to bit-identical performance numbers.
//!
//! ## Worker sizing
//!
//! Jobs are CPU-bound (device solves, matrix factorisations, layout
//! generation), so `workers = 0` (one thread per available core) is the
//! right default; more workers than cores only adds scheduling noise,
//! and more workers than jobs is clamped to the job count.

mod engine;
mod job;
pub mod pool;
mod sweep;
mod telemetry;

pub use engine::{BatchResult, CancelToken, Engine, EngineOptions, EngineOptionsBuilder};
pub use job::{JobOutcome, RetryPolicy, SynthesisJob};
pub use sweep::{SpecAxis, SweepBuilder};
pub use telemetry::{BatchTelemetry, DesignPointYield, MetricSpread};

pub use losac_tech::{Corner, MismatchDraw, Pvt, Scenario};
