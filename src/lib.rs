//! # losac — Layout-Oriented Synthesis of Analog Circuits
//!
//! A Rust reproduction of *"Layout-Oriented Synthesis of High Performance
//! Analog Circuits"* (M. Dessouky, M.-M. Louërat, J. Porte — DATE 2000):
//! a circuit-sizing tool and a procedural layout generator coupled in a
//! loop, so layout parasitics are estimated and compensated *during*
//! sizing instead of after it.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`tech`] | process description: layers, rules, parasitic coefficients, EM limits, MOS cards |
//! | [`device`] | the shared EKV-style MOS model, folding factors, noise, mismatch |
//! | [`layout`] | CAIRO-style procedural layout: rows, stacks, slicing, routing, extraction, DRC |
//! | [`sim`] | SPICE-class simulator: DC, AC, noise, transient, measurements |
//! | [`sizing`] | COMDIAC-style design plans, evaluation by simulation, statistics |
//! | [`flow`] | the layout-oriented synthesis loop, the Table-1 cases, the traditional baseline |
//! | [`engine`] | parallel batch synthesis: jobs, worker pool, sweeps, batch telemetry |
//! | [`obs`] | zero-dependency tracing/metrics: spans, counters, events, sinks (`LOSAC_LOG`) |
//! | [`serve`] | synthesis-as-a-service: the `losac-serve` daemon, JSONL wire protocol, client |
//!
//! ## Quickstart
//!
//! ```no_run
//! use losac::flow::flow::{layout_oriented_synthesis, FlowOptions};
//! use losac::sizing::{FoldedCascodePlan, OtaSpecs};
//! use losac::tech::Technology;
//!
//! let tech = Technology::cmos06();
//! let result = layout_oriented_synthesis(
//!     &tech,
//!     &OtaSpecs::paper_example(),
//!     &FoldedCascodePlan::default(),
//!     &FlowOptions::default(),
//! )?;
//! println!(
//!     "converged after {} layout calls; layout area {:.0} µm²",
//!     result.layout_calls,
//!     result.layout.area_m2() * 1e12
//! );
//! # Ok::<(), losac::flow::flow::FlowError>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios and
//! `EXPERIMENTS.md` for the paper-versus-measured record of every table
//! and figure.

/// The README's code samples, compiled and run as doctests of the facade.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use losac_core as flow;
pub use losac_device as device;
pub use losac_engine as engine;
pub use losac_layout as layout;
pub use losac_obs as obs;
pub use losac_serve as serve;
pub use losac_sim as sim;
pub use losac_sizing as sizing;
pub use losac_tech as tech;

/// The workspace-wide umbrella prelude: the entry points of the sizing
/// flow, the batch engine and the serving layer in one import, so
/// downstream code stops naming four crates.
///
/// ```no_run
/// use losac::prelude::*;
///
/// let tech = std::sync::Arc::new(Technology::cmos06());
/// let jobs = SweepBuilder::new(tech, OtaSpecs::paper_example())
///     .over_cases(Case::ALL)
///     .build();
/// let batch = Engine::new(EngineOptions::with_workers(0)).run_batch(jobs);
/// assert_eq!(batch.outcomes.len(), 4);
/// ```
pub mod prelude {
    pub use losac_core::cases::{
        run_case, run_case_with, Case, CaseError, CaseOptions, CaseOptionsBuilder, CaseResult,
    };
    pub use losac_core::flow::{layout_oriented_synthesis, FlowError, FlowOptions, FlowResult};
    pub use losac_core::layout_gen::LayoutOptions;
    pub use losac_engine::{
        BatchResult, CancelToken, DesignPointYield, Engine, EngineOptions, JobOutcome,
        MetricSpread, SpecAxis, SweepBuilder, SynthesisJob,
    };
    pub use losac_layout::slicing::ShapeConstraint;
    pub use losac_serve::{ServeClient, ServeOptions, Server};
    pub use losac_sizing::{
        EvalCache, EvalOptions, OtaSpecs, ParasiticMode, Performance, TopologyPlan,
        TopologyRegistry,
    };
    pub use losac_tech::{Corner, MismatchDraw, Pvt, Scenario, Technology};
}
