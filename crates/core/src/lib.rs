//! # losac-core — the layout-oriented synthesis flow
//!
//! The reproduction of the paper's contribution: circuit sizing and
//! layout generation coupled in a loop. The sizing tool
//! (`losac-sizing`) calls the layout tool (`losac-layout`) in
//! parasitic-calculation mode; the layout tool returns folding styles,
//! exact diffusion geometry and routing/coupling/well capacitance; the
//! sizing tool compensates; the loop repeats until the parasitics stop
//! changing, after which the layout tool runs once in generation mode.
//!
//! * [`flow`] — the convergence loop ([Fig. 1(b)]);
//! * [`traditional`] — the size→layout→extract→simulate baseline
//!   ([Fig. 1(a)]);
//! * [`cases`] — the four parasitic-awareness strategies of Table 1;
//! * [`layout_gen`] — layout-plan construction from any topology's
//!   declared layout spec and the report→feedback conversion;
//! * [`report`] — Table-1-style formatting;
//! * [`telemetry`] — per-run timing and solver-activity summary
//!   (`losac-obs` counter deltas), attached to every
//!   [`flow::FlowResult`].
//!
//! [Fig. 1(b)]: flow::layout_oriented_synthesis
//! [Fig. 1(a)]: traditional::traditional_flow
//!
//! The flow is topology-generic: it runs on any
//! [`losac_sizing::TopologyPlan`], selected directly or by name through
//! the [`losac_sizing::TopologyRegistry`]:
//!
//! ```no_run
//! use losac_core::flow::{layout_oriented_synthesis, FlowOptions};
//! use losac_sizing::TopologyRegistry;
//! use losac_tech::Technology;
//!
//! let tech = Technology::cmos06();
//! let registry = TopologyRegistry::builtin();
//! for name in ["folded_cascode", "telescopic", "two_stage"] {
//!     let plan = registry.get(name).expect("builtin topology");
//!     let result = layout_oriented_synthesis(
//!         &tech,
//!         &plan.example_specs(),
//!         plan.as_ref(),
//!         &FlowOptions::default(),
//!     )?;
//!     println!("{name}: converged after {} layout calls", result.layout_calls);
//! }
//! # Ok::<(), losac_core::flow::FlowError>(())
//! ```

pub mod cases;
pub mod flow;
pub mod layout_gen;
pub mod report;
pub mod telemetry;
pub mod traditional;

/// The run control: a run stops only through the
/// [`SimInterrupt`](interrupt::SimInterrupt) installed on its thread,
/// which the flow and the case runner poll at every phase boundary and
/// the solvers at every Newton iteration.
pub use losac_sim::interrupt;

pub use cases::{
    prepare_case, run_case, run_case_with, same_preparation, Case, CaseError, CaseOptions,
    CaseOptionsBuilder, CaseResult, PreparationCell, Preparations, PreparedCase,
};
pub use flow::{layout_oriented_synthesis, FlowError, FlowOptions, FlowResult};
pub use layout_gen::{to_feedback, topology_layout_plan, LayoutOptions};
pub use telemetry::FlowTelemetry;
pub use traditional::{traditional_flow, traditional_flow_with, TraditionalResult};

/// One-stop imports for driving the synthesis flow.
///
/// Pulls in the handful of types almost every caller needs — the
/// technology, the specification, the plan, the flow entry points and
/// their option/result types:
///
/// ```no_run
/// use losac_core::prelude::*;
///
/// let tech = Technology::cmos06();
/// let r = layout_oriented_synthesis(
///     &tech,
///     &OtaSpecs::paper_example(),
///     &FoldedCascodePlan::default(),
///     &FlowOptions::default(),
/// )?;
/// println!("{} layout calls", r.layout_calls);
/// # Ok::<(), FlowError>(())
/// ```
pub mod prelude {
    pub use crate::cases::{run_case, run_case_with, Case, CaseError, CaseOptions, CaseResult};
    pub use crate::flow::{layout_oriented_synthesis, FlowError, FlowOptions, FlowResult};
    pub use crate::layout_gen::{topology_layout_plan, LayoutOptions};
    pub use crate::traditional::{traditional_flow, traditional_flow_with};
    pub use losac_layout::slicing::ShapeConstraint;
    pub use losac_sizing::{
        FoldedCascodePlan, OtaSpecs, Performance, TelescopicPlan, Topology, TopologyPlan,
        TopologyRegistry, TwoStagePlan,
    };
    pub use losac_tech::Technology;
}
