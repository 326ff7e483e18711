//! # losac-layout — procedural analog layout generation (CAIRO-style)
//!
//! The layout half of the layout-oriented synthesis flow: a procedural
//! layout generator in the spirit of the paper's CAIRO language, fast
//! enough to be called repeatedly *inside* the circuit-sizing loop.
//!
//! * [`geom`] / [`cell`] — integer-nanometre geometry and flattened
//!   layout cells with net-tagged shapes;
//! * [`row`] — the transistor-row engine: folded transistors with
//!   diffusion sharing, EM-sized contacts/straps/rails, poly gate bars;
//! * [`stack`] — matched stacks (Malavasi/Pandini-style): symmetric
//!   interleaving, dummies, current-direction balancing — the paper's
//!   Fig. 3;
//! * [`shape`] / [`slicing`] — shape functions and slicing-tree area
//!   optimisation under a global shape constraint;
//! * [`route`] — reliability-driven channel routing;
//! * [`extract`] — geometric parasitic extraction (wire, coupling, well);
//! * [`drc`] — design-rule checking of generated geometry;
//! * [`guard`] — guard rings / substrate & well taps (latch-up rules);
//! * [`plan`] — the plan-level "language": declare devices, stacks and a
//!   slicing structure, then run in *parasitic-calculation* or
//!   *generation* mode;
//! * [`export`] — SVG and text dumps.
//!
//! ```
//! use losac_layout::plan::{DeviceDef, FoldPolicy, LayoutPlan, Module};
//! use losac_layout::slicing::ShapeConstraint;
//! use losac_tech::{Polarity, Technology};
//! use losac_tech::units::um;
//!
//! let tech = Technology::cmos06();
//! let m1 = DeviceDef {
//!     name: "m1".into(),
//!     polarity: Polarity::Nmos,
//!     w: um(24.0), l: um(1.0),
//!     d: "out".into(), g: "in".into(), s: "gnd".into(), b: "gnd".into(),
//!     policy: FoldPolicy::EvenInternal,
//! };
//! let plan = LayoutPlan::new("demo", vec![Module::Device(m1)]);
//! let report = plan.calculate_parasitics(&tech, ShapeConstraint::MinArea)?;
//! assert_eq!(report.devices["m1"].folds % 2, 0);
//! # Ok::<(), losac_layout::plan::PlanError>(())
//! ```

pub mod cell;
pub mod drc;
pub mod export;
pub mod extract;
pub mod geom;
pub mod guard;
pub mod plan;
pub mod route;
pub mod row;
pub mod shape;
pub mod slicing;
pub mod stack;

pub use cell::{Cell, Port, Shape};
pub use extract::Extraction;
pub use geom::{Point, Rect};
pub use guard::{guard_ring, GuardKind, GuardRing};
pub use plan::{DeviceDef, FoldPolicy, GeneratedLayout, LayoutPlan, Module, ParasiticReport};
pub use row::{build_row, row_size, Finger, Row, RowLayout, RowSpec};
pub use slicing::{ShapeConstraint, SlicingTree};
pub use stack::{plan_stack, StackDevice, StackSpec, StackStyle};
