//! # losac-sim — a SPICE-class circuit simulator
//!
//! The verification engine of the layout-oriented synthesis flow. The
//! paper sizes circuits with the *same transistor model* its simulator
//! uses, and verifies every synthesis result by simulating the extracted
//! netlist; this crate provides that simulator:
//!
//! * [`netlist`] — circuit representation (R, C, V/I sources, MOS);
//! * [`dc`] — nonlinear operating point (damped Newton with gmin and
//!   source stepping);
//! * [`ac`] — complex small-signal frequency sweeps;
//! * [`noise`] — output/input-referred noise analysis with per-element
//!   contributions;
//! * [`tran`] — backward-Euler transient (slew-rate measurements);
//! * [`meas`] — Bode summaries: DC gain, GBW, phase margin, margins;
//! * [`num`] — the dense real/complex LU kernel (pivoted fallback);
//! * [`sparse`] — the default pattern-cached sparse LU kernel with a
//!   symbolic/numeric split, one generic kernel for the real DC and
//!   transient systems and the complex AC and noise systems;
//! * [`spice`] — SPICE-deck export of any netlist;
//! * [`interrupt`] — cooperative stop-flag/deadline polling inside the
//!   Newton and continuation loops (per-job budgets in the batch engine).
//!
//! The MOS devices evaluate `losac-device`'s EKV model, so the sizing
//! tool (`losac-sizing`) and this simulator can never disagree about an
//! operating point — the property the paper credits for its accuracy.
//!
//! ```
//! use losac_sim::netlist::Circuit;
//! use losac_sim::dc::{dc_operating_point, DcOptions};
//!
//! let mut c = Circuit::new();
//! c.vsource("v1", "in", "0", 2.0);
//! c.resistor("r1", "in", "out", 1e3);
//! c.resistor("r2", "out", "0", 1e3);
//! let sol = dc_operating_point(&c, &DcOptions::default())?;
//! assert!((sol.voltage(&c, "out") - 1.0).abs() < 1e-9);
//! # Ok::<(), losac_sim::dc::DcError>(())
//! ```

pub mod ac;
pub mod dc;
pub mod interrupt;
pub mod linear;
pub mod meas;
pub mod netlist;
pub mod noise;
pub mod num;
pub mod sparse;
pub mod spice;
pub mod tran;

pub use ac::{ac_point_on, ac_sweep, ac_sweep_on, AcOptions, AcResult, NodeTrace};
pub use dc::{dc_operating_point, DcOptions, DcSession, DcSolution};
pub use interrupt::{Interrupted, SimInterrupt};
pub use linear::{AcWorkspace, Linearized};
pub use meas::{bode_summary, bode_summary_of, BodeSummary};
pub use netlist::Circuit;
pub use noise::{noise_analysis, noise_analysis_on, NoiseResult};
pub use num::Complex;
pub use spice::to_spice;
pub use tran::{transient, TranOptions, TranResult};
