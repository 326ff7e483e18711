//! The layout-oriented synthesis flow — the paper's contribution.
//!
//! ```text
//!          spec, technology
//!                │
//!        ┌──── sizing ◄────────────┐
//!        │       │                 │
//!        │   layout tool           │ folding styles, diffusion
//!        │  (parasitic mode)       │ geometry, routing/coupling/well
//!        │       │                 │ capacitance
//!        │       └────────────────►┘
//!        │  (repeat until the parasitics stop changing)
//!        ▼
//!   layout tool (generation mode) → physical layout
//! ```
//!
//! The first sizing assumes one fold per transistor with diffusion
//! capacitance only (exactly the paper's §2); each subsequent iteration
//! feeds the freshly calculated parasitics back into the sizing plan.
//! Convergence is declared when no net's lumped parasitic capacitance
//! moves by more than the tolerance between consecutive layout calls —
//! the paper needed three calls on the example OTA.

use crate::layout_gen::{to_feedback, topology_layout_plan, LayoutOptions};
use crate::telemetry::FlowTelemetry;
use losac_layout::plan::{GeneratedLayout, ParasiticReport};
use losac_layout::slicing::ShapeConstraint;
use losac_obs::f;
use losac_sim::interrupt::{self, Interrupted};
use losac_sizing::{OtaSpecs, ParasiticMode, SizingError, Topology, TopologyPlan};
use losac_tech::Technology;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Shape constraint handed to the layout tool.
    pub shape: ShapeConstraint,
    /// Layout implementation options.
    pub layout: LayoutOptions,
    /// Convergence tolerance on the relative change of any net's lumped
    /// parasitic capacitance.
    pub tolerance: f64,
    /// Maximum number of layout-tool calls.
    pub max_layout_calls: usize,
    /// Feed back only diffusion information (Table 1 case 3) instead of
    /// all parasitics (case 4).
    pub diffusion_only: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            shape: ShapeConstraint::MinArea,
            layout: LayoutOptions::default(),
            tolerance: 0.02,
            max_layout_calls: 10,
            diffusion_only: false,
        }
    }
}

impl FlowOptions {
    /// Check that the options describe a runnable flow.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidOptions`] when the tolerance is not a
    /// positive finite number or the call budget is zero.
    pub fn validate(&self) -> Result<(), FlowError> {
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(FlowError::InvalidOptions(format!(
                "tolerance must be a positive finite number, got {}",
                self.tolerance
            )));
        }
        if self.max_layout_calls < 1 {
            return Err(FlowError::InvalidOptions(
                "max_layout_calls must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The result of a layout-oriented synthesis run.
#[derive(Debug)]
pub struct FlowResult {
    /// The final sized circuit, behind the object-safe [`Topology`]
    /// interface (evaluation, device map, layout spec and net currents).
    pub ota: Arc<dyn Topology>,
    /// The parasitic mode the final sizing used (carries the feedback).
    pub mode: ParasiticMode,
    /// The physically generated layout (generation mode output).
    pub layout: GeneratedLayout,
    /// The final parasitic report.
    pub report: ParasiticReport,
    /// Number of layout-tool calls before convergence.
    pub layout_calls: usize,
    /// Whether the parasitics converged within the call budget.
    pub converged: bool,
    /// Largest relative parasitic change per iteration (diagnostic).
    pub history: Vec<f64>,
    /// Wall-clock time of the whole run.
    pub elapsed: std::time::Duration,
    /// Runtime telemetry: per-phase timings and solver-activity counters.
    pub telemetry: FlowTelemetry,
}

impl FlowResult {
    /// Last observed parasitic change — `None` when the budget allowed a
    /// single layout call, which leaves nothing to compare.
    ///
    /// When [`converged`](FlowResult::converged) is `true` this is the
    /// change that *triggered* convergence, so `converged == true`
    /// implies `final_change() <= tolerance` — including a run that
    /// converged on its very first comparison.
    pub fn final_change(&self) -> Option<f64> {
        self.history.last().copied()
    }
}

/// Flow failure.
///
/// Marked `#[non_exhaustive]`: callers outside this crate must keep a
/// wildcard arm so new variants (as `TimedOut` and `Cancelled` were) can
/// be added without a breaking change.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum FlowError {
    /// The options were rejected before the flow started.
    InvalidOptions(String),
    /// The sizing plan failed.
    Sizing(SizingError),
    /// The layout tool failed.
    Layout(losac_layout::plan::PlanError),
    /// The run passed the deadline of the thread's installed
    /// [`SimInterrupt`](losac_sim::interrupt::SimInterrupt).
    TimedOut,
    /// The stop flag of the thread's installed interrupt was raised.
    Cancelled,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidOptions(e) => write!(f, "invalid flow options: {e}"),
            FlowError::Sizing(e) => write!(f, "flow failed in sizing: {e}"),
            FlowError::Layout(e) => write!(f, "flow failed in layout: {e}"),
            FlowError::TimedOut => write!(f, "flow exceeded its wall-clock budget"),
            FlowError::Cancelled => write!(f, "flow was cancelled"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SizingError> for FlowError {
    fn from(e: SizingError) -> Self {
        FlowError::Sizing(e)
    }
}

impl From<losac_layout::plan::PlanError> for FlowError {
    fn from(e: losac_layout::plan::PlanError) -> Self {
        FlowError::Layout(e)
    }
}

impl From<Interrupted> for FlowError {
    fn from(i: Interrupted) -> Self {
        match i {
            Interrupted::Cancelled => FlowError::Cancelled,
            Interrupted::TimedOut => FlowError::TimedOut,
        }
    }
}

/// Largest relative change of any device's drain/source diffusion area
/// between two reports. A device present in only one report counts as a
/// full-scale change — checked in both directions, so the measure is
/// symmetric in its arguments.
fn diffusion_change(a: &ParasiticReport, b: &ParasiticReport) -> f64 {
    if b.devices.keys().any(|name| !a.devices.contains_key(name)) {
        return 1.0;
    }
    let mut worst: f64 = 0.0;
    for (name, da) in &a.devices {
        let Some(db) = b.devices.get(name) else {
            return 1.0;
        };
        for (x, y) in [
            (da.drain.area, db.drain.area),
            (da.source.area, db.source.area),
        ] {
            let denom = x.abs().max(y.abs()).max(1e-18);
            worst = worst.max((x - y).abs() / denom);
        }
    }
    worst
}

/// Run the layout-oriented synthesis flow (Fig. 1(b) of the paper).
///
/// # Errors
///
/// Returns [`FlowError`] when sizing or layout generation fails, and
/// `Cancelled` or `TimedOut` when the thread's installed interrupt fires
/// at a phase boundary or inside a solve; an unconverged run within the
/// call budget is *not* an error (see [`FlowResult::converged`]).
pub fn layout_oriented_synthesis(
    tech: &Technology,
    specs: &OtaSpecs,
    plan: &dyn TopologyPlan,
    opts: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    opts.validate()?;
    let start = Instant::now();
    let _flow_span = losac_obs::span_with(
        "flow",
        vec![
            f("topology", plan.topology_name()),
            f("tolerance", opts.tolerance),
            f("max_layout_calls", opts.max_layout_calls),
            f("diffusion_only", opts.diffusion_only),
        ],
    );
    let metrics_before = losac_obs::metrics::snapshot();
    let mut telemetry = FlowTelemetry::default();

    // First sizing: one fold per transistor, diffusion capacitance only.
    let mut mode = ParasiticMode::UnfoldedDiffusion;
    let mut history = Vec::new();
    let mut prev_report: Option<ParasiticReport> = None;
    let mut layout_calls = 0;
    let mut converged = false;
    let sizing_start = Instant::now();
    let mut ota: Box<dyn Topology> = plan.size_topology(tech, specs, &mode)?;
    telemetry.sizing_durations.push(sizing_start.elapsed());

    let mut layout_opts = opts.layout.clone();
    while layout_calls < opts.max_layout_calls {
        // Cooperative stop point: between layout calls the run can be
        // cancelled or timed out without leaving partial state behind.
        interrupt::poll()?;
        // Call the layout tool in parasitic-calculation mode.
        if losac_obs::failpoint::hit("flow.layout_call").is_some() {
            return Err(FlowError::Layout(
                losac_layout::plan::PlanError::with_message(
                    "injected failure at `flow.layout_call`",
                ),
            ));
        }
        static LAYOUT_CALL_MS: losac_obs::Histogram =
            losac_obs::Histogram::new("flow.layout_call.ms");
        let call_span = losac_obs::span_with("flow.layout_call", vec![f("call", layout_calls + 1)]);
        let call_start = Instant::now();
        let lplan = topology_layout_plan(tech, ota.as_ref(), &layout_opts);
        let report = lplan.calculate_parasitics(tech, opts.shape)?;
        let call_elapsed = call_start.elapsed();
        telemetry.layout_call_durations.push(call_elapsed);
        LAYOUT_CALL_MS.observe_duration(call_elapsed);
        drop(call_span);
        layout_calls += 1;
        let total_folds: u32 = report.devices.values().map(|d| d.folds).sum();
        let total_net_cap: f64 = report.net_cap.values().sum();
        losac_obs::event(
            "flow.folds",
            &[
                f("call", layout_calls),
                f("total_folds", u64::from(total_folds)),
            ],
        );
        losac_obs::event(
            "flow.net_cap",
            &[f("call", layout_calls), f("total_f", total_net_cap)],
        );
        // Freeze the discrete folding decisions after the first call so
        // the loop converges on the continuous quantities (the paper's
        // tool behaves the same way: the layout style is an input option,
        // not something re-decided every call).
        if layout_calls == 1 {
            for (name, d) in &report.devices {
                layout_opts.fold_hints.insert(name.clone(), d.folds);
            }
        }

        if let Some(prev) = &prev_report {
            // Convergence is judged on what the loop actually feeds back:
            // all lumped parasitics in the full flow, the diffusion
            // geometry alone in the diffusion-only variant.
            let change = if opts.diffusion_only {
                diffusion_change(&report, prev)
            } else {
                report.max_relative_change(prev)
            };
            history.push(change);
            losac_obs::event(
                "flow.parasitic_change",
                &[f("call", layout_calls), f("change", change)],
            );
            // Inclusive comparison so the documented invariant
            // `converged == true ⇒ final_change() <= tolerance` holds
            // exactly, with no gap at `change == tolerance`.
            if change <= opts.tolerance {
                prev_report = Some(report);
                converged = true;
                break;
            }
        }

        // Feed the parasitics back and re-size, with relaxation: averaging
        // successive capacitance reports makes the sizing↔layout fixed
        // point a contraction, damping the small limit cycles that the
        // calibration's discrete stopping criterion would otherwise
        // sustain.
        let mut fb = to_feedback(&report, true);
        if let Some(prev_mode) = mode.feedback() {
            for (name, d) in fb.devices.iter_mut() {
                if let Some(p) = prev_mode.devices.get(name) {
                    d.drain.area = 0.5 * (d.drain.area + p.drain.area);
                    d.drain.perimeter = 0.5 * (d.drain.perimeter + p.drain.perimeter);
                    d.source.area = 0.5 * (d.source.area + p.source.area);
                    d.source.perimeter = 0.5 * (d.source.perimeter + p.source.perimeter);
                }
            }
            for (net, c) in fb.net_caps.iter_mut() {
                if let Some(p) = prev_mode.net_caps.get(net) {
                    *c = 0.5 * (*c + p);
                }
            }
            for (k, c) in fb.coupling.iter_mut() {
                if let Some(p) = prev_mode.coupling.get(k) {
                    *c = 0.5 * (*c + p);
                }
            }
            for (net, c) in fb.well_caps.iter_mut() {
                if let Some(p) = prev_mode.well_caps.get(net) {
                    *c = 0.5 * (*c + p);
                }
            }
        }
        mode = if opts.diffusion_only {
            ParasiticMode::DiffusionOnly(fb)
        } else {
            ParasiticMode::Full(fb)
        };
        let sizing_start = Instant::now();
        ota = plan.size_topology(tech, specs, &mode)?;
        telemetry.sizing_durations.push(sizing_start.elapsed());
        prev_report = Some(report);
    }

    // Generation mode: produce the physical layout of the final sizing,
    // with the same frozen folding decisions the loop converged on.
    interrupt::poll()?;
    let generation_start = Instant::now();
    let lplan = topology_layout_plan(tech, ota.as_ref(), &layout_opts);
    let layout = lplan.generate(tech, opts.shape)?;
    telemetry.generation_duration = generation_start.elapsed();
    let report = prev_report.expect("validate() guarantees at least one layout call");

    let elapsed = start.elapsed();
    telemetry.total_duration = elapsed;
    telemetry.set_counters(&metrics_before, &losac_obs::metrics::snapshot());
    losac_obs::event(
        "flow.done",
        &[
            f("layout_calls", layout_calls),
            f("converged", converged),
            f("elapsed_ms", elapsed.as_secs_f64() * 1e3),
        ],
    );

    Ok(FlowResult {
        ota: Arc::from(ota),
        mode,
        layout,
        report,
        layout_calls,
        converged,
        history,
        elapsed,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_sizing::FoldedCascodePlan;

    /// Shared scaffolding: run the flow on the paper's folded-cascode
    /// example with the given options (every test used to spell out the
    /// same technology/specs/plan triple inline).
    fn run_with(opts: &FlowOptions) -> Result<FlowResult, FlowError> {
        let tech = Technology::cmos06();
        layout_oriented_synthesis(
            &tech,
            &OtaSpecs::paper_example(),
            &FoldedCascodePlan::default(),
            opts,
        )
    }

    fn run() -> FlowResult {
        run_with(&FlowOptions::default()).unwrap()
    }

    #[test]
    fn flow_converges_in_few_calls() {
        let r = run();
        assert!(r.converged, "history: {:?}", r.history);
        // The paper needed three layout calls on this example.
        assert!(
            (2..=6).contains(&r.layout_calls),
            "layout calls = {} (history {:?})",
            r.layout_calls,
            r.history
        );
        // Convergence history must be decreasing-ish and end small.
        assert!(r.final_change().expect("at least two layout calls") < 0.02);
    }

    #[test]
    fn single_layout_call_budget_is_not_an_error() {
        let r = run_with(&FlowOptions {
            max_layout_calls: 1,
            ..Default::default()
        })
        .unwrap();
        // One call leaves nothing to compare: no history, no convergence
        // claim, and crucially no panic.
        assert_eq!(r.layout_calls, 1);
        assert!(!r.converged);
        assert!(r.history.is_empty());
        assert_eq!(r.final_change(), None);
    }

    #[test]
    fn invalid_options_are_rejected() {
        for bad in [
            FlowOptions {
                tolerance: 0.0,
                ..Default::default()
            },
            FlowOptions {
                tolerance: -0.5,
                ..Default::default()
            },
            FlowOptions {
                tolerance: f64::NAN,
                ..Default::default()
            },
            FlowOptions {
                max_layout_calls: 0,
                ..Default::default()
            },
        ] {
            assert!(matches!(run_with(&bad), Err(FlowError::InvalidOptions(_))));
        }
    }

    #[test]
    fn telemetry_matches_run_shape() {
        let r = run();
        let t = &r.telemetry;
        assert_eq!(t.layout_call_durations.len(), r.layout_calls);
        // One initial sizing plus one re-sizing per fed-back report (the
        // converging call feeds nothing back).
        assert_eq!(t.sizing_durations.len(), r.layout_calls);
        assert!(t.generation_duration.as_nanos() > 0);
        assert!(t.total_duration >= t.generation_duration);
        // The run must have exercised the device and matrix solvers.
        assert!(
            t.counter("device.vgs_bisect.calls") > 0,
            "counters: {:?}",
            t.counters
        );
        assert!(
            t.counter("sim.matrix.factorizations") > 0,
            "counters: {:?}",
            t.counters
        );
        assert!(t.counter("layout.generate.calls") > r.layout_calls as u64);
        let json = t.to_json();
        assert!(json.contains("\"total_s\""), "{json}");
    }

    #[test]
    fn flow_is_fast() {
        // The paper: "the sizing time for each case including layout
        // calls does not exceed two minutes" on a 1999 workstation. Ours
        // must finish in seconds.
        let r = run();
        assert!(r.elapsed.as_secs() < 60, "took {:?}", r.elapsed);
    }

    #[test]
    fn final_mode_carries_feedback() {
        let r = run();
        assert!(matches!(r.mode, ParasiticMode::Full(_)));
        let fb = r.mode.feedback().unwrap();
        assert_eq!(fb.devices.len(), 11);
        // Final layout agrees with the final feedback folding.
        for (name, d) in &r.layout.devices {
            assert_eq!(d.folds, fb.devices[name].folds, "{name}");
        }
    }

    #[test]
    fn converged_implies_final_change_within_tolerance() {
        // Regression: the invariant must hold whether convergence takes
        // several comparisons (tight tolerance) or is declared on the
        // very first one (loose tolerance).
        for tolerance in [0.02, 0.5] {
            let r = run_with(&FlowOptions {
                tolerance,
                ..Default::default()
            })
            .unwrap();
            assert!(r.converged, "tolerance {tolerance}: {:?}", r.history);
            let last = r
                .final_change()
                .expect("converged runs compared at least once");
            assert!(
                last <= tolerance,
                "tolerance {tolerance}: final_change {last} (history {:?})",
                r.history
            );
        }
        // A loose tolerance converges on the first comparison: exactly
        // one history entry, and it is the converging one.
        let r = run_with(&FlowOptions {
            tolerance: 0.9,
            ..Default::default()
        })
        .unwrap();
        assert!(r.converged);
        assert_eq!(r.history.len(), 1, "history {:?}", r.history);
        assert!(r.final_change().unwrap() <= 0.9);
        // And an unsatisfiable tolerance never claims convergence.
        let r = run_with(&FlowOptions {
            tolerance: 1e-12,
            max_layout_calls: 3,
            ..Default::default()
        })
        .unwrap();
        assert!(!r.converged);
    }

    #[test]
    fn raised_stop_flag_cancels_the_run() {
        use std::sync::atomic::AtomicBool;
        let flag = Arc::new(AtomicBool::new(true));
        let _stop = interrupt::install(interrupt::SimInterrupt::new().with_stop(flag));
        let r = run_with(&FlowOptions::default());
        assert!(matches!(r, Err(FlowError::Cancelled)));
    }

    #[test]
    fn expired_deadline_times_the_run_out() {
        let _deadline =
            interrupt::install(interrupt::SimInterrupt::new().with_deadline(Instant::now()));
        let r = run_with(&FlowOptions::default());
        assert!(matches!(r, Err(FlowError::TimedOut)));
    }

    #[test]
    fn diffusion_only_flow_also_converges() {
        let r = run_with(&FlowOptions {
            diffusion_only: true,
            ..Default::default()
        })
        .unwrap();
        assert!(r.converged);
        assert!(matches!(r.mode, ParasiticMode::DiffusionOnly(_)));
    }
}
