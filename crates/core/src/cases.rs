//! The four sizing cases of the paper's Table 1.
//!
//! Each case sizes the same OTA with a different degree of parasitic
//! awareness, then *verifies* it the way the paper does: generate the
//! layout of the sized circuit, extract all parasitics, and simulate the
//! extracted netlist. "Synthesized" numbers are what the sizing tool
//! believes (its own parasitic model); "extracted" numbers (the paper's
//! values in brackets) come from the extracted netlist.
//!
//! A run has two halves. [`prepare_case`] sizes and lays out the
//! design, which no PVT or mismatch scenario changes;
//! [`PreparedCase::measure`] simulates it under a scenario.
//! [`run_case_with`] is the two in sequence. [`Preparations`] memoises
//! the first half, so the batch engine prepares once per design point
//! and the daemon keeps its reused points' preparations.

use crate::flow::{layout_oriented_synthesis, FlowError, FlowOptions};
use crate::layout_gen::{to_feedback, topology_layout_plan, LayoutOptions};
use losac_layout::slicing::ShapeConstraint;
use losac_sim::interrupt;
use losac_sizing::eval::{evaluate_with, EvalError, EvalErrorKind, EvalOptions, FnvHasher};
use losac_sizing::{
    OtaSpecs, ParasiticMode, Performance, Topology, TopologyPlan, TopologyRegistry,
};
use losac_tech::{Scenario, Technology};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Which of Table 1's four sizing strategies to run.
///
/// Marked `#[non_exhaustive]`: future PRs may add strategies (e.g.
/// statistical-corner-aware sizing) without breaking downstream matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Case {
    /// Case 1: sizing with no layout capacitances (neither diffusion nor
    /// routing).
    NoParasitics,
    /// Case 2: diffusion capacitance assuming single transistor folds, no
    /// routing capacitance (no layout information).
    UnfoldedDiffusion,
    /// Case 3: exact diffusion capacitance from the layout loop,
    /// neglecting routing capacitance.
    ExactDiffusion,
    /// Case 4: all layout parasitics considered during synthesis.
    AllParasitics,
}

impl Case {
    /// All four cases in Table-1 order.
    pub const ALL: [Case; 4] = [
        Case::NoParasitics,
        Case::UnfoldedDiffusion,
        Case::ExactDiffusion,
        Case::AllParasitics,
    ];

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Case::NoParasitics => "Case 1",
            Case::UnfoldedDiffusion => "Case 2",
            Case::ExactDiffusion => "Case 3",
            Case::AllParasitics => "Case 4",
        }
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of one case: the sized circuit and both performance rows.
#[derive(Debug)]
pub struct CaseResult {
    /// Which case this is.
    pub case: Case,
    /// The sized circuit.
    pub ota: Arc<dyn Topology>,
    /// What the sizing tool believes (Table 1's plain numbers).
    pub synthesized: Performance,
    /// Simulation of the extracted netlist (Table 1's bracketed
    /// numbers).
    pub extracted: Performance,
    /// Layout-tool calls spent (1 for cases 1–2: generation only).
    pub layout_calls: usize,
}

/// Case-run failure.
///
/// Marked `#[non_exhaustive]`: callers outside this crate must keep a
/// wildcard arm so new failure kinds can be added without a breaking
/// change.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CaseError {
    /// Flow/sizing/layout failure.
    Flow(FlowError),
    /// Measurement failure.
    Eval(EvalError),
}

impl fmt::Display for CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseError::Flow(e) => write!(f, "{e}"),
            CaseError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CaseError {}

impl From<FlowError> for CaseError {
    fn from(e: FlowError) -> Self {
        CaseError::Flow(e)
    }
}

impl From<EvalError> for CaseError {
    fn from(e: EvalError) -> Self {
        // An interrupted evaluation is the run control stopping the case,
        // not a measurement defect: surface it as the matching flow
        // outcome, so the engine reports a budget stop as `TimedOut` or
        // `Cancelled` rather than as a failed analysis.
        match e.kind() {
            EvalErrorKind::Cancelled => CaseError::Flow(FlowError::Cancelled),
            EvalErrorKind::TimedOut => CaseError::Flow(FlowError::TimedOut),
            _ => CaseError::Eval(e),
        }
    }
}

impl From<losac_sizing::SizingError> for CaseError {
    fn from(e: losac_sizing::SizingError) -> Self {
        CaseError::Flow(FlowError::Sizing(e))
    }
}

impl From<losac_layout::plan::PlanError> for CaseError {
    fn from(e: losac_layout::plan::PlanError) -> Self {
        CaseError::Flow(FlowError::Layout(e))
    }
}

/// All inputs of one case run that `run_case` used to hardwire: the
/// sizing plan, the layout implementation options, the shape constraint
/// and the flow's convergence knobs.
///
/// The default value reproduces the historical `run_case` behaviour
/// exactly (default plan, default layout options, min-area shape, the
/// default flow tolerance and call budget). The options hold no stop
/// flag or deadline: a run stops only through the
/// [`SimInterrupt`](losac_sim::interrupt::SimInterrupt) installed on its
/// thread.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CaseOptions {
    /// Topology design plan (any [`TopologyPlan`]; the default is the
    /// paper's folded cascode).
    pub plan: Arc<dyn TopologyPlan>,
    /// Layout implementation options (matching styles, finger target).
    pub layout: LayoutOptions,
    /// Shape constraint, applied both inside the flow loop and to the
    /// final verification layout.
    pub shape: ShapeConstraint,
    /// Convergence tolerance of the sizing↔layout loop (cases 3–4).
    pub tolerance: f64,
    /// Layout-call budget of the sizing↔layout loop (cases 3–4).
    pub max_layout_calls: usize,
    /// Evaluation options for the two `evaluate` calls of the run: a
    /// shared evaluation cache (bitwise-neutral) and
    /// [`EvalOptions::scenario`], which selects the single PVT/mismatch
    /// context both rows are measured under (nominal by default).
    pub eval: EvalOptions,
    /// Corner-aware acceptance set. Empty (the default) measures both
    /// performance rows under `eval.scenario` alone — the historical
    /// behaviour. Non-empty switches the run to "meet specs at all
    /// corners": each row is evaluated under *every* scenario listed and
    /// folded per metric through [`Performance::worst_case`], so the
    /// reported row meets a specification iff every scenario does.
    pub scenarios: Vec<Scenario>,
}

impl Default for CaseOptions {
    fn default() -> Self {
        let flow = FlowOptions::default();
        Self {
            plan: TopologyRegistry::builtin()
                .get("folded_cascode")
                .expect("the folded cascode is built in"),
            layout: flow.layout,
            shape: flow.shape,
            tolerance: flow.tolerance,
            max_layout_calls: flow.max_layout_calls,
            eval: EvalOptions::default(),
            scenarios: Vec::new(),
        }
    }
}

impl CaseOptions {
    /// A builder starting from [`CaseOptions::default`]. The struct is
    /// `#[non_exhaustive]`, so downstream crates construct it through
    /// this builder — new fields are then non-breaking.
    pub fn builder() -> CaseOptionsBuilder {
        CaseOptionsBuilder::default()
    }

    /// The flow options these case options imply.
    pub fn flow_options(&self, diffusion_only: bool) -> FlowOptions {
        FlowOptions {
            shape: self.shape,
            layout: self.layout.clone(),
            tolerance: self.tolerance,
            max_layout_calls: self.max_layout_calls,
            diffusion_only,
        }
    }
}

/// Builder for [`CaseOptions`] (see [`CaseOptions::builder`]).
///
/// `build` is infallible: each knob is individually valid and range
/// errors surface from the flow itself (`FlowOptions::validate`), so the
/// builder adds no second validation pass that could drift from it.
#[derive(Debug, Clone, Default)]
#[must_use = "call .build() to obtain the CaseOptions"]
pub struct CaseOptionsBuilder {
    opts: CaseOptions,
}

impl CaseOptionsBuilder {
    /// Topology design plan (see [`CaseOptions::plan`]).
    pub fn with_plan(mut self, plan: Arc<dyn TopologyPlan>) -> Self {
        self.opts.plan = plan;
        self
    }

    /// Layout implementation options (see [`CaseOptions::layout`]).
    pub fn with_layout(mut self, layout: LayoutOptions) -> Self {
        self.opts.layout = layout;
        self
    }

    /// Shape constraint (see [`CaseOptions::shape`]).
    pub fn with_shape(mut self, shape: ShapeConstraint) -> Self {
        self.opts.shape = shape;
        self
    }

    /// Convergence tolerance (see [`CaseOptions::tolerance`]).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.opts.tolerance = tolerance;
        self
    }

    /// Layout-call budget (see [`CaseOptions::max_layout_calls`]).
    pub fn with_max_layout_calls(mut self, calls: usize) -> Self {
        self.opts.max_layout_calls = calls;
        self
    }

    /// Evaluation knobs (see [`CaseOptions::eval`]).
    pub fn with_eval(mut self, eval: EvalOptions) -> Self {
        self.opts.eval = eval;
        self
    }

    /// Corner-aware acceptance set (see [`CaseOptions::scenarios`]).
    pub fn with_scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.opts.scenarios = scenarios.into_iter().collect();
        self
    }

    /// The finished options.
    pub fn build(self) -> CaseOptions {
        self.opts
    }
}

/// Run one Table-1 case with the default options (default plan, default
/// layout options, min-area shape) — a thin wrapper over
/// [`run_case_with`].
///
/// # Errors
///
/// Returns [`CaseError`] when sizing, layout generation or any
/// measurement fails.
pub fn run_case(tech: &Technology, specs: &OtaSpecs, case: Case) -> Result<CaseResult, CaseError> {
    run_case_with(tech, specs, case, &CaseOptions::default())
}

/// Run one Table-1 case with explicit options: [`prepare_case`], then
/// [`PreparedCase::measure`].
///
/// # Errors
///
/// Returns [`CaseError`] when sizing, layout generation or any
/// measurement fails, and `CaseError::Flow(FlowError::Cancelled /
/// TimedOut)` when the thread's installed
/// [`SimInterrupt`](losac_sim::interrupt::SimInterrupt) stops the run at
/// a phase boundary or inside a solve.
pub fn run_case_with(
    tech: &Technology,
    specs: &OtaSpecs,
    case: Case,
    opts: &CaseOptions,
) -> Result<CaseResult, CaseError> {
    prepare_case(tech, specs, case, opts)?.measure(tech, opts)
}

/// The scenario-independent half of a case run: the sized circuit, the
/// parasitic mode its sizing assumed, and the parasitics extracted from
/// its verification layout. No layout geometry is kept.
///
/// PVT and mismatch scenarios change only how a design is measured, so
/// one prepared case serves every scenario of its design point (see
/// [`PreparedCase::measure`]).
#[derive(Debug)]
pub struct PreparedCase {
    case: Case,
    ota: Arc<dyn Topology>,
    synth_mode: ParasiticMode,
    /// The verification layout's `Full` feedback, or the error that
    /// stopped it. [`measure`](Self::measure) reports it only after the
    /// synthesized row, the order a single run has always used.
    extracted_mode: Result<ParasiticMode, CaseError>,
    layout_calls: usize,
}

/// Prepare one Table-1 case: size the circuit (cases 1–2) or run the
/// sizing↔layout flow (cases 3–4), then generate, extract and keep the
/// verification layout's parasitics.
///
/// Reads the options' plan, layout options, shape, tolerance and call
/// budget; never the evaluation options or the scenario set, which only
/// [`PreparedCase::measure`] reads.
///
/// # Errors
///
/// Returns [`CaseError::Flow`] when sizing or the flow fails, or when
/// the thread's installed interrupt stops the run before or during it. A
/// failure of the verification layout is held in the prepared case and
/// surfaces from [`PreparedCase::measure`].
pub fn prepare_case(
    tech: &Technology,
    specs: &OtaSpecs,
    case: Case,
    opts: &CaseOptions,
) -> Result<PreparedCase, CaseError> {
    interrupt::poll().map_err(FlowError::from)?;
    let (ota, synth_mode, layout_calls): (Arc<dyn Topology>, ParasiticMode, usize) = match case {
        Case::NoParasitics | Case::UnfoldedDiffusion => {
            let mode = if case == Case::NoParasitics {
                ParasiticMode::None
            } else {
                ParasiticMode::UnfoldedDiffusion
            };
            let ota = opts.plan.size_topology(tech, specs, &mode)?;
            (Arc::from(ota), mode, 1)
        }
        Case::ExactDiffusion | Case::AllParasitics => {
            let flow = opts.flow_options(case == Case::ExactDiffusion);
            let r = layout_oriented_synthesis(tech, specs, opts.plan.as_ref(), &flow)?;
            (r.ota, r.mode, r.layout_calls)
        }
    };
    let extracted_mode = verification_mode(tech, ota.as_ref(), opts);
    Ok(PreparedCase {
        case,
        ota,
        synth_mode,
        extracted_mode,
        layout_calls,
    })
}

/// Whether two [`prepare_case`] calls, each given as its
/// `(tech, specs, case, opts)` arguments, compute the same preparation:
/// every input it reads is exactly equal — the same plan `Arc`, equal
/// technology, case, layout options, shape and call budget, and
/// bitwise-equal specification and tolerance. The evaluation options and
/// scenario set are read only by [`PreparedCase::measure`], so neither
/// plays a part.
pub fn same_preparation(
    (tech_a, specs_a, case_a, opts_a): (&Technology, &OtaSpecs, Case, &CaseOptions),
    (tech_b, specs_b, case_b, opts_b): (&Technology, &OtaSpecs, Case, &CaseOptions),
) -> bool {
    // Destructured without `..` (as in `spec_bits`), so a new field
    // cannot be left out of the comparison.
    let CaseOptions {
        plan,
        layout,
        shape,
        tolerance,
        max_layout_calls,
        eval: _,
        scenarios: _,
    } = opts_a;
    case_a == case_b
        && spec_bits(specs_a) == spec_bits(specs_b)
        && Arc::ptr_eq(plan, &opts_b.plan)
        && *layout == opts_b.layout
        && *shape == opts_b.shape
        && tolerance.to_bits() == opts_b.tolerance.to_bits()
        && *max_layout_calls == opts_b.max_layout_calls
        && (std::ptr::eq(tech_a, tech_b) || tech_a == tech_b)
}

/// The bits of every specification field.
fn spec_bits(s: &OtaSpecs) -> [u64; 8] {
    // Destructured without `..`, so a new field cannot be left out.
    let OtaSpecs {
        vdd,
        gbw,
        phase_margin,
        c_load,
        input_cm_range,
        output_range,
    } = *s;
    [
        vdd,
        gbw,
        phase_margin,
        c_load,
        input_cm_range.0,
        input_cm_range.1,
        output_range.0,
        output_range.1,
    ]
    .map(f64::to_bits)
}

/// A [`prepare_case`] result shared by every caller with equal inputs:
/// the first `get_or_init` prepares, the others wait and read it.
pub type PreparationCell = Arc<OnceLock<Result<PreparedCase, CaseError>>>;

/// A memo of case preparations, keyed by the inputs [`same_preparation`]
/// compares: [`cell`](Self::cell) gives every caller with equal inputs
/// one [`PreparationCell`]. The engine makes one per batch unless given
/// one; the daemon keeps one for its whole life. A preparation is a pure
/// function of its key, so sharing it changes no outcome.
///
/// Memory grows only with reuse: [`end_batch`](Self::end_batch) keeps an
/// entry only if its preparation succeeded and an earlier batch had
/// asked for the same key. Every other entry goes and leaves its 8-byte
/// key hash behind, so a failed or stopped preparation never outlives
/// its batch, a one-shot point keeps nothing, and a hot point is served
/// from the memo from its third batch on.
#[derive(Debug, Default)]
pub struct Preparations {
    state: Mutex<MemoState>,
}

#[derive(Debug, Default)]
struct MemoState {
    /// Entries by key hash; inputs whose hashes collide share a bucket.
    buckets: BTreeMap<u64, Vec<MemoEntry>>,
    /// Key hashes of the entries earlier batches dropped.
    seen: BTreeSet<u64>,
}

#[derive(Debug)]
struct MemoEntry {
    tech: Arc<Technology>,
    specs: OtaSpecs,
    case: Case,
    /// The options with evaluation options and scenario set reset, so the
    /// memo holds no cache.
    opts: CaseOptions,
    /// Whether an earlier batch dropped an entry of this key.
    reused: bool,
    cell: PreparationCell,
}

impl Preparations {
    /// The preparation cell for these [`prepare_case`] arguments: an
    /// existing entry's when [`same_preparation`] holds for it, else a
    /// new empty one.
    pub fn cell(
        &self,
        tech: &Arc<Technology>,
        specs: &OtaSpecs,
        case: Case,
        opts: &CaseOptions,
    ) -> PreparationCell {
        let mut h = FnvHasher::new();
        for bits in spec_bits(specs) {
            h.write_u64(bits);
        }
        h.write_u64(case as u64);
        h.write_u64(opts.tolerance.to_bits());
        h.write_u64(opts.max_layout_calls as u64);
        let hash = h.finish();
        let mut state = self.lock();
        let MemoState { buckets, seen } = &mut *state;
        let bucket = buckets.entry(hash).or_default();
        let inputs = (tech.as_ref(), specs, case, opts);
        if let Some(e) = bucket
            .iter()
            .find(|e| same_preparation((&e.tech, &e.specs, e.case, &e.opts), inputs))
        {
            return Arc::clone(&e.cell);
        }
        let cell = PreparationCell::default();
        bucket.push(MemoEntry {
            tech: Arc::clone(tech),
            specs: *specs,
            case,
            opts: CaseOptions {
                eval: EvalOptions::default(),
                scenarios: Vec::new(),
                ..opts.clone()
            },
            reused: seen.contains(&hash),
            cell: Arc::clone(&cell),
        });
        cell
    }

    /// Close a batch: keep the entries whose preparation succeeded and
    /// whose key an earlier batch had asked for; drop every other entry
    /// and remember its key hash. A cell a caller still holds stays
    /// valid for that caller.
    pub fn end_batch(&self) {
        let mut state = self.lock();
        let MemoState { buckets, seen } = &mut *state;
        buckets.retain(|&hash, bucket| {
            let before = bucket.len();
            bucket.retain(|e| e.reused && matches!(e.cell.get(), Some(Ok(_))));
            if bucket.len() < before {
                seen.insert(hash);
            }
            !bucket.is_empty()
        });
    }

    /// Number of preparations held.
    pub fn len(&self) -> usize {
        self.lock().buckets.values().map(Vec::len).sum()
    }

    /// Whether the memo holds no preparation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock the state; no code under the lock can leave it half-updated.
    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Extraction step: generate the layout of this sizing and extract all
/// parasitics (the paper's bracketed values — done with the commercial
/// extractor in the original). Another cooperative stop point first:
/// cases 1–2 have no flow loop, so without this check a cancelled batch
/// would still pay for layout generation.
fn verification_mode(
    tech: &Technology,
    ota: &dyn Topology,
    opts: &CaseOptions,
) -> Result<ParasiticMode, CaseError> {
    interrupt::poll().map_err(FlowError::from)?;
    let report =
        topology_layout_plan(tech, ota, &opts.layout).calculate_parasitics(tech, opts.shape)?;
    Ok(ParasiticMode::Full(to_feedback(&report, false)))
}

impl PreparedCase {
    /// Measure both performance rows of the prepared design under the
    /// options' scenario (`opts.eval`), or — corner-aware acceptance —
    /// as the per-metric worst case over `opts.scenarios`. Reads only
    /// the evaluation options and the scenario set; `tech` must be the
    /// technology the case was prepared with.
    ///
    /// Errors surface in a single run's order: the synthesized row's,
    /// then the verification layout's, then the extracted row's.
    ///
    /// # Errors
    ///
    /// Returns [`CaseError`] when the verification layout or a
    /// measurement failed, and `CaseError::Flow(FlowError::Cancelled /
    /// TimedOut)` when the thread's installed interrupt stops the run
    /// before or during a measurement.
    pub fn measure(&self, tech: &Technology, opts: &CaseOptions) -> Result<CaseResult, CaseError> {
        // A phase boundary: a job that waited on a shared preparation
        // past its deadline or a cancel stops here, even when both rows
        // would be cache hits.
        interrupt::poll().map_err(FlowError::from)?;
        let measure = |mode: &ParasiticMode| -> Result<Performance, CaseError> {
            if opts.scenarios.is_empty() {
                return Ok(evaluate_with(self.ota.as_ref(), tech, mode, &opts.eval)?);
            }
            let mut worst: Option<Performance> = None;
            for sc in &opts.scenarios {
                let eval = opts.eval.clone().with_scenario(*sc);
                let p = evaluate_with(self.ota.as_ref(), tech, mode, &eval)?;
                worst = Some(match worst {
                    Some(w) => w.worst_case(&p),
                    None => p,
                });
            }
            Ok(worst.expect("scenario set checked non-empty"))
        };
        // Synthesized performance: the sizing tool's own belief.
        let synthesized = measure(&self.synth_mode)?;
        let full = self.extracted_mode.as_ref().map_err(Clone::clone)?;
        let extracted = measure(full)?;
        Ok(CaseResult {
            case: self.case,
            ota: self.ota.clone(),
            synthesized,
            extracted,
            layout_calls: self.layout_calls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_sim::interrupt::SimInterrupt;
    use losac_sizing::FoldedCascodePlan;
    use std::sync::atomic::AtomicBool;

    // Case runs are exercised end-to-end by the integration tests and the
    // table1 binary; here we keep one smoke case to bound runtime.

    #[test]
    fn default_case_options_match_flow_defaults() {
        let o = CaseOptions::default();
        let f = FlowOptions::default();
        assert_eq!(o.shape, f.shape);
        assert_eq!(o.layout, f.layout);
        assert_eq!(o.tolerance, f.tolerance);
        assert_eq!(o.max_layout_calls, f.max_layout_calls);
        let flow = o.flow_options(true);
        assert!(flow.diffusion_only);
        flow.validate().unwrap();
    }

    #[test]
    fn run_case_with_honours_cancellation() {
        let tech = Technology::cmos06();
        let specs = OtaSpecs::paper_example();
        let opts = CaseOptions::default();
        let _stop =
            interrupt::install(SimInterrupt::new().with_stop(Arc::new(AtomicBool::new(true))));
        // Every case — including the loop-free cases 1–2 — stops before
        // doing any work.
        for case in Case::ALL {
            let r = run_case_with(&tech, &specs, case, &opts);
            assert!(
                matches!(r, Err(CaseError::Flow(FlowError::Cancelled))),
                "{case} did not cancel"
            );
        }
    }

    #[test]
    fn an_installed_interrupt_stops_the_run_before_any_layout_or_evaluation() {
        use losac_obs::Collector;
        use std::time::Instant;
        let tech = Technology::cmos06();
        let specs = OtaSpecs::paper_example();
        let raised = SimInterrupt::new().with_stop(Arc::new(AtomicBool::new(true)));
        let expired = SimInterrupt::new().with_deadline(Instant::now());
        for (control, want) in [
            (raised, FlowError::Cancelled),
            (expired, FlowError::TimedOut),
        ] {
            let collector = Collector::new();
            let sink = losac_obs::install(Arc::new(collector.clone()));
            let stop = interrupt::install(control);
            let r = run_case_with(&tech, &specs, Case::NoParasitics, &CaseOptions::default());
            drop(stop);
            drop(sink);
            let want = CaseError::Flow(want).to_string();
            assert_eq!(r.err().map(|e| e.to_string()), Some(want.clone()));
            for span in ["layout.generate", "sizing.evaluate"] {
                assert!(collector.spans(span).is_empty(), "{span} ran, then: {want}");
            }
        }
    }

    #[test]
    fn measure_honours_cancellation_even_on_cache_hits() {
        let tech = Technology::cmos06();
        let specs = OtaSpecs::paper_example();
        let prepared = prepare_case(&tech, &specs, Case::NoParasitics, &CaseOptions::default())
            .expect("case 1 prepares");
        let eval = EvalOptions::default().with_cache(Arc::new(losac_sizing::EvalCache::new()));
        let warm = CaseOptions::builder().with_eval(eval.clone()).build();
        prepared.measure(&tech, &warm).expect("case 1 measures");
        // Both rows are now cache hits, which no solver poll sees.
        let _stop =
            interrupt::install(SimInterrupt::new().with_stop(Arc::new(AtomicBool::new(true))));
        assert!(matches!(
            prepared.measure(&tech, &warm),
            Err(CaseError::Flow(FlowError::Cancelled))
        ));
    }

    #[test]
    fn same_preparation_ignores_only_what_prepare_case_never_reads() {
        use losac_tech::Corner;
        let tech = Technology::cmos06();
        let specs = OtaSpecs::paper_example();
        let base = CaseOptions::default();
        let case = Case::AllParasitics;
        // Evaluation options and scenario set differ.
        let measured_apart = CaseOptions::builder()
            .with_plan(base.plan.clone())
            .with_eval(EvalOptions::default().with_scenario(Scenario::corner(Corner::Slow)))
            .with_scenarios([Scenario::corner(Corner::Fast)])
            .build();
        assert!(same_preparation(
            (&tech, &specs, case, &base),
            (&tech, &specs, case, &measured_apart)
        ));
        // One ulp of tolerance or of a specification, or another plan
        // `Arc`, is another preparation.
        let other_plan = CaseOptions::builder()
            .with_plan(Arc::new(FoldedCascodePlan::default()))
            .build();
        let mut next_tolerance = base.clone();
        next_tolerance.tolerance = f64::from_bits(base.tolerance.to_bits() + 1);
        let mut next_cm = specs;
        next_cm.input_cm_range.1 = f64::from_bits(specs.input_cm_range.1.to_bits() + 1);
        for (s, o) in [
            (&specs, &next_tolerance),
            (&next_cm, &base),
            (&specs, &other_plan),
        ] {
            assert!(!same_preparation(
                (&tech, &specs, case, &base),
                (&tech, s, case, o)
            ));
        }
    }

    #[test]
    fn case1_shape() {
        let tech = Technology::cmos06();
        let specs = OtaSpecs::paper_example();
        let r = run_case(&tech, &specs, Case::NoParasitics).unwrap();
        // Synthesized meets the GBW target...
        assert!(
            r.synthesized.gbw > 0.95 * specs.gbw,
            "synth gbw {:.1} MHz",
            r.synthesized.gbw / 1e6
        );
        // ...but the extracted netlist falls short: parasitics were
        // ignored (the paper's 58.1 MHz vs 65 MHz spec).
        assert!(
            r.extracted.gbw < r.synthesized.gbw,
            "extracted {:.1} vs synth {:.1} MHz",
            r.extracted.gbw / 1e6,
            r.synthesized.gbw / 1e6
        );
        assert!(r.extracted.phase_margin < r.synthesized.phase_margin);
    }
}
