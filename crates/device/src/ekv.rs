//! The EKV-style drain-current model.
//!
//! A simplified EKV formulation: bulk-referenced, symmetric in source and
//! drain, single smooth expression valid from weak through strong
//! inversion. On top of the ideal charge-sheet current it applies
//! vertical-field mobility degradation, velocity saturation and
//! channel-length modulation.
//!
//! The model equations (NMOS convention; PMOS is handled by negating the
//! terminal voltages and the resulting current):
//!
//! ```text
//! a      = √φ + γ/2
//! VP     = VG − VT0 − γ·(√(VG − VT0 + a²) − a)      pinch-off voltage
//! n      = 1 + γ / (2·√(φ + VP))                     slope factor
//! i_f    = F((VP − VS)/Ut),  i_r = F((VP − VD)/Ut)   normalised currents
//! F(x)   = ln²(1 + e^{x/2})
//! Is     = 2·n·β·Ut²,  β = kp·W/L_eff
//! v_deg  = n·Ut·(√i_f + √i_r)                        symmetric overdrive
//! d      = 1 / ((1 + θ·v_deg)·(1 + v_deg/(Ecrit·L_eff)))
//! Id     = d · Is · (i_f − i_r) · (1 + v_clm/VA)
//! v_clm  = smooth |VDS|,  VA = va_per_l · L_eff
//! ```
//!
//! Small-signal parameters come from **analytic derivatives of the same
//! expression**: the chain rule is propagated through the pinch-off
//! clamps, the interpolation function (d/dx F(x) = √F·σ(x/2)) and the
//! mobility/CLM terms, so one model evaluation yields Id, gm, gds and
//! gmb. Central differences of [`OpEval::drain_current`] are the test
//! oracle for them (`tests/deriv_equivalence.rs`, DESIGN §6j). This keeps
//! the Jacobian used by the Newton solver in `losac-sim` consistent with
//! the current equation, so the sizing tool and the simulator can never
//! disagree about gm.

use crate::Mosfet;
use losac_obs::Counter;
use losac_tech::units::{KBOLTZMANN, QELECTRON, T_NOMINAL};
use losac_tech::MosParams;

/// Full model evaluations (one per operating point).
static MODEL_EVALS: Counter = Counter::new("device.model.evals");
/// Transcendental calls (exp/ln/sqrt/cosh/tanh) attributed per evaluation:
/// a statically-accounted per-path cost, not an instrumented count, so the
/// hot loop pays one relaxed atomic add instead of one per call.
static MODEL_TRANSCENDENTALS: Counter = Counter::new("device.model.transcendentals");

/// Transcendental calls in one evaluation: 2 sqrt (pinch-off), 2 exp +
/// 2 ln (F and σ share one exp per side), cosh + ln + tanh (CLM), 2 sqrt
/// (√i_f, √i_r) + 1 sqrt (veff).
const TRANSCENDENTALS: u64 = 13;

/// Operating region, classified from the inversion coefficient and the
/// drain saturation voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Channel off (negligible inversion charge).
    Cutoff,
    /// Weak inversion (inversion coefficient < 0.1).
    Weak,
    /// VDS below the saturation voltage: resistive channel.
    Triode,
    /// Forward saturation.
    Saturation,
}

/// Result of a model evaluation: the DC operating point and the
/// small-signal parameters, all in the *device's own* sign convention
/// (`id > 0` flows drain→source for NMOS conducting forward; for PMOS the
/// reported `id` is the source→drain magnitude-signed current so that a
/// conducting PMOS also reports positive `id`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOp {
    /// Drain current (A), polarity-normalised as described above.
    pub id: f64,
    /// Gate transconductance ∂Id/∂VGS (A/V).
    pub gm: f64,
    /// Output conductance ∂Id/∂VDS (A/V).
    pub gds: f64,
    /// Bulk transconductance ∂Id/∂VBS (A/V).
    pub gmb: f64,
    /// Inversion coefficient (forward normalised current i_f).
    pub inversion: f64,
    /// Reverse normalised current i_r (equals i_f at VDS = 0, → 0 in
    /// saturation). The ratio i_r/i_f measures how deep in triode the
    /// channel is.
    pub reverse: f64,
    /// Saturation voltage VDsat (V, positive).
    pub vdsat: f64,
    /// Effective gate overdrive ≈ VGS − VT (V, positive in inversion).
    pub veff: f64,
    /// Pinch-off voltage VP (V, bulk-referenced, NMOS-normalised).
    pub vp: f64,
    /// Slope factor n at this bias.
    pub slope_n: f64,
    /// Classified operating region.
    pub region: Region,
}

impl MosOp {
    /// Transconductance efficiency gm/Id (1/V); 0 for an off device.
    pub fn gm_over_id(&self) -> f64 {
        if self.id.abs() < 1e-18 {
            0.0
        } else {
            self.gm / self.id.abs()
        }
    }

    /// Small-signal intrinsic gain gm/gds.
    pub fn intrinsic_gain(&self) -> f64 {
        if self.gds.abs() < 1e-30 {
            f64::INFINITY
        } else {
            self.gm / self.gds
        }
    }
}

/// `ln(1 + e^x)`, overflow-safe.
fn ln1pexp(x: f64) -> f64 {
    if x > 35.0 {
        x
    } else if x < -35.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// `(ln(1 + e^x), σ(x))` sharing one exponential. The first component is
/// bit-identical to [`ln1pexp`]; the second is the *exact* derivative of
/// whichever branch expression produced the first — `1` above the upper
/// cutoff (where the value is `x`), `e^x` below the lower one (where the
/// value is `e^x`) — so the analytic derivatives differentiate the
/// function as implemented, branches included.
fn ln1pexp_sig(x: f64) -> (f64, f64) {
    if x > 35.0 {
        (x, 1.0)
    } else if x < -35.0 {
        let e = x.exp();
        (e, e)
    } else {
        let e = x.exp();
        (e.ln_1p(), e / (1.0 + e))
    }
}

/// EKV interpolation function F(x) = ln²(1 + e^{x/2}).
fn ekv_f(x: f64) -> f64 {
    let l = ln1pexp(x / 2.0);
    l * l
}

/// Smooth |x| used for the channel-length-modulation term:
/// `Ut·ln(cosh(x/Ut))` ≈ |x| for |x| ≫ Ut, smooth at 0.
fn smooth_abs(x: f64, ut: f64) -> f64 {
    let y = x / ut;
    let a = y.abs();
    if a > 30.0 {
        ut * (a - core::f64::consts::LN_2)
    } else {
        ut * a.cosh().ln()
    }
}

/// [`smooth_abs`] fused with its derivative d/dx = tanh(x/Ut): one `x/Ut`
/// scaling and one branch serve both. The value half keeps the
/// [`smooth_abs`] expressions verbatim (it is on the locked value path),
/// and the derivative is branch-consistent with it: past the |x/Ut| > 30
/// cutoff the value is the exact line `Ut·(|y|−ln 2)` whose slope is ±1 —
/// and `tanh(±30)` rounds to ±1.0 in f64 anyway, so the derivative is
/// continuous across the branch.
fn smooth_abs_pair(x: f64, ut: f64) -> (f64, f64) {
    let y = x / ut;
    let a = y.abs();
    if a > 30.0 {
        (ut * (a - core::f64::consts::LN_2), y.signum())
    } else {
        (ut * a.cosh().ln(), y.tanh())
    }
}

/// Threshold temperature coefficient (V/K): VT drops ≈ 2 mV per kelvin.
const VT_TEMP_COEFF: f64 = -2.0e-3;

/// Mobility temperature exponent: µ ∝ (T/T₀)^−1.5.
const MOBILITY_TEMP_EXP: f64 = -1.5;

/// Lower clamp on the pinch-off square-root argument (see [`pinch_off`]).
const ARG_CLAMP: f64 = 1e-12;

/// Lower clamp on φ + VP inside the slope-factor expression.
const PV_CLAMP: f64 = 0.05;

/// Everything in the model that does not depend on the terminal voltages:
/// thermal voltage, shifted threshold, the pinch-off constant `a`, the
/// temperature-scaled transconductance factor and the CLM/degradation
/// length terms. Computed once per (device, temperature) and cached by
/// [`OpEval`]/[`MosBatch`] across Newton iterations — it used to be
/// rebuilt on every one of the ~3000 assemblies of a transient run.
#[derive(Debug, Clone)]
struct Precomputed {
    ut: f64,
    vt0_t: f64,
    /// Pinch-off constant a = √φ + γ/2.
    a: f64,
    /// β = kp·(T/T₀)^−1.5·W/L_eff.
    beta: f64,
    /// Ecrit·L_eff.
    ecrit_l: f64,
    /// Early voltage VA = va_per_l·L_eff.
    va: f64,
    /// Reciprocals of the above, used **only** in derivative expressions
    /// (the analytic chain rule), never on the value path: replacing a
    /// value-path divide with a reciprocal multiply would change the
    /// rounding of the drain current, which the central-difference oracle
    /// and the inverse solvers evaluate.
    inv_ut: f64,
    inv_ecrit_l: f64,
    inv_va: f64,
}

impl Precomputed {
    fn of(m: &Mosfet, temp_k: f64) -> Self {
        let p = &m.params;
        let l_eff = m.l_eff();
        // At nominal temperature the mobility ratio is (1.0)^-1.5 = 1.0
        // exactly, and multiplying by exactly 1.0 is an identity — skip the
        // `powf` without changing a single bit. This is the hot case: every
        // Newton iteration of every transient step lands here.
        let t_ratio = temp_k / T_NOMINAL;
        let mobility_scale = if t_ratio == 1.0 {
            1.0
        } else {
            t_ratio.powf(MOBILITY_TEMP_EXP)
        };
        let ut = KBOLTZMANN * temp_k / QELECTRON;
        let ecrit_l = p.ecrit * l_eff;
        let va = p.va_per_l * l_eff;
        Self {
            ut,
            vt0_t: p.vt0 + VT_TEMP_COEFF * (temp_k - T_NOMINAL),
            a: p.phi.sqrt() + p.gamma / 2.0,
            beta: p.kp * mobility_scale * m.w / l_eff,
            ecrit_l,
            va,
            inv_ut: 1.0 / ut,
            inv_ecrit_l: 1.0 / ecrit_l,
            inv_va: 1.0 / va,
        }
    }
}

/// Pinch-off voltage and slope factor for a bulk-referenced gate voltage
/// `vg` (NMOS-normalised); depends on the gate voltage only.
fn pinch_off(p: &MosParams, pre: &Precomputed, vg: f64) -> (f64, f64) {
    let (vp, n, _, _) = pinch_off_d(p, pre, vg);
    (vp, n)
}

/// [`pinch_off`] together with the gate derivatives `(vp, n, dvp, dn)`.
///
/// The derivatives are **clamp-consistent**: they differentiate the
/// clamped expression as implemented, so inside a clamp the frozen term
/// contributes zero slope.
///
/// * When `vg − vt0_t + a²` is clamped at [`ARG_CLAMP`] the `γ·√arg` term
///   is constant, leaving dvp/dvg = 1 (the leading `vg` term survives).
///   Just *outside* that boundary dvp ≈ 1 − γ/(2·√ARG_CLAMP) ≈ −γ·5e5 —
///   a central-difference probe straddling the boundary averages the two
///   regimes and returns a step-size-dependent answer; the analytic value
///   is exact on both sides.
/// * When `φ + vp` is clamped at [`PV_CLAMP`] the slope factor is frozen,
///   so dn/dvg = 0.
fn pinch_off_d(p: &MosParams, pre: &Precomputed, vg: f64) -> (f64, f64, f64, f64) {
    let a = pre.a;
    let raw = vg - pre.vt0_t + a * a;
    let arg = raw.max(ARG_CLAMP);
    let sqrt_arg = arg.sqrt();
    let vp = vg - pre.vt0_t - p.gamma * (sqrt_arg - a);
    let pv_raw = p.phi + vp;
    let pv = pv_raw.max(PV_CLAMP);
    let sqrt_pv = pv.sqrt();
    let n = 1.0 + p.gamma / (2.0 * sqrt_pv);
    let dvp = if raw >= ARG_CLAMP {
        1.0 - p.gamma / (2.0 * sqrt_arg)
    } else {
        1.0
    };
    let dn = if pv_raw >= PV_CLAMP {
        -p.gamma * dvp / (4.0 * pv * sqrt_pv)
    } else {
        0.0
    };
    (vp, n, dvp, dn)
}

/// The drain current plus every intermediate the analytic derivatives
/// need. The `id` expression performs the historical operations in the
/// historical order, so the value path is bit-identical to the
/// pre-refactor code.
struct CurrentParts {
    id: f64,
    /// Specific current Is = 2·n·β·Ut².
    is: f64,
    /// √i_f, √i_r.
    sif: f64,
    sir: f64,
    /// Mobility-degradation denominators 1 + θ·v_deg and 1 + v_deg/EcritL.
    d1: f64,
    d2: f64,
    /// 1/(d1·d2).
    mob: f64,
    /// 1 + sabs/VA.
    clm: f64,
}

fn current_parts(
    p: &MosParams,
    pre: &Precomputed,
    n: f64,
    i_f: f64,
    i_r: f64,
    sabs: f64,
) -> CurrentParts {
    let is = 2.0 * n * pre.beta * pre.ut * pre.ut;
    // Degradation uses a source/drain-symmetric inversion measure so that
    // swapping the terminal labels exactly negates the current:
    // v_deg = n·Ut·(√i_f + √i_r) equals veff at VDS = 0 and veff/2 in deep
    // saturation (θ and Ecrit are fitted to this convention).
    let sif = i_f.sqrt();
    let sir = i_r.sqrt();
    let v_deg = n * pre.ut * (sif + sir);
    let d1 = 1.0 + p.theta * v_deg;
    let d2 = 1.0 + v_deg / pre.ecrit_l;
    let mob = 1.0 / (d1 * d2);
    let clm = 1.0 + sabs / pre.va;
    let id = mob * is * (i_f - i_r) * clm;
    CurrentParts {
        id,
        is,
        sif,
        sir,
        d1,
        d2,
        mob,
        clm,
    }
}

/// Raw drain current for bulk-referenced, NMOS-normalised terminal
/// voltages.
fn drain_current_pre(m: &Mosfet, pre: &Precomputed, vg: f64, vs: f64, vd: f64) -> f64 {
    let p = &m.params;
    let (vp, n) = pinch_off(p, pre, vg);
    let i_f = ekv_f((vp - vs) / pre.ut);
    let i_r = ekv_f((vp - vd) / pre.ut);
    current_parts(p, pre, n, i_f, i_r, smooth_abs(vd - vs, pre.ut)).id
}

/// Classify the operating region and compute vdsat from the forward
/// normalised current `i_f` and its root `sif`.
fn region_of(i_f: f64, sif: f64, vds_n: f64, ut: f64) -> (f64, Region) {
    let vdsat = 2.0 * ut * sif + 4.0 * ut;
    let region = if i_f < 1e-3 {
        Region::Cutoff
    } else if i_f < 0.1 {
        Region::Weak
    } else if vds_n < vdsat {
        Region::Triode
    } else {
        Region::Saturation
    };
    (vdsat, region)
}

/// Analytic evaluation on NMOS-normalised, bulk-referenced voltages: the
/// transcendentals (pinch-off with its derivatives, both interpolation-
/// function values with their sigmoids, smoothed |VDS| with its tanh),
/// then the current — through the *unchanged* [`current_parts`]
/// expression, so the value is bit-identical to
/// [`OpEval::drain_current`] — and the three conductances by the chain
/// rule:
///
/// ```text
/// ∂Id/∂vg = clm·( mob'·v_deg'_g·Is·Δi + mob·(Is'_g·Δi + Is·(i_f'_g − i_r'_g)) )
/// ∂Id/∂vs = clm·( mob'·(−n·σf/2)·Is·Δi − mob·Is·√i_f·σf/Ut ) − mob·Is·Δi·tanh/VA
/// ∂Id/∂vd = clm·( mob'·(−n·σr/2)·Is·Δi + mob·Is·√i_r·σr/Ut ) + mob·Is·Δi·tanh/VA
/// ```
///
/// with `i_f'_g = √i_f·σf·vp'/Ut`, `v_deg'_g = n'·Ut·(√i_f+√i_r) +
/// n·vp'·(σf+σr)/2`, `Is'_g = 2·n'·β·Ut²` and `mob' = −mob·(θ/d1 +
/// 1/(EcritL·d2))`. The bulk transconductance is `−(∂vg + ∂vs + ∂vd)`,
/// because a bulk wiggle moves all three normalised voltages.
fn eval_analytic(m: &Mosfet, pre: &Precomputed, vg: f64, vs: f64, vd: f64) -> MosOp {
    let p = &m.params;
    let ut = pre.ut;
    let (vp, n, dvp, dn) = pinch_off_d(p, pre, vg);
    let (lf, sf) = ln1pexp_sig((vp - vs) / ut / 2.0);
    let (lr, sr) = ln1pexp_sig((vp - vd) / ut / 2.0);
    let (sabs, tt) = smooth_abs_pair(vd - vs, ut);
    let i_f = lf * lf;
    let i_r = lr * lr;
    let parts = current_parts(p, pre, n, i_f, i_r, sabs);
    // √(lf²) recovers lf exactly (sqrt and mul are correctly rounded), so
    // `parts.sif` is the bit-identical √i_f the historical veff used.
    let veff = 2.0 * n * ut * parts.sif;
    let diff = i_f - i_r;
    let mob_is = parts.mob * parts.is;

    // d(mob)/d(v_deg), shared by all three terminals:
    // −mob·(θ/d1 + 1/(EcritL·d2)) = −mob²·(θ·d2 + d1/EcritL), trading two
    // derivative-path divides for multiplies by the cached reciprocal.
    let dmob = -(parts.mob * parts.mob) * (p.theta * parts.d2 + parts.d1 * pre.inv_ecrit_l);
    let is_diff = parts.is * diff;
    let dmob_is_diff = dmob * is_diff;

    // Gate: vp and n move, and with them both normalised currents, the
    // specific current and the degradation voltage.
    let dif_dvg = lf * sf * dvp * pre.inv_ut;
    let dir_dvg = lr * sr * dvp * pre.inv_ut;
    let dvdeg_dvg = dn * ut * (parts.sif + parts.sir) + n * dvp * (sf + sr) * 0.5;
    let dis_dvg = 2.0 * dn * pre.beta * ut * ut;
    let d_vg = parts.clm
        * (dmob_is_diff * dvdeg_dvg
            + parts.mob * (dis_dvg * diff + parts.is * (dif_dvg - dir_dvg)));

    // Source: only i_f and the smoothed |VDS| move (vp, n fixed).
    let clm_tail = mob_is * diff * tt * pre.inv_va;
    let d_vs = parts.clm * (dmob_is_diff * (-n * sf * 0.5) + mob_is * (-(lf * sf * pre.inv_ut)))
        - clm_tail;

    // Drain: only i_r and the smoothed |VDS| move.
    let d_vd =
        parts.clm * (dmob_is_diff * (-n * sr * 0.5) + mob_is * (lr * sr * pre.inv_ut)) + clm_tail;

    let (vdsat, region) = region_of(i_f, parts.sif, vd - vs, ut);
    MosOp {
        id: parts.id,
        gm: d_vg,
        gds: d_vd,
        gmb: -(d_vg + d_vs + d_vd),
        inversion: i_f,
        reverse: i_r,
        vdsat,
        veff,
        vp,
        slope_n: n,
        region,
    }
}

/// Evaluate on NMOS-normalised voltages, attributing the telemetry
/// counters.
fn eval_normalised(m: &Mosfet, pre: &Precomputed, vg: f64, vs: f64, vd: f64) -> MosOp {
    MODEL_EVALS.incr();
    MODEL_TRANSCENDENTALS.add(TRANSCENDENTALS);
    eval_analytic(m, pre, vg, vs, vd)
}

// ---------------------------------------------------------------------------
// Cached evaluation handles
// ---------------------------------------------------------------------------

/// A reusable operating-point evaluator for one (device, temperature):
/// the bias-independent `Precomputed` block is built once and shared by
/// every evaluation, instead of being rebuilt per call the way
/// [`evaluate_at`] historically did on each of the ~3000 Newton
/// assemblies of a transient run (and on every probe of the inverse
/// solvers in [`crate::solve`]).
///
/// Results are bit-identical to the one-shot entry points: `Precomputed`
/// is a pure function of (device, temperature), so caching it cannot
/// change a single bit.
#[derive(Debug, Clone)]
pub struct OpEval {
    m: Mosfet,
    temp_k: f64,
    pre: Precomputed,
}

impl OpEval {
    /// Build the evaluator for `m` at temperature `temp_k` (kelvin).
    ///
    /// # Panics
    ///
    /// Panics if `temp_k` is not strictly positive.
    pub fn new(m: &Mosfet, temp_k: f64) -> Self {
        assert!(temp_k > 0.0, "temperature must be positive kelvin");
        Self {
            m: *m,
            temp_k,
            pre: Precomputed::of(m, temp_k),
        }
    }

    /// Whether this evaluator was built for exactly this (device,
    /// temperature) — used by [`MosBatch`] to decide when a cached slot
    /// can be reused across Newton iterations.
    pub fn matches(&self, m: &Mosfet, temp_k: f64) -> bool {
        self.temp_k == temp_k && self.m == *m
    }

    /// The device this evaluator was built for.
    pub fn device(&self) -> &Mosfet {
        &self.m
    }

    /// [`evaluate_at`] through the cached precomputation.
    pub fn eval(&self, vgs: f64, vds: f64, vbs: f64) -> MosOp {
        let s = self.m.params.polarity.sign();
        eval_normalised(
            &self.m,
            &self.pre,
            s * (vgs - vbs),
            s * (-vbs),
            s * (vds - vbs),
        )
    }

    /// The drain current alone (A, polarity-normalised), through the
    /// cached precomputation: the probe evaluator the inverse solvers
    /// hoist out of their bisection loops.
    pub fn drain_current(&self, vgs: f64, vds: f64, vbs: f64) -> f64 {
        let s = self.m.params.polarity.sign();
        drain_current_pre(
            &self.m,
            &self.pre,
            s * (vgs - vbs),
            s * (-vbs),
            s * (vds - vbs),
        )
    }
}

/// Batched model evaluation for the Newton assembler: one cached
/// [`OpEval`] per device slot across iterations (rebuilt only when the
/// slot's device or temperature changes, which a `losac-sim` `DcSession`
/// never does mid-solve), and the model-evaluation counters added once
/// per pass rather than once per device.
///
/// Usage follows a cursor protocol mirroring the assembler's element
/// order: [`MosBatch::begin`], one [`MosBatch::bias`] per device,
/// [`MosBatch::evaluate_all`], then [`MosBatch::op`] by index in the same
/// order. Results are bit-identical to calling [`OpEval::eval`] per
/// device.
#[derive(Debug)]
pub struct MosBatch {
    devs: Vec<OpEval>,
    /// NMOS-normalised, bulk-referenced `(vg, vs, vd)` per slot.
    biases: Vec<(f64, f64, f64)>,
    /// Cursor: number of biases staged since the last [`MosBatch::begin`].
    n: usize,
    /// Temperature (K) every staged bias evaluates at; set by
    /// [`MosBatch::begin_at`], part of each slot's cache key through
    /// [`OpEval::matches`].
    temp_k: f64,
    ops: Vec<MosOp>,
}

impl Default for MosBatch {
    fn default() -> Self {
        Self {
            devs: Vec::new(),
            biases: Vec::new(),
            n: 0,
            temp_k: T_NOMINAL,
            ops: Vec::new(),
        }
    }
}

impl MosBatch {
    /// An empty batch; slots are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset the cursor for a new assembly pass at the nominal
    /// temperature. Cached per-slot evaluators survive — that is the
    /// point.
    pub fn begin(&mut self) {
        self.begin_at(T_NOMINAL);
    }

    /// Reset the cursor for a new assembly pass at an explicit
    /// temperature (K). A slot whose cached evaluator was built at a
    /// different temperature fails [`OpEval::matches`] and is rebuilt —
    /// a batch can therefore never serve stale precomputations across a
    /// scenario change.
    ///
    /// # Panics
    ///
    /// Panics if `temp_k` is not strictly positive.
    pub fn begin_at(&mut self, temp_k: f64) {
        assert!(temp_k > 0.0, "temperature must be positive kelvin");
        self.temp_k = temp_k;
        self.n = 0;
    }

    /// Stage the bias of the next device (at the temperature the pass
    /// was begun at). The cached evaluator in this slot is reused when
    /// it matches `m` and the pass temperature; otherwise it is rebuilt
    /// — so a batch stays correct even if the caller swaps circuits or
    /// scenarios between passes.
    pub fn bias(&mut self, m: &Mosfet, vgs: f64, vds: f64, vbs: f64) {
        let i = self.n;
        let s = m.params.polarity.sign();
        let bias = (s * (vgs - vbs), s * (-vbs), s * (vds - vbs));
        if i == self.devs.len() {
            self.devs.push(OpEval::new(m, self.temp_k));
            self.biases.push(bias);
        } else {
            if !self.devs[i].matches(m, self.temp_k) {
                self.devs[i] = OpEval::new(m, self.temp_k);
            }
            self.biases[i] = bias;
        }
        self.n += 1;
    }

    /// Number of biases staged since [`MosBatch::begin`].
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no biases are staged.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Evaluate every staged device.
    pub fn evaluate_all(&mut self) {
        let n = self.n;
        self.ops.clear();
        if n == 0 {
            return;
        }
        MODEL_EVALS.add(n as u64);
        MODEL_TRANSCENDENTALS.add(TRANSCENDENTALS * n as u64);
        self.ops.extend(
            self.devs[..n]
                .iter()
                .zip(&self.biases)
                .map(|(d, &(vg, vs, vd))| eval_analytic(&d.m, &d.pre, vg, vs, vd)),
        );
    }

    /// Operating point of the `i`-th staged device (same order as the
    /// [`MosBatch::bias`] calls).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or [`MosBatch::evaluate_all`] has
    /// not run since the last [`MosBatch::begin`].
    pub fn op(&self, i: usize) -> &MosOp {
        &self.ops[i]
    }
}

/// Evaluate the model at a source-referenced bias point.
///
/// `vgs`, `vds`, `vbs` follow the usual SPICE convention **in the device's
/// natural signs**: for a conducting NMOS they are positive, positive,
/// ≤ 0; for a conducting PMOS they are negative, negative, ≥ 0. The
/// returned [`MosOp`] is polarity-normalised (positive `id` for forward
/// conduction of either polarity).
///
/// The evaluation is total: any finite bias produces a finite result.
pub fn evaluate(m: &Mosfet, vgs: f64, vds: f64, vbs: f64) -> MosOp {
    evaluate_at(m, vgs, vds, vbs, T_NOMINAL)
}

/// [`evaluate`] at an explicit temperature (K). The threshold drifts by
/// −2 mV/K and the mobility scales as (T/T₀)^−1.5 — enough to expose the
/// zero-temperature-coefficient bias point the paper's operating-point
/// discipline exploits.
pub fn evaluate_at(m: &Mosfet, vgs: f64, vds: f64, vbs: f64, temp_k: f64) -> MosOp {
    OpEval::new(m, temp_k).eval(vgs, vds, vbs)
}

/// Evaluate only the drain current (A, polarity-normalised). Cheaper than
/// [`evaluate`] when derivatives are not needed (inner Newton loops use the
/// full version).
pub fn drain_current_only(m: &Mosfet, vgs: f64, vds: f64, vbs: f64) -> f64 {
    OpEval::new(m, T_NOMINAL).drain_current(vgs, vds, vbs)
}

/// Threshold voltage magnitude at a given source-bulk reverse bias
/// `vsb` (≥ 0), from the long-channel body-effect expression.
pub fn threshold(p: &MosParams, vsb: f64) -> f64 {
    let vsb = vsb.max(-p.phi / 2.0);
    p.vt0 + p.gamma * ((p.phi + vsb).sqrt() - p.phi.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_tech::units::UT_NOMINAL;
    use losac_tech::Technology;

    fn nmos(w: f64, l: f64) -> Mosfet {
        Mosfet::new(Technology::cmos06().nmos, w, l)
    }

    fn pmos(w: f64, l: f64) -> Mosfet {
        Mosfet::new(Technology::cmos06().pmos, w, l)
    }

    #[test]
    fn zero_vds_zero_current() {
        let m = nmos(10e-6, 1e-6);
        let op = evaluate(&m, 1.5, 0.0, 0.0);
        assert!(op.id.abs() < 1e-12, "id = {}", op.id);
    }

    #[test]
    fn current_increases_with_vgs() {
        let m = nmos(10e-6, 1e-6);
        let i1 = evaluate(&m, 1.0, 2.0, 0.0).id;
        let i2 = evaluate(&m, 1.4, 2.0, 0.0).id;
        assert!(i2 > i1 && i1 > 0.0);
    }

    #[test]
    fn current_scales_with_width() {
        let a = evaluate(&nmos(10e-6, 1e-6), 1.3, 2.0, 0.0).id;
        let b = evaluate(&nmos(20e-6, 1e-6), 1.3, 2.0, 0.0).id;
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn strong_inversion_square_law_magnitude() {
        // Veff = 0.55 V, W/L = 10/0.9: Id ≈ ½·kp·(W/L_eff)·Veff²·(corrections)
        let m = nmos(10e-6, 1e-6);
        let op = evaluate(&m, 1.3, 2.5, 0.0);
        let ideal = 0.5 * 100e-6 * (10.0 / 0.9) * 0.55f64.powi(2);
        // Degradation pulls it below ideal; CLM pushes up a little.
        assert!(
            op.id > 0.4 * ideal && op.id < 1.1 * ideal,
            "id = {:e}, ideal = {ideal:e}",
            op.id
        );
        assert_eq!(op.region, Region::Saturation);
    }

    #[test]
    fn weak_inversion_slope() {
        // In weak inversion gm/Id → 1/(n·Ut).
        let m = nmos(100e-6, 2e-6);
        let op = evaluate(&m, 0.55, 1.0, 0.0); // well below VT0 = 0.75
        assert!(op.inversion < 0.1, "ic = {}", op.inversion);
        let limit = 1.0 / (op.slope_n * UT_NOMINAL);
        let eff = op.gm_over_id();
        assert!(
            (eff / limit) > 0.85 && (eff / limit) < 1.05,
            "gm/Id = {eff}, weak-inversion limit = {limit}"
        );
    }

    #[test]
    fn strong_inversion_gm_over_id_low() {
        let m = nmos(10e-6, 1e-6);
        let op = evaluate(&m, 1.6, 2.5, 0.0);
        assert!(
            op.gm_over_id() < 5.0,
            "strong inversion should have low gm/Id"
        );
    }

    #[test]
    fn pmos_mirror_symmetry() {
        // A PMOS biased with mirrored voltages must match its own NMOS-form.
        let mp = pmos(30e-6, 1e-6);
        let op = evaluate(&mp, -1.3, -1.5, 0.0);
        assert!(
            op.id > 0.0,
            "conducting PMOS reports positive id, got {}",
            op.id
        );
        assert!(op.gm > 0.0);
        assert_eq!(op.region, Region::Saturation);
    }

    #[test]
    fn symmetric_in_source_drain() {
        // Swapping the source and drain labels of the same physical bias
        // (gate 1.2 V, terminals at 0 V and 0.1 V, bulk 0 V) negates the
        // current. The charge-sheet core is exactly symmetric; the
        // gate-overdrive-based mobility degradation refers to whichever
        // terminal is called "source", so the match is approximate.
        let m = nmos(10e-6, 1e-6);
        let fwd = evaluate(&m, 1.2, 0.1, 0.0).id;
        let rev = evaluate(&m, 1.1, -0.1, -0.1).id;
        assert!(
            rev < 0.0,
            "reverse conduction must be negative, got {rev:e}"
        );
        assert!(
            (fwd + rev).abs() < 1e-9 * fwd.abs(),
            "fwd {fwd:e} rev {rev:e}"
        );
    }

    #[test]
    fn gds_positive_and_small_in_saturation() {
        let m = nmos(10e-6, 1e-6);
        let op = evaluate(&m, 1.3, 2.5, 0.0);
        assert!(op.gds > 0.0);
        assert!(op.gds < op.gm / 10.0, "intrinsic gain should exceed 10");
    }

    #[test]
    fn gmb_positive_fraction_of_gm() {
        let m = nmos(10e-6, 1e-6);
        let op = evaluate(&m, 1.3, 2.5, -0.5);
        assert!(op.gmb > 0.0);
        assert!(
            op.gmb < op.gm,
            "gmb = {} should be below gm = {}",
            op.gmb,
            op.gm
        );
    }

    #[test]
    fn body_effect_raises_threshold() {
        let p = Technology::cmos06().nmos;
        assert!(threshold(&p, 1.0) > threshold(&p, 0.0));
        assert!((threshold(&p, 0.0) - p.vt0).abs() < 1e-12);
        // And the current model agrees: reverse body bias reduces current.
        let m = nmos(10e-6, 1e-6);
        let i0 = evaluate(&m, 1.2, 2.0, 0.0).id;
        let ib = evaluate(&m, 1.2, 2.0, -1.0).id;
        assert!(ib < i0);
    }

    #[test]
    fn longer_channel_higher_output_resistance() {
        let short = evaluate(&nmos(10e-6, 0.6e-6), 1.3, 2.0, 0.0);
        let long = evaluate(&nmos(10e-6, 3e-6), 1.3, 2.0, 0.0);
        let r_short = short.id / short.gds;
        let r_long = long.id / long.gds;
        assert!(
            r_long > 2.0 * r_short,
            "VA grows with L: {r_short} vs {r_long}"
        );
    }

    #[test]
    fn evaluation_is_total() {
        let m = nmos(1e-6, 0.6e-6);
        for vgs in [-5.0, -1.0, 0.0, 0.3, 5.0] {
            for vds in [-5.0, 0.0, 5.0] {
                for vbs in [-5.0, 0.0, 1.0] {
                    let op = evaluate(&m, vgs, vds, vbs);
                    assert!(op.id.is_finite() && op.gm.is_finite() && op.gds.is_finite());
                }
            }
        }
    }

    #[test]
    fn triode_region_classified() {
        let m = nmos(10e-6, 1e-6);
        let op = evaluate(&m, 2.0, 0.1, 0.0);
        assert_eq!(op.region, Region::Triode);
        // Triode: gds comparable to gm.
        assert!(op.gds > op.gm / 5.0);
    }

    #[test]
    fn cutoff_region_classified() {
        let m = nmos(10e-6, 1e-6);
        let op = evaluate(&m, 0.0, 2.0, 0.0);
        assert_eq!(op.region, Region::Cutoff);
        assert!(op.id < 1e-12);
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let devs = [
            nmos(12e-6, 0.8e-6),
            pmos(30e-6, 1.2e-6),
            nmos(100e-6, 2e-6),
            pmos(4e-6, 0.6e-6),
        ];
        let biases = [
            (1.25, 1.7, -0.2),
            (-1.3, -1.5, 0.0),
            (0.55, 1.0, 0.0),
            (-2.0, -0.1, 0.0),
        ];
        let mut batch = MosBatch::new();
        // Two passes over the same slots: the second reuses the cached
        // evaluators (the Newton-iteration pattern).
        for pass in 0..2 {
            batch.begin();
            for (m, &(vgs, vds, vbs)) in devs.iter().zip(&biases) {
                batch.bias(m, vgs, vds, vbs);
            }
            assert_eq!(batch.len(), devs.len());
            batch.evaluate_all();
            for (i, (m, &(vgs, vds, vbs))) in devs.iter().zip(&biases).enumerate() {
                let scalar = evaluate(m, vgs, vds, vbs);
                assert_eq!(*batch.op(i), scalar, "pass {pass} device {i} diverged");
            }
        }
    }

    #[test]
    fn batch_rebuilds_slot_on_device_change() {
        let mut batch = MosBatch::new();
        batch.begin();
        batch.bias(&nmos(12e-6, 0.8e-6), 1.2, 1.5, 0.0);
        batch.evaluate_all();
        let first = *batch.op(0);
        // Same slot, different width: the cached evaluator must not leak.
        batch.begin();
        let wider = nmos(24e-6, 0.8e-6);
        batch.bias(&wider, 1.2, 1.5, 0.0);
        batch.evaluate_all();
        assert_eq!(*batch.op(0), evaluate(&wider, 1.2, 1.5, 0.0));
        assert!(batch.op(0).id > 1.5 * first.id);
    }

    #[test]
    fn batch_at_temperature_matches_scalar_and_never_serves_stale_slots() {
        let devs = [nmos(12e-6, 0.8e-6), pmos(30e-6, 1.2e-6)];
        let biases = [(1.25, 1.7, -0.2), (-1.3, -1.5, 0.0)];
        let mut batch = MosBatch::new();
        // Alternate temperatures across passes over the *same* slots: the
        // scenario-switch pattern. Every pass must match the scalar path
        // at its own temperature bitwise — a stale cached precomputation
        // from the previous temperature would be an order-1 error.
        for &temp_k in &[T_NOMINAL, 233.15, 398.15, T_NOMINAL, 398.15] {
            batch.begin_at(temp_k);
            for (m, &(vgs, vds, vbs)) in devs.iter().zip(&biases) {
                batch.bias(m, vgs, vds, vbs);
            }
            batch.evaluate_all();
            for (i, (m, &(vgs, vds, vbs))) in devs.iter().zip(&biases).enumerate() {
                assert_eq!(
                    *batch.op(i),
                    evaluate_at(m, vgs, vds, vbs, temp_k),
                    "temp {temp_k} device {i} diverged"
                );
            }
        }
        // `begin()` is exactly `begin_at(T_NOMINAL)`.
        batch.begin();
        batch.bias(&devs[0], 1.25, 1.7, -0.2);
        batch.evaluate_all();
        assert_eq!(*batch.op(0), evaluate(&devs[0], 1.25, 1.7, -0.2));
    }

    #[test]
    fn mismatch_deltas_perturb_the_card() {
        let m = nmos(12e-6, 0.8e-6);
        // The zero draw is bit-identical — the nominal-scenario gate.
        let clean = m.with_mismatch(0.0, 0.0);
        assert_eq!(
            evaluate(&clean, 1.25, 1.7, 0.0),
            evaluate(&m, 1.25, 1.7, 0.0)
        );
        // A threshold shift up lowers the current; a beta gain raises it.
        let slow = m.with_mismatch(0.02, 0.0);
        let strong = m.with_mismatch(0.0, 0.05);
        let base = evaluate(&m, 1.25, 1.7, 0.0).id;
        assert!(evaluate(&slow, 1.25, 1.7, 0.0).id < base);
        assert!(evaluate(&strong, 1.25, 1.7, 0.0).id > base);
        // Perturbed cards are distinct values, so OpEval cache keys
        // (which compare the whole Mosfet) cannot collide with clean ones.
        assert_ne!(slow, m);
        assert!(OpEval::new(&m, T_NOMINAL).matches(&clean, T_NOMINAL));
        assert!(!OpEval::new(&m, T_NOMINAL).matches(&slow, T_NOMINAL));
    }

    #[test]
    fn drain_current_only_matches_evaluate() {
        let m = nmos(12e-6, 0.8e-6);
        let full = evaluate(&m, 1.25, 1.7, -0.2);
        let fast = drain_current_only(&m, 1.25, 1.7, -0.2);
        assert!((full.id - fast).abs() < 1e-15);
    }

    #[test]
    fn temperature_behaviour() {
        let m = nmos(10e-6, 1e-6);
        // Strong inversion: mobility loss dominates — current drops when
        // hot.
        let strong_cold = evaluate_at(&m, 1.8, 2.0, 0.0, 250.0).id;
        let strong_hot = evaluate_at(&m, 1.8, 2.0, 0.0, 400.0).id;
        assert!(
            strong_hot < strong_cold,
            "{strong_hot:e} !< {strong_cold:e}"
        );
        // Weak inversion: the threshold drop dominates — current rises.
        let weak_cold = evaluate_at(&m, 0.65, 1.0, 0.0, 250.0).id;
        let weak_hot = evaluate_at(&m, 0.65, 1.0, 0.0, 400.0).id;
        assert!(weak_hot > weak_cold, "{weak_hot:e} !> {weak_cold:e}");
        // Nominal temperature reproduces evaluate().
        let a = evaluate(&m, 1.2, 1.5, 0.0);
        let b = evaluate_at(&m, 1.2, 1.5, 0.0, losac_tech::units::T_NOMINAL);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_temperature_coefficient_point_exists() {
        // Between weak and strong inversion there is a VGS where the
        // current barely moves with temperature (the ZTC bias).
        let m = nmos(10e-6, 1e-6);
        let drift = |vgs: f64| {
            evaluate_at(&m, vgs, 1.5, 0.0, 350.0).id - evaluate_at(&m, vgs, 1.5, 0.0, 300.0).id
        };
        assert!(drift(0.8) > 0.0);
        assert!(drift(1.9) < 0.0);
    }

    #[test]
    fn vdsat_tracks_overdrive() {
        let m = nmos(10e-6, 1e-6);
        let lo = evaluate(&m, 1.0, 2.5, 0.0);
        let hi = evaluate(&m, 1.8, 2.5, 0.0);
        assert!(hi.vdsat > lo.vdsat);
        assert!(lo.vdsat > 0.0);
    }
}
