//! Nonlinear DC operating-point analysis (and the Newton loop the
//! transient analysis shares).
//!
//! Standard modified nodal analysis: unknowns are the non-ground node
//! voltages plus one branch current per voltage source. The nonlinear
//! system is solved by damped Newton–Raphson; when plain Newton fails the
//! solver falls back to gmin stepping and then source stepping, the same
//! continuation ladder real SPICE engines use.
//!
//! The Jacobian is written in one place, `compile`: a stamp program built
//! from the circuit's structure alone. Each Newton iteration evaluates the
//! devices once, fills the residual and a flat quantity array, and
//! scatters the quantities through the program into the sparse values (or
//! the dense fallback matrix). [`crate::linear::Linearized::build`] runs
//! the same program with small-signal quantities into its `G` and `C`.

use crate::interrupt::Interrupted;
use crate::netlist::{Circuit, Element, MosInstance, NodeId, GROUND};
use crate::num::{Matrix, SingularMatrix};
use crate::sparse::StampProgram;
use losac_device::caps::intrinsic_caps;
use losac_device::ekv::{evaluate_at, MosBatch, MosOp};
use losac_obs::Counter;
use std::collections::HashMap;
use std::fmt;

/// Operating points solved (cold starts and warm restarts alike).
static DC_SOLVES: Counter = Counter::new("sim.dc.solves");
/// Negative capacitances a transient stamps as zero (shares its slot with
/// the AC-side counter of the same name in `linear.rs`).
static CAP_FLOORED: Counter = Counter::new("sim.stamp.cap_floored");
/// Newton iterations summed over all solves and continuation steps.
static DC_NEWTON_ITERS: Counter = Counter::new("sim.dc.newton_iters");
/// Solves that exhausted the whole continuation ladder.
static DC_FAILURES: Counter = Counter::new("sim.dc.failures");

/// Options for the DC solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Conductance from every node to ground (S); keeps the matrix
    /// well-conditioned with ideal current sources and off transistors.
    pub gmin: f64,
    /// Maximum Newton iterations per continuation step.
    pub max_iter: usize,
    /// Convergence tolerance on voltage updates (V) and KCL residuals (A).
    pub tol: f64,
    /// Maximum node-voltage change per Newton iteration (V).
    pub damping: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        Self {
            gmin: 1e-12,
            max_iter: 200,
            tol: 1e-9,
            damping: 0.3,
        }
    }
}

/// A solved DC operating point.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// Node voltages indexed by [`crate::netlist::NodeId`] (ground included
    /// as entry 0, always 0 V).
    pub v: Vec<f64>,
    /// Branch currents of the voltage sources, in netlist order. The
    /// current flows *into* the positive terminal through the source.
    pub branch_currents: Vec<f64>,
    /// Operating point of every MOS instance, by name.
    pub mos_ops: HashMap<String, MosOp>,
    /// Newton iterations spent (summed over continuation steps).
    pub iterations: usize,
}

impl DcSolution {
    /// Voltage of a named node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist in `circuit`.
    pub fn voltage(&self, circuit: &Circuit, node: &str) -> f64 {
        let id = circuit
            .find_node(node)
            .unwrap_or_else(|| panic!("no node named `{node}` in circuit"));
        self.v[id]
    }

    /// Operating point of a named MOS instance, if present.
    pub fn mos_op(&self, name: &str) -> Option<&MosOp> {
        self.mos_ops.get(name)
    }

    /// Render an operating-point report: one row per MOS instance with
    /// its current, region, transconductance, output conductance and
    /// gm/ID — the table a designer inspects after every DC solve.
    pub fn report(&self, circuit: &Circuit) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12} {:>10} {:>10} {:>8}",
            "device", "region", "id (uA)", "gm (uS)", "gds (uS)", "gm/id"
        );
        let mut names: Vec<&String> = self.mos_ops.keys().collect();
        names.sort();
        for name in names {
            let op = &self.mos_ops[name];
            let _ = writeln!(
                out,
                "{name:<10} {:>10} {:>12.2} {:>10.1} {:>10.2} {:>8.1}",
                format!("{:?}", op.region),
                op.id * 1e6,
                op.gm * 1e6,
                op.gds * 1e6,
                op.gm_over_id()
            );
        }
        let mut k = 0;
        for e in circuit.elements() {
            if let Element::Vsource(v) = e {
                let _ = writeln!(
                    out,
                    "V({}) = {:.4} V, I = {:.2} uA",
                    v.name,
                    v.dc,
                    -self.branch_currents[k] * 1e6
                );
                k += 1;
            }
        }
        out
    }

    /// Total current drawn from a named voltage source (A, positive =
    /// the source delivers current from its + terminal).
    ///
    /// # Panics
    ///
    /// Panics if the source does not exist.
    pub fn supply_current(&self, circuit: &Circuit, source: &str) -> f64 {
        let mut idx = 0;
        for e in circuit.elements() {
            if let Element::Vsource(v) = e {
                if v.name == source {
                    return -self.branch_currents[idx];
                }
                idx += 1;
            }
        }
        panic!("no voltage source named `{source}`");
    }
}

/// DC analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum DcError {
    /// The Newton iteration did not converge even with continuation.
    NoConvergence {
        /// Residual norm at the best point reached.
        residual: f64,
    },
    /// The MNA matrix is singular (floating node, source loop, …).
    Singular(SingularMatrix),
    /// The netlist failed validation.
    BadNetlist(String),
    /// The solve was interrupted by the installed
    /// [`crate::interrupt::SimInterrupt`] (stop flag or deadline) — not a
    /// numerical failure, so callers must not retry or fall back.
    Interrupted(Interrupted),
}

impl fmt::Display for DcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcError::NoConvergence { residual } => {
                write!(f, "dc analysis did not converge (residual {residual:e})")
            }
            DcError::Singular(s) => write!(f, "dc analysis failed: {s}"),
            DcError::BadNetlist(m) => write!(f, "dc analysis rejected netlist: {m}"),
            DcError::Interrupted(i) => write!(f, "dc analysis interrupted: {i}"),
        }
    }
}

impl std::error::Error for DcError {}

/// Index helpers shared by the analyses.
#[derive(Debug)]
pub(crate) struct Unknowns {
    /// Number of non-ground nodes.
    pub n_nodes: usize,
    /// Unknown-vector offset of the first voltage-source branch current.
    pub nv_offset: usize,
    /// Total unknown count.
    pub total: usize,
}

impl Unknowns {
    pub fn of(circuit: &Circuit) -> Self {
        let n_nodes = circuit.num_nodes() - 1;
        let nv = circuit.num_vsources();
        Self {
            n_nodes,
            nv_offset: n_nodes,
            total: n_nodes + nv,
        }
    }

    /// Row/column index of a node, or `None` for ground.
    pub fn node(&self, id: usize) -> Option<usize> {
        if id == GROUND {
            None
        } else {
            Some(id - 1)
        }
    }
}

/// Voltage of node `id` in the unknown vector (ground = 0).
fn v_of(x: &[f64], u: &Unknowns, id: usize) -> f64 {
    match u.node(id) {
        None => 0.0,
        Some(i) => x[i],
    }
}

/// The analysis a Newton solve serves.
pub(crate) enum AssembleMode<'a> {
    /// DC: capacitors open, sources scaled by `src_scale`.
    Dc {
        /// Source-stepping continuation scale in [0, 1].
        src_scale: f64,
    },
    /// One backward-Euler transient step of size `h` ending at `time`,
    /// starting from the converged unknown vector `x_prev`.
    Tran {
        /// Step size (s).
        h: f64,
        /// Previous unknown vector.
        x_prev: &'a [f64],
        /// Absolute time at the end of the step (s).
        time: f64,
    },
}

// Quantity layout of a stamp program: gmin and the unit incidence of the
// voltage-source branches, then each element's own quantities from its
// base offset, in element order.
pub(crate) const GMIN: usize = 0;
pub(crate) const ONE: usize = 1;
pub(crate) const FIRST_ELEMENT: usize = 2;
// A MOSFET's quantities, from its base: conductances, then capacitances.
const GM: usize = 0;
const GDS: usize = 1;
const GMB: usize = 2;
const GS: usize = 3;
pub(crate) const CGS: usize = 4;

/// Number of quantities `e` owns.
pub(crate) fn quantities(e: &Element) -> usize {
    match e {
        Element::Resistor { .. } | Element::Capacitor { .. } => 1,
        Element::Mos(_) => CGS + 5,
        Element::Vsource(_) | Element::Isource(_) => 0,
    }
}

/// Terminal pairs of a MOSFET's capacitances `cgs, cgd, cgb, cdb, csb`,
/// which are its quantities `CGS..CGS + 5`.
pub(crate) fn mos_cap_nodes(m: &MosInstance) -> [(NodeId, NodeId); 5] {
    [(m.g, m.s), (m.g, m.d), (m.g, m.b), (m.d, m.b), (m.s, m.b)]
}

/// A MOSFET's capacitances at operating point `op` with terminal voltages
/// `vd, vs, vb`, in [`mos_cap_nodes`] order: intrinsic, then junction.
pub(crate) fn mos_caps(m: &MosInstance, op: &MosOp, vd: f64, vs: f64, vb: f64) -> [f64; 5] {
    let ic = intrinsic_caps(&m.dev, op);
    let sign = m.dev.params.polarity.sign();
    let cdb = m
        .junction
        .capacitance(m.drain_geom.area, m.drain_geom.perimeter, sign * (vd - vb));
    let csb = m.junction.capacitance(
        m.source_geom.area,
        m.source_geom.perimeter,
        sign * (vs - vb),
    );
    [ic.cgs, ic.cgd, ic.cgb, cdb, csb]
}

/// Write a MOSFET's small-signal conductances into its quantities.
pub(crate) fn set_mos_conductances(q: &mut [f64], base: usize, op: &MosOp) {
    let (gm, gds, gmb) = (op.gm, op.gds, op.gmb);
    q[base + GM] = gm;
    q[base + GDS] = gds;
    q[base + GMB] = gmb;
    q[base + GS] = -(gm + gds + gmb);
}

/// Compile `circuit`'s MNA Jacobian from its structure alone: gmin on
/// every node, then each element's stamps in element order. The order is
/// the order of the additions into each entry, so it fixes the Jacobian's
/// rounding. Capacitance stamps are included (and tagged) only with
/// `caps`: a DC pattern leaves them out.
///
/// The stamp positions depend only on element kinds and node ids, never
/// on values, so the program serves every Newton iteration, continuation
/// step and time step on this circuit. Capacitances that evaluate to zero
/// still have their stamps, so a bias point cannot shrink the structure.
pub(crate) fn compile(circuit: &Circuit, u: &Unknowns, caps: bool) -> StampProgram {
    let nq = FIRST_ELEMENT + circuit.elements().iter().map(quantities).sum::<usize>();
    let mut p = StampProgram::new(u.total, u.nv_offset, nq);
    // A conductance-like stamp of quantity `src` between nodes `a` and `b`.
    let two_terminal = |p: &mut StampProgram, a: NodeId, b: NodeId, src: usize, cap: bool| {
        let (ia, ib) = (u.node(a), u.node(b));
        if let Some(ia) = ia {
            p.push(ia, ia, src, false, cap);
            if let Some(ib) = ib {
                p.push(ia, ib, src, true, cap);
            }
        }
        if let Some(ib) = ib {
            p.push(ib, ib, src, false, cap);
            if let Some(ia) = ia {
                p.push(ib, ia, src, true, cap);
            }
        }
    };
    for i in 0..u.n_nodes {
        p.push(i, i, GMIN, false, false);
    }
    let mut base = FIRST_ELEMENT;
    let mut row = u.nv_offset;
    for e in circuit.elements() {
        match e {
            Element::Resistor { a, b, .. } => two_terminal(&mut p, *a, *b, base, false),
            Element::Capacitor { a, b, .. } if caps => two_terminal(&mut p, *a, *b, base, true),
            Element::Capacitor { .. } | Element::Isource(_) => {}
            Element::Vsource(vs) => {
                // Branch equation v_pos − v_neg − V = 0; the branch current
                // flows into the + terminal.
                if let Some(ip) = u.node(vs.pos) {
                    p.push(row, ip, ONE, false, false);
                    p.push(ip, row, ONE, false, false);
                }
                if let Some(in_) = u.node(vs.neg) {
                    p.push(row, in_, ONE, true, false);
                    p.push(in_, row, ONE, true, false);
                }
                row += 1;
            }
            Element::Mos(m) => {
                let (nd, ng, ns, nb) = (u.node(m.d), u.node(m.g), u.node(m.s), u.node(m.b));
                for (r, neg) in [(nd, false), (ns, true)] {
                    let Some(r) = r else { continue };
                    for (c, k) in [(ng, GM), (nd, GDS), (nb, GMB), (ns, GS)] {
                        if let Some(c) = c {
                            p.push(r, c, base + k, neg, false);
                        }
                    }
                }
                if caps {
                    for (k, (a, b)) in mos_cap_nodes(m).into_iter().enumerate() {
                        two_terminal(&mut p, a, b, base + CGS + k, true);
                    }
                }
            }
        }
        base += quantities(e);
    }
    p
}

/// Fill the residual `f` and the quantity array `q` at point `x`: the
/// per-iteration half of an assembly, whose other half is the program.
/// `q` must have the program's length.
#[allow(clippy::too_many_arguments)]
fn fill(
    circuit: &Circuit,
    u: &Unknowns,
    x: &[f64],
    gmin: f64,
    mode: &AssembleMode<'_>,
    q: &mut [f64],
    f: &mut Vec<f64>,
    batch: &mut MosBatch,
) {
    f.clear();
    f.resize(u.total, 0.0);

    // Device-model pre-pass: stage every MOSFET's bias, then evaluate the
    // whole set in one batched call over flat arrays (the transcendental
    // hot spot of a Newton assembly — cost shares in DESIGN §6j). The batch
    // also caches the bias-independent per-device precomputation across
    // iterations; results are bit-identical to per-device evaluation. The
    // circuit's analysis temperature is part of each slot's cache key, so
    // a scenario change between solves can never serve a stale
    // precomputation.
    batch.begin_at(circuit.temperature());
    for e in circuit.elements() {
        if let Element::Mos(m) = e {
            let vg = v_of(x, u, m.g);
            let vs = v_of(x, u, m.s);
            let vd = v_of(x, u, m.d);
            let vb = v_of(x, u, m.b);
            batch.bias(&m.dev, vg - vs, vd - vs, vb - vs);
        }
    }
    batch.evaluate_all();
    let mut mos_idx = 0usize;

    q[GMIN] = gmin;
    q[ONE] = 1.0;
    for i in 0..u.n_nodes {
        f[i] += gmin * x[i];
    }

    // Backward-Euler companion of a capacitor `farads` between nodes a, b:
    // its current into the residual, its conductance `C/h` into `q[k]`.
    let cap = |q: &mut [f64], f: &mut [f64], k: usize, a: NodeId, b: NodeId, farads: f64| {
        let AssembleMode::Tran { h, x_prev, .. } = mode else {
            return; // open at DC
        };
        let farads = if farads < 0.0 {
            CAP_FLOORED.incr();
            0.0
        } else {
            farads
        };
        let geq = farads / h;
        let v_now = v_of(x, u, a) - v_of(x, u, b);
        let v_old = v_of(x_prev, u, a) - v_of(x_prev, u, b);
        let i_c = geq * (v_now - v_old);
        if let Some(ia) = u.node(a) {
            f[ia] += i_c;
        }
        if let Some(ib) = u.node(b) {
            f[ib] -= i_c;
        }
        q[k] = geq;
    };

    let mut base = FIRST_ELEMENT;
    let mut row = u.nv_offset;
    for e in circuit.elements() {
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                let g = 1.0 / ohms;
                let i = g * (v_of(x, u, *a) - v_of(x, u, *b));
                if let Some(ia) = u.node(*a) {
                    f[ia] += i;
                }
                if let Some(ib) = u.node(*b) {
                    f[ib] -= i;
                }
                q[base] = g;
            }
            Element::Capacitor { a, b, farads, .. } => cap(q, f, base, *a, *b, *farads),
            Element::Vsource(vs) => {
                let value = match mode {
                    AssembleMode::Dc { src_scale } => vs.dc * src_scale,
                    AssembleMode::Tran { time, .. } => vs.waveform.value(vs.dc, *time),
                };
                f[row] = v_of(x, u, vs.pos) - v_of(x, u, vs.neg) - value;
                if let Some(ip) = u.node(vs.pos) {
                    f[ip] += x[row];
                }
                if let Some(in_) = u.node(vs.neg) {
                    f[in_] -= x[row];
                }
                row += 1;
            }
            Element::Isource(is) => {
                let scale = match mode {
                    AssembleMode::Dc { src_scale } => *src_scale,
                    AssembleMode::Tran { .. } => 1.0,
                };
                let i = is.dc * scale;
                if let Some(ifrom) = u.node(is.from) {
                    f[ifrom] += i;
                }
                if let Some(ito) = u.node(is.to) {
                    f[ito] -= i;
                }
            }
            Element::Mos(m) => {
                // Evaluated in the pre-pass; the element loop visits the
                // MOSFETs in the same order it staged them.
                let op = *batch.op(mos_idx);
                mos_idx += 1;
                let i_d = m.dev.params.polarity.sign() * op.id; // into the drain
                if let Some(r) = u.node(m.d) {
                    f[r] += i_d;
                }
                if let Some(r) = u.node(m.s) {
                    f[r] -= i_d;
                }
                set_mos_conductances(q, base, &op);
                // In transient mode the device capacitances integrate too.
                if matches!(mode, AssembleMode::Tran { .. }) {
                    let (vd, vs, vb) = (v_of(x, u, m.d), v_of(x, u, m.s), v_of(x, u, m.b));
                    let caps = mos_caps(m, &op, vd, vs, vb);
                    for (k, ((a, b), c)) in mos_cap_nodes(m).into_iter().zip(caps).enumerate() {
                        cap(q, f, base + CGS + k, a, b, c);
                    }
                }
            }
        }
        base += quantities(e);
    }
}

/// Reusable state for the Newton loop on one circuit: its compiled stamp
/// program (which owns the sparse pattern, built on first use — one
/// symbolic analysis per DC solve, per whole transient run, or per
/// [`DcSession`] structure), the quantity array, the dense Jacobian
/// fallback (factored in place — the next scatter rebuilds it), pivot
/// vector, residual, negated right-hand side and update vector. The
/// inner loop allocates and copies nothing.
#[derive(Debug, Default)]
pub(crate) struct NewtonScratch {
    program: StampProgram,
    q: Vec<f64>,
    j: Matrix<f64>,
    f: Vec<f64>,
    perm: Vec<usize>,
    rhs: Vec<f64>,
    dx: Vec<f64>,
    /// Batched device-model evaluator: caches one precomputation block
    /// per MOSFET slot across every assembly of the scratch's lifetime.
    batch: MosBatch,
    /// Set when the sparse kernel hit a pivot breakdown: the rest of this
    /// solve runs on the pivoted dense kernel.
    sparse_fallback: bool,
}

impl NewtonScratch {
    /// Start a solve of `circuit` — a DC solve, or a `transient` run whose
    /// program has capacitance stamps — on a possibly reused scratch.
    ///
    /// The circuit is compiled afresh; the cached sparse pattern is kept
    /// only if the new program stamps the same positions. A pivot
    /// breakdown demotes the remainder of *one solve* to the dense
    /// kernel, not every later solve of a long-lived [`DcSession`] —
    /// matching the one-shot entry points, which start from a new scratch.
    pub(crate) fn prepare(&mut self, circuit: &Circuit, u: &Unknowns, transient: bool) {
        let mut program = compile(circuit, u, transient);
        program.reuse_pattern(&mut self.program);
        self.program = program;
        self.q.resize(self.program.quantities(), 0.0);
        self.sparse_fallback = false;
    }
}

/// One damped Newton solve.
///
/// Returns the solution vector and the iterations used.
pub(crate) fn newton(
    circuit: &Circuit,
    u: &Unknowns,
    x0: &[f64],
    gmin: f64,
    mode: &AssembleMode<'_>,
    opts: &DcOptions,
    scratch: &mut NewtonScratch,
) -> Result<(Vec<f64>, usize), DcError> {
    let mut x = x0.to_vec();
    let mut last_residual = f64::INFINITY;
    for iter in 0..opts.max_iter {
        // Budget/cancellation hole fix: a stuck iteration must notice the
        // job's stop flag or deadline here, not at the next phase boundary.
        crate::interrupt::poll().map_err(DcError::Interrupted)?;
        #[cfg(feature = "failpoints")]
        if let Some(action) = losac_obs::failpoint::hit("sim.dc.newton") {
            return Err(match action {
                losac_obs::failpoint::FailAction::Nan => {
                    DcError::NoConvergence { residual: f64::NAN }
                }
                _ => DcError::Singular(SingularMatrix { column: usize::MAX }),
            });
        }
        fill(
            circuit,
            u,
            &x,
            gmin,
            mode,
            &mut scratch.q,
            &mut scratch.f,
            &mut scratch.batch,
        );
        last_residual = scratch.f.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        scratch.rhs.clear();
        scratch.rhs.extend(scratch.f.iter().map(|&v| -v));
        // Sparse first: scatter into the program's value slots, numeric-
        // only refactorisation. Pivot breakdown (no pivoting in the sparse
        // kernel) demotes this solve to the dense pivoted path — whose own
        // failure is what decides `Singular`, keeping error semantics
        // identical to the dense-only solver.
        let mut solved = false;
        if !scratch.sparse_fallback {
            match scratch.program.factor(&scratch.q) {
                Ok(()) => {
                    scratch.program.solve_into(&scratch.rhs, &mut scratch.dx);
                    solved = true;
                }
                Err(_) => {
                    crate::sparse::record_sparse_fallback();
                    scratch.sparse_fallback = true;
                }
            }
        }
        if !solved {
            scratch
                .program
                .scatter_dense(&scratch.q, &mut scratch.j, None);
            scratch
                .j
                .factor_in_place(&mut scratch.perm)
                .map_err(DcError::Singular)?;
            scratch
                .j
                .solve_factored(&scratch.perm, &scratch.rhs, &mut scratch.dx);
        }
        let dx = &scratch.dx;
        // Damping on the node-voltage part.
        let max_dv = dx[..u.n_nodes]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b.abs()))
            .max(f64::MIN_POSITIVE);
        let scale = (opts.damping / max_dv).min(1.0);
        for (xi, di) in x.iter_mut().zip(dx.iter()) {
            *xi += di * scale;
        }
        let conv_dv = dx[..u.n_nodes].iter().all(|&d| d.abs() < opts.tol);
        let conv_f = last_residual < opts.tol.max(1e-12);
        if conv_dv && conv_f && scale == 1.0 {
            DC_NEWTON_ITERS.add((iter + 1) as u64);
            return Ok((x, iter + 1));
        }
    }
    DC_NEWTON_ITERS.add(opts.max_iter as u64);
    Err(DcError::NoConvergence {
        residual: last_residual,
    })
}

/// Solve the DC operating point of `circuit`.
///
/// # Errors
///
/// Returns [`DcError`] when the netlist is invalid, the matrix is
/// structurally singular, or no continuation strategy converges.
pub fn dc_operating_point(circuit: &Circuit, opts: &DcOptions) -> Result<DcSolution, DcError> {
    DcSession::new().solve(circuit, opts)
}

/// Reusable solver state for repeated DC solves of one circuit
/// structure — a bias bisection, a `.dc` sweep, a corner loop.
///
/// The session carries the Newton scratch (the compiled stamp program
/// with its sparse pattern, Jacobian storage, device-model caches) across
/// solves, so the fill-reducing ordering is computed once and every later
/// solve scatters numeric values only. Results are bitwise identical to
/// the one-shot entry points, which are themselves single-solve sessions.
///
/// Any circuit may be passed to a session. Each solve compiles the
/// circuit's program and compares its stamp positions with the cached
/// one's, exactly: equal positions keep the pattern, anything else (other
/// wiring, another unknown count) runs a new symbolic analysis.
#[derive(Debug, Default)]
pub struct DcSession {
    scratch: NewtonScratch,
}

impl DcSession {
    /// A fresh session with no cached structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`dc_operating_point`], reusing this session's cached solver state.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`dc_operating_point`].
    pub fn solve(&mut self, circuit: &Circuit, opts: &DcOptions) -> Result<DcSolution, DcError> {
        let _span = losac_obs::span("sim.dc.solve");
        DC_SOLVES.incr();
        circuit
            .validate()
            .map_err(|e| DcError::BadNetlist(e.to_string()))?;
        let u = Unknowns::of(circuit);
        let x0 = vec![0.0; u.total];

        // Ladder: plain Newton → gmin stepping → source stepping.
        let mut total_iter = 0usize;
        let scratch = &mut self.scratch;
        let mode = AssembleMode::Dc { src_scale: 1.0 };
        scratch.prepare(circuit, &u, false);
        let attempt = newton(circuit, &u, &x0, opts.gmin, &mode, opts, scratch);
        let x = match attempt {
            Ok((x, it)) => {
                total_iter += it;
                x
            }
            Err(DcError::Singular(s)) => {
                DC_FAILURES.incr();
                return Err(DcError::Singular(s));
            }
            // Interruption is not a numerical failure: propagate immediately
            // instead of burning the remaining budget on the continuation
            // ladder (and keep it out of the failure counter).
            Err(e @ DcError::Interrupted(_)) => return Err(e),
            Err(_) => gmin_then_source_stepping(circuit, &u, &x0, opts, &mut total_iter, scratch)
                .inspect_err(|e| {
                if !matches!(e, DcError::Interrupted(_)) {
                    DC_FAILURES.incr();
                }
            })?,
        };

        Ok(package(circuit, &u, x, total_iter))
    }

    /// [`dc_from_previous`], reusing this session's cached solver state.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`dc_operating_point`].
    pub fn solve_from(
        &mut self,
        circuit: &Circuit,
        previous: &DcSolution,
        opts: &DcOptions,
    ) -> Result<DcSolution, DcError> {
        DC_SOLVES.incr();
        let u = Unknowns::of(circuit);
        let n = circuit.num_nodes();
        let mut x0 = vec![0.0; u.total];
        x0[..n - 1].copy_from_slice(&previous.v[1..]);
        for (k, i) in previous.branch_currents.iter().enumerate() {
            x0[u.nv_offset + k] = *i;
        }
        let mut total_iter = 0usize;
        let scratch = &mut self.scratch;
        let mode = AssembleMode::Dc { src_scale: 1.0 };
        scratch.prepare(circuit, &u, false);
        let x = match newton(circuit, &u, &x0, opts.gmin, &mode, opts, scratch) {
            Ok((x, it)) => {
                total_iter += it;
                x
            }
            Err(DcError::Singular(s)) => {
                DC_FAILURES.incr();
                return Err(DcError::Singular(s));
            }
            Err(e @ DcError::Interrupted(_)) => return Err(e),
            Err(_) => gmin_then_source_stepping(circuit, &u, &x0, opts, &mut total_iter, scratch)
                .inspect_err(|e| {
                if !matches!(e, DcError::Interrupted(_)) {
                    DC_FAILURES.incr();
                }
            })?,
        };
        Ok(package(circuit, &u, x, total_iter))
    }
}

/// Re-solve starting from a previous solution (used by sweeps: much faster
/// and keeps the solver on the same branch for bistable circuits).
///
/// # Errors
///
/// Same failure modes as [`dc_operating_point`].
pub fn dc_from_previous(
    circuit: &Circuit,
    previous: &DcSolution,
    opts: &DcOptions,
) -> Result<DcSolution, DcError> {
    DcSession::new().solve_from(circuit, previous, opts)
}

/// Sweep the DC value of a named voltage source, re-solving with warm
/// starts (the classic `.dc` analysis). The source is restored to its
/// original value afterwards.
///
/// # Errors
///
/// Returns the first solve failure, or a netlist error when the source
/// does not exist.
pub fn dc_sweep(
    circuit: &mut Circuit,
    source: &str,
    values: &[f64],
    opts: &DcOptions,
) -> Result<Vec<DcSolution>, DcError> {
    let original = circuit
        .elements()
        .iter()
        .find_map(|e| match e {
            Element::Vsource(v) if v.name == source => Some(v.dc),
            _ => None,
        })
        .ok_or_else(|| DcError::BadNetlist(format!("no voltage source named `{source}`")))?;
    let mut out: Vec<DcSolution> = Vec::with_capacity(values.len());
    // One session across the sweep: only the source value changes, so the
    // sparse pattern (and its symbolic analysis) is computed exactly once.
    let mut session = DcSession::new();
    for &v in values {
        circuit
            .set_vsource_dc(source, v)
            .map_err(|e| DcError::BadNetlist(e.to_string()))?;
        // Warm-start from the last solution already in `out` — no clone
        // of the full `DcSolution` per step.
        let sol = match out.last() {
            Some(p) => session.solve_from(circuit, p, opts)?,
            None => session.solve(circuit, opts)?,
        };
        out.push(sol);
    }
    circuit
        .set_vsource_dc(source, original)
        .map_err(|e| DcError::BadNetlist(e.to_string()))?;
    Ok(out)
}

fn gmin_then_source_stepping(
    circuit: &Circuit,
    u: &Unknowns,
    x0: &[f64],
    opts: &DcOptions,
    total_iter: &mut usize,
    scratch: &mut NewtonScratch,
) -> Result<Vec<f64>, DcError> {
    // gmin stepping.
    let mut x = x0.to_vec();
    let mut ok = true;
    for exp in 3..=12 {
        let gmin = 10f64.powi(-exp);
        match newton(
            circuit,
            u,
            &x,
            gmin,
            &AssembleMode::Dc { src_scale: 1.0 },
            opts,
            scratch,
        ) {
            Ok((xn, it)) => {
                *total_iter += it;
                x = xn;
            }
            // An interrupted rung ends the whole ladder — falling through
            // to source stepping would keep computing past the deadline.
            Err(e @ DcError::Interrupted(_)) => return Err(e),
            Err(_) => {
                ok = false;
                break;
            }
        }
    }
    if ok {
        return Ok(x);
    }
    // Source stepping.
    let mut x = x0.to_vec();
    let steps = 20;
    for k in 1..=steps {
        let scale = k as f64 / steps as f64;
        let (xn, it) = newton(
            circuit,
            u,
            &x,
            opts.gmin.max(1e-9),
            &AssembleMode::Dc { src_scale: scale },
            opts,
            scratch,
        )?;
        *total_iter += it;
        x = xn;
    }
    // Final polish at nominal gmin.
    let (xn, it) = newton(
        circuit,
        u,
        &x,
        opts.gmin,
        &AssembleMode::Dc { src_scale: 1.0 },
        opts,
        scratch,
    )?;
    *total_iter += it;
    Ok(xn)
}

fn package(circuit: &Circuit, u: &Unknowns, x: Vec<f64>, iterations: usize) -> DcSolution {
    let n = circuit.num_nodes();
    let mut v = vec![0.0; n];
    v[1..].copy_from_slice(&x[..n - 1]);
    let mut branch_currents = Vec::new();
    let mut mos_ops = HashMap::new();
    let mut vsrc_idx = 0;
    for e in circuit.elements() {
        match e {
            Element::Vsource(_) => {
                branch_currents.push(x[u.nv_offset + vsrc_idx]);
                vsrc_idx += 1;
            }
            Element::Mos(m) => {
                let op = evaluate_at(
                    &m.dev,
                    v[m.g] - v[m.s],
                    v[m.d] - v[m.s],
                    v[m.b] - v[m.s],
                    circuit.temperature(),
                );
                mos_ops.insert(m.name.clone(), op);
            }
            _ => {}
        }
    }
    DcSolution {
        v,
        branch_currents,
        mos_ops,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::DiffGeom;
    use losac_device::Mosfet;
    use losac_tech::Technology;

    fn solve(c: &Circuit) -> DcSolution {
        dc_operating_point(c, &DcOptions::default()).unwrap()
    }

    /// The dense Jacobian and residual at point `x`.
    fn assemble(
        circuit: &Circuit,
        u: &Unknowns,
        x: &[f64],
        gmin: f64,
        mode: &AssembleMode<'_>,
    ) -> (Matrix<f64>, Vec<f64>) {
        let mut s = NewtonScratch::default();
        s.prepare(circuit, u, matches!(mode, AssembleMode::Tran { .. }));
        fill(circuit, u, x, gmin, mode, &mut s.q, &mut s.f, &mut s.batch);
        s.program.scatter_dense(&s.q, &mut s.j, None);
        (s.j, s.f)
    }

    #[test]
    #[ignore = "diagnostic timing breakdown, run with --ignored --nocapture"]
    fn newton_iteration_cost_breakdown() {
        // Rough per-phase cost of one Newton iteration on a mid-size MOS
        // circuit: the fill (batched model eval, residual, quantities),
        // the scatter with the numeric refactorisation, and the solve.
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.vsource("vb", "bias", "0", 1.2);
        for i in 0..13 {
            let d = format!("d{i}");
            c.resistor(&format!("r{i}"), "vdd", &d, 30e3 + i as f64 * 1e3);
            c.mos(
                &format!("m{i}"),
                &d,
                "bias",
                "0",
                "0",
                Mosfet::new(t.nmos, 10e-6 + i as f64 * 2e-6, 0.8e-6),
                t.caps.ndiff,
                Default::default(),
                Default::default(),
            );
        }
        let u = Unknowns::of(&c);
        let x = vec![0.5; u.total];
        let mode = AssembleMode::Dc { src_scale: 1.0 };
        let mut s = NewtonScratch::default();
        s.prepare(&c, &u, false);
        let reps = 20000;
        let time = |f: &mut dyn FnMut()| {
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64 * 1e9
        };
        let t_fill = time(&mut || {
            fill(&c, &u, &x, 1e-12, &mode, &mut s.q, &mut s.f, &mut s.batch);
        });
        let t_fac = time(&mut || s.program.factor(&s.q).unwrap());
        s.rhs.clear();
        s.rhs.extend(s.f.iter().map(|&v| -v));
        let t_sol = time(&mut || s.program.solve_into(&s.rhs, &mut s.dx));
        // Model-eval share of the fill.
        let t_model = time(&mut || {
            s.batch.begin();
            for e in c.elements() {
                if let Element::Mos(m) = e {
                    s.batch.bias(&m.dev, 1.2, 0.9, 0.0);
                }
            }
            s.batch.evaluate_all();
        });
        println!(
            "fill {t_fill:.0} ns (model {t_model:.0} ns), scatter + factor {t_fac:.0} ns, \
             solve {t_sol:.0} ns"
        );
    }

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        c.vsource("v1", "in", "0", 2.0);
        c.resistor("r1", "in", "mid", 1e3);
        c.resistor("r2", "mid", "0", 1e3);
        let s = solve(&c);
        assert!((s.voltage(&c, "mid") - 1.0).abs() < 1e-9);
        // Branch current flows into the + terminal: −1 mA here, so the
        // supply delivers +1 mA.
        assert!((s.branch_currents[0] + 1e-3).abs() < 1e-9);
        assert!((s.supply_current(&c, "v1") - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        c.isource("i1", "0", "out", 1e-3);
        c.resistor("r1", "out", "0", 1e3);
        let s = solve(&c);
        assert!((s.voltage(&c, "out") - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floating_node_held_by_gmin() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 1.0);
        c.resistor("r1", "a", "b", 1e3);
        c.capacitor("c1", "b", "c", 1e-12);
        c.resistor("r2", "b", "0", 1e3);
        let s = solve(&c);
        assert!(s.voltage(&c, "c").abs() < 1e-6);
    }

    #[test]
    fn diode_connected_nmos() {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.resistor("r1", "vdd", "d", 33e3); // ~70 µA available
        c.mos(
            "m1",
            "d",
            "d",
            "0",
            "0",
            Mosfet::new(t.nmos, 20e-6, 1e-6),
            t.caps.ndiff,
            Default::default(),
            Default::default(),
        );
        let s = solve(&c);
        let vd = s.voltage(&c, "d");
        assert!(vd > 0.8 && vd < 1.4, "v(d) = {vd}");
        let op = s.mos_op("m1").unwrap();
        let ir = (3.3 - vd) / 33e3;
        assert!((op.id - ir).abs() < 1e-8, "id = {:e}, ir = {ir:e}", op.id);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.vsource("vg", "g", "0", 1.0);
        c.resistor("rl", "vdd", "out", 20e3);
        c.mos(
            "m1",
            "out",
            "g",
            "0",
            "0",
            Mosfet::new(t.nmos, 10e-6, 1e-6),
            t.caps.ndiff,
            Default::default(),
            Default::default(),
        );
        let s = solve(&c);
        let vout = s.voltage(&c, "out");
        assert!(vout > 0.2 && vout < 3.2, "vout = {vout}");
        let op = s.mos_op("m1").unwrap();
        assert!((op.id - (3.3 - vout) / 20e3).abs() < 1e-8);
    }

    #[test]
    fn pmos_source_follower() {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.vsource("vg", "g", "0", 1.5);
        c.mos(
            "m1",
            "0",
            "g",
            "out",
            "vdd",
            Mosfet::new(t.pmos, 30e-6, 1e-6),
            t.caps.pdiff,
            Default::default(),
            Default::default(),
        );
        c.resistor("rbias", "vdd", "out", 50e3);
        let s = solve(&c);
        let vout = s.voltage(&c, "out");
        assert!(vout > 2.0 && vout < 3.3, "vout = {vout}");
        let op = s.mos_op("m1").unwrap();
        assert!(op.id > 0.0, "PMOS conducts, id = {:e}", op.id);
    }

    #[test]
    fn cmos_inverter_transfer_endpoints() {
        let t = Technology::cmos06();
        let build = |vin: f64| {
            let mut c = Circuit::new();
            c.vsource("vdd", "vdd", "0", 3.3);
            c.vsource("vin", "in", "0", vin);
            c.mos(
                "mn",
                "out",
                "in",
                "0",
                "0",
                Mosfet::new(t.nmos, 4e-6, 0.6e-6),
                t.caps.ndiff,
                Default::default(),
                Default::default(),
            );
            c.mos(
                "mp",
                "out",
                "in",
                "vdd",
                "vdd",
                Mosfet::new(t.pmos, 8e-6, 0.6e-6),
                t.caps.pdiff,
                Default::default(),
                Default::default(),
            );
            c
        };
        let lo = build(0.0);
        let hi = build(3.3);
        assert!(solve(&lo).voltage(&lo, "out") > 3.2);
        assert!(solve(&hi).voltage(&hi, "out") < 0.1);
    }

    #[test]
    fn singular_loop_of_vsources_detected() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 1.0);
        c.vsource("v2", "a", "0", 2.0);
        let err = dc_operating_point(&c, &DcOptions::default()).unwrap_err();
        assert!(matches!(err, DcError::Singular(_)), "got {err}");
    }

    #[test]
    fn invalid_netlist_rejected() {
        let c = Circuit::new();
        let err = dc_operating_point(&c, &DcOptions::default()).unwrap_err();
        assert!(matches!(err, DcError::BadNetlist(_)));
    }

    #[test]
    fn expired_deadline_interrupts_the_solve() {
        use crate::interrupt::{install, SimInterrupt};
        use std::time::{Duration, Instant};
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 1.0);
        c.resistor("r1", "a", "0", 1e3);
        let _g =
            install(SimInterrupt::new().with_deadline(Instant::now() - Duration::from_millis(1)));
        let err = dc_operating_point(&c, &DcOptions::default()).unwrap_err();
        assert_eq!(err, DcError::Interrupted(Interrupted::TimedOut));
    }

    #[test]
    fn raised_stop_flag_cancels_the_solve() {
        use crate::interrupt::{install, SimInterrupt};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 1.0);
        c.resistor("r1", "a", "0", 1e3);
        let _g = install(SimInterrupt::new().with_stop(Arc::new(AtomicBool::new(true))));
        let err = dc_operating_point(&c, &DcOptions::default()).unwrap_err();
        assert_eq!(err, DcError::Interrupted(Interrupted::Cancelled));
    }

    #[test]
    fn warm_restart_is_fast() {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.vsource("vg", "g", "0", 1.0);
        c.resistor("rl", "vdd", "out", 20e3);
        c.mos(
            "m1",
            "out",
            "g",
            "0",
            "0",
            Mosfet::new(t.nmos, 10e-6, 1e-6),
            t.caps.ndiff,
            Default::default(),
            Default::default(),
        );
        let s1 = solve(&c);
        c.set_vsource_dc("vg", 1.01).unwrap();
        let s2 = dc_from_previous(&c, &s1, &DcOptions::default()).unwrap();
        assert!(
            s2.iterations <= s1.iterations,
            "{} > {}",
            s2.iterations,
            s1.iterations
        );
    }

    #[test]
    fn report_lists_devices_and_sources() {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.vsource("vg", "g", "0", 1.0);
        c.resistor("rl", "vdd", "out", 20e3);
        c.mos(
            "m1",
            "out",
            "g",
            "0",
            "0",
            Mosfet::new(t.nmos, 10e-6, 1e-6),
            t.caps.ndiff,
            Default::default(),
            Default::default(),
        );
        let s = solve(&c);
        let rep = s.report(&c);
        assert!(rep.contains("m1"));
        assert!(rep.contains("Saturation") || rep.contains("Triode"));
        assert!(rep.contains("V(vdd) = 3.3"));
    }

    #[test]
    fn dc_sweep_inverter_vtc() {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.vsource("vin", "in", "0", 0.0);
        c.mos(
            "mn",
            "out",
            "in",
            "0",
            "0",
            Mosfet::new(t.nmos, 4e-6, 0.6e-6),
            t.caps.ndiff,
            Default::default(),
            Default::default(),
        );
        c.mos(
            "mp",
            "out",
            "in",
            "vdd",
            "vdd",
            Mosfet::new(t.pmos, 8e-6, 0.6e-6),
            t.caps.pdiff,
            Default::default(),
            Default::default(),
        );
        let values: Vec<f64> = (0..=33).map(|k| k as f64 * 0.1).collect();
        let sols = dc_sweep(&mut c, "vin", &values, &DcOptions::default()).unwrap();
        let vtc: Vec<f64> = sols.iter().map(|s| s.voltage(&c, "out")).collect();
        // Monotone non-increasing transfer curve from rail to rail.
        assert!(vtc[0] > 3.2 && *vtc.last().unwrap() < 0.1);
        assert!(vtc.windows(2).all(|w| w[1] <= w[0] + 1e-6), "{vtc:?}");
        // The source was restored.
        match &c.elements()[1] {
            Element::Vsource(v) => assert_eq!(v.dc, 0.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kcl_residual_property() {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.vsource("vb", "b", "0", 1.1);
        c.resistor("r1", "vdd", "x", 10e3);
        c.mos(
            "m1",
            "x",
            "b",
            "0",
            "0",
            Mosfet::new(t.nmos, 25e-6, 2e-6),
            t.caps.ndiff,
            Default::default(),
            Default::default(),
        );
        let s = solve(&c);
        let u = Unknowns::of(&c);
        let x = unknowns_of(&c, &s);
        let (_, f) = assemble(&c, &u, &x, 1e-12, &AssembleMode::Dc { src_scale: 1.0 });
        for (row, r) in f.iter().enumerate() {
            assert!(r.abs() < 1e-8, "row {row} residual {r:e}");
        }
    }

    /// Deterministic LCG in [-0.5, 0.5).
    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }

    /// A randomised resistive ladder with MOS loads: `stages` sections of
    /// series resistors, shunt resistors, a couple of diode-connected
    /// transistors and an injection current — enough structural variety
    /// to exercise fill-in, branch rows and nonlinear restamps.
    fn random_ladder(stages: usize, seed: &mut u64) -> Circuit {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        let mut prev = "vdd".to_string();
        for k in 0..stages {
            let node = format!("n{k}");
            let r_series = 1e3 * (1.0 + 4.0 * (lcg(seed) + 0.5));
            c.resistor(&format!("rs{k}"), &prev, &node, r_series);
            let r_shunt = 2e4 * (1.0 + 9.0 * (lcg(seed) + 0.5));
            c.resistor(&format!("rp{k}"), &node, "0", r_shunt);
            if k % 2 == 0 {
                // Diode-connected NMOS load: gate = drain = the stage node.
                let w = 2e-6 * (1.0 + 3.0 * (lcg(seed) + 0.5));
                c.mos(
                    &format!("m{k}"),
                    &node,
                    &node,
                    "0",
                    "0",
                    Mosfet::new(t.nmos, w, 0.6e-6),
                    t.caps.ndiff,
                    Default::default(),
                    Default::default(),
                );
            }
            if k % 3 == 0 {
                c.isource(&format!("i{k}"), "vdd", &node, 20e-6 * (1.0 + lcg(seed)));
            }
            prev = node;
        }
        c
    }

    /// Plain Newton from zero on the sparse kernel or, with the fallback
    /// flag raised before the first iteration, on the dense pivoted kernel
    /// the sparse path falls back to.
    fn newton_from_zero(c: &Circuit, dense: bool) -> Vec<f64> {
        let u = Unknowns::of(c);
        let opts = DcOptions::default();
        let mode = AssembleMode::Dc { src_scale: 1.0 };
        let mut scratch = NewtonScratch::default();
        scratch.prepare(c, &u, false);
        scratch.sparse_fallback = dense;
        let (x, _) = newton(
            c,
            &u,
            &vec![0.0; u.total],
            opts.gmin,
            &mode,
            &opts,
            &mut scratch,
        )
        .expect("newton converges");
        assert_eq!(scratch.sparse_fallback, dense, "sparse arm fell back");
        x
    }

    #[test]
    fn randomised_netlists_sparse_matches_dense_within_1e12_rel() {
        // The orderings differ, so bitwise equality is not expected; the
        // documented gate is 1e-12 relative on every unknown.
        let mut seed = 0x5eed_cafe_u64;
        for trial in 0..12 {
            let stages = 3 + (trial % 5);
            let c = random_ladder(stages, &mut seed);
            let sparse = newton_from_zero(&c, false);
            let dense = newton_from_zero(&c, true);
            assert_eq!(sparse.len(), dense.len());
            for (i, (s, d)) in sparse.iter().zip(&dense).enumerate() {
                let scale = d.abs().max(1.0);
                assert!(
                    (s - d).abs() <= 1e-12 * scale,
                    "trial {trial}, unknown {i}: sparse {s:.17e} vs dense {d:.17e}"
                );
            }
        }
    }

    #[test]
    fn dc_session_reuse_is_bitwise_identical_to_oneshot_solves() {
        let mut seed = 0xb15ec7_u64;
        let mut c = random_ladder(5, &mut seed);
        let biases = [3.3, 3.2, 3.25, 3.31, 3.18];

        // Reference: one-shot entry points, fresh solver state every time.
        let mut oneshot = Vec::new();
        for &b in &biases {
            c.set_vsource_dc("vdd", b).unwrap();
            let sol = match oneshot.last() {
                None => dc_operating_point(&c, &DcOptions::default()).unwrap(),
                Some(prev) => dc_from_previous(&c, prev, &DcOptions::default()).unwrap(),
            };
            oneshot.push(sol);
        }

        // Session: the symbolic analysis runs once, every solve restamps.
        let mut session = DcSession::new();
        let mut reused = Vec::new();
        for &b in &biases {
            c.set_vsource_dc("vdd", b).unwrap();
            let sol = match reused.last() {
                None => session.solve(&c, &DcOptions::default()).unwrap(),
                Some(prev) => session.solve_from(&c, prev, &DcOptions::default()).unwrap(),
            };
            reused.push(sol);
        }

        for (a, b) in oneshot.iter().zip(reused.iter()) {
            for (x, y) in a.v.iter().zip(b.v.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "session reuse changed a bit");
            }
        }
    }

    /// `random_ladder` plus a source-degenerated PMOS with drain and
    /// source diffusions, two capacitors and a floating voltage source:
    /// every element kind, with every terminal off ground, so every stamp
    /// of the program has its own position.
    fn oracle_netlist(seed: &mut u64) -> Circuit {
        let t = Technology::cmos06();
        let mut c = random_ladder(4, seed);
        c.vsource("vx", "nx", "n3", 0.2 * (1.5 + lcg(seed)));
        c.resistor("rx", "nx", "0", 1e4);
        let diff = DiffGeom {
            area: 12e-12,
            perimeter: 16e-6,
        };
        c.resistor("rps", "vdd", "ps", 2e3 * (1.5 + lcg(seed)));
        c.mos(
            "mp",
            "n1",
            "n0",
            "ps",
            "vdd",
            Mosfet::new(t.pmos, 4e-6 * (1.5 + lcg(seed)), 0.6e-6),
            t.caps.pdiff,
            diff,
            diff,
        );
        c.capacitor("c1", "n1", "0", 1e-12 * (1.5 + lcg(seed)));
        c.capacitor("c2", "n0", "n2", 0.5e-12 * (1.5 + lcg(seed)));
        c
    }

    /// The unknown vector of a solved operating point.
    fn unknowns_of(c: &Circuit, s: &DcSolution) -> Vec<f64> {
        let u = Unknowns::of(c);
        let mut x = s.v[1..].to_vec();
        x.extend_from_slice(&s.branch_currents);
        assert_eq!(x.len(), u.total);
        x
    }

    #[test]
    fn program_jacobian_matches_central_differences_of_the_residual() {
        let mut seed = 0x0a11_5eed_u64;
        let mut worst = 0.0f64;
        for _ in 0..8 {
            let c = oracle_netlist(&mut seed);
            let u = Unknowns::of(&c);
            let x = unknowns_of(&c, &solve(&c));
            let x_prev = x.clone();
            let dc = AssembleMode::Dc { src_scale: 1.0 };
            // With `x_prev = x` the companion current is zero at `x`, so the
            // derivative of the capacitances themselves drops out.
            let tran = AssembleMode::Tran {
                h: 1e-9,
                x_prev: &x_prev,
                time: 0.0,
            };
            for mode in [&dc, &tran] {
                let (jac, _) = assemble(&c, &u, &x, 1e-12, mode);
                for k in 0..u.total {
                    let step = 1e-6;
                    let mut xp = x.clone();
                    xp[k] += step;
                    let mut xm = x.clone();
                    xm[k] -= step;
                    let (_, fp) = assemble(&c, &u, &xp, 1e-12, mode);
                    let (_, fm) = assemble(&c, &u, &xm, 1e-12, mode);
                    for i in 0..u.total {
                        let fd = (fp[i] - fm[i]) / (2.0 * step);
                        let a = jac.get(i, k);
                        // Relative, with a 1 nS floor for the zero entries.
                        let err = (a - fd).abs() / (a.abs() + 1e-9);
                        worst = worst.max(err);
                        assert!(err < 1e-6, "J[{i}][{k}] = {a:e}, central difference {fd:e}");
                    }
                }
            }
        }
        println!("worst relative error {worst:e}");
    }

    #[test]
    fn linearised_g_is_the_dc_jacobian_at_the_operating_point_bitwise() {
        let mut seed = 0x6_b175_u64;
        for _ in 0..8 {
            let c = oracle_netlist(&mut seed);
            let u = Unknowns::of(&c);
            let s = solve(&c);
            let x = unknowns_of(&c, &s);
            let (jac, _) = assemble(&c, &u, &x, 1e-12, &AssembleMode::Dc { src_scale: 1.0 });
            let lin = crate::linear::Linearized::build(&c, &s);
            for i in 0..u.total {
                for k in 0..u.total {
                    assert_eq!(
                        jac.get(i, k).to_bits(),
                        lin.g.get(i, k).to_bits(),
                        "entry ({i}, {k})"
                    );
                }
            }
        }
    }

    #[test]
    fn dc_session_survives_a_structure_change() {
        // One session across circuits must recompile when the wiring
        // changes, with a different unknown count and with the same one:
        // a 2-resistor divider, then a 3-resistor rewire of its nodes.
        let mut seed = 7_u64;
        let small = random_ladder(3, &mut seed);
        let large = random_ladder(7, &mut seed);
        let mut divider = Circuit::new();
        divider.vsource("v1", "in", "0", 2.0);
        divider.resistor("r1", "in", "mid", 1e3);
        divider.resistor("r2", "mid", "0", 1e3);
        let mut rewired = Circuit::new();
        rewired.vsource("v1", "in", "0", 2.0);
        rewired.resistor("r1", "in", "mid", 1e3);
        rewired.resistor("r2", "mid", "in", 2e3);
        rewired.resistor("r3", "mid", "0", 1e3);
        let opts = DcOptions::default();
        let mut session = DcSession::new();
        for c in [&small, &large, &divider, &rewired] {
            let got = session.solve(c, &opts).unwrap();
            let want = dc_operating_point(c, &opts).unwrap();
            assert_eq!(got.v.len(), want.v.len());
            for (x, y) in got.v.iter().zip(&want.v) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in got.branch_currents.iter().zip(&want.branch_currents) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
