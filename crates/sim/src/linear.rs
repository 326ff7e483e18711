//! Small-signal linearisation of a circuit at a DC operating point.
//!
//! The AC, noise and output-impedance analyses all operate on the same
//! linearised network: a real conductance matrix `G`, a real capacitance
//! matrix `C` (so the frequency-domain system is `(G + jωC)·x = b`), the
//! AC source vector, and a list of noise generators.

use crate::dc::{
    compile, mos_caps, quantities, set_mos_conductances, DcSolution, Unknowns, CGS, FIRST_ELEMENT,
    GMIN, ONE,
};
use crate::netlist::{Circuit, Element};
use crate::num::{Complex, Lu, LuWorkspace, Matrix, SingularMatrix};
use crate::sparse::{SparseAcFactors, SparseAcSolver};
use losac_device::ekv::evaluate_at;
use losac_device::noise as devnoise;
use losac_obs::Counter;
use losac_tech::units::KBOLTZMANN;
use std::sync::Arc;

/// Non-positive bias-dependent MOS capacitances floored so their entries
/// still enter the AC pattern (DESIGN §6i; shares its slot with the
/// transient-side counter of the same name in `dc.rs`).
static CAP_FLOORED: Counter = Counter::new("sim.stamp.cap_floored");

/// Replacement value for a non-positive bias-dependent capacitance:
/// small enough to be numerically invisible (ωC ≈ 6e-15 S at 1 GHz,
/// three orders below gmin), large enough to register as a structural
/// nonzero when the sparse AC pattern is derived from the dense stamps.
const CAP_FLOOR: f64 = 1e-24;

/// A noise current generator between two nodes.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    /// Generating element name.
    pub element: String,
    /// Mechanism label (`"thermal"`, `"flicker"`).
    pub mechanism: &'static str,
    /// First node (current flows a→b inside the generator).
    pub a: usize,
    /// Second node.
    pub b: usize,
    /// Frequency-independent part of the PSD (A²/Hz).
    pub psd_white: f64,
    /// 1/f part: PSD(f) = psd_white + psd_flicker_1hz / f^af.
    pub psd_flicker_1hz: f64,
    /// Flicker exponent.
    pub af: f64,
}

impl NoiseSource {
    /// Current PSD at frequency `f` (A²/Hz).
    ///
    /// Fast paths avoid the `powf` call when the source has no flicker
    /// component (every thermal source) or the flicker exponent is the
    /// default `af = 1.0` — both bit-identical to the general formula,
    /// since `f.powf(1.0) == f` and adding a `+0.0` flicker term is a
    /// no-op. `powf` is only paid for genuinely fractional exponents.
    pub fn psd(&self, f: f64) -> f64 {
        if self.psd_flicker_1hz == 0.0 {
            self.psd_white
        } else if self.af == 1.0 {
            self.psd_white + self.psd_flicker_1hz / f
        } else {
            self.psd_white + self.psd_flicker_1hz / f.powf(self.af)
        }
    }
}

/// The linearised network.
#[derive(Debug)]
pub struct Linearized {
    /// Unknown indexing shared with the DC solver.
    pub(crate) u: Unknowns,
    /// Conductance matrix (includes voltage-source branch rows).
    pub g: Matrix<f64>,
    /// Capacitance matrix.
    pub c: Matrix<f64>,
    /// AC excitation vector.
    pub b_ac: Vec<Complex>,
    /// Noise generators.
    pub noise_sources: Vec<NoiseSource>,
    /// Sparse `(G + jωC)` kernel: the symbolic analysis runs once here,
    /// in [`Linearized::build`], and every frequency point of every AC
    /// and noise sweep refactorises it numerically.
    pub(crate) sparse: Arc<SparseAcSolver>,
}

impl Linearized {
    /// Linearise `circuit` at the operating point `dc`.
    ///
    /// # Panics
    ///
    /// Panics if `dc` does not belong to this circuit (node count
    /// mismatch).
    pub fn build(circuit: &Circuit, dc: &DcSolution) -> Self {
        assert_eq!(
            dc.v.len(),
            circuit.num_nodes(),
            "solution does not match circuit"
        );
        let u = Unknowns::of(circuit);
        // The Newton loop's stamp program, capacitances included, filled
        // with small-signal quantities: its conductance stamps form `G`,
        // its capacitance stamps `C`.
        let program = compile(circuit, &u, true);
        let mut q = vec![0.0; program.quantities()];
        // Small gmin keeps the AC matrix nonsingular at very low
        // frequencies for nodes only connected through capacitors.
        q[GMIN] = 1e-12;
        q[ONE] = 1.0;
        let mut noise_sources = Vec::new();
        // Scenario temperature: T_NOMINAL exactly unless the circuit was
        // retargeted, so nominal runs stamp bit-identical matrices.
        let temp_k = circuit.temperature();
        let mut base = FIRST_ELEMENT;
        for e in circuit.elements() {
            match e {
                Element::Resistor { name, a, b, ohms } => {
                    q[base] = 1.0 / ohms;
                    noise_sources.push(NoiseSource {
                        element: name.clone(),
                        mechanism: "thermal",
                        a: *a,
                        b: *b,
                        psd_white: 4.0 * KBOLTZMANN * temp_k / ohms,
                        psd_flicker_1hz: 0.0,
                        af: 1.0,
                    });
                }
                Element::Capacitor { farads, .. } => q[base] = *farads,
                Element::Vsource(_) | Element::Isource(_) => {}
                Element::Mos(m) => {
                    let (vd, vg, vs, vb) = (dc.v[m.d], dc.v[m.g], dc.v[m.s], dc.v[m.b]);
                    let op = evaluate_at(&m.dev, vg - vs, vd - vs, vb - vs, temp_k);
                    set_mos_conductances(&mut q, base, &op);
                    for (k, c) in mos_caps(m, &op, vd, vs, vb).into_iter().enumerate() {
                        // A capacitance that evaluates non-positive at this
                        // bias must not vanish from the AC pattern: a
                        // floored value keeps its entries structurally
                        // present.
                        q[base + CGS + k] = if c <= 0.0 {
                            CAP_FLOORED.incr();
                            CAP_FLOOR
                        } else {
                            c
                        };
                    }
                    // Noise generators between drain and source.
                    noise_sources.push(NoiseSource {
                        element: m.name.clone(),
                        mechanism: "thermal",
                        a: m.d,
                        b: m.s,
                        psd_white: devnoise::thermal_current_psd(&op),
                        psd_flicker_1hz: 0.0,
                        af: 1.0,
                    });
                    noise_sources.push(NoiseSource {
                        element: m.name.clone(),
                        mechanism: "flicker",
                        a: m.d,
                        b: m.s,
                        psd_white: 0.0,
                        psd_flicker_1hz: devnoise::flicker_current_psd(&m.dev, &op, 1.0),
                        af: m.dev.params.af,
                    });
                }
            }
            base += quantities(e);
        }
        let mut g = Matrix::zeros(u.total);
        let mut c = Matrix::zeros(u.total);
        program.scatter_dense(&q, &mut g, Some(&mut c));

        // One symbolic analysis per linearisation, on the nonzeros of `G`
        // and `C` rather than the program's positions: an entry that is
        // zero here (a capacitor of zero farads, a stamp cancelled by its
        // neighbours) stays out of the pattern and its elimination order.
        // G and C are never restamped (only `b_ac` changes, via
        // `restamp_excitation`), so this is the sweep-wide pattern.
        let sparse = Arc::new(SparseAcSolver::build(&g, &c, u.nv_offset));
        let mut lin = Self {
            b_ac: vec![Complex::ZERO; u.total],
            u,
            g,
            c,
            noise_sources,
            sparse,
        };
        lin.restamp_excitation(circuit);
        lin
    }

    /// Factorise `G + jωC` at angular frequency `omega`.
    ///
    /// Allocates a fresh matrix per call; hot loops should prefer
    /// [`Linearized::factor_into`] with a reused [`AcWorkspace`].
    ///
    /// # Errors
    ///
    /// Returns the singularity error from the LU factorisation.
    pub fn factor(&self, omega: f64) -> Result<Lu<Complex>, SingularMatrix> {
        let n = self.g.n();
        let mut a = Matrix::<Complex>::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a.set(
                    i,
                    j,
                    Complex::new(self.g.get(i, j), omega * self.c.get(i, j)),
                );
            }
        }
        a.lu()
    }

    /// Factorise `G + jωC` into a reusable workspace — zero allocations
    /// once the workspace is sized.
    ///
    /// This is a numeric-only sparse refactorisation of the symbolic
    /// pattern cached at build time; a pivot breakdown falls back to the
    /// dense pivoted kernel for this frequency point only
    /// (`sim.matrix.sparse_fallbacks`), whose factors are bitwise
    /// identical to [`Linearized::factor`].
    ///
    /// # Errors
    ///
    /// Returns the singularity error from the LU factorisation.
    pub fn factor_into(&self, omega: f64, ws: &mut AcWorkspace) -> Result<(), SingularMatrix> {
        match self.sparse.refactor(omega, &mut ws.sp) {
            Ok(()) => {
                ws.last_sparse = true;
                return Ok(());
            }
            Err(_) => crate::sparse::record_sparse_fallback(),
        }
        ws.last_sparse = false;
        let n = self.g.n();
        if ws.a.n() != n {
            ws.a = Matrix::zeros(n);
        }
        for ((av, &gv), &cv) in
            ws.a.as_mut_slice()
                .iter_mut()
                .zip(self.g.as_slice())
                .zip(self.c.as_slice())
        {
            *av = Complex::new(gv, omega * cv);
        }
        ws.a.factor_into(&mut ws.lu)
    }

    /// Total node count of the underlying circuit (ground included) —
    /// the row length of per-frequency voltage vectors.
    pub fn num_nodes(&self) -> usize {
        self.u.n_nodes + 1
    }

    /// Re-derive only the AC excitation vector from `circuit`, leaving
    /// `G`, `C` and the noise generators untouched.
    ///
    /// This is the cheap half of [`Linearized::build`]: after changing
    /// source AC magnitudes (e.g. switching from a differential to a
    /// common-mode drive) the linearised network itself is unchanged, so
    /// sweeps can reuse one `Linearized` per (circuit, operating point).
    ///
    /// # Panics
    ///
    /// Panics if `circuit`'s unknown layout does not match the one this
    /// linearisation was built from.
    pub fn restamp_excitation(&mut self, circuit: &Circuit) {
        let u = Unknowns::of(circuit);
        assert_eq!(
            u.total, self.u.total,
            "circuit does not match linearisation"
        );
        self.b_ac.fill(Complex::ZERO);
        let mut vsrc_idx = 0usize;
        for e in circuit.elements() {
            match e {
                Element::Vsource(vs) => {
                    let row = self.u.nv_offset + vsrc_idx;
                    vsrc_idx += 1;
                    self.b_ac[row] = Complex::real(vs.ac);
                }
                Element::Isource(is) => {
                    if let Some(ito) = self.u.node(is.to) {
                        self.b_ac[ito] += Complex::real(is.ac);
                    }
                    if let Some(ifrom) = self.u.node(is.from) {
                        self.b_ac[ifrom] -= Complex::real(is.ac);
                    }
                }
                _ => {}
            }
        }
    }

    /// Unknown-vector index of a node, or `None` for ground.
    pub fn index_of(&self, node: usize) -> Option<usize> {
        self.u.node(node)
    }

    /// Extract the voltage of `node` from a solution vector.
    pub fn voltage(&self, x: &[Complex], node: usize) -> Complex {
        match self.u.node(node) {
            None => Complex::ZERO,
            Some(i) => x[i],
        }
    }

    /// RHS with a unit AC current flowing from `a` to `b` through a test
    /// generator (used by noise and impedance analyses).
    pub fn unit_current_rhs(&self, a: usize, b: usize) -> Vec<Complex> {
        let mut rhs = Vec::new();
        self.unit_current_rhs_into(a, b, &mut rhs);
        rhs
    }

    /// [`Linearized::unit_current_rhs`] into a caller-owned buffer,
    /// reused across noise generators.
    pub fn unit_current_rhs_into(&self, a: usize, b: usize, rhs: &mut Vec<Complex>) {
        rhs.clear();
        rhs.resize(self.u.total, Complex::ZERO);
        if let Some(ib) = self.u.node(b) {
            rhs[ib] += Complex::ONE;
        }
        if let Some(ia) = self.u.node(a) {
            rhs[ia] -= Complex::ONE;
        }
    }
}

/// Reusable buffers for repeated `(G + jωC)` factor/solve cycles: the
/// complex system matrix, the LU factor workspace and a solution vector.
/// One workspace per sweep (or per worker thread) means the per-frequency
/// inner loop performs no allocations at all.
#[derive(Debug, Default)]
pub struct AcWorkspace {
    a: Matrix<Complex>,
    lu: LuWorkspace<Complex>,
    sp: SparseAcFactors,
    /// Which kernel produced the factors currently held — set by
    /// [`Linearized::factor_into`], consumed by [`AcWorkspace::solve`].
    last_sparse: bool,
    x: Vec<Complex>,
}

impl AcWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve against the factors of the last successful
    /// [`Linearized::factor_into`], returning the internal solution
    /// buffer. On the dense path this is bitwise identical to
    /// [`Lu::solve`] on the same system.
    ///
    /// # Panics
    ///
    /// Panics if the workspace holds no factorisation or the length of
    /// `b` does not match it.
    pub fn solve(&mut self, b: &[Complex]) -> &[Complex] {
        if self.last_sparse {
            self.sp.solve_into(b, &mut self.x);
        } else {
            self.lu.solve_into(b, &mut self.x);
        }
        &self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use losac_tech::units::T_NOMINAL;

    #[test]
    fn rc_lowpass_linearisation() {
        let mut c = Circuit::new();
        c.vsource_ac("vin", "in", "0", 0.0, 1.0);
        c.resistor("r1", "in", "out", 1e3);
        c.capacitor("c1", "out", "0", 1e-9);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let lin = Linearized::build(&c, &dc);

        // At the pole frequency |H| = 1/√2.
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let lu = lin.factor(2.0 * std::f64::consts::PI * f0).unwrap();
        let x = lu.solve(&lin.b_ac);
        let out = lin.voltage(&x, c.find_node("out").unwrap());
        assert!(
            (out.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-3,
            "|H| = {}",
            out.abs()
        );
        assert!(
            (out.arg_degrees() + 45.0).abs() < 0.1,
            "phase = {}",
            out.arg_degrees()
        );
    }

    #[test]
    fn resistor_noise_psd() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 1.0);
        c.resistor("r1", "a", "0", 1e3);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let lin = Linearized::build(&c, &dc);
        let r_noise = &lin.noise_sources[0];
        // 4kT/R at 1 kΩ ≈ 1.66e-23 A²/Hz.
        assert!((r_noise.psd(1e3) - 4.0 * KBOLTZMANN * T_NOMINAL / 1e3).abs() < 1e-28);
    }

    #[test]
    fn resistor_noise_tracks_circuit_temperature() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 1.0);
        c.resistor("r1", "a", "0", 1e3);
        c.set_temperature(398.15); // 125 °C
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let lin = Linearized::build(&c, &dc);
        let r_noise = &lin.noise_sources[0];
        assert!((r_noise.psd(1e3) - 4.0 * KBOLTZMANN * 398.15 / 1e3).abs() < 1e-28);
        assert!(r_noise.psd(1e3) > 4.0 * KBOLTZMANN * T_NOMINAL / 1e3);
    }

    #[test]
    fn unit_current_rhs_signs() {
        let mut c = Circuit::new();
        c.resistor("r1", "a", "b", 1e3);
        c.resistor("r2", "b", "0", 1e3);
        c.vsource("v", "a", "0", 0.0);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let lin = Linearized::build(&c, &dc);
        let (na, nb) = (c.find_node("a").unwrap(), c.find_node("b").unwrap());
        let rhs = lin.unit_current_rhs(na, nb);
        let ia = lin.index_of(na).unwrap();
        let ib = lin.index_of(nb).unwrap();
        assert_eq!(rhs[ia], -Complex::ONE);
        assert_eq!(rhs[ib], Complex::ONE);
    }
}
