//! AC small-signal frequency sweep.
//!
//! Linearises the circuit at its DC operating point and solves
//! `(G + jωC)·x = b` over a logarithmic frequency grid.

use crate::dc::DcSolution;
use crate::linear::{AcWorkspace, Linearized};
use crate::netlist::Circuit;
use crate::num::{Complex, PointFailure};
use losac_obs::Counter;
use std::fmt;

/// AC sweeps run.
static AC_SWEEPS: Counter = Counter::new("sim.ac.sweeps");
/// Frequency points solved across all sweeps.
static AC_POINTS: Counter = Counter::new("sim.ac.points");

/// AC sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcOptions {
    /// First frequency (Hz).
    pub fstart: f64,
    /// Last frequency (Hz).
    pub fstop: f64,
    /// Points per decade of the logarithmic grid.
    pub points_per_decade: usize,
}

impl Default for AcOptions {
    fn default() -> Self {
        Self {
            fstart: 1.0,
            fstop: 1e9,
            points_per_decade: 20,
        }
    }
}

impl AcOptions {
    /// The frequency grid this configuration produces.
    pub fn frequencies(&self) -> Vec<f64> {
        log_grid(self.fstart, self.fstop, self.points_per_decade)
    }
}

/// Logarithmic frequency grid from `fstart` to `fstop` inclusive.
pub fn log_grid(fstart: f64, fstop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(
        fstart > 0.0 && fstop > fstart,
        "bad frequency range [{fstart}, {fstop}]"
    );
    assert!(points_per_decade >= 1, "need at least one point per decade");
    let decades = (fstop / fstart).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize;
    let mut freqs: Vec<f64> = (0..=n)
        .map(|k| fstart * 10f64.powf(k as f64 / points_per_decade as f64))
        .take_while(|&f| f < fstop * 0.999_999)
        .collect();
    freqs.push(fstop);
    freqs
}

/// Result of an AC sweep: node voltages (phasors) per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    /// Swept frequencies (Hz).
    pub freqs: Vec<f64>,
    /// `v[freq_index][node_id]` — complex node voltages, ground included.
    pub v: Vec<Vec<Complex>>,
}

impl AcResult {
    /// Phasor of a named node across the sweep.
    ///
    /// Allocates a fresh vector; prefer [`AcResult::trace`] when only
    /// iterating.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node(&self, circuit: &Circuit, name: &str) -> Vec<Complex> {
        self.trace(circuit, name).iter().collect()
    }

    /// Borrowing view of a named node's column — no per-call allocation,
    /// unlike [`AcResult::node`].
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn trace<'a>(&'a self, circuit: &Circuit, name: &str) -> NodeTrace<'a> {
        let id = circuit
            .find_node(name)
            .unwrap_or_else(|| panic!("no node named `{name}` in circuit"));
        NodeTrace { v: &self.v, id }
    }

    /// Magnitude response of a named node (linear).
    pub fn magnitude(&self, circuit: &Circuit, name: &str) -> Vec<f64> {
        self.trace(circuit, name).iter().map(|z| z.abs()).collect()
    }

    /// Phase response of a named node (degrees, unwrapped).
    pub fn phase_degrees(&self, circuit: &Circuit, name: &str) -> Vec<f64> {
        let raw: Vec<f64> = self
            .trace(circuit, name)
            .iter()
            .map(|z| z.arg_degrees())
            .collect();
        unwrap_degrees(&raw)
    }
}

/// A borrowed column of an [`AcResult`]: one node's phasor across the
/// sweep, read straight out of the per-frequency rows.
#[derive(Debug, Clone, Copy)]
pub struct NodeTrace<'a> {
    v: &'a [Vec<Complex>],
    id: usize,
}

impl<'a> NodeTrace<'a> {
    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Phasor at frequency index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn at(&self, k: usize) -> Complex {
        self.v[k][self.id]
    }

    /// Iterate the phasors in frequency order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Complex> + 'a {
        let id = self.id;
        self.v.iter().map(move |row| row[id])
    }
}

/// Unwrap a phase sequence so successive points never jump by more than
/// 180°.
pub fn unwrap_degrees(phase: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(phase.len());
    let mut offset = 0.0;
    for (k, &p) in phase.iter().enumerate() {
        if k > 0 {
            let prev = out[k - 1];
            let mut candidate = p + offset;
            while candidate - prev > 180.0 {
                offset -= 360.0;
                candidate = p + offset;
            }
            while candidate - prev < -180.0 {
                offset += 360.0;
                candidate = p + offset;
            }
        }
        out.push(p + offset);
    }
    out
}

/// AC analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub struct AcError {
    /// Frequency at which the factorisation failed (Hz).
    pub frequency: f64,
    /// Why the point failed.
    pub cause: PointFailure,
}

impl fmt::Display for AcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ac analysis failed at {} Hz: {}",
            self.frequency, self.cause
        )
    }
}

impl std::error::Error for AcError {}

/// Run an AC sweep of `circuit`, linearised at `dc`.
///
/// # Errors
///
/// Returns [`AcError`] if the linear system is singular at some frequency.
pub fn ac_sweep(circuit: &Circuit, dc: &DcSolution, opts: &AcOptions) -> Result<AcResult, AcError> {
    let lin = Linearized::build(circuit, dc);
    ac_sweep_on(&lin, opts)
}

/// Run an AC sweep over an existing linearised network.
///
/// This is the hot-path entry: callers that run several sweeps on the
/// same (circuit, operating point) — e.g. differential then common-mode
/// with only the excitation restamped — build the [`Linearized`] once
/// and sweep on it, instead of re-stamping `G`/`C` per sweep.
///
/// # Errors
///
/// Returns [`AcError`] if the linear system is singular at some
/// frequency (the lowest failing frequency).
pub fn ac_sweep_on(lin: &Linearized, opts: &AcOptions) -> Result<AcResult, AcError> {
    let _span = losac_obs::span("sim.ac.sweep");
    AC_SWEEPS.incr();
    let freqs = opts.frequencies();
    AC_POINTS.add(freqs.len() as u64);
    let mut ws = AcWorkspace::new();
    let mut v = Vec::with_capacity(freqs.len());
    for &f in &freqs {
        v.push(solve_point(lin, f, &mut ws)?);
    }
    Ok(AcResult { freqs, v })
}

/// Solve a single frequency point on an existing linearised network.
///
/// Returns the complex node-voltage row (ground included), bitwise
/// identical to the corresponding entry of [`ac_sweep_on`]'s result —
/// it runs the same per-point kernel. Callers that only need one
/// frequency (e.g. a low-frequency CMRR or output-impedance probe) save
/// the factorisations of a full sweep.
///
/// # Errors
///
/// Returns [`AcError`] if the linear system is singular at `f`.
pub fn ac_point_on(lin: &Linearized, f: f64) -> Result<Vec<Complex>, AcError> {
    AC_POINTS.incr();
    let mut ws = AcWorkspace::new();
    solve_point(lin, f, &mut ws)
}

/// Factor and solve one frequency point; shared verbatim by
/// [`ac_sweep_on`] and [`ac_point_on`] so both perform identical
/// arithmetic.
fn solve_point(lin: &Linearized, f: f64, ws: &mut AcWorkspace) -> Result<Vec<Complex>, AcError> {
    if losac_obs::failpoint::hit("sim.ac.sweep").is_some() {
        return Err(AcError {
            frequency: f,
            cause: PointFailure::Injected("sim.ac.sweep"),
        });
    }
    let omega = 2.0 * std::f64::consts::PI * f;
    lin.factor_into(omega, ws).map_err(|cause| AcError {
        frequency: f,
        cause: cause.into(),
    })?;
    let x = ws.solve(&lin.b_ac);
    let mut row = vec![Complex::ZERO; lin.num_nodes()];
    for (id, r) in row.iter_mut().enumerate().skip(1) {
        *r = lin.voltage(x, id);
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use losac_device::Mosfet;
    use losac_tech::Technology;

    #[test]
    fn log_grid_endpoints() {
        let g = log_grid(1.0, 1e3, 10);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g.last().unwrap() - 1e3).abs() < 1e-9);
        assert_eq!(g.len(), 31);
        assert!(g.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
    }

    #[test]
    #[should_panic(expected = "bad frequency range")]
    fn log_grid_rejects_reversed_range() {
        let _ = log_grid(1e3, 1.0, 10);
    }

    #[test]
    fn rc_lowpass_bode() {
        let mut c = Circuit::new();
        c.vsource_ac("vin", "in", "0", 0.0, 1.0);
        c.resistor("r1", "in", "out", 1e3);
        c.capacitor("c1", "out", "0", 159.154_943e-9); // pole at 1 kHz
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let res = ac_sweep(
            &c,
            &dc,
            &AcOptions {
                fstart: 1.0,
                fstop: 1e6,
                points_per_decade: 30,
            },
        )
        .unwrap();
        let mag = res.magnitude(&c, "out");
        // Passband gain 1, −20 dB/dec past the pole.
        assert!((mag[0] - 1.0).abs() < 1e-3);
        let at_100k = mag[res.freqs.iter().position(|&f| f >= 1e5).unwrap()];
        assert!((at_100k - 0.01).abs() < 2e-3, "|H(100 kHz)| = {at_100k}");
        // Phase → −90°.
        let ph = res.phase_degrees(&c, "out");
        assert!((ph.last().unwrap() + 90.0).abs() < 2.0);
    }

    #[test]
    fn common_source_gain_and_pole() {
        let t = Technology::cmos06();
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", 3.3);
        c.vsource_ac("vin", "g", "0", 1.05, 1.0);
        c.resistor("rl", "vdd", "out", 50e3);
        c.capacitor("cl", "out", "0", 1e-12);
        c.mos(
            "m1",
            "out",
            "g",
            "0",
            "0",
            Mosfet::new(t.nmos, 20e-6, 1e-6),
            t.caps.ndiff,
            Default::default(),
            Default::default(),
        );
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let op = dc.mos_op("m1").unwrap();
        let res = ac_sweep(
            &c,
            &dc,
            &AcOptions {
                fstart: 10.0,
                fstop: 1e9,
                points_per_decade: 20,
            },
        )
        .unwrap();
        let mag = res.magnitude(&c, "out");
        // Low-frequency gain ≈ gm·(RL ∥ ro).
        let ro = 1.0 / op.gds;
        let expected = op.gm * (50e3 * ro) / (50e3 + ro);
        assert!(
            (mag[0] - expected).abs() < 0.05 * expected,
            "gain {} vs expected {expected}",
            mag[0]
        );
        // Gain must roll off at high frequency.
        assert!(*mag.last().unwrap() < 0.2 * mag[0]);
    }

    #[test]
    fn phase_unwrap() {
        let wrapped = vec![170.0, -175.0, -160.0];
        let un = unwrap_degrees(&wrapped);
        assert!((un[1] - 185.0).abs() < 1e-9);
        assert!((un[2] - 200.0).abs() < 1e-9);
    }

    #[test]
    fn capacitive_divider_flat_response() {
        // Two series caps: frequency-independent division (with gmin leak
        // at very low f, so start at 1 kHz).
        let mut c = Circuit::new();
        c.vsource_ac("vin", "in", "0", 0.0, 1.0);
        c.capacitor("c1", "in", "out", 2e-12);
        c.capacitor("c2", "out", "0", 2e-12);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let res = ac_sweep(
            &c,
            &dc,
            &AcOptions {
                fstart: 1e3,
                fstop: 1e8,
                points_per_decade: 10,
            },
        )
        .unwrap();
        for (k, m) in res.magnitude(&c, "out").iter().enumerate() {
            assert!((m - 0.5).abs() < 1e-2, "point {k}: |H| = {m}");
        }
    }
}
