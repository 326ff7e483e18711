//! Small-signal noise analysis.
//!
//! For each frequency the analysis factorises the AC matrix once and then
//! solves one right-hand side per noise generator: the squared magnitude
//! of the resulting output voltage times the generator's PSD is that
//! generator's contribution to the output noise. Dividing by the squared
//! signal gain (from the circuit's AC sources to the output) gives the
//! input-referred density — exactly what the paper's Table 1 reports as
//! "input noise voltage", "thermal noise density" and "flicker noise".

use crate::dc::DcSolution;
use crate::linear::{AcWorkspace, Linearized};
use crate::netlist::Circuit;
use crate::num::{Complex, PointFailure};
use std::fmt;

/// Noise analysis result.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    /// Swept frequencies (Hz).
    pub freqs: Vec<f64>,
    /// Output noise voltage PSD (V²/Hz) per frequency.
    pub output_psd: Vec<f64>,
    /// Signal gain magnitude |Av| from the AC sources to the output,
    /// per frequency.
    pub gain: Vec<f64>,
    /// Input-referred noise voltage PSD (V²/Hz) per frequency.
    pub input_psd: Vec<f64>,
    /// Integrated per-element output noise (element, mechanism, V²)
    /// over the analysed band.
    pub contributions: Vec<(String, &'static str, f64)>,
}

impl NoiseResult {
    /// Total integrated input-referred noise voltage over the band (V rms).
    pub fn input_total(&self) -> f64 {
        integrate_psd(&self.freqs, &self.input_psd).sqrt()
    }

    /// Total integrated output noise voltage over the band (V rms).
    pub fn output_total(&self) -> f64 {
        integrate_psd(&self.freqs, &self.output_psd).sqrt()
    }

    /// Input-referred noise density at the grid point closest to `f`
    /// (V/√Hz).
    pub fn input_density_at(&self, f: f64) -> f64 {
        let k = nearest_index(&self.freqs, f);
        self.input_psd[k].sqrt()
    }
}

/// Trapezoidal integral of a PSD over the frequency grid.
pub fn integrate_psd(freqs: &[f64], psd: &[f64]) -> f64 {
    assert_eq!(freqs.len(), psd.len());
    let mut total = 0.0;
    for k in 1..freqs.len() {
        total += 0.5 * (psd[k] + psd[k - 1]) * (freqs[k] - freqs[k - 1]);
    }
    total
}

fn nearest_index(freqs: &[f64], f: f64) -> usize {
    let mut best = 0;
    let mut dist = f64::INFINITY;
    for (k, &fk) in freqs.iter().enumerate() {
        let d = (fk.ln() - f.ln()).abs();
        if d < dist {
            dist = d;
            best = k;
        }
    }
    best
}

/// Noise analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseError {
    /// Frequency at which factorisation failed (Hz).
    pub frequency: f64,
    /// Why the point failed.
    pub cause: PointFailure,
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "noise analysis failed at {} Hz: {}",
            self.frequency, self.cause
        )
    }
}

impl std::error::Error for NoiseError {}

/// Run a noise analysis.
///
/// The circuit's AC sources define the *signal path*: set a unit AC
/// magnitude on the input source(s) before calling, as for an AC sweep.
/// `output` names the node whose noise is evaluated.
///
/// # Errors
///
/// Returns [`NoiseError`] on a singular system.
///
/// # Panics
///
/// Panics if `output` is not a node of `circuit`.
pub fn noise_analysis(
    circuit: &Circuit,
    dc: &DcSolution,
    freqs: &[f64],
    output: &str,
) -> Result<NoiseResult, NoiseError> {
    let out = circuit
        .find_node(output)
        .unwrap_or_else(|| panic!("no node named `{output}` in circuit"));
    let lin = Linearized::build(circuit, dc);
    noise_analysis_on(&lin, freqs, out)
}

/// One frequency point of the noise analysis: signal gain, total output
/// PSD, and the per-generator contributions.
struct NoisePoint {
    gain: f64,
    total: f64,
    per_source: Vec<f64>,
}

/// Scratch reused across the frequency points: the factor/solve
/// workspace plus a reused RHS buffer for the per-generator solves.
#[derive(Default)]
struct NoiseScratch {
    ws: AcWorkspace,
    rhs: Vec<Complex>,
}

fn solve_noise_point(
    lin: &Linearized,
    f: f64,
    scratch: &mut NoiseScratch,
    out: usize,
) -> Result<NoisePoint, NoiseError> {
    if losac_obs::failpoint::hit("sim.noise").is_some() {
        return Err(NoiseError {
            frequency: f,
            cause: PointFailure::Injected("sim.noise"),
        });
    }
    let omega = 2.0 * std::f64::consts::PI * f;
    lin.factor_into(omega, &mut scratch.ws)
        .map_err(|cause| NoiseError {
            frequency: f,
            cause: cause.into(),
        })?;

    // Signal gain.
    let x_sig = scratch.ws.solve(&lin.b_ac);
    let gain = lin.voltage(x_sig, out).abs();

    // Noise generators.
    let mut per_source = Vec::with_capacity(lin.noise_sources.len());
    let mut total = 0.0;
    for src in &lin.noise_sources {
        lin.unit_current_rhs_into(src.a, src.b, &mut scratch.rhs);
        let x = scratch.ws.solve(&scratch.rhs);
        let h2 = lin.voltage(x, out).norm_sqr();
        let contrib = h2 * src.psd(f);
        per_source.push(contrib);
        total += contrib;
    }
    Ok(NoisePoint {
        gain,
        total,
        per_source,
    })
}

/// Run a noise analysis over an existing linearised network.
///
/// `out` is the node id of the output (see [`Circuit::find_node`]).
///
/// # Errors
///
/// Returns [`NoiseError`] on a singular system.
pub fn noise_analysis_on(
    lin: &Linearized,
    freqs: &[f64],
    out: usize,
) -> Result<NoiseResult, NoiseError> {
    let mut scratch = NoiseScratch::default();
    let mut points = Vec::with_capacity(freqs.len());
    for &f in freqs {
        points.push(solve_noise_point(lin, f, &mut scratch, out)?);
    }

    let mut output_psd = Vec::with_capacity(freqs.len());
    let mut gain = Vec::with_capacity(freqs.len());
    let mut input_psd = Vec::with_capacity(freqs.len());
    // Per-source output PSD per frequency for the contribution integrals.
    let mut per_source: Vec<Vec<f64>> =
        vec![Vec::with_capacity(freqs.len()); lin.noise_sources.len()];
    for p in points {
        gain.push(p.gain);
        output_psd.push(p.total);
        input_psd.push(if p.gain > 0.0 {
            p.total / (p.gain * p.gain)
        } else {
            f64::INFINITY
        });
        for (col, contrib) in per_source.iter_mut().zip(p.per_source) {
            col.push(contrib);
        }
    }

    let contributions = lin
        .noise_sources
        .iter()
        .zip(per_source.iter())
        .map(|(src, psd)| {
            (
                src.element.clone(),
                src.mechanism,
                integrate_psd(freqs, psd),
            )
        })
        .collect();

    Ok(NoiseResult {
        freqs: freqs.to_vec(),
        output_psd,
        gain,
        input_psd,
        contributions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::log_grid;
    use crate::dc::{dc_operating_point, DcOptions};
    use losac_tech::units::{KBOLTZMANN, T_NOMINAL};

    #[test]
    fn integrate_psd_constant() {
        let f = vec![1.0, 2.0, 3.0];
        let p = vec![2.0, 2.0, 2.0];
        assert!((integrate_psd(&f, &p) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn resistor_divider_noise() {
        // Two equal resistors from a driven node: the output sees the
        // parallel combination R/2; output PSD = 4kT·(R/2).
        let mut c = Circuit::new();
        c.vsource_ac("vin", "in", "0", 0.0, 1.0);
        c.resistor("r1", "in", "out", 10e3);
        c.resistor("r2", "out", "0", 10e3);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let freqs = vec![1e3, 1e4, 1e5];
        let res = noise_analysis(&c, &dc, &freqs, "out").unwrap();
        let expected = 4.0 * KBOLTZMANN * T_NOMINAL * 5e3;
        for (k, &p) in res.output_psd.iter().enumerate() {
            assert!(
                (p - expected).abs() < 0.01 * expected,
                "point {k}: {p:e} vs {expected:e}"
            );
        }
        // Gain is 1/2, so input-referred PSD is 4× output.
        assert!((res.gain[0] - 0.5).abs() < 1e-6);
        assert!((res.input_psd[0] / res.output_psd[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn rc_filtered_noise_integral() {
        // Classic kT/C: total output noise of R into C is √(kT/C),
        // independent of R. Integrate far past the pole.
        let mut c = Circuit::new();
        c.vsource("vin", "in", "0", 0.0);
        c.resistor("r1", "in", "out", 10e3);
        c.capacitor("c1", "out", "0", 1e-12);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        // Pole at 1/(2πRC) ≈ 15.9 MHz; integrate to 100 GHz.
        let freqs = log_grid(1.0, 1e11, 20);
        let res = noise_analysis(&c, &dc, &freqs, "out").unwrap();
        let total = res.output_total();
        let ktc = (KBOLTZMANN * T_NOMINAL / 1e-12).sqrt();
        assert!(
            (total - ktc).abs() < 0.05 * ktc,
            "total {total:e} vs kT/C {ktc:e}"
        );
    }

    #[test]
    fn contributions_sum_to_total() {
        let mut c = Circuit::new();
        c.vsource_ac("vin", "in", "0", 0.0, 1.0);
        c.resistor("r1", "in", "out", 10e3);
        c.resistor("r2", "out", "0", 20e3);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let freqs = log_grid(1.0, 1e6, 10);
        let res = noise_analysis(&c, &dc, &freqs, "out").unwrap();
        let sum: f64 = res.contributions.iter().map(|(_, _, v)| v).sum();
        let total = integrate_psd(&res.freqs, &res.output_psd);
        assert!((sum - total).abs() < 1e-9 * total.max(1e-30));
        assert_eq!(res.contributions.len(), 2);
    }

    #[test]
    fn density_lookup() {
        let mut c = Circuit::new();
        c.vsource_ac("vin", "in", "0", 0.0, 1.0);
        c.resistor("r1", "in", "out", 10e3);
        c.resistor("r2", "out", "0", 10e3);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let freqs = vec![1e2, 1e4, 1e6];
        let res = noise_analysis(&c, &dc, &freqs, "out").unwrap();
        let d = res.input_density_at(1.1e4);
        assert!((d - res.input_psd[1].sqrt()).abs() < 1e-18);
    }
}
