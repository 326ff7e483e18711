//! Transient analysis (backward Euler with per-step Newton).
//!
//! Used by the slew-rate measurement: the OTA is wired as a unity-gain
//! buffer, a voltage step is applied, and the maximum output slope is the
//! slew rate. Backward Euler is L-stable, which is exactly what a stiff
//! switched amplifier needs; the step size is fixed and chosen by the
//! caller from the time constants of interest.

use crate::dc::{newton, AssembleMode, DcError, DcOptions, DcSolution, NewtonScratch, Unknowns};
use crate::netlist::Circuit;
use std::fmt;

/// Transient configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOptions {
    /// Simulation end time (s).
    pub tstop: f64,
    /// Fixed time step (s).
    pub dt: f64,
    /// Newton options for the per-step solves.
    pub newton: DcOptions,
}

impl TranOptions {
    /// A reasonable default: 2000 steps across `tstop`.
    pub fn with_tstop(tstop: f64) -> Self {
        Self {
            tstop,
            dt: tstop / 2000.0,
            newton: DcOptions::default(),
        }
    }
}

/// Transient result: node voltages over time.
#[derive(Debug, Clone)]
pub struct TranResult {
    /// Time points (s), starting at 0.
    pub t: Vec<f64>,
    /// `v[time_index][node_id]` voltages (ground included as entry 0).
    pub v: Vec<Vec<f64>>,
}

impl TranResult {
    /// Waveform of a named node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node(&self, circuit: &Circuit, name: &str) -> Vec<f64> {
        let id = circuit
            .find_node(name)
            .unwrap_or_else(|| panic!("no node named `{name}` in circuit"));
        self.v.iter().map(|row| row[id]).collect()
    }

    /// Maximum |dv/dt| of a named node (V/s).
    pub fn max_slope(&self, circuit: &Circuit, name: &str) -> f64 {
        let w = self.node(circuit, name);
        let mut best: f64 = 0.0;
        for k in 1..w.len() {
            let dt = self.t[k] - self.t[k - 1];
            if dt > 0.0 {
                best = best.max(((w[k] - w[k - 1]) / dt).abs());
            }
        }
        best
    }

    /// Final value of a named node (V).
    pub fn final_value(&self, circuit: &Circuit, name: &str) -> f64 {
        *self
            .node(circuit, name)
            .last()
            .expect("transient produced no points")
    }

    /// Average slope between the first crossings of `v_a` and `v_b`
    /// (V/s) — the 10 %/90 % slew-rate measurement convention, immune to
    /// capacitive feed-through spikes that inflate the instantaneous
    /// maximum slope. Returns `None` when either level is never crossed
    /// (in either direction).
    pub fn slope_between(&self, circuit: &Circuit, name: &str, v_a: f64, v_b: f64) -> Option<f64> {
        let w = self.node(circuit, name);
        let cross = |level: f64| -> Option<f64> {
            for k in 1..w.len() {
                if (w[k - 1] - level).signum() != (w[k] - level).signum() {
                    let t0 = self.t[k - 1];
                    let t1 = self.t[k];
                    let f = (level - w[k - 1]) / (w[k] - w[k - 1]);
                    return Some(t0 + f * (t1 - t0));
                }
            }
            None
        };
        let ta = cross(v_a)?;
        let tb = cross(v_b)?;
        if (tb - ta).abs() < 1e-18 {
            return None;
        }
        Some((v_b - v_a) / (tb - ta))
    }
}

/// Transient analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub struct TranError {
    /// Time at which the step failed (s).
    pub time: f64,
    /// Underlying Newton failure.
    pub cause: DcError,
}

impl fmt::Display for TranError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transient failed at t = {:.3e} s: {}",
            self.time, self.cause
        )
    }
}

impl std::error::Error for TranError {}

/// Run a transient analysis starting from the DC operating point `dc`.
///
/// # Errors
///
/// Returns [`TranError`] if the time range is invalid (`dt`/`tstop` not
/// strictly positive and finite — a typed error rather than a panic, so a
/// batch job with a corrupted time scale fails cleanly) or if a time step
/// fails to converge.
pub fn transient(
    circuit: &Circuit,
    dc: &DcSolution,
    opts: &TranOptions,
) -> Result<TranResult, TranError> {
    if !(opts.dt > 0.0 && opts.dt.is_finite() && opts.tstop > 0.0 && opts.tstop.is_finite()) {
        return Err(TranError {
            time: 0.0,
            cause: DcError::BadNetlist(format!(
                "bad transient time range: dt = {:e}, tstop = {:e}",
                opts.dt, opts.tstop
            )),
        });
    }
    let u = Unknowns::of(circuit);
    let n = circuit.num_nodes();
    let mut x = vec![0.0; u.total];
    x[..n - 1].copy_from_slice(&dc.v[1..]);
    for (k, i) in dc.branch_currents.iter().enumerate() {
        x[u.nv_offset + k] = *i;
    }

    let mut t = vec![0.0];
    let mut v = vec![dc.v.clone()];
    let mut time = 0.0;
    // One scratch (stamp program, compiled once with its capacitance
    // stamps, plus Jacobian and update buffers) and one previous-state
    // buffer reused across every step of the run.
    let mut x_prev = vec![0.0; u.total];
    let mut scratch = NewtonScratch::default();
    scratch.prepare(circuit, &u, true);
    loop {
        let remaining = opts.tstop - time;
        // Skip a degenerate final sliver: C/h would explode and the step
        // carries no information anyway.
        if remaining <= opts.dt * 1e-6 {
            break;
        }
        let h = opts.dt.min(remaining);
        let t_next = time + h;
        #[cfg(feature = "failpoints")]
        if losac_obs::failpoint::hit("sim.tran.step").is_some() {
            return Err(TranError {
                time: t_next,
                cause: DcError::NoConvergence { residual: f64::NAN },
            });
        }
        x_prev.copy_from_slice(&x);
        let mode = AssembleMode::Tran {
            h,
            x_prev: &x_prev,
            time: t_next,
        };
        let (xn, _) =
            newton(circuit, &u, &x, 1e-12, &mode, &opts.newton, &mut scratch).map_err(|cause| {
                TranError {
                    time: t_next,
                    cause,
                }
            })?;
        x = xn;
        time = t_next;
        let mut row = vec![0.0; n];
        row[1..].copy_from_slice(&x[..n - 1]);
        t.push(time);
        v.push(row);
    }
    Ok(TranResult { t, v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::dc_operating_point;
    use crate::netlist::Waveform;

    #[test]
    fn rc_charging_curve() {
        let mut c = Circuit::new();
        c.vsource_tran(
            "vin",
            "in",
            "0",
            0.0,
            Waveform::Step {
                level: 1.0,
                at: 0.0,
                rise: 0.0,
            },
        );
        c.resistor("r1", "in", "out", 1e3);
        c.capacitor("c1", "out", "0", 1e-9); // τ = 1 µs
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let res = transient(
            &c,
            &dc,
            &TranOptions {
                tstop: 5e-6,
                dt: 5e-9,
                newton: DcOptions::default(),
            },
        )
        .unwrap();
        let out = res.node(&c, "out");
        // After one τ: 63.2 %.
        let k_tau = res.t.iter().position(|&t| t >= 1e-6).unwrap();
        assert!((out[k_tau] - 0.632).abs() < 0.01, "v(τ) = {}", out[k_tau]);
        assert!((res.final_value(&c, "out") - 1.0).abs() < 0.01);
    }

    #[test]
    fn max_slope_of_rc() {
        let mut c = Circuit::new();
        c.vsource_tran(
            "vin",
            "in",
            "0",
            0.0,
            Waveform::Step {
                level: 1.0,
                at: 1e-7,
                rise: 1e-8,
            },
        );
        c.resistor("r1", "in", "out", 1e3);
        c.capacitor("c1", "out", "0", 1e-9);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let res = transient(
            &c,
            &dc,
            &TranOptions {
                tstop: 5e-6,
                dt: 2e-9,
                newton: DcOptions::default(),
            },
        )
        .unwrap();
        // Initial slope ≈ V/τ = 1e6 V/s (backward Euler smears it a bit).
        let s = res.max_slope(&c, "out");
        assert!(s > 0.5e6 && s < 1.5e6, "slope = {s:e}");
    }

    #[test]
    fn steady_state_stays_put() {
        // No stimulus: transient from DC must hold the DC solution.
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 2.0);
        c.resistor("r1", "a", "b", 1e3);
        c.resistor("r2", "b", "0", 1e3);
        c.capacitor("cb", "b", "0", 1e-12);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let res = transient(
            &c,
            &dc,
            &TranOptions {
                tstop: 1e-6,
                dt: 1e-8,
                newton: DcOptions::default(),
            },
        )
        .unwrap();
        for w in res.node(&c, "b") {
            assert!((w - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_dt_is_a_typed_error() {
        // Regression: this used to `assert!`, panicking a batch worker.
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 1.0);
        c.resistor("r1", "a", "0", 1e3);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        for (tstop, dt) in [
            (1e-6, 0.0),
            (0.0, 1e-9),
            (1e-6, f64::NAN),
            (f64::INFINITY, 1e-9),
        ] {
            let err = transient(
                &c,
                &dc,
                &TranOptions {
                    tstop,
                    dt,
                    newton: DcOptions::default(),
                },
            )
            .unwrap_err();
            assert!(
                matches!(&err.cause, DcError::BadNetlist(m) if m.contains("bad transient time range")),
                "got {err}"
            );
        }
    }

    #[test]
    fn pulse_waveform_roundtrip() {
        let mut c = Circuit::new();
        c.vsource_tran(
            "vin",
            "in",
            "0",
            0.0,
            Waveform::Pulse {
                level: 1.0,
                delay: 1e-7,
                width: 4e-7,
                period: 1e-6,
                edge: 1e-8,
            },
        );
        c.resistor("r1", "in", "0", 1e3);
        let dc = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let res = transient(
            &c,
            &dc,
            &TranOptions {
                tstop: 1e-6,
                dt: 1e-9,
                newton: DcOptions::default(),
            },
        )
        .unwrap();
        let w = res.node(&c, "in");
        let at = |time: f64| w[res.t.iter().position(|&t| t >= time).unwrap()];
        assert!((at(3e-7) - 1.0).abs() < 1e-9, "inside pulse");
        assert!(at(8e-7).abs() < 1e-9, "after pulse");
    }
}
