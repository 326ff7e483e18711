//! Performance specifications — the input to a sizing run.

use std::fmt;

/// Specifications for an operational transconductance amplifier, matching
//  the inputs of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtaSpecs {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Gain–bandwidth product (Hz).
    pub gbw: f64,
    /// Phase margin (degrees).
    pub phase_margin: f64,
    /// Load capacitance (F).
    pub c_load: f64,
    /// Input common-mode range (V, low..high).
    pub input_cm_range: (f64, f64),
    /// Output voltage range (V, low..high).
    pub output_range: (f64, f64),
}

impl OtaSpecs {
    /// The open interval of supply voltages (V) [`OtaSpecs::validate`]
    /// accepts.
    pub const VDD_RANGE: (f64, f64) = (0.5, 20.0);

    /// The paper's example specification: VDD = 3.3 V, GBW = 65 MHz,
    /// PM = 65°, CL = 3 pF, ICMR = [−0.55, 1.84] V,
    /// output range = [0.51, 2.31] V.
    pub fn paper_example() -> Self {
        Self {
            vdd: 3.3,
            gbw: 65.0e6,
            phase_margin: 65.0,
            c_load: 3.0e-12,
            input_cm_range: (-0.55, 1.84),
            output_range: (0.51, 2.31),
        }
    }

    /// The output mid-point (V) — the target quiescent output voltage.
    pub fn output_mid(&self) -> f64 {
        0.5 * (self.output_range.0 + self.output_range.1)
    }

    /// The common-mode bias used for AC measurements (V): centre of the
    /// input range clamped into the supply.
    pub fn input_cm_bias(&self) -> f64 {
        let mid = 0.5 * (self.input_cm_range.0 + self.input_cm_range.1);
        mid.clamp(0.0, self.vdd)
    }

    /// Validate physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let (vdd_lo, vdd_hi) = Self::VDD_RANGE;
        if !(self.vdd > vdd_lo && self.vdd < vdd_hi) {
            return Err(format!("vdd = {} V implausible", self.vdd));
        }
        if !(self.gbw > 1e3 && self.gbw < 100e9) {
            return Err(format!("gbw = {} Hz implausible", self.gbw));
        }
        if !(self.phase_margin > 20.0 && self.phase_margin < 90.0) {
            return Err(format!(
                "phase margin {}° out of the designable range",
                self.phase_margin
            ));
        }
        if !(self.c_load > 0.0 && self.c_load < 1e-6) {
            return Err(format!("load capacitance {} F implausible", self.c_load));
        }
        if self.output_range.0 >= self.output_range.1 {
            return Err("output range is empty".into());
        }
        if self.output_range.0 < 0.0 || self.output_range.1 > self.vdd {
            return Err("output range exceeds the supply".into());
        }
        if self.input_cm_range.0 >= self.input_cm_range.1 {
            return Err("input common-mode range is empty".into());
        }
        Ok(())
    }
}

impl fmt::Display for OtaSpecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VDD={}V GBW={:.1}MHz PM={}deg CL={:.1}pF CM=[{},{}]V out=[{},{}]V",
            self.vdd,
            self.gbw / 1e6,
            self.phase_margin,
            self.c_load * 1e12,
            self.input_cm_range.0,
            self.input_cm_range.1,
            self.output_range.0,
            self.output_range.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_is_valid() {
        let s = OtaSpecs::paper_example();
        s.validate().unwrap();
        assert!((s.output_mid() - 1.41).abs() < 1e-9);
        assert!((s.input_cm_bias() - 0.645).abs() < 1e-9);
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = OtaSpecs::paper_example();
        let txt = s.to_string();
        assert!(txt.contains("65.0MHz"));
        assert!(txt.contains("3.0pF"));
    }

    #[test]
    fn bad_specs_rejected() {
        let mut s = OtaSpecs::paper_example();
        s.gbw = 0.0;
        assert!(s.validate().is_err());
        let mut s = OtaSpecs::paper_example();
        s.output_range = (2.0, 1.0);
        assert!(s.validate().is_err());
        let mut s = OtaSpecs::paper_example();
        s.output_range = (0.5, 4.0);
        assert!(s.validate().is_err());
        let mut s = OtaSpecs::paper_example();
        s.phase_margin = 95.0;
        assert!(s.validate().is_err());
    }
}
