//! Sample statistics, the host-speed probe, peak memory and the run report.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Quantile `q` (0..=1) of `samples`, interpolating linearly between
/// order statistics. NaN for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples` (see [`quantile`]).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f` and return its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The benchmark's own calibration loop: a fixed logistic-map recurrence
/// with a square root per step, about 1.5 ms of pure floating point. It
/// touches no program code, so its time follows only the CPU speed the
/// run is getting.
fn calibration_loop() -> f64 {
    let mut x = black_box(0.3_f64);
    let mut acc = 0.0;
    for _ in 0..400_000 {
        x = 3.9 * x * (1.0 - x);
        acc += x.sqrt();
    }
    acc
}

/// Host-speed probe, sampled at several points of a run and printed as
/// `host.ref_ms`. Diagnostic only: no metric is scaled, dropped or
/// retried on its value.
#[derive(Default)]
pub struct HostProbe {
    samples_ms: Vec<f64>,
}

impl HostProbe {
    /// One probe point: the median of three calibration loops.
    pub fn sample(&mut self) {
        let reps: Vec<f64> = (0..3)
            .map(|_| ms(timed(|| black_box(calibration_loop())).1))
            .collect();
        self.samples_ms.push(median(&reps));
    }

    pub fn ref_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// `median (min..max over n points)`, for the stderr summary.
    pub fn describe(&self) -> String {
        let lo = quantile(&self.samples_ms, 0.0);
        let hi = quantile(&self.samples_ms, 1.0);
        format!(
            "{:.3} ms median ({lo:.3}..{hi:.3} over {} points)",
            self.ref_ms(),
            self.samples_ms.len()
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Ops run, canaries included (warm-up ops are the canaries).
    pub attempted: u64,
    /// Ops that returned an error or disagreed with their reference.
    pub failed: u64,
    /// One line per failure, printed on stderr.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines for the stderr summary.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one op, failed when `problem` is `Some`.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
