//! Batch-level telemetry: what the whole batch cost and how well the
//! workers were used.

use losac_obs::json::{array, number, Object};
use losac_obs::HistogramSnapshot;
use std::time::Duration;

/// Spread of one performance metric over a design point's scenario runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricSpread {
    /// Mean over the measured runs.
    pub mean: f64,
    /// Population standard deviation over the measured runs.
    pub sigma: f64,
    /// Worst (smallest — both aggregated metrics are lower-bounded)
    /// value observed.
    pub worst: f64,
}

impl MetricSpread {
    /// Process-capability index against a lower spec limit:
    /// `(mean − LSL) / 3σ`. `None` when the spread is degenerate
    /// (σ = 0, e.g. a single scenario).
    pub fn cpk_lower(&self, lsl: f64) -> Option<f64> {
        (self.sigma > 0.0).then(|| (self.mean - lsl) / (3.0 * self.sigma))
    }
}

/// Yield statistics of one design point over its scenario runs — the
/// aggregation a corner × temperature × Monte-Carlo sweep exists for.
///
/// All sums are accumulated in job submission order, so the statistics
/// are bitwise identical at any worker count.
#[derive(Debug, Clone, Default)]
pub struct DesignPointYield {
    /// The design-point key ([`crate::SynthesisJob::design_point`]).
    pub design_point: String,
    /// Scenario jobs submitted for this point.
    pub scenarios: usize,
    /// Runs that produced a measured (extracted) performance row.
    pub measured: usize,
    /// Measured runs whose extracted row met the job's GBW and
    /// phase-margin specification.
    pub passed: usize,
    /// Extracted GBW spread over the measured runs (Hz).
    pub gbw: MetricSpread,
    /// Extracted phase-margin spread over the measured runs (degrees).
    pub phase_margin: MetricSpread,
    /// Overall process capability: the smaller of the GBW and
    /// phase-margin `Cpk` against their spec limits. `None` when either
    /// spread is degenerate or nothing was measured.
    pub cpk: Option<f64>,
}

impl DesignPointYield {
    /// Fraction of scenario runs that met the specification; runs that
    /// failed to produce a result count as failures.
    pub fn yield_fraction(&self) -> f64 {
        if self.scenarios == 0 {
            return 0.0;
        }
        self.passed as f64 / self.scenarios as f64
    }

    /// Render as a JSON object for `--json` run records.
    pub fn to_json(&self) -> String {
        let spread = |s: &MetricSpread| {
            Object::new()
                .f64("mean", s.mean)
                .f64("sigma", s.sigma)
                .f64("worst", s.worst)
                .build()
        };
        let mut o = Object::new()
            .str("design_point", &self.design_point)
            .u64("scenarios", self.scenarios as u64)
            .u64("measured", self.measured as u64)
            .u64("passed", self.passed as u64)
            .f64("yield", self.yield_fraction())
            .raw("gbw", spread(&self.gbw))
            .raw("phase_margin", spread(&self.phase_margin));
        if let Some(cpk) = self.cpk {
            o = o.f64("cpk", cpk);
        }
        o.build()
    }
}

/// One submission-ordered row of a scenario sweep: the job's design
/// point and spec limits, plus its measured `(gbw, phase_margin)` when
/// the run produced a result.
pub(crate) type YieldRow = (Option<String>, f64, f64, Option<(f64, f64)>);

/// Fold submission-ordered rows into per-design-point yield statistics.
/// Points appear in first-submission order; rows without a design point
/// are skipped. Pure and order-deterministic: the same rows produce
/// field-for-field identical output at any worker count.
pub(crate) fn collect_design_points(rows: &[YieldRow]) -> Vec<DesignPointYield> {
    struct Acc {
        point: String,
        lsl_gbw: f64,
        lsl_pm: f64,
        scenarios: usize,
        passed: usize,
        gbw: Vec<f64>,
        pm: Vec<f64>,
    }
    let mut accs: Vec<Acc> = Vec::new();
    for (point, lsl_gbw, lsl_pm, measured) in rows {
        let Some(point) = point else { continue };
        let acc = match accs.iter_mut().find(|a| &a.point == point) {
            Some(a) => a,
            None => {
                accs.push(Acc {
                    point: point.clone(),
                    lsl_gbw: *lsl_gbw,
                    lsl_pm: *lsl_pm,
                    scenarios: 0,
                    passed: 0,
                    gbw: Vec::new(),
                    pm: Vec::new(),
                });
                accs.last_mut().expect("just pushed")
            }
        };
        acc.scenarios += 1;
        if let Some((gbw, pm)) = measured {
            acc.gbw.push(*gbw);
            acc.pm.push(*pm);
            if *gbw >= *lsl_gbw && *pm >= *lsl_pm {
                acc.passed += 1;
            }
        }
    }
    accs.into_iter()
        .map(|acc| {
            let spread = |xs: &[f64]| {
                if xs.is_empty() {
                    return MetricSpread::default();
                }
                let n = xs.len() as f64;
                let mean = xs.iter().sum::<f64>() / n;
                let var = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).max(0.0);
                MetricSpread {
                    mean,
                    sigma: var.sqrt(),
                    worst: xs.iter().copied().fold(f64::INFINITY, f64::min),
                }
            };
            let gbw = spread(&acc.gbw);
            let phase_margin = spread(&acc.pm);
            let cpk = match (
                gbw.cpk_lower(acc.lsl_gbw),
                phase_margin.cpk_lower(acc.lsl_pm),
            ) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            };
            DesignPointYield {
                design_point: acc.point,
                scenarios: acc.scenarios,
                measured: acc.gbw.len(),
                passed: acc.passed,
                gbw,
                phase_margin,
                cpk,
            }
        })
        .collect()
}

/// Runtime summary of one [`crate::Engine::run_batch`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchTelemetry {
    /// Number of jobs submitted.
    pub jobs: usize,
    /// Number of workers the pool ran: the calling thread and the
    /// threads it spawned.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Per-worker time spent inside jobs (same order as worker ids).
    pub worker_busy: Vec<Duration>,
    /// Per-worker number of jobs claimed.
    pub worker_jobs: Vec<usize>,
    /// Sum of every job's individual wall-clock time — what a 1-worker
    /// run of the same batch would roughly cost.
    pub serial_estimate: Duration,
    /// Case preparations the batch ran (sizing or flow plus the
    /// verification layout), failed ones included. Jobs with equal flow
    /// inputs share one, which a shared memo may hold from an earlier
    /// batch; a job with its own budget or fault plan prepares alone.
    pub prepared: u64,
    /// Distribution of per-job wall-clock times, in milliseconds
    /// (p50/p90/p99 via [`HistogramSnapshot`]'s quantile readouts).
    pub job_ms: HistogramSnapshot,
    /// Per-design-point yield/Cpk statistics of a scenario sweep, in
    /// first-submission order. Empty when no job carried a
    /// [`design_point`](crate::SynthesisJob::design_point) key.
    pub design_points: Vec<DesignPointYield>,
}

impl BatchTelemetry {
    /// Estimated speedup over a serial run: total per-job time divided by
    /// the batch wall-clock (1.0 when the batch was empty or instant).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if self.jobs == 0 || wall <= 0.0 {
            return 1.0;
        }
        self.serial_estimate.as_secs_f64() / wall
    }

    /// Mean fraction of the batch wall-clock each worker spent busy
    /// (0 when no workers ran).
    pub fn utilization(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 || self.worker_busy.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        busy / (wall * self.worker_busy.len() as f64)
    }

    /// Render as a JSON object for `--json` run records.
    pub fn to_json(&self) -> String {
        let secs = |d: &Duration| number(d.as_secs_f64());
        Object::new()
            .u64("jobs", self.jobs as u64)
            .u64("workers", self.workers as u64)
            .f64("wall_s", self.wall.as_secs_f64())
            .f64("serial_estimate_s", self.serial_estimate.as_secs_f64())
            .f64("speedup", self.speedup())
            .f64("utilization", self.utilization())
            .u64("prepared", self.prepared)
            .raw("worker_busy_s", array(self.worker_busy.iter().map(secs)))
            .raw(
                "worker_jobs",
                array(self.worker_jobs.iter().map(|j| j.to_string())),
            )
            .raw("job_ms", self.job_ms.to_json())
            .raw(
                "design_points",
                array(self.design_points.iter().map(DesignPointYield::to_json)),
            )
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_utilization() {
        let t = BatchTelemetry {
            jobs: 4,
            workers: 2,
            wall: Duration::from_secs(2),
            worker_busy: vec![Duration::from_secs(2), Duration::from_secs(1)],
            worker_jobs: vec![3, 1],
            serial_estimate: Duration::from_secs(3),
            prepared: 3,
            job_ms: {
                let h = losac_obs::HistogramCore::new();
                h.observe(900.0);
                h.observe(1100.0);
                h.snapshot()
            },
            design_points: Vec::new(),
        };
        assert!((t.speedup() - 1.5).abs() < 1e-9);
        assert!((t.utilization() - 0.75).abs() < 1e-9);
        let j = t.to_json();
        assert!(j.contains("\"speedup\":1.5"), "{j}");
        assert!(j.contains("\"worker_jobs\":[3,1]"), "{j}");
        assert!(j.contains("\"prepared\":3"), "{j}");
        assert!(j.contains("\"job_ms\":{\"count\":2,"), "{j}");
        assert!(j.contains("\"p99\":"), "{j}");
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let t = BatchTelemetry::default();
        assert_eq!(t.speedup(), 1.0);
        assert_eq!(t.utilization(), 0.0);
        assert!(t.design_points.is_empty());
        assert!(t.to_json().contains("\"design_points\":[]"));
    }

    #[test]
    fn yield_fold_groups_counts_and_scores() {
        let point = |s: &str| Some(s.to_owned());
        // Point "a": 4 scenarios — 2 pass, 1 measured fail, 1 crashed.
        // Point "b": 1 scenario, passing. One row opts out entirely.
        let rows = vec![
            (point("a"), 60.0, 60.0, Some((70.0, 65.0))),
            (point("a"), 60.0, 60.0, Some((50.0, 65.0))),
            (point("a"), 60.0, 60.0, None),
            (point("b"), 60.0, 60.0, Some((80.0, 80.0))),
            (None, 60.0, 60.0, Some((99.0, 99.0))),
            (point("a"), 60.0, 60.0, Some((90.0, 70.0))),
        ];
        let dps = collect_design_points(&rows);
        assert_eq!(dps.len(), 2);
        let a = &dps[0];
        assert_eq!(a.design_point, "a");
        assert_eq!((a.scenarios, a.measured, a.passed), (4, 3, 2));
        assert!((a.yield_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(a.gbw.mean, 70.0);
        assert_eq!(a.gbw.worst, 50.0);
        assert!(a.gbw.sigma > 0.0);
        // Cpk = min over the two metrics of (mean - LSL)/3σ.
        let g = (a.gbw.mean - 60.0) / (3.0 * a.gbw.sigma);
        let p = (a.phase_margin.mean - 60.0) / (3.0 * a.phase_margin.sigma);
        assert_eq!(a.cpk, Some(g.min(p)));
        // A single measurement has no spread — Cpk undefined, yield 1.
        let b = &dps[1];
        assert_eq!((b.scenarios, b.passed), (1, 1));
        assert_eq!(b.cpk, None);
        assert_eq!(b.yield_fraction(), 1.0);
        let j = b.to_json();
        assert!(j.contains("\"yield\":1"), "{j}");
        assert!(!j.contains("\"cpk\""), "{j}");
    }

    #[test]
    fn yield_fold_is_a_pure_function_of_row_order() {
        let rows: Vec<YieldRow> = (0..20)
            .map(|i| {
                (
                    Some(format!("p{}", i % 3)),
                    65.0e6,
                    60.0,
                    Some((60.0e6 + i as f64 * 1.0e6, 55.0 + i as f64 * 0.5)),
                )
            })
            .collect();
        let a = collect_design_points(&rows);
        let b = collect_design_points(&rows);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.design_point, y.design_point);
            assert_eq!(x.gbw.mean.to_bits(), y.gbw.mean.to_bits());
            assert_eq!(x.gbw.sigma.to_bits(), y.gbw.sigma.to_bits());
            assert_eq!(x.cpk.map(f64::to_bits), y.cpk.map(f64::to_bits));
        }
    }
}
