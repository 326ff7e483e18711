//! # losac-bench — experiment regeneration and performance benchmarks
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §4):
//!
//! | target | reproduces |
//! |---|---|
//! | `fig1_flow_comparison` | Fig. 1 — traditional vs layout-oriented flow |
//! | `fig2_cap_reduction` | Fig. 2 — capacitance reduction factor F(N_f) |
//! | `fig3_mirror_stack` | Fig. 3 — 1:3:6 current-mirror stack |
//! | `fig5_layout` | Fig. 5 — generated layout of the case-4 OTA (SVG) |
//! | `table1_cases` | Table 1 — the four sizing cases, synthesized vs extracted |
//!
//! The ablation studies listed in `DESIGN.md` §5 are the workspace test
//! `tests/ablations.rs`; wall-clock performance is measured by
//! `bench_snapshot` and the `perfbench` harness.

use losac_obs::json::Object;
use losac_sizing::Performance;

/// Format one paper-style table cell: synthesized value with the
/// extracted value in brackets.
pub fn cell(synth: f64, extracted: f64) -> String {
    format!("{synth:.1}({extracted:.1})")
}

/// Relative deviation |a−b| / max(|a|,|b|), for match metrics.
pub fn rel_dev(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-30)
}

/// How closely a synthesized row matches its extracted row: the largest
/// relative deviation over the frequency-domain quantities the paper's
/// convergence argument is about (gain, GBW, phase margin).
pub fn synth_vs_extracted(synth: &Performance, extracted: &Performance) -> f64 {
    [
        rel_dev(synth.dc_gain_db, extracted.dc_gain_db),
        rel_dev(synth.gbw, extracted.gbw),
        rel_dev(synth.phase_margin, extracted.phase_margin),
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

/// Whether the binary was invoked with `--json` (machine-readable
/// run-record mode).
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Whether the binary was invoked with `--profile` (aggregated span-tree
/// report on exit).
pub fn profile_mode() -> bool {
    std::env::args().any(|a| a == "--profile")
}

/// RAII handle behind `--profile`: keeps a [`losac_obs::Profiler`]
/// installed and prints its aggregated span tree (indented table plus
/// collapsed flamegraph stacks) to stderr when dropped.
pub struct ProfileHandle {
    profiler: losac_obs::Profiler,
    _guard: losac_obs::SinkGuard,
}

impl ProfileHandle {
    /// Install a profiler for the rest of the program when `--profile`
    /// was passed; otherwise do nothing. Worker-pool wrapper spans
    /// (`engine.worker`) are collapsed so batch profiles are invariant
    /// to the worker count.
    pub fn from_args() -> Option<Self> {
        if !profile_mode() {
            return None;
        }
        let profiler = losac_obs::Profiler::collapse(&["engine.worker"]);
        let guard = losac_obs::install(std::sync::Arc::new(profiler.clone()));
        Some(Self {
            profiler,
            _guard: guard,
        })
    }

    /// The profile aggregated so far.
    pub fn report(&self) -> losac_obs::profile::ProfileReport {
        self.profiler.report()
    }
}

impl Drop for ProfileHandle {
    fn drop(&mut self) {
        let report = self.profiler.report();
        eprintln!("\n-- profile (span tree) --");
        eprint!("{}", report.render_table());
        eprintln!("\n-- profile (collapsed stacks) --");
        eprint!("{}", report.render_collapsed());
        let m = losac_obs::metrics::snapshot();
        let c = |name: &str| m.counters.get(name).copied().unwrap_or(0);
        eprintln!("\n-- profile (linear solver) --");
        eprintln!(
            "sparse kernel: {} symbolic analyses, {} sparse numeric refactors, \
             {} total factorizations, {} dense fallbacks, last pattern nnz {}",
            c("sim.matrix.symbolic_analyses"),
            c("sim.matrix.numeric_refactors"),
            c("sim.matrix.factorizations"),
            c("sim.matrix.sparse_fallbacks"),
            m.gauges
                .get("sim.sparse.nnz")
                .map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
        );
    }
}

/// Serialise a performance row as a JSON object.
pub fn perf_json(p: &Performance) -> String {
    Object::new()
        .f64("dc_gain_db", p.dc_gain_db)
        .f64("gbw_hz", p.gbw)
        .f64("phase_margin_deg", p.phase_margin)
        .f64("slew_rate_v_per_s", p.slew_rate)
        .f64("cmrr_db", p.cmrr_db)
        .f64("offset_v", p.offset)
        .f64("output_resistance_ohm", p.output_resistance)
        .f64("input_noise_rms_v", p.input_noise_rms)
        .f64("power_w", p.power)
        .build()
}

/// Serialise the current `losac-obs` counter totals as a JSON object.
pub fn counters_json() -> String {
    losac_obs::metrics::snapshot()
        .counters
        .iter()
        .fold(Object::new(), |o, (name, v)| o.u64(name, *v))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_format() {
        assert_eq!(cell(70.06, 70.12), "70.1(70.1)");
    }

    #[test]
    fn perf_json_is_an_object() {
        let p = Performance {
            dc_gain_db: 70.0,
            gbw: 42e6,
            phase_margin: 60.0,
            slew_rate: 50e6,
            cmrr_db: 90.0,
            offset: 1e-3,
            output_resistance: 1e6,
            input_noise_rms: 100e-6,
            thermal_noise_density: 10e-9,
            flicker_noise_density: 1e-6,
            power: 1e-3,
        };
        let j = perf_json(&p);
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"gbw_hz\":42000000.0"), "{j}");
    }

    #[test]
    fn rel_dev_basics() {
        assert!(rel_dev(1.0, 1.0) < 1e-12);
        assert!((rel_dev(1.0, 0.9) - 0.1).abs() < 1e-9);
    }
}
