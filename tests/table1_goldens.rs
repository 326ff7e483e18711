//! Bitwise Table-1 goldens.
//!
//! Every built-in topology runs the four Table-1 cases at the nominal
//! scenario, and the folded cascode runs case 4 again at two PVT
//! corners. Each run's layout-call count and every field of both
//! performance rows (synthesized, then extracted) must equal the bit
//! patterns committed in `tests/goldens/table1.txt`.
//!
//! On a mismatch the test prints the file this build produces. Replace
//! the committed file with it only when the change of numbers is the
//! intended result of a change.

use losac::prelude::*;
use losac::serve::wire::perf_bits;

const GOLDEN: &str = include_str!("goldens/table1.txt");

/// The golden file this build produces.
fn table1() -> String {
    let tech = Technology::cmos06();
    let registry = TopologyRegistry::builtin();
    let mut runs = Vec::new();
    for name in ["folded_cascode", "telescopic", "two_stage"] {
        for (k, case) in Case::ALL.into_iter().enumerate() {
            runs.push((name, k + 1, case, Scenario::nominal()));
        }
    }
    for pvt in [
        Pvt::new(Corner::Slow, 125.0, 1.0),
        Pvt::new(Corner::Fast, -40.0, 1.0),
    ] {
        runs.push(("folded_cascode", 4, Case::AllParasitics, Scenario::at(pvt)));
    }

    let mut out = String::from(
        "# topology/case/scenario, layout calls, then the synthesized and the\n\
         # extracted row as f64 bit patterns, fields in `Performance` order:\n\
         # dc_gain_db gbw phase_margin slew_rate cmrr_db offset output_resistance\n\
         # input_noise_rms thermal_noise_density flicker_noise_density power\n",
    );
    for (name, k, case, scenario) in runs {
        let plan = registry.get(name).expect("built-in topology");
        let opts = CaseOptions::builder()
            .with_plan(plan.clone())
            .with_eval(EvalOptions::default().with_scenario(scenario))
            .build();
        let key = format!("{name}/case{k}/{scenario}");
        let r = run_case_with(&tech, &plan.example_specs(), case, &opts)
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        out.push_str(&format!("{key} {}", r.layout_calls));
        for p in [&r.synthesized, &r.extracted] {
            for bits in perf_bits(p) {
                out.push_str(&format!(" {bits:016x}"));
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn table1_outputs_match_the_committed_goldens_bitwise() {
    let got = table1();
    if got != GOLDEN {
        let changed: Vec<&str> = got
            .lines()
            .filter(|line| !GOLDEN.lines().any(|g| g == *line))
            .filter_map(|line| line.split(' ').next())
            .collect();
        panic!(
            "Table-1 output differs from tests/goldens/table1.txt in {changed:?}.\n\
             This build produces:\n{got}"
        );
    }
}
