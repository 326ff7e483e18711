//! Runs the built benchmark as a process: the counted work of a traced
//! run repeats exactly at one seed, and a second seed's end-to-end
//! metrics fall within the bounds of `BENCHMARK.json`.

use losac_serve::json::Value;
use std::process::Command;
use std::sync::Mutex;

/// The runs time the host, so they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const WORKLOADS: [&str; 3] = ["synth", "yield", "serve"];

fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} seed {seed}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    Value::parse(last).expect("the result line is JSON")
}

/// `(name, value, unit)` of every metric of a result line.
fn metrics(result: &Value) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("a value");
            let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
            (name.clone(), value, unit.to_owned())
        })
        .collect()
}

#[test]
fn counted_work_repeats_exactly_at_one_seed() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for workload in WORKLOADS {
        let counts = |result: &Value| -> Vec<(String, f64)> {
            metrics(result)
                .into_iter()
                .filter(|(name, _, unit)| unit == "count" || name == "sizing.cache_hit_ratio")
                .map(|(name, value, _)| (name, value))
                .collect()
        };
        let first = counts(&run(workload, 7, 1, true));
        assert!(
            first.iter().any(|(_, v)| *v > 0.0),
            "{workload}: no work counted"
        );
        assert_eq!(first, counts(&run(workload, 7, 1, true)), "{workload}");
    }
}

#[test]
fn second_seed_stays_within_the_bounds() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let bench = Value::parse(&text).expect("BENCHMARK.json is JSON");
    let seconds = bench
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    let bounds: Vec<(String, f64)> = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("a name");
            let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
            (name.to_owned(), bound)
        })
        .collect();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("a name"))
        .collect();
    for workload in workloads {
        let a = metrics(&run(workload, 1, seconds, false));
        let b = metrics(&run(workload, 2, seconds, false));
        for (name, bound) in &bounds {
            let value = |ms: &[(String, f64, String)]| {
                ms.iter()
                    .find(|(n, _, _)| n == name)
                    .map(|(_, v, _)| *v)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"))
            };
            let (x, y) = (value(&a), value(&b));
            let shift = (y / x - 1.0).abs();
            assert!(
                shift <= *bound,
                "{workload}/{name}: seed 1 {x}, seed 2 {y} ({:.1} % apart, bound {:.0} %)",
                shift * 100.0,
                bound * 100.0
            );
        }
    }
}
