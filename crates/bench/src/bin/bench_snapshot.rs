//! Wall-time + factorisation-count snapshot of the simulator hot path,
//! written to `target/bench_snapshot.json` (the committed
//! `BENCH_PR3.json`–`BENCH_PR10.json` are history and are never
//! rewritten).
//!
//! Measures the Table-1 measurement pipeline (uncached and cached), the
//! raw AC sweep (fresh linearisation vs reused), a full case-4 synthesis
//! run, the sparse-kernel counters (symbolic analyses vs numeric-only
//! refactorisations), the device-model counters (`device.model.evals`,
//! transcendental budget, floored capacitor stamps) and the p50/p95 of
//! the `sizing.evaluate.ms` latency histogram, so the README's
//! performance numbers can be regenerated with one command:
//!
//! ```text
//! scripts/bench_snapshot.sh       # or: cargo run --release -p losac-bench --bin bench_snapshot
//! ```
//!
//! Each row reports both the mean (`ms`) and the best rep (`min_ms`,
//! robust against scheduler noise on shared hosts). The dense-kernel,
//! finite-difference and thread-count ablation rows of earlier
//! snapshots live on in the committed `BENCH_PR8.json`–`BENCH_PR10.json`.
//! `scripts/bench_check.sh` diffs a fresh snapshot against the
//! committed `BENCH_PR9.json` baseline and fails on hot-path
//! regressions.
//!
//! New this snapshot: a **scenario sweep** row — one design point
//! measured under a corner × temperature × Monte-Carlo grid through the
//! batch engine, reporting the sweep wall time and the yield/Cpk
//! aggregation it produces.

use losac_core::cases::{run_case_with, Case, CaseOptions};
use losac_obs::metrics::snapshot;
use losac_sim::ac::{ac_sweep, ac_sweep_on, AcOptions};
use losac_sim::dc::{dc_operating_point, DcOptions};
use losac_sim::linear::Linearized;
use losac_sizing::eval::{evaluate, evaluate_with, EvalCache, EvalOptions};
use losac_sizing::{FoldedCascodePlan, InputDrive, OtaSpecs, ParasiticMode, Topology};
use losac_tech::Technology;
use std::sync::Arc;
use std::time::Instant;

/// Where the snapshot goes, relative to the workspace root: a build
/// output, so running the benchmark leaves the committed tree clean.
const SNAPSHOT: &str = "target/bench_snapshot.json";

/// Mean and best-rep wall time plus factorisations/rep across `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> (f64, f64, u64) {
    let before = snapshot();
    let mut best = f64::INFINITY;
    let t0 = Instant::now();
    for _ in 0..reps {
        let r0 = Instant::now();
        f();
        best = best.min(r0.elapsed().as_secs_f64() * 1e3);
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let after = snapshot();
    let facts = after
        .counters_since(&before)
        .get("sim.matrix.factorizations")
        .copied()
        .unwrap_or(0)
        / reps as u64;
    (ms, best, facts)
}

/// Time several configurations with their reps interleaved round-robin,
/// so slow phases of a noisy shared host hit every configuration equally
/// instead of whichever row happened to run first. Returns per-config
/// (mean ms, min ms, factorisations of one rep).
type TimedRun<'a> = (&'static str, Box<dyn FnMut() + 'a>);

fn timed_interleaved(
    reps: usize,
    mut runs: Vec<TimedRun<'_>>,
) -> Vec<(&'static str, f64, f64, u64)> {
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); runs.len()];
    let mut facts: Vec<u64> = vec![0; runs.len()];
    for rep in 0..reps {
        for (k, (_, f)) in runs.iter_mut().enumerate() {
            let before = snapshot();
            let t0 = Instant::now();
            f();
            times[k].push(t0.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                facts[k] = snapshot()
                    .counters_since(&before)
                    .get("sim.matrix.factorizations")
                    .copied()
                    .unwrap_or(0);
            }
        }
    }
    runs.iter()
        .enumerate()
        .map(|(k, (name, _))| {
            let mean = times[k].iter().sum::<f64>() / reps as f64;
            let min = times[k].iter().cloned().fold(f64::INFINITY, f64::min);
            (*name, mean, min, facts[k])
        })
        .collect()
}

fn main() {
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();
    let ota = FoldedCascodePlan::default()
        .size(&tech, &specs, &ParasiticMode::None)
        .unwrap();
    let circuit = ota.netlist(
        &tech,
        &ParasiticMode::None,
        InputDrive::Differential { dv: 0.0 },
    );
    let dc = dc_operating_point(&circuit, &DcOptions::default()).unwrap();
    let ac_opts = AcOptions {
        fstart: 10.0,
        fstop: 20e9,
        points_per_decade: 24,
    };

    let mut out = String::from("{\n");
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.push_str(&format!("  \"environment\": {{ \"cpus\": {cpus} }},\n"));

    // --- ac_sweep: fresh build vs reuse ------------------------------------
    let reps = 20;
    let lin = Linearized::build(&circuit, &dc);
    let sweep_rows: Vec<String> = timed_interleaved(
        reps,
        vec![
            (
                "fresh_build_1t",
                Box::new(|| {
                    let _ = ac_sweep(&circuit, &dc, &ac_opts).unwrap();
                }),
            ),
            (
                "reuse_1t",
                Box::new(|| {
                    let _ = ac_sweep_on(&lin, &ac_opts).unwrap();
                }),
            ),
        ],
    )
    .into_iter()
    .map(|(name, ms, min_ms, _)| {
        println!("ac_sweep[{name}]: {ms:.3} ms/iter (best {min_ms:.3})");
        format!("\"{name}_ms\": {ms:.3}, \"{name}_min_ms\": {min_ms:.3}")
    })
    .collect();
    out.push_str(&format!(
        "  \"ac_sweep\": {{ {} }},\n",
        sweep_rows.join(", ")
    ));

    // --- evaluate: uncached, then a cache hit ------------------------------
    let reps = 5;
    let mut eval_rows: Vec<String> = timed_interleaved(
        reps,
        vec![(
            "reuse_1t",
            Box::new(|| {
                let _ = evaluate(&ota, &tech, &ParasiticMode::None).unwrap();
            }),
        )],
    )
    .into_iter()
    .map(|(name, ms, min_ms, facts)| {
        println!(
            "evaluate[{name}]: {ms:.1} ms/iter (best {min_ms:.1}), {facts} factorizations/iter"
        );
        format!(
            "\"{name}\": {{ \"ms\": {ms:.1}, \"min_ms\": {min_ms:.1}, \"factorizations\": {facts} }}"
        )
    })
    .collect();
    // Cached: second identical evaluation is a table lookup.
    let cache = Arc::new(EvalCache::new());
    let opts = EvalOptions::default().with_cache(cache.clone());
    let _ = evaluate_with(&ota, &tech, &ParasiticMode::None, &opts).unwrap();
    let (ms, _, facts) = timed(1, || {
        let _ = evaluate_with(&ota, &tech, &ParasiticMode::None, &opts).unwrap();
    });
    eval_rows.push(format!(
        "\"cached_hit\": {{ \"ms\": {ms:.3}, \"factorizations\": {facts} }}"
    ));
    println!("evaluate[cached hit]: {ms:.3} ms, {facts} factorizations");
    out.push_str(&format!(
        "  \"evaluate\": {{\n    {}\n  }},\n",
        eval_rows.join(",\n    ")
    ));

    // --- sparse-kernel counters over one default evaluate ------------------
    {
        let before = snapshot();
        let _ = evaluate(&ota, &tech, &ParasiticMode::None).unwrap();
        let after = snapshot();
        let since = after.counters_since(&before);
        let c = |name: &str| since.get(name).copied().unwrap_or(0);
        let nnz = after.gauges.get("sim.sparse.nnz").copied().unwrap_or(0.0);
        out.push_str(&format!(
            "  \"sparse\": {{ \"symbolic_analyses_per_evaluate\": {}, \
             \"numeric_refactors_per_evaluate\": {}, \
             \"sparse_fallbacks_per_evaluate\": {}, \"pattern_nnz\": {nnz:.0} }},\n",
            c("sim.matrix.symbolic_analyses"),
            c("sim.matrix.numeric_refactors"),
            c("sim.matrix.sparse_fallbacks"),
        ));
        println!(
            "sparse kernel: {} symbolic analyses vs {} numeric refactors per evaluate, nnz {nnz:.0}",
            c("sim.matrix.symbolic_analyses"),
            c("sim.matrix.numeric_refactors"),
        );
    }

    // --- device-model counters over one evaluate ---------------------------
    {
        let before = snapshot();
        let _ = evaluate(&ota, &tech, &ParasiticMode::None).unwrap();
        let since = snapshot().counters_since(&before);
        let c = |name: &str| since.get(name).copied().unwrap_or(0);
        let (evals, trans, floored) = (
            c("device.model.evals"),
            c("device.model.transcendentals"),
            c("sim.stamp.cap_floored"),
        );
        out.push_str(&format!(
            "  \"device_model\": {{ \
             \"analytic\": {{ \"evals_per_evaluate\": {evals}, \"transcendentals_per_evaluate\": {trans} }}, \
             \"cap_floored_per_evaluate\": {floored} }},\n",
        ));
        println!(
            "device model: {evals} evals/evaluate ({trans} transcendentals), \
             {floored} floored cap stamps"
        );
    }

    // --- full case-4 synthesis run ----------------------------------------
    let mut case_rows = Vec::new();
    let (ms, _, facts) = timed(1, || {
        let _ = run_case_with(&tech, &specs, Case::AllParasitics, &CaseOptions::default()).unwrap();
    });
    case_rows.push(format!(
        "\"default\": {{ \"ms\": {ms:.1}, \"factorizations\": {facts} }}"
    ));
    println!("run_case(case4)[default]: {ms:.1} ms, {facts} factorizations");
    // A shared cache across repeated identical runs (the batch-engine
    // scenario): the repeat's evaluations are answered from the cache.
    let cache = Arc::new(EvalCache::new());
    let cached_opts = CaseOptions::builder()
        .with_eval(EvalOptions::default().with_cache(cache.clone()))
        .build();
    let (first_ms, _, first_facts) = timed(1, || {
        let _ = run_case_with(&tech, &specs, Case::AllParasitics, &cached_opts).unwrap();
    });
    let (repeat_ms, _, repeat_facts) = timed(1, || {
        let _ = run_case_with(&tech, &specs, Case::AllParasitics, &cached_opts).unwrap();
    });
    case_rows.push(format!(
        "\"cache_cold\": {{ \"ms\": {first_ms:.1}, \"factorizations\": {first_facts} }}"
    ));
    case_rows.push(format!(
        "\"cache_warm_repeat\": {{ \"ms\": {repeat_ms:.1}, \"factorizations\": {repeat_facts} }}"
    ));
    println!("run_case(case4)[cache cold]: {first_ms:.1} ms, {first_facts} factorizations");
    println!(
        "run_case(case4)[cache warm repeat]: {repeat_ms:.1} ms, {repeat_facts} factorizations"
    );
    let hits = snapshot()
        .counters
        .get("sizing.eval.cache_hit")
        .copied()
        .unwrap_or(0);
    out.push_str(&format!(
        "  \"run_case4\": {{\n    {}\n  }},\n",
        case_rows.join(",\n    ")
    ));
    out.push_str(&format!("  \"eval_cache_hits_total\": {hits},\n"));

    // --- latency distribution of every uncached evaluate above ------------
    if let Some(h) = snapshot().histograms.get("sizing.evaluate.ms") {
        out.push_str(&format!(
            "  \"evaluate_hist\": {{ \"count\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3} }},\n",
            h.count,
            h.p50(),
            h.p95()
        ));
        println!(
            "evaluate histogram: n={} p50={:.1} ms p95={:.1} ms",
            h.count,
            h.p50(),
            h.p95()
        );
    }

    // --- scenario sweep: corner × temperature × MC yield through the engine
    {
        use losac_engine::{Corner, Engine, EngineOptions, SweepBuilder};
        let jobs = || {
            SweepBuilder::new(Arc::new(Technology::cmos06()), specs)
                .over_cases([Case::NoParasitics])
                .corners([Corner::Typical, Corner::Slow])
                .temperatures([losac_tech::pvt::NOMINAL_TEMP_C, 125.0])
                .monte_carlo(2, 42)
                .build()
        };
        let n_jobs = jobs().len();
        let t0 = Instant::now();
        let batch = Engine::new(EngineOptions::default()).run_batch(jobs());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let p = &batch.telemetry.design_points[0];
        let cpk = p
            .cpk
            .map_or_else(|| "null".to_owned(), |c| format!("{c:.3}"));
        out.push_str(&format!(
            "  \"scenario_sweep\": {{ \"jobs\": {n_jobs}, \"ms\": {ms:.1}, \
             \"yield\": {:.3}, \"gbw_sigma_mhz\": {:.2}, \"cpk\": {cpk} }},\n",
            p.yield_fraction(),
            p.gbw.sigma / 1e6,
        ));
        println!(
            "scenario_sweep: {n_jobs} jobs in {ms:.1} ms, yield {:.0}%, \
             GBW sigma {:.2} MHz, Cpk {cpk}",
            100.0 * p.yield_fraction(),
            p.gbw.sigma / 1e6,
        );
    }

    // Reference numbers from the committed BENCH_PR8.json (finite-difference
    // device model, measured on its own machine-day — compare through the
    // same-run fd ablation rows above, not across days).
    out.push_str(
        "  \"pr8_baseline\": { \"ac_sweep_reuse_1t_ms\": 0.472, \"evaluate_reuse_1t_ms\": 20.3, \
         \"evaluate_factorizations\": 3568, \"run_case4_ms\": 76.3, \
         \"run_case4_factorizations\": 10884 }\n}\n",
    );

    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write(SNAPSHOT, &out).unwrap_or_else(|e| panic!("write {SNAPSHOT}: {e}"));
    println!("wrote {SNAPSHOT}");
}
