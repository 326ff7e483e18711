//! Sizing benchmarks — the paper: "the sizing time for each case
//! including layout calls does not exceed two minutes" (on a 1999
//! workstation). The reproduction is measured here; it finishes in well
//! under a second per full calibrated sizing.

use criterion::{criterion_group, criterion_main, Criterion};
use losac_sizing::eval::evaluate;
use losac_sizing::{FoldedCascodePlan, OtaSpecs, ParasiticMode, TwoStagePlan};
use losac_tech::Technology;

fn bench_sizing(c: &mut Criterion) {
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();

    c.bench_function("size_folded_cascode_calibrated", |b| {
        b.iter(|| {
            FoldedCascodePlan::default()
                .size(&tech, &specs, &ParasiticMode::None)
                .unwrap()
        })
    });

    c.bench_function("size_two_stage_calibrated", |b| {
        b.iter(|| {
            TwoStagePlan::default()
                .size(&tech, &specs, &ParasiticMode::None)
                .unwrap()
        })
    });

    // The full Table-1 measurement pipeline.
    let ota = FoldedCascodePlan::default()
        .size(&tech, &specs, &ParasiticMode::None)
        .unwrap();
    c.bench_function("evaluate_reuse", |b| {
        b.iter(|| evaluate(&ota, &tech, &ParasiticMode::None).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sizing
}
criterion_main!(benches);
