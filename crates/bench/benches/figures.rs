//! One bench per figure: regenerating figures 1–14 from a prebuilt study.

use criterion::{criterion_group, criterion_main, Criterion};
use nt_bench::{run_study, Scale};
use nt_study::report;

fn bench_figures(c: &mut Criterion) {
    let data = run_study(Scale::Smoke, 42).expect("smoke study runs");
    let mut g = c.benchmark_group("figures");
    g.sample_size(20);
    g.bench_function("fig01_02_sequential_runs", |b| {
        b.iter(|| std::hint::black_box(report::fig_runs(&data)))
    });
    g.bench_function("fig03_04_file_sizes", |b| {
        b.iter(|| std::hint::black_box(report::fig_sizes(&data)))
    });
    g.bench_function("fig05_open_times", |b| {
        b.iter(|| std::hint::black_box(report::fig5(&data)))
    });
    g.bench_function("fig06_07_lifetimes", |b| {
        b.iter(|| std::hint::black_box(report::fig_lifetimes(&data)))
    });
    g.bench_function("fig08_burstiness", |b| {
        b.iter(|| std::hint::black_box(report::fig8(&data)))
    });
    g.bench_function("fig09_qq", |b| {
        b.iter(|| std::hint::black_box(report::fig9(&data)))
    });
    g.bench_function("fig10_llcd", |b| {
        b.iter(|| std::hint::black_box(report::fig10(&data)))
    });
    g.bench_function("fig11_interarrivals", |b| {
        b.iter(|| std::hint::black_box(report::fig11(&data)))
    });
    g.bench_function("fig12_session_lifetimes", |b| {
        b.iter(|| std::hint::black_box(report::fig12(&data)))
    });
    g.bench_function("fig13_14_fastio_paths", |b| {
        b.iter(|| std::hint::black_box(report::fig_paths(&data)))
    });
    g.bench_function("section5_content", |b| {
        b.iter(|| std::hint::black_box(report::section5(&data)))
    });
    g.bench_function("section8_operational", |b| {
        b.iter(|| std::hint::black_box(report::section8(&data)))
    });
    g.bench_function("section9_cache", |b| {
        b.iter(|| std::hint::black_box(report::section9(&data)))
    });
    g.bench_function("section10_fastio", |b| {
        b.iter(|| std::hint::black_box(report::section10(&data)))
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
