//! One bench per table: regenerating tables 1–3 from a prebuilt study.
//!
//! The measured unit is the analysis + rendering pass over the fact
//! tables — the part of the pipeline a user re-runs while exploring the
//! data (the simulation itself is benched in `pipeline.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use nt_bench::{run_study, Scale};
use nt_study::report;

fn bench_tables(c: &mut Criterion) {
    let data = run_study(Scale::Smoke, 42).expect("smoke study runs");
    let mut g = c.benchmark_group("tables");
    g.sample_size(20);
    g.bench_function("table1_summary", |b| {
        b.iter(|| std::hint::black_box(report::table1(&data)))
    });
    g.bench_function("table2_user_activity", |b| {
        b.iter(|| std::hint::black_box(report::table2(&data)))
    });
    g.bench_function("table3_access_patterns", |b| {
        b.iter(|| std::hint::black_box(report::table3(&data)))
    });
    g.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
