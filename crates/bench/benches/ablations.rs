//! The DESIGN.md ablations: each design choice the paper highlights is
//! switched off and the study re-run, measuring simulation wall time and
//! printing the metric shifts once per configuration.
//!
//! 1. FastIO vs IRP-only (§10) — median data-path latency shift.
//! 2. Read-ahead policy (§9.1) — cache hit rate and paging read count.
//! 3. Lazy writer vs write-through (§9.2) — paging writes and latency.
//! 4. Temporary-file attribute (§6.3) — disk writes avoided.
//! 5. Heavy-tailed vs exponential arrivals (§7) — dispersion collapse.

use criterion::{criterion_group, criterion_main, Criterion};
use nt_analysis::{burstiness::BinnedArrivals, latency, tails};
use nt_cache::CacheConfig;
use nt_study::{Study, StudyConfig};
use rand::{Rng, SeedableRng};

fn small_config(seed: u64) -> StudyConfig {
    let mut c = StudyConfig::smoke_test(seed);
    c.duration = nt_sim::SimDuration::from_secs(300);
    c
}

/// A fixed 4 KB prefetch: no FAT/NTFS 64 KB boost, no sequential
/// doubling.
fn fixed_4k_cache() -> CacheConfig {
    CacheConfig {
        boosted_granularity: 4_096,
        boost_threshold: u64::MAX,
        ..CacheConfig::default()
    }
}

fn describe_run(tag: &str, config: &StudyConfig) {
    let data = Study::run(config).expect("study runs");
    let p = latency::path_latencies(&data.trace_set);
    let (hits, misses, paging_w, temp_spared) =
        data.machines
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64), |acc, m| {
                (
                    acc.0 + m.cache.read_hits,
                    acc.1 + m.cache.read_misses,
                    acc.2 + m.io.paging_writes,
                    acc.3 + m.cache.temporary_bytes_spared,
                )
            });
    eprintln!(
        "[ablation {tag}] fastio reads {:.0}%, read median {:.1}us, hit rate {:.0}%, \
         paging writes {paging_w}, temp bytes spared {temp_spared}",
        100.0 * p.fastio_read_fraction,
        p.fastio_read_latency
            .median()
            .or(p.irp_read_latency.median())
            .unwrap_or(0.0),
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
}

fn bench_ablation_fastio(c: &mut Criterion) {
    let baseline = small_config(3);
    let mut no_fastio = small_config(3);
    no_fastio.disable_fastio = true;
    describe_run("baseline", &baseline);
    describe_run("no-fastio", &no_fastio);
    let mut g = c.benchmark_group("ablation_fastio");
    g.sample_size(10);
    g.bench_function("baseline", |b| {
        b.iter(|| std::hint::black_box(Study::run(&baseline).expect("study runs").total_records))
    });
    g.bench_function("irp_only", |b| {
        b.iter(|| std::hint::black_box(Study::run(&no_fastio).expect("study runs").total_records))
    });
    g.finish();
}

fn bench_ablation_readahead(c: &mut Criterion) {
    // The DESIGN.md sweep: no read-ahead at all, a fixed 4 KB prefetch
    // (no FAT/NTFS 64 KB boost, no sequential doubling), and the full NT
    // policy.
    let nt_policy = small_config(4);
    let mut no_ra = small_config(4);
    no_ra.disable_readahead = true;
    let fixed_4k = small_config(4);
    describe_run("readahead-nt", &nt_policy);
    describe_run("readahead-off", &no_ra);
    // The fixed-4K variant needs cache-config surgery the StudyConfig
    // doesn't expose; run it through the what-if replay engine instead,
    // which accepts a full CacheConfig.
    {
        use nt_study::{ReplayConfig, WhatIfStudy};
        let data = Study::run(&nt_policy).expect("study runs");
        let report = WhatIfStudy::new(ReplayConfig::default())
            .variant(
                "fixed-4k",
                ReplayConfig {
                    cache: fixed_4k_cache(),
                    ..ReplayConfig::default()
                },
            )
            .variant(
                "none",
                ReplayConfig {
                    cache: CacheConfig {
                        readahead_enabled: false,
                        ..CacheConfig::default()
                    },
                    ..ReplayConfig::default()
                },
            )
            .run_trace_set(&data.trace_set)
            .expect("read-ahead variants reconcile");
        let rows = std::iter::once(("nt", &report.baseline.total))
            .chain(report.variants.iter().map(|v| (v.name.as_str(), &v.total)));
        for (label, r) in rows {
            eprintln!(
                "[ablation readahead/{label}] hit rate {:.0}%, paging reads {}, prefetched {:.1} MB",
                100.0 * r.hit_rate(),
                r.paging_reads,
                r.readahead_bytes as f64 / 1.0e6
            );
        }
    }
    let mut g = c.benchmark_group("ablation_readahead");
    g.sample_size(10);
    g.bench_function("nt_policy", |b| {
        b.iter(|| std::hint::black_box(Study::run(&nt_policy).expect("study runs").total_records))
    });
    g.bench_function("fixed_4k_via_replay", |b| {
        use nt_study::{replay_stream, ReplayConfig, ReplayStream};
        let data = Study::run(&fixed_4k).expect("study runs");
        let config = ReplayConfig {
            cache: fixed_4k_cache(),
            ..ReplayConfig::default()
        };
        b.iter(|| {
            let hits: u64 = ReplayStream::from_trace_set(&data.trace_set)
                .iter()
                .map(|s| replay_stream(s, &config).facts.read_hits)
                .sum();
            std::hint::black_box(hits)
        })
    });
    g.bench_function("demand_only", |b| {
        b.iter(|| std::hint::black_box(Study::run(&no_ra).expect("study runs").total_records))
    });
    g.finish();
}

fn bench_ablation_write_through(c: &mut Criterion) {
    let baseline = small_config(5);
    let mut wt = small_config(5);
    wt.force_write_through = true;
    describe_run("lazy-writer", &baseline);
    describe_run("write-through", &wt);
    let mut g = c.benchmark_group("ablation_write_behind");
    g.sample_size(10);
    g.bench_function("lazy_writer", |b| {
        b.iter(|| std::hint::black_box(Study::run(&baseline).expect("study runs").total_records))
    });
    g.bench_function("write_through", |b| {
        b.iter(|| std::hint::black_box(Study::run(&wt).expect("study runs").total_records))
    });
    g.finish();
}

fn bench_ablation_arrival_model(c: &mut Criterion) {
    // §7's modelling point, reproduced without the simulator: bin a
    // Pareto arrival process and an exponential one at a coarse scale and
    // compare dispersion and Hill alpha.
    fn synth(heavy: bool, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = 0u64;
        (0..n)
            .map(|_| {
                let gap_s = if heavy {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    0.02 / u.powf(1.0 / 1.3)
                } else {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    -0.08 * u.ln()
                };
                t += (gap_s * 1e7) as u64;
                t
            })
            .collect()
    }
    let heavy = synth(true, 60_000, 9);
    let light = synth(false, 60_000, 9);
    let disp = |ticks: &[u64]| {
        let b = nt_analysis::burstiness::bin_arrivals(ticks, 100);
        BinnedArrivals::dispersion(&b)
    };
    let gaps = |ticks: &[u64]| -> Vec<f64> {
        ticks
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .filter(|&g| g > 0.0)
            .collect()
    };
    eprintln!(
        "[ablation arrivals] heavy-tail: dispersion {:.1}, hill alpha {:.2} | \
         exponential: dispersion {:.1}, hill alpha {:.2}",
        disp(&heavy),
        tails::hill_alpha(&gaps(&heavy)),
        disp(&light),
        tails::hill_alpha(&gaps(&light)),
    );
    let mut g = c.benchmark_group("ablation_arrival_model");
    g.bench_function("bin_and_estimate_heavy", |b| {
        b.iter(|| {
            let g1 = gaps(&heavy);
            std::hint::black_box(tails::hill_alpha(&g1))
        })
    });
    g.bench_function("bin_and_estimate_exponential", |b| {
        b.iter(|| {
            let g1 = gaps(&light);
            std::hint::black_box(tails::hill_alpha(&g1))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ablation_fastio,
    bench_ablation_readahead,
    bench_ablation_write_through,
    bench_ablation_arrival_model
);
criterion_main!(benches);
