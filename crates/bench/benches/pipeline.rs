//! Microbenchmarks of the simulator substrate and the trace pipeline:
//! the event engine, the cache manager's hot paths, record encoding, the
//! collection server's compression, fact-table construction, and a whole
//! machine-minute of simulation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nt_analysis::TraceSet;
use nt_cache::{CacheManager, CacheOpenHints, RangeSet};
use nt_fs::{NtPath, VolumeConfig};
use nt_io::{
    AccessMode, CreateOptions, DiskParams, Disposition, Machine, MachineConfig, NullObserver,
    ProcessId,
};
use nt_sim::{Engine, SimDuration, SimTime};
use nt_study::{MachineRun, StudyConfig};
use nt_trace::{CollectionServer, MachineId, RecordBatch, TraceRecord};

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_and_fire_10k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            for i in 0..10_000u64 {
                engine.schedule_at(SimTime::from_micros(i * 7 % 9_999), |w, _| *w += 1);
            }
            let mut fired = 0u64;
            engine.run(&mut fired);
            std::hint::black_box(fired)
        })
    });
    g.finish();
}

fn bench_range_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("range_set");
    g.bench_function("insert_coalesce_1k", |b| {
        b.iter(|| {
            let mut rs = RangeSet::new();
            for i in 0..1_000u64 {
                let s = (i * 37) % 100_000;
                rs.insert(s, s + 64);
            }
            std::hint::black_box(rs.covered_bytes())
        })
    });
    g.bench_function("gaps_query", |b| {
        let mut rs = RangeSet::new();
        for i in 0..500u64 {
            rs.insert(i * 200, i * 200 + 100);
        }
        b.iter(|| std::hint::black_box(rs.gaps(0, 100_000).len()))
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_manager");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("warm_copy_reads_1k", |b| {
        let mut m: CacheManager<u32> = CacheManager::with_defaults();
        let hints = CacheOpenHints::default();
        let out = m.read(&1, 0, 4_096, 1 << 20, hints);
        for io in &out.ios {
            m.complete_paging_read(&1, io.offset, io.len);
        }
        b.iter(|| {
            for i in 0..1_000u64 {
                std::hint::black_box(m.read(&1, (i * 64) % 32_768, 512, 1 << 20, hints).hit);
            }
        })
    });
    g.bench_function("cached_writes_and_lazy_scan", |b| {
        b.iter(|| {
            let mut m: CacheManager<u32> = CacheManager::with_defaults();
            let hints = CacheOpenHints::default();
            for i in 0..200u64 {
                m.write(&(i as u32 % 8), i * 4_096, 4_096, 1 << 20, hints);
            }
            let mut total = 0;
            for s in 1..20 {
                let (actions, _) = m.lazy_scan(SimTime::from_secs(s));
                total += actions.len();
            }
            std::hint::black_box(total)
        })
    });
    g.finish();
}

fn bench_records(c: &mut Criterion) {
    let records: Vec<TraceRecord> = (0..3_000u64)
        .map(|i| TraceRecord {
            code: (i % 54) as u8,
            flags: (i % 8) as u8,
            status: nt_io::NtStatus::Success,
            set_info: None,
            access: None,
            disposition: None,
            options: None,
            file_object: i,
            fcb: i / 3,
            process: 4,
            volume: 0,
            offset: i * 512,
            length: 4_096,
            transferred: 4_096,
            file_size: 1 << 20,
            byte_offset: 0,
            start_ticks: 1_000_000 + i * 131,
            end_ticks: 1_000_000 + i * 131 + 300,
        })
        .collect();
    let mut g = c.benchmark_group("trace_records");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("compress_one_buffer", |b| {
        b.iter(|| std::hint::black_box(RecordBatch::compress(&records).compressed_bytes()))
    });
    let batch = RecordBatch::compress(&records);
    g.bench_function("decompress_one_buffer", |b| {
        b.iter(|| std::hint::black_box(batch.decompress().len()))
    });
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.sample_size(20);
    g.bench_function("open_read_close_cycle", |b| {
        let mut m = Machine::new(MachineConfig::default(), NullObserver);
        let vol = m.add_local_volume(
            'C',
            VolumeConfig::local_ntfs(1 << 30),
            DiskParams::local_ide(),
        );
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            let f = v.create_file(root, "f.dat", SimTime::ZERO).unwrap();
            v.set_file_size(f, 100_000, SimTime::ZERO).unwrap();
        }
        let path = NtPath::parse(r"\f.dat");
        let mut t = SimTime::from_secs(1);
        b.iter(|| {
            let (_, h) = m.create(
                ProcessId(1),
                vol,
                &path,
                AccessMode::Read,
                Disposition::Open,
                CreateOptions::default(),
                t,
            );
            let h = h.expect("file exists");
            let r = m.read(h, Some(0), 4_096, t);
            let r = m.close(h, r.end);
            t = r.end + SimDuration::from_micros(10);
            std::hint::black_box(t)
        })
    });
    g.bench_function("simulate_machine_minute", |b| {
        b.iter(|| {
            let mut config = StudyConfig::smoke_test(7);
            config.duration = SimDuration::from_secs(60);
            let mut run = MachineRun::build(&config, 0, &config.machines[0].clone());
            let mut server = CollectionServer::new();
            run.simulate(&config, &mut server);
            std::hint::black_box(server.total_records())
        })
    });
    g.finish();
}

fn bench_fact_tables(c: &mut Criterion) {
    // Build one machine-run worth of records once.
    let mut config = StudyConfig::smoke_test(9);
    config.duration = SimDuration::from_secs(120);
    let mut run = MachineRun::build(&config, 0, &config.machines[0].clone());
    let mut server = CollectionServer::new();
    run.simulate(&config, &mut server);
    let records = server.records_for(MachineId(0));
    let names: Vec<_> = server
        .names_for(MachineId(0))
        .into_iter()
        .cloned()
        .collect();
    let mut g = c.benchmark_group("fact_tables");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("trace_set_build", |b| {
        b.iter(|| {
            std::hint::black_box(
                TraceSet::build(vec![(0, records.clone(), names.clone())])
                    .instances
                    .len(),
            )
        })
    });
    g.finish();
}

fn bench_downstream(c: &mut Criterion) {
    use nt_study::{replay_stream, ReplayConfig, ReplayStream, Study};
    let data = Study::run(&StudyConfig::smoke_test(13)).expect("study runs");
    let mut g = c.benchmark_group("downstream");
    g.sample_size(10);
    g.bench_function("replay_default_policy", |b| {
        b.iter(|| {
            let replayed: u64 = ReplayStream::from_trace_set(&data.trace_set)
                .iter()
                .map(|s| {
                    replay_stream(s, &ReplayConfig::default())
                        .facts
                        .replayed_requests
                })
                .sum();
            std::hint::black_box(replayed)
        })
    });
    g.bench_function("profile_fit", |b| {
        b.iter(|| {
            std::hint::black_box(
                nt_analysis::profile::fit_profile(&data.trace_set).map(|p| p.control_fraction),
            )
        })
    });
    let records: Vec<_> = data.trace_set.records.iter().map(|(_, r)| r).collect();
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("paging_dedup_filter", |b| {
        b.iter(|| std::hint::black_box(nt_trace::filter_paging_duplicates(&records).len()))
    });
    g.finish();
}

fn bench_snapshots(c: &mut Criterion) {
    use nt_trace::SnapshotWalker;
    use nt_workload::{ContentBuilder, ContentPlan};
    use rand::SeedableRng;
    let mut vol = nt_fs::Volume::new(VolumeConfig::local_ntfs(8 << 30));
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    let plan = ContentPlan {
        target_files: 8_000,
        users: vec!["bench".into()],
        web_cache_files: 800,
        developer_package: true,
        backdated_fraction: 0.3,
    };
    ContentBuilder::build(&mut vol, &plan, SimTime::ZERO, &mut rng).expect("content fits");
    let mut g = c.benchmark_group("snapshots");
    g.throughput(Throughput::Elements(vol.stats().files));
    g.bench_function("walk_8k_file_volume", |b| {
        b.iter(|| {
            std::hint::black_box(
                SnapshotWalker::walk_volume(nt_fs::VolumeId(0), &vol, SimTime::ZERO)
                    .records
                    .len(),
            )
        })
    });
    let snap = SnapshotWalker::walk_volume(nt_fs::VolumeId(0), &vol, SimTime::ZERO);
    g.bench_function("content_stats", |b| {
        b.iter(|| std::hint::black_box(nt_analysis::content::content_stats(&snap).files))
    });
    g.finish();
}

fn bench_scaling(c: &mut Criterion) {
    use nt_study::Study;
    let mut g = c.benchmark_group("sim_scaling");
    g.sample_size(10);
    for machines in [1usize, 5, 15] {
        let mut config = StudyConfig::smoke_test(19);
        config.duration = SimDuration::from_secs(60);
        let mut specs = Vec::new();
        while specs.len() < machines {
            for s in StudyConfig::smoke_test(19).machines {
                if specs.len() < machines {
                    specs.push(s);
                }
            }
        }
        config.machines = specs;
        g.bench_function(format!("machines_{machines:02}_x_60s"), |b| {
            b.iter(|| std::hint::black_box(Study::run(&config).expect("study runs").total_records))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_range_set,
    bench_cache,
    bench_records,
    bench_machine,
    bench_fact_tables,
    bench_downstream,
    bench_snapshots,
    bench_scaling
);
criterion_main!(benches);
