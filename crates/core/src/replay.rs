//! Trace-driven replay: run a collected trace against a different cache
//! configuration.
//!
//! The paper's stated goal beyond the analysis was "a data collection
//! that … could be used as input for file system simulation studies"
//! (§1). This module is that simulator's machine room: it takes one
//! machine's recorded application-level requests, replays them open-loop
//! at their original timestamps against a freshly configured I/O stack,
//! and reports how the new policies would have behaved — the §9
//! ablation instrument. The fleet-level orchestration (variant matrices,
//! work-stealing fan-out, conservation audits) lives in
//! [`crate::whatif`]; [`replay_stream`] is its unit of work.
//!
//! Paging records in the input are skipped: they are an *output* of the
//! original cache policy and are regenerated by the replayed one.
//!
//! Everything here iterates in sorted order — `BTreeMap`s for handles
//! and machines, a total-order sort for each machine's records — so a
//! replay is a pure function of (trace, config): bit-identical between
//! runs, processes, worker counts and trace sources.

use std::collections::{BTreeMap, BTreeSet};

use nt_analysis::whatif::ReplayFacts;
use nt_analysis::TraceSet;
use nt_cache::{CacheConfig, CacheMetrics};
use nt_fs::{NtPath, VolumeConfig, VolumeId};
use nt_io::{
    DiskParams, EventKind, HandleId, IoMetrics, Machine, MachineConfig, MajorFunction,
    NullObserver, ProcessId,
};
use nt_sim::SimTime;
use nt_trace::steal::run_indexed;
use nt_trace::TraceRecord;
use nt_vm::VmMetrics;

use crate::shard::host_workers;

/// The policies to replay under.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Cache-manager tunables (read-ahead policy, lazy writer, …).
    pub cache: CacheConfig,
    /// Remove the FastIO dispatch table.
    pub disable_fastio: bool,
    /// Clean-cache memory budget.
    pub cache_budget_bytes: u64,
    /// The latency-model axis: what kind of disk the replayed machines
    /// sit on (1998 IDE by default; [`DiskParams::ssd_class`] asks which
    /// policies stop mattering when seeks are free).
    pub disk: DiskParams,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        let m = MachineConfig::default();
        ReplayConfig {
            cache: m.cache,
            disable_fastio: false,
            cache_budget_bytes: m.cache_budget_bytes,
            disk: DiskParams::local_ide(),
        }
    }
}

/// One machine's slice of a trace in canonical replay order: the unit of
/// work the what-if engine schedules.
///
/// `normalize` sorts records by a total-order key, so two streams built
/// from the same trace — whether it arrived as a live fact table or an
/// NTT warehouse scan, in any batch arrangement — compare equal and
/// replay identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayStream {
    /// The traced machine.
    pub machine: u32,
    /// Its records, normalized (sorted by the total-order key).
    pub records: Vec<TraceRecord>,
    /// File-object → path, last recorded name winning (the fact-table
    /// name-dimension rule).
    pub names: BTreeMap<u64, String>,
}

impl ReplayStream {
    /// Sorts `records` into canonical replay order.
    pub fn normalize(&mut self) {
        self.records.sort_by_key(record_key);
    }

    /// Partitions a fact table into per-machine streams, ascending by
    /// machine id. Every machine with records or names gets a stream, so
    /// a machine whose records were all lost still answers, with its
    /// names and no records.
    ///
    /// One pass over the machine column groups row indices and one pass
    /// over the name map groups names; then one task per machine on the
    /// work-stealing pool, one worker per core, gathers its rows, clones
    /// its names and normalizes. A panicking task is re-raised as a
    /// panic that names its machine.
    pub fn from_trace_set(ts: &TraceSet) -> Vec<ReplayStream> {
        Self::extract(ts, host_workers())
    }

    /// [`ReplayStream::from_trace_set`] on `workers` threads.
    pub(crate) fn extract(ts: &TraceSet, workers: usize) -> Vec<ReplayStream> {
        let mut rows: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, &machine) in ts.records.machines().iter().enumerate() {
            rows.entry(machine).or_default().push(i);
        }
        let mut names: BTreeMap<u32, Vec<(u64, &String)>> = BTreeMap::new();
        for (&(machine, file_object), path) in &ts.names {
            names.entry(machine).or_default().push((file_object, path));
        }
        let machines: Vec<u32> = rows
            .keys()
            .chain(names.keys())
            .copied()
            .collect::<BTreeSet<u32>>()
            .into_iter()
            .collect();
        per_machine(&machines, workers, |machine| {
            let mut stream = ReplayStream {
                machine,
                records: rows.get(&machine).map_or_else(Vec::new, |rows| {
                    rows.iter().map(|&i| ts.records.get(i)).collect()
                }),
                names: names.get(&machine).map_or_else(BTreeMap::new, |names| {
                    names.iter().map(|&(fo, path)| (fo, path.clone())).collect()
                }),
            };
            stream.normalize();
            stream
        })
    }
}

/// Runs one stream-extraction `task` per machine on the work-stealing
/// pool and returns the results in `machines` order. A panicking task
/// is re-raised as a panic that names its machine.
pub(crate) fn per_machine<T, F>(machines: &[u32], workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let (slots, panic) = run_indexed(machines.len(), workers, |i| task(machines[i]));
    if let Some(p) = panic {
        panic!(
            "replay extraction of machine {}: {}",
            machines[p.index], p.message
        );
    }
    // No task panicked, so every slot holds its result.
    slots.into_iter().flatten().collect()
}

/// A total order over records: primary replay order is arrival time,
/// with enough of the record appended that equal keys imply
/// interchangeable records — the property that makes normalization
/// source-independent.
fn record_key(r: &TraceRecord) -> (u64, u64, u64, u8, u64, u64, u64) {
    (
        r.start_ticks,
        r.file_object,
        r.end_ticks,
        r.code,
        r.offset,
        r.length,
        r.transferred,
    )
}

/// Everything one machine's replay under one variant produced: the
/// fact-table row plus the raw layer metrics the conservation audit
/// reconciles.
#[derive(Clone, Debug)]
pub struct MachineVariantOutcome {
    /// The replayed machine.
    pub machine: u32,
    /// The differential-table row.
    pub facts: ReplayFacts,
    /// I/O-layer counters of the replayed stack.
    pub io: IoMetrics,
    /// Cache-manager counters of the replayed stack.
    pub cache: CacheMetrics,
    /// VM counters of the replayed stack.
    pub vm: VmMetrics,
    /// Dirty bytes still unwritten when the replay drained.
    pub residual_dirty_bytes: u64,
}

struct MachineReplay {
    machine: Machine<NullObserver>,
    handles: BTreeMap<u64, HandleId>,
    volumes: Vec<VolumeId>,
    file_seq: u64,
}

impl MachineReplay {
    fn new(config: &ReplayConfig, volumes_needed: u32) -> Self {
        let machine_config = MachineConfig {
            cache: config.cache.clone(),
            disable_fastio: config.disable_fastio,
            cache_budget_bytes: config.cache_budget_bytes,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(machine_config, NullObserver);
        let mut volumes = Vec::new();
        for v in 0..volumes_needed.max(1) {
            let drive = (b'C' + (v as u8 % 20)) as char;
            volumes.push(machine.add_local_volume(
                drive,
                VolumeConfig::local_ntfs(32 << 30),
                config.disk.clone(),
            ));
        }
        MachineReplay {
            machine,
            handles: BTreeMap::new(),
            volumes,
            file_seq: 0,
        }
    }

    /// Ensures the file exists at the recorded size; replayed traces may
    /// reference files created before the trace started.
    fn ensure_file(&mut self, volume: VolumeId, path: &NtPath, size: u64) {
        let Ok(vol) = self.machine.namespace_mut().volume_mut(volume) else {
            return;
        };
        if vol.lookup(path).is_ok() {
            return;
        }
        let now = SimTime::ZERO;
        let Ok(parent) = vol.mkdir_all(&path.parent(), now) else {
            return;
        };
        let Some(name) = path.file_name() else {
            return;
        };
        if let Ok(node) = vol.create_file(parent, name, now) {
            let _ = vol.set_file_size(node, size, now);
        }
    }

    fn synthesize_path(&mut self) -> NtPath {
        // Records without a captured name still need a namespace slot.
        self.file_seq += 1;
        NtPath::parse(&format!(r"\replay\anon{:08}.dat", self.file_seq))
    }
}

/// Replays one machine's stream under one policy variant.
///
/// A pure function of its arguments: machine construction, record walk
/// and drain all iterate in sorted order, and the stack's own RNG is
/// seeded from the machine config, so the outcome is bit-identical
/// wherever and however often it runs.
/// Panics when `config.cache.lazy_write_interval` is zero, which a
/// [`crate::WhatIfStudy`] reports as a [`crate::WhatIfError::Task`].
pub fn replay_stream(stream: &ReplayStream, config: &ReplayConfig) -> MachineVariantOutcome {
    let volumes_needed = stream
        .records
        .iter()
        .map(|r| r.volume + 1)
        .max()
        .unwrap_or(1);
    let mut mr = MachineReplay::new(config, volumes_needed);
    let mut facts = ReplayFacts {
        machine: stream.machine,
        source_records: stream.records.len() as u64,
        ..ReplayFacts::default()
    };

    for rec in &stream.records {
        if rec.is_paging() {
            facts.skipped_records += 1;
            continue;
        }
        let now = SimTime::from_ticks(rec.start_ticks);
        mr.machine.run_lazy_writer(now);
        match rec.kind() {
            EventKind::Irp(MajorFunction::Create) => {
                if rec.status.is_error() {
                    facts.skipped_records += 1;
                    continue;
                }
                let volume = mr
                    .volumes
                    .get(rec.volume as usize)
                    .copied()
                    .unwrap_or(mr.volumes[0]);
                let path = match stream.names.get(&rec.file_object) {
                    Some(p) => NtPath::parse(p),
                    None => mr.synthesize_path(),
                };
                let disposition = rec.disposition.unwrap_or(nt_io::Disposition::OpenIf);
                if !disposition.truncates() {
                    mr.ensure_file(volume, &path, rec.file_size);
                } else {
                    mr.ensure_file(volume, &path, 0);
                }
                let access = rec.access.unwrap_or(nt_io::AccessMode::ReadWrite);
                // Replay with permissive sharing/access so the recorded
                // data operations cannot be refused.
                let access = match access {
                    nt_io::AccessMode::Control | nt_io::AccessMode::Delete => access,
                    _ => nt_io::AccessMode::ReadWrite,
                };
                let (reply, handle) = mr.machine.create(
                    ProcessId(rec.process),
                    volume,
                    &path,
                    access,
                    if disposition.may_create() || disposition.truncates() {
                        disposition
                    } else {
                        nt_io::Disposition::OpenIf
                    },
                    rec.options.unwrap_or_default(),
                    now,
                );
                match handle {
                    Some(h) if reply.status.is_success() => {
                        mr.handles.insert(rec.file_object, h);
                        facts.replayed_requests += 1;
                    }
                    _ => facts.skipped_records += 1,
                }
            }
            k if k.is_read() => {
                let Some(&h) = mr.handles.get(&rec.file_object) else {
                    facts.skipped_records += 1;
                    continue;
                };
                mr.machine.read(h, Some(rec.offset), rec.length, now);
                facts.replayed_requests += 1;
            }
            k if k.is_write() => {
                let Some(&h) = mr.handles.get(&rec.file_object) else {
                    facts.skipped_records += 1;
                    continue;
                };
                mr.machine.write(h, Some(rec.offset), rec.length, now);
                facts.replayed_requests += 1;
            }
            EventKind::Irp(MajorFunction::Cleanup) => {
                if let Some(h) = mr.handles.remove(&rec.file_object) {
                    mr.machine.close(h, now);
                }
                facts.control_records += 1;
            }
            _ => {
                // Control traffic does not interact with the cache
                // policies under study.
                facts.control_records += 1;
            }
        }
    }

    // Drain: give the lazy writer thirty scans past the last request,
    // then pump outstanding completions so the counters quiesce.
    let mut due = mr.machine.next_lazy_scan();
    for _ in 0..30 {
        due = mr.machine.run_lazy_writer(due);
    }
    mr.machine.pump(due);

    let io = mr.machine.metrics();
    let cache = mr.machine.cache_metrics();
    let vm = mr.machine.vm_metrics();
    facts.read_hits = cache.read_hits;
    facts.read_misses = cache.read_misses;
    facts.read_hit_bytes = cache.read_hit_bytes;
    facts.demand_read_bytes = cache.demand_read_bytes;
    facts.readahead_bytes = cache.readahead_bytes;
    facts.readahead_ios = cache.readahead_ios;
    facts.fastio_reads = io.fastio_reads;
    facts.irp_reads = io.irp_reads;
    facts.paging_reads = io.paging_reads;
    facts.paging_writes = io.paging_writes;
    facts.disk_busy_ticks = mr.machine.disk_busy_ticks();

    MachineVariantOutcome {
        machine: stream.machine,
        facts,
        io,
        cache,
        vm,
        residual_dirty_bytes: mr.machine.residual_dirty_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::study::Study;
    use crate::whatif::WhatIfStudy;
    use nt_sim::SimDuration;
    use std::sync::OnceLock;

    struct Holder {
        ts: nt_analysis::TraceSet,
    }

    fn trace() -> &'static Holder {
        static DATA: OnceLock<Holder> = OnceLock::new();
        DATA.get_or_init(|| Holder {
            ts: Study::run(&StudyConfig::smoke_test(55))
                .expect("smoke study runs")
                .trace_set,
        })
    }

    /// The fleet-total replay facts of `ts` under `config`, machine by
    /// machine in ascending id order.
    fn total(ts: &TraceSet, config: &ReplayConfig) -> ReplayFacts {
        let rows: Vec<ReplayFacts> = ReplayStream::from_trace_set(ts)
            .iter()
            .map(|s| replay_stream(s, config).facts)
            .collect();
        ReplayFacts::fleet_total(&rows)
    }

    #[test]
    fn replay_reproduces_comparable_traffic() {
        let ts = &trace().ts;
        let baseline = total(ts, &ReplayConfig::default());
        assert!(baseline.replayed_requests > 500, "{baseline:?}");
        assert!(baseline.read_hits + baseline.read_misses > 0);
        assert!(baseline.hit_rate() > 0.2, "{}", baseline.hit_rate());
    }

    #[test]
    fn readahead_off_hurts_hit_rate() {
        let ts = &trace().ts;
        let on = total(ts, &ReplayConfig::default());
        let off = total(
            ts,
            &ReplayConfig {
                cache: CacheConfig {
                    readahead_enabled: false,
                    ..CacheConfig::default()
                },
                ..ReplayConfig::default()
            },
        );
        assert!(
            off.hit_rate() < on.hit_rate(),
            "no-readahead {} vs baseline {}",
            off.hit_rate(),
            on.hit_rate()
        );
        assert!(off.readahead_bytes == 0);
    }

    #[test]
    fn fastio_disabled_moves_reads_to_irp() {
        let ts = &trace().ts;
        let r = total(
            ts,
            &ReplayConfig {
                disable_fastio: true,
                ..ReplayConfig::default()
            },
        );
        assert_eq!(r.fastio_reads, 0);
        assert!(r.irp_reads > 0);
    }

    #[test]
    fn ssd_class_disk_cuts_disk_busy_time() {
        let ts = &trace().ts;
        let ide = total(ts, &ReplayConfig::default()).disk_busy_ticks;
        let ssd = total(
            ts,
            &ReplayConfig {
                disk: DiskParams::ssd_class(),
                ..ReplayConfig::default()
            },
        )
        .disk_busy_ticks;
        assert!(ide > 0 && ssd > 0);
        assert!(
            ssd * 10 < ide,
            "SSD-class disks should be an order of magnitude less busy: ide={ide} ssd={ssd}"
        );
    }

    #[test]
    fn tiny_cache_cannot_beat_the_baseline() {
        let ts = &trace().ts;
        let report = WhatIfStudy::new(ReplayConfig::default())
            .variant(
                "tiny-cache",
                ReplayConfig {
                    cache_budget_bytes: 64 << 10,
                    ..ReplayConfig::default()
                },
            )
            .run_trace_set(ts)
            .expect("variants reconcile");
        assert_eq!(report.variants.len(), 1);
        assert_eq!(report.variants[0].name, "tiny-cache");
        let (baseline, tiny) = (&report.baseline.total, &report.variants[0].total);
        assert!(tiny.hit_rate() <= baseline.hit_rate() + 0.05);
    }

    /// The baseline policy with the lazy writer scanning every `period`.
    fn lazy_every(period: SimDuration) -> ReplayConfig {
        ReplayConfig {
            cache: CacheConfig {
                lazy_write_interval: period,
                ..CacheConfig::default()
            },
            ..ReplayConfig::default()
        }
    }

    /// The lazy-writer period is a replay axis: an 8 s variant writes
    /// dirty pages back on another schedule than the 1 s baseline, so
    /// its fleet totals differ, and its replayed stacks reconcile.
    #[test]
    fn lazy_writer_cadence_moves_the_replay() {
        let report = WhatIfStudy::new(ReplayConfig::default())
            .variant("lazy-writer-8s", lazy_every(SimDuration::from_secs(8)))
            .run_trace_set(&trace().ts)
            .expect("the 8 s variant reconciles");
        assert_ne!(report.baseline.total, report.variants[0].total);
    }

    /// A zero period cannot advance the replay clock: the study refuses
    /// it with a typed error naming the variant instead of hanging.
    #[test]
    fn a_zero_lazy_writer_period_is_a_typed_error() {
        let err = WhatIfStudy::new(ReplayConfig::default())
            .variant("lazy-writer-0s", lazy_every(SimDuration::ZERO))
            .run_trace_set(&trace().ts)
            .expect_err("a zero period is refused");
        assert!(
            matches!(&err, crate::WhatIfError::Task { variant, message, .. }
                if variant == "lazy-writer-0s" && message.contains("lazy_write_interval")),
            "{err}"
        );
    }

    /// A machine with names but no records (its records were all lost)
    /// still gets a stream, from the partition and from the study alike:
    /// empty, names kept, replayed to an all-zero row that reconciles.
    #[test]
    fn a_machine_with_names_only_gets_an_empty_stream() {
        let smoke = &trace().ts;
        let source = smoke.records.machine_at(0);
        let records: nt_analysis::FactTable = smoke
            .records
            .iter()
            .filter(|&(m, _)| m == source)
            .map(|(_, r)| (0, r))
            .collect();
        let mut names: std::collections::HashMap<(u32, u64), String> = smoke
            .names
            .iter()
            .filter(|((m, _), _)| *m == source)
            .map(|((_, fo), path)| ((0, *fo), path.clone()))
            .collect();
        names.insert((1, 42), r"\lost\only-a-name.txt".to_string());
        let ts = TraceSet {
            records,
            instances: Vec::new(),
            names,
        };

        let streams = ReplayStream::from_trace_set(&ts);
        let machines: Vec<u32> = streams.iter().map(|s| s.machine).collect();
        assert_eq!(machines, vec![0, 1]);
        assert_eq!(streams[0].records.len(), ts.records.len());
        assert!(streams[1].records.is_empty());
        assert_eq!(
            streams[1].names,
            BTreeMap::from([(42, r"\lost\only-a-name.txt".to_string())])
        );

        let report = WhatIfStudy::new(ReplayConfig::default())
            .run_trace_set(&ts)
            .expect("an empty stream reconciles");
        assert_eq!(report.machines, vec![0, 1]);
        assert_eq!(
            report.baseline.rows[1],
            ReplayFacts {
                machine: 1,
                ..ReplayFacts::default()
            }
        );
        crate::whatif::audit_variant("baseline", &report.baseline.outcomes)
            .expect("the empty machine reconciles");
    }

    #[test]
    #[should_panic(expected = "replay extraction of machine 7: bad stream")]
    fn a_panicking_extraction_task_names_its_machine() {
        per_machine(&[3, 7, 9], 2, |machine| {
            assert!(machine != 7, "bad stream");
            machine
        });
    }

    /// The PR 1/8 nondeterminism class, closed here: with `HashMap`s for
    /// handles or machines, two replays in one process could walk
    /// records against differently-ordered internal state. Per-machine
    /// fact rows must be bit-identical run-over-run.
    #[test]
    fn replay_twice_in_one_process_is_bit_identical() {
        let ts = &trace().ts;
        let digest = |rows: &[MachineVariantOutcome]| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for o in rows {
                for byte in format!("{:?}", o.facts).bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        };
        let run = || -> Vec<MachineVariantOutcome> {
            ReplayStream::from_trace_set(ts)
                .iter()
                .map(|s| replay_stream(s, &ReplayConfig::default()))
                .collect()
        };
        let a = run();
        let b = run();
        assert_eq!(digest(&a), digest(&b));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.facts, y.facts, "machine {} drifted", x.machine);
        }
    }
}
