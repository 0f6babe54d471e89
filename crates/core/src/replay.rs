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
//! A stream is compiled once into a `ReplayProgram`: the record decode,
//! the skip and control rules, the create paths and a dense slot per file
//! object are fixed before any policy runs, and each policy cell runs the
//! program with its handles in a slot vector.
//!
//! Everything here iterates in a fixed order — a `BTreeMap` for machines,
//! a total-order sort for each machine's records, slots numbered in
//! stream order — so a replay is a pure function of (trace, config):
//! bit-identical between runs, processes, worker counts and trace
//! sources.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use nt_analysis::whatif::ReplayFacts;
use nt_analysis::TraceSet;
use nt_cache::{CacheConfig, CacheMetrics};
use nt_fs::{NtPath, VolumeConfig, VolumeId};
use nt_io::{
    AccessMode, CreateOptions, DiskParams, Disposition, EventKind, HandleId, IoMetrics, Machine,
    MachineConfig, MajorFunction, NullObserver, ProcessId,
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
        Self::extract(ts, host_workers(), |stream| stream)
    }

    /// [`ReplayStream::from_trace_set`] on `workers` threads, each task
    /// handing its normalized stream to `finish` and keeping what that
    /// makes of it.
    pub(crate) fn extract<T: Send>(
        ts: &TraceSet,
        workers: usize,
        finish: impl Fn(ReplayStream) -> T + Sync,
    ) -> Vec<T> {
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
            finish(stream)
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

/// One machine's stream compiled for replay: every per-record decision
/// that no policy changes, made once. A what-if study compiles each
/// stream as it extracts it and runs the program once per policy row.
///
/// The compile keeps the replay's rules exact. Paging records and failed
/// creates are skipped, and every record that is neither a create nor a
/// data request is control traffic, whatever the policy. Each create,
/// read, write and cleanup becomes one op, in stream order. The lazy
/// writer steps to each op's arrival before the op runs, and once more to
/// the last non-paging arrival before the drain; the scans a control or
/// skipped record would have stepped to are the same scans, run at the
/// same due times, because nothing else happens between them.
pub(crate) struct ReplayProgram {
    machine: u32,
    /// Local volumes the replayed machine mounts: one past the highest
    /// recorded volume index, and at least one.
    volumes: u32,
    source_records: u64,
    /// Paging records and failed creates.
    skipped_records: u64,
    /// Every record that is neither a create nor a data request,
    /// cleanups included.
    control_records: u64,
    /// The paths the creates open, parsed once.
    paths: Vec<NtPath>,
    /// File-object slots, numbered densely in order of first appearance.
    slots: usize,
    ops: Vec<Op>,
    /// The last non-paging record's arrival: the lazy writer's last step
    /// before the drain.
    last_arrival: Option<SimTime>,
}

/// One replayed request: its arrival and the file object it names.
struct Op {
    at: SimTime,
    slot: u32,
    step: Step,
}

enum Step {
    Create(Create),
    Read {
        offset: u64,
        length: u64,
    },
    Write {
        offset: u64,
        length: u64,
    },
    /// Closes the slot's handle, when it holds one.
    Cleanup,
}

/// A create as the replay issues it: permissive access and a disposition
/// that cannot fail on a file the trace found existing.
struct Create {
    process: ProcessId,
    volume: u32,
    path: u32,
    access: AccessMode,
    disposition: Disposition,
    options: CreateOptions,
    /// The size the file gets if the replayed namespace lacks it.
    size: u64,
}

impl ReplayProgram {
    /// Compiles one normalized stream.
    pub(crate) fn compile(stream: &ReplayStream) -> ReplayProgram {
        let volumes = stream
            .records
            .iter()
            .map(|r| r.volume + 1)
            .max()
            .unwrap_or(1)
            .max(1);
        let mut program = ReplayProgram {
            machine: stream.machine,
            volumes,
            source_records: stream.records.len() as u64,
            skipped_records: 0,
            control_records: 0,
            paths: Vec::new(),
            slots: 0,
            ops: Vec::new(),
            last_arrival: None,
        };
        // Looked up, never iterated: slots and paths are numbered in
        // stream order.
        let mut slots: HashMap<u64, u32> = HashMap::new();
        let mut named: HashMap<u64, u32> = HashMap::new();
        // Records without a captured name still need a namespace slot.
        let mut anonymous = 0u64;
        for rec in &stream.records {
            if rec.is_paging() {
                program.skipped_records += 1;
                continue;
            }
            let at = SimTime::from_ticks(rec.start_ticks);
            program.last_arrival = Some(at);
            let step = match rec.kind() {
                EventKind::Irp(MajorFunction::Create) => {
                    if rec.status.is_error() {
                        program.skipped_records += 1;
                        continue;
                    }
                    let path = match stream.names.get(&rec.file_object) {
                        Some(name) => *named
                            .entry(rec.file_object)
                            .or_insert_with(|| push_path(&mut program.paths, name)),
                        None => {
                            anonymous += 1;
                            let name = format!(r"\replay\anon{anonymous:08}.dat");
                            push_path(&mut program.paths, &name)
                        }
                    };
                    let disposition = rec.disposition.unwrap_or(Disposition::OpenIf);
                    // Replay with permissive sharing/access so the
                    // recorded data operations cannot be refused.
                    let access = match rec.access.unwrap_or(AccessMode::ReadWrite) {
                        a @ (AccessMode::Control | AccessMode::Delete) => a,
                        _ => AccessMode::ReadWrite,
                    };
                    Step::Create(Create {
                        process: ProcessId(rec.process),
                        volume: if rec.volume < volumes { rec.volume } else { 0 },
                        path,
                        access,
                        disposition: if disposition.may_create() || disposition.truncates() {
                            disposition
                        } else {
                            Disposition::OpenIf
                        },
                        options: rec.options.unwrap_or_default(),
                        size: if disposition.truncates() {
                            0
                        } else {
                            rec.file_size
                        },
                    })
                }
                k if k.is_read() => Step::Read {
                    offset: rec.offset,
                    length: rec.length,
                },
                k if k.is_write() => Step::Write {
                    offset: rec.offset,
                    length: rec.length,
                },
                EventKind::Irp(MajorFunction::Cleanup) => {
                    program.control_records += 1;
                    Step::Cleanup
                }
                _ => {
                    // Control traffic does not interact with the cache
                    // policies under study.
                    program.control_records += 1;
                    continue;
                }
            };
            let next = slots.len() as u32;
            let slot = *slots.entry(rec.file_object).or_insert(next);
            program.ops.push(Op { at, slot, step });
        }
        program.slots = slots.len();
        program
    }

    /// The traced machine.
    pub(crate) fn machine(&self) -> u32 {
        self.machine
    }

    /// Replays the program under one policy variant. Panics when
    /// `config.cache.lazy_write_interval` is zero.
    pub(crate) fn run(&self, config: &ReplayConfig) -> MachineVariantOutcome {
        let machine_config = MachineConfig {
            cache: config.cache.clone(),
            disable_fastio: config.disable_fastio,
            cache_budget_bytes: config.cache_budget_bytes,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(machine_config, NullObserver);
        let volumes: Vec<VolumeId> = (0..self.volumes)
            .map(|v| {
                let drive = (b'C' + (v as u8 % 20)) as char;
                machine.add_local_volume(
                    drive,
                    VolumeConfig::local_ntfs(32 << 30),
                    config.disk.clone(),
                )
            })
            .collect();
        let mut handles: Vec<Option<HandleId>> = vec![None; self.slots];
        let mut facts = ReplayFacts {
            machine: self.machine,
            source_records: self.source_records,
            skipped_records: self.skipped_records,
            control_records: self.control_records,
            ..ReplayFacts::default()
        };

        for op in &self.ops {
            machine.run_lazy_writer(op.at);
            let handle = &mut handles[op.slot as usize];
            match op.step {
                Step::Create(ref c) => {
                    let volume = volumes[c.volume as usize];
                    let path = &self.paths[c.path as usize];
                    ensure_file(&mut machine, volume, path, c.size);
                    let (reply, opened) = machine.create(
                        c.process,
                        volume,
                        path,
                        c.access,
                        c.disposition,
                        c.options,
                        op.at,
                    );
                    match opened {
                        Some(h) if reply.status.is_success() => {
                            *handle = Some(h);
                            facts.replayed_requests += 1;
                        }
                        _ => facts.skipped_records += 1,
                    }
                }
                Step::Read { offset, length } => {
                    let Some(h) = *handle else {
                        facts.skipped_records += 1;
                        continue;
                    };
                    machine.read(h, Some(offset), length, op.at);
                    facts.replayed_requests += 1;
                }
                Step::Write { offset, length } => {
                    let Some(h) = *handle else {
                        facts.skipped_records += 1;
                        continue;
                    };
                    machine.write(h, Some(offset), length, op.at);
                    facts.replayed_requests += 1;
                }
                Step::Cleanup => {
                    if let Some(h) = handle.take() {
                        machine.close(h, op.at);
                    }
                }
            }
        }
        // Records after the last op, control traffic or skipped, still
        // step the lazy writer to their arrival.
        if let Some(at) = self.last_arrival {
            machine.run_lazy_writer(at);
        }

        // Drain: give the lazy writer thirty scans past the last request,
        // then pump outstanding completions so the counters quiesce.
        let mut due = machine.next_lazy_scan();
        for _ in 0..30 {
            due = machine.run_lazy_writer(due);
        }
        machine.pump(due);

        let io = machine.metrics();
        let cache = machine.cache_metrics();
        let vm = machine.vm_metrics();
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
        facts.disk_busy_ticks = machine.disk_busy_ticks();

        MachineVariantOutcome {
            machine: self.machine,
            facts,
            io,
            cache,
            vm,
            residual_dirty_bytes: machine.residual_dirty_bytes(),
        }
    }
}

/// Parses `name` into `paths` and returns its index.
fn push_path(paths: &mut Vec<NtPath>, name: &str) -> u32 {
    paths.push(NtPath::parse(name));
    (paths.len() - 1) as u32
}

/// Ensures the file exists at the recorded size; replayed traces may
/// reference files created before the trace started.
fn ensure_file(machine: &mut Machine<NullObserver>, volume: VolumeId, path: &NtPath, size: u64) {
    let Ok(vol) = machine.namespace_mut().volume_mut(volume) else {
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

/// Replays one machine's stream under one policy variant: compiles it,
/// then runs the program.
///
/// A pure function of its arguments: machine construction, record walk
/// and drain all iterate in stream order, and the stack's own RNG is
/// seeded from the machine config, so the outcome is bit-identical
/// wherever and however often it runs.
/// Panics when `config.cache.lazy_write_interval` is zero, which a
/// [`crate::WhatIfStudy`] reports as a [`crate::WhatIfError::Task`].
pub fn replay_stream(stream: &ReplayStream, config: &ReplayConfig) -> MachineVariantOutcome {
    ReplayProgram::compile(stream).run(config)
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

    /// One record of the hand-built stream: a successful local request
    /// of `kind` on file object `fo` by process 7, arriving at `at`.
    fn rec(at: u64, kind: EventKind, fo: u64) -> TraceRecord {
        TraceRecord {
            code: kind.code(),
            flags: TraceRecord::FLAG_LOCAL,
            status: nt_io::NtStatus::Success,
            set_info: None,
            access: None,
            disposition: None,
            options: None,
            file_object: fo,
            fcb: u64::MAX,
            process: 7,
            volume: 0,
            offset: 0,
            length: 0,
            transferred: 0,
            file_size: 0,
            byte_offset: 0,
            start_ticks: at,
            end_ticks: at + 10,
        }
    }

    /// A create of `fo` that found a file of `size` bytes.
    fn open(
        at: u64,
        fo: u64,
        access: AccessMode,
        disposition: Disposition,
        size: u64,
    ) -> TraceRecord {
        TraceRecord {
            access: Some(access),
            disposition: Some(disposition),
            options: Some(CreateOptions::default()),
            file_size: size,
            ..rec(at, EventKind::Irp(MajorFunction::Create), fo)
        }
    }

    /// A read or write of `length` bytes at `offset`.
    fn data(at: u64, kind: EventKind, fo: u64, offset: u64, length: u64) -> TraceRecord {
        TraceRecord {
            offset,
            length,
            transferred: length,
            ..rec(at, kind, fo)
        }
    }

    /// Every per-record rule of the replay on one hand-built stream,
    /// pinned to the counters it replays to.
    #[test]
    fn every_replay_rule_on_one_stream() {
        const SEC: u64 = 10_000_000;
        let irp_read = EventKind::Irp(MajorFunction::Read);
        let irp_write = EventKind::Irp(MajorFunction::Write);
        let fast_read = EventKind::FastIo(nt_io::FastIoKind::Read);
        let fast_write = EventKind::FastIo(nt_io::FastIoKind::Write);
        let cleanup = EventKind::Irp(MajorFunction::Cleanup);
        let paging = |r: TraceRecord| TraceRecord {
            flags: r.flags | TraceRecord::FLAG_PAGING,
            ..r
        };
        let mut stream = ReplayStream {
            machine: 5,
            records: vec![
                open(1_000, 10, AccessMode::Read, Disposition::OpenIf, 100_000),
                // Paging traffic is an output of the recorded policy.
                paging(data(2_000, irp_read, 10, 0, 4096)),
                data(3_000, irp_read, 10, 0, 4096),
                // A failed create opens nothing, so the data requests on
                // its file object find no handle.
                TraceRecord {
                    status: nt_io::NtStatus::ObjectNameNotFound,
                    ..open(4_000, 40, AccessMode::Read, Disposition::Open, 0)
                },
                data(5_000, irp_read, 40, 0, 512),
                data(6_000, irp_write, 40, 0, 512),
                // No captured name: a synthesized path.
                open(
                    7_000,
                    20,
                    AccessMode::Write,
                    Disposition::OverwriteIf,
                    50_000,
                ),
                data(8_000, fast_write, 20, 0, 8192),
                data(SEC / 2, irp_write, 20, 8192, 8192),
                rec(SEC + SEC / 5, cleanup, 20),
                // A cleanup with no open handle.
                rec(SEC + 3 * SEC / 10, cleanup, 99),
                TraceRecord {
                    volume: 1,
                    ..open(
                        14 * SEC / 10,
                        30,
                        AccessMode::ReadWrite,
                        Disposition::Open,
                        1 << 20,
                    )
                },
                TraceRecord {
                    volume: 1,
                    ..data(15 * SEC / 10, fast_read, 30, 65_536, 65_536)
                },
                rec(16 * SEC / 10, cleanup, 10),
                // File object 10 again, reused after its cleanup.
                open(
                    17 * SEC / 10,
                    10,
                    AccessMode::Write,
                    Disposition::Supersede,
                    0,
                ),
                data(19 * SEC / 10, fast_write, 10, 0, 2 << 20),
                rec(2 * SEC, cleanup, 30),
                // Control traffic after the last data request: the drain
                // starts from the lazy-writer step at its arrival.
                rec(
                    35 * SEC / 10,
                    EventKind::Irp(MajorFunction::QueryInformation),
                    10,
                ),
                rec(
                    52 * SEC / 10,
                    EventKind::Irp(MajorFunction::SetInformation),
                    10,
                ),
                // A paging record is no arrival.
                paging(data(6 * SEC, irp_write, 10, 0, 16_384)),
            ],
            names: BTreeMap::from([
                (10, r"\docs\report.txt".to_string()),
                (30, r"\data\big.bin".to_string()),
                (40, r"\docs\missing.txt".to_string()),
            ]),
        };
        stream.normalize();
        let o = replay_stream(&stream, &ReplayConfig::default());
        assert_eq!(
            o.facts,
            ReplayFacts {
                machine: 5,
                source_records: 20,
                replayed_requests: 9,
                skipped_records: 5,
                control_records: 6,
                read_misses: 2,
                irp_reads: 2,
                paging_reads: 2,
                paging_writes: 58,
                demand_read_bytes: 131_072,
                disk_busy_ticks: 7_514_870,
                ..ReplayFacts::default()
            }
        );
        // More dirty data than the 34 scans from the last write on can
        // drain: the residual reads how many the drain ran.
        assert_eq!(o.residual_dirty_bytes, 21_045);
        assert_eq!(
            o.io,
            IoMetrics {
                opens: 4,
                irp_reads: 2,
                fastio_writes: 1,
                irp_writes: 2,
                paging_reads: 2,
                paging_writes: 58,
                control_ops: 1,
                cleanups: 3,
                closes: 3,
                bytes_read: 69_632,
                bytes_written: 2_113_536,
                overwrite_truncates: 2,
                read_dispatches: 2,
                write_dispatches: 3,
                paging_read_bytes: 131_072,
                paging_write_bytes: 2_092_491,
                cached_read_requested_bytes: 69_632,
                events_emitted: 76,
                ..IoMetrics::default()
            }
        );
        assert_eq!(
            o.cache,
            CacheMetrics {
                read_misses: 2,
                requested_read_bytes: 69_632,
                miss_pending_bytes: 69_632,
                demand_read_bytes: 131_072,
                demand_read_ios: 2,
                cached_writes: 3,
                dirtied_bytes: 2_113_536,
                newly_dirtied_bytes: 2_113_536,
                lazy_writes: 58,
                lazy_write_bytes: 2_092_491,
                purged_clean: 3,
                cache_inits: 4,
                ..CacheMetrics::default()
            }
        );
    }
}
