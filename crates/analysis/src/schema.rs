//! The star-schema fact tables (§4 of the paper).
//!
//! The study used two fact tables: the raw **trace** table and an
//! **instance** table, one row per FileObject open–close sequence with
//! summary data for every operation on the object during its lifetime.
//! [`TraceSet`] reproduces both: it keeps the record stream and derives
//! the [`Instance`] rows in a single pass, computing online the
//! sequentiality summaries the table-3 and figure-1/2 analyses need.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use nt_io::EventKind;
use nt_io::{AccessMode, CreateOptions, Disposition, MajorFunction, NtStatus, SetInfoKind};
use nt_trace::{NameRecord, TraceRecord};

use crate::facts::FactTable;

/// The table-3 row classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum UsageClass {
    /// Only reads were performed.
    ReadOnly,
    /// Only writes.
    WriteOnly,
    /// Both.
    ReadWrite,
}

/// The table-3 column classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum TransferPattern {
    /// Sequential from byte 0 through the whole file.
    WholeFile,
    /// Sequential, but starting inside the file or stopping early.
    OtherSequential,
    /// Anything else.
    Random,
}

#[derive(Clone, Debug, Default)]
struct SeqTracker {
    count: u32,
    bytes: u64,
    first_offset: Option<u64>,
    expected: u64,
    all_sequential: bool,
    current_run: u64,
    runs: Vec<u64>,
    last_start_ticks: u64,
    gaps: Vec<u64>,
}

impl SeqTracker {
    fn on_access(&mut self, offset: u64, len: u64, start_ticks: u64) {
        if self.count > 0 {
            self.gaps
                .push(start_ticks.saturating_sub(self.last_start_ticks));
        }
        self.last_start_ticks = start_ticks;
        match self.first_offset {
            None => {
                self.first_offset = Some(offset);
                self.all_sequential = true;
                self.current_run = len;
            }
            Some(_) => {
                if offset == self.expected {
                    self.current_run += len;
                } else {
                    self.all_sequential = false;
                    if self.current_run > 0 {
                        self.runs.push(self.current_run);
                    }
                    self.current_run = len;
                }
            }
        }
        self.expected = offset + len;
        self.count += 1;
        self.bytes += len;
    }

    fn finish(&mut self) {
        if self.current_run > 0 {
            self.runs.push(self.current_run);
            self.current_run = 0;
        }
    }
}

/// One FileObject open–close sequence with operation summaries.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// Machine the instance was traced on.
    pub machine: u32,
    /// File object id (unique per machine).
    pub file_object: u64,
    /// FCB id.
    pub fcb: u64,
    /// Requesting process.
    pub process: u32,
    /// Volume index.
    pub volume: u32,
    /// Local vs redirector volume.
    pub local: bool,
    /// Path, when a name record was captured.
    pub path: Option<String>,
    /// Open request arrival.
    pub open_start_ticks: u64,
    /// Open completion.
    pub open_end_ticks: u64,
    /// Cleanup (user-visible close) arrival, if seen.
    pub cleanup_ticks: Option<u64>,
    /// Final close IRP arrival, if seen.
    pub close_ticks: Option<u64>,
    /// Open status (failed opens produce an instance too).
    pub open_status: NtStatus,
    /// Requested access.
    pub access: Option<AccessMode>,
    /// Create disposition.
    pub disposition: Option<Disposition>,
    /// Create options.
    pub options: Option<CreateOptions>,
    /// True when the open brought the file into existence.
    pub created: bool,
    /// Non-paging reads.
    pub reads: u32,
    /// Non-paging writes.
    pub writes: u32,
    /// Bytes read (non-paging).
    pub read_bytes: u64,
    /// Bytes written (non-paging).
    pub write_bytes: u64,
    /// Reads served on the FastIO path.
    pub fastio_reads: u32,
    /// Writes served on the FastIO path.
    pub fastio_writes: u32,
    /// Paging reads attributed to this file object.
    pub paging_reads: u32,
    /// Of which read-ahead.
    pub readahead_reads: u32,
    /// Control/query/directory operations during the session.
    pub control_ops: u32,
    /// Directory-enumeration operations.
    pub dir_ops: u32,
    /// Failed operations after the open.
    pub op_failures: u32,
    /// Largest file size observed.
    pub file_size: u64,
    /// Delete disposition was set during this session.
    pub delete_requested: bool,
    /// Sequential-run lengths of reads, in bytes (figure 1/2 input).
    pub read_runs: Vec<u64>,
    /// Sequential-run lengths of writes.
    pub write_runs: Vec<u64>,
    /// Inter-arrival gaps between reads (ticks), §8.2.
    pub read_gaps: Vec<u64>,
    /// Inter-arrival gaps between writes (ticks).
    pub write_gaps: Vec<u64>,
    read_seq: bool,
    write_seq: bool,
    read_first: Option<u64>,
    write_first: Option<u64>,
}

impl Instance {
    /// True when the open itself succeeded.
    pub fn opened(&self) -> bool {
        self.open_status.is_success()
    }

    /// True for sessions that transferred data (vs §8.3's control-only
    /// sessions).
    pub fn is_data(&self) -> bool {
        self.reads > 0 || self.writes > 0
    }

    /// The session duration in ticks: open arrival to cleanup (the
    /// user-visible close), falling back to the close IRP.
    pub fn duration_ticks(&self) -> Option<u64> {
        let end = self.cleanup_ticks.or(self.close_ticks)?;
        Some(end.saturating_sub(self.open_start_ticks))
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// The table-3 row this session belongs to; `None` for control-only.
    pub(crate) fn usage_class(&self) -> Option<UsageClass> {
        match (self.reads > 0, self.writes > 0) {
            (true, false) => Some(UsageClass::ReadOnly),
            (false, true) => Some(UsageClass::WriteOnly),
            (true, true) => Some(UsageClass::ReadWrite),
            (false, false) => None,
        }
    }

    /// The table-3 column: the paper calls an access whole-file when all
    /// requests are sequential from byte 0 and cover the file's size at
    /// close; sequential-but-partial is "other sequential".
    pub(crate) fn transfer_pattern(&self) -> Option<TransferPattern> {
        let class = self.usage_class()?;
        let (seq, first, bytes) = match class {
            UsageClass::ReadOnly => (self.read_seq, self.read_first, self.read_bytes),
            UsageClass::WriteOnly => (self.write_seq, self.write_first, self.write_bytes),
            UsageClass::ReadWrite => (
                self.read_seq && self.write_seq,
                self.read_first.min(self.write_first),
                self.bytes(),
            ),
        };
        if !seq {
            return Some(TransferPattern::Random);
        }
        let whole = first == Some(0) && bytes >= self.file_size;
        Some(if whole {
            TransferPattern::WholeFile
        } else {
            TransferPattern::OtherSequential
        })
    }

    /// The lower-cased extension from the recorded path.
    pub fn extension(&self) -> Option<String> {
        let path = self.path.as_ref()?;
        let name = path.rsplit('\\').next()?;
        let dot = name.rfind('.')?;
        if dot == 0 || dot + 1 == name.len() {
            None
        } else {
            Some(name[dot + 1..].to_string())
        }
    }
}

/// The two fact tables plus the name dimension.
pub struct TraceSet {
    /// All records with their machine, in collection order, stored
    /// column-major ([`FactTable`]) so analysis scans touch only the
    /// columns they read.
    pub records: FactTable,
    /// One row per file-object session.
    pub instances: Vec<Instance>,
    /// (machine, file object) → path.
    pub names: HashMap<(u32, u64), String>,
}

/// Incremental builder of the instance table for one machine's record
/// stream — the exact state machine [`TraceSet::build`] runs, factored
/// out so the streaming sinks can drive it record by record and drain
/// completed sessions without materializing the whole stream.
///
/// Paths are *not* resolved here: name records may arrive in a different
/// shipment than the create they describe, so path assignment is a
/// post-pass over finished instances (see [`InstanceBuilder::assign_paths`]
/// and [`TraceSet::build`]). File-object ids are unique per machine, so
/// late binding is unambiguous.
#[derive(Debug, Default)]
pub(crate) struct InstanceBuilder {
    machine: u32,
    open: HashMap<u64, (Instance, SeqTracker, SeqTracker), SessionIdHash>,
    done: Vec<Instance>,
}

/// Hashes the open-session table's file-object ids: the id XORed with a
/// per-map key, then one murmur3 `fmix64` round, in place of SipHash.
///
/// The ids come from the trace, and a foreign trace can choose them. The
/// key, drawn from [`RandomState`] when the map is built, keeps such a
/// trace from aiming its ids at shared low hash bits; an unkeyed Fx-style
/// hash sends every id that differs only above bit 32 to the same low
/// bits and makes the table quadratic. Nothing reads the map's order, so
/// the key never reaches output.
///
/// The map's builder holds the key; each hasher it builds starts from the
/// key and mixes every word it is given into that state.
#[derive(Clone)]
struct SessionIdHash(u64);

impl Default for SessionIdHash {
    fn default() -> Self {
        SessionIdHash(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for SessionIdHash {
    type Hasher = SessionIdHash;

    fn build_hasher(&self) -> SessionIdHash {
        self.clone()
    }
}

impl Hasher for SessionIdHash {
    fn write_u64(&mut self, id: u64) {
        self.0 = fmix64(self.0 ^ id);
    }

    fn write(&mut self, bytes: &[u8]) {
        // The table's keys are `u64`s and arrive through `write_u64`;
        // anything else folds in byte by byte so the hasher stays total.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// murmur3's 64-bit finaliser: a bijection in which every output bit
/// depends on every input bit.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl InstanceBuilder {
    /// A builder for one machine's stream.
    pub fn new(machine: u32) -> Self {
        InstanceBuilder {
            machine,
            ..InstanceBuilder::default()
        }
    }

    /// Sessions currently open (memory accounting).
    pub(crate) fn open_sessions(&self) -> usize {
        self.open.len()
    }

    /// Bytes of live state held for still-open sessions (instances plus
    /// their run/gap vectors) and not-yet-drained finished ones.
    pub(crate) fn state_bytes(&self) -> usize {
        let inst_bytes = |i: &Instance| {
            std::mem::size_of::<Instance>()
                + (i.read_runs.len() + i.write_runs.len() + i.read_gaps.len() + i.write_gaps.len())
                    * 8
                + i.path.as_ref().map_or(0, |p| p.len())
        };
        let tracker_bytes =
            |t: &SeqTracker| std::mem::size_of::<SeqTracker>() + (t.runs.len() + t.gaps.len()) * 8;
        self.open
            .values()
            .map(|(i, rt, wt)| inst_bytes(i) + tracker_bytes(rt) + tracker_bytes(wt))
            .sum::<usize>()
            + self.done.iter().map(inst_bytes).sum::<usize>()
    }

    /// Takes the sessions completed since the last drain, in completion
    /// order.
    pub(crate) fn drain_done(&mut self) -> Vec<Instance> {
        std::mem::take(&mut self.done)
    }

    /// Flushes sessions still open at trace end and returns every
    /// remaining completed instance. Flush order is file-object order
    /// (deterministic); the caller's final sort makes it irrelevant for
    /// the fact table.
    pub fn finish(mut self) -> Vec<Instance> {
        let mut open: Vec<(u64, (Instance, SeqTracker, SeqTracker))> = self.open.drain().collect();
        open.sort_by_key(|(fo, _)| *fo);
        for (_, (mut inst, mut rt, mut wt)) in open {
            rt.finish();
            wt.finish();
            inst.read_runs = rt.runs;
            inst.write_runs = wt.runs;
            inst.read_gaps = rt.gaps;
            inst.write_gaps = wt.gaps;
            self.done.push(inst);
        }
        self.done
    }

    /// Resolves paths on a batch of finished instances from the name
    /// dimension.
    pub(crate) fn assign_paths(instances: &mut [Instance], names: &HashMap<(u32, u64), String>) {
        for inst in instances {
            if inst.path.is_none() {
                inst.path = names.get(&(inst.machine, inst.file_object)).cloned();
            }
        }
    }

    /// Feeds one record through the session state machine.
    pub fn push(&mut self, rec: &TraceRecord) {
        let machine = self.machine;
        let open = &mut self.open;
        let done = &mut self.done;
        let kind = rec.kind();
        match kind {
            EventKind::Irp(MajorFunction::Create) => {
                let inst = Instance {
                    machine,
                    file_object: rec.file_object,
                    fcb: rec.fcb,
                    process: rec.process,
                    volume: rec.volume,
                    local: rec.is_local(),
                    path: None,
                    open_start_ticks: rec.start_ticks,
                    open_end_ticks: rec.end_ticks,
                    cleanup_ticks: None,
                    close_ticks: None,
                    open_status: rec.status,
                    access: rec.access,
                    disposition: rec.disposition,
                    options: rec.options,
                    created: rec.is_created(),
                    reads: 0,
                    writes: 0,
                    read_bytes: 0,
                    write_bytes: 0,
                    fastio_reads: 0,
                    fastio_writes: 0,
                    paging_reads: 0,
                    readahead_reads: 0,
                    control_ops: 0,
                    dir_ops: 0,
                    op_failures: 0,
                    file_size: rec.file_size,
                    delete_requested: false,
                    read_runs: Vec::new(),
                    write_runs: Vec::new(),
                    read_gaps: Vec::new(),
                    write_gaps: Vec::new(),
                    read_seq: true,
                    write_seq: true,
                    read_first: None,
                    write_first: None,
                };
                if rec.status.is_success() {
                    open.insert(
                        rec.file_object,
                        (inst, SeqTracker::default(), SeqTracker::default()),
                    );
                } else {
                    done.push(inst);
                }
            }
            EventKind::Irp(MajorFunction::Cleanup) => {
                if let Some((inst, _, _)) = open.get_mut(&rec.file_object) {
                    inst.cleanup_ticks = Some(rec.start_ticks);
                    inst.file_size = inst.file_size.max(rec.file_size);
                }
            }
            EventKind::Irp(MajorFunction::Close) => {
                if let Some((mut inst, mut rt, mut wt)) = open.remove(&rec.file_object) {
                    inst.close_ticks = Some(rec.start_ticks);
                    rt.finish();
                    wt.finish();
                    inst.read_runs = rt.runs;
                    inst.write_runs = wt.runs;
                    inst.read_gaps = rt.gaps;
                    inst.write_gaps = wt.gaps;
                    done.push(inst);
                }
            }
            _ if kind.is_read() => {
                if let Some((inst, rt, _)) = open.get_mut(&rec.file_object) {
                    inst.file_size = inst.file_size.max(rec.file_size);
                    if rec.is_paging() {
                        inst.paging_reads += 1;
                        if rec.is_readahead() {
                            inst.readahead_reads += 1;
                        }
                        return;
                    }
                    if rec.status.is_error() {
                        inst.op_failures += 1;
                        return;
                    }
                    inst.reads += 1;
                    inst.read_bytes += rec.transferred;
                    if kind.is_fastio() {
                        inst.fastio_reads += 1;
                    }
                    if inst.read_first.is_none() {
                        inst.read_first = Some(rec.offset);
                    }
                    rt.on_access(rec.offset, rec.transferred, rec.start_ticks);
                    inst.read_seq = rt.all_sequential;
                }
            }
            _ if kind.is_write() => {
                if rec.is_paging() {
                    // Lazy-writer output is attributed to the cache, not
                    // the session.
                    return;
                }
                if let Some((inst, _, wt)) = open.get_mut(&rec.file_object) {
                    inst.file_size = inst.file_size.max(rec.file_size);
                    if rec.status.is_error() {
                        inst.op_failures += 1;
                        return;
                    }
                    inst.writes += 1;
                    inst.write_bytes += rec.transferred;
                    if kind.is_fastio() {
                        inst.fastio_writes += 1;
                    }
                    if inst.write_first.is_none() {
                        inst.write_first = Some(rec.offset);
                    }
                    wt.on_access(rec.offset, rec.transferred, rec.start_ticks);
                    inst.write_seq = wt.all_sequential;
                }
            }
            _ => {
                // Control / query / directory / set-information traffic.
                if let Some((inst, _, _)) = open.get_mut(&rec.file_object) {
                    inst.control_ops += 1;
                    if kind == EventKind::Irp(MajorFunction::DirectoryControl) {
                        inst.dir_ops += 1;
                    }
                    if rec.status.is_error() {
                        inst.op_failures += 1;
                    }
                    if rec.set_info == Some(SetInfoKind::Disposition) && rec.status.is_success() {
                        inst.delete_requested = true;
                    }
                }
            }
        }
    }
}

impl TraceSet {
    /// Builds the fact tables from per-machine record streams.
    pub fn build(
        streams: impl IntoIterator<Item = (u32, Vec<TraceRecord>, Vec<NameRecord>)>,
    ) -> TraceSet {
        let mut records = FactTable::new();
        let mut instances = Vec::new();
        let mut names = HashMap::new();
        for (machine, recs, name_recs) in streams {
            for n in name_recs {
                names.insert((machine, n.file_object), n.path);
            }
            let mut builder = InstanceBuilder::new(machine);
            for rec in &recs {
                builder.push(rec);
            }
            instances.extend(builder.finish());
            records.extend(machine, &recs);
        }
        InstanceBuilder::assign_paths(&mut instances, &names);
        records.sort_by_time();
        instances.sort_by_key(|i| (i.open_start_ticks, i.machine, i.file_object));
        TraceSet {
            records,
            instances,
            names,
        }
    }

    /// The create records (open requests), in time order.
    pub fn creates(&self) -> impl Iterator<Item = (u32, TraceRecord)> + '_ {
        self.records
            .iter()
            .filter(|(_, r)| r.kind() == EventKind::Irp(MajorFunction::Create))
    }

    /// Non-paging data records (application reads/writes).
    pub(crate) fn data_records(&self) -> impl Iterator<Item = (u32, TraceRecord)> + '_ {
        self.records
            .iter()
            .filter(|(_, r)| (r.kind().is_read() || r.kind().is_write()) && !r.is_paging())
    }

    /// Machines present in the set.
    pub fn machines(&self) -> Vec<u32> {
        let mut ms: Vec<u32> = self.records.machines().to_vec();
        ms.sort_unstable();
        ms.dedup();
        ms
    }
}

/// Shared generator for the analysis modules' tests: drives a real
/// machine through a randomized mix of sessions and returns the fact
/// tables. Compiled unconditionally so the workspace-level property
/// suites (which build this crate as a dependency, not under
/// `cfg(test)`) can use the same generator.
pub mod test_support {
    use super::TraceSet;
    use nt_fs::{NtPath, VolumeConfig};
    use nt_io::{
        AccessMode, CreateOptions, DiskParams, Disposition, Machine, MachineConfig, ProcessId,
    };
    use nt_sim::{SimDuration, SimTime};
    use nt_trace::{CollectionServer, MachineId, TraceFilter};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Runs `sessions` randomized sessions on one machine (seeded) and
    /// builds the fact tables. The mix covers control-only opens, failed
    /// probes, sequential/random reads and writes, deletes and
    /// overwrites, on a local volume and a share.
    pub fn synthetic_trace_set(sessions: usize, seed: u64) -> TraceSet {
        let mut m = Machine::new(MachineConfig::default(), TraceFilter::new(MachineId(0)));
        let local = m.add_local_volume(
            'C',
            VolumeConfig::local_ntfs(2 << 30),
            DiskParams::local_ide(),
        );
        let share = m.add_share(
            "srv",
            "home",
            VolumeConfig::local_ntfs(1 << 30),
            DiskParams::network_share(),
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        // Seed content.
        {
            let v = m.namespace_mut().volume_mut(local).unwrap();
            let root = v.root();
            for i in 0..40 {
                let f = v
                    .create_file(root, &format!("file{i:02}.dat"), SimTime::ZERO)
                    .unwrap();
                let size = if i % 7 == 0 {
                    3 << 20
                } else {
                    (i as u64 + 1) * 2_000
                };
                v.set_file_size(f, size, SimTime::ZERO).unwrap();
            }
            let v = m.namespace_mut().volume_mut(share).unwrap();
            let root = v.root();
            for i in 0..10 {
                let f = v
                    .create_file(root, &format!("doc{i}.doc"), SimTime::ZERO)
                    .unwrap();
                v.set_file_size(f, (i as u64 + 1) * 5_000, SimTime::ZERO)
                    .unwrap();
            }
        }
        let mut t = SimTime::from_secs(5);
        let mut last_lazy = 0u64;
        for s in 0..sessions {
            // Heavy-ish tailed gap between sessions.
            let gap_us = if rng.gen_bool(0.8) {
                rng.gen_range(200..30_000)
            } else {
                rng.gen_range(100_000..20_000_000)
            };
            t += SimDuration::from_micros(gap_us);
            while t.as_secs() > last_lazy {
                last_lazy += 1;
                m.lazy_tick(SimTime::from_secs(last_lazy));
            }
            let p = ProcessId(1 + (s % 5) as u32);
            let vol = if rng.gen_bool(0.85) { local } else { share };
            let pick = rng.gen_range(0..100);
            if pick < 35 {
                // Control-only stat.
                let path = NtPath::parse(&format!(r"\file{:02}.dat", rng.gen_range(0..40)));
                let (_, h) = m.create(
                    p,
                    vol,
                    &path,
                    AccessMode::Control,
                    Disposition::Open,
                    CreateOptions::default(),
                    t,
                );
                if let Some(h) = h {
                    let r = m.query_information(h, t);
                    t = m.close(h, r.end).end;
                }
            } else if pick < 45 {
                // Failed probe.
                let path = NtPath::parse(&format!(r"\nope{:05}", rng.gen_range(0..99_999)));
                let (r, _) = m.create(
                    p,
                    vol,
                    &path,
                    AccessMode::Read,
                    Disposition::Open,
                    CreateOptions::default(),
                    t,
                );
                t = r.end;
            } else if pick < 70 {
                // Read session (sequential or random).
                let path = NtPath::parse(&format!(r"\file{:02}.dat", rng.gen_range(0..40)));
                let (r, h) = m.create(
                    p,
                    vol,
                    &path,
                    AccessMode::Read,
                    Disposition::Open,
                    CreateOptions::default(),
                    t,
                );
                t = r.end;
                if let Some(h) = h {
                    let n = rng.gen_range(1..12);
                    let random = rng.gen_bool(0.2);
                    for _ in 0..n {
                        let off = if random {
                            Some(rng.gen_range(0..30_000u64))
                        } else {
                            None
                        };
                        let r = m.read(h, off, 4_096, t + SimDuration::from_micros(40));
                        t = r.end;
                    }
                    t = m.close(h, t + SimDuration::from_micros(30)).end;
                }
            } else if pick < 90 {
                // Write session (new or overwrite).
                let path = NtPath::parse(&format!(r"\out{:03}.tmp", rng.gen_range(0..200)));
                let disp = if rng.gen_bool(0.4) {
                    Disposition::OverwriteIf
                } else {
                    Disposition::OpenIf
                };
                let (r, h) = m.create(
                    p,
                    vol,
                    &path,
                    AccessMode::Write,
                    disp,
                    CreateOptions::default(),
                    t,
                );
                t = r.end;
                if let Some(h) = h {
                    let n = rng.gen_range(1..8);
                    for _ in 0..n {
                        let r = m.write(
                            h,
                            None,
                            rng.gen_range(100..8_000),
                            t + SimDuration::from_micros(15),
                        );
                        t = r.end;
                    }
                    if rng.gen_bool(0.3) {
                        t = m.set_delete_disposition(h, t).end;
                    }
                    t = m.close(h, t + SimDuration::from_micros(20)).end;
                }
            } else {
                // Read-write random (db-style).
                let path = NtPath::parse(r"\file00.dat");
                let (r, h) = m.create(
                    p,
                    vol,
                    &path,
                    AccessMode::ReadWrite,
                    Disposition::OpenIf,
                    CreateOptions::default(),
                    t,
                );
                t = r.end;
                if let Some(h) = h {
                    for _ in 0..rng.gen_range(2..10) {
                        let off = Some((rng.gen_range(0..500u64)) * 4_096);
                        let r = if rng.gen_bool(0.5) {
                            m.read(h, off, 4_096, t + SimDuration::from_micros(30))
                        } else {
                            m.write(h, off, 4_096, t + SimDuration::from_micros(30))
                        };
                        t = r.end;
                    }
                    t = m.close(h, t + SimDuration::from_micros(20)).end;
                }
            }
        }
        // Drain lazy writer and deferred closes.
        for s in 0..30 {
            m.lazy_tick(t + SimDuration::from_secs(s + 1));
        }
        m.pump(t + SimDuration::from_secs(40));
        let mut server = CollectionServer::new();
        m.observer_mut().final_flush(&mut server);
        let recs = server.records_for(MachineId(0));
        let names: Vec<_> = server
            .names_for(MachineId(0))
            .into_iter()
            .cloned()
            .collect();
        TraceSet::build(vec![(0, recs, names)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_fs::{NtPath, VolumeConfig};
    use nt_io::{DiskParams, Machine, MachineConfig, ProcessId};
    use nt_sim::{SimDuration, SimTime};
    use nt_trace::{CollectionServer, MachineId, TraceFilter};

    /// Runs a tiny scenario and returns the fact tables.
    fn scenario() -> TraceSet {
        let mut m = Machine::new(MachineConfig::default(), TraceFilter::new(MachineId(0)));
        let vol = m.add_local_volume(
            'C',
            VolumeConfig::local_ntfs(1 << 30),
            DiskParams::local_ide(),
        );
        let p = ProcessId(9);
        let t0 = SimTime::from_secs(1);

        // Session 1: create, write sequentially, close.
        let (_, h) = m.create(
            p,
            vol,
            &NtPath::parse(r"\a.dat"),
            nt_io::AccessMode::Write,
            nt_io::Disposition::Create,
            nt_io::CreateOptions::default(),
            t0,
        );
        let h = h.unwrap();
        let mut t = m.write(h, Some(0), 4_096, t0).end;
        t = m
            .write(h, None, 4_096, t + SimDuration::from_micros(20))
            .end;
        m.close(h, t + SimDuration::from_micros(50));
        for s in 2..10 {
            m.lazy_tick(SimTime::from_secs(s));
        }

        // Session 2: read it back, whole file.
        let t1 = SimTime::from_secs(20);
        let (_, h) = m.create(
            p,
            vol,
            &NtPath::parse(r"\a.dat"),
            nt_io::AccessMode::Read,
            nt_io::Disposition::Open,
            nt_io::CreateOptions::default(),
            t1,
        );
        let h = h.unwrap();
        let mut t = t1;
        for _ in 0..2 {
            t = m.read(h, None, 4_096, t + SimDuration::from_micros(30)).end;
        }
        m.close(h, t + SimDuration::from_micros(10));

        // Session 3: failed open.
        m.create(
            p,
            vol,
            &NtPath::parse(r"\missing.txt"),
            nt_io::AccessMode::Read,
            nt_io::Disposition::Open,
            nt_io::CreateOptions::default(),
            SimTime::from_secs(30),
        );
        m.pump(SimTime::from_secs(40));

        let mut server = CollectionServer::new();
        m.observer_mut().final_flush(&mut server);
        let recs = server.records_for(MachineId(0));
        let names: Vec<_> = server
            .names_for(MachineId(0))
            .into_iter()
            .cloned()
            .collect();
        TraceSet::build(vec![(0, recs, names)])
    }

    #[test]
    fn instances_built_per_session() {
        let ts = scenario();
        assert_eq!(ts.instances.len(), 3);
        let writer = &ts.instances[0];
        assert_eq!(writer.writes, 2);
        assert_eq!(writer.write_bytes, 8_192);
        assert!(writer.created, "disposition Create made the file");
        assert_eq!(writer.usage_class(), Some(UsageClass::WriteOnly));
        assert_eq!(writer.transfer_pattern(), Some(TransferPattern::WholeFile));
        assert_eq!(writer.path.as_deref(), Some(r"\a.dat"));
        assert!(writer.duration_ticks().is_some());

        let reader = &ts.instances[1];
        assert_eq!(reader.reads, 2);
        assert_eq!(reader.usage_class(), Some(UsageClass::ReadOnly));
        assert_eq!(reader.transfer_pattern(), Some(TransferPattern::WholeFile));
        assert!(!reader.created);

        let failed = &ts.instances[2];
        assert!(!failed.opened());
        assert_eq!(failed.usage_class(), None);
    }

    #[test]
    fn runs_and_gaps_recorded() {
        let ts = scenario();
        let writer = &ts.instances[0];
        assert_eq!(writer.write_runs, vec![8_192], "one sequential run");
        assert_eq!(writer.write_gaps.len(), 1);
        let reader = &ts.instances[1];
        assert_eq!(reader.read_runs, vec![8_192]);
    }

    #[test]
    fn ids_that_differ_only_above_bit_32_spread_over_the_low_bits() {
        // 65,536 ids into 65,536 values: a random function's fullest
        // value holds about 8, and more than 16 is vanishingly rare.
        for _ in 0..4 {
            let hash = SessionIdHash::default();
            let mut per_value = vec![0u32; 1 << 16];
            for i in 0..1u64 << 16 {
                per_value[(hash.hash_one(i << 32) & 0xffff) as usize] += 1;
            }
            let fullest = per_value.iter().max().copied();
            assert!(fullest <= Some(16), "{fullest:?} ids share one value");
        }
    }

    #[test]
    fn the_session_key_never_reaches_the_instance_table() {
        let (a, b) = (InstanceBuilder::new(0), InstanceBuilder::new(0));
        assert_ne!(a.open.hasher().0, b.open.hasher().0, "two maps, two keys");
        let ts = test_support::synthetic_trace_set(300, 11);
        let stream: Vec<TraceRecord> = ts.records.iter().map(|(_, r)| r).collect();
        // Without its closes, every session is still open at the end, so
        // `finish` flushes the whole table.
        let unclosed: Vec<TraceRecord> = stream
            .iter()
            .filter(|r| r.kind() != EventKind::Irp(MajorFunction::Close))
            .cloned()
            .collect();
        for recs in [stream, unclosed] {
            let first = TraceSet::build([(0, recs.clone(), Vec::new())]);
            let second = TraceSet::build([(0, recs, Vec::new())]);
            assert!(first.instances.len() > 100);
            assert_eq!(first.instances, second.instances);
        }
    }

    #[test]
    fn record_stream_sorted_by_time() {
        let ts = scenario();
        assert!(ts.records.start_ticks().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ts.machines(), vec![0]);
        assert!(ts.creates().count() >= 3);
        assert!(ts.data_records().count() >= 4);
    }
}
