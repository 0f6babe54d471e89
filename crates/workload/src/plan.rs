//! Operation plans and their executor.
//!
//! An application *session* is a short script of file operations with
//! think-time gaps — the unit the paper's burst analysis sees (§8.2: 70 %
//! of opens batch their reads/writes and close again; reads follow each
//! other within 90 µs, writes within 30 µs). Planners in [`crate::apps`]
//! produce [`PlannedOp`] vectors; [`run_plan`] executes them against a
//! machine, threading each operation's completion time into the next
//! operation's start.

use nt_fs::{NtPath, VolumeId};
use nt_io::{
    AccessMode, CreateOptions, Disposition, HandleId, IoObserver, Machine, NtStatus, ProcessId,
};
use nt_sim::{SimDuration, SimTime};

/// Where a read/write points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OffsetSpec {
    /// Continue from the file object's current byte offset (sequential).
    Current,
    /// An absolute offset (random access).
    At(u64),
}

impl OffsetSpec {
    fn as_option(self) -> Option<u64> {
        match self {
            OffsetSpec::Current => None,
            OffsetSpec::At(x) => Some(x),
        }
    }
}

/// One step of a session plan. Handle-addressed operations target the
/// handle opened by the most recent successful `Open` that has not been
/// closed (a small handle stack supports nested opens).
#[derive(Clone, Debug)]
pub(crate) enum FileOp {
    /// Open/create a file.
    Open {
        /// Volume to open on.
        volume: VolumeId,
        /// Path within the volume.
        path: NtPath,
        /// Requested access.
        access: AccessMode,
        /// Create disposition.
        disposition: Disposition,
        /// Open options.
        options: CreateOptions,
    },
    /// Read on the current handle.
    Read {
        /// Request offset.
        offset: OffsetSpec,
        /// Request length.
        len: u64,
    },
    /// Write on the current handle.
    Write {
        /// Request offset.
        offset: OffsetSpec,
        /// Request length.
        len: u64,
    },
    /// Close the current handle (pops the stack).
    Close,
    /// Mark the current handle's file delete-on-close.
    Delete,
    /// Truncate/extend via SetEndOfFile.
    SetEof(u64),
    /// Flush dirty data.
    Flush,
    /// Enumerate the whole directory (repeated QueryDirectory batches).
    EnumerateDir {
        /// Entries per batch.
        batch: usize,
    },
    /// IRP_MJ_QUERY_INFORMATION on the current handle.
    QueryInfo,
    /// FastIO QueryBasicInfo on the current handle.
    FastQueryInfo,
    /// The Win32 runtime's "is volume mounted" FSCTL.
    IsVolumeMounted {
        /// Volume probed.
        volume: VolumeId,
    },
    /// IRP_MJ_QUERY_VOLUME_INFORMATION (free-space check).
    QueryVolumeInfo {
        /// Volume queried.
        volume: VolumeId,
    },
    /// A control operation that fails (feeds §8.4's 8 %).
    InvalidControl,
    /// Load an executable image (memory-mapped, §3.3).
    LoadImage {
        /// Volume of the image.
        volume: VolumeId,
        /// Image path.
        path: NtPath,
    },
    /// Create a data section for the current handle.
    MapFile,
    /// Touch a mapped range (page-faults in, §3.3).
    MappedRead {
        /// Byte offset.
        offset: u64,
        /// Length.
        len: u64,
    },
    /// Take a byte-range lock on the current handle.
    Lock {
        /// Lock offset.
        offset: u64,
        /// Lock length.
        len: u64,
        /// Exclusive vs shared.
        exclusive: bool,
    },
    /// Release a byte-range lock.
    Unlock {
        /// Lock offset.
        offset: u64,
        /// Lock length.
        len: u64,
    },
    /// Zero-copy MDL read (kernel services only, §10).
    MdlRead {
        /// Byte offset.
        offset: u64,
        /// Length.
        len: u64,
    },
}

/// One step with its preceding think-time gap.
#[derive(Clone, Debug)]
pub struct PlannedOp {
    /// Delay between the previous operation's completion and this issue.
    pub(crate) gap: SimDuration,
    /// The operation.
    pub(crate) op: FileOp,
}

impl PlannedOp {
    /// A step issued `gap` after the previous completion.
    pub(crate) fn after(gap: SimDuration, op: FileOp) -> Self {
        PlannedOp { gap, op }
    }

    /// A step issued immediately at the previous completion.
    pub(crate) fn then(op: FileOp) -> Self {
        PlannedOp {
            gap: SimDuration::ZERO,
            op,
        }
    }
}

/// What a session did, for calibration assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Operations attempted.
    pub ops: u64,
    /// Failed operations (any error status).
    pub failures: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// When the last operation completed.
    pub end: SimTime,
}

/// Executes a plan against a machine on behalf of `process`, starting at
/// `start`. Operations issue at the previous completion plus the step's
/// gap. Handles left open at plan end are closed (applications that hold
/// files open across sessions simply omit `Close` from the plan and keep
/// the handle via [`run_plan_keep_open`]).
pub fn run_plan<O: IoObserver>(
    machine: &mut Machine<O>,
    process: ProcessId,
    plan: &[PlannedOp],
    start: SimTime,
) -> SessionStats {
    let (stats, leftovers) = run_plan_keep_open(machine, process, plan, start);
    let mut t = stats.end;
    for h in leftovers {
        let reply = machine.close(h, t);
        t = reply.end;
    }
    SessionStats { end: t, ..stats }
}

/// Like [`run_plan`] but returns the handles still open at the end.
pub fn run_plan_keep_open<O: IoObserver>(
    machine: &mut Machine<O>,
    process: ProcessId,
    plan: &[PlannedOp],
    start: SimTime,
) -> (SessionStats, Vec<HandleId>) {
    let mut stats = SessionStats {
        end: start,
        ..SessionStats::default()
    };
    let mut stack: Vec<HandleId> = Vec::new();
    let mut t = start;
    for step in plan {
        t += step.gap;
        stats.ops += 1;
        let reply = match &step.op {
            FileOp::Open {
                volume,
                path,
                access,
                disposition,
                options,
            } => {
                let (reply, handle) =
                    machine.create(process, *volume, path, *access, *disposition, *options, t);
                if let Some(h) = handle {
                    stack.push(h);
                }
                reply
            }
            FileOp::Read { offset, len } => match stack.last() {
                Some(&h) => {
                    let r = machine.read(h, offset.as_option(), *len, t);
                    stats.bytes_read += r.transferred;
                    r
                }
                None => continue,
            },
            FileOp::Write { offset, len } => match stack.last() {
                Some(&h) => {
                    let r = machine.write(h, offset.as_option(), *len, t);
                    stats.bytes_written += r.transferred;
                    r
                }
                None => continue,
            },
            FileOp::Close => match stack.pop() {
                Some(h) => machine.close(h, t),
                None => continue,
            },
            FileOp::Delete => match stack.last() {
                Some(&h) => machine.set_delete_disposition(h, t),
                None => continue,
            },
            FileOp::SetEof(size) => match stack.last() {
                Some(&h) => machine.set_end_of_file(h, *size, t),
                None => continue,
            },
            FileOp::Flush => match stack.last() {
                Some(&h) => machine.flush(h, t),
                None => continue,
            },
            FileOp::EnumerateDir { batch } => match stack.last() {
                Some(&h) => {
                    let mut r = machine.query_directory(h, *batch, t);
                    let mut guard = 0;
                    while r.status == NtStatus::Success && guard < 10_000 {
                        stats.ops += 1;
                        r = machine.query_directory(h, *batch, r.end);
                        guard += 1;
                    }
                    r
                }
                None => continue,
            },
            FileOp::QueryInfo => match stack.last() {
                Some(&h) => machine.query_information(h, t),
                None => continue,
            },
            FileOp::FastQueryInfo => match stack.last() {
                Some(&h) => machine.fast_query_basic(h, t),
                None => continue,
            },
            FileOp::IsVolumeMounted { volume } => machine.is_volume_mounted(process, *volume, t),
            FileOp::QueryVolumeInfo { volume } => {
                machine.query_volume_information(process, *volume, t)
            }
            FileOp::InvalidControl => match stack.last() {
                Some(&h) => machine.invalid_control(h, t),
                None => continue,
            },
            FileOp::LoadImage { volume, path } => machine.load_image(process, *volume, path, t),
            FileOp::MapFile => match stack.last() {
                Some(&h) => machine.map_file(h, t),
                None => continue,
            },
            FileOp::MappedRead { offset, len } => match stack.last() {
                Some(&h) => {
                    let r = machine.mapped_read(h, *offset, *len, t);
                    stats.bytes_read += r.transferred;
                    r
                }
                None => continue,
            },
            FileOp::Lock {
                offset,
                len,
                exclusive,
            } => match stack.last() {
                Some(&h) => machine.lock(h, *offset, *len, *exclusive, t),
                None => continue,
            },
            FileOp::Unlock { offset, len } => match stack.last() {
                Some(&h) => machine.unlock(h, *offset, *len, t),
                None => continue,
            },
            FileOp::MdlRead { offset, len } => match stack.last() {
                Some(&h) => {
                    let r = machine.mdl_read(h, *offset, *len, t);
                    stats.bytes_read += r.transferred;
                    r
                }
                None => continue,
            },
        };
        if reply.status.is_error() {
            stats.failures += 1;
        }
        t = reply.end.max(t);
        stats.end = t;
    }
    (stats, stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_fs::VolumeConfig;
    use nt_io::{DiskParams, MachineConfig, NullObserver};

    fn machine() -> (Machine<NullObserver>, VolumeId) {
        let mut m = Machine::new(MachineConfig::default(), NullObserver);
        let v = m.add_local_volume(
            'C',
            VolumeConfig::local_ntfs(1 << 30),
            DiskParams::local_ide(),
        );
        (m, v)
    }

    const P: ProcessId = ProcessId(3);

    #[test]
    fn simple_write_then_read_plan() {
        let (mut m, vol) = machine();
        let plan = vec![
            PlannedOp::then(FileOp::Open {
                volume: vol,
                path: NtPath::parse(r"\out.txt"),
                access: AccessMode::ReadWrite,
                disposition: Disposition::OpenIf,
                options: CreateOptions::default(),
            }),
            PlannedOp::after(
                SimDuration::from_micros(30),
                FileOp::Write {
                    offset: OffsetSpec::At(0),
                    len: 1_000,
                },
            ),
            PlannedOp::after(
                SimDuration::from_micros(90),
                FileOp::Read {
                    offset: OffsetSpec::At(0),
                    len: 1_000,
                },
            ),
            PlannedOp::then(FileOp::Close),
        ];
        let stats = run_plan(&mut m, P, &plan, SimTime::from_secs(1));
        assert_eq!(stats.ops, 4);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.bytes_written, 1_000);
        assert_eq!(stats.bytes_read, 1_000);
        assert!(stats.end > SimTime::from_secs(1));
        assert_eq!(m.open_handles(), 0);
    }

    #[test]
    fn leftover_handles_are_closed_by_run_plan() {
        let (mut m, vol) = machine();
        let plan = vec![PlannedOp::then(FileOp::Open {
            volume: vol,
            path: NtPath::parse(r"\f"),
            access: AccessMode::Write,
            disposition: Disposition::OpenIf,
            options: CreateOptions::default(),
        })];
        run_plan(&mut m, P, &plan, SimTime::from_secs(1));
        assert_eq!(m.open_handles(), 0);
        let (_, open) = run_plan_keep_open(&mut m, P, &plan, SimTime::from_secs(2));
        assert_eq!(open.len(), 1);
        assert_eq!(m.open_handles(), 1);
    }

    #[test]
    fn failed_open_counts_and_skips_dependents() {
        let (mut m, vol) = machine();
        let plan = vec![
            PlannedOp::then(FileOp::Open {
                volume: vol,
                path: NtPath::parse(r"\missing"),
                access: AccessMode::Read,
                disposition: Disposition::Open,
                options: CreateOptions::default(),
            }),
            PlannedOp::then(FileOp::Read {
                offset: OffsetSpec::Current,
                len: 100,
            }),
            PlannedOp::then(FileOp::Close),
        ];
        let stats = run_plan(&mut m, P, &plan, SimTime::from_secs(1));
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.bytes_read, 0, "read skipped without a handle");
    }

    #[test]
    fn enumerate_dir_runs_to_completion() {
        let (mut m, vol) = machine();
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            for i in 0..37 {
                v.create_file(root, &format!("e{i}"), SimTime::ZERO)
                    .unwrap();
            }
        }
        let plan = vec![
            PlannedOp::then(FileOp::Open {
                volume: vol,
                path: NtPath::root(),
                access: AccessMode::Control,
                disposition: Disposition::Open,
                options: CreateOptions {
                    directory: true,
                    ..CreateOptions::default()
                },
            }),
            PlannedOp::then(FileOp::EnumerateDir { batch: 10 }),
            PlannedOp::then(FileOp::Close),
        ];
        let stats = run_plan(&mut m, P, &plan, SimTime::from_secs(1));
        // Open + 5 query batches (4 with data + terminator) + close, with
        // the extra queries counted by the executor.
        assert!(stats.ops >= 6, "ops {}", stats.ops);
        assert_eq!(stats.failures, 0, "NoMoreFiles is not a failure");
    }

    #[test]
    fn gaps_accumulate_into_the_timeline() {
        let (mut m, vol) = machine();
        let plan = vec![
            PlannedOp::after(
                SimDuration::from_millis(100),
                FileOp::IsVolumeMounted { volume: vol },
            ),
            PlannedOp::after(
                SimDuration::from_millis(200),
                FileOp::IsVolumeMounted { volume: vol },
            ),
        ];
        let stats = run_plan(&mut m, P, &plan, SimTime::from_secs(1));
        assert!(stats.end >= SimTime::from_millis(1_300));
    }
}
