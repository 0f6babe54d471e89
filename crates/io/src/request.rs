//! Request taxonomy and the trace-event payload.
//!
//! The study's filter driver "records 54 IRP and FastIO events, which
//! represent all major I/O request operations" (§3.2). The taxonomy here
//! is the complete NT 4.0 set: the 28 IRP major function codes and the 26
//! per-file FastIO dispatch routines, 54 event kinds in total. The
//! simulated machine emits the subset that production NT workloads
//! exercise, but the trace format covers them all.

use nt_sim::SimTime;

use crate::status::NtStatus;
use crate::types::{AccessMode, CreateOptions, Disposition, FcbId, FileObjectId, ProcessId};

/// IRP major function codes (IRP_MJ_*), the packet-based request path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[repr(u8)]
pub enum MajorFunction {
    Create = 0x00,
    CreateNamedPipe = 0x01,
    Close = 0x02,
    Read = 0x03,
    Write = 0x04,
    QueryInformation = 0x05,
    SetInformation = 0x06,
    QueryEa = 0x07,
    SetEa = 0x08,
    FlushBuffers = 0x09,
    QueryVolumeInformation = 0x0a,
    SetVolumeInformation = 0x0b,
    DirectoryControl = 0x0c,
    FileSystemControl = 0x0d,
    DeviceControl = 0x0e,
    InternalDeviceControl = 0x0f,
    Shutdown = 0x10,
    LockControl = 0x11,
    Cleanup = 0x12,
    CreateMailslot = 0x13,
    QuerySecurity = 0x14,
    SetSecurity = 0x15,
    Power = 0x16,
    SystemControl = 0x17,
    DeviceChange = 0x18,
    QueryQuota = 0x19,
    SetQuota = 0x1a,
    Pnp = 0x1b,
}

impl MajorFunction {
    /// Every IRP major function code, in numeric order.
    pub const ALL: [MajorFunction; 28] = [
        MajorFunction::Create,
        MajorFunction::CreateNamedPipe,
        MajorFunction::Close,
        MajorFunction::Read,
        MajorFunction::Write,
        MajorFunction::QueryInformation,
        MajorFunction::SetInformation,
        MajorFunction::QueryEa,
        MajorFunction::SetEa,
        MajorFunction::FlushBuffers,
        MajorFunction::QueryVolumeInformation,
        MajorFunction::SetVolumeInformation,
        MajorFunction::DirectoryControl,
        MajorFunction::FileSystemControl,
        MajorFunction::DeviceControl,
        MajorFunction::InternalDeviceControl,
        MajorFunction::Shutdown,
        MajorFunction::LockControl,
        MajorFunction::Cleanup,
        MajorFunction::CreateMailslot,
        MajorFunction::QuerySecurity,
        MajorFunction::SetSecurity,
        MajorFunction::Power,
        MajorFunction::SystemControl,
        MajorFunction::DeviceChange,
        MajorFunction::QueryQuota,
        MajorFunction::SetQuota,
        MajorFunction::Pnp,
    ];

    /// True for the data-path majors (read/write).
    pub fn is_data(self) -> bool {
        matches!(self, MajorFunction::Read | MajorFunction::Write)
    }
}

/// The per-file FastIO dispatch routines of NT 4.0 (§10).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[repr(u8)]
pub enum FastIoKind {
    CheckIfPossible = 0,
    Read = 1,
    Write = 2,
    QueryBasicInfo = 3,
    QueryStandardInfo = 4,
    Lock = 5,
    UnlockSingle = 6,
    UnlockAll = 7,
    UnlockAllByKey = 8,
    DeviceControl = 9,
    AcquireFileForNtCreateSection = 10,
    ReleaseFileForNtCreateSection = 11,
    QueryNetworkOpenInfo = 12,
    AcquireForModWrite = 13,
    MdlRead = 14,
    MdlReadComplete = 15,
    PrepareMdlWrite = 16,
    MdlWriteComplete = 17,
    ReadCompressed = 18,
    WriteCompressed = 19,
    MdlReadCompleteCompressed = 20,
    MdlWriteCompleteCompressed = 21,
    QueryOpen = 22,
    ReleaseForModWrite = 23,
    AcquireForCcFlush = 24,
    ReleaseForCcFlush = 25,
}

impl FastIoKind {
    /// Every FastIO routine, in dispatch-table order.
    pub const ALL: [FastIoKind; 26] = [
        FastIoKind::CheckIfPossible,
        FastIoKind::Read,
        FastIoKind::Write,
        FastIoKind::QueryBasicInfo,
        FastIoKind::QueryStandardInfo,
        FastIoKind::Lock,
        FastIoKind::UnlockSingle,
        FastIoKind::UnlockAll,
        FastIoKind::UnlockAllByKey,
        FastIoKind::DeviceControl,
        FastIoKind::AcquireFileForNtCreateSection,
        FastIoKind::ReleaseFileForNtCreateSection,
        FastIoKind::QueryNetworkOpenInfo,
        FastIoKind::AcquireForModWrite,
        FastIoKind::MdlRead,
        FastIoKind::MdlReadComplete,
        FastIoKind::PrepareMdlWrite,
        FastIoKind::MdlWriteComplete,
        FastIoKind::ReadCompressed,
        FastIoKind::WriteCompressed,
        FastIoKind::MdlReadCompleteCompressed,
        FastIoKind::MdlWriteCompleteCompressed,
        FastIoKind::QueryOpen,
        FastIoKind::ReleaseForModWrite,
        FastIoKind::AcquireForCcFlush,
        FastIoKind::ReleaseForCcFlush,
    ];
}

/// One of the 54 event kinds a trace record can carry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventKind {
    /// A packet-path request.
    Irp(MajorFunction),
    /// A procedural-path request.
    FastIo(FastIoKind),
}

impl EventKind {
    /// The full 54-kind taxonomy, IRPs first.
    pub fn all() -> Vec<EventKind> {
        MajorFunction::ALL
            .iter()
            .map(|&m| EventKind::Irp(m))
            .chain(FastIoKind::ALL.iter().map(|&f| EventKind::FastIo(f)))
            .collect()
    }

    /// A stable small integer for record encoding: IRPs 0–27, FastIO 28–53.
    pub fn code(self) -> u8 {
        match self {
            EventKind::Irp(m) => m as u8,
            EventKind::FastIo(f) => 28 + f as u8,
        }
    }

    /// Inverse of [`EventKind::code`].
    pub fn from_code(code: u8) -> Option<EventKind> {
        if code < 28 {
            Some(EventKind::Irp(MajorFunction::ALL[code as usize]))
        } else if code < 54 {
            Some(EventKind::FastIo(FastIoKind::ALL[(code - 28) as usize]))
        } else {
            None
        }
    }

    /// True for read requests on either path.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            EventKind::Irp(MajorFunction::Read) | EventKind::FastIo(FastIoKind::Read)
        )
    }

    /// True for write requests on either path.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            EventKind::Irp(MajorFunction::Write) | EventKind::FastIo(FastIoKind::Write)
        )
    }

    /// True for the FastIO path.
    pub fn is_fastio(self) -> bool {
        matches!(self, EventKind::FastIo(_))
    }
}

/// IRP_MJ_SET_INFORMATION sub-operations the machine performs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SetInfoKind {
    /// FileEndOfFileInformation — §8.3: the cache manager always issues
    /// this before closing a written file.
    EndOfFile,
    /// FileDispositionInformation — mark delete-on-close (§6.3's explicit
    /// delete path goes through here).
    Disposition,
    /// FileRenameInformation.
    Rename,
    /// FileBasicInformation — timestamps and attribute writes.
    Basic,
    /// FileAllocationInformation.
    Allocation,
}

/// The payload of one trace record, as handed to the filter driver.
///
/// Field set follows §3.2: "each record contains at least a reference to
/// the file object, IRP, File and Header Flags, the requesting process,
/// the current byte offset and file size, and the result status", plus the
/// two 100 ns timestamps and per-operation extras (offset/length/returned
/// bytes for reads and writes, options and access for creates).
///
/// The machine builds every record from one layout: the identity fields
/// come from the request's resolved handle, and a field the request does
/// not set reads zero, `false` or `None`. A request no file object stands
/// behind (an FSCTL, a volume query, a query on an invalid handle, a lazy
/// write no close waits on) names file object 0 and FCB `u64::MAX`; a
/// failed open names its own file object, with FCB `u64::MAX`.
#[derive(Clone, Copy, Debug)]
pub struct IoEvent {
    /// Which of the 54 request kinds this is.
    pub kind: EventKind,
    /// The file object the request targets.
    pub file_object: FileObjectId,
    /// The stream control block (shared across opens of the same file).
    pub fcb: FcbId,
    /// The requesting process.
    pub process: ProcessId,
    /// The volume index within the machine's namespace.
    pub volume: u32,
    /// True when the volume is local (vs a redirector share).
    pub local: bool,
    /// The PagingIO header bit (§3.3).
    pub paging_io: bool,
    /// True when this paging read was speculative read-ahead.
    pub readahead: bool,
    /// Request byte offset (reads/writes), 0 otherwise.
    pub offset: u64,
    /// Requested length in bytes.
    pub length: u64,
    /// Bytes actually transferred.
    pub transferred: u64,
    /// File size at request time.
    pub file_size: u64,
    /// The file object's current byte offset at request time.
    pub byte_offset: u64,
    /// Completion status.
    pub status: NtStatus,
    /// Request arrival timestamp (100 ns).
    pub start: SimTime,
    /// Completion timestamp (100 ns).
    pub end: SimTime,
    /// Create-only: requested access.
    pub access: Option<AccessMode>,
    /// Create-only: disposition.
    pub disposition: Option<Disposition>,
    /// Create-only: options.
    pub options: Option<CreateOptions>,
    /// SetInformation-only: which information class.
    pub set_info: Option<SetInfoKind>,
    /// Create-only: true when the open brought a new file into existence
    /// (needed by the §6.3 lifetime analysis to date births).
    pub created: bool,
}

impl IoEvent {
    /// Service period of the request.
    pub fn latency(&self) -> nt_sim::SimDuration {
        self.end.saturating_since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_has_54_kinds() {
        let all = EventKind::all();
        assert_eq!(all.len(), 54, "§3.2: 54 IRP and FastIO events");
        // Codes are a bijection onto 0..54.
        let mut seen = [false; 54];
        for k in &all {
            let c = k.code() as usize;
            assert!(!seen[c], "duplicate code {c}");
            seen[c] = true;
            assert_eq!(EventKind::from_code(k.code()), Some(*k));
        }
        assert_eq!(EventKind::from_code(54), None);
    }

    #[test]
    fn kind_classification() {
        assert!(EventKind::Irp(MajorFunction::Read).is_read());
        assert!(EventKind::FastIo(FastIoKind::Read).is_read());
        assert!(!EventKind::Irp(MajorFunction::Read).is_write());
        assert!(EventKind::FastIo(FastIoKind::Write).is_fastio());
        assert!(MajorFunction::Write.is_data());
        assert!(!MajorFunction::Cleanup.is_data());
    }
}
