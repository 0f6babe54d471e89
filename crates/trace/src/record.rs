//! Fixed-size trace records (§3.2).
//!
//! Each record carries "at least a reference to the file object, IRP, File
//! and Header Flags, the requesting process, the current byte offset and
//! file size, and the result status", two 100 ns timestamps, and the
//! per-operation extras. The encoding is a fixed 88-byte layout so that a
//! buffer of 3,000 records has a known footprint and the collection-server
//! compression can work on stable columns.

use bytes::{Buf, BufMut};
use nt_io::{AccessMode, CreateOptions, Disposition};
use nt_io::{EventKind, IoEvent, NtStatus, SetInfoKind};
use nt_sim::SimTime;

/// Size of one encoded record in bytes.
pub const RECORD_SIZE: usize = 88;

const FLAG_PAGING: u8 = TraceRecord::FLAG_PAGING;
const FLAG_READAHEAD: u8 = TraceRecord::FLAG_READAHEAD;
const FLAG_LOCAL: u8 = TraceRecord::FLAG_LOCAL;
const FLAG_CREATED: u8 = TraceRecord::FLAG_CREATED;

/// A fixed-size trace record; the in-memory twin of the wire format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Event-kind code 0–53 (see [`EventKind::code`]).
    pub code: u8,
    /// Header flags (paging, read-ahead, local volume).
    pub flags: u8,
    /// Completion status.
    pub status: NtStatus,
    /// SetInformation class, when applicable.
    pub set_info: Option<SetInfoKind>,
    /// Create access class, when applicable.
    pub access: Option<AccessMode>,
    /// Create disposition, when applicable.
    pub disposition: Option<Disposition>,
    /// Create options bitfield, when applicable.
    pub options: Option<CreateOptions>,
    /// File object id.
    pub file_object: u64,
    /// FCB id (`u64::MAX` when none).
    pub fcb: u64,
    /// Requesting process.
    pub process: u32,
    /// Volume index.
    pub volume: u32,
    /// Request offset.
    pub offset: u64,
    /// Requested length.
    pub length: u64,
    /// Bytes transferred.
    pub transferred: u64,
    /// File size at request time.
    pub file_size: u64,
    /// File object's byte offset at request time.
    pub byte_offset: u64,
    /// Arrival timestamp in 100 ns ticks.
    pub start_ticks: u64,
    /// Completion timestamp in 100 ns ticks.
    pub end_ticks: u64,
}

impl TraceRecord {
    /// The PagingIO header bit in [`TraceRecord::flags`]. Public so
    /// columnar scans over a flags column can test bits without
    /// reconstructing whole records.
    pub const FLAG_PAGING: u8 = 1 << 0;
    /// The read-ahead header bit.
    pub(crate) const FLAG_READAHEAD: u8 = 1 << 1;
    /// The local-volume header bit.
    pub const FLAG_LOCAL: u8 = 1 << 2;
    /// The file-was-created header bit.
    pub(crate) const FLAG_CREATED: u8 = 1 << 3;

    /// Builds a record from a live I/O event.
    pub(crate) fn from_event(ev: &IoEvent) -> Self {
        let mut flags = 0;
        if ev.paging_io {
            flags |= FLAG_PAGING;
        }
        if ev.readahead {
            flags |= FLAG_READAHEAD;
        }
        if ev.local {
            flags |= FLAG_LOCAL;
        }
        if ev.created {
            flags |= FLAG_CREATED;
        }
        TraceRecord {
            code: ev.kind.code(),
            flags,
            status: ev.status,
            set_info: ev.set_info,
            access: ev.access,
            disposition: ev.disposition,
            options: ev.options,
            file_object: ev.file_object.0,
            fcb: ev.fcb.0,
            process: ev.process.0,
            volume: ev.volume,
            offset: ev.offset,
            length: ev.length,
            transferred: ev.transferred,
            file_size: ev.file_size,
            byte_offset: ev.byte_offset,
            start_ticks: ev.start.ticks(),
            end_ticks: ev.end.ticks(),
        }
    }

    /// The event kind (inverse of the code).
    pub fn kind(&self) -> EventKind {
        EventKind::from_code(self.code).expect("record carries a valid code")
    }

    /// The PagingIO header bit.
    pub fn is_paging(&self) -> bool {
        self.flags & FLAG_PAGING != 0
    }

    /// True for speculative read-ahead paging reads.
    pub fn is_readahead(&self) -> bool {
        self.flags & FLAG_READAHEAD != 0
    }

    /// True when the request targeted a local volume.
    pub fn is_local(&self) -> bool {
        self.flags & FLAG_LOCAL != 0
    }

    /// True when this create brought a new file into existence.
    pub fn is_created(&self) -> bool {
        self.flags & FLAG_CREATED != 0
    }

    /// Arrival time.
    pub fn start(&self) -> SimTime {
        SimTime::from_ticks(self.start_ticks)
    }

    /// Completion time.
    pub fn end(&self) -> SimTime {
        SimTime::from_ticks(self.end_ticks)
    }

    /// Service duration in 100 ns ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.end_ticks.saturating_sub(self.start_ticks)
    }

    /// Encodes into exactly [`RECORD_SIZE`] bytes.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.code);
        buf.put_u8(self.flags);
        buf.put_u8(encode_status(self.status));
        buf.put_u8(self.set_info.map(encode_set_info).unwrap_or(0xff));
        buf.put_u8(self.access.map(encode_access).unwrap_or(0xff));
        buf.put_u8(self.disposition.map(encode_disposition).unwrap_or(0xff));
        buf.put_u8(self.options.map(encode_options).unwrap_or(0xff));
        buf.put_u8(self.options.map(encode_share).unwrap_or(0xff));
        buf.put_u64_le(self.file_object);
        buf.put_u64_le(self.fcb);
        buf.put_u32_le(self.process);
        buf.put_u32_le(self.volume);
        buf.put_u64_le(self.offset);
        buf.put_u64_le(self.length);
        buf.put_u64_le(self.transferred);
        buf.put_u64_le(self.file_size);
        buf.put_u64_le(self.byte_offset);
        buf.put_u64_le(self.start_ticks);
        buf.put_u64_le(self.end_ticks);
    }

    /// Decodes from [`RECORD_SIZE`] bytes; `None` on any malformed field.
    pub fn decode(buf: &mut impl Buf) -> Option<Self> {
        if buf.remaining() < RECORD_SIZE {
            return None;
        }
        let code = buf.get_u8();
        let flags = buf.get_u8();
        let status = decode_status(buf.get_u8())?;
        let set_info = decode_opt(buf.get_u8(), decode_set_info)?;
        let access = decode_opt(buf.get_u8(), decode_access)?;
        let disposition = decode_opt(buf.get_u8(), decode_disposition)?;
        let mut options = decode_opt(buf.get_u8(), |b| Some(decode_options(b)))?;
        let share_bits = buf.get_u8();
        if let Some(o) = options.as_mut() {
            o.share = decode_share(share_bits);
        }
        EventKind::from_code(code)?;
        Some(TraceRecord {
            code,
            flags,
            status,
            set_info,
            access,
            disposition,
            options,
            file_object: buf.get_u64_le(),
            fcb: buf.get_u64_le(),
            process: buf.get_u32_le(),
            volume: buf.get_u32_le(),
            offset: buf.get_u64_le(),
            length: buf.get_u64_le(),
            transferred: buf.get_u64_le(),
            file_size: buf.get_u64_le(),
            byte_offset: buf.get_u64_le(),
            start_ticks: buf.get_u64_le(),
            end_ticks: buf.get_u64_le(),
        })
    }
}

fn decode_opt<T>(b: u8, f: impl Fn(u8) -> Option<T>) -> Option<Option<T>> {
    if b == 0xff {
        Some(None)
    } else {
        f(b).map(Some)
    }
}

fn encode_status(s: NtStatus) -> u8 {
    match s {
        NtStatus::Success => 0,
        NtStatus::ObjectNameNotFound => 1,
        NtStatus::ObjectPathNotFound => 2,
        NtStatus::ObjectNameCollision => 3,
        NtStatus::EndOfFile => 4,
        NtStatus::DiskFull => 5,
        NtStatus::AccessDenied => 6,
        NtStatus::SharingViolation => 7,
        NtStatus::DeletePending => 8,
        NtStatus::DirectoryNotEmpty => 9,
        NtStatus::NotADirectory => 10,
        NtStatus::FileIsADirectory => 11,
        NtStatus::InvalidParameter => 12,
        NtStatus::InvalidHandle => 13,
        NtStatus::NoMoreFiles => 14,
        NtStatus::InvalidDeviceRequest => 15,
        NtStatus::FileLockConflict => 16,
        NtStatus::NetworkUnreachable => 17,
    }
}

fn decode_status(b: u8) -> Option<NtStatus> {
    Some(match b {
        0 => NtStatus::Success,
        1 => NtStatus::ObjectNameNotFound,
        2 => NtStatus::ObjectPathNotFound,
        3 => NtStatus::ObjectNameCollision,
        4 => NtStatus::EndOfFile,
        5 => NtStatus::DiskFull,
        6 => NtStatus::AccessDenied,
        7 => NtStatus::SharingViolation,
        8 => NtStatus::DeletePending,
        9 => NtStatus::DirectoryNotEmpty,
        10 => NtStatus::NotADirectory,
        11 => NtStatus::FileIsADirectory,
        12 => NtStatus::InvalidParameter,
        13 => NtStatus::InvalidHandle,
        14 => NtStatus::NoMoreFiles,
        15 => NtStatus::InvalidDeviceRequest,
        16 => NtStatus::FileLockConflict,
        17 => NtStatus::NetworkUnreachable,
        _ => return None,
    })
}

fn encode_set_info(s: SetInfoKind) -> u8 {
    match s {
        SetInfoKind::EndOfFile => 0,
        SetInfoKind::Disposition => 1,
        SetInfoKind::Rename => 2,
        SetInfoKind::Basic => 3,
        SetInfoKind::Allocation => 4,
    }
}

fn decode_set_info(b: u8) -> Option<SetInfoKind> {
    Some(match b {
        0 => SetInfoKind::EndOfFile,
        1 => SetInfoKind::Disposition,
        2 => SetInfoKind::Rename,
        3 => SetInfoKind::Basic,
        4 => SetInfoKind::Allocation,
        _ => return None,
    })
}

fn encode_access(a: AccessMode) -> u8 {
    match a {
        AccessMode::Read => 0,
        AccessMode::Write => 1,
        AccessMode::ReadWrite => 2,
        AccessMode::Control => 3,
        AccessMode::Delete => 4,
    }
}

fn decode_access(b: u8) -> Option<AccessMode> {
    Some(match b {
        0 => AccessMode::Read,
        1 => AccessMode::Write,
        2 => AccessMode::ReadWrite,
        3 => AccessMode::Control,
        4 => AccessMode::Delete,
        _ => return None,
    })
}

fn encode_disposition(d: Disposition) -> u8 {
    match d {
        Disposition::Open => 0,
        Disposition::Create => 1,
        Disposition::OpenIf => 2,
        Disposition::Overwrite => 3,
        Disposition::OverwriteIf => 4,
        Disposition::Supersede => 5,
    }
}

fn decode_disposition(b: u8) -> Option<Disposition> {
    Some(match b {
        0 => Disposition::Open,
        1 => Disposition::Create,
        2 => Disposition::OpenIf,
        3 => Disposition::Overwrite,
        4 => Disposition::OverwriteIf,
        5 => Disposition::Supersede,
        _ => return None,
    })
}

fn encode_options(o: CreateOptions) -> u8 {
    let mut b = 0;
    if o.sequential_only {
        b |= 1 << 0;
    }
    if o.write_through {
        b |= 1 << 1;
    }
    if o.no_intermediate_buffering {
        b |= 1 << 2;
    }
    if o.delete_on_close {
        b |= 1 << 3;
    }
    if o.temporary {
        b |= 1 << 4;
    }
    if o.directory {
        b |= 1 << 5;
    }
    b
}

fn decode_options(b: u8) -> CreateOptions {
    CreateOptions {
        sequential_only: b & (1 << 0) != 0,
        write_through: b & (1 << 1) != 0,
        no_intermediate_buffering: b & (1 << 2) != 0,
        delete_on_close: b & (1 << 3) != 0,
        temporary: b & (1 << 4) != 0,
        directory: b & (1 << 5) != 0,
        ..CreateOptions::default()
    }
}

fn encode_share(o: CreateOptions) -> u8 {
    (o.share.read as u8) | ((o.share.write as u8) << 1) | ((o.share.delete as u8) << 2)
}

fn decode_share(b: u8) -> nt_io::ShareMode {
    if b == 0xff {
        return nt_io::ShareMode::all();
    }
    nt_io::ShareMode {
        read: b & 1 != 0,
        write: b & 2 != 0,
        delete: b & 4 != 0,
    }
}

/// The auxiliary record mapping a new file object to a name (§3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NameRecord {
    /// The file object.
    pub file_object: u64,
    /// Volume index.
    pub volume: u32,
    /// Opening process.
    pub process: u32,
    /// The path (lower-cased, backslash separated).
    pub path: String,
    /// When the object was created.
    pub at_ticks: u64,
}

impl NameRecord {
    /// The lower-cased extension of the path, if any — the study stores
    /// names "in a short form as we are mainly interested in the file
    /// type".
    pub fn extension(&self) -> Option<&str> {
        let name = self.path.rsplit('\\').next()?;
        let dot = name.rfind('.')?;
        if dot == 0 || dot + 1 == name.len() {
            None
        } else {
            Some(&name[dot + 1..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use nt_io::{FastIoKind, MajorFunction};

    fn sample() -> TraceRecord {
        TraceRecord {
            code: EventKind::Irp(MajorFunction::Create).code(),
            flags: FLAG_LOCAL,
            status: NtStatus::ObjectNameCollision,
            set_info: None,
            access: Some(AccessMode::ReadWrite),
            disposition: Some(Disposition::Create),
            options: Some(CreateOptions {
                temporary: true,
                delete_on_close: true,
                ..CreateOptions::default()
            }),
            file_object: 42,
            fcb: u64::MAX,
            process: 7,
            volume: 0,
            offset: 0,
            length: 0,
            transferred: 0,
            file_size: 123,
            byte_offset: 0,
            start_ticks: 1_000_000,
            end_ticks: 1_000_300,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rec = sample();
        let mut buf = BytesMut::new();
        rec.encode(&mut buf);
        assert_eq!(buf.len(), RECORD_SIZE);
        let back = TraceRecord::decode(&mut buf.freeze()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn roundtrip_all_event_codes() {
        for kind in EventKind::all() {
            let mut rec = sample();
            rec.code = kind.code();
            rec.access = None;
            rec.disposition = None;
            rec.options = None;
            let mut buf = BytesMut::new();
            rec.encode(&mut buf);
            let back = TraceRecord::decode(&mut buf.freeze()).unwrap();
            assert_eq!(back.kind(), kind);
        }
    }

    #[test]
    fn short_buffer_decodes_none() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        let mut short = buf.freeze().slice(0..RECORD_SIZE - 1);
        assert!(TraceRecord::decode(&mut short).is_none());
    }

    #[test]
    fn flags_accessors() {
        let mut rec = sample();
        rec.flags = FLAG_PAGING | FLAG_READAHEAD;
        assert!(rec.is_paging());
        assert!(rec.is_readahead());
        assert!(!rec.is_local());
        assert_eq!(rec.latency_ticks(), 300);
    }

    #[test]
    fn fastio_codes_roundtrip() {
        let kind = EventKind::FastIo(FastIoKind::Read);
        let mut rec = sample();
        rec.code = kind.code();
        rec.access = None;
        rec.disposition = None;
        rec.options = None;
        let mut buf = BytesMut::new();
        rec.encode(&mut buf);
        assert_eq!(TraceRecord::decode(&mut buf.freeze()).unwrap().kind(), kind);
    }

    #[test]
    fn name_record_extension() {
        let nr = NameRecord {
            file_object: 1,
            volume: 0,
            process: 0,
            path: r"\winnt\profiles\alice\index.dat".into(),
            at_ticks: 0,
        };
        assert_eq!(nr.extension(), Some("dat"));
        let none = NameRecord {
            path: r"\noext".into(),
            ..nr
        };
        assert_eq!(none.extension(), None);
    }
}
