//! The per-layer FastIO dispatch table and the documented IRP fallback.
//!
//! §10 of the paper: the FastIO path is procedural — the I/O manager
//! calls through a per-driver method table straight toward the cache
//! manager. A filter driver that leaves an entry out of its table removes
//! that entry for the whole stack: the I/O manager falls back to building
//! an IRP and sending it down the packet path instead. [`FastIoDispatch`]
//! models one driver's table; [`DriverStack`](crate::stack::DriverStack)
//! intersects the tables of every attached filter, and the machine asks
//! the intersection which [`EventKind`](crate::request::EventKind) a
//! would-be FastIO call actually rides.

use crate::request::{FastIoKind, MajorFunction};

/// One driver's FastIO method table: a bit per dispatch routine.
///
/// The FSD at the bottom of the stack implements everything
/// ([`FastIoDispatch::full`]); a filter that does not care about FastIO
/// exposes the full table too, so attaching it changes nothing. Opting a
/// routine out ([`FastIoDispatch::without`]) forces the documented IRP
/// fallback for every request that would have used it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FastIoDispatch(u32);

impl FastIoDispatch {
    /// A table implementing all 26 routines.
    pub const fn full() -> Self {
        FastIoDispatch((1 << FastIoKind::ALL.len()) - 1)
    }

    /// A table implementing none of them — every FastIO request the
    /// stack would have short-circuited becomes an IRP.
    pub const fn empty() -> Self {
        FastIoDispatch(0)
    }

    /// Whether this table implements `kind`.
    pub const fn supports(self, kind: FastIoKind) -> bool {
        self.0 & (1 << kind as u32) != 0
    }

    /// This table with `kind` opted out.
    #[must_use]
    pub const fn without(self, kind: FastIoKind) -> Self {
        FastIoDispatch(self.0 & !(1 << kind as u32))
    }

    /// This table with `kind` opted (back) in.
    #[must_use]
    pub const fn with(self, kind: FastIoKind) -> Self {
        FastIoDispatch(self.0 | (1 << kind as u32))
    }

    /// The effective table of two stacked drivers: a routine exists for
    /// the stack only if every layer implements it.
    #[must_use]
    pub(crate) const fn intersect(self, other: Self) -> Self {
        FastIoDispatch(self.0 & other.0)
    }

    /// How many routines this table implements.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True when no routine is implemented.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Default for FastIoDispatch {
    fn default() -> Self {
        FastIoDispatch::full()
    }
}

/// The IRP major function a FastIO routine falls back to when some layer
/// opts out of it (the packet that the I/O manager builds instead).
pub const fn irp_fallback(kind: FastIoKind) -> MajorFunction {
    match kind {
        // Data copies and the zero-copy MDL variants become plain
        // read/write packets.
        FastIoKind::Read
        | FastIoKind::ReadCompressed
        | FastIoKind::MdlRead
        | FastIoKind::MdlReadComplete
        | FastIoKind::MdlReadCompleteCompressed => MajorFunction::Read,
        FastIoKind::Write
        | FastIoKind::WriteCompressed
        | FastIoKind::PrepareMdlWrite
        | FastIoKind::MdlWriteComplete
        | FastIoKind::MdlWriteCompleteCompressed => MajorFunction::Write,
        // Metadata queries ride the query-information packet.
        FastIoKind::QueryBasicInfo
        | FastIoKind::QueryStandardInfo
        | FastIoKind::QueryNetworkOpenInfo
        | FastIoKind::QueryOpen => MajorFunction::QueryInformation,
        // Byte-range locking has its own major.
        FastIoKind::Lock
        | FastIoKind::UnlockSingle
        | FastIoKind::UnlockAll
        | FastIoKind::UnlockAllByKey => MajorFunction::LockControl,
        FastIoKind::DeviceControl => MajorFunction::DeviceControl,
        // Section/flush synchronisation calls have no packet form of
        // their own; they surface as file-system control requests.
        FastIoKind::CheckIfPossible
        | FastIoKind::AcquireFileForNtCreateSection
        | FastIoKind::ReleaseFileForNtCreateSection
        | FastIoKind::AcquireForModWrite
        | FastIoKind::ReleaseForModWrite
        | FastIoKind::AcquireForCcFlush
        | FastIoKind::ReleaseForCcFlush => MajorFunction::FileSystemControl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_table_supports_everything() {
        let t = FastIoDispatch::full();
        assert_eq!(t.len(), 26);
        for k in FastIoKind::ALL {
            assert!(t.supports(k));
        }
        assert!(FastIoDispatch::empty().is_empty());
    }

    #[test]
    fn opt_out_is_per_entry_and_reversible() {
        let t = FastIoDispatch::full().without(FastIoKind::Read);
        assert!(!t.supports(FastIoKind::Read));
        assert!(t.supports(FastIoKind::Write));
        assert_eq!(t.len(), 25);
        assert!(t.with(FastIoKind::Read).supports(FastIoKind::Read));
    }

    #[test]
    fn intersection_models_the_stack() {
        let a = FastIoDispatch::full().without(FastIoKind::Read);
        let b = FastIoDispatch::full().without(FastIoKind::Lock);
        let eff = a.intersect(b);
        assert!(!eff.supports(FastIoKind::Read));
        assert!(!eff.supports(FastIoKind::Lock));
        assert_eq!(eff.len(), 24);
    }

    #[test]
    fn every_routine_has_a_fallback() {
        // The mapping is total and lands on plausible packet types; the
        // data routines must fall back to the data majors (the §10 path
        // split depends on it).
        for k in FastIoKind::ALL {
            let _ = irp_fallback(k);
        }
        assert_eq!(irp_fallback(FastIoKind::Read), MajorFunction::Read);
        assert_eq!(
            irp_fallback(FastIoKind::ReadCompressed),
            MajorFunction::Read
        );
        assert_eq!(irp_fallback(FastIoKind::Write), MajorFunction::Write);
        assert_eq!(
            irp_fallback(FastIoKind::WriteCompressed),
            MajorFunction::Write
        );
        assert_eq!(irp_fallback(FastIoKind::Lock), MajorFunction::LockControl);
        assert_eq!(
            irp_fallback(FastIoKind::QueryBasicInfo),
            MajorFunction::QueryInformation
        );
    }
}
