//! The filter-driver attachment point.
//!
//! The study inserted a filter driver above every local file-system driver
//! instance and the network redirector (§3.2). [`IoObserver`] is that
//! attachment: the I/O manager reports every IRP and FastIO call, plus the
//! auxiliary record mapping each new file object to its name.

use crate::request::IoEvent;
use crate::types::{FileObjectId, ProcessId};
use nt_sim::SimTime;

/// Metadata reported once per new file object (§3.2: "an additional trace
/// record is written for each new file object, mapping object id to a file
/// name").
#[derive(Clone, Debug)]
pub struct FileObjectInfo {
    /// The new file object.
    pub id: FileObjectId,
    /// Volume index within the machine namespace.
    pub volume: u32,
    /// Full path being opened (lower-cased components).
    pub path: String,
    /// Opening process.
    pub process: ProcessId,
    /// When the create was issued.
    pub at: SimTime,
}

/// The record consumer at the bottom of the driver stack.
///
/// `'static` because observers ride inside a boxed
/// `ObserverFilter` layer in the machine's
/// [`crate::stack::DriverStack`].
pub trait IoObserver: 'static {
    /// Whether this observer consumes records at all. When `false` the
    /// machine skips building `IoEvent`/`FileObjectInfo` values entirely
    /// — an untraced machine pays nothing on the request hot path. The
    /// constant is resolved at monomorphisation time, so the enabled
    /// path carries no branch either.
    const ENABLED: bool = true;

    /// A new file object came into existence (successful or failed open).
    fn file_object(&mut self, info: &FileObjectInfo);

    /// An IRP or FastIO request completed; `event` carries both
    /// timestamps.
    fn event(&mut self, event: &IoEvent);
}

/// An observer that records nothing (an untraced machine).
#[derive(Default, Clone, Copy, Debug)]
pub struct NullObserver;

impl IoObserver for NullObserver {
    const ENABLED: bool = false;

    fn file_object(&mut self, _info: &FileObjectInfo) {}

    fn event(&mut self, _event: &IoEvent) {}
}

/// An observer that appends everything to vectors; handy in tests.
#[derive(Default, Debug)]
pub struct VecObserver {
    /// File-object records seen.
    pub objects: Vec<FileObjectInfo>,
    /// Request records seen.
    pub events: Vec<IoEvent>,
}

impl IoObserver for VecObserver {
    fn file_object(&mut self, info: &FileObjectInfo) {
        self.objects.push(info.clone());
    }

    fn event(&mut self, event: &IoEvent) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_silent() {
        let mut o = NullObserver;
        o.file_object(&FileObjectInfo {
            id: FileObjectId(1),
            volume: 0,
            path: String::new(),
            process: ProcessId(0),
            at: SimTime::ZERO,
        });
        // Nothing to assert beyond "it compiles and does not panic".
    }
}
