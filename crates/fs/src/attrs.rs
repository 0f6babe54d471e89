//! File attributes and timestamps.
//!
//! §5 of the paper observes that the three recorded file times (creation,
//! last access, last change) are under application control and therefore
//! unreliable — e.g. installers back-date creation times, and in 2–4 % of
//! files last-change is newer than last-access. The model keeps all three
//! and allows exactly those inconsistencies so the snapshot analysis can
//! reproduce the observation. On FAT, creation and last-access times are
//! not maintained (§3.1).

use nt_sim::SimTime;

/// Windows NT file attribute flags (the subset relevant to the study).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct FileAttributes(u32);

impl FileAttributes {
    /// FILE_ATTRIBUTE_TEMPORARY — §6.3: tells the lazy writer not to queue
    /// the file's dirty pages for disk writes; the file dies at close.
    pub const TEMPORARY: FileAttributes = FileAttributes(0x0100);
    /// FILE_ATTRIBUTE_COMPRESSED.
    pub const COMPRESSED: FileAttributes = FileAttributes(0x0800);

    /// The empty attribute set.
    pub const fn empty() -> Self {
        FileAttributes(0)
    }

    /// Raw bits, matching the Win32 encoding.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Union of two attribute sets.
    pub const fn union(self, other: FileAttributes) -> FileAttributes {
        FileAttributes(self.0 | other.0)
    }

    /// True when every flag in `other` is set in `self`.
    pub const fn contains(self, other: FileAttributes) -> bool {
        self.0 & other.0 == other.0
    }

    /// Removes the flags in `other`.
    pub const fn difference(self, other: FileAttributes) -> FileAttributes {
        FileAttributes(self.0 & !other.0)
    }
}

impl std::ops::BitOr for FileAttributes {
    type Output = FileAttributes;

    fn bitor(self, rhs: FileAttributes) -> FileAttributes {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for FileAttributes {
    fn bitor_assign(&mut self, rhs: FileAttributes) {
        *self = *self | rhs;
    }
}

/// The three timestamps a Windows NT file carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FileTimes {
    /// Creation time; `None` on FAT volumes, which do not maintain it.
    pub creation: Option<SimTime>,
    /// Last access time; `None` on FAT volumes.
    pub last_access: Option<SimTime>,
    /// Last write (change) time — maintained by all file systems.
    pub last_write: SimTime,
}

impl FileTimes {
    /// Fresh timestamps for a file created at `now`, per file-system rules.
    pub(crate) fn at_creation(now: SimTime, maintains_all: bool) -> Self {
        FileTimes {
            creation: maintains_all.then_some(now),
            last_access: maintains_all.then_some(now),
            last_write: now,
        }
    }

    /// True when the timestamps are self-inconsistent in the way §5
    /// reports for 2–4 % of files: last change newer than last access.
    pub fn change_newer_than_access(&self) -> bool {
        match self.last_access {
            Some(a) => self.last_write > a,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_set_operations() {
        let a = FileAttributes::TEMPORARY | FileAttributes::COMPRESSED;
        assert!(a.contains(FileAttributes::TEMPORARY));
        assert!(a.contains(FileAttributes::COMPRESSED));
        assert!(!FileAttributes::TEMPORARY.contains(FileAttributes::COMPRESSED));
        let b = a.difference(FileAttributes::COMPRESSED);
        assert!(b.contains(FileAttributes::TEMPORARY));
        assert!(!b.contains(FileAttributes::COMPRESSED));
        assert_eq!(FileAttributes::empty().bits(), 0);
    }

    #[test]
    fn creation_times_per_fs() {
        let t = SimTime::from_secs(10);
        let ntfs = FileTimes::at_creation(t, true);
        assert_eq!(ntfs.creation, Some(t));
        assert_eq!(ntfs.last_access, Some(t));
        let fat = FileTimes::at_creation(t, false);
        assert_eq!(fat.creation, None);
        assert_eq!(fat.last_access, None);
        assert_eq!(fat.last_write, t);
    }

    #[test]
    fn inconsistent_timestamps_detectable() {
        let mut ft = FileTimes::at_creation(SimTime::from_secs(10), true);
        assert!(!ft.change_newer_than_access());
        ft.last_write = SimTime::from_secs(20);
        assert!(ft.change_newer_than_access());
    }
}
