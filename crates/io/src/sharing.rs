//! Share-mode arbitration and byte-range locks.
//!
//! Windows NT arbitrates every open against the share modes of the
//! handles already open on the file, and IRP_MJ_LOCK_CONTROL implements
//! byte-range locks on top. The study logged lock operations without
//! detail (§3.4 explicitly scopes them out of the analysis), but the
//! mechanisms influence the trace — sharing violations are open failures,
//! and database-style applications issue lock traffic — so the model
//! implements both.

use crate::arena::ArenaHandle;
use crate::types::{AccessMode, HandleId, ShareMode};

/// One opener's contribution to the share state of a file.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShareEntry {
    /// Access the opener was granted.
    pub access: AccessMode,
    /// What the opener allows others to do.
    pub share: ShareMode,
}

/// Checks an open request against the existing openers of the file.
///
/// NT semantics: the new opener's requested access must be permitted by
/// every existing opener's share mode, and the new opener's share mode
/// must permit every existing opener's access.
pub(crate) fn share_compatible(
    existing: &[ShareEntry],
    access: AccessMode,
    share: ShareMode,
) -> bool {
    for e in existing {
        // Existing opener must allow what the newcomer wants.
        if access.can_read() && !e.share.read {
            return false;
        }
        if access.can_write() && !e.share.write {
            return false;
        }
        if matches!(access, AccessMode::Delete) && !e.share.delete {
            return false;
        }
        // Newcomer must allow what existing openers hold.
        if e.access.can_read() && !share.read {
            return false;
        }
        if e.access.can_write() && !share.write {
            return false;
        }
        if matches!(e.access, AccessMode::Delete) && !share.delete {
            return false;
        }
    }
    true
}

/// One byte-range lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ByteRangeLock {
    /// Lock start offset.
    pub offset: u64,
    /// Lock length.
    pub len: u64,
    /// Exclusive (write) vs shared (read) lock.
    pub exclusive: bool,
    /// Owning handle.
    pub owner: HandleId,
}

impl ByteRangeLock {
    fn overlaps(&self, offset: u64, len: u64) -> bool {
        let (s1, e1) = (self.offset, self.offset.saturating_add(self.len));
        let (s2, e2) = (offset, offset.saturating_add(len));
        s1 < e2 && s2 < e1
    }
}

/// Per-file byte-range lock table (keyed by FCB at the machine level).
#[derive(Clone, Debug, Default)]
pub(crate) struct LockTable {
    locks: Vec<ByteRangeLock>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Number of live locks.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.locks.len()
    }

    /// True when no locks are held.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Attempts to take a lock; `true` on success. Shared locks coexist;
    /// an exclusive lock conflicts with any overlapping lock held by a
    /// different handle.
    pub fn lock(&mut self, owner: HandleId, offset: u64, len: u64, exclusive: bool) -> bool {
        if len == 0 {
            return false;
        }
        for l in &self.locks {
            if l.owner != owner && l.overlaps(offset, len) && (exclusive || l.exclusive) {
                return false;
            }
        }
        self.locks.push(ByteRangeLock {
            offset,
            len,
            exclusive,
            owner,
        });
        true
    }

    /// Releases a single lock previously taken with exactly this range;
    /// `true` when one was found.
    pub fn unlock(&mut self, owner: HandleId, offset: u64, len: u64) -> bool {
        if let Some(i) = self
            .locks
            .iter()
            .position(|l| l.owner == owner && l.offset == offset && l.len == len)
        {
            self.locks.swap_remove(i);
            true
        } else {
            false
        }
    }

    /// Releases every lock held by a handle (UnlockAll / handle cleanup).
    /// Returns how many were dropped.
    pub(crate) fn unlock_all(&mut self, owner: HandleId) -> usize {
        let before = self.locks.len();
        self.locks.retain(|l| l.owner != owner);
        before - self.locks.len()
    }

    /// True when `[offset, offset+len)` can be written by `owner`:
    /// no conflicting lock held by someone else.
    pub(crate) fn write_allowed(&self, owner: HandleId, offset: u64, len: u64) -> bool {
        !self
            .locks
            .iter()
            .any(|l| l.owner != owner && l.overlaps(offset, len))
    }

    /// True when the range can be read by `owner` (only exclusive locks
    /// of other handles block reads).
    pub(crate) fn read_allowed(&self, owner: HandleId, offset: u64, len: u64) -> bool {
        !self
            .locks
            .iter()
            .any(|l| l.owner != owner && l.exclusive && l.overlaps(offset, len))
    }
}

/// Share state of one file, living in the slot of the file's FCB.
#[derive(Clone, Debug, Default)]
struct ShareState {
    /// Generation of the FCB slot the state belongs to; a mismatch means
    /// the slot was reclaimed and reused by another file, so whatever is
    /// stored here is dead (it should already be empty — entries and
    /// locks are dropped with the last cleanup, before FCB reclaim).
    generation: u32,
    entries: Vec<(HandleId, ShareEntry)>,
    locks: LockTable,
}

/// The per-machine registry of share states, keyed by FCB slot.
///
/// The registry is a plain vector indexed by the FCB's arena slot —
/// no hashing on the data hot path (byte-range lock arbitration runs on
/// every read and write). Slot generations guard against reuse: a state
/// stamped with an older generation reads as empty.
#[derive(Default)]
pub struct ShareRegistry {
    states: Vec<ShareState>,
}

impl ShareRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ShareRegistry::default()
    }

    /// The live state for `fcb`, if its slot holds one.
    fn state(&self, fcb: ArenaHandle) -> Option<&ShareState> {
        self.states
            .get(fcb.index())
            .filter(|s| s.generation == fcb.generation())
    }

    /// Mutable state for `fcb`, growing the vector and resetting any
    /// stale previous occupant of the slot.
    fn state_mut(&mut self, fcb: ArenaHandle) -> &mut ShareState {
        if fcb.index() >= self.states.len() {
            self.states
                .resize_with(fcb.index() + 1, ShareState::default);
        }
        let state = &mut self.states[fcb.index()];
        if state.generation != fcb.generation() {
            debug_assert!(
                state.entries.is_empty() && state.locks.is_empty(),
                "share state must drain before its FCB slot is reused"
            );
            state.entries.clear();
            state.locks = LockTable::new();
            state.generation = fcb.generation();
        }
        state
    }

    /// Read-only compatibility check (used before any side effects of
    /// the open are applied).
    pub fn compatible(&self, fcb: ArenaHandle, access: AccessMode, share: ShareMode) -> bool {
        match self.state(fcb) {
            Some(state) => {
                let existing: Vec<ShareEntry> = state.entries.iter().map(|(_, e)| *e).collect();
                share_compatible(&existing, access, share)
            }
            None => true,
        }
    }

    /// Arbitrates and registers a new open; `false` is a sharing
    /// violation.
    pub fn try_open(
        &mut self,
        fcb: ArenaHandle,
        handle: HandleId,
        access: AccessMode,
        share: ShareMode,
    ) -> bool {
        let state = self.state_mut(fcb);
        let existing: Vec<ShareEntry> = state.entries.iter().map(|(_, e)| *e).collect();
        if !share_compatible(&existing, access, share) {
            return false;
        }
        state.entries.push((handle, ShareEntry { access, share }));
        true
    }

    /// Removes a handle's registration and drops its locks.
    pub fn close(&mut self, fcb: ArenaHandle, handle: HandleId) {
        let Some(state) = self.states.get_mut(fcb.index()) else {
            return;
        };
        if state.generation != fcb.generation() {
            return;
        }
        state.entries.retain(|(h, _)| *h != handle);
        state.locks.unlock_all(handle);
        if state.entries.is_empty() {
            // Keep the allocation; the slot's next occupant reuses it.
            state.locks = LockTable::new();
        }
    }

    /// The lock table of a file.
    pub(crate) fn locks_mut(&mut self, fcb: ArenaHandle) -> &mut LockTable {
        &mut self.state_mut(fcb).locks
    }

    /// Read-only view of a file's locks.
    pub(crate) fn locks(&self, fcb: ArenaHandle) -> Option<&LockTable> {
        self.state(fcb).map(|s| &s.locks)
    }

    /// Openers currently registered on a file.
    #[cfg(test)]
    fn openers(&self, fcb: ArenaHandle) -> usize {
        self.state(fcb).map_or(0, |s| s.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H1: HandleId = HandleId(1);
    const H2: HandleId = HandleId(2);

    #[test]
    fn share_everything_always_compatible() {
        let existing = vec![ShareEntry {
            access: AccessMode::ReadWrite,
            share: ShareMode::all(),
        }];
        assert!(share_compatible(
            &existing,
            AccessMode::ReadWrite,
            ShareMode::all()
        ));
    }

    #[test]
    fn exclusive_open_blocks_second_writer() {
        // First opener shares nothing.
        let exclusive = ShareEntry {
            access: AccessMode::Write,
            share: ShareMode::default(),
        };
        assert!(!share_compatible(
            &[exclusive],
            AccessMode::Read,
            ShareMode::all()
        ));
        // Reader sharing read only blocks writers.
        let reader = ShareEntry {
            access: AccessMode::Read,
            share: ShareMode {
                read: true,
                write: false,
                delete: false,
            },
        };
        assert!(share_compatible(
            &[reader],
            AccessMode::Read,
            ShareMode::all()
        ));
        assert!(!share_compatible(
            &[reader],
            AccessMode::Write,
            ShareMode::all()
        ));
    }

    #[test]
    fn newcomer_share_must_cover_existing_access() {
        let writer = ShareEntry {
            access: AccessMode::Write,
            share: ShareMode::all(),
        };
        // Newcomer refuses to share writes while a writer exists.
        assert!(!share_compatible(
            &[writer],
            AccessMode::Read,
            ShareMode {
                read: true,
                write: false,
                delete: true,
            }
        ));
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = ShareRegistry::new();
        let fcb = ArenaHandle::from_parts(9, 1);
        assert!(reg.try_open(
            fcb,
            H1,
            AccessMode::Read,
            ShareMode {
                read: true,
                write: false,
                delete: false
            }
        ));
        assert!(!reg.try_open(fcb, H2, AccessMode::Write, ShareMode::all()));
        assert_eq!(reg.openers(fcb), 1);
        reg.close(fcb, H1);
        assert!(reg.try_open(fcb, H2, AccessMode::Write, ShareMode::all()));
    }

    #[test]
    fn stale_slot_generation_reads_as_empty() {
        let mut reg = ShareRegistry::new();
        let old = ArenaHandle::from_parts(3, 1);
        assert!(reg.try_open(old, H1, AccessMode::Read, ShareMode::all()));
        reg.close(old, H1);
        // The slot is reused by a different file (generation bumped).
        let new = ArenaHandle::from_parts(3, 2);
        assert!(reg.compatible(new, AccessMode::Write, ShareMode::default()));
        assert_eq!(reg.openers(new), 0);
        assert!(reg.locks(new).is_none());
        assert!(reg.try_open(new, H2, AccessMode::Write, ShareMode::default()));
        // The old handle's view is dead too.
        assert_eq!(reg.openers(old), 0);
    }

    #[test]
    fn byte_range_locks() {
        let mut t = LockTable::new();
        assert!(t.lock(H1, 0, 100, false), "shared lock");
        assert!(t.lock(H2, 50, 100, false), "shared locks coexist");
        assert!(!t.lock(H2, 0, 10, true), "exclusive conflicts with shared");
        assert!(t.lock(H2, 200, 50, true), "non-overlapping exclusive ok");
        assert!(!t.lock(H1, 210, 5, false), "shared blocked by exclusive");
        assert!(t.read_allowed(H1, 0, 100));
        assert!(
            !t.read_allowed(H1, 200, 10),
            "other's exclusive blocks read"
        );
        assert!(!t.write_allowed(H1, 60, 10), "other's shared blocks write");
        assert!(t.write_allowed(H2, 200, 50), "own exclusive allows write");
        assert!(t.unlock(H2, 200, 50));
        assert!(!t.unlock(H2, 200, 50), "double unlock fails");
        assert_eq!(t.unlock_all(H1), 1);
        assert_eq!(t.len(), 1, "H2's shared lock remains");
    }

    #[test]
    fn zero_length_lock_rejected() {
        let mut t = LockTable::new();
        assert!(!t.lock(H1, 5, 0, true));
    }
}
