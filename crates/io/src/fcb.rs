//! The file control block table.
//!
//! Every open of the same on-disk file shares one FCB; the cache manager
//! and VM manager key their per-file state by [`FcbId`]. The table also
//! tracks handle counts so the machine knows when the last cleanup has
//! happened and delete-pending files can actually disappear (§8.1).
//!
//! Storage is a generational [`Arena`]: the dispatch path resolves FCBs
//! by slot handle in O(1) with no hashing, while the public [`FcbId`]
//! stays a monotonic counter — trace records carry it, and the analysis
//! digests depend on the exact id sequence a run produces.

use std::collections::BTreeMap;

use nt_fs::{NodeId, VolumeId};

use crate::arena::{Arena, ArenaHandle};
use crate::types::FcbId;

/// Per-FCB bookkeeping.
#[derive(Clone, Debug)]
pub struct Fcb {
    /// The monotonic trace-visible identity (§3.2's FCB field).
    pub id: FcbId,
    /// The file's identity.
    pub volume: VolumeId,
    /// The namespace node.
    pub node: NodeId,
    /// Open handles (post-cleanup handles excluded).
    pub handle_count: u32,
    /// File objects not yet closed (cleanup done, close IRP pending).
    pub object_count: u32,
    /// Delete requested; takes effect when the last handle cleans up.
    pub delete_pending: bool,
    /// Any handle ever wrote through this FCB.
    pub written: bool,
}

/// The FCB table of one machine. Slots are [`ArenaHandle`]s; stale
/// handles (FCB reclaimed, slot reused) never resolve.
#[derive(Default)]
pub struct FcbTable {
    by_file: BTreeMap<(VolumeId, NodeId), ArenaHandle>,
    fcbs: Arena<Fcb>,
    next: u64,
}

impl FcbTable {
    /// An empty table.
    pub fn new() -> Self {
        FcbTable::default()
    }

    /// Number of live FCBs.
    pub fn len(&self) -> usize {
        self.fcbs.len()
    }

    /// True when no FCBs are live.
    pub fn is_empty(&self) -> bool {
        self.fcbs.is_empty()
    }

    /// Returns the FCB for a file — slot and trace id — creating one on
    /// first open.
    pub fn open(&mut self, volume: VolumeId, node: NodeId) -> (ArenaHandle, FcbId) {
        let key = (volume, node);
        if let Some(&slot) = self.by_file.get(&key) {
            let fcb = self.fcbs.get_mut(slot).expect("indexed FCB exists");
            fcb.handle_count += 1;
            fcb.object_count += 1;
            return (slot, fcb.id);
        }
        let id = FcbId(self.next);
        self.next += 1;
        let slot = self.fcbs.insert(Fcb {
            id,
            volume,
            node,
            handle_count: 1,
            object_count: 1,
            delete_pending: false,
            written: false,
        });
        self.by_file.insert(key, slot);
        (slot, id)
    }

    /// Looks up a live FCB.
    pub fn get(&self, slot: ArenaHandle) -> Option<&Fcb> {
        self.fcbs.get(slot)
    }

    /// Mutable access to a live FCB.
    pub fn get_mut(&mut self, slot: ArenaHandle) -> Option<&mut Fcb> {
        self.fcbs.get_mut(slot)
    }

    /// Finds the FCB currently associated with a file, if any.
    pub fn find(&self, volume: VolumeId, node: NodeId) -> Option<ArenaHandle> {
        self.by_file.get(&(volume, node)).copied()
    }

    /// Handle cleanup: decrements the handle count. Returns `true` when
    /// this was the last handle (the point where delete-pending files are
    /// removed and the cache starts tearing down).
    pub fn cleanup(&mut self, slot: ArenaHandle) -> bool {
        let fcb = self.fcbs.get_mut(slot).expect("cleanup of a live FCB");
        debug_assert!(fcb.handle_count > 0);
        fcb.handle_count -= 1;
        fcb.handle_count == 0
    }

    /// Final close of one file object. When the last object goes away the
    /// FCB is reclaimed (its slot generation bumps); returns `true` in
    /// that case.
    pub fn close(&mut self, slot: ArenaHandle) -> bool {
        let Some(fcb) = self.fcbs.get_mut(slot) else {
            return false;
        };
        debug_assert!(fcb.object_count > 0);
        fcb.object_count -= 1;
        if fcb.object_count == 0 && fcb.handle_count == 0 {
            let key = (fcb.volume, fcb.node);
            self.fcbs.remove(slot);
            self.by_file.remove(&key);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_fs::{Volume, VolumeConfig};
    use nt_sim::SimTime;

    fn some_node() -> (VolumeId, NodeId) {
        let mut v = Volume::new(VolumeConfig::local_ntfs(1 << 20));
        let n = v.create_file(v.root(), "f", SimTime::ZERO).unwrap();
        (VolumeId(0), n)
    }

    #[test]
    fn opens_of_same_file_share_an_fcb() {
        let (vol, node) = some_node();
        let mut t = FcbTable::new();
        let (a, aid) = t.open(vol, node);
        let (b, bid) = t.open(vol, node);
        assert_eq!(a, b);
        assert_eq!(aid, bid);
        assert_eq!(t.get(a).unwrap().handle_count, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lifecycle_cleanup_then_close() {
        let (vol, node) = some_node();
        let mut t = FcbTable::new();
        let (slot, _) = t.open(vol, node);
        assert!(t.cleanup(slot), "last handle");
        assert!(t.get(slot).is_some(), "FCB survives until close");
        assert!(t.close(slot), "last object reclaims the FCB");
        assert!(t.get(slot).is_none());
        assert!(t.find(vol, node).is_none());
    }

    #[test]
    fn two_handles_interleaved() {
        let (vol, node) = some_node();
        let mut t = FcbTable::new();
        let (slot, _) = t.open(vol, node);
        t.open(vol, node);
        assert!(!t.cleanup(slot), "one handle remains");
        assert!(!t.close(slot));
        assert!(t.cleanup(slot));
        assert!(t.close(slot), "now the FCB dies");
    }

    #[test]
    fn new_fcb_after_reclaim() {
        let (vol, node) = some_node();
        let mut t = FcbTable::new();
        let (a, aid) = t.open(vol, node);
        t.cleanup(a);
        t.close(a);
        let (b, bid) = t.open(vol, node);
        assert_ne!(aid, bid, "a reopened file gets a fresh FCB id");
        assert!(t.get(a).is_none(), "the stale slot handle is dead");
        assert!(t.get(b).is_some());
    }
}
