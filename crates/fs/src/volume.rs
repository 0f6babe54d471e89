//! A single file-system volume: the namespace tree plus capacity accounting.

use nt_sim::SimTime;

use crate::attrs::{FileAttributes, FileTimes};
use crate::error::{FsError, FsResult};
use crate::node::{DirMeta, FileMeta, Node, NodeId, NodeKind};
use crate::path::NtPath;

/// The on-disk format of a volume, with the semantic differences the study
/// depends on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FsKind {
    /// FAT16/FAT32: does not maintain creation or last-access times (§3.1);
    /// large default cluster size.
    Fat,
    /// NTFS: maintains all three times; 4 KB clusters.
    Ntfs,
}

impl FsKind {
    /// Whether creation and last-access timestamps are maintained.
    pub(crate) fn maintains_all_times(self) -> bool {
        matches!(self, FsKind::Ntfs)
    }

    /// Default cluster size in bytes.
    pub(crate) fn default_cluster_size(self) -> u64 {
        match self {
            FsKind::Fat => 16_384,
            FsKind::Ntfs => 4_096,
        }
    }
}

/// Static configuration of a volume.
#[derive(Clone, Debug)]
pub struct VolumeConfig {
    /// Format.
    pub kind: FsKind,
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Allocation granularity in bytes.
    pub cluster_size: u64,
}

impl VolumeConfig {
    /// A local NTFS volume of the given capacity.
    pub fn local_ntfs(capacity: u64) -> Self {
        VolumeConfig {
            kind: FsKind::Ntfs,
            capacity,
            cluster_size: FsKind::Ntfs.default_cluster_size(),
        }
    }

    /// A local FAT volume of the given capacity.
    pub fn local_fat(capacity: u64) -> Self {
        VolumeConfig {
            kind: FsKind::Fat,
            capacity,
            cluster_size: FsKind::Fat.default_cluster_size(),
        }
    }
}

/// Aggregate statistics, as collected by the §5 snapshot analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VolumeStats {
    /// Number of regular files.
    pub files: u64,
    /// Number of directories (excluding the root).
    pub directories: u64,
    /// Sum of file sizes in bytes.
    pub used_bytes: u64,
    /// Sum of allocations in bytes (cluster-rounded).
    pub allocated_bytes: u64,
    /// Capacity in bytes.
    pub capacity: u64,
}

impl VolumeStats {
    /// Fraction of capacity allocated, in [0, 1].
    pub fn fullness(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.allocated_bytes as f64 / self.capacity as f64
        }
    }
}

enum Slot {
    Occupied {
        generation: u32,
        node: Node,
    },
    Free {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// A simulated volume.
///
/// All mutating operations take the current [`SimTime`] and apply the
/// timestamp-maintenance rules of the volume's [`FsKind`].
pub struct Volume {
    config: VolumeConfig,
    slots: Vec<Slot>,
    free_head: Option<u32>,
    root: NodeId,
    stats: VolumeStats,
}

impl Volume {
    /// Creates an empty volume with a root directory.
    pub fn new(config: VolumeConfig) -> Self {
        let root_node = Node {
            name: String::new(),
            parent: None,
            times: FileTimes::at_creation(SimTime::ZERO, config.kind.maintains_all_times()),
            kind: NodeKind::Directory(DirMeta::default()),
        };
        let capacity = config.capacity;
        Volume {
            config,
            slots: vec![Slot::Occupied {
                generation: 0,
                node: root_node,
            }],
            free_head: None,
            root: NodeId {
                index: 0,
                generation: 0,
            },
            stats: VolumeStats {
                capacity,
                ..VolumeStats::default()
            },
        }
    }

    /// The volume's configuration.
    pub fn config(&self) -> &VolumeConfig {
        &self.config
    }

    /// The root directory.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> VolumeStats {
        self.stats
    }

    fn alloc_slot(&mut self, node: Node) -> NodeId {
        if let Some(index) = self.free_head {
            let slot = &mut self.slots[index as usize];
            let Slot::Free {
                generation,
                next_free,
            } = *slot
            else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next_free;
            let generation = generation.wrapping_add(1);
            *slot = Slot::Occupied { generation, node };
            NodeId { index, generation }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot::Occupied {
                generation: 0,
                node,
            });
            NodeId {
                index,
                generation: 0,
            }
        }
    }

    fn free_slot(&mut self, id: NodeId) {
        let slot = &mut self.slots[id.index as usize];
        debug_assert!(
            matches!(slot, Slot::Occupied { generation, .. } if *generation == id.generation)
        );
        *slot = Slot::Free {
            generation: id.generation,
            next_free: self.free_head,
        };
        self.free_head = Some(id.index);
    }

    /// Resolves a node handle, failing on stale ids.
    pub fn node(&self, id: NodeId) -> FsResult<&Node> {
        match self.slots.get(id.index as usize) {
            Some(Slot::Occupied { generation, node }) if *generation == id.generation => Ok(node),
            _ => Err(FsError::StaleNode),
        }
    }

    fn node_mut(&mut self, id: NodeId) -> FsResult<&mut Node> {
        match self.slots.get_mut(id.index as usize) {
            Some(Slot::Occupied { generation, node }) if *generation == id.generation => Ok(node),
            _ => Err(FsError::StaleNode),
        }
    }

    /// Looks up a child by (case-insensitive) name in a directory.
    pub fn child(&self, dir: NodeId, name: &str) -> FsResult<NodeId> {
        self.child_by_key(dir, &name.to_ascii_lowercase())
    }

    /// Looks up a child by its stored, already lower-cased key, such as
    /// an [`NtPath`] component.
    fn child_by_key(&self, dir: NodeId, key: &str) -> FsResult<NodeId> {
        let node = self.node(dir)?;
        let d = node.dir().ok_or(FsError::NotADirectory)?;
        d.children.get(key).copied().ok_or(FsError::NotFound)
    }

    /// Resolves an absolute path to a node.
    pub fn lookup(&self, path: &NtPath) -> FsResult<NodeId> {
        let mut cur = self.root;
        for comp in path.components() {
            cur = self.child_by_key(cur, comp)?;
        }
        Ok(cur)
    }

    /// Creates a subdirectory.
    pub fn mkdir(&mut self, parent: NodeId, name: &str, now: SimTime) -> FsResult<NodeId> {
        let lname = name.to_ascii_lowercase();
        {
            let p = self.node(parent)?;
            let d = p.dir().ok_or(FsError::NotADirectory)?;
            if d.children.contains_key(&lname) {
                return Err(FsError::AlreadyExists);
            }
        }
        let node = Node {
            name: lname.clone(),
            parent: Some(parent),
            times: FileTimes::at_creation(now, self.config.kind.maintains_all_times()),
            kind: NodeKind::Directory(DirMeta::default()),
        };
        let id = self.alloc_slot(node);
        self.link_child(parent, lname, id, now)?;
        self.stats.directories += 1;
        Ok(id)
    }

    /// Creates every missing directory along `path`, returning the final one.
    pub fn mkdir_all(&mut self, path: &NtPath, now: SimTime) -> FsResult<NodeId> {
        let mut cur = self.root;
        for comp in path.components() {
            cur = match self.child_by_key(cur, comp) {
                Ok(id) => {
                    if !self.node(id)?.kind.is_directory() {
                        return Err(FsError::NotADirectory);
                    }
                    id
                }
                Err(FsError::NotFound) => self.mkdir(cur, comp, now)?,
                Err(e) => return Err(e),
            };
        }
        Ok(cur)
    }

    /// Creates an empty file in `parent`. Fails with [`FsError::AlreadyExists`]
    /// when the name is taken.
    pub fn create_file(&mut self, parent: NodeId, name: &str, now: SimTime) -> FsResult<NodeId> {
        self.create_file_with(parent, name, FileAttributes::empty(), now)
    }

    /// Creates an empty file with explicit attributes.
    pub(crate) fn create_file_with(
        &mut self,
        parent: NodeId,
        name: &str,
        attributes: FileAttributes,
        now: SimTime,
    ) -> FsResult<NodeId> {
        let lname = name.to_ascii_lowercase();
        {
            let p = self.node(parent)?;
            let d = p.dir().ok_or(FsError::NotADirectory)?;
            if d.children.contains_key(&lname) {
                return Err(FsError::AlreadyExists);
            }
        }
        let node = Node {
            name: lname.clone(),
            parent: Some(parent),
            times: FileTimes::at_creation(now, self.config.kind.maintains_all_times()),
            kind: NodeKind::File(FileMeta {
                attributes,
                ..FileMeta::default()
            }),
        };
        let id = self.alloc_slot(node);
        self.link_child(parent, lname, id, now)?;
        self.stats.files += 1;
        Ok(id)
    }

    fn link_child(
        &mut self,
        parent: NodeId,
        lname: String,
        child: NodeId,
        now: SimTime,
    ) -> FsResult<()> {
        let p = self.node_mut(parent)?;
        p.times.last_write = now;
        match &mut p.kind {
            NodeKind::Directory(d) => {
                d.children.insert(lname, child);
                Ok(())
            }
            NodeKind::File(_) => Err(FsError::NotADirectory),
        }
    }

    /// Removes a file, or an empty directory.
    pub fn remove(&mut self, id: NodeId, now: SimTime) -> FsResult<()> {
        if id == self.root {
            return Err(FsError::InvalidOperation);
        }
        let (parent, name, is_file, size, allocation) = {
            let node = self.node(id)?;
            if let Some(d) = node.dir() {
                if !d.is_empty() {
                    return Err(FsError::DirectoryNotEmpty);
                }
            }
            (
                node.parent.expect("non-root node has a parent"),
                node.name.clone(),
                node.kind.is_file(),
                node.file().map_or(0, |f| f.size),
                node.file().map_or(0, |f| f.allocation),
            )
        };
        let p = self.node_mut(parent)?;
        p.times.last_write = now;
        match &mut p.kind {
            NodeKind::Directory(d) => {
                d.children.remove(&name);
            }
            NodeKind::File(_) => unreachable!("parent is always a directory"),
        }
        self.free_slot(id);
        if is_file {
            self.stats.files -= 1;
            self.stats.used_bytes -= size;
            self.stats.allocated_bytes -= allocation;
        } else {
            self.stats.directories -= 1;
        }
        Ok(())
    }

    /// Renames / moves a node within the volume.
    pub fn rename(
        &mut self,
        id: NodeId,
        new_parent: NodeId,
        new_name: &str,
        now: SimTime,
    ) -> FsResult<()> {
        if id == self.root {
            return Err(FsError::InvalidOperation);
        }
        let lname = new_name.to_ascii_lowercase();
        {
            let np = self.node(new_parent)?;
            let d = np.dir().ok_or(FsError::NotADirectory)?;
            // Names compare without case, so a rename onto the node's own
            // name, or one that changes only its case, finds the node
            // itself; NT accepts both.
            if d.children.get(&lname).is_some_and(|&other| other != id) {
                return Err(FsError::AlreadyExists);
            }
        }
        // A directory moved under itself would leave the tree as a cycle
        // that no walk or lookup from the root reaches; NT refuses it.
        let mut ancestor = Some(new_parent);
        while let Some(a) = ancestor {
            if a == id {
                return Err(FsError::InvalidOperation);
            }
            ancestor = self.node(a)?.parent;
        }
        let (old_parent, old_name) = {
            let node = self.node(id)?;
            (
                node.parent.expect("non-root node has a parent"),
                node.name.clone(),
            )
        };
        {
            let p = self.node_mut(old_parent)?;
            p.times.last_write = now;
            if let NodeKind::Directory(d) = &mut p.kind {
                d.children.remove(&old_name);
            }
        }
        self.link_child(new_parent, lname.clone(), id, now)?;
        let node = self.node_mut(id)?;
        node.parent = Some(new_parent);
        node.name = lname;
        node.times.last_write = now;
        Ok(())
    }

    fn clusters_for(&self, size: u64) -> u64 {
        let c = self.config.cluster_size.max(1);
        size.div_ceil(c) * c
    }

    /// Sets a file's size (SetEndOfFile / truncation / extension).
    pub fn set_file_size(&mut self, id: NodeId, size: u64, now: SimTime) -> FsResult<()> {
        let new_alloc = self.clusters_for(size);
        let (old_size, old_alloc) = {
            let node = self.node(id)?;
            let f = node.file().ok_or(FsError::IsADirectory)?;
            (f.size, f.allocation)
        };
        let grows = new_alloc.saturating_sub(old_alloc);
        if grows > 0 && self.stats.allocated_bytes + grows > self.config.capacity {
            return Err(FsError::VolumeFull);
        }
        let node = self.node_mut(id)?;
        let f = node.file_mut().expect("checked above");
        f.size = size;
        f.valid_data_length = f.valid_data_length.min(size);
        f.allocation = new_alloc;
        node.times.last_write = now;
        self.stats.used_bytes = self.stats.used_bytes - old_size + size;
        self.stats.allocated_bytes = self.stats.allocated_bytes - old_alloc + new_alloc;
        Ok(())
    }

    /// Records a write of `len` bytes at `offset`, extending the file as a
    /// real write would, and advancing the valid-data length.
    pub fn note_write(&mut self, id: NodeId, offset: u64, len: u64, now: SimTime) -> FsResult<()> {
        let end = offset + len;
        let cur = self.file_size(id)?;
        if end > cur {
            self.set_file_size(id, end, now)?;
        }
        let node = self.node_mut(id)?;
        let f = node.file_mut().ok_or(FsError::IsADirectory)?;
        f.valid_data_length = f.valid_data_length.max(end);
        node.times.last_write = now;
        Ok(())
    }

    /// Records a read access, maintaining last-access where the format does.
    pub fn note_read(&mut self, id: NodeId, now: SimTime) -> FsResult<()> {
        let maintains = self.config.kind.maintains_all_times();
        let node = self.node_mut(id)?;
        if maintains {
            node.times.last_access = Some(now);
        }
        Ok(())
    }

    /// Current size of a file.
    pub fn file_size(&self, id: NodeId) -> FsResult<u64> {
        self.node(id)?
            .file()
            .map(|f| f.size)
            .ok_or(FsError::IsADirectory)
    }

    /// Truncates a file to zero, counting it as an overwrite (§6.3's
    /// "delete by truncation" case).
    pub fn overwrite(&mut self, id: NodeId, now: SimTime) -> FsResult<()> {
        self.set_file_size(id, 0, now)?;
        let maintains = self.config.kind.maintains_all_times();
        let node = self.node_mut(id)?;
        let f = node.file_mut().ok_or(FsError::IsADirectory)?;
        f.overwrite_count += 1;
        if maintains {
            // An overwrite re-creates the file in place; NT resets the
            // creation time under OVERWRITE/SUPERSEDE dispositions.
            node.times.creation = Some(now);
        }
        node.times.last_write = now;
        Ok(())
    }

    /// Marks/unmarks a file delete-pending (delete-on-close disposition).
    pub fn set_delete_pending(&mut self, id: NodeId, pending: bool) -> FsResult<()> {
        let node = self.node_mut(id)?;
        let f = node.file_mut().ok_or(FsError::IsADirectory)?;
        f.delete_pending = pending;
        Ok(())
    }

    /// Replaces a file's attribute flags.
    pub fn set_attributes(&mut self, id: NodeId, attributes: FileAttributes) -> FsResult<()> {
        let node = self.node_mut(id)?;
        let f = node.file_mut().ok_or(FsError::IsADirectory)?;
        f.attributes = attributes;
        Ok(())
    }

    /// Overrides a file's timestamps (what installers do, making creation
    /// times unreliable — §5).
    pub fn set_times(&mut self, id: NodeId, times: FileTimes) -> FsResult<()> {
        let maintains = self.config.kind.maintains_all_times();
        let node = self.node_mut(id)?;
        node.times = FileTimes {
            creation: if maintains { times.creation } else { None },
            last_access: if maintains { times.last_access } else { None },
            last_write: times.last_write,
        };
        Ok(())
    }

    /// Enumerates a directory's children in sorted-name order.
    pub fn read_dir(&self, dir: NodeId) -> FsResult<Vec<(String, NodeId)>> {
        let node = self.node(dir)?;
        let d = node.dir().ok_or(FsError::NotADirectory)?;
        Ok(d.children.iter().map(|(n, id)| (n.clone(), *id)).collect())
    }

    /// Depth-first pre-order walk from `start`, calling `visit` with each
    /// node's depth, id and node. Used by the snapshot walker (§3.1).
    pub fn walk<F>(&self, start: NodeId, visit: &mut F) -> FsResult<()>
    where
        F: FnMut(usize, NodeId, &Node),
    {
        self.walk_inner(start, 0, visit)
    }

    fn walk_inner<F>(&self, id: NodeId, depth: usize, visit: &mut F) -> FsResult<()>
    where
        F: FnMut(usize, NodeId, &Node),
    {
        let node = self.node(id)?;
        visit(depth, id, node);
        if let NodeKind::Directory(d) = &node.kind {
            for &child in d.children.values() {
                self.walk_inner(child, depth + 1, visit)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vol() -> Volume {
        Volume::new(VolumeConfig::local_ntfs(1 << 30))
    }

    const T1: SimTime = SimTime::from_secs(1);
    const T2: SimTime = SimTime::from_secs(2);

    #[test]
    fn create_lookup_roundtrip() {
        let mut v = vol();
        let d = v.mkdir_all(&NtPath::parse(r"\a\b"), T1).unwrap();
        let f = v.create_file(d, "X.TXT", T1).unwrap();
        assert_eq!(v.lookup(&NtPath::parse(r"\A\B\x.txt")).unwrap(), f);
        assert_eq!(v.child(d, "X.txt").unwrap(), f);
        assert_eq!(v.stats().files, 1);
        assert_eq!(v.stats().directories, 2);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut v = vol();
        let root = v.root();
        v.create_file(root, "f", T1).unwrap();
        assert_eq!(v.create_file(root, "F", T1), Err(FsError::AlreadyExists));
        assert_eq!(v.mkdir(root, "f", T1), Err(FsError::AlreadyExists));
    }

    #[test]
    fn lookup_missing_is_not_found() {
        let v = vol();
        assert_eq!(v.lookup(&NtPath::parse(r"\nope")), Err(FsError::NotFound));
    }

    #[test]
    fn size_and_allocation_accounting() {
        let mut v = vol();
        let f = v.create_file(v.root(), "f.dat", T1).unwrap();
        v.set_file_size(f, 5_000, T1).unwrap();
        // NTFS clusters are 4 KB: 5000 bytes → 8192 allocated.
        assert_eq!(v.stats().used_bytes, 5_000);
        assert_eq!(v.stats().allocated_bytes, 8_192);
        v.set_file_size(f, 100, T2).unwrap();
        assert_eq!(v.stats().used_bytes, 100);
        assert_eq!(v.stats().allocated_bytes, 4_096);
        assert!(v.stats().fullness() > 0.0);
    }

    #[test]
    fn volume_full() {
        let mut v = Volume::new(VolumeConfig::local_ntfs(8_192));
        let f = v.create_file(v.root(), "f", T1).unwrap();
        assert_eq!(v.set_file_size(f, 10_000, T1), Err(FsError::VolumeFull));
        v.set_file_size(f, 8_192, T1).unwrap();
    }

    #[test]
    fn remove_updates_stats_and_invalidates_handles() {
        let mut v = vol();
        let f = v.create_file(v.root(), "f", T1).unwrap();
        v.set_file_size(f, 4_096, T1).unwrap();
        v.remove(f, T2).unwrap();
        assert_eq!(v.stats().files, 0);
        assert_eq!(v.stats().used_bytes, 0);
        assert_eq!(v.node(f).unwrap_err(), FsError::StaleNode);
        // Slot reuse must not resurrect the old handle.
        let g = v.create_file(v.root(), "g", T2).unwrap();
        assert_ne!(f, g);
        assert_eq!(v.node(f).unwrap_err(), FsError::StaleNode);
        assert!(v.node(g).is_ok());
    }

    #[test]
    fn remove_nonempty_dir_fails() {
        let mut v = vol();
        let d = v.mkdir(v.root(), "d", T1).unwrap();
        v.create_file(d, "f", T1).unwrap();
        assert_eq!(v.remove(d, T2), Err(FsError::DirectoryNotEmpty));
    }

    #[test]
    fn rename_moves_nodes() {
        let mut v = vol();
        let d1 = v.mkdir(v.root(), "d1", T1).unwrap();
        let d2 = v.mkdir(v.root(), "d2", T1).unwrap();
        let f = v.create_file(d1, "old", T1).unwrap();
        v.rename(f, d2, "new.txt", T2).unwrap();
        assert_eq!(v.lookup(&NtPath::parse(r"\d2\new.txt")).unwrap(), f);
        assert_eq!(v.lookup(&NtPath::parse(r"\d1\old")), Err(FsError::NotFound));
        assert_eq!(v.node(f).unwrap().extension(), Some("txt"));
    }

    #[test]
    fn rename_collision_fails() {
        let mut v = vol();
        let f = v.create_file(v.root(), "a", T1).unwrap();
        v.create_file(v.root(), "b", T1).unwrap();
        assert_eq!(v.rename(f, v.root(), "B", T2), Err(FsError::AlreadyExists));
    }

    #[test]
    fn case_only_rename_keeps_the_node() {
        let mut v = vol();
        let d = v.mkdir(v.root(), "docs", T1).unwrap();
        let f = v.create_file(d, "Report.DOC", T1).unwrap();
        v.create_file(d, "notes.txt", T1).unwrap();
        let stats = v.stats();
        for name in ["report.doc", "REPORT.doc"] {
            assert_eq!(v.rename(f, d, name, T2), Ok(()));
            assert_eq!(v.lookup(&NtPath::parse(r"\docs\report.doc")), Ok(f));
            assert_eq!(v.stats(), stats);
        }
        // A sibling's name is still taken, in any case.
        for name in ["notes.txt", "NOTES.TXT", "Notes.Txt"] {
            assert_eq!(v.rename(f, d, name, T2), Err(FsError::AlreadyExists));
        }
        assert_eq!(v.lookup(&NtPath::parse(r"\docs\report.doc")), Ok(f));
    }

    #[test]
    fn rename_into_own_subtree_is_refused() {
        let mut v = vol();
        let a = v.mkdir(v.root(), "a", T1).unwrap();
        let b = v.mkdir(a, "b", T1).unwrap();
        v.create_file(b, "f", T1).unwrap();
        let tree = |v: &Volume| {
            let mut nodes = Vec::new();
            v.walk(v.root(), &mut |depth, id, node| {
                nodes.push((depth, id, format!("{node:?}")));
            })
            .unwrap();
            nodes
        };
        let before = tree(&v);
        let stats = v.stats();
        // `\a` into `\a\b`, then `\a` into itself.
        for new_parent in [b, a] {
            assert_eq!(
                v.rename(a, new_parent, "a", T2),
                Err(FsError::InvalidOperation)
            );
            assert_eq!(tree(&v), before);
            assert_eq!(v.stats(), stats);
            assert_eq!(v.lookup(&NtPath::parse(r"\a")), Ok(a));
            assert!(v.lookup(&NtPath::parse(r"\a\b\f")).is_ok());
        }
        // Moving a directory up out of its parent is still allowed.
        v.rename(b, v.root(), "b", T2).unwrap();
        assert_eq!(v.lookup(&NtPath::parse(r"\b")), Ok(b));
    }

    #[test]
    fn note_write_extends_and_tracks_vdl() {
        let mut v = vol();
        let f = v.create_file(v.root(), "f", T1).unwrap();
        v.note_write(f, 0, 100, T1).unwrap();
        v.note_write(f, 4_000, 96, T2).unwrap();
        let meta = v.node(f).unwrap().file().unwrap().clone();
        assert_eq!(meta.size, 4_096);
        assert_eq!(meta.valid_data_length, 4_096);
        assert_eq!(v.node(f).unwrap().times.last_write, T2);
    }

    #[test]
    fn fat_semantics_drop_creation_and_access_times() {
        let mut v = Volume::new(VolumeConfig::local_fat(1 << 30));
        let f = v.create_file(v.root(), "f", T1).unwrap();
        let times = v.node(f).unwrap().times;
        assert_eq!(times.creation, None);
        assert_eq!(times.last_access, None);
        v.note_read(f, T2).unwrap();
        assert_eq!(v.node(f).unwrap().times.last_access, None);
    }

    #[test]
    fn ntfs_overwrite_resets_creation_time() {
        let mut v = vol();
        let f = v.create_file(v.root(), "f", T1).unwrap();
        v.set_file_size(f, 1_000, T1).unwrap();
        v.overwrite(f, T2).unwrap();
        let node = v.node(f).unwrap();
        assert_eq!(node.times.creation, Some(T2));
        assert_eq!(node.file().unwrap().size, 0);
        assert_eq!(node.file().unwrap().overwrite_count, 1);
    }

    #[test]
    fn walk_visits_in_depth_first_order() {
        let mut v = vol();
        let a = v.mkdir(v.root(), "a", T1).unwrap();
        v.create_file(a, "f1", T1).unwrap();
        v.mkdir(a, "sub", T1).unwrap();
        v.create_file(v.root(), "top", T1).unwrap();
        let mut names = Vec::new();
        v.walk(v.root(), &mut |depth, _, node| {
            names.push((depth, node.name.clone()));
        })
        .unwrap();
        assert_eq!(
            names,
            vec![
                (0, String::new()),
                (1, "a".into()),
                (2, "f1".into()),
                (2, "sub".into()),
                (1, "top".into()),
            ]
        );
    }

    #[test]
    fn set_times_respects_fat() {
        let mut v = Volume::new(VolumeConfig::local_fat(1 << 20));
        let f = v.create_file(v.root(), "f", T1).unwrap();
        v.set_times(
            f,
            FileTimes {
                creation: Some(T2),
                last_access: Some(T2),
                last_write: T2,
            },
        )
        .unwrap();
        let times = v.node(f).unwrap().times;
        assert_eq!(times.creation, None, "FAT drops creation time");
        assert_eq!(times.last_write, T2);
    }
}
