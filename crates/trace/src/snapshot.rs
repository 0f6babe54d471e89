//! Daily file-system snapshots (§3.1) and the change analysis behind §5.
//!
//! "Each morning at 4 o'clock a thread is started by the trace agent
//! server to take a snapshot of the local file systems. It builds this
//! snapshot by recursively traversing the file system trees, producing a
//! sequence of records containing the attributes of each file and
//! directory in such a way that the original tree can be recovered from
//! the sequence."

use nt_fs::{Namespace, NodeKind, Volume, VolumeId};
use nt_sim::SimTime;

/// One record of the recursive walk.
#[derive(Clone, Debug, PartialEq)]
pub struct WalkRecord {
    /// Depth in the tree (root = 0); with pre-order sequencing this is
    /// enough to recover the tree.
    pub depth: usize,
    /// Full path (kept for the diff analysis; the study stored short
    /// names, which [`WalkRecord::extension`] reproduces).
    pub path: String,
    /// True for directories.
    pub is_dir: bool,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// Creation time, when the file system maintains it.
    pub creation: Option<SimTime>,
    /// Last access time, when maintained.
    pub last_access: Option<SimTime>,
    /// Last write time.
    pub last_write: SimTime,
    /// Directories: number of file children.
    pub n_files: u32,
    /// Directories: number of subdirectory children.
    pub n_subdirs: u32,
}

impl WalkRecord {
    /// The lower-cased extension, the study's "short form" of the name.
    pub fn extension(&self) -> Option<&str> {
        if self.is_dir {
            return None;
        }
        let name = self.path.rsplit('\\').next()?;
        let dot = name.rfind('.')?;
        if dot == 0 || dot + 1 == name.len() {
            None
        } else {
            Some(&name[dot + 1..])
        }
    }
}

/// A snapshot of one volume at a point in time.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The volume snapshotted.
    pub volume: VolumeId,
    /// When it was taken.
    pub taken_at: SimTime,
    /// Pre-order walk records.
    pub records: Vec<WalkRecord>,
}

impl Snapshot {
    /// Number of file records.
    pub fn file_count(&self) -> usize {
        self.records.iter().filter(|r| !r.is_dir).count()
    }

    /// Number of directory records (excluding the root).
    pub fn dir_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.is_dir && r.depth > 0)
            .count()
    }

    /// Total file bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size).sum()
    }

    /// Fraction of files whose last-change is newer than their last-access
    /// — the §5 timestamp-inconsistency measure (2–4 % in the study).
    pub fn inconsistent_time_fraction(&self) -> f64 {
        let files: Vec<_> = self
            .records
            .iter()
            .filter(|r| !r.is_dir && r.last_access.is_some())
            .collect();
        if files.is_empty() {
            return 0.0;
        }
        let bad = files
            .iter()
            .filter(|r| r.last_access.map(|a| r.last_write > a).unwrap_or(false))
            .count();
        bad as f64 / files.len() as f64
    }
}

/// The walker: produces [`Snapshot`]s from live volumes.
pub struct SnapshotWalker;

impl SnapshotWalker {
    /// Walks one volume.
    pub fn walk_volume(volume_id: VolumeId, volume: &Volume, now: SimTime) -> Snapshot {
        let mut records = Vec::new();
        let mut path_stack: Vec<String> = Vec::new();
        volume
            .walk(volume.root(), &mut |depth, _, node| {
                path_stack.truncate(depth.saturating_sub(1));
                if depth > 0 {
                    path_stack.push(node.name.clone());
                }
                let path = if path_stack.is_empty() {
                    "\\".to_string()
                } else {
                    format!("\\{}", path_stack.join("\\"))
                };
                match &node.kind {
                    NodeKind::File(meta) => records.push(WalkRecord {
                        depth,
                        path,
                        is_dir: false,
                        size: meta.size,
                        creation: node.times.creation,
                        last_access: node.times.last_access,
                        last_write: node.times.last_write,
                        n_files: 0,
                        n_subdirs: 0,
                    }),
                    NodeKind::Directory(_) => {
                        // Child counts need a second look at the node.
                        records.push(WalkRecord {
                            depth,
                            path,
                            is_dir: true,
                            size: 0,
                            creation: node.times.creation,
                            last_access: node.times.last_access,
                            last_write: node.times.last_write,
                            n_files: 0,
                            n_subdirs: 0,
                        });
                    }
                }
            })
            .expect("walking a live volume");
        // Fill directory child counts from the records themselves.
        let mut i = 0;
        while i < records.len() {
            if records[i].is_dir {
                let depth = records[i].depth;
                let mut files = 0;
                let mut dirs = 0;
                for r in records.iter().skip(i + 1) {
                    if r.depth <= depth {
                        break;
                    }
                    if r.depth == depth + 1 {
                        if r.is_dir {
                            dirs += 1;
                        } else {
                            files += 1;
                        }
                    }
                }
                records[i].n_files = files;
                records[i].n_subdirs = dirs;
            }
            i += 1;
        }
        Snapshot {
            volume: volume_id,
            taken_at: now,
            records,
        }
    }

    /// Walks every volume of a namespace.
    pub fn walk_namespace(ns: &Namespace, now: SimTime) -> Vec<Snapshot> {
        ns.volume_ids()
            .map(|id| Self::walk_volume(id, ns.volume(id).expect("listed volume"), now))
            .collect()
    }
}

/// The difference between two snapshots of the same volume — §5's daily
/// change analysis.
#[derive(Clone, Debug, Default)]
pub struct SnapshotDiff {
    /// Paths present only in the newer snapshot.
    pub added: Vec<String>,
    /// Paths present only in the older snapshot.
    pub removed: Vec<String>,
    /// Paths whose size or last-write changed.
    pub changed: Vec<String>,
}

impl SnapshotDiff {
    /// Computes the file-level diff (directories excluded).
    pub fn between(older: &Snapshot, newer: &Snapshot) -> SnapshotDiff {
        use std::collections::HashMap;
        let old: HashMap<&str, &WalkRecord> = older
            .records
            .iter()
            .filter(|r| !r.is_dir)
            .map(|r| (r.path.as_str(), r))
            .collect();
        let new: HashMap<&str, &WalkRecord> = newer
            .records
            .iter()
            .filter(|r| !r.is_dir)
            .map(|r| (r.path.as_str(), r))
            .collect();
        let mut diff = SnapshotDiff::default();
        for (path, rec) in &new {
            match old.get(path) {
                None => diff.added.push((*path).to_string()),
                Some(o) => {
                    if o.size != rec.size || o.last_write != rec.last_write {
                        diff.changed.push((*path).to_string());
                    }
                }
            }
        }
        for path in old.keys() {
            if !new.contains_key(path) {
                diff.removed.push((*path).to_string());
            }
        }
        diff.added.sort();
        diff.removed.sort();
        diff.changed.sort();
        diff
    }

    /// Total files touched (added + changed).
    pub fn churn(&self) -> usize {
        self.added.len() + self.changed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_fs::{Volume, VolumeConfig};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn build_volume() -> Volume {
        let mut v = Volume::new(VolumeConfig::local_ntfs(1 << 30));
        let root = v.root();
        let winnt = v.mkdir(root, "winnt", t(1)).unwrap();
        let profiles = v.mkdir(winnt, "profiles", t(1)).unwrap();
        let alice = v.mkdir(profiles, "alice", t(1)).unwrap();
        let f1 = v.create_file(alice, "ntuser.dat", t(1)).unwrap();
        v.set_file_size(f1, 24_576, t(1)).unwrap();
        let f2 = v.create_file(root, "boot.ini", t(1)).unwrap();
        v.set_file_size(f2, 512, t(1)).unwrap();
        v
    }

    #[test]
    fn walk_is_preorder_and_recoverable() {
        let v = build_volume();
        let snap = SnapshotWalker::walk_volume(VolumeId(0), &v, t(2));
        let paths: Vec<&str> = snap.records.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "\\",
                r"\boot.ini",
                r"\winnt",
                r"\winnt\profiles",
                r"\winnt\profiles\alice",
                r"\winnt\profiles\alice\ntuser.dat",
            ]
        );
        // Depth sequence allows tree recovery: each record's depth is at
        // most one more than its predecessor's.
        for w in snap.records.windows(2) {
            assert!(w[1].depth <= w[0].depth + 1);
        }
        assert_eq!(snap.file_count(), 2);
        assert_eq!(snap.dir_count(), 3);
        assert_eq!(snap.total_bytes(), 25_088);
    }

    #[test]
    fn directory_child_counts() {
        let v = build_volume();
        let snap = SnapshotWalker::walk_volume(VolumeId(0), &v, t(2));
        let root = &snap.records[0];
        assert_eq!(root.n_files, 1, "boot.ini");
        assert_eq!(root.n_subdirs, 1, "winnt");
        let alice = snap
            .records
            .iter()
            .find(|r| r.path == r"\winnt\profiles\alice")
            .unwrap();
        assert_eq!(alice.n_files, 1);
        assert_eq!(alice.n_subdirs, 0);
    }

    #[test]
    fn diff_detects_adds_changes_removes() {
        let mut v = build_volume();
        let before = SnapshotWalker::walk_volume(VolumeId(0), &v, t(2));
        // Change ntuser.dat, add cookie.txt, remove boot.ini.
        let alice = v
            .lookup(&nt_fs::NtPath::parse(r"\winnt\profiles\alice"))
            .unwrap();
        let nt = v
            .lookup(&nt_fs::NtPath::parse(r"\winnt\profiles\alice\ntuser.dat"))
            .unwrap();
        v.set_file_size(nt, 30_000, t(100)).unwrap();
        v.create_file(alice, "cookie.txt", t(100)).unwrap();
        let boot = v.lookup(&nt_fs::NtPath::parse(r"\boot.ini")).unwrap();
        v.remove(boot, t(100)).unwrap();
        let after = SnapshotWalker::walk_volume(VolumeId(0), &v, t(200));
        let diff = SnapshotDiff::between(&before, &after);
        assert_eq!(diff.added, vec![r"\winnt\profiles\alice\cookie.txt"]);
        assert_eq!(diff.changed, vec![r"\winnt\profiles\alice\ntuser.dat"]);
        assert_eq!(diff.removed, vec![r"\boot.ini"]);
        assert_eq!(diff.churn(), 2);
    }

    #[test]
    fn extension_short_form() {
        let v = build_volume();
        let snap = SnapshotWalker::walk_volume(VolumeId(0), &v, t(2));
        let exts: Vec<Option<&str>> = snap
            .records
            .iter()
            .filter(|r| !r.is_dir)
            .map(|r| r.extension())
            .collect();
        assert_eq!(exts, vec![Some("ini"), Some("dat")]);
    }

    #[test]
    fn namespace_walk_covers_all_volumes() {
        let mut ns = Namespace::new();
        ns.mount_local('C', VolumeConfig::local_ntfs(1 << 20));
        ns.mount_share("srv", "home", VolumeConfig::local_ntfs(1 << 20));
        let snaps = SnapshotWalker::walk_namespace(&ns, t(1));
        assert_eq!(snaps.len(), 2);
    }
}
