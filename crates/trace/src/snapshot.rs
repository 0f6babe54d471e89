//! Daily file-system snapshots (§3.1) and the change analysis behind §5.
//!
//! "Each morning at 4 o'clock a thread is started by the trace agent
//! server to take a snapshot of the local file systems. It builds this
//! snapshot by recursively traversing the file system trees, producing a
//! sequence of records containing the attributes of each file and
//! directory in such a way that the original tree can be recovered from
//! the sequence."

use nt_fs::{NodeKind, Volume, VolumeId};
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
        let mut snapshot = Snapshot {
            volume: volume_id,
            taken_at: now,
            records: Vec::new(),
        };
        Self::rewalk(&mut snapshot, volume, now);
        snapshot
    }

    /// Re-takes `snapshot` of `volume` at `now`, in place and in one pass.
    /// Records are overwritten in walk order, each keeping its `path`
    /// buffer, then the list grows or shrinks to the tree's size, so the
    /// result equals a fresh [`SnapshotWalker::walk_volume`].
    pub fn rewalk(snapshot: &mut Snapshot, volume: &Volume, now: SimTime) {
        let records = &mut snapshot.records;
        let mut len = 0;
        // The path of the node being visited ("" at the root), and for
        // each directory on the way down to it the index of its record
        // and the length of its path.
        let mut path = String::new();
        let mut open: Vec<(usize, usize)> = Vec::new();
        volume
            .walk(volume.root(), &mut |depth, _, node| {
                open.truncate(depth);
                let (is_dir, size) = match &node.kind {
                    NodeKind::File(meta) => (false, meta.size),
                    NodeKind::Directory(_) => (true, 0),
                };
                if let Some(&(parent, parent_len)) = open.last() {
                    path.truncate(parent_len);
                    path.push('\\');
                    path.push_str(&node.name);
                    let parent = &mut records[parent];
                    if is_dir {
                        parent.n_subdirs += 1;
                    } else {
                        parent.n_files += 1;
                    }
                }
                if is_dir {
                    open.push((len, path.len()));
                }
                let shown = if depth == 0 { "\\" } else { path.as_str() };
                let record = WalkRecord {
                    depth,
                    path: String::new(),
                    is_dir,
                    size,
                    creation: node.times.creation,
                    last_access: node.times.last_access,
                    last_write: node.times.last_write,
                    n_files: 0,
                    n_subdirs: 0,
                };
                match records.get_mut(len) {
                    Some(slot) => {
                        let mut buf = std::mem::replace(slot, record).path;
                        buf.clear();
                        buf.push_str(shown);
                        slot.path = buf;
                    }
                    None => records.push(WalkRecord {
                        path: shown.to_owned(),
                        ..record
                    }),
                }
                len += 1;
            })
            .expect("walking a live volume");
        records.truncate(len);
        snapshot.taken_at = now;
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
    use nt_fs::{NodeId, Volume, VolumeConfig};
    use proptest::prelude::*;

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

    /// The reference walk: plain [`Volume::read_dir`] recursion, sharing
    /// no code with the walker.
    fn reference_walk(v: &Volume, dir: NodeId, path: &str, depth: usize) -> Vec<WalkRecord> {
        let node = v.node(dir).unwrap();
        let children: Vec<_> = v.read_dir(dir).unwrap().collect();
        let n_subdirs = children
            .iter()
            .filter(|(_, id)| v.node(*id).unwrap().dir().is_some())
            .count();
        let mut out = vec![WalkRecord {
            depth,
            path: if depth == 0 { "\\".into() } else { path.into() },
            is_dir: true,
            size: 0,
            creation: node.times.creation,
            last_access: node.times.last_access,
            last_write: node.times.last_write,
            n_files: (children.len() - n_subdirs) as u32,
            n_subdirs: n_subdirs as u32,
        }];
        for (name, id) in children {
            let child_path = format!("{path}\\{name}");
            let child = v.node(id).unwrap();
            match child.file() {
                Some(meta) => out.push(WalkRecord {
                    depth: depth + 1,
                    path: child_path,
                    is_dir: false,
                    size: meta.size,
                    creation: child.times.creation,
                    last_access: child.times.last_access,
                    last_write: child.times.last_write,
                    n_files: 0,
                    n_subdirs: 0,
                }),
                None => out.extend(reference_walk(v, id, &child_path, depth + 1)),
            }
        }
        out
    }

    /// Every directory with its depth, and every file, in walk order.
    fn live_nodes(v: &Volume) -> (Vec<(NodeId, usize)>, Vec<NodeId>) {
        fn visit(
            v: &Volume,
            dir: NodeId,
            depth: usize,
            nodes: &mut (Vec<(NodeId, usize)>, Vec<NodeId>),
        ) {
            nodes.0.push((dir, depth));
            for (_, id) in v.read_dir(dir).unwrap() {
                if v.node(id).unwrap().dir().is_some() {
                    visit(v, id, depth + 1, nodes);
                } else {
                    nodes.1.push(id);
                }
            }
        }
        let mut nodes = (Vec::new(), Vec::new());
        visit(v, v.root(), 0, &mut nodes);
        nodes
    }

    fn remove_tree(v: &mut Volume, id: NodeId, now: SimTime) {
        if v.node(id).unwrap().dir().is_some() {
            let children: Vec<_> = v.read_dir(id).unwrap().map(|(_, c)| c).collect();
            for child in children {
                remove_tree(v, child, now);
            }
        }
        v.remove(id, now).unwrap();
    }

    /// Kinds 0–1 grow the tree, 2–3 move and resize, 4–5 shrink it.
    /// `pick` and `arg` choose the node, the target and the name or size.
    fn apply(v: &mut Volume, (kind, pick, arg): (u8, u32, u32), now: SimTime) {
        let (dirs, files) = live_nodes(v);
        let (dir, depth) = dirs[pick as usize % dirs.len()];
        let file = (!files.is_empty()).then(|| files[pick as usize % files.len()]);
        // Failures (a name already taken) leave the tree as it was.
        let _ = match kind {
            0 if depth < 4 => v.mkdir(dir, &format!("d{}", arg % 6), now).map(drop),
            1 => v
                .create_file(dir, &format!("F{}.Txt", arg % 9), now)
                .map(drop),
            2 => {
                // A directory moves only to a target no deeper than its
                // parent: never into its own subtree, never below depth 4.
                let (target, target_depth) = dirs[arg as usize % dirs.len()];
                if pick % 2 == 0 && depth > 0 && target_depth < depth {
                    v.rename(dir, target, &format!("d{}", arg % 7), now)
                } else if let Some(f) = file {
                    v.rename(f, target, &format!("f{}.dat", arg % 5), now)
                } else {
                    Ok(())
                }
            }
            3 => file.map_or(Ok(()), |f| {
                v.set_file_size(f, u64::from(arg % 100_000), now)
            }),
            4 => file.map_or(Ok(()), |f| v.remove(f, now)),
            5 if depth > 0 => {
                remove_tree(v, dir, now);
                Ok(())
            }
            _ => Ok(()),
        };
    }

    fn ops(kinds: std::ops::Range<u8>) -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
        prop::collection::vec((kinds, any::<u32>(), any::<u32>()), 0..40)
    }

    proptest! {
        #[test]
        fn rewalk_in_place_equals_a_fresh_walk_and_the_reference(
            fat in any::<bool>(),
            build in ops(0..4),
            grow in ops(0..4),
            shrink in ops(2..6),
        ) {
            let config = if fat { VolumeConfig::local_fat(1 << 40) } else { VolumeConfig::local_ntfs(1 << 40) };
            let mut v = Volume::new(config);
            let mut clock = 0;
            let mut tick = || {
                clock += 1;
                t(clock)
            };
            for op in build {
                apply(&mut v, op, tick());
            }
            let mut snap = SnapshotWalker::walk_volume(VolumeId(3), &v, tick());
            prop_assert_eq!(&snap.records, &reference_walk(&v, v.root(), "", 0));
            for (phase, mutations) in [("grow", grow), ("shrink", shrink)] {
                let before = snap.records.len();
                for op in mutations {
                    apply(&mut v, op, tick());
                }
                let now = tick();
                SnapshotWalker::rewalk(&mut snap, &v, now);
                let fresh = SnapshotWalker::walk_volume(VolumeId(3), &v, now);
                let reference = reference_walk(&v, v.root(), "", 0);
                prop_assert_eq!((snap.volume, snap.taken_at), (fresh.volume, fresh.taken_at));
                prop_assert_eq!(snap.records.len(), reference.len(), "{} phase", phase);
                for (i, (rewalked, want)) in snap.records.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(rewalked, want, "{} phase, record {}", phase, i);
                }
                prop_assert_eq!(&fresh.records, &reference, "{} phase", phase);
                let after = snap.records.len();
                let kept_direction = if phase == "grow" { after >= before } else { after <= before };
                prop_assert!(kept_direction, "{} phase went from {} to {} records", phase, before, after);
            }
        }
    }
}
