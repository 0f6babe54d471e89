//! Namespace nodes: files and directories in a volume tree.

use std::collections::BTreeMap;

use crate::attrs::{FileAttributes, FileTimes};

/// Handle to a node in a [`crate::Volume`].
///
/// Ids are generational: the study's workloads create and delete files at a
/// very high rate (§6.3 — 80 % of new files die within 4 seconds), so slots
/// are recycled aggressively and a stale handle must be detectable rather
/// than silently aliasing an unrelated file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl NodeId {
    /// The slot index; stable for the node's lifetime only.
    pub fn index(self) -> u32 {
        self.index
    }
}

/// File-specific metadata.
#[derive(Clone, Debug, Default)]
pub struct FileMeta {
    /// End-of-file position in bytes.
    pub size: u64,
    /// Valid data length: bytes actually written, `<= size`. The cache
    /// manager's SetEndOfFile dance at close (§8.3) operates on the gap
    /// between these two.
    pub valid_data_length: u64,
    /// Bytes reserved on disk (size rounded up to cluster granularity).
    pub allocation: u64,
    /// Attribute flags.
    pub attributes: FileAttributes,
    /// Set when a delete has been requested while handles remain open; the
    /// node disappears when the last handle closes.
    pub delete_pending: bool,
    /// Monotonic count of times this file has been overwritten/truncated
    /// at open, feeding the §6.3 lifetime analysis.
    pub overwrite_count: u64,
}

/// Directory-specific metadata. Children are kept sorted for deterministic
/// enumeration order across runs.
#[derive(Clone, Debug, Default)]
pub struct DirMeta {
    pub(crate) children: BTreeMap<String, NodeId>,
}

impl DirMeta {
    /// Number of children: files and subdirectories alike.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the directory has no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

/// Whether a node is a file or a directory, with the kind-specific fields.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// A regular file.
    File(FileMeta),
    /// A directory.
    Directory(DirMeta),
}

impl NodeKind {
    /// True for files.
    pub fn is_file(&self) -> bool {
        matches!(self, NodeKind::File(_))
    }

    /// True for directories.
    pub fn is_directory(&self) -> bool {
        matches!(self, NodeKind::Directory(_))
    }
}

/// A node in the namespace tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// Final path component, lower-cased.
    pub name: String,
    /// Parent directory; `None` for the root.
    pub parent: Option<NodeId>,
    /// The three NT timestamps.
    pub times: FileTimes,
    /// File or directory payload.
    pub kind: NodeKind,
}

impl Node {
    /// File metadata, if this is a file.
    pub fn file(&self) -> Option<&FileMeta> {
        match &self.kind {
            NodeKind::File(f) => Some(f),
            NodeKind::Directory(_) => None,
        }
    }

    /// Mutable file metadata, if this is a file.
    pub(crate) fn file_mut(&mut self) -> Option<&mut FileMeta> {
        match &mut self.kind {
            NodeKind::File(f) => Some(f),
            NodeKind::Directory(_) => None,
        }
    }

    /// Directory metadata, if this is a directory.
    pub fn dir(&self) -> Option<&DirMeta> {
        match &self.kind {
            NodeKind::Directory(d) => Some(d),
            NodeKind::File(_) => None,
        }
    }

    /// The file extension (lower-case), if a file with one.
    pub fn extension(&self) -> Option<&str> {
        if !self.kind.is_file() {
            return None;
        }
        let dot = self.name.rfind('.')?;
        if dot == 0 || dot + 1 == self.name.len() {
            None
        } else {
            Some(&self.name[dot + 1..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_sim::SimTime;

    fn file_node(name: &str) -> Node {
        Node {
            name: name.to_string(),
            parent: None,
            times: FileTimes::at_creation(SimTime::ZERO, true),
            kind: NodeKind::File(FileMeta::default()),
        }
    }

    #[test]
    fn kind_accessors() {
        let mut n = file_node("a.txt");
        assert!(n.kind.is_file());
        assert!(n.file().is_some());
        assert!(n.dir().is_none());
        n.file_mut().unwrap().size = 10;
        assert_eq!(n.file().unwrap().size, 10);
    }

    #[test]
    fn node_extension() {
        assert_eq!(file_node("a.txt").extension(), Some("txt"));
        assert_eq!(file_node("noext").extension(), None);
        assert_eq!(file_node(".hidden").extension(), None);
        let d = Node {
            name: "dir.d".to_string(),
            parent: None,
            times: FileTimes::default(),
            kind: NodeKind::Directory(DirMeta::default()),
        };
        assert_eq!(d.extension(), None, "directories have no extension");
    }
}
