//! A machine's view of its volumes: local disks plus redirector shares.
//!
//! §2 of the paper: every traced machine had a 2–6 GB local IDE disk (the
//! scientific machines 9–18 GB SCSI) and reached central file servers over
//! the CIFS redirector; the trace driver attached to the local file-system
//! driver instances *and* to the network redirector. A [`Namespace`] is
//! that machine-local forest of volumes.

use crate::error::{FsError, FsResult};
use crate::node::NodeId;
use crate::path::NtPath;
use crate::volume::{Volume, VolumeConfig};

/// Identifies a volume within one machine's namespace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VolumeId(pub u32);

/// Where a volume physically lives — drives the latency model and the
/// local-vs-remote split of figure 5.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum VolumeLocation {
    /// A local disk with a drive letter (e.g. `C`).
    Local {
        /// Drive letter.
        drive: char,
    },
    /// A share on a network file server, reached through the redirector.
    Share {
        /// Server host name.
        server: String,
        /// Share name (a user home directory in the study's setting).
        share: String,
    },
}

impl VolumeLocation {
    /// True for local-disk volumes.
    pub fn is_local(&self) -> bool {
        matches!(self, VolumeLocation::Local { .. })
    }
}

/// A fully-qualified file location within a machine's namespace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileRef {
    /// The volume holding the file.
    pub volume: VolumeId,
    /// The node within that volume.
    pub node: NodeId,
}

/// One machine's forest of volumes.
#[derive(Default)]
pub struct Namespace {
    volumes: Vec<(VolumeLocation, Volume)>,
}

impl Namespace {
    /// An empty namespace.
    pub fn new() -> Self {
        Namespace::default()
    }

    /// Mounts a new local volume under a drive letter.
    pub fn mount_local(&mut self, drive: char, config: VolumeConfig) -> VolumeId {
        self.mount(VolumeLocation::Local { drive }, config)
    }

    /// Connects a redirector share.
    pub fn mount_share(&mut self, server: &str, share: &str, config: VolumeConfig) -> VolumeId {
        self.mount(
            VolumeLocation::Share {
                server: server.to_string(),
                share: share.to_string(),
            },
            config,
        )
    }

    fn mount(&mut self, location: VolumeLocation, config: VolumeConfig) -> VolumeId {
        let id = VolumeId(self.volumes.len() as u32);
        self.volumes.push((location, Volume::new(config)));
        id
    }

    /// Number of mounted volumes.
    pub fn len(&self) -> usize {
        self.volumes.len()
    }

    /// True when nothing is mounted.
    pub fn is_empty(&self) -> bool {
        self.volumes.is_empty()
    }

    /// The volume ids, in mount order.
    pub fn volume_ids(&self) -> impl Iterator<Item = VolumeId> + '_ {
        (0..self.volumes.len() as u32).map(VolumeId)
    }

    /// Accesses a volume.
    pub fn volume(&self, id: VolumeId) -> FsResult<&Volume> {
        self.volumes
            .get(id.0 as usize)
            .map(|(_, v)| v)
            .ok_or(FsError::NotFound)
    }

    /// Mutable access to a volume.
    pub fn volume_mut(&mut self, id: VolumeId) -> FsResult<&mut Volume> {
        self.volumes
            .get_mut(id.0 as usize)
            .map(|(_, v)| v)
            .ok_or(FsError::NotFound)
    }

    /// The location of a volume.
    pub(crate) fn location(&self, id: VolumeId) -> FsResult<&VolumeLocation> {
        self.volumes
            .get(id.0 as usize)
            .map(|(l, _)| l)
            .ok_or(FsError::NotFound)
    }

    /// True when the volume is local to the machine.
    pub fn is_local(&self, id: VolumeId) -> bool {
        self.location(id).map(|l| l.is_local()).unwrap_or(false)
    }

    /// Finds the local volume with the given drive letter.
    pub fn drive(&self, letter: char) -> Option<VolumeId> {
        self.volumes.iter().position(|(l, _)| {
            matches!(l, VolumeLocation::Local { drive } if drive.eq_ignore_ascii_case(&letter))
        })
        .map(|i| VolumeId(i as u32))
    }

    /// Resolves `path` on `volume` to a [`FileRef`].
    pub fn resolve(&self, volume: VolumeId, path: &NtPath) -> FsResult<FileRef> {
        let node = self.volume(volume)?.lookup(path)?;
        Ok(FileRef { volume, node })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_sim::SimTime;

    #[test]
    fn mount_and_resolve() {
        let mut ns = Namespace::new();
        let c = ns.mount_local('C', VolumeConfig::local_ntfs(1 << 30));
        let home = ns.mount_share("fileserv1", "alice$", VolumeConfig::local_ntfs(1 << 30));
        assert_eq!(ns.len(), 2);
        assert!(ns.is_local(c));
        assert!(!ns.is_local(home));
        assert_eq!(ns.drive('c'), Some(c));
        assert_eq!(ns.drive('D'), None);

        let now = SimTime::from_secs(1);
        let root = ns.volume(c).unwrap().root();
        ns.volume_mut(c)
            .unwrap()
            .create_file(root, "boot.ini", now)
            .unwrap();
        let fr = ns.resolve(c, &NtPath::parse(r"\boot.ini")).unwrap();
        assert_eq!(fr.volume, c);
        assert_eq!(
            ns.resolve(home, &NtPath::parse(r"\boot.ini")),
            Err(FsError::NotFound)
        );
    }

    #[test]
    fn bad_volume_id_errors() {
        let ns = Namespace::new();
        assert!(ns.volume(VolumeId(3)).is_err());
        assert!(!ns.is_local(VolumeId(3)));
    }
}
