//! Simulated Windows NT file-system state.
//!
//! The original study traced FAT and NTFS volumes on 45 production machines
//! (§2, §5 of the paper). This crate models the *state* those file systems
//! keep — the namespace tree, per-file metadata, timestamps with the
//! FAT/NTFS maintenance differences the paper calls out, volume capacity
//! and fullness — without any I/O-path logic. The NT driver stack that
//! operates on this state lives in `nt-io`; the snapshot walker that
//! reproduces §5 lives in `nt-trace`.
//!
//! Content bytes are deliberately not stored: a usage study needs sizes,
//! offsets and timestamps, never data. Files carry a size, a valid-data
//! length, and an allocation size in cluster units.
//!
//! # Examples
//!
//! ```
//! use nt_fs::{Volume, VolumeConfig};
//! use nt_fs::path::NtPath;
//! use nt_sim::SimTime;
//!
//! let mut vol = Volume::new(VolumeConfig::local_ntfs(2 << 30));
//! let now = SimTime::from_secs(1);
//! let dir = vol.mkdir_all(&NtPath::parse(r"\winnt\profiles\alice"), now).unwrap();
//! let file = vol.create_file(dir, "ntuser.dat", now).unwrap();
//! vol.set_file_size(file, 24_576, now).unwrap();
//! assert_eq!(vol.file_size(file).unwrap(), 24_576);
//! ```

pub mod attrs;
pub mod error;
pub mod namespace;
pub mod node;
pub mod path;
pub mod volume;

pub use attrs::{FileAttributes, FileTimes};
pub use error::FsError;
pub use namespace::{Namespace, VolumeId};
pub use node::{Node, NodeId, NodeKind};
pub use path::NtPath;
pub use volume::{FsKind, Volume, VolumeConfig, VolumeStats};
