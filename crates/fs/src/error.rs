//! File-system errors.
//!
//! These map 1:1 onto the NTSTATUS codes the driver layer (`nt-io`) reports
//! in trace records; keeping a separate enum here lets the state layer stay
//! independent of the I/O stack.

use std::fmt;

/// Result alias for file-system state operations.
pub(crate) type FsResult<T> = Result<T, FsError>;

/// Errors from namespace and metadata operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FsError {
    /// The path or node does not exist (STATUS_OBJECT_NAME_NOT_FOUND).
    NotFound,
    /// Creation was requested but the name exists (STATUS_OBJECT_NAME_COLLISION).
    AlreadyExists,
    /// A file was used where a directory is required (STATUS_NOT_A_DIRECTORY).
    NotADirectory,
    /// A directory was used where a file is required (STATUS_FILE_IS_A_DIRECTORY).
    IsADirectory,
    /// Directory deletion with children (STATUS_DIRECTORY_NOT_EMPTY).
    DirectoryNotEmpty,
    /// The volume has no space left (STATUS_DISK_FULL).
    VolumeFull,
    /// A stale node id was used after deletion.
    StaleNode,
    /// The operation is invalid for the node's state.
    InvalidOperation,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FsError::NotFound => "object name not found",
            FsError::AlreadyExists => "object name collision",
            FsError::NotADirectory => "not a directory",
            FsError::IsADirectory => "file is a directory",
            FsError::DirectoryNotEmpty => "directory not empty",
            FsError::VolumeFull => "disk full",
            FsError::StaleNode => "stale node id",
            FsError::InvalidOperation => "invalid operation",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert_eq!(FsError::NotFound.to_string(), "object name not found");
        assert_eq!(FsError::VolumeFull.to_string(), "disk full");
    }
}
