//! The Windows NT virtual-memory manager model.
//!
//! §3.3 of the paper explains why the tracer had to capture paging I/O:
//! Windows NT loads executables and dynamic libraries through memory-mapped
//! image sections, and the cache manager fills the file cache through page
//! faults on data sections. Both arrive at the file system as IRPs with the
//! *PagingIO* bit set. Crucially for trace accounting, **image pages stay
//! resident after the owning process exits** so that re-running an
//! application is fast — which is why the older studies' trick of counting
//! `exec` sizes would be wrong on NT.
//!
//! This crate models exactly that: section objects keyed by file, demand
//! paging that emits the paging reads the caller must turn into IRPs, and a
//! standby list that keeps unreferenced image pages resident until memory
//! pressure evicts them.

pub mod section;

pub use section::{PagingRead, SectionKind, VmManager, VmMetrics};
