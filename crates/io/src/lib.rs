//! The Windows NT I/O subsystem model.
//!
//! §3.2 of the paper describes the two access paths every file-system
//! request takes: the packet-based **IRP** path, in which the I/O manager
//! hands an I/O request packet down a chain of layered drivers, and the
//! undocumented procedural **FastIO** path, in which the I/O manager
//! invokes a method table that leads straight to the cache manager (§10).
//! The study's tracer was a *filter driver* inserted into those chains.
//!
//! This crate assembles the whole stack the paper instruments:
//!
//! * [`Machine`] — one traced workstation: volumes (`nt-fs`), the cache
//!   manager (`nt-cache`), the VM manager (`nt-vm`), FCB and handle
//!   tables, per-volume disk models, and the I/O manager dispatch logic
//!   (FastIO attempt, IRP fallback, paging I/O, two-stage close).
//! * [`DriverStack`] / [`FilterDriver`] — the layered driver chain
//!   itself: every request descends the stack `IoCallDriver`-style, each
//!   layer may complete, modify or pass it, and each layer's
//!   [`FastIoDispatch`] table can opt individual FastIO routines out,
//!   forcing the documented IRP fallback (§10).
//! * [`IoObserver`] — the study's instrument: every IRP and FastIO call
//!   is reported with dual 100 ns timestamps, exactly the payload of the
//!   trace records (§3.2). It attaches to the stack as a filter driver
//!   ([`ObserverFilter`]), alongside the span layer ([`SpanFilter`]) and
//!   the example third-party scanner ([`AntivirusFilter`]).
//! * [`LatencyModel`] — service-time model for cache copies, IRP
//!   overhead, local IDE/SCSI disks and redirector round-trips, producing
//!   the figure-13 latency split between the four major request types.
//!
//! The crate is deliberately synchronous: each operation computes its
//! completion time and returns it, while background work (read-ahead
//! completions, lazy-writer bursts, deferred closes) is tracked internally
//! and applied by an explicit [`Machine::pump`] at the next operation or
//! lazy-writer tick.

pub mod arena;
pub mod fastio;
pub mod fcb;
pub mod filters;
pub mod latency;
pub mod machine;
pub mod observer;
pub mod ops;
pub mod request;
pub mod sharing;
pub mod stack;
pub mod status;
pub mod types;

pub use arena::{Arena, ArenaHandle};
pub use fastio::{irp_fallback, FastIoDispatch};
pub use fcb::{Fcb, FcbTable};
pub use filters::{AntivirusFilter, FastIoVeto, ObserverFilter, SpanFilter};
pub use latency::{DiskParams, LatencyModel};
pub use machine::{IoMetrics, Machine, MachineConfig, OpReply};
pub use observer::{FileObjectInfo, IoObserver, NullObserver, VecObserver};
pub use request::{EventKind, FastIoKind, IoEvent, MajorFunction, SetInfoKind};
pub use sharing::{LockTable, ShareRegistry};
pub use stack::{DriverStack, FilterAction, FilterDriver, IrpFrame, LayerCounters};
pub use status::NtStatus;
pub use types::{
    AccessMode, CreateOptions, Disposition, FcbId, FileObjectId, HandleId, ProcessId, ShareMode,
};
