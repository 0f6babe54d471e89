//! The tracing apparatus of the study (§3 of the paper).
//!
//! Two kinds of data are collected, exactly as in the original setup:
//!
//! 1. **Real-time request traces** — a filter driver ([`TraceFilter`])
//!    attached to every local file system and to the network redirector
//!    converts each IRP/FastIO call into a fixed-size [`TraceRecord`] with
//!    two 100 ns timestamps, stores it in a triple-buffered record store
//!    ([`TripleBuffer`], 3 × 3,000 records), and ships full buffers to the
//!    collection server ([`CollectionServer`]) through the filter's
//!    shipping calls. A streaming study ships through each machine's own
//!    [`CollectorHandle`] instead: the three servers as outage windows,
//!    the handle's head-count, and each buffer handed to its machine's
//!    sinks on the thread that shipped it.
//! 2. **Daily file-system snapshots** (§3.1) — a recursive walk of every
//!    traced volume producing [`WalkRecord`]s from which the tree can be
//!    recovered, taken at 4 a.m. by the agent. A later walk can re-take a
//!    [`Snapshot`] in place ([`SnapshotWalker::rewalk`]), so a machine
//!    holds each volume's first and latest snapshot, which are all §5
//!    reads.
//!
//! §3.3's accounting problem starts the way the paper's did: *all*
//! paging requests are recorded, and all of them are kept. The analyses
//! choose per question: the §8 operational, latency and activity
//! analyses skip paging records (`is_paging`), the instance table counts
//! them per session, and the §9.2 burst analysis reads every one. The
//! paper's cache-manager duplicate filter is available as [`dedup`], but
//! no analysis applies it.

pub mod agent;
pub mod buffer;
pub mod collector;
pub mod dedup;
pub mod fault;
pub mod pool;
pub mod record;
pub mod snapshot;
pub mod steal;

pub use agent::AgentState;
pub use buffer::TripleBuffer;
pub use collector::{CollectionServer, MachineId, RecordBatch};
pub use dedup::filter_paging_duplicates;
pub use fault::{LossLedger, TickWindow};
pub use pool::{BatchMeta, CollectorHandle, RecordSink, ShipmentConsumer, StreamingTotals};
pub use record::{NameRecord, TraceRecord, RECORD_SIZE};
pub use snapshot::{Snapshot, SnapshotDiff, SnapshotWalker, WalkRecord};
pub use steal::{run_indexed, TaskPanic};

/// The study's filter driver: an [`nt_io::IoObserver`] that records
/// everything into the agent's buffers.
pub use agent::TraceFilter;
