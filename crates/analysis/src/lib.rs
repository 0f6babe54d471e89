//! The analysis pipeline of the NT 4.0 usage study (§4–§10 of the paper).
//!
//! The study poured 190 million trace records into a star-schema data
//! warehouse with two fact tables — the raw **trace** table and the
//! per-open **instance** table — and drove every figure and table from
//! them. This crate is that pipeline:
//!
//! * [`schema`] — builds the fact tables from collected trace records.
//! * [`stats`] / [`cdf`] — descriptive statistics and empirical CDFs
//!   (every figure in the paper is a CDF or a distribution plot).
//! * [`activity`] — table 2's user-activity intervals, with the BSD and
//!   Sprite baselines for comparison.
//! * [`patterns`] — table 3's access-pattern classification.
//! * [`runs`] — figures 1–2, sequential run lengths.
//! * [`sizes`] — figures 3–4, file-size distributions by opens and bytes.
//! * [`sessions`] — figures 5 and 12, open durations.
//! * [`lifetimes`] — figures 6–7, the die-young new files.
//! * [`arrivals`] — figure 11, open inter-arrival times.
//! * [`burstiness`] — figure 8, arrivals at three time scales vs Poisson.
//! * [`gaps`] — lossy-window bookkeeping for traces collected under
//!   faults; arrivals/burstiness exclude the holes instead of averaging
//!   over them.
//! * [`tails`] — figures 9–10, QQ plots, LLCD slope and Hill estimator.
//! * [`latency`] — figures 13–14, latency/size by request class.
//! * [`ops`] — §8's operational characteristics.
//! * [`sketch`] — bounded-memory histogram sketches and spill-to-disk
//!   sorted runs for the streaming pipeline.
//! * [`stream`] — per-machine streaming sinks that ingest shipments as
//!   they arrive and maintain the aggregates online, so paper-scale
//!   studies never materialize the record stream.
//! * [`paging`] — §9.2's paging-I/O burst analysis.
//! * [`content`] — §5's file-system content analysis over snapshots.
//! * [`dfg`] — directly-follows graphs over per-file event sequences;
//!   doubles as the warehouse's structural conformance check.
//! * [`dimensions`] — §4's dimension tables and drill-down cubes.
//! * [`processes`] — §7's per-process activity characteristics.
//! * [`profile`] — benchmark-configuration fitting (the §1 goal of
//!   feeding realistic file-system benchmarks).
//! * [`whatif`] — differential fact tables and §9-style delta summaries
//!   for the what-if replay studies in `nt-study`.

pub mod activity;
pub mod arrivals;
pub mod burstiness;
pub mod cdf;
pub mod content;
pub mod dfg;
pub mod dimensions;
pub mod facts;
pub mod gaps;
pub mod latency;
pub mod lifetimes;
pub mod ops;
pub mod paging;
pub mod patterns;
pub mod processes;
pub mod profile;
pub mod runs;
pub mod schema;
pub mod sessions;
pub mod sizes;
pub mod sketch;
pub mod stats;
pub mod stream;
pub mod tails;
pub mod whatif;

pub use cdf::Cdf;
pub use facts::FactTable;
pub use schema::{Instance, TraceSet};
pub use sketch::{HistogramSketch, SpillRuns};
pub use stats::{correlation, Descriptives};
pub use stream::{AnalysisSet, MachineSink, ShardSummary, StreamConfig, StudySummary};
pub use whatif::{DeltaSummary, DifferentialTable, FactsDelta, ReplayFacts};
