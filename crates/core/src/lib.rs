//! Orchestration of the Windows NT 4.0 file-system usage study.
//!
//! This crate is the study itself: it stands up a fleet of simulated
//! workstations (each the full `nt-io` stack with the `nt-trace` filter
//! driver attached), drives them with the `nt-workload` user models for a
//! configured tracing period, collects the trace streams and daily
//! snapshots the way §3 of the paper describes, and renders every table
//! and figure of the evaluation through `nt-analysis`.
//!
//! # Examples
//!
//! ```
//! use nt_study::{Study, StudyConfig};
//!
//! // A small deployment: one machine per usage category, short period.
//! let config = StudyConfig::smoke_test(42);
//! let data = Study::run(&config).expect("a clean study balances its books");
//! assert!(data.trace_set.records.len() > 100);
//! let table2 = nt_study::report::table2(&data);
//! assert!(table2.contains("10-minute"));
//! ```

pub mod audit;
pub mod config;
pub mod fault;
pub mod replay;
pub mod report;
pub mod run;
pub mod shard;
pub mod study;
pub mod synthetic;
pub mod warehouse;
pub mod whatif;

pub use audit::sharded_ledgers;
pub use config::{MachineSpec, StudyConfig};
pub use fault::{FaultPlan, FaultSchedule, MachineFaults};
pub use nt_obs::{
    write_chrome_trace, FlightEvent, FlightRecorder, HealthFinding, Hop, HopSpan, MachineTelemetry,
    Phase, RecorderScope, RuntimeProfile, ShipmentTracer, Telemetry, TelemetryConfig,
    TelemetryOptions, TraceContext, Watchdog,
};
pub use replay::{replay_stream, MachineVariantOutcome, ReplayConfig, ReplayStream};
pub use run::MachineRun;
pub use shard::{ShardOptions, ShardReport, ShardedStudyData};
pub use study::{LossReport, MachineOutput, StreamedStudyData, Study, StudyData, StudyFault};
pub use synthetic::SyntheticBench;
pub use warehouse::{StreamOptions, WarehouseIngest};
pub use whatif::{
    audit_variant, variant_ledgers, VariantRun, WhatIfError, WhatIfReport, WhatIfStudy,
};
