//! `nt-obs`: fleet telemetry — spans, time-series and runtime
//! self-profiling for the whole simulator.
//!
//! The paper's artefact *is* instrumentation: a filter driver stacked on
//! every file system that watches each IRP and FastIO call go by (§3).
//! This crate plays the same role for the reproduction itself. A
//! [`Telemetry`] handle is threaded through a machine's layers exactly
//! the way the paper's filter driver sits in the driver stack, and
//! records three things:
//!
//! * **Spans** — scoped timings of the IRP lifecycle, cache and paging
//!   internals, trace shipping and analysis ingest. Each span carries a
//!   *simulated* timestamp (the machine's virtual clock) and a *host*
//!   timestamp (wall-clock nanoseconds since the handle was created), so
//!   one log answers both "when in the workload" and "where did the
//!   wall-clock go". Spans can be mirrored to a JSONL log.
//! * **Time-series** — ring-buffered gauges and counters sampled on a
//!   simulated-clock cadence ([`series`]), exported per machine and
//!   fleet-aggregated ([`export`]).
//! * **A runtime profile** — per-phase wall-clock attribution
//!   ([`RuntimeProfile`]) with exclusive (self) and inclusive times, so
//!   bench regressions can be localised to a subsystem.
//!
//! Everything is **off by default**. A disabled handle is a `None`
//! check per call site — no allocation, no lock, no clock read — and the
//! instrumented crates never behave differently based on what telemetry
//! observes, which `tests/obs.rs` locks down by diffing fact tables.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nt_sim::SimTime;

pub mod export;
pub mod profile;
pub mod recorder;
pub mod series;
pub mod shipment;
pub mod sparkline;
pub mod watchdog;

pub use export::{write_timeseries_jsonl, ExportError, SeriesRow};
pub use profile::{PhaseBudget, PhaseStat, RuntimeProfile};
pub use recorder::{FlightEvent, FlightRecorder, RecorderScope};
pub use series::{SeriesData, SeriesKind, SeriesRegistry};
pub use shipment::{write_chrome_trace, Hop, HopSpan, ShipmentTracer, TraceContext};
pub use watchdog::{HealthFinding, Watchdog};

/// Points each series ring holds; the oldest fall off and are counted in
/// [`SeriesData::dropped`].
const RING_CAPACITY: usize = 4_096;

/// A subsystem phase, the unit of wall-clock attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// IRP/FastIO dispatch in `nt-io` — the filter driver's vantage point.
    Dispatch,
    /// Cache manager work: lookups, copy interface, lazy-writer passes.
    Cache,
    /// Memory manager work: section paging, image loads.
    Vm,
    /// Trace agent work: batching, shipping, final flush.
    Trace,
    /// Analysis ingest: record parsing, online accumulators, table builds.
    Analysis,
    /// Work done by optional filter drivers layered above the FSD. No
    /// stock filter records spans under it.
    Filter,
    /// NTT warehouse I/O: segment export at study finish, re-ingest of
    /// stored segments.
    Warehouse,
    /// What-if replay: trace-driven re-execution of recorded requests
    /// against variant policy stacks (§9 simulation studies).
    Replay,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 8] = [
        Phase::Dispatch,
        Phase::Cache,
        Phase::Vm,
        Phase::Trace,
        Phase::Analysis,
        Phase::Filter,
        Phase::Warehouse,
        Phase::Replay,
    ];

    /// Stable lower-case name used in span logs and reports.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::Cache => "cache",
            Phase::Vm => "vm",
            Phase::Trace => "trace",
            Phase::Analysis => "analysis",
            Phase::Filter => "filter",
            Phase::Warehouse => "warehouse",
            Phase::Replay => "replay",
        }
    }

    pub(crate) const fn index(self) -> usize {
        match self {
            Phase::Dispatch => 0,
            Phase::Cache => 1,
            Phase::Vm => 2,
            Phase::Trace => 3,
            Phase::Analysis => 4,
            Phase::Filter => 5,
            Phase::Warehouse => 6,
            Phase::Replay => 7,
        }
    }
}

/// Whether a study runs with telemetry, and how.
#[derive(Clone, Debug, Default)]
pub enum TelemetryConfig {
    /// No telemetry: handles are inert, nothing is sampled or logged.
    #[default]
    Off,
    /// Telemetry on, with the given knobs.
    On(TelemetryOptions),
}

impl TelemetryConfig {
    /// True when telemetry is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, TelemetryConfig::On(_))
    }

    /// The options when enabled.
    pub fn options(&self) -> Option<&TelemetryOptions> {
        match self {
            TelemetryConfig::Off => None,
            TelemetryConfig::On(o) => Some(o),
        }
    }
}

/// Knobs for an enabled telemetry layer.
#[derive(Clone, Debug)]
pub struct TelemetryOptions {
    /// Artefact directory. Span logs (`spans-m<NN>.jsonl`) and the fleet
    /// `timeseries.jsonl` land here; `None` keeps everything in memory.
    pub dir: Option<PathBuf>,
    /// Mirror spans to per-machine JSONL logs (needs `dir`).
    pub log_spans: bool,
    /// Attach a deterministic [`TraceContext`] to every shipped record
    /// batch and emit parent-linked hop spans (agent → collector →
    /// analysis → warehouse), exported as a Chrome trace-event timeline
    /// (`trace.json` under `dir`).
    pub trace_shipments: bool,
    /// Keep a bounded per-machine/per-shard ring of recent pipeline
    /// events (drops, failovers, suspensions, merge boundaries) for the
    /// post-mortem dump (`flight-recorder.jsonl` under `dir`).
    pub flight_recorder: bool,
    /// Sample the pipeline health watchdogs on the simulated clock and
    /// surface typed [`HealthFinding`]s in the study output.
    pub watchdogs: bool,
    /// Dump the flight recorder at end of run when the fleet lost any
    /// records, even if the study itself completed without a fault.
    pub dump_on_loss: bool,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            dir: None,
            log_spans: true,
            trace_shipments: false,
            flight_recorder: false,
            watchdogs: false,
            dump_on_loss: false,
        }
    }
}

/// A per-span record on the enter stack.
struct Frame {
    phase: Phase,
    name: &'static str,
    sim_ticks: u64,
    host_enter_ns: u64,
    /// Wall-clock spent in child spans, subtracted to get self time.
    child_ns: u64,
}

/// Live telemetry state behind one machine's handle.
struct Inner {
    machine: u32,
    epoch: Instant,
    profile: RuntimeProfile,
    stack: Vec<Frame>,
    series: SeriesRegistry,
    log: Option<std::io::BufWriter<fs::File>>,
    /// Reused line buffer so span logging never allocates per span.
    line: String,
    /// High-water mark of simulated time seen by any span; used to keep
    /// logged sim stamps monotone per machine even when a caller lacks a
    /// trustworthy clock (e.g. the end-of-run flush).
    last_sim_ticks: u64,
    /// High-water mark of simulated stamps already written to the span
    /// log. Spans are logged at exit, so a parent whose body advanced
    /// simulated time (e.g. `load_image` issuing creates and faults at
    /// later stamps) would otherwise land *after* its children with an
    /// *earlier* stamp; the logged stamp is clamped to this mark, which
    /// keeps every span file monotone and reads naturally as "the latest
    /// simulated instant the span covered".
    last_logged_sim: u64,
    spans_logged: u64,
    log_write_failures: u64,
    log_failed: bool,
}

impl Inner {
    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, phase: Phase, name: &'static str, sim_ticks: Option<u64>) {
        let sim = match sim_ticks {
            Some(t) => t.max(self.last_sim_ticks),
            // A child span inherits its parent's simulated stamp; with no
            // parent, the machine's high-water mark stands in.
            None => self
                .stack
                .last()
                .map(|f| f.sim_ticks)
                .unwrap_or(self.last_sim_ticks),
        };
        self.last_sim_ticks = self.last_sim_ticks.max(sim);
        self.stack.push(Frame {
            phase,
            name,
            sim_ticks: sim,
            host_enter_ns: self.host_ns(),
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let total_ns = self.host_ns().saturating_sub(frame.host_enter_ns);
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        self.profile.record(frame.phase, self_ns, total_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(total_ns);
        }
        if self.log.is_some() {
            self.log_span(&frame, total_ns, self_ns);
        }
    }

    fn log_span(&mut self, frame: &Frame, total_ns: u64, self_ns: u64) {
        use fmt::Write as _;
        self.last_logged_sim = self.last_logged_sim.max(frame.sim_ticks);
        self.line.clear();
        // Hand-rolled JSON: every field is a number or a static
        // identifier, so no escaping is needed.
        let _ = write!(
            self.line,
            "{{\"m\":{},\"phase\":\"{}\",\"name\":\"{}\",\"sim\":{},\"host_enter_ns\":{},\"host_ns\":{},\"self_ns\":{},\"depth\":{}}}",
            self.machine,
            frame.phase.name(),
            frame.name,
            self.last_logged_sim,
            frame.host_enter_ns,
            total_ns,
            self_ns,
            self.stack.len(),
        );
        // The log can race away between the caller's check and here (a
        // prior write may have disabled it); treat a missing writer as a
        // counted failure, never a panic — a full disk must not kill the
        // study it is observing.
        let ok = match self.log.as_mut() {
            Some(log) => writeln!(log, "{}", self.line).is_ok(),
            None => false,
        };
        if ok {
            self.spans_logged += 1;
        } else {
            self.log_write_failures += 1;
            if !self.log_failed {
                self.log_failed = true;
                eprintln!(
                    "nt-obs: span log write failed for machine {}; disabling the log",
                    self.machine
                );
                self.log = None;
            }
        }
    }
}

/// A per-machine telemetry handle.
///
/// Cloning is cheap (an `Arc`); every layer of one machine shares the
/// same underlying state. The disabled handle ([`Telemetry::off`], also
/// `Default`) costs one `Option` check per call. A handle has one span
/// stack, so it must not have spans open on two threads at once.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Telemetry {
    /// The inert handle: every operation is a no-op.
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A live handle for one machine, honouring `options` (span log file
    /// under `options.dir` when `log_spans` is set).
    pub fn for_machine(machine: u32, options: &TelemetryOptions) -> Self {
        let log = match (&options.dir, options.log_spans) {
            (Some(dir), true) => {
                let _ = fs::create_dir_all(dir);
                let path = dir.join(format!("spans-m{machine:02}.jsonl"));
                match fs::File::create(&path) {
                    Ok(f) => Some(std::io::BufWriter::new(f)),
                    Err(e) => {
                        eprintln!(
                            "nt-obs: cannot open {}: {e}; spans stay in memory",
                            path.display()
                        );
                        None
                    }
                }
            }
            _ => None,
        };
        Self::live(machine, RING_CAPACITY, log)
    }

    /// A live handle that only accumulates the [`RuntimeProfile`] — no
    /// span log, no series. Used for work that has no machine identity:
    /// the study driver's segment writes, a re-ingest task.
    pub fn profiler() -> Self {
        Self::live(u32::MAX, 0, None)
    }

    fn live(machine: u32, ring_capacity: usize, log: Option<std::io::BufWriter<fs::File>>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner {
                machine,
                epoch: Instant::now(),
                profile: RuntimeProfile::default(),
                stack: Vec::with_capacity(8),
                series: SeriesRegistry::new(ring_capacity),
                log,
                line: String::with_capacity(160),
                last_sim_ticks: 0,
                last_logged_sim: 0,
                spans_logged: 0,
                log_write_failures: 0,
                log_failed: false,
            }))),
        }
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Inner>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Opens a span stamped with the machine's simulated clock. The span
    /// closes when the guard drops.
    #[inline]
    pub fn span(&self, phase: Phase, name: &'static str, sim: SimTime) -> SpanGuard {
        if let Some(mut inner) = self.lock() {
            inner.enter(phase, name, Some(sim.ticks()));
            SpanGuard {
                inner: self.inner.clone(),
            }
        } else {
            SpanGuard { inner: None }
        }
    }

    /// Opens a span that inherits the enclosing span's simulated stamp
    /// (or the machine's high-water mark at top level). For call sites
    /// without a trustworthy simulated clock of their own.
    #[inline]
    pub fn span_child(&self, phase: Phase, name: &'static str) -> SpanGuard {
        if let Some(mut inner) = self.lock() {
            inner.enter(phase, name, None);
            SpanGuard {
                inner: self.inner.clone(),
            }
        } else {
            SpanGuard { inner: None }
        }
    }

    /// Records one sampler tick: each `(name, kind, value)` lands in its
    /// ring series under the simulated timestamp `now`. One lock per
    /// tick, not per series.
    pub fn record_many(&self, now: SimTime, samples: &[(&'static str, SeriesKind, f64)]) {
        if let Some(mut inner) = self.lock() {
            let t = now.ticks();
            inner.last_sim_ticks = inner.last_sim_ticks.max(t);
            for &(name, kind, value) in samples {
                inner.series.record(name, kind, t, value);
            }
        }
    }

    /// Flushes the span log and snapshots everything recorded so far.
    /// `None` on a disabled handle.
    pub fn report(&self) -> Option<MachineTelemetry> {
        let mut inner = self.lock()?;
        if let Some(log) = inner.log.as_mut() {
            let _ = log.flush();
        }
        Some(MachineTelemetry {
            machine: inner.machine,
            profile: inner.profile,
            series: inner.series.dump(),
            spans_logged: inner.spans_logged,
            log_write_failures: inner.log_write_failures,
        })
    }
}

/// Closes its span on drop.
pub struct SpanGuard {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(m) = &self.inner {
            m.lock().unwrap_or_else(|p| p.into_inner()).exit();
        }
    }
}

/// Everything one machine's telemetry recorded, snapshotted by
/// [`Telemetry::report`].
#[derive(Clone, Debug, PartialEq)]
pub struct MachineTelemetry {
    /// Machine id (`u32::MAX` for the study-side profiler handle).
    pub machine: u32,
    /// Wall-clock attribution per phase.
    pub profile: RuntimeProfile,
    /// Ring-buffered series, in registration order.
    pub series: Vec<SeriesData>,
    /// Spans mirrored to the JSONL log (0 when logging is off).
    pub spans_logged: u64,
    /// Span-log writes that failed (disk full, log torn down mid-run).
    /// Non-fatal by design: the log is dropped, the study keeps running,
    /// and the failure count is surfaced here.
    pub log_write_failures: u64,
}

impl MachineTelemetry {
    /// The named series, if it was ever recorded.
    pub fn series(&self, name: &str) -> Option<&SeriesData> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        {
            let _g = t.span(Phase::Dispatch, "noop", SimTime::from_secs(1));
            let _h = t.span_child(Phase::Cache, "noop-child");
        }
        t.record_many(SimTime::ZERO, &[("x", SeriesKind::Gauge, 1.0)]);
        assert!(t.report().is_none());
    }

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let t = Telemetry::for_machine(7, &TelemetryOptions::default());
        {
            let _outer = t.span(Phase::Dispatch, "read", SimTime::from_secs(5));
            {
                let _inner = t.span_child(Phase::Cache, "cache.read");
            }
        }
        let r = t.report().unwrap();
        assert_eq!(r.machine, 7);
        let d = r.profile.phase(Phase::Dispatch);
        let c = r.profile.phase(Phase::Cache);
        assert_eq!(d.spans, 1);
        assert_eq!(c.spans, 1);
        // The child's total is carved out of the parent's self time.
        assert!(d.self_ns <= d.total_ns);
        assert!(c.self_ns <= d.total_ns.max(c.total_ns) + d.total_ns);
        assert_eq!(r.profile.phase(Phase::Vm).spans, 0);
    }

    #[test]
    fn sim_stamps_are_monotone_even_with_stale_callers() {
        let t = Telemetry::for_machine(0, &TelemetryOptions::default());
        drop(t.span(Phase::Dispatch, "a", SimTime::from_secs(10)));
        // A caller handing in an older stamp gets clamped forward.
        drop(t.span(Phase::Dispatch, "b", SimTime::from_secs(3)));
        drop(t.span_child(Phase::Trace, "flush"));
        let r = t.report().unwrap();
        assert_eq!(r.profile.phase(Phase::Dispatch).spans, 2);
        assert_eq!(r.profile.phase(Phase::Trace).spans, 1);
    }

    #[test]
    fn record_many_lands_in_named_series() {
        let t = Telemetry::for_machine(1, &TelemetryOptions::default());
        t.record_many(
            SimTime::from_secs(30),
            &[
                ("cache.resident_bytes", SeriesKind::Gauge, 42.0),
                ("io.ops", SeriesKind::Counter, 10.0),
            ],
        );
        t.record_many(
            SimTime::from_secs(60),
            &[
                ("cache.resident_bytes", SeriesKind::Gauge, 41.0),
                ("io.ops", SeriesKind::Counter, 25.0),
            ],
        );
        let r = t.report().unwrap();
        let g = r.series("cache.resident_bytes").unwrap();
        assert_eq!(g.kind, SeriesKind::Gauge);
        assert_eq!(g.points.len(), 2);
        assert_eq!(g.points[1], (SimTime::from_secs(60).ticks(), 41.0));
        let c = r.series("io.ops").unwrap();
        assert_eq!(c.kind, SeriesKind::Counter);
        assert_eq!(c.points[1].1, 25.0);
    }

    /// A full disk (here: the span log symlinked to `/dev/full`) must
    /// never kill the study — the failed write is counted, the log is
    /// dropped, and everything else keeps recording.
    #[test]
    #[cfg(target_os = "linux")]
    fn span_log_write_failure_is_counted_not_fatal() {
        let dir = std::env::temp_dir().join(format!("nt-obs-full-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        std::os::unix::fs::symlink("/dev/full", dir.join("spans-m09.jsonl")).unwrap();
        let t = Telemetry::for_machine(
            9,
            &TelemetryOptions {
                dir: Some(dir.clone()),
                ..TelemetryOptions::default()
            },
        );
        // Enough spans to overflow the BufWriter and hit ENOSPC.
        for _ in 0..2_000 {
            drop(t.span(Phase::Dispatch, "read", SimTime::from_secs(1)));
        }
        let r = t.report().unwrap();
        assert!(r.log_write_failures >= 1, "the failed write was counted");
        assert!(
            r.spans_logged < 2_000,
            "logging stopped once the disk filled"
        );
        // The profile kept attributing spans regardless.
        assert_eq!(r.profile.phase(Phase::Dispatch).spans, 2_000);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn span_log_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("nt-obs-test-{}", std::process::id()));
        let t = Telemetry::for_machine(
            3,
            &TelemetryOptions {
                dir: Some(dir.clone()),
                ..TelemetryOptions::default()
            },
        );
        drop(t.span(Phase::Vm, "vm.fault", SimTime::from_secs(2)));
        let r = t.report().unwrap();
        assert_eq!(r.spans_logged, 1);
        let text = fs::read_to_string(dir.join("spans-m03.jsonl")).unwrap();
        let line = text.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"phase\":\"vm\""));
        assert!(line.contains("\"sim\":20000000"));
        let _ = fs::remove_dir_all(&dir);
    }
}
