//! The fleet flight recorder: bounded rings of recent pipeline events,
//! dumped exactly once when something goes wrong.
//!
//! Every machine and every shard owns a bounded ring of recent
//! structured [`FlightEvent`]s — agent suspensions, buffer squeezes,
//! aggregated record drops, shipment refusals, collector failovers,
//! shard merge boundaries, watchdog findings. A study keeps them under
//! [`TelemetryOptions::diagnostics`](crate::TelemetryOptions::diagnostics).
//! In a healthy run the rings rotate silently and are discarded. When a
//! study fault surfaces, the conservation audit reports drift, or the
//! fleet lost records, the recorder dumps **once** — an `AtomicBool` makes
//! a second trigger a no-op — to `flight-recorder.jsonl`: one header
//! line naming the reason, one scope line per ring (event and eviction
//! counts), then the events in `(scope, ring order)`.
//!
//! Determinism: every event field is a simulated-clock or counter value,
//! and each ring is appended only by the thread that owns its scope, so
//! the dump of a given seed is byte-identical across runs. The
//! aggregated drop events carry *cumulative* totals alongside deltas —
//! the newest surviving drop event per machine reconciles against the
//! machine's `LossLedger` even if older events fell off the ring.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::export::{create_export_file, ExportError};
use crate::watchdog::HealthFinding;

/// Who an event belongs to. Scopes order machine rings first, then
/// shard rings, then the fleet ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecorderScope {
    /// One machine's agent-side ring.
    Machine(u32),
    /// One shard's collector-tier ring.
    Shard(u32),
    /// Fleet-level events (study-driver scope).
    Fleet,
}

impl RecorderScope {
    fn sort_key(self) -> (u8, u32) {
        match self {
            RecorderScope::Machine(m) => (0, m),
            RecorderScope::Shard(s) => (1, s),
            RecorderScope::Fleet => (2, 0),
        }
    }

    fn label(self) -> String {
        match self {
            RecorderScope::Machine(m) => format!("machine:{m}"),
            RecorderScope::Shard(s) => format!("shard:{s}"),
            RecorderScope::Fleet => "fleet".to_string(),
        }
    }
}

/// One structured pipeline event. All timestamps are simulated 100ns
/// ticks; all counts are deterministic simulation quantities.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEvent {
    /// The agent lost its network and stopped capturing (§-style fault
    /// window opened).
    AgentSuspended {
        /// Simulated tick of the transition.
        ticks: u64,
    },
    /// The agent reconnected; `downtime_ticks` is its cumulative
    /// suspension time so far.
    AgentResumed {
        /// Simulated tick of the transition.
        ticks: u64,
        /// Cumulative suspended ticks across all windows so far.
        downtime_ticks: u64,
    },
    /// The fault plan squeezed this machine's triple buffer.
    BufferSqueezed {
        /// The squeezed per-buffer capacity, in records.
        capacity: u64,
    },
    /// Aggregated record drops since the previous drop event. The
    /// `total_*` fields are cumulative, so the newest event alone
    /// reconciles against the `LossLedger`.
    RecordsDropped {
        /// Simulated tick the delta was observed (shipment or flush).
        ticks: u64,
        /// Suspension drops since the last drop event.
        suspended_delta: u64,
        /// Buffer-overflow drops since the last drop event.
        overflow_delta: u64,
        /// Cumulative suspension drops (= ledger `dropped_suspended`).
        total_suspended: u64,
        /// Cumulative overflow drops (= ledger `dropped_overflow`).
        total_overflow: u64,
    },
    /// The collector tier refused a shipment (every server outaged);
    /// the batch stays queued machine-side for the backoff retry.
    ShipmentRefused {
        /// Simulated tick of the attempt.
        ticks: u64,
        /// Sequence of the refused head-of-line batch.
        seq: u64,
        /// Records waiting machine-side across all pending batches.
        pending_records: u64,
    },
    /// A delivery landed on a non-primary server after the primary's
    /// outage window swallowed it.
    Failover {
        /// Simulated tick of the delivery.
        ticks: u64,
        /// Sequence of the failed-over batch.
        seq: u64,
        /// The outaged primary server index.
        from_server: u32,
        /// The live server that took the batch.
        to_server: u32,
    },
    /// A shard finished and merged into the fleet root.
    MergeBoundary {
        /// Shard index.
        shard: u32,
        /// Machines the shard collected.
        machines: u64,
        /// Records the shard's machines' sinks processed.
        records: u64,
    },
    /// A pipeline watchdog finding (see [`HealthFinding`]).
    Finding(HealthFinding),
}

impl FlightEvent {
    /// Stable lower-snake-case event name used in the dump.
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::AgentSuspended { .. } => "agent_suspended",
            FlightEvent::AgentResumed { .. } => "agent_resumed",
            FlightEvent::BufferSqueezed { .. } => "buffer_squeezed",
            FlightEvent::RecordsDropped { .. } => "records_dropped",
            FlightEvent::ShipmentRefused { .. } => "shipment_refused",
            FlightEvent::Failover { .. } => "failover",
            FlightEvent::MergeBoundary { .. } => "merge_boundary",
            FlightEvent::Finding(f) => f.kind(),
        }
    }

    fn json_fields(&self) -> String {
        match self {
            FlightEvent::AgentSuspended { ticks } => {
                format!("\"kind\":\"agent_suspended\",\"ticks\":{ticks}")
            }
            FlightEvent::AgentResumed {
                ticks,
                downtime_ticks,
            } => format!(
                "\"kind\":\"agent_resumed\",\"ticks\":{ticks},\"downtime_ticks\":{downtime_ticks}"
            ),
            FlightEvent::BufferSqueezed { capacity } => {
                format!("\"kind\":\"buffer_squeezed\",\"capacity\":{capacity}")
            }
            FlightEvent::RecordsDropped {
                ticks,
                suspended_delta,
                overflow_delta,
                total_suspended,
                total_overflow,
            } => format!(
                "\"kind\":\"records_dropped\",\"ticks\":{ticks},\
                 \"suspended_delta\":{suspended_delta},\"overflow_delta\":{overflow_delta},\
                 \"total_suspended\":{total_suspended},\"total_overflow\":{total_overflow}"
            ),
            FlightEvent::ShipmentRefused {
                ticks,
                seq,
                pending_records,
            } => format!(
                "\"kind\":\"shipment_refused\",\"ticks\":{ticks},\"seq\":{seq},\
                 \"pending_records\":{pending_records}"
            ),
            FlightEvent::Failover {
                ticks,
                seq,
                from_server,
                to_server,
            } => format!(
                "\"kind\":\"failover\",\"ticks\":{ticks},\"seq\":{seq},\
                 \"from_server\":{from_server},\"to_server\":{to_server}"
            ),
            FlightEvent::MergeBoundary {
                shard,
                machines,
                records,
            } => format!(
                "\"kind\":\"merge_boundary\",\"shard\":{shard},\"machines\":{machines},\
                 \"records\":{records}"
            ),
            FlightEvent::Finding(f) => f.json_fields(),
        }
    }
}

struct Ring {
    events: VecDeque<FlightEvent>,
    evicted: u64,
}

struct RecorderShared {
    capacity: usize,
    scopes: Mutex<BTreeMap<(u8, u32), Ring>>,
    dumped: AtomicBool,
}

/// The fleet flight-recorder handle. Cheap to clone; all clones share
/// the rings and the dumped-once latch. The disabled handle
/// ([`FlightRecorder::off`], also `Default`) is one `Option` check per
/// call.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<RecorderShared>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl FlightRecorder {
    /// The inert recorder: every operation is a no-op.
    pub fn off() -> Self {
        FlightRecorder::default()
    }

    /// A live recorder holding up to `capacity` events per scope.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            inner: Some(Arc::new(RecorderShared {
                capacity,
                scopes: Mutex::new(BTreeMap::new()),
                dumped: AtomicBool::new(false),
            })),
        }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends `event` to `scope`'s ring, evicting the oldest event when
    /// the ring is full (evictions are counted and surfaced in the
    /// dump).
    pub fn record(&self, scope: RecorderScope, event: FlightEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        if inner.capacity == 0 {
            return;
        }
        let mut scopes = inner.scopes.lock().unwrap_or_else(|p| p.into_inner());
        let ring = scopes.entry(scope.sort_key()).or_insert_with(|| Ring {
            events: VecDeque::with_capacity(16),
            evicted: 0,
        });
        if ring.events.len() == inner.capacity {
            ring.events.pop_front();
            ring.evicted += 1;
        }
        ring.events.push_back(event);
    }

    /// Snapshot of every scope's ring (scope order, oldest event first)
    /// with its eviction count. For dashboards and tests; the rings are
    /// left intact.
    pub fn snapshot(&self) -> Vec<(RecorderScope, Vec<FlightEvent>, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let scopes = inner.scopes.lock().unwrap_or_else(|p| p.into_inner());
        scopes
            .iter()
            .map(|(&(tier, id), ring)| {
                let scope = match tier {
                    0 => RecorderScope::Machine(id),
                    1 => RecorderScope::Shard(id),
                    _ => RecorderScope::Fleet,
                };
                (scope, ring.events.iter().cloned().collect(), ring.evicted)
            })
            .collect()
    }

    /// True once a dump has been written.
    pub fn dumped(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.dumped.load(Ordering::SeqCst))
    }

    /// Dumps every ring to `path` as JSONL, **exactly once**: the first
    /// trigger (study fault, conservation drift, loss budget) writes the
    /// file and wins the latch; later triggers return `Ok(false)` and
    /// touch nothing. `Ok(true)` means this call wrote the dump.
    pub fn dump(&self, path: &Path, reason: &str) -> Result<bool, ExportError> {
        use std::io::Write as _;
        let Some(inner) = &self.inner else {
            return Ok(false);
        };
        if inner.dumped.swap(true, Ordering::SeqCst) {
            return Ok(false);
        }
        let io_err = |source| ExportError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut out = create_export_file(path)?;
        let scopes = inner.scopes.lock().unwrap_or_else(|p| p.into_inner());
        let mut header = String::from("{\"flight_recorder\":\"v1\",\"reason\":");
        crate::export::push_json_string(&mut header, reason);
        let total: usize = scopes.values().map(|r| r.events.len()).sum();
        use std::fmt::Write as _;
        let _ = write!(header, ",\"scopes\":{},\"events\":{total}}}", scopes.len());
        writeln!(out, "{header}").map_err(io_err)?;
        for (&(tier, id), ring) in scopes.iter() {
            let scope = match tier {
                0 => RecorderScope::Machine(id),
                1 => RecorderScope::Shard(id),
                _ => RecorderScope::Fleet,
            };
            writeln!(
                out,
                "{{\"scope\":\"{}\",\"kind\":\"scope\",\"events\":{},\"evicted\":{}}}",
                scope.label(),
                ring.events.len(),
                ring.evicted
            )
            .map_err(io_err)?;
            for event in &ring.events {
                writeln!(
                    out,
                    "{{\"scope\":\"{}\",{}}}",
                    scope.label(),
                    event.json_fields()
                )
                .map_err(io_err)?;
            }
        }
        out.flush().map_err(io_err)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_is_inert() {
        let r = FlightRecorder::off();
        assert!(!r.is_enabled());
        r.record(
            RecorderScope::Fleet,
            FlightEvent::AgentSuspended { ticks: 1 },
        );
        assert!(r.snapshot().is_empty());
        assert!(!r.dumped());
        let path = std::env::temp_dir().join("nt-obs-recorder-off.jsonl");
        assert!(!r.dump(&path, "x").unwrap());
        assert!(!path.exists());
    }

    #[test]
    fn rings_bound_and_count_evictions() {
        let r = FlightRecorder::new(2);
        for t in 0..5 {
            r.record(
                RecorderScope::Machine(7),
                FlightEvent::AgentSuspended { ticks: t },
            );
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        let (scope, events, evicted) = &snap[0];
        assert_eq!(*scope, RecorderScope::Machine(7));
        assert_eq!(*evicted, 3);
        assert_eq!(
            *events,
            vec![
                FlightEvent::AgentSuspended { ticks: 3 },
                FlightEvent::AgentSuspended { ticks: 4 },
            ]
        );
    }

    #[test]
    fn dump_is_exactly_once_and_ordered() {
        let dir = std::env::temp_dir().join(format!("nt-obs-recorder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::new(8);
        r.record(
            RecorderScope::Shard(1),
            FlightEvent::MergeBoundary {
                shard: 1,
                machines: 5,
                records: 100,
            },
        );
        r.record(
            RecorderScope::Machine(0),
            FlightEvent::RecordsDropped {
                ticks: 10,
                suspended_delta: 2,
                overflow_delta: 0,
                total_suspended: 2,
                total_overflow: 0,
            },
        );
        r.record(
            RecorderScope::Fleet,
            FlightEvent::AgentSuspended { ticks: 3 },
        );
        let path = dir.join("flight-recorder.jsonl");
        assert!(r.dump(&path, "study-fault: \"collector\" died").unwrap());
        assert!(r.dumped());
        // Second trigger: latched, nothing rewritten.
        assert!(!r.dump(&path, "other reason").unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // header + 3 scope lines + 3 events.
        assert_eq!(lines.len(), 7);
        assert!(lines[0].contains("\"flight_recorder\":\"v1\""));
        assert!(lines[0].contains("\\\"collector\\\""), "reason escaped");
        assert!(lines[0].contains("\"events\":3"));
        // Machine scopes first, then shards, then fleet.
        assert!(lines[1].contains("\"scope\":\"machine:0\""));
        assert!(lines[2].contains("\"kind\":\"records_dropped\""));
        assert!(lines[3].contains("\"scope\":\"shard:1\""));
        assert!(lines[4].contains("\"kind\":\"merge_boundary\""));
        assert!(lines[5].contains("\"scope\":\"fleet\""));
        assert!(lines[6].contains("\"kind\":\"agent_suspended\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
