//! Causal shipment tracing: one span tree per shipped record batch.
//!
//! Every record batch an agent ships carries a [`TraceContext`] — a
//! trace id plus parent span id — derived **deterministically** from
//! `(study seed, machine, batch seq)`; there is no randomness and no
//! wall clock anywhere in an id or a timestamp, so two runs of the same
//! seed produce byte-identical traces. Each tier the batch crosses
//! emits one parent-linked [`HopSpan`]:
//!
//! ```text
//! agent.batch  [batch opened .......... delivered]        (root)
//!   agent.ship   [enqueued ............ delivered]        (child: retry/backoff latency)
//!     collector.recv        [delivered]                   (child: server + shard chosen)
//!       analysis.ingest         [delivered]               (child: reached the sink)
//!       warehouse.export        [delivered]               (child: tee'd to the NTT segment)
//! ```
//!
//! Span intervals nest by construction (each hop's interval is contained
//! in its parent's), timestamps are simulated ticks only, and the export
//! sorts spans by `(machine, seq, hop)` — so thread scheduling is
//! invisible in the artefact. [`write_chrome_trace`] renders the whole
//! fleet as a single `chrome://tracing` / Perfetto-loadable timeline.

use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::export::{create_export_file, ExportError};

/// The causal identity a record batch carries across tiers.
///
/// `span_id` names the hop that most recently handled the batch;
/// `parent_span` links it to the previous hop (0 at the root). All ids
/// are pure functions of `(seed, machine, seq, hop)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// One id per (machine, batch-seq) journey.
    pub trace_id: u64,
    /// The current hop's span id.
    pub span_id: u64,
    /// The previous hop's span id; 0 for the root span.
    pub parent_span: u64,
}

impl TraceContext {
    /// The root context for one batch's journey: the agent's batching
    /// span.
    pub fn root(seed: u64, machine: u32, seq: u64) -> TraceContext {
        let trace_id = trace_id(seed, machine, seq);
        TraceContext {
            trace_id,
            span_id: span_id(trace_id, Hop::Batch),
            parent_span: 0,
        }
    }

    /// The context after crossing into `hop`, parent-linked to `self`.
    pub fn child(&self, hop: Hop) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: span_id(self.trace_id, hop),
            parent_span: self.span_id,
        }
    }
}

/// One tier crossing in a batch's journey.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hop {
    /// The agent's batching window: first record captured → delivered.
    Batch,
    /// The shipping attempt: enqueued for shipment → delivered. The gap
    /// to the batch window is retry/backoff latency under outages.
    Ship,
    /// Receipt at the collector tier (server + shard attribution).
    Collect,
    /// Ingest into the analysis sink on the collector's thread.
    Analyze,
    /// Tee into the NTT warehouse segment writer.
    Export,
}

impl Hop {
    /// Every hop, in tier order.
    pub const ALL: [Hop; 5] = [
        Hop::Batch,
        Hop::Ship,
        Hop::Collect,
        Hop::Analyze,
        Hop::Export,
    ];

    /// Stable span name used in the Chrome trace.
    pub const fn name(self) -> &'static str {
        match self {
            Hop::Batch => "agent.batch",
            Hop::Ship => "agent.ship",
            Hop::Collect => "collector.recv",
            Hop::Analyze => "analysis.ingest",
            Hop::Export => "warehouse.export",
        }
    }

    /// Tier order index (also the sort key within one batch).
    pub const fn index(self) -> u8 {
        match self {
            Hop::Batch => 0,
            Hop::Ship => 1,
            Hop::Collect => 2,
            Hop::Analyze => 3,
            Hop::Export => 4,
        }
    }

    /// The Chrome trace "process" this hop renders under.
    const fn tier_pid(self) -> u32 {
        match self {
            Hop::Batch | Hop::Ship => 1,
            Hop::Collect => 2,
            Hop::Analyze => 3,
            Hop::Export => 4,
        }
    }
}

/// `splitmix64` finalizer: the id mixer. Deterministic, seed-sensitive,
/// and avalanche-complete — adjacent seqs land far apart.
const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Trace id for one (seed, machine, seq) journey; never 0.
fn trace_id(seed: u64, machine: u32, seq: u64) -> u64 {
    let id = mix64(mix64(mix64(seed) ^ (machine as u64 + 1)) ^ (seq + 1));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Span id for one hop of a trace; never 0 (0 means "no parent").
fn span_id(trace_id: u64, hop: Hop) -> u64 {
    let id = mix64(trace_id ^ (hop.index() as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    if id == 0 {
        1
    } else {
        id
    }
}

/// One emitted hop span. Timestamps are simulated 100ns ticks.
#[derive(Clone, Debug, PartialEq)]
pub struct HopSpan {
    /// Causal identity (span + parent link).
    pub ctx: TraceContext,
    /// Which tier crossing this is.
    pub hop: Hop,
    /// Source machine of the batch.
    pub machine: u32,
    /// Batch sequence number (per machine, monotone).
    pub seq: u64,
    /// Span open, simulated ticks.
    pub begin_ticks: u64,
    /// Span close, simulated ticks (>= `begin_ticks`).
    pub end_ticks: u64,
    /// Records in the batch at this hop.
    pub records: u64,
    /// Collection server index, on the collect hop.
    pub server: Option<u32>,
    /// Shard index, on collector-tier-and-later hops of a sharded run.
    pub shard: Option<u32>,
}

struct TracerShared {
    seed: u64,
    /// Tick clamp for end-of-run flushes that ship at `u64::MAX`.
    horizon_ticks: u64,
    spans: Mutex<Vec<HopSpan>>,
}

/// The fleet-wide shipment tracer handle.
///
/// Cheap to clone; all clones append into one span list. The disabled
/// handle ([`ShipmentTracer::off`], also `Default`) is one `Option`
/// check per call. [`ShipmentTracer::for_shard`] stamps a shard index on
/// the spans a clone emits without forking the span list.
#[derive(Clone, Default)]
pub struct ShipmentTracer {
    inner: Option<Arc<TracerShared>>,
    shard: Option<u32>,
}

impl std::fmt::Debug for ShipmentTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShipmentTracer")
            .field("enabled", &self.inner.is_some())
            .field("shard", &self.shard)
            .finish()
    }
}

impl ShipmentTracer {
    /// The inert tracer: every operation is a no-op.
    pub fn off() -> Self {
        ShipmentTracer::default()
    }

    /// A live tracer. `horizon_ticks` clamps timestamps from end-of-run
    /// flushes (which deliver at `u64::MAX`) back onto the timeline.
    pub fn new(seed: u64, horizon_ticks: u64) -> Self {
        ShipmentTracer {
            inner: Some(Arc::new(TracerShared {
                seed,
                horizon_ticks,
                spans: Mutex::new(Vec::new()),
            })),
            shard: None,
        }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone that stamps `shard` on the spans it emits (collector tier
    /// and later of a sharded run).
    pub fn for_shard(&self, shard: u32) -> Self {
        ShipmentTracer {
            inner: self.inner.clone(),
            shard: Some(shard),
        }
    }

    fn clamp(&self, inner: &TracerShared, ticks: u64) -> u64 {
        ticks.min(inner.horizon_ticks)
    }

    fn push(&self, span: HopSpan) {
        if let Some(inner) = &self.inner {
            inner
                .spans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(span);
        }
    }

    /// The agent delivered batch `seq`: emits the root `agent.batch`
    /// span (batch window open → delivery) and its `agent.ship` child
    /// (enqueue → delivery; the retry/backoff latency under outages).
    /// Empty batches (the end-of-run remainder can be) emit nothing — a
    /// span tree documents records that exist.
    pub fn agent_delivery(
        &self,
        machine: u32,
        seq: u64,
        open_ticks: u64,
        enqueue_ticks: u64,
        deliver_ticks: u64,
        records: u64,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        if records == 0 {
            return;
        }
        let deliver = self.clamp(inner, deliver_ticks);
        let enqueue = self.clamp(inner, enqueue_ticks).min(deliver);
        let open = self.clamp(inner, open_ticks).min(enqueue);
        let root = TraceContext::root(inner.seed, machine, seq);
        self.push(HopSpan {
            ctx: root,
            hop: Hop::Batch,
            machine,
            seq,
            begin_ticks: open,
            end_ticks: deliver,
            records,
            server: None,
            shard: None,
        });
        self.push(HopSpan {
            ctx: root.child(Hop::Ship),
            hop: Hop::Ship,
            machine,
            seq,
            begin_ticks: enqueue,
            end_ticks: deliver,
            records,
            server: None,
            shard: None,
        });
    }

    /// The collector tier accepted batch `seq` on `server`: emits the
    /// `collector.recv` span and returns the context the batch carries
    /// onward to the sinks. `None` for empty batches or when
    /// disabled.
    pub fn collect(
        &self,
        machine: u32,
        seq: u64,
        deliver_ticks: u64,
        records: u64,
        server: u32,
    ) -> Option<TraceContext> {
        let inner = self.inner.as_ref()?;
        if records == 0 {
            return None;
        }
        let at = self.clamp(inner, deliver_ticks);
        let ctx = TraceContext::root(inner.seed, machine, seq)
            .child(Hop::Ship)
            .child(Hop::Collect);
        self.push(HopSpan {
            ctx,
            hop: Hop::Collect,
            machine,
            seq,
            begin_ticks: at,
            end_ticks: at,
            records,
            server: Some(server),
            shard: self.shard,
        });
        Some(ctx)
    }

    /// A downstream tier handled the batch whose carried context is
    /// `parent`: emits the hop span parent-linked to it. Used for the
    /// analysis ingest ([`Hop::Analyze`]) and the warehouse tee
    /// ([`Hop::Export`]).
    pub fn downstream(
        &self,
        hop: Hop,
        parent: TraceContext,
        machine: u32,
        seq: u64,
        deliver_ticks: u64,
        records: u64,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let at = self.clamp(inner, deliver_ticks);
        self.push(HopSpan {
            ctx: parent.child(hop),
            hop,
            machine,
            seq,
            begin_ticks: at,
            end_ticks: at,
            records,
            server: None,
            shard: self.shard,
        });
    }

    /// Drains every span recorded so far, sorted by
    /// `(machine, seq, hop, begin)` — a total order independent of
    /// thread scheduling, so the export is byte-stable across runs.
    pub fn take_sorted(&self) -> Vec<HopSpan> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans = std::mem::take(&mut *inner.spans.lock().unwrap_or_else(|p| p.into_inner()));
        spans.sort_by_key(|s| {
            (
                s.machine,
                s.seq,
                s.hop.index(),
                s.begin_ticks,
                s.ctx.span_id,
            )
        });
        spans
    }
}

/// Writes `ticks` (100ns units) as exact decimal microseconds — no
/// float formatting, so the artefact is byte-stable.
fn push_micros(out: &mut String, ticks: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}.{}", ticks / 10, ticks % 10);
}

/// Renders the spans as one Chrome trace-event JSON document
/// (`chrome://tracing` / Perfetto "JSON" format). One "process" per
/// pipeline tier (agents, collectors, analysis, warehouse), one
/// "thread" per machine, complete (`"ph":"X"`) events with ids in the
/// args.
pub fn chrome_trace_json(spans: &[HopSpan]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256 + spans.len() * 160);
    out.push_str("{\"traceEvents\":[\n");
    for (pid, name) in [
        (1, "tier: agents"),
        (2, "tier: collectors"),
        (3, "tier: analysis"),
        (4, "tier: warehouse"),
    ] {
        let _ = writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    for (i, span) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"shipment\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":",
            span.hop.name(),
            span.hop.tier_pid(),
            span.machine,
        );
        push_micros(&mut out, span.begin_ticks);
        out.push_str(",\"dur\":");
        push_micros(&mut out, span.end_ticks.saturating_sub(span.begin_ticks));
        let _ = write!(
            out,
            ",\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\
             \"machine\":{},\"seq\":{},\"records\":{}",
            span.ctx.trace_id,
            span.ctx.span_id,
            span.ctx.parent_span,
            span.machine,
            span.seq,
            span.records,
        );
        if let Some(server) = span.server {
            let _ = write!(out, ",\"server\":{server}");
        }
        if let Some(shard) = span.shard {
            let _ = write!(out, ",\"shard\":{shard}");
        }
        out.push_str("}}");
        if i + 1 < spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Writes the Chrome trace-event document to `path`, creating parent
/// directories, with the typed refusal semantics of
/// [`crate::write_timeseries_jsonl`].
pub fn write_chrome_trace(path: &Path, spans: &[HopSpan]) -> Result<(), ExportError> {
    use std::io::Write as _;
    let mut out = create_export_file(path)?;
    let io_err = |source| ExportError::Io {
        path: path.to_path_buf(),
        source,
    };
    out.write_all(chrome_trace_json(spans).as_bytes())
        .map_err(io_err)?;
    out.flush().map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_and_seed_sensitive() {
        let a = TraceContext::root(42, 3, 7);
        let b = TraceContext::root(42, 3, 7);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, TraceContext::root(43, 3, 7).trace_id);
        assert_ne!(a.trace_id, TraceContext::root(42, 4, 7).trace_id);
        assert_ne!(a.trace_id, TraceContext::root(42, 3, 8).trace_id);
        assert_eq!(a.parent_span, 0);
        assert_ne!(a.span_id, 0);
    }

    #[test]
    fn child_chain_parent_links() {
        let root = TraceContext::root(1, 0, 0);
        let ship = root.child(Hop::Ship);
        let collect = ship.child(Hop::Collect);
        let analyze = collect.child(Hop::Analyze);
        assert_eq!(ship.parent_span, root.span_id);
        assert_eq!(collect.parent_span, ship.span_id);
        assert_eq!(analyze.parent_span, collect.span_id);
        assert_eq!(analyze.trace_id, root.trace_id);
        // All four span ids distinct.
        let ids = [root.span_id, ship.span_id, collect.span_id, analyze.span_id];
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn tracer_emits_nested_clamped_spans() {
        let t = ShipmentTracer::new(9, 1_000);
        t.agent_delivery(5, 0, 100, 200, 400, 32);
        let ctx = t.collect(5, 0, 400, 32, 1).unwrap();
        t.downstream(Hop::Analyze, ctx, 5, 0, 400, 32);
        // End-of-run flush: u64::MAX delivery clamps to the horizon.
        t.agent_delivery(5, 1, 900, u64::MAX, u64::MAX, 4);
        let spans = t.take_sorted();
        // seq 0: batch, ship, collect, analyze; seq 1: batch, ship.
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].hop, Hop::Batch);
        assert_eq!(spans[1].hop, Hop::Ship);
        assert_eq!(spans[2].hop, Hop::Collect);
        assert_eq!(spans[3].hop, Hop::Analyze);
        // Nesting: each child's interval inside its parent's.
        assert!(spans[1].begin_ticks >= spans[0].begin_ticks);
        assert!(spans[1].end_ticks <= spans[0].end_ticks);
        assert!(spans[2].begin_ticks >= spans[1].begin_ticks);
        assert!(spans[2].end_ticks <= spans[1].end_ticks);
        assert_eq!(spans[3].ctx.parent_span, spans[2].ctx.span_id);
        // The flush batch clamped onto the timeline.
        assert_eq!(spans[4].seq, 1);
        assert_eq!(spans[4].end_ticks, 1_000);
        assert!(spans[4].begin_ticks <= spans[4].end_ticks);
        // Drained.
        assert!(t.take_sorted().is_empty());
    }

    #[test]
    fn empty_batches_emit_no_spans() {
        let t = ShipmentTracer::new(9, 1_000);
        t.agent_delivery(0, 0, 0, 0, 10, 0);
        assert!(t.collect(0, 0, 10, 0, 0).is_none());
        assert!(t.take_sorted().is_empty());
    }

    #[test]
    fn off_tracer_is_inert() {
        let t = ShipmentTracer::off();
        assert!(!t.is_enabled());
        t.agent_delivery(0, 0, 0, 0, 10, 5);
        assert!(t.collect(0, 0, 10, 5, 0).is_none());
        assert!(t.take_sorted().is_empty());
    }

    #[test]
    fn chrome_json_shape() {
        let t = ShipmentTracer::new(7, 10_000).for_shard(2);
        t.agent_delivery(1, 0, 10, 20, 35, 8);
        let ctx = t.collect(1, 0, 35, 8, 0).unwrap();
        t.downstream(Hop::Analyze, ctx, 1, 0, 35, 8);
        let json = chrome_trace_json(&t.take_sorted());
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"agent.batch\""));
        assert!(json.contains("\"name\":\"collector.recv\""));
        assert!(json.contains("\"shard\":2"));
        assert!(json.contains("\"server\":0"));
        // 35 ticks = 3.5 µs, exact decimal.
        assert!(json.contains("\"ts\":3.5,"));
        // 15-tick ship dur (20 → 35) = 1.5 µs.
        assert!(json.contains("\"dur\":1.5,"));
        // Metadata names all four tiers.
        assert!(json.contains("tier: agents"));
        assert!(json.contains("tier: warehouse"));
    }

    #[test]
    fn write_chrome_trace_creates_parents_and_refuses_squatters() {
        let dir = std::env::temp_dir().join(format!("nt-obs-chrome-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/trace.json");
        write_chrome_trace(&path, &[]).unwrap();
        assert!(path.exists());
        let squat = dir.join("deep/trace.json/child.json");
        assert!(matches!(
            write_chrome_trace(&squat, &[]),
            Err(ExportError::NotADirectory { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
