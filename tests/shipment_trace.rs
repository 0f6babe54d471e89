//! Acceptance validation of the causal shipment-tracing artefacts.
//!
//! Runs the faulted 45-machine sharded fleet (with warehouse export,
//! so every pipeline tier is live) twice with the full observability
//! stack enabled and checks the acceptance bar end to end:
//!
//! 1. **Determinism** — same seed, same config ⇒ byte-identical
//!    `trace.json` and `flight-recorder.jsonl` across runs, because
//!    every artefact is keyed on simulated time and deterministic ids.
//! 2. **Causality** — the Chrome trace parses, every batch resolves to
//!    a complete `agent.batch → agent.ship → collector.recv` chain with
//!    `analysis.ingest` and `warehouse.export` both parented to the
//!    collect hop, every parent id resolves, intervals are well-nested,
//!    and the spanned record counts conserve against the loss ledgers.
//! 3. **Post-mortem** — the lossy plan trips the exactly-once flight
//!    recorder dump, and the newest `records_dropped` event of every
//!    lossy machine reconciles with that machine's [`LossLedger`].
//!
//! The repo ships no JSON dependency, so the validator parses the
//! Chrome document with a small hand-rolled recursive-descent parser.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;

use nt_study::{FaultPlan, ShardOptions, Study, StudyConfig, TelemetryConfig, TelemetryOptions};

// ---------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, f64 numbers).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn u64(&self, key: &str) -> Option<u64> {
        let n = self.num(key)?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
    }

    /// A `"%016x"`-encoded id field.
    fn hex(&self, key: &str) -> Option<u64> {
        u64::from_str_radix(self.str(key)?, 16).ok()
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at offset {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            Some(&c) => {
                // Copy the full UTF-8 sequence starting at this byte.
                let len = if c < 0x80 {
                    1
                } else if c < 0xE0 {
                    2
                } else if c < 0xF0 {
                    3
                } else {
                    4
                };
                let chunk = b.get(*pos..*pos + len).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad UTF-8")?);
                *pos += len;
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected key at offset {pos}", pos = *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at offset {pos}", pos = *pos));
        }
        *pos += 1;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
        }
    }
}

// ---------------------------------------------------------------------
// The traced fleet under test.
// ---------------------------------------------------------------------

/// The faulted 45-machine fleet with the whole observability stack on.
fn traced_fleet(seed: u64, dir: &std::path::Path) -> StudyConfig {
    let mut c = StudyConfig::paper_scale(seed);
    c.duration = nt_sim::SimDuration::from_secs(600);
    c.snapshot_interval = nt_sim::SimDuration::from_secs(300);
    c.files_per_volume = 1_200;
    c.web_cache_files = 150;
    c.faults = FaultPlan::lossy();
    c.telemetry = TelemetryConfig::On(TelemetryOptions {
        dir: Some(dir.to_path_buf()),
        trace_shipments: true,
        flight_recorder: true,
        watchdogs: true,
        dump_on_loss: true,
        ..TelemetryOptions::default()
    });
    c
}

fn artefact_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nt-shiptrace-{tag}-{}", std::process::id()))
}

/// One parsed `"ph":"X"` complete event off the Chrome timeline.
struct Ev {
    name: String,
    pid: u64,
    ts: f64,
    end: f64,
    trace: u64,
    span: u64,
    parent: u64,
    records: u64,
    server: Option<u64>,
    shard: Option<u64>,
}

const HOPS: [&str; 5] = [
    "agent.batch",
    "agent.ship",
    "collector.recv",
    "analysis.ingest",
    "warehouse.export",
];

fn tier_pid(hop: &str) -> u64 {
    match hop {
        "agent.batch" | "agent.ship" => 1,
        "collector.recv" => 2,
        "analysis.ingest" => 3,
        "warehouse.export" => 4,
        other => panic!("unknown hop {other}"),
    }
}

#[test]
fn traced_faulted_fleet_artefacts_validate_and_are_deterministic() {
    let dir_a = artefact_dir("a");
    let dir_b = artefact_dir("b");
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);

    let options = |dir: &std::path::Path| ShardOptions {
        shards: 4,
        warehouse: Some(dir.join("warehouse")),
        ..ShardOptions::default()
    };
    let run_a = Study::try_run_sharded(&traced_fleet(6_060, &dir_a), &options(&dir_a))
        .expect("traced fleet runs");
    let run_b = Study::try_run_sharded(&traced_fleet(6_060, &dir_b), &options(&dir_b))
        .expect("traced fleet runs");

    // ---- 1. Determinism: byte-identical artefacts across runs. ----
    let trace_a = fs::read_to_string(dir_a.join("trace.json")).expect("run A wrote trace.json");
    let trace_b = fs::read_to_string(dir_b.join("trace.json")).expect("run B wrote trace.json");
    assert!(
        trace_a == trace_b,
        "same-seed runs render byte-identical Chrome traces"
    );
    let dump_a =
        fs::read_to_string(dir_a.join("flight-recorder.jsonl")).expect("run A dumped the recorder");
    let dump_b =
        fs::read_to_string(dir_b.join("flight-recorder.jsonl")).expect("run B dumped the recorder");
    assert!(
        dump_a == dump_b,
        "same-seed runs dump byte-identical flight recorders"
    );
    assert!(run_a.data.flight_recorder.dumped());
    assert!(run_b.data.flight_recorder.dumped());
    assert_eq!(
        run_a.data.shipment_spans, run_b.data.shipment_spans,
        "the in-memory span lists match across same-seed runs too"
    );
    assert!(
        run_a.data.total_lost() > 0,
        "the lossy plan visibly dropped records"
    );

    // ---- 2. The Chrome trace parses and the causal chains close. ----
    let doc = Json::parse(&trace_a).expect("trace.json is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array present");
    };

    // One process-name metadata record per pipeline tier.
    for (pid, tier) in [
        (1, "tier: agents"),
        (2, "tier: collectors"),
        (3, "tier: analysis"),
        (4, "tier: warehouse"),
    ] {
        assert!(
            events.iter().any(|e| e.str("ph") == Some("M")
                && e.u64("pid") == Some(pid)
                && e.get("args").and_then(|a| a.str("name")) == Some(tier)),
            "tier {pid} named on the timeline"
        );
    }

    // Decode every complete event and group by (machine, batch seq).
    let mut batches: BTreeMap<(u64, u64), Vec<Ev>> = BTreeMap::new();
    let mut total_events = 0usize;
    for e in events.iter().filter(|e| e.str("ph") == Some("X")) {
        assert_eq!(e.str("cat"), Some("shipment"));
        let args = e.get("args").expect("X event has args");
        let name = e.str("name").expect("X event named").to_string();
        let ts = e.num("ts").expect("ts");
        let dur = e.num("dur").expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0);
        assert_eq!(
            e.u64("pid"),
            Some(tier_pid(&name)),
            "pid matches tier: {name}"
        );
        let ev = Ev {
            pid: e.u64("pid").unwrap(),
            ts,
            end: ts + dur,
            trace: args.hex("trace").expect("trace id"),
            span: args.hex("span").expect("span id"),
            parent: args.hex("parent").expect("parent id"),
            records: args.u64("records").expect("records"),
            server: args.u64("server"),
            shard: args.u64("shard"),
            name,
        };
        assert_eq!(e.u64("tid"), args.u64("machine"), "tid is the machine id");
        let machine = args.u64("machine").expect("machine");
        let seq = args.u64("seq").expect("seq");
        batches.entry((machine, seq)).or_default().push(ev);
        total_events += 1;
    }
    assert_eq!(
        total_events,
        run_a.data.shipment_spans.len(),
        "the artefact carries every captured span"
    );
    assert!(!batches.is_empty(), "tracing captured delivered batches");

    let mut spanned_delivered = 0u64;
    for ((machine, seq), group) in &batches {
        let find = |hop: &str| {
            let hits: Vec<&Ev> = group.iter().filter(|e| e.name == hop).collect();
            assert_eq!(
                hits.len(),
                1,
                "machine {machine} batch {seq}: exactly one {hop} span"
            );
            hits[0]
        };
        let batch = find(HOPS[0]);
        let ship = find(HOPS[1]);
        let recv = find(HOPS[2]);
        let ingest = find(HOPS[3]);
        let export = find(HOPS[4]);
        assert_eq!(group.len(), 5, "no stray spans on the batch");

        // One trace id spans the whole chain; ids are live and unique.
        let chain = [batch, ship, recv, ingest, export];
        assert!(chain.iter().all(|e| e.trace == batch.trace && e.trace != 0));
        let span_ids: BTreeSet<u64> = chain.iter().map(|e| e.span).collect();
        assert_eq!(span_ids.len(), 5, "span ids are distinct");
        assert!(!span_ids.contains(&0));

        // Parent links: batch is the root; the two downstream hops
        // (analysis + warehouse) both hang off the collect hop.
        assert_eq!(batch.parent, 0, "batch span is the root");
        assert_eq!(ship.parent, batch.span);
        assert_eq!(recv.parent, ship.span);
        assert_eq!(ingest.parent, recv.span);
        assert_eq!(export.parent, recv.span);

        // Intervals are well-nested down the chain.
        for (child, parent) in [(ship, batch), (recv, ship), (ingest, recv), (export, recv)] {
            assert!(
                child.ts >= parent.ts && child.end <= parent.end,
                "machine {machine} batch {seq}: {} ⊆ {}",
                child.name,
                parent.name
            );
        }

        // The batch head-count rides every hop unchanged.
        assert!(batch.records > 0, "empty batches emit no spans");
        assert!(chain.iter().all(|e| e.records == batch.records));
        spanned_delivered += batch.records;

        // The collect hop names its server; the sharded run stamps the
        // shard on every collector-tier-and-later hop, consistently.
        assert!(recv.server.is_some(), "collect hop carries the server");
        assert!(recv.shard.is_some(), "collect hop carries the shard");
        assert_eq!(ingest.shard, recv.shard);
        assert_eq!(export.shard, recv.shard);
        let _ = (batch.pid, ship.pid); // pids checked against tier above
    }

    // Conservation: the spanned record counts are exactly the ledgers'
    // delivered column, and every machine made it onto the timeline.
    let ledger_delivered: u64 = run_a.data.machines.iter().map(|m| m.loss.delivered).sum();
    assert_eq!(
        spanned_delivered, ledger_delivered,
        "agent.batch spans account for every delivered record"
    );
    let spanned_machines: BTreeSet<u64> = batches.keys().map(|(m, _)| *m).collect();
    assert_eq!(
        spanned_machines.len(),
        run_a.data.machines.len(),
        "every machine resolves to at least one complete chain"
    );

    // ---- 3. The flight-recorder dump reconciles with the ledgers. ----
    let lines: Vec<&str> = dump_a.lines().collect();
    let header = Json::parse(lines[0]).expect("dump header parses");
    assert_eq!(header.str("flight_recorder"), Some("v1"));
    assert!(
        header
            .str("reason")
            .is_some_and(|r| r.starts_with("loss-on-shutdown:")),
        "dump_on_loss named the trigger"
    );
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"flight_recorder\":\"v1\""))
            .count(),
        1,
        "exactly one dump header — the recorder latched after one dump"
    );

    // Rings dump oldest → newest, so the last records_dropped per
    // machine carries the final cumulative totals.
    let mut newest_drop: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut failovers = 0usize;
    let mut merges = 0usize;
    for line in &lines[1..] {
        let row = Json::parse(line).expect("dump line parses");
        let scope = row.str("scope").expect("dump line is scoped");
        match row.str("kind") {
            Some("records_dropped") => {
                let machine: u64 = scope
                    .strip_prefix("machine:")
                    .expect("drop events are machine-scoped")
                    .parse()
                    .unwrap();
                newest_drop.insert(
                    machine,
                    (
                        row.u64("total_suspended").expect("cumulative suspended"),
                        row.u64("total_overflow").expect("cumulative overflow"),
                    ),
                );
            }
            Some("failover") => failovers += 1,
            Some("merge_boundary") => {
                assert!(scope.starts_with("shard:"), "merges are shard-scoped");
                merges += 1;
            }
            _ => {}
        }
    }
    let mut reconciled = 0usize;
    for m in &run_a.data.machines {
        let id = u64::from(m.id.0);
        if m.loss.dropped_suspended + m.loss.dropped_overflow == 0 {
            continue;
        }
        let (suspended, overflow) = newest_drop
            .get(&id)
            .copied()
            .unwrap_or_else(|| panic!("machine {id} lost records but logged no drop event"));
        assert_eq!(
            suspended, m.loss.dropped_suspended,
            "machine {id} suspension drops"
        );
        assert_eq!(
            overflow, m.loss.dropped_overflow,
            "machine {id} overflow drops"
        );
        reconciled += 1;
    }
    assert!(reconciled > 0, "the lossy plan left drops to reconcile");
    assert_eq!(merges, 4, "one merge-boundary event per shard");
    assert!(failovers > 0, "collector outages forced recorded failovers");

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}
