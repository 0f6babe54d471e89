//! Conformance suite for the NTT binary trace warehouse.
//!
//! `tests/golden/warehouse/segment_v1.ntt` is a checked-in canonical
//! segment: the writer must reproduce it byte-for-byte (the format is
//! versioned — accidental layout drift is a format break, not a detail),
//! and the v1 reader must keep decoding it forever. Regenerate after an
//! *intentional* format-version bump with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test warehouse
//! ```
//!
//! The rest of the suite covers the corruption taxonomy (typed errors,
//! never panics), bad and duplicate members of a warehouse directory
//! through both doors that read one — `Study::ingest_warehouse` and
//! `WhatIfStudy::run`, which share one per-segment reader — the strace
//! importer end-to-end through the ingest, the DFG conformance check,
//! the flat-vs-sharded export byte identity, and a full disk during the
//! live export.

use std::path::{Path, PathBuf};

use nt_io::{EventKind, MajorFunction, NtStatus};
use nt_study::{
    ReplayConfig, ShardOptions, StreamOptions, Study, StudyConfig, WhatIfError, WhatIfStudy,
};
use nt_trace::{NameRecord, TraceRecord, RECORD_SIZE};
use nt_warehouse::{
    import_strace, segment_paths, NttError, Segment, SegmentWriter, HEADER_SIZE, NTT_VERSION,
};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("warehouse")
        .join("segment_v1.ntt")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nt-warehouse-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A handcrafted record touching every field group.
fn rec(code: u8, file_object: u64, ticks: u64, length: u64) -> TraceRecord {
    TraceRecord {
        code,
        flags: (file_object % 16) as u8,
        status: NtStatus::Success,
        set_info: None,
        access: None,
        disposition: None,
        options: None,
        file_object,
        fcb: file_object.wrapping_mul(0x9e37_79b9),
        process: (file_object % 7) as u32,
        volume: (file_object % 3) as u32,
        offset: length * 2,
        length,
        transferred: length,
        file_size: length * 4,
        byte_offset: length * 2,
        start_ticks: ticks,
        end_ticks: ticks + 150,
    }
}

/// The canonical fixture: three batches (one empty — agents ship empty
/// heartbeat buffers too), codes spanning IRP and FastIO ranges, and
/// three names with one path interned twice.
fn fixture_batches() -> Vec<Vec<TraceRecord>> {
    let create = EventKind::Irp(MajorFunction::Create).code();
    let read = EventKind::Irp(MajorFunction::Read).code();
    let write = EventKind::Irp(MajorFunction::Write).code();
    let cleanup = EventKind::Irp(MajorFunction::Cleanup).code();
    let close = EventKind::Irp(MajorFunction::Close).code();
    vec![
        vec![
            rec(create, 1, 1_000, 0),
            rec(read, 1, 2_000, 4_096),
            rec(read, 1, 3_000, 4_096),
            rec(53, 1, 3_500, 512), // a FastIO-range code
        ],
        vec![],
        vec![
            rec(create, 2, 4_000, 0),
            rec(write, 2, 5_000, 8_192),
            rec(cleanup, 2, 6_000, 0),
            rec(close, 2, 6_100, 0),
            rec(cleanup, 1, 7_000, 0),
            rec(close, 1, 7_050, 0),
        ],
    ]
}

fn fixture_names() -> Vec<NameRecord> {
    vec![
        NameRecord {
            file_object: 1,
            volume: 1,
            process: 1,
            path: r"\inetpub\logs\access.log".to_string(),
            at_ticks: 1_000,
        },
        NameRecord {
            file_object: 2,
            volume: 2,
            process: 2,
            path: r"\users\worker\report.doc".to_string(),
            at_ticks: 4_000,
        },
        // Same path as the first name — must intern to the same span.
        NameRecord {
            file_object: 3,
            volume: 1,
            process: 1,
            path: r"\inetpub\logs\access.log".to_string(),
            at_ticks: 8_000,
        },
    ]
}

/// Reads `dir` through both doors, the analysis re-ingest and a
/// baseline-only what-if replay, and returns the one error both give:
/// the same [`NttError`] variant, rendered identically.
fn both_doors_refuse(dir: &Path) -> NttError {
    let ingest = Study::ingest_warehouse(dir, &StreamOptions::default())
        .err()
        .expect("the ingest refuses the directory");
    let replay = match WhatIfStudy::new(ReplayConfig::default()).run(dir) {
        Err(WhatIfError::Source(e)) => e,
        Err(other) => panic!("the replay must fail on its source, got {other}"),
        Ok(report) => panic!("the replay accepted {} machines", report.machines.len()),
    };
    assert_eq!(
        std::mem::discriminant(&ingest),
        std::mem::discriminant(&replay),
        "ingest: {ingest}; replay: {replay}"
    );
    assert_eq!(ingest.to_string(), replay.to_string());
    ingest
}

fn fixture_segment() -> Vec<u8> {
    fixture_segment_for(7)
}

/// The fixture's batches and names as machine `machine`'s segment.
fn fixture_segment_for(machine: u32) -> Vec<u8> {
    let mut w = SegmentWriter::new(machine);
    for batch in fixture_batches() {
        w.push_batch(&batch).unwrap();
    }
    for name in fixture_names() {
        w.push_name(&name).unwrap();
    }
    w.finish()
}

#[test]
fn golden_segment_is_byte_stable() {
    let bytes = fixture_segment();
    let path = golden_path();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("regenerated {} ({} bytes)", path.display(), bytes.len());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run GOLDEN_REGEN=1 cargo test --test warehouse",
            path.display()
        )
    });
    assert_eq!(
        bytes, golden,
        "the writer no longer reproduces the v{NTT_VERSION} fixture byte-for-byte — \
         if the format changed intentionally, bump NTT_VERSION and regenerate"
    );
}

#[test]
fn v1_reader_decodes_the_golden_segment() {
    let segment = Segment::open(&golden_path()).expect("golden fixture parses");
    assert_eq!(segment.machine(), 7);
    let reader = segment.reader();
    let footer = reader.footer();
    assert_eq!(footer.record_count, 10);
    assert_eq!(footer.batch_count, 3);
    assert_eq!(footer.name_count, 3);
    assert_eq!(footer.min_ticks, 1_000);
    assert_eq!(footer.max_ticks, 7_050 + 150);

    // Batch boundaries survive, including the empty batch.
    assert_eq!(reader.batch_lens().collect::<Vec<_>>(), vec![4, 0, 6]);

    // Zero-copy views decode to exactly the input records.
    let flat: Vec<TraceRecord> = fixture_batches().into_iter().flatten().collect();
    let decoded: Vec<TraceRecord> = reader
        .records()
        .map(|v| v.to_record().expect("valid record"))
        .collect();
    assert_eq!(decoded, flat);

    // Per-kind counts index by wire code.
    let create = EventKind::Irp(MajorFunction::Create).code();
    assert_eq!(footer.kind_counts[create as usize], 2);
    assert_eq!(footer.kind_counts[53], 1);
    assert_eq!(footer.kind_counts.iter().sum::<u64>(), 10);

    // Names come back with borrowed paths; the repeated path interns.
    let names: Vec<NameRecord> = reader
        .names()
        .map(|n| n.to_name().expect("valid name"))
        .collect();
    assert_eq!(names, fixture_names());
    let string_table = footer.strings_len;
    let distinct: usize = names
        .iter()
        .map(|n| n.path.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .iter()
        .map(|p| p.len())
        .sum();
    assert_eq!(
        string_table, distinct as u64,
        "repeated paths must share string-table bytes"
    );
}

#[test]
fn corruption_is_rejected_with_typed_errors() {
    let bytes = fixture_segment();

    // Bad leading magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Segment::parse(bad).err().unwrap(),
        NttError::BadMagic
    ));

    // Unsupported version (header is checked before the checksum, so a
    // future-version segment reports version skew, not corruption).
    let mut bad = bytes.clone();
    bad[4] = 0xfe;
    assert!(matches!(
        Segment::parse(bad).err().unwrap(),
        NttError::UnsupportedVersion(0xfe)
    ));

    // Bad trailing magic.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert!(matches!(
        Segment::parse(bad).err().unwrap(),
        NttError::BadFooterMagic
    ));

    // A flipped body byte is a checksum mismatch.
    let mut bad = bytes.clone();
    bad[nt_warehouse::HEADER_SIZE + 3] ^= 0x40;
    assert!(matches!(
        Segment::parse(bad).err().unwrap(),
        NttError::ChecksumMismatch { .. }
    ));

    // Truncation anywhere is typed, never a panic.
    for keep in [0, 1, 15, 16, 100, bytes.len() - 1] {
        let err = Segment::parse(bytes[..keep].to_vec()).err().unwrap();
        assert!(
            matches!(
                err,
                NttError::Truncated { .. }
                    | NttError::BadFooterMagic
                    | NttError::ChecksumMismatch { .. }
                    | NttError::BadLayout(_)
            ),
            "truncation to {keep} bytes gave {err}"
        );
    }
}

const STRACE_SAMPLE: &str = "\
# mail-server trace, strace -ttt style
1723111201.000125 open(\"/var/mail/inbox.mbx\", O_RDWR) = 3
1723111201.000300 read(3, 4096) = 4096
1723111201.000412 write(3, 512) = 512
1723111201.000500 close(3) = 0
1723111201.000600 open(\"/var/mail/outbox.mbx\", O_WRONLY|O_CREAT) = 4
1723111201.000700 write(4, 2048) = 2048
1723111201.000800 close(4) = 0
1723111201.000900 open(\"/etc/missing.conf\", O_RDONLY) = -1 ENOENT (No such file or directory)
this line is garbage and must land in the ledger
";

#[test]
fn strace_import_feeds_the_full_analysis_pipeline() {
    let dir = temp_dir("import");
    std::fs::create_dir_all(&dir).unwrap();
    let out = import_strace(STRACE_SAMPLE.as_bytes(), 0);
    assert_eq!(out.ledger.lines, 9, "comment lines are not counted");
    assert_eq!(out.ledger.imported, 8);
    assert_eq!(out.ledger.bad_timestamp, 1, "the garbage line");
    assert!(out.ledger.reconciles(), "importer loss ledger must close");
    // open+read+write+cleanup+close, open+write+cleanup+close, and the
    // failed open = 10 records.
    assert_eq!(out.records, 10);
    std::fs::write(dir.join("machine-00000.ntt"), &out.segment).unwrap();

    let ingest = Study::ingest_warehouse(
        &dir,
        &StreamOptions {
            retain: true,
            ..StreamOptions::default()
        },
    )
    .expect("imported segment ingests");
    assert_eq!(ingest.records, 10);
    assert_eq!(ingest.machines, vec![0]);
    assert_eq!(ingest.summary.ops.opens_ok, 2);
    assert_eq!(ingest.summary.ops.opens_failed, 1);
    assert_eq!(ingest.summary.names, 3);

    // The DFG of the imported trace has the session shape the importer
    // promises: create→read, write→cleanup, cleanup→close.
    let set = ingest.trace_set.expect("retained");
    let dfg = nt_analysis::dfg::Dfg::of_trace_set(&set);
    assert_eq!(dfg.cases, 3, "three file objects");
    let create = EventKind::Irp(MajorFunction::Create).code();
    let read = EventKind::Irp(MajorFunction::Read).code();
    let write = EventKind::Irp(MajorFunction::Write).code();
    let cleanup = EventKind::Irp(MajorFunction::Cleanup).code();
    let close = EventKind::Irp(MajorFunction::Close).code();
    assert_eq!(dfg.edges.get(&(create, read)), Some(&1));
    assert_eq!(dfg.edges.get(&(write, cleanup)), Some(&2));
    assert_eq!(dfg.edges.get(&(cleanup, close)), Some(&2));
    assert_eq!(dfg.starts.get(&create), Some(&3));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flat_and_sharded_exports_write_identical_segments() {
    // Shard count is a pure performance knob — a two-shard export must
    // produce byte-for-byte the same segment files as the flat
    // (one-shard) one, because each machine's canonical stream is
    // independent of which pool carried it.
    let config = StudyConfig::smoke_test(11);
    let flat_dir = temp_dir("flat");
    let shard_dir = temp_dir("sharded");
    let export = |shards: usize, dir: &std::path::Path| {
        Study::try_run_sharded(
            &config,
            &ShardOptions {
                shards,
                warehouse: Some(dir.to_path_buf()),
                ..ShardOptions::default()
            },
        )
        .expect("smoke study runs")
    };
    let flat = export(1, &flat_dir).data;
    let sharded = export(2, &shard_dir);
    let flat_stats = flat.warehouse.expect("flat export stats");
    let shard_stats = sharded.data.warehouse.expect("sharded export stats");
    assert_eq!(flat_stats, shard_stats, "per-segment stats agree");

    let listed = segment_paths(&flat_dir).expect("flat warehouse lists");
    assert_eq!(listed.len(), config.machines.len());
    for stat in &flat_stats {
        let name = format!("machine-{:05}.ntt", stat.machine);
        let a = std::fs::read(flat_dir.join(&name)).expect("flat segment");
        let b = std::fs::read(shard_dir.join(&name)).expect("sharded segment");
        assert!(
            a == b,
            "segment {name} differs between flat and sharded export"
        );
    }
    let _ = std::fs::remove_dir_all(&flat_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
}

#[test]
fn a_corrupt_member_segment_fails_both_doors_alike() {
    // A bad member fails the whole directory with its own typed error,
    // through the analysis re-ingest and the what-if replay alike, since
    // both read it through one per-segment reader. Every case returns
    // rather than panics, and the scoped pool has joined its threads by
    // the time it does.
    let reject = |tag: &str, members: Vec<(&str, Vec<u8>)>| {
        let dir = temp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in &members {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let err = both_doors_refuse(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        err
    };
    let flipped = |machine: u32| {
        let mut bytes = fixture_segment_for(machine);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        bytes
    };
    // Cut off in the middle of the record section.
    let truncated = |machine: u32| {
        let mut bytes = fixture_segment_for(machine);
        bytes.truncate(HEADER_SIZE + 5 * RECORD_SIZE + RECORD_SIZE / 2);
        bytes
    };
    let is_checksum = |e: &NttError| matches!(e, NttError::ChecksumMismatch { .. });
    let is_truncated = |e: &NttError| matches!(e, NttError::Truncated { .. });

    // Both members carry machine 7. A member is compared with its
    // siblings only once it has validated, so the corrupt one's checksum
    // error wins over the duplicate it would otherwise be.
    let err = reject(
        "reject",
        vec![
            ("machine-00007.ntt", fixture_segment()),
            ("machine-00008.ntt", flipped(7)),
        ],
    );
    assert!(is_checksum(&err), "got {err}");

    // A truncated member gives the error `Segment::open` gives for it.
    let direct = Segment::parse(truncated(8))
        .err()
        .expect("a truncated segment is invalid");
    assert!(is_truncated(&direct), "got {direct}");
    let err = reject(
        "truncated",
        vec![
            ("machine-00007.ntt", fixture_segment()),
            ("machine-00008.ntt", truncated(8)),
        ],
    );
    assert_eq!(err.to_string(), direct.to_string());

    // Two bad members with distinct machines: the first in file-name
    // order is the error, in either arrangement. With two workers the
    // last member is the second worker's first task, so its error is
    // usually found first in time.
    let err = reject(
        "first-truncated",
        vec![
            ("machine-00007.ntt", fixture_segment()),
            ("machine-00008.ntt", truncated(8)),
            ("machine-00009.ntt", flipped(9)),
        ],
    );
    assert!(is_truncated(&err), "got {err}");
    let err = reject(
        "first-flipped",
        vec![
            ("machine-00007.ntt", fixture_segment()),
            ("machine-00008.ntt", flipped(8)),
            ("machine-00009.ntt", truncated(9)),
        ],
    );
    assert!(is_checksum(&err), "got {err}");

    // A second valid segment for machine 7 is a bad member at its own
    // place in that order, ahead of a corrupt member named after it.
    let err = reject(
        "duplicate-first",
        vec![
            ("machine-00007.ntt", fixture_segment()),
            ("machine-00008.ntt", fixture_segment()),
            ("machine-00009.ntt", flipped(9)),
        ],
    );
    assert!(matches!(err, NttError::DuplicateMachine(7)), "got {err}");
}

#[test]
fn a_second_segment_for_one_machine_is_refused_not_double_counted() {
    // A smoke export plus a copy of one of its segments under another
    // name. Reading both would count machine 0 twice; both doors refuse
    // the directory instead.
    let dir = temp_dir("duplicate");
    let live = Study::try_run_sharded(
        &StudyConfig::smoke_test(7),
        &ShardOptions {
            warehouse: Some(dir.clone()),
            ..ShardOptions::default()
        },
    )
    .expect("smoke study runs")
    .data;
    let ingest =
        Study::ingest_warehouse(&dir, &StreamOptions::default()).expect("the export ingests");
    assert_eq!(ingest.records, live.summary.records);
    let replay = WhatIfStudy::new(ReplayConfig::default())
        .run(&dir)
        .expect("the export replays");
    assert_eq!(replay.machines, ingest.machines);

    std::fs::copy(
        dir.join("machine-00000.ntt"),
        dir.join("machine-00000-copy.ntt"),
    )
    .unwrap();
    let err = both_doors_refuse(&dir);
    assert!(matches!(err, NttError::DuplicateMachine(0)), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(target_os = "linux")]
fn a_full_disk_during_the_live_export_is_a_typed_fault_with_one_dump() {
    use nt_study::{StudyFault, TelemetryConfig, TelemetryOptions};

    // Segment 2's file is `/dev/full`: its write fails with ENOSPC. The
    // segments are written in machine order once every machine task has
    // finished, so 0 and 1 land, and the refusal stops 3 and 4.
    let export = temp_dir("full-disk");
    let artefacts = temp_dir("full-disk-telemetry");
    std::fs::create_dir_all(&export).unwrap();
    std::os::unix::fs::symlink("/dev/full", export.join("machine-00002.ntt")).unwrap();
    let mut config = StudyConfig::smoke_test(7);
    config.telemetry = TelemetryConfig::On(TelemetryOptions {
        dir: Some(artefacts.clone()),
        diagnostics: true,
        ..TelemetryOptions::default()
    });
    let fault = Study::try_run_sharded(
        &config,
        &ShardOptions {
            warehouse: Some(export.clone()),
            ..ShardOptions::default()
        },
    )
    .err()
    .expect("a full disk fails the export");
    match &fault {
        StudyFault::Warehouse(NttError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::StorageFull, "got {e}")
        }
        other => panic!("expected a warehouse I/O fault, got {other}"),
    }
    for machine in [0, 1] {
        let name = format!("machine-{machine:05}.ntt");
        assert!(export.join(&name).exists(), "{name} was written");
    }
    for machine in [3, 4] {
        let name = format!("machine-{machine:05}.ntt");
        assert!(!export.join(&name).exists(), "{name} was not written");
    }

    let dump = std::fs::read_to_string(artefacts.join("flight-recorder.jsonl"))
        .expect("the fault dumped the flight recorder");
    let headers: Vec<&str> = dump
        .lines()
        .filter(|line| line.starts_with("{\"flight_recorder\""))
        .collect();
    assert_eq!(headers.len(), 1, "dumped exactly once");
    assert!(
        headers[0].contains("study-fault: warehouse export failed"),
        "{}",
        headers[0]
    );
    let _ = std::fs::remove_dir_all(&export);
    let _ = std::fs::remove_dir_all(&artefacts);
}
