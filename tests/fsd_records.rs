//! Every trace record the FSD emits, pinned field by field.
//!
//! One machine with a local NTFS volume and a redirector share is driven
//! through every request the FSD records (§3.2): creates that succeed and
//! fail, the data path on both its FastIO and IRP legs, byte-range locks,
//! metadata and directory control, sections and the MDL interface, the
//! two-stage close and the lazy writer. The run is made twice, once with
//! an empty driver stack and once with [`FastIoVeto`] attached, and each
//! record is rendered as one line holding every `IoEvent` field, followed
//! by the file-object records and the final `IoMetrics`. The text must
//! equal `tests/golden/fsd_records.txt` byte for byte.
//!
//! Many of these records never occur in a study run (network-failure
//! reads, lock conflicts, MDL reads, FSCTLs), so no fleet digest covers
//! them; this file does.
//!
//! When a change legitimately moves a record, regenerate with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test fsd_records
//! ```
//!
//! and review the diff like any other source change.

use std::fmt::Write as _;
use std::path::PathBuf;

use nt_fs::{NtPath, VolumeConfig, VolumeId};
use nt_io::{
    AccessMode, CreateOptions, DiskParams, Disposition, EventKind, FastIoVeto, HandleId, IoEvent,
    Machine, MachineConfig, NtStatus, ProcessId, ShareMode, VecObserver,
};
use nt_sim::SimTime;

const P: ProcessId = ProcessId(7);

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn open(
    m: &mut Machine<VecObserver>,
    volume: VolumeId,
    path: &str,
    access: AccessMode,
    disposition: Disposition,
    options: CreateOptions,
    at: SimTime,
) -> (NtStatus, Option<HandleId>) {
    let (reply, handle) = m.create(
        P,
        volume,
        &NtPath::parse(path),
        access,
        disposition,
        options,
        at,
    );
    (reply.status, handle)
}

/// Opens (or creates) `path` for read and write with default options.
fn open_rw(m: &mut Machine<VecObserver>, volume: VolumeId, path: &str, at: SimTime) -> HandleId {
    let (status, handle) = open(
        m,
        volume,
        path,
        AccessMode::ReadWrite,
        Disposition::OpenIf,
        CreateOptions::default(),
        at,
    );
    assert_eq!(status, NtStatus::Success, "open {path}");
    handle.expect("open succeeded")
}

/// Drives one machine through every request the FSD records.
fn drive(m: &mut Machine<VecObserver>) {
    let c = m.add_local_volume(
        'C',
        VolumeConfig::local_ntfs(1 << 30),
        DiskParams::local_ide(),
    );
    let s = m.add_share(
        "fileserv",
        "user$",
        VolumeConfig::local_ntfs(1 << 30),
        DiskParams::network_share(),
    );
    {
        let v = m.namespace_mut().volume_mut(c).unwrap();
        let root = v.root();
        let docs = v.mkdir(root, "docs", ms(0)).unwrap();
        for name in ["a.txt", "b.txt", "c.txt"] {
            v.create_file(docs, name, ms(0)).unwrap();
        }
        let sparse = v.create_file(root, "sparse.dat", ms(0)).unwrap();
        v.set_file_size(sparse, 256 << 10, ms(0)).unwrap();
        let mapped = v.create_file(root, "mapped.dat", ms(0)).unwrap();
        v.set_file_size(mapped, 64 << 10, ms(0)).unwrap();
        let bin = v.mkdir(root, "bin", ms(0)).unwrap();
        let exe = v.create_file(bin, "app.exe", ms(0)).unwrap();
        v.set_file_size(exe, 40_000, ms(0)).unwrap();
    }

    // Creates: a new file, then each failure status.
    let doc = open_rw(m, c, r"\new.txt", ms(10));
    let excl_options = CreateOptions {
        share: ShareMode::default(),
        ..CreateOptions::default()
    };
    let (_, excl) = open(
        m,
        c,
        r"\excl.db",
        AccessMode::ReadWrite,
        Disposition::OpenIf,
        excl_options,
        ms(11),
    );
    let refused = [
        (r"\new.txt", Disposition::Create),
        (r"\excl.db", Disposition::Open),
        (r"\nope.txt", Disposition::Open),
        (r"\nodir\x.txt", Disposition::OpenIf),
        (r"\new.txt\x.txt", Disposition::OpenIf),
    ];
    for (i, (path, disposition)) in refused.into_iter().enumerate() {
        let at = ms(12 + i as u64);
        let (status, _) = open(
            m,
            c,
            path,
            AccessMode::Read,
            disposition,
            CreateOptions::default(),
            at,
        );
        assert!(status.is_error(), "{path} must fail");
    }
    m.close(excl.expect("exclusive open"), ms(18));

    // The data path: the first write initiates caching on the IRP path,
    // later ones ride FastIO; a read past EOF is the one read error.
    m.write(doc, Some(0), 10_000, ms(20));
    m.write(doc, None, 2_000, ms(21));
    m.read(doc, Some(0), 4_096, ms(22));
    m.read(doc, Some(50_000), 100, ms(23));
    let sequential = CreateOptions {
        sequential_only: true,
        ..CreateOptions::default()
    };
    let (_, sparse) = open(
        m,
        c,
        r"\sparse.dat",
        AccessMode::Read,
        Disposition::Open,
        sequential,
        ms(24),
    );
    let sparse = sparse.expect("sparse file opens");
    let mut at = ms(25);
    for _ in 0..4 {
        at = m.read(sparse, None, 16 << 10, at).end;
    }
    let raw_options = CreateOptions {
        no_intermediate_buffering: true,
        ..CreateOptions::default()
    };
    let (_, raw) = open(
        m,
        c,
        r"\raw.bin",
        AccessMode::ReadWrite,
        Disposition::OpenIf,
        raw_options,
        ms(44),
    );
    let raw = raw.expect("raw open");
    m.write(raw, Some(0), 8_192, ms(45));
    m.read(raw, Some(0), 4_096, ms(46));
    let through_options = CreateOptions {
        write_through: true,
        ..CreateOptions::default()
    };
    let (_, through) = open(
        m,
        c,
        r"\through.log",
        AccessMode::Write,
        Disposition::OpenIf,
        through_options,
        ms(47),
    );
    let through = through.expect("write-through open");
    m.write(through, Some(0), 4_096, ms(48));
    m.write(doc, Some(12_000), 3_000, ms(49));
    m.flush(doc, ms(50));

    // A partition: the open remote handle's reads and writes fail on
    // the IRP path, and so does a new remote open.
    let remote = open_rw(m, s, r"\remote.doc", ms(60));
    m.write(remote, Some(0), 2_000, ms(61));
    m.set_network_available(false);
    m.read(remote, Some(0), 1_000, ms(62));
    m.write(remote, Some(0), 1_000, ms(63));
    let (status, _) = open(
        m,
        s,
        r"\other.doc",
        AccessMode::Read,
        Disposition::OpenIf,
        CreateOptions::default(),
        ms(64),
    );
    assert_eq!(status, NtStatus::NetworkUnreachable);
    m.set_network_available(true);

    // Byte-range locks on two handles of one file.
    let holder = open_rw(m, c, r"\lock.db", ms(70));
    m.write(holder, Some(0), 8_192, ms(71));
    let other = open_rw(m, c, r"\lock.db", ms(72));
    m.lock(holder, 0, 100, true, ms(73));
    m.lock(holder, 500, 100, true, ms(74));
    m.lock(other, 0, 50, false, ms(75));
    m.read(other, Some(0), 10, ms(76));
    m.unlock(other, 200, 10, ms(77));
    m.unlock(holder, 500, 100, ms(78));
    // Cleanup releases the remaining lock with UnlockAll; the other
    // handle keeps the file open, so its close IRP follows quickly.
    m.close(holder, ms(79));
    m.close(other, ms(80));

    // Metadata and volume control.
    m.query_information(doc, ms(90));
    m.query_information(HandleId(0xdead), ms(91));
    m.fast_query_basic(doc, ms(92));
    m.is_volume_mounted(P, c, ms(93));
    m.query_volume_information(P, c, ms(94));
    m.query_volume_information(P, VolumeId(9), ms(95));
    m.invalid_control(doc, ms(96));
    m.set_end_of_file(doc, 6_000, ms(97));

    // Directory control: three queries of two entries, a query and a
    // watch on a file handle (both refused), and a watch that the rename
    // below completes.
    let dir_options = CreateOptions {
        directory: true,
        ..CreateOptions::default()
    };
    let (_, dir) = open(
        m,
        c,
        r"\docs",
        AccessMode::Control,
        Disposition::Open,
        dir_options,
        ms(100),
    );
    let dir = dir.expect("directory opens");
    for i in 0..3 {
        m.query_directory(dir, 2, ms(101 + i));
    }
    m.query_directory(doc, 2, ms(104));
    m.watch_directory(doc, ms(105));
    m.watch_directory(dir, ms(106));
    m.rename(doc, &NtPath::parse(r"\docs\renamed.txt"), ms(107));
    let doomed = open_rw(m, c, r"\doomed.txt", ms(108));
    m.write(doomed, Some(0), 100, ms(109));
    m.set_delete_disposition(doomed, ms(110));
    m.close(doomed, ms(111));
    m.close(dir, ms(112));

    // Sections and the MDL interface.
    let image = NtPath::parse(r"\bin\app.exe");
    m.load_image(P, c, &image, ms(120));
    m.load_image(P, c, &image, ms(200));
    let mapped = open_rw(m, c, r"\mapped.dat", ms(210));
    m.map_file(mapped, ms(211));
    m.mapped_read(mapped, 0, 8_192, ms(212));
    m.mapped_read(mapped, 0, 8_192, ms(213));
    m.mdl_read(mapped, 16_384, 8_192, ms(214));
    m.mdl_read(doc, 0, 4_096, ms(215));
    m.mdl_read(doc, 100_000, 4_096, ms(216));
    m.close(mapped, ms(217));

    // Closes and the lazy writer: a temporary file dies at cleanup; a
    // dirty file's close waits for the drain; a still-open file's dirty
    // pages are written with no file object; an overwrite releases a
    // close that was waiting on the data it destroys.
    let temp_options = CreateOptions {
        temporary: true,
        delete_on_close: true,
        ..CreateOptions::default()
    };
    let (_, temp) = open(
        m,
        c,
        r"\scratch.tmp",
        AccessMode::Write,
        Disposition::Create,
        temp_options,
        ms(220),
    );
    let temp = temp.expect("temporary file opens");
    m.write(temp, Some(0), 4_096, ms(221));
    m.close(temp, ms(222));
    m.close(doc, ms(223));
    m.close(sparse, ms(224));
    let orphan = open_rw(m, c, r"\orphan.log", ms(225));
    m.write(orphan, Some(0), 5_000, ms(226));
    m.lazy_tick(ms(1_300));
    let overwritten = open_rw(m, c, r"\over.txt", ms(1_310));
    m.write(overwritten, Some(0), 3_000, ms(1_311));
    m.close(overwritten, ms(1_312));
    let (_, again) = open(
        m,
        c,
        r"\over.txt",
        AccessMode::Write,
        Disposition::OverwriteIf,
        CreateOptions::default(),
        ms(1_313),
    );
    m.close(again.expect("overwrite opens"), ms(1_320));
    m.close(orphan, ms(1_321));
    m.drain_lazy_writer(ms(1_400), 16);
    m.pump(ms(60_000));
}

fn kind(k: EventKind) -> String {
    match k {
        EventKind::Irp(major) => format!("Irp:{major:?}"),
        EventKind::FastIo(routine) => format!("FastIo:{routine:?}"),
    }
}

fn flag(b: bool) -> u8 {
    u8::from(b)
}

fn options(o: &CreateOptions) -> String {
    let flags = [
        (o.sequential_only, 's'),
        (o.write_through, 'w'),
        (o.no_intermediate_buffering, 'n'),
        (o.delete_on_close, 'd'),
        (o.temporary, 't'),
        (o.directory, 'D'),
    ];
    let share = [
        (o.share.read, 'r'),
        (o.share.write, 'w'),
        (o.share.delete, 'd'),
    ];
    let pick = |set: &[(bool, char)]| -> String {
        set.iter().filter(|(on, _)| *on).map(|(_, c)| *c).collect()
    };
    format!("{}/{}", pick(&flags), pick(&share))
}

fn or_dash<T: std::fmt::Debug>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:?}"))
}

/// One line holding every field of `e`.
fn record_line(e: &IoEvent) -> String {
    let fcb = if e.fcb.0 == u64::MAX {
        "MAX".to_string()
    } else {
        e.fcb.0.to_string()
    };
    format!(
        "{} fo={} fcb={} p={} v={} local={} pg={} ra={} off={} len={} xfer={} size={} bo={} \
         {:?} {}..{} acc={} disp={} opt={} si={} new={}",
        kind(e.kind),
        e.file_object.0,
        fcb,
        e.process.0,
        e.volume,
        flag(e.local),
        flag(e.paging_io),
        flag(e.readahead),
        e.offset,
        e.length,
        e.transferred,
        e.file_size,
        e.byte_offset,
        e.status,
        e.start.ticks(),
        e.end.ticks(),
        or_dash(e.access),
        or_dash(e.disposition),
        e.options.as_ref().map_or_else(|| "-".to_string(), options),
        or_dash(e.set_info),
        flag(e.created),
    )
}

/// Runs the scenario on a fresh machine and renders what it recorded.
fn render(label: &str, veto: bool) -> String {
    let mut m = Machine::new(
        MachineConfig {
            seed: 26,
            ..MachineConfig::default()
        },
        VecObserver::default(),
    );
    if veto {
        m.attach_filter(Box::new(FastIoVeto));
    }
    drive(&mut m);
    let observer = m.observer();
    assert_eq!(
        m.metrics().events_emitted,
        observer.events.len() as u64,
        "every counted record reached the observer"
    );
    if veto {
        assert!(observer.events.iter().all(|e| !e.kind.is_fastio()));
    }
    let mut out = String::new();
    writeln!(out, "# {label}: {} records", observer.events.len()).unwrap();
    for e in &observer.events {
        writeln!(out, "{}", record_line(e)).unwrap();
    }
    writeln!(out, "# {label}: {} file objects", observer.objects.len()).unwrap();
    for o in &observer.objects {
        writeln!(
            out,
            "fo={} v={} p={} at={} {}",
            o.id.0,
            o.volume,
            o.process.0,
            o.at.ticks(),
            o.path
        )
        .unwrap();
    }
    writeln!(out, "# {label}: metrics").unwrap();
    writeln!(out, "{:?}", m.metrics()).unwrap();
    out
}

fn golden_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("fsd_records.txt")
}

#[test]
fn every_fsd_record_matches_the_golden_file() {
    let measured = render("bare stack", false) + &render("FastIoVeto attached", true);
    let path = golden_file();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &measured).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    for (i, (got, want)) in measured.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} of {} differs", i + 1, path.display());
    }
    assert_eq!(
        measured.lines().count(),
        golden.lines().count(),
        "record count drifted; if intentional, GOLDEN_REGEN=1 and review the diff"
    );
    assert_eq!(measured, golden);
}
