//! Application session planners.
//!
//! Each function builds the operation script of one application "session"
//! — the behavioural atoms the paper attributes its traffic to: notepad's
//! 26-system-call save (§1), explorer's structure-driven control storms
//! (§7), the development environment's precompiled-header bursts (§6.1's
//! peak load), the non-Microsoft mailer's single 4 MB buffer and the Java
//! tools' 2–4-byte reads (§10), the WWW-cache churn that dominates §5's
//! daily changes, winlogon's profile sync, and the background services
//! responsible for the §8.3 "volume mounted" storm.

use nt_fs::{NtPath, VolumeId};
use nt_io::{AccessMode, CreateOptions, Disposition};
use nt_sim::SimDuration;
use rand::Rng;

use crate::dist::{heavy_gap, SizeMixture};
use crate::plan::{FileOp, OffsetSpec, PlannedOp};

/// A file an application may target, with the size known to the planner.
#[derive(Clone, Debug)]
pub struct TargetFile {
    /// Volume holding the file.
    pub volume: VolumeId,
    /// Path within the volume.
    pub path: NtPath,
    /// Size when the working set was sampled.
    pub size: u64,
}

fn open(volume: VolumeId, path: &NtPath, access: AccessMode, disposition: Disposition) -> FileOp {
    FileOp::Open {
        volume,
        path: path.clone(),
        access,
        disposition,
        options: CreateOptions::default(),
    }
}

fn open_with(
    volume: VolumeId,
    path: &NtPath,
    access: AccessMode,
    disposition: Disposition,
    options: CreateOptions,
) -> FileOp {
    FileOp::Open {
        volume,
        path: path.clone(),
        access,
        disposition,
        options,
    }
}

fn read_gap(rng: &mut impl Rng) -> SimDuration {
    // §8.2: 80 % of follow-up reads arrive within 90 µs.
    heavy_gap(rng, SimDuration::from_micros(35), 1.5)
}

fn write_gap(rng: &mut impl Rng) -> SimDuration {
    // §8.2: 80 % of writes arrive within 30 µs.
    heavy_gap(rng, SimDuration::from_micros(12), 1.5)
}

/// Notepad's file save (§1): 26 file-system calls, including 3 failed
/// open attempts, 1 file overwrite and 4 additional open/close sequences.
pub fn notepad_save(volume: VolumeId, target: &NtPath, bytes: u64) -> Vec<PlannedOp> {
    let mut plan = Vec::new();
    let g = SimDuration::from_micros(150);
    // 3 probes for files that do not exist (runtime library behaviour):
    // target.tmp variants — 3 ops, all failing.
    for suffix in ["~tmp", "~a", "~b"] {
        let probe = target
            .parent()
            .join(&format!("{}{suffix}", target.file_name().unwrap_or("note")));
        plan.push(PlannedOp::after(
            g,
            open(volume, &probe, AccessMode::Read, Disposition::Open),
        ));
    }
    // 4 auxiliary open/close sequences with an attribute query between
    // (12 ops): runtime name validation and MRU bookkeeping.
    for _ in 0..4 {
        plan.push(PlannedOp::after(
            g,
            open(volume, target, AccessMode::Control, Disposition::OpenIf),
        ));
        plan.push(PlannedOp::then(FileOp::FastQueryInfo));
        plan.push(PlannedOp::then(FileOp::Close));
    }
    // 2 volume-mounted FSCTLs from the common dialog path.
    plan.push(PlannedOp::after(g, FileOp::IsVolumeMounted { volume }));
    plan.push(PlannedOp::then(FileOp::IsVolumeMounted { volume }));
    // The save proper: overwrite-open, 3 buffered writes, SetEof, close
    // (6 ops). 3 + 12 + 2 + 6 = 23; plus the directory probe trio below
    // would overshoot, so the final tally is kept at 26 with one extra
    // query pair on the saved file.
    plan.push(PlannedOp::after(
        g,
        open(volume, target, AccessMode::Write, Disposition::OverwriteIf),
    ));
    let chunk = (bytes / 3).max(1);
    for i in 0..3 {
        plan.push(PlannedOp::after(
            SimDuration::from_micros(20),
            FileOp::Write {
                offset: if i == 0 {
                    OffsetSpec::At(0)
                } else {
                    OffsetSpec::Current
                },
                len: chunk,
            },
        ));
    }
    plan.push(PlannedOp::then(FileOp::SetEof(bytes)));
    plan.push(PlannedOp::then(FileOp::Close));
    // Final attribute check (2 ops at the end brings the total to 26:
    // 3 + 12 + 2 + 6 + 2 = 25 ... plus the QueryInfo below = 26).
    plan.push(PlannedOp::after(
        g,
        open(volume, target, AccessMode::Control, Disposition::Open),
    ));
    plan.push(PlannedOp::then(FileOp::QueryInfo));
    plan.push(PlannedOp::then(FileOp::Close));
    plan
}

/// A control-only stat session: the §8.3-dominant open that performs no
/// data transfer. With `probe_missing` the open fails with not-found —
/// the "open as existence test" §8.4 describes.
pub(crate) fn stat_session(
    volume: VolumeId,
    path: &NtPath,
    probe_missing: bool,
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = vec![PlannedOp::then(open(
        volume,
        path,
        AccessMode::Control,
        Disposition::Open,
    ))];
    if !probe_missing {
        if rng.gen_bool(0.5) {
            plan.push(PlannedOp::then(FileOp::FastQueryInfo));
        } else {
            plan.push(PlannedOp::then(FileOp::QueryInfo));
        }
        if rng.gen_bool(0.08) {
            // A slice of the Win32 surface probes control codes the file
            // system rejects — §8.4's 8 % control-failure population.
            plan.push(PlannedOp::then(FileOp::InvalidControl));
        }
        plan.push(PlannedOp::then(FileOp::Close));
    }
    plan
}

/// Explorer browsing a directory: open it, enumerate, stat a few entries,
/// with the runtime's volume-mounted checks sprinkled in (§8.3).
pub(crate) fn explorer_browse(
    volume: VolumeId,
    dir: &NtPath,
    entries: &[TargetFile],
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = vec![
        PlannedOp::then(FileOp::IsVolumeMounted { volume }),
        PlannedOp::then(open_with(
            volume,
            dir,
            AccessMode::Control,
            Disposition::Open,
            CreateOptions {
                directory: true,
                ..CreateOptions::default()
            },
        )),
        PlannedOp::then(FileOp::EnumerateDir { batch: 32 }),
        PlannedOp::then(FileOp::Close),
    ];

    let stats = entries.len().min(rng.gen_range(2..12));
    for target in entries.iter().take(stats) {
        plan.push(PlannedOp::after(
            heavy_gap(rng, SimDuration::from_micros(400), 1.4),
            FileOp::IsVolumeMounted { volume },
        ));
        plan.extend(stat_session(volume, &target.path, false, rng));
    }
    plan
}

/// Reads a file, mostly whole-file sequential (§6.2's dominant pattern).
/// `style` selects the access pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadStyle {
    /// From byte 0 to EOF in sequential chunks.
    WholeSequential,
    /// A sequential run that starts inside the file or stops early.
    PartialSequential,
    /// Random offsets.
    Random,
}

/// Plans a read-only data session over `target`.
pub(crate) fn read_session(
    target: &TargetFile,
    style: ReadStyle,
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let sizes = SizeMixture::reads();
    let mut plan = vec![PlannedOp::then(open(
        target.volume,
        &target.path,
        AccessMode::Read,
        Disposition::Open,
    ))];
    let size = target.size.max(1);
    // Applications allocate one buffer and reuse it for the whole pass
    // (§10: processes using many operations use targeted buffer sizes;
    // single-shot readers use page-sized or larger buffers). Buffers are
    // sized to finish the file in a handful of requests.
    // Buffers are the stdio-standard sizes: 512 and 4096 dominate (§8.2:
    // 59 % of read requests are exactly one of the two); bigger files get
    // proportionally bigger buffers so sessions stay short.
    let hint = sizes.sample(rng).max(target.size / 6).max(1);
    let buf = match hint {
        0..=1_024 => 512,
        1_025..=8_192 => 4_096,
        8_193..=32_768 => 16_384,
        32_769..=131_072 => 65_536,
        // Very large files are consumed through proportionally large
        // buffers (or memory maps), keeping sessions to a handful of
        // requests.
        _ => (hint.div_ceil(65_536) * 65_536).min(2 << 20),
    };
    match style {
        ReadStyle::WholeSequential => {
            // Nobody streams a whole 200 MB data set through read();
            // passes over very large files stop early (they classify as
            // "other sequential", which is where the paper's big files
            // land too).
            let pass = size.min(8 << 20);
            let mut done = 0u64;
            let mut guard = 0;
            while done < pass && guard < 512 {
                let len = buf.min(pass - done).max(1);
                plan.push(PlannedOp::after(
                    read_gap(rng),
                    FileOp::Read {
                        offset: OffsetSpec::Current,
                        len,
                    },
                ));
                done += len;
                guard += 1;
            }
        }
        ReadStyle::PartialSequential => {
            let start = rng.gen_range(0..size);
            let run = rng.gen_range(1..=size - start);
            plan.push(PlannedOp::then(FileOp::Read {
                offset: OffsetSpec::At(start),
                len: buf.min(run).max(1),
            }));
            let mut done = 0u64;
            let mut guard = 0;
            while done < run && guard < 256 {
                let len = buf.min(run - done).max(1);
                plan.push(PlannedOp::after(
                    read_gap(rng),
                    FileOp::Read {
                        offset: OffsetSpec::Current,
                        len,
                    },
                ));
                done += len;
                guard += 1;
            }
        }
        ReadStyle::Random => {
            let n = rng.gen_range(2..16);
            for _ in 0..n {
                let len = buf;
                let off = rng.gen_range(0..size);
                plan.push(PlannedOp::after(
                    read_gap(rng),
                    FileOp::Read {
                        offset: OffsetSpec::At(off),
                        len,
                    },
                ));
            }
        }
    }
    plan.push(PlannedOp::then(FileOp::Close));
    plan
}

/// A single-I/O read session (§9.1: 31 % of read sessions issue exactly
/// one read; the prefetch it triggers is never used again).
pub(crate) fn peek_session(target: &TargetFile, rng: &mut impl Rng) -> Vec<PlannedOp> {
    let len = SizeMixture::reads().sample(rng).min(target.size.max(1));
    vec![
        PlannedOp::then(open(
            target.volume,
            &target.path,
            AccessMode::Read,
            Disposition::Open,
        )),
        PlannedOp::then(FileOp::Read {
            offset: OffsetSpec::At(0),
            len: len.max(1),
        }),
        PlannedOp::then(FileOp::Close),
    ]
}

/// Creates (or overwrites) a file and writes it sequentially — the
/// whole-file write-only pattern of table 3.
///
/// §9.2's write-control split is built in: most sessions rely on the
/// lazy writer; 4 % "actively control their caching by using flush
/// requests", 87 % of whom flush after every write; and 1.4 % disable
/// write caching at open time with FILE_WRITE_THROUGH.
pub(crate) fn write_session(
    volume: VolumeId,
    path: &NtPath,
    bytes: u64,
    overwrite: bool,
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let sizes = SizeMixture::writes();
    let disposition = if overwrite {
        Disposition::OverwriteIf
    } else {
        Disposition::OpenIf
    };
    let u: f64 = rng.gen();
    let (options, flush_each, flush_end) = if u < 0.014 {
        (
            CreateOptions {
                write_through: true,
                ..CreateOptions::default()
            },
            false,
            false,
        )
    } else if u < 0.014 + 0.04 * 0.87 {
        // The dominant (and wasteful, per §9.2) explicit strategy.
        (CreateOptions::default(), true, false)
    } else if u < 0.014 + 0.04 {
        (CreateOptions::default(), false, true)
    } else {
        (CreateOptions::default(), false, false)
    };
    let mut plan = Vec::new();
    if rng.gen_bool(0.15) {
        // Installers and save dialogs check free space first.
        plan.push(PlannedOp::then(FileOp::QueryVolumeInfo { volume }));
    }
    plan.push(PlannedOp::then(open_with(
        volume,
        path,
        AccessMode::Write,
        disposition,
        options,
    )));
    let mut done = 0u64;
    let mut guard = 0;
    while done < bytes && guard < 512 {
        // §8.2: the write-size distribution is diverse and skews small
        // (single data structures); large buffered writers are the
        // exception (the mailer's 4 MB buffer has its own planner).
        let len = sizes.sample(rng).min(16_384).min(bytes - done).max(1);
        plan.push(PlannedOp::after(
            write_gap(rng),
            FileOp::Write {
                offset: if done == 0 {
                    OffsetSpec::At(0)
                } else {
                    OffsetSpec::Current
                },
                len,
            },
        ));
        if flush_each {
            plan.push(PlannedOp::then(FileOp::Flush));
        }
        done += len;
        guard += 1;
    }
    if flush_end {
        plan.push(PlannedOp::then(FileOp::Flush));
    }
    plan.push(PlannedOp::then(FileOp::Close));
    plan
}

/// A short-lived scratch file (§6.3): create, write, then die — by
/// explicit delete, by overwrite-at-reopen, or (rarely, 1 %) by the
/// temporary attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScratchDeath {
    /// FileDispositionInformation then close (62 % of §6.3 deletions).
    ExplicitDelete {
        /// Pause between the close of the writing open and the delete.
        after: SimDuration,
    },
    /// Recreated with a truncating disposition (37 %).
    Overwrite {
        /// Pause between close and the overwriting open.
        after: SimDuration,
    },
    /// FILE_ATTRIBUTE_TEMPORARY + delete-on-close (1 %).
    Temporary,
}

/// Plans a scratch-file lifetime.
pub(crate) fn scratch_file(
    volume: VolumeId,
    path: &NtPath,
    bytes: u64,
    death: ScratchDeath,
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = Vec::new();
    match death {
        ScratchDeath::Temporary => {
            plan.push(PlannedOp::then(open_with(
                volume,
                path,
                AccessMode::Write,
                Disposition::Create,
                CreateOptions {
                    temporary: true,
                    delete_on_close: true,
                    ..CreateOptions::default()
                },
            )));
            plan.push(PlannedOp::after(
                write_gap(rng),
                FileOp::Write {
                    offset: OffsetSpec::At(0),
                    len: bytes.max(1),
                },
            ));
            plan.push(PlannedOp::then(FileOp::Close));
        }
        ScratchDeath::ExplicitDelete { after } => {
            plan.push(PlannedOp::then(open(
                volume,
                path,
                AccessMode::Write,
                Disposition::OpenIf,
            )));
            plan.push(PlannedOp::after(
                write_gap(rng),
                FileOp::Write {
                    offset: OffsetSpec::At(0),
                    len: bytes.max(1),
                },
            ));
            plan.push(PlannedOp::then(FileOp::Close));
            // Re-open to delete, the DeleteFile way.
            plan.push(PlannedOp::after(
                after,
                open(volume, path, AccessMode::Delete, Disposition::Open),
            ));
            plan.push(PlannedOp::then(FileOp::Delete));
            plan.push(PlannedOp::then(FileOp::Close));
        }
        ScratchDeath::Overwrite { after } => {
            plan.push(PlannedOp::then(open(
                volume,
                path,
                AccessMode::Write,
                Disposition::OpenIf,
            )));
            plan.push(PlannedOp::after(
                write_gap(rng),
                FileOp::Write {
                    offset: OffsetSpec::At(0),
                    len: bytes.max(1),
                },
            ));
            plan.push(PlannedOp::then(FileOp::Close));
            plan.push(PlannedOp::after(
                after,
                open(volume, path, AccessMode::Write, Disposition::OverwriteIf),
            ));
            plan.push(PlannedOp::after(
                write_gap(rng),
                FileOp::Write {
                    offset: OffsetSpec::At(0),
                    len: bytes.max(1),
                },
            ));
            plan.push(PlannedOp::then(FileOp::Close));
        }
    }
    plan
}

/// One development-environment build step (§6.1's peak-load case): read
/// sources, then read+write the 5–8 MB precompiled-header and incremental
/// -link files in large chunks.
pub(crate) fn devenv_build(
    volume: VolumeId,
    sources: &[TargetFile],
    build_dir: &NtPath,
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = Vec::new();
    for src in sources.iter().take(rng.gen_range(3..12)) {
        plan.extend(read_session(src, ReadStyle::WholeSequential, rng));
        // Emit the object file.
        let obj = build_dir.join(&format!("{}.obj", src.path.file_name().unwrap_or("src")));
        plan.extend(write_session(
            volume,
            &obj,
            rng.gen_range(2_000..120_000),
            true,
            rng,
        ));
    }
    // The medium-size support files, read and rewritten in 64 KB chunks.
    let pch = build_dir.join("project.pch");
    let pch_size = rng.gen_range(5_000_000..8_000_000u64);
    let pch_target = TargetFile {
        volume,
        path: pch.clone(),
        size: pch_size,
    };
    plan.extend(write_session(volume, &pch, pch_size, true, rng));
    plan.extend(read_session(&pch_target, ReadStyle::WholeSequential, rng));
    let ilk = build_dir.join("project.ilk");
    plan.extend(write_session(
        volume,
        &ilk,
        rng.gen_range(4_000_000..6_000_000),
        true,
        rng,
    ));
    plan
}

/// The non-Microsoft mailer (§10): appends to its mailbox with a single
/// 4 MB buffer write.
pub(crate) fn mailer_save(volume: VolumeId, mailbox: &NtPath) -> Vec<PlannedOp> {
    vec![
        PlannedOp::then(open(
            volume,
            mailbox,
            AccessMode::Write,
            Disposition::OpenIf,
        )),
        PlannedOp::then(FileOp::Write {
            offset: OffsetSpec::At(0),
            len: 4 << 20,
        }),
        PlannedOp::then(FileOp::Close),
    ]
}

/// A Microsoft Java tool reading a class file in 2- and 4-byte pieces,
/// "often resulting in thousands of reads for a single class file" (§10).
pub(crate) fn java_tool_read(target: &TargetFile, rng: &mut impl Rng) -> Vec<PlannedOp> {
    let mut plan = vec![PlannedOp::then(open(
        target.volume,
        &target.path,
        AccessMode::Read,
        Disposition::Open,
    ))];
    let n = (target.size / 20).clamp(20, 120);
    for _ in 0..n {
        plan.push(PlannedOp::after(
            SimDuration::from_micros(rng.gen_range(2..12)),
            FileOp::Read {
                offset: OffsetSpec::Current,
                len: if rng.gen_bool(0.5) { 2 } else { 4 },
            },
        ));
    }
    plan.push(PlannedOp::then(FileOp::Close));
    plan
}

/// One web-browsing step against the WWW cache (§5: up to 90 % of profile
/// churn): cache probes that miss create new entries; hits re-read them;
/// the cache index is updated with small random-offset writes.
pub(crate) fn browser_step(
    volume: VolumeId,
    cache_dir: &NtPath,
    cached: &[TargetFile],
    seq: u64,
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = Vec::new();
    let fetches = rng.gen_range(1..6);
    for f in 0..fetches {
        if !cached.is_empty() && rng.gen_bool(0.6) {
            // Cache hit: re-read an entry.
            let t = &cached[rng.gen_range(0..cached.len())];
            plan.extend(read_session(t, ReadStyle::WholeSequential, rng));
        } else {
            // Miss: sometimes probe the file system first (fails), then
            // create and fill the entry.
            let name = format!("cache{seq:08}_{f}.htm");
            let path = cache_dir.join(&name);
            if rng.gen_bool(0.4) {
                plan.push(PlannedOp::then(open(
                    volume,
                    &path,
                    AccessMode::Read,
                    Disposition::Open,
                )));
            }
            plan.extend(write_session(
                volume,
                &path,
                rng.gen_range(300..40_000),
                false,
                rng,
            ));
        }
    }
    // Cache eviction: old entries are explicitly deleted to make room
    // (these are the §6.3 DeleteFile deaths the WWW cache mass-produces).
    if !cached.is_empty() && rng.gen_bool(0.5) {
        let victim = &cached[rng.gen_range(0..cached.len())];
        plan.push(PlannedOp::after(
            heavy_gap(rng, SimDuration::from_millis(2), 1.3),
            open(volume, &victim.path, AccessMode::Delete, Disposition::Open),
        ));
        plan.push(PlannedOp::then(FileOp::Delete));
        plan.push(PlannedOp::then(FileOp::Close));
    }
    // Update the cache index with small in-place writes.
    let index = cache_dir.join("index.dat");
    plan.push(PlannedOp::then(open(
        volume,
        &index,
        AccessMode::ReadWrite,
        Disposition::OpenIf,
    )));
    // The index is consulted before being updated: a read-write session
    // with random access — table 3's R/W row.
    plan.push(PlannedOp::then(FileOp::Read {
        offset: OffsetSpec::At((rng.gen_range(0..100_000u64)) & !0x1ff),
        len: 512,
    }));
    for _ in 0..rng.gen_range(2..6) {
        plan.push(PlannedOp::after(
            write_gap(rng),
            FileOp::Write {
                offset: OffsetSpec::At(rng.gen_range(0..120_000) & !0x1ff),
                len: rng.gen_range(16..512),
            },
        ));
    }
    plan.push(PlannedOp::then(FileOp::Close));
    plan
}

/// winlogon's profile download at logon (§5): every changed profile file
/// is rewritten locally from the profile server.
pub(crate) fn winlogon_profile_sync(
    volume: VolumeId,
    profile_dir: &NtPath,
    n_files: usize,
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = vec![PlannedOp::then(FileOp::IsVolumeMounted { volume })];
    for i in 0..n_files {
        let path = profile_dir.join(&format!("sync{i:04}.dat"));
        plan.extend(write_session(
            volume,
            &path,
            rng.gen_range(200..60_000),
            true,
            rng,
        ));
    }
    plan
}

/// A background service heartbeat: the §8.3 control-operation stream that
/// exists even on an "idle" machine.
pub(crate) fn background_service(
    volume: VolumeId,
    log: &NtPath,
    config: &NtPath,
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = vec![PlannedOp::then(FileOp::IsVolumeMounted { volume })];
    plan.extend(stat_session(volume, config, false, rng));
    if rng.gen_bool(0.9) {
        // Services poke unsupported FSCTLs on a regular basis — the
        // §8.4 control-failure population.
        plan.insert(plan.len() - 1, PlannedOp::then(FileOp::InvalidControl));
    }
    // Most heartbeats only poll; some append a log line.
    if rng.gen_bool(0.3) {
        plan.push(PlannedOp::then(open(
            volume,
            log,
            AccessMode::Write,
            Disposition::OpenIf,
        )));
        plan.push(PlannedOp::then(FileOp::Write {
            offset: OffsetSpec::Current,
            len: rng.gen_range(40..200),
        }));
        plan.push(PlannedOp::then(FileOp::Close));
    }
    plan
}

/// A scientific application mapping a 100–300 MB data file and touching
/// small portions at a time (§6.1: they "read small portions of the files
/// at a time, and in many cases do so through memory-mapped files").
pub(crate) fn scientific_session(target: &TargetFile, rng: &mut impl Rng) -> Vec<PlannedOp> {
    let mut plan = vec![
        PlannedOp::then(open(
            target.volume,
            &target.path,
            AccessMode::Read,
            Disposition::Open,
        )),
        PlannedOp::then(FileOp::MapFile),
    ];
    let touches = rng.gen_range(5..60);
    for _ in 0..touches {
        let off = rng.gen_range(0..target.size.max(1));
        plan.push(PlannedOp::after(
            heavy_gap(rng, SimDuration::from_millis(3), 1.4),
            FileOp::MappedRead {
                offset: off & !0xfff,
                len: rng.gen_range(1..6) * 4_096,
            },
        ));
    }
    plan.push(PlannedOp::then(FileOp::Close));
    plan
}

/// loadwc-style service startup (§8.1): "Programs such as loadwc, which
/// manages a user's web subscription content, keep a large number of
/// files open for the duration of the complete user session, which may
/// be days or weeks." The returned plan only opens; the caller keeps the
/// handles via `run_plan_keep_open` and closes them at logoff.
pub fn persistent_service_open(
    volume: VolumeId,
    targets: &[TargetFile],
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = Vec::new();
    let n = rng.gen_range(3..=8).min(targets.len().max(1));
    for t in targets.iter().take(n) {
        plan.push(PlannedOp::after(
            heavy_gap(rng, SimDuration::from_millis(2), 1.4),
            open(volume, &t.path, AccessMode::ReadWrite, Disposition::OpenIf),
        ));
        // The service touches each file once at startup.
        plan.push(PlannedOp::then(FileOp::Read {
            offset: OffsetSpec::At(0),
            len: 4_096,
        }));
    }
    plan
}

/// The CIFS server serving a remote client from a local file (§3.4's
/// trace noise: "the local file systems can be accessed over the network
/// by other systems … in general it was used to copy a few files or to
/// share a test executable"). The server is a kernel service and uses
/// the zero-copy MDL interface (§10).
pub fn cifs_server_session(target: &TargetFile, rng: &mut impl Rng) -> Vec<PlannedOp> {
    let mut plan = vec![PlannedOp::then(open(
        target.volume,
        &target.path,
        AccessMode::Read,
        Disposition::Open,
    ))];
    // The remote client copies the file in SMB-sized chunks.
    let chunk = 32_768u64;
    let mut off = 0;
    let size = target.size.max(1);
    let mut guard = 0;
    while off < size && guard < 256 {
        plan.push(PlannedOp::after(
            // Network round-trips pace the server's reads.
            heavy_gap(rng, SimDuration::from_micros(900), 1.6),
            FileOp::MdlRead {
                offset: off,
                len: chunk.min(size - off),
            },
        ));
        off += chunk;
        guard += 1;
    }
    plan.push(PlannedOp::then(FileOp::Close));
    plan
}

/// A database-engine session (the administrative category's tooling):
/// the file is opened read-write and accessed at random offsets — the
/// table-3 read/write class, 74 % random in the study. Long-running
/// engines keep the file open; this models one batch of page accesses.
pub(crate) fn db_session(target: &TargetFile, rng: &mut impl Rng) -> Vec<PlannedOp> {
    // §9: read caching is disabled for only 0.2 % of data files — mostly
    // system-service databases opened read-write with write-through; all
    // of their requests take the IRP path.
    let options = if rng.gen_bool(0.02) {
        CreateOptions {
            no_intermediate_buffering: true,
            write_through: true,
            ..CreateOptions::default()
        }
    } else {
        CreateOptions::default()
    };
    let mut plan = vec![PlannedOp::then(open_with(
        target.volume,
        &target.path,
        AccessMode::ReadWrite,
        Disposition::OpenIf,
        options,
    ))];
    let accesses = rng.gen_range(4..30);
    let size = target.size.max(8_192);
    // Engines serialise page access with byte-range locks.
    let lock_page = (rng.gen_range(0..size) / 4_096) * 4_096;
    plan.push(PlannedOp::then(FileOp::Lock {
        offset: lock_page,
        len: 4_096,
        exclusive: rng.gen_bool(0.4),
    }));
    for _ in 0..accesses {
        let off = (rng.gen_range(0..size) / 4_096) * 4_096;
        if rng.gen_bool(0.55) {
            plan.push(PlannedOp::after(
                read_gap(rng),
                FileOp::Read {
                    offset: OffsetSpec::At(off),
                    len: 4_096,
                },
            ));
        } else {
            plan.push(PlannedOp::after(
                write_gap(rng),
                FileOp::Write {
                    offset: OffsetSpec::At(off),
                    len: 4_096,
                },
            ));
        }
    }
    plan.push(PlannedOp::then(FileOp::Unlock {
        offset: lock_page,
        len: 4_096,
    }));
    if rng.gen_bool(0.3) {
        plan.push(PlannedOp::then(FileOp::Flush));
    }
    plan.push(PlannedOp::then(FileOp::Close));
    plan
}

/// Launching an application: load the exe image plus a heavy-tailed
/// number of DLLs (§7: "the number of dynamic loadable libraries accessed
/// … obey the characteristics of heavy-tail distributions").
pub(crate) fn app_launch(
    exe: &TargetFile,
    dlls: &[TargetFile],
    configs: &[TargetFile],
    rng: &mut impl Rng,
) -> Vec<PlannedOp> {
    let mut plan = vec![PlannedOp::then(FileOp::LoadImage {
        volume: exe.volume,
        path: exe.path.clone(),
    })];
    if !dlls.is_empty() {
        let n = (crate::dist::Pareto::new(3.0, 1.4).sample(rng) as usize).clamp(2, dlls.len());
        for dll in dlls.iter().take(n) {
            plan.push(PlannedOp::after(
                SimDuration::from_micros(rng.gen_range(50..400)),
                FileOp::LoadImage {
                    volume: dll.volume,
                    path: dll.path.clone(),
                },
            ));
        }
    }
    // Startup also reads regular data files: configuration, resources,
    // MRU lists — classic whole-file read-only sessions.
    if !configs.is_empty() {
        for _ in 0..rng.gen_range(1..4usize) {
            let t = &configs[rng.gen_range(0..configs.len())];
            plan.extend(read_session(t, ReadStyle::WholeSequential, rng));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    const VOL: VolumeId = VolumeId(0);

    fn target(path: &str, size: u64) -> TargetFile {
        TargetFile {
            volume: VOL,
            path: NtPath::parse(path),
            size,
        }
    }

    #[test]
    fn notepad_save_is_26_calls() {
        let plan = notepad_save(VOL, &NtPath::parse(r"\docs\letter.txt"), 900);
        assert_eq!(plan.len(), 26, "§1: saving in notepad is 26 calls");
        // 3 probes that will fail.
        let probes = plan
            .iter()
            .filter(|p| {
                matches!(&p.op, FileOp::Open { disposition, .. } if *disposition == Disposition::Open)
            })
            .count();
        assert!(probes >= 3);
        // Exactly one truncating open.
        let overwrites = plan
            .iter()
            .filter(
                |p| matches!(&p.op, FileOp::Open { disposition, .. } if disposition.truncates()),
            )
            .count();
        assert_eq!(overwrites, 1);
        // Opens and closes balance.
        let opens = plan
            .iter()
            .filter(|p| matches!(&p.op, FileOp::Open { .. }))
            .count();
        let closes = plan
            .iter()
            .filter(|p| matches!(&p.op, FileOp::Close))
            .count();
        // The 3 failed probes never get a close.
        assert_eq!(opens - 3, closes);
    }

    #[test]
    fn read_session_whole_covers_file() {
        let mut r = rng();
        let t = target(r"\data\f.txt", 20_000);
        let plan = read_session(&t, ReadStyle::WholeSequential, &mut r);
        let total: u64 = plan
            .iter()
            .filter_map(|p| match &p.op {
                FileOp::Read { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert!(total >= 20_000, "covers the file, got {total}");
        assert!(matches!(plan.last().unwrap().op, FileOp::Close));
    }

    #[test]
    fn random_style_uses_absolute_offsets() {
        let mut r = rng();
        let t = target(r"\data\f.bin", 1 << 20);
        let plan = read_session(&t, ReadStyle::Random, &mut r);
        assert!(plan.iter().any(|p| matches!(
            &p.op,
            FileOp::Read {
                offset: OffsetSpec::At(_),
                ..
            }
        )));
    }

    #[test]
    fn scratch_file_death_styles() {
        let mut r = rng();
        let p = NtPath::parse(r"\temp\s.tmp");
        let explicit = scratch_file(
            VOL,
            &p,
            100,
            ScratchDeath::ExplicitDelete {
                after: SimDuration::from_millis(1_500),
            },
            &mut r,
        );
        assert!(explicit.iter().any(|s| matches!(s.op, FileOp::Delete)));
        let tmp = scratch_file(VOL, &p, 100, ScratchDeath::Temporary, &mut r);
        assert!(tmp.iter().any(|s| matches!(
            &s.op,
            FileOp::Open { options, .. } if options.temporary && options.delete_on_close
        )));
        let over = scratch_file(
            VOL,
            &p,
            100,
            ScratchDeath::Overwrite {
                after: SimDuration::from_millis(2),
            },
            &mut r,
        );
        let truncating = over
            .iter()
            .filter(
                |s| matches!(&s.op, FileOp::Open { disposition, .. } if disposition.truncates()),
            )
            .count();
        assert_eq!(truncating, 1);
    }

    #[test]
    fn write_sessions_reproduce_the_write_control_split() {
        // §9.2: ~1.4 % write-through opens, ~4 % explicit flushers (87 %
        // of whom flush after every write).
        let mut r = rng();
        let p = NtPath::parse(r"\out.dat");
        let mut write_through = 0;
        let mut flush_each = 0;
        let mut flush_some = 0;
        let n = 4_000;
        for _ in 0..n {
            let plan = write_session(VOL, &p, 30_000, false, &mut r);
            let opens_wt = plan
                .iter()
                .any(|s| matches!(&s.op, FileOp::Open { options, .. } if options.write_through));
            let writes = plan
                .iter()
                .filter(|s| matches!(&s.op, FileOp::Write { .. }))
                .count();
            let flushes = plan
                .iter()
                .filter(|s| matches!(&s.op, FileOp::Flush))
                .count();
            if opens_wt {
                write_through += 1;
            } else if flushes >= writes && writes > 0 {
                flush_each += 1;
            } else if flushes > 0 {
                flush_some += 1;
            }
        }
        let wt = write_through as f64 / n as f64;
        let fe = flush_each as f64 / n as f64;
        let fs = flush_some as f64 / n as f64;
        assert!((0.005..0.03).contains(&wt), "write-through {wt}");
        assert!((0.02..0.06).contains(&fe), "flush-each {fe}");
        assert!(fs < fe, "flush-at-end is the minority of flushers");
    }

    #[test]
    fn mailer_uses_one_4mb_buffer() {
        let plan = mailer_save(VOL, &NtPath::parse(r"\mail\inbox.mbx"));
        let writes: Vec<u64> = plan
            .iter()
            .filter_map(|p| match &p.op {
                FileOp::Write { len, .. } => Some(*len),
                _ => None,
            })
            .collect();
        assert_eq!(writes, vec![4 << 20]);
    }

    #[test]
    fn java_tool_reads_in_2_and_4_byte_pieces() {
        let mut r = rng();
        let t = target(r"\classes\main.class", 3_000);
        let plan = java_tool_read(&t, &mut r);
        let lens: Vec<u64> = plan
            .iter()
            .filter_map(|p| match &p.op {
                FileOp::Read { len, .. } => Some(*len),
                _ => None,
            })
            .collect();
        assert!(lens.len() >= 50);
        assert!(lens.iter().all(|&l| l == 2 || l == 4));
    }

    #[test]
    fn browser_step_probes_and_creates() {
        let mut r = rng();
        let plan = browser_step(VOL, &NtPath::parse(r"\cache"), &[], 7, &mut r);
        // With an empty cache every fetch is a miss: probe + create.
        let failing_probes = plan
            .iter()
            .filter(|p| {
                matches!(&p.op, FileOp::Open { access, disposition, .. }
                    if *access == AccessMode::Read && *disposition == Disposition::Open)
            })
            .count();
        assert!(failing_probes >= 1);
        assert!(plan.iter().any(|p| matches!(&p.op, FileOp::Write { .. })));
    }

    #[test]
    fn explorer_is_control_dominated() {
        let mut r = rng();
        let entries: Vec<TargetFile> = (0..10)
            .map(|i| target(&format!(r"\docs\e{i}.txt"), 1_000))
            .collect();
        let plan = explorer_browse(VOL, &NtPath::parse(r"\docs"), &entries, &mut r);
        let data_ops = plan
            .iter()
            .filter(|p| matches!(&p.op, FileOp::Read { .. } | FileOp::Write { .. }))
            .count();
        assert_eq!(data_ops, 0, "explorer never touches data");
    }

    #[test]
    fn app_launch_loads_exe_and_dlls() {
        let mut r = rng();
        let exe = target(r"\winnt\app.exe", 200_000);
        let dlls: Vec<TargetFile> = (0..20)
            .map(|i| target(&format!(r"\winnt\system32\l{i}.dll"), 80_000))
            .collect();
        let plan = app_launch(&exe, &dlls, &[], &mut r);
        let loads = plan
            .iter()
            .filter(|p| matches!(&p.op, FileOp::LoadImage { .. }))
            .count();
        assert!(loads >= 3, "exe plus at least two dlls, got {loads}");
    }

    #[test]
    fn scientific_session_maps_and_touches() {
        let mut r = rng();
        let t = target(r"\data\run.mat", 200 << 20);
        let plan = scientific_session(&t, &mut r);
        assert!(plan.iter().any(|p| matches!(p.op, FileOp::MapFile)));
        let touches = plan
            .iter()
            .filter(|p| matches!(&p.op, FileOp::MappedRead { .. }))
            .count();
        assert!(touches >= 5);
    }
}
