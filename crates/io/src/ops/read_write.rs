//! The data path: reads, writes and flushes, with the §10 FastIO-vs-IRP
//! split.
//!
//! All three data entry points ([`Machine::read`], [`Machine::write`],
//! [`Machine::mdl_read`]) share one prologue —
//! `Machine::data_op` — that validates the handle, checks the access
//! mode and extracts the fields the FSD needs; the FastIO-vs-IRP
//! epilogue both copy paths share lives in `Machine::data_path`. The
//! IRP descent itself happens in the caller via
//! `Machine::dispatch`, so filter
//! drivers see every data request whichever path the FSD ends up taking.

use nt_fs::NodeId;
use nt_sim::SimTime;

use crate::arena::ArenaHandle;
use crate::machine::{emit_event, FileKey, Machine, OpReply, Origin};
use crate::observer::IoObserver;
use crate::request::{EventKind, FastIoKind, IoEvent, MajorFunction};
use crate::stack::IrpFrame;
use crate::status::NtStatus;
use crate::types::{CreateOptions, HandleId};

/// Which half of the data path a request rides; selects the access
/// check, the § 8.4 failure counters and the FastIO entry points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum DataDir {
    Read,
    Write,
}

/// Everything the shared prologue extracts from a validated data handle.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DataOp {
    pub(crate) origin: Origin,
    pub(crate) fcb_slot: ArenaHandle,
    pub(crate) node: NodeId,
    pub(crate) options: CreateOptions,
    pub(crate) byte_offset: u64,
    /// The effective request offset (explicit, or the handle's cursor).
    pub(crate) offset: u64,
    pub(crate) key: FileKey,
}

impl<O: IoObserver> Machine<O> {
    /// The prologue every data operation shares, FastIO and IRP alike:
    /// validate the handle, check the access mode, resolve the offset and
    /// pull out the fields the FSD works with.
    pub(crate) fn data_op(
        &self,
        handle: HandleId,
        offset: Option<u64>,
        dir: DataDir,
        now: SimTime,
    ) -> Result<DataOp, OpReply> {
        let Some(h) = self.handles.get_raw(handle.0) else {
            return Err(OpReply::at(NtStatus::InvalidHandle, now));
        };
        let allowed = match dir {
            DataDir::Read => h.access.can_read(),
            DataDir::Write => h.access.can_write(),
        };
        if !allowed {
            return Err(OpReply::at(NtStatus::AccessDenied, now));
        }
        Ok(DataOp {
            origin: h.origin,
            fcb_slot: h.fcb_slot,
            node: h.node,
            options: h.options,
            byte_offset: h.byte_offset,
            offset: offset.unwrap_or(h.byte_offset),
            key: (h.origin.volume, h.node),
        })
    }

    /// Fails the request when the target is remote and the link is
    /// partitioned; the failure rides the IRP path with zero payload.
    fn data_network_guard(
        &mut self,
        d: &DataOp,
        dir: DataDir,
        len: u64,
        now: SimTime,
    ) -> Option<OpReply> {
        if self.network_up || self.ns.is_local(d.origin.volume) {
            return None;
        }
        let end = now + self.latency.irp_cached(0);
        self.metrics.network_failures += 1;
        let major = match dir {
            DataDir::Read => {
                self.metrics.irp_reads += 1;
                MajorFunction::Read
            }
            DataDir::Write => {
                self.metrics.irp_writes += 1;
                MajorFunction::Write
            }
        };
        let status = NtStatus::NetworkUnreachable;
        emit_event!(
            self,
            IoEvent {
                offset: d.offset,
                length: len,
                byte_offset: d.byte_offset,
                status,
                ..self.record(d.origin, EventKind::Irp(major), now, end)
            }
        );
        Some(OpReply::at(status, end))
    }

    /// Byte-range lock arbitration: another handle's conflicting lock
    /// bounces the request with no event (the FSD refuses it before any
    /// transfer starts).
    fn data_lock_guard(
        &mut self,
        handle: HandleId,
        d: &DataOp,
        dir: DataDir,
        len: u64,
        now: SimTime,
    ) -> Option<OpReply> {
        let t = self.shares.locks(d.fcb_slot)?;
        let allowed = match dir {
            DataDir::Read => t.read_allowed(handle, d.offset, len),
            DataDir::Write => t.write_allowed(handle, d.offset, len),
        };
        if allowed {
            return None;
        }
        self.metrics.lock_conflicts += 1;
        match dir {
            DataDir::Read => self.metrics.read_lock_conflicts += 1,
            DataDir::Write => self.metrics.write_lock_conflicts += 1,
        }
        let end = now + self.latency.irp_cached(0);
        Some(OpReply::at(NtStatus::FileLockConflict, end))
    }

    /// The §10 path split both copy ops share. `fast` is the FSD's
    /// verdict (warm map, nothing forced to disk, FastIO not ablated);
    /// the effective FastIO table can still veto the procedural path, in
    /// which case the call is relabelled onto its IRP fallback at the
    /// same service time. Counters follow the path the event reports.
    fn data_path(
        &mut self,
        dir: DataDir,
        fast: bool,
        compressed: bool,
        bytes: u64,
        slow_end: SimTime,
        now: SimTime,
    ) -> (EventKind, SimTime) {
        let (kind, end) = if fast {
            let fastio = match (dir, compressed) {
                (DataDir::Read, false) => FastIoKind::Read,
                (DataDir::Read, true) => FastIoKind::ReadCompressed,
                (DataDir::Write, false) => FastIoKind::Write,
                (DataDir::Write, true) => FastIoKind::WriteCompressed,
            };
            // Compressed files pay the (de)compression penalty on top of
            // the cache copy.
            let copy = if compressed {
                self.latency.fastio_copy(bytes) * 2
            } else {
                self.latency.fastio_copy(bytes)
            };
            (self.fastio_event_kind(fastio), now + copy)
        } else {
            let major = match dir {
                DataDir::Read => MajorFunction::Read,
                DataDir::Write => MajorFunction::Write,
            };
            (EventKind::Irp(major), slow_end)
        };
        match (dir, matches!(kind, EventKind::FastIo(_))) {
            (DataDir::Read, true) => self.metrics.fastio_reads += 1,
            (DataDir::Read, false) => self.metrics.irp_reads += 1,
            (DataDir::Write, true) => self.metrics.fastio_writes += 1,
            (DataDir::Write, false) => self.metrics.irp_writes += 1,
        }
        (kind, end)
    }

    /// Reads `len` bytes at `offset` (or the current byte offset).
    pub fn read(
        &mut self,
        handle: HandleId,
        offset: Option<u64>,
        len: u64,
        now: SimTime,
    ) -> OpReply {
        self.pump(now);
        let d = match self.data_op(handle, offset, DataDir::Read, now) {
            Ok(d) => d,
            Err(reply) => return reply,
        };
        let frame = IrpFrame {
            major: Some(MajorFunction::Read),
            label: "read",
            now,
        };
        self.dispatch(frame, |m, f| m.read_fsd(handle, d, len, f.now))
    }

    fn read_fsd(&mut self, handle: HandleId, d: DataOp, len: u64, now: SimTime) -> OpReply {
        self.metrics.read_dispatches += 1;
        if let Some(reply) = self.data_network_guard(&d, DataDir::Read, len, now) {
            return reply;
        }
        let file_size = match self
            .ns
            .volume(d.origin.volume)
            .and_then(|v| v.file_size(d.node))
        {
            Ok(s) => s,
            Err(e) => {
                self.metrics.read_stat_failures += 1;
                return OpReply::at(NtStatus::from(e), now);
            }
        };
        let read = |m: &Self, kind, end| IoEvent {
            offset: d.offset,
            length: len,
            file_size,
            byte_offset: d.byte_offset,
            ..m.record(d.origin, kind, now, end)
        };
        if d.offset >= file_size {
            // §8.4: reads past end-of-file are the only read errors seen.
            let end = now + self.latency.irp_cached(0);
            self.metrics.read_errors += 1;
            self.metrics.irp_reads += 1;
            let status = NtStatus::EndOfFile;
            emit_event!(
                self,
                IoEvent {
                    status,
                    ..read(self, EventKind::Irp(MajorFunction::Read), end)
                }
            );
            return OpReply::at(status, end);
        }
        if let Some(reply) = self.data_lock_guard(handle, &d, DataDir::Read, len, now) {
            return reply;
        }
        let transferred = len.min(file_size - d.offset);
        let volume = d.origin.volume;
        let _ = self
            .ns
            .volume_mut(volume)
            .and_then(|v| v.note_read(d.node, now));

        let (kind, end) = if d.options.no_intermediate_buffering {
            // §9: caching disabled at open; everything takes the IRP path
            // straight to the disk.
            let end = self
                .latency
                .disk_io(volume.0 as usize, transferred, now, &mut self.rng);
            self.metrics.irp_reads += 1;
            (EventKind::Irp(MajorFunction::Read), end)
        } else {
            let outcome =
                self.cache
                    .read(&d.key, d.offset, len, file_size, Self::hints_for(d.options));
            // The map existed before this request exactly when the read
            // did not have to initiate caching — saves a second map walk.
            let was_cached = !outcome.initiated_caching;
            self.metrics.cached_read_requested_bytes += transferred;

            // NTFS compression: half the bytes move on the disk, and
            // every cache copy pays a decompression penalty (the
            // follow-up traces the paper mentions looked at exactly these
            // reads).
            let compressed = self.is_compressed(volume, d.node);

            // Issue background read-ahead regardless of path.
            let mut demand_done = now;
            for io in &outcome.ios {
                let disk_bytes = if compressed { io.len / 2 } else { io.len };
                let done = self
                    .latency
                    .disk_io(volume.0 as usize, disk_bytes, now, &mut self.rng);
                self.metrics.paging_reads += 1;
                self.metrics.paging_read_bytes += io.len;
                emit_event!(
                    self,
                    IoEvent {
                        paging_io: true,
                        readahead: io.readahead,
                        offset: io.offset,
                        length: io.len,
                        transferred: io.len,
                        ..read(self, EventKind::Irp(MajorFunction::Read), done)
                    }
                );
                if io.readahead && was_cached {
                    // Run-length-triggered read-ahead streams in the
                    // background; pages appear when the disk delivers
                    // them.
                    self.schedule(
                        done,
                        crate::machine::Pending::RaComplete {
                            key: d.key,
                            offset: io.offset,
                            len: io.len,
                        },
                    );
                } else {
                    // Demand misses, and the caching-initiation prefetch:
                    // the first IRP read blocks until the read-ahead unit
                    // is in the cache (§9.1's "single prefetch"
                    // behaviour).
                    self.cache.complete_paging_read(&d.key, io.offset, io.len);
                    demand_done = demand_done.max(done);
                }
            }

            // First read (caching initiation) or a miss bounces the
            // FastIO attempt back to the IRP path.
            let fast = was_cached && outcome.hit && !self.config.disable_fastio;
            let slow_end = if outcome.hit {
                now + self.latency.irp_cached(transferred)
            } else {
                demand_done + self.latency.fastio_copy(transferred)
            };
            self.data_path(DataDir::Read, fast, compressed, transferred, slow_end, now)
        };
        self.metrics.bytes_read += transferred;
        emit_event!(
            self,
            IoEvent {
                transferred,
                ..read(self, kind, end)
            }
        );
        self.advance_offset(handle, d.offset + transferred);
        OpReply {
            status: NtStatus::Success,
            transferred,
            end,
        }
    }

    /// Writes `len` bytes at `offset` (or the current byte offset).
    pub fn write(
        &mut self,
        handle: HandleId,
        offset: Option<u64>,
        len: u64,
        now: SimTime,
    ) -> OpReply {
        self.pump(now);
        let d = match self.data_op(handle, offset, DataDir::Write, now) {
            Ok(d) => d,
            Err(reply) => return reply,
        };
        let frame = IrpFrame {
            major: Some(MajorFunction::Write),
            label: "write",
            now,
        };
        self.dispatch(frame, |m, f| m.write_fsd(handle, d, len, f.now))
    }

    fn write_fsd(&mut self, handle: HandleId, d: DataOp, len: u64, now: SimTime) -> OpReply {
        self.metrics.write_dispatches += 1;
        if let Some(reply) = self.data_network_guard(&d, DataDir::Write, len, now) {
            return reply;
        }
        if let Some(reply) = self.data_lock_guard(handle, &d, DataDir::Write, len, now) {
            return reply;
        }
        let volume = d.origin.volume;
        // Extend the file; disk-full is the only write failure mode and
        // the study saw none (workloads stay within capacity).
        if let Err(e) = self
            .ns
            .volume_mut(volume)
            .and_then(|v| v.note_write(d.node, d.offset, len, now))
        {
            self.metrics.write_stat_failures += 1;
            let end = now + self.latency.irp_cached(0);
            return OpReply::at(NtStatus::from(e), end);
        }
        if let Some(fcb_entry) = self.fcbs.get_mut(d.fcb_slot) {
            fcb_entry.written = true;
        }
        let file_size = self.file_size_of(volume, d.node);
        let write = |m: &Self, kind, end| IoEvent {
            offset: d.offset,
            length: len,
            transferred: len,
            file_size,
            byte_offset: d.byte_offset,
            ..m.record(d.origin, kind, now, end)
        };

        let (kind, end) = if d.options.no_intermediate_buffering {
            let end = self
                .latency
                .disk_io(volume.0 as usize, len, now, &mut self.rng);
            self.metrics.irp_writes += 1;
            (EventKind::Irp(MajorFunction::Write), end)
        } else {
            let outcome =
                self.cache
                    .write(&d.key, d.offset, len, file_size, Self::hints_for(d.options));
            let was_cached = !outcome.initiated_caching;

            // Write-through paging writes go to disk now; the request
            // waits.
            let mut forced_done = now;
            for io in &outcome.ios {
                let done = self
                    .latency
                    .disk_io(volume.0 as usize, io.len, now, &mut self.rng);
                forced_done = forced_done.max(done);
                self.metrics.paging_writes += 1;
                self.metrics.paging_write_bytes += io.len;
                emit_event!(
                    self,
                    IoEvent {
                        paging_io: true,
                        offset: io.offset,
                        length: io.len,
                        transferred: io.len,
                        ..write(self, EventKind::Irp(MajorFunction::Write), done)
                    }
                );
            }

            let compressed = self.is_compressed(volume, d.node);
            // §10: 96 % of writes ride FastIO into the cache.
            let fast = was_cached && outcome.ios.is_empty() && !self.config.disable_fastio;
            let slow_end = if outcome.ios.is_empty() {
                now + self.latency.irp_cached(len)
            } else {
                forced_done
            };
            self.data_path(DataDir::Write, fast, compressed, len, slow_end, now)
        };
        self.metrics.bytes_written += len;
        emit_event!(self, write(self, kind, end));
        self.advance_offset(handle, d.offset + len);
        OpReply {
            status: NtStatus::Success,
            transferred: len,
            end,
        }
    }

    /// FlushFileBuffers: forces the file's dirty pages to disk (§9.2 — the
    /// dominant explicit strategy was flushing after every write).
    pub fn flush(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        self.pump(now);
        let Some(h) = self.handles.get_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let (origin, node) = (h.origin, h.node);
        let frame = IrpFrame {
            major: Some(MajorFunction::FlushBuffers),
            label: "flush",
            now,
        };
        self.dispatch(frame, |m, f| m.flush_fsd(origin, node, f.now))
    }

    fn flush_fsd(&mut self, origin: Origin, node: NodeId, now: SimTime) -> OpReply {
        let volume = origin.volume;
        let ios = self.cache.flush(&(volume, node));
        let mut end = now + self.latency.metadata_op();
        let file_size = self.file_size_of(volume, node);
        for io in &ios {
            let done = self
                .latency
                .disk_io(volume.0 as usize, io.len, now, &mut self.rng);
            end = end.max(done);
            self.metrics.paging_writes += 1;
            self.metrics.paging_write_bytes += io.len;
            emit_event!(
                self,
                IoEvent {
                    paging_io: true,
                    offset: io.offset,
                    length: io.len,
                    transferred: io.len,
                    file_size,
                    ..self.record(origin, EventKind::Irp(MajorFunction::Write), now, done)
                }
            );
        }
        self.metrics.control_ops += 1;
        let kind = EventKind::Irp(MajorFunction::FlushBuffers);
        emit_event!(
            self,
            IoEvent {
                file_size,
                ..self.record(origin, kind, now, end)
            }
        );
        OpReply::at(NtStatus::Success, end)
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testkit::{machine, open_new, t};
    use crate::request::{EventKind, FastIoKind};
    use crate::status::NtStatus;
    use nt_sim::SimDuration;

    #[test]
    fn first_read_is_irp_subsequent_are_fastio() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\data.bin", t(1));
        m.write(h, Some(0), 20_000, t(1));
        m.close(h, t(2));
        // Drain the lazy writer so the close completes.
        for s in 3..10 {
            m.lazy_tick(t(s));
        }
        let h = open_new(&mut m, vol, r"\data.bin", t(20));
        let r1 = m.read(h, Some(0), 4_096, t(20));
        assert_eq!(r1.status, NtStatus::Success);
        assert_eq!(r1.transferred, 4_096);
        let r2 = m.read(h, None, 4_096, r1.end + SimDuration::from_millis(1));
        assert_eq!(r2.transferred, 4_096, "sequential read from byte offset");
        let reads: Vec<_> = m
            .observer()
            .events
            .iter()
            .filter(|e| e.kind.is_read() && !e.paging_io)
            .collect();
        assert!(reads.len() >= 2);
        // The cache was still warm from the writes, so even the first read
        // hits; what matters is the split exists and FastIO is used once
        // cached.
        assert!(m.metrics().fastio_reads >= 1, "metrics: {:?}", m.metrics());
    }

    #[test]
    fn cold_read_pays_disk_latency_then_hits() {
        let (mut m, vol) = machine();
        // Build the file directly in the namespace (pre-existing content).
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            let f = v.create_file(root, "big.dat", t(0)).unwrap();
            v.set_file_size(f, 200_000, t(0)).unwrap();
        }
        let h = open_new(&mut m, vol, r"\big.dat", t(1));
        let r1 = m.read(h, Some(0), 4_096, t(1));
        let lat1 = r1.end.saturating_since(t(1));
        assert!(
            lat1 >= SimDuration::from_millis(1),
            "cold read hits the disk, got {lat1}"
        );
        assert_eq!(m.metrics().irp_reads, 1);
        assert!(m.metrics().paging_reads >= 1, "demand paging read issued");
        let t2 = r1.end + SimDuration::from_millis(1);
        let r2 = m.read(h, None, 4_096, t2);
        let lat2 = r2.end.saturating_since(t2);
        assert!(
            lat2 < SimDuration::from_millis(1),
            "warm read is a cache copy, got {lat2}"
        );
        assert_eq!(m.metrics().fastio_reads, 1);
    }

    #[test]
    fn read_past_eof_is_the_only_read_error() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\f.txt", t(1));
        m.write(h, Some(0), 100, t(1));
        let r = m.read(h, Some(500), 100, t(2));
        assert_eq!(r.status, NtStatus::EndOfFile);
        assert_eq!(m.metrics().read_errors, 1);
    }

    #[test]
    fn writes_ride_fastio_once_cached() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\log.txt", t(1));
        m.write(h, Some(0), 512, t(1));
        for i in 1..20u64 {
            m.write(h, None, 512, t(1) + SimDuration::from_micros(100 * i));
        }
        let metrics = m.metrics();
        assert_eq!(metrics.irp_writes, 1, "only the initiating write is IRP");
        assert_eq!(metrics.fastio_writes, 19);
        assert!(
            metrics.fastio_writes as f64 / (metrics.fastio_writes + metrics.irp_writes) as f64
                > 0.9
        );
    }

    #[test]
    fn compressed_files_ride_the_compressed_fastio_entries() {
        let (mut m, vol) = machine();
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            let f = v.create_file(root, "big.cab", t(0)).unwrap();
            v.set_file_size(f, 400_000, t(0)).unwrap();
            v.set_attributes(f, nt_fs::FileAttributes::COMPRESSED)
                .unwrap();
        }
        let h = open_new(&mut m, vol, r"\big.cab", t(1));
        let r1 = m.read(h, Some(0), 4_096, t(1));
        assert_eq!(r1.status, NtStatus::Success);
        let t2 = r1.end + SimDuration::from_millis(1);
        let r2 = m.read(h, Some(0), 4_096, t2);
        assert_eq!(r2.status, NtStatus::Success);
        m.write(h, Some(0), 4_096, r2.end + SimDuration::from_millis(1));
        let kinds: Vec<EventKind> = m.observer().events.iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains(&EventKind::FastIo(FastIoKind::ReadCompressed)),
            "warm read decompresses: {kinds:?}"
        );
        assert!(kinds.contains(&EventKind::FastIo(FastIoKind::WriteCompressed)));
        // The decompression penalty makes the warm read slower than an
        // uncompressed copy would be, but still far from disk latency.
        let warm = r2.end.saturating_since(t2);
        assert!(warm < SimDuration::from_millis(1), "got {warm}");
        m.close(h, t(9));
    }
}
