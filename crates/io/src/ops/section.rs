//! Memory-mapped access (§3.3) and the zero-copy MDL interface (§10's
//! closing observation).

use nt_fs::{NtPath, VolumeId};
use nt_sim::{SimDuration, SimTime};
use nt_vm::SectionKind;

use crate::machine::{emit_event, FileKey, Machine, OpReply};
use crate::observer::IoObserver;
use crate::ops::read_write::DataDir;
use crate::request::{EventKind, FastIoKind, IoEvent, MajorFunction};
use crate::stack::IrpFrame;
use crate::status::NtStatus;
use crate::types::{AccessMode, CreateOptions, Disposition, HandleId, ProcessId};

impl<O: IoObserver> Machine<O> {
    /// Loads an executable image through a section: create, section
    /// acquire, paging reads (or a warm standby hit), handle close. The
    /// image stays resident after its process unmaps it, per §3.3.
    ///
    /// The wrapper frame carries no major function — the create it issues
    /// internally descends the stack as its own packet — so a filter sees
    /// the composite once and the create IRP once.
    pub fn load_image(
        &mut self,
        process: ProcessId,
        volume: VolumeId,
        path: &NtPath,
        now: SimTime,
    ) -> OpReply {
        let frame = IrpFrame {
            major: None,
            label: "load_image",
            now,
        };
        self.dispatch(frame, |m, f| m.load_image_fsd(process, volume, path, f.now))
    }

    fn load_image_fsd(
        &mut self,
        process: ProcessId,
        volume: VolumeId,
        path: &NtPath,
        now: SimTime,
    ) -> OpReply {
        let (reply, handle) = self.create(
            process,
            volume,
            path,
            AccessMode::Read,
            Disposition::Open,
            CreateOptions::default(),
            now,
        );
        let Some(handle) = handle else {
            return reply;
        };
        let h = self.handles.get_raw(handle.0).expect("just created");
        let (fo, fcb, node) = (h.fo, h.fcb, h.node);
        let local = self.ns.is_local(volume);
        let key: FileKey = (volume, node);
        let size = self
            .ns
            .volume(volume)
            .ok()
            .and_then(|v| v.file_size(node).ok())
            .unwrap_or(0);

        let t = reply.end;
        // Section acquisition rides FastIO (or its FSCTL packet fallback).
        let acq_end = t + self.latency.fastio_metadata();
        emit_event!(
            self,
            IoEvent {
                kind: self.fastio_event_kind(FastIoKind::AcquireFileForNtCreateSection),
                file_object: fo,
                fcb,
                process,
                volume: volume.0,
                local,
                paging_io: false,
                readahead: false,
                offset: 0,
                length: 0,
                transferred: 0,
                file_size: size,
                byte_offset: 0,
                status: NtStatus::Success,
                start: t,
                end: acq_end,
                access: None,
                disposition: None,
                options: None,
                set_info: None,
                created: false,
            }
        );
        let reads = self.vm.load_image(&key, size, acq_end);
        let mut done = acq_end;
        for r in &reads {
            let fin = self
                .latency
                .disk_io(volume.0 as usize, r.len, acq_end, &mut self.rng);
            done = done.max(fin);
            self.metrics.paging_reads += 1;
            self.metrics.paging_read_bytes += r.len;
            self.emit_read_event(
                EventKind::Irp(MajorFunction::Read),
                fo,
                fcb,
                process,
                volume,
                local,
                true,
                false,
                r.offset,
                r.len,
                r.len,
                size,
                0,
                acq_end,
                fin,
            );
        }
        emit_event!(
            self,
            IoEvent {
                kind: self.fastio_event_kind(FastIoKind::ReleaseFileForNtCreateSection),
                file_object: fo,
                fcb,
                process,
                volume: volume.0,
                local,
                paging_io: false,
                readahead: false,
                offset: 0,
                length: 0,
                transferred: 0,
                file_size: size,
                byte_offset: 0,
                status: NtStatus::Success,
                start: done,
                end: done + self.latency.fastio_metadata(),
                access: None,
                disposition: None,
                options: None,
                set_info: None,
                created: false,
            }
        );
        let close = self.close(handle, done + self.latency.fastio_metadata());
        OpReply {
            status: NtStatus::Success,
            transferred: size,
            end: close.end,
        }
    }

    /// Releases a process's reference on an image section; the pages stay
    /// on the standby list.
    #[cfg(test)]
    fn unload_image(&mut self, volume: VolumeId, path: &NtPath) {
        if let Ok(fr) = self.ns.resolve(volume, path) {
            self.vm.unmap(&(fr.volume, fr.node));
        }
    }

    /// Maps an open file as a data section (scientific codes, §6.1).
    pub fn map_file(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        self.pump(now);
        let Some(h) = self.handles.get_raw_mut(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        h.mapped = true;
        let (volume, node) = (h.volume, h.node);
        let size = self
            .ns
            .volume(volume)
            .ok()
            .and_then(|v| v.file_size(node).ok())
            .unwrap_or(0);
        self.vm.map(&(volume, node), SectionKind::Data, size, now);
        OpReply::at(NtStatus::Success, now + self.latency.fastio_metadata())
    }

    /// Touches a mapped range; page faults become paging reads (§3.3).
    pub fn mapped_read(
        &mut self,
        handle: HandleId,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> OpReply {
        self.pump(now);
        let frame = IrpFrame {
            major: None,
            label: "mapped_read",
            now,
        };
        self.dispatch(frame, |m, f| m.mapped_read_fsd(handle, offset, len, f.now))
    }

    fn mapped_read_fsd(
        &mut self,
        handle: HandleId,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> OpReply {
        let Some(h) = self.handles.get_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let (fo, fcb, volume, node, process) = (h.fo, h.fcb, h.volume, h.node, h.process);
        let local = self.ns.is_local(volume);
        let key: FileKey = (volume, node);
        let size = self
            .ns
            .volume(volume)
            .ok()
            .and_then(|v| v.file_size(node).ok())
            .unwrap_or(0);
        let reads = self.vm.fault(&key, offset, len, now);
        let mut end = now + SimDuration::from_micros(1);
        for r in &reads {
            let fin = self
                .latency
                .disk_io(volume.0 as usize, r.len, now, &mut self.rng);
            end = end.max(fin);
            self.metrics.paging_reads += 1;
            self.metrics.paging_read_bytes += r.len;
            self.emit_read_event(
                EventKind::Irp(MajorFunction::Read),
                fo,
                fcb,
                process,
                volume,
                local,
                true,
                false,
                r.offset,
                r.len,
                r.len,
                size,
                0,
                now,
                fin,
            );
        }
        self.metrics.bytes_read += len.min(size.saturating_sub(offset));
        OpReply {
            status: NtStatus::Success,
            transferred: len.min(size.saturating_sub(offset)),
            end,
        }
    }

    /// An MDL read: the caller is handed a memory descriptor list over
    /// the cache pages instead of a copy. §10: "the cache manager has
    /// functionality to avoid a copy of the data through a direct memory
    /// interface … we observed that only kernel-based services use this
    /// functionality" — in this model, the CIFS server serving remote
    /// clients.
    pub fn mdl_read(&mut self, handle: HandleId, offset: u64, len: u64, now: SimTime) -> OpReply {
        self.pump(now);
        if let Err(reply) = self.data_op(handle, Some(offset), DataDir::Read, now) {
            return reply;
        }
        let frame = IrpFrame {
            major: None,
            label: "mdl_read",
            now,
        };
        self.dispatch(frame, |m, f| m.mdl_read_fsd(handle, offset, len, f.now))
    }

    fn mdl_read_fsd(&mut self, handle: HandleId, offset: u64, len: u64, now: SimTime) -> OpReply {
        let d = match self.data_op(handle, Some(offset), DataDir::Read, now) {
            Ok(d) => d,
            Err(reply) => return reply,
        };
        let file_size = self
            .ns
            .volume(d.volume)
            .ok()
            .and_then(|v| v.file_size(d.node).ok())
            .unwrap_or(0);
        if offset >= file_size {
            let end = now + self.latency.fastio_metadata();
            return OpReply::at(NtStatus::EndOfFile, end);
        }
        self.metrics.read_dispatches += 1;
        let transferred = len.min(file_size - offset);
        // The pages must be resident; misses page in like any read.
        let outcome = self
            .cache
            .read(&d.key, offset, len, file_size, Self::hints_for(d.options));
        self.metrics.cached_read_requested_bytes += transferred;
        let mut done = now;
        for io in &outcome.ios {
            let fin = self
                .latency
                .disk_io(d.volume.0 as usize, io.len, now, &mut self.rng);
            self.metrics.paging_reads += 1;
            self.metrics.paging_read_bytes += io.len;
            self.cache.complete_paging_read(&d.key, io.offset, io.len);
            done = done.max(fin);
            self.emit_read_event(
                EventKind::Irp(MajorFunction::Read),
                d.fo,
                d.fcb,
                d.process,
                d.volume,
                d.local,
                true,
                io.readahead,
                io.offset,
                io.len,
                io.len,
                file_size,
                0,
                now,
                fin,
            );
        }
        // No copy: only the descriptor setup cost.
        let end = done + self.latency.fastio_metadata();
        if self.stack.fastio_supported(FastIoKind::MdlRead) {
            self.metrics.fastio_reads += 1;
        } else {
            self.metrics.irp_reads += 1;
        }
        self.metrics.bytes_read += transferred;
        emit_event!(
            self,
            IoEvent {
                kind: self.fastio_event_kind(FastIoKind::MdlRead),
                file_object: d.fo,
                fcb: d.fcb,
                process: d.process,
                volume: d.volume.0,
                local: d.local,
                paging_io: false,
                readahead: false,
                offset,
                length: len,
                transferred,
                file_size,
                byte_offset: 0,
                status: NtStatus::Success,
                start: now,
                end,
                access: None,
                disposition: None,
                options: None,
                set_info: None,
                created: false,
            }
        );
        // The caller releases the MDL when done.
        let rel = end + self.latency.fastio_metadata();
        emit_event!(
            self,
            IoEvent {
                kind: self.fastio_event_kind(FastIoKind::MdlReadComplete),
                file_object: d.fo,
                fcb: d.fcb,
                process: d.process,
                volume: d.volume.0,
                local: d.local,
                paging_io: false,
                readahead: false,
                offset,
                length: len,
                transferred,
                file_size,
                byte_offset: 0,
                status: NtStatus::Success,
                start: end,
                end: rel,
                access: None,
                disposition: None,
                options: None,
                set_info: None,
                created: false,
            }
        );
        OpReply {
            status: NtStatus::Success,
            transferred,
            end: rel,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testkit::{machine, open_new, t, P};
    use crate::request::{EventKind, FastIoKind};
    use crate::status::NtStatus;
    use nt_fs::NtPath;
    use nt_sim::SimDuration;

    #[test]
    fn image_loads_cold_then_warm() {
        let (mut m, vol) = machine();
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            let d = v.mkdir(root, "winnt", t(0)).unwrap();
            let f = v.create_file(d, "notepad.exe", t(0)).unwrap();
            v.set_file_size(f, 150_000, t(0)).unwrap();
        }
        let path = NtPath::parse(r"\winnt\notepad.exe");
        let r1 = m.load_image(P, vol, &path, t(1));
        assert_eq!(r1.status, NtStatus::Success);
        let cold_paging = m.metrics().paging_reads;
        assert!(cold_paging > 0);
        m.unload_image(vol, &path);
        let r2 = m.load_image(P, vol, &path, t(100));
        assert_eq!(r2.status, NtStatus::Success);
        assert_eq!(
            m.metrics().paging_reads,
            cold_paging,
            "§3.3: warm image load does no paging I/O"
        );
        assert_eq!(m.vm_metrics().warm_image_maps, 1);
    }

    #[test]
    fn mapped_reads_fault_pages_in() {
        let (mut m, vol) = machine();
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            let f = v.create_file(root, "sim.dat", t(0)).unwrap();
            v.set_file_size(f, 1 << 20, t(0)).unwrap();
        }
        let h = open_new(&mut m, vol, r"\sim.dat", t(1));
        m.map_file(h, t(1));
        let r = m.mapped_read(h, 0, 8_192, t(2));
        assert_eq!(r.transferred, 8_192);
        assert!(m.metrics().paging_reads >= 1);
        let again = m.mapped_read(h, 0, 8_192, t(3));
        assert_eq!(
            m.vm_metrics().soft_faults,
            1,
            "second touch is a soft fault"
        );
        assert!(again.end.saturating_since(t(3)) < SimDuration::from_millis(1));
        m.close(h, t(4));
    }

    #[test]
    fn mdl_interface_moves_data_without_copy_cost() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\served.dat", t(1));
        let w = m.write(h, Some(0), 65_536, t(1));
        assert_eq!(w.status, NtStatus::Success);
        let warm = m.mdl_read(h, 0, 65_536, t(2));
        assert_eq!(warm.status, NtStatus::Success);
        // Zero-copy: a 64 KB warm MDL read is as cheap as metadata, far
        // below the ~8 ms a 64 KB copy at memory speed would cost.
        assert!(
            warm.end.saturating_since(t(2)) < SimDuration::from_micros(50),
            "got {}",
            warm.end.saturating_since(t(2))
        );
        // The MDL call pairs appear in the trace.
        let kinds: Vec<EventKind> = m.observer().events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::FastIo(FastIoKind::MdlRead)));
        assert!(kinds.contains(&EventKind::FastIo(FastIoKind::MdlReadComplete)));
        m.close(h, t(3));
    }
}
