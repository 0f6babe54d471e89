//! Metadata queries and sets, volume control and the §8.3/§8.4 control
//! traffic.

use nt_fs::{NtPath, VolumeId};
use nt_sim::SimTime;

use crate::machine::{emit_event, Machine, OpReply};
use crate::observer::IoObserver;
use crate::request::{EventKind, FastIoKind, IoEvent, MajorFunction, SetInfoKind};
use crate::stack::IrpFrame;
use crate::status::NtStatus;
use crate::types::{FcbId, FileObjectId, HandleId, ProcessId};

impl<O: IoObserver> Machine<O> {
    /// Generic metadata operation helper (query information, set basic
    /// information, volume queries, FSCTLs). `status` decides the §8.4
    /// control-failure accounting.
    pub(crate) fn metadata_irp(
        &mut self,
        kind: EventKind,
        handle: Option<HandleId>,
        set_info: Option<SetInfoKind>,
        status: NtStatus,
        now: SimTime,
    ) -> OpReply {
        self.pump(now);
        let (fo, fcb, volume, process) = match handle.and_then(|h| self.handles.get_raw(h.0)) {
            Some(h) => (h.fo, h.fcb, h.volume, h.process),
            None => (FileObjectId(0), FcbId(u64::MAX), VolumeId(0), ProcessId(0)),
        };
        let local = self.ns.is_local(volume);
        let end = now + self.latency.metadata_op();
        self.metrics.control_ops += 1;
        if status.is_error() {
            self.metrics.control_failures += 1;
        }
        emit_event!(
            self,
            IoEvent {
                kind,
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
                file_size: 0,
                byte_offset: 0,
                status,
                start: now,
                end,
                access: None,
                disposition: None,
                options: None,
                set_info,
                created: false,
            }
        );
        OpReply::at(status, end)
    }

    /// Builds the frame a handle-addressed metadata IRP descends with.
    pub(crate) fn info_frame(
        &self,
        major: MajorFunction,
        label: &'static str,
        handle: HandleId,
        now: SimTime,
    ) -> IrpFrame {
        IrpFrame {
            major: Some(major),
            label,
            handle: Some(handle),
            process: self.handles.get_raw(handle.0).map(|h| h.process),
            offset: 0,
            length: 0,
            now,
        }
    }

    /// IRP_MJ_QUERY_INFORMATION on an open handle (attributes, sizes).
    pub fn query_information(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        let frame = self.info_frame(
            MajorFunction::QueryInformation,
            "query_information",
            handle,
            now,
        );
        self.dispatch(frame, |m, f| {
            let ok = m.handles.contains_raw(handle.0);
            m.metadata_irp(
                EventKind::Irp(MajorFunction::QueryInformation),
                ok.then_some(handle),
                None,
                if ok {
                    NtStatus::Success
                } else {
                    NtStatus::InvalidHandle
                },
                f.now,
            )
        })
    }

    /// FastIO QueryBasicInfo — the procedural metadata path the Win32
    /// GetFileAttributes family rides when the file is already open.
    ///
    /// Procedural means no stack descent; but if any layer opted the
    /// routine out of its table, the I/O manager builds the
    /// query-information IRP instead and sends *that* down the stack.
    pub fn fast_query_basic(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        self.pump(now);
        if self.stack.fastio_supported(FastIoKind::QueryBasicInfo) {
            return self.fast_query_basic_fsd(handle, now);
        }
        let frame = self.info_frame(
            MajorFunction::QueryInformation,
            "fast_query_basic",
            handle,
            now,
        );
        self.dispatch(frame, |m, f| m.fast_query_basic_fsd(handle, f.now))
    }

    fn fast_query_basic_fsd(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        let Some(h) = self.handles.get_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let (fo, fcb, volume, process) = (h.fo, h.fcb, h.volume, h.process);
        let local = self.ns.is_local(volume);
        let end = now + self.latency.fastio_metadata();
        self.metrics.control_ops += 1;
        emit_event!(
            self,
            IoEvent {
                kind: self.fastio_event_kind(FastIoKind::QueryBasicInfo),
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
                file_size: 0,
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
        OpReply::at(NtStatus::Success, end)
    }

    /// The "is volume mounted" FSCTL — §8.3: issued by the Win32 runtime
    /// during name validation, up to 40 times a second on a busy system.
    pub fn is_volume_mounted(
        &mut self,
        process: ProcessId,
        volume: VolumeId,
        now: SimTime,
    ) -> OpReply {
        self.pump(now);
        let frame = IrpFrame {
            major: Some(MajorFunction::FileSystemControl),
            label: "is_volume_mounted",
            handle: None,
            process: Some(process),
            offset: 0,
            length: 0,
            now,
        };
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let local = m.ns.is_local(volume);
            let end = now + m.latency.fastio_metadata();
            m.metrics.control_ops += 1;
            emit_event!(
                m,
                IoEvent {
                    kind: EventKind::Irp(MajorFunction::FileSystemControl),
                    file_object: FileObjectId(0),
                    fcb: FcbId(u64::MAX),
                    process,
                    volume: volume.0,
                    local,
                    paging_io: false,
                    readahead: false,
                    offset: 0,
                    length: 0,
                    transferred: 0,
                    file_size: 0,
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
            OpReply::at(NtStatus::Success, end)
        })
    }

    /// IRP_MJ_QUERY_VOLUME_INFORMATION — the free-space check
    /// applications run before large writes.
    pub fn query_volume_information(
        &mut self,
        process: ProcessId,
        volume: VolumeId,
        now: SimTime,
    ) -> OpReply {
        self.pump(now);
        let frame = IrpFrame {
            major: Some(MajorFunction::QueryVolumeInformation),
            label: "query_volume_information",
            handle: None,
            process: Some(process),
            offset: 0,
            length: 0,
            now,
        };
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let status = match m.ns.volume(volume) {
                Ok(_) => NtStatus::Success,
                Err(e) => NtStatus::from(e),
            };
            let local = m.ns.is_local(volume);
            let end = now + m.latency.metadata_op();
            m.metrics.control_ops += 1;
            if status.is_error() {
                m.metrics.control_failures += 1;
            }
            emit_event!(
                m,
                IoEvent {
                    kind: EventKind::Irp(MajorFunction::QueryVolumeInformation),
                    file_object: FileObjectId(0),
                    fcb: FcbId(u64::MAX),
                    process,
                    volume: volume.0,
                    local,
                    paging_io: false,
                    readahead: false,
                    offset: 0,
                    length: 0,
                    transferred: 0,
                    file_size: 0,
                    byte_offset: 0,
                    status,
                    start: now,
                    end,
                    access: None,
                    disposition: None,
                    options: None,
                    set_info: None,
                    created: false,
                }
            );
            OpReply::at(status, end)
        })
    }

    /// An unsupported device control — a §8.4 control failure.
    pub fn invalid_control(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        let frame = self.info_frame(MajorFunction::DeviceControl, "invalid_control", handle, now);
        self.dispatch(frame, |m, f| {
            m.metadata_irp(
                EventKind::Irp(MajorFunction::DeviceControl),
                Some(handle),
                None,
                NtStatus::InvalidDeviceRequest,
                f.now,
            )
        })
    }

    /// SetEndOfFile (IRP_MJ_SET_INFORMATION / FileEndOfFileInformation).
    pub fn set_end_of_file(&mut self, handle: HandleId, size: u64, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = self.info_frame(
            MajorFunction::SetInformation,
            "set_end_of_file",
            handle,
            now,
        );
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let Some(h) = m.handles.get_raw(handle.0) else {
                return OpReply::at(NtStatus::InvalidHandle, now);
            };
            let (volume, node) = (h.volume, h.node);
            let status = match m
                .ns
                .volume_mut(volume)
                .and_then(|v| v.set_file_size(node, size, now))
            {
                Ok(()) => NtStatus::Success,
                Err(e) => NtStatus::from(e),
            };
            m.metadata_irp(
                EventKind::Irp(MajorFunction::SetInformation),
                Some(handle),
                Some(SetInfoKind::EndOfFile),
                status,
                now,
            )
        })
    }

    /// Marks the file delete-on-close (FileDispositionInformation) — the
    /// §6.3 explicit-delete path used by Win32 DeleteFile.
    pub fn set_delete_disposition(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = self.info_frame(
            MajorFunction::SetInformation,
            "set_delete_disposition",
            handle,
            now,
        );
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let Some(h) = m.handles.get_raw(handle.0) else {
                return OpReply::at(NtStatus::InvalidHandle, now);
            };
            let (volume, node, fcb_slot) = (h.volume, h.node, h.fcb_slot);
            let status = match m
                .ns
                .volume_mut(volume)
                .and_then(|v| v.set_delete_pending(node, true))
            {
                Ok(()) => {
                    if let Some(fc) = m.fcbs.get_mut(fcb_slot) {
                        fc.delete_pending = true;
                    }
                    NtStatus::Success
                }
                Err(e) => NtStatus::from(e),
            };
            m.metadata_irp(
                EventKind::Irp(MajorFunction::SetInformation),
                Some(handle),
                Some(SetInfoKind::Disposition),
                status,
                now,
            )
        })
    }

    /// Renames the file (FileRenameInformation).
    pub fn rename(&mut self, handle: HandleId, new_path: &NtPath, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = self.info_frame(MajorFunction::SetInformation, "rename", handle, now);
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let Some(h) = m.handles.get_raw(handle.0) else {
                return OpReply::at(NtStatus::InvalidHandle, now);
            };
            let (volume, node) = (h.volume, h.node);
            let old_parent = m.parent_of(volume, node);
            let mut new_parent = None;
            let status = (|| -> Result<(), NtStatus> {
                let vol = m.ns.volume_mut(volume).map_err(NtStatus::from)?;
                let parent = vol
                    .lookup(&new_path.parent())
                    .map_err(|_| NtStatus::ObjectPathNotFound)?;
                let name = new_path.file_name().ok_or(NtStatus::InvalidParameter)?;
                vol.rename(node, parent, name, now)
                    .map_err(NtStatus::from)?;
                new_parent = Some(parent);
                Ok(())
            })()
            .err()
            .unwrap_or(NtStatus::Success);
            if status.is_success() {
                if let Some(p) = old_parent {
                    m.fire_watches(volume, p, now);
                }
                if let Some(p) = new_parent.filter(|p| old_parent != Some(*p)) {
                    m.fire_watches(volume, p, now);
                }
            }
            m.metadata_irp(
                EventKind::Irp(MajorFunction::SetInformation),
                Some(handle),
                Some(SetInfoKind::Rename),
                status,
                now,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testkit::{machine, open_new, t, P};
    use crate::request::{EventKind, MajorFunction};

    #[test]
    fn control_failures_are_counted() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\x", t(1));
        let r = m.invalid_control(h, t(2));
        assert!(r.status.is_error());
        assert_eq!(m.metrics().control_failures, 1);
        assert!(m.metrics().control_ops >= 1);
    }

    #[test]
    fn volume_mounted_fsctl_emits_event() {
        let (mut m, vol) = machine();
        let r = m.is_volume_mounted(P, vol, t(1));
        assert!(r.status.is_success());
        assert!(m
            .observer()
            .events
            .iter()
            .any(|e| e.kind == EventKind::Irp(MajorFunction::FileSystemControl)));
    }
}
