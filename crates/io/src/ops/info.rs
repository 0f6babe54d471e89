//! Metadata queries and sets, volume control and the §8.3/§8.4 control
//! traffic.

use nt_fs::{NtPath, VolumeId};
use nt_sim::SimTime;

use crate::machine::{emit_event, Machine, OpReply, Origin};
use crate::observer::IoObserver;
use crate::request::{EventKind, FastIoKind, IoEvent, MajorFunction, SetInfoKind};
use crate::stack::IrpFrame;
use crate::status::NtStatus;
use crate::types::{HandleId, ProcessId};

impl<O: IoObserver> Machine<O> {
    /// Generic metadata IRP (query information, device control, set
    /// information, a refused directory request) on behalf of `origin`,
    /// which the caller resolved. `status` decides the §8.4
    /// control-failure accounting.
    pub(crate) fn metadata_irp(
        &mut self,
        major: MajorFunction,
        origin: Origin,
        set_info: Option<SetInfoKind>,
        status: NtStatus,
        now: SimTime,
    ) -> OpReply {
        self.pump(now);
        let end = now + self.latency.metadata_op();
        self.metrics.control_ops += 1;
        if status.is_error() {
            self.metrics.control_failures += 1;
        }
        emit_event!(
            self,
            IoEvent {
                status,
                set_info,
                ..self.record(origin, EventKind::Irp(major), now, end)
            }
        );
        OpReply::at(status, end)
    }

    /// Builds the frame a metadata IRP descends with.
    pub(crate) fn info_frame(major: MajorFunction, label: &'static str, now: SimTime) -> IrpFrame {
        IrpFrame {
            major: Some(major),
            label,
            now,
        }
    }

    /// IRP_MJ_QUERY_INFORMATION on an open handle (attributes, sizes).
    pub fn query_information(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        let frame = Self::info_frame(MajorFunction::QueryInformation, "query_information", now);
        self.dispatch(frame, |m, f| {
            let (origin, status) = match m.handles.get_raw(handle.0) {
                Some(h) => (h.origin, NtStatus::Success),
                None => (
                    Origin::unnamed(ProcessId(0), VolumeId(0)),
                    NtStatus::InvalidHandle,
                ),
            };
            m.metadata_irp(MajorFunction::QueryInformation, origin, None, status, f.now)
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
        let frame = Self::info_frame(MajorFunction::QueryInformation, "fast_query_basic", now);
        self.dispatch(frame, |m, f| m.fast_query_basic_fsd(handle, f.now))
    }

    fn fast_query_basic_fsd(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        let Some(h) = self.handles.get_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let origin = h.origin;
        let end = now + self.latency.fastio_metadata();
        self.metrics.control_ops += 1;
        let kind = self.fastio_event_kind(FastIoKind::QueryBasicInfo);
        emit_event!(self, self.record(origin, kind, now, end));
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
            now,
        };
        self.dispatch(frame, |m, f| {
            let end = f.now + m.latency.fastio_metadata();
            m.metrics.control_ops += 1;
            let kind = EventKind::Irp(MajorFunction::FileSystemControl);
            emit_event!(
                m,
                m.record(Origin::unnamed(process, volume), kind, f.now, end)
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
            now,
        };
        // Not `metadata_irp`: that pumps again, at the filter-adjusted
        // clock.
        self.dispatch(frame, |m, f| {
            let status = match m.ns.volume(volume) {
                Ok(_) => NtStatus::Success,
                Err(e) => NtStatus::from(e),
            };
            let end = f.now + m.latency.metadata_op();
            m.metrics.control_ops += 1;
            if status.is_error() {
                m.metrics.control_failures += 1;
            }
            let kind = EventKind::Irp(MajorFunction::QueryVolumeInformation);
            emit_event!(
                m,
                IoEvent {
                    status,
                    ..m.record(Origin::unnamed(process, volume), kind, f.now, end)
                }
            );
            OpReply::at(status, end)
        })
    }

    /// An unsupported device control — a §8.4 control failure.
    pub fn invalid_control(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        let frame = Self::info_frame(MajorFunction::DeviceControl, "invalid_control", now);
        self.dispatch(frame, |m, f| {
            let origin = m
                .handles
                .get_raw(handle.0)
                .map_or(Origin::unnamed(ProcessId(0), VolumeId(0)), |h| h.origin);
            let status = NtStatus::InvalidDeviceRequest;
            m.metadata_irp(MajorFunction::DeviceControl, origin, None, status, f.now)
        })
    }

    /// SetEndOfFile (IRP_MJ_SET_INFORMATION / FileEndOfFileInformation).
    pub fn set_end_of_file(&mut self, handle: HandleId, size: u64, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = Self::info_frame(MajorFunction::SetInformation, "set_end_of_file", now);
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let Some(h) = m.handles.get_raw(handle.0) else {
                return OpReply::at(NtStatus::InvalidHandle, now);
            };
            let (origin, node) = (h.origin, h.node);
            let status =
                m.ns.volume_mut(origin.volume)
                    .and_then(|v| v.set_file_size(node, size, now))
                    .map_or_else(NtStatus::from, |()| NtStatus::Success);
            let class = Some(SetInfoKind::EndOfFile);
            m.metadata_irp(MajorFunction::SetInformation, origin, class, status, now)
        })
    }

    /// Marks the file delete-on-close (FileDispositionInformation) — the
    /// §6.3 explicit-delete path used by Win32 DeleteFile.
    pub fn set_delete_disposition(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = Self::info_frame(MajorFunction::SetInformation, "set_delete_disposition", now);
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let Some(h) = m.handles.get_raw(handle.0) else {
                return OpReply::at(NtStatus::InvalidHandle, now);
            };
            let (origin, node, fcb_slot) = (h.origin, h.node, h.fcb_slot);
            let status = match m
                .ns
                .volume_mut(origin.volume)
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
            let class = Some(SetInfoKind::Disposition);
            m.metadata_irp(MajorFunction::SetInformation, origin, class, status, now)
        })
    }

    /// Renames the file (FileRenameInformation).
    pub fn rename(&mut self, handle: HandleId, new_path: &NtPath, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = Self::info_frame(MajorFunction::SetInformation, "rename", now);
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let Some(h) = m.handles.get_raw(handle.0) else {
                return OpReply::at(NtStatus::InvalidHandle, now);
            };
            let (origin, node) = (h.origin, h.node);
            let volume = origin.volume;
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
            let class = Some(SetInfoKind::Rename);
            m.metadata_irp(MajorFunction::SetInformation, origin, class, status, now)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testkit::{machine, open_new, t, P};
    use crate::request::{EventKind, MajorFunction};
    use crate::status::NtStatus;
    use nt_fs::NtPath;

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

    #[test]
    fn case_only_rename_succeeds() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\Report.DOC", t(1));
        let r = m.rename(h, &NtPath::parse(r"\REPORT.doc"), t(2));
        assert_eq!(r.status, NtStatus::Success);
        m.close(h, t(3));
        let v = m.namespace().volume(vol).unwrap();
        assert!(v.lookup(&NtPath::parse(r"\report.doc")).is_ok());
    }
}
