//! Directory enumeration and change notification
//! (IRP_MJ_DIRECTORY_CONTROL).

use nt_fs::{NodeId, VolumeId};
use nt_sim::SimTime;

use crate::machine::{emit_event, FileKey, Machine, OpReply};
use crate::observer::IoObserver;
use crate::request::{EventKind, IoEvent, MajorFunction};
use crate::status::NtStatus;
use crate::types::HandleId;

impl<O: IoObserver> Machine<O> {
    /// Directory enumeration (IRP_MJ_DIRECTORY_CONTROL / QueryDirectory).
    /// Returns up to `batch` entries per call; NoMoreFiles terminates.
    pub fn query_directory(&mut self, handle: HandleId, batch: usize, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = Self::info_frame(MajorFunction::DirectoryControl, "query_directory", now);
        self.dispatch(frame, |m, f| m.query_directory_fsd(handle, batch, f.now))
    }

    fn query_directory_fsd(&mut self, handle: HandleId, batch: usize, now: SimTime) -> OpReply {
        let Some(h) = self.handles.get_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let (fo, fcb, volume, node, process, cursor) =
            (h.fo, h.fcb, h.volume, h.node, h.process, h.dir_cursor);
        let local = self.ns.is_local(volume);
        let entries = match self.ns.volume(volume).and_then(|v| v.read_dir(node)) {
            Ok(e) => e,
            Err(e) => {
                return self.metadata_irp(
                    EventKind::Irp(MajorFunction::DirectoryControl),
                    Some(handle),
                    None,
                    NtStatus::from(e),
                    now,
                )
            }
        };
        let remaining = entries.len().saturating_sub(cursor);
        let returned = remaining.min(batch.max(1));
        let status = if returned == 0 {
            NtStatus::NoMoreFiles
        } else {
            NtStatus::Success
        };
        if let Some(h) = self.handles.get_raw_mut(handle.0) {
            h.dir_cursor += returned;
        }
        let end = now + self.latency.metadata_op();
        self.metrics.control_ops += 1;
        emit_event!(
            self,
            IoEvent {
                kind: EventKind::Irp(MajorFunction::DirectoryControl),
                file_object: fo,
                fcb,
                process,
                volume: volume.0,
                local,
                paging_io: false,
                readahead: false,
                offset: cursor as u64,
                length: batch as u64,
                transferred: returned as u64,
                file_size: entries.len() as u64,
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
        OpReply {
            status,
            transferred: returned as u64,
            end,
        }
    }

    /// Registers a change-notification IRP on an open directory handle
    /// (FindFirstChangeNotification). The IRP stays pended; it completes
    /// — and appears in the trace with its full waiting time as latency —
    /// when something changes in the directory. One-shot: applications
    /// re-arm after each notification.
    pub fn watch_directory(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = Self::info_frame(MajorFunction::DirectoryControl, "watch_directory", now);
        self.dispatch(frame, |m, f| {
            let now = f.now;
            let Some(h) = m.handles.get_raw(handle.0) else {
                return OpReply::at(NtStatus::InvalidHandle, now);
            };
            let is_dir =
                m.ns.volume(h.volume)
                    .ok()
                    .and_then(|v| v.node(h.node).ok())
                    .map(|n| n.kind.is_directory())
                    .unwrap_or(false);
            if !is_dir {
                return m.metadata_irp(
                    EventKind::Irp(MajorFunction::DirectoryControl),
                    Some(handle),
                    None,
                    NtStatus::NotADirectory,
                    now,
                );
            }
            let key: FileKey = (h.volume, h.node);
            let entry = (handle, h.fo, h.fcb, h.process, now);
            let waiters = m.watches.entry(key).or_default();
            // Re-arming an already-pending watch is a no-op (the
            // application keeps one notification outstanding per handle).
            if !waiters.iter().any(|(wh, ..)| *wh == handle) {
                waiters.push(entry);
            }
            // The request pends: nothing completes yet, so the reply
            // returns control to the caller immediately.
            OpReply::at(NtStatus::Success, now + m.latency.fastio_metadata())
        })
    }

    /// Completes any change-notification IRPs watching `dir`.
    pub(crate) fn fire_watches(&mut self, volume: VolumeId, dir: NodeId, now: SimTime) {
        let Some(waiters) = self.watches.remove(&(volume, dir)) else {
            return;
        };
        let local = self.ns.is_local(volume);
        for (_, fo, fcb, process, registered) in waiters {
            self.metrics.control_ops += 1;
            emit_event!(
                self,
                IoEvent {
                    kind: EventKind::Irp(MajorFunction::DirectoryControl),
                    file_object: fo,
                    fcb,
                    process,
                    volume: volume.0,
                    local,
                    paging_io: false,
                    readahead: false,
                    offset: 0,
                    length: 0,
                    transferred: 1,
                    file_size: 0,
                    byte_offset: 0,
                    status: NtStatus::Success,
                    start: registered,
                    end: now,
                    access: None,
                    disposition: None,
                    options: None,
                    set_info: None,
                    created: false,
                }
            );
        }
    }

    /// Drops a handle's pending watches (handle cleanup).
    pub(crate) fn cancel_watches(&mut self, handle: HandleId) {
        for waiters in self.watches.values_mut() {
            waiters.retain(|(h, ..)| *h != handle);
        }
        self.watches.retain(|_, v| !v.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testkit::{machine, t, P};
    use crate::request::{EventKind, MajorFunction};
    use crate::status::NtStatus;
    use crate::types::{AccessMode, CreateOptions, Disposition};
    use nt_fs::NtPath;

    #[test]
    fn directory_enumeration_batches() {
        let (mut m, vol) = machine();
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            for i in 0..25 {
                v.create_file(root, &format!("f{i:02}"), t(0)).unwrap();
            }
        }
        let (_, h) = m.create(
            P,
            vol,
            &NtPath::root(),
            AccessMode::Control,
            Disposition::Open,
            CreateOptions {
                directory: true,
                ..CreateOptions::default()
            },
            t(1),
        );
        let h = h.unwrap();
        let mut total = 0;
        let mut calls = 0;
        loop {
            let r = m.query_directory(h, 10, t(2));
            calls += 1;
            if r.status == NtStatus::NoMoreFiles {
                break;
            }
            total += r.transferred;
            assert!(calls < 10);
        }
        assert_eq!(total, 25);
        assert_eq!(calls, 4, "3 batches + terminator");
    }

    #[test]
    fn change_notification_pends_until_a_change() {
        let (mut m, vol) = machine();
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            v.mkdir(root, "watched", t(0)).unwrap();
        }
        let (_, dh) = m.create(
            P,
            vol,
            &NtPath::parse(r"\watched"),
            AccessMode::Control,
            Disposition::Open,
            CreateOptions {
                directory: true,
                ..CreateOptions::default()
            },
            t(1),
        );
        let dh = dh.unwrap();
        let r = m.watch_directory(dh, t(2));
        assert_eq!(r.status, NtStatus::Success);
        // No notification yet.
        let before = m
            .observer()
            .events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Irp(MajorFunction::DirectoryControl) && e.transferred == 1
            })
            .count();
        assert_eq!(before, 0);
        // Creating a file inside the directory completes the pended IRP,
        // whose recorded latency is the whole wait.
        let (_, fh) = m.create(
            P,
            vol,
            &NtPath::parse(r"\watched\new.txt"),
            AccessMode::Write,
            Disposition::Create,
            CreateOptions::default(),
            t(30),
        );
        let notify: Vec<_> = m
            .observer()
            .events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Irp(MajorFunction::DirectoryControl) && e.transferred == 1
            })
            .cloned()
            .collect();
        assert_eq!(notify.len(), 1);
        assert_eq!(notify[0].start, t(2), "pended at registration");
        assert!(notify[0].end >= t(30), "completed at the change");
        m.close(fh.unwrap(), t(31));
        // One-shot: a second change does not fire again.
        let (_, fh2) = m.create(
            P,
            vol,
            &NtPath::parse(r"\watched\second.txt"),
            AccessMode::Write,
            Disposition::Create,
            CreateOptions::default(),
            t(40),
        );
        m.close(fh2.unwrap(), t(41));
        let after = m
            .observer()
            .events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Irp(MajorFunction::DirectoryControl) && e.transferred == 1
            })
            .count();
        assert_eq!(after, 1, "watch is one-shot");
        // A cancelled watch (handle closed) never fires.
        m.watch_directory(dh, t(50));
        m.close(dh, t(51));
        let (_, fh3) = m.create(
            P,
            vol,
            &NtPath::parse(r"\watched\third.txt"),
            AccessMode::Write,
            Disposition::Create,
            CreateOptions::default(),
            t(60),
        );
        m.close(fh3.unwrap(), t(61));
        let final_count = m
            .observer()
            .events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Irp(MajorFunction::DirectoryControl) && e.transferred == 1
            })
            .count();
        assert_eq!(final_count, 1, "closed handle's watch was cancelled");
    }
}
