//! Directory enumeration and change notification
//! (IRP_MJ_DIRECTORY_CONTROL).

use nt_fs::{NodeId, VolumeId};
use nt_sim::SimTime;

use crate::machine::{emit_event, Machine, OpReply};
use crate::observer::IoObserver;
use crate::request::{EventKind, IoEvent, MajorFunction};
use crate::status::NtStatus;
use crate::types::HandleId;

impl<O: IoObserver> Machine<O> {
    /// Directory enumeration (IRP_MJ_DIRECTORY_CONTROL / QueryDirectory).
    /// Returns up to `batch` entries per call; NoMoreFiles terminates.
    /// The record carries the directory's live entry count in
    /// `file_size` and the handle's cursor before the call in `offset`.
    pub fn query_directory(&mut self, handle: HandleId, batch: usize, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = Self::info_frame(MajorFunction::DirectoryControl, "query_directory", now);
        self.dispatch(frame, |m, f| m.query_directory_fsd(handle, batch, f.now))
    }

    fn query_directory_fsd(&mut self, handle: HandleId, batch: usize, now: SimTime) -> OpReply {
        let Some(h) = self.handles.get_raw_mut(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let (origin, cursor) = (h.origin, h.dir_cursor);
        let major = MajorFunction::DirectoryControl;
        let volume = self.ns.volume(origin.volume);
        let entries = match volume.and_then(|v| v.read_dir(h.node)).map(|c| c.len()) {
            Ok(n) => n,
            Err(e) => return self.metadata_irp(major, origin, None, NtStatus::from(e), now),
        };
        let returned = entries.saturating_sub(cursor).min(batch.max(1));
        h.dir_cursor += returned;
        let status = if returned == 0 {
            NtStatus::NoMoreFiles
        } else {
            NtStatus::Success
        };
        let end = now + self.latency.metadata_op();
        self.metrics.control_ops += 1;
        emit_event!(
            self,
            IoEvent {
                offset: cursor as u64,
                length: batch as u64,
                transferred: returned as u64,
                file_size: entries as u64,
                status,
                ..self.record(origin, EventKind::Irp(major), now, end)
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
            let (origin, node) = (h.origin, h.node);
            let is_dir =
                m.ns.volume(origin.volume)
                    .and_then(|v| v.node(node))
                    .is_ok_and(|n| n.kind.is_directory());
            if !is_dir {
                let status = NtStatus::NotADirectory;
                return m.metadata_irp(MajorFunction::DirectoryControl, origin, None, status, now);
            }
            let waiters = m.watches.entry((origin.volume, node)).or_default();
            // Re-arming an already-pending watch is a no-op (the
            // application keeps one notification outstanding per handle).
            if !waiters.iter().any(|(wh, ..)| *wh == handle) {
                waiters.push((handle, origin, now));
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
        for (_, origin, registered) in waiters {
            self.metrics.control_ops += 1;
            let kind = EventKind::Irp(MajorFunction::DirectoryControl);
            emit_event!(
                self,
                IoEvent {
                    transferred: 1,
                    ..self.record(origin, kind, registered, now)
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
    use crate::machine::Machine;
    use crate::observer::VecObserver;
    use crate::ops::testkit::{machine, t, P};
    use crate::request::{EventKind, MajorFunction};
    use crate::status::NtStatus;
    use crate::types::{AccessMode, CreateOptions, Disposition, HandleId};
    use nt_fs::{NtPath, VolumeId};
    use nt_sim::SimTime;

    /// A machine whose root holds `files` files, and a directory handle
    /// on that root.
    fn root_with_files(files: usize) -> (Machine<VecObserver>, VolumeId, HandleId) {
        let (mut m, vol) = machine();
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            for i in 0..files {
                v.create_file(root, &format!("f{i:02}"), t(0)).unwrap();
            }
        }
        let h = open_dir(&mut m, vol, &NtPath::root(), t(1));
        (m, vol, h)
    }

    fn open_dir(
        m: &mut Machine<VecObserver>,
        vol: VolumeId,
        path: &NtPath,
        at: SimTime,
    ) -> HandleId {
        let options = CreateOptions {
            directory: true,
            ..CreateOptions::default()
        };
        let (_, h) = m.create(
            P,
            vol,
            path,
            AccessMode::Control,
            Disposition::Open,
            options,
            at,
        );
        h.expect("directory opens")
    }

    #[test]
    fn directory_enumeration_batches() {
        let (mut m, _, h) = root_with_files(25);
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
    fn each_query_reads_the_live_entry_count() {
        let (mut m, vol, h) = root_with_files(25);
        // One entry is created before the second batch and one removed
        // before the third: each record's `file_size` is the count at its
        // own call, and `transferred` what is left past the cursor.
        let steps = [
            ("", 25, 0, 10, NtStatus::Success),
            ("create", 26, 10, 10, NtStatus::Success),
            ("remove", 25, 20, 5, NtStatus::Success),
            ("", 25, 25, 0, NtStatus::NoMoreFiles),
        ];
        for (i, (change, size, cursor, returned, status)) in steps.into_iter().enumerate() {
            let now = t(2 + i as u64);
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            match change {
                "create" => drop(v.create_file(root, "g", now).unwrap()),
                "remove" => v.remove(v.child(root, "f00").unwrap(), now).unwrap(),
                _ => {}
            }
            assert_eq!(v.node(root).unwrap().dir().unwrap().len(), size);
            let r = m.query_directory(h, 10, now);
            assert_eq!((r.status, r.transferred), (status, returned));
            let e = m.observer().events.last().unwrap();
            assert_eq!(e.kind, EventKind::Irp(MajorFunction::DirectoryControl));
            assert_eq!(
                (e.file_size, e.offset, e.transferred, e.status),
                (size as u64, cursor, returned, status)
            );
        }
    }

    #[test]
    fn empty_directory_answers_no_more_files_at_once() {
        let (mut m, _, h) = root_with_files(0);
        let r = m.query_directory(h, 10, t(2));
        assert_eq!((r.status, r.transferred), (NtStatus::NoMoreFiles, 0));
        let e = m.observer().events.last().unwrap();
        assert_eq!(e.kind, EventKind::Irp(MajorFunction::DirectoryControl));
        assert_eq!((e.file_size, e.offset, e.transferred), (0, 0, 0));
    }

    #[test]
    fn change_notification_pends_until_a_change() {
        let (mut m, vol) = machine();
        {
            let v = m.namespace_mut().volume_mut(vol).unwrap();
            let root = v.root();
            v.mkdir(root, "watched", t(0)).unwrap();
        }
        let dh = open_dir(&mut m, vol, &NtPath::parse(r"\watched"), t(1));
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
