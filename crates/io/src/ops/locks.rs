//! Byte-range locks (the FastIoLock / FastIoUnlockSingle procedural
//! calls, falling back to IRP_MJ_LOCK_CONTROL when a layer vetoes them).

use nt_sim::SimTime;

use crate::machine::{emit_event, Machine, OpReply};
use crate::observer::IoObserver;
use crate::request::{FastIoKind, IoEvent, MajorFunction};
use crate::status::NtStatus;
use crate::types::HandleId;

impl<O: IoObserver> Machine<O> {
    fn lock_event(
        &mut self,
        kind: FastIoKind,
        handle: HandleId,
        offset: u64,
        len: u64,
        status: NtStatus,
        now: SimTime,
    ) -> OpReply {
        let Some(h) = self.handles.get_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let (fo, fcb, volume, process) = (h.fo, h.fcb, h.volume, h.process);
        let local = self.ns.is_local(volume);
        let end = now + self.latency.fastio_metadata();
        emit_event!(
            self,
            IoEvent {
                kind: self.fastio_event_kind(kind),
                file_object: fo,
                fcb,
                process,
                volume: volume.0,
                local,
                paging_io: false,
                readahead: false,
                offset,
                length: len,
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
    }

    fn lock_fsd(
        &mut self,
        handle: HandleId,
        offset: u64,
        len: u64,
        exclusive: bool,
        now: SimTime,
    ) -> OpReply {
        let Some(h) = self.handles.get_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let key = h.fcb_slot;
        let granted = self
            .shares
            .locks_mut(key)
            .lock(handle, offset, len, exclusive);
        if granted {
            self.metrics.locks_granted += 1;
        } else {
            self.metrics.lock_conflicts += 1;
        }
        let status = if granted {
            NtStatus::Success
        } else {
            NtStatus::FileLockConflict
        };
        self.lock_event(FastIoKind::Lock, handle, offset, len, status, now)
    }

    /// Takes a byte-range lock on the current handle's file. Procedural
    /// FastIO unless some layer opted the routine out, in which case the
    /// lock-control IRP descends the stack.
    pub fn lock(
        &mut self,
        handle: HandleId,
        offset: u64,
        len: u64,
        exclusive: bool,
        now: SimTime,
    ) -> OpReply {
        self.pump(now);
        if self.stack.fastio_supported(FastIoKind::Lock) {
            return self.lock_fsd(handle, offset, len, exclusive, now);
        }
        let frame = Self::info_frame(MajorFunction::LockControl, "lock", now);
        self.dispatch(frame, |m, f| {
            m.lock_fsd(handle, offset, len, exclusive, f.now)
        })
    }

    fn unlock_fsd(&mut self, handle: HandleId, offset: u64, len: u64, now: SimTime) -> OpReply {
        let Some(h) = self.handles.get_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let key = h.fcb_slot;
        let ok = self.shares.locks_mut(key).unlock(handle, offset, len);
        let status = if ok {
            NtStatus::Success
        } else {
            NtStatus::InvalidParameter
        };
        self.lock_event(FastIoKind::UnlockSingle, handle, offset, len, status, now)
    }

    /// Releases a byte-range lock (same FastIO-or-IRP routing as
    /// [`Machine::lock`]).
    pub fn unlock(&mut self, handle: HandleId, offset: u64, len: u64, now: SimTime) -> OpReply {
        self.pump(now);
        if self.stack.fastio_supported(FastIoKind::UnlockSingle) {
            return self.unlock_fsd(handle, offset, len, now);
        }
        let frame = Self::info_frame(MajorFunction::LockControl, "unlock", now);
        self.dispatch(frame, |m, f| m.unlock_fsd(handle, offset, len, f.now))
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testkit::{machine, open_new, t};
    use crate::request::{EventKind, FastIoKind};
    use crate::status::NtStatus;

    #[test]
    fn byte_range_locks_gate_data_access() {
        let (mut m, vol) = machine();
        let h1 = open_new(&mut m, vol, r"\shared.db", t(1));
        m.write(h1, Some(0), 64_000, t(1));
        let h2 = open_new(&mut m, vol, r"\shared.db", t(2));
        // h1 takes an exclusive lock on the first 4 KB.
        let r = m.lock(h1, 0, 4_096, true, t(3));
        assert_eq!(r.status, NtStatus::Success);
        assert_eq!(m.metrics().locks_granted, 1);
        // h2 cannot read or write the locked range, but can elsewhere.
        assert_eq!(
            m.read(h2, Some(0), 512, t(4)).status,
            NtStatus::FileLockConflict
        );
        assert_eq!(
            m.write(h2, Some(1_000), 100, t(4)).status,
            NtStatus::FileLockConflict
        );
        assert_eq!(m.read(h2, Some(8_192), 512, t(4)).status, NtStatus::Success);
        // A conflicting lock request is denied.
        assert_eq!(
            m.lock(h2, 0, 100, false, t(5)).status,
            NtStatus::FileLockConflict
        );
        // Unlock, then h2 proceeds.
        assert_eq!(m.unlock(h1, 0, 4_096, t(6)).status, NtStatus::Success);
        assert_eq!(m.read(h2, Some(0), 512, t(7)).status, NtStatus::Success);
        m.close(h1, t(8));
        m.close(h2, t(8));
    }

    #[test]
    fn cleanup_releases_locks_with_unlock_all() {
        let (mut m, vol) = machine();
        let h1 = open_new(&mut m, vol, r"\pool.db", t(1));
        m.write(h1, Some(0), 10_000, t(1));
        m.lock(h1, 0, 100, true, t(2));
        m.lock(h1, 500, 100, true, t(2));
        let h2 = open_new(&mut m, vol, r"\pool.db", t(3));
        m.close(h1, t(4));
        // The UnlockAll call appears in the trace and h2 is free to go.
        assert!(m
            .observer()
            .events
            .iter()
            .any(|e| e.kind == EventKind::FastIo(FastIoKind::UnlockAll)));
        assert_eq!(m.read(h2, Some(0), 100, t(5)).status, NtStatus::Success);
        m.close(h2, t(6));
    }
}
