//! The two-stage close (§8.1) and the lazy writer (§9.2).

use nt_cache::CLEAN_CLOSE_DELAY;
use nt_sim::{SimDuration, SimTime};

use crate::latency::METADATA_TICKS;
use crate::machine::{emit_event, FileKey, Machine, OpReply, Pending};
use crate::observer::IoObserver;
use crate::request::{EventKind, FastIoKind, IoEvent, MajorFunction, SetInfoKind};
use crate::stack::IrpFrame;
use crate::status::NtStatus;
use crate::types::{FcbId, FileObjectId, HandleId, ProcessId};

impl<O: IoObserver> Machine<O> {
    /// Closes a handle: emits the cleanup IRP now; the close IRP follows
    /// 4–10 µs later for read-cached files, or after the lazy writer
    /// drains the dirty pages (1–4 s) for write-cached ones.
    pub fn close(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        self.pump(now);
        let frame = Self::info_frame(MajorFunction::Cleanup, "close", now);
        self.dispatch(frame, |m, f| m.close_fsd(handle, f.now))
    }

    fn close_fsd(&mut self, handle: HandleId, now: SimTime) -> OpReply {
        let Some(h) = self.handles.remove_raw(handle.0) else {
            return OpReply::at(NtStatus::InvalidHandle, now);
        };
        let (fo, fcb, fcb_slot, volume, node, process, options) = (
            h.fo, h.fcb, h.fcb_slot, h.volume, h.node, h.process, h.options,
        );
        if h.mapped {
            self.vm.unmap(&(volume, node));
        }
        self.cancel_watches(handle);
        let local = self.ns.is_local(volume);
        let key: FileKey = (volume, node);
        let file_size = self
            .ns
            .volume(volume)
            .ok()
            .and_then(|v| v.file_size(node).ok())
            .unwrap_or(0);

        let end = now + self.latency.metadata_op();
        self.metrics.cleanups += 1;
        emit_event!(
            self,
            IoEvent {
                kind: EventKind::Irp(MajorFunction::Cleanup),
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
                file_size,
                byte_offset: h.byte_offset,
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

        // Release byte-range locks and the share registration with the
        // cleanup, as NT does; held locks produce an UnlockAll call.
        let dropped = self.shares.locks_mut(fcb_slot).unlock_all(handle);
        if dropped > 0 {
            emit_event!(
                self,
                IoEvent {
                    kind: self.fastio_event_kind(FastIoKind::UnlockAll),
                    file_object: fo,
                    fcb,
                    process,
                    volume: volume.0,
                    local,
                    paging_io: false,
                    readahead: false,
                    offset: 0,
                    length: dropped as u64,
                    transferred: 0,
                    file_size,
                    byte_offset: 0,
                    status: NtStatus::Success,
                    start: now,
                    end: now + self.latency.fastio_metadata(),
                    access: None,
                    disposition: None,
                    options: None,
                    set_info: None,
                    created: false,
                }
            );
        }
        self.shares.close(fcb_slot, handle);

        let last_handle = self.fcbs.cleanup(fcb_slot);
        if !last_handle {
            // Other handles remain: the file object closes quickly, the
            // FCB stays.
            self.schedule(
                end + CLEAN_CLOSE_DELAY,
                Pending::CloseIrp {
                    fo,
                    fcb,
                    fcb_slot,
                    volume,
                    node,
                    process,
                },
            );
            return OpReply::at(NtStatus::Success, end);
        }

        let deleting = options.delete_on_close
            || options.temporary
            || self
                .fcbs
                .get(fcb_slot)
                .map(|f| f.delete_pending)
                .unwrap_or(false);

        if deleting {
            // §6.3: unwritten dirty pages may still be in the cache.
            self.release_deferred(key, end);
            self.cache.purge(&key);
            self.vm.purge(&key);
            let parent = self.parent_of(volume, node);
            let _ = self.ns.volume_mut(volume).and_then(|v| v.remove(node, now));
            if let Some(parent) = parent {
                self.fire_watches(volume, parent, now);
            }
            if options.temporary || options.delete_on_close {
                self.metrics.delete_on_close += 1;
            } else {
                self.metrics.explicit_deletes += 1;
            }
            self.schedule(
                end + CLEAN_CLOSE_DELAY,
                Pending::CloseIrp {
                    fo,
                    fcb,
                    fcb_slot,
                    volume,
                    node,
                    process,
                },
            );
            return OpReply::at(NtStatus::Success, end);
        }

        let outcome = self.cache.cleanup(&key, file_size);
        if outcome.set_end_of_file.is_some() {
            // §8.3: the cache manager trims page-granular lazy writes back
            // to the true end of file before close.
            let se = end + SimDuration::from_ticks(METADATA_TICKS);
            emit_event!(
                self,
                IoEvent {
                    kind: EventKind::Irp(MajorFunction::SetInformation),
                    file_object: fo,
                    fcb,
                    process,
                    volume: volume.0,
                    local,
                    paging_io: false,
                    readahead: false,
                    offset: file_size,
                    length: 0,
                    transferred: 0,
                    file_size,
                    byte_offset: 0,
                    status: NtStatus::Success,
                    start: end,
                    end: se,
                    access: None,
                    disposition: None,
                    options: None,
                    set_info: Some(SetInfoKind::EndOfFile),
                    created: false,
                }
            );
            self.metrics.control_ops += 1;
        }
        match outcome.close_after {
            Some(delay) => {
                self.schedule(
                    end + delay,
                    Pending::CloseIrp {
                        fo,
                        fcb,
                        fcb_slot,
                        volume,
                        node,
                        process,
                    },
                );
            }
            None => {
                // Close follows the lazy-writer drain (§8.1: 1–4 s).
                self.deferred_close
                    .entry(key)
                    .or_default()
                    .push((fo, fcb, fcb_slot, process, end));
            }
        }
        OpReply::at(NtStatus::Success, end)
    }

    /// Runs every lazy-writer scan due at or before `now`, each at its
    /// own due time, one [`nt_cache::CacheConfig::lazy_write_interval`]
    /// apart, and returns when the next scan is due.
    pub fn run_lazy_writer(&mut self, now: SimTime) -> SimTime {
        while self.next_lazy_scan <= now {
            let at = self.next_lazy_scan;
            self.lazy_tick(at);
            self.next_lazy_scan = at + self.config.cache.lazy_write_interval;
        }
        self.next_lazy_scan
    }

    /// Moves the next lazy-writer scan to `at` when it is due earlier:
    /// the scans before `at` are skipped, not run late. Returns when the
    /// next scan is due. The live study starts its writer this way once
    /// logon has run.
    pub fn defer_lazy_writer(&mut self, at: SimTime) -> SimTime {
        self.next_lazy_scan = self.next_lazy_scan.max(at);
        self.next_lazy_scan
    }

    /// When the next lazy-writer scan is due.
    pub fn next_lazy_scan(&self) -> SimTime {
        self.next_lazy_scan
    }

    /// Drains the lazy writer after a run that ended at `end`: scans one
    /// period apart from `end` on, at least five and until no deferred
    /// close is left, but at most `max_scans`. Returns the last scan's
    /// time.
    pub fn drain_lazy_writer(&mut self, end: SimTime, max_scans: u32) -> SimTime {
        let period = self.config.cache.lazy_write_interval;
        let mut at = end;
        let mut scans = 0;
        while (self.deferred_closes() > 0 || scans < 5) && scans < max_scans {
            scans += 1;
            at += period;
            self.lazy_tick(at);
        }
        self.next_lazy_scan = at + period;
        at
    }

    /// One lazy-writer scan (§9.2). Drivers step the writer through
    /// [`Machine::run_lazy_writer`]; tests and examples call this
    /// directly.
    ///
    /// Issues the paging writes the cache manager selects, completes any
    /// deferred closes whose dirty data has drained, and trims cold cache
    /// maps back under the memory budget.
    pub fn lazy_tick(&mut self, now: SimTime) {
        self.pump(now);
        let frame = IrpFrame {
            major: None,
            label: "lazy_tick",
            now,
        };
        self.dispatch(frame, |m, f| {
            m.lazy_tick_fsd(f.now);
            OpReply::at(NtStatus::Success, f.now)
        });
    }

    fn lazy_tick_fsd(&mut self, now: SimTime) {
        let (actions, closable) = self.cache.lazy_scan(now);
        for action in actions {
            let (volume, node) = action.key;
            let local = self.ns.is_local(volume);
            let done = self
                .latency
                .disk_io(volume.0 as usize, action.io.len, now, &mut self.rng);
            self.metrics.paging_writes += 1;
            self.metrics.paging_write_bytes += action.io.len;
            let (fo, fcb, process) = self
                .deferred_close
                .get(&action.key)
                .and_then(|v| v.last().copied())
                .map(|(fo, fcb, _, process, _)| (fo, fcb, process))
                .unwrap_or((FileObjectId(0), FcbId(u64::MAX), ProcessId(4)));
            let file_size = self
                .ns
                .volume(volume)
                .ok()
                .and_then(|v| v.file_size(node).ok())
                .unwrap_or(0);
            self.emit_write_event(
                EventKind::Irp(MajorFunction::Write),
                fo,
                fcb,
                process,
                volume,
                local,
                true,
                action.io.offset,
                action.io.len,
                file_size,
                0,
                now,
                done,
            );
        }
        for key in closable {
            if let Some(waiters) = self.deferred_close.remove(&key) {
                let (volume, node) = key;
                for (fo, fcb, fcb_slot, process, cleaned) in waiters {
                    // Catch-up scans may run with a timestamp before the
                    // cleanup that registered this close; the close IRP
                    // never precedes its cleanup.
                    let at = now.max(cleaned + CLEAN_CLOSE_DELAY);
                    self.emit_close_irp(fo, fcb, fcb_slot, volume, node, process, at);
                }
            }
        }
        // Keep resident cache data within the machine's memory budget by
        // dropping the coldest clean maps (standby-list reclaim).
        self.cache.trim(self.config.cache_budget_bytes);
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testkit::{machine, open_new, t, P};
    use crate::request::{EventKind, MajorFunction, SetInfoKind};
    use crate::status::NtStatus;
    use crate::types::{AccessMode, CreateOptions, Disposition};
    use nt_fs::NtPath;
    use nt_sim::SimDuration;

    #[test]
    fn two_stage_close_clean_file() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\r.txt", t(1));
        m.close(h, t(2));
        m.pump(t(3));
        let kinds: Vec<EventKind> = m.observer().events.iter().map(|e| e.kind).collect();
        let cleanup = kinds
            .iter()
            .position(|k| *k == EventKind::Irp(MajorFunction::Cleanup))
            .expect("cleanup IRP");
        let close = kinds
            .iter()
            .position(|k| *k == EventKind::Irp(MajorFunction::Close))
            .expect("close IRP");
        assert!(close > cleanup);
        let cu = &m.observer().events[cleanup];
        let cl = &m.observer().events[close];
        let gap = cl.start.saturating_since(cu.end);
        assert!(
            gap < SimDuration::from_millis(1),
            "clean close is fast, got {gap}"
        );
    }

    #[test]
    fn dirty_file_close_waits_for_lazy_writer() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\w.dat", t(1));
        m.write(h, Some(0), 300_000, t(1));
        m.close(h, t(2));
        assert_eq!(m.deferred_closes(), 1);
        let mut s = 3;
        while m.deferred_closes() > 0 && s < 60 {
            m.lazy_tick(t(s));
            s += 1;
        }
        assert_eq!(m.deferred_closes(), 0, "drain completes the close");
        // SetEndOfFile was issued before the close (§8.3).
        assert!(m
            .observer()
            .events
            .iter()
            .any(|e| e.set_info == Some(SetInfoKind::EndOfFile)));
        // Lazy paging writes were emitted.
        assert!(m.metrics().paging_writes > 0);
    }

    #[test]
    fn delete_on_close_removes_the_file() {
        let (mut m, vol) = machine();
        let (_, h) = m.create(
            P,
            vol,
            &NtPath::parse(r"\tmp.del"),
            AccessMode::Write,
            Disposition::Create,
            CreateOptions {
                delete_on_close: true,
                ..CreateOptions::default()
            },
            t(1),
        );
        let h = h.unwrap();
        m.write(h, Some(0), 4_096, t(1));
        m.close(h, t(2));
        assert_eq!(m.metrics().delete_on_close, 1);
        let (reply, _) = m.create(
            P,
            vol,
            &NtPath::parse(r"\tmp.del"),
            AccessMode::Read,
            Disposition::Open,
            CreateOptions::default(),
            t(3),
        );
        assert_eq!(reply.status, NtStatus::ObjectNameNotFound);
        // The dirty page never reached the disk: purged at delete.
        assert!(m.cache_metrics().purged_dirty_bytes >= 4_096);
    }

    #[test]
    fn explicit_delete_via_disposition() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\doomed.txt", t(1));
        m.write(h, Some(0), 100, t(1));
        let r = m.set_delete_disposition(h, t(2));
        assert_eq!(r.status, NtStatus::Success);
        m.close(h, t(3));
        assert_eq!(m.metrics().explicit_deletes, 1);
        assert!(m
            .namespace()
            .volume(vol)
            .unwrap()
            .lookup(&NtPath::parse(r"\doomed.txt"))
            .is_err());
    }
}
