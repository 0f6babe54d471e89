//! IRP_MJ_CREATE: open/create resolution, share-mode arbitration and the
//! truncating dispositions (§6.3, §8.4).

use nt_fs::{FileAttributes, FsError, NodeId, NtPath, VolumeId};
use nt_sim::SimTime;

use crate::machine::{emit_event, Machine, OpReply, OpenHandle};
use crate::observer::{FileObjectInfo, IoObserver};
use crate::request::{EventKind, IoEvent, MajorFunction};
use crate::stack::IrpFrame;
use crate::status::NtStatus;
use crate::types::{AccessMode, CreateOptions, Disposition, FcbId, HandleId, ProcessId};

impl<O: IoObserver> Machine<O> {
    /// Opens or creates a file (IRP_MJ_CREATE).
    ///
    /// Returns the reply and, on success, a handle. Failed opens emit the
    /// create IRP with its failure status, which is how the §8.4 error
    /// rates enter the trace.
    // NtCreateFile takes this many parameters; mirroring it is clearer
    // than bundling.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        process: ProcessId,
        volume: VolumeId,
        path: &NtPath,
        access: AccessMode,
        disposition: Disposition,
        options: CreateOptions,
        now: SimTime,
    ) -> (OpReply, Option<HandleId>) {
        self.pump(now);
        let frame = IrpFrame {
            major: Some(MajorFunction::Create),
            label: "create",
            now,
        };
        self.dispatch_with(frame, |m, f| {
            m.create_fsd(process, volume, path, access, disposition, options, f.now)
        })
    }

    /// The FSD's half of the create: everything below the driver stack.
    #[allow(clippy::too_many_arguments)]
    fn create_fsd(
        &mut self,
        process: ProcessId,
        volume: VolumeId,
        path: &NtPath,
        access: AccessMode,
        disposition: Disposition,
        options: CreateOptions,
        now: SimTime,
    ) -> (OpReply, Option<HandleId>) {
        let fo = self.next_file_object();
        // The name record (and its path copy) only exists when the
        // observer consumes records; an untraced machine never builds it.
        if O::ENABLED {
            self.observer.file_object(&FileObjectInfo {
                id: fo,
                volume: volume.0,
                path: path.to_string(),
                process,
                at: now,
            });
        }
        let local = self.ns.is_local(volume);
        // Every failed open: counted, recorded with its status and no FCB.
        let fail = |m: &mut Self, status: NtStatus| {
            let end = now + m.latency.metadata_op();
            m.metrics.open_failures += 1;
            emit_event!(
                m,
                IoEvent {
                    kind: EventKind::Irp(MajorFunction::Create),
                    file_object: fo,
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
                    access: Some(access),
                    disposition: Some(disposition),
                    options: Some(options),
                    set_info: None,
                    created: false,
                }
            );
            (OpReply::at(status, end), None)
        };

        // A partitioned network link fails the open before the redirector
        // reaches the server; nothing on the remote volume changes.
        if !local && !self.network_up {
            self.metrics.network_failures += 1;
            return fail(self, NtStatus::NetworkUnreachable);
        }

        // Share-mode arbitration happens before any side effect of the
        // open (in particular before a truncating disposition destroys
        // data).
        let found = self.ns.volume(volume).and_then(|v| v.lookup(path));
        if let Ok(node) = found {
            let live_fcb = self.fcbs.find(volume, node);
            let compatible = live_fcb
                .map(|slot| self.shares.compatible(slot, access, options.share))
                .unwrap_or(true);
            if !compatible {
                self.metrics.sharing_violations += 1;
                return fail(self, NtStatus::SharingViolation);
            }
        }
        let resolved = self.resolve_create(volume, path, found, disposition, options, now);
        let end = now + self.latency.metadata_op();
        match resolved {
            Err(status) => fail(self, status),
            Ok((node, truncated, created)) => {
                let (fcb_slot, fcb) = self.fcbs.open(volume, node);
                if truncated {
                    // §6.3: an overwrite may find unwritten dirty pages in
                    // the cache; they are purged, never written — and any
                    // close still waiting on the old data completes now.
                    self.release_deferred((volume, node), now);
                    self.cache.purge(&(volume, node));
                    self.vm.purge(&(volume, node));
                    self.metrics.overwrite_truncates += 1;
                }
                if options.temporary {
                    let _ = self.ns.volume_mut(volume).and_then(|v| {
                        let attrs = v
                            .node(node)
                            .ok()
                            .and_then(|n| n.file().map(|f| f.attributes))
                            .unwrap_or_default();
                        v.set_attributes(node, attrs | FileAttributes::TEMPORARY)
                    });
                }
                let file_size = self
                    .ns
                    .volume(volume)
                    .ok()
                    .and_then(|v| v.file_size(node).ok())
                    .unwrap_or(0);
                if created || truncated {
                    if let Some(parent) = self.parent_of(volume, node) {
                        self.fire_watches(volume, parent, now);
                    }
                }
                let handle = HandleId(
                    self.handles
                        .insert(OpenHandle {
                            fo,
                            fcb,
                            fcb_slot,
                            volume,
                            node,
                            process,
                            access,
                            options,
                            byte_offset: 0,
                            dir_cursor: 0,
                            mapped: false,
                        })
                        .pack(),
                );
                let registered = self
                    .shares
                    .try_open(fcb_slot, handle, access, options.share);
                debug_assert!(registered, "compatibility was checked above");
                self.metrics.opens += 1;
                emit_event!(
                    self,
                    IoEvent {
                        kind: EventKind::Irp(MajorFunction::Create),
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
                        byte_offset: 0,
                        status: NtStatus::Success,
                        start: now,
                        end,
                        access: Some(access),
                        disposition: Some(disposition),
                        options: Some(options),
                        set_info: None,
                        created,
                    }
                );
                (
                    OpReply {
                        status: NtStatus::Success,
                        transferred: 0,
                        end,
                    },
                    Some(handle),
                )
            }
        }
    }

    /// Opens or creates the node `path` names; `found` is the caller's
    /// lookup of `path` on `volume`.
    fn resolve_create(
        &mut self,
        volume: VolumeId,
        path: &NtPath,
        found: Result<NodeId, FsError>,
        disposition: Disposition,
        options: CreateOptions,
        now: SimTime,
    ) -> Result<(NodeId, bool, bool), NtStatus> {
        let vol = self.ns.volume_mut(volume).map_err(NtStatus::from)?;
        match found {
            Ok(node) => {
                let is_dir = vol
                    .node(node)
                    .map(|n| n.kind.is_directory())
                    .unwrap_or(false);
                if is_dir && !options.directory {
                    // Opening a directory as a file is allowed for control
                    // access in NT; only data access fails. We allow it.
                }
                if !is_dir && options.directory {
                    return Err(NtStatus::NotADirectory);
                }
                match disposition {
                    Disposition::Create => Err(NtStatus::ObjectNameCollision),
                    Disposition::Open | Disposition::OpenIf => Ok((node, false, false)),
                    Disposition::Overwrite | Disposition::OverwriteIf | Disposition::Supersede => {
                        if is_dir {
                            return Err(NtStatus::FileIsADirectory);
                        }
                        vol.overwrite(node, now).map_err(NtStatus::from)?;
                        Ok((node, true, false))
                    }
                }
            }
            Err(FsError::NotFound) => {
                if !disposition.may_create() {
                    return Err(NtStatus::ObjectNameNotFound);
                }
                let parent_path = path.parent();
                let parent = vol
                    .lookup(&parent_path)
                    .map_err(|_| NtStatus::ObjectPathNotFound)?;
                let name = path.file_name().ok_or(NtStatus::InvalidParameter)?;
                let node = if options.directory {
                    vol.mkdir(parent, name, now).map_err(NtStatus::from)?
                } else {
                    vol.create_file(parent, name, now).map_err(NtStatus::from)?
                };
                Ok((node, false, true))
            }
            Err(e) => Err(NtStatus::from(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::testkit::{machine, open_new, t, P};
    use crate::request::{EventKind, MajorFunction};
    use crate::status::NtStatus;
    use crate::types::{AccessMode, CreateOptions, Disposition, ShareMode};
    use nt_fs::NtPath;

    #[test]
    fn open_missing_file_fails_not_found() {
        let (mut m, vol) = machine();
        let (reply, h) = m.create(
            P,
            vol,
            &NtPath::parse(r"\missing.txt"),
            AccessMode::Read,
            Disposition::Open,
            CreateOptions::default(),
            t(1),
        );
        assert_eq!(reply.status, NtStatus::ObjectNameNotFound);
        assert!(h.is_none());
        assert_eq!(m.metrics().open_failures, 1);
        let ev = &m.observer().events[0];
        assert_eq!(ev.kind, EventKind::Irp(MajorFunction::Create));
        assert_eq!(ev.status, NtStatus::ObjectNameNotFound);
    }

    #[test]
    fn create_collision_fails() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\a.txt", t(1));
        m.close(h, t(2));
        let (reply, _) = m.create(
            P,
            vol,
            &NtPath::parse(r"\a.txt"),
            AccessMode::Write,
            Disposition::Create,
            CreateOptions::default(),
            t(3),
        );
        assert_eq!(reply.status, NtStatus::ObjectNameCollision);
    }

    #[test]
    fn overwrite_disposition_truncates() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\o.txt", t(1));
        m.write(h, Some(0), 10_000, t(1));
        m.close(h, t(2));
        for s in 3..8 {
            m.lazy_tick(t(s));
        }
        let (reply, h2) = m.create(
            P,
            vol,
            &NtPath::parse(r"\o.txt"),
            AccessMode::Write,
            Disposition::OverwriteIf,
            CreateOptions::default(),
            t(10),
        );
        assert_eq!(reply.status, NtStatus::Success);
        assert_eq!(m.metrics().overwrite_truncates, 1);
        let v = m.namespace().volume(vol).unwrap();
        let node = v.lookup(&NtPath::parse(r"\o.txt")).unwrap();
        assert_eq!(v.file_size(node).unwrap(), 0);
        m.close(h2.unwrap(), t(11));
    }

    #[test]
    fn sharing_violation_blocks_second_opener() {
        let (mut m, vol) = machine();
        // Open exclusively (share nothing).
        let (_, h1) = m.create(
            P,
            vol,
            &NtPath::parse(r"\locked.db"),
            AccessMode::ReadWrite,
            Disposition::OpenIf,
            CreateOptions {
                share: ShareMode::default(),
                ..CreateOptions::default()
            },
            t(1),
        );
        let h1 = h1.unwrap();
        let (reply, h2) = m.create(
            P,
            vol,
            &NtPath::parse(r"\locked.db"),
            AccessMode::Read,
            Disposition::Open,
            CreateOptions::default(),
            t(2),
        );
        assert_eq!(reply.status, NtStatus::SharingViolation);
        assert!(h2.is_none());
        assert_eq!(m.metrics().sharing_violations, 1);
        m.close(h1, t(3));
        // After the exclusive handle cleans up, the open succeeds.
        let (reply, h3) = m.create(
            P,
            vol,
            &NtPath::parse(r"\locked.db"),
            AccessMode::Read,
            Disposition::Open,
            CreateOptions::default(),
            t(4),
        );
        assert_eq!(reply.status, NtStatus::Success);
        m.close(h3.unwrap(), t(5));
    }
}
