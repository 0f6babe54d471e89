//! The Win32-level operations of [`Machine`](crate::machine::Machine),
//! one focused module per request family.
//!
//! Every module extends `impl<O: IoObserver> Machine<O>` with the public
//! entry points for its family; each entry point pumps due background
//! work, builds an [`IrpFrame`](crate::stack::IrpFrame) and sends it
//! through `Machine::dispatch`, so
//! the attached filter drivers see the request on the way down and its
//! completion on the way back up.
//!
//! * [`create`] — IRP_MJ_CREATE: open/create resolution, share-mode
//!   arbitration, truncating dispositions (§8.4 failure accounting).
//! * [`read_write`] — the data path: FastIO-vs-IRP split, paging I/O,
//!   write-through and flush (§9, §10).
//! * [`info`] — metadata queries and sets, volume control (§8.3).
//! * [`dir`] — directory enumeration and change notification.
//! * [`locks`] — byte-range locks (FastIoLock family).
//! * [`section`] — memory-mapped access and the MDL interface (§3.3, §10).
//! * [`close`] — the two-stage close and the lazy writer (§8.1, §9.2).

pub mod close;
pub mod create;
pub mod dir;
pub mod info;
pub mod locks;
pub mod read_write;
pub mod section;

#[cfg(test)]
pub(crate) mod testkit {
    use crate::latency::DiskParams;
    use crate::machine::{Machine, MachineConfig};
    use crate::observer::VecObserver;
    use crate::status::NtStatus;
    use crate::types::{AccessMode, CreateOptions, Disposition, HandleId, ProcessId};
    use nt_fs::{NtPath, VolumeConfig, VolumeId};
    use nt_sim::SimTime;

    pub(crate) fn machine() -> (Machine<VecObserver>, VolumeId) {
        let mut m = Machine::new(MachineConfig::default(), VecObserver::default());
        let vol = m.add_local_volume(
            'C',
            VolumeConfig::local_ntfs(1 << 30),
            DiskParams::local_ide(),
        );
        (m, vol)
    }

    pub(crate) const P: ProcessId = ProcessId(7);

    pub(crate) fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    pub(crate) fn open_new(
        m: &mut Machine<VecObserver>,
        vol: VolumeId,
        path: &str,
        at: SimTime,
    ) -> HandleId {
        let (reply, h) = m.create(
            P,
            vol,
            &NtPath::parse(path),
            AccessMode::ReadWrite,
            Disposition::OpenIf,
            CreateOptions::default(),
            at,
        );
        assert_eq!(reply.status, NtStatus::Success);
        h.expect("open succeeded")
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use nt_fs::{NtPath, VolumeConfig};
    use nt_obs::{Phase, Telemetry};
    use nt_sim::SimDuration;

    use crate::filters::{AntivirusFilter, FastIoVeto};
    use crate::latency::DiskParams;
    use crate::machine::{IoMetrics, Machine, MachineConfig, OpReply};
    use crate::observer::{IoObserver, NullObserver, VecObserver};
    use crate::request::{EventKind, MajorFunction};
    use crate::stack::{FilterAction, FilterDriver, IrpFrame};
    use crate::status::NtStatus;
    use crate::types::{AccessMode, CreateOptions, Disposition, HandleId};

    use super::testkit::{machine, open_new, t, P};

    #[test]
    fn invalid_handles_are_rejected() {
        let (mut m, _) = machine();
        let bogus = HandleId(999);
        assert_eq!(
            m.read(bogus, None, 10, t(1)).status,
            NtStatus::InvalidHandle
        );
        assert_eq!(
            m.write(bogus, None, 10, t(1)).status,
            NtStatus::InvalidHandle
        );
        assert_eq!(m.close(bogus, t(1)).status, NtStatus::InvalidHandle);
        assert_eq!(m.flush(bogus, t(1)).status, NtStatus::InvalidHandle);
    }

    #[test]
    fn file_objects_reported_to_observer() {
        let (mut m, vol) = machine();
        let h = open_new(&mut m, vol, r"\hello.txt", t(1));
        m.close(h, t(2));
        assert_eq!(m.observer().objects.len(), 1);
        assert_eq!(m.observer().objects[0].path, r"\hello.txt");
    }

    #[test]
    fn null_observer_keeps_metrics_parity() {
        // `NullObserver` skips building `IoEvent` values entirely
        // (`O::ENABLED`), but the machine's counters — `events_emitted`
        // in particular, which the conservation ledger debits — must
        // count exactly what a recording observer would have seen.
        fn drive<O: IoObserver>(mut m: Machine<O>) -> (IoMetrics, Machine<O>) {
            let vol = m.add_local_volume(
                'C',
                VolumeConfig::local_ntfs(1 << 30),
                DiskParams::local_ide(),
            );
            let (reply, h) = m.create(
                P,
                vol,
                &NtPath::parse(r"\parity.dat"),
                AccessMode::ReadWrite,
                Disposition::OpenIf,
                CreateOptions::default(),
                t(1),
            );
            assert_eq!(reply.status, NtStatus::Success);
            let h = h.expect("open succeeded");
            m.write(h, Some(0), 16_384, t(2));
            let mut at = t(3);
            for _ in 0..4 {
                at = m.read(h, Some(0), 4_096, at).end;
            }
            m.flush(h, at);
            m.close(h, at + SimDuration::from_secs(1));
            m.lazy_tick(at + SimDuration::from_secs(10));
            (m.metrics(), m)
        }

        let (null_metrics, _) = drive(Machine::new(
            MachineConfig {
                seed: 9,
                ..MachineConfig::default()
            },
            NullObserver,
        ));
        let (vec_metrics, watched) = drive(Machine::new(
            MachineConfig {
                seed: 9,
                ..MachineConfig::default()
            },
            VecObserver::default(),
        ));
        assert_eq!(null_metrics, vec_metrics);
        assert!(null_metrics.events_emitted > 0);
        assert_eq!(
            vec_metrics.events_emitted,
            watched.observer().events.len() as u64,
            "every counted emission reached the recording observer"
        );
    }

    #[test]
    fn ablation_disable_fastio_forces_irp() {
        let mut m = Machine::new(
            MachineConfig {
                disable_fastio: true,
                ..MachineConfig::default()
            },
            VecObserver::default(),
        );
        let vol = m.add_local_volume(
            'C',
            VolumeConfig::local_ntfs(1 << 30),
            DiskParams::local_ide(),
        );
        let h = open_new(&mut m, vol, r"\f.dat", t(1));
        m.write(h, Some(0), 20_000, t(1));
        let mut tt = t(2);
        for _ in 0..10 {
            tt = m.read(h, Some(0), 4_096, tt).end;
        }
        assert_eq!(m.metrics().fastio_reads, 0);
        assert_eq!(m.metrics().fastio_writes, 0);
        assert!(m.metrics().irp_reads >= 10);
        assert!(m
            .observer()
            .events
            .iter()
            .all(|e| !e.kind.is_fastio() || !e.kind.is_read()));
    }

    #[test]
    fn access_mode_is_enforced() {
        let (mut m, vol) = machine();
        let (_, h) = m.create(
            P,
            vol,
            &NtPath::parse(r"\ro.txt"),
            AccessMode::Write,
            Disposition::Create,
            CreateOptions::default(),
            t(1),
        );
        let h = h.unwrap();
        m.write(h, Some(0), 100, t(1));
        assert_eq!(
            m.read(h, Some(0), 100, t(2)).status,
            NtStatus::AccessDenied,
            "write-only handle cannot read"
        );
        m.close(h, t(3));
        let (_, h) = m.create(
            P,
            vol,
            &NtPath::parse(r"\ro.txt"),
            AccessMode::Read,
            Disposition::Open,
            CreateOptions::default(),
            t(4),
        );
        let h = h.unwrap();
        assert_eq!(
            m.write(h, Some(0), 100, t(5)).status,
            NtStatus::AccessDenied,
            "read-only handle cannot write"
        );
        m.close(h, t(6));
    }

    #[test]
    fn temporary_files_spare_the_disk() {
        let (mut m, vol) = machine();
        let (_, h) = m.create(
            P,
            vol,
            &NtPath::parse(r"\scratch.tmp"),
            AccessMode::Write,
            Disposition::Create,
            CreateOptions {
                temporary: true,
                delete_on_close: true,
                ..CreateOptions::default()
            },
            t(1),
        );
        let h = h.unwrap();
        m.write(h, Some(0), 100_000, t(1));
        m.lazy_tick(t(2));
        assert_eq!(
            m.metrics().paging_writes,
            0,
            "temporary data never hits the disk"
        );
        m.close(h, t(3));
        assert_eq!(m.metrics().delete_on_close, 1);
    }

    #[test]
    fn antivirus_scan_latency_lands_in_the_trace() {
        let scan = SimDuration::from_millis(3);
        let (mut plain, vol_p) = machine();
        let (mut scanned, vol_s) = machine();
        scanned.attach_filter(Box::new(AntivirusFilter::new(scan)));
        let hp = open_new(&mut plain, vol_p, r"\mail.doc", t(1));
        let hs = open_new(&mut scanned, vol_s, r"\mail.doc", t(1));
        plain.write(hp, Some(0), 8_192, t(2));
        scanned.write(hs, Some(0), 8_192, t(2));
        let rp = plain.read(hp, Some(0), 4_096, t(3));
        let rs = scanned.read(hs, Some(0), 4_096, t(3));
        assert_eq!(rs.status, NtStatus::Success);
        assert_eq!(
            rs.end.saturating_since(t(3)),
            rp.end.saturating_since(t(3)) + scan,
            "the scan delay is additive on the read path"
        );
        let av: &AntivirusFilter = scanned.stack().find().expect("attached above");
        assert!(av.scans() >= 2, "create and read both scanned");
    }

    #[test]
    fn veto_relabels_fastio_as_irp_at_the_same_cost() {
        let (mut plain, vol_p) = machine();
        let (mut vetoed, vol_v) = machine();
        vetoed.attach_filter(Box::new(FastIoVeto));
        for (m, vol) in [(&mut plain, vol_p), (&mut vetoed, vol_v)] {
            let h = open_new(m, vol, r"\same.dat", t(1));
            m.write(h, Some(0), 16_384, t(1));
            let mut at = t(2);
            for _ in 0..3 {
                at = m.read(h, Some(0), 4_096, at).end;
            }
            m.lock(h, 0, 64, true, at);
            m.unlock(h, 0, 64, at);
            m.close(h, at + SimDuration::from_secs(1));
        }
        assert_eq!(vetoed.metrics().fastio_reads, 0);
        assert_eq!(
            vetoed.metrics().irp_reads,
            plain.metrics().irp_reads + plain.metrics().fastio_reads,
            "every FastIO read fell back to its IRP"
        );
        assert!(vetoed
            .observer()
            .events
            .iter()
            .all(|e| !matches!(e.kind, EventKind::FastIo(_))));
        // Same record stream modulo the relabelling: identical timing.
        assert_eq!(
            plain.observer().events.len(),
            vetoed.observer().events.len()
        );
        for (a, b) in plain
            .observer()
            .events
            .iter()
            .zip(vetoed.observer().events.iter())
        {
            assert_eq!(
                (a.start, a.end, a.transferred, a.status),
                (b.start, b.end, b.transferred, b.status)
            );
        }
    }

    /// Completes every write above the FSD.
    struct Firewall {
        blocked: u64,
    }

    impl FilterDriver for Firewall {
        fn name(&self) -> &'static str {
            "firewall"
        }
        fn intercepts(&self) -> bool {
            true
        }
        fn pre(&mut self, frame: &mut IrpFrame) -> FilterAction {
            if frame.major == Some(MajorFunction::Write) {
                self.blocked += 1;
                return FilterAction::Complete(OpReply::at(NtStatus::AccessDenied, frame.now));
            }
            FilterAction::Pass
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn a_filter_may_complete_above_the_fsd() {
        let (mut m, vol) = machine();
        m.attach_filter(Box::new(Firewall { blocked: 0 }));
        let h = open_new(&mut m, vol, r"\guarded.txt", t(1));
        let before_fsd = m.stack().fsd_completed();
        let r = m.write(h, Some(0), 4_096, t(2));
        assert_eq!(r.status, NtStatus::AccessDenied);
        assert_eq!(
            m.stack().fsd_completed(),
            before_fsd,
            "the FSD never saw the write"
        );
        assert_eq!(
            m.metrics().irp_writes + m.metrics().fastio_writes,
            0,
            "no write was served"
        );
        let fw: &Firewall = m.stack().find().expect("attached above");
        assert_eq!(fw.blocked, 1);
        let (top, rest) = m
            .stack()
            .layers()
            .split_first()
            .map(|(a, b)| (*a, b.to_vec()))
            .unwrap();
        assert_eq!(top.0, "firewall");
        assert_eq!(top.1.completed, 1, "the firewall completed the write");
        assert!(rest.iter().all(|(_, c)| c.completed == 0));
    }

    #[test]
    fn every_dispatch_opens_one_span() {
        // Create, write, read, flush and close, then one lazy-writer tick:
        // six packets, each dispatched once.
        fn drive(m: &mut Machine<VecObserver>, vol: nt_fs::VolumeId) {
            let h = open_new(m, vol, r"\spans.dat", t(1));
            m.write(h, Some(0), 8_192, t(2));
            m.read(h, Some(0), 4_096, t(3));
            m.flush(h, t(4));
            m.close(h, t(5));
            m.lazy_tick(t(6));
        }
        let dispatch_spans = |telemetry: &Telemetry| {
            let report = telemetry.report().expect("a profiler records");
            report.profile.phase(Phase::Dispatch).spans
        };

        let (mut m, vol) = machine();
        let telemetry = Telemetry::profiler();
        m.set_telemetry(telemetry.clone());
        drive(&mut m, vol);
        assert_eq!(m.stack().fsd_completed(), 6);
        assert_eq!(dispatch_spans(&telemetry), m.stack().fsd_completed());
        assert!(m.stack().layers().is_empty(), "no filter attached");

        // A packet a filter completes above the FSD still gets its span.
        let (mut m, vol) = machine();
        m.attach_filter(Box::new(Firewall { blocked: 0 }));
        let telemetry = Telemetry::profiler();
        m.set_telemetry(telemetry.clone());
        drive(&mut m, vol);
        let blocked = m.stack().find::<Firewall>().expect("attached").blocked;
        assert_eq!(blocked, 1);
        assert_eq!(
            dispatch_spans(&telemetry),
            m.stack().fsd_completed() + blocked
        );
        let names: Vec<_> = m.stack().layers().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["firewall"]);

        // Telemetry off: the machine records no profile.
        let (mut m, vol) = machine();
        drive(&mut m, vol);
        assert!(m.telemetry.report().is_none());
    }
}
