//! Driving one traced workstation through the study period.

use nt_fs::VolumeConfig;
use nt_io::{DiskParams, FastIoVeto, Machine, MachineConfig, ProcessId, SpanFilter};
use nt_obs::{
    FlightEvent, FlightRecorder, HealthFinding, RecorderScope, ShipmentTracer, Telemetry, Watchdog,
};
use nt_sim::{rng_for, Engine, SimDuration, SimRng, SimTime};
use nt_trace::{MachineId, RecordSink, Snapshot, SnapshotWalker, TraceFilter};
use nt_workload::{
    plan::{run_plan, run_plan_keep_open},
    users::WorkingSet,
    ContentBuilder, ContentPlan, UsageCategory, UserModel,
};
use rand::Rng;

use crate::config::{MachineSpec, StudyConfig};
use crate::fault::MachineFaults;

/// Simulated-clock cadence of the telemetry gauge/counter sampler.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// One workstation mid-flight: the machine, its user model and the
/// bookkeeping the §3 agent performs.
pub struct MachineRun {
    /// The collection-server identity of this machine.
    pub id: MachineId,
    /// The usage category (drives analysis breakdowns).
    pub category: UsageCategory,
    machine: Machine<TraceFilter>,
    user: UserModel,
    rng: SimRng,
    /// Snapshots taken so far.
    pub snapshots: Vec<Snapshot>,
    telemetry: Telemetry,
    /// Simulated cadence of the gauge/counter sampler; `None` when
    /// telemetry is off (the engine then carries no sampler events).
    sample_interval: Option<SimDuration>,
    /// Flight-recorder handle; off unless armed via
    /// [`MachineRun::set_instruments`].
    recorder: FlightRecorder,
    /// Health watchdog; `None` unless armed (findings then ride the
    /// telemetry sampler cadence).
    watchdog: Option<Watchdog>,
    /// Findings the watchdog raised during the run, in sample order.
    health: Vec<HealthFinding>,
    /// The fault plan's squeezed buffer capacity, remembered so arming
    /// the recorder can log the squeeze it missed at build time.
    squeezed_capacity: Option<usize>,
}

impl MachineRun {
    /// Builds the machine for a spec: volumes, §5-like initial content,
    /// working set, user model, filter driver.
    pub fn build(config: &StudyConfig, index: usize, spec: &MachineSpec) -> Self {
        Self::build_with_faults(config, index, spec, &MachineFaults::default())
    }

    /// [`MachineRun::build`] under a fault schedule: a squeezed buffer
    /// capacity shrinks the agent's storage buffers. The machine's
    /// workload RNG stream is untouched by the fault layer, so a clean
    /// schedule builds a bit-identical machine.
    pub fn build_with_faults(
        config: &StudyConfig,
        index: usize,
        spec: &MachineSpec,
        faults: &MachineFaults,
    ) -> Self {
        let id = MachineId(index as u32);
        let mut rng = rng_for(config.seed, &[index as u64]);
        let mut machine_config = MachineConfig {
            seed: rng.gen(),
            ..MachineConfig::default()
        };
        machine_config.disable_fastio = config.disable_fastio;
        machine_config.cache.readahead_enabled = !config.disable_readahead;
        machine_config.cache.force_write_through = config.force_write_through;
        let telemetry = match config.telemetry.options() {
            Some(opts) => Telemetry::for_machine(id.0, opts),
            None => Telemetry::off(),
        };
        let mut filter = match faults.buffer_capacity {
            Some(cap) => TraceFilter::with_capacity(id, cap),
            None => TraceFilter::new(id),
        };
        filter.set_telemetry(telemetry.clone());
        let mut machine = Machine::new(machine_config, filter);
        machine.set_telemetry(telemetry.clone());
        if config.telemetry.options().is_some() {
            // Dispatch spans ride the driver stack: the span layer sits
            // above the trace agent and brackets every packet's descent.
            machine.attach_filter(Box::new(SpanFilter::new(telemetry.clone())));
        }
        if config.force_irp_fallback {
            machine.attach_filter(Box::new(FastIoVeto));
        }

        // §2 hardware: scientific machines have 9–18 GB SCSI disks,
        // everyone else 2–6 GB IDE.
        let (capacity, disk) = match spec.category {
            UsageCategory::Scientific => (rng.gen_range(9..=18u64) << 30, DiskParams::local_scsi()),
            _ => (rng.gen_range(2..=6u64) << 30, DiskParams::local_ide()),
        };
        // §2/§3.1: the fleet mixed FAT and NTFS; FAT volumes do not
        // maintain creation or last-access times, which the §5 analysis
        // has to cope with.
        let use_fat = !matches!(spec.category, UsageCategory::Scientific) && rng.gen_bool(0.25);
        let volume_config = if use_fat {
            VolumeConfig::local_fat(capacity)
        } else {
            VolumeConfig::local_ntfs(capacity)
        };
        let local = machine.add_local_volume('C', volume_config, disk);
        let share = machine.add_share(
            "fileserv",
            &format!("{}$", spec.user),
            VolumeConfig::local_ntfs(2 << 30),
            DiskParams::network_share(),
        );

        // Initial content.
        let mut plan = match spec.category {
            UsageCategory::Pool => ContentPlan::developer(&spec.user),
            _ => ContentPlan::desktop(&spec.user),
        };
        plan.target_files = config.files_per_volume;
        plan.web_cache_files = config.web_cache_files;
        {
            let vol = machine
                .namespace_mut()
                .volume_mut(local)
                .expect("local volume exists");
            ContentBuilder::build(vol, &plan, SimTime::ZERO, &mut rng)
                .expect("initial content fits the volume");
        }
        // Scientific machines get their large data sets.
        if spec.category == UsageCategory::Scientific {
            let vol = machine
                .namespace_mut()
                .volume_mut(local)
                .expect("local volume exists");
            let root = vol.root();
            let data = vol.mkdir(root, "data", SimTime::ZERO).expect("fresh dir");
            for i in 0..6 {
                let f = vol
                    .create_file(data, &format!("run{i}.mat"), SimTime::ZERO)
                    .expect("fresh file");
                // §6.1: 100–300 MB simulation files, clamped to what the
                // volume has left after its initial content. The draw
                // happens either way, so the RNG stream — and every
                // machine that fits — is unchanged. Free space is a
                // whole number of clusters, so the clamped size fits.
                let stats = vol.stats();
                let free = stats.capacity - stats.allocated_bytes;
                let size = (rng.gen_range(100..300u64) << 20).min(free);
                vol.set_file_size(f, size, SimTime::ZERO)
                    .expect("a data set clamped to the free space fits");
            }
        }
        // The user's share holds some documents.
        {
            let vol = machine
                .namespace_mut()
                .volume_mut(share)
                .expect("share volume exists");
            let plan = ContentPlan::user_share(150);
            ContentBuilder::build(vol, &plan, SimTime::ZERO, &mut rng).expect("share content fits");
        }

        let ws = {
            let vol = machine.namespace().volume(local).expect("local volume");
            WorkingSet::sample(local, vol, 1_500)
        };
        let user = UserModel::new(spec.category, &spec.user, local, Some(share), ws);
        MachineRun {
            id,
            category: spec.category,
            machine,
            user,
            rng,
            snapshots: Vec::new(),
            telemetry,
            sample_interval: config.telemetry.is_on().then_some(SAMPLE_INTERVAL),
            recorder: FlightRecorder::off(),
            watchdog: None,
            health: Vec::new(),
            squeezed_capacity: faults.buffer_capacity,
        }
    }

    /// Arms the diagnostics on this machine: the shipment tracer and
    /// flight recorder hook into the agent's delivery path, and with a
    /// live recorder the health watchdog reports into it on the sampler
    /// cadence. Off handles make this a no-op, so the study driver calls
    /// it unconditionally after build.
    pub(crate) fn set_instruments(&mut self, tracer: &ShipmentTracer, recorder: &FlightRecorder) {
        self.machine
            .observer_mut()
            .set_shipment_hooks(tracer.clone(), recorder.clone());
        self.recorder = recorder.clone();
        if recorder.is_enabled() {
            self.watchdog = Some(Watchdog::new());
        }
        if let Some(capacity) = self.squeezed_capacity {
            self.recorder.record(
                RecorderScope::Machine(self.id.0),
                FlightEvent::BufferSqueezed {
                    capacity: capacity as u64,
                },
            );
        }
    }

    /// Drains the findings the watchdog raised during the run.
    pub(crate) fn take_health(&mut self) -> Vec<HealthFinding> {
        std::mem::take(&mut self.health)
    }

    /// Latest simulated tick a shipment delivery succeeded at (0 when
    /// none did) — feeds the post-run shard-stall check.
    pub fn last_delivery_ticks(&self) -> u64 {
        self.machine.observer().last_delivery_ticks()
    }

    /// Takes a §3.1 snapshot of every volume.
    pub fn take_snapshot(&mut self, now: SimTime) {
        self.snapshots.extend(SnapshotWalker::walk_namespace(
            self.machine.namespace(),
            now,
        ));
    }

    /// Runs the machine for the configured duration, shipping trace
    /// buffers into `server`, and returns the end-of-run metrics.
    pub fn simulate(&mut self, config: &StudyConfig, server: &mut dyn RecordSink) {
        self.simulate_with_faults(config, &MachineFaults::default(), server)
    }

    /// [`MachineRun::simulate`] under a fault schedule: the agent
    /// suspends during its outage windows (losing what it would have
    /// recorded), shipping retries with backoff when the collectors
    /// refuse delivery, and the network link drops during partition
    /// windows, failing requests against remote volumes.
    pub fn simulate_with_faults(
        &mut self,
        config: &StudyConfig,
        faults: &MachineFaults,
        server: &mut dyn RecordSink,
    ) {
        let end = SimTime::ZERO + config.duration;
        self.take_snapshot(SimTime::ZERO);

        // Logon: winlogon syncs the profile (§5), then the loadwc-style
        // services open their session-long handles (§8.1 — the far tail
        // of figure 12).
        let mut now = SimTime::from_millis(self.rng.gen_range(10..2_000));
        let logon = self.user.logon_plan(&mut self.rng);
        now = run_plan(&mut self.machine, ProcessId(1), &logon, now).end;
        let persistent_targets: Vec<_> = self.user.ws.docs.iter().take(10).cloned().collect();
        let service_plan = nt_workload::apps::persistent_service_open(
            self.user.local,
            &persistent_targets,
            &mut self.rng,
        );
        let (sstats, mut persistent_handles) =
            run_plan_keep_open(&mut self.machine, ProcessId(7), &service_plan, now);
        now = sstats.end;

        // The shell keeps the profile directory open and watched for the
        // whole session (explorer's change notifications).
        let profile_dir =
            nt_fs::NtPath::parse(&nt_workload::filetypes::paths::profile_of(&self.user.user));
        let (reply, shell_handle) = self.machine.create(
            ProcessId(2),
            self.user.local,
            &profile_dir,
            nt_io::AccessMode::Control,
            nt_io::Disposition::Open,
            nt_io::CreateOptions {
                directory: true,
                ..nt_io::CreateOptions::default()
            },
            now,
        );
        now = reply.end;
        if let Some(h) = shell_handle {
            now = self.machine.watch_directory(h, now).end;
            persistent_handles.push(h);
        }

        // The tracing period proper runs on the discrete-event engine:
        // sessions, lazy-writer scans, agent shipping, snapshots and the
        // §3.4 server noise are all timed events over this world.
        struct World<'a> {
            run: &'a mut MachineRun,
            server: &'a mut dyn RecordSink,
            end: SimTime,
            snapshot_interval: SimDuration,
            /// Delay before the next shipping retry after a refusal;
            /// doubles per refusal, resets on success.
            ship_backoff: SimDuration,
            shell_watch: Option<nt_io::HandleId>,
            // §7: applications start, live a heavy-tailed lifetime, exit.
            live: Vec<(ProcessId, SimTime)>,
            next_pid: u32,
            sample_every: Option<SimDuration>,
        }
        fn lazy_write(w: &mut World<'_>, eng: &mut Engine<World<'_>>) {
            let next = w.run.machine.run_lazy_writer(eng.now());
            if eng.now() < w.end {
                eng.schedule_at(next, lazy_write);
            }
        }
        // The telemetry sampler: reads gauges off the machine and the
        // engine, touches no RNG and no machine state, and re-arms on
        // aligned multiples of the cadence so stamps line up across the
        // fleet for exact aggregation. Only scheduled when telemetry is
        // on, so a disabled run carries zero extra events.
        fn sample(w: &mut World<'_>, eng: &mut Engine<World<'_>>) {
            use nt_obs::SeriesKind::{Counter, Gauge};
            let m = &w.run.machine;
            let io = m.metrics();
            let ops = io.opens
                + io.open_failures
                + io.read_dispatches
                + io.write_dispatches
                + io.control_ops
                + io.cleanups
                + io.closes;
            let lost = m.observer().ledger().lost();
            w.run.telemetry.record_many(
                eng.now(),
                &[
                    (
                        "cache.resident_bytes",
                        Gauge,
                        m.cache_resident_bytes() as f64,
                    ),
                    ("cache.dirty_bytes", Gauge, m.residual_dirty_bytes() as f64),
                    (
                        "cache.map_inits",
                        Counter,
                        m.cache_metrics().cache_inits as f64,
                    ),
                    ("engine.queue_depth", Gauge, eng.queue_depth() as f64),
                    ("engine.events_fired", Counter, eng.events_fired() as f64),
                    ("io.open_handles", Gauge, m.open_handles() as f64),
                    ("io.ops", Counter, ops as f64),
                    ("io.bytes_read", Counter, io.bytes_read as f64),
                    ("io.bytes_written", Counter, io.bytes_written as f64),
                    ("trace.lost_records", Counter, lost as f64),
                ],
            );
            // Health watchdogs ride the same deterministic cadence. The
            // inputs are all simulated quantities (ledger counters and
            // taken-but-undelivered batches).
            let (recorded, pending_batches, pending_records) = {
                let agent = w.run.machine.observer();
                (
                    agent.ledger().recorded,
                    agent.pending_batches() as u64,
                    agent.pending_records() as u64,
                )
            };
            let (machine_id, ticks) = (w.run.id.0, eng.now().ticks());
            if let Some(wd) = w.run.watchdog.as_mut() {
                for f in wd.sample(
                    machine_id,
                    ticks,
                    recorded,
                    lost,
                    pending_batches,
                    pending_records,
                ) {
                    w.run.recorder.record(
                        RecorderScope::Machine(machine_id),
                        FlightEvent::Finding(f.clone()),
                    );
                    w.run.health.push(f);
                }
            }
            if let Some(d) = w.sample_every {
                if eng.now() < w.end {
                    eng.schedule_at(eng.now() + d, sample);
                }
            }
        }
        fn ship(w: &mut World<'_>, eng: &mut Engine<World<'_>>) {
            use nt_trace::AgentState;
            let now_ticks = eng.now().ticks();
            // A suspended agent does not ship (§3); delivery resumes on
            // the regular cadence after reconnection.
            let delivered = w.run.machine.observer().state() != AgentState::Connected
                || w.run.machine.observer_mut().ship_at(w.server, now_ticks);
            let next = if delivered {
                w.ship_backoff = SimDuration::from_secs(15);
                SimDuration::from_secs(30)
            } else {
                // Every collector refused: retry with doubling backoff.
                let wait = w.ship_backoff;
                w.ship_backoff = (wait * 2).min(SimDuration::from_secs(240));
                wait
            };
            if eng.now() < w.end {
                eng.schedule_in(next, ship);
            }
        }
        fn snapshot(w: &mut World<'_>, eng: &mut Engine<World<'_>>) {
            let at = eng.now();
            w.run.take_snapshot(at);
            if at < w.end {
                eng.schedule_in(w.snapshot_interval, snapshot);
            }
        }
        fn server_noise(w: &mut World<'_>, eng: &mut Engine<World<'_>>) {
            if !w.run.user.ws.docs.is_empty() {
                let pick = w.run.rng.gen_range(0..w.run.user.ws.docs.len());
                let target = w.run.user.ws.docs[pick].clone();
                let plan = nt_workload::apps::cifs_server_session(&target, &mut w.run.rng);
                // ProcessId(0) is the system process serving remotes.
                run_plan(&mut w.run.machine, ProcessId(0), &plan, eng.now());
            }
            if eng.now() < w.end {
                let gap = SimDuration::from_secs(w.run.rng.gen_range(120..900));
                eng.schedule_in(gap, server_noise);
            }
        }
        fn rearm_watch(w: &mut World<'_>, eng: &mut Engine<World<'_>>) {
            if let Some(h) = w.shell_watch {
                // Re-arm the shell's change notification (no-op when the
                // previous one is still pending).
                w.run.machine.watch_directory(h, eng.now());
            }
            if eng.now() < w.end {
                eng.schedule_in(SimDuration::from_secs(20), rearm_watch);
            }
        }

        fn session(w: &mut World<'_>, eng: &mut Engine<World<'_>>) {
            let now = eng.now();
            let plan = w.run.user.next_plan(&mut w.run.rng);
            // Retire exited processes; launch a new one when few remain
            // or occasionally anyway (application churn).
            w.live.retain(|(_, exit)| *exit > now);
            if w.live.len() < 2 || w.run.rng.gen_bool(0.04) {
                let lifetime =
                    nt_workload::dist::heavy_gap(&mut w.run.rng, SimDuration::from_secs(45), 1.2);
                w.live.push((ProcessId(w.next_pid), now + lifetime));
                w.next_pid += 1;
            }
            let process = w.live[w.run.rng.gen_range(0..w.live.len())].0;
            let stats = run_plan(&mut w.run.machine, process, &plan, now);
            let gap = w.run.user.session_gap(&mut w.run.rng);
            let next = stats.end.max(now) + gap;
            if next < w.end {
                eng.schedule_at(next, session);
            }
        }

        {
            let mut engine: Engine<World<'_>> = Engine::new();
            // The lazy writer starts once logon has run.
            engine.schedule_at(self.machine.defer_lazy_writer(now), lazy_write);
            engine.schedule_at(SimTime::from_secs(30).max(now), ship);
            engine.schedule_at(
                (SimTime::ZERO + config.snapshot_interval).max(now),
                snapshot,
            );
            engine.schedule_at(
                now + SimDuration::from_secs(self.rng.gen_range(60..400)),
                server_noise,
            );
            engine.schedule_at(now, session);
            engine.schedule_in(SimDuration::from_secs(20), rearm_watch);
            let sample_every = self.sample_interval;
            if let Some(d) = sample_every {
                // First sample on the first cadence multiple at or after
                // the logon sequence, keeping stamps fleet-aligned.
                let first = now.ticks().div_ceil(d.ticks()) * d.ticks();
                engine.schedule_at(SimTime::from_ticks(first), sample);
            }
            // Fault windows were materialized up front from the study
            // seed's dedicated fault stream; enact each boundary as a
            // timed event. The connection drops; the agent suspends
            // local tracing until it is re-established (§3).
            for w in &faults.agent_outages {
                let (s, e) = (w.start_ticks, w.end_ticks);
                engine.schedule_at(SimTime::from_ticks(s), move |w: &mut World<'_>, _| {
                    w.run
                        .machine
                        .observer_mut()
                        .transition(nt_trace::AgentState::Suspended, s);
                });
                engine.schedule_at(SimTime::from_ticks(e), move |w: &mut World<'_>, _| {
                    w.run
                        .machine
                        .observer_mut()
                        .transition(nt_trace::AgentState::Connected, e);
                });
            }
            for w in &faults.partitions {
                let (s, e) = (w.start_ticks, w.end_ticks);
                engine.schedule_at(SimTime::from_ticks(s), move |w: &mut World<'_>, _| {
                    w.run.machine.set_network_available(false);
                });
                engine.schedule_at(SimTime::from_ticks(e), move |w: &mut World<'_>, _| {
                    w.run.machine.set_network_available(true);
                });
            }
            let mut world = World {
                run: self,
                server,
                end,
                snapshot_interval: config.snapshot_interval,
                ship_backoff: SimDuration::from_secs(15),
                shell_watch: shell_handle,
                live: Vec::new(),
                next_pid: 8,
                sample_every,
            };
            engine.run_until(&mut world, end);
        }

        // Close any fault window still open at period end: the study's
        // shutdown reconnects every agent and heals the network before
        // the final flush.
        self.machine
            .observer_mut()
            .transition(nt_trace::AgentState::Connected, end.ticks());
        self.machine.set_network_available(true);

        // Logoff: the services release their session-long handles.
        let mut t = end;
        for h in persistent_handles {
            t = self.machine.close(h, t).end;
        }
        // Drain: the lazy writer finishes every deferred close before the
        // agent's final flush (big dirty development files can take a
        // while at one burst per scan).
        let drained = self.machine.drain_lazy_writer(end, 2_000);
        self.machine.pump(drained + SimDuration::from_secs(10));
        self.take_snapshot(end);
        self.machine.observer_mut().final_flush(server);
    }

    /// The machine's I/O counters.
    pub fn io_metrics(&self) -> nt_io::IoMetrics {
        self.machine.metrics()
    }

    /// The agent's end-of-run loss accounting (§3 fault injection).
    pub fn loss_ledger(&self) -> nt_trace::LossLedger {
        self.machine.observer().ledger()
    }

    /// The machine's cache counters (§9).
    pub fn cache_metrics(&self) -> nt_cache::CacheMetrics {
        self.machine.cache_metrics()
    }

    /// The machine's VM counters (§3.3).
    pub fn vm_metrics(&self) -> nt_vm::VmMetrics {
        self.machine.vm_metrics()
    }

    /// Dirty bytes still resident at end of run — the closing balance of
    /// the cache's dirty-lifecycle conservation account.
    pub fn residual_dirty_bytes(&self) -> u64 {
        self.machine.residual_dirty_bytes()
    }

    /// Everything telemetry recorded for this machine; `None` when the
    /// study runs with [`nt_obs::TelemetryConfig::Off`].
    pub fn telemetry_report(&self) -> Option<nt_obs::MachineTelemetry> {
        self.telemetry.report()
    }

    /// The machine's telemetry handle, for work done on its behalf on
    /// its own thread (the delivery of its shipments into the sinks).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_trace::CollectionServer;

    #[test]
    fn one_machine_runs_and_ships() {
        let config = StudyConfig::smoke_test(7);
        let mut run = MachineRun::build(&config, 0, &config.machines[0]);
        let mut server = CollectionServer::new();
        run.simulate(&config, &mut server);
        assert!(server.total_records() > 100, "records shipped");
        assert!(run.snapshots.len() >= 4, "initial + periodic + final");
        let m = run.io_metrics();
        assert!(m.opens > 10);
        assert!(m.bytes_read + m.bytes_written > 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let config = StudyConfig::smoke_test(9);
        let count = |seed: u64| {
            let mut c = config.clone();
            c.seed = seed;
            let mut run = MachineRun::build(&c, 0, &c.machines[0]);
            let mut server = CollectionServer::new();
            run.simulate(&c, &mut server);
            server.total_records()
        };
        assert_eq!(count(9), count(9), "same seed, same trace");
        assert_ne!(count(9), count(10), "different seed, different trace");
    }

    #[test]
    fn scientific_data_sets_never_overflow_the_volume() {
        // Seed 612 is the first evaluation seed whose scientific machine
        // draws more data-set bytes than its volume has left after the
        // initial content; the sizes are clamped to the free space.
        let config = StudyConfig::evaluation(612);
        let mut built = 0;
        for (index, spec) in config.machines.iter().enumerate() {
            if spec.category != UsageCategory::Scientific {
                continue;
            }
            let run = MachineRun::build(&config, index, spec);
            let ns = run.machine.namespace();
            for id in ns.volume_ids() {
                let stats = ns.volume(id).expect("mounted volume").stats();
                assert!(stats.allocated_bytes <= stats.capacity, "machine {index}");
            }
            built += 1;
        }
        assert!(built > 0, "the evaluation roster has scientific machines");
    }
}
