//! Behaviour of the fault-injection layer end to end.
//!
//! The §3 collection pipeline was built to survive an unreliable fleet:
//! agents suspend when they lose their collectors, triple buffers absorb
//! shipping stalls, and the analysis has to cope with the holes the
//! faults leave behind. These tests pin what each fault may and may not
//! cost: suspensions lose exactly the in-window events, collector
//! downtime loses nothing at all, squeezed buffers lose only what the
//! ledger admits to, and a visibly lossy deployment still supports the
//! paper's headline analyses.

use nt_analysis::{arrivals, burstiness, gaps::LossWindows, ops};
use nt_io::observer::IoObserver;
use nt_io::{EventKind, FcbId, FileObjectId, IoEvent, MajorFunction, NtStatus, ProcessId};
use nt_sim::SimTime;
use nt_study::{FaultPlan, FaultSchedule, MachineFaults, MachineRun, Study, StudyConfig};
use nt_trace::{AgentState, CollectionServer, MachineId, TickWindow, TraceFilter};

fn read_event(i: u64) -> IoEvent {
    IoEvent {
        kind: EventKind::Irp(MajorFunction::Read),
        file_object: FileObjectId(i),
        fcb: FcbId(0),
        process: ProcessId(1),
        volume: 0,
        local: true,
        paging_io: false,
        readahead: false,
        offset: 0,
        length: 512,
        transferred: 512,
        file_size: 4096,
        byte_offset: 0,
        status: NtStatus::Success,
        start: SimTime::from_ticks(i * 1_000),
        end: SimTime::from_ticks(i * 1_000 + 30),
        access: None,
        disposition: None,
        options: None,
        set_info: None,
        created: false,
    }
}

#[test]
fn suspension_drops_exactly_the_in_window_events() {
    // Feed 100 events at ticks 0, 1000, ..., suspending for the middle
    // third. Only events arriving while suspended may be lost.
    let window = TickWindow::new(30_000, 60_000);
    let mut f = TraceFilter::new(MachineId(5));
    let mut srv = CollectionServer::new();
    let mut expected_dropped = 0u64;
    for i in 0..100u64 {
        let at = i * 1_000;
        if at == window.start_ticks {
            f.transition(AgentState::Suspended, at);
        }
        if at == window.end_ticks {
            f.transition(AgentState::Connected, at);
        }
        if window.contains(at) {
            expected_dropped += 1;
        }
        f.event(&read_event(i));
    }
    f.final_flush(&mut srv);
    let ledger = f.ledger();
    assert!(ledger.reconciles());
    assert_eq!(ledger.dropped_suspended, expected_dropped);
    assert_eq!(ledger.downtime_ticks, window.duration_ticks());
    let back = srv.records_for(MachineId(5));
    assert_eq!(back.len() as u64 + expected_dropped, 100);
    for r in &back {
        assert!(
            !window.contains(r.start_ticks),
            "record at {} inside the suspension window",
            r.start_ticks
        );
    }
}

#[test]
fn machine_outage_costs_exactly_the_suspended_records() {
    // The workload is driven by its own RNG stream, untouched by the
    // fault layer: a suspended agent still *sees* the same event stream,
    // it just declines to record part of it. So the faulted run's
    // recorded + dropped_suspended must equal the clean run's recorded.
    let config = StudyConfig::smoke_test(41);
    let spec = &config.machines[0];

    let mut clean_run = MachineRun::build(&config, 0, spec);
    let mut clean_srv = CollectionServer::new();
    clean_run.simulate(&config, &mut clean_srv);
    let clean = clean_run.loss_ledger();
    assert_eq!(clean.lost(), 0);

    let faults = MachineFaults {
        agent_outages: vec![TickWindow::new(
            100 * nt_sim::TICKS_PER_SEC,
            200 * nt_sim::TICKS_PER_SEC,
        )],
        ..MachineFaults::default()
    };
    let mut lossy_run = MachineRun::build_with_faults(&config, 0, spec, &faults);
    let mut lossy_srv = CollectionServer::new();
    lossy_run.simulate_with_faults(&config, &faults, &mut lossy_srv);
    let lossy = lossy_run.loss_ledger();

    assert!(lossy.reconciles());
    assert!(lossy.dropped_suspended > 0, "the outage lost something");
    assert_eq!(
        lossy.recorded + lossy.dropped_suspended,
        clean.recorded,
        "losses are exactly the records the clean run kept"
    );
    assert_eq!(
        lossy.downtime_ticks,
        100 * nt_sim::TICKS_PER_SEC,
        "downtime accounting matches the scheduled window"
    );
}

#[test]
fn collector_outages_lose_nothing() {
    // Server downtime forces failover (or backoff and retry when every
    // server is down) but never loses records: the triple buffer holds
    // full batches until somebody accepts them.
    let mut config = StudyConfig::smoke_test(17);
    config.faults = FaultPlan {
        collector_outages: 2,
        collector_outage_secs: (20, 60),
        ..FaultPlan::none()
    };
    let schedule = FaultSchedule::materialize(&config, 3);
    assert!(
        schedule.collectors.iter().all(|w| w.len() == 2),
        "downtime actually scheduled"
    );
    let faulted = Study::run(&config).expect("study runs");
    for report in faulted.loss_reports() {
        assert!(report.ledger.reconciles(), "machine {:?}", report.machine);
        assert_eq!(report.ledger.lost(), 0, "machine {:?}", report.machine);
    }
    assert_eq!(faulted.total_lost(), 0);

    // Batch boundaries come from buffer fills, not shipping times, so
    // the collected trace is identical to the clean deployment's.
    let mut clean_config = config.clone();
    clean_config.faults = FaultPlan::none();
    let clean = Study::run(&clean_config).expect("study runs");
    assert_eq!(faulted.total_records, clean.total_records);
    assert_eq!(
        faulted.trace_set.records, clean.trace_set.records,
        "server downtime only moves bytes, it never drops them"
    );
}

#[test]
fn squeezed_buffers_lose_only_what_the_ledger_admits() {
    let config = StudyConfig::smoke_test(23);
    let spec = &config.machines[0];
    let faults = MachineFaults {
        buffer_capacity: Some(40),
        ..MachineFaults::default()
    };
    let mut run = MachineRun::build_with_faults(&config, 0, spec, &faults);
    let mut srv = CollectionServer::new();
    run.simulate_with_faults(&config, &faults, &mut srv);
    let ledger = run.loss_ledger();
    assert!(
        ledger.dropped_overflow > 0,
        "40-record buffers must overflow under a real workload"
    );
    assert!(ledger.reconciles(), "delivered + overflow == recorded");
    assert_eq!(
        srv.records_for(MachineId(0)).len() as u64,
        ledger.delivered,
        "the server holds exactly the delivered records"
    );
}

#[test]
fn squeeze_probability_one_squeezes_the_whole_fleet() {
    let mut config = StudyConfig::smoke_test(29);
    config.faults = FaultPlan {
        buffer_squeeze_probability: 1.0,
        squeezed_capacity: 60,
        ..FaultPlan::none()
    };
    let schedule = FaultSchedule::materialize(&config, 3);
    assert!(schedule
        .machines
        .iter()
        .all(|m| m.buffer_capacity == Some(60)));
    let data = Study::run(&config).expect("study runs");
    assert!(data.total_lost() > 0, "tiny buffers overflow somewhere");
    for report in data.loss_reports() {
        assert!(report.ledger.reconciles(), "machine {:?}", report.machine);
        assert_eq!(report.ledger.dropped_suspended, 0, "no agent suspended");
    }
}

#[test]
fn partition_fails_remote_requests() {
    // Cut the network for the entire run: every request against the
    // user's share must come back NetworkUnreachable, and the failures
    // land in the machine's counters and its trace.
    let config = StudyConfig::smoke_test(47);
    let spec = &config.machines[0];
    let faults = MachineFaults {
        partitions: vec![TickWindow::new(0, u64::MAX)],
        ..MachineFaults::default()
    };
    let mut run = MachineRun::build_with_faults(&config, 0, spec, &faults);
    let mut srv = CollectionServer::new();
    run.simulate_with_faults(&config, &faults, &mut srv);
    let io = run.io_metrics();
    assert!(io.network_failures > 0, "remote requests failed");
    let unreachable = srv
        .records_for(MachineId(0))
        .iter()
        .filter(|r| r.status == NtStatus::NetworkUnreachable)
        .count();
    assert!(
        unreachable > 0,
        "the trace records the NetworkUnreachable completions"
    );
    assert!(run.loss_ledger().reconciles());
}

#[test]
fn lossy_study_completes_and_analysis_degrades_gracefully() {
    let mut config = StudyConfig::smoke_test(101);
    config.faults = FaultPlan::lossy();
    let data = Study::run(&config).expect("study runs");

    // Every ledger is internally consistent and the fleet visibly lost
    // records.
    assert_eq!(data.loss_reports().len(), data.machines.len());
    for report in data.loss_reports() {
        assert!(report.ledger.reconciles(), "machine {:?}", report.machine);
    }
    assert!(data.total_lost() > 0, "the lossy plan costs records");
    assert!(
        data.machines.iter().any(|m| m.loss.downtime_ticks > 0),
        "some agent was suspended"
    );

    // The degraded analyses run over the holes the schedule predicts.
    let schedule = FaultSchedule::materialize(&config, 3);
    let mut lossy = LossWindows::new();
    for (index, faults) in schedule.machines.iter().enumerate() {
        for w in &faults.agent_outages {
            lossy.add(index as u32, *w);
        }
    }
    assert!(!lossy.is_empty(), "the lossy plan schedules outages");

    let a = arrivals::open_arrivals_excluding(&data.trace_set, &lossy);
    assert!(!a.all.is_empty(), "arrivals survive the exclusions");
    assert!(a.active_second_fraction > 0.0);
    assert!(a.active_second_fraction <= 1.0);

    let b = burstiness::burstiness_excluding(&data.trace_set, config.seed, &lossy);
    assert_eq!(b.scales.len(), 3);

    // The paper's headline shape survives the degradation: control-only
    // opens stay a large share (the clean full-scale run sits near the
    // paper's 74 %; this reduced lossy deployment lands close to half).
    let o = ops::operational_stats(&data.trace_set);
    assert!(
        o.control_only_fraction > 0.4,
        "control-only opens remain a large share: {}",
        o.control_only_fraction
    );
}
