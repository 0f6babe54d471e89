//! End-to-end invariants of the whole pipeline: workload → I/O stack →
//! filter driver → collection server → fact tables.

use nt_analysis::{ops, TraceSet};
use nt_io::{EventKind, MajorFunction};
use nt_study::{Study, StudyConfig};
use nt_trace::filter_paging_duplicates;

fn study() -> nt_study::StudyData {
    Study::run(&StudyConfig::smoke_test(123)).expect("study runs")
}

#[test]
fn every_create_record_becomes_an_instance() {
    let data = study();
    let creates = data.trace_set.creates().count();
    assert_eq!(
        creates,
        data.trace_set.instances.len(),
        "one instance per open attempt"
    );
}

#[test]
fn successful_sessions_have_ordered_lifecycle() {
    let data = study();
    let mut closed = 0;
    for inst in &data.trace_set.instances {
        if !inst.opened() {
            assert!(inst.cleanup_ticks.is_none());
            continue;
        }
        if let Some(cu) = inst.cleanup_ticks {
            assert!(cu >= inst.open_start_ticks, "cleanup after open: {inst:?}");
            if let Some(cl) = inst.close_ticks {
                assert!(cl >= cu, "close after cleanup (two-stage, §8.1)");
                closed += 1;
            }
        }
    }
    assert!(closed > 100, "most sessions complete the two-stage close");
}

#[test]
fn paging_accounting_balances() {
    let data = study();
    // Every paging record belongs to a read or a write.
    let mut paging = 0u64;
    for (_, rec) in data.trace_set.records.iter() {
        if rec.is_paging() {
            paging += 1;
            assert!(
                rec.kind().is_read() || rec.kind().is_write(),
                "paging bit only on data majors"
            );
            assert!(
                matches!(rec.kind(), EventKind::Irp(_)),
                "paging I/O always rides IRPs"
            );
        }
    }
    assert!(paging > 0, "the VM manager produced paging traffic");
    // The §3.3 duplicate filter removes some but never all paging
    // records (image loads must survive).
    let records: Vec<_> = data.trace_set.records.iter().map(|(_, r)| r).collect();
    let kept = filter_paging_duplicates(&records);
    let kept_paging = kept.iter().filter(|r| r.is_paging()).count() as u64;
    assert!(
        kept_paging < paging,
        "cache-induced duplicates were dropped"
    );
    assert!(kept_paging > 0, "mapped-file paging survives the filter");
    // Non-paging records are untouched.
    let nonpaging = records.iter().filter(|r| !r.is_paging()).count();
    let kept_nonpaging = kept.iter().filter(|r| !r.is_paging()).count();
    assert_eq!(nonpaging, kept_nonpaging);
}

#[test]
fn record_streams_roundtrip_compression() {
    let data = study();
    // TraceSet::build already decompressed every batch; rebuilding from
    // the same streams must be byte-identical in aggregate counts.
    assert_eq!(
        data.trace_set.records.len(),
        data.total_records,
        "no records lost between server and fact tables"
    );
}

#[test]
fn machines_do_not_bleed_into_each_other() {
    let data = study();
    // File-object ids restart per machine; (machine, fo) must be unique
    // per instance.
    let mut seen = std::collections::HashSet::new();
    for inst in &data.trace_set.instances {
        assert!(
            seen.insert((inst.machine, inst.file_object)),
            "duplicate (machine, file object) pair"
        );
    }
    assert_eq!(data.trace_set.machines().len(), 5);
}

#[test]
fn error_rates_in_paper_ballpark() {
    let data = study();
    let o = ops::operational_stats(&data.trace_set);
    let open_fail = o.opens_failed as f64 / (o.opens_ok + o.opens_failed).max(1) as f64;
    assert!(
        (0.03..0.30).contains(&open_fail),
        "open failure rate {open_fail} (paper: 12%)"
    );
    assert_eq!(o.write_failure_rate, 0.0, "§8.4: no write errors");
    assert!(o.read_failure_rate < 0.1, "reads hardly ever fail");
    assert!(
        o.control_only_fraction > 0.4,
        "control operations dominate opens: {}",
        o.control_only_fraction
    );
}

#[test]
fn trace_volume_scales_to_paper_rates() {
    // §3.2: 80 thousand to 1.4 million events per machine per 24 h.
    let data = study();
    let secs = data.config.duration.as_secs() as f64;
    let per_machine_day = data.total_records as f64 / data.machines.len() as f64 / secs * 86_400.0;
    assert!(
        (20_000.0..4_000_000.0).contains(&per_machine_day),
        "events per machine-day {per_machine_day} out of plausible range"
    );
}

#[test]
fn fact_tables_rebuild_deterministically() {
    let a = Study::run(&StudyConfig::smoke_test(77)).expect("study runs");
    let b = Study::run(&StudyConfig::smoke_test(77)).expect("study runs");
    assert_eq!(a.total_records, b.total_records);
    assert_eq!(a.trace_set.instances.len(), b.trace_set.instances.len());
    // Spot-check a structural digest: per-kind record counts.
    let digest = |ts: &TraceSet| {
        let mut counts = [0u64; 54];
        for (_, r) in ts.records.iter() {
            counts[r.code as usize] += 1;
        }
        counts
    };
    assert_eq!(digest(&a.trace_set), digest(&b.trace_set));
}

#[test]
fn create_cleanup_close_counts_are_consistent() {
    let data = study();
    let count = |k: EventKind| {
        data.trace_set
            .records
            .iter()
            .filter(|(_, r)| r.kind() == k)
            .count()
    };
    let creates_ok = data
        .trace_set
        .records
        .iter()
        .filter(|(_, r)| r.kind() == EventKind::Irp(MajorFunction::Create) && r.status.is_success())
        .count();
    let cleanups = count(EventKind::Irp(MajorFunction::Cleanup));
    let closes = count(EventKind::Irp(MajorFunction::Close));
    assert_eq!(creates_ok, cleanups, "every open is cleaned up");
    // Closes can lag cleanups slightly at trace end (deferred closes are
    // drained, so equality should hold here).
    assert_eq!(cleanups, closes, "every cleanup is followed by a close");
}

/// A long soak at evaluation scale; run with `cargo test -- --ignored`.
#[test]
#[ignore = "multi-second evaluation-scale soak; run explicitly"]
fn evaluation_scale_soak() {
    let data = Study::run(&StudyConfig::evaluation(99)).expect("study runs");
    assert_eq!(data.machines.len(), 45);
    assert!(data.total_records > 100_000);
    let o = ops::operational_stats(&data.trace_set);
    assert!(o.control_only_fraction > 0.5);
    assert_eq!(o.write_failure_rate, 0.0);
    // Every table/figure renders at scale.
    let report = nt_study::report::full_report(&data);
    assert!(report.contains("Figure 14"));
    assert!(report.contains("Section 10"));
}
