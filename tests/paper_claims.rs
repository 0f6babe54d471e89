//! Shape checks against the paper's headline observations (table 1).
//!
//! These run a reduced deployment (8 machines, 10 simulated minutes) and
//! assert the *direction and rough magnitude* of each claim — absolute
//! numbers depend on the simulated substrate, and EXPERIMENTS.md records
//! the full side-by-side at evaluation scale.

use nt_analysis::{activity, arrivals, latency, lifetimes, ops, patterns, sessions, sizes, tails};
use nt_study::{MachineSpec, Study, StudyConfig, StudyData};
use nt_workload::UsageCategory;
use std::sync::OnceLock;

fn data() -> &'static StudyData {
    static DATA: OnceLock<StudyData> = OnceLock::new();
    DATA.get_or_init(|| {
        let mut config = StudyConfig::smoke_test(2026);
        config.duration = nt_sim::SimDuration::from_secs(600);
        config.machines = vec![
            MachineSpec::new(UsageCategory::WalkUp, 0),
            MachineSpec::new(UsageCategory::Pool, 0),
            MachineSpec::new(UsageCategory::Pool, 1),
            MachineSpec::new(UsageCategory::Personal, 0),
            MachineSpec::new(UsageCategory::Personal, 1),
            MachineSpec::new(UsageCategory::Personal, 2),
            MachineSpec::new(UsageCategory::Administrative, 0),
            MachineSpec::new(UsageCategory::Scientific, 0),
        ];
        Study::run(&config).expect("study runs")
    })
}

#[test]
fn most_data_sessions_are_short() {
    // Paper: 75 % of data-access opens last under 10 ms.
    let s = sessions::session_durations(&data().trace_set);
    let frac = s.data.fraction_at_or_below(10.0);
    assert!(frac > 0.5, "short sessions dominate: {frac}");
}

#[test]
fn local_and_network_open_times_are_comparable() {
    // Paper §6.2: "no significant difference in the access times between
    // local and remote storage".
    let s = sessions::session_durations(&data().trace_set);
    let (Some(l), Some(n)) = (s.data_local.median(), s.data_network.median()) else {
        panic!("both volume classes must see traffic");
    };
    let ratio = (l / n).max(n / l);
    assert!(
        ratio < 50.0,
        "same order of magnitude: local {l} network {n}"
    );
}

#[test]
fn control_operations_dominate() {
    // Paper: 74 % of opens perform only control or directory work.
    let o = ops::operational_stats(&data().trace_set);
    assert!(
        o.control_only_fraction > 0.5,
        "control-only fraction {}",
        o.control_only_fraction
    );
}

#[test]
fn sequential_access_dominates_reads_with_a_random_shift() {
    // Paper table 3: 68 % of read-only accesses whole-file sequential,
    // and the read/write class is overwhelmingly random.
    let t = patterns::access_patterns(&data().trace_set);
    assert!(
        t.read_only.whole_accesses.mean + t.read_only.seq_accesses.mean > 55.0,
        "reads are mostly sequential"
    );
    assert!(
        t.read_write.random_accesses.mean > 50.0,
        "R/W sessions are mostly random: {}",
        t.read_write.random_accesses.mean
    );
    assert!(
        t.read_only.share_accesses.mean > t.write_only.share_accesses.mean,
        "read-only opens outnumber write-only"
    );
}

#[test]
fn most_accessed_files_are_small_but_bytes_live_in_big_files() {
    let s = sizes::accessed_sizes(&data().trace_set);
    let small_opens = s.all_by_opens.fraction_at_or_below(26.0 * 1024.0);
    assert!(
        small_opens > 0.4,
        "most opened files are small: {small_opens}"
    );
    let median_by_opens = s.all_by_opens.median().unwrap();
    let median_by_bytes = s.all_by_bytes.median().unwrap();
    assert!(
        median_by_bytes > median_by_opens * 3.0,
        "bytes concentrate in larger files: {median_by_opens} vs {median_by_bytes}"
    );
}

#[test]
fn new_files_die_young() {
    // Paper §6.3: ~80 % of new files die within 4 s; 65 % of deleted
    // files are under 100 bytes.
    let l = lifetimes::lifetimes(&data().trace_set);
    assert!(l.dead_within_4s > 0.5, "die-young: {}", l.dead_within_4s);
    let small = l.deaths.iter().filter(|d| d.size < 4_096).count();
    assert!(
        small * 2 > l.deaths.len(),
        "deleted files are small: {small}/{}",
        l.deaths.len()
    );
    let (o, d, _) = l.mechanism_shares;
    assert!(d > o, "explicit deletes outnumber overwrites (62% vs 37%)");
}

#[test]
fn fastio_carries_the_data_path_and_is_fast() {
    let p = latency::path_latencies(&data().trace_set);
    assert!(
        p.fastio_read_fraction > 0.4,
        "FastIO read share {}",
        p.fastio_read_fraction
    );
    assert!(
        p.fastio_write_fraction > 0.5,
        "FastIO write share {}",
        p.fastio_write_fraction
    );
    let f = p.fastio_read_latency.median().unwrap();
    let i = p.irp_read_latency.median().unwrap();
    assert!(
        i > f * 5.0,
        "figure 13: IRP reads are much slower ({f} us vs {i} us)"
    );
}

#[test]
fn arrival_gaps_are_heavy_tailed() {
    // Paper §7: Hill alpha between 1.2 and 1.7 — evidence of infinite
    // variance. The reduced run lands in a looser band.
    let ts = &data().trace_set;
    let gaps: Vec<f64> = {
        let a = nt_analysis::burstiness::open_arrival_ticks(ts);
        a.windows(2)
            .map(|w| (w[1].saturating_sub(w[0])) as f64)
            .filter(|&g| g > 0.0)
            .collect()
    };
    let alpha = tails::hill_alpha(&gaps);
    assert!(
        (0.3..2.5).contains(&alpha),
        "alpha {alpha} outside heavy-tail territory"
    );
    let l = tails::llcd(&gaps, 0.1);
    assert!(
        l.alpha < 2.5,
        "LLCD slope alpha {} shows a power tail",
        l.alpha
    );
}

#[test]
fn burstiness_survives_aggregation() {
    // Figure 8: the traced arrivals stay overdispersed at coarse scales
    // while the Poisson synthesis smooths out.
    let b = nt_analysis::burstiness::burstiness(&data().trace_set, 5);
    for s in &b.scales {
        if s.traced.counts.len() < 5 {
            continue;
        }
        assert!(
            s.traced.dispersion() > s.poisson.dispersion(),
            "scale {}s: traced {} vs poisson {}",
            s.traced.interval_secs,
            s.traced.dispersion(),
            s.poisson.dispersion()
        );
    }
}

#[test]
fn open_interarrivals_cluster_under_milliseconds() {
    // Figure 11: 40 % of opens arrive within 1 ms of the previous one.
    let a = arrivals::open_arrivals(&data().trace_set);
    let f1 = a.all.fraction_at_or_below(1.0);
    assert!(f1 > 0.15, "within-1ms fraction {f1}");
    assert!(
        a.active_second_fraction < 0.8,
        "most seconds stay idle: {}",
        a.active_second_fraction
    );
}

#[test]
fn ten_second_peaks_exceed_ten_minute_averages() {
    // Table 2's burst structure.
    let a = activity::user_activity(&data().trace_set);
    assert!(a.ten_seconds.peak_user_kbs >= a.ten_minutes.throughput_kbs.mean);
    assert!(a.ten_minutes.max_active_users as usize <= data().machines.len());
}

#[test]
fn single_prefetch_satisfies_most_read_sessions() {
    // Paper §9.1: 92 % of open-for-read cases needed one prefetch.
    let read_sessions: Vec<_> = data()
        .trace_set
        .instances
        .iter()
        .filter(|i| i.reads > 0 && i.writes == 0)
        .collect();
    let single = read_sessions.iter().filter(|i| i.paging_reads <= 1).count();
    let frac = single as f64 / read_sessions.len().max(1) as f64;
    assert!(frac > 0.6, "single-prefetch fraction {frac}");
}

#[test]
fn snapshots_show_profile_churn() {
    // §5: almost all content change sits in the user profile, most of it
    // in the WWW cache.
    let mut profile_frac_seen: f64 = 0.0;
    for m in &data().machines {
        let locals: Vec<_> = m
            .snapshots
            .iter()
            .filter(|s| s.volume == nt_fs::VolumeId(0))
            .collect();
        if locals.len() < 2 {
            continue;
        }
        let churn = nt_analysis::content::churn_stats(locals[0], locals[locals.len() - 1]);
        if churn.churn > 20 {
            profile_frac_seen = profile_frac_seen.max(churn.profile_fraction);
        }
    }
    assert!(
        profile_frac_seen > 0.3,
        "profile tree dominates churn somewhere: {profile_frac_seen}"
    );
}
