//! User-activity intervals — table 2 and §6.1.
//!
//! The trace period is divided into 10-minute and 10-second intervals; a
//! user (≡ machine: all traced systems were single-user) is active in an
//! interval when file-system activity above the background threshold is
//! attributed to them. Throughput is reported per active user in
//! KB/second, with peaks, alongside the published BSD (1985) and Sprite
//! (1991) numbers for the historical comparison.

use std::collections::HashMap;

use crate::schema::TraceSet;
use crate::stats::{describe, Descriptives};

/// Interval statistics for one aggregation granularity.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntervalStats {
    /// Maximum concurrently-active users in any interval.
    pub max_active_users: u32,
    /// Mean (and spread) of active users per interval.
    pub active_users: Descriptives,
    /// Mean (and spread) of per-active-user throughput, KB/s.
    pub throughput_kbs: Descriptives,
    /// Peak per-user throughput over all intervals, KB/s.
    pub peak_user_kbs: f64,
    /// Peak system-wide (sum over users) throughput, KB/s.
    pub peak_system_kbs: f64,
}

/// The table-2 reproduction: both granularities.
#[derive(Clone, Copy, Debug, Default)]
pub struct UserActivity {
    /// 10-minute intervals.
    pub ten_minutes: IntervalStats,
    /// 10-second intervals.
    pub ten_seconds: IntervalStats,
}

/// Published comparison values (table 2 of the paper).
pub mod baselines {
    /// Sprite (1991): 10-minute peak per-user throughput.
    pub const SPRITE_10MIN_PEAK_USER_KBS: f64 = 458.0;
    /// Sprite: 10-second peak per-user throughput.
    pub const SPRITE_10SEC_PEAK_USER_KBS: f64 = 9_871.0;
    /// The paper's own Windows NT measurements, for shape checks.
    pub const NT_10MIN_AVG_USER_KBS: f64 = 24.4;
    /// NT 10-minute peak.
    pub const NT_10MIN_PEAK_USER_KBS: f64 = 814.0;
    /// NT 10-second average.
    pub const NT_10SEC_AVG_USER_KBS: f64 = 42.5;
    /// NT 10-second peak.
    pub const NT_10SEC_PEAK_USER_KBS: f64 = 8_910.0;
}

/// Background-activity threshold: bytes per interval below which a
/// machine does not count as active (§6.1 used the service-induced
/// background level).
const BACKGROUND_BYTES_PER_SEC: u64 = 64;

fn interval_stats(ts: &TraceSet, interval_secs: u64) -> IntervalStats {
    let ticks_per_interval = interval_secs * 10_000_000;
    // (interval, machine) → bytes.
    let mut bytes: HashMap<(u64, u32), u64> = HashMap::new();
    // Columnar scan: codes + flags select data records, then only the
    // status, machine, start-tick and transferred columns are touched.
    let t = &ts.records;
    let (machines, statuses, starts, transfers) =
        (t.machines(), t.statuses(), t.start_ticks(), t.transfers());
    for i in 0..t.len() {
        let kind = t.kind_at(i);
        if !(kind.is_read() || kind.is_write()) || t.is_paging(i) || statuses[i].is_error() {
            continue;
        }
        let iv = starts[i] / ticks_per_interval;
        *bytes.entry((iv, machines[i])).or_default() += transfers[i];
    }
    let threshold = BACKGROUND_BYTES_PER_SEC * interval_secs;
    // interval → (active users, total bytes).
    let mut per_interval: HashMap<u64, (u32, u64)> = HashMap::new();
    let mut user_rates = Vec::new();
    let mut peak_user = 0.0f64;
    for ((iv, _), b) in &bytes {
        if *b < threshold {
            continue;
        }
        let e = per_interval.entry(*iv).or_default();
        e.0 += 1;
        e.1 += b;
        let rate = *b as f64 / 1_024.0 / interval_secs as f64;
        user_rates.push(rate);
        peak_user = peak_user.max(rate);
    }
    let active: Vec<f64> = per_interval.values().map(|(u, _)| *u as f64).collect();
    let peak_system = per_interval
        .values()
        .map(|(_, b)| *b as f64 / 1_024.0 / interval_secs as f64)
        .fold(0.0, f64::max);
    IntervalStats {
        max_active_users: per_interval.values().map(|(u, _)| *u).max().unwrap_or(0),
        active_users: describe(&active),
        throughput_kbs: describe(&user_rates),
        peak_user_kbs: peak_user,
        peak_system_kbs: peak_system,
    }
}

/// Computes table 2 from the trace set.
pub fn user_activity(ts: &TraceSet) -> UserActivity {
    UserActivity {
        ten_minutes: interval_stats(ts, 600),
        ten_seconds: interval_stats(ts, 10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn both_granularities_have_activity() {
        let ts = synthetic_trace_set(800, 61);
        let a = user_activity(&ts);
        assert!(a.ten_seconds.max_active_users >= 1);
        assert!(a.ten_minutes.max_active_users >= 1);
        assert!(a.ten_minutes.throughput_kbs.n >= 1);
    }

    #[test]
    fn short_intervals_show_higher_burst_rates() {
        let ts = synthetic_trace_set(1_000, 62);
        let a = user_activity(&ts);
        // The peak 10-second rate is at least the peak 10-minute rate:
        // a burst concentrated in seconds dilutes over minutes.
        assert!(
            a.ten_seconds.peak_user_kbs >= a.ten_minutes.peak_user_kbs,
            "10s peak {} vs 10min peak {}",
            a.ten_seconds.peak_user_kbs,
            a.ten_minutes.peak_user_kbs
        );
    }

    #[test]
    fn throughput_positive_when_active() {
        let ts = synthetic_trace_set(500, 63);
        let a = user_activity(&ts);
        if a.ten_seconds.throughput_kbs.n > 0 {
            assert!(a.ten_seconds.throughput_kbs.mean > 0.0);
        }
    }
}
