//! Rendering every table and figure of the paper's evaluation.
//!
//! Each function regenerates one artefact from [`StudyData`] as text: the
//! same rows (tables) or series (figures) the paper prints, so a run of
//! the benchmark harness can be compared side-by-side with the published
//! numbers (see EXPERIMENTS.md for that comparison).

use std::fmt::Write as _;

use nt_analysis::{
    activity, arrivals, burstiness, cdf::Cdf, content, dimensions, latency, lifetimes, ops,
    patterns, processes, runs, sessions, sizes, tails,
};
use nt_workload::UsageCategory;

use crate::study::StudyData;

fn render_cdf(out: &mut String, title: &str, unit: &str, cdf: &Cdf, points: usize) {
    let _ = writeln!(out, "  {title} (n={})", cdf.len());
    if cdf.is_empty() {
        let _ = writeln!(out, "    (no samples)");
        return;
    }
    for (x, pct) in cdf.log_points(points) {
        let bar = "#".repeat((pct / 4.0).round() as usize);
        let _ = writeln!(out, "    {x:>12.1} {unit:<6} {pct:>5.1}% {bar}");
    }
    for q in [0.5, 0.75, 0.9] {
        if let Some(v) = cdf.quantile(q) {
            let _ = writeln!(out, "    p{:<4} = {v:.1} {unit}", (q * 100.0) as u32);
        }
    }
}

/// The batch analyses more than one section reads, each computed once
/// for a full report.
struct Shared {
    ops: ops::OperationalStats,
    paths: latency::PathLatencies,
    lifetimes: lifetimes::Lifetimes,
    activity: activity::UserActivity,
    sessions: sessions::SessionDurations,
    sizes: sizes::AccessedSizes,
    /// Open arrival ticks, in fact-table order.
    arrival_ticks: Vec<u64>,
}

impl Shared {
    fn compute(ts: &nt_analysis::TraceSet) -> Shared {
        Shared {
            ops: ops::operational_stats(ts),
            paths: latency::path_latencies(ts),
            lifetimes: lifetimes::lifetimes(ts),
            activity: activity::user_activity(ts),
            sessions: sessions::session_durations(ts),
            sizes: sizes::accessed_sizes(ts),
            arrival_ticks: burstiness::open_arrival_ticks(ts),
        }
    }
}

/// Table 1: the summary of observations, computed from this run.
pub fn table1(data: &StudyData) -> String {
    render_table1(data, &Shared::compute(&data.trace_set))
}

fn render_table1(data: &StudyData, shared: &Shared) -> String {
    let Shared {
        ops: o,
        paths: l,
        lifetimes: lt,
        activity: act,
        sessions: s,
        sizes: sz,
        arrival_ticks,
    } = shared;
    let cache_reads: (u64, u64) = data
        .machines
        .iter()
        .map(|m| (m.cache.read_hits, m.cache.read_misses))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let hit_rate = if cache_reads.0 + cache_reads.1 == 0 {
        0.0
    } else {
        cache_reads.0 as f64 / (cache_reads.0 + cache_reads.1) as f64
    };
    let gaps: Vec<f64> = arrival_ticks
        .windows(2)
        .map(|w| (w[1].saturating_sub(w[0])) as f64)
        .filter(|&g| g > 0.0)
        .collect();
    let alpha = tails::hill_alpha(&gaps);
    let mut out = String::new();
    let _ = writeln!(out, "Table 1 — summary of observations (this run)");
    let _ = writeln!(
        out,
        "  per-user throughput (10-min avg): {:.1} KB/s (paper: 24.4)",
        act.ten_minutes.throughput_kbs.mean
    );
    let _ = writeln!(
        out,
        "  data sessions open < 10 ms: {:.0}% (paper: ~75%)",
        100.0 * s.data.fraction_at_or_below(10.0)
    );
    let _ = writeln!(
        out,
        "  accessed files < 26 KB: {:.0}% (paper: ~80%)",
        100.0 * sz.all_by_opens.fraction_at_or_below(26.0 * 1024.0)
    );
    let _ = writeln!(
        out,
        "  new files dead within 4 s: {:.0}% (paper: ~80%)",
        100.0 * lt.dead_within_4s
    );
    let _ = writeln!(
        out,
        "  control-only opens: {:.0}% (paper: 74%)",
        100.0 * o.control_only_fraction
    );
    let _ = writeln!(
        out,
        "  reads served from cache: {:.0}% (paper: 60%)",
        100.0 * hit_rate
    );
    let _ = writeln!(
        out,
        "  FastIO share: reads {:.0}% / writes {:.0}% (paper: 59% / 96%)",
        100.0 * l.fastio_read_fraction,
        100.0 * l.fastio_write_fraction
    );
    let _ = writeln!(
        out,
        "  open inter-arrival Hill alpha: {alpha:.2} (paper: 1.2–1.7)"
    );
    let _ = writeln!(
        out,
        "  open failures: {:.1}% (paper: 12%), control failures: {:.1}% (paper: 8%)",
        100.0
            * data
                .machines
                .iter()
                .map(|m| m.io.open_failures as f64)
                .sum::<f64>()
            / (o.opens_ok + o.opens_failed).max(1) as f64,
        100.0 * o.control_failure_rate
    );
    out
}

/// Table 2: user activity at 10-minute and 10-second intervals, with the
/// BSD and Sprite baselines.
pub fn table2(data: &StudyData) -> String {
    render_table2(&activity::user_activity(&data.trace_set))
}

fn render_table2(a: &activity::UserActivity) -> String {
    use activity::baselines as b;
    let mut out = String::new();
    let _ = writeln!(out, "Table 2 — user activity (KB/s; stdev in parens)");
    let _ = writeln!(
        out,
        "  {:<42} {:>10} {:>10} {:>10}",
        "", "NT (sim)", "Sprite", "BSD"
    );
    let row = |out: &mut String, label: &str, nt: String, sp: &str, bsd: &str| {
        let _ = writeln!(out, "  {label:<42} {nt:>10} {sp:>10} {bsd:>10}");
    };
    let _ = writeln!(out, "  -- 10-minute intervals --");
    row(
        &mut out,
        "max active users",
        format!("{}", a.ten_minutes.max_active_users),
        "27",
        "31",
    );
    row(
        &mut out,
        "avg active users",
        format!("{:.1}", a.ten_minutes.active_users.mean),
        "9.1",
        "12.6",
    );
    row(
        &mut out,
        "avg user throughput",
        format!(
            "{:.1} ({:.0})",
            a.ten_minutes.throughput_kbs.mean, a.ten_minutes.throughput_kbs.stdev
        ),
        "8.0 (36)",
        "0.40",
    );
    row(
        &mut out,
        "peak user throughput",
        format!("{:.0}", a.ten_minutes.peak_user_kbs),
        &format!("{:.0}", b::SPRITE_10MIN_PEAK_USER_KBS),
        "NA",
    );
    row(
        &mut out,
        "peak system throughput",
        format!("{:.0}", a.ten_minutes.peak_system_kbs),
        "681",
        "NA",
    );
    let _ = writeln!(out, "  -- 10-second intervals --");
    row(
        &mut out,
        "max active users",
        format!("{}", a.ten_seconds.max_active_users),
        "12",
        "NA",
    );
    row(
        &mut out,
        "avg active users",
        format!("{:.1}", a.ten_seconds.active_users.mean),
        "1.6",
        "2.5",
    );
    row(
        &mut out,
        "avg user throughput",
        format!(
            "{:.1} ({:.0})",
            a.ten_seconds.throughput_kbs.mean, a.ten_seconds.throughput_kbs.stdev
        ),
        "47.0 (268)",
        "1.5",
    );
    row(
        &mut out,
        "peak user throughput",
        format!("{:.0}", a.ten_seconds.peak_user_kbs),
        &format!("{:.0}", b::SPRITE_10SEC_PEAK_USER_KBS),
        "NA",
    );
    row(
        &mut out,
        "peak system throughput",
        format!("{:.0}", a.ten_seconds.peak_system_kbs),
        "9977",
        "NA",
    );
    let _ = writeln!(
        out,
        "  (paper's NT values: 10-min avg {:.1}, peak {:.0}; 10-sec avg {:.1}, peak {:.0})",
        b::NT_10MIN_AVG_USER_KBS,
        b::NT_10MIN_PEAK_USER_KBS,
        b::NT_10SEC_AVG_USER_KBS,
        b::NT_10SEC_PEAK_USER_KBS
    );
    out
}

/// Table 3: access patterns with per-machine ranges.
pub fn table3(data: &StudyData) -> String {
    let t = patterns::access_patterns(&data.trace_set);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3 — access patterns (mean [min..max] %, W=this run, S=Sprite)"
    );
    let _ = writeln!(
        out,
        "  {:<12} {:<26} {:<26} transfer breakdown (accesses / bytes)",
        "usage", "accesses% W (S)", "bytes% W (S)"
    );
    let fmt_cell =
        |c: &nt_analysis::patterns::Cell| format!("{:.0} [{:.0}..{:.0}]", c.mean, c.min, c.max);
    let mut row = |label: &str,
                   r: &nt_analysis::patterns::Row,
                   s_acc: &str,
                   s_bytes: &str,
                   s_breakdown: [&str; 3]| {
        let _ = writeln!(
            out,
            "  {:<12} {:<26} {:<26}",
            label,
            format!("{} ({})", fmt_cell(&r.share_accesses), s_acc),
            format!("{} ({})", fmt_cell(&r.share_bytes), s_bytes),
        );
        let _ = writeln!(
            out,
            "      whole-file {} / {}   (S {})",
            fmt_cell(&r.whole_accesses),
            fmt_cell(&r.whole_bytes),
            s_breakdown[0]
        );
        let _ = writeln!(
            out,
            "      other-seq  {} / {}   (S {})",
            fmt_cell(&r.seq_accesses),
            fmt_cell(&r.seq_bytes),
            s_breakdown[1]
        );
        let _ = writeln!(
            out,
            "      random     {} / {}   (S {})",
            fmt_cell(&r.random_accesses),
            fmt_cell(&r.random_bytes),
            s_breakdown[2]
        );
    };
    row(
        "read-only",
        &t.read_only,
        "88",
        "80",
        ["78/89", "19/5", "3/7"],
    );
    row(
        "write-only",
        &t.write_only,
        "11",
        "19",
        ["67/69", "29/19", "4/11"],
    );
    row(
        "read/write",
        &t.read_write,
        "1",
        "1",
        ["0/0", "0/0", "100/100"],
    );
    out
}

/// Figures 1–2: sequential run length CDFs.
pub fn fig_runs(data: &StudyData) -> String {
    let r = runs::sequential_runs(&data.trace_set);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1 — sequential run length, weighted by files");
    render_cdf(&mut out, "read runs", "bytes", &r.read_by_files, 12);
    render_cdf(&mut out, "write runs", "bytes", &r.write_by_files, 12);
    let _ = writeln!(out, "Figure 2 — sequential run length, weighted by bytes");
    render_cdf(&mut out, "read runs", "bytes", &r.read_by_bytes, 12);
    render_cdf(&mut out, "write runs", "bytes", &r.write_by_bytes, 12);
    let _ = writeln!(
        out,
        "  80% run-length mark (reads): {:.0} bytes (paper: ~11 KB)",
        r.read_by_files.quantile(0.8).unwrap_or(0.0)
    );
    out
}

/// Figures 3–4: accessed file-size CDFs.
pub fn fig_sizes(data: &StudyData) -> String {
    render_fig_sizes(&sizes::accessed_sizes(&data.trace_set))
}

fn render_fig_sizes(s: &sizes::AccessedSizes) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3 — file size CDF, weighted by opens");
    render_cdf(&mut out, "read-only", "bytes", &s.read_only_by_opens, 12);
    render_cdf(&mut out, "write-only", "bytes", &s.write_only_by_opens, 12);
    render_cdf(&mut out, "read-write", "bytes", &s.read_write_by_opens, 12);
    let _ = writeln!(
        out,
        "Figure 4 — file size CDF, weighted by bytes transferred"
    );
    render_cdf(&mut out, "read-only", "bytes", &s.read_only_by_bytes, 12);
    render_cdf(&mut out, "write-only", "bytes", &s.write_only_by_bytes, 12);
    render_cdf(&mut out, "read-write", "bytes", &s.read_write_by_bytes, 12);
    out
}

/// Figure 5: open-duration CDF, all/local/network.
pub fn fig5(data: &StudyData) -> String {
    render_fig5(&sessions::session_durations(&data.trace_set))
}

fn render_fig5(s: &sessions::SessionDurations) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 5 — file open time CDF (data sessions)");
    render_cdf(&mut out, "all files", "ms", &s.data, 12);
    render_cdf(&mut out, "local file system", "ms", &s.data_local, 12);
    render_cdf(&mut out, "network file server", "ms", &s.data_network, 12);
    out
}

/// Figures 6–7: new-file lifetimes.
pub fn fig_lifetimes(data: &StudyData) -> String {
    render_fig_lifetimes(&lifetimes::lifetimes(&data.trace_set))
}

fn render_fig_lifetimes(l: &lifetimes::Lifetimes) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6 — lifetime of new files by deletion method");
    render_cdf(&mut out, "overwrite/truncate", "ms", &l.overwrite_ms, 12);
    render_cdf(&mut out, "explicit delete", "ms", &l.delete_ms, 12);
    let (o, d, t) = l.mechanism_shares;
    let _ = writeln!(
        out,
        "  mechanism shares: overwrite {:.0}% / delete {:.0}% / temporary {:.0}% (paper: 37/62/1)",
        o * 100.0,
        d * 100.0,
        t * 100.0
    );
    // §6.3's close-to-death latencies: overwrites follow the close almost
    // immediately; explicit deletes take seconds.
    let after_close = |kind: lifetimes::DeathKind| {
        Cdf::from_samples(
            lifetimes::deaths_of(l, kind)
                .filter_map(|de| de.after_close_ticks)
                .map(|g| g as f64 / 10_000.0),
        )
    };
    let oc = after_close(lifetimes::DeathKind::Overwrite);
    let dc = after_close(lifetimes::DeathKind::ExplicitDelete);
    if let (Some(o75), Some(d60)) = (oc.quantile(0.75), dc.quantile(0.6)) {
        let _ = writeln!(
            out,
            "  close-to-overwrite p75: {o75:.2} ms (paper: 0.7 ms); close-to-delete p60: {:.1} s (paper: 1.5 s)",
            d60 / 1000.0
        );
    }
    let _ = writeln!(out, "Figure 7 — lifetime vs size at death (sample)");
    for death in l.deaths.iter().take(25) {
        let _ = writeln!(
            out,
            "    size {:>10} B   lifetime {:>12.3} ms",
            death.size,
            death.lifetime_ticks as f64 / 10_000.0
        );
    }
    let _ = writeln!(
        out,
        "  size-lifetime correlation: {:?} (paper: no statistical justification)",
        l.size_lifetime_correlation
    );
    out
}

/// Figure 8: arrivals at three time scales vs Poisson synthesis.
pub fn fig8(data: &StudyData) -> String {
    let b = burstiness::burstiness(&data.trace_set, data.config.seed);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 8 — open arrivals vs Poisson at three scales");
    for s in &b.scales {
        let _ = writeln!(
            out,
            "  {}s bins: traced mean {:.2}/interval dispersion {:.2} | poisson dispersion {:.2}",
            s.traced.interval_secs,
            s.traced.mean(),
            s.traced.dispersion(),
            s.poisson.dispersion()
        );
    }
    let _ = writeln!(
        out,
        "  (Poisson dispersion stays ~1 at every scale; traced arrivals stay overdispersed)"
    );
    if let Some(base) = b.scales.iter().find(|s| s.traced.interval_secs == 1) {
        let vt = burstiness::variance_time(&base.traced);
        let vt_poisson = burstiness::variance_time(&base.poisson);
        let _ = writeln!(
            out,
            "  variance-time Hurst: traced {:.2} vs poisson {:.2} (H > 0.5 = long-range dependence)",
            vt.hurst, vt_poisson.hurst
        );
    }
    out
}

/// Figure 9: QQ comparison of the arrival sample vs Normal and Pareto.
pub fn fig9(data: &StudyData) -> String {
    render_fig9(&burstiness::open_arrival_ticks(&data.trace_set))
}

fn render_fig9(ticks: &[u64]) -> String {
    let gaps: Vec<f64> = ticks
        .windows(2)
        .map(|w| (w[1].saturating_sub(w[0])) as f64)
        .filter(|&g| g > 0.0)
        .collect();
    let qq = tails::qq_plot(&gaps, 40);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9 — QQ of open inter-arrivals (ticks)");
    let _ = writeln!(
        out,
        "  mean |relative deviation|: vs Normal {:.2}, vs Pareto {:.2}",
        qq.normal_deviation, qq.pareto_deviation
    );
    let _ = writeln!(out, "  (theoretical, observed) against Pareto:");
    for (t, o) in qq.against_pareto.iter().step_by(5) {
        let _ = writeln!(out, "    {t:>14.0} {o:>14.0}");
    }
    let _ = writeln!(
        out,
        "  verdict: {} (paper: 'an almost perfect match' to Pareto)",
        if qq.pareto_deviation < qq.normal_deviation {
            "Pareto fits better"
        } else {
            "Normal fits better"
        }
    );
    out
}

/// Figure 10: LLCD plot of the arrival tail with the alpha estimate.
pub fn fig10(data: &StudyData) -> String {
    render_fig10(&burstiness::open_arrival_ticks(&data.trace_set))
}

fn render_fig10(ticks: &[u64]) -> String {
    let gaps: Vec<f64> = ticks
        .windows(2)
        .map(|w| (w[1].saturating_sub(w[0])) as f64 / 10_000.0)
        .filter(|&g| g > 0.0)
        .collect();
    let l = tails::llcd(&gaps, 0.1);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 10 — LLCD of open inter-arrivals (ms)");
    for (x, y) in l.points.iter().step_by((l.points.len() / 20).max(1)) {
        let _ = writeln!(out, "    log10(x)={x:>7.2}  log10(P[X>x])={y:>7.2}");
    }
    let _ = writeln!(
        out,
        "  fitted tail slope {:.2} -> alpha = {:.2} (paper: 1.2; 1.2-1.7 across variables)",
        l.tail_slope, l.alpha
    );
    out
}

/// Figure 11: open inter-arrival CDF per usage type.
pub fn fig11(data: &StudyData) -> String {
    let a = arrivals::open_arrivals(&data.trace_set);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 11 — inter-arrival of open requests");
    render_cdf(&mut out, "open for I/O", "ms", &a.for_io, 12);
    render_cdf(&mut out, "open for control", "ms", &a.for_control, 12);
    let _ = writeln!(
        out,
        "  within 1 ms: {:.0}% (paper: 40%), within 30 ms: {:.0}% (paper: 90%)",
        100.0 * a.all.fraction_at_or_below(1.0),
        100.0 * a.all.fraction_at_or_below(30.0)
    );
    let _ = writeln!(
        out,
        "  active 1-second intervals: {:.0}% (paper: <=24%)",
        100.0 * a.active_second_fraction
    );
    out
}

/// Figure 12: session lifetime CDF per usage type.
pub fn fig12(data: &StudyData) -> String {
    render_fig12(&sessions::session_durations(&data.trace_set))
}

fn render_fig12(s: &sessions::SessionDurations) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 12 — file session lifetimes");
    render_cdf(&mut out, "all usage types", "ms", &s.all, 12);
    render_cdf(&mut out, "control operations", "ms", &s.control, 12);
    render_cdf(&mut out, "data operations", "ms", &s.data, 12);
    let _ = writeln!(
        out,
        "  closed within 1 ms: {:.0}% (paper: 40%), within 1 s: {:.0}% (paper: 90%)",
        100.0 * s.all.fraction_at_or_below(1.0),
        100.0 * s.all.fraction_at_or_below(1_000.0)
    );
    out
}

/// Figures 13–14: latency and size per request class.
pub fn fig_paths(data: &StudyData) -> String {
    render_fig_paths(&latency::path_latencies(&data.trace_set))
}

fn render_fig_paths(p: &latency::PathLatencies) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 13 — request completion latency");
    render_cdf(&mut out, "FastIO read", "us", &p.fastio_read_latency, 12);
    render_cdf(&mut out, "FastIO write", "us", &p.fastio_write_latency, 12);
    render_cdf(&mut out, "IRP read", "us", &p.irp_read_latency, 12);
    render_cdf(&mut out, "IRP write", "us", &p.irp_write_latency, 12);
    let _ = writeln!(out, "Figure 14 — requested data size");
    render_cdf(&mut out, "FastIO read", "bytes", &p.fastio_read_size, 12);
    render_cdf(&mut out, "FastIO write", "bytes", &p.fastio_write_size, 12);
    render_cdf(&mut out, "IRP read", "bytes", &p.irp_read_size, 12);
    render_cdf(&mut out, "IRP write", "bytes", &p.irp_write_size, 12);
    let _ = writeln!(
        out,
        "  FastIO share: {:.0}% of reads, {:.0}% of writes (paper: 59% / 96%)",
        100.0 * p.fastio_read_fraction,
        100.0 * p.fastio_write_fraction
    );
    out
}

/// §4: the dimension-table drill-down report (the OLAP cube example).
pub fn section4(data: &StudyData) -> String {
    let cube = dimensions::type_cube(&data.trace_set);
    let mut out = String::new();
    let _ = writeln!(out, "Section 4 — dimension drill-down (the .mbx example)");
    let _ = writeln!(
        out,
        "  {} opens total; roll-up consistent: {}",
        cube.total.opens,
        cube.consistent()
    );
    let mut tops: Vec<_> = cube.by_top.iter().collect();
    tops.sort_by_key(|&(&top, m)| (std::cmp::Reverse(m.bytes()), top));
    for (top, m) in tops {
        let _ = writeln!(
            out,
            "  {:?}: {} opens, {:.1} MB, mean session {:.1} ms",
            top,
            m.opens,
            m.bytes() as f64 / 1.0e6,
            m.mean_duration_ms()
        );
        for (leaf, lm) in cube.drill_down(*top).into_iter().take(3) {
            let _ = writeln!(
                out,
                "      {:?}: {} opens, {:.1} MB",
                leaf,
                lm.opens,
                lm.bytes() as f64 / 1.0e6
            );
        }
    }
    out
}

/// §7 (process view): activity is process-controlled.
pub fn section7(data: &StudyData) -> String {
    let a = processes::process_analysis(&data.trace_set);
    let mut out = String::new();
    let _ = writeln!(out, "Section 7 — per-process activity");
    let _ = writeln!(
        out,
        "  {} (machine, process) pairs; busiest decile issues {:.0}% of opens",
        a.per_process.len(),
        100.0 * a.top_decile_share
    );
    let _ = writeln!(
        out,
        "  Hill alpha: activity spans {:.2}, files-per-process {:.2} (paper: heavy tails in both)",
        a.span_alpha, a.files_alpha
    );
    let mut rows: Vec<_> = a.per_process.iter().collect();
    rows.sort_by_key(|&(&key, s)| (std::cmp::Reverse(s.opens), key));
    for ((m, p), s) in rows.into_iter().take(8) {
        let _ = writeln!(
            out,
            "    machine {m:>2} process {p:>2}: {} opens, {} files, {:.1} MB, span {:.0}s, max {} concurrent",
            s.opens,
            s.distinct_files,
            s.bytes as f64 / 1.0e6,
            s.span_ticks() as f64 / 1e7,
            s.max_concurrent_opens
        );
    }
    out
}

/// §5: file-system content report over the snapshots.
pub fn section5(data: &StudyData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Section 5 — file system content");
    for m in &data.machines {
        // First and last snapshot of the local volume (volume 0).
        let locals: Vec<&nt_trace::Snapshot> = m
            .snapshots
            .iter()
            .filter(|s| s.volume == nt_fs::VolumeId(0))
            .collect();
        let (Some(first), Some(last)) = (locals.first(), locals.last()) else {
            continue;
        };
        let stats = content::content_stats(last);
        let _ = writeln!(
            out,
            "  machine {:>2} ({:?}): {} files, {} dirs, {:.1} MB, exe/dll/font {:.0}% of bytes, \
             web cache {} files {:.1} MB, inconsistent times {:.1}%",
            m.id.0,
            m.category,
            stats.files,
            stats.directories,
            stats.total_bytes as f64 / 1.0e6,
            100.0 * stats.exe_dll_font_byte_fraction,
            stats.web_cache_files,
            stats.web_cache_bytes as f64 / 1.0e6,
            100.0 * stats.inconsistent_time_fraction
        );
        if locals.len() >= 2 {
            let churn = content::churn_stats(first, last);
            let _ = writeln!(
                out,
                "      churn over the period: {} files ({} removed), {:.0}% in profile, {:.0}% in web cache",
                churn.churn,
                churn.removed,
                100.0 * churn.profile_fraction,
                100.0 * churn.web_cache_fraction
            );
        }
    }
    out
}

/// §8: operational characteristics report.
pub fn section8(data: &StudyData) -> String {
    render_section8(&ops::operational_stats(&data.trace_set))
}

fn render_section8(o: &ops::OperationalStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Section 8 — operational characteristics");
    let _ = writeln!(
        out,
        "  opens: {} ok, {} failed ({:.0}% not-found, {:.0}% collision; paper: 52%/31%)",
        o.opens_ok,
        o.opens_failed,
        100.0 * o.open_fail_not_found,
        100.0 * o.open_fail_collision
    );
    let _ = writeln!(
        out,
        "  open failure rate: {:.1}% (paper: 12%)",
        100.0 * o.opens_failed as f64 / (o.opens_ok + o.opens_failed).max(1) as f64
    );
    let _ = writeln!(
        out,
        "  control-only opens: {:.0}% (paper: 74%)",
        100.0 * o.control_only_fraction
    );
    let _ = writeln!(
        out,
        "  error rates: control {:.1}% (8%), read {:.2}% (0.2%), write {:.2}% (0%)",
        100.0 * o.control_failure_rate,
        100.0 * o.read_failure_rate,
        100.0 * o.write_failure_rate
    );
    let _ = writeln!(
        out,
        "  read gaps: 80% within {:.0} us (paper: 90 us); write gaps: 80% within {:.0} us (paper: 30 us)",
        o.read_gaps_us.quantile(0.8).unwrap_or(0.0),
        o.write_gaps_us.quantile(0.8).unwrap_or(0.0)
    );
    let _ = writeln!(
        out,
        "  512/4096-byte reads: {:.0}% (paper: 59%)",
        100.0 * o.read_512_4096_fraction
    );
    let _ = writeln!(
        out,
        "  read-only files reopened: {:.0}% (paper: 24-40%)",
        100.0 * o.read_reopen_fraction
    );
    let _ = writeln!(
        out,
        "  cleanup->close: reads median {:.0} us (paper: ~4-10 us); writes median {:.0} ms (paper: 1-4 s)",
        o.cleanup_to_close_read_us.median().unwrap_or(0.0),
        o.cleanup_to_close_write_ms.median().unwrap_or(0.0)
    );
    out
}

/// §9: cache-manager report from the per-machine counters.
pub fn section9(data: &StudyData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Section 9 — the cache manager");
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut ra_ios = 0u64;
    let mut lazy = 0u64;
    let mut lazy_bytes = 0u64;
    let mut purged_dirty = 0u64;
    let mut temp_spared = 0u64;
    for m in &data.machines {
        hits += m.cache.read_hits;
        misses += m.cache.read_misses;
        ra_ios += m.cache.readahead_ios;
        lazy += m.cache.lazy_writes;
        lazy_bytes += m.cache.lazy_write_bytes;
        purged_dirty += m.cache.purged_with_dirty;
        temp_spared += m.cache.temporary_bytes_spared;
    }
    let _ = writeln!(
        out,
        "  copy-read hit rate: {:.0}% (paper: 60% of reads from cache)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
    // Single-prefetch sufficiency: read sessions needing <= 1 read-ahead.
    let read_sessions: Vec<&nt_analysis::Instance> = data
        .trace_set
        .instances
        .iter()
        .filter(|i| i.reads > 0 && i.writes == 0)
        .collect();
    let single = read_sessions.iter().filter(|i| i.paging_reads <= 1).count();
    let _ = writeln!(
        out,
        "  read sessions satisfied by a single prefetch: {:.0}% (paper: 92%)",
        100.0 * single as f64 / read_sessions.len().max(1) as f64
    );
    let _ = writeln!(out, "  read-ahead I/Os issued: {ra_ios}");
    let _ = writeln!(
        out,
        "  lazy writer: {} paging writes, {:.1} MB",
        lazy,
        lazy_bytes as f64 / 1.0e6
    );
    let bursts = nt_analysis::paging::paging_bursts(&data.trace_set, 1_000_000);
    if let (Some(med), Some(p90)) = (
        bursts.write_burst_requests.median(),
        bursts.write_burst_requests.quantile(0.9),
    ) {
        let _ = writeln!(
            out,
            "  write bursts: median {med:.0} requests, p90 {p90:.0} (paper: groups of 2-8), max request {:.0} KB (paper: up to 64 KB)",
            bursts.write_request_sizes.range().map(|(_, m)| m).unwrap_or(0.0) / 1024.0
        );
    }
    let _ = writeln!(
        out,
        "  files purged with unwritten dirty pages: {purged_dirty} (the §6.3 23%/5% populations)"
    );
    let _ = writeln!(
        out,
        "  bytes the temporary attribute kept off the disk queue: {:.1} MB",
        temp_spared as f64 / 1.0e6
    );
    out
}

/// §10: the FastIO path report.
pub fn section10(data: &StudyData) -> String {
    render_section10(&latency::path_latencies(&data.trace_set))
}

fn render_section10(p: &latency::PathLatencies) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Section 10 — FastIO");
    let _ = writeln!(
        out,
        "  FastIO carries {:.0}% of reads and {:.0}% of writes (paper: 59% / 96%)",
        100.0 * p.fastio_read_fraction,
        100.0 * p.fastio_write_fraction
    );
    let f = p.fastio_read_latency.median().unwrap_or(0.0);
    let i = p.irp_read_latency.median().unwrap_or(0.0);
    let _ = writeln!(
        out,
        "  median read latency: FastIO {f:.1} us vs IRP {i:.1} us ({:.0}x)",
        if f > 0.0 { i / f } else { 0.0 }
    );
    let _ = writeln!(
        out,
        "  median request size: FastIO read {:.0} B vs IRP read {:.0} B (FastIO skews smaller)",
        p.fastio_read_size.median().unwrap_or(0.0),
        p.irp_read_size.median().unwrap_or(0.0)
    );
    out
}

/// Per-category table-1 style breakdown (a this-reproduction extra).
pub(crate) fn category_breakdown(data: &StudyData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Per-category machine counters");
    for cat in UsageCategory::ALL {
        let machines: Vec<_> = data.machines.iter().filter(|m| m.category == cat).collect();
        if machines.is_empty() {
            continue;
        }
        let opens: u64 = machines.iter().map(|m| m.io.opens).sum();
        let bytes: u64 = machines
            .iter()
            .map(|m| m.io.bytes_read + m.io.bytes_written)
            .sum();
        let _ = writeln!(
            out,
            "  {:?}: {} machines, {} opens, {:.1} MB moved",
            cat,
            machines.len(),
            opens,
            bytes as f64 / 1.0e6
        );
    }
    out
}

/// Every figure's primary series as `(name, points)` rows, for CSV
/// export and external plotting.
pub fn csv_series(data: &StudyData) -> Vec<(String, Vec<(f64, f64)>)> {
    let ts = &data.trace_set;
    let mut out = Vec::new();
    let mut push = |name: &str, cdf: &Cdf| {
        out.push((name.to_string(), cdf.log_points(64)));
    };
    let r = runs::sequential_runs(ts);
    push("fig01_read_runs_by_files", &r.read_by_files);
    push("fig01_write_runs_by_files", &r.write_by_files);
    push("fig02_read_runs_by_bytes", &r.read_by_bytes);
    push("fig02_write_runs_by_bytes", &r.write_by_bytes);
    let sz = sizes::accessed_sizes(ts);
    push("fig03_read_only_by_opens", &sz.read_only_by_opens);
    push("fig03_write_only_by_opens", &sz.write_only_by_opens);
    push("fig03_read_write_by_opens", &sz.read_write_by_opens);
    push("fig04_read_only_by_bytes", &sz.read_only_by_bytes);
    push("fig04_write_only_by_bytes", &sz.write_only_by_bytes);
    push("fig04_read_write_by_bytes", &sz.read_write_by_bytes);
    let sd = sessions::session_durations(ts);
    push("fig05_all_files_ms", &sd.data);
    push("fig05_local_ms", &sd.data_local);
    push("fig05_network_ms", &sd.data_network);
    let lt = lifetimes::lifetimes(ts);
    push("fig06_overwrite_ms", &lt.overwrite_ms);
    push("fig06_delete_ms", &lt.delete_ms);
    let ar = arrivals::open_arrivals(ts);
    push("fig11_open_for_io_ms", &ar.for_io);
    push("fig11_open_for_control_ms", &ar.for_control);
    push("fig12_all_ms", &sd.all);
    push("fig12_control_ms", &sd.control);
    push("fig12_data_ms", &sd.data);
    let pl = latency::path_latencies(ts);
    push("fig13_fastio_read_us", &pl.fastio_read_latency);
    push("fig13_fastio_write_us", &pl.fastio_write_latency);
    push("fig13_irp_read_us", &pl.irp_read_latency);
    push("fig13_irp_write_us", &pl.irp_write_latency);
    push("fig14_fastio_read_bytes", &pl.fastio_read_size);
    push("fig14_fastio_write_bytes", &pl.fastio_write_size);
    push("fig14_irp_read_bytes", &pl.irp_read_size);
    push("fig14_irp_write_bytes", &pl.irp_write_size);
    // Figure 8's arrival counts per interval at the three scales.
    let ticks = burstiness::open_arrival_ticks(ts);
    for scale in [1u64, 10, 100] {
        let binned = burstiness::bin_arrivals(&ticks, scale);
        let series: Vec<(f64, f64)> = binned
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64, c as f64))
            .collect();
        out.push((format!("fig08_arrivals_per_{scale}s"), series));
    }
    // Figure 10's LLCD points.
    let gaps: Vec<f64> = ticks
        .windows(2)
        .map(|w| (w[1].saturating_sub(w[0])) as f64 / 10_000.0)
        .filter(|&g| g > 0.0)
        .collect();
    let llcd = tails::llcd(&gaps, 0.1);
    out.push(("fig10_llcd_log10".to_string(), llcd.points));
    out
}

/// The complete report: every table, figure and section. Each batch
/// analysis that several sections read runs once.
pub fn full_report(data: &StudyData) -> String {
    let shared = Shared::compute(&data.trace_set);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "NT 4.0 file-system usage study — reproduction run\n\
         machines: {}, period: {}s, records: {}, stored: {:.1} MB\n",
        data.config.machines.len(),
        data.config.duration.as_secs(),
        data.total_records,
        data.stored_bytes as f64 / 1.0e6
    );
    for part in [
        render_table1(data, &shared),
        render_table2(&shared.activity),
        table3(data),
        section4(data),
        section7(data),
        fig_runs(data),
        render_fig_sizes(&shared.sizes),
        render_fig5(&shared.sessions),
        render_fig_lifetimes(&shared.lifetimes),
        fig8(data),
        render_fig9(&shared.arrival_ticks),
        render_fig10(&shared.arrival_ticks),
        fig11(data),
        render_fig12(&shared.sessions),
        render_fig_paths(&shared.paths),
        section5(data),
        render_section8(&shared.ops),
        section9(data),
        render_section10(&shared.paths),
        category_breakdown(data),
    ] {
        out.push_str(&part);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::study::Study;
    use std::sync::OnceLock;

    fn data() -> &'static StudyData {
        static DATA: OnceLock<StudyData> = OnceLock::new();
        DATA.get_or_init(|| Study::run(&StudyConfig::smoke_test(17)).expect("smoke study runs"))
    }

    #[test]
    fn every_artefact_renders() {
        let d = data();
        for (name, text) in [
            ("table1", table1(d)),
            ("table2", table2(d)),
            ("table3", table3(d)),
            ("fig_runs", fig_runs(d)),
            ("fig_sizes", fig_sizes(d)),
            ("fig5", fig5(d)),
            ("fig_lifetimes", fig_lifetimes(d)),
            ("fig8", fig8(d)),
            ("fig9", fig9(d)),
            ("fig10", fig10(d)),
            ("fig11", fig11(d)),
            ("fig12", fig12(d)),
            ("fig_paths", fig_paths(d)),
            ("section4", section4(d)),
            ("section5", section5(d)),
            ("section7", section7(d)),
            ("section8", section8(d)),
            ("section9", section9(d)),
            ("section10", section10(d)),
        ] {
            assert!(text.len() > 40, "{name} rendered almost nothing: {text}");
        }
        let full = full_report(d);
        assert!(full.contains("Table 2"));
        assert!(full.contains("Figure 10"));
        assert!(full.contains("Section 9"));
    }

    #[test]
    fn table2_contains_baselines() {
        let t = table2(data());
        assert!(t.contains("Sprite"));
        assert!(t.contains("BSD"));
        assert!(t.contains("10-minute"));
        assert!(t.contains("10-second"));
    }

    #[test]
    fn fig8_reports_three_scales() {
        let f = fig8(data());
        assert!(f.contains("1s bins"));
        assert!(f.contains("10s bins"));
        assert!(f.contains("100s bins"));
    }
}
