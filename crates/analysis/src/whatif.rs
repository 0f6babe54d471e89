//! Differential fact tables for what-if replay studies.
//!
//! The paper's closing ambition (§1, §9) was a trace collection "that
//! could be used as input for file system simulation studies". A what-if
//! study replays one trace under a matrix of policy variants; this
//! module holds the *answers*: the per-machine replay fact rows each
//! variant produced, the signed per-machine differences against the
//! baseline variant, and the §9-style summary a person actually reads —
//! cache hit ratio, read-ahead efficiency and disk I/O counts, per
//! variant, as deltas against the baseline.
//!
//! Everything here is plain counters with `PartialEq`: the what-if
//! engine's determinism contract ("same seed + same segments →
//! bit-identical differential tables regardless of worker count") is
//! pinned by comparing these values directly, so none of them may hold
//! anything schedule-dependent.

/// One machine's replay facts under one policy variant: what the
/// replayed stack did with that machine's slice of the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayFacts {
    /// The machine the row describes.
    pub machine: u32,
    /// Source trace records fed to this machine's replay.
    pub source_records: u64,
    /// Application-level requests replayed (opens + reads + writes).
    pub replayed_requests: u64,
    /// Records skipped (paging records, failed opens, unknown handles).
    pub skipped_records: u64,
    /// Control traffic passed through without touching the cache.
    pub control_records: u64,
    /// Copy-read hits in the replayed cache.
    pub read_hits: u64,
    /// Copy-read misses.
    pub read_misses: u64,
    /// Bytes returned to readers from the replayed cache.
    pub read_hit_bytes: u64,
    /// Reads served on the FastIO path.
    pub fastio_reads: u64,
    /// Reads on the IRP path.
    pub irp_reads: u64,
    /// Paging reads the replayed stack issued (demand + read-ahead).
    pub paging_reads: u64,
    /// Paging writes (lazy writer + write-through + flushes).
    pub paging_writes: u64,
    /// Bytes the replayed stack moved from disk on demand.
    pub demand_read_bytes: u64,
    /// Bytes prefetched by the replayed read-ahead.
    pub readahead_bytes: u64,
    /// Read-ahead paging reads issued.
    pub readahead_ios: u64,
    /// Ticks of simulated time the machine's replayed disk queues were
    /// busy past each request's arrival — the latency-model axis shows
    /// up here when the policy counters barely move.
    pub disk_busy_ticks: u64,
}

impl ReplayFacts {
    /// Accumulates another row into `self` (fleet roll-up; the machine
    /// id of `self` is preserved).
    pub fn absorb(&mut self, other: &ReplayFacts) {
        self.source_records += other.source_records;
        self.replayed_requests += other.replayed_requests;
        self.skipped_records += other.skipped_records;
        self.control_records += other.control_records;
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.read_hit_bytes += other.read_hit_bytes;
        self.fastio_reads += other.fastio_reads;
        self.irp_reads += other.irp_reads;
        self.paging_reads += other.paging_reads;
        self.paging_writes += other.paging_writes;
        self.demand_read_bytes += other.demand_read_bytes;
        self.readahead_bytes += other.readahead_bytes;
        self.readahead_ios += other.readahead_ios;
        self.disk_busy_ticks += other.disk_busy_ticks;
    }

    /// Sums rows into one fleet-total row (machine `u32::MAX`).
    pub fn fleet_total(rows: &[ReplayFacts]) -> ReplayFacts {
        let mut total = ReplayFacts {
            machine: u32::MAX,
            ..ReplayFacts::default()
        };
        for row in rows {
            total.absorb(row);
        }
        total
    }

    /// Replayed copy-read hit rate in [0, 1]; 0 with no reads.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.read_hits, self.read_hits + self.read_misses)
    }

    /// Read-ahead efficiency: cache-hit bytes delivered per byte the
    /// prefetcher pulled from disk. Values above 1 mean hits also came
    /// from write-back data or re-reads; 0 when read-ahead is off.
    pub fn readahead_efficiency(&self) -> f64 {
        if self.readahead_bytes == 0 {
            0.0
        } else {
            self.read_hit_bytes as f64 / self.readahead_bytes as f64
        }
    }

    /// Total disk I/Os the replayed stack issued.
    pub fn disk_ios(&self) -> u64 {
        self.paging_reads + self.paging_writes
    }

    /// Signed per-counter difference `self − baseline`. The two rows
    /// must describe the same machine.
    pub fn delta(&self, baseline: &ReplayFacts) -> FactsDelta {
        assert_eq!(
            self.machine, baseline.machine,
            "differencing rows of different machines"
        );
        let d = |a: u64, b: u64| a as i64 - b as i64;
        FactsDelta {
            machine: self.machine,
            replayed_requests: d(self.replayed_requests, baseline.replayed_requests),
            skipped_records: d(self.skipped_records, baseline.skipped_records),
            read_hits: d(self.read_hits, baseline.read_hits),
            read_misses: d(self.read_misses, baseline.read_misses),
            fastio_reads: d(self.fastio_reads, baseline.fastio_reads),
            irp_reads: d(self.irp_reads, baseline.irp_reads),
            paging_reads: d(self.paging_reads, baseline.paging_reads),
            paging_writes: d(self.paging_writes, baseline.paging_writes),
            demand_read_bytes: d(self.demand_read_bytes, baseline.demand_read_bytes),
            readahead_bytes: d(self.readahead_bytes, baseline.readahead_bytes),
            disk_busy_ticks: d(self.disk_busy_ticks, baseline.disk_busy_ticks),
        }
    }
}

/// One machine's signed counter movement, variant − baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FactsDelta {
    /// The machine the row describes (`u32::MAX` for the fleet total).
    pub machine: u32,
    /// Requests replayed (should be 0 between honest variants — a
    /// policy must not change what the trace *asked for*).
    pub replayed_requests: i64,
    /// Records skipped.
    pub skipped_records: i64,
    /// Copy-read hit movement.
    pub read_hits: i64,
    /// Copy-read miss movement.
    pub read_misses: i64,
    /// FastIO-path read movement.
    pub fastio_reads: i64,
    /// IRP-path read movement.
    pub irp_reads: i64,
    /// Paging-read movement.
    pub paging_reads: i64,
    /// Paging-write movement.
    pub paging_writes: i64,
    /// Demand disk-read byte movement.
    pub demand_read_bytes: i64,
    /// Prefetched byte movement.
    pub readahead_bytes: i64,
    /// Disk-queue busy-tick movement.
    pub disk_busy_ticks: i64,
}

/// The per-variant differential fact table: one [`FactsDelta`] row per
/// machine (ascending), variant − baseline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DifferentialTable {
    /// The variant's name.
    pub variant: String,
    /// Per-machine rows, ascending by machine id.
    pub rows: Vec<FactsDelta>,
}

impl DifferentialTable {
    /// Builds the table from per-machine rows of a variant and the
    /// baseline. Both slices must be machine-aligned (the engine's
    /// invariant: same source, same ascending machine order).
    pub fn build(variant: &str, rows: &[ReplayFacts], baseline: &[ReplayFacts]) -> Self {
        assert_eq!(rows.len(), baseline.len(), "machine sets differ");
        DifferentialTable {
            variant: variant.to_string(),
            rows: rows.iter().zip(baseline).map(|(v, b)| v.delta(b)).collect(),
        }
    }
}

/// The §9-style per-variant summary a person reads: the three families
/// the paper's simulation-study motivation names — cache hit ratio,
/// read-ahead efficiency, disk I/O — per variant, against the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaSummary {
    /// The variant's name.
    pub variant: String,
    /// Fleet copy-read hit rate under this variant.
    pub hit_rate: f64,
    /// `hit_rate` − baseline hit rate.
    pub hit_rate_delta: f64,
    /// Fleet read-ahead efficiency under this variant.
    pub readahead_efficiency: f64,
    /// `readahead_efficiency` − baseline.
    pub readahead_efficiency_delta: f64,
    /// Disk I/Os issued (paging reads + writes).
    pub disk_ios: u64,
    /// `disk_ios` − baseline, signed.
    pub disk_ios_delta: i64,
    /// Paging reads issued.
    pub disk_reads: u64,
    /// Paging writes issued.
    pub disk_writes: u64,
    /// Demand + prefetch bytes read from disk.
    pub disk_read_bytes: u64,
    /// `disk_read_bytes` − baseline, signed.
    pub disk_read_bytes_delta: i64,
}

impl DeltaSummary {
    /// Summarizes one variant's fleet totals against the baseline's.
    pub fn compute(variant: &str, total: &ReplayFacts, baseline: &ReplayFacts) -> Self {
        let read_bytes = |f: &ReplayFacts| f.demand_read_bytes + f.readahead_bytes;
        DeltaSummary {
            variant: variant.to_string(),
            hit_rate: total.hit_rate(),
            hit_rate_delta: total.hit_rate() - baseline.hit_rate(),
            readahead_efficiency: total.readahead_efficiency(),
            readahead_efficiency_delta: total.readahead_efficiency()
                - baseline.readahead_efficiency(),
            disk_ios: total.disk_ios(),
            disk_ios_delta: total.disk_ios() as i64 - baseline.disk_ios() as i64,
            disk_reads: total.paging_reads,
            disk_writes: total.paging_writes,
            disk_read_bytes: read_bytes(total),
            disk_read_bytes_delta: read_bytes(total) as i64 - read_bytes(baseline) as i64,
        }
    }
}

/// Renders delta summaries as the fixed-width table the examples print:
/// one row per variant, baseline first, deltas signed.
pub fn render_delta_table(baseline_name: &str, summaries: &[DeltaSummary]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9} {:>12}\n",
        "variant (vs ".to_string() + baseline_name + ")",
        "hit%",
        "Δhit%",
        "ra-eff",
        "Δra-eff",
        "disk-ios",
        "Δios",
        "Δread-MB"
    ));
    for s in summaries {
        out.push_str(&format!(
            "{:<24} {:>8.2} {:>+8.2} {:>8.3} {:>+8.3} {:>10} {:>+9} {:>+12.2}\n",
            s.variant,
            s.hit_rate * 100.0,
            s.hit_rate_delta * 100.0,
            s.readahead_efficiency,
            s.readahead_efficiency_delta,
            s.disk_ios,
            s.disk_ios_delta,
            s.disk_read_bytes_delta as f64 / (1 << 20) as f64,
        ));
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(machine: u32, hits: u64, misses: u64) -> ReplayFacts {
        ReplayFacts {
            machine,
            source_records: hits + misses,
            replayed_requests: hits + misses,
            read_hits: hits,
            read_misses: misses,
            read_hit_bytes: hits * 4096,
            paging_reads: misses,
            paging_writes: misses / 2,
            demand_read_bytes: misses * 4096,
            readahead_bytes: misses * 8192,
            readahead_ios: misses / 4,
            ..ReplayFacts::default()
        }
    }

    #[test]
    fn fleet_total_sums_rows() {
        let rows = [row(0, 10, 2), row(1, 20, 8)];
        let total = ReplayFacts::fleet_total(&rows);
        assert_eq!(total.machine, u32::MAX);
        assert_eq!(total.read_hits, 30);
        assert_eq!(total.read_misses, 10);
        assert!((total.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn differential_table_is_signed_and_machine_aligned() {
        let base = [row(0, 10, 10), row(1, 10, 10)];
        let variant = [row(0, 15, 5), row(1, 5, 15)];
        let table = DifferentialTable::build("boosted", &variant, &base);
        assert_eq!(table.rows[0].read_hits, 5);
        assert_eq!(table.rows[1].read_hits, -5);
    }

    #[test]
    #[should_panic(expected = "different machines")]
    fn delta_refuses_mismatched_machines() {
        let _ = row(0, 1, 1).delta(&row(1, 1, 1));
    }

    #[test]
    fn summary_deltas_are_zero_against_self() {
        let total = ReplayFacts::fleet_total(&[row(0, 10, 2)]);
        let s = DeltaSummary::compute("baseline", &total, &total);
        assert_eq!(s.hit_rate_delta, 0.0);
        assert_eq!(s.disk_ios_delta, 0);
        assert_eq!(s.disk_read_bytes_delta, 0);
        assert!(s.hit_rate > 0.0);
    }

    #[test]
    fn render_includes_every_variant_row() {
        let base = ReplayFacts::fleet_total(&[row(0, 10, 2)]);
        let other = ReplayFacts::fleet_total(&[row(0, 6, 6)]);
        let table = render_delta_table(
            "baseline",
            &[
                DeltaSummary::compute("baseline", &base, &base),
                DeltaSummary::compute("no-readahead", &other, &base),
            ],
        );
        assert!(table.contains("no-readahead"));
        assert!(table.lines().count() == 3);
    }
}
