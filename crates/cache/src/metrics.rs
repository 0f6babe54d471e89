//! Cache-manager counters backing the §9 analysis.

/// Monotonic counters kept by the [`crate::CacheManager`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Copy-reads fully satisfied from resident data.
    pub read_hits: u64,
    /// Copy-reads that needed at least one paging read.
    pub read_misses: u64,
    /// Bytes returned to readers from the cache.
    pub read_hit_bytes: u64,
    /// Bytes copy-reads asked for (clipped to EOF). Conservation: equals
    /// `read_hit_bytes + miss_resident_bytes + miss_pending_bytes`.
    pub requested_read_bytes: u64,
    /// On missing reads, the requested bytes that *were* already resident.
    pub miss_resident_bytes: u64,
    /// On missing reads, the requested bytes that had to be paged in.
    pub miss_pending_bytes: u64,
    /// Bytes that had to be paged in on demand (excludes read-ahead;
    /// page-rounded, so ≥ `miss_pending_bytes`).
    pub demand_read_bytes: u64,
    /// Demand paging reads issued (the non-speculative `PagingIo`s).
    pub demand_read_ios: u64,
    /// Read-ahead paging reads issued.
    pub readahead_ios: u64,
    /// Bytes prefetched by read-ahead.
    pub readahead_bytes: u64,
    /// Copy-writes absorbed by the cache (write-behind).
    pub cached_writes: u64,
    /// Bytes dirtied in the cache (page-rounded per write; overlapping
    /// rewrites count every time, so this is a volume, not a population).
    pub dirtied_bytes: u64,
    /// Bytes that *became* dirty (page-rounded, deduplicated against
    /// already-dirty ranges). Conservation: every such byte later leaves
    /// through the lazy writer, a flush, a purge, or remains dirty at
    /// end of run.
    pub newly_dirtied_bytes: u64,
    /// Paging writes issued by the lazy writer.
    pub lazy_writes: u64,
    /// Bytes written to disk by the lazy writer.
    pub lazy_write_bytes: u64,
    /// Paging writes issued by explicit flushes or write-through.
    pub forced_writes: u64,
    /// Bytes written by flushes / write-through.
    pub forced_write_bytes: u64,
    /// The explicit-flush share of `forced_write_bytes` (bytes drained
    /// from the dirty set by FlushFileBuffers, as opposed to
    /// write-through bytes that never dirtied a page).
    pub flush_write_bytes: u64,
    /// Dirty bytes discarded by purges (deleted before ever reaching disk).
    pub purged_dirty_bytes: u64,
    /// Files purged while still holding unwritten data (§6.3's 23 % / 5 %).
    pub purged_with_dirty: u64,
    /// Files purged clean.
    pub purged_clean: u64,
    /// Cache maps initialised (caching initiations, §10).
    pub cache_inits: u64,
    /// Dirty bytes the temporary-file attribute kept off the disk queue.
    pub temporary_bytes_spared: u64,
}

impl CacheMetrics {
    /// Fraction of copy-reads that hit, in [0, 1]; 0 when no reads.
    pub fn hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }

    /// Posts the cache manager's side of the conservation accounts.
    ///
    /// The cache credits the paging traffic it originated (demand misses,
    /// read-ahead, lazy/forced writes) against the I/O layer's debits, and
    /// posts both sides of its two internal identities: the read split
    /// (every requested byte is a hit, already-resident, or paged-in) and
    /// the dirty lifecycle (every newly dirtied byte leaves via the lazy
    /// writer, a flush, a purge, or is still dirty at end of run —
    /// `residual_dirty_bytes`, which lives on the manager, not here).
    pub fn post_conservation(&self, residual_dirty_bytes: u64, ledger: &mut nt_audit::Ledger) {
        use nt_audit::accounts::*;
        ledger.credit(PAGING_READ_IOS, self.demand_read_ios + self.readahead_ios);
        ledger.credit(
            PAGING_READ_BYTES,
            self.demand_read_bytes + self.readahead_bytes,
        );
        ledger.credit(PAGING_WRITE_IOS, self.forced_writes + self.lazy_writes);
        ledger.credit(
            PAGING_WRITE_BYTES,
            self.forced_write_bytes + self.lazy_write_bytes,
        );
        ledger.credit(CACHE_REQUEST_BYTES, self.requested_read_bytes);
        ledger.debit(CACHE_READ_SPLIT, self.requested_read_bytes);
        ledger.credit(
            CACHE_READ_SPLIT,
            self.read_hit_bytes + self.miss_resident_bytes + self.miss_pending_bytes,
        );
        ledger.debit(DIRTY_LIFECYCLE, self.newly_dirtied_bytes);
        ledger.credit(
            DIRTY_LIFECYCLE,
            self.lazy_write_bytes
                + self.flush_write_bytes
                + self.purged_dirty_bytes
                + residual_dirty_bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(CacheMetrics::default().hit_rate(), 0.0);
        let m = CacheMetrics {
            read_hits: 3,
            read_misses: 1,
            ..CacheMetrics::default()
        };
        assert!((m.hit_rate() - 0.75).abs() < 1e-12);
    }
}
