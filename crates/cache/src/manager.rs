//! The cache manager proper: per-file cache maps plus the global policies.
//!
//! The manager is generic over a file key `K` (the I/O layer uses its FCB
//! identifier) and is a *pure* state machine: methods return the paging
//! I/O the real cache manager would have triggered through the VM system,
//! and the caller performs it, reporting completions back via
//! [`CacheManager::complete_paging_read`].

use std::collections::{BTreeMap, BTreeSet};

use nt_obs::{Phase, Telemetry};
use nt_sim::{SimDuration, SimTime};

use crate::metrics::CacheMetrics;
use crate::range_set::RangeSet;
use crate::read_ahead::{ReadAheadDecision, ReadAheadState};

/// The VM page size; caching is page-granular.
pub const PAGE_SIZE: u64 = 4096;

fn page_floor(x: u64) -> u64 {
    x / PAGE_SIZE * PAGE_SIZE
}

fn page_ceil(x: u64) -> u64 {
    x.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// Standard read-ahead granularity (§9.1: 4096 bytes).
const READAHEAD_GRANULARITY: u64 = 4_096;
/// The lazy writer writes `dirty / LAZY_WRITE_DIVISOR` bytes of a file
/// per scan (NT uses an adaptive fraction; 1/8 is the classic figure).
const LAZY_WRITE_DIVISOR: u64 = 8;
/// Maximum size of a single lazy-write request (§9.2: up to 64 KB).
const MAX_WRITE_BURST: u64 = 65_536;
/// Maximum lazy-write requests issued per file per scan (§9.2: bursts
/// of 2–8 requests).
const MAX_BURST_REQUESTS: usize = 8;
/// Delay between cleanup and close for clean files (§8.1).
pub const CLEAN_CLOSE_DELAY: SimDuration = SimDuration::from_micros(6);

/// The cache-manager policy axes an ablation or a what-if variant sets,
/// defaulting to the behaviour the paper measured on NT 4.0.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Boosted granularity FAT/NTFS request for most files (§9.1: 64 KB).
    pub boosted_granularity: u64,
    /// Files at least this large get the boosted granularity.
    pub boost_threshold: u64,
    /// Period of the lazy-writer scan (§9.2: every second); must be
    /// positive. What-if replay honours it. A study scans every second,
    /// because `StudyConfig` carries no `CacheConfig`.
    pub lazy_write_interval: SimDuration,
    /// Ablation: disable read-ahead entirely (demand paging only).
    pub readahead_enabled: bool,
    /// Ablation: treat every file as write-through (no lazy writer).
    pub force_write_through: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            boosted_granularity: 65_536,
            boost_threshold: 4_096,
            lazy_write_interval: SimDuration::from_secs(1),
            readahead_enabled: true,
            force_write_through: false,
        }
    }
}

/// Open-time hints that shape caching for one file.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheOpenHints {
    /// FILE_SEQUENTIAL_ONLY was specified: read-ahead size doubles.
    pub sequential_only: bool,
    /// Write-through: copy-writes also go straight to disk.
    pub write_through: bool,
    /// FILE_ATTRIBUTE_TEMPORARY: the lazy writer skips this file's pages.
    pub temporary: bool,
}

/// One paging I/O the caller must perform against the file system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagingIo {
    /// Byte offset (page aligned).
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// True for paging writes, false for paging reads.
    pub write: bool,
    /// True when this read was speculative read-ahead rather than demand.
    pub readahead: bool,
}

/// A paging I/O attributed to a file, as produced by the lazy writer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PagingAction<K> {
    /// The file to write.
    pub key: K,
    /// The I/O to issue.
    pub io: PagingIo,
}

/// Result of a copy-read through the cache.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// True when the request was fully satisfied from resident pages.
    pub hit: bool,
    /// Paging reads the caller must issue (demand misses and read-ahead).
    pub ios: Vec<PagingIo>,
    /// True when this read initiated caching for the file.
    pub initiated_caching: bool,
}

/// Result of a copy-write through the cache.
#[derive(Clone, Debug)]
pub struct WriteOutcome {
    /// Paging writes to issue immediately (write-through files only).
    pub ios: Vec<PagingIo>,
    /// True when this write initiated caching for the file.
    pub initiated_caching: bool,
}

/// Result of a handle cleanup (first stage of the two-stage close, §8.1).
#[derive(Clone, Debug)]
pub struct CleanupOutcome {
    /// The cache manager issues SetEndOfFile before close for files that
    /// had cached writes (§8.3), trimming page-granular lazy writes back
    /// to the true size.
    pub set_end_of_file: Option<u64>,
    /// How long after cleanup the close IRP should arrive. `None` means
    /// the file still has dirty data; close follows the drain (1–4 s).
    pub close_after: Option<SimDuration>,
}

#[derive(Debug)]
struct FileCache {
    resident: RangeSet,
    dirty: RangeSet,
    size: u64,
    ra: ReadAheadState,
    hints: CacheOpenHints,
    written: bool,
    close_pending: bool,
    last_touch: u64,
}

/// The cache manager.
pub struct CacheManager<K> {
    config: CacheConfig,
    // A BTreeMap keeps scan order deterministic: the lazy writer and the
    // trimmer iterate this map, and their visit order decides RNG draw
    // order downstream. Hash-order iteration would make identical seeds
    // diverge run to run.
    files: BTreeMap<K, FileCache>,
    // The lazy writer's worklist: keys with dirty pages or a deferred
    // close still waiting on the drain. The per-second scan visits only
    // these; clean resident maps (the vast majority on a long run) cost
    // the scan nothing. A BTreeSet so the visit order stays the key
    // order the full-map scan had.
    attention: BTreeSet<K>,
    // Running total of resident bytes, maintained on every range insert
    // and map drop, so the per-tick trim check is O(1) instead of a
    // full-map sum.
    resident_total: u64,
    metrics: CacheMetrics,
    telemetry: Telemetry,
    touch_clock: u64,
}

impl<K: Ord + Clone> CacheManager<K> {
    /// Creates a manager with the given tunables.
    pub fn new(config: CacheConfig) -> Self {
        CacheManager {
            config,
            files: BTreeMap::new(),
            attention: BTreeSet::new(),
            resident_total: 0,
            metrics: CacheMetrics::default(),
            telemetry: Telemetry::off(),
            touch_clock: 0,
        }
    }

    /// Attaches a telemetry handle; cache spans nest under the owning
    /// machine's dispatch spans.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Creates a manager with the NT 4.0 defaults.
    pub fn with_defaults() -> Self {
        Self::new(CacheConfig::default())
    }

    /// Counters for the §9 analysis.
    pub fn metrics(&self) -> CacheMetrics {
        self.metrics
    }

    /// True when caching has been initiated for the file (§10: the I/O
    /// manager only attempts FastIO once this is the case).
    pub fn is_cached(&self, key: &K) -> bool {
        self.files.contains_key(key)
    }

    /// Total dirty bytes across all cached files.
    pub fn dirty_bytes(&self) -> u64 {
        self.files.values().map(|f| f.dirty.covered_bytes()).sum()
    }

    /// Number of cache maps currently live.
    pub fn cached_files(&self) -> usize {
        self.files.len()
    }

    fn granularity_for(&self, file_size: u64) -> u64 {
        if file_size >= self.config.boost_threshold {
            self.config.boosted_granularity
        } else {
            READAHEAD_GRANULARITY
        }
    }

    fn ensure(&mut self, key: &K, file_size: u64, hints: CacheOpenHints) -> bool {
        let config_gran = self.granularity_for(file_size);
        let mut initiated = false;
        let entry = self.files.entry(key.clone()).or_insert_with(|| {
            initiated = true;
            FileCache {
                resident: RangeSet::new(),
                dirty: RangeSet::new(),
                size: file_size,
                ra: ReadAheadState::new(config_gran, hints.sequential_only),
                hints,
                written: false,
                close_pending: false,
                last_touch: 0,
            }
        });
        entry.size = entry.size.max(file_size);
        if initiated {
            self.metrics.cache_inits += 1;
        }
        initiated
    }

    /// Copy-read `[offset, offset + len)`. Returns the paging reads the
    /// caller must issue; resident bytes are counted as hits.
    pub fn read(
        &mut self,
        key: &K,
        offset: u64,
        len: u64,
        file_size: u64,
        hints: CacheOpenHints,
    ) -> ReadOutcome {
        let _span = self.telemetry.span_child(Phase::Cache, "cache.read");
        let initiated = self.ensure(key, file_size, hints);
        self.touch_clock += 1;
        let clock = self.touch_clock;
        let readahead_enabled = self.config.readahead_enabled;
        let fc = self.files.get_mut(key).expect("ensured above");
        fc.last_touch = clock;
        let end = (offset + len).min(fc.size);
        let ra_decision = if readahead_enabled {
            fc.ra.on_read(offset, len, fc.size)
        } else {
            // Keep the sequential-detection state warm but clamp the
            // prefetch window to zero: pure demand paging.
            fc.ra.on_read(offset, len, 0);
            ReadAheadDecision::None
        };

        let requested = end.saturating_sub(offset);
        let mut ios = Vec::new();
        let mut demand_bytes = 0u64;
        let mut demand_ios = 0u64;
        let mut missing_request_bytes = 0u64;
        let mut readahead = (0u64, 0u64); // (ios, bytes)
        let hit;
        if end <= offset {
            // Read at or past EOF: nothing to fetch.
            hit = true;
        } else if fc.resident.covers(offset, end) {
            hit = true;
        } else if initiated {
            // Caching initiation (§9.1): the demand range and the initial
            // read-ahead are ONE paging read spanning from the request to
            // the prefetch horizon — which is why 92 % of read sessions
            // never need a second prefetch.
            let want = match ra_decision {
                ReadAheadDecision::Prefetch { start, len } => (start + len).max(end),
                ReadAheadDecision::None => end,
            };
            let (s, e) = (
                page_floor(offset),
                page_ceil(want).min(page_ceil(fc.size)).max(page_ceil(end)),
            );
            ios.push(PagingIo {
                offset: s,
                len: e - s,
                write: false,
                readahead: false,
            });
            self.metrics.read_misses += 1;
            self.metrics.demand_read_bytes += e - s;
            self.metrics.demand_read_ios += 1;
            // A fresh cache map holds nothing: the whole request is
            // pending on the paging read just issued.
            self.metrics.requested_read_bytes += requested;
            self.metrics.miss_pending_bytes += requested;
            return ReadOutcome {
                hit: false,
                ios,
                initiated_caching: initiated,
            };
        } else {
            hit = false;
            // Unrounded view of the request for the conservation ledger:
            // which of the asked-for bytes were resident vs pending.
            missing_request_bytes = fc
                .resident
                .gaps(offset, end)
                .iter()
                .map(|(s, e)| e - s)
                .sum();
            let clamp = page_ceil(end).min(page_ceil(fc.size));
            for (s, e) in fc.resident.gaps(page_floor(offset), clamp) {
                let (s, e) = (page_floor(s), page_ceil(e));
                ios.push(PagingIo {
                    offset: s,
                    len: e - s,
                    write: false,
                    readahead: false,
                });
                demand_bytes += e - s;
                demand_ios += 1;
            }
        }

        if let ReadAheadDecision::Prefetch { start, len } = ra_decision {
            let (s0, e0) = (page_floor(start), page_ceil(start + len));
            for (s, e) in fc.resident.gaps(s0, e0) {
                let (s, e) = (page_floor(s), page_ceil(e));
                // Skip ranges already queued as demand reads.
                if ios
                    .iter()
                    .any(|io| !io.write && io.offset <= s && io.offset + io.len >= e)
                {
                    continue;
                }
                ios.push(PagingIo {
                    offset: s,
                    len: e - s,
                    write: false,
                    readahead: true,
                });
                readahead.0 += 1;
                readahead.1 += e - s;
            }
        }

        self.metrics.requested_read_bytes += requested;
        if hit {
            self.metrics.read_hits += 1;
            self.metrics.read_hit_bytes += requested;
        } else {
            self.metrics.read_misses += 1;
            self.metrics.demand_read_bytes += demand_bytes;
            self.metrics.demand_read_ios += demand_ios;
            self.metrics.miss_pending_bytes += missing_request_bytes;
            self.metrics.miss_resident_bytes += requested - missing_request_bytes;
        }
        self.metrics.readahead_ios += readahead.0;
        self.metrics.readahead_bytes += readahead.1;

        ReadOutcome {
            hit,
            ios,
            initiated_caching: initiated,
        }
    }

    /// Reports completion of a paging read: the pages are now resident.
    pub fn complete_paging_read(&mut self, key: &K, offset: u64, len: u64) {
        if let Some(fc) = self.files.get_mut(key) {
            let before = fc.resident.covered_bytes();
            fc.resident
                .insert(page_floor(offset), page_ceil(offset + len));
            self.resident_total += fc.resident.covered_bytes() - before;
        }
    }

    /// Copy-write `[offset, offset + len)` into the cache.
    pub fn write(
        &mut self,
        key: &K,
        offset: u64,
        len: u64,
        file_size: u64,
        hints: CacheOpenHints,
    ) -> WriteOutcome {
        let _span = self.telemetry.span_child(Phase::Cache, "cache.write");
        let initiated = self.ensure(key, file_size, hints);
        self.touch_clock += 1;
        let clock = self.touch_clock;
        let self_force_write_through = self.config.force_write_through;
        let fc = self.files.get_mut(key).expect("ensured above");
        fc.last_touch = clock;
        let end = offset + len;
        fc.size = fc.size.max(end);
        fc.ra.note_size(fc.size);
        fc.written = true;
        let (ps, pe) = (page_floor(offset), page_ceil(end));
        let resident_before = fc.resident.covered_bytes();
        fc.resident.insert(ps, pe);
        self.resident_total += fc.resident.covered_bytes() - resident_before;
        let mut ios = Vec::new();
        let through = hints.write_through || fc.hints.write_through || self_force_write_through;
        let mut newly_dirtied = 0;
        if through {
            ios.push(PagingIo {
                offset: ps,
                len: pe - ps,
                write: true,
                readahead: false,
            });
        } else {
            let before = fc.dirty.covered_bytes();
            fc.dirty.insert(ps, pe);
            newly_dirtied = fc.dirty.covered_bytes() - before;
            self.attention.insert(key.clone());
        }
        if through {
            self.metrics.forced_writes += 1;
            self.metrics.forced_write_bytes += pe - ps;
        } else {
            self.metrics.cached_writes += 1;
            self.metrics.dirtied_bytes += pe - ps;
            self.metrics.newly_dirtied_bytes += newly_dirtied;
        }
        WriteOutcome {
            ios,
            initiated_caching: initiated,
        }
    }

    /// Explicit flush (FlushFileBuffers): returns the paging writes that
    /// push every dirty page of the file to disk.
    pub fn flush(&mut self, key: &K) -> Vec<PagingIo> {
        let Some(fc) = self.files.get_mut(key) else {
            return Vec::new();
        };
        let mut ios = Vec::new();
        loop {
            let chunk = fc.dirty.take_front(MAX_WRITE_BURST);
            if chunk.is_empty() {
                break;
            }
            for (s, e) in chunk {
                ios.push(PagingIo {
                    offset: s,
                    len: e - s,
                    write: true,
                    readahead: false,
                });
                self.metrics.forced_writes += 1;
                self.metrics.forced_write_bytes += e - s;
                self.metrics.flush_write_bytes += e - s;
            }
        }
        if !fc.close_pending {
            self.attention.remove(key);
        }
        ios
    }

    /// One lazy-writer scan (§9.2). A study scans every second, because
    /// `StudyConfig` carries no `CacheConfig`; what-if replay scans once
    /// per [`CacheConfig::lazy_write_interval`]. Returns the paging writes
    /// to issue, plus the keys whose deferred close can now complete.
    pub fn lazy_scan(&mut self, now: SimTime) -> (Vec<PagingAction<K>>, Vec<K>) {
        let _span = self.telemetry.span(Phase::Cache, "cache.lazy_scan", now);
        let mut actions = Vec::new();
        let mut closable = Vec::new();
        // Only the worklist — clean resident maps never concern the lazy
        // writer. The keys are snapshotted up front because draining a
        // file can retire it from the worklist mid-scan.
        let worklist: Vec<K> = self.attention.iter().cloned().collect();
        for key in &worklist {
            let Some(fc) = self.files.get_mut(key) else {
                self.attention.remove(key);
                continue;
            };
            if fc.hints.temporary {
                // §6.3: the temporary attribute keeps the lazy writer away.
                let spared = fc.dirty.covered_bytes();
                if spared > 0 {
                    self.metrics.temporary_bytes_spared =
                        self.metrics.temporary_bytes_spared.saturating_add(spared);
                }
                if fc.close_pending {
                    closable.push(key.clone());
                    // The deferred close is reported exactly once; the
                    // map stays on the worklist only for its dirty pages.
                    fc.close_pending = false;
                }
                if fc.dirty.is_empty() {
                    self.attention.remove(key);
                }
                continue;
            }
            let dirty = fc.dirty.covered_bytes();
            if dirty == 0 {
                if fc.close_pending {
                    closable.push(key.clone());
                    // Drained and reported: the map is an ordinary clean
                    // resident map from here on (and trimmable again).
                    fc.close_pending = false;
                }
                self.attention.remove(key);
                continue;
            }
            // Write an eighth of the dirty data, at least one page, capped
            // by the burst limits.
            let budget = (dirty / LAZY_WRITE_DIVISOR)
                .max(PAGE_SIZE)
                .min(MAX_WRITE_BURST * MAX_BURST_REQUESTS as u64);
            let mut issued = 0usize;
            let mut remaining = budget;
            while remaining > 0 && issued < MAX_BURST_REQUESTS {
                let chunk = fc.dirty.take_front(remaining.min(MAX_WRITE_BURST));
                if chunk.is_empty() {
                    break;
                }
                for (s, e) in chunk {
                    actions.push(PagingAction {
                        key: key.clone(),
                        io: PagingIo {
                            offset: s,
                            len: e - s,
                            write: true,
                            readahead: false,
                        },
                    });
                    self.metrics.lazy_writes += 1;
                    self.metrics.lazy_write_bytes += e - s;
                    remaining = remaining.saturating_sub(e - s);
                    issued += 1;
                    if issued >= MAX_BURST_REQUESTS {
                        break;
                    }
                }
            }
            if fc.dirty.is_empty() {
                if fc.close_pending {
                    closable.push(key.clone());
                    fc.close_pending = false;
                }
                self.attention.remove(key);
            }
        }
        (actions, closable)
    }

    /// Handle cleanup (§8.1). The I/O manager sends a cleanup IRP when the
    /// last user handle closes; the cache manager decides when the final
    /// close IRP can follow.
    pub fn cleanup(&mut self, key: &K, true_size: u64) -> CleanupOutcome {
        let Some(fc) = self.files.get_mut(key) else {
            return CleanupOutcome {
                set_end_of_file: None,
                close_after: Some(CLEAN_CLOSE_DELAY),
            };
        };
        let set_eof = fc.written.then_some(true_size);
        if fc.dirty.is_empty() || fc.hints.temporary {
            CleanupOutcome {
                set_end_of_file: set_eof,
                close_after: Some(CLEAN_CLOSE_DELAY),
            }
        } else {
            fc.close_pending = true;
            self.attention.insert(key.clone());
            CleanupOutcome {
                set_end_of_file: set_eof,
                close_after: None,
            }
        }
    }

    /// Drops a file's cache map (final close, delete, or overwrite purge).
    /// Returns the dirty bytes that never reached the disk — §6.3 found
    /// unwritten pages present in 23 % of overwrites and 5 % of deletes.
    pub fn purge(&mut self, key: &K) -> u64 {
        self.attention.remove(key);
        match self.files.remove(key) {
            Some(fc) => {
                self.resident_total -= fc.resident.covered_bytes();
                let lost = fc.dirty.covered_bytes();
                if lost > 0 {
                    self.metrics.purged_dirty_bytes += lost;
                    self.metrics.purged_with_dirty += 1;
                } else {
                    self.metrics.purged_clean += 1;
                }
                lost
            }
            None => 0,
        }
    }

    /// Total resident (clean + dirty) cached bytes. O(1): the total is
    /// maintained incrementally (see `recounted_resident_bytes` for the
    /// ground truth the tests audit it against).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_total
    }

    /// Recomputes the resident total from the cache maps — the slow
    /// ground truth for the incremental counter.
    #[doc(hidden)]
    pub fn recounted_resident_bytes(&self) -> u64 {
        self.files
            .values()
            .map(|f| f.resident.covered_bytes())
            .sum()
    }

    /// Trims cold cache maps until resident data fits `budget_bytes`.
    ///
    /// Victims are the least-recently-touched files; maps with dirty pages
    /// or a pending deferred close are never trimmed (their data is still
    /// on its way to the disk). Returns the number of maps dropped. This
    /// models the standby-list reclaim that bounds the real cache.
    pub fn trim(&mut self, budget_bytes: u64) -> usize {
        let mut dropped = 0;
        while self.resident_total > budget_bytes {
            let victim = self
                .files
                .iter()
                .filter(|(_, f)| f.dirty.is_empty() && !f.close_pending)
                .min_by_key(|(_, f)| f.last_touch)
                .map(|(k, f)| (k.clone(), f.resident.covered_bytes()));
            let Some((key, bytes)) = victim else {
                break;
            };
            self.files.remove(&key);
            self.attention.remove(&key);
            self.metrics.purged_clean += 1;
            self.resident_total -= bytes;
            dropped += 1;
        }
        dropped
    }

    /// Read-ahead granularity currently in force for a cached file.
    pub fn file_granularity(&self, key: &K) -> Option<u64> {
        self.files.get(key).map(|fc| fc.ra.granularity())
    }

    /// Dirty bytes for one file.
    pub fn file_dirty_bytes(&self, key: &K) -> u64 {
        self.files.get(key).map_or(0, |fc| fc.dirty.covered_bytes())
    }

    /// Size of the lazy writer's worklist — the only maps the per-second
    /// scan touches. Clean resident maps never appear here.
    #[doc(hidden)]
    pub fn scan_worklist_len(&self) -> usize {
        self.attention.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Mgr = CacheManager<u32>;

    fn mgr() -> Mgr {
        Mgr::with_defaults()
    }

    const NO_HINTS: CacheOpenHints = CacheOpenHints {
        sequential_only: false,
        write_through: false,
        temporary: false,
    };

    #[test]
    fn first_read_misses_then_hits() {
        let mut m = mgr();
        let out = m.read(&1, 0, 512, 10_000, NO_HINTS);
        assert!(!out.hit);
        assert!(out.initiated_caching);
        assert!(!out.ios.is_empty());
        for io in &out.ios {
            m.complete_paging_read(&1, io.offset, io.len);
        }
        let out2 = m.read(&1, 512, 512, 10_000, NO_HINTS);
        assert!(out2.hit, "after prefetch completes, reads hit");
        assert!(out2.ios.is_empty());
        assert!(m.metrics().hit_rate() > 0.0);
    }

    #[test]
    fn small_file_single_prefetch_covers_everything() {
        // §9.1: 92 % of read sessions needed exactly one prefetch. For a
        // boosted file smaller than 64 KB the first read loads it all.
        let mut m = mgr();
        let size = 26_000;
        let out = m.read(&1, 0, 4096, size, NO_HINTS);
        let prefetched: u64 = out.ios.iter().map(|io| io.len).sum();
        assert!(prefetched >= size, "one prefetch spans the file");
        for io in &out.ios {
            m.complete_paging_read(&1, io.offset, io.len);
        }
        let mut off = 4096;
        while off < size {
            let o = m.read(&1, off, 4096, size, NO_HINTS);
            assert!(o.hit, "no further paging reads at offset {off}");
            off += 4096;
        }
    }

    #[test]
    fn boost_threshold_selects_granularity() {
        let mut m = mgr();
        m.read(&1, 0, 100, 1_000, NO_HINTS);
        assert_eq!(m.file_granularity(&1), Some(4_096), "small file: 4 KB");
        m.read(&2, 0, 100, 1 << 20, NO_HINTS);
        assert_eq!(m.file_granularity(&2), Some(65_536), "big file: boosted");
    }

    #[test]
    fn cached_write_dirties_pages_until_lazy_scan() {
        let mut m = mgr();
        let out = m.write(&1, 0, 8_192, 0, NO_HINTS);
        assert!(out.ios.is_empty(), "write-behind issues nothing");
        assert_eq!(m.dirty_bytes(), 8_192);
        let (actions, _) = m.lazy_scan(SimTime::from_secs(1));
        assert!(!actions.is_empty());
        let written: u64 = actions.iter().map(|a| a.io.len).sum();
        assert!(written >= PAGE_SIZE);
        assert!(m.dirty_bytes() < 8_192);
    }

    #[test]
    fn lazy_scan_drains_in_bursts() {
        let mut m = mgr();
        m.write(&1, 0, 1 << 20, 0, NO_HINTS); // 1 MB dirty
        let (actions, _) = m.lazy_scan(SimTime::from_secs(1));
        assert!(actions.len() <= MAX_BURST_REQUESTS);
        for a in &actions {
            assert!(a.io.len <= MAX_WRITE_BURST);
            assert!(a.io.write);
        }
        let mut scans = 1;
        while m.dirty_bytes() > 0 {
            m.lazy_scan(SimTime::from_secs(1 + scans));
            scans += 1;
            assert!(scans < 1_000, "lazy writer must drain eventually");
        }
    }

    #[test]
    fn write_through_writes_immediately() {
        let mut m = mgr();
        let hints = CacheOpenHints {
            write_through: true,
            ..NO_HINTS
        };
        let out = m.write(&1, 0, 4_096, 0, hints);
        assert_eq!(out.ios.len(), 1);
        assert!(out.ios[0].write);
        assert_eq!(m.dirty_bytes(), 0);
    }

    #[test]
    fn temporary_files_never_reach_disk() {
        let mut m = mgr();
        let hints = CacheOpenHints {
            temporary: true,
            ..NO_HINTS
        };
        m.write(&1, 0, 65_536, 0, hints);
        let (actions, _) = m.lazy_scan(SimTime::from_secs(1));
        assert!(actions.is_empty(), "temporary pages stay in memory");
        assert!(m.metrics().temporary_bytes_spared >= 65_536);
        let lost = m.purge(&1);
        assert_eq!(lost, 65_536);
    }

    #[test]
    fn flush_clears_all_dirty() {
        let mut m = mgr();
        m.write(&1, 0, 200_000, 0, NO_HINTS);
        let ios = m.flush(&1);
        let total: u64 = ios.iter().map(|io| io.len).sum();
        assert_eq!(total, page_ceil(200_000));
        assert_eq!(m.dirty_bytes(), 0);
        for io in ios {
            assert!(io.len <= MAX_WRITE_BURST);
        }
    }

    #[test]
    fn cleanup_clean_file_closes_quickly() {
        let mut m = mgr();
        m.read(&1, 0, 512, 4_096, NO_HINTS);
        let out = m.cleanup(&1, 4_096);
        assert_eq!(out.set_end_of_file, None, "read-only: no SetEndOfFile");
        assert!(out.close_after.is_some());
    }

    #[test]
    fn cleanup_dirty_file_defers_close_until_drained() {
        let mut m = mgr();
        m.write(&1, 0, 100_000, 0, NO_HINTS);
        let out = m.cleanup(&1, 100_000);
        assert_eq!(out.set_end_of_file, Some(100_000), "§8.3 SetEndOfFile");
        assert!(out.close_after.is_none(), "close waits for the drain");
        let mut closable = Vec::new();
        for s in 1..100 {
            let (_, c) = m.lazy_scan(SimTime::from_secs(s));
            closable = c;
            if !closable.is_empty() {
                break;
            }
        }
        assert_eq!(closable, vec![1], "close signalled after drain");
    }

    #[test]
    fn purge_reports_unwritten_dirty_data() {
        let mut m = mgr();
        m.write(&1, 0, 4_096, 0, NO_HINTS);
        assert_eq!(m.purge(&1), 4_096);
        assert_eq!(m.metrics().purged_with_dirty, 1);
        assert_eq!(m.purge(&1), 0, "second purge is a no-op");
        m.read(&2, 0, 100, 100, NO_HINTS);
        assert_eq!(m.purge(&2), 0);
        assert_eq!(m.metrics().purged_clean, 1);
    }

    #[test]
    fn trim_evicts_cold_clean_maps_only() {
        let mut m = mgr();
        // File 1: clean resident data, touched first (cold).
        let out = m.read(&1, 0, 4_096, 100_000, NO_HINTS);
        for io in &out.ios {
            m.complete_paging_read(&1, io.offset, io.len);
        }
        // File 2: dirty data (never trimmable).
        m.write(&2, 0, 65_536, 0, NO_HINTS);
        // File 3: clean, touched last (warm).
        let out = m.read(&3, 0, 4_096, 100_000, NO_HINTS);
        for io in &out.ios {
            m.complete_paging_read(&3, io.offset, io.len);
        }
        let before = m.resident_bytes();
        assert!(before > 65_536);
        let dropped = m.trim(70_000);
        assert!(dropped >= 1);
        assert!(!m.is_cached(&1), "coldest clean file evicted");
        assert!(m.is_cached(&2), "dirty file protected");
        // A zero budget still cannot evict dirty data.
        m.trim(0);
        assert!(m.is_cached(&2));
    }

    #[test]
    fn ablation_no_readahead_pages_on_demand_only() {
        let mut m = Mgr::new(CacheConfig {
            readahead_enabled: false,
            ..CacheConfig::default()
        });
        let out = m.read(&1, 0, 512, 1 << 20, NO_HINTS);
        let total: u64 = out.ios.iter().map(|io| io.len).sum();
        assert_eq!(total, PAGE_SIZE, "exactly the faulting page, no prefetch");
        assert!(out.ios.iter().all(|io| !io.readahead));
        assert_eq!(m.metrics().readahead_ios, 0);
    }

    #[test]
    fn ablation_force_write_through_bypasses_lazy_writer() {
        let mut m = Mgr::new(CacheConfig {
            force_write_through: true,
            ..CacheConfig::default()
        });
        let out = m.write(&1, 0, 8_192, 0, NO_HINTS);
        assert_eq!(out.ios.len(), 1, "write goes straight to disk");
        assert_eq!(m.dirty_bytes(), 0);
        let (actions, _) = m.lazy_scan(SimTime::from_secs(1));
        assert!(actions.is_empty());
    }

    #[test]
    fn eof_read_is_trivially_hit() {
        let mut m = mgr();
        m.read(&1, 0, 100, 100, NO_HINTS);
        let out = m.read(&1, 200, 50, 100, NO_HINTS);
        assert!(out.hit);
        assert!(out.ios.is_empty());
    }

    #[test]
    fn lazy_scan_worklist_stays_small_as_clean_maps_accumulate() {
        // Regression: the per-second scan used to walk every cache map,
        // making a multi-day run quadratic in simulated time as clean
        // resident maps piled up. Only dirty / close-pending maps may
        // cost the scan anything.
        let mut m = mgr();
        for key in 0..500u32 {
            let out = m.read(&key, 0, 4_096, 50_000, NO_HINTS);
            for io in &out.ios {
                m.complete_paging_read(&key, io.offset, io.len);
            }
        }
        m.write(&1_000, 0, 8_192, 0, NO_HINTS);
        assert_eq!(m.cached_files(), 501);
        assert_eq!(m.scan_worklist_len(), 1, "only the dirty map is scanned");
        // Drain it: the worklist empties even though every map stays.
        while m.dirty_bytes() > 0 {
            m.lazy_scan(SimTime::from_secs(1));
        }
        assert_eq!(m.scan_worklist_len(), 0);
        assert_eq!(m.cached_files(), 501);
    }

    #[test]
    fn resident_counter_tracks_ground_truth_through_churn() {
        // Regression: `resident_bytes` is now an O(1) counter; it must
        // match a full recount through reads, overlapping writes, purges
        // and trims.
        let mut m = mgr();
        for key in 0..40u32 {
            let out = m.read(&key, 0, 12_288, 200_000, NO_HINTS);
            for io in &out.ios {
                m.complete_paging_read(&key, io.offset, io.len);
            }
            // Overlap the resident ranges so the deltas are non-trivial.
            m.write(&key, 4_096, 16_384, 200_000, NO_HINTS);
            m.write(&key, 8_192, 4_096, 200_000, NO_HINTS);
        }
        assert_eq!(m.resident_bytes(), m.recounted_resident_bytes());
        for key in 0..10u32 {
            m.purge(&key);
        }
        assert_eq!(m.resident_bytes(), m.recounted_resident_bytes());
        m.flush(&11);
        m.lazy_scan(SimTime::from_secs(1));
        m.trim(64_000);
        assert_eq!(m.resident_bytes(), m.recounted_resident_bytes());
        assert!(m.resident_bytes() > 0);
    }

    #[test]
    fn drained_deferred_close_is_reported_once_and_map_becomes_trimmable() {
        // A deferred close used to pin its cache map forever: the map
        // kept `close_pending` after the drain was reported, so the
        // trimmer could never evict it. The drain now clears the flag.
        let mut m = mgr();
        m.write(&1, 0, 4_096, 0, NO_HINTS);
        let out = m.cleanup(&1, 4_096);
        assert!(out.close_after.is_none(), "dirty close is deferred");
        let mut reported = 0;
        for s in 1..=10 {
            let (_, closable) = m.lazy_scan(SimTime::from_secs(s));
            reported += closable.iter().filter(|k| **k == 1).count();
        }
        assert_eq!(reported, 1, "drain reported exactly once");
        assert!(m.is_cached(&1), "map stays resident after close");
        m.trim(0);
        assert!(!m.is_cached(&1), "drained map is trimmable again");
    }
}
