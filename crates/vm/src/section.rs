//! Section objects and the standby list.

use std::collections::BTreeMap;

use nt_cache::{RangeSet, PAGE_SIZE};
use nt_obs::{Phase, Telemetry};
use nt_sim::SimTime;

fn page_floor(x: u64) -> u64 {
    x / PAGE_SIZE * PAGE_SIZE
}

fn page_ceil(x: u64) -> u64 {
    x.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// What a section maps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SectionKind {
    /// An executable or DLL image. Pages survive process exit on the
    /// standby list (§3.3).
    Image,
    /// A plain mapped data file. Pages are released when the last
    /// reference goes away.
    Data,
}

/// One paging read the caller must issue as a PagingIO IRP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagingRead {
    /// Page-aligned byte offset.
    pub offset: u64,
    /// Length in bytes (page multiple).
    pub len: u64,
}

/// Physical pages available for section residency. The study's machines
/// had 64–128 MB; this models 64 MB with half available to sections.
const PAGE_BUDGET: u64 = (32 << 20) / PAGE_SIZE;

/// Counters for §3.3-related analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmMetrics {
    /// Hard faults: pages that required a paging read.
    pub hard_faults: u64,
    /// Soft faults: touched pages already resident (incl. standby reuse).
    pub soft_faults: u64,
    /// Bytes brought in by paging reads.
    pub paged_in_bytes: u64,
    /// Paging reads issued for section faults (one per resident gap).
    pub paging_read_ios: u64,
    /// Image-section map requests fully served from the standby list —
    /// the warm application restarts §3.3 describes.
    pub warm_image_maps: u64,
    /// Cold image-section map requests (needed at least one paging read).
    pub cold_image_maps: u64,
    /// Pages evicted under memory pressure.
    pub evicted_pages: u64,
}

impl VmMetrics {
    /// Posts the VM's side of the conservation accounts: section faults
    /// credit their share of the paging reads the I/O layer debited.
    pub fn post_conservation(&self, ledger: &mut nt_audit::Ledger) {
        use nt_audit::accounts::*;
        ledger.credit(PAGING_READ_IOS, self.paging_read_ios);
        ledger.credit(PAGING_READ_BYTES, self.paged_in_bytes);
    }
}

struct Section {
    kind: SectionKind,
    size: u64,
    resident: RangeSet,
    refs: u32,
    last_touch: SimTime,
}

/// The VM manager: section objects keyed by `K` plus a global page
/// budget of 32 MB, the half of a 64 MB study machine left to sections.
pub struct VmManager<K> {
    page_budget: u64,
    // BTreeMap, not HashMap: eviction breaks `last_touch` ties by visit
    // order, and the simulation must replay identically for one seed.
    sections: BTreeMap<K, Section>,
    resident_pages: u64,
    metrics: VmMetrics,
    telemetry: Telemetry,
}

impl<K: Ord + Clone> Default for VmManager<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone> VmManager<K> {
    /// Creates a manager for a 64 MB study machine.
    pub fn new() -> Self {
        VmManager {
            page_budget: PAGE_BUDGET,
            sections: BTreeMap::new(),
            resident_pages: 0,
            metrics: VmMetrics::default(),
            telemetry: Telemetry::off(),
        }
    }

    /// A manager whose sections share `page_budget` pages, so a test can
    /// reach memory pressure with a few small images.
    #[cfg(test)]
    fn with_page_budget(page_budget: u64) -> Self {
        VmManager {
            page_budget,
            ..Self::new()
        }
    }

    /// Attaches a telemetry handle; paging spans nest under the owning
    /// machine's dispatch spans.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Current counters.
    pub fn metrics(&self) -> VmMetrics {
        self.metrics
    }

    /// Pages currently resident across all sections.
    #[cfg(test)]
    fn resident_pages(&self) -> u64 {
        self.resident_pages
    }

    /// Creates (or references) a section for a file. Re-mapping an image
    /// whose pages are still on the standby list is the warm-restart path.
    pub fn map(&mut self, key: &K, kind: SectionKind, size: u64, now: SimTime) {
        let s = self.sections.entry(key.clone()).or_insert(Section {
            kind,
            size,
            resident: RangeSet::new(),
            refs: 0,
            last_touch: now,
        });
        s.refs += 1;
        s.size = s.size.max(size);
        s.kind = kind;
        s.last_touch = now;
    }

    /// Touches `[offset, offset + len)` of a mapped section, returning the
    /// paging reads needed for the non-resident pages.
    pub fn fault(&mut self, key: &K, offset: u64, len: u64, now: SimTime) -> Vec<PagingRead> {
        let _span = self.telemetry.span(Phase::Vm, "vm.fault", now);
        let Some(s) = self.sections.get_mut(key) else {
            return Vec::new();
        };
        s.last_touch = now;
        let end = page_ceil((offset + len).min(s.size));
        let start = page_floor(offset).min(end);
        if start >= end {
            return Vec::new();
        }
        let gaps = s.resident.gaps(start, end);
        if gaps.is_empty() {
            self.metrics.soft_faults += 1;
            return Vec::new();
        }
        let mut reads = Vec::with_capacity(gaps.len());
        let mut new_pages = 0;
        for (gs, ge) in gaps {
            let (gs, ge) = (page_floor(gs), page_ceil(ge));
            reads.push(PagingRead {
                offset: gs,
                len: ge - gs,
            });
            new_pages += (ge - gs) / PAGE_SIZE;
            self.metrics.paged_in_bytes += ge - gs;
            s.resident.insert(gs, ge);
        }
        self.metrics.hard_faults += 1;
        self.metrics.paging_read_ios += reads.len() as u64;
        self.resident_pages += new_pages;
        self.evict_to_budget(key);
        reads
    }

    /// Maps an image and faults in its whole load footprint at once (the
    /// loader touches headers plus code pages). Returns the paging reads;
    /// an empty result is a warm start.
    pub fn load_image(&mut self, key: &K, size: u64, now: SimTime) -> Vec<PagingRead> {
        let _span = self.telemetry.span(Phase::Vm, "vm.load_image", now);
        self.map(key, SectionKind::Image, size, now);
        let reads = self.fault(key, 0, size, now);
        if reads.is_empty() {
            self.metrics.warm_image_maps += 1;
        } else {
            self.metrics.cold_image_maps += 1;
        }
        reads
    }

    /// Releases one reference. Data-section pages are freed at zero refs;
    /// image pages move to the standby list (stay resident, refs == 0).
    pub fn unmap(&mut self, key: &K) {
        let Some(s) = self.sections.get_mut(key) else {
            return;
        };
        s.refs = s.refs.saturating_sub(1);
        if s.refs == 0 && s.kind == SectionKind::Data {
            let pages = s.resident.covered_bytes() / PAGE_SIZE;
            self.resident_pages -= pages;
            self.sections.remove(key);
        }
    }

    /// Drops a section entirely (file deleted / volume dismount).
    pub fn purge(&mut self, key: &K) {
        if let Some(s) = self.sections.remove(key) {
            self.resident_pages -= s.resident.covered_bytes() / PAGE_SIZE;
        }
    }

    /// True when the key currently has a section object.
    #[cfg(test)]
    fn has_section(&self, key: &K) -> bool {
        self.sections.contains_key(key)
    }

    /// Resident bytes of one section.
    pub fn resident_bytes(&self, key: &K) -> u64 {
        self.sections
            .get(key)
            .map_or(0, |s| s.resident.covered_bytes())
    }

    fn evict_to_budget(&mut self, protect: &K) {
        while self.resident_pages > self.page_budget {
            // Evict the least-recently-touched unreferenced section
            // wholesale; protect the section being faulted right now.
            let victim = self
                .sections
                .iter()
                .filter(|(k, s)| s.refs == 0 && !s.resident.is_empty() && *k != protect)
                .min_by_key(|(_, s)| s.last_touch)
                .map(|(k, _)| k.clone());
            let Some(k) = victim else {
                // Everything is referenced: allow the overshoot (NT would
                // trim working sets; out of scope).
                return;
            };
            let s = self.sections.get_mut(&k).expect("victim exists");
            let pages = s.resident.covered_bytes() / PAGE_SIZE;
            s.resident.clear();
            self.resident_pages -= pages;
            self.metrics.evicted_pages += pages;
            if s.kind == SectionKind::Data {
                self.sections.remove(&k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime::from_secs(1);

    fn vm() -> VmManager<u32> {
        VmManager::new()
    }

    #[test]
    fn cold_then_warm_image_load() {
        let mut v = vm();
        let reads = v.load_image(&1, 100_000, T);
        assert!(!reads.is_empty());
        assert_eq!(v.metrics().cold_image_maps, 1);
        let total: u64 = reads.iter().map(|r| r.len).sum();
        assert_eq!(total, page_ceil(100_000));
        v.unmap(&1);
        // §3.3: image pages survive process exit.
        assert!(v.has_section(&1));
        assert_eq!(v.resident_bytes(&1), page_ceil(100_000));
        let reads2 = v.load_image(&1, 100_000, SimTime::from_secs(2));
        assert!(reads2.is_empty(), "warm restart needs no paging I/O");
        assert_eq!(v.metrics().warm_image_maps, 1);
    }

    #[test]
    fn data_sections_release_pages_at_zero_refs() {
        let mut v = vm();
        v.map(&1, SectionKind::Data, 8_192, T);
        let reads = v.fault(&1, 0, 8_192, T);
        assert_eq!(reads.len(), 1);
        assert_eq!(v.resident_pages(), 2);
        v.unmap(&1);
        assert!(!v.has_section(&1));
        assert_eq!(v.resident_pages(), 0);
    }

    #[test]
    fn faults_are_page_granular_and_idempotent() {
        let mut v = vm();
        v.map(&1, SectionKind::Data, 1 << 20, T);
        let r1 = v.fault(&1, 100, 50, T);
        assert_eq!(
            r1,
            vec![PagingRead {
                offset: 0,
                len: PAGE_SIZE
            }]
        );
        let r2 = v.fault(&1, 200, 50, T);
        assert!(r2.is_empty(), "page already resident");
        assert_eq!(v.metrics().soft_faults, 1);
        assert_eq!(v.metrics().hard_faults, 1);
    }

    #[test]
    fn fault_clamps_to_section_size() {
        let mut v = vm();
        v.map(&1, SectionKind::Data, 5_000, T);
        let r = v.fault(&1, 4_096, 100_000, T);
        assert_eq!(
            r,
            vec![PagingRead {
                offset: 4_096,
                len: 4_096
            }]
        );
        assert!(v.fault(&1, 10_000, 100, T).is_empty(), "past EOF");
    }

    #[test]
    fn pressure_evicts_lru_standby_images() {
        let mut v = VmManager::with_page_budget(4);
        // Two images of 2 pages each fill the budget.
        v.load_image(&1, 8_192, SimTime::from_secs(1));
        v.unmap(&1);
        v.load_image(&2, 8_192, SimTime::from_secs(2));
        v.unmap(&2);
        assert_eq!(v.resident_pages(), 4);
        // A third image forces eviction of the oldest (key 1).
        v.load_image(&3, 8_192, SimTime::from_secs(3));
        assert!(v.resident_pages() <= 4);
        assert_eq!(v.resident_bytes(&1), 0, "LRU image evicted");
        assert!(v.resident_bytes(&3) > 0);
        assert!(v.metrics().evicted_pages >= 2);
    }

    #[test]
    fn purge_drops_everything() {
        let mut v = vm();
        v.load_image(&1, 8_192, T);
        v.purge(&1);
        assert!(!v.has_section(&1));
        assert_eq!(v.resident_pages(), 0);
    }

    #[test]
    fn unmapped_key_faults_nothing() {
        let mut v = vm();
        assert!(v.fault(&9, 0, 100, T).is_empty());
    }
}
