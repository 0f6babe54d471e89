//! Service-time model for the four major request classes of figure 13.
//!
//! The study's latency CDFs (figures 13/14) separate FastIO reads/writes
//! (cache copies: single-digit microseconds) from IRP reads/writes (packet
//! overhead plus, on a miss, a disk access: hundreds of microseconds to
//! tens of milliseconds). The parameters below model the study's hardware
//! — 200 MHz P6 workstations, local IDE disks, 100 Mbit switched Ethernet
//! to the file servers — and each volume keeps a FIFO disk queue so
//! bursts see queueing delay, which the heavy-tailed arrival process
//! amplifies (§7).

use nt_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Disk/service parameters for one volume.
#[derive(Clone, Debug)]
pub struct DiskParams {
    /// Fixed positioning cost per disk access (seek + rotation), lower
    /// bound, in microseconds.
    pub seek_min_us: u64,
    /// Upper bound of the positioning cost in microseconds.
    pub seek_max_us: u64,
    /// Sequential transfer rate in bytes per microsecond (≈ MB/s).
    pub transfer_bytes_per_us: u64,
    /// Extra per-request network round-trip for redirector volumes, in
    /// microseconds (0 for local disks).
    pub network_rtt_us: u64,
}

impl DiskParams {
    /// A 1998-era local IDE disk (§2: 2–6 GB IDE on the desktops).
    pub fn local_ide() -> Self {
        DiskParams {
            seek_min_us: 2_000,
            seek_max_us: 14_000,
            transfer_bytes_per_us: 8,
            network_rtt_us: 0,
        }
    }

    /// An Ultra-2 SCSI disk (§2: the scientific machines).
    pub fn local_scsi() -> Self {
        DiskParams {
            seek_min_us: 1_000,
            seek_max_us: 9_000,
            transfer_bytes_per_us: 18,
            network_rtt_us: 0,
        }
    }

    /// An SSD-class device — an anachronism for the 1998 study, but the
    /// what-if replay axis the §9 simulation studies call for: near-zero
    /// positioning cost and an order of magnitude more bandwidth, so a
    /// policy matrix can ask which 1998 cache decisions stop mattering
    /// once seeks are free.
    pub fn ssd_class() -> Self {
        DiskParams {
            seek_min_us: 40,
            seek_max_us: 120,
            transfer_bytes_per_us: 400,
            network_rtt_us: 0,
        }
    }

    /// A CIFS share over 100 Mbit switched Ethernet (§2). The server's own
    /// cache absorbs most seeks, so the positioning cost is lower but every
    /// request pays a round trip.
    pub fn network_share() -> Self {
        DiskParams {
            seek_min_us: 500,
            seek_max_us: 8_000,
            transfer_bytes_per_us: 10,
            network_rtt_us: 900,
        }
    }
}

// CPU-side service costs, shared by all volumes of a machine, in 100 ns
// ticks.

/// A FastIO call resolved in the cache: ~2 us procedural call + copy.
const FASTIO_BASE_TICKS: u64 = 20;
/// Building, dispatching and completing an IRP: ~30 us packet path.
const IRP_BASE_TICKS: u64 = 300;
/// Cache copy throughput in bytes per tick: ~80 MB/s memcpy on a
/// 200 MHz P6.
const COPY_BYTES_PER_TICK: u64 = 8;
/// A metadata-only operation (query/set information, directory entry
/// fetch, control op) resolved from cached metadata: ~12 us.
pub(crate) const METADATA_TICKS: u64 = 120;

/// The machine-wide latency model plus per-volume disk queues. The
/// CPU-side costs are this module's constants, calibrated to the study's
/// 200 MHz P6 workstations; only the disks vary.
pub(crate) struct LatencyModel {
    disks: Vec<DiskParams>,
    /// Per-volume time at which the disk becomes idle (FIFO queue).
    free_at: Vec<SimTime>,
    /// Total service ticks across every disk transfer (positioning +
    /// transfer + RTT, excluding queueing) — how long the disks were
    /// actually busy, the latency-model axis of the what-if studies.
    busy_ticks: u64,
}

impl LatencyModel {
    /// Creates a model over the given per-volume disks.
    pub fn new(disks: Vec<DiskParams>) -> Self {
        let free_at = vec![SimTime::ZERO; disks.len()];
        LatencyModel {
            disks,
            free_at,
            busy_ticks: 0,
        }
    }

    /// Registers one more volume, returning its index.
    pub(crate) fn add_volume(&mut self, disk: DiskParams) -> usize {
        self.disks.push(disk);
        self.free_at.push(SimTime::ZERO);
        self.disks.len() - 1
    }

    /// Service time of a FastIO cache copy of `bytes`.
    pub(crate) fn fastio_copy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ticks(FASTIO_BASE_TICKS + bytes / COPY_BYTES_PER_TICK)
    }

    /// Service time of an IRP that is satisfied without disk I/O
    /// (cache-resident data or cached metadata) copying `bytes`.
    pub(crate) fn irp_cached(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ticks(IRP_BASE_TICKS + bytes / COPY_BYTES_PER_TICK)
    }

    /// Service time of a metadata operation (control, query, directory).
    pub(crate) fn metadata_op(&self) -> SimDuration {
        SimDuration::from_ticks(IRP_BASE_TICKS + METADATA_TICKS)
    }

    /// FastIO metadata query (QueryBasicInfo etc.).
    pub(crate) fn fastio_metadata(&self) -> SimDuration {
        SimDuration::from_ticks(FASTIO_BASE_TICKS + METADATA_TICKS / 4)
    }

    /// Completion time of a disk transfer of `bytes` on `volume` issued at
    /// `now`: IRP overhead, FIFO queueing behind earlier transfers, a
    /// sampled positioning cost and the sequential transfer.
    ///
    /// Advances the volume's queue; returns the absolute completion time.
    pub(crate) fn disk_io(
        &mut self,
        volume: usize,
        bytes: u64,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> SimTime {
        let disk = &self.disks[volume.min(self.disks.len().saturating_sub(1))];
        let seek_us = if disk.seek_max_us > disk.seek_min_us {
            rng.gen_range(disk.seek_min_us..=disk.seek_max_us)
        } else {
            disk.seek_min_us
        };
        let service = SimDuration::from_micros(
            disk.network_rtt_us + seek_us + bytes / disk.transfer_bytes_per_us.max(1),
        );
        let start = self.free_at[volume].max(now + SimDuration::from_ticks(IRP_BASE_TICKS));
        let done = start + service;
        self.free_at[volume] = done;
        self.busy_ticks += service.ticks();
        done
    }

    /// Cumulative disk service ticks across all volumes (queueing
    /// excluded): the disks' busy time under the current [`DiskParams`].
    pub fn disk_busy_ticks(&self) -> u64 {
        self.busy_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn model() -> LatencyModel {
        LatencyModel::new(vec![DiskParams::local_ide(), DiskParams::network_share()])
    }

    #[test]
    fn fastio_is_much_cheaper_than_irp() {
        let m = model();
        assert!(m.fastio_copy(4096) < m.irp_cached(4096));
        assert!(m.fastio_copy(0).ticks() >= FASTIO_BASE_TICKS);
    }

    #[test]
    fn copies_scale_with_size() {
        let m = model();
        assert!(m.fastio_copy(65_536) > m.fastio_copy(512));
        assert!(m.irp_cached(65_536) > m.irp_cached(512));
    }

    #[test]
    fn disk_io_queues_fifo() {
        let mut m = model();
        let mut rng = SmallRng::seed_from_u64(7);
        let now = SimTime::from_secs(1);
        let d1 = m.disk_io(0, 65_536, now, &mut rng);
        let d2 = m.disk_io(0, 65_536, now, &mut rng);
        assert!(d2 > d1, "second transfer waits for the first");
        // The other volume's queue is independent.
        let d3 = m.disk_io(1, 4_096, now, &mut rng);
        assert!(d3 < d2 + SimDuration::from_secs(1));
    }

    #[test]
    fn disk_latency_in_plausible_range() {
        let mut m = model();
        let mut rng = SmallRng::seed_from_u64(7);
        let now = SimTime::from_secs(5);
        let done = m.disk_io(0, 4_096, now, &mut rng);
        let lat = done.saturating_since(now);
        assert!(lat >= SimDuration::from_millis(2), "got {lat}");
        assert!(lat <= SimDuration::from_millis(20), "got {lat}");
    }

    #[test]
    fn network_share_pays_rtt() {
        let mut m = LatencyModel::new(vec![DiskParams {
            seek_min_us: 0,
            seek_max_us: 0,
            transfer_bytes_per_us: 1_000,
            network_rtt_us: 900,
        }]);
        let mut rng = SmallRng::seed_from_u64(7);
        let done = m.disk_io(0, 0, SimTime::ZERO, &mut rng);
        assert!(done.saturating_since(SimTime::ZERO) >= SimDuration::from_micros(900));
    }
}
