//! Profile-driven synthetic benchmarking — closing the §1/§7 loop.
//!
//! §7's third engineering conclusion: "when constructing synthetic
//! workloads … we need to ensure that the infinite variance
//! characteristics are properly modeled in the file system test
//! patterns." [`SyntheticBench`] takes a [`WorkloadProfile`] fitted from
//! any trace (`nt_analysis::profile::fit_profile`) and generates traffic
//! with the same empirical distributions — inter-arrivals, session
//! shapes, request sizes, file sizes — against a fresh machine, so a
//! cache or disk change can be benchmarked under statistically faithful
//! load.

use nt_analysis::profile::WorkloadProfile;
use nt_fs::{NtPath, VolumeConfig, VolumeId};
use nt_io::{
    AccessMode, CreateOptions, DiskParams, Disposition, IoMetrics, Machine, MachineConfig,
    NullObserver, ProcessId,
};
use nt_sim::{SimDuration, SimRng, SimTime};
use rand::Rng;
use rand::SeedableRng;

/// The synthetic benchmark: one machine driven by a fitted profile.
pub struct SyntheticBench {
    machine: Machine<NullObserver>,
    volume: VolumeId,
    files: Vec<(NtPath, u64)>,
    profile: WorkloadProfile,
    rng: SimRng,
    /// Open timestamps generated so far (for shape validation).
    pub open_ticks: Vec<u64>,
    scratch_seq: u64,
}

impl SyntheticBench {
    /// Builds the bench: a machine populated with `file_count` files whose
    /// sizes are drawn from the profile's file-size distribution.
    pub fn new(
        profile: WorkloadProfile,
        machine_config: MachineConfig,
        file_count: usize,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut machine = Machine::new(machine_config, NullObserver);
        let volume = machine.add_local_volume(
            'C',
            VolumeConfig::local_ntfs(32 << 30),
            DiskParams::local_ide(),
        );
        let mut files = Vec::with_capacity(file_count);
        {
            let vol = machine
                .namespace_mut()
                .volume_mut(volume)
                .expect("volume just added");
            let root = vol.root();
            let dir = vol.mkdir(root, "bench", SimTime::ZERO).expect("fresh dir");
            for i in 0..file_count {
                let size = profile.file_sizes.sample(&mut rng).max(1.0) as u64;
                let name = format!("f{i:06}.dat");
                let node = vol
                    .create_file(dir, &name, SimTime::ZERO)
                    .expect("fresh file");
                let _ = vol.set_file_size(node, size, SimTime::ZERO);
                files.push((NtPath::parse(&format!(r"\bench\{name}")), size));
            }
        }
        SyntheticBench {
            machine,
            volume,
            files,
            profile,
            rng,
            open_ticks: Vec::new(),
            scratch_seq: 0,
        }
    }

    fn pick_file(&mut self) -> (NtPath, u64) {
        let i = self.rng.gen_range(0..self.files.len());
        self.files[i].clone()
    }

    /// Runs the generator for `duration` of virtual time and returns the
    /// machine's counters.
    pub fn run(&mut self, duration: SimDuration) -> IoMetrics {
        let end = SimTime::ZERO + duration;
        let mut now = SimTime::from_millis(1);
        let process = ProcessId(1);
        while now < end {
            self.machine.run_lazy_writer(now);
            self.open_ticks.push(now.ticks());

            let u: f64 = self.rng.gen();
            if u < self.profile.open_failure_fraction {
                // A failed probe.
                let path = NtPath::parse(&format!(
                    r"\bench\missing{:06}",
                    self.rng.gen_range(0..1_000_000)
                ));
                let (r, _) = self.machine.create(
                    process,
                    self.volume,
                    &path,
                    AccessMode::Read,
                    Disposition::Open,
                    CreateOptions::default(),
                    now,
                );
                now = r.end;
            } else if u < self.profile.open_failure_fraction + self.profile.control_fraction {
                // A control-only session.
                let (path, _) = self.pick_file();
                let (r, h) = self.machine.create(
                    process,
                    self.volume,
                    &path,
                    AccessMode::Control,
                    Disposition::Open,
                    CreateOptions::default(),
                    now,
                );
                now = r.end;
                if let Some(h) = h {
                    now = self.machine.query_information(h, now).end;
                    now = self.machine.close(h, now).end;
                }
            } else {
                now = self.data_session(process, now);
            }

            let gap = self
                .profile
                .interarrival_ticks
                .sample(&mut self.rng)
                .max(1.0) as u64;
            now += SimDuration::from_ticks(gap);
        }
        // Drain.
        let drained = self.machine.drain_lazy_writer(end, 600);
        self.machine.pump(drained + SimDuration::from_secs(5));
        self.machine.metrics()
    }

    fn data_session(&mut self, process: ProcessId, start: SimTime) -> SimTime {
        let (ro, wo, _) = self.profile.class_shares;
        let u: f64 = self.rng.gen();
        let (path, size, access) = if u < ro {
            let (p, s) = self.pick_file();
            (p, s, AccessMode::Read)
        } else if u < ro + wo {
            self.scratch_seq += 1;
            (
                NtPath::parse(&format!(r"\bench\out{:06}.tmp", self.scratch_seq)),
                0,
                AccessMode::Write,
            )
        } else {
            let (p, s) = self.pick_file();
            (p, s, AccessMode::ReadWrite)
        };
        let disposition = if access == AccessMode::Read {
            Disposition::Open
        } else {
            Disposition::OpenIf
        };
        let (r, handle) = self.machine.create(
            process,
            self.volume,
            &path,
            access,
            disposition,
            CreateOptions::default(),
            start,
        );
        let mut now = r.end;
        let Some(h) = handle else {
            return now;
        };
        if access.can_read() {
            let n = self.profile.reads_per_session.sample(&mut self.rng).round() as u64;
            let sequential = self
                .rng
                .gen_bool(self.profile.sequential_read_fraction.clamp(0.0, 1.0));
            for _ in 0..n.clamp(1, 2_000) {
                let len = self.profile.read_sizes.sample(&mut self.rng).max(1.0) as u64;
                let offset = if sequential {
                    None
                } else {
                    Some(self.rng.gen_range(0..size.max(1)))
                };
                let r = self.machine.read(h, offset, len, now);
                now = r.end;
                if r.status.is_error() {
                    break;
                }
            }
        }
        if access.can_write() {
            let n = self
                .profile
                .writes_per_session
                .sample(&mut self.rng)
                .round() as u64;
            for _ in 0..n.clamp(1, 2_000) {
                let len = self.profile.write_sizes.sample(&mut self.rng).max(1.0) as u64;
                now = self.machine.write(h, None, len, now).end;
            }
        }
        self.machine.close(h, now).end
    }

    /// The machine under test (for cache metrics etc.).
    pub fn machine(&self) -> &Machine<NullObserver> {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;
    use crate::study::Study;
    use nt_analysis::burstiness::bin_arrivals;
    use nt_analysis::profile::fit_profile;

    #[test]
    fn synthetic_load_preserves_the_statistical_shape() {
        // Fit from a real study run…
        let data = Study::run(&StudyConfig::smoke_test(31)).expect("smoke study runs");
        let profile = fit_profile(&data.trace_set).expect("fit succeeds");
        let source_median_read = profile.read_sizes.median();
        let control_target = profile.control_fraction;

        // …generate fresh traffic…
        let mut bench = SyntheticBench::new(profile, MachineConfig::default(), 400, 9);
        let metrics = bench.run(SimDuration::from_secs(900));
        assert!(metrics.opens > 100, "generator produced work: {metrics:?}");

        // …and check the shape carried over.
        let data_opens = {
            // control-only fraction approximated through counters.
            let reads_writes = metrics.fastio_reads
                + metrics.irp_reads
                + metrics.fastio_writes
                + metrics.irp_writes;
            reads_writes > 0
        };
        assert!(data_opens);
        assert!(
            metrics.control_ops > 0,
            "control traffic present (target fraction {control_target})"
        );
        // Burstiness: the generated arrivals stay overdispersed.
        let binned = bin_arrivals(&bench.open_ticks, 1);
        assert!(
            binned.dispersion() > 1.5,
            "synthetic arrivals keep their burstiness: {}",
            binned.dispersion()
        );
        assert!(source_median_read > 0.0);
    }

    #[test]
    fn synthetic_bench_compares_cache_configs() {
        let data = Study::run(&StudyConfig::smoke_test(32)).expect("smoke study runs");
        let profile = fit_profile(&data.trace_set).expect("fit succeeds");
        let run = |config: MachineConfig, seconds: u64| {
            let mut bench = SyntheticBench::new(profile.clone(), config, 300, 4);
            bench.run(SimDuration::from_secs(seconds));
            bench
        };
        let fastio = |on: bool| MachineConfig {
            disable_fastio: !on,
            ..MachineConfig::default()
        };
        let with = run(fastio(true), 60).machine().metrics();
        let without = run(fastio(false), 60).machine().metrics();
        assert!(with.fastio_reads > 0);
        assert_eq!(without.fastio_reads, 0, "the knob reaches the bench");

        // The lazy-writer period reaches the bench too. A minute of load
        // gives the same counters at 1 s and 8 s, so this runs fifteen.
        let lazy_every = |secs: u64| MachineConfig {
            cache: nt_cache::CacheConfig {
                lazy_write_interval: SimDuration::from_secs(secs),
                ..nt_cache::CacheConfig::default()
            },
            ..MachineConfig::default()
        };
        let (every_second, every_8s) = (run(lazy_every(1), 900), run(lazy_every(8), 900));
        let (fast, slow) = (every_second.machine(), every_8s.machine());
        assert_ne!(fast.cache_metrics(), slow.cache_metrics());
        assert_ne!(fast.disk_busy_ticks(), slow.disk_busy_ticks());
    }
}
