//! Deterministic fault scheduling for the collection pipeline.
//!
//! The study's §3 infrastructure was designed around failure: agents that
//! lose contact with the collection servers suspend local tracing, triple
//! buffers guard against shipping stalls, and remote volumes sit behind a
//! network that can partition. A [`FaultPlan`] describes how unreliable a
//! deployment should be; [`FaultSchedule::materialize`] expands it — from
//! the study seed, bit-for-bit reproducibly — into concrete
//! [`TickWindow`]s per machine and per collection server, which
//! [`crate::MachineRun::simulate_with_faults`] and each machine's
//! [`nt_trace::CollectorHandle`] then enact; every handle of a run reads
//! the one [`FaultSchedule::collectors`] table.
//!
//! Determinism is load-bearing: every draw comes from a dedicated fault
//! stream (`rng_for(seed, &[FAULT_STREAM, …])`), never from the machine
//! workload streams, so a zero-fault plan leaves the simulated traces
//! byte-identical to a run without the fault layer.

use nt_sim::{rng_for, SimDuration};
use nt_trace::TickWindow;
use rand::Rng;

use crate::config::StudyConfig;

/// Label separating the fault-schedule RNG stream from the per-machine
/// workload streams (which use the bare machine index).
const FAULT_STREAM: u64 = 0xFA17_5EED;

/// Label offset for the per-collector streams.
const COLLECTOR_STREAM: u64 = 1_000_000;

/// Cap on scheduled windows per machine; a guard against degenerate means.
const MAX_WINDOWS: usize = 512;

/// How unreliable the simulated deployment is. The default plan injects
/// nothing — the clean study the paper actually ran.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Mean time between agent connection losses (exponential gaps);
    /// `None` disables agent outages.
    pub agent_outage_mean: Option<SimDuration>,
    /// Uniform bounds, in seconds, on each agent outage's length.
    pub agent_outage_secs: (u64, u64),
    /// Probability that a machine's trace agent runs with squeezed
    /// storage buffers (an under-provisioned install).
    pub buffer_squeeze_probability: f64,
    /// Per-buffer record capacity on squeezed machines (§3.2's default
    /// is 3,000).
    pub squeezed_capacity: usize,
    /// Outage windows per collection server over the study period.
    pub collector_outages: u32,
    /// Uniform bounds, in seconds, on each collector outage's length.
    pub collector_outage_secs: (u64, u64),
    /// Mean time between network partitions cutting a machine off from
    /// its remote volumes; `None` disables partitions.
    pub partition_mean: Option<SimDuration>,
    /// Uniform bounds, in seconds, on each partition's length.
    pub partition_secs: (u64, u64),
}

impl FaultPlan {
    /// The clean deployment: no faults at all.
    pub fn none() -> Self {
        FaultPlan {
            agent_outage_mean: None,
            agent_outage_secs: (2, 20),
            buffer_squeeze_probability: 0.0,
            squeezed_capacity: 300,
            collector_outages: 0,
            collector_outage_secs: (30, 120),
            partition_mean: None,
            partition_secs: (5, 60),
        }
    }

    /// A visibly lossy deployment for tests and experiments: frequent
    /// agent drops, some squeezed buffers, server downtime, partitions.
    pub fn lossy() -> Self {
        FaultPlan {
            agent_outage_mean: Some(SimDuration::from_secs(60)),
            agent_outage_secs: (2, 20),
            buffer_squeeze_probability: 0.4,
            squeezed_capacity: 200,
            collector_outages: 2,
            collector_outage_secs: (20, 60),
            partition_mean: Some(SimDuration::from_secs(90)),
            partition_secs: (5, 30),
        }
    }

    /// True when the plan schedules nothing.
    pub fn is_none(&self) -> bool {
        self.agent_outage_mean.is_none()
            && self.buffer_squeeze_probability == 0.0
            && self.collector_outages == 0
            && self.partition_mean.is_none()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// The faults one machine will experience.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineFaults {
    /// Windows during which the agent is suspended (records are lost).
    pub agent_outages: Vec<TickWindow>,
    /// Windows during which the network link is partitioned (remote
    /// volumes unreachable).
    pub partitions: Vec<TickWindow>,
    /// Squeezed per-buffer capacity, when this machine drew the squeeze.
    pub buffer_capacity: Option<usize>,
}

/// A fully materialized fault schedule for one study run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// Per machine, indexed like `StudyConfig::machines`.
    pub machines: Vec<MachineFaults>,
    /// Downtime windows per collection server.
    pub collectors: Vec<Vec<TickWindow>>,
}

/// Exponential gap with the given mean, in ticks (at least one tick so
/// schedules always advance).
fn exp_gap_ticks(rng: &mut impl Rng, mean_ticks: u64) -> u64 {
    let u: f64 = rng.gen();
    ((-(1.0 - u).ln()) * mean_ticks as f64).max(1.0) as u64
}

/// Poisson-arrival windows: exponential gaps between starts, uniform
/// lengths in `[len_secs.0, len_secs.1]`, clamped to the study period.
fn poisson_windows(
    rng: &mut impl Rng,
    mean: SimDuration,
    len_secs: (u64, u64),
    duration_ticks: u64,
) -> Vec<TickWindow> {
    let mean_ticks = mean.ticks().max(1);
    let (lo, hi) = (len_secs.0.min(len_secs.1), len_secs.0.max(len_secs.1));
    let mut windows = Vec::new();
    let mut t = 0u64;
    while windows.len() < MAX_WINDOWS {
        t = t.saturating_add(exp_gap_ticks(rng, mean_ticks));
        if t >= duration_ticks {
            break;
        }
        let len = rng.gen_range(lo..=hi) * nt_sim::TICKS_PER_SEC;
        windows.push(TickWindow::new(t, (t + len).min(duration_ticks)));
        t = t.saturating_add(len);
    }
    windows
}

impl FaultSchedule {
    /// Expands a config's plan into concrete windows, deterministically
    /// from the study seed. `servers` is the number of collection
    /// servers.
    pub fn materialize(config: &StudyConfig, servers: usize) -> Self {
        let plan = &config.faults;
        let duration_ticks = config.duration.ticks();
        let mut machines = Vec::with_capacity(config.machines.len());
        for index in 0..config.machines.len() {
            let mut rng = rng_for(config.seed, &[FAULT_STREAM, index as u64]);
            let agent_outages = match plan.agent_outage_mean {
                Some(mean) => {
                    poisson_windows(&mut rng, mean, plan.agent_outage_secs, duration_ticks)
                }
                None => Vec::new(),
            };
            let partitions = match plan.partition_mean {
                Some(mean) => poisson_windows(&mut rng, mean, plan.partition_secs, duration_ticks),
                None => Vec::new(),
            };
            let buffer_capacity = if plan.buffer_squeeze_probability > 0.0
                && rng.gen_bool(plan.buffer_squeeze_probability)
            {
                Some(plan.squeezed_capacity.max(1))
            } else {
                None
            };
            machines.push(MachineFaults {
                agent_outages,
                partitions,
                buffer_capacity,
            });
        }

        // Collector outages: the study period is sliced evenly and each
        // slice holds at most one window, so a server's own windows never
        // overlap and downtime spreads across the run.
        let mut collectors = Vec::with_capacity(servers);
        for s in 0..servers {
            let mut windows = Vec::new();
            if plan.collector_outages > 0 && duration_ticks > 0 {
                let mut rng = rng_for(config.seed, &[FAULT_STREAM, COLLECTOR_STREAM + s as u64]);
                let slices = plan.collector_outages as u64;
                let slice = duration_ticks / slices;
                let (lo, hi) = (
                    plan.collector_outage_secs
                        .0
                        .min(plan.collector_outage_secs.1),
                    plan.collector_outage_secs
                        .0
                        .max(plan.collector_outage_secs.1),
                );
                for k in 0..slices {
                    let len =
                        (rng.gen_range(lo..=hi) * nt_sim::TICKS_PER_SEC).min(slice.max(1) - 1);
                    let slack = slice.saturating_sub(len);
                    let offset = if slack > 0 {
                        rng.gen_range(0..slack)
                    } else {
                        0
                    };
                    let start = k * slice + offset;
                    windows.push(TickWindow::new(start, (start + len).min(duration_ticks)));
                }
                windows.retain(|w| w.duration_ticks() > 0);
            }
            collectors.push(windows);
        }
        FaultSchedule {
            machines,
            collectors,
        }
    }

    /// The faults for one machine (default-clean past the end).
    pub fn for_machine(&self, index: usize) -> MachineFaults {
        self.machines.get(index).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    fn lossy_config(seed: u64) -> StudyConfig {
        let mut c = StudyConfig::smoke_test(seed);
        c.faults = FaultPlan::lossy();
        c
    }

    #[test]
    fn zero_plan_schedules_nothing() {
        let c = StudyConfig::smoke_test(11);
        assert!(c.faults.is_none());
        let s = FaultSchedule::materialize(&c, 3);
        assert!(s.machines.iter().all(|m| m == &MachineFaults::default()));
        assert!(s.collectors.iter().all(|w| w.is_empty()));
    }

    #[test]
    fn materialization_is_deterministic() {
        let c = lossy_config(5);
        let a = FaultSchedule::materialize(&c, 3);
        let b = FaultSchedule::materialize(&c, 3);
        assert_eq!(a, b);
        let mut c2 = lossy_config(6);
        c2.seed = 6;
        let d = FaultSchedule::materialize(&c2, 3);
        assert_ne!(a, d, "different seed, different schedule");
    }

    #[test]
    fn windows_stay_inside_the_study_period() {
        let c = lossy_config(7);
        let end = c.duration.ticks();
        let s = FaultSchedule::materialize(&c, 3);
        let all = s
            .machines
            .iter()
            .flat_map(|m| m.agent_outages.iter().chain(m.partitions.iter()))
            .chain(s.collectors.iter().flatten());
        for w in all {
            assert!(w.start_ticks < end, "window starts inside the run");
            assert!(w.end_ticks <= end, "window ends inside the run");
            assert!(w.duration_ticks() > 0);
        }
    }

    #[test]
    fn lossy_plan_actually_schedules_faults() {
        let c = lossy_config(3);
        let s = FaultSchedule::materialize(&c, 3);
        let outages: usize = s.machines.iter().map(|m| m.agent_outages.len()).sum();
        let partitions: usize = s.machines.iter().map(|m| m.partitions.len()).sum();
        assert!(outages > 0, "agent outages scheduled");
        assert!(partitions > 0, "partitions scheduled");
        assert!(
            s.machines.iter().any(|m| m.buffer_capacity.is_some()),
            "some machine drew the buffer squeeze"
        );
        assert!(s.collectors.iter().all(|w| w.len() == 2));
    }

    #[test]
    fn collector_windows_do_not_overlap() {
        let c = lossy_config(13);
        let s = FaultSchedule::materialize(&c, 3);
        for windows in &s.collectors {
            for pair in windows.windows(2) {
                assert!(pair[0].end_ticks <= pair[1].start_ticks);
            }
        }
    }
}
