//! The event heap that drives all simulated machines.
//!
//! An [`Engine`] owns a priority queue of timed events. Each event is a
//! boxed closure that receives mutable access to both the world state `W`
//! and the engine itself, so firing an event may schedule further events —
//! the pattern used by the cache manager's lazy-writer scans, read-ahead
//! completions, and the workload generator's application scripts.
//!
//! Events at equal timestamps fire in scheduling order (a strict FIFO tie
//! break), which keeps runs bit-for-bit reproducible for a given seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

type BoxedEvent<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

struct Entry<W> {
    at: SimTime,
    seq: u64,
    action: BoxedEvent<W>,
}

impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<W> Eq for Entry<W> {}

impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with the lowest sequence number breaking ties.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event engine over world state `W`.
///
/// The engine is deliberately single-threaded: the study's scale (tens of
/// machines, millions of events) is easily within one core, and a serial
/// heap keeps the trace record ordering deterministic. Multi-machine
/// parallelism is achieved by running independent engines on worker threads
/// (see `nt-study`), never by sharing one engine.
pub struct Engine<W> {
    now: SimTime,
    heap: BinaryHeap<Entry<W>>,
    next_seq: u64,
    fired: u64,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            fired: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events scheduled but not yet fired: the telemetry
    /// sampler's queue-depth gauge.
    pub fn queue_depth(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `action` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to
    /// `now` so the clock never runs backwards, and debug builds assert.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            action: Box::new(action),
        });
    }

    /// Schedules `action` to fire `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) {
        self.schedule_at(self.now + delay, action)
    }

    /// Fires the single earliest pending event, advancing the clock.
    ///
    /// Returns `false` when no events remain.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some(entry) = self.heap.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.fired += 1;
        (entry.action)(world, self);
        true
    }

    /// Runs until the queue drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Runs until the queue drains or the next event would fire after
    /// `horizon`. Events at exactly `horizon` do fire — including whole
    /// cascades: an event at the horizon may schedule another at the same
    /// instant and that one fires too. On return the clock rests at the
    /// last fired event (or `horizon` if nothing fired later).
    pub fn run_until(&mut self, world: &mut W, horizon: SimTime) {
        while self.heap.peek().is_some_and(|head| head.at <= horizon) {
            self.step(world);
        }
        self.now = self.now.max(horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_millis(30), |w, _| w.push(3));
        eng.schedule_at(SimTime::from_millis(10), |w, _| w.push(1));
        eng.schedule_at(SimTime::from_millis(20), |w, _| w.push(2));
        let mut seen = Vec::new();
        eng.run(&mut seen);
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(eng.now(), SimTime::from_millis(30));
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::from_millis(5), move |w, _| w.push(i));
        }
        let mut seen = Vec::new();
        eng.run(&mut seen);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule_in(SimDuration::from_millis(1), |w, eng| {
            w.push(eng.now().as_millis());
            eng.schedule_in(SimDuration::from_millis(2), |w, eng| {
                w.push(eng.now().as_millis());
            });
        });
        let mut seen = Vec::new();
        eng.run(&mut seen);
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        for ms in [5u64, 10, 15, 20] {
            eng.schedule_at(SimTime::from_millis(ms), move |w, _| w.push(ms));
        }
        let mut seen = Vec::new();
        eng.run_until(&mut seen, SimTime::from_millis(15));
        assert_eq!(seen, vec![5, 10, 15]);
        assert_eq!(eng.now(), SimTime::from_millis(15));
        assert_eq!(eng.queue_depth(), 1);
        eng.run(&mut seen);
        assert_eq!(seen, vec![5, 10, 15, 20]);
    }

    #[test]
    fn event_at_horizon_cascades_at_the_horizon() {
        // Regression: an event firing exactly at the horizon that
        // schedules a zero-delay follow-up must see that follow-up fire
        // in the same run_until call, not hang over to the next window.
        // The study's snapshot scheduler relies on this when a snapshot
        // lands on a window boundary.
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule_at(SimTime::from_millis(10), |w, eng| {
            w.push(eng.now().as_millis());
            eng.schedule_in(SimDuration::from_millis(0), |w, eng| {
                w.push(100 + eng.now().as_millis());
            });
            eng.schedule_in(SimDuration::from_millis(1), |w, _| {
                w.push(999);
            });
        });
        let mut seen = Vec::new();
        eng.run_until(&mut seen, SimTime::from_millis(10));
        assert_eq!(
            seen,
            vec![10, 110],
            "the cascade fired, the later event didn't"
        );
        assert_eq!(eng.now(), SimTime::from_millis(10));
        assert_eq!(eng.queue_depth(), 1);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut eng: Engine<()> = Engine::new();
        eng.run_until(&mut (), SimTime::from_secs(9));
        assert_eq!(eng.now(), SimTime::from_secs(9));
    }

    #[test]
    fn queue_depth_counts_scheduled_unfired_events() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_millis(1), |w, _| w.push(1));
        eng.schedule_at(SimTime::from_millis(2), |w, _| w.push(2));
        eng.schedule_at(SimTime::from_millis(3), |w, _| w.push(3));
        assert_eq!(eng.queue_depth(), 3);
        let mut seen = Vec::new();
        assert!(eng.step(&mut seen));
        assert_eq!(eng.queue_depth(), 2);
        eng.run(&mut seen);
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(eng.queue_depth(), 0);
    }
}
