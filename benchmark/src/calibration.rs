//! The host-speed reference that time metrics are rescaled by.
//!
//! On a shared host the same code runs faster or slower, by up to a
//! third, as other tenants' load changes over tens of seconds; a time
//! measured in one invocation says as much about the host as about the
//! program. So every measured interval is bracketed by a fixed kernel
//! that calls no program code — an unstable sort of a million
//! pseudo-random keys, branchy and memory-bound like the study itself —
//! and is rescaled to reference seconds: the time the interval would
//! have taken on a host where the kernel takes [`REFERENCE_S`]. Memory
//! and counts are not rescaled.

use std::time::Instant;

/// The kernel's time on a quiet host, which defines the reference
/// second (a 2.1 GHz Xeon VM takes 23–25 ms when its neighbours idle).
pub const REFERENCE_S: f64 = 0.025;

/// Keys the kernel sorts.
const KEYS: usize = 1 << 20;

pub struct Calibration {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let keys: Vec<u64> = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibration {
            scratch: keys.clone(),
            keys,
        }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
        t0.elapsed().as_secs_f64()
    }
}

/// The factor that turns seconds measured between kernel readings
/// `before` and `after` into reference seconds.
pub fn to_reference(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_reference_speed_leaves_times_alone() {
        assert_eq!(to_reference(REFERENCE_S, REFERENCE_S), 1.0);
    }

    #[test]
    fn a_host_twice_as_slow_halves_times() {
        assert_eq!(to_reference(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
    }

    #[test]
    fn the_kernel_sorts_and_takes_time() {
        let mut c = Calibration::new();
        assert!(c.measure() > 0.0);
        assert!(c.scratch.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(c.keys, c.scratch, "the keys themselves stay unsorted");
    }
}
