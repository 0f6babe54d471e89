//! Discrete-event simulation kernel for the NT file-system usage study.
//!
//! The original study traced real Windows NT 4.0 machines with a kernel
//! filter driver and 100 ns timestamps. This crate provides the substrate
//! that replaces real time and real machines: a virtual clock with the same
//! 100 ns granularity ([`SimTime`]), an event heap ([`Engine`]), and
//! deterministic random-number plumbing ([`rng`]).
//!
//! # Examples
//!
//! ```
//! use nt_sim::{Engine, SimDuration};
//!
//! let mut engine: Engine<u32> = Engine::new();
//! engine.schedule_in(SimDuration::from_millis(5), |world, _eng| *world += 1);
//! let mut world = 0;
//! engine.run(&mut world);
//! assert_eq!(world, 1);
//! assert_eq!(engine.now().as_millis(), 5);
//! ```

pub mod engine;
pub mod rng;
pub mod time;

pub use engine::Engine;
pub use rng::{derive_seed, rng_for, SimRng};
pub use time::{SimDuration, SimTime, TICKS_PER_MICRO, TICKS_PER_MILLI, TICKS_PER_SEC};
