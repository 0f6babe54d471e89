//! Synthetic workload generation for the NT 4.0 usage study.
//!
//! The original study traced real users on 45 production machines; this
//! crate is the substitution: statistical models of the applications and
//! user behaviours the paper names, calibrated against the numbers it
//! reports, so that the simulated trace streams exhibit the same shapes —
//! heavy-tailed session lengths, inter-arrivals, sizes and lifetimes;
//! control-operation dominance; the §6.3 die-young new files; the WWW
//! cache churn of §5.
//!
//! Layers:
//!
//! * [`dist`] — the heavy-tailed sampling toolkit (Pareto, bounded
//!   Pareto, log-normal bodies with Pareto tails, the empirical
//!   read/write-size mixture of §8.2).
//! * [`filetypes`] — extension catalog with per-category size models, and
//!   the initial-content builder that populates volumes like §5 found
//!   them (24k–45k files, exe/dll/font-dominated sizes, profile tree,
//!   WWW cache).
//! * [`plan`] — the operation-plan vocabulary and its executor against an
//!   `nt_io::Machine`.
//! * [`apps`] — per-application session planners: notepad's 26-call save,
//!   explorer's control storms, the development environment, the mailer
//!   with its single 4 MB buffer, the Java tools' 2–4-byte reads, the
//!   web browser's cache churn, winlogon's profile sync, background
//!   services, and the memory-mapped scientific codes.
//! * [`users`] — the five §2 usage categories as ON/OFF user models with
//!   application mixes.

pub mod apps;
pub mod dist;
pub mod filetypes;
pub mod plan;
pub mod users;

pub use dist::Pareto;
pub use filetypes::{ContentBuilder, ContentPlan};
pub use plan::{run_plan, PlannedOp, SessionStats};
pub use users::{UsageCategory, UserModel};
