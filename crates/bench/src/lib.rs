//! Shared plumbing for the benchmark harness.
//!
//! The `exp` binary (`src/bin/exp.rs`) regenerates any table or figure of
//! the paper from a fresh study run; the Criterion benches
//! (`benches/*.rs`) measure the simulator and the analysis pipeline, and
//! run the DESIGN.md ablations.

use nt_study::{Study, StudyConfig, StudyData, StudyFault};

pub mod baseline;
pub use baseline::{check_min_ns, Baseline, BenchCheck, Verdict};

/// The scales the harness runs at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// 5 machines, 5 simulated minutes — CI-friendly.
    Smoke,
    /// 45 machines, 1 simulated hour — the default evaluation scale.
    Evaluation,
    /// 45 machines, 4 simulated weeks — the paper's deployment. Expect a
    /// very long run. Each machine holds two §3.1 snapshots per volume,
    /// the first and the latest, so snapshots do not grow with the
    /// period; but [`run_study`] retains every record, which does. The
    /// streaming driver without retention is the bounded way to run it
    /// (EXPERIMENTS.md, "Streaming at paper scale").
    Paper,
}

impl Scale {
    /// Parses a CLI scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "eval" | "evaluation" => Some(Scale::Evaluation),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The study configuration at this scale.
    pub fn config(self, seed: u64) -> StudyConfig {
        match self {
            Scale::Smoke => StudyConfig::smoke_test(seed),
            Scale::Evaluation => StudyConfig::evaluation(seed),
            Scale::Paper => StudyConfig::paper_scale(seed),
        }
    }
}

/// Runs a study at the given scale with its fact tables retained
/// ([`Study::run`]).
pub fn run_study(scale: Scale, seed: u64) -> Result<StudyData, StudyFault> {
    Study::run(&scale.config(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("eval"), Some(Scale::Evaluation));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn smoke_study_runs() {
        let data = run_study(Scale::Smoke, 5).expect("smoke study runs");
        assert!(data.total_records > 100);
    }
}
