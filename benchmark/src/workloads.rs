//! The three workloads: what each prepares in set-up, the one operation
//! its timed runs repeat, and the output every run must reproduce.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use nt_analysis::TraceSet;

use crate::adapter::{self, Config, Deployment, Matrix, RuntimeProfile, Scale, StudyFacts};
use crate::resources;

/// Distance between the seeds of the studies one invocation rotates
/// through.
pub const SUBSTUDY_STRIDE: u64 = 1 << 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetHour,
    WhatifMatrix,
    WarehouseIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FleetHour,
        Workload::WhatifMatrix,
        Workload::WarehouseIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetHour => "fleet_hour",
            Workload::WhatifMatrix => "whatif_matrix",
            Workload::WarehouseIngest => "warehouse_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `k`-th study an invocation with `seed` measures: `seed`'s own
    /// study first, then seeds [`SUBSTUDY_STRIDE`] apart, so invocations
    /// with different seeds share none.
    pub fn substudy(self, scale: Scale, seed: u64, k: usize) -> Config {
        self.study(scale, seed.wrapping_add(k as u64 * SUBSTUDY_STRIDE))
    }

    /// The study this workload runs, or whose output it consumes.
    pub fn study(self, scale: Scale, seed: u64) -> Config {
        let deployment = match self {
            Workload::FleetHour | Workload::WhatifMatrix => Deployment::Fleet,
            Workload::WarehouseIngest => Deployment::WarehouseExport,
        };
        Config::new(deployment, scale, seed)
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> WorkDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            Path::new("target/nt-bench/work").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a timed run operates on.
pub enum Input {
    /// A whole study, from its configuration.
    Study(Config),
    /// A policy matrix over a retained fact table.
    Matrix {
        matrix: Matrix,
        trace: Box<TraceSet>,
    },
    /// A warehouse directory written in set-up.
    Warehouse(WorkDir),
}

/// Set-up's product: the input, the digest every run must reproduce,
/// and what the study behind the input left behind.
pub struct Prepared {
    pub input: Input,
    pub reference: u64,
    /// The study the workload runs or consumes (for the serial pass).
    pub study: Config,
    /// Facts of the set-up study; `None` for study workloads, whose
    /// traced pass measures its own run.
    pub setup_facts: Option<StudyFacts>,
}

/// A checked run.
pub struct Outcome {
    pub records: u64,
    pub digest: u64,
    pub facts: Option<StudyFacts>,
    pub profile: RuntimeProfile,
}

/// One execution: wall and CPU time of the call into the program, and
/// the checked outcome (checked after the clock stops).
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub outcome: Result<Outcome, String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Calls `f`, turning a panic into an `Err`: a failed run, not a
/// crashed benchmark.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(p))))
}

/// Times `call`, then checks its result with `check`.
fn timed<R>(
    call: impl FnOnce() -> Result<R, String>,
    check: impl FnOnce(R) -> Result<Outcome, String>,
) -> Result<Timed, String> {
    let cpu0 = resources::cpu_seconds()?;
    let t0 = Instant::now();
    let raw = guarded(call);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = resources::cpu_seconds()? - cpu0;
    Ok(Timed {
        wall_s,
        cpu_s,
        outcome: raw.and_then(|r| guarded(|| check(r))),
    })
}

/// Judges a run's outcome against the reference output: an error, a
/// panic or another digest is a failed run.
pub fn judge(outcome: Result<Outcome, String>, reference: u64) -> Result<Outcome, String> {
    let o = outcome?;
    if o.digest != reference {
        return Err(format!(
            "digest {:016x} differs from the reference {reference:016x}",
            o.digest
        ));
    }
    Ok(o)
}

/// Runs the input's operation once. `config` overrides the study of a
/// study input (the traced pass runs it with the self-profiler on).
pub fn execute(input: &Input, config: Option<&Config>) -> Result<Timed, String> {
    match input {
        Input::Study(own) => {
            let config = config.unwrap_or(own);
            timed(
                || adapter::run_study(config, false, None),
                |out| {
                    let run = out.summarize()?;
                    Ok(Outcome {
                        records: run.records,
                        digest: run.digest,
                        facts: Some(run.facts),
                        profile: run.profile,
                    })
                },
            )
        }
        Input::Matrix { matrix, trace } => {
            let records = adapter::trace_records(trace) * matrix.rows() as u64;
            timed(
                || adapter::run_matrix(matrix, trace),
                |out| {
                    let run = out.summarize();
                    Ok(Outcome {
                        records,
                        digest: run.digest,
                        facts: None,
                        profile: run.profile,
                    })
                },
            )
        }
        Input::Warehouse(dir) => timed(
            || adapter::ingest(dir.path()),
            |out| {
                let run = out.summarize();
                Ok(Outcome {
                    records: run.records,
                    digest: run.summary_digest,
                    facts: None,
                    profile: run.profile,
                })
            },
        ),
    }
}

/// One set-up: prepares the input and runs it once to fix the reference
/// output. With `on_reference` the caller brackets that reference run
/// (the peak-RSS reading).
pub fn prepare(
    workload: Workload,
    study: &Config,
    on_reference: &mut dyn FnMut(bool) -> Result<(), String>,
) -> Result<Prepared, String> {
    let study = study.clone();
    let (input, reference, setup_facts) = match workload {
        Workload::FleetHour => (Input::Study(study.clone()), None, None),
        Workload::WhatifMatrix => {
            let run = adapter::run_study(&study, true, None)?.summarize()?;
            let trace = run
                .trace_set
                .ok_or("a retained run keeps its fact tables")?;
            let matrix = Matrix::standard();
            let trace = Box::new(trace);
            (Input::Matrix { matrix, trace }, None, Some(run.facts))
        }
        Workload::WarehouseIngest => {
            let dir = WorkDir::new(workload.name());
            let run = adapter::run_study(&study, false, Some(dir.path()))?.summarize()?;
            (
                Input::Warehouse(dir),
                Some(run.summary_digest),
                Some(run.facts),
            )
        }
    };
    on_reference(true)?;
    let first = execute(&input, None)?;
    on_reference(false)?;
    let digest = first.outcome.map(|o| o.digest)?;
    // A re-ingest must reproduce the exporting study's summary.
    if let Some(expected) = reference {
        if digest != expected {
            return Err(format!(
                "re-ingest summary {digest:016x} differs from the live study's {expected:016x}"
            ));
        }
    }
    Ok(Prepared {
        input,
        reference: digest,
        study,
        setup_facts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_of_a_study_altered_by_one_seed_is_judged_failed() {
        let study = Workload::FleetHour.study(Scale::Smoke, 3);
        let p = prepare(Workload::FleetHour, &study, &mut |_| Ok(())).expect("set-up");
        let again = execute(&p.input, None).expect("process clocks");
        assert!(judge(again.outcome, p.reference).is_ok());

        let altered = Workload::FleetHour.study(Scale::Smoke, 4);
        let run = execute(&p.input, Some(&altered)).expect("process clocks");
        let Err(err) = judge(run.outcome, p.reference) else {
            panic!("another seed's output passed as the reference");
        };
        assert!(err.contains("differs from the reference"), "{err}");
    }

    #[test]
    fn a_panic_is_a_failed_run() {
        let err = guarded::<()>(|| panic!("volume full")).expect_err("caught");
        assert_eq!(err, "panic: volume full");
    }
}
