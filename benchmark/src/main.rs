//! The repository benchmark: three workloads over the study, its what-if
//! replay and its warehouse re-ingest, end-to-end metrics with tracing
//! off, and per-layer metrics from a traced pass.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--quick] [--out PATH]
//!     every workload, each in its own child process; writes the
//!     combined results (default target/nt-bench/results.json)
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out PATH]
//!     one workload in this process; the last line of standard output
//!     is one JSON object {correct, attempted, failed, metrics}
//! benchmark --compare BASE[,BASE...] NEW[,NEW...]
//!     judges NEW results against BASE results, metric by metric
//! ```
//!
//! Paths are relative to the working directory, which is the root of a
//! repository checkout.

mod adapter;
mod calibration;
mod compare;
mod json;
mod layers;
mod resources;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use adapter::Scale;
use calibration::Calibration;
use json::Json;
use spans::Tracer;
use stats::Summary;
use workloads::{execute, guarded, judge, prepare, Prepared, Workload};

/// Studies, and so set-ups, per invocation; `setup_s` is the median of
/// the set-ups.
const SETUPS: usize = 3;

/// Timed rounds an invocation makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// Timed rounds per workload under `--quick`, of one study.
const QUICK_ROUNDS: usize = 2;

const OUT_DIR: &str = "target/nt-bench";

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--quick] [--out PATH]\n       benchmark --compare BASE[,BASE...] NEW[,NEW...]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        compare: None,
    };
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&arg, &mut it)?;
                a.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => a.seed = parse_num(&value(&arg, &mut it)?, &arg)?,
            "--seconds" => a.seconds = Some(parse_num(&value(&arg, &mut it)?, &arg)?),
            "--trace" => {
                a.trace = match value(&arg, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value(&arg, &mut it)?)),
            "--compare" => {
                let base = value(&arg, &mut it)?;
                a.compare = Some((base, value(&arg, &mut it)?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn parse_num(s: &str, flag: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{flag} takes a whole number, not {s}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.compare, args.workload) {
        (Some((base, new)), _) => compare::run(base, new),
        (None, Some(w)) => run_one(w, &args),
        (None, None) => run_suite(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Samples of one end-to-end metric.
struct Series {
    unit: &'static str,
    samples: Vec<f64>,
}

fn series_json(s: &Series) -> Json {
    let sum = Summary::of(&s.samples);
    let tail = stats::tail(&s.samples).map_or(Json::Null, |(level, value)| {
        Json::obj([("level", Json::Num(level)), ("value", Json::Num(value))])
    });
    Json::obj([
        ("unit", Json::from(s.unit)),
        (
            "samples",
            Json::Arr(s.samples.iter().map(|&x| Json::Num(x)).collect()),
        ),
        ("median", Json::Num(sum.median)),
        ("q1", Json::Num(sum.q1)),
        ("q3", Json::Num(sum.q3)),
        ("n", Json::Num(sum.n as f64)),
        ("tail", tail),
    ])
}

/// Runs one workload in this process: set-ups, timed rounds, and (with
/// `--trace 1`) the traced pass.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let spec = spec::load();
    let seconds = args.seconds.unwrap_or(spec.run_seconds) as f64;
    let scale = if args.quick {
        Scale::Smoke
    } else {
        Scale::Evaluation
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut notes: Vec<String> = Vec::new();

    // Set-up, once per study the invocation measures (the seed's own
    // and two more; see `Workload::substudy`). Each one ends with a
    // warm-up run that fixes that study's reference output, so work a
    // change moves out of the timed runs into first-run initialization
    // shows here. The first set-up also resets and reads the peak RSS
    // around its warm-up run, the process's first run of the operation.
    // Every set-up and every timed run is bracketed by the calibration
    // kernel and rescaled to reference seconds.
    let setups = if args.quick { 1 } else { SETUPS };
    let mut kernel = Calibration::new();
    let mut kernel_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut peak_rss = Vec::new();
    let mut prepared: Vec<Prepared> = Vec::new();
    for k in 0..setups {
        let study = workload.substudy(scale, args.seed, k);
        let before = kernel.measure();
        let t0 = Instant::now();
        let mut bracket = |start: bool| -> Result<(), String> {
            match (k, start) {
                (0, true) => resources::reset_peak_rss(),
                (0, false) => resources::peak_rss_mib().map(|m| peak_rss.push(m)),
                _ => Ok(()),
            }
        };
        attempted += 1;
        match guarded(|| prepare(workload, &study, &mut bracket)) {
            Ok(p) => {
                let elapsed = t0.elapsed().as_secs_f64();
                let after = kernel.measure();
                setup_s.push(elapsed * calibration::to_reference(before, after));
                prepared.push(p);
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("set-up of study {k} failed: {e}"));
                break;
            }
        }
    }

    // Host seconds of the first study's runs, for the traced pass's
    // ratios, and reference seconds of whole rounds.
    let mut host_wall = Vec::new();
    let mut host_cpu = Vec::new();
    let mut wall = Vec::new();
    let mut rate = Vec::new();
    let mut cpu_per_record = Vec::new();
    let mut per_layer: Vec<layers::Reading> = Vec::new();
    let mut tracer = Tracer::new();
    // Every run reproduced its reference, so a wrong reference fails
    // them all.
    let mut wrong_output = false;
    if prepared.len() == setups {
        let p = &prepared[0];
        if !args.quick && args.seed == spec::expected_seed() {
            if let Some(want) = spec::expected_digest(workload.name()) {
                wrong_output = want != p.reference;
                if wrong_output {
                    notes.push(format!(
                        "output digest {:016x} differs from expected.json's {want:016x}",
                        p.reference
                    ));
                }
            }
        }
        // Timed rounds: one run of every study in turn. A round's sample
        // pools its runs, so it weighs the studies alike and one seed's
        // per-record cost does not stand for the invocation's.
        let start = Instant::now();
        let mut round = 0;
        let mut before = kernel.measure();
        while if args.quick {
            round < QUICK_ROUNDS
        } else {
            round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds
        } {
            let (mut round_wall, mut round_cpu, mut round_records) = (0.0, 0.0, 0.0);
            let mut round_ok = true;
            for (k, study) in prepared.iter().enumerate() {
                let run = execute(&study.input, None)?;
                let after = kernel.measure();
                attempted += 1;
                match judge(run.outcome, study.reference) {
                    Ok(o) => {
                        let scale = calibration::to_reference(before, after);
                        if k == 0 {
                            host_wall.push(run.wall_s);
                            host_cpu.push(run.cpu_s);
                        }
                        kernel_ms.push(500.0 * (before + after));
                        round_wall += run.wall_s * scale;
                        round_cpu += run.cpu_s * scale;
                        round_records += o.records as f64;
                    }
                    Err(e) => {
                        failed += 1;
                        round_ok = false;
                        notes.push(format!("round {round}, study {k} failed: {e}"));
                    }
                }
                before = after;
            }
            if round_ok {
                wall.push(round_wall);
                rate.push(round_records / round_wall);
                cpu_per_record.push(round_cpu * 1e9 / round_records);
            }
            round += 1;
        }
        if args.trace {
            attempted += 1;
            let timed = layers::Untraced {
                wall_s: stats::median(&host_wall),
                cpu_s: stats::median(&host_cpu),
            };
            match layers::traced_pass(p, &timed, &mut tracer) {
                Ok(r) => per_layer = r,
                Err(e) => {
                    failed += 1;
                    notes.push(format!("traced pass failed: {e}"));
                }
            }
            let path = Path::new(OUT_DIR).join(format!("{}.spans.jsonl", workload.name()));
            write_file(&path, &tracer.to_jsonl())?;
        }
    }
    let digests: Vec<Json> = prepared
        .iter()
        .map(|p| Json::Str(format!("{:016x}", p.reference)))
        .collect();
    drop(prepared);
    if wrong_output {
        failed = attempted;
    }

    let e2e: BTreeMap<&str, Series> = [
        ("setup_s", "s", setup_s),
        ("wall_s", "s", wall),
        ("records_per_s", "records/s", rate),
        ("cpu_ns_per_record", "ns", cpu_per_record),
        ("peak_rss_mb", "MiB", peak_rss),
        ("kernel_ms", "ms", kernel_ms),
    ]
    .into_iter()
    .map(|(name, unit, samples)| (name, Series { unit, samples }))
    .collect();
    let failed_frac = failed as f64 / attempted as f64;

    // Lock-step with BENCHMARK.json: emit exactly the declared metrics,
    // in the declared units.
    let mut correct = failed == 0 && notes.is_empty();
    let mut declared = |list: &[spec::MetricSpec],
                        unit_of: &dyn Fn(&str) -> Option<(f64, &str)>| {
        let mut m = BTreeMap::new();
        for d in list {
            match unit_of(&d.name) {
                Some((value, unit)) if unit == d.unit && value.is_finite() => {
                    m.insert(
                        d.name.clone(),
                        Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
                    );
                }
                Some((value, unit)) => {
                    correct = false;
                    notes.push(format!(
                        "{} = {value} {unit} (declared unit {})",
                        d.name, d.unit
                    ));
                }
                None => {
                    correct = false;
                    notes.push(format!("{} was not measured", d.name));
                }
            }
        }
        m
    };
    let e2e_out = declared(&spec.end_to_end, &|name| {
        e2e.get(name)
            .map(|s| (Summary::of(&s.samples).median, s.unit))
    });
    let layer_out = if args.trace {
        declared(&spec.per_layer, &|name| {
            per_layer.iter().find(|r| r.0 == name).map(|r| (r.1, r.2))
        })
    } else {
        BTreeMap::new()
    };
    for r in &per_layer {
        if !spec.per_layer.iter().any(|d| d.name == r.0) {
            correct = false;
            notes.push(format!("{} is measured but not declared", r.0));
        }
    }

    // Human-readable report.
    println!(
        "{} seed {}{}: {attempted} attempted, {failed} failed",
        workload.name(),
        args.seed,
        if args.quick { " (quick)" } else { "" }
    );
    for (name, s) in &e2e {
        let sum = Summary::of(&s.samples);
        println!(
            "  {name:<32} {:>14.6} {:<10} q1 {:.6} q3 {:.6} n {}",
            sum.median, s.unit, sum.q1, sum.q3, sum.n
        );
    }
    println!("  {:<32} {:>14.6} share", "failed_frac", failed_frac);
    for (name, value, unit) in &per_layer {
        println!("  {name:<32} {value:>14.6} {unit}");
    }
    for n in &notes {
        eprintln!("{}: {n}", workload.name());
    }

    let detail = Json::obj([
        ("workload", Json::from(workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("failed_frac", Json::Num(failed_frac)),
        ("digests", Json::Arr(digests)),
        (
            "end_to_end",
            Json::obj(e2e.iter().map(|(k, s)| (*k, series_json(s)))),
        ),
        ("per_layer", Json::Obj(layer_out.clone())),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{}.json", workload.name())));
    write_file(&out, &detail.to_string())?;

    let metrics = if args.trace { layer_out } else { e2e_out };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(correct)
}

/// Runs every workload in its own child process, with the traced pass,
/// and writes the combined results.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = BTreeMap::new();
    let mut ok = true;
    for w in Workload::ALL {
        let detail = Path::new(OUT_DIR).join(format!("{}.json", w.name()));
        let _ = std::fs::remove_file(&detail);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--trace", "1"])
            .args(["--seed", &args.seed.to_string()])
            .arg("--out")
            .arg(&detail);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().map_err(|e| format!("spawning {w:?}: {e}"))?;
        ok &= status.success();
        let text = std::fs::read_to_string(&detail)
            .map_err(|e| format!("{} wrote no results: {e}", w.name()))?;
        results.insert(w.name().to_string(), Json::parse(&text)?);
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::Obj(results)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    write_file(&out, &doc.to_string())?;
    println!("results written to {}", out.display());
    Ok(ok)
}
