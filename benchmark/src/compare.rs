//! `benchmark --compare BASE NEW`: judges a change's results against its
//! parent's, one row per workload and end-to-end metric.
//!
//! Each side is a comma-separated list of result files (suite results or
//! single-workload results). With one file per side, the runs compared
//! are that file's timed runs; with several, each file's median is one
//! run, and the i-th base file pairs with the i-th new file — the shape
//! of ten alternating parent/change invocations.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec;
use crate::stats::{self, Summary, Verdict};

/// Workload name → that workload's result objects, one per file.
type Side = BTreeMap<String, Vec<Json>>;

fn load(list: &str) -> Result<Side, String> {
    let mut side = Side::new();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let entries: Vec<Json> = match doc.get("workloads").and_then(Json::as_obj) {
            Some(m) => m.values().cloned().collect(),
            None => vec![doc],
        };
        for e in entries {
            let name = e
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: result without a workload name"))?
                .to_string();
            side.entry(name).or_default().push(e);
        }
    }
    Ok(side)
}

fn samples(result: &Json, metric: &str) -> Vec<f64> {
    result
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
        .map(|s| s.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// The runs one side contributes for one metric.
fn runs(results: &[Json], metric: &str) -> Vec<f64> {
    match results {
        [one] => samples(one, metric),
        many => many
            .iter()
            .map(|r| stats::median(&samples(r, metric)))
            .filter(|m| m.is_finite())
            .collect(),
    }
}

fn failed_frac(results: &[Json]) -> f64 {
    let (failed, attempted) = results.iter().fold((0.0, 0.0), |(f, a), r| {
        (
            f + r.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            a + r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        )
    });
    if attempted == 0.0 {
        0.0
    } else {
        failed / attempted
    }
}

/// Prints the comparison; `Ok(false)` on any regression or a rise in
/// the share of failed runs.
pub fn run(base: &str, new: &str) -> Result<bool, String> {
    let spec = spec::load();
    let (base, new) = (load(base)?, load(new)?);
    let mut ok = true;
    println!(
        "{:<17} {:<14} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "base", "base [q1, q3]", "new", "new [q1, q3]", "change"
    );
    for (workload, b) in &base {
        let Some(n) = new.get(workload) else {
            println!("{workload:<17} (missing from NEW)");
            ok = false;
            continue;
        };
        for m in &spec.end_to_end {
            let (bruns, nruns) = (runs(b, &m.name), runs(n, &m.name));
            if bruns.is_empty() || nruns.is_empty() {
                println!("{workload:<17} {:<14} (no samples)", m.name);
                ok = false;
                continue;
            }
            let (bs, ns) = (Summary::of(&bruns), Summary::of(&nruns));
            let v = stats::verdict(&bruns, &nruns, m.bound.unwrap_or(0.0), m.better);
            ok &= v != Verdict::Regressed;
            println!(
                "{workload:<17} {:<14} {:>12.6} [{:>11.6}, {:>11.6}] {:>12.6} [{:>11.6}, {:>11.6}] {:>+7.2}%  {}",
                m.name,
                bs.median,
                bs.q1,
                bs.q3,
                ns.median,
                ns.q1,
                ns.q3,
                100.0 * (ns.median - bs.median) / bs.median,
                v.name()
            );
        }
        let (bf, nf) = (failed_frac(b), failed_frac(n));
        let rose = nf > bf;
        ok &= !rose;
        println!(
            "{workload:<17} {:<14} {bf:>12.6} {:>25} {nf:>12.6} {:>25} {:>8}  {}",
            "failed_frac",
            "",
            "",
            "",
            if rose { "regressed" } else { "no worse" }
        );
    }
    Ok(ok)
}
