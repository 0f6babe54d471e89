//! The benchmark's declared contract, compiled in: metric names, units,
//! directions and bounds from the repository's `BENCHMARK.json`, and
//! the reference output digests from `expected.json`.

use crate::json::Json;
use crate::stats::Better;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const EXPECTED_JSON: &str = include_str!("../expected.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by; `None`
    /// for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks '{k}'"))
                    .to_string()
            };
            MetricSpec {
                name: field("name"),
                unit: field("unit"),
                better: Better::parse(&field("better"))
                    .unwrap_or_else(|| panic!("BENCHMARK.json: bad 'better' in {key}")),
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// The compiled-in `BENCHMARK.json`. It is part of the build, so a
/// malformed file is a bug in this repository and panics.
pub fn load() -> Spec {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json has run_seconds") as u64,
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}

/// The seed `expected.json` records digests for.
pub fn expected_seed() -> u64 {
    let doc = Json::parse(EXPECTED_JSON).expect("expected.json parses");
    doc.get("seed")
        .and_then(Json::as_f64)
        .expect("expected.json has a seed") as u64
}

/// The recorded output digest of `workload` at [`expected_seed`] and
/// evaluation scale, if one is recorded.
pub fn expected_digest(workload: &str) -> Option<u64> {
    let doc = Json::parse(EXPECTED_JSON).expect("expected.json parses");
    doc.get("digests")?
        .get(workload)?
        .as_str()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
}
