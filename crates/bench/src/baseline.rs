//! The checked-in bench baseline: flat-JSON parsing and the per-bench
//! regression verdicts behind `NT_BENCH_GATE`.
//!
//! `BENCH_streaming.json` is a flat object of integer fields, written by
//! the streaming harness under `NT_BENCH_WRITE=1`. This module owns the
//! reading half: [`Baseline::parse`] pulls every `"key": N` pair out of
//! the text (no JSON dependency — the file never nests), and
//! [`check_min_ns`] judges a fresh set of measurements against every
//! `*_min_ns` entry, so a regression in *any* bench fails the gate, not
//! just the three ratio-gated ones.

use std::collections::BTreeMap;

/// A parsed baseline file: every integer field, keyed by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    values: BTreeMap<String, u128>,
}

impl Baseline {
    /// Parses the flat `"key": N` fields of the baseline JSON. Non-integer
    /// or malformed fields are skipped — the writer only emits integers,
    /// so anything else is hand-editing damage the gate will then surface
    /// as a missing entry.
    pub fn parse(json: &str) -> Baseline {
        let mut values = BTreeMap::new();
        let mut rest = json;
        while let Some(open) = rest.find('"') {
            rest = &rest[open + 1..];
            let Some(close) = rest.find('"') else { break };
            let key = &rest[..close];
            rest = &rest[close + 1..];
            let after = rest.trim_start();
            if let Some(num) = after.strip_prefix(':') {
                let num = num.trim_start();
                let end = num.find(|c: char| !c.is_ascii_digit()).unwrap_or(num.len());
                if end > 0 {
                    if let Ok(v) = num[..end].parse() {
                        values.insert(key.to_string(), v);
                    }
                }
            }
        }
        Baseline { values }
    }

    /// The raw integer for one field.
    pub fn get(&self, key: &str) -> Option<u128> {
        self.values.get(key).copied()
    }

    /// The `NT_BENCH_ITERS` the whole baseline was recorded at.
    pub fn iterations(&self) -> Option<u32> {
        self.get("iterations").map(|v| v as u32)
    }

    /// The iteration count one bench entry was recorded at: its own
    /// `{name}_iters` field when present, else the file-wide count.
    /// Baselines predating per-entry counts fall back to the global one.
    pub(crate) fn iters_for(&self, name: &str) -> Option<u32> {
        self.get(&format!("{name}_iters"))
            .map(|v| v as u32)
            .or_else(|| self.iterations())
    }

    /// Every bench with a recorded `*_min_ns` floor, suffix stripped.
    pub(crate) fn min_ns_benches(&self) -> impl Iterator<Item = (&str, u128)> {
        self.values
            .iter()
            .filter_map(|(k, &v)| Some((k.strip_suffix("_min_ns")?, v)))
    }

    /// True when the file parsed to nothing — wrong path or clobbered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The gate's judgement of one bench against its baseline floor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the recorded floor (or faster).
    Ok,
    /// Slower than the floor by more than the tolerance.
    Regressed,
    /// In the baseline but not measured this run — a renamed or deleted
    /// bench. The stale entry would otherwise rot unchecked.
    MissingCurrent,
    /// Measured this run but absent from the baseline — a new bench that
    /// was never recorded. Regenerate so it is gated from now on.
    MissingBaseline,
    /// Recorded at a different `NT_BENCH_ITERS` than this run: the floors
    /// are not comparable (fewer iterations → noisier minima), so the
    /// gate refuses to judge rather than pass or fail on noise.
    ItersMismatch,
}

/// One row of the full-baseline gate report.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCheck {
    /// Bench name (the `*_min_ns` key without its suffix).
    pub name: String,
    /// The checked-in floor, when the baseline has one.
    pub baseline_min_ns: Option<u128>,
    /// This run's floor, when the bench ran.
    pub current_min_ns: Option<u128>,
    /// Slowdown in percent vs the floor (negative = faster); only
    /// meaningful when both measurements exist.
    pub delta_pct: f64,
    pub verdict: Verdict,
}

impl BenchCheck {
    /// True when this row should fail the gate.
    pub fn failed(&self) -> bool {
        self.verdict != Verdict::Ok
    }
}

/// Judges every `*_min_ns` entry of the baseline against the current
/// measurements `(name, min_ns, iters)`, and every current measurement
/// against the baseline, at `tolerance_pct` percent slowdown budget.
///
/// `covered_elsewhere` names baseline entries judged by another gate
/// (the ratio gates re-measure their own `gate_*` pairs); they are
/// exempt from the raw comparison but still checked for staleness —
/// an exempt name with no consumer would silently rot.
pub fn check_min_ns(
    baseline: &Baseline,
    current: &[(String, u128, u32)],
    covered_elsewhere: &[&str],
    tolerance_pct: f64,
) -> Vec<BenchCheck> {
    let current_iters = |name: &str| current.iter().find(|(n, _, _)| n == name);
    let mut checks = Vec::new();
    for (name, base_min) in baseline.min_ns_benches() {
        if covered_elsewhere.contains(&name) {
            continue;
        }
        let check = match current_iters(name) {
            None => BenchCheck {
                name: name.to_string(),
                baseline_min_ns: Some(base_min),
                current_min_ns: None,
                delta_pct: 0.0,
                verdict: Verdict::MissingCurrent,
            },
            Some(&(_, cur_min, iters)) => {
                let recorded_iters = baseline.iters_for(name);
                let delta_pct =
                    100.0 * (cur_min as f64 - base_min as f64) / (base_min as f64).max(1.0);
                let verdict = if recorded_iters != Some(iters) {
                    Verdict::ItersMismatch
                } else if delta_pct > tolerance_pct {
                    Verdict::Regressed
                } else {
                    Verdict::Ok
                };
                BenchCheck {
                    name: name.to_string(),
                    baseline_min_ns: Some(base_min),
                    current_min_ns: Some(cur_min),
                    delta_pct,
                    verdict,
                }
            }
        };
        checks.push(check);
    }
    for (name, cur_min, _) in current {
        if baseline.get(&format!("{name}_min_ns")).is_none() {
            checks.push(BenchCheck {
                name: name.clone(),
                baseline_min_ns: None,
                current_min_ns: Some(*cur_min),
                delta_pct: 0.0,
                verdict: Verdict::MissingBaseline,
            });
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "iterations": 2,
  "fast_bench_ns_per_iter": 120,
  "fast_bench_min_ns": 100,
  "fast_bench_iters": 2,
  "fast_bench_elements": 10,
  "slow_bench_min_ns": 1000,
  "slow_bench_iters": 2,
  "gate_reference_min_ns": 555,
  "smoke_total_records": 6410
}"#;

    #[test]
    fn parses_flat_integer_fields() {
        let b = Baseline::parse(SAMPLE);
        assert!(!b.is_empty());
        assert_eq!(b.get("iterations"), Some(2));
        assert_eq!(b.get("fast_bench_min_ns"), Some(100));
        assert_eq!(b.get("smoke_total_records"), Some(6410));
        assert_eq!(b.get("absent"), None);
        assert_eq!(b.iterations(), Some(2));
        assert!(Baseline::parse("not json at all").is_empty());
    }

    #[test]
    fn per_entry_iters_fall_back_to_global() {
        let b = Baseline::parse(SAMPLE);
        assert_eq!(b.iters_for("fast_bench"), Some(2));
        // gate_reference has no _iters field → global count.
        assert_eq!(b.iters_for("gate_reference"), Some(2));
        let no_global = Baseline::parse(r#"{"x_min_ns": 5}"#);
        assert_eq!(no_global.iters_for("x"), None);
    }

    #[test]
    fn min_ns_benches_strips_suffix() {
        let b = Baseline::parse(SAMPLE);
        let names: Vec<&str> = b.min_ns_benches().map(|(n, _)| n).collect();
        assert_eq!(names, ["fast_bench", "gate_reference", "slow_bench"]);
    }

    #[test]
    fn within_tolerance_passes_and_regression_fails() {
        let b = Baseline::parse(SAMPLE);
        let current = vec![
            ("fast_bench".to_string(), 104u128, 2u32), // +4% < 5% budget
            ("slow_bench".to_string(), 1200, 2),       // +20% > 5% budget
        ];
        let checks = check_min_ns(&b, &current, &["gate_reference"], 5.0);
        assert_eq!(checks.len(), 2);
        let fast = checks.iter().find(|c| c.name == "fast_bench").unwrap();
        assert_eq!(fast.verdict, Verdict::Ok);
        assert!(!fast.failed());
        assert!((fast.delta_pct - 4.0).abs() < 1e-9);
        let slow = checks.iter().find(|c| c.name == "slow_bench").unwrap();
        assert_eq!(slow.verdict, Verdict::Regressed);
        assert!(slow.failed());
    }

    #[test]
    fn improvement_is_never_a_failure() {
        let b = Baseline::parse(SAMPLE);
        let current = vec![
            ("fast_bench".to_string(), 40u128, 2u32),
            ("slow_bench".to_string(), 1000, 2),
        ];
        let checks = check_min_ns(&b, &current, &["gate_reference"], 5.0);
        assert!(checks.iter().all(|c| c.verdict == Verdict::Ok));
        assert!(checks.iter().any(|c| c.delta_pct < -50.0));
    }

    #[test]
    fn stale_and_new_benches_both_fail() {
        let b = Baseline::parse(SAMPLE);
        // slow_bench not measured; brand_new not recorded.
        let current = vec![
            ("fast_bench".to_string(), 100u128, 2u32),
            ("brand_new".to_string(), 7, 2),
        ];
        let checks = check_min_ns(&b, &current, &["gate_reference"], 5.0);
        let stale = checks.iter().find(|c| c.name == "slow_bench").unwrap();
        assert_eq!(stale.verdict, Verdict::MissingCurrent);
        let fresh = checks.iter().find(|c| c.name == "brand_new").unwrap();
        assert_eq!(fresh.verdict, Verdict::MissingBaseline);
        assert!(checks.iter().filter(|c| c.failed()).count() == 2);
    }

    #[test]
    fn mismatched_iters_refuse_to_gate() {
        let b = Baseline::parse(SAMPLE);
        // Recorded at 2 iterations, run at 1 → not comparable.
        let current = vec![
            ("fast_bench".to_string(), 100u128, 1u32),
            ("slow_bench".to_string(), 1000, 1),
        ];
        let checks = check_min_ns(&b, &current, &["gate_reference"], 5.0);
        assert!(checks.iter().all(|c| c.verdict == Verdict::ItersMismatch));
        assert!(checks.iter().all(|c| c.failed()));
    }
}
