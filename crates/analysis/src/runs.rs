//! Sequential-run analysis — figures 1 and 2.
//!
//! A sequential run is a maximal stretch of a file read or written
//! sequentially. The paper plots the run-length CDF weighted by the
//! number of files (figure 1: the 80 % mark sits at ≈ 11 KB) and by the
//! bytes transferred (figure 2: most bytes move in long runs).

use crate::cdf::Cdf;
use crate::schema::TraceSet;

/// The four CDFs of figures 1–2. Run lengths in bytes.
pub struct SequentialRuns {
    /// Read runs weighted per run (figure 1).
    pub read_by_files: Cdf,
    /// Write runs weighted per run (figure 1).
    pub write_by_files: Cdf,
    /// Read runs weighted by bytes (figure 2).
    pub read_by_bytes: Cdf,
    /// Write runs weighted by bytes (figure 2).
    pub write_by_bytes: Cdf,
}

/// Collects run lengths from the instance table.
pub fn sequential_runs(ts: &TraceSet) -> SequentialRuns {
    let reads: Vec<u64> = ts
        .instances
        .iter()
        .flat_map(|i| i.read_runs.iter().copied())
        .filter(|&r| r > 0)
        .collect();
    let writes: Vec<u64> = ts
        .instances
        .iter()
        .flat_map(|i| i.write_runs.iter().copied())
        .filter(|&r| r > 0)
        .collect();
    SequentialRuns {
        read_by_files: Cdf::from_samples(reads.iter().map(|&r| r as f64)),
        write_by_files: Cdf::from_samples(writes.iter().map(|&r| r as f64)),
        read_by_bytes: Cdf::from_weighted(reads.iter().map(|&r| (r as f64, r as f64))),
        write_by_bytes: Cdf::from_weighted(writes.iter().map(|&r| (r as f64, r as f64))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn runs_exist_and_byte_weighting_shifts_right() {
        let ts = synthetic_trace_set(400, 11);
        let r = sequential_runs(&ts);
        assert!(r.read_by_files.len() > 20);
        assert!(r.write_by_files.len() > 20);
        let files_median = r.read_by_files.median().unwrap();
        let bytes_median = r.read_by_bytes.median().unwrap();
        assert!(
            bytes_median >= files_median,
            "byte weighting favours long runs: {files_median} vs {bytes_median}"
        );
    }
}
