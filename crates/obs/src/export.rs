//! Fleet aggregation and the `timeseries.jsonl` artefact.
//!
//! One line per (scope, series): fleet-wide sums first, then
//! per-category sums, then each machine's own rings. Samples are taken
//! on a shared simulated cadence (every machine samples at the same
//! multiples of the interval), so summing values at equal tick stamps is
//! exact, not an interpolation.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::series::{SeriesData, SeriesKind};
use crate::MachineTelemetry;

/// Why an artefact export failed. Every exporter in this crate (the
/// time-series JSONL, the Chrome shipment trace, the flight-recorder
/// dump) reports failure through this type instead of panicking or
/// silently clobbering whatever sat at the target path.
#[derive(Debug)]
pub enum ExportError {
    /// A path component that must be a directory exists but is not one
    /// (e.g. a regular file sitting where the artefact directory should
    /// be). Nothing is overwritten.
    NotADirectory {
        /// The offending pre-existing non-directory path.
        path: PathBuf,
    },
    /// An underlying I/O failure (permission, disk full, ...).
    Io {
        /// The path being written or created.
        path: PathBuf,
        /// The originating error.
        source: io::Error,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::NotADirectory { path } => {
                write!(
                    f,
                    "export path component {} exists and is not a directory",
                    path.display()
                )
            }
            ExportError::Io { path, source } => {
                write!(f, "export to {} failed: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExportError::NotADirectory { .. } => None,
            ExportError::Io { source, .. } => Some(source),
        }
    }
}

/// Ensures `path`'s parent chain exists as directories, refusing with a
/// typed error when a pre-existing non-directory blocks the way.
pub(crate) fn ensure_parent_dir(path: &Path) -> Result<(), ExportError> {
    let Some(parent) = path.parent() else {
        return Ok(());
    };
    if parent.as_os_str().is_empty() {
        return Ok(());
    }
    // Name the offending ancestor precisely: `create_dir_all` would fold
    // "a file is in the way" into an opaque io::Error.
    for ancestor in parent.ancestors() {
        if let Ok(meta) = fs::metadata(ancestor) {
            if !meta.is_dir() {
                return Err(ExportError::NotADirectory {
                    path: ancestor.to_path_buf(),
                });
            }
            break;
        }
    }
    fs::create_dir_all(parent).map_err(|source| ExportError::Io {
        path: parent.to_path_buf(),
        source,
    })
}

/// Opens `path` for writing after validating the parent chain. Refuses
/// to touch a pre-existing directory at `path` itself.
pub(crate) fn create_export_file(path: &Path) -> Result<io::BufWriter<fs::File>, ExportError> {
    ensure_parent_dir(path)?;
    if let Ok(meta) = fs::metadata(path) {
        if meta.is_dir() {
            return Err(ExportError::NotADirectory {
                path: path.to_path_buf(),
            });
        }
    }
    let file = fs::File::create(path).map_err(|source| ExportError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    Ok(io::BufWriter::new(file))
}

/// One exported line: a series under a scope (`fleet`,
/// `category:<name>` or `machine:<id>`).
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesRow {
    /// Aggregation scope.
    pub scope: String,
    /// The (possibly summed) series.
    pub series: SeriesData,
}

/// Sums series across machines at aligned tick stamps. `machines` pairs
/// each machine id with its §2 usage-category label and telemetry
/// snapshot; rows come back fleet-first, categories next, machines last.
pub fn fleet_rows(machines: &[(u32, &str, &MachineTelemetry)]) -> Vec<SeriesRow> {
    let mut rows = Vec::new();
    rows.extend(sum_scope("fleet", machines.iter().map(|&(_, _, t)| t)));
    let mut categories: Vec<&str> = machines.iter().map(|&(_, c, _)| c).collect();
    categories.sort_unstable();
    categories.dedup();
    for cat in categories {
        rows.extend(sum_scope(
            &format!("category:{cat}"),
            machines
                .iter()
                .filter(|&&(_, c, _)| c == cat)
                .map(|&(_, _, t)| t),
        ));
    }
    for &(id, _, telemetry) in machines {
        for series in &telemetry.series {
            rows.push(SeriesRow {
                scope: format!("machine:{id}"),
                series: series.clone(),
            });
        }
    }
    rows
}

/// [`fleet_rows`] for a sharded deployment: each machine additionally
/// carries the index of the shard collector it shipped through, and the
/// output gains `shard:<k>` scopes between the category and machine
/// rows — fleet first, categories next, shards in ascending index,
/// machines last. Per-shard sums let an operator see which collector
/// tier a fleet-level anomaly rolls up from.
pub fn sharded_rows(machines: &[(u32, &str, usize, &MachineTelemetry)]) -> Vec<SeriesRow> {
    let flat: Vec<(u32, &str, &MachineTelemetry)> = machines
        .iter()
        .map(|&(id, cat, _, t)| (id, cat, t))
        .collect();
    let mut rows = fleet_rows(&flat);
    // Splice the shard scopes in before the per-machine rows.
    let machine_rows = rows
        .iter()
        .position(|r| r.scope.starts_with("machine:"))
        .unwrap_or(rows.len());
    let mut shards: Vec<usize> = machines.iter().map(|&(_, _, s, _)| s).collect();
    shards.sort_unstable();
    shards.dedup();
    let mut shard_rows = Vec::new();
    for shard in shards {
        shard_rows.extend(sum_scope(
            &format!("shard:{shard}"),
            machines
                .iter()
                .filter(|&&(_, _, s, _)| s == shard)
                .map(|&(_, _, _, t)| t),
        ));
    }
    rows.splice(machine_rows..machine_rows, shard_rows);
    rows
}

/// Sums one group of machines into per-series rows under `scope`.
fn sum_scope<'a>(scope: &str, group: impl Iterator<Item = &'a MachineTelemetry>) -> Vec<SeriesRow> {
    // Preserve first-seen series order; the per-name maps keep stamps
    // sorted so summed points come out in time order.
    let mut order: Vec<(String, SeriesKind)> = Vec::new();
    let mut sums: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
    let mut dropped: BTreeMap<String, u64> = BTreeMap::new();
    for telemetry in group {
        for series in &telemetry.series {
            if !order.iter().any(|(n, _)| n == &series.name) {
                order.push((series.name.clone(), series.kind));
            }
            let points = sums.entry(series.name.clone()).or_default();
            for &(t, v) in &series.points {
                *points.entry(t).or_insert(0.0) += v;
            }
            *dropped.entry(series.name.clone()).or_default() += series.dropped;
        }
    }
    order
        .into_iter()
        .map(|(name, kind)| SeriesRow {
            scope: scope.to_string(),
            series: SeriesData {
                points: sums.remove(&name).unwrap_or_default().into_iter().collect(),
                dropped: dropped.remove(&name).unwrap_or_default(),
                name,
                kind,
            },
        })
        .collect()
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one row as a JSONL line (no trailing newline).
pub(crate) fn row_to_json(row: &SeriesRow) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(64 + row.series.points.len() * 16);
    line.push_str("{\"series\":");
    push_json_string(&mut line, &row.series.name);
    line.push_str(",\"scope\":");
    push_json_string(&mut line, &row.scope);
    let _ = write!(
        line,
        ",\"kind\":\"{}\",\"dropped\":{},\"points\":[",
        row.series.kind.name(),
        row.series.dropped
    );
    for (i, &(t, v)) in row.series.points.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(line, "[{t},{v}]");
    }
    line.push_str("]}");
    line
}

/// Writes the rows to `path` as JSONL, creating parent directories.
/// Refuses (typed, nothing clobbered) when a pre-existing non-directory
/// blocks the parent chain or squats on `path` itself.
pub fn write_timeseries_jsonl(path: &Path, rows: &[SeriesRow]) -> Result<(), ExportError> {
    let mut out = create_export_file(path)?;
    let io_err = |source| ExportError::Io {
        path: path.to_path_buf(),
        source,
    };
    for row in rows {
        writeln!(out, "{}", row_to_json(row)).map_err(io_err)?;
    }
    out.flush().map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeProfile;

    fn machine(id: u32, points: &[(u64, f64)]) -> MachineTelemetry {
        MachineTelemetry {
            machine: id,
            profile: RuntimeProfile::default(),
            series: vec![SeriesData {
                name: "cache.resident_bytes".into(),
                kind: SeriesKind::Gauge,
                points: points.to_vec(),
                dropped: 0,
            }],
            spans_logged: 0,
            log_write_failures: 0,
        }
    }

    #[test]
    fn fleet_rows_sum_aligned_stamps() {
        let a = machine(0, &[(10, 1.0), (20, 2.0)]);
        let b = machine(1, &[(10, 5.0), (30, 7.0)]);
        let rows = fleet_rows(&[(0, "Pool", &a), (1, "Personal", &b)]);
        let fleet = rows.iter().find(|r| r.scope == "fleet").unwrap();
        assert_eq!(fleet.series.points, vec![(10, 6.0), (20, 2.0), (30, 7.0)]);
        assert!(rows.iter().any(|r| r.scope == "category:Pool"));
        assert!(rows.iter().any(|r| r.scope == "machine:1"));
        // fleet + 2 categories + 2 machines, one series each.
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn sharded_rows_splice_shard_scopes_before_machines() {
        let a = machine(0, &[(10, 1.0), (20, 2.0)]);
        let b = machine(1, &[(10, 5.0)]);
        let c = machine(2, &[(20, 4.0)]);
        let rows = sharded_rows(&[
            (0, "Pool", 0, &a),
            (1, "Pool", 0, &b),
            (2, "Personal", 1, &c),
        ]);
        let scopes: Vec<&str> = rows.iter().map(|r| r.scope.as_str()).collect();
        assert_eq!(
            scopes,
            vec![
                "fleet",
                "category:Personal",
                "category:Pool",
                "shard:0",
                "shard:1",
                "machine:0",
                "machine:1",
                "machine:2",
            ]
        );
        let shard0 = rows.iter().find(|r| r.scope == "shard:0").unwrap();
        assert_eq!(shard0.series.points, vec![(10, 6.0), (20, 2.0)]);
        let fleet = rows.iter().find(|r| r.scope == "fleet").unwrap();
        assert_eq!(fleet.series.points, vec![(10, 6.0), (20, 6.0)]);
    }

    #[test]
    fn json_lines_are_wellformed() {
        let row = SeriesRow {
            scope: "fleet".into(),
            series: SeriesData {
                name: "io.ops".into(),
                kind: SeriesKind::Counter,
                points: vec![(300000000, 12.0)],
                dropped: 3,
            },
        };
        let line = row_to_json(&row);
        assert_eq!(
            line,
            "{\"series\":\"io.ops\",\"scope\":\"fleet\",\"kind\":\"counter\",\"dropped\":3,\"points\":[[300000000,12]]}"
        );
    }

    #[test]
    fn writer_emits_one_line_per_row() {
        let dir = std::env::temp_dir().join(format!("nt-obs-export-{}", std::process::id()));
        let path = dir.join("timeseries.jsonl");
        let a = machine(0, &[(10, 1.0)]);
        let rows = fleet_rows(&[(0, "Scientific", &a)]);
        write_timeseries_jsonl(&path, &rows).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), rows.len());
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_creates_missing_parent_directories() {
        let dir = std::env::temp_dir().join(format!("nt-obs-export-deep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("a/b/c/timeseries.jsonl");
        write_timeseries_jsonl(&path, &[]).unwrap();
        assert!(path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_refuses_file_squatting_on_parent_path() {
        let dir = std::env::temp_dir().join(format!("nt-obs-export-squat-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A regular file where the artefact directory should be.
        let squatter = dir.join("artefacts");
        fs::write(&squatter, b"not a directory").unwrap();
        let path = squatter.join("timeseries.jsonl");
        let err = write_timeseries_jsonl(&path, &[]).unwrap_err();
        match err {
            ExportError::NotADirectory { path } => assert_eq!(path, squatter),
            other => panic!("expected NotADirectory, got {other:?}"),
        }
        // The squatter is untouched — nothing silently overwritten.
        assert_eq!(fs::read(&squatter).unwrap(), b"not a directory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_refuses_directory_squatting_on_target_path() {
        let dir = std::env::temp_dir().join(format!("nt-obs-export-dsq-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("timeseries.jsonl");
        fs::create_dir_all(&path).unwrap();
        let err = write_timeseries_jsonl(&path, &[]).unwrap_err();
        assert!(matches!(err, ExportError::NotADirectory { .. }));
        assert!(path.is_dir(), "the pre-existing directory survives");
        let _ = fs::remove_dir_all(&dir);
    }
}
