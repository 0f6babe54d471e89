//! File-system content analysis over snapshots — §5 of the paper.

use std::collections::HashMap;

use nt_trace::{Snapshot, SnapshotDiff};

use crate::cdf::Cdf;

/// Content characteristics of one snapshot.
#[derive(Clone, Debug)]
pub struct ContentStats {
    /// Number of files.
    pub files: usize,
    /// Number of directories.
    pub directories: usize,
    /// Total file bytes.
    pub total_bytes: u64,
    /// File-size CDF (bytes).
    pub size_cdf: Cdf,
    /// Bytes per extension, descending, ties by extension.
    pub bytes_by_extension: Vec<(String, u64)>,
    /// Fraction of total bytes held by executables, DLLs and fonts
    /// (§5: these dominate local volumes).
    pub exe_dll_font_byte_fraction: f64,
    /// Fraction of files under `\winnt\profiles` (§5: 87–99 % of local
    /// *user* files; over all files the share is smaller).
    pub profile_file_fraction: f64,
    /// Files in the WWW cache.
    pub web_cache_files: usize,
    /// Bytes in the WWW cache (§5: 5–45 MB).
    pub web_cache_bytes: u64,
    /// §5's timestamp-inconsistency fraction (2–4 %).
    pub inconsistent_time_fraction: f64,
}

const PROFILE_PREFIX: &str = r"\winnt\profiles";
const WEB_CACHE_MARK: &str = "temporary internet files";

fn is_exe_dll_font(ext: Option<&str>) -> bool {
    matches!(
        ext,
        Some("exe" | "com" | "scr" | "dll" | "ocx" | "drv" | "cpl" | "sys" | "ttf" | "fon" | "ttc")
    )
}

/// Analyses one snapshot.
pub fn content_stats(snap: &Snapshot) -> ContentStats {
    let files: Vec<_> = snap.records.iter().filter(|r| !r.is_dir).collect();
    let total_bytes: u64 = files.iter().map(|r| r.size).sum();
    let mut by_ext: HashMap<String, u64> = HashMap::new();
    let mut special = 0u64;
    let mut profile_files = 0usize;
    let mut web_files = 0usize;
    let mut web_bytes = 0u64;
    for r in &files {
        let ext = r.extension().map(|e| e.to_string());
        *by_ext.entry(ext.clone().unwrap_or_default()).or_default() += r.size;
        if is_exe_dll_font(ext.as_deref()) {
            special += r.size;
        }
        if r.path.starts_with(PROFILE_PREFIX) {
            profile_files += 1;
        }
        if r.path.contains(WEB_CACHE_MARK) {
            web_files += 1;
            web_bytes += r.size;
        }
    }
    let mut bytes_by_extension: Vec<(String, u64)> = by_ext.into_iter().collect();
    bytes_by_extension.sort_by(|(ea, ba), (eb, bb)| bb.cmp(ba).then_with(|| ea.cmp(eb)));
    ContentStats {
        files: files.len(),
        directories: snap.dir_count(),
        total_bytes,
        size_cdf: Cdf::from_samples(files.iter().map(|r| r.size.max(1) as f64)),
        bytes_by_extension,
        exe_dll_font_byte_fraction: if total_bytes == 0 {
            0.0
        } else {
            special as f64 / total_bytes as f64
        },
        profile_file_fraction: if files.is_empty() {
            0.0
        } else {
            profile_files as f64 / files.len() as f64
        },
        web_cache_files: web_files,
        web_cache_bytes: web_bytes,
        inconsistent_time_fraction: snap.inconsistent_time_fraction(),
    }
}

/// Daily churn between consecutive snapshots (§5: a common pattern is
/// 300–500 files changed/added per day, up to 93 % in the WWW cache).
#[derive(Clone, Debug)]
pub struct ChurnStats {
    /// Files added or changed.
    pub churn: usize,
    /// Files removed.
    pub removed: usize,
    /// Fraction of the churn under the profile tree (§5: ≈ 94 % of
    /// content changes).
    pub profile_fraction: f64,
    /// Fraction of the churn inside the WWW cache.
    pub web_cache_fraction: f64,
}

/// Computes churn between two snapshots of the same volume.
pub fn churn_stats(older: &Snapshot, newer: &Snapshot) -> ChurnStats {
    let diff = SnapshotDiff::between(older, newer);
    let churn = diff.churn();
    let frac = |pred: &dyn Fn(&str) -> bool| {
        if churn == 0 {
            return 0.0;
        }
        diff.added
            .iter()
            .chain(diff.changed.iter())
            .filter(|p| pred(p))
            .count() as f64
            / churn as f64
    };
    ChurnStats {
        churn,
        removed: diff.removed.len(),
        profile_fraction: frac(&|p: &str| p.starts_with(PROFILE_PREFIX)),
        web_cache_fraction: frac(&|p: &str| p.contains(WEB_CACHE_MARK)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_fs::{NtPath, Volume, VolumeConfig, VolumeId};
    use nt_sim::SimTime;
    use nt_trace::SnapshotWalker;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn volume() -> Volume {
        let mut v = Volume::new(VolumeConfig::local_ntfs(4 << 30));
        let sys = v
            .mkdir_all(&NtPath::parse(r"\winnt\system32"), t(1))
            .unwrap();
        for (name, size) in [
            ("big.dll", 3_000_000u64),
            ("huge.exe", 5_000_000),
            ("a.ini", 900),
        ] {
            let f = v.create_file(sys, name, t(1)).unwrap();
            v.set_file_size(f, size, t(1)).unwrap();
        }
        let cache = v
            .mkdir_all(
                &NtPath::parse(r"\winnt\profiles\kim\temporary internet files"),
                t(1),
            )
            .unwrap();
        for i in 0..20 {
            let f = v.create_file(cache, &format!("c{i}.htm"), t(1)).unwrap();
            v.set_file_size(f, 4_000, t(1)).unwrap();
        }
        v
    }

    #[test]
    fn stats_identify_dominant_types() {
        let v = volume();
        let snap = SnapshotWalker::walk_volume(VolumeId(0), &v, t(2));
        let s = content_stats(&snap);
        assert_eq!(s.files, 23);
        assert!(s.exe_dll_font_byte_fraction > 0.9);
        assert_eq!(s.web_cache_files, 20);
        assert_eq!(s.web_cache_bytes, 80_000);
        assert!(s.profile_file_fraction > 0.5);
        assert_eq!(s.bytes_by_extension[0].0, "exe");
    }

    #[test]
    fn churn_attributes_to_web_cache() {
        let mut v = volume();
        let before = SnapshotWalker::walk_volume(VolumeId(0), &v, t(2));
        let cache = v
            .lookup(&NtPath::parse(
                r"\winnt\profiles\kim\temporary internet files",
            ))
            .unwrap();
        for i in 100..109 {
            let f = v.create_file(cache, &format!("n{i}.gif"), t(50)).unwrap();
            v.set_file_size(f, 2_000, t(50)).unwrap();
        }
        let sys = v.lookup(&NtPath::parse(r"\winnt\system32\a.ini")).unwrap();
        v.set_file_size(sys, 1_000, t(60)).unwrap();
        let after = SnapshotWalker::walk_volume(VolumeId(0), &v, t(100));
        let c = churn_stats(&before, &after);
        assert_eq!(c.churn, 10);
        assert!((c.web_cache_fraction - 0.9).abs() < 1e-9);
        assert!(c.profile_fraction >= c.web_cache_fraction);
        assert_eq!(c.removed, 0);
    }
}
