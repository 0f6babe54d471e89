//! File-type catalog and the initial-content builder (§5 of the paper).
//!
//! §5's snapshot findings drive the initial state of every simulated
//! volume: local file systems hold 24,000–45,000 files and are 54–87 %
//! full; "the size distribution is dominated by executables, dynamic
//! loadable libraries and fonts"; 87–99 % of local user files live under
//! `\winnt\profiles\<user>`; the "Temporary Internet Files" WWW cache
//! holds 2,000–9,500 files totalling 5–45 MB.

use nt_fs::{FsError, NodeId, NtPath, Volume};
use nt_sim::SimTime;
use rand::Rng;

use crate::dist::{BodyTail, Pareto};

/// Categories the study's dimension tables group extensions into.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum FileCategory {
    /// Executable images.
    Executable,
    /// Dynamic loadable libraries.
    Library,
    /// Font files.
    Font,
    /// Office documents, mail files, text.
    Document,
    /// Source code and headers.
    Source,
    /// Compiler outputs: objects, pch, libs, incremental-link state.
    Development,
    /// WWW cache content.
    WebCache,
    /// System configuration / registry / logs.
    System,
    /// Scientific data sets.
    Data,
    /// Anything else.
    Other,
}

impl FileCategory {
    /// Classifies an extension the way the study's dimension table does.
    pub fn of_extension(ext: Option<&str>) -> FileCategory {
        match ext {
            Some("exe" | "com" | "scr") => FileCategory::Executable,
            Some("dll" | "ocx" | "drv" | "cpl" | "sys") => FileCategory::Library,
            Some("ttf" | "fon" | "ttc") => FileCategory::Font,
            Some("doc" | "xls" | "ppt" | "txt" | "rtf" | "mbx" | "pst" | "eml") => {
                FileCategory::Document
            }
            Some("c" | "cpp" | "h" | "hpp" | "java" | "cs" | "bas" | "rc") => FileCategory::Source,
            Some("obj" | "pch" | "lib" | "pdb" | "ilk" | "exp" | "res" | "class") => {
                FileCategory::Development
            }
            Some("htm" | "html" | "gif" | "jpg" | "css" | "js" | "cookie") => {
                FileCategory::WebCache
            }
            Some("ini" | "log" | "dat" | "pol" | "inf") => FileCategory::System,
            Some("mat" | "hdf" | "bin" | "raw" | "sim") => FileCategory::Data,
            _ => FileCategory::Other,
        }
    }

    /// A representative size model for files of this category; the
    /// executables/libraries/fonts carry the heavy tail that dominates
    /// the §5 size distribution.
    pub(crate) fn size_model(self) -> BodyTail {
        match self {
            FileCategory::Executable => BodyTail::new(11.5, 1.3, Pareto::new(1.0e6, 1.2), 0.20),
            FileCategory::Library => BodyTail::new(11.0, 1.2, Pareto::new(8.0e5, 1.2), 0.18),
            FileCategory::Font => BodyTail::new(10.8, 0.8, Pareto::new(3.0e5, 1.4), 0.12),
            FileCategory::Document => BodyTail::new(9.5, 1.5, Pareto::new(2.0e5, 1.4), 0.05),
            FileCategory::Source => BodyTail::new(8.5, 1.2, Pareto::new(1.0e5, 1.6), 0.02),
            FileCategory::Development => BodyTail::new(9.8, 1.6, Pareto::new(5.0e6, 1.3), 0.06),
            FileCategory::WebCache => BodyTail::new(8.0, 1.4, Pareto::new(6.0e4, 1.5), 0.04),
            FileCategory::System => BodyTail::new(7.5, 1.6, Pareto::new(1.0e5, 1.5), 0.03),
            FileCategory::Data => BodyTail::new(13.0, 1.5, Pareto::new(1.0e7, 1.2), 0.25),
            FileCategory::Other => BodyTail::new(8.0, 1.5, Pareto::new(1.0e5, 1.5), 0.03),
        }
    }

    /// Typical extensions used when materialising files of the category.
    pub fn extensions(self) -> &'static [&'static str] {
        match self {
            FileCategory::Executable => &["exe", "com"],
            FileCategory::Library => &["dll", "ocx", "drv", "sys"],
            FileCategory::Font => &["ttf", "fon"],
            FileCategory::Document => &["doc", "xls", "txt", "mbx"],
            FileCategory::Source => &["c", "h", "cpp", "java"],
            FileCategory::Development => &["obj", "pch", "pdb", "ilk", "lib"],
            FileCategory::WebCache => &["htm", "gif", "jpg", "css"],
            FileCategory::System => &["ini", "log", "dat", "inf"],
            FileCategory::Data => &["mat", "bin", "raw"],
            FileCategory::Other => &["bak", "old", "x"],
        }
    }
}

/// What to build into a fresh volume.
#[derive(Clone, Debug)]
pub struct ContentPlan {
    /// Target number of files (the study saw 24k–45k locally).
    pub target_files: usize,
    /// User names whose profiles exist locally.
    pub users: Vec<String>,
    /// Approximate number of WWW-cache files per profile (2,000–9,500).
    pub web_cache_files: usize,
    /// Whether a developer SDK-style package is installed (14,000 files in
    /// 1,300 directories shifts the per-directory statistics, §5).
    pub developer_package: bool,
    /// Fraction of files whose creation time is back-dated by an
    /// installer, producing §5's unreliable timestamps.
    pub backdated_fraction: f64,
}

impl ContentPlan {
    /// A typical desktop of the study.
    pub fn desktop(user: &str) -> Self {
        ContentPlan {
            target_files: 28_000,
            users: vec![user.to_string()],
            web_cache_files: 4_000,
            developer_package: false,
            backdated_fraction: 0.3,
        }
    }

    /// A development-pool machine with the SDK installed.
    pub fn developer(user: &str) -> Self {
        ContentPlan {
            target_files: 38_000,
            users: vec![user.to_string()],
            web_cache_files: 3_000,
            developer_package: true,
            backdated_fraction: 0.3,
        }
    }

    /// A small user share on the network file server (§5: 150–27,000
    /// files per share).
    pub fn user_share(files: usize) -> Self {
        ContentPlan {
            target_files: files,
            users: Vec::new(),
            web_cache_files: 0,
            developer_package: false,
            backdated_fraction: 0.1,
        }
    }
}

/// Builds the initial §5-like content of a volume.
pub struct ContentBuilder;

/// Well-known paths the analysis keys on.
pub mod paths {
    /// The profile tree prefix (§5: 87–99 % of local user files).
    pub(crate) const PROFILES: &str = r"\winnt\profiles";

    /// WWW cache directory name inside a profile.
    pub(crate) const WEB_CACHE: &str = "temporary internet files";

    /// Profile tree of one user.
    pub fn profile_of(user: &str) -> String {
        format!(r"{PROFILES}\{user}")
    }

    /// WWW cache of one user.
    pub(crate) fn web_cache_of(user: &str) -> String {
        format!(r"{PROFILES}\{user}\{WEB_CACHE}")
    }
}

impl ContentBuilder {
    /// Populates `volume` according to `plan`. Returns the number of files
    /// created. Creation times are spread over the two years before
    /// `now`, with the configured fraction back-dated far earlier.
    pub fn build(
        volume: &mut Volume,
        plan: &ContentPlan,
        now: SimTime,
        rng: &mut impl Rng,
    ) -> Result<usize, FsError> {
        let mut made = 0;

        // System tree: \winnt, \winnt\system32, \winnt\fonts.
        let winnt = volume.mkdir_all(&NtPath::parse(r"\winnt"), now)?;
        let system32 = volume.mkdir_all(&NtPath::parse(r"\winnt\system32"), now)?;
        // Well-known files the background services touch constantly.
        for (dir, name, size) in [
            (winnt, "win.ini", 4_000u64),
            (winnt, "system.ini", 1_200),
            (system32, "ntdll.dll", 420_000),
        ] {
            let f = volume.create_file(dir, name, now)?;
            volume.set_file_size(f, size, now)?;
            made += 1;
        }
        let cfg = volume.mkdir_all(&NtPath::parse(r"\winnt\system32\config"), now)?;
        let f = volume.create_file(cfg, "sys.log", now)?;
        volume.set_file_size(f, 20_000, now)?;
        made += 1;
        let fonts = volume.mkdir_all(&NtPath::parse(r"\winnt\fonts"), now)?;
        let sys_files = (plan.target_files / 4).max(50);
        made += Self::fill_dir(
            volume,
            system32,
            sys_files * 7 / 10,
            &[
                (FileCategory::Library, 0.55),
                (FileCategory::Executable, 0.25),
                (FileCategory::System, 0.20),
            ],
            plan,
            now,
            rng,
        )?;
        made += Self::fill_dir(
            volume,
            winnt,
            sys_files / 5,
            &[(FileCategory::System, 0.8), (FileCategory::Executable, 0.2)],
            plan,
            now,
            rng,
        )?;
        made += Self::fill_dir(
            volume,
            fonts,
            sys_files / 10,
            &[(FileCategory::Font, 1.0)],
            plan,
            now,
            rng,
        )?;

        // Application packages under \program files, in per-app subtrees.
        let n_apps = 6 + (plan.target_files / 8_000);
        for a in 0..n_apps {
            let app =
                volume.mkdir_all(&NtPath::parse(&format!(r"\program files\app{a:02}")), now)?;
            let per_app = plan.target_files / 4 / n_apps;
            made += Self::fill_tree(
                volume,
                app,
                per_app,
                3,
                &[
                    (FileCategory::Library, 0.3),
                    (FileCategory::Executable, 0.1),
                    (FileCategory::Document, 0.2),
                    (FileCategory::System, 0.2),
                    (FileCategory::Other, 0.2),
                ],
                plan,
                now,
                rng,
            )?;
        }

        // The developer package: many files, deep tree (§5: 14,000 files
        // in 1,300 directories).
        if plan.developer_package {
            let sdk = volume.mkdir_all(&NtPath::parse(r"\program files\platform sdk"), now)?;
            made += Self::fill_tree(
                volume,
                sdk,
                plan.target_files / 4,
                4,
                &[
                    (FileCategory::Source, 0.55),
                    (FileCategory::Library, 0.15),
                    (FileCategory::Development, 0.2),
                    (FileCategory::Document, 0.1),
                ],
                plan,
                now,
                rng,
            )?;
        }

        // Profiles: desktop files, application data, and the WWW cache.
        for user in &plan.users {
            let prof = volume.mkdir_all(&NtPath::parse(&paths::profile_of(user)), now)?;
            made += Self::fill_tree(
                volume,
                prof,
                600,
                2,
                &[
                    (FileCategory::Document, 0.5),
                    (FileCategory::System, 0.3),
                    (FileCategory::Other, 0.2),
                ],
                plan,
                now,
                rng,
            )?;
            let cache = volume.mkdir_all(&NtPath::parse(&paths::web_cache_of(user)), now)?;
            made += Self::fill_dir(
                volume,
                cache,
                plan.web_cache_files,
                &[(FileCategory::WebCache, 1.0)],
                plan,
                now,
                rng,
            )?;
        }

        // Scratch space.
        volume.mkdir_all(&NtPath::parse(r"\temp"), now)?;

        // Top up with miscellaneous files until the target is reached.
        if made < plan.target_files {
            let misc = volume.mkdir_all(&NtPath::parse(r"\misc"), now)?;
            made += Self::fill_tree(
                volume,
                misc,
                plan.target_files - made,
                2,
                &[
                    (FileCategory::Document, 0.3),
                    (FileCategory::Other, 0.4),
                    (FileCategory::System, 0.3),
                ],
                plan,
                now,
                rng,
            )?;
        }
        Ok(made)
    }

    #[allow(clippy::too_many_arguments)]
    fn fill_tree(
        volume: &mut Volume,
        root: NodeId,
        files: usize,
        depth: usize,
        mix: &[(FileCategory, f64)],
        plan: &ContentPlan,
        now: SimTime,
        rng: &mut impl Rng,
    ) -> Result<usize, FsError> {
        if depth == 0 || files < 12 {
            return Self::fill_dir(volume, root, files, mix, plan, now, rng);
        }
        let n_sub = rng.gen_range(2..=5usize);
        let here = files / 3;
        let mut made = Self::fill_dir(volume, root, here, mix, plan, now, rng)?;
        let rest = files - here;
        for s in 0..n_sub {
            let sub = volume.mkdir(root, &format!("d{s}"), now)?;
            made += Self::fill_tree(volume, sub, rest / n_sub, depth - 1, mix, plan, now, rng)?;
        }
        Ok(made)
    }

    #[allow(clippy::too_many_arguments)]
    fn fill_dir(
        volume: &mut Volume,
        dir: NodeId,
        files: usize,
        mix: &[(FileCategory, f64)],
        plan: &ContentPlan,
        now: SimTime,
        rng: &mut impl Rng,
    ) -> Result<usize, FsError> {
        use std::fmt::Write as _;
        let mut made = 0;
        let mut name = String::new();
        for i in 0..files {
            let cat = *crate::dist::weighted_choice(rng, mix);
            let exts = cat.extensions();
            let ext = exts[rng.gen_range(0..exts.len())];
            name.clear();
            let _ = write!(name, "f{i:05}.{ext}");
            let node = match volume.create_file(dir, &name, now) {
                Ok(n) => n,
                Err(FsError::AlreadyExists) => continue,
                Err(e) => return Err(e),
            };
            let size = cat.size_model().sample(rng).max(1.0) as u64;
            match volume.set_file_size(node, size, now) {
                Ok(()) => {}
                Err(FsError::VolumeFull) => {
                    // Leave the file empty; the disk is simply full —
                    // §5 saw volumes up to 87 % full.
                    let _ = volume.remove(node, now);
                    continue;
                }
                Err(e) => return Err(e),
            }
            // Spread historical timestamps and back-date some creations.
            let age_secs = rng.gen_range(0..(2 * 365 * 86_400u64));
            let base = SimTime::ZERO;
            let created = base + nt_sim::SimDuration::from_secs(age_secs / 4);
            let accessed = created + nt_sim::SimDuration::from_secs(age_secs / 3);
            let written = if rng.gen_bool(0.03) {
                // §5: 2–4 % have last-change newer than last-access.
                accessed + nt_sim::SimDuration::from_secs(1_000)
            } else {
                created + nt_sim::SimDuration::from_secs(age_secs / 5)
            };
            let creation = if rng.gen_bool(plan.backdated_fraction) {
                SimTime::ZERO
            } else {
                created
            };
            let _ = volume.set_times(
                node,
                nt_fs::FileTimes {
                    creation: Some(creation),
                    last_access: Some(accessed),
                    last_write: written,
                },
            );
            if volume.config().kind == nt_fs::FsKind::Ntfs && size > 200_000 && rng.gen_bool(0.25) {
                // NTFS compression on a slice of the bigger files (the
                // paper's follow-up traces examined such reads).
                let _ = volume.set_attributes(node, nt_fs::FileAttributes::COMPRESSED);
            }
            made += 1;
        }
        Ok(made)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_fs::VolumeConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn classification_matches_study_categories() {
        assert_eq!(
            FileCategory::of_extension(Some("exe")),
            FileCategory::Executable
        );
        assert_eq!(
            FileCategory::of_extension(Some("dll")),
            FileCategory::Library
        );
        assert_eq!(FileCategory::of_extension(Some("ttf")), FileCategory::Font);
        assert_eq!(
            FileCategory::of_extension(Some("gif")),
            FileCategory::WebCache
        );
        assert_eq!(FileCategory::of_extension(None), FileCategory::Other);
    }

    #[test]
    fn build_reaches_target_scale() {
        let mut vol = Volume::new(VolumeConfig::local_ntfs(4 << 30));
        let mut rng = SmallRng::seed_from_u64(1);
        let plan = ContentPlan {
            target_files: 3_000,
            users: vec!["alice".into()],
            web_cache_files: 500,
            developer_package: false,
            backdated_fraction: 0.3,
        };
        let made = ContentBuilder::build(&mut vol, &plan, SimTime::from_secs(10), &mut rng)
            .expect("build succeeds");
        assert!(made >= 2_800, "made {made}");
        let stats = vol.stats();
        assert!(stats.files as usize >= 2_800);
        assert!(stats.fullness() > 0.0);
    }

    #[test]
    fn profile_tree_and_web_cache_exist() {
        let mut vol = Volume::new(VolumeConfig::local_ntfs(4 << 30));
        let mut rng = SmallRng::seed_from_u64(2);
        let plan = ContentPlan {
            target_files: 1_500,
            users: vec!["bob".into()],
            web_cache_files: 300,
            developer_package: false,
            backdated_fraction: 0.2,
        };
        ContentBuilder::build(&mut vol, &plan, SimTime::from_secs(10), &mut rng).unwrap();
        let cache_dir = vol
            .lookup(&NtPath::parse(&paths::web_cache_of("bob")))
            .expect("web cache exists");
        let n = vol.node(cache_dir).unwrap().dir().unwrap().len();
        assert!(n >= 250, "web cache has {n} files");
    }

    #[test]
    fn sizes_are_heavy_tailed_with_exe_dll_dominance() {
        let mut vol = Volume::new(VolumeConfig::local_ntfs(8 << 30));
        let mut rng = SmallRng::seed_from_u64(3);
        let plan = ContentPlan {
            target_files: 4_000,
            users: vec!["u".into()],
            web_cache_files: 400,
            developer_package: false,
            backdated_fraction: 0.3,
        };
        ContentBuilder::build(&mut vol, &plan, SimTime::from_secs(10), &mut rng).unwrap();
        // Collect (category, size) of every file.
        let mut by_cat: std::collections::HashMap<FileCategory, u64> = Default::default();
        let mut total = 0u64;
        vol.walk(vol.root(), &mut |_, _, node| {
            if let Some(f) = node.file() {
                let cat = FileCategory::of_extension(node.extension());
                *by_cat.entry(cat).or_default() += f.size;
                total += f.size;
            }
        })
        .unwrap();
        let exe_dll_font = by_cat.get(&FileCategory::Executable).copied().unwrap_or(0)
            + by_cat.get(&FileCategory::Library).copied().unwrap_or(0)
            + by_cat.get(&FileCategory::Font).copied().unwrap_or(0);
        assert!(
            exe_dll_font as f64 / total as f64 > 0.4,
            "§5: executables+libraries+fonts dominate: {:.2}",
            exe_dll_font as f64 / total as f64
        );
    }

    #[test]
    fn some_timestamps_are_inconsistent() {
        let mut vol = Volume::new(VolumeConfig::local_ntfs(4 << 30));
        let mut rng = SmallRng::seed_from_u64(4);
        let plan = ContentPlan::desktop("alice");
        let plan = ContentPlan {
            target_files: 2_000,
            web_cache_files: 200,
            ..plan
        };
        ContentBuilder::build(&mut vol, &plan, SimTime::from_secs(10), &mut rng).unwrap();
        let mut bad = 0;
        let mut all = 0;
        vol.walk(vol.root(), &mut |_, _, node| {
            if node.kind.is_file() {
                all += 1;
                if node.times.change_newer_than_access() {
                    bad += 1;
                }
            }
        })
        .unwrap();
        let frac = bad as f64 / all as f64;
        assert!(
            (0.01..0.08).contains(&frac),
            "§5: 2–4 % inconsistent, got {frac:.3}"
        );
    }
}
