//! User models for the five §2 usage categories.
//!
//! "More than 92 % of the file accesses in our traces were from processes
//! that take no direct user input" (§7) — so a user model here is mostly
//! a mixture of *process* behaviours whose parameters are file-system
//! state and application structure, plus an ON/OFF arrival process with
//! the heavy-tailed gaps that make figure 8's burstiness survive
//! aggregation.

use nt_fs::{Node, NtPath, Volume, VolumeId};
use nt_sim::SimDuration;
use rand::Rng;

use crate::apps::{self, ReadStyle, ScratchDeath, TargetFile};
use crate::dist::{heavy_gap, weighted_choice, Pareto};
use crate::filetypes::{paths, FileCategory};
use crate::plan::PlannedOp;

/// The five §2 usage categories.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UsageCategory {
    /// Central-facility pool: analysis, development, documents.
    WalkUp,
    /// Dedicated group machines: program development, multimedia,
    /// simulation.
    Pool,
    /// Office machines: collaborative applications, email, documents.
    Personal,
    /// Support machines: database interaction, admin tools.
    Administrative,
    /// Compute servers: simulation, graphics, statistics.
    Scientific,
}

impl UsageCategory {
    /// All categories, for sweeps.
    pub const ALL: [UsageCategory; 5] = [
        UsageCategory::WalkUp,
        UsageCategory::Pool,
        UsageCategory::Personal,
        UsageCategory::Administrative,
        UsageCategory::Scientific,
    ];

    /// The deployed 45-machine split across [`UsageCategory::ALL`] —
    /// walk-up pool, group, personal, administrative, scientific.
    pub(crate) const PAPER_SPLIT: [usize; 5] = [10, 12, 14, 5, 4];

    /// Apportions `machines` across the categories in the paper's
    /// 10/12/14/5/4 proportions (largest-remainder method, ties broken
    /// in `ALL` order), returning the per-category counts. The counts
    /// always sum to `machines`, and `paper_mix(45)` reproduces
    /// the deployed 10/12/14/5/4 split exactly — the org-scale roster is
    /// the paper's deployment, scaled, not a new population model.
    pub fn paper_mix(machines: usize) -> [usize; 5] {
        const TOTAL: usize = 45;
        let mut counts = [0usize; 5];
        let mut assigned = 0;
        // Integer part of each category's exact share …
        for (i, &share) in Self::PAPER_SPLIT.iter().enumerate() {
            counts[i] = machines * share / TOTAL;
            assigned += counts[i];
        }
        // … then the leftover seats go to the largest remainders.
        let mut order: Vec<usize> = (0..5).collect();
        order.sort_by_key(|&i| {
            let rem = (machines * Self::PAPER_SPLIT[i]) % TOTAL;
            (std::cmp::Reverse(rem), i)
        });
        for &i in order.iter().cycle().take(machines - assigned) {
            counts[i] += 1;
        }
        counts
    }
}

/// Files the user's applications can target, sampled from the machine's
/// real content at setup.
#[derive(Clone, Debug, Default)]
pub struct WorkingSet {
    /// Documents and small data files.
    pub docs: Vec<TargetFile>,
    /// Source files.
    pub sources: Vec<TargetFile>,
    /// Executables.
    pub exes: Vec<TargetFile>,
    /// Libraries.
    pub dlls: Vec<TargetFile>,
    /// Large files (≥ 4 MB): scientific data, archives.
    pub bigs: Vec<TargetFile>,
    /// Java class-ish small binary files.
    pub classes: Vec<TargetFile>,
    /// Directories worth browsing.
    pub dirs: Vec<NtPath>,
    /// WWW-cache entries created so far (grows during the run).
    pub cache_entries: Vec<TargetFile>,
}

impl WorkingSet {
    /// Samples a working set from a volume's content, bucketing by the
    /// study's file categories. `cap` bounds each bucket.
    pub fn sample(volume_id: VolumeId, volume: &Volume, cap: usize) -> WorkingSet {
        let mut ws = WorkingSet::default();
        // The path of the node being visited ("" at the root), and the
        // length of each open directory's path on the way down to it.
        let mut path = String::new();
        let mut open: Vec<usize> = Vec::new();
        volume
            .walk(volume.root(), &mut |depth, _, node: &Node| {
                open.truncate(depth);
                if let Some(&parent_len) = open.last() {
                    path.truncate(parent_len);
                    path.push('\\');
                    path.push_str(&node.name);
                }
                if let Some(meta) = node.file() {
                    let big = meta.size >= (4 << 20) && ws.bigs.len() < cap;
                    let bucket = match FileCategory::of_extension(node.extension()) {
                        FileCategory::Document | FileCategory::System | FileCategory::Other => {
                            Some(&mut ws.docs)
                        }
                        FileCategory::Source => Some(&mut ws.sources),
                        FileCategory::Executable => Some(&mut ws.exes),
                        FileCategory::Library => Some(&mut ws.dlls),
                        FileCategory::Development => Some(&mut ws.classes),
                        _ => None,
                    }
                    .filter(|bucket| bucket.len() < cap);
                    if !big && bucket.is_none() {
                        return;
                    }
                    let t = TargetFile {
                        volume: volume_id,
                        path: NtPath::parse(&path),
                        size: meta.size,
                    };
                    match bucket {
                        Some(bucket) => {
                            if big {
                                ws.bigs.push(t.clone());
                            }
                            bucket.push(t);
                        }
                        None => ws.bigs.push(t),
                    }
                } else {
                    open.push(path.len());
                    if (1..=3).contains(&depth) && ws.dirs.len() < cap {
                        ws.dirs.push(NtPath::parse(&path));
                    }
                }
            })
            .expect("sampling a live volume");
        ws
    }
}

/// One user (equivalently, one traced machine — the systems were all
/// single-user, §6.1).
pub struct UserModel {
    /// The usage category.
    pub category: UsageCategory,
    /// Profile/user name.
    pub user: String,
    /// The local system volume.
    pub local: VolumeId,
    /// The user's home share on the file server, when connected.
    pub share: Option<VolumeId>,
    /// The sampled working set.
    pub ws: WorkingSet,
    scratch_seq: u64,
    browser_seq: u64,
    doc_seq: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AppChoice {
    Explorer,
    Stat,
    FailedProbe,
    Browser,
    NotepadSave,
    DocRead,
    DocWrite,
    Scratch,
    AppLaunch,
    Background,
    Mailer,
    JavaTool,
    DevBuild,
    SourceRead,
    Database,
    Scientific,
    BigRead,
    ShareDoc,
}

impl UserModel {
    /// Creates a user over a sampled working set.
    pub fn new(
        category: UsageCategory,
        user: &str,
        local: VolumeId,
        share: Option<VolumeId>,
        ws: WorkingSet,
    ) -> Self {
        UserModel {
            category,
            user: user.to_string(),
            local,
            share,
            ws,
            scratch_seq: 0,
            browser_seq: 0,
            doc_seq: 0,
        }
    }

    /// Samples the gap before the next session: a two-phase heavy-tailed
    /// process — short intra-burst gaps most of the time, long OFF
    /// periods otherwise — which is what keeps only ≤ 24 % of 1-second
    /// intervals active (§8.1) while bursts stay dense.
    pub fn session_gap(&self, rng: &mut impl Rng) -> SimDuration {
        if rng.gen_bool(0.8) {
            heavy_gap(rng, SimDuration::from_millis(450), 1.12)
        } else {
            heavy_gap(rng, SimDuration::from_secs(18), 1.08)
        }
    }

    fn mix(&self) -> &'static [(AppChoice, f64)] {
        use AppChoice::*;
        match self.category {
            UsageCategory::WalkUp => &[
                (Explorer, 14.0),
                (Stat, 22.0),
                (FailedProbe, 3.0),
                (Browser, 14.0),
                (NotepadSave, 3.0),
                (DocRead, 32.0),
                (DocWrite, 4.0),
                (Scratch, 7.0),
                (AppLaunch, 7.0),
                (Background, 12.0),
                (JavaTool, 2.0),
                (SourceRead, 9.0),
                (ShareDoc, 4.0),
                (BigRead, 1.5),
            ],
            UsageCategory::Pool => &[
                (Explorer, 12.0),
                (Stat, 20.0),
                (FailedProbe, 3.0),
                (Browser, 6.0),
                (DevBuild, 5.0),
                (SourceRead, 30.0),
                (Scratch, 9.0),
                (AppLaunch, 7.0),
                (Background, 12.0),
                (JavaTool, 1.5),
                (DocRead, 20.0),
                (DocWrite, 2.0),
                (ShareDoc, 3.0),
                (BigRead, 1.5),
            ],
            UsageCategory::Personal => &[
                (Explorer, 14.0),
                (Stat, 22.0),
                (FailedProbe, 3.0),
                (Browser, 16.0),
                (NotepadSave, 3.0),
                (DocRead, 32.0),
                (DocWrite, 5.0),
                (Scratch, 5.0),
                (AppLaunch, 6.0),
                (Background, 12.0),
                (Mailer, 2.0),
                (ShareDoc, 4.0),
                (BigRead, 1.5),
            ],
            UsageCategory::Administrative => &[
                (Explorer, 11.0),
                (Stat, 21.0),
                (FailedProbe, 2.5),
                (Database, 16.0),
                (DocRead, 28.0),
                (DocWrite, 5.0),
                (Browser, 8.0),
                (Scratch, 5.0),
                (AppLaunch, 5.0),
                (Background, 14.0),
                (Mailer, 3.0),
                (ShareDoc, 4.0),
            ],
            UsageCategory::Scientific => &[
                (Scientific, 20.0),
                (BigRead, 10.0),
                (Stat, 18.0),
                (Explorer, 12.0),
                (FailedProbe, 2.0),
                (DocWrite, 6.0),
                (Scratch, 8.0),
                (AppLaunch, 5.0),
                (Background, 14.0),
                (SourceRead, 14.0),
                (Database, 3.0),
                (ShareDoc, 5.0),
            ],
        }
    }

    fn pick<'a>(
        rng: &mut impl Rng,
        set: &'a [TargetFile],
        fallback: &'a [TargetFile],
    ) -> Option<&'a TargetFile> {
        let pool = if set.is_empty() { fallback } else { set };
        if pool.is_empty() {
            None
        } else {
            Some(&pool[rng.gen_range(0..pool.len())])
        }
    }

    fn read_style(rng: &mut impl Rng) -> ReadStyle {
        // Table 3: ~68 % whole-file, ~20 % other sequential, ~12 % random
        // for read-only accesses.
        let u: f64 = rng.gen();
        if u < 0.68 {
            ReadStyle::WholeSequential
        } else if u < 0.88 {
            ReadStyle::PartialSequential
        } else {
            ReadStyle::Random
        }
    }

    fn scratch_death(rng: &mut impl Rng) -> ScratchDeath {
        // §6.3: 37 % truncate-overwrite, 62 % explicit delete, 1 %
        // temporary attribute. Latencies: overwrite within milliseconds,
        // explicit deletes within seconds, both with heavy tails.
        let u: f64 = rng.gen();
        if u < 0.37 {
            ScratchDeath::Overwrite {
                after: heavy_gap(rng, SimDuration::from_micros(500), 1.2),
            }
        } else if u < 0.99 {
            ScratchDeath::ExplicitDelete {
                after: heavy_gap(rng, SimDuration::from_millis(900), 1.2),
            }
        } else {
            ScratchDeath::Temporary
        }
    }

    /// Builds the next session plan.
    pub fn next_plan(&mut self, rng: &mut impl Rng) -> Vec<PlannedOp> {
        let choice = *weighted_choice(rng, self.mix());
        let local = self.local;
        match choice {
            AppChoice::Explorer => {
                let root = NtPath::root();
                let dir = if self.ws.dirs.is_empty() {
                    &root
                } else {
                    &self.ws.dirs[rng.gen_range(0..self.ws.dirs.len())]
                };
                let entries = &self.ws.docs[..self.ws.docs.len().min(12)];
                apps::explorer_browse(local, dir, entries, rng)
            }
            AppChoice::Stat => match Self::pick(rng, &self.ws.docs, &self.ws.exes) {
                Some(t) => apps::stat_session(local, &t.path, false, rng),
                None => apps::stat_session(local, &NtPath::parse(r"\winnt\win.ini"), false, rng),
            },
            AppChoice::FailedProbe => {
                if rng.gen_bool(0.4) {
                    // §8.4's other failure class (31 %): a create is
                    // requested but the name already exists.
                    if let Some(t) = Self::pick(rng, &self.ws.docs, &self.ws.exes) {
                        return vec![crate::plan::PlannedOp::then(crate::plan::FileOp::Open {
                            volume: t.volume,
                            path: t.path.clone(),
                            access: nt_io::AccessMode::Write,
                            disposition: nt_io::Disposition::Create,
                            options: nt_io::CreateOptions::default(),
                        })];
                    }
                }
                // The open-as-existence-test pattern (§8.4, 52 %); roughly
                // half of these are followed by creating the file.
                let path =
                    NtPath::parse(&format!(r"\temp\probe{:05}.tmp", rng.gen_range(0..99_999)));
                let mut plan = apps::stat_session(local, &path, true, rng);
                if rng.gen_bool(0.5) {
                    plan.extend(apps::write_session(
                        local,
                        &path,
                        rng.gen_range(10..4_000),
                        false,
                        rng,
                    ));
                    self.scratch_seq += 1;
                }
                plan
            }
            AppChoice::Browser => {
                self.browser_seq += 1;
                let cache_dir = NtPath::parse(&paths::web_cache_of(&self.user));
                let plan = apps::browser_step(
                    local,
                    &cache_dir,
                    &self.ws.cache_entries,
                    self.browser_seq,
                    rng,
                );
                // Remember a few fresh entries for later hits.
                if self.ws.cache_entries.len() < 400 {
                    for f in 0..2 {
                        self.ws.cache_entries.push(TargetFile {
                            volume: local,
                            path: cache_dir.join(&format!("cache{:08}_{f}.htm", self.browser_seq)),
                            size: 8_000,
                        });
                    }
                }
                plan
            }
            AppChoice::NotepadSave => {
                self.doc_seq += 1;
                let path = NtPath::parse(&format!(
                    r"{}\note{:03}.txt",
                    paths::profile_of(&self.user),
                    self.doc_seq % 40
                ));
                apps::notepad_save(local, &path, rng.gen_range(200..6_000))
            }
            AppChoice::DocRead => match Self::pick(rng, &self.ws.docs, &self.ws.sources) {
                Some(t) => {
                    if rng.gen_bool(0.45) {
                        // §9.1: 31 % of read sessions use a single I/O.
                        apps::peek_session(t, rng)
                    } else {
                        apps::read_session(t, Self::read_style(rng), rng)
                    }
                }
                None => Vec::new(),
            },
            AppChoice::DocWrite => {
                self.doc_seq += 1;
                let path = NtPath::parse(&format!(
                    r"{}\work{:03}.doc",
                    paths::profile_of(&self.user),
                    self.doc_seq % 60
                ));
                apps::write_session(
                    local,
                    &path,
                    rng.gen_range(1_000..80_000),
                    rng.gen_bool(0.5),
                    rng,
                )
            }
            AppChoice::Scratch => {
                self.scratch_seq += 1;
                let path = NtPath::parse(&format!(r"\temp\scr{:06}.tmp", self.scratch_seq));
                apps::scratch_file(
                    local,
                    &path,
                    // §6.3: 65 % of deleted files are under 100 bytes.
                    if rng.gen_bool(0.65) {
                        rng.gen_range(1..100)
                    } else {
                        (Pareto::new(150.0, 1.3).sample(rng) as u64).min(2 << 20)
                    },
                    Self::scratch_death(rng),
                    rng,
                )
            }
            AppChoice::AppLaunch => match Self::pick(rng, &self.ws.exes, &self.ws.dlls) {
                Some(exe) => {
                    let configs = &self.ws.docs[..self.ws.docs.len().min(40)];
                    apps::app_launch(exe, &self.ws.dlls, configs, rng)
                }
                None => Vec::new(),
            },
            AppChoice::Background => apps::background_service(
                local,
                &NtPath::parse(r"\winnt\system32\config\sys.log"),
                &NtPath::parse(r"\winnt\win.ini"),
                rng,
            ),
            AppChoice::Mailer => apps::mailer_save(
                local,
                &NtPath::parse(&format!(r"{}\inbox.mbx", paths::profile_of(&self.user))),
            ),
            AppChoice::JavaTool => match Self::pick(rng, &self.ws.classes, &self.ws.docs) {
                Some(t) => apps::java_tool_read(t, rng),
                None => Vec::new(),
            },
            AppChoice::DevBuild => {
                let sources = &self.ws.sources[..self.ws.sources.len().min(16)];
                if sources.is_empty() {
                    return Vec::new();
                }
                apps::devenv_build(local, sources, &NtPath::parse(r"\temp\build"), rng)
            }
            AppChoice::SourceRead => match Self::pick(rng, &self.ws.sources, &self.ws.docs) {
                Some(t) => apps::read_session(t, Self::read_style(rng), rng),
                None => Vec::new(),
            },
            AppChoice::Database => {
                let db = TargetFile {
                    volume: local,
                    path: NtPath::parse(r"\winnt\system32\admin.db"),
                    size: 8 << 20,
                };
                apps::db_session(&db, rng)
            }
            AppChoice::Scientific => match Self::pick(rng, &self.ws.bigs, &self.ws.docs) {
                Some(t) => apps::scientific_session(t, rng),
                None => Vec::new(),
            },
            AppChoice::BigRead => match Self::pick(rng, &self.ws.bigs, &self.ws.docs) {
                Some(t) => apps::read_session(t, Self::read_style(rng), rng),
                None => Vec::new(),
            },
            AppChoice::ShareDoc => {
                let Some(share) = self.share else {
                    return Vec::new();
                };
                self.doc_seq += 1;
                if rng.gen_bool(0.6) {
                    let t = TargetFile {
                        volume: share,
                        path: NtPath::parse(&format!(r"\doc{:03}.doc", self.doc_seq % 80)),
                        size: rng.gen_range(1_000..120_000),
                    };
                    let mut plan = apps::write_session(share, &t.path, t.size, true, rng);
                    plan.insert(
                        0,
                        PlannedOp::then(crate::plan::FileOp::IsVolumeMounted { volume: share }),
                    );
                    plan
                } else {
                    let t = TargetFile {
                        volume: share,
                        path: NtPath::parse(&format!(r"\doc{:03}.doc", self.doc_seq % 80)),
                        size: rng.gen_range(1_000..120_000),
                    };
                    // May fail with not-found when never written: realistic.
                    apps::read_session(&t, Self::read_style(rng), rng)
                }
            }
        }
    }

    /// The logon profile sync, run once at the start of a user session.
    pub fn logon_plan(&self, rng: &mut impl Rng) -> Vec<PlannedOp> {
        let profile = NtPath::parse(&paths::profile_of(&self.user));
        apps::winlogon_profile_sync(self.local, &profile, rng.gen_range(4..12), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_fs::VolumeConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn working_set() -> WorkingSet {
        let mut vol = Volume::new(VolumeConfig::local_ntfs(4 << 30));
        let mut rng = SmallRng::seed_from_u64(9);
        let plan = crate::filetypes::ContentPlan {
            target_files: 2_000,
            users: vec!["tess".into()],
            web_cache_files: 200,
            developer_package: true,
            backdated_fraction: 0.2,
        };
        crate::filetypes::ContentBuilder::build(
            &mut vol,
            &plan,
            nt_sim::SimTime::from_secs(5),
            &mut rng,
        )
        .unwrap();
        WorkingSet::sample(VolumeId(0), &vol, 200)
    }

    /// What [`WorkingSet::sample`] keeps, built only from `read_dir`
    /// recursion, `format!`-joined paths and `NtPath::parse`.
    fn reference_sample(volume_id: VolumeId, vol: &Volume, cap: usize) -> WorkingSet {
        fn visit(
            vol: &Volume,
            dir: nt_fs::NodeId,
            path: &str,
            depth: usize,
            cap: usize,
            volume_id: VolumeId,
            ws: &mut WorkingSet,
        ) {
            for (name, id) in vol.read_dir(dir).unwrap() {
                let child = format!("{path}\\{name}");
                let node = vol.node(id).unwrap();
                let Some(meta) = node.file() else {
                    if depth <= 3 && ws.dirs.len() < cap {
                        ws.dirs.push(NtPath::parse(&child));
                    }
                    visit(vol, id, &child, depth + 1, cap, volume_id, ws);
                    continue;
                };
                let t = TargetFile {
                    volume: volume_id,
                    path: NtPath::parse(&child),
                    size: meta.size,
                };
                if meta.size >= 4 << 20 && ws.bigs.len() < cap {
                    ws.bigs.push(t.clone());
                }
                let bucket = match FileCategory::of_extension(node.extension()) {
                    FileCategory::Document | FileCategory::System | FileCategory::Other => {
                        &mut ws.docs
                    }
                    FileCategory::Source => &mut ws.sources,
                    FileCategory::Executable => &mut ws.exes,
                    FileCategory::Library => &mut ws.dlls,
                    FileCategory::Development => &mut ws.classes,
                    _ => continue,
                };
                if bucket.len() < cap {
                    bucket.push(t);
                }
            }
        }
        let mut ws = WorkingSet::default();
        visit(vol, vol.root(), "", 1, cap, volume_id, &mut ws);
        ws
    }

    #[test]
    fn sample_equals_the_reference_sample() {
        let fields = |bucket: &[TargetFile]| -> Vec<(VolumeId, String, u64)> {
            bucket
                .iter()
                .map(|t| (t.volume, t.path.to_string(), t.size))
                .collect()
        };
        for (seed, developer) in [(3, false), (4, true)] {
            for fat in [false, true] {
                let mut vol = Volume::new(if fat {
                    VolumeConfig::local_fat(8 << 30)
                } else {
                    VolumeConfig::local_ntfs(8 << 30)
                });
                let plan = if developer {
                    crate::filetypes::ContentPlan::developer("tess")
                } else {
                    crate::filetypes::ContentPlan::desktop("tess")
                };
                let plan = crate::filetypes::ContentPlan {
                    target_files: 6_000,
                    web_cache_files: 800,
                    ..plan
                };
                let mut rng = SmallRng::seed_from_u64(seed);
                crate::filetypes::ContentBuilder::build(
                    &mut vol,
                    &plan,
                    nt_sim::SimTime::from_secs(5),
                    &mut rng,
                )
                .unwrap();
                for cap in [50, 100_000] {
                    let got = WorkingSet::sample(VolumeId(2), &vol, cap);
                    let want = reference_sample(VolumeId(2), &vol, cap);
                    let case = format!("developer {developer}, fat {fat}, cap {cap}");
                    for (name, got, want) in [
                        ("docs", &got.docs, &want.docs),
                        ("sources", &got.sources, &want.sources),
                        ("exes", &got.exes, &want.exes),
                        ("dlls", &got.dlls, &want.dlls),
                        ("bigs", &got.bigs, &want.bigs),
                        ("classes", &got.classes, &want.classes),
                        ("cache_entries", &got.cache_entries, &want.cache_entries),
                    ] {
                        assert_eq!(fields(got), fields(want), "{name}: {case}");
                        assert!(got.len() <= cap);
                    }
                    assert_eq!(got.dirs, want.dirs, "dirs: {case}");
                    let full = [&got.docs, &got.exes, &got.dlls]
                        .iter()
                        .filter(|b| b.len() == cap)
                        .count();
                    if cap == 50 {
                        // Full buckets, and a big file kept in `bigs` only.
                        let categorised =
                            [&got.docs, &got.sources, &got.exes, &got.dlls, &got.classes];
                        let only_big = got.bigs.iter().any(|t| {
                            !categorised
                                .iter()
                                .any(|b| b.iter().any(|u| u.path == t.path))
                        });
                        assert!(full == 3 && only_big, "{case}");
                    } else {
                        assert!(full == 0 && !got.bigs.is_empty(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn working_set_buckets_populated() {
        let ws = working_set();
        assert!(!ws.docs.is_empty());
        assert!(!ws.exes.is_empty());
        assert!(!ws.dlls.is_empty());
        assert!(!ws.sources.is_empty());
        assert!(!ws.dirs.is_empty());
        for t in ws.docs.iter().take(5) {
            assert!(t.path.depth() > 0);
        }
    }

    #[test]
    fn every_category_produces_plans() {
        let ws = working_set();
        let mut rng = SmallRng::seed_from_u64(11);
        for cat in UsageCategory::ALL {
            let mut user = UserModel::new(cat, "tess", VolumeId(0), None, ws.clone());
            let mut non_empty = 0;
            for _ in 0..50 {
                if !user.next_plan(&mut rng).is_empty() {
                    non_empty += 1;
                }
            }
            assert!(non_empty >= 45, "{cat:?} produced {non_empty}/50 plans");
        }
    }

    #[test]
    fn session_gaps_are_heavy_tailed() {
        let ws = WorkingSet::default();
        let user = UserModel::new(UsageCategory::Personal, "x", VolumeId(0), None, ws);
        let mut rng = SmallRng::seed_from_u64(3);
        let gaps: Vec<SimDuration> = (0..20_000).map(|_| user.session_gap(&mut rng)).collect();
        let mut sorted = gaps.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let p999 = sorted[sorted.len() * 999 / 1000];
        assert!(
            p999 > median * 100,
            "p99.9 {} vs median {} shows extreme variance",
            p999,
            median
        );
    }

    #[test]
    fn logon_plan_rewrites_profile_files() {
        let ws = WorkingSet::default();
        let user = UserModel::new(UsageCategory::Personal, "ann", VolumeId(0), None, ws);
        let mut rng = SmallRng::seed_from_u64(4);
        let plan = user.logon_plan(&mut rng);
        let opens = plan
            .iter()
            .filter(|p| matches!(&p.op, crate::plan::FileOp::Open { .. }))
            .count();
        assert!(opens >= 4, "profile sync opens several files: {opens}");
    }

    #[test]
    fn share_sessions_require_a_share() {
        let ws = working_set();
        let mut rng = SmallRng::seed_from_u64(12);
        let mut user = UserModel::new(
            UsageCategory::Personal,
            "tess",
            VolumeId(0),
            Some(VolumeId(1)),
            ws,
        );
        // Over many draws, some plans must target the share volume.
        let mut share_ops = 0;
        for _ in 0..300 {
            for op in user.next_plan(&mut rng) {
                if let crate::plan::FileOp::Open { volume, .. } = op.op {
                    if volume == VolumeId(1) {
                        share_ops += 1;
                    }
                }
            }
        }
        assert!(share_ops > 0, "share traffic appears");
    }
    #[test]
    fn paper_mix_apportions_exactly() {
        assert_eq!(UsageCategory::paper_mix(45), UsageCategory::PAPER_SPLIT);
        assert_eq!(UsageCategory::paper_mix(0), [0; 5]);
        for n in [1usize, 5, 44, 46, 450, 1_000, 9_973, 10_000] {
            let counts = UsageCategory::paper_mix(n);
            assert_eq!(counts.iter().sum::<usize>(), n, "n={n}");
            // Each category stays within one machine of its exact share.
            for (i, &c) in counts.iter().enumerate() {
                let exact = n as f64 * UsageCategory::PAPER_SPLIT[i] as f64 / 45.0;
                assert!(
                    (c as f64 - exact).abs() < 1.0,
                    "n={n} cat={i}: {c} vs {exact}"
                );
            }
        }
        // Scaling by a whole multiple scales every category exactly.
        assert_eq!(UsageCategory::paper_mix(450), [100, 120, 140, 50, 40]);
    }
}
