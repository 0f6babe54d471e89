//! Dimension tables and drill-down cubes — the §4 warehouse machinery.
//!
//! "Dimension tables are used in the analysis process as the category
//! axes for multi-dimensional cube representations of the trace
//! information. Most dimensions support multiple levels of summarization,
//! to allow a drill-down into the summarized data … a mailbox file with a
//! .mbx type is part of the mail files category, which is part of the
//! application files category."

use std::collections::HashMap;

use crate::schema::{Instance, TraceSet};

/// Level 1 of the file-type dimension (the coarsest roll-up).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TopCategory {
    /// Operating-system distribution files.
    SystemFiles,
    /// Application-owned data.
    ApplicationFiles,
    /// User documents and content.
    UserFiles,
    /// Build artefacts and sources.
    DevelopmentFiles,
    /// Scratch and cache content.
    TransientFiles,
    /// Everything else.
    Other,
}

/// Level 2 of the file-type dimension.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum LeafCategory {
    /// Executable images.
    Executables,
    /// Dynamic libraries and drivers.
    Libraries,
    /// Fonts.
    Fonts,
    /// Configuration, registry hives, logs.
    Configuration,
    /// Mail files (the paper's worked example).
    MailFiles,
    /// Databases.
    Databases,
    /// Office documents and text.
    Documents,
    /// WWW cache content.
    WebCache,
    /// Source code.
    SourceCode,
    /// Objects, PCHs, link state.
    BuildOutputs,
    /// Scientific data sets.
    DataSets,
    /// Temporary scratch.
    TempFiles,
    /// Unknown.
    Unknown,
}

impl LeafCategory {
    /// The §4 worked example: the leaf rolls up to a top category.
    pub fn top(self) -> TopCategory {
        match self {
            LeafCategory::Executables | LeafCategory::Libraries | LeafCategory::Fonts => {
                TopCategory::SystemFiles
            }
            LeafCategory::Configuration => TopCategory::SystemFiles,
            LeafCategory::MailFiles | LeafCategory::Databases => TopCategory::ApplicationFiles,
            LeafCategory::Documents => TopCategory::UserFiles,
            LeafCategory::WebCache | LeafCategory::TempFiles => TopCategory::TransientFiles,
            LeafCategory::SourceCode | LeafCategory::BuildOutputs => TopCategory::DevelopmentFiles,
            LeafCategory::DataSets => TopCategory::ApplicationFiles,
            LeafCategory::Unknown => TopCategory::Other,
        }
    }

    /// Classifies a lower-cased extension.
    pub fn of_extension(ext: Option<&str>) -> LeafCategory {
        match ext {
            Some("exe" | "com" | "scr") => LeafCategory::Executables,
            Some("dll" | "ocx" | "drv" | "cpl" | "sys") => LeafCategory::Libraries,
            Some("ttf" | "fon" | "ttc") => LeafCategory::Fonts,
            Some("ini" | "inf" | "pol" | "log" | "dat") => LeafCategory::Configuration,
            Some("mbx" | "pst" | "eml" | "msg") => LeafCategory::MailFiles,
            Some("db" | "mdb" | "dbf") => LeafCategory::Databases,
            Some("doc" | "xls" | "ppt" | "txt" | "rtf") => LeafCategory::Documents,
            Some("htm" | "html" | "gif" | "jpg" | "css" | "js" | "cookie") => {
                LeafCategory::WebCache
            }
            Some("c" | "cpp" | "h" | "hpp" | "java" | "cs" | "rc" | "bas") => {
                LeafCategory::SourceCode
            }
            Some("obj" | "pch" | "pdb" | "ilk" | "lib" | "exp" | "res" | "class") => {
                LeafCategory::BuildOutputs
            }
            Some("mat" | "hdf" | "bin" | "raw" | "sim") => LeafCategory::DataSets,
            Some("tmp" | "bak" | "old") => LeafCategory::TempFiles,
            _ => LeafCategory::Unknown,
        }
    }
}

/// Measures accumulated per cube cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Measures {
    /// Open attempts in the cell.
    pub opens: u64,
    /// Of which failed.
    pub failed_opens: u64,
    /// Sessions that transferred data.
    pub data_sessions: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Control/query/directory operations.
    pub control_ops: u64,
    /// Sum of session durations (ticks), for mean computation.
    pub duration_ticks: u64,
    /// Sessions with a known duration.
    pub duration_samples: u64,
}

impl Measures {
    fn absorb(&mut self, inst: &Instance) {
        self.opens += 1;
        if !inst.opened() {
            self.failed_opens += 1;
            return;
        }
        if inst.is_data() {
            self.data_sessions += 1;
        }
        self.read_bytes += inst.read_bytes;
        self.write_bytes += inst.write_bytes;
        self.control_ops += inst.control_ops as u64;
        if let Some(d) = inst.duration_ticks() {
            self.duration_ticks += d;
            self.duration_samples += 1;
        }
    }

    /// Mean session duration in milliseconds (0 without samples).
    pub fn mean_duration_ms(&self) -> f64 {
        if self.duration_samples == 0 {
            0.0
        } else {
            self.duration_ticks as f64 / self.duration_samples as f64 / 10_000.0
        }
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// A drill-down cube over the instance table: top category → leaf
/// category → extension, with per-machine and per-process slices.
pub struct TypeCube {
    /// Measures per top-level category.
    pub by_top: HashMap<TopCategory, Measures>,
    /// Measures per leaf category.
    pub by_leaf: HashMap<LeafCategory, Measures>,
    /// Measures per extension (the finest level).
    pub by_extension: HashMap<String, Measures>,
    /// Measures per (machine, leaf) — a slice the §5 comparison uses.
    pub by_machine_leaf: HashMap<(u32, LeafCategory), Measures>,
    /// Measures per process id.
    pub by_process: HashMap<u32, Measures>,
    /// Grand total.
    pub total: Measures,
}

/// Builds the cube from the fact tables.
pub fn type_cube(ts: &TraceSet) -> TypeCube {
    let mut cube = TypeCube {
        by_top: HashMap::new(),
        by_leaf: HashMap::new(),
        by_extension: HashMap::new(),
        by_machine_leaf: HashMap::new(),
        by_process: HashMap::new(),
        total: Measures::default(),
    };
    for inst in &ts.instances {
        let ext = inst.extension();
        let leaf = LeafCategory::of_extension(ext.as_deref());
        let top = leaf.top();
        cube.by_top.entry(top).or_default().absorb(inst);
        cube.by_leaf.entry(leaf).or_default().absorb(inst);
        cube.by_extension
            .entry(ext.unwrap_or_default())
            .or_default()
            .absorb(inst);
        cube.by_machine_leaf
            .entry((inst.machine, leaf))
            .or_default()
            .absorb(inst);
        cube.by_process
            .entry(inst.process)
            .or_default()
            .absorb(inst);
        cube.total.absorb(inst);
    }
    cube
}

impl TypeCube {
    /// Leaf categories of one top category sorted by bytes moved, ties in
    /// category order — the drill-down step of the §4 example.
    pub fn drill_down(&self, top: TopCategory) -> Vec<(LeafCategory, Measures)> {
        let mut rows: Vec<(LeafCategory, Measures)> = self
            .by_leaf
            .iter()
            .filter(|(l, _)| l.top() == top)
            .map(|(l, m)| (*l, *m))
            .collect();
        rows.sort_by_key(|&(l, m)| (std::cmp::Reverse(m.bytes()), l));
        rows
    }

    /// Extensions within a leaf category, sorted by opens, ties by name.
    pub fn extensions_of(&self, leaf: LeafCategory) -> Vec<(&str, Measures)> {
        let mut rows: Vec<(&str, Measures)> = self
            .by_extension
            .iter()
            .filter(|(e, _)| LeafCategory::of_extension(Some(e.as_str())) == leaf)
            .map(|(e, m)| (e.as_str(), *m))
            .collect();
        rows.sort_by_key(|&(e, m)| (std::cmp::Reverse(m.opens), e));
        rows
    }

    /// Cross-check: the top-level roll-up conserves the grand total.
    pub fn consistent(&self) -> bool {
        let opens: u64 = self.by_top.values().map(|m| m.opens).sum();
        let bytes: u64 = self.by_top.values().map(|m| m.bytes()).sum();
        opens == self.total.opens && bytes == self.total.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn hierarchy_rolls_up_the_worked_example() {
        // §4: .mbx → mail files → application files.
        let leaf = LeafCategory::of_extension(Some("mbx"));
        assert_eq!(leaf, LeafCategory::MailFiles);
        assert_eq!(leaf.top(), TopCategory::ApplicationFiles);
        assert_eq!(
            LeafCategory::of_extension(Some("dll")).top(),
            TopCategory::SystemFiles
        );
        assert_eq!(LeafCategory::of_extension(None), LeafCategory::Unknown);
    }

    #[test]
    fn cube_is_consistent_across_levels() {
        let ts = synthetic_trace_set(500, 91);
        let cube = type_cube(&ts);
        assert!(cube.consistent(), "roll-up conserves totals");
        assert_eq!(cube.total.opens as usize, ts.instances.len());
        // Leaf level also conserves.
        let leaf_opens: u64 = cube.by_leaf.values().map(|m| m.opens).sum();
        assert_eq!(leaf_opens, cube.total.opens);
        // Per-machine slices conserve.
        let slice_opens: u64 = cube.by_machine_leaf.values().map(|m| m.opens).sum();
        assert_eq!(slice_opens, cube.total.opens);
    }

    #[test]
    fn drill_down_orders_by_bytes() {
        let ts = synthetic_trace_set(500, 92);
        let cube = type_cube(&ts);
        for top in [
            TopCategory::SystemFiles,
            TopCategory::UserFiles,
            TopCategory::TransientFiles,
        ] {
            let rows = cube.drill_down(top);
            for w in rows.windows(2) {
                assert!(w[0].1.bytes() >= w[1].1.bytes());
            }
        }
    }

    #[test]
    fn process_dimension_populated() {
        let ts = synthetic_trace_set(400, 93);
        let cube = type_cube(&ts);
        assert!(cube.by_process.len() >= 2, "several processes traced");
        let p_opens: u64 = cube.by_process.values().map(|m| m.opens).sum();
        assert_eq!(p_opens, cube.total.opens);
    }

    #[test]
    fn measures_mean_duration() {
        let m = Measures {
            duration_ticks: 200_000,
            duration_samples: 2,
            ..Measures::default()
        };
        assert!((m.mean_duration_ms() - 10.0).abs() < 1e-12);
        assert_eq!(Measures::default().mean_duration_ms(), 0.0);
    }
}
