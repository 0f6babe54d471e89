//! NT-style paths: backslash-separated, case-insensitive.
//!
//! The study stores file names "in a short form as we are mainly interested
//! in the file type, not in the individual names" (§3.1); accordingly the
//! path machinery here keeps full component names for namespace operations
//! but exposes [`NtPath::extension`] as the primary classification hook.
//! A path is one lower-cased string, so cloning or printing one copies a
//! single buffer.

use std::fmt;

/// An owned, parsed NT path such as `\winnt\profiles\alice\ntuser.dat`.
///
/// Paths are always absolute within a volume (rooted at `\`). Comparison is
/// ASCII-case-insensitive, matching NT namespace semantics.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct NtPath {
    /// Every component lower-cased and preceded by `\` (`\a\b\c`); empty
    /// for the root. No component is empty.
    text: String,
}

impl NtPath {
    /// The volume root `\`.
    pub fn root() -> Self {
        NtPath::default()
    }

    /// Parses a backslash-separated path. Leading backslash is optional;
    /// empty components are ignored. Components are lower-cased on parse so
    /// that equality and hashing are case-insensitive.
    pub fn parse(s: &str) -> Self {
        let mut p = NtPath {
            text: String::with_capacity(s.len() + 1),
        };
        p.push(s);
        p
    }

    /// The path components, already lower-cased.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.text.split('\\').skip(1)
    }

    /// Number of components; the root has zero.
    pub fn depth(&self) -> usize {
        self.text.bytes().filter(|&b| b == b'\\').count()
    }

    /// The final component, if any.
    pub fn file_name(&self) -> Option<&str> {
        let slash = self.text.rfind('\\')?;
        Some(&self.text[slash + 1..])
    }

    /// The path without its final component; the root's parent is the root.
    pub fn parent(&self) -> NtPath {
        let end = self.text.rfind('\\').unwrap_or(0);
        NtPath {
            text: self.text[..end].to_owned(),
        }
    }

    /// Appends a component, returning the extended path.
    pub fn join(&self, component: &str) -> NtPath {
        let mut text = String::with_capacity(self.text.len() + component.len() + 1);
        text.push_str(&self.text);
        let mut p = NtPath { text };
        p.push(component);
        p
    }

    /// Appends a component in place.
    pub fn push(&mut self, component: &str) {
        for c in component.split('\\').filter(|c| !c.is_empty()) {
            self.text.push('\\');
            let start = self.text.len();
            self.text.push_str(c);
            self.text[start..].make_ascii_lowercase();
        }
    }

    /// The extension of the final component (lower-case, no dot), if any.
    ///
    /// # Examples
    ///
    /// ```
    /// use nt_fs::path::NtPath;
    ///
    /// assert_eq!(NtPath::parse(r"\bin\Notepad.EXE").extension(), Some("exe"));
    /// assert_eq!(NtPath::parse(r"\etc\hosts").extension(), None);
    /// ```
    pub fn extension(&self) -> Option<&str> {
        let name = self.file_name()?;
        let dot = name.rfind('.')?;
        if dot == 0 || dot + 1 == name.len() {
            None
        } else {
            Some(&name[dot + 1..])
        }
    }

    /// True when `prefix` is an ancestor of (or equal to) this path.
    pub fn starts_with(&self, prefix: &NtPath) -> bool {
        self.text
            .strip_prefix(prefix.text.as_str())
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('\\'))
    }
}

impl fmt::Display for NtPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.text.is_empty() {
            "\\"
        } else {
            &self.text
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let p = NtPath::parse(r"\Winnt\Profiles\Alice");
        assert_eq!(p.depth(), 3);
        assert_eq!(p.to_string(), r"\winnt\profiles\alice");
        assert_eq!(NtPath::root().to_string(), "\\");
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(
            NtPath::parse(r"\WINNT\System32"),
            NtPath::parse(r"\winnt\system32")
        );
    }

    #[test]
    fn parent_and_join() {
        let p = NtPath::parse(r"\a\b\c");
        assert_eq!(p.parent(), NtPath::parse(r"\a\b"));
        assert_eq!(NtPath::root().parent(), NtPath::root());
        assert_eq!(p.parent().join("d"), NtPath::parse(r"\a\b\d"));
    }

    #[test]
    fn push_splits_on_backslash() {
        let mut p = NtPath::root();
        p.push(r"a\b");
        assert_eq!(p, NtPath::parse(r"\a\b"));
    }

    #[test]
    fn extensions() {
        assert_eq!(NtPath::parse(r"\x\y.TXT").extension(), Some("txt"));
        assert_eq!(NtPath::parse(r"\x\.profile").extension(), None);
        assert_eq!(NtPath::parse(r"\x\trailing.").extension(), None);
        assert_eq!(NtPath::parse(r"\x\a.b.c").extension(), Some("c"));
    }

    #[test]
    fn starts_with() {
        let base = NtPath::parse(r"\winnt\profiles");
        assert!(NtPath::parse(r"\winnt\profiles\alice\x.txt").starts_with(&base));
        assert!(base.starts_with(&base));
        assert!(!NtPath::parse(r"\winnt").starts_with(&base));
        assert!(!NtPath::parse(r"\winnt\profilesx").starts_with(&base));
    }

    #[test]
    fn empty_components_ignored() {
        assert_eq!(NtPath::parse(r"\\a\\\b\"), NtPath::parse(r"\a\b"));
    }
}
