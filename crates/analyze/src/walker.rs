//! Workspace walker and module-path attribution.
//!
//! Finds every `.rs` file under the workspace root and attributes it
//! to a crate (`crates/net/…` → `net`, `compat/rand/…` →
//! `compat-rand`, everything else → `root`) and a role. Rules use the
//! attribution to scope themselves: wall-clock reads are legal in the
//! bench harness, nowhere else without a pragma.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What kind of target a file belongs to, judged from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library source (`src/`).
    Lib,
    /// Integration tests (`tests/`).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// One source file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the workspace root, `/`-separated (stable for
    /// reports and fingerprints).
    pub rel: String,
    /// Owning crate: `net`, `bench`, `compat-rand`, or `root`.
    pub krate: String,
    /// Target kind.
    pub role: Role,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// Relative path prefixes excluded from workspace analysis. The
/// analyzer's own fixtures are rule violations *by design*.
const SKIP_PREFIXES: &[&str] = &["crates/analyze/tests/fixtures"];

/// Walks `root` and returns every analyzable `.rs` file, sorted by
/// relative path so reports and JSON output are deterministic.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            let rel = rel_of(root, &path);
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_of(root, &path);
            out.push(attribute(path.clone(), rel));
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Attributes one relative path to a crate and a role.
pub fn attribute(path: PathBuf, rel: String) -> SourceFile {
    let parts: Vec<&str> = rel.split('/').collect();
    let krate = match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        ["compat", name, ..] => format!("compat-{name}"),
        _ => "root".to_string(),
    };
    let role = if parts.contains(&"benches") {
        Role::Bench
    } else if parts.contains(&"tests") {
        Role::Test
    } else if parts.contains(&"examples") {
        Role::Example
    } else {
        Role::Lib
    };
    SourceFile {
        path,
        rel,
        krate,
        role,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(rel: &str) -> SourceFile {
        attribute(PathBuf::from(rel), rel.to_string())
    }

    #[test]
    fn crate_and_role_attribution() {
        let f = attr("crates/net/src/lan.rs");
        assert_eq!(f.krate, "net");
        assert_eq!(f.role, Role::Lib);

        let f = attr("crates/bench/benches/fig4_cpu_load.rs");
        assert_eq!(f.krate, "bench");
        assert_eq!(f.role, Role::Bench);

        let f = attr("compat/rand/src/lib.rs");
        assert_eq!(f.krate, "compat-rand");
        assert_eq!(f.role, Role::Lib);

        let f = attr("tests/determinism.rs");
        assert_eq!(f.krate, "root");
        assert_eq!(f.role, Role::Test);

        let f = attr("examples/quickstart.rs");
        assert_eq!(f.krate, "root");
        assert_eq!(f.role, Role::Example);
    }

    #[test]
    fn fixtures_are_skipped_in_discovery() {
        // The prefix list is what `discover` consults; assert the
        // fixtures directory stays on it.
        assert!(SKIP_PREFIXES
            .iter()
            .any(|p| "crates/analyze/tests/fixtures/wall_clock_pos.rs".starts_with(p)));
    }
}
