//! The `es-analyze` command-line interface.
//!
//! ```text
//! es-analyze [--workspace] [--json] [--strict] [--telemetry-keys PATH]
//! es-analyze [--as-crate NAME] [--json] [--strict] PATH...
//! ```
//!
//! With no paths, the workspace is analyzed (walking up from the
//! current directory to the `Cargo.toml` with a `[workspace]` table) —
//! `--workspace` makes that explicit. Explicit `PATH`s analyze
//! individual files — useful for fixtures and editor integration;
//! `--as-crate` overrides crate attribution so scoped rules apply.
//! `--telemetry-keys PATH` writes the workspace telemetry key
//! inventory. Exit status: 0 when no active findings, 1 when findings
//! remain, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use es_analyze::report::json_str;
use es_analyze::{analyze_file, analyze_workspace_full, passes, rules, walker, Report};

struct Opts {
    json: bool,
    strict: bool,
    list_rules: bool,
    as_crate: Option<String>,
    telemetry_keys: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: es-analyze [--workspace] [--json] [--strict] [--telemetry-keys PATH]\n\
     \x20      es-analyze [--as-crate NAME] [--json] [--strict] PATH...\n\
     \x20      es-analyze --list-rules"
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        json: false,
        strict: false,
        list_rules: false,
        as_crate: None,
        telemetry_keys: None,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // Workspace mode is the no-paths default; the flag is
            // accepted for explicitness and old scripts.
            "--workspace" => {}
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--list-rules" => opts.list_rules = true,
            "--as-crate" => {
                opts.as_crate = Some(
                    it.next()
                        .ok_or_else(|| "--as-crate needs a crate name".to_string())?
                        .clone(),
                );
            }
            "--telemetry-keys" => {
                opts.telemetry_keys =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        "--telemetry-keys needs a path".to_string()
                    })?));
            }
            "-h" | "--help" => return Err(usage().to_string()),
            p if !p.starts_with('-') => opts.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn analyze_paths(opts: &Opts) -> std::io::Result<Report> {
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &opts.paths {
        // `--as-crate net` analyzes the file as if it lived in
        // `crates/net/src/` — crate-scoped rules apply (the fixture
        // harness depends on it).
        let rel = match &opts.as_crate {
            Some(krate) => format!(
                "crates/{krate}/src/{}",
                path.file_name().unwrap_or_default().to_string_lossy()
            ),
            None => path.display().to_string().replace('\\', "/"),
        };
        let file = walker::attribute(path.clone(), rel);
        findings.extend(analyze_file(&file)?);
        scanned += 1;
    }
    findings.sort_by(|a, b| {
        (a.rel.as_str(), a.line, a.rule.as_str()).cmp(&(b.rel.as_str(), b.line, b.rule.as_str()))
    });
    Ok(Report {
        root: String::new(),
        files_scanned: scanned,
        findings,
    })
}

/// Renders the telemetry key inventory as deterministic JSON, sorted
/// by (component, name).
fn inventory_json(inv: &[passes::KeyEntry]) -> String {
    let keys: Vec<String> = inv
        .iter()
        .map(|k| {
            format!(
                "{{\"component\":{},\"name\":{},\"kind\":{},\"writers\":{},\"readers\":{}}}",
                json_str(&k.component),
                json_str(&k.name),
                json_str(k.kind()),
                k.writers,
                k.readers
            )
        })
        .collect();
    format!("{{\"schema_version\":1,\"keys\":[{}]}}\n", keys.join(","))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in rules::all() {
            println!("{:<20} {}", rule.id, rule.summary);
        }
        for pass in passes::all() {
            println!("{:<20} {}", pass.id, pass.summary);
        }
        return ExitCode::SUCCESS;
    }

    let report = if opts.paths.is_empty() {
        let Some(root) = find_workspace_root() else {
            eprintln!("es-analyze: no workspace Cargo.toml above the current directory");
            return ExitCode::from(2);
        };
        match analyze_workspace_full(&root) {
            Ok((report, inventory)) => {
                if let Some(path) = &opts.telemetry_keys {
                    if let Some(parent) = path.parent() {
                        let _ = std::fs::create_dir_all(parent);
                    }
                    if let Err(e) = std::fs::write(path, inventory_json(&inventory)) {
                        eprintln!("es-analyze: writing {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                }
                report
            }
            Err(e) => {
                eprintln!("es-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match analyze_paths(&opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("es-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    };

    if opts.json {
        print!("{}", report.json());
    } else {
        print!("{}", report.human(opts.strict));
    }
    if report.active_count() > 0 {
        // Findings also go to stderr in JSON mode so a redirected gate
        // still shows the operator what failed.
        if opts.json {
            eprint!("{}", report.human(opts.strict));
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_unknown_flags_and_defaults_to_workspace() {
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        // No arguments = workspace mode (the gate's `-- --strict`
        // invocation relies on this).
        let o = parse_args(&[]).unwrap();
        assert!(o.paths.is_empty());
        let o = parse_args(&[
            "--workspace".to_string(),
            "--json".to_string(),
            "--strict".to_string(),
        ])
        .unwrap();
        assert!(o.json && o.strict);
    }

    #[test]
    fn parse_as_crate_and_paths() {
        let o = parse_args(&[
            "--as-crate".to_string(),
            "net".to_string(),
            "tests/fixtures/x.rs".to_string(),
        ])
        .unwrap();
        assert_eq!(o.as_crate.as_deref(), Some("net"));
        assert_eq!(o.paths, vec![PathBuf::from("tests/fixtures/x.rs")]);
    }

    #[test]
    fn parse_telemetry_keys_path() {
        let o = parse_args(&[
            "--telemetry-keys".to_string(),
            "results/telemetry-keys.json".to_string(),
        ])
        .unwrap();
        assert_eq!(
            o.telemetry_keys.as_deref(),
            Some(std::path::Path::new("results/telemetry-keys.json"))
        );
        assert!(parse_args(&["--telemetry-keys".to_string()]).is_err());
    }
}
