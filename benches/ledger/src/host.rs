//! Host disclosure: every report says what it was measured on.

use std::path::Path;
use std::process::Command;

/// The repository root, two levels above this package.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The fields printed with every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Reads the disclosure fields from the running host.
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: first_line("rustc", &["--version"]),
            // Only ask git when the repository root is right there: in
            // an exported tree git would go looking in the parents.
            commit: if Path::new(REPO_ROOT).join(".git").exists() {
                first_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
        }
    }
}
