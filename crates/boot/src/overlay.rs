//! The ramdisk filesystem with configuration overlay.
//!
//! "The ramdisk contains only programs and data that are common to all
//! ESs. ... The configuration tar file is expanded over the skeleton
//! /etc directory, thus the machine-specific information overwrites
//! the any common configuration" (§2.4). Mounted read-only is the whole
//! point: "if we use a Flash boot medium, we would not be able to have
//! it mounted read-write because a power (or any other) failure may
//! create a non-bootable machine" — a ramdisk can be scribbled on and
//! is rebuilt fresh at every boot.

use std::collections::BTreeMap;

/// An in-memory filesystem image: path → contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RamdiskFs {
    files: BTreeMap<String, Vec<u8>>,
}

impl RamdiskFs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a file; returns `self` for builder chains.
    pub fn with_file(mut self, path: impl Into<String>, contents: impl Into<Vec<u8>>) -> Self {
        self.insert(path, contents);
        self
    }

    /// Adds or replaces a file.
    pub fn insert(&mut self, path: impl Into<String>, contents: impl Into<Vec<u8>>) {
        let path = normalize(&path.into());
        self.files.insert(path, contents.into());
    }

    /// Reads a file.
    pub fn read(&self, path: &str) -> Option<&[u8]> {
        self.files.get(&normalize(path)).map(|v| v.as_slice())
    }

    /// Reads a file as UTF-8 (configuration files are text).
    pub fn read_str(&self, path: &str) -> Option<&str> {
        self.read(path).and_then(|b| core::str::from_utf8(b).ok())
    }

    /// True if the path exists.
    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(&normalize(path))
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Expands `bundle` over this filesystem — the paper's overwrite
    /// rule: bundle files win, everything else is preserved. Returns
    /// the number of files overwritten (as opposed to added).
    pub fn overlay(&mut self, bundle: &RamdiskFs) -> usize {
        let mut overwritten = 0;
        for (path, contents) in &bundle.files {
            if self.files.insert(path.clone(), contents.clone()).is_some() {
                overwritten += 1;
            }
        }
        overwritten
    }
}

fn normalize(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 1);
    if !path.starts_with('/') {
        out.push('/');
    }
    let mut prev_slash = false;
    for c in path.chars() {
        if c == '/' {
            if prev_slash {
                continue;
            }
            prev_slash = true;
        } else {
            prev_slash = false;
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skeleton() -> RamdiskFs {
        RamdiskFs::new()
            .with_file("/etc/hosts", "127.0.0.1 localhost\n")
            .with_file("/etc/es/channel", "0\n")
            .with_file("/etc/es/volume", "1.0\n")
            .with_file("/bin/rebroadcast", vec![0x7f, b'E', b'L', b'F'])
    }

    #[test]
    fn machine_config_overwrites_common() {
        let mut fs = skeleton();
        let bundle = RamdiskFs::new()
            .with_file("/etc/es/channel", "3\n")
            .with_file("/etc/es/name", "lobby-west\n");
        let overwritten = fs.overlay(&bundle);
        assert_eq!(overwritten, 1);
        assert_eq!(fs.read_str("/etc/es/channel"), Some("3\n"));
        assert_eq!(fs.read_str("/etc/es/name"), Some("lobby-west\n"));
        // Common files not in the bundle survive.
        assert_eq!(fs.read_str("/etc/es/volume"), Some("1.0\n"));
        assert!(fs.contains("/bin/rebroadcast"));
    }

    #[test]
    fn path_normalization() {
        let fs = RamdiskFs::new().with_file("etc//es/channel", "7");
        assert_eq!(fs.read_str("/etc/es/channel"), Some("7"));
        assert_eq!(fs.read_str("etc/es/channel"), Some("7"));
        assert!(!fs.contains("/etc/es"));
    }

    #[test]
    fn binary_contents_roundtrip() {
        let fs = skeleton();
        assert_eq!(
            fs.read("/bin/rebroadcast"),
            Some(&[0x7f, b'E', b'L', b'F'][..])
        );
        assert_eq!(fs.read_str("/bin/rebroadcast"), Some("\u{7f}ELF"));
        let fs = RamdiskFs::new().with_file("/x", vec![0xFF, 0xFE]);
        assert_eq!(fs.read_str("/x"), None, "invalid utf-8 is not text");
    }

    #[test]
    fn empty_overlay_is_noop() {
        let mut fs = skeleton();
        let before = fs.clone();
        assert_eq!(fs.overlay(&RamdiskFs::new()), 0);
        assert_eq!(fs, before);
        assert_eq!(fs.files.len(), 4);
        assert!(!fs.is_empty());
    }
}
