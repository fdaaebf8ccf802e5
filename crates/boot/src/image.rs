//! The boot server: versioned ramdisk kernels and per-machine config
//! bundles.
//!
//! §2.4: "the network boot option (was) more appealing" because "we
//! should be able to update the software on these machines without
//! having to visit each machine separately" — one image, rebooted
//! everywhere. The per-machine state travels as "a tar file that is
//! scp'd from a boot server (note that the boot server's ssh public
//! keys are stored in the ramdisk)": fetches are authenticated by a
//! key pinned inside the image.

use std::collections::BTreeMap;

use crate::dhcp::Mac;
use crate::overlay::RamdiskFs;

/// A simple keyed fingerprint standing in for the boot server's ssh
/// host key (the pinned trust root of §2.4 / §5.1).
pub type HostKey = [u8; 32];

/// A versioned ramdisk kernel image.
#[derive(Debug, Clone)]
pub struct BootImage {
    /// Monotone image version.
    pub version: u32,
    /// The common root filesystem (skeleton `/etc`, binaries).
    pub ramdisk: RamdiskFs,
    /// The boot server host key pinned inside the image.
    pub pinned_key: HostKey,
}

/// The boot server: current image plus per-MAC configuration bundles.
#[derive(Debug)]
pub struct BootServer {
    host_key: HostKey,
    image: BootImage,
    bundles: BTreeMap<Mac, RamdiskFs>,
}

impl BootServer {
    /// Creates a server with version-1 image built from `skeleton`.
    pub fn new(host_key: HostKey, skeleton: RamdiskFs) -> Self {
        BootServer {
            host_key,
            image: BootImage {
                version: 1,
                ramdisk: skeleton,
                pinned_key: host_key,
            },
            bundles: BTreeMap::new(),
        }
    }

    /// The server's host key.
    pub fn host_key(&self) -> HostKey {
        self.host_key
    }

    /// Replaces the fleet image (the "update one image, reboot
    /// everywhere" path). Bumps the version.
    pub fn update_image(&mut self, ramdisk: RamdiskFs) -> u32 {
        self.image = BootImage {
            version: self.image.version + 1,
            ramdisk,
            pinned_key: self.host_key,
        };
        self.image.version
    }

    /// Installs or replaces a machine's configuration bundle.
    pub fn set_bundle(&mut self, mac: Mac, bundle: RamdiskFs) {
        self.bundles.insert(mac, bundle);
    }

    /// TFTP/PXE image download.
    pub fn download_image(&self) -> BootImage {
        self.image.clone()
    }

    /// The scp'd config bundle fetch. The client presents the key it
    /// has pinned; a mismatch (rogue boot server) yields nothing.
    pub fn download_bundle(&self, mac: Mac, presented_key: HostKey) -> Option<RamdiskFs> {
        if presented_key != self.host_key {
            return None;
        }
        Some(self.bundles.get(&mac).cloned().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u8) -> Mac {
        Mac([2, 0, 0, 0, 0, n])
    }

    fn server() -> BootServer {
        let skel = RamdiskFs::new().with_file("/etc/es/channel", "1\n");
        BootServer::new([7u8; 32], skel)
    }

    #[test]
    fn image_versioning() {
        let mut s = server();
        assert_eq!(s.image.version, 1);
        let v = s.update_image(RamdiskFs::new().with_file("/etc/es/channel", "2\n"));
        assert_eq!(v, 2);
        let img = s.download_image();
        assert_eq!(img.version, 2);
        assert_eq!(img.ramdisk.read_str("/etc/es/channel"), Some("2\n"));
        assert_eq!(img.pinned_key, s.host_key());
    }

    #[test]
    fn bundles_are_per_machine() {
        let mut s = server();
        s.set_bundle(mac(1), RamdiskFs::new().with_file("/etc/es/name", "a\n"));
        s.set_bundle(mac(2), RamdiskFs::new().with_file("/etc/es/name", "b\n"));
        let key = s.host_key();
        let b1 = s.download_bundle(mac(1), key).unwrap();
        let b2 = s.download_bundle(mac(2), key).unwrap();
        assert_eq!(b1.read_str("/etc/es/name"), Some("a\n"));
        assert_eq!(b2.read_str("/etc/es/name"), Some("b\n"));
        // Unknown machines get an empty (all-common) bundle.
        assert!(s.download_bundle(mac(3), key).unwrap().is_empty());
    }

    #[test]
    fn wrong_key_is_refused() {
        let mut s = server();
        s.set_bundle(mac(1), RamdiskFs::new().with_file("/etc/es/name", "a\n"));
        assert!(s.download_bundle(mac(1), [0u8; 32]).is_none());
    }
}
