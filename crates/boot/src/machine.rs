//! The speaker appliance's boot state machine.
//!
//! PXE → DHCP → kernel/ramdisk download → config bundle fetch (key
//! pinned in the ramdisk) → overlay → service start. The sequence is
//! §2.4's, including the two failure properties the design buys:
//! a machine that loses power mid-boot simply reboots into the same
//! sequence (no writable boot medium to corrupt), and a machine that
//! reaches a rogue boot server refuses the config fetch because the
//! pinned key does not match.

use crate::dhcp::{DhcpServer, Lease, Mac};
use crate::image::{BootServer, HostKey};
use crate::overlay::RamdiskFs;

/// Where in the boot sequence a machine is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootPhase {
    /// Powered off.
    PoweredOff,
    /// PXE firmware broadcasting for DHCP.
    Dhcp,
    /// Downloading the ramdisk kernel.
    LoadingKernel,
    /// Fetching the machine-specific configuration bundle.
    FetchingConfig,
    /// Up and running the rebroadcast/speaker software.
    Running,
    /// Boot failed (reason retained).
    Failed,
}

/// Boot failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootError {
    /// No DHCP lease (pool exhausted or no server).
    NoLease,
    /// The config fetch was refused (key mismatch — rogue server).
    ConfigFetchRefused,
}

impl core::fmt::Display for BootError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BootError::NoLease => f.write_str("no DHCP lease"),
            BootError::ConfigFetchRefused => {
                f.write_str("config fetch refused: boot server key mismatch")
            }
        }
    }
}

impl std::error::Error for BootError {}

/// A fully booted system: the live filesystem plus identity.
#[derive(Debug, Clone)]
pub struct BootedSystem {
    /// Network identity.
    pub lease: Lease,
    /// Image version running.
    pub image_version: u32,
    /// The live root filesystem (skeleton + overlay).
    pub fs: RamdiskFs,
}

impl BootedSystem {
    /// Convenience: the channel this speaker should tune, from
    /// configuration (file overrides lease option).
    pub fn configured_channel(&self) -> u16 {
        self.fs
            .read_str("/etc/es/channel")
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(self.lease.channel)
    }

    /// Convenience: the configured volume (1.0 when absent).
    pub fn configured_volume(&self) -> f64 {
        self.fs
            .read_str("/etc/es/volume")
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(1.0)
    }
}

/// One Ethernet Speaker appliance.
#[derive(Debug)]
pub struct SpeakerMachine {
    mac: Mac,
    phase: BootPhase,
}

impl SpeakerMachine {
    /// A powered-off machine with the given MAC.
    pub fn new(mac: Mac) -> Self {
        SpeakerMachine {
            mac,
            phase: BootPhase::PoweredOff,
        }
    }

    /// Runs the whole boot sequence against the given servers. The
    /// `reachable_key` is the host key of whatever machine answers the
    /// config fetch — normally `boot.host_key()`, different under a
    /// rogue-server attack.
    pub fn boot(
        &mut self,
        dhcp: &mut DhcpServer,
        boot: &mut BootServer,
        reachable_key: HostKey,
    ) -> Result<BootedSystem, BootError> {
        self.phase = BootPhase::Dhcp;
        let Some(lease) = dhcp.request(self.mac) else {
            self.phase = BootPhase::Failed;
            return Err(BootError::NoLease);
        };
        self.phase = BootPhase::LoadingKernel;
        let image = boot.download_image();
        self.phase = BootPhase::FetchingConfig;
        // The ramdisk's pinned key must match the server we reached.
        if image.pinned_key != reachable_key {
            self.phase = BootPhase::Failed;
            return Err(BootError::ConfigFetchRefused);
        }
        let Some(bundle) = boot.download_bundle(self.mac, image.pinned_key) else {
            self.phase = BootPhase::Failed;
            return Err(BootError::ConfigFetchRefused);
        };
        let mut fs = image.ramdisk.clone();
        fs.overlay(&bundle);
        self.phase = BootPhase::Running;
        Ok(BootedSystem {
            lease,
            image_version: image.version,
            fs,
        })
    }

    /// Power cycle: back to the start, no state carried (ramdisk).
    pub fn power_off(&mut self) {
        self.phase = BootPhase::PoweredOff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dhcp::DhcpConfig;

    fn mac(n: u8) -> Mac {
        Mac([2, 0, 0, 0, 0, n])
    }

    fn servers() -> (DhcpServer, BootServer) {
        let dhcp = DhcpServer::new(DhcpConfig::default());
        let skel = RamdiskFs::new()
            .with_file("/etc/es/channel", "1\n")
            .with_file("/etc/es/volume", "1.0\n");
        let boot = BootServer::new([9u8; 32], skel);
        (dhcp, boot)
    }

    #[test]
    fn clean_boot_reaches_running() {
        let (mut dhcp, mut boot) = servers();
        let key = boot.host_key();
        let mut m = SpeakerMachine::new(mac(1));
        let sys = m.boot(&mut dhcp, &mut boot, key).unwrap();
        assert_eq!(m.phase, BootPhase::Running);
        assert_eq!(sys.image_version, 1);
        assert_eq!(sys.configured_channel(), 1);
        assert_eq!(sys.configured_volume(), 1.0);
    }

    #[test]
    fn machine_specific_config_wins() {
        let (mut dhcp, mut boot) = servers();
        let key = boot.host_key();
        boot.set_bundle(
            mac(1),
            RamdiskFs::new()
                .with_file("/etc/es/channel", "5\n")
                .with_file("/etc/es/volume", "0.25\n"),
        );
        let mut m = SpeakerMachine::new(mac(1));
        let sys = m.boot(&mut dhcp, &mut boot, key).unwrap();
        assert_eq!(sys.configured_channel(), 5);
        assert_eq!(sys.configured_volume(), 0.25);
        // A different machine keeps the defaults.
        let mut m2 = SpeakerMachine::new(mac(2));
        let sys2 = m2.boot(&mut dhcp, &mut boot, key).unwrap();
        assert_eq!(sys2.configured_channel(), 1);
    }

    #[test]
    fn fleet_update_is_one_image_bump() {
        let (mut dhcp, mut boot) = servers();
        let key = boot.host_key();
        let mut machines: Vec<SpeakerMachine> =
            (1..=5).map(|n| SpeakerMachine::new(mac(n))).collect();
        for m in &mut machines {
            assert_eq!(m.boot(&mut dhcp, &mut boot, key).unwrap().image_version, 1);
        }
        boot.update_image(RamdiskFs::new().with_file("/etc/es/channel", "2\n"));
        for m in &mut machines {
            m.power_off();
            let sys = m.boot(&mut dhcp, &mut boot, key).unwrap();
            assert_eq!(sys.image_version, 2);
            assert_eq!(sys.configured_channel(), 2);
        }
    }

    #[test]
    fn rogue_boot_server_is_refused() {
        let (mut dhcp, mut boot) = servers();
        let rogue_key = [0xBAu8; 32];
        let mut m = SpeakerMachine::new(mac(1));
        let err = m.boot(&mut dhcp, &mut boot, rogue_key).unwrap_err();
        assert_eq!(err, BootError::ConfigFetchRefused);
        assert_eq!(m.phase, BootPhase::Failed);
        assert!(format!("{err}").contains("key mismatch"));
    }

    #[test]
    fn dhcp_exhaustion_fails_boot_and_reboot_recovers() {
        let mut dhcp = DhcpServer::new(DhcpConfig {
            pool_start: 10,
            pool_size: 1,
            ..DhcpConfig::default()
        });
        let skel = RamdiskFs::new();
        let mut boot = BootServer::new([9u8; 32], skel);
        let key = boot.host_key();
        let mut a = SpeakerMachine::new(mac(1));
        let mut b = SpeakerMachine::new(mac(2));
        a.boot(&mut dhcp, &mut boot, key).unwrap();
        assert_eq!(
            b.boot(&mut dhcp, &mut boot, key).unwrap_err(),
            BootError::NoLease
        );
        assert_eq!(b.phase, BootPhase::Failed);
        // Power-failure-mid-boot property: a reboots fine, state fresh.
        a.power_off();
        assert!(a.boot(&mut dhcp, &mut boot, key).is_ok());
    }

    #[test]
    fn lease_channel_used_when_no_config_file() {
        let mut dhcp = DhcpServer::new(DhcpConfig {
            default_channel: 9,
            ..DhcpConfig::default()
        });
        let mut boot = BootServer::new([9u8; 32], RamdiskFs::new());
        let key = boot.host_key();
        let mut m = SpeakerMachine::new(mac(1));
        let sys = m.boot(&mut dhcp, &mut boot, key).unwrap();
        assert_eq!(
            sys.configured_channel(),
            9,
            "falls back to the lease option"
        );
    }
}
