//! The DHCP model: network identity plus Ethernet-Speaker options.
//!
//! §2.4: "Network setup may be done via DHCP, but we also need
//! additional data such as the multicast addresses used for the audio
//! channels, channel selection, etc." The server hands out leases keyed
//! by MAC address with stable assignment, carrying the ES-specific
//! options alongside the usual address/boot-server fields.

use std::collections::BTreeMap;

/// A MAC address (the machine's identity for its lease).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mac(pub [u8; 6]);

impl core::fmt::Display for Mac {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

/// Site-wide DHCP parameters.
#[derive(Debug, Clone)]
pub struct DhcpConfig {
    /// First address of the dynamic pool (last octet).
    pub pool_start: u8,
    /// Pool size.
    pub pool_size: u8,
    /// Boot server address advertised in every lease ("next-server").
    pub boot_server: [u8; 4],
    /// Multicast group of the announce catalog, an ES-specific option.
    pub announce_group: u16,
    /// Channel every speaker is told to tune at boot.
    pub default_channel: u16,
}

impl Default for DhcpConfig {
    fn default() -> Self {
        DhcpConfig {
            pool_start: 100,
            pool_size: 100,
            boot_server: [10, 0, 0, 1],
            announce_group: 0,
            default_channel: 1,
        }
    }
}

/// A granted lease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Assigned IPv4 address.
    pub ip: [u8; 4],
    /// Boot server to fetch the kernel and config from.
    pub boot_server: [u8; 4],
    /// Catalog multicast group.
    pub announce_group: u16,
    /// Channel this speaker should tune at boot.
    pub channel: u16,
}

/// The DHCP server.
#[derive(Debug)]
pub struct DhcpServer {
    config: DhcpConfig,
    assigned: BTreeMap<Mac, u8>,
    next_free: u8,
}

impl DhcpServer {
    /// Creates a server.
    pub fn new(config: DhcpConfig) -> Self {
        let next_free = config.pool_start;
        DhcpServer {
            config,
            assigned: BTreeMap::new(),
            next_free,
        }
    }

    /// Handles a DISCOVER/REQUEST: returns a lease, stable per MAC.
    /// `None` when the pool is exhausted.
    pub fn request(&mut self, mac: Mac) -> Option<Lease> {
        let last = match self.assigned.get(&mac) {
            Some(&octet) => octet,
            None => {
                let end = self.config.pool_start.saturating_add(self.config.pool_size);
                if self.next_free >= end {
                    return None;
                }
                let octet = self.next_free;
                self.next_free += 1;
                octet
            }
        };
        self.assigned.insert(mac, last);
        let mut ip = self.config.boot_server;
        ip[3] = last;
        Some(Lease {
            ip,
            boot_server: self.config.boot_server,
            announce_group: self.config.announce_group,
            channel: self.config.default_channel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u8) -> Mac {
        Mac([0x02, 0, 0, 0, 0, n])
    }

    #[test]
    fn leases_are_stable_per_mac() {
        let mut s = DhcpServer::new(DhcpConfig::default());
        let a1 = s.request(mac(1)).unwrap();
        let b = s.request(mac(2)).unwrap();
        let a2 = s.request(mac(1)).unwrap();
        assert_eq!(a1.ip, a2.ip, "same MAC, same address");
        assert_ne!(a1.ip, b.ip);
        assert_eq!(s.assigned.len(), 2);
        assert_eq!(a1.channel, 1, "the default channel");
    }

    #[test]
    fn pool_exhaustion() {
        let mut s = DhcpServer::new(DhcpConfig {
            pool_start: 10,
            pool_size: 2,
            ..DhcpConfig::default()
        });
        assert!(s.request(mac(1)).is_some());
        assert!(s.request(mac(2)).is_some());
        assert!(s.request(mac(3)).is_none(), "pool of 2 exhausted");
        // Existing leases still renew.
        assert!(s.request(mac(1)).is_some());
    }

    #[test]
    fn lease_carries_es_options() {
        let mut s = DhcpServer::new(DhcpConfig {
            announce_group: 42,
            ..DhcpConfig::default()
        });
        let l = s.request(mac(5)).unwrap();
        assert_eq!(l.announce_group, 42);
        assert_eq!(l.boot_server, [10, 0, 0, 1]);
    }

    #[test]
    fn mac_display() {
        assert_eq!(format!("{}", mac(0xAB)), "02:00:00:00:00:ab");
    }
}
