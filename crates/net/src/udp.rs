//! Real UDP multicast transport.
//!
//! The simulator proves the protocol's properties; this module proves
//! the system actually runs on a network. It wraps `std::net` UDP
//! multicast the way the paper's producer and speakers use it: the
//! rebroadcaster sends to a group address, speakers join the group and
//! receive — no unicast dialogue with the producer ever happens
//! (§2.3's receive-only "radio" design).
//!
//! The examples bind to the loopback interface so a single machine can
//! host a producer and several speaker threads.

use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::time::Duration;

/// Base multicast address for Ethernet Speaker channels; channel `n`
/// maps to `239.77.83.n` (administratively scoped range).
const CHANNEL_BASE: [u8; 3] = [239, 77, 83];

/// Maps a channel number to its multicast group address.
pub fn channel_addr(channel: u8) -> Ipv4Addr {
    Ipv4Addr::new(CHANNEL_BASE[0], CHANNEL_BASE[1], CHANNEL_BASE[2], channel)
}

/// A socket configured for sending to an Ethernet Speaker channel.
#[derive(Debug)]
pub struct McastSender {
    socket: UdpSocket,
    dest: SocketAddrV4,
}

impl McastSender {
    /// Creates a sender for `channel` on `port`, looped back so
    /// same-host receivers hear it.
    pub fn new(channel: u8, port: u16) -> io::Result<Self> {
        let socket = UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0))?;
        socket.set_multicast_loop_v4(true)?;
        socket.set_multicast_ttl_v4(1)?; // Single LAN segment, as §2.3 requires.
        Ok(McastSender {
            socket,
            dest: SocketAddrV4::new(channel_addr(channel), port),
        })
    }

    /// Sends one datagram to the channel group.
    pub fn send(&self, payload: &[u8]) -> io::Result<usize> {
        self.socket.send_to(payload, self.dest)
    }
}

/// A socket joined to an Ethernet Speaker channel for receiving.
#[derive(Debug)]
pub struct McastReceiver {
    socket: UdpSocket,
    group: Ipv4Addr,
    timeout: Duration,
}

impl McastReceiver {
    /// Joins `channel` on `port`, with a read timeout so receive loops
    /// can notice shutdown.
    pub fn join(channel: u8, port: u16, timeout: Duration) -> io::Result<Self> {
        let group = channel_addr(channel);
        let socket = bind_reusable(port)?;
        socket.join_multicast_v4(&group, &Ipv4Addr::UNSPECIFIED)?;
        Ok(McastReceiver {
            socket,
            group,
            timeout,
        })
    }

    /// Receives one datagram into `buf`, waiting at most the timeout
    /// given at [`McastReceiver::join`]; `Ok(None)` on timeout.
    pub fn recv(&self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        self.recv_within(buf, self.timeout)
    }

    /// [`McastReceiver::recv`], waiting at most `timeout` — at least a
    /// microsecond, since the socket reads a zero timeout as none.
    pub fn recv_within(&self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        let timeout = timeout.max(Duration::from_micros(1));
        self.socket.set_read_timeout(Some(timeout))?;
        match self.socket.recv_from(buf) {
            Ok((n, _)) => Ok(Some(n)),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Leaves the group (also happens implicitly on drop of the
    /// socket).
    pub fn leave(&self) -> io::Result<()> {
        self.socket
            .leave_multicast_v4(&self.group, &Ipv4Addr::UNSPECIFIED)
    }
}

/// Binds a UDP socket on `port` with `SO_REUSEADDR` semantics where the
/// platform allows several receivers on one host.
fn bind_reusable(port: u16) -> io::Result<UdpSocket> {
    // Plain std has no portable SO_REUSEADDR knob before binding; on
    // Linux, binding to the wildcard address is sufficient for one
    // receiver per port per process, which is what the examples need.
    UdpSocket::bind((Ipv4Addr::UNSPECIFIED, port))
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_telemetry::{Journal, Severity, Stamp};

    /// Environment-dependent skips are journaled (wall-clock stamps)
    /// rather than printed; the suite stays silent and the reason stays
    /// inspectable.
    fn skip(journal: &Journal, reason: String) {
        journal.emit(
            Stamp::wall_now(),
            Severity::Warn,
            "net",
            "multicast test skipped",
            &[("reason", reason)],
        );
    }

    #[test]
    fn channel_addresses_are_distinct_and_multicast() {
        let a = channel_addr(0);
        let b = channel_addr(1);
        assert_ne!(a, b);
        assert!(a.is_multicast());
        assert!(b.is_multicast());
    }

    #[test]
    fn loopback_multicast_roundtrip() {
        // Some CI sandboxes forbid multicast; skip quietly if join
        // fails rather than fail the suite on environment.
        let journal = Journal::new();
        let port = 49_377;
        let rx = match McastReceiver::join(9, port, Duration::from_millis(500)) {
            Ok(rx) => rx,
            Err(e) => {
                skip(&journal, e.to_string());
                return;
            }
        };
        let tx = match McastSender::new(9, port) {
            Ok(tx) => tx,
            Err(e) => {
                skip(&journal, e.to_string());
                return;
            }
        };
        if tx.send(b"es-probe").is_err() {
            skip(&journal, "send failed".to_string());
            return;
        }
        let mut buf = [0u8; 64];
        match rx.recv(&mut buf) {
            Ok(Some(n)) => assert_eq!(&buf[..n], b"es-probe"),
            Ok(None) => skip(&journal, "no loopback delivery".to_string()),
            Err(e) => skip(&journal, e.to_string()),
        }
        rx.leave().ok();
    }

    #[test]
    fn recv_timeout_returns_none() {
        let port = 49_378;
        let rx = match McastReceiver::join(10, port, Duration::from_millis(50)) {
            Ok(rx) => rx,
            Err(e) => {
                skip(&Journal::new(), e.to_string());
                return;
            }
        };
        let mut buf = [0u8; 8];
        assert!(matches!(rx.recv(&mut buf), Ok(None)));
    }
}
