//! The out-of-band channel catalog (§4.3).
//!
//! "MFTP uses a separate multicast group to announce the availability
//! of data sets on other multicast groups. ... We plan to adopt this
//! approach in the next release of our streaming audio server, for the
//! announcement of information about the audio streams that are being
//! transmitted via the network. In this way the user can see which
//! programs are being multicast, rather than having to switch channels
//! to monitor the audio transmissions."
//!
//! [`CatalogAnnouncer`] multicasts the line-up periodically on a
//! well-known group as a session OFFER — the one line-up packet, the
//! same one the broker answers a DISCOVER with — so a negotiated
//! speaker on that group sets up from a catalog announce too.
//! [`ChannelBrowser`] is the receive side any speaker or management
//! console can embed. The line-up is fixed when the system is built.

use es_net::{Datagram, Lan, McastGroup, NodeId};
use es_proto::{encode_session, Packet, SessionPacket, StreamInfo};
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration};

/// Periodically announces the channel line-up.
#[derive(Clone)]
pub struct CatalogAnnouncer {
    sent: Shared<u32>,
}

impl CatalogAnnouncer {
    /// Starts announcing `streams` on `group` every second.
    pub fn start(
        sim: &mut Sim,
        lan: Lan,
        node: NodeId,
        group: McastGroup,
        streams: Vec<StreamInfo>,
    ) -> CatalogAnnouncer {
        let sent = shared(0u32);
        let counter = sent.clone();
        RepeatingTimer::start_with_phase(
            sim,
            SimDuration::from_secs(1),
            SimDuration::from_millis(50),
            move |sim| {
                let seq = {
                    let mut sent = counter.borrow_mut();
                    *sent += 1;
                    *sent - 1
                };
                let streams = streams.clone();
                let offer = encode_session(&SessionPacket::Offer { seq, streams });
                lan.multicast(sim, node, group, offer);
            },
        );
        CatalogAnnouncer { sent }
    }

    /// Announcements sent so far.
    pub fn sent(&self) -> u64 {
        u64::from(*self.sent.borrow())
    }
}

/// Receives the catalog and remembers the latest line-up.
#[derive(Clone)]
pub struct ChannelBrowser {
    /// The latest OFFER's sequence number and line-up.
    latest: Shared<Option<(u32, Vec<StreamInfo>)>>,
}

impl ChannelBrowser {
    /// Joins `group` on an existing LAN node and starts listening.
    ///
    /// Note: this replaces the node's receive handler; use a dedicated
    /// node for browsing (speakers keep their own handler).
    pub fn start(lan: &Lan, node: NodeId, group: McastGroup) -> ChannelBrowser {
        lan.join(node, group);
        let latest = shared(None);
        let st = latest.clone();
        lan.set_handler(node, move |_: &mut Sim, dg: Datagram| {
            if let Ok(Packet::Session(SessionPacket::Offer { seq, streams })) =
                es_proto::decode(&dg.payload)
            {
                let mut latest = st.borrow_mut();
                if latest.as_ref().is_none_or(|(old, _)| seq >= *old) {
                    *latest = Some((seq, streams));
                }
            }
        });
        ChannelBrowser { latest }
    }

    /// The latest line-up, if any announcement arrived.
    pub fn channels(&self) -> Vec<StreamInfo> {
        let latest = self.latest.borrow();
        latest
            .as_ref()
            .map(|(_, streams)| streams.clone())
            .unwrap_or_default()
    }

    /// Finds a channel by name.
    pub fn find(&self, name: &str) -> Option<StreamInfo> {
        self.channels().into_iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::AudioConfig;
    use es_net::LanConfig;
    use es_proto::{ClientAction, SessionClient, SessionClientConfig};

    fn info(id: u16, name: &str) -> StreamInfo {
        StreamInfo {
            stream_id: id,
            group: 10 + id,
            name: name.into(),
            codec: 3,
            config: AudioConfig::CD,
            flags: 0,
            caps: es_proto::Capabilities {
                codecs: vec![0, 3],
                sample_rates: vec![44_100],
            },
        }
    }

    /// One catalog datagram serves both of its readers: it is an OFFER,
    /// a browser learns the line-up from it, and a fresh session client
    /// answers it with a SETUP for its channel.
    #[test]
    fn one_catalog_datagram_serves_browser_and_session_client() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let server = lan.attach("server");
        let (console, tap) = (lan.attach("console"), lan.attach("tap"));
        let g = McastGroup(0);
        lan.join(server, g);
        lan.join(tap, g);
        let heard = shared(Vec::new());
        let h = heard.clone();
        lan.set_handler(tap, move |_: &mut Sim, dg: Datagram| {
            h.borrow_mut().push(dg.payload)
        });
        let lineup = vec![info(1, "radio"), info(2, "pa")];
        let announcer = CatalogAnnouncer::start(&mut sim, lan.clone(), server, g, lineup.clone());
        let browser = ChannelBrowser::start(&lan, console, g);
        assert!(browser.channels().is_empty());
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(browser.channels(), lineup);
        assert_eq!(browser.find("pa").unwrap().stream_id, 2);
        assert!(browser.find("nope").is_none());
        assert_eq!(announcer.sent(), 2);

        let heard = heard.borrow();
        assert_eq!(heard.len(), 2);
        for (seq, bytes) in heard.iter().enumerate() {
            let Ok(Packet::Session(offer @ SessionPacket::Offer { .. })) = es_proto::decode(bytes)
            else {
                panic!("catalog sent {bytes:?}");
            };
            let want = SessionPacket::Offer {
                seq: seq as u32,
                streams: lineup.clone(),
            };
            assert_eq!(offer, want);
            let mut client = SessionClient::new(SessionClientConfig::new("es1", "pa"));
            let answer = client.on_packet(0, &offer);
            assert!(
                matches!(
                    answer.as_slice(),
                    [ClientAction::Send(SessionPacket::Setup {
                        stream_id: 2,
                        ..
                    })]
                ),
                "{answer:?}"
            );
        }
    }
}
