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
//! [`CatalogAnnouncer`] multicasts the stream list periodically on a
//! well-known group; [`ChannelBrowser`] is the receive side any speaker
//! or management console can embed.

use bytes::Bytes;

use es_net::{Datagram, Lan, McastGroup, NodeId};
use es_proto::{encode_announce, AnnouncePacket, Packet, StreamInfo};
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration, SimTime};

/// Periodically announces the channel line-up.
#[derive(Clone)]
pub struct CatalogAnnouncer {
    state: Shared<AnnouncerState>,
}

struct AnnouncerState {
    streams: Vec<StreamInfo>,
    seq: u32,
    sent: u64,
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
        let state = shared(AnnouncerState {
            streams,
            seq: 0,
            sent: 0,
        });
        let st2 = state.clone();
        RepeatingTimer::start_with_phase(
            sim,
            SimDuration::from_secs(1),
            SimDuration::from_millis(50),
            move |sim| {
                let pkt = {
                    let mut st = st2.borrow_mut();
                    let pkt = AnnouncePacket {
                        seq: st.seq,
                        producer_time_us: sim.now().as_micros(),
                        streams: st.streams.clone(),
                    };
                    st.seq += 1;
                    st.sent += 1;
                    pkt
                };
                lan.multicast(
                    sim,
                    node,
                    group,
                    Bytes::from(encode_announce(&pkt).to_vec()),
                );
            },
        );
        CatalogAnnouncer { state }
    }

    /// Replaces the advertised line-up (e.g. a channel went off the
    /// air; the server "can suspend transmission of a particular
    /// channel").
    pub fn set_streams(&self, streams: Vec<StreamInfo>) {
        self.state.borrow_mut().streams = streams;
    }

    /// Announcements sent so far.
    pub fn sent(&self) -> u64 {
        self.state.borrow().sent
    }
}

/// Receives the catalog and remembers the latest line-up.
#[derive(Clone)]
pub struct ChannelBrowser {
    state: Shared<BrowserState>,
}

struct BrowserState {
    latest: Option<AnnouncePacket>,
    received_at: Option<SimTime>,
}

impl ChannelBrowser {
    /// Joins `group` on an existing LAN node and starts listening.
    ///
    /// Note: this replaces the node's receive handler; use a dedicated
    /// node for browsing (speakers keep their own handler).
    pub fn start(lan: &Lan, node: NodeId, group: McastGroup) -> ChannelBrowser {
        lan.join(node, group);
        let state = shared(BrowserState {
            latest: None,
            received_at: None,
        });
        let st = state.clone();
        lan.set_handler(node, move |sim: &mut Sim, dg: Datagram| {
            if let Ok(Packet::Announce(a)) = es_proto::decode(&dg.payload) {
                let mut s = st.borrow_mut();
                let newer = s.latest.as_ref().is_none_or(|old| a.seq >= old.seq);
                if newer {
                    s.latest = Some(a);
                    s.received_at = Some(sim.now());
                }
            }
        });
        ChannelBrowser { state }
    }

    /// The latest line-up, if any announcement arrived.
    pub fn channels(&self) -> Vec<StreamInfo> {
        self.state
            .borrow()
            .latest
            .as_ref()
            .map(|a| a.streams.clone())
            .unwrap_or_default()
    }

    /// Finds a channel by name.
    pub fn find(&self, name: &str) -> Option<StreamInfo> {
        self.channels().into_iter().find(|s| s.name == name)
    }

    /// When the latest announcement arrived.
    pub fn last_heard(&self) -> Option<SimTime> {
        self.state.borrow().received_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::AudioConfig;
    use es_net::LanConfig;

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
                device_class: es_proto::DeviceClass::Standard,
            },
        }
    }

    #[test]
    fn browser_learns_the_lineup() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let server = lan.attach("server");
        let console = lan.attach("console");
        let g = McastGroup(0);
        lan.join(server, g);
        let announcer = CatalogAnnouncer::start(
            &mut sim,
            lan.clone(),
            server,
            g,
            vec![info(1, "radio"), info(2, "pa")],
        );
        let browser = ChannelBrowser::start(&lan, console, g);
        assert!(browser.channels().is_empty());
        sim.run_for(SimDuration::from_secs(2));
        let chans = browser.channels();
        assert_eq!(chans.len(), 2);
        assert_eq!(browser.find("pa").unwrap().stream_id, 2);
        assert!(browser.find("nope").is_none());
        assert!(browser.last_heard().is_some());
        assert!(announcer.sent() >= 2);
    }

    #[test]
    fn lineup_updates_propagate() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let server = lan.attach("server");
        let console = lan.attach("console");
        let g = McastGroup(0);
        lan.join(server, g);
        let announcer =
            CatalogAnnouncer::start(&mut sim, lan.clone(), server, g, vec![info(1, "radio")]);
        let browser = ChannelBrowser::start(&lan, console, g);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(browser.channels().len(), 1);
        // A channel is suspended: next announcement drops it.
        announcer.set_streams(vec![]);
        sim.run_for(SimDuration::from_secs(2));
        assert!(browser.channels().is_empty());
    }
}
