//! Central priority override (§5.3).
//!
//! "Alternatively all ESs within an administrative domain may need to
//! be controlled centrally (e.g., movies shown on TV sets on airplane
//! seats can be overridden by crew announcements)." The controller
//! watches a priority channel's multicast group from its own node;
//! while data flows there, every managed speaker is tuned to it, and
//! once the announcement goes quiet they are returned to their previous
//! channels.

use es_net::{Datagram, Lan, McastGroup, NodeId};
use es_proto::Packet;
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration, SimTime};
use es_speaker::EthernetSpeaker;

/// Controller statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverrideStats {
    /// Times the fleet was switched to the priority channel.
    pub overrides: u64,
    /// Times the fleet was restored.
    pub restores: u64,
}

impl es_telemetry::Telemetry for OverrideStats {
    fn record(&self, registry: &mut es_telemetry::Registry) {
        let mut s = registry.component("override");
        s.counter("overrides", self.overrides)
            .counter("restores", self.restores);
    }
}

struct CtlState {
    speakers: Vec<(EthernetSpeaker, Option<McastGroup>)>,
    priority_group: McastGroup,
    last_data: Option<SimTime>,
    active: bool,
    hold: SimDuration,
    stats: OverrideStats,
}

/// The central override controller.
#[derive(Clone)]
pub struct OverrideController {
    state: Shared<CtlState>,
}

impl OverrideController {
    /// Starts the controller: `node` joins `priority_group` and watches
    /// for data packets; `speakers` is the managed fleet. `hold` is how
    /// long after the last announcement packet the override persists.
    pub fn start(
        sim: &mut Sim,
        lan: &Lan,
        node: NodeId,
        priority_group: McastGroup,
        speakers: Vec<EthernetSpeaker>,
        hold: SimDuration,
    ) -> OverrideController {
        lan.join(node, priority_group);
        let state = shared(CtlState {
            speakers: speakers.into_iter().map(|s| (s, None)).collect(),
            priority_group,
            last_data: None,
            active: false,
            hold,
            stats: OverrideStats::default(),
        });
        let ctl = OverrideController {
            state: state.clone(),
        };
        let c2 = ctl.clone();
        lan.set_handler(node, move |sim: &mut Sim, dg: Datagram| {
            if let Ok(Packet::Data(_)) = es_proto::decode(&dg.payload) {
                c2.on_priority_data(sim);
            }
        });
        // Staleness checker: restore once the announcement stops.
        let c3 = ctl.clone();
        RepeatingTimer::start(sim, SimDuration::from_millis(100), move |sim| {
            c3.check_stale(sim);
        });
        ctl
    }

    fn on_priority_data(&self, sim: &mut Sim) {
        let engage = {
            let mut st = self.state.borrow_mut();
            st.last_data = Some(sim.now());
            !st.active
        };
        if engage {
            let mut st = self.state.borrow_mut();
            st.active = true;
            st.stats.overrides += 1;
            let pg = st.priority_group;
            // Remember where each speaker was, then seize it.
            let mut work = Vec::new();
            for (spk, saved) in st.speakers.iter_mut() {
                *saved = Some(spk.tuned());
                work.push(spk.clone());
            }
            drop(st);
            for spk in work {
                spk.tune(sim, pg);
            }
        }
    }

    fn check_stale(&self, sim: &mut Sim) {
        let restore = {
            let st = self.state.borrow();
            st.active
                && st
                    .last_data
                    .is_some_and(|t| sim.now().saturating_since(t) > st.hold)
        };
        if restore {
            let mut st = self.state.borrow_mut();
            st.active = false;
            st.stats.restores += 1;
            let mut work = Vec::new();
            for (spk, saved) in st.speakers.iter_mut() {
                if let Some(g) = saved.take() {
                    work.push((spk.clone(), g));
                }
            }
            drop(st);
            for (spk, g) in work {
                spk.tune(sim, g);
            }
        }
    }

    /// True while the fleet is seized.
    pub fn is_active(&self) -> bool {
        self.state.borrow().active
    }

    /// Counter snapshot.
    pub fn stats(&self) -> OverrideStats {
        self.state.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use es_audio::AudioConfig;
    use es_codec::CodecId;
    use es_net::LanConfig;
    use es_proto::{encode_control, encode_data, ControlPacket, DataPacket};
    use es_speaker::SpeakerConfig;

    fn data(seq: u32) -> Bytes {
        encode_data(&DataPacket {
            stream_id: 9,
            seq,
            play_at_us: 1,
            codec: CodecId::Pcm.to_wire(),
            payload: Bytes::from_static(&[0, 0, 0, 0]),
        })
    }

    fn control() -> Bytes {
        encode_control(&ControlPacket {
            stream_id: 9,
            seq: 0,
            producer_time_us: 0,
            config: AudioConfig::CD,
            codec: CodecId::Pcm.to_wire(),
            quality: 0,
            control_interval_ms: 500,
            flags: es_proto::FLAG_PRIORITY,
        })
    }

    #[test]
    fn announcement_seizes_and_releases_the_fleet() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let sender = lan.attach("pa-console");
        let ctl_node = lan.attach("override-ctl");
        let music = McastGroup(1);
        let priority = McastGroup(9);
        lan.join(sender, priority);
        let spk1 = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("a", music));
        let spk2 = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("b", music));
        let ctl = OverrideController::start(
            &mut sim,
            &lan,
            ctl_node,
            priority,
            vec![spk1.clone(), spk2.clone()],
            SimDuration::from_millis(500),
        );
        assert!(!ctl.is_active());
        // The crew keys the mic: control + data on the priority group.
        lan.multicast(&mut sim, sender, priority, control());
        lan.multicast(&mut sim, sender, priority, data(0));
        sim.run_for(SimDuration::from_millis(50));
        assert!(ctl.is_active());
        assert_eq!(spk1.tuned(), priority);
        assert_eq!(spk2.tuned(), priority);
        // Announcement continues: stays seized.
        lan.multicast(&mut sim, sender, priority, data(1));
        sim.run_for(SimDuration::from_millis(400));
        assert!(ctl.is_active());
        // Goes quiet: restored to the music channel.
        sim.run_for(SimDuration::from_secs(1));
        assert!(!ctl.is_active());
        assert_eq!(spk1.tuned(), music);
        assert_eq!(spk2.tuned(), music);
        let st = ctl.stats();
        assert_eq!(st.overrides, 1);
        assert_eq!(st.restores, 1);
    }

    #[test]
    fn repeated_announcements_count() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let sender = lan.attach("pa");
        let ctl_node = lan.attach("ctl");
        let priority = McastGroup(9);
        lan.join(sender, priority);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("a", McastGroup(1)));
        let ctl = OverrideController::start(
            &mut sim,
            &lan,
            ctl_node,
            priority,
            vec![spk],
            SimDuration::from_millis(200),
        );
        for round in 0..3 {
            lan.multicast(&mut sim, sender, priority, data(round));
            sim.run_for(SimDuration::from_millis(50));
            assert!(ctl.is_active());
            sim.run_for(SimDuration::from_secs(1));
            assert!(!ctl.is_active());
        }
        assert_eq!(ctl.stats().overrides, 3);
        assert_eq!(ctl.stats().restores, 3);
    }
}
