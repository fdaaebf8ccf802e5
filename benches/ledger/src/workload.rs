//! The five ledger workloads: closed, deterministic discrete-event
//! runs assembled through `SystemBuilder` and nothing else. The seed
//! is the only input; sizes are fixed here so a number printed for
//! `fleet64-ovl` always means the same work.

use es_codec::{CodecId, MAX_QUALITY};
use es_core::prelude::*;

/// Relayed segments in `fleet1k-relayed` (plus the backbone, segment 0).
const SEGMENTS: u32 = 4;

/// Upstream data group every workload's channel sends on.
const DATA_GROUP: McastGroup = McastGroup(1);

/// Announce group of the negotiated workload's control plane.
const ANNOUNCE_GROUP: McastGroup = McastGroup(0);

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, repeated in every report).
    pub why: &'static str,
    /// Receivers.
    pub speakers: usize,
    /// Receivers under `--quick`.
    pub quick_speakers: usize,
    /// Stream length in virtual seconds.
    pub stream_secs: u64,
    /// Stream length under `--quick` (smoke runs only).
    pub quick_secs: u64,
    /// A clean workload must lose nothing: `fail_fraction == 0` and
    /// every speaker reports the same `samples_played`.
    pub clean: bool,
}

/// Every workload, in report order.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "solo",
        why: "one speaker, 300 s OVL stream: producer side (VAD, rate limit, encode, seal) is most of the work; fan-out changes must read no change",
        speakers: 1,
        quick_speakers: 1,
        stream_secs: 300,
        quick_secs: 20,
        clean: true,
    },
    Workload {
        name: "fleet64-ovl",
        why: "64 speakers decode the same OVL bytes for 20 s: receive side dominates, so decode-once and fan-out work shows here",
        speakers: 64,
        quick_speakers: 64,
        stream_secs: 20,
        quick_secs: 2,
        clean: true,
    },
    Workload {
        name: "fleet64-pcm",
        why: "same fleet, raw PCM for 30 s: codec idle, so conversion, jitter buffer, device write and telemetry carry the wall; codec changes must read no change",
        speakers: 64,
        quick_speakers: 64,
        stream_secs: 30,
        quick_secs: 3,
        clean: true,
    },
    Workload {
        name: "fleet1k-relayed",
        why: "1000 speakers behind 4 segment relays for 2 s: engine push/pop, relay re-stamping, cross-segment posts, build and snapshot cost at 35k metric keys",
        speakers: 1000,
        quick_speakers: 200,
        stream_secs: 2,
        quick_secs: 1,
        clean: true,
    },
    Workload {
        name: "campus-impaired",
        why: "16 negotiated speakers, 4 joining mid-stream, 5% bursty loss with FEC, NACK refills, concealment and healing for 60 s: the slow path",
        speakers: 16,
        quick_speakers: 16,
        stream_secs: 60,
        quick_secs: 6,
        clean: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// Conditions a run is pinned to. Lanes and shards are always set
/// explicitly: their defaults follow `available_parallelism`, which
/// would tie the number to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conditions {
    /// `SystemBuilder::new(seed)` — the only workload input.
    pub seed: u64,
    /// Shortened smoke-run sizes.
    pub quick: bool,
    /// Fleet decode lanes.
    pub lanes: usize,
    /// Event-engine shards.
    pub shards: usize,
}

/// A built workload plus what the harness must know to measure it.
pub struct Built {
    /// The assembled deployment, nothing run yet.
    pub sys: EsSystem,
    /// Stream length in virtual seconds.
    pub stream_secs: u64,
    /// Power-on time of each speaker, in declaration order.
    pub power_on: Vec<SimDuration>,
    /// Every multicast group audio or control traffic runs on (what a
    /// capture tap joins).
    pub groups: Vec<McastGroup>,
    /// Speakers whose playback is correlated against speaker 0 for the
    /// skew metric: one in every other segment, or the last speaker on
    /// a flat LAN. Each pair costs ≈0.4 s of correlation after the
    /// timed region, so the sample is the smallest that still spans
    /// the topology (the issue allows up to eight).
    pub skew_peers: Vec<usize>,
    /// Zero loss expected (see [`Workload::clean`]).
    pub clean: bool,
}

impl Workload {
    /// Stream length under the given conditions.
    pub fn secs(&self, quick: bool) -> u64 {
        if quick {
            self.quick_secs
        } else {
            self.stream_secs
        }
    }

    /// Receivers under the given conditions.
    pub fn receivers(&self, quick: bool) -> usize {
        if quick {
            self.quick_speakers
        } else {
            self.speakers
        }
    }

    fn ovl_max() -> CompressionPolicy {
        CompressionPolicy::Always {
            codec: CodecId::Ovl,
            quality: MAX_QUALITY,
        }
    }

    /// The workload's channel: `Source::Music` throughout, policy and
    /// FEC per workload.
    pub fn channel(&self, quick: bool) -> ChannelSpec {
        let ch = ChannelSpec::new(1, DATA_GROUP, self.name)
            .source(Source::Music)
            .duration(SimDuration::from_secs(self.secs(quick)));
        match self.name {
            "fleet64-pcm" => ch.policy(CompressionPolicy::Never),
            // Default policy on purpose: the campus deployment is what
            // a user gets without tuning anything.
            "campus-impaired" => ch.fec_group(4),
            _ => ch.policy(Self::ovl_max()),
        }
    }

    /// The LAN the workload runs on.
    pub fn lan(&self) -> LanConfig {
        match self.name {
            "campus-impaired" => LanConfig::bursty(0.05, 3.0),
            _ => LanConfig::default(),
        }
    }

    /// The group speaker 0 receives audio on (the relay's downstream
    /// group in the relayed topology).
    pub fn listen_group(&self) -> McastGroup {
        match self.name {
            "fleet1k-relayed" => downstream(1),
            _ => DATA_GROUP,
        }
    }

    /// Assembles the deployment. `with_speakers = false` builds the
    /// producer side alone (the `rebroadcast.producer_ms_per_audio_s`
    /// probe).
    pub fn build(&self, c: Conditions, with_speakers: bool) -> Built {
        let secs = self.secs(c.quick);
        let mut b = SystemBuilder::new(c.seed)
            .fleet_threads(c.lanes)
            .sim_shards(c.shards)
            .lan(self.lan())
            .channel(self.channel(c.quick));
        let mut groups = vec![DATA_GROUP];
        let mut power_on = Vec::new();
        let n = if with_speakers {
            self.receivers(c.quick)
        } else {
            0
        };
        // Round-robin segment assignment puts speakers 1..SEGMENTS in
        // the segments speaker 0 is not in.
        let skew_peers: Vec<usize> = match self.name {
            "fleet1k-relayed" => (1..SEGMENTS as usize).collect(),
            _ => vec![n.saturating_sub(1)],
        }
        .into_iter()
        .filter(|&k| k > 0 && k < n)
        .collect();
        match self.name {
            "fleet1k-relayed" => {
                for k in 1..=SEGMENTS {
                    b = b.relay(RelaySpec::new(DATA_GROUP, downstream(k)).segment(k));
                    groups.push(downstream(k));
                }
                for i in 0..n {
                    let seg = (i as u32 % SEGMENTS) + 1;
                    b = b.speaker(SpeakerSpec::new(format!("es{i}"), downstream(seg)).segment(seg));
                    power_on.push(SimDuration::ZERO);
                }
            }
            "campus-impaired" => {
                b = b
                    .sessions(SessionSpec::new(ANNOUNCE_GROUP))
                    .healing(HealSpec::new());
                groups.push(ANNOUNCE_GROUP);
                for i in 0..n {
                    // The last four power on 10/20/30/40 % into the
                    // stream: the §3.2 mid-stream join, all done before
                    // the mid-stream skew window.
                    let late = (i + 5).saturating_sub(n) as u64;
                    let at = SimDuration::from_millis(secs * 100 * late);
                    b = b.speaker(
                        SpeakerSpec::negotiated(format!("es{i}"), self.name)
                            .loss_concealment()
                            .starting_at(at),
                    );
                    power_on.push(at);
                }
            }
            _ => {
                for i in 0..n {
                    b = b.speaker(SpeakerSpec::new(format!("es{i}"), DATA_GROUP));
                    power_on.push(SimDuration::ZERO);
                }
            }
        }
        Built {
            sys: b.build(),
            stream_secs: secs,
            power_on,
            groups,
            skew_peers,
            clean: self.clean,
        }
    }
}

fn downstream(segment: u32) -> McastGroup {
    McastGroup(100 + segment as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in ALL {
            assert_eq!(find(w.name), Some(w));
            assert!(
                w.why.len() <= 200,
                "{}: why too long for BENCHMARK.json",
                w.name
            );
            assert!(w.quick_secs < w.stream_secs && w.quick_speakers <= w.speakers);
        }
        assert_eq!(find("nope"), None);
    }

    #[test]
    fn campus_staggers_its_last_four_joins() {
        let w = find("campus-impaired").expect("listed");
        let built = w.build(
            Conditions {
                seed: 7,
                quick: true,
                lanes: 1,
                shards: 1,
            },
            true,
        );
        let ms: Vec<u64> = built.power_on.iter().map(|d| d.as_millis()).collect();
        assert_eq!(&ms[..12], &[0; 12]);
        assert_eq!(&ms[12..], &[600, 1_200, 1_800, 2_400]);
        assert_eq!(built.sys.speaker_count(), 16);
        // The last speaker — a mid-stream joiner — is the skew peer.
        assert_eq!(built.skew_peers, [15]);
    }
}
