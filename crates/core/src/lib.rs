//! # es-core — the Ethernet Speaker system, assembled
//!
//! The public face of the reproduction. One [`SystemBuilder`] call
//! assembles the whole of the paper's Figure 1 in the discrete-event
//! simulator: applications playing into VAD slaves, rebroadcasters
//! pacing/compressing/multicasting, Ethernet Speakers synchronizing and
//! playing, plus the §4.3 catalog and the §5.3 central override. The
//! [`live`] module runs the identical protocol over real UDP multicast.
//!
//! ```
//! use es_core::{ChannelSpec, SpeakerSpec, SystemBuilder};
//! use es_net::McastGroup;
//! use es_sim::SimDuration;
//!
//! let mut sys = SystemBuilder::new(42)
//!     .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
//!     .speaker(SpeakerSpec::new("lobby", McastGroup(1)))
//!     .build();
//! sys.run_for(SimDuration::from_secs(2));
//! assert!(sys.speaker(0).unwrap().stats().samples_played > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod builder;
pub mod catalog;
pub mod error;
pub mod heal_ctl;
pub mod live;
pub mod override_ctl;
pub mod session_ctl;

pub use builder::{
    ChannelSpec, EsSystem, RelaySpec, SessionSpec, Source, SpeakerSpec, SystemBuilder,
};
pub use catalog::{CatalogAnnouncer, ChannelBrowser};
pub use error::Error;
pub use heal_ctl::{HealMonitor, HealSpec};
pub use live::{
    run_live_producer, run_live_speaker, LiveProducer, LiveProducerConfig, LiveProducerReport,
    LiveSpeaker, LiveSpeakerReport,
};
pub use override_ctl::{OverrideController, OverrideStats};
pub use session_ctl::{BrokerStats, NegotiatedSpeaker, SessionBroker};

/// The common imports: everything a typical scenario script touches.
///
/// ```
/// use es_core::prelude::*;
///
/// let mut sys = SystemBuilder::new(7)
///     .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
///     .speaker(SpeakerSpec::new("hall", McastGroup(1)))
///     .build();
/// sys.run_for(SimDuration::from_secs(1));
/// ```
pub mod prelude {
    pub use crate::builder::{
        ChannelSpec, EsSystem, RelaySpec, SessionSpec, Source, SpeakerSpec, SystemBuilder,
    };
    pub use crate::catalog::{CatalogAnnouncer, ChannelBrowser};
    pub use crate::error::Error;
    pub use crate::heal_ctl::{HealMonitor, HealSpec};
    pub use crate::override_ctl::{OverrideController, OverrideStats};
    pub use crate::session_ctl::{NegotiatedSpeaker, SessionBroker};
    pub use es_audio::AudioConfig;
    pub use es_heal::{HealPolicy, Health};
    pub use es_net::{Lan, LanConfig, McastGroup};
    pub use es_proto::{Capabilities, ClientPhase, DeviceClass, SessionPacket};
    pub use es_rebroadcast::{AppPacing, CompressionPolicy, RateLimiter};
    pub use es_sim::{Sim, SimDuration, SimTime};
    pub use es_speaker::{EthernetSpeaker, SpeakerConfig};
    pub use es_telemetry::{Journal, MetricsSnapshot, Registry, Severity, Telemetry, TimeDomain};
}
