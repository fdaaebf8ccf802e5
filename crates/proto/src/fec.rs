//! Single-loss forward error correction (XOR parity).
//!
//! An extension beyond the paper: §2.3's friendly-LAN assumption made
//! loss handling unnecessary in 2005, but the same system on Wi-Fi (the
//! "wireless links" §2.2 worries about) drops packets routinely. One
//! parity packet per group of N data packets recovers any single loss
//! in the group without retransmission — keeping the producer stateless
//! and the speakers receive-only, which is the property the paper's
//! design refuses to give up.
//!
//! The parity packet XORs the payloads (padded to the longest), the
//! play deadlines, the lengths and the codec ids, so a missing packet
//! is reconstructed *fully*, metadata included, by XOR-ing the parity
//! with the group's surviving packets.
//!
//! The producer folds each packet into one running accumulator; a
//! receiver does not. [`FecRecoverer`] keeps a group's surviving
//! packets by handle — their payloads are the `Bytes` every receiver
//! of the datagram shares — and XORs once, when the parity and all but
//! one member are in. A receiver that loses nothing copies nothing.

use bytes::Bytes;

use crate::packet::DataPacket;

/// A parity packet covering `count` consecutive data sequence numbers
/// starting at `base_seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityPacket {
    /// Stream id.
    pub stream_id: u16,
    /// First covered data sequence number.
    pub base_seq: u32,
    /// Number of covered packets.
    pub count: u8,
    /// XOR of the covered packets' play deadlines.
    pub xor_play_at_us: u64,
    /// XOR of the covered packets' payload lengths.
    pub xor_len: u32,
    /// XOR of the covered packets' codec ids.
    pub xor_codec: u8,
    /// XOR of the covered payloads, each padded to the longest.
    pub payload: Bytes,
}

fn xor_into(acc: &mut Vec<u8>, data: &[u8]) {
    if data.len() > acc.len() {
        acc.resize(data.len(), 0);
    }
    for (a, &b) in acc.iter_mut().zip(data) {
        *a ^= b;
    }
}

/// Producer side: absorbs data packets and emits a parity packet per
/// full group.
///
/// Groups sit on the grid the recoverer assumes: [`FecRecoverer`]
/// files a data packet under `seq - seq % group`, so a group opens
/// only at a multiple of the group size and holds consecutive
/// sequence numbers. Whatever breaks the run — the accumulator being
/// created mid-group by a level change, numbers burnt while the
/// producer was down — costs the partial group its parity instead of
/// emitting parity no receiver can use.
#[derive(Debug)]
pub struct ParityAccumulator {
    group: u8,
    base_seq: u32,
    count: u8,
    xor_play: u64,
    xor_len: u32,
    xor_codec: u8,
    payload: Vec<u8>,
}

impl ParityAccumulator {
    /// Creates an accumulator emitting one parity packet per `group`
    /// data packets.
    ///
    /// # Panics
    ///
    /// Panics if `group` is less than 2.
    pub fn new(group: u8) -> Self {
        assert!(group >= 2, "a parity group needs at least two packets");
        ParityAccumulator {
            group,
            base_seq: 0,
            count: 0,
            xor_play: 0,
            xor_len: 0,
            xor_codec: 0,
            payload: Vec::new(),
        }
    }

    /// Absorbs a just-sent data packet; returns the parity packet when
    /// the group completes.
    pub fn absorb(&mut self, pkt: &DataPacket) -> Option<ParityPacket> {
        // `checked_add`: a group size that does not divide 2^32 leaves
        // a short group below the wrap, and the recoverer's grid
        // restarts at 0.
        if self.count > 0 && self.base_seq.checked_add(self.count.into()) != Some(pkt.seq) {
            self.reset();
        }
        if self.count == 0 {
            if !pkt.seq.is_multiple_of(u32::from(self.group)) {
                return None;
            }
            self.base_seq = pkt.seq;
        }
        self.count += 1;
        self.xor_play ^= pkt.play_at_us;
        self.xor_len ^= pkt.payload.len() as u32;
        self.xor_codec ^= pkt.codec;
        xor_into(&mut self.payload, &pkt.payload);
        if self.count < self.group {
            return None;
        }
        let parity = ParityPacket {
            stream_id: pkt.stream_id,
            base_seq: self.base_seq,
            count: self.count,
            xor_play_at_us: self.xor_play,
            xor_len: self.xor_len,
            xor_codec: self.xor_codec,
            payload: Bytes::from(std::mem::take(&mut self.payload)),
        };
        self.reset();
        Some(parity)
    }

    fn reset(&mut self) {
        self.count = 0;
        self.xor_play = 0;
        self.xor_len = 0;
        self.xor_codec = 0;
        self.payload.clear();
    }
}

/// One parity group as a receiver has heard it so far: the members
/// that arrived, by handle, and the parity once it came.
struct GroupState {
    base_seq: u32,
    seen: u32, // Bitmap of received members.
    /// The received members in arrival order. Their payloads are the
    /// caller's `Bytes`, shared, never copied.
    members: Vec<DataPacket>,
    parity: Option<ParityPacket>,
    stream_id: u16,
}

impl GroupState {
    fn new(base_seq: u32, stream_id: u16, group: u8) -> Self {
        GroupState {
            base_seq,
            seen: 0,
            members: Vec::with_capacity(group.into()),
            parity: None,
            stream_id,
        }
    }

    fn seen_count(&self) -> u32 {
        self.seen.count_ones()
    }

    /// Rebuilds the one missing member once the parity is here and
    /// every other member is: the only place a payload is XORed.
    fn try_recover(&self) -> Option<DataPacket> {
        let parity = self.parity.as_ref()?;
        if self.seen_count() != parity.count as u32 - 1 {
            return None;
        }
        // The single missing member index.
        let missing = (0..parity.count as u32).find(|i| self.seen & (1 << i) == 0)?;
        let (mut xor_play, mut xor_len, mut xor_codec) =
            (parity.xor_play_at_us, parity.xor_len, parity.xor_codec);
        let mut longest = parity.payload.len();
        for m in &self.members {
            xor_play ^= m.play_at_us;
            xor_len ^= m.payload.len() as u32;
            xor_codec ^= m.codec;
            longest = longest.max(m.payload.len());
        }
        let len = xor_len as usize;
        if len > longest {
            return None; // Corrupt accounting; refuse.
        }
        let mut payload = vec![0; len];
        for src in std::iter::once(&parity.payload).chain(self.members.iter().map(|m| &m.payload)) {
            for (a, &b) in payload.iter_mut().zip(src.iter()) {
                *a ^= b;
            }
        }
        Some(DataPacket {
            stream_id: self.stream_id,
            seq: self.base_seq + missing,
            play_at_us: xor_play,
            codec: xor_codec,
            payload: Bytes::from(payload),
        })
    }
}

/// The first seq of the parity group of `group` packets that `seq`
/// belongs to: groups tile the sequence space from 0.
pub fn group_base(seq: u32, group: u8) -> u32 {
    seq - seq % u32::from(group)
}

/// Speaker side: tracks recent groups and reconstructs single losses.
/// It only rebuilds: whether a block was lost for good is the
/// speaker's hole table's call, made once the block can no longer play.
pub struct FecRecoverer {
    group: u8,
    groups: Vec<GroupState>,
    recovered: u64,
}

impl FecRecoverer {
    /// Creates a recoverer for groups of `group` packets.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not in `2..=32`.
    pub fn new(group: u8) -> Self {
        assert!((2..=32).contains(&group), "group must be 2..=32");
        FecRecoverer {
            group,
            groups: Vec::new(),
            recovered: 0,
        }
    }

    /// The parity-group size this recoverer was built for. A speaker
    /// compares it against arriving parity packets and rebuilds the
    /// recoverer when a reconfigured producer changed the group.
    pub fn group(&self) -> u8 {
        self.group
    }

    /// Packets reconstructed so far.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    fn state_for(&mut self, base: u32, stream_id: u16) -> &mut GroupState {
        if let Some(i) = self.groups.iter().position(|g| g.base_seq == base) {
            return &mut self.groups[i];
        }
        // Bound memory: the oldest group goes. What was lost is the
        // speaker's hole table's call, not this window's.
        if self.groups.len() >= 4 {
            self.groups.remove(0);
        }
        self.groups
            .push(GroupState::new(base, stream_id, self.group));
        self.groups.last_mut().expect("just pushed")
    }

    /// Notes a received data packet; may complete a pending recovery.
    pub fn on_data(&mut self, pkt: &DataPacket) -> Option<DataPacket> {
        let base = group_base(pkt.seq, self.group);
        let idx = pkt.seq - base;
        let state = self.state_for(base, pkt.stream_id);
        if state.seen & (1 << idx) != 0 {
            return None; // Duplicate.
        }
        state.seen |= 1 << idx;
        state.members.push(pkt.clone());
        let rec = state.try_recover();
        if rec.is_some() {
            self.recovered += 1;
            self.groups.retain(|g| g.base_seq != base);
        }
        rec
    }

    /// Notes a parity packet; may complete a pending recovery.
    pub fn on_parity(&mut self, pkt: &ParityPacket) -> Option<DataPacket> {
        let base = pkt.base_seq;
        let state = self.state_for(base, pkt.stream_id);
        state.parity = Some(pkt.clone());
        let rec = state.try_recover();
        if rec.is_some() {
            self.recovered += 1;
            self.groups.retain(|g| g.base_seq != base);
        } else if state.seen_count() == pkt.count as u32 {
            // Nothing was lost; the group is done.
            self.groups.retain(|g| g.base_seq != base);
        }
        rec
    }
}

/// The recoverer [`FecRecoverer`] replaced, kept as its oracle: each
/// group XORs every arriving member into accumulators of its own. It
/// keeps the same four-group window, since which groups can still be
/// rebuilt depends on it, and counts the groups the window evicted
/// before they were rebuilt or completed.
#[cfg(test)]
mod oracle {
    use super::{xor_into, Bytes, DataPacket, ParityPacket};

    struct GroupState {
        base_seq: u32,
        seen: u32, // Bitmap of received members.
        xor_play: u64,
        xor_len: u32,
        xor_codec: u8,
        payload: Vec<u8>,
        parity: Option<ParityPacket>,
        stream_id: u16,
    }

    impl GroupState {
        fn new(base_seq: u32, stream_id: u16) -> Self {
            GroupState {
                base_seq,
                seen: 0,
                xor_play: 0,
                xor_len: 0,
                xor_codec: 0,
                payload: Vec::new(),
                parity: None,
                stream_id,
            }
        }

        fn seen_count(&self) -> u32 {
            self.seen.count_ones()
        }

        fn try_recover(&mut self) -> Option<DataPacket> {
            let parity = self.parity.as_ref()?;
            if self.seen_count() != parity.count as u32 - 1 {
                return None;
            }
            // The single missing member index.
            let missing = (0..parity.count as u32).find(|i| self.seen & (1 << i) == 0)?;
            let mut payload = parity.payload.to_vec();
            xor_into(&mut payload, &self.payload);
            let len = (self.xor_len ^ parity.xor_len) as usize;
            if len > payload.len() {
                return None; // Corrupt accounting; refuse.
            }
            payload.truncate(len);
            Some(DataPacket {
                stream_id: self.stream_id,
                seq: self.base_seq + missing,
                play_at_us: self.xor_play ^ parity.xor_play_at_us,
                codec: self.xor_codec ^ parity.xor_codec,
                payload: Bytes::from(payload),
            })
        }
    }

    /// Speaker side: tracks recent groups and reconstructs single losses.
    pub struct AccumulatingRecoverer {
        group: u8,
        groups: Vec<GroupState>,
        recovered: u64,
        evicted: u64,
    }

    impl AccumulatingRecoverer {
        pub fn new(group: u8) -> Self {
            assert!((2..=32).contains(&group), "group must be 2..=32");
            AccumulatingRecoverer {
                group,
                groups: Vec::new(),
                recovered: 0,
                evicted: 0,
            }
        }

        pub fn recovered(&self) -> u64 {
            self.recovered
        }

        /// Groups evicted from the window while still open.
        pub fn evicted(&self) -> u64 {
            self.evicted
        }

        fn group_base(&self, seq: u32) -> u32 {
            seq - seq % self.group as u32
        }

        fn state_for(&mut self, base: u32, stream_id: u16) -> &mut GroupState {
            if let Some(i) = self.groups.iter().position(|g| g.base_seq == base) {
                return &mut self.groups[i];
            }
            // Bound memory: the oldest group goes.
            while self.groups.len() >= 4 {
                self.groups.remove(0);
                self.evicted += 1;
            }
            self.groups.push(GroupState::new(base, stream_id));
            self.groups.last_mut().expect("just pushed")
        }

        pub fn on_data(&mut self, pkt: &DataPacket) -> Option<DataPacket> {
            let base = self.group_base(pkt.seq);
            let idx = pkt.seq - base;
            let state = self.state_for(base, pkt.stream_id);
            if state.seen & (1 << idx) != 0 {
                return None; // Duplicate.
            }
            state.seen |= 1 << idx;
            state.xor_play ^= pkt.play_at_us;
            state.xor_len ^= pkt.payload.len() as u32;
            state.xor_codec ^= pkt.codec;
            xor_into(&mut state.payload, &pkt.payload);
            let rec = state.try_recover();
            if rec.is_some() {
                self.recovered += 1;
                self.groups.retain(|g| g.base_seq != base);
            }
            rec
        }

        pub fn on_parity(&mut self, pkt: &ParityPacket) -> Option<DataPacket> {
            let base = pkt.base_seq;
            let state = self.state_for(base, pkt.stream_id);
            state.parity = Some(pkt.clone());
            let rec = state.try_recover();
            if rec.is_some() {
                self.recovered += 1;
                self.groups.retain(|g| g.base_seq != base);
            } else if state.seen_count() == pkt.count as u32 {
                // Nothing was lost; the group is done.
                self.groups.retain(|g| g.base_seq != base);
            }
            rec
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u32, body: &[u8]) -> DataPacket {
        DataPacket {
            stream_id: 1,
            seq,
            play_at_us: 1_000 * seq as u64 + 7,
            codec: 3,
            payload: Bytes::copy_from_slice(body),
        }
    }

    #[test]
    fn accumulator_emits_once_per_group() {
        let mut acc = ParityAccumulator::new(4);
        assert!(acc.absorb(&pkt(0, b"aaaa")).is_none());
        assert!(acc.absorb(&pkt(1, b"bb")).is_none());
        assert!(acc.absorb(&pkt(2, b"cccccc")).is_none());
        let p = acc.absorb(&pkt(3, b"d")).expect("group complete");
        assert_eq!(p.base_seq, 0);
        assert_eq!(p.count, 4);
        assert_eq!(p.payload.len(), 6, "padded to the longest member");
        // Next group starts clean.
        assert!(acc.absorb(&pkt(4, b"x")).is_none());
    }

    #[test]
    fn groups_keep_the_recoverers_grid_wherever_the_accumulator_starts() {
        // A level change creates the accumulator at whatever `seq` is
        // next; only starts 0 and 4 used to be decodable.
        for start in 0..8u32 {
            let mut acc = ParityAccumulator::new(4);
            let mut rec = FecRecoverer::new(4);
            let mut parities = 0;
            for seq in start..start + 12 {
                let p = pkt(seq, &seq.to_le_bytes());
                // Lose the second member of every group.
                let rebuilt = if seq % 4 == 1 { None } else { rec.on_data(&p) };
                assert_eq!(
                    rebuilt, None,
                    "start {start}: nothing to rebuild before parity"
                );
                if let Some(parity) = acc.absorb(&p) {
                    parities += 1;
                    assert_eq!(parity.base_seq % 4, 0, "start {start}");
                    let rebuilt = rec.on_parity(&parity).expect("one loss in the group");
                    assert_eq!(
                        rebuilt,
                        pkt(parity.base_seq + 1, &rebuilt.seq.to_le_bytes())
                    );
                }
            }
            assert_eq!(
                parities,
                if start % 4 == 0 { 3 } else { 2 },
                "start {start}"
            );
            assert_eq!(rec.recovered(), parities);
        }
    }

    #[test]
    fn a_broken_run_costs_the_partial_group_its_parity() {
        let mut acc = ParityAccumulator::new(4);
        // 6 was burnt while the producer was down.
        for seq in [4, 5, 7] {
            assert_eq!(acc.absorb(&pkt(seq, b"x")), None, "seq {seq}");
        }
        let parity = (8..12).find_map(|seq| acc.absorb(&pkt(seq, b"yy")));
        let parity = parity.expect("the next whole group");
        assert_eq!((parity.base_seq, parity.count), (8, 4));
        assert_eq!(
            parity.payload.as_ref(),
            &[0, 0],
            "4, 5 and 7 left no residue"
        );
        // Group sizes that do not divide 2^32 leave a short group below
        // the wrap; the grid restarts at 0.
        let mut acc = ParityAccumulator::new(3);
        for seq in [u32::MAX, 0, 1] {
            assert_eq!(acc.absorb(&pkt(seq, b"z")), None, "seq {seq}");
        }
        assert_eq!(acc.absorb(&pkt(2, b"z")).map(|p| p.base_seq), Some(0));
    }

    #[test]
    fn recovers_each_possible_single_loss() {
        let bodies: [&[u8]; 4] = [b"alpha", b"bravo-long", b"c", b"delta9"];
        for missing in 0..4u32 {
            let mut acc = ParityAccumulator::new(4);
            let packets: Vec<DataPacket> = (0..4u32).map(|i| pkt(i, bodies[i as usize])).collect();
            let mut parity = None;
            for p in &packets {
                parity = acc.absorb(p).or(parity);
            }
            let parity = parity.expect("parity emitted");
            let mut rec = FecRecoverer::new(4);
            let mut recovered = None;
            for p in packets.iter().filter(|p| p.seq != missing) {
                recovered = rec.on_data(p).or(recovered);
            }
            recovered = rec.on_parity(&parity).or(recovered);
            let got = recovered.expect("single loss recovered");
            assert_eq!(got, packets[missing as usize], "missing = {missing}");
            assert_eq!(rec.recovered(), 1);
        }
    }

    #[test]
    fn recovery_order_independent() {
        // Parity may arrive before the last data packet.
        let mut acc = ParityAccumulator::new(3);
        let packets: Vec<DataPacket> = (0..3u32).map(|i| pkt(i, b"xyzw")).collect();
        let mut parity = None;
        for p in &packets {
            parity = acc.absorb(p).or(parity);
        }
        let parity = parity.unwrap();
        let mut rec = FecRecoverer::new(3);
        assert!(rec.on_parity(&parity).is_none());
        assert!(rec.on_data(&packets[0]).is_none());
        let got = rec.on_data(&packets[2]).expect("completes on second data");
        assert_eq!(got, packets[1]);
    }

    #[test]
    fn double_loss_is_not_recovered() {
        let mut acc = ParityAccumulator::new(4);
        let packets: Vec<DataPacket> = (0..4u32).map(|i| pkt(i, b"qq")).collect();
        let mut parity = None;
        for p in &packets {
            parity = acc.absorb(p).or(parity);
        }
        let mut rec = FecRecoverer::new(4);
        assert!(rec.on_data(&packets[0]).is_none());
        assert!(rec.on_data(&packets[3]).is_none());
        assert!(rec.on_parity(&parity.unwrap()).is_none());
        assert_eq!(rec.recovered(), 0);
    }

    #[test]
    fn no_loss_no_recovery_and_memory_bounded() {
        let mut rec = FecRecoverer::new(4);
        let mut acc = ParityAccumulator::new(4);
        for g in 0..20u32 {
            let packets: Vec<DataPacket> = (0..4u32).map(|i| pkt(g * 4 + i, b"data")).collect();
            let mut parity = None;
            for p in &packets {
                parity = acc.absorb(p).or(parity);
                assert!(rec.on_data(p).is_none());
            }
            assert!(rec.on_parity(&parity.unwrap()).is_none());
        }
        assert_eq!(rec.recovered(), 0);
        assert!(rec.groups.len() <= 4, "groups leak: {}", rec.groups.len());
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut rec = FecRecoverer::new(4);
        let p = pkt(0, b"dup");
        assert!(rec.on_data(&p).is_none());
        assert!(rec.on_data(&p).is_none());
        // The XOR state must not have been corrupted by the duplicate:
        // complete the group and verify recovery still works.
        let mut acc = ParityAccumulator::new(4);
        let packets: Vec<DataPacket> = (0..4u32).map(|i| pkt(i, b"dup!")).collect();
        let mut parity = None;
        for q in &packets {
            parity = acc.absorb(q).or(parity);
        }
        let _ = rec.on_data(&packets[1]);
        let _ = rec.on_data(&packets[2]);
        let got = rec.on_parity(&parity.unwrap()).expect("recover seq 3");
        assert_eq!(got.seq, 3);
    }

    proptest::proptest! {
        #[test]
        fn prop_any_single_loss_recovers(
            bodies in proptest::collection::vec(
                proptest::collection::vec(proptest::num::u8::ANY, 0..200), 2..9),
            missing_idx in 0usize..8,
        ) {
            let n = bodies.len() as u8;
            let missing = (missing_idx % bodies.len()) as u32;
            let mut acc = ParityAccumulator::new(n);
            let packets: Vec<DataPacket> = bodies
                .iter()
                .enumerate()
                .map(|(i, b)| pkt(i as u32, b))
                .collect();
            let mut parity = None;
            for p in &packets {
                parity = acc.absorb(p).or(parity);
            }
            let parity = parity.expect("parity");
            let mut rec = FecRecoverer::new(n);
            let mut got = None;
            for p in packets.iter().filter(|p| p.seq != missing) {
                got = rec.on_data(p).or(got);
            }
            got = rec.on_parity(&parity).or(got);
            proptest::prop_assert_eq!(got.expect("recovered"), packets[missing as usize].clone());
        }
    }

    #[test]
    fn a_group_holds_the_callers_payloads_and_copies_nothing_until_a_recovery() {
        let packets: Vec<DataPacket> = (0..4u32).map(|i| pkt(i, b"shared payload")).collect();
        let mut acc = ParityAccumulator::new(4);
        let parity = packets
            .iter()
            .find_map(|p| acc.absorb(p))
            .expect("one group");
        let mut rec = FecRecoverer::new(4);
        for p in [&packets[2], &packets[0], &packets[3]] {
            assert_eq!(rec.on_data(p), None);
        }
        let held = &rec.groups[0].members;
        assert_eq!(held.len(), 3);
        for (h, p) in held.iter().zip([&packets[2], &packets[0], &packets[3]]) {
            assert_eq!(h.payload.as_ptr(), p.payload.as_ptr(), "seq {}", p.seq);
        }
        let rebuilt = rec.on_parity(&parity).expect("one loss");
        assert_eq!(rebuilt, packets[1]);
        assert_ne!(rebuilt.payload.as_ptr(), packets[1].payload.as_ptr());
        assert!(rec.groups.is_empty(), "a recovered group is done");
    }

    /// SplitMix64: the traffic of one oracle case, drawn from its seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    #[derive(Clone)]
    enum Arrival {
        Data(DataPacket),
        Parity(ParityPacket),
    }

    /// Random traffic for a recoverer: whole groups through the
    /// producer's accumulator, then per group no, one or several
    /// losses (parity included), some groups' parity sent again with a
    /// hostile field or a payload shorter than its members, duplicates, and a reordering window wide enough
    /// to put parity before its data and keep more than four groups
    /// open at once.
    fn traffic(seed: u64) -> (u8, Vec<Arrival>) {
        let mut d = Draw(seed);
        let group = [2u8, 3, 4, 4, 5, 8, 32][d.below(7) as usize];
        let g = u32::from(group);
        let groups = 1 + d.below(12) as u32;
        // On the grid; a power of two may run through the `u32` wrap.
        let first = if g.is_power_of_two() && d.chance(25) {
            0u32.wrapping_sub(g * (1 + d.below(3) as u32))
        } else {
            d.below(1_000) as u32 * g
        };
        let mut acc = ParityAccumulator::new(group);
        let mut sent: Vec<Vec<Arrival>> = Vec::new();
        for k in 0..groups * g {
            if k % g == 0 {
                sent.push(Vec::new());
            }
            let body: Vec<u8> = (0..d.below(48)).map(|_| d.next() as u8).collect();
            let pkt = DataPacket {
                stream_id: 9,
                seq: first.wrapping_add(k),
                play_at_us: d.next() >> 8,
                codec: d.next() as u8,
                payload: Bytes::from(body),
            };
            let parity = acc.absorb(&pkt);
            let members = sent.last_mut().expect("opened");
            members.push(Arrival::Data(pkt));
            members.extend(parity.map(Arrival::Parity));
        }
        let mut arrivals = Vec::new();
        for mut members in sent {
            let hostile = members.iter().find_map(|a| match a {
                Arrival::Parity(p) if d.chance(30) => Some(p.clone()),
                _ => None,
            });
            let losses = match d.below(10) {
                0..=3 => 0,
                4..=6 => 1,
                _ => 2 + d.below(g as u64) as usize,
            };
            for _ in 0..losses.min(members.len()) {
                members.remove(d.below(members.len() as u64) as usize);
            }
            if let Some(mut p) = hostile {
                match d.below(5) {
                    0 => p.base_seq = p.base_seq.wrapping_add(1 + d.below(g as u64 - 1) as u32),
                    1 => p.xor_len ^= 1 << (8 + d.below(24)),
                    2 => p.xor_codec = d.next() as u8,
                    3 => p.xor_play_at_us = d.next(),
                    _ => {
                        let short = d.below(p.payload.len() as u64 + 1) as usize;
                        p.payload = Bytes::copy_from_slice(&p.payload[..short]);
                    }
                }
                members.push(Arrival::Parity(p));
            }
            arrivals.extend(members);
        }
        for _ in 0..d.below(4) {
            if arrivals.is_empty() {
                break;
            }
            let copy = arrivals[d.below(arrivals.len() as u64) as usize].clone();
            let at = d.below(arrivals.len() as u64 + 1) as usize;
            arrivals.insert(at, copy);
        }
        let window = 1 + d.below(3 * (g as u64 + 1));
        let mut keyed: Vec<(u64, Arrival)> = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, a)| (i as u64 + d.below(window), a))
            .collect();
        keyed.sort_by_key(|(key, _)| *key);
        (group, keyed.into_iter().map(|(_, a)| a).collect())
    }

    /// What one case exercised: recoveries completed by a data packet
    /// (its parity came first) and by parity, and groups the window
    /// evicted while still open.
    #[derive(Default)]
    struct Coverage {
        by_data: u64,
        by_parity: u64,
        evicted: u64,
    }

    /// Feeds one case's traffic to the recoverer and to its oracle:
    /// every answer and the recovery count must agree at every step.
    fn against_the_oracle(seed: u64) -> Coverage {
        let (group, arrivals) = traffic(seed);
        let mut rec = FecRecoverer::new(group);
        let mut oracle = oracle::AccumulatingRecoverer::new(group);
        let mut cov = Coverage::default();
        for a in &arrivals {
            let (got, want) = match a {
                Arrival::Data(p) => (rec.on_data(p), oracle.on_data(p)),
                Arrival::Parity(p) => (rec.on_parity(p), oracle.on_parity(p)),
            };
            assert_eq!(got, want, "seed {seed}");
            if let Some((got, want)) = got.as_ref().zip(want.as_ref()) {
                assert_eq!(got.payload.as_ref(), want.payload.as_ref(), "seed {seed}");
                match a {
                    Arrival::Data(_) => cov.by_data += 1,
                    Arrival::Parity(_) => cov.by_parity += 1,
                }
            }
            assert_eq!(rec.recovered(), oracle.recovered(), "seed {seed}");
        }
        cov.evicted = oracle.evicted();
        cov
    }

    #[test]
    fn the_oracle_traffic_reaches_every_branch() {
        let mut total = Coverage::default();
        for seed in 0..200 {
            let cov = against_the_oracle(seed);
            total.by_data += cov.by_data;
            total.by_parity += cov.by_parity;
            total.evicted += cov.evicted;
        }
        assert!(total.by_data > 0, "no recovery completed by data");
        assert!(total.by_parity > 0, "no recovery completed by parity");
        assert!(total.evicted > 0, "no open group evicted");
    }

    proptest::proptest! {
        #[test]
        fn prop_recoverer_matches_the_accumulator_oracle(seed in proptest::num::u64::ANY) {
            against_the_oracle(seed);
        }
    }
}
