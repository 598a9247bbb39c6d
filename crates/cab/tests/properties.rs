//! Property-based tests for CAB hardware invariants: the checksum
//! catches every single-bit flip and transfers on one DMA channel never
//! overlap.

use nectar_cab::checksum::fletcher16;
use nectar_cab::dma::{Channel, DmaController};
use nectar_cab::timings::CabTimings;
use nectar_sim::time::Time;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #[test]
    fn fletcher_catches_every_single_bit_flip(
        data in prop::collection::vec(any::<u8>(), 1..512),
        byte_sel in any::<usize>(),
        bit in 0u8..8,
    ) {
        let sum = fletcher16(&data);
        let mut bad = data.clone();
        let idx = byte_sel % bad.len();
        bad[idx] ^= 1 << bit;
        prop_assert_ne!(fletcher16(&bad), sum);
    }

    #[test]
    fn dma_transfers_never_overlap_per_channel(
        reqs in prop::collection::vec((0usize..4, 1usize..100_000), 1..40)
    ) {
        let mut dma = DmaController::new(CabTimings::prototype());
        let mut per_channel: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for (ch_idx, bytes) in reqs {
            let channel = Channel::ALL[ch_idx];
            let t = dma.start(Time::ZERO, channel, bytes);
            prop_assert!(t.complete > t.start || bytes == 0);
            let spans = per_channel.entry(ch_idx).or_default();
            for &(s, e) in spans.iter() {
                prop_assert!(
                    t.start.nanos() >= e || t.complete.nanos() <= s,
                    "channel {channel} transfers overlap"
                );
            }
            spans.push((t.start.nanos(), t.complete.nanos()));
        }
    }
}
