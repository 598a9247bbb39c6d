//! The CAB's hardware checksum unit.
//!
//! "Hardware checksum computation removes this burden from protocol
//! software" (§5.1) and checking happens in parallel with DMA, so the
//! simulation charges *zero time* for checksums — the function here
//! exists so the transport protocols can actually detect the corrupted
//! packets the fault-injection experiments create.
//!
//! The algorithm is Fletcher-16, a classic choice for 1980s protocol
//! hardware: position-sensitive (catches reordered bytes, which a plain
//! sum misses) and computable in one pass. The unit reads a message
//! where it sits in data memory; here a packet's header and its shared
//! payload are separate buffers, and [`fletcher16_parts`] sums them in
//! place to the value of their concatenation.
//!
//! The host pays for what the hardware does for free, so it sums each
//! byte of a shared buffer once, not once per packet. Fletcher's sums
//! answer range queries from prefix sums: with `P1[k]` the sum of the
//! first `k` bytes and `P2[k]` the sum of `P1[1..=k]`, the checksum of
//! bytes `[a, b)` has
//!
//! ```text
//! s1 = P1[b] - P1[a]
//! s2 = P2[b] - P2[a] - (b - a)*P1[a]        (both mod 255)
//! ```
//!
//! The first checksum of a slice of at least [`SIDECAR_MIN`] bytes
//! fills its buffer's sidecar ([`Bytes::sidecar`]) with `(P1, P2) mod
//! 255` at every [`SIDECAR_STRIDE`]-byte boundary, summing every byte
//! of the buffer once. From then on [`fletcher16_packet`] reads a
//! packet's header, at most `SIDECAR_STRIDE - 1` payload bytes at each
//! unaligned end of its payload, and two sidecar entries. Detection is
//! unchanged: a buffer is never written after it is made, and a chaos
//! corruption flips its bit in a fresh copy, whose sidecar is summed
//! from the copy's own bytes.

use nectar_sim::bytes::Bytes;

/// Payload length from which [`fletcher16_packet`] reads the sidecar;
/// shorter payloads are summed byte by byte.
pub const SIDECAR_MIN: usize = 128;

/// Bytes between two sidecar entries: each entry costs 2 bytes, 3 % of
/// the 64 it covers.
pub const SIDECAR_STRIDE: usize = 64;

/// Computes the Fletcher-16 checksum of `data`: [`fletcher16_parts`]
/// of the one part.
///
/// # Examples
///
/// ```
/// use nectar_cab::checksum::fletcher16;
/// assert_eq!(fletcher16(b"abcde"), 0xC8F0);
/// assert_ne!(fletcher16(b"abcde"), fletcher16(b"abdce")); // order matters
/// ```
pub fn fletcher16(data: &[u8]) -> u16 {
    fletcher16_parts(&[data])
}

/// Computes the Fletcher-16 checksum of `parts` read back to back —
/// the same value as over their concatenation, with every byte of
/// every part read. Parts join by Fletcher's concatenation rule: for
/// `A` followed by `B`,
///
/// ```text
/// s1 = s1A + s1B
/// s2 = s2A + len(B)*s1A + s2B
/// ```
///
/// which is how [`fletcher16_packet`] joins a header's sums to those
/// its payload's sidecar answers, reading the ends plus O(1) instead of
/// every payload byte.
///
/// The inner loop is word-at-a-time (SWAR): each 8-byte little-endian
/// word is folded into the two running sums with three multiplies
/// instead of eight dependent byte additions. For a word with bytes
/// `b0..b7` starting from sums `(s1, s2)`, Fletcher's recurrence
/// telescopes to
///
/// ```text
/// s2' = s2 + 8*s1 + (8*b0 + 7*b1 + 6*b2 + 5*b3 + 4*b4 + 3*b5 + 2*b6 + b7)
/// s1' = s1 + (b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7)
/// ```
///
/// and both bracketed sums come out of lane-wise multiplies: pair the
/// bytes into four 16-bit lanes, multiply by an all-ones constant for
/// the plain sum and by the taper `[7,5,3,1]` (plus the even bytes
/// once more) for the weighted sum, and read the answer off the top
/// lane. The `% 255` reductions are deferred to once per 4 MiB block
/// of each part — the `u64` accumulators cannot overflow within one
/// (s2 stays below 2^52) — and Fletcher's sums are mod-255
/// homomorphic, so deferral does not change the result.
///
/// # Examples
///
/// ```
/// use nectar_cab::checksum::{fletcher16, fletcher16_parts};
/// assert_eq!(fletcher16_parts(&[b"ab", b"", b"cde"]), fletcher16(b"abcde"));
/// ```
pub fn fletcher16_parts(parts: &[&[u8]]) -> u16 {
    finish(sums(parts))
}

/// Computes the Fletcher-16 checksum of `head` followed by `payload`,
/// to the value [`fletcher16_parts`] gives: the header's sums joined to
/// the payload's, which a payload of [`SIDECAR_MIN`] bytes or more
/// answers from its buffer's sidecar.
///
/// # Examples
///
/// ```
/// use nectar_cab::checksum::{fletcher16_packet, fletcher16_parts};
/// use nectar_sim::bytes::Bytes;
/// let buf = Bytes::from((0..1000u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>());
/// let payload = buf.slice(100..900);
/// assert_eq!(fletcher16_packet(b"head", &payload), fletcher16_parts(&[b"head", &payload]));
/// ```
pub fn fletcher16_packet(head: &[u8], payload: &Bytes) -> u16 {
    if payload.len() < SIDECAR_MIN {
        return fletcher16_parts(&[head, payload]);
    }
    let (h1, h2) = sums(&[head]);
    let (p1, p2) = range_sums(payload);
    finish(reduce((h1 + p1, h2 + (payload.len() as u64 % 255) * h1 + p2)))
}

/// `(s1, s2) mod 255` over `parts` read back to back, every byte.
fn sums(parts: &[&[u8]]) -> (u64, u64) {
    /// Reduction interval (a multiple of 8): by block end `s1 < 2^30`
    /// and `s2 < 2^52`, far from overflowing.
    const BLOCK: usize = 1 << 22;
    let mut sums = (0, 0);
    for block in parts.iter().flat_map(|part| part.chunks(BLOCK)) {
        sums = reduce(extend(sums, block));
    }
    sums
}

/// `(s1, s2) mod 255` of `payload`'s bytes, from two prefix sums of its
/// buffer.
fn range_sums(payload: &Bytes) -> (u64, u64) {
    let (buf, range) = payload.buffer();
    let sidecar = payload.sidecar(prefix_sums);
    let (a1, a2) = prefix(buf, sidecar, range.start);
    let (b1, b2) = prefix(buf, sidecar, range.end);
    let len = (range.len() % 255) as u64;
    reduce((b1 + 255 - a1, b2 + 2 * 255 - a2 - len * a1 % 255))
}

/// `(P1[at], P2[at]) mod 255`: the sidecar entry at or below `at`,
/// extended over the at most `SIDECAR_STRIDE - 1` bytes past it.
fn prefix(buf: &[u8], sidecar: &[[u8; 2]], at: usize) -> (u64, u64) {
    let block = at / SIDECAR_STRIDE;
    let base = match block.checked_sub(1) {
        Some(i) => (sidecar[i][0] as u64, sidecar[i][1] as u64),
        None => (0, 0),
    };
    reduce(extend(base, &buf[block * SIDECAR_STRIDE..at]))
}

/// A buffer's sidecar: `(P1, P2) mod 255` at each whole
/// [`SIDECAR_STRIDE`]-byte boundary past the start, every byte summed
/// once.
fn prefix_sums(buf: &[u8]) -> Box<[[u8; 2]]> {
    let mut sums = (0, 0);
    buf.chunks_exact(SIDECAR_STRIDE)
        .map(|chunk| {
            sums = reduce(extend(sums, chunk));
            [sums.0 as u8, sums.1 as u8]
        })
        .collect()
}

/// Fletcher's running sums `(s1, s2)` carried over `data`, unreduced:
/// `data` must be short enough not to overflow them (4 MiB from sums
/// below 255).
#[inline]
fn extend((mut s1, mut s2): (u64, u64), data: &[u8]) -> (u64, u64) {
    /// Selects the even byte of each 16-bit lane.
    const M8: u64 = 0x00FF_00FF_00FF_00FF;
    /// Lane-wise sum: the top lane of `x * ONES` is `x`'s lane total.
    const ONES: u64 = 0x0001_0001_0001_0001;
    /// Positional taper: top lane of `x * TAPER` is `7*x0 + 5*x1 +
    /// 3*x2 + 1*x3` over `x`'s lanes (low lane first).
    const TAPER: u64 = 0x0007_0005_0003_0001;
    let mut words = data.chunks_exact(8);
    for w in words.by_ref() {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        // Four lanes of byte pairs: lane k = b[2k] + b[2k+1].
        let pairs = (w & M8) + ((w >> 8) & M8);
        let bsum = pairs.wrapping_mul(ONES) >> 48;
        // Weights [8,7,6,5,4,3,2,1] = [7,7,5,5,3,3,1,1] on the
        // pairs plus one extra count of each even-position byte.
        let esum = (w & M8).wrapping_mul(ONES) >> 48;
        let wsum = (pairs.wrapping_mul(TAPER) >> 48) + esum;
        s2 += 8 * s1 + wsum;
        s1 += bsum;
    }
    for &b in words.remainder() {
        s1 += b as u64;
        s2 += s1;
    }
    (s1, s2)
}

/// Both sums mod 255.
#[inline]
fn reduce((s1, s2): (u64, u64)) -> (u64, u64) {
    (s1 % 255, s2 % 255)
}

/// The checksum of reduced sums.
#[inline]
fn finish((s1, s2): (u64, u64)) -> u16 {
    ((s2 as u16) << 8) | s1 as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard Fletcher-16 test vectors.
        assert_eq!(fletcher16(b"abcde"), 0xC8F0);
        assert_eq!(fletcher16(b"abcdef"), 0x2057);
        assert_eq!(fletcher16(b"abcdefgh"), 0x0627);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(fletcher16(&[]), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x5Au8; 1024];
        let sum = fletcher16(&data);
        for byte in [0usize, 100, 1023] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(fletcher16(&corrupted), sum, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn detects_transpositions() {
        let sum = fletcher16(b"network backplane");
        assert_ne!(fletcher16(b"network backplena"), sum);
    }

    #[test]
    fn large_blocks_do_not_overflow() {
        // One block larger than the internal reduction interval.
        let data = vec![0xFFu8; 100_000];
        assert_eq!(fletcher16(&data), fletcher16_reference(&data));
    }

    /// The textbook one-byte-at-a-time Fletcher-16, kept as the oracle
    /// for the SWAR implementation.
    fn fletcher16_reference(data: &[u8]) -> u16 {
        let mut s1: u32 = 0;
        let mut s2: u32 = 0;
        for chunk in data.chunks(5802) {
            for &b in chunk {
                s1 += b as u32;
                s2 += s1;
            }
            s1 %= 255;
            s2 %= 255;
        }
        ((s2 as u16) << 8) | s1 as u16
    }

    #[test]
    fn parts_sum_as_their_concatenation() {
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 37 % 251) as u8).collect();
        for cut in [0usize, 1, 7, 8, 9, 32, 1500, 2999, 3000] {
            let (a, b) = data.split_at(cut);
            assert_eq!(fletcher16_parts(&[a, b]), fletcher16(&data), "cut at {cut}");
        }
        assert_eq!(fletcher16_parts(&[]), 0);
    }

    #[test]
    fn swar_matches_bytewise_reference() {
        // Every alignment tail (0..8 leftover bytes), tiny inputs, and
        // sizes straddling the old 5802-byte reduction interval.
        let mut data = Vec::new();
        let mut x: u32 = 0x12345678;
        for _ in 0..20_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push((x >> 24) as u8);
        }
        for len in (0..64).chain([5801, 5802, 5803, 8192, 11_604, 20_000]) {
            assert_eq!(fletcher16(&data[..len]), fletcher16_reference(&data[..len]), "len {len}");
        }
    }

    /// A deterministic pseudo-random buffer of `len` bytes.
    fn noise(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect()
    }

    /// The sidecar's answer for `data[a..b]`.
    fn from_sidecar(buf: &Bytes, a: usize, b: usize) -> u16 {
        finish(range_sums(&buf.slice(a..b)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Range sums read from the sidecar equal the bytewise
        /// reference over random buffers: random ranges, empty and
        /// 1-byte ranges, ranges between 64-byte boundaries, the whole
        /// buffer and ranges that end at its end; and a packet's
        /// checksum on either side of the sidecar path's length equals
        /// its parts summed byte by byte.
        #[test]
        fn sidecar_range_sums_match_the_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 0..1500),
            ends in (any::<u16>(), any::<u16>()),
            blocks in (any::<u8>(), any::<u8>()),
            head in prop::collection::vec(any::<u8>(), 0..33),
            near in 0usize..3,
        ) {
            let n = data.len();
            let buf = Bytes::from(data.clone());
            let (x, y) = (ends.0 as usize % (n + 1), ends.1 as usize % (n + 1));
            let (a, b) = (x.min(y), x.max(y));
            let (i, j) = (blocks.0 as usize, blocks.1 as usize);
            let stride = SIDECAR_STRIDE;
            let (i, j) = (i % (n / stride + 1) * stride, j % (n / stride + 1) * stride);
            let ranges = [
                (a, b),
                (a, a),
                (a, (a + 1).min(n)),
                (i.min(j), i.max(j)),
                (i.min(j), b.max(i.min(j))),
                (0, n),
                (a, n),
            ];
            for (a, b) in ranges {
                let want = fletcher16_reference(&data[a..b]);
                prop_assert_eq!(from_sidecar(&buf, a, b), want, "range {}..{} of {}", a, b, n);
            }
            let len = (SIDECAR_MIN - 1 + near).min(n - a);
            let payload = buf.slice(a..a + len);
            prop_assert_eq!(
                fletcher16_packet(&head, &payload),
                fletcher16_parts(&[&head, &data[a..a + len]]),
                "{}-byte payload at {}", len, a
            );
        }
    }

    /// Every range of a ~1,100-byte buffer — about 600,000 of them —
    /// read from the sidecar equals the bytewise reference. Too slow
    /// for a debug build.
    #[test]
    #[ignore]
    fn every_range_of_a_buffer_matches_the_reference() {
        let data = noise(1_100, 0x5EED);
        let buf = Bytes::from(data.clone());
        for a in 0..=data.len() {
            for b in a..=data.len() {
                assert_eq!(from_sidecar(&buf, a, b), fletcher16_reference(&data[a..b]), "{a}..{b}");
            }
        }
    }

    /// A sidecar holds one entry per whole stride of its buffer, and a
    /// damaged copy of a slice — a buffer of its own — is summed from
    /// its own bytes, not from its source's sidecar.
    #[test]
    fn a_damaged_copy_is_summed_from_its_own_bytes() {
        let buf = Bytes::from(noise(1_000, 7));
        let payload = buf.slice(200..900);
        let sum = fletcher16_packet(&[], &payload);
        assert_eq!(buf.sidecar(prefix_sums).len(), 1_000 / SIDECAR_STRIDE);
        let mut damaged = payload.to_vec();
        damaged[500] ^= 0x10;
        let damaged = Bytes::from(damaged);
        assert_ne!(fletcher16_packet(&[], &damaged), sum);
        assert_eq!(fletcher16_packet(&[], &damaged), fletcher16(&damaged));
    }
}
