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
//! sum misses) and computable in one pass.

/// Computes the Fletcher-16 checksum of `data`.
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
/// lane. The `% 255` reductions are deferred to once per 4 MiB block —
/// the `u64` accumulators cannot overflow within one (s2 stays below
/// 2^52) — and Fletcher's sums are mod-255 homomorphic, so deferral
/// does not change the result.
///
/// # Examples
///
/// ```
/// use nectar_cab::checksum::fletcher16;
/// assert_eq!(fletcher16(b"abcde"), 0xC8F0);
/// assert_ne!(fletcher16(b"abcde"), fletcher16(b"abdce")); // order matters
/// ```
pub fn fletcher16(data: &[u8]) -> u16 {
    /// Selects the even byte of each 16-bit lane.
    const M8: u64 = 0x00FF_00FF_00FF_00FF;
    /// Lane-wise sum: the top lane of `x * ONES` is `x`'s lane total.
    const ONES: u64 = 0x0001_0001_0001_0001;
    /// Positional taper: top lane of `x * TAPER` is `7*x0 + 5*x1 +
    /// 3*x2 + 1*x3` over `x`'s lanes (low lane first).
    const TAPER: u64 = 0x0007_0005_0003_0001;
    /// Reduction interval (a multiple of 8): by block end `s1 < 2^30`
    /// and `s2 < 2^52`, far from overflowing.
    const BLOCK: usize = 1 << 22;
    let mut s1: u64 = 0;
    let mut s2: u64 = 0;
    for block in data.chunks(BLOCK) {
        let mut words = block.chunks_exact(8);
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
        s1 %= 255;
        s2 %= 255;
    }
    ((s2 as u16) << 8) | s1 as u16
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
