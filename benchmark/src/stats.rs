//! Small statistics kit: medians and quartiles, a stable hash for the
//! simulated-result digest, and the ns/op timing loop the isolated
//! per-layer measurements share.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values when even).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by linear interpolation between order
/// statistics. With one value all three are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Interquartile range as a share of the median (`0.0` when the median
/// is zero or there are fewer than two values).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if values.len() < 2 || med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// One FNV-1a step over `bytes`, continuing from `state`. Stable
/// across Rust versions, unlike `DefaultHasher`.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Host nanoseconds per call of `op`: the batch size doubles until one
/// batch takes about a millisecond, then the median of nine batches is
/// reported, so one pre-empted batch does not move the number.
pub fn ns_per_op<F: FnMut()>(mut op: F) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        if t0.elapsed() >= Duration::from_millis(1) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                op();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[4.0, 1.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqr_share_needs_two_values_and_a_nonzero_median() {
        assert_eq!(iqr_share(&[3.0]), 0.0);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
        assert!((iqr_share(&[9.0, 10.0, 11.0]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_matches_the_published_vector() {
        assert_eq!(fnv1a(0xcbf2_9ce4_8422_2325, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
