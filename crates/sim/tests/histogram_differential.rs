//! Differential test: the log-bucketed [`Histogram`] against an exact
//! nearest-rank quantile over the raw observations. The histogram
//! keeps no raw observations, so its quantiles are approximate — but
//! the log-linear bucketing (64 sub-buckets per octave) bounds the
//! relative error of any quantile by the bucket width, ~1.6%.

use nectar_sim::metrics::Histogram;
use proptest::prelude::*;

const REL_TOL: f64 = 0.02;

/// The exact reference: the `q`-quantile of `values` by nearest rank,
/// the rank rule [`Histogram::quantile`] applies to its buckets.
fn exact_quantile(values: &[u64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx] as f64
}

fn check_quantiles(values: &[u64]) {
    let h = hist_of(values);
    prop_assert_eq!(h.count(), values.len() as u64);
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let exact = exact_quantile(values, q);
        let approx = h.quantile(q);
        let tol = (exact * REL_TOL).max(1.0);
        prop_assert!(
            (approx - exact).abs() <= tol,
            "q={} exact={} approx={} tol={}",
            q,
            exact,
            approx,
            tol
        );
    }
    // min/max are tracked exactly, never approximated.
    prop_assert_eq!(h.min(), values.iter().copied().min().unwrap_or(0));
    prop_assert_eq!(h.max(), values.iter().copied().max().unwrap_or(0));
}

proptest! {
    #[test]
    fn quantiles_track_exact_samples_small(
        values in prop::collection::vec(0u64..1000, 1..300),
    ) {
        check_quantiles(&values);
    }

    #[test]
    fn quantiles_track_exact_samples_wide(
        values in prop::collection::vec(0u64..1_000_000_000, 1..300),
    ) {
        check_quantiles(&values);
    }

    #[test]
    fn quantiles_survive_merging(
        a in prop::collection::vec(0u64..100_000, 1..150),
        b in prop::collection::vec(0u64..100_000, 1..150),
    ) {
        let mut ha = hist_of(&a);
        ha.merge(&hist_of(&b));
        let all = [a.as_slice(), b.as_slice()].concat();
        prop_assert_eq!(ha.count(), (a.len() + b.len()) as u64);
        for q in [0.5, 0.9, 0.99] {
            let exact = exact_quantile(&all, q);
            let approx = ha.quantile(q);
            let tol = (exact * REL_TOL).max(1.0);
            prop_assert!((approx - exact).abs() <= tol,
                "merged q={} exact={} approx={}", q, exact, approx);
        }
    }
}

/// Builds a histogram by observing every value in `values`.
fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    /// `merge` is commutative: a⊔b and b⊔a are the same histogram,
    /// bucket for bucket (`Histogram` derives `Eq`), and both equal
    /// the oracle built by observing every value into one histogram.
    /// The streaming doctor's sharded folds merge per-shard histograms
    /// in canonical order, but correctness must not depend on it.
    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(0u64..1_000_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(&ab, &hist_of(&all));
    }

    /// `merge` is associative: (a⊔b)⊔c == a⊔(b⊔c), so window folds can
    /// combine partial histograms in any grouping.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000_000, 0..120),
        b in prop::collection::vec(0u64..1_000_000_000, 0..120),
        c in prop::collection::vec(0u64..1_000_000_000, 0..120),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The empty histogram is the identity of `merge` on either side —
    /// merging it must not disturb the exact min/max/sum sidecars.
    #[test]
    fn empty_is_merge_identity(
        a in prop::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let ha = hist_of(&a);
        let mut left = Histogram::new();
        left.merge(&ha);
        prop_assert_eq!(&left, &ha);
        let mut right = ha.clone();
        right.merge(&Histogram::new());
        prop_assert_eq!(&right, &ha);
    }

    /// Single-bucket histograms (every observation the same value)
    /// merge into a single-bucket histogram with exact count, mean,
    /// and degenerate quantiles.
    #[test]
    fn single_bucket_merge_is_exact(v in 0u64..1_000_000_000, n in 1usize..64, m in 1usize..64) {
        let mut h = hist_of(&vec![v; n]);
        h.merge(&hist_of(&vec![v; m]));
        prop_assert_eq!(h.count(), (n + m) as u64);
        prop_assert_eq!(h.min(), v);
        prop_assert_eq!(h.max(), v);
        prop_assert!((h.mean() - v as f64).abs() < 1e-9);
        prop_assert_eq!(h.quantile(0.0), v as f64);
        prop_assert_eq!(h.quantile(0.5), v as f64);
        prop_assert_eq!(h.quantile(1.0), v as f64);
    }
}
