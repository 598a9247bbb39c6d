//! A unified metrics registry: named counters, gauges, and
//! log-bucketed latency histograms.
//!
//! Every hardware model in the workspace keeps private counters (the
//! HUB's command counters, the CAB's packet counters, the kernel's
//! switch count). [`MetricsRegistry`] is the single sink they all
//! register into so the harness reports from one structure instead of
//! per-crate structs, and it serialises to JSON for `BENCH_sim.json`.
//!
//! [`Histogram`] records value distributions in logarithmically spaced
//! buckets (64 sub-buckets per octave, ≤ ~1.6 % relative error) so
//! p50/p90/p99/max survive without storing raw samples — the same
//! trade HdrHistogram makes.
//!
//! # Examples
//!
//! ```
//! use nectar_sim::metrics::{Histogram, MetricsRegistry};
//!
//! let mut flight_ns = Histogram::new();
//! flight_ns.observe(30_000);
//! flight_ns.observe(31_000);
//! let mut reg = MetricsRegistry::new();
//! reg.counter_add("hub0.packets_forwarded", 12);
//! reg.merge_histogram("latency.flight_ns", &flight_ns);
//! assert_eq!(reg.counter("hub0.packets_forwarded"), 12);
//! let h = reg.histogram("latency.flight_ns").unwrap();
//! assert_eq!(h.count(), 2);
//! assert!(reg.to_json().contains("\"p99\""));
//! ```

use crate::json::json_escape;
use std::collections::BTreeMap;

/// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per octave.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// Maps a value to its bucket index. Values below `SUB` get exact
/// (width-1) buckets; above that, each octave is split into `SUB`
/// linear sub-buckets, bounding relative error by `1/SUB`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // position of the top bit, >= SUB_BITS
        let octave = (e - SUB_BITS + 1) as usize;
        let sub = ((v >> (e - SUB_BITS)) & (SUB - 1)) as usize;
        (octave << SUB_BITS) + sub
    }
}

/// Lowest value falling into bucket `idx` (inverse of
/// [`bucket_index`]).
fn bucket_low(idx: usize) -> u64 {
    let octave = idx >> SUB_BITS;
    let sub = (idx & (SUB as usize - 1)) as u64;
    if octave == 0 {
        sub
    } else {
        (SUB + sub) << (octave - 1)
    }
}

/// Width (number of distinct values) of bucket `idx`.
fn bucket_width(idx: usize) -> u64 {
    let octave = idx >> SUB_BITS;
    if octave == 0 {
        1
    } else {
        1 << (octave - 1)
    }
}

/// A log-linear histogram over `u64` values (latencies in
/// nanoseconds, sizes in bytes, …).
///
/// Memory is bounded: at most ~3.8 k buckets for the full `u64` range,
/// grown on demand. Exact `min`/`max`/`sum`/`count` are kept on the
/// side so the extremes and the mean are not quantised.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as u128;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`, matching the exact
    /// nearest-rank quantile of the raw observations up to bucket
    /// resolution (≤ ~1.6 % relative error). Returns the
    /// midpoint of the bucket holding the ranked observation, clamped
    /// to the exact `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen > rank {
                let low = bucket_low(idx);
                let mid = low + bucket_width(idx) / 2;
                return (mid.clamp(self.min, self.max)) as f64;
            }
        }
        self.max as f64
    }

    /// Folds another histogram into this one (bucket-wise add; exact
    /// extremes and sums combine exactly).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (idx, &n) in other.buckets.iter().enumerate() {
            self.buckets[idx] += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Serialises summary statistics (not raw buckets) as one JSON
    /// object.
    fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.1}, \
             \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}}}",
            self.count,
            self.min,
            self.max,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

/// Named counters, gauges, and histograms from every layer of the
/// stack, keyed by dotted names (`hub0.packets_forwarded`,
/// `cab1.dma.bytes_moved`, `latency.flight_ns`).
///
/// `BTreeMap`s keep iteration — and therefore JSON output — in a
/// deterministic order.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `v` to the named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets the named gauge to `max(current, v)` — high-water
    /// semantics, which is what depth/occupancy gauges want here.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        *g = g.max(v);
    }

    /// Folds a whole histogram into the named slot.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms.entry(name.to_string()).or_default().merge(h);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub(crate) fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation reached it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the max, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.counter_add(k, v);
        }
        for (k, &v) in &other.gauges {
            self.gauge_max(k, v);
        }
        for (k, h) in &other.histograms {
            self.merge_histogram(k, h);
        }
    }

    /// Serialises the registry as one JSON object with `counters`,
    /// `gauges`, and `histograms` members, deterministically ordered.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {v}", json_escape(k)));
        }
        s.push_str("}, \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {v:.1}", json_escape(k)));
        }
        s.push_str("}, \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", json_escape(k), h.to_json()));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB {
            h.observe(v);
        }
        assert_eq!(h.count(), SUB);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB - 1);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), (SUB - 1) as f64);
    }

    #[test]
    fn bucket_round_trip() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 70_000, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            let low = bucket_low(idx);
            let width = bucket_width(idx);
            assert!(low <= v, "low {low} > v {v}");
            assert!(v - low < width, "v {v} outside bucket [{low}, {low}+{width})");
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.observe(v);
        }
        for &(q, exact) in &[(0.5, 50_000.5), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let approx = h.quantile(q);
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.02, "q={q}: approx {approx} vs exact {exact} (rel {rel})");
        }
    }

    #[test]
    fn merge_matches_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [5u64, 900, 70_000] {
            a.observe(v);
            all.observe(v);
        }
        for v in [2u64, 2_000_000] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    fn hist(v: u64) -> Histogram {
        let mut h = Histogram::new();
        h.observe(v);
        h
    }

    #[test]
    fn registry_counters_and_merge() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 2);
        a.gauge_max("g", 3.0);
        a.merge_histogram("h", &hist(10));
        let mut b = MetricsRegistry::new();
        b.counter_add("x", 5);
        b.gauge_max("g", 1.0);
        b.merge_histogram("h", &hist(20));
        a.merge(&b);
        assert_eq!(a.counter("x"), 7);
        assert_eq!(a.gauge("g"), Some(3.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn json_has_all_sections() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("c", 1);
        reg.gauge_max("g", 2.5);
        reg.merge_histogram("lat", &hist(700));
        let j = reg.to_json();
        for needle in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"p50\"", "\"p99\""] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }
}
