//! Measurement collection: exact sample distributions.
//!
//! [`Samples`] stores raw observations (latencies, sizes) and answers
//! mean/min/max/quantiles exactly; the application experiments report
//! through it, and it is the reference the
//! [`Histogram`](crate::metrics::Histogram) differential test holds
//! the bucketed quantiles to.
//!
//! # Examples
//!
//! ```
//! use nectar_sim::stats::Samples;
//! use nectar_sim::time::Dur;
//!
//! let mut lat = Samples::new("latency");
//! for us in [28, 29, 31, 30] {
//!     lat.record_dur(Dur::from_micros(us));
//! }
//! assert_eq!(lat.len(), 4);
//! assert_eq!(lat.mean(), 29_500.0); // nanoseconds
//! ```

use crate::time::Dur;
use core::fmt;

/// A named collection of `f64` observations with summary statistics.
///
/// Observations are kept verbatim; quantiles sort a copy on demand.
/// Simulation experiment sizes (10^3–10^6 samples) make this the
/// simplest correct choice.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples {
    name: String,
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty collection.
    pub fn new(name: impl Into<String>) -> Samples {
        Samples { name: name.into(), values: Vec::new() }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN; a NaN observation poisons every summary.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot record NaN");
        self.values.push(v);
    }

    /// Records a duration as nanoseconds.
    pub fn record_dur(&mut self, d: Dur) {
        self.record(d.nanos() as f64);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Largest observation, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max).finite_or_zero()
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`; 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    }

    /// Median (0.5-quantile).
    fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

trait FiniteOrZero {
    fn finite_or_zero(self) -> f64;
}
impl FiniteOrZero for f64 {
    fn finite_or_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl fmt::Display for Samples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.1} p50={:.1} p99={:.1} max={:.1}",
            self.name,
            self.len(),
            self.mean(),
            self.median(),
            self.quantile(0.99),
            self.max(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_summaries() {
        let mut s = Samples::new("x");
        s.extend([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn empty_samples_are_safe() {
        let s = Samples::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.median(), 0.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = Samples::new("q");
        s.extend((1..=100).map(|v| v as f64));
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.99), 99.0);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        Samples::new("bad").record(f64::NAN);
    }

    #[test]
    fn record_dur_stores_nanos() {
        let mut s = Samples::new("lat");
        s.record_dur(Dur::from_micros(30));
        assert_eq!(s.mean(), 30_000.0);
    }
}
