//! Shared by the HUB's seeded scenario tests.

use nectar_sim::time::{Dur, Time};

/// A small deterministic generator for one case's scenario.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    /// A duration on the 10 ns grid below `max_ns`.
    pub fn dur(&mut self, max_ns: u64) -> Dur {
        Dur::from_nanos(10 * self.below(max_ns / 10))
    }

    /// An instant on the 10 ns grid below `max_ns`.
    pub fn at(&mut self, max_ns: u64) -> Time {
        Time::ZERO + self.dur(max_ns)
    }
}
