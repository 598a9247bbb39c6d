//! A free-list of payload buffers for the zero-allocation event path.
//!
//! Every transport action that puts bytes on the wire needs a `Vec<u8>`
//! for the encoded header + payload, and every delivery hands the bytes
//! to the receiving CAB. Allocating that `Vec` per packet dominates the
//! simulator's hot path once the scheduler itself is cheap, so the
//! world keeps a [`BufPool`]: encoded buffers are acquired from it,
//! travel through the fabric inside an `Arc` (so multicast fan-out and
//! delivery share, never copy), and are [`reclaim`](BufPool::reclaim)ed
//! once the last reference drops.
//!
//! The pool is deliberately simple — a LIFO stack of emptied `Vec`s —
//! because the simulation is single-threaded per world and buffer
//! lifetimes are short (a packet crosses the fabric in microseconds of
//! simulated time, a handful of events of real work).

use std::sync::Arc;

/// Statistics for one [`BufPool`], exposed for reports and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the free list.
    pub hits: u64,
    /// Acquisitions that had to allocate.
    pub misses: u64,
    /// Buffers returned to the free list.
    pub reclaims: u64,
    /// Reclaim attempts dropped because the buffer was still shared or
    /// the free list was full.
    pub dropped: u64,
}

impl PoolStats {
    /// Accumulates `other` into `self` (for summing per-CAB pools).
    pub fn merge(&mut self, other: PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.reclaims += other.reclaims;
        self.dropped += other.dropped;
    }
}

/// A LIFO free-list of byte buffers.
pub struct BufPool {
    free: Vec<Vec<u8>>,
    /// Maximum buffers kept; excess reclaims are dropped to bound
    /// memory under bursty traffic.
    capacity: usize,
    stats: PoolStats,
}

impl BufPool {
    /// A pool retaining at most `capacity` idle buffers.
    fn new(capacity: usize) -> BufPool {
        BufPool {
            free: Vec::with_capacity(capacity.min(1024)),
            capacity,
            stats: PoolStats::default(),
        }
    }

    /// Takes an empty buffer from the pool, or allocates one.
    pub fn acquire(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.stats.hits += 1;
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns an owned buffer to the pool (cleared, capacity kept).
    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.capacity {
            buf.clear();
            self.free.push(buf);
            self.stats.reclaims += 1;
        } else {
            self.stats.dropped += 1;
        }
    }

    /// Attempts to reclaim a shared buffer: succeeds only if this was
    /// the last reference (i.e. the packet has fully left the fabric).
    pub fn reclaim(&mut self, buf: Arc<Vec<u8>>) {
        match Arc::try_unwrap(buf) {
            Ok(v) => self.recycle(v),
            Err(_) => self.stats.dropped += 1,
        }
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

impl Default for BufPool {
    /// A pool sized for a busy world: enough idle buffers to cover the
    /// packets in flight across a full mesh without dropping reclaims.
    fn default() -> BufPool {
        BufPool::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_reclaimed_buffers() {
        let mut pool = BufPool::new(8);
        let mut buf = pool.acquire();
        assert_eq!(pool.stats().misses, 1);
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        pool.recycle(buf);
        let again = pool.acquire();
        assert_eq!(pool.stats().hits, 1);
        assert!(again.is_empty(), "recycled buffers come back cleared");
        assert_eq!(again.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn reclaim_refuses_shared_buffers() {
        let mut pool = BufPool::new(8);
        let a = Arc::new(vec![1u8; 16]);
        let b = Arc::clone(&a);
        pool.reclaim(a);
        assert_eq!(pool.free.len(), 0, "still-shared buffer must not be pooled");
        assert_eq!(pool.stats().dropped, 1);
        drop(b);
    }

    #[test]
    fn reclaim_takes_last_reference() {
        let mut pool = BufPool::new(8);
        let a = Arc::new(vec![1u8; 16]);
        let b = Arc::clone(&a);
        drop(a);
        pool.reclaim(b);
        assert_eq!(pool.free.len(), 1);
        assert_eq!(pool.stats().reclaims, 1);
    }

    #[test]
    fn capacity_bounds_idle_buffers() {
        let mut pool = BufPool::new(2);
        for _ in 0..4 {
            pool.recycle(Vec::with_capacity(64));
        }
        assert_eq!(pool.free.len(), 2);
        assert_eq!(pool.stats().dropped, 2);
    }
}
