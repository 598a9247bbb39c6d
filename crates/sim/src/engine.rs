//! The discrete-event simulation engine.
//!
//! [`Engine`] is a priority queue of timestamped events plus a clock.
//! It is generic over the event payload type `E`; the system-integration
//! layer defines one event enum for the whole world and drives the loop:
//!
//! ```
//! use nectar_sim::engine::Engine;
//! use nectar_sim::time::{Dur, Time};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut eng = Engine::new();
//! eng.schedule(Dur::from_nanos(10), Ev::Ping);
//! let mut log = Vec::new();
//! while let Some(ev) = eng.step() {
//!     match ev {
//!         Ev::Ping => {
//!             eng.schedule(Dur::from_nanos(5), Ev::Pong);
//!             log.push((eng.now(), "ping"));
//!         }
//!         Ev::Pong => log.push((eng.now(), "pong")),
//!     }
//! }
//! assert_eq!(log, vec![(Time::from_nanos(10), "ping"), (Time::from_nanos(15), "pong")]);
//! ```
//!
//! Determinism: events that share a timestamp are delivered in the order
//! they were scheduled (FIFO tie-break on a sequence number), so a run
//! is a pure function of its inputs and RNG seed.
//!
//! # Implementation
//!
//! Events live in a **slab** of generation-tagged slots reached
//! directly from the [`EventId`]; ordering comes from two tiers split
//! by how far ahead of the clock an event lies.
//!
//! **Near future: a timing wheel.** The hardware this simulator models
//! runs on a 70 ns cycle, so almost every event is scheduled a few
//! hundred nanoseconds to a few microseconds ahead. Those go into one
//! of 4096 buckets of 64 ns (one HUB cycle per bucket at most; the
//! 262 µs horizon covers a 1 KB packet's 82 µs wire time three times
//! over), indexed by `(at / 64 ns) mod 4096`. Scheduling is a `Vec`
//! push plus two bit-sets in a two-level occupancy bitmap; finding the
//! next non-empty bucket is two `trailing_zeros`. A bucket is sorted by
//! `(at, key)` only when it becomes the *front* bucket (the one holding
//! the wheel's minimum) — descending, so delivery pops from the tail
//! and a new overall minimum appends without disturbing the order. Any
//! other insert into the front bucket pushes and clears a `sorted`
//! flag; the next pop re-sorts. Nothing is ever inserted into the
//! middle of a bucket, so an insert costs the same however many events
//! share its instant. The wheel's minimum is cached, which keeps
//! [`peek_time`](Engine::peek_time) O(1) on `&self`.
//!
//! Cancelling a wheel event frees its slot at once (bumping the
//! generation) and leaves the bucket entry behind as a **tombstone**:
//! an entry whose recorded generation no longer matches its slot's.
//! Tombstones are purged when their bucket is sorted or popped;
//! cancelling the cached minimum re-settles the front immediately.
//!
//! **Far future: the indexed 4-ary heap.** Events at or beyond the
//! horizon (1 ms datalink timeouts, retransmission timers, think
//! times) go to a struct-of-arrays min-heap: `heap_keys` holds dense
//! 16-byte `(time, key)` records — four to a cache line, exactly one
//! 4-ary node — and `heap_slots` the matching slab indices, so sifts
//! never touch payloads. Each slot's `meta` remembers its heap
//! position, which makes cancelling a far-future timer an exact
//! O(log n) removal with nothing left behind.
//!
//! **The invariant between them.** Every wheel entry's bucket number
//! lies in `[bucket(now), bucket(now) + 4096)` and every heap entry's
//! at or beyond `bucket(now) + 4096`. Each clock advance
//! ([`step`](Engine::step), [`step_batch`](Engine::step_batch),
//! [`advance_to`](Engine::advance_to)) moves the heap entries the
//! window has reached into the wheel. So
//! whenever the wheel holds a live event the global minimum is in the
//! wheel, and the heap root is consulted only when the wheel is empty.
//!
//! For drivers that process many events per simulated instant (a HUB
//! drains an entire 70 ns cycle at once), [`step_batch`](Engine::step_batch)
//! pops every event sharing the earliest timestamp in one call: they
//! are the tail run of one sorted bucket.

use crate::time::{Dur, Time};
use std::cmp::Reverse;
use std::fmt;

/// Handle to a scheduled event, usable to [`Engine::cancel`] it.
///
/// Handles are unique over the lifetime of an engine and never reused:
/// a handle is a slot index plus the slot's generation at scheduling
/// time, and the generation is bumped every time the slot is freed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn pack(slot: u32, gen: u32) -> EventId {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Sentinel queue position for slots not currently queued.
const NOT_QUEUED: u32 = u32::MAX;

/// Sentinel queue position for slots queued in the timing wheel (their
/// bucket entry finds them; they need no back-pointer).
const IN_WHEEL: u32 = u32::MAX - 1;

/// The HUB's clock period (§4.1 of the paper). Everything else on the
/// hardware's fast path — 350 ns transit, 700 ns set-up, 80 ns per
/// fiber byte — is a small multiple of it.
const HUB_CYCLE_NS: u64 = 70;

/// The longest item the datalink puts on a fiber: a 1 KB packet at
/// 80 ns per byte, plus framing.
const MAX_WIRE_NS: u64 = 82_000;

/// log2 of the bucket width: 64 ns, the largest power of two that
/// still gives every HUB cycle a bucket of its own.
const BUCKET_SHIFT: u32 = 6;

/// log2 of the bucket count. 4096 × 64 ns = 262 µs: every delay the
/// fabric itself produces is inside the wheel, and only protocol
/// timers (≥ 1 ms) overflow to the heap.
const WHEEL_BITS: u32 = 12;
const WHEEL_SIZE: usize = 1 << WHEEL_BITS;
const WHEEL_MASK: u64 = WHEEL_SIZE as u64 - 1;

const _: () = assert!(1 << BUCKET_SHIFT <= HUB_CYCLE_NS && HUB_CYCLE_NS < 2 << BUCKET_SHIFT);
const _: () = assert!((WHEEL_SIZE as u64) << BUCKET_SHIFT > MAX_WIRE_NS);
// The occupancy bitmap is exactly two levels of 64-bit words.
const _: () = assert!(WHEEL_SIZE == 64 * 64);

/// Heap arity. 4 trades a slightly deeper comparison fan-out per level
/// for half the depth of a binary heap — and with the SoA key array,
/// one node's four 16-byte keys are exactly one cache line, so the
/// per-level best-child scan never crosses a line boundary when the
/// array is line-aligned.
const ARITY: usize = 4;

/// The absolute bucket number of instant `at`.
#[inline]
fn bucket_of(at: Time) -> u64 {
    at.nanos() >> BUCKET_SHIFT
}

/// Per-slot bookkeeping, split off from the payload so heap moves
/// rewrite 8-byte records instead of payload-sized ones.
#[derive(Clone, Copy)]
struct SlotMeta {
    /// Bumped on every free; stale [`EventId`]s and wheel tombstones
    /// fail the generation check.
    gen: u32,
    /// Position in the heap arrays, [`IN_WHEEL`], or [`NOT_QUEUED`].
    pos: u32,
}

/// The dense ordering key for one queued event. Comparisons in the
/// sift loops touch only the contiguous `heap_keys` array — no pointer
/// chase into the slab, no payload bytes pulled through the cache.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    /// Delivery time.
    at: Time,
    /// Tie-break: FIFO sequence number or caller-supplied key.
    seq: u64,
}

/// One wheel-bucket entry. Live while `gen` equals the slot's current
/// generation; a tombstone afterwards.
#[derive(Clone, Copy)]
struct WheelEntry {
    key: HeapKey,
    slot: u32,
    gen: u32,
}

/// A deterministic discrete-event scheduler.
///
/// See the [module documentation](self) for the driving pattern and
/// the data-structure notes. Scheduling and delivering an event inside
/// the 262 µs wheel horizon are O(1) amortised (a bucket is sorted
/// once, when the clock reaches it); beyond it they are O(log n) in
/// the number of far-future events. Cancelling is O(1) in the wheel
/// and O(log n) in the heap, with no hashing;
/// [`peek_time`](Engine::peek_time) is O(1).
pub struct Engine<E> {
    now: Time,
    /// Slab bookkeeping, parallel to `payloads`.
    meta: Vec<SlotMeta>,
    /// Slab payloads, parallel to `meta`.
    payloads: Vec<Option<E>>,
    /// Indices of free slots, reused LIFO.
    free: Vec<u32>,
    /// Wheel buckets, indexed by `bucket_of(at) & WHEEL_MASK`.
    buckets: Vec<Vec<WheelEntry>>,
    /// Bit `b & 63` of word `b >> 6` is set while bucket `b` may hold
    /// entries (live or tombstoned).
    occupied: [u64; 64],
    /// Bit `w` is set while `occupied[w]` is non-zero.
    occupied_words: u64,
    /// Live (non-tombstone) wheel entries.
    wheel_live: usize,
    /// The least live wheel entry; meaningful while `wheel_live > 0`.
    wheel_min: WheelEntry,
    /// Index of the bucket holding `wheel_min`.
    front: usize,
    /// The front bucket is sorted descending by `(at, key)`, so
    /// `wheel_min` is its last entry.
    front_sorted: bool,
    /// 4-ary min-heap ordering keys, parallel to `heap_slots`.
    heap_keys: Vec<HeapKey>,
    /// Slab slot index per heap entry, parallel to `heap_keys`.
    heap_slots: Vec<u32>,
    next_seq: u64,
    delivered: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<E> fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`Time::ZERO`] and no events.
    pub fn new() -> Engine<E> {
        Engine::with_capacity(0)
    }

    /// Creates an engine with slab capacity for `n` pending events,
    /// avoiding growth reallocations during warm-up.
    pub fn with_capacity(n: usize) -> Engine<E> {
        Engine {
            now: Time::ZERO,
            meta: Vec::with_capacity(n),
            payloads: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            buckets: (0..WHEEL_SIZE).map(|_| Vec::new()).collect(),
            occupied: [0; 64],
            occupied_words: 0,
            wheel_live: 0,
            wheel_min: WheelEntry { key: HeapKey { at: Time::ZERO, seq: 0 }, slot: 0, gen: 0 },
            front: 0,
            front_sorted: true,
            heap_keys: Vec::new(),
            heap_slots: Vec::new(),
            next_seq: 0,
            delivered: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// delivered event (or [`Time::ZERO`] before the first).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of live events still pending.
    pub fn pending(&self) -> usize {
        self.wheel_live + self.heap_keys.len()
    }

    /// `true` if no live events remain.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Schedules `payload` to fire `delay` after the current time.
    ///
    /// Returns a handle usable with [`cancel`](Engine::cancel).
    pub fn schedule(&mut self, delay: Dur, payload: E) -> EventId {
        let at = self
            .now
            .checked_add(delay)
            .expect("event scheduled past the end of representable time");
        self.schedule_at(at, payload)
    }

    /// Schedules `payload` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Engine::now): the
    /// simulation cannot deliver events into its own past.
    pub fn schedule_at(&mut self, at: Time, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, payload)
    }

    /// Schedules `payload` at `at` with a **caller-supplied tie-break
    /// key** instead of the engine's FIFO sequence number.
    ///
    /// Same-instant events are delivered in ascending key order, no
    /// matter in which order (or from which engine-feeding thread) they
    /// were inserted. This is the primitive behind sharded execution:
    /// when every event carries a key that is intrinsic to its *source
    /// component* (not to the scheduling order), a partitioned run pops
    /// the exact same sequence as a sequential one.
    ///
    /// Keys must be unique per instant across the whole simulation; the
    /// world derives a CAB's as `(CAB << 40) | per-CAB counter` and a
    /// HUB's from the wire the event travels (HUB, port, class), which
    /// carries at most one event per instant. Do not mix keyed and
    /// unkeyed scheduling in one engine —
    /// FIFO sequence numbers and component keys order against each
    /// other meaninglessly.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Engine::now).
    pub fn schedule_at_keyed(&mut self, at: Time, key: u64, payload: E) -> EventId {
        self.insert(at, key, payload)
    }

    fn insert(&mut self, at: Time, seq: u64, payload: E) -> EventId {
        assert!(at >= self.now, "cannot schedule an event in the past ({at} < {})", self.now);
        let slot = match self.free.pop() {
            Some(i) => {
                debug_assert!(
                    self.meta[i as usize].pos == NOT_QUEUED && self.payloads[i as usize].is_none()
                );
                self.payloads[i as usize] = Some(payload);
                i
            }
            None => {
                let i = self.meta.len();
                assert!(i < IN_WHEEL as usize, "event slab exhausted");
                self.meta.push(SlotMeta { gen: 0, pos: NOT_QUEUED });
                self.payloads.push(Some(payload));
                i as u32
            }
        };
        let key = HeapKey { at, seq };
        if bucket_of(at) - bucket_of(self.now) < WHEEL_SIZE as u64 {
            self.wheel_push(key, slot);
        } else {
            let pos = self.heap_keys.len();
            self.heap_keys.push(key);
            self.heap_slots.push(slot);
            self.meta[slot as usize].pos = pos as u32;
            self.sift_up(pos);
        }
        EventId::pack(slot, self.meta[slot as usize].gen)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (it will not be
    /// delivered), `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot();
        let Some(&m) = self.meta.get(slot as usize) else { return false };
        if m.gen != id.gen() || m.pos == NOT_QUEUED {
            return false; // already fired, already cancelled, or unknown
        }
        if m.pos == IN_WHEEL {
            // The bucket entry stays behind as a tombstone: releasing
            // the slot bumps its generation past the entry's.
            self.release(slot);
            self.wheel_live -= 1;
            if self.wheel_live > 0 && self.wheel_min.slot == slot && self.wheel_min.gen == m.gen {
                self.sort_front();
                self.settle_front();
            }
        } else {
            self.remove_at(m.pos as usize);
            self.release(slot);
        }
        true
    }

    /// Delivers the next event: advances the clock to its timestamp and
    /// returns its payload, or `None` if the queue is empty.
    pub fn step(&mut self) -> Option<E> {
        let at = self.peek_time()?;
        self.set_clock(at);
        self.sort_front();
        let e = self.buckets[self.front].pop().expect("front bucket holds the minimum");
        debug_assert!(e.key == self.wheel_min.key && e.slot == self.wheel_min.slot);
        let payload = self.deliver(e.slot);
        self.settle_front();
        Some(payload)
    }

    /// Delivers **every** event sharing the earliest pending timestamp:
    /// advances the clock to it, appends `(key, payload)` pairs to `out`
    /// in key order — the tie-break key of a keyed event, the FIFO
    /// sequence number of an unkeyed one — and returns the timestamp, or
    /// `None` (leaving `out` untouched) if the queue is empty. The keys
    /// let a driver place work of its own among the events of the
    /// instant.
    ///
    /// This is the bulk form of [`step`](Engine::step) for drivers that
    /// drain one simulated instant at a time (e.g. one 70 ns HUB cycle):
    /// one call replaces a peek/compare/pop cycle per event. Events
    /// scheduled *at the returned timestamp while the batch is being
    /// processed* are not lost — they form the next batch, preserving
    /// global FIFO order (their sequence numbers are higher than
    /// everything already popped).
    ///
    /// Note that the popped events are committed for delivery:
    /// [`cancel`](Engine::cancel) on one of them returns `false` once
    /// this call returns. Callers that interleave cancellation with
    /// batch draining must filter stale events themselves (the world
    /// keeps its timer slots for exactly this).
    pub fn step_batch(&mut self, out: &mut Vec<(u64, E)>) -> Option<Time> {
        let at = self.peek_time()?;
        self.set_clock(at);
        self.sort_front();
        // One instant never straddles buckets: the batch is the tail
        // run of the (descending) front bucket.
        while let Some(&e) = self.buckets[self.front].last() {
            if self.meta[e.slot as usize].gen == e.gen {
                if e.key.at != at {
                    break;
                }
                out.push((e.key.seq, self.deliver(e.slot)));
            }
            self.buckets[self.front].pop();
        }
        self.settle_front();
        Some(at)
    }

    /// The timestamp of the next live event, if any, without delivering
    /// it. O(1): the wheel's minimum is cached and the heap root is
    /// always live.
    pub fn peek_time(&self) -> Option<Time> {
        if self.wheel_live > 0 {
            Some(self.wheel_min.key.at)
        } else {
            self.heap_keys.first().map(|k| k.at)
        }
    }

    /// Advances the clock to `t` without delivering anything.
    ///
    /// Used by drivers that poll in fixed time slices: when every
    /// pending event lies beyond the slice, the clock still moves.
    ///
    /// # Panics
    ///
    /// Panics if a live event is scheduled before `t` — delivering it
    /// late would reorder the simulation.
    pub fn advance_to(&mut self, t: Time) {
        if t <= self.now {
            return;
        }
        if let Some(next) = self.peek_time() {
            assert!(next >= t, "cannot advance past a pending event at {next}");
        }
        self.set_clock(t);
    }

    // ---------------------------------------------------------------
    // Slab internals
    // ---------------------------------------------------------------

    /// Takes `slot`'s payload and returns the slot to the freelist.
    fn take_payload(&mut self, slot: u32) -> E {
        let payload = self.payloads[slot as usize].take().expect("queued slot has a payload");
        self.release(slot);
        payload
    }

    /// [`take_payload`](Self::take_payload) for a wheel entry that is
    /// being delivered.
    fn deliver(&mut self, slot: u32) -> E {
        self.wheel_live -= 1;
        self.delivered += 1;
        self.take_payload(slot)
    }

    /// Returns `slot` to the freelist with a bumped generation.
    fn release(&mut self, slot: u32) {
        self.payloads[slot as usize] = None;
        let m = &mut self.meta[slot as usize];
        m.pos = NOT_QUEUED;
        m.gen = m.gen.wrapping_add(1);
        self.free.push(slot);
    }

    // ---------------------------------------------------------------
    // Clock and tier migration
    // ---------------------------------------------------------------

    /// Moves the clock to `t` and pulls into the wheel every heap entry
    /// the wheel's window now covers. Callers guarantee no live event
    /// lies before `t`.
    fn set_clock(&mut self, t: Time) {
        let entered = bucket_of(t) != bucket_of(self.now);
        self.now = t;
        if !entered {
            return;
        }
        let horizon = bucket_of(t) + WHEEL_SIZE as u64;
        while let Some(&root) = self.heap_keys.first() {
            if bucket_of(root.at) >= horizon {
                break;
            }
            let slot = self.heap_slots[0];
            self.remove_at(0);
            self.wheel_push(root, slot);
        }
    }

    // ---------------------------------------------------------------
    // Timing-wheel internals
    // ---------------------------------------------------------------

    /// Appends a live entry to its bucket and keeps the cached minimum
    /// and the front bucket's `sorted` flag truthful.
    fn wheel_push(&mut self, key: HeapKey, slot: u32) {
        let b = (bucket_of(key.at) & WHEEL_MASK) as usize;
        let m = &mut self.meta[slot as usize];
        m.pos = IN_WHEEL;
        let entry = WheelEntry { key, slot, gen: m.gen };
        let bucket = &mut self.buckets[b];
        bucket.push(entry);
        self.occupied[b >> 6] |= 1 << (b & 63);
        self.occupied_words |= 1 << (b >> 6);
        if self.wheel_live == 0 || key < self.wheel_min.key {
            // A new minimum. Appended to a sorted front bucket it is
            // still the tail of a descending run; in any other bucket
            // only tombstones can precede it.
            if b != self.front || self.wheel_live == 0 {
                self.front = b;
                self.front_sorted = bucket.len() == 1;
            }
            self.wheel_min = entry;
        } else if b == self.front {
            self.front_sorted = false;
        }
        self.wheel_live += 1;
    }

    #[inline]
    fn clear_occupied(&mut self, b: usize) {
        self.occupied[b >> 6] &= !(1 << (b & 63));
        if self.occupied[b >> 6] == 0 {
            self.occupied_words &= !(1 << (b >> 6));
        }
    }

    /// The first occupied bucket at or circularly after `from`.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let w = from >> 6;
        let word = self.occupied[w] & (!0 << (from & 63));
        if word != 0 {
            return Some((w << 6) | word.trailing_zeros() as usize);
        }
        // Words after `w`, then wrap to the lowest occupied word (the
        // bits of word `w` at or above `from` are known clear).
        let above = if w == 63 { 0 } else { self.occupied_words & (!0 << (w + 1)) };
        let words = if above != 0 { above } else { self.occupied_words };
        if words == 0 {
            return None;
        }
        let w = words.trailing_zeros() as usize;
        Some((w << 6) | self.occupied[w].trailing_zeros() as usize)
    }

    /// Brings the front bucket into sorted order if an insert behind
    /// the minimum disturbed it. Precondition: `wheel_live > 0`.
    #[inline]
    fn sort_front(&mut self) {
        if !self.front_sorted {
            self.seek_front(self.front);
        }
    }

    /// Re-establishes the cached minimum after the front bucket's tail
    /// was popped or tombstoned. Precondition: the front is sorted.
    fn settle_front(&mut self) {
        debug_assert!(self.front_sorted);
        let bucket = &mut self.buckets[self.front];
        while let Some(&e) = bucket.last() {
            if self.meta[e.slot as usize].gen == e.gen {
                self.wheel_min = e;
                return;
            }
            bucket.pop();
        }
        self.clear_occupied(self.front);
        self.seek_front(self.front);
    }

    /// Finds the first bucket at or circularly after `from` that holds
    /// a live entry, purges its tombstones, sorts it descending, and
    /// makes it the front. Buckets found to hold only tombstones are
    /// emptied on the way.
    fn seek_front(&mut self, from: usize) {
        let mut b = from;
        while self.wheel_live > 0 {
            b = self.next_occupied(b).expect("live wheel entries occupy a bucket");
            let meta = &self.meta;
            let bucket = &mut self.buckets[b];
            bucket.retain(|e| meta[e.slot as usize].gen == e.gen);
            if let Some(n) = bucket.len().checked_sub(1) {
                // Entries usually arrive in ascending order, which the
                // sort recognises as one reversed run.
                if n > 0 {
                    bucket.sort_unstable_by_key(|e| Reverse(e.key));
                }
                self.front = b;
                self.front_sorted = true;
                self.wheel_min = bucket[n];
                return;
            }
            self.clear_occupied(b);
        }
    }

    // ---------------------------------------------------------------
    // Indexed-heap internals
    // ---------------------------------------------------------------

    #[inline]
    fn place(&mut self, pos: usize, key: HeapKey, slot: u32) {
        self.heap_keys[pos] = key;
        self.heap_slots[pos] = slot;
        self.meta[slot as usize].pos = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let moving_key = self.heap_keys[pos];
        let moving_slot = self.heap_slots[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if moving_key < self.heap_keys[parent] {
                let (k, s) = (self.heap_keys[parent], self.heap_slots[parent]);
                self.place(pos, k, s);
                pos = parent;
            } else {
                break;
            }
        }
        self.place(pos, moving_key, moving_slot);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let moving_key = self.heap_keys[pos];
        let moving_slot = self.heap_slots[pos];
        loop {
            let first = pos * ARITY + 1;
            if first >= self.heap_keys.len() {
                break;
            }
            let last = (first + ARITY).min(self.heap_keys.len());
            let mut best = first;
            for c in first + 1..last {
                if self.heap_keys[c] < self.heap_keys[best] {
                    best = c;
                }
            }
            if self.heap_keys[best] < moving_key {
                let (k, s) = (self.heap_keys[best], self.heap_slots[best]);
                self.place(pos, k, s);
                pos = best;
            } else {
                break;
            }
        }
        self.place(pos, moving_key, moving_slot);
    }

    /// Removes the heap entry at `pos`, restoring the heap invariant.
    /// The removed slot's `pos` is left dangling; the caller frees or
    /// repurposes the slot immediately.
    fn remove_at(&mut self, pos: usize) {
        let last_key = self.heap_keys.pop().expect("remove_at on empty heap");
        let last_slot = self.heap_slots.pop().expect("heap arrays in sync");
        if pos == self.heap_keys.len() {
            return; // removed the tail entry
        }
        self.place(pos, last_key, last_slot);
        // The moved tail entry may order before or after its new
        // neighbourhood; one direction will be a no-op.
        self.sift_down(pos);
        if self.meta[last_slot as usize].pos == pos as u32 {
            self.sift_up(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(30), 3);
        eng.schedule(Dur::from_nanos(10), 1);
        eng.schedule(Dur::from_nanos(20), 2);
        assert_eq!(eng.step(), Some(1));
        assert_eq!(eng.now(), Time::from_nanos(10));
        assert_eq!(eng.step(), Some(2));
        assert_eq!(eng.step(), Some(3));
        assert_eq!(eng.step(), None);
        assert_eq!(eng.events_delivered(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(Dur::from_nanos(5), "first");
        eng.schedule(Dur::from_nanos(5), "second");
        eng.schedule(Dur::from_nanos(5), "third");
        assert_eq!(eng.step(), Some("first"));
        assert_eq!(eng.step(), Some("second"));
        assert_eq!(eng.step(), Some("third"));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule(Dur::from_nanos(1), 1);
        let b = eng.schedule(Dur::from_nanos(2), 2);
        assert!(eng.cancel(a));
        assert!(!eng.cancel(a), "double cancel reports false");
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.step(), Some(2));
        assert!(!eng.cancel(b), "cancelling a fired event reports false");
    }

    #[test]
    fn schedule_during_step() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(10), 0);
        let mut seen = Vec::new();
        while let Some(ev) = eng.step() {
            seen.push((eng.now().nanos(), ev));
            if ev < 3 {
                eng.schedule(Dur::from_nanos(10), ev + 1);
            }
        }
        assert_eq!(seen, vec![(10, 0), (20, 1), (30, 2), (40, 3)]);
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(10), 1);
        eng.step();
        eng.schedule_at(Time::from_nanos(5), 2);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule(Dur::from_nanos(1), 1);
        eng.schedule(Dur::from_nanos(9), 2);
        eng.cancel(a);
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(9)));
    }

    #[test]
    fn zero_delay_fires_at_now() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(7), 1);
        eng.step();
        eng.schedule(Dur::ZERO, 2);
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(7)));
        assert_eq!(eng.step(), Some(2));
        assert_eq!(eng.now(), Time::from_nanos(7));
    }

    #[test]
    fn event_ids_are_never_reused() {
        // Slots are recycled aggressively; the generation tag must keep
        // every handle distinct anyway.
        let mut eng: Engine<u32> = Engine::new();
        let mut seen = std::collections::HashSet::new();
        for round in 0..100 {
            let id = eng.schedule(Dur::from_nanos(1), round);
            assert!(seen.insert(id), "EventId reused at round {round}");
            if round % 2 == 0 {
                assert_eq!(eng.step(), Some(round));
            } else {
                assert!(eng.cancel(id));
            }
        }
    }

    #[test]
    fn stale_handles_never_cancel_a_successor() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule(Dur::from_nanos(1), 1);
        assert!(eng.cancel(a));
        // The slot is recycled for b; the stale handle must not touch it.
        let _b = eng.schedule(Dur::from_nanos(2), 2);
        assert!(!eng.cancel(a));
        assert_eq!(eng.step(), Some(2));
    }

    /// Satellite regression: the seed engine eagerly tombstone-collected
    /// on every cancel; the indexed heap must keep the cheap invariants
    /// — `peek_time` always reflects the earliest *live* event and FIFO
    /// tie-break survives arbitrary cancel/schedule interleaving.
    #[test]
    fn interleaved_cancel_schedule_preserves_peek_and_fifo() {
        let mut eng: Engine<u32> = Engine::new();
        // Three ties at t=10 with cancellations punched into the middle,
        // plus earlier events cancelled before and after scheduling ties.
        let early = eng.schedule(Dur::from_nanos(5), 100);
        let t1 = eng.schedule(Dur::from_nanos(10), 1);
        let t2 = eng.schedule(Dur::from_nanos(10), 2);
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(5)));
        assert!(eng.cancel(early));
        // Cancelling the front immediately re-exposes the tie group.
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(10)));
        let t3 = eng.schedule(Dur::from_nanos(10), 3);
        assert!(eng.cancel(t2));
        let t4 = eng.schedule(Dur::from_nanos(10), 4);
        let _ = (t1, t3, t4);
        // FIFO among survivors of the tie: 1, then 3, then 4.
        assert_eq!(eng.step(), Some(1));
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(10)));
        assert_eq!(eng.step(), Some(3));
        assert_eq!(eng.step(), Some(4));
        assert_eq!(eng.step(), None);
        assert!(eng.is_idle());
    }

    #[test]
    fn cancel_deep_in_heap_keeps_order() {
        // Cancel entries at every depth of the 4-ary overflow heap (all
        // times lie beyond the wheel horizon) and check the survivors
        // still come out sorted.
        let mut eng: Engine<u64> = Engine::new();
        let mut ids = Vec::new();
        for i in 0..64u64 {
            // Scatter times so the heap has structure.
            let t = 300_000 + ((i * 37) % 101 + 1) * 1_000;
            ids.push((eng.schedule(Dur::from_nanos(t), t), i));
        }
        assert_eq!(eng.heap_keys.len(), 64);
        for (i, &(id, _)) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(eng.cancel(id));
            }
        }
        let mut out = Vec::new();
        while let Some(t) = eng.step() {
            out.push(t);
        }
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted, "cancellation corrupted heap order");
        assert_eq!(out.len(), 64 - 64usize.div_ceil(3));
    }

    #[test]
    fn step_batch_drains_one_instant_fifo() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(10), 1);
        eng.schedule(Dur::from_nanos(10), 2);
        eng.schedule(Dur::from_nanos(10), 3);
        eng.schedule(Dur::from_nanos(20), 4);
        let mut out = Vec::new();
        assert_eq!(eng.step_batch(&mut out), Some(Time::from_nanos(10)));
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)], "FIFO sequence numbers are the keys");
        assert_eq!(eng.now(), Time::from_nanos(10));
        assert_eq!(eng.pending(), 1);
        out.clear();
        assert_eq!(eng.step_batch(&mut out), Some(Time::from_nanos(20)));
        assert_eq!(out, vec![(3, 4)]);
        out.clear();
        assert_eq!(eng.step_batch(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn step_batch_matches_step_by_step() {
        // The batched and per-event drains must produce identical
        // delivery sequences, including same-instant reschedules.
        let build = || {
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..200u64 {
                eng.schedule(Dur::from_nanos((i * 13) % 23), i);
            }
            eng
        };
        let mut a = build();
        let mut by_step = Vec::new();
        while let Some(ev) = a.step() {
            by_step.push((a.now(), ev));
        }
        let mut b = build();
        let mut by_batch = Vec::new();
        let mut buf = Vec::new();
        while let Some(at) = b.step_batch(&mut buf) {
            by_batch.extend(buf.drain(..).map(|(_, ev)| (at, ev)));
        }
        assert_eq!(by_step, by_batch);
        assert_eq!(a.events_delivered(), b.events_delivered());
    }

    // ---------------------------------------------------------------
    // Timing wheel
    // ---------------------------------------------------------------

    const HORIZON_NS: u64 = (WHEEL_SIZE as u64) << BUCKET_SHIFT;

    #[test]
    fn same_instant_burst_inserts_in_constant_time_and_pops_in_key_order() {
        // 10^5 events on one instant, keys scattered so the eventual
        // sort has real work to do.
        const N: u64 = 100_000;
        let mut eng: Engine<u64> = Engine::new();
        let at = Time::from_nanos(7);
        for i in 0..N {
            let k = i * 7919 % N; // a permutation: 7919 is coprime to N
            eng.schedule_at_keyed(at, k, k);
        }
        // No insert sorted (or shifted) the bucket: a sort would have
        // set the flag, and only the first pop may do that.
        assert!(!eng.front_sorted);
        assert_eq!(eng.buckets[eng.front].len(), N as usize);
        assert_eq!(eng.peek_time(), Some(at));
        let mut out = Vec::new();
        assert_eq!(eng.step_batch(&mut out), Some(at));
        assert_eq!(out, (0..N).map(|k| (k, k)).collect::<Vec<_>>());
        assert!(eng.is_idle());
    }

    #[test]
    fn one_bucket_many_timestamps_under_alternating_step_and_schedule() {
        // Every instant below lies in bucket 0 (0..64 ns); inserts land
        // before, at and after the cached minimum between pops.
        let mut eng: Engine<(u64, u64)> = Engine::new();
        let mut model = std::collections::BTreeSet::new();
        let mut seq = 0u64;
        let mut x = 12345u64;
        for round in 0..400 {
            for _ in 0..(1 + round % 3) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let at = eng.now().nanos() + (x >> 33) % (64 - eng.now().nanos());
                eng.schedule_at(Time::from_nanos(at), (at, seq));
                model.insert((at, seq));
                seq += 1;
            }
            assert_eq!(eng.peek_time().map(Time::nanos), model.first().map(|e| e.0));
            assert_eq!(eng.step(), model.pop_first());
            assert_eq!(eng.pending(), model.len());
        }
        while let Some(ev) = eng.step() {
            assert_eq!(Some(ev), model.pop_first());
        }
        assert!(model.is_empty());
        assert!(eng.now().nanos() < 64, "the test left bucket 0");
    }

    #[test]
    fn cancelling_the_current_minimum_moves_peek_time() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule(Dur::from_nanos(10), 1);
        let b = eng.schedule(Dur::from_nanos(12), 2); // same bucket, unsorted
        eng.schedule(Dur::from_nanos(500), 3);
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(10)));
        assert!(eng.cancel(a));
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(12)));
        assert!(eng.cancel(b)); // sorted now; the next bucket takes over
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(500)));
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.step(), Some(3));
        assert_eq!(eng.peek_time(), None);
    }

    #[test]
    fn tombstoned_handle_and_its_recycled_slot_reject_cancel() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(5), 0);
        let a = eng.schedule(Dur::from_nanos(20), 1);
        assert!(eng.cancel(a), "live wheel entry");
        assert!(!eng.cancel(a), "tombstone");
        // The freed slot is reused at once, in the tombstone's bucket.
        let b = eng.schedule(Dur::from_nanos(21), 2);
        assert_eq!(b.slot(), a.slot());
        assert!(!eng.cancel(a), "stale handle must not reach the slot's new tenant");
        assert_eq!(eng.pending(), 2);
        assert_eq!(eng.step(), Some(0));
        assert_eq!(eng.step(), Some(2));
        assert!(!eng.cancel(b), "fired");
        assert!(!eng.cancel(a));
        assert_eq!(eng.step(), None);
    }

    #[test]
    fn wheel_wraps_around_after_more_than_one_revolution() {
        // Each delivery schedules a successor 100 µs on plus a near
        // neighbour, so the clock sweeps 4 ms — fifteen revolutions —
        // and every bucket index is reused by later absolute buckets.
        let mut eng: Engine<u64> = Engine::new();
        eng.schedule(Dur::from_nanos(1), 0);
        let mut seen = Vec::new();
        while let Some(ev) = eng.step() {
            seen.push((eng.now().nanos(), ev));
            if ev % 2 == 0 && ev < 80 {
                eng.schedule(Dur::from_micros(100), ev + 2);
                eng.schedule(Dur::from_nanos(130 + ev * 997), ev + 1);
            }
        }
        assert_eq!(seen.len(), 81);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted);
        assert_eq!(seen.last(), Some(&(1 + 40 * 100_000, 80)));
        assert!(seen[80].0 > 15 * HORIZON_NS);
        assert!(eng.occupied_words == 0 && eng.buckets.iter().all(Vec::is_empty));
    }

    #[test]
    fn event_exactly_at_the_horizon_overflows_to_the_heap_and_keeps_its_order() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule_at(Time::from_nanos(HORIZON_NS), "edge");
        eng.schedule_at(Time::from_nanos(HORIZON_NS - 1), "inside");
        eng.schedule_at(Time::from_nanos(64), "near");
        assert_eq!((eng.heap_keys.len(), eng.wheel_live), (1, 2));
        assert_eq!(eng.step(), Some("near"));
        // The window moved one bucket: the edge event migrated, and a
        // later same-instant insert goes straight to the wheel behind it.
        assert_eq!((eng.heap_keys.len(), eng.wheel_live), (0, 2));
        eng.schedule_at(Time::from_nanos(HORIZON_NS), "edge-2");
        eng.schedule_at(Time::from_nanos(HORIZON_NS + 64), "beyond");
        assert_eq!(eng.heap_keys.len(), 1);
        assert_eq!(eng.step(), Some("inside"));
        let mut out = Vec::new();
        assert_eq!(eng.step_batch(&mut out), Some(Time::from_nanos(HORIZON_NS)));
        assert_eq!(out.into_iter().map(|(_, e)| e).collect::<Vec<_>>(), vec!["edge", "edge-2"]);
        assert_eq!(eng.step(), Some("beyond"));
        assert!(eng.is_idle());
    }

    #[test]
    fn advance_to_migrates_far_timers_and_skips_tombstone_buckets() {
        let mut eng: Engine<u32> = Engine::new();
        let near = eng.schedule(Dur::from_nanos(200), 1);
        eng.schedule(Dur::from_millis(1), 2);
        assert!(eng.cancel(near)); // bucket 3 now holds only a tombstone
        assert_eq!(eng.peek_time(), Some(Time::from_millis(1)));
        eng.advance_to(Time::from_micros(900));
        assert_eq!((eng.heap_keys.len(), eng.wheel_live), (0, 1));
        assert_eq!(eng.peek_time(), Some(Time::from_millis(1)));
        assert_eq!(eng.step(), Some(2));
        assert!(eng.is_idle());
    }
}
