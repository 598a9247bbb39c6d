//! Scheduler microbenchmarks: the timing-wheel engine against the two
//! schedulers that preceded it.
//!
//! `mod seed` below is a trimmed copy of the engine this repository
//! seeded with (BinaryHeap of entries, `live`/`cancelled` HashSets,
//! tombstone GC on cancel), and `mod heap4` of the heap-only engine
//! that replaced it (struct-of-arrays indexed 4-ary heap, now the
//! wheel's far-future overflow tier), so both before/after ratios stay
//! measurable. The workloads mirror what the world actually does:
//! schedule/step churn at mixed horizons, a schedule/cancel mix
//! (transport timers are armed and nearly always cancelled by the ack
//! before they fire), same-instant batch drains (HUB cycles), and a
//! hold model at the world's own delay mix and queue depths.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nectar_sim::engine::Engine;
use nectar_sim::time::Dur;

/// The seed scheduler, verbatim in structure: max-heap of inverted
/// entries plus hash-set liveness tracking and tombstone GC.
mod seed {
    use nectar_sim::time::{Dur, Time};
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub struct EventId(u64);

    struct Entry<E> {
        at: Time,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    pub struct Engine<E> {
        now: Time,
        heap: BinaryHeap<Entry<E>>,
        live: HashSet<u64>,
        cancelled: HashSet<u64>,
        next_seq: u64,
    }

    impl<E> Engine<E> {
        pub fn new() -> Engine<E> {
            Engine {
                now: Time::ZERO,
                heap: BinaryHeap::new(),
                live: HashSet::new(),
                cancelled: HashSet::new(),
                next_seq: 0,
            }
        }

        pub fn schedule(&mut self, delay: Dur, payload: E) -> EventId {
            let at = self.now + delay;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, payload });
            self.live.insert(seq);
            EventId(seq)
        }

        fn gc_top(&mut self) {
            while let Some(top) = self.heap.peek() {
                if self.cancelled.contains(&top.seq) {
                    let dead = self.heap.pop().expect("peeked");
                    self.cancelled.remove(&dead.seq);
                } else {
                    break;
                }
            }
        }

        pub fn cancel(&mut self, id: EventId) -> bool {
            if !self.live.remove(&id.0) {
                return false;
            }
            self.cancelled.insert(id.0);
            self.gc_top();
            true
        }

        pub fn step(&mut self) -> Option<E> {
            let entry = self.heap.pop()?;
            self.live.remove(&entry.seq);
            self.gc_top();
            self.now = entry.at;
            Some(entry.payload)
        }

        pub fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|e| e.at)
        }
    }
}

/// The heap-only engine the timing wheel replaced, trimmed to
/// schedule/step: dense `(time, seq)` keys and slot indices in parallel
/// arrays, per-slot heap positions rewritten on every move.
mod heap4 {
    use nectar_sim::time::{Dur, Time};

    const ARITY: usize = 4;

    pub struct Engine<E> {
        now: Time,
        heap_pos: Vec<u32>,
        payloads: Vec<Option<E>>,
        free: Vec<u32>,
        keys: Vec<(Time, u64)>,
        slots: Vec<u32>,
        next_seq: u64,
    }

    impl<E> Engine<E> {
        pub fn new() -> Engine<E> {
            Engine {
                now: Time::ZERO,
                heap_pos: Vec::new(),
                payloads: Vec::new(),
                free: Vec::new(),
                keys: Vec::new(),
                slots: Vec::new(),
                next_seq: 0,
            }
        }

        fn place(&mut self, pos: usize, key: (Time, u64), slot: u32) {
            self.keys[pos] = key;
            self.slots[pos] = slot;
            self.heap_pos[slot as usize] = pos as u32;
        }

        pub fn schedule(&mut self, delay: Dur, payload: E) {
            let key = (self.now + delay, self.next_seq);
            self.next_seq += 1;
            let slot = match self.free.pop() {
                Some(i) => {
                    self.payloads[i as usize] = Some(payload);
                    i
                }
                None => {
                    self.heap_pos.push(0);
                    self.payloads.push(Some(payload));
                    (self.payloads.len() - 1) as u32
                }
            };
            let mut pos = self.keys.len();
            self.keys.push(key);
            self.slots.push(slot);
            while pos > 0 {
                let parent = (pos - 1) / ARITY;
                if key >= self.keys[parent] {
                    break;
                }
                let (k, s) = (self.keys[parent], self.slots[parent]);
                self.place(pos, k, s);
                pos = parent;
            }
            self.place(pos, key, slot);
        }

        pub fn step(&mut self) -> Option<E> {
            let (at, _) = *self.keys.first()?;
            let slot = self.slots[0];
            let key = self.keys.pop().expect("non-empty");
            let moving = self.slots.pop().expect("arrays in sync");
            if !self.keys.is_empty() {
                let mut pos = 0;
                loop {
                    let first = pos * ARITY + 1;
                    if first >= self.keys.len() {
                        break;
                    }
                    let last = (first + ARITY).min(self.keys.len());
                    let best = (first..last).min_by_key(|&c| self.keys[c]).expect("non-empty");
                    if self.keys[best] >= key {
                        break;
                    }
                    let (k, s) = (self.keys[best], self.slots[best]);
                    self.place(pos, k, s);
                    pos = best;
                }
                self.place(pos, key, moving);
            }
            self.now = at;
            self.free.push(slot);
            self.payloads[slot as usize].take()
        }
    }
}

/// Pseudo-random but deterministic delays spanning three decades, like
/// a live world (70 ns HUB cycles to millisecond transport timers).
fn delay(i: u64) -> Dur {
    Dur::from_nanos(70 + (i.wrapping_mul(0x9E37_79B9)) % 100_000)
}

const CHURN: u64 = 10_000;
const BACKLOG: u64 = 256;

/// schedule/step churn over a standing backlog of `BACKLOG` events.
fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_churn");
    g.throughput(Throughput::Elements(CHURN * 2));
    g.bench_function("slab", |b| {
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..BACKLOG {
                eng.schedule(delay(i), i);
            }
            for i in 0..CHURN {
                let v = eng.step().unwrap();
                eng.schedule(delay(i.wrapping_add(v)), i);
            }
            black_box(eng.pending())
        })
    });
    g.bench_function("seed", |b| {
        b.iter(|| {
            let mut eng: seed::Engine<u64> = seed::Engine::new();
            for i in 0..BACKLOG {
                eng.schedule(delay(i), i);
            }
            for i in 0..CHURN {
                let v = eng.step().unwrap();
                eng.schedule(delay(i.wrapping_add(v)), i);
            }
            black_box(eng.peek_time())
        })
    });
    g.finish();
}

/// Transport-timer pattern: schedule a far-out timer, cancel it almost
/// always (the ack arrived), occasionally let one fire.
fn bench_cancel_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_cancel_mix");
    g.throughput(Throughput::Elements(CHURN * 2));
    g.bench_function("slab", |b| {
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..BACKLOG {
                eng.schedule(delay(i), i);
            }
            for i in 0..CHURN {
                let id = eng.schedule(Dur::from_micros(500), i);
                if i % 16 != 0 {
                    eng.cancel(id);
                } else {
                    eng.step();
                }
            }
            black_box(eng.pending())
        })
    });
    g.bench_function("seed", |b| {
        b.iter(|| {
            let mut eng: seed::Engine<u64> = seed::Engine::new();
            for i in 0..BACKLOG {
                eng.schedule(delay(i), i);
            }
            for i in 0..CHURN {
                let id = eng.schedule(Dur::from_micros(500), i);
                if i % 16 != 0 {
                    eng.cancel(id);
                } else {
                    eng.step();
                }
            }
            black_box(eng.peek_time())
        })
    });
    g.finish();
}

/// HUB-cycle pattern: many events per 70 ns instant, drained per
/// instant — batched on the slab engine, peek/step on the seed.
fn bench_batch_drain(c: &mut Criterion) {
    const INSTANTS: u64 = 500;
    const PER_INSTANT: u64 = 16;
    let mut g = c.benchmark_group("sched_batch_drain");
    g.throughput(Throughput::Elements(INSTANTS * PER_INSTANT));
    g.bench_function("slab_step_batch", |b| {
        let mut buf: Vec<(u64, u64)> = Vec::new();
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new();
            for t in 0..INSTANTS {
                for i in 0..PER_INSTANT {
                    eng.schedule(Dur::from_nanos(70 * (t + 1)), t * PER_INSTANT + i);
                }
            }
            let mut sum = 0u64;
            while let Some(at) = eng.step_batch(&mut buf) {
                sum = sum.wrapping_add(at.nanos());
                sum = sum.wrapping_add(buf.drain(..).map(|(_, ev)| ev).sum::<u64>());
            }
            black_box(sum)
        })
    });
    g.bench_function("seed_peek_step", |b| {
        b.iter(|| {
            let mut eng: seed::Engine<u64> = seed::Engine::new();
            for t in 0..INSTANTS {
                for i in 0..PER_INSTANT {
                    eng.schedule(Dur::from_nanos(70 * (t + 1)), t * PER_INSTANT + i);
                }
            }
            let mut sum = 0u64;
            while let Some(at) = eng.peek_time() {
                sum = sum.wrapping_add(at.nanos());
                while eng.peek_time() == Some(at) {
                    sum = sum.wrapping_add(eng.step().unwrap());
                }
            }
            black_box(sum)
        })
    });
    g.finish();
}

/// What the three schedulers share, for the hold model.
trait Sched {
    fn make() -> Self;
    fn put(&mut self, delay: Dur, v: u64);
    fn pop(&mut self) -> Option<u64>;
}

macro_rules! impl_sched {
    ($($t:ty),+) => {$(
        impl Sched for $t {
            fn make() -> Self {
                <$t>::new()
            }
            fn put(&mut self, delay: Dur, v: u64) {
                self.schedule(delay, v);
            }
            fn pop(&mut self) -> Option<u64> {
                self.step()
            }
        }
    )+};
}
impl_sched!(Engine<u64>, heap4::Engine<u64>, seed::Engine<u64>);

/// The delay mix a running world produces: one HUB cycle to a few
/// microseconds (transit, set-up, small-packet wire and DMA times),
/// with one event in fifty a 1 ms datalink or transport timer.
fn world_delay(x: &mut u64) -> Dur {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let r = *x >> 33;
    if r.is_multiple_of(50) {
        Dur::from_millis(1)
    } else {
        Dur::from_nanos(70 + r % 4_931)
    }
}

/// Hold model (pop the minimum, schedule a successor) over a standing
/// population at the two depths the standing benchmark samples: 1 k
/// (a busy fabric) and 100 k (over ten times `spike`'s deepest queue). The
/// population is built once; only holds are timed.
fn bench_hold(c: &mut Criterion) {
    const HOLDS: u64 = 10_000;
    fn hold<S: Sched>(g: &mut criterion::BenchmarkGroup<'_>, name: &str, depth: u64) {
        g.bench_function(format!("{name}/{depth}").as_str(), |b| {
            let mut eng = S::make();
            let mut x = depth;
            for i in 0..depth {
                eng.put(world_delay(&mut x), i);
            }
            b.iter(|| {
                for _ in 0..HOLDS {
                    let v = eng.pop().expect("standing population");
                    eng.put(world_delay(&mut x), v);
                }
            })
        });
    }
    let mut g = c.benchmark_group("sched_hold");
    g.throughput(Throughput::Elements(HOLDS));
    for depth in [1_000, 100_000] {
        hold::<Engine<u64>>(&mut g, "wheel", depth);
        hold::<heap4::Engine<u64>>(&mut g, "heap4", depth);
        hold::<seed::Engine<u64>>(&mut g, "seed", depth);
    }
    g.finish();
}

/// End-of-run report: the acceptance ratio (slab must be >= 2x seed on
/// scheduler-op throughput) printed from the same measurements.
fn bench_summary(c: &mut Criterion) {
    let pairs = [
        ("sched_churn/slab", "sched_churn/seed"),
        ("sched_cancel_mix/slab", "sched_cancel_mix/seed"),
        ("sched_batch_drain/slab_step_batch", "sched_batch_drain/seed_peek_step"),
        ("sched_hold/wheel/1000", "sched_hold/heap4/1000"),
        ("sched_hold/wheel/1000", "sched_hold/seed/1000"),
        ("sched_hold/wheel/100000", "sched_hold/heap4/100000"),
        ("sched_hold/wheel/100000", "sched_hold/seed/100000"),
    ];
    let mut log_sum = 0.0f64;
    let mut counted = 0u32;
    for (new, old) in pairs {
        if let (Some(n), Some(o)) = (c.mean_of(new), c.mean_of(old)) {
            if !n.is_zero() {
                let ratio = o.as_secs_f64() / n.as_secs_f64();
                log_sum += ratio.ln();
                counted += 1;
                println!("speedup {new} vs {old}: {ratio:.2}x");
            }
        }
    }
    if counted > 0 {
        println!(
            "scheduler-op throughput, geometric mean over {counted} comparisons: {:.2}x",
            (log_sum / counted as f64).exp()
        );
    }
}

criterion_group!(
    benches,
    bench_churn,
    bench_cancel_mix,
    bench_batch_drain,
    bench_hold,
    bench_summary
);
criterion_main!(benches);
