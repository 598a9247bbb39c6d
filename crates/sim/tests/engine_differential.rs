//! Differential property test: the wheel-plus-heap engine against a
//! naive reference model.
//!
//! The reference keeps pending events in a plain `Vec` and scans for
//! the `(at, key)` minimum on every delivery — too slow to ship,
//! trivially correct by inspection. Random interleavings of schedule,
//! keyed schedule, cancel, step, batch-drain and clock advancement
//! must produce identical delivery order, clocks, cancel results, and
//! peeks on both implementations.
//!
//! Delays reach well past the engine's 262 µs wheel horizon and
//! cluster around it, and clock advances span more than a whole
//! revolution, so events cross between the overflow heap and the wheel
//! in every direction the engine allows.

use nectar_sim::engine::{Engine, EventId};
use nectar_sim::time::{Dur, Time};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Schedule {
        delay: u64,
    },
    /// Cancel a previously issued handle (live, fired, or cancelled).
    Cancel {
        pick: usize,
    },
    /// Schedule at `now + delay` under a caller-chosen tie-break key.
    ScheduleKeyed {
        delay: u64,
    },
    Step,
    StepBatch,
    Advance {
        delta: u64,
    },
}

/// Delays on both sides of the wheel horizon (4096 × 64 ns), with a
/// cluster right at the edge and another inside one bucket.
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..600_000, 250_000u64..280_000, 0u64..200]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        delay().prop_map(|delay| Op::Schedule { delay }),
        delay().prop_map(|delay| Op::Schedule { delay }),
        delay().prop_map(|delay| Op::ScheduleKeyed { delay }),
        (0usize..1024).prop_map(|pick| Op::Cancel { pick }),
        (0usize..1024).prop_map(|pick| Op::Cancel { pick }),
        Just(Op::Step),
        Just(Op::Step),
        Just(Op::StepBatch),
        Just(Op::StepBatch),
        (1u64..400_000).prop_map(|delta| Op::Advance { delta }),
    ]
}

/// The obviously-correct scheduler: linear scan for the minimum.
struct Model {
    now: Time,
    /// `(at, key)`; the key doubles as the payload.
    pending: Vec<(Time, u64)>,
}

impl Model {
    fn new() -> Model {
        Model { now: Time::ZERO, pending: Vec::new() }
    }

    fn schedule(&mut self, at: Time, seq: u64) {
        self.pending.push((at, seq));
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s)| s == seq) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }

    fn min_index(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| self.pending[i])
    }

    fn peek_time(&self) -> Option<Time> {
        self.min_index().map(|i| self.pending[i].0)
    }

    fn step(&mut self) -> Option<u64> {
        let i = self.min_index()?;
        let (at, seq) = self.pending.remove(i);
        self.now = at;
        Some(seq)
    }

    /// Everything sharing the earliest timestamp, in seq order.
    fn step_batch(&mut self) -> Option<(Time, Vec<u64>)> {
        let i = self.min_index()?;
        let at = self.pending[i].0;
        self.now = at;
        let mut batch: Vec<u64> =
            self.pending.iter().filter(|&&(t, _)| t == at).map(|&(_, s)| s).collect();
        batch.sort_unstable();
        self.pending.retain(|&(t, _)| t != at);
        Some((at, batch))
    }
}

proptest! {
    #[test]
    fn slab_engine_matches_naive_reference(ops in prop::collection::vec(op(), 1..400)) {
        let mut eng: Engine<u64> = Engine::new();
        let mut model = Model::new();
        // Every handle ever issued, so Cancel can hit live, already-
        // fired, and already-cancelled events alike.
        let mut handles: Vec<(EventId, u64)> = Vec::new();
        // `next` mirrors the engine's FIFO sequence counter; caller
        // keys count down from far above it, so the two never collide
        // and same-instant keyed events pop in reverse insertion order.
        let mut next = 0u64;
        let mut next_key = 1u64 << 40;
        let mut delivered = 0u64;
        let mut buf: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                Op::Schedule { delay } => {
                    let d = Dur::from_nanos(delay);
                    let id = eng.schedule(d, next);
                    model.schedule(model.now + d, next);
                    handles.push((id, next));
                    next += 1;
                }
                Op::ScheduleKeyed { delay } => {
                    let at = model.now + Dur::from_nanos(delay);
                    next_key -= 1;
                    let id = eng.schedule_at_keyed(at, next_key, next_key);
                    model.schedule(at, next_key);
                    handles.push((id, next_key));
                }
                Op::Cancel { pick } => {
                    if handles.is_empty() {
                        continue;
                    }
                    let (id, seq) = handles[pick % handles.len()];
                    prop_assert_eq!(eng.cancel(id), model.cancel(seq), "cancel of seq {}", seq);
                }
                Op::Step => {
                    let got = eng.step();
                    let want = model.step();
                    prop_assert_eq!(got, want);
                    if got.is_some() {
                        delivered += 1;
                    }
                }
                Op::StepBatch => {
                    buf.clear();
                    let got_at = eng.step_batch(&mut buf);
                    let got: Vec<u64> = buf.iter().map(|&(_, ev)| ev).collect();
                    match model.step_batch() {
                        Some((at, want)) => {
                            prop_assert_eq!(got_at, Some(at));
                            prop_assert_eq!(&got, &want);
                            delivered += want.len() as u64;
                        }
                        None => {
                            prop_assert_eq!(got_at, None);
                            prop_assert!(buf.is_empty());
                        }
                    }
                }
                Op::Advance { delta } => {
                    let t = model.now + Dur::from_nanos(delta);
                    // advance_to past a pending event panics by
                    // contract; only take legal advances.
                    if model.peek_time().is_none_or(|p| p >= t) {
                        eng.advance_to(t);
                        model.now = t;
                    }
                }
            }
            // Cross-check every observable after every operation.
            prop_assert_eq!(eng.now(), model.now);
            prop_assert_eq!(eng.peek_time(), model.peek_time());
            prop_assert_eq!(eng.pending(), model.pending.len());
            prop_assert_eq!(eng.is_idle(), model.pending.is_empty());
            prop_assert_eq!(eng.events_delivered(), delivered);
        }
        // Drain both to the end: the tails must agree too.
        loop {
            let got = eng.step();
            let want = model.step();
            prop_assert_eq!(got, want);
            prop_assert_eq!(eng.now(), model.now);
            if got.is_none() {
                break;
            }
        }
    }
}
