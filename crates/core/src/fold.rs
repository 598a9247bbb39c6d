//! The streaming doctor's fold, on a thread of its own.
//!
//! A world with a [`StreamingDoctor`] attached drains its telemetry
//! rings on a cadence and hands each raw drain to a [`StreamFold`],
//! together with the drain's release boundary: events stamped at or
//! after it may still be joined by earlier ones, and the doctor holds
//! them back. The fold thread owns the doctor and folds the batches in
//! the order they were sent, so the doctor sees exactly the batches an
//! inline fold would and its report is the same byte for byte. The
//! simulation thread only records, drains and sends.
//!
//! The channel is bounded at [`QUEUE_DEPTH`] batches. Each is one raw
//! drain, no larger than the rings it came from, so the memory in
//! flight stays at a few megabytes however far the simulation runs
//! ahead; a fold that falls behind makes the next send wait. The fold
//! thread starts at the first drain that holds an event, so a world
//! that is built and dropped, or that records nothing, starts none.
//!
//! A panic on the fold thread is re-raised on the simulation thread,
//! with its own payload, at the next send or at
//! [`finish`](StreamFold::finish). Dropping a fold that was never
//! finished closes the channel and joins the thread.

use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::telemetry::TelemetryEvent;
use nectar_sim::time::Time;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Batches the simulation thread may send ahead of the fold before a
/// send waits.
const QUEUE_DEPTH: usize = 16;

/// One raw drain and its release boundary (`None`: release everything).
struct Batch {
    events: Vec<TelemetryEvent>,
    boundary: Option<Time>,
}

/// The sending end of a fold thread, or the configuration of one not
/// yet started.
pub(crate) struct StreamFold {
    stage: Stage,
    /// The buffer the next drain fills.
    pub(crate) drain: Vec<TelemetryEvent>,
}

enum Stage {
    /// No drain has held an event yet.
    Idle(StreamConfig),
    Running {
        batches: SyncSender<Batch>,
        /// Emptied batch buffers coming back for reuse. Behind a
        /// `Mutex` only so that a world stays `Sync`: it is reached
        /// through `get_mut`, never locked.
        spares: Mutex<Receiver<Vec<TelemetryEvent>>>,
        thread: JoinHandle<StreamingDoctor>,
    },
    /// Finished, or re-raising the fold thread's panic.
    Closed,
}

impl StreamFold {
    pub(crate) fn new(cfg: StreamConfig) -> StreamFold {
        StreamFold { stage: Stage::Idle(cfg), drain: Vec::new() }
    }

    /// Sends [`drain`](StreamFold::drain) to the fold with its release
    /// `boundary`, starting the fold thread if this is the first drain
    /// with an event in it. Waits while the queue is full; re-raises
    /// the fold thread's panic if it has died.
    pub(crate) fn send(&mut self, boundary: Option<Time>) {
        if let Stage::Idle(cfg) = &self.stage {
            // Nothing can be held back before the first event, so an
            // empty drain would fold nothing.
            if self.drain.is_empty() {
                return;
            }
            self.stage = start(cfg.clone());
        }
        let Stage::Running { batches, spares, .. } = &mut self.stage else {
            unreachable!("a closed fold takes no batches")
        };
        let spare = spares.get_mut().expect("never locked, so never poisoned").try_recv();
        let events = std::mem::replace(&mut self.drain, spare.unwrap_or_default());
        if batches.send(Batch { events, boundary }).is_err() {
            // The receiver is gone only if the fold thread unwound.
            self.join();
            unreachable!("the fold thread stopped with its channel open");
        }
    }

    /// Closes the channel and returns the doctor once every batch sent
    /// is folded. Send the last drain first, with no boundary.
    pub(crate) fn finish(mut self) -> StreamingDoctor {
        match &self.stage {
            Stage::Idle(cfg) => StreamingDoctor::new(cfg.clone()),
            _ => self.join(),
        }
    }

    /// Closes the channel and waits for the fold thread; re-raises its
    /// panic.
    fn join(&mut self) -> StreamingDoctor {
        let joined = self.close().expect("only a running fold has a thread to join");
        joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Closes the channel and waits for the fold thread, if one runs.
    fn close(&mut self) -> Option<std::thread::Result<StreamingDoctor>> {
        let Stage::Running { batches, spares, thread } =
            std::mem::replace(&mut self.stage, Stage::Closed)
        else {
            return None;
        };
        drop((batches, spares));
        Some(thread.join())
    }
}

impl Drop for StreamFold {
    /// An abandoned fold folds what is queued and stops; its doctor, or
    /// its panic, goes nowhere.
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Spawns the fold thread.
fn start(cfg: StreamConfig) -> Stage {
    let (batches, inbox) = sync_channel::<Batch>(QUEUE_DEPTH);
    // One more slot than the queue can hold, so returning a buffer
    // never waits.
    let (outbox, spares) = sync_channel(QUEUE_DEPTH + 1);
    let thread = std::thread::Builder::new()
        .name("stream-fold".into())
        .spawn(move || {
            let mut doctor = StreamingDoctor::new(cfg);
            for Batch { mut events, boundary } in inbox {
                doctor.ingest_until(&mut events, boundary);
                let _ = outbox.try_send(events);
            }
            doctor
        })
        .expect("the host can start a thread");
    Stage::Running { batches, spares: Mutex::new(spares), thread }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_sim::telemetry::{EventKind, FlightId};

    fn send_at(ns: u64, flight: u64) -> TelemetryEvent {
        let kind =
            EventKind::TransportSend { cab: 0, peer: 1, seq: 0, bytes: 64, retransmit: false };
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(flight), kind }
    }

    #[test]
    fn a_world_with_a_fold_stays_send_and_sync() {
        fn send_and_sync<T: Send + Sync>() {}
        send_and_sync::<StreamFold>();
        send_and_sync::<crate::world::World>();
        send_and_sync::<crate::shard::ShardedWorld>();
    }

    #[test]
    fn an_empty_fold_starts_no_thread() {
        let mut fold = StreamFold::new(StreamConfig::default());
        fold.send(Some(Time::from_nanos(5)));
        assert!(matches!(fold.stage, Stage::Idle(_)));
        assert_eq!(fold.finish().events_folded(), 0);
    }

    #[test]
    fn held_back_events_fold_once_released() {
        let mut fold = StreamFold::new(StreamConfig::default());
        fold.drain.extend([send_at(10, 1), send_at(500, 2)]);
        fold.send(Some(Time::from_nanos(100)));
        assert!(matches!(fold.stage, Stage::Running { .. }));
        fold.send(None);
        assert_eq!(fold.finish().events_folded(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_panicking_fold_is_raised_on_the_sender() {
        let mut fold = StreamFold::new(StreamConfig::default());
        fold.drain.push(send_at(1_000, 1));
        fold.send(None);
        // Reaches back before the watermark the first batch left: the
        // doctor's batch contract fails on the fold thread.
        fold.drain.push(send_at(10, 2));
        fold.send(None);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            // However many sends the thread's unwinding takes to close
            // the channel, the panic surfaces by the finish.
            for _ in 0..QUEUE_DEPTH + 2 {
                fold.send(None);
            }
            fold.finish()
        }));
        let payload = raised.expect_err("the fold's panic reaches the sender");
        let text = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(text.contains("reaches back before the watermark"), "{text:?}");
    }
}
