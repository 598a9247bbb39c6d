//! # nectar-sim — discrete-event simulation substrate
//!
//! The Nectar paper (ASPLOS 1989) describes a hardware network
//! backplane. This reproduction replaces the hardware with a
//! deterministic nanosecond-resolution discrete-event simulation; this
//! crate is the engine everything else runs on.
//!
//! * [`time`] — [`Time`](time::Time) / [`Dur`](time::Dur) newtypes.
//! * [`bytes`] — [`Bytes`](bytes::Bytes), the shared payload buffer every
//!   layer slices instead of copying.
//! * [`units`] — [`Bandwidth`](units::Bandwidth) and transfer-time math.
//! * [`engine`] — the [`Engine`](engine::Engine) event queue.
//! * [`rng`] — seeded, reproducible randomness for workloads.
//! * [`telemetry`] — typed flight-recorder events with causal flight ids:
//!   the software analogue of the HUB instrumentation board.
//! * [`metrics`] — the unified counter/gauge/histogram registry.
//! * [`export`] — Chrome trace-event (Perfetto) JSON rendering.
//! * [`json`] — string escaping and a small parser for export checks.
//! * [`profile`] — host-time profiler + scaling doctor for the
//!   parallel runner (phase spans, straggler attribution, verdicts).
//! * [`analysis`] — `nectar-doctor`: critical-path attribution and
//!   pathology detection, post hoc and as a streaming fold.
//! * [`chaos`] — seeded, replayable fault schedules (loss, bursts,
//!   duplication, reordering, corruption, flaps, port failure).
//! * [`workload`] — seeded, replayable traffic programs (open/closed
//!   loops, arrival processes, size distributions, traffic matrices).
//!
//! # Examples
//!
//! A two-event simulation:
//!
//! ```
//! use nectar_sim::prelude::*;
//!
//! let mut eng: Engine<&str> = Engine::new();
//! eng.schedule(Dur::from_nanos(700), "connection established");
//! eng.schedule(Dur::from_nanos(700 + 350), "first byte through hub");
//! let mut events = 0;
//! while eng.step().is_some() {
//!     events += 1;
//! }
//! assert_eq!(events, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bytes;
pub mod chaos;
pub mod engine;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod rng;
mod spec;
pub mod telemetry;
pub mod time;
pub mod units;
pub mod workload;

/// The most frequently used names, for glob import.
pub mod prelude {
    pub use crate::bytes::Bytes;
    pub use crate::chaos::{ChaosInjector, ChaosSchedule, ChaosStats, ChaosTarget, Clause, Fault};
    pub use crate::engine::{Engine, EventId};
    pub use crate::metrics::{Histogram, MetricsRegistry};
    pub use crate::rng::Rng;
    pub use crate::telemetry::{EventKind, FlightId, Telemetry, TelemetryEvent};
    pub use crate::time::{Dur, Time};
    pub use crate::units::Bandwidth;
    pub use crate::workload::{WorkloadGen, WorkloadSpec};
}
