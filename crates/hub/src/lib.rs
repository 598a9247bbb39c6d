//! # nectar-hub — the Nectar HUB, modelled cycle-faithfully
//!
//! The HUB is the switching element of the Nectar-net: an N×N crossbar
//! (16×16 in the 1989 prototype), one input queue and one output
//! register per port, and a central controller that executes a small
//! datalink command set — one command per 70 ns cycle.
//!
//! This crate is a *pure timed state machine*: no event queue, no I/O.
//! The system-integration layer (`nectar-core`) owns the simulation
//! loop and feeds the HUB via four entry points, collecting timed
//! [`Effects`](effects::Effects) to schedule. That keeps every
//! behaviour unit-testable in isolation. A packet-switched flow can
//! cross as one [`Train`](train::Train) instead of item by item; the
//! two are the same model (see [`train`]).
//!
//! ## Timing calibration (paper §4)
//!
//! | Quantity | Paper | Model |
//! |---|---|---|
//! | Controller cycle | 70 ns | [`HubConfig::cycle`](config::HubConfig::cycle) |
//! | Setup + first byte through one HUB | 10 cycles (700 ns) | 240 ns command wire + 110 ns controller + 350 ns transit |
//! | Established-connection latency | 5 cycles (350 ns) | [`HubConfig::transit`](config::HubConfig::transit) |
//! | Per-fiber bandwidth | 100 Mbit/s | [`HubConfig::fiber_bandwidth`](config::HubConfig::fiber_bandwidth) |
//! | Input queue / max packet | 1 KB | [`HubConfig::queue_capacity`](config::HubConfig::queue_capacity) |
//!
//! ## Example: the Fig. 7 command walk
//!
//! ```
//! use nectar_hub::prelude::*;
//! use nectar_sim::time::Time;
//!
//! // "open with retry HUB2 P8" — first command of the paper's
//! // circuit-switching example.
//! let mut hub2 = Hub::new(HubId::new(2), HubConfig::prototype());
//! let mut fx = Effects::new();
//! let cmd = Command::open(false, true, false, HubId::new(2), PortId::new(8));
//! hub2.item_arrives(Time::ZERO, PortId::new(4), cmd.into(), &mut fx);
//! let exec = fx.internal[0].clone();
//! fx.clear();
//! hub2.internal(exec.at, exec.ev, &mut fx);
//! assert_eq!(hub2.connections(), vec![(PortId::new(4), PortId::new(8))]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod config;
pub mod counters;
pub mod crossbar;
pub mod effects;
pub mod hub;
pub mod id;
pub mod item;
pub mod status;
pub mod train;

/// The most frequently used names, for glob import.
pub mod prelude {
    pub use crate::command::{Command, Op, Reply, SupervisorOp, UserOp};
    pub use crate::config::HubConfig;
    pub use crate::counters::HubCounters;
    pub use crate::crossbar::{ConnectError, Crossbar};
    pub use crate::effects::{Effects, Emission, Internal, InternalEv, ReadySignal, Wire};
    pub use crate::hub::Hub;
    pub use crate::id::{HubId, PortId, PortSet};
    pub use crate::item::{Item, Packet};
    pub use crate::status::PortStatus;
    pub use crate::train::{Tie, Train, TrainEmission};
}
