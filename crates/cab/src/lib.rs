//! # nectar-cab — the communication accelerator board
//!
//! The CAB is "the interface between a node and the Nectar-net"
//! (paper §5): a SPARC-based board that off-loads protocol processing
//! from the node. This crate models its *hardware*:
//!
//! * [`timings`] — every per-operation cost constant ([`CabTimings`](timings::CabTimings)).
//! * [`dma`] — the four-channel DMA controller with shared 66 MB/s
//!   data-memory bandwidth and 10 MB/s VME pacing.
//! * [`checksum`] — the hardware Fletcher-16 unit (zero time cost),
//!   summing a packet's header and payload where each sits.
//! * [`fiber`] — the 1 KB fiber input/output queues and the upcall
//!   drain deadline of §6.2.1.
//! * [`board`] — [`CabId`](board::CabId).
//!
//! Only what costs simulated time is modelled. Not modelled, and why:
//!
//! * **Page protection** (§5.2: 1 KB pages, 32 domains). The check is
//!   done by hardware in parallel with the access and adds no time, and
//!   no workload here runs code that could fault, so it cannot change
//!   a result.
//! * **The 1 MB data-RAM allocator.** No workload exhausts the data
//!   RAM, so an allocator would decide nothing. A message has one copy,
//!   as in the CAB's data memory (§5.1): a packet holds its header and
//!   a shared slice of the payload, freed when the last holder drops
//!   it, and every mailbox has one fixed capacity.
//!
//! Hardware timers are not a unit of their own either: a time-out is
//! an engine event that `nectar-core` keys per CAB, and its expiry
//! interrupt is charged
//! [`CabTimings::timer_op`](timings::CabTimings::timer_op).
//!
//! The CAB's *software* (kernel threads, mailboxes, protocols) lives in
//! `nectar-kernel` and `nectar-proto`.
//!
//! # Examples
//!
//! ```
//! use nectar_cab::prelude::*;
//! use nectar_sim::time::Time;
//!
//! let timings = CabTimings::prototype();
//! let mut dma = DmaController::new(timings.clone());
//! let xfer = dma.start(Time::ZERO, Channel::FiberOut, 1024);
//! // 1 KB leaves at fiber rate: 81.92 us.
//! assert_eq!((xfer.complete - xfer.start).nanos(), 81_920);
//! // A packet larger than the 1 KB input queue must start draining
//! // before the queue fills (§6.2.1).
//! let fiber = FiberPort::new(1024, timings.fiber_bw);
//! assert_eq!(fiber.drain_deadline(Time::ZERO, 4096).nanos(), 81_920);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod checksum;
pub mod dma;
pub mod fiber;
pub mod timings;

/// The most frequently used names, for glob import.
pub mod prelude {
    pub use crate::board::CabId;
    pub use crate::checksum::{fletcher16, fletcher16_parts};
    pub use crate::dma::{Channel, DmaController, Transfer};
    pub use crate::fiber::FiberPort;
    pub use crate::timings::CabTimings;
}
