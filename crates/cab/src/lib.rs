//! # nectar-cab — the communication accelerator board
//!
//! The CAB is "the interface between a node and the Nectar-net"
//! (paper §5): a SPARC-based board that off-loads protocol processing
//! from the node. This crate models its *hardware*:
//!
//! * [`timings`] — every per-operation cost constant ([`CabTimings`](timings::CabTimings)).
//! * [`dma`] — the four-channel DMA controller with shared 66 MB/s
//!   data-memory bandwidth and 10 MB/s VME pacing.
//! * [`checksum`] — the hardware Fletcher-16 unit (zero time cost).
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
//!   RAM, so an allocator would decide nothing; packet buffers come
//!   from the per-CAB `BufPool` of `nectar-hub` and mailbox capacity is
//!   a field of `nectar-core`'s `SystemConfig`.
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
    pub use crate::checksum::fletcher16;
    pub use crate::dma::{Channel, DmaController, Transfer};
    pub use crate::fiber::FiberPort;
    pub use crate::timings::CabTimings;
}
