//! # nectar-kernel — the CAB software kernel
//!
//! "To provide the required efficiency and flexibility, we built the
//! CAB kernel around lightweight processes similar to Mach threads"
//! (paper §6.1). This crate models that kernel:
//!
//! * [`thread`] — [`Scheduler`](thread::Scheduler): non-preemptive
//!   coroutine threads with the measured 10–15 µs switch cost, plus
//!   preemptive interrupt handlers.
//! * [`mailbox`] — [`Mailbox`](mailbox::Mailbox): FIFO fast path,
//!   multi-reader/multi-writer, and out-of-order reads.
//! * [`services`] — the VME proxy for heavyweight node OS services
//!   (file I/O and friends stay on the node, §6.1).
//!
//! The kernel has no timer table of its own: a protocol time-out is an
//! engine event that `nectar-core` keys per CAB, and its expiry runs as
//! an interrupt here, charged `CabTimings::timer_op`. File I/O and
//! other heavyweight services are delegated to the node OS (§6.1) and
//! modelled in the node cost model of `nectar-core`.
//!
//! # Examples
//!
//! The §6.1 receive pattern — a thread awakened by a packet event:
//!
//! ```
//! use nectar_kernel::prelude::*;
//! use nectar_cab::timings::CabTimings;
//! use nectar_sim::time::{Dur, Time};
//!
//! let mut sched = Scheduler::new(CabTimings::prototype());
//! let mut inbox = Mailbox::new("inbox", 8 * 1024);
//! let app = sched.spawn("application");
//!
//! // Interrupt handler deposits the message...
//! let (_, handler_done) = sched.run_interrupt(Time::ZERO, Dur::from_micros(3));
//! inbox.append(Message::new(1, 0, vec![0u8; 128])).unwrap();
//! // ...and the application thread wakes to consume it.
//! let (_, end) = sched.run(handler_done, app, Dur::from_micros(1));
//! assert_eq!(inbox.take_next().unwrap().len(), 128);
//! assert!(end > handler_done);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mailbox;
pub mod services;
pub mod thread;

/// The most frequently used names, for glob import.
pub mod prelude {
    pub use crate::mailbox::{Mailbox, MailboxFull, Message};
    pub use crate::services::{NodeService, ServiceCosts, ServiceProxy};
    pub use crate::thread::{Scheduler, ThreadId};
}
