//! # Nectar — a network backplane for heterogeneous multicomputers
//!
//! A comprehensive Rust reproduction of *"The Design of Nectar: A
//! Network Backplane for Heterogeneous Multicomputers"* (Arnould, Bitz,
//! Cooper, Kung, Sansom, Steenkiste — ASPLOS 1989), built as a
//! deterministic discrete-event simulation seeded with the paper's
//! published hardware constants.
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`sim`] — discrete-event engine, time/bandwidth units, statistics.
//! * [`hub`] — the HUB: 16×16 crossbar, central controller, datalink
//!   command set, ready-bit flow control.
//! * [`cab`] — the CAB hardware that costs simulated time: cost
//!   constants, DMA controller, checksum unit, fiber queues.
//! * [`kernel`] — the CAB software kernel: threads, mailboxes, the node
//!   service proxy.
//! * [`proto`] — datalink and transport protocols (datagram,
//!   byte-stream, request-response).
//! * [`core`] — system integration: topologies, routing, node model,
//!   the world simulation, and the Nectarine programming API.
//! * [`lan`] — the 1988-era Ethernet/UNIX baseline used for the
//!   paper's "order of magnitude over current LANs" comparisons.
//! * [`apps`] — the paper's motivating applications as workloads.
//!
//! # Quickstart
//!
//! ```
//! use nectar::core::{NectarSystem, SystemConfig};
//!
//! // A single-HUB cluster with 4 CABs (Fig. 2 of the paper).
//! let mut sys = NectarSystem::single_hub(4, SystemConfig::default());
//! let report = sys.measure_cab_to_cab(0, 1, 64);
//! // The paper's goal: under 30 microseconds process-to-process.
//! assert!(report.latency.as_micros_f64() < 30.0);
//! ```

pub use nectar_apps as apps;
pub use nectar_cab as cab;
pub use nectar_core as core;
pub use nectar_hub as hub;
pub use nectar_kernel as kernel;
pub use nectar_lan as lan;
pub use nectar_proto as proto;
pub use nectar_sim as sim;

/// One-stop import of the most commonly used types across all crates.
pub mod prelude {
    pub use nectar_core::prelude::*;
    pub use nectar_sim::prelude::*;
}
