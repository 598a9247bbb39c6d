//! # nectar-core — the assembled Nectar system
//!
//! Integration of every substrate into the runnable backplane the
//! paper describes (§3): topologies of HUBs and CABs, the world
//! simulation that moves items through them with the published timing
//! model, the node cost model, measurement probes, and the Nectarine
//! application interface with its iPSC compatibility layer.
//!
//! * [`topology`] — Fig. 2 single-HUB stars, Fig. 4 meshes, arbitrary
//!   wirings, routing, multicast trees.
//! * [`world`] — the discrete-event world: HUB state machines, CAB
//!   protocol engines, datalink policy, flow control, delivery records.
//! * [`digest`] — the results and event digests of a finished run.
//! * [`invariants`] — the transport-invariant checker: exactly-once
//!   in-order delivery, at-most-once RPC execution, counter coherence —
//!   audited at quiescence under any chaos schedule.
//! * [`node`] — the 1989 UNIX node cost model and the three CAB–node
//!   interfaces of §6.2.3.
//! * [`system`] — [`NectarSystem`](system::NectarSystem):
//!   constructors plus the latency/throughput probes used by every
//!   experiment.
//! * [`nectarine`] — the task/message programming API of §6.3.
//! * [`mapping`] — the §6.3 future work: automatic task-to-CAB
//!   placement over a concrete topology.
//! * [`ipsc`] — the Intel iPSC library of §7 on top of it.
//!
//! # Examples
//!
//! The paper's headline goal — CAB-to-CAB process latency under 30 µs:
//!
//! ```
//! use nectar_core::{NectarSystem, SystemConfig};
//!
//! let mut sys = NectarSystem::single_hub(4, SystemConfig::default());
//! let report = sys.measure_cab_to_cab(0, 1, 64);
//! assert!(report.latency.as_micros_f64() < 30.0, "goal of §2.3: {}", report.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
mod fold;
pub mod invariants;
pub mod ipsc;
pub mod mapping;
pub mod nectarine;
pub mod node;
pub mod shard;
pub mod system;
pub mod topology;
pub mod world;

pub use system::{LatencyReport, NectarSystem, ThroughputReport};
pub use world::SystemConfig;

/// The most frequently used names, for glob import.
pub mod prelude {
    pub use crate::invariants::{replay_line, Auditable, InvariantChecker, Violation};
    pub use crate::ipsc::Ipsc;
    pub use crate::mapping::{
        map_annealed, map_greedy, map_round_robin, predicted_cost, Placement, TaskGraph,
    };
    pub use crate::nectarine::{Nectarine, TaskId};
    pub use crate::node::{NodeConfig, NodeInterface, NodeKind};
    pub use crate::shard::{
        canonical_delivery_sort, canonical_telemetry_sort, ShardPlan, ShardedWorld,
    };
    pub use crate::system::{LatencyReport, NectarSystem, ThroughputReport};
    pub use crate::topology::{Peer, Topology, TopologyBuilder, TopologyError};
    pub use crate::world::{AppSend, CabCounters, Delivery, SwitchingMode, SystemConfig, World};
}
