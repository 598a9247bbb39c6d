//! The five standing workloads, as plain data. Names are fixed: later
//! issues refer to them. Nothing here knows the simulator; the adapter
//! in `sut.rs` turns a [`Workload`] into calls.
//!
//! A workload is a fixed, seeded simulated-time traffic program (the
//! open and closed loops live *inside* the simulation); the host side
//! reports work completed per host-second at this stated input size.

/// The fabric a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// `rows × cols` HUB mesh with `cabs_per_hub` CABs on each HUB.
    Mesh2d { rows: usize, cols: usize, cabs_per_hub: usize, ports: usize },
    /// One root HUB over `leaves` leaf HUBs of `cabs_per_leaf` CABs.
    FatStar { leaves: usize, cabs_per_leaf: usize, ports: usize },
}

/// One workload definition.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Fixed name (also the `--workload` argument).
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// The fabric.
    pub fabric: Fabric,
    /// Traffic program in the workload-spec grammar; `{W}` stands for
    /// the end of the traffic window.
    pub traffic: &'static str,
    /// End of the simulated traffic window, microseconds.
    pub window_us: u64,
    /// Fault program in the chaos grammar, if any.
    pub chaos: Option<&'static str>,
    /// Worker threads: 1 = sequential world, 2 = sharded runner.
    pub threads: usize,
    /// Streaming doctor attached, and finished inside the timed region.
    pub observed: bool,
    /// A workload whose simulated results this one must reproduce bit
    /// for bit (its digest is recomputed in the same process).
    pub same_results_as: Option<&'static str>,
}

/// The 16-HUB, 64-CAB mesh the spike and lattice shapes share.
const MESH: Fabric = Fabric::Mesh2d { rows: 4, cols: 4, cabs_per_hub: 4, ports: 16 };

const SPIKE_TRAFFIC: &str = "closed(1600,0ns,fixed(32),uniform,datagram)[0ns..{W}]";
const LATTICE_TRAFFIC: &str = "closed(96,0ns,fixed(960),neighbor,datagram)[0ns..{W}];\
     closed(16,500ns,fixed(8192),ring,stream)[0ns..{W}]";

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "spike",
        why: "102,400 standing 32-byte datagram flows, recorder off: per-event cost and a 1e5-deep event heap dominate",
        fabric: MESH,
        traffic: SPIKE_TRAFFIC,
        window_us: 20_000,
        chaos: None,
        threads: 1,
        observed: false,
        same_results_as: None,
    },
    Workload {
        name: "spike_observed",
        why: "spike with the flight recorder and streaming doctor on: telemetry emit and doctor fold carry about half the work",
        fabric: MESH,
        traffic: SPIKE_TRAFFIC,
        window_us: 20_000,
        chaos: None,
        threads: 1,
        observed: true,
        same_results_as: None,
    },
    Workload {
        name: "lattice",
        why: "960-byte neighbour datagrams plus 8 KiB ring byte-streams: transport, checksum, DMA and buffer pool carry the work, heap is shallow",
        fabric: MESH,
        traffic: LATTICE_TRAFFIC,
        window_us: 400_000,
        chaos: None,
        threads: 1,
        observed: false,
        same_results_as: None,
    },
    Workload {
        name: "lattice_sharded2",
        why: "lattice on the 2-thread sharded runner: 350 ns windows, barrier and exchange dominate; results must equal lattice bit for bit",
        fabric: MESH,
        traffic: LATTICE_TRAFFIC,
        window_us: 400_000,
        chaos: None,
        threads: 2,
        observed: false,
        same_results_as: Some("lattice"),
    },
    Workload {
        name: "rpc_chaos",
        why: "closed-loop RPC to a hotspot plus open-loop datagrams under injected loss and duplication: timer arm/cancel, retransmission, chaos injector, root-HUB contention",
        fabric: Fabric::FatStar { leaves: 8, cabs_per_leaf: 8, ports: 16 },
        traffic: "closed(1,400us,uniform(64,256),hotspot(0.05,cab0),rpc)[0ns..{W}];\
             open(poisson(2ms),uniform(64,512),uniform,datagram)[0ns..{W}]",
        window_us: 600_000,
        chaos: Some("loss(0.003);dup(0.01)"),
        threads: 1,
        observed: false,
        same_results_as: None,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The traffic window actually run: the full one, or a twentieth of
    /// it in `--quick` smoke mode.
    pub fn window_us(&self, quick: bool) -> u64 {
        if quick {
            self.window_us / 20
        } else {
            self.window_us
        }
    }

    /// The generated traffic program for that window.
    pub fn traffic(&self, quick: bool) -> String {
        self.traffic.replace("{W}", &format!("{}us", self.window_us(quick)))
    }
}

/// The seeds handed to the traffic and fault programs, both derived from
/// the one `--seed` (distinct streams, so the fault draws do not mirror
/// the traffic draws).
pub fn seeds(seed: u64) -> (u64, u64) {
    (seed, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc4a0_5eed)
}
