//! The node model: a 1989 UNIX workstation with a VME-attached CAB.
//!
//! "There are three main sources of inefficiency in current networking
//! implementations. First, existing application interfaces incur
//! excessive costs due to context switching and data copying between
//! the user process and the node operating system. Second, the node
//! must incur the overhead of higher-level protocols [...] Third, the
//! network interface burdens the node with interrupt handling and
//! header processing for each packet" (§3.1).
//!
//! [`NodeConfig`] carries those costs (defaults calibrated to Sun-3/4
//! era measurements cited by the paper \[3,5,11\]) and
//! [`NodeInterface`] selects one of the three CAB–node interfaces of
//! §6.2.3. The per-message overhead composition is pure arithmetic, so
//! experiment E12 can sweep interfaces without touching the event loop.

use core::fmt;
use nectar_sim::time::Dur;
use nectar_sim::units::Bandwidth;

/// Which CAB–node interface a process uses (§6.2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeInterface {
    /// CAB memory mapped into the process: build/consume messages in
    /// place, command mailboxes, receive by polling. No system calls,
    /// no copies.
    SharedMemory,
    /// Berkeley socket emulation: system calls and node-side copies,
    /// but transport protocols still off-loaded to the CAB.
    Socket,
    /// UNIX network driver: the CAB is a "dumb" network and all
    /// transport processing runs on the node (binary compatibility).
    Driver,
}

impl NodeInterface {
    /// All three interfaces, for sweeps.
    pub const ALL: [NodeInterface; 3] =
        [NodeInterface::SharedMemory, NodeInterface::Socket, NodeInterface::Driver];
}

impl fmt::Display for NodeInterface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeInterface::SharedMemory => "shared-memory",
            NodeInterface::Socket => "socket",
            NodeInterface::Driver => "driver",
        };
        f.write_str(s)
    }
}

/// Cost model of the node's operating system and memory system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeConfig {
    /// One system call (trap, validate, return).
    pub syscall: Dur,
    /// One full process context switch (scheduler + VM switch).
    pub context_switch: Dur,
    /// Taking one device interrupt.
    pub interrupt: Dur,
    /// Node memory-to-memory copy bandwidth (user/kernel crossing).
    pub copy_bw: Bandwidth,
    /// VME transfer bandwidth between node memory and CAB memory.
    pub vme_bw: Bandwidth,
    /// Polling CAB memory once (shared-memory receive path).
    pub poll: Dur,
    /// Node-side transport processing per packet (driver interface
    /// only; the node CPU is slower than the CAB's dedicated SPARC and
    /// shares with the application).
    pub transport_per_packet: Dur,
    /// Building or consuming a message descriptor (all interfaces).
    pub descriptor: Dur,
}

/// The kinds of node the initial system connects (§3.2: "the initial
/// Nectar system at Carnegie Mellon will have Sun-3s, Sun-4s and Warp
/// systems as nodes") — the heterogeneity the backplane exists for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// 68020-class Sun-3 workstation.
    Sun3,
    /// SPARC-class Sun-4 workstation (~2× the Sun-3).
    Sun4,
    /// The Warp systolic array: enormous streaming bandwidth from its
    /// interface unit, but general-purpose OS services are slow — the
    /// machine "cannot efficiently implement the required communication
    /// protocols" (§1), which is why the CAB exists.
    Warp,
}

impl NodeKind {
    /// All kinds, for sweeps.
    pub const ALL: [NodeKind; 3] = [NodeKind::Sun3, NodeKind::Sun4, NodeKind::Warp];
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Sun3 => "Sun-3",
            NodeKind::Sun4 => "Sun-4",
            NodeKind::Warp => "Warp",
        };
        f.write_str(s)
    }
}

impl NodeConfig {
    /// A Sun-3/4-class node of 1988–89: tens-of-microsecond syscalls,
    /// ~100 µs context switches, single-digit-MB/s copies.
    pub(crate) fn sun_workstation() -> NodeConfig {
        NodeConfig::for_kind(NodeKind::Sun4)
    }

    /// The cost model for one of the heterogeneous node kinds.
    pub fn for_kind(kind: NodeKind) -> NodeConfig {
        match kind {
            NodeKind::Sun3 => NodeConfig {
                syscall: Dur::from_micros(50),
                context_switch: Dur::from_micros(180),
                interrupt: Dur::from_micros(45),
                copy_bw: Bandwidth::from_mbyte_per_sec(4),
                vme_bw: Bandwidth::from_mbyte_per_sec(8),
                poll: Dur::from_micros(4),
                transport_per_packet: Dur::from_micros(300),
                descriptor: Dur::from_micros(4),
            },
            NodeKind::Sun4 => NodeConfig {
                syscall: Dur::from_micros(25),
                context_switch: Dur::from_micros(100),
                interrupt: Dur::from_micros(25),
                copy_bw: Bandwidth::from_mbyte_per_sec(8),
                vme_bw: Bandwidth::from_mbyte_per_sec(10),
                poll: Dur::from_micros(2),
                transport_per_packet: Dur::from_micros(150),
                descriptor: Dur::from_micros(2),
            },
            NodeKind::Warp => NodeConfig {
                // The interface unit streams over VME at full bus rate
                // and builds descriptors fast, but OS-style services
                // (syscalls, context switches, a protocol stack) are an
                // order of magnitude worse than a workstation's — the
                // driver interface is effectively unusable, exactly the
                // §1 argument for protocol off-loading.
                syscall: Dur::from_micros(400),
                context_switch: Dur::from_micros(1_000),
                interrupt: Dur::from_micros(150),
                copy_bw: Bandwidth::from_mbyte_per_sec(2),
                vme_bw: Bandwidth::from_mbyte_per_sec(10),
                poll: Dur::from_micros(1),
                transport_per_packet: Dur::from_micros(2_000),
                descriptor: Dur::from_micros(1),
            },
        }
    }

    /// Node-side overhead to *send* a message of `bytes` in `packets`
    /// packets, before the CAB (or fiber) sees the first byte. The VME
    /// transfer of the payload itself is charged separately (it
    /// pipelines with the fiber), except where noted.
    pub(crate) fn send_overhead(&self, iface: NodeInterface, bytes: usize, packets: usize) -> Dur {
        match iface {
            // Build in place in mapped CAB memory; one descriptor in the
            // command mailbox. No syscalls, no copies.
            NodeInterface::SharedMemory => self.descriptor,
            // One syscall plus a user-to-kernel copy of the payload.
            NodeInterface::Socket => {
                self.syscall + self.copy_bw.transfer_time(bytes) + self.descriptor
            }
            // Full node-resident protocol stack: per-packet transport
            // processing plus the socket costs.
            NodeInterface::Driver => {
                self.syscall
                    + self.copy_bw.transfer_time(bytes)
                    + self.transport_per_packet * packets as u64
                    + self.descriptor
            }
        }
    }

    /// Node-side overhead to *receive* a message of `bytes` in
    /// `packets` packets, after the CAB has it (or, for
    /// [`NodeInterface::Driver`], after raw packets reach node memory).
    pub(crate) fn recv_overhead(&self, iface: NodeInterface, bytes: usize, packets: usize) -> Dur {
        match iface {
            // The receiving process polls mapped CAB memory and reads
            // the message in place.
            NodeInterface::SharedMemory => self.poll + self.descriptor,
            // One wakeup interrupt, a context switch to the blocked
            // process, one syscall, one kernel-to-user copy.
            NodeInterface::Socket => {
                self.interrupt
                    + self.context_switch
                    + self.syscall
                    + self.copy_bw.transfer_time(bytes)
                    + self.descriptor
            }
            // Per-packet interrupts and node transport processing, then
            // the socket-style delivery path.
            NodeInterface::Driver => {
                (self.interrupt + self.transport_per_packet) * packets as u64
                    + self.context_switch
                    + self.syscall
                    + self.copy_bw.transfer_time(bytes)
                    + self.descriptor
            }
        }
    }

    /// Time to move `bytes` across the VME bus (one direction).
    pub(crate) fn vme_time(&self, bytes: usize) -> Dur {
        self.vme_bw.transfer_time(bytes)
    }
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig::sun_workstation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_ordering_matches_paper() {
        // §6.2.3 presents the interfaces from most to least efficient:
        // shared memory < socket < driver.
        let n = NodeConfig::sun_workstation();
        for &(bytes, packets) in &[(64usize, 1usize), (4096, 5), (65536, 67)] {
            let sm = n.send_overhead(NodeInterface::SharedMemory, bytes, packets)
                + n.recv_overhead(NodeInterface::SharedMemory, bytes, packets);
            let so = n.send_overhead(NodeInterface::Socket, bytes, packets)
                + n.recv_overhead(NodeInterface::Socket, bytes, packets);
            let dr = n.send_overhead(NodeInterface::Driver, bytes, packets)
                + n.recv_overhead(NodeInterface::Driver, bytes, packets);
            assert!(sm < so, "shared memory beats sockets at {bytes} B");
            assert!(so < dr, "sockets beat the dumb-network driver at {bytes} B");
        }
    }

    #[test]
    fn shared_memory_node_budget_fits_100us_goal() {
        // §2.3: node-to-node under 100 us. With the shared-memory
        // interface and a small message, node-side overhead plus two
        // VME crossings must leave most of the budget for the CABs.
        let n = NodeConfig::sun_workstation();
        let bytes = 64;
        let node_side = n.send_overhead(NodeInterface::SharedMemory, bytes, 1)
            + n.recv_overhead(NodeInterface::SharedMemory, bytes, 1)
            + n.vme_time(bytes) * 2;
        assert!(
            node_side.as_micros_f64() < 25.0,
            "node-side cost {node_side} leaves room for the ~30 us CAB path"
        );
    }

    #[test]
    fn driver_interface_scales_with_packets() {
        let n = NodeConfig::sun_workstation();
        let one = n.recv_overhead(NodeInterface::Driver, 1024, 1);
        let ten = n.recv_overhead(NodeInterface::Driver, 10240, 10);
        assert!(ten > one * 5, "per-packet interrupts dominate the driver path");
    }

    #[test]
    fn copies_scale_with_bytes() {
        let n = NodeConfig::sun_workstation();
        let small = n.send_overhead(NodeInterface::Socket, 100, 1);
        let big = n.send_overhead(NodeInterface::Socket, 100_000, 98);
        // 100 KB at 8 MB/s = 12.5 ms of copying.
        assert!(big - small > Dur::from_millis(12));
    }

    #[test]
    fn heterogeneous_kinds_order_as_expected() {
        // Sun-4 beats Sun-3 everywhere; the Warp's shared-memory path
        // is competitive (fast descriptors) but its driver path is
        // hopeless — the reason protocol off-loading exists.
        let s3 = NodeConfig::for_kind(NodeKind::Sun3);
        let s4 = NodeConfig::for_kind(NodeKind::Sun4);
        let warp = NodeConfig::for_kind(NodeKind::Warp);
        for &(bytes, pkts) in &[(64usize, 1usize), (4096, 5)] {
            assert!(
                s4.send_overhead(NodeInterface::Socket, bytes, pkts)
                    < s3.send_overhead(NodeInterface::Socket, bytes, pkts)
            );
        }
        assert!(
            warp.send_overhead(NodeInterface::SharedMemory, 4096, 5)
                < warp.send_overhead(NodeInterface::Driver, 4096, 5) / 10,
            "the Warp must use the shared-memory interface"
        );
        assert_eq!(NodeKind::Warp.to_string(), "Warp");
        assert_eq!(NodeKind::ALL.len(), 3);
    }

    #[test]
    fn vme_matches_published_rate() {
        let n = NodeConfig::sun_workstation();
        assert_eq!(n.vme_time(1_000_000), Dur::from_millis(100));
    }
}
