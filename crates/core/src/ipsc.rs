//! iPSC hypercube compatibility library.
//!
//! "To run hypercube applications on Nectar, we have implemented the
//! Intel iPSC communication library on top of Nectarine. Since
//! Nectarine is functionally a superset of the iPSC primitives, this
//! implementation is relatively simple" (§7). The iPSC model: numbered
//! nodes exchange *typed* messages; `csend` names a destination node
//! and a message type, `crecv` blocks for the next message of a type.
//!
//! # Examples
//!
//! ```
//! use nectar_core::ipsc::Ipsc;
//! use nectar_core::world::SystemConfig;
//! use nectar_sim::time::Dur;
//!
//! let mut cube = Ipsc::new(4, SystemConfig::default());
//! cube.csend(7, &[1, 2, 3], 0, 2); // type 7, node 0 -> node 2
//! let msg = cube.crecv(2, 7, Dur::from_millis(5)).expect("typed receive");
//! assert_eq!(msg, vec![1, 2, 3]);
//! ```

use crate::system::NectarSystem;
use crate::world::SystemConfig;
use nectar_sim::time::Dur;

/// Base mailbox address for iPSC message types (leaves low addresses
/// for Nectarine tasks).
const TYPE_MAILBOX_BASE: u16 = 0x4000;

/// An iPSC-style view of a Nectar system: one "hypercube node" per CAB,
/// typed send/receive.
pub struct Ipsc {
    system: NectarSystem,
    nodes: usize,
}

impl Ipsc {
    /// Builds a cube of `nodes` nodes on a single-HUB Nectar system.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the HUB's port count.
    pub fn new(nodes: usize, cfg: SystemConfig) -> Ipsc {
        Ipsc { system: NectarSystem::single_hub(nodes, cfg), nodes }
    }

    /// Builds a cube spread over a mesh of HUB clusters.
    pub fn on_mesh(rows: usize, cols: usize, cabs_per_hub: usize, cfg: SystemConfig) -> Ipsc {
        let system = NectarSystem::mesh(rows, cols, cabs_per_hub, cfg);
        let nodes = system.world().topology().cab_count();
        Ipsc { system, nodes }
    }

    /// Number of nodes (`numnodes()` in iPSC).
    pub fn numnodes(&self) -> usize {
        self.nodes
    }

    /// The underlying system (for probes).
    pub fn system_mut(&mut self) -> &mut NectarSystem {
        &mut self.system
    }

    fn mailbox_for(msg_type: u32) -> u16 {
        TYPE_MAILBOX_BASE + (msg_type % 0x4000) as u16
    }

    /// `csend`: reliably sends a typed message from node `from` to node
    /// `to`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `from == to` (iPSC
    /// nodes do not self-send over the network).
    pub fn csend(&mut self, msg_type: u32, data: &[u8], from: usize, to: usize) {
        assert!(from < self.nodes && to < self.nodes, "node out of range");
        let mb = Self::mailbox_for(msg_type);
        self.system.world_mut().send_stream_now(from, to, mb, mb, data);
    }

    /// `crecv`: blocks (runs the simulation) until a message of
    /// `msg_type` arrives at `node`, or `timeout` elapses.
    pub fn crecv(&mut self, node: usize, msg_type: u32, timeout: Dur) -> Option<Vec<u8>> {
        assert!(node < self.nodes, "node out of range");
        let mb = Self::mailbox_for(msg_type);
        let deadline = self.system.world().now() + timeout;
        loop {
            if let Some(msg) = self.system.world_mut().mailbox_take(node, mb) {
                return Some(msg.data().to_vec());
            }
            if self.system.world().now() >= deadline {
                return None;
            }
            let progressed = self.system.world_mut().run_for(Dur::from_micros(20));
            if progressed == 0 && self.system.world().pending_events() == 0 {
                return self.system.world_mut().mailbox_take(node, mb).map(|m| m.data().to_vec());
            }
        }
    }

    /// Non-blocking probe: `true` if a message of `msg_type` waits at
    /// `node` (`iprobe` in iPSC).
    pub fn iprobe(&mut self, node: usize, msg_type: u32) -> bool {
        // A peek would do, but take-and-put-back keeps Mailbox simple;
        // instead run zero time and inspect via the world's records.
        let mb = Self::mailbox_for(msg_type);
        self.system.world().deliveries.iter().any(|d| usize::from(d.cab) == node && d.mailbox == mb)
    }

    /// Global synchronization: node 0 collects a token from every other
    /// node, then broadcasts the release (`gsync` in iPSC).
    ///
    /// # Panics
    ///
    /// Panics if synchronization does not complete within `timeout`.
    pub fn gsync(&mut self, timeout: Dur) {
        const SYNC_TYPE: u32 = 0x3FFF;
        for node in 1..self.nodes {
            self.csend(SYNC_TYPE, &[node as u8], node, 0);
        }
        for _ in 1..self.nodes {
            self.crecv(0, SYNC_TYPE, timeout).expect("gsync gather");
        }
        for node in 1..self.nodes {
            self.csend(SYNC_TYPE, &[0], 0, node);
        }
        for node in 1..self.nodes {
            self.crecv(node, SYNC_TYPE, timeout).expect("gsync release");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_messages_route_by_type() {
        let mut cube = Ipsc::new(3, SystemConfig::default());
        cube.csend(1, b"type one", 0, 1);
        cube.csend(2, b"type two", 0, 1);
        // Receive type 2 first although type 1 arrived earlier.
        assert_eq!(cube.crecv(1, 2, Dur::from_millis(5)).unwrap(), b"type two");
        assert_eq!(cube.crecv(1, 1, Dur::from_millis(5)).unwrap(), b"type one");
    }

    #[test]
    fn crecv_times_out() {
        let mut cube = Ipsc::new(2, SystemConfig::default());
        assert!(cube.crecv(1, 9, Dur::from_micros(200)).is_none());
    }

    #[test]
    fn gsync_converges() {
        let mut cube = Ipsc::new(4, SystemConfig::default());
        cube.gsync(Dur::from_millis(50));
    }

    #[test]
    fn ring_exchange() {
        // Classic hypercube pattern: every node passes a token around.
        let mut cube = Ipsc::new(4, SystemConfig::default());
        for node in 0..4 {
            cube.csend(5, &[node as u8], node, (node + 1) % 4);
        }
        for node in 0..4 {
            let got = cube.crecv(node, 5, Dur::from_millis(10)).unwrap();
            assert_eq!(got, vec![((node + 3) % 4) as u8]);
        }
    }
}
