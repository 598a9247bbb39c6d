//! Nectar-net topologies: CABs, HUBs, and the fibers between them.
//!
//! "In a system with a single HUB, all the CABs are connected to the
//! same HUB (Fig. 2). To build larger systems, multiple HUBs are
//! needed. [...] The HUB clusters may be connected in any topology
//! appropriate to the application environment" (§3.1). This module
//! describes the physical wiring, validates it, and computes the
//! source routes the datalink layer turns into command packets —
//! including the 2-D mesh of Fig. 4 and the 4-HUB example of Fig. 7.

use core::fmt;
use nectar_hub::id::{HubId, PortId};
use nectar_proto::datalink::{Hop, MulticastRoute, Route, RouteTable};
use std::sync::Arc;

/// What is attached at the far end of a HUB port's fiber pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Peer {
    /// A CAB (by index).
    Cab(usize),
    /// Another HUB's port.
    Hub(usize, PortId),
    /// Nothing (unused port).
    None,
}

/// Errors constructing a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// Two links claim the same HUB port.
    PortInUse {
        /// The HUB index.
        hub: usize,
        /// The contested port.
        port: PortId,
    },
    /// A port id at or beyond the per-HUB port count.
    PortOutOfRange {
        /// The HUB index.
        hub: usize,
        /// The offending port.
        port: PortId,
    },
    /// A HUB index beyond the HUB count.
    NoSuchHub {
        /// The offending index.
        hub: usize,
    },
    /// More than 256 HUBs (HUB ids are one wire byte).
    TooManyHubs,
    /// No fiber path between two CABs.
    Unreachable {
        /// Source CAB index.
        from: usize,
        /// Destination CAB index.
        to: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::PortInUse { hub, port } => write!(f, "HUB{hub} {port} already wired"),
            TopologyError::PortOutOfRange { hub, port } => {
                write!(f, "HUB{hub} has no port {port}")
            }
            TopologyError::NoSuchHub { hub } => write!(f, "no HUB{hub} in this topology"),
            TopologyError::TooManyHubs => f.write_str("at most 256 HUBs (ids are one byte)"),
            TopologyError::Unreachable { from, to } => {
                write!(f, "no path from CAB{from} to CAB{to}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A validated Nectar-net wiring, with every source route precomputed.
#[derive(Clone, Debug)]
pub struct Topology {
    ports_per_hub: usize,
    /// `peers[hub * ports_per_hub + port]`.
    peers: Vec<Peer>,
    /// Per CAB: the (hub, port) it is attached to.
    cab_links: Vec<(usize, PortId)>,
    /// `routes[src_hub * cab_count + dst_cab]`, `None` where no fiber
    /// path exists: a route is a function of the *HUB* the sender hangs
    /// off and of the destination CAB, so one breadth-first tree per
    /// source HUB yields every row. Shared, because each shard world
    /// holds its own clone of the topology and reads the same table.
    routes: Arc<[Option<Route>]>,
}

/// Incremental builder for arbitrary topologies.
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    ports_per_hub: usize,
    hubs: usize,
    /// `peers[hub * ports_per_hub + port]`.
    peers: Vec<Peer>,
    cab_links: Vec<(usize, PortId)>,
}

impl TopologyBuilder {
    /// Starts a topology of `hubs` HUBs with `ports_per_hub` ports each.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(hubs: usize, ports_per_hub: usize) -> TopologyBuilder {
        assert!(hubs > 0 && ports_per_hub > 0, "topology needs at least one HUB and port");
        TopologyBuilder {
            ports_per_hub,
            hubs,
            peers: vec![Peer::None; hubs * ports_per_hub],
            cab_links: Vec::new(),
        }
    }

    fn claim(&mut self, hub: usize, port: PortId, peer: Peer) -> Result<(), TopologyError> {
        if hub >= self.hubs {
            return Err(TopologyError::NoSuchHub { hub });
        }
        if port.index() >= self.ports_per_hub {
            return Err(TopologyError::PortOutOfRange { hub, port });
        }
        let slot = &mut self.peers[hub * self.ports_per_hub + port.index()];
        if *slot != Peer::None {
            return Err(TopologyError::PortInUse { hub, port });
        }
        *slot = peer;
        Ok(())
    }

    /// Attaches a new CAB to `hub` at `port`; returns the CAB index.
    ///
    /// # Errors
    ///
    /// See [`TopologyError`].
    pub fn add_cab(&mut self, hub: usize, port: PortId) -> Result<usize, TopologyError> {
        let cab = self.cab_links.len();
        self.claim(hub, port, Peer::Cab(cab))?;
        self.cab_links.push((hub, port));
        Ok(cab)
    }

    /// Wires a fiber pair between two HUB ports.
    ///
    /// # Errors
    ///
    /// See [`TopologyError`].
    pub fn link_hubs(
        &mut self,
        a: usize,
        pa: PortId,
        b: usize,
        pb: PortId,
    ) -> Result<(), TopologyError> {
        if b >= self.hubs {
            return Err(TopologyError::NoSuchHub { hub: b });
        }
        if pb.index() >= self.ports_per_hub {
            return Err(TopologyError::PortOutOfRange { hub: b, port: pb });
        }
        self.claim(a, pa, Peer::Hub(b, pb))?;
        // First claim succeeded; the second must too or we roll back.
        if let Err(e) = self.claim(b, pb, Peer::Hub(a, pa)) {
            self.peers[a * self.ports_per_hub + pa.index()] = Peer::None;
            return Err(e);
        }
        Ok(())
    }

    /// Finalizes the wiring.
    ///
    /// # Errors
    ///
    /// [`TopologyError::TooManyHubs`] if more than 256 HUBs.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.hubs > 256 {
            return Err(TopologyError::TooManyHubs);
        }
        let routes = build_routes(self.ports_per_hub, &self.peers, &self.cab_links).into();
        Ok(Topology {
            ports_per_hub: self.ports_per_hub,
            peers: self.peers,
            cab_links: self.cab_links,
            routes,
        })
    }
}

/// The route table of a wiring: for every HUB, one breadth-first search
/// over the HUB graph (ports scanned in ascending order, a HUB adopted
/// by whichever neighbour reaches it first), then one route per
/// destination CAB read off the tree. The
/// scan order is the tie-break between equally short paths, and it is
/// the order a per-pair search from the same HUB would use, so the
/// table holds exactly the routes such a search finds.
fn build_routes(
    ports_per_hub: usize,
    peers: &[Peer],
    cab_links: &[(usize, PortId)],
) -> Vec<Option<Route>> {
    let hubs = peers.len() / ports_per_hub;
    let mut routes = RouteTable::with_capacity(hubs * cab_links.len());
    // `toward[h]`: the HUB that reached `h` first and the port it used.
    let mut toward: Vec<Option<(usize, PortId)>> = vec![None; hubs];
    let mut frontier = Vec::with_capacity(hubs);
    let mut hops = Vec::new();
    for src in 0..hubs {
        toward.fill(None);
        toward[src] = Some((src, PortId::new(0)));
        frontier.clear();
        frontier.push(src);
        let mut next_out = 0;
        while let Some(&h) = frontier.get(next_out) {
            next_out += 1;
            for (port, peer) in peers[h * ports_per_hub..][..ports_per_hub].iter().enumerate() {
                if let Peer::Hub(next, _) = *peer {
                    if toward[next].is_none() {
                        toward[next] = Some((h, PortId::new(port as u8)));
                        frontier.push(next);
                    }
                }
            }
        }
        for &(dst_hub, cab_port) in cab_links {
            if toward[dst_hub].is_none() {
                routes.push_none();
                continue;
            }
            // Final hop first — the destination CAB's port on the last
            // HUB — then back up the tree to the source.
            hops.clear();
            hops.push(Hop { hub: HubId::new(dst_hub as u8), out: cab_port });
            let mut cur = dst_hub;
            while cur != src {
                let (prev, port) = toward[cur].expect("reached HUBs have a parent");
                hops.push(Hop { hub: HubId::new(prev as u8), out: port });
                cur = prev;
            }
            hops.reverse();
            routes.push(&hops);
        }
    }
    routes.finish()
}

impl Topology {
    /// Fig. 2: one HUB with `cabs` CABs on ports `0..cabs`.
    ///
    /// # Panics
    ///
    /// Panics if `cabs` exceeds `ports_per_hub`.
    pub fn single_hub(cabs: usize, ports_per_hub: usize) -> Topology {
        assert!(cabs <= ports_per_hub, "a single HUB has {ports_per_hub} ports");
        let mut b = TopologyBuilder::new(1, ports_per_hub);
        for i in 0..cabs {
            b.add_cab(0, PortId::new(i as u8)).expect("ports are free");
        }
        b.build().expect("single hub is always valid")
    }

    /// Fig. 4: a `rows × cols` 2-D mesh of HUB clusters, each with
    /// `cabs_per_hub` CABs. Mesh links use the four highest ports
    /// (N, S, E, W), so `cabs_per_hub + 4 <= ports_per_hub`.
    ///
    /// # Panics
    ///
    /// Panics if the port budget is exceeded or the mesh is empty.
    pub fn mesh2d(rows: usize, cols: usize, cabs_per_hub: usize, ports_per_hub: usize) -> Topology {
        assert!(rows > 0 && cols > 0, "mesh must be non-empty");
        assert!(
            cabs_per_hub + 4 <= ports_per_hub,
            "mesh links need four ports: cabs_per_hub + 4 must fit in {ports_per_hub}"
        );
        let hub_at = |r: usize, c: usize| r * cols + c;
        let p = ports_per_hub as u8;
        let (north, south, east, west) =
            (PortId::new(p - 1), PortId::new(p - 2), PortId::new(p - 3), PortId::new(p - 4));
        let mut b = TopologyBuilder::new(rows * cols, ports_per_hub);
        for r in 0..rows {
            for c in 0..cols {
                for k in 0..cabs_per_hub {
                    b.add_cab(hub_at(r, c), PortId::new(k as u8)).expect("cab ports free");
                }
                if r + 1 < rows {
                    b.link_hubs(hub_at(r, c), south, hub_at(r + 1, c), north)
                        .expect("mesh ports free");
                }
                if c + 1 < cols {
                    b.link_hubs(hub_at(r, c), east, hub_at(r, c + 1), west)
                        .expect("mesh ports free");
                }
            }
        }
        b.build().expect("mesh is valid")
    }

    /// A fat star: one root HUB whose ports all feed leaf HUBs, each
    /// leaf carrying `cabs_per_leaf` CABs. This is the "multiple HUBs
    /// [...] connected in any topology appropriate to the application
    /// environment" case (§3.1) with the root acting as a pure trunk
    /// switch — every cross-leaf flight crosses exactly two fibers, so
    /// the topology maximizes the fraction of traffic that is local to
    /// a leaf cluster and is the natural scale-out benchmark shape.
    ///
    /// Leaf `l` hangs off root port `l`; each leaf's uplink uses its
    /// highest port, CABs use ports `0..cabs_per_leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero or exceeds `ports_per_hub`, or if
    /// `cabs_per_leaf + 1` exceeds `ports_per_hub`.
    pub fn fat_star(leaves: usize, cabs_per_leaf: usize, ports_per_hub: usize) -> Topology {
        assert!(leaves > 0, "fat star needs at least one leaf");
        assert!(leaves <= ports_per_hub, "root has only {ports_per_hub} ports");
        assert!(cabs_per_leaf < ports_per_hub, "leaf needs an uplink port");
        let uplink = PortId::new(ports_per_hub as u8 - 1);
        // HUB 0 is the root; leaves are 1..=leaves.
        let mut b = TopologyBuilder::new(leaves + 1, ports_per_hub);
        for l in 0..leaves {
            b.link_hubs(0, PortId::new(l as u8), l + 1, uplink).expect("star ports free");
            for k in 0..cabs_per_leaf {
                b.add_cab(l + 1, PortId::new(k as u8)).expect("cab ports free");
            }
        }
        b.build().expect("fat star is valid")
    }

    /// A ring of HUB clusters ("the HUB clusters may be connected in
    /// any topology appropriate to the application environment",
    /// §3.1). Ring links use the two highest ports.
    ///
    /// # Panics
    ///
    /// Panics if fewer than three clusters (a two-hub "ring" would
    /// double-wire one port pair) or if `cabs_per_hub + 2` exceeds the
    /// port count.
    pub fn ring(clusters: usize, cabs_per_hub: usize, ports_per_hub: usize) -> Topology {
        assert!(clusters >= 3, "a ring needs at least three clusters");
        assert!(cabs_per_hub + 2 <= ports_per_hub, "ring links need two ports per HUB");
        let p = ports_per_hub as u8;
        let (cw, ccw) = (PortId::new(p - 1), PortId::new(p - 2));
        let mut b = TopologyBuilder::new(clusters, ports_per_hub);
        for h in 0..clusters {
            for k in 0..cabs_per_hub {
                b.add_cab(h, PortId::new(k as u8)).expect("cab ports free");
            }
            b.link_hubs(h, cw, (h + 1) % clusters, ccw).expect("ring ports free");
        }
        b.build().expect("ring is valid")
    }

    /// Number of HUBs.
    pub fn hub_count(&self) -> usize {
        self.peers.len() / self.ports_per_hub
    }

    /// Number of CABs.
    pub fn cab_count(&self) -> usize {
        self.cab_links.len()
    }

    /// What is wired to `hub`'s `port`.
    pub fn peer(&self, hub: usize, port: PortId) -> Peer {
        if port.index() >= self.ports_per_hub {
            return Peer::None;
        }
        self.peers.get(hub * self.ports_per_hub + port.index()).copied().unwrap_or(Peer::None)
    }

    /// The (hub, port) a CAB is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `cab` is out of range.
    pub fn cab_attachment(&self, cab: usize) -> (usize, PortId) {
        self.cab_links[cab]
    }

    /// The source route from `from` to `to`: the output port to open at
    /// each HUB along the shortest path. A table lookup — the routes
    /// were all computed when the topology was built.
    ///
    /// # Errors
    ///
    /// [`TopologyError::Unreachable`] if no fiber path exists.
    pub fn route(&self, from: usize, to: usize) -> Result<&Route, TopologyError> {
        assert_ne!(from, to, "a CAB does not route to itself");
        let (src_hub, _) = self.cab_links[from];
        self.routes[src_hub * self.cab_links.len() + to]
            .as_ref()
            .ok_or(TopologyError::Unreachable { from, to })
    }

    /// Number of HUBs a message from `from` to `to` traverses.
    pub fn hop_count(&self, from: usize, to: usize) -> Result<usize, TopologyError> {
        Ok(self.route(from, to)?.len())
    }

    /// A multicast route from `from` to every CAB in `to`: the union of
    /// the unicast shortest paths, with opens ordered parent-before-
    /// child (the §4.2.2 command-packet order).
    ///
    /// # Errors
    ///
    /// [`TopologyError::Unreachable`] if any destination is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `to` is empty or contains `from`.
    pub fn multicast_route(
        &self,
        from: usize,
        to: &[usize],
    ) -> Result<MulticastRoute, TopologyError> {
        assert!(!to.is_empty(), "multicast needs at least one destination");
        let mut opens: Vec<(Hop, bool)> = Vec::new();
        for &dst in to {
            assert_ne!(dst, from, "multicast does not loop back to the sender");
            let route = self.route(from, dst)?;
            let hops = route.hops();
            for (i, hop) in hops.iter().enumerate() {
                let terminal = i + 1 == hops.len();
                if let Some(existing) = opens.iter_mut().find(|(h, _)| h == hop) {
                    existing.1 |= terminal;
                } else {
                    opens.push((*hop, terminal));
                }
            }
        }
        Ok(MulticastRoute::new(opens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The per-pair search the route table replaced, kept as the oracle
    /// the table is checked against.
    impl Topology {
        /// Shortest path of HUB indices from `from`'s hub to `to`'s hub
        /// (inclusive), by BFS.
        fn hub_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
            let (start, _) = self.cab_links[from];
            let (goal, _) = self.cab_links[to];
            if start == goal {
                return Some(vec![start]);
            }
            let mut prev: Vec<Option<usize>> = vec![None; self.hub_count()];
            let mut queue = VecDeque::from([start]);
            prev[start] = Some(start);
            while let Some(h) = queue.pop_front() {
                for port in 0..self.ports_per_hub {
                    if let Peer::Hub(next, _) = self.peer(h, PortId::new(port as u8)) {
                        if prev[next].is_none() {
                            prev[next] = Some(h);
                            if next == goal {
                                let mut path = vec![goal];
                                let mut cur = goal;
                                while cur != start {
                                    cur = prev[cur].expect("visited");
                                    path.push(cur);
                                }
                                path.reverse();
                                return Some(path);
                            }
                            queue.push_back(next);
                        }
                    }
                }
            }
            None
        }

        /// The port on `hub` whose fiber leads to `next_hub`.
        fn port_toward(&self, hub: usize, next_hub: usize) -> Option<PortId> {
            (0..self.ports_per_hub)
                .map(|p| PortId::new(p as u8))
                .find(|&p| matches!(self.peer(hub, p), Peer::Hub(h, _) if h == next_hub))
        }

        fn route_by_search(&self, from: usize, to: usize) -> Result<Route, TopologyError> {
            let path = self.hub_path(from, to).ok_or(TopologyError::Unreachable { from, to })?;
            let mut hops = Vec::with_capacity(path.len());
            for window in path.windows(2) {
                let port = self.port_toward(window[0], window[1]).expect("BFS followed a link");
                hops.push(Hop { hub: HubId::new(window[0] as u8), out: port });
            }
            let (last_hub, cab_port) = self.cab_links[to];
            hops.push(Hop { hub: HubId::new(last_hub as u8), out: cab_port });
            Ok(Route::new(hops))
        }

        /// Checks the table against the search for every ordered pair.
        fn assert_table_matches_search(&self) {
            for a in 0..self.cab_count() {
                for b in 0..self.cab_count() {
                    if a != b {
                        assert_eq!(
                            self.route(a, b).cloned(),
                            self.route_by_search(a, b),
                            "route {a} -> {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn route_table_equals_per_pair_search_on_the_standing_fabrics() {
        Topology::mesh2d(4, 4, 4, 16).assert_table_matches_search();
        Topology::fat_star(8, 8, 16).assert_table_matches_search();
        Topology::mesh2d(1, 7, 2, 16).assert_table_matches_search(); // a chain
        Topology::ring(6, 2, 16).assert_table_matches_search(); // two equally short ways round
        Topology::single_hub(5, 16).assert_table_matches_search();
    }

    /// A random wiring: up to 7 HUBs of 8 ports, CABs and HUB links
    /// placed wherever the sampled ports are still free — cycles,
    /// parallel links and disconnected islands included.
    fn random_wiring() -> impl Strategy<Value = Topology> {
        let cab = (0usize..7, 0u8..8);
        let link = (0usize..7, 0u8..8, 0usize..7, 0u8..8);
        (2usize..8, prop::collection::vec(cab, 2..12), prop::collection::vec(link, 0..14)).prop_map(
            |(hubs, cabs, links)| {
                let mut b = TopologyBuilder::new(hubs, 8);
                for (a, pa, z, pz) in links {
                    if a % hubs != z % hubs {
                        let _ = b.link_hubs(a % hubs, PortId::new(pa), z % hubs, PortId::new(pz));
                    }
                }
                for (hub, port) in cabs {
                    let _ = b.add_cab(hub % hubs, PortId::new(port));
                }
                b.build().expect("at most 7 HUBs")
            },
        )
    }

    proptest! {
        #[test]
        fn route_table_equals_per_pair_search_on_random_wirings(topo in random_wiring()) {
            // Unreachable pairs included: both sides return the same error.
            topo.assert_table_matches_search();
        }
    }

    /// A CAB index fits the 16-bit id that headers, telemetry and the
    /// delivery log carry. The largest fabric that builds — 256 HUBs
    /// (ids are one byte), every one of 256 ports (so are port ids)
    /// holding a CAB — numbers its last CAB 65,535; one HUB more does
    /// not build. Only the builder runs: that fabric's route table
    /// would hold 256 × 65,536 entries.
    #[test]
    fn the_largest_buildable_fabric_numbers_its_cabs_in_16_bits() {
        let mut b = TopologyBuilder::new(256, 256);
        let mut last = 0;
        for hub in 0..256 {
            for port in 0..=u8::MAX {
                last = b.add_cab(hub, PortId::new(port)).expect("every port is free once");
            }
        }
        assert_eq!(last, usize::from(u16::MAX));
        assert_eq!(
            b.add_cab(255, PortId::new(u8::MAX)),
            Err(TopologyError::PortInUse { hub: 255, port: PortId::new(u8::MAX) })
        );
        assert_eq!(TopologyBuilder::new(257, 1).build().unwrap_err(), TopologyError::TooManyHubs);
    }

    #[test]
    fn single_hub_routes_are_one_hop() {
        let t = Topology::single_hub(4, 16);
        assert_eq!(t.hub_count(), 1);
        assert_eq!(t.cab_count(), 4);
        let r = t.route(0, 3).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.hops()[0], Hop { hub: HubId::new(0), out: PortId::new(3) });
    }

    #[test]
    fn peer_lookup() {
        let t = Topology::single_hub(2, 16);
        assert_eq!(t.peer(0, PortId::new(0)), Peer::Cab(0));
        assert_eq!(t.peer(0, PortId::new(1)), Peer::Cab(1));
        assert_eq!(t.peer(0, PortId::new(5)), Peer::None);
        assert_eq!(t.peer(9, PortId::new(0)), Peer::None, "out of range is None");
    }

    #[test]
    fn two_hub_route_crosses_the_link() {
        let mut b = TopologyBuilder::new(2, 16);
        let c0 = b.add_cab(0, PortId::new(0)).unwrap();
        let c1 = b.add_cab(1, PortId::new(0)).unwrap();
        b.link_hubs(0, PortId::new(15), 1, PortId::new(15)).unwrap();
        let t = b.build().unwrap();
        let r = t.route(c0, c1).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.hops()[0], Hop { hub: HubId::new(0), out: PortId::new(15) });
        assert_eq!(r.hops()[1], Hop { hub: HubId::new(1), out: PortId::new(0) });
    }

    #[test]
    fn mesh_routes_have_manhattan_hop_counts() {
        // 3x3 mesh, 2 CABs per hub: CAB 0 at hub (0,0), CAB 17 at (2,2).
        let t = Topology::mesh2d(3, 3, 2, 16);
        assert_eq!(t.hub_count(), 9);
        assert_eq!(t.cab_count(), 18);
        // Corner to corner: 4 inter-hub links + 1 CAB port = 5 hub hops.
        assert_eq!(t.hop_count(0, 17).unwrap(), 5);
        // Same hub: 1 hop.
        assert_eq!(t.hop_count(0, 1).unwrap(), 1);
        // Adjacent hubs: 2 hops.
        assert_eq!(t.hop_count(0, 2).unwrap(), 2);
    }

    #[test]
    fn mesh_is_fully_connected() {
        let t = Topology::mesh2d(2, 3, 2, 16);
        for a in 0..t.cab_count() {
            for b in 0..t.cab_count() {
                if a != b {
                    assert!(t.route(a, b).is_ok(), "no route {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn ring_routes_take_the_short_way_round() {
        let t = Topology::ring(6, 2, 16);
        assert_eq!(t.hub_count(), 6);
        assert_eq!(t.cab_count(), 12);
        // Same hub: 1; adjacent: 2; opposite side of a 6-ring: 4 (BFS
        // finds the 3-link shortest path either way).
        assert_eq!(t.hop_count(0, 1).unwrap(), 1);
        assert_eq!(t.hop_count(0, 2).unwrap(), 2);
        assert_eq!(t.hop_count(0, 6).unwrap(), 4);
        // Going 5 clusters forward is 1 cluster backward.
        assert_eq!(t.hop_count(0, 10).unwrap(), 2);
    }

    #[test]
    fn fat_star_routes_through_the_root() {
        let t = Topology::fat_star(4, 4, 16);
        assert_eq!(t.hub_count(), 5);
        assert_eq!(t.cab_count(), 16);
        // Same leaf: 1 hub hop. Cross-leaf: leaf -> root -> leaf = 3.
        assert_eq!(t.hop_count(0, 1).unwrap(), 1);
        assert_eq!(t.hop_count(0, 4).unwrap(), 3);
        assert_eq!(t.hop_count(0, 15).unwrap(), 3);
        // The root carries no CABs.
        assert_eq!(t.cab_attachment(0).0, 1);
    }

    #[test]
    #[should_panic]
    fn two_hub_ring_rejected() {
        let _ = Topology::ring(2, 2, 16);
    }

    #[test]
    fn port_conflicts_rejected() {
        let mut b = TopologyBuilder::new(1, 16);
        b.add_cab(0, PortId::new(3)).unwrap();
        assert_eq!(
            b.add_cab(0, PortId::new(3)),
            Err(TopologyError::PortInUse { hub: 0, port: PortId::new(3) })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = TopologyBuilder::new(1, 8);
        assert!(matches!(b.add_cab(0, PortId::new(8)), Err(TopologyError::PortOutOfRange { .. })));
        assert!(matches!(b.add_cab(1, PortId::new(0)), Err(TopologyError::NoSuchHub { hub: 1 })));
    }

    #[test]
    fn failed_hub_link_rolls_back() {
        let mut b = TopologyBuilder::new(2, 4);
        b.add_cab(1, PortId::new(3)).unwrap();
        // Second endpoint is taken: the first claim must roll back.
        assert!(b.link_hubs(0, PortId::new(3), 1, PortId::new(3)).is_err());
        // Port 0:3 is free again.
        assert!(b.add_cab(0, PortId::new(3)).is_ok());
    }

    #[test]
    fn unreachable_is_an_error() {
        let mut b = TopologyBuilder::new(2, 4);
        let c0 = b.add_cab(0, PortId::new(0)).unwrap();
        let c1 = b.add_cab(1, PortId::new(0)).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.route(c0, c1), Err(TopologyError::Unreachable { from: 0, to: 1 }));
    }

    #[test]
    fn multicast_union_shares_common_prefix() {
        // One hub, three CABs: multicast 0 -> {1, 2}.
        let t = Topology::single_hub(3, 16);
        let mc = t.multicast_route(0, &[1, 2]).unwrap();
        assert_eq!(mc.expected_replies(), 2);
        let items = mc.circuit_open_items();
        assert_eq!(items.len(), 2, "two opens on the same hub");
    }

    #[test]
    fn multicast_across_mesh_orders_parent_first() {
        let t = Topology::mesh2d(1, 3, 2, 16);
        // CAB 0 on hub 0 -> CABs on hub 1 and hub 2 (a chain).
        let mc = t.multicast_route(0, &[2, 4]).unwrap();
        let items = mc.circuit_open_items();
        // Path to hub1's cab: open hub0->east, open hub1->cab.
        // Path to hub2's cab adds: open hub1->east, open hub2->cab.
        assert_eq!(items.len(), 4);
        assert_eq!(mc.expected_replies(), 2);
    }

    #[test]
    fn fig7_four_hub_example_is_constructible() {
        // Fig. 7: four HUBs; we wire the paths used in §4.2.1/4.2.2.
        let mut b = TopologyBuilder::new(4, 16);
        let _cab1 = b.add_cab(0, PortId::new(1)).unwrap(); // CAB1 on HUB1
        let _cab2 = b.add_cab(0, PortId::new(2)).unwrap(); // CAB2 on HUB1
        let cab3 = b.add_cab(1, PortId::new(4)).unwrap(); // CAB3 on HUB2
        let _cab4 = b.add_cab(3, PortId::new(5)).unwrap(); // CAB4 on HUB4
        let _cab5 = b.add_cab(2, PortId::new(6)).unwrap(); // CAB5 on HUB3
        b.link_hubs(1, PortId::new(8), 0, PortId::new(3)).unwrap(); // HUB2 <-> HUB1
        b.link_hubs(0, PortId::new(6), 3, PortId::new(7)).unwrap(); // HUB1 <-> HUB4
        b.link_hubs(3, PortId::new(3), 2, PortId::new(9)).unwrap(); // HUB4 <-> HUB3
        let t = b.build().unwrap();
        // CAB3 -> CAB1 goes HUB2 then HUB1, as in the paper.
        let r = t.route(cab3, 0).unwrap();
        assert_eq!(r.hops()[0].hub, HubId::new(1));
        assert_eq!(r.hops()[0].out, PortId::new(8));
        assert_eq!(r.hops()[1].hub, HubId::new(0));
        assert_eq!(r.hops()[1].out, PortId::new(1));
    }
}
