//! The datalink layer: routes and HUB command packets.
//!
//! "The datalink protocol transfers data packets between CABs using HUB
//! commands, manages HUB connections, and recovers from framing errors
//! and lost HUB commands" (§6.2.1). This module holds the pure parts —
//! route descriptions and the §4.2 command-packet builders. The timed
//! send/receive logic, and the cache of open circuits that lets
//! repeated sends to one destination skip route setup, run in the CAB
//! model of `nectar-core`.

use core::fmt;
use nectar_hub::command::Command;
use nectar_hub::id::{HubId, PortId};
use nectar_hub::item::{Item, Packet};
use std::sync::Arc;

/// One hop of a route: the output port to open on a HUB.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Hop {
    /// The HUB the open command is addressed to.
    pub hub: HubId,
    /// The output port to connect on that HUB.
    pub out: PortId,
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.hub, self.out)
    }
}

/// Flat storage for the hops and command prologues of routes that were
/// built together; each [`Route`] is a span of it.
#[derive(Debug, Default)]
struct RouteStore {
    hops: Vec<Hop>,
    /// Per route, at twice its hop offset: the test-open prologue, then
    /// the circuit-open prologue.
    opens: Vec<Command>,
}

impl RouteStore {
    /// Appends a route; returns its hop offset.
    fn push(&mut self, hops: &[Hop]) -> u32 {
        assert!(!hops.is_empty(), "a route traverses at least one HUB");
        let start = self.hops.len() as u32;
        let last = hops.len() - 1;
        self.hops.extend_from_slice(hops);
        // Packet switching needs no reply: the data follows the commands
        // immediately and flow control does the pacing.
        self.opens.extend(hops.iter().map(|h| Command::open(true, true, false, h.hub, h.out)));
        self.opens.extend(
            hops.iter()
                .enumerate()
                .map(|(i, h)| Command::open(false, true, i == last, h.hub, h.out)),
        );
        start
    }
}

/// A source route from one CAB to another: the ordered output ports to
/// open at each HUB along the way. Nectar routes are source-routed —
/// the sending CAB computes the whole path and encodes it as a command
/// packet (§4.2.1).
///
/// The two command prologues a route can be sent with — `test open
/// with retry` per hop (§4.2.3) and `open with retry`, replying on the
/// last hop (§4.2.1) — are a function of the hops alone, so they are
/// built with the route and read by the datalink every time a packet
/// goes on the fibre. A route is a handle on shared storage: the routes
/// of a [`RouteTable`] live in two flat arrays, and cloning one copies
/// no hops.
#[derive(Clone)]
pub struct Route {
    store: Arc<RouteStore>,
    /// Offset of the first hop in `store.hops`.
    start: u32,
    len: u32,
}

/// Builds many routes into one shared store — a topology's whole route
/// table costs two allocations, not two per route.
#[derive(Debug, Default)]
pub struct RouteTable {
    store: RouteStore,
    /// Per entry: hop offset and hop count, `None` for "no route".
    spans: Vec<Option<(u32, u32)>>,
}

impl RouteTable {
    /// An empty table with room for `entries` entries.
    pub fn with_capacity(entries: usize) -> RouteTable {
        RouteTable { store: RouteStore::default(), spans: Vec::with_capacity(entries) }
    }

    /// Appends the route with these hops, in CAB-to-destination order.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty: a route traverses at least one HUB.
    pub fn push(&mut self, hops: &[Hop]) {
        let start = self.store.push(hops);
        self.spans.push(Some((start, hops.len() as u32)));
    }

    /// Appends an entry that holds no route.
    pub fn push_none(&mut self) {
        self.spans.push(None);
    }

    /// The entries in push order.
    pub fn finish(self) -> Vec<Option<Route>> {
        let store = Arc::new(self.store);
        self.spans
            .into_iter()
            .map(|span| span.map(|(start, len)| Route { store: Arc::clone(&store), start, len }))
            .collect()
    }
}

impl Route {
    /// Builds a route from its hops, in CAB-to-destination order.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty: a route traverses at least one HUB.
    pub fn new(hops: Vec<Hop>) -> Route {
        let mut store = RouteStore::default();
        let start = store.push(&hops);
        Route { store: Arc::new(store), start, len: hops.len() as u32 }
    }

    /// The hops in order.
    pub fn hops(&self) -> &[Hop] {
        &self.store.hops[self.start as usize..][..self.len as usize]
    }

    /// Number of HUBs traversed.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Routes are never empty; this exists for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The packet-switched prologue as commands: `test open with
    /// retry` at every hop, so each connection waits for the downstream
    /// input queue to be ready (§4.2.3's exact recipe).
    pub fn test_opens(&self) -> &[Command] {
        &self.store.opens[2 * self.start as usize..][..self.len as usize]
    }

    /// The circuit prologue as commands: `open with retry` at every
    /// hop, with `and reply` on the last so the sender learns the route
    /// is up (§4.2.1's exact recipe).
    fn circuit_opens(&self) -> &[Command] {
        &self.store.opens[(2 * self.start + self.len) as usize..][..self.len as usize]
    }

    /// The circuit prologue as wire items.
    pub fn circuit_open_items(&self) -> Vec<Item> {
        self.circuit_opens().iter().map(|&c| c.into()).collect()
    }

    /// [`test_opens`](Route::test_opens) as wire items.
    fn test_open_items(&self) -> Vec<Item> {
        self.test_opens().iter().map(|&c| c.into()).collect()
    }

    /// A full packet-switched transmission: test-opens, the data
    /// packet, and the trailing `close all` (§4.2.3).
    ///
    /// # Panics
    ///
    /// Panics if the packet exceeds the 1 KB input-queue limit — larger
    /// packets must use circuit switching (§4.2.3).
    pub fn packet_switched_items(&self, packet: Packet, queue_capacity: usize) -> Vec<Item> {
        assert!(
            packet.wire_bytes() <= queue_capacity,
            "packet-switched packets must fit the {queue_capacity}-byte input queue"
        );
        let mut items = self.test_open_items();
        items.push(packet.into());
        items.push(Item::CloseAll);
        items
    }
}

/// Routes are their hops: two handles on different storage are equal
/// when they name the same path.
impl PartialEq for Route {
    fn eq(&self, other: &Route) -> bool {
        self.hops() == other.hops()
    }
}

impl Eq for Route {}

impl core::hash::Hash for Route {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.hops().hash(state);
    }
}

impl fmt::Debug for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Route").field("hops", &self.hops()).finish()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, hop) in self.hops().iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            hop.fmt(f)?;
        }
        Ok(())
    }
}

/// A multicast route: a sequence of opens walked in command-packet
/// order, with `and reply` set on each branch's final hop. The §4.2.2
/// example (CAB2 to CAB4 and CAB5 through HUB1/HUB4/HUB3) is the
/// canonical instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MulticastRoute {
    opens: Vec<(Hop, bool)>,
}

impl MulticastRoute {
    /// Builds a multicast route from `(hop, is_branch_terminal)` pairs
    /// in command-packet order.
    ///
    /// # Panics
    ///
    /// Panics if `opens` is empty or no hop is terminal (at least one
    /// destination must exist).
    pub fn new(opens: Vec<(Hop, bool)>) -> MulticastRoute {
        assert!(!opens.is_empty(), "multicast route cannot be empty");
        assert!(opens.iter().any(|(_, t)| *t), "multicast route needs at least one destination");
        MulticastRoute { opens }
    }

    /// The circuit-switched open sequence (§4.2.2): `open with retry`,
    /// with `and reply` on each terminal hop.
    pub fn circuit_open_items(&self) -> Vec<Item> {
        self.opens
            .iter()
            .map(|&(hop, terminal)| Command::open(false, true, terminal, hop.hub, hop.out).into())
            .collect()
    }

    /// The packet-switched variant (§4.2.4): all `test open with
    /// retry`, then data, then `close all`.
    pub fn packet_switched_items(&self, packet: Packet, queue_capacity: usize) -> Vec<Item> {
        assert!(
            packet.wire_bytes() <= queue_capacity,
            "packet-switched packets must fit the {queue_capacity}-byte input queue"
        );
        let mut items: Vec<Item> = self
            .opens
            .iter()
            .map(|&(hop, _)| Command::open(true, true, false, hop.hub, hop.out).into())
            .collect();
        items.push(packet.into());
        items.push(Item::CloseAll);
        items
    }

    /// Replies the sender waits for: one per terminal hop (§4.2.2,
    /// "after receiving replies to both of the open with retry and
    /// reply commands, CAB2 sends the data packet").
    pub fn expected_replies(&self) -> usize {
        self.opens.iter().filter(|(_, t)| *t).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(hub: u8, port: u8) -> Hop {
        Hop { hub: HubId::new(hub), out: PortId::new(port) }
    }

    /// The paper's §4.2.1 example: CAB3 to CAB1 through HUB2 and HUB1.
    fn fig7_route() -> Route {
        Route::new(vec![hop(2, 8), hop(1, 8)])
    }

    fn as_command(item: &Item) -> Command {
        match item {
            Item::Command(c) => *c,
            other => panic!("expected command, got {other}"),
        }
    }

    #[test]
    fn circuit_open_matches_paper_section_421() {
        let items = fig7_route().circuit_open_items();
        assert_eq!(items.len(), 2);
        assert_eq!(as_command(&items[0]).to_string(), "open with retry HUB2 P8");
        assert_eq!(as_command(&items[1]).to_string(), "open with retry and reply HUB1 P8");
    }

    #[test]
    fn packet_switched_matches_paper_section_423() {
        let packet = Packet::new(1, vec![0u8; 100]);
        let items = fig7_route().packet_switched_items(packet, 1024);
        let strings: Vec<String> = items.iter().map(|i| i.to_string()).collect();
        assert_eq!(strings[0], "cmd[test open with retry HUB2 P8]");
        assert_eq!(strings[1], "cmd[test open with retry HUB1 P8]");
        assert_eq!(strings[2], "packet#1 (100 B)");
        assert_eq!(strings[3], "close all");
    }

    #[test]
    fn multicast_matches_paper_section_422() {
        // "open with retry HUB1 P6 / open with retry and reply HUB4 P5 /
        //  open with retry HUB4 P3 / open with retry and reply HUB3 P4"
        let mc = MulticastRoute::new(vec![
            (hop(1, 6), false),
            (hop(4, 5), true),
            (hop(4, 3), false),
            (hop(3, 4), true),
        ]);
        let strings: Vec<String> = mc.circuit_open_items().iter().map(|i| i.to_string()).collect();
        assert_eq!(
            strings,
            vec![
                "cmd[open with retry HUB1 P6]",
                "cmd[open with retry and reply HUB4 P5]",
                "cmd[open with retry HUB4 P3]",
                "cmd[open with retry and reply HUB3 P4]",
            ]
        );
        assert_eq!(mc.expected_replies(), 2);
    }

    #[test]
    #[should_panic]
    fn oversized_packet_switching_rejected() {
        let packet = Packet::new(1, vec![0u8; 2048]);
        let _ = fig7_route().packet_switched_items(packet, 1024);
    }

    #[test]
    #[should_panic]
    fn empty_route_rejected() {
        let _ = Route::new(vec![]);
    }

    #[test]
    fn route_display() {
        assert_eq!(fig7_route().to_string(), "HUB2:P8 -> HUB1:P8");
    }
}
