//! High-level system facade and measurement probes.
//!
//! [`NectarSystem`] wraps a [`World`] with the constructors and probes
//! the experiment harness uses: one call builds a Fig.-2 single-HUB
//! system or a Fig.-4 mesh, and one call measures a latency or a
//! throughput with the same methodology the paper's goals are stated
//! in (process-to-process, §2.3).

use crate::node::NodeInterface;
use crate::topology::Topology;
use crate::world::{SystemConfig, World};
use nectar_sim::time::{Dur, Time};
use nectar_sim::units::Bandwidth;

/// Outcome of a one-way latency measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyReport {
    /// When the sending process called send.
    pub sent_at: Time,
    /// When the receiving process had the message.
    pub delivered_at: Time,
    /// `delivered_at - sent_at`.
    pub latency: Dur,
}

/// Outcome of a throughput measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThroughputReport {
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Wall-clock (simulated) span of the transfer.
    pub elapsed: Dur,
    /// Achieved rate.
    pub rate: Bandwidth,
}

/// A running Nectar system plus measurement probes.
pub struct NectarSystem {
    world: World,
}

impl NectarSystem {
    /// Fig. 2: a single HUB with `cabs` CABs.
    pub fn single_hub(cabs: usize, cfg: SystemConfig) -> NectarSystem {
        let ports = cfg.hub.ports;
        NectarSystem { world: World::new(Topology::single_hub(cabs, ports), cfg) }
    }

    /// Fig. 4: a `rows × cols` mesh of HUB clusters.
    pub fn mesh(rows: usize, cols: usize, cabs_per_hub: usize, cfg: SystemConfig) -> NectarSystem {
        let ports = cfg.hub.ports;
        NectarSystem { world: World::new(Topology::mesh2d(rows, cols, cabs_per_hub, ports), cfg) }
    }

    /// Any validated topology.
    pub fn custom(topo: Topology, cfg: SystemConfig) -> NectarSystem {
        NectarSystem { world: World::new(topo, cfg) }
    }

    /// The underlying world (for direct workload injection).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Runs the world until `deliveries` total messages have been
    /// delivered or `deadline` passes. Returns `true` on success.
    /// `drain` lists `(cab, mailbox)` pairs emptied along the way so
    /// long-running bulk transfers do not fill a receive mailbox.
    fn run_until_deliveries_draining(
        &mut self,
        count: usize,
        deadline: Time,
        drain: &[(usize, u16)],
    ) -> bool {
        while self.world.deliveries.len() < count {
            let Some(next) = self.world.next_event_time() else { return false };
            if next > deadline {
                return false;
            }
            self.world.run_until(next);
            for &(cab, mailbox) in drain {
                while self.world.mailbox_take(cab, mailbox).is_some() {}
            }
        }
        true
    }

    fn run_until_deliveries(&mut self, count: usize, deadline: Time) -> bool {
        self.run_until_deliveries_draining(count, deadline, &[])
    }

    /// One-way process-to-process latency between two CAB-resident
    /// tasks (the §2.3 "under 30 µs" measurement), using the reliable
    /// byte-stream transport.
    ///
    /// # Panics
    ///
    /// Panics if the message is not delivered within 100 ms of
    /// simulated time (a wedged protocol, not a slow one).
    pub fn measure_cab_to_cab(&mut self, src: usize, dst: usize, bytes: usize) -> LatencyReport {
        let sent_at = self.world.now();
        let before = self.world.deliveries.len();
        let payload = vec![0xA5u8; bytes];
        let msg_id = self.world.send_stream_now(src, dst, 1, 2, &payload);
        let deadline = sent_at + Dur::from_millis(100);
        // Scan for *our* delivery: unrelated traffic (a residual
        // workload) may land interleaved with the probe.
        let mine = |d: &crate::world::Delivery| {
            usize::from(d.cab) == dst
                && d.mailbox == 2
                && d.msg_id == u64::from(msg_id)
                && d.len as usize == bytes
        };
        loop {
            if let Some(d) = self.world.deliveries[before..].iter().find(|d| mine(d)) {
                return LatencyReport {
                    sent_at,
                    delivered_at: d.at,
                    latency: d.at.saturating_since(sent_at),
                };
            }
            let next = self
                .world
                .next_event_time()
                .unwrap_or_else(|| panic!("message CAB{src}->CAB{dst} was never delivered"));
            assert!(next <= deadline, "message CAB{src}->CAB{dst} took over 100 ms");
            self.world.run_until(next);
        }
    }

    /// Request-response round-trip time, with the server application
    /// responding `resp_bytes` as soon as the request is delivered.
    pub fn measure_rpc_rtt(
        &mut self,
        src: usize,
        dst: usize,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Dur {
        let t0 = self.world.now();
        let before = self.world.deliveries.len();
        let tx = self.world.send_rpc_now(src, dst, 5, 80, &vec![1u8; req_bytes]);
        assert!(
            self.run_until_deliveries(before + 1, t0 + Dur::from_millis(100)),
            "request never delivered"
        );
        // The server application answers immediately.
        assert!(self.world.rpc_respond_now(dst, src, tx, &vec![2u8; resp_bytes]));
        assert!(
            self.run_until_deliveries(before + 2, t0 + Dur::from_millis(200)),
            "response never delivered"
        );
        let resp = &self.world.deliveries[before + 1];
        assert_eq!(usize::from(resp.cab), src);
        resp.at.saturating_since(t0)
    }

    /// One-way node-process to node-process latency through one of the
    /// three CAB–node interfaces (§6.2.3): node-side overheads and VME
    /// crossings are composed around the measured CAB-to-CAB path.
    pub fn measure_node_to_node(
        &mut self,
        src: usize,
        dst: usize,
        bytes: usize,
        iface: NodeInterface,
    ) -> LatencyReport {
        let node = self.world.config().node.clone();
        let max_payload = self.world.config().stream.max_payload;
        let packets = nectar_proto::transport::frag::fragment_count(bytes, max_payload);
        let send_extra = node.send_overhead(iface, bytes, packets) + node.vme_time(bytes);
        let recv_extra = node.recv_overhead(iface, bytes, packets) + node.vme_time(bytes);
        let sent_at = self.world.now();
        let cab_report = self.measure_cab_to_cab(src, dst, bytes);
        let delivered_at = cab_report.delivered_at + send_extra + recv_extra;
        LatencyReport {
            sent_at,
            delivered_at,
            latency: cab_report.latency + send_extra + recv_extra,
        }
    }

    /// Streams `total` bytes from `src` to `dst` in `msg_size` chunks
    /// and reports the achieved rate (receiver-side, payload bytes).
    pub fn measure_stream_throughput(
        &mut self,
        src: usize,
        dst: usize,
        total: usize,
        msg_size: usize,
    ) -> ThroughputReport {
        let t0 = self.world.now();
        let before_count = self.world.deliveries.len();
        let messages = total.div_ceil(msg_size);
        let payload = vec![0x5Au8; msg_size];
        for _ in 0..messages {
            self.world.send_stream_now(src, dst, 1, 2, &payload);
        }
        assert!(
            self.run_until_deliveries_draining(
                before_count + messages,
                t0 + Dur::from_secs(30),
                &[(dst, 2)],
            ),
            "bulk stream did not finish"
        );
        let last = self.world.deliveries.last().expect("delivered");
        let bytes = (messages * msg_size) as u64;
        let elapsed = last.at.saturating_since(t0);
        ThroughputReport { bytes, elapsed, rate: rate_of(bytes, elapsed) }
    }

    /// All-CABs ring traffic: CAB `i` streams `bytes_per_cab` to CAB
    /// `i+1 mod n` simultaneously; reports delivered aggregate rate
    /// (the 1.6 Gbit/s backplane claim, E04).
    pub fn measure_ring_aggregate(
        &mut self,
        bytes_per_cab: usize,
        msg_size: usize,
    ) -> ThroughputReport {
        let n = self.world.topology().cab_count();
        assert!(n >= 2, "a ring needs two CABs");
        let t0 = self.world.now();
        let before = self.world.deliveries.len();
        let messages = bytes_per_cab.div_ceil(msg_size);
        let payload = vec![0x3Cu8; msg_size];
        for i in 0..n {
            for _ in 0..messages {
                self.world.send_stream_now(i, (i + 1) % n, 1, 2, &payload);
            }
        }
        let drain: Vec<(usize, u16)> = (0..n).map(|i| (i, 2)).collect();
        assert!(
            self.run_until_deliveries_draining(
                before + n * messages,
                t0 + Dur::from_secs(60),
                &drain
            ),
            "ring traffic did not finish"
        );
        let last = self.world.deliveries.last().expect("delivered");
        let bytes = (n * messages * msg_size) as u64;
        let elapsed = last.at.saturating_since(t0);
        ThroughputReport { bytes, elapsed, rate: rate_of(bytes, elapsed) }
    }

    /// Hardware multicast to `dsts` vs. the same payload sent as
    /// sequential unicasts (E06). Returns `(multicast, unicast)` spans
    /// from send to the *last* delivery.
    pub fn measure_multicast_vs_unicast(
        &mut self,
        src: usize,
        dsts: &[usize],
        bytes: usize,
    ) -> (Dur, Dur) {
        let payload = vec![0x77u8; bytes];
        // Multicast pass.
        let t0 = self.world.now();
        let before = self.world.deliveries.len();
        self.world.send_multicast_now(src, dsts, 1, 2, &payload);
        assert!(
            self.run_until_deliveries(before + dsts.len(), t0 + Dur::from_millis(100)),
            "multicast never completed"
        );
        let mc = self.world.deliveries.last().expect("delivered").at.saturating_since(t0);
        // Unicast pass (datagrams, like the multicast).
        let t1 = self.world.now();
        let before = self.world.deliveries.len();
        for &d in dsts {
            self.world.send_datagram_now(src, d, 1, 2, &payload);
        }
        assert!(
            self.run_until_deliveries(before + dsts.len(), t1 + Dur::from_millis(100)),
            "unicasts never completed"
        );
        let uc = self.world.deliveries.last().expect("delivered").at.saturating_since(t1);
        (mc, uc)
    }
}

/// The analytic CAB-to-CAB latency budget for a `bytes` message through
/// one HUB — the decomposition EXPERIMENTS.md records, as code so the
/// harness can print it next to the measurement (E09).
pub fn latency_budget(cfg: &SystemConfig, bytes: usize) -> Vec<(&'static str, Dur)> {
    let wire_bytes =
        bytes + nectar_proto::header::HEADER_BYTES + nectar_hub::item::PACKET_FRAMING_BYTES;
    vec![
        ("send software (header + datalink + DMA setup)", cfg.cab.send_path()),
        ("HUB connection setup + transit", cfg.hub.connect_latency() + cfg.hub.transit),
        ("fiber serialization", cfg.hub.wire_time(wire_bytes)),
        ("receive software (interrupt + upcall + header + DMA)", cfg.cab.recv_path()),
        (
            "application wakeup (thread switch + mailbox)",
            cfg.cab.thread_switch + cfg.cab.mailbox_op,
        ),
    ]
}

fn rate_of(bytes: u64, elapsed: Dur) -> Bandwidth {
    if elapsed.is_zero() || bytes == 0 {
        return Bandwidth::from_bits_per_sec(1);
    }
    let bps = (bytes as u128 * 8 * 1_000_000_000 / elapsed.nanos() as u128) as u64;
    Bandwidth::from_bits_per_sec(bps.max(1))
}
