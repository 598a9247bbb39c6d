//! The vision application (§7).
//!
//! "One of the first Nectar applications is in the area of vision. The
//! application uses a Warp machine for low-level vision analysis and
//! Sun workstations for manipulating image features that are stored in
//! a distributed spatial database. It requires both high bandwidth for
//! image transfer and low latency for communication between nodes in
//! the database" (§7).
//!
//! The workload: a Warp node streams image tiles to database nodes
//! (bulk, bandwidth-bound) while a recognition task issues spatial
//! queries against the database (small RPCs, latency-bound). The
//! experiment (E16) checks that both coexist: tile transfer approaches
//! the fiber rate *and* query latency stays within the paper's
//! interactive budget.

use nectar_core::system::NectarSystem;
use nectar_core::world::SystemConfig;
use nectar_sim::metrics::Histogram;
use nectar_sim::time::{Dur, Time};
use nectar_sim::units::Bandwidth;

/// Vision workload parameters.
#[derive(Clone, Debug)]
pub struct VisionConfig {
    /// Frames to process.
    pub frames: usize,
    /// Bytes per frame (512×512 8-bit image = 256 KB).
    pub image_bytes: usize,
    /// Tiles each frame is split into (one message per tile).
    pub tiles_per_frame: usize,
    /// Database nodes (Sun workstations).
    pub db_nodes: usize,
    /// Spatial queries issued per frame.
    pub queries_per_frame: usize,
    /// Query/response payload bytes.
    pub query_bytes: usize,
}

impl Default for VisionConfig {
    fn default() -> VisionConfig {
        VisionConfig {
            frames: 4,
            image_bytes: 256 * 1024,
            tiles_per_frame: 16,
            db_nodes: 3,
            queries_per_frame: 8,
            query_bytes: 64,
        }
    }
}

/// Results of a vision run.
#[derive(Clone, Debug)]
pub struct VisionReport {
    /// Frames processed.
    pub frames: usize,
    /// Mean time from first tile sent to last tile delivered per frame.
    pub frame_transfer: Histogram,
    /// Achieved image throughput over the whole run.
    pub image_throughput: Bandwidth,
    /// Query round-trip latencies (nanoseconds).
    pub query_rtt: Histogram,
    /// Total simulated time.
    pub elapsed: Dur,
    /// Simulation events the run processed.
    pub events: u64,
}

impl VisionReport {
    /// Frames per second the pipeline sustained.
    pub fn frame_rate(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.frames as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Runs the vision pipeline on a single-HUB system: CAB 0 is the Warp,
/// CABs `1..=db_nodes` are the database Suns, and the last CAB hosts
/// the recognition task issuing queries.
///
/// # Panics
///
/// Panics if the system cannot fit `db_nodes + 2` CABs on one HUB.
pub fn run_vision(cfg: &VisionConfig, sys_cfg: SystemConfig) -> VisionReport {
    let cabs = cfg.db_nodes + 2;
    assert!(cabs <= sys_cfg.hub.ports, "vision system needs {cabs} ports");
    let mut sys = NectarSystem::single_hub(cabs, sys_cfg);
    let warp = 0usize;
    let recognizer = cabs - 1;
    let tile_bytes = cfg.image_bytes / cfg.tiles_per_frame;
    let mut frame_transfer = Histogram::new();
    let mut query_rtt = Histogram::new();
    let t_start = sys.world().now();

    for frame in 0..cfg.frames {
        // Phase 1: the Warp streams this frame's tiles round-robin over
        // the database nodes.
        let t0 = sys.world().now();
        let before = sys.world().deliveries.len();
        for tile in 0..cfg.tiles_per_frame {
            let db = 1 + (tile % cfg.db_nodes);
            let payload = vec![(frame ^ tile) as u8; tile_bytes];
            sys.world_mut().send_stream_now(warp, db, 1, 2, &payload);
        }
        let target = before + cfg.tiles_per_frame;
        while sys.world().deliveries.len() < target {
            let Some(next) = sys.world().next_event_time() else {
                panic!("tile transfer wedged at frame {frame}");
            };
            sys.world_mut().run_until(next);
        }
        let last_tile = sys.world().deliveries.last().expect("tiles delivered").at;
        frame_transfer.observe(last_tile.saturating_since(t0).nanos());
        // Drain the tile mailboxes (the database "ingests" the tiles).
        for db in 1..=cfg.db_nodes {
            while sys.world_mut().mailbox_take(db, 2).is_some() {}
        }

        // Phase 2: the recognition task queries the spatial database.
        for q in 0..cfg.queries_per_frame {
            let db = 1 + (q % cfg.db_nodes);
            let rtt = sys.measure_rpc_rtt(recognizer, db, cfg.query_bytes, cfg.query_bytes);
            query_rtt.observe(rtt.nanos());
        }
    }

    let elapsed = sys.world().now().saturating_since(t_start);
    let total_image_bytes = (cfg.frames * cfg.tiles_per_frame * tile_bytes) as u64;
    let image_throughput = if elapsed.is_zero() {
        Bandwidth::from_bits_per_sec(1)
    } else {
        Bandwidth::from_bits_per_sec(
            ((total_image_bytes as u128 * 8 * 1_000_000_000 / elapsed.nanos() as u128) as u64)
                .max(1),
        )
    };
    let _ = Time::ZERO; // keep the Time import honest for future probes
    VisionReport {
        frames: cfg.frames,
        frame_transfer,
        image_throughput,
        query_rtt,
        elapsed,
        events: sys.world().events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_moves_frames_and_answers_queries() {
        let cfg = VisionConfig { frames: 2, image_bytes: 64 * 1024, ..VisionConfig::default() };
        let report = run_vision(&cfg, SystemConfig::default());
        assert_eq!(report.frames, 2);
        assert_eq!(report.frame_transfer.count(), 2);
        assert_eq!(report.query_rtt.count(), 16);
        // Queries stay interactive even while frames move.
        assert!(
            report.query_rtt.max() < 200_000,
            "query rtt p100 {} ns exceeds 200 us",
            report.query_rtt.max()
        );
    }

    #[test]
    fn image_transfer_uses_the_fiber_well() {
        let cfg = VisionConfig { frames: 2, ..VisionConfig::default() };
        let report = run_vision(&cfg, SystemConfig::default());
        // The Warp's single outgoing fiber bounds the tile stream.
        let mbit = report.image_throughput.as_mbit_per_sec_f64();
        assert!(mbit > 40.0, "tile stream too slow: {mbit:.1} Mbit/s");
        assert!(mbit <= 100.0);
    }

    #[test]
    fn video_rate_is_reachable_for_modest_frames() {
        // A 64 KB feature frame at the fiber's ~100 Mbit/s moves in
        // ~6 ms; with queries the pipeline should still beat 30 frames
        // per second ("megabyte images at video rates" motivates the
        // full-size budget, §2.3).
        let cfg = VisionConfig {
            frames: 3,
            image_bytes: 64 * 1024,
            queries_per_frame: 4,
            ..VisionConfig::default()
        };
        let report = run_vision(&cfg, SystemConfig::default());
        assert!(report.frame_rate() > 30.0, "frame rate {:.1}", report.frame_rate());
    }
}
