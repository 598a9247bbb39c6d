//! The paper's §7 vision application: a Warp machine streams image
//! tiles into a distributed spatial database on Sun workstations while
//! a recognition task issues latency-critical queries.
//!
//! Run with: `cargo run --release --example vision_pipeline`

use nectar::apps::vision::{run_vision, VisionConfig};
use nectar::core::SystemConfig;

fn main() {
    let cfg = VisionConfig {
        frames: 6,
        image_bytes: 256 * 1024, // 512x512 8-bit image
        tiles_per_frame: 16,
        db_nodes: 4,
        queries_per_frame: 12,
        query_bytes: 64,
    };
    println!(
        "vision pipeline: {} frames of {} KiB over {} database nodes, {} queries/frame\n",
        cfg.frames,
        cfg.image_bytes / 1024,
        cfg.db_nodes,
        cfg.queries_per_frame
    );
    let report = run_vision(&cfg, SystemConfig::default());

    println!("frame transfer (mean)    : {:.2} ms", report.frame_transfer.mean() / 1e6);
    println!("image throughput         : {}", report.image_throughput);
    println!(
        "query RTT mean / p99     : {:.1} / {:.1} us",
        report.query_rtt.mean() / 1e3,
        report.query_rtt.quantile(0.99) / 1e3
    );
    println!("sustained frame rate     : {:.1} frames/s", report.frame_rate());
    println!();
    println!(
        "the point of the backplane: bulk tiles saturate the Warp fiber while queries stay \
         interactive ({} samples, max {:.1} us)",
        report.query_rtt.count(),
        report.query_rtt.max() as f64 / 1e3
    );
}
