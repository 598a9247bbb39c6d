//! The CAB as an operating-system co-processor (§7): distributed
//! shared virtual memory and Camelot-style transactions over Nectar.
//!
//! Run with: `cargo run --release --example os_coprocessor`

use nectar::apps::dsm::{run_dsm, DsmConfig};
use nectar::apps::transactions::{run_transactions, TxnConfig};
use nectar::core::SystemConfig;

fn main() {
    // --- Shared virtual memory ---------------------------------------
    let dsm_cfg = DsmConfig { clients: 5, pages: 32, faults: 60, ..DsmConfig::default() };
    let dsm = run_dsm(&dsm_cfg, SystemConfig::default());
    println!("distributed shared memory ({} clients, 4 KiB pages):", dsm_cfg.clients);
    println!(
        "  read faults : {} served, mean {:.0} us",
        dsm.read_fault.count(),
        dsm.read_fault.mean() / 1e3
    );
    println!(
        "  write faults: {} served, mean {:.0} us ({} multicast invalidations)",
        dsm.write_fault.count(),
        dsm.write_fault.mean() / 1e3,
        dsm.invalidations
    );

    // --- Two-phase commit --------------------------------------------
    let txn_cfg = TxnConfig { participants: 4, transactions: 30, ..TxnConfig::default() };
    let txn = run_transactions(&txn_cfg, SystemConfig::default());
    println!("\ntwo-phase commit ({} participants):", txn_cfg.participants);
    println!("  committed {} / aborted {}", txn.committed, txn.aborted);
    println!(
        "  commit latency mean {:.0} us (max {:.0} us), {:.0} committed txn/s",
        txn.commit_latency.mean() / 1e3,
        txn.commit_latency.max() as f64 / 1e3,
        txn.commit_rate()
    );
    println!(
        "\nat LAN speeds every page fault and commit round costs milliseconds of node \
         software — the §7 argument for the CAB as an OS co-processor"
    );
}
