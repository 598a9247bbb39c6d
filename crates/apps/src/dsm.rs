//! Distributed shared virtual memory over Nectar (§7).
//!
//! "Examples of such applications include distributed transaction
//! systems, such as Camelot, and the simulation of shared virtual
//! memory over a distributed system using Mach. In these applications,
//! the CAB will play a critical role as an operating system
//! co-processor" (§7).
//!
//! The workload: a home node keeps the master copy of every page;
//! client CABs take read and write faults. A read fault is an RPC to
//! the home followed by a byte-stream transfer of the 4 KB page; a
//! write fault additionally invalidates all cached copies with one
//! hardware-multicast message before the grant. Fault latency is the
//! paper's motivating metric: at LAN speeds a page fault costs
//! milliseconds, at Nectar speeds it is a few hundred microseconds —
//! the difference between DSM being a toy and a tool.

use nectar_core::system::NectarSystem;
use nectar_core::world::SystemConfig;
use nectar_sim::metrics::Histogram;
use nectar_sim::rng::Rng;
use nectar_sim::time::{Dur, Time};
use std::collections::HashSet;

/// DSM workload parameters.
#[derive(Clone, Debug)]
pub struct DsmConfig {
    /// Client CABs taking faults (the home node is one more).
    pub clients: usize,
    /// Shared pages.
    pub pages: usize,
    /// Page size in bytes (Mach-era 4 KB).
    pub page_bytes: usize,
    /// Faults to drive.
    pub faults: usize,
    /// Probability a fault is a write (needs invalidation).
    pub write_ratio: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for DsmConfig {
    fn default() -> DsmConfig {
        DsmConfig { clients: 4, pages: 16, page_bytes: 4096, faults: 40, write_ratio: 0.3, seed: 4 }
    }
}

/// Results of a DSM run.
#[derive(Clone, Debug)]
pub struct DsmReport {
    /// Read-fault service latency (request to page-in-memory, ns).
    pub read_fault: Histogram,
    /// Write-fault service latency (includes invalidation, ns).
    pub write_fault: Histogram,
    /// Invalidation messages multicast.
    pub invalidations: u64,
    /// Total simulated time.
    pub elapsed: Dur,
}

const REPLY_MB: u16 = 5;
const SERVICE_MB: u16 = 80;
const PAGE_MB: u16 = 9;
const INVALIDATE_MB: u16 = 10;

/// Runs the DSM fault workload. The home node is CAB 0; clients are
/// CABs `1..=clients`.
///
/// # Panics
///
/// Panics if the system cannot host `clients + 1` CABs, or if a fault
/// wedges (deadline 50 ms per fault).
pub fn run_dsm(cfg: &DsmConfig, sys_cfg: SystemConfig) -> DsmReport {
    assert!(cfg.clients >= 2, "DSM needs at least two clients");
    assert!(cfg.clients < sys_cfg.hub.ports, "clients + home must fit one HUB");
    let mut sys = NectarSystem::single_hub(cfg.clients + 1, sys_cfg);
    let home = 0usize;
    let mut rng = Rng::seed_from(cfg.seed);
    let mut read_fault = Histogram::new();
    let mut write_fault = Histogram::new();
    let mut invalidations = 0u64;
    // Which clients hold a cached copy of each page.
    let mut cached: Vec<HashSet<usize>> = vec![HashSet::new(); cfg.pages];
    let t_start = sys.world().now();

    for fault_no in 0..cfg.faults {
        let client = 1 + (rng.range(0..=(cfg.clients as u64 - 1)) as usize);
        let page = rng.range(0..=(cfg.pages as u64 - 1)) as usize;
        let is_write = rng.chance(cfg.write_ratio);
        if cached[page].contains(&client) && !is_write {
            continue; // hit, no fault
        }
        let t0 = sys.world().now();

        // 1. Fault RPC to the home node.
        let deliveries_before = sys.world().deliveries.len();
        let tx = sys.world_mut().send_rpc_now(client, home, REPLY_MB, SERVICE_MB, &[page as u8]);
        run_until_count(&mut sys, deliveries_before + 1, fault_no);

        // 2. Write faults invalidate every other cached copy first —
        //    one hardware multicast from the home node.
        if is_write {
            let holders: Vec<usize> =
                cached[page].iter().copied().filter(|&c| c != client).collect();
            if !holders.is_empty() {
                let before = sys.world().deliveries.len();
                sys.world_mut().send_multicast_now(
                    home,
                    &holders,
                    INVALIDATE_MB,
                    INVALIDATE_MB,
                    &[page as u8],
                );
                invalidations += 1;
                run_until_count(&mut sys, before + holders.len(), fault_no);
                for &h in &holders {
                    let _ = sys.world_mut().mailbox_take(h, INVALIDATE_MB);
                }
            }
            cached[page].clear();
        }

        // 3. The home grants (RPC response) and streams the page.
        let before = sys.world().deliveries.len();
        assert!(sys.world_mut().rpc_respond_now(home, client, tx, &[1]));
        let page_data = vec![page as u8; cfg.page_bytes];
        sys.world_mut().send_stream_now(home, client, PAGE_MB, PAGE_MB, &page_data);
        // Wait for both the grant and the page.
        run_until_count(&mut sys, before + 2, fault_no);
        let page_msg = sys.world_mut().mailbox_take(client, PAGE_MB).expect("page arrived");
        assert_eq!(page_msg.len(), cfg.page_bytes);
        let _ = sys.world_mut().mailbox_take(client, REPLY_MB);

        cached[page].insert(client);
        let latency = sys.world().now().saturating_since(t0);
        if is_write {
            write_fault.observe(latency.nanos());
        } else {
            read_fault.observe(latency.nanos());
        }
    }

    DsmReport {
        read_fault,
        write_fault,
        invalidations,
        elapsed: sys.world().now().saturating_since(t_start),
    }
}

fn run_until_count(sys: &mut NectarSystem, count: usize, fault_no: usize) {
    let deadline = sys.world().now() + Dur::from_millis(50);
    while sys.world().deliveries.len() < count {
        let Some(next) = sys.world().next_event_time() else {
            panic!("DSM fault {fault_no} wedged: no pending events");
        };
        assert!(next <= deadline, "DSM fault {fault_no} timed out");
        sys.world_mut().run_until(next);
    }
    let _ = Time::ZERO;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_complete_and_pages_arrive() {
        let cfg = DsmConfig { faults: 20, ..DsmConfig::default() };
        let report = run_dsm(&cfg, SystemConfig::default());
        assert!(report.read_fault.count() + report.write_fault.count() > 0);
        assert!(report.elapsed > Dur::ZERO);
    }

    #[test]
    fn fault_latency_is_sub_millisecond() {
        // A 4 KB page at 100 Mbit/s is ~330 us of wire; with RPC and
        // software the fault must stay well under a millisecond — the
        // co-processor claim of §7.
        let report = run_dsm(&DsmConfig::default(), SystemConfig::default());
        if !report.read_fault.is_empty() {
            assert!(
                report.read_fault.max() < 1_000_000,
                "read fault max {} ns",
                report.read_fault.max()
            );
        }
        if !report.write_fault.is_empty() {
            assert!(report.write_fault.max() < 2_000_000);
        }
    }

    #[test]
    fn writes_trigger_invalidations_once_shared() {
        let cfg = DsmConfig {
            faults: 60,
            pages: 2, // force sharing
            write_ratio: 0.5,
            ..DsmConfig::default()
        };
        let report = run_dsm(&cfg, SystemConfig::default());
        assert!(report.invalidations > 0, "shared pages must get invalidated");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = run_dsm(&DsmConfig::default(), SystemConfig::default());
        let b = run_dsm(&DsmConfig::default(), SystemConfig::default());
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.invalidations, b.invalidations);
    }
}
