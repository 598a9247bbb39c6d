//! Only the run logs grow per delivery. `World::deliveries` and
//! `World::completions` keep one record per message for the whole run;
//! everything else a world holds at quiescence — transport state, RPC
//! response caches, mailboxes, the event slab, the generator's streams
//! — is bounded by the fabric and the program, not by how long it ran.
//! Counted by a wrapping global allocator that tracks live bytes: the
//! same program at two window lengths, the live heap minus the two
//! logs' capacity, divided by the extra deliveries.
//!
//! This file holds the only test of its binary on purpose: the counter
//! is process-wide, and a second test running on another thread would
//! be counted too.

use nectar_core::prelude::*;
use nectar_core::world::{Completion, QuiescenceOutcome};
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::WorkloadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, keeping a live-byte count.
struct Live;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    LIVE.fetch_add(bytes as isize, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are
// relaxed atomic updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        shrank(layout.size());
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Live = Live;

/// Heap bytes a delivery may leave behind outside the two logs. The
/// `lattice` shape measures 2.0: the engine's timing-wheel buckets keep
/// the capacity of the fullest instant they have held, and a longer
/// run meets a few fuller ones (bounded by the wheel, not by the
/// deliveries: 1.2 between 160 ms and 640 ms windows). One flight-table
/// entry per delivery measures 17; the log records cost 24 and 16.
const BUDGET_PER_DELIVERY: f64 = 4.0;

/// What one run left: live heap over the logs' capacity, deliveries.
fn run(topo: &Topology, cfg: &SystemConfig, program: &str, window: Dur) -> (isize, usize) {
    let spec = program.replace("{W}", &format!("{}us", window.nanos() / 1_000));
    let spec = WorkloadSpec::parse(7, &spec).expect("the program parses");
    let before = LIVE.load(Ordering::Relaxed);
    let mut world = World::new(topo.clone(), cfg.clone());
    world.set_workload(&spec).expect("the program compiles on the fabric");
    let (_, outcome) = world.run_to_quiescence(Time::ZERO + window + Dur::from_millis(50));
    assert_eq!(outcome, QuiescenceOutcome::Quiescent, "{program}");
    assert!(world.errors.is_empty(), "{program}: {:?}", &world.errors[..1]);
    let logs = world.deliveries.capacity() * size_of::<Delivery>()
        + world.completions.capacity() * size_of::<Completion>();
    let live = LIVE.load(Ordering::Relaxed) - before - logs as isize;
    let deliveries = world.deliveries.len();
    drop(world);
    (live, deliveries)
}

#[test]
fn only_the_logs_grow_with_the_deliveries() {
    // `lattice` and `rpc_chaos` in small, without the faults: 960-byte
    // neighbour datagrams plus 8 KiB ring streams on a 2×2 mesh, and
    // closed-loop RPC plus background datagrams on a two-leaf star.
    // Each RPC server caches its last 8 responses, so the caches are
    // full well inside the shorter window.
    let lattice = "closed(12,0ns,fixed(960),neighbor,datagram)[0ns..{W}];\
                   closed(2,500ns,fixed(8192),ring,stream)[0ns..{W}]";
    let rpc = "closed(2,20us,uniform(64,256),uniform,rpc)[0ns..{W}];\
               open(poisson(200us),uniform(64,512),uniform,datagram)[0ns..{W}]";
    let mut cfg = SystemConfig::default();
    cfg.rpc.response_cache = 8;
    let shapes = [
        ("lattice", Topology::mesh2d(2, 2, 4, 16), lattice),
        ("rpc", Topology::fat_star(2, 4, 16), rpc),
    ];
    for (name, topo, program) in shapes {
        let (short, long) = (Dur::from_millis(50), Dur::from_millis(150));
        let (live_short, n_short) = run(&topo, &cfg, program, short);
        let (live_long, n_long) = run(&topo, &cfg, program, long);
        let extra = n_long - n_short;
        assert!(extra > 2_000, "{name}: the longer window carries traffic ({extra} deliveries)");
        let per_delivery = (live_long - live_short) as f64 / extra as f64;
        println!(
            "{name}: {live_short} B after {n_short} deliveries, {live_long} B after {n_long}: \
             {per_delivery:.2} B per extra delivery"
        );
        assert!(
            per_delivery <= BUDGET_PER_DELIVERY,
            "{name}: {per_delivery:.2} heap bytes per delivery outside the logs \
             (budget {BUDGET_PER_DELIVERY})"
        );
    }
}
