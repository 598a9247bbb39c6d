//! Allocation budgets, counted by a wrapping global allocator: heap
//! allocations per CAB to construct a world, and per delivered message
//! on the datagram path. The run is deterministic, so the figures are
//! gates, not benchmarks.
//!
//! This file holds the only test of its binary on purpose: the counter
//! is process-wide, and a second test running on another thread would
//! be counted too.

use nectar_core::prelude::*;
use nectar_sim::time::Time;
use nectar_sim::workload::WorkloadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting calls that obtain memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations a delivered 32-byte datagram may cost once the
/// world is warm. On this program the parent of the change that
/// introduced the gate measured 15.21 and the change itself 3.46 (the
/// payload and message `Arc`s, a wire buffer on a pool miss, amortised
/// queue growth); the budget leaves room for a hop more, not for a
/// per-packet copy or item list to come back.
const BUDGET_PER_DELIVERY: f64 = 8.0;

/// Heap allocations `World::new` may make per CAB on the test's world
/// (16 CABs on 4 HUBs; the HUBs' and the world's own tables are in the
/// figure). Measured: 80 in all, 5.0 per CAB. The parent of the change
/// that introduced this gate made 112: each board also built a
/// data-RAM extent list and a protection-table row vector that no run
/// read. Construction is what the benchmark's `setup_s` times, so this
/// keeps per-board state from creeping back in.
const CONSTRUCTION_BUDGET_PER_CAB: f64 = 5.0;

#[test]
fn a_delivered_datagram_stays_within_its_allocation_budget() {
    // `spike` in small: 40 standing closed-loop flows per CAB, uniform
    // destinations, 32-byte datagrams, on a 2x2 mesh of 4-CAB clusters.
    let spec = WorkloadSpec::parse(1, "closed(40,0ns,fixed(32),uniform,datagram)[0ns..6ms]")
        .expect("the program parses");
    let (topo, cfg) = (Topology::mesh2d(2, 2, 4, 16), SystemConfig::default());
    let cabs = topo.cab_count();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut world = World::new(topo, cfg);
    let construction = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_cab = construction as f64 / cabs as f64;
    println!("World::new: {construction} allocations / {cabs} CABs = {per_cab:.2}");
    assert!(
        per_cab <= CONSTRUCTION_BUDGET_PER_CAB,
        "{per_cab:.2} heap allocations per CAB in World::new (budget {CONSTRUCTION_BUDGET_PER_CAB})"
    );
    world.set_workload(&spec).expect("the program compiles on the mesh");

    // Warm-up: pools fill, queues and scratch vectors reach their size.
    world.run_until(Time::from_millis(2));
    let (allocations, deliveries) = (ALLOCATIONS.load(Ordering::Relaxed), world.deliveries.len());
    world.run_until(Time::from_millis(5));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let deliveries = world.deliveries.len() - deliveries;

    assert!(deliveries > 1_000, "the measured window carries traffic ({deliveries} deliveries)");
    let per_delivery = allocations as f64 / deliveries as f64;
    println!("{allocations} allocations / {deliveries} deliveries = {per_delivery:.2}");
    assert!(
        per_delivery <= BUDGET_PER_DELIVERY,
        "{per_delivery:.2} heap allocations per delivered datagram (budget {BUDGET_PER_DELIVERY})"
    );
}
