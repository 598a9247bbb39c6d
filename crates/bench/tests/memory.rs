//! Bounded memory: the heap high-water mark of every streamed scenario
//! stays under a ceiling, counted by a wrapping global allocator that
//! tracks live bytes. The streaming doctor exists so that analysis
//! memory does not grow with the run; this catches a buffer that does.
//!
//! This file holds the only test of its binary on purpose: the counter
//! is process-wide, and a second test running on another thread would
//! be counted too. It is ignored in Tier-1 (e27b alone takes seconds);
//! run it with `cargo test --release -- --ignored`.

use nectar_bench::experiments::{run, ExpCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, keeping a live-byte count and its high-water
/// mark.
struct HighWater;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are
// relaxed atomic updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for HighWater {
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
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            shrank(layout.size() - new_size);
        }
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
static GLOBAL: HighWater = HighWater;

/// Heap ceiling of any one scenario, over what was live when it
/// started. e27b's 102,400 standing flows peak at 67 MiB; keeping a
/// copy of every event its doctor folds takes it to 172 MiB.
const CEILING_BYTES: usize = 128 << 20;

#[test]
#[ignore = "seconds even in release; run with --release -- --ignored"]
fn streamed_scenarios_stay_under_the_heap_ceiling() {
    let doctor = ExpCtx { metrics: true, stream: true, ..ExpCtx::off() };
    // `report --doctor --telemetry-cap 4096`: rings far too small to
    // keep these captures, so the doctor must fold as the run goes.
    let tight = ExpCtx { telemetry_cap: Some(4096), ..doctor.clone() };
    // `report --shards 2 --doctor`.
    let sharded = ExpCtx { shards: 2, ..doctor };
    let scenarios = [
        ("e26", &tight),
        ("e26b", &tight),
        ("e27", &sharded),
        ("e27b", &sharded),
        ("e27c", &sharded),
    ];
    let mut over = Vec::new();
    for (id, ctx) in scenarios {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let table = run(id, ctx);
        let peak = PEAK.load(Ordering::Relaxed) - base;
        drop(table);
        println!("{id}: heap high-water {:.1} MiB", peak as f64 / f64::from(1 << 20));
        if peak >= CEILING_BYTES {
            over.push(format!("{id}: {peak} bytes"));
        }
    }
    assert!(over.is_empty(), "over the {CEILING_BYTES}-byte ceiling: {over:?}");
}
