//! Sharded conservative-parallel execution: one simulated Nectar,
//! all cores, bit-identical results.
//!
//! The Nectar-net is parallel in space: HUB clusters are joined by
//! fibers whose minimum latency — [`HubConfig::lookahead`] —
//! lower-bounds how soon one cluster can affect another.
//! [`ShardedWorld`] exploits that bound with a bounded-lag / YAWNS
//! window protocol: the topology is partitioned into shards
//! (each HUB with its attached CABs, in configurable contiguous
//! groups), each shard runs its own [`World`] with its own engine,
//! and all shards meet at one **rendezvous** per window. At
//! rendezvous `k` every shard
//!
//! 1. swaps its non-empty outboxes into its row of the exchange grid
//!    of parity `k & 1`, noting the smallest timestamp it sent,
//! 2. publishes `peek[k & 1] = min(own next event time, smallest
//!    timestamp sent)` and then `epoch = k + 1` in its own
//!    cache-line-aligned slot,
//! 3. waits until every peer's `epoch > k`,
//! 4. drains its column of the parity-`k & 1` grid into its engine,
//!    and
//! 5. leaves with `Budget` if the epoch's window budget is spent —
//!    everything sent is ingested at that point, so the streaming
//!    fold's finality boundary is exact — else takes `T`, the
//!    minimum over every shard's `peek[k & 1]`, leaves with `Done(T)`
//!    when `T` is past the deadline or nothing is pending anywhere,
//!    and otherwise executes every local event in `[T, T + lookahead)`,
//!    collecting cross-shard fiber traffic into per-destination
//!    outboxes (every such event lands at `>= T + lookahead` — that
//!    is what lookahead means).
//!
//! **Why `peek` carries the sender-side minimum.** `T` must be the
//! earliest pending event anywhere, including events still in flight
//! between shards. The receiver cannot know those before it drains
//! them, but the sender does: folding the smallest sent timestamp
//! into the sender's `peek` accounts for every in-flight event exactly
//! once, so the minimum over all `peek`s equals the minimum next event
//! time *after* ingestion — without a second rendezvous to re-read it.
//! Window boundaries are therefore the same as if every shard peeked
//! only after the exchange had completed.
//!
//! **Why two parities suffice.** A shard writes the parity-`k & 1`
//! cells and `peek[k & 1]` at rendezvous `k` and next at rendezvous
//! `k + 2`. To get there it must pass the wait of rendezvous `k + 1`,
//! which needs every peer's `epoch > k + 1` — and a peer publishes
//! `epoch = k + 2` only at step 2 of rendezvous `k + 1`, after it has
//! finished steps 3–5 of rendezvous `k`: its drain of the parity-`k & 1`
//! column and its read of every `peek[k & 1]`. So no shard is ever
//! more than one rendezvous ahead of the slowest reader of its slot
//! and cells, a writer of parity `p` never overlaps a reader of parity
//! `p`, and a waiter may see a peer's epoch at `k + 2` but never
//! beyond (hence `> k`, not `== k + 1`). One parity would not do: a
//! shard that passed the wait of rendezvous `k` could publish
//! rendezvous `k + 1` while a slower peer is still reading `k`'s
//! values.
//!
//! The exchange is **batched**: each window moves whole
//! per-destination vectors through a lock-uncontended N×N slot grid
//! (one buffer swap per non-empty source→destination pair, zero
//! allocation in steady state) instead of pushing events one at a
//! time through shared mutexes. The rendezvous has no shared counter:
//! a shard writes only its own slot and reads its peers' slots, so
//! the cost of a crossing is one cache-line transfer per peer. The
//! wait backs off in three stages — spin, yield, park — and accounts
//! the nanoseconds every shard spends waiting, so `nectar-doctor` and
//! `report --scaling` can attribute synchronization overhead
//! precisely.
//!
//! Determinism is non-negotiable and does not come from the window
//! protocol alone: it comes from **keyed event ordering**. Every
//! event carries a tie-break key derived from its source component
//! and a per-source counter (see `Engine::schedule_at_keyed`), so
//! same-instant events pop in an order intrinsic to the simulated
//! system rather than to scheduling history. The sequential [`World`]
//! uses the same keys, which is why `ShardedWorld` with any shard
//! count produces bit-identical metrics, invariant verdicts, and
//! (canonically sorted) telemetry to a plain sequential run.
//!
//! The partition is fixed at construction ([`ShardPlan::contiguous`]);
//! that choice is safe to revisit, because *any* partition of the
//! components replays the identical `(time, key)` event order.
//!
//! [`HubConfig::lookahead`]: nectar_hub::config::HubConfig::lookahead

use crate::topology::Topology;
use crate::world::{
    join_flights, AppSend, Delivery, Ev, PoolStats, QuiescenceOutcome, StreamState, SystemConfig,
    World,
};
use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::chaos::ChaosSchedule;
use nectar_sim::metrics::{Histogram, MetricsRegistry};
use nectar_sim::profile::{self, AnalyzeCtx, HostProfile, Phase, ProfileAnalysis, Profiler};
use nectar_sim::telemetry::TelemetryEvent;
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::WorkloadSpec;
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Maps every HUB (and, through its attachment, every CAB) to a
/// shard. Shards are contiguous HUB ranges: HUB indices produced by
/// the [`Topology`] constructors place topologically close clusters
/// at adjacent indices, so contiguous blocks keep most fiber edges
/// internal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shard_of_hub: Vec<usize>,
    shards: usize,
}

impl ShardPlan {
    /// Partitions `topo`'s HUBs into `shards` contiguous blocks of
    /// near-equal size. The shard count is clamped to `1..=hub_count`
    /// — more shards than HUBs cannot help, since a HUB is the unit
    /// of ownership (a CAB always lives with its attachment HUB, so
    /// CAB-HUB edges are never cross-shard).
    pub fn contiguous(topo: &Topology, shards: usize) -> ShardPlan {
        let hubs = topo.hub_count();
        let shards = shards.clamp(1, hubs);
        let shard_of_hub = (0..hubs).map(|h| h * shards / hubs).collect();
        ShardPlan { shard_of_hub, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning HUB `hub`.
    pub fn shard_of_hub(&self, hub: usize) -> usize {
        self.shard_of_hub[hub]
    }

    /// The shard owning CAB `cab` (its attachment HUB's shard).
    pub fn shard_of_cab(&self, topo: &Topology, cab: usize) -> usize {
        self.shard_of_hub[topo.cab_attachment(cab).0]
    }
}

/// Per-shard routing context carried by a shard's [`World`]: where
/// every HUB lives, which shard this world is, and the per-destination
/// outbox filled during a window and exchanged at the next rendezvous.
pub(crate) struct ShardCtx {
    pub(crate) plan: Arc<ShardPlan>,
    pub(crate) id: usize,
    pub(crate) outbox: Vec<Vec<(Time, u64, Ev)>>,
}

/// Spin iterations before the first yield. Windows are around a
/// microsecond when shards hold their own cores, so the fast path must
/// resolve in the spin stage; 2^14 pause-loop iterations is some
/// hundreds of microseconds (about 35 ns each on the development
/// host) — past any healthy window, so reaching yield means a
/// genuinely stalled peer (page fault, preemption), not an ordinary
/// imbalance.
const SPIN_LIMIT: u32 = 1 << 14;

/// Yields between the spin stage and parking. Each yield donates the
/// timeslice; a peer that still hasn't arrived after these is blocked
/// on something long enough that a condvar park (microseconds to wake)
/// no longer dominates.
const YIELD_LIMIT: u32 = 64;

/// Host cores available to this process (affinity-aware). A syscall
/// and some cgroup file reads on Linux: ask once, not per `drive()`.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One shard's publication slot, alone on its cache lines (128 bytes
/// covers the adjacent-line prefetcher too): written only by its
/// owner, read by every peer, so a rendezvous costs one line transfer
/// per peer and no line is ever contended between writers.
#[repr(align(128))]
struct Slot {
    /// Rendezvous this shard has published: `k + 1` once its cells and
    /// `peek[k & 1]` for rendezvous `k` are in place. The `Release`
    /// store pairs with the peers' `Acquire` loads in
    /// [`Rendezvous::arrived`]; `peek` and the grid cells ride on that
    /// pair.
    epoch: AtomicU64,
    /// `min(own next event time, smallest timestamp sent)` per parity,
    /// `u64::MAX` for "nothing".
    peek: [AtomicU64; 2],
}

/// The per-window meeting point: per-shard [`Slot`]s instead of a
/// shared arrival counter, with a three-stage wait — spin, then yield,
/// then park on a condvar — that reports how long each waiter waited.
///
/// When every shard holds a core, waiters resolve in the spin stage.
/// When shards outnumber cores, spinning burns the timeslice the
/// *arriving* thread needs, so the spin stage is skipped entirely
/// (`spin_limit == 0`) and waiters yield briefly, then park. The
/// returned wait time feeds the `barrier_wait_ns` runtime counters —
/// the number `report --scaling` and `nectar-doctor` use to attribute
/// synchronization overhead.
struct Rendezvous {
    slots: Vec<Slot>,
    spin_limit: u32,
    /// Waiters currently in (or entering) the park stage. A publisher
    /// touches `lock`/`cv` only when this is nonzero.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Rendezvous {
    fn new(n: usize, cores: usize) -> Rendezvous {
        let slots = (0..n)
            .map(|_| Slot {
                epoch: AtomicU64::new(0),
                peek: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
            })
            .collect();
        Rendezvous {
            slots,
            spin_limit: if n <= cores { SPIN_LIMIT } else { 0 },
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Publishes shard `me`'s arrival at rendezvous `k` with its
    /// `peek`, and wakes parked waiters if there are any.
    fn publish(&self, me: usize, k: u64, peek: u64) {
        let slot = &self.slots[me];
        slot.peek[(k & 1) as usize].store(peek, Ordering::Relaxed);
        slot.epoch.store(k + 1, Ordering::Release);
        // Store-then-load against `park`'s register-then-check: the
        // two SeqCst fences guarantee that either this load sees the
        // registration, or the waiter's check sees the epoch.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) > 0 {
            // Taking the lock orders this wake-up after any check a
            // registered waiter made before it started waiting.
            drop(self.lock.lock().expect("no panics hold this lock"));
            self.cv.notify_all();
        }
    }

    /// Whether every peer of `me` has published rendezvous `k`. A peer
    /// can be one rendezvous ahead, never more, hence `>`.
    fn arrived(&self, me: usize, k: u64) -> bool {
        self.slots
            .iter()
            .enumerate()
            .all(|(j, slot)| j == me || slot.epoch.load(Ordering::Acquire) > k)
    }

    /// Waits until every peer has published rendezvous `k`; returns
    /// the nanoseconds this caller spent waiting (0, without reading
    /// the clock, when everyone was already there).
    fn wait(&self, me: usize, k: u64) -> u64 {
        if self.arrived(me, k) {
            return 0;
        }
        let start = Instant::now();
        let mut tries = 0u32;
        loop {
            tries += 1;
            if tries <= self.spin_limit {
                std::hint::spin_loop();
            } else if tries <= self.spin_limit + YIELD_LIMIT {
                std::thread::yield_now();
            } else {
                self.park(me, k);
                break;
            }
            if self.arrived(me, k) {
                break;
            }
        }
        start.elapsed().as_nanos() as u64
    }

    /// The park stage: registers as parked, then sleeps on the condvar
    /// until every peer has published rendezvous `k`.
    fn park(&self, me: usize, k: u64) {
        self.parked.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let mut guard = self.lock.lock().expect("no panics hold this lock");
        while !self.arrived(me, k) {
            guard = self.cv.wait(guard).expect("no panics hold this lock");
        }
        drop(guard);
        self.parked.fetch_sub(1, Ordering::Relaxed);
    }

    /// The global minimum pending event time `T` for rendezvous `k`.
    /// Call only after [`wait`](Rendezvous::wait) returned for `k`:
    /// its `Acquire` loads make every peer's `peek[k & 1]` visible,
    /// and no peer rewrites that parity before this shard publishes
    /// rendezvous `k + 1`.
    fn min_peek(&self, k: u64) -> u64 {
        self.slots
            .iter()
            .map(|slot| slot.peek[(k & 1) as usize].load(Ordering::Relaxed))
            .min()
            .expect("at least one shard")
    }
}

/// Wall time for `shards` threads to cross `crossings` consecutive
/// rendezvous with nothing in between: the floor under the per-window
/// price, for `barrier_bench` to keep in the ledger next to the real
/// thing.
pub fn rendezvous_ping(shards: usize, crossings: u64) -> std::time::Duration {
    let rendezvous = &Rendezvous::new(shards, host_cores());
    let start = Instant::now();
    std::thread::scope(|s| {
        for me in 0..shards {
            s.spawn(move || {
                for k in 0..crossings {
                    rendezvous.publish(me, k, k);
                    rendezvous.wait(me, k);
                    std::hint::black_box(rendezvous.min_peek(k));
                }
            });
        }
    });
    start.elapsed()
}

/// One cell of the batched exchange grid: the window's event batch
/// from one source shard to one destination shard.
///
/// The mutex is never contended — the rendezvous separates the
/// producer (source `i` touches only row `i`, before it publishes
/// rendezvous `k`) from the consumer (destination `d` touches only
/// column `d`, after its wait for `k` returned), and the two grids
/// alternate by parity so the producer's next fill never meets a
/// consumer still draining — it exists to keep the grid in safe Rust.
/// The `filled` flag spares the consumer a lock acquisition per empty
/// cell, which is most cells: cross-shard traffic is sparse by
/// construction (topology-local workloads are the whole point of the
/// partition).
struct ExchangeCell {
    filled: AtomicBool,
    batch: Mutex<Vec<(Time, u64, Ev)>>,
}

/// The N×N grid of [`ExchangeCell`]s. Buffer capacities ping-pong
/// between each world's outbox and its row's cells (a swap moves a
/// full buffer in and an empty-but-warm buffer back), so the steady
/// state allocates nothing and copies events exactly once — from the
/// producer's buffer into the consumer's engine.
struct ExchangeGrid {
    n: usize,
    cells: Vec<ExchangeCell>,
}

impl ExchangeGrid {
    fn new(n: usize) -> ExchangeGrid {
        let cells = (0..n * n)
            .map(|_| ExchangeCell { filled: AtomicBool::new(false), batch: Mutex::new(Vec::new()) })
            .collect();
        ExchangeGrid { n, cells }
    }

    fn cell(&self, src: usize, dst: usize) -> &ExchangeCell {
        &self.cells[src * self.n + dst]
    }
}

/// How one shard's epoch ended.
#[derive(Clone, Copy, Debug)]
enum EpochExit {
    /// The global minimum event time: `u64::MAX` (quiescent) or past
    /// the deadline. Every shard computes the same value.
    Done(u64),
    /// The epoch's window budget ran out — the main thread gets
    /// single-threaded access for a streaming fold.
    Budget,
}

/// One shard worker's accounting for one epoch.
struct EpochResult {
    events: u64,
    windows: u64,
    wait_ns: u64,
    exchanged: u64,
    exit: EpochExit,
}

/// Wall-clock/runtime counters for the parallel runner itself. Kept
/// strictly apart from [`ShardedWorld::metrics`]: the simulated
/// registry is bit-compared against sequential runs, and barrier wait
/// times are properties of the host, not of the simulated system.
#[derive(Clone, Debug, Default)]
struct RuntimeStats {
    windows: u64,
    barrier_wait_ns: Vec<u64>,
    exchanged_events: Vec<u64>,
}

/// A [`World`] partitioned across OS threads, with the same API
/// surface and — by construction — the same observable results.
///
/// # Examples
///
/// ```
/// use nectar_core::prelude::*;
/// use nectar_sim::time::Time;
/// use std::sync::Arc;
///
/// let topo = Topology::fat_star(4, 2, 16);
/// let mut seq = World::new(topo.clone(), SystemConfig::default());
/// let mut par = ShardedWorld::new(topo, SystemConfig::default(), 4);
/// for _ in 0..2 {
///     let payload: Arc<[u8]> = vec![7u8; 600].into();
///     let send = AppSend::Stream { dst: 1, src_mailbox: 1, dst_mailbox: 9, data: payload };
///     seq.schedule_send(Time::from_micros(5), 0, send.clone());
///     par.schedule_send(Time::from_micros(5), 0, send);
/// }
/// seq.run_to_quiescence(Time::from_millis(50));
/// par.run_to_quiescence(Time::from_millis(50));
/// assert_eq!(seq.metrics().to_json(), par.metrics().to_json());
/// ```
pub struct ShardedWorld {
    topo: Topology,
    plan: Arc<ShardPlan>,
    worlds: Vec<World>,
    /// Window width: `HubConfig::lookahead()`.
    lookahead: Dur,
    /// Streaming fold state for multi-shard runs (the 1-shard path
    /// delegates to `worlds[0]`'s own drain-per-step streaming).
    stream: Option<Box<ShardStream>>,
    runtime: RuntimeStats,
    /// Host-time span rings, one per shard worker plus one for the
    /// main thread (telemetry drain / stream fold).
    /// Disabled by default: each scope edge in the worker loop is then
    /// a single branch, preserving the profiler-off wall time.
    profs: Vec<Profiler>,
    /// Host cores available, read once at construction: decides
    /// whether waiters spin, and tells the scaling doctor whether the
    /// run was oversubscribed.
    cores: usize,
}

/// The [`StreamingDoctor`] and its scratch buffers when streaming is
/// attached to a multi-shard world: every shard's rings drain into one
/// fold on the main thread at epoch boundaries, where the global
/// minimum next-event time bounds which events are final.
struct ShardStream {
    /// The fold; its `pending` holds events stamped at or after the
    /// global minimum next event time.
    state: StreamState,
    /// Epoch budget cap in windows: folds must happen often enough
    /// that no per-shard ring fills between them.
    cadence: u64,
}

/// Epoch cap (in windows) for a given smallest ring capacity: drain
/// well before even a dense window sequence could fill a ring.
fn stream_cadence(min_capacity: usize) -> u64 {
    (min_capacity as u64 / 64).clamp(4, 256)
}

impl ShardedWorld {
    /// Partitions `topo` into `shards` shards (clamped to the HUB
    /// count) and builds one engine per shard. `shards == 1` behaves
    /// exactly like — and runs as fast as — a sequential [`World`].
    pub fn new(topo: Topology, cfg: SystemConfig, shards: usize) -> ShardedWorld {
        let plan = Arc::new(ShardPlan::contiguous(&topo, shards));
        let lookahead = cfg.hub.lookahead();
        let worlds: Vec<World> = (0..plan.shards())
            .map(|i| World::new_shard(topo.clone(), cfg.clone(), Arc::clone(&plan), i))
            .collect();
        let n = worlds.len();
        ShardedWorld {
            topo,
            plan,
            worlds,
            lookahead,
            stream: None,
            runtime: RuntimeStats {
                barrier_wait_ns: vec![0; n],
                exchanged_events: vec![0; n],
                ..RuntimeStats::default()
            },
            profs: (0..=n).map(|_| Profiler::disabled()).collect(),
            cores: host_cores(),
        }
    }

    /// Number of shards actually running.
    pub fn shards(&self) -> usize {
        self.worlds.len()
    }

    /// The topology this world runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn shard_of_cab(&self, cab: usize) -> usize {
        self.plan.shard_of_cab(&self.topo, cab)
    }

    /// Switches on the flight recorder in every shard (see
    /// [`World::enable_observability`]).
    pub fn enable_observability(&mut self) {
        for w in &mut self.worlds {
            w.enable_observability();
        }
    }

    /// Switches on the host-time profiler: every shard worker records
    /// phase spans (step, outbox fill, exchange drain, barrier wait)
    /// and the main thread records drain/fold spans. Host
    /// time never feeds the simulated metrics, so results stay
    /// bit-identical with the profiler on or off.
    pub fn enable_profiling(&mut self) {
        for p in &mut self.profs {
            p.set_enabled(true);
        }
    }

    /// Whether host-time spans are being recorded.
    fn profiling_enabled(&self) -> bool {
        self.profs[0].is_enabled()
    }

    /// The collected host-time profile (one track per shard worker,
    /// one for the main thread), or `None` when profiling is off.
    pub fn host_profile(&self) -> Option<HostProfile> {
        if !self.profiling_enabled() {
            return None;
        }
        Some(HostProfile::collect(self.worlds.len(), &self.profs))
    }

    /// Per-HUB simulated-time load attribution summed across shards
    /// (only the owning shard contributes nonzero weight): the input
    /// the scaling doctor uses to *name* the hot cluster behind a
    /// load-imbalance verdict.
    fn cluster_weights(&self) -> Vec<u64> {
        (0..self.topo.hub_count())
            .map(|h| self.worlds.iter().map(|w| w.cluster_weight(h)).sum())
            .collect()
    }

    /// Runs the scaling doctor over the collected profile: phase
    /// breakdown per shard, straggler attribution, parallel
    /// efficiency, Karp–Flatt serial fraction, and ranked verdicts.
    /// `None` when profiling is off.
    pub fn profile_analysis(&self) -> Option<ProfileAnalysis> {
        let hp = self.host_profile()?;
        let ctx = AnalyzeCtx {
            cores: self.cores,
            cluster_weights: self.cluster_weights(),
            shard_of_hub: (0..self.topo.hub_count()).map(|h| self.plan.shard_of_hub(h)).collect(),
        };
        Some(profile::analyze(&hp, &ctx))
    }

    /// Installs the same chaos schedule in every shard. Clause RNG
    /// streams are per-(clause, component), and each component's
    /// arrivals happen in exactly one shard, so the compiled
    /// injectors collectively consume the same draws as a sequential
    /// run's single injector.
    pub fn set_chaos(&mut self, schedule: ChaosSchedule) {
        for w in &mut self.worlds {
            w.set_chaos(schedule.clone());
        }
    }

    /// Installs the same workload program in every shard. Each shard
    /// seeds initial events only for the CABs it owns, and generator
    /// RNG streams are per-(class, CAB) — each CAB's draws happen in
    /// exactly one shard — so the shards collectively offer the same
    /// traffic, in the same `(time, key)` order, as a sequential run.
    pub fn set_workload(&mut self, spec: &WorkloadSpec) -> Result<(), String> {
        for w in &mut self.worlds {
            w.set_workload(spec)?;
        }
        Ok(())
    }

    /// Schedules an application send on the shard owning `cab`.
    pub fn schedule_send(&mut self, at: Time, cab: usize, send: AppSend) {
        let s = self.shard_of_cab(cab);
        self.worlds[s].schedule_send(at, cab, send);
    }

    /// Attaches a [`StreamingDoctor`]; mirrors
    /// [`World::attach_streaming`]. With one shard the world streams
    /// for itself (drain cadence in engine events); with several, the
    /// main thread drains every shard's rings at epoch boundaries and
    /// folds the events below the global minimum next-event time —
    /// those are final in *every* shard, because cross-shard traffic
    /// can only land a full lookahead later. The fold reads nothing
    /// from how a batch is ordered or where the batches were cut, so
    /// the verdict is bit-identical to a sequential streaming run.
    pub fn attach_streaming(&mut self, cfg: StreamConfig) {
        if self.worlds.len() == 1 {
            self.worlds[0].attach_streaming(cfg);
            return;
        }
        self.enable_observability();
        for w in &mut self.worlds {
            w.enable_telemetry_spill();
        }
        let min_cap =
            self.worlds.iter().map(|w| w.min_telemetry_capacity()).min().unwrap_or(usize::MAX);
        self.stream = Some(Box::new(ShardStream {
            state: StreamState::new(cfg),
            cadence: stream_cadence(min_cap),
        }));
    }

    /// Resizes every shard's telemetry rings (see
    /// [`World::set_telemetry_capacity`]) and retunes the streaming
    /// fold cadence to the new bound.
    pub fn set_telemetry_capacity(&mut self, capacity: usize) {
        for w in &mut self.worlds {
            w.set_telemetry_capacity(capacity);
        }
        if let Some(st) = &mut self.stream {
            st.cadence = stream_cadence(capacity);
        }
    }

    /// Detaches the streaming doctor after folding everything still
    /// pending in any shard's rings; mirrors
    /// [`World::finish_streaming`].
    pub fn finish_streaming(&mut self) -> Option<StreamingDoctor> {
        if self.worlds.len() == 1 {
            return self.worlds[0].finish_streaming();
        }
        self.stream.as_ref()?;
        self.stream_fold(true);
        let mut st = self.stream.take()?.state;
        let (hwm, dropped) = self.telemetry_pressure();
        st.doctor.note_ring(hwm, dropped);
        Some(st.doctor)
    }

    /// Capture pressure across all shards: highest single-ring
    /// occupancy ever reached, and total events lost to overflow.
    pub fn telemetry_pressure(&self) -> (u64, u64) {
        let mut hwm = 0u64;
        let mut dropped = 0u64;
        for w in &self.worlds {
            let (h, d) = w.telemetry_pressure();
            hwm = hwm.max(h);
            dropped += d;
        }
        (hwm, dropped)
    }

    /// Drains every shard's rings and folds all **final** events:
    /// those stamped strictly before the global minimum next-event
    /// time. No shard can still record an earlier event — record
    /// sites stamp at-or-after their processing instant, and
    /// cross-shard arrivals land at least a lookahead past the
    /// window floor. With `finish` everything pending folds.
    fn stream_fold(&mut self, finish: bool) {
        let Some(mut st) = self.stream.take() else { return };
        let main = self.worlds.len();
        let window = self.runtime.windows;
        let t0 = self.profs[main].begin();
        for w in &mut self.worlds {
            w.take_spill(&mut st.state.batch);
        }
        let boundary = if finish {
            None
        } else {
            self.worlds.iter().filter_map(|w| w.next_event_time()).min()
        };
        st.state.settle(boundary);
        self.profs[main].end(Phase::TelemetryDrain, window, t0);
        let t0 = self.profs[main].begin();
        st.state.doctor.ingest(&mut st.state.batch);
        self.profs[main].end(Phase::StreamFold, window, t0);
        self.stream = Some(st);
    }

    /// Runs the window protocol until every shard's queue drains or
    /// the global clock would pass `deadline`; mirrors
    /// [`World::run_to_quiescence`] including final clock position.
    pub fn run_to_quiescence(&mut self, deadline: Time) -> (u64, QuiescenceOutcome) {
        let (n, outcome) = self.drive(deadline);
        // A HUB's last act may be a refused controller attempt, which
        // has no event (see `World::run_to_quiescence`).
        let end = self.worlds.iter().map(World::last_command_at).fold(self.now(), Time::max);
        let outcome = match outcome {
            QuiescenceOutcome::Quiescent if end > deadline => QuiescenceOutcome::DeadlineReached,
            outcome => outcome,
        };
        self.settle_clocks(match outcome {
            QuiescenceOutcome::Quiescent => end,
            QuiescenceOutcome::DeadlineReached => deadline,
        });
        (n, outcome)
    }

    /// Runs until quiet or past `deadline`, then advances every shard
    /// clock to `deadline`; mirrors [`World::run_until`].
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let (n, _) = self.drive(deadline);
        self.settle_clocks(deadline);
        n
    }

    /// Ends a run with every shard clock on the same instant.
    fn settle_clocks(&mut self, t: Time) {
        for w in &mut self.worlds {
            w.advance_clock(t);
        }
    }

    /// Window budget for the next epoch: how many windows the workers
    /// may run before handing the main thread a drain-and-fold
    /// opportunity — the stream cadence, else unbounded.
    fn epoch_budget(&self) -> u64 {
        self.stream.as_ref().map_or(u64::MAX, |st| st.cadence)
    }

    /// The one driver: the threaded YAWNS loop, or with a single shard
    /// one inline window. On return every shard has processed exactly
    /// the events a sequential run would process up to `deadline`
    /// (inclusive); clocks are *not* yet normalized.
    ///
    /// Structured as a sequence of epochs: worker threads run the
    /// window protocol for at most [`epoch_budget`] windows, then
    /// join, giving the main thread single-threaded access to every
    /// shard world for a streaming fold; fresh workers then continue
    /// at the next rendezvous index. An epoch always ends right after
    /// an exchange (see the module doc), so no event is in flight
    /// while the main thread folds. Without streaming the budget is
    /// unbounded and exactly one epoch runs.
    ///
    /// [`epoch_budget`]: ShardedWorld::epoch_budget
    fn drive(&mut self, deadline: Time) -> (u64, QuiescenceOutcome) {
        let n = self.worlds.len();
        let lookahead = self.lookahead.nanos().max(1);
        let deadline_ns = deadline.nanos();
        // Window-end cap: events AT the deadline still run (sequential
        // semantics), anything later stays queued.
        let cap = deadline_ns.saturating_add(1);
        if n == 1 {
            // No window protocol with one shard: the whole run is one
            // window and one step span, so 1-shard profiles still carry
            // the wall time the speedup curve's reference point needs.
            let t0 = self.profs[0].begin();
            let events = self.worlds[0].run_window(Time::from_nanos(cap));
            self.profs[0].end(Phase::Step, 0, t0);
            let outcome = match self.worlds[0].next_event_time() {
                None => QuiescenceOutcome::Quiescent,
                Some(_) => QuiescenceOutcome::DeadlineReached,
            };
            return (events, outcome);
        }
        let rendezvous = Rendezvous::new(n, self.cores);
        let grids = [ExchangeGrid::new(n), ExchangeGrid::new(n)];
        let (rendezvous, grids) = (&rendezvous, &grids);
        // Index of the next rendezvous; runs on across epochs so the
        // parities keep alternating.
        let mut next_rendezvous = 0u64;
        let mut total_events = 0u64;
        let streaming = self.stream.is_some();
        loop {
            let budget = self.epoch_budget();
            // Worker-side spill buffers: each worker drains its own
            // shard's telemetry rings here every window, so ring
            // pressure never depends on the epoch fold cadence.
            let mut spills: Vec<Vec<TelemetryEvent>> = (0..n).map(|_| Vec::new()).collect();
            // Global index of this epoch's first window, so spans from
            // successive epochs number windows continuously.
            let base = self.runtime.windows;
            let mut results: Vec<EpochResult> = Vec::with_capacity(n);
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .worlds
                    .iter_mut()
                    .zip(self.profs.iter_mut())
                    .zip(spills.iter_mut())
                    .enumerate()
                    .map(|(i, ((world, prof), spill))| {
                        s.spawn(move || {
                            let mut res = EpochResult {
                                events: 0,
                                windows: 0,
                                wait_ns: 0,
                                exchanged: 0,
                                exit: EpochExit::Budget,
                            };
                            // Each span opens where the previous one
                            // closed: the profiler reads the clock three
                            // times a window (four when streaming).
                            let mut t0 = prof.begin();
                            loop {
                                // A window's spans are its rendezvous
                                // (fill, wait, drain) and then its step.
                                let win = base + res.windows;
                                let k = next_rendezvous + res.windows;
                                let grid = &grids[(k & 1) as usize];
                                // Producer: swap every non-empty outbox
                                // into this shard's row of the grid. The
                                // swapped-in buffer is the (empty, warm)
                                // one the consumer left behind two
                                // rendezvous ago.
                                let mut sent_min = u64::MAX;
                                for dst in 0..n {
                                    if dst != i && world.outbox_filled(dst) {
                                        let cell = grid.cell(i, dst);
                                        let mut batch =
                                            cell.batch.lock().expect("no panics hold this lock");
                                        world.swap_outbox(dst, &mut batch);
                                        res.exchanged += batch.len() as u64;
                                        for (at, _, _) in batch.iter() {
                                            sent_min = sent_min.min(at.nanos());
                                        }
                                        drop(batch);
                                        cell.filled.store(true, Ordering::Release);
                                    }
                                }
                                let own = world.next_event_time().map_or(u64::MAX, |t| t.nanos());
                                rendezvous.publish(i, k, own.min(sent_min));
                                // The fill span ends with the publish, so
                                // the wait starts where it closed.
                                let filled = prof.end(Phase::OutboxFill, win, t0);
                                // The span takes the rendezvous's own
                                // measured wait, so profile barrier time
                                // and `runner.barrier_wait_ns` agree
                                // exactly.
                                let waited = rendezvous.wait(i, k);
                                prof.end_with(Phase::BarrierWait, win, filled, waited);
                                res.wait_ns += waited;
                                // Consumer: drain this shard's column,
                                // capacities staying in the cells for
                                // the producer's next swap.
                                let drained = filled + waited;
                                for src in 0..n {
                                    let cell = grid.cell(src, i);
                                    if src != i && cell.filled.load(Ordering::Acquire) {
                                        cell.filled.store(false, Ordering::Relaxed);
                                        let mut batch =
                                            cell.batch.lock().expect("no panics hold this lock");
                                        world.ingest_drain(&mut batch);
                                    }
                                }
                                let stepping = prof.end(Phase::ExchangeDrain, win, drained);
                                if res.windows >= budget {
                                    return res;
                                }
                                // Every worker reads the same `peek`s
                                // (none is rewritten before its reader
                                // publishes again), so every worker
                                // computes the same T and the loop
                                // exits in lockstep.
                                let t = rendezvous.min_peek(k);
                                if t == u64::MAX || t > deadline_ns {
                                    res.exit = EpochExit::Done(t);
                                    return res;
                                }
                                let end = Time::from_nanos(t.saturating_add(lookahead).min(cap));
                                res.events += world.run_window(end);
                                t0 = prof.end(Phase::Step, win, stepping);
                                if streaming {
                                    // Collect the in-window spill (see
                                    // `World::telemetry_tick`) plus ring
                                    // residue from the worker, so ring
                                    // pressure never depends on the
                                    // epoch fold cadence. Folding still
                                    // happens only at epoch boundaries,
                                    // below the finality watermark.
                                    world.take_spill(spill);
                                    t0 = prof.end(Phase::TelemetryDrain, win, t0);
                                }
                                res.windows += 1;
                            }
                        })
                    })
                    .collect();
                results =
                    handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect();
            });
            debug_assert!(
                self.worlds.iter().all(|w| (0..n).all(|dst| !w.outbox_filled(dst)))
                    && grids
                        .iter()
                        .flat_map(|g| &g.cells)
                        .all(|c| !c.filled.load(Ordering::Relaxed)),
                "an epoch ends right after an exchange: nothing is in flight between shards"
            );
            if let Some(st) = &mut self.stream {
                for spill in &mut spills {
                    st.state.batch.append(spill);
                }
            }
            total_events += results.iter().map(|r| r.events).sum::<u64>();
            self.runtime.windows += results[0].windows;
            // One rendezvous before each window and one to leave on.
            next_rendezvous += results[0].windows + 1;
            for (i, r) in results.iter().enumerate() {
                debug_assert_eq!(r.windows, results[0].windows, "shards ran lockstep windows");
                self.runtime.barrier_wait_ns[i] += r.wait_ns;
                self.runtime.exchanged_events[i] += r.exchanged;
            }
            // Fold what's final so rings stay empty between epochs and
            // between drive() calls; at quiescence every shard peek is
            // None and everything folds.
            self.stream_fold(false);
            if let EpochExit::Done(t) = results[0].exit {
                let outcome = if t == u64::MAX {
                    QuiescenceOutcome::Quiescent
                } else {
                    QuiescenceOutcome::DeadlineReached
                };
                return (total_events, outcome);
            }
        }
    }

    // ---------------------------------------------------------------
    // Merged observations
    // ---------------------------------------------------------------

    /// Current simulation time (identical across shards after a run).
    pub fn now(&self) -> Time {
        self.worlds.iter().map(|w| w.now()).max().unwrap_or(Time::ZERO)
    }

    /// Total events processed across all shards. Every event runs in
    /// exactly one shard and the window protocol adds none, so this
    /// equals the sequential count.
    pub fn events_processed(&self) -> u64 {
        self.worlds.iter().map(|w| w.events_processed()).sum()
    }

    /// Packets destroyed by fault injection, across shards.
    pub fn faults_injected(&self) -> u64 {
        self.worlds.iter().map(|w| w.faults_injected).sum()
    }

    /// Merged metrics: counters sum, gauges max, histograms merge —
    /// and the flight-latency join runs over the union of all shards'
    /// birth/end maps, since multicast flights can be born in one
    /// shard and delivered in another. Non-owned components in each
    /// shard contribute exact zeros, so the merge reproduces the
    /// sequential registry bit-for-bit.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let mut births: HashMap<u64, Time> = HashMap::new();
        let mut ends: HashMap<u64, Time> = HashMap::new();
        for w in &self.worlds {
            reg.merge(&w.metrics_without_flights());
            let (b, e) = w.flight_times();
            births.extend(b);
            for (id, at) in e {
                let slot = ends.entry(*id).or_insert(*at);
                if at < slot {
                    *slot = *at;
                }
            }
        }
        let mut flights = Histogram::new();
        join_flights(&births, &ends, &mut flights);
        if !flights.is_empty() {
            reg.merge_histogram("latency.flight_ns", &flights);
        }
        reg
    }

    /// Counters about the parallel runner itself: total windows, and
    /// per-shard barrier wait time and exchanged cross-shard event
    /// counts — plus `engine.events_by_kind.*`, the shards'
    /// [`World::runtime_metrics`] summed.
    ///
    /// Deliberately **not** part of [`metrics`](ShardedWorld::metrics):
    /// that registry is bit-compared against sequential runs (and
    /// across shard counts) in tests and CI, while barrier wait is a
    /// property of the host scheduler, not of the simulated system.
    /// Window and exchange counts *are* deterministic for a fixed
    /// shard count, but they describe the runner, so they live here
    /// too.
    pub fn runtime_metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("runner.windows", self.runtime.windows);
        reg.counter_add("runner.barrier_wait_ns", self.runtime.barrier_wait_ns.iter().sum::<u64>());
        reg.counter_add(
            "runner.exchanged_events",
            self.runtime.exchanged_events.iter().sum::<u64>(),
        );
        for i in 0..self.worlds.len() {
            reg.counter_add(
                &format!("runner.shard{i}.barrier_wait_ns"),
                self.runtime.barrier_wait_ns[i],
            );
            reg.counter_add(
                &format!("runner.shard{i}.exchanged_events"),
                self.runtime.exchanged_events[i],
            );
        }
        // Each event is dispatched by exactly one shard, so the per-kind
        // counts sum to the sequential run's.
        for world in &self.worlds {
            reg.merge(&world.runtime_metrics());
        }
        reg
    }

    /// [`World::results_digest`] over the merged metrics and the
    /// deliveries of every shard: equal to the sequential run's.
    pub fn results_digest(&self) -> u64 {
        crate::digest::results(&self.metrics(), &self.deliveries(), self.now())
    }

    /// [`World::event_digest`] over the events of every shard: equal to
    /// the sequential run's.
    pub fn event_digest(&self) -> u64 {
        crate::digest::events(self.events_processed(), &self.runtime_metrics())
    }

    /// Every recorded telemetry event across all shards, in the
    /// canonical order (see [`canonical_telemetry_sort`]).
    pub fn telemetry_events(&self) -> Vec<TelemetryEvent> {
        let mut all: Vec<TelemetryEvent> =
            self.worlds.iter().flat_map(|w| w.telemetry_events()).collect();
        canonical_telemetry_sort(&mut all);
        all
    }

    /// Every message delivery across shards, in canonical order
    /// (compare against a sequential run's deliveries sorted with
    /// [`canonical_delivery_sort`]).
    pub fn deliveries(&self) -> Vec<Delivery> {
        let mut all: Vec<Delivery> =
            self.worlds.iter().flat_map(|w| w.deliveries.iter().cloned()).collect();
        canonical_delivery_sort(&mut all);
        all
    }

    /// Sender-side completions across shards: `(cab, msg_id, at)`,
    /// sorted canonically.
    pub fn completions(&self) -> Vec<(usize, u32, Time)> {
        let mut all: Vec<(usize, u32, Time)> =
            self.worlds.iter().flat_map(|w| w.completions.iter().copied()).collect();
        all.sort_unstable_by_key(|&(cab, id, at)| (at, cab, id));
        all
    }

    // ---------------------------------------------------------------
    // Per-component routing (each CAB's state lives in one shard)
    // ---------------------------------------------------------------

    /// Takes the next message out of a mailbox (application receive).
    pub(crate) fn mailbox_take(
        &mut self,
        cab: usize,
        mailbox: u16,
    ) -> Option<nectar_kernel::mailbox::Message> {
        let s = self.shard_of_cab(cab);
        self.worlds[s].mailbox_take(cab, mailbox)
    }

    /// Byte-stream statistics from `src` towards `dst`.
    pub(crate) fn stream_stats(
        &self,
        src: usize,
        dst: usize,
    ) -> Option<nectar_proto::transport::bytestream::ByteStreamStats> {
        self.worlds[self.shard_of_cab(src)].stream_stats(src, dst)
    }

    /// RPC server counters for CAB `idx`.
    pub(crate) fn rpc_server_stats(&self, idx: usize) -> (u64, u64, u64) {
        self.worlds[self.shard_of_cab(idx)].rpc_server_stats(idx)
    }

    /// RPC client counters for CAB `idx`.
    pub fn rpc_client_stats(&self, idx: usize) -> (u64, u64, u64, u64) {
        self.worlds[self.shard_of_cab(idx)].rpc_client_stats(idx)
    }

    /// `true` when every stream has drained and no RPC is pending.
    pub fn transport_quiescent(&self) -> bool {
        self.worlds.iter().all(|w| w.transport_quiescent())
    }

    /// All zero, as [`World::pool_stats`].
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }
}

/// Sorts telemetry into the canonical cross-run comparison order:
/// `(time, flight, packed kind)` — see
/// [`TelemetryEvent::canonical_key`]. Per-shard rings interleave
/// same-instant events from different components differently than one
/// sequential ring does; this order is a total one over the event
/// *content*, so two runs recorded the same events iff the sorted
/// vectors are equal. (The doctors need no such sort: they order
/// events within a flight only, by the `(time, packed kind)` part of
/// this key.)
pub fn canonical_telemetry_sort(events: &mut [TelemetryEvent]) {
    events.sort_unstable_by_key(|e| e.canonical_key());
}

/// Sorts deliveries into the canonical comparison order.
pub fn canonical_delivery_sort(deliveries: &mut [Delivery]) {
    deliveries.sort_by_key(|d| (d.at, d.cab, d.mailbox, d.msg_id, d.len));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_hub::command::Command;
    use nectar_hub::id::{HubId, PortId};
    use nectar_hub::item::Item;
    use std::time::Duration;

    /// The delay the forced straggler adds before each crossing.
    /// Generous so scheduler noise on a loaded CI host cannot flip the
    /// comparisons below, and long enough that a waiter goes through
    /// every stage — spin, yield, park — before the straggler arrives.
    const STRAGGLE: Duration = Duration::from_millis(5);
    const CROSSINGS: u64 = 4;

    /// A prompt shard's crossing `k`: publish, then wait.
    fn cross(rv: &Rendezvous, me: usize, k: u64) -> u64 {
        rv.publish(me, k, u64::MAX);
        rv.wait(me, k)
    }

    /// The straggler's crossing `k`: it publishes only after it has
    /// seen every peer publish (so it is the last publisher by
    /// construction, not by timing) and after a further delay the
    /// peers must sit out.
    fn cross_last(rv: &Rendezvous, me: usize, k: u64) -> u64 {
        while !rv.arrived(me, k) {
            std::thread::yield_now();
        }
        std::thread::sleep(STRAGGLE);
        cross(rv, me, k)
    }

    #[test]
    fn last_arriver_waits_zero_and_waiters_measure_the_gap() {
        // Both regimes: shards <= cores (spin first) and oversubscribed
        // (no spin stage).
        for cores in [2, 1] {
            let rv = &Rendezvous::new(2, cores);
            let (prompt_wait, straggler_wait) = std::thread::scope(|s| {
                let prompt = s.spawn(move || cross(rv, 0, 0));
                let straggler = s.spawn(move || cross_last(rv, 1, 0));
                (prompt.join().unwrap(), straggler.join().unwrap())
            });
            assert_eq!(straggler_wait, 0, "the last publisher never waits");
            assert!(
                prompt_wait >= STRAGGLE.as_nanos() as u64 / 2,
                "the prompt thread waited out the straggler's delay, got {prompt_wait} ns"
            );
        }
    }

    #[test]
    fn per_crossing_waits_are_monotone_and_attributed_to_prompt_shards() {
        // Three shards on "two cores": the oversubscribed path, with
        // consecutive crossings reusing both parities.
        let rv = &Rendezvous::new(3, 2);
        let run = |me: usize, crossing: fn(&Rendezvous, usize, u64) -> u64| {
            move || {
                let mut total = 0u64;
                (0..CROSSINGS)
                    .map(|k| {
                        total += crossing(rv, me, k);
                        total
                    })
                    .collect::<Vec<u64>>()
            }
        };
        let (prompt_a, prompt_b, straggler) = std::thread::scope(|s| {
            let a = s.spawn(run(0, cross));
            let b = s.spawn(run(1, cross));
            let c = s.spawn(run(2, cross_last));
            (a.join().unwrap(), b.join().unwrap(), c.join().unwrap())
        });
        for cum in [&prompt_a, &prompt_b] {
            assert!(cum.windows(2).all(|w| w[0] <= w[1]), "cumulative wait is monotone: {cum:?}");
        }
        assert_eq!(straggler, vec![0; CROSSINGS as usize], "the last publisher never waits");
        // Every crossing is bounded by the straggler, so both prompt
        // shards accumulate roughly CROSSINGS × STRAGGLE of wait.
        let floor = CROSSINGS * STRAGGLE.as_nanos() as u64 / 2;
        for (name, prompt) in [("a", &prompt_a), ("b", &prompt_b)] {
            let total = *prompt.last().unwrap();
            assert!(total >= floor, "prompt {name} absorbed the straggler's delay: {total} ns");
        }
    }

    /// A HUB refuses a controller attempt without an event; when that
    /// is the run's last act, every shard still ends on its instant.
    #[test]
    fn a_run_that_ends_on_a_refused_attempt_ends_at_its_instant() {
        let mut world =
            ShardedWorld::new(Topology::mesh2d(1, 2, 1, 16), SystemConfig::default(), 2);
        let open =
            |retry| Item::from(Command::open(false, retry, false, HubId::new(0), PortId::new(6)));
        // P3 holds P6; P4's open with retry, fully in at 1,240 ns, is
        // refused at 1,350 ns.
        world.worlds[0].inject_hub_item(Time::ZERO, 0, PortId::new(3), open(false));
        world.worlds[0].inject_hub_item(Time::from_nanos(1_000), 0, PortId::new(4), open(true));
        assert_eq!(world.run_to_quiescence(Time::from_millis(1)).1, QuiescenceOutcome::Quiescent);
        assert!(world.worlds.iter().all(|w| w.now() == Time::from_nanos(1_350)));
        assert_eq!(world.metrics().counter("hub0.opens_retried"), 1);
    }

    #[test]
    fn runtime_metrics_sum_matches_per_shard_counters() {
        let topo = Topology::fat_star(4, 2, 16);
        let mut world = ShardedWorld::new(topo, SystemConfig::default(), 4);
        world.enable_profiling();
        for cab in 0..4 {
            let payload: std::sync::Arc<[u8]> = vec![7u8; 600].into();
            let send = AppSend::Stream {
                dst: (cab + 4) % 8,
                src_mailbox: 1,
                dst_mailbox: 9,
                data: payload,
            };
            world.schedule_send(Time::from_micros(5), cab, send);
        }
        world.run_to_quiescence(Time::from_millis(50));
        let reg = world.runtime_metrics();
        let shards = world.shards();
        let wait_sum: u64 =
            (0..shards).map(|i| reg.counter(&format!("runner.shard{i}.barrier_wait_ns"))).sum();
        let exch_sum: u64 =
            (0..shards).map(|i| reg.counter(&format!("runner.shard{i}.exchanged_events"))).sum();
        assert_eq!(reg.counter("runner.barrier_wait_ns"), wait_sum);
        assert_eq!(reg.counter("runner.exchanged_events"), exch_sum);
        assert!(reg.counter("runner.windows") > 0);
        // The profiler records barrier spans with the barrier's own
        // measured waits, so (with no ring overflow) the profile's
        // barrier total equals the runtime counter exactly.
        let profile = world.host_profile().expect("profiling enabled");
        assert_eq!(profile.dropped, 0);
        let span_wait: u64 = profile
            .worker_tracks()
            .iter()
            .flatten()
            .filter(|s| s.phase == Phase::BarrierWait)
            .map(|s| s.dur_ns)
            .sum();
        assert_eq!(span_wait, wait_sum, "profile barrier spans agree with runtime counters");
    }
}
