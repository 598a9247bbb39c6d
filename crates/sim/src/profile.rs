//! Host-time profiler and scaling doctor: where the wall-clock goes.
//!
//! Everything else in this crate measures *simulated* time — the
//! nanoseconds the modeled Nectar HUB takes. This module measures the
//! *host*: how long each shard worker of a parallel run actually spends
//! stepping its engine, filling outboxes, draining the exchange grid,
//! and waiting at barriers, on which core budget. It is the instrument
//! that turns a flat speedup curve from a mystery into a verdict.
//!
//! Three layers:
//!
//! * [`Profiler`] — a per-thread ring of [`PhaseSpan`]s recorded
//!   against a process-wide monotonic epoch (`host_now_ns`), plus
//!   exact whole-run [`TrackTotals`] that outlive the ring. Same
//!   zero-alloc discipline as the telemetry rings: one branch when
//!   disabled, drop-oldest with a `dropped` counter when full.
//! * [`HostProfile`] — the collected tracks and totals, one per shard
//!   worker.
//! * [`analyze`] — the **scaling doctor**: phase breakdown, parallel
//!   efficiency and a Karp–Flatt serial-fraction estimate from the
//!   totals (so they describe the whole run however long it was),
//!   per-window straggler attribution (which shard bounded each
//!   window, critical-path share per shard) from the ring, and ranked
//!   [`Verdict`]s with evidence windows.
//!
//! Host-time quantities are never part of the bit-compared simulated
//! metrics: runs with the profiler on, off, or streaming must stay
//! bit-identical in everything [`MetricsRegistry`]-shaped.
//!
//! [`MetricsRegistry`]: crate::metrics::MetricsRegistry

use crate::json::json_escape;
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide monotonic epoch every span is stamped against.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic, never
/// wall-clock). All profiler tracks share this epoch, so spans from
/// different threads are directly comparable and exportable onto one
/// trace timeline.
fn host_now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Number of [`Phase`] variants (array-index bound for breakdowns).
const PHASES: usize = 6;

/// A phase of the sharded runner's loop, the unit of host-time
/// attribution. The first four happen once on every shard worker each
/// window; the last two only with a streaming doctor attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Engine stepping: `World::run_window` over `[T, T+lookahead)`.
    Step,
    /// Producer half of the exchange: swapping filled outboxes into
    /// the grid and publishing the shard's earliest pending time.
    OutboxFill,
    /// Consumer half of the exchange: draining this shard's column
    /// into its engine.
    ExchangeDrain,
    /// Time spent waiting at the window's rendezvous.
    BarrierWait,
    /// Draining the shard's telemetry rings after its step, every
    /// window.
    TelemetryDrain,
    /// Worker 0 handing the shards' drains to the streaming doctor's
    /// fold thread — mostly a wait for room in its queue — and the
    /// wait for the fold to end when the doctor is finished. The fold
    /// itself runs on a thread of its own, off the profile.
    StreamFold,
}

impl Phase {
    /// All phases, in breakdown/display order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Step,
        Phase::OutboxFill,
        Phase::ExchangeDrain,
        Phase::BarrierWait,
        Phase::TelemetryDrain,
        Phase::StreamFold,
    ];

    /// Dense index into `[u64; PHASES]` breakdown arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Step => 0,
            Phase::OutboxFill => 1,
            Phase::ExchangeDrain => 2,
            Phase::BarrierWait => 3,
            Phase::TelemetryDrain => 4,
            Phase::StreamFold => 5,
        }
    }

    /// Stable snake_case name (JSON keys, trace slice names).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Step => "step",
            Phase::OutboxFill => "outbox_fill",
            Phase::ExchangeDrain => "exchange_drain",
            Phase::BarrierWait => "barrier_wait",
            Phase::TelemetryDrain => "telemetry_drain",
            Phase::StreamFold => "stream_fold",
        }
    }
}

/// One scoped span: `phase` ran for `dur_ns` host-nanoseconds starting
/// at `start_ns` (epoch-relative), attributed to window `window`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// What ran.
    pub phase: Phase,
    /// The global window index the work belonged to.
    pub window: u64,
    /// Start, in `host_now_ns` nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Default ring capacity per track: 2^17 spans (~4 MiB). At four spans
/// per shard per window that covers ~32k windows before the oldest
/// drop. Only straggler attribution and the Perfetto export read the
/// ring; everything summed over the run comes from [`TrackTotals`].
const DEFAULT_SPAN_CAPACITY: usize = 1 << 17;

/// Exact whole-run accounting for one track: unlike the span ring it
/// never evicts, so a run of any length keeps its true phase totals
/// and wall time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackTotals {
    /// Nanoseconds per [`Phase`], indexed by [`Phase::index`].
    pub sum_ns: [u64; PHASES],
    /// Spans recorded per [`Phase`], indexed by [`Phase::index`].
    pub count: [u64; PHASES],
    /// Start of the earliest span ever recorded, in `host_now_ns`
    /// nanoseconds (`u64::MAX` when none was).
    pub first_start_ns: u64,
    /// End of the latest span ever recorded (0 when none was).
    pub last_end_ns: u64,
}

impl Default for TrackTotals {
    fn default() -> TrackTotals {
        TrackTotals {
            sum_ns: [0; PHASES],
            count: [0; PHASES],
            first_start_ns: u64::MAX,
            last_end_ns: 0,
        }
    }
}

/// A per-thread span ring. Disabled by default: [`begin`] is a single
/// branch and records nothing, so leaving profilers threaded through a
/// hot loop costs nothing measurable. Enabled, recording is one
/// monotonic clock read at each scope edge plus a bounded ring push —
/// no allocation once the ring is warm. Back-to-back scopes share an
/// edge: [`end`](Profiler::end) returns the stamp that opens the next.
///
/// [`begin`]: Profiler::begin
#[derive(Debug)]
pub struct Profiler {
    ring: VecDeque<PhaseSpan>,
    capacity: usize,
    dropped: u64,
    totals: TrackTotals,
    enabled: bool,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::disabled()
    }
}

impl Profiler {
    /// A disabled profiler (the zero-cost default); enable later with
    /// [`set_enabled`](Profiler::set_enabled). No ring memory is
    /// committed until the first recorded span.
    pub fn disabled() -> Profiler {
        Profiler {
            ring: VecDeque::new(),
            capacity: DEFAULT_SPAN_CAPACITY,
            dropped: 0,
            totals: TrackTotals::default(),
            enabled: false,
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a scope: returns the start stamp to pass to
    /// [`end`](Profiler::end). Returns 0 without reading the clock
    /// when disabled.
    #[inline]
    pub fn begin(&self) -> u64 {
        if self.enabled {
            host_now_ns()
        } else {
            0
        }
    }

    /// Closes a scope opened by [`begin`](Profiler::begin), measuring
    /// the duration from the clock. Returns the closing stamp (0 when
    /// disabled), which can open the next scope without a second read.
    #[inline]
    pub fn end(&mut self, phase: Phase, window: u64, start_ns: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = host_now_ns();
        let dur_ns = end_ns.saturating_sub(start_ns);
        self.push(PhaseSpan { phase, window, start_ns, dur_ns });
        end_ns
    }

    /// Closes a scope with an externally measured duration — used for
    /// barrier waits, where the barrier itself reports the waited
    /// nanoseconds and the span must agree exactly with the
    /// `runner.barrier_wait_ns` counters.
    #[inline]
    pub fn end_with(&mut self, phase: Phase, window: u64, start_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        self.push(PhaseSpan { phase, window, start_ns, dur_ns });
    }

    fn push(&mut self, span: PhaseSpan) {
        let i = span.phase.index();
        self.totals.sum_ns[i] += span.dur_ns;
        self.totals.count[i] += 1;
        self.totals.first_start_ns = self.totals.first_start_ns.min(span.start_ns);
        self.totals.last_end_ns = self.totals.last_end_ns.max(span.start_ns + span.dur_ns);
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(span);
    }

    /// Recorded spans, oldest first.
    fn spans(&self) -> impl Iterator<Item = &PhaseSpan> {
        self.ring.iter()
    }

    /// Spans lost to ring overflow (oldest evicted first).
    fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whole-run totals over every span ever recorded, evicted or not.
    fn totals(&self) -> TrackTotals {
        self.totals
    }
}

/// The collected profile of one sharded run: one track per shard
/// worker.
#[derive(Clone, Debug)]
pub struct HostProfile {
    /// One track of spans per shard worker, oldest first. A sample of
    /// the run's tail once `dropped > 0`.
    pub tracks: Vec<Vec<PhaseSpan>>,
    /// Whole-run totals, parallel to `tracks`.
    pub totals: Vec<TrackTotals>,
    /// Total spans lost to ring overflow across all tracks.
    pub dropped: u64,
}

impl HostProfile {
    /// Collects one profiler per shard worker into one profile.
    pub fn collect(profilers: &[Profiler]) -> HostProfile {
        HostProfile {
            tracks: profilers.iter().map(|p| p.spans().copied().collect()).collect(),
            totals: profilers.iter().map(|p| p.totals()).collect(),
            dropped: profilers.iter().map(|p| p.dropped()).sum(),
        }
    }

    /// Wall time of the whole run: latest span end minus earliest
    /// span start over every span ever recorded, in nanoseconds.
    fn wall_ns(&self) -> u64 {
        let lo = self.totals.iter().map(|t| t.first_start_ns).min().unwrap_or(u64::MAX);
        let hi = self.totals.iter().map(|t| t.last_end_ns).max().unwrap_or(0);
        hi.saturating_sub(lo)
    }
}

/// Simulated-side context the scaling doctor uses to *name* causes:
/// how many cores the host offers, and where simulated load lives so
/// an imbalance verdict can point at the hot HUB cluster.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeCtx {
    /// Host cores available to the run.
    pub cores: usize,
    /// Per-HUB simulated-time load attribution
    /// (`World::cluster_weight` summed over shards); may be empty.
    pub cluster_weights: Vec<u64>,
    /// The shard owning each HUB, parallel to `cluster_weights`.
    pub shard_of_hub: Vec<usize>,
}

/// One shard's host-time breakdown.
#[derive(Clone, Debug, Default)]
pub struct ShardBreakdown {
    /// Nanoseconds per [`Phase`], indexed by [`Phase::index`].
    pub phase_ns: [u64; PHASES],
    /// Complete windows this shard's step was the slowest of.
    pub windows_bounded: u64,
    /// This shard's share of the summed per-window critical path
    /// (its bounded windows' max-step time over the total), in 0..=1.
    pub critical_share: f64,
}

/// What the scaling doctor concluded a run was limited by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictKind {
    /// Barrier wait beyond what stragglers explain dominates:
    /// synchronization mechanics, not load.
    BarrierDominated,
    /// Outbox fill + exchange drain dominate: cross-shard traffic is
    /// too dense for the partition.
    ExchangeDominated,
    /// One shard's step time bounds most windows: the partition is
    /// skewed.
    LoadImbalanced,
    /// More shards than cores: waits are timeslice artifacts and no
    /// speedup conclusion is valid.
    Oversubscribed,
    /// No overhead fraction above the attention floor.
    Healthy,
}

impl VerdictKind {
    /// Stable kebab-case name (JSON, human tables).
    pub fn label(self) -> &'static str {
        match self {
            VerdictKind::BarrierDominated => "barrier-dominated",
            VerdictKind::ExchangeDominated => "exchange-dominated",
            VerdictKind::LoadImbalanced => "load-imbalanced",
            VerdictKind::Oversubscribed => "oversubscribed",
            VerdictKind::Healthy => "healthy",
        }
    }
}

/// A ranked conclusion with its supporting evidence.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The conclusion.
    pub kind: VerdictKind,
    /// Ranking score: the overhead fraction of total worker-thread
    /// time this cause explains (oversubscription adds a fixed boost
    /// because it invalidates the other readings).
    pub score: f64,
    /// One-line human explanation with quantities.
    pub detail: String,
    /// Up to five window indices where this cause hurt most.
    pub evidence_windows: Vec<u64>,
}

/// Overhead fraction below which no cause is worth a non-healthy
/// verdict; doubles as the healthy verdict's own score so ranking
/// stays a plain sort.
const HEALTHY_FLOOR: f64 = 0.15;

/// Evidence windows reported per verdict.
const EVIDENCE: usize = 5;

/// The scaling doctor's full report for one run.
#[derive(Clone, Debug)]
pub struct ProfileAnalysis {
    /// Shard worker count.
    pub shards: usize,
    /// Distinct windows observed in the worker tracks' span rings.
    pub windows: u64,
    /// Windows where every shard reported a step span (straggler
    /// attribution uses only these).
    pub complete_windows: u64,
    /// Host wall time of the whole run, nanoseconds.
    pub wall_ns: u64,
    /// Spans lost to ring overflow (nonzero means the oldest windows
    /// are missing from the straggler sample).
    pub spans_dropped: u64,
    /// `false` when any span was dropped: straggler attribution
    /// (`windows_bounded`, `critical_share`, the split of barrier wait
    /// into straggler-explained and excess, evidence windows) is then
    /// over a truncated sample, scaled up to the whole run. Phase
    /// totals, wall time, `efficiency` and `karp_flatt` are exact
    /// either way.
    pub confident: bool,
    /// Per-shard whole-run phase breakdown, and critical-path
    /// attribution over the complete windows.
    pub per_shard: Vec<ShardBreakdown>,
    /// Parallel efficiency: summed step time over `shards × wall`.
    pub efficiency: f64,
    /// Karp–Flatt experimentally determined serial fraction
    /// `f = (1/s − 1/p) / (1 − 1/p)` with `s` the estimated speedup;
    /// defined as 0 for one shard.
    pub karp_flatt: f64,
    /// Ranked verdicts, strongest first. Never empty.
    pub verdicts: Vec<Verdict>,
}

impl ProfileAnalysis {
    /// The single strongest verdict.
    pub fn primary(&self) -> &Verdict {
        &self.verdicts[0]
    }

    /// Multi-line human rendering (phase table, efficiency line,
    /// ranked verdicts) — the `report --profile` section body.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        if !self.confident {
            out.push_str(&format!(
                "  !! profiler ring dropped {} spans — phase totals, wall time, efficiency and \
                 Karp-Flatt cover the whole run; straggler attribution is over a truncated \
                 sample (the surviving windows below)\n",
                self.spans_dropped
            ));
        }
        out.push_str(&format!(
            "host-time profile: {} shard(s), {} windows ({} complete), wall {:.3} ms\n",
            self.shards,
            self.windows,
            self.complete_windows,
            ms(self.wall_ns),
        ));
        out.push_str(
            "shard      step_ms   outbox_ms  exchange_ms  barrier_ms  bounded  critical\n",
        );
        for (i, b) in self.per_shard.iter().enumerate() {
            out.push_str(&format!(
                "{:<9} {:>9.3} {:>10.3} {:>12.3} {:>11.3} {:>8} {:>8.1}%\n",
                i,
                ms(b.phase_ns[Phase::Step.index()]),
                ms(b.phase_ns[Phase::OutboxFill.index()]),
                ms(b.phase_ns[Phase::ExchangeDrain.index()]),
                ms(b.phase_ns[Phase::BarrierWait.index()]),
                b.windows_bounded,
                b.critical_share * 100.0,
            ));
        }
        let summed = |ph: Phase| self.per_shard.iter().map(|b| b.phase_ns[ph.index()]).sum();
        let (drain, fold) = (summed(Phase::TelemetryDrain), summed(Phase::StreamFold));
        if drain + fold > 0 {
            out.push_str(&format!(
                "streaming drain {:.3} ms, fold wait {:.3} ms\n",
                ms(drain),
                ms(fold)
            ));
        }
        out.push_str(&format!(
            "parallel efficiency {:.2}, Karp-Flatt serial fraction {:.3}\n",
            self.efficiency, self.karp_flatt
        ));
        let p = self.primary();
        out.push_str(&format!(
            "verdict: {} (score {:.2}) - {}\n",
            p.kind.label(),
            p.score,
            p.detail
        ));
        if !p.evidence_windows.is_empty() {
            let wins: Vec<String> = p.evidence_windows.iter().map(|w| w.to_string()).collect();
            out.push_str(&format!("evidence windows: {}\n", wins.join(", ")));
        }
        if self.verdicts.len() > 1 {
            let rest: Vec<String> = self.verdicts[1..]
                .iter()
                .map(|v| format!("{} ({:.2})", v.kind.label(), v.score))
                .collect();
            out.push_str(&format!("also ranked: {}\n", rest.join(", ")));
        }
        out
    }

    /// Single-line JSON object for `BENCH_sim.json`.
    pub fn to_json(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"shards\": {}, \"windows\": {}, \"complete_windows\": {}, \"wall_ms\": {:.3}, \
             \"spans_dropped\": {}, \"confident\": {}, \"efficiency\": {:.4}, \
             \"karp_flatt\": {:.4}",
            self.shards,
            self.windows,
            self.complete_windows,
            ms(self.wall_ns),
            self.spans_dropped,
            self.confident,
            self.efficiency,
            self.karp_flatt
        ));
        out.push_str(", \"per_shard\": [");
        for (i, b) in self.per_shard.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('{');
            for ph in Phase::ALL {
                out.push_str(&format!(
                    "\"{}_ms\": {:.3}, ",
                    ph.label(),
                    ms(b.phase_ns[ph.index()])
                ));
            }
            out.push_str(&format!(
                "\"windows_bounded\": {}, \"critical_share\": {:.4}}}",
                b.windows_bounded, b.critical_share
            ));
        }
        out.push(']');
        let p = self.primary();
        let wins: Vec<String> = p.evidence_windows.iter().map(|w| w.to_string()).collect();
        out.push_str(&format!(
            ", \"verdict\": {{\"kind\": \"{}\", \"score\": {:.4}, \"detail\": \"{}\", \
             \"evidence_windows\": [{}]}}",
            p.kind.label(),
            p.score,
            json_escape(&p.detail),
            wins.join(", ")
        ));
        out.push_str(", \"ranked\": [");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"kind\": \"{}\", \"score\": {:.4}}}",
                v.kind.label(),
                v.score
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Per-window aggregate built from the worker tracks.
#[derive(Clone, Copy, Debug, Default)]
struct WinAgg {
    step_max: u64,
    step_sum: u64,
    step_n: usize,
    bounding: usize,
    barrier_ns: u64,
    exchange_ns: u64,
}

/// Runs the scaling doctor over a collected [`HostProfile`]: phase
/// breakdowns, efficiency and Karp–Flatt from the whole-run totals,
/// straggler attribution from the span rings, and ranked verdicts.
/// Deterministic for a given profile and context.
pub fn analyze(profile: &HostProfile, ctx: &AnalyzeCtx) -> ProfileAnalysis {
    let shards = profile.tracks.len().max(1);
    let mut per_shard = vec![ShardBreakdown::default(); shards];
    for (b, totals) in per_shard.iter_mut().zip(&profile.totals) {
        b.phase_ns = totals.sum_ns;
    }
    let mut wins: BTreeMap<u64, WinAgg> = BTreeMap::new();
    for (s, track) in profile.tracks.iter().enumerate() {
        for span in track {
            let agg = wins.entry(span.window).or_default();
            match span.phase {
                Phase::Step => {
                    agg.step_sum += span.dur_ns;
                    agg.step_n += 1;
                    if span.dur_ns > agg.step_max {
                        agg.step_max = span.dur_ns;
                        agg.bounding = s;
                    }
                }
                Phase::BarrierWait => agg.barrier_ns += span.dur_ns,
                Phase::OutboxFill | Phase::ExchangeDrain => agg.exchange_ns += span.dur_ns,
                _ => {}
            }
        }
    }
    let wall_ns = profile.wall_ns();
    let windows = wins.len() as u64;

    // Straggler attribution over complete windows only: a window with
    // a dropped step span would otherwise blame the shards that kept
    // theirs.
    let mut complete_windows = 0u64;
    let mut straggler_ns = 0u64;
    let mut critical_ns = vec![0u64; shards];
    let mut total_critical = 0u64;
    for agg in wins.values() {
        if agg.step_n != shards {
            continue;
        }
        complete_windows += 1;
        straggler_ns += agg.step_max * shards as u64 - agg.step_sum;
        per_shard[agg.bounding].windows_bounded += 1;
        critical_ns[agg.bounding] += agg.step_max;
        total_critical += agg.step_max;
    }
    for (b, c) in per_shard.iter_mut().zip(&critical_ns) {
        b.critical_share = if total_critical > 0 { *c as f64 / total_critical as f64 } else { 0.0 };
    }
    // The rings may hold only the run's tail; the totals know how many
    // windows were stepped in all. Scale the sampled straggler time up
    // so it is comparable with the whole-run barrier wait below (a
    // factor of exactly 1 when nothing was dropped).
    let stepped = profile.totals.iter().map(|t| t.count[Phase::Step.index()]).max().unwrap_or(0);
    if complete_windows > 0 {
        straggler_ns = (straggler_ns as u128 * stepped as u128 / complete_windows as u128) as u64;
    }

    let busy_ns: u64 = per_shard.iter().map(|b| b.phase_ns[Phase::Step.index()]).sum();
    let barrier_ns: u64 = per_shard.iter().map(|b| b.phase_ns[Phase::BarrierWait.index()]).sum();
    let exchange_ns: u64 = per_shard
        .iter()
        .map(|b| b.phase_ns[Phase::OutboxFill.index()] + b.phase_ns[Phase::ExchangeDrain.index()])
        .sum();
    let thread_ns = (shards as u64 * wall_ns).max(1);
    let efficiency =
        if wall_ns == 0 { 1.0 } else { (busy_ns as f64 / thread_ns as f64).clamp(0.0, 1.0) };
    let karp_flatt = if shards <= 1 || wall_ns == 0 || busy_ns == 0 {
        0.0
    } else {
        let p = shards as f64;
        // Estimated speedup: total useful work over wall time.
        let s = (busy_ns as f64 / wall_ns as f64).max(1e-9);
        (((1.0 / s) - (1.0 / p)) / (1.0 - 1.0 / p)).clamp(0.0, 1.0)
    };

    // Barrier wait splits into the part stragglers explain (some shard
    // was still stepping) and the excess (barrier mechanics, wakeup
    // latency, oversubscription).
    let explained = straggler_ns.min(barrier_ns);
    let sync_excess = barrier_ns - explained;
    let frac = |ns: u64| ns as f64 / thread_ns as f64;

    let top_windows = |key: &dyn Fn(&WinAgg) -> u64| -> Vec<u64> {
        let mut ranked: Vec<(u64, u64)> =
            wins.iter().filter(|(_, a)| key(a) > 0).map(|(w, a)| (key(a), *w)).collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        let mut out: Vec<u64> = ranked.into_iter().take(EVIDENCE).map(|(_, w)| w).collect();
        out.sort_unstable();
        out
    };

    let mut verdicts: Vec<Verdict> = Vec::new();
    if ctx.cores > 0 && shards > ctx.cores {
        verdicts.push(Verdict {
            kind: VerdictKind::Oversubscribed,
            // Fixed boost: oversubscription invalidates the other
            // readings, so it must outrank them whenever present.
            score: frac(barrier_ns + straggler_ns) + 0.5,
            detail: format!(
                "{} shards on {} core(s): barrier waits ({:.3} ms) are timeslice artifacts, \
                 not protocol overhead",
                shards,
                ctx.cores,
                barrier_ns as f64 / 1e6
            ),
            evidence_windows: top_windows(&|a| a.barrier_ns),
        });
    }
    {
        let hot = (0..shards).max_by_key(|&s| critical_ns[s]).unwrap_or(0);
        let pct = if complete_windows > 0 {
            per_shard[hot].windows_bounded as f64 * 100.0 / complete_windows as f64
        } else {
            0.0
        };
        let hot_hub = ctx
            .cluster_weights
            .iter()
            .enumerate()
            .filter(|(h, _)| ctx.shard_of_hub.get(*h) == Some(&hot))
            .max_by_key(|(_, w)| **w)
            .map(|(h, w)| (h, *w));
        let hub_note = match hot_hub {
            Some((h, w)) => format!("; hot cluster is hub {h} (weight {w})"),
            None => String::new(),
        };
        verdicts.push(Verdict {
            kind: VerdictKind::LoadImbalanced,
            score: frac(straggler_ns),
            detail: format!(
                "shard {hot} bounded {pct:.0}% of complete windows \
                 (straggler time {:.3} ms){hub_note}",
                straggler_ns as f64 / 1e6
            ),
            evidence_windows: top_windows(&|a| {
                if a.step_n == shards {
                    a.step_max * shards as u64 - a.step_sum
                } else {
                    0
                }
            }),
        });
    }
    verdicts.push(Verdict {
        kind: VerdictKind::BarrierDominated,
        score: frac(sync_excess),
        detail: format!(
            "{:.3} ms barrier wait beyond what stragglers explain ({:.0}% of thread time)",
            sync_excess as f64 / 1e6,
            frac(sync_excess) * 100.0
        ),
        evidence_windows: top_windows(&|a| a.barrier_ns),
    });
    verdicts.push(Verdict {
        kind: VerdictKind::ExchangeDominated,
        score: frac(exchange_ns),
        detail: format!(
            "{:.3} ms in outbox fill + exchange drain ({:.0}% of thread time)",
            exchange_ns as f64 / 1e6,
            frac(exchange_ns) * 100.0
        ),
        evidence_windows: top_windows(&|a| a.exchange_ns),
    });
    verdicts.push(Verdict {
        kind: VerdictKind::Healthy,
        score: HEALTHY_FLOOR,
        detail: format!(
            "parallel efficiency {efficiency:.2}; no overhead cause above {HEALTHY_FLOOR:.2} \
             of thread time"
        ),
        evidence_windows: Vec::new(),
    });
    // Strongest first; ties keep the insertion order above (stable
    // sort), which places the more specific causes ahead of Healthy.
    verdicts.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));

    ProfileAnalysis {
        shards,
        windows,
        complete_windows,
        wall_ns,
        spans_dropped: profile.dropped,
        confident: profile.dropped == 0,
        per_shard,
        efficiency,
        karp_flatt,
        verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An enabled profiler with a ring of `capacity` spans.
    fn profiler(capacity: usize) -> Profiler {
        Profiler { capacity, enabled: true, ..Profiler::disabled() }
    }

    /// Two worker profilers, each with a ring of `capacity` spans, fed
    /// a synthetic run: per window each shard steps for `step[s]` ns
    /// and waits `barrier[s]` ns.
    fn synthetic_profilers(
        capacity: usize,
        windows: u64,
        step: [u64; 2],
        barrier: [u64; 2],
    ) -> [Profiler; 2] {
        let mut profs = [profiler(capacity), profiler(capacity)];
        let mut t = 0u64;
        for w in 0..windows {
            for s in 0..2 {
                profs[s].end_with(Phase::Step, w, t, step[s]);
                profs[s].end_with(Phase::BarrierWait, w, t + step[s], barrier[s]);
            }
            t += step.iter().max().unwrap() + barrier.iter().max().unwrap();
        }
        profs
    }

    /// The synthetic run of [`synthetic_profilers`], nothing dropped.
    fn synthetic(windows: u64, step: [u64; 2], barrier: [u64; 2]) -> HostProfile {
        HostProfile::collect(&synthetic_profilers(1 << 12, windows, step, barrier))
    }

    fn ctx(cores: usize) -> AnalyzeCtx {
        AnalyzeCtx { cores, cluster_weights: vec![10, 90], shard_of_hub: vec![0, 1] }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        let t = p.begin();
        assert_eq!(t, 0);
        p.end(Phase::Step, 0, t);
        p.end_with(Phase::BarrierWait, 0, t, 500);
        assert!(p.spans().next().is_none());
        assert_eq!(p.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut p = profiler(4);
        for w in 0..6 {
            p.end_with(Phase::Step, w, 0, 1);
        }
        assert_eq!(p.spans().count(), 4);
        assert_eq!(p.dropped(), 2);
        let windows: Vec<u64> = p.spans().map(|s| s.window).collect();
        assert_eq!(windows, vec![2, 3, 4, 5]);
    }

    #[test]
    fn dropped_spans_make_the_analysis_unconfident_and_loud() {
        let mut profile = synthetic(8, [100, 100], [0, 0]);
        let clean = analyze(&profile, &ctx(2));
        assert!(clean.confident);
        assert!(!clean.render().contains("!!"));
        assert!(clean.to_json().contains("\"confident\": true"));
        profile.dropped = 3;
        let truncated = analyze(&profile, &ctx(2));
        assert!(!truncated.confident);
        assert!(truncated.render().starts_with("  !! profiler ring dropped 3 spans"));
        assert!(truncated.to_json().contains("\"confident\": false"));
    }

    #[test]
    fn totals_cover_the_whole_run_when_the_ring_keeps_only_its_tail() {
        // 64 windows through rings that hold 8 spans (4 windows) each.
        let full = analyze(&synthetic(64, [1000, 3000], [2000, 10]), &ctx(8));
        let profile = HostProfile::collect(&synthetic_profilers(8, 64, [1000, 3000], [2000, 10]));
        assert_eq!(profile.dropped, 2 * (128 - 8));
        assert_eq!(profile.totals[0].count[Phase::Step.index()], 64);
        assert_eq!(profile.totals[0].sum_ns[Phase::BarrierWait.index()], 64 * 2000);
        let tail = analyze(&profile, &ctx(8));
        assert!(!tail.confident);
        assert_eq!((tail.windows, tail.complete_windows), (4, 4));
        // Everything summed over the run is exactly what the untruncated
        // profile reports.
        assert_eq!(tail.wall_ns, full.wall_ns);
        assert_eq!(tail.efficiency, full.efficiency);
        assert_eq!(tail.karp_flatt, full.karp_flatt);
        for (t, f) in tail.per_shard.iter().zip(&full.per_shard) {
            assert_eq!(t.phase_ns, f.phase_ns);
        }
        // The straggler sample scales to the run, so the verdict and
        // its score survive truncation on a steady workload.
        assert_eq!(tail.primary().kind, full.primary().kind);
        assert_eq!(tail.primary().score, full.primary().score);
        assert!(tail.render().contains("straggler attribution is over a truncated sample"));
    }

    #[test]
    fn enabled_profiler_measures_monotonic_spans() {
        let mut p = profiler(16);
        let t0 = p.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.end(Phase::Step, 7, t0);
        let s = *p.spans().next().unwrap();
        assert_eq!(s.phase, Phase::Step);
        assert_eq!(s.window, 7);
        assert!(s.dur_ns >= 1_000_000, "slept 2ms, span {} ns", s.dur_ns);
    }

    #[test]
    fn balanced_run_is_healthy() {
        let prof = synthetic(64, [1000, 1000], [10, 10]);
        let a = analyze(&prof, &ctx(8));
        assert_eq!(a.primary().kind, VerdictKind::Healthy);
        assert_eq!(a.windows, 64);
        assert_eq!(a.complete_windows, 64);
        assert!(a.efficiency > 0.9, "efficiency {}", a.efficiency);
        assert!(a.karp_flatt < 0.05, "karp_flatt {}", a.karp_flatt);
        // Exactly one primary verdict, and the ranked list covers all kinds once.
        assert_eq!(a.verdicts.len(), 4);
    }

    #[test]
    fn straggler_run_is_load_imbalanced() {
        // Shard 1 steps 9x longer; shard 0 absorbs the slack at the barrier.
        let prof = synthetic(64, [1000, 9000], [8000, 10]);
        let a = analyze(&prof, &ctx(8));
        assert_eq!(a.primary().kind, VerdictKind::LoadImbalanced);
        assert_eq!(a.per_shard[1].windows_bounded, 64);
        assert!(a.per_shard[1].critical_share > 0.99);
        assert_eq!(a.primary().evidence_windows.len(), EVIDENCE);
        assert!(a.primary().detail.contains("shard 1"));
        // Hot cluster named from the ctx weights (hub 1 lives on shard 1).
        assert!(a.primary().detail.contains("hub 1"), "detail: {}", a.primary().detail);
    }

    #[test]
    fn pure_sync_overhead_is_barrier_dominated() {
        // Equal steps (no straggler slack) but every crossing waits long.
        let prof = synthetic(64, [1000, 1000], [4000, 4000]);
        let a = analyze(&prof, &ctx(8));
        assert_eq!(a.primary().kind, VerdictKind::BarrierDominated);
        assert!(!a.primary().evidence_windows.is_empty());
    }

    #[test]
    fn oversubscription_outranks_everything() {
        let prof = synthetic(64, [1000, 9000], [8000, 10]);
        let a = analyze(&prof, &ctx(1));
        assert_eq!(a.primary().kind, VerdictKind::Oversubscribed);
        assert_eq!(a.verdicts.len(), 5);
    }

    #[test]
    fn one_shard_profile_has_defined_estimates() {
        let mut profs = [profiler(4)];
        profs[0].end_with(Phase::Step, 0, 0, 5_000_000);
        let prof = HostProfile::collect(&profs);
        let a = analyze(&prof, &ctx(8));
        assert_eq!(a.karp_flatt, 0.0);
        assert!(a.efficiency > 0.99);
        assert_eq!(a.primary().kind, VerdictKind::Healthy);
    }

    #[test]
    fn incomplete_windows_are_excluded_from_straggler_math() {
        let mut profs = synthetic_profilers(1 << 12, 8, [1000, 1000], [10, 10]);
        // A window only shard 0 reports (as after a ring drop).
        profs[0].end_with(Phase::Step, 99, 1_000_000, 30_000);
        let a = analyze(&HostProfile::collect(&profs), &ctx(8));
        assert_eq!(a.windows, 9);
        assert_eq!(a.complete_windows, 8);
    }

    #[test]
    fn json_and_render_are_well_formed() {
        let prof = synthetic(16, [1000, 3000], [2000, 10]);
        let a = analyze(&prof, &ctx(8));
        let json = a.to_json();
        let parsed = crate::json::parse(&json).expect("profile JSON parses");
        assert!(parsed.as_object().is_some());
        assert!(parsed.get("efficiency").is_some());
        assert!(parsed.get("karp_flatt").is_some());
        assert!(parsed.get("verdict").is_some());
        let rendered = a.render();
        assert!(rendered.contains("parallel efficiency"));
        assert!(rendered.contains("verdict:"));
    }

    #[test]
    fn host_clock_is_monotone() {
        let a = host_now_ns();
        let b = host_now_ns();
        assert!(b >= a);
    }
}
