//! Chaos schedules: seeded, deterministic, replayable fault programs.
//!
//! The paper's transport layer exists because real Nectar links lose
//! and corrupt packets (§6.2.2). A [`ChaosSchedule`] is a small program
//! of fault [`Clause`]s — i.i.d. loss, Gilbert–Elliott burst loss,
//! duplication, bounded reordering, corruption, link flaps, command
//! loss, and HUB input-port failure — each scoped to a link
//! ([`ChaosTarget`]) and a simulated-time window. Compiling it yields a
//! [`ChaosInjector`] the world consults on every wire arrival.
//!
//! Three properties are contractual:
//!
//! * **Determinism** — every clause draws from its own RNG stream
//!   derived from the schedule seed, and every matching clause is
//!   evaluated on every arrival (no short-circuiting), so the same seed
//!   and the same event sequence produce byte-identical verdicts.
//! * **Replayability** — a schedule round-trips through its textual
//!   [`spec`](ChaosSchedule::spec) (the `--chaos-spec` grammar), and
//!   [`ChaosSchedule::random`] regenerates bit-for-bit from
//!   `--chaos-seed`.
//! * **Shrinkability** — [`shrink`] reduces a violating schedule to a
//!   locally minimal fault program while the violation persists; the
//!   vendored proptest shim does not shrink, so this is the campaign's
//!   shrinker.
//!
//! # Examples
//!
//! ```
//! use nectar_sim::chaos::{ChaosSchedule, ChaosTarget, Clause, Fault};
//! use nectar_sim::time::Time;
//!
//! let dup_at_cab1 =
//!     Clause { target: ChaosTarget::Cab(1), ..Clause::new(Fault::Duplicate { rate: 0.05 }) };
//! let sched = ChaosSchedule::new(7).with(Clause::new(Fault::Loss { rate: 0.1 })).with(dup_at_cab1);
//! let spec = sched.spec();
//! let back = ChaosSchedule::parse(7, &spec).unwrap();
//! assert_eq!(sched, back);
//! let mut inj = sched.compile();
//! let v = inj.on_cab_packet(Time::ZERO, 1, 64);
//! assert!(!v.drop || v.corrupt.is_none());
//! ```

use crate::hash::FoldMap;
use crate::rng::Rng;
use crate::time::{Dur, Time};
use std::fmt;

use crate::spec::{
    fmt_dur, fmt_window, join_clauses, parse_call, parse_clauses, parse_dur, parse_prob,
    split_window,
};

/// Where a clause applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosTarget {
    /// Every link in the system.
    All,
    /// The fiber feeding this CAB (faults hit at CAB arrival).
    Cab(u16),
    /// One HUB input port (faults hit items arriving at the HUB).
    HubPort {
        /// HUB index.
        hub: u8,
        /// Input-port index on that HUB.
        port: u8,
    },
}

impl ChaosTarget {
    fn matches_cab(self, cab: u16) -> bool {
        match self {
            ChaosTarget::All => true,
            ChaosTarget::Cab(c) => c == cab,
            ChaosTarget::HubPort { .. } => false,
        }
    }

    fn matches_hub(self, hub: u8, port: u8) -> bool {
        match self {
            ChaosTarget::All => true,
            ChaosTarget::Cab(_) => false,
            ChaosTarget::HubPort { hub: h, port: p } => h == hub && p == port,
        }
    }

    /// A stable key for per-link state (Gilbert–Elliott channel state).
    fn link_key(cab_or_port: u32) -> u32 {
        cab_or_port
    }
}

impl fmt::Display for ChaosTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosTarget::All => f.write_str("all"),
            ChaosTarget::Cab(c) => write!(f, "cab{c}"),
            ChaosTarget::HubPort { hub, port } => write!(f, "hub{hub}.{port}"),
        }
    }
}

/// The fault a clause injects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Independent per-packet loss.
    Loss {
        /// Drop probability per packet.
        rate: f64,
    },
    /// Gilbert–Elliott burst loss: a two-state Markov channel. The
    /// good state is lossless; the bad state drops with `loss`.
    Burst {
        /// Drop probability while the channel is in the bad state.
        loss: f64,
        /// Per-packet probability of entering the bad state.
        p_bad: f64,
        /// Per-packet probability of recovering to the good state.
        p_recover: f64,
    },
    /// The wire hands the receiver a second copy of the packet.
    Duplicate {
        /// Duplication probability per packet.
        rate: f64,
    },
    /// Bounded reordering: the packet is held back up to `max_delay`
    /// while later traffic overtakes it.
    Reorder {
        /// Probability a packet is delayed.
        rate: f64,
        /// Upper bound on the added delay.
        max_delay: Dur,
    },
    /// One random bit of the packet flips (checksum-detected at the
    /// receiver unless it strikes very unluckily).
    Corrupt {
        /// Corruption probability per packet.
        rate: f64,
    },
    /// Deterministic link flap: down for `down`, up for `up`,
    /// repeating from the clause's window start. Down windows drop
    /// everything on the link.
    Flap {
        /// Length of each down window.
        down: Dur,
        /// Length of each up window between outages.
        up: Dur,
    },
    /// HUB command symbols vanish in flight (§6.2.1's recovery paths
    /// must cope).
    CommandLoss {
        /// Drop probability per command.
        rate: f64,
    },
    /// A HUB input port dies: everything arriving on it is discarded
    /// for the clause's window.
    PortFail,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Loss { rate } => write!(f, "loss({rate})"),
            Fault::Burst { loss, p_bad, p_recover } => {
                write!(f, "burst({loss},{p_bad},{p_recover})")
            }
            Fault::Duplicate { rate } => write!(f, "dup({rate})"),
            Fault::Reorder { rate, max_delay } => {
                write!(f, "reorder({rate},{})", fmt_dur(*max_delay))
            }
            Fault::Corrupt { rate } => write!(f, "corrupt({rate})"),
            Fault::Flap { down, up } => write!(f, "flap({},{})", fmt_dur(*down), fmt_dur(*up)),
            Fault::CommandLoss { rate } => write!(f, "cmdloss({rate})"),
            Fault::PortFail => f.write_str("portfail"),
        }
    }
}

/// One fault clause: a [`Fault`], the link(s) it applies to, and the
/// simulated-time window in which it is live.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Clause {
    /// What goes wrong.
    pub fault: Fault,
    /// Where it goes wrong.
    pub target: ChaosTarget,
    /// First instant the clause is live.
    pub from: Time,
    /// First instant the clause is no longer live (`Time::MAX` =
    /// forever).
    pub until: Time,
}

impl Clause {
    /// A clause over every link for all time.
    pub fn new(fault: Fault) -> Clause {
        Clause { fault, target: ChaosTarget::All, from: Time::ZERO, until: Time::MAX }
    }

    fn live_at(&self, now: Time) -> bool {
        self.from <= now && now < self.until
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fault.fmt(f)?;
        if self.target != ChaosTarget::All {
            write!(f, "@{}", self.target)?;
        }
        fmt_window(f, self.from, self.until)
    }
}

/// A seeded, replayable program of fault clauses.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSchedule {
    /// Master seed: every clause's RNG stream derives from it.
    pub seed: u64,
    /// The fault program, applied clause by clause on every arrival.
    pub clauses: Vec<Clause>,
}

impl ChaosSchedule {
    /// An empty schedule (no faults) with the given seed.
    pub fn new(seed: u64) -> ChaosSchedule {
        ChaosSchedule { seed, clauses: Vec::new() }
    }

    /// Appends a clause.
    #[must_use]
    pub fn with(mut self, clause: Clause) -> ChaosSchedule {
        self.clauses.push(clause);
        self
    }

    /// Generates a random schedule, bit-for-bit reproducible from
    /// `seed`. Clause parameters are bounded so that retransmission
    /// always converges: loss ≤ 25 %, burst outages recover, flap up
    /// windows exist, and reorder delays stay under 200 µs. `cabs`
    /// bounds the targets of link-scoped clauses.
    pub fn random(seed: u64, cabs: u16) -> ChaosSchedule {
        let mut rng = Rng::seed_from(seed ^ 0x00C4_A05C_4A05);
        let mut sched = ChaosSchedule::new(seed);
        let n = rng.range(1..=4);
        for _ in 0..n {
            let fault = match rng.range(0..=5) {
                0 => Fault::Loss { rate: 0.01 + 0.24 * rng.f64() },
                1 => Fault::Burst {
                    loss: 0.3 + 0.5 * rng.f64(),
                    p_bad: 0.002 + 0.02 * rng.f64(),
                    p_recover: 0.2 + 0.5 * rng.f64(),
                },
                2 => Fault::Duplicate { rate: 0.01 + 0.14 * rng.f64() },
                3 => Fault::Reorder {
                    rate: 0.01 + 0.19 * rng.f64(),
                    max_delay: Dur::from_micros(10 + rng.range(0..=190)),
                },
                4 => Fault::Corrupt { rate: 0.01 + 0.09 * rng.f64() },
                _ => Fault::Flap {
                    down: Dur::from_micros(100 * (1 + rng.range(0..=19))),
                    up: Dur::from_micros(500 * (1 + rng.range(0..=9))),
                },
            };
            let mut clause = Clause::new(fault);
            if cabs > 0 && rng.chance(0.3) {
                clause.target = ChaosTarget::Cab(rng.range(0..=(cabs as u64 - 1)) as u16);
            }
            if rng.chance(0.25) {
                clause.from = Time::from_micros(rng.range(0..=2_000));
                clause.until = clause.from + Dur::from_micros(500 + rng.range(0..=5_000));
            }
            sched.clauses.push(clause);
        }
        sched
    }

    /// The textual form of the fault program (the `--chaos-spec`
    /// grammar): clauses joined by `;`, each
    /// `kind(args)[@target][[from..until]]`. Round-trips exactly
    /// through [`parse`](ChaosSchedule::parse).
    pub fn spec(&self) -> String {
        join_clauses(&self.clauses)
    }

    /// Parses the [`spec`](ChaosSchedule::spec) grammar. The seed
    /// travels separately (`--chaos-seed`).
    pub fn parse(seed: u64, spec: &str) -> Result<ChaosSchedule, String> {
        Ok(ChaosSchedule { seed, clauses: parse_clauses(spec, parse_clause)? })
    }

    /// Compiles the schedule into a stateful injector.
    pub fn compile(&self) -> ChaosInjector {
        ChaosInjector::new(self.clone())
    }
}

impl fmt::Display for ChaosSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={} {}", self.seed, self.spec())
    }
}

fn parse_clause(raw: &str) -> Result<Clause, String> {
    let (head, from, until) = split_window(raw)?;
    // Split off the target suffix `@target`.
    let (call, target) = match head.split_once('@') {
        Some((call, target)) => (call, parse_target(target)?),
        None => (head, ChaosTarget::All),
    };
    let (kind, args) = parse_call(call)?;
    let need = |n: usize| {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!("`{kind}` takes {n} argument(s), got {}", args.len()))
        }
    };
    let fault = match kind {
        "loss" => {
            need(1)?;
            Fault::Loss { rate: parse_prob(args[0])? }
        }
        "burst" => {
            need(3)?;
            Fault::Burst {
                loss: parse_prob(args[0])?,
                p_bad: parse_prob(args[1])?,
                p_recover: parse_prob(args[2])?,
            }
        }
        "dup" => {
            need(1)?;
            Fault::Duplicate { rate: parse_prob(args[0])? }
        }
        "reorder" => {
            need(2)?;
            Fault::Reorder { rate: parse_prob(args[0])?, max_delay: parse_dur(args[1])? }
        }
        "corrupt" => {
            need(1)?;
            Fault::Corrupt { rate: parse_prob(args[0])? }
        }
        "flap" => {
            need(2)?;
            Fault::Flap { down: parse_dur(args[0])?, up: parse_dur(args[1])? }
        }
        "cmdloss" => {
            need(1)?;
            Fault::CommandLoss { rate: parse_prob(args[0])? }
        }
        "portfail" => {
            need(0)?;
            Fault::PortFail
        }
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok(Clause { fault, target, from, until })
}

fn parse_target(s: &str) -> Result<ChaosTarget, String> {
    let s = s.trim();
    if s == "all" {
        return Ok(ChaosTarget::All);
    }
    if let Some(c) = s.strip_prefix("cab") {
        return Ok(ChaosTarget::Cab(c.parse().map_err(|_| format!("bad target `{s}`"))?));
    }
    if let Some(rest) = s.strip_prefix("hub") {
        let (h, p) = rest.split_once('.').ok_or_else(|| format!("bad target `{s}`"))?;
        return Ok(ChaosTarget::HubPort {
            hub: h.parse().map_err(|_| format!("bad target `{s}`"))?,
            port: p.parse().map_err(|_| format!("bad target `{s}`"))?,
        });
    }
    Err(format!("bad target `{s}` (want all, cabN, or hubH.P)"))
}

/// What the injector decided for one arriving packet. `drop` excludes
/// every other effect; otherwise duplication, corruption, and delay
/// compose.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PacketVerdict {
    /// The packet vanishes.
    pub drop: bool,
    /// The receiver gets a second copy.
    pub duplicate: bool,
    /// `(byte index, bit)` to flip, bounded by the packet length.
    pub corrupt: Option<(usize, u8)>,
    /// Extra delay before the packet reaches the receiver (reordering:
    /// later traffic overtakes it).
    pub delay: Option<Dur>,
}

/// Applied-fault counters, by category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Packets dropped by i.i.d. loss clauses.
    pub drops: u64,
    /// Packets dropped while a burst channel was in its bad state.
    pub burst_drops: u64,
    /// Packets dropped inside a flap down-window.
    pub flap_drops: u64,
    /// Packets the receiver saw twice.
    pub duplicates: u64,
    /// Packets delayed for reordering.
    pub reorders: u64,
    /// Packets with a flipped bit.
    pub corruptions: u64,
    /// HUB command symbols destroyed.
    pub cmd_drops: u64,
    /// Items destroyed by a failed HUB input port.
    pub port_drops: u64,
}

impl ChaosStats {
    /// Every packet-destroying application (drops of all kinds).
    pub fn total_drops(&self) -> u64 {
        self.drops + self.burst_drops + self.flap_drops + self.cmd_drops + self.port_drops
    }
}

struct ClauseState {
    clause: Clause,
    /// Seed root for this clause's per-component RNG streams.
    seed: u64,
    /// One RNG stream per component (CAB index, or a hub key from
    /// [`hub_stream_key`]). Splitting the stream per component makes
    /// every draw a function of that component's own arrival order
    /// alone, so a sharded run — which interleaves *different
    /// components* differently but never reorders one component's
    /// arrivals — consumes identical streams.
    rngs: FoldMap<u32, Rng>,
    /// Gilbert–Elliott channel state per link key: `true` = bad.
    bad: FoldMap<u32, bool>,
}

/// The RNG stream for component `comp` under a clause rooted at `seed`,
/// created on first use. A free function (not a method) so callers can
/// hold it alongside a borrow of the clause's other per-link state.
fn stream(rngs: &mut FoldMap<u32, Rng>, seed: u64, comp: u32) -> &mut Rng {
    rngs.entry(comp).or_insert_with(|| {
        Rng::seed_from(seed.wrapping_add((comp as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)))
    })
}

/// Stream key for HUB-side draws, disjoint from the CAB index space.
fn hub_stream_key(hub: u8, port: u8) -> u32 {
    0x0100_0000 | ((hub as u32) << 8) | port as u32
}

/// A compiled, stateful [`ChaosSchedule`]: the world consults it on
/// every CAB packet arrival and every HUB item arrival.
pub struct ChaosInjector {
    schedule: ChaosSchedule,
    states: Vec<ClauseState>,
    stats: ChaosStats,
}

impl ChaosInjector {
    /// Compiles `schedule`. Each (clause, component) pair gets its own
    /// RNG stream derived from the master seed, the clause position,
    /// and the component id — adding a clause never perturbs the draws
    /// of the others, and traffic on one component never perturbs the
    /// draws made for another (the property sharded execution needs).
    fn new(schedule: ChaosSchedule) -> ChaosInjector {
        let states = schedule
            .clauses
            .iter()
            .enumerate()
            .map(|(i, c)| ClauseState {
                clause: *c,
                seed: schedule
                    .seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                rngs: FoldMap::default(),
                bad: FoldMap::default(),
            })
            .collect();
        ChaosInjector { schedule, states, stats: ChaosStats::default() }
    }

    /// The schedule this injector was compiled from (for replay lines).
    pub fn schedule(&self) -> &ChaosSchedule {
        &self.schedule
    }

    /// Applied-fault counters.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Decides the fate of a packet arriving on CAB `cab`'s fiber.
    /// Every matching clause is evaluated (its RNG advances) before the
    /// verdict is combined, so the draw sequence is independent of
    /// which fault wins; a drop then excludes the other effects.
    pub fn on_cab_packet(&mut self, now: Time, cab: u16, len: usize) -> PacketVerdict {
        let mut drop_iid = false;
        let mut drop_burst = false;
        let mut drop_flap = false;
        let mut v = PacketVerdict::default();
        for st in &mut self.states {
            if !st.clause.live_at(now) || !st.clause.target.matches_cab(cab) {
                continue;
            }
            let ClauseState { clause, seed, rngs, bad } = st;
            let rng = stream(rngs, *seed, cab as u32);
            match clause.fault {
                Fault::Loss { rate } => drop_iid |= rng.chance(rate),
                Fault::Burst { loss, p_bad, p_recover } => {
                    let bad = bad.entry(ChaosTarget::link_key(cab as u32)).or_insert(false);
                    if *bad {
                        if rng.chance(p_recover) {
                            *bad = false;
                        }
                    } else if rng.chance(p_bad) {
                        *bad = true;
                    }
                    if *bad && rng.chance(loss) {
                        drop_burst = true;
                    }
                }
                Fault::Duplicate { rate } => v.duplicate |= rng.chance(rate),
                Fault::Reorder { rate, max_delay } => {
                    if rng.chance(rate) {
                        let bound = max_delay.nanos().max(1);
                        v.delay = Some(Dur::from_nanos(rng.range(1..=bound)));
                    }
                }
                Fault::Corrupt { rate } => {
                    if len > 0 && rng.chance(rate) {
                        let idx = rng.range(0..=(len as u64 - 1)) as usize;
                        let bit = rng.range(0..=7) as u8;
                        v.corrupt = Some((idx, bit));
                    }
                }
                Fault::Flap { down, up } => drop_flap |= flap_down(now, clause.from, down, up),
                Fault::CommandLoss { .. } | Fault::PortFail => {}
            }
        }
        if drop_iid || drop_burst || drop_flap {
            v = PacketVerdict { drop: true, ..PacketVerdict::default() };
            if drop_iid {
                self.stats.drops += 1;
            } else if drop_burst {
                self.stats.burst_drops += 1;
            } else {
                self.stats.flap_drops += 1;
            }
        } else {
            self.stats.duplicates += u64::from(v.duplicate);
            self.stats.reorders += u64::from(v.delay.is_some());
            self.stats.corruptions += u64::from(v.corrupt.is_some());
        }
        v
    }

    /// Decides whether an item arriving at HUB `hub`, input `port` is
    /// destroyed (command loss, port failure, or a link flap).
    ///
    /// `edge` marks ports fed by a CAB, whose datalink ready-timeout
    /// recovers from a destroyed item. Trunk (HUB-to-HUB) ports have
    /// no such timer, so broad-target clauses (`all`, `cabN`) skip
    /// them; only a clause aimed at `hubH.P` explicitly kills a trunk
    /// port — and may partition the network, which is the point.
    pub fn on_hub_item(
        &mut self,
        now: Time,
        hub: u8,
        port: u8,
        is_command: bool,
        edge: bool,
    ) -> bool {
        let mut drop = false;
        for st in &mut self.states {
            if !st.clause.live_at(now) || !st.clause.target.matches_hub(hub, port) {
                continue;
            }
            if !edge && !matches!(st.clause.target, ChaosTarget::HubPort { .. }) {
                continue;
            }
            // Guard order matters: the RNG draw comes before the
            // `!drop` check so every matching clause consumes its
            // stream on every arrival (determinism contract).
            let ClauseState { clause, seed, rngs, .. } = st;
            match clause.fault {
                Fault::CommandLoss { rate }
                    if is_command
                        && stream(rngs, *seed, hub_stream_key(hub, port)).chance(rate)
                        && !drop =>
                {
                    drop = true;
                    self.stats.cmd_drops += 1;
                }
                Fault::PortFail if !drop => {
                    drop = true;
                    self.stats.port_drops += 1;
                }
                Fault::Flap { down, up } if flap_down(now, clause.from, down, up) && !drop => {
                    drop = true;
                    self.stats.flap_drops += 1;
                }
                _ => {}
            }
        }
        drop
    }

    /// `true` when some clause could destroy an item arriving at `hub`'s
    /// input `port`, at any instant: a command loss, port failure or
    /// flap aimed at it (`edge`: the port is a CAB's link). Where none
    /// can, [`on_hub_item`](ChaosInjector::on_hub_item) neither drops
    /// nor draws, so a caller may skip it for the items of a train.
    pub fn can_destroy_at(&self, hub: u8, port: u8, edge: bool) -> bool {
        self.states.iter().any(|st| {
            let target = st.clause.target;
            matches!(
                st.clause.fault,
                Fault::CommandLoss { .. } | Fault::PortFail | Fault::Flap { .. }
            ) && target.matches_hub(hub, port)
                && (edge || matches!(target, ChaosTarget::HubPort { .. }))
        })
    }
}

/// `true` when a flap clause anchored at `from` has the link down at
/// `now` (square wave: `down` then `up`, repeating).
fn flap_down(now: Time, from: Time, down: Dur, up: Dur) -> bool {
    let period = down.nanos().saturating_add(up.nanos());
    if period == 0 || down.is_zero() {
        return false;
    }
    let elapsed = now.nanos().saturating_sub(from.nanos());
    elapsed % period < down.nanos()
}

/// Greedily shrinks a violating schedule: clauses are removed and
/// parameters weakened while `still_fails` keeps returning `true` (the
/// property under test still fails). The result is locally minimal —
/// removing or weakening any single clause makes the violation vanish.
/// Runs `still_fails` O(clauses · rounds) times; rounds are capped so a
/// flaky predicate cannot loop forever.
pub fn shrink(
    schedule: &ChaosSchedule,
    mut still_fails: impl FnMut(&ChaosSchedule) -> bool,
) -> ChaosSchedule {
    let mut cur = schedule.clone();
    for _round in 0..32 {
        let mut progressed = false;
        // Pass 1: drop whole clauses.
        let mut i = 0;
        while i < cur.clauses.len() {
            if cur.clauses.len() > 1 {
                let mut cand = cur.clone();
                cand.clauses.remove(i);
                if still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                    continue;
                }
            }
            i += 1;
        }
        // Pass 2: weaken parameters clause by clause.
        for i in 0..cur.clauses.len() {
            if let Some(weaker) = weaken(&cur.clauses[i].fault) {
                let mut cand = cur.clone();
                cand.clauses[i].fault = weaker;
                if still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    cur
}

/// Halves the dominant parameter of a fault, or `None` when it is
/// already minimal.
fn weaken(fault: &Fault) -> Option<Fault> {
    const FLOOR: f64 = 0.005;
    let halve = |r: f64| if r > FLOOR { Some(r / 2.0) } else { None };
    match *fault {
        Fault::Loss { rate } => halve(rate).map(|rate| Fault::Loss { rate }),
        Fault::Burst { loss, p_bad, p_recover } => {
            halve(p_bad).map(|p_bad| Fault::Burst { loss, p_bad, p_recover })
        }
        Fault::Duplicate { rate } => halve(rate).map(|rate| Fault::Duplicate { rate }),
        Fault::Reorder { rate, max_delay } => {
            halve(rate).map(|rate| Fault::Reorder { rate, max_delay })
        }
        Fault::Corrupt { rate } => halve(rate).map(|rate| Fault::Corrupt { rate }),
        Fault::Flap { down, up } => {
            if down.nanos() > 1_000 {
                Some(Fault::Flap { down: Dur::from_nanos(down.nanos() / 2), up })
            } else {
                None
            }
        }
        Fault::CommandLoss { rate } => halve(rate).map(|rate| Fault::CommandLoss { rate }),
        Fault::PortFail => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::mutate;
    use proptest::prelude::*;

    fn hub_port(hub: u8, port: u8) -> ChaosTarget {
        ChaosTarget::HubPort { hub, port }
    }

    /// `fault` scoped to `target`, for all time.
    fn at(target: ChaosTarget, fault: Fault) -> Clause {
        Clause { target, ..Clause::new(fault) }
    }

    #[test]
    fn spec_roundtrips_every_clause_kind() {
        let sched = ChaosSchedule::new(9)
            .with(Clause::new(Fault::Loss { rate: 0.05 }))
            .with(at(ChaosTarget::Cab(2), Fault::Burst { loss: 0.5, p_bad: 0.01, p_recover: 0.25 }))
            .with(Clause::new(Fault::Duplicate { rate: 0.02 }))
            .with(Clause::new(Fault::Reorder { rate: 0.1, max_delay: Dur::from_micros(50) }))
            .with(at(ChaosTarget::Cab(0), Fault::Corrupt { rate: 0.01 }))
            .with(Clause {
                from: Time::from_millis(1),
                until: Time::from_millis(4),
                ..Clause::new(Fault::Flap {
                    down: Dur::from_micros(200),
                    up: Dur::from_micros(800),
                })
            })
            .with(at(hub_port(0, 1), Fault::CommandLoss { rate: 0.03 }))
            .with(Clause { until: Time::from_micros(1500), ..at(hub_port(1, 3), Fault::PortFail) });
        let spec = sched.spec();
        let back = ChaosSchedule::parse(9, &spec).expect("parse");
        assert_eq!(back, sched, "spec `{spec}` did not round-trip");
        assert_eq!(back.spec(), spec, "re-rendering changed the spec");
        // An empty argument list is no argument, as for a bare kind.
        let spelled = spec.replace("portfail", "portfail()");
        assert_eq!(ChaosSchedule::parse(9, &spelled).expect("portfail()"), sched);
    }

    proptest! {
        #[test]
        fn random_schedules_round_trip(seed in any::<u64>(), cabs in 0u16..64) {
            let sched = ChaosSchedule::random(seed, cabs);
            let back = ChaosSchedule::parse(seed, &sched.spec())
                .unwrap_or_else(|e| panic!("`{}`: {e}", sched.spec()));
            prop_assert_eq!(back, sched);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// A valid spec edited with tokens of the grammar's alphabet
        /// never panics the parser, and whatever parses prints back to
        /// an equal schedule.
        #[test]
        fn parse_never_panics(
            seed in any::<u64>(),
            bytes in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let text = mutate(&ChaosSchedule::random(seed, 8).spec(), &bytes, &[
                "loss", "burst", "dup", "reorder", "corrupt", "flap", "cmdloss", "portfail",
                "all", "cab", "hub",
            ]);
            if let Ok(sched) = ChaosSchedule::parse(3, &text) {
                let back = ChaosSchedule::parse(3, &sched.spec())
                    .unwrap_or_else(|e| panic!("`{text}` printed as `{}`: {e}", sched.spec()));
                prop_assert_eq!(back, sched);
            }
        }
    }

    #[test]
    fn random_schedules_are_reproducible() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = ChaosSchedule::random(seed, 4);
            let b = ChaosSchedule::random(seed, 4);
            assert_eq!(a, b);
            assert_eq!(a.spec(), b.spec());
            assert!(!a.clauses.is_empty());
        }
        assert_ne!(ChaosSchedule::random(1, 4), ChaosSchedule::random(2, 4));
    }

    #[test]
    fn injector_verdicts_are_deterministic() {
        let sched = ChaosSchedule::random(77, 4);
        let mut a = sched.compile();
        let mut b = sched.compile();
        for i in 0..500u64 {
            let now = Time::from_micros(i * 3);
            let cab = (i % 4) as u16;
            assert_eq!(a.on_cab_packet(now, cab, 1024), b.on_cab_packet(now, cab, 1024));
            assert_eq!(
                a.on_hub_item(now, 0, (i % 8) as u8, i % 3 == 0, true),
                b.on_hub_item(now, 0, (i % 8) as u8, i % 3 == 0, true)
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let sched = ChaosSchedule::new(5).with(Clause::new(Fault::Loss { rate: 0.2 }));
        let mut inj = sched.compile();
        let mut drops = 0;
        for i in 0..10_000u64 {
            if inj.on_cab_packet(Time::from_nanos(i), 0, 64).drop {
                drops += 1;
            }
        }
        assert!((1_500..2_500).contains(&drops), "drops {drops} far from 20%");
        assert_eq!(inj.stats().drops, drops);
    }

    #[test]
    fn burst_loss_clusters() {
        let sched = ChaosSchedule::new(11).with(Clause::new(Fault::Burst {
            loss: 1.0,
            p_bad: 0.01,
            p_recover: 0.2,
        }));
        let mut inj = sched.compile();
        let fates: Vec<bool> =
            (0..20_000u64).map(|i| inj.on_cab_packet(Time::from_nanos(i), 0, 64).drop).collect();
        let drops = fates.iter().filter(|&&d| d).count();
        assert!(drops > 0, "bad state never entered");
        // Burstiness: a drop is followed by another drop far more often
        // than the marginal rate predicts.
        let pairs = fates.windows(2).filter(|w| w[0]).count();
        let runs = fates.windows(2).filter(|w| w[0] && w[1]).count();
        assert!(
            runs as f64 / pairs as f64 > 2.0 * drops as f64 / fates.len() as f64,
            "loss is not bursty: P(drop|drop)={} marginal={}",
            runs as f64 / pairs as f64,
            drops as f64 / fates.len() as f64
        );
    }

    #[test]
    fn flap_windows_are_deterministic_squares() {
        let clause =
            Clause::new(Fault::Flap { down: Dur::from_micros(100), up: Dur::from_micros(300) });
        let sched = ChaosSchedule::new(1).with(clause);
        let mut inj = sched.compile();
        assert!(inj.on_cab_packet(Time::from_micros(50), 0, 64).drop, "inside down window");
        assert!(!inj.on_cab_packet(Time::from_micros(200), 0, 64).drop, "inside up window");
        assert!(inj.on_cab_packet(Time::from_micros(450), 0, 64).drop, "next period's down");
    }

    #[test]
    fn windows_and_targets_scope_clauses() {
        let sched = ChaosSchedule::new(3).with(Clause {
            from: Time::from_micros(10),
            until: Time::from_micros(20),
            ..at(ChaosTarget::Cab(1), Fault::Loss { rate: 1.0 })
        });
        let mut inj = sched.compile();
        assert!(!inj.on_cab_packet(Time::from_micros(15), 0, 64).drop, "other cab untouched");
        assert!(!inj.on_cab_packet(Time::from_micros(5), 1, 64).drop, "before the window");
        assert!(inj.on_cab_packet(Time::from_micros(15), 1, 64).drop, "in scope");
        assert!(!inj.on_cab_packet(Time::from_micros(25), 1, 64).drop, "after the window");
    }

    #[test]
    fn port_fail_and_command_loss_hit_hub_items() {
        let sched = ChaosSchedule::new(4)
            .with(at(hub_port(0, 2), Fault::PortFail))
            .with(at(hub_port(1, 0), Fault::CommandLoss { rate: 1.0 }));
        let mut inj = sched.compile();
        assert!(inj.on_hub_item(Time::ZERO, 0, 2, false, true), "dead port eats packets");
        assert!(inj.on_hub_item(Time::ZERO, 0, 2, true, true), "dead port eats commands");
        assert!(!inj.on_hub_item(Time::ZERO, 0, 3, false, true), "other ports live");
        assert!(inj.on_hub_item(Time::ZERO, 1, 0, true, true), "command loss eats commands");
        assert!(!inj.on_hub_item(Time::ZERO, 1, 0, false, true), "command loss spares packets");
        assert_eq!(inj.stats().port_drops, 2);
        assert_eq!(inj.stats().cmd_drops, 1);
    }

    #[test]
    fn broad_clauses_spare_trunk_ports() {
        // A flap over `all` must not black-hole HUB-to-HUB trunks
        // (there is no ready-timeout to recover them); an explicitly
        // targeted portfail still does.
        let sched = ChaosSchedule::new(5)
            .with(Clause::new(Fault::Flap { down: Dur::from_millis(1), up: Dur::from_micros(1) }))
            .with(at(hub_port(2, 7), Fault::PortFail));
        let mut inj = sched.compile();
        assert!(inj.on_hub_item(Time::ZERO, 0, 1, false, true), "flap hits edge ports");
        assert!(!inj.on_hub_item(Time::ZERO, 0, 1, false, false), "flap spares trunks");
        assert!(inj.on_hub_item(Time::ZERO, 2, 7, false, false), "targeted portfail kills trunks");
    }

    #[test]
    fn corruption_point_is_bounded_by_length() {
        let sched = ChaosSchedule::new(8).with(Clause::new(Fault::Corrupt { rate: 1.0 }));
        let mut inj = sched.compile();
        for len in [1usize, 2, 64, 1024] {
            let v = inj.on_cab_packet(Time::ZERO, 0, len);
            let (idx, bit) = v.corrupt.expect("rate 1.0 always corrupts");
            assert!(idx < len);
            assert!(bit < 8);
        }
        assert_eq!(inj.on_cab_packet(Time::ZERO, 0, 0).corrupt, None, "empty packets exempt");
    }

    #[test]
    fn drop_excludes_other_effects() {
        let sched = ChaosSchedule::new(6)
            .with(Clause::new(Fault::Loss { rate: 1.0 }))
            .with(Clause::new(Fault::Duplicate { rate: 1.0 }))
            .with(Clause::new(Fault::Corrupt { rate: 1.0 }));
        let mut inj = sched.compile();
        let v = inj.on_cab_packet(Time::ZERO, 0, 64);
        assert!(v.drop);
        assert!(!v.duplicate);
        assert_eq!(v.corrupt, None);
        assert_eq!(v.delay, None);
        assert_eq!(inj.stats().duplicates, 0, "excluded effects are not counted");
    }

    #[test]
    fn shrink_reaches_a_minimal_program() {
        // The "violation": any schedule containing a dup clause with
        // rate above 0.01 fails.
        let fails = |s: &ChaosSchedule| {
            s.clauses.iter().any(|c| matches!(c.fault, Fault::Duplicate { rate } if rate > 0.01))
        };
        let sched = ChaosSchedule::new(2)
            .with(Clause::new(Fault::Loss { rate: 0.2 }))
            .with(Clause::new(Fault::Duplicate { rate: 0.64 }))
            .with(Clause::new(Fault::Flap { down: Dur::from_millis(1), up: Dur::from_millis(1) }));
        assert!(fails(&sched));
        let min = shrink(&sched, fails);
        assert!(fails(&min), "shrinking must preserve the violation");
        assert_eq!(min.clauses.len(), 1, "irrelevant clauses removed: {}", min.spec());
        match min.clauses[0].fault {
            Fault::Duplicate { rate } => {
                assert!(rate > 0.01 && rate <= 0.02, "rate weakened to the boundary: {rate}")
            }
            ref f => panic!("wrong surviving clause: {f:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense(1)",
            "loss",
            "loss(0.1,0.2)",
            "loss(x)",
            "reorder(0.1,10)",
            "loss(0.1)@hub0",
            "loss(0.1)[1ms..",
            // Empty windows: a clause that is never live.
            "loss(0.1)[5ms..1ms]",
            "loss(0.1)[1ms..1ms]",
            "burst(0.5)",
            // Hardened number validation: out-of-range and non-finite
            // rates used to parse into nonsense schedules.
            "loss(1.5)",
            "loss(NaN)",
            "loss(-0.1)",
            "loss(inf)",
            "dup(2.0)",
            "corrupt(-1)",
            "burst(1.5,0.1,0.1)",
            // Duration overflow used to wrap silently.
            "flap(99999999999999s,1s)",
            "loss(0.1)[99999999999999s..]",
        ] {
            assert!(ChaosSchedule::parse(0, bad).is_err(), "`{bad}` should not parse");
        }
    }
}
