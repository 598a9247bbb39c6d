//! Workload programs: seeded, deterministic, replayable traffic
//! generators.
//!
//! The paper's evaluation (§6) ran hand-coded traffic; this module
//! gives traffic the same treatment chaos fault programs got. A
//! [`WorkloadSpec`] is a small program of traffic [`ClassSpec`]s —
//! open-loop classes fire flows from an arrival process
//! ([`Arrival`]: Poisson, deterministic, Pareto-bursty on/off);
//! closed-loop classes circulate a fixed token population, re-arming
//! a token whenever its message is delivered. Each class draws flow
//! sizes from a [`SizeDist`] and destinations from a communication
//! [`Matrix`] (uniform, hotspot, incast, nearest-neighbor over the
//! topology's clusters, all-reduce ring), and carries its traffic
//! over one of the three transports.
//!
//! Two of the properties chaos programs guarantee are contractual
//! here:
//!
//! * **Determinism** — every `(class, source CAB)` pair draws from its
//!   own RNG stream derived from the spec seed, so a draw is a
//!   function of that CAB's own flow sequence alone. A sharded run
//!   interleaves *different* CABs differently but never reorders one
//!   CAB's sequence, so it consumes identical streams and produces
//!   bit-identical traffic.
//! * **Replayability** — a spec round-trips through its textual form
//!   (the `--workload` grammar), which is what `Display` prints next
//!   to the seed.
//!
//! # Grammar
//!
//! Classes joined by `;`, each with an optional `[from..until]`
//! window (omitted = all time; an empty `until` = forever):
//!
//! ```text
//! open(ARRIVAL,SIZE,MATRIX,TRANSPORT)[from..until]
//! closed(TOKENS,THINK,SIZE,MATRIX,TRANSPORT)[from..until]
//!
//! ARRIVAL   := poisson(MEAN) | det(EVERY) | bursty(MEAN,ON,OFF)
//! SIZE      := fixed(BYTES) | uniform(LO,HI) | pareto(MEAN,SHAPE)
//! MATRIX    := uniform | hotspot(P,cabN) | incast(cabN) | neighbor | ring
//! TRANSPORT := datagram | stream | rpc
//! ```
//!
//! Durations take `ns`/`us`/`ms`/`s` suffixes; probabilities must lie
//! in `[0, 1]` (the hardened `crate::spec` helpers reject NaN,
//! negatives, and overflow).
//!
//! # Examples
//!
//! ```
//! use nectar_sim::workload::WorkloadSpec;
//!
//! let text = "closed(8,0ns,fixed(64),ring,datagram)[0ns..1ms]";
//! let spec = WorkloadSpec::parse(7, text).unwrap();
//! assert_eq!(spec.to_string(), format!("seed=7 {text}"));
//! ```

use crate::rng::Rng;
use crate::spec::{
    fmt_dur, fmt_window, join_clauses, parse_call, parse_clauses, parse_dur, parse_prob,
    split_window,
};
use crate::time::{Dur, Time};
use std::collections::HashMap;
use std::fmt;

/// Largest flow the grammar accepts, in bytes. Wire headers carry a
/// `u16` payload length; staying under it keeps every flow a single
/// datagram-transport message.
pub const MAX_FLOW_BYTES: u32 = 60_000;

/// Most token population a single closed class may give one source.
const MAX_TOKENS: u32 = 65_536;

/// Most classes one spec may hold (bounds the mailbox id range the
/// world reserves for workload traffic).
const MAX_CLASSES: usize = 256;

/// Which transport a class drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Unreliable datagrams (fire and forget).
    Datagram,
    /// The reliable byte stream.
    Stream,
    /// Request–response: the receiver answers, and a closed-loop
    /// token re-arms only when the *reply* lands back at the caller.
    Rpc,
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Transport::Datagram => "datagram",
            Transport::Stream => "stream",
            Transport::Rpc => "rpc",
        })
    }
}

/// An open-loop arrival process (inter-arrival times per source CAB).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Poisson arrivals: exponential inter-arrival times.
    Poisson {
        /// Mean inter-arrival time.
        mean: Dur,
    },
    /// Deterministic arrivals.
    Det {
        /// Fixed inter-arrival time.
        every: Dur,
    },
    /// Pareto-bursty on/off: Poisson arrivals during heavy-tailed ON
    /// phases, silence during heavy-tailed OFF phases.
    Bursty {
        /// Mean inter-arrival time while ON.
        mean: Dur,
        /// Mean ON-phase length (Pareto, shape 1.5).
        on: Dur,
        /// Mean OFF-phase length (Pareto, shape 1.5).
        off: Dur,
    },
}

impl fmt::Display for Arrival {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arrival::Poisson { mean } => write!(f, "poisson({})", fmt_dur(*mean)),
            Arrival::Det { every } => write!(f, "det({})", fmt_dur(*every)),
            Arrival::Bursty { mean, on, off } => {
                write!(f, "bursty({},{},{})", fmt_dur(*mean), fmt_dur(*on), fmt_dur(*off))
            }
        }
    }
}

/// A flow-size distribution, in bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeDist {
    /// Every flow the same size.
    Fixed(u32),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Smallest flow.
        lo: u32,
        /// Largest flow.
        hi: u32,
    },
    /// Heavy-tailed (bounded Pareto, clamped to
    /// `[1, MAX_FLOW_BYTES]`).
    Pareto {
        /// Mean flow size.
        mean: u32,
        /// Tail index; must exceed 1 for the mean to exist.
        shape: f64,
    },
}

impl SizeDist {
    /// The largest flow this distribution can draw.
    pub fn largest(self) -> u32 {
        match self {
            SizeDist::Fixed(b) => b,
            SizeDist::Uniform { hi, .. } => hi,
            SizeDist::Pareto { .. } => MAX_FLOW_BYTES,
        }
    }
}

impl fmt::Display for SizeDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeDist::Fixed(b) => write!(f, "fixed({b})"),
            SizeDist::Uniform { lo, hi } => write!(f, "uniform({lo},{hi})"),
            SizeDist::Pareto { mean, shape } => write!(f, "pareto({mean},{shape})"),
        }
    }
}

/// A communication matrix: which destination each flow picks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Matrix {
    /// Uniform over every other CAB.
    Uniform,
    /// With probability `p`, the hot CAB; otherwise uniform. The hot
    /// CAB itself always draws uniform.
    Hotspot {
        /// Probability of aiming at the hot CAB.
        p: f64,
        /// The hot CAB.
        target: u16,
    },
    /// Everyone sends to one sink (the sink returns traffic
    /// uniformly, so closed-loop tokens keep circulating).
    Incast {
        /// The sink CAB.
        target: u16,
    },
    /// Uniform over the CABs sharing the source's HUB cluster
    /// (falling back to the index-ring neighbors for lone CABs) —
    /// QCDSP-style lattice nearest-neighbor exchange.
    Neighbor,
    /// The next CAB in index order — an all-reduce ring step.
    Ring,
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Matrix::Uniform => f.write_str("uniform"),
            Matrix::Hotspot { p, target } => write!(f, "hotspot({p},cab{target})"),
            Matrix::Incast { target } => write!(f, "incast(cab{target})"),
            Matrix::Neighbor => f.write_str("neighbor"),
            Matrix::Ring => f.write_str("ring"),
        }
    }
}

/// Whether a class is open- or closed-loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Flows arrive from an [`Arrival`] process regardless of
    /// completions.
    Open {
        /// The arrival process.
        arrival: Arrival,
    },
    /// A fixed population of `tokens` flows per source CAB; each
    /// delivery re-arms its token after `think`.
    Closed {
        /// Tokens per source CAB.
        tokens: u32,
        /// Pause between a delivery and the token's next flow.
        think: Dur,
    },
}

/// One traffic class: shape, size, matrix, transport, live window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassSpec {
    /// Open- or closed-loop.
    pub shape: Shape,
    /// Flow-size distribution.
    pub size: SizeDist,
    /// Destination matrix.
    pub matrix: Matrix,
    /// Transport the flows ride.
    pub transport: Transport,
    /// First instant the class offers traffic.
    pub from: Time,
    /// First instant it no longer does (`Time::MAX` = forever).
    pub until: Time,
}

impl ClassSpec {
    /// An always-on class.
    fn new(shape: Shape, size: SizeDist, matrix: Matrix, transport: Transport) -> ClassSpec {
        ClassSpec { shape, size, matrix, transport, from: Time::ZERO, until: Time::MAX }
    }
}

impl fmt::Display for ClassSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shape {
            Shape::Open { arrival } => {
                write!(f, "open({arrival},{},{},{})", self.size, self.matrix, self.transport)?
            }
            Shape::Closed { tokens, think } => write!(
                f,
                "closed({tokens},{},{},{},{})",
                fmt_dur(think),
                self.size,
                self.matrix,
                self.transport
            )?,
        }
        fmt_window(f, self.from, self.until)
    }
}

/// A workload program: a seed and the traffic classes it drives.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Master seed every `(class, CAB)` RNG stream derives from.
    pub seed: u64,
    /// The traffic classes, applied together.
    pub classes: Vec<ClassSpec>,
}

impl WorkloadSpec {
    /// The textual form (the `--workload` grammar): classes joined by
    /// `;`. Round-trips exactly through [`parse`](WorkloadSpec::parse).
    fn spec(&self) -> String {
        join_clauses(&self.classes)
    }

    /// Parses the `--workload` grammar (see the module docs). The seed
    /// travels separately (like `--chaos-seed` for fault programs).
    pub fn parse(seed: u64, spec: &str) -> Result<WorkloadSpec, String> {
        let classes = parse_clauses(spec, parse_class)?;
        if classes.len() > MAX_CLASSES {
            return Err(format!("at most {MAX_CLASSES} classes per workload"));
        }
        Ok(WorkloadSpec { seed, classes })
    }

    /// Compiles the spec into a stateful generator over a topology
    /// with `cluster_of[cab]` naming each CAB's HUB cluster.
    pub fn compile(&self, cluster_of: Vec<u16>) -> Result<WorkloadGen, String> {
        WorkloadGen::new(self.clone(), cluster_of)
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={} {}", self.seed, self.spec())
    }
}

fn parse_size(s: &str) -> Result<SizeDist, String> {
    let (kind, args) = parse_call(s)?;
    let need = |n: usize| {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!("`{kind}` takes {n} argument(s), got {}", args.len()))
        }
    };
    let bytes = |a: &str| -> Result<u32, String> {
        let b: u32 = a.trim().parse().map_err(|_| format!("bad byte count `{a}`"))?;
        if b == 0 || b > MAX_FLOW_BYTES {
            return Err(format!("flow size `{a}` must be within [1, {MAX_FLOW_BYTES}]"));
        }
        Ok(b)
    };
    match kind {
        "fixed" => {
            need(1)?;
            Ok(SizeDist::Fixed(bytes(args[0])?))
        }
        "uniform" => {
            need(2)?;
            let (lo, hi) = (bytes(args[0])?, bytes(args[1])?);
            if lo > hi {
                return Err(format!("uniform({lo},{hi}) needs lo <= hi"));
            }
            Ok(SizeDist::Uniform { lo, hi })
        }
        "pareto" => {
            need(2)?;
            let mean = bytes(args[0])?;
            let shape = crate::spec::parse_f64(args[1])?;
            if shape <= 1.0 {
                return Err(format!("pareto shape `{shape}` must exceed 1"));
            }
            Ok(SizeDist::Pareto { mean, shape })
        }
        other => Err(format!("unknown size distribution `{other}`")),
    }
}

fn parse_cab(s: &str) -> Result<u16, String> {
    s.trim()
        .strip_prefix("cab")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad CAB `{s}` (want `cabN`)"))
}

fn parse_matrix(s: &str) -> Result<Matrix, String> {
    let (kind, args) = parse_call(s)?;
    match (kind, args.len()) {
        ("uniform", 0) => Ok(Matrix::Uniform),
        ("neighbor", 0) => Ok(Matrix::Neighbor),
        ("ring", 0) => Ok(Matrix::Ring),
        ("hotspot", 2) => {
            Ok(Matrix::Hotspot { p: parse_prob(args[0])?, target: parse_cab(args[1])? })
        }
        ("incast", 1) => Ok(Matrix::Incast { target: parse_cab(args[0])? }),
        (other, n) => Err(format!("unknown matrix `{other}` with {n} argument(s)")),
    }
}

fn parse_arrival(s: &str) -> Result<Arrival, String> {
    let (kind, args) = parse_call(s)?;
    let pos_dur = |a: &str| -> Result<Dur, String> {
        let d = parse_dur(a)?;
        if d.is_zero() {
            return Err(format!("duration `{}` must be positive", a.trim()));
        }
        Ok(d)
    };
    match (kind, args.len()) {
        ("poisson", 1) => Ok(Arrival::Poisson { mean: pos_dur(args[0])? }),
        ("det", 1) => Ok(Arrival::Det { every: pos_dur(args[0])? }),
        ("bursty", 3) => Ok(Arrival::Bursty {
            mean: pos_dur(args[0])?,
            on: pos_dur(args[1])?,
            off: pos_dur(args[2])?,
        }),
        (other, n) => Err(format!("unknown arrival `{other}` with {n} argument(s)")),
    }
}

fn parse_class(raw: &str) -> Result<ClassSpec, String> {
    let (head, from, until) = split_window(raw)?;
    let (kind, args) = parse_call(head)?;
    let (shape, rest) = match kind {
        "open" => {
            if args.len() != 4 {
                return Err(format!("`open` takes 4 arguments, got {}", args.len()));
            }
            (Shape::Open { arrival: parse_arrival(args[0])? }, &args[1..])
        }
        "closed" => {
            if args.len() != 5 {
                return Err(format!("`closed` takes 5 arguments, got {}", args.len()));
            }
            let tokens: u32 =
                args[0].trim().parse().map_err(|_| format!("bad token count `{}`", args[0]))?;
            if tokens == 0 || tokens > MAX_TOKENS {
                return Err(format!("tokens `{tokens}` must be within [1, {MAX_TOKENS}]"));
            }
            (Shape::Closed { tokens, think: parse_dur(args[1])? }, &args[2..])
        }
        other => return Err(format!("unknown class kind `{other}`")),
    };
    let class = ClassSpec::new(
        shape,
        parse_size(rest[0])?,
        parse_matrix(rest[1])?,
        match rest[2].trim() {
            "datagram" => Transport::Datagram,
            "stream" => Transport::Stream,
            "rpc" => Transport::Rpc,
            other => return Err(format!("unknown transport `{other}`")),
        },
    );
    Ok(ClassSpec { from, until, ..class })
}

// ---------------------------------------------------------------
// Presets
// ---------------------------------------------------------------

/// A named scenario from the preset registry.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    /// Registry name (`--workload NAME`).
    pub name: &'static str,
    /// Fixed seed, so the scenario replays bit-for-bit.
    pub seed: u64,
    /// The spec-grammar program.
    pub spec: &'static str,
    /// One-line description.
    pub about: &'static str,
}

/// The scenario presets: QCDSP-style lattice collectives,
/// BrainScaleS/Extoll-style spike streams, and a datacenter RPC
/// fan-out profile (see PAPERS.md).
pub const PRESETS: &[Preset] = &[
    Preset {
        name: "lattice",
        seed: 0x1A77_1CE0,
        spec: "closed(96,0ns,fixed(960),neighbor,datagram)[0ns..2ms];\
               closed(16,500ns,fixed(8192),ring,stream)[0ns..2ms]",
        about: "lattice-collective: nearest-neighbor exchange + all-reduce ring",
    },
    Preset {
        name: "spike",
        seed: 0x5B1C_E500,
        spec: "closed(1600,0ns,fixed(32),uniform,datagram)[0ns..4ms]",
        about: "spike-stream: massive small-packet fan-out (10^5 concurrent flows on 64 CABs)",
    },
    Preset {
        name: "rpc-fanout",
        seed: 0xFA_4007,
        spec: "closed(1,400us,uniform(64,256),hotspot(0.1,cab0),rpc)[0ns..2ms];\
               open(poisson(2ms),uniform(64,512),uniform,datagram)[0ns..2ms]",
        about: "datacenter RPC fan-out with a hot service + background datagrams",
    },
];

/// Looks up a preset by name and parses it. `None` for unknown names;
/// the registry's own specs always parse (covered by tests).
pub fn preset(name: &str) -> Option<WorkloadSpec> {
    let p = PRESETS.iter().find(|p| p.name == name)?;
    Some(WorkloadSpec::parse(p.seed, p.spec).expect("preset specs are valid"))
}

// ---------------------------------------------------------------
// Generator
// ---------------------------------------------------------------

/// One flow the generator asks the world to issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flow {
    /// Destination CAB (never the source).
    pub dst: u16,
    /// Payload bytes.
    pub bytes: u32,
}

/// Per-`(class, source)` generator state. The RNG stream is the
/// determinism contract: created lazily from `(spec seed, class
/// position, CAB)`, it advances only on this CAB's own draws.
#[derive(Clone, Debug)]
struct SrcState {
    rng: Rng,
    /// Bursty arrivals: ON-phase budget still unspent.
    on_left: Dur,
}

/// One class's compiled state.
#[derive(Clone, Debug)]
struct ClassState {
    spec: ClassSpec,
    /// Seed root for this class's per-CAB streams.
    seed: u64,
    streams: HashMap<u16, SrcState>,
}

/// A compiled, stateful [`WorkloadSpec`]: the world asks it for each
/// CAB's next flow and arrival delay.
#[derive(Clone, Debug)]
pub struct WorkloadGen {
    classes: Vec<ClassState>,
    /// `cluster_of[cab]` = the CAB's HUB cluster (for `neighbor`).
    cluster_of: Vec<u16>,
}

impl WorkloadGen {
    fn new(spec: WorkloadSpec, cluster_of: Vec<u16>) -> Result<WorkloadGen, String> {
        let cabs = cluster_of.len();
        if cabs < 2 {
            return Err("workloads need at least 2 CABs".into());
        }
        for class in &spec.classes {
            let target = match class.matrix {
                Matrix::Hotspot { target, .. } | Matrix::Incast { target } => target,
                _ => continue,
            };
            if target as usize >= cabs {
                return Err(format!("matrix target cab{target} outside topology ({cabs} CABs)"));
            }
        }
        let classes = spec
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| ClassState {
                spec: *c,
                seed: spec.seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                streams: HashMap::new(),
            })
            .collect();
        Ok(WorkloadGen { classes, cluster_of })
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Class `c`'s spec.
    pub fn class(&self, c: usize) -> &ClassSpec {
        &self.classes[c].spec
    }

    /// The delay from a class's window start to CAB `cab`'s first
    /// open-loop arrival (one arrival draw, so sources desynchronize).
    pub fn first_delay(&mut self, class: usize, cab: u16) -> Dur {
        let cs = &mut self.classes[class];
        let Shape::Open { arrival } = cs.spec.shape else {
            unreachable!("first_delay is open-loop only")
        };
        let st = stream(&mut cs.streams, cs.seed, cab);
        next_arrival(st, arrival)
    }

    /// CAB `cab`'s next open-loop flow and the delay to the arrival
    /// after it.
    pub fn next_open(&mut self, class: usize, cab: u16) -> (Flow, Dur) {
        let cs = &mut self.classes[class];
        let Shape::Open { arrival } = cs.spec.shape else {
            unreachable!("next_open is open-loop only")
        };
        let (size, matrix) = (cs.spec.size, cs.spec.matrix);
        let st = stream(&mut cs.streams, cs.seed, cab);
        let flow = draw_flow(st, size, matrix, cab, &self.cluster_of);
        let dt = next_arrival(st, arrival);
        (flow, dt)
    }

    /// A closed-loop flow for a token launching from (or re-arming
    /// at) CAB `cab`.
    pub fn closed_flow(&mut self, class: usize, cab: u16) -> Flow {
        let cs = &mut self.classes[class];
        let (size, matrix) = (cs.spec.size, cs.spec.matrix);
        let st = stream(&mut cs.streams, cs.seed, cab);
        draw_flow(st, size, matrix, cab, &self.cluster_of)
    }

    /// A reply size for an RPC class's auto-responder on CAB `cab`.
    pub fn reply_bytes(&mut self, class: usize, cab: u16) -> u32 {
        let cs = &mut self.classes[class];
        let size = cs.spec.size;
        let st = stream(&mut cs.streams, cs.seed, cab);
        draw_size(&mut st.rng, size)
    }
}

/// The RNG stream for CAB `cab` under a class rooted at `seed`,
/// created on first use (the same lazy-stream discipline as chaos
/// clause streams).
fn stream(streams: &mut HashMap<u16, SrcState>, seed: u64, cab: u16) -> &mut SrcState {
    streams.entry(cab).or_insert_with(|| SrcState {
        rng: Rng::seed_from(
            seed.wrapping_add((cab as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
        ),
        on_left: Dur::ZERO,
    })
}

/// An exponential draw with mean `mean`, floored at 1 ns.
fn exp_dur(rng: &mut Rng, mean: Dur) -> Dur {
    Dur::from_nanos((rng.exp(mean.nanos() as f64) as u64).max(1))
}

/// A bounded Pareto draw (shape 1.5) with the given mean, capped at
/// 100x to keep phase lengths sane.
fn pareto_dur(rng: &mut Rng, mean: Dur) -> Dur {
    let scale = mean.nanos() as f64 / 3.0; // mean = scale * a/(a-1) with a = 1.5
    let u = 1.0 - rng.f64(); // (0, 1]
    let v = scale / u.powf(1.0 / 1.5);
    Dur::from_nanos((v as u64).clamp(1, mean.nanos().saturating_mul(100)))
}

fn next_arrival(st: &mut SrcState, arrival: Arrival) -> Dur {
    match arrival {
        Arrival::Poisson { mean } => exp_dur(&mut st.rng, mean),
        Arrival::Det { every } => every,
        Arrival::Bursty { mean, on, off } => {
            let dt = exp_dur(&mut st.rng, mean);
            if st.on_left >= dt {
                st.on_left -= dt;
                return dt;
            }
            // The ON budget ran out: insert an OFF gap and start a
            // fresh heavy-tailed ON phase.
            let gap = pareto_dur(&mut st.rng, off);
            st.on_left = pareto_dur(&mut st.rng, on);
            dt + gap
        }
    }
}

fn draw_size(rng: &mut Rng, size: SizeDist) -> u32 {
    match size {
        SizeDist::Fixed(b) => b,
        SizeDist::Uniform { lo, hi } => rng.range(lo as u64..=hi as u64) as u32,
        SizeDist::Pareto { mean, shape } => {
            let scale = mean as f64 * (shape - 1.0) / shape;
            let u = 1.0 - rng.f64();
            ((scale / u.powf(1.0 / shape)) as u32).clamp(1, MAX_FLOW_BYTES)
        }
    }
}

/// A destination draw that never picks `src` itself.
fn uniform_other(rng: &mut Rng, cabs: usize, src: u16) -> u16 {
    let r = rng.range(0..=(cabs as u64 - 2)) as u16;
    if r >= src {
        r + 1
    } else {
        r
    }
}

fn draw_flow(
    st: &mut SrcState,
    size: SizeDist,
    matrix: Matrix,
    src: u16,
    cluster_of: &[u16],
) -> Flow {
    let cabs = cluster_of.len();
    let rng = &mut st.rng;
    let dst = match matrix {
        Matrix::Uniform => uniform_other(rng, cabs, src),
        Matrix::Hotspot { p, target } => {
            if src != target && rng.chance(p) {
                target
            } else {
                uniform_other(rng, cabs, src)
            }
        }
        Matrix::Incast { target } => {
            if src != target {
                target
            } else {
                uniform_other(rng, cabs, src)
            }
        }
        Matrix::Neighbor => {
            // Uniform over same-cluster peers; a lone CAB falls back
            // to its index-ring neighbors.
            let cluster = cluster_of[src as usize];
            let peers = cluster_of.iter().filter(|&&cl| cl == cluster).count() - 1;
            if peers == 0 {
                let step = if rng.chance(0.5) { 1 } else { cabs - 1 };
                ((src as usize + step) % cabs) as u16
            } else {
                let mut pick = rng.range(0..=(peers as u64 - 1)) as usize;
                let mut dst = src;
                for (c, &cl) in cluster_of.iter().enumerate() {
                    if cl == cluster && c != src as usize {
                        if pick == 0 {
                            dst = c as u16;
                            break;
                        }
                        pick -= 1;
                    }
                }
                dst
            }
        }
        Matrix::Ring => ((src as usize + 1) % cabs) as u16,
    };
    Flow { dst, bytes: draw_size(rng, size) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::mutate;
    use proptest::prelude::*;

    /// A random small workload. Regenerates bit-for-bit from `seed`;
    /// every spec it produces is valid.
    fn random_spec(seed: u64) -> WorkloadSpec {
        let mut rng = Rng::seed_from(seed ^ 0x57_4C_4F_41_44);
        let mut spec = WorkloadSpec { seed, classes: Vec::new() };
        let n = 1 + rng.range(0..=2);
        for _ in 0..n {
            let arrival = match rng.range(0..=2) {
                0 => Arrival::Poisson { mean: Dur::from_micros(1 + rng.range(0..=200)) },
                1 => Arrival::Det { every: Dur::from_micros(1 + rng.range(0..=100)) },
                _ => Arrival::Bursty {
                    mean: Dur::from_micros(1 + rng.range(0..=50)),
                    on: Dur::from_micros(10 + rng.range(0..=500)),
                    off: Dur::from_micros(10 + rng.range(0..=2_000)),
                },
            };
            let shape = if rng.chance(0.5) {
                Shape::Open { arrival }
            } else {
                Shape::Closed {
                    tokens: 1 + rng.range(0..=63) as u32,
                    think: Dur::from_nanos(rng.range(0..=2_000)),
                }
            };
            let size = match rng.range(0..=2) {
                0 => SizeDist::Fixed(1 + rng.range(0..=4_095) as u32),
                1 => {
                    let lo = 1 + rng.range(0..=1_023) as u32;
                    SizeDist::Uniform { lo, hi: lo + rng.range(0..=4_096) as u32 }
                }
                _ => SizeDist::Pareto {
                    mean: 16 + rng.range(0..=2_048) as u32,
                    shape: 1.0 + (1 + rng.range(0..=40)) as f64 / 16.0,
                },
            };
            let any_cab = || 0u16; // fixed hot/sink keeps random specs valid on tiny topologies
            let matrix = match rng.range(0..=4) {
                0 => Matrix::Uniform,
                1 => Matrix::Hotspot { p: (rng.range(1..=100) as f64) / 100.0, target: any_cab() },
                2 => Matrix::Incast { target: any_cab() },
                3 => Matrix::Neighbor,
                _ => Matrix::Ring,
            };
            let transport = match rng.range(0..=2) {
                0 => Transport::Datagram,
                1 => Transport::Stream,
                _ => Transport::Rpc,
            };
            let mut class = ClassSpec::new(shape, size, matrix, transport);
            if rng.chance(0.4) {
                let from = Time::from_micros(rng.range(0..=500));
                class.from = from;
                class.until = from + Dur::from_micros(100 + rng.range(0..=2_000));
            }
            spec.classes.push(class);
        }
        spec
    }

    #[test]
    fn canonical_specs_round_trip() {
        for s in [
            "open(poisson(50us),fixed(256),uniform,datagram)",
            "open(det(10us),uniform(64,1024),hotspot(0.25,cab3),stream)[1us..2ms]",
            "open(bursty(5us,200us,800us),pareto(512,1.4),incast(cab0),datagram)[0ns..]",
            "closed(1600,0ns,fixed(32),uniform,datagram)[0ns..4ms]",
            "closed(96,500ns,fixed(2048),neighbor,datagram);closed(16,0ns,fixed(8192),ring,stream)",
            "closed(48,1us,pareto(512,1.4),hotspot(0.15,cab0),rpc)[0ns..2ms]",
        ] {
            let spec = WorkloadSpec::parse(7, s).expect(s);
            assert_eq!(WorkloadSpec::parse(7, &spec.spec()).unwrap(), spec, "`{s}`");
        }
    }

    proptest! {
        #[test]
        fn random_specs_round_trip(seed in any::<u64>()) {
            let spec = random_spec(seed);
            let back = WorkloadSpec::parse(seed, &spec.spec())
                .unwrap_or_else(|e| panic!("`{}`: {e}", spec.spec()));
            prop_assert_eq!(back, spec);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// A valid spec edited with tokens of the grammar's alphabet
        /// never panics the parser, and whatever parses prints back to
        /// an equal spec.
        #[test]
        fn parse_never_panics(
            seed in any::<u64>(),
            bytes in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let text = mutate(&random_spec(seed).spec(), &bytes, &[
                "open", "closed", "poisson", "det", "bursty", "fixed", "uniform", "pareto",
                "hotspot", "incast", "neighbor", "ring", "cab", "datagram", "stream", "rpc",
            ]);
            if let Ok(spec) = WorkloadSpec::parse(3, &text) {
                let back = WorkloadSpec::parse(3, &spec.spec())
                    .unwrap_or_else(|e| panic!("`{text}` printed as `{}`: {e}", spec.spec()));
                prop_assert_eq!(back, spec);
            }
        }
    }

    #[test]
    fn presets_parse_and_spike_sustains_1e5_flows() {
        for p in PRESETS {
            let spec = preset(p.name).expect("registered");
            assert!(!spec.classes.is_empty(), "{}", p.name);
            assert_eq!(WorkloadSpec::parse(p.seed, &spec.spec()).unwrap(), spec);
        }
        let spike = preset("spike").unwrap();
        let tokens_per_source: u64 = spike
            .classes
            .iter()
            .map(|c| match c.shape {
                Shape::Closed { tokens, .. } => tokens as u64,
                Shape::Open { .. } => 0,
            })
            .sum();
        assert!(tokens_per_source * 64 >= 100_000, "spike must stand 1e5 flows");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense(1)",
            "open(poisson(50us),fixed(256),uniform)", // missing transport
            "open(poisson(0ns),fixed(256),uniform,datagram)", // zero mean
            "open(poisson(50us),fixed(0),uniform,datagram)", // zero bytes
            "open(poisson(50us),fixed(99999),uniform,datagram)", // oversize
            "open(poisson(50us),uniform(9,3),uniform,datagram)", // lo > hi
            "open(poisson(50us),pareto(512,0.9),uniform,datagram)", // shape <= 1
            "open(poisson(50us),pareto(512,NaN),uniform,datagram)",
            "closed(0,0ns,fixed(64),uniform,datagram)", // zero tokens
            "closed(8,0ns,fixed(64),hotspot(1.5,cab0),datagram)", // p > 1
            "closed(8,0ns,fixed(64),hotspot(0.5,hub0),datagram)", // bad target
            "closed(8,0ns,fixed(64),uniform,telepathy)", // bad transport
            "closed(8,99999999999999s,fixed(64),uniform,datagram)", // overflow think
            "closed(8,0ns,fixed(64),uniform,datagram)[2ms..1ms]", // empty window
            "closed(8,0ns,fixed(64),uniform,datagram)[1ms..", // unterminated
        ] {
            assert!(WorkloadSpec::parse(0, bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn compile_validates_targets_against_topology() {
        let spec = WorkloadSpec::parse(1, "closed(4,0ns,fixed(64),incast(cab9),datagram)").unwrap();
        assert!(spec.compile(vec![0, 0, 1, 1]).is_err(), "cab9 outside a 4-CAB topology");
        assert!(spec.compile(vec![0; 1]).is_err(), "one CAB cannot exchange traffic");
    }

    #[test]
    fn draws_are_deterministic_and_per_cab_independent() {
        let spec = WorkloadSpec::parse(
            42,
            "open(bursty(5us,100us,400us),pareto(300,1.3),hotspot(0.3,cab1),datagram)",
        )
        .unwrap();
        let cluster: Vec<u16> = (0..8).map(|i| i / 2).collect();
        let mut a = spec.compile(cluster.clone()).unwrap();
        let mut b = spec.compile(cluster.clone()).unwrap();
        // Interleave queries differently: cab 2's draws must not move.
        let from_a: Vec<(Flow, Dur)> = (0..50).map(|_| a.next_open(0, 2)).collect();
        let mut from_b = Vec::new();
        for i in 0..50 {
            let _ = b.next_open(0, (i % 3) * 2 + 1); // other CABs' traffic
            from_b.push(b.next_open(0, 2));
        }
        assert_eq!(from_a, from_b, "per-CAB streams must be query-order independent");
    }

    #[test]
    fn matrices_never_pick_self_and_respect_structure() {
        let spec = WorkloadSpec::parse(
            3,
            "closed(1,0ns,fixed(8),uniform,datagram);\
             closed(1,0ns,fixed(8),incast(cab2),datagram);\
             closed(1,0ns,fixed(8),neighbor,datagram);\
             closed(1,0ns,fixed(8),ring,datagram)",
        )
        .unwrap();
        let cluster: Vec<u16> = (0..8).map(|i| i / 4).collect();
        let mut gen = spec.compile(cluster.clone()).unwrap();
        for cab in 0..8u16 {
            for class in 0..4 {
                for _ in 0..20 {
                    let f = gen.closed_flow(class, cab);
                    assert_ne!(f.dst, cab, "class {class} picked self");
                    match class {
                        1 if cab != 2 => assert_eq!(f.dst, 2, "incast aims at the sink"),
                        2 => assert_eq!(
                            cluster[f.dst as usize], cluster[cab as usize],
                            "neighbor stays in-cluster"
                        ),
                        3 => assert_eq!(f.dst, (cab + 1) % 8, "ring steps once"),
                        _ => {}
                    }
                }
            }
        }
    }
}
