//! The harness: repetitions of one workload, the output checks, and
//! the two kinds of run the driver asks for — untraced (end-to-end
//! metrics) and traced (per-layer metrics). Knows workloads and the
//! adapter's plain-data results; knows nothing about the simulator.

use crate::ledger;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{iqr_share, quartiles};
use crate::sut::{self, DoctorOutcome, Harvest, Isolated, Sut};
use crate::workloads::{self, Workload};
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Measuring time; repetitions continue until it has passed.
    pub seconds: f64,
    /// Smoke mode: windows ÷ 20, one repetition, no isolated loops.
    pub quick: bool,
}

/// Timed repetitions an untraced run makes at least (unless `--quick`).
const MIN_REPS: usize = 3;
/// Set-up-only samples taken before the timed repetitions, so `setup_s`
/// is a median over enough samples to be steady at millisecond scale.
const SETUP_SAMPLES: usize = 40;
/// A workload whose `msgs_per_sec` IQR ÷ median exceeds this is marked
/// noisy instead of being reported silently.
const NOISY_IQR: f64 = 0.10;
/// Simulated length of one traced slice, microseconds.
const SLICE_US: u64 = 1_000;

/// Host nanoseconds of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupNs {
    pub topology: u64,
    pub parse: u64,
    pub world_new: u64,
    pub set_chaos: u64,
    pub set_workload: u64,
    pub attach: u64,
}

impl SetupNs {
    pub fn total_s(&self) -> f64 {
        (self.topology
            + self.parse
            + self.world_new
            + self.set_chaos
            + self.set_workload
            + self.attach) as f64
            / 1e9
    }
}

/// One repetition: a fresh world, set up, run to quiescence, harvested.
#[derive(Clone, Debug)]
pub struct Rep {
    pub setup: SetupNs,
    /// Wall of the timed region: the run, plus the doctor's finish on
    /// the observed workload.
    pub wall_s: f64,
    pub finish_ns: u64,
    pub harvest_ns: u64,
    pub quiescent: bool,
    pub doctor: Option<DoctorOutcome>,
    pub harvest: Harvest,
    /// Host ns of each traced slice (empty when untraced).
    pub slices_ns: Vec<u64>,
    /// Deepest event queue seen at a slice boundary (traced, sequential).
    pub pending_max: Option<usize>,
}

fn set_up(
    w: &Workload,
    opts: &Options,
    traced: bool,
    spans: &mut Spans,
) -> Result<(Sut, SetupNs), String> {
    let (traffic_seed, chaos_seed) = workloads::seeds(opts.seed);
    let traffic = w.traffic(opts.quick);
    let (topo, topology) = spans.time("setup.topology", || sut::build_topology(w.fabric));
    let (program, parse) = spans.time("setup.parse_program", || {
        sut::parse_program(&traffic, traffic_seed, w.chaos, chaos_seed)
    });
    let program = program?;
    let (mut sut, world_new) = spans.time("setup.world_new", || Sut::new(&topo, w.threads));
    let ((), set_chaos) = spans.time("setup.set_chaos", || sut.set_chaos(&program));
    let (armed, set_workload) = spans.time("setup.set_workload", || sut.set_workload(&program));
    armed?;
    // A traced repetition rides the streaming doctor on every workload:
    // it drains the recorder rings as the run goes, so the count of
    // record calls is exact without holding every event in memory.
    let ((), attach) = spans.time("setup.attach", || {
        if w.observed || traced {
            sut.attach_streaming();
        }
        if traced {
            sut.enable_tracing();
        }
    });
    Ok((sut, SetupNs { topology, parse, world_new, set_chaos, set_workload, attach }))
}

/// One full repetition. Traced repetitions run the traffic window in
/// 1 ms simulated slices and sample the queue depth between them;
/// untraced ones make a single `run_to_quiescence` call.
pub fn repetition(
    w: &Workload,
    opts: &Options,
    traced: bool,
    spans: &mut Spans,
) -> Result<Rep, String> {
    spans.next_rep();
    let rep = spans.begin(if traced { "rep.traced" } else { "rep.untraced" });
    let (mut sut, setup) = set_up(w, opts, traced, spans)?;

    let mut slices_ns = Vec::new();
    let mut pending_max = sut.pending_events();
    let timed = Instant::now();
    if traced {
        let mut until = 0;
        while until < w.window_us(opts.quick) {
            until += SLICE_US;
            let open = spans.begin("run.slice");
            let events = sut.run_slice(until);
            let pending = sut.pending_events();
            slices_ns.push(spans.end_with(open, events, pending));
            pending_max = pending_max.max(pending);
        }
    }
    let open = spans.begin(if traced { "run.tail" } else { "run.to_quiescence" });
    let quiescent = sut.run_to_quiescence();
    let tail_ns = spans.end(open);
    if traced {
        slices_ns.push(tail_ns);
    }
    let (doctor, finish_ns) = spans.time("run.finish_doctor", || sut.finish_doctor());
    let wall_s = timed.elapsed().as_secs_f64();

    let (harvest, harvest_ns) = spans.time("harvest.metrics", || sut.harvest());
    spans.time("harvest.drop_world", || drop(sut));
    spans.end(rep);
    Ok(Rep {
        setup,
        wall_s,
        finish_ns,
        harvest_ns,
        quiescent,
        doctor,
        harvest,
        slices_ns,
        pending_max,
    })
}

/// Ops attempted and failed in one repetition. An op is one offered
/// flow. It failed if an RPC client gave up on it, or if a message was
/// lost or duplicated beyond what the fault program injected (every
/// flow owes one delivery, every RPC reply one more; datagrams are
/// best-effort, so an injected drop or duplicate may each move the
/// delivery count by one).
pub fn ops(h: &Harvest) -> (u64, u64) {
    let owed = h.flows + h.replies;
    let unexplained =
        owed.abs_diff(h.deliveries).saturating_sub(h.chaos_drops + h.chaos_duplicates);
    (h.flows.max(1), (h.rpc_timeouts + unexplained).min(h.flows.max(1)))
}

/// The output checks. Returns one line per failed check.
pub fn verify(
    w: &Workload,
    untraced: &[Rep],
    traced: Option<&Rep>,
    reference: Option<&Rep>,
) -> Vec<String> {
    let mut failures = Vec::new();
    // The digest covers the event count and the makespan too.
    let first = &untraced[0];
    for (i, r) in untraced.iter().enumerate() {
        if r.harvest.digest != first.harvest.digest {
            failures.push(format!(
                "repetition {i} diverged: digest {:016x} vs {:016x}",
                r.harvest.digest, first.harvest.digest
            ));
        }
    }
    // The recorder must not change simulated results: a traced
    // repetition has the same digest (which leaves recorder-only
    // counters out) as the untraced ones.
    if let Some(t) = traced {
        if t.harvest.digest != first.harvest.digest {
            failures.push(format!(
                "traced repetition diverged: digest {:016x} vs {:016x}",
                t.harvest.digest, first.harvest.digest
            ));
        }
    }
    if let Some(reference) = reference {
        if reference.harvest.digest != first.harvest.digest {
            failures.push(format!(
                "results differ from `{}`: digest {:016x} vs {:016x}",
                w.same_results_as.unwrap_or("reference"),
                first.harvest.digest,
                reference.harvest.digest
            ));
        }
    }
    for r in untraced.iter().chain(traced) {
        if !r.quiescent || !r.harvest.transport_quiescent {
            failures.push("not quiescent by the 2 s simulated deadline".into());
        }
        if w.chaos.is_none() && (r.harvest.hub_drops_overflows > 0 || r.harvest.mailbox_rejects > 0)
        {
            failures.push(format!(
                "{} HUB drops/overflows and {} mailbox rejects with no fault injected",
                r.harvest.hub_drops_overflows, r.harvest.mailbox_rejects
            ));
        }
        if let Some(d) = r.doctor {
            if !d.confident || d.ring_dropped > 0 {
                failures.push(format!(
                    "doctor not confident ({} recorder events dropped)",
                    d.ring_dropped
                ));
            }
        } else if w.observed {
            failures.push("observed workload produced no doctor report".into());
        }
    }
    failures.dedup();
    failures
}

/// One reported number, with its spread when it is a host-time median.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// `(q1, q3, n)` of the samples behind a median.
    pub spread: Option<(f64, f64, usize)>,
}

/// Everything one invocation reports.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub options: Options,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub noisy: bool,
    pub metrics: Vec<Measured>,
    /// Chrome trace of the harness spans (traced runs).
    pub trace_json: Option<String>,
}

impl Report {
    /// A report without metrics yet. If any output check failed, every
    /// op of the workload counts as failed.
    fn new(
        w: &Workload,
        opts: &Options,
        traced: bool,
        first: &Rep,
        failures: Vec<String>,
    ) -> Report {
        let (attempted, failed) = ops(&first.harvest);
        Report {
            workload: w.name,
            traced,
            options: *opts,
            attempted,
            failed: if failures.is_empty() { failed } else { attempted },
            failures,
            sim_digest: first.harvest.digest,
            noisy: false,
            metrics: Vec::new(),
            trace_json: None,
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn check_threads(w: &Workload) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.threads > nproc {
        return Err(format!(
            "`{}` needs {} worker threads but the host offers {nproc}",
            w.name, w.threads
        ));
    }
    Ok(())
}

/// The sequential run a sharded workload must reproduce, if it names one.
fn reference_rep(w: &Workload, opts: &Options, spans: &mut Spans) -> Result<Option<Rep>, String> {
    let Some(name) = w.same_results_as else { return Ok(None) };
    let reference = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    repetition(reference, opts, false, spans).map(Some)
}

/// `--trace 0`: repetitions with recorder, profiler and slicing off,
/// until the measuring time has passed; reports the end-to-end metrics.
pub fn untraced(w: &Workload, opts: &Options) -> Result<Report, String> {
    check_threads(w)?;
    let mut spans = Spans::new();
    // `setup_s` comes first, while the process is young: the median of
    // set-up-only samples taken back to back. Taken after the timed
    // repetitions instead, the same loop ran at 3 ms in one process and
    // 14 ms in the next (whatever state the allocator was left in, worst
    // after the sharded runner's threads); taken first it repeats within
    // a few per cent, and the first, cold samples fall outside the
    // median. The repetitions' own set-ups stay visible as spans.
    let mut setups = Vec::new();
    for _ in 0..if opts.quick { 1 } else { SETUP_SAMPLES } {
        let (sut, setup) = set_up(w, opts, false, &mut spans)?;
        drop(sut);
        setups.push(setup.total_s());
    }
    let reference = reference_rep(w, opts, &mut spans)?;
    let started = Instant::now();
    let mut reps = Vec::new();
    let min_reps = if opts.quick { 1 } else { MIN_REPS };
    while reps.len() < min_reps || (!opts.quick && started.elapsed().as_secs_f64() < opts.seconds) {
        reps.push(repetition(w, opts, false, &mut spans)?);
    }
    let peak_rss_mb = peak_rss_mb();
    let failures = verify(w, &reps, None, reference.as_ref());
    let mut report = Report::new(w, opts, false, &reps[0], failures);
    let h = &reps[0].harvest;
    let rates: Vec<f64> = reps.iter().map(|r| h.deliveries as f64 / r.wall_s).collect();
    report.noisy = iqr_share(&rates) > NOISY_IQR;
    let with_spread = |samples: &[f64]| {
        let (q1, med, q3) = quartiles(samples);
        (med, Some((q1, q3, samples.len())))
    };
    let makespan_us = h.makespan_ns as f64 / 1e3;
    report.metrics = END_TO_END
        .iter()
        .map(|m| {
            let (value, spread) = match m.name {
                "msgs_per_sec" => with_spread(&rates),
                "peak_rss_mb" => (peak_rss_mb, None),
                "setup_s" => with_spread(&setups),
                "sim_makespan_us" => (makespan_us, None),
                "sim_goodput_mbps" => (h.payload_bytes as f64 * 8.0 / makespan_us, None),
                other => unreachable!("end-to-end metric `{other}` has no definition"),
            };
            Measured { name: m.name, unit: m.unit, better: m.better, value, spread }
        })
        .collect();
    Ok(report)
}

/// `--trace 1`: an untraced repetition, a traced one (recorder,
/// profiler and slicing on), further untraced ones while time remains,
/// then the isolated loops; reports the per-layer metrics.
pub fn traced(w: &Workload, opts: &Options) -> Result<Report, String> {
    check_threads(w)?;
    let loadavg = loadavg();
    let mut spans = Spans::new();
    let reference = reference_rep(w, opts, &mut spans)?;
    let started = Instant::now();
    let mut reps = vec![repetition(w, opts, false, &mut spans)?];
    let traced_rep = repetition(w, opts, true, &mut spans)?;
    while !opts.quick && started.elapsed().as_secs_f64() < opts.seconds {
        reps.push(repetition(w, opts, false, &mut spans)?);
    }
    let (isolated, isolated_ns) = if opts.quick {
        (Isolated::default(), 0)
    } else {
        let traffic = w.traffic(false);
        let (iso, ns) = spans.time("isolated.loops", || sut::isolated(w.fabric, &traffic, w.chaos));
        (iso?, ns)
    };

    let failures = verify(w, &reps, Some(&traced_rep), reference.as_ref());
    let mut report = Report::new(w, opts, true, &reps[0], failures);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    report.noisy = iqr_share(&walls) > NOISY_IQR;
    let values = ledger::per_layer(&ledger::Inputs {
        workload: w,
        untraced: &reps,
        traced: &traced_rep,
        reference_wall_s: reference.as_ref().map(|r| r.wall_s),
        isolated: &isolated,
        isolated_s: isolated_ns as f64 / 1e9,
        loadavg,
    });
    // The ledger lists its values in registry order, so one pass checks
    // both directions: nothing declared is missing, nothing undeclared
    // is produced.
    if values.len() != PER_LAYER.len() {
        return Err(format!("{} per-layer values for {} names", values.len(), PER_LAYER.len()));
    }
    for (def, (name, value)) in PER_LAYER.iter().zip(values) {
        if name != def.name {
            return Err(format!("ledger produced `{name}` where `{}` is declared", def.name));
        }
        report.metrics.push(Measured {
            name: def.name,
            unit: def.unit,
            better: def.better,
            value,
            spread: None,
        });
    }
    report.trace_json = Some(spans.chrome_trace(w.name));
    Ok(report)
}

/// `VmHWM` of this process, MB. Zero where `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average. Zero where `/proc` is not available.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}
