//! Prints the paper-vs-measured table for every experiment (or a
//! selected subset named on the command line), optionally fanning the
//! experiments out over worker threads, and writes a machine-readable
//! `BENCH_sim.json` next to the report.
//!
//! The synopsis — every flag there is — is the [`USAGE`] constant, which
//! is also what a malformed invocation prints. The flags mean:
//!
//! `-h`/`--help` prints the synopsis to stdout and exits 0; `--list`
//! prints the registry and exits; `--jobs N` runs the selected
//! experiments on `N` worker threads; `--json PATH` redirects
//! `BENCH_sim.json`.
//! `--metrics` harvests every experiment's counters and latency
//! histograms into the `metrics` object of `BENCH_sim.json`.
//! `--trace EXP` records the flight recorder while experiment `EXP`
//! (one of `TRACEABLE`) runs and writes a Chrome trace-event file (load
//! it in Perfetto or `chrome://tracing`) to `--trace-out`, default
//! `trace_<EXP>.json`.
//! `--doctor` attaches `nectar-doctor` to every world the selected
//! experiments build: telemetry folds as the run goes, in bounded
//! memory, into a per-segment "where did the time go" table plus
//! pathology findings — one block per world, and a `stream` object per
//! experiment in the JSON (see `docs/observability.md`). Implies
//! `--metrics`. `--telemetry-cap N` resizes every telemetry ring and
//! `--stream-budget BYTES` caps the fold's footprint, force-retiring
//! the oldest open flights beyond it.
//! `--chaos-seed N [--chaos-spec 'PROG']` replays one exact fault
//! schedule through the chaos experiments (e25 family) — the flags a
//! failing campaign test prints. Without `--chaos-spec` the schedule
//! is regenerated from the seed.
//! `--workload SPEC|PRESET` swaps the traffic program of the workload
//! experiments (e27 family) for a registered preset or an inline spec.
//! `--shards N` runs the conservative-parallel experiments (the e26
//! scale family) with the simulated world split across `N` shard
//! threads (see DESIGN.md §11); other experiments ignore it.
//! `--repeat N` runs every selected experiment `N` times: the reported
//! wall time is the median, and the harness asserts the simulated
//! metrics are identical across repeats (wall-clock may jitter;
//! simulated results may not).
//! `--scaling` additionally measures the speedup curve — the e26
//! topologies, clean and under chaos, at a sweep of shard counts — and
//! records it as the `scaling` array of `BENCH_sim.json` together with
//! the host description (`docs/parallel.md`, "Measuring the speedup
//! curve"). If any point's results digest differs from its 1-shard
//! point's, `report` names the point and exits 1.
//! `--profile` turns on the host-time profiler for every sharded world
//! (`docs/parallel.md`, "Reading the host-time profile"): per-shard
//! phase breakdowns, parallel efficiency, the Karp–Flatt serial
//! fraction, and the scaling doctor's ranked bottleneck verdict, per
//! experiment and (with `--scaling`) per speedup-curve point. Purely
//! observational: simulated results are identical with it on or off
//! (the test `profiled_trace_has_host_tracks_and_the_same_results`
//! holds e26 to that). Combined with `--trace` on an e26 experiment,
//! the Chrome trace gains host-time tracks next to the simulated ones.
//!
//! Every experiment builds its own world, so they are embarrassingly
//! parallel: with `--jobs N` the registry is drained by `N` scoped
//! worker threads claiming indices from an atomic counter. Output
//! stays deterministic — each worker renders its table (which can be
//! sizable under `--metrics`) to a string off the lock, and the main
//! thread flushes everything once, in registry order, through a single
//! locked stdout regardless of completion order.

use nectar_bench::experiments::scale::ScalingPoint;
use nectar_bench::experiments::{ExpCtx, Experiment, TRACEABLE};
use nectar_bench::registry;
use nectar_bench::table::Table;
use nectar_sim::json::json_escape;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The synopsis: every flag [`parse_args`] accepts and nothing else (a
/// test holds the two together).
const USAGE: &str =
    "report [-h | --help] [--list] [--jobs N] [--shards N] [--repeat N] [--scaling] \
     [--profile] [--json PATH] [--metrics] [--doctor] [--telemetry-cap N] \
     [--stream-budget BYTES] [--trace EXP] [--trace-out PATH] [--chaos-seed N] \
     [--chaos-spec PROG] [--workload SPEC|PRESET] [ids... | all]";

struct Outcome {
    id: &'static str,
    table: Table,
    /// The table pre-rendered in the worker thread: rendering touches
    /// every row and metric, so under `--jobs` it happens off the main
    /// thread and the flush is a single buffered write.
    rendered: String,
    /// Median wall time across repeats.
    wall: Duration,
    /// Every repeat's wall time, in run order — `--repeat N` jitter
    /// lands in the JSON host object, not just the median.
    walls: Vec<Duration>,
}

/// The command line, checked flag by flag.
#[derive(Clone, Debug, PartialEq)]
struct Opts {
    help: bool,
    list: bool,
    jobs: usize,
    shards: usize,
    repeat: usize,
    scaling: bool,
    profile: bool,
    json_path: String,
    metrics: bool,
    doctor: bool,
    telemetry_cap: Option<usize>,
    stream_budget: Option<usize>,
    trace_id: Option<String>,
    trace_out: Option<String>,
    chaos_seed: Option<u64>,
    chaos_spec: Option<String>,
    workload: Option<String>,
    /// Experiment ids, lowercased; empty or containing `all` means the
    /// whole registry.
    ids: Vec<String>,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            help: false,
            list: false,
            jobs: 1,
            shards: 1,
            repeat: 1,
            scaling: false,
            profile: false,
            json_path: String::from("BENCH_sim.json"),
            metrics: false,
            doctor: false,
            telemetry_cap: None,
            stream_budget: None,
            trace_id: None,
            trace_out: None,
            chaos_seed: None,
            chaos_spec: None,
            workload: None,
            ids: Vec::new(),
        }
    }
}

/// The value following `flag`, or an error naming the flag.
fn flag_value(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses `flag`'s value, or names the bad token.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value `{value}` for {flag}"))
}

/// Parses `flag`'s value and rejects zero — these are counts where
/// zero means "run nothing", which is never what the caller wanted.
fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    match parse_flag(flag, value)? {
        0 => Err(format!("{flag} must be at least 1, got `{value}`")),
        n => Ok(n),
    }
}

/// Reads the command line (without the program name). An `Err` names
/// the offending flag or token — a malformed invocation must never be
/// silently reinterpreted.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts::default();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--chaos-seed" => {
                o.chaos_seed = Some(parse_flag(flag, &flag_value(flag, &mut args)?)?);
            }
            "--chaos-spec" => {
                let v = flag_value(flag, &mut args)?;
                // Validate the grammar now (the seed does not affect
                // parsing) so a typo fails before any experiment runs.
                nectar_sim::chaos::ChaosSchedule::parse(0, &v)
                    .map_err(|e| format!("--chaos-spec `{v}`: {e}"))?;
                o.chaos_spec = Some(v);
            }
            "--workload" => {
                let v = flag_value(flag, &mut args)?;
                if nectar_sim::workload::preset(&v).is_none() {
                    nectar_sim::workload::WorkloadSpec::parse(0, &v).map_err(|e| {
                        format!(
                            "--workload `{v}` is neither a registered preset nor a \
                             parsable spec: {e}"
                        )
                    })?;
                }
                o.workload = Some(v);
            }
            "--help" | "-h" => o.help = true,
            "--list" | "list" => o.list = true,
            "--jobs" | "-j" => o.jobs = parse_positive(flag, &flag_value(flag, &mut args)?)?,
            "--shards" => o.shards = parse_positive(flag, &flag_value(flag, &mut args)?)?,
            "--repeat" => o.repeat = parse_positive(flag, &flag_value(flag, &mut args)?)?,
            "--scaling" => o.scaling = true,
            "--profile" => o.profile = true,
            "--json" => o.json_path = flag_value(flag, &mut args)?,
            "--metrics" => o.metrics = true,
            "--doctor" => o.doctor = true,
            "--telemetry-cap" => {
                o.telemetry_cap = Some(parse_positive(flag, &flag_value(flag, &mut args)?)?);
            }
            "--stream-budget" => {
                o.stream_budget = Some(parse_flag(flag, &flag_value(flag, &mut args)?)?);
            }
            "--trace" => o.trace_id = Some(flag_value(flag, &mut args)?.to_lowercase()),
            "--trace-out" => o.trace_out = Some(flag_value(flag, &mut args)?),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => o.ids.push(other.to_lowercase()),
        }
    }
    // The doctor's mailbox detector reads the metrics registry.
    o.metrics |= o.doctor;
    Ok(o)
}

/// The experiments the command line names, in registry order — or what
/// is wrong with the selection, found before anything runs: a typo that
/// silently shrank the selection, or a trace of an experiment that
/// records nothing, would report success over the wrong thing.
fn select(opts: &Opts, reg: Vec<Experiment>) -> Result<Vec<Experiment>, String> {
    if let Some(tid) = &opts.trace_id {
        if !TRACEABLE.contains(&tid.as_str()) {
            return Err(format!(
                "--trace {tid}: not an experiment that records telemetry; \
                 traceable ids: {}",
                TRACEABLE.join(", ")
            ));
        }
    }
    let selected: Vec<Experiment> = if opts.ids.is_empty() || opts.ids.iter().any(|a| a == "all") {
        reg
    } else {
        let unknown: Vec<String> = opts
            .ids
            .iter()
            .filter(|a| !reg.iter().any(|(id, _, _)| *id == a.as_str()))
            .map(|a| format!("unknown experiment id `{a}`"))
            .collect();
        if !unknown.is_empty() {
            return Err(format!("{}; try --list for the registry", unknown.join(", ")));
        }
        reg.into_iter().filter(|(id, _, _)| opts.ids.iter().any(|a| a == id)).collect()
    };
    if let Some(tid) = &opts.trace_id {
        if !selected.iter().any(|(id, _, _)| id == tid) {
            return Err(format!(
                "--trace {tid} names an experiment outside the selection; try --list"
            ));
        }
    }
    Ok(selected)
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("report: {msg}");
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    });
    if opts.help {
        println!("usage: {USAGE}");
        return;
    }
    let reg = registry();
    if opts.list {
        for (id, desc, _) in &reg {
            println!("{id:>5}  {desc}");
        }
        return;
    }
    let selected = select(&opts, reg).unwrap_or_else(|msg| {
        eprintln!("report: {msg}");
        std::process::exit(1);
    });
    println!("Nectar reproduction — experiment report");
    println!("(shape reproduction: simulator seeded with the paper's constants)\n");

    let base_ctx = ExpCtx {
        metrics: opts.metrics,
        trace: false,
        chaos_seed: opts.chaos_seed,
        chaos_spec: opts.chaos_spec,
        workload: opts.workload,
        shards: opts.shards,
        stream: opts.doctor,
        telemetry_cap: opts.telemetry_cap,
        stream_budget: opts.stream_budget,
        profile: opts.profile,
    };
    let results =
        run_experiments(&selected, opts.jobs, opts.repeat, &base_ctx, opts.trace_id.as_deref());
    {
        // One write per run: the tables were rendered in the workers,
        // so the flush never interleaves with anything.
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        for r in &results {
            writeln!(out, "{}", r.rendered).expect("stdout write");
        }
    }
    if opts.doctor {
        print_doctor(&results);
    }
    if opts.profile {
        print_profile(&results);
    }
    if let Some(tid) = &opts.trace_id {
        let r = results.iter().find(|r| r.id == tid).expect("traced experiment ran");
        let path = opts.trace_out.unwrap_or_else(|| format!("trace_{tid}.json"));
        // With --profile, the traced experiment's host-time spans ride
        // along as extra tracks in the same trace file.
        let trace = nectar_sim::export::chrome_trace_with_host(
            &r.table.trace,
            r.table.host_profile.as_ref(),
        );
        match std::fs::write(&path, &trace) {
            Ok(()) => eprintln!(
                "wrote {path} ({} telemetry events{})",
                r.table.trace.len(),
                if r.table.host_profile.is_some() { ", with host-time tracks" } else { "" }
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let points = if opts.scaling {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let sweep = nectar_bench::experiments::scale::scaling_sweep(
            &[1, 2, 4, opts.shards, cores],
            opts.profile,
        );
        print_scaling(&sweep);
        sweep
    } else {
        Vec::new()
    };
    let json = render_json(&results, opts.jobs, opts.shards, opts.repeat, &points);
    match std::fs::write(&opts.json_path, &json) {
        Ok(()) => eprintln!("wrote {} ({} experiments)", opts.json_path, results.len()),
        Err(e) => eprintln!("could not write {}: {e}", opts.json_path),
    }
    let diverged = diverged_points(&points);
    if !diverged.is_empty() {
        eprintln!("report: --scaling: {}", diverged.join("; "));
        std::process::exit(1);
    }
}

/// One line per `--scaling` point whose results digest differs from its
/// 1-shard point's; empty when every point simulated the same thing.
fn diverged_points(points: &[ScalingPoint]) -> Vec<String> {
    points
        .iter()
        .filter(|p| !p.deterministic)
        .map(|p| {
            format!(
                "{} {} at {} shards{}: results digest differs from the 1-shard point's",
                p.experiment,
                p.topology,
                p.shards,
                if p.chaos { " under chaos" } else { "" }
            )
        })
        .collect()
}

/// Formats an experiment's runtime registry (runner counters, ring
/// pressure) as one line — kept visually apart from the bit-compared
/// metrics. `None` when the registry is absent or empty.
fn runtime_line(runtime: Option<&nectar_sim::metrics::MetricsRegistry>) -> Option<String> {
    let rt = runtime?;
    let counters: Vec<String> = rt.counters().map(|(k, v)| format!("{k}={v}")).collect();
    let gauges: Vec<String> = rt.gauges().map(|(k, v)| format!("{k}={v:.0}")).collect();
    if counters.is_empty() && gauges.is_empty() {
        return None;
    }
    Some(format!("  runtime (not bit-compared): {}", [gauges, counters].concat().join(" ")))
}

/// Prints [`runtime_line`] when there is anything to print.
fn print_runtime(runtime: Option<&nectar_sim::metrics::MetricsRegistry>) {
    if let Some(line) = runtime_line(runtime) {
        println!("{line}");
    }
}

/// Prints the host-time profile and the scaling doctor's verdict for
/// every experiment that drove a sharded world under `--profile`.
/// Experiments that never shard have no host profile and are listed as
/// such rather than silently skipped.
fn print_profile(results: &[Outcome]) {
    println!("host-time profile — where the wall-clock went");
    println!("=============================================");
    for r in results {
        let Some(p) = &r.table.profile else { continue };
        println!("\n{} — {} shards, {} windows", r.id, p.shards, p.windows);
        print!("{}", p.render());
    }
    let skipped: Vec<&str> =
        results.iter().filter(|r| r.table.profile.is_none()).map(|r| r.id).collect();
    if !skipped.is_empty() {
        println!("\n(no sharded run to profile for: {})", skipped.join(", "));
    }
    println!();
}

/// Prints the doctor's verdicts: per experiment the fold summary, then
/// one critical-path table and findings list per world it drove.
/// Experiments that absorb no telemetry have nothing to analyze and are
/// listed as such rather than silently skipped.
fn print_doctor(results: &[Outcome]) {
    println!("nectar-doctor — critical path and pathologies, folded per world");
    println!("===============================================================");
    for r in results {
        let Some(s) = &r.table.stream else { continue };
        let sm = &s.summary;
        println!(
            "\n{} — {} events folded, {} flights ({} retired, {} open at capture end)",
            r.id, sm.events_folded, sm.flights_seen, sm.flights_retired, sm.open_flights
        );
        println!(
            "  fold: peak {} bytes, {} forced retirements, {} late events",
            sm.peak_mem_bytes, sm.forced_retirements, sm.late_events
        );
        println!(
            "  rings: high-water mark {} of capacity, {} dropped{}",
            sm.ring_hwm,
            sm.ring_dropped,
            if s.confident { "" } else { " — NOT CONFIDENT" }
        );
        print_runtime(r.table.runtime.as_ref());
        print!("{}", s.rendered);
    }
    let skipped: Vec<&str> =
        results.iter().filter(|r| r.table.stream.is_none()).map(|r| r.id).collect();
    if !skipped.is_empty() {
        println!("\n(no telemetry capture for: {})", skipped.join(", "));
    }
    println!();
}

/// Runs every selected experiment, on `jobs` worker threads when asked,
/// and returns the outcomes in registry order. With `repeat > 1` each
/// experiment runs that many times: the reported wall time is the
/// median, and the simulated observables (events, metrics registry)
/// are asserted identical across repeats — the determinism contract
/// applied to the harness itself.
fn run_experiments(
    selected: &[Experiment],
    jobs: usize,
    repeat: usize,
    base_ctx: &ExpCtx,
    trace_id: Option<&str>,
) -> Vec<Outcome> {
    let ctx_for = |id: &str| ExpCtx { trace: trace_id == Some(id), ..base_ctx.clone() };
    let execute = |id: &'static str, run: fn(&ExpCtx) -> Table| {
        let mut walls = Vec::with_capacity(repeat);
        let mut table: Option<Table> = None;
        for _ in 0..repeat {
            let t0 = Instant::now();
            let t = run(&ctx_for(id));
            walls.push(t0.elapsed());
            if let Some(prev) = &table {
                assert_eq!(
                    prev.events, t.events,
                    "{id}: event count changed between repeats — nondeterministic experiment"
                );
                let fp = |m: &Option<nectar_sim::metrics::MetricsRegistry>| {
                    m.as_ref().map(|m| m.to_json())
                };
                assert_eq!(
                    fp(&prev.metrics),
                    fp(&t.metrics),
                    "{id}: metrics changed between repeats — nondeterministic experiment"
                );
            }
            table = Some(t);
        }
        let mut sorted = walls.clone();
        sorted.sort_unstable();
        let wall = sorted[sorted.len() / 2];
        let table = table.expect("repeat >= 1");
        // Render while still on the worker: Display walks every row,
        // note, and (under --metrics) histogram, and the result is the
        // only thing main has to push through the stdout lock.
        let mut rendered = table.to_string();
        if let Some(line) = runtime_line(table.runtime.as_ref()) {
            rendered.push_str(&line);
            rendered.push('\n');
        }
        Outcome { id, table, rendered, wall, walls }
    };
    if jobs <= 1 || selected.len() <= 1 {
        return selected.iter().map(|&(id, _, run)| execute(id, run)).collect();
    }
    let slots: Mutex<Vec<Option<Outcome>>> =
        Mutex::new((0..selected.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(selected.len()) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(id, _, run)) = selected.get(idx) else { break };
                let outcome = execute(id, run);
                slots.lock().expect("no worker panicked holding the lock")[idx] = Some(outcome);
            });
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|o| o.expect("every slot filled by a worker"))
        .collect()
}

/// The `host` member of `BENCH_sim.json`: `cores` is what the process
/// may actually use (affinity-aware) — the fact a reader needs before
/// comparing sharded wall-clock numbers. Under `--repeat N` the object
/// also carries `walls_ms` — every repeat's wall time per experiment,
/// in run order, so the jitter behind the reported median is
/// inspectable.
fn host_json(repeat: usize, results: &[Outcome]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let walls = if repeat > 1 {
        let per_exp: Vec<String> = results
            .iter()
            .map(|r| {
                let ms: Vec<String> =
                    r.walls.iter().map(|w| format!("{:.3}", w.as_secs_f64() * 1e3)).collect();
                format!("\"{}\": [{}]", json_escape(r.id), ms.join(", "))
            })
            .collect();
        format!(", \"walls_ms\": {{{}}}", per_exp.join(", "))
    } else {
        String::new()
    };
    format!("{{\"cores\": {cores}, \"repeat\": {repeat}{walls}}}")
}

/// Prints the speedup curve as a table on stdout. When the sweep was
/// profiled, every point also shows its parallel efficiency, Karp–Flatt
/// serial fraction, and the scaling doctor's primary verdict.
fn print_scaling(points: &[ScalingPoint]) {
    println!("speedup curve (per point vs its 1-shard reference)");
    let profiled = points.iter().any(|p| p.profile.is_some());
    println!(
        "{:<6} {:<18} {:>6} {:>6} {:>10} {:>9} {:>8} {:>11} {:>9}  deterministic{}",
        "exp",
        "topology",
        "shards",
        "chaos",
        "events",
        "wall",
        "speedup",
        "barrier",
        "exchanged",
        if profiled { "  eff    kf     verdict" } else { "" },
    );
    for p in points {
        let reference = points
            .iter()
            .find(|r| r.experiment == p.experiment && r.chaos == p.chaos && r.shards == 1)
            .expect("sweep always includes the 1-shard reference");
        let attribution = match &p.profile {
            Some(a) => format!(
                "  {:>5.2} {:>6.3} {}",
                a.efficiency,
                a.karp_flatt,
                a.primary().kind.label(),
            ),
            None => String::new(),
        };
        println!(
            "{:<6} {:<18} {:>6} {:>6} {:>10} {:>8.1}ms {:>7.2}x {:>9.1}ms {:>9}  {}{}",
            p.experiment,
            p.topology,
            p.shards,
            p.chaos,
            p.events,
            p.wall_s * 1e3,
            reference.wall_s / p.wall_s.max(1e-9),
            p.barrier_wait_ns as f64 / 1e6,
            p.exchanged_events,
            if p.deterministic { "yes" } else { "NO" },
            attribution,
        );
    }
    println!();
}

/// Renders the per-experiment results as `BENCH_sim.json`: wall time,
/// events processed, events/sec, and table notes for every experiment
/// plus totals,
/// the structured host description, and (under `--scaling`) the
/// measured speedup curve.
fn render_json(
    results: &[Outcome],
    jobs: usize,
    shards: usize,
    repeat: usize,
    scaling: &[ScalingPoint],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"shards\": {shards},\n"));
    s.push_str(&format!("  \"host\": {},\n", host_json(repeat, results)));
    let total_events: u64 = results.iter().map(|r| r.table.events).sum();
    let total_wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
    s.push_str(&format!("  \"total_events\": {total_events},\n"));
    s.push_str(&format!("  \"total_wall_ms\": {:.3},\n", total_wall * 1e3));
    s.push_str("  \"experiments\": [\n");
    for (i, r) in results.iter().enumerate() {
        let wall_s = r.wall.as_secs_f64();
        let eps = if wall_s > 0.0 { r.table.events as f64 / wall_s } else { 0.0 };
        let metrics = match &r.table.metrics {
            Some(m) => format!(", \"metrics\": {}", m.to_json()),
            None => String::new(),
        };
        // Runner counters and ring pressure: a sibling of "metrics",
        // never inside it, because "metrics" is the bit-compared
        // determinism fingerprint and these describe the harness.
        let runtime = match &r.table.runtime {
            Some(rt) if !rt.is_empty() => format!(", \"runtime\": {}", rt.to_json()),
            _ => String::new(),
        };
        // Host-time profile: like "runtime", a sibling of "metrics",
        // because host wall-clock is never part of the fingerprint.
        let profile = match &r.table.profile {
            Some(p) => format!(", \"profile\": {}", p.to_json()),
            None => String::new(),
        };
        let stream = match &r.table.stream {
            Some(s) => {
                let sm = &s.summary;
                // The typed doctor verdicts ride inside the stream
                // object: one entry per finding, so CI can gate on
                // detector/severity without parsing rendered text.
                let verdicts: Vec<String> = s
                    .findings
                    .iter()
                    .map(|f| {
                        format!(
                            "{{\"detector\": \"{}\", \"severity\": \"{}\", \
                             \"subject\": \"{}\", \"confident\": {}}}",
                            json_escape(f.detector),
                            f.severity,
                            json_escape(&f.subject),
                            f.confident,
                        )
                    })
                    .collect();
                format!(
                    ", \"stream\": {{\"events_folded\": {}, \"flights_seen\": {}, \
                     \"flights_retired\": {}, \"open_flights\": {}, \"late_events\": {}, \
                     \"forced_retirements\": {}, \"peak_mem_bytes\": {}, \
                     \"ring_hwm\": {}, \"ring_dropped\": {}, \"flights\": {}, \
                     \"attributed\": {}, \"confident\": {}, \"verdicts\": [{}]}}",
                    sm.events_folded,
                    sm.flights_seen,
                    sm.flights_retired,
                    sm.open_flights,
                    sm.late_events,
                    sm.forced_retirements,
                    sm.peak_mem_bytes,
                    sm.ring_hwm,
                    sm.ring_dropped,
                    s.flights,
                    s.attributed,
                    s.confident,
                    verdicts.join(", "),
                )
            }
            None => String::new(),
        };
        let notes = if r.table.notes.is_empty() {
            String::new()
        } else {
            let quoted: Vec<String> =
                r.table.notes.iter().map(|n| format!("\"{}\"", json_escape(n))).collect();
            format!(", \"notes\": [{}]", quoted.join(", "))
        };
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"title\": \"{}\", \"wall_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}{}{}{}{}{}}}{}\n",
            json_escape(r.id),
            json_escape(&r.table.title),
            wall_s * 1e3,
            r.table.events,
            eps,
            notes,
            metrics,
            runtime,
            profile,
            stream,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]");
    if !scaling.is_empty() {
        s.push_str(",\n  \"scaling\": [\n");
        for (i, p) in scaling.iter().enumerate() {
            let eps = if p.wall_s > 0.0 { p.events as f64 / p.wall_s } else { 0.0 };
            let profile = match &p.profile {
                Some(a) => format!(", \"profile\": {}", a.to_json()),
                None => String::new(),
            };
            s.push_str(&format!(
                "    {{\"experiment\": \"{}\", \"topology\": \"{}\", \"shards\": {}, \
                 \"chaos\": {}, \"events\": {}, \"wall_ms\": {:.3}, \
                 \"events_per_sec\": {eps:.0}, \"windows\": {}, \"barrier_wait_ns\": {}, \
                 \"exchanged_events\": {}, \"deterministic\": {}{}}}{}\n",
                json_escape(p.experiment),
                json_escape(p.topology),
                p.shards,
                p.chaos,
                p.events,
                p.wall_s * 1e3,
                p.windows,
                p.barrier_wait_ns,
                p.exchanged_events,
                p.deterministic,
                profile,
                if i + 1 < scaling.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]");
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    /// The flags [`USAGE`] names, in its order.
    fn usage_flags() -> Vec<&'static str> {
        USAGE
            .split(|c: char| !(c.is_ascii_alphabetic() || c == '-'))
            .filter(|w| w.starts_with('-'))
            .collect()
    }

    /// Everything `main` checks before the first experiment runs.
    fn invoke(line: &str) -> Result<Opts, String> {
        let opts = parse_args(argv(line))?;
        select(&opts, registry())?;
        Ok(opts)
    }

    #[test]
    fn every_flag_round_trips_and_usage_lists_exactly_those() {
        let d = Opts::default;
        let some = |s: &str| Some(s.to_string());
        let table: Vec<(&str, Opts)> = vec![
            ("-h", Opts { help: true, ..d() }),
            ("--help", Opts { help: true, ..d() }),
            ("--list", Opts { list: true, ..d() }),
            ("--jobs 3", Opts { jobs: 3, ..d() }),
            ("--shards 4", Opts { shards: 4, ..d() }),
            ("--repeat 2", Opts { repeat: 2, ..d() }),
            ("--scaling", Opts { scaling: true, ..d() }),
            ("--profile", Opts { profile: true, ..d() }),
            ("--json out.json", Opts { json_path: "out.json".into(), ..d() }),
            ("--metrics", Opts { metrics: true, ..d() }),
            ("--doctor", Opts { doctor: true, metrics: true, ..d() }),
            ("--telemetry-cap 4096", Opts { telemetry_cap: Some(4096), ..d() }),
            ("--stream-budget 0", Opts { stream_budget: Some(0), ..d() }),
            ("--trace E07", Opts { trace_id: some("e07"), ..d() }),
            ("--trace-out t.json", Opts { trace_out: some("t.json"), ..d() }),
            ("--chaos-seed 707", Opts { chaos_seed: Some(707), ..d() }),
            ("--chaos-spec loss(0.05)", Opts { chaos_spec: some("loss(0.05)"), ..d() }),
            ("--workload spike", Opts { workload: some("spike"), ..d() }),
        ];
        for (line, want) in &table {
            assert_eq!(parse_args(argv(line)).as_ref(), Ok(want), "{line}");
        }
        let in_usage = usage_flags();
        let in_table: Vec<&str> =
            table.iter().map(|(line, _)| line.split(' ').next().expect("a flag")).collect();
        assert_eq!(in_usage, in_table, "USAGE and the parser list different flags");
        assert_eq!(in_usage.len(), 18);

        let all = invoke("-j 2 --doctor --trace e07 --trace-out T E07 e12 list").expect("valid");
        assert_eq!(
            all,
            Opts {
                list: true,
                jobs: 2,
                doctor: true,
                metrics: true,
                trace_id: some("e07"),
                trace_out: some("T"),
                ids: vec!["e07".into(), "e12".into()],
                ..d()
            }
        );
    }

    #[test]
    fn bad_invocations_are_rejected_naming_the_flag() {
        // (command line, what the message must name)
        let table = [
            ("--stream e12", "--stream"),
            ("--compare x.json", "--compare"),
            ("--jobs", "--jobs"),
            ("e03 --trace", "--trace"),
            ("--json", "--json"),
            ("--chaos-seed", "--chaos-seed"),
            ("--jobs 0", "--jobs"),
            ("--repeat 0", "--repeat"),
            ("--telemetry-cap 0", "--telemetry-cap"),
            ("--shards abc", "--shards"),
            ("--shards -1", "--shards"),
            ("--stream-budget 1e9", "--stream-budget"),
            ("--chaos-seed 0x10", "--chaos-seed"),
            ("--chaos-spec loss(", "--chaos-spec"),
            ("--workload no-such-preset(", "--workload"),
            ("--trace e01 e01", "--trace e01"),
            ("--trace nosuch", "--trace nosuch"),
            ("--trace e07 e03", "--trace e07"),
            ("e03 e99", "`e99`"),
            ("-x", "`-x`"),
        ];
        for (line, named) in table {
            let err = invoke(line).expect_err(line);
            assert!(err.contains(named), "`{line}` rejected without naming {named}: {err}");
        }
        let err = invoke("--trace e01").expect_err("e01 records no telemetry");
        assert!(TRACEABLE.iter().all(|id| err.contains(id)), "traceable ids not listed: {err}");
    }

    /// Random argument vectors — every flag (a value-taking one may be
    /// the last token), hostile numbers, chaos and workload specs edited
    /// with grammar tokens, experiment ids — never panic `parse_args` or
    /// `select`, and every `Err` of `parse_args` names a token of the
    /// vector, as its doc promises.
    #[test]
    fn parse_args_never_panics_and_names_a_token() {
        use nectar_sim::chaos::ChaosSchedule;
        use nectar_sim::rng::Rng;
        use nectar_sim::workload::PRESETS;
        const VALUES: [&str; 6] = ["0", "-1", "18446744073709551616", "abc", "", "3"];
        const GRAMMAR: [&str; 24] = [
            "(", ")", "[", "]", ";", ",", "..", "0", "9", "ns", "us", "ms", "loss", "dup", "flap",
            "cab", "hub", "closed", "open", "fixed", "uniform", "hotspot", "ring", "rpc",
        ];
        const IDS: [&str; 6] = ["e07", "E26", "e27b", "all", "e99", "list"];
        let mut flags = usage_flags();
        flags.push("-j");
        fn pick(rng: &mut Rng, n: usize) -> usize {
            rng.range(0..=n as u64 - 1) as usize
        }
        let mut rng = Rng::seed_from(43);
        for case in 0..2_000 {
            let mut argv = Vec::new();
            for _ in 0..pick(&mut rng, 7) {
                let token = match pick(&mut rng, 4) {
                    0 | 1 => flags[pick(&mut rng, flags.len())].to_string(),
                    2 => VALUES[pick(&mut rng, VALUES.len())].to_string(),
                    _ if rng.chance(0.5) => IDS[pick(&mut rng, IDS.len())].to_string(),
                    _ => {
                        let mut spec = if rng.chance(0.5) {
                            ChaosSchedule::random(case, 8).spec()
                        } else {
                            PRESETS[pick(&mut rng, PRESETS.len())].spec.to_string()
                        };
                        for _ in 0..pick(&mut rng, 4) {
                            let at = pick(&mut rng, spec.len() + 1);
                            let token = GRAMMAR[pick(&mut rng, GRAMMAR.len())];
                            spec.replace_range(at..(at + 1).min(spec.len()), token);
                        }
                        spec
                    }
                };
                argv.push(token);
            }
            match parse_args(argv.iter().cloned()) {
                Ok(opts) => drop(select(&opts, registry())),
                Err(e) => assert!(
                    argv.iter().any(|t| !t.is_empty() && e.contains(t.as_str())),
                    "{argv:?}: `{e}` names no token of the command line"
                ),
            }
        }
    }

    #[test]
    fn a_scaling_point_whose_results_moved_is_named() {
        let point = |shards, chaos, deterministic| ScalingPoint {
            experiment: "e26",
            topology: "fat_star(8,8,16)",
            shards,
            chaos,
            events: 0,
            wall_s: 0.0,
            windows: 0,
            barrier_wait_ns: 0,
            exchanged_events: 0,
            deterministic,
            profile: None,
        };
        // (sweep, what the exit message must say)
        let table = [
            (vec![point(1, false, true), point(2, false, true)], vec![]),
            (
                vec![point(1, false, true), point(2, false, true), point(2, true, false)],
                vec![
                    "e26 fat_star(8,8,16) at 2 shards under chaos: results digest differs \
                      from the 1-shard point's",
                ],
            ),
            (
                vec![point(4, false, false), point(2, true, false)],
                vec![
                    "e26 fat_star(8,8,16) at 4 shards: results digest differs from the \
                     1-shard point's",
                    "e26 fat_star(8,8,16) at 2 shards under chaos: results digest differs \
                     from the 1-shard point's",
                ],
            ),
        ];
        for (points, want) in table {
            assert_eq!(diverged_points(&points), want);
        }
    }
}
