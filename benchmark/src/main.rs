//! The repository's standing benchmark. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! benchmark all [--seed N] [--seconds S] [--quick]
//! benchmark manifest | layers
//! ```
//!
//! The first form is what the driver runs (one workload, one process):
//! it prints the readable report on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `all` runs every workload both ways, each
//! in a fresh process of its own, and writes `out/latest.json`.

mod ledger;
mod metrics;
mod output;
mod run;
mod spans;
mod stats;
mod sut;
#[cfg(test)]
mod tests;
mod workloads;

use run::Options;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  benchmark all [--seed N] [--seconds S] [--quick]
  benchmark manifest        print BENCHMARK.json from the metric registry
  benchmark layers          print the per-layer interaction table";

/// Seed used when none is given, so that bare runs compare.
const DEFAULT_SEED: u64 = 1;

struct Cli {
    all: bool,
    manifest: bool,
    layers: bool,
    workload: Option<String>,
    trace: bool,
    options: Options,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        all: false,
        manifest: false,
        layers: false,
        workload: None,
        trace: false,
        options: Options { seed: DEFAULT_SEED, seconds: metrics::RUN_SECONDS as f64, quick: false },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "all" => cli.all = true,
            "manifest" => cli.manifest = true,
            "layers" => cli.layers = true,
            "--quick" => cli.options.quick = true,
            "--workload" => cli.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let v = value("--seed")?;
                cli.options.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds `{v}` must be within (0, 60]"));
                }
                cli.options.seconds = s;
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let modes = [cli.all, cli.manifest, cli.layers, cli.workload.is_some()];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of `all`, `manifest`, `layers` or `--workload NAME`".into());
    }
    Ok(cli)
}

/// One workload in this process. Prints the report, writes the detail
/// files, and returns whether the output checks passed.
fn run_one(name: &str, trace: bool, options: &Options) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    let loadavg_before = run::loadavg();
    let report = if trace { run::traced(w, options)? } else { run::untraced(w, options)? };
    eprint!("{}", output::human(&report));
    let host = output::host_json(options.seed, loadavg_before);
    output::write_files(&report, &host)
        .map_err(|e| format!("writing {:?}: {e}", output::out_dir()))?;
    println!("{}", output::contract_line(&report));
    Ok(report.correct())
}

/// Every workload, untraced then traced, each in a fresh process (peak
/// RSS is per process). Collects the children's detail files into
/// `out/latest.json`.
fn run_all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let loadavg_before = run::loadavg();
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in &workloads::WORKLOADS {
        let mut details = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", if trace { "1" } else { "0" }])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .stdout(Stdio::null());
            if options.quick {
                cmd.arg("--quick");
            }
            // A stale file from an earlier run must not stand in for a
            // child that failed before writing its own.
            let path = output::detail_path(w.name, trace);
            let _ = std::fs::remove_file(&path);
            let status = cmd.status().map_err(|e| format!("starting `{}`: {e}", w.name))?;
            all_correct &= status.success();
            details.push(std::fs::read_to_string(&path).unwrap_or_else(|_| "null".to_string()));
        }
        entries.push(format!(
            "{{\"name\": \"{}\", \"untraced\": {}, \"traced\": {}}}",
            w.name,
            details[0].trim_end(),
            details[1].trim_end()
        ));
    }
    let latest = format!(
        "{{\"host\": {}, \"correct\": {all_correct}, \"workloads\": [\n{}\n]}}\n",
        output::host_json(options.seed, loadavg_before),
        entries.join(",\n")
    );
    let path = output::out_dir().join("latest.json");
    std::fs::create_dir_all(output::out_dir())
        .and_then(|()| std::fs::write(&path, latest))
        .map_err(|e| format!("writing {path:?}: {e}"))?;
    eprintln!(
        "== all: {} — wrote {} ==",
        if all_correct { "every output check passed" } else { "OUTPUT CHECKS FAILED" },
        path.display()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest || cli.layers {
        print!("{}", if cli.manifest { metrics::manifest_json() } else { metrics::layers_table() });
        return ExitCode::SUCCESS;
    }
    let outcome = match &cli.workload {
        Some(name) => run_one(name, cli.trace, &cli.options),
        None => run_all(&cli.options),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
