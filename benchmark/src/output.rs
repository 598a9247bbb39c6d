//! Output: the contract's one-line JSON result on stdout, the readable
//! table on stderr, and the detailed JSON files under `benchmark/out/`.

use crate::run::{loadavg, Measured, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// A JSON number: finite values as Rust prints them (all digits, never
/// an exponent), anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn contract_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The readable report: every metric by name with its unit.
pub fn human(r: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} [{}] seed {}{} ==",
        r.workload,
        if r.traced { "traced: per-layer" } else { "untraced: end-to-end" },
        r.options.seed,
        if r.options.quick { " (quick)" } else { "" }
    );
    for m in &r.metrics {
        let spread = m
            .spread
            .map_or(String::new(), |(q1, q3, n)| format!("  [q1 {q1:.6} q3 {q3:.6} n {n}]"));
        let _ = writeln!(
            out,
            "  {:<34} {:>18.6} {:<7} {:<6}{spread}",
            m.name,
            m.value,
            m.unit,
            m.better.label()
        );
    }
    let _ = writeln!(
        out,
        "  sim_digest {:016x}  ops attempted {} failed {}{}",
        r.sim_digest,
        r.attempted,
        r.failed,
        if r.noisy { "  NOISY (IQR/median of the repetitions > 0.10)" } else { "" }
    );
    if r.correct() {
        let _ = writeln!(out, "  output checks: pass");
    }
    for f in &r.failures {
        let _ = writeln!(out, "  OUTPUT CHECK FAILED: {f}");
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The `host` block: what the numbers were taken on.
pub fn host_json(seed: u64, loadavg_before: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"loadavg_before\": {}, \"loadavg_after\": {}, \"rustc\": {}, \"git_commit\": {}, \"seed\": {seed}}}",
        num(loadavg_before),
        num(loadavg()),
        quote(&command_line("rustc", &["--version"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

/// The detailed JSON of one run (medians with quartiles and `n`, the
/// digest, the checks, the noisy flag, the host block).
pub fn detail_json(r: &Report, host: &str) -> String {
    let metric = |m: &Measured| {
        let spread = m.spread.map_or(String::new(), |(q1, q3, n)| {
            format!(", \"q1\": {}, \"q3\": {}, \"n\": {n}", num(q1), num(q3))
        });
        format!(
            "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}{spread}}}",
            quote(m.name),
            num(m.value),
            quote(m.unit),
            quote(m.better.label())
        )
    };
    let metrics: Vec<String> = r.metrics.iter().map(metric).collect();
    let failures: Vec<String> = r.failures.iter().map(|f| quote(f)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"traced\": {},\n  \"quick\": {},\n  \"host\": {host},\n  \"correct\": {},\n  \"failures\": [{}],\n  \"attempted\": {},\n  \"failed\": {},\n  \"sim_digest\": \"{:016x}\",\n  \"noisy\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        quote(r.workload),
        r.traced,
        r.options.quick,
        r.correct(),
        failures.join(", "),
        r.attempted,
        r.failed,
        r.sim_digest,
        r.noisy,
        metrics.join(",\n")
    )
}

/// `benchmark/out/`, next to the crate's manifest. `cargo run` exports
/// the manifest directory at run time; the build-time value covers a
/// binary started directly.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

/// Path of one run's detailed JSON.
pub fn detail_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!("{workload}.trace{}.json", traced as u8))
}

/// Writes the detailed JSON and, for traced runs, the Chrome trace.
pub fn write_files(r: &Report, host: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(detail_path(r.workload, r.traced), detail_json(r, host))?;
    if let Some(trace) = &r.trace_json {
        std::fs::write(out_dir().join(format!("trace-{}.json", r.workload)), trace)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1e-9), "0.000000001");
    }
}
