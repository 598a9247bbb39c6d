//! Result tables for the experiment harness.
//!
//! Every experiment produces a [`Table`] with a paper-reference column
//! next to the measured values, so `report` output reads like the
//! EXPERIMENTS.md index.

use std::fmt;

/// One experiment's result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "E01".
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (same arity as `columns`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (substitutions, calibration remarks).
    pub notes: Vec<String>,
    /// Simulation events processed while producing this table (0 for
    /// purely analytic experiments). Feeds the harness's events/sec
    /// accounting in `BENCH_sim.json`.
    pub events: u64,
    /// Flight-recorder events captured while the experiment ran.
    /// Populated only when the harness requested a trace.
    pub trace: Vec<nectar_sim::telemetry::TelemetryEvent>,
    /// Metrics harvested from the experiment's worlds. Populated only
    /// when the harness requested metrics.
    pub metrics: Option<nectar_sim::metrics::MetricsRegistry>,
    /// Runner/runtime counters (sharded windows, barrier waits,
    /// telemetry ring pressure). Kept apart from `metrics`, which is
    /// bit-compared across shard counts and repeats; these describe
    /// the harness, not the simulated system.
    pub runtime: Option<nectar_sim::metrics::MetricsRegistry>,
    /// Streaming-doctor outcome, when the harness ran with `--doctor`.
    pub stream: Option<StreamResult>,
    /// Scaling-doctor analysis of the host-time profile, when the
    /// harness ran with `--profile` and the experiment drove a sharded
    /// world. Host-time only — never merged into `metrics`.
    pub profile: Option<nectar_sim::profile::ProfileAnalysis>,
    /// The raw host-time spans behind `profile`, kept so `--trace`
    /// can render host tracks next to the simulated ones.
    pub host_profile: Option<nectar_sim::profile::HostProfile>,
    /// The results and event digests of every world the experiment
    /// absorbed, in absorption order. Populated only when the harness
    /// requested metrics.
    pub digests: Vec<WorldDigests>,
}

/// [`World::results_digest`](nectar_core::world::World::results_digest)
/// and [`World::event_digest`](nectar_core::world::World::event_digest)
/// of one absorbed world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorldDigests {
    /// What the world simulated.
    pub results: u64,
    /// The engine events it took.
    pub events: u64,
}

/// What the streaming doctor concluded about one experiment's worlds
/// (merged when an experiment drives several).
#[derive(Clone, Debug)]
pub struct StreamResult {
    /// Fold statistics, summed across worlds (peaks take the max).
    pub summary: nectar_sim::analysis::streaming::StreamSummary,
    /// Flights analyzed, from the final reports.
    pub flights: u64,
    /// Flights whose latency the final reports attributed to segments.
    pub attributed: u64,
    /// `false` if any world's capture was truncated.
    pub confident: bool,
    /// Every pathology finding from the final reports, in report
    /// order — the typed verdicts behind `rendered`, kept so the
    /// harness can gate on detector and severity instead of grepping
    /// rendered text.
    pub findings: Vec<nectar_sim::analysis::pathology::Finding>,
    /// The rendered doctor reports, one block per streamed world.
    pub rendered: String,
}

impl StreamResult {
    /// Folds another world's streaming outcome into this one.
    pub fn merge(
        &mut self,
        summary: &nectar_sim::analysis::streaming::StreamSummary,
        report: &nectar_sim::analysis::DoctorReport,
    ) {
        let s = &mut self.summary;
        s.events_folded += summary.events_folded;
        s.flights_seen += summary.flights_seen;
        s.flights_retired += summary.flights_retired;
        s.open_flights += summary.open_flights;
        s.late_events += summary.late_events;
        s.forced_retirements += summary.forced_retirements;
        s.peak_mem_bytes = s.peak_mem_bytes.max(summary.peak_mem_bytes);
        s.ring_hwm = s.ring_hwm.max(summary.ring_hwm);
        s.ring_dropped += summary.ring_dropped;
        self.flights += report.flights;
        self.attributed += report.critical_path.attributed;
        self.confident &= report.confident;
        self.findings.extend(report.findings.iter().cloned());
        self.rendered.push_str(&report.render());
    }
}

impl Table {
    /// Starts a table.
    pub fn new(id: &'static str, title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            events: 0,
            trace: Vec::new(),
            metrics: None,
            runtime: None,
            stream: None,
            profile: None,
            host_profile: None,
            digests: Vec::new(),
        }
    }

    /// Folds one world's streaming-doctor outcome into the table.
    pub fn absorb_stream(
        &mut self,
        summary: &nectar_sim::analysis::streaming::StreamSummary,
        report: &nectar_sim::analysis::DoctorReport,
    ) {
        let slot = self.stream.get_or_insert_with(|| StreamResult {
            summary: Default::default(),
            flights: 0,
            attributed: 0,
            confident: true,
            findings: Vec::new(),
            rendered: String::new(),
        });
        slot.merge(summary, report);
    }

    /// Accumulates simulation events into the table's counter. Call
    /// once per world the experiment drove (before dropping it).
    pub fn record_events(&mut self, n: u64) {
        self.events += n;
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch in {}", self.id);
        self.rows.push(cells.to_vec());
    }

    /// Adds a row from string slices.
    pub fn row_strs(&mut self, cells: &[&str]) {
        let owned: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&owned);
    }

    /// Adds a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{:<width$}  ", cell, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.columns)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// Formats a duration in microseconds with two decimals.
pub fn us(d: nectar_sim::time::Dur) -> String {
    format!("{:.2} us", d.as_micros_f64())
}

/// Formats a bandwidth in Mbit/s with one decimal.
pub fn mbit(b: nectar_sim::units::Bandwidth) -> String {
    format!("{:.1} Mbit/s", b.as_mbit_per_sec_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("E00", "smoke", &["metric", "paper", "measured"]);
        t.row_strs(&["setup latency", "700 ns", "700 ns"]);
        t.note("cycle-calibrated");
        let s = t.to_string();
        assert!(s.contains("E00"));
        assert!(s.contains("setup latency"));
        assert!(s.contains("note: cycle-calibrated"));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_rejected() {
        let mut t = Table::new("E00", "smoke", &["a", "b"]);
        t.row_strs(&["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(us(nectar_sim::time::Dur::from_micros(30)), "30.00 us");
        assert_eq!(mbit(nectar_sim::units::Bandwidth::from_mbit_per_sec(100)), "100.0 Mbit/s");
    }
}
