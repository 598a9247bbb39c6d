//! `nectar-doctor`: analyses over the flight recorder.
//!
//! The paper's instrumentation board (§4.1) existed because end-to-end
//! totals don't tell you *where* latency comes from — HUB queueing, CAB
//! protocol processing, or fiber serialization. This module family
//! closes the record → analyze loop over the telemetry ring and
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry):
//!
//! * [`flights`] — folds the flat event stream into per-packet
//!   [`Flight`](flights::Flight) histories.
//! * [`critical_path`] — attributes every delivered flight's latency to
//!   pipeline segments whose durations sum *exactly* to the end-to-end
//!   time, then aggregates p50/p90/p99 per segment.
//! * [`pathology`] — detectors for retransmit storms, head-of-line
//!   blocking, mailbox saturation, and silent drops, each emitting a
//!   typed [`Finding`](pathology::Finding) with evidence.
//! * [`streaming`] — the same analysis as an incremental bounded-memory
//!   fold: flights retire into online accumulators as the run
//!   progresses.
//!
//! [`diagnose`] is the front door: events + metrics in, a rendered
//! [`DoctorReport`] out. When the telemetry ring overflowed during
//! capture (`telemetry.dropped_events > 0`) — or a streaming fold
//! diverged from the capture — every finding is downgraded to
//! non-confident and the report names the reason: analyses over
//! partial data must not assert.

pub mod critical_path;
pub mod flights;
pub mod pathology;
pub mod streaming;

use crate::metrics::MetricsRegistry;
use crate::telemetry::TelemetryEvent;
use critical_path::CriticalPath;
use flights::FlightTable;
use pathology::{DoctorConfig, Finding};
use std::fmt::Write as _;

/// Everything the doctor concluded about one capture.
#[derive(Clone, Debug)]
pub struct DoctorReport {
    /// Distinct flights reconstructed from the capture.
    pub flights: u64,
    /// Telemetry events lost to ring overflow during the capture
    /// (from the `telemetry.dropped_events` counter).
    pub dropped_events: u64,
    /// `false` when any caveat applies: every finding below is then
    /// marked suspect.
    pub confident: bool,
    /// Why the analysis may not cover the whole capture, one line per
    /// cause: a truncated ring, or a streaming fold that diverged from
    /// the capture. Empty when the report is confident.
    pub caveats: Vec<String>,
    /// Per-segment latency attribution.
    pub critical_path: CriticalPath,
    /// Detected pathologies, most severe first.
    pub findings: Vec<Finding>,
}

impl DoctorReport {
    /// Assembles a report. A ring overflow recorded in `metrics` is a
    /// caveat too; any caveat marks the report and every finding
    /// non-confident.
    pub(crate) fn new(
        flights: u64,
        metrics: Option<&MetricsRegistry>,
        mut caveats: Vec<String>,
        critical_path: CriticalPath,
        mut findings: Vec<Finding>,
    ) -> DoctorReport {
        let dropped_events = metrics.map_or(0, |m| m.counter("telemetry.dropped_events"));
        if dropped_events > 0 {
            caveats.insert(
                0,
                format!("telemetry ring dropped {dropped_events} events — capture truncated"),
            );
        }
        let confident = caveats.is_empty();
        if !confident {
            for f in &mut findings {
                f.confident = false;
            }
        }
        DoctorReport { flights, dropped_events, confident, caveats, critical_path, findings }
    }

    /// Renders the report: the caveats, the "where did the time go"
    /// table, then the findings (or a clean bill of health).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for caveat in &self.caveats {
            let _ = writeln!(out, "  !! {caveat}, findings are suspect");
        }
        out.push_str(&self.critical_path.render());
        if self.findings.is_empty() {
            let _ = writeln!(out, "  findings: none");
        } else {
            let _ = writeln!(out, "  findings:");
            for f in &self.findings {
                let _ = writeln!(out, "    {f}");
            }
        }
        out
    }
}

/// Runs the full analysis with default thresholds. `metrics` feeds the
/// mailbox detector and the dropped-event check; pass `None` when only
/// the event stream is available.
pub fn diagnose(events: &[TelemetryEvent], metrics: Option<&MetricsRegistry>) -> DoctorReport {
    diagnose_with(events, metrics, &DoctorConfig::default())
}

/// [`diagnose`] with explicit detector thresholds.
pub fn diagnose_with(
    events: &[TelemetryEvent],
    metrics: Option<&MetricsRegistry>,
    cfg: &DoctorConfig,
) -> DoctorReport {
    let table = FlightTable::from_events(events);
    let critical_path = CriticalPath::from_table(&table);
    let findings = pathology::detect(&table, metrics, cfg);
    DoctorReport::new(table.len() as u64, metrics, Vec::new(), critical_path, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EventKind, FlightId};
    use crate::time::Time;

    fn capture() -> Vec<TelemetryEvent> {
        let f = FlightId(1);
        vec![
            TelemetryEvent {
                at: Time::from_nanos(1_000),
                flight: f,
                kind: EventKind::TransportSend {
                    cab: 0,
                    peer: 1,
                    seq: 0,
                    bytes: 64,
                    retransmit: false,
                },
            },
            TelemetryEvent {
                at: Time::from_nanos(9_000),
                flight: f,
                kind: EventKind::AppRecv { cab: 1, mailbox: 0, bytes: 64 },
            },
        ]
    }

    #[test]
    fn clean_capture_is_confident() {
        let rep = diagnose(&capture(), None);
        assert!(rep.confident);
        assert_eq!(rep.flights, 1);
        assert_eq!(rep.critical_path.attributed, 1);
        assert!(rep.render().contains("findings: none"));
    }

    #[test]
    fn ring_overflow_downgrades_findings() {
        let mut m = MetricsRegistry::new();
        m.counter_add("telemetry.dropped_events", 17);
        m.gauge_max("mailbox.capacity_bytes", 1024.0);
        m.counter_add("cab0.mailbox_rejects", 2);
        m.gauge_max("cab0.mailbox.peak_bytes", 1024.0);
        let rep = diagnose(&capture(), Some(&m));
        assert!(!rep.confident);
        assert_eq!(rep.dropped_events, 17);
        assert!(rep.findings.iter().all(|f| !f.confident));
        assert!(rep.render().contains("capture truncated"));
    }
}
