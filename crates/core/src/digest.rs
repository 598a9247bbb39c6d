//! Run digests: one hash for what a run simulated, one for how many
//! engine events it took.
//!
//! The two are kept apart on purpose. A change that fuses events which
//! decide nothing moves the event count and nothing else, so it must
//! leave the results digest alone and move only the event digest. The
//! golden file `docs/golden-digests.txt` pins both for a set of
//! standing scenarios.

use crate::world::Delivery;
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::time::Time;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a of `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `true` for a metric that describes what was simulated. The
/// flight-recorder counters (`telemetry.*`) and the flight latencies
/// it feeds (`latency.*`) exist only when observation is on, so they
/// describe the observation, not the system.
fn is_simulated(metric: &str) -> bool {
    !metric.starts_with("telemetry.") && !metric.starts_with("latency.")
}

/// Folds one named metric value into `h`: its name, then its value's
/// bytes (a gauge's exact bits, not its rendering).
pub fn fold_metric(h: u64, name: &str, value: [u8; 8]) -> u64 {
    fnv1a(fnv1a(h, name.as_bytes()), &value)
}

/// Every simulated counter and gauge of `reg`, in name order, as
/// `(name, value bytes)`: the metric part of the results digest.
pub fn simulated_metrics(reg: &MetricsRegistry) -> impl Iterator<Item = (&str, [u8; 8])> {
    let counters = reg.counters().map(|(name, v)| (name, v.to_le_bytes()));
    let gauges = reg.gauges().map(|(name, v)| (name, v.to_bits().to_le_bytes()));
    counters.chain(gauges).filter(|(name, _)| is_simulated(name))
}

/// The results digest: the simulated metrics of `reg`, the delivery
/// list (which the caller has put in canonical order) and the clock.
pub(crate) fn results<'a>(
    reg: &MetricsRegistry,
    deliveries: impl IntoIterator<Item = &'a Delivery>,
    clock: Time,
) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"nectar-results");
    for (name, value) in simulated_metrics(reg) {
        h = fold_metric(h, name, value);
    }
    for d in deliveries {
        for word in [d.cab as u64, d.mailbox as u64, d.msg_id, d.len as u64, d.at.nanos()] {
            h = fnv1a(h, &word.to_le_bytes());
        }
    }
    fnv1a(h, &clock.nanos().to_le_bytes())
}

/// The event digest: the engine's event count and its split by kind
/// (the `engine.events_by_kind.*` counters of `runtime`; everything
/// else there describes the runner, not the run).
pub(crate) fn events(total: u64, runtime: &MetricsRegistry) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"nectar-events");
    h = fnv1a(h, &total.to_le_bytes());
    for (name, n) in runtime.counters().filter(|(name, _)| name.starts_with("engine.")) {
        h = fold_metric(h, name, n.to_le_bytes());
    }
    h
}
