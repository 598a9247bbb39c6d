//! HUB event counters, readable with the `read counters` supervisor
//! command and by the experiment harness.

use nectar_sim::metrics::MetricsRegistry;

/// Cumulative event counts for one HUB since power-on (or the last
/// `clear counters` supervisor command).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubCounters {
    /// Commands executed by the central controller (user + supervisor).
    pub commands_executed: u64,
    /// Open commands that made a connection.
    pub opens_succeeded: u64,
    /// Open commands that failed and were dropped (no retry flag).
    pub opens_failed: u64,
    /// Open attempts (with retry) the controller refused and parked.
    pub opens_retried: u64,
    /// Lock commands that acquired a lock.
    pub locks_acquired: u64,
    /// Packets forwarded through the crossbar (counted per input).
    pub packets_forwarded: u64,
    /// Extra packet copies emitted when one input drove several
    /// outputs at once (multicast fan-out or a stale circuit member).
    pub fanout_copies: u64,
    /// Payload bytes forwarded through the crossbar.
    pub bytes_forwarded: u64,
    /// Reply symbols forwarded along reverse paths.
    pub replies_forwarded: u64,
    /// Reply symbols dropped for lack of a reverse connection.
    pub replies_dropped: u64,
    /// Items lost to input-queue overflow.
    pub overflows: u64,
    /// Items dropped for other reasons (disabled port, bad command).
    pub drops: u64,
    /// `reset` supervisor commands executed.
    pub resets: u64,
}

impl HubCounters {
    /// All-zero counters.
    pub(crate) fn new() -> HubCounters {
        HubCounters::default()
    }

    /// Zeroes every counter (the `clear counters` command).
    pub(crate) fn clear(&mut self) {
        *self = HubCounters::default();
    }

    /// Registers every counter into `reg` under `prefix` (e.g.
    /// `hub0.`), so the harness reports from one registry instead of
    /// per-crate structs.
    pub fn register_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let fields: [(&str, u64); 13] = [
            ("commands_executed", self.commands_executed),
            ("opens_succeeded", self.opens_succeeded),
            ("opens_failed", self.opens_failed),
            ("opens_retried", self.opens_retried),
            ("locks_acquired", self.locks_acquired),
            ("packets_forwarded", self.packets_forwarded),
            ("fanout_copies", self.fanout_copies),
            ("bytes_forwarded", self.bytes_forwarded),
            ("replies_forwarded", self.replies_forwarded),
            ("replies_dropped", self.replies_dropped),
            ("overflows", self.overflows),
            ("drops", self.drops),
            ("resets", self.resets),
        ];
        for (name, v) in fields {
            reg.counter_add(&format!("{prefix}{name}"), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_clears() {
        let mut c = HubCounters::new();
        assert_eq!(c, HubCounters::default());
        c.overflows = 2;
        c.drops = 3;
        c.opens_failed = 1;
        c.clear();
        assert_eq!(c, HubCounters::default());
    }

    #[test]
    fn registers_all_fields() {
        let mut c = HubCounters::new();
        c.packets_forwarded = 9;
        c.bytes_forwarded = 900;
        let mut reg = MetricsRegistry::new();
        c.register_into(&mut reg, "hub0.");
        assert_eq!(reg.counter("hub0.packets_forwarded"), 9);
        assert_eq!(reg.counter("hub0.bytes_forwarded"), 900);
        assert_eq!(reg.counters().count(), 13);
    }
}
