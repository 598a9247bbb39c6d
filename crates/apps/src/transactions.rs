//! Distributed transactions over Nectar (§7).
//!
//! "Examples of such applications include distributed transaction
//! systems, such as Camelot" (§7, citing Spector et al.). The workload
//! is a two-phase commit: a coordinator CAB drives PREPARE and COMMIT
//! rounds over the request-response transport against a set of
//! participant CABs, each of which "writes" a log record (a modelled
//! disk/NVRAM cost) before voting. Commit latency is dominated by two
//! RPC rounds — tens of microseconds on Nectar versus multiple
//! milliseconds on a LAN, which is what makes distributed transactions
//! at this granularity viable.

use nectar_core::system::NectarSystem;
use nectar_core::world::SystemConfig;
use nectar_sim::metrics::Histogram;
use nectar_sim::rng::Rng;
use nectar_sim::time::{Dur, Time};

/// Transaction workload parameters.
#[derive(Clone, Debug)]
pub struct TxnConfig {
    /// Participant CABs (the coordinator is one more).
    pub participants: usize,
    /// Transactions to run.
    pub transactions: usize,
    /// Payload of each prepare/commit record.
    pub record_bytes: usize,
    /// Modelled log-force time at each participant per round (NVRAM-
    /// class; a 1989 disk force would add ~20 ms and drown the net).
    pub log_force: Dur,
    /// Probability a participant votes abort.
    pub abort_probability: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for TxnConfig {
    fn default() -> TxnConfig {
        TxnConfig {
            participants: 3,
            transactions: 25,
            record_bytes: 128,
            log_force: Dur::from_micros(50),
            abort_probability: 0.1,
            seed: 11,
        }
    }
}

/// Results of a transaction run.
#[derive(Clone, Debug)]
pub struct TxnReport {
    /// Transactions that committed.
    pub committed: usize,
    /// Transactions that aborted (some participant voted no).
    pub aborted: usize,
    /// End-to-end latency of committed transactions (ns).
    pub commit_latency: Histogram,
    /// Total simulated time.
    pub elapsed: Dur,
}

impl TxnReport {
    /// Committed transactions per second.
    pub fn commit_rate(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.committed as f64 / self.elapsed.as_secs_f64()
        }
    }
}

const REPLY_MB: u16 = 5;
const SERVICE_MB: u16 = 80;

/// Runs two-phase commit with the coordinator on CAB 0 and
/// participants on CABs `1..=participants`.
///
/// # Panics
///
/// Panics if the system cannot host the CABs or an RPC round wedges.
pub fn run_transactions(cfg: &TxnConfig, sys_cfg: SystemConfig) -> TxnReport {
    assert!(cfg.participants >= 1, "a transaction needs participants");
    assert!(cfg.participants < sys_cfg.hub.ports, "participants + coordinator on one HUB");
    let mut sys = NectarSystem::single_hub(cfg.participants + 1, sys_cfg);
    let coordinator = 0usize;
    let mut rng = Rng::seed_from(cfg.seed);
    let mut commit_latency = Histogram::new();
    let mut committed = 0usize;
    let mut aborted = 0usize;
    let t_start = sys.world().now();

    for txn in 0..cfg.transactions {
        let t0 = sys.world().now();
        // Phase 1: PREPARE to every participant (parallel RPCs).
        let votes = rpc_round(
            &mut sys,
            coordinator,
            cfg,
            txn as u32 * 2,
            |r| {
                // Each participant forces its log then votes.
                !r.chance(cfg.abort_probability)
            },
            &mut rng,
        );
        let all_yes = votes.iter().all(|&v| v);
        // Phase 2: COMMIT or ABORT (parallel RPCs; participants ack
        // after forcing the outcome record).
        let _acks = rpc_round(&mut sys, coordinator, cfg, txn as u32 * 2 + 1, |_| true, &mut rng);
        let latency = sys.world().now().saturating_since(t0);
        if all_yes {
            committed += 1;
            commit_latency.observe(latency.nanos());
        } else {
            aborted += 1;
        }
    }

    TxnReport {
        committed,
        aborted,
        commit_latency,
        elapsed: sys.world().now().saturating_since(t_start),
    }
}

/// One parallel RPC round from the coordinator to every participant;
/// returns each participant's boolean vote. The modelled log force is
/// inserted between request delivery and the response.
fn rpc_round(
    sys: &mut NectarSystem,
    coordinator: usize,
    cfg: &TxnConfig,
    _round: u32,
    mut vote: impl FnMut(&mut Rng) -> bool,
    rng: &mut Rng,
) -> Vec<bool> {
    let n = cfg.participants;
    let record = vec![0xC4u8; cfg.record_bytes];
    let before = sys.world().deliveries.len();
    let mut txs = Vec::with_capacity(n);
    for p in 1..=n {
        let tx = sys.world_mut().send_rpc_now(coordinator, p, REPLY_MB, SERVICE_MB, &record);
        txs.push((p, tx));
    }
    // Wait for all requests to land.
    run_until_count(sys, before + n);
    // Every participant forces its log, then responds with its vote.
    let mut votes = Vec::with_capacity(n);
    let force = cfg.log_force;
    let resume = sys.world().now() + force;
    sys.world_mut().run_until(resume);
    let before_resp = sys.world().deliveries.len();
    for &(p, tx) in &txs {
        let v = vote(rng);
        votes.push(v);
        let body = if v { vec![1u8] } else { vec![0u8] };
        assert!(sys.world_mut().rpc_respond_now(p, coordinator, tx, &body));
        // Consume the request from the participant's service mailbox.
        let _ = sys.world_mut().mailbox_take(p, SERVICE_MB);
    }
    // Wait for all responses at the coordinator.
    run_until_count(sys, before_resp + n);
    for _ in 0..n {
        let _ = sys.world_mut().mailbox_take(coordinator, REPLY_MB);
    }
    votes
}

fn run_until_count(sys: &mut NectarSystem, count: usize) {
    let deadline = sys.world().now() + Dur::from_millis(100);
    while sys.world().deliveries.len() < count {
        let Some(next) = sys.world().next_event_time() else {
            panic!("transaction round wedged");
        };
        assert!(next <= deadline, "transaction round timed out");
        sys.world_mut().run_until(next);
    }
    let _ = Time::ZERO;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactions_commit_and_abort() {
        let cfg = TxnConfig { transactions: 20, ..TxnConfig::default() };
        let report = run_transactions(&cfg, SystemConfig::default());
        assert_eq!(report.committed + report.aborted, 20);
        assert!(report.committed > 0, "10% abort probability cannot kill everything");
        assert_eq!(report.commit_latency.count(), report.committed as u64);
    }

    #[test]
    fn commit_latency_is_two_rounds_plus_log_forces() {
        // Two RPC rounds (~38 us each measured) + two 50 us log forces
        // + fan-out serialization: commits land well under a
        // millisecond.
        let report = run_transactions(&TxnConfig::default(), SystemConfig::default());
        assert!(
            report.commit_latency.max() < 1_000_000,
            "commit max {} ns",
            report.commit_latency.max()
        );
        assert!(
            report.commit_latency.mean() > 100_000.0,
            "two rounds + forces cannot be cheaper than 100 us: {}",
            report.commit_latency.mean()
        );
    }

    #[test]
    fn abort_probability_zero_commits_everything() {
        let cfg = TxnConfig { abort_probability: 0.0, transactions: 10, ..TxnConfig::default() };
        let report = run_transactions(&cfg, SystemConfig::default());
        assert_eq!(report.committed, 10);
        assert_eq!(report.aborted, 0);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = run_transactions(&TxnConfig::default(), SystemConfig::default());
        let b = run_transactions(&TxnConfig::default(), SystemConfig::default());
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.elapsed, b.elapsed);
    }
}
