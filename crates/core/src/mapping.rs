//! Automatic task-to-CAB mapping (§6.3 future work, implemented).
//!
//! "Work has started on higher-level programming tools for Nectar. We
//! are developing a high-level language that will be mapped onto a
//! specific Nectar configuration by a compiler. Automating the mapping
//! process will not only simplify the programming task, but will also
//! make programs portable across multiple Nectar configurations"
//! (§6.3) — and §6.3 warns that "the allocation of tasks and data to
//! processors and memories has a serious impact on performance".
//!
//! This module is that mapper: applications describe their tasks and
//! communication flows as a [`TaskGraph`]; [`map_greedy`] and
//! [`map_annealed`] place tasks onto the CABs of a concrete
//! [`Topology`] to minimise predicted communication cost (hop-weighted
//! traffic; co-resident tasks communicate through shared CAB memory at
//! zero network cost). The E24 experiment validates the prediction
//! against measured traffic.

use crate::topology::Topology;
use core::fmt;
use nectar_sim::rng::Rng;

/// A task-communication graph: nodes are application tasks, weighted
/// edges are expected traffic (bytes, messages — any consistent unit).
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    names: Vec<String>,
    edges: Vec<(usize, usize, u64)>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Adds a task; returns its index.
    pub fn add_task(&mut self, name: impl Into<String>) -> usize {
        self.names.push(name.into());
        self.names.len() - 1
    }

    /// Declares expected traffic between two tasks.
    ///
    /// # Panics
    ///
    /// Panics on unknown task indices or a self-edge.
    pub fn add_flow(&mut self, a: usize, b: usize, weight: u64) {
        assert!(a < self.names.len() && b < self.names.len(), "unknown task");
        assert_ne!(a, b, "a task does not message itself");
        self.edges.push((a, b, weight));
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no tasks exist.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The declared flows.
    pub fn flows(&self) -> &[(usize, usize, u64)] {
        &self.edges
    }

    /// Total traffic adjacent to each task (for placement ordering).
    fn degrees(&self) -> Vec<u64> {
        let mut deg = vec![0u64; self.names.len()];
        for &(a, b, w) in &self.edges {
            deg[a] += w;
            deg[b] += w;
        }
        deg
    }
}

/// An assignment of every task to a CAB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// `cab_of[task]` = CAB index.
    pub cab_of: Vec<usize>,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, c) in self.cab_of.iter().enumerate() {
            if t > 0 {
                f.write_str(", ")?;
            }
            write!(f, "t{t}@CAB{c}")?;
        }
        Ok(())
    }
}

/// Predicted communication cost of a placement: per flow, weight ×
/// HUB-hops between the two CABs (zero when co-resident — shared CAB
/// memory, §6.2.3).
///
/// # Panics
///
/// Panics if any pair of used CABs is unreachable.
pub fn predicted_cost(graph: &TaskGraph, topo: &Topology, placement: &Placement) -> u64 {
    graph
        .flows()
        .iter()
        .map(|&(a, b, w)| {
            let (ca, cb) = (placement.cab_of[a], placement.cab_of[b]);
            if ca == cb {
                0
            } else {
                w * topo.hop_count(ca, cb).expect("placement uses reachable CABs") as u64
            }
        })
        .sum()
}

/// The baseline: tasks dealt round-robin across CABs, capacity
/// permitting.
pub fn map_round_robin(graph: &TaskGraph, topo: &Topology) -> Placement {
    let n = topo.cab_count();
    Placement { cab_of: (0..graph.len()).map(|t| t % n).collect() }
}

/// Greedy placement: tasks in decreasing traffic order, each placed on
/// the CAB (with capacity left) that minimises the cost of its already-
/// placed flows.
///
/// # Panics
///
/// Panics if `capacity_per_cab * cab_count < tasks`.
pub fn map_greedy(graph: &TaskGraph, topo: &Topology, capacity_per_cab: usize) -> Placement {
    let cabs = topo.cab_count();
    assert!(capacity_per_cab * cabs >= graph.len(), "not enough CAB capacity");
    // Max-adjacency (Prim-style) ordering: after seeding with the
    // heaviest task, always place next the unplaced task most strongly
    // connected to the already-placed set, so communication clusters
    // grow together instead of being split by a myopic degree order.
    let deg = graph.degrees();
    let n = graph.len();
    let mut order = Vec::with_capacity(n);
    let mut attached = vec![0u64; n];
    let mut placed_mark = vec![false; n];
    for _ in 0..n {
        let next = (0..n)
            .filter(|&t| !placed_mark[t])
            .max_by_key(|&t| (attached[t], deg[t]))
            .expect("tasks remain");
        placed_mark[next] = true;
        order.push(next);
        for &(a, b, w) in graph.flows() {
            let other = if a == next {
                b
            } else if b == next {
                a
            } else {
                continue;
            };
            if !placed_mark[other] {
                attached[other] += w;
            }
        }
    }
    let mut cab_of = vec![usize::MAX; graph.len()];
    let mut load = vec![0usize; cabs];
    for &task in &order {
        let mut best = (u64::MAX, usize::MAX);
        for cab in 0..cabs {
            if load[cab] >= capacity_per_cab {
                continue;
            }
            // Incremental cost of placing `task` here.
            let mut cost = 0u64;
            for &(a, b, w) in graph.flows() {
                let other = if a == task {
                    b
                } else if b == task {
                    a
                } else {
                    continue;
                };
                if cab_of[other] == usize::MAX {
                    continue;
                }
                if cab_of[other] != cab {
                    cost += w * topo.hop_count(cab, cab_of[other]).expect("reachable") as u64;
                }
            }
            if cost < best.0
                || (cost == best.0 && load[cab] < load.get(best.1).copied().unwrap_or(usize::MAX))
            {
                best = (cost, cab);
            }
        }
        cab_of[task] = best.1;
        load[best.1] += 1;
    }
    Placement { cab_of }
}

/// Simulated-annealing refinement of a placement (pairwise swaps and
/// single-task moves under the capacity constraint).
pub fn map_annealed(
    graph: &TaskGraph,
    topo: &Topology,
    capacity_per_cab: usize,
    iterations: usize,
    seed: u64,
) -> Placement {
    let mut placement = map_greedy(graph, topo, capacity_per_cab);
    if graph.len() < 2 {
        return placement;
    }
    let cabs = topo.cab_count();
    let mut rng = Rng::seed_from(seed);
    let mut cost = predicted_cost(graph, topo, &placement) as f64;
    let mut best = (placement.clone(), cost);
    let mut temperature = (cost / graph.len().max(1) as f64).max(1.0);
    let mut load = vec![0usize; cabs];
    for &c in &placement.cab_of {
        load[c] += 1;
    }
    for _ in 0..iterations {
        let t1 = rng.range(0..=(graph.len() as u64 - 1)) as usize;
        let old_cab = placement.cab_of[t1];
        // Either swap with another task or move to a random CAB.
        let (t2, new_cab) = if rng.chance(0.5) {
            let t2 = rng.range(0..=(graph.len() as u64 - 1)) as usize;
            (Some(t2), placement.cab_of[t2])
        } else {
            (None, rng.range(0..=(cabs as u64 - 1)) as usize)
        };
        if new_cab == old_cab {
            continue;
        }
        if t2.is_none() && load[new_cab] >= capacity_per_cab {
            continue;
        }
        // Apply tentatively.
        placement.cab_of[t1] = new_cab;
        if let Some(t2) = t2 {
            placement.cab_of[t2] = old_cab;
        }
        let next = predicted_cost(graph, topo, &placement) as f64;
        let accept = next <= cost || rng.chance((-(next - cost) / temperature).exp());
        if accept {
            if t2.is_none() {
                load[old_cab] -= 1;
                load[new_cab] += 1;
            }
            cost = next;
            if cost < best.1 {
                best = (placement.clone(), cost);
            }
        } else {
            // Revert.
            placement.cab_of[t1] = old_cab;
            if let Some(t2) = t2 {
                placement.cab_of[t2] = new_cab;
            }
        }
        temperature *= 0.995;
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two four-task cliques with heavy internal traffic and one light
    /// cross edge — the classic placement test.
    fn two_cliques() -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.add_task(format!("t{i}"));
        }
        for group in [[0usize, 1, 2, 3], [4, 5, 6, 7]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    g.add_flow(group[i], group[j], 100);
                }
            }
        }
        g.add_flow(0, 4, 1); // light cross-clique edge
        g
    }

    #[test]
    fn greedy_colocates_cliques() {
        // Two hubs, one CAB each, capacity 4: each clique should land
        // whole on one CAB (intra-clique cost 0).
        let mut b = crate::topology::TopologyBuilder::new(2, 16);
        let c0 = b.add_cab(0, nectar_hub::id::PortId::new(0)).unwrap();
        let c1 = b.add_cab(1, nectar_hub::id::PortId::new(0)).unwrap();
        b.link_hubs(0, nectar_hub::id::PortId::new(15), 1, nectar_hub::id::PortId::new(15))
            .unwrap();
        let topo = b.build().unwrap();
        let g = two_cliques();
        let placement = map_greedy(&g, &topo, 4);
        let cost = predicted_cost(&g, &topo, &placement);
        // Only the cross edge can cost: 1 x 2 hops.
        assert_eq!(cost, 2, "placement: {placement} (cab {c0}/{c1})");
    }

    #[test]
    fn greedy_beats_round_robin() {
        let topo = Topology::mesh2d(1, 2, 4, 16);
        let g = two_cliques();
        let rr = predicted_cost(&g, &topo, &map_round_robin(&g, &topo));
        let greedy = predicted_cost(&g, &topo, &map_greedy(&g, &topo, 4));
        assert!(greedy < rr / 4, "greedy {greedy} vs round-robin {rr}");
    }

    #[test]
    fn annealing_never_worsens_greedy() {
        let topo = Topology::mesh2d(2, 2, 3, 16);
        let g = two_cliques();
        let greedy = predicted_cost(&g, &topo, &map_greedy(&g, &topo, 3));
        let annealed = predicted_cost(&g, &topo, &map_annealed(&g, &topo, 3, 3000, 9));
        assert!(annealed <= greedy, "annealed {annealed} vs greedy {greedy}");
    }

    #[test]
    fn capacity_is_respected() {
        let topo = Topology::single_hub(4, 16);
        let g = two_cliques();
        for placement in [map_greedy(&g, &topo, 2), map_annealed(&g, &topo, 2, 2000, 3)] {
            let mut load = vec![0usize; 4];
            for &c in &placement.cab_of {
                load[c] += 1;
            }
            assert!(load.iter().all(|&l| l <= 2), "overloaded: {load:?}");
        }
    }

    #[test]
    #[should_panic]
    fn insufficient_capacity_panics() {
        let topo = Topology::single_hub(2, 16);
        let g = two_cliques();
        let _ = map_greedy(&g, &topo, 3); // 6 slots < 8 tasks
    }

    #[test]
    fn co_resident_flows_are_free() {
        let topo = Topology::single_hub(2, 16);
        let mut g = TaskGraph::new();
        let a = g.add_task("a");
        let b = g.add_task("b");
        g.add_flow(a, b, 1000);
        let together = Placement { cab_of: vec![0, 0] };
        let apart = Placement { cab_of: vec![0, 1] };
        assert_eq!(predicted_cost(&g, &topo, &together), 0);
        assert_eq!(predicted_cost(&g, &topo, &apart), 1000);
    }

    #[test]
    fn empty_and_single_task_graphs_are_fine() {
        let topo = Topology::single_hub(2, 16);
        let empty = TaskGraph::new();
        assert!(empty.is_empty());
        assert_eq!(predicted_cost(&empty, &topo, &map_round_robin(&empty, &topo)), 0);
        let mut one = TaskGraph::new();
        one.add_task("solo");
        let p = map_annealed(&one, &topo, 1, 100, 1);
        assert_eq!(p.cab_of.len(), 1);
    }
}
