//! The contraction process (§4.1): semantics, a sequential oracle, and
//! prefix contraction.
//!
//! Under priorities `prio`, the process contracts the edge with priority
//! `t` at time `t`. Only minimum-spanning-forest edges change the
//! topology (the Kruskal observation of §4.1), `bag(v, t)` is the set of
//! vertices reachable from `v` via tree edges of priority `≤ t`, and
//! `Δbag(v, t)` is the total weight of graph edges leaving the bag.
//!
//! [`contraction_oracle`] replays the process exactly, maintaining every
//! super-vertex's weighted degree with small-to-large neighbor-map
//! merging — `O(m log² m)` total. It is the ground truth for Theorem 3:
//! the minimum over all *proper* bags (Observation 7, restricted to bags
//! that are genuine cuts, i.e. not the whole vertex set).

use cut_graph::{kruskal, Dsu, Graph};

/// Outcome of the oracle replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Smallest weighted degree of any proper bag during the process.
    pub min_singleton: u64,
    /// A time at which it was attained (0 = before any contraction).
    pub at_time: u64,
}

/// Replay the full contraction process and report the smallest singleton
/// cut over all proper bags.
///
/// Panics when `g` has fewer than 2 vertices (no proper bag exists).
pub fn contraction_oracle(g: &Graph, prio: &[u64]) -> OracleOutcome {
    let n = g.n();
    assert!(n >= 2, "need at least 2 vertices");
    assert_eq!(prio.len(), g.m());

    // Initial singleton bags.
    let mut best = OracleOutcome { min_singleton: u64::MAX, at_time: 0 };
    for v in 0..n as u32 {
        let d = g.weighted_degree(v);
        if d < best.min_singleton {
            best = OracleOutcome { min_singleton: d, at_time: 0 };
        }
    }

    // Neighbor maps per DSU root: other-root -> crossing weight.
    let mut nbr: Vec<std::collections::HashMap<u32, u64>> =
        (0..n).map(|_| std::collections::HashMap::new()).collect();
    let mut deg = vec![0u64; n];
    let mut size = vec![1u32; n];
    for e in g.edges() {
        *nbr[e.u as usize].entry(e.v).or_insert(0) += e.w;
        *nbr[e.v as usize].entry(e.u).or_insert(0) += e.w;
        deg[e.u as usize] += e.w;
        deg[e.v as usize] += e.w;
    }

    let forest = kruskal(g, prio);
    let mut dsu = Dsu::new(n);
    for &ei in &forest.edges {
        let e = g.edge(ei as usize);
        let t = prio[ei as usize];
        let (mut a, mut b) = (dsu.find(e.u), dsu.find(e.v));
        debug_assert_ne!(a, b);
        // Merge the smaller map (b) into the larger (a).
        if nbr[a as usize].len() < nbr[b as usize].len() {
            std::mem::swap(&mut a, &mut b);
        }
        let bmap = std::mem::take(&mut nbr[b as usize]);
        // Crossing weight a↔b, computed BEFORE the union so that b's stale
        // self-entries (keys whose set already merged into b) resolve to b,
        // not to the merged root, and are excluded.
        let mut cross = 0u64;
        for (&to, &w) in &bmap {
            if dsu.find(to) == a {
                cross += w;
            }
        }
        dsu.union(a, b);
        let root = dsu.find(a);
        for (to, w) in bmap {
            let tr = dsu.find(to);
            if tr != root {
                *nbr[a as usize].entry(tr).or_insert(0) += w;
            }
        }
        let new_deg = (deg[a as usize] - cross) + (deg[b as usize] - cross);
        let new_size = size[a as usize] + size[b as usize];
        // Re-root bookkeeping onto the DSU root.
        if root != a {
            nbr[root as usize] = std::mem::take(&mut nbr[a as usize]);
        }
        deg[root as usize] = new_deg;
        size[root as usize] = new_size;
        if (new_size as usize) < n && new_deg < best.min_singleton {
            best = OracleOutcome { min_singleton: new_deg, at_time: t };
        }
    }
    best
}

/// Contract the cheapest-priority edges of `g` until at most `target`
/// super-vertices remain (or the forest is exhausted).
///
/// Returns the contracted graph and the vertex relabeling used.
pub fn contract_prefix(g: &Graph, prio: &[u64], target: usize) -> (Graph, Vec<u32>) {
    assert!(target >= 1);
    let forest = kruskal(g, prio);
    let mut dsu = Dsu::new(g.n());
    for &ei in &forest.edges {
        if dsu.set_count() <= target {
            break;
        }
        let e = g.edge(ei as usize);
        dsu.union(e.u, e.v);
    }
    let labels = dsu.labels();
    (g.contract(&labels), labels)
}

/// The bag of `leader` at `time`: all vertices reachable from `leader`
/// using spanning-forest edges with priority `≤ time`, sorted.
///
/// A non-forest edge never joins two different bags (the Kruskal
/// observation), so the bag is `leader`'s component under every edge of
/// priority `≤ time`, and no sort by priority is needed.
pub fn bag_of(g: &Graph, prio: &[u64], leader: u32, time: u64) -> Vec<u32> {
    let mut dsu = Dsu::new(g.n());
    for (e, &p) in g.edges().iter().zip(prio) {
        if p <= time {
            dsu.union(e.u, e.v);
        }
    }
    let root = dsu.find(leader);
    (0..g.n() as u32).filter(|&v| dsu.find(v) == root).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priorities::exponential_priorities;
    use cut_graph::{cut_weight, gen, Edge};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Quadratic re-implementation of the oracle: recompute every bag's
    /// degree from scratch at every time step.
    fn oracle_brute(g: &Graph, prio: &[u64]) -> u64 {
        let n = g.n();
        let mut best = u64::MAX;
        let maxt = *prio.iter().max().unwrap_or(&0);
        for t in 0..=maxt {
            // Components under tree edges of priority <= t: use all edges
            // with priority <= t (non-tree edges don't change components).
            let mut dsu = Dsu::new(n);
            for (i, e) in g.edges().iter().enumerate() {
                if prio[i] <= t {
                    dsu.union(e.u, e.v);
                }
            }
            let labels = dsu.labels();
            let k = *labels.iter().max().unwrap() as usize + 1;
            let mut deg = vec![0u64; k];
            let mut size = vec![0u32; k];
            for v in 0..n {
                size[labels[v] as usize] += 1;
            }
            for e in g.edges() {
                let (a, b) = (labels[e.u as usize], labels[e.v as usize]);
                if a != b {
                    deg[a as usize] += e.w;
                    deg[b as usize] += e.w;
                }
            }
            for c in 0..k {
                if (size[c] as usize) < n {
                    best = best.min(deg[c]);
                }
            }
        }
        best
    }

    #[test]
    fn oracle_matches_bruteforce_replay() {
        let mut rng = SmallRng::seed_from_u64(100);
        for trial in 0..30 {
            let n = rng.gen_range(2..14);
            let max_m = n * (n - 1) / 2;
            let m = rng.gen_range(1..=max_m);
            let g = gen::gnm(n, m, 1..=9, &mut rng);
            let prio = exponential_priorities(&g, &mut rng);
            let fast = contraction_oracle(&g, &prio);
            let slow = oracle_brute(&g, &prio);
            assert_eq!(fast.min_singleton, slow, "trial={trial} n={n} m={m}");
        }
    }

    #[test]
    fn oracle_on_disconnected_graph_is_zero() {
        let g = Graph::unit(4, &[(0, 1), (2, 3)]);
        let prio = vec![1, 2];
        assert_eq!(contraction_oracle(&g, &prio).min_singleton, 0);
    }

    #[test]
    fn oracle_is_at_most_min_degree() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gen::connected_gnm(40, 100, 1..=10, &mut rng);
        let prio = exponential_priorities(&g, &mut rng);
        let min_deg = (0..40u32).map(|v| g.weighted_degree(v)).min().unwrap();
        assert!(contraction_oracle(&g, &prio).min_singleton <= min_deg);
    }

    #[test]
    fn oracle_never_beats_min_cut() {
        // Every bag is a real cut, so the oracle is lower-bounded by the
        // exact min cut.
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..10 {
            let n = rng.gen_range(4..12);
            let g = gen::connected_gnm(n, 2 * n, 1..=5, &mut rng);
            let prio = exponential_priorities(&g, &mut rng);
            let exact = cut_graph::stoer_wagner(&g).weight;
            assert!(contraction_oracle(&g, &prio).min_singleton >= exact);
        }
    }

    #[test]
    fn contract_prefix_reaches_target() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = gen::connected_gnm(50, 120, 1..=10, &mut rng);
        let prio = exponential_priorities(&g, &mut rng);
        for target in [1usize, 2, 10, 25, 50] {
            let (c, labels) = contract_prefix(&g, &prio, target);
            assert_eq!(c.n(), target.max(1));
            assert_eq!(labels.len(), 50);
            // Contraction preserves total weight minus self-loops.
            assert!(c.total_weight() <= g.total_weight());
        }
    }

    #[test]
    fn contract_prefix_beyond_components_stops() {
        let g = Graph::unit(4, &[(0, 1), (2, 3)]);
        let (c, _) = contract_prefix(&g, &[1, 2], 1);
        assert_eq!(c.n(), 2); // two components can't merge
        assert_eq!(c.m(), 0);
    }

    #[test]
    fn bag_grows_monotonically() {
        let g = Graph::new(4, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(2, 3, 1)]);
        let prio = vec![2, 1, 3];
        assert_eq!(bag_of(&g, &prio, 1, 0), vec![1]);
        assert_eq!(bag_of(&g, &prio, 1, 1), vec![1, 2]);
        assert_eq!(bag_of(&g, &prio, 1, 2), vec![0, 1, 2]);
        assert_eq!(bag_of(&g, &prio, 1, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn bag_degree_matches_cut_weight() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = gen::connected_gnm(20, 60, 1..=10, &mut rng);
        let prio = exponential_priorities(&g, &mut rng);
        for t in [0u64, 5, 20, 40] {
            let bag = bag_of(&g, &prio, 3, t);
            let mut mask = vec![false; 20];
            for &v in &bag {
                mask[v as usize] = true;
            }
            // Sanity: cut weight of the bag is a real cut value.
            let w = cut_weight(&g, &mask);
            if bag.len() < 20 {
                assert!(w >= cut_graph::stoer_wagner(&g).weight);
            } else {
                assert_eq!(w, 0);
            }
        }
    }
}
