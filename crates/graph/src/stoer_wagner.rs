//! Stoer–Wagner deterministic exact global minimum cut.
//!
//! `O(n³)` with an adjacency matrix — the workspace's ground-truth oracle
//! for approximation-quality experiments (E2) at up to a few thousand
//! vertices.

use crate::cut::CutResult;
use crate::graph::Graph;

/// Exact weighted global min cut of `g`.
///
/// Returns the cut weight and one realizing side. For disconnected graphs
/// the weight is 0 and the side is one connected component. Panics on
/// graphs with fewer than 2 vertices (no proper cut exists).
pub fn stoer_wagner(g: &Graph) -> CutResult {
    let n = g.n();
    assert!(n >= 2, "a cut needs at least two vertices");

    if !g.is_connected() {
        let comp = g.components();
        let side: Vec<u32> = (0..n as u32).filter(|&v| comp[v as usize] == 0).collect();
        return CutResult { weight: 0, side };
    }

    // Dense weight matrix; u128 accumulation is unnecessary because every
    // sum here is bounded by the total weight, which fits u64: the serving
    // engine rejects any `create` (`GraphSpec::materialize`) or `insert`
    // that would push it past u64::MAX.
    let mut w = vec![vec![0u64; n]; n];
    for e in g.edges() {
        w[e.u as usize][e.v as usize] += e.w;
        w[e.v as usize][e.u as usize] += e.w;
    }

    // merged[v]: original vertices currently fused into super-vertex v.
    let mut merged: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![v]).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = CutResult { weight: u64::MAX, side: vec![] };

    while active.len() > 1 {
        // Maximum-adjacency ordering starting from active[0].
        let mut in_a = vec![false; n];
        let mut conn = vec![0u64; n];
        let mut order = Vec::with_capacity(active.len());
        let start = active[0];
        in_a[start] = true;
        order.push(start);
        for &v in &active {
            conn[v] = w[start][v];
        }
        while order.len() < active.len() {
            let &next = active
                .iter()
                .filter(|&&v| !in_a[v])
                .max_by_key(|&&v| conn[v])
                .expect("graph became disconnected mid-phase");
            in_a[next] = true;
            order.push(next);
            for &v in &active {
                if !in_a[v] {
                    conn[v] += w[next][v];
                }
            }
        }
        let t = *order.last().unwrap();
        let s = order[order.len() - 2];
        // Cut-of-the-phase: {t's merged set} vs rest.
        let phase_weight = conn[t];
        // The first phase always records: a cut can weigh u64::MAX.
        if best.side.is_empty() || phase_weight < best.weight {
            best = CutResult { weight: phase_weight, side: merged[t].clone() };
        }
        // Merge t into s.
        let tm = std::mem::take(&mut merged[t]);
        merged[s].extend(tm);
        for &v in &active {
            if v != s && v != t {
                w[s][v] += w[t][v];
                w[v][s] = w[s][v];
            }
        }
        active.retain(|&v| v != t);
    }

    best.side.sort_unstable();
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::cut::cut_weight;
    use crate::gen;
    use crate::graph::{Edge, Graph};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cut_of_weight_u64_max_keeps_its_side() {
        let g = Graph::new(2, vec![Edge::new(0, 1, u64::MAX)]);
        let cut = stoer_wagner(&g);
        assert_eq!(cut.weight, u64::MAX);
        assert!(cut.is_proper(2), "side {:?}", cut.side);
    }

    #[test]
    fn bridge_is_the_min_cut() {
        let g = gen::barbell(4);
        let cut = stoer_wagner(&g);
        assert_eq!(cut.weight, 1);
        assert_eq!(cut.side.len(), 4);
    }

    #[test]
    fn cycle_min_cut_is_two() {
        let cut = stoer_wagner(&gen::cycle(9));
        assert_eq!(cut.weight, 2);
        assert!(cut.is_proper(9));
    }

    #[test]
    fn weighted_triangle() {
        let g = Graph::new(3, vec![Edge::new(0, 1, 10), Edge::new(1, 2, 2), Edge::new(0, 2, 3)]);
        let cut = stoer_wagner(&g);
        assert_eq!(cut.weight, 5); // isolate vertex 2
        assert!(cut.side == vec![2] || cut.side == vec![0, 1]);
    }

    #[test]
    fn disconnected_graph_has_zero_cut() {
        let g = Graph::unit(4, &[(0, 1), (2, 3)]);
        let cut = stoer_wagner(&g);
        assert_eq!(cut.weight, 0);
        assert!(cut.is_proper(4));
    }

    #[test]
    fn side_realizes_reported_weight() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..25 {
            let n = rng.gen_range(3..25);
            let m = (n - 1) + rng.gen_range(0..2 * n);
            let g = gen::connected_gnm(n, m, 1..=20, &mut rng);
            let cut = stoer_wagner(&g);
            assert!(cut.is_proper(n));
            assert_eq!(cut_weight(&g, &cut.mask(n)), cut.weight);
        }
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..40 {
            let n = rng.gen_range(3..11);
            let m = (n - 1) + rng.gen_range(0..n * 2);
            let g = gen::connected_gnm(n, m.min(n * (n - 1) / 2), 1..=9, &mut rng);
            let sw = stoer_wagner(&g);
            let bf = brute::min_cut(&g);
            assert_eq!(sw.weight, bf.weight, "n={n} edges={:?}", g.edges());
        }
    }

    #[test]
    fn two_vertex_graph() {
        let g = Graph::new(2, vec![Edge::new(0, 1, 7)]);
        let cut = stoer_wagner(&g);
        assert_eq!(cut.weight, 7);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_vertex() {
        let _ = stoer_wagner(&Graph::new(1, vec![]));
    }
}
