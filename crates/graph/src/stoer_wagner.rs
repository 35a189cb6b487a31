//! Stoer–Wagner deterministic exact global minimum cut.
//!
//! This is the workspace's one exact min-cut routine, and it is on the
//! serving path: it answers `exact-min-cut` queries, solves every base case
//! of the approximate min cut (`mincut_core::mincut`, instances of at most
//! `base_size` vertices), and every small component of the k-cut split. It
//! is also the ground truth of the approximation-quality experiments (E2).
//!
//! The implementation is the `O(n³)` adjacency-matrix algorithm, laid out
//! for a small constant factor: one flat `n × n` matrix, scratch kept in a
//! reusable [`StoerWagner`], member lists kept as intrusive chains, and a
//! fused maximum-adjacency (MA) step that updates the connectivity of every
//! remaining candidate and picks the next vertex in a single pass.
//! [`stoer_wagner`] fills the matrix from a [`Graph`]; callers that hold a
//! relabeled edge list (the approximate min cut's base case adds a
//! contraction's edges straight in) call [`StoerWagner::min_cut`].
//!
//! **Tie-break contract.** Each phase starts from the smallest active
//! super-vertex id. Among candidates of equal connectivity the MA step picks
//! the largest id, i.e. the maximum of the key `(conn[v], v)`. The step
//! computes it as a branchless maximum over one packed `u128` per candidate,
//! `conn[v] << 64 | v << 32 | pos`, where `pos` is the candidate's slot:
//! ids are unique, so `pos` never decides a comparison and only carries the
//! winner's slot out of the loop. `s` and `t` are the last two vertices
//! added, `t` merges into `s`, and a phase's cut replaces the best one only
//! when strictly lighter (the first phase always records). The side is
//! sorted. These rules fix the returned [`CutResult`] exactly; the test
//! module keeps the plain dense implementation as `dense_reference` and
//! holds this one equal to it, weight and side.

use crate::cut::CutResult;
use crate::graph::Graph;

/// End of an intrusive member chain.
const NIL: usize = usize::MAX;

const TOTAL_OVERFLOW: &str = "total edge weight exceeds u64::MAX; the serving engine rejects \
                              such graphs on create and insert (cut_engine::request::checked_total)";

/// Exact weighted global min cut of `g`.
///
/// Returns the cut weight and one realizing side. For disconnected graphs
/// the weight is 0 and the side is one connected component. Panics on
/// graphs with fewer than 2 vertices (no proper cut exists) and on graphs
/// whose total edge weight exceeds `u64::MAX`.
pub fn stoer_wagner(g: &Graph) -> CutResult {
    let n = g.n();
    assert!(n >= 2, "a cut needs at least two vertices");
    let total = g.edges().iter().try_fold(0u64, |acc, e| acc.checked_add(e.w));
    assert!(total.is_some(), "{TOTAL_OVERFLOW}");

    if !g.is_connected() {
        let comp = g.components();
        let side: Vec<u32> = (0..n as u32).filter(|&v| comp[v as usize] == 0).collect();
        return CutResult { weight: 0, side };
    }
    StoerWagner::default().min_cut(n, g.edges().iter().map(|e| (e.u, e.v, e.w)))
}

/// Reusable scratch for the flat-matrix Stoer–Wagner: a caller that solves
/// many small instances keeps one and allocates only when an instance is
/// larger than every one before it.
#[derive(Debug, Default)]
pub struct StoerWagner {
    w: Vec<u64>,
    next: Vec<usize>,
    tail: Vec<usize>,
    size: Vec<usize>,
    active: Vec<usize>,
    conn: Vec<u64>,
    cand: Vec<usize>,
}

impl StoerWagner {
    /// Exact weighted global min cut of the *connected* multigraph on `n`
    /// vertices with the given `(u, v, w)` edges. Parallel edges add up
    /// and self-loops are ignored, so a contraction's relabeled edge list
    /// gives the same cut as the contracted [`Graph`]. Equal to
    /// [`stoer_wagner`] on the same graph. Panics when `n < 2` or when the
    /// total weight of the non-loop edges exceeds `u64::MAX`; a
    /// disconnected input gets a zero-weight cut whose side is unspecified.
    pub fn min_cut(
        &mut self,
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32, u64)>,
    ) -> CutResult {
        assert!(n >= 2, "a cut needs at least two vertices");
        assert!(n <= u32::MAX as usize, "vertex ids must fit the packed MA key");
        // Row-major weight matrix. The diagonal (self-loops) is never read.
        let cells = n.checked_mul(n).expect("Stoer–Wagner matrix size overflows usize");
        let w = &mut self.w;
        w.clear();
        w.resize(cells, 0);
        // Every connectivity value and merged matrix entry below is a sum
        // of distinct edge weights, so this one check keeps the inner
        // loops free of overflow.
        let mut total = 0u64;
        for (u, v, weight) in edges {
            let (u, v) = (u as usize, v as usize);
            if u != v {
                total = total.checked_add(weight).expect(TOTAL_OVERFLOW);
                w[u * n + v] += weight;
                w[v * n + u] += weight;
            }
        }

        // Super-vertex v's original members: the chain v, next[v], ... of
        // length size[v]. Merging t into s links t's chain after s's tail,
        // so a super-vertex's members stay a contiguous run from its id.
        let next = &mut self.next;
        next.clear();
        next.resize(n, NIL);
        let tail = &mut self.tail;
        tail.clear();
        tail.extend(0..n);
        let size = &mut self.size;
        size.clear();
        size.resize(n, 1);
        let active = &mut self.active;
        active.clear();
        active.extend(0..n);
        let conn = &mut self.conn;
        let cand = &mut self.cand;
        // Best cut so far: its weight and `(t, size[t])` at the phase that
        // found it. The side is expanded once, at the end.
        let mut best: Option<(u64, usize, usize)> = None;

        while active.len() > 1 {
            // MA ordering from the smallest active id: every candidate's
            // connectivity starts at zero and the start vertex is absorbed
            // like any other. `conn[pos]` belongs to `cand[pos]`.
            cand.clear();
            cand.extend_from_slice(&active[1..]);
            conn.clear();
            conn.resize(cand.len(), 0);
            let mut t = active[0];
            let mut s;
            let phase_weight = loop {
                let row = &w[t * n..(t + 1) * n];
                let mut key = 0u128;
                for (pos, (&v, c)) in cand.iter().zip(conn.iter_mut()).enumerate() {
                    *c += row[v];
                    key = key.max((*c as u128) << 64 | (v as u128) << 32 | pos as u128);
                }
                let pos = key as u32 as usize;
                s = t;
                t = cand.swap_remove(pos);
                let c = conn.swap_remove(pos);
                if cand.is_empty() {
                    break c;
                }
            };
            // Cut-of-the-phase: {t's members} vs rest.
            // The first phase always records: a cut can weigh u64::MAX.
            if best.is_none_or(|(bw, _, _)| phase_weight < bw) {
                best = Some((phase_weight, t, size[t]));
            }
            // Merge t into s.
            next[tail[s]] = t;
            tail[s] = tail[t];
            size[s] += size[t];
            for &v in active.iter() {
                if v != s && v != t {
                    let merged = w[s * n + v] + w[t * n + v];
                    w[s * n + v] = merged;
                    w[v * n + s] = merged;
                }
            }
            active.retain(|&v| v != t);
        }

        let (weight, head, len) = best.expect("a graph with n >= 2 runs at least one phase");
        let mut side = Vec::with_capacity(len);
        let mut v = head;
        for _ in 0..len {
            side.push(v as u32);
            v = next[v];
        }
        side.sort_unstable();
        CutResult { weight, side }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::cut::cut_weight;
    use crate::gen;
    use crate::graph::{Edge, Graph};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The plain dense Stoer–Wagner: `Vec<Vec<u64>>` matrix, per-phase
    /// scratch, a two-pass MA step (`max_by_key` over active ids in
    /// ascending order, i.e. the largest id among ties) and a cloned member
    /// list on every improvement. The oracle [`stoer_wagner`] must equal.
    fn dense_reference(g: &Graph) -> CutResult {
        let n = g.n();
        assert!(n >= 2, "a cut needs at least two vertices");

        if !g.is_connected() {
            let comp = g.components();
            let side: Vec<u32> = (0..n as u32).filter(|&v| comp[v as usize] == 0).collect();
            return CutResult { weight: 0, side };
        }

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
            let phase_weight = conn[t];
            if best.side.is_empty() || phase_weight < best.weight {
                best = CutResult { weight: phase_weight, side: merged[t].clone() };
            }
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

    /// A seeded graph of one of the shapes the two implementations must
    /// agree on: connected gnm with unit (tie-heavy), light, medium and
    /// heavy weights, and possibly-disconnected multigraphs with parallel
    /// edges.
    fn shaped_graph(shape: u8, n: usize, rng: &mut SmallRng) -> Graph {
        let m = (n - 1) + rng.gen_range(0..=2 * n);
        match shape % 5 {
            0 => gen::connected_gnm(n, m, 1..=1, rng),
            1 => gen::connected_gnm(n, m, 1..=3, rng),
            2 => gen::connected_gnm(n, m, 1..=50, rng),
            3 => gen::connected_gnm(n, m, 1..=1_000_000, rng),
            _ => {
                let edges = (0..rng.gen_range(0..=2 * n))
                    .map(|_| {
                        let u = rng.gen_range(0..n as u32);
                        let v = (u + rng.gen_range(1..n as u32)) % n as u32;
                        Edge::new(u, v, rng.gen_range(1..=3))
                    })
                    .collect();
                Graph::new(n, edges)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn equals_dense_reference(shape in 0u8..5, n in 2usize..=64, seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = shaped_graph(shape, n, &mut rng);
            prop_assert_eq!(stoer_wagner(&g), dense_reference(&g));
        }
    }

    #[test]
    fn equals_dense_reference_on_many_small_graphs() {
        let mut rng = SmallRng::seed_from_u64(15);
        for i in 0..3000u32 {
            let n = rng.gen_range(2..=12);
            let g = match i % 7 {
                5 => gen::complete(n),
                6 => Graph::new(2, vec![Edge::new(0, 1, rng.gen_range(1..=9)); 1 + i as usize % 3]),
                shape => shaped_graph(shape as u8, n, &mut rng),
            };
            assert_eq!(stoer_wagner(&g), dense_reference(&g), "edges={:?}", g.edges());
        }
    }

    #[test]
    fn reused_scratch_on_relabeled_edges_equals_the_contracted_graph() {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut sw = StoerWagner::default();
        for i in 0..400u32 {
            let n = rng.gen_range(3..=40);
            let g = shaped_graph((i % 4) as u8, n, &mut rng);
            // Labels 0..k in first-appearance order; loops and parallel
            // classes go into the matrix unmerged.
            let k = rng.gen_range(2..=n);
            let label: Vec<u32> = (0..n as u32)
                .map(|v| if v < k as u32 { v } else { rng.gen_range(0..k as u32) })
                .collect();
            let h = g.contract(&label);
            let edges = g.edges().iter().map(|e| (label[e.u as usize], label[e.v as usize], e.w));
            assert_eq!(sw.min_cut(k, edges), stoer_wagner(&h), "i={i} label={label:?}");
        }
    }

    #[test]
    #[should_panic(expected = "total edge weight exceeds u64::MAX")]
    fn relabeled_edges_past_u64_max_are_rejected() {
        let edges = [(0, 1, u64::MAX), (2, 2, 5), (1, 0, 1)];
        let _ = StoerWagner::default().min_cut(3, edges);
    }

    #[test]
    #[should_panic(expected = "total edge weight exceeds u64::MAX")]
    fn rejects_total_weight_past_u64_max() {
        let g = Graph::new(3, vec![Edge::new(0, 1, u64::MAX), Edge::new(1, 2, u64::MAX)]);
        let _ = stoer_wagner(&g);
    }

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
