//! Compact undirected weighted multigraph.

/// An undirected weighted edge. Parallel edges and (transiently, during
/// contraction) self-loops are representable; most constructors reject
/// self-loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint.
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// Positive integer capacity/weight.
    pub w: u64,
}

impl Edge {
    /// Edge between `u` and `v` of weight `w`.
    pub fn new(u: u32, v: u32, w: u64) -> Self {
        Self { u, v, w }
    }

    /// The endpoint that is not `x`. Panics if `x` is not an endpoint.
    pub fn other(&self, x: u32) -> u32 {
        if x == self.u {
            self.v
        } else {
            debug_assert_eq!(x, self.v, "vertex {x} is not an endpoint");
            self.u
        }
    }
}

/// Undirected weighted multigraph with CSR adjacency.
///
/// Vertices are `0..n` as `u32`. Edges are stored once in [`Graph::edges`];
/// the adjacency array stores `(neighbor, edge_index)` pairs so algorithms
/// can recover weights and identities.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    offsets: Vec<u32>,
    adj: Vec<(u32, u32)>,
}

impl Graph {
    /// Build a graph on `n` vertices from an edge list.
    ///
    /// Panics on out-of-range endpoints, self-loops or zero weights —
    /// those are always construction bugs in this workspace.
    pub fn new(n: usize, edges: Vec<Edge>) -> Self {
        for e in &edges {
            assert!((e.u as usize) < n && (e.v as usize) < n, "edge endpoint out of range");
            assert_ne!(e.u, e.v, "self-loop");
            assert!(e.w > 0, "zero-weight edge");
        }
        Self::new_unchecked(n, edges)
    }

    /// Build without validity checks (used by contraction, which has
    /// already established the invariants).
    pub fn new_unchecked(n: usize, edges: Vec<Edge>) -> Self {
        let mut deg = vec![0u32; n + 1];
        for e in &edges {
            deg[e.u as usize + 1] += 1;
            deg[e.v as usize + 1] += 1;
        }
        let mut offsets = deg;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
        let mut cursor = offsets.clone();
        for (i, e) in edges.iter().enumerate() {
            adj[cursor[e.u as usize] as usize] = (e.v, i as u32);
            cursor[e.u as usize] += 1;
            adj[cursor[e.v as usize] as usize] = (e.u, i as u32);
            cursor[e.v as usize] += 1;
        }
        Self { n, edges, offsets, adj }
    }

    /// Build from `(u, v)` pairs with unit weights.
    pub fn unit(n: usize, pairs: &[(u32, u32)]) -> Self {
        Self::new(n, pairs.iter().map(|&(u, v)| Edge::new(u, v, 1)).collect())
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge by index.
    pub fn edge(&self, i: usize) -> Edge {
        self.edges[i]
    }

    /// `(neighbor, edge_index)` pairs incident to `v`.
    pub fn neighbors(&self, v: u32) -> &[(u32, u32)] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Unweighted degree of `v` (counting parallel edges).
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Weighted degree of `v`.
    pub fn weighted_degree(&self, v: u32) -> u64 {
        self.neighbors(v).iter().map(|&(_, e)| self.edges[e as usize].w).sum()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Connected-component labels (`0..k`, in order of first appearance by
    /// vertex id) via BFS.
    pub fn components(&self) -> Vec<u32> {
        let mut comp = vec![u32::MAX; self.n];
        let mut next = 0u32;
        let mut queue = std::collections::VecDeque::new();
        for s in 0..self.n as u32 {
            if comp[s as usize] != u32::MAX {
                continue;
            }
            comp[s as usize] = next;
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                for &(to, _) in self.neighbors(v) {
                    if comp[to as usize] == u32::MAX {
                        comp[to as usize] = next;
                        queue.push_back(to);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.components().iter().copied().max().map(|c| c as usize + 1).unwrap_or(0)
    }

    /// True if the graph is connected (vacuously true for n ≤ 1).
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Contract the graph along a vertex relabeling.
    ///
    /// `label[v]` gives the new id of vertex `v`; labels must form the
    /// contiguous range `0..k`. Parallel edges are merged (weights summed)
    /// and self-loops dropped. Returns the contracted graph, its edges
    /// sorted by `(u, v)` with `u < v`.
    ///
    /// Two stable counting-sort passes over the relabeled endpoints, first
    /// by `v` and then by `u`, leave every parallel class adjacent in
    /// `(u, v)` order; one scan then merges each class.
    pub fn contract(&self, label: &[u32]) -> Graph {
        assert_eq!(label.len(), self.n);
        let k = label.iter().copied().max().map(|x| x as usize + 1).unwrap_or(0);
        let pairs: Vec<Edge> = self
            .edges
            .iter()
            .filter_map(|e| {
                let (a, b) = (label[e.u as usize], label[e.v as usize]);
                (a != b).then(|| Edge::new(a.min(b), a.max(b), e.w))
            })
            .collect();
        let by_v = counting_sort(&pairs, k, |e| e.v);
        let by_uv = counting_sort(&by_v, k, |e| e.u);
        let mut edges: Vec<Edge> = Vec::with_capacity(by_uv.len());
        for e in by_uv {
            match edges.last_mut() {
                Some(last) if (last.u, last.v) == (e.u, e.v) => last.w += e.w,
                _ => edges.push(e),
            }
        }
        Graph::new_unchecked(k, edges)
    }

    /// Induced subgraph on `keep` (a set of vertex ids).
    ///
    /// Returns the subgraph and the mapping `new_id -> old_id`.
    pub fn induced(&self, keep: &[u32]) -> (Graph, Vec<u32>) {
        let mut new_id = vec![u32::MAX; self.n];
        for (i, &v) in keep.iter().enumerate() {
            assert!(new_id[v as usize] == u32::MAX, "duplicate vertex in keep");
            new_id[v as usize] = i as u32;
        }
        let mut edges = Vec::new();
        for e in &self.edges {
            let (a, b) = (new_id[e.u as usize], new_id[e.v as usize]);
            if a != u32::MAX && b != u32::MAX {
                edges.push(Edge::new(a, b, e.w));
            }
        }
        (Graph::new_unchecked(keep.len(), edges), keep.to_vec())
    }

    /// Remove the edges whose indices appear in `drop` (a sorted-or-not set)
    /// and return the remaining graph (same vertex set).
    pub fn without_edges(&self, drop: &[u32]) -> Graph {
        let mut dead = vec![false; self.m()];
        for &i in drop {
            dead[i as usize] = true;
        }
        let edges =
            self.edges.iter().enumerate().filter(|(i, _)| !dead[*i]).map(|(_, e)| *e).collect();
        Graph::new_unchecked(self.n, edges)
    }
}

/// `edges` stably sorted by `key`, a vertex id below `k`.
fn counting_sort(edges: &[Edge], k: usize, key: impl Fn(&Edge) -> u32) -> Vec<Edge> {
    let mut start = vec![0u32; k + 1];
    for e in edges {
        start[key(e) as usize + 1] += 1;
    }
    for i in 0..k {
        start[i + 1] += start[i];
    }
    let mut out = vec![Edge::new(0, 0, 0); edges.len()];
    for e in edges {
        let slot = &mut start[key(e) as usize];
        out[*slot as usize] = *e;
        *slot += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::new(3, vec![Edge::new(0, 1, 5), Edge::new(1, 2, 7), Edge::new(0, 2, 3)])
    }

    #[test]
    fn csr_adjacency_is_symmetric() {
        let g = triangle();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.weighted_degree(0), 8);
        assert_eq!(g.weighted_degree(1), 12);
        assert_eq!(g.weighted_degree(2), 10);
        assert_eq!(g.total_weight(), 15);
        // Every edge appears from both sides.
        for v in 0..3u32 {
            for &(to, e) in g.neighbors(v) {
                assert_eq!(g.edge(e as usize).other(v), to);
            }
        }
    }

    #[test]
    fn components_and_connectivity() {
        let g = Graph::unit(5, &[(0, 1), (1, 2), (3, 4)]);
        let comp = g.components();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(g.component_count(), 2);
        assert!(!g.is_connected());
        assert!(triangle().is_connected());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0, vec![]);
        assert_eq!(g.component_count(), 0);
        assert!(g.is_connected());
        let g1 = Graph::new(1, vec![]);
        assert_eq!(g1.component_count(), 1);
        assert!(g1.is_connected());
    }

    #[test]
    fn contraction_merges_parallel_edges_and_drops_loops() {
        // Square 0-1-2-3-0; contract {0,1} and {2,3}.
        let g = Graph::new(
            4,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 2), Edge::new(2, 3, 4), Edge::new(3, 0, 8)],
        );
        let c = g.contract(&[0, 0, 1, 1]);
        assert_eq!(c.n(), 2);
        assert_eq!(c.m(), 1);
        assert_eq!(c.edge(0), Edge::new(0, 1, 10)); // 2 + 8, loops 1 and 4 dropped
    }

    #[test]
    fn contraction_is_deterministic() {
        let g = Graph::unit(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let l = [0, 0, 1, 1, 2, 2];
        let a = g.contract(&l);
        let b = g.contract(&l);
        assert_eq!(a.edges(), b.edges());
    }

    /// `contract` as it was before the counting sort: parallel classes
    /// merged through a `HashMap`, then sorted by `(u, v)`. The oracle
    /// [`Graph::contract`] must equal.
    fn contract_reference(g: &Graph, label: &[u32]) -> Graph {
        let k = label.iter().copied().max().map(|x| x as usize + 1).unwrap_or(0);
        let mut merged: std::collections::HashMap<(u32, u32), u64> =
            std::collections::HashMap::with_capacity(g.m());
        for e in g.edges() {
            let (mut a, mut b) = (label[e.u as usize], label[e.v as usize]);
            if a == b {
                continue;
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            *merged.entry((a, b)).or_insert(0) += e.w;
        }
        let mut edges: Vec<Edge> =
            merged.into_iter().map(|((a, b), w)| Edge::new(a, b, w)).collect();
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        Graph::new_unchecked(k, edges)
    }

    fn assert_contract_is_reference(g: &Graph, label: &[u32]) {
        let (got, want) = (g.contract(label), contract_reference(g, label));
        assert_eq!(got.n(), want.n(), "label={label:?}");
        assert_eq!(got.edges(), want.edges(), "edges={:?} label={label:?}", g.edges());
    }

    #[test]
    fn contraction_equals_the_hashmap_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(16);
        for trial in 0..500 {
            let n = rng.gen_range(2..30u32);
            // A multigraph: repeated pairs in both orientations.
            let edges: Vec<Edge> = (0..rng.gen_range(0..4 * n))
                .map(|_| {
                    let u = rng.gen_range(0..n);
                    let v = (u + rng.gen_range(1..n)) % n;
                    Edge::new(u, v, rng.gen_range(1..=9))
                })
                .collect();
            let g = Graph::new(n as usize, edges);
            let k = match trial % 4 {
                0 => 1,
                1 => n,
                _ => rng.gen_range(1..=n),
            };
            // Every label in 0..k used at least once, then shuffled in.
            let mut label: Vec<u32> =
                (0..n).map(|v| if v < k { v } else { rng.gen_range(0..k) }).collect();
            for i in (1..label.len()).rev() {
                label.swap(i, rng.gen_range(0..=i));
            }
            assert_contract_is_reference(&g, &label);
        }
    }

    #[test]
    fn contraction_to_one_vertex_or_of_no_edges_is_edgeless() {
        let g = Graph::unit(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]);
        assert_contract_is_reference(&g, &[0; 5]);
        let all = g.contract(&[0; 5]);
        assert_eq!((all.n(), all.m()), (1, 0));
        // Labels that keep every edge inside a class.
        assert_contract_is_reference(&g, &[0, 0, 0, 1, 1]);
        assert_eq!(g.contract(&[0, 0, 0, 1, 1]).m(), 0);
        // A graph without edges.
        let empty = Graph::new(4, vec![]);
        assert_contract_is_reference(&empty, &[1, 0, 1, 0]);
        assert_contract_is_reference(&Graph::new(0, vec![]), &[]);
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = triangle();
        let (sub, back) = g.induced(&[2, 0]);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.m(), 1);
        assert_eq!(sub.edge(0).w, 3); // the 0-2 edge
        assert_eq!(back, vec![2, 0]);
    }

    #[test]
    fn without_edges_removes_by_index() {
        let g = triangle();
        let h = g.without_edges(&[1]);
        assert_eq!(h.m(), 2);
        assert_eq!(h.total_weight(), 8);
        assert_eq!(h.n(), 3);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let _ = Graph::new(2, vec![Edge::new(1, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn rejects_zero_weights() {
        let _ = Graph::new(2, vec![Edge::new(0, 1, 0)]);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 9, 1);
        assert_eq!(e.other(3), 9);
        assert_eq!(e.other(9), 3);
    }
}
