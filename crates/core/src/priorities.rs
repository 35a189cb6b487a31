//! Contraction priorities: unique random edge ranks.
//!
//! §4.1 assumes "unique weights on edges" from `[n³]` and contracts the
//! edge with weight `t` at time `t`. Only the *relative order* of these
//! weights is ever used (Kruskal, bags, intervals), so we draw exponential
//! clocks `T_e ~ Exp(w_e)` and replace them by their ranks `1..=m`.
//!
//! Exponential clocks make the induced contraction order correct for
//! *weighted* Karger contraction: the first edge to be contracted is `e`
//! with probability `w_e / Σw` (min of independent exponentials), and the
//! property holds recursively after every contraction — the standard
//! reduction from weighted to unweighted contraction that Ghaffari–Nowicki
//! also use. With unit weights this is a uniformly random permutation.

use cut_graph::Graph;
use rand::Rng;

/// Draw contraction priorities for every edge of `g`: unique ranks
/// `1..=m`, ordered by exponential clocks with rate = edge weight.
pub fn exponential_priorities(g: &Graph, rng: &mut impl Rng) -> Vec<u64> {
    let mut keys = Vec::new();
    let mut prio = Vec::new();
    draw_priorities(g, rng, &mut keys, &mut prio);
    prio
}

/// One edge's exponential clock `T_e ~ Exp(w)` from a uniform draw
/// `u ∈ [f64::MIN_POSITIVE, 1)`: positive and finite for every `w ≥ 1`.
fn clock(u: f64, w: u64) -> f64 {
    -u.ln() / w as f64
}

/// Draw the clocks of `g`'s edges and rank them: afterwards `keys` holds
/// `(clock bits, edge)` in Kruskal order, so `keys[i].1` is the edge of
/// rank `i + 1`, and `prio[e]` is edge `e`'s rank. The RNG is consumed
/// exactly as [`exponential_priorities`] consumes it.
///
/// Clocks are positive and finite, and on those IEEE-754 bit patterns
/// order like the values, so one integer sort of `(to_bits, edge)` gives
/// the `(clock, edge)` order, ties by edge index included.
pub(crate) fn draw_priorities(
    g: &Graph,
    rng: &mut impl Rng,
    keys: &mut Vec<(u64, u32)>,
    prio: &mut Vec<u64>,
) {
    keys.clear();
    keys.extend(g.edges().iter().enumerate().map(|(i, e)| {
        // Inverse-CDF sampling; guard the log away from 0.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        (clock(u, e.w).to_bits(), i as u32)
    }));
    keys.sort_unstable();
    prio.clear();
    prio.resize(keys.len(), 0);
    for (rank, &(_, e)) in keys.iter().enumerate() {
        prio[e as usize] = rank as u64 + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cut_graph::{gen, Edge, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The ranks as drawn before the integer sort: float clocks sorted
    /// with `partial_cmp`, ties by edge index.
    fn reference_priorities(g: &Graph, rng: &mut impl Rng) -> Vec<u64> {
        let mut clock: Vec<(f64, u32)> = g
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                (-u.ln() / e.w as f64, i as u32)
            })
            .collect();
        clock.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut prio = vec![0u64; g.m()];
        for (rank, &(_, e)) in clock.iter().enumerate() {
            prio[e as usize] = rank as u64 + 1;
        }
        prio
    }

    #[test]
    fn integer_sort_equals_the_partial_cmp_reference() {
        let mut rng = SmallRng::seed_from_u64(5);
        for trial in 0..2000u64 {
            let n = rng.gen_range(2..40);
            let m = rng.gen_range(0..=n * (n - 1) / 2);
            let hi = [1, 3, 10, 1000, u64::MAX][trial as usize % 5];
            let g = gen::gnm(n, m, 1..=hi, &mut rng);
            let seed = rng.gen();
            let mut keys = Vec::new();
            let mut prio = Vec::new();
            draw_priorities(&g, &mut SmallRng::seed_from_u64(seed), &mut keys, &mut prio);
            let want = reference_priorities(&g, &mut SmallRng::seed_from_u64(seed));
            assert_eq!(prio, want, "trial={trial}");
            assert_eq!(exponential_priorities(&g, &mut SmallRng::seed_from_u64(seed)), want);
            // `keys` lists the edges in rank order.
            assert!(keys.iter().enumerate().all(|(i, &(_, e))| prio[e as usize] == i as u64 + 1));
        }
    }

    #[test]
    fn clock_bits_are_monotone_at_the_domain_extremes() {
        // The smallest and largest uniform draws, a few in between, and
        // rates from 1 to u64::MAX: every clock is positive and finite,
        // and bit order equals value order, equal values included.
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let us = [f64::MIN_POSITIVE, 1e-300, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-12, below_one];
        let ws = [1, 2, 3, 10, 1 << 20, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        let mut clocks = Vec::new();
        for &u in &us {
            for &w in &ws {
                let c = clock(u, w);
                assert!(c.is_finite() && c > 0.0, "u={u:e} w={w} clock={c:e}");
                clocks.push(c);
            }
        }
        for &a in &clocks {
            for &b in &clocks {
                assert_eq!(a.partial_cmp(&b), Some(a.to_bits().cmp(&b.to_bits())), "{a:e} {b:e}");
            }
        }
        // The extremes keyed as edges: the integer sort ranks them like
        // the reference's float sort.
        let mut by_bits: Vec<(u64, u32)> =
            clocks.iter().enumerate().map(|(i, c)| (c.to_bits(), i as u32)).collect();
        by_bits.sort_unstable();
        let mut by_float: Vec<(f64, u32)> =
            clocks.iter().enumerate().map(|(i, &c)| (c, i as u32)).collect();
        by_float.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(
            by_bits.iter().map(|k| k.1).collect::<Vec<_>>(),
            by_float.iter().map(|k| k.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn priorities_are_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::connected_gnm(30, 80, 1..=10, &mut rng);
        let p = exponential_priorities(&g, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=80u64).collect::<Vec<_>>());
    }

    #[test]
    fn heavier_edges_contract_earlier_on_average() {
        // Edge 0 has weight 50, edge 1 weight 1: edge 0 should get the
        // smaller rank (earlier contraction) about 50/51 of the time.
        let g = Graph::new(3, vec![Edge::new(0, 1, 50), Edge::new(1, 2, 1)]);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut wins = 0;
        let trials = 2000;
        for _ in 0..trials {
            let p = exponential_priorities(&g, &mut rng);
            if p[0] < p[1] {
                wins += 1;
            }
        }
        let rate = wins as f64 / trials as f64;
        assert!((rate - 50.0 / 51.0).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn unit_weights_are_uniform_permutations() {
        // First-ranked edge should be ~uniform over 4 edges.
        let g = gen::cycle(4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        let trials = 4000;
        for _ in 0..trials {
            let p = exponential_priorities(&g, &mut rng);
            let first = p.iter().position(|&x| x == 1).unwrap();
            counts[first] += 1;
        }
        for &c in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 0.25).abs() < 0.04, "counts={counts:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::cycle(10);
        let a = exponential_priorities(&g, &mut SmallRng::seed_from_u64(9));
        let b = exponential_priorities(&g, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_gives_empty_priorities() {
        let g = Graph::new(3, vec![]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(exponential_priorities(&g, &mut rng).is_empty());
    }
}
