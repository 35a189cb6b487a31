//! E2 wall-clock companion: reference AMPC-MinCut vs exact Stoer–Wagner,
//! AMPC-MinCut with the engine's options at the default workload's graph
//! size (n=48), plus Stoer–Wagner alone at the sizes it serves: an
//! approximate-cut base case (n=32), the default workload's graphs (n=48)
//! and the whale trace's largest graph (n=480).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cut_bench::rng_for;
use cut_graph::{gen, stoer_wagner};
use mincut_core::mincut::{approx_min_cut, MinCutOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("mincut_quality");
    group.sample_size(10);
    for &n in &[128usize, 256] {
        let mut rng = rng_for("bench-e2", n as u64);
        let g = gen::connected_gnm(n, 3 * n, 1..=10, &mut rng);
        let opts = MinCutOptions { epsilon: 0.5, base_size: 32, repetitions: 2, seed: 1 };
        group.bench_with_input(BenchmarkId::new("ampc_mincut_ref", n), &g, |b, g| {
            b.iter(|| approx_min_cut(g, &opts))
        });
        group.bench_with_input(BenchmarkId::new("stoer_wagner", n), &g, |b, g| {
            b.iter(|| stoer_wagner(g))
        });
    }
    // The engine's options on the default workload's graph shape: the
    // approximate cut as `mix` serves it.
    group.sample_size(200);
    let mut rng = rng_for("bench-e2", 48);
    let g = gen::connected_gnm(48, 144, 1..=10, &mut rng);
    let opts = MinCutOptions { epsilon: 0.5, base_size: 32, repetitions: 2, seed: 1 };
    group.bench_with_input(BenchmarkId::new("approx_min_cut", 48), &g, |b, g| {
        b.iter(|| approx_min_cut(g, &opts))
    });
    for &n in &[32usize, 48, 480] {
        let mut rng = rng_for("bench-e2", n as u64);
        let g = gen::connected_gnm(n, 3 * n, 1..=10, &mut rng);
        group.sample_size(if n < 100 { 200 } else { 10 });
        group.bench_with_input(BenchmarkId::new("stoer_wagner", n), &g, |b, g| {
            b.iter(|| stoer_wagner(g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
