//! E3 wall-clock companion: the singleton-cut engines side by side —
//! the contraction oracle, the serving sweep, the Theorem 3 reference
//! engine and the in-model executor.

use ampc_model::{AmpcConfig, Executor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cut_bench::rng_for;
use cut_graph::gen;
use mincut_core::contraction::contraction_oracle;
use mincut_core::model::ampc_smallest_singleton_cut;
use mincut_core::priorities::exponential_priorities;
use mincut_core::singleton::{sweep, SingletonEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("singleton_cut");
    group.sample_size(10);
    // n = 48 is the shape of servebench's `mix` graphs.
    for &n in &[48usize, 256, 1024] {
        let mut rng = rng_for("bench-e3", n as u64);
        let g = gen::connected_gnm(n, 3 * n, 1..=10, &mut rng);
        let prio = exponential_priorities(&g, &mut rng);
        group.bench_with_input(BenchmarkId::new("oracle", n), &(&g, &prio), |b, (g, p)| {
            b.iter(|| contraction_oracle(g, p))
        });
        group.bench_with_input(BenchmarkId::new("sweep", n), &(&g, &prio), |b, (g, p)| {
            b.iter(|| sweep(g, p, None).cut)
        });
        group.bench_with_input(BenchmarkId::new("theorem3", n), &(&g, &prio), |b, (g, p)| {
            b.iter(|| SingletonEngine::new(g, p).smallest(g))
        });
        group.bench_with_input(BenchmarkId::new("in_model", n), &(&g, &prio), |b, (g, p)| {
            b.iter(|| {
                let mut exec = Executor::new(AmpcConfig::new(g.n(), 0.5));
                ampc_smallest_singleton_cut(&mut exec, g, p)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
