//! E3 wall-clock companion: the singleton-cut engines side by side —
//! the contraction oracle, the serving sweep, the Theorem 3 reference
//! engine and the in-model executor — and the steps of one Algorithm 1
//! branch at the default workload's graph shape, one row each.

use ampc_model::{AmpcConfig, Executor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cut_bench::rng_for;
use cut_graph::{gen, stoer_wagner};
use mincut_core::contraction::contraction_oracle;
use mincut_core::model::ampc_smallest_singleton_cut;
use mincut_core::priorities::exponential_priorities;
use mincut_core::singleton::{sweep, SingletonEngine, Sweeper};

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

    // One Algorithm 1 branch at the `mix` shape, step by step: draw the
    // priorities, sweep with the contraction target 24, contract, and
    // solve the 24-vertex contraction exactly.
    let mut group = c.benchmark_group("algorithm1_branch");
    group.sample_size(500);
    let mut rng = rng_for("bench-e3", 48);
    let g = gen::connected_gnm(48, 144, 1..=10, &mut rng);
    let mut sweeper = Sweeper::default();
    group.bench_function("priorities", |b| b.iter(|| sweeper.draw(&g, &mut rng)));
    group.bench_function("sweep_target_24", |b| b.iter(|| sweeper.run(&g, Some(24))));
    let labels = sweeper.take_prefix().expect("target given");
    group.bench_function("contract", |b| b.iter(|| g.contract(&labels)));
    let h = g.contract(&labels);
    group.bench_with_input(BenchmarkId::new("stoer_wagner", h.n()), &h, |b, h| {
        b.iter(|| stoer_wagner(h))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
