//! E3/E9/E10 benchmarks: synchronous protocol-complex construction
//! (Figure 3 and its r-round iterations) and the FloodSet protocol
//! (`KSetFlood`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_models::{input_simplex, SyncModel};
use ps_protocols::KSetFlood;
use ps_runtime::{enumerate_sync_views, NoFailures, RandomAdversary, SyncExecutor};
use std::hint::black_box;

fn bench_figure3(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_figure3");
    let model = SyncModel::new(3, 1, 1);
    let input = input_simplex(&[0u8, 1, 2]);
    group.bench_function("union_symbolic", |b| {
        b.iter(|| black_box(model.one_round_union(&input)))
    });
    group.bench_function("union_realized", |b| {
        b.iter(|| black_box(model.one_round_union(&input).realize()))
    });
    group.bench_function("views_explicit", |b| {
        b.iter(|| black_box(model.one_round_complex(&input)))
    });
    group.bench_function("simulator_exhaustive", |b| {
        b.iter(|| black_box(enumerate_sync_views(&[0, 1, 2], 1, 1, 1)))
    });
    group.finish();
}

fn bench_r_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_r_rounds");
    group.sample_size(10);
    for r in [1usize, 2, 3] {
        let model = SyncModel::new(3, 1, 2);
        let input = input_simplex(&[0u8, 1, 2]);
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| black_box(model.protocol_complex(&input, r)))
        });
    }
    group.finish();
}

fn bench_floodset(c: &mut Criterion) {
    let mut group = c.benchmark_group("floodset_protocol");
    for n_plus_1 in [4usize, 8, 16, 32] {
        let inputs: Vec<u64> = (0..n_plus_1 as u64).collect();
        group.bench_with_input(
            BenchmarkId::new("failure_free", n_plus_1),
            &n_plus_1,
            |b, &n| {
                let proto = KSetFlood::optimal_sync(n / 2, 1);
                let exec = SyncExecutor::new(proto, n, n / 2);
                b.iter(|| black_box(exec.run(&inputs, &mut NoFailures, proto.rounds + 1)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("random_crashes", n_plus_1),
            &n_plus_1,
            |b, &n| {
                let proto = KSetFlood::optimal_sync(n / 2, 1);
                let exec = SyncExecutor::new(proto, n, n / 2);
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut adv = RandomAdversary::new(seed, n / 2, 0.5);
                    black_box(exec.run(&inputs, &mut adv, proto.rounds + 1))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_figure3, bench_r_rounds, bench_floodset);
criterion_main!(benches);
