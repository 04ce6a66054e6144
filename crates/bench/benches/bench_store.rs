//! E19 benchmarks: the persistent verdict store — cold solve-and-persist
//! vs. warm replay of the same grid, and the raw store probe path
//! (open + structural/canonical lookups) that bounds `psph serve`
//! latency on a hit.

use criterion::{criterion_group, criterion_main, Criterion};
use ps_agreement::{solvability_sweep_shared_store, SweepOptions, SweepPoint, VerdictStore};
use std::hint::black_box;
use std::path::PathBuf;

fn grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for k in 1..=2 {
        points.push(SweepPoint::Async {
            k,
            f: 1,
            n_plus_1: 3,
            rounds: 1,
        });
        points.push(SweepPoint::Sync {
            k,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        });
    }
    points
}

/// A fresh store directory, private to this bench process.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_sweep");
    group.sample_size(10);
    let points = grid();

    group.bench_function("cold_solve_and_persist", |b| {
        b.iter(|| {
            let dir = fresh_dir("psph-bench-store-cold");
            let mut store = VerdictStore::open(&dir).expect("store opens");
            let out =
                solvability_sweep_shared_store(&points, 1, SweepOptions::default(), &mut store)
                    .expect("sweep runs");
            black_box(out)
        })
    });

    let dir = fresh_dir("psph-bench-store-warm");
    let mut store = VerdictStore::open(&dir).expect("store opens");
    solvability_sweep_shared_store(&points, 1, SweepOptions::default(), &mut store)
        .expect("seed sweep runs");
    drop(store);
    group.bench_function("warm_replay", |b| {
        b.iter(|| {
            let mut store = VerdictStore::open(&dir).expect("store opens");
            let (results, report) =
                solvability_sweep_shared_store(&points, 1, SweepOptions::default(), &mut store)
                    .expect("sweep runs");
            assert_eq!(report.solver_calls, 0);
            black_box(results)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm);
criterion_main!(benches);
