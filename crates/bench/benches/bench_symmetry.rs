//! E16 benchmarks: the symmetry subsystem — canonical forms of colored
//! complexes, certification of task symmetries, and the decision-map
//! solver with orbit branching on vs. off.

use criterion::{criterion_group, criterion_main, Criterion};
use ps_agreement::{
    allowed_values, async_task_parts, task_symmetries, AgreementConstraint, DecisionMapSolver,
    PreparedInstance,
};
use ps_models::process_transpositions;
use ps_symmetry::{canonical_form, DEFAULT_BUDGET};
use std::collections::BTreeSet;
use std::hint::black_box;

/// Facets + domain colors of the async 1-round task complex, in the
/// plain `(facets, colors)` form `canonical_form` consumes.
fn colored_complex(n_plus_1: usize, f: usize) -> (usize, Vec<Vec<u32>>, Vec<u32>) {
    let values: BTreeSet<u64> = (0..=1).collect();
    let (pool, complex) = async_task_parts(&values, n_plus_1, f, 1);
    let facets: Vec<Vec<u32>> = complex.facets().map(|s| s.ids().collect()).collect();
    let table: BTreeSet<Vec<u64>> = pool
        .labels()
        .iter()
        .map(|l| allowed_values(l).into_iter().collect())
        .collect();
    let table: Vec<Vec<u64>> = table.into_iter().collect();
    let colors: Vec<u32> = pool
        .labels()
        .iter()
        .map(|l| {
            let d: Vec<u64> = allowed_values(l).into_iter().collect();
            table.binary_search(&d).unwrap() as u32
        })
        .collect();
    (pool.len(), facets, colors)
}

fn bench_canonical_form(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetry_canonical_form");
    group.sample_size(20);
    let (n, facets, colors) = colored_complex(3, 1);
    group.bench_function("async_n3_f1_r1", |b| {
        b.iter(|| black_box(canonical_form(n, &facets, &colors, DEFAULT_BUDGET).exact))
    });
    group.finish();
}

fn bench_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetry_certification");
    group.sample_size(10);
    let values: BTreeSet<u64> = (0..=1).collect();
    let (pool, complex) = async_task_parts(&values, 3, 2, 1);
    let gens = process_transpositions(3);
    group.bench_function("task_symmetries_async_n3_f2_r1", |b| {
        b.iter(|| black_box(task_symmetries(&pool, &complex, 3, &gens, &values).len()))
    });
    group.finish();
}

fn bench_orbit_branching(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetry_orbit_branching");
    group.sample_size(10);
    // 3-value alphabet so value transpositions have fixed points and
    // certified symmetries survive the attach filter
    let values: BTreeSet<u64> = (0..=2).collect();
    let (pool, complex) = async_task_parts(&values, 3, 2, 1);
    let gens = process_transpositions(3);
    let syms = task_symmetries(&pool, &complex, 3, &gens, &values);
    let mut pruned = PreparedInstance::from_interned(&pool, &complex, allowed_values);
    assert!(pruned.attach_symmetries(syms) > 0);
    let plain = PreparedInstance::from_interned(&pool, &complex, allowed_values);
    // orbit branching runs only on the instance with symmetries attached
    for (name, inst) in [("symmetry_on", &pruned), ("symmetry_off", &plain)] {
        group.bench_function(format!("async_n3_f2_k2_{name}"), |b| {
            b.iter(|| {
                let mut s = DecisionMapSolver::new();
                black_box(
                    s.solve_prepared(inst, AgreementConstraint::AtMostKDistinct(2))
                        .is_none(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_canonical_form,
    bench_certification,
    bench_orbit_branching
);
criterion_main!(benches);
