//! E1/E2 benchmarks: pseudosphere construction and realization scaling
//! (Figures 1–2) — facet counts grow as `|U|^(n+1)`; the symbolic form
//! stays O(n·|U|).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_core::{process_simplex, Pseudosphere, PseudosphereUnion};
use ps_topology::Homology;
use std::collections::BTreeSet;
use std::hint::black_box;

fn bench_realize(c: &mut Criterion) {
    let mut group = c.benchmark_group("pseudosphere_realize");
    for n in [2usize, 3, 4, 5] {
        for vals in [2u8, 3] {
            let family: BTreeSet<u8> = (0..vals).collect();
            let ps = Pseudosphere::uniform(process_simplex(n), family);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("n={n}_vals={vals}")),
                &ps,
                |b, ps| b.iter(|| black_box(ps.realize())),
            );
        }
    }
    group.finish();
}

fn bench_union_realize(c: &mut Criterion) {
    // union materialization: members share one pool, absorption on ids
    let mut group = c.benchmark_group("pseudosphere_union_realize");
    group.sample_size(10);
    let full: BTreeSet<u8> = (0..3).collect();
    let members: Vec<Pseudosphere<ps_core::ProcessId, u8>> = (0..3u8)
        .map(|lo| {
            Pseudosphere::uniform(process_simplex(4), full.clone())
                .with_family(ps_core::ProcessId(0), [lo].into_iter().collect())
        })
        .collect();
    let union = PseudosphereUnion::from_members(members);
    group.bench_function("3_members_n4_vals3", |b| {
        b.iter(|| black_box(union.realize()))
    });
    group.finish();
}

fn bench_homology_on_ids(c: &mut Criterion) {
    // boundary matrices assemble from the id basis; Betti numbers of the
    // binary pseudosphere (an n-sphere) exercise the full reduction
    let mut group = c.benchmark_group("homology_interned_basis");
    group.sample_size(10);
    for n in [3usize, 4] {
        let ps = Pseudosphere::uniform(process_simplex(n), [0u8, 1].into_iter().collect());
        let complex = ps.realize();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sphere_n={n}")),
            &complex,
            |b, cx| b.iter(|| black_box(Homology::reduced(cx))),
        );
    }
    group.finish();
}

fn bench_symbolic_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("pseudosphere_symbolic");
    let family: BTreeSet<u8> = (0..4).collect();
    let a = Pseudosphere::uniform(process_simplex(6), family.clone());
    let b = Pseudosphere::uniform(process_simplex(6), (1..5).collect());
    group.bench_function("intersect_n6", |bch| {
        bch.iter(|| black_box(a.intersect(&b)))
    });
    group.bench_function("connectivity_n6", |bch| {
        bch.iter(|| black_box(a.connectivity()))
    });
    group.bench_function("facet_count_n6", |bch| {
        bch.iter(|| black_box(a.facet_count()))
    });
    group.finish();
}

fn bench_figure1(c: &mut Criterion) {
    // the exact Figure 1 object, end to end: construct + realize + count
    c.bench_function("figure1_binary_3proc_octahedron", |b| {
        b.iter(|| {
            let ps = Pseudosphere::uniform(process_simplex(3), [0u8, 1].into_iter().collect());
            let complex = ps.realize();
            black_box(complex.f_vector())
        })
    });
}

criterion_group!(
    benches,
    bench_realize,
    bench_union_realize,
    bench_homology_on_ids,
    bench_symbolic_ops,
    bench_figure1
);
criterion_main!(benches);
