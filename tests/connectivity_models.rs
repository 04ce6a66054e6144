//! Differential coverage of the connectivity sweep on the asynchronous
//! and dynamic-network models (the sync grid is covered in
//! tests/homology_sparse_equivalence.rs): every verdict of
//! [`connectivity_sweep_shared`] must match the dense oracle
//! ([`Homology::betti_mod2_dense`]) on an independent rebuild of the
//! group's complex, and the sweep must answer the same at every thread
//! count. The dense oracle enumerates its chain groups through
//! `IdComplex::all_simplices`, independently of the sparse engine's
//! sorted-key bases.

use pseudosphere::agreement::{
    async_task_complex, connectivity_sweep_shared, dynamic_task_parts, KSetAgreement, SweepPoint,
};
use pseudosphere::models::GraphFamily;
use pseudosphere::topology::{Complex, Homology, PreparedBoundary};

#[test]
fn async_and_dynamic_connectivity_sweeps_match_dense_verdicts() {
    let mut points = Vec::new();
    for k in 1..=2usize {
        points.push(SweepPoint::Async {
            k,
            f: 2,
            n_plus_1: 3,
            rounds: 1,
        });
        points.push(SweepPoint::Dynamic {
            k,
            n_plus_1: 3,
            family: GraphFamily::Rooted,
            rounds: 1,
        });
    }
    let results = connectivity_sweep_shared(&points, 1);
    assert_eq!(results.len(), points.len());
    for t in [2usize, 4] {
        assert_eq!(
            connectivity_sweep_shared(&points, t),
            results,
            "threads = {t}"
        );
    }

    // k = 1 and k = 2 share one group per model, so the group's value
    // domain is {0, 1, 2}: rebuild each complex with exactly that
    let task = KSetAgreement::canonical(2);
    let async_complex = async_task_complex(&task, 3, 2, 1);
    let (pool, dynamic) = dynamic_task_parts(&task.values, 3, GraphFamily::Rooted, 1);
    let dynamic_complex = Complex::from_interned(&pool, &dynamic);
    let async_dense = Homology::betti_mod2_dense(&async_complex);
    let dynamic_dense = Homology::betti_mod2_dense(&dynamic_complex);
    // the sparse engine's whole Betti vector agrees too, not only the
    // prefix a verdict reads
    assert_eq!(
        PreparedBoundary::of_complex(&async_complex).betti_mod2(),
        async_dense
    );
    assert_eq!(
        PreparedBoundary::of_id_complex(&dynamic).betti_mod2(),
        dynamic_dense
    );
    for (p, r) in points.iter().zip(&results) {
        let (complex, dense) = match p {
            SweepPoint::Async { .. } => (&async_complex, &async_dense),
            _ => (&dynamic_complex, &dynamic_dense),
        };
        assert_eq!(r.q, p.k() as i32 - 1);
        assert_eq!(r.vertices, complex.vertex_count(), "point {p:?}");
        assert_eq!(r.facets, complex.facet_count(), "point {p:?}");
        let want = dense.iter().take(p.k()).all(|&b| b == 0);
        assert_eq!(r.connected, want, "point {p:?}");
    }
}
