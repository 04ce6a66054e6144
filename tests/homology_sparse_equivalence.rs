//! Differential tests for the sparse GF(2) homology engine: on random
//! small complexes the word-block column reduction
//! ([`Homology::betti_mod2`]) must agree byte-for-byte with the dense
//! [`BitMatrix`]-elimination oracle ([`Homology::betti_mod2_dense`])
//! and with the Euler characteristic; [`PreparedBoundary`]'s lazy
//! connectivity queries must agree with both the dense oracle and
//! [`ConnectivityAnalyzer::mod2`]; and the shared-complex connectivity
//! sweep must reproduce the verdicts of independent dense
//! recomputation. CI runs this under `PS_THREADS=1` and the default
//! thread count (tier-1 runs the suite twice).

use proptest::prelude::*;
use pseudosphere::agreement::{
    connectivity_sweep_shared, sync_task_complex, KSetAgreement, SweepPoint,
};
use pseudosphere::topology::{
    parallel, Complex, ConnectivityAnalyzer, Homology, PreparedBoundary, Simplex,
};

/// A random small complex over vertices `0..max_vert` (same strategy as
/// tests/property_tests.rs and the `psph homology corpus` LCG stream).
fn arb_complex(max_vert: u32, max_facets: usize) -> impl Strategy<Value = Complex<u32>> {
    prop::collection::vec(
        prop::collection::btree_set(0..max_vert, 1..=4usize),
        1..=max_facets,
    )
    .prop_map(|facets| Complex::from_facets(facets.into_iter().map(Simplex::from_iter)))
}

/// Homological connectivity recomputed from the dense oracle's Betti
/// vector: `-2` for void, else one less than the first non-vanishing
/// reduced dimension (`i32::MAX` when everything vanishes).
fn dense_connectivity(c: &Complex<u32>) -> i32 {
    let b = Homology::betti_mod2_dense(c);
    if b.is_empty() {
        return -2;
    }
    match b.iter().position(|&x| x != 0) {
        Some(d) => d as i32 - 1,
        None => i32::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_betti_matches_dense_oracle(c in arb_complex(8, 8)) {
        let sparse = Homology::betti_mod2(&c);
        let dense = Homology::betti_mod2_dense(&c);
        prop_assert_eq!(&sparse, &dense);
        // reduced homology: χ = 1 + Σ_d (−1)^d b̃_d
        let mut alt = 1i64;
        for (d, &b) in sparse.iter().enumerate() {
            alt += if d % 2 == 0 { b as i64 } else { -(b as i64) };
        }
        prop_assert_eq!(alt, c.euler_characteristic());
    }

    #[test]
    fn prepared_connectivity_matches_dense_and_analyzer(c in arb_complex(8, 8)) {
        let expected = dense_connectivity(&c);
        let mut pb = PreparedBoundary::of_complex(&c);
        prop_assert_eq!(pb.homological_connectivity(), expected);
        let an = ConnectivityAnalyzer::mod2(&c);
        prop_assert_eq!(an.homological_connectivity(), expected);
        // is_q_connected must be the prefix-vanishing predicate of the
        // dense Betti vector at every level.
        let dense = Homology::betti_mod2_dense(&c);
        for q in -1..=c.dim() {
            let want = dense.iter().take((q + 1) as usize).all(|&b| b == 0);
            prop_assert_eq!(pb.is_q_connected(q), want, "q = {}", q);
        }
    }

    /// The GF(2) engine reads no thread count: its Betti numbers and its
    /// work counters are the same at every configured thread count (the
    /// `--threads` flag and `PS_THREADS` set it). `set_threads` is
    /// process-wide; no other test in this file reads the thread count.
    #[test]
    fn sparse_betti_is_thread_invariant(c in arb_complex(8, 8)) {
        let runs: Vec<_> = [1usize, 2, 3, 16]
            .into_iter()
            .map(|t| {
                parallel::set_threads(Some(t));
                let mut pb = PreparedBoundary::of_complex(&c);
                (t, pb.betti_mod2(), pb.stats(), pb.assembled_columns())
            })
            .collect();
        parallel::set_threads(None);
        let (_, betti, stats, columns) = &runs[0];
        for (t, b, s, a) in &runs[1..] {
            prop_assert_eq!(b, betti, "threads = {}", t);
            prop_assert_eq!(s, stats, "threads = {}", t);
            prop_assert_eq!(a, columns, "threads = {}", t);
        }
    }
}

/// The grouped connectivity sweep must reproduce, point for point, the
/// verdict of independently rebuilding each group's complex (value
/// domain `{0..=k_max}` of the group) and asking the dense oracle —
/// and must be thread-invariant.
#[test]
fn connectivity_sweep_matches_independent_dense_verdicts() {
    let mut points = Vec::new();
    for rounds in 1..=2usize {
        for k in 1..=2usize {
            points.push(SweepPoint::Sync {
                k,
                f: 1,
                n_plus_1: 3,
                k_per_round: 1,
                rounds,
            });
        }
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

    // Both k = 1 and k = 2 live in one group per rounds value, so the
    // group's value domain is {0, 1, 2} — rebuild with exactly that.
    let task = KSetAgreement::canonical(2);
    for (p, r) in points.iter().zip(&results) {
        let SweepPoint::Sync { k, rounds, .. } = *p else {
            unreachable!()
        };
        let c = sync_task_complex(&task, 3, 1, 1, rounds);
        assert_eq!(r.q, k as i32 - 1);
        assert_eq!(r.vertices, c.vertex_count());
        assert_eq!(r.facets, c.facet_count());
        let dense = Homology::betti_mod2_dense(&c);
        let want = dense.iter().take(k).all(|&b| b == 0);
        assert_eq!(r.connected, want, "point {p:?}");
    }
}

/// Repeated queries against one shared [`PreparedBoundary`] (the sweep
/// cache pattern: connectivity first, full Betti vector afterwards)
/// must not change any answer relative to a cold engine.
#[test]
fn warm_cache_answers_match_cold_engine() {
    let task = KSetAgreement::canonical(2);
    let c = sync_task_complex(&task, 4, 2, 2, 1);
    let cold_betti = Homology::betti_mod2(&c);

    let mut pb = PreparedBoundary::of_complex(&c);
    let conn = pb.homological_connectivity(); // partial, bottom-up
    let warm_betti = pb.betti_mod2(); // completes on the warm cache
    assert_eq!(warm_betti, cold_betti);
    assert_eq!(
        conn,
        match cold_betti.iter().position(|&b| b != 0) {
            Some(d) => d as i32 - 1,
            None => i32::MAX,
        }
    );
    // and the counters only ever grow — a re-query does no new work
    let columns = pb.assembled_columns();
    let additions = pb.stats().additions;
    assert_eq!(pb.betti_mod2(), warm_betti);
    assert_eq!(pb.assembled_columns(), columns);
    assert_eq!(pb.stats().additions, additions);
}
