//! Certifying task symmetries on a complex's pseudosphere cover never
//! changes what is certified.
//!
//! The sync, semi-sync and async builders emit every last-round
//! pseudosphere through `InternedBuilder::add_pseudosphere`, so their
//! complexes carry a pseudosphere cover and `AutomorphismValidator`
//! certifies a candidate by mapping slot lists instead of walking the
//! facets. A copy rebuilt from the facets alone has no cover and takes
//! the walk. On every instance below both must certify exactly the same
//! symmetries, element for element, and accept or reject exactly the
//! same vertex swaps. Byzantine complexes (built facet by facet) have
//! no cover and are included as a control.

use std::collections::BTreeSet;

use pseudosphere::agreement::{
    async_task_parts, byzantine_task_parts, semisync_task_parts, sync_task_parts, task_symmetries,
    SymmetricView,
};
use pseudosphere::models::process_transpositions;
use pseudosphere::symmetry::{AutomorphismValidator, Perm};
use pseudosphere::topology::{IdComplex, VertexPool};

/// Certifies the task's symmetries on `complex` and on a cover-less
/// copy and asserts both agree. Returns whether `complex` has a cover.
fn certify_both_ways<V: SymmetricView>(
    name: &str,
    pool: &VertexPool<V>,
    complex: &IdComplex,
    n_plus_1: usize,
    values: &BTreeSet<u64>,
) -> bool {
    let bare = IdComplex::from_facets(complex.facets().cloned());
    assert!(bare.pseudosphere_cover().is_none());
    assert_eq!(&bare, complex);
    let gens = process_transpositions(n_plus_1);
    let covered = task_symmetries(pool, complex, n_plus_1, &gens, values);
    let walked = task_symmetries(pool, &bare, n_plus_1, &gens, values);
    assert_eq!(covered, walked, "{name}: certified sets differ");
    assert!(!walked.is_empty(), "{name}: nothing certified");
    // vertex swaps the model does not induce, which are mostly not
    // automorphisms: the cover must reject exactly what the walk does
    let on_cover = AutomorphismValidator::new(complex, pool.len());
    let on_facets = AutomorphismValidator::new(&bare, pool.len());
    let mut rejected = 0;
    for v in 1..pool.len().min(8) as u32 {
        let swap = Perm::transposition(pool.len(), 0, v);
        let certified = on_facets.is_automorphism(&swap);
        assert_eq!(
            on_cover.is_automorphism(&swap),
            certified,
            "{name}: (0 {v})"
        );
        rejected += usize::from(!certified);
    }
    assert!(rejected > 0, "{name}: every probe is an automorphism");
    complex.pseudosphere_cover().is_some()
}

/// The value domains every instance is built over.
fn domains() -> [BTreeSet<u64>; 2] {
    [(0..=1).collect(), (0..=2).collect()]
}

/// Whether a crash-model build must carry a cover: every one-round
/// build in which at least two processes always participate. Where one
/// process may run alone (f = n), the lone runs add one single-facet
/// pseudosphere per input, and the cover is no smaller than the facet
/// set (sync n+1=3 f=2 over {0, 1}: 74 pseudospheres, 74 facets), so
/// none is attached; most two-round builds have one as well, but not
/// all (sync n+1=3 f=1 r=2).
fn cover_expected(n_plus_1: usize, f: usize, rounds: usize) -> bool {
    rounds == 1 && f + 1 < n_plus_1
}

/// `(n + 1, r)` for every instance size: n + 1 ≤ 3 with r ≤ 2, and
/// n + 1 = 4 with r = 1.
const SIZES: [(usize, usize); 5] = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)];

#[test]
fn sync_cover_certifies_what_the_walk_does() {
    for values in domains() {
        for (n_plus_1, rounds) in SIZES {
            for f in 1..n_plus_1 {
                for k_per_round in [1, f] {
                    let name = format!(
                        "sync n+1={n_plus_1} f={f} kpr={k_per_round} r={rounds} values={values:?}"
                    );
                    let (pool, c) = sync_task_parts(&values, n_plus_1, k_per_round, f, rounds);
                    let covered = certify_both_ways(&name, &pool, &c, n_plus_1, &values);
                    assert!(
                        covered || !cover_expected(n_plus_1, f, rounds),
                        "{name}: no cover"
                    );
                }
            }
        }
    }
}

#[test]
fn semisync_cover_certifies_what_the_walk_does() {
    for values in domains() {
        for (n_plus_1, rounds) in SIZES {
            for f in 1..n_plus_1 {
                let name = format!("semisync n+1={n_plus_1} f={f} r={rounds} values={values:?}");
                let (pool, c) = semisync_task_parts(&values, n_plus_1, 1, f, 2, rounds);
                let covered = certify_both_ways(&name, &pool, &c, n_plus_1, &values);
                assert!(
                    covered || !cover_expected(n_plus_1, f, rounds),
                    "{name}: no cover"
                );
            }
        }
    }
}

#[test]
fn async_cover_certifies_what_the_walk_does() {
    for values in domains() {
        for (n_plus_1, rounds) in SIZES {
            for f in 1..n_plus_1 {
                // the largest instance, 4 processes down to one
                // participant over three values, is left out for time
                if (n_plus_1, f, values.len()) == (4, 3, 3) {
                    continue;
                }
                let name = format!("async n+1={n_plus_1} f={f} r={rounds} values={values:?}");
                let (pool, c) = async_task_parts(&values, n_plus_1, f, rounds);
                let covered = certify_both_ways(&name, &pool, &c, n_plus_1, &values);
                assert!(
                    covered || !cover_expected(n_plus_1, f, rounds),
                    "{name}: no cover"
                );
            }
        }
    }
}

#[test]
fn byzantine_builds_have_no_cover_and_keep_the_walk() {
    for values in domains() {
        for (n_plus_1, rounds) in SIZES {
            let name = format!("byzantine n+1={n_plus_1} t=1 r={rounds} values={values:?}");
            let (pool, c) = byzantine_task_parts(&values, n_plus_1, 1, rounds);
            let covered = certify_both_ways(&name, &pool, &c, n_plus_1, &values);
            assert!(!covered, "{name}: a facet-by-facet build has a cover");
        }
    }
}
