//! Cross-crate determinism check for the worker-pool layer: the
//! parallel integral-homology and sweep paths must be
//! **byte-identical** to the serial ones on the actual model complexes
//! the experiments build — not just on synthetic fixtures.
//!
//! The pool only distributes independent jobs (one Smith normal form
//! per dimension, one grid point or group per sweep job) and merges
//! results by job index, so any divergence from the serial path is a
//! bug, not a tolerance. This is the equivalence test CI runs under
//! both `PS_THREADS=1` and the default thread count.

use std::collections::BTreeSet;

use pseudosphere::agreement::{solvability_sweep, solvability_sweep_shared, SweepPoint};
use pseudosphere::core::ProcessId;
use pseudosphere::models::{input_simplex, FailurePattern, SemiSyncModel, SyncModel};
use pseudosphere::topology::{parallel, Homology};

const THREADS: [usize; 4] = [2, 3, 4, 16];

#[test]
fn sync_protocol_complex_homology_is_thread_invariant() {
    let complex = SyncModel::new(4, 1, 1).protocol_complex(&input_simplex(&[0u8, 1, 2, 3]), 2);
    let serial = Homology::reduced_with_threads(&complex, 1);
    for t in THREADS {
        assert_eq!(
            Homology::reduced_with_threads(&complex, t),
            serial,
            "threads={t}"
        );
    }
}

#[test]
fn semisync_complex_connectivity_is_thread_invariant() {
    let model = SemiSyncModel::new(3, 1, 1, 2);
    let complex = model.protocol_complex(&input_simplex(&[0u8, 1, 2]), 1);
    // the whole homology, hence its connectivity, at every thread count
    let serial = Homology::reduced_with_threads(&complex, 1);
    for t in THREADS {
        assert_eq!(
            Homology::reduced_with_threads(&complex, t),
            serial,
            "threads={t}"
        );
    }
}

#[test]
fn solver_sweep_is_thread_invariant() {
    let points = vec![
        SweepPoint::Async {
            k: 1,
            f: 1,
            n_plus_1: 2,
            rounds: 1,
        },
        SweepPoint::Sync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        },
        SweepPoint::Sync {
            k: 2,
            f: 2,
            n_plus_1: 3,
            k_per_round: 2,
            rounds: 1,
        },
        SweepPoint::SemiSync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            microrounds: 2,
            rounds: 1,
        },
    ];
    let serial = solvability_sweep(&points, 1);
    for t in THREADS {
        assert_eq!(solvability_sweep(&points, t), serial, "threads={t}");
    }
}

/// The amortized sweep (one shared interned complex per `(model, n, f,
/// r)` group, every `k` solved against one prepared instance) must be
/// just as thread-invariant as the per-point sweep, and must reach the
/// same verdicts.
#[test]
fn shared_solver_sweep_is_thread_invariant() {
    let mut points = Vec::new();
    for k in 1..=2usize {
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
            rounds: 2,
        });
    }
    points.push(SweepPoint::SemiSync {
        k: 1,
        f: 1,
        n_plus_1: 2,
        k_per_round: 1,
        microrounds: 2,
        rounds: 1,
    });
    let serial = solvability_sweep_shared(&points, 1);
    for t in THREADS {
        assert_eq!(solvability_sweep_shared(&points, t), serial, "threads={t}");
    }
    // verdicts coincide with the per-point canonical path
    let canonical = solvability_sweep(&points, 1);
    for (i, (s, c)) in serial.iter().zip(&canonical).enumerate() {
        assert_eq!(s.solvable, c.solvable, "point {i}: {:?}", points[i]);
    }
}

/// The default entry point `Homology::reduced` must agree with the
/// explicit serial path whatever `configured_threads()` resolves to —
/// this is what running the whole suite twice (with and without
/// `PS_THREADS=1`) exercises end to end. `betti_mod2` reads no thread
/// count; it is checked against the dense oracle on the same complex.
#[test]
fn default_entry_points_match_serial() {
    let complex = SyncModel::new(3, 1, 1).protocol_complex(&input_simplex(&[0u8, 1, 2]), 1);
    assert_eq!(
        Homology::reduced(&complex),
        Homology::reduced_with_threads(&complex, 1)
    );
    assert_eq!(
        Homology::betti_mod2(&complex),
        Homology::betti_mod2_dense(&complex)
    );
    // configured_threads itself honors the in-process override
    parallel::set_threads(Some(3));
    assert_eq!(parallel::configured_threads(), 3);
    parallel::set_threads(None);
}

/// Lemma 20 pseudosphere unions (failure-pattern-restricted complexes)
/// go through the same pipeline.
#[test]
fn failure_pattern_union_is_thread_invariant() {
    let model = SemiSyncModel::new(3, 1, 1, 2);
    let input = input_simplex(&[0u8, 1, 2]);
    let k_set: BTreeSet<ProcessId> = [ProcessId(2)].into_iter().collect();
    let pattern: FailurePattern = [(ProcessId(2), 1u32)].into_iter().collect();
    let complex = model.lemma20_rhs(&input, &k_set, &pattern).realize();
    let serial = Homology::reduced_with_threads(&complex, 1);
    for t in THREADS {
        assert_eq!(
            Homology::reduced_with_threads(&complex, t),
            serial,
            "threads={t}"
        );
    }
}
