//! Certifying symmetries on the solver's first need changes no search
//! and no certified set.
//!
//! The sweeps prepare each group without certifying its symmetries:
//! [`SweepKey::prepare`] attaches a [`Certifier`], and the search
//! fetches the symmetries only when a refutation first leaves a
//! candidate untried. These tests solve the same instances both ways —
//! the sweep's deferred path, and an instance built from the same parts
//! with `task_symmetries` attached eagerly — and require the same
//! verdict, all eight `SolverStats` counters, the same dense witness and
//! the same learned nogoods. They also pin where certification still
//! runs, and that the deferred core certifies exactly `task_symmetries`'
//! set, on the cover and through the facet-list walk.

use std::collections::BTreeSet;

use ps_models::{process_transpositions, GraphFamily};
use ps_topology::{IdComplex, VertexPool};

use crate::experiments::{
    allowed_values, allowed_values_ss, async_task_parts, byzantine_task_parts, dynamic_task_parts,
    semisync_task_parts, sync_task_parts, PreparedGroup, SweepKey, TaskParts,
};
use crate::solver::{AgreementConstraint, DecisionMapSolver, PreparedInstance, SolverConfig};
use crate::symmetry::{task_symmetries, Certifier, InstanceSymmetry, SymmetricView};
use crate::SolverStats;

/// What one solve produced: the dense witness, every counter and the
/// learned nogoods.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    witness: Option<Vec<u64>>,
    stats: SolverStats,
    nogoods: Vec<Vec<(u32, u64)>>,
}

fn solve<V>(
    inst: &PreparedInstance<V>,
    constraint: AgreementConstraint,
    learning: bool,
) -> Outcome {
    let mut solver = DecisionMapSolver::with_config(SolverConfig {
        learning,
        ..SolverConfig::default()
    });
    let witness = solver.solve_dense(inst, constraint);
    Outcome {
        witness,
        stats: solver.stats(),
        nogoods: solver.learned_nogoods().to_vec(),
    }
}

/// `parts` prepared the way callers of the public API do: every label
/// cloned out of the pool, and `task_symmetries` attached at once.
fn eager<V: SymmetricView>(
    pool: &VertexPool<V>,
    complex: &IdComplex,
    allowed: fn(&V) -> BTreeSet<u64>,
    n_plus_1: usize,
    values: &BTreeSet<u64>,
) -> PreparedInstance<V> {
    let mut inst = PreparedInstance::from_interned(pool, complex, allowed);
    let gens = process_transpositions(n_plus_1);
    inst.attach_symmetries(task_symmetries(pool, complex, n_plus_1, &gens, values));
    inst
}

/// Solves `group` (deferred) and `reference` (eager) under every
/// constraint and asserts equal outcomes.
fn compare<V>(
    name: &str,
    group: &PreparedInstance<V>,
    reference: &PreparedInstance<V>,
    constraints: &[AgreementConstraint],
    learning: bool,
) {
    for &constraint in constraints {
        let deferred = solve(group, constraint, learning);
        let eager = solve(reference, constraint, learning);
        assert_eq!(
            deferred, eager,
            "{name} {constraint:?} learning={learning}: the deferred search differs"
        );
    }
}

/// Prepares `key` over `values` on the sweep's path and from the same
/// parts with eager symmetries, solves both at each of `ks` (in order,
/// as a sweep group does) under `constraints(k)`, and returns whether
/// the sweep's group certified. Asserts that it did not certify at
/// preparation, and that once certified it keeps its first set.
fn check_group(
    name: &str,
    key: &SweepKey,
    values: &BTreeSet<u64>,
    ks: &[usize],
    constraints: impl Fn(usize) -> Vec<AgreementConstraint>,
    learning: bool,
) -> bool {
    let group = key.prepare(values, true);
    assert!(
        group.certified().is_none(),
        "{name}: certified at preparation"
    );
    let n_plus_1 = key.n_plus_1();
    let mut first: Option<*const InstanceSymmetry> = None;
    for &k in ks {
        match (&group, key.task_parts(values)) {
            (PreparedGroup::Viewed(inst), TaskParts::Viewed(pool, c)) => {
                let reference = eager(&pool, &c, allowed_values, n_plus_1, values);
                compare(name, inst, &reference, &constraints(k), learning);
            }
            (PreparedGroup::SsViewed(inst), TaskParts::SsViewed(pool, c)) => {
                let reference = eager(&pool, &c, allowed_values_ss, n_plus_1, values);
                compare(name, inst, &reference, &constraints(k), learning);
            }
            _ => unreachable!("one key builds one view type"),
        }
        if let Some(certified) = group.certified() {
            let at = certified.as_ptr();
            assert_eq!(*first.get_or_insert(at), at, "{name}: certified twice");
        }
    }
    group.certified().is_some()
}

/// The sweep's constraint: at most `k` distinct values.
fn k_set(k: usize) -> Vec<AgreementConstraint> {
    vec![AgreementConstraint::AtMostKDistinct(k)]
}

/// The benchmark's `search` groups, each over `{0, 1, 2}`.
fn search_groups() -> Vec<(&'static str, SweepKey)> {
    let mut out = Vec::new();
    for rounds in 1..=2 {
        out.push((
            "semisync n+1=4 f=1 p=2",
            SweepKey::SemiSync {
                f: 1,
                n_plus_1: 4,
                k_per_round: 1,
                microrounds: 2,
                rounds,
            },
        ));
        out.push((
            "sync n+1=4 f=1 kpr=1",
            SweepKey::Sync {
                f: 1,
                n_plus_1: 4,
                k_per_round: 1,
                rounds,
            },
        ));
        out.push((
            "byzantine n+1=3 t=1",
            SweepKey::Byzantine {
                t: 1,
                n_plus_1: 3,
                rounds,
            },
        ));
    }
    out
}

/// The benchmark's `construct` groups (r = 1), each over `{0, 1, 2}`,
/// with whether its search certifies.
fn construct_groups() -> Vec<(&'static str, SweepKey, bool)> {
    vec![
        (
            "sync n+1=5 f=1 kpr=1",
            SweepKey::Sync {
                f: 1,
                n_plus_1: 5,
                k_per_round: 1,
                rounds: 1,
            },
            false,
        ),
        (
            "async n+1=4 f=2",
            SweepKey::Async {
                f: 2,
                n_plus_1: 4,
                rounds: 1,
            },
            true,
        ),
        (
            "byzantine n+1=4 t=1",
            SweepKey::Byzantine {
                t: 1,
                n_plus_1: 4,
                rounds: 1,
            },
            false,
        ),
        (
            "dynamic rooted n+1=3",
            SweepKey::Dynamic {
                n_plus_1: 3,
                family: GraphFamily::Rooted,
                rounds: 1,
            },
            true,
        ),
    ]
}

#[test]
fn search_groups_search_as_with_eager_symmetries_and_never_certify() {
    let values: BTreeSet<u64> = (0..=2).collect();
    for (name, key) in search_groups() {
        for learning in [true, false] {
            let certified = check_group(name, &key, &values, &[1, 2], k_set, learning);
            assert!(!certified, "{name} learning={learning}: certified");
        }
    }
}

#[test]
fn construct_groups_search_as_with_eager_symmetries() {
    let values: BTreeSet<u64> = (0..=2).collect();
    for (name, key, certifies) in construct_groups() {
        for learning in [true, false] {
            let certified = check_group(name, &key, &values, &[1, 2], k_set, learning);
            assert_eq!(certified, certifies, "{name} learning={learning}");
        }
    }
}

/// The vertex count above which `tests/solver_differential.rs` skips
/// an instance.
const DIFFERENTIAL_MAX_VERTICES: usize = 700;

/// Every instance the differential suite draws from, at every
/// constraint it draws: the model, n + 1, f, r and k, solved over
/// `{0, …, k}` under at most k distinct values, all values distinct,
/// and values within a range of k − 1.
#[test]
fn differential_instances_search_as_with_eager_symmetries() {
    let mut certified = 0;
    let mut instances = 0;
    for model in 0..3 {
        for n_plus_1 in 2..=4usize {
            for f in 1..=2usize.min(n_plus_1 - 1) {
                for rounds in 1..=2 {
                    if n_plus_1 >= 4 && rounds >= 2 {
                        continue;
                    }
                    for k in 1..=2usize {
                        let k_per_round = k.min(f);
                        let key = match model {
                            0 => SweepKey::Async {
                                f,
                                n_plus_1,
                                rounds,
                            },
                            1 => SweepKey::Sync {
                                f,
                                n_plus_1,
                                k_per_round,
                                rounds,
                            },
                            _ => SweepKey::SemiSync {
                                f,
                                n_plus_1,
                                k_per_round,
                                microrounds: 2,
                                rounds,
                            },
                        };
                        let values: BTreeSet<u64> = (0..=k as u64).collect();
                        if key.prepare(&values, false).vertex_count() > DIFFERENTIAL_MAX_VERTICES {
                            continue;
                        }
                        let name = format!("{key:?} k={k}");
                        let constraints = |k: usize| {
                            vec![
                                AgreementConstraint::AtMostKDistinct(k),
                                AgreementConstraint::AllDistinct,
                                AgreementConstraint::MaxRange(k as u64 - 1),
                            ]
                        };
                        for learning in [true, false] {
                            instances += 1;
                            let did =
                                check_group(&name, &key, &values, &[k], constraints, learning);
                            certified += usize::from(did);
                        }
                    }
                }
            }
        }
    }
    // no search of this grid refutes a candidate while another is
    // still untried, so none fetches its symmetries
    assert!(instances > 0);
    assert_eq!(certified, 0, "searches certified out of {instances}");
}

/// Asserts that the deferred core certifies `task_symmetries`' set on
/// `pool` and `complex`, once on the complex's cover and once through
/// the facet-list walk alone; returns whether the complex has a cover.
fn certify_both<V: SymmetricView>(
    name: &str,
    pool: VertexPool<V>,
    complex: IdComplex,
    allowed: fn(&V) -> BTreeSet<u64>,
    n_plus_1: usize,
    values: &BTreeSet<u64>,
) -> bool {
    let gens = process_transpositions(n_plus_1);
    let eager = task_symmetries(&pool, &complex, n_plus_1, &gens, values);
    assert!(!eager.is_empty(), "{name}: nothing certified");
    let inst = PreparedInstance::from_parts(pool, &complex, allowed);
    let cover = complex.into_pseudosphere_cover();
    let covered = cover.is_some();
    let on_cover = Certifier::new(cover, n_plus_1, values).certify(&inst);
    assert_eq!(on_cover, eager, "{name}: certified sets differ");
    let walked = Certifier::new(None, n_plus_1, values).certify(&inst);
    assert_eq!(
        walked, eager,
        "{name}: certified sets differ without a cover"
    );
    covered
}

/// The instances of `tests/symmetry_cover.rs`, plus dynamic builds:
/// every model at n + 1 ≤ 3 with r ≤ 2 and n + 1 = 4 with r = 1 (dynamic
/// at n + 1 ≤ 3, r = 1), over `{0, 1}` and `{0, 1, 2}`.
#[test]
fn deferred_core_certifies_what_task_symmetries_does() {
    const SIZES: [(usize, usize); 5] = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)];
    let (mut covered, mut bare) = (0, 0);
    let mut tally = |has_cover: bool| {
        if has_cover {
            covered += 1;
        } else {
            bare += 1;
        }
    };
    for values in [(0..=1).collect::<BTreeSet<u64>>(), (0..=2).collect()] {
        for (n_plus_1, rounds) in SIZES {
            for f in 1..n_plus_1 {
                for k_per_round in BTreeSet::from([1, f]) {
                    let name = format!("sync n+1={n_plus_1} f={f} kpr={k_per_round} r={rounds}");
                    let (pool, c) = sync_task_parts(&values, n_plus_1, k_per_round, f, rounds);
                    tally(certify_both(
                        &name,
                        pool,
                        c,
                        allowed_values,
                        n_plus_1,
                        &values,
                    ));
                }
                let name = format!("semisync n+1={n_plus_1} f={f} r={rounds}");
                let (pool, c) = semisync_task_parts(&values, n_plus_1, 1, f, 2, rounds);
                tally(certify_both(
                    &name,
                    pool,
                    c,
                    allowed_values_ss,
                    n_plus_1,
                    &values,
                ));
                if (n_plus_1, f, values.len()) != (4, 3, 3) {
                    let name = format!("async n+1={n_plus_1} f={f} r={rounds}");
                    let (pool, c) = async_task_parts(&values, n_plus_1, f, rounds);
                    tally(certify_both(
                        &name,
                        pool,
                        c,
                        allowed_values,
                        n_plus_1,
                        &values,
                    ));
                }
            }
            let name = format!("byzantine n+1={n_plus_1} t=1 r={rounds}");
            let (pool, c) = byzantine_task_parts(&values, n_plus_1, 1, rounds);
            tally(certify_both(
                &name,
                pool,
                c,
                allowed_values,
                n_plus_1,
                &values,
            ));
        }
        for n_plus_1 in 2..=3 {
            for family in [GraphFamily::Rooted, GraphFamily::StronglyConnected] {
                let name = format!("dynamic {family:?} n+1={n_plus_1} r=1");
                let (pool, c) = dynamic_task_parts(&values, n_plus_1, family, 1);
                tally(certify_both(
                    &name,
                    pool,
                    c,
                    allowed_values,
                    n_plus_1,
                    &values,
                ));
            }
        }
    }
    assert!(covered > 0 && bare > 0, "{covered} covered, {bare} bare");
}
