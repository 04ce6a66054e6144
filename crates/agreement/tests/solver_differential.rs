//! Differential harness for the conflict-driven decision-map solver.
//!
//! Every randomized `(model, n ≤ 4, f, r, k, constraint)` instance is
//! solved **four** ways — nogood learning on/off × symmetry (orbit
//! branching) on/off — and cross-checked against the recursive
//! chronological oracle. All five runs must return the same verdict,
//! every witness must pass independent verification against the label
//! complex, and no accepted witness may violate a nogood learned by any
//! of the runs (learned nogoods are global lemmas: "no valid decision
//! map contains all of these (vertex, value) pairs").
//!
//! In debug builds the production search also checks every branch
//! vertex its selection index picks against the oracle's linear scan
//! (on instances of up to 1024 vertices), so the four runs check the
//! index under backjumps and orbit branching, where the oracle itself
//! cannot follow.
//!
//! Failures shrink through proptest and print the offending grid point.
//! The suite rides the CI `solver-depth` job (`RUST_MIN_STACK=262144`),
//! so the oracle — which recurses one call frame per vertex — is only
//! consulted on instances small enough for a 256 KiB stack; the
//! four-way iterative equivalence runs regardless.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use proptest::prelude::*;
use ps_agreement::{
    allowed_values, allowed_values_ss, async_task_parts, semisync_task_parts, sync_task_parts,
    task_symmetries, AgreementConstraint, DecisionMapSolver, KSetAgreement, PreparedInstance,
    SolverConfig,
};
use ps_topology::{Complex, IdComplex, Label, VertexPool};

/// Instances above this vertex count are skipped outright: the largest
/// random corners (async n = 3, f = 2, r = 2 at 7488 vertices; async
/// n = 4, f = 2, k = 2 at 756 vertices and 194k facets) would dominate
/// the suite's runtime — five full solves each, with per-facet witness
/// verification on top — without adding coverage beyond what the
/// sweep-equivalence tests and EXPERIMENTS.md E17 already exercise.
/// The bound also keeps the recursive oracle (one call frame per
/// vertex) inside the CI solver-depth job's 256 KiB stacks.
const MAX_VERTICES: usize = 700;

/// One solver run: verdict, witness (if any), and the nogoods the run
/// learned.
struct Run<V> {
    name: &'static str,
    witness: Option<BTreeMap<V, u64>>,
    nogoods: Vec<Vec<(u32, u64)>>,
}

fn run_config<V: Label>(
    name: &'static str,
    instance: &PreparedInstance<V>,
    constraint: AgreementConstraint,
    learning: bool,
) -> Run<V> {
    let mut solver = DecisionMapSolver::with_config(SolverConfig {
        learning,
        ..SolverConfig::default()
    });
    let witness = solver.solve_prepared(instance, constraint);
    Run {
        name,
        witness,
        nogoods: solver.learned_nogoods().to_vec(),
    }
}

/// Solves the instance four ways (+ oracle when small enough) and
/// asserts the equivalences. `plain` has no symmetries attached;
/// `sym` carries whatever certified symmetries the instance admits.
fn check_instance<V: Label>(
    point: &str,
    pool: &VertexPool<V>,
    id_complex: &IdComplex,
    plain: &PreparedInstance<V>,
    sym: &PreparedInstance<V>,
    constraint: AgreementConstraint,
    allowed: impl FnMut(&V) -> BTreeSet<u64> + Copy,
) -> Result<(), TestCaseError> {
    let runs = [
        run_config("learning+symmetry", sym, constraint, true),
        run_config("learning only", plain, constraint, true),
        run_config("symmetry only", sym, constraint, false),
        run_config("chronological", plain, constraint, false),
    ];
    let verdict = runs[0].witness.is_some();
    let labels = Complex::from_interned(pool, id_complex);
    for run in &runs {
        prop_assert_eq!(
            run.witness.is_some(),
            verdict,
            "verdict disagreement at {}: `{}` says {}, `{}` says {}",
            point,
            runs[0].name,
            verdict,
            run.name,
            run.witness.is_some()
        );
        if let Some(map) = &run.witness {
            prop_assert!(
                DecisionMapSolver::verify_with(&labels, map, allowed, constraint),
                "invalid witness from `{}` at {}",
                run.name,
                point
            );
        }
    }
    // the oracle recurses one frame per vertex; stay inside the CI
    // solver-depth job's 256 KiB stacks
    if plain.vertex_count() <= MAX_VERTICES {
        let mut oracle = DecisionMapSolver::new();
        let map = oracle.solve_prepared_recursive_oracle(plain, constraint);
        prop_assert_eq!(
            map.is_some(),
            verdict,
            "recursive oracle disagrees at {}: oracle {}, iterative {}",
            point,
            map.is_some(),
            verdict
        );
        if let Some(map) = &map {
            prop_assert!(
                DecisionMapSolver::verify_with(&labels, map, allowed, constraint),
                "invalid oracle witness at {}",
                point
            );
        }
    }
    // learned nogoods are global lemmas, so every run's witness must
    // falsify at least one literal of every run's nogoods
    let vertex_labels = plain.vertex_labels();
    for learner in &runs {
        for ng in &learner.nogoods {
            for run in &runs {
                if let Some(map) = &run.witness {
                    let contained = ng
                        .iter()
                        .all(|&(vi, val)| map.get(&vertex_labels[vi as usize]) == Some(&val));
                    prop_assert!(
                        !contained,
                        "witness from `{}` violates a nogood learned by `{}` at {}: {:?}",
                        run.name,
                        learner.name,
                        point,
                        ng
                    );
                }
            }
        }
    }
    Ok(())
}

/// Attaches certified task symmetries to a copy of `plain`. For
/// [`AgreementConstraint::MaxRange`] no symmetries are attached: value
/// relabelings do not preserve a range constraint, so orbit branching
/// has nothing sound to exploit there.
fn with_symmetries<V: ps_agreement::SymmetricView>(
    plain: &PreparedInstance<V>,
    pool: &VertexPool<V>,
    id_complex: &IdComplex,
    n_plus_1: usize,
    values: &BTreeSet<u64>,
    constraint: AgreementConstraint,
) -> PreparedInstance<V> {
    let mut sym = plain.clone();
    if !matches!(constraint, AgreementConstraint::MaxRange(_)) {
        let proc_gens = ps_models::process_transpositions(n_plus_1);
        sym.attach_symmetries(task_symmetries(
            pool, id_complex, n_plus_1, &proc_gens, values,
        ));
    }
    sym
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The four production configurations and the recursive oracle
    /// agree on randomized task instances across all three models.
    #[test]
    fn four_way_and_oracle_agree(
        model in 0usize..3,
        n_plus_1 in 2usize..=4,
        f_raw in 1usize..=2,
        rounds in 1usize..=2,
        k in 1usize..=2,
        constraint_idx in 0usize..3,
    ) {
        let f = f_raw.min(n_plus_1 - 1);
        // n = 4 multi-round task complexes overshoot MAX_VERTICES in
        // every model, and for semisync even *constructing* one takes
        // minutes — skip before building anything
        if n_plus_1 >= 4 && rounds >= 2 {
            return Ok(());
        }
        let task = KSetAgreement::canonical(k);
        let constraint = match constraint_idx {
            0 => AgreementConstraint::AtMostKDistinct(k),
            1 => AgreementConstraint::AllDistinct,
            _ => AgreementConstraint::MaxRange(k as u64 - 1),
        };
        let point = format!(
            "(model={}, n+1={n_plus_1}, f={f}, r={rounds}, k={k}, {constraint:?})",
            ["async", "sync", "semisync"][model],
        );
        match model {
            0 => {
                let (pool, ids) = async_task_parts(&task.values, n_plus_1, f, rounds);
                if ids.vertex_count() > MAX_VERTICES {
                    return Ok(());
                }
                let plain = PreparedInstance::from_interned(&pool, &ids, allowed_values);
                let sym = with_symmetries(&plain, &pool, &ids, n_plus_1, &task.values, constraint);
                check_instance(&point, &pool, &ids, &plain, &sym, constraint, allowed_values)?;
            }
            1 => {
                let k_per_round = k.min(f).max(1);
                let (pool, ids) =
                    sync_task_parts(&task.values, n_plus_1, k_per_round, f, rounds);
                if ids.vertex_count() > MAX_VERTICES {
                    return Ok(());
                }
                let plain = PreparedInstance::from_interned(&pool, &ids, allowed_values);
                let sym = with_symmetries(&plain, &pool, &ids, n_plus_1, &task.values, constraint);
                check_instance(&point, &pool, &ids, &plain, &sym, constraint, allowed_values)?;
            }
            _ => {
                let k_per_round = k.min(f).max(1);
                let (pool, ids) =
                    semisync_task_parts(&task.values, n_plus_1, k_per_round, f, 2, rounds);
                if ids.vertex_count() > MAX_VERTICES {
                    return Ok(());
                }
                let plain = PreparedInstance::from_interned(&pool, &ids, allowed_values_ss);
                let sym = with_symmetries(&plain, &pool, &ids, n_plus_1, &task.values, constraint);
                check_instance(&point, &pool, &ids, &plain, &sym, constraint, allowed_values_ss)?;
            }
        }
    }
}
