//! Verdict conformance, exhaustively: every execution of the matching
//! protocol is checked against the topology layer's sweep verdict.
//!
//! * The **full synchronous adversary tree** at `n + 1 = 3`, `f = 1`:
//!   every crash schedule (crasher choice × reached-recipient subsets,
//!   per round) × every input assignment, for every grid point — a
//!   `Solvable` verdict means *no* execution violates the task, an
//!   `Impossible` verdict means *some* execution does.
//! * The **complete one-round asynchronous heard-set space** at
//!   `n + 1 = 3`, `f = 1`, including partial participation.
//! * The harness itself ([`conformance_check`]) on the same grids, with
//!   witness replay.
//! * The **Corollary 22 pin**: `stretch_experiment`'s timing numbers,
//!   run on the `ps-protocols` timed flooding protocol, as literals.

use std::collections::BTreeSet;

use pseudosphere::agreement::{
    async_solvable, conformance_check, stretch_experiment, sync_solvable, ConformConfig,
    KSetAgreement, PointOutcome, StretchOutcome, SweepOptions, SweepPoint, WitnessSchedule,
};
use pseudosphere::core::{subsets_of_min_size, ProcessId};
use pseudosphere::models::{async_heard_schedules, sync_crash_schedules};
use pseudosphere::protocols::KSetFlood;
use pseudosphere::runtime::{
    AsyncExecutor, RoundFailures, ScriptedAdversary, ScriptedHeardSets, SyncExecutor, TimedParams,
};

/// All input assignments over `values^(n+1)`.
fn assignments(values: &BTreeSet<u64>, n_plus_1: usize) -> Vec<Vec<u64>> {
    let vals: Vec<u64> = values.iter().copied().collect();
    let mut out = vec![Vec::new()];
    for _ in 0..n_plus_1 {
        out = out
            .into_iter()
            .flat_map(|a| {
                vals.iter().map(move |v| {
                    let mut b = a.clone();
                    b.push(*v);
                    b
                })
            })
            .collect();
    }
    out
}

fn violates(
    trace: &pseudosphere::runtime::SyncTrace<pseudosphere::protocols::KSetFloodState, u64>,
    k: usize,
    inputs: &BTreeSet<u64>,
    must_decide: &BTreeSet<ProcessId>,
) -> bool {
    let terminated = must_decide
        .iter()
        .filter(|p| !trace.crashes().contains_key(p))
        .all(|p| trace.decision(*p).is_some());
    !trace.satisfies_k_agreement(k) || !trace.satisfies_validity(inputs) || !terminated
}

/// The full synchronous adversary tree at n+1 = 3, f = 1: on every grid
/// point, every execution of flooding agrees with the sweep verdict.
#[test]
fn sync_n3_full_adversary_tree_matches_verdicts() {
    let everyone: BTreeSet<ProcessId> = (0..3).map(ProcessId).collect();
    for k in 1..=2usize {
        for rounds in 1..=2usize {
            let verdict = sync_solvable(k, 1, 3, 1, rounds);
            let task = KSetAgreement::canonical(k);
            let schedules = sync_crash_schedules(3, 1, 1, rounds, usize::MAX)
                .expect("space is finite and small");
            if rounds == 1 {
                // the known execution count of the n=3, k=f=1 tree
                assert_eq!(schedules.len(), 13);
            }
            let mut violated = false;
            for schedule in &schedules {
                for inputs in assignments(&task.values, 3) {
                    let exec = SyncExecutor::new(KSetFlood::new(rounds), 3, 1);
                    let mut adv = ScriptedAdversary {
                        script: schedule
                            .iter()
                            .map(|p| RoundFailures { crashes: p.clone() })
                            .collect(),
                    };
                    let trace = exec.run(&inputs, &mut adv, rounds);
                    let input_set: BTreeSet<u64> = inputs.iter().copied().collect();
                    if violates(&trace, k, &input_set, &everyone) {
                        violated = true;
                        assert!(
                            !verdict.solvable,
                            "k={k} r={rounds}: a Solvable point broke on {inputs:?} {schedule:?}"
                        );
                    }
                }
            }
            assert_eq!(
                violated, !verdict.solvable,
                "k={k} r={rounds}: execution space disagrees with the verdict"
            );
        }
    }
}

/// The complete one-round asynchronous heard-set space at n+1 = 3,
/// f = 1, including partial participation: execution behaviour matches
/// Corollary 13 (`k`-set agreement solvable iff `k > f`).
#[test]
fn async_n3_complete_heard_space_matches_verdicts() {
    let all: BTreeSet<ProcessId> = (0..3).map(ProcessId).collect();
    for k in 1..=2usize {
        let verdict = async_solvable(k, 1, 3, 1);
        assert_eq!(verdict.solvable, k > 1, "Corollary 13 at n=3, f=1");
        let task = KSetAgreement::canonical(k);
        let mut violated = false;
        for participants in subsets_of_min_size(&all, 2) {
            let schedules = async_heard_schedules(&participants, 2, 1, usize::MAX)
                .expect("space is finite and small");
            for schedule in &schedules {
                for inputs in assignments(&task.values, 3) {
                    let exec = AsyncExecutor::new(KSetFlood::new(1), 3, 1);
                    let mut adv = ScriptedHeardSets {
                        script: schedule.clone(),
                    };
                    let trace = exec.run(&inputs, &participants, &mut adv, 1);
                    let input_set: BTreeSet<u64> = inputs.iter().copied().collect();
                    if violates(&trace, k, &input_set, &participants) {
                        violated = true;
                        assert!(
                            !verdict.solvable,
                            "k={k}: a Solvable async point broke on {inputs:?} {schedule:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            violated, !verdict.solvable,
            "k={k}: async execution space disagrees with the verdict"
        );
    }
}

/// The harness end-to-end on the sync n=3 grid: PASS on every Solvable
/// point, a WITNESS on every Impossible point, and the witness replays
/// to the same violation.
#[test]
fn conformance_harness_on_sync_grid_with_witness_replay() {
    let points: Vec<SweepPoint> = (1..=2)
        .flat_map(|k| {
            (1..=2).map(move |rounds| SweepPoint::Sync {
                k,
                f: 1,
                n_plus_1: 3,
                k_per_round: 1,
                rounds,
            })
        })
        .collect();
    let report = conformance_check(
        &points,
        2,
        SweepOptions::default(),
        &ConformConfig::default(),
    );
    assert!(report.all_ok(), "{}", report.table());
    for rep in &report.points {
        match (&rep.outcome, rep.solvable) {
            (PointOutcome::Pass { executions }, true) => assert!(*executions > 0),
            (PointOutcome::Witness { witness, .. }, false) => {
                let WitnessSchedule::Sync { inputs, schedule } = witness else {
                    panic!("sync point must carry a sync witness");
                };
                let SweepPoint::Sync { k, rounds, .. } = rep.point else {
                    unreachable!()
                };
                // replay: the recorded schedule still breaks the task
                let exec = SyncExecutor::new(KSetFlood::new(rounds), 3, 1);
                let mut adv = ScriptedAdversary {
                    script: schedule
                        .iter()
                        .map(|p| RoundFailures { crashes: p.clone() })
                        .collect(),
                };
                let trace = exec.run(inputs, &mut adv, rounds);
                let input_set: BTreeSet<u64> = inputs.iter().copied().collect();
                let everyone: BTreeSet<ProcessId> = (0..3).map(ProcessId).collect();
                assert!(
                    violates(&trace, k, &input_set, &everyone),
                    "recorded witness must replay to a violation"
                );
            }
            (outcome, solvable) => {
                panic!("unexpected outcome {outcome:?} for solvable={solvable}")
            }
        }
    }
}

/// Corollary 22 pin: the stretch experiment's `(bound, stretched
/// decision time, failure-free time)` in ticks, as literals. The first
/// five rows are the EXPERIMENTS.md E12 rows (`d = 8`, `c1 = 1`; the
/// `C = 4` row is also a pin instance), the last two the other pin
/// instances.
#[test]
fn corollary22_stretch_pins_to_protocol_reactor() {
    let rows = [
        ((3, 1), (1, 1, 8), (24.0, 24, 24)),
        ((3, 1), (1, 4, 8), (48.0, 96, 24)),
        ((3, 1), (1, 16, 8), (144.0, 384, 24)),
        ((4, 1), (1, 4, 8), (56.0, 128, 32)),
        ((4, 2), (1, 4, 8), (40.0, 64, 16)),
        ((4, 1), (1, 2, 4), (20.0, 32, 16)),
        ((3, 2), (2, 3, 6), (15.0, 18, 12)),
    ];
    for ((n_plus_1, k), (c1, c2, d), (bound, decision_time, failure_free_time)) in rows {
        let outcome = stretch_experiment(n_plus_1, k, TimedParams::new(c1, c2, d));
        assert_eq!(
            outcome,
            StretchOutcome {
                decision_time,
                bound,
                failure_free_time,
            },
            "n+1={n_plus_1} k={k} c1={c1} c2={c2} d={d}"
        );
        assert!(outcome.respects_bound(), "Corollary 22 bound");
    }
}
