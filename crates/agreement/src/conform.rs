//! Verdict-conformance harness: every `Solvable` point must run, every
//! `Impossible` point must break.
//!
//! The differential test between the topology layer and the runtime:
//! for each [`SweepPoint`] the harness first obtains the solver's
//! verdict, then *executes* the matching protocol from `ps-protocols`
//! under adversary schedules of that point's model:
//!
//! * **`Solvable`** — the protocol must satisfy k-agreement, validity,
//!   and termination on *every* executed schedule. Exhaustive schedule
//!   spaces (from `ps-models::schedules`) are used when small enough,
//!   seeded randomized schedules otherwise. Any violation is a
//!   [`PointOutcome::Fail`] carrying the replayable
//!   [`WitnessSchedule`] — a genuine bug in the runtime, the protocol,
//!   or the topology.
//! * **`Impossible`** — the harness must find a concrete execution
//!   violating the task, recorded as a replayable
//!   [`PointOutcome::Witness`] schedule: the impossibility is then
//!   witnessed executably, not just homologically. Beyond the
//!   exhaustive regime a targeted *staircase* schedule (the classical
//!   chain construction keeping `k+1` values secret) is tried before
//!   the random ones; finding none is [`PointOutcome::Unbroken`], a
//!   harness failure.
//!
//! Synchronous points run [`KSetFlood`] under scripted crash schedules,
//! asynchronous points run it under scripted heard-set schedules
//! (including partial participation). Semi-synchronous, Byzantine, and
//! dynamic points are reported as [`PointOutcome::Skipped`]: their
//! protocol↔verdict correspondence is exercised by the dedicated
//! Corollary 22 pin and the randomized invariant suites instead.
//!
//! `psph conform` renders the per-point PASS/WITNESS table and exits
//! nonzero unless [`ConformReport::all_ok`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ps_core::{subsets_of_min_size, ProcessId};
use ps_models::schedules::{
    async_heard_schedules, sync_crash_schedules, AsyncSchedule, SyncSchedule,
};
use ps_protocols::KSetFlood;
use ps_runtime::{
    AsyncAdversary, AsyncExecutor, HeardSets, RandomAsyncAdversary, RoundFailures,
    ScriptedAdversary, ScriptedHeardSets, SyncExecutor, SyncTrace,
};
use ps_topology::for_each_product;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::experiments::{solvability_sweep_shared_opts, SweepOptions, SweepPoint};
use crate::KSetAgreement;

/// Tuning knobs for [`conformance_check`].
#[derive(Clone, Copy, Debug)]
pub struct ConformConfig {
    /// Ceiling on the exhaustive schedule space per point; larger
    /// spaces fall back to targeted + randomized schedules.
    pub exhaustive_limit: usize,
    /// Randomized schedules per point beyond the exhaustive regime.
    pub random_schedules: usize,
    /// Ceiling on exhaustive input assignments per point (values are
    /// the task domain `{0..k}`); larger spaces use staircase + random
    /// assignments.
    pub input_limit: usize,
    /// Base seed for randomized schedules and inputs.
    pub seed: u64,
}

impl Default for ConformConfig {
    fn default() -> Self {
        ConformConfig {
            exhaustive_limit: 20_000,
            random_schedules: 64,
            input_limit: 128,
            seed: 0xC0FFEE,
        }
    }
}

/// A replayable adversary schedule exhibiting a task violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessSchedule {
    /// Synchronous: replay with [`ScriptedAdversary`].
    Sync {
        /// Input assignment (process i ↦ `inputs[i]`).
        inputs: Vec<u64>,
        /// Per-round crash plans.
        schedule: SyncSchedule,
    },
    /// Asynchronous: replay with [`ScriptedHeardSets`].
    Async {
        /// Input assignment.
        inputs: Vec<u64>,
        /// The participating processes.
        participants: BTreeSet<ProcessId>,
        /// Per-round heard-set plans.
        schedule: AsyncSchedule,
    },
}

impl fmt::Display for WitnessSchedule {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set = |s: &BTreeSet<ProcessId>| {
            let items: Vec<String> = s.iter().map(|p| p.0.to_string()).collect();
            format!("{{{}}}", items.join(","))
        };
        match self {
            WitnessSchedule::Sync { inputs, schedule } => {
                write!(out, "inputs={inputs:?}")?;
                for (i, plan) in schedule.iter().enumerate() {
                    write!(out, " r{}:", i + 1)?;
                    if plan.is_empty() {
                        write!(out, " -")?;
                    }
                    for (c, recips) in plan {
                        write!(out, " {}!->{}", c.0, set(recips))?;
                    }
                }
                Ok(())
            }
            WitnessSchedule::Async {
                inputs,
                participants,
                schedule,
            } => {
                write!(out, "inputs={inputs:?} parts={}", set(participants))?;
                for (i, plan) in schedule.iter().enumerate() {
                    write!(out, " r{}:", i + 1)?;
                    for (p, heard) in plan {
                        write!(out, " {}<-{}", p.0, set(heard))?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Per-point conformance outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PointOutcome {
    /// `Solvable` and every executed schedule satisfied the task.
    Pass {
        /// Executions checked.
        executions: u64,
    },
    /// `Solvable` but an execution violated the task — a conformance
    /// failure between runtime and topology.
    Fail {
        /// Executions checked up to (and including) the violation.
        executions: u64,
        /// The violating schedule.
        witness: WitnessSchedule,
        /// Which property broke.
        violation: String,
    },
    /// `Impossible` and a violating execution was found, as required.
    Witness {
        /// Executions checked up to (and including) the witness.
        executions: u64,
        /// The violating schedule.
        witness: WitnessSchedule,
        /// Which property broke.
        violation: String,
    },
    /// `Impossible` but no executed schedule broke the task — the
    /// impossibility went unwitnessed, a harness failure.
    Unbroken {
        /// Executions checked.
        executions: u64,
    },
    /// No executable protocol is wired up for this model.
    Skipped {
        /// Why the point was skipped.
        reason: String,
    },
}

/// One grid point's verdict and conformance outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointReport {
    /// The grid point.
    pub point: SweepPoint,
    /// The solver's verdict.
    pub solvable: bool,
    /// What the executions showed.
    pub outcome: PointOutcome,
}

impl PointReport {
    /// Whether this point's outcome is acceptable (PASS, WITNESS, or
    /// SKIP).
    pub fn ok(&self) -> bool {
        !matches!(
            self.outcome,
            PointOutcome::Fail { .. } | PointOutcome::Unbroken { .. }
        )
    }
}

/// The full conformance report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConformReport {
    /// Per-point reports, in input order.
    pub points: Vec<PointReport>,
}

impl ConformReport {
    /// Whether every point conformed (no FAIL, no UNBROKEN).
    pub fn all_ok(&self) -> bool {
        self.points.iter().all(PointReport::ok)
    }

    /// The per-point PASS/WITNESS table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<9} {:>2} {:>2} {:>3} {:>3} {:>2}  {:<10} {:>10}  outcome\n",
            "model", "k", "f", "n+1", "kpr", "r", "verdict", "execs"
        ));
        for rep in &self.points {
            let (model, k, f, n_plus_1, kpr, r) = describe(&rep.point);
            let verdict = if rep.solvable {
                "Solvable"
            } else {
                "Impossible"
            };
            let (execs, outcome) = match &rep.outcome {
                PointOutcome::Pass { executions } => (executions.to_string(), "PASS".to_string()),
                PointOutcome::Fail {
                    executions,
                    witness,
                    violation,
                } => (
                    executions.to_string(),
                    format!("FAIL [{violation}] {witness}"),
                ),
                PointOutcome::Witness {
                    executions,
                    witness,
                    violation,
                } => (
                    executions.to_string(),
                    format!("WITNESS [{violation}] {witness}"),
                ),
                PointOutcome::Unbroken { executions } => {
                    (executions.to_string(), "UNBROKEN".to_string())
                }
                PointOutcome::Skipped { reason } => ("-".to_string(), format!("SKIP ({reason})")),
            };
            out.push_str(&format!(
                "{model:<9} {k:>2} {f:>2} {n_plus_1:>3} {kpr:>3} {r:>2}  {verdict:<10} {execs:>10}  {outcome}\n"
            ));
        }
        out
    }
}

fn describe(point: &SweepPoint) -> (&'static str, usize, usize, usize, String, usize) {
    match *point {
        SweepPoint::Async {
            k,
            f,
            n_plus_1,
            rounds,
        } => ("async", k, f, n_plus_1, "-".into(), rounds),
        SweepPoint::Sync {
            k,
            f,
            n_plus_1,
            k_per_round,
            rounds,
        } => ("sync", k, f, n_plus_1, k_per_round.to_string(), rounds),
        SweepPoint::SemiSync {
            k,
            f,
            n_plus_1,
            k_per_round,
            rounds,
            ..
        } => ("semisync", k, f, n_plus_1, k_per_round.to_string(), rounds),
        SweepPoint::Byzantine {
            k,
            t,
            n_plus_1,
            rounds,
        } => ("byzantine", k, t, n_plus_1, "-".into(), rounds),
        SweepPoint::Dynamic {
            k,
            n_plus_1,
            rounds,
            ..
        } => ("dynamic", k, 0, n_plus_1, "-".into(), rounds),
    }
}

/// Runs the solver sweep on `points`, then checks each verdict against
/// protocol executions. Points are processed with `threads` workers
/// (deterministic output order).
///
/// # Panics
///
/// Panics with [`SweepPoint::check`]'s message if a point fails it,
/// before any point is solved or executed: such a point has no builder
/// output to be checked against.
pub fn conformance_check(
    points: &[SweepPoint],
    threads: usize,
    opts: SweepOptions,
    cfg: &ConformConfig,
) -> ConformReport {
    if let Err(e) = points.iter().try_for_each(SweepPoint::check) {
        panic!("{e}");
    }
    let verdicts = solvability_sweep_shared_opts(points, threads, opts);
    let jobs: Vec<(SweepPoint, bool)> = points
        .iter()
        .cloned()
        .zip(verdicts.iter().map(|v| v.solvable))
        .collect();
    let reports = ps_topology::parallel::parallel_map(&jobs, threads, |i, (point, solvable)| {
        let outcome = check_point(point, *solvable, cfg, i as u64);
        PointReport {
            point: point.clone(),
            solvable: *solvable,
            outcome,
        }
    });
    ConformReport { points: reports }
}

fn check_point(point: &SweepPoint, solvable: bool, cfg: &ConformConfig, salt: u64) -> PointOutcome {
    match *point {
        SweepPoint::Sync {
            k,
            f,
            n_plus_1,
            k_per_round,
            rounds,
        } => sync_point(k, f, n_plus_1, k_per_round, rounds, solvable, cfg, salt),
        SweepPoint::Async {
            k,
            f,
            n_plus_1,
            rounds,
        } => async_point(k, f, n_plus_1, rounds, solvable, cfg, salt),
        SweepPoint::SemiSync { .. } => PointOutcome::Skipped {
            reason: "semisync is pinned via the Corollary 22 regression instead".into(),
        },
        SweepPoint::Byzantine { .. } => PointOutcome::Skipped {
            reason: "no executable Byzantine protocol wired up".into(),
        },
        SweepPoint::Dynamic { .. } => PointOutcome::Skipped {
            reason: "no executable dynamic-network protocol wired up".into(),
        },
    }
}

/// Checks one trace against the task; `Some(what)` names the violated
/// property. Termination is required of every non-crashed member of
/// `must_decide` (all processes synchronously, the participants
/// asynchronously — non-participants never run and never decide).
fn violation<S: ps_topology::Label>(
    trace: &SyncTrace<S, u64>,
    task: &KSetAgreement,
    inputs: &BTreeSet<u64>,
    must_decide: &BTreeSet<ProcessId>,
) -> Option<String> {
    if !trace.satisfies_k_agreement(task.k) {
        return Some(format!(
            "{}-agreement: decided {:?}",
            task.k,
            trace.decision_values()
        ));
    }
    if !trace.satisfies_validity(inputs) {
        return Some(format!(
            "validity: decided {:?} ⊄ inputs",
            trace.decision_values()
        ));
    }
    let terminated = must_decide
        .iter()
        .filter(|p| !trace.crashes().contains_key(p))
        .all(|p| trace.decision(*p).is_some());
    if !terminated {
        return Some("termination: a survivor never decided".into());
    }
    None
}

/// Input assignments to sweep: the full `values^(n+1)` space when small
/// enough, otherwise the staircase assignment plus seeded random ones.
fn input_assignments(
    values: &BTreeSet<u64>,
    n_plus_1: usize,
    cfg: &ConformConfig,
    salt: u64,
) -> Vec<Vec<u64>> {
    let vals: Vec<u64> = values.iter().copied().collect();
    let total = (vals.len() as u128).checked_pow(n_plus_1 as u32);
    if total.is_some_and(|total| total <= cfg.input_limit as u128) {
        // the first process's value varies fastest: read tuples reversed
        let mut out = Vec::new();
        for_each_product(&vec![vals; n_plus_1], |pick| {
            out.push(pick.iter().rev().map(|&&v| v).collect());
        });
        return out;
    }
    // staircase: process i gets the i-th smallest value (saturating)
    let mut out = vec![(0..n_plus_1)
        .map(|i| vals[i.min(vals.len() - 1)])
        .collect::<Vec<u64>>()];
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0x9E37_79B9));
    for _ in 0..8 {
        out.push(
            (0..n_plus_1)
                .map(|_| vals[rng.gen_range(0..vals.len())])
                .collect(),
        );
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn sync_point(
    k: usize,
    f: usize,
    n_plus_1: usize,
    k_per_round: usize,
    rounds: usize,
    solvable: bool,
    cfg: &ConformConfig,
    salt: u64,
) -> PointOutcome {
    let task = KSetAgreement::canonical(k);
    let protocol = KSetFlood::new(rounds);
    let assignments = input_assignments(&task.values, n_plus_1, cfg, salt);

    let everyone: BTreeSet<ProcessId> = (0..n_plus_1 as u32).map(ProcessId).collect();
    let exhaustive = sync_crash_schedules(n_plus_1, k_per_round, f, rounds, cfg.exhaustive_limit);
    let schedules: Vec<SyncSchedule> = match exhaustive {
        Some(s) => s,
        None => {
            let mut s = Vec::new();
            // targeted staircase witness first: it breaks every
            // Impossible point with enough processes, and is just one
            // more conforming schedule on Solvable points
            s.extend(sync_staircase(k, f, n_plus_1, k_per_round, rounds));
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0xA5A5_A5A5));
            for _ in 0..cfg.random_schedules {
                s.push(random_sync_schedule(
                    &mut rng,
                    n_plus_1,
                    k_per_round,
                    f,
                    rounds,
                ));
            }
            s
        }
    };

    judge(&schedules, &assignments, solvable, |schedule, inputs| {
        let mut adv = ScriptedAdversary {
            script: schedule
                .iter()
                .map(|p| RoundFailures { crashes: p.clone() })
                .collect(),
        };
        let trace = SyncExecutor::new(protocol, n_plus_1, f).run(inputs, &mut adv, rounds);
        let what = violation(&trace, &task, &inputs.iter().copied().collect(), &everyone)?;
        let witness = WitnessSchedule::Sync {
            inputs: inputs.to_vec(),
            schedule: schedule.clone(),
        };
        Some((witness, what))
    })
}

#[allow(clippy::too_many_arguments)]
fn async_point(
    k: usize,
    f: usize,
    n_plus_1: usize,
    rounds: usize,
    solvable: bool,
    cfg: &ConformConfig,
    salt: u64,
) -> PointOutcome {
    let task = KSetAgreement::canonical(k);
    let protocol = KSetFlood::new(rounds);
    let assignments = input_assignments(&task.values, n_plus_1, cfg, salt);
    let all: BTreeSet<ProcessId> = (0..n_plus_1 as u32).map(ProcessId).collect();
    let min_heard = n_plus_1 - f;

    // (participants, schedule) pairs to execute
    let mut runs: Vec<(BTreeSet<ProcessId>, AsyncSchedule)> = Vec::new();
    let mut exhausted = true;
    for participants in subsets_of_min_size(&all, min_heard) {
        match async_heard_schedules(&participants, min_heard, rounds, cfg.exhaustive_limit) {
            Some(schedules) if runs.len() + schedules.len() <= cfg.exhaustive_limit => {
                runs.extend(schedules.into_iter().map(|s| (participants.clone(), s)));
            }
            _ => {
                exhausted = false;
                break;
            }
        }
    }
    if !exhausted {
        runs.clear();
        // targeted staircase witness: processes 0..f each hear the tail
        // set {i..n}, producing f+1 distinct minima
        let staircase: HeardSets = all
            .iter()
            .map(|p| {
                let from = p.0.min(f as u32);
                (*p, all.iter().copied().filter(|q| q.0 >= from).collect())
            })
            .collect();
        runs.push((all.clone(), vec![staircase; rounds]));
        let mut adversary = RandomAsyncAdversary::new(cfg.seed ^ salt.wrapping_mul(0x5A5A_5A5A));
        for _ in 0..cfg.random_schedules {
            let schedule = (1..=rounds)
                .map(|round| adversary.plan_round(round, &all, min_heard))
                .collect();
            runs.push((all.clone(), schedule));
        }
    }

    judge(
        &runs,
        &assignments,
        solvable,
        |(participants, schedule), inputs| {
            let mut adv = ScriptedHeardSets {
                script: schedule.clone(),
            };
            let trace = AsyncExecutor::new(protocol, n_plus_1, f).run(
                inputs,
                participants,
                &mut adv,
                rounds,
            );
            let what = violation(
                &trace,
                &task,
                &inputs.iter().copied().collect(),
                participants,
            )?;
            let witness = WitnessSchedule::Async {
                inputs: inputs.to_vec(),
                participants: participants.clone(),
                schedule: schedule.clone(),
            };
            Some((witness, what))
        },
    )
}

/// Executes every run under every input assignment, in that order.
/// `execute` runs one pair and returns its witness and violation, if
/// any. A violation fails a solvable point at once; on an unsolvable
/// point the first one is kept as the witness.
fn judge<R>(
    runs: &[R],
    assignments: &[Vec<u64>],
    solvable: bool,
    mut execute: impl FnMut(&R, &[u64]) -> Option<(WitnessSchedule, String)>,
) -> PointOutcome {
    let mut executions = 0u64;
    let mut first_witness = None;
    for run in runs {
        for inputs in assignments {
            executions += 1;
            let Some((witness, violation)) = execute(run, inputs) else {
                continue;
            };
            if solvable {
                return PointOutcome::Fail {
                    executions,
                    witness,
                    violation,
                };
            }
            first_witness.get_or_insert((executions, witness, violation));
        }
    }
    if solvable {
        return PointOutcome::Pass { executions };
    }
    match first_witness {
        Some((at, witness, violation)) => PointOutcome::Witness {
            executions: at,
            witness,
            violation,
        },
        None => PointOutcome::Unbroken { executions },
    }
}

/// The classical chain construction: `c = min(k_per_round, ⌊f/r⌋)`
/// parallel secrecy chains, each spending one crash per round to hand a
/// small value to a single fresh process. With `c ≥ k` and enough
/// processes (`c·(r+1) < n+1`) the final round leaves `c+1` distinct
/// minima — a k-agreement violation. Returns the schedule when the
/// construction fits, paired with nothing otherwise.
fn sync_staircase(
    k: usize,
    f: usize,
    n_plus_1: usize,
    k_per_round: usize,
    rounds: usize,
) -> Option<SyncSchedule> {
    if rounds == 0 {
        return None;
    }
    let c = k_per_round.min(f / rounds).min(k + 1);
    if c == 0 || c * (rounds + 1) >= n_plus_1 {
        return None;
    }
    let mut schedule = SyncSchedule::new();
    for round in 1..=rounds {
        let plan: BTreeMap<ProcessId, BTreeSet<ProcessId>> = (0..c)
            .map(|j| {
                let holder = if round == 1 {
                    j
                } else {
                    c + (round - 2) * c + j
                };
                let next = c + (round - 1) * c + j;
                (
                    ProcessId(holder as u32),
                    [ProcessId(next as u32)].into_iter().collect(),
                )
            })
            .collect();
        schedule.push(plan);
    }
    Some(schedule)
}

fn random_sync_schedule(
    rng: &mut StdRng,
    n_plus_1: usize,
    k_per_round: usize,
    f: usize,
    rounds: usize,
) -> SyncSchedule {
    let mut alive: Vec<ProcessId> = (0..n_plus_1 as u32).map(ProcessId).collect();
    let mut budget = f;
    let mut schedule = SyncSchedule::new();
    for _ in 0..rounds {
        let cap = k_per_round.min(budget).min(alive.len());
        let crash_count = if cap == 0 { 0 } else { rng.gen_range(0..=cap) };
        alive.shuffle(rng);
        let crashers: Vec<ProcessId> = alive[..crash_count].to_vec();
        let survivors: Vec<ProcessId> = alive[crash_count..].to_vec();
        let plan = crashers
            .iter()
            .map(|c| {
                let reached: BTreeSet<ProcessId> = survivors
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.5))
                    .collect();
                (*c, reached)
            })
            .collect();
        schedule.push(plan);
        budget -= crash_count;
        alive = survivors;
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync_grid_n3() -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for k in 1..=2 {
            for rounds in 1..=2 {
                points.push(SweepPoint::Sync {
                    k,
                    f: 1,
                    n_plus_1: 3,
                    k_per_round: 1,
                    rounds,
                });
            }
        }
        points
    }

    #[test]
    fn sync_n3_grid_conforms() {
        let report = conformance_check(
            &sync_grid_n3(),
            1,
            SweepOptions::default(),
            &ConformConfig::default(),
        );
        assert!(report.all_ok(), "{}", report.table());
        // k=1, r=1 is the known-impossible point: must be witnessed
        let impossible: Vec<&PointReport> = report.points.iter().filter(|p| !p.solvable).collect();
        assert!(!impossible.is_empty());
        for p in impossible {
            assert!(matches!(p.outcome, PointOutcome::Witness { .. }));
        }
    }

    #[test]
    fn async_verdicts_conform() {
        let points = vec![
            SweepPoint::Async {
                k: 1,
                f: 1,
                n_plus_1: 3,
                rounds: 1,
            },
            SweepPoint::Async {
                k: 2,
                f: 1,
                n_plus_1: 3,
                rounds: 1,
            },
        ];
        let report = conformance_check(
            &points,
            1,
            SweepOptions::default(),
            &ConformConfig::default(),
        );
        assert!(report.all_ok(), "{}", report.table());
        assert!(!report.points[0].solvable, "async k=f=1 is impossible");
        assert!(report.points[1].solvable, "async k=2>f=1 is solvable");
    }

    fn async_n3_with_budget(f: usize) -> ConformReport {
        let point = SweepPoint::Async {
            k: 1,
            f,
            n_plus_1: 3,
            rounds: 1,
        };
        conformance_check(
            &[point],
            1,
            SweepOptions::default(),
            &ConformConfig::default(),
        )
    }

    #[test]
    #[should_panic(expected = "the crash budget f must be at most n = 2 for 3 processes")]
    fn budget_equal_to_process_count_is_refused() {
        async_n3_with_budget(3);
    }

    #[test]
    #[should_panic(expected = "the crash budget f must be at most n = 2 for 3 processes")]
    fn budget_above_process_count_is_refused() {
        async_n3_with_budget(4);
    }

    #[test]
    fn witness_replays_to_the_same_violation() {
        let points = vec![SweepPoint::Sync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        }];
        let report = conformance_check(
            &points,
            1,
            SweepOptions::default(),
            &ConformConfig::default(),
        );
        let PointOutcome::Witness { witness, .. } = &report.points[0].outcome else {
            panic!("expected witness: {}", report.table());
        };
        let WitnessSchedule::Sync { inputs, schedule } = witness else {
            panic!("expected sync witness");
        };
        let exec = SyncExecutor::new(KSetFlood::new(1), 3, 1);
        let mut adv = ScriptedAdversary {
            script: schedule
                .iter()
                .map(|p| RoundFailures { crashes: p.clone() })
                .collect(),
        };
        let trace = exec.run(inputs, &mut adv, 1);
        assert!(!trace.satisfies_k_agreement(1), "witness must replay");
    }

    #[test]
    fn staircase_breaks_large_sync_instance() {
        // n+1 = 8, f = 2, k = 1, kpr = 1, r = 2: impossible (f ≥ kr);
        // exhaustive space is big, so the staircase must witness it.
        let s = sync_staircase(1, 2, 8, 1, 2).expect("staircase fits");
        let task = KSetAgreement::canonical(1);
        let inputs: Vec<u64> = (0..8).map(|i| task_input(&task, i)).collect();
        let exec = SyncExecutor::new(KSetFlood::new(2), 8, 2);
        let mut adv = ScriptedAdversary {
            script: s
                .iter()
                .map(|p| RoundFailures { crashes: p.clone() })
                .collect(),
        };
        let trace = exec.run(&inputs, &mut adv, 2);
        assert!(!trace.satisfies_k_agreement(1), "{:?}", trace.decisions());
    }

    fn task_input(task: &KSetAgreement, i: usize) -> u64 {
        let vals: Vec<u64> = task.values.iter().copied().collect();
        vals[i.min(vals.len() - 1)]
    }
}
