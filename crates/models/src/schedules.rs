//! Per-model adversary schedule generators for conformance testing.
//!
//! The conformance harness needs the *schedule space* of each timing
//! model as replayable data, independent of any protocol: the set of
//! admissible adversary behaviors whose executions the solvability
//! verdict quantifies over. This module enumerates them explicitly —
//! the schedule-level counterpart of the per-model protocol complexes.
//!
//! * [`sync_crash_schedules`] — §7 synchronous crash schedules: per
//!   round a failure set within the per-round cap and remaining budget,
//!   and per crasher the recipient subset that still hears it. Same
//!   subset enumeration order as `ps-runtime::for_each_sync_execution`,
//!   but that walk halts decided processes (§4) and branches only on
//!   the recipients of undecided crashers (see [`sync_crash_schedules`]).
//! * [`async_heard_schedules`] — §6 asynchronous round schedules: per
//!   round, per participant, a heard set containing itself with
//!   ≥ `n + 1 − f` participants.
//! * [`semisync_crash_timings`] — §8 semi-synchronous failure timings:
//!   which processes crash and at which real-time step, feeding the
//!   runtime's scripted timed adversaries.
//!
//! All generators are bounded by an explicit `limit` and return `None`
//! when the space is larger — callers fall back to seeded randomized
//! schedules beyond the exhaustive regime.
//!
//! The synchronous and asynchronous enumerators also feed the
//! simulator-side view complexes: `ps-runtime`'s `enumerate_sync_views`
//! and `enumerate_async_views` replay every schedule (with no limit)
//! through the executors, so the cross-validation against the model
//! complexes runs on the same schedule spaces as conformance.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::{subsets_of_min_size, subsets_up_to_size_lex, ProcessId};

/// One synchronous round's failures: crashing process ↦ the set of
/// survivors that still receive its final broadcast.
pub type CrashPlan = BTreeMap<ProcessId, BTreeSet<ProcessId>>;

/// A complete synchronous schedule, round-indexed (round 1 = index 0).
/// A schedule may be shorter than the round bound when every process
/// has crashed.
pub type SyncSchedule = Vec<CrashPlan>;

/// One asynchronous round's delivery choices: participant ↦ the set of
/// participants whose round messages it hears this round.
pub type HeardPlan = BTreeMap<ProcessId, BTreeSet<ProcessId>>;

/// A complete asynchronous schedule, round-indexed (round 1 = index 0).
pub type AsyncSchedule = Vec<HeardPlan>;

/// A semi-synchronous failure timing: crashing process ↦ the real-time
/// step at which it halts (1-based; messages sent before that step are
/// delivered normally).
pub type TimedCrashes = BTreeMap<ProcessId, u64>;

/// Enumerates every §7 synchronous crash schedule for `n_plus_1`
/// processes with at most `k_per_round` crashes per round, `f_total`
/// overall, over `rounds` rounds.
///
/// Per round the failure set ranges over subsets of the alive set
/// (size-then-lex order, capped by the remaining budget), and each
/// crasher's final broadcast reaches an arbitrary subset of that
/// round's survivors. Returns `None` if the space exceeds `limit`
/// schedules.
///
/// `ps-runtime::for_each_sync_execution` enumerates in the same order
/// but is not mirrored exactly: it halts decided processes (§4), so it
/// branches only on the recipients of crashers that have not decided,
/// while these schedules know no protocol and branch on every
/// crasher's. They are replayed through `SyncExecutor`, which keeps
/// decided processes broadcasting. The two walks stay separate because
/// only `for_each_sync_execution` implements §4 halting, the model the
/// exhaustive `EarlyFloodSet` proofs (`tests/protocols_exhaustive.rs`)
/// are stated for.
pub fn sync_crash_schedules(
    n_plus_1: usize,
    k_per_round: usize,
    f_total: usize,
    rounds: usize,
    limit: usize,
) -> Option<Vec<SyncSchedule>> {
    let alive: BTreeSet<ProcessId> = (0..n_plus_1).map(|i| ProcessId(i as u32)).collect();
    let mut out = Vec::new();
    if sync_rec(
        &alive,
        k_per_round,
        f_total,
        rounds,
        Vec::new(),
        limit,
        &mut out,
    ) {
        Some(out)
    } else {
        None
    }
}

fn sync_rec(
    alive: &BTreeSet<ProcessId>,
    k_per_round: usize,
    budget: usize,
    rounds: usize,
    prefix: SyncSchedule,
    limit: usize,
    out: &mut Vec<SyncSchedule>,
) -> bool {
    if rounds == 0 || alive.is_empty() {
        if out.len() == limit {
            return false;
        }
        out.push(prefix);
        return true;
    }
    let cap = k_per_round.min(budget);
    for crash_set in subsets_up_to_size_lex(alive, cap) {
        let survivors: BTreeSet<ProcessId> = alive.difference(&crash_set).copied().collect();
        let crashers: Vec<ProcessId> = crash_set.iter().copied().collect();
        // Per crasher, every subset of the survivors may still hear it.
        let recipient_choices: Vec<Vec<BTreeSet<ProcessId>>> = crashers
            .iter()
            .map(|_| subsets_up_to_size_lex(&survivors, survivors.len()))
            .collect();
        let mut idx = vec![0usize; crashers.len()];
        'combos: loop {
            let plan: CrashPlan = crashers
                .iter()
                .enumerate()
                .map(|(ci, c)| (*c, recipient_choices[ci][idx[ci]].clone()))
                .collect();
            let mut next = prefix.clone();
            next.push(plan);
            if !sync_rec(
                &survivors,
                k_per_round,
                budget - crash_set.len(),
                rounds - 1,
                next,
                limit,
                out,
            ) {
                return false;
            }
            if crashers.is_empty() {
                break 'combos;
            }
            let mut i = 0;
            loop {
                if i == crashers.len() {
                    break 'combos;
                }
                idx[i] += 1;
                if idx[i] < recipient_choices[i].len() {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
        }
    }
    true
}

/// Enumerates every §6 asynchronous round schedule over the given
/// participant set: per round, each participant hears a set containing
/// itself of size ≥ `min_heard`, drawn from the participants.
///
/// Returns `None` if the space exceeds `limit` schedules. The space is
/// `(Σ_p #choices)^(|participants| · rounds)`-ish — keep to 1 round and
/// small n for exhaustive runs.
pub fn async_heard_schedules(
    participants: &BTreeSet<ProcessId>,
    min_heard: usize,
    rounds: usize,
    limit: usize,
) -> Option<Vec<AsyncSchedule>> {
    // Per participant, the admissible heard sets: itself plus any
    // ≥ min_heard − 1 of the others.
    let per_proc: Vec<(ProcessId, Vec<BTreeSet<ProcessId>>)> = participants
        .iter()
        .map(|p| {
            let others: BTreeSet<ProcessId> =
                participants.iter().copied().filter(|q| q != p).collect();
            let choices: Vec<BTreeSet<ProcessId>> =
                subsets_of_min_size(&others, min_heard.saturating_sub(1))
                    .into_iter()
                    .map(|mut s| {
                        s.insert(*p);
                        s
                    })
                    .collect();
            (*p, choices)
        })
        .collect();
    // All heard plans for one round: the cross product over processes.
    let mut round_plans: Vec<HeardPlan> = vec![BTreeMap::new()];
    for (p, choices) in &per_proc {
        let mut next = Vec::with_capacity(round_plans.len() * choices.len());
        for plan in &round_plans {
            for c in choices {
                if next.len() == limit {
                    return None;
                }
                let mut plan = plan.clone();
                plan.insert(*p, c.clone());
                next.push(plan);
            }
        }
        round_plans = next;
    }
    // All schedules: the cross product over rounds.
    let mut out: Vec<AsyncSchedule> = vec![Vec::new()];
    for _ in 0..rounds {
        let mut next = Vec::with_capacity(out.len() * round_plans.len());
        for sched in &out {
            for plan in &round_plans {
                if next.len() == limit {
                    return None;
                }
                let mut sched = sched.clone();
                sched.push(plan.clone());
                next.push(sched);
            }
        }
        out = next;
    }
    if out.len() > limit {
        return None;
    }
    Some(out)
}

/// Enumerates §8 semi-synchronous failure timings: every crash set of
/// size ≤ `f`, with each crasher assigned a halt step in `1..=steps`.
///
/// Returns `None` if the space exceeds `limit` timings. The failure-free
/// timing (empty map) is always first.
pub fn semisync_crash_timings(
    n_plus_1: usize,
    f: usize,
    steps: u64,
    limit: usize,
) -> Option<Vec<TimedCrashes>> {
    let all: BTreeSet<ProcessId> = (0..n_plus_1).map(|i| ProcessId(i as u32)).collect();
    let mut out: Vec<TimedCrashes> = Vec::new();
    for crash_set in subsets_up_to_size_lex(&all, f.min(n_plus_1)) {
        let crashers: Vec<ProcessId> = crash_set.iter().copied().collect();
        if crashers.is_empty() {
            if out.len() == limit {
                return None;
            }
            out.push(TimedCrashes::new());
            continue;
        }
        if steps == 0 {
            continue;
        }
        let mut times = vec![1u64; crashers.len()];
        'odometer: loop {
            if out.len() == limit {
                return None;
            }
            out.push(
                crashers
                    .iter()
                    .copied()
                    .zip(times.iter().copied())
                    .collect(),
            );
            let mut i = 0;
            loop {
                if i == crashers.len() {
                    break 'odometer;
                }
                times[i] += 1;
                if times[i] <= steps {
                    break;
                }
                times[i] = 1;
                i += 1;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn sync_one_round_count_matches_exhaustive_executor() {
        // 3 procs, k=f=1, 1 round: ∅ (1) + 3 crashers × 4 recipient
        // subsets = 13 schedules — the same count the runtime's
        // for_each_sync_execution visits.
        let s = sync_crash_schedules(3, 1, 1, 1, 10_000).unwrap();
        assert_eq!(s.len(), 13);
        assert_eq!(s[0], vec![CrashPlan::new()]);
        assert!(s.iter().skip(1).all(|sched| sched[0].len() == 1));
    }

    #[test]
    fn sync_budget_respected_across_rounds() {
        let s = sync_crash_schedules(3, 1, 1, 2, 100_000).unwrap();
        for sched in &s {
            let crashes: usize = sched.iter().map(|plan| plan.len()).sum();
            assert!(crashes <= 1, "budget exceeded: {sched:?}");
        }
        // Crashers never reappear in later rounds.
        for sched in &s {
            let mut dead: BTreeSet<ProcessId> = BTreeSet::new();
            for plan in sched {
                for (c, recips) in plan {
                    assert!(!dead.contains(c));
                    assert!(recips.iter().all(|r| !dead.contains(r) && r != c));
                    dead.insert(*c);
                }
            }
        }
    }

    #[test]
    fn sync_limit_returns_none() {
        assert!(sync_crash_schedules(3, 1, 1, 1, 5).is_none());
    }

    #[test]
    fn async_one_round_count() {
        // n+1 = 3, f = 1 ⇒ min_heard = 2: each process picks one of 3
        // heard sets, so 27 single-round schedules.
        let parts: BTreeSet<ProcessId> = [pid(0), pid(1), pid(2)].into();
        let s = async_heard_schedules(&parts, 2, 1, 10_000).unwrap();
        assert_eq!(s.len(), 27);
        for sched in &s {
            assert_eq!(sched.len(), 1);
            for (p, heard) in &sched[0] {
                assert!(heard.contains(p));
                assert!(heard.len() >= 2);
                assert!(heard.is_subset(&parts));
            }
        }
    }

    #[test]
    fn async_multi_round_is_cross_product() {
        let parts: BTreeSet<ProcessId> = [pid(0), pid(1), pid(2)].into();
        let s = async_heard_schedules(&parts, 2, 2, 10_000).unwrap();
        assert_eq!(s.len(), 27 * 27);
    }

    #[test]
    fn async_limit_returns_none() {
        let parts: BTreeSet<ProcessId> = [pid(0), pid(1), pid(2)].into();
        assert!(async_heard_schedules(&parts, 2, 2, 100).is_none());
    }

    #[test]
    fn semisync_timings_enumerate_crash_steps() {
        // 2 procs, f = 1, steps ≤ 2: ∅ + 2 crashers × 2 steps = 5.
        let t = semisync_crash_timings(2, 1, 2, 1_000).unwrap();
        assert_eq!(t.len(), 5);
        assert!(t[0].is_empty());
        for timing in &t {
            for (&_, &step) in timing {
                assert!((1..=2).contains(&step));
            }
        }
    }
}
