//! Exhaustive synchronous execution enumeration for arbitrary protocols.
//!
//! [`for_each_sync_execution`] walks *every* §7-structured adversary
//! behavior — per-round failure sets within the per-round cap and total
//! budget, and every recipient subset for every crash — running the
//! given protocol along each branch and invoking a visitor with the
//! complete trace. Unlike randomized testing, a passing sweep is a
//! *proof* of the protocol's properties for the instance (the same way
//! the decision-map solver proves impossibility).

use std::collections::{BTreeMap, BTreeSet};

use ps_core::{subsets_up_to_size_lex, ProcessId};
use ps_topology::for_each_product;

use crate::protocol::RoundProtocol;
use crate::sched::round_inboxes;
use crate::trace::SyncTrace;

/// Enumerates every execution of `protocol` with the given failure
/// parameters, calling `visit` once per complete execution.
///
/// Decided processes halt as in §4: they stop broadcasting, their state
/// freezes, and a decided crasher offers no recipient choice.
/// [`crate::SyncExecutor`] differs: it keeps every live process
/// broadcasting until all of them have decided, and the schedules it
/// replays (`ps_models::sync_crash_schedules`) branch on every
/// crasher's recipients. The two walks stay separate because only this
/// one implements §4 halting, the model the exhaustive `EarlyFloodSet`
/// proofs (`tests/protocols_exhaustive.rs`) are stated for.
///
/// The number of executions grows as
/// `Π_rounds Σ_K 2^(|K|·survivors)`; keep `n_plus_1 ≤ 4`, `rounds ≤ 3`.
///
/// # Panics
///
/// Panics if `inputs.len() != n_plus_1`.
#[allow(clippy::too_many_arguments)]
pub fn for_each_sync_execution<P: RoundProtocol>(
    protocol: &P,
    inputs: &[P::Input],
    k_per_round: usize,
    f_total: usize,
    rounds: usize,
    visit: &mut impl FnMut(&SyncTrace<P::State, P::Output>),
) {
    let n_plus_1 = inputs.len();
    let states: BTreeMap<ProcessId, P::State> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let p = ProcessId(i as u32);
            (p, protocol.init(p, n_plus_1, v.clone()))
        })
        .collect();
    let trace: SyncTrace<P::State, P::Output> = SyncTrace::new();
    rec(
        protocol,
        states,
        BTreeMap::new(),
        trace,
        k_per_round,
        f_total,
        rounds,
        1,
        visit,
    );
}

#[allow(clippy::too_many_arguments)]
fn rec<P: RoundProtocol>(
    protocol: &P,
    states: BTreeMap<ProcessId, P::State>,
    decided: BTreeMap<ProcessId, (usize, P::Output)>,
    trace: SyncTrace<P::State, P::Output>,
    k_per_round: usize,
    budget: usize,
    rounds: usize,
    round: usize,
    visit: &mut impl FnMut(&SyncTrace<P::State, P::Output>),
) {
    if rounds == 0 || states.is_empty() {
        let mut done = trace;
        done.finish(states);
        visit(&done);
        return;
    }
    let alive: BTreeSet<ProcessId> = states.keys().copied().collect();
    let cap = k_per_round.min(budget);
    for crash_set in subsets_up_to_size_lex(&alive, cap) {
        let survivors: BTreeSet<ProcessId> = alive.difference(&crash_set).copied().collect();
        if survivors.is_empty() {
            let mut done = trace.clone();
            for c in &crash_set {
                done.record_crash(*c, round);
            }
            done.finish(BTreeMap::new());
            visit(&done);
            continue;
        }
        // broadcast messages (decided processes halted: they send nothing)
        let msgs: BTreeMap<ProcessId, P::Msg> = states
            .iter()
            .filter(|(p, _)| !decided.contains_key(p))
            .map(|(p, s)| (*p, protocol.message(s)))
            .collect();
        let crashing: Vec<ProcessId> = crash_set
            .iter()
            .copied()
            .filter(|c| msgs.contains_key(c))
            .collect();
        // Per undecided crasher, every subset of the survivors may still
        // hear it; the tuple is read reversed so the first crasher varies
        // fastest.
        let recipients: Vec<Vec<BTreeSet<ProcessId>>> = crashing
            .iter()
            .map(|_| subsets_up_to_size_lex(&survivors, survivors.len()))
            .collect();
        for_each_product(&recipients, |pick| {
            let mut next_states = BTreeMap::new();
            let mut next_decided = decided.clone();
            let mut next_trace = trace.clone();
            for c in &crash_set {
                next_trace.record_crash(*c, round);
            }
            let crasher_recips: Vec<(ProcessId, &BTreeSet<ProcessId>)> = crashing
                .iter()
                .copied()
                .zip(pick.iter().rev().copied())
                .collect();
            let inboxes = round_inboxes(&msgs, &survivors, &crasher_recips);
            for s in &survivors {
                if let Some((_, _out)) = decided.get(s) {
                    // already decided: halted, state frozen
                    next_states.insert(*s, states[s].clone());
                    continue;
                }
                let st = protocol.on_round(states[s].clone(), &inboxes[s], round);
                if let Some(out) = protocol.decide(&st, round) {
                    next_decided.insert(*s, (round, out.clone()));
                    next_trace.record_decision(*s, round, out);
                }
                next_states.insert(*s, st);
            }
            next_trace.record_round(next_states.clone());
            rec(
                protocol,
                next_states,
                next_decided,
                next_trace,
                k_per_round,
                budget - crash_set.len(),
                rounds - 1,
                round + 1,
                visit,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FullInformation;

    #[test]
    fn counts_one_round_executions() {
        // 3 procs, k=f=1, 1 round: K=∅ (1) + 3 crashers × 4 recipient
        // subsets = 13 executions
        let mut count = 0usize;
        for_each_sync_execution(&FullInformation::new(), &[0, 1, 2], 1, 1, 1, &mut |_| {
            count += 1;
        });
        assert_eq!(count, 13);
    }

    #[test]
    fn traces_record_crashes_and_rounds() {
        let mut with_crash = 0usize;
        for_each_sync_execution(&FullInformation::new(), &[0, 1, 2], 1, 1, 1, &mut |t| {
            assert_eq!(t.rounds_executed(), 1);
            if !t.crashes().is_empty() {
                with_crash += 1;
            }
        });
        assert_eq!(with_crash, 12);
    }

    #[test]
    fn two_round_budget_respected() {
        for_each_sync_execution(&FullInformation::new(), &[0, 1], 1, 1, 2, &mut |t| {
            assert!(t.crashes().len() <= 1);
        });
    }
}
