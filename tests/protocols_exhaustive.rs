//! Exhaustive protocol verification: FloodSet (`KSetFlood`) and
//! `EarlyFloodSet` run through *every* §7-structured adversary behavior
//! of small instances. A passing sweep is an instance-level correctness
//! proof (termination, validity, agreement), complementing the
//! decision-map experiments.

use std::collections::BTreeSet;

use pseudosphere::protocols::{EarlyFloodSet, KSetFlood};
use pseudosphere::runtime::for_each_sync_execution;

#[test]
fn floodset_consensus_correct_on_every_execution() {
    // n+1 = 3, f = 1, k = 1, rounds = 2 (= ⌊f/k⌋ + 1)
    let proto = KSetFlood::optimal_sync(1, 1);
    let inputs = [2u64, 0, 1];
    let input_set: BTreeSet<u64> = inputs.iter().copied().collect();
    let mut count = 0usize;
    for_each_sync_execution(&proto, &inputs, 1, 1, 2, &mut |t| {
        count += 1;
        assert!(t.satisfies_termination(3), "{:?}", t.decisions());
        assert!(t.satisfies_k_agreement(1), "{:?}", t.decisions());
        assert!(t.satisfies_validity(&input_set));
    });
    // round 1 has 13 branches (∅ + 3 crashers × 4 recipient subsets);
    // a crash exhausts the budget, so only the failure-free branch
    // re-branches in round 2: 12 + 13 = 25 executions.
    assert_eq!(count, 25);
}

#[test]
fn floodset_2set_correct_on_every_execution() {
    // n+1 = 3, f = 2, k = 2, rounds = 2; unrestricted per-round cap
    let proto = KSetFlood::optimal_sync(2, 2);
    let inputs = [2u64, 0, 1];
    let input_set: BTreeSet<u64> = inputs.iter().copied().collect();
    for_each_sync_execution(&proto, &inputs, 2, 2, 2, &mut |t| {
        assert!(t.satisfies_termination(3), "{:?}", t.decisions());
        assert!(t.satisfies_k_agreement(2), "{:?}", t.decisions());
        assert!(t.satisfies_validity(&input_set));
    });
}

#[test]
fn floodset_one_round_short_fails_somewhere() {
    // sanity for the harness: at ⌊f/k⌋ rounds a violation must exist
    let proto = KSetFlood::new(1);
    let inputs = [2u64, 0, 1];
    let mut violations = 0usize;
    for_each_sync_execution(&proto, &inputs, 1, 1, 1, &mut |t| {
        if !t.satisfies_k_agreement(1) {
            violations += 1;
        }
    });
    assert!(violations > 0);
}

#[test]
fn early_floodset_correct_on_every_execution() {
    // the early decider with its relay round, f = 1: up to 3 rounds
    let proto = EarlyFloodSet::for_failures(1);
    let inputs = [2u64, 0, 1];
    let input_set: BTreeSet<u64> = inputs.iter().copied().collect();
    for_each_sync_execution(&proto, &inputs, 1, 1, 3, &mut |t| {
        assert!(t.satisfies_k_agreement(1), "{:?}", t.decisions());
        assert!(t.satisfies_validity(&input_set));
        // every survivor decides within f + 2 = 3 rounds
        assert!(t.satisfies_termination(3), "{:?}", t.decisions());
    });
}

#[test]
fn early_floodset_f2_correct_on_every_execution() {
    let proto = EarlyFloodSet::for_failures(2);
    let inputs = [2u64, 0, 1];
    let mut max_round_seen = 0usize;
    for_each_sync_execution(&proto, &inputs, 2, 2, 4, &mut |t| {
        assert!(t.satisfies_k_agreement(1), "{:?}", t.decisions());
        for (r, _) in t.decisions().values() {
            max_round_seen = max_round_seen.max(*r);
        }
    });
    // f' + 2 bound: with ≤ 2 crashes, decisions happen by round 4
    assert!(max_round_seen <= 4, "max decision round {max_round_seen}");
}

#[test]
fn early_beats_plain_floodset_in_failure_light_runs() {
    // quantify the early-stopping advantage: count executions where all
    // deciders finish before the f + 1 fallback
    let proto = EarlyFloodSet::for_failures(2);
    let inputs = [2u64, 0, 1];
    let mut early_count = 0usize;
    let mut total = 0usize;
    for_each_sync_execution(&proto, &inputs, 2, 2, 4, &mut |t| {
        total += 1;
        if !t.decisions().is_empty() && t.decisions().values().all(|(r, _)| *r < 3) {
            early_count += 1;
        }
    });
    assert!(early_count > 0, "{early_count}/{total}");
}
