//! Cross-validation: the discrete-event simulator's exhaustively
//! enumerated executions regenerate the combinatorial protocol complexes
//! of `ps-models` — Lemmas 11 and 14 (and their r-round iterations) made
//! executable from *both* sides.
//!
//! Experiments E3 and E7 of EXPERIMENTS.md.

use std::collections::BTreeSet;

use pseudosphere::core::{process_set, ProcessId};
use pseudosphere::models::{
    input_simplex, AsyncModel, ByzantineModel, DynamicModel, GraphFamily, SyncModel,
};
use pseudosphere::runtime::{
    enumerate_async_views, enumerate_byzantine_views, enumerate_dynamic_views, enumerate_sync_views,
};
use pseudosphere::topology::{are_isomorphic, Simplex};

#[test]
fn async_one_round_simulator_matches_model() {
    // E7 / Lemma 11, n+1 = 3, f = 1
    let model = AsyncModel::new(3, 1);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.one_round_complex(&input);
    let from_sim = enumerate_async_views(&[0, 1, 2], &process_set(3), 1, 1);
    assert_eq!(from_model.facet_count(), from_sim.facet_count());
    assert_eq!(from_model, from_sim); // identical labels, not just isomorphic
}

#[test]
fn async_one_round_simulator_matches_model_f2() {
    let model = AsyncModel::new(3, 2);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.one_round_complex(&input);
    let from_sim = enumerate_async_views(&[0, 1, 2], &process_set(3), 2, 1);
    assert_eq!(from_model, from_sim);
}

#[test]
fn async_two_round_simulator_matches_model() {
    // r = 2 with 2 processes keeps the enumeration small
    let model = AsyncModel::new(2, 1);
    let input = input_simplex(&[0u8, 1]);
    let from_model = model.protocol_complex(&input, 2);
    let from_sim = enumerate_async_views(&[0, 1], &process_set(2), 1, 2);
    assert_eq!(from_model, from_sim);
}

#[test]
fn async_participant_subset_simulator_matches_model() {
    // only P0 and P1 of n+1 = 3 take part (P2 crashes before sending):
    // the model builds on the input face {P0, P1}
    let participants: BTreeSet<ProcessId> = [ProcessId(0), ProcessId(1)].into();
    let face = Simplex::new(vec![(ProcessId(0), 0u8), (ProcessId(1), 1u8)]);
    for f in [1, 2] {
        let model = AsyncModel::new(3, f);
        for rounds in [1, 2] {
            let from_model = model.protocol_complex(&face, rounds);
            let from_sim = enumerate_async_views(&[0, 1, 2], &participants, f, rounds);
            assert!(from_sim.facet_count() > 0, "f = {f}, r = {rounds}");
            assert_eq!(from_model, from_sim, "f = {f}, r = {rounds}");
        }
    }
}

#[test]
fn async_formula_pseudosphere_isomorphic_to_simulator() {
    // Lemma 11's ψ-formula vs the simulator (label types differ, so
    // isomorphism rather than equality)
    let model = AsyncModel::new(3, 1);
    let input = input_simplex(&[0u8, 1, 2]);
    let formula = model.one_round_pseudosphere(&input).realize();
    let from_sim = enumerate_async_views(&[0, 1, 2], &process_set(3), 1, 1);
    assert!(are_isomorphic(&formula, &from_sim));
}

#[test]
fn sync_one_round_simulator_matches_model() {
    // E3 / Lemma 14 + Figure 3, n+1 = 3, k = f = 1
    let model = SyncModel::new(3, 1, 1);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.one_round_complex(&input);
    let from_sim = enumerate_sync_views(&[0, 1, 2], 1, 1, 1);
    assert_eq!(from_model, from_sim);
    assert_eq!(from_sim.f_vector(), vec![9, 12, 1]); // Figure 3 shape
}

#[test]
fn sync_one_round_simulator_matches_model_k2() {
    let model = SyncModel::new(3, 2, 2);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.one_round_complex(&input);
    let from_sim = enumerate_sync_views(&[0, 1, 2], 2, 2, 1);
    assert_eq!(from_model, from_sim);
}

#[test]
fn sync_two_round_simulator_matches_model() {
    let model = SyncModel::new(3, 1, 1);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.protocol_complex(&input, 2);
    let from_sim = enumerate_sync_views(&[0, 1, 2], 1, 1, 2);
    assert_eq!(from_model, from_sim);
}

#[test]
fn sync_two_round_budget_two() {
    // total budget 2, cap 1/round: failures can be split across rounds
    let model = SyncModel::new(3, 1, 2);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.protocol_complex(&input, 2);
    let from_sim = enumerate_sync_views(&[0, 1, 2], 1, 2, 2);
    assert_eq!(from_model, from_sim);
}

#[test]
fn sync_wait_free_two_rounds_matches_model() {
    // k_per_round = f = n = 2: two processes may crash in one round
    let model = SyncModel::new(3, 2, 2);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.protocol_complex(&input, 2);
    let from_sim = enumerate_sync_views(&[0, 1, 2], 2, 2, 2);
    assert_eq!(from_model, from_sim);
}

#[test]
fn byzantine_one_round_simulator_matches_model() {
    // Lemma 11/14 pattern for the Byzantine adversary: the simulator's
    // forged-inbox executions regenerate the equivocation-menu
    // recursion, label for label
    let model = ByzantineModel::new(3, 1);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.one_round_complex(&input);
    let from_sim = enumerate_byzantine_views(&[0, 1, 2], 1, 1);
    assert_eq!(from_model.facet_count(), from_sim.facet_count());
    assert_eq!(from_model, from_sim);
}

#[test]
fn byzantine_one_round_simulator_matches_model_t2() {
    let model = ByzantineModel::new(3, 2);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.one_round_complex(&input);
    let from_sim = enumerate_byzantine_views(&[0, 1, 2], 2, 1);
    assert_eq!(from_model, from_sim);
}

#[test]
fn byzantine_two_round_simulator_matches_model() {
    // r = 2 with 2 processes keeps the menu odometer small
    let model = ByzantineModel::new(2, 1);
    let input = input_simplex(&[0u8, 1]);
    let from_model = model.protocol_complex(&input, 2);
    let from_sim = enumerate_byzantine_views(&[0, 1], 1, 2);
    assert_eq!(from_model, from_sim);
}

#[test]
fn byzantine_faultfree_budget_matches_model() {
    // t = 0 degenerates to one lockstep execution on both sides
    let model = ByzantineModel::new(3, 0);
    let input = input_simplex(&[0u8, 1, 2]);
    let from_model = model.protocol_complex(&input, 2);
    let from_sim = enumerate_byzantine_views(&[0, 1, 2], 0, 2);
    assert_eq!(from_model, from_sim);
    assert_eq!(from_sim.facet_count(), 1);
}

#[test]
fn dynamic_one_round_simulator_matches_model() {
    for family in [GraphFamily::Rooted, GraphFamily::StronglyConnected] {
        let model = DynamicModel::new(3, family);
        let input = input_simplex(&[0u8, 1, 2]);
        let from_model = model.one_round_complex(&input);
        let from_sim = enumerate_dynamic_views(&[0, 1, 2], family, 1);
        assert_eq!(from_model, from_sim, "family {family:?}");
    }
}

#[test]
fn dynamic_two_round_simulator_matches_model() {
    for family in [GraphFamily::Rooted, GraphFamily::StronglyConnected] {
        let model = DynamicModel::new(2, family);
        let input = input_simplex(&[0u8, 1]);
        let from_model = model.protocol_complex(&input, 3);
        let from_sim = enumerate_dynamic_views(&[0, 1], family, 3);
        assert_eq!(from_model, from_sim, "family {family:?}");
    }
}

#[test]
fn distinct_inputs_distinct_complexes() {
    // sanity: the construction depends on the inputs
    let a = enumerate_sync_views(&[0, 1, 2], 1, 1, 1);
    let b = enumerate_sync_views(&[0, 0, 0], 1, 1, 1);
    assert_ne!(a, b);
    assert_eq!(a.f_vector(), b.f_vector()); // same shape, different labels
}
