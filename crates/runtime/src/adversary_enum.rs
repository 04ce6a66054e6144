//! Exhaustive simulator-side enumerators for the Byzantine synchronous
//! and directed dynamic-network adversaries.
//!
//! These walk every adversary choice by *running* the canonical
//! full-information protocol ([`FullInformation`]) round by round: the
//! adversary fabricates per-recipient inboxes (forged Byzantine
//! messages, or graph-restricted deliveries) and the protocol's
//! `on_round` transition consumes them. They deliberately share no code
//! with the `ps-models` recursions — faulty sets and graphs are
//! enumerated by bitmask, choice vectors are decoded from mixed-radix
//! counters, and dynamic-graph admissibility is decided by
//! Floyd–Warshall transitive closure instead of BFS — so that
//! `tests/cross_validation.rs` can compare two genuinely independent
//! constructions of the same complexes (the Lemma 11/14 pattern).

use std::collections::BTreeMap;

use ps_core::ProcessId;
use ps_models::{GraphFamily, View};
use ps_topology::{Complex, InternedBuilder};

use crate::protocol::{FullInformation, RoundProtocol};

/// Rewrites every `Input` leaf of `faulty` inside `view` to claim
/// `value` — the simulator-side forgery operation a Byzantine process
/// applies to its true state before sending.
fn forge_claim(view: &View<u8>, faulty: ProcessId, value: u8) -> View<u8> {
    match view {
        View::Input { process, input } => View::Input {
            process: *process,
            input: if *process == faulty { value } else { *input },
        },
        View::Round { process, heard } => View::Round {
            process: *process,
            heard: heard
                .iter()
                .map(|(p, v)| (*p, forge_claim(v, faulty, value)))
                .collect(),
        },
    }
}

/// Exhaustively enumerates every Byzantine-synchronous execution with
/// at most `t` faulty processes and returns the complex of reachable
/// final correct-process views — the simulator-side counterpart of
/// `ps-models::ByzantineModel::protocol_complex`.
///
/// Per execution a faulty set `B` is fixed; per round each faulty
/// process independently sends each correct process either nothing or
/// its true current view claiming any input value of the alphabet as
/// its own, while correct processes broadcast truthfully.
pub fn enumerate_byzantine_views(inputs: &[u8], t: usize, rounds: usize) -> Complex<View<u8>> {
    let protocol = FullInformation::new();
    let n_plus_1 = inputs.len();
    let mut alphabet: Vec<u8> = inputs.to_vec();
    alphabet.sort_unstable();
    alphabet.dedup();
    let mut out = InternedBuilder::new();
    for faulty_mask in 0u32..(1u32 << n_plus_1) {
        if (faulty_mask.count_ones() as usize) > t {
            continue;
        }
        let mut correct: BTreeMap<ProcessId, View<u8>> = BTreeMap::new();
        let mut faulty: BTreeMap<ProcessId, View<u8>> = BTreeMap::new();
        for (i, v) in inputs.iter().enumerate() {
            let p = ProcessId(i as u32);
            let state = protocol.init(p, n_plus_1, *v);
            if faulty_mask & (1 << i) != 0 {
                faulty.insert(p, state);
            } else {
                correct.insert(p, state);
            }
        }
        byz_rec(&protocol, correct, faulty, &alphabet, rounds, 1, &mut out);
    }
    out.finish()
}

fn byz_rec(
    protocol: &FullInformation,
    correct: BTreeMap<ProcessId, View<u8>>,
    faulty: BTreeMap<ProcessId, View<u8>>,
    alphabet: &[u8],
    rounds: usize,
    round: usize,
    out: &mut InternedBuilder<View<u8>>,
) {
    if rounds == 0 {
        if !correct.is_empty() {
            out.add_facet_vertices(correct.into_values());
        }
        return;
    }
    if correct.is_empty() {
        return;
    }
    let recipients: Vec<ProcessId> = correct.keys().copied().collect();
    let liars: Vec<ProcessId> = faulty.keys().copied().collect();
    // menu entry 0 = silence, 1 + j = true view claiming alphabet[j]
    let menu_len = 1 + alphabet.len();
    let pairs = recipients.len() * liars.len();
    let combos = (menu_len as u64).pow(pairs as u32);
    // the faulty reference states hear everyone truthfully
    let mut all_msgs: BTreeMap<ProcessId, View<u8>> = correct.clone();
    all_msgs.extend(faulty.iter().map(|(p, v)| (*p, v.clone())));
    let next_faulty: BTreeMap<ProcessId, View<u8>> = faulty
        .iter()
        .map(|(b, s)| (*b, protocol.on_round(s.clone(), &all_msgs, round)))
        .collect();
    for combo in 0..combos {
        let mut code = combo;
        let next_correct: BTreeMap<ProcessId, View<u8>> = recipients
            .iter()
            .map(|p| {
                let mut inbox: BTreeMap<ProcessId, View<u8>> = correct.clone();
                for b in &liars {
                    let choice = (code % menu_len as u64) as usize;
                    code /= menu_len as u64;
                    if choice > 0 {
                        inbox.insert(*b, forge_claim(&faulty[b], *b, alphabet[choice - 1]));
                    }
                }
                (*p, protocol.on_round(correct[p].clone(), &inbox, round))
            })
            .collect();
        byz_rec(
            protocol,
            next_correct,
            next_faulty.clone(),
            alphabet,
            rounds - 1,
            round + 1,
            out,
        );
    }
}

/// Exhaustively enumerates every dynamic-network execution whose
/// per-round communication graphs are drawn from `family`, returning
/// the complex of reachable final views — the simulator-side
/// counterpart of `ps-models::DynamicModel::protocol_complex`.
pub fn enumerate_dynamic_views(
    inputs: &[u8],
    family: GraphFamily,
    rounds: usize,
) -> Complex<View<u8>> {
    let protocol = FullInformation::new();
    let n_plus_1 = inputs.len();
    let init: BTreeMap<ProcessId, View<u8>> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let p = ProcessId(i as u32);
            (p, protocol.init(p, n_plus_1, *v))
        })
        .collect();
    let masks = admissible_masks(n_plus_1, family);
    let mut out = InternedBuilder::new();
    dyn_rec(&protocol, init, &masks, n_plus_1, rounds, 1, &mut out);
    out.finish()
}

/// All edge bitmasks (over the `m(m−1)` ordered non-self pairs, sender
/// major) whose digraph `family` admits, decided by Floyd–Warshall
/// transitive closure.
fn admissible_masks(m: usize, family: GraphFamily) -> Vec<u64> {
    let edge_count = m * m.saturating_sub(1);
    assert!(
        edge_count < 64,
        "graph enumeration needs m(m−1) < 64 edges; {m} processes exceed \
         DynamicModel::MAX_PROCESSES"
    );
    let mut out = Vec::new();
    for mask in 0u64..(1u64 << edge_count) {
        let mut reach = vec![vec![false; m]; m];
        let mut e = 0;
        for (i, row) in reach.iter_mut().enumerate() {
            row[i] = true;
        }
        for (i, row) in reach.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i == j {
                    continue;
                }
                if mask & (1 << e) != 0 {
                    *cell = true;
                }
                e += 1;
            }
        }
        for k in 0..m {
            let via = reach[k].clone();
            for row in reach.iter_mut() {
                if row[k] {
                    for (cell, &v) in row.iter_mut().zip(&via) {
                        if v {
                            *cell = true;
                        }
                    }
                }
            }
        }
        let ok = match family {
            GraphFamily::Rooted => (0..m).any(|i| reach[i].iter().all(|&r| r)),
            GraphFamily::StronglyConnected => reach.iter().all(|row| row.iter().all(|&r| r)),
        };
        if ok {
            out.push(mask);
        }
    }
    out
}

fn dyn_rec(
    protocol: &FullInformation,
    states: BTreeMap<ProcessId, View<u8>>,
    masks: &[u64],
    m: usize,
    rounds: usize,
    round: usize,
    out: &mut InternedBuilder<View<u8>>,
) {
    if rounds == 0 {
        if !states.is_empty() {
            out.add_facet_vertices(states.into_values());
        }
        return;
    }
    let procs: Vec<ProcessId> = states.keys().copied().collect();
    for &mask in masks {
        let mut inboxes: BTreeMap<ProcessId, BTreeMap<ProcessId, View<u8>>> =
            procs.iter().map(|p| (*p, BTreeMap::new())).collect();
        let mut e = 0;
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    continue;
                }
                if mask & (1 << e) != 0 {
                    let msg = protocol.message(&states[&procs[i]]);
                    inboxes.get_mut(&procs[j]).unwrap().insert(procs[i], msg);
                }
                e += 1;
            }
        }
        let next: BTreeMap<ProcessId, View<u8>> = procs
            .iter()
            .map(|p| (*p, protocol.on_round(states[p].clone(), &inboxes[p], round)))
            .collect();
        dyn_rec(protocol, next, masks, m, rounds - 1, round + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byzantine_t0_single_execution() {
        let c = enumerate_byzantine_views(&[0, 1, 2], 0, 2);
        assert_eq!(c.facet_count(), 1);
    }

    #[test]
    fn byzantine_one_round_count_matches_hand_count() {
        // see ByzantineModel::one_round_facet_count_three_processes
        let c = enumerate_byzantine_views(&[0, 1, 2], 1, 1);
        assert_eq!(c.facet_count(), 46);
    }

    #[test]
    fn dynamic_mask_counts_two_processes() {
        assert_eq!(admissible_masks(2, GraphFamily::Rooted).len(), 3);
        assert_eq!(admissible_masks(2, GraphFamily::StronglyConnected).len(), 1);
    }

    #[test]
    fn dynamic_rooted_round_facets() {
        let c = enumerate_dynamic_views(&[0, 1], GraphFamily::Rooted, 1);
        assert_eq!(c.facet_count(), 3);
        let c = enumerate_dynamic_views(&[0, 1], GraphFamily::Rooted, 2);
        assert_eq!(c.facet_count(), 9);
    }

    #[test]
    fn views_always_hear_self() {
        let c = enumerate_byzantine_views(&[0, 1], 1, 2);
        for f in c.facets() {
            for v in f.vertices() {
                assert!(v.heard_set().contains(&v.process()));
            }
        }
        let c = enumerate_dynamic_views(&[0, 1, 2], GraphFamily::StronglyConnected, 1);
        for f in c.facets() {
            for v in f.vertices() {
                assert!(v.heard_set().contains(&v.process()));
            }
        }
    }
}
