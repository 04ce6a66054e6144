//! Synchronous lockstep executor with crash adversaries.
//!
//! Implements the §7 execution structure message-by-message: in each
//! round every alive process broadcasts; a crashing process reaches an
//! adversary-chosen subset of the survivors and then stops. The
//! *exhaustive* enumerator walks every adversary choice (failure sets per
//! round within the per-round cap and total budget, and every
//! recipient subset per crash) and collects the reachable final
//! full-information views — the simulator-side regeneration of the
//! `ps-models` synchronous protocol complex.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::{subsets_up_to_size_lex, ProcessId};
use ps_models::View;
use ps_topology::{Complex, InternedBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::protocol::{FullInformation, RoundProtocol};
use crate::sched::{round_inboxes, Ctl, Reactor, SchedConfig, Scheduler};
use crate::trace::SyncTrace;

/// The adversary's plan for one synchronous round: each crashing process
/// is mapped to the set of processes that still receive its round
/// message (its broadcast is cut short).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundFailures {
    /// Crashing process ↦ recipients that still get its message.
    pub crashes: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
}

impl RoundFailures {
    /// No failures this round.
    pub fn none() -> Self {
        RoundFailures::default()
    }
}

/// A synchronous-round crash adversary.
pub trait SyncAdversary {
    /// Chooses the failures for `round` given the alive set and the
    /// remaining failure budget.
    fn plan_round(
        &mut self,
        round: usize,
        alive: &BTreeSet<ProcessId>,
        budget: usize,
    ) -> RoundFailures;
}

/// The failure-free adversary.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFailures;

impl SyncAdversary for NoFailures {
    fn plan_round(&mut self, _: usize, _: &BTreeSet<ProcessId>, _: usize) -> RoundFailures {
        RoundFailures::none()
    }
}

/// A scripted adversary: a fixed plan per round (empty after the script
/// runs out).
#[derive(Clone, Debug, Default)]
pub struct ScriptedAdversary {
    /// Round-indexed failure plans (round 1 = index 0).
    pub script: Vec<RoundFailures>,
}

impl SyncAdversary for ScriptedAdversary {
    fn plan_round(&mut self, round: usize, _: &BTreeSet<ProcessId>, _: usize) -> RoundFailures {
        self.script.get(round - 1).cloned().unwrap_or_default()
    }
}

/// A seeded random adversary crashing up to `k_per_round` processes per
/// round with probability `crash_prob` each, cutting broadcasts at random
/// points.
#[derive(Debug)]
pub struct RandomAdversary {
    rng: StdRng,
    /// Per-round crash cap.
    pub k_per_round: usize,
    /// Probability that a candidate crash actually happens.
    pub crash_prob: f64,
}

impl RandomAdversary {
    /// Creates a seeded random adversary.
    pub fn new(seed: u64, k_per_round: usize, crash_prob: f64) -> Self {
        RandomAdversary {
            rng: StdRng::seed_from_u64(seed),
            k_per_round,
            crash_prob,
        }
    }
}

impl SyncAdversary for RandomAdversary {
    fn plan_round(
        &mut self,
        _round: usize,
        alive: &BTreeSet<ProcessId>,
        budget: usize,
    ) -> RoundFailures {
        let mut pool: Vec<ProcessId> = alive.iter().copied().collect();
        pool.shuffle(&mut self.rng);
        let cap = self.k_per_round.min(budget);
        let mut crashes = BTreeMap::new();
        for p in pool.into_iter().take(cap) {
            if self.rng.gen_bool(self.crash_prob) {
                let recipients: BTreeSet<ProcessId> = alive
                    .iter()
                    .copied()
                    .filter(|q| *q != p && self.rng.gen_bool(0.5))
                    .collect();
                crashes.insert(p, recipients);
            }
        }
        RoundFailures { crashes }
    }
}

/// The synchronous lockstep executor.
#[derive(Clone, Debug)]
pub struct SyncExecutor<P> {
    protocol: P,
    n_plus_1: usize,
    f_total: usize,
}

impl<P: RoundProtocol> SyncExecutor<P> {
    /// Creates an executor for `n_plus_1` processes and failure budget
    /// `f_total`.
    pub fn new(protocol: P, n_plus_1: usize, f_total: usize) -> Self {
        SyncExecutor {
            protocol,
            n_plus_1,
            f_total,
        }
    }

    /// Runs up to `max_rounds` rounds (or until every alive process has
    /// decided), with failures chosen by `adversary`.
    ///
    /// This is a facade over the unified scheduler (`crate::sched`): each
    /// round becomes one tick of lockstep timing, with the round's
    /// messages flowing through the scheduler's event queue as `Deliver`
    /// events before the survivors' `Step` events. Traces are identical
    /// to [`SyncExecutor::run_legacy`] (pinned by
    /// `tests/runtime_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n_plus_1`, or if the adversary crashes
    /// a dead process or exceeds the budget.
    pub fn run(
        &self,
        inputs: &[P::Input],
        adversary: &mut dyn SyncAdversary,
        max_rounds: usize,
    ) -> SyncTrace<P::State, P::Output> {
        assert_eq!(inputs.len(), self.n_plus_1, "one input per process");
        let states: BTreeMap<ProcessId, P::State> = inputs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let p = ProcessId(i as u32);
                (p, self.protocol.init(p, self.n_plus_1, v.clone()))
            })
            .collect();
        let alive: BTreeSet<ProcessId> = states.keys().copied().collect();
        let mut reactor = SyncReactor {
            protocol: &self.protocol,
            adversary,
            states,
            alive,
            budget: self.f_total,
            max_rounds,
            round: 0,
            pending: 0,
            trace: SyncTrace::new(),
        };
        let mut sched = Scheduler::new(
            self.n_plus_1,
            SchedConfig {
                max_time: u64::MAX,
                halt_decided: false,
                log_events: false,
                stop_after_delivered: None,
            },
        );
        sched.run(&mut reactor);
        let SyncReactor {
            mut trace, states, ..
        } = reactor;
        trace.finish(states);
        trace
    }

    /// The pre-unification round loop, retained verbatim as the
    /// differential-testing oracle for [`SyncExecutor::run`].
    pub fn run_legacy(
        &self,
        inputs: &[P::Input],
        adversary: &mut dyn SyncAdversary,
        max_rounds: usize,
    ) -> SyncTrace<P::State, P::Output> {
        assert_eq!(inputs.len(), self.n_plus_1, "one input per process");
        let mut states: BTreeMap<ProcessId, P::State> = inputs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let p = ProcessId(i as u32);
                (p, self.protocol.init(p, self.n_plus_1, v.clone()))
            })
            .collect();
        let mut alive: BTreeSet<ProcessId> = states.keys().copied().collect();
        let mut budget = self.f_total;
        let mut trace: SyncTrace<P::State, P::Output> = SyncTrace::new();

        for round in 1..=max_rounds {
            let plan = adversary.plan_round(round, &alive, budget);
            for (p, recipients) in &plan.crashes {
                assert!(alive.contains(p), "adversary crashed dead process {p}");
                assert!(
                    recipients.iter().all(|q| alive.contains(q) && q != p),
                    "recipients must be alive others"
                );
            }
            assert!(plan.crashes.len() <= budget, "failure budget exceeded");
            budget -= plan.crashes.len();

            // messages
            let mut inboxes: BTreeMap<ProcessId, BTreeMap<ProcessId, P::Msg>> =
                alive.iter().map(|p| (*p, BTreeMap::new())).collect();
            for sender in alive.iter() {
                let msg = self.protocol.message(&states[sender]);
                match plan.crashes.get(sender) {
                    None => {
                        for q in alive.iter() {
                            inboxes.get_mut(q).unwrap().insert(*sender, msg.clone());
                        }
                    }
                    Some(recipients) => {
                        for q in recipients {
                            inboxes.get_mut(q).unwrap().insert(*sender, msg.clone());
                        }
                    }
                }
            }

            // crashes take effect
            for (p, _) in plan.crashes.iter() {
                alive.remove(p);
                states.remove(p);
                trace.record_crash(*p, round);
            }

            // state transitions for survivors
            for p in alive.iter() {
                let inbox = &inboxes[p];
                let st = states.remove(p).unwrap();
                let st = self.protocol.on_round(st, inbox, round);
                states.insert(*p, st);
            }

            trace.record_round(states.clone());
            // decisions
            let mut all_decided = true;
            for (p, st) in &states {
                if trace.decision(*p).is_none() {
                    match self.protocol.decide(st, round) {
                        Some(out) => trace.record_decision(*p, round, out),
                        None => all_decided = false,
                    }
                }
            }
            if all_decided {
                break;
            }
        }
        trace.finish(states);
        trace
    }
}

/// The synchronous round machine expressed as a scheduler reactor:
/// round `r` occupies tick `r`, with the round's deliveries scheduled
/// at tick `r` (deliveries sort before steps) followed by one step per
/// survivor. Round `r + 1` is planned inside the round's final step.
struct SyncReactor<'a, P: RoundProtocol> {
    protocol: &'a P,
    adversary: &'a mut dyn SyncAdversary,
    states: BTreeMap<ProcessId, P::State>,
    alive: BTreeSet<ProcessId>,
    budget: usize,
    max_rounds: usize,
    round: usize,
    pending: usize,
    trace: SyncTrace<P::State, P::Output>,
}

impl<P: RoundProtocol> SyncReactor<'_, P> {
    /// Plans round `self.round`: asks the adversary for failures,
    /// schedules the round's deliveries and steps, applies crashes.
    fn plan_round(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        let round = self.round;
        let plan = self.adversary.plan_round(round, &self.alive, self.budget);
        for (p, recipients) in &plan.crashes {
            assert!(self.alive.contains(p), "adversary crashed dead process {p}");
            assert!(
                recipients.iter().all(|q| self.alive.contains(q) && q != p),
                "recipients must be alive others"
            );
        }
        assert!(plan.crashes.len() <= self.budget, "failure budget exceeded");
        self.budget -= plan.crashes.len();

        // messages (computed before the crashes take effect)
        let msgs: BTreeMap<ProcessId, P::Msg> = self
            .alive
            .iter()
            .map(|p| (*p, self.protocol.message(&self.states[p])))
            .collect();
        let survivors: BTreeSet<ProcessId> = self
            .alive
            .iter()
            .copied()
            .filter(|p| !plan.crashes.contains_key(p))
            .collect();
        let crashers: Vec<(ProcessId, &BTreeSet<ProcessId>)> =
            plan.crashes.iter().map(|(p, r)| (*p, r)).collect();
        let t = round as u64;
        for (q, inbox) in round_inboxes(&msgs, &survivors, &crashers) {
            for (src, m) in inbox {
                ctl.send(src, q, t, m);
            }
        }

        // crashes take effect
        for (p, _) in plan.crashes.iter() {
            self.alive.remove(p);
            self.states.remove(p);
            self.trace.record_crash(*p, round);
        }

        if self.alive.is_empty() {
            self.trace.record_round(self.states.clone());
            ctl.halt();
            return;
        }
        for q in self.alive.iter() {
            ctl.schedule_step(*q, t);
        }
        self.pending = self.alive.len();
    }
}

impl<P: RoundProtocol> Reactor<P::Msg> for SyncReactor<'_, P> {
    fn on_start(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        if self.max_rounds == 0 {
            return;
        }
        self.round = 1;
        self.plan_round(ctl);
    }

    fn on_step(
        &mut self,
        p: ProcessId,
        _now: u64,
        _step: u64,
        inbox: &[(ProcessId, P::Msg)],
        ctl: &mut Ctl<'_, P::Msg>,
    ) {
        let round = self.round;
        let inbox_map: BTreeMap<ProcessId, P::Msg> = inbox.iter().cloned().collect();
        let st = self.states.remove(&p).unwrap();
        let st = self.protocol.on_round(st, &inbox_map, round);
        self.states.insert(p, st);
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        // round complete: record, decide, plan the next round
        self.trace.record_round(self.states.clone());
        let mut all_decided = true;
        for (q, st) in &self.states {
            if self.trace.decision(*q).is_none() {
                match self.protocol.decide(st, round) {
                    Some(out) => self.trace.record_decision(*q, round, out),
                    None => all_decided = false,
                }
            }
        }
        if all_decided || round >= self.max_rounds {
            ctl.halt();
        } else {
            self.round = round + 1;
            self.plan_round(ctl);
        }
    }
}

/// Exhaustively enumerates every §7-structured execution of the
/// full-information protocol and returns the complex of reachable final
/// global states — the simulator-side `S^r` (cross-checked against
/// `ps-models::SyncModel::protocol_complex` in the integration tests).
pub fn enumerate_sync_views(
    inputs: &[u8],
    k_per_round: usize,
    f_total: usize,
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
    // Leaf facets vary in dimension (crash sets shrink the alive set),
    // so absorption is still needed — but it runs on interned ids with
    // each view hashed into the pool exactly once.
    let mut out = InternedBuilder::new();
    enumerate_rec(&protocol, init, k_per_round, f_total, rounds, 1, &mut out);
    out.finish()
}

fn enumerate_rec(
    protocol: &FullInformation,
    states: BTreeMap<ProcessId, View<u8>>,
    k_per_round: usize,
    budget: usize,
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
    let alive: BTreeSet<ProcessId> = states.keys().copied().collect();
    let cap = k_per_round.min(budget);
    for crash_set in subsets_up_to_size_lex(&alive, cap) {
        let survivors: BTreeSet<ProcessId> = alive.difference(&crash_set).copied().collect();
        if survivors.is_empty() {
            continue;
        }
        // sender-side enumeration: for each crashing process, every
        // subset of survivors as recipients
        let crashing: Vec<ProcessId> = crash_set.iter().copied().collect();
        let recipient_choices: Vec<Vec<BTreeSet<ProcessId>>> = crashing
            .iter()
            .map(|_| subsets_up_to_size_lex(&survivors, survivors.len()))
            .collect();
        let mut idx = vec![0usize; crashing.len()];
        'combos: loop {
            // build inboxes (full information: message = state)
            let crasher_recips: Vec<(ProcessId, &BTreeSet<ProcessId>)> = crashing
                .iter()
                .enumerate()
                .map(|(ci, c)| (*c, &recipient_choices[ci][idx[ci]]))
                .collect();
            let inboxes = round_inboxes(&states, &survivors, &crasher_recips);
            let next: BTreeMap<ProcessId, View<u8>> = survivors
                .iter()
                .map(|s| (*s, protocol.on_round(states[s].clone(), &inboxes[s], round)))
                .collect();
            enumerate_rec(
                protocol,
                next,
                k_per_round,
                budget - crash_set.len(),
                rounds - 1,
                round + 1,
                out,
            );
            // odometer over recipient subsets of all crashing processes
            if crashing.is_empty() {
                break 'combos;
            }
            let mut i = 0;
            loop {
                if i == crashing.len() {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_run_full_information() {
        let exec = SyncExecutor::new(FullInformation::new(), 3, 0);
        let trace = exec.run(&[0, 1, 2], &mut NoFailures, 2);
        assert_eq!(trace.crashes().len(), 0);
        for p in 0..3u32 {
            let st = trace.final_state(ProcessId(p)).unwrap();
            assert_eq!(st.round(), 2);
            assert_eq!(st.known_inputs().len(), 3);
        }
    }

    #[test]
    fn scripted_crash_cuts_broadcast() {
        let mut script = ScriptedAdversary::default();
        // P2 crashes in round 1, reaching only P0
        script.script.push(RoundFailures {
            crashes: [(ProcessId(2), [ProcessId(0)].into_iter().collect())]
                .into_iter()
                .collect(),
        });
        let exec = SyncExecutor::new(FullInformation::new(), 3, 1);
        let trace = exec.run(&[0, 1, 2], &mut script, 1);
        assert_eq!(trace.crashes().get(&ProcessId(2)), Some(&1));
        let s0 = trace.final_state(ProcessId(0)).unwrap();
        let s1 = trace.final_state(ProcessId(1)).unwrap();
        assert!(s0.heard_set().contains(&ProcessId(2)));
        assert!(!s1.heard_set().contains(&ProcessId(2)));
        assert!(trace.final_state(ProcessId(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "failure budget exceeded")]
    fn budget_enforced() {
        let mut script = ScriptedAdversary::default();
        script.script.push(RoundFailures {
            crashes: [
                (ProcessId(0), BTreeSet::new()),
                (ProcessId(1), BTreeSet::new()),
            ]
            .into_iter()
            .collect(),
        });
        let exec = SyncExecutor::new(FullInformation::new(), 3, 1);
        let _ = exec.run(&[0, 1, 2], &mut script, 1);
    }

    #[test]
    fn random_adversary_respects_budget() {
        for seed in 0..20 {
            let mut adv = RandomAdversary::new(seed, 1, 0.8);
            let exec = SyncExecutor::new(FullInformation::new(), 4, 2);
            let trace = exec.run(&[0, 1, 2, 3], &mut adv, 3);
            assert!(trace.crashes().len() <= 2);
        }
    }

    #[test]
    fn exhaustive_one_round_counts() {
        // 3 processes, k=1, f=1, 1 round:
        // K=∅: 1 execution; K={c}: 4 recipient subsets each => 1 + 12
        // executions; distinct facets: 1 + 3*4 = 13 executions, but the
        // "all survivors received" choice coincides with faces of the
        // failure-free facet => 10 facets (Figure 3).
        let c = enumerate_sync_views(&[0, 1, 2], 1, 1, 1);
        assert_eq!(c.facet_count(), 10);
        assert_eq!(c.f_vector(), vec![9, 12, 1]);
    }

    #[test]
    fn exhaustive_zero_rounds() {
        let c = enumerate_sync_views(&[0, 1], 1, 1, 0);
        assert_eq!(c.facet_count(), 1);
        assert_eq!(c.dim(), 1);
    }
}
