//! Synchronous lockstep executor with crash adversaries.
//!
//! Implements the §7 execution structure message-by-message: in each
//! round every alive process broadcasts; a crashing process reaches an
//! adversary-chosen subset of the survivors and then stops. The executor
//! is the shared round reactor of `crate::sched` plus this module's
//! crash delivery rule. The *exhaustive* enumerator replays every
//! schedule of `ps_models::sync_crash_schedules` (failure sets per round
//! within the per-round cap and total budget, and every recipient subset
//! per crash) through the executor and collects the reachable final
//! full-information views — the simulator-side regeneration of the
//! `ps-models` synchronous protocol complex.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::ProcessId;
use ps_models::{sync_crash_schedules, View};
use ps_topology::Complex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::protocol::{FullInformation, RoundProtocol};
use crate::sched::{round_inboxes, run_rounds, Ctl, DeliveryRule};
use crate::trace::{final_view_complex, SyncTrace};

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
        let rule = CrashDelivery {
            adversary,
            budget: self.f_total,
        };
        let everyone = (0..self.n_plus_1 as u32).map(ProcessId);
        run_rounds(
            &self.protocol,
            self.n_plus_1,
            inputs,
            everyone,
            rule,
            max_rounds,
        )
        .0
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

/// The §7 delivery rule: the adversary's crash plan for the round,
/// delivered through [`round_inboxes`]; each crasher reaches only its
/// recipient set and then leaves the run.
struct CrashDelivery<'a> {
    adversary: &'a mut dyn SyncAdversary,
    budget: usize,
}

impl<M: Clone> DeliveryRule<M> for CrashDelivery<'_> {
    const HALT_WHEN_DECIDED: bool = true;

    fn deliver(
        &mut self,
        round: usize,
        alive: &BTreeSet<ProcessId>,
        msgs: &BTreeMap<ProcessId, M>,
        ctl: &mut Ctl<'_, M>,
    ) -> Vec<ProcessId> {
        let plan = self.adversary.plan_round(round, alive, self.budget);
        for (p, recipients) in &plan.crashes {
            assert!(alive.contains(p), "adversary crashed dead process {p}");
            assert!(
                recipients.iter().all(|q| alive.contains(q) && q != p),
                "recipients must be alive others"
            );
        }
        assert!(plan.crashes.len() <= self.budget, "failure budget exceeded");
        self.budget -= plan.crashes.len();
        let survivors: BTreeSet<ProcessId> = alive
            .iter()
            .copied()
            .filter(|p| !plan.crashes.contains_key(p))
            .collect();
        let crashers: Vec<(ProcessId, &BTreeSet<ProcessId>)> =
            plan.crashes.iter().map(|(p, r)| (*p, r)).collect();
        for (q, inbox) in round_inboxes(msgs, &survivors, &crashers) {
            for (src, m) in inbox {
                ctl.send(src, q, round as u64, m);
            }
        }
        plan.crashes.into_keys().collect()
    }
}

/// Replays every §7-structured execution of the full-information
/// protocol — each schedule of [`sync_crash_schedules`], through
/// [`SyncExecutor`] — and returns the complex of reachable final global
/// states: the simulator-side `S^r` (cross-checked against
/// `ps-models::SyncModel::protocol_complex` in the integration tests).
pub fn enumerate_sync_views(
    inputs: &[u8],
    k_per_round: usize,
    f_total: usize,
    rounds: usize,
) -> Complex<View<u8>> {
    let n_plus_1 = inputs.len();
    let exec = SyncExecutor::new(FullInformation::new(), n_plus_1, f_total);
    let schedules = sync_crash_schedules(n_plus_1, k_per_round, f_total, rounds, usize::MAX)
        .expect("an unbounded enumeration is complete");
    final_view_complex(schedules.into_iter().map(|schedule| {
        let script = schedule
            .into_iter()
            .map(|crashes| RoundFailures { crashes })
            .collect();
        exec.run(inputs, &mut ScriptedAdversary { script }, rounds)
    }))
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
