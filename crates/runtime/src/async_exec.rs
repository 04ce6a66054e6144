//! Asynchronous round-structured executor (§6).
//!
//! Well-behaved asynchronous executions: a fixed participant set (the
//! rest crash before sending anything), and in each round every
//! participant receives the round messages of an adversary-chosen set of
//! at least `n + 1 - f` participants (its own included). Undelivered
//! messages are logically delivered later in FIFO batches; with
//! full-information protocols their content is subsumed by later states,
//! so the executor tracks the heard-set structure directly.
//!
//! The executor is the shared round reactor of `crate::sched` plus this
//! module's heard-set delivery rule. The exhaustive enumerator replays
//! every schedule of `ps_models::async_heard_schedules` through it and
//! regenerates `A^r` from the executions — the simulator-side
//! counterpart of `ps-models::AsyncModel`.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::ProcessId;
use ps_models::{async_heard_schedules, View};
use ps_topology::Complex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::protocol::{FullInformation, RoundProtocol};
use crate::sched::{run_rounds, Ctl, DeliveryRule};
use crate::trace::{final_view_complex, SyncTrace};

/// A round schedule: per participant, the set of participants whose
/// round-`r` messages it receives during round `r`.
pub type HeardSets = BTreeMap<ProcessId, BTreeSet<ProcessId>>;

/// An asynchronous-round adversary: chooses each process's heard set.
pub trait AsyncAdversary {
    /// Chooses heard sets for `round`; each must contain the receiver,
    /// have size ≥ `min_heard`, and be a subset of `participants`.
    fn plan_round(
        &mut self,
        round: usize,
        participants: &BTreeSet<ProcessId>,
        min_heard: usize,
    ) -> HeardSets;
}

/// The benign adversary: everyone hears everyone.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullDelivery;

impl AsyncAdversary for FullDelivery {
    fn plan_round(
        &mut self,
        _round: usize,
        participants: &BTreeSet<ProcessId>,
        _min_heard: usize,
    ) -> HeardSets {
        participants
            .iter()
            .map(|p| (*p, participants.clone()))
            .collect()
    }
}

/// A scripted adversary: fixed heard sets per round (full delivery after
/// the script runs out). The replayable counterpart of
/// [`RandomAsyncAdversary`], used by the conformance harness to record
/// and re-execute witness schedules.
#[derive(Clone, Debug, Default)]
pub struct ScriptedHeardSets {
    /// Round-indexed heard-set plans (round 1 = index 0).
    pub script: Vec<HeardSets>,
}

impl AsyncAdversary for ScriptedHeardSets {
    fn plan_round(
        &mut self,
        round: usize,
        participants: &BTreeSet<ProcessId>,
        min_heard: usize,
    ) -> HeardSets {
        match self.script.get(round - 1) {
            Some(plan) => plan.clone(),
            None => FullDelivery.plan_round(round, participants, min_heard),
        }
    }
}

/// A seeded random adversary choosing minimal-or-larger heard sets.
#[derive(Debug)]
pub struct RandomAsyncAdversary {
    rng: StdRng,
}

impl RandomAsyncAdversary {
    /// Creates a seeded adversary.
    pub fn new(seed: u64) -> Self {
        RandomAsyncAdversary {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl AsyncAdversary for RandomAsyncAdversary {
    fn plan_round(
        &mut self,
        _round: usize,
        participants: &BTreeSet<ProcessId>,
        min_heard: usize,
    ) -> HeardSets {
        participants
            .iter()
            .map(|p| {
                let mut others: Vec<ProcessId> =
                    participants.iter().copied().filter(|q| q != p).collect();
                others.shuffle(&mut self.rng);
                let extra = self
                    .rng
                    .gen_range(min_heard.saturating_sub(1)..=others.len());
                let mut heard: BTreeSet<ProcessId> = others.into_iter().take(extra).collect();
                heard.insert(*p);
                (*p, heard)
            })
            .collect()
    }
}

/// The asynchronous round-structured executor.
#[derive(Clone, Debug)]
pub struct AsyncExecutor<P> {
    protocol: P,
    n_plus_1: usize,
    f: usize,
}

impl<P: RoundProtocol> AsyncExecutor<P> {
    /// Creates an executor for a system of `n_plus_1` processes with at
    /// most `f` failures.
    pub fn new(protocol: P, n_plus_1: usize, f: usize) -> Self {
        AsyncExecutor {
            protocol,
            n_plus_1,
            f,
        }
    }

    /// Minimum heard-set size per round: `n + 1 - f`.
    pub fn min_heard(&self) -> usize {
        self.n_plus_1.saturating_sub(self.f)
    }

    /// Runs `rounds` asynchronous rounds over the given participants
    /// (process `i` gets `inputs[i]`; non-participants crash initially).
    ///
    /// This is a facade over the unified scheduler (`crate::sched`):
    /// round `r`'s heard-set deliveries become `Deliver` events at tick
    /// `r` followed by one `Step` per participant. Traces are identical
    /// to [`AsyncExecutor::run_legacy`] (pinned by
    /// `tests/runtime_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n + 1 - f` processes participate, or the
    /// adversary violates the heard-set constraints.
    pub fn run(
        &self,
        inputs: &[P::Input],
        participants: &BTreeSet<ProcessId>,
        adversary: &mut dyn AsyncAdversary,
        rounds: usize,
    ) -> SyncTrace<P::State, P::Output> {
        assert!(
            participants.len() >= self.min_heard(),
            "too few participants for f = {}",
            self.f
        );
        let rule = HeardDelivery {
            adversary,
            min_heard: self.min_heard(),
        };
        let starters = participants.iter().copied();
        run_rounds(
            &self.protocol,
            self.n_plus_1,
            inputs,
            starters,
            rule,
            rounds,
        )
        .0
    }

    /// The pre-unification round loop, retained verbatim as the
    /// differential-testing oracle for [`AsyncExecutor::run`].
    pub fn run_legacy(
        &self,
        inputs: &[P::Input],
        participants: &BTreeSet<ProcessId>,
        adversary: &mut dyn AsyncAdversary,
        rounds: usize,
    ) -> SyncTrace<P::State, P::Output> {
        assert_eq!(inputs.len(), self.n_plus_1, "one input per process");
        assert!(
            participants.len() >= self.min_heard(),
            "too few participants for f = {}",
            self.f
        );
        let mut states: BTreeMap<ProcessId, P::State> = participants
            .iter()
            .map(|p| {
                (
                    *p,
                    self.protocol
                        .init(*p, self.n_plus_1, inputs[p.index()].clone()),
                )
            })
            .collect();
        let mut trace: SyncTrace<P::State, P::Output> = SyncTrace::new();
        for round in 1..=rounds {
            let plan = adversary.plan_round(round, participants, self.min_heard());
            for p in participants {
                let heard = plan
                    .get(p)
                    .unwrap_or_else(|| panic!("adversary gave no heard set for {p}"));
                assert!(heard.contains(p), "heard set must include self");
                assert!(heard.len() >= self.min_heard(), "heard set too small");
                assert!(heard.is_subset(participants), "heard set not participants");
            }
            let msgs: BTreeMap<ProcessId, P::Msg> = states
                .iter()
                .map(|(p, s)| (*p, self.protocol.message(s)))
                .collect();
            let mut next = BTreeMap::new();
            for p in participants {
                let inbox: BTreeMap<ProcessId, P::Msg> =
                    plan[p].iter().map(|q| (*q, msgs[q].clone())).collect();
                let st = self
                    .protocol
                    .on_round(states.remove(p).unwrap(), &inbox, round);
                next.insert(*p, st);
            }
            states = next;
            trace.record_round(states.clone());
            for (p, st) in &states {
                if trace.decision(*p).is_none() {
                    if let Some(out) = self.protocol.decide(st, round) {
                        trace.record_decision(*p, round, out);
                    }
                }
            }
        }
        trace.finish(states);
        trace
    }
}

/// The §6 delivery rule: each participant hears the round messages of
/// its adversary-chosen heard set. Nobody crashes mid-run, so every
/// participant steps every round (decided processes included).
struct HeardDelivery<'a> {
    adversary: &'a mut dyn AsyncAdversary,
    min_heard: usize,
}

impl<M: Clone> DeliveryRule<M> for HeardDelivery<'_> {
    fn deliver(
        &mut self,
        round: usize,
        participants: &BTreeSet<ProcessId>,
        msgs: &BTreeMap<ProcessId, M>,
        ctl: &mut Ctl<'_, M>,
    ) -> Vec<ProcessId> {
        let plan = self
            .adversary
            .plan_round(round, participants, self.min_heard);
        for p in participants {
            let heard = plan
                .get(p)
                .unwrap_or_else(|| panic!("adversary gave no heard set for {p}"));
            assert!(heard.contains(p), "heard set must include self");
            assert!(heard.len() >= self.min_heard, "heard set too small");
            assert!(heard.is_subset(participants), "heard set not participants");
        }
        for p in participants {
            for q in &plan[p] {
                ctl.send(*q, *p, round as u64, msgs[q].clone());
            }
        }
        Vec::new()
    }
}

/// Replays every §6-structured `rounds`-round execution of the
/// full-information protocol with the given participants — each schedule
/// of [`async_heard_schedules`], through [`AsyncExecutor`] — and returns
/// the complex of final global states: the simulator-side `A^r`.
pub fn enumerate_async_views(
    inputs: &[u8],
    participants: &BTreeSet<ProcessId>,
    f: usize,
    rounds: usize,
) -> Complex<View<u8>> {
    let exec = AsyncExecutor::new(FullInformation::new(), inputs.len(), f);
    if participants.len() < exec.min_heard() {
        return Complex::new();
    }
    let schedules = async_heard_schedules(participants, exec.min_heard(), rounds, usize::MAX)
        .expect("an unbounded enumeration is complete");
    final_view_complex(schedules.into_iter().map(|script| {
        exec.run(
            inputs,
            participants,
            &mut ScriptedHeardSets { script },
            rounds,
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_core::process_set;

    #[test]
    fn full_delivery_run() {
        let exec = AsyncExecutor::new(FullInformation::new(), 3, 1);
        let parts = process_set(3);
        let trace = exec.run(&[0, 1, 2], &parts, &mut FullDelivery, 2);
        for p in 0..3u32 {
            let st = trace.final_state(ProcessId(p)).unwrap();
            assert_eq!(st.round(), 2);
            assert_eq!(st.known_inputs().len(), 3);
        }
    }

    #[test]
    fn min_heard_enforced() {
        let exec = AsyncExecutor::new(FullInformation::new(), 3, 1);
        assert_eq!(exec.min_heard(), 2);
    }

    #[test]
    #[should_panic(expected = "too few participants")]
    fn participant_threshold_enforced() {
        let exec = AsyncExecutor::new(FullInformation::new(), 3, 1);
        let parts: BTreeSet<ProcessId> = [ProcessId(0)].into_iter().collect();
        let _ = exec.run(&[0, 1, 2], &parts, &mut FullDelivery, 1);
    }

    #[test]
    fn random_adversary_valid_runs() {
        let parts = process_set(3);
        for seed in 0..20 {
            let exec = AsyncExecutor::new(FullInformation::new(), 3, 1);
            let mut adv = RandomAsyncAdversary::new(seed);
            let trace = exec.run(&[0, 1, 2], &parts, &mut adv, 2);
            for p in 0..3u32 {
                let st = trace.final_state(ProcessId(p)).unwrap();
                assert!(st.heard_set().len() >= 2);
            }
        }
    }

    #[test]
    fn exhaustive_one_round_facets() {
        // 3 procs, f=1: 3 heard-set choices per process => 27 facets
        let c = enumerate_async_views(&[0, 1, 2], &process_set(3), 1, 1);
        assert_eq!(c.facet_count(), 27);
    }

    #[test]
    fn exhaustive_below_threshold_is_void() {
        let parts: BTreeSet<ProcessId> = [ProcessId(0)].into_iter().collect();
        let c = enumerate_async_views(&[0, 1, 2], &parts, 1, 1);
        assert!(c.is_void());
    }
}
