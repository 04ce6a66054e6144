//! Generalized k-set flooding, per timing model.
//!
//! The canonical positive protocol behind the sweep verdicts: every
//! process floods the set of values it has seen and, once its round
//! budget is exhausted, decides the minimum value it knows.
//!
//! * Under the synchronous executor with ≤ `k` crashes per round and
//!   `r ≥ ⌊f/k⌋ + 1` rounds this solves k-set agreement (Theorem 18's
//!   upper bound).
//! * Under the asynchronous executor (heard sets of size ≥ `n + 1 − f`)
//!   the same [`RoundProtocol`] yields at most `f + 1` distinct
//!   decisions — k-set agreement exactly when `k > f` (Corollary 13's
//!   positive side).
//! * [`TimedKSetFlood`] is the §8 semi-synchronous form: one round per
//!   `p = ⌈d/c1⌉` scheduler microrounds.
//!
//! Running the *same* flooding rule under all three round structures is
//! what lets the conformance harness compare one protocol against all
//! three models' verdicts.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ps_core::ProcessId;
use ps_runtime::{RoundProtocol, TimedParams, TimedProtocol};

/// State of [`KSetFlood`]: the values seen so far.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KSetFloodState {
    /// The owning process.
    pub me: ProcessId,
    /// Values seen so far (own input included).
    pub known: BTreeSet<u64>,
}

/// Generalized flooding for k-set agreement, parameterized by the round
/// budget. Model-agnostic: run it under [`ps_runtime::SyncExecutor`],
/// [`ps_runtime::AsyncExecutor`], or exhaustively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KSetFlood {
    /// Rounds to run before deciding.
    pub rounds: usize,
}

impl KSetFlood {
    /// Flooding with an explicit round budget.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn new(rounds: usize) -> Self {
        assert!(rounds >= 1, "need at least one round");
        KSetFlood { rounds }
    }

    /// The synchronous-model optimal round count `⌊f/k⌋ + 1`
    /// (Theorem 18).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn optimal_sync(f: usize, k: usize) -> Self {
        assert!(k >= 1, "k-set agreement needs k ≥ 1");
        Self::new(f / k + 1)
    }
}

impl RoundProtocol for KSetFlood {
    type Input = u64;
    type State = KSetFloodState;
    type Msg = BTreeSet<u64>;
    type Output = u64;

    fn init(&self, me: ProcessId, _n_plus_1: usize, input: u64) -> KSetFloodState {
        KSetFloodState {
            me,
            known: [input].into_iter().collect(),
        }
    }

    fn message(&self, state: &KSetFloodState) -> BTreeSet<u64> {
        state.known.clone()
    }

    fn on_round(
        &self,
        mut state: KSetFloodState,
        received: &BTreeMap<ProcessId, BTreeSet<u64>>,
        _round: usize,
    ) -> KSetFloodState {
        for vals in received.values() {
            state.known.extend(vals.iter().copied());
        }
        state
    }

    fn decide(&self, state: &KSetFloodState, rounds_done: usize) -> Option<u64> {
        (rounds_done >= self.rounds).then(|| *state.known.first().expect("own input known"))
    }
}

/// State of [`TimedKSetFlood`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimedKSetFloodState {
    /// Values seen so far (own input included).
    pub known: BTreeSet<u64>,
    /// Scheduler steps per flooding round (`p = ⌈d/c1⌉`).
    pub steps_per_round: u64,
}

/// Semi-synchronous k-set flooding: broadcast at the first step of each
/// `p`-step round, decide the minimum once the round budget has
/// elapsed. Its decision time under the stretch adversary is what
/// `ps-agreement`'s Corollary 22 experiment measures.
///
/// A broadcast is one shared set (`Arc<BTreeSet<u64>>`): the scheduler
/// clones a message once per recipient, which copies the pointer, not
/// the set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedKSetFlood {
    /// Rounds before deciding.
    pub rounds: u64,
}

impl TimedKSetFlood {
    /// With an explicit round budget.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn new(rounds: u64) -> Self {
        assert!(rounds >= 1, "need at least one round");
        TimedKSetFlood { rounds }
    }

    /// The `⌊f/k⌋ + 1`-round instance.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn optimal(f: usize, k: usize) -> Self {
        Self::new(KSetFlood::optimal_sync(f, k).rounds as u64)
    }
}

impl TimedProtocol for TimedKSetFlood {
    type Input = u64;
    type State = TimedKSetFloodState;
    type Msg = Arc<BTreeSet<u64>>;
    type Output = u64;

    fn init(
        &self,
        _me: ProcessId,
        _n_plus_1: usize,
        input: u64,
        params: &TimedParams,
    ) -> TimedKSetFloodState {
        TimedKSetFloodState {
            known: [input].into_iter().collect(),
            steps_per_round: params.microrounds(),
        }
    }

    fn on_step(
        &self,
        mut state: TimedKSetFloodState,
        _now: u64,
        step: u64,
        inbox: &[(ProcessId, Arc<BTreeSet<u64>>)],
    ) -> (TimedKSetFloodState, Option<Arc<BTreeSet<u64>>>, Option<u64>) {
        for (_, vals) in inbox {
            state.known.extend(vals.iter().copied());
        }
        let p = state.steps_per_round;
        let broadcast = step
            .is_multiple_of(p)
            .then(|| Arc::new(state.known.clone()));
        let decide =
            (step + 1 >= self.rounds * p).then(|| *state.known.first().expect("own input known"));
        (state, broadcast, decide)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_runtime::{
        for_each_sync_execution, AsyncExecutor, FullDelivery, Lockstep, NoFailures, RoundFailures,
        ScriptedAdversary, StretchAdversary, SyncExecutor, TimedExecutor,
    };

    #[test]
    fn sync_failure_free_consensus() {
        let proto = KSetFlood::optimal_sync(1, 1);
        assert_eq!(proto.rounds, 2);
        let exec = SyncExecutor::new(proto, 3, 1);
        let trace = exec.run(&[5, 3, 9], &mut NoFailures, 5);
        assert!(trace.satisfies_termination(3));
        assert!(trace.satisfies_k_agreement(1));
        assert_eq!(trace.decision(ProcessId(0)), Some(&3));
        assert_eq!(trace.decision_round(ProcessId(0)), Some(2));
    }

    #[test]
    fn optimal_round_counts_at_the_edges() {
        // f = 0: one round regardless of k
        assert_eq!(KSetFlood::optimal_sync(0, 1).rounds, 1);
        assert_eq!(KSetFlood::optimal_sync(0, 3).rounds, 1);
        // interior points of the ⌊f/k⌋ + 1 formula
        assert_eq!(KSetFlood::optimal_sync(5, 2).rounds, 3);
        assert_eq!(KSetFlood::optimal_sync(6, 2).rounds, 4);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = KSetFlood::new(0);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn optimal_sync_rejects_zero_k() {
        let _ = KSetFlood::optimal_sync(3, 0);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn timed_optimal_rejects_zero_k() {
        let _ = TimedKSetFlood::optimal(2, 0);
    }

    #[test]
    fn sync_exhaustive_k_agreement_bound() {
        // n+1 = 3, k = f = 1, 2 rounds: every execution solves consensus.
        let proto = KSetFlood::optimal_sync(1, 1);
        for_each_sync_execution(&proto, &[4, 1, 9], 1, 1, 2, &mut |t| {
            assert!(t.satisfies_k_agreement(1), "{:?}", t.decisions());
            assert!(t.satisfies_validity(&[4, 1, 9].into_iter().collect()));
        });
    }

    #[test]
    fn one_round_insufficient_for_consensus_with_failure() {
        // an explicit bad execution: with 1 round and 1 crash mid-send,
        // survivors can decide differently (the Theorem 18 obstruction).
        // P0 has the minimum; it crashes reaching only P1.
        let exec = SyncExecutor::new(KSetFlood::new(1), 3, 1);
        let mut adv = ScriptedAdversary {
            script: vec![RoundFailures {
                crashes: [(ProcessId(0), [ProcessId(1)].into_iter().collect())]
                    .into_iter()
                    .collect(),
            }],
        };
        let trace = exec.run(&[0, 5, 9], &mut adv, 1);
        assert_eq!(trace.decision(ProcessId(1)), Some(&0));
        assert_eq!(trace.decision(ProcessId(2)), Some(&5));
        assert!(!trace.satisfies_k_agreement(1));
    }

    #[test]
    fn async_decisions_bounded_by_f_plus_1() {
        // n+1 = 3, f = 1, one async round: at most 2 distinct decisions.
        let proto = KSetFlood::new(1);
        let exec = AsyncExecutor::new(proto, 3, 1);
        let parts: BTreeSet<ProcessId> = (0..3).map(ProcessId).collect();
        let trace = exec.run(&[7, 2, 5], &parts, &mut FullDelivery, 1);
        assert!(trace.satisfies_termination(3));
        assert!(trace.satisfies_k_agreement(2));
    }

    #[test]
    fn timed_matches_round_structure() {
        // d, inputs → under lockstep at c1 = c2 = 1 the 3 rounds of
        // p = d steps end at `time`, everyone deciding the minimum
        for (d, inputs, value, time) in [(2, [9, 4, 6], 4, 6), (4, [4, 2, 9], 2, 12)] {
            let params = TimedParams::new(1, 1, d);
            let exec = TimedExecutor::new(TimedKSetFlood::optimal(2, 1), 3, params);
            let trace = exec.run(&inputs, &mut Lockstep, 1000);
            assert_eq!(trace.decisions().len(), 3, "d={d}");
            assert_eq!(trace.decision_values(), [value].into_iter().collect());
            assert_eq!(trace.last_decision_time(), Some(time), "d={d}");
        }
    }

    #[test]
    fn round_length_spans_d() {
        // c1 = 3, d = 8 => p = 3 steps per round; steps at 3,6,9 =>
        // round 1 completes at 9 ≥ d = 8.
        let exec = TimedExecutor::new(TimedKSetFlood::new(1), 2, TimedParams::new(3, 3, 8));
        let trace = exec.run(&[1, 0], &mut Lockstep, 1000);
        assert_eq!(trace.decision(ProcessId(0)).unwrap().0, 9);
    }

    #[test]
    fn stretch_survivor_decides_its_own_value() {
        // the lone survivor decides its own value: 1 value ≤ k
        let exec = TimedExecutor::new(TimedKSetFlood::optimal(2, 1), 3, TimedParams::new(1, 2, 3));
        let mut adv = StretchAdversary {
            survivor: ProcessId(1),
            crash_at: 0,
        };
        let trace = exec.run(&[7, 3, 9], &mut adv, 10_000);
        assert_eq!(trace.decision(ProcessId(1)).map(|(_, v)| *v), Some(3));
    }
}
