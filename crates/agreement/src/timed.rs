//! The Corollary 22 stretch experiment.
//!
//! Runs ps-protocols' [`TimedKSetFlood`] — step-counted flooding in
//! rounds of `p = ⌈d/c1⌉` steps (so a round spans at least `d` real
//! time), deciding after `R = ⌊f/k⌋ + 1` rounds — under the paper's
//! *stretch adversary* (crash all but one process, run the survivor at
//! `c2`). [`stretch_experiment`] compares the survivor's decision time
//! against the Corollary 22 lower bound `⌊f/k⌋·d + C·d`.

use ps_core::ProcessId;
use ps_protocols::TimedKSetFlood;
use ps_runtime::{
    run_policy, Lockstep, PolicyRun, SemisyncPolicy, StretchAdversary, TimedAdversary, TimedParams,
    TimedTrace,
};

/// Result of one stretch-adversary run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StretchOutcome {
    /// The survivor's decision time (ticks).
    pub decision_time: u64,
    /// Corollary 22's lower bound `⌊f/k⌋·d + C·d` (ticks).
    pub bound: f64,
    /// Failure-free (lockstep) decision time for comparison.
    pub failure_free_time: u64,
}

impl StretchOutcome {
    /// Whether the measured time respects (is at least) the bound.
    pub fn respects_bound(&self) -> bool {
        self.decision_time as f64 >= self.bound - 1e-9
    }
}

/// One run of the Corollary 22 instance: `n_plus_1` processes with
/// inputs `0..n_plus_1` run [`TimedKSetFlood::optimal`] at wait-free
/// budget `f = n` under `adversary`, on the unified scheduler
/// ([`run_policy`] under [`SemisyncPolicy`]), with the full event log.
fn corollary22_run(
    n_plus_1: usize,
    k: usize,
    params: TimedParams,
    adversary: &mut dyn TimedAdversary,
) -> TimedTrace<u64> {
    let proto = TimedKSetFlood::optimal(n_plus_1 - 1, k);
    let inputs: Vec<u64> = (0..n_plus_1 as u64).collect();
    let run = PolicyRun {
        max_time: params.c2 * params.microrounds() * (proto.rounds + 2) * 4 + 16,
        ..PolicyRun::default()
    };
    let mut policy = SemisyncPolicy::new(adversary, params);
    run_policy(&proto, n_plus_1, &inputs, &mut policy, run)
}

/// The stretched run of the Corollary 22 instance: every process but
/// `P0` crashes at time 0 and the survivor steps at `c2`
/// ([`StretchAdversary`]).
pub fn stretch_trace(n_plus_1: usize, k: usize, params: TimedParams) -> TimedTrace<u64> {
    let mut stretch = StretchAdversary {
        survivor: ProcessId(0),
        crash_at: 0,
    };
    corollary22_run(n_plus_1, k, params, &mut stretch)
}

/// Runs the Corollary 22 experiment: `n_plus_1` processes, wait-free
/// budget `f = n`, agreement parameter `k`; measures the survivor's
/// decision time in [`stretch_trace`] and the failure-free time under
/// [`Lockstep`].
pub fn stretch_experiment(n_plus_1: usize, k: usize, params: TimedParams) -> StretchOutcome {
    let decision_time = stretch_trace(n_plus_1, k, params)
        .decision(ProcessId(0))
        .expect("survivor must decide (wait-free)")
        .0;
    let failure_free_time = corollary22_run(n_plus_1, k, params, &mut Lockstep)
        .last_decision_time()
        .expect("all decide");
    StretchOutcome {
        decision_time,
        bound: params.corollary22_bound(n_plus_1 - 1, k),
        failure_free_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_outcome_respects_corollary22() {
        for (c1, c2, d) in [(1u64, 1u64, 4u64), (1, 2, 4), (1, 4, 4), (2, 6, 8)] {
            let params = TimedParams::new(c1, c2, d);
            for k in 1..=2usize {
                for n_plus_1 in [3usize, 4] {
                    let outcome = stretch_experiment(n_plus_1, k, params);
                    assert!(
                        outcome.respects_bound(),
                        "c1={c1} c2={c2} d={d} k={k} n+1={n_plus_1}: {outcome:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stretch_slower_than_failure_free() {
        let params = TimedParams::new(1, 4, 4);
        let outcome = stretch_experiment(3, 1, params);
        assert!(outcome.decision_time > outcome.failure_free_time);
    }
}
