//! Randomized protocol invariants on the unified scheduler: seeded
//! adversaries × protocols × thread modes.
//!
//! * Decision invariants (k-agreement, validity, termination) for
//!   flooding and BV consensus under seeded random crash / heard-set
//!   adversaries at sizes beyond the exhaustive regime.
//! * Scheduler accounting on heavy-traffic protocol runs: the
//!   always-on chronology and FIFO invariants (the scheduler panics on
//!   violation), the `events = delivered + steps` identity, vector
//!   clock happens-before consistency, and Chandy–Lamport snapshot
//!   channel-state conservation at randomized cut times.
//! * Determinism across thread modes: the conformance harness returns
//!   an identical report at 1 and 4 worker threads.

use std::collections::BTreeSet;

use pseudosphere::agreement::{conformance_check, ConformConfig, SweepOptions, SweepPoint};
use pseudosphere::core::ProcessId;
use pseudosphere::protocols::{
    BvConsensus, ChandyLamportObserver, KSetFlood, Rounds, TimedKSetFlood, VectorClockObserver,
};
use pseudosphere::runtime::{
    traffic_run_protocol, AsyncExecutor, AsyncPolicy, MultiObserver, RandomAdversary,
    RandomAsyncAdversary, RandomTimedAdversary, SemisyncPolicy, SyncExecutor, TimedParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn random_sync_crashes_keep_flooding_invariants() {
    for (n_plus_1, f, k) in [
        (4usize, 2usize, 1usize),
        (4, 2, 2),
        (5, 2, 1),
        (6, 3, 2),
        (7, 4, 2),
    ] {
        let proto = KSetFlood::optimal_sync(f, k);
        let inputs: Vec<u64> = (0..n_plus_1 as u64).map(|v| v % (k as u64 + 1)).collect();
        let input_set: BTreeSet<u64> = inputs.iter().copied().collect();
        for seed in 0..40u64 {
            let exec = SyncExecutor::new(proto, n_plus_1, f);
            let mut adv = RandomAdversary::new(seed, f, 0.6);
            let trace = exec.run(&inputs, &mut adv, proto.rounds);
            assert!(
                trace.satisfies_k_agreement(k),
                "n={n_plus_1} f={f} k={k} seed={seed}: {:?}",
                trace.decisions()
            );
            assert!(trace.satisfies_validity(&input_set), "seed {seed}");
            assert!(trace.satisfies_termination(n_plus_1), "seed {seed}");
        }
    }
}

#[test]
fn random_sync_crashes_keep_bv_agreement() {
    for (n_plus_1, f) in [(4usize, 2usize), (5, 2), (6, 3)] {
        let rounds = BvConsensus::rounds_needed(f);
        let inputs: Vec<bool> = (0..n_plus_1).map(|i| i % 2 == 0).collect();
        let input_set: BTreeSet<bool> = inputs.iter().copied().collect();
        for seed in 0..30u64 {
            let exec = SyncExecutor::new(BvConsensus::new(), n_plus_1, f);
            let mut adv = RandomAdversary::new(seed, f, 0.5);
            let trace = exec.run(&inputs, &mut adv, rounds);
            assert!(trace.satisfies_termination(n_plus_1), "seed {seed}");
            assert!(trace.satisfies_k_agreement(1), "seed {seed}");
            assert!(trace.satisfies_validity(&input_set), "seed {seed}");
        }
    }
}

#[test]
fn random_async_heard_sets_bound_flooding_spread() {
    for (n_plus_1, f, rounds) in [(5usize, 2usize, 1usize), (6, 2, 2), (7, 3, 2)] {
        let participants: BTreeSet<ProcessId> = (0..n_plus_1 as u32).map(ProcessId).collect();
        let inputs: Vec<u64> = (0..n_plus_1 as u64).collect();
        for seed in 0..40u64 {
            let exec = AsyncExecutor::new(KSetFlood::new(rounds), n_plus_1, f);
            let mut adv = RandomAsyncAdversary::new(seed);
            let trace = exec.run(&inputs, &participants, &mut adv, rounds);
            // asynchronous flooding spreads to at most f + 1 values
            // (Corollary 13's positive side: (f+1)-set agreement)
            assert!(
                trace.satisfies_k_agreement(f + 1),
                "n={n_plus_1} f={f} r={rounds} seed={seed}: {:?}",
                trace.decision_values()
            );
            assert!(trace.satisfies_termination(n_plus_1), "seed {seed}");
        }
    }
}

/// Heavy-traffic protocol runs with observers: scheduler accounting,
/// vector-clock causality, and snapshot conservation hold across
/// seeded adversaries, crash mixes, policies, and cut times.
#[test]
fn traffic_runs_keep_observer_invariants() {
    let mut rng = StdRng::seed_from_u64(0xDECAF);
    for trial in 0..12u64 {
        let n = 4 + (trial as usize % 5);
        let crashes = trial as usize % (n - 1).min(3);
        let params = TimedParams::new(1, 2, 4);
        let proto = TimedKSetFlood::optimal(crashes.max(1), 1);
        let inputs: Vec<u64> = (0..n as u64).collect();
        let cut = rng.gen_range(0..30u64);
        let crash_map: std::collections::BTreeMap<ProcessId, u64> = (0..crashes)
            .map(|i| (ProcessId((n - 1 - i) as u32), 3 + 5 * i as u64))
            .collect();
        let mut adv = RandomTimedAdversary::new(trial, crash_map);
        let mut vc = VectorClockObserver::new();
        let mut cl = ChandyLamportObserver::new(cut);
        let report = {
            let mut policy = SemisyncPolicy::new(&mut adv, params);
            let mut multi = MultiObserver {
                observers: vec![&mut vc, &mut cl],
            };
            traffic_run_protocol(
                &proto,
                &inputs,
                100_000,
                &mut policy,
                10_000,
                Some(&mut multi),
            )
        };
        // chronology + FIFO are always-on inside the scheduler (it
        // panics on violation); the productive-event identity is
        // checked here
        assert_eq!(
            report.events,
            report.delivered + report.steps,
            "trial {trial}: events = delivered + steps"
        );
        assert_eq!(vc.deliveries(), report.delivered, "trial {trial}");
        assert!(vc.consistent(), "trial {trial}: {:?}", vc.errors());
        assert!(cl.finalize(), "trial {trial} cut {cut}: {:?}", cl.errors());
    }
}

/// Same observer invariants under the async timing policy and the BV
/// protocol through the rounds adapter.
#[test]
fn async_policy_bv_traffic_keeps_observer_invariants() {
    let params = TimedParams::new(1, 2, 4);
    for seed in 0..8u64 {
        let n = 4 + (seed as usize % 3);
        let proto = Rounds::new(BvConsensus::new(), BvConsensus::rounds_needed(1));
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut adv = RandomTimedAdversary::new(seed, Default::default());
        let mut vc = VectorClockObserver::new();
        let mut cl = ChandyLamportObserver::new(6);
        let report = {
            let mut policy = AsyncPolicy::new(&mut adv, params);
            let mut multi = MultiObserver {
                observers: vec![&mut vc, &mut cl],
            };
            traffic_run_protocol(
                &proto,
                &inputs,
                100_000,
                &mut policy,
                10_000,
                Some(&mut multi),
            )
        };
        assert_eq!(
            report.events,
            report.delivered + report.steps,
            "seed {seed}"
        );
        assert!(vc.consistent(), "seed {seed}: {:?}", vc.errors());
        assert!(cl.finalize(), "seed {seed}: {:?}", cl.errors());
    }
}

/// The conformance harness is deterministic across worker-thread
/// counts: identical reports at 1 and 4 threads.
#[test]
fn conformance_report_is_thread_mode_independent() {
    let points: Vec<SweepPoint> = vec![
        SweepPoint::Sync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        },
        SweepPoint::Sync {
            k: 2,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        },
        SweepPoint::Async {
            k: 2,
            f: 1,
            n_plus_1: 3,
            rounds: 1,
        },
    ];
    let cfg = ConformConfig::default();
    let one = conformance_check(&points, 1, SweepOptions::default(), &cfg);
    let four = conformance_check(&points, 4, SweepOptions::default(), &cfg);
    assert_eq!(one, four, "thread count must not change the report");
    assert!(one.all_ok(), "{}", one.table());
}
