//! Traffic digests: the unified scheduler's heavy-traffic outputs over a
//! fixed grid, checked against tables recorded once.
//!
//! `tests/runtime_equivalence.rs` diffs the scheduler against the legacy
//! executor loops, but only at the sizes those loops reach (a handful of
//! processes). These tables pin the runs `psph traffic` and the `execute`
//! benchmark make, at sizes where the event queue holds thousands of
//! pending events and the observers track hundreds of channels:
//!
//! * `TRAFFIC` — one row per run of the `StepGossip` workload
//!   ([`traffic_run`]), of the same workload with the vector-clock and
//!   Chandy–Lamport observers attached, of observed `TimedKSetFlood`, and
//!   of observed `Rounds<BvConsensus>`; under `SyncPolicy`,
//!   `SemisyncPolicy` and `AsyncPolicy` driven by `RandomTimedAdversary`,
//!   over three seeds, with and without crashes (and so with and without
//!   deliveries dropped at crashed receivers), cutting before, at and
//!   after `2d`. Each row holds the [`TrafficReport`] counters, the
//!   deliveries the vector clock saw, whether both observers' checks
//!   held, and FNV-1a digests of every process's vector clock and of the
//!   per-channel cut table.
//! * `EVENT_LOGS` — [`run_policy`] with the event log kept, at n ≥ 20:
//!   each row digests the whole trace (the event log in order, then the
//!   decision, crash and step maps, the delivery count and the end time),
//!   so it pins the order in which the event queue pops its events.
//!
//! The digest is 64-bit FNV-1a over an explicit little-endian byte
//! encoding, so it does not depend on `std::hash` or on the toolchain.
//!
//! Regenerate the tables, only when the scheduler's output is meant to
//! change, with
//!
//! ```text
//! cargo test --release --test traffic_digest -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `TRAFFIC` and `EVENT_LOGS`.

use std::collections::{BTreeMap, BTreeSet};

use pseudosphere::core::ProcessId;
use pseudosphere::protocols::{
    BvConsensus, ChandyLamportObserver, Rounds, TimedKSetFlood, VectorClockObserver,
};
use pseudosphere::runtime::{
    run_policy, traffic_run, traffic_run_protocol, AsyncPolicy, MultiObserver, PolicyRun,
    RandomTimedAdversary, SchedObserver, SemisyncPolicy, StepGossip, SyncPolicy, TimedEvent,
    TimedParams, TimedProtocol, TimedTrace, TimingPolicy, TrafficReport,
};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// The timing windows every run uses: `c1 = 1`, `c2 = 2`, `d = 4`
/// (the `psph traffic` defaults).
const TIMING: (u64, u64, u64) = (1, 2, 4);

/// Horizon of every run (the `psph traffic` default).
const HORIZON: u64 = 10_000_000;

const POLICIES: [&str; 3] = ["sync", "semisync", "async"];

const SEEDS: [u64; 3] = [1, 7, 42];

/// Cuts before, at and after `2d`.
const CUTS: [u64; 3] = [3, 2 * TIMING.2, 5 * TIMING.2];

/// Runs `f` under the named policy, driven by a seeded random adversary
/// that crashes the `crashes` highest-numbered processes at
/// `5, 12, 19, …` (the `psph traffic --crashes` schedule).
fn with_policy<T>(
    policy: &str,
    seed: u64,
    n: usize,
    crashes: usize,
    f: impl FnOnce(&mut dyn TimingPolicy) -> T,
) -> T {
    let crash_map: BTreeMap<ProcessId, u64> = (0..crashes)
        .map(|i| (ProcessId((n - 1 - i) as u32), 5 + 7 * i as u64))
        .collect();
    let mut adversary = RandomTimedAdversary::new(seed, crash_map);
    let (c1, c2, d) = TIMING;
    let params = TimedParams::new(c1, c2, d);
    match policy {
        "sync" => f(&mut SyncPolicy::new(&mut adversary)),
        "semisync" => f(&mut SemisyncPolicy::new(&mut adversary, params)),
        _ => f(&mut AsyncPolicy::new(&mut adversary, params)),
    }
}

/// The workload of a [`TRAFFIC`] row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// [`traffic_run`]: no observers.
    Gossip,
    /// `StepGossip` through [`traffic_run_protocol`] with observers.
    ObservedGossip,
    /// Observed `TimedKSetFlood::optimal(crashes, 1)`, inputs `0..n`.
    Flood,
    /// Observed `Rounds<BvConsensus>` with `rounds_needed(crashes)`,
    /// inputs alternating `true, false, …`.
    Bv,
}

/// One traffic run: workload, policy, seed, size, crash count, message
/// target and cut (unused by unobserved runs).
#[derive(Clone, Copy, Debug)]
struct Case {
    workload: Workload,
    policy: &'static str,
    seed: u64,
    n: usize,
    crashes: usize,
    messages: u64,
    cut: u64,
}

impl Case {
    fn name(&self) -> String {
        let Case {
            workload,
            policy,
            seed,
            n,
            crashes,
            messages,
            cut,
        } = *self;
        let kind = match workload {
            Workload::Gossip => "gossip",
            Workload::ObservedGossip => "observed-gossip",
            Workload::Flood => "flood",
            Workload::Bv => "bv",
        };
        let mut name = format!("{kind}/{policy}/n{n}/c{crashes}/m{messages}/s{seed}");
        if workload != Workload::Gossip {
            name.push_str(&format!("/cut{cut}"));
        }
        name
    }

    fn run(&self) -> Row {
        let Case {
            workload,
            policy,
            seed,
            n,
            crashes,
            messages,
            ..
        } = *self;
        match workload {
            Workload::Gossip => {
                let report = with_policy(policy, seed, n, crashes, |pol| {
                    traffic_run(n, messages, pol, HORIZON)
                });
                Row::unobserved(&report)
            }
            Workload::ObservedGossip => observed(&StepGossip, &vec![0u8; n], self),
            Workload::Flood => {
                let inputs: Vec<u64> = (0..n as u64).collect();
                observed(&TimedKSetFlood::optimal(crashes, 1), &inputs, self)
            }
            Workload::Bv => {
                let proto = Rounds::new(BvConsensus::new(), BvConsensus::rounds_needed(crashes));
                let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
                observed(&proto, &inputs, self)
            }
        }
    }
}

/// Runs `proto` as the traffic workload of `case` with a vector-clock
/// observer and a Chandy–Lamport observer cutting at `case.cut`.
fn observed<P: TimedProtocol>(proto: &P, inputs: &[P::Input], case: &Case) -> Row {
    let mut vc = VectorClockObserver::new();
    let mut cl = ChandyLamportObserver::new(case.cut);
    let report = with_policy(case.policy, case.seed, case.n, case.crashes, |pol| {
        let mut multi = MultiObserver {
            observers: vec![&mut vc, &mut cl],
        };
        let observer: &mut dyn SchedObserver = &mut multi;
        traffic_run_protocol(proto, inputs, case.messages, pol, HORIZON, Some(observer))
    });
    let conserved = cl.finalize();
    let mut clocks = Fnv::new();
    for p in 0..case.n as u32 {
        let clock = vc.clock(ProcessId(p));
        clocks.u64(clock.len() as u64);
        for (q, c) in &clock {
            clocks.u32(q.0);
            clocks.u64(*c);
        }
    }
    let mut cuts = Fnv::new();
    cuts.u64(cl.cuts().len() as u64);
    for ((src, dst), cut) in cl.cuts() {
        cuts.u32(src.0);
        cuts.u32(dst.0);
        cuts.u64(cut.sent_before);
        cuts.u64(cut.delivered_before);
        cuts.u64(cut.dropped_before);
        cuts.u64(cut.in_flight);
    }
    Row {
        counters: counters(&report),
        clocked: vc.deliveries(),
        consistent: vc.consistent(),
        conserved,
        clocks: clocks.0,
        cuts: cuts.0,
    }
}

/// The [`TrafficReport`] counters: delivered, dropped, steps, events,
/// crashes, end time.
fn counters(r: &TrafficReport) -> [u64; 6] {
    assert!(r.invariants_ok);
    [
        r.delivered,
        r.dropped,
        r.steps,
        r.events,
        r.crashes,
        r.end_time,
    ]
}

/// What one [`TRAFFIC`] row records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    counters: [u64; 6],
    clocked: u64,
    consistent: bool,
    conserved: bool,
    clocks: u64,
    cuts: u64,
}

impl Row {
    fn unobserved(report: &TrafficReport) -> Row {
        Row {
            counters: counters(report),
            clocked: 0,
            consistent: true,
            conserved: true,
            clocks: 0,
            cuts: 0,
        }
    }
}

/// The traffic grid, in table order: for each workload and size, every
/// policy, seed and (observed workloads) cut.
fn grid() -> Vec<Case> {
    // (workload, n, crashes, message target, cuts)
    let sizes: [(Workload, usize, usize, u64, &[u64]); 12] = [
        (Workload::Gossip, 20, 0, 20_000, &[0]),
        (Workload::Gossip, 60, 3, 100_000, &[0]),
        (Workload::Gossip, 1000, 3, 300_000, &[0]),
        (Workload::ObservedGossip, 12, 0, 4_000, &CUTS),
        (Workload::ObservedGossip, 24, 2, 10_000, &CUTS),
        (Workload::ObservedGossip, 100, 3, 50_000, &[2 * TIMING.2]),
        (Workload::Flood, 20, 0, 200_000, &CUTS),
        (Workload::Flood, 50, 3, 200_000, &CUTS),
        (Workload::Flood, 100, 3, 200_000, &[2 * TIMING.2]),
        (Workload::Bv, 20, 0, 200_000, &CUTS),
        (Workload::Bv, 40, 3, 200_000, &CUTS),
        (Workload::Bv, 100, 3, 200_000, &[2 * TIMING.2]),
    ];
    let mut out = Vec::new();
    for (workload, n, crashes, messages, cuts) in sizes {
        for policy in POLICIES {
            for seed in SEEDS {
                for &cut in cuts {
                    out.push(Case {
                        workload,
                        policy,
                        seed,
                        n,
                        crashes,
                        messages,
                        cut,
                    });
                }
            }
        }
    }
    out
}

/// Recorded rows: name, the [`TrafficReport`] counters (delivered,
/// dropped, steps, events, crashes, end time), deliveries clocked, vector
/// clocks consistent, snapshot conserved, clock digest, cut digest. One
/// row per line, as the generator prints them.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const TRAFFIC: &[(&str, [u64; 6], u64, bool, bool, u64, u64)] = &[
    ("gossip/sync/n20/c0/m20000/s1", [20000, 0, 1060, 21060, 0, 54], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/sync/n20/c0/m20000/s7", [20000, 0, 1060, 21060, 0, 54], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/sync/n20/c0/m20000/s42", [20000, 0, 1060, 21060, 0, 54], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n20/c0/m20000/s1", [20000, 0, 1081, 21081, 0, 82], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n20/c0/m20000/s7", [20000, 0, 1074, 21074, 0, 81], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n20/c0/m20000/s42", [20000, 0, 1079, 21079, 0, 81], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n20/c0/m20000/s1", [20000, 0, 1081, 21081, 0, 82], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n20/c0/m20000/s7", [20000, 0, 1074, 21074, 0, 81], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n20/c0/m20000/s42", [20000, 0, 1079, 21079, 0, 81], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/sync/n60/c3/m100000/s1", [100000, 3298, 1800, 101800, 3, 32], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/sync/n60/c3/m100000/s7", [100000, 3298, 1800, 101800, 3, 32], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/sync/n60/c3/m100000/s42", [100000, 3298, 1800, 101800, 3, 32], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n60/c3/m100000/s1", [100000, 4123, 1851, 101851, 3, 49], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n60/c3/m100000/s7", [100000, 4125, 1846, 101846, 3, 49], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n60/c3/m100000/s42", [100000, 4029, 1845, 101845, 3, 49], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n60/c3/m100000/s1", [100000, 4123, 1851, 101851, 3, 49], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n60/c3/m100000/s7", [100000, 4125, 1846, 101846, 3, 49], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n60/c3/m100000/s42", [100000, 4029, 1845, 101845, 3, 49], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/sync/n1000/c3/m300000/s1", [300000, 0, 1000, 301000, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/sync/n1000/c3/m300000/s7", [300000, 0, 1000, 301000, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/sync/n1000/c3/m300000/s42", [300000, 0, 1000, 301000, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n1000/c3/m300000/s1", [300000, 0, 1037, 301037, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n1000/c3/m300000/s7", [300000, 0, 991, 300991, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/semisync/n1000/c3/m300000/s42", [300000, 0, 988, 300988, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n1000/c3/m300000/s1", [300000, 0, 1037, 301037, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n1000/c3/m300000/s7", [300000, 0, 991, 300991, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("gossip/async/n1000/c3/m300000/s42", [300000, 0, 988, 300988, 0, 2], 0, true, true, 0x0000000000000000, 0x0000000000000000),
    ("observed-gossip/sync/n12/c0/m4000/s1/cut3", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0xd00af181f02ec281),
    ("observed-gossip/sync/n12/c0/m4000/s1/cut8", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0x72469cd12a739bc1),
    ("observed-gossip/sync/n12/c0/m4000/s1/cut20", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0x7ce8dd71c7e839c1),
    ("observed-gossip/sync/n12/c0/m4000/s7/cut3", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0xd00af181f02ec281),
    ("observed-gossip/sync/n12/c0/m4000/s7/cut8", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0x72469cd12a739bc1),
    ("observed-gossip/sync/n12/c0/m4000/s7/cut20", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0x7ce8dd71c7e839c1),
    ("observed-gossip/sync/n12/c0/m4000/s42/cut3", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0xd00af181f02ec281),
    ("observed-gossip/sync/n12/c0/m4000/s42/cut8", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0x72469cd12a739bc1),
    ("observed-gossip/sync/n12/c0/m4000/s42/cut20", [4000, 0, 372, 4372, 0, 32], 4000, true, true, 0x127386f5ae9e21b1, 0x7ce8dd71c7e839c1),
    ("observed-gossip/semisync/n12/c0/m4000/s1/cut3", [4000, 0, 382, 4382, 0, 49], 4000, true, true, 0x4c4c04a3e98d283e, 0x67f9882737a891c1),
    ("observed-gossip/semisync/n12/c0/m4000/s1/cut8", [4000, 0, 382, 4382, 0, 49], 4000, true, true, 0x4c4c04a3e98d283e, 0xb5ff7beb27176501),
    ("observed-gossip/semisync/n12/c0/m4000/s1/cut20", [4000, 0, 382, 4382, 0, 49], 4000, true, true, 0x4c4c04a3e98d283e, 0x63ab8abeb1e25d27),
    ("observed-gossip/semisync/n12/c0/m4000/s7/cut3", [4000, 0, 384, 4384, 0, 50], 4000, true, true, 0x2eacd41b544f5084, 0xc70e9bd86f3096e3),
    ("observed-gossip/semisync/n12/c0/m4000/s7/cut8", [4000, 0, 384, 4384, 0, 50], 4000, true, true, 0x2eacd41b544f5084, 0xf1aa5088c01b9f65),
    ("observed-gossip/semisync/n12/c0/m4000/s7/cut20", [4000, 0, 384, 4384, 0, 50], 4000, true, true, 0x2eacd41b544f5084, 0x3a1e1455fe81de45),
    ("observed-gossip/semisync/n12/c0/m4000/s42/cut3", [4000, 0, 378, 4378, 0, 49], 4000, true, true, 0x8cbd2b5c467d8716, 0x2a562e58151b1623),
    ("observed-gossip/semisync/n12/c0/m4000/s42/cut8", [4000, 0, 378, 4378, 0, 49], 4000, true, true, 0x8cbd2b5c467d8716, 0xe80fe25789a9bcc1),
    ("observed-gossip/semisync/n12/c0/m4000/s42/cut20", [4000, 0, 378, 4378, 0, 49], 4000, true, true, 0x8cbd2b5c467d8716, 0xa434019376acbc43),
    ("observed-gossip/async/n12/c0/m4000/s1/cut3", [4000, 0, 382, 4382, 0, 49], 4000, true, true, 0x4c4c04a3e98d283e, 0x67f9882737a891c1),
    ("observed-gossip/async/n12/c0/m4000/s1/cut8", [4000, 0, 382, 4382, 0, 49], 4000, true, true, 0x4c4c04a3e98d283e, 0xb5ff7beb27176501),
    ("observed-gossip/async/n12/c0/m4000/s1/cut20", [4000, 0, 382, 4382, 0, 49], 4000, true, true, 0x4c4c04a3e98d283e, 0x63ab8abeb1e25d27),
    ("observed-gossip/async/n12/c0/m4000/s7/cut3", [4000, 0, 384, 4384, 0, 50], 4000, true, true, 0x2eacd41b544f5084, 0xc70e9bd86f3096e3),
    ("observed-gossip/async/n12/c0/m4000/s7/cut8", [4000, 0, 384, 4384, 0, 50], 4000, true, true, 0x2eacd41b544f5084, 0xf1aa5088c01b9f65),
    ("observed-gossip/async/n12/c0/m4000/s7/cut20", [4000, 0, 384, 4384, 0, 50], 4000, true, true, 0x2eacd41b544f5084, 0x3a1e1455fe81de45),
    ("observed-gossip/async/n12/c0/m4000/s42/cut3", [4000, 0, 378, 4378, 0, 49], 4000, true, true, 0x8cbd2b5c467d8716, 0x2a562e58151b1623),
    ("observed-gossip/async/n12/c0/m4000/s42/cut8", [4000, 0, 378, 4378, 0, 49], 4000, true, true, 0x8cbd2b5c467d8716, 0xe80fe25789a9bcc1),
    ("observed-gossip/async/n12/c0/m4000/s42/cut20", [4000, 0, 378, 4378, 0, 49], 4000, true, true, 0x8cbd2b5c467d8716, 0xa434019376acbc43),
    ("observed-gossip/sync/n24/c2/m10000/s1/cut3", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x3e2597a203c27d77),
    ("observed-gossip/sync/n24/c2/m10000/s1/cut8", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x9d65dd9f2adef297),
    ("observed-gossip/sync/n24/c2/m10000/s1/cut20", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x45905b7aa8e2f33f),
    ("observed-gossip/sync/n24/c2/m10000/s7/cut3", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x3e2597a203c27d77),
    ("observed-gossip/sync/n24/c2/m10000/s7/cut8", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x9d65dd9f2adef297),
    ("observed-gossip/sync/n24/c2/m10000/s7/cut20", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x45905b7aa8e2f33f),
    ("observed-gossip/sync/n24/c2/m10000/s42/cut3", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x3e2597a203c27d77),
    ("observed-gossip/sync/n24/c2/m10000/s42/cut8", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x9d65dd9f2adef297),
    ("observed-gossip/sync/n24/c2/m10000/s42/cut20", [10000, 565, 477, 10477, 2, 22], 10000, true, true, 0x16ebe8c3cd0e8efc, 0x45905b7aa8e2f33f),
    ("observed-gossip/semisync/n24/c2/m10000/s1/cut3", [10000, 740, 498, 10498, 2, 34], 10000, true, true, 0x25ab404cd3ca4e95, 0x8fa8b41fca73ca75),
    ("observed-gossip/semisync/n24/c2/m10000/s1/cut8", [10000, 740, 498, 10498, 2, 34], 10000, true, true, 0x25ab404cd3ca4e95, 0xbda912dad044aab3),
    ("observed-gossip/semisync/n24/c2/m10000/s1/cut20", [10000, 740, 498, 10498, 2, 34], 10000, true, true, 0x25ab404cd3ca4e95, 0xab73da59da611df3),
    ("observed-gossip/semisync/n24/c2/m10000/s7/cut3", [10000, 712, 489, 10489, 2, 34], 10000, true, true, 0x5d0080179b3d96e8, 0xa1e5b44a0e9ba175),
    ("observed-gossip/semisync/n24/c2/m10000/s7/cut8", [10000, 712, 489, 10489, 2, 34], 10000, true, true, 0x5d0080179b3d96e8, 0x020948ed36708797),
    ("observed-gossip/semisync/n24/c2/m10000/s7/cut20", [10000, 712, 489, 10489, 2, 34], 10000, true, true, 0x5d0080179b3d96e8, 0x6dd826d6615a1119),
    ("observed-gossip/semisync/n24/c2/m10000/s42/cut3", [10000, 762, 502, 10502, 2, 35], 10000, true, true, 0x770397995e733bbb, 0x0515e630dca0dbb5),
    ("observed-gossip/semisync/n24/c2/m10000/s42/cut8", [10000, 762, 502, 10502, 2, 35], 10000, true, true, 0x770397995e733bbb, 0x0373b69afa32f231),
    ("observed-gossip/semisync/n24/c2/m10000/s42/cut20", [10000, 762, 502, 10502, 2, 35], 10000, true, true, 0x770397995e733bbb, 0x4326f6fd7705f587),
    ("observed-gossip/async/n24/c2/m10000/s1/cut3", [10000, 740, 498, 10498, 2, 34], 10000, true, true, 0x25ab404cd3ca4e95, 0x8fa8b41fca73ca75),
    ("observed-gossip/async/n24/c2/m10000/s1/cut8", [10000, 740, 498, 10498, 2, 34], 10000, true, true, 0x25ab404cd3ca4e95, 0xbda912dad044aab3),
    ("observed-gossip/async/n24/c2/m10000/s1/cut20", [10000, 740, 498, 10498, 2, 34], 10000, true, true, 0x25ab404cd3ca4e95, 0xab73da59da611df3),
    ("observed-gossip/async/n24/c2/m10000/s7/cut3", [10000, 712, 489, 10489, 2, 34], 10000, true, true, 0x5d0080179b3d96e8, 0xa1e5b44a0e9ba175),
    ("observed-gossip/async/n24/c2/m10000/s7/cut8", [10000, 712, 489, 10489, 2, 34], 10000, true, true, 0x5d0080179b3d96e8, 0x020948ed36708797),
    ("observed-gossip/async/n24/c2/m10000/s7/cut20", [10000, 712, 489, 10489, 2, 34], 10000, true, true, 0x5d0080179b3d96e8, 0x6dd826d6615a1119),
    ("observed-gossip/async/n24/c2/m10000/s42/cut3", [10000, 762, 502, 10502, 2, 35], 10000, true, true, 0x770397995e733bbb, 0x0515e630dca0dbb5),
    ("observed-gossip/async/n24/c2/m10000/s42/cut8", [10000, 762, 502, 10502, 2, 35], 10000, true, true, 0x770397995e733bbb, 0x0373b69afa32f231),
    ("observed-gossip/async/n24/c2/m10000/s42/cut20", [10000, 762, 502, 10502, 2, 35], 10000, true, true, 0x770397995e733bbb, 0x4326f6fd7705f587),
    ("observed-gossip/sync/n100/c3/m50000/s1/cut8", [50000, 106, 598, 50598, 1, 7], 50000, true, true, 0xe86af00f522daa7b, 0xe79bf0e31401d2ff),
    ("observed-gossip/sync/n100/c3/m50000/s7/cut8", [50000, 106, 598, 50598, 1, 7], 50000, true, true, 0xe86af00f522daa7b, 0xe79bf0e31401d2ff),
    ("observed-gossip/sync/n100/c3/m50000/s42/cut8", [50000, 106, 598, 50598, 1, 7], 50000, true, true, 0xe86af00f522daa7b, 0xe79bf0e31401d2ff),
    ("observed-gossip/semisync/n100/c3/m50000/s1/cut8", [50000, 329, 655, 50655, 1, 11], 50000, true, true, 0xcaefcfd1e300da02, 0x0d4e46ade4eb799b),
    ("observed-gossip/semisync/n100/c3/m50000/s7/cut8", [50000, 352, 650, 50650, 1, 11], 50000, true, true, 0xd6ec65b8b44bf9cf, 0xc733cbb4e57fc19b),
    ("observed-gossip/semisync/n100/c3/m50000/s42/cut8", [50000, 371, 629, 50629, 1, 10], 50000, true, true, 0x7aa412e9c6bac038, 0x99868325ce1b9f3f),
    ("observed-gossip/async/n100/c3/m50000/s1/cut8", [50000, 329, 655, 50655, 1, 11], 50000, true, true, 0xcaefcfd1e300da02, 0x0d4e46ade4eb799b),
    ("observed-gossip/async/n100/c3/m50000/s7/cut8", [50000, 352, 650, 50650, 1, 11], 50000, true, true, 0xd6ec65b8b44bf9cf, 0xc733cbb4e57fc19b),
    ("observed-gossip/async/n100/c3/m50000/s42/cut8", [50000, 371, 629, 50629, 1, 10], 50000, true, true, 0x7aa412e9c6bac038, 0x99868325ce1b9f3f),
    ("flood/sync/n20/c0/m200000/s1/cut3", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/sync/n20/c0/m200000/s1/cut8", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/sync/n20/c0/m200000/s1/cut20", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/sync/n20/c0/m200000/s7/cut3", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/sync/n20/c0/m200000/s7/cut8", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/sync/n20/c0/m200000/s7/cut20", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/sync/n20/c0/m200000/s42/cut3", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/sync/n20/c0/m200000/s42/cut8", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/sync/n20/c0/m200000/s42/cut20", [0, 0, 20, 20, 0, 1], 0, true, true, 0x5599fb75c7d3be65, 0xcaa0e265ef19e51e),
    ("flood/semisync/n20/c0/m200000/s1/cut3", [380, 0, 80, 460, 0, 8], 380, true, true, 0x818269886138f3a7, 0x7077013fd538009e),
    ("flood/semisync/n20/c0/m200000/s1/cut8", [380, 0, 80, 460, 0, 8], 380, true, true, 0x818269886138f3a7, 0x7711e9725b8c951e),
    ("flood/semisync/n20/c0/m200000/s1/cut20", [380, 0, 80, 460, 0, 8], 380, true, true, 0x818269886138f3a7, 0x7711e9725b8c951e),
    ("flood/semisync/n20/c0/m200000/s7/cut3", [380, 0, 80, 460, 0, 8], 380, true, true, 0xcea4a8783dc68365, 0x1245a34ce1a3e91e),
    ("flood/semisync/n20/c0/m200000/s7/cut8", [380, 0, 80, 460, 0, 8], 380, true, true, 0xcea4a8783dc68365, 0x7711e9725b8c951e),
    ("flood/semisync/n20/c0/m200000/s7/cut20", [380, 0, 80, 460, 0, 8], 380, true, true, 0xcea4a8783dc68365, 0x7711e9725b8c951e),
    ("flood/semisync/n20/c0/m200000/s42/cut3", [380, 0, 80, 460, 0, 8], 380, true, true, 0x243bd680efc59792, 0x0bf5d8771f40005e),
    ("flood/semisync/n20/c0/m200000/s42/cut8", [380, 0, 80, 460, 0, 8], 380, true, true, 0x243bd680efc59792, 0x7711e9725b8c951e),
    ("flood/semisync/n20/c0/m200000/s42/cut20", [380, 0, 80, 460, 0, 8], 380, true, true, 0x243bd680efc59792, 0x7711e9725b8c951e),
    ("flood/async/n20/c0/m200000/s1/cut3", [380, 0, 80, 460, 0, 8], 380, true, true, 0x818269886138f3a7, 0x7077013fd538009e),
    ("flood/async/n20/c0/m200000/s1/cut8", [380, 0, 80, 460, 0, 8], 380, true, true, 0x818269886138f3a7, 0x7711e9725b8c951e),
    ("flood/async/n20/c0/m200000/s1/cut20", [380, 0, 80, 460, 0, 8], 380, true, true, 0x818269886138f3a7, 0x7711e9725b8c951e),
    ("flood/async/n20/c0/m200000/s7/cut3", [380, 0, 80, 460, 0, 8], 380, true, true, 0xcea4a8783dc68365, 0x1245a34ce1a3e91e),
    ("flood/async/n20/c0/m200000/s7/cut8", [380, 0, 80, 460, 0, 8], 380, true, true, 0xcea4a8783dc68365, 0x7711e9725b8c951e),
    ("flood/async/n20/c0/m200000/s7/cut20", [380, 0, 80, 460, 0, 8], 380, true, true, 0xcea4a8783dc68365, 0x7711e9725b8c951e),
    ("flood/async/n20/c0/m200000/s42/cut3", [380, 0, 80, 460, 0, 8], 380, true, true, 0x243bd680efc59792, 0x0bf5d8771f40005e),
    ("flood/async/n20/c0/m200000/s42/cut8", [380, 0, 80, 460, 0, 8], 380, true, true, 0x243bd680efc59792, 0x7711e9725b8c951e),
    ("flood/async/n20/c0/m200000/s42/cut20", [380, 0, 80, 460, 0, 8], 380, true, true, 0x243bd680efc59792, 0x7711e9725b8c951e),
    ("flood/sync/n50/c3/m200000/s1/cut3", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0x1175039b96c48ba4),
    ("flood/sync/n50/c3/m200000/s1/cut8", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0xf67832b94b879724),
    ("flood/sync/n50/c3/m200000/s1/cut20", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0xf67832b94b879724),
    ("flood/sync/n50/c3/m200000/s7/cut3", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0x1175039b96c48ba4),
    ("flood/sync/n50/c3/m200000/s7/cut8", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0xf67832b94b879724),
    ("flood/sync/n50/c3/m200000/s7/cut20", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0xf67832b94b879724),
    ("flood/sync/n50/c3/m200000/s42/cut3", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0x1175039b96c48ba4),
    ("flood/sync/n50/c3/m200000/s42/cut8", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0xf67832b94b879724),
    ("flood/sync/n50/c3/m200000/s42/cut20", [7350, 0, 200, 7550, 0, 4], 7350, true, true, 0x208c1200b6f2f139, 0xf67832b94b879724),
    ("flood/semisync/n50/c3/m200000/s1/cut3", [9220, 286, 774, 9994, 3, 28], 9220, true, true, 0xaf4a665070add4cc, 0x8bc251aae403b464),
    ("flood/semisync/n50/c3/m200000/s1/cut8", [9220, 286, 774, 9994, 3, 28], 9220, true, true, 0xaf4a665070add4cc, 0x51cb3f56a12d63e6),
    ("flood/semisync/n50/c3/m200000/s1/cut20", [9220, 286, 774, 9994, 3, 28], 9220, true, true, 0xaf4a665070add4cc, 0xc888e3b149680f44),
    ("flood/semisync/n50/c3/m200000/s7/cut3", [9269, 286, 775, 10044, 3, 29], 9269, true, true, 0x4eedde80d32925d7, 0x6f05acff58ecd6a4),
    ("flood/semisync/n50/c3/m200000/s7/cut8", [9269, 286, 775, 10044, 3, 29], 9269, true, true, 0x4eedde80d32925d7, 0x9457c96f5e998ce6),
    ("flood/semisync/n50/c3/m200000/s7/cut20", [9269, 286, 775, 10044, 3, 29], 9269, true, true, 0x4eedde80d32925d7, 0xd9b2554c54e81202),
    ("flood/semisync/n50/c3/m200000/s42/cut3", [9227, 279, 772, 9999, 3, 28], 9227, true, true, 0x8cd71d9e200d89a3, 0x28386bbc99949be4),
    ("flood/semisync/n50/c3/m200000/s42/cut8", [9227, 279, 772, 9999, 3, 28], 9227, true, true, 0x8cd71d9e200d89a3, 0xcc86a9013279a7e6),
    ("flood/semisync/n50/c3/m200000/s42/cut20", [9227, 279, 772, 9999, 3, 28], 9227, true, true, 0x8cd71d9e200d89a3, 0x8fbc39debc38eea0),
    ("flood/async/n50/c3/m200000/s1/cut3", [9220, 286, 774, 9994, 3, 28], 9220, true, true, 0xaf4a665070add4cc, 0x8bc251aae403b464),
    ("flood/async/n50/c3/m200000/s1/cut8", [9220, 286, 774, 9994, 3, 28], 9220, true, true, 0xaf4a665070add4cc, 0x51cb3f56a12d63e6),
    ("flood/async/n50/c3/m200000/s1/cut20", [9220, 286, 774, 9994, 3, 28], 9220, true, true, 0xaf4a665070add4cc, 0xc888e3b149680f44),
    ("flood/async/n50/c3/m200000/s7/cut3", [9269, 286, 775, 10044, 3, 29], 9269, true, true, 0x4eedde80d32925d7, 0x6f05acff58ecd6a4),
    ("flood/async/n50/c3/m200000/s7/cut8", [9269, 286, 775, 10044, 3, 29], 9269, true, true, 0x4eedde80d32925d7, 0x9457c96f5e998ce6),
    ("flood/async/n50/c3/m200000/s7/cut20", [9269, 286, 775, 10044, 3, 29], 9269, true, true, 0x4eedde80d32925d7, 0xd9b2554c54e81202),
    ("flood/async/n50/c3/m200000/s42/cut3", [9227, 279, 772, 9999, 3, 28], 9227, true, true, 0x8cd71d9e200d89a3, 0x28386bbc99949be4),
    ("flood/async/n50/c3/m200000/s42/cut8", [9227, 279, 772, 9999, 3, 28], 9227, true, true, 0x8cd71d9e200d89a3, 0xcc86a9013279a7e6),
    ("flood/async/n50/c3/m200000/s42/cut20", [9227, 279, 772, 9999, 3, 28], 9227, true, true, 0x8cd71d9e200d89a3, 0x8fbc39debc38eea0),
    ("flood/sync/n100/c3/m200000/s1/cut8", [29700, 0, 400, 30100, 0, 4], 29700, true, true, 0x22c12f9e3b2df711, 0xb1aa3b33057f24bf),
    ("flood/sync/n100/c3/m200000/s7/cut8", [29700, 0, 400, 30100, 0, 4], 29700, true, true, 0x22c12f9e3b2df711, 0xb1aa3b33057f24bf),
    ("flood/sync/n100/c3/m200000/s42/cut8", [29700, 0, 400, 30100, 0, 4], 29700, true, true, 0x22c12f9e3b2df711, 0xb1aa3b33057f24bf),
    ("flood/semisync/n100/c3/m200000/s1/cut8", [38425, 581, 1574, 39999, 3, 27], 38425, true, true, 0xb373865c48f18f3c, 0x30d5f74d57a1c65d),
    ("flood/semisync/n100/c3/m200000/s7/cut8", [38451, 555, 1573, 40024, 3, 28], 38451, true, true, 0xe93815c32ff18d30, 0x8573c812a5a14b9d),
    ("flood/semisync/n100/c3/m200000/s42/cut8", [38414, 592, 1572, 39986, 3, 28], 38414, true, true, 0xe564ed01a37f3c5d, 0x472717dbf9c8287f),
    ("flood/async/n100/c3/m200000/s1/cut8", [38425, 581, 1574, 39999, 3, 27], 38425, true, true, 0xb373865c48f18f3c, 0x30d5f74d57a1c65d),
    ("flood/async/n100/c3/m200000/s7/cut8", [38451, 555, 1573, 40024, 3, 28], 38451, true, true, 0xe93815c32ff18d30, 0x8573c812a5a14b9d),
    ("flood/async/n100/c3/m200000/s42/cut8", [38414, 592, 1572, 39986, 3, 28], 38414, true, true, 0xe564ed01a37f3c5d, 0x472717dbf9c8287f),
    ("bv/sync/n20/c0/m200000/s1/cut3", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa39dab1164f91dde),
    ("bv/sync/n20/c0/m200000/s1/cut8", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa599e0e358aa4f1e),
    ("bv/sync/n20/c0/m200000/s1/cut20", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa599e0e358aa4f1e),
    ("bv/sync/n20/c0/m200000/s7/cut3", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa39dab1164f91dde),
    ("bv/sync/n20/c0/m200000/s7/cut8", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa599e0e358aa4f1e),
    ("bv/sync/n20/c0/m200000/s7/cut20", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa599e0e358aa4f1e),
    ("bv/sync/n20/c0/m200000/s42/cut3", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa39dab1164f91dde),
    ("bv/sync/n20/c0/m200000/s42/cut8", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa599e0e358aa4f1e),
    ("bv/sync/n20/c0/m200000/s42/cut20", [1520, 0, 100, 1620, 0, 5], 1520, true, true, 0x0767966687ab9805, 0xa599e0e358aa4f1e),
    ("bv/semisync/n20/c0/m200000/s1/cut3", [1520, 0, 340, 1860, 0, 28], 1520, true, true, 0xb94ac9a727b5b659, 0x7077013fd538009e),
    ("bv/semisync/n20/c0/m200000/s1/cut8", [1520, 0, 340, 1860, 0, 28], 1520, true, true, 0xb94ac9a727b5b659, 0xa5b46772c8d4e35e),
    ("bv/semisync/n20/c0/m200000/s1/cut20", [1520, 0, 340, 1860, 0, 28], 1520, true, true, 0xb94ac9a727b5b659, 0xce24a6cb9d015f58),
    ("bv/semisync/n20/c0/m200000/s7/cut3", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0x8ffd958d636eaf5c, 0x1245a34ce1a3e91e),
    ("bv/semisync/n20/c0/m200000/s7/cut8", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0x8ffd958d636eaf5c, 0xfc0e4317df1712fe),
    ("bv/semisync/n20/c0/m200000/s7/cut20", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0x8ffd958d636eaf5c, 0xa7cc640181cae698),
    ("bv/semisync/n20/c0/m200000/s42/cut3", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0xa27c4463413a2f1e, 0x0bf5d8771f40005e),
    ("bv/semisync/n20/c0/m200000/s42/cut8", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0xa27c4463413a2f1e, 0x437c8318c6a77f3e),
    ("bv/semisync/n20/c0/m200000/s42/cut20", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0xa27c4463413a2f1e, 0x8e2a6777a25d4e1e),
    ("bv/async/n20/c0/m200000/s1/cut3", [1520, 0, 340, 1860, 0, 28], 1520, true, true, 0xb94ac9a727b5b659, 0x7077013fd538009e),
    ("bv/async/n20/c0/m200000/s1/cut8", [1520, 0, 340, 1860, 0, 28], 1520, true, true, 0xb94ac9a727b5b659, 0xa5b46772c8d4e35e),
    ("bv/async/n20/c0/m200000/s1/cut20", [1520, 0, 340, 1860, 0, 28], 1520, true, true, 0xb94ac9a727b5b659, 0xce24a6cb9d015f58),
    ("bv/async/n20/c0/m200000/s7/cut3", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0x8ffd958d636eaf5c, 0x1245a34ce1a3e91e),
    ("bv/async/n20/c0/m200000/s7/cut8", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0x8ffd958d636eaf5c, 0xfc0e4317df1712fe),
    ("bv/async/n20/c0/m200000/s7/cut20", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0x8ffd958d636eaf5c, 0xa7cc640181cae698),
    ("bv/async/n20/c0/m200000/s42/cut3", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0xa27c4463413a2f1e, 0x0bf5d8771f40005e),
    ("bv/async/n20/c0/m200000/s42/cut8", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0xa27c4463413a2f1e, 0x437c8318c6a77f3e),
    ("bv/async/n20/c0/m200000/s42/cut20", [1520, 0, 340, 1860, 0, 30], 1520, true, true, 0xa27c4463413a2f1e, 0x8e2a6777a25d4e1e),
    ("bv/sync/n40/c3/m200000/s1/cut3", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x15ebcd06a4ef71bb),
    ("bv/sync/n40/c3/m200000/s1/cut8", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x7cd5318023d76c3b),
    ("bv/sync/n40/c3/m200000/s1/cut20", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x7cd5318023d76c3b),
    ("bv/sync/n40/c3/m200000/s7/cut3", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x15ebcd06a4ef71bb),
    ("bv/sync/n40/c3/m200000/s7/cut8", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x7cd5318023d76c3b),
    ("bv/sync/n40/c3/m200000/s7/cut20", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x7cd5318023d76c3b),
    ("bv/sync/n40/c3/m200000/s42/cut3", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x15ebcd06a4ef71bb),
    ("bv/sync/n40/c3/m200000/s42/cut8", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x7cd5318023d76c3b),
    ("bv/sync/n40/c3/m200000/s42/cut20", [6240, 0, 199, 6439, 0, 5], 6240, true, true, 0xb669085b7a01a40b, 0x7cd5318023d76c3b),
    ("bv/semisync/n40/c3/m200000/s1/cut3", [5786, 220, 651, 6437, 3, 29], 5786, true, true, 0x394c90d4e04138b4, 0xf8cf5c00e235a53b),
    ("bv/semisync/n40/c3/m200000/s1/cut8", [5786, 220, 651, 6437, 3, 29], 5786, true, true, 0x394c90d4e04138b4, 0x2b7432fb0a01d0db),
    ("bv/semisync/n40/c3/m200000/s1/cut20", [5786, 220, 651, 6437, 3, 29], 5786, true, true, 0x394c90d4e04138b4, 0xc88bfd2bfff3473b),
    ("bv/semisync/n40/c3/m200000/s7/cut3", [5783, 223, 646, 6429, 3, 29], 5783, true, true, 0x9c32e6f99d89b79f, 0x80f3c054b00580fb),
    ("bv/semisync/n40/c3/m200000/s7/cut8", [5783, 223, 646, 6429, 3, 29], 5783, true, true, 0x9c32e6f99d89b79f, 0xe04eb03d0d8b5779),
    ("bv/semisync/n40/c3/m200000/s7/cut20", [5783, 223, 646, 6429, 3, 29], 5783, true, true, 0x9c32e6f99d89b79f, 0x3411411ead7e321d),
    ("bv/semisync/n40/c3/m200000/s42/cut3", [5824, 221, 652, 6476, 3, 31], 5824, true, true, 0x288a0451a9afbc76, 0x7cdd16d974dabe3b),
    ("bv/semisync/n40/c3/m200000/s42/cut8", [5824, 221, 652, 6476, 3, 31], 5824, true, true, 0x288a0451a9afbc76, 0x761998eacacdf479),
    ("bv/semisync/n40/c3/m200000/s42/cut20", [5824, 221, 652, 6476, 3, 31], 5824, true, true, 0x288a0451a9afbc76, 0xda88aaa112ccca3b),
    ("bv/async/n40/c3/m200000/s1/cut3", [5786, 220, 651, 6437, 3, 29], 5786, true, true, 0x394c90d4e04138b4, 0xf8cf5c00e235a53b),
    ("bv/async/n40/c3/m200000/s1/cut8", [5786, 220, 651, 6437, 3, 29], 5786, true, true, 0x394c90d4e04138b4, 0x2b7432fb0a01d0db),
    ("bv/async/n40/c3/m200000/s1/cut20", [5786, 220, 651, 6437, 3, 29], 5786, true, true, 0x394c90d4e04138b4, 0xc88bfd2bfff3473b),
    ("bv/async/n40/c3/m200000/s7/cut3", [5783, 223, 646, 6429, 3, 29], 5783, true, true, 0x9c32e6f99d89b79f, 0x80f3c054b00580fb),
    ("bv/async/n40/c3/m200000/s7/cut8", [5783, 223, 646, 6429, 3, 29], 5783, true, true, 0x9c32e6f99d89b79f, 0xe04eb03d0d8b5779),
    ("bv/async/n40/c3/m200000/s7/cut20", [5783, 223, 646, 6429, 3, 29], 5783, true, true, 0x9c32e6f99d89b79f, 0x3411411ead7e321d),
    ("bv/async/n40/c3/m200000/s42/cut3", [5824, 221, 652, 6476, 3, 31], 5824, true, true, 0x288a0451a9afbc76, 0x7cdd16d974dabe3b),
    ("bv/async/n40/c3/m200000/s42/cut8", [5824, 221, 652, 6476, 3, 31], 5824, true, true, 0x288a0451a9afbc76, 0x761998eacacdf479),
    ("bv/async/n40/c3/m200000/s42/cut20", [5824, 221, 652, 6476, 3, 31], 5824, true, true, 0x288a0451a9afbc76, 0xda88aaa112ccca3b),
    ("bv/sync/n100/c3/m200000/s1/cut8", [39600, 0, 499, 40099, 0, 5], 39600, true, true, 0xf525faf5775b6cff, 0xdde6f919a95e0fff),
    ("bv/sync/n100/c3/m200000/s7/cut8", [39600, 0, 499, 40099, 0, 5], 39600, true, true, 0xf525faf5775b6cff, 0xdde6f919a95e0fff),
    ("bv/sync/n100/c3/m200000/s42/cut8", [39600, 0, 499, 40099, 0, 5], 39600, true, true, 0xf525faf5775b6cff, 0xdde6f919a95e0fff),
    ("bv/semisync/n100/c3/m200000/s1/cut8", [38426, 580, 1671, 40097, 3, 30], 38426, true, true, 0xf0e3afbb1087c7c1, 0x30d5f74d57a1c65d),
    ("bv/semisync/n100/c3/m200000/s7/cut8", [38451, 555, 1670, 40121, 3, 31], 38451, true, true, 0xc8918c899a3e3736, 0x8573c812a5a14b9d),
    ("bv/semisync/n100/c3/m200000/s42/cut8", [38414, 592, 1669, 40083, 3, 32], 38414, true, true, 0x01820a2e72552afd, 0x472717dbf9c8287f),
    ("bv/async/n100/c3/m200000/s1/cut8", [38426, 580, 1671, 40097, 3, 30], 38426, true, true, 0xf0e3afbb1087c7c1, 0x30d5f74d57a1c65d),
    ("bv/async/n100/c3/m200000/s7/cut8", [38451, 555, 1670, 40121, 3, 31], 38451, true, true, 0xc8918c899a3e3736, 0x8573c812a5a14b9d),
    ("bv/async/n100/c3/m200000/s42/cut8", [38414, 592, 1669, 40083, 3, 32], 38414, true, true, 0x01820a2e72552afd, 0x472717dbf9c8287f),
];

/// One logged run: the protocol (`StepGossip` to a message target, or
/// `TimedKSetFlood` to its decisions), policy, seed, size and crashes.
#[derive(Clone, Copy, Debug)]
struct LogCase {
    flood: bool,
    policy: &'static str,
    seed: u64,
    n: usize,
    crashes: usize,
}

impl LogCase {
    fn name(&self) -> String {
        let kind = if self.flood { "flood" } else { "gossip" };
        format!(
            "{kind}/{}/n{}/c{}/s{}",
            self.policy, self.n, self.crashes, self.seed
        )
    }

    fn run(&self) -> (u64, u64) {
        let run = PolicyRun {
            max_time: HORIZON,
            stop_after_messages: (!self.flood).then_some(20_000),
            log_events: true,
        };
        let trace = with_policy(self.policy, self.seed, self.n, self.crashes, |pol| {
            if self.flood {
                let inputs: Vec<u64> = (0..self.n as u64).rev().collect();
                let proto = TimedKSetFlood::optimal(self.crashes, 1);
                run_policy(&proto, self.n, &inputs, pol, run)
            } else {
                run_policy(&StepGossip, self.n, &vec![0u8; self.n], pol, run)
            }
        });
        (trace.events().len() as u64, trace_digest(&trace))
    }
}

/// FNV-1a over the event log in order, then the decision, crash and
/// step maps, the delivery count and the end time.
fn trace_digest(trace: &TimedTrace<u64>) -> u64 {
    let mut h = Fnv::new();
    for e in trace.events() {
        let (tag, t, a, b) = match *e {
            TimedEvent::Step(t, p) => (0, t, p, p),
            TimedEvent::Deliver(t, src, dst) => (1, t, src, dst),
            TimedEvent::Decide(t, p) => (2, t, p, p),
            TimedEvent::Crash(t, p) => (3, t, p, p),
        };
        h.bytes(&[tag]);
        h.u64(t);
        h.u32(a.0);
        h.u32(b.0);
    }
    h.u64(trace.decisions().len() as u64);
    for (p, (t, v)) in trace.decisions() {
        h.u32(p.0);
        h.u64(*t);
        h.u64(*v);
    }
    h.u64(trace.crashes().len() as u64);
    for (p, t) in trace.crashes() {
        h.u32(p.0);
        h.u64(*t);
    }
    h.u64(trace.steps_taken().len() as u64);
    for (p, s) in trace.steps_taken() {
        h.u32(p.0);
        h.u64(*s);
    }
    h.u64(trace.messages_delivered());
    h.u64(trace.end_time());
    h.0
}

/// The logged grid: gossip and flood, every policy and seed, with and
/// without crashes.
fn log_grid() -> Vec<LogCase> {
    let mut out = Vec::new();
    for (flood, n, crashes) in [
        (false, 20, 0),
        (false, 32, 3),
        (false, 100, 3),
        (true, 24, 0),
        (true, 40, 3),
        (true, 100, 3),
    ] {
        for policy in POLICIES {
            for seed in SEEDS {
                out.push(LogCase {
                    flood,
                    policy,
                    seed,
                    n,
                    crashes,
                });
            }
        }
    }
    out
}

/// Recorded rows: name, logged events, trace digest.
const EVENT_LOGS: &[(&str, u64, u64)] = &[
    ("gossip/sync/n20/c0/s1", 21060, 0x02562461e545dc8d),
    ("gossip/sync/n20/c0/s7", 21060, 0x02562461e545dc8d),
    ("gossip/sync/n20/c0/s42", 21060, 0x02562461e545dc8d),
    ("gossip/semisync/n20/c0/s1", 21081, 0xe69ca6b0ca470f1b),
    ("gossip/semisync/n20/c0/s7", 21074, 0x0732982a0dc70a8b),
    ("gossip/semisync/n20/c0/s42", 21079, 0x3987be8794598021),
    ("gossip/async/n20/c0/s1", 21081, 0xe69ca6b0ca470f1b),
    ("gossip/async/n20/c0/s7", 21074, 0x0732982a0dc70a8b),
    ("gossip/async/n20/c0/s42", 21079, 0x3987be8794598021),
    ("gossip/sync/n32/c3/s1", 20703, 0xc35774d081a4a237),
    ("gossip/sync/n32/c3/s7", 20703, 0xc35774d081a4a237),
    ("gossip/sync/n32/c3/s42", 20703, 0xc35774d081a4a237),
    ("gossip/semisync/n32/c3/s1", 20730, 0x2dc525794aafd605),
    ("gossip/semisync/n32/c3/s7", 20722, 0xb1d9a044e5e005ed),
    ("gossip/semisync/n32/c3/s42", 20733, 0xe4e884d2053c26f0),
    ("gossip/async/n32/c3/s1", 20730, 0x2dc525794aafd605),
    ("gossip/async/n32/c3/s7", 20722, 0xb1d9a044e5e005ed),
    ("gossip/async/n32/c3/s42", 20733, 0xe4e884d2053c26f0),
    ("gossip/sync/n100/c3/s1", 20300, 0xa3319e81728bd320),
    ("gossip/sync/n100/c3/s7", 20300, 0xa3319e81728bd320),
    ("gossip/sync/n100/c3/s42", 20300, 0xa3319e81728bd320),
    ("gossip/semisync/n100/c3/s1", 20329, 0x2c1a9edf6d695476),
    ("gossip/semisync/n100/c3/s7", 20326, 0xef69804b4b9f1d94),
    ("gossip/semisync/n100/c3/s42", 20323, 0xb9fc25efaaacc3b7),
    ("gossip/async/n100/c3/s1", 20329, 0x2c1a9edf6d695476),
    ("gossip/async/n100/c3/s7", 20326, 0xef69804b4b9f1d94),
    ("gossip/async/n100/c3/s42", 20323, 0xb9fc25efaaacc3b7),
    ("flood/sync/n24/c0/s1", 48, 0x3f6d64a45811e424),
    ("flood/sync/n24/c0/s7", 48, 0x3f6d64a45811e424),
    ("flood/sync/n24/c0/s42", 48, 0x3f6d64a45811e424),
    ("flood/semisync/n24/c0/s1", 672, 0xe0d1af230d74eba6),
    ("flood/semisync/n24/c0/s7", 672, 0x3c7b39bbcb6e4e6e),
    ("flood/semisync/n24/c0/s42", 672, 0x1df4ce0f95f18f93),
    ("flood/async/n24/c0/s1", 672, 0xe0d1af230d74eba6),
    ("flood/async/n24/c0/s7", 672, 0x3c7b39bbcb6e4e6e),
    ("flood/async/n24/c0/s42", 672, 0x1df4ce0f95f18f93),
    ("flood/sync/n40/c3/s1", 4880, 0xca0985dd25c1afdb),
    ("flood/sync/n40/c3/s7", 4880, 0xca0985dd25c1afdb),
    ("flood/sync/n40/c3/s42", 4880, 0xca0985dd25c1afdb),
    ("flood/semisync/n40/c3/s1", 6440, 0x796631aaf80d354d),
    ("flood/semisync/n40/c3/s7", 6432, 0x4ff78a55965de0fa),
    ("flood/semisync/n40/c3/s42", 6480, 0x17f26a19320e1a55),
    ("flood/async/n40/c3/s1", 6440, 0x796631aaf80d354d),
    ("flood/async/n40/c3/s7", 6432, 0x4ff78a55965de0fa),
    ("flood/async/n40/c3/s42", 6480, 0x17f26a19320e1a55),
    ("flood/sync/n100/c3/s1", 30200, 0x811662338c533375),
    ("flood/sync/n100/c3/s7", 30200, 0x811662338c533375),
    ("flood/sync/n100/c3/s42", 30200, 0x811662338c533375),
    ("flood/semisync/n100/c3/s1", 40099, 0x2b4330e225f4ff01),
    ("flood/semisync/n100/c3/s7", 40124, 0xa3f06ae1a2051a29),
    ("flood/semisync/n100/c3/s42", 40086, 0x715993ba5a0b5b77),
    ("flood/async/n100/c3/s1", 40099, 0x2b4330e225f4ff01),
    ("flood/async/n100/c3/s7", 40124, 0xa3f06ae1a2051a29),
    ("flood/async/n100/c3/s42", 40086, 0x715993ba5a0b5b77),
];

/// Checks the rows of `TRAFFIC` whose workload is `workload`.
fn check_traffic(workload: Workload) {
    let mut failures = Vec::new();
    for case in grid().into_iter().filter(|c| c.workload == workload) {
        let name = case.name();
        let Some(&(_, counters, clocked, consistent, conserved, clocks, cuts)) =
            TRAFFIC.iter().find(|row| row.0 == name)
        else {
            failures.push(format!("{name}: no recorded row"));
            continue;
        };
        let expected = Row {
            counters,
            clocked,
            consistent,
            conserved,
            clocks,
            cuts,
        };
        let got = case.run();
        if got != expected {
            failures.push(format!("{name}: ran {got:?}, recorded {expected:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn tables_match_grids() {
    let names: Vec<String> = grid().iter().map(Case::name).collect();
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "grid names must be unique");
    let recorded: Vec<&str> = TRAFFIC.iter().map(|row| row.0).collect();
    assert_eq!(recorded, names, "TRAFFIC rows must follow the grid order");
    let names: Vec<String> = log_grid().iter().map(LogCase::name).collect();
    let recorded: Vec<&str> = EVENT_LOGS.iter().map(|row| row.0).collect();
    assert_eq!(
        recorded, names,
        "EVENT_LOGS rows must follow the grid order"
    );
}

#[test]
fn gossip_digests() {
    check_traffic(Workload::Gossip);
}

#[test]
fn observed_gossip_digests() {
    check_traffic(Workload::ObservedGossip);
}

#[test]
fn observed_flood_digests() {
    check_traffic(Workload::Flood);
}

#[test]
fn observed_bv_digests() {
    check_traffic(Workload::Bv);
}

#[test]
fn event_log_digests() {
    let mut failures = Vec::new();
    for case in log_grid() {
        let name = case.name();
        let Some(&(_, events, digest)) = EVENT_LOGS.iter().find(|row| row.0 == name) else {
            failures.push(format!("{name}: no recorded row"));
            continue;
        };
        let got = case.run();
        if got != (events, digest) {
            failures.push(format!(
                "{name}: ran {got:?}, recorded {:?}",
                (events, digest)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Prints the `TRAFFIC` and `EVENT_LOGS` tables for the current code,
/// with each run's time on standard error.
#[test]
#[ignore = "generator: prints the TRAFFIC and EVENT_LOGS tables (run with --nocapture)"]
fn generate_traffic_tables() {
    println!("const TRAFFIC: &[(&str, [u64; 6], u64, bool, bool, u64, u64)] = &[");
    for case in grid() {
        let start = std::time::Instant::now();
        let row = case.run();
        eprintln!("{:>9.3}s {}", start.elapsed().as_secs_f64(), case.name());
        println!(
            "    ({:?}, {:?}, {}, {}, {}, {:#018x}, {:#018x}),",
            case.name(),
            row.counters,
            row.clocked,
            row.consistent,
            row.conserved,
            row.clocks,
            row.cuts
        );
    }
    println!("];");
    println!("const EVENT_LOGS: &[(&str, u64, u64)] = &[");
    for case in log_grid() {
        let start = std::time::Instant::now();
        let (events, digest) = case.run();
        eprintln!("{:>9.3}s {}", start.elapsed().as_secs_f64(), case.name());
        println!("    ({:?}, {events}, {digest:#018x}),", case.name());
    }
    println!("];");
}
