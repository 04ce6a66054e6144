//! The four workloads as a user runs them: one batch each, tracing off,
//! through the library's public entry points. Each answer is one
//! operation of `attempted`; [`failures`] checks it against the table in
//! [`crate::grids`].

use std::io;
use std::path::Path;
use std::time::Instant;

use ps_agreement::{
    conformance_check, connectivity_sweep_shared, solvability_sweep_shared_opts,
    solvability_sweep_shared_store, AnswerSource, ConformConfig, ConformReport, ConnectivityResult,
    PointOutcome, QueryEngine, ServeMetrics, SolvabilityResult, StoreSweepReport, SweepOptions,
    SweepPoint, VerdictStore,
};
use ps_core::ProcessId;
use ps_protocols::{ChandyLamportObserver, TimedKSetFlood, VectorClockObserver};
use ps_runtime::{
    traffic_run, traffic_run_protocol, AsyncPolicy, MultiObserver, RandomTimedAdversary,
    SchedObserver, SemisyncPolicy, SyncPolicy, TimedParams, TimingPolicy, TrafficReport,
};

use crate::grids;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Complex construction, cold into a fresh store and warm through it.
    Construct,
    /// Decision-map search over the `psph sweep` default pipeline.
    Search,
    /// Homological connectivity over the sparse GF(2) engine.
    Connectivity,
    /// Conformance executions and scheduler traffic.
    Execute,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "construct" => Workload::Construct,
            "search" => Workload::Search,
            "connectivity" => Workload::Connectivity,
            "execute" => Workload::Execute,
            _ => return None,
        })
    }

    /// Whether the seed changes the workload's inputs.
    pub fn seeded(self) -> bool {
        self == Workload::Execute
    }
}

/// One operation's answer, as compared between runs and with the table.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// A sweep point.
    Verdict(SolvabilityResult),
    /// A served query and where its answer came from.
    Query(SolvabilityResult, AnswerSource),
    /// A connectivity point.
    Connectivity {
        /// Homologically `q`-connected over GF(2).
        connected: bool,
        /// The level asked, `k − 1`.
        q: i32,
        /// Vertices of the complex queried.
        vertices: usize,
        /// Facets of the complex queried.
        facets: usize,
    },
    /// A conformance point.
    Conform {
        /// The solver's verdict.
        solvable: bool,
        /// `PASS`, `WITNESS`, `FAIL`, `UNBROKEN` or `SKIP`.
        outcome: &'static str,
        /// Executions checked.
        executions: u64,
    },
    /// A traffic run.
    Traffic(TrafficAnswer),
}

/// The deterministic part of a traffic run's report, plus its checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficAnswer {
    /// Timing policy.
    pub policy: &'static str,
    /// Messages delivered.
    pub delivered: u64,
    /// Deliveries dropped at crashed receivers.
    pub dropped: u64,
    /// Steps executed.
    pub steps: u64,
    /// Scheduler events processed.
    pub events: u64,
    /// Crashes detected.
    pub crashes: u64,
    /// Virtual end time.
    pub end_time: u64,
    /// Deliveries the vector-clock observer clocked (observed runs).
    pub clocked: u64,
    /// Channels in the Chandy–Lamport cut (observed runs).
    pub cut_channels: u64,
    /// Invariants held, the observers' checks passed, and a gossip run
    /// reached its message target.
    pub ok: bool,
}

/// One batch of a workload: its answers and what the batch measured.
#[derive(Debug, Default)]
pub struct Batch {
    /// One per operation, in a fixed order.
    pub answers: Vec<Answer>,
    /// Failures that belong to no single answer (I/O errors, a warm pass
    /// that called the solver).
    pub errors: Vec<String>,
    /// Timed phases of the batch: `(metric, seconds)`.
    pub phases: Vec<(&'static str, f64)>,
    /// Scheduler events per phase: `(metric, events, seconds)`.
    pub rates: Vec<(&'static str, u64, f64)>,
    /// `construct`: the cold pass's sweep report.
    pub store_report: Option<StoreSweepReport>,
    /// `construct`: distinct store addresses after the cold pass.
    pub store_len: usize,
    /// `construct`: the warm engine's counters.
    pub serve: Option<ServeMetrics>,
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// The sweep, connectivity or conformance grid.
    pub points: Vec<SweepPoint>,
    /// `construct`: the warm pass's queries.
    pub queries: Vec<SweepPoint>,
}

impl Inputs {
    /// Generates the inputs of `workload`.
    pub fn of(workload: Workload) -> Inputs {
        let (points, queries) = match workload {
            Workload::Construct => (grids::construct_cold(), grids::construct_warm()),
            Workload::Search => (grids::search(), Vec::new()),
            Workload::Connectivity => (grids::connectivity(), Vec::new()),
            Workload::Execute => (grids::conform(), Vec::new()),
        };
        Inputs { points, queries }
    }
}

/// Runs one batch of `workload` with `threads` pipeline threads; a store
/// the batch needs is created at `store_dir`, which must not exist yet.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    threads: usize,
    seed: u64,
    store_dir: &Path,
) -> Batch {
    let opts = SweepOptions::default();
    let mut b = Batch::default();
    match workload {
        Workload::Construct => {
            let t = Instant::now();
            let cold = VerdictStore::open(store_dir).and_then(|mut store| {
                let (results, report) =
                    solvability_sweep_shared_store(&inputs.points, threads, opts, &mut store)?;
                Ok((results, report, store.len()))
            });
            b.phases.push(("cold_s", t.elapsed().as_secs_f64()));
            match cold {
                Ok((results, report, len)) => {
                    b.answers.extend(results.into_iter().map(Answer::Verdict));
                    b.store_report = Some(report);
                    b.store_len = len;
                }
                Err(e) => b.errors.push(format!("cold pass: {e}")),
            }
            let t = Instant::now();
            let warm = (|| -> io::Result<_> {
                let mut engine =
                    QueryEngine::new(threads, opts, Some(VerdictStore::open(store_dir)?));
                let mut answers = engine.answer_batch(&inputs.queries)?;
                answers.extend(engine.answer_batch(&inputs.queries)?);
                Ok((answers, *engine.metrics()))
            })();
            b.phases.push(("warm_s", t.elapsed().as_secs_f64()));
            match warm {
                Ok((answers, metrics)) => {
                    b.answers.extend(
                        answers
                            .into_iter()
                            .map(|a| Answer::Query(a.result, a.source)),
                    );
                    if metrics.solver_calls != 0 {
                        b.errors.push(format!(
                            "warm pass called the solver {} times",
                            metrics.solver_calls
                        ));
                    }
                    b.serve = Some(metrics);
                }
                Err(e) => b.errors.push(format!("warm pass: {e}")),
            }
        }
        Workload::Search => {
            let results = solvability_sweep_shared_opts(&inputs.points, threads, opts);
            b.answers.extend(results.into_iter().map(Answer::Verdict));
        }
        Workload::Connectivity => {
            let results = connectivity_sweep_shared(&inputs.points, threads);
            b.answers.extend(results.iter().map(connectivity_answer));
        }
        Workload::Execute => {
            let t = Instant::now();
            let report = conformance_check(&inputs.points, threads, opts, &conform_config(seed));
            b.phases.push(("conform_s", t.elapsed().as_secs_f64()));
            b.answers.extend(conform_answers(&report));
            for (metric, observed) in [
                ("gossip_events_per_s", false),
                ("observed_events_per_s", true),
            ] {
                let (mut events, mut secs) = (0, 0.0);
                for policy in POLICIES {
                    let t = Instant::now();
                    let answer = if observed {
                        observed_run(policy, seed, grids::OBSERVED, true)
                    } else {
                        gossip_run(policy, seed, grids::GOSSIP)
                    };
                    secs += t.elapsed().as_secs_f64();
                    events += answer.events;
                    b.answers.push(Answer::Traffic(answer));
                }
                b.rates.push((metric, events, secs));
            }
        }
    }
    b
}

/// Set-up's warm-up: the workload's pipeline once over the small grids
/// of [`grids`], with `threads` pipeline threads and without a store (no
/// disk I/O), so that a batch starts on warm code, caches and allocator.
/// Returns the operations attempted and a description of each failure.
pub fn warm_up(workload: Workload, threads: usize, seed: u64) -> (usize, Vec<String>) {
    let opts = SweepOptions::default();
    let mut answers: Vec<Answer> = Vec::new();
    let expected: Vec<Expected> = match workload {
        Workload::Construct | Workload::Search => {
            let results = solvability_sweep_shared_opts(&grids::warm_up(), threads, opts);
            answers.extend(results.into_iter().map(Answer::Verdict));
            grids::WARM_UP.into_iter().map(Expected::Verdict).collect()
        }
        Workload::Connectivity => {
            let results = connectivity_sweep_shared(&grids::warm_up(), threads);
            answers.extend(results.iter().map(connectivity_answer));
            grids::WARM_UP_CONNECTIVITY
                .into_iter()
                .map(Expected::Connectivity)
                .collect()
        }
        Workload::Execute => {
            let config = conform_config(seed);
            let report = conformance_check(&grids::warm_up_conform(), threads, opts, &config);
            answers.extend(conform_answers(&report));
            for policy in POLICIES {
                answers.push(Answer::Traffic(gossip_run(
                    policy,
                    seed,
                    grids::WARM_UP_GOSSIP,
                )));
                answers.push(Answer::Traffic(observed_run(
                    policy,
                    seed,
                    grids::WARM_UP_OBSERVED,
                    true,
                )));
            }
            grids::WARM_UP_CONFORM
                .into_iter()
                .map(|(s, o)| Expected::Conform(s, o))
                .chain((0..2 * POLICIES.len()).map(|_| Expected::TrafficOk))
                .collect()
        }
    };
    (expected.len(), mismatches(&expected, &answers))
}

fn connectivity_answer(r: &ConnectivityResult) -> Answer {
    Answer::Connectivity {
        connected: r.connected,
        q: r.q,
        vertices: r.vertices,
        facets: r.facets,
    }
}

/// The conformance configuration of `execute`: defaults, seeded.
pub fn conform_config(seed: u64) -> ConformConfig {
    ConformConfig {
        seed,
        ..ConformConfig::default()
    }
}

/// One answer per conformance point.
pub fn conform_answers(report: &ConformReport) -> Vec<Answer> {
    report
        .points
        .iter()
        .map(|p| {
            let (outcome, executions) = match p.outcome {
                PointOutcome::Pass { executions } => ("PASS", executions),
                PointOutcome::Witness { executions, .. } => ("WITNESS", executions),
                PointOutcome::Fail { executions, .. } => ("FAIL", executions),
                PointOutcome::Unbroken { executions } => ("UNBROKEN", executions),
                PointOutcome::Skipped { .. } => ("SKIP", 0),
            };
            Answer::Conform {
                solvable: p.solvable,
                outcome,
                executions,
            }
        })
        .collect()
}

/// The scheduler's timing policies, in run order.
pub const POLICIES: [&str; 3] = ["sync", "semisync", "async"];

/// Runs `f` under the named policy with a seeded random adversary that
/// crashes the [`grids::CRASHES`] highest-numbered of `n` processes on a
/// staggered schedule.
fn with_policy<T>(
    policy: &str,
    seed: u64,
    n: usize,
    f: impl FnOnce(&mut dyn TimingPolicy) -> T,
) -> T {
    let crashes = (0..grids::CRASHES)
        .map(|i| (ProcessId((n - 1 - i) as u32), 5 + 7 * i as u64))
        .collect();
    let mut adversary = RandomTimedAdversary::new(seed, crashes);
    let (c1, c2, d) = grids::TIMING;
    let params = TimedParams::new(c1, c2, d);
    match policy {
        "sync" => f(&mut SyncPolicy::new(&mut adversary)),
        "semisync" => f(&mut SemisyncPolicy::new(&mut adversary, params)),
        _ => f(&mut AsyncPolicy::new(&mut adversary, params)),
    }
}

fn traffic_answer(r: &TrafficReport, clocked: u64, cut_channels: u64, ok: bool) -> TrafficAnswer {
    TrafficAnswer {
        policy: r.policy,
        delivered: r.delivered,
        dropped: r.dropped,
        steps: r.steps,
        events: r.events,
        crashes: r.crashes,
        end_time: r.end_time,
        clocked,
        cut_channels,
        ok: ok && r.invariants_ok,
    }
}

/// One gossip traffic run of the given size.
pub fn gossip_run(policy: &str, seed: u64, (n, messages): grids::Traffic) -> TrafficAnswer {
    let r = with_policy(policy, seed, n, |pol| {
        traffic_run(n, messages, pol, grids::HORIZON)
    });
    traffic_answer(&r, 0, 0, r.delivered >= messages)
}

/// One k-set flood traffic run of the given size, with the vector-clock
/// and Chandy–Lamport observers attached when `observed`.
pub fn observed_run(
    policy: &str,
    seed: u64,
    (n, messages): grids::Traffic,
    observed: bool,
) -> TrafficAnswer {
    let proto = TimedKSetFlood::optimal(grids::CRASHES, 1);
    let inputs: Vec<u64> = (0..n as u64).collect();
    let mut vc = VectorClockObserver::new();
    let mut cl = ChandyLamportObserver::new(grids::CUT);
    let r = with_policy(policy, seed, n, |pol| {
        let mut multi = MultiObserver {
            observers: vec![&mut vc, &mut cl],
        };
        let observer = observed.then_some(&mut multi as &mut dyn SchedObserver);
        traffic_run_protocol(&proto, &inputs, messages, pol, grids::HORIZON, observer)
    });
    if !observed {
        return traffic_answer(&r, 0, 0, true);
    }
    let ok = vc.consistent() & cl.finalize();
    traffic_answer(&r, vc.deliveries(), cl.cuts().len() as u64, ok)
}

/// What the table expects of one answer.
enum Expected {
    Verdict(grids::Verdict),
    Query(grids::Verdict, AnswerSource),
    Connectivity(grids::Connectivity),
    Conform(bool, &'static str),
    TrafficOk,
}

fn expected(workload: Workload) -> Vec<Expected> {
    match workload {
        Workload::Construct => {
            let cold = grids::CONSTRUCT_COLD;
            let warm: Vec<grids::Verdict> = grids::construct_cold()
                .iter()
                .zip(cold)
                .filter(|(p, _)| p.k() == 2)
                .map(|(_, v)| v)
                .collect();
            let mut out: Vec<Expected> = cold.into_iter().map(Expected::Verdict).collect();
            for source in [AnswerSource::Store, AnswerSource::Session] {
                out.extend(warm.iter().map(|&v| Expected::Query(v, source)));
            }
            out
        }
        Workload::Search => grids::SEARCH.into_iter().map(Expected::Verdict).collect(),
        Workload::Connectivity => grids::CONNECTIVITY
            .into_iter()
            .map(Expected::Connectivity)
            .collect(),
        Workload::Execute => grids::CONFORM
            .into_iter()
            .map(|(s, o)| Expected::Conform(s, o))
            .chain((0..2 * POLICIES.len()).map(|_| Expected::TrafficOk))
            .collect(),
    }
}

/// Operations one batch of `workload` attempts.
pub fn attempted(workload: Workload) -> usize {
    expected(workload).len()
}

fn verdict_of(r: &SolvabilityResult) -> grids::Verdict {
    (r.solvable, r.vertices, r.facets)
}

/// Describes every failed operation of a batch: answers that differ from
/// the table (a missing answer fails too) and the batch's own errors.
pub fn failures(workload: Workload, batch: &Batch) -> Vec<String> {
    let mut out = mismatches(&expected(workload), &batch.answers);
    out.extend(batch.errors.iter().cloned());
    out
}

/// Describes every answer that differs from what `expected` holds for
/// it, a missing one included.
fn mismatches(expected: &[Expected], answers: &[Answer]) -> Vec<String> {
    expected
        .iter()
        .enumerate()
        .filter_map(|(i, want)| {
            let got = answers.get(i);
            let ok = match (want, got) {
                (Expected::Verdict(v), Some(Answer::Verdict(r))) => *v == verdict_of(r),
                (Expected::Query(v, s), Some(Answer::Query(r, src))) => {
                    *v == verdict_of(r) && s == src
                }
                (
                    Expected::Connectivity(c),
                    Some(Answer::Connectivity {
                        connected,
                        q,
                        vertices,
                        facets,
                    }),
                ) => *c == (*connected, *q, *vertices, *facets),
                (
                    Expected::Conform(s, o),
                    Some(Answer::Conform {
                        solvable, outcome, ..
                    }),
                ) => s == solvable && o == outcome,
                (Expected::TrafficOk, Some(Answer::Traffic(t))) => t.ok,
                _ => false,
            };
            (!ok).then(|| format!("operation {i}: got {got:?}"))
        })
        .collect()
}
