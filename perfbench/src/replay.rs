//! The traced run: each workload replayed through the public pieces of
//! the entry points that hide their phases, with a span around every
//! call into a layer and counters recorded beside it.
//!
//! The replays follow the library's sweep, store-sweep and query-engine
//! pipelines step for step — group by shared key, build, prepare,
//! certify symmetries, address, probe the store, solve, persist — and
//! their answers must equal the untraced batch's. Steps that stay
//! private (conformance executions) are timed through the enclosing
//! public call, whose span subtracts the part timed separately.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use ps_agreement::{
    allowed_values, allowed_values_ss, async_task_parts, byzantine_task_parts, conformance_check,
    dynamic_task_parts, instance_fingerprint, instance_key, semisync_task_parts,
    solvability_sweep_shared_opts, sync_task_parts, task_symmetries, AgreementConstraint,
    AnswerSource, DecisionMapSolver, ExactKey, InstanceFingerprint, PreparedInstance, ServeMetrics,
    SolvabilityResult, SolverConfig, StoreKey, StoreSweepReport, StoredVerdict, StructuralKey,
    SweepKey, SweepOptions, SweepPoint, SymmetricView, VerdictStore,
};
use ps_models::{process_transpositions, SsView, View};
use ps_topology::{IdComplex, Label, PreparedBoundary, VertexPool};

use crate::trace::Tracer;
use crate::workloads::{
    conform_answers, conform_config, gossip_run, observed_run, Answer, Batch, Inputs, Workload,
    POLICIES,
};
use crate::{grids, sys};

/// Replays one batch of `workload` into `t`; returns the answers (to be
/// compared with the untraced batch's) and any inconsistency found
/// between the replay and the untraced batch beyond the answers.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    threads: usize,
    seed: u64,
    dirs: (&Path, &Path),
    untraced: &Batch,
    t: &mut Tracer,
) -> (Vec<Answer>, Vec<String>) {
    let mut errors = Vec::new();
    let answers = match workload {
        Workload::Construct => construct(inputs, threads, dirs, untraced, t, &mut errors),
        Workload::Search => shared_sweep(t, &inputs.points, threads)
            .into_iter()
            .map(Answer::Verdict)
            .collect(),
        Workload::Connectivity => connectivity(t, &inputs.points, threads),
        Workload::Execute => execute(inputs, threads, seed, t, &mut errors),
    };
    (answers, errors)
}

/// `construct`: the store-backed sweep into a fresh store, then two
/// query batches through a fresh engine over the reopened store.
fn construct(
    inputs: &Inputs,
    threads: usize,
    (dir, untraced_dir): (&Path, &Path),
    untraced: &Batch,
    t: &mut Tracer,
    errors: &mut Vec<String>,
) -> Vec<Answer> {
    let mut answers = Vec::new();
    let Some(want) = untraced.store_report else {
        errors.push("the untraced cold pass failed; nothing to replay".into());
        return answers;
    };
    // The library canonicalizes only groups below a private size gate.
    // The replay does not copy the gate: it canonicalizes the smallest
    // groups, as many as the untraced pass found exact keys for, and the
    // checks below confirm that it picked the same ones.
    let exact_groups = want.groups - want.inexact_keys;
    match t.span("bench.cold", |t| {
        cold_pass(t, &inputs.points, threads, dir, exact_groups)
    }) {
        Ok((results, report, canonical, len)) => {
            answers.extend(results.into_iter().map(Answer::Verdict));
            if report != want {
                errors.push(format!("cold pass report {report:?} differs from {want:?}"));
            }
            if len != untraced.store_len {
                errors.push(format!(
                    "cold pass stored {len} addresses, the untraced one {}",
                    untraced.store_len
                ));
            }
            match VerdictStore::open(untraced_dir) {
                Ok(store) => {
                    if canonical.iter().any(|k| store.get(k).is_none()) {
                        errors.push(
                            "a canonical address of the replay is not in the untraced store".into(),
                        );
                    }
                }
                Err(e) => errors.push(format!("reopening the untraced store: {e}")),
            }
        }
        Err(e) => errors.push(format!("cold pass: {e}")),
    }
    let warm = t.span("bench.warm", |t| -> io::Result<_> {
        let store = t.span("store.open", |_| VerdictStore::open(dir))?;
        let mut engine = Engine::new(threads, store);
        let mut out = engine.answer_batch(t, &inputs.queries)?;
        out.extend(engine.answer_batch(t, &inputs.queries)?);
        Ok((out, engine.metrics))
    });
    match warm {
        Ok((out, metrics)) => {
            answers.extend(out.into_iter().map(|(r, s)| Answer::Query(r, s)));
            if untraced.serve.map(serve_counts) != Some(serve_counts(metrics)) {
                errors.push(format!(
                    "engine counters {metrics:?} differ from {:?}",
                    untraced.serve
                ));
            }
            for (name, n) in [
                ("serve.session_hits", metrics.session_hits),
                ("serve.store_hits", metrics.store_hits),
                ("serve.solver_calls", metrics.solver_calls),
                ("serve.prepared_builds", metrics.prepared_builds),
                ("serve.key_skips", metrics.key_skips),
            ] {
                t.count(name, n as usize);
            }
        }
        Err(e) => errors.push(format!("warm pass: {e}")),
    }
    answers
}

/// The engine counters the replay reproduces: all but latencies and
/// the count of canonicalizations, which the library's size gate decides.
fn serve_counts(m: ServeMetrics) -> [u64; 9] {
    [
        m.queries,
        m.session_hits,
        m.store_hits,
        m.solved,
        m.solver_calls,
        m.key_skips,
        m.prepared_builds,
        m.prepared_reuses,
        m.persisted,
    ]
}

/// `solvability_sweep_shared_store`, replayed. Also returns the
/// canonical store addresses it wrote and how many addresses the store
/// holds after it.
fn cold_pass(
    t: &mut Tracer,
    points: &[SweepPoint],
    threads: usize,
    dir: &Path,
    exact_groups: usize,
) -> io::Result<(
    Vec<SolvabilityResult>,
    StoreSweepReport,
    Vec<StoreKey>,
    usize,
)> {
    let opts = SweepOptions::default();
    let mut store = t.span("store.open", |_| VerdictStore::open(dir))?;
    t.count("store.skipped_records", store.report().skipped_records);
    let jobs = groups(points);
    let mut report = StoreSweepReport {
        groups: jobs.len(),
        ..StoreSweepReport::default()
    };
    let built: Vec<Group> = t.par_map(&jobs, threads, |t, j, (key, idxs)| {
        t.set_group(j as u32 + 1);
        Group::build(t, key, &domain(points, idxs), opts.symmetry)
    });

    let mut by_size: Vec<usize> = (0..jobs.len()).collect();
    by_size.sort_by_key(|&j| built[j].vertex_count());
    let attempt: BTreeSet<usize> = by_size.into_iter().take(exact_groups).collect();
    let job_ids: Vec<usize> = (0..jobs.len()).collect();
    let keys: Vec<(StructuralKey, Option<ExactKey>)> = t.par_map(&job_ids, threads, |t, _, &j| {
        t.set_group(j as u32 + 1);
        let structural = t.span("symmetry.key", |_| built[j].structural_key());
        let exact = attempt
            .contains(&j)
            .then(|| built[j].exact_key(t))
            .flatten();
        (structural, exact)
    });
    report.inexact_keys = keys.iter().filter(|(_, k)| k.is_none()).count();
    let mut rep_of: Vec<usize> = (0..jobs.len()).collect();
    let mut by_exact: BTreeMap<&ExactKey, usize> = BTreeMap::new();
    let mut by_structural: BTreeMap<&StructuralKey, usize> = BTreeMap::new();
    for (j, (structural, exact)) in keys.iter().enumerate() {
        rep_of[j] = match exact {
            Some(key) => *by_exact.entry(key).or_insert(j),
            None => *by_structural.entry(structural).or_insert(j),
        };
    }
    let class_ks = class_ks(points, &jobs, &rep_of);
    report.classes = class_ks.len();

    let mut verdicts: BTreeMap<(usize, usize), SolvabilityResult> = BTreeMap::new();
    let mut miss_jobs: Vec<(usize, Vec<usize>)> = Vec::new();
    for (rep, ks) in class_ks {
        t.set_group(rep as u32 + 1);
        let (structural, exact) = &keys[rep];
        let mut missing = Vec::new();
        for k in ks {
            let constraint = AgreementConstraint::AtMostKDistinct(k);
            let hit = t.span("store.get", |_| {
                store
                    .get(&StoreKey::structural(structural, constraint))
                    .or_else(|| {
                        exact
                            .as_ref()
                            .and_then(|key| store.get(&StoreKey::new(key, constraint)))
                    })
            });
            match hit {
                Some(v) => {
                    t.count("store.hits", 1);
                    report.store_hits += 1;
                    verdicts.insert((rep, k), replayed(v));
                }
                None => {
                    t.count("store.misses", 1);
                    missing.push(k);
                }
            }
        }
        if !missing.is_empty() {
            miss_jobs.push((rep, missing));
        }
    }
    t.set_group(0);

    let mut canonical = Vec::new();
    for chunk in miss_jobs.chunks(threads.max(1)) {
        let solved: Vec<Vec<(usize, SolvabilityResult)>> =
            t.par_map(chunk, threads, |t, _, (rep, ks)| {
                t.set_group(*rep as u32 + 1);
                ks.iter()
                    .map(|&k| (k, built[*rep].solve(t, k, opts.learning)))
                    .collect()
            });
        for ((rep, _), results) in chunk.iter().zip(solved) {
            t.set_group(*rep as u32 + 1);
            let (structural, exact) = &keys[*rep];
            for (k, r) in results {
                report.solver_calls += 1;
                let constraint = AgreementConstraint::AtMostKDistinct(k);
                let persisted = t.span("store.insert", |_| {
                    let mut persisted =
                        store.insert(&StoreKey::structural(structural, constraint), stored(&r));
                    if let Some(key) = exact {
                        let address = StoreKey::new(key, constraint);
                        persisted |= store.insert(&address, stored(&r));
                        canonical.push(address);
                    }
                    persisted
                });
                if persisted {
                    t.count("store.persisted", 1);
                    report.persisted += 1;
                }
                verdicts.insert((*rep, k), r);
            }
        }
        t.set_group(0);
        t.span("store.flush", |_| store.flush())?;
    }
    t.count("store.disk_bytes", sys::dir_bytes(dir) as usize);
    Ok((
        scatter(points, &jobs, &rep_of, &verdicts),
        report,
        canonical,
        store.len(),
    ))
}

/// The query engine's batch pipeline, replayed: session cache, warm
/// prepared instances, structural then fingerprint-filtered canonical
/// store probes, solving and persisting the misses.
struct Engine {
    threads: usize,
    store: VerdictStore,
    session: BTreeMap<(SweepKey, usize), SolvabilityResult>,
    prepared: BTreeMap<(SweepKey, usize), Entry>,
    metrics: ServeMetrics,
}

/// A warm prepared instance and its store addresses, computed lazily.
struct Entry {
    group: Group,
    structural: Option<StructuralKey>,
    key: Option<Option<ExactKey>>,
}

impl Entry {
    fn structural(&mut self, t: &mut Tracer) -> StructuralKey {
        if self.structural.is_none() {
            self.structural = Some(t.span("symmetry.key", |_| self.group.structural_key()));
        }
        self.structural.clone().expect("just filled")
    }

    /// The library gates this canonicalization by instance size; the
    /// replay reaches it only when a structural probe misses or a
    /// verdict is solved, which the `construct` warm pass never does.
    fn canonical(&mut self, t: &mut Tracer) -> Option<ExactKey> {
        if self.key.is_none() {
            self.key = Some(self.group.exact_key(t));
        }
        self.key.clone().expect("just filled")
    }
}

impl Engine {
    fn new(threads: usize, store: VerdictStore) -> Self {
        Engine {
            threads,
            store,
            session: BTreeMap::new(),
            prepared: BTreeMap::new(),
            metrics: ServeMetrics::default(),
        }
    }

    fn answer_batch(
        &mut self,
        t: &mut Tracer,
        queries: &[SweepPoint],
    ) -> io::Result<Vec<(SolvabilityResult, AnswerSource)>> {
        t.span("serve.batch", |t| self.answer_batch_traced(t, queries))
    }

    fn answer_batch_traced(
        &mut self,
        t: &mut Tracer,
        queries: &[SweepPoint],
    ) -> io::Result<Vec<(SolvabilityResult, AnswerSource)>> {
        let mut order: Vec<(SweepKey, usize)> = Vec::new();
        for q in queries {
            let item = (q.shared_key(), q.k());
            if !order.contains(&item) {
                order.push(item);
            }
        }
        let mut outcomes: BTreeMap<(SweepKey, usize), (SolvabilityResult, AnswerSource)> =
            BTreeMap::new();
        let mut todo = Vec::new();
        for item in order {
            match self.session.get(&item) {
                Some(r) => {
                    outcomes.insert(item, (r.clone(), AnswerSource::Session));
                }
                None => todo.push(item),
            }
        }

        let missing: Vec<(SweepKey, usize)> = todo
            .iter()
            .filter(|it| !self.prepared.contains_key(*it))
            .cloned()
            .collect();
        let built: Vec<Group> = t.par_map(&missing, self.threads, |t, i, (key, k)| {
            t.set_group(i as u32 + 1);
            let values: BTreeSet<u64> = (0..=*k as u64).collect();
            Group::build(t, key, &values, SweepOptions::default().symmetry)
        });
        self.metrics.prepared_builds += missing.len() as u64;
        self.metrics.prepared_reuses += (todo.len() - missing.len()) as u64;
        for (item, group) in missing.into_iter().zip(built) {
            let entry = Entry {
                group,
                structural: None,
                key: None,
            };
            self.prepared.insert(item, entry);
        }

        let mut solve_items = Vec::new();
        for item in &todo {
            let entry = self.prepared.get_mut(item).expect("built above");
            let constraint = AgreementConstraint::AtMostKDistinct(item.1);
            let structural = entry.structural(t);
            let store = &self.store;
            let mut hit = t.span("store.get", |_| {
                store.get(&StoreKey::structural(&structural, constraint))
            });
            if hit.is_none() {
                let fp: InstanceFingerprint = t.span("symmetry.key", |_| entry.group.fingerprint());
                if !t.span("store.get", |_| store.contains_fingerprint(&fp)) {
                    self.metrics.key_skips += 1;
                } else if let Some(key) = entry.canonical(t) {
                    hit = t.span("store.get", |_| store.get(&StoreKey::new(&key, constraint)));
                }
            }
            match hit {
                Some(v) => {
                    t.count("store.hits", 1);
                    outcomes.insert(item.clone(), (replayed(v), AnswerSource::Store));
                }
                None => {
                    t.count("store.misses", 1);
                    solve_items.push(item.clone());
                }
            }
        }

        let prepared = &self.prepared;
        let solved: Vec<SolvabilityResult> = t.par_map(&solve_items, self.threads, |t, i, item| {
            t.set_group(i as u32 + 1);
            let entry = prepared.get(item).expect("built above");
            entry
                .group
                .solve(t, item.1, SweepOptions::default().learning)
        });
        self.metrics.solver_calls += solve_items.len() as u64;
        for (item, r) in solve_items.iter().zip(solved) {
            let entry = self.prepared.get_mut(item).expect("built above");
            let constraint = AgreementConstraint::AtMostKDistinct(item.1);
            let structural = StoreKey::structural(&entry.structural(t), constraint);
            let canonical = entry
                .canonical(t)
                .map(|key| StoreKey::new(&key, constraint));
            let store = &mut self.store;
            let persisted = t.span("store.insert", |_| {
                let mut persisted = store.insert(&structural, stored(&r));
                if let Some(address) = canonical {
                    persisted |= store.insert(&address, stored(&r));
                }
                persisted
            });
            if persisted {
                t.count("store.persisted", 1);
                self.metrics.persisted += 1;
            }
            outcomes.insert(item.clone(), (r, AnswerSource::Solved));
        }
        t.span("store.flush", |_| self.store.flush())?;

        for item in &todo {
            self.session.insert(item.clone(), outcomes[item].0.clone());
        }
        let mut answers = Vec::with_capacity(queries.len());
        for q in queries {
            let (r, source) = outcomes[&(q.shared_key(), q.k())].clone();
            self.metrics.queries += 1;
            match source {
                AnswerSource::Session => self.metrics.session_hits += 1,
                AnswerSource::Store => self.metrics.store_hits += 1,
                AnswerSource::Solved => self.metrics.solved += 1,
            }
            answers.push((r, source));
        }
        Ok(answers)
    }
}

/// `solvability_sweep_shared_opts`, replayed.
fn shared_sweep(t: &mut Tracer, points: &[SweepPoint], threads: usize) -> Vec<SolvabilityResult> {
    let opts = SweepOptions::default();
    let jobs = groups(points);
    let built: Vec<Group> = t.par_map(&jobs, threads, |t, j, (key, idxs)| {
        t.set_group(j as u32 + 1);
        Group::build(t, key, &domain(points, idxs), opts.symmetry)
    });
    let mut rep_of: Vec<usize> = (0..jobs.len()).collect();
    if opts.symmetry && jobs.len() > 1 {
        let mut by_fp: BTreeMap<InstanceFingerprint, Vec<usize>> = BTreeMap::new();
        for (j, g) in built.iter().enumerate() {
            t.set_group(j as u32 + 1);
            let fp = t.span("symmetry.key", |_| g.fingerprint());
            by_fp.entry(fp).or_default().push(j);
        }
        t.set_group(0);
        let colliding: Vec<usize> = by_fp
            .into_values()
            .filter(|js| js.len() > 1)
            .flatten()
            .collect();
        let keys: Vec<Option<ExactKey>> = t.par_map(&colliding, threads, |t, _, &j| {
            t.set_group(j as u32 + 1);
            built[j].exact_key(t)
        });
        let mut by_key: BTreeMap<ExactKey, usize> = BTreeMap::new();
        for (&j, key) in colliding.iter().zip(keys) {
            let Some(key) = key else { continue };
            rep_of[j] = *by_key.entry(key).or_insert(j);
        }
    }
    let solve_jobs: Vec<(usize, Vec<usize>)> = class_ks(points, &jobs, &rep_of)
        .into_iter()
        .map(|(rep, ks)| (rep, ks.into_iter().collect()))
        .collect();
    let solved: Vec<Vec<(usize, SolvabilityResult)>> =
        t.par_map(&solve_jobs, threads, |t, _, (rep, ks)| {
            t.set_group(*rep as u32 + 1);
            ks.iter()
                .map(|&k| (k, built[*rep].solve(t, k, opts.learning)))
                .collect()
        });
    let mut verdicts = BTreeMap::new();
    for ((rep, _), results) in solve_jobs.iter().zip(solved) {
        for (k, r) in results {
            verdicts.insert((*rep, k), r);
        }
    }
    scatter(points, &jobs, &rep_of, &verdicts)
}

/// `connectivity_sweep_shared`, replayed.
fn connectivity(t: &mut Tracer, points: &[SweepPoint], threads: usize) -> Vec<Answer> {
    let jobs = groups(points);
    let answered: Vec<Vec<(usize, Answer)>> = t.par_map(&jobs, threads, |t, j, (key, idxs)| {
        t.set_group(j as u32 + 1);
        let complex = match build(t, key, &domain(points, idxs)) {
            Parts::Viewed(_, c) | Parts::SsViewed(_, c) => c,
        };
        let (vertices, facets) = (complex.vertex_count(), complex.facet_count());
        let mut pb = t.span("homology.prepare", |_| {
            PreparedBoundary::of_id_complex(&complex)
        });
        let mut order = idxs.clone();
        order.sort_by_key(|&i| points[i].k());
        let out = order
            .into_iter()
            .map(|i| {
                let q = points[i].k() as i32 - 1;
                let connected = t.span("homology.reduce", |_| pb.is_q_connected(q));
                let answer = Answer::Connectivity {
                    connected,
                    q,
                    vertices,
                    facets,
                };
                (i, answer)
            })
            .collect();
        let stats = pb.stats();
        t.count("homology.columns", pb.assembled_columns() as usize);
        t.count("homology.reduced_columns", stats.columns as usize);
        t.count("homology.cleared", stats.cleared as usize);
        t.count("homology.additions", stats.additions as usize);
        t.count("homology.word_xors", stats.word_xors as usize);
        out
    });
    let mut out: Vec<Option<Answer>> = vec![None; points.len()];
    for (i, a) in answered.into_iter().flatten() {
        out[i] = Some(a);
    }
    out.into_iter()
        .map(|a| a.expect("every point belongs to one group"))
        .collect()
}

/// `execute`: the conformance check (its verdict sweep replayed, its
/// executions timed as the remainder of the enclosing call), then every
/// traffic run, each observed run beside the same run unobserved.
fn execute(
    inputs: &Inputs,
    threads: usize,
    seed: u64,
    t: &mut Tracer,
    errors: &mut Vec<String>,
) -> Vec<Answer> {
    let opts = SweepOptions::default();
    let verdicts = t.span("bench.conform_sweep", |t| {
        shared_sweep(t, &inputs.points, threads)
    });
    // The conformance executions are private: their time is the
    // `conformance_check` call's minus that of the same verdict sweep it
    // starts with, called untraced just before.
    let started = Instant::now();
    let untraced_verdicts = t.span("bench.conform_sweep_untraced", |_| {
        solvability_sweep_shared_opts(&inputs.points, threads, opts)
    });
    let sweep = started.elapsed();
    let report = t.span_replayed("conform.exec", |_| {
        let report = conformance_check(&inputs.points, threads, opts, &conform_config(seed));
        (report, sweep)
    });
    if verdicts != untraced_verdicts
        || report
            .points
            .iter()
            .zip(&verdicts)
            .any(|(p, v)| p.solvable != v.solvable)
    {
        errors.push("conformance verdicts differ from the replayed sweep".into());
    }
    let mut answers = conform_answers(&report);
    for a in &answers {
        if let Answer::Conform {
            outcome,
            executions,
            ..
        } = a
        {
            t.count("conform.points", 1);
            t.count("conform.executions", *executions as usize);
            t.count("conform.pass", usize::from(*outcome == "PASS"));
            t.count("conform.witness", usize::from(*outcome == "WITNESS"));
        }
    }

    let mut group = 100;
    for policy in POLICIES {
        group += 1;
        t.set_group(group);
        answers.push(Answer::Traffic(
            t.span("sched.run", |_| gossip_run(policy, seed, grids::GOSSIP)),
        ));
    }
    for policy in POLICIES {
        group += 1;
        t.set_group(group);
        let started = Instant::now();
        let bare = t.span("sched.run", |_| {
            observed_run(policy, seed, grids::OBSERVED, false)
        });
        let bare_time: Duration = started.elapsed();
        let observed = t.span_replayed("protocols.observe", |_| {
            (observed_run(policy, seed, grids::OBSERVED, true), bare_time)
        });
        let schedule = |a: &crate::workloads::TrafficAnswer| {
            (
                a.delivered,
                a.dropped,
                a.steps,
                a.events,
                a.crashes,
                a.end_time,
            )
        };
        if schedule(&bare) != schedule(&observed) {
            errors.push(format!("{policy}: observers changed the run"));
        }
        t.count("protocols.deliveries_clocked", observed.clocked as usize);
        t.count("protocols.cut_channels", observed.cut_channels as usize);
        answers.push(Answer::Traffic(observed));
    }
    t.set_group(0);
    for a in &answers {
        if let Answer::Traffic(r) = a {
            t.count("sched.events", r.events as usize);
            t.count("sched.delivered", r.delivered as usize);
            t.count("sched.dropped", r.dropped as usize);
            t.count("sched.steps", r.steps as usize);
        }
    }
    answers
}

/// Points grouped by shared key, in key order (the sweeps' job order).
fn groups(points: &[SweepPoint]) -> Vec<(SweepKey, Vec<usize>)> {
    let mut groups: BTreeMap<SweepKey, Vec<usize>> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        groups.entry(p.shared_key()).or_default().push(i);
    }
    groups.into_iter().collect()
}

/// A group's value domain `{0, …, k_max}`.
fn domain(points: &[SweepPoint], idxs: &[usize]) -> BTreeSet<u64> {
    let k_max = idxs
        .iter()
        .map(|&i| points[i].k())
        .max()
        .expect("nonempty group");
    (0..=k_max as u64).collect()
}

/// The agreement parameters each class representative answers.
fn class_ks(
    points: &[SweepPoint],
    jobs: &[(SweepKey, Vec<usize>)],
    rep_of: &[usize],
) -> BTreeMap<usize, BTreeSet<usize>> {
    let mut out: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (j, (_, idxs)) in jobs.iter().enumerate() {
        out.entry(rep_of[j])
            .or_default()
            .extend(idxs.iter().map(|&i| points[i].k()));
    }
    out
}

/// Each point's verdict, from its class representative's.
fn scatter(
    points: &[SweepPoint],
    jobs: &[(SweepKey, Vec<usize>)],
    rep_of: &[usize],
    verdicts: &BTreeMap<(usize, usize), SolvabilityResult>,
) -> Vec<SolvabilityResult> {
    let mut out: Vec<Option<SolvabilityResult>> = vec![None; points.len()];
    for (j, (_, idxs)) in jobs.iter().enumerate() {
        for &i in idxs {
            out[i] = Some(verdicts[&(rep_of[j], points[i].k())].clone());
        }
    }
    out.into_iter()
        .map(|r| r.expect("every point belongs to one group"))
        .collect()
}

fn replayed(v: StoredVerdict) -> SolvabilityResult {
    SolvabilityResult {
        solvable: v.solvable,
        vertices: v.vertices as usize,
        facets: v.facets as usize,
    }
}

fn stored(r: &SolvabilityResult) -> StoredVerdict {
    StoredVerdict {
        solvable: r.solvable,
        vertices: r.vertices as u64,
        facets: r.facets as u64,
    }
}

/// A built task complex, in either view label type.
enum Parts {
    Viewed(VertexPool<View<u64>>, IdComplex),
    SsViewed(VertexPool<SsView<u64>>, IdComplex),
}

/// Builds a shared key's task complex over `values` (the `models` layer).
fn build(t: &mut Tracer, key: &SweepKey, values: &BTreeSet<u64>) -> Parts {
    let parts = t.span("models.build", |_| match *key {
        SweepKey::Async {
            f,
            n_plus_1,
            rounds,
        } => {
            let (p, c) = async_task_parts(values, n_plus_1, f, rounds);
            Parts::Viewed(p, c)
        }
        SweepKey::Sync {
            f,
            n_plus_1,
            k_per_round,
            rounds,
        } => {
            let (p, c) = sync_task_parts(values, n_plus_1, k_per_round, f, rounds);
            Parts::Viewed(p, c)
        }
        SweepKey::SemiSync {
            f,
            n_plus_1,
            k_per_round,
            microrounds,
            rounds,
        } => {
            let (p, c) = semisync_task_parts(values, n_plus_1, k_per_round, f, microrounds, rounds);
            Parts::SsViewed(p, c)
        }
        SweepKey::Byzantine {
            t: byz,
            n_plus_1,
            rounds,
        } => {
            let (p, c) = byzantine_task_parts(values, n_plus_1, byz, rounds);
            Parts::Viewed(p, c)
        }
        SweepKey::Dynamic {
            n_plus_1,
            family,
            rounds,
        } => {
            let (p, c) = dynamic_task_parts(values, n_plus_1, family, rounds);
            Parts::Viewed(p, c)
        }
    });
    let complex = match &parts {
        Parts::Viewed(_, c) | Parts::SsViewed(_, c) => c,
    };
    t.count("models.builds", 1);
    t.count("models.vertices", complex.vertex_count());
    t.count("models.facets", complex.facet_count());
    parts
}

fn n_plus_1(key: &SweepKey) -> usize {
    match *key {
        SweepKey::Async { n_plus_1, .. }
        | SweepKey::Sync { n_plus_1, .. }
        | SweepKey::SemiSync { n_plus_1, .. }
        | SweepKey::Byzantine { n_plus_1, .. }
        | SweepKey::Dynamic { n_plus_1, .. } => n_plus_1,
    }
}

/// A prepared shared-key group, in either view label type.
enum Group {
    Viewed(PreparedInstance<View<u64>>),
    SsViewed(PreparedInstance<SsView<u64>>),
}

impl Group {
    /// Build, prepare and (with `symmetry`) certify and attach the
    /// task's symmetries: the sweeps' per-group phase A1.
    fn build(t: &mut Tracer, key: &SweepKey, values: &BTreeSet<u64>, symmetry: bool) -> Group {
        let n = n_plus_1(key);
        match build(t, key, values) {
            Parts::Viewed(pool, complex) => Group::Viewed(prepare(
                t,
                &pool,
                &complex,
                n,
                values,
                symmetry,
                allowed_values,
            )),
            Parts::SsViewed(pool, complex) => Group::SsViewed(prepare(
                t,
                &pool,
                &complex,
                n,
                values,
                symmetry,
                allowed_values_ss,
            )),
        }
    }

    fn vertex_count(&self) -> usize {
        match self {
            Group::Viewed(i) => i.vertex_count(),
            Group::SsViewed(i) => i.vertex_count(),
        }
    }

    fn fingerprint(&self) -> InstanceFingerprint {
        match self {
            Group::Viewed(i) => instance_fingerprint(i),
            Group::SsViewed(i) => instance_fingerprint(i),
        }
    }

    fn structural_key(&self) -> StructuralKey {
        match self {
            Group::Viewed(i) => StructuralKey::of(i),
            Group::SsViewed(i) => StructuralKey::of(i),
        }
    }

    fn exact_key(&self, t: &mut Tracer) -> Option<ExactKey> {
        t.count("symmetry.canon_calls", 1);
        let key = t.span("symmetry.canon", |_| match self {
            Group::Viewed(i) => instance_key(i),
            Group::SsViewed(i) => instance_key(i),
        });
        t.count("symmetry.canon_exact", usize::from(key.is_some()));
        key
    }

    fn solve(&self, t: &mut Tracer, k: usize, learning: bool) -> SolvabilityResult {
        match self {
            Group::Viewed(i) => solve(t, i, k, learning),
            Group::SsViewed(i) => solve(t, i, k, learning),
        }
    }
}

fn prepare<V: SymmetricView>(
    t: &mut Tracer,
    pool: &VertexPool<V>,
    complex: &IdComplex,
    n_plus_1: usize,
    values: &BTreeSet<u64>,
    symmetry: bool,
    allowed: fn(&V) -> BTreeSet<u64>,
) -> PreparedInstance<V> {
    let mut inst = t.span("solver.prepare", |_| {
        PreparedInstance::from_interned(pool, complex, allowed)
    });
    if symmetry {
        let (certified, kept) = t.span("symmetry.certify", |_| {
            let generators = process_transpositions(n_plus_1);
            let syms = task_symmetries(pool, complex, n_plus_1, &generators, values);
            let certified = syms.len();
            (certified, inst.attach_symmetries(syms))
        });
        t.count("symmetry.certified", certified);
        t.count("symmetry.kept", kept);
    }
    inst
}

fn solve<V: Label>(
    t: &mut Tracer,
    inst: &PreparedInstance<V>,
    k: usize,
    learning: bool,
) -> SolvabilityResult {
    let (solvable, stats) = t.span("solver.search", |_| {
        let mut solver = DecisionMapSolver::with_config(SolverConfig {
            learning,
            ..SolverConfig::default()
        });
        let map = solver.solve_prepared(inst, AgreementConstraint::AtMostKDistinct(k));
        (map.is_some(), solver.stats())
    });
    t.count("solver.calls", 1);
    t.count("solver.assignments", stats.assignments);
    t.count("solver.backtracks", stats.backtracks);
    t.count("solver.prunings", stats.prunings);
    t.count("solver.backjumps", stats.backjumps);
    t.count("solver.learned_nogoods", stats.learned_nogoods);
    t.count("solver.orbit_skips", stats.orbit_skips);
    SolvabilityResult {
        solvable,
        vertices: inst.vertex_count(),
        facets: inst.facet_count(),
    }
}
