//! The query-serving engine behind `psph serve`.
//!
//! A [`QueryEngine`] answers solvability queries ([`SweepPoint`]s) in
//! batches, concurrently over the [`ps_topology::parallel`] pool, with
//! three cache layers in front of the solver:
//!
//! 1. **Session verdicts** — a `(shared key, k)` map of everything
//!    answered since the engine started; repeat queries are O(log n)
//!    lookups touching no topology at all.
//! 2. **Structural store probe** — the instance's verbatim
//!    ([`crate::StructuralKey`]) address, cheap to compute, hits on
//!    any identically rebuilt instance (in particular, every warm
//!    re-run of a previously served query).
//! 3. **Canonical store probe, fingerprint pre-filtered** — before
//!    attempting the expensive exact canonicalization, the instance's
//!    cheap isomorphism-invariant fingerprint is checked against the
//!    store's fingerprint index. An absent fingerprint *proves* the
//!    canonical lookup would miss too, so the canonicalization is
//!    skipped on the probe path (counted in
//!    [`ServeMetrics::key_skips`]; the key may still be computed
//!    later, once, to persist the freshly solved verdict under its
//!    shareable canonical address).
//!
//! Misses are solved on the worker pool against warm
//! [`PreparedInstance`]s cached per `(model, n, f, r, k)` group —
//! building the protocol complex dominates repeat-query latency, so
//! instances outlive their first query. Newly solved verdicts are
//! persisted — always under their structural address, and additionally
//! under the exact canonical address when the size-gated
//! canonicalization succeeds (see [`crate::ExactKey`]) — and flushed
//! once per batch, making every batch boundary a durable checkpoint.
//!
//! [`PreparedInstance`]: crate::PreparedInstance

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::Instant;

use ps_topology::parallel::parallel_map;

use crate::experiments::{
    persist, probe, PreparedGroup, SolvabilityResult, SweepKey, SweepOptions,
    CANON_ATTEMPT_MAX_VERTICES,
};
use crate::store::VerdictStore;
use crate::symmetry::{ExactKey, StructuralKey};
use crate::SweepPoint;

/// Where a query's answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// Answered from the engine's in-memory session cache.
    Session,
    /// Replayed from the persistent verdict store.
    Store,
    /// Solved this batch (then persisted, when a store is attached).
    Solved,
}

impl std::fmt::Display for AnswerSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AnswerSource::Session => "session",
            AnswerSource::Store => "store",
            AnswerSource::Solved => "solved",
        })
    }
}

/// One answered query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The verdict (and the size of the complex it was decided on).
    pub result: SolvabilityResult,
    /// Which cache layer (or the solver) produced it.
    pub source: AnswerSource,
    /// Wall-clock cost attributed to this query's instance: complex
    /// build time plus solve time of the distinct `(group, k)` work
    /// item it mapped to (0 for session hits).
    pub micros: u128,
}

/// Running counters for a [`QueryEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Queries answered (including duplicates within a batch).
    pub queries: u64,
    /// Queries answered from the session cache.
    pub session_hits: u64,
    /// Queries answered from the persistent store.
    pub store_hits: u64,
    /// Queries whose work item was solved this session.
    pub solved: u64,
    /// Actual solver invocations (distinct work items solved —
    /// duplicates and cache hits never reach the solver).
    pub solver_calls: u64,
    /// Exact canonicalizations performed (probe or persist path).
    pub key_computations: u64,
    /// Store probes where the fingerprint pre-filter proved a miss,
    /// skipping the exact-key computation on the probe path.
    pub key_skips: u64,
    /// Protocol complexes built and prepared.
    pub prepared_builds: u64,
    /// Work items served by an already-warm prepared instance.
    pub prepared_reuses: u64,
    /// Verdicts newly persisted to the store.
    pub persisted: u64,
    /// Sum of per-query attributed latency.
    pub total_micros: u128,
    /// Largest per-query attributed latency.
    pub max_micros: u128,
}

impl ServeMetrics {
    /// Mean attributed latency per query (0 before any query).
    pub fn mean_micros(&self) -> u128 {
        if self.queries == 0 {
            0
        } else {
            self.total_micros / u128::from(self.queries)
        }
    }
}

/// A warm prepared instance plus its store addresses: the cheap
/// structural key (computed with the instance when a store is
/// attached), and the canonical key, computed lazily (`None` = not yet
/// attempted; `Some(None)` = attempted and gated off or budget-cut).
struct PreparedEntry {
    group: PreparedGroup,
    structural: Option<StructuralKey>,
    key: Option<Option<ExactKey>>,
    build_micros: u128,
}

/// The canonical key, attempting the size-gated canonicalization on
/// first use; bumps `key_computations` when an attempt actually runs.
fn canonical<'a>(
    key: &'a mut Option<Option<ExactKey>>,
    group: &PreparedGroup,
    metrics: &mut ServeMetrics,
) -> Option<&'a ExactKey> {
    key.get_or_insert_with(|| {
        if group.vertex_count() <= CANON_ATTEMPT_MAX_VERTICES {
            metrics.key_computations += 1;
        }
        group.key_gated()
    })
    .as_ref()
}

/// The long-running query engine: session cache, warm instances, and
/// an optional persistent store (module docs for the full pipeline).
pub struct QueryEngine {
    store: Option<VerdictStore>,
    threads: usize,
    opts: SweepOptions,
    session: BTreeMap<(SweepKey, usize), SolvabilityResult>,
    prepared: BTreeMap<(SweepKey, usize), PreparedEntry>,
    metrics: ServeMetrics,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("threads", &self.threads)
            .field("session", &self.session.len())
            .field("prepared", &self.prepared.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl QueryEngine {
    /// Creates an engine over `threads` workers; `store` attaches a
    /// persistent verdict store (probed before solving, extended and
    /// flushed after every batch).
    pub fn new(threads: usize, opts: SweepOptions, store: Option<VerdictStore>) -> QueryEngine {
        QueryEngine {
            store,
            threads,
            opts,
            session: BTreeMap::new(),
            prepared: BTreeMap::new(),
            metrics: ServeMetrics::default(),
        }
    }

    /// Running counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&VerdictStore> {
        self.store.as_ref()
    }

    /// Answers one batch of queries, in input order. Distinct
    /// `(group, k)` work items are resolved once — built and solved
    /// concurrently on the worker pool — and duplicate queries share
    /// the outcome. New verdicts are flushed to the store before the
    /// batch returns, so a served batch is a durable checkpoint.
    pub fn answer_batch(&mut self, queries: &[SweepPoint]) -> io::Result<Vec<QueryAnswer>> {
        // distinct work items, first-appearance order; session hits are
        // answered at once
        let mut outcomes: BTreeMap<(SweepKey, usize), (SolvabilityResult, AnswerSource, u128)> =
            BTreeMap::new();
        let mut seen: BTreeSet<(SweepKey, usize)> = BTreeSet::new();
        let mut todo: Vec<(SweepKey, usize)> = Vec::new();
        for q in queries {
            let item = (q.shared_key(), q.k());
            if !seen.insert(item.clone()) {
                continue;
            }
            match self.session.get(&item) {
                Some(r) => {
                    outcomes.insert(item, (r.clone(), AnswerSource::Session, 0));
                }
                None => todo.push(item),
            }
        }

        // build missing prepared instances concurrently (each over its
        // point's canonical value domain {0..=k})
        let missing: Vec<(SweepKey, usize)> = todo
            .iter()
            .filter(|it| !self.prepared.contains_key(*it))
            .cloned()
            .collect();
        let (symmetry, addressed) = (self.opts.symmetry, self.store.is_some());
        let built = parallel_map(&missing, self.threads, |_, (key, k)| {
            let t = Instant::now();
            let group = key.prepare(&(0..=*k as u64).collect(), symmetry);
            PreparedEntry {
                structural: addressed.then(|| group.structural_key()),
                group,
                key: None,
                build_micros: t.elapsed().as_micros(),
            }
        });
        self.metrics.prepared_builds += missing.len() as u64;
        self.metrics.prepared_reuses += (todo.len() - missing.len()) as u64;
        self.prepared.extend(missing.into_iter().zip(built));

        // store probe: structural address first, then the canonical
        // address behind the fingerprint pre-filter (an absent
        // fingerprint proves the canonical lookup would miss)
        let mut solve_items: Vec<(SweepKey, usize)> = Vec::new();
        for item in &todo {
            let entry = self.prepared.get_mut(item).expect("built above");
            let hit = match (&self.store, &entry.structural) {
                (Some(store), Some(structural)) => probe(store, structural, item.1, || {
                    if !store.contains_fingerprint(&entry.group.fingerprint()) {
                        self.metrics.key_skips += 1;
                        return None;
                    }
                    canonical(&mut entry.key, &entry.group, &mut self.metrics)
                }),
                _ => None,
            };
            match hit {
                Some(r) => {
                    let outcome = (r, AnswerSource::Store, entry.build_micros);
                    outcomes.insert(item.clone(), outcome);
                }
                None => solve_items.push(item.clone()),
            }
        }

        // solve the remaining items concurrently against warm instances
        let prepared = &self.prepared;
        let learning = self.opts.learning;
        let solved = parallel_map(&solve_items, self.threads, |_, item| {
            let t = Instant::now();
            let r = prepared[item].group.solve(item.1, learning);
            (r, t.elapsed().as_micros())
        });
        self.metrics.solver_calls += solve_items.len() as u64;

        // persist new verdicts — structural address always, canonical
        // address when available — then checkpoint
        for (item, (r, solve_micros)) in solve_items.into_iter().zip(solved) {
            let entry = self.prepared.get_mut(&item).expect("built above");
            if let (Some(store), Some(structural)) = (&mut self.store, &entry.structural) {
                let exact = canonical(&mut entry.key, &entry.group, &mut self.metrics);
                if persist(store, structural, exact, item.1, &r) {
                    self.metrics.persisted += 1;
                }
            }
            let micros = entry.build_micros + solve_micros;
            outcomes.insert(item, (r, AnswerSource::Solved, micros));
        }
        if let Some(store) = &mut self.store {
            store.flush()?;
        }

        // extend the session cache and emit answers in query order
        for item in &todo {
            self.session.insert(item.clone(), outcomes[item].0.clone());
        }
        let mut answers = Vec::with_capacity(queries.len());
        for q in queries {
            let (result, source, micros) = outcomes[&(q.shared_key(), q.k())].clone();
            self.metrics.queries += 1;
            match source {
                AnswerSource::Session => self.metrics.session_hits += 1,
                AnswerSource::Store => self.metrics.store_hits += 1,
                AnswerSource::Solved => self.metrics.solved += 1,
            }
            self.metrics.total_micros += micros;
            self.metrics.max_micros = self.metrics.max_micros.max(micros);
            answers.push(QueryAnswer {
                result,
                source,
                micros,
            });
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psph-serve-unit-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn grid() -> Vec<SweepPoint> {
        vec![
            SweepPoint::Async {
                k: 1,
                f: 1,
                n_plus_1: 3,
                rounds: 1,
            },
            SweepPoint::Async {
                k: 2,
                f: 1,
                n_plus_1: 3,
                rounds: 1,
            },
            SweepPoint::Sync {
                k: 1,
                f: 1,
                n_plus_1: 3,
                k_per_round: 1,
                rounds: 2,
            },
        ]
    }

    #[test]
    fn answers_match_per_point_solves() {
        let points = grid();
        let expected: Vec<SolvabilityResult> = points.iter().map(SweepPoint::run).collect();
        let mut engine = QueryEngine::new(2, SweepOptions::default(), None);
        let answers = engine.answer_batch(&points).unwrap();
        for ((a, e), p) in answers.iter().zip(&expected).zip(&points) {
            assert_eq!(a.result, *e, "{p:?}");
            assert_eq!(a.source, AnswerSource::Solved);
        }
        assert_eq!(engine.metrics().solver_calls, points.len() as u64);
    }

    #[test]
    fn repeat_batches_hit_the_session_cache() {
        let points = grid();
        let mut engine = QueryEngine::new(1, SweepOptions::default(), None);
        let first = engine.answer_batch(&points).unwrap();
        let second = engine.answer_batch(&points).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.result, b.result);
            assert_eq!(b.source, AnswerSource::Session);
        }
        // no new solver work on the repeat batch
        assert_eq!(engine.metrics().solver_calls, points.len() as u64);
        assert_eq!(engine.metrics().session_hits, points.len() as u64);
    }

    #[test]
    fn duplicate_queries_in_one_batch_share_work() {
        let mut points = grid();
        points.extend(grid());
        let mut engine = QueryEngine::new(2, SweepOptions::default(), None);
        let answers = engine.answer_batch(&points).unwrap();
        assert_eq!(answers.len(), 6);
        assert_eq!(answers[0].result, answers[3].result);
        assert_eq!(engine.metrics().solver_calls, 3);
        assert_eq!(engine.metrics().prepared_builds, 3);
    }

    #[test]
    fn store_round_trip_across_engines() {
        let dir = tmp_dir("roundtrip");
        let points = grid();
        let expected: Vec<SolvabilityResult> = points.iter().map(SweepPoint::run).collect();
        {
            let store = VerdictStore::open(&dir).unwrap();
            let mut engine = QueryEngine::new(2, SweepOptions::default(), Some(store));
            let answers = engine.answer_batch(&points).unwrap();
            for (a, e) in answers.iter().zip(&expected) {
                assert_eq!(a.result, *e);
            }
            // cold store: every probe is proven a miss by fingerprint
            assert_eq!(engine.metrics().key_skips, points.len() as u64);
            assert_eq!(engine.metrics().persisted, points.len() as u64);
        }
        // a fresh engine over the same store answers without solving
        let store = VerdictStore::open(&dir).unwrap();
        // every verdict has a structural record; canonicalizable
        // instances carry a canonical record too
        assert!(store.len() >= points.len());
        let mut engine = QueryEngine::new(2, SweepOptions::default(), Some(store));
        let answers = engine.answer_batch(&points).unwrap();
        for ((a, e), p) in answers.iter().zip(&expected).zip(&points) {
            assert_eq!(a.result, *e, "{p:?}");
            assert_eq!(a.source, AnswerSource::Store, "{p:?}");
        }
        assert_eq!(engine.metrics().solver_calls, 0);
        assert_eq!(engine.metrics().store_hits, points.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The `k = 2` points of the benchmark's `construct` grid.
    fn construct_points() -> Vec<SweepPoint> {
        vec![
            SweepPoint::Sync {
                k: 2,
                f: 1,
                n_plus_1: 5,
                k_per_round: 1,
                rounds: 1,
            },
            SweepPoint::Async {
                k: 2,
                f: 2,
                n_plus_1: 4,
                rounds: 1,
            },
            SweepPoint::Byzantine {
                k: 2,
                t: 1,
                n_plus_1: 4,
                rounds: 1,
            },
            SweepPoint::Dynamic {
                k: 2,
                n_plus_1: 3,
                family: ps_models::GraphFamily::Rooted,
                rounds: 1,
            },
        ]
    }

    /// Which of `points`' warm entries have certified their symmetries.
    fn certified(engine: &QueryEngine, points: &[SweepPoint]) -> Vec<bool> {
        let entry = |p: &SweepPoint| &engine.prepared[&(p.shared_key(), p.k())];
        points
            .iter()
            .map(|p| entry(p).group.certified().is_some())
            .collect()
    }

    #[test]
    fn store_hits_certify_nothing() {
        let dir = tmp_dir("certify");
        let points = construct_points();
        {
            let store = VerdictStore::open(&dir).unwrap();
            let mut cold = QueryEngine::new(2, SweepOptions::default(), Some(store));
            let answers = cold.answer_batch(&points).unwrap();
            assert!(answers.iter().all(|a| a.source == AnswerSource::Solved));
            // a miss certifies when its search refutes a candidate while
            // another is untried: async n+1=4 f=2 and dynamic rooted
            assert_eq!(certified(&cold, &points), [false, true, false, true]);
            // and only once: a warm instance keeps its certified set
            for p in &points {
                let entry = &cold.prepared[&(p.shared_key(), p.k())];
                let before = entry.group.certified().map(<[_]>::as_ptr);
                entry.group.solve(p.k(), true);
                assert_eq!(entry.group.certified().map(<[_]>::as_ptr), before);
            }
        }
        let store = VerdictStore::open(&dir).unwrap();
        let mut warm = QueryEngine::new(2, SweepOptions::default(), Some(store));
        let answers = warm.answer_batch(&points).unwrap();
        assert!(answers.iter().all(|a| a.source == AnswerSource::Store));
        assert_eq!(warm.metrics().prepared_builds, points.len() as u64);
        assert_eq!(certified(&warm, &points), [false; 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
