//! Experiment drivers: task protocol complexes and solver sweeps.
//!
//! The impossibility results of the paper (Theorem 9 / Corollaries 10,
//! 13; Theorem 18; Corollary 22) quantify over *every* protocol. Their
//! executable counterparts here quantify over every *decision map*: we
//! build the protocol complex of the full-information protocol over the
//! *entire* input complex (all value assignments, all participation
//! levels the failure budget allows) and run the exhaustive
//! [`DecisionMapSolver`]. "No decision map" on
//! the restricted well-behaved execution subset is a machine-checked
//! impossibility proof for the instance, because any protocol for the
//! model must in particular decide on those executions.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::{ProcessId, MAX_SUBSET_BASE};
use ps_models::{
    AsyncModel, ByzantineModel, DynamicModel, GraphFamily, InputSimplex, SemiSyncModel, SsView,
    SyncModel, View,
};
use ps_topology::parallel::parallel_map;
use ps_topology::{
    for_each_product, Complex, IdComplex, InternedBuilder, Label, Simplex, VertexPool,
};

use crate::solver::{AgreementConstraint, DecisionMapSolver, PreparedInstance};
use crate::store::{StoreKey, StoredVerdict, VerdictStore};
use crate::symmetry::{
    instance_fingerprint, instance_key, Certifier, ExactKey, StructuralKey, SymmetricView,
};
use crate::task::KSetAgreement;

/// Knobs for the sweep drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepOptions {
    /// Exploit task symmetries (on by default): let the solver
    /// orbit-branch on the task's process/value relabelings, certified
    /// as automorphisms when a search first needs them (at most once
    /// per prepared instance, and never for an instance whose searches
    /// refute no candidate with another still untried), and collapse
    /// canonically-isomorphic instance groups in
    /// [`solvability_sweep_shared_opts`] so each isomorphism class is
    /// solved once. Off certifies nothing.
    pub symmetry: bool,
    /// Conflict-driven nogood learning in the solver (on by default):
    /// explain dead ends, backjump over irrelevant decision levels, and
    /// consult learned nogoods during propagation. Off falls back to
    /// plain chronological backtracking — same verdicts, more search
    /// (see [`crate::SolverConfig::learning`]).
    pub learning: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            symmetry: true,
            learning: true,
        }
    }
}

/// All input faces of the task's input complex `ψ(Pⁿ; V)` with at least
/// `min_participants` participants: every subset of processes of
/// sufficient size, with every assignment of values to it.
///
/// Faces are returned **largest first**. The task-complex builders feed
/// them in this order, and the order fixes the result's vertex pool:
/// ids are assigned in discovery order, so the face order determines
/// pool ids and with them structural store addresses, the solver's
/// search order and every work counter. It no longer matters for speed:
/// [`IdComplex::add_simplex`] absorbs mixed-size facets through its
/// incidence index in any order.
///
/// # Panics
///
/// Panics if `n_plus_1` exceeds [`MAX_SUBSET_BASE`]: the process masks
/// are `u32`s, and a wider shift would wrap in release builds and
/// silently enumerate the wrong faces.
///
/// [`IdComplex::add_simplex`]: ps_topology::IdComplex::add_simplex
pub fn input_faces(
    n_plus_1: usize,
    values: &BTreeSet<u64>,
    min_participants: usize,
) -> Vec<InputSimplex<u64>> {
    assert!(
        n_plus_1 <= MAX_SUBSET_BASE,
        "input faces limited to ≤ {MAX_SUBSET_BASE} processes, got {n_plus_1}"
    );
    let vals: Vec<u64> = values.iter().copied().collect();
    let mut out = Vec::new();
    for mask in 0u32..(1 << n_plus_1) {
        let procs: Vec<ProcessId> = (0..n_plus_1 as u32)
            .filter(|i| mask & (1 << i) != 0)
            .map(ProcessId)
            .collect();
        if procs.len() < min_participants.max(1) {
            continue;
        }
        // all assignments values^|procs|, the first process's value
        // varying fastest (the tuple is read reversed)
        for_each_product(&vec![vals.clone(); procs.len()], |pick| {
            let face = procs.iter().copied().zip(pick.iter().rev().map(|&&v| v));
            out.push(Simplex::new(face.collect()));
        });
    }
    out.sort_by_key(|s| std::cmp::Reverse(s.len()));
    out
}

/// The validity domain of a full-information view: the inputs it has
/// (transitively) heard — exactly `∩ vals(S')` over the input simplexes
/// `S'` whose executions produce this view.
pub fn allowed_values(view: &View<u64>) -> BTreeSet<u64> {
    view.known_inputs().values().copied().collect()
}

/// [`allowed_values`] for semi-synchronous views.
pub fn allowed_values_ss(view: &SsView<u64>) -> BTreeSet<u64> {
    view.known_inputs().values().copied().collect()
}

/// The r-round asynchronous task complex `A^r` over the full input
/// complex (participation down to `n + 1 - f`), in interned form:
/// every input face's execution tree accumulates into **one** shared
/// vertex pool and facet anti-chain, so no per-face label complex (or
/// label-level union) is ever materialized.
pub fn async_task_parts(
    values: &BTreeSet<u64>,
    n_plus_1: usize,
    f: usize,
    rounds: usize,
) -> (VertexPool<View<u64>>, IdComplex) {
    let model = AsyncModel::new(n_plus_1, f);
    let mut out = InternedBuilder::new();
    for input in input_faces(n_plus_1, values, n_plus_1.saturating_sub(f)) {
        model.protocol_complex_into(&input, rounds, &mut out);
    }
    out.into_parts()
}

/// The r-round synchronous task complex `S^r` over the full input
/// complex, in interned form (see [`async_task_parts`]). Initial
/// crashes (non-participants) consume failure budget; later rounds
/// crash at most `k_per_round` each, within what remains.
pub fn sync_task_parts(
    values: &BTreeSet<u64>,
    n_plus_1: usize,
    k_per_round: usize,
    f_total: usize,
    rounds: usize,
) -> (VertexPool<View<u64>>, IdComplex) {
    let mut out = InternedBuilder::new();
    for input in input_faces(n_plus_1, values, n_plus_1.saturating_sub(f_total)) {
        let initial_crashes = n_plus_1 - input.len();
        let model = SyncModel::new(n_plus_1, k_per_round, f_total - initial_crashes);
        model.protocol_complex_into(&input, rounds, &mut out);
    }
    out.into_parts()
}

/// The r-round semi-synchronous task complex `M^r` over the full input
/// complex, in interned form (see [`async_task_parts`]).
pub fn semisync_task_parts(
    values: &BTreeSet<u64>,
    n_plus_1: usize,
    k_per_round: usize,
    f_total: usize,
    microrounds: u32,
    rounds: usize,
) -> (VertexPool<SsView<u64>>, IdComplex) {
    let mut out = InternedBuilder::new();
    for input in input_faces(n_plus_1, values, n_plus_1.saturating_sub(f_total)) {
        let initial_crashes = n_plus_1 - input.len();
        let model = SemiSyncModel::new(
            n_plus_1,
            k_per_round,
            f_total - initial_crashes,
            microrounds,
        );
        model.protocol_complex_into(&input, rounds, &mut out);
    }
    out.into_parts()
}

/// The r-round Byzantine-synchronous task complex over the full input
/// complex, in interned form (see [`async_task_parts`]). Byzantine
/// processes never crash, so participation is always full; every input
/// face assigns a value to every process, and each face unions the
/// execution trees of every faulty set `B` with `|B| ≤ t`.
pub fn byzantine_task_parts(
    values: &BTreeSet<u64>,
    n_plus_1: usize,
    t: usize,
    rounds: usize,
) -> (VertexPool<View<u64>>, IdComplex) {
    let model = ByzantineModel::new(n_plus_1, t);
    let mut out = InternedBuilder::new();
    for input in input_faces(n_plus_1, values, n_plus_1) {
        model.protocol_complex_into(&input, rounds, &mut out);
    }
    out.into_parts()
}

/// The r-round dynamic-network task complex over the full input
/// complex, in interned form (see [`async_task_parts`]). Processes
/// never crash under a message adversary, so participation is always
/// full.
pub fn dynamic_task_parts(
    values: &BTreeSet<u64>,
    n_plus_1: usize,
    family: GraphFamily,
    rounds: usize,
) -> (VertexPool<View<u64>>, IdComplex) {
    let model = DynamicModel::new(n_plus_1, family);
    let mut out = InternedBuilder::new();
    for input in input_faces(n_plus_1, values, n_plus_1) {
        model.protocol_complex_into(&input, rounds, &mut out);
    }
    out.into_parts()
}

/// The r-round asynchronous task complex: `A^r` over the full input
/// complex (participation down to `n + 1 - f`).
pub fn async_task_complex(
    task: &KSetAgreement,
    n_plus_1: usize,
    f: usize,
    rounds: usize,
) -> Complex<View<u64>> {
    let (pool, complex) = async_task_parts(&task.values, n_plus_1, f, rounds);
    Complex::from_interned(&pool, &complex)
}

/// The r-round synchronous task complex: `S^r` over the full input
/// complex. Initial crashes (non-participants) consume failure budget;
/// later rounds crash at most `k_per_round` each, within what remains.
pub fn sync_task_complex(
    task: &KSetAgreement,
    n_plus_1: usize,
    k_per_round: usize,
    f_total: usize,
    rounds: usize,
) -> Complex<View<u64>> {
    let (pool, complex) = sync_task_parts(&task.values, n_plus_1, k_per_round, f_total, rounds);
    Complex::from_interned(&pool, &complex)
}

/// The r-round semi-synchronous task complex: `M^r` over the full input
/// complex.
pub fn semisync_task_complex(
    task: &KSetAgreement,
    n_plus_1: usize,
    k_per_round: usize,
    f_total: usize,
    microrounds: u32,
    rounds: usize,
) -> Complex<SsView<u64>> {
    let (pool, complex) = semisync_task_parts(
        &task.values,
        n_plus_1,
        k_per_round,
        f_total,
        microrounds,
        rounds,
    );
    Complex::from_interned(&pool, &complex)
}

/// A task complex in interned form, in whichever view type its model
/// produces (see [`SweepKey::task_parts`]).
#[derive(Debug)]
pub enum TaskParts {
    /// Synchronous, asynchronous, Byzantine and dynamic complexes.
    Viewed(VertexPool<View<u64>>, IdComplex),
    /// Semi-synchronous complexes (microround-annotated views).
    SsViewed(VertexPool<SsView<u64>>, IdComplex),
}

impl TaskParts {
    /// The interned complex, without its labels.
    pub fn into_complex(self) -> IdComplex {
        match self {
            TaskParts::Viewed(_, complex) | TaskParts::SsViewed(_, complex) => complex,
        }
    }

    /// The prepare step every solver path shares: indexes the complex
    /// for search over the value domain `values`, moving the labels out
    /// of the pool, and keeps of the complex only its pseudosphere
    /// cover. With `symmetry`, the task's process/value relabelings
    /// (closed from transpositions, certified as automorphisms as
    /// [`crate::task_symmetries`] certifies them) are certified for
    /// orbit branching when the solver first needs them, not here.
    fn prepare(self, n_plus_1: usize, values: &BTreeSet<u64>, symmetry: bool) -> PreparedGroup {
        match self {
            TaskParts::Viewed(pool, c) => {
                PreparedGroup::Viewed(prepare(pool, c, allowed_values, n_plus_1, values, symmetry))
            }
            TaskParts::SsViewed(pool, c) => PreparedGroup::SsViewed(prepare(
                pool,
                c,
                allowed_values_ss,
                n_plus_1,
                values,
                symmetry,
            )),
        }
    }
}

/// [`TaskParts::prepare`] for one view type.
fn prepare<V: SymmetricView>(
    pool: VertexPool<V>,
    complex: IdComplex,
    allowed: fn(&V) -> BTreeSet<u64>,
    n_plus_1: usize,
    values: &BTreeSet<u64>,
    symmetry: bool,
) -> PreparedInstance<V> {
    let mut inst = PreparedInstance::from_parts(pool, &complex, allowed);
    if symmetry {
        let cover = complex.into_pseudosphere_cover();
        inst.defer_certification(Certifier::new(cover, n_plus_1, values));
    }
    inst
}

/// Outcome of a solvability check on one instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolvabilityResult {
    /// `true` iff a decision map exists.
    pub solvable: bool,
    /// Vertices of the protocol complex searched.
    pub vertices: usize,
    /// Facets of the protocol complex searched.
    pub facets: usize,
}

impl From<StoredVerdict> for SolvabilityResult {
    fn from(v: StoredVerdict) -> Self {
        SolvabilityResult {
            solvable: v.solvable,
            vertices: v.vertices as usize,
            facets: v.facets as usize,
        }
    }
}

impl From<&SolvabilityResult> for StoredVerdict {
    fn from(r: &SolvabilityResult) -> Self {
        StoredVerdict {
            solvable: r.solvable,
            vertices: r.vertices as u64,
            facets: r.facets as u64,
        }
    }
}

/// One solver run against a prepared instance. Only the verdict is
/// kept, so the witness stays dense and no vertex label is cloned.
fn solve_one<V: Label>(
    instance: &PreparedInstance<V>,
    k: usize,
    learning: bool,
) -> SolvabilityResult {
    let mut solver = DecisionMapSolver::with_config(crate::SolverConfig {
        learning,
        ..crate::SolverConfig::default()
    });
    let witness = solver.solve_dense(instance, AgreementConstraint::AtMostKDistinct(k));
    SolvabilityResult {
        solvable: witness.is_some(),
        vertices: instance.vertex_count(),
        facets: instance.facet_count(),
    }
}

/// Corollary 13 experiment: is r-round asynchronous k-set agreement
/// solvable (as a decision map) for this instance?
pub fn async_solvable(k: usize, f: usize, n_plus_1: usize, rounds: usize) -> SolvabilityResult {
    SweepPoint::Async {
        k,
        f,
        n_plus_1,
        rounds,
    }
    .run()
}

/// Theorem 18 experiment: one row of the round sweep — is r-round
/// synchronous k-set agreement solvable for this instance?
pub fn sync_solvable(
    k: usize,
    f: usize,
    n_plus_1: usize,
    k_per_round: usize,
    rounds: usize,
) -> SolvabilityResult {
    SweepPoint::Sync {
        k,
        f,
        n_plus_1,
        k_per_round,
        rounds,
    }
    .run()
}

/// Lemma 21 / Corollary 22 side experiment: is r-round semi-synchronous
/// k-set agreement solvable for this instance?
pub fn semisync_solvable(
    k: usize,
    f: usize,
    n_plus_1: usize,
    k_per_round: usize,
    microrounds: u32,
    rounds: usize,
) -> SolvabilityResult {
    SweepPoint::SemiSync {
        k,
        f,
        n_plus_1,
        k_per_round,
        microrounds,
        rounds,
    }
    .run()
}

/// Mendes–Herlihy experiment: is r-round Byzantine-synchronous k-set
/// agreement solvable (as a decision map on correct-process views) for
/// this instance?
pub fn byzantine_solvable(k: usize, t: usize, n_plus_1: usize, rounds: usize) -> SolvabilityResult {
    SweepPoint::Byzantine {
        k,
        t,
        n_plus_1,
        rounds,
    }
    .run()
}

/// Dynamic-network experiment (Rincon Galeana et al.): is r-round k-set
/// agreement under the oblivious message adversary `family` solvable
/// for this instance?
pub fn dynamic_solvable(
    k: usize,
    n_plus_1: usize,
    family: GraphFamily,
    rounds: usize,
) -> SolvabilityResult {
    SweepPoint::Dynamic {
        k,
        n_plus_1,
        family,
        rounds,
    }
    .run()
}

/// One `(model, n, r, k, f)` grid point of a solvability sweep.
///
/// A point names one of the model drivers plus its instance
/// parameters, so a whole parameter grid can be queued as data and
/// dispatched to the worker pool by [`solvability_sweep`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepPoint {
    /// [`async_solvable`]`(k, f, n_plus_1, rounds)`.
    Async {
        /// Agreement parameter `k`.
        k: usize,
        /// Failure budget `f`.
        f: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// Rounds `r`.
        rounds: usize,
    },
    /// [`sync_solvable`]`(k, f, n_plus_1, k_per_round, rounds)`.
    Sync {
        /// Agreement parameter `k`.
        k: usize,
        /// Failure budget `f`.
        f: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// Crashes allowed per round.
        k_per_round: usize,
        /// Rounds `r`.
        rounds: usize,
    },
    /// [`semisync_solvable`]`(k, f, n_plus_1, k_per_round, microrounds, rounds)`.
    SemiSync {
        /// Agreement parameter `k`.
        k: usize,
        /// Failure budget `f`.
        f: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// Crashes allowed per round.
        k_per_round: usize,
        /// Microrounds per round `p`.
        microrounds: u32,
        /// Rounds `r`.
        rounds: usize,
    },
    /// [`byzantine_solvable`]`(k, t, n_plus_1, rounds)`.
    Byzantine {
        /// Agreement parameter `k`.
        k: usize,
        /// Byzantine budget `t`.
        t: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// Rounds `r`.
        rounds: usize,
    },
    /// [`dynamic_solvable`]`(k, n_plus_1, family, rounds)`.
    Dynamic {
        /// Agreement parameter `k`.
        k: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// The oblivious adversary's graph family.
        family: GraphFamily,
        /// Rounds `r`.
        rounds: usize,
    },
}

/// The complex-determining parameters of a [`SweepPoint`]: everything
/// except the agreement parameter `k`. Points sharing a key search the
/// **same** protocol complex (once the value domain is fixed), which is
/// what [`solvability_sweep_shared`] exploits.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SweepKey {
    /// Asynchronous instance family.
    Async {
        /// Failure budget `f`.
        f: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// Rounds `r`.
        rounds: usize,
    },
    /// Synchronous instance family.
    Sync {
        /// Failure budget `f`.
        f: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// Crashes allowed per round.
        k_per_round: usize,
        /// Rounds `r`.
        rounds: usize,
    },
    /// Semi-synchronous instance family.
    SemiSync {
        /// Failure budget `f`.
        f: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// Crashes allowed per round.
        k_per_round: usize,
        /// Microrounds per round `p`.
        microrounds: u32,
        /// Rounds `r`.
        rounds: usize,
    },
    /// Byzantine-synchronous instance family.
    Byzantine {
        /// Byzantine budget `t`.
        t: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// Rounds `r`.
        rounds: usize,
    },
    /// Dynamic-network instance family.
    Dynamic {
        /// Number of processes `n + 1`.
        n_plus_1: usize,
        /// The oblivious adversary's graph family.
        family: GraphFamily,
        /// Rounds `r`.
        rounds: usize,
    },
}

impl SweepPoint {
    /// The agreement parameter `k` of this point.
    pub fn k(&self) -> usize {
        match *self {
            SweepPoint::Async { k, .. }
            | SweepPoint::Sync { k, .. }
            | SweepPoint::SemiSync { k, .. }
            | SweepPoint::Byzantine { k, .. }
            | SweepPoint::Dynamic { k, .. } => k,
        }
    }

    /// The complex-determining part of this point (everything but `k`).
    pub fn shared_key(&self) -> SweepKey {
        match *self {
            SweepPoint::Async {
                f,
                n_plus_1,
                rounds,
                ..
            } => SweepKey::Async {
                f,
                n_plus_1,
                rounds,
            },
            SweepPoint::Sync {
                f,
                n_plus_1,
                k_per_round,
                rounds,
                ..
            } => SweepKey::Sync {
                f,
                n_plus_1,
                k_per_round,
                rounds,
            },
            SweepPoint::SemiSync {
                f,
                n_plus_1,
                k_per_round,
                microrounds,
                rounds,
                ..
            } => SweepKey::SemiSync {
                f,
                n_plus_1,
                k_per_round,
                microrounds,
                rounds,
            },
            SweepPoint::Byzantine {
                t,
                n_plus_1,
                rounds,
                ..
            } => SweepKey::Byzantine {
                t,
                n_plus_1,
                rounds,
            },
            SweepPoint::Dynamic {
                n_plus_1,
                family,
                rounds,
                ..
            } => SweepKey::Dynamic {
                n_plus_1,
                family,
                rounds,
            },
        }
    }

    /// Rejects a point the builders cannot take: `k = 0` (no agreement
    /// task), a process count outside `1..=`[`MAX_SUBSET_BASE`] (the
    /// limit of the input-face and subset enumerations), a dynamic point
    /// above [`DynamicModel::MAX_PROCESSES`] (its graph masks), a
    /// semi-synchronous point without microrounds or with more than
    /// `2^`[`MAX_SUBSET_BASE`] failure patterns per round (`p^k` for
    /// `k = k_per_round`, the same budget as the subset enumerations),
    /// and a crash budget `f` or Byzantine budget `t` above `n`. Points
    /// from outside the program must pass it before they run: past
    /// these bounds the builders panic or abort on allocation, at
    /// `k = 0` the solver would answer for a task that does not exist,
    /// and a budget above `n` builds the complex of budget `n` (the
    /// builders saturate there), so its verdict would be labelled with
    /// a budget it was never computed for.
    pub fn check(&self) -> Result<(), String> {
        let n_plus_1 = self.shared_key().n_plus_1();
        if self.k() == 0 {
            return Err("k-set agreement needs k ≥ 1, got 0".into());
        }
        if !(1..=MAX_SUBSET_BASE).contains(&n_plus_1) {
            return Err(format!(
                "the process count must be in 1..={MAX_SUBSET_BASE}, got {n_plus_1}"
            ));
        }
        match *self {
            SweepPoint::Dynamic { .. } if n_plus_1 > DynamicModel::MAX_PROCESSES => Err(format!(
                "the dynamic model supports at most {} processes, got {n_plus_1}",
                DynamicModel::MAX_PROCESSES
            )),
            SweepPoint::SemiSync { microrounds: 0, .. } => {
                Err("the semi-synchronous model needs at least one microround, got 0".into())
            }
            SweepPoint::SemiSync {
                k_per_round,
                microrounds,
                ..
            } if u64::from(microrounds)
                .checked_pow(u32::try_from(k_per_round).unwrap_or(u32::MAX))
                .is_none_or(|patterns| patterns > 1 << MAX_SUBSET_BASE) =>
            {
                Err(format!(
                    "the semi-synchronous model takes at most 2^{MAX_SUBSET_BASE} failure \
                     patterns per round (p^k), got p = {microrounds}, k = {k_per_round}"
                ))
            }
            SweepPoint::Async { f, .. }
            | SweepPoint::Sync { f, .. }
            | SweepPoint::SemiSync { f, .. }
                if f >= n_plus_1 =>
            {
                Err(format!(
                    "the crash budget f must be at most n = {} for {n_plus_1} processes, got {f}",
                    n_plus_1 - 1
                ))
            }
            SweepPoint::Byzantine { t, .. } if t >= n_plus_1 => Err(format!(
                "the Byzantine budget t must be at most n = {} for {n_plus_1} processes, got {t}",
                n_plus_1 - 1
            )),
            _ => Ok(()),
        }
    }

    /// Runs this grid point's solver (serially, in the calling thread).
    pub fn run(&self) -> SolvabilityResult {
        self.run_opts(SweepOptions::default())
    }

    /// [`SweepPoint::run`] with explicit [`SweepOptions`] (symmetry
    /// exploitation, nogood learning): prepares the point's complex over
    /// its canonical value domain `{0, …, k}` and solves `k`.
    pub fn run_opts(&self, opts: SweepOptions) -> SolvabilityResult {
        let k = self.k();
        let values = (0..=k as u64).collect();
        self.shared_key()
            .prepare(&values, opts.symmetry)
            .solve(k, opts.learning)
    }
}

impl SweepKey {
    pub(crate) fn n_plus_1(&self) -> usize {
        match *self {
            SweepKey::Async { n_plus_1, .. }
            | SweepKey::Sync { n_plus_1, .. }
            | SweepKey::SemiSync { n_plus_1, .. }
            | SweepKey::Byzantine { n_plus_1, .. }
            | SweepKey::Dynamic { n_plus_1, .. } => n_plus_1,
        }
    }

    /// Builds this family's task complex over the value domain `values`.
    /// This is the one place a model meets its builder: every solver,
    /// store, serve and connectivity path builds through it.
    pub fn task_parts(&self, values: &BTreeSet<u64>) -> TaskParts {
        let (pool, complex) = match *self {
            SweepKey::Async {
                f,
                n_plus_1,
                rounds,
            } => async_task_parts(values, n_plus_1, f, rounds),
            SweepKey::Sync {
                f,
                n_plus_1,
                k_per_round,
                rounds,
            } => sync_task_parts(values, n_plus_1, k_per_round, f, rounds),
            SweepKey::SemiSync {
                f,
                n_plus_1,
                k_per_round,
                microrounds,
                rounds,
            } => {
                let (pool, complex) =
                    semisync_task_parts(values, n_plus_1, k_per_round, f, microrounds, rounds);
                return TaskParts::SsViewed(pool, complex);
            }
            SweepKey::Byzantine {
                t,
                n_plus_1,
                rounds,
            } => byzantine_task_parts(values, n_plus_1, t, rounds),
            SweepKey::Dynamic {
                n_plus_1,
                family,
                rounds,
            } => dynamic_task_parts(values, n_plus_1, family, rounds),
        };
        TaskParts::Viewed(pool, complex)
    }

    /// [`SweepKey::task_parts`] prepared for search over `values`, with
    /// the task's symmetries certified on the solver's first need when
    /// `symmetry` (see [`TaskParts::prepare`]).
    pub(crate) fn prepare(&self, values: &BTreeSet<u64>, symmetry: bool) -> PreparedGroup {
        self.task_parts(values)
            .prepare(self.n_plus_1(), values, symmetry)
    }
}

/// Runs every grid point as an independent job on a worker pool of
/// `threads` threads (see [`ps_topology::parallel`]). Results come back
/// in input order regardless of scheduling, so the output is identical
/// to running each point serially.
pub fn solvability_sweep(points: &[SweepPoint], threads: usize) -> Vec<SolvabilityResult> {
    solvability_sweep_opts(points, threads, SweepOptions::default())
}

/// [`solvability_sweep`] with explicit [`SweepOptions`] (per-point
/// symmetry exploitation only — the independent path never shares
/// complexes, so there is nothing to deduplicate).
pub fn solvability_sweep_opts(
    points: &[SweepPoint],
    threads: usize,
    opts: SweepOptions,
) -> Vec<SolvabilityResult> {
    parallel_map(points, threads, |_, p| p.run_opts(opts))
}

/// Amortized sweep: points are grouped by [`SweepPoint::shared_key`],
/// and each group builds its protocol complex, interns it, and indexes
/// its facets **once**, then solves every `k` of the group against that
/// one [`PreparedInstance`]. Each group is one job on the worker pool;
/// results come back in input order, so the output is identical across
/// thread counts.
///
/// **Value domain.** A group containing several `k` values needs a
/// single input domain, so the whole group runs on the fixed domain
/// `{0, …, k_max}` (where `k_max` is the group's largest `k`) rather
/// than each point's per-`k` canonical domain `{0, …, k}`. A point with
/// `k == k_max` is therefore *exactly* its canonical instance; a point
/// with smaller `k` is its canonical task posed over the group's larger
/// input domain — a harder instance, since any decision map restricts
/// to the canonical sub-domain. For the crash-failure models the
/// solvability threshold is domain-size-independent, so verdicts agree
/// with [`solvability_sweep`]. For the Byzantine and dynamic models no
/// such argument is on record; `tests/model_differential.rs` checks
/// the agreement by sweeping every `k` of a key in one call
/// (Byzantine n+1=3, t≤1, r=1, k≤2; dynamic rooted and strong, n+1=2
/// r≤2 k≤3 and n+1=3 r=1 k≤2). The reported `vertices`/`facets`
/// describe the complex actually searched, which for `k < k_max` is
/// larger than the canonical one.
pub fn solvability_sweep_shared(points: &[SweepPoint], threads: usize) -> Vec<SolvabilityResult> {
    solvability_sweep_shared_opts(points, threads, SweepOptions::default())
}

/// A prepared shared-key group: the two view label types a [`SweepKey`]
/// can produce, behind one enum so heterogeneous groups travel through
/// the sweep's phases together (and stay warm across [`crate::serve`]
/// batches).
pub(crate) enum PreparedGroup {
    /// Synchronous / asynchronous instances (plain views).
    Viewed(PreparedInstance<View<u64>>),
    /// Semi-synchronous instances (microround-annotated views).
    SsViewed(PreparedInstance<SsView<u64>>),
}

/// Vertex-count gate on canonicalization attempts in store-addressed
/// paths: above this size an exact canonical form is out of reach at
/// [`ps_symmetry::canon::DEFAULT_BUDGET`] for the task complexes seen
/// in practice, and even the *failed* attempt costs seconds, so large
/// groups go straight to their structural address.
pub(crate) const CANON_ATTEMPT_MAX_VERTICES: usize = 512;

impl PreparedGroup {
    pub(crate) fn key(&self) -> Option<ExactKey> {
        match self {
            PreparedGroup::Viewed(inst) => instance_key(inst),
            PreparedGroup::SsViewed(inst) => instance_key(inst),
        }
    }

    /// [`Self::key`] behind the [`CANON_ATTEMPT_MAX_VERTICES`] gate:
    /// `None` either because the group is too large to attempt or
    /// because the attempt exhausted its budget.
    pub(crate) fn key_gated(&self) -> Option<ExactKey> {
        (self.vertex_count() <= CANON_ATTEMPT_MAX_VERTICES).then(|| self.key())?
    }

    pub(crate) fn structural_key(&self) -> StructuralKey {
        match self {
            PreparedGroup::Viewed(inst) => StructuralKey::of(inst),
            PreparedGroup::SsViewed(inst) => StructuralKey::of(inst),
        }
    }

    pub(crate) fn vertex_count(&self) -> usize {
        match self {
            PreparedGroup::Viewed(inst) => inst.vertex_count(),
            PreparedGroup::SsViewed(inst) => inst.vertex_count(),
        }
    }

    pub(crate) fn fingerprint(&self) -> crate::symmetry::InstanceFingerprint {
        match self {
            PreparedGroup::Viewed(inst) => instance_fingerprint(inst),
            PreparedGroup::SsViewed(inst) => instance_fingerprint(inst),
        }
    }

    pub(crate) fn solve(&self, k: usize, learning: bool) -> SolvabilityResult {
        match self {
            PreparedGroup::Viewed(inst) => solve_one(inst, k, learning),
            PreparedGroup::SsViewed(inst) => solve_one(inst, k, learning),
        }
    }

    /// The symmetries the group's deferred certification kept, once it
    /// has run.
    #[cfg(test)]
    pub(crate) fn certified(&self) -> Option<&[crate::InstanceSymmetry]> {
        match self {
            PreparedGroup::Viewed(inst) => inst.certified(),
            PreparedGroup::SsViewed(inst) => inst.certified(),
        }
    }
}

/// The plumbing every grouped sweep shares: groups `points` by
/// [`SweepPoint::shared_key`] (in key order) and runs `job` once per
/// group on the worker pool, over the group's value domain
/// `{0, …, k_max}` and with the indices of its points. Returns each
/// group's point indices beside its job's output, in group order.
fn grouped<T: Send>(
    points: &[SweepPoint],
    threads: usize,
    job: impl Fn(&SweepKey, &BTreeSet<u64>, &[usize]) -> T + Sync,
) -> (Vec<Vec<usize>>, Vec<T>) {
    let mut groups: BTreeMap<SweepKey, Vec<usize>> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        groups.entry(p.shared_key()).or_default().push(i);
    }
    let groups: Vec<(SweepKey, Vec<usize>)> = groups.into_iter().collect();
    let out = parallel_map(&groups, threads, |_, (key, idxs)| {
        let k_max = idxs.iter().map(|&i| points[i].k()).max();
        let k_max = k_max.expect("group is nonempty") as u64;
        job(key, &(0..=k_max).collect(), idxs)
    });
    (groups.into_iter().map(|(_, idxs)| idxs).collect(), out)
}

/// Puts `(point index, answer)` pairs back in input order.
fn scatter<T>(len: usize, answers: impl IntoIterator<Item = (usize, T)>) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (i, answer) in answers {
        out[i] = Some(answer);
    }
    out.into_iter()
        .map(|r| r.expect("every point belongs to exactly one group"))
        .collect()
}

/// Each solver class's agreement parameters — the union over its member
/// groups, ascending — beside its class representative `rep_of[j]` of
/// group `j`, in representative order.
fn class_ks(
    points: &[SweepPoint],
    groups: &[Vec<usize>],
    rep_of: &[usize],
) -> Vec<(usize, Vec<usize>)> {
    let mut class_ks: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (idxs, &rep) in groups.iter().zip(rep_of) {
        let ks = class_ks.entry(rep).or_default();
        ks.extend(idxs.iter().map(|&i| points[i].k()));
    }
    class_ks
        .into_iter()
        .map(|(rep, ks)| (rep, ks.into_iter().collect()))
        .collect()
}

/// Solves every `(representative, ks)` job against the representative's
/// prepared group, one job per worker; verdicts come back keyed by
/// `(representative, k)`, in job order.
fn solve_classes(
    built: &[PreparedGroup],
    jobs: &[(usize, Vec<usize>)],
    threads: usize,
    learning: bool,
) -> Vec<((usize, usize), SolvabilityResult)> {
    let solved = parallel_map(jobs, threads, |_, (rep, ks)| {
        let prepared = &built[*rep];
        let verdicts = ks.iter().map(|&k| ((*rep, k), prepared.solve(k, learning)));
        verdicts.collect::<Vec<_>>()
    });
    solved.into_iter().flatten().collect()
}

/// Replays each class's verdicts to every member point. Class members
/// are isomorphic instances, so the vertex/facet counts replayed with
/// the verdict are the members' own.
fn replay(
    points: &[SweepPoint],
    groups: &[Vec<usize>],
    rep_of: &[usize],
    verdicts: &BTreeMap<(usize, usize), SolvabilityResult>,
) -> Vec<SolvabilityResult> {
    let answers = groups.iter().zip(rep_of).flat_map(|(idxs, &rep)| {
        idxs.iter()
            .map(move |&i| (i, verdicts[&(rep, points[i].k())].clone()))
    });
    scatter(points.len(), answers)
}

/// [`solvability_sweep_shared`] with explicit [`SweepOptions`].
///
/// With `symmetry` on, an extra deduplication layer runs between
/// building and solving: groups whose prepared instances have colliding
/// cheap fingerprints (vertex count, facet-size multiset, domain
/// multiset) are canonicalized ([`crate::symmetry::instance_key`]), and
/// groups with **equal exact canonical keys** — isomorphic colored
/// complexes, e.g. distinct `k_per_round` values that both exceed the
/// remaining crash budget — form one class solved once per `k`; the
/// cached verdicts are replayed to every member. Canonicalization is
/// only attempted on fingerprint collisions, and inexact (budget-cut)
/// keys never merge classes, so the dedupe is pure amortization: the
/// output is identical to solving every group, and identical across
/// thread counts.
pub fn solvability_sweep_shared_opts(
    points: &[SweepPoint],
    threads: usize,
    opts: SweepOptions,
) -> Vec<SolvabilityResult> {
    let (groups, built) = grouped(points, threads, |key, values, _| {
        key.prepare(values, opts.symmetry)
    });

    // Serial: find fingerprint collisions; parallel: canonicalize only
    // the colliding groups; serial: merge groups with equal exact keys
    // into classes, `rep_of[j]` = solving representative.
    let mut rep_of: Vec<usize> = (0..groups.len()).collect();
    if opts.symmetry && groups.len() > 1 {
        let mut by_fp: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for (j, g) in built.iter().enumerate() {
            by_fp.entry(g.fingerprint()).or_default().push(j);
        }
        let colliding: Vec<usize> = by_fp
            .into_values()
            .filter(|js| js.len() > 1)
            .flatten()
            .collect();
        let keys = parallel_map(&colliding, threads, |_, &j| built[j].key());
        let mut by_key: BTreeMap<ExactKey, usize> = BTreeMap::new();
        for (&j, key) in colliding.iter().zip(keys) {
            let Some(key) = key else { continue };
            rep_of[j] = *by_key.entry(key).or_insert(j);
        }
    }

    // Each class representative solves the union of its members'
    // agreement parameters once.
    let jobs = class_ks(points, &groups, &rep_of);
    let verdicts = solve_classes(&built, &jobs, threads, opts.learning);
    replay(points, &groups, &rep_of, &verdicts.into_iter().collect())
}

/// The mod-2 homological connectivity verdict of one sweep point
/// (see [`connectivity_sweep_shared`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectivityResult {
    /// Vertices of the protocol complex actually queried.
    pub vertices: usize,
    /// Facets of the protocol complex actually queried.
    pub facets: usize,
    /// The queried connectivity level `q = k − 1`.
    pub q: i32,
    /// `true` iff the complex is homologically `q`-connected over GF(2)
    /// (reduced mod-2 Betti numbers vanish through dimension `q`).
    /// Refutation-sound up to 2-torsion, like
    /// [`ps_topology::ConnectivityAnalyzer::mod2`].
    pub connected: bool,
    /// Coboundary columns assembled in the group's shared
    /// [`ps_topology::PreparedBoundary`] by the time this point was
    /// answered: one for the augmentation, then one per `(d−1)`-simplex
    /// for each `δ^{d−1}` reduced so far (cumulative within the group —
    /// later points of a group reuse the earlier points' columns, which
    /// is the point).
    pub assembled_columns: u64,
    /// Column additions performed reducing coboundaries in the group's
    /// shared cache so far (cumulative within the group, like
    /// `assembled_columns`).
    pub additions: u64,
}

/// Amortized connectivity sweep: the protocol-complex side of the
/// paper's solvability characterizations ("`k`-set agreement needs a
/// `(k−1)`-connected obstruction to fail"), asked directly of the
/// complexes. Points are grouped by [`SweepPoint::shared_key`]; each
/// group builds its interned complex **once**, prepares **one**
/// [`ps_topology::PreparedBoundary`] over it, and answers every `k` of the group as
/// an is-`(k−1)`-connected query against that one cache, ascending in
/// `k` so each query extends the previous one's reduced prefix instead
/// of re-reducing. Groups are independent jobs on the worker pool and
/// results scatter back by input index, so the output is identical
/// across thread counts.
///
/// **Value domain.** As in [`solvability_sweep_shared`], a group runs
/// on the fixed domain `{0, …, k_max}` of its largest `k`, so the
/// complex queried for a smaller `k` is the larger-domain one (the
/// reported `vertices`/`facets` describe it).
pub fn connectivity_sweep_shared(points: &[SweepPoint], threads: usize) -> Vec<ConnectivityResult> {
    let (_, answered) = grouped(points, threads, |key, values, idxs| {
        // the labels are not needed: drop the pool before the boundary
        let complex = key.task_parts(values).into_complex();
        let (vertices, facets) = (complex.vertex_count(), complex.facet_count());
        let mut pb = ps_topology::PreparedBoundary::of_id_complex(&complex);
        // the cache keeps its own copy of the facets
        drop(complex);
        // ascending k: each query extends the cached reduced prefix
        let mut order = idxs.to_vec();
        order.sort_by_key(|&i| points[i].k());
        let answers = order.into_iter().map(|i| {
            let q = points[i].k() as i32 - 1;
            let connected = pb.is_q_connected(q);
            let result = ConnectivityResult {
                vertices,
                facets,
                q,
                connected,
                assembled_columns: pb.assembled_columns(),
                additions: pb.stats().additions,
            };
            (i, result)
        });
        answers.collect::<Vec<_>>()
    });
    scatter(points.len(), answered.into_iter().flatten())
}

/// Metrics from one store-backed sweep ([`solvability_sweep_shared_store`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSweepReport {
    /// Shared-key groups the grid decomposed into.
    pub groups: usize,
    /// Canonical classes after merging groups with equal exact keys.
    pub classes: usize,
    /// `(class, k)` verdicts replayed from the store.
    pub store_hits: usize,
    /// `(class, k)` verdicts actually solved this run.
    pub solver_calls: usize,
    /// Newly solved verdicts persisted (every solved verdict gets at
    /// least a structural record; classes with exact canonical keys get
    /// a canonical record too).
    pub persisted: usize,
    /// Groups without an exact canonical key (canonicalization gated
    /// off by size or cut by its budget): addressed structurally only,
    /// so their verdicts replay on identical rebuilds but never
    /// transfer to merely-isomorphic instances.
    pub inexact_keys: usize,
}

/// The store probe of [`solvability_sweep_shared_store`] and
/// [`crate::QueryEngine`]: `k`'s verdict under the instance's structural
/// address, else under the canonical address of the key `canonical`
/// yields. `canonical` runs only after a structural miss, so a caller
/// may compute the key lazily or decline to.
pub(crate) fn probe<'a>(
    store: &VerdictStore,
    structural: &StructuralKey,
    k: usize,
    canonical: impl FnOnce() -> Option<&'a ExactKey>,
) -> Option<SolvabilityResult> {
    let constraint = AgreementConstraint::AtMostKDistinct(k);
    store
        .get(&StoreKey::structural(structural, constraint))
        .or_else(|| store.get(&StoreKey::new(canonical()?, constraint)))
        .map(SolvabilityResult::from)
}

/// The persist step paired with [`probe`]: records `k`'s verdict under
/// the structural address, and under the canonical one when `exact` is
/// known. Returns `true` when either record is new.
pub(crate) fn persist(
    store: &mut VerdictStore,
    structural: &StructuralKey,
    exact: Option<&ExactKey>,
    k: usize,
    r: &SolvabilityResult,
) -> bool {
    let constraint = AgreementConstraint::AtMostKDistinct(k);
    let mut persisted = store.insert(&StoreKey::structural(structural, constraint), r.into());
    if let Some(key) = exact {
        persisted |= store.insert(&StoreKey::new(key, constraint), r.into());
    }
    persisted
}

/// [`solvability_sweep_shared_opts`] warm-started from (and persisting
/// into) a [`VerdictStore`] — the checkpointed/resumable sweep.
///
/// Every group is addressed twice over: a cheap **structural** key
/// (the instance encoded verbatim — always available, hits on any
/// identical rebuild) and, when the size-gated canonicalization
/// attempt succeeds, the **exact canonical** key (hits transfer across
/// isomorphic instances). Groups with equal exact keys merge into one
/// class; groups without exact keys merge only on structural equality.
/// Each `(class, k)` pair is looked up structurally, then canonically;
/// hits replay the stored verdict — relabeling preserves vertex and
/// facet counts, so a hit's replayed counts are byte-identical to what
/// a cold solve of the same grid would report. Misses are solved in
/// chunks of `threads` classes with a [`VerdictStore::flush`]
/// checkpoint after each chunk: a killed sweep loses at most one chunk
/// of solver work and no previously flushed verdict, and re-running
/// the same grid resumes from what survived. A budget-cut
/// canonicalization never produces a key at all ([`crate::ExactKey`]
/// is unforgeable), so the store cannot be poisoned by an inexact
/// canonical form — the fallback address is the verbatim instance,
/// which is exact by construction.
///
/// Verdict output is identical to [`solvability_sweep_shared_opts`]
/// with `symmetry` on, and identical across thread counts and
/// cold/warm splits.
pub fn solvability_sweep_shared_store(
    points: &[SweepPoint],
    threads: usize,
    opts: SweepOptions,
    store: &mut VerdictStore,
) -> std::io::Result<(Vec<SolvabilityResult>, StoreSweepReport)> {
    let (groups, built) = grouped(points, threads, |key, values, _| {
        key.prepare(values, opts.symmetry)
    });

    // Address every group (parallel): a cheap structural key always,
    // plus the exact canonical key when the (size-gated)
    // canonicalization attempt succeeds.
    let keys: Vec<(StructuralKey, Option<ExactKey>)> =
        parallel_map(&built, threads, |_, g| (g.structural_key(), g.key_gated()));
    let mut rep_of: Vec<usize> = (0..groups.len()).collect();
    let mut by_exact: BTreeMap<&ExactKey, usize> = BTreeMap::new();
    let mut by_structural: BTreeMap<&StructuralKey, usize> = BTreeMap::new();
    for (j, (structural, exact)) in keys.iter().enumerate() {
        rep_of[j] = match exact {
            Some(key) => *by_exact.entry(key).or_insert(j),
            None => *by_structural.entry(structural).or_insert(j),
        };
    }
    let class_ks = class_ks(points, &groups, &rep_of);
    let mut report = StoreSweepReport {
        groups: groups.len(),
        classes: class_ks.len(),
        inexact_keys: keys.iter().filter(|(_, k)| k.is_none()).count(),
        ..StoreSweepReport::default()
    };

    // Warm start: replay every stored (class, k) verdict; what's left
    // becomes solver work.
    let mut verdicts: BTreeMap<(usize, usize), SolvabilityResult> = BTreeMap::new();
    let mut miss_jobs: Vec<(usize, Vec<usize>)> = Vec::new();
    for (rep, ks) in class_ks {
        let (structural, exact) = &keys[rep];
        let mut missing = Vec::new();
        for k in ks {
            match probe(store, structural, k, || exact.as_ref()) {
                Some(r) => {
                    report.store_hits += 1;
                    verdicts.insert((rep, k), r);
                }
                None => missing.push(k),
            }
        }
        if !missing.is_empty() {
            miss_jobs.push((rep, missing));
        }
    }

    // Solve the misses in chunks of `threads` classes (parallel),
    // flushing a new segment after each chunk so a kill loses at most
    // one chunk of work.
    for chunk in miss_jobs.chunks(threads.max(1)) {
        for ((rep, k), r) in solve_classes(&built, chunk, threads, opts.learning) {
            report.solver_calls += 1;
            let (structural, exact) = &keys[rep];
            if persist(store, structural, exact.as_ref(), k, &r) {
                report.persisted += 1;
            }
            verdicts.insert((rep, k), r);
        }
        store.flush()?;
    }
    Ok((replay(points, &groups, &rep_of, &verdicts), report))
}

/// Approximate-agreement experiment: is there a decision map on the
/// r-round asynchronous complex whose values (a) are within the convex
/// hull of known inputs (validity) and (b) span at most `range` on every
/// simplex? The classical contrast with Corollary 13: *approximate*
/// agreement IS asynchronously solvable, and the solver exhibits maps at
/// coarse ranges while consensus (`range = 0`) stays impossible.
pub fn async_approximate_solvable(
    range: u64,
    values: &BTreeSet<u64>,
    f: usize,
    n_plus_1: usize,
    rounds: usize,
) -> SolvabilityResult {
    let (pool, complex) = async_task_parts(values, n_plus_1, f, rounds);
    // validity for approximate agreement: anywhere in the inclusive hull
    // of the inputs the view has seen
    let hull = |v: &View<u64>| -> BTreeSet<u64> {
        let known: BTreeSet<u64> = v.known_inputs().values().copied().collect();
        match (known.first(), known.last()) {
            (Some(&lo), Some(&hi)) => (lo..=hi).collect(),
            _ => BTreeSet::new(),
        }
    };
    let inst = PreparedInstance::from_parts(pool, &complex, hull);
    SolvabilityResult {
        solvable: DecisionMapSolver::new()
            .solve_dense(&inst, AgreementConstraint::MaxRange(range))
            .is_some(),
        vertices: complex.vertex_count(),
        facets: complex.facet_count(),
    }
}

/// Corollary 10's hypothesis and conclusion, evaluated on one
/// asynchronous instance.
#[derive(Clone, Debug)]
pub struct Corollary10Report {
    /// Per participation level `m` (from `n - f` to `n`): whether
    /// `A^r(S^m)` was certified `(m - (n - k) - 1)`-connected.
    pub connectivity_checks: Vec<(i32, bool)>,
    /// Whether every participation level passed.
    pub hypothesis_holds: bool,
    /// Whether the exhaustive solver found NO decision map.
    pub no_decision_map: bool,
}

impl Corollary10Report {
    /// `true` when the instance is consistent with Corollary 10
    /// (hypothesis fails, or hypothesis and conclusion both hold).
    pub fn consistent(&self) -> bool {
        !self.hypothesis_holds || self.no_decision_map
    }
}

/// Evaluates Corollary 10 on the asynchronous model with `f = k`:
/// checks the connectivity hypothesis `P(S^m)` is
/// `(m - (n - k) - 1)`-connected for `n - f ≤ m ≤ n` (via homology +
/// π₁ certificates on a fixed input face of each size), then runs the
/// solver for the conclusion.
pub fn corollary10_async(k: usize, n_plus_1: usize, rounds: usize) -> Corollary10Report {
    use ps_topology::ConnectivityAnalyzer;

    let f = k;
    let n = n_plus_1 as i32 - 1;
    let model = AsyncModel::new(n_plus_1, f);
    let task = KSetAgreement::canonical(k);
    let mut connectivity_checks = Vec::new();
    for m in (n - f as i32)..=n {
        // a fixed input face with m+1 participants and the canonical values
        let vals: Vec<u64> = task.values.iter().copied().collect();
        let input: InputSimplex<u64> = Simplex::new(
            (0..=(m as usize))
                .map(|i| (ProcessId(i as u32), vals[i % vals.len()]))
                .collect(),
        );
        let complex = model.protocol_complex(&input, rounds);
        let claimed = m - (n - k as i32) - 1;
        let ok = ConnectivityAnalyzer::new(&complex)
            .is_k_connected(claimed)
            .is_yes();
        connectivity_checks.push((m, ok));
    }
    let hypothesis_holds = connectivity_checks.iter().all(|(_, ok)| *ok);
    let solver = async_solvable(k, f, n_plus_1, rounds);
    Corollary10Report {
        connectivity_checks,
        hypothesis_holds,
        no_decision_map: !solver.solvable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_serial_loop() {
        let points = vec![
            SweepPoint::Async {
                k: 1,
                f: 1,
                n_plus_1: 2,
                rounds: 1,
            },
            SweepPoint::Sync {
                k: 1,
                f: 1,
                n_plus_1: 2,
                k_per_round: 1,
                rounds: 1,
            },
            SweepPoint::Sync {
                k: 1,
                f: 1,
                n_plus_1: 2,
                k_per_round: 1,
                rounds: 2,
            },
            SweepPoint::SemiSync {
                k: 1,
                f: 1,
                n_plus_1: 2,
                k_per_round: 1,
                microrounds: 2,
                rounds: 1,
            },
            SweepPoint::Async {
                k: 2,
                f: 1,
                n_plus_1: 3,
                rounds: 1,
            },
        ];
        let serial: Vec<_> = points.iter().map(SweepPoint::run).collect();
        for threads in [1, 2, 4] {
            assert_eq!(
                solvability_sweep(&points, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn shared_sweep_matches_per_point_verdicts() {
        // A mixed grid with several points per shared key (k varies) and
        // several keys. The shared sweep fixes each group's value domain
        // to {0..=k_max}, so vertex/facet counts may exceed the
        // per-point canonical ones, but the verdicts must agree.
        let mut points = Vec::new();
        for k in 1..=2usize {
            points.push(SweepPoint::Async {
                k,
                f: 1,
                n_plus_1: 3,
                rounds: 1,
            });
            points.push(SweepPoint::Sync {
                k,
                f: 1,
                n_plus_1: 3,
                k_per_round: 1,
                rounds: 2,
            });
        }
        points.push(SweepPoint::SemiSync {
            k: 1,
            f: 1,
            n_plus_1: 2,
            k_per_round: 1,
            microrounds: 2,
            rounds: 1,
        });
        for k in 1..=2usize {
            points.push(SweepPoint::Byzantine {
                k,
                t: 1,
                n_plus_1: 3,
                rounds: 1,
            });
        }
        points.push(SweepPoint::Dynamic {
            k: 1,
            n_plus_1: 2,
            family: GraphFamily::Rooted,
            rounds: 1,
        });
        points.push(SweepPoint::Dynamic {
            k: 1,
            n_plus_1: 2,
            family: GraphFamily::StronglyConnected,
            rounds: 1,
        });
        let canonical = solvability_sweep(&points, 1);
        let shared = solvability_sweep_shared(&points, 1);
        assert_eq!(shared.len(), canonical.len());
        for (i, (s, c)) in shared.iter().zip(&canonical).enumerate() {
            assert_eq!(s.solvable, c.solvable, "point {i}: {:?}", points[i]);
        }
        // deterministic across thread counts
        for threads in [2, 3, 8] {
            assert_eq!(
                solvability_sweep_shared(&points, threads),
                shared,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn shared_sweep_collapses_isomorphic_groups() {
        // sync n=3, r=1, f=2: k_per_round = 2 and 3 both cap at the
        // remaining crash budget, so the two shared keys build
        // isomorphic complexes; with symmetry on they form one
        // canonical class solved once, and either way the verdicts
        // must match the per-point path.
        let mut points = Vec::new();
        for k_per_round in [2usize, 3] {
            for k in 1..=2usize {
                points.push(SweepPoint::Sync {
                    k,
                    f: 2,
                    n_plus_1: 3,
                    k_per_round,
                    rounds: 1,
                });
            }
        }
        let serial: Vec<_> = points.iter().map(SweepPoint::run).collect();
        for symmetry in [true, false] {
            let opts = SweepOptions {
                symmetry,
                ..SweepOptions::default()
            };
            for threads in [1, 3] {
                let shared = solvability_sweep_shared_opts(&points, threads, opts);
                for (i, (s, c)) in shared.iter().zip(&serial).enumerate() {
                    assert_eq!(
                        s.solvable, c.solvable,
                        "point {i}, {opts:?}, {threads} threads"
                    );
                }
            }
        }
        // the replayed results of the collapsed group are identical to
        // the representative's, vertex/facet counts included
        let shared = solvability_sweep_shared_opts(&points, 1, SweepOptions::default());
        assert_eq!(shared[0], shared[2]);
        assert_eq!(shared[1], shared[3]);
    }

    #[test]
    fn run_opts_toggles_match_default() {
        // neither orbit branching nor nogood learning may change a
        // verdict, alone or combined
        let configs = [
            SweepOptions {
                symmetry: false,
                ..SweepOptions::default()
            },
            SweepOptions {
                learning: false,
                ..SweepOptions::default()
            },
            SweepOptions {
                symmetry: false,
                learning: false,
            },
        ];
        let mut points: Vec<SweepPoint> = [(1usize, 1usize), (2, 1), (2, 2)]
            .into_iter()
            .map(|(k, f)| SweepPoint::Async {
                k,
                f,
                n_plus_1: 3,
                rounds: 1,
            })
            .collect();
        points.extend([
            SweepPoint::Sync {
                k: 1,
                f: 1,
                n_plus_1: 3,
                k_per_round: 1,
                rounds: 2,
            },
            SweepPoint::SemiSync {
                k: 1,
                f: 1,
                n_plus_1: 2,
                k_per_round: 1,
                microrounds: 2,
                rounds: 1,
            },
            SweepPoint::Byzantine {
                k: 2,
                t: 1,
                n_plus_1: 3,
                rounds: 1,
            },
            SweepPoint::Dynamic {
                k: 1,
                n_plus_1: 2,
                family: GraphFamily::Rooted,
                rounds: 1,
            },
        ]);
        for opts in configs {
            for p in &points {
                assert_eq!(p.run(), p.run_opts(opts), "{p:?} {opts:?}");
            }
        }
    }

    #[test]
    fn shared_sweep_single_k_group_is_exactly_canonical() {
        // A group whose only k equals k_max runs on the canonical value
        // domain, so even the vertex/facet counts must match the
        // per-point path byte-for-byte.
        let points = vec![
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
                rounds: 1,
            },
        ];
        assert_eq!(
            solvability_sweep_shared(&points, 1),
            solvability_sweep(&points, 1)
        );
    }

    #[test]
    fn task_parts_match_task_complex_facade() {
        // the interned parts are exactly the interning of the label
        // complex the (rerouted) façade returns
        let task = KSetAgreement::canonical(1);
        let c = sync_task_complex(&task, 3, 1, 1, 1);
        let (pool, idc) = sync_task_parts(&task.values, 3, 1, 1, 1);
        assert_eq!(Complex::from_interned(&pool, &idc), c);
        assert_eq!(idc.facet_count(), c.facet_count());
        assert_eq!(idc.vertex_count(), c.vertex_count());

        // the key dispatch builds exactly what the model's builder does
        let labelled = |parts: TaskParts| match parts {
            TaskParts::Viewed(pool, idc) => Complex::from_interned(&pool, &idc),
            TaskParts::SsViewed(..) => panic!("plain views expected"),
        };
        let key = SweepKey::Byzantine {
            t: 1,
            n_plus_1: 3,
            rounds: 1,
        };
        let (pool, idc) = byzantine_task_parts(&task.values, 3, 1, 1);
        assert_eq!(
            labelled(key.task_parts(&task.values)),
            Complex::from_interned(&pool, &idc)
        );
        let key = SweepKey::Dynamic {
            n_plus_1: 2,
            family: GraphFamily::Rooted,
            rounds: 1,
        };
        let (pool, idc) = dynamic_task_parts(&task.values, 2, GraphFamily::Rooted, 1);
        assert_eq!(
            labelled(key.task_parts(&task.values)),
            Complex::from_interned(&pool, &idc)
        );
    }

    #[test]
    fn check_rejects_what_the_builders_cannot_take() {
        let async_point = |k, n_plus_1| SweepPoint::Async {
            k,
            f: 0,
            n_plus_1,
            rounds: 1,
        };
        assert_eq!(async_point(1, 3).check(), Ok(()));
        assert_eq!(async_point(1, MAX_SUBSET_BASE).check(), Ok(()));
        assert!(async_point(0, 3).check().unwrap_err().contains("k ≥ 1"));
        for n_plus_1 in [0, MAX_SUBSET_BASE + 1, 33] {
            let err = async_point(1, n_plus_1).check().unwrap_err();
            assert!(err.contains("process count"), "{n_plus_1}: {err}");
        }
        let dynamic = SweepPoint::Dynamic {
            k: 1,
            n_plus_1: DynamicModel::MAX_PROCESSES + 1,
            family: GraphFamily::Rooted,
            rounds: 1,
        };
        assert_eq!(
            dynamic.check().unwrap_err(),
            "the dynamic model supports at most 8 processes, got 9"
        );
        let semisync = SweepPoint::SemiSync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            microrounds: 0,
            rounds: 1,
        };
        assert!(semisync.check().unwrap_err().contains("microround"));
        // p^k failure patterns per round: `--p 4294967295` used to abort
        // allocating the 16 GB microround list
        let patterns = |microrounds, k_per_round| SweepPoint::SemiSync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round,
            microrounds,
            rounds: 1,
        };
        assert_eq!(patterns(1 << 20, 1).check(), Ok(()));
        assert_eq!(patterns(3, 12).check(), Ok(()));
        for (p, k_per_round) in [((1 << 20) + 1, 1), (3, 13), (u32::MAX, 1), (2, 64)] {
            assert_eq!(
                patterns(p, k_per_round).check().unwrap_err(),
                format!(
                    "the semi-synchronous model takes at most 2^20 failure patterns per \
                     round (p^k), got p = {p}, k = {k_per_round}"
                )
            );
        }
        // a budget above n used to build the complex of budget n
        let crash_budget = |f| {
            [
                SweepPoint::Async {
                    k: 1,
                    f,
                    n_plus_1: 3,
                    rounds: 1,
                },
                SweepPoint::Sync {
                    k: 1,
                    f,
                    n_plus_1: 3,
                    k_per_round: 1,
                    rounds: 2,
                },
                SweepPoint::SemiSync {
                    k: 1,
                    f,
                    n_plus_1: 3,
                    k_per_round: 1,
                    microrounds: 2,
                    rounds: 1,
                },
            ]
        };
        for point in crash_budget(2) {
            assert_eq!(point.check(), Ok(()), "{point:?}");
        }
        for f in [3, 6, 7] {
            for point in crash_budget(f) {
                assert_eq!(
                    point.check().unwrap_err(),
                    format!("the crash budget f must be at most n = 2 for 3 processes, got {f}"),
                    "{point:?}"
                );
            }
        }
        let byzantine = |t| SweepPoint::Byzantine {
            k: 1,
            t,
            n_plus_1: 3,
            rounds: 1,
        };
        assert_eq!(byzantine(2).check(), Ok(()));
        for t in [3, 9] {
            assert_eq!(
                byzantine(t).check().unwrap_err(),
                format!("the Byzantine budget t must be at most n = 2 for 3 processes, got {t}")
            );
        }
        // an earlier bound keeps its message when the budget is also out
        // of range
        let small = SweepPoint::SemiSync {
            k: 1,
            f: 5,
            n_plus_1: 3,
            k_per_round: 1,
            microrounds: 0,
            rounds: 1,
        };
        assert!(small.check().unwrap_err().contains("microround"));
    }

    #[test]
    #[should_panic(expected = "input faces limited to ≤ 20 processes, got 33")]
    fn input_faces_rejects_masks_it_cannot_hold() {
        input_faces(33, &[0, 1].into_iter().collect(), 33);
    }

    #[test]
    fn byzantine_consensus_follows_mendes_herlihy_rounds() {
        // t = 1, k = 1: the bound says ⌈t/k⌉ = 1 round cannot suffice
        // and indeed one round is not enough, while two rounds are.
        let one = byzantine_solvable(1, 1, 3, 1);
        assert!(!one.solvable, "{one:?}");
        let two = byzantine_solvable(1, 1, 3, 2);
        assert!(two.solvable, "{two:?}");
        // t = 0 degenerates to fault-free lockstep: trivially solvable.
        let clean = byzantine_solvable(1, 0, 3, 1);
        assert!(clean.solvable, "{clean:?}");
    }

    #[test]
    fn byzantine_2set_with_one_fault_solvable_in_one_round() {
        // k = 2 > t = 1: ⌈t/k⌉ = 1 round suffices.
        let r = byzantine_solvable(2, 1, 3, 1);
        assert!(r.solvable, "{r:?}");
    }

    #[test]
    fn dynamic_strong_two_processes_solve_consensus_in_one_round() {
        let r = dynamic_solvable(1, 2, GraphFamily::StronglyConnected, 1);
        assert!(r.solvable, "{r:?}");
    }

    #[test]
    fn dynamic_rooted_two_processes_cannot_solve_consensus_quickly() {
        // the rooted family keeps the one-way graphs a→b and b→a, whose
        // facets chain the complex into a connected path: no one- or
        // two-round decision map exists.
        for rounds in [1usize, 2] {
            let r = dynamic_solvable(1, 2, GraphFamily::Rooted, rounds);
            assert!(!r.solvable, "rounds={rounds}: {r:?}");
        }
    }

    #[test]
    fn approximate_agreement_contrast_with_consensus() {
        let values: BTreeSet<u64> = (0..=2).collect();
        // exact agreement (range 0) impossible with f = 1 ...
        let exact = async_approximate_solvable(0, &values, 1, 3, 1);
        assert!(!exact.solvable, "{exact:?}");
        // ... but coarse approximate agreement is solvable in one round
        let coarse = async_approximate_solvable(2, &values, 1, 3, 1);
        assert!(coarse.solvable, "{coarse:?}");
    }

    #[test]
    fn corollary10_consensus_instance() {
        let report = corollary10_async(1, 3, 1);
        assert!(report.hypothesis_holds, "{report:?}");
        assert!(report.no_decision_map, "{report:?}");
        assert!(report.consistent());
        assert_eq!(report.connectivity_checks.len(), 2); // m = 1, 2
    }

    #[test]
    fn corollary10_2set_instance() {
        let report = corollary10_async(2, 3, 1);
        assert!(report.hypothesis_holds, "{report:?}");
        assert!(report.no_decision_map, "{report:?}");
    }

    #[test]
    fn input_faces_counts() {
        let vals: BTreeSet<u64> = [0, 1].into_iter().collect();
        // 3 processes, min 2 participants: 3 pairs * 4 + 1 triple * 8 = 20
        assert_eq!(input_faces(3, &vals, 2).len(), 20);
        // min 3: just the 8 full assignments
        assert_eq!(input_faces(3, &vals, 3).len(), 8);
    }

    #[test]
    fn async_consensus_impossible_one_round() {
        // k = 1 ≤ f = 1: Corollary 13 says unsolvable at any r; check r=1.
        let r = async_solvable(1, 1, 3, 1);
        assert!(!r.solvable, "{r:?}");
        assert!(r.vertices > 0);
    }

    #[test]
    fn async_2set_with_one_failure_solvable() {
        // k = 2 > f = 1: solvable (the threshold k ≤ f is tight).
        let r = async_solvable(2, 1, 3, 1);
        assert!(r.solvable, "{r:?}");
    }

    #[test]
    fn sync_consensus_needs_two_rounds_with_three_processes() {
        // classic: with n+1 = 3 ≥ f + 2, consensus needs f+1 = 2 rounds.
        let one = sync_solvable(1, 1, 3, 1, 1);
        assert!(!one.solvable, "{one:?}");
        let two = sync_solvable(1, 1, 3, 1, 2);
        assert!(two.solvable, "{two:?}");
    }

    #[test]
    fn sync_2set_one_failure_one_round_solvable() {
        // k = 2, f = 1: ⌊f/k⌋ + 1 = 1 round suffices.
        let r = sync_solvable(2, 1, 3, 1, 1);
        assert!(r.solvable, "{r:?}");
    }
}
