//! Exhaustive decision-map search — the computational impossibility
//! checker.
//!
//! §4 of the paper: a protocol solves k-set agreement iff its protocol
//! complex admits a *decision map* `δ` carrying each vertex to a value
//! such that (validity) `δ(v) ∈ vals(S')` whenever `v ∈ P(S')`, and
//! (agreement) the vertices of any simplex map to at most `k` distinct
//! values. Because full-information protocols are without loss of
//! generality, *no decision map on the (restricted, well-behaved)
//! protocol complex* implies *no protocol at all* for the model whose
//! executions include that restricted subset.
//!
//! [`DecisionMapSolver`] does complete backtracking search with
//! most-constrained-vertex ordering and forward-checking propagation:
//! once a facet has accumulated `k` distinct values, the domains of its
//! unassigned vertices are pruned to those values. `Some(map)` is a
//! solvability witness, `None` is an instance-level impossibility
//! **proof** (the search is exhaustive).
//!
//! Each decision branches on the unassigned vertex with the smallest
//! domain, ties to the vertex on the most facets, remaining ties to the
//! lowest vertex index. The search keeps the unassigned vertices in an
//! ordered index under exactly that key, updated wherever a domain
//! shrinks or is restored and wherever a vertex is assigned or cleared,
//! so a decision costs O(log V) rather than a scan of every vertex. The
//! scan survives only as the recursive test oracle's rule, and debug
//! builds check the index against it on small instances.
//!
//! The search is **iterative**: branching state lives in an explicit
//! frame stack on the heap (one [`Frame`] per branched vertex), so the
//! search depth is bounded by available memory, never by the thread
//! stack. Mid-size protocol complexes branch on thousands of vertices —
//! as call-stack recursion that overflowed default thread stacks, which
//! is why CI runs this crate's suite under `RUST_MIN_STACK=262144`.
//!
//! The search is **conflict-driven** by default: every dead end carries
//! an [`Explanation`] — the set of decision levels implicated by the
//! failed validity/agreement constraints — so instead of popping one
//! frame the search *backjumps* to the deepest implicated level, and
//! the explanation is recorded as a learned **nogood** in a bounded,
//! activity-evicted store ([`NogoodStore`]) consulted during
//! propagation. Refutations that leaned on orbit branching get the
//! trivial explanation ⊤ and retreat chronologically without learning,
//! which keeps every recorded nogood a symmetry-independent logical
//! consequence of the instance (see [`Frame::cover_orbit`]).
//! `SolverConfig { learning: false, .. }` switches all of this off and
//! restores the plain chronological search bit for bit — the oracle
//! equivalence proptest below pins that.
//!
//! **Orbit branching** skips a frame's candidates that a symmetry of
//! the instance maps onto an already refuted one (see
//! [`Frame::cover_orbit`]). A skip needs a refutation that leaves a
//! candidate untried, so the search installs its symmetry generators
//! at the first such refutation and not before ([`Frame::refute`]). A
//! search that never gets there never fetches the instance's
//! symmetries, and an instance that defers their certification (as the
//! sweeps prepare theirs) never certifies them.
//!
//! Repeated solves over one complex (the k-sweep of an instance) should
//! go through [`PreparedInstance`]: the interning, facet indexing, and
//! validity-domain extraction happen once and every
//! [`DecisionMapSolver::solve_prepared`] call reuses them.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use ps_topology::{Complex, IdComplex, Label, VertexPool};

use crate::symmetry::{Certifier, InstanceSymmetry};

/// Search statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Vertex assignments attempted.
    pub assignments: usize,
    /// Backtracks taken.
    pub backtracks: usize,
    /// Domain prunings performed by forward checking.
    pub prunings: usize,
    /// Candidate values skipped by orbit branching because they were
    /// symmetric to an already-refuted candidate.
    pub orbit_skips: usize,
    /// Conflict-driven retreats that jumped over at least one decision
    /// level (a retreat of exactly one level is an ordinary backtrack).
    pub backjumps: usize,
    /// Nogoods recorded by conflict analysis (bounded by the store
    /// capacity at any instant, but counting every recording).
    pub learned_nogoods: usize,
    /// Times a learned nogood fired during propagation — either
    /// pruning the single unassigned value of a unit nogood or
    /// detecting a fully matched one as a conflict.
    pub nogood_hits: usize,
    /// Longest single conflict-driven retreat, in decision levels.
    pub max_jump: usize,
}

/// The per-simplex agreement condition the decision map must satisfy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgreementConstraint {
    /// At most `k` distinct values per simplex — k-set agreement (§4).
    AtMostKDistinct(usize),
    /// All values distinct per simplex — renaming-style uniqueness.
    /// (Without a symmetry requirement this is trivially satisfiable
    /// whenever the namespace covers each facet's size; provided as the
    /// dual constraint and a solver control.)
    AllDistinct,
    /// Values within any simplex span at most this range
    /// (`max - min ≤ D`) — the discrete form of ε-approximate
    /// agreement. `MaxRange(0)` coincides with consensus.
    MaxRange(u64),
}

/// Solver configuration — `forward_checking: false` is the ablation used
/// by `bench_solver` to quantify what propagation buys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverConfig {
    /// Prune domains through saturated facets (on by default).
    pub forward_checking: bool,
    /// Conflict-driven search (on by default): explain every dead end
    /// by the decision levels it implicates, backjump to the deepest
    /// implicated level, and record the explanation as a learned
    /// nogood, in a bounded store consulted during propagation. Off
    /// restores the plain chronological search with identical
    /// statistics.
    pub learning: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            forward_checking: true,
            learning: true,
        }
    }
}

/// A complete backtracking solver for decision maps.
#[derive(Debug, Default)]
pub struct DecisionMapSolver {
    stats: SolverStats,
    config: SolverConfig,
    /// Nogoods recorded by the last solve (see
    /// [`DecisionMapSolver::learned_nogoods`]).
    last_nogoods: Vec<Vec<(u32, u64)>>,
}

/// A complex preprocessed for (repeated) solver runs: the facet index
/// over dense vertex indices plus each vertex's validity domain.
///
/// Interning, facet indexing, and domain extraction dominate the cost
/// of small solves and are identical for every point of a k-sweep (the
/// validity constraint does not depend on `k`), so a sweep prepares the
/// instance once and calls [`DecisionMapSolver::solve_prepared`] per
/// agreement constraint.
///
/// Symmetries for orbit branching are either attached eagerly
/// ([`PreparedInstance::attach_symmetries`]) or, on the sweeps' path,
/// certified on the solver's first need: the search fetches them only
/// when a refutation leaves a candidate untried, and an instance
/// prepared with deferred certification certifies then, at most once.
#[derive(Clone, Debug)]
pub struct PreparedInstance<V> {
    /// Vertex labels, indexed by the dense vertex index.
    pub(crate) vertices: Vec<V>,
    /// Facets as vertex-index lists.
    pub(crate) facets: Vec<Vec<usize>>,
    /// Facets containing each vertex.
    pub(crate) facets_of: Vec<Vec<usize>>,
    /// Validity domain of each vertex.
    pub(crate) domains: Vec<BTreeSet<u64>>,
    /// Certified instance symmetries usable for orbit branching: set by
    /// [`PreparedInstance::attach_symmetries`], or by the first fetch
    /// ([`PreparedInstance::symmetries`]).
    symmetries: OnceLock<Vec<InstanceSymmetry>>,
    /// Certifies the task's symmetries at the first fetch, when the
    /// instance was prepared with deferred certification.
    certifier: Option<Certifier<V>>,
}

impl<V: Label> PreparedInstance<V> {
    /// Prepares a label-typed complex: interns it into a canonical pool
    /// (vertex index == interned id) and records each vertex's allowed
    /// values.
    pub fn new(complex: &Complex<V>, allowed: impl FnMut(&V) -> BTreeSet<u64>) -> Self {
        let (pool, id_complex) = complex.to_interned();
        Self::from_parts(pool, &id_complex, allowed)
    }

    /// Prepares an already-interned complex without re-interning — the
    /// reuse hook for callers that built the complex through an
    /// [`ps_topology::InternedBuilder`] (e.g. the task-complex builders
    /// in [`crate::experiments`]).
    ///
    /// The pool need not be canonical: any bijection works, because the
    /// search order and the returned map are independent of id order.
    /// Every pooled label is treated as a vertex, so the pool should
    /// contain exactly the complex's vertices.
    pub fn from_interned(
        pool: &VertexPool<V>,
        complex: &IdComplex,
        allowed: impl FnMut(&V) -> BTreeSet<u64>,
    ) -> Self {
        Self::index(pool.labels().to_vec(), complex, allowed)
    }

    /// [`PreparedInstance::from_interned`] consuming the pool: its
    /// labels move into the instance instead of being cloned, and its
    /// lookup table (a second copy of every label) is dropped.
    pub(crate) fn from_parts(
        pool: VertexPool<V>,
        complex: &IdComplex,
        allowed: impl FnMut(&V) -> BTreeSet<u64>,
    ) -> Self {
        Self::index(pool.into_labels(), complex, allowed)
    }

    /// Indexes `complex`, whose vertex `i` is labelled `vertices[i]`.
    fn index(
        vertices: Vec<V>,
        complex: &IdComplex,
        allowed: impl FnMut(&V) -> BTreeSet<u64>,
    ) -> Self {
        debug_assert_eq!(
            vertices.len(),
            complex.vertex_count(),
            "pool must contain exactly the complex's vertices"
        );
        let facets: Vec<Vec<usize>> = complex
            .facets()
            .map(|f| f.ids().map(|i| i as usize).collect())
            .collect();
        let mut facets_of: Vec<Vec<usize>> = vec![Vec::new(); vertices.len()];
        for (fi, f) in facets.iter().enumerate() {
            for &vi in f {
                facets_of[vi].push(fi);
            }
        }
        let domains: Vec<BTreeSet<u64>> = vertices.iter().map(allowed).collect();
        PreparedInstance {
            vertices,
            facets,
            facets_of,
            domains,
            symmetries: OnceLock::new(),
            certifier: None,
        }
    }

    /// Defers certification of the task's symmetries to the solver's
    /// first fetch (see [`PreparedInstance::symmetries`]).
    pub(crate) fn defer_certification(&mut self, certifier: Certifier<V>) {
        self.certifier = Some(certifier);
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The vertex labels in dense-index order — index `i` is the vertex
    /// that [`DecisionMapSolver::learned_nogoods`] calls `i`.
    pub fn vertex_labels(&self) -> &[V] {
        &self.vertices
    }

    /// Number of facets.
    pub fn facet_count(&self) -> usize {
        self.facets.len()
    }

    /// Number of symmetries attached for orbit branching (0 while a
    /// deferred certification has not run).
    pub fn symmetry_count(&self) -> usize {
        self.symmetries.get().map_or(0, Vec::len)
    }

    /// Attaches certified symmetries for orbit branching; returns how
    /// many were kept.
    ///
    /// A symmetry `(σ, π)` is kept only if it can actually justify a
    /// prune:
    ///
    /// * degree matches and every domain value is inside `π`'s table;
    /// * **domain equivariance** holds — `dom(σ(v)) = π(dom(v))` for
    ///   every vertex, so transporting a partial decision map along the
    ///   symmetry preserves validity (automorphy of the complex, which
    ///   [`crate::symmetry::task_symmetries`] certifies, preserves the
    ///   agreement constraint);
    /// * `π` is not the identity (pure vertex relabelings never change
    ///   which *values* are worth trying at a vertex) and `σ` fixes at
    ///   least one vertex (orbit branching only applies a symmetry at
    ///   vertices it fixes).
    ///
    /// Symmetries that fail the checks are silently dropped — they are
    /// an optimization, never a correctness requirement. A deferred
    /// certification still pending runs first, so the symmetries it
    /// certifies are kept beside the attached ones.
    pub fn attach_symmetries(&mut self, syms: impl IntoIterator<Item = InstanceSymmetry>) -> usize {
        let kept: Vec<InstanceSymmetry> = syms.into_iter().filter(|s| self.usable(s)).collect();
        let count = kept.len();
        self.symmetries();
        let attached = self.symmetries.get_mut().expect("fetched above");
        attached.extend(kept);
        count
    }
}

impl<V> PreparedInstance<V> {
    /// The symmetries orbit branching may use. The search fetches them
    /// when a refutation first leaves a candidate untried. For an
    /// instance prepared with deferred certification, the first fetch
    /// certifies the task's symmetries and keeps those that pass
    /// [`PreparedInstance::attach_symmetries`]'s checks, so the instance
    /// certifies at most once (whichever thread fetches first) and an
    /// instance whose searches never fetch never certifies.
    pub(crate) fn symmetries(&self) -> &[InstanceSymmetry] {
        self.symmetries.get_or_init(|| match &self.certifier {
            Some(certifier) => certifier
                .certify(self)
                .into_iter()
                .filter(|s| self.usable(s))
                .collect(),
            None => Vec::new(),
        })
    }

    /// The symmetries deferred certification kept, once it has run;
    /// `None` before, and for an instance that defers none.
    #[cfg(test)]
    pub(crate) fn certified(&self) -> Option<&[InstanceSymmetry]> {
        let certified = self.certifier.as_ref().and(self.symmetries.get());
        certified.map(Vec::as_slice)
    }

    /// Whether `sym` passes the checks of
    /// [`PreparedInstance::attach_symmetries`].
    fn usable(&self, sym: &InstanceSymmetry) -> bool {
        let n = self.vertices.len();
        if sym.vertex.len() != n {
            return false;
        }
        if self
            .domains
            .iter()
            .flatten()
            .any(|&x| x as usize >= sym.values.len())
        {
            return false;
        }
        // `π` is a bijection, so `π(dom(v))` has `|dom(v)|` values:
        // equal sizes plus containment is equality
        let equivariant = (0..n).all(|v| {
            let image = &self.domains[sym.vertex[v] as usize];
            image.len() == self.domains[v].len()
                && self.domains[v]
                    .iter()
                    .all(|&x| image.contains(&sym.values[x as usize]))
        });
        equivariant && !sym.is_value_identity() && (0..n).any(|v| sym.vertex[v] as usize == v)
    }
}

/// Incremental bookkeeping for one symmetry generator `(σ, π)`: the
/// generator *setwise stabilizes* the current partial assignment
/// exactly when `viol == 0`, i.e. every assigned vertex `w` satisfies
/// `assigned[σ(w)] == π(assigned[w])`. (`viol == 0` means transporting
/// the partial map along the generator reproduces it: the transported
/// map agrees on every assigned vertex, and since `σ` is a bijection
/// over a finite set, it assigns the same vertex set.) Computed from
/// the partial assignment when the generator is installed
/// ([`SearchState::install_generators`]), then maintained exactly —
/// each set/clear touches only `w` and `σ⁻¹(w)` per generator.
struct GenTrack<'a> {
    /// Vertex image table `σ`.
    vertex: &'a [u32],
    /// Inverse vertex table `σ⁻¹`.
    inv: Vec<u32>,
    /// Value image table `π`.
    values: &'a [u64],
    /// Number of assigned `w` with `assigned[σ(w)] != π(assigned[w])`.
    viol: usize,
    /// Per-vertex flag: `w` is assigned and currently violating.
    vflag: Vec<bool>,
}

/// A conflict explanation: which decision levels a refutation depends
/// on. `Levels` is a sound implicant — the branching assignments at
/// exactly those levels cannot all be extended to a decision map.
/// `All` is the trivial explanation "the entire current prefix": used
/// when learning is off, and whenever a refutation leaned on orbit
/// branching, whose transport argument is conditioned on the whole
/// partial assignment rather than any smaller implicant (see
/// [`Frame::cover_orbit`]). `All` refutations retreat chronologically
/// and are never recorded as nogoods — which is exactly what keeps
/// every recorded nogood valid independently of the symmetry
/// configuration it was learned under.
#[derive(Clone, Debug)]
enum Explanation {
    /// The refutation implicates exactly these decision levels.
    Levels(BTreeSet<u32>),
    /// The refutation is only valid relative to the whole prefix.
    All,
}

impl Explanation {
    /// Combines two refutation reasons: the union of implicated levels,
    /// absorbing to ⊤.
    fn merge(&mut self, other: Explanation) {
        match other {
            Explanation::All => *self = Explanation::All,
            Explanation::Levels(b) => {
                if let Explanation::Levels(a) = self {
                    a.extend(b);
                }
            }
        }
    }
}

/// Capacity of the learned-nogood store: when full, the lowest-activity
/// half is evicted so memory stays flat on long sweeps.
const NOGOOD_CAP: usize = 4096;

/// Explanations longer than this are still used for backjumping but are
/// too specific to be worth recording — they almost never fire again
/// and would crowd the bounded store.
const MAX_NOGOOD_LEN: usize = 24;

/// Debug builds check every pick of the selection index against the
/// O(V) scan on instances up to this many vertices; above it the check
/// would make each solve quadratic again.
const SCAN_CHECK_MAX_VERTICES: usize = 1024;

/// A learned nogood: a set of `(vertex, value)` assignments proven
/// jointly unextendable to any decision map of the instance, plus an
/// activity counter driving eviction.
#[derive(Clone, Debug)]
struct Nogood {
    pairs: Vec<(u32, u64)>,
    activity: u64,
}

/// Bounded store of learned nogoods with activity-based eviction: when
/// the store is full, the lowest-activity half is dropped (ties keep
/// the older recording), so memory stays flat on long sweeps while hot
/// nogoods survive. A per-vertex index supports unit consultation
/// during propagation.
#[derive(Debug, Default)]
struct NogoodStore {
    cap: usize,
    items: Vec<Nogood>,
    /// For each vertex, the store indices of the nogoods mentioning it
    /// (rebuilt on eviction; eviction never runs mid-propagation).
    by_vertex: Vec<Vec<u32>>,
}

impl NogoodStore {
    fn new(cap: usize, vertices: usize) -> Self {
        NogoodStore {
            cap: cap.max(1),
            items: Vec::new(),
            by_vertex: vec![Vec::new(); vertices],
        }
    }

    /// Records a nogood, evicting first when at capacity; returns
    /// whether it was stored (empty or oversized sets are not).
    fn insert(&mut self, pairs: Vec<(u32, u64)>) -> bool {
        if pairs.is_empty() || pairs.len() > MAX_NOGOOD_LEN {
            return false;
        }
        if self.items.len() >= self.cap {
            self.evict();
        }
        let id = self.items.len() as u32;
        for &(v, _) in &pairs {
            self.by_vertex[v as usize].push(id);
        }
        self.items.push(Nogood { pairs, activity: 0 });
        true
    }

    /// Drops the lowest-activity half and rebuilds the vertex index.
    fn evict(&mut self) {
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        // stable sort: among equal activities the older recording wins
        order.sort_by_key(|&i| std::cmp::Reverse(self.items[i].activity));
        order.truncate(self.cap.div_ceil(2));
        order.sort_unstable(); // survivors back in recording order
        self.items = order.into_iter().map(|i| self.items[i].clone()).collect();
        for list in &mut self.by_vertex {
            list.clear();
        }
        for (id, ng) in self.items.iter().enumerate() {
            for &(v, _) in &ng.pairs {
                self.by_vertex[v as usize].push(id as u32);
            }
        }
    }
}

struct SearchState<'a> {
    /// Current domain of each vertex (singleton = assigned or forced).
    domains: Vec<BTreeSet<u64>>,
    /// Whether the vertex has been branched on / forced.
    assigned: Vec<Option<u64>>,
    /// The selection index: one `(domain size, Reverse(facet count),
    /// vertex)` entry per unassigned vertex, so its first entry is the
    /// most-constrained vertex (see [`DecisionMapSolver::select`]).
    /// Kept in step with `domains` and `assigned` by
    /// [`SearchState::refile`], [`SearchState::set_assigned`] and
    /// [`SearchState::clear_assigned`].
    unassigned: BTreeSet<(usize, Reverse<usize>, usize)>,
    /// The domain size each unassigned vertex is filed under in
    /// `unassigned` (stale while the vertex is assigned).
    filed: Vec<usize>,
    /// Facets as vertex-index lists (borrowed from the prepared
    /// instance — the search never mutates the facet index).
    facets: &'a [Vec<usize>],
    /// Facets containing each vertex.
    facets_of: &'a [Vec<usize>],
    constraint: AgreementConstraint,
    forward_checking: bool,
    /// Symmetry generators tracked for orbit branching: `None` until
    /// the first refutation that leaves a candidate untried installs
    /// them ([`Frame::refute`]).
    gens: Option<Vec<GenTrack<'a>>>,
    /// For each vertex, the generators whose `σ` fixes it.
    fixing: Vec<Vec<usize>>,
    /// Conflict-driven machinery below — inert when `learning` is off
    /// (the learning-off search is bit-identical to the chronological
    /// one, statistics included).
    learning: bool,
    /// Decision level at which each assigned vertex got its value.
    level_of: Vec<u32>,
    /// Whether the vertex was branched on (true) or forced (false).
    /// Stale entries are never read: both tables are consulted only
    /// while the vertex is assigned.
    is_decision: Vec<bool>,
    /// Per-vertex cumulative explanation: the decision levels
    /// implicated in every value removed from the vertex's domain so
    /// far (a sound over-approximation in the style of
    /// conflict-directed backjumping; restored through the trail).
    expl: Vec<BTreeSet<u32>>,
    /// Bounded store of learned nogoods.
    store: NogoodStore,
}

/// Undo log entry: an empty `removed` set marks a forced assignment to
/// retract; otherwise the domain values (and the explanation levels, if
/// learning) to restore on vertex `w`.
struct TrailEntry {
    w: usize,
    removed: BTreeSet<u64>,
    expl_added: Vec<u32>,
}

type Trail = Vec<TrailEntry>;

impl<'a> SearchState<'a> {
    /// The initial state of a search over `instance`: every vertex
    /// unassigned with its validity domain, no generators installed, an
    /// empty nogood store of capacity `nogood_cap`.
    fn new<V>(
        instance: &'a PreparedInstance<V>,
        constraint: AgreementConstraint,
        forward_checking: bool,
        learning: bool,
        nogood_cap: usize,
    ) -> Self {
        let n = instance.vertices.len();
        let mut state = SearchState {
            domains: instance.domains.clone(),
            assigned: vec![None; n],
            unassigned: BTreeSet::new(),
            filed: vec![0; n],
            facets: &instance.facets,
            facets_of: &instance.facets_of,
            constraint,
            forward_checking,
            gens: None,
            fixing: vec![Vec::new(); n],
            learning,
            level_of: vec![0; n],
            is_decision: vec![false; n],
            expl: vec![BTreeSet::new(); n],
            store: NogoodStore::new(nogood_cap, n),
        };
        for w in 0..n {
            state.file(w);
        }
        state
    }

    /// Files the unassigned vertex `w` in the selection index under its
    /// current domain size.
    fn file(&mut self, w: usize) {
        let len = self.domains[w].len();
        self.filed[w] = len;
        self.unassigned
            .insert((len, Reverse(self.facets_of[w].len()), w));
    }

    /// Takes `w` out of the selection index.
    fn unfile(&mut self, w: usize) {
        let key = (self.filed[w], Reverse(self.facets_of[w].len()), w);
        let filed = self.unassigned.remove(&key);
        debug_assert!(filed, "vertex {w} was not in the selection index");
    }

    /// Re-files `w` after its domain changed, if it is unassigned (an
    /// assigned vertex is filed again, under its domain size of that
    /// moment, when it is cleared).
    fn refile(&mut self, w: usize) {
        if self.assigned[w].is_none() {
            self.unfile(w);
            self.file(w);
        }
    }

    /// Installs `syms` as the tracked generators. A vertex `w` violates
    /// a generator `(σ, π)` iff it is assigned and `assigned[σ(w)] ≠
    /// π(assigned[w])`: computed from the current partial assignment,
    /// the flags are exactly what incremental upkeep from the root
    /// would have left, so the search goes on as if the generators had
    /// been tracked all along.
    fn install_generators(&mut self, syms: &'a [InstanceSymmetry]) {
        let assigned = &self.assigned;
        let gens: Vec<GenTrack<'a>> = syms
            .iter()
            .map(|s| {
                let mut inv = vec![0u32; s.vertex.len()];
                for (i, &j) in s.vertex.iter().enumerate() {
                    inv[j as usize] = i as u32;
                }
                let vflag: Vec<bool> = (0..s.vertex.len())
                    .map(|w| {
                        assigned[w].is_some_and(|x| {
                            assigned[s.vertex[w] as usize] != Some(s.values[x as usize])
                        })
                    })
                    .collect();
                GenTrack {
                    vertex: &s.vertex,
                    inv,
                    values: &s.values,
                    viol: vflag.iter().filter(|&&f| f).count(),
                    vflag,
                }
            })
            .collect();
        for (gi, g) in gens.iter().enumerate() {
            for (v, &img) in g.vertex.iter().enumerate() {
                if img as usize == v {
                    self.fixing[v].push(gi);
                }
            }
        }
        self.gens = Some(gens);
    }

    /// The complete assignment, as each vertex's value in vertex order.
    fn witness(&self) -> Vec<u64> {
        self.assigned
            .iter()
            .map(|x| x.expect("complete assignment"))
            .collect()
    }

    /// Records `assigned[w] = Some(val)`, takes `w` out of the
    /// selection index, and updates every generator's violation count.
    /// Only entries `w` and `σ⁻¹(w)` of each generator can change: `w`
    /// starts satisfying or violating `assigned[σ(w)] == π(assigned[w])`,
    /// and the preimage `u = σ⁻¹(w)` (if assigned) may have just had its
    /// required image filled in.
    fn set_assigned(&mut self, w: usize, val: u64) {
        self.unfile(w);
        self.assigned[w] = Some(val);
        let assigned = &self.assigned;
        for g in self.gens.iter_mut().flatten() {
            let w2 = g.vertex[w] as usize;
            if assigned[w2] != Some(g.values[val as usize]) {
                debug_assert!(!g.vflag[w]);
                g.vflag[w] = true;
                g.viol += 1;
            }
            let u = g.inv[w] as usize;
            if u != w {
                if let Some(xu) = assigned[u] {
                    if val == g.values[xu as usize] && g.vflag[u] {
                        g.vflag[u] = false;
                        g.viol -= 1;
                    }
                }
            }
        }
    }

    /// Records `assigned[w] = None`, reversing [`SearchState::set_assigned`]:
    /// `w` goes back into the selection index, `w` itself can no longer
    /// violate, and the assigned preimage `u = σ⁻¹(w)` now points at an
    /// unassigned image, which counts as a violation (the generator no
    /// longer reproduces the partial map).
    fn clear_assigned(&mut self, w: usize) {
        self.assigned[w] = None;
        self.file(w);
        let assigned = &self.assigned;
        for g in self.gens.iter_mut().flatten() {
            if g.vflag[w] {
                g.vflag[w] = false;
                g.viol -= 1;
            }
            let u = g.inv[w] as usize;
            if u != w && assigned[u].is_some() && !g.vflag[u] {
                g.vflag[u] = true;
                g.viol += 1;
            }
        }
    }

    /// Accumulates the decision levels explaining vertex `u`'s current
    /// assignment: the level itself for a branched vertex, the levels
    /// implicated in the domain removals that forced it otherwise.
    fn levels_into(&self, u: usize, out: &mut BTreeSet<u32>) {
        if self.is_decision[u] {
            out.insert(self.level_of[u]);
        } else {
            out.extend(self.expl[u].iter().copied());
        }
    }

    /// Explains a violated facet: the decision levels behind a small
    /// set of assigned vertices that already contradict the constraint
    /// by themselves — one holder per distinct value for
    /// `AtMostKDistinct`, a duplicated pair for `AllDistinct`, the two
    /// extremes for `MaxRange`. `trigger` (the vertex whose assignment
    /// prompted the re-check) is preferred as the holder of its own
    /// value so explanations stay tight.
    fn explain_violation(&self, fi: usize, trigger: usize) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        let tval = self.assigned[trigger].expect("trigger is assigned");
        match self.constraint {
            AgreementConstraint::AtMostKDistinct(_) => {
                let mut seen: BTreeSet<u64> = BTreeSet::new();
                seen.insert(tval);
                self.levels_into(trigger, &mut out);
                for &w in &self.facets[fi] {
                    if let Some(x) = self.assigned[w] {
                        if seen.insert(x) {
                            self.levels_into(w, &mut out);
                        }
                    }
                }
            }
            AgreementConstraint::AllDistinct => {
                let mut holder: BTreeMap<u64, usize> = BTreeMap::new();
                holder.insert(tval, trigger);
                for &w in &self.facets[fi] {
                    if w == trigger {
                        continue;
                    }
                    if let Some(x) = self.assigned[w] {
                        if let Some(&w0) = holder.get(&x) {
                            self.levels_into(w0, &mut out);
                            self.levels_into(w, &mut out);
                            return out;
                        }
                        holder.insert(x, w);
                    }
                }
                // unreachable in practice: the caller saw a duplicate
                self.levels_into(trigger, &mut out);
            }
            AgreementConstraint::MaxRange(_) => {
                let mut lo = (tval, trigger);
                let mut hi = (tval, trigger);
                for &w in &self.facets[fi] {
                    if let Some(x) = self.assigned[w] {
                        if x < lo.0 {
                            lo = (x, w);
                        }
                        if x > hi.0 {
                            hi = (x, w);
                        }
                    }
                }
                self.levels_into(lo.1, &mut out);
                self.levels_into(hi.1, &mut out);
            }
        }
        out
    }

    /// The decision levels justifying a forward-checking prune through
    /// facet `fi`: the assigned vertices whose values saturate the
    /// facet (one holder per distinct value), or the extremes defining
    /// the `MaxRange` window — the prune is implied by those
    /// assignments alone.
    fn explain_prune(&self, fi: usize) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        match self.constraint {
            AgreementConstraint::AtMostKDistinct(_) | AgreementConstraint::AllDistinct => {
                let mut seen: BTreeSet<u64> = BTreeSet::new();
                for &w in &self.facets[fi] {
                    if let Some(x) = self.assigned[w] {
                        if seen.insert(x) {
                            self.levels_into(w, &mut out);
                        }
                    }
                }
            }
            AgreementConstraint::MaxRange(_) => {
                let mut lo: Option<(u64, usize)> = None;
                let mut hi: Option<(u64, usize)> = None;
                for &w in &self.facets[fi] {
                    if let Some(x) = self.assigned[w] {
                        if lo.is_none_or(|(y, _)| x < y) {
                            lo = Some((x, w));
                        }
                        if hi.is_none_or(|(y, _)| x > y) {
                            hi = Some((x, w));
                        }
                    }
                }
                if let (Some((_, wl)), Some((_, wh))) = (lo, hi) {
                    self.levels_into(wl, &mut out);
                    self.levels_into(wh, &mut out);
                }
            }
        }
        out
    }

    /// Merges `reason` into `expl[w]`, returning the levels actually
    /// added (for trail-based restoration).
    fn note_expl(&mut self, w: usize, reason: &BTreeSet<u32>) -> Vec<u32> {
        let mut added = Vec::new();
        for &l in reason {
            if self.expl[w].insert(l) {
                added.push(l);
            }
        }
        added
    }

    /// Assigns `val` to `vi` at decision level `level` and propagates
    /// (facet checks, forward checking, learned-nogood consultation);
    /// returns the undo trail, or — with the search state fully
    /// restored — the conflict [`Explanation`] of the wipe-out or
    /// violation that was hit.
    fn assign(
        &mut self,
        vi: usize,
        val: u64,
        level: u32,
        stats: &mut SolverStats,
    ) -> Result<Trail, Explanation> {
        // Copy the shared facet-index refs out of `self` so the loops
        // below can iterate them while `self.domains` is mutated.
        let facets = self.facets;
        let facets_of = self.facets_of;
        let mut trail: Trail = Vec::new();
        let removed: BTreeSet<u64> = self.domains[vi]
            .iter()
            .copied()
            .filter(|&x| x != val)
            .collect();
        if !removed.is_empty() {
            // `vi` leaves the selection index in `set_assigned` below,
            // under the domain size it was filed with
            self.domains[vi] = [val].into_iter().collect();
            trail.push(TrailEntry {
                w: vi,
                removed,
                expl_added: Vec::new(),
            });
        }
        self.set_assigned(vi, val);
        if self.learning {
            self.level_of[vi] = level;
            self.is_decision[vi] = true;
        }

        // queue of vertices whose assignment may trigger facet pruning
        let mut queue = vec![vi];
        while let Some(v) = queue.pop() {
            for &fi in &facets_of[v] {
                let mut distinct: BTreeSet<u64> = BTreeSet::new();
                let mut duplicate = false;
                let mut assigned_count = 0usize;
                for &w in &facets[fi] {
                    if let Some(x) = self.assigned[w] {
                        assigned_count += 1;
                        if !distinct.insert(x) {
                            duplicate = true;
                        }
                    }
                }
                let violated = match self.constraint {
                    AgreementConstraint::AtMostKDistinct(k) => distinct.len() > k,
                    AgreementConstraint::AllDistinct => duplicate,
                    AgreementConstraint::MaxRange(range) => {
                        match (distinct.first(), distinct.last()) {
                            (Some(&lo), Some(&hi)) => hi - lo > range,
                            _ => false,
                        }
                    }
                };
                if violated {
                    let expl = if self.learning {
                        Explanation::Levels(self.explain_violation(fi, v))
                    } else {
                        Explanation::All
                    };
                    self.undo(&trail);
                    self.clear_assigned(vi);
                    return Err(expl);
                }
                if !self.forward_checking {
                    continue;
                }
                // domain pruning per constraint: keep_only=true means
                // domains are restricted TO the set; false, AWAY from it
                let prune: Option<(bool, BTreeSet<u64>)> = match self.constraint {
                    // saturated facet: unassigned members limited to the
                    // facet's value set
                    AgreementConstraint::AtMostKDistinct(k) if distinct.len() == k => {
                        Some((true, distinct.clone()))
                    }
                    // all-distinct: unassigned members may NOT reuse the
                    // facet's assigned values
                    AgreementConstraint::AllDistinct if assigned_count > 0 => {
                        Some((false, distinct.clone()))
                    }
                    // range: unassigned members limited to the window
                    // [hi - range, lo + range]
                    AgreementConstraint::MaxRange(range) if assigned_count > 0 => {
                        let lo = *distinct.first().unwrap();
                        let hi = *distinct.last().unwrap();
                        let window: BTreeSet<u64> =
                            (hi.saturating_sub(range)..=lo.saturating_add(range)).collect();
                        Some((true, window))
                    }
                    _ => None,
                };
                let Some((keep_only, value_set)) = prune else {
                    continue;
                };
                // one reason serves every prune through this facet: the
                // restriction is implied by the saturating assignments
                let reason: Option<BTreeSet<u32>> = if self.learning {
                    Some(self.explain_prune(fi))
                } else {
                    None
                };
                for &w in &facets[fi] {
                    if self.assigned[w].is_some() {
                        continue;
                    }
                    let removed: BTreeSet<u64> = self.domains[w]
                        .iter()
                        .copied()
                        .filter(|x| value_set.contains(x) != keep_only)
                        .collect();
                    if removed.is_empty() {
                        continue;
                    }
                    stats.prunings += 1;
                    for x in &removed {
                        self.domains[w].remove(x);
                    }
                    self.refile(w);
                    let expl_added = match &reason {
                        Some(r) => self.note_expl(w, r),
                        None => Vec::new(),
                    };
                    trail.push(TrailEntry {
                        w,
                        removed,
                        expl_added,
                    });
                    match self.domains[w].len() {
                        0 => {
                            let expl = if self.learning {
                                Explanation::Levels(self.expl[w].clone())
                            } else {
                                Explanation::All
                            };
                            self.undo(&trail);
                            self.clear_assigned(vi);
                            return Err(expl);
                        }
                        1 => {
                            // forced: treat as assigned and propagate
                            let forced = *self.domains[w].first().unwrap();
                            self.set_assigned(w, forced);
                            if self.learning {
                                self.level_of[w] = level;
                                self.is_decision[w] = false;
                            }
                            trail.push(TrailEntry {
                                w,
                                removed: BTreeSet::new(), // marker for unassign
                                expl_added: Vec::new(),
                            });
                            queue.push(w);
                        }
                        _ => {}
                    }
                }
            }
            if self.learning {
                if let Err(expl) = self.consult_nogoods(v, level, &mut trail, &mut queue, stats) {
                    self.undo(&trail);
                    self.clear_assigned(vi);
                    return Err(expl);
                }
            }
        }
        Ok(trail)
    }

    /// Unit consultation of the learned-nogood store after `v` was
    /// assigned. A nogood whose other pairs all hold under the current
    /// assignment either prunes its one unassigned value (possibly
    /// forcing the vertex) or, when fully matched, is itself the
    /// conflict — the current prefix contains an assignment set already
    /// proven unextendable.
    fn consult_nogoods(
        &mut self,
        v: usize,
        level: u32,
        trail: &mut Trail,
        queue: &mut Vec<usize>,
        stats: &mut SolverStats,
    ) -> Result<(), Explanation> {
        let ids: Vec<u32> = self.store.by_vertex[v].clone();
        for id in ids {
            let ng = &self.store.items[id as usize];
            let mut unit: Option<(usize, u64)> = None;
            let mut disabled = false;
            for &(u, a) in &ng.pairs {
                match self.assigned[u as usize] {
                    Some(x) if x == a => {}
                    Some(_) => {
                        disabled = true;
                        break;
                    }
                    None => {
                        if unit.is_some() {
                            disabled = true;
                            break;
                        }
                        unit = Some((u as usize, a));
                    }
                }
            }
            if disabled {
                continue;
            }
            match unit {
                None => {
                    // fully matched: conflict, explained by the levels
                    // behind every pair of the nogood
                    stats.nogood_hits += 1;
                    self.store.items[id as usize].activity += 1;
                    let pairs = self.store.items[id as usize].pairs.clone();
                    let mut out = BTreeSet::new();
                    for (u, _) in pairs {
                        self.levels_into(u as usize, &mut out);
                    }
                    return Err(Explanation::Levels(out));
                }
                Some((u, a)) => {
                    if !self.domains[u].contains(&a) {
                        continue; // already pruned by something else
                    }
                    stats.nogood_hits += 1;
                    self.store.items[id as usize].activity += 1;
                    let pairs = self.store.items[id as usize].pairs.clone();
                    let mut reason = BTreeSet::new();
                    for &(w2, _) in &pairs {
                        if w2 as usize != u {
                            self.levels_into(w2 as usize, &mut reason);
                        }
                    }
                    self.domains[u].remove(&a);
                    self.refile(u);
                    let expl_added = self.note_expl(u, &reason);
                    trail.push(TrailEntry {
                        w: u,
                        removed: [a].into_iter().collect(),
                        expl_added,
                    });
                    match self.domains[u].len() {
                        0 => return Err(Explanation::Levels(self.expl[u].clone())),
                        1 => {
                            let forced = *self.domains[u].first().unwrap();
                            self.set_assigned(u, forced);
                            self.level_of[u] = level;
                            self.is_decision[u] = false;
                            trail.push(TrailEntry {
                                w: u,
                                removed: BTreeSet::new(),
                                expl_added: Vec::new(),
                            });
                            queue.push(u);
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }

    fn undo(&mut self, trail: &Trail) {
        for entry in trail.iter().rev() {
            if entry.removed.is_empty() {
                self.clear_assigned(entry.w);
            } else {
                self.domains[entry.w].extend(entry.removed.iter().copied());
                self.refile(entry.w);
                for l in &entry.expl_added {
                    self.expl[entry.w].remove(l);
                }
            }
        }
    }
}

/// A dense witness (see [`DecisionMapSolver::solve_dense`]) as a map
/// from vertex labels to values.
fn label_witness<V: Label>(instance: &PreparedInstance<V>, values: Vec<u64>) -> BTreeMap<V, u64> {
    instance.vertices.iter().cloned().zip(values).collect()
}

/// One level of the iterative backtracking search: the branched vertex,
/// its candidate values snapshotted at entry (the recursive version did
/// the same — propagation may shrink `domains[vi]` later, but the
/// candidate list is fixed when the vertex is selected), a cursor into
/// them, and — while a candidate's subtree is being explored — the undo
/// trail of its assignment.
struct Frame {
    vi: usize,
    candidates: Vec<u64>,
    next: usize,
    trail: Option<Trail>,
    /// Values proven futile at this frame: every refuted candidate plus
    /// its orbit under the generators that stabilized the partial
    /// assignment when the refutation completed (orbit branching).
    covered: Vec<u64>,
    /// Accumulated explanation for this frame's eventual exhaustion:
    /// seeded with the reasons for the values already missing from
    /// `vi`'s domain when the frame opened, then merged with every
    /// refuted candidate's explanation. Degrades to ⊤ as soon as orbit
    /// branching skips a candidate — a skipped value's refutation is
    /// transported along symmetries of the *whole* prefix, so no
    /// smaller implicant exists and the frame must neither backjump
    /// nor learn (see [`Explanation`]).
    conflict: Explanation,
}

impl Frame {
    fn open(vi: usize, state: &SearchState<'_>) -> Self {
        Frame {
            vi,
            candidates: state.domains[vi].iter().copied().collect(),
            next: 0,
            trail: None,
            covered: Vec::new(),
            conflict: if state.learning {
                Explanation::Levels(state.expl[vi].clone())
            } else {
                Explanation::All
            },
        }
    }

    /// Records the refutation of candidate `failed`: covers its orbit
    /// when a later candidate of this frame is still untried, since
    /// `covered` is read only by this frame's later candidates. The
    /// first such refutation of a search installs the generators,
    /// fetching the instance's symmetries (and so certifying them, if
    /// the instance defers certification); a search that never gets
    /// there fetches nothing.
    fn refute<'a, V>(
        &mut self,
        state: &mut SearchState<'a>,
        instance: &'a PreparedInstance<V>,
        failed: u64,
    ) {
        if self.next == self.candidates.len() {
            return;
        }
        if state.gens.is_none() {
            state.install_generators(instance.symmetries());
        }
        self.cover_orbit(state, failed);
    }

    /// Marks `failed` and its orbit as covered.
    ///
    /// **Soundness.** Called only when the subtree under
    /// `assigned[vi] = failed` has been exhaustively refuted and the
    /// search state is back to exactly what it was when this frame
    /// opened. A generator `(σ, π)` is *active* if `σ` fixes `vi` and
    /// currently stabilizes the partial assignment (`viol == 0`, see
    /// [`GenTrack`]). Transporting any hypothetical solution that
    /// extends the partial map with `δ(vi) = π(failed)` along the
    /// active generator yields a solution extending the same partial
    /// map with `δ(vi) = failed` — transport preserves validity
    /// (domain equivariance, checked at
    /// [`PreparedInstance::attach_symmetries`]) and agreement (`σ` is a
    /// complex automorphism and `π` a value bijection, so distinct
    /// value counts per facet are preserved; this is why
    /// [`AgreementConstraint::MaxRange`] — not invariant under value
    /// bijections — never enables orbit branching). Since `failed` was
    /// refuted, no such solution exists, so `π(failed)` (and, closing
    /// under the active set, its whole orbit) can be skipped without
    /// losing completeness — and without changing the verdict or the
    /// first witness found, because skipped candidates could only ever
    /// fail.
    fn cover_orbit(&mut self, state: &SearchState<'_>, failed: u64) {
        let gens = match &state.gens {
            Some(gens) if !gens.is_empty() => gens,
            _ => return,
        };
        let active: Vec<usize> = state.fixing[self.vi]
            .iter()
            .copied()
            .filter(|&g| gens[g].viol == 0)
            .collect();
        if active.is_empty() {
            return;
        }
        if !self.covered.contains(&failed) {
            self.covered.push(failed);
        }
        let mut queue = vec![failed];
        while let Some(x) = queue.pop() {
            for &g in &active {
                let y = gens[g].values[x as usize];
                if !self.covered.contains(&y) {
                    self.covered.push(y);
                    queue.push(y);
                }
            }
        }
    }
}

impl DecisionMapSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        DecisionMapSolver::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        DecisionMapSolver {
            stats: SolverStats::default(),
            config,
            last_nogoods: Vec::new(),
        }
    }

    /// Statistics from the last `solve` call.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The nogoods recorded by the last solve, as `(vertex index,
    /// value)` assignment sets over the prepared instance's dense
    /// vertex indexing (see [`PreparedInstance::vertex_labels`]). Each
    /// is a machine-checked lemma — *no* decision map of the instance
    /// contains all of its assignments — independent of the symmetry
    /// and learning configuration it was derived under, which is what
    /// the differential suite exploits: every witness, from any
    /// configuration, is checked against every learned nogood.
    pub fn learned_nogoods(&self) -> &[Vec<(u32, u64)>] {
        &self.last_nogoods
    }

    /// Searches for a decision map on `complex` where each vertex `v` may
    /// take any value in `allowed(v)` (the validity constraint) and every
    /// simplex carries at most `k` distinct values (the agreement
    /// constraint; checking facets suffices).
    ///
    /// Returns a witness map, or `None` when **no** decision map exists.
    pub fn solve<V: Label>(
        &mut self,
        complex: &Complex<V>,
        allowed: impl FnMut(&V) -> BTreeSet<u64>,
        k: usize,
    ) -> Option<BTreeMap<V, u64>> {
        self.solve_with(complex, allowed, AgreementConstraint::AtMostKDistinct(k))
    }

    /// [`DecisionMapSolver::solve`] generalized to any
    /// [`AgreementConstraint`].
    ///
    /// Prepares the instance ([`PreparedInstance::new`]) and solves it;
    /// callers solving the same complex under several constraints
    /// should prepare once and call
    /// [`DecisionMapSolver::solve_prepared`] directly.
    pub fn solve_with<V: Label>(
        &mut self,
        complex: &Complex<V>,
        allowed: impl FnMut(&V) -> BTreeSet<u64>,
        constraint: AgreementConstraint,
    ) -> Option<BTreeMap<V, u64>> {
        let prepared = PreparedInstance::new(complex, allowed);
        self.solve_prepared(&prepared, constraint)
    }

    /// Solves a prepared instance under `constraint`, reusing its facet
    /// index and validity domains (see [`PreparedInstance`]).
    ///
    /// Returns a witness map, or `None` when **no** decision map exists
    /// (the search is exhaustive either way).
    pub fn solve_prepared<V: Label>(
        &mut self,
        instance: &PreparedInstance<V>,
        constraint: AgreementConstraint,
    ) -> Option<BTreeMap<V, u64>> {
        let values = self.solve_dense(instance, constraint)?;
        Some(label_witness(instance, values))
    }

    /// [`DecisionMapSolver::solve_prepared`] without the label map: the
    /// witness is each vertex's value in
    /// [`PreparedInstance::vertex_labels`] order, so a caller that only
    /// needs the verdict clones no labels.
    pub(crate) fn solve_dense<V>(
        &mut self,
        instance: &PreparedInstance<V>,
        constraint: AgreementConstraint,
    ) -> Option<Vec<u64>> {
        self.stats = SolverStats::default();
        self.last_nogoods.clear();
        if instance.vertices.is_empty() {
            return Some(Vec::new());
        }
        if instance.domains.iter().any(|d| d.is_empty()) {
            return None;
        }
        let mut state = SearchState::new(
            instance,
            constraint,
            self.config.forward_checking,
            self.config.learning,
            NOGOOD_CAP,
        );
        // Orbit branching transports solutions along value bijections,
        // which preserves distinct-value counts (AtMostKDistinct,
        // AllDistinct) but not value *ranges*: MaxRange stays unpruned,
        // so its search starts with no generators to install and never
        // fetches the instance's symmetries.
        if matches!(constraint, AgreementConstraint::MaxRange(_)) {
            state.gens = Some(Vec::new());
        }
        let solved = self.backtrack(instance, &mut state);
        self.last_nogoods = state
            .store
            .items
            .iter()
            .map(|ng| ng.pairs.clone())
            .collect();
        if solved {
            debug_assert!(
                self.last_nogoods.iter().all(|ng| ng
                    .iter()
                    .any(|&(v, a)| state.assigned[v as usize] != Some(a))),
                "a learned nogood contradicts the accepted witness"
            );
            Some(state.witness())
        } else {
            None
        }
    }

    /// The most-constrained unassigned vertex, or `None` when all are
    /// assigned: the first entry of the selection index, i.e. the
    /// smallest domain, ties to the vertex on the most facets, remaining
    /// ties to the lowest vertex index. O(log V) per decision.
    ///
    /// Debug builds cross-check the pick against the linear scan
    /// [`DecisionMapSolver::select_scan`] on instances of at most
    /// [`SCAN_CHECK_MAX_VERTICES`] vertices, so every test that searches
    /// a small instance — backjumps and orbit branching included — also
    /// checks that the index is kept in step.
    fn select(state: &SearchState<'_>) -> Option<usize> {
        let pick = state.unassigned.first().map(|&(_, _, w)| w);
        debug_assert!(
            state.domains.len() > SCAN_CHECK_MAX_VERTICES || pick == Self::select_scan(state),
            "selection index picked {pick:?}, the scan {:?}",
            Self::select_scan(state)
        );
        pick
    }

    /// [`DecisionMapSolver::select`] by an O(V) scan over every vertex
    /// (`min_by_key` keeps the first of equal keys, so remaining ties
    /// go to the lowest index): the recursive oracle's selection rule,
    /// and the reference the index is checked against.
    fn select_scan(state: &SearchState<'_>) -> Option<usize> {
        (0..state.domains.len())
            .filter(|&i| state.assigned[i].is_none())
            .min_by_key(|&i| {
                (
                    state.domains[i].len(),
                    usize::MAX - state.facets_of[i].len(),
                )
            })
    }

    /// Complete conflict-driven search with an **explicit frame
    /// stack**: one heap-allocated [`Frame`] per branched vertex, so
    /// the search depth (up to the vertex count of the complex) is
    /// bounded by memory, not by the thread stack.
    ///
    /// With learning off the loop is exactly the chronological search —
    /// same candidate order, pruning, and statistics as the recursive
    /// oracle below (the equivalence proptest pins that). With learning
    /// on (the default), an exhausted frame's accumulated
    /// [`Explanation`] drives conflict analysis: the implicated
    /// decision assignments are recorded as a nogood, the search jumps
    /// straight back to the deepest implicated level (retracting the
    /// levels in between wholesale — their re-enumeration is what
    /// chronological search wastes time on), and the remaining levels
    /// become part of the target frame's own explanation.
    fn backtrack<'a, V>(
        &mut self,
        instance: &'a PreparedInstance<V>,
        state: &mut SearchState<'a>,
    ) -> bool {
        let mut stack: Vec<Frame> = Vec::new();
        match Self::select(state) {
            None => return true, // no vertex to branch on
            Some(vi) => stack.push(Frame::open(vi, state)),
        }
        loop {
            // the frame on top of the stack sits at this decision level
            let level = stack.len().wrapping_sub(1);
            let Some(frame) = stack.last_mut() else {
                return false; // every branch of the root exhausted
            };
            // Control only re-enters a frame that still holds a trail
            // when its subtree failed: retract the applied assignment
            // before trying the next candidate.
            if let Some(trail) = frame.trail.take() {
                state.undo(&trail);
                state.clear_assigned(frame.vi);
                self.stats.backtracks += 1;
                // the candidate whose subtree just failed (the cursor
                // advanced past it before descending)
                let failed = frame.candidates[frame.next - 1];
                frame.refute(state, instance, failed);
            }
            let mut descended = false;
            while frame.next < frame.candidates.len() {
                let val = frame.candidates[frame.next];
                frame.next += 1;
                if frame.covered.contains(&val) {
                    self.stats.orbit_skips += 1;
                    frame.conflict.merge(Explanation::All);
                    continue;
                }
                self.stats.assignments += 1;
                match state.assign(frame.vi, val, level as u32, &mut self.stats) {
                    Ok(trail) => {
                        frame.trail = Some(trail);
                        descended = true;
                        break;
                    }
                    Err(mut expl) => {
                        self.stats.backtracks += 1;
                        frame.refute(state, instance, val);
                        // the candidate's refutation conditioned on this
                        // frame's own level explains only the candidate,
                        // not the levels above it
                        if let Explanation::Levels(s) = &mut expl {
                            s.remove(&(level as u32));
                        }
                        frame.conflict.merge(expl);
                    }
                }
            }
            if descended {
                match Self::select(state) {
                    None => return true, // all assigned: a witness
                    Some(vi) => stack.push(Frame::open(vi, state)),
                }
                continue;
            }
            // dead end: every candidate refuted or skipped — analyze
            let exhausted = stack.pop().expect("a frame was on the stack");
            match exhausted.conflict {
                Explanation::All => {
                    // chronological retreat; the parent's subtree
                    // refutation inherits "no explanation"
                    if let Some(parent) = stack.last_mut() {
                        parent.conflict.merge(Explanation::All);
                    }
                }
                Explanation::Levels(mut set) => {
                    let level = stack.len(); // the exhausted frame's level
                    debug_assert!(
                        set.iter().all(|&l| (l as usize) < level),
                        "explanations only implicate earlier levels"
                    );
                    // record the lemma: the implicated decision
                    // assignments are jointly unextendable
                    let pairs: Vec<(u32, u64)> = set
                        .iter()
                        .map(|&j| {
                            let v = stack[j as usize].vi;
                            (v as u32, state.assigned[v].expect("decision is assigned"))
                        })
                        .collect();
                    if state.store.insert(pairs) {
                        self.stats.learned_nogoods += 1;
                    }
                    let Some(&target) = set.iter().next_back() else {
                        // no decision implicated: unsolvable outright
                        return false;
                    };
                    let target = target as usize;
                    let jump = level - target;
                    self.stats.max_jump = self.stats.max_jump.max(jump);
                    if jump > 1 {
                        self.stats.backjumps += 1;
                    }
                    // retract the levels the conflict proved irrelevant
                    // (no `backtracks` tick: their candidates are not
                    // being advanced, the whole levels just vanish)
                    while stack.len() > target + 1 {
                        let mut skipped = stack.pop().expect("target < stack.len()");
                        if let Some(trail) = skipped.trail.take() {
                            state.undo(&trail);
                            state.clear_assigned(skipped.vi);
                        }
                    }
                    // the target frame's current candidate is refuted
                    // under the remaining implicated levels; its open
                    // trail is retracted by re-entry above
                    set.remove(&(target as u32));
                    let parent = stack.last_mut().expect("jump target exists");
                    parent.conflict.merge(Explanation::Levels(set));
                }
            }
        }
    }

    /// The recursive reference implementation the iterative
    /// [`DecisionMapSolver::backtrack`] replaced. Kept as a test
    /// oracle: the equivalence proptest asserts identical verdicts
    /// *and* identical statistics against the learning-off iterative
    /// search on random instances. Never call this on large complexes —
    /// its search depth is the vertex count and it WILL overflow small
    /// thread stacks (that being the point).
    fn backtrack_recursive(&mut self, state: &mut SearchState<'_>) -> bool {
        let Some(vi) = Self::select_scan(state) else {
            return true; // all assigned
        };
        let candidates: Vec<u64> = state.domains[vi].iter().copied().collect();
        for val in candidates {
            self.stats.assignments += 1;
            if let Ok(trail) = state.assign(vi, val, 0, &mut self.stats) {
                if self.backtrack_recursive(state) {
                    return true;
                }
                state.undo(&trail);
                state.clear_assigned(vi);
            }
            self.stats.backtracks += 1;
        }
        false
    }

    /// [`DecisionMapSolver::solve_prepared`] running on the recursive
    /// chronological oracle instead of the iterative conflict-driven
    /// search — no learning, no orbit branching, call-stack recursion.
    ///
    /// Exposed (hidden) so the differential integration suite can
    /// cross-check the production search against it; it is not part of
    /// the supported API and overflows small thread stacks on large
    /// complexes by design.
    #[doc(hidden)]
    pub fn solve_prepared_recursive_oracle<V: Label>(
        &mut self,
        instance: &PreparedInstance<V>,
        constraint: AgreementConstraint,
    ) -> Option<BTreeMap<V, u64>> {
        self.stats = SolverStats::default();
        self.last_nogoods.clear();
        if instance.vertices.is_empty() {
            return Some(BTreeMap::new());
        }
        if instance.domains.iter().any(|d| d.is_empty()) {
            return None;
        }
        let mut state =
            SearchState::new(instance, constraint, self.config.forward_checking, false, 1);
        if self.backtrack_recursive(&mut state) {
            Some(label_witness(instance, state.witness()))
        } else {
            None
        }
    }

    /// [`DecisionMapSolver::solve_with`] running on the recursive
    /// oracle instead of the iterative search.
    #[cfg(test)]
    fn solve_with_recursive<V: Label>(
        &mut self,
        complex: &Complex<V>,
        allowed: impl FnMut(&V) -> BTreeSet<u64>,
        constraint: AgreementConstraint,
    ) -> Option<BTreeMap<V, u64>> {
        let instance = PreparedInstance::new(complex, allowed);
        self.solve_prepared_recursive_oracle(&instance, constraint)
    }

    /// Verifies that `map` is a valid k-set agreement decision map.
    pub fn verify<V: Label>(
        complex: &Complex<V>,
        map: &BTreeMap<V, u64>,
        allowed: impl FnMut(&V) -> BTreeSet<u64>,
        k: usize,
    ) -> bool {
        Self::verify_with(
            complex,
            map,
            allowed,
            AgreementConstraint::AtMostKDistinct(k),
        )
    }

    /// Verifies `map` against an arbitrary [`AgreementConstraint`].
    pub fn verify_with<V: Label>(
        complex: &Complex<V>,
        map: &BTreeMap<V, u64>,
        mut allowed: impl FnMut(&V) -> BTreeSet<u64>,
        constraint: AgreementConstraint,
    ) -> bool {
        for v in complex.vertex_set() {
            match map.get(&v) {
                Some(x) if allowed(&v).contains(x) => {}
                _ => return false,
            }
        }
        complex.facets().all(|f| {
            let values: Vec<u64> = f
                .vertices()
                .iter()
                .filter_map(|v| map.get(v))
                .copied()
                .collect();
            let distinct: BTreeSet<u64> = values.iter().copied().collect();
            match constraint {
                AgreementConstraint::AtMostKDistinct(k) => distinct.len() <= k,
                AgreementConstraint::AllDistinct => distinct.len() == values.len(),
                AgreementConstraint::MaxRange(range) => match (distinct.first(), distinct.last()) {
                    (Some(&lo), Some(&hi)) => hi - lo <= range,
                    _ => true,
                },
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_topology::Simplex;

    fn s(vs: &[u32]) -> Simplex<u32> {
        Simplex::from_iter(vs.iter().copied())
    }

    #[test]
    fn empty_complex_trivially_solvable() {
        let mut solver = DecisionMapSolver::new();
        let c = Complex::<u32>::new();
        let m = solver.solve(&c, |_| [0].into_iter().collect(), 1);
        assert_eq!(m, Some(BTreeMap::new()));
    }

    #[test]
    fn single_simplex_consensus() {
        let mut solver = DecisionMapSolver::new();
        let c = Complex::simplex(s(&[0, 1, 2]));
        let m = solver
            .solve(&c, |_| [0u64, 1].into_iter().collect(), 1)
            .expect("solvable");
        let distinct: BTreeSet<u64> = m.values().copied().collect();
        assert_eq!(distinct.len(), 1);
        assert!(DecisionMapSolver::verify(
            &c,
            &m,
            |_| [0u64, 1].into_iter().collect(),
            1
        ));
    }

    #[test]
    fn forced_disagreement_unsolvable() {
        let mut solver = DecisionMapSolver::new();
        let c = Complex::simplex(s(&[0, 1]));
        let m = solver.solve(
            &c,
            |v| {
                if *v == 0 {
                    [0u64].into_iter().collect()
                } else {
                    [1u64].into_iter().collect()
                }
            },
            1,
        );
        assert_eq!(m, None);
        assert!(solver.stats().assignments > 0);
    }

    #[test]
    fn k2_allows_two_values() {
        let mut solver = DecisionMapSolver::new();
        let c = Complex::simplex(s(&[0, 1]));
        let m = solver.solve(&c, |v| [u64::from(*v == 1)].into_iter().collect(), 2);
        assert!(m.is_some());
    }

    #[test]
    fn path_with_pinned_endpoints() {
        // consensus on a path 0-1-2 with endpoints pinned to different
        // values: every edge forces equality, so k=1 is impossible.
        let mut solver = DecisionMapSolver::new();
        let c = Complex::from_facets([s(&[0, 1]), s(&[1, 2])]);
        let dom = |v: &u32| -> BTreeSet<u64> {
            match v {
                0 => [0u64].into_iter().collect(),
                2 => [1u64].into_iter().collect(),
                _ => [0u64, 1].into_iter().collect(),
            }
        };
        assert_eq!(solver.solve(&c, dom, 1), None);
        assert!(solver.stats().prunings > 0);
        assert!(solver.solve(&c, dom, 2).is_some());
    }

    #[test]
    fn long_path_fails_fast_with_propagation() {
        // a 60-vertex path with pinned endpoints: propagation should
        // wipe out quickly rather than exploring 2^58 assignments.
        let facets: Vec<Simplex<u32>> = (0..59u32).map(|i| s(&[i, i + 1])).collect();
        let c = Complex::from_facets(facets);
        let dom = |v: &u32| -> BTreeSet<u64> {
            match v {
                0 => [0u64].into_iter().collect(),
                59 => [1u64].into_iter().collect(),
                _ => [0u64, 1].into_iter().collect(),
            }
        };
        let mut solver = DecisionMapSolver::new();
        assert_eq!(solver.solve(&c, dom, 1), None);
        assert!(
            solver.stats().assignments < 200,
            "propagation too weak: {:?}",
            solver.stats()
        );
    }

    #[test]
    fn empty_domain_unsolvable() {
        let mut solver = DecisionMapSolver::new();
        let c = Complex::simplex(s(&[0]));
        assert_eq!(solver.solve(&c, |_| BTreeSet::new(), 1), None);
    }

    #[test]
    fn solution_verified_on_triangulated_instance() {
        // mixed-dimension complex, k = 2, three values
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[2, 3, 4]), s(&[4, 5])]);
        let allowed =
            |v: &u32| -> BTreeSet<u64> { [0u64, 1, u64::from(*v) % 3].into_iter().collect() };
        let mut solver = DecisionMapSolver::new();
        let m = solver.solve(&c, allowed, 2).expect("solvable");
        assert!(DecisionMapSolver::verify(&c, &m, allowed, 2));
    }

    #[test]
    fn all_distinct_constraint() {
        // a triangle with namespace {0,1,2}: all-distinct solvable;
        // namespace {0,1}: pigeonhole makes it impossible.
        let c = Complex::simplex(s(&[0, 1, 2]));
        let wide = |_: &u32| -> BTreeSet<u64> { (0..3).collect() };
        let narrow = |_: &u32| -> BTreeSet<u64> { (0..2).collect() };
        let mut solver = DecisionMapSolver::new();
        let m = solver
            .solve_with(&c, wide, AgreementConstraint::AllDistinct)
            .expect("3 names suffice");
        assert!(DecisionMapSolver::verify_with(
            &c,
            &m,
            wide,
            AgreementConstraint::AllDistinct
        ));
        assert_eq!(
            solver.solve_with(&c, narrow, AgreementConstraint::AllDistinct),
            None
        );
    }

    #[test]
    fn all_distinct_across_shared_faces() {
        // two triangles sharing an edge: 3 names still suffice (proper
        // coloring style), and the shared edge keeps maps consistent.
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[1, 2, 3])]);
        let dom = |_: &u32| -> BTreeSet<u64> { (0..3).collect() };
        let mut solver = DecisionMapSolver::new();
        let m = solver
            .solve_with(&c, dom, AgreementConstraint::AllDistinct)
            .expect("colorable");
        assert!(DecisionMapSolver::verify_with(
            &c,
            &m,
            dom,
            AgreementConstraint::AllDistinct
        ));
        assert_eq!(m[&0], m[&3].min(m[&0]).max(m[&0])); // m[0] may equal m[3]
    }

    #[test]
    fn max_range_constraint() {
        // a path with endpoints pinned 3 apart: range 3 solvable,
        // range 1 requires intermediate values and a short path fails
        let c = Complex::from_facets([s(&[0, 1]), s(&[1, 2])]);
        let dom = |v: &u32| -> BTreeSet<u64> {
            match v {
                0 => [0u64].into_iter().collect(),
                2 => [3u64].into_iter().collect(),
                _ => (0..=3u64).collect(),
            }
        };
        let mut solver = DecisionMapSolver::new();
        assert!(solver
            .solve_with(&c, dom, AgreementConstraint::MaxRange(3))
            .is_some());
        // with range 1 the middle vertex would need to be within 1 of
        // both 0 and 3: impossible
        assert_eq!(
            solver.solve_with(&c, dom, AgreementConstraint::MaxRange(1)),
            None
        );
        // a longer path gives room to interpolate
        let long = Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[2, 3]), s(&[3, 4])]);
        let dom_long = |v: &u32| -> BTreeSet<u64> {
            match v {
                0 => [0u64].into_iter().collect(),
                4 => [3u64].into_iter().collect(),
                _ => (0..=3u64).collect(),
            }
        };
        let m = solver
            .solve_with(&long, dom_long, AgreementConstraint::MaxRange(1))
            .expect("interpolation possible");
        assert!(DecisionMapSolver::verify_with(
            &long,
            &m,
            dom_long,
            AgreementConstraint::MaxRange(1)
        ));
    }

    #[test]
    fn max_range_zero_is_consensus() {
        let c = Complex::from_facets([s(&[0, 1]), s(&[1, 2])]);
        let dom = |v: &u32| -> BTreeSet<u64> {
            match v {
                0 => [0u64].into_iter().collect(),
                2 => [1u64].into_iter().collect(),
                _ => [0u64, 1].into_iter().collect(),
            }
        };
        let mut solver = DecisionMapSolver::new();
        let range0 = solver.solve_with(&c, dom, AgreementConstraint::MaxRange(0));
        let k1 = solver.solve(&c, dom, 1);
        assert_eq!(range0.is_some(), k1.is_some());
    }

    #[test]
    fn ablation_no_forward_checking_still_complete() {
        // the ablation config must return identical verdicts, only
        // slower (learning off on both sides so the comparison
        // isolates what forward checking buys)
        let facets: Vec<Simplex<u32>> = (0..12u32).map(|i| s(&[i, i + 1])).collect();
        let c = Complex::from_facets(facets);
        let dom = |v: &u32| -> BTreeSet<u64> {
            match v {
                0 => [0u64].into_iter().collect(),
                12 => [1u64].into_iter().collect(),
                _ => [0u64, 1].into_iter().collect(),
            }
        };
        let mut fast = DecisionMapSolver::with_config(SolverConfig {
            learning: false,
            ..SolverConfig::default()
        });
        let mut slow = DecisionMapSolver::with_config(SolverConfig {
            forward_checking: false,
            learning: false,
        });
        assert_eq!(fast.solve(&c, dom, 1), None);
        assert_eq!(slow.solve(&c, dom, 1), None);
        assert_eq!(slow.stats().prunings, 0);
        assert!(
            slow.stats().assignments > fast.stats().assignments,
            "propagation should reduce work: fast={:?} slow={:?}",
            fast.stats(),
            slow.stats()
        );
        // solvable case agrees too
        assert_eq!(
            fast.solve(&c, dom, 2).is_some(),
            slow.solve(&c, dom, 2).is_some()
        );
    }

    #[test]
    fn verify_rejects_bad_maps() {
        let c = Complex::simplex(s(&[0, 1]));
        let allowed = |_: &u32| -> BTreeSet<u64> { [0u64, 1].into_iter().collect() };
        let bad: BTreeMap<u32, u64> = [(0u32, 0u64), (1u32, 1u64)].into_iter().collect();
        assert!(!DecisionMapSolver::verify(&c, &bad, allowed, 1));
        assert!(DecisionMapSolver::verify(&c, &bad, allowed, 2));
        let incomplete: BTreeMap<u32, u64> = [(0u32, 0u64)].into_iter().collect();
        assert!(!DecisionMapSolver::verify(&c, &incomplete, allowed, 2));
        let invalid: BTreeMap<u32, u64> = [(0u32, 9u64), (1u32, 9)].into_iter().collect();
        assert!(!DecisionMapSolver::verify(&c, &invalid, allowed, 1));
    }

    #[test]
    fn prepared_instance_reused_across_constraints() {
        // One PreparedInstance, several constraints: verdicts must match
        // the one-shot solve_with path exactly (same stats, too — the
        // search never sees how the instance was built).
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[2, 3, 4]), s(&[4, 5, 0])]);
        let dom = |v: &u32| -> BTreeSet<u64> {
            if (*v).is_multiple_of(2) {
                [0u64, 1].into_iter().collect()
            } else {
                [1u64, 2].into_iter().collect()
            }
        };
        let prepared = PreparedInstance::new(&c, dom);
        assert_eq!(prepared.vertex_count(), 6);
        assert_eq!(prepared.facet_count(), 3);
        for k in 1..=3usize {
            let constraint = AgreementConstraint::AtMostKDistinct(k);
            let mut shared = DecisionMapSolver::new();
            let got = shared.solve_prepared(&prepared, constraint);
            let mut fresh = DecisionMapSolver::new();
            let want = fresh.solve_with(&c, dom, constraint);
            assert_eq!(got, want, "k={k}");
            assert_eq!(shared.stats(), fresh.stats(), "k={k}");
            if let Some(map) = got {
                assert!(DecisionMapSolver::verify_with(&c, &map, dom, constraint));
            }
        }
    }

    /// A value-permutation symmetry with the identity vertex map. Valid
    /// for any complex whose domains are all invariant under `values`
    /// (attach_symmetries re-checks this).
    fn value_symmetry(n: usize, values: Vec<u64>) -> InstanceSymmetry {
        InstanceSymmetry::new(ps_symmetry::Perm::identity(n), values).expect("valid tables")
    }

    #[test]
    fn orbit_branching_prunes_without_changing_verdict() {
        // all-distinct on a triangle with a 2-value namespace is a
        // pigeonhole impossibility; the instance is symmetric under
        // swapping the two values (identity on vertices, which fixes
        // the branch vertex). The pruned search refutes candidate 0 at
        // the root and skips its orbit-mate 1 outright.
        let c = Complex::simplex(s(&[0, 1, 2]));
        let dom = |_: &u32| -> BTreeSet<u64> { [0u64, 1].into_iter().collect() };
        let mut with_sym = PreparedInstance::new(&c, dom);
        assert_eq!(
            with_sym.attach_symmetries([value_symmetry(3, vec![1, 0])]),
            1
        );
        let mut pruned_solver = DecisionMapSolver::new();
        assert_eq!(
            pruned_solver.solve_prepared(&with_sym, AgreementConstraint::AllDistinct),
            None
        );
        let pruned_stats = pruned_solver.stats();
        assert!(
            pruned_stats.orbit_skips > 0,
            "expected orbit skips: {pruned_stats:?}"
        );
        let plain = PreparedInstance::new(&c, dom);
        let mut unpruned_solver = DecisionMapSolver::new();
        assert_eq!(
            unpruned_solver.solve_prepared(&plain, AgreementConstraint::AllDistinct),
            None
        );
        let unpruned_stats = unpruned_solver.stats();
        assert_eq!(unpruned_stats.orbit_skips, 0);
        assert!(
            pruned_stats.assignments < unpruned_stats.assignments,
            "pruning should save work: pruned={pruned_stats:?} unpruned={unpruned_stats:?}"
        );
        // solvable case: a 3-value namespace admits a map, and the
        // witness is identical with and without the (rotation) symmetry
        let wide = |_: &u32| -> BTreeSet<u64> { (0..3u64).collect() };
        let mut wide_sym = PreparedInstance::new(&c, wide);
        assert_eq!(
            wide_sym.attach_symmetries([value_symmetry(3, vec![1, 2, 0])]),
            1
        );
        let wide_plain = PreparedInstance::new(&c, wide);
        let got = pruned_solver.solve_prepared(&wide_sym, AgreementConstraint::AllDistinct);
        let want = unpruned_solver.solve_prepared(&wide_plain, AgreementConstraint::AllDistinct);
        assert!(got.is_some());
        assert_eq!(got, want);
    }

    #[test]
    fn attach_symmetries_filters_useless_generators() {
        let c = Complex::simplex(s(&[0, 1, 2]));
        let dom = |_: &u32| -> BTreeSet<u64> { [0u64, 1].into_iter().collect() };
        let mut inst = PreparedInstance::new(&c, dom);
        // identity value map: dropped (can never prune a value choice)
        let id_values = value_symmetry(3, vec![0, 1]);
        // fixed-point-free vertex map with a value swap: dropped
        let rotation = InstanceSymmetry::new(
            ps_symmetry::Perm::from_images(vec![1, 2, 0]).unwrap(),
            vec![1, 0],
        )
        .unwrap();
        // wrong degree: dropped
        let wrong_degree = value_symmetry(5, vec![1, 0]);
        // a useful one: identity vertices, swapped values
        let useful = value_symmetry(3, vec![1, 0]);
        assert_eq!(
            inst.attach_symmetries([id_values, rotation, wrong_degree, useful]),
            1
        );
        assert_eq!(inst.symmetry_count(), 1);
    }

    #[test]
    fn attach_symmetries_rejects_non_equivariant_domains() {
        // vertex 0 pinned to {0}: swapping values without swapping
        // vertices breaks dom(sigma(v)) == pi(dom(v))
        let c = Complex::simplex(s(&[0, 1]));
        let dom = |v: &u32| -> BTreeSet<u64> {
            if *v == 0 {
                [0u64].into_iter().collect()
            } else {
                [0u64, 1].into_iter().collect()
            }
        };
        let mut inst = PreparedInstance::new(&c, dom);
        assert_eq!(inst.attach_symmetries([value_symmetry(2, vec![1, 0])]), 0);
    }

    #[test]
    fn max_range_never_uses_orbit_branching() {
        // MaxRange is not invariant under value bijections; even with a
        // symmetry attached the solver must not skip candidates.
        let c = Complex::from_facets([s(&[0, 1]), s(&[1, 2])]);
        let dom = |_: &u32| -> BTreeSet<u64> { (0..=3u64).collect() };
        let mut inst = PreparedInstance::new(&c, dom);
        // value reversal x -> 3-x keeps every uniform domain invariant
        assert_eq!(
            inst.attach_symmetries([value_symmetry(3, vec![3, 2, 1, 0])]),
            1
        );
        let mut solver = DecisionMapSolver::new();
        let got = solver.solve_prepared(&inst, AgreementConstraint::MaxRange(1));
        assert!(got.is_some());
        assert_eq!(solver.stats().orbit_skips, 0);
    }

    /// Generators installed mid-search ([`SearchState::install_generators`])
    /// carry exactly the violation flags, counts and fixed-vertex lists
    /// that tracking them from the root leaves, at every prefix of an
    /// assignment sequence that sets, clears and re-sets vertices.
    #[test]
    fn installing_generators_mid_search_matches_tracking_from_the_root() {
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[0, 3])]);
        let dom = |_: &u32| -> BTreeSet<u64> { (0..3u64).collect() };
        let mut inst = PreparedInstance::new(&c, dom);
        // a value swap, and the same swap with vertices 1 and 2 swapped
        let swap_1_2 = ps_symmetry::Perm::transposition(4, 1, 2);
        let kept = inst.attach_symmetries([
            value_symmetry(4, vec![1, 0, 2]),
            InstanceSymmetry::new(swap_1_2, vec![1, 0, 2]).unwrap(),
        ]);
        assert_eq!(kept, 2);
        let syms = inst.symmetries();
        let constraint = AgreementConstraint::AtMostKDistinct(2);
        let steps: [(usize, Option<u64>); 7] = [
            (1, Some(0)),
            (2, Some(1)),
            (0, Some(2)),
            (2, None),
            (3, Some(2)),
            (2, Some(0)),
            (1, None),
        ];
        let mut violated = false;
        for prefix in 0..=steps.len() {
            let mut tracked = SearchState::new(&inst, constraint, true, false, 1);
            tracked.install_generators(syms);
            let mut late = SearchState::new(&inst, constraint, true, false, 1);
            for &(w, val) in &steps[..prefix] {
                for state in [&mut tracked, &mut late] {
                    match val {
                        Some(x) => state.set_assigned(w, x),
                        None => state.clear_assigned(w),
                    }
                }
            }
            late.install_generators(syms);
            assert_eq!(tracked.fixing, late.fixing);
            let (tracked, late) = (tracked.gens.unwrap(), late.gens.unwrap());
            for (a, b) in tracked.iter().zip(&late) {
                assert_eq!(a.vflag, b.vflag, "flags after {prefix} steps");
                assert_eq!(a.viol, b.viol, "violations after {prefix} steps");
                violated |= a.viol > 0;
            }
            assert_eq!(tracked.len(), late.len());
        }
        assert!(violated, "no prefix violates a generator");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Orbit branching with a value-permutation symmetry returns
        /// the same verdict as the unpruned search on random instances
        /// with uniform domains (where any value permutation of the
        /// shared domain is a valid symmetry) — in every learning
        /// configuration. With learning off the *witness* is identical
        /// too (skipped candidates could only ever fail, so the first
        /// success path is untouched); with learning on, nogood prunes
        /// may reorder the most-constrained-vertex heuristic, so only
        /// the verdict and witness validity are pinned.
        #[test]
        fn orbit_branching_matches_unpruned(
            facets in prop::collection::vec(
                prop::collection::vec(0u32..10, 1..=4usize), 1..=6usize),
            perm_seed in 0usize..6,
            k in 1usize..=2,
        ) {
            let nv = 10;
            let doms = vec![vec![0u64, 1, 2]];
            let (c, allowed) = arbitrary_instance(&facets, &doms, nv);
            // one of the 6 permutations of {0,1,2}
            let tables: [[u64; 3]; 6] = [
                [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
            ];
            let values = tables[perm_seed].to_vec();
            let n = c.vertex_set().len();
            let mut with_sym = PreparedInstance::new(&c, allowed);
            with_sym.attach_symmetries([value_symmetry(n, values)]);
            let plain = PreparedInstance::new(&c, allowed);
            let constraint = AgreementConstraint::AtMostKDistinct(k);
            for learning in [false, true] {
                let config = SolverConfig { learning, ..SolverConfig::default() };
                let mut pruned = DecisionMapSolver::with_config(config);
                let got = pruned.solve_prepared(&with_sym, constraint);
                let mut unpruned = DecisionMapSolver::with_config(config);
                let want = unpruned.solve_prepared(&plain, constraint);
                if learning {
                    prop_assert_eq!(got.is_some(), want.is_some());
                } else {
                    prop_assert_eq!(&got, &want);
                }
                if let Some(map) = got {
                    prop_assert!(DecisionMapSolver::verify_with(&c, &map, allowed, constraint));
                }
            }
        }
    }

    /// Builds the random instance shared by the oracle proptests: a
    /// complex from random facets over `nv` vertices, with per-vertex
    /// domains drawn from the `doms` table.
    fn arbitrary_instance<'a>(
        facets: &[Vec<u32>],
        doms: &'a [Vec<u64>],
        nv: u32,
    ) -> (Complex<u32>, impl Fn(&u32) -> BTreeSet<u64> + Copy + 'a) {
        let c = Complex::from_facets(
            facets
                .iter()
                .map(|f| Simplex::from_iter(f.iter().map(|v| v % nv))),
        );
        let allowed = move |v: &u32| -> BTreeSet<u64> {
            doms[(*v as usize) % doms.len()].iter().copied().collect()
        };
        (c, allowed)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// With learning off, the iterative frame-stack search is
        /// observationally identical to the recursive oracle it
        /// replaced: same verdict, same witness, same statistics — and
        /// any witness verifies. With learning on, conflict analysis
        /// may take a different route through the tree, so the oracle
        /// pins the verdict and witness validity. Checked with forward
        /// checking both on and off. The oracle selects by the linear
        /// scan, so equal statistics also show that the selection index
        /// picks the scan's vertex; in debug builds the conflict-driven
        /// run checks every pick against the scan as well.
        #[test]
        fn iterative_matches_recursive_oracle(
            facets in prop::collection::vec(
                prop::collection::vec(0u32..12, 1..=4usize), 1..=6usize),
            doms in prop::collection::vec(
                prop::collection::vec(0u64..4, 1..=3usize), 1..=4usize),
            k in 1usize..=3,
        ) {
            let nv = 12;
            let (c, allowed) = arbitrary_instance(&facets, &doms, nv);
            let constraint = AgreementConstraint::AtMostKDistinct(k);
            for forward_checking in [true, false] {
                let config = SolverConfig {
                    forward_checking,
                    learning: false,
                };
                let mut iter_solver = DecisionMapSolver::with_config(config);
                let got = iter_solver.solve_with(&c, allowed, constraint);
                let mut rec_solver = DecisionMapSolver::with_config(config);
                let want = rec_solver.solve_with_recursive(&c, allowed, constraint);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(iter_solver.stats(), rec_solver.stats());
                // the learning-off path must not touch the CDCL stats
                let off = iter_solver.stats();
                prop_assert_eq!(off.backjumps, 0);
                prop_assert_eq!(off.learned_nogoods, 0);
                prop_assert_eq!(off.nogood_hits, 0);
                prop_assert_eq!(off.max_jump, 0);
                if let Some(map) = &got {
                    prop_assert!(
                        DecisionMapSolver::verify_with(&c, map, allowed, constraint));
                }
                let mut cdcl_solver = DecisionMapSolver::with_config(SolverConfig {
                    forward_checking,
                    ..SolverConfig::default()
                });
                let cdcl = cdcl_solver.solve_with(&c, allowed, constraint);
                prop_assert_eq!(cdcl.is_some(), got.is_some());
                if let Some(map) = cdcl {
                    prop_assert!(
                        DecisionMapSolver::verify_with(&c, &map, allowed, constraint));
                }
            }
        }
    }

    #[test]
    fn nogood_store_eviction_keeps_cap() {
        let mut store = NogoodStore::new(8, 4);
        for i in 0..40u64 {
            assert!(store.insert(vec![(0, i), (1, i + 1)]));
            assert!(store.items.len() <= 8, "cap exceeded at insert {i}");
        }
        // high-activity nogoods survive eviction
        let mut store = NogoodStore::new(4, 2);
        for i in 0..4u64 {
            assert!(store.insert(vec![(0, i)]));
        }
        store.items[3].activity = 10;
        assert!(store.insert(vec![(1, 99)]));
        assert!(store.items.len() <= 4);
        assert!(
            store.items.iter().any(|ng| ng.pairs == vec![(0u32, 3u64)]),
            "the hot nogood was evicted"
        );
        // the vertex index matches the surviving items exactly
        for (id, ng) in store.items.iter().enumerate() {
            for &(v, _) in &ng.pairs {
                assert!(store.by_vertex[v as usize].contains(&(id as u32)));
            }
        }
        for (v, ids) in store.by_vertex.iter().enumerate() {
            for &id in ids {
                assert!(store.items[id as usize]
                    .pairs
                    .iter()
                    .any(|&(u, _)| u as usize == v));
            }
        }
    }

    #[test]
    fn nogood_store_rejects_empty_and_oversized() {
        let mut store = NogoodStore::new(8, 64);
        assert!(!store.insert(Vec::new()));
        let long: Vec<(u32, u64)> = (0..=MAX_NOGOOD_LEN as u32).map(|v| (v, 0)).collect();
        assert!(!store.insert(long));
        assert!(store.items.is_empty());
    }

    /// An incompatible pinned edge `(0, 9)` buried behind eight free
    /// vertices; unsolvable at k = 1 under [`buried_domain`].
    fn buried_conflict() -> Complex<u32> {
        let mut facets = vec![s(&[0, 9])];
        facets.extend((1..=8u32).map(|i| s(&[i])));
        Complex::from_facets(facets)
    }

    /// The domains of [`buried_conflict`]: vertex 9 takes values no
    /// other vertex can.
    fn buried_domain(v: &u32) -> BTreeSet<u64> {
        match v {
            9 => [2u64, 3].into_iter().collect(),
            _ => [0u64, 1].into_iter().collect(),
        }
    }

    /// [`buried_conflict`] with forward checking off so only search
    /// can find the contradiction: chronological backtracking
    /// re-enumerates the free block for every candidate pair, while
    /// conflict analysis explains the dead end by vertex 0's level
    /// alone, jumps straight back over the free block, and proves
    /// unsolvability after one pass per root candidate.
    #[test]
    fn backjumping_skips_irrelevant_decisions() {
        let (c, dom) = (buried_conflict(), buried_domain);
        let mk = |learning: bool| {
            DecisionMapSolver::with_config(SolverConfig {
                forward_checking: false,
                learning,
            })
        };
        let mut on = mk(true);
        let mut off = mk(false);
        assert_eq!(on.solve(&c, dom, 1), None);
        assert_eq!(off.solve(&c, dom, 1), None);
        let on_stats = on.stats();
        assert!(on_stats.backjumps > 0, "no backjump taken: {on_stats:?}");
        assert!(
            on_stats.max_jump > 1,
            "jumps never spanned levels: {on_stats:?}"
        );
        assert!(
            on_stats.learned_nogoods > 0,
            "nothing learned: {on_stats:?}"
        );
        assert!(
            on_stats.assignments < off.stats().assignments,
            "conflict analysis saved nothing: on={on_stats:?} off={:?}",
            off.stats()
        );
        // the recorded lemmas really are lemmas: each names vertex 0
        // (the only implicated decision), never a free vertex
        for ng in on.learned_nogoods() {
            assert!(
                ng.iter().all(|&(v, _)| v == 0 || v == 9),
                "overwide nogood {ng:?}"
            );
        }
    }

    /// `learned_nogoods` describes the last solve even when that solve
    /// returns before searching — on an empty complex, or on a vertex
    /// with an empty domain — instead of leaking the previous solve's
    /// nogoods, whose vertex indices belong to another instance.
    #[test]
    fn early_returns_clear_learned_nogoods() {
        let (c, dom) = (buried_conflict(), buried_domain);
        let mut solver = DecisionMapSolver::with_config(SolverConfig {
            forward_checking: false,
            learning: true,
        });
        let empty_domains = Complex::simplex(s(&[0, 1]));
        let empty_complex = Complex::<u32>::new();
        for early in [&empty_domains, &empty_complex] {
            assert_eq!(solver.solve(&c, dom, 1), None);
            assert!(!solver.learned_nogoods().is_empty(), "nothing learned");
            let got = solver.solve(early, |_| BTreeSet::new(), 1);
            assert_eq!(got.is_some(), early.facets().next().is_none());
            assert_eq!(solver.stats().learned_nogoods, 0);
            assert_eq!(solver.learned_nogoods(), &[] as &[Vec<(u32, u64)>]);
        }
    }

    /// Learned nogoods survive into sibling subtrees and keep firing:
    /// the search below must revisit compatible prefixes after an
    /// unrelated retreat, which is exactly when stored lemmas pay off.
    #[test]
    fn nogoods_fire_across_subtrees() {
        // k=1 on a 4-clique of "agreers" {0,1,2,3} pinned apart from a
        // block of free singletons: plenty of conflicts at several
        // depths with forward checking off
        let mut facets = vec![s(&[0, 1]), s(&[1, 2]), s(&[2, 3]), s(&[0, 3])];
        facets.extend((4..=9u32).map(|i| s(&[i])));
        let c = Complex::from_facets(facets);
        let dom = |v: &u32| -> BTreeSet<u64> {
            match v {
                0 => [0u64, 1].into_iter().collect(),
                3 => [2u64, 3].into_iter().collect(),
                _ => [0u64, 1, 2].into_iter().collect(),
            }
        };
        let mut solver = DecisionMapSolver::with_config(SolverConfig {
            forward_checking: false,
            ..SolverConfig::default()
        });
        assert_eq!(solver.solve(&c, dom, 1), None);
        let stats = solver.stats();
        assert!(stats.learned_nogoods > 0, "nothing learned: {stats:?}");
    }
}
