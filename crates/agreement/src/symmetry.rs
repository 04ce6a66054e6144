//! Instance-level symmetries for the decision-map solver.
//!
//! A protocol-complex instance handed to the solver carries two kinds
//! of structure a symmetry must respect: the facet anti-chain (the
//! complex itself) and the per-vertex validity domains. An
//! [`InstanceSymmetry`] is a pair of a vertex-index permutation and a
//! value permutation; it is *certified* for an instance when the
//! vertex part is an automorphism of the complex
//! ([`ps_symmetry::AutomorphismValidator`]) and the pair is
//! *domain-equivariant*: `dom(σ(v)) = π(dom(v))` for every vertex.
//! Under those two conditions, transporting any decision map through
//! `(σ, π)` yields another decision map — the fact orbit branching in
//! the solver and canonical-key caching in the sweeps both lean on
//! (soundness argument in `DESIGN.md` §7).
//!
//! [`task_symmetries`] builds certified generators for the task
//! complexes of [`crate::experiments`]: candidate process
//! permutations come from the model (generators constrained to fix
//! the failure pattern, closed into the full group when small) and
//! value permutations from the symmetric group on the input alphabet;
//! each candidate pair acts on full-information views by relabeling,
//! is lifted to a vertex permutation by looking the relabeled views
//! up, and kept only if certified.
//!
//! One certification core serves two callers. [`task_symmetries`]
//! certifies an interned complex, looking views up in its pool. The
//! sweeps keep neither pool nor complex once an instance is prepared:
//! they attach a deferred certifier, which certifies the same set on
//! the solver's first need, over the instance's own labels (looked up
//! through a borrowed index), the complex's pseudosphere cover and the
//! instance's facet lists.

use std::collections::{BTreeSet, HashMap};

use ps_core::ProcessId;
use ps_models::{SsView, View};
use ps_symmetry::{canonical_form, label_permutation, AutomorphismValidator, Perm};
use ps_topology::{IdComplex, IdSimplex, Label, PseudosphereCover, VertexPool};

use crate::solver::PreparedInstance;

/// A vertex permutation paired with a value permutation — one
/// candidate symmetry of a solver instance.
///
/// `vertex` is an image table over dense vertex indices; `values` is
/// an image table over decision values (indexed by value, so every
/// value that can appear in a domain must be `< values.len()`).
/// Certification against a concrete instance happens in
/// [`PreparedInstance::attach_symmetries`] (domain equivariance) and
/// [`task_symmetries`] (complex automorphism).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct InstanceSymmetry {
    /// Image table on vertex indices.
    pub(crate) vertex: Vec<u32>,
    /// Image table on values.
    pub(crate) values: Vec<u64>,
}

impl InstanceSymmetry {
    /// Builds a symmetry from a vertex permutation and a value image
    /// table. Returns `None` unless `values` is a bijection of
    /// `0..values.len()` onto itself.
    pub fn new(vertex: Perm, values: Vec<u64>) -> Option<InstanceSymmetry> {
        let mut seen = vec![false; values.len()];
        for &y in &values {
            let i = y as usize;
            if i >= values.len() || seen[i] {
                return None;
            }
            seen[i] = true;
        }
        Some(InstanceSymmetry {
            vertex: vertex.images().to_vec(),
            values,
        })
    }

    /// The image of vertex index `v`.
    pub fn vertex_image(&self, v: usize) -> usize {
        self.vertex[v] as usize
    }

    /// The image of value `x`.
    pub fn value_image(&self, x: u64) -> u64 {
        self.values[x as usize]
    }

    /// Whether the value part is the identity.
    pub fn is_value_identity(&self) -> bool {
        self.values.iter().enumerate().all(|(i, &y)| i as u64 == y)
    }
}

/// Views that support the product action of process and value
/// relabelings — the glue between the model layer's label-level
/// `relabel` and the table-based [`InstanceSymmetry`].
pub trait SymmetricView: Label {
    /// Applies a process image table and a value image table to every
    /// layer of the view.
    fn relabel_tables(&self, procs: &[ProcessId], values: &[u64]) -> Self;
}

impl SymmetricView for View<u64> {
    fn relabel_tables(&self, procs: &[ProcessId], values: &[u64]) -> Self {
        self.relabel(&|p: ProcessId| procs[p.0 as usize], &|v: &u64| {
            values[*v as usize]
        })
    }
}

impl SymmetricView for SsView<u64> {
    fn relabel_tables(&self, procs: &[ProcessId], values: &[u64]) -> Self {
        self.relabel(&|p: ProcessId| procs[p.0 as usize], &|v: &u64| {
            values[*v as usize]
        })
    }
}

/// Closes a generator set into the full generated group, giving up
/// (and returning identity + generators) past `cap` elements.
fn close_with_cap(gens: &[Perm], n: usize, cap: usize) -> Vec<Perm> {
    let mut group: BTreeSet<Perm> = BTreeSet::new();
    group.insert(Perm::identity(n));
    let mut queue: Vec<Perm> = vec![Perm::identity(n)];
    while let Some(p) = queue.pop() {
        for g in gens {
            let q = p.then(g);
            if group.insert(q.clone()) {
                if group.len() > cap {
                    let mut fallback = vec![Perm::identity(n)];
                    fallback.extend(gens.iter().cloned());
                    return fallback;
                }
                queue.push(q);
            }
        }
    }
    group.into_iter().collect()
}

/// Certified symmetry generators for a task-complex instance.
///
/// `proc_gens` are the model's process-permutation generators (image
/// tables respecting the failure pattern, e.g.
/// `ps_models::process_transpositions`); `values` is the input alphabet.
/// While `group size × facet count` stays within a fixed validation
/// budget, both sides are closed into their generated groups (so the
/// solver sees whole point stabilizers, not just transpositions), every
/// product pair acts on views by relabeling, and only pairs that lift
/// through the pool to genuine automorphisms of `complex` survive. On
/// larger complexes only the one-sided generators are validated facet
/// by facet; mixed pairs are composed algebraically from certified
/// parts (a composition of automorphisms is an automorphism).
///
/// The returned set excludes the identity and is deduplicated; it is
/// **not** the whole automorphism group of the complex, only the part
/// generated by model-level process and value relabelings — which is
/// exactly the part whose action on domains is known, making
/// domain-equivariance checkable downstream.
///
/// The sweeps certify the same set later, and only when the solver
/// needs it (see [`crate::PreparedInstance`]); this eager entry point
/// serves callers that hold the pool and the complex.
pub fn task_symmetries<V: SymmetricView>(
    pool: &VertexPool<V>,
    complex: &IdComplex,
    n_plus_1: usize,
    proc_gens: &[Vec<ProcessId>],
    values: &BTreeSet<u64>,
) -> Vec<InstanceSymmetry> {
    let validator = AutomorphismValidator::new(complex, pool.len());
    let lift = Lift {
        labels: pool.labels(),
        id_of: &|v| pool.id_of(v),
        validator: &validator,
        facet_count: complex.facet_count(),
    };
    lift.certify(n_plus_1, proc_gens, values)
}

/// Deferred certification of a prepared task instance: what
/// [`task_symmetries`] reads besides the instance's own labels and
/// facet lists, kept from preparation until the solver first fetches
/// the instance's symmetries.
#[derive(Clone, Debug)]
pub(crate) struct Certifier<V> {
    /// [`certify_prepared`] for the instance's view type. The solver
    /// places no bound on the view type, so the `SymmetricView` impl
    /// travels as this monomorphized function.
    run: fn(&PreparedInstance<V>, &Certifier<V>) -> Vec<InstanceSymmetry>,
    /// The complex's pseudosphere cover, if it had one.
    cover: Option<PseudosphereCover>,
    /// Number of processes.
    n_plus_1: usize,
    /// The input alphabet.
    values: BTreeSet<u64>,
}

impl<V: SymmetricView> Certifier<V> {
    /// Certification of the task over `values` with `n_plus_1`
    /// processes, on the complex's `cover`.
    pub(crate) fn new(
        cover: Option<PseudosphereCover>,
        n_plus_1: usize,
        values: &BTreeSet<u64>,
    ) -> Self {
        Certifier {
            run: certify_prepared::<V>,
            cover,
            n_plus_1,
            values: values.clone(),
        }
    }
}

impl<V> Certifier<V> {
    /// The task symmetries of `instance`, certified as
    /// [`task_symmetries`] would on the complex it was prepared from.
    pub(crate) fn certify(&self, instance: &PreparedInstance<V>) -> Vec<InstanceSymmetry> {
        (self.run)(instance, self)
    }
}

/// [`Certifier::certify`] for one view type: the instance's labels,
/// looked up through a borrowed index, on the cover with a fallback
/// walk over the instance's facet lists.
fn certify_prepared<V: SymmetricView>(
    instance: &PreparedInstance<V>,
    certifier: &Certifier<V>,
) -> Vec<InstanceSymmetry> {
    let labels = instance.vertex_labels();
    let index: HashMap<&V, u32> = labels.iter().zip(0..).collect();
    let facets = || {
        instance.facets.iter().map(|f| {
            let ids = f.iter().map(|&v| v as u32).collect();
            IdSimplex::from_sorted_ids(ids)
        })
    };
    let validator =
        AutomorphismValidator::with_facets(certifier.cover.as_ref(), labels.len(), facets);
    let lift = Lift {
        labels,
        id_of: &|v| index.get(v).copied(),
        validator: &validator,
        facet_count: instance.facet_count(),
    };
    let proc_gens = ps_models::process_transpositions(certifier.n_plus_1);
    lift.certify(certifier.n_plus_1, &proc_gens, &certifier.values)
}

/// What the certification core reads: the labels, a lookup from label
/// to vertex id, the automorphism validator, and the facet count that
/// sizes the validation budget.
struct Lift<'a, V> {
    labels: &'a [V],
    id_of: &'a dyn Fn(&V) -> Option<u32>,
    validator: &'a AutomorphismValidator<'a>,
    facet_count: usize,
}

impl<V: SymmetricView> Lift<'_, V> {
    /// The vertex permutation a process table and a value table induce
    /// by relabeling every view, if it is an automorphism.
    fn automorphism(&self, ptable: &[ProcessId], vtable: &[u64]) -> Option<Perm> {
        let vperm = label_permutation(self.labels, self.id_of, |view: &V| {
            view.relabel_tables(ptable, vtable)
        })?;
        self.validator.is_automorphism(&vperm).then_some(vperm)
    }

    /// The certification core behind [`task_symmetries`] and
    /// [`Certifier::certify`].
    fn certify(
        &self,
        n_plus_1: usize,
        proc_gens: &[Vec<ProcessId>],
        values: &BTreeSet<u64>,
    ) -> Vec<InstanceSymmetry> {
        debug_assert!(proc_gens.iter().all(|t| t.len() == n_plus_1));
        let vals: Vec<u64> = values.iter().copied().collect();
        // values are used as table indices downstream; non-dense alphabets
        // (holes below the max) would need an index indirection — the task
        // builders here always use {0..=k_max}
        let dense = vals.iter().enumerate().all(|(i, &v)| i as u64 == v);
        if !dense || vals.is_empty() {
            return Vec::new();
        }
        let proc_gens: Vec<Perm> = proc_gens
            .iter()
            .filter_map(|t| Perm::from_images(t.iter().map(|p| p.0).collect()))
            .filter(|p| !p.is_identity())
            .collect();
        let value_gens: Vec<Perm> = (0..vals.len() as u32)
            .flat_map(|i| (i + 1..vals.len() as u32).map(move |j| (i, j)))
            .map(|(i, j)| Perm::transposition(vals.len(), i, j))
            .collect();
        let mut out: BTreeSet<InstanceSymmetry> = BTreeSet::new();
        // Each validation walks every facet, so the exhaustive product-group
        // sweep is affordable only while `group size × facet count` stays
        // small. Past the budget, validate only the one-sided generators and
        // form mixed pairs algebraically: a composition of two certified
        // automorphisms is an automorphism, and process/value relabelings
        // commute (they substitute disjoint parts of a view), so no facet
        // walk is needed for the products.
        const VALIDATION_BUDGET: usize = 500_000;
        let proc_closure = close_with_cap(&proc_gens, n_plus_1, 128);
        let value_closure = close_with_cap(&value_gens, vals.len(), 32);
        let pairs = proc_closure.len() * value_closure.len();
        let per_pair = self.facet_count.max(1) + self.labels.len();
        if pairs.saturating_mul(per_pair) <= VALIDATION_BUDGET {
            for rho in &proc_closure {
                let ptable: Vec<ProcessId> = rho.images().iter().map(|&i| ProcessId(i)).collect();
                for pi in &value_closure {
                    if rho.is_identity() && pi.is_identity() {
                        continue;
                    }
                    let vtable: Vec<u64> = pi.images().iter().map(|&i| u64::from(i)).collect();
                    let Some(vperm) = self.automorphism(&ptable, &vtable) else {
                        continue;
                    };
                    if let Some(sym) = InstanceSymmetry::new(vperm, vtable) {
                        out.insert(sym);
                    }
                }
            }
            return out.into_iter().collect();
        }
        let id_ptable: Vec<ProcessId> = (0..n_plus_1 as u32).map(ProcessId).collect();
        let id_vtable: Vec<u64> = (0..vals.len() as u64).collect();
        let mut certified_proc: Vec<InstanceSymmetry> = Vec::new();
        for rho in &proc_gens {
            let ptable: Vec<ProcessId> = rho.images().iter().map(|&i| ProcessId(i)).collect();
            let Some(vperm) = self.automorphism(&ptable, &id_vtable) else {
                continue;
            };
            if let Some(sym) = InstanceSymmetry::new(vperm, id_vtable.clone()) {
                certified_proc.push(sym);
            }
        }
        let mut certified_val: Vec<InstanceSymmetry> = Vec::new();
        for pi in &value_gens {
            let vtable: Vec<u64> = pi.images().iter().map(|&i| u64::from(i)).collect();
            let Some(vperm) = self.automorphism(&id_ptable, &vtable) else {
                continue;
            };
            if let Some(sym) = InstanceSymmetry::new(vperm, vtable) {
                certified_val.push(sym);
            }
        }
        // mixed pairs: vertex part composes as σ_π ∘ σ_ρ, value part is π's
        for sp in &certified_proc {
            for sv in &certified_val {
                let vertex: Vec<u32> = sp.vertex.iter().map(|&w| sv.vertex[w as usize]).collect();
                out.insert(InstanceSymmetry {
                    vertex,
                    values: sv.values.clone(),
                });
            }
        }
        out.extend(certified_proc);
        out.extend(certified_val);
        out.into_iter().collect()
    }
}

/// A canonical cache key for a prepared instance: the canonically
/// relabeled facet list and domain coloring. Two instances with equal
/// keys are related by a domain-preserving simplicial isomorphism, so
/// every solver verdict transfers between them.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceKey {
    /// The sorted table of distinct validity domains (color `c` means
    /// "domain `domain_table[c]`") — part of the key so that equal
    /// color patterns with different underlying domains never collide.
    pub domain_table: Vec<Vec<u64>>,
    /// Canonical per-vertex colors (indices into `domain_table`).
    pub colors: Vec<u32>,
    /// Canonically relabeled facets.
    pub facets: Vec<Vec<u32>>,
}

/// An [`InstanceKey`] that is *proven exact*: the canonicalization
/// search ran to completion, so equal `ExactKey`s imply a genuine
/// domain-preserving isomorphism. The inner key is private and the
/// only constructor is [`instance_key`] (and its budgeted variant),
/// which refuse to wrap a budget-cut form — making "inexact key used
/// as a cache identity" unrepresentable rather than a doc-comment
/// convention. Persistent stores must key on this type.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExactKey(InstanceKey);

impl ExactKey {
    /// Read-only view of the canonical key material.
    pub fn key(&self) -> &InstanceKey {
        &self.0
    }

    /// The cheap isomorphism-invariant fingerprint of any instance
    /// with this canonical key. Agrees with [`instance_fingerprint`]
    /// of every instance in the key's isomorphism class (canonical
    /// relabeling preserves vertex count, facet sizes, and the domain
    /// multiset), so a store can maintain a fingerprint pre-filter
    /// from keys alone.
    pub fn fingerprint(&self) -> InstanceFingerprint {
        let k = &self.0;
        let mut facet_sizes: Vec<usize> = k.facets.iter().map(Vec::len).collect();
        facet_sizes.sort_unstable();
        let mut domains: Vec<Vec<u64>> = k
            .colors
            .iter()
            .map(|&c| k.domain_table[c as usize].clone())
            .collect();
        domains.sort_unstable();
        (k.colors.len(), facet_sizes, domains)
    }
}

/// The concrete fingerprint data: vertex count, sorted facet sizes,
/// sorted domain multiset (a shared type so fingerprints of
/// differently-labeled instances remain comparable).
pub type InstanceFingerprint = (usize, Vec<usize>, Vec<Vec<u64>>);

/// A cheap isomorphism-invariant fingerprint of a prepared instance;
/// instances with different fingerprints are never isomorphic, so the
/// expensive [`instance_key`] only runs on fingerprint collisions.
pub fn instance_fingerprint<V: Label>(inst: &PreparedInstance<V>) -> InstanceFingerprint {
    let mut facet_sizes: Vec<usize> = inst.facets.iter().map(Vec::len).collect();
    facet_sizes.sort_unstable();
    let mut domains: Vec<Vec<u64>> = inst
        .domains
        .iter()
        .map(|d| d.iter().copied().collect())
        .collect();
    domains.sort_unstable();
    (inst.vertices.len(), facet_sizes, domains)
}

/// Computes the canonical cache key of a prepared instance, coloring
/// vertices by their validity domains. Returns `None` when the
/// canonicalization budget is exhausted — a budget-cut form is not
/// relabeling-invariant, so no [`ExactKey`] exists for it and every
/// key-addressed cache treats the instance as a miss.
pub fn instance_key<V: Label>(inst: &PreparedInstance<V>) -> Option<ExactKey> {
    instance_key_budgeted(inst, ps_symmetry::canon::DEFAULT_BUDGET)
}

/// [`instance_key`] with an explicit canonicalization node budget.
/// Exposed so callers (and tests) can force the budget-cut path;
/// an exhausted budget yields `None`, never an inexact key.
pub fn instance_key_budgeted<V: Label>(
    inst: &PreparedInstance<V>,
    budget: usize,
) -> Option<ExactKey> {
    let InstanceKey {
        domain_table,
        colors,
        facets,
    } = raw_instance_key(inst);
    let cf = canonical_form(colors.len(), &facets, &colors, budget);
    cf.exact.then_some(ExactKey(InstanceKey {
        domain_table,
        colors: cf.colors,
        facets: cf.facets,
    }))
}

/// The verbatim (uncanonicalized) key triple of a prepared instance, in
/// build order.
fn raw_instance_key<V: Label>(inst: &PreparedInstance<V>) -> InstanceKey {
    let domain_table: Vec<Vec<u64>> = {
        let mut t: Vec<Vec<u64>> = inst
            .domains
            .iter()
            .map(|d| d.iter().copied().collect())
            .collect::<BTreeSet<Vec<u64>>>()
            .into_iter()
            .collect();
        t.sort_unstable();
        t
    };
    let colors: Vec<u32> = inst
        .domains
        .iter()
        .map(|d| {
            let flat: Vec<u64> = d.iter().copied().collect();
            domain_table.binary_search(&flat).expect("domain in table") as u32
        })
        .collect();
    let facets: Vec<Vec<u32>> = inst
        .facets
        .iter()
        .map(|f| f.iter().map(|&v| v as u32).collect())
        .collect();
    InstanceKey {
        domain_table,
        colors,
        facets,
    }
}

/// A *structural* cache key: the instance encoded verbatim in build
/// order, with no canonicalization. Equal structural keys mean the two
/// instances were built identically — a trivially sound (if maximally
/// fine-grained) content address. This is the exactness-preserving
/// fallback for instances whose canonicalization exceeds the node
/// budget: unlike a budget-cut canonical form it involves no arbitrary
/// labeling choice, so it is stable across runs as long as the
/// task-complex builders are deterministic (which they are — and which
/// the store equivalence tests pin).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructuralKey(InstanceKey);

impl StructuralKey {
    /// Encodes `inst` verbatim.
    pub fn of<V: Label>(inst: &PreparedInstance<V>) -> Self {
        StructuralKey(raw_instance_key(inst))
    }

    /// The underlying key triple.
    pub fn key(&self) -> &InstanceKey {
        &self.0
    }

    /// The isomorphism-invariant fingerprint of the keyed instance
    /// (identical to [`instance_fingerprint`] of the instance, and to
    /// [`ExactKey::fingerprint`] of its canonical key — the invariant
    /// does not depend on vertex order).
    pub fn fingerprint(&self) -> InstanceFingerprint {
        let k = &self.0;
        let mut facet_sizes: Vec<usize> = k.facets.iter().map(Vec::len).collect();
        facet_sizes.sort_unstable();
        let mut domains: Vec<Vec<u64>> = k
            .colors
            .iter()
            .map(|&c| k.domain_table[c as usize].clone())
            .collect();
        domains.sort_unstable();
        (k.colors.len(), facet_sizes, domains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{allowed_values, async_task_parts, sync_task_parts};

    #[test]
    fn instance_symmetry_rejects_bad_value_tables() {
        let id = Perm::identity(2);
        assert!(InstanceSymmetry::new(id.clone(), vec![0, 0]).is_none());
        assert!(InstanceSymmetry::new(id.clone(), vec![2, 0]).is_none());
        let sym = InstanceSymmetry::new(id, vec![1, 0]).unwrap();
        assert_eq!(sym.value_image(0), 1);
        assert!(!sym.is_value_identity());
    }

    #[test]
    fn async_task_symmetries_nonempty_and_certified() {
        let values: BTreeSet<u64> = (0..=1).collect();
        let (pool, complex) = async_task_parts(&values, 3, 1, 1);
        let proc_gens = ps_models::process_transpositions(3);
        let syms = task_symmetries(&pool, &complex, 3, &proc_gens, &values);
        // the full product group S_3 × S_2 minus identity acts
        // faithfully on this task complex
        assert_eq!(syms.len(), 11, "got {}", syms.len());
        // spot-check one: the pure value swap maps each view to its
        // value-swapped counterpart, and domains follow
        let validator = AutomorphismValidator::new(&complex, pool.len());
        for sym in &syms {
            let perm = Perm::from_images(sym.vertex.clone()).unwrap();
            assert!(validator.is_automorphism(&perm));
            for (v, label) in pool.labels().iter().enumerate() {
                let dom = allowed_values(label);
                let image_dom = allowed_values(pool.label(sym.vertex[v]));
                let mapped: BTreeSet<u64> = dom.iter().map(|&x| sym.value_image(x)).collect();
                assert_eq!(image_dom, mapped, "domain equivariance at vertex {v}");
            }
        }
    }

    #[test]
    fn sparse_value_alphabet_yields_no_symmetries() {
        let values: BTreeSet<u64> = [0, 5].into_iter().collect();
        let (pool, complex) = async_task_parts(&values, 2, 1, 1);
        let proc_gens = ps_models::process_transpositions(2);
        assert!(task_symmetries(&pool, &complex, 2, &proc_gens, &values).is_empty());
    }

    #[test]
    fn sync_instance_keys_collapse_equal_budgets() {
        // with one round and total budget f = 2, a per-round crash cap
        // of 2 and of 3 admit exactly the same crash patterns (the cap
        // binds at min(k_per_round, remaining budget)): the instances
        // are identical up to labeling and must share a canonical key
        let values: BTreeSet<u64> = (0..=1).collect();
        let (pool_a, ca) = sync_task_parts(&values, 3, 2, 2, 1);
        let (pool_b, cb) = sync_task_parts(&values, 3, 3, 2, 1);
        let ia = PreparedInstance::from_interned(&pool_a, &ca, allowed_values);
        let ib = PreparedInstance::from_interned(&pool_b, &cb, allowed_values);
        assert_eq!(instance_fingerprint(&ia), instance_fingerprint(&ib));
        let ka = instance_key(&ia).expect("exact");
        let kb = instance_key(&ib).expect("exact");
        assert_eq!(ka, kb);
        // a genuinely different instance gets a different key
        let (pool_c, cc) = sync_task_parts(&values, 3, 1, 1, 1);
        let ic = PreparedInstance::from_interned(&pool_c, &cc, allowed_values);
        assert_ne!(instance_key(&ic).expect("exact"), ka);
    }

    #[test]
    fn budget_cut_canonicalization_yields_no_exact_key() {
        // regression: a budget-cut (inexact) canonical form used to be
        // representable as an InstanceKey and excluded from reuse only
        // by convention; now no ExactKey can exist for it at all
        let values: BTreeSet<u64> = (0..=1).collect();
        let (pool, c) = async_task_parts(&values, 3, 1, 1);
        let inst = PreparedInstance::from_interned(&pool, &c, allowed_values);
        // this symmetric instance needs backtracking; one node cannot
        // finish the search
        assert!(instance_key_budgeted(&inst, 1).is_none());
        // the same instance under the default budget is exact
        assert!(instance_key(&inst).is_some());
    }

    #[test]
    fn exact_key_fingerprint_matches_instance_fingerprint() {
        let values: BTreeSet<u64> = (0..=1).collect();
        let (pool, c) = sync_task_parts(&values, 3, 1, 1, 1);
        let inst = PreparedInstance::from_interned(&pool, &c, allowed_values);
        let key = instance_key(&inst).expect("exact");
        assert_eq!(key.fingerprint(), instance_fingerprint(&inst));
    }
}
