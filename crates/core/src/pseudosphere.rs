//! Pseudospheres (Definition 3) and their combinatorial properties
//! (Lemma 4, Corollary 6).
//!
//! A pseudosphere `ψ(S^m; U_0, ..., U_m)` assigns to each vertex `s_i` of a
//! base simplex an independent, finite value family `U_i`. Its vertices
//! are pairs `(s_i, u)` with `u ∈ U_i`, and vertices span a simplex iff
//! their base vertices are distinct. Geometrically, `ψ(S^n; {0,1})` is an
//! `n`-sphere — hence the name — and in general a pseudosphere is the
//! simplicial *join* of the discrete sets `U_0, ..., U_m`, which is
//! homotopy equivalent to a wedge of `Π(|U_i| - 1)` spheres of dimension
//! `m`; Corollary 6's `(m-1)`-connectivity follows.
//!
//! Realization adds the pseudosphere, one slot per effective-base
//! vertex, to a `ps_topology::InternedBuilder` with `add_pseudosphere`:
//! the same call that emits every model's round complex, so one walk
//! enumerates `ψ` wherever it comes from.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ps_topology::{Complex, InternedBuilder, Label, Simplex};

/// Errors from pseudosphere construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PsError {
    /// The family list does not match the base simplex's vertices.
    FamilyMismatch,
}

impl fmt::Display for PsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsError::FamilyMismatch => {
                write!(f, "family keys must be exactly the base simplex vertices")
            }
        }
    }
}

impl std::error::Error for PsError {}

/// A symbolic pseudosphere `ψ(S; U_0, ..., U_m)`.
///
/// Stored symbolically (base + families); [`Pseudosphere::realize`]
/// produces the explicit complex. Symbolic form is what the
/// Mayer–Vietoris prover ([`crate::MvProver`]) manipulates: intersections
/// and degeneracies stay closed-form (Lemma 4) instead of being
/// recomputed on exponentially large complexes.
///
/// # Examples
///
/// ```
/// use ps_core::{Pseudosphere, ProcessId, process_simplex};
///
/// // Figure 1: the three-process binary pseudosphere, a 2-sphere.
/// let ps = Pseudosphere::uniform(process_simplex(3), [0u8, 1].into_iter().collect());
/// let complex = ps.realize();
/// assert_eq!(complex.facet_count(), 8);
/// assert_eq!(complex.vertex_count(), 6);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Pseudosphere<P, U> {
    base: Simplex<P>,
    families: BTreeMap<P, BTreeSet<U>>,
}

impl<P: Label, U: Label> Pseudosphere<P, U> {
    /// Builds `ψ(base; families)`.
    ///
    /// # Errors
    ///
    /// [`PsError::FamilyMismatch`] unless `families` has exactly one entry
    /// per vertex of `base`.
    pub fn new(base: Simplex<P>, families: BTreeMap<P, BTreeSet<U>>) -> Result<Self, PsError> {
        if families.len() != base.len() || !base.vertices().iter().all(|v| families.contains_key(v))
        {
            return Err(PsError::FamilyMismatch);
        }
        Ok(Pseudosphere { base, families })
    }

    /// Builds `ψ(base; U, ..., U)` with the same family everywhere.
    pub fn uniform(base: Simplex<P>, family: BTreeSet<U>) -> Self {
        let families = base
            .vertices()
            .iter()
            .map(|v| (v.clone(), family.clone()))
            .collect();
        Pseudosphere { base, families }
    }

    /// The base simplex `S`.
    pub fn base(&self) -> &Simplex<P> {
        &self.base
    }

    /// The family assigned to base vertex `p`.
    pub fn family(&self, p: &P) -> Option<&BTreeSet<U>> {
        self.families.get(p)
    }

    /// The *effective base*: base vertices whose family is nonempty.
    /// By Lemma 4(2), deleting empty-family vertices leaves an isomorphic
    /// pseudosphere.
    pub fn effective_base(&self) -> Simplex<P> {
        self.base.restrict(|v| !self.families[v].is_empty())
    }

    /// Dimension of the realized complex: `effective_base().dim()`.
    pub fn dim(&self) -> i32 {
        self.effective_base().dim()
    }

    /// `true` iff the realization has no simplexes.
    pub fn is_void(&self) -> bool {
        self.effective_base().is_empty()
    }

    /// Number of facets of the realization:
    /// `Π |U_i|` over nonempty families (0 when void).
    pub fn facet_count(&self) -> u128 {
        let eff = self.effective_base();
        if eff.is_empty() {
            return 0;
        }
        eff.vertices()
            .iter()
            .map(|v| self.families[v].len() as u128)
            .product()
    }

    /// Number of vertices of the realization: `Σ |U_i|`.
    pub fn vertex_count(&self) -> usize {
        self.families.values().map(|u| u.len()).sum()
    }

    /// The number of top-dimensional spheres in the wedge the realization
    /// is homotopy equivalent to: `Π (|U_i| - 1)` over the effective base.
    /// `0` means contractible (some singleton family); the reduced
    /// `dim()`-th Betti number equals this value.
    pub fn wedge_size(&self) -> u128 {
        let eff = self.effective_base();
        if eff.is_empty() {
            return 0;
        }
        eff.vertices()
            .iter()
            .map(|v| (self.families[v].len() - 1) as u128)
            .product()
    }

    /// Exact connectivity of the realization (paper convention):
    ///
    /// * void → `-2` (not even `(-1)`-connected),
    /// * some singleton family → `i32::MAX` (a cone, contractible),
    /// * otherwise exactly `dim() - 1` (Corollary 6 is tight).
    pub fn connectivity(&self) -> i32 {
        let eff = self.effective_base();
        if eff.is_empty() {
            return -2;
        }
        if eff.vertices().iter().any(|v| self.families[v].len() == 1) {
            return i32::MAX;
        }
        eff.dim() - 1
    }

    /// Materializes the explicit complex: facets are all choice functions
    /// `s_i ↦ u_i ∈ U_i` over the effective base.
    pub fn realize(&self) -> Complex<(P, U)> {
        let mut builder = InternedBuilder::new();
        self.add_to(&mut builder);
        builder.finish()
    }

    /// Adds the realization to `builder` as one pseudosphere, with one
    /// slot per effective-base vertex `s_i` holding `(s_i, u)` for each
    /// `u ∈ U_i` in family order.
    pub(crate) fn add_to(&self, builder: &mut InternedBuilder<(P, U)>) {
        builder.add_pseudosphere(
            self.effective_base()
                .vertices()
                .iter()
                .map(|p| {
                    self.families[p]
                        .iter()
                        .map(|u| (p.clone(), u.clone()))
                        .collect()
                })
                .collect(),
        );
    }

    /// Lemma 4(3): the intersection of two pseudospheres over the same
    /// label types is the pseudosphere on the common base vertices with
    /// intersected families.
    pub fn intersect(&self, other: &Pseudosphere<P, U>) -> Pseudosphere<P, U> {
        let base = self.base.intersection(&other.base);
        let families = base
            .vertices()
            .iter()
            .map(|v| {
                (
                    v.clone(),
                    self.families[v]
                        .intersection(&other.families[v])
                        .cloned()
                        .collect(),
                )
            })
            .collect();
        Pseudosphere { base, families }
    }

    /// The pseudosphere restricted to a face of the base (families kept).
    pub fn restrict_base(&self, face: &Simplex<P>) -> Pseudosphere<P, U> {
        let base = self.base.intersection(face);
        let families = base
            .vertices()
            .iter()
            .map(|v| (v.clone(), self.families[v].clone()))
            .collect();
        Pseudosphere { base, families }
    }

    /// Replaces the family of one base vertex.
    pub fn with_family(&self, p: P, family: BTreeSet<U>) -> Pseudosphere<P, U> {
        let mut out = self.clone();
        if out.families.contains_key(&p) {
            out.families.insert(p, family);
        }
        out
    }

    /// `true` iff every facet of `self`'s realization is a simplex of
    /// `other`'s realization — i.e. base ⊆ base and families pointwise ⊆.
    pub fn is_subpseudosphere_of(&self, other: &Pseudosphere<P, U>) -> bool {
        self.effective_base().is_face_of(&other.effective_base())
            && self
                .effective_base()
                .vertices()
                .iter()
                .all(|v| self.families[v].is_subset(&other.families[v]))
    }

    /// A compact symbolic rendering `ψ(⟨...⟩; ...)` used by proof traces.
    pub fn describe(&self) -> String {
        let fams: Vec<String> = self
            .base
            .vertices()
            .iter()
            .map(|v| format!("{:?}↦{:?}", v, self.families[v]))
            .collect();
        format!("ψ({:?}; {})", self.base, fams.join(", "))
    }
}

impl<P: Label, U: Label> fmt::Debug for Pseudosphere<P, U> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{process_simplex, ProcessId};
    use ps_topology::{are_isomorphic, ConnectivityAnalyzer, Homology};

    fn binary(n_procs: usize) -> Pseudosphere<ProcessId, u8> {
        Pseudosphere::uniform(process_simplex(n_procs), [0u8, 1].into_iter().collect())
    }

    #[test]
    fn figure1_binary_three_process_is_2sphere() {
        let ps = binary(3);
        assert_eq!(ps.dim(), 2);
        assert_eq!(ps.facet_count(), 8);
        assert_eq!(ps.vertex_count(), 6);
        let c = ps.realize();
        assert_eq!(c.f_vector(), vec![6, 12, 8]); // octahedron
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(2), 1);
        assert_eq!(h.homological_connectivity(), 1);
        assert_eq!(ps.connectivity(), 1);
    }

    #[test]
    fn figure2_psi_s1_binary_is_circle() {
        let ps = binary(2);
        let c = ps.realize();
        assert_eq!(c.f_vector(), vec![4, 4]); // 4-cycle
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(1), 1);
        assert_eq!(ps.connectivity(), 0);
        assert_eq!(ps.wedge_size(), 1);
    }

    #[test]
    fn figure2_psi_s1_ternary_wedge_of_circles() {
        let ps = Pseudosphere::uniform(process_simplex(2), [0u8, 1, 2].into_iter().collect());
        let c = ps.realize();
        assert_eq!(c.f_vector(), vec![6, 9]); // K_{3,3}
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(1) as u128, ps.wedge_size()); // 4 circles
        assert_eq!(ps.wedge_size(), 4);
        assert_eq!(ps.connectivity(), 0);
    }

    #[test]
    fn lemma4_1_singleton_families_give_simplex() {
        // ψ(S^m, {u}) ≅ S^m
        let ps = Pseudosphere::uniform(process_simplex(4), [9u8].into_iter().collect());
        let c = ps.realize();
        assert_eq!(c.facet_count(), 1);
        assert_eq!(c.dim(), 3);
        assert!(are_isomorphic(
            &c,
            &ps_topology::Complex::simplex(process_simplex(4))
        ));
        assert_eq!(ps.connectivity(), i32::MAX);
    }

    #[test]
    fn lemma4_2_empty_family_drops_vertex() {
        let base = process_simplex(3);
        let mut families: BTreeMap<ProcessId, BTreeSet<u8>> = BTreeMap::new();
        families.insert(ProcessId(0), [0, 1].into_iter().collect());
        families.insert(ProcessId(1), BTreeSet::new()); // empty
        families.insert(ProcessId(2), [0, 1].into_iter().collect());
        let ps = Pseudosphere::new(base, families).unwrap();
        assert_eq!(ps.dim(), 1);
        assert_eq!(ps.effective_base().len(), 2);
        // isomorphic to binary pseudosphere on 2 processes
        let two = Pseudosphere::uniform(
            Simplex::from_iter([ProcessId(0), ProcessId(2)]),
            [0u8, 1].into_iter().collect(),
        );
        assert!(are_isomorphic(&ps.realize(), &two.realize()));
    }

    #[test]
    fn lemma4_3_intersection_symbolic_matches_explicit() {
        let base0 = Simplex::from_iter([ProcessId(0), ProcessId(1), ProcessId(2)]);
        let base1 = Simplex::from_iter([ProcessId(1), ProcessId(2), ProcessId(3)]);
        let mk = |base: &Simplex<ProcessId>, fam: &[&[u8]]| {
            let families = base
                .vertices()
                .iter()
                .cloned()
                .zip(fam.iter().map(|f| f.iter().copied().collect()))
                .collect();
            Pseudosphere::new(base.clone(), families).unwrap()
        };
        let a = mk(&base0, &[&[0, 1], &[0, 1, 2], &[1, 2]]);
        let b = mk(&base1, &[&[1, 2], &[2, 3], &[0]]);
        let symbolic = a.intersect(&b).realize();
        let explicit = a.realize().intersection(&b.realize());
        assert_eq!(symbolic, explicit);
    }

    #[test]
    fn corollary6_connectivity_matches_homology() {
        for n in 1..=3usize {
            for vals in 2..=3u8 {
                let ps =
                    Pseudosphere::uniform(process_simplex(n), (0..vals).collect::<BTreeSet<u8>>());
                let c = ps.realize();
                let an = ConnectivityAnalyzer::new(&c);
                let claimed = ps.connectivity();
                assert_eq!(
                    an.connectivity(),
                    claimed,
                    "n={n} vals={vals}: homology disagrees with formula"
                );
            }
        }
    }

    #[test]
    fn wedge_size_matches_top_betti() {
        let base = process_simplex(2);
        let mut families: BTreeMap<ProcessId, BTreeSet<u8>> = BTreeMap::new();
        families.insert(ProcessId(0), [0, 1, 2].into_iter().collect());
        families.insert(ProcessId(1), [0, 1].into_iter().collect());
        let ps = Pseudosphere::new(base, families).unwrap();
        let h = Homology::reduced(&ps.realize());
        assert_eq!(h.betti(ps.dim()) as u128, ps.wedge_size());
        assert_eq!(ps.wedge_size(), 2);
    }

    #[test]
    fn family_mismatch_rejected() {
        let base = process_simplex(2);
        let mut families: BTreeMap<ProcessId, BTreeSet<u8>> = BTreeMap::new();
        families.insert(ProcessId(0), [0].into_iter().collect());
        assert_eq!(
            Pseudosphere::new(base.clone(), families.clone()).err(),
            Some(PsError::FamilyMismatch)
        );
        families.insert(ProcessId(7), [0].into_iter().collect());
        assert_eq!(
            Pseudosphere::new(base, families).err(),
            Some(PsError::FamilyMismatch)
        );
    }

    #[test]
    fn void_pseudosphere() {
        let ps: Pseudosphere<ProcessId, u8> =
            Pseudosphere::uniform(process_simplex(2), BTreeSet::new());
        assert!(ps.is_void());
        assert_eq!(ps.connectivity(), -2);
        assert_eq!(ps.facet_count(), 0);
        assert!(ps.realize().is_void());
        let empty_base: Pseudosphere<ProcessId, u8> =
            Pseudosphere::uniform(Simplex::empty(), [1u8].into_iter().collect());
        assert!(empty_base.is_void());
    }

    #[test]
    fn restrict_base_and_subpseudosphere() {
        let ps = binary(3);
        let face = Simplex::from_iter([ProcessId(0), ProcessId(1)]);
        let r = ps.restrict_base(&face);
        assert_eq!(r.dim(), 1);
        assert!(r.is_subpseudosphere_of(&ps));
        assert!(!ps.is_subpseudosphere_of(&r));
    }

    #[test]
    fn with_family_replaces() {
        let ps = binary(2).with_family(ProcessId(0), [7u8].into_iter().collect());
        assert_eq!(ps.family(&ProcessId(0)).unwrap().len(), 1);
        assert_eq!(ps.connectivity(), i32::MAX);
        // replacing a non-existent vertex is a no-op
        let same = ps.with_family(ProcessId(9), [1u8].into_iter().collect());
        assert_eq!(same, ps);
    }

    #[test]
    fn realize_facet_count_formula() {
        let base = process_simplex(3);
        let mut families: BTreeMap<ProcessId, BTreeSet<u8>> = BTreeMap::new();
        families.insert(ProcessId(0), [0, 1].into_iter().collect());
        families.insert(ProcessId(1), [0, 1, 2].into_iter().collect());
        families.insert(ProcessId(2), [5].into_iter().collect());
        let ps = Pseudosphere::new(base, families).unwrap();
        assert_eq!(ps.facet_count(), 6);
        assert_eq!(ps.realize().facet_count() as u128, ps.facet_count());
        assert_eq!(ps.realize().vertex_count(), ps.vertex_count());
    }

    #[test]
    fn describe_mentions_base() {
        let ps = binary(2);
        let d = ps.describe();
        assert!(d.starts_with("ψ("));
        assert!(d.contains("P0"));
    }
}
