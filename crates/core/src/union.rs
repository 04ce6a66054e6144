//! Ordered unions of pseudospheres.
//!
//! The paper's central observation is that one-round protocol complexes in
//! all three timing models are unions of pseudospheres (Lemmas 11, 14,
//! 19), and that the *order* in which the union is taken (lexicographic on
//! failure sets and failure patterns) gives intersections that are again
//! unions of pseudospheres (Lemmas 15, 20). [`PseudosphereUnion`] is that
//! object, kept symbolic so the Mayer–Vietoris prover can recurse on it.

use std::fmt;

use ps_topology::{Complex, InternedBuilder, Label};

use crate::Pseudosphere;

/// An ordered union `ψ_0 ∪ ψ_1 ∪ ... ∪ ψ_t` of pseudospheres over common
/// label types.
#[derive(Clone, PartialEq, Eq)]
pub struct PseudosphereUnion<P, U> {
    members: Vec<Pseudosphere<P, U>>,
}

impl<P: Label, U: Label> PseudosphereUnion<P, U> {
    /// The empty union (void complex).
    pub fn new() -> Self {
        PseudosphereUnion {
            members: Vec::new(),
        }
    }

    /// Builds a union from members, in the given order. Void members are
    /// dropped; members subsumed by an earlier member are kept (they do
    /// not change the complex but may reflect the paper's enumeration).
    pub fn from_members<I: IntoIterator<Item = Pseudosphere<P, U>>>(members: I) -> Self {
        PseudosphereUnion {
            members: members.into_iter().filter(|ps| !ps.is_void()).collect(),
        }
    }

    /// A union with a single member.
    pub fn single(ps: Pseudosphere<P, U>) -> Self {
        Self::from_members([ps])
    }

    /// The member pseudospheres, in order.
    pub fn members(&self) -> &[Pseudosphere<P, U>] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff there are no (non-void) members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Appends a member (void members are dropped).
    pub fn push(&mut self, ps: Pseudosphere<P, U>) {
        if !ps.is_void() {
            self.members.push(ps);
        }
    }

    /// Dimension of the realized union.
    pub fn dim(&self) -> i32 {
        self.members.iter().map(|m| m.dim()).max().unwrap_or(-1)
    }

    /// Materializes the explicit union complex.
    ///
    /// Every member is added as a pseudosphere to one
    /// [`InternedBuilder`], so the members share one vertex pool and
    /// overlap absorption between them runs on ids.
    pub fn realize(&self) -> Complex<(P, U)> {
        let mut builder = InternedBuilder::new();
        for m in &self.members {
            m.add_to(&mut builder);
        }
        builder.finish()
    }

    /// The symbolic intersection of this union with a single pseudosphere:
    /// `(∪_i ψ_i) ∩ ψ = ∪_i (ψ_i ∩ ψ)` — a union of pseudospheres again,
    /// by Lemma 4(3).
    pub fn intersect_with(&self, ps: &Pseudosphere<P, U>) -> PseudosphereUnion<P, U> {
        PseudosphereUnion::from_members(self.members.iter().map(|m| m.intersect(ps)))
    }

    /// Removes members whose realization is contained in an earlier
    /// member's (keeps the complex identical; can shrink proofs).
    pub fn dedup_subsumed(&self) -> PseudosphereUnion<P, U> {
        let mut kept: Vec<Pseudosphere<P, U>> = Vec::new();
        for m in &self.members {
            if !kept.iter().any(|k| m.is_subpseudosphere_of(k)) {
                kept.push(m.clone());
            }
        }
        PseudosphereUnion { members: kept }
    }

    /// Total facet count of the realization, bounded by the sum of member
    /// facet counts (members may share facets only if one subsumes part of
    /// another).
    pub fn facet_count_upper_bound(&self) -> u128 {
        self.members.iter().map(|m| m.facet_count()).sum()
    }
}

impl<P: Label, U: Label> Default for PseudosphereUnion<P, U> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Label, U: Label> FromIterator<Pseudosphere<P, U>> for PseudosphereUnion<P, U> {
    fn from_iter<I: IntoIterator<Item = Pseudosphere<P, U>>>(iter: I) -> Self {
        Self::from_members(iter)
    }
}

impl<P: Label, U: Label> fmt::Debug for PseudosphereUnion<P, U> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PseudosphereUnion[{} members]:", self.members.len())?;
        for m in &self.members {
            writeln!(f, "  ∪ {m:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{process_simplex, ProcessId};
    use ps_topology::Simplex;
    use std::collections::BTreeSet;

    fn binary(n: usize) -> Pseudosphere<ProcessId, u8> {
        Pseudosphere::uniform(process_simplex(n), [0u8, 1].into_iter().collect())
    }

    #[test]
    fn empty_union_is_void() {
        let u: PseudosphereUnion<ProcessId, u8> = PseudosphereUnion::new();
        assert!(u.is_empty());
        assert!(u.realize().is_void());
        assert_eq!(u.dim(), -1);
        assert_eq!(u.len(), 0);
    }

    #[test]
    fn single_member_realization() {
        let u = PseudosphereUnion::single(binary(2));
        assert_eq!(u.realize(), binary(2).realize());
        assert_eq!(u.dim(), 1);
    }

    #[test]
    fn void_members_dropped() {
        let void: Pseudosphere<ProcessId, u8> =
            Pseudosphere::uniform(process_simplex(2), BTreeSet::new());
        let mut u = PseudosphereUnion::from_members([void.clone(), binary(2)]);
        assert_eq!(u.len(), 1);
        u.push(void);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn union_of_two_overlapping() {
        // two pseudospheres over faces of a triangle sharing an edge family
        let a = binary(3).restrict_base(&Simplex::from_iter([ProcessId(0), ProcessId(1)]));
        let b = binary(3).restrict_base(&Simplex::from_iter([ProcessId(1), ProcessId(2)]));
        let u = PseudosphereUnion::from_members([a.clone(), b.clone()]);
        let r = u.realize();
        assert_eq!(r, a.realize().union(&b.realize()));
        let inter = u.intersect_with(&b);
        // (a ∪ b) ∩ b ⊇ b; realization equality:
        assert_eq!(inter.realize(), b.realize());
    }

    #[test]
    fn intersect_with_distributes() {
        let a = binary(3);
        let b = binary(3).with_family(ProcessId(0), [0u8].into_iter().collect());
        let c = binary(3).with_family(ProcessId(1), [1u8].into_iter().collect());
        let u = PseudosphereUnion::from_members([a.clone(), b.clone()]);
        let sym = u.intersect_with(&c).realize();
        let exp = u.realize().intersection(&c.realize());
        assert_eq!(sym, exp);
    }

    #[test]
    fn dedup_subsumed_removes_contained() {
        let big = binary(3);
        let small = big.restrict_base(&Simplex::from_iter([ProcessId(0)]));
        let u = PseudosphereUnion::from_members([big.clone(), small]);
        assert_eq!(u.len(), 2);
        let d = u.dedup_subsumed();
        assert_eq!(d.len(), 1);
        assert_eq!(d.realize(), u.realize());
    }

    #[test]
    fn facet_bound() {
        let u = PseudosphereUnion::from_members([binary(2), binary(2)]);
        assert_eq!(u.facet_count_upper_bound(), 8);
        assert_eq!(u.realize().facet_count(), 4); // identical members overlap
    }
}
