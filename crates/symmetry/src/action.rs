//! Group actions on interned complexes through vertex-id relabeling.
//!
//! A symmetry of a protocol complex is naturally described at the
//! *label* level — e.g. "swap processes 1 and 2 and swap input values
//! 0 and 1", acting on full-information views. [`label_permutation`]
//! lifts such a label action to a permutation of dense vertex ids by
//! looking each image up, and fails (returns `None`) when the action
//! does not map the label set onto itself. Once lifted, checking that
//! the action preserves an [`IdComplex`] is a check on the complex's
//! pseudosphere cover, or else a facet-set membership scan
//! ([`AutomorphismValidator`]).

use std::cell::OnceCell;
use std::collections::HashSet;

use ps_topology::{IdComplex, IdSimplex, PseudosphereCover};

use crate::perm::Perm;

/// Lifts a label-level action to a vertex-id permutation: vertex `i`
/// (labelled `labels[i]`) maps to the id `id_of` gives its image.
///
/// Returns `None` when the action is not a bijection of the label set
/// onto itself (some image has no id, or two labels collide). The
/// resulting permutation has degree `labels.len()`.
pub fn label_permutation<V>(
    labels: &[V],
    id_of: impl Fn(&V) -> Option<u32>,
    act: impl Fn(&V) -> V,
) -> Option<Perm> {
    let mut images = Vec::with_capacity(labels.len());
    for v in labels {
        images.push(id_of(&act(v))?);
    }
    Perm::from_images(images)
}

/// Applies a vertex-id permutation to a simplex.
///
/// # Panics
/// Panics if the simplex contains an id outside the permutation's
/// degree.
pub fn apply_to_simplex(perm: &Perm, s: &IdSimplex) -> IdSimplex {
    IdSimplex::from_ids(s.ids().map(|id| perm.apply(id)).collect())
}

/// Certifies that proposed generators preserve a fixed complex.
///
/// An id permutation `σ` is an automorphism of a complex `C` iff it
/// maps the facet set onto itself: a bijective vertex map sends
/// maximal simplexes to maximal simplexes, and injectivity on a
/// finite set makes "into" equal "onto".
///
/// When `C` carries a [pseudosphere
/// cover](IdComplex::pseudosphere_cover), `σ` is first checked on it:
/// if `σ` maps every recorded pseudosphere (slots as id sets, in any
/// order) onto a recorded one, it maps their union onto itself, so it
/// preserves the union of their closures — which is `C` — and hence
/// the facet set. That costs `O(cover size)` instead of `O(facets ×
/// facet size)`. When the check fails, or there is no cover, the
/// validator falls back to the facet walk, indexing the facet set on
/// first need. A cover check that fails proves nothing (a cover need
/// not be preserved by every automorphism), so the certified set is
/// exactly the facet walk's.
///
/// [`AutomorphismValidator::new`] reads the cover and the facets off an
/// [`IdComplex`]; [`AutomorphismValidator::with_facets`] takes them
/// from whatever holds them instead, so a caller that kept only the
/// cover and a facet list certifies without rebuilding the complex.
pub struct AutomorphismValidator<'a> {
    n: usize,
    /// The cover's pseudospheres, by [`slot_list_key`].
    cover: Option<HashSet<Box<[u32]>>>,
    /// Lists the facets for the walk.
    walk: Box<dyn Fn() -> HashSet<IdSimplex> + 'a>,
    /// The facet set, built on first need.
    facets: OnceCell<HashSet<IdSimplex>>,
}

/// Rewrites a slot list in the flat layout of
/// [`ps_topology::PseudosphereCover::spheres`] (each slot as its length
/// followed by its ids) into its canonical key in `key`: every slot's
/// ids sorted, slots in lexicographic order, same layout. `ψ` of a slot
/// list does not depend on the order of its slots or of the ids within
/// one, so slot lists with equal keys span the same pseudosphere.
fn slot_list_key(slots: &mut [u32], key: &mut Vec<u32>) {
    let mut sorted: Vec<&[u32]> = Vec::new();
    let mut rest = slots;
    while let Some((&mut len, tail)) = rest.split_first_mut() {
        let (ids, tail) = tail.split_at_mut(len as usize);
        ids.sort_unstable();
        sorted.push(ids);
        rest = tail;
    }
    sorted.sort_unstable();
    key.clear();
    for ids in sorted {
        key.push(ids.len() as u32);
        key.extend_from_slice(ids);
    }
}

impl<'a> AutomorphismValidator<'a> {
    /// Prepares `c` for repeated validation, on its cover and its
    /// facets. Vertex ids in `c` must be dense (`< n`), where `n` is the
    /// degree of the permutations to validate.
    pub fn new(c: &'a IdComplex, n: usize) -> AutomorphismValidator<'a> {
        debug_assert!(c.vertex_set().iter().all(|&v| (v as usize) < n));
        Self::with_facets(c.pseudosphere_cover(), n, move || c.facets().cloned())
    }

    /// Prepares the complex with pseudosphere cover `cover` (if one is
    /// known) and the facets `facets` lists for repeated validation.
    /// `facets` runs at most once, when a check first needs the walk.
    /// Vertex ids must be dense (`< n`), where `n` is the degree of the
    /// permutations to validate.
    pub fn with_facets<I>(
        cover: Option<&PseudosphereCover>,
        n: usize,
        facets: impl Fn() -> I + 'a,
    ) -> AutomorphismValidator<'a>
    where
        I: Iterator<Item = IdSimplex>,
    {
        let cover = cover.map(|cover| {
            let mut slots = Vec::new();
            let mut key = Vec::new();
            cover
                .spheres()
                .map(|sphere| {
                    slots.clear();
                    slots.extend_from_slice(sphere);
                    slot_list_key(&mut slots, &mut key);
                    key.as_slice().into()
                })
                .collect()
        });
        AutomorphismValidator {
            n,
            cover,
            walk: Box::new(move || facets().collect()),
            facets: OnceCell::new(),
        }
    }

    /// The facet set, built on first call.
    fn facet_set(&self) -> &HashSet<IdSimplex> {
        self.facets.get_or_init(&self.walk)
    }

    /// Whether `perm` maps the set of recorded pseudospheres onto
    /// itself (`false` when there is no cover).
    fn preserves_cover(&self, perm: &Perm) -> bool {
        let Some(cover) = &self.cover else {
            return false;
        };
        let mut image = Vec::new();
        let mut key = Vec::new();
        cover.iter().all(|sphere| {
            image.clear();
            let mut rest: &[u32] = sphere;
            while let Some((&len, tail)) = rest.split_first() {
                let (ids, tail) = tail.split_at(len as usize);
                image.push(len);
                image.extend(ids.iter().map(|&id| perm.apply(id)));
                rest = tail;
            }
            slot_list_key(&mut image, &mut key);
            cover.contains(key.as_slice())
        })
    }

    /// Whether `perm` maps every facet to a facet (hence is an
    /// automorphism of the complex).
    pub fn is_automorphism(&self, perm: &Perm) -> bool {
        perm.degree() == self.n
            && (self.preserves_cover(perm) || {
                let facets = self.facet_set();
                facets
                    .iter()
                    .all(|f| facets.contains(&apply_to_simplex(perm, f)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_topology::{InternedBuilder, VertexPool};

    /// The hollow triangle on ids {0,1,2}: facets are the three edges.
    fn hollow_triangle() -> IdComplex {
        IdComplex::from_facets(vec![
            IdSimplex::from_ids(vec![0, 1]),
            IdSimplex::from_ids(vec![0, 2]),
            IdSimplex::from_ids(vec![1, 2]),
        ])
    }

    #[test]
    fn label_permutation_lifts_label_swap() {
        let mut pool: VertexPool<(u32, u32)> = VertexPool::new();
        // labels (process, value)
        for p in 0..2 {
            for v in 0..2 {
                pool.intern((p, v));
            }
        }
        // swap the two values
        let lift = |act: fn(&(u32, u32)) -> (u32, u32)| {
            label_permutation(pool.labels(), |v| pool.id_of(v), act)
        };
        let perm = lift(|&(p, v)| (p, 1 - v)).unwrap();
        assert_eq!(perm.degree(), 4);
        let a = pool.id_of(&(0, 0)).unwrap();
        let b = pool.id_of(&(0, 1)).unwrap();
        assert_eq!(perm.apply(a), b);
        assert_eq!(perm.apply(b), a);
        // a non-closed action fails to lift
        assert!(lift(|&(p, v)| (p, v + 7)).is_none());
    }

    #[test]
    fn triangle_rotation_is_automorphism() {
        let c = hollow_triangle();
        let validator = AutomorphismValidator::new(&c, 3);
        let rot = Perm::from_images(vec![1, 2, 0]).unwrap();
        assert!(validator.is_automorphism(&rot));
        // the complex is genuinely preserved: {0,1}->{1,2},
        // {0,2}->{0,1}, {1,2}->{0,2}
        let image: Vec<IdSimplex> = c.facets().map(|f| apply_to_simplex(&rot, f)).collect();
        assert!(c.facets().all(|f| image.contains(f)));
    }

    #[test]
    fn non_automorphism_is_rejected() {
        // filled triangle plus a pendant edge: swapping 0 and 3 is not
        // an automorphism
        let c = IdComplex::from_facets(vec![
            IdSimplex::from_ids(vec![0, 1, 2]),
            IdSimplex::from_ids(vec![2, 3]),
        ]);
        let validator = AutomorphismValidator::new(&c, 4);
        let bad = Perm::transposition(4, 0, 3);
        assert!(!validator.is_automorphism(&bad));
        // swapping 0 and 1 is one
        let good = Perm::transposition(4, 0, 1);
        assert!(validator.is_automorphism(&good));
    }

    /// The hollow triangle recorded as ψ({0}, {1,2}) ∪ ψ({1}, {2}):
    /// two pseudospheres covering three facets.
    fn covered_hollow_triangle() -> IdComplex {
        let mut b: InternedBuilder<u32> = InternedBuilder::new();
        b.add_pseudosphere(vec![vec![0], vec![1, 2]]);
        b.add_pseudosphere(vec![vec![1], vec![2]]);
        let (pool, c) = b.into_parts();
        assert_eq!(pool.labels(), &[0, 1, 2], "labels are their own ids");
        assert!(c.pseudosphere_cover().is_some());
        assert_eq!(c, hollow_triangle());
        c
    }

    #[test]
    fn failed_cover_check_falls_back_to_the_facet_walk() {
        let c = covered_hollow_triangle();
        let validator = AutomorphismValidator::new(&c, 3);
        // (0 1) maps ψ({0},{1,2}) to ψ({1},{0,2}), which is not
        // recorded, yet it is an automorphism of the triangle
        let swap = Perm::transposition(3, 0, 1);
        assert!(!validator.preserves_cover(&swap));
        assert!(validator.facets.get().is_none());
        assert!(validator.is_automorphism(&swap));
        assert!(validator.facets.get().is_some(), "the walk built the index");
    }

    #[test]
    fn non_automorphism_is_rejected_with_a_cover() {
        // ψ({0,1}, {2,3}) ∪ ψ({0,1}, {4}): the 4-cycle 0–2–1–3 with two
        // pendant edges to 4
        let mut b: InternedBuilder<u32> = InternedBuilder::new();
        b.add_pseudosphere(vec![vec![0, 1], vec![2, 3]]);
        b.add_pseudosphere(vec![vec![0, 1], vec![4]]);
        let (pool, c) = b.into_parts();
        let id = |v| pool.id_of(&v).unwrap();
        assert!(c.pseudosphere_cover().is_some());
        let validator = AutomorphismValidator::new(&c, 5);
        // swapping the cycle's two sides moves the pendant edges
        let bad = Perm::transposition(5, id(0), id(2));
        assert!(!validator.is_automorphism(&bad));
        // swapping within a side is certified on the cover alone
        let good = Perm::transposition(5, id(2), id(3));
        assert!(validator.is_automorphism(&good));
    }

    #[test]
    fn cover_certification_leaves_the_facet_index_unbuilt() {
        let c = covered_hollow_triangle();
        let validator = AutomorphismValidator::new(&c, 3);
        // (1 2) maps ψ({0},{1,2}) and ψ({1},{2}) onto ψ({0},{1,2}) and
        // ψ({2},{1}): the same slot lists in another order
        assert!(validator.is_automorphism(&Perm::transposition(3, 1, 2)));
        assert!(validator.is_automorphism(&Perm::identity(3)));
        assert!(validator.facets.get().is_none(), "no facet walk ran");
    }

    #[test]
    fn wrong_degree_is_rejected() {
        let c = hollow_triangle();
        let validator = AutomorphismValidator::new(&c, 3);
        assert!(!validator.is_automorphism(&Perm::identity(4)));
    }
}
