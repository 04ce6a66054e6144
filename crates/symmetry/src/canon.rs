//! Canonical forms of colored complexes.
//!
//! [`canonical_form`] computes a canonical relabeling of a vertex-
//! colored complex: two colored complexes receive byte-identical
//! canonical keys **iff** they are related by a color-preserving
//! simplicial isomorphism (subject to the search budget — see
//! [`CanonicalForm::exact`]). The algorithm is a small, exact cousin
//! of the individualization-refinement family (nauty/bliss):
//!
//! 1. **Iterative color refinement.** Each vertex's color is refined
//!    by the multiset of its incident facets' color profiles until
//!    the partition stabilizes. Signatures are compared *exactly*
//!    (no hashing), so equal refined colors are a genuine structural
//!    invariant.
//! 2. **Partition backtracking.** If refinement leaves a non-discrete
//!    partition, the smallest-color non-singleton cell is chosen (an
//!    isomorphism-invariant choice) and each of its vertices is
//!    individualized in turn; the lexicographically smallest
//!    relabeled (colors, facets) pair over all discrete leaves is the
//!    canonical form.
//!
//! Two standard refinements keep the tree small on highly symmetric
//! inputs (protocol complexes are full of local subtree symmetries,
//! which otherwise multiply leaves by the automorphism-group order):
//!
//! * **Automorphism (orbit) pruning.** Whenever two discrete leaves
//!   produce byte-identical canonical forms, their labelings compose
//!   to an automorphism of the input. Discovered automorphisms that
//!   fix the current individualization prefix pointwise act on the
//!   branching cell; siblings in the orbit of an already-explored
//!   sibling are skipped — their subtrees produce exactly the same
//!   set of leaf keys, so the minimum is unchanged.
//! * **Smallest-cell branching.** The branching target is the
//!   smallest non-singleton cell (ties broken by smallest color) —
//!   an isomorphism-invariant choice that minimizes the branching
//!   factor.
//!
//! The backtracking tree is cut off after a node budget; a truncated
//! search still returns a deterministic labeling but one that is no
//! longer relabeling-invariant, which the `exact: false` flag
//! records. Callers using canonical keys for cache collapsing must
//! treat inexact keys as cache misses.

use crate::perm::Perm;

/// Default node budget for the partition-backtracking search.
pub const DEFAULT_BUDGET: usize = 4096;

/// The result of canonicalizing a colored complex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalForm {
    /// The canonical relabeling: vertex `v` of the input becomes
    /// vertex `labeling.apply(v)` of the canonical form.
    pub labeling: Perm,
    /// Input colors transported to canonical ids: `colors[i]` is the
    /// color of the vertex relabeled to `i`.
    pub colors: Vec<u32>,
    /// Facets relabeled to canonical ids; each facet sorted
    /// ascending, facet list sorted lexicographically.
    pub facets: Vec<Vec<u32>>,
    /// `true` when the backtracking search ran to completion, making
    /// `(colors, facets)` a genuine canonical key: equal keys imply a
    /// color-preserving isomorphism and isomorphic inputs produce
    /// equal keys. `false` when the node budget was exhausted — the
    /// output is still deterministic for identical input, but must
    /// not be used to identify isomorphic inputs.
    pub exact: bool,
}

impl CanonicalForm {
    /// The canonical key: relabeled colors and facets. Only
    /// meaningful as an isomorphism invariant when [`exact`] is true.
    ///
    /// [`exact`]: CanonicalForm::exact
    pub fn key(&self) -> (&[u32], &[Vec<u32>]) {
        (&self.colors, &self.facets)
    }
}

/// Computes the canonical form of a colored complex given as a facet
/// list over dense vertex ids `0..n`.
///
/// `colors[v]` is the color of vertex `v`; colors are arbitrary
/// `u32`s compared by value (only their equality pattern and relative
/// order matter). `budget` caps the number of backtracking nodes
/// (see [`DEFAULT_BUDGET`]).
///
/// # Panics
/// Panics if `colors.len() != n` or a facet mentions an id `≥ n`.
pub fn canonical_form(
    n: usize,
    facets: &[Vec<u32>],
    colors: &[u32],
    budget: usize,
) -> CanonicalForm {
    assert_eq!(colors.len(), n, "one color per vertex required");
    let mut incidence: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (fi, f) in facets.iter().enumerate() {
        for &v in f {
            assert!((v as usize) < n, "facet vertex out of range");
            incidence[v as usize].push(fi);
        }
    }
    let mut search = Search {
        n,
        facets,
        incidence,
        orig_colors: colors,
        best: None,
        nodes_left: budget.max(1),
        exact: true,
        base: Vec::new(),
        gens: Vec::new(),
    };
    search.dfs(colors.to_vec());
    let (labeling, colors, facets) = search.best.expect("search visits at least one leaf");
    CanonicalForm {
        labeling: Perm::from_images(labeling).expect("discrete ranks form a bijection"),
        colors,
        facets,
        exact: search.exact,
    }
}

/// A candidate leaf: (labeling old→new, transported colors, relabeled
/// facets).
type Leaf = (Vec<u32>, Vec<u32>, Vec<Vec<u32>>);

/// Per-vertex refinement signature: current color plus the sorted
/// multiset of (facet length, sorted member colors) over incident
/// facets.
type VertexSig = (u32, Vec<(usize, Vec<u32>)>);

/// Cap on stored automorphism generators; pruning stays sound with
/// any subset (fewer generators just prune less).
const MAX_GENS: usize = 1024;

struct Search<'a> {
    n: usize,
    facets: &'a [Vec<u32>],
    incidence: Vec<Vec<usize>>,
    orig_colors: &'a [u32],
    best: Option<Leaf>,
    nodes_left: usize,
    exact: bool,
    /// The individualization prefix (original vertex ids, root to
    /// current node) — the "base" automorphisms must fix pointwise to
    /// license sibling pruning.
    base: Vec<usize>,
    /// Automorphisms of the input discovered from duplicate leaves
    /// (image tables over original vertex ids).
    gens: Vec<Vec<u32>>,
}

impl Search<'_> {
    /// Replaces colors by dense ranks of their sort order (values
    /// ordered ascending, ranks `0..#distinct`). Rank order extends
    /// value order, so refinement steps that prefix signatures with
    /// the old color strictly refine the partition.
    fn dense_rank<K: Ord>(&self, keys: Vec<K>) -> Vec<u32> {
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        let mut ranks = vec![0u32; self.n];
        let mut rank = 0u32;
        for w in 0..order.len() {
            if w > 0 && keys[order[w]] != keys[order[w - 1]] {
                rank += 1;
            }
            ranks[order[w]] = rank;
        }
        ranks
    }

    /// Refines `colors` to a stable partition. Each pass recolors a
    /// vertex by `(its color, sorted multiset over incident facets of
    /// (facet length, sorted member colors))`, compared exactly.
    fn refine(&self, colors: Vec<u32>) -> Vec<u32> {
        let mut colors = self.dense_rank(colors);
        loop {
            let before = colors.iter().max().copied().unwrap_or(0);
            let sigs: Vec<VertexSig> = (0..self.n)
                .map(|v| {
                    let mut around: Vec<(usize, Vec<u32>)> = self.incidence[v]
                        .iter()
                        .map(|&fi| {
                            let f = &self.facets[fi];
                            let mut cs: Vec<u32> = f.iter().map(|&w| colors[w as usize]).collect();
                            cs.sort_unstable();
                            (f.len(), cs)
                        })
                        .collect();
                    around.sort_unstable();
                    (colors[v], around)
                })
                .collect();
            colors = self.dense_rank(sigs);
            let after = colors.iter().max().copied().unwrap_or(0);
            if after == before {
                return colors;
            }
        }
    }

    fn dfs(&mut self, colors: Vec<u32>) {
        if self.nodes_left == 0 {
            self.exact = false;
            if self.best.is_some() {
                return;
            }
            // out of budget with no leaf yet: fall through greedily so
            // the search always produces *a* labeling
        } else {
            self.nodes_left -= 1;
        }
        let colors = self.refine(colors);
        // locate the smallest non-singleton cell, ties broken by
        // smallest color (an isomorphism-invariant target choice that
        // minimizes the branching factor)
        let mut count = vec![0u32; self.n + 1];
        for &c in &colors {
            count[c as usize] += 1;
        }
        let target = (0..self.n)
            .filter(|&c| count[c] >= 2)
            .min_by_key(|&c| count[c]);
        match target {
            None => {
                // discrete: dense ranks are exactly 0..n, so the
                // coloring *is* the labeling old id -> new id
                let labeling = colors;
                let mut new_colors = vec![0u32; self.n];
                for v in 0..self.n {
                    new_colors[labeling[v] as usize] = self.orig_colors[v];
                }
                let mut new_facets: Vec<Vec<u32>> = self
                    .facets
                    .iter()
                    .map(|f| {
                        let mut g: Vec<u32> = f.iter().map(|&v| labeling[v as usize]).collect();
                        g.sort_unstable();
                        g
                    })
                    .collect();
                new_facets.sort_unstable();
                let cmp = self
                    .best
                    .as_ref()
                    .map(|(_, bc, bf)| (&new_colors, &new_facets).cmp(&(bc, bf)));
                match cmp {
                    Some(std::cmp::Ordering::Equal) => {
                        // duplicate leaf: best⁻¹ ∘ current is a (color-
                        // preserving) automorphism of the input — fuel
                        // for sibling pruning at ancestor nodes
                        let bl = self.best.as_ref().expect("compared above").0.clone();
                        self.record_automorphism(&bl, &labeling);
                    }
                    Some(std::cmp::Ordering::Greater) => {}
                    _ => self.best = Some((labeling, new_colors, new_facets)),
                }
            }
            Some(cell_color) => {
                let members: Vec<usize> = (0..self.n)
                    .filter(|&v| colors[v] as usize == cell_color)
                    .collect();
                let last = members.len() - 1;
                let mut explored: Vec<usize> = Vec::new();
                // Orbit partition under base-fixing generators, cached
                // across siblings and rebuilt only when a child subtree
                // discovered new automorphisms (rebuilds are O(gens·n);
                // doing one per sibling check dominates the search).
                let mut orbits: Option<Vec<usize>> = None;
                let mut orbits_gens = usize::MAX;
                for (i, &v) in members.iter().enumerate() {
                    if orbits_gens != self.gens.len() {
                        orbits = self.base_fixing_orbits();
                        orbits_gens = self.gens.len();
                    }
                    if let Some(parent) = orbits.as_mut() {
                        let rv = find(parent, v);
                        if explored.iter().any(|&w| find(parent, w) == rv) {
                            // some discovered automorphism fixing the
                            // base maps v into an explored sibling's
                            // orbit: the subtree yields the same leaf
                            // keys — skip it
                            continue;
                        }
                    }
                    explored.push(v);
                    let mut c2 = colors.clone();
                    // a fresh color strictly above all dense ranks
                    // individualizes v; the next refine re-ranks
                    c2[v] = self.n as u32;
                    self.base.push(v);
                    self.dfs(c2);
                    self.base.pop();
                    if i < last && self.nodes_left == 0 {
                        // unexplored siblings remain
                        self.exact = false;
                        break;
                    }
                }
            }
        }
    }

    /// Records `best⁻¹ ∘ current` (two labelings with identical
    /// canonical output) as an automorphism generator.
    fn record_automorphism(&mut self, best: &[u32], current: &[u32]) {
        if self.gens.len() >= MAX_GENS {
            return;
        }
        let mut inv_best = vec![0u32; self.n];
        for v in 0..self.n {
            inv_best[best[v] as usize] = v as u32;
        }
        let g: Vec<u32> = (0..self.n).map(|v| inv_best[current[v] as usize]).collect();
        if g.iter().enumerate().all(|(i, &x)| i as u32 == x) || self.gens.contains(&g) {
            return;
        }
        self.gens.push(g);
    }

    /// Union-find parents for vertex orbits under the subgroup
    /// generated by discovered automorphisms that fix the current base
    /// pointwise; `None` when no generator qualifies.
    fn base_fixing_orbits(&self) -> Option<Vec<usize>> {
        if self.gens.is_empty() {
            return None;
        }
        let mut parent: Vec<usize> = (0..self.n).collect();
        let mut any = false;
        for g in &self.gens {
            if self.base.iter().any(|&b| g[b] as usize != b) {
                continue;
            }
            any = true;
            for (x, &gx) in g.iter().enumerate() {
                let (rx, ry) = (find(&mut parent, x), find(&mut parent, gx as usize));
                if rx != ry {
                    parent[rx] = ry;
                }
            }
        }
        any.then_some(parent)
    }
}

/// Path-halving union-find lookup.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(n: usize, facets: &[Vec<u32>], colors: &[u32]) -> CanonicalForm {
        canonical_form(n, facets, colors, DEFAULT_BUDGET)
    }

    /// Relabels a facet list by a vertex bijection.
    fn relabel(facets: &[Vec<u32>], perm: &Perm) -> Vec<Vec<u32>> {
        facets
            .iter()
            .map(|f| {
                let mut g: Vec<u32> = f.iter().map(|&v| perm.apply(v)).collect();
                g.sort_unstable();
                g
            })
            .collect()
    }

    #[test]
    fn triangle_key_invariant_under_relabeling() {
        let facets = vec![vec![0, 1], vec![0, 2], vec![1, 2]];
        let colors = vec![7, 7, 7];
        let base = canon(3, &facets, &colors);
        assert!(base.exact);
        for p in crate::perm::all_permutations(3) {
            let moved = relabel(&facets, &p);
            let cf = canon(3, &moved, &colors);
            assert!(cf.exact);
            assert_eq!(cf.key(), base.key());
        }
    }

    #[test]
    fn colors_distinguish_otherwise_isomorphic_complexes() {
        let facets = vec![vec![0, 1], vec![1, 2]];
        // path 0-1-2 with endpoint colors swapped is color-isomorphic
        // (reflection), but coloring the *middle* differently is not
        let a = canon(3, &facets, &[5, 9, 6]);
        let b = canon(3, &facets, &[6, 9, 5]);
        let c = canon(3, &facets, &[9, 5, 6]);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn non_isomorphic_complexes_get_distinct_keys() {
        // path of 3 edges vs star of 3 edges: same f-vector
        let path = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let star = vec![vec![0, 1], vec![0, 2], vec![0, 3]];
        let u = [1u32; 4];
        assert_ne!(canon(4, &path, &u).key(), canon(4, &star, &u).key());
    }

    #[test]
    fn labeling_transports_input_onto_canonical_form() {
        let facets = vec![vec![0, 2], vec![1, 2], vec![0, 1, 3]];
        let colors = vec![3, 1, 4, 1];
        let cf = canon(4, &facets, &colors);
        // applying the labeling to the input reproduces the canonical
        // facet list and color table
        let moved = {
            let mut m = relabel(&facets, &cf.labeling);
            m.sort_unstable();
            m
        };
        assert_eq!(moved, cf.facets);
        for v in 0..4u32 {
            assert_eq!(cf.colors[cf.labeling.apply(v) as usize], colors[v as usize]);
        }
    }

    #[test]
    fn budget_exhaustion_is_flagged_not_wrong() {
        // a highly symmetric complex forces branching; budget 1 cannot
        // finish
        let facets = vec![vec![0, 1], vec![0, 2], vec![1, 2]];
        let cf = canonical_form(3, &facets, &[0, 0, 0], 1);
        assert!(!cf.exact);
        // deterministic for identical input
        let cf2 = canonical_form(3, &facets, &[0, 0, 0], 1);
        assert_eq!(cf, cf2);
    }
}
