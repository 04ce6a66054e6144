//! Connectivity certificates.
//!
//! The paper's Definition 1 is homotopy-theoretic `k`-connectivity. This
//! module provides computable certificates:
//!
//! * graph connectivity (0-connectivity),
//! * *collapsibility* (greedy free-face collapsing) — a sufficient
//!   certificate for contractibility, hence `k`-connectivity for every `k`,
//! * a fundamental-group triviality check from the 2-skeleton
//!   (spanning-tree presentation + Tietze simplification) — sufficient for
//!   simple connectivity,
//! * the combined [`ConnectivityAnalyzer`], which upgrades homological
//!   connectivity ([`crate::Homology`]) to homotopy connectivity via the
//!   Hurewicz theorem whenever simple connectivity is certified.

use std::collections::{BTreeMap, BTreeSet};

use crate::{Complex, Homology, Label, PreparedBoundary, Simplex};

/// Outcome of a `k`-connectivity query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Certified `k`-connected (homology vanishes and, for `k ≥ 1`,
    /// simple connectivity was certified).
    Yes,
    /// Certified not `k`-connected (non-trivial reduced homology at or
    /// below dimension `k`, or empty/disconnected).
    No,
    /// Reduced homology vanishes up to `k` but simple connectivity could
    /// not be certified by the heuristics; for the wedge-of-spheres
    /// complexes of this crate this outcome does not occur in practice.
    HomologyOnly,
}

impl Verdict {
    /// `true` for [`Verdict::Yes`].
    pub fn is_yes(self) -> bool {
        self == Verdict::Yes
    }
}

/// Attempts to collapse `k` to a single vertex by elementary collapses.
///
/// A simplex `σ` is a *free face* if it is a proper face of exactly one
/// simplex `τ`; the elementary collapse removes `σ` and `τ`. If greedy
/// collapsing terminates with one vertex, the complex is collapsible and
/// therefore contractible. Returns `true` on success; `false` is
/// inconclusive (the complex may still be contractible).
pub fn is_collapsible<V: Label>(k: &Complex<V>) -> bool {
    let by_dim = k.all_simplices();
    let mut all: BTreeSet<Simplex<V>> = by_dim.into_iter().flatten().collect();
    if all.is_empty() {
        return false;
    }
    loop {
        if all.len() == 1 {
            return all.iter().next().unwrap().dim() == 0;
        }
        // find a free face: σ with exactly one proper coface
        let mut found: Option<(Simplex<V>, Simplex<V>)> = None;
        for sigma in &all {
            let mut cofaces = all.iter().filter(|t| sigma.is_proper_face_of(t));
            if let Some(tau) = cofaces.next() {
                if cofaces.next().is_none() {
                    found = Some((sigma.clone(), tau.clone()));
                    break;
                }
            }
        }
        match found {
            Some((sigma, tau)) => {
                all.remove(&sigma);
                all.remove(&tau);
            }
            None => return false,
        }
    }
}

/// Result of the fundamental-group triviality heuristic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pi1 {
    /// π₁ certified trivial.
    Trivial,
    /// Complex is empty or disconnected: π₁ not applicable / not simply
    /// connected in the relevant sense.
    NotConnected,
    /// Heuristic simplification did not reach the trivial presentation
    /// (inconclusive: the group may still be trivial).
    Unknown,
}

/// Certifies simple connectivity from the 2-skeleton.
///
/// Builds the edge-path group presentation: generators are the non-tree
/// edges of a spanning tree; each 2-simplex contributes a relator. Then
/// performs Tietze-style simplifications (free+cyclic reduction, killing
/// generators from length-1 relators, substituting from length-2
/// relators). A presentation reduced to no generators certifies π₁ = 1.
pub fn pi1_trivial<V: Label>(k: &Complex<V>) -> Pi1 {
    if k.is_void() || !k.is_connected() {
        return Pi1::NotConnected;
    }
    let verts: Vec<V> = k.vertex_set().into_iter().collect();
    let vidx: BTreeMap<&V, usize> = verts.iter().enumerate().map(|(i, v)| (v, i)).collect();
    let n = verts.len();

    // edges as index pairs (a < b)
    let edges: Vec<(usize, usize)> = k
        .simplices_of_dim(1)
        .into_iter()
        .map(|e| {
            let vs = e.vertices();
            (vidx[&vs[0]], vidx[&vs[1]])
        })
        .collect();
    let eidx: BTreeMap<(usize, usize), usize> =
        edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();

    // BFS spanning tree
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut in_tree = vec![false; edges.len()];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[0] = true;
    queue.push_back(0);
    while let Some(u) = queue.pop_front() {
        for &w in &adj[u] {
            if !seen[w] {
                seen[w] = true;
                let key = (u.min(w), u.max(w));
                in_tree[eidx[&key]] = true;
                queue.push_back(w);
            }
        }
    }

    // generator id per non-tree edge (1-based, sign = orientation)
    let mut gen_of_edge: Vec<Option<i32>> = vec![None; edges.len()];
    let mut gen_count = 0i32;
    for (i, tree) in in_tree.iter().enumerate() {
        if !tree {
            gen_count += 1;
            gen_of_edge[i] = Some(gen_count);
        }
    }
    if gen_count == 0 {
        return Pi1::Trivial; // 1-skeleton is a tree
    }

    // relators from 2-simplexes: for {a<b<c}: e(a,b) e(b,c) e(a,c)^-1
    let mut relators: Vec<Vec<i32>> = Vec::new();
    for t in k.simplices_of_dim(2) {
        let vs = t.vertices();
        let (a, b, c) = (vidx[&vs[0]], vidx[&vs[1]], vidx[&vs[2]]);
        let mut word = Vec::new();
        for &(x, y, inv) in &[(a, b, false), (b, c, false), (a, c, true)] {
            let e = eidx[&(x.min(y), x.max(y))];
            if let Some(g) = gen_of_edge[e] {
                word.push(if inv { -g } else { g });
            }
        }
        free_reduce(&mut word);
        if !word.is_empty() {
            relators.push(word);
        }
    }

    // Tietze simplification
    let mut alive: BTreeSet<i32> = (1..=gen_count).collect();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 10_000 {
        changed = false;
        rounds += 1;
        relators.retain(|w| !w.is_empty());
        // kill generators appearing in length-1 relators
        let killed: Vec<i32> = relators
            .iter()
            .filter(|w| w.len() == 1)
            .map(|w| w[0].abs())
            .collect();
        for g in killed {
            if alive.remove(&g) {
                changed = true;
                for w in &mut relators {
                    w.retain(|x| x.abs() != g);
                    free_reduce(w);
                }
            }
        }
        // substitute from length-2 relators: g = h^e
        let subst: Option<(i32, i32)> = relators
            .iter()
            .filter(|w| w.len() == 2 && w[0].abs() != w[1].abs())
            .map(|w| (w[0], w[1]))
            .next();
        if let Some((a, b)) = subst {
            // a * b = 1  =>  a = b^{-1}: replace a by -b everywhere
            let g = a.abs();
            let rep = if a > 0 { -b } else { b }; // occurrence of +g becomes rep
            if alive.remove(&g) {
                changed = true;
                for w in &mut relators {
                    let mut out = Vec::with_capacity(w.len());
                    for &x in w.iter() {
                        if x == g {
                            out.push(rep);
                        } else if x == -g {
                            out.push(-rep);
                        } else {
                            out.push(x);
                        }
                    }
                    free_reduce(&mut out);
                    *w = out;
                }
            }
        }
        // also treat a relator x x (same generator twice with same sign) of
        // length 2: g^2 = 1 is NOT triviality; skip those.
        cyclic_reduce_all(&mut relators);
    }
    if alive.is_empty() {
        Pi1::Trivial
    } else {
        Pi1::Unknown
    }
}

fn free_reduce(word: &mut Vec<i32>) {
    let mut out: Vec<i32> = Vec::with_capacity(word.len());
    for &x in word.iter() {
        if let Some(&last) = out.last() {
            if last == -x {
                out.pop();
                continue;
            }
        }
        out.push(x);
    }
    *word = out;
}

fn cyclic_reduce_all(relators: &mut [Vec<i32>]) {
    for w in relators.iter_mut() {
        while w.len() >= 2 && *w.first().unwrap() == -*w.last().unwrap() {
            w.remove(0);
            w.pop();
        }
    }
}

/// Combined connectivity analysis of a complex.
///
/// # Examples
///
/// ```
/// use ps_topology::{Complex, Simplex, ConnectivityAnalyzer, Verdict};
///
/// let sphere = Complex::simplex(Simplex::from_iter(0..4)).skeleton(2);
/// let a = ConnectivityAnalyzer::new(&sphere);
/// assert_eq!(a.is_k_connected(1), Verdict::Yes);
/// assert_eq!(a.is_k_connected(2), Verdict::No);
/// ```
#[derive(Debug)]
pub struct ConnectivityAnalyzer {
    homological: i32,
    simply_connected: bool,
    contractible_cert: bool,
    void: bool,
}

impl ConnectivityAnalyzer {
    /// Analyzes `k`: computes reduced integral homology
    /// ([`Homology::reduced`]), then tries collapsibility and the π₁
    /// heuristic.
    pub fn new<V: Label>(k: &Complex<V>) -> Self {
        Self::certify(k, Homology::reduced(k).homological_connectivity())
    }

    /// Like [`ConnectivityAnalyzer::new`] but with GF(2) homology only
    /// (sparse column reduction through [`PreparedBoundary`], lazily
    /// bottom-up; no Smith normal form). Sound for `k`-connectivity
    /// *refutations* up to 2-torsion: by universal coefficients, mod-2
    /// Betti numbers dominate integral ones, so vanishing mod-2 homology
    /// implies vanishing integral Betti numbers — only odd torsion can
    /// hide (and does not occur in the wedge-of-spheres complexes of
    /// this crate). Use for complexes with thousands of facets where
    /// [`ConnectivityAnalyzer::new`] is too slow.
    pub fn mod2<V: Label>(k: &Complex<V>) -> Self {
        Self::certify(
            k,
            PreparedBoundary::of_complex(k).homological_connectivity(),
        )
    }

    /// Completes an analysis from the homological connectivity of `k`
    /// (`-2` exactly when `k` is void): the π₁ / collapsibility
    /// certificates need the face lattice rather than the boundary
    /// matrices.
    fn certify<V: Label>(k: &Complex<V>, homological: i32) -> Self {
        let contractible_cert = homological == i32::MAX && is_collapsible(k);
        let simply_connected =
            homological >= 1 && (contractible_cert || pi1_trivial(k) == Pi1::Trivial);
        ConnectivityAnalyzer {
            homological,
            simply_connected,
            contractible_cert,
            void: homological == -2,
        }
    }

    /// The homological connectivity (see
    /// [`Homology::homological_connectivity`]).
    pub fn homological_connectivity(&self) -> i32 {
        self.homological
    }

    /// Whether a collapsibility certificate was found.
    pub fn is_contractible_certified(&self) -> bool {
        self.contractible_cert
    }

    /// Whether simple connectivity was certified.
    pub fn is_simply_connected_certified(&self) -> bool {
        self.simply_connected
    }

    /// Decides `k`-connectivity under the paper's conventions:
    /// every complex is `k`-connected for `k < -1`; `(-1)`-connected iff
    /// nonempty; `0`-connected iff graph-connected; for `k ≥ 1`, homology
    /// must vanish through dimension `k` and π₁ must be certified trivial.
    pub fn is_k_connected(&self, k: i32) -> Verdict {
        if k < -1 {
            return Verdict::Yes;
        }
        if self.void {
            return Verdict::No;
        }
        if k == -1 {
            return Verdict::Yes;
        }
        if self.homological < k {
            return Verdict::No;
        }
        if k == 0 {
            return Verdict::Yes; // homological ≥ 0 means connected
        }
        if self.simply_connected {
            Verdict::Yes
        } else {
            Verdict::HomologyOnly
        }
    }

    /// The certified connectivity: the largest `k` with
    /// `is_k_connected(k) == Yes`; `-2` when even `(-1)` fails;
    /// `i32::MAX` for certified-contractible complexes.
    pub fn connectivity(&self) -> i32 {
        if self.void {
            return -2;
        }
        if self.homological <= 0 {
            return self.homological;
        }
        if self.simply_connected {
            self.homological
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(vs: &[u32]) -> Simplex<u32> {
        Simplex::from_iter(vs.iter().copied())
    }

    #[test]
    fn collapsible_simplex() {
        let c = Complex::simplex(s(&[0, 1, 2, 3]));
        assert!(is_collapsible(&c));
    }

    #[test]
    fn sphere_not_collapsible() {
        let c = Complex::simplex(s(&[0, 1, 2])).skeleton(1); // circle
        assert!(!is_collapsible(&c));
    }

    #[test]
    fn point_collapsible() {
        assert!(is_collapsible(&Complex::simplex(Simplex::vertex(7u32))));
        assert!(!is_collapsible(&Complex::<u32>::new()));
    }

    #[test]
    fn tree_collapsible() {
        let c = Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[1, 3])]);
        assert!(is_collapsible(&c));
    }

    #[test]
    fn pi1_of_tree_trivial() {
        let c = Complex::from_facets([s(&[0, 1]), s(&[1, 2])]);
        assert_eq!(pi1_trivial(&c), Pi1::Trivial);
    }

    #[test]
    fn pi1_of_circle_nontrivial() {
        let c = Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[0, 2])]);
        assert_eq!(pi1_trivial(&c), Pi1::Unknown); // Z, not killed
    }

    #[test]
    fn pi1_of_2sphere_trivial() {
        let c = Complex::simplex(s(&[0, 1, 2, 3])).skeleton(2);
        assert_eq!(pi1_trivial(&c), Pi1::Trivial);
    }

    #[test]
    fn pi1_of_solid_simplex_trivial() {
        let c = Complex::simplex(s(&[0, 1, 2, 3, 4]));
        assert_eq!(pi1_trivial(&c), Pi1::Trivial);
    }

    #[test]
    fn pi1_disconnected() {
        let c = Complex::from_facets([s(&[0, 1]), s(&[5, 6])]);
        assert_eq!(pi1_trivial(&c), Pi1::NotConnected);
    }

    #[test]
    fn analyzer_on_sphere2() {
        let c = Complex::simplex(s(&[0, 1, 2, 3])).skeleton(2);
        let a = ConnectivityAnalyzer::new(&c);
        assert_eq!(a.is_k_connected(-5), Verdict::Yes);
        assert_eq!(a.is_k_connected(-1), Verdict::Yes);
        assert_eq!(a.is_k_connected(0), Verdict::Yes);
        assert_eq!(a.is_k_connected(1), Verdict::Yes);
        assert_eq!(a.is_k_connected(2), Verdict::No);
        assert_eq!(a.connectivity(), 1);
    }

    #[test]
    fn analyzer_on_void() {
        let c = Complex::<u32>::new();
        let a = ConnectivityAnalyzer::new(&c);
        assert_eq!(a.is_k_connected(-1), Verdict::No);
        assert_eq!(a.is_k_connected(-2), Verdict::Yes);
        assert_eq!(a.connectivity(), -2);
    }

    #[test]
    fn analyzer_on_disconnected() {
        let c = Complex::from_facets([s(&[0]), s(&[1])]);
        let a = ConnectivityAnalyzer::new(&c);
        assert_eq!(a.is_k_connected(-1), Verdict::Yes);
        assert_eq!(a.is_k_connected(0), Verdict::No);
        assert_eq!(a.connectivity(), -1);
    }

    #[test]
    fn analyzer_on_contractible() {
        let c = Complex::simplex(s(&[0, 1, 2, 3]));
        let a = ConnectivityAnalyzer::new(&c);
        assert!(a.is_contractible_certified());
        assert_eq!(a.connectivity(), i32::MAX);
        assert_eq!(a.is_k_connected(10), Verdict::Yes);
    }

    #[test]
    fn analyzer_circle() {
        let c = Complex::simplex(s(&[0, 1, 2])).skeleton(1);
        let a = ConnectivityAnalyzer::new(&c);
        assert_eq!(a.connectivity(), 0);
        assert_eq!(a.is_k_connected(1), Verdict::No);
    }

    #[test]
    fn mod2_analyzer_agrees_on_torsion_free_complexes() {
        for c in [
            Complex::simplex(s(&[0, 1, 2, 3])).skeleton(2),
            Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[0, 2])]),
            Complex::simplex(s(&[0, 1, 2])),
            Complex::from_facets([s(&[0]), s(&[5])]),
        ] {
            let full = ConnectivityAnalyzer::new(&c);
            let fast = ConnectivityAnalyzer::mod2(&c);
            assert_eq!(full.connectivity(), fast.connectivity(), "{c:?}");
        }
        assert_eq!(
            ConnectivityAnalyzer::mod2(&Complex::<u32>::new()).connectivity(),
            -2
        );
    }

    #[test]
    fn free_reduce_works() {
        let mut w = vec![1, 2, -2, -1, 3];
        free_reduce(&mut w);
        assert_eq!(w, vec![3]);
        let mut w2 = vec![1, -1];
        free_reduce(&mut w2);
        assert!(w2.is_empty());
    }
}
