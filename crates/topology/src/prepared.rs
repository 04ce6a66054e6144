//! Incremental homology over a fixed complex: reduced coboundaries,
//! built and cached only as far as the queries reach.
//!
//! [`PreparedBoundary`] is the chain-level analogue of `ps-agreement`'s
//! `PreparedInstance`: prepared once over a (usually huge, shared)
//! [`IdComplex`], after which every Betti / connectivity query pays
//! only for the work no earlier query did. Preparing copies the facets'
//! id lists and nothing else. The first query that needs dimension `d`
//! enumerates the `d`-simplexes: every `(d+1)`-subset of every facet
//! becomes a fixed-width key, and one `sort_unstable` plus `dedup`
//! leaves them in lexicographic order.
//!
//! Ranks come from the coboundaries: `rank ∂_d = rank δ^{d−1}`, its
//! transpose, with one column per `(d−1)`-simplex and one row per
//! `d`-simplex (`δ^{−1}` is the transposed augmentation: one column
//! over every vertex). Every query reduces them in one order,
//! bottom-up, and reduces `δ^{d−1}` with the pivot lows of `δ^{d−2}` as
//! cleared columns: since `δδ = 0`, each such column reduces to zero
//! (the cohomology twist; see [`crate::sparse_gf2`]). A query that
//! stops at the first non-zero Betti number, or at `q`, touches no
//! dimension above `q + 1`; the reduced prefix stays cached and later
//! queries extend it. Each `δ^{d−1}` is assembled right before its
//! reduction and dropped after it. No query reads the thread count, so
//! results and work counters are the same at every thread count.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::intern::IdComplex;
use crate::sparse_gf2::{Reduction, ReductionStats, SparseGf2Matrix};
use crate::{Complex, Label};

/// Cached coboundary reductions of one simplicial complex.
///
/// # Examples
///
/// ```
/// use ps_topology::{Complex, Simplex, PreparedBoundary};
///
/// let sphere = Complex::simplex(Simplex::from_iter(0..4)).skeleton(2);
/// let mut pb = PreparedBoundary::of_complex(&sphere);
/// assert_eq!(pb.betti_mod2(), vec![0, 0, 1]);
/// assert_eq!(pb.homological_connectivity(), 1);
/// ```
#[derive(Debug)]
pub struct PreparedBoundary {
    /// The facets grouped by vertex count: `facets[m]` holds every
    /// `m`-vertex facet's ascending ids, back to back.
    facets: BTreeMap<usize, Vec<u32>>,
    /// `faces[d]` = the `d`-simplexes, enumerated on first need.
    faces: Vec<OnceLock<Faces>>,
    /// `reductions[d]` = the reduction of `δ^{d−1}`, whose rank is
    /// `rank ∂_d`; always a bottom-up prefix.
    reductions: Vec<Reduction>,
    /// Coboundary columns assembled so far (work counter).
    assembled_columns: u64,
}

/// The `d`-simplexes of a complex in lexicographic order, each as its
/// `width = d + 1` ascending ids, back to back.
#[derive(Debug)]
struct Faces {
    width: usize,
    keys: Vec<u32>,
}

impl Faces {
    fn len(&self) -> usize {
        self.keys.len() / self.width
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, u32> {
        self.keys.chunks_exact(self.width)
    }

    /// The position of `face` (ascending ids, `width` of them).
    fn index_of(&self, face: &[u32]) -> u32 {
        let w = self.width;
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.keys[mid * w..(mid + 1) * w].cmp(face) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return mid as u32,
            }
        }
        panic!("face missing from basis")
    }
}

/// `C(m, w)`.
fn binomial(m: usize, w: usize) -> usize {
    (0..w).fold(1, |acc, i| acc * (m - i) / (i + 1))
}

/// Sorts and deduplicates `keys`, read as `W`-wide rows, in place.
fn sort_dedup<const W: usize>(keys: &mut Vec<u32>) {
    let (rows, rest) = keys.as_chunks_mut::<W>();
    debug_assert!(rest.is_empty());
    rows.sort_unstable();
    let mut kept = 0;
    for i in 0..rows.len() {
        if kept == 0 || rows[i] != rows[kept - 1] {
            rows[kept] = rows[i];
            kept += 1;
        }
    }
    keys.truncate(kept * W);
}

impl PreparedBoundary {
    /// Prepares the coboundary cache of an interned complex: copies the
    /// facets' ids; every basis is enumerated and every column
    /// assembled lazily.
    pub fn of_id_complex(k: &IdComplex) -> Self {
        let mut facets: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for f in k.facets() {
            facets.entry(f.len()).or_default().extend(f.ids());
        }
        let top = facets.keys().next_back().map_or(0, |&m| m);
        PreparedBoundary {
            facets,
            faces: (0..top).map(|_| OnceLock::new()).collect(),
            reductions: Vec::new(),
            assembled_columns: 0,
        }
    }

    /// Prepares the coboundary cache of a label-typed complex (interns
    /// it first; prefer [`PreparedBoundary::of_id_complex`] when the
    /// interned form is already at hand).
    pub fn of_complex<V: Label>(k: &Complex<V>) -> Self {
        let (_pool, idc) = k.to_interned();
        Self::of_id_complex(&idc)
    }

    /// Top dimension, `-1` if void.
    pub fn dim(&self) -> i32 {
        self.faces.len() as i32 - 1
    }

    /// The `d`-simplexes (`0 ≤ d ≤ dim`), enumerated on first need.
    fn faces(&self, d: usize) -> &Faces {
        self.faces[d].get_or_init(|| {
            let width = d + 1;
            let total = self
                .facets
                .range(width..)
                .map(|(&m, ids)| ids.len() / m * binomial(m, width) * width)
                .sum();
            let mut keys = Vec::with_capacity(total);
            let mut pick: Vec<usize> = Vec::with_capacity(width);
            for (&m, ids) in self.facets.range(width..) {
                for facet in ids.chunks_exact(m) {
                    // every width-subset of the facet, lexicographically
                    pick.clear();
                    pick.extend(0..width);
                    loop {
                        keys.extend(pick.iter().map(|&i| facet[i]));
                        let Some(i) = (0..width).rev().find(|&i| pick[i] < m - width + i) else {
                            break;
                        };
                        pick[i] += 1;
                        for j in i + 1..width {
                            pick[j] = pick[j - 1] + 1;
                        }
                    }
                }
            }
            match width {
                1 => sort_dedup::<1>(&mut keys),
                2 => sort_dedup::<2>(&mut keys),
                3 => sort_dedup::<3>(&mut keys),
                4 => sort_dedup::<4>(&mut keys),
                5 => sort_dedup::<5>(&mut keys),
                6 => sort_dedup::<6>(&mut keys),
                7 => sort_dedup::<7>(&mut keys),
                8 => sort_dedup::<8>(&mut keys),
                _ => {
                    let mut rows: Vec<&[u32]> = keys.chunks_exact(width).collect();
                    rows.sort_unstable();
                    rows.dedup();
                    keys = rows.concat();
                }
            }
            keys.shrink_to_fit();
            Faces { width, keys }
        })
    }

    /// Number of `d`-simplexes (`0` outside range).
    pub fn size(&self, d: i32) -> usize {
        if d < 0 || d > self.dim() {
            0
        } else {
            self.faces(d as usize).len()
        }
    }

    /// The f-vector: `f[d]` = number of `d`-simplexes.
    pub fn f_vector(&self) -> Vec<usize> {
        (0..=self.dim()).map(|d| self.size(d)).collect()
    }

    /// Euler characteristic `Σ (-1)^d f_d`.
    pub fn euler_characteristic(&self) -> i64 {
        self.f_vector()
            .iter()
            .enumerate()
            .map(|(d, &n)| if d % 2 == 0 { n as i64 } else { -(n as i64) })
            .sum()
    }

    /// Coboundary columns assembled so far across all dimensions (work
    /// counter): `δ^{d−1}` has one column per `(d−1)`-simplex, and
    /// `δ^{−1}` one column.
    pub fn assembled_columns(&self) -> u64 {
        self.assembled_columns
    }

    /// Aggregated work counters of every coboundary reduction performed
    /// so far.
    pub fn stats(&self) -> ReductionStats {
        let mut out = ReductionStats::default();
        for r in &self.reductions {
            out.merge(&r.stats());
        }
        out
    }

    /// Assembles `δ^{d−1}`: one column per `(d−1)`-simplex, one row per
    /// `d`-simplex (`d = 0` is the transposed augmentation, a single
    /// column over every vertex). Walking the rows in order fills each
    /// column's rows ascending.
    fn assemble(&self, d: usize) -> SparseGf2Matrix {
        let rows = self.faces(d);
        if d == 0 {
            return SparseGf2Matrix::from_columns(
                rows.len(),
                vec![(0..rows.len() as u32).collect()],
            );
        }
        let cols = self.faces(d - 1);
        let mut columns = vec![Vec::new(); cols.len()];
        let mut face = Vec::with_capacity(d);
        for (row, simplex) in rows.iter().enumerate() {
            for skip in 0..=d {
                face.clear();
                face.extend_from_slice(&simplex[..skip]);
                face.extend_from_slice(&simplex[skip + 1..]);
                columns[cols.index_of(&face) as usize].push(row as u32);
            }
        }
        SparseGf2Matrix::from_columns(rows.len(), columns)
    }

    /// Reduces the coboundaries bottom-up through `δ^{d−1}` if not
    /// cached, each one cleared by the pivot lows of the one below it
    /// (`δ^{−1}` has none below and clears nothing).
    fn reduce_through(&mut self, d: usize) {
        while self.reductions.len() <= d {
            let coboundary = self.assemble(self.reductions.len());
            self.assembled_columns += coboundary.cols() as u64;
            let cleared = self
                .reductions
                .last()
                .map_or(&[][..], Reduction::pivot_lows);
            let reduction = coboundary.reduce_cleared(cleared);
            self.reductions.push(reduction);
        }
    }

    /// GF(2) rank of `∂_d` (`0` outside `0..=dim`), reduced lazily as
    /// the rank of its transpose `δ^{d−1}`.
    pub fn rank(&mut self, d: i32) -> usize {
        if d < 0 || d > self.dim() {
            return 0;
        }
        self.reduce_through(d as usize);
        self.reductions[d as usize].rank()
    }

    /// Reduced mod-2 Betti number in dimension `d`, reducing lazily
    /// (coboundaries through `δ^d` only — a connectivity query that
    /// stops at the first non-zero Betti number never touches higher
    /// dimensions).
    pub fn betti(&mut self, d: i32) -> usize {
        self.size(d) - self.rank(d) - self.rank(d + 1)
    }

    /// All reduced mod-2 Betti numbers, `d = 0..=dim`.
    pub fn betti_mod2(&mut self) -> Vec<usize> {
        (0..=self.dim()).map(|d| self.betti(d)).collect()
    }

    /// The largest `q` such that the reduced mod-2 `H_d` vanishes for
    /// all `d ≤ q` (`-2` void, `-1` disconnected, `i32::MAX` when all
    /// Betti numbers vanish) — the mod-2 counterpart of
    /// [`crate::Homology::homological_connectivity`].
    ///
    /// Stops at the first non-zero Betti number, so a refuted query on
    /// a huge complex touches only a prefix of the dimensions; the
    /// prefix stays cached for later queries.
    pub fn homological_connectivity(&mut self) -> i32 {
        let dim = self.dim();
        if dim < 0 {
            return -2;
        }
        for d in 0..=dim {
            if self.betti(d) != 0 {
                return d - 1;
            }
        }
        i32::MAX
    }

    /// `true` iff the complex is homologically `q`-connected over GF(2):
    /// nonempty and reduced `H_d = 0` for `0 ≤ d ≤ q`. Every complex,
    /// including the void one, is vacuously `q`-connected for `q < -1`;
    /// `q = -1` asks only for nonemptiness. Lazy like
    /// [`PreparedBoundary::homological_connectivity`], but also stops at
    /// `q` on the certifying side: it enumerates and reduces nothing
    /// above dimension `q + 1`.
    pub fn is_q_connected(&mut self, q: i32) -> bool {
        if q < -1 {
            return true;
        }
        if self.dim() < 0 {
            return false;
        }
        let cap = q.min(self.dim());
        for d in 0..=cap {
            if self.betti(d) != 0 {
                return false;
            }
        }
        // q above the top dimension: remaining reduced homology is zero
        // only if the Betti numbers up to dim all vanished, which the
        // loop just checked.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Homology, Simplex};

    fn s(vs: &[u32]) -> Simplex<u32> {
        Simplex::from_iter(vs.iter().copied())
    }

    fn torus() -> Complex<u32> {
        let mut facets = Vec::new();
        for i in 0u32..7 {
            facets.push(Simplex::from_iter([i, (i + 1) % 7, (i + 3) % 7]));
            facets.push(Simplex::from_iter([i, (i + 2) % 7, (i + 3) % 7]));
        }
        Complex::from_facets(facets)
    }

    /// The dimensions enumerated so far.
    fn enumerated(pb: &PreparedBoundary) -> Vec<usize> {
        (0..pb.faces.len())
            .filter(|&d| pb.faces[d].get().is_some())
            .collect()
    }

    #[test]
    fn betti_matches_homology_on_fixtures() {
        for c in [
            Complex::simplex(s(&[0, 1, 2, 3])).skeleton(2),
            Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[0, 2])]),
            Complex::simplex(s(&[0, 1, 2])),
            Complex::from_facets([s(&[0]), s(&[5])]),
            torus(),
        ] {
            let expected = Homology::betti_mod2(&c);
            let mut pb = PreparedBoundary::of_complex(&c);
            assert_eq!(pb.betti_mod2(), expected, "{c:?}");
        }
    }

    #[test]
    fn wider_than_the_fixed_width_keys() {
        // ∂Δ⁹ = S⁸ reaches width 9, Δ¹¹ width 12: both past the
        // const-generic widths, so their top bases take the slice sort
        let sphere = Complex::simplex(Simplex::from_iter(0u32..10)).skeleton(8);
        let solid = Complex::simplex(Simplex::from_iter(0u32..12));
        for (c, expected) in [
            (sphere, [vec![0; 8], vec![1]].concat()),
            (solid, vec![0; 12]),
        ] {
            let mut pb = PreparedBoundary::of_complex(&c);
            assert_eq!(pb.f_vector(), c.f_vector());
            assert_eq!(pb.betti_mod2(), expected);
            assert_eq!(Homology::betti_mod2_dense(&c), expected);
        }
    }

    #[test]
    fn mixed_facet_sizes() {
        // a triangle with a dangling edge and an isolated vertex
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[2, 3]), s(&[7])]);
        let mut pb = PreparedBoundary::of_complex(&c);
        assert_eq!(pb.f_vector(), vec![5, 4, 1]);
        assert_eq!(pb.betti_mod2(), Homology::betti_mod2_dense(&c));
    }

    #[test]
    fn void_complex() {
        let mut pb = PreparedBoundary::of_complex(&Complex::<u32>::new());
        assert_eq!(pb.dim(), -1);
        assert!(pb.betti_mod2().is_empty());
        assert_eq!(pb.homological_connectivity(), -2);
        assert!(pb.is_q_connected(-2));
        assert!(!pb.is_q_connected(-1));
    }

    #[test]
    fn lazy_connectivity_then_full_betti() {
        // disconnected: connectivity query stops at dimension 0 and must
        // leave a cache that a later full Betti pass extends correctly
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[4, 5])]);
        let mut pb = PreparedBoundary::of_complex(&c);
        assert_eq!(pb.homological_connectivity(), -1);
        assert_eq!(pb.betti_mod2(), Homology::betti_mod2(&c));
        // and the other way around on a fresh cache
        let mut pb2 = PreparedBoundary::of_complex(&c);
        assert_eq!(pb2.betti_mod2(), Homology::betti_mod2(&c));
        assert_eq!(pb2.homological_connectivity(), -1);
    }

    #[test]
    fn q_connected_levels() {
        let sphere = Complex::simplex(s(&[0, 1, 2, 3])).skeleton(2);
        let mut pb = PreparedBoundary::of_complex(&sphere);
        assert!(pb.is_q_connected(-5));
        assert!(pb.is_q_connected(-1));
        assert!(pb.is_q_connected(0));
        assert!(pb.is_q_connected(1));
        assert!(!pb.is_q_connected(2));
        // contractible: q-connected for every q
        let solid = Complex::simplex(s(&[0, 1, 2, 3]));
        let mut pb2 = PreparedBoundary::of_complex(&solid);
        assert!(pb2.is_q_connected(10));
        assert_eq!(pb2.homological_connectivity(), i32::MAX);
    }

    #[test]
    fn query_touches_only_its_window() {
        // ∂Δ⁵ = S⁴: 6 vertices, 15 edges, …
        let sphere = Complex::simplex(Simplex::from_iter(0u32..6)).skeleton(4);
        let mut pb = PreparedBoundary::of_complex(&sphere);
        assert!(enumerated(&pb).is_empty(), "preparing enumerates nothing");
        assert!(pb.is_q_connected(0));
        // δ^{−1} and δ^0 only: one augmentation column plus f₀
        assert_eq!(pb.assembled_columns(), 1 + 6);
        assert_eq!(enumerated(&pb), vec![0, 1]);
        assert_eq!(pb.betti_mod2(), vec![0, 0, 0, 0, 1]);
        assert_eq!(enumerated(&pb), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn counters_accumulate() {
        let mut pb = PreparedBoundary::of_complex(&torus());
        assert_eq!(pb.assembled_columns(), 0);
        let _ = pb.betti_mod2();
        // δ^{−1}, δ^0, δ^1: 1 augmentation column + 7 vertices + 21 edges
        assert_eq!(pb.assembled_columns(), 29);
        let stats = pb.stats();
        assert_eq!(stats.columns, 29);
        assert!(stats.cleared > 0, "bottom-up pass must clear columns");
        // repeated queries do no new work
        let before = pb.stats();
        let _ = pb.betti_mod2();
        let _ = pb.homological_connectivity();
        assert_eq!(pb.stats(), before);
        assert_eq!(pb.assembled_columns(), 29);
    }

    #[test]
    fn euler_characteristic_consistency() {
        let c = torus();
        let mut pb = PreparedBoundary::of_complex(&c);
        assert_eq!(pb.euler_characteristic(), c.euler_characteristic());
        assert_eq!(pb.f_vector(), vec![7, 21, 14]);
        // χ = 1 + Σ (-1)^d b̃_d for reduced betti numbers
        let b = pb.betti_mod2();
        let mut alt = 1i64;
        for (d, &bd) in b.iter().enumerate() {
            alt += if d % 2 == 0 { bd as i64 } else { -(bd as i64) };
        }
        assert_eq!(alt, pb.euler_characteristic());
    }
}
