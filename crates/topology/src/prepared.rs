//! Incremental homology over a fixed complex: reduced boundary
//! prefixes, cached across queries.
//!
//! [`PreparedBoundary`] is the chain-level analogue of `ps-agreement`'s
//! `PreparedInstance`: one interning / basis-enumeration pass over a
//! (usually huge, shared) [`IdComplex`], after which every Betti /
//! connectivity query pays only for the reductions it has not already
//! performed. A `k`-sweep over one protocol complex asks "is it
//! `(k−1)`-connected?" for many `k`; the first query reduces boundaries
//! `∂_0 .. ∂_q`, and each later query extends that *reduced prefix*
//! upward instead of starting over. Each `∂_d` is assembled once, right
//! before its reduction, and dropped after it: only the reductions are
//! kept.
//!
//! Every query has one reduction order: [`PreparedBoundary::betti_mod2`]
//! reduces top-down with clearing, while
//! [`PreparedBoundary::homological_connectivity`] and
//! [`PreparedBoundary::is_q_connected`] reduce lazily bottom-up. Mixing
//! them on one cache is sound because everything cached is canonical:
//! GF(2) ranks are basis-order-independent integers, and pivot lows are
//! invariant under the clearing optimization (see [`crate::sparse_gf2`]).
//! No query reads the thread count, so results and work counters are
//! the same at every thread count.

use std::collections::HashMap;

use crate::intern::{IdComplex, IdSimplex};
use crate::sparse_gf2::{Reduction, ReductionStats, SparseGf2Matrix};
use crate::{Complex, Label};

/// Cached reductions of the boundary matrices of one simplicial complex.
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
    /// `basis[d]` = the `d`-simplexes in lexicographic (id) order.
    basis: Vec<Vec<IdSimplex>>,
    /// Cached reductions of `∂_d`.
    reductions: Vec<Option<Reduction>>,
    /// Columns assembled so far (work counter).
    assembled_columns: u64,
}

impl PreparedBoundary {
    /// Prepares the boundary cache of an interned complex (the basis
    /// enumeration happens here; columns are assembled lazily).
    pub fn of_id_complex(k: &IdComplex) -> Self {
        let basis = k.all_simplices();
        let reductions = (0..basis.len()).map(|_| None).collect();
        PreparedBoundary {
            basis,
            reductions,
            assembled_columns: 0,
        }
    }

    /// Prepares the boundary cache of a label-typed complex (interns it
    /// first; prefer [`PreparedBoundary::of_id_complex`] when the
    /// interned form is already at hand).
    pub fn of_complex<V: Label>(k: &Complex<V>) -> Self {
        let (_pool, idc) = k.to_interned();
        Self::of_id_complex(&idc)
    }

    /// Top dimension, `-1` if void.
    pub fn dim(&self) -> i32 {
        self.basis.len() as i32 - 1
    }

    /// Number of `d`-simplexes (`0` outside range).
    pub fn size(&self, d: i32) -> usize {
        if d < 0 || d as usize >= self.basis.len() {
            0
        } else {
            self.basis[d as usize].len()
        }
    }

    /// The f-vector: `f[d]` = number of `d`-simplexes.
    pub fn f_vector(&self) -> Vec<usize> {
        self.basis.iter().map(Vec::len).collect()
    }

    /// Euler characteristic `Σ (-1)^d f_d`.
    pub fn euler_characteristic(&self) -> i64 {
        self.f_vector()
            .iter()
            .enumerate()
            .map(|(d, &n)| if d % 2 == 0 { n as i64 } else { -(n as i64) })
            .sum()
    }

    /// Columns assembled so far across all dimensions (work counter).
    pub fn assembled_columns(&self) -> u64 {
        self.assembled_columns
    }

    /// Aggregated work counters of every reduction performed so far.
    pub fn stats(&self) -> ReductionStats {
        let mut out = ReductionStats::default();
        for r in self.reductions.iter().flatten() {
            out.merge(&r.stats());
        }
        out
    }

    /// Assembles `∂_d` (`d = 0` is the augmentation row). The row index
    /// of the `(d−1)`-simplexes lives only as long as the assembly.
    fn assemble(&self, d: usize) -> SparseGf2Matrix {
        let cols = self.basis[d].len();
        if d == 0 {
            // augmentation: every vertex maps to the empty simplex
            return SparseGf2Matrix::from_columns(1, vec![vec![0]; cols]);
        }
        let rows: HashMap<&IdSimplex, u32> = self.basis[d - 1]
            .iter()
            .enumerate()
            .map(|(i, s)| (s, i as u32))
            .collect();
        let columns = self.basis[d]
            .iter()
            .map(|s| {
                s.boundary_faces()
                    .map(|face| *rows.get(&face).expect("face missing from basis"))
                    .collect()
            })
            .collect();
        SparseGf2Matrix::from_columns(self.basis[d - 1].len(), columns)
    }

    /// Assembles and reduces `∂_d` if not cached, clearing against the
    /// cached reduction of `∂_{d+1}` when one is available (`∂_{dim+1} =
    /// 0` counts as available and clears nothing).
    fn ensure_reduction(&mut self, d: usize) {
        if self.reductions[d].is_some() {
            return;
        }
        let boundary = self.assemble(d);
        self.assembled_columns += self.basis[d].len() as u64;
        let cleared = match self.reductions.get(d + 1) {
            Some(Some(above)) => above.pivot_lows(),
            _ => &[],
        };
        self.reductions[d] = Some(boundary.reduce_cleared(cleared));
    }

    /// GF(2) rank of `∂_d` (`0` outside `0..=dim`), reducing lazily.
    pub fn rank(&mut self, d: i32) -> usize {
        if d < 0 || d as usize >= self.basis.len() {
            return 0;
        }
        self.ensure_reduction(d as usize);
        self.reductions[d as usize].as_ref().expect("cached").rank()
    }

    /// Reduced mod-2 Betti number in dimension `d`, reducing lazily
    /// (`∂_d` and `∂_{d+1}` only — a connectivity query that stops at
    /// the first non-zero Betti number never touches higher boundaries).
    pub fn betti(&mut self, d: i32) -> usize {
        self.size(d) - self.rank(d) - self.rank(d + 1)
    }

    /// All reduced mod-2 Betti numbers, `d = 0..=dim`. The dimensions
    /// not yet cached reduce top-down, so each reduction's pivot lows
    /// clear the next-lower matrix.
    pub fn betti_mod2(&mut self) -> Vec<usize> {
        for d in (0..self.basis.len()).rev() {
            self.ensure_reduction(d);
        }
        (0..=self.dim()).map(|d| self.betti(d)).collect()
    }

    /// The largest `q` such that the reduced mod-2 `H_d` vanishes for
    /// all `d ≤ q` (`-2` void, `-1` disconnected, `i32::MAX` when all
    /// Betti numbers vanish) — the mod-2 counterpart of
    /// [`crate::Homology::homological_connectivity`].
    ///
    /// Reduces bottom-up and stops at the first non-zero Betti number,
    /// so a refuted query on a huge complex touches only a prefix of the
    /// boundary matrices; the prefix stays cached for later queries.
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
    /// `q` on the certifying side, so it can be cheaper than computing
    /// the full connectivity.
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
    fn counters_accumulate() {
        let mut pb = PreparedBoundary::of_complex(&torus());
        assert_eq!(pb.assembled_columns(), 0);
        let _ = pb.betti_mod2();
        // 7 vertices + 21 edges + 14 triangles
        assert_eq!(pb.assembled_columns(), 42);
        let stats = pb.stats();
        assert_eq!(stats.columns, 42);
        assert!(stats.cleared > 0, "top-down pass must clear columns");
        // repeated queries do no new work
        let before = pb.stats();
        let _ = pb.betti_mod2();
        let _ = pb.homological_connectivity();
        assert_eq!(pb.stats(), before);
        assert_eq!(pb.assembled_columns(), 42);
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
