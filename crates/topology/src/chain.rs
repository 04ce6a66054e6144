//! Chain complexes and boundary operators of a simplicial complex.
//!
//! For a complex `K` with `n_d` simplexes of dimension `d`, the boundary
//! operator `∂_d : C_d → C_{d-1}` is the matrix whose column for a
//! `d`-simplex `σ = [v_0 < ... < v_d]` has entry `(-1)^i` in the row of the
//! face obtained by deleting `v_i`. Over GF(2) signs disappear and the
//! matrix is the face-incidence matrix.

use std::collections::{BTreeMap, HashMap};

use crate::intern::IdSimplex;
use crate::matrix::{BitMatrix, IntMatrix};
use crate::{Complex, Label, Simplex};

/// The boundary matrices of a simplicial complex, with simplex indexing.
///
/// Index `d` of [`ChainComplex::basis`] lists the `d`-simplexes in
/// lexicographic order; that order indexes the rows/columns of the
/// boundary matrices.
///
/// Internally the basis is also kept as interned [`IdSimplex`]es (over
/// the canonical pool of the source complex, so id order equals label
/// order): boundary-matrix construction enumerates codimension-1 faces
/// and resolves their row indices entirely on ids, with one hash lookup
/// per face instead of a binary search over label simplexes.
#[derive(Clone)]
pub struct ChainComplex<V> {
    /// `basis[d]` = the `d`-simplexes, lexicographically sorted.
    pub basis: Vec<Vec<Simplex<V>>>,
    /// Interned mirror of `basis`, index-aligned per dimension.
    id_basis: Vec<Vec<IdSimplex>>,
    /// `id_index[d]` maps a `d`-simplex (interned) to its column index.
    id_index: Vec<HashMap<IdSimplex, usize>>,
}

impl<V: Label> std::fmt::Debug for ChainComplex<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainComplex")
            .field("basis", &self.basis)
            .finish()
    }
}

impl<V: Label> ChainComplex<V> {
    /// Builds the chain complex of `k` (all simplexes enumerated once).
    pub fn of(k: &Complex<V>) -> Self {
        let (pool, idc) = k.to_interned();
        let id_basis = idc.all_simplices();
        let basis = id_basis
            .iter()
            .map(|dim| dim.iter().map(|s| pool.resolve_simplex(s)).collect())
            .collect();
        let id_index = id_basis
            .iter()
            .map(|dim| {
                dim.iter()
                    .enumerate()
                    .map(|(i, s)| (s.clone(), i))
                    .collect()
            })
            .collect();
        ChainComplex {
            basis,
            id_basis,
            id_index,
        }
    }

    /// Top dimension, `-1` if void.
    pub fn dim(&self) -> i32 {
        self.basis.len() as i32 - 1
    }

    /// Number of `d`-simplexes (`0` outside range).
    pub fn rank_of_chain_group(&self, d: i32) -> usize {
        if d < 0 || d as usize >= self.basis.len() {
            0
        } else {
            self.basis[d as usize].len()
        }
    }

    fn id_index_of(&self, d: usize, s: &IdSimplex) -> usize {
        *self.id_index[d].get(s).expect("face missing from basis")
    }

    /// The boundary matrix `∂_d` over GF(2); shape `n_{d-1} × n_d`.
    ///
    /// For `d == 0` this is the augmentation map to the empty simplex
    /// (a single row of ones), giving *reduced* homology.
    pub fn boundary_bit(&self, d: i32) -> BitMatrix {
        if d < 0 || d as usize >= self.basis.len() {
            return BitMatrix::zero(self.rank_of_chain_group(d - 1).max(usize::from(d == 0)), 0);
        }
        let d = d as usize;
        let cols = self.basis[d].len();
        if d == 0 {
            // augmentation: every vertex maps to the empty simplex
            let mut m = BitMatrix::zero(1, cols);
            for c in 0..cols {
                m.set(0, c, true);
            }
            return m;
        }
        let rows = self.basis[d - 1].len();
        let mut m = BitMatrix::zero(rows, cols);
        for (c, s) in self.id_basis[d].iter().enumerate() {
            for face in s.boundary_faces() {
                m.set(self.id_index_of(d - 1, &face), c, true);
            }
        }
        m
    }

    /// The boundary matrix `∂_d` over ℤ with signs; shape `n_{d-1} × n_d`.
    ///
    /// As with [`ChainComplex::boundary_bit`], `∂_0` is the augmentation.
    pub fn boundary_int(&self, d: i32) -> IntMatrix {
        if d < 0 || d as usize >= self.basis.len() {
            return IntMatrix::zero(self.rank_of_chain_group(d - 1).max(usize::from(d == 0)), 0);
        }
        let d = d as usize;
        let cols = self.basis[d].len();
        if d == 0 {
            let mut m = IntMatrix::zero(1, cols);
            for c in 0..cols {
                m.set(0, c, 1);
            }
            return m;
        }
        let rows = self.basis[d - 1].len();
        let mut m = IntMatrix::zero(rows, cols);
        for (c, s) in self.id_basis[d].iter().enumerate() {
            for (i, face) in s.boundary_faces().enumerate() {
                let sign = if i % 2 == 0 { 1 } else { -1 };
                m.set(self.id_index_of(d - 1, &face), c, sign);
            }
        }
        m
    }

    /// Checks `∂_{d-1} ∘ ∂_d = 0` over ℤ for every `d` (a structural
    /// self-test used by property tests).
    pub fn verify_boundary_squared_zero(&self) -> bool {
        for d in 1..=self.dim() {
            let a = self.boundary_int(d - 1);
            let b = self.boundary_int(d);
            // multiply a (n_{d-2} x n_{d-1}) * b (n_{d-1} x n_d)
            for i in 0..a.rows() {
                for j in 0..b.cols() {
                    let mut acc: i128 = 0;
                    for t in 0..a.cols() {
                        acc += a.get(i, t) * b.get(t, j);
                    }
                    if acc != 0 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// A map from each simplex to its index within its dimension class.
    pub fn index_map(&self) -> Vec<BTreeMap<Simplex<V>, usize>> {
        self.basis
            .iter()
            .map(|list| {
                list.iter()
                    .enumerate()
                    .map(|(i, s)| (s.clone(), i))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(vs: &[u32]) -> Simplex<u32> {
        Simplex::from_iter(vs.iter().copied())
    }

    #[test]
    fn chain_of_triangle() {
        let c = Complex::simplex(s(&[0, 1, 2]));
        let cc = ChainComplex::of(&c);
        assert_eq!(cc.dim(), 2);
        assert_eq!(cc.rank_of_chain_group(0), 3);
        assert_eq!(cc.rank_of_chain_group(1), 3);
        assert_eq!(cc.rank_of_chain_group(2), 1);
        assert_eq!(cc.rank_of_chain_group(5), 0);
        assert_eq!(cc.rank_of_chain_group(-1), 0);
    }

    #[test]
    fn boundary_of_edge() {
        let c = Complex::simplex(s(&[0, 1]));
        let cc = ChainComplex::of(&c);
        let b1 = cc.boundary_int(1);
        assert_eq!(b1.rows(), 2);
        assert_eq!(b1.cols(), 1);
        // ∂[0,1] = [1] - [0]
        let col: Vec<i128> = (0..2).map(|r| b1.get(r, 0)).collect();
        assert_eq!(col.iter().sum::<i128>(), 0);
        assert_eq!(col.iter().map(|v| v.abs()).sum::<i128>(), 2);
    }

    #[test]
    fn boundary_squared_zero_triangle() {
        let c = Complex::simplex(s(&[0, 1, 2, 3]));
        let cc = ChainComplex::of(&c);
        assert!(cc.verify_boundary_squared_zero());
    }

    #[test]
    fn augmentation_row() {
        let c = Complex::from_facets([s(&[0]), s(&[1]), s(&[2])]);
        let cc = ChainComplex::of(&c);
        let b0 = cc.boundary_bit(0);
        assert_eq!(b0.rows(), 1);
        assert_eq!(b0.cols(), 3);
        assert_eq!(b0.rank(), 1);
    }

    #[test]
    fn bit_and_int_boundaries_have_same_support() {
        let c = Complex::from_facets([s(&[0, 1, 2]), s(&[1, 2, 3]), s(&[2, 3, 4])]);
        let cc = ChainComplex::of(&c);
        for d in 1..=cc.dim() {
            let bb = cc.boundary_bit(d);
            let bi = cc.boundary_int(d);
            for r in 0..bb.rows() {
                for col in 0..bb.cols() {
                    assert_eq!(bb.get(r, col), bi.get(r, col) != 0, "d={d} ({r},{col})");
                }
            }
        }
    }

    #[test]
    fn index_map_roundtrip() {
        let c = Complex::simplex(s(&[0, 1, 2]));
        let cc = ChainComplex::of(&c);
        let maps = cc.index_map();
        for (d, list) in cc.basis.iter().enumerate() {
            for (i, simp) in list.iter().enumerate() {
                assert_eq!(maps[d][simp], i);
            }
        }
    }
}
