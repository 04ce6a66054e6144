//! Exact linear algebra for homology computation.
//!
//! Two engines back the [`Homology`](crate::Homology) computations:
//!
//! * [`BitMatrix`] — dense GF(2) matrices with 64-bit word rows; rank via
//!   Gaussian elimination. Fast path for Betti numbers mod 2.
//! * [`IntMatrix`] — arbitrary-precision-free integer matrices with Smith
//!   normal form over ℤ (entries are `i128` internally with overflow
//!   checks); yields ranks *and* torsion coefficients for integral homology.

use std::fmt;

/// A dense matrix over GF(2), rows packed into 64-bit words.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64).max(1);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.words_per_row + c / 64] & (1u64 << (c % 64)) != 0
    }

    /// Sets entry `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        debug_assert!(r < self.rows && c < self.cols, "index out of range");
        let w = &mut self.data[r * self.words_per_row + c / 64];
        if value {
            *w |= 1u64 << (c % 64);
        } else {
            *w &= !(1u64 << (c % 64));
        }
    }

    fn row_words(&self, r: usize) -> &[u64] {
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// XORs row `src` into row `dst`.
    fn xor_rows(&mut self, dst: usize, src: usize) {
        let (a, b) = (dst * self.words_per_row, src * self.words_per_row);
        for i in 0..self.words_per_row {
            let v = self.data[b + i];
            self.data[a + i] ^= v;
        }
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for i in 0..self.words_per_row {
            self.data
                .swap(a * self.words_per_row + i, b * self.words_per_row + i);
        }
    }

    /// Rank over GF(2), by in-place Gaussian elimination on a copy.
    ///
    /// **Oracle only.** This clones and mutates the full dense matrix —
    /// `O(rows × cols)` memory and `O(rows × cols × words)` time — which
    /// is exactly what makes it untenable on 10^5-column boundary
    /// matrices. Production rank queries go through
    /// [`crate::sparse_gf2::SparseGf2Matrix`]; the dense path is kept
    /// reachable (here and via [`crate::Homology::betti_mod2_dense`])
    /// as an independent implementation for differential testing.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        for c in 0..m.cols {
            // find pivot at or below `rank`
            let mut pivot = None;
            for r in rank..m.rows {
                if m.get(r, c) {
                    pivot = Some(r);
                    break;
                }
            }
            let Some(p) = pivot else { continue };
            m.swap_rows(rank, p);
            for r in 0..m.rows {
                if r != rank && m.get(r, c) {
                    m.xor_rows(r, rank);
                }
            }
            rank += 1;
            if rank == m.rows {
                break;
            }
        }
        rank
    }

    /// `true` iff every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&w| w == 0)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.rows, self.cols)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            if self.row_words(r).is_empty() {
                // unreachable; keeps clippy quiet about unused helper
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A dense integer matrix supporting Smith normal form.
#[derive(Clone, PartialEq, Eq)]
pub struct IntMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i128>,
}

/// The outcome of a Smith-normal-form computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmithForm {
    /// Non-zero diagonal entries `d_1 | d_2 | ... | d_r`, all positive.
    pub invariant_factors: Vec<i128>,
}

impl SmithForm {
    /// Rank of the matrix over ℚ (number of non-zero invariant factors).
    pub fn rank(&self) -> usize {
        self.invariant_factors.len()
    }

    /// The invariant factors strictly greater than 1 (torsion coefficients
    /// when this is a boundary matrix).
    pub fn torsion(&self) -> Vec<i128> {
        self.invariant_factors
            .iter()
            .copied()
            .filter(|&d| d > 1)
            .collect()
    }
}

impl IntMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        IntMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Builds from a row-major nested array (for tests).
    pub fn from_rows(rows: &[&[i64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = IntMatrix::zero(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v as i128);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> i128 {
        self.data[r * self.cols + c]
    }

    /// Sets entry `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: i128) {
        self.data[r * self.cols + c] = v;
    }

    /// `true` iff every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for i in 0..self.rows {
            self.data.swap(i * self.cols + a, i * self.cols + b);
        }
    }

    /// `row[a] += q * row[b]`
    fn add_row(&mut self, a: usize, b: usize, q: i128) {
        for j in 0..self.cols {
            let v = self.get(b, j).checked_mul(q).expect("overflow in SNF");
            let w = self.get(a, j).checked_add(v).expect("overflow in SNF");
            self.set(a, j, w);
        }
    }

    /// `col[a] += q * col[b]`
    fn add_col(&mut self, a: usize, b: usize, q: i128) {
        for i in 0..self.rows {
            let v = self.get(i, b).checked_mul(q).expect("overflow in SNF");
            let w = self.get(i, a).checked_add(v).expect("overflow in SNF");
            self.set(i, a, w);
        }
    }

    fn negate_row(&mut self, a: usize) {
        for j in 0..self.cols {
            let v = self.get(a, j);
            self.set(a, j, -v);
        }
    }

    /// Computes the Smith normal form.
    ///
    /// Returns the positive invariant factors `d_1 | d_2 | ...`.
    ///
    /// # Panics
    ///
    /// Panics on intermediate overflow beyond `i128` (does not occur for
    /// the boundary matrices in this crate, whose entries are ±1).
    pub fn smith_normal_form(&self) -> SmithForm {
        let mut m = self.clone();
        let mut t = 0; // current pivot index
        let bound = m.rows.min(m.cols);
        while t < bound {
            // Find a non-zero entry with minimal absolute value in the
            // remaining submatrix, move it to (t, t).
            let mut best: Option<(usize, usize)> = None;
            for i in t..m.rows {
                for j in t..m.cols {
                    let v = m.get(i, j).unsigned_abs();
                    if v != 0 && best.is_none_or(|(bi, bj)| v < m.get(bi, bj).unsigned_abs()) {
                        best = Some((i, j));
                    }
                }
            }
            let Some((pi, pj)) = best else { break };
            m.swap_rows(t, pi);
            m.swap_cols(t, pj);
            if m.get(t, t) < 0 {
                m.negate_row(t);
            }

            // Eliminate the pivot row and column; restart if a remainder
            // smaller than the pivot appears (standard SNF loop).
            let mut clean = true;
            for i in (t + 1)..m.rows {
                let v = m.get(i, t);
                if v != 0 {
                    let q = v.div_euclid(m.get(t, t));
                    m.add_row(i, t, -q);
                    if m.get(i, t) != 0 {
                        clean = false;
                    }
                }
            }
            for j in (t + 1)..m.cols {
                let v = m.get(t, j);
                if v != 0 {
                    let q = v.div_euclid(m.get(t, t));
                    m.add_col(j, t, -q);
                    if m.get(t, j) != 0 {
                        clean = false;
                    }
                }
            }
            if !clean {
                continue; // smaller remainders now exist; re-pick pivot
            }

            // Divisibility pass: ensure pivot divides all remaining entries.
            let p = m.get(t, t);
            let mut fixed = true;
            'scan: for i in (t + 1)..m.rows {
                for j in (t + 1)..m.cols {
                    if m.get(i, j) % p != 0 {
                        // fold that row into row t and redo this pivot
                        m.add_row(t, i, 1);
                        fixed = false;
                        break 'scan;
                    }
                }
            }
            if fixed {
                t += 1;
            }
        }
        let mut factors: Vec<i128> = (0..bound)
            .map(|i| m.get(i, i).abs())
            .filter(|&d| d != 0)
            .collect();
        factors.sort_unstable();
        SmithForm {
            invariant_factors: factors,
        }
    }

    /// Rank over ℚ (via SNF).
    pub fn rank(&self) -> usize {
        self.smith_normal_form().rank()
    }
}

impl fmt::Debug for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IntMatrix({}x{})", self.rows, self.cols)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:4}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmatrix_basic() {
        let mut m = BitMatrix::zero(3, 70);
        assert!(m.is_zero());
        m.set(0, 0, true);
        m.set(1, 65, true);
        m.set(2, 0, true);
        m.set(2, 65, true);
        assert!(m.get(0, 0));
        assert!(m.get(1, 65));
        assert!(!m.get(0, 1));
        // row2 = row0 + row1 -> rank 2
        assert_eq!(m.rank(), 2);
        m.set(2, 30, true);
        assert_eq!(m.rank(), 3);
    }

    #[test]
    fn bitmatrix_rank_identity() {
        let mut m = BitMatrix::zero(5, 5);
        for i in 0..5 {
            m.set(i, i, true);
        }
        assert_eq!(m.rank(), 5);
    }

    #[test]
    fn bitmatrix_rank_zero_and_unset() {
        let m = BitMatrix::zero(4, 4);
        assert_eq!(m.rank(), 0);
        let mut m2 = BitMatrix::zero(2, 2);
        m2.set(0, 0, true);
        m2.set(0, 0, false);
        assert!(m2.is_zero());
    }

    #[test]
    fn snf_identity() {
        let m = IntMatrix::from_rows(&[&[1, 0], &[0, 1]]);
        let s = m.smith_normal_form();
        assert_eq!(s.invariant_factors, vec![1, 1]);
        assert_eq!(s.rank(), 2);
        assert!(s.torsion().is_empty());
    }

    #[test]
    fn snf_diag_2_6() {
        // diag(2,6) is already in SNF since 2 | 6
        let m = IntMatrix::from_rows(&[&[2, 0], &[0, 6]]);
        assert_eq!(m.smith_normal_form().invariant_factors, vec![2, 6]);
    }

    #[test]
    fn snf_needs_divisibility_fix() {
        // diag(2,3): SNF is diag(1,6)
        let m = IntMatrix::from_rows(&[&[2, 0], &[0, 3]]);
        assert_eq!(m.smith_normal_form().invariant_factors, vec![1, 6]);
    }

    #[test]
    fn snf_classic_example() {
        let m = IntMatrix::from_rows(&[&[2, 4, 4], &[-6, 6, 12], &[10, 4, 16]]);
        let s = m.smith_normal_form();
        assert_eq!(s.invariant_factors, vec![2, 2, 156]);
    }

    #[test]
    fn snf_rectangular_and_rank_deficient() {
        let m = IntMatrix::from_rows(&[&[1, 2, 3], &[2, 4, 6]]);
        let s = m.smith_normal_form();
        assert_eq!(s.rank(), 1);
        assert_eq!(s.invariant_factors, vec![1]);
    }

    #[test]
    fn snf_zero_matrix() {
        let m = IntMatrix::zero(3, 4);
        assert!(m.is_zero());
        assert_eq!(m.rank(), 0);
        assert!(m.smith_normal_form().invariant_factors.is_empty());
    }

    #[test]
    fn snf_torsion_of_projective_plane_boundary() {
        // The mod-2 torsion of RP^2 arises from a boundary matrix whose SNF
        // contains a factor 2; emulate with a small matrix known to give it.
        let m = IntMatrix::from_rows(&[&[2]]);
        assert_eq!(m.smith_normal_form().torsion(), vec![2]);
    }

    #[test]
    fn int_rank_matches_bit_rank_on_odd_entries() {
        // For a ±1 matrix with odd determinant the GF(2) and ℚ ranks agree.
        let m = IntMatrix::from_rows(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        // det = 2, so ranks differ: rank_Q = 3, rank_2 = 2.
        assert_eq!(m.rank(), 3);
        let mut b = BitMatrix::zero(3, 3);
        for (i, row) in [[1, 1, 0], [0, 1, 1], [1, 0, 1]].iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                b.set(i, j, v == 1);
            }
        }
        assert_eq!(b.rank(), 2);
    }
}
