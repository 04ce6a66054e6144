//! Reduced simplicial homology over GF(2) and ℤ.
//!
//! Connectivity in the paper (Definition 1) is homotopy-theoretic; for the
//! complexes arising from pseudosphere unions — which are homotopy
//! equivalent to wedges of spheres — a complex is `k`-connected iff its
//! reduced homology vanishes up to dimension `k` and (for `k ≥ 1`) it is
//! simply connected. This module computes the homology side; see
//! [`crate::connectivity`] for the certificates that close the gap.

use crate::chain::ChainComplex;
use crate::parallel;
use crate::prepared::PreparedBoundary;
use crate::{Complex, Label};

/// An integral homology group `ℤ^betti ⊕ ℤ/t_1 ⊕ ... ⊕ ℤ/t_s`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HomologyGroup {
    /// Free rank (Betti number).
    pub betti: usize,
    /// Torsion coefficients, each `> 1`, in divisibility order.
    pub torsion: Vec<i128>,
}

impl HomologyGroup {
    /// The trivial group.
    pub fn trivial() -> Self {
        HomologyGroup {
            betti: 0,
            torsion: Vec::new(),
        }
    }

    /// `true` iff the group is trivial.
    pub fn is_trivial(&self) -> bool {
        self.betti == 0 && self.torsion.is_empty()
    }
}

impl std::fmt::Display for HomologyGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_trivial() {
            return write!(f, "0");
        }
        let mut parts = Vec::new();
        match self.betti {
            0 => {}
            1 => parts.push("Z".to_string()),
            b => parts.push(format!("Z^{b}")),
        }
        for t in &self.torsion {
            parts.push(format!("Z/{t}"));
        }
        write!(f, "{}", parts.join(" ⊕ "))
    }
}

/// The reduced homology of a complex in all dimensions.
///
/// # Examples
///
/// ```
/// use ps_topology::{Complex, Simplex, Homology};
///
/// // Boundary of a tetrahedron ≅ S².
/// let sphere = Complex::simplex(Simplex::from_iter(0..4)).skeleton(2);
/// let h = Homology::reduced(&sphere);
/// assert_eq!(h.betti(0), 0);
/// assert_eq!(h.betti(1), 0);
/// assert_eq!(h.betti(2), 1);
/// assert_eq!(h.homological_connectivity(), 1); // 1-connected, not 2-
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Homology {
    /// `groups[d]` = reduced `H_d`, for `d = 0..=dim`.
    groups: Vec<HomologyGroup>,
    /// Whether the underlying complex was void.
    void: bool,
}

impl Homology {
    /// Computes reduced integral homology of `k` via Smith normal forms.
    ///
    /// This is the exact, torsion-aware path; its dense `IntMatrix`
    /// elimination is cubic and intended for *small* complexes (up to a
    /// few thousand simplexes). For the 10^5-facet protocol complexes,
    /// use [`Homology::betti_mod2`] (sparse GF(2); no torsion) — mod-2
    /// Betti numbers dominate integral ones by universal coefficients,
    /// so they are sound for connectivity refutations.
    ///
    /// Runs on the configured thread count
    /// ([`parallel::configured_threads`]); use
    /// [`Homology::reduced_with_threads`] for explicit control. The
    /// parallel path is byte-identical to the serial one.
    pub fn reduced<V: Label>(k: &Complex<V>) -> Self {
        Self::reduced_with_threads(k, parallel::configured_threads())
    }

    /// [`Homology::reduced`] on up to `threads` threads: the
    /// per-dimension Smith-normal-form jobs are independent and run
    /// concurrently, merged by dimension index, so the result is
    /// byte-identical to `threads = 1`. This is the one explicit thread
    /// count of the homology layer; the sparse GF(2) engine takes none.
    pub fn reduced_with_threads<V: Label>(k: &Complex<V>, threads: usize) -> Self {
        let cc = ChainComplex::of(k);
        let dim = cc.dim();
        if dim < 0 {
            return Homology {
                groups: Vec::new(),
                void: true,
            };
        }
        // ranks[d] = rank over Q of ∂_d for d in 0..=dim+1 ; torsion from SNF
        let dims: Vec<i32> = (0..=dim + 1).collect();
        let snfs = parallel::parallel_map(&dims, threads, |_, &d| {
            cc.boundary_int(d).smith_normal_form()
        });
        let rank: Vec<usize> = snfs.iter().map(|s| s.rank()).collect();
        let torsion: Vec<Vec<i128>> = snfs.iter().map(|s| s.torsion()).collect();
        let mut groups = Vec::new();
        for d in 0..=dim {
            let n_d = cc.rank_of_chain_group(d);
            // reduced: ∂_0 is the augmentation (rank 1 when nonempty)
            let betti = n_d - rank[d as usize] - rank[(d + 1) as usize];
            groups.push(HomologyGroup {
                betti,
                torsion: torsion[(d + 1) as usize].clone(),
            });
        }
        Homology {
            groups,
            void: false,
        }
    }

    /// Computes reduced Betti numbers over GF(2) only (fast path; no
    /// torsion). Index `d` of the result is the reduced `d`-th Betti
    /// number mod 2. Uses the bit-packed low-pivot reduction of
    /// [`crate::sparse_gf2`] via [`PreparedBoundary`] (coboundaries,
    /// bottom-up, with the clearing optimization), which handles the
    /// 10^5-facet protocol complexes the dense engine cannot.
    ///
    /// For repeated queries against one complex — sweeps, bounded
    /// connectivity checks — build a [`PreparedBoundary`] instead and
    /// reuse its cached reductions.
    pub fn betti_mod2<V: Label>(k: &Complex<V>) -> Vec<usize> {
        PreparedBoundary::of_complex(k).betti_mod2()
    }

    /// Dense GF(2) oracle for [`Homology::betti_mod2`]: the same Betti
    /// numbers through `BitMatrix` Gaussian elimination, `O(rows × cols
    /// × words)` per boundary with no sparsity, clearing, or caching.
    ///
    /// This exists purely as an independent implementation for
    /// differential testing (the `homology-equivalence` CI corpus and
    /// the proptest suite diff it against the sparse engine); production
    /// callers must use the sparse path, which is the only one that
    /// survives 10^5-facet complexes.
    pub fn betti_mod2_dense<V: Label>(k: &Complex<V>) -> Vec<usize> {
        let cc = ChainComplex::of(k);
        let dim = cc.dim();
        if dim < 0 {
            return Vec::new();
        }
        let rank: Vec<usize> = (0..=dim + 1).map(|d| cc.boundary_bit(d).rank()).collect();
        (0..=dim)
            .map(|d| cc.rank_of_chain_group(d) - rank[d as usize] - rank[(d + 1) as usize])
            .collect()
    }

    /// `true` iff computed on the void complex.
    pub fn is_void(&self) -> bool {
        self.void
    }

    /// Reduced Betti number in dimension `d` (0 outside range).
    pub fn betti(&self, d: i32) -> usize {
        if d < 0 || d as usize >= self.groups.len() {
            0
        } else {
            self.groups[d as usize].betti
        }
    }

    /// The reduced homology group in dimension `d`.
    pub fn group(&self, d: i32) -> HomologyGroup {
        if d < 0 || d as usize >= self.groups.len() {
            HomologyGroup::trivial()
        } else {
            self.groups[d as usize].clone()
        }
    }

    /// All groups, `d = 0..=dim`.
    pub fn groups(&self) -> &[HomologyGroup] {
        &self.groups
    }

    /// The largest `q` such that reduced `H_d = 0` for all `d ≤ q`
    /// (*homological connectivity*).
    ///
    /// Returns:
    /// * `-2` for the void complex ("only vacuously connected"),
    /// * `-1` for a nonempty but disconnected complex,
    /// * `i32::MAX` when all reduced homology vanishes (homology cannot
    ///   distinguish the complex from a point).
    ///
    /// Under the paper's convention a complex is `k`-connected iff
    /// `homological_connectivity() ≥ k` *and* (for `k ≥ 1`) it is simply
    /// connected; see [`crate::connectivity::ConnectivityAnalyzer`].
    pub fn homological_connectivity(&self) -> i32 {
        if self.void {
            return -2;
        }
        for (d, g) in self.groups.iter().enumerate() {
            if !g.is_trivial() {
                return d as i32 - 1;
            }
        }
        i32::MAX
    }
}

impl std::fmt::Display for Homology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.void {
            return write!(f, "homology of void complex");
        }
        for (d, g) in self.groups.iter().enumerate() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "H~{d} = {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simplex;

    fn s(vs: &[u32]) -> Simplex<u32> {
        Simplex::from_iter(vs.iter().copied())
    }

    #[test]
    fn point_is_acyclic() {
        let c = Complex::simplex(Simplex::vertex(0u32));
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(0), 0);
        assert_eq!(h.homological_connectivity(), i32::MAX);
    }

    #[test]
    fn void_complex_homology() {
        let c = Complex::<u32>::new();
        let h = Homology::reduced(&c);
        assert!(h.is_void());
        assert_eq!(h.homological_connectivity(), -2);
        assert!(Homology::betti_mod2(&c).is_empty());
    }

    #[test]
    fn two_points() {
        let c = Complex::from_facets([s(&[0]), s(&[1])]);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(0), 1); // reduced: one extra component
        assert_eq!(h.homological_connectivity(), -1);
    }

    #[test]
    fn circle() {
        let c = Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[0, 2])]);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(0), 0);
        assert_eq!(h.betti(1), 1);
        assert_eq!(h.homological_connectivity(), 0);
        assert_eq!(Homology::betti_mod2(&c), vec![0, 1]);
    }

    #[test]
    fn solid_triangle_contractible() {
        let c = Complex::simplex(s(&[0, 1, 2]));
        let h = Homology::reduced(&c);
        assert_eq!(h.homological_connectivity(), i32::MAX);
        assert_eq!(Homology::betti_mod2(&c), vec![0, 0, 0]);
    }

    #[test]
    fn sphere_2() {
        let c = Complex::simplex(s(&[0, 1, 2, 3])).skeleton(2);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(0), 0);
        assert_eq!(h.betti(1), 0);
        assert_eq!(h.betti(2), 1);
        assert_eq!(h.group(2).torsion, Vec::<i128>::new());
        assert_eq!(h.homological_connectivity(), 1);
    }

    #[test]
    fn sphere_3() {
        let c = Complex::simplex(Simplex::from_iter(0u32..5)).skeleton(3);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(3), 1);
        assert_eq!(h.homological_connectivity(), 2);
    }

    #[test]
    fn wedge_of_two_circles() {
        let c = Complex::from_facets([
            s(&[0, 1]),
            s(&[1, 2]),
            s(&[0, 2]),
            s(&[0, 3]),
            s(&[3, 4]),
            s(&[0, 4]),
        ]);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(1), 2);
        assert_eq!(h.betti(0), 0);
    }

    #[test]
    fn torus_homology() {
        // Möbius's 7-vertex torus: triangles {i, i+1, i+3} and
        // {i, i+2, i+3} mod 7. 7 vertices, 21 edges (= K7), 14 triangles.
        let mut facets = Vec::new();
        for i in 0u32..7 {
            facets.push(Simplex::from_iter([i, (i + 1) % 7, (i + 3) % 7]));
            facets.push(Simplex::from_iter([i, (i + 2) % 7, (i + 3) % 7]));
        }
        let c = Complex::from_facets(facets);
        assert_eq!(c.f_vector(), vec![7, 21, 14]);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(0), 0, "{h}");
        assert_eq!(h.betti(1), 2, "{h}");
        assert_eq!(h.betti(2), 1, "{h}");
        assert_eq!(c.euler_characteristic(), 0);
    }

    #[test]
    fn projective_plane_torsion() {
        // The minimal 6-vertex triangulation RP²_6 (antipodal quotient of
        // the icosahedron); its 1-skeleton is the complete graph K6.
        let rp2: [[u32; 3]; 10] = [
            [1, 2, 5],
            [1, 2, 6],
            [1, 3, 4],
            [1, 3, 6],
            [1, 4, 5],
            [2, 3, 4],
            [2, 3, 5],
            [2, 4, 6],
            [3, 5, 6],
            [4, 5, 6],
        ];
        let c = Complex::from_facets(rp2.iter().map(|f| Simplex::from_iter(f.iter().copied())));
        assert_eq!(c.euler_characteristic(), 1);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(1), 0, "{h}");
        assert_eq!(h.group(1).torsion, vec![2], "{h}");
        assert_eq!(h.betti(2), 0, "{h}");
        // Over GF(2), RP^2 has betti_1 = betti_2 = 1.
        assert_eq!(Homology::betti_mod2(&c), vec![0, 1, 1]);
    }

    #[test]
    fn display_formats() {
        let g = HomologyGroup {
            betti: 2,
            torsion: vec![2, 4],
        };
        assert_eq!(g.to_string(), "Z^2 ⊕ Z/2 ⊕ Z/4");
        assert_eq!(HomologyGroup::trivial().to_string(), "0");
        assert_eq!(
            HomologyGroup {
                betti: 1,
                torsion: vec![]
            }
            .to_string(),
            "Z"
        );
    }

    #[test]
    fn thread_count_does_not_change_homology() {
        // torus: non-trivial Betti numbers in three dimensions
        let mut facets = Vec::new();
        for i in 0u32..7 {
            facets.push(Simplex::from_iter([i, (i + 1) % 7, (i + 3) % 7]));
            facets.push(Simplex::from_iter([i, (i + 2) % 7, (i + 3) % 7]));
        }
        let c = Complex::from_facets(facets);
        let serial = Homology::reduced_with_threads(&c, 1);
        for threads in [2, 4, 16] {
            let par = Homology::reduced_with_threads(&c, threads);
            assert_eq!(par.groups(), serial.groups(), "threads = {threads}");
        }
    }

    #[test]
    fn dense_oracle_matches_sparse_engine() {
        let mut torus_facets = Vec::new();
        for i in 0u32..7 {
            torus_facets.push(Simplex::from_iter([i, (i + 1) % 7, (i + 3) % 7]));
            torus_facets.push(Simplex::from_iter([i, (i + 2) % 7, (i + 3) % 7]));
        }
        for c in [
            Complex::<u32>::new(),
            Complex::simplex(s(&[0, 1, 2, 3])).skeleton(2),
            Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[0, 2])]),
            Complex::from_facets([s(&[0]), s(&[1])]),
            Complex::from_facets(torus_facets),
        ] {
            assert_eq!(
                Homology::betti_mod2(&c),
                Homology::betti_mod2_dense(&c),
                "{c:?}"
            );
        }
    }

    #[test]
    fn mod2_matches_integral_when_torsion_free() {
        let sphere = Complex::simplex(s(&[0, 1, 2, 3])).skeleton(2);
        let h = Homology::reduced(&sphere);
        let b2 = Homology::betti_mod2(&sphere);
        for d in 0..=sphere.dim() {
            assert_eq!(h.betti(d), b2[d as usize]);
        }
    }
}
