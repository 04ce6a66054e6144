//! Property-based tests (proptest) on the core invariants:
//! chain-complex identities, Euler/Betti consistency, pseudosphere
//! formulas vs. realizations, prover soundness, solver/verify agreement,
//! subdivision invariance, and isomorphism under relabeling.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use pseudosphere::agreement::DecisionMapSolver;
use pseudosphere::core::{process_simplex, MvProver, ProcessId, Pseudosphere, PseudosphereUnion};
use pseudosphere::topology::{
    are_isomorphic, barycentric_subdivision, is_shellable, nerve, ChainComplex, Complex,
    ConnectivityAnalyzer, Homology, PreparedBoundary, Simplex,
};

/// A random small complex over vertices `0..max_vert`.
fn arb_complex(max_vert: u32, max_facets: usize) -> impl Strategy<Value = Complex<u32>> {
    prop::collection::vec(
        prop::collection::btree_set(0..max_vert, 1..=4usize),
        1..=max_facets,
    )
    .prop_map(|facets| Complex::from_facets(facets.into_iter().map(Simplex::from_iter)))
}

/// A random family assignment over `n` processes with values `0..3`.
fn arb_families(n: usize) -> impl Strategy<Value = BTreeMap<ProcessId, BTreeSet<u8>>> {
    prop::collection::vec(prop::collection::btree_set(0u8..3, 0..=3usize), n).prop_map(
        move |fams| {
            fams.into_iter()
                .enumerate()
                .map(|(i, f)| (ProcessId(i as u32), f))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn boundary_squared_is_zero(c in arb_complex(7, 6)) {
        let cc = ChainComplex::of(&c);
        prop_assert!(cc.verify_boundary_squared_zero());
    }

    #[test]
    fn euler_equals_alternating_betti(c in arb_complex(7, 6)) {
        // unreduced: χ = Σ (-1)^d b_d ; reduced homology shifts b_0 by 1
        let h = Homology::reduced(&c);
        let mut alt = 1i64; // the reduced b_0 is components - 1
        for d in 0..=c.dim() {
            let b = h.betti(d) as i64;
            alt += if d % 2 == 0 { b } else { -b };
        }
        prop_assert_eq!(alt, c.euler_characteristic());
    }

    #[test]
    fn mod2_betti_at_least_integral(c in arb_complex(6, 5)) {
        // universal coefficients: b_d(Z/2) ≥ b_d(Z)
        let h = Homology::reduced(&c);
        let b2 = Homology::betti_mod2(&c);
        for d in 0..=c.dim() {
            prop_assert!(b2[d as usize] >= h.betti(d));
        }
    }

    #[test]
    fn union_intersection_euler_inclusion_exclusion(
        a in arb_complex(6, 4),
        b in arb_complex(6, 4),
    ) {
        let u = a.union(&b);
        let i = a.intersection(&b);
        prop_assert_eq!(
            u.euler_characteristic() + i.euler_characteristic(),
            a.euler_characteristic() + b.euler_characteristic()
        );
    }

    #[test]
    fn skeleton_is_idempotent_and_monotone(c in arb_complex(7, 6), k in 0i32..4) {
        let sk = c.skeleton(k);
        prop_assert_eq!(sk.skeleton(k).clone(), sk.clone());
        prop_assert!(sk.dim() <= k);
        for f in sk.facets() {
            prop_assert!(c.contains(f));
        }
    }

    #[test]
    fn subdivision_preserves_euler_and_betti(c in arb_complex(6, 4)) {
        let sd = barycentric_subdivision(&c);
        prop_assert_eq!(sd.euler_characteristic(), c.euler_characteristic());
        let h = Homology::reduced(&c);
        let hs = Homology::reduced(&sd);
        for d in 0..=c.dim() {
            prop_assert_eq!(hs.betti(d), h.betti(d), "dim {}", d);
        }
    }

    #[test]
    fn relabeled_complexes_are_isomorphic(c in arb_complex(6, 5), offset in 10u32..50) {
        let d = c.map(|v| v + offset);
        prop_assert!(are_isomorphic(&c, &d));
    }

    #[test]
    fn pseudosphere_counts_match_realization(families in arb_families(3)) {
        let base = process_simplex(3);
        let ps = Pseudosphere::new(base, families).unwrap();
        let c = ps.realize();
        prop_assert_eq!(c.facet_count() as u128, ps.facet_count());
        prop_assert_eq!(c.vertex_count(), ps.vertex_count());
        prop_assert_eq!(c.dim(), ps.dim());
    }

    #[test]
    fn pseudosphere_wedge_size_is_top_betti(families in arb_families(3)) {
        let base = process_simplex(3);
        let ps = Pseudosphere::new(base, families).unwrap();
        prop_assume!(!ps.is_void());
        let h = Homology::reduced(&ps.realize());
        prop_assert_eq!(h.betti(ps.dim()) as u128, ps.wedge_size());
    }

    #[test]
    fn lemma4_intersection_symbolic_matches_explicit(
        fam_a in arb_families(3),
        fam_b in arb_families(3),
    ) {
        let base = process_simplex(3);
        let a = Pseudosphere::new(base.clone(), fam_a).unwrap();
        let b = Pseudosphere::new(base, fam_b).unwrap();
        let sym = a.intersect(&b).realize();
        let exp = a.realize().intersection(&b.realize());
        prop_assert_eq!(sym, exp);
    }

    #[test]
    fn pseudosphere_connectivity_formula_matches_homology(families in arb_families(3)) {
        let base = process_simplex(3);
        let ps = Pseudosphere::new(base, families).unwrap();
        let claimed = ps.connectivity();
        let an = ConnectivityAnalyzer::new(&ps.realize());
        if claimed == i32::MAX {
            prop_assert_eq!(an.connectivity(), i32::MAX);
        } else {
            prop_assert_eq!(an.connectivity(), claimed);
        }
    }

    #[test]
    fn prover_is_sound(
        fam_a in arb_families(3),
        fam_b in arb_families(3),
        k in -2i32..2,
    ) {
        let base = process_simplex(3);
        let union: PseudosphereUnion<ProcessId, u8> = [
            Pseudosphere::new(base.clone(), fam_a).unwrap(),
            Pseudosphere::new(base, fam_b).unwrap(),
        ].into_iter().collect();
        if MvProver::new().prove_k_connected(&union, k).is_ok() {
            let an = ConnectivityAnalyzer::new(&union.realize());
            prop_assert!(an.is_k_connected(k).is_yes(),
                "prover overclaimed {}-connectivity", k);
        }
    }

    #[test]
    fn solver_solutions_always_verify(c in arb_complex(6, 5), k in 1usize..3) {
        let allowed = |v: &u32| -> BTreeSet<u64> {
            [u64::from(*v % 2), 2].into_iter().collect()
        };
        let mut solver = DecisionMapSolver::new();
        if let Some(map) = solver.solve(&c, allowed, k) {
            prop_assert!(DecisionMapSolver::verify(&c, &map, allowed, k));
        } else {
            // exhaustive: with value 2 allowed everywhere, k >= 1 is
            // always solvable by the constant map — None must not happen
            prop_assert!(false, "constant map missed");
        }
    }

    #[test]
    fn solver_none_means_no_constant_works(c in arb_complex(5, 4)) {
        // with disjoint singleton domains per vertex parity and k = 1,
        // solvability coincides with no facet mixing parities
        let allowed = |v: &u32| -> BTreeSet<u64> { [u64::from(*v % 2)].into_iter().collect() };
        let mixing = c.facets().any(|f| {
            let parities: BTreeSet<u32> = f.vertices().iter().map(|v| v % 2).collect();
            parities.len() > 1
        });
        let mut solver = DecisionMapSolver::new();
        let solved = solver.solve(&c, allowed, 1).is_some();
        prop_assert_eq!(solved, !mixing);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shellable_pure_complexes_have_wedge_homology(families in arb_families(3)) {
        // pseudospheres are joins of discrete sets, hence shellable when
        // pure of dim ≥ 1; shelling implies reduced homology concentrated
        // in the top dimension.
        let base = process_simplex(3);
        let ps = Pseudosphere::new(base, families).unwrap();
        prop_assume!(!ps.is_void() && ps.dim() >= 1);
        let c = ps.realize();
        prop_assume!(c.facet_count() <= 12); // keep the shelling search fast
        prop_assert!(is_shellable(&c), "pseudosphere not shellable: {:?}", ps);
        let h = Homology::reduced(&c);
        for d in 0..ps.dim() {
            prop_assert_eq!(h.betti(d), 0, "nonzero H~{} on shellable complex", d);
        }
    }

    #[test]
    fn sparse_and_dense_boundary_ranks_agree(c in arb_complex(7, 6)) {
        let cc = ChainComplex::of(&c);
        let mut pb = PreparedBoundary::of_complex(&c);
        for d in 0..=cc.dim() + 1 {
            prop_assert_eq!(pb.rank(d), cc.boundary_bit(d).rank(), "dim {}", d);
        }
    }

    #[test]
    fn nerve_vertex_count_matches_live_members(
        a in arb_complex(5, 3),
        b in arb_complex(5, 3),
        c in arb_complex(5, 3),
    ) {
        let members = [a, b, c];
        let n = nerve(&members);
        let live = members.iter().filter(|m| !m.is_void()).count();
        prop_assert_eq!(n.vertex_count(), live);
        // nerve edges correspond exactly to pairwise nonempty intersections
        for i in 0..3usize {
            for j in (i + 1)..3 {
                if members[i].is_void() || members[j].is_void() {
                    continue;
                }
                let has_edge = n.contains(&Simplex::from_iter([i, j]));
                let intersects = !members[i].intersection(&members[j]).is_void();
                prop_assert_eq!(has_edge, intersects, "pair ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn union_connectivity_never_below_mv_proof(
        fam_a in arb_families(2),
        fam_b in arb_families(2),
    ) {
        // smaller base: exhaustive k sweep with π₁ certificates
        let base = process_simplex(2);
        let union: PseudosphereUnion<ProcessId, u8> = [
            Pseudosphere::new(base.clone(), fam_a).unwrap(),
            Pseudosphere::new(base, fam_b).unwrap(),
        ].into_iter().collect();
        for k in -1..=1i32 {
            if MvProver::new().prove_k_connected(&union, k).is_ok() {
                let an = ConnectivityAnalyzer::new(&union.realize());
                prop_assert!(an.is_k_connected(k).is_yes());
            }
        }
    }
}
