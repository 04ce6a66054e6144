//! The synchronous round structure (§7).
//!
//! In each synchronous round every process broadcasts; a crashing process
//! reaches an arbitrary subset of the others before stopping, then
//! disappears. For a fixed failure set `K`, Lemma 14 identifies the
//! one-round complex with a pseudosphere:
//!
//! ```text
//! S¹_K(Sⁿ) ≅ ψ(Sⁿ\K; 2^K)
//! ```
//!
//! — each survivor hears all survivors plus an independent subset of `K`.
//! The full one-round complex `S¹(Sⁿ)` is the union over all `K` with
//! `|K| ≤ k` (Figure 3 shows the 3-process, 1-failure instance), the
//! intersections of the members are again unions of pseudospheres
//! (Lemma 15), and iterating with a per-round budget yields `S^r`
//! (Lemmas 16–17, feeding the Theorem 18 round lower bound).

use std::collections::BTreeSet;

use ps_core::{subsets_up_to_size_lex, ProcessId, Pseudosphere, PseudosphereUnion};
use ps_topology::{for_each_product, Complex, InternedBuilder, Label, Simplex};

use crate::view::{input_views, InputSimplex, View};

/// Parameters of the synchronous model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncModel {
    /// Total number of processes `n + 1`.
    pub n_plus_1: usize,
    /// Per-round failure cap `k` ("no more than k processes fail in any
    /// round", §7).
    pub k_per_round: usize,
    /// Total failure budget `f` across all rounds.
    pub f_total: usize,
}

impl SyncModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `n_plus_1 == 0`.
    pub fn new(n_plus_1: usize, k_per_round: usize, f_total: usize) -> Self {
        assert!(n_plus_1 > 0, "need at least one process");
        SyncModel {
            n_plus_1,
            k_per_round,
            f_total,
        }
    }

    /// Lemma 14: the symbolic pseudosphere `S¹_K(input) ≅ ψ(input\K; 2^K)`
    /// in *heard-set coordinates*: the family of each survivor is
    /// `{ survivors ∪ L : L ⊆ K }`, so that members for different `K`
    /// share vertices exactly as in Figure 3.
    pub fn one_round_failure_pseudosphere<I: Label>(
        &self,
        input: &InputSimplex<I>,
        failure_set: &BTreeSet<ProcessId>,
    ) -> Pseudosphere<ProcessId, BTreeSet<ProcessId>> {
        let participants: BTreeSet<ProcessId> = input.vertices().iter().map(|(p, _)| *p).collect();
        let survivors: BTreeSet<ProcessId> = participants
            .iter()
            .copied()
            .filter(|p| !failure_set.contains(p))
            .collect();
        let base = Simplex::new(survivors.iter().copied().collect());
        let fail_in: BTreeSet<ProcessId> = failure_set
            .iter()
            .copied()
            .filter(|p| participants.contains(p))
            .collect();
        let family: BTreeSet<BTreeSet<ProcessId>> = subsets_up_to_size_lex(&fail_in, fail_in.len())
            .into_iter()
            .map(|l| survivors.union(&l).copied().collect())
            .collect();
        let families = survivors.iter().map(|p| (*p, family.clone())).collect();
        Pseudosphere::new(base, families).expect("families cover base")
    }

    /// The one-round complex `S¹(input)` as the lexicographically ordered
    /// union of the Lemma 14 pseudospheres over all `K` with `|K| ≤ k`.
    pub fn one_round_union<I: Label>(
        &self,
        input: &InputSimplex<I>,
    ) -> PseudosphereUnion<ProcessId, BTreeSet<ProcessId>> {
        let participants: BTreeSet<ProcessId> = input.vertices().iter().map(|(p, _)| *p).collect();
        let cap = self.k_per_round.min(self.f_total);
        subsets_up_to_size_lex(&participants, cap)
            .into_iter()
            .map(|k| self.one_round_failure_pseudosphere(input, &k))
            .collect()
    }

    /// Lemma 15's right-hand side for the member indexed by `failure_set`:
    /// `∪_{P ∈ K} ψ(input\K; 2^{K−{P}})` — the intersection of `S¹_K`
    /// with the union of all lexicographically earlier members.
    ///
    /// The paper labels vertices with the *missed* set `K − ids(M)`; the
    /// member for `P` collects executions whose missed sets avoid `P`,
    /// i.e. in heard-set coordinates every survivor's heard set
    /// *contains* `P`.
    pub fn lemma15_rhs<I: Label>(
        &self,
        input: &InputSimplex<I>,
        failure_set: &BTreeSet<ProcessId>,
    ) -> PseudosphereUnion<ProcessId, BTreeSet<ProcessId>> {
        failure_set
            .iter()
            .map(|p| {
                let mut rest = failure_set.clone();
                rest.remove(p);
                let participants: BTreeSet<ProcessId> =
                    input.vertices().iter().map(|(q, _)| *q).collect();
                let survivors: BTreeSet<ProcessId> = participants
                    .iter()
                    .copied()
                    .filter(|q| !failure_set.contains(q))
                    .collect();
                let base = Simplex::new(survivors.iter().copied().collect());
                // heard = survivors ∪ {P} ∪ L with L ⊆ K − {P}
                let family: BTreeSet<BTreeSet<ProcessId>> =
                    subsets_up_to_size_lex(&rest, rest.len())
                        .into_iter()
                        .map(|l| {
                            let mut heard: BTreeSet<ProcessId> =
                                survivors.union(&l).copied().collect();
                            heard.insert(*p);
                            heard
                        })
                        .collect();
                let families = survivors.iter().map(|q| (*q, family.clone())).collect();
                Pseudosphere::new(base, families).expect("families cover base")
            })
            .collect()
    }

    /// The explicit one-round protocol complex with view labels.
    pub fn one_round_complex<I: Label>(&self, input: &InputSimplex<I>) -> Complex<View<I>> {
        self.protocol_complex(input, 1)
    }

    /// The explicit `r`-round protocol complex `S^r(input)`: in each round
    /// a set `K` of at most `min(k, remaining budget)` processes crashes;
    /// each survivor hears all survivors plus an independent subset of
    /// `K`; crashed processes disappear from subsequent rounds.
    pub fn protocol_complex<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
    ) -> Complex<View<I>> {
        // The whole execution tree accumulates into one interned
        // builder: every view is interned once at creation and facet
        // absorption across branches runs on ids.
        let mut out = InternedBuilder::new();
        self.protocol_complex_into(input, rounds, &mut out);
        out.finish()
    }

    /// Accumulates `S^r(input)` into a caller-supplied interned builder,
    /// so the execution trees of many input faces share one vertex pool
    /// and one facet anti-chain (the task-complex builders in
    /// `ps-agreement` union dozens of faces this way without ever
    /// materializing a per-face label complex).
    pub fn protocol_complex_into<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
        out: &mut InternedBuilder<View<I>>,
    ) {
        self.rec_into(&input_views(input), self.f_total, rounds, out);
    }

    fn rec_into<I: Label>(
        &self,
        state: &Simplex<View<I>>,
        budget: usize,
        rounds: usize,
        out: &mut InternedBuilder<View<I>>,
    ) {
        if state.is_empty() {
            return;
        }
        if rounds == 0 {
            out.add_facet(state);
            return;
        }
        let ids: BTreeSet<ProcessId> = state.vertices().iter().map(|v| v.process()).collect();
        let cap = self.k_per_round.min(budget);
        for failure_set in subsets_up_to_size_lex(&ids, cap) {
            let options = self.round_options(state, &failure_set);
            if rounds == 1 {
                out.add_pseudosphere(options);
            } else {
                for_each_product(&options, |facet| {
                    let next = Simplex::new(facet.iter().map(|v| (*v).clone()).collect());
                    self.rec_into(&next, budget - failure_set.len(), rounds - 1, out);
                });
            }
        }
    }

    /// One synchronous round on a simplex of views with failure set `K`,
    /// as the slots of the pseudosphere `ψ(state\K; 2^K)`: per survivor
    /// in process order, its end-of-round views (it hears all survivors
    /// plus any subset of `K`), sorted.
    fn round_options<I: Label>(
        &self,
        state: &Simplex<View<I>>,
        failure_set: &BTreeSet<ProcessId>,
    ) -> Vec<Vec<View<I>>> {
        let (survivors, failed): (Vec<&View<I>>, Vec<&View<I>>) = state
            .vertices()
            .iter()
            .partition(|v| !failure_set.contains(&v.process()));
        let survivor_ids: BTreeSet<ProcessId> = survivors.iter().map(|v| v.process()).collect();
        let fail_in: BTreeSet<ProcessId> = failed.iter().map(|v| v.process()).collect();
        // Views of one process sort by heard set (their heard maps agree
        // on every common key), so sorting the heard sets sorts the views.
        let heard_sets: BTreeSet<BTreeSet<ProcessId>> =
            subsets_up_to_size_lex(&fail_in, fail_in.len())
                .into_iter()
                .map(|l| survivor_ids.union(&l).copied().collect())
                .collect();
        let view_of = |p: &ProcessId| -> &View<I> {
            state.vertices().iter().find(|v| v.process() == *p).unwrap()
        };
        survivors
            .iter()
            .map(|v| {
                heard_sets
                    .iter()
                    .map(|heard| View::Round {
                        process: v.process(),
                        heard: heard.iter().map(|q| (*q, view_of(q).clone())).collect(),
                    })
                    .collect()
            })
            .collect()
    }

    /// Lemma 16/17's claimed connectivity of `S^r(S^m)`:
    /// `m - (n - k) - 1`, valid when `n ≥ rk + k`.
    pub fn claimed_connectivity(&self, m: i32) -> i32 {
        m - (self.n_plus_1 as i32 - 1 - self.k_per_round as i32) - 1
    }

    /// The hypothesis `n ≥ rk + k` of Lemma 17.
    pub fn lemma17_applies(&self, rounds: usize) -> bool {
        self.n_plus_1 as i32 > (rounds as i32 + 1) * self.k_per_round as i32
    }

    /// Theorem 18's round lower bound for `k`-set agreement with `f`
    /// failures: `⌊f/k⌋ + 1` when `n > f + k`, else `⌊f/k⌋`.
    pub fn theorem18_round_bound(n: usize, f: usize, k: usize) -> usize {
        if n > f + k {
            f / k + 1
        } else {
            f / k
        }
    }

    /// The fully **symbolic** form of `S^r(input)`: one pseudosphere per
    /// (execution prefix, final-round failure set) pair, in the §7
    /// enumeration order. Realizing the union equals
    /// [`SyncModel::protocol_complex`].
    pub fn symbolic_protocol_union<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
    ) -> PseudosphereUnion<ProcessId, View<I>> {
        let mut union = PseudosphereUnion::new();
        self.symbolic_rec(&input_views(input), self.f_total, rounds, &mut union);
        union
    }

    fn symbolic_rec<I: Label>(
        &self,
        state: &Simplex<View<I>>,
        budget: usize,
        rounds: usize,
        out: &mut PseudosphereUnion<ProcessId, View<I>>,
    ) {
        if state.is_empty() {
            return;
        }
        if rounds == 0 {
            let base = Simplex::new(state.vertices().iter().map(|v| v.process()).collect());
            let families = state
                .vertices()
                .iter()
                .map(|v| (v.process(), [v.clone()].into_iter().collect()))
                .collect();
            out.push(Pseudosphere::new(base, families).expect("families cover base"));
            return;
        }
        let ids: BTreeSet<ProcessId> = state.vertices().iter().map(|v| v.process()).collect();
        let cap = self.k_per_round.min(budget);
        for failure_set in subsets_up_to_size_lex(&ids, cap) {
            if rounds == 1 {
                // final round: the Lemma 14 pseudosphere with view values
                let survivors: Vec<&View<I>> = state
                    .vertices()
                    .iter()
                    .filter(|v| !failure_set.contains(&v.process()))
                    .collect();
                if survivors.is_empty() {
                    continue;
                }
                let survivor_ids: BTreeSet<ProcessId> =
                    survivors.iter().map(|v| v.process()).collect();
                let base = Simplex::new(survivor_ids.iter().copied().collect());
                let view_of = |p: ProcessId| -> &View<I> {
                    state.vertices().iter().find(|v| v.process() == p).unwrap()
                };
                let families = survivors
                    .iter()
                    .map(|v| {
                        let fam: BTreeSet<View<I>> =
                            subsets_up_to_size_lex(&failure_set, failure_set.len())
                                .into_iter()
                                .map(|l| {
                                    let heard: BTreeSet<ProcessId> =
                                        survivor_ids.union(&l).copied().collect();
                                    View::Round {
                                        process: v.process(),
                                        heard: heard
                                            .iter()
                                            .map(|q| (*q, view_of(*q).clone()))
                                            .collect(),
                                    }
                                })
                                .collect();
                        (v.process(), fam)
                    })
                    .collect();
                out.push(Pseudosphere::new(base, families).expect("families cover base"));
            } else {
                for_each_product(&self.round_options(state, &failure_set), |facet| {
                    let next = Simplex::new(facet.iter().map(|v| (*v).clone()).collect());
                    self.symbolic_rec(&next, budget - failure_set.len(), rounds - 1, out);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::input_simplex;
    use ps_core::MvProver;
    use ps_topology::{are_isomorphic, ConnectivityAnalyzer, Homology};

    fn fig3_model() -> SyncModel {
        SyncModel::new(3, 1, 1)
    }

    /// One round with failure set `K`, realized through the shared
    /// pseudosphere emitter.
    fn one_round_views(
        m: &SyncModel,
        state: &Simplex<View<u8>>,
        failure_set: &BTreeSet<ProcessId>,
    ) -> Complex<View<u8>> {
        let mut out = InternedBuilder::new();
        out.add_pseudosphere(m.round_options(state, failure_set));
        out.finish()
    }

    fn pid(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn figure3_failure_free_member_is_simplex() {
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let ps = m.one_round_failure_pseudosphere(&input, &BTreeSet::new());
        assert_eq!(ps.facet_count(), 1);
        assert_eq!(ps.dim(), 2);
        assert_eq!(ps.connectivity(), i32::MAX); // a single simplex
    }

    #[test]
    fn figure3_single_failure_member_is_square() {
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let k: BTreeSet<ProcessId> = [pid(2)].into_iter().collect();
        let ps = m.one_round_failure_pseudosphere(&input, &k);
        // ψ(S¹; 2^{R}): two survivors, two choices each => a 4-cycle
        assert_eq!(ps.facet_count(), 4);
        assert_eq!(ps.dim(), 1);
        let h = Homology::reduced(&ps.realize());
        assert_eq!(h.betti(1), 1);
    }

    #[test]
    fn figure3_full_union_shape() {
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let union = m.one_round_union(&input);
        assert_eq!(union.len(), 4); // K = ∅, {P}, {Q}, {R}
        let c = union.realize();
        assert_eq!(c.f_vector(), vec![9, 12, 1]);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(0), 0); // connected (Lemma 16: 0-connected)
        assert_eq!(h.betti(1), 3); // three unfilled squares
    }

    #[test]
    fn figure3_views_match_union() {
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let views = m.one_round_complex(&input);
        let union = m.one_round_union(&input).realize();
        assert!(are_isomorphic(&views, &union));
    }

    #[test]
    fn lemma14_per_k_isomorphism() {
        let m = SyncModel::new(3, 2, 2);
        let input = input_simplex(&[0u8, 1, 2]);
        for k_set in subsets_up_to_size_lex(&ps_core::process_set(3), 2) {
            let sym = m.one_round_failure_pseudosphere(&input, &k_set).realize();
            let views = one_round_views(&m, &input_views(&input), &k_set);
            assert!(are_isomorphic(&sym, &views), "K = {k_set:?} mismatch");
        }
    }

    #[test]
    fn lemma15_intersection_structure() {
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let union = m.one_round_union(&input);
        let members = union.members();
        // For the last member K = {R} (lexicographically largest singleton):
        // ∪_{i<t} ψ_i ∩ ψ_t == ∪_{P∈K} ψ(S\K; 2^{K−{P}})
        let t = members.len() - 1;
        let prefix = PseudosphereUnion::from_members(members[..t].iter().cloned());
        let lhs = prefix.intersect_with(&members[t]).realize();
        let k_last: BTreeSet<ProcessId> = [pid(2)].into_iter().collect();
        let rhs = m.lemma15_rhs(&input, &k_last).realize();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn lemma15_intersection_structure_two_failures() {
        let m = SyncModel::new(4, 2, 2);
        let input = input_simplex(&[0u8, 1, 2, 3]);
        let union = m.one_round_union(&input);
        let members = union.members();
        let t = members.len() - 1; // K = {P2, P3}, the lex-largest 2-set
        let prefix = PseudosphereUnion::from_members(members[..t].iter().cloned());
        let lhs = prefix.intersect_with(&members[t]).realize();
        let k_last: BTreeSet<ProcessId> = [pid(2), pid(3)].into_iter().collect();
        let rhs = m.lemma15_rhs(&input, &k_last).realize();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn lemma16_connectivity_via_prover_and_homology() {
        // n = 2k with n=2, k=1: S¹(S²) is 0-connected
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let union = m.one_round_union(&input);
        let claimed = m.claimed_connectivity(2);
        assert_eq!(claimed, 0);
        let proof = MvProver::new().prove_k_connected(&union, claimed);
        assert!(proof.is_ok(), "{proof:?}");
        let an = ConnectivityAnalyzer::new(&union.realize());
        assert!(an.is_k_connected(claimed).is_yes());
    }

    #[test]
    fn lemma16_higher_dimension() {
        // 4 processes (n=3), k=1, m=3: claimed m-(n-k)-1 = 3-2-1 = 0
        let m = SyncModel::new(4, 1, 1);
        let input = input_simplex(&[0u8, 1, 2, 3]);
        let union = m.one_round_union(&input);
        let claimed = m.claimed_connectivity(3);
        assert_eq!(claimed, 0);
        let proof = MvProver::new().prove_k_connected(&union, claimed);
        assert!(proof.is_ok(), "{:?}", proof.err());
    }

    #[test]
    fn lemma16_k2_is_1_connected() {
        // 5 processes (n=4), k=2, m=4: claimed 4-(4-2)-1 = 1; n ≥ 2k holds.
        let m = SyncModel::new(5, 2, 2);
        let input = input_simplex(&[0u8, 1, 2, 3, 4]);
        let union = m.one_round_union(&input);
        let claimed = m.claimed_connectivity(4);
        assert_eq!(claimed, 1);
        let proof = MvProver::new().prove_k_connected(&union, claimed);
        assert!(proof.is_ok(), "{:?}", proof.err());
    }

    #[test]
    fn two_round_complex_budget() {
        // f=1 total, k=1/round, r=2: a process can fail in round 1 OR 2,
        // not both rounds.
        let m = SyncModel::new(3, 1, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.protocol_complex(&input, 2);
        assert!(!c.is_void());
        // facets have 2 or 3 vertices (at most one process ever fails)
        for f in c.facets() {
            assert!(f.len() >= 2);
        }
        // Lemma 17 hypothesis n >= rk + k = 3 fails for n = 2 here, so no
        // connectivity claim; but the complex must still be connected for
        // r=1 budget accounting sanity:
        assert!(m.protocol_complex(&input, 1).is_connected());
    }

    #[test]
    fn r_round_claimed_connectivity_when_lemma17_applies() {
        // n = 3 (4 processes), k = 1, r = 2: n >= rk + k = 3 holds.
        // S²(S³) should be (3 - (3-1) - 1) = 0-connected.
        let m = SyncModel::new(4, 1, 2);
        assert!(m.lemma17_applies(2));
        let input = input_simplex(&[0u8, 1, 2, 3]);
        let c = m.protocol_complex(&input, 2);
        assert!(c.is_connected());
    }

    #[test]
    fn theorem18_bound_values() {
        assert_eq!(SyncModel::theorem18_round_bound(3, 1, 1), 2); // n>f+k
        assert_eq!(SyncModel::theorem18_round_bound(2, 1, 1), 1); // n=f+k
        assert_eq!(SyncModel::theorem18_round_bound(5, 2, 1), 3);
        assert_eq!(SyncModel::theorem18_round_bound(5, 2, 2), 2);
        assert_eq!(SyncModel::theorem18_round_bound(5, 4, 2), 2);
    }

    #[test]
    fn symbolic_union_realizes_to_protocol_complex() {
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        for r in 1..=2usize {
            let sym = m.symbolic_protocol_union(&input, r).realize();
            let direct = m
                .protocol_complex(&input, r)
                .map(|v| (v.process(), v.clone()));
            assert_eq!(sym, direct, "r = {r}");
        }
    }

    #[test]
    fn symbolic_union_member_count_figure3() {
        // one member per K: ∅ + three singletons
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let union = m.symbolic_protocol_union(&input, 1);
        assert_eq!(union.len(), 4);
        // Figure 3's union in heard-set coordinates is isomorphic
        let hs = m.one_round_union(&input).realize();
        assert!(ps_topology::are_isomorphic(&union.realize(), &hs));
    }

    #[test]
    fn failed_processes_disappear() {
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let k: BTreeSet<ProcessId> = [pid(0)].into_iter().collect();
        let one = one_round_views(&m, &input_views(&input), &k);
        for f in one.facets() {
            for v in f.vertices() {
                assert_ne!(v.process(), pid(0));
            }
        }
    }

    #[test]
    fn zero_rounds_identity() {
        let m = fig3_model();
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.protocol_complex(&input, 0);
        assert_eq!(c.facet_count(), 1);
    }

    #[test]
    fn all_processes_fail_contributes_nothing() {
        let m = SyncModel::new(2, 2, 2);
        let input = input_simplex(&[0u8, 1]);
        let c = m.one_round_complex(&input);
        // K = {P0,P1} gives no vertices; complex is union of other Ks
        assert!(!c.is_void());
        for f in c.facets() {
            assert!(!f.is_empty());
        }
    }
}
