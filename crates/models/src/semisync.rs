//! The semi-synchronous round structure (§8).
//!
//! Process steps take between `c1` and `c2` time, messages up to `d`.
//! Well-behaved executions proceed in rounds of exactly time `d`; within
//! a round processes step in lockstep every `c1`, giving `p = ⌈d/c1⌉`
//! *microrounds*. A process failing at microround `F(P_j)` may or may not
//! get its final microround's message delivered, so a survivor's *view*
//! records, per process, the microround of the last message received:
//! `μ_j ∈ {F(P_j)-1, F(P_j)}` for failed `P_j`, `μ_j = p` for survivors.
//!
//! Lemma 19: for a fixed failure set `K` and pattern `F`, the one-round
//! complex is the pseudosphere `ψ(Sⁿ\K; [F])`; Lemma 20 gives the
//! intersection structure `K ∩ L = ∪_{j∈K_ℓ} ψ(Sⁿ\K_ℓ; [F_ℓ ↑ j])`;
//! Lemma 21 the connectivity; and the round-stretching argument yields
//! the Corollary 22 time lower bound `⌊f/k⌋·d + C·d`, `C = c2/c1`.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::{subsets_up_to_size_lex, ProcessId, Pseudosphere, PseudosphereUnion};
use ps_topology::{Complex, InternedBuilder, Label, Simplex};

use crate::unfold::{unfold, Member, Round};
use crate::view::{ss_input_views, InputSimplex, SsView};

/// A failure pattern `F : K → microround`, values in `1..=p`.
pub type FailurePattern = BTreeMap<ProcessId, u32>;

/// A semi-synchronous view vector: per participant, the microround of the
/// last message received (`0` = nothing received, `p` = nonfaulty).
pub type ViewVector = BTreeMap<ProcessId, u32>;

/// Real-time parameters of the semi-synchronous model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SemiSyncTiming {
    /// Minimum step time `c1 > 0`.
    pub c1: f64,
    /// Maximum step time `c2 ≥ c1`.
    pub c2: f64,
    /// Maximum message delivery time `d > 0`.
    pub d: f64,
}

impl SemiSyncTiming {
    /// Creates timing parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < c1 ≤ c2` and `d > 0`.
    pub fn new(c1: f64, c2: f64, d: f64) -> Self {
        assert!(c1 > 0.0 && c2 >= c1 && d > 0.0, "invalid timing parameters");
        SemiSyncTiming { c1, c2, d }
    }

    /// Microrounds per round: `p = ⌈d/c1⌉`.
    pub fn microrounds(&self) -> u32 {
        (self.d / self.c1).ceil() as u32
    }

    /// The timing-uncertainty ratio `C = c2 / c1`.
    pub fn big_c(&self) -> f64 {
        self.c2 / self.c1
    }

    /// Corollary 22's wait-free time lower bound for `k`-set agreement
    /// with `f = n` failures: `⌊f/k⌋·d + C·d`.
    pub fn corollary22_bound(&self, f: usize, k: usize) -> f64 {
        (f / k) as f64 * self.d + self.big_c() * self.d
    }
}

/// Parameters of the semi-synchronous round structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SemiSyncModel {
    /// Total number of processes `n + 1`.
    pub n_plus_1: usize,
    /// Per-round failure cap `k`.
    pub k_per_round: usize,
    /// Total failure budget `f`.
    pub f_total: usize,
    /// Microrounds per round `p = ⌈d/c1⌉ ≥ 1`.
    pub microrounds: u32,
}

impl SemiSyncModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `n_plus_1 == 0` or `microrounds == 0`.
    pub fn new(n_plus_1: usize, k_per_round: usize, f_total: usize, microrounds: u32) -> Self {
        assert!(n_plus_1 > 0, "need at least one process");
        assert!(microrounds > 0, "need at least one microround");
        SemiSyncModel {
            n_plus_1,
            k_per_round,
            f_total,
            microrounds,
        }
    }

    /// Convenience: derive the combinatorial model from timing parameters.
    pub fn from_timing(
        n_plus_1: usize,
        k_per_round: usize,
        f_total: usize,
        t: SemiSyncTiming,
    ) -> Self {
        Self::new(n_plus_1, k_per_round, f_total, t.microrounds())
    }

    /// All failure patterns for `k_set`, in the paper's *reverse
    /// lexicographic* order: the first pattern fails every process at
    /// microround `p`, the last at microround `1`.
    pub fn failure_patterns(&self, k_set: &BTreeSet<ProcessId>) -> Vec<FailurePattern> {
        let procs: Vec<ProcessId> = k_set.iter().copied().collect();
        if procs.is_empty() {
            return vec![FailurePattern::new()];
        }
        let p = self.microrounds;
        let mut out = Vec::new();
        let mut vals = vec![p; procs.len()];
        loop {
            out.push(procs.iter().copied().zip(vals.iter().copied()).collect());
            // reverse-lex decrement
            let mut i = procs.len();
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if vals[i] > 1 {
                    vals[i] -= 1;
                    for v in vals.iter_mut().skip(i + 1) {
                        *v = p;
                    }
                    break;
                }
                if i == 0 {
                    return out;
                }
            }
        }
    }

    /// The paper's `[F]`: all view vectors consistent with failure set
    /// `k_set` and pattern `pattern` over `participants`. Failed `P_j`
    /// contributes `μ_j ∈ {F(P_j)-1, F(P_j)}`, survivors `μ_j = p`.
    pub fn view_box(
        &self,
        participants: &BTreeSet<ProcessId>,
        pattern: &FailurePattern,
    ) -> Vec<ViewVector> {
        let failed: Vec<ProcessId> = pattern.keys().copied().collect();
        let mut out = Vec::new();
        for mask in 0u32..(1 << failed.len()) {
            let mut v: ViewVector = participants
                .iter()
                .map(|q| (*q, self.microrounds))
                .collect();
            for (i, j) in failed.iter().enumerate() {
                let fj = pattern[j];
                let mu = if mask & (1 << i) != 0 { fj } else { fj - 1 };
                v.insert(*j, mu);
            }
            out.push(v);
        }
        out.sort();
        out.dedup();
        out
    }

    /// The paper's `[F ↑ j]`: the subset of `[F]` in which `P_j`'s last
    /// message is delivered at exactly `F(P_j)`.
    pub fn view_box_up(
        &self,
        participants: &BTreeSet<ProcessId>,
        pattern: &FailurePattern,
        j: ProcessId,
    ) -> Vec<ViewVector> {
        self.view_box(participants, pattern)
            .into_iter()
            .filter(|v| v.get(&j) == Some(&pattern[&j]))
            .collect()
    }

    /// Lemma 19: the pseudosphere `M¹_{K,F}(input) ≅ ψ(input\K; [F])`
    /// (every survivor independently picks a view from `[F]`).
    pub fn member_pseudosphere<I: Label>(
        &self,
        input: &InputSimplex<I>,
        k_set: &BTreeSet<ProcessId>,
        pattern: &FailurePattern,
    ) -> Pseudosphere<ProcessId, ViewVector> {
        let participants: BTreeSet<ProcessId> = input.vertices().iter().map(|(p, _)| *p).collect();
        let survivors: BTreeSet<ProcessId> = participants
            .iter()
            .copied()
            .filter(|p| !k_set.contains(p))
            .collect();
        let base = Simplex::new(survivors.iter().copied().collect());
        let family: BTreeSet<ViewVector> =
            self.view_box(&participants, pattern).into_iter().collect();
        let families = survivors.iter().map(|p| (*p, family.clone())).collect();
        Pseudosphere::new(base, families).expect("families cover base")
    }

    /// The one-round complex `M¹(input)` as the ordered union of Lemma 19
    /// pseudospheres: ordered first by `K` (size, then lexicographic) and
    /// then by `F` (reverse lexicographic).
    pub fn one_round_union<I: Label>(
        &self,
        input: &InputSimplex<I>,
    ) -> PseudosphereUnion<ProcessId, ViewVector> {
        let participants: BTreeSet<ProcessId> = input.vertices().iter().map(|(p, _)| *p).collect();
        let cap = self.k_per_round.min(self.f_total);
        let mut union = PseudosphereUnion::new();
        for k_set in subsets_up_to_size_lex(&participants, cap) {
            for pattern in self.failure_patterns(&k_set) {
                union.push(self.member_pseudosphere(input, &k_set, &pattern));
            }
        }
        union
    }

    /// Lemma 20's right-hand side for the member `(k_set, pattern)`:
    /// `∪_{j ∈ K} ψ(input\K; [F ↑ j])`.
    pub fn lemma20_rhs<I: Label>(
        &self,
        input: &InputSimplex<I>,
        k_set: &BTreeSet<ProcessId>,
        pattern: &FailurePattern,
    ) -> PseudosphereUnion<ProcessId, ViewVector> {
        let participants: BTreeSet<ProcessId> = input.vertices().iter().map(|(p, _)| *p).collect();
        let survivors: BTreeSet<ProcessId> = participants
            .iter()
            .copied()
            .filter(|p| !k_set.contains(p))
            .collect();
        let base = Simplex::new(survivors.iter().copied().collect());
        k_set
            .iter()
            .map(|j| {
                let family: BTreeSet<ViewVector> = self
                    .view_box_up(&participants, pattern, *j)
                    .into_iter()
                    .collect();
                let families = survivors.iter().map(|p| (*p, family.clone())).collect();
                Pseudosphere::new(base.clone(), families).expect("families cover base")
            })
            .collect()
    }

    /// The explicit one-round protocol complex with [`SsView`] labels.
    pub fn one_round_complex<I: Label>(&self, input: &InputSimplex<I>) -> Complex<SsView<I>> {
        self.protocol_complex(input, 1)
    }

    /// The explicit `r`-round protocol complex `M^r(input)`.
    pub fn protocol_complex<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
    ) -> Complex<SsView<I>> {
        // Accumulate the whole execution tree into one interned builder:
        // views are interned once and branch absorption runs on ids.
        let mut out = InternedBuilder::new();
        self.protocol_complex_into(input, rounds, &mut out);
        out.finish()
    }

    /// Accumulates `M^r(input)` into a caller-supplied interned builder,
    /// so the execution trees of many input faces share one vertex pool
    /// and one facet anti-chain (see the task-complex builders in
    /// `ps-agreement`).
    pub fn protocol_complex_into<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
        out: &mut InternedBuilder<SsView<I>>,
    ) {
        unfold(self, &ss_input_views(input), self.f_total, rounds, out);
    }

    /// One semi-synchronous round on a simplex of views, as the slots of
    /// the Lemma 19 pseudosphere `ψ(state\K; [F])`: per survivor in
    /// process order, its end-of-round views (one per view vector of
    /// `[F]`, processes with `μ = 0` left out), sorted.
    fn round_options<I: Label>(
        &self,
        state: &Simplex<SsView<I>>,
        k_set: &BTreeSet<ProcessId>,
        pattern: &FailurePattern,
    ) -> Vec<Vec<SsView<I>>> {
        let ids: BTreeSet<ProcessId> = state.vertices().iter().map(|v| v.process()).collect();
        let view_of = |p: &ProcessId| -> &SsView<I> {
            state.vertices().iter().find(|v| v.process() == *p).unwrap()
        };
        // Distinct view vectors stay distinct after the μ > 0 filter, and
        // views of one process sort by their (q, μ) sequence (their heard
        // maps agree on every common key's view).
        let heard: BTreeSet<Vec<(ProcessId, u32)>> = self
            .view_box(&ids, pattern)
            .into_iter()
            .map(|vector| vector.into_iter().filter(|(_, mu)| *mu > 0).collect())
            .collect();
        state
            .vertices()
            .iter()
            .filter(|v| !k_set.contains(&v.process()))
            .map(|v| {
                heard
                    .iter()
                    .map(|entries| SsView::Round {
                        process: v.process(),
                        heard: entries
                            .iter()
                            .map(|(q, mu)| (*q, (*mu, view_of(q).clone())))
                            .collect(),
                    })
                    .collect()
            })
            .collect()
    }

    /// Lemma 21's claimed connectivity of `M^r(S^m)`:
    /// `m - (n - k) - 1`, valid when `n ≥ (r+1)k`.
    pub fn claimed_connectivity(&self, m: i32) -> i32 {
        m - (self.n_plus_1 as i32 - 1 - self.k_per_round as i32) - 1
    }

    /// The hypothesis `n ≥ (r+1)k` of Lemma 21.
    pub fn lemma21_applies(&self, rounds: usize) -> bool {
        self.n_plus_1 as i32 > (rounds as i32 + 1) * self.k_per_round as i32
    }
}

/// Lemma 19's round: one member per failure set `K` of at most
/// `min(k, budget)` processes (by size, then lexicographically) and per
/// failure pattern `F` of `K` (reverse lexicographically).
impl<I: Label> Round<SsView<I>> for SemiSyncModel {
    fn members(
        &self,
        state: &Simplex<SsView<I>>,
        budget: usize,
    ) -> impl Iterator<Item = Member<SsView<I>>> {
        let ids: BTreeSet<ProcessId> = state.vertices().iter().map(|v| v.process()).collect();
        subsets_up_to_size_lex(&ids, self.k_per_round.min(budget))
            .into_iter()
            .flat_map(move |k_set| {
                self.failure_patterns(&k_set)
                    .into_iter()
                    .map(move |pattern| (self.round_options(state, &k_set, &pattern), k_set.len()))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::input_simplex;
    use ps_core::MvProver;
    use ps_topology::{are_isomorphic, ConnectivityAnalyzer};

    fn pid(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn model() -> SemiSyncModel {
        SemiSyncModel::new(3, 1, 1, 2) // 3 procs, ≤1 failure, p = 2
    }

    /// One round with failure set `K` and pattern `F`, realized through
    /// the shared pseudosphere emitter.
    fn one_round_views(
        m: &SemiSyncModel,
        state: &Simplex<SsView<u8>>,
        k_set: &BTreeSet<ProcessId>,
        pattern: &FailurePattern,
    ) -> Complex<SsView<u8>> {
        let mut out = InternedBuilder::new();
        out.add_pseudosphere(m.round_options(state, k_set, pattern));
        out.finish()
    }

    #[test]
    fn timing_derivations() {
        let t = SemiSyncTiming::new(1.0, 4.0, 2.0);
        assert_eq!(t.microrounds(), 2);
        assert_eq!(t.big_c(), 4.0);
        assert_eq!(t.corollary22_bound(2, 1), 2.0 * 2.0 + 4.0 * 2.0);
        let m = SemiSyncModel::from_timing(3, 1, 1, t);
        assert_eq!(m.microrounds, 2);
    }

    #[test]
    #[should_panic(expected = "invalid timing")]
    fn timing_validation() {
        let _ = SemiSyncTiming::new(2.0, 1.0, 1.0);
    }

    #[test]
    fn failure_patterns_reverse_lex() {
        let m = model();
        let k: BTreeSet<ProcessId> = [pid(0), pid(1)].into_iter().collect();
        let pats = m.failure_patterns(&k);
        assert_eq!(pats.len(), 4); // p^|K| = 2^2
                                   // first fails everyone at p = 2, last at 1
        assert_eq!(pats[0][&pid(0)], 2);
        assert_eq!(pats[0][&pid(1)], 2);
        assert_eq!(pats[3][&pid(0)], 1);
        assert_eq!(pats[3][&pid(1)], 1);
        // strictly decreasing in reverse-lex order
        for w in pats.windows(2) {
            let a: Vec<u32> = w[0].values().copied().collect();
            let b: Vec<u32> = w[1].values().copied().collect();
            assert!(a > b);
        }
        // empty K has the single empty pattern
        assert_eq!(m.failure_patterns(&BTreeSet::new()).len(), 1);
    }

    #[test]
    fn view_box_shapes() {
        let m = model();
        let participants = ps_core::process_set(3);
        let empty = m.view_box(&participants, &FailurePattern::new());
        assert_eq!(empty.len(), 1); // all-p vector
        assert!(empty[0].values().all(|&mu| mu == 2));

        let pattern: FailurePattern = [(pid(2), 2u32)].into_iter().collect();
        let b = m.view_box(&participants, &pattern);
        assert_eq!(b.len(), 2); // μ_R ∈ {1, 2}
        let up = m.view_box_up(&participants, &pattern, pid(2));
        assert_eq!(up.len(), 1);
        assert_eq!(up[0][&pid(2)], 2);
    }

    #[test]
    fn view_box_mu_zero_when_failing_at_first_microround() {
        let m = model();
        let participants = ps_core::process_set(3);
        let pattern: FailurePattern = [(pid(0), 1u32)].into_iter().collect();
        let b = m.view_box(&participants, &pattern);
        let mus: BTreeSet<u32> = b.iter().map(|v| v[&pid(0)]).collect();
        assert_eq!(mus, [0u32, 1].into_iter().collect());
    }

    #[test]
    fn lemma19_isomorphism_formula_vs_views() {
        let m = model();
        let input = input_simplex(&[0u8, 1, 2]);
        let k: BTreeSet<ProcessId> = [pid(2)].into_iter().collect();
        for pattern in m.failure_patterns(&k) {
            let sym = m.member_pseudosphere(&input, &k, &pattern).realize();
            let views = one_round_views(&m, &ss_input_views(&input), &k, &pattern);
            assert!(are_isomorphic(&sym, &views), "pattern {pattern:?} mismatch");
        }
    }

    #[test]
    fn one_round_union_member_count() {
        let m = model();
        let input = input_simplex(&[0u8, 1, 2]);
        let union = m.one_round_union(&input);
        // K=∅ (1 member) + 3 singletons × p=2 patterns each = 7
        assert_eq!(union.len(), 7);
    }

    #[test]
    fn failure_free_member_shares_vertices_with_late_crash() {
        // F(R) = p: the view with μ_R = p equals the failure-free view,
        // so the two members share vertices — the glue Lemma 20 needs.
        let m = model();
        let input = input_simplex(&[0u8, 1, 2]);
        let free = m.member_pseudosphere(&input, &BTreeSet::new(), &FailurePattern::new());
        let k: BTreeSet<ProcessId> = [pid(2)].into_iter().collect();
        let pattern: FailurePattern = [(pid(2), 2u32)].into_iter().collect();
        let late = m.member_pseudosphere(&input, &k, &pattern);
        let shared = free.realize().intersection(&late.realize());
        assert!(!shared.is_void());
        assert_eq!(shared.dim(), 1); // the survivors' heard-all edge
    }

    #[test]
    fn lemma20_intersection_structure() {
        let m = model();
        let input = input_simplex(&[0u8, 1, 2]);
        let union = m.one_round_union(&input);
        let members = union.members();
        // last member: K = {P2} (lex-largest singleton), F(P2) = 1 (reverse-lex last)
        let t = members.len() - 1;
        let prefix = PseudosphereUnion::from_members(members[..t].iter().cloned());
        let lhs = prefix.intersect_with(&members[t]).realize();
        let k: BTreeSet<ProcessId> = [pid(2)].into_iter().collect();
        let pattern: FailurePattern = [(pid(2), 1u32)].into_iter().collect();
        let rhs = m.lemma20_rhs(&input, &k, &pattern).realize();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn lemma20_intersection_structure_all_members() {
        // check Lemma 20 for every non-initial member of the union
        let m = model();
        let input = input_simplex(&[0u8, 1, 2]);
        let participants = ps_core::process_set(3);
        let mut seen: Vec<Pseudosphere<ProcessId, ViewVector>> = Vec::new();
        for k_set in subsets_up_to_size_lex(&participants, 1) {
            for pattern in m.failure_patterns(&k_set) {
                let member = m.member_pseudosphere(&input, &k_set, &pattern);
                if !seen.is_empty() && !k_set.is_empty() {
                    let prefix = PseudosphereUnion::from_members(seen.iter().cloned());
                    let lhs = prefix.intersect_with(&member).realize();
                    let rhs = m.lemma20_rhs(&input, &k_set, &pattern).realize();
                    assert_eq!(lhs, rhs, "K={k_set:?} F={pattern:?}");
                }
                seen.push(member);
            }
        }
    }

    #[test]
    fn lemma20_two_element_failure_sets() {
        // the full §8 ordering with |K| up to 2: every member's prefix
        // intersection must match ∪_j ψ(Sⁿ\K; [F↑j])
        let m = SemiSyncModel::new(3, 2, 2, 2);
        let input = input_simplex(&[0u8, 1, 2]);
        let participants = ps_core::process_set(3);
        let mut seen: Vec<Pseudosphere<ProcessId, ViewVector>> = Vec::new();
        for k_set in subsets_up_to_size_lex(&participants, 2) {
            for pattern in m.failure_patterns(&k_set) {
                let member = m.member_pseudosphere(&input, &k_set, &pattern);
                if !seen.is_empty() && !k_set.is_empty() {
                    let prefix = PseudosphereUnion::from_members(seen.iter().cloned());
                    let lhs = prefix.intersect_with(&member).realize();
                    let rhs = m.lemma20_rhs(&input, &k_set, &pattern).realize();
                    assert_eq!(lhs, rhs, "K={k_set:?} F={pattern:?}");
                }
                seen.push(member);
            }
        }
        assert_eq!(seen.len(), 1 + 3 * 2 + 3 * 4); // ∅ + singletons·p + pairs·p²
    }

    #[test]
    fn lemma21_connectivity_one_round() {
        // n = 2, k = 1: M¹(S²) is (2 - (2-1) - 1) = 0-connected
        let m = model();
        let input = input_simplex(&[0u8, 1, 2]);
        let union = m.one_round_union(&input);
        let claimed = m.claimed_connectivity(2);
        assert_eq!(claimed, 0);
        let proof = MvProver::new().prove_k_connected(&union, claimed);
        assert!(proof.is_ok(), "{:?}", proof.err());
        let an = ConnectivityAnalyzer::new(&union.realize());
        assert!(an.is_k_connected(claimed).is_yes());
    }

    #[test]
    fn views_match_union_realization() {
        let m = model();
        let input = input_simplex(&[0u8, 1, 2]);
        let views = m.one_round_complex(&input);
        let union = m.one_round_union(&input).realize();
        assert!(are_isomorphic(&views, &union));
    }

    #[test]
    fn protocol_complex_two_rounds() {
        // n = 1, k = 1: Lemma 21's hypothesis n ≥ (r+1)k fails for r = 2,
        // so no connectivity is claimed (and indeed a process failing at
        // microround 1 of round 2 creates an isolated survivor vertex).
        let m = SemiSyncModel::new(2, 1, 1, 2);
        assert!(!m.lemma21_applies(2));
        let input = input_simplex(&[0u8, 1]);
        let c = m.protocol_complex(&input, 2);
        assert!(!c.is_void());
        // every vertex is a completed 2-round view of a survivor
        for facet in c.facets() {
            for v in facet.vertices() {
                assert!(matches!(v, SsView::Round { .. }));
            }
        }
    }

    #[test]
    fn lemma21_hypothesis() {
        assert!(SemiSyncModel::new(4, 1, 1, 2).lemma21_applies(2)); // 3 ≥ 3
        assert!(!SemiSyncModel::new(3, 1, 1, 2).lemma21_applies(2)); // 2 < 3
    }

    #[test]
    fn zero_rounds_identity() {
        let m = model();
        let input = input_simplex(&[0u8, 1, 2]);
        assert_eq!(m.protocol_complex(&input, 0).facet_count(), 1);
    }
}
