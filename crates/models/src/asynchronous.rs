//! The asynchronous round structure (§6).
//!
//! Well-behaved asynchronous executions: in each round every process
//! broadcasts its state and receives at least `n + 1 - f` of the states
//! sent that round (its own included) — the most it can count on with up
//! to `f` crashes. Lemma 11: the one-round complex is a *single*
//! pseudosphere
//!
//! ```text
//! A¹(Sⁿ) ≅ ψ(Sⁿ; 2^{P−{P₀}}_{≥ n−f}, ..., 2^{P−{Pₙ}}_{≥ n−f})
//! ```
//!
//! and the `r`-round complex is obtained by inductively replacing each
//! simplex of the one-round complex with the `(r−1)`-round complex on it.
//! Because `A^{r−1}(T') ⊆ A^{r−1}(T)` whenever `T'` is a face of `T`
//! (the heard-set families are monotone in the participant set), the
//! union over *all* simplexes equals the union over facets. This module
//! supplies the one member of a round; the crate's shared round
//! unfolding recurses over its facets, and a test
//! (`all_simplexes_union_equals_facet_union`) checks the equivalence.

use std::collections::BTreeSet;

use ps_core::{subsets_of_min_size, ProcessId, Pseudosphere, PseudosphereUnion};
use ps_topology::{Complex, InternedBuilder, Label, Simplex};

use crate::unfold::{unfold, Member, Round};
use crate::view::{input_views, InputSimplex, View};

/// Parameters of the asynchronous model: `n_plus_1` processes total, at
/// most `f` crash failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsyncModel {
    /// Total number of processes `n + 1` in the system.
    pub n_plus_1: usize,
    /// Crash-failure budget `f`.
    pub f: usize,
}

impl AsyncModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `n_plus_1 == 0`.
    pub fn new(n_plus_1: usize, f: usize) -> Self {
        assert!(n_plus_1 > 0, "need at least one process");
        AsyncModel { n_plus_1, f }
    }

    /// Minimum number of round-`r` messages a process must receive
    /// (including its own): `n + 1 - f`.
    pub fn min_heard(&self) -> usize {
        self.n_plus_1.saturating_sub(self.f)
    }

    /// `true` iff an execution with exactly the processes of `input`
    /// participating exists: `m ≥ n - f` (paper: `P(S^m)` empty when
    /// `m < n - f`).
    pub fn can_participate<I: Label>(&self, input: &InputSimplex<I>) -> bool {
        input.len() >= self.min_heard()
    }

    /// The symbolic one-round pseudosphere of Lemma 11 over the
    /// participants of `input`, in *heard-set* coordinates: the family of
    /// `P_i` consists of the subsets `M ⊆ participants` with `P_i ∈ M`
    /// and `|M| ≥ n + 1 - f`.
    ///
    /// (The paper states the family as `2^{P−{P_i}}_{≥ n−f}`, the heard
    /// set minus self; the two presentations differ by the bijection
    /// `M ↦ M − {P_i}` and we keep self in for direct comparison with the
    /// simulator's views.)
    pub fn one_round_pseudosphere<I: Label>(
        &self,
        input: &InputSimplex<I>,
    ) -> Pseudosphere<ProcessId, BTreeSet<ProcessId>> {
        let participants: BTreeSet<ProcessId> = input.vertices().iter().map(|(p, _)| *p).collect();
        let base = Simplex::new(participants.iter().copied().collect());
        if !self.can_participate(input) {
            // all-empty families => void pseudosphere
            let families = participants.iter().map(|p| (*p, BTreeSet::new())).collect();
            return Pseudosphere::new(base, families).expect("families cover base");
        }
        let families = participants
            .iter()
            .map(|p| {
                let others: BTreeSet<ProcessId> =
                    participants.iter().copied().filter(|q| q != p).collect();
                let fam: BTreeSet<BTreeSet<ProcessId>> =
                    subsets_of_min_size(&others, self.min_heard().saturating_sub(1))
                        .into_iter()
                        .map(|mut m| {
                            m.insert(*p);
                            m
                        })
                        .collect();
                (*p, fam)
            })
            .collect();
        Pseudosphere::new(base, families).expect("families cover base")
    }

    /// The explicit one-round protocol complex `A¹(input)` with
    /// full-information views as vertex labels.
    pub fn one_round_complex<I: Label>(&self, input: &InputSimplex<I>) -> Complex<View<I>> {
        self.protocol_complex(input, 1)
    }

    /// The explicit `r`-round protocol complex `A^r(input)`.
    pub fn protocol_complex<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
    ) -> Complex<View<I>> {
        // Accumulate the whole recursion into one interned builder:
        // views are interned once and branch absorption runs on ids.
        let mut out = InternedBuilder::new();
        self.protocol_complex_into(input, rounds, &mut out);
        out.finish()
    }

    /// Accumulates `A^r(input)` into a caller-supplied interned builder,
    /// so the execution trees of many input faces share one vertex pool
    /// and one facet anti-chain (see the task-complex builders in
    /// `ps-agreement`).
    pub fn protocol_complex_into<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
        out: &mut InternedBuilder<View<I>>,
    ) {
        if self.can_participate(input) {
            unfold(self, &input_views(input), 0, rounds, out);
        }
    }

    /// One round applied to a simplex of views, as the slots of the
    /// Lemma 11 pseudosphere: per sender in process order, its
    /// end-of-round views (one per admissible heard set), sorted.
    fn round_options<I: Label>(&self, state: &Simplex<View<I>>) -> Vec<Vec<View<I>>> {
        let senders: Vec<&View<I>> = state.vertices().iter().collect();
        let ids: BTreeSet<ProcessId> = senders.iter().map(|v| v.process()).collect();
        assert_eq!(ids.len(), senders.len(), "duplicate process in state");
        let view_of =
            |p: &ProcessId| -> &View<I> { senders.iter().find(|v| v.process() == *p).unwrap() };
        senders
            .iter()
            .map(|v| {
                let me = v.process();
                let others: BTreeSet<ProcessId> =
                    ids.iter().copied().filter(|q| *q != me).collect();
                // Views of one process sort by heard set (their heard
                // maps agree on every common key).
                let heard_sets: BTreeSet<BTreeSet<ProcessId>> =
                    subsets_of_min_size(&others, self.min_heard().saturating_sub(1))
                        .into_iter()
                        .map(|mut m| {
                            m.insert(me);
                            m
                        })
                        .collect();
                heard_sets
                    .iter()
                    .map(|heard| View::Round {
                        process: me,
                        heard: heard.iter().map(|q| (*q, view_of(q).clone())).collect(),
                    })
                    .collect()
            })
            .collect()
    }

    /// Lemma 12's claimed connectivity of `A^r(S^m)`:
    /// `m - (n - f) - 1` where `m = input.dim()` and `n = n_plus_1 - 1`.
    pub fn claimed_connectivity(&self, m: i32) -> i32 {
        m - (self.n_plus_1 as i32 - 1 - self.f as i32) - 1
    }

    /// The fully **symbolic** form of `A^r(input)`: a union with one
    /// pseudosphere per `(r-1)`-round facet chain, each
    /// `ψ(participants; per-process view families)`. Realizing the union
    /// equals [`AsyncModel::protocol_complex`]; its symbolic form is what
    /// lets the Mayer–Vietoris prover replay the Lemma 12 induction for
    /// `r ≥ 2` without materializing the complex.
    pub fn symbolic_protocol_union<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
    ) -> PseudosphereUnion<ProcessId, View<I>> {
        let mut union = PseudosphereUnion::new();
        if self.can_participate(input) {
            unfold(self, &input_views(input), 0, rounds, &mut union);
        }
        union
    }
}

/// Lemma 11's round: a single member, spending no crash budget (no
/// process crashes in a well-behaved asynchronous round).
impl<I: Label> Round<View<I>> for AsyncModel {
    fn members(&self, state: &Simplex<View<I>>, _: usize) -> impl Iterator<Item = Member<View<I>>> {
        std::iter::once((self.round_options(state), 0))
    }
}

impl AsyncModel {
    /// The r-round protocol operator as a carrier map over the closure of
    /// `input` — the formal `P(·)` of §4, ready for monotonicity/strictness
    /// checks and composition.
    pub fn carrier_map<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
    ) -> ps_topology::CarrierMap<(ProcessId, I), View<I>> {
        let domain = ps_topology::Complex::simplex(input.clone());
        ps_topology::CarrierMap::from_fn(&domain, |s| self.protocol_complex(s, rounds))
    }
}

/// The union-of-pseudospheres form of the one-round complex — for the
/// asynchronous model this union has exactly one member (Lemma 11).
pub fn one_round_union<I: Label>(
    model: &AsyncModel,
    input: &InputSimplex<I>,
) -> PseudosphereUnion<ProcessId, BTreeSet<ProcessId>> {
    PseudosphereUnion::single(model.one_round_pseudosphere(input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::input_simplex;
    use ps_topology::{are_isomorphic, ConnectivityAnalyzer};

    #[test]
    fn min_heard_formula() {
        assert_eq!(AsyncModel::new(3, 1).min_heard(), 2);
        assert_eq!(AsyncModel::new(3, 2).min_heard(), 1);
        assert_eq!(AsyncModel::new(4, 1).min_heard(), 3);
        assert_eq!(AsyncModel::new(2, 5).min_heard(), 0);
    }

    #[test]
    fn lemma11_facet_count() {
        // n=2 (3 procs), f=1: each process hears ≥2 incl. self:
        // heard sets per process: {me,a},{me,b},{me,a,b} => 3 choices
        let model = AsyncModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let ps = model.one_round_pseudosphere(&input);
        assert_eq!(ps.facet_count(), 27);
        let complex = model.one_round_complex(&input);
        assert_eq!(complex.facet_count(), 27);
    }

    #[test]
    fn lemma11_isomorphism_formula_vs_views() {
        let model = AsyncModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let formula = model.one_round_pseudosphere(&input).realize();
        let views = model.one_round_complex(&input);
        assert!(are_isomorphic(&formula, &views));
    }

    #[test]
    fn lemma11_isomorphism_f2() {
        let model = AsyncModel::new(3, 2);
        let input = input_simplex(&[0u8, 1, 2]);
        let formula = model.one_round_pseudosphere(&input).realize();
        let views = model.one_round_complex(&input);
        assert_eq!(formula.facet_count(), views.facet_count());
        assert!(are_isomorphic(&formula, &views));
    }

    #[test]
    fn participation_threshold() {
        let model = AsyncModel::new(3, 1);
        let two = input_simplex(&[0u8, 1]);
        assert!(model.can_participate(&two)); // m+1 = 2 = n+1-f
        let complex = model.one_round_complex(&two);
        assert!(!complex.is_void());
        // single participant below threshold
        let one = input_simplex(&[0u8]);
        assert!(!model.can_participate(&one));
        assert!(model.one_round_complex(&one).is_void());
        assert!(model.one_round_pseudosphere(&one).is_void());
    }

    #[test]
    fn lemma12_connectivity_one_round() {
        // A¹(S²) with f=1 should be (2-(2-1)-1)=0-connected
        let model = AsyncModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = model.one_round_complex(&input);
        let an = ConnectivityAnalyzer::new(&c);
        assert!(an.is_k_connected(model.claimed_connectivity(2)).is_yes());
        // f=2: claimed 1-connected
        let model2 = AsyncModel::new(3, 2);
        let c2 = model2.one_round_complex(&input);
        let an2 = ConnectivityAnalyzer::new(&c2);
        assert_eq!(model2.claimed_connectivity(2), 1);
        assert!(an2.is_k_connected(1).is_yes());
    }

    #[test]
    fn lemma12_connectivity_faces() {
        // A¹(S^m) is (m-(n-f)-1)-connected for faces too
        let model = AsyncModel::new(3, 2); // n-f = 0
        let input = input_simplex(&[0u8, 1, 2]);
        for face in input.faces() {
            if face.is_empty() {
                continue;
            }
            let c = model.one_round_complex(&face);
            let an = ConnectivityAnalyzer::new(&c);
            let m = face.dim();
            assert!(
                an.is_k_connected(model.claimed_connectivity(m)).is_yes(),
                "face dim {m}"
            );
        }
    }

    #[test]
    fn two_rounds_grow() {
        let model = AsyncModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c1 = model.protocol_complex(&input, 1);
        let c2 = model.protocol_complex(&input, 2);
        assert!(c2.facet_count() > c1.facet_count());
        // every vertex of c2 is a 2-round view
        for layer in c2.all_simplices() {
            for s in layer {
                for v in s.vertices() {
                    assert_eq!(v.round(), 2);
                }
            }
        }
    }

    #[test]
    fn two_round_connectivity() {
        // Lemma 12 for r=2, n=2, f=1: A²(S²) is 0-connected
        let model = AsyncModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c2 = model.protocol_complex(&input, 2);
        assert!(c2.is_connected());
    }

    #[test]
    fn zero_rounds_is_input() {
        let model = AsyncModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = model.protocol_complex(&input, 0);
        assert_eq!(c.facet_count(), 1);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn all_simplexes_union_equals_facet_union() {
        // the paper defines A^r as a union over *all* simplexes of A^1;
        // check the facet-only recursion gives the same complex (r=2,
        // 2 processes, f=1).
        let model = AsyncModel::new(2, 1);
        let input = input_simplex(&[0u8, 1]);
        let facet_union = model.protocol_complex(&input, 2);
        // union over all simplexes of A^1:
        let a1 = model.one_round_complex(&input);
        let mut full = Complex::new();
        for layer in a1.all_simplices() {
            for t in layer {
                let mut round = InternedBuilder::new();
                unfold(&model, &t, 0, 1, &mut round);
                full = full.union(&round.finish());
            }
        }
        assert_eq!(facet_union, full);
    }

    #[test]
    fn symbolic_union_realizes_to_protocol_complex() {
        let model = AsyncModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        for r in 0..=1usize {
            let sym = model.symbolic_protocol_union(&input, r).realize();
            let direct = model
                .protocol_complex(&input, r)
                .map(|v| (v.process(), v.clone()));
            assert_eq!(sym, direct, "r = {r}");
        }
        // r = 2 on two processes to keep the member count small
        let model2 = AsyncModel::new(2, 1);
        let input2 = input_simplex(&[0u8, 1]);
        let sym2 = model2.symbolic_protocol_union(&input2, 2).realize();
        let direct2 = model2
            .protocol_complex(&input2, 2)
            .map(|v| (v.process(), v.clone()));
        assert_eq!(sym2, direct2);
    }

    #[test]
    fn lemma12_r2_certified_by_prover() {
        // A² as a symbolic union: one member per one-round facet. The
        // flat Mayer–Vietoris peeling certifies connectivity for the
        // 2-process instance (the paper's full r-round argument is the
        // hierarchical Theorem 5 induction; the flat ordering happens to
        // suffice here).
        use ps_core::MvProver;
        let model = AsyncModel::new(2, 1);
        let input = input_simplex(&[0u8, 1]);
        let union = model.symbolic_protocol_union(&input, 2);
        assert_eq!(union.len(), 4); // 2 heard-set choices per process
        let claimed = model.claimed_connectivity(1); // 1 - 0 - 1 = 0
        assert_eq!(claimed, 0);
        assert!(MvProver::new().prove_k_connected(&union, claimed).is_ok());
    }

    #[test]
    fn lemma12_r2_three_processes_mod2_homology() {
        // With 3 processes the flat peeling order no longer mirrors the
        // paper's hierarchical induction (members from unrelated
        // round-1 facets have void pairwise intersections), so the flat
        // prover is *incomplete* here — the claimed 1-connectivity is
        // nevertheless true; the fast GF(2) check certifies the
        // homological part (reduced b₀ = b₁ = 0). The inductive proof
        // is Theorem 5 with c = n − f (see tests/theorems_on_models.rs);
        // the full integral + π₁ certification of this 4096-facet
        // complex is exercised by the ignored heavyweight test below.
        use ps_topology::Homology;
        let model = AsyncModel::new(3, 2);
        let input = input_simplex(&[0u8, 1, 2]);
        let union = model.symbolic_protocol_union(&input, 2);
        assert_eq!(union.len(), 64);
        let claimed = model.claimed_connectivity(2); // 2 - 0 - 1 = 1
        assert_eq!(claimed, 1);
        let b2 = Homology::betti_mod2(&union.realize());
        assert_eq!(b2[0], 0);
        assert_eq!(b2[1], 0);
    }

    #[test]
    #[ignore = "heavyweight: integral homology + π₁ on a 4096-facet complex (~2 min)"]
    fn lemma12_r2_three_processes_full_certification() {
        use ps_topology::ConnectivityAnalyzer;
        let model = AsyncModel::new(3, 2);
        let input = input_simplex(&[0u8, 1, 2]);
        let union = model.symbolic_protocol_union(&input, 2);
        let an = ConnectivityAnalyzer::new(&union.realize());
        assert!(an.is_k_connected(model.claimed_connectivity(2)).is_yes());
    }

    #[test]
    fn heard_sets_respect_bound() {
        let model = AsyncModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = model.one_round_complex(&input);
        for f in c.facets() {
            for v in f.vertices() {
                assert!(v.heard_set().len() >= model.min_heard());
                assert!(v.heard_set().contains(&v.process()));
            }
        }
    }
}
