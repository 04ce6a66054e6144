//! The Byzantine synchronous round structure (Mendes–Herlihy,
//! arXiv 1505.04224).
//!
//! Rounds are synchronous and reliable, but up to `t` processes are
//! *Byzantine*: instead of crashing, a faulty process may send an
//! arbitrary, per-recipient-inconsistent view in every round. The
//! adversary fixes the faulty set `B` (|B| ≤ t) once per execution;
//! the protocol complex is the union over all such `B` of the
//! executions in which
//!
//! * every correct process hears every correct process truthfully
//!   (synchrony: no crashes, no omissions among correct processes), and
//! * for every faulty `b ∈ B` and every correct recipient `p`, the
//!   adversary independently picks `b`'s message to `p` from an
//!   *equivocation menu*: silence, or `b`'s true current view with its
//!   own input leaf rewritten to any value of the input alphabet.
//!
//! Because the choice is independent per `(recipient, faulty)` pair, a
//! faulty process can tell `P` its input was 0 and `Q` that it was 1 in
//! the same round — the defining Byzantine behaviour — while the menu
//! stays finite and state-derived, so the recursion remains an exact,
//! exhaustively enumerable pseudosphere construction: for a fixed `B`
//! one round is `ψ(correct; menu^B)` — every correct process
//! independently picks one menu entry per faulty process — mirroring
//! the crash-failure Lemma 14 shape `ψ(Sⁿ\K; 2^K)`.
//!
//! Facets carry **only correct-process views** (the Mendes–Herlihy
//! convention: faulty processes have no decision obligations). Faulty
//! processes still evolve an omniscient reference view — they hear
//! everyone truthfully — which is the template their forgeries are
//! derived from.
//!
//! Every fixed-`B` build starts the same way: the correct processes'
//! input views form a simplex and each faulty process keeps its input
//! view as its reference. One round is one walk of the menus, giving
//! each correct process its list of possible end-of-round views (the
//! first faulty process's choice varying fastest).
//! [`ByzantineModel::protocol_complex`] emits the product of those
//! lists, first recipient varying fastest, and recurses on each facet;
//! [`ByzantineModel::one_round_fault_pseudosphere`] makes the lists its
//! families.
//!
//! Mendes–Herlihy's connectivity bound: the protocol complex of an
//! `(n+1)`-process Byzantine synchronous system stays `(k−1)`-connected
//! for `r ≤ ⌈t/k⌉` rounds (given enough correct processes,
//! `n + 1 > (r + 1) k + t` in spirit of Lemma 17), which yields the
//! `⌊t/k⌋ + 1`-round lower bound for Byzantine `k`-set agreement.
//!
//! ## Modeling notes
//!
//! * Forged views keep the faulty sender's self-chain structurally
//!   intact (only `Input` leaf *values* are rewritten), so `View::input`
//!   stays total on every vertex and on every nested message.
//! * Forged values are drawn from the input alphabet of the ambient
//!   input simplex, so `View::known_inputs` — and hence task validity
//!   constraints — never sees a value outside the task's domain. A
//!   correct process cannot tell a forged value from a real one, which
//!   is exactly the Byzantine validity obstruction.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::{subsets_up_to_size_lex, ProcessId, Pseudosphere};
use ps_topology::{for_each_product, Complex, InternedBuilder, Label, Simplex};

use crate::view::{input_views, InputSimplex, View};

/// Parameters of the Byzantine synchronous model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByzantineModel {
    /// Total number of processes `n + 1`.
    pub n_plus_1: usize,
    /// Maximum number of Byzantine processes `t`.
    pub t: usize,
}

/// The distinct input values of an input simplex, in sorted order — the
/// equivocation alphabet a faulty process may claim as its own input.
pub fn equivocation_alphabet<I: Label>(input: &InputSimplex<I>) -> Vec<I> {
    let set: BTreeSet<I> = input.vertices().iter().map(|(_, v)| v.clone()).collect();
    set.into_iter().collect()
}

/// `view` with every `Input` leaf of process `faulty` rewritten to
/// claim `value` — the forgery a Byzantine `faulty` derives from its
/// true state. The tree shape (and in particular every self-chain) is
/// preserved; only leaf values change.
fn forge<I: Label>(view: &View<I>, faulty: ProcessId, value: &I) -> View<I> {
    match view {
        View::Input { process, input } => View::Input {
            process: *process,
            input: if *process == faulty {
                value.clone()
            } else {
                input.clone()
            },
        },
        View::Round { process, heard } => View::Round {
            process: *process,
            heard: heard
                .iter()
                .map(|(p, v)| (*p, forge(v, faulty, value)))
                .collect(),
        },
    }
}

impl ByzantineModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `n_plus_1 == 0`.
    pub fn new(n_plus_1: usize, t: usize) -> Self {
        assert!(n_plus_1 > 0, "need at least one process");
        ByzantineModel { n_plus_1, t }
    }

    /// Mendes–Herlihy: number of rounds for which the protocol complex
    /// is claimed to stay `(k−1)`-connected, `⌈t/k⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn mendes_herlihy_round_bound(t: usize, k: usize) -> usize {
        assert!(k >= 1, "k-set agreement needs k ≥ 1");
        t.div_ceil(k)
    }

    /// The explicit one-round protocol complex.
    pub fn one_round_complex<I: Label>(&self, input: &InputSimplex<I>) -> Complex<View<I>> {
        self.protocol_complex(input, 1)
    }

    /// The explicit `r`-round protocol complex: the union over all
    /// faulty sets `B` with `|B| ≤ t` of the fixed-`B` execution trees.
    pub fn protocol_complex<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
    ) -> Complex<View<I>> {
        let mut out = InternedBuilder::new();
        self.protocol_complex_into(input, rounds, &mut out);
        out.finish()
    }

    /// Accumulates the `r`-round protocol complex into a caller-supplied
    /// interned builder, so many input faces can share one vertex pool
    /// and one facet anti-chain (the task-complex builders union faces
    /// this way).
    pub fn protocol_complex_into<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
        out: &mut InternedBuilder<View<I>>,
    ) {
        let participants: BTreeSet<ProcessId> = input.vertices().iter().map(|(p, _)| *p).collect();
        let alphabet = equivocation_alphabet(input);
        let views = input_views(input);
        for byz_set in subsets_up_to_size_lex(&participants, self.t.min(participants.len())) {
            let (correct, byz) = fixed_b_start(&views, &byz_set);
            self.rec_into(&correct, &byz, &alphabet, rounds, out);
        }
    }

    fn rec_into<I: Label>(
        &self,
        correct: &Simplex<View<I>>,
        byz: &BTreeMap<ProcessId, View<I>>,
        alphabet: &[I],
        rounds: usize,
        out: &mut InternedBuilder<View<I>>,
    ) {
        if correct.is_empty() {
            return;
        }
        if rounds == 0 {
            out.add_facet(correct);
            return;
        }
        // The faulty processes' omniscient reference evolution: they
        // hear everyone (correct and faulty) truthfully.
        let mut all: BTreeMap<ProcessId, View<I>> = byz.clone();
        all.extend(correct.vertices().iter().map(|v| (v.process(), v.clone())));
        let next_byz: BTreeMap<ProcessId, View<I>> = byz
            .keys()
            .map(|b| {
                (
                    *b,
                    View::Round {
                        process: *b,
                        heard: all.clone(),
                    },
                )
            })
            .collect();
        // One end-of-round view per correct recipient, the first
        // recipient varying fastest: `for_each_product` varies its last
        // slot fastest, so it walks the recipients' option lists
        // reversed.
        let mut options = round_options(correct, byz, alphabet);
        options.reverse();
        for_each_product(&options, |pick| {
            let next_correct = Simplex::new(pick.iter().map(|&v| v.clone()).collect());
            self.rec_into(&next_correct, &next_byz, alphabet, rounds - 1, out);
        });
    }

    /// The fixed-`B` one-round complex — the Byzantine analogue of the
    /// Lemma 14 member `S¹_K`.
    pub fn one_round_fault_complex<I: Label>(
        &self,
        input: &InputSimplex<I>,
        byz_set: &BTreeSet<ProcessId>,
    ) -> Complex<View<I>> {
        let (correct, byz) = fixed_b_start(&input_views(input), byz_set);
        let mut out = InternedBuilder::new();
        self.rec_into(&correct, &byz, &equivocation_alphabet(input), 1, &mut out);
        out.finish()
    }

    /// The fixed-`B` one-round complex as a symbolic pseudosphere
    /// `ψ(correct; menu^B)`: each correct process independently picks
    /// one end-of-round view, determined by one menu entry per faulty
    /// process. Realizing it (and pairing values with processes) equals
    /// [`ByzantineModel::one_round_fault_complex`], the Byzantine
    /// Lemma 14.
    pub fn one_round_fault_pseudosphere<I: Label>(
        &self,
        input: &InputSimplex<I>,
        byz_set: &BTreeSet<ProcessId>,
    ) -> Pseudosphere<ProcessId, View<I>> {
        let (correct, byz) = fixed_b_start(&input_views(input), byz_set);
        let options = round_options(&correct, &byz, &equivocation_alphabet(input));
        let families: BTreeMap<ProcessId, BTreeSet<View<I>>> = correct
            .vertices()
            .iter()
            .zip(options)
            .map(|(v, views)| (v.process(), views.into_iter().collect()))
            .collect();
        let base = families.keys().copied().collect();
        Pseudosphere::new(base, families).expect("families cover base")
    }
}

/// The start of a fixed-`B` execution: the correct processes' input
/// views as a simplex, and each faulty process's reference view.
fn fixed_b_start<I: Label>(
    views: &Simplex<View<I>>,
    byz_set: &BTreeSet<ProcessId>,
) -> (Simplex<View<I>>, BTreeMap<ProcessId, View<I>>) {
    let (byz, correct): (Vec<View<I>>, Vec<View<I>>) = views
        .vertices()
        .iter()
        .cloned()
        .partition(|v| byz_set.contains(&v.process()));
    (
        Simplex::new(correct),
        byz.into_iter().map(|v| (v.process(), v)).collect(),
    )
}

/// Each correct process's possible end-of-round views, in the order of
/// `correct`: every correct process hears every correct process
/// truthfully, and each faulty process `b` (with true view `w`) through
/// one entry of its equivocation menu — silence, or `w` claiming any
/// alphabet value as `b`'s input. The first faulty process's choice
/// varies fastest.
fn round_options<I: Label>(
    correct: &Simplex<View<I>>,
    byz: &BTreeMap<ProcessId, View<I>>,
    alphabet: &[I],
) -> Vec<Vec<View<I>>> {
    let truths: BTreeMap<ProcessId, View<I>> = correct
        .vertices()
        .iter()
        .map(|v| (v.process(), v.clone()))
        .collect();
    let mut heards = vec![truths];
    for (b, w) in byz {
        let mut menu = vec![None];
        menu.extend(alphabet.iter().map(|v| Some(forge(w, *b, v))));
        heards = menu
            .iter()
            .flat_map(|entry| {
                heards.iter().map(move |heard| {
                    let mut heard = heard.clone();
                    if let Some(m) = entry {
                        heard.insert(*b, m.clone());
                    }
                    heard
                })
            })
            .collect();
    }
    correct
        .vertices()
        .iter()
        .map(|v| {
            heards
                .iter()
                .map(|heard| View::Round {
                    process: v.process(),
                    heard: heard.clone(),
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::input_simplex;
    use ps_topology::Homology;

    fn pid(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn zero_rounds_identity() {
        let m = ByzantineModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.protocol_complex(&input, 0);
        // every face of the input simplex produced by some B is absorbed
        assert_eq!(c.facet_count(), 1);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn t0_is_lockstep() {
        let m = ByzantineModel::new(3, 0);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.protocol_complex(&input, 2);
        // no faults: a single full-information execution
        assert_eq!(c.facet_count(), 1);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn one_round_facet_count_three_processes() {
        // n+1 = 3, t = 1, alphabet {0,1,2}: per faulty b the two correct
        // recipients each pick from {silence, claim 0, claim 1, claim 2}
        // = 16 combos, of which the all-truthful one is a face of the
        // fault-free facet. 1 + 3·15 = 46.
        let m = ByzantineModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.one_round_complex(&input);
        assert_eq!(c.facet_count(), 46);
    }

    #[test]
    fn faulty_processes_have_no_vertices() {
        let m = ByzantineModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let b: BTreeSet<ProcessId> = [pid(2)].into_iter().collect();
        let c = m.one_round_fault_complex(&input, &b);
        for f in c.facets() {
            for v in f.vertices() {
                assert_ne!(v.process(), pid(2));
            }
        }
    }

    #[test]
    fn fault_pseudosphere_matches_fault_complex() {
        let m = ByzantineModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        for b in subsets_up_to_size_lex(&ps_core::process_set(3), 1) {
            let sym = m.one_round_fault_pseudosphere(&input, &b).realize();
            let direct = m
                .one_round_fault_complex(&input, &b)
                .map(|v| (v.process(), v.clone()));
            assert_eq!(sym, direct, "B = {b:?} mismatch");
        }
    }

    #[test]
    fn equivocation_reaches_different_recipients() {
        // some execution has b claiming input 0 to one correct process
        // and input 1 to the other, in the same round
        let m = ByzantineModel::new(3, 1);
        let input = input_simplex(&[2u8, 2, 2]);
        // alphabet is {2}: without distinct inputs there is nothing to
        // equivocate about beyond omission
        let c = m.one_round_complex(&input);
        assert!(c.facet_count() > 1);

        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.one_round_complex(&input);
        let b = pid(2);
        let found = c.facets().any(|f| {
            let claims: Vec<Option<u8>> = f
                .vertices()
                .iter()
                .map(|v| v.heard_from(b).map(|w| *w.input()))
                .collect();
            claims.len() == 2
                && claims[0].is_some()
                && claims[1].is_some()
                && claims[0] != claims[1]
        });
        assert!(found, "no equivocating execution found");
    }

    #[test]
    fn forged_views_keep_input_total() {
        // every vertex and every nested heard view supports .input()
        let m = ByzantineModel::new(3, 2);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.protocol_complex(&input, 2);
        for f in c.facets() {
            for v in f.vertices() {
                let _ = v.input();
                for q in v.heard_set() {
                    let _ = v.heard_from(q).unwrap().input();
                }
            }
        }
    }

    #[test]
    fn forged_values_stay_in_alphabet() {
        let m = ByzantineModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 0]);
        let c = m.one_round_complex(&input);
        for f in c.facets() {
            for v in f.vertices() {
                for val in v.known_inputs().values() {
                    assert!(*val == 0 || *val == 1);
                }
            }
        }
    }

    #[test]
    fn one_round_t1_is_connected() {
        // Mendes–Herlihy with k = 1: 0-connected for r ≤ t rounds
        let m = ByzantineModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let h = Homology::reduced(&m.one_round_complex(&input));
        assert_eq!(h.betti(0), 0);
    }

    #[test]
    fn mendes_herlihy_bound_values() {
        assert_eq!(ByzantineModel::mendes_herlihy_round_bound(1, 1), 1);
        assert_eq!(ByzantineModel::mendes_herlihy_round_bound(2, 1), 2);
        assert_eq!(ByzantineModel::mendes_herlihy_round_bound(2, 2), 1);
        assert_eq!(ByzantineModel::mendes_herlihy_round_bound(3, 2), 2);
        assert_eq!(ByzantineModel::mendes_herlihy_round_bound(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn mendes_herlihy_bound_rejects_k0() {
        let _ = ByzantineModel::mendes_herlihy_round_bound(1, 0);
    }
}
