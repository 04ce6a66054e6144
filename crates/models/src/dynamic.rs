//! Directed dynamic networks under oblivious message adversaries
//! (Rincon Galeana–Schmid–Nowak–Winkler, arXiv 2304.02316).
//!
//! Processes are reliable and never crash; what varies per round is the
//! *communication graph*. An oblivious message adversary is a set `D`
//! of directed graphs on the process set; in each round it picks any
//! `G ∈ D`, independently of past choices, and process `p` hears
//! exactly its in-neighbours in `G` plus itself. Every round choice
//! produces exactly one global state — graphs and facets are in
//! bijection — so the `r`-round protocol complex has one facet per
//! sequence in `D^r`, and every facet has full dimension `n`.
//!
//! Two standard graph families are provided as generators:
//!
//! * [`GraphFamily::Rooted`] — graphs containing a rooted spanning tree
//!   (some process reaches everyone along directed edges). The weakest
//!   family for which consensus is solvable at all, and the setting of
//!   the Rincon Galeana et al. characterization.
//! * [`GraphFamily::StronglyConnected`] — every process reaches every
//!   other; a strictly smaller adversary, hence a (weakly) easier model.
//!
//! Graphs are enumerated by edge bitmask over the `m(m−1)` ordered
//! non-self pairs of the `m` participants, so family sizes grow as
//! `2^{m(m−1)}` — 4096 graphs at `m = 4`. The enumeration is performed
//! once per `protocol_complex_into` call and reused across rounds;
//! the practical wall is `m ≤ 4` for sweeps and `m ≤ 3` for multi-round
//! exhaustive checks.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::ProcessId;
use ps_topology::{Complex, InternedBuilder, Label, Simplex};

use crate::view::{input_views, InputSimplex, View};

/// A generator for the oblivious message adversary's graph set `D`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GraphFamily {
    /// Graphs containing a rooted (out-)spanning tree: some process has
    /// a directed path to every other.
    Rooted,
    /// Strongly connected graphs: every process has a directed path to
    /// every other.
    StronglyConnected,
}

impl GraphFamily {
    /// Canonical lower-case name (`rooted` / `strong`), as accepted by
    /// the CLI.
    pub fn name(self) -> &'static str {
        match self {
            GraphFamily::Rooted => "rooted",
            GraphFamily::StronglyConnected => "strong",
        }
    }

    /// Does `self` admit the digraph given by `reach`, where
    /// `reach[i][j]` says `i` has a directed path to `j`?
    fn admits(self, reach: &[Vec<bool>]) -> bool {
        match self {
            GraphFamily::Rooted => (0..reach.len()).any(|i| reach[i].iter().all(|&r| r)),
            GraphFamily::StronglyConnected => (0..reach.len()).all(|i| reach[i].iter().all(|&r| r)),
        }
    }
}

/// Parameters of the directed dynamic-network model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicModel {
    /// Total number of processes `n + 1`.
    pub n_plus_1: usize,
    /// The oblivious adversary's graph family.
    pub family: GraphFamily,
}

impl DynamicModel {
    /// The most processes [`DynamicModel::round_graphs`] can enumerate:
    /// graphs are edge bitmasks over the `m(m−1)` ordered pairs, which
    /// must fit in 64 bits (`8 · 7 = 56`, `9 · 8 = 72`).
    pub const MAX_PROCESSES: usize = 8;

    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `n_plus_1 == 0`.
    pub fn new(n_plus_1: usize, family: GraphFamily) -> Self {
        assert!(n_plus_1 > 0, "need at least one process");
        DynamicModel { n_plus_1, family }
    }

    /// The adversary's graph set over `participants`, each graph given
    /// as `receiver ↦ heard set` (in-neighbours plus self), enumerated
    /// in edge-bitmask order.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`DynamicModel::MAX_PROCESSES`]
    /// participants.
    pub fn round_graphs(
        &self,
        participants: &BTreeSet<ProcessId>,
    ) -> Vec<BTreeMap<ProcessId, BTreeSet<ProcessId>>> {
        let procs: Vec<ProcessId> = participants.iter().copied().collect();
        let m = procs.len();
        let edges: Vec<(usize, usize)> = (0..m)
            .flat_map(|i| (0..m).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        assert!(
            edges.len() < 64,
            "graph enumeration needs m(m−1) < 64 edges; {m} processes exceed \
             DynamicModel::MAX_PROCESSES"
        );
        let mut out = Vec::new();
        for mask in 0u64..(1u64 << edges.len()) {
            let mut adj = vec![vec![false; m]; m];
            for (e, &(i, j)) in edges.iter().enumerate() {
                if mask & (1 << e) != 0 {
                    adj[i][j] = true;
                }
            }
            // reachability along directed edges (reflexive) via BFS
            let mut reach = vec![vec![false; m]; m];
            for (s, row) in reach.iter_mut().enumerate() {
                let mut queue = vec![s];
                row[s] = true;
                while let Some(i) = queue.pop() {
                    for (j, item) in row.iter_mut().enumerate() {
                        if adj[i][j] && !*item {
                            *item = true;
                            queue.push(j);
                        }
                    }
                }
            }
            if !self.family.admits(&reach) {
                continue;
            }
            out.push(
                (0..m)
                    .map(|j| {
                        let mut heard: BTreeSet<ProcessId> =
                            (0..m).filter(|&i| adj[i][j]).map(|i| procs[i]).collect();
                        heard.insert(procs[j]);
                        (procs[j], heard)
                    })
                    .collect(),
            );
        }
        out
    }

    /// The explicit one-round protocol complex.
    pub fn one_round_complex<I: Label>(&self, input: &InputSimplex<I>) -> Complex<View<I>> {
        self.protocol_complex(input, 1)
    }

    /// The explicit `r`-round protocol complex: one facet per graph
    /// sequence in `D^r`.
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
    /// interned builder (shared vertex pool across input faces).
    pub fn protocol_complex_into<I: Label>(
        &self,
        input: &InputSimplex<I>,
        rounds: usize,
        out: &mut InternedBuilder<View<I>>,
    ) {
        let participants: BTreeSet<ProcessId> = input.vertices().iter().map(|(p, _)| *p).collect();
        if participants.is_empty() {
            return;
        }
        let graphs = self.round_graphs(&participants);
        self.rec_into(&input_views(input), &graphs, rounds, out);
    }

    fn rec_into<I: Label>(
        &self,
        state: &Simplex<View<I>>,
        graphs: &[BTreeMap<ProcessId, BTreeSet<ProcessId>>],
        rounds: usize,
        out: &mut InternedBuilder<View<I>>,
    ) {
        if rounds == 0 {
            out.add_facet(state);
            return;
        }
        let view_of: BTreeMap<ProcessId, &View<I>> =
            state.vertices().iter().map(|v| (v.process(), v)).collect();
        for graph in graphs {
            let next: Simplex<View<I>> = Simplex::new(
                state
                    .vertices()
                    .iter()
                    .map(|v| View::Round {
                        process: v.process(),
                        heard: graph[&v.process()]
                            .iter()
                            .map(|q| (*q, (*view_of[q]).clone()))
                            .collect(),
                    })
                    .collect(),
            );
            self.rec_into(&next, graphs, rounds - 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::input_simplex;
    use ps_core::process_set;
    use ps_topology::Homology;

    #[test]
    fn two_process_family_sizes() {
        // graphs on {a, b}: ∅, a→b, b→a, a⇄b — rooted keeps 3, strongly
        // connected keeps 1
        let rooted = DynamicModel::new(2, GraphFamily::Rooted);
        let strong = DynamicModel::new(2, GraphFamily::StronglyConnected);
        assert_eq!(rooted.round_graphs(&process_set(2)).len(), 3);
        assert_eq!(strong.round_graphs(&process_set(2)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "m(m−1) < 64")]
    fn round_graphs_rejects_edge_masks_wider_than_64_bits() {
        // 9 · 8 = 72 ordered pairs: the bitmask shifts would wrap
        let m = DynamicModel::new(9, GraphFamily::Rooted);
        let _ = m.round_graphs(&process_set(DynamicModel::MAX_PROCESSES + 1));
    }

    #[test]
    fn strongly_connected_is_subfamily_of_rooted() {
        let rooted = DynamicModel::new(3, GraphFamily::Rooted);
        let strong = DynamicModel::new(3, GraphFamily::StronglyConnected);
        let r = rooted.round_graphs(&process_set(3));
        let s = strong.round_graphs(&process_set(3));
        assert!(s.len() < r.len());
        assert!(r.len() < 64); // the empty graph at least is excluded
        for g in &s {
            assert!(r.contains(g));
        }
    }

    #[test]
    fn facets_are_full_dimensional_and_in_bijection_with_graphs() {
        let m = DynamicModel::new(3, GraphFamily::Rooted);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.one_round_complex(&input);
        assert_eq!(c.facet_count(), m.round_graphs(&process_set(3)).len());
        for f in c.facets() {
            assert_eq!(f.len(), 3);
        }
    }

    #[test]
    fn rooted_two_process_round_is_a_path() {
        // a→b, b→a, a⇄b give facets (a{a}, b{ab}), (a{ab}, b{b}),
        // (a{ab}, b{ab}): a 4-vertex path, connected and acyclic
        let m = DynamicModel::new(2, GraphFamily::Rooted);
        let input = input_simplex(&[0u8, 1]);
        let c = m.one_round_complex(&input);
        assert_eq!(c.facet_count(), 3);
        let h = Homology::reduced(&c);
        assert_eq!(h.betti(0), 0);
        assert_eq!(h.betti(1), 0);
    }

    #[test]
    fn strong_two_process_round_is_lockstep() {
        let m = DynamicModel::new(2, GraphFamily::StronglyConnected);
        let input = input_simplex(&[0u8, 1]);
        let c = m.protocol_complex(&input, 2);
        assert_eq!(c.facet_count(), 1);
    }

    #[test]
    fn multi_round_facet_count_is_a_power() {
        let m = DynamicModel::new(2, GraphFamily::Rooted);
        let input = input_simplex(&[0u8, 1]);
        let c = m.protocol_complex(&input, 2);
        assert_eq!(c.facet_count(), 9); // |D|^2
    }

    #[test]
    fn zero_rounds_identity() {
        let m = DynamicModel::new(3, GraphFamily::Rooted);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.protocol_complex(&input, 0);
        assert_eq!(c.facet_count(), 1);
    }

    #[test]
    fn singleton_system_has_one_graph() {
        let m = DynamicModel::new(1, GraphFamily::Rooted);
        assert_eq!(m.round_graphs(&process_set(1)).len(), 1);
        let input = input_simplex(&[7u8]);
        assert_eq!(m.protocol_complex(&input, 3).facet_count(), 1);
    }

    #[test]
    fn graph_family_names() {
        assert_eq!(GraphFamily::Rooted.name(), "rooted");
        assert_eq!(GraphFamily::StronglyConnected.name(), "strong");
    }
}
