//! Process-permutation symmetries of the failure models.
//!
//! A process permutation `ρ` is a symmetry of a model when relabeling
//! every execution by `ρ` yields exactly the executions of the same
//! model — equivalently, when `ρ` maps the model's set of allowed
//! failure patterns onto itself. Every model in this crate is
//! process-anonymous: the crash models bound failures *uniformly* (a
//! global per-round cap `k` and a global total budget `f`, never
//! per-process budgets), semi-synchronous timing bounds are the same
//! for every sender-receiver pair, the Byzantine adversary may corrupt
//! *any* `t` processes, and both dynamic graph families are defined by
//! reachability over all vertices. So **every** permutation of the
//! participants qualifies, and the transpositions returned here
//! generate the full symmetric group. A model variant with per-process
//! reliability would instead need only the budget-preserving
//! permutations; downstream consumers must not assume the generated
//! group is all of `S_{n+1}`, only that each returned table is a
//! certified symmetry.
//!
//! Generators are returned as raw image tables (`table[p]` is the
//! image of process `p`) so this crate stays independent of the
//! group-theory machinery in `ps-symmetry`, which lifts these tables
//! to vertex permutations of interned protocol complexes.

use ps_core::ProcessId;

/// Image tables of all transpositions `(i j)` of `0..n_plus_1`
/// processes — generators of the full symmetric group.
pub fn process_transpositions(n_plus_1: usize) -> Vec<Vec<ProcessId>> {
    let mut out = Vec::new();
    for i in 0..n_plus_1 {
        for j in (i + 1)..n_plus_1 {
            let mut table: Vec<ProcessId> = (0..n_plus_1).map(|p| ProcessId(p as u32)).collect();
            table.swap(i, j);
            out.push(table);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::input_simplex;
    use crate::{AsyncModel, ByzantineModel, DynamicModel, GraphFamily, SemiSyncModel, SyncModel};

    #[test]
    fn transposition_tables_are_bijections() {
        let gens = process_transpositions(4);
        assert_eq!(gens.len(), 6);
        for t in &gens {
            let mut seen = [false; 4];
            for p in t {
                assert!(!seen[p.0 as usize]);
                seen[p.0 as usize] = true;
            }
        }
    }

    #[test]
    fn byzantine_complex_invariant_under_matched_relabeling() {
        let m = ByzantineModel::new(3, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.protocol_complex(&input, 1);
        let swap_p = |p: ProcessId| match p.0 {
            0 => ProcessId(1),
            1 => ProcessId(0),
            q => ProcessId(q),
        };
        let swap_v = |v: &u8| match *v {
            0 => 1u8,
            1 => 0,
            x => x,
        };
        let moved = c.map(|view| view.relabel(&swap_p, &swap_v));
        assert_eq!(moved, c);
    }

    #[test]
    fn dynamic_complex_invariant_under_matched_relabeling() {
        for family in [GraphFamily::Rooted, GraphFamily::StronglyConnected] {
            let m = DynamicModel::new(3, family);
            let input = input_simplex(&[0u8, 1, 2]);
            let c = m.protocol_complex(&input, 1);
            let swap_p = |p: ProcessId| match p.0 {
                0 => ProcessId(2),
                2 => ProcessId(0),
                q => ProcessId(q),
            };
            let swap_v = |v: &u8| match *v {
                0 => 2u8,
                2 => 0,
                x => x,
            };
            let moved = c.map(|view| view.relabel(&swap_p, &swap_v));
            assert_eq!(moved, c, "family {family:?}");
        }
    }

    #[test]
    fn sync_complex_invariant_under_process_and_value_relabeling() {
        // symmetric input: every process holds the same value set via a
        // symmetric assignment (all inputs equal), so both process and
        // value permutations must preserve the protocol complex
        let m = SyncModel::new(3, 1, 1);
        let input = input_simplex(&[0u8, 1, 2]);
        let c = m.protocol_complex(&input, 1);
        // swap processes 0 and 1 *and* their inputs 0 and 1: this maps
        // the input simplex to itself, hence the complex to itself
        let swap_p = |p: ProcessId| match p.0 {
            0 => ProcessId(1),
            1 => ProcessId(0),
            q => ProcessId(q),
        };
        let swap_v = |v: &u8| match *v {
            0 => 1u8,
            1 => 0,
            x => x,
        };
        let moved = c.map(|view| view.relabel(&swap_p, &swap_v));
        assert_eq!(moved, c);
        // a process swap alone changes who holds which input: not an
        // automorphism of this (asymmetric-input) complex
        let broken = c.map(|view| view.relabel(&swap_p, &|v: &u8| *v));
        assert_ne!(broken, c);
    }

    #[test]
    fn async_complex_invariant_under_matched_relabeling() {
        let m = AsyncModel::new(3, 1);
        let input = input_simplex(&[5u8, 7, 5]);
        let c = m.protocol_complex(&input, 1);
        // swapping processes 0 and 2 (which hold equal inputs) is an
        // automorphism even without a value permutation
        let swap_p = |p: ProcessId| match p.0 {
            0 => ProcessId(2),
            2 => ProcessId(0),
            q => ProcessId(q),
        };
        let moved = c.map(|view| view.relabel(&swap_p, &|v: &u8| *v));
        assert_eq!(moved, c);
    }

    #[test]
    fn semisync_relabel_preserves_microrounds() {
        let m = SemiSyncModel::new(2, 1, 1, 2);
        let input = input_simplex(&[0u8, 1]);
        let c = m.protocol_complex(&input, 1);
        let swap_p = |p: ProcessId| ProcessId(1 - p.0);
        let swap_v = |v: &u8| 1 - *v;
        let moved = c.map(|view| view.relabel(&swap_p, &swap_v));
        assert_eq!(moved, c);
    }
}
