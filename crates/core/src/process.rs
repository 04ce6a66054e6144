//! Process identities and small set utilities shared by all models.

use std::collections::BTreeSet;
use std::fmt;

use ps_topology::Simplex;

/// A process identity `P_i` in a system of `n + 1` processes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Zero-based index of the process.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(i: u32) -> Self {
        ProcessId(i)
    }
}

/// The simplex `P^n` spanned by processes `P_0 .. P_n` (so `count`
/// vertices; the paper's system of `n + 1` processes is
/// `process_simplex(n + 1)`).
pub fn process_simplex(count: usize) -> Simplex<ProcessId> {
    Simplex::from_iter((0..count as u32).map(ProcessId))
}

/// The set `{P_0, ..., P_{count-1}}`.
pub fn process_set(count: usize) -> BTreeSet<ProcessId> {
    (0..count as u32).map(ProcessId).collect()
}

/// The largest base set the subset enumerators accept: their output is
/// exponential, and larger calls indicate a misuse.
pub const MAX_SUBSET_BASE: usize = 20;

/// All subsets of `base` with size at least `min_size` — the paper's
/// `2^U_{≥ min_size}` notation (Lemma 11 labels async views with
/// `2^{P - {P_i}}_{≥ n - f}`).
///
/// # Panics
///
/// Panics if `base` has more than [`MAX_SUBSET_BASE`] elements.
pub fn subsets_of_min_size<T: Clone + Ord>(
    base: &BTreeSet<T>,
    min_size: usize,
) -> Vec<BTreeSet<T>> {
    let items: Vec<&T> = base.iter().collect();
    assert!(
        items.len() <= MAX_SUBSET_BASE,
        "subset enumeration limited to ≤ {MAX_SUBSET_BASE} elements"
    );
    let mut out = Vec::new();
    for mask in 0u32..(1 << items.len()) {
        if (mask.count_ones() as usize) < min_size {
            continue;
        }
        out.push(
            items
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| (*v).clone())
                .collect(),
        );
    }
    out
}

/// All subsets of `base` with size at most `max_size`, in lexicographic
/// order (the ordering of failure sets used in §7: by size, then
/// lexicographic — see [`subsets_up_to_size_lex`] for the paper's exact
/// "sets ordered lexicographically" enumeration).
pub fn subsets_up_to_size<T: Clone + Ord>(base: &BTreeSet<T>, max_size: usize) -> Vec<BTreeSet<T>> {
    let items: Vec<&T> = base.iter().collect();
    assert!(
        items.len() <= MAX_SUBSET_BASE,
        "subset enumeration limited to ≤ {MAX_SUBSET_BASE} elements"
    );
    let mut out = Vec::new();
    for mask in 0u32..(1 << items.len()) {
        if (mask.count_ones() as usize) > max_size {
            continue;
        }
        out.push(
            items
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| (*v).clone())
                .collect(),
        );
    }
    out
}

/// Subsets of size at most `max_size` in the paper's §7 order: "the empty
/// set first, followed by singleton sets, followed by two-element sets,
/// and so on", each size class lexicographically.
pub fn subsets_up_to_size_lex<T: Clone + Ord>(
    base: &BTreeSet<T>,
    max_size: usize,
) -> Vec<BTreeSet<T>> {
    let mut all = subsets_up_to_size(base, max_size);
    all.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_simplex_shape() {
        let s = process_simplex(3);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.vertices(), &[ProcessId(0), ProcessId(1), ProcessId(2)]);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(ProcessId(3).to_string(), "P3");
        assert_eq!(format!("{:?}", ProcessId(0)), "P0");
        assert_eq!(ProcessId::from(5u32).index(), 5);
    }

    #[test]
    fn subsets_min_size_counts() {
        let base = process_set(4);
        assert_eq!(subsets_of_min_size(&base, 0).len(), 16);
        assert_eq!(subsets_of_min_size(&base, 2).len(), 11); // 6 + 4 + 1
        assert_eq!(subsets_of_min_size(&base, 4).len(), 1);
        assert_eq!(subsets_of_min_size(&base, 5).len(), 0);
    }

    #[test]
    fn subsets_max_size_counts() {
        let base = process_set(4);
        assert_eq!(subsets_up_to_size(&base, 0).len(), 1);
        assert_eq!(subsets_up_to_size(&base, 1).len(), 5);
        assert_eq!(subsets_up_to_size(&base, 4).len(), 16);
    }

    #[test]
    fn lex_order_matches_paper() {
        let base = process_set(3);
        let subsets = subsets_up_to_size_lex(&base, 2);
        let sizes: Vec<usize> = subsets.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![0, 1, 1, 1, 2, 2, 2]);
        // within size 1: P0 < P1 < P2
        assert_eq!(subsets[1].iter().next(), Some(&ProcessId(0)));
        assert_eq!(subsets[3].iter().next(), Some(&ProcessId(2)));
    }
}
