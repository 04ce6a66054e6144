//! Finite permutations on dense ids `0..n`.
//!
//! A [`Perm`] is stored as its image table: `perm.apply(i)` is
//! `images[i]`. This matches the interned representation used across
//! the workspace, where vertices of a complex are dense `u32` ids
//! assigned by a `VertexPool`.

use std::fmt;

/// A permutation of `0..degree()` stored as an image table.
///
/// Invariant: `images` is a bijection on `0..images.len()`; this is
/// checked by every constructor.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Perm {
    images: Vec<u32>,
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Perm{:?}", self.images)
    }
}

impl Perm {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Perm {
        Perm {
            images: (0..n as u32).collect(),
        }
    }

    /// The transposition `(a b)` on `0..n` (identity when `a == b`).
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    pub fn transposition(n: usize, a: u32, b: u32) -> Perm {
        assert!((a as usize) < n && (b as usize) < n, "point out of range");
        let mut images: Vec<u32> = (0..n as u32).collect();
        images.swap(a as usize, b as usize);
        Perm { images }
    }

    /// Builds a permutation from an image table, returning `None`
    /// unless the table is a bijection on `0..images.len()`.
    pub fn from_images(images: Vec<u32>) -> Option<Perm> {
        let n = images.len();
        let mut seen = vec![false; n];
        for &img in &images {
            let i = img as usize;
            if i >= n || seen[i] {
                return None;
            }
            seen[i] = true;
        }
        Some(Perm { images })
    }

    /// The number of points `n` this permutation acts on.
    pub fn degree(&self) -> usize {
        self.images.len()
    }

    /// The image of `x`.
    ///
    /// # Panics
    /// Panics if `x >= degree()`.
    pub fn apply(&self, x: u32) -> u32 {
        self.images[x as usize]
    }

    /// The raw image table (`images()[i]` is the image of `i`).
    pub fn images(&self) -> &[u32] {
        &self.images
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.images
            .iter()
            .enumerate()
            .all(|(i, &img)| i as u32 == img)
    }

    /// Functional composition: `self.then(g)` maps `x` to
    /// `g(self(x))` — `self` acts first.
    ///
    /// # Panics
    /// Panics if the degrees differ.
    pub fn then(&self, g: &Perm) -> Perm {
        assert_eq!(self.degree(), g.degree(), "degree mismatch");
        Perm {
            images: self.images.iter().map(|&x| g.images[x as usize]).collect(),
        }
    }
}

/// Every permutation of `0..n`, in lexicographic image-table order.
///
/// Intended for small `n` only (the caller should cap `n!`); panics if
/// `n > 8` to keep accidental blowups loud.
pub fn all_permutations(n: usize) -> Vec<Perm> {
    assert!(n <= 8, "all_permutations is for small degrees only");
    let mut out = Vec::new();
    let mut images: Vec<u32> = (0..n as u32).collect();
    loop {
        out.push(Perm {
            images: images.clone(),
        });
        // next lexicographic permutation of the image table
        let Some(i) = (0..n.saturating_sub(1))
            .rev()
            .find(|&i| images[i] < images[i + 1])
        else {
            break;
        };
        let j = (i + 1..n).rev().find(|&j| images[j] > images[i]).unwrap();
        images.swap(i, j);
        images[i + 1..].reverse();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_transposition_basics() {
        let id = Perm::identity(4);
        assert!(id.is_identity());
        assert_eq!(id.degree(), 4);
        let t = Perm::transposition(4, 1, 3);
        assert!(!t.is_identity());
        assert_eq!(t.apply(1), 3);
        assert_eq!(t.apply(3), 1);
        assert_eq!(t.apply(0), 0);
        assert!(t.then(&t).is_identity());
    }

    #[test]
    fn from_images_rejects_non_bijections() {
        assert!(Perm::from_images(vec![0, 0, 2]).is_none());
        assert!(Perm::from_images(vec![0, 3]).is_none());
        assert!(Perm::from_images(vec![2, 0, 1]).is_some());
        assert!(Perm::from_images(vec![]).is_some());
    }

    #[test]
    fn composition_is_left_to_right() {
        // f = (0 1), g = (1 2); f.then(g) maps 0 -> f(0)=1 -> g(1)=2
        let f = Perm::transposition(3, 0, 1);
        let g = Perm::transposition(3, 1, 2);
        let fg = f.then(&g);
        assert_eq!(fg.apply(0), 2);
        assert_eq!(fg.apply(1), 0);
        assert_eq!(fg.apply(2), 1);
    }

    #[test]
    fn all_permutations_lists_each_once() {
        let all = all_permutations(4);
        assert_eq!(all.len(), 24);
        // all distinct
        let set: std::collections::BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), 24);
        assert!(all[0].is_identity());
    }
}
