//! Group actions, orbits, and canonical forms for protocol complexes.
//!
//! Every construction in the source paper is symmetric by design: a
//! pseudosphere `ψ(P; V)` is invariant under any relabeling of input
//! values and any permutation of processes that respects the failure
//! pattern, and the sync/semisync/async protocol complexes inherit
//! that symmetry round by round. This crate makes those symmetries
//! first-class objects:
//!
//! - [`Perm`] — finite permutations on dense vertex ids, with
//!   composition, inversion, and cycle-free image tables suited to the
//!   interned (`VertexPool` / `IdComplex`) representation.
//! - [`orbits`] — orbit partitions (union-find over generator
//!   images), single-point orbits, and Schreier-lemma point
//!   stabilizers.
//! - [`action`] — lifting a label-level action to a vertex-id
//!   permutation through a [`VertexPool`](ps_topology::VertexPool),
//!   applying permutations to [`IdSimplex`](ps_topology::IdSimplex) /
//!   [`IdComplex`](ps_topology::IdComplex), and an
//!   [`action::AutomorphismValidator`] that
//!   certifies a proposed generator set actually preserves a complex.
//! - [`canon`] — canonical forms of colored complexes via iterative
//!   color refinement with a budgeted partition-backtracking fallback,
//!   so two isomorphic instances produce the same canonical key.
//!
//! Downstream, `ps-agreement` uses these pieces for orbit branching in
//! the decision-map solver and for collapsing canonically-equal sweep
//! groups; the soundness arguments live in `DESIGN.md` §7.

#![warn(missing_docs)]

pub mod action;
pub mod canon;
pub mod orbits;
pub mod perm;

pub use action::{
    apply_to_complex, apply_to_simplex, label_permutation, pool_permutation, AutomorphismValidator,
};
pub use canon::{canonical_form, canonical_form_of, CanonicalForm, DEFAULT_BUDGET};
pub use orbits::{orbit_of, orbit_partition, point_stabilizer};
pub use perm::{all_permutations, transpositions, Perm};
