//! Group actions and canonical forms for protocol complexes.
//!
//! Every construction in the source paper is symmetric by design: a
//! pseudosphere `ψ(P; V)` is invariant under any relabeling of input
//! values and any permutation of processes that respects the failure
//! pattern, and the sync/semisync/async protocol complexes inherit
//! that symmetry round by round. This crate holds what the pipeline
//! runs on those symmetries:
//!
//! - [`Perm`] — finite permutations on dense vertex ids (identity,
//!   transpositions, composition, image tables), suited to the
//!   interned (`VertexPool` / `IdComplex`) representation;
//! - [`action`] — lifting a label-level action to a vertex-id
//!   permutation ([`label_permutation`]), applying one to an
//!   [`IdSimplex`](ps_topology::IdSimplex), and an
//!   [`action::AutomorphismValidator`] that checks a permutation
//!   preserves an [`IdComplex`](ps_topology::IdComplex), on its
//!   pseudosphere cover or its facets;
//! - [`canon`] — canonical forms of colored complexes via iterative
//!   color refinement with a budgeted partition-backtracking fallback,
//!   so two isomorphic instances produce the same canonical key.
//!
//! Downstream, `ps-agreement` certifies task symmetries with these
//! pieces for orbit branching in the decision-map solver (which
//! tracks orbits itself, from the certified generators) and collapses
//! canonically-equal sweep groups; the soundness arguments live in
//! `DESIGN.md` §7.

#![warn(missing_docs)]

pub mod action;
pub mod canon;
pub mod perm;

pub use action::{apply_to_simplex, label_permutation, AutomorphismValidator};
pub use canon::{canonical_form, CanonicalForm, DEFAULT_BUDGET};
pub use perm::{all_permutations, Perm};
