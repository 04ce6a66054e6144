//! # ps-core: pseudospheres and the Mayer–Vietoris connectivity prover
//!
//! The primary contribution of *Unifying Synchronous and Asynchronous
//! Message-Passing Models* (Herlihy–Rajsbaum–Tuttle, PODC 1998): the
//! **pseudosphere** (Definition 3), its combinatorial properties
//! (Lemma 4, Corollaries 6 and 8), and the proof machinery (Theorems 2,
//! 5, 7) that turns "the one-round protocol complex is a union of
//! pseudospheres" into connectivity lower bounds.
//!
//! * [`Pseudosphere`] — symbolic `ψ(S^m; U_0..U_m)` with exact
//!   connectivity, realization, and Lemma 4 operations;
//! * [`PseudosphereUnion`] — ordered unions with symbolic intersections;
//! * [`MvProver`] — certifies `k`-connectivity of unions by replaying the
//!   paper's Mayer–Vietoris induction, emitting a [`Proof`] tree;
//! * [`theorems`] — executable instance checkers for Theorems 5 and 7;
//! * [`ProcessId`] and subset utilities shared by the model crates.
//!
//! # Examples
//!
//! ```
//! use ps_core::{MvProver, Pseudosphere, PseudosphereUnion, process_simplex};
//!
//! // Corollary 8: ψ(S²;{0,1}) ∪ ψ(S²;{0,2}) is 1-connected because the
//! // families share the value 0.
//! let base = process_simplex(3);
//! let union: PseudosphereUnion<_, u8> = [
//!     Pseudosphere::uniform(base.clone(), [0, 1].into_iter().collect()),
//!     Pseudosphere::uniform(base.clone(), [0, 2].into_iter().collect()),
//! ]
//! .into_iter()
//! .collect();
//! let proof = MvProver::new().prove_k_connected(&union, 1).unwrap();
//! println!("{proof}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod process;
pub use process::{
    process_set, process_simplex, subsets_of_min_size, subsets_up_to_size, subsets_up_to_size_lex,
    ProcessId, MAX_SUBSET_BASE,
};

mod pseudosphere;
pub use pseudosphere::{PsError, Pseudosphere};

mod union;
pub use union::PseudosphereUnion;

mod prover;
pub use prover::{MvProver, Proof, ProveFailure, ProverStats};

pub mod theorems;
pub use theorems::{
    check_theorem5, check_theorem7, identity_protocol, SimplexProtocol, TheoremCheck,
};
