//! # ps-topology: combinatorial topology substrate
//!
//! The machinery of §3 of *Unifying Synchronous and Asynchronous
//! Message-Passing Models* (Herlihy–Rajsbaum–Tuttle, PODC 1998):
//! simplexes, simplicial complexes, simplicial maps, and computable
//! connectivity.
//!
//! The paper reasons about `k`-connectivity (Definition 1) through the
//! Mayer–Vietoris consequence (its Theorem 2). This crate supplies the
//! concrete side of that reasoning:
//!
//! * [`Simplex`] and [`Complex`] — the face lattice;
//! * [`Homology`] — reduced simplicial homology over ℤ (Smith normal form)
//!   and GF(2);
//! * [`ConnectivityAnalyzer`] — certified `k`-connectivity decisions
//!   combining homology, collapsibility, and a π₁ triviality check;
//! * [`barycentric_subdivision`] and [`sperner`] — the Sperner's-Lemma
//!   machinery behind the paper's Theorem 9;
//! * [`find_isomorphism`] — witness search for the isomorphisms asserted
//!   by the paper's Lemmas 11, 14, and 19;
//! * [`export`] — DOT/OFF/text renderers that regenerate Figures 1–3.
//!
//! # Examples
//!
//! ```
//! use ps_topology::{Complex, Simplex, Homology};
//!
//! // The boundary of a tetrahedron is a 2-sphere.
//! let sphere = Complex::simplex(Simplex::from_iter(0..4)).skeleton(2);
//! let h = Homology::reduced(&sphere);
//! assert_eq!(h.betti(2), 1);
//! assert_eq!(h.homological_connectivity(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Trait alias for vertex-label types: cloneable, totally ordered,
/// hashable, debuggable, and shareable across threads (labels are plain
/// data; the `Send + Sync` bounds let the [`parallel`] work-sharding
/// layer run homology jobs over complexes concurrently).
/// Blanket-implemented; never implement manually.
pub trait Label: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync {}
impl<T: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync> Label for T {}

mod simplex;
pub use simplex::Simplex;

mod complex;
pub use complex::Complex;

pub mod intern;
pub use intern::{
    for_each_product, IdComplex, IdSimplex, InternedBuilder, PseudosphereCover, VertexPool,
};

pub mod matrix;

pub mod parallel;

pub mod sparse_gf2;

mod prepared;
pub use prepared::PreparedBoundary;

mod chain;
pub use chain::ChainComplex;

mod homology;
pub use homology::{Homology, HomologyGroup};

mod connectivity;
pub use connectivity::{is_collapsible, pi1_trivial, ConnectivityAnalyzer, Pi1, Verdict};

mod subdivision;
pub use subdivision::{barycentric_subdivision, carrier};

pub mod sperner;

mod map;
pub use map::{are_isomorphic, find_isomorphism, SimplicialMap};

pub mod export;

pub mod svg;

mod carrier;
pub use carrier::CarrierMap;

mod shelling;
pub use shelling::{find_shelling, is_shellable, verify_shelling};

mod nerve;
pub use nerve::{nerve, nerve_lemma_hypothesis};

mod chains;
pub use chains::{indistinguishability_chain, ChainLink, FacetGraph};
