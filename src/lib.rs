//! # pseudosphere — unifying synchronous and asynchronous message-passing
//!
//! A complete, executable reproduction of *Unifying Synchronous and
//! Asynchronous Message-Passing Models* (Herlihy, Rajsbaum, Tuttle,
//! PODC 1998). The paper shows that the protocol complexes of the
//! synchronous, semi-synchronous, and asynchronous message-passing models
//! are all unions of **pseudospheres**, and derives consensus and k-set
//! agreement lower bounds from the connectivity of those unions.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`topology`] — simplicial complexes, homology, connectivity
//!   certificates, Sperner machinery (the paper's §3);
//! * [`core`] — pseudospheres, unions, the Mayer–Vietoris prover (§5);
//! * [`models`] — protocol complexes for the asynchronous (§6),
//!   synchronous (§7), and semi-synchronous (§8) models;
//! * [`runtime`] — a deterministic discrete-event message-passing
//!   simulator whose exhaustively enumerated executions regenerate those
//!   complexes;
//! * [`protocols`] — executable round-based protocols (per-model k-set
//!   flooding, early-deciding consensus flooding, BV-style binary
//!   consensus) plus vector-clock and snapshot observers for the
//!   scheduler;
//! * [`agreement`] — decision tasks, the Corollary 22 stretch
//!   experiment, the exhaustive decision-map solver used for the
//!   impossibility experiments, and the verdict-conformance harness
//!   that runs protocols against sweep verdicts.
//!
//! # Quickstart
//!
//! ```
//! use pseudosphere::core::{process_simplex, Pseudosphere};
//! use pseudosphere::topology::Homology;
//!
//! // Figure 1 of the paper: the 3-process binary pseudosphere is S².
//! let ps = Pseudosphere::uniform(process_simplex(3), [0u8, 1].into_iter().collect());
//! let h = Homology::reduced(&ps.realize());
//! assert_eq!(h.betti(2), 1);
//! ```

#![warn(missing_docs)]

pub use ps_agreement as agreement;
pub use ps_core as core;
pub use ps_models as models;
pub use ps_protocols as protocols;
pub use ps_runtime as runtime;
pub use ps_symmetry as symmetry;
pub use ps_topology as topology;
