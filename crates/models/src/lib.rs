//! # ps-models: protocol complexes of message-passing models
//!
//! Executable forms of §6–§8 of *Unifying Synchronous and Asynchronous
//! Message-Passing Models* (PODC 1998) for its three timing models,
//! beside iterated immediate snapshot and two adversaries beyond the
//! paper. Every model builds the **explicit** protocol complex with
//! full-information views as vertex labels (one and `r` rounds) — input
//! to homology, the decision-map solver, and isomorphism cross-checks
//! against the `ps-runtime` simulator. The three timing models also
//! give the **symbolic** union-of-pseudospheres form of the one-round
//! complex (Lemmas 11, 14, 19), input to the `ps-core` Mayer–Vietoris
//! prover; sync and async give it for `r` rounds too. Their rounds are
//! unions of pseudospheres, so one crate-private round unfolding builds
//! the explicit and the symbolic forms of all three.
//!
//! | model | round structure | one-round complex |
//! |-------|-----------------|-------------------|
//! | [`AsyncModel`] | everyone hears ≥ n+1−f round messages | single pseudosphere (Lemma 11) |
//! | [`SyncModel`] | ≤ k crash per round, survivors hear survivors + subset of K | union over K (Lemma 14) |
//! | [`SemiSyncModel`] | microrounds, failure patterns, view boxes | union over (K, F) (Lemma 19) |
//! | [`IisModel`] | iterated immediate snapshot | one facet per ordered partition |
//! | [`ByzantineModel`] | ≤ t Byzantine, per-recipient equivocation menus | union over B of ψ(correct; menu^B) |
//! | [`DynamicModel`] | per-round directed graph from an oblivious family | one facet per admissible graph |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod view;
pub use view::{input_simplex, input_views, ss_input_views, InputSimplex, SsView, View};

pub mod asynchronous;
pub use asynchronous::AsyncModel;

pub mod sync;
pub use sync::SyncModel;

pub mod iis;
pub use iis::IisModel;

pub mod semisync;
pub use semisync::{FailurePattern, SemiSyncModel, SemiSyncTiming, ViewVector};

pub mod byzantine;
pub use byzantine::{equivocation_alphabet, ByzantineModel};

pub mod dynamic;
pub use dynamic::{DynamicModel, GraphFamily};

pub mod symmetry;
pub use symmetry::process_transpositions;

mod unfold;

pub mod schedules;
pub use schedules::{
    async_heard_schedules, semisync_crash_timings, sync_crash_schedules, AsyncSchedule, CrashPlan,
    HeardPlan, SyncSchedule, TimedCrashes,
};
