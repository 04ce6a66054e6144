//! # ps-protocols: executable protocols for the verdict-conformance loop
//!
//! Real round-based protocols that *run* on the `ps-runtime` executors
//! and unified scheduler — the positive side of the paper's solvability
//! verdicts made executable. Where `ps-models` proves what is possible
//! via protocol-complex topology, this crate provides the protocols
//! that must actually achieve it (and must observably *fail* where the
//! topology says the task is impossible):
//!
//! * [`KSetFlood`] — generalized k-set flooding. One [`RoundProtocol`]
//!   serving both the synchronous (§7) and asynchronous (§6) round
//!   structures; [`TimedKSetFlood`] is its semi-synchronous (§8)
//!   step-counted form.
//! * [`EarlyFloodSet`] — early-deciding consensus flooding with the
//!   `f + 1`-round [`KSetFlood`] budget as fallback.
//! * [`BvConsensus`] — a BV-broadcast-style safe binary consensus:
//!   EST/AUX phases, singleton-adoption, unanimity decision. Crash-safe
//!   synchronously for any `f`; asynchronously safe under the classical
//!   `n + 1 ≥ 2f + 1` quorum condition.
//! * [`Rounds`] — adapter running any [`RoundProtocol`] as a
//!   [`TimedProtocol`] on the unified scheduler (round-tagged messages,
//!   microround pacing), e.g. for `psph traffic --protocol bv`.
//! * [`VectorClockObserver`] / [`ChandyLamportObserver`] — reusable
//!   [`SchedObserver`]s: vector-clock causality tracking and a
//!   Chandy–Lamport-style consistent-cut channel accounting check,
//!   attachable to any scheduler run.
//!
//! The conformance harness in `ps-agreement` drives these protocols
//! through exhaustive and randomized adversary schedules and compares
//! the outcomes against the sweep verdicts (`psph conform`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use ps_runtime::{RoundProtocol, SchedObserver, TimedProtocol};

pub mod kset;
pub use kset::{KSetFlood, KSetFloodState, TimedKSetFlood, TimedKSetFloodState};

pub mod early;
pub use early::{EarlyFloodSet, EarlyFloodSetState};

pub mod bv;
pub use bv::{BvConsensus, BvMsg, BvPhase, BvState};

pub mod adapter;
pub use adapter::{Rounds, RoundsMsg, RoundsState};

pub mod observers;
pub use observers::{ChandyLamportObserver, ChannelCut, VectorClockObserver};
