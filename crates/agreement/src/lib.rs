//! # ps-agreement: tasks, protocols, and the impossibility solver
//!
//! The task layer of the reproduction: k-set agreement and consensus
//! (§4) and the exhaustive decision-map solver that turns the paper's
//! impossibility theorems (Theorem 9, Corollaries 10/13, Theorem 18,
//! Corollary 22) into machine-checked statements about concrete
//! instances (the upper-bound flooding protocols live in ps-protocols).
//!
//! * [`KSetAgreement`] — the task;
//! * [`DecisionMapSolver`] — complete backtracking search for decision
//!   maps on protocol complexes (no map found ⇒ instance-level
//!   impossibility proof);
//! * [`stretch_experiment`] — the Corollary 22 semi-synchronous timing
//!   experiment, run on ps-protocols' `TimedKSetFlood`;
//! * [`WaitForAll`] / [`OwnValue`] — the asynchronous positive side;
//! * [`experiments`] — task-complex builders and solver sweeps used by
//!   the benchmark harness and EXPERIMENTS.md;
//! * [`conform`] — the verdict-conformance harness: every `Solvable`
//!   sweep point must run a protocol to a correct decision on all
//!   executed schedules, every `Impossible` point must yield a
//!   replayable protocol-failure witness;
//! * [`symmetry`] — certified instance symmetries (process/value
//!   relabelings that fix the task), the fuel for the solver's orbit
//!   branching and the sweeps' canonical-form deduplication.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod task;
pub use task::KSetAgreement;

mod solver;
pub use solver::{
    AgreementConstraint, DecisionMapSolver, PreparedInstance, SolverConfig, SolverStats,
};

mod timed;
pub use timed::{stretch_experiment, stretch_trace, StretchOutcome};

mod asynchronous;
pub use asynchronous::{OwnValue, WaitForAll};

pub mod symmetry;
pub use symmetry::{
    instance_fingerprint, instance_key, instance_key_budgeted, task_symmetries, ExactKey,
    InstanceFingerprint, InstanceKey, InstanceSymmetry, StructuralKey, SymmetricView,
};

pub mod store;
pub use store::{StoreKey, StoreReport, StoredVerdict, VerdictStore};

pub mod serve;
pub use serve::{AnswerSource, QueryAnswer, QueryEngine, ServeMetrics};

pub mod conform;
pub use conform::{
    conformance_check, ConformConfig, ConformReport, PointOutcome, PointReport, WitnessSchedule,
};

#[cfg(test)]
mod deferred_certification;

pub mod experiments;
pub use experiments::{
    allowed_values, allowed_values_ss, async_approximate_solvable, async_solvable,
    async_task_complex, async_task_parts, byzantine_solvable, byzantine_task_parts,
    connectivity_sweep_shared, corollary10_async, dynamic_solvable, dynamic_task_parts,
    input_faces, semisync_solvable, semisync_task_complex, semisync_task_parts, solvability_sweep,
    solvability_sweep_opts, solvability_sweep_shared, solvability_sweep_shared_opts,
    solvability_sweep_shared_store, sync_solvable, sync_task_complex, sync_task_parts,
    ConnectivityResult, Corollary10Report, SolvabilityResult, StoreSweepReport, SweepKey,
    SweepOptions, SweepPoint, TaskParts,
};
