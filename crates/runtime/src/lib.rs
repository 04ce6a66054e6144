//! # ps-runtime: deterministic message-passing simulator
//!
//! The executable substrate behind the paper's three timing models: a
//! lockstep synchronous executor with crash adversaries (§7), a
//! round-structured asynchronous executor (§6), and a real-time
//! discrete-event semi-synchronous executor with `c1/c2/d` timing (§8).
//! All run on one event scheduler ([`sched`]); the synchronous,
//! asynchronous and FIFO-buffered round executors share one round
//! reactor and differ only in their delivery rule.
//!
//! Two roles:
//!
//! 1. **Run protocols** (`ps-protocols`' k-set flooding and BV
//!    consensus, `ps-agreement`'s asynchronous protocols, ...) under
//!    benign, scripted, random, and worst-case adversaries.
//! 2. **Regenerate protocol complexes from executions**: the exhaustive
//!    synchronous and asynchronous enumerators replay every schedule of
//!    `ps_models::schedules` (the paper's round-structured execution
//!    subsets, the spaces `psph conform` runs) through the executors,
//!    and the Byzantine and dynamic ones walk their adversaries'
//!    choices; each collects the reachable full-information views, and
//!    integration tests check the result against the `ps-models`
//!    combinatorial constructions (Lemmas 11, 14, 19 made executable).
//!
//! All executors are deterministic: random adversaries are seeded, and
//! events pop in (time, kind, push order) order — the scheduler buckets
//! its queue by time, each bucket a delivery FIFO ahead of a step FIFO.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod protocol;
pub use protocol::{FullInformation, RoundProtocol};

pub mod trace;
pub use trace::{final_view_complex, SyncTrace};

pub mod sync_exec;
pub use sync_exec::{
    enumerate_sync_views, NoFailures, RandomAdversary, RoundFailures, ScriptedAdversary,
    SyncAdversary, SyncExecutor,
};

pub mod async_exec;
pub use async_exec::{
    enumerate_async_views, AsyncAdversary, AsyncExecutor, FullDelivery, HeardSets,
    RandomAsyncAdversary, ScriptedHeardSets,
};

pub mod exhaustive;
pub use exhaustive::for_each_sync_execution;

pub mod adversary_enum;
pub use adversary_enum::{enumerate_byzantine_views, enumerate_dynamic_views};

pub mod buffered;
pub use buffered::{BufferedAsyncExecutor, ChannelStats};

pub mod semisync_exec;
pub use semisync_exec::{
    Lockstep, RandomTimedAdversary, ScriptedPattern, StretchAdversary, TimedAdversary, TimedEvent,
    TimedExecutor, TimedParams, TimedProtocol, TimedTrace,
};

pub mod sched;
pub use sched::{
    run_policy, run_policy_observed, run_policy_with_stats, traffic_run, traffic_run_protocol,
    AsyncPolicy, MultiObserver, PolicyRun, SchedConfig, SchedObserver, SchedStats, Scheduler,
    SemisyncPolicy, StepGossip, SyncPolicy, TimingPolicy, TrafficReport, MAX_PROCESSES,
};
