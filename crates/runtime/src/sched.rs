//! The unified deterministic event scheduler: one event loop for all
//! three timing models.
//!
//! The paper's central claim is that the synchronous, semi-synchronous,
//! and asynchronous models are *one* framework differing only in timing
//! constraints. This module makes the runtime match that thesis: a
//! single discrete-event core ([`Scheduler`]) with a monotone event
//! queue and indexed per-process mailboxes, on which the three models
//! are nothing but [`TimingPolicy`] implementations:
//!
//! * [`SyncPolicy`] — lockstep rounds: every process steps once per
//!   tick, every message arrives by the next tick;
//! * [`SemisyncPolicy`] — the §8 `c1/c2/d` windows of [`TimedParams`],
//!   adversary-chosen within bounds (enforced);
//! * [`AsyncPolicy`] — unbounded adversary-chosen step intervals and
//!   delays (no window is enforced).
//!
//! Events pop in the total order `(time, kind, push order)`: deliveries
//! before steps at equal times, each kind in the order it was scheduled.
//! The queue keeps one bucket per pending time, holding a delivery FIFO
//! and a step FIFO, so it realizes that order by construction rather
//! than by comparing events.
//!
//! All policies consume the same [`TimedAdversary`] interface, so
//! `Lockstep`, `StretchAdversary`, `ScriptedPattern`, and
//! `RandomTimedAdversary` drive any of the three models over the same
//! event stream. The legacy executors (`SyncExecutor`, `AsyncExecutor`,
//! `BufferedAsyncExecutor`, `TimedExecutor`) are facades over this core
//! producing byte-identical traces — `tests/runtime_equivalence.rs` pins
//! that against the retained reference implementations. `TimedExecutor`
//! runs through [`run_policy`]; the three round executors share one
//! round reactor and differ only in their delivery rule (which round
//! messages reach whom).
//!
//! Invariants are checked on every event, in every mode (they are the
//! PR-2 proptest properties promoted to always-on checks):
//!
//! 1. **chronology** — popped event times never decrease;
//! 2. **FIFO per channel** — per-channel delivery times never decrease
//!    (arrival clamping at enqueue, asserted again at dequeue);
//! 3. **delivery accounting** — the delivered counter equals the number
//!    of accepted `Deliver` events (asserted against the event log when
//!    logging is on).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use ps_core::ProcessId;
use ps_topology::Label;

use crate::protocol::RoundProtocol;
use crate::semisync_exec::{TimedAdversary, TimedEvent, TimedParams, TimedProtocol, TimedTrace};
use crate::trace::SyncTrace;

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

/// A popped event's payload.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// A message delivery (deliveries pop before steps at equal times,
    /// so a step sees every message that arrived "by" its step time).
    Deliver {
        /// Receiver.
        dst: ProcessId,
        /// Sender.
        src: ProcessId,
        /// Payload.
        msg: M,
    },
    /// A process step.
    Step {
        /// The stepping process.
        p: ProcessId,
    },
}

/// A popped event: its scheduled time and its payload.
#[derive(Debug)]
pub(crate) struct QueuedEvent<M> {
    /// Scheduled time.
    pub(crate) time: u64,
    /// The event payload.
    pub(crate) kind: EventKind<M>,
}

/// A pending delivery. It stores neither its time (the key of its
/// bucket) nor a sequence number (its place in the bucket's FIFO).
#[derive(Debug)]
struct Delivery<M> {
    src: ProcessId,
    dst: ProcessId,
    msg: M,
}

/// The events pending at one time: deliveries, then steps, each in push
/// order. A bucket in the queue is never empty.
#[derive(Debug)]
struct Bucket<M> {
    deliveries: VecDeque<Delivery<M>>,
    steps: VecDeque<ProcessId>,
}

/// The monotone event queue. Events pop in `(time, kind, push order)`
/// order: by time, then deliveries before steps, then first pushed first
/// popped. Payload fields take no part in the order, so two same-channel
/// messages scheduled at the same tick pop in send order (FIFO per
/// channel).
///
/// The queue keeps one [`Bucket`] per pending time, so a push or a pop
/// costs a lookup among the few pending times plus a FIFO operation. A
/// delivery pushed at the time being popped joins that time's delivery
/// FIFO and still pops before the steps pending there.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    buckets: BTreeMap<u64, Bucket<M>>,
    len: usize,
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            len: 0,
        }
    }

    fn bucket(&mut self, time: u64) -> &mut Bucket<M> {
        self.len += 1;
        self.buckets.entry(time).or_insert_with(|| Bucket {
            deliveries: VecDeque::new(),
            steps: VecDeque::new(),
        })
    }

    /// Schedules a delivery at `time`.
    pub(crate) fn push_deliver(&mut self, time: u64, src: ProcessId, dst: ProcessId, msg: M) {
        self.bucket(time)
            .deliveries
            .push_back(Delivery { src, dst, msg });
    }

    /// Schedules a step of `p` at `time`.
    pub(crate) fn push_step(&mut self, time: u64, p: ProcessId) {
        self.bucket(time).steps.push_back(p);
    }

    /// Pops the next event in `(time, kind, push order)` order.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent<M>> {
        let mut first = self.buckets.first_entry()?;
        let time = *first.key();
        let bucket = first.get_mut();
        let kind = match bucket.deliveries.pop_front() {
            Some(Delivery { src, dst, msg }) => EventKind::Deliver { dst, src, msg },
            None => EventKind::Step {
                p: bucket
                    .steps
                    .pop_front()
                    .expect("queued buckets are nonempty"),
            },
        };
        if bucket.deliveries.is_empty() && bucket.steps.is_empty() {
            first.remove();
        }
        self.len -= 1;
        Some(QueuedEvent { time, kind })
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

/// Passive instrumentation attached to a scheduler run.
///
/// Observers see every send, delivery, drop, step, crash detection, and
/// decision as it happens, but cannot influence the run: the scheduler's
/// state transitions are identical with and without an observer attached
/// (`tests/runtime_equivalence.rs` relies on this). This is the hook
/// behind the reusable protocol instrumentation in `ps-protocols` —
/// vector clocks and Chandy–Lamport channel snapshots.
///
/// All methods default to no-ops so an observer implements only what it
/// watches. To attach several at once, compose them with
/// [`MultiObserver`].
pub trait SchedObserver {
    /// A message was scheduled on channel `src → dst` at `sent`, with
    /// (FIFO-clamped) arrival time `arrival`.
    fn on_send(&mut self, src: ProcessId, dst: ProcessId, sent: u64, arrival: u64) {
        let _ = (src, dst, sent, arrival);
    }

    /// A message on `src → dst` was delivered into `dst`'s inbox at
    /// `time`.
    fn on_deliver(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        let _ = (src, dst, time);
    }

    /// A message on `src → dst` was dropped at `time` (receiver
    /// crashed).
    fn on_drop(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        let _ = (src, dst, time);
    }

    /// Process `p` executed its `step`-th step at `time`.
    fn on_step(&mut self, p: ProcessId, time: u64, step: u64) {
        let _ = (p, time, step);
    }

    /// Process `p`'s crash was detected at `time`.
    fn on_crash(&mut self, p: ProcessId, time: u64) {
        let _ = (p, time);
    }

    /// Process `p` decided at `time`.
    fn on_decide(&mut self, p: ProcessId, time: u64) {
        let _ = (p, time);
    }
}

/// Forwards to a borrowed observer. Internal: re-borrowing through this
/// newtype lets the scheduler hand shorter-lived `&mut dyn SchedObserver`
/// views into [`Ctl`] (a bare `&mut dyn` is invariant in its
/// trait-object lifetime and cannot be shortened directly).
struct Relay<'x>(&'x mut dyn SchedObserver);

impl SchedObserver for Relay<'_> {
    fn on_send(&mut self, src: ProcessId, dst: ProcessId, sent: u64, arrival: u64) {
        self.0.on_send(src, dst, sent, arrival);
    }
    fn on_deliver(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        self.0.on_deliver(src, dst, time);
    }
    fn on_drop(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        self.0.on_drop(src, dst, time);
    }
    fn on_step(&mut self, p: ProcessId, time: u64, step: u64) {
        self.0.on_step(p, time, step);
    }
    fn on_crash(&mut self, p: ProcessId, time: u64) {
        self.0.on_crash(p, time);
    }
    fn on_decide(&mut self, p: ProcessId, time: u64) {
        self.0.on_decide(p, time);
    }
}

/// Fans scheduler callbacks out to several observers in order.
pub struct MultiObserver<'a> {
    /// The observers, notified in slice order.
    pub observers: Vec<&'a mut dyn SchedObserver>,
}

impl fmt::Debug for MultiObserver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiObserver")
            .field("count", &self.observers.len())
            .finish()
    }
}

impl SchedObserver for MultiObserver<'_> {
    fn on_send(&mut self, src: ProcessId, dst: ProcessId, sent: u64, arrival: u64) {
        for o in &mut self.observers {
            o.on_send(src, dst, sent, arrival);
        }
    }
    fn on_deliver(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        for o in &mut self.observers {
            o.on_deliver(src, dst, time);
        }
    }
    fn on_drop(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        for o in &mut self.observers {
            o.on_drop(src, dst, time);
        }
    }
    fn on_step(&mut self, p: ProcessId, time: u64, step: u64) {
        for o in &mut self.observers {
            o.on_step(p, time, step);
        }
    }
    fn on_crash(&mut self, p: ProcessId, time: u64) {
        for o in &mut self.observers {
            o.on_crash(p, time);
        }
    }
    fn on_decide(&mut self, p: ProcessId, time: u64) {
        for o in &mut self.observers {
            o.on_decide(p, time);
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

/// Scheduler run configuration.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Hard time horizon: the run stops (without processing) at the
    /// first event scheduled past this time.
    pub max_time: u64,
    /// Whether decided processes halt (the §4 rule of the timed model):
    /// a decided process's steps are silently skipped, and the run stops
    /// as soon as every process is decided or crashed (checked after
    /// each productive event). Round facades keep stepping decided
    /// processes and leave this off.
    pub halt_decided: bool,
    /// Whether to keep the full [`TimedEvent`] log. Off for
    /// heavy-traffic runs: invariants are still checked, but the
    /// per-event log (which would be millions of entries) is not kept.
    pub log_events: bool,
    /// Stop once this many messages have been delivered (traffic runs).
    pub stop_after_delivered: Option<u64>,
}

/// Aggregate counters of one scheduler run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Productive events processed (accepted deliveries + executed
    /// steps).
    pub events: u64,
    /// Messages delivered into inboxes.
    pub delivered: u64,
    /// Deliveries dropped at crashed receivers.
    pub dropped: u64,
    /// Steps executed.
    pub steps: u64,
    /// Crashes detected.
    pub crashes: u64,
    /// Time of the last processed event (or the horizon if hit).
    pub end_time: u64,
}

/// What a running reactor may do: schedule deliveries and steps, mark
/// decisions, and halt the run. Handed to [`Reactor`] callbacks.
pub struct Ctl<'a, M> {
    now: u64,
    n: usize,
    queue: &'a mut EventQueue<M>,
    last_scheduled: &'a mut [u64],
    decided: &'a mut [bool],
    events: &'a mut Vec<TimedEvent>,
    log_events: bool,
    halted: &'a mut bool,
    observer: Option<&'a mut dyn SchedObserver>,
}

impl<M> fmt::Debug for Ctl<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctl")
            .field("now", &self.now)
            .field("n", &self.n)
            .field("pending", &self.queue.len())
            .finish()
    }
}

impl<M> Ctl<'_, M> {
    /// The current event time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Schedules delivery of `msg` on channel `src → dst` with nominal
    /// arrival time `arrival`. The arrival is clamped to the channel's
    /// last scheduled delivery so per-channel FIFO order holds by
    /// construction.
    pub fn send(&mut self, src: ProcessId, dst: ProcessId, arrival: u64, msg: M) {
        let ch = src.index() * self.n + dst.index();
        let at = arrival.max(self.last_scheduled[ch]);
        self.last_scheduled[ch] = at;
        self.queue.push_deliver(at, src, dst, msg);
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_send(src, dst, self.now, at);
        }
    }

    /// Schedules a step of `p` at absolute time `at`.
    pub fn schedule_step(&mut self, p: ProcessId, at: u64) {
        self.queue.push_step(at, p);
    }

    /// Marks `p` decided (logging a [`TimedEvent::Decide`] at the
    /// current time).
    pub fn decide(&mut self, p: ProcessId) {
        self.decided[p.index()] = true;
        if self.log_events {
            self.events.push(TimedEvent::Decide(self.now, p));
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_decide(p, self.now);
        }
    }

    /// Stops the run after the current event.
    pub fn halt(&mut self) {
        *self.halted = true;
    }
}

/// A protocol driver plugged into the [`Scheduler`]: reacts to steps,
/// schedules its own deliveries and steps through [`Ctl`].
pub trait Reactor<M> {
    /// Model-level crash time of `p`, if any (the scheduler skips and
    /// logs steps of crashed processes, and drops deliveries to
    /// receivers whose crash has been detected).
    fn crash_time(&self, p: ProcessId) -> Option<u64> {
        let _ = p;
        None
    }

    /// Called once before the loop; push the initial events here.
    fn on_start(&mut self, ctl: &mut Ctl<'_, M>);

    /// Process `p` takes its `step`-th step at `now` with the messages
    /// delivered since its previous step.
    fn on_step(
        &mut self,
        p: ProcessId,
        now: u64,
        step: u64,
        inbox: &[(ProcessId, M)],
        ctl: &mut Ctl<'_, M>,
    );
}

/// The most processes a [`Scheduler`] runs. It keeps two `n × n` tables
/// of per-channel times, so this bound keeps them at 256 MiB; the largest
/// traffic run measured (E18) has 1000 processes.
pub const MAX_PROCESSES: usize = 4096;

/// The unified deterministic discrete-event scheduler.
///
/// Owns the event queue, indexed per-process inboxes (pooled buffers —
/// no per-event allocation in steady state), per-channel FIFO clamps,
/// crash/decision flags, and the accounting counters. Timing semantics
/// live entirely in the [`Reactor`] (and its [`TimingPolicy`]).
#[derive(Debug)]
pub struct Scheduler<M> {
    n: usize,
    cfg: SchedConfig,
    queue: EventQueue<M>,
    inboxes: Vec<Vec<(ProcessId, M)>>,
    pool: Vec<Vec<(ProcessId, M)>>,
    last_scheduled: Vec<u64>,
    last_popped: Vec<u64>,
    crashes: Vec<Option<u64>>,
    decided: Vec<bool>,
    steps_taken: Vec<u64>,
    delivered: u64,
    dropped: u64,
    crashes_detected: u64,
    steps_executed: u64,
    processed: u64,
    events: Vec<TimedEvent>,
    last_time: u64,
    end_time: u64,
    halted: bool,
}

impl<M: Label> Scheduler<M> {
    /// Creates a scheduler for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_PROCESSES`].
    pub fn new(n: usize, cfg: SchedConfig) -> Self {
        assert!(
            n <= MAX_PROCESSES,
            "the scheduler runs at most {MAX_PROCESSES} processes, got {n}"
        );
        Scheduler {
            n,
            cfg,
            queue: EventQueue::new(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            pool: Vec::new(),
            last_scheduled: vec![0; n * n],
            last_popped: vec![0; n * n],
            crashes: vec![None; n],
            decided: vec![false; n],
            steps_taken: vec![0; n],
            delivered: 0,
            dropped: 0,
            crashes_detected: 0,
            steps_executed: 0,
            processed: 0,
            events: Vec::new(),
            last_time: 0,
            end_time: 0,
            halted: false,
        }
    }

    /// Runs the event loop to completion (queue drained, horizon hit,
    /// or halted).
    pub fn run<R: Reactor<M>>(&mut self, reactor: &mut R) {
        self.run_observed(reactor, None);
    }

    /// [`Scheduler::run`] with a passive [`SchedObserver`] attached.
    /// The observer sees every send/deliver/drop/step/crash/decide but
    /// cannot change the run: traces are byte-identical to [`run`].
    ///
    /// [`run`]: Scheduler::run
    pub fn run_observed<R: Reactor<M>>(
        &mut self,
        reactor: &mut R,
        observer: Option<&mut dyn SchedObserver>,
    ) {
        let mut relay = observer.map(Relay);
        {
            let mut ctl = Ctl {
                now: 0,
                n: self.n,
                queue: &mut self.queue,
                last_scheduled: &mut self.last_scheduled,
                decided: &mut self.decided,
                events: &mut self.events,
                log_events: self.cfg.log_events,
                halted: &mut self.halted,
                observer: relay.as_mut().map(|r| r as &mut dyn SchedObserver),
            };
            reactor.on_start(&mut ctl);
        }
        while !self.halted {
            let Some(ev) = self.queue.pop() else { break };
            if ev.time > self.cfg.max_time {
                self.end_time = self.cfg.max_time;
                break;
            }
            // invariant 1: chronology
            assert!(
                ev.time >= self.last_time,
                "scheduler chronology violated: {} after {}",
                ev.time,
                self.last_time
            );
            self.last_time = ev.time;
            self.end_time = ev.time;
            let now = ev.time;
            // `continue`-style skips below bypass the post-event checks,
            // exactly as the reference executors do
            let mut productive = false;
            match ev.kind {
                EventKind::Deliver { dst, src, msg } => {
                    let ch = src.index() * self.n + dst.index();
                    // invariant 2: FIFO per channel
                    assert!(
                        now >= self.last_popped[ch],
                        "FIFO violated on channel {src}->{dst}"
                    );
                    self.last_popped[ch] = now;
                    if self.crashes[dst.index()].is_some_and(|c| now >= c) {
                        // crashed receivers drop messages (not counted)
                        self.dropped += 1;
                        if let Some(obs) = relay.as_mut() {
                            obs.on_drop(src, dst, now);
                        }
                    } else {
                        self.delivered += 1;
                        if self.cfg.log_events {
                            self.events.push(TimedEvent::Deliver(now, src, dst));
                        }
                        if let Some(obs) = relay.as_mut() {
                            obs.on_deliver(src, dst, now);
                        }
                        self.inboxes[dst.index()].push((src, msg));
                        productive = true;
                    }
                }
                EventKind::Step { p } => {
                    let i = p.index();
                    if let Some(crash_at) = reactor.crash_time(p) {
                        if now >= crash_at {
                            if self.crashes[i].is_none() {
                                self.crashes[i] = Some(crash_at);
                                self.crashes_detected += 1;
                                // logged at *detection* time, not
                                // back-dated to crash_at (chronology)
                                if self.cfg.log_events {
                                    self.events.push(TimedEvent::Crash(now, p));
                                }
                                if let Some(obs) = relay.as_mut() {
                                    obs.on_crash(p, now);
                                }
                            }
                            continue; // process stopped
                        }
                    }
                    if self.cfg.halt_decided && self.decided[i] {
                        continue; // decided processes halt (§4)
                    }
                    if self.cfg.log_events {
                        self.events.push(TimedEvent::Step(now, p));
                    }
                    let step = self.steps_taken[i];
                    if let Some(obs) = relay.as_mut() {
                        obs.on_step(p, now, step);
                    }
                    let inbox = std::mem::replace(
                        &mut self.inboxes[i],
                        self.pool.pop().unwrap_or_default(),
                    );
                    let mut ctl = Ctl {
                        now,
                        n: self.n,
                        queue: &mut self.queue,
                        last_scheduled: &mut self.last_scheduled,
                        decided: &mut self.decided,
                        events: &mut self.events,
                        log_events: self.cfg.log_events,
                        halted: &mut self.halted,
                        observer: relay.as_mut().map(|r| r as &mut dyn SchedObserver),
                    };
                    reactor.on_step(p, now, step, &inbox, &mut ctl);
                    self.steps_taken[i] += 1;
                    self.steps_executed += 1;
                    let mut inbox = inbox;
                    inbox.clear();
                    self.pool.push(inbox);
                    productive = true;
                }
            }
            if productive {
                self.processed += 1;
                if let Some(target) = self.cfg.stop_after_delivered {
                    if self.delivered >= target {
                        break;
                    }
                }
                if self.cfg.halt_decided {
                    let all_done = (0..self.n as u32).map(ProcessId).all(|q| {
                        self.decided[q.index()] || reactor.crash_time(q).is_some_and(|t| t <= now)
                    });
                    if all_done {
                        break;
                    }
                }
            }
        }
        // invariant 3: delivery accounting (log mode)
        if self.cfg.log_events {
            let logged = self
                .events
                .iter()
                .filter(|e| matches!(e, TimedEvent::Deliver(_, _, _)))
                .count() as u64;
            assert_eq!(logged, self.delivered, "delivery accounting violated");
        }
    }

    /// Aggregate run counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            events: self.processed,
            delivered: self.delivered,
            dropped: self.dropped,
            steps: self.steps_executed,
            crashes: self.crashes_detected,
            end_time: self.end_time,
        }
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Time of the last processed event.
    pub fn end_time(&self) -> u64 {
        self.end_time
    }

    /// Detected crashes as `process ↦ model crash time`.
    pub fn crashes_map(&self) -> BTreeMap<ProcessId, u64> {
        self.crashes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|t| (ProcessId(i as u32), t)))
            .collect()
    }

    /// Per-process executed step counts (every process present).
    pub fn steps_map(&self) -> BTreeMap<ProcessId, u64> {
        self.steps_taken
            .iter()
            .enumerate()
            .map(|(i, s)| (ProcessId(i as u32), *s))
            .collect()
    }

    /// Takes the accumulated event log.
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.events)
    }
}

// ---------------------------------------------------------------------------
// Timing policies
// ---------------------------------------------------------------------------

/// A timing model expressed as constraints on step scheduling and
/// message delivery. The three paper models are the three
/// implementations; all consume the same [`TimedAdversary`] stream.
pub trait TimingPolicy {
    /// The nominal timing parameters (used for `TimedProtocol::init`
    /// and as the range hint handed to the adversary).
    fn params(&self) -> TimedParams;

    /// Absolute time of `p`'s first step.
    fn first_step(&mut self, p: ProcessId) -> u64;

    /// Absolute time of `p`'s step number `next_index`, scheduled at
    /// `now` (the time of its previous step).
    fn next_step(&mut self, p: ProcessId, next_index: u64, now: u64) -> u64;

    /// Absolute arrival time of a message `src → dst` sent at `now`, or
    /// `None` if the adversary withholds it (crash-cut broadcast).
    fn delivery(&mut self, src: ProcessId, dst: ProcessId, now: u64) -> Option<u64>;

    /// Model-level crash time of `p`, if any.
    fn crash_time(&self, p: ProcessId) -> Option<u64>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Lockstep synchronous rounds: every process steps once per tick and
/// every message sent at tick `t` arrives at tick `t + 1` (in time for
/// the next step — deliveries sort before steps). The adversary chooses
/// only crashes and withheld messages.
pub struct SyncPolicy<'a> {
    adversary: &'a mut dyn TimedAdversary,
}

impl<'a> SyncPolicy<'a> {
    /// Wraps a crash/drop adversary in lockstep timing.
    pub fn new(adversary: &'a mut dyn TimedAdversary) -> Self {
        SyncPolicy { adversary }
    }
}

impl fmt::Debug for SyncPolicy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SyncPolicy")
    }
}

impl TimingPolicy for SyncPolicy<'_> {
    fn params(&self) -> TimedParams {
        TimedParams::new(1, 1, 1)
    }
    fn first_step(&mut self, _p: ProcessId) -> u64 {
        1
    }
    fn next_step(&mut self, _p: ProcessId, _next_index: u64, now: u64) -> u64 {
        now.saturating_add(1)
    }
    fn delivery(&mut self, src: ProcessId, dst: ProcessId, now: u64) -> Option<u64> {
        self.adversary
            .message_delivered(src, dst, now)
            .then_some(now.saturating_add(1))
    }
    fn crash_time(&self, p: ProcessId) -> Option<u64> {
        self.adversary.crash_time(p)
    }
    fn name(&self) -> &'static str {
        "sync"
    }
}

/// The §8 semi-synchronous windows: step intervals in `[c1, c2]` and
/// message delays in `[0, d]`, adversary-chosen, *enforced* (out-of-range
/// choices panic, as in the timed executor).
pub struct SemisyncPolicy<'a> {
    adversary: &'a mut dyn TimedAdversary,
    params: TimedParams,
}

impl<'a> SemisyncPolicy<'a> {
    /// Wraps an adversary in `params`' timing windows.
    pub fn new(adversary: &'a mut dyn TimedAdversary, params: TimedParams) -> Self {
        SemisyncPolicy { adversary, params }
    }
}

impl fmt::Debug for SemisyncPolicy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SemisyncPolicy")
            .field("params", &self.params)
            .finish()
    }
}

impl TimingPolicy for SemisyncPolicy<'_> {
    fn params(&self) -> TimedParams {
        self.params
    }
    fn first_step(&mut self, p: ProcessId) -> u64 {
        let dt = self.adversary.step_interval(p, 0, &self.params);
        assert!(
            (self.params.c1..=self.params.c2).contains(&dt),
            "step interval out of range"
        );
        dt
    }
    fn next_step(&mut self, p: ProcessId, next_index: u64, now: u64) -> u64 {
        let dt = self.adversary.step_interval(p, next_index, &self.params);
        assert!(
            (self.params.c1..=self.params.c2).contains(&dt),
            "step interval out of range"
        );
        now.saturating_add(dt)
    }
    fn delivery(&mut self, src: ProcessId, dst: ProcessId, now: u64) -> Option<u64> {
        if !self.adversary.message_delivered(src, dst, now) {
            return None; // crash-cut broadcast (see trait docs)
        }
        let delay = self.adversary.message_delay(src, dst, now, &self.params);
        assert!(delay <= self.params.d, "message delay exceeds d");
        Some(now.saturating_add(delay))
    }
    fn crash_time(&self, p: ProcessId) -> Option<u64> {
        self.adversary.crash_time(p)
    }
    fn name(&self) -> &'static str {
        "semisync"
    }
}

/// Fully asynchronous timing: the adversary chooses step intervals
/// (≥ 1) and message delays with *no* upper bound enforced. `params`
/// is only the range hint handed to randomized adversaries.
pub struct AsyncPolicy<'a> {
    adversary: &'a mut dyn TimedAdversary,
    params: TimedParams,
}

impl<'a> AsyncPolicy<'a> {
    /// Wraps an adversary; `params` is the hint range for randomized
    /// adversaries, not an enforced window.
    pub fn new(adversary: &'a mut dyn TimedAdversary, params: TimedParams) -> Self {
        AsyncPolicy { adversary, params }
    }
}

impl fmt::Debug for AsyncPolicy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncPolicy")
            .field("params", &self.params)
            .finish()
    }
}

impl TimingPolicy for AsyncPolicy<'_> {
    fn params(&self) -> TimedParams {
        self.params
    }
    fn first_step(&mut self, p: ProcessId) -> u64 {
        self.adversary.step_interval(p, 0, &self.params).max(1)
    }
    fn next_step(&mut self, p: ProcessId, next_index: u64, now: u64) -> u64 {
        now.saturating_add(
            self.adversary
                .step_interval(p, next_index, &self.params)
                .max(1),
        )
    }
    fn delivery(&mut self, src: ProcessId, dst: ProcessId, now: u64) -> Option<u64> {
        if !self.adversary.message_delivered(src, dst, now) {
            return None;
        }
        Some(now.saturating_add(self.adversary.message_delay(src, dst, now, &self.params)))
    }
    fn crash_time(&self, p: ProcessId) -> Option<u64> {
        self.adversary.crash_time(p)
    }
    fn name(&self) -> &'static str {
        "async"
    }
}

// ---------------------------------------------------------------------------
// Policy-driven protocol runner (the unified hot loop)
// ---------------------------------------------------------------------------

/// Options for [`run_policy`].
#[derive(Clone, Copy, Debug)]
pub struct PolicyRun {
    /// Hard time horizon.
    pub max_time: u64,
    /// Stop once this many messages have been delivered.
    pub stop_after_messages: Option<u64>,
    /// Keep the full event log (off for heavy-traffic runs; invariants
    /// are checked either way).
    pub log_events: bool,
}

impl Default for PolicyRun {
    fn default() -> Self {
        PolicyRun {
            max_time: u64::MAX,
            stop_after_messages: None,
            log_events: true,
        }
    }
}

struct TimedReactor<'a, P: TimedProtocol> {
    protocol: &'a P,
    policy: &'a mut dyn TimingPolicy,
    states: Vec<Option<P::State>>,
    decisions: Vec<Option<(u64, P::Output)>>,
}

impl<P: TimedProtocol> Reactor<P::Msg> for TimedReactor<'_, P> {
    fn crash_time(&self, p: ProcessId) -> Option<u64> {
        self.policy.crash_time(p)
    }

    fn on_start(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        for i in 0..self.states.len() {
            let p = ProcessId(i as u32);
            let at = self.policy.first_step(p);
            ctl.schedule_step(p, at);
        }
    }

    fn on_step(
        &mut self,
        p: ProcessId,
        now: u64,
        step: u64,
        inbox: &[(ProcessId, P::Msg)],
        ctl: &mut Ctl<'_, P::Msg>,
    ) {
        let st = self.states[p.index()].take().expect("state present");
        let (st, broadcast, decision) = self.protocol.on_step(st, now, step, inbox);
        self.states[p.index()] = Some(st);
        if let Some(msg) = broadcast {
            for q in (0..ctl.n() as u32).map(ProcessId).filter(|q| *q != p) {
                if let Some(at) = self.policy.delivery(p, q, now) {
                    ctl.send(p, q, at, msg.clone());
                }
            }
        }
        if let Some(out) = decision {
            self.decisions[p.index()] = Some((now, out));
            ctl.decide(p);
        } else {
            let at = self.policy.next_step(p, step + 1, now);
            ctl.schedule_step(p, at);
        }
    }
}

/// Runs `protocol` for `n_plus_1` processes under the given timing
/// policy — the unified execution path behind `TimedExecutor` (with
/// [`SemisyncPolicy`]) and the `psph traffic` heavy-traffic runs.
///
/// # Panics
///
/// Panics if `inputs.len() != n_plus_1` or the policy rejects an
/// adversary choice (out-of-window interval or delay).
pub fn run_policy<P: TimedProtocol>(
    protocol: &P,
    n_plus_1: usize,
    inputs: &[P::Input],
    policy: &mut dyn TimingPolicy,
    run: PolicyRun,
) -> TimedTrace<P::Output> {
    run_policy_with_stats(protocol, n_plus_1, inputs, policy, run).0
}

/// [`run_policy`] returning the scheduler counters alongside the trace.
pub fn run_policy_with_stats<P: TimedProtocol>(
    protocol: &P,
    n_plus_1: usize,
    inputs: &[P::Input],
    policy: &mut dyn TimingPolicy,
    run: PolicyRun,
) -> (TimedTrace<P::Output>, SchedStats) {
    run_policy_observed(protocol, n_plus_1, inputs, policy, run, None)
}

/// [`run_policy_with_stats`] with a passive [`SchedObserver`] attached
/// to the scheduler run. Traces and stats are byte-identical with and
/// without an observer.
pub fn run_policy_observed<P: TimedProtocol>(
    protocol: &P,
    n_plus_1: usize,
    inputs: &[P::Input],
    policy: &mut dyn TimingPolicy,
    run: PolicyRun,
    observer: Option<&mut dyn SchedObserver>,
) -> (TimedTrace<P::Output>, SchedStats) {
    assert_eq!(inputs.len(), n_plus_1, "one input per process");
    let params = policy.params();
    let states: Vec<Option<P::State>> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| Some(protocol.init(ProcessId(i as u32), n_plus_1, v.clone(), &params)))
        .collect();
    let mut reactor = TimedReactor {
        protocol,
        policy,
        states,
        decisions: (0..n_plus_1).map(|_| None).collect(),
    };
    let mut sched = Scheduler::new(
        n_plus_1,
        SchedConfig {
            max_time: run.max_time,
            halt_decided: true,
            log_events: run.log_events,
            stop_after_delivered: run.stop_after_messages,
        },
    );
    sched.run_observed(&mut reactor, observer);
    let stats = sched.stats();
    let decisions: BTreeMap<ProcessId, (u64, P::Output)> = reactor
        .decisions
        .into_iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|d| (ProcessId(i as u32), d)))
        .collect();
    let trace = TimedTrace::from_parts(
        decisions,
        sched.crashes_map(),
        sched.steps_map(),
        sched.delivered(),
        sched.end_time(),
        sched.take_events(),
    );
    (trace, stats)
}

// ---------------------------------------------------------------------------
// Shared round kernel
// ---------------------------------------------------------------------------

/// Builds each survivor's round inbox from the senders' messages and the
/// per-crasher recipient choices — the one delivery rule all synchronous
/// round machinery shares (the executor facade, which the view
/// enumerator replays, and the exhaustive execution enumerator).
///
/// `msgs` holds the message of every process that broadcasts this round;
/// survivors receive every surviving sender's message plus each
/// crasher's message iff they are in that crasher's recipient set.
pub fn round_inboxes<M: Clone>(
    msgs: &BTreeMap<ProcessId, M>,
    survivors: &BTreeSet<ProcessId>,
    crashers: &[(ProcessId, &BTreeSet<ProcessId>)],
) -> BTreeMap<ProcessId, BTreeMap<ProcessId, M>> {
    survivors
        .iter()
        .map(|s| {
            let mut inbox: BTreeMap<ProcessId, M> = BTreeMap::new();
            for q in survivors {
                if let Some(m) = msgs.get(q) {
                    inbox.insert(*q, m.clone());
                }
            }
            for (c, recipients) in crashers {
                if recipients.contains(s) {
                    if let Some(m) = msgs.get(c) {
                        inbox.insert(*c, m.clone());
                    }
                }
            }
            (*s, inbox)
        })
        .collect()
}

/// Which of a round's messages reach whom: the one part in which the
/// synchronous, asynchronous and buffered round executors differ.
pub(crate) trait DeliveryRule<M> {
    /// Whether the run ends once every live process has decided (the §7
    /// rule); otherwise every live process steps every round (§6).
    const HALT_WHEN_DECIDED: bool = false;

    /// Sends round `round`'s deliveries through `ctl` at tick `round`,
    /// given the live processes and their broadcasts `msgs`, and
    /// returns the processes that crash this round.
    fn deliver(
        &mut self,
        round: usize,
        live: &BTreeSet<ProcessId>,
        msgs: &BTreeMap<ProcessId, M>,
        ctl: &mut Ctl<'_, M>,
    ) -> Vec<ProcessId>;
}

/// The round machine behind every round executor: round `r` occupies
/// tick `r`, its deliveries arrive as `Deliver` events at tick `r`
/// (deliveries sort before steps) followed by one `Step` per live
/// process, and the round's last step records it and its first
/// decisions, then halts or plans round `r + 1`.
struct RoundReactor<'a, P: RoundProtocol, D> {
    protocol: &'a P,
    rule: D,
    /// The live processes' states: crashed processes leave the map.
    states: BTreeMap<ProcessId, P::State>,
    max_rounds: usize,
    round: usize,
    pending: usize,
    trace: SyncTrace<P::State, P::Output>,
}

impl<P: RoundProtocol, D: DeliveryRule<P::Msg>> RoundReactor<'_, P, D> {
    fn plan_round(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        let round = self.round;
        let live: BTreeSet<ProcessId> = self.states.keys().copied().collect();
        let msgs: BTreeMap<ProcessId, P::Msg> = self
            .states
            .iter()
            .map(|(p, s)| (*p, self.protocol.message(s)))
            .collect();
        for p in self.rule.deliver(round, &live, &msgs, ctl) {
            self.states.remove(&p);
            self.trace.record_crash(p, round);
        }
        if self.states.is_empty() {
            self.trace.record_round(BTreeMap::new());
            ctl.halt();
            return;
        }
        for p in self.states.keys() {
            ctl.schedule_step(*p, round as u64);
        }
        self.pending = self.states.len();
    }
}

impl<P: RoundProtocol, D: DeliveryRule<P::Msg>> Reactor<P::Msg> for RoundReactor<'_, P, D> {
    fn on_start(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        if self.max_rounds > 0 {
            self.round = 1;
            self.plan_round(ctl);
        }
    }

    fn on_step(
        &mut self,
        p: ProcessId,
        _now: u64,
        _step: u64,
        inbox: &[(ProcessId, P::Msg)],
        ctl: &mut Ctl<'_, P::Msg>,
    ) {
        let round = self.round;
        // fold in arrival order: a flushed backlog's later messages
        // overwrite its earlier ones
        let mut received: BTreeMap<ProcessId, P::Msg> = BTreeMap::new();
        for (src, m) in inbox {
            received.insert(*src, m.clone());
        }
        let st = self.states.remove(&p).expect("a stepping process is live");
        self.states
            .insert(p, self.protocol.on_round(st, &received, round));
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        self.trace.record_round(self.states.clone());
        let mut all_decided = true;
        for (q, st) in &self.states {
            if self.trace.decision(*q).is_none() {
                match self.protocol.decide(st, round) {
                    Some(out) => self.trace.record_decision(*q, round, out),
                    None => all_decided = false,
                }
            }
        }
        if (D::HALT_WHEN_DECIDED && all_decided) || round >= self.max_rounds {
            ctl.halt();
        } else {
            self.round = round + 1;
            self.plan_round(ctl);
        }
    }
}

/// Runs up to `max_rounds` rounds of `protocol` on the scheduler, with
/// the processes `starters` (process `i` gets `inputs[i]`) and round
/// deliveries chosen by `rule`. Returns the trace and the rule (the
/// buffered executor reads its channel statistics back).
///
/// # Panics
///
/// Panics if `inputs.len() != n_plus_1`.
pub(crate) fn run_rounds<P: RoundProtocol, D: DeliveryRule<P::Msg>>(
    protocol: &P,
    n_plus_1: usize,
    inputs: &[P::Input],
    starters: impl IntoIterator<Item = ProcessId>,
    rule: D,
    max_rounds: usize,
) -> (SyncTrace<P::State, P::Output>, D) {
    assert_eq!(inputs.len(), n_plus_1, "one input per process");
    let states: BTreeMap<ProcessId, P::State> = starters
        .into_iter()
        .map(|p| (p, protocol.init(p, n_plus_1, inputs[p.index()].clone())))
        .collect();
    let mut reactor = RoundReactor {
        protocol,
        rule,
        states,
        max_rounds,
        round: 0,
        pending: 0,
        trace: SyncTrace::new(),
    };
    let mut sched = Scheduler::new(
        n_plus_1,
        SchedConfig {
            max_time: u64::MAX,
            halt_decided: false,
            log_events: false,
            stop_after_delivered: None,
        },
    );
    sched.run(&mut reactor);
    let RoundReactor {
        mut trace,
        states,
        rule,
        ..
    } = reactor;
    trace.finish(states);
    (trace, rule)
}

// ---------------------------------------------------------------------------
// Heavy-traffic runner
// ---------------------------------------------------------------------------

/// The traffic workload: every process broadcasts its step number on
/// every step and counts what it hears; it never decides (the run is
/// bounded by the message target or horizon).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepGossip;

impl TimedProtocol for StepGossip {
    type Input = u8;
    type State = u64;
    type Msg = u32;
    type Output = u64;

    fn init(&self, _me: ProcessId, _n: usize, _input: u8, _p: &TimedParams) -> u64 {
        0
    }

    fn on_step(
        &self,
        state: u64,
        _now: u64,
        step: u64,
        inbox: &[(ProcessId, u32)],
    ) -> (u64, Option<u32>, Option<u64>) {
        (state + inbox.len() as u64, Some(step as u32), None)
    }
}

/// The result of a [`traffic_run`].
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficReport {
    /// Policy name.
    pub policy: &'static str,
    /// Number of processes.
    pub n: usize,
    /// Messages delivered.
    pub delivered: u64,
    /// Deliveries dropped at crashed receivers.
    pub dropped: u64,
    /// Steps executed.
    pub steps: u64,
    /// Productive events processed.
    pub events: u64,
    /// Crashes detected.
    pub crashes: u64,
    /// Virtual end time (ticks).
    pub end_time: u64,
    /// Wall-clock duration of the run.
    pub elapsed: std::time::Duration,
    /// Whether the always-on invariant checks (chronology, FIFO per
    /// channel, delivery accounting) all held. A run that violates one
    /// panics instead of returning, so a report always says `true`; the
    /// field exists so callers surface the fact explicitly.
    pub invariants_ok: bool,
}

impl TrafficReport {
    /// Productive events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs the [`StepGossip`] workload under `policy` until `messages`
/// deliveries (or the horizon), with always-on invariant checks and no
/// event-log retention — the heavy-traffic configuration
/// (`psph traffic`).
pub fn traffic_run(
    n_plus_1: usize,
    messages: u64,
    policy: &mut dyn TimingPolicy,
    max_time: u64,
) -> TrafficReport {
    let inputs = vec![0u8; n_plus_1];
    traffic_run_protocol(&StepGossip, &inputs, messages, policy, max_time, None)
}

/// Runs an arbitrary [`TimedProtocol`] as the traffic workload —
/// `psph traffic --protocol` drives real protocols (k-set flooding, BV
/// consensus) through the same heavy-traffic configuration, optionally
/// with a passive [`SchedObserver`] attached (vector clocks, channel
/// snapshots). The run stops at the message target, the horizon, or
/// when every process has decided, whichever comes first.
///
/// # Panics
///
/// Panics if an always-on scheduler invariant is violated.
pub fn traffic_run_protocol<P: TimedProtocol>(
    protocol: &P,
    inputs: &[P::Input],
    messages: u64,
    policy: &mut dyn TimingPolicy,
    max_time: u64,
    observer: Option<&mut dyn SchedObserver>,
) -> TrafficReport {
    let name = policy.name();
    let start = std::time::Instant::now();
    let (_, stats) = run_policy_observed(
        protocol,
        inputs.len(),
        inputs,
        policy,
        PolicyRun {
            max_time,
            stop_after_messages: Some(messages),
            log_events: false,
        },
        observer,
    );
    TrafficReport {
        policy: name,
        n: inputs.len(),
        delivered: stats.delivered,
        dropped: stats.dropped,
        steps: stats.steps,
        events: stats.events,
        crashes: stats.crashes,
        end_time: stats.end_time,
        elapsed: start.elapsed(),
        invariants_ok: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semisync_exec::Lockstep;

    #[test]
    fn queue_orders_by_time_then_kind() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push_step(5, ProcessId(0));
        q.push_deliver(5, ProcessId(1), ProcessId(0), 9);
        q.push_deliver(3, ProcessId(0), ProcessId(1), 7);
        assert_eq!(q.len(), 3);
        // time 3 deliver first
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Deliver { msg: 7, .. }
        ));
        // at time 5, deliver before step
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Deliver { msg: 9, .. }
        ));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Step { .. }));
        assert_eq!(q.len(), 0);
    }

    /// Pops every pending event as `(time, 'd' | 's', tag)`, where a
    /// delivery's tag is its payload and a step's its process.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, char, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|ev| match ev.kind {
                EventKind::Deliver { msg, .. } => (ev.time, 'd', msg),
                EventKind::Step { p } => (ev.time, 's', p.0),
            })
            .collect()
    }

    #[test]
    fn queue_pops_each_kind_in_push_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, t) in [4u64, 2, 4, 3, 2, 4].into_iter().enumerate() {
            q.push_step(t, ProcessId(i as u32));
            q.push_deliver(t, ProcessId(0), ProcessId(1), 10 + i as u32);
        }
        assert_eq!(
            drain(&mut q),
            [
                (2, 'd', 11),
                (2, 'd', 14),
                (2, 's', 1),
                (2, 's', 4),
                (3, 'd', 13),
                (3, 's', 3),
                (4, 'd', 10),
                (4, 'd', 12),
                (4, 'd', 15),
                (4, 's', 0),
                (4, 's', 2),
                (4, 's', 5),
            ]
        );
    }

    #[test]
    fn delivery_pushed_at_the_popped_time_precedes_its_steps() {
        // a zero-delay send during a step at t pops before the steps
        // still pending at t, as in the (time, kind, push order) order
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_step(1, ProcessId(0));
        q.push_step(1, ProcessId(1));
        assert_eq!(q.pop().map(|ev| ev.time), Some(1));
        q.push_deliver(1, ProcessId(0), ProcessId(1), 7);
        q.push_step(1, ProcessId(2));
        q.push_deliver(1, ProcessId(0), ProcessId(2), 8);
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            [(1, 'd', 7), (1, 'd', 8), (1, 's', 1), (1, 's', 2)]
        );
        // a time whose last event popped starts afresh
        q.push_step(1, ProcessId(3));
        q.push_deliver(1, ProcessId(3), ProcessId(0), 9);
        assert_eq!(drain(&mut q), [(1, 'd', 9), (1, 's', 3)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 4096 processes, got 4097")]
    fn scheduler_rejects_more_than_max_processes() {
        let cfg = SchedConfig {
            max_time: u64::MAX,
            halt_decided: false,
            log_events: false,
            stop_after_delivered: None,
        };
        let _ = Scheduler::<u8>::new(MAX_PROCESSES + 1, cfg);
    }

    #[test]
    fn policies_expose_names_and_params() {
        let mut a = Lockstep;
        let p = TimedParams::new(1, 2, 3);
        assert_eq!(SyncPolicy::new(&mut a).name(), "sync");
        assert_eq!(SemisyncPolicy::new(&mut a, p).name(), "semisync");
        assert_eq!(AsyncPolicy::new(&mut a, p).params(), p);
    }

    #[test]
    fn sync_policy_is_lockstep_rounds() {
        let mut adv = Lockstep;
        let mut pol = SyncPolicy::new(&mut adv);
        assert_eq!(pol.first_step(ProcessId(0)), 1);
        assert_eq!(pol.next_step(ProcessId(0), 1, 4), 5);
        assert_eq!(pol.delivery(ProcessId(0), ProcessId(1), 4), Some(5));
        assert_eq!(pol.crash_time(ProcessId(0)), None);
    }

    #[test]
    fn traffic_run_hits_message_target() {
        let mut adv = Lockstep;
        let mut pol = SyncPolicy::new(&mut adv);
        let report = traffic_run(4, 100, &mut pol, u64::MAX);
        assert!(report.delivered >= 100, "{report:?}");
        assert_eq!(report.policy, "sync");
        assert!(report.invariants_ok);
        assert!(report.events_per_sec() > 0.0);
    }

    #[test]
    fn traffic_run_respects_horizon() {
        let mut adv = Lockstep;
        let params = TimedParams::new(1, 1, 2);
        let mut pol = SemisyncPolicy::new(&mut adv, params);
        let report = traffic_run(3, u64::MAX, &mut pol, 50);
        assert_eq!(report.end_time, 50);
    }

    #[test]
    fn round_inboxes_respects_recipient_sets() {
        let msgs: BTreeMap<ProcessId, u8> = (0..3u32).map(|i| (ProcessId(i), i as u8)).collect();
        let survivors: BTreeSet<ProcessId> = [ProcessId(0), ProcessId(1)].into_iter().collect();
        let recipients: BTreeSet<ProcessId> = [ProcessId(1)].into_iter().collect();
        let crashers = [(ProcessId(2), &recipients)];
        let inboxes = round_inboxes(&msgs, &survivors, &crashers);
        assert_eq!(inboxes[&ProcessId(0)].len(), 2); // P0, P1
        assert_eq!(inboxes[&ProcessId(1)].len(), 3); // + crasher P2
    }
}
