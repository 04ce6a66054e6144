//! FIFO-buffered asynchronous executor: the full §6 delivery semantics.
//!
//! "Because the model is asynchronous, a message m sent from P to Q in
//! round r may not be delivered in that round. When m is delivered,
//! however, all previously undelivered messages sent from P to Q in
//! rounds 1 through r are delivered at the same time."
//!
//! [`BufferedAsyncExecutor`] implements exactly this: per-channel FIFO
//! queues; an adversary chooses, per round, from whom each process hears
//! *this round's* message (≥ n+1−f senders incl. self); hearing a sender
//! flushes that channel's backlog in one batch. With full-information
//! protocols the backlog adds no information (later states subsume
//! earlier ones) — a fact the `backlog_is_subsumed_for_full_information`
//! test checks — but protocols that are *not* full-information (e.g.
//! value flooding with deltas) observe the batches.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ps_core::ProcessId;

use crate::async_exec::AsyncAdversary;
use crate::protocol::RoundProtocol;
use crate::sched::{run_rounds, Ctl, DeliveryRule};
use crate::trace::SyncTrace;

/// A delivered batch: all pending messages of one channel, oldest first,
/// each tagged with its send round.
pub type Batch<M> = Vec<(usize, M)>;

/// Per-channel FIFO queues of (send round, message).
type ChannelQueues<M> = BTreeMap<(ProcessId, ProcessId), VecDeque<(usize, M)>>;

/// The FIFO-buffered asynchronous executor.
#[derive(Clone, Debug)]
pub struct BufferedAsyncExecutor<P> {
    protocol: P,
    n_plus_1: usize,
    f: usize,
}

/// Per-execution channel statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Total messages sent.
    pub sent: u64,
    /// Messages delivered in their own round.
    pub delivered_fresh: u64,
    /// Messages delivered late (as part of a flushed backlog).
    pub delivered_late: u64,
    /// Messages still undelivered at the end.
    pub pending: u64,
}

impl<P: RoundProtocol> BufferedAsyncExecutor<P> {
    /// Creates the executor.
    pub fn new(protocol: P, n_plus_1: usize, f: usize) -> Self {
        BufferedAsyncExecutor {
            protocol,
            n_plus_1,
            f,
        }
    }

    /// Minimum fresh-heard count per round: `n + 1 - f`.
    pub fn min_heard(&self) -> usize {
        self.n_plus_1.saturating_sub(self.f)
    }

    /// Runs `rounds` rounds. The adversary's heard set for `(q, round)`
    /// decides whose *round-`round`* message `q` receives; receiving it
    /// flushes the channel's backlog. Unheard senders' messages queue up.
    ///
    /// Returns the trace plus channel statistics.
    ///
    /// This is a facade over the unified scheduler (`crate::sched`):
    /// flushed batches become `Deliver` events at the round's tick,
    /// oldest first, so batch order rides the event queue's FIFO `seq`
    /// ordering. Traces and stats are identical to
    /// [`BufferedAsyncExecutor::run_legacy`] (pinned by
    /// `tests/runtime_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics on adversary constraint violations (see
    /// [`crate::AsyncExecutor::run`]).
    pub fn run(
        &self,
        inputs: &[P::Input],
        participants: &BTreeSet<ProcessId>,
        adversary: &mut dyn AsyncAdversary,
        rounds: usize,
    ) -> (SyncTrace<P::State, P::Output>, ChannelStats) {
        assert!(
            participants.len() >= self.min_heard(),
            "too few participants for f = {}",
            self.f
        );
        let rule = FifoDelivery {
            adversary,
            min_heard: self.min_heard(),
            queues: BTreeMap::new(),
            stats: ChannelStats::default(),
        };
        let starters = participants.iter().copied();
        let (trace, rule) = run_rounds(
            &self.protocol,
            self.n_plus_1,
            inputs,
            starters,
            rule,
            rounds,
        );
        let mut stats = rule.stats;
        stats.pending = rule.queues.values().map(|q| q.len() as u64).sum();
        (trace, stats)
    }

    /// The pre-unification round loop, retained verbatim as the
    /// differential-testing oracle for [`BufferedAsyncExecutor::run`].
    pub fn run_legacy(
        &self,
        inputs: &[P::Input],
        participants: &BTreeSet<ProcessId>,
        adversary: &mut dyn AsyncAdversary,
        rounds: usize,
    ) -> (SyncTrace<P::State, P::Output>, ChannelStats) {
        assert_eq!(inputs.len(), self.n_plus_1, "one input per process");
        assert!(
            participants.len() >= self.min_heard(),
            "too few participants for f = {}",
            self.f
        );
        let mut states: BTreeMap<ProcessId, P::State> = participants
            .iter()
            .map(|p| {
                (
                    *p,
                    self.protocol
                        .init(*p, self.n_plus_1, inputs[p.index()].clone()),
                )
            })
            .collect();
        let mut queues: ChannelQueues<P::Msg> = BTreeMap::new();
        let mut stats = ChannelStats::default();
        let mut trace: SyncTrace<P::State, P::Output> = SyncTrace::new();

        for round in 1..=rounds {
            let plan = adversary.plan_round(round, participants, self.min_heard());
            // enqueue this round's messages on every channel
            let msgs: BTreeMap<ProcessId, P::Msg> = states
                .iter()
                .map(|(p, s)| (*p, self.protocol.message(s)))
                .collect();
            for src in participants {
                for dst in participants {
                    if src != dst {
                        stats.sent += 1;
                        queues
                            .entry((*src, *dst))
                            .or_default()
                            .push_back((round, msgs[src].clone()));
                    }
                }
            }
            // deliveries: heard senders flush their channel FIFO
            let mut next = BTreeMap::new();
            for q in participants {
                let heard = &plan[q];
                assert!(heard.contains(q), "heard set must include self");
                assert!(heard.len() >= self.min_heard(), "heard set too small");
                let mut inbox: BTreeMap<ProcessId, P::Msg> = BTreeMap::new();
                inbox.insert(*q, msgs[q].clone());
                for src in heard {
                    if src == q {
                        continue;
                    }
                    let queue = queues.get_mut(&(*src, *q)).expect("channel exists");
                    // flush: everything up to and including round `round`
                    while let Some((r0, m)) = queue.pop_front() {
                        if r0 == round {
                            stats.delivered_fresh += 1;
                        } else {
                            stats.delivered_late += 1;
                        }
                        inbox.insert(*src, m); // later messages overwrite
                        if r0 == round {
                            break;
                        }
                    }
                }
                let st = self.protocol.on_round(states[q].clone(), &inbox, round);
                next.insert(*q, st);
            }
            states = next;
            trace.record_round(states.clone());
            for (p, st) in &states {
                if trace.decision(*p).is_none() {
                    if let Some(out) = self.protocol.decide(st, round) {
                        trace.record_decision(*p, round, out);
                    }
                }
            }
        }
        stats.pending = queues.values().map(|q| q.len() as u64).sum();
        trace.finish(states);
        (trace, stats)
    }
}

/// The §6 FIFO delivery rule: every round message queues on its
/// channel, and hearing a sender flushes that channel's backlog as
/// `Deliver` events (own message first, then each heard channel
/// oldest-first), so the later-overwrites inbox rule falls out of event
/// order.
struct FifoDelivery<'a, M> {
    adversary: &'a mut dyn AsyncAdversary,
    min_heard: usize,
    queues: ChannelQueues<M>,
    stats: ChannelStats,
}

impl<M: Clone> DeliveryRule<M> for FifoDelivery<'_, M> {
    fn deliver(
        &mut self,
        round: usize,
        participants: &BTreeSet<ProcessId>,
        msgs: &BTreeMap<ProcessId, M>,
        ctl: &mut Ctl<'_, M>,
    ) -> Vec<ProcessId> {
        let plan = self
            .adversary
            .plan_round(round, participants, self.min_heard);
        // enqueue this round's messages on every channel
        for src in participants {
            for dst in participants {
                if src != dst {
                    self.stats.sent += 1;
                    self.queues
                        .entry((*src, *dst))
                        .or_default()
                        .push_back((round, msgs[src].clone()));
                }
            }
        }
        // deliveries: heard senders flush their channel FIFO
        let t = round as u64;
        for q in participants {
            let heard = &plan[q];
            assert!(heard.contains(q), "heard set must include self");
            assert!(heard.len() >= self.min_heard, "heard set too small");
            ctl.send(*q, *q, t, msgs[q].clone());
            for src in heard {
                if src == q {
                    continue;
                }
                let queue = self.queues.get_mut(&(*src, *q)).expect("channel exists");
                // flush: everything up to and including round `round`
                while let Some((r0, m)) = queue.pop_front() {
                    if r0 == round {
                        self.stats.delivered_fresh += 1;
                    } else {
                        self.stats.delivered_late += 1;
                    }
                    ctl.send(*src, *q, t, m);
                    if r0 == round {
                        break;
                    }
                }
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_exec::{FullDelivery, HeardSets};
    use crate::protocol::FullInformation;
    use ps_core::process_set;

    /// adversary: in odd rounds everyone hears only a fixed pair, in even
    /// rounds everyone hears everyone (so backlogs build then flush).
    struct Alternating;
    impl AsyncAdversary for Alternating {
        fn plan_round(
            &mut self,
            round: usize,
            participants: &BTreeSet<ProcessId>,
            _min_heard: usize,
        ) -> HeardSets {
            participants
                .iter()
                .map(|p| {
                    let heard: BTreeSet<ProcessId> = if round % 2 == 1 {
                        let mut h: BTreeSet<ProcessId> =
                            participants.iter().copied().take(2).collect();
                        h.insert(*p);
                        h
                    } else {
                        participants.clone()
                    };
                    (*p, heard)
                })
                .collect()
        }
    }

    #[test]
    fn full_delivery_has_no_late_messages() {
        let exec = BufferedAsyncExecutor::new(FullInformation::new(), 3, 1);
        let parts = process_set(3);
        let (trace, stats) = exec.run(&[0, 1, 2], &parts, &mut FullDelivery, 3);
        assert_eq!(stats.delivered_late, 0);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.sent, 3 * 2 * 3);
        assert_eq!(trace.rounds_executed(), 3);
    }

    #[test]
    fn backlog_flushes_fifo() {
        let exec = BufferedAsyncExecutor::new(FullInformation::new(), 3, 1);
        let parts = process_set(3);
        let (_, stats) = exec.run(&[0, 1, 2], &parts, &mut Alternating, 4);
        assert!(stats.delivered_late > 0, "{stats:?}");
        // conservation: sent = fresh + late + pending
        assert_eq!(
            stats.sent,
            stats.delivered_fresh + stats.delivered_late + stats.pending
        );
    }

    #[test]
    fn backlog_is_subsumed_for_full_information() {
        // final views under the buffered executor with a given heard-set
        // schedule equal those under the plain executor with the same
        // schedule: for full-information protocols the backlog carries
        // no extra information.
        use crate::async_exec::AsyncExecutor;
        let parts = process_set(3);
        let plain = AsyncExecutor::new(FullInformation::new(), 3, 1);
        let buffered = BufferedAsyncExecutor::new(FullInformation::new(), 3, 1);
        let t1 = plain.run(&[0, 1, 2], &parts, &mut Alternating, 4);
        let (t2, _) = buffered.run(&[0, 1, 2], &parts, &mut Alternating, 4);
        for p in 0..3u32 {
            assert_eq!(
                t1.final_state(ProcessId(p)),
                t2.final_state(ProcessId(p)),
                "P{p} diverged"
            );
        }
    }

    #[test]
    fn min_heard_and_threshold() {
        let exec = BufferedAsyncExecutor::new(FullInformation::new(), 4, 1);
        assert_eq!(exec.min_heard(), 3);
    }
}
