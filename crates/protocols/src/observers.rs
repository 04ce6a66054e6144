//! Reusable scheduler observers: vector clocks and consistent-cut
//! channel accounting.
//!
//! Both attach to any unified-scheduler run through
//! [`SchedObserver`] (`run_observed` / `run_policy_observed` /
//! `traffic_run_protocol`) and are purely passive — traces are
//! byte-identical with and without them.
//!
//! * [`VectorClockObserver`] maintains a per-process vector clock
//!   (increment on send/step, join-and-increment on delivery) and
//!   checks the causality invariants online: every delivery's stamp
//!   must be dominated by the receiver's clock after the merge, and
//!   per-channel stamps must be FIFO-monotone.
//! * [`ChandyLamportObserver`] performs a Chandy–Lamport-style
//!   consistent cut at a fixed trigger time `T`: it counts, per
//!   channel, messages sent / delivered / dropped before the cut and
//!   records the in-flight channel state, then checks the conservation
//!   law `sent_before = delivered_before + dropped_before +
//!   in_flight`. Any FIFO mismatch (a delivery with no matching send,
//!   or an arrival differing from the scheduled one) is reported as an
//!   error.

use std::collections::{BTreeMap, VecDeque};

use ps_core::ProcessId;
use ps_runtime::SchedObserver;

type Channel = (ProcessId, ProcessId);

/// A vector clock: process index ↦ event count.
pub type VClock = BTreeMap<ProcessId, u64>;

/// Per-channel state indexed by `(src, dst)`. The observers learn the
/// process count from the events they see, so each row grows to the
/// highest receiver index sent to from its sender.
#[derive(Clone, Debug, Default)]
struct ChannelTable<T> {
    rows: Vec<Vec<T>>,
}

impl<T: Default> ChannelTable<T> {
    /// The state of `src → dst`, created on first use.
    fn entry(&mut self, src: ProcessId, dst: ProcessId) -> &mut T {
        let (s, d) = (src.index(), dst.index());
        if s >= self.rows.len() {
            self.rows.resize_with(s + 1, Vec::new);
        }
        let row = &mut self.rows[s];
        if d >= row.len() {
            row.resize_with(d + 1, T::default);
        }
        &mut row[d]
    }

    /// The state of `src → dst`, if the table has grown to it.
    fn get_mut(&mut self, src: ProcessId, dst: ProcessId) -> Option<&mut T> {
        self.rows.get_mut(src.index())?.get_mut(dst.index())
    }

    /// Every created channel's state, in `(src, dst)` order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (Channel, &mut T)> {
        self.rows.iter_mut().enumerate().flat_map(|(s, row)| {
            row.iter_mut()
                .enumerate()
                .map(move |(d, t)| ((ProcessId(s as u32), ProcessId(d as u32)), t))
        })
    }
}

/// Joins dense clock `other` into `into`, componentwise maximum.
fn join_into(into: &mut Vec<u64>, other: &[u64]) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (mine, theirs) in into.iter_mut().zip(other) {
        *mine = (*mine).max(*theirs);
    }
}

fn dominates(big: &[u64], small: &[u64]) -> bool {
    small
        .iter()
        .enumerate()
        .all(|(i, c)| big.get(i).copied().unwrap_or(0) >= *c)
}

/// Increments component `p` of `clocks[p]`, growing both as needed.
fn tick(clocks: &mut Vec<Vec<u64>>, p: ProcessId) -> &mut Vec<u64> {
    let i = p.index();
    if i >= clocks.len() {
        clocks.resize_with(i + 1, Vec::new);
    }
    let clock = &mut clocks[i];
    if i >= clock.len() {
        clock.resize(i + 1, 0);
    }
    clock[i] += 1;
    clock
}

/// A vector-clock channel: the stamps of its messages in flight, in
/// send order, and the stamp of its last send (empty before the first).
#[derive(Clone, Debug, Default)]
struct StampQueue {
    in_flight: VecDeque<Box<[u64]>>,
    last_sent: Vec<u64>,
}

/// Vector-clock instrumentation for scheduler runs.
#[derive(Clone, Debug, Default)]
pub struct VectorClockObserver {
    /// Per-process dense clocks, indexed by process: component `i` of a
    /// clock is process `i`'s count, and components past its end are 0.
    clocks: Vec<Vec<u64>>,
    channels: ChannelTable<StampQueue>,
    /// Causality violations detected online (empty ⇔ consistent).
    errors: Vec<String>,
    deliveries: u64,
}

impl VectorClockObserver {
    /// Creates the observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current clock of `p`: its nonzero components.
    pub fn clock(&self, p: ProcessId) -> VClock {
        self.clocks
            .get(p.index())
            .map(|clock| {
                clock
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(q, c)| (ProcessId(q as u32), *c))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Detected causality violations (empty for a correct scheduler).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Deliveries observed.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Whether every happens-before check passed.
    pub fn consistent(&self) -> bool {
        self.errors.is_empty()
    }
}

impl SchedObserver for VectorClockObserver {
    fn on_send(&mut self, src: ProcessId, dst: ProcessId, _sent: u64, _arrival: u64) {
        let stamp: Box<[u64]> = tick(&mut self.clocks, src).as_slice().into();
        let channel = self.channels.entry(src, dst);
        if !dominates(&stamp, &channel.last_sent) {
            self.errors
                .push(format!("non-monotone send stamps on {src:?}->{dst:?}"));
        }
        channel.last_sent.clear();
        channel.last_sent.extend_from_slice(&stamp);
        channel.in_flight.push_back(stamp);
    }

    fn on_deliver(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        self.deliveries += 1;
        let Some(stamp) = self
            .channels
            .get_mut(src, dst)
            .and_then(|c| c.in_flight.pop_front())
        else {
            self.errors.push(format!(
                "delivery without send on {src:?}->{dst:?} at t={time}"
            ));
            return;
        };
        if dst.index() >= self.clocks.len() {
            self.clocks.resize_with(dst.index() + 1, Vec::new);
        }
        join_into(&mut self.clocks[dst.index()], &stamp);
        let clock = tick(&mut self.clocks, dst);
        if !dominates(clock, &stamp) {
            self.errors.push(format!(
                "delivery stamp not dominated after merge on {src:?}->{dst:?} at t={time}"
            ));
        }
    }

    fn on_drop(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        if self
            .channels
            .get_mut(src, dst)
            .and_then(|c| c.in_flight.pop_front())
            .is_none()
        {
            self.errors
                .push(format!("drop without send on {src:?}->{dst:?} at t={time}"));
        }
    }

    fn on_step(&mut self, p: ProcessId, _time: u64, _step: u64) {
        tick(&mut self.clocks, p);
    }

    fn on_decide(&mut self, p: ProcessId, _time: u64) {
        tick(&mut self.clocks, p);
    }
}

/// Per-channel accounting at the snapshot cut.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelCut {
    /// Messages sent strictly before the cut.
    pub sent_before: u64,
    /// Messages delivered strictly before the cut.
    pub delivered_before: u64,
    /// Messages dropped strictly before the cut.
    pub dropped_before: u64,
    /// Messages in flight at the cut (sent before, not yet delivered
    /// or dropped) that were later accounted for.
    pub in_flight: u64,
}

impl ChannelCut {
    /// The Chandy–Lamport conservation law for this channel.
    pub fn conserved(&self) -> bool {
        self.sent_before == self.delivered_before + self.dropped_before + self.in_flight
    }
}

/// A snapshot channel: its messages not yet delivered or dropped, as
/// `(send time, scheduled arrival)` in send order, and its accounting.
/// The accounting opens with the first send before the cut or the first
/// settled message, and only open channels are reported.
#[derive(Clone, Debug, Default)]
struct CutQueue {
    queue: VecDeque<(u64, u64)>,
    cut: Option<ChannelCut>,
}

/// Chandy–Lamport-style consistent-cut observer: snapshots channel
/// state at trigger time `cut` and checks per-channel message
/// conservation.
///
/// Messages still queued when the run ends are counted into
/// [`ChannelCut::in_flight`] by [`ChandyLamportObserver::finalize`]
/// (the scheduler emits no event for undelivered messages at the
/// horizon).
#[derive(Clone, Debug)]
pub struct ChandyLamportObserver {
    cut: u64,
    channels: ChannelTable<CutQueue>,
    /// The open channels' accounting, collected by `finalize`.
    cuts: BTreeMap<Channel, ChannelCut>,
    errors: Vec<String>,
    finalized: bool,
}

impl ChandyLamportObserver {
    /// An observer cutting at time `cut`.
    pub fn new(cut: u64) -> Self {
        ChandyLamportObserver {
            cut,
            channels: ChannelTable::default(),
            cuts: BTreeMap::new(),
            errors: Vec::new(),
            finalized: false,
        }
    }

    /// The cut time.
    pub fn cut_time(&self) -> u64 {
        self.cut
    }

    /// Per-channel accounting, collected by [`Self::finalize`] (empty
    /// before it).
    pub fn cuts(&self) -> &BTreeMap<Channel, ChannelCut> {
        &self.cuts
    }

    /// FIFO/accounting violations (empty for a correct scheduler).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Counts messages still undelivered at the end of the run into
    /// their channels' in-flight tally, then checks conservation.
    /// Returns whether every channel satisfies the conservation law
    /// and no FIFO violation occurred.
    pub fn finalize(&mut self) -> bool {
        if !self.finalized {
            self.finalized = true;
            let cut = self.cut;
            for (ch, c) in self.channels.iter_mut() {
                for (sent, _) in c.queue.drain(..) {
                    if sent < cut {
                        c.cut.get_or_insert_with(ChannelCut::default).in_flight += 1;
                    }
                }
                if let Some(tally) = &c.cut {
                    self.cuts.insert(ch, tally.clone());
                }
            }
        }
        self.errors.is_empty() && self.cuts.values().all(ChannelCut::conserved)
    }

    /// Settles the oldest message on `src → dst` at `time`, returning
    /// its send time and its channel's (opened) accounting.
    fn settle(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        time: u64,
        what: &str,
    ) -> Option<(u64, &mut ChannelCut)> {
        let Some(((sent, arrival), c)) = self
            .channels
            .get_mut(src, dst)
            .and_then(|c| c.queue.pop_front().map(|m| (m, c)))
        else {
            self.errors.push(format!(
                "{what} without send on {src:?}->{dst:?} at t={time}"
            ));
            return None;
        };
        if what == "delivery" && time != arrival {
            self.errors.push(format!(
                "{what} on {src:?}->{dst:?} at t={time} but scheduled arrival was {arrival}"
            ));
        }
        Some((sent, c.cut.get_or_insert_with(ChannelCut::default)))
    }
}

impl SchedObserver for ChandyLamportObserver {
    fn on_send(&mut self, src: ProcessId, dst: ProcessId, sent: u64, arrival: u64) {
        let c = self.channels.entry(src, dst);
        if sent < self.cut {
            c.cut.get_or_insert_with(ChannelCut::default).sent_before += 1;
        }
        c.queue.push_back((sent, arrival));
    }

    fn on_deliver(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        let cut_time = self.cut;
        if let Some((sent, cut)) = self.settle(src, dst, time, "delivery") {
            if sent < cut_time {
                if time < cut_time {
                    cut.delivered_before += 1;
                } else {
                    // crossed the cut: part of the recorded channel state
                    cut.in_flight += 1;
                }
            }
        }
    }

    fn on_drop(&mut self, src: ProcessId, dst: ProcessId, time: u64) {
        let cut_time = self.cut;
        if let Some((sent, cut)) = self.settle(src, dst, time, "drop") {
            if sent < cut_time {
                if time < cut_time {
                    cut.dropped_before += 1;
                } else {
                    cut.in_flight += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kset::TimedKSetFlood;
    use ps_runtime::{
        run_policy_observed, Lockstep, MultiObserver, PolicyRun, SemisyncPolicy, TimedParams,
    };

    fn observed_run(cut: u64) -> (VectorClockObserver, ChandyLamportObserver) {
        let params = TimedParams::new(1, 2, 2);
        let proto = TimedKSetFlood::optimal(2, 1);
        let mut vc = VectorClockObserver::new();
        let mut cl = ChandyLamportObserver::new(cut);
        {
            let mut lockstep = Lockstep;
            let mut policy = SemisyncPolicy::new(&mut lockstep, params);
            let mut multi = MultiObserver {
                observers: vec![&mut vc, &mut cl],
            };
            let run = PolicyRun {
                max_time: 200,
                log_events: false,
                stop_after_messages: None,
            };
            let (trace, _stats) =
                run_policy_observed(&proto, 3, &[5, 1, 8], &mut policy, run, Some(&mut multi));
            assert_eq!(trace.decisions().len(), 3);
        }
        (vc, cl)
    }

    #[test]
    fn vector_clocks_consistent_on_lockstep_run() {
        let (vc, _) = observed_run(7);
        assert!(vc.consistent(), "{:?}", vc.errors());
        assert!(vc.deliveries() > 0);
        assert!(vc.clock(ProcessId(0)).values().sum::<u64>() > 0);
    }

    #[test]
    fn snapshot_conserves_channel_state() {
        for cut in [0, 1, 3, 7, 50] {
            let (_, mut cl) = observed_run(cut);
            assert!(cl.finalize(), "cut {cut}: {:?}", cl.errors());
            assert!(cl.cuts().values().all(ChannelCut::conserved));
        }
    }

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);
    const P2: ProcessId = ProcessId(2);

    #[test]
    fn vector_clock_flags_settling_without_a_send() {
        let mut vc = VectorClockObserver::new();
        vc.on_deliver(P0, P1, 3);
        assert_eq!(vc.errors().len(), 1, "{:?}", vc.errors());
        assert!(vc.errors()[0].contains("delivery without send"));
        vc.on_drop(P1, P0, 4);
        assert_eq!(vc.errors().len(), 2, "{:?}", vc.errors());
        assert!(vc.errors()[1].contains("drop without send"));
        assert!(!vc.consistent());
        // the unmatched delivery is still counted
        assert_eq!(vc.deliveries(), 1);
        // a send makes the next settlement on its channel clean, and the
        // channel's queue is FIFO: one send settles exactly one event
        vc.on_send(P1, P0, 5, 6);
        vc.on_drop(P1, P0, 6);
        assert_eq!(vc.errors().len(), 2);
        vc.on_drop(P1, P0, 7);
        assert_eq!(vc.errors().len(), 3);
    }

    #[test]
    fn snapshot_flags_settling_without_a_send() {
        let mut cl = ChandyLamportObserver::new(5);
        cl.on_deliver(P0, P1, 3);
        cl.on_drop(P1, P0, 4);
        assert_eq!(cl.errors().len(), 2, "{:?}", cl.errors());
        assert!(cl.errors()[0].contains("delivery without send"));
        assert!(cl.errors()[1].contains("drop without send"));
        assert!(!cl.finalize());
        // an unmatched settlement opens no channel
        assert!(cl.cuts().is_empty());
    }

    #[test]
    fn snapshot_checks_the_scheduled_arrival() {
        let mut cl = ChandyLamportObserver::new(10);
        cl.on_send(P0, P1, 2, 5);
        cl.on_deliver(P0, P1, 6);
        assert_eq!(cl.errors().len(), 1, "{:?}", cl.errors());
        assert!(cl.errors()[0].contains("scheduled arrival was 5"));
        assert!(!cl.finalize());
        // the late delivery still settles its message
        let cut = &cl.cuts()[&(P0, P1)];
        assert_eq!((cut.sent_before, cut.delivered_before), (1, 1));
        assert!(cut.conserved());
    }

    #[test]
    fn snapshot_accounts_each_side_of_the_cut() {
        let mut cl = ChandyLamportObserver::new(10);
        cl.on_send(P0, P1, 1, 2); // delivered before the cut
        cl.on_send(P0, P1, 3, 12); // crosses the cut
        cl.on_send(P0, P1, 4, 13); // still queued at the end of the run
        cl.on_send(P1, P0, 2, 4); // dropped before the cut
        cl.on_send(P2, P0, 11, 12); // sent after the cut, delivered
        cl.on_send(P2, P1, 12, 14); // sent after the cut, never settled
        cl.on_deliver(P0, P1, 2);
        cl.on_drop(P1, P0, 4);
        cl.on_deliver(P0, P1, 12);
        cl.on_deliver(P2, P0, 12);
        assert!(cl.finalize(), "{:?}", cl.errors());
        let expected: BTreeMap<Channel, ChannelCut> = [
            (
                (P0, P1),
                ChannelCut {
                    sent_before: 3,
                    delivered_before: 1,
                    dropped_before: 0,
                    in_flight: 2,
                },
            ),
            (
                (P1, P0),
                ChannelCut {
                    sent_before: 1,
                    delivered_before: 0,
                    dropped_before: 1,
                    in_flight: 0,
                },
            ),
            // a settled message opens its channel even when it was sent
            // after the cut; an unsettled one does not
            ((P2, P0), ChannelCut::default()),
        ]
        .into_iter()
        .collect();
        assert_eq!(cl.cuts(), &expected);
        assert_eq!(cl.cut_time(), 10);
        // finalizing twice counts the queued message once
        assert!(cl.finalize());
        assert_eq!(cl.cuts(), &expected);
    }

    #[test]
    fn clocks_list_only_nonzero_components() {
        let mut vc = VectorClockObserver::new();
        assert!(vc.clock(ProcessId(7)).is_empty());
        vc.on_step(P2, 1, 0);
        vc.on_send(P2, P0, 1, 2);
        vc.on_deliver(P2, P0, 2);
        let clock = |pairs: &[(ProcessId, u64)]| -> VClock { pairs.iter().copied().collect() };
        assert_eq!(vc.clock(P2), clock(&[(P2, 2)]));
        // the merge takes P2's stamp, then ticks P0
        assert_eq!(vc.clock(P0), clock(&[(P0, 1), (P2, 2)]));
        // P1 lies between seen processes but has no events
        assert!(vc.clock(P1).is_empty());
        assert!(vc.clock(ProcessId(7)).is_empty());
        vc.on_decide(P0, 3);
        assert_eq!(vc.clock(P0), clock(&[(P0, 2), (P2, 2)]));
        assert!(vc.consistent(), "{:?}", vc.errors());
        assert_eq!(vc.deliveries(), 1);
    }
}
