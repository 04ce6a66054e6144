//! Enumeration digests: a fingerprint of the exact sequence each
//! product enumeration outside the complex builders produces, checked
//! against a table recorded once.
//!
//! Every space walked here is a product, one independent pick per slot:
//! the value assignments of the input faces, each crasher's recipient
//! set (§7), each process's heard set (§6), each failed process's
//! microround and last delivered message (§8). Their order is read
//! downstream. Input-face order fixes the task complexes' pool ids,
//! schedule order fixes which execution conform meets first and reports
//! as its witness, and a limit decides between the exhaustive space and
//! the randomized fallback. So a change to how any of them is walked
//! must reproduce the sequence and every `None` answer, not only the
//! set. The rows cover:
//!
//! - `input_faces` for every process count up to 4, alphabet size up
//!   to 3 and minimum participation;
//! - `sync_crash_schedules` and `async_heard_schedules` up to 4
//!   processes and 2 rounds, each row folding the answers at limits 1,
//!   5, 100 and 100 000 in that order (`None` included);
//! - `SemiSyncModel::failure_patterns` and `view_box` for `p ≤ 3` and
//!   every failure set of at most 3 of 4 processes;
//! - the traces `for_each_sync_execution` visits for `FullInformation`,
//!   `KSetFlood` and `EarlyFloodSet` on 3 and 4 processes;
//! - `conformance_check(..).table()` on sync and async grids of 3 and 4
//!   processes at schedule limits 20 000, 10 and 5, which also covers
//!   the exhaustive input assignments and the staircase-and-random
//!   fallback.
//!
//! Schedules, faces, patterns and view vectors are hashed through an
//! explicit byte encoding (64-bit FNV-1a, as in `construction_digest`);
//! traces through their `Debug` rendering and conform tables as text.
//!
//! Regenerate the table, only when an enumeration order is meant to
//! change, with
//!
//! ```text
//! cargo test --release --test enumeration_digest -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `DIGESTS`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Debug, Write as _};

use pseudosphere::agreement::{
    conformance_check, input_faces, ConformConfig, SweepOptions, SweepPoint,
};
use pseudosphere::core::{subsets_up_to_size_lex, ProcessId};
use pseudosphere::models::{async_heard_schedules, sync_crash_schedules, SemiSyncModel};
use pseudosphere::protocols::{EarlyFloodSet, KSetFlood};
use pseudosphere::runtime::{for_each_sync_execution, FullInformation, RoundProtocol};
use pseudosphere::topology::{Label, Simplex};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// An explicit, toolchain-independent byte encoding.
trait Encode {
    fn encode(&self, h: &mut Fnv);
}

impl Encode for u32 {
    fn encode(&self, h: &mut Fnv) {
        h.bytes(&self.to_le_bytes());
    }
}

impl Encode for u64 {
    fn encode(&self, h: &mut Fnv) {
        h.u64(*self);
    }
}

impl Encode for ProcessId {
    fn encode(&self, h: &mut Fnv) {
        self.0.encode(h);
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, h: &mut Fnv) {
        self.0.encode(h);
        self.1.encode(h);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        for item in self {
            item.encode(h);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, h: &mut Fnv) {
        self.as_slice().encode(h);
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        for item in self {
            item.encode(h);
        }
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        for (k, v) in self {
            k.encode(h);
            v.encode(h);
        }
    }
}

impl<V: Encode + Label> Encode for Simplex<V> {
    fn encode(&self, h: &mut Fnv) {
        self.vertices().encode(h);
    }
}

/// A row's fingerprint: how many items the row's sequences hold, and
/// the digest of all of them in order.
type Digest = (usize, u64);

fn sequence<T: Encode>(items: &[T]) -> Digest {
    let mut h = Fnv::new();
    items.encode(&mut h);
    (items.len(), h.0)
}

/// The limits every schedule row is enumerated at, in digest order.
const LIMITS: [usize; 4] = [1, 5, 100, 100_000];

/// Folds the answers at every limit of [`LIMITS`], `None` as a marker.
fn limited<T: Encode>(answer: impl Fn(usize) -> Option<Vec<T>>) -> Digest {
    let mut h = Fnv::new();
    let mut items = 0;
    for limit in LIMITS {
        match answer(limit) {
            None => h.bytes(&[0]),
            Some(seq) => {
                h.bytes(&[1]);
                seq.encode(&mut h);
                items += seq.len();
            }
        }
    }
    (items, h.0)
}

/// Digests every trace `for_each_sync_execution` visits, in order.
fn executions<P>(
    protocol: &P,
    inputs: &[P::Input],
    k_per_round: usize,
    f: usize,
    rounds: usize,
) -> Digest
where
    P: RoundProtocol,
    P::State: Debug,
    P::Output: Debug,
{
    let mut h = Fnv::new();
    let mut items = 0;
    for_each_sync_execution(protocol, inputs, k_per_round, f, rounds, &mut |trace| {
        items += 1;
        writeln!(h, "{trace:?}").expect("hashing cannot fail");
    });
    (items, h.0)
}

fn pids(ids: &[u32]) -> BTreeSet<ProcessId> {
    ids.iter().copied().map(ProcessId).collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    InputFaces,
    SyncSchedules,
    AsyncSchedules,
    SemiSync,
    Executions,
    Conform,
}

#[derive(Clone, Copy, Debug)]
enum Protocol {
    FullInformation,
    KSetFlood,
    EarlyFloodSet,
}

#[derive(Clone, Copy, Debug)]
enum ConformModel {
    Sync,
    Async,
}

#[derive(Clone, Debug)]
enum Case {
    InputFaces {
        n_plus_1: usize,
        values: u64,
        min: usize,
    },
    Sync {
        n_plus_1: usize,
        k_per_round: usize,
        f: usize,
        rounds: usize,
    },
    Async {
        participants: &'static [u32],
        min_heard: usize,
        rounds: usize,
    },
    /// Every failure pattern of every `K ⊆ {0..3}` of size `k_size`.
    Patterns { p: u32, k_size: usize },
    /// The view box over `{0..3}` of each of those patterns.
    ViewBoxes { p: u32, k_size: usize },
    Executions {
        protocol: Protocol,
        n_plus_1: usize,
        k_per_round: usize,
        f: usize,
        rounds: usize,
    },
    Conform {
        model: ConformModel,
        n_plus_1: usize,
        f: usize,
        limit: usize,
    },
}

impl Case {
    fn part(&self) -> Part {
        match self {
            Case::InputFaces { .. } => Part::InputFaces,
            Case::Sync { .. } => Part::SyncSchedules,
            Case::Async { .. } => Part::AsyncSchedules,
            Case::Patterns { .. } | Case::ViewBoxes { .. } => Part::SemiSync,
            Case::Executions { .. } => Part::Executions,
            Case::Conform { .. } => Part::Conform,
        }
    }

    fn name(&self) -> String {
        match self {
            Case::InputFaces {
                n_plus_1,
                values,
                min,
            } => format!("input_faces n+1={n_plus_1} |V|={values} min={min}"),
            Case::Sync {
                n_plus_1,
                k_per_round,
                f,
                rounds,
            } => format!("sync_schedules n+1={n_plus_1} kpr={k_per_round} f={f} r={rounds}"),
            Case::Async {
                participants,
                min_heard,
                rounds,
            } => format!("async_schedules parts={participants:?} min={min_heard} r={rounds}"),
            Case::Patterns { p, k_size } => format!("failure_patterns p={p} |K|={k_size}"),
            Case::ViewBoxes { p, k_size } => format!("view_box p={p} |K|={k_size}"),
            Case::Executions {
                protocol,
                n_plus_1,
                k_per_round,
                f,
                rounds,
            } => {
                format!("executions {protocol:?} n+1={n_plus_1} kpr={k_per_round} f={f} r={rounds}")
            }
            Case::Conform {
                model,
                n_plus_1,
                f,
                limit,
            } => format!("conform {model:?} n+1={n_plus_1} f={f} limit={limit}"),
        }
    }

    fn digest(&self) -> Digest {
        match *self {
            Case::InputFaces {
                n_plus_1,
                values,
                min,
            } => sequence(&input_faces(n_plus_1, &(0..values).collect(), min)),
            Case::Sync {
                n_plus_1,
                k_per_round,
                f,
                rounds,
            } => limited(|limit| sync_crash_schedules(n_plus_1, k_per_round, f, rounds, limit)),
            Case::Async {
                participants,
                min_heard,
                rounds,
            } => limited(|limit| {
                async_heard_schedules(&pids(participants), min_heard, rounds, limit)
            }),
            Case::Patterns { p, k_size } => {
                let model = SemiSyncModel::new(4, 3, 3, p);
                let patterns: Vec<_> = failure_sets(k_size)
                    .iter()
                    .flat_map(|k_set| model.failure_patterns(k_set))
                    .collect();
                sequence(&patterns)
            }
            Case::ViewBoxes { p, k_size } => {
                let model = SemiSyncModel::new(4, 3, 3, p);
                let everyone = pids(&[0, 1, 2, 3]);
                let boxes: Vec<_> = failure_sets(k_size)
                    .iter()
                    .flat_map(|k_set| model.failure_patterns(k_set))
                    .map(|pattern| model.view_box(&everyone, &pattern))
                    .collect();
                sequence(&boxes)
            }
            Case::Executions {
                protocol,
                n_plus_1,
                k_per_round,
                f,
                rounds,
            } => {
                // distinct neighbours, one repeated value from 4 processes on
                let inputs: Vec<u64> = (0..n_plus_1).map(|i| ((n_plus_1 - i) % 3) as u64).collect();
                match protocol {
                    Protocol::FullInformation => {
                        let inputs: Vec<u8> = inputs.iter().map(|&v| v as u8).collect();
                        executions(&FullInformation::new(), &inputs, k_per_round, f, rounds)
                    }
                    Protocol::KSetFlood => {
                        executions(&KSetFlood::new(rounds), &inputs, k_per_round, f, rounds)
                    }
                    Protocol::EarlyFloodSet => executions(
                        &EarlyFloodSet::for_failures(f),
                        &inputs,
                        k_per_round,
                        f,
                        rounds,
                    ),
                }
            }
            Case::Conform {
                model,
                n_plus_1,
                f,
                limit,
            } => {
                let cfg = ConformConfig {
                    exhaustive_limit: limit,
                    ..ConformConfig::default()
                };
                let table = conformance_check(
                    &conform_grid(model, n_plus_1, f),
                    1,
                    SweepOptions::default(),
                    &cfg,
                )
                .table();
                let mut h = Fnv::new();
                h.bytes(table.as_bytes());
                (table.lines().count(), h.0)
            }
        }
    }
}

/// The failure sets of `k_size` processes out of `{0..3}`, in
/// lexicographic order.
fn failure_sets(k_size: usize) -> Vec<BTreeSet<ProcessId>> {
    subsets_up_to_size_lex(&pids(&[0, 1, 2, 3]), k_size)
        .into_iter()
        .filter(|s| s.len() == k_size)
        .collect()
}

/// `psph conform`'s grid: `k ≤ 2` and `r ≤ 2` for sync, `r = 1` for
/// async, `k`-major, with `min(k, f)` crashes per round.
fn conform_grid(model: ConformModel, n_plus_1: usize, f: usize) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for k in 1..=2 {
        match model {
            ConformModel::Sync => points.extend((1..=2).map(|rounds| SweepPoint::Sync {
                k,
                f,
                n_plus_1,
                k_per_round: k.min(f.max(1)),
                rounds,
            })),
            ConformModel::Async => points.push(SweepPoint::Async {
                k,
                f,
                n_plus_1,
                rounds: 1,
            }),
        }
    }
    points
}

fn grid() -> Vec<Case> {
    let mut cases = Vec::new();
    for n_plus_1 in 1..=4 {
        for values in 1..=3 {
            for min in 0..=n_plus_1 {
                cases.push(Case::InputFaces {
                    n_plus_1,
                    values,
                    min,
                });
            }
        }
    }
    for n_plus_1 in 1..=4 {
        for k_per_round in 1..=n_plus_1.min(2) {
            for f in 0..n_plus_1 {
                for rounds in 0..=2 {
                    cases.push(Case::Sync {
                        n_plus_1,
                        k_per_round,
                        f,
                        rounds,
                    });
                }
            }
        }
    }
    const PARTICIPANTS: [&[u32]; 6] = [
        &[0],
        &[0, 1],
        &[0, 1, 2],
        &[0, 1, 2, 3],
        &[1, 3],
        &[0, 2, 3],
    ];
    for participants in PARTICIPANTS {
        for min_heard in 0..=participants.len() + 1 {
            for rounds in 0..=2 {
                cases.push(Case::Async {
                    participants,
                    min_heard,
                    rounds,
                });
            }
        }
    }
    for p in 1..=3 {
        for k_size in 0..=3 {
            cases.push(Case::Patterns { p, k_size });
            cases.push(Case::ViewBoxes { p, k_size });
        }
    }
    for protocol in [
        Protocol::FullInformation,
        Protocol::KSetFlood,
        Protocol::EarlyFloodSet,
    ] {
        for n_plus_1 in [3, 4] {
            for (k_per_round, f, rounds) in [(1, 1, 2), (2, 2, 2), (1, 2, 3)] {
                cases.push(Case::Executions {
                    protocol,
                    n_plus_1,
                    k_per_round,
                    f,
                    rounds,
                });
            }
        }
    }
    for (model, n_plus_1, f) in [
        (ConformModel::Sync, 3, 1),
        (ConformModel::Sync, 4, 1),
        (ConformModel::Sync, 4, 2),
        (ConformModel::Async, 3, 1),
        (ConformModel::Async, 4, 1),
    ] {
        for limit in [20_000, 10, 5] {
            cases.push(Case::Conform {
                model,
                n_plus_1,
                f,
                limit,
            });
        }
    }
    cases
}

const DIGESTS: &[(&str, usize, u64)] = &[
    ("input_faces n+1=1 |V|=1 min=0", 1, 0xa345789234d5fdb5),
    ("input_faces n+1=1 |V|=1 min=1", 1, 0xa345789234d5fdb5),
    ("input_faces n+1=1 |V|=2 min=0", 2, 0x5726d59f6f9d5c76),
    ("input_faces n+1=1 |V|=2 min=1", 2, 0x5726d59f6f9d5c76),
    ("input_faces n+1=1 |V|=3 min=0", 3, 0x5cddcef0c68ce134),
    ("input_faces n+1=1 |V|=3 min=1", 3, 0x5cddcef0c68ce134),
    ("input_faces n+1=2 |V|=1 min=0", 3, 0x5c1cd2977b2e1334),
    ("input_faces n+1=2 |V|=1 min=1", 3, 0x5c1cd2977b2e1334),
    ("input_faces n+1=2 |V|=1 min=2", 1, 0xa22f7eb01ede7b57),
    ("input_faces n+1=2 |V|=2 min=0", 8, 0xd98848814cb7359d),
    ("input_faces n+1=2 |V|=2 min=1", 8, 0xd98848814cb7359d),
    ("input_faces n+1=2 |V|=2 min=2", 4, 0xab8fbf0377ba7401),
    ("input_faces n+1=2 |V|=3 min=0", 15, 0xcff7456dfc8dbe88),
    ("input_faces n+1=2 |V|=3 min=1", 15, 0xcff7456dfc8dbe88),
    ("input_faces n+1=2 |V|=3 min=2", 9, 0xac583e97cdb6f0cf),
    ("input_faces n+1=3 |V|=1 min=0", 7, 0x6a7f5f33d4647e02),
    ("input_faces n+1=3 |V|=1 min=1", 7, 0x6a7f5f33d4647e02),
    ("input_faces n+1=3 |V|=1 min=2", 4, 0x7376aa88aba66e93),
    ("input_faces n+1=3 |V|=1 min=3", 1, 0x323e9c23748cda34),
    ("input_faces n+1=3 |V|=2 min=0", 26, 0xb0d5ae264d63aa1e),
    ("input_faces n+1=3 |V|=2 min=1", 26, 0xb0d5ae264d63aa1e),
    ("input_faces n+1=3 |V|=2 min=2", 20, 0x7fe453e046b14ef1),
    ("input_faces n+1=3 |V|=2 min=3", 8, 0xcf1a6937b0a768ed),
    ("input_faces n+1=3 |V|=3 min=0", 63, 0xa86d380c6abf9efa),
    ("input_faces n+1=3 |V|=3 min=1", 63, 0xa86d380c6abf9efa),
    ("input_faces n+1=3 |V|=3 min=2", 54, 0x367563833761abf2),
    ("input_faces n+1=3 |V|=3 min=3", 27, 0xf3a2efe094e1d30d),
    ("input_faces n+1=4 |V|=1 min=0", 15, 0x8ba377d36a57606e),
    ("input_faces n+1=4 |V|=1 min=1", 15, 0x8ba377d36a57606e),
    ("input_faces n+1=4 |V|=1 min=2", 11, 0xdda873c5678101ea),
    ("input_faces n+1=4 |V|=1 min=3", 5, 0x477775b4b0fb7724),
    ("input_faces n+1=4 |V|=1 min=4", 1, 0x0599e8b11a124b60),
    ("input_faces n+1=4 |V|=2 min=0", 80, 0x6ffd15113f8e9175),
    ("input_faces n+1=4 |V|=2 min=1", 80, 0x6ffd15113f8e9175),
    ("input_faces n+1=4 |V|=2 min=2", 72, 0x2d471211146d550d),
    ("input_faces n+1=4 |V|=2 min=3", 48, 0xb52fee6ec8952075),
    ("input_faces n+1=4 |V|=2 min=4", 16, 0x1e0ee006a2329615),
    ("input_faces n+1=4 |V|=3 min=0", 255, 0x835619c3b9cbc8de),
    ("input_faces n+1=4 |V|=3 min=1", 255, 0x835619c3b9cbc8de),
    ("input_faces n+1=4 |V|=3 min=2", 243, 0xb06212b147f14ed2),
    ("input_faces n+1=4 |V|=3 min=3", 189, 0x7f8c0e528891ea3c),
    ("input_faces n+1=4 |V|=3 min=4", 81, 0x5636ab646746fcf0),
    ("sync_schedules n+1=1 kpr=1 f=0 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=1 kpr=1 f=0 r=1", 4, 0xf5720f49f2c0a9d9),
    ("sync_schedules n+1=1 kpr=1 f=0 r=2", 4, 0xf6a4dac2a336b6cd),
    ("sync_schedules n+1=2 kpr=1 f=0 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=2 kpr=1 f=0 r=1", 4, 0xf5720f49f2c0a9d9),
    ("sync_schedules n+1=2 kpr=1 f=0 r=2", 4, 0xf6a4dac2a336b6cd),
    ("sync_schedules n+1=2 kpr=1 f=1 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=2 kpr=1 f=1 r=1", 15, 0x30231ebdfa0e17df),
    ("sync_schedules n+1=2 kpr=1 f=1 r=2", 18, 0x6b2554cecfc43cc1),
    ("sync_schedules n+1=2 kpr=2 f=0 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=2 kpr=2 f=0 r=1", 4, 0xf5720f49f2c0a9d9),
    ("sync_schedules n+1=2 kpr=2 f=0 r=2", 4, 0xf6a4dac2a336b6cd),
    ("sync_schedules n+1=2 kpr=2 f=1 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=2 kpr=2 f=1 r=1", 15, 0x30231ebdfa0e17df),
    ("sync_schedules n+1=2 kpr=2 f=1 r=2", 18, 0x6b2554cecfc43cc1),
    ("sync_schedules n+1=3 kpr=1 f=0 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=3 kpr=1 f=0 r=1", 4, 0xf5720f49f2c0a9d9),
    ("sync_schedules n+1=3 kpr=1 f=0 r=2", 4, 0xf6a4dac2a336b6cd),
    ("sync_schedules n+1=3 kpr=1 f=1 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=3 kpr=1 f=1 r=1", 26, 0xa030c0175ac8829f),
    ("sync_schedules n+1=3 kpr=1 f=1 r=2", 50, 0x7fa2f2cd09c64761),
    ("sync_schedules n+1=3 kpr=1 f=2 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=3 kpr=1 f=2 r=1", 26, 0xa030c0175ac8829f),
    (
        "sync_schedules n+1=3 kpr=1 f=2 r=2",
        146,
        0x0ceea45633ce09c1,
    ),
    ("sync_schedules n+1=3 kpr=2 f=0 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=3 kpr=2 f=0 r=1", 4, 0xf5720f49f2c0a9d9),
    ("sync_schedules n+1=3 kpr=2 f=0 r=2", 4, 0xf6a4dac2a336b6cd),
    ("sync_schedules n+1=3 kpr=2 f=1 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=3 kpr=2 f=1 r=1", 26, 0xa030c0175ac8829f),
    ("sync_schedules n+1=3 kpr=2 f=1 r=2", 50, 0x7fa2f2cd09c64761),
    ("sync_schedules n+1=3 kpr=2 f=2 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=3 kpr=2 f=2 r=1", 50, 0xf6276f24a30a65d7),
    (
        "sync_schedules n+1=3 kpr=2 f=2 r=2",
        194,
        0x9be9d95b015006b1,
    ),
    ("sync_schedules n+1=4 kpr=1 f=0 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=4 kpr=1 f=0 r=1", 4, 0xf5720f49f2c0a9d9),
    ("sync_schedules n+1=4 kpr=1 f=0 r=2", 4, 0xf6a4dac2a336b6cd),
    ("sync_schedules n+1=4 kpr=1 f=1 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=4 kpr=1 f=1 r=1", 66, 0xa371dc376754501f),
    (
        "sync_schedules n+1=4 kpr=1 f=1 r=2",
        130,
        0xb2c7c6b233429e31,
    ),
    ("sync_schedules n+1=4 kpr=1 f=2 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=4 kpr=1 f=2 r=1", 66, 0xa371dc376754501f),
    (
        "sync_schedules n+1=4 kpr=1 f=2 r=2",
        449,
        0x8dac5924a73b0f8a,
    ),
    ("sync_schedules n+1=4 kpr=1 f=3 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=4 kpr=1 f=3 r=1", 66, 0xa371dc376754501f),
    (
        "sync_schedules n+1=4 kpr=1 f=3 r=2",
        449,
        0x8dac5924a73b0f8a,
    ),
    ("sync_schedules n+1=4 kpr=2 f=0 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=4 kpr=2 f=0 r=1", 4, 0xf5720f49f2c0a9d9),
    ("sync_schedules n+1=4 kpr=2 f=0 r=2", 4, 0xf6a4dac2a336b6cd),
    ("sync_schedules n+1=4 kpr=2 f=1 r=0", 4, 0x333ffec6f690bd65),
    ("sync_schedules n+1=4 kpr=2 f=1 r=1", 66, 0xa371dc376754501f),
    (
        "sync_schedules n+1=4 kpr=2 f=1 r=2",
        130,
        0xb2c7c6b233429e31,
    ),
    ("sync_schedules n+1=4 kpr=2 f=2 r=0", 4, 0x333ffec6f690bd65),
    (
        "sync_schedules n+1=4 kpr=2 f=2 r=1",
        129,
        0x1988ecb3dd749962,
    ),
    (
        "sync_schedules n+1=4 kpr=2 f=2 r=2",
        641,
        0x009485919fce39fb,
    ),
    ("sync_schedules n+1=4 kpr=2 f=3 r=0", 4, 0x333ffec6f690bd65),
    (
        "sync_schedules n+1=4 kpr=2 f=3 r=1",
        129,
        0x1988ecb3dd749962,
    ),
    (
        "sync_schedules n+1=4 kpr=2 f=3 r=2",
        1409,
        0x6d132c634fee8116,
    ),
    ("async_schedules parts=[0] min=0 r=0", 4, 0x333ffec6f690bd65),
    ("async_schedules parts=[0] min=0 r=1", 4, 0x8cbad97ce5b91a19),
    ("async_schedules parts=[0] min=0 r=2", 4, 0x7a102c2287fe5dcd),
    ("async_schedules parts=[0] min=1 r=0", 4, 0x333ffec6f690bd65),
    ("async_schedules parts=[0] min=1 r=1", 4, 0x8cbad97ce5b91a19),
    ("async_schedules parts=[0] min=1 r=2", 4, 0x7a102c2287fe5dcd),
    ("async_schedules parts=[0] min=2 r=0", 4, 0x333ffec6f690bd65),
    ("async_schedules parts=[0] min=2 r=1", 0, 0x75f2f8d9aabe46d9),
    ("async_schedules parts=[0] min=2 r=2", 0, 0x75f2f8d9aabe46d9),
    (
        "async_schedules parts=[0, 1] min=0 r=0",
        3,
        0xa18354ddaaa5fc0b,
    ),
    (
        "async_schedules parts=[0, 1] min=0 r=1",
        12,
        0x7611c3c69991753c,
    ),
    (
        "async_schedules parts=[0, 1] min=0 r=2",
        32,
        0x5aca6d300c022f5f,
    ),
    (
        "async_schedules parts=[0, 1] min=1 r=0",
        3,
        0xa18354ddaaa5fc0b,
    ),
    (
        "async_schedules parts=[0, 1] min=1 r=1",
        12,
        0x7611c3c69991753c,
    ),
    (
        "async_schedules parts=[0, 1] min=1 r=2",
        32,
        0x5aca6d300c022f5f,
    ),
    (
        "async_schedules parts=[0, 1] min=2 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[0, 1] min=2 r=1",
        4,
        0x23cc32aeae71e14d,
    ),
    (
        "async_schedules parts=[0, 1] min=2 r=2",
        4,
        0x6601d1ff7dc637cd,
    ),
    (
        "async_schedules parts=[0, 1] min=3 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[0, 1] min=3 r=1",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[0, 1] min=3 r=2",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=0 r=0",
        2,
        0xd9816de1da4b13cd,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=0 r=1",
        128,
        0x862f2937d523a5df,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=0 r=2",
        4096,
        0xf9c67df5436dce32,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=1 r=0",
        2,
        0xd9816de1da4b13cd,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=1 r=1",
        128,
        0x862f2937d523a5df,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=1 r=2",
        4096,
        0xf9c67df5436dce32,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=2 r=0",
        2,
        0xd9816de1da4b13cd,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=2 r=1",
        54,
        0xd5390705f0b68c97,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=2 r=2",
        729,
        0x5d63533100723633,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=3 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=3 r=1",
        4,
        0x938c479016df0fd9,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=3 r=2",
        4,
        0x14af3e580aef9acd,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=4 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=4 r=1",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[0, 1, 2] min=4 r=2",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=0 r=0",
        1,
        0xeeacccccdb87eb03,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=0 r=1",
        4096,
        0xa120a5d8f690c832,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=0 r=2",
        0,
        0x4d25767f9dce13f5,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=1 r=0",
        1,
        0xeeacccccdb87eb03,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=1 r=1",
        4096,
        0xa120a5d8f690c832,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=1 r=2",
        0,
        0x4d25767f9dce13f5,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=2 r=0",
        1,
        0xeeacccccdb87eb03,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=2 r=1",
        2401,
        0x6b4e5e21751f1785,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=2 r=2",
        0,
        0x4d25767f9dce13f5,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=3 r=0",
        1,
        0xeeacccccdb87eb03,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=3 r=1",
        256,
        0x9a816ac9508cd75d,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=3 r=2",
        65536,
        0xdd8b7edbc93254bb,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=4 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=4 r=1",
        4,
        0x6ae7ebdf490e3b99,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=4 r=2",
        4,
        0xfd910b87b38731cd,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=5 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=5 r=1",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[0, 1, 2, 3] min=5 r=2",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[1, 3] min=0 r=0",
        3,
        0xa18354ddaaa5fc0b,
    ),
    (
        "async_schedules parts=[1, 3] min=0 r=1",
        12,
        0xd85c3b8b83c15fcc,
    ),
    (
        "async_schedules parts=[1, 3] min=0 r=2",
        32,
        0x2fe96673c401969f,
    ),
    (
        "async_schedules parts=[1, 3] min=1 r=0",
        3,
        0xa18354ddaaa5fc0b,
    ),
    (
        "async_schedules parts=[1, 3] min=1 r=1",
        12,
        0xd85c3b8b83c15fcc,
    ),
    (
        "async_schedules parts=[1, 3] min=1 r=2",
        32,
        0x2fe96673c401969f,
    ),
    (
        "async_schedules parts=[1, 3] min=2 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[1, 3] min=2 r=1",
        4,
        0x828a4b47fae67559,
    ),
    (
        "async_schedules parts=[1, 3] min=2 r=2",
        4,
        0x49edb3509e1cfbcd,
    ),
    (
        "async_schedules parts=[1, 3] min=3 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[1, 3] min=3 r=1",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[1, 3] min=3 r=2",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=0 r=0",
        2,
        0xd9816de1da4b13cd,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=0 r=1",
        128,
        0x4a34b90ab87554df,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=0 r=2",
        4096,
        0x780f25d93cbd1232,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=1 r=0",
        2,
        0xd9816de1da4b13cd,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=1 r=1",
        128,
        0x4a34b90ab87554df,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=1 r=2",
        4096,
        0x780f25d93cbd1232,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=2 r=0",
        2,
        0xd9816de1da4b13cd,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=2 r=1",
        54,
        0x509201f0c5ceeb57,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=2 r=2",
        729,
        0x936549d7d0248bb3,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=3 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=3 r=1",
        4,
        0x68b9fe4ab986b699,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=3 r=2",
        4,
        0x4a1ea64a098b6dcd,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=4 r=0",
        4,
        0x333ffec6f690bd65,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=4 r=1",
        0,
        0x75f2f8d9aabe46d9,
    ),
    (
        "async_schedules parts=[0, 2, 3] min=4 r=2",
        0,
        0x75f2f8d9aabe46d9,
    ),
    ("failure_patterns p=1 |K|=0", 1, 0x392209f14dea4c24),
    ("view_box p=1 |K|=0", 1, 0x02c6546a16ed54e1),
    ("failure_patterns p=1 |K|=1", 4, 0xc5c8491d2188e241),
    ("view_box p=1 |K|=1", 4, 0xf3a9675ffe149781),
    ("failure_patterns p=1 |K|=2", 6, 0x115a4f02b1d7d503),
    ("view_box p=1 |K|=2", 6, 0xbf85bbed8d5a3083),
    ("failure_patterns p=1 |K|=3", 4, 0x7bb8155144f00cc1),
    ("view_box p=1 |K|=3", 4, 0xf7ec471aa2518f41),
    ("failure_patterns p=2 |K|=0", 1, 0x392209f14dea4c24),
    ("view_box p=2 |K|=0", 1, 0xd1b36f332a07db21),
    ("failure_patterns p=2 |K|=1", 8, 0x89daa603229d4dcd),
    ("view_box p=2 |K|=1", 8, 0xd7ba08ea0256f90d),
    ("failure_patterns p=2 |K|=2", 24, 0xb57f9b3d99f34c5d),
    ("view_box p=2 |K|=2", 24, 0x1e45909ec9bcb3dd),
    ("failure_patterns p=2 |K|=3", 32, 0x15066b6210794625),
    ("view_box p=2 |K|=3", 32, 0x8d36208df40e85a5),
    ("failure_patterns p=3 |K|=0", 1, 0x392209f14dea4c24),
    ("view_box p=3 |K|=0", 1, 0x3d5da2bcea979b21),
    ("failure_patterns p=3 |K|=1", 12, 0x39e2c01970bf8e49),
    ("view_box p=3 |K|=1", 12, 0x035f74ceb75a17c9),
    ("failure_patterns p=3 |K|=2", 54, 0xa254d6f98ee6b533),
    ("view_box p=3 |K|=2", 54, 0x39ba246ed39864f3),
    ("failure_patterns p=3 |K|=3", 108, 0x2020aa06b8c0efa9),
    ("view_box p=3 |K|=3", 108, 0x8b94a3c7433f25e9),
    (
        "executions FullInformation n+1=3 kpr=1 f=1 r=2",
        25,
        0x50057692859ef57b,
    ),
    (
        "executions FullInformation n+1=3 kpr=2 f=2 r=2",
        97,
        0x45cf18992e05b769,
    ),
    (
        "executions FullInformation n+1=3 kpr=1 f=2 r=3",
        181,
        0xad0096d9fca0f2ce,
    ),
    (
        "executions FullInformation n+1=4 kpr=1 f=1 r=2",
        65,
        0x0dee8cb77156c066,
    ),
    (
        "executions FullInformation n+1=4 kpr=2 f=2 r=2",
        641,
        0x8184a36798acb286,
    ),
    (
        "executions FullInformation n+1=4 kpr=1 f=2 r=3",
        1249,
        0x93a2aa1956650a52,
    ),
    (
        "executions KSetFlood n+1=3 kpr=1 f=1 r=2",
        25,
        0xa72eaabfa2decdaa,
    ),
    (
        "executions KSetFlood n+1=3 kpr=2 f=2 r=2",
        97,
        0x8a606a5d28afd22d,
    ),
    (
        "executions KSetFlood n+1=3 kpr=1 f=2 r=3",
        181,
        0x37f2c811d7ad927b,
    ),
    (
        "executions KSetFlood n+1=4 kpr=1 f=1 r=2",
        65,
        0x46f3f243806e736f,
    ),
    (
        "executions KSetFlood n+1=4 kpr=2 f=2 r=2",
        641,
        0x3dca2e55354966e1,
    ),
    (
        "executions KSetFlood n+1=4 kpr=1 f=2 r=3",
        1249,
        0x4455b1683b534073,
    ),
    (
        "executions EarlyFloodSet n+1=3 kpr=1 f=1 r=2",
        25,
        0x6c7921521afa3140,
    ),
    (
        "executions EarlyFloodSet n+1=3 kpr=2 f=2 r=2",
        97,
        0x4ac5df9ee1d31a6b,
    ),
    (
        "executions EarlyFloodSet n+1=3 kpr=1 f=2 r=3",
        136,
        0x105db8887750a419,
    ),
    (
        "executions EarlyFloodSet n+1=4 kpr=1 f=1 r=2",
        65,
        0x6f0c3fec22b4d589,
    ),
    (
        "executions EarlyFloodSet n+1=4 kpr=2 f=2 r=2",
        641,
        0xceb35571c49b147a,
    ),
    (
        "executions EarlyFloodSet n+1=4 kpr=1 f=2 r=3",
        789,
        0xc4e41f6d54aec1fd,
    ),
    ("conform Sync n+1=3 f=1 limit=20000", 5, 0x782fa5133519f94f),
    ("conform Sync n+1=3 f=1 limit=10", 5, 0x3affc3ae4fdd3a64),
    ("conform Sync n+1=3 f=1 limit=5", 5, 0x3affc3ae4fdd3a64),
    ("conform Sync n+1=4 f=1 limit=20000", 5, 0xd3ff3311b7f736e6),
    ("conform Sync n+1=4 f=1 limit=10", 5, 0xcfb99415e6e84c8b),
    ("conform Sync n+1=4 f=1 limit=5", 5, 0xcfb99415e6e84c8b),
    ("conform Sync n+1=4 f=2 limit=20000", 5, 0xbb9ba620466176cf),
    ("conform Sync n+1=4 f=2 limit=10", 5, 0x36a8a30b5ad7c9e0),
    ("conform Sync n+1=4 f=2 limit=5", 5, 0x36a8a30b5ad7c9e0),
    ("conform Async n+1=3 f=1 limit=20000", 3, 0x405af13a23d26100),
    ("conform Async n+1=3 f=1 limit=10", 3, 0x0df73c3af296d681),
    ("conform Async n+1=3 f=1 limit=5", 3, 0x0df73c3af296d681),
    ("conform Async n+1=4 f=1 limit=20000", 3, 0x773ee2db347d655e),
    ("conform Async n+1=4 f=1 limit=10", 3, 0x6166c93b7dd314ed),
    ("conform Async n+1=4 f=1 limit=5", 3, 0x6166c93b7dd314ed),
];

fn check(part: Part) {
    let mut failures = Vec::new();
    for case in grid().into_iter().filter(|c| c.part() == part) {
        let name = case.name();
        let Some(&(_, items, digest)) = DIGESTS.iter().find(|row| row.0 == name) else {
            failures.push(format!("{name}: no recorded digest"));
            continue;
        };
        let built = case.digest();
        if built != (items, digest) {
            failures.push(format!(
                "{name}: enumerated ({}, {:#x}), recorded ({items}, {digest:#x})",
                built.0, built.1
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn table_matches_grid() {
    let names: Vec<String> = grid().iter().map(Case::name).collect();
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "grid names must be unique");
    let recorded: Vec<&str> = DIGESTS.iter().map(|row| row.0).collect();
    assert_eq!(recorded, names, "DIGESTS rows must follow the grid order");
}

#[test]
fn input_face_digests() {
    check(Part::InputFaces);
}

#[test]
fn sync_schedule_digests() {
    check(Part::SyncSchedules);
}

#[test]
fn async_schedule_digests() {
    check(Part::AsyncSchedules);
}

#[test]
fn semisync_pattern_and_view_box_digests() {
    check(Part::SemiSync);
}

#[test]
fn sync_execution_digests() {
    check(Part::Executions);
}

#[test]
fn conform_table_digests() {
    check(Part::Conform);
}

/// Prints the `DIGESTS` table for the current code, with each case's
/// time on standard error.
#[test]
#[ignore = "generator: prints the DIGESTS table (run with --nocapture)"]
fn generate_digest_table() {
    println!("const DIGESTS: &[(&str, usize, u64)] = &[");
    for case in grid() {
        let start = std::time::Instant::now();
        let (items, digest) = case.digest();
        eprintln!("{:>9.3}s {}", start.elapsed().as_secs_f64(), case.name());
        println!("    ({:?}, {items}, {digest:#018x}),", case.name());
    }
    println!("];");
}
