//! The fixed inputs of the four workloads, and the answers recorded for
//! them. NOTES.md says why each grid was chosen.

use ps_agreement::SweepPoint;
use ps_models::GraphFamily;

/// Agreement parameters every sweep grid asks about.
const KS: [usize; 2] = [1, 2];

/// `construct`, cold pass: one group per model family, each big enough
/// that building it dominates, asked for `k ∈ {1, 2}`.
pub fn construct_cold() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &k in &KS {
        points.push(SweepPoint::Sync {
            k,
            f: 1,
            n_plus_1: 5,
            k_per_round: 1,
            rounds: 1,
        });
        points.push(SweepPoint::Async {
            k,
            f: 2,
            n_plus_1: 4,
            rounds: 1,
        });
        points.push(SweepPoint::Byzantine {
            k,
            t: 1,
            n_plus_1: 4,
            rounds: 1,
        });
        points.push(SweepPoint::Dynamic {
            k,
            n_plus_1: 3,
            family: GraphFamily::Rooted,
            rounds: 1,
        });
    }
    points
}

/// `construct`, warm pass: the `k = 2` points of the cold pass, which
/// the query engine builds over the same value domain `{0, 1, 2}` and
/// so finds in the store.
pub fn construct_warm() -> Vec<SweepPoint> {
    construct_cold()
        .into_iter()
        .filter(|p| p.k() == 2)
        .collect()
}

/// `search`: the grid where decision-map search outweighs construction.
pub fn search() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &k in &KS {
        for rounds in 1..=2 {
            points.push(SweepPoint::SemiSync {
                k,
                f: 1,
                n_plus_1: 4,
                k_per_round: 1,
                microrounds: 2,
                rounds,
            });
            points.push(SweepPoint::Sync {
                k,
                f: 1,
                n_plus_1: 4,
                k_per_round: 1,
                rounds,
            });
            points.push(SweepPoint::Byzantine {
                k,
                t: 1,
                n_plus_1: 3,
                rounds,
            });
        }
    }
    points
}

/// `connectivity`: one wide, shallow async complex plus narrow deep ones.
pub fn connectivity() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &k in &KS {
        points.push(SweepPoint::Async {
            k,
            f: 2,
            n_plus_1: 4,
            rounds: 1,
        });
        for rounds in 1..=2 {
            points.push(SweepPoint::Async {
                k,
                f: 2,
                n_plus_1: 3,
                rounds,
            });
            points.push(SweepPoint::Dynamic {
                k,
                n_plus_1: 3,
                family: GraphFamily::Rooted,
                rounds,
            });
        }
    }
    points
}

/// `execute`: the conformance grid (sync and async crash models, the two
/// with executable protocols).
pub fn conform() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &k in &KS {
        for rounds in 1..=2 {
            points.push(SweepPoint::Sync {
                k,
                f: 1,
                n_plus_1: 4,
                k_per_round: 1,
                rounds,
            });
        }
        points.push(SweepPoint::Async {
            k,
            f: 1,
            n_plus_1: 4,
            rounds: 1,
        });
    }
    points
}

/// The size of one traffic run: `(processes, delivery target)`.
pub type Traffic = (usize, u64);

/// Each gossip traffic run of `execute`.
pub const GOSSIP: Traffic = (1000, 1_000_000);
/// Each observed protocol run of `execute` (the flood decides first, so
/// the run ends when every process has decided).
pub const OBSERVED: Traffic = (100, 200_000);

/// Set-up's warm-up grid: the smallest instance of every model (three
/// processes, one round), asked for `k ∈ {1, 2}`.
pub fn warm_up() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &k in &KS {
        points.push(SweepPoint::Sync {
            k,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        });
        points.push(SweepPoint::Async {
            k,
            f: 1,
            n_plus_1: 3,
            rounds: 1,
        });
        points.push(SweepPoint::SemiSync {
            k,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            microrounds: 2,
            rounds: 1,
        });
        points.push(SweepPoint::Byzantine {
            k,
            t: 1,
            n_plus_1: 3,
            rounds: 1,
        });
        points.push(SweepPoint::Dynamic {
            k,
            n_plus_1: 3,
            family: GraphFamily::Rooted,
            rounds: 1,
        });
    }
    points
}

/// `execute`'s warm-up conformance grid: the sync and async points of
/// [`warm_up`].
pub fn warm_up_conform() -> Vec<SweepPoint> {
    warm_up()
        .into_iter()
        .filter(|p| matches!(p, SweepPoint::Sync { .. } | SweepPoint::Async { .. }))
        .collect()
}

/// Each gossip traffic run of `execute`'s warm-up.
pub const WARM_UP_GOSSIP: Traffic = (50, 20_000);
/// Each observed protocol run of `execute`'s warm-up.
pub const WARM_UP_OBSERVED: Traffic = (20, 10_000);

/// Crash budget of the traffic runs, and the `f` of the flood protocol.
pub const CRASHES: usize = 3;
/// Virtual-time horizon of every traffic run.
pub const HORIZON: u64 = 10_000_000;
/// Timing bounds `(c1, c2, d)` of the semisync and async policies.
pub const TIMING: (u64, u64, u64) = (1, 2, 4);
/// The Chandy–Lamport snapshot instant (twice the message delay).
pub const CUT: u64 = 2 * TIMING.2;

/// A sweep answer recorded at the commit that introduced the benchmark:
/// `(solvable, vertices, facets)`.
pub type Verdict = (bool, usize, usize);

/// `construct`, cold pass, in [`construct_cold`] order.
pub const CONSTRUCT_COLD: [Verdict; 8] = [
    (false, 2835, 17658),
    (false, 756, 194481),
    (false, 648, 6453),
    (false, 144, 1377),
    (true, 2835, 17658),
    (false, 756, 194481),
    (true, 648, 6453),
    (false, 144, 1377),
];

/// `search`, in [`search`] order.
pub const SEARCH: [Verdict; 12] = [
    (false, 1620, 4401),
    (false, 648, 2133),
    (false, 135, 360),
    (true, 15228, 8937),
    (true, 7452, 4401),
    (true, 3051, 5868),
    (true, 1620, 4401),
    (true, 648, 2133),
    (true, 135, 360),
    (true, 15228, 8937),
    (true, 7452, 4401),
    (true, 3051, 5868),
];

/// A connectivity answer recorded at the commit that introduced the
/// benchmark: `(connected, q, vertices, facets)`.
pub type Connectivity = (bool, i32, usize, usize);

/// `connectivity`, in [`connectivity`] order.
pub const CONNECTIVITY: [Connectivity; 10] = [
    (true, 0, 756, 194481),
    (true, 0, 144, 1728),
    (true, 0, 144, 1377),
    (true, 0, 7488, 110592),
    (true, 0, 6381, 70227),
    (true, 1, 756, 194481),
    (true, 1, 144, 1728),
    (true, 1, 144, 1377),
    (true, 1, 7488, 110592),
    (true, 1, 6381, 70227),
];

/// Set-up's warm-up sweep, in [`warm_up`] order.
pub const WARM_UP: [Verdict; 10] = [
    (false, 135, 216),
    (false, 135, 729),
    (false, 297, 459),
    (false, 135, 360),
    (false, 144, 1377),
    (true, 135, 216),
    (true, 135, 729),
    (true, 297, 459),
    (true, 135, 360),
    (false, 144, 1377),
];

/// Set-up's warm-up connectivity sweep, in [`warm_up`] order.
pub const WARM_UP_CONNECTIVITY: [Connectivity; 10] = [
    (true, 0, 135, 216),
    (true, 0, 135, 729),
    (true, 0, 297, 459),
    (true, 0, 135, 360),
    (true, 0, 144, 1377),
    (false, 1, 135, 216),
    (false, 1, 135, 729),
    (false, 1, 297, 459),
    (false, 1, 135, 360),
    (true, 1, 144, 1377),
];

/// Set-up's warm-up conformance check, in [`warm_up_conform`] order.
pub const WARM_UP_CONFORM: [(bool, &str); 4] = [
    (false, "WITNESS"),
    (false, "WITNESS"),
    (true, "PASS"),
    (true, "PASS"),
];

/// `execute`, conformance, in [`conform`] order: `(solvable, outcome)`.
pub const CONFORM: [(bool, &str); 6] = [
    (false, "WITNESS"),
    (true, "PASS"),
    (false, "WITNESS"),
    (true, "PASS"),
    (true, "PASS"),
    (true, "PASS"),
];
