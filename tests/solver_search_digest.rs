//! Search digests: the path the decision-map solver takes on the
//! `search` benchmark grid, checked against a table recorded once.
//!
//! A verdict alone does not pin the search. Two solvers can agree on
//! every verdict while picking different branch vertices, pruning in a
//! different order or returning a different witness, and every work
//! counter, learned nogood and stored witness follows from that path.
//! So each row here records, besides the verdict, all eight
//! `SolverStats` counters and a digest of the witness.
//!
//! The grid is the six groups of the benchmark's `search` workload,
//! each prepared over the value domain `{0, 1, 2}` as the shared sweep
//! prepares it: semi-synchronous n+1=4 f=1 p=2, synchronous n+1=4 f=1
//! kpr=1 and Byzantine n+1=3 t=1, each at r ∈ {1, 2}. Every group is
//! solved at k ∈ {1, 2} in two configurations: certified symmetries
//! attached and learning on (the sweep's default), and neither.
//!
//! The witness digest is 64-bit FNV-1a over the witness values in
//! `PreparedInstance::vertex_labels` order (0 when there is no witness),
//! so it does not depend on `std::hash` or on the toolchain.
//!
//! Regenerate the table, only when the search is meant to change, with
//!
//! ```text
//! cargo test --test solver_search_digest -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `DIGESTS`.

use std::collections::BTreeSet;

use pseudosphere::agreement::{
    allowed_values, allowed_values_ss, task_symmetries, AgreementConstraint, DecisionMapSolver,
    PreparedInstance, SolverConfig, SweepKey, SymmetricView, TaskParts,
};
use pseudosphere::models::process_transpositions;
use pseudosphere::topology::{IdComplex, VertexPool};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one solve produced: the verdict, the eight `SolverStats`
/// counters (assignments, backtracks, prunings, orbit skips, backjumps,
/// learned nogoods, nogood hits, longest jump) and the witness digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Solved {
    solvable: bool,
    stats: [usize; 8],
    witness: u64,
}

/// The two solver configurations each group is solved in.
const CONFIGS: [(&str, bool); 2] = [("sym+learn", true), ("plain", false)];

/// The agreement parameters each group is solved at.
const KS: [usize; 2] = [1, 2];

fn solve<V: SymmetricView>(inst: &PreparedInstance<V>, k: usize, learning: bool) -> Solved {
    let mut solver = DecisionMapSolver::with_config(SolverConfig {
        learning,
        ..SolverConfig::default()
    });
    let map = solver.solve_prepared(inst, AgreementConstraint::AtMostKDistinct(k));
    let s = solver.stats();
    let witness = map.as_ref().map_or(0, |map| {
        let mut h = Fnv::new();
        for label in inst.vertex_labels() {
            h.u64(map[label]);
        }
        h.0
    });
    Solved {
        solvable: map.is_some(),
        stats: [
            s.assignments,
            s.backtracks,
            s.prunings,
            s.orbit_skips,
            s.backjumps,
            s.learned_nogoods,
            s.nogood_hits,
            s.max_jump,
        ],
        witness,
    }
}

/// Prepares one group in both configurations, as the shared sweep does
/// (`sym+learn` attaches the task's certified relabelings), and solves
/// it at every k; returns `(config, k, result)` in table order.
fn solve_group<V: SymmetricView>(
    pool: &VertexPool<V>,
    complex: &IdComplex,
    allowed: fn(&V) -> BTreeSet<u64>,
    n_plus_1: usize,
    values: &BTreeSet<u64>,
) -> Vec<(&'static str, usize, Solved)> {
    let mut out = Vec::new();
    for (config, on) in CONFIGS {
        let mut inst = PreparedInstance::from_interned(pool, complex, allowed);
        if on {
            let generators = process_transpositions(n_plus_1);
            inst.attach_symmetries(task_symmetries(
                pool,
                complex,
                n_plus_1,
                &generators,
                values,
            ));
        }
        for k in KS {
            out.push((config, k, solve(&inst, k, on)));
        }
    }
    out
}

/// Which model a group belongs to; each model is checked by its own
/// test so the parts run in parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    SemiSync,
    Sync,
    Byzantine,
}

/// The `search` workload's groups, in its order, each with its round
/// count and process count.
fn groups() -> Vec<(Part, &'static str, usize, usize, SweepKey)> {
    let mut out = Vec::new();
    for rounds in 1..=2 {
        out.push((
            Part::SemiSync,
            "semisync n+1=4 f=1 p=2",
            rounds,
            4,
            SweepKey::SemiSync {
                f: 1,
                n_plus_1: 4,
                k_per_round: 1,
                microrounds: 2,
                rounds,
            },
        ));
        out.push((
            Part::Sync,
            "sync n+1=4 f=1 kpr=1",
            rounds,
            4,
            SweepKey::Sync {
                f: 1,
                n_plus_1: 4,
                k_per_round: 1,
                rounds,
            },
        ));
        out.push((
            Part::Byzantine,
            "byzantine n+1=3 t=1",
            rounds,
            3,
            SweepKey::Byzantine {
                t: 1,
                n_plus_1: 3,
                rounds,
            },
        ));
    }
    out
}

/// The rows of one group, as `(name, result)` in table order.
fn group_rows(name: &str, rounds: usize, n: usize, key: &SweepKey) -> Vec<(String, Solved)> {
    let values: BTreeSet<u64> = (0..=2).collect();
    let solved = match key.task_parts(&values) {
        TaskParts::Viewed(pool, c) => solve_group(&pool, &c, allowed_values, n, &values),
        TaskParts::SsViewed(pool, c) => solve_group(&pool, &c, allowed_values_ss, n, &values),
    };
    solved
        .into_iter()
        .map(|(config, k, result)| (format!("{name} r={rounds} k={k} {config}"), result))
        .collect()
}

/// Every row name, in table order, without solving anything.
fn names() -> Vec<String> {
    let mut out = Vec::new();
    for (_, name, rounds, _, _) in groups() {
        for (config, _) in CONFIGS {
            for k in KS {
                out.push(format!("{name} r={rounds} k={k} {config}"));
            }
        }
    }
    out
}

/// `(name, solvable, stats, witness digest)` per row, recorded by
/// `generate_search_table`.
const DIGESTS: &[(&str, bool, [usize; 8], u64)] = &[
    (
        "semisync n+1=4 f=1 p=2 r=1 k=1 sym+learn",
        false,
        [5, 1, 288, 0, 0, 0, 0, 0],
        0x0000000000000000,
    ),
    (
        "semisync n+1=4 f=1 p=2 r=1 k=2 sym+learn",
        true,
        [1620, 0, 48, 0, 0, 0, 0, 0],
        0x66a8072732652325,
    ),
    (
        "semisync n+1=4 f=1 p=2 r=1 k=1 plain",
        false,
        [5, 5, 288, 0, 0, 0, 0, 0],
        0x0000000000000000,
    ),
    (
        "semisync n+1=4 f=1 p=2 r=1 k=2 plain",
        true,
        [1620, 0, 48, 0, 0, 0, 0, 0],
        0x66a8072732652325,
    ),
    (
        "sync n+1=4 f=1 kpr=1 r=1 k=1 sym+learn",
        false,
        [5, 1, 65, 0, 0, 0, 0, 0],
        0x0000000000000000,
    ),
    (
        "sync n+1=4 f=1 kpr=1 r=1 k=2 sym+learn",
        true,
        [648, 0, 48, 0, 0, 0, 0, 0],
        0x51789ef798748025,
    ),
    (
        "sync n+1=4 f=1 kpr=1 r=1 k=1 plain",
        false,
        [5, 5, 65, 0, 0, 0, 0, 0],
        0x0000000000000000,
    ),
    (
        "sync n+1=4 f=1 kpr=1 r=1 k=2 plain",
        true,
        [648, 0, 48, 0, 0, 0, 0, 0],
        0x51789ef798748025,
    ),
    (
        "byzantine n+1=3 t=1 r=1 k=1 sym+learn",
        false,
        [1, 1, 11, 0, 0, 0, 0, 0],
        0x0000000000000000,
    ),
    (
        "byzantine n+1=3 t=1 r=1 k=2 sym+learn",
        true,
        [135, 0, 0, 0, 0, 0, 0, 0],
        0x3de32ee8312b66a6,
    ),
    (
        "byzantine n+1=3 t=1 r=1 k=1 plain",
        false,
        [1, 1, 11, 0, 0, 0, 0, 0],
        0x0000000000000000,
    ),
    (
        "byzantine n+1=3 t=1 r=1 k=2 plain",
        true,
        [135, 0, 0, 0, 0, 0, 0, 0],
        0x3de32ee8312b66a6,
    ),
    (
        "semisync n+1=4 f=1 p=2 r=2 k=1 sym+learn",
        true,
        [4818, 0, 10410, 0, 0, 0, 0, 0],
        0x06e41acde12b80e5,
    ),
    (
        "semisync n+1=4 f=1 p=2 r=2 k=2 sym+learn",
        true,
        [15228, 0, 0, 0, 0, 0, 0, 0],
        0x06e41acde12b80e5,
    ),
    (
        "semisync n+1=4 f=1 p=2 r=2 k=1 plain",
        true,
        [4818, 0, 10410, 0, 0, 0, 0, 0],
        0x06e41acde12b80e5,
    ),
    (
        "semisync n+1=4 f=1 p=2 r=2 k=2 plain",
        true,
        [15228, 0, 0, 0, 0, 0, 0, 0],
        0x06e41acde12b80e5,
    ),
    (
        "sync n+1=4 f=1 kpr=1 r=2 k=1 sym+learn",
        true,
        [2346, 0, 5106, 0, 0, 0, 0, 0],
        0x47f718c062cecc25,
    ),
    (
        "sync n+1=4 f=1 kpr=1 r=2 k=2 sym+learn",
        true,
        [7452, 0, 0, 0, 0, 0, 0, 0],
        0x47f718c062cecc25,
    ),
    (
        "sync n+1=4 f=1 kpr=1 r=2 k=1 plain",
        true,
        [2346, 0, 5106, 0, 0, 0, 0, 0],
        0x47f718c062cecc25,
    ),
    (
        "sync n+1=4 f=1 kpr=1 r=2 k=2 plain",
        true,
        [7452, 0, 0, 0, 0, 0, 0, 0],
        0x47f718c062cecc25,
    ),
    (
        "byzantine n+1=3 t=1 r=2 k=1 sym+learn",
        true,
        [633, 0, 2418, 0, 0, 0, 0, 0],
        0xfaa1269e655aa326,
    ),
    (
        "byzantine n+1=3 t=1 r=2 k=2 sym+learn",
        true,
        [3051, 0, 0, 0, 0, 0, 0, 0],
        0xfad808bf7cbcd446,
    ),
    (
        "byzantine n+1=3 t=1 r=2 k=1 plain",
        true,
        [633, 0, 2418, 0, 0, 0, 0, 0],
        0xfaa1269e655aa326,
    ),
    (
        "byzantine n+1=3 t=1 r=2 k=2 plain",
        true,
        [3051, 0, 0, 0, 0, 0, 0, 0],
        0xfad808bf7cbcd446,
    ),
];

fn check(part: Part) {
    let mut failures = Vec::new();
    let rows = groups()
        .into_iter()
        .filter(|&(p, ..)| p == part)
        .flat_map(|(_, name, rounds, n, key)| group_rows(name, rounds, n, &key));
    for (name, got) in rows {
        let Some(&(_, solvable, stats, witness)) = DIGESTS.iter().find(|row| row.0 == name) else {
            failures.push(format!("{name}: no recorded row"));
            continue;
        };
        let want = Solved {
            solvable,
            stats,
            witness,
        };
        if got != want {
            failures.push(format!("{name}: solved {got:?}, recorded {want:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn table_matches_grid() {
    let names = names();
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "row names must be unique");
    let recorded: Vec<&str> = DIGESTS.iter().map(|row| row.0).collect();
    assert_eq!(recorded, names, "DIGESTS rows must follow the grid order");
}

#[test]
fn semisync_search() {
    check(Part::SemiSync);
}

#[test]
fn sync_search() {
    check(Part::Sync);
}

#[test]
fn byzantine_search() {
    check(Part::Byzantine);
}

/// Prints the `DIGESTS` table for the current solver, with each
/// group's build-and-solve time on standard error.
#[test]
#[ignore = "generator: prints the DIGESTS table (run with --nocapture)"]
fn generate_search_table() {
    println!("const DIGESTS: &[(&str, bool, [usize; 8], u64)] = &[");
    for (_, name, rounds, n, key) in groups() {
        let start = std::time::Instant::now();
        let rows = group_rows(name, rounds, n, &key);
        eprintln!("{:>9.3}s {name} r={rounds}", start.elapsed().as_secs_f64());
        for (name, got) in rows {
            println!(
                "    ({name:?}, {}, {:?}, {:#018x}),",
                got.solvable, got.stats, got.witness
            );
        }
    }
    println!("];");
}
