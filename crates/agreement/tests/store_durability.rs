//! Durability and equivalence tests for the persistent verdict store:
//! cold vs warm sweeps are byte-identical with zero solver calls on
//! replay, a truncated (killed-mid-write) segment degrades gracefully
//! and loses at most the torn record, and a sweep interrupted after a
//! checkpoint resumes without redoing flushed work. All grids include
//! a structurally-addressed (canonicalization-gated) group so the
//! fallback path is exercised alongside exact canonical keys.

use std::fs;
use std::path::PathBuf;

use ps_agreement::{
    solvability_sweep_shared_store, SolvabilityResult, SweepOptions, SweepPoint, VerdictStore,
};

/// A fresh store directory, private to this test process.
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small mixed grid: async/sync n=3 points (exact canonical keys)
/// plus a sync r=2 point whose canonicalization attempt is budget-cut,
/// forcing the structural-only store path.
fn mixed_grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for k in 1..=2 {
        points.push(SweepPoint::Async {
            k,
            f: 1,
            n_plus_1: 3,
            rounds: 1,
        });
        points.push(SweepPoint::Sync {
            k,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        });
    }
    points.push(SweepPoint::Sync {
        k: 1,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        rounds: 2,
    });
    points
}

fn run_store(
    points: &[SweepPoint],
    threads: usize,
    dir: &PathBuf,
) -> (Vec<SolvabilityResult>, ps_agreement::StoreSweepReport) {
    let mut store = VerdictStore::open(dir).expect("store opens");
    solvability_sweep_shared_store(points, threads, SweepOptions::default(), &mut store)
        .expect("sweep runs")
}

#[test]
fn warm_rerun_is_identical_with_zero_solver_calls() {
    let points = mixed_grid();
    for threads in [1usize, 4] {
        let dir = temp_store(&format!("psph-store-warm-{threads}"));
        let (cold, cold_report) = run_store(&points, threads, &dir);
        assert!(cold_report.solver_calls > 0, "cold run must solve");
        assert!(
            cold_report.inexact_keys > 0,
            "grid must exercise the structural fallback"
        );
        let (warm, warm_report) = run_store(&points, threads, &dir);
        assert_eq!(cold, warm, "warm verdict table differs from cold");
        assert_eq!(warm_report.solver_calls, 0, "warm run must be pure replay");
        assert_eq!(
            warm_report.store_hits,
            cold_report.store_hits + cold_report.solver_calls,
            "every (class, k) pair replays warm"
        );
        assert_eq!(warm_report.persisted, 0, "replays are not re-persisted");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn cold_with_store_matches_storeless_sweep() {
    let points = mixed_grid();
    let dir = temp_store("psph-store-equiv");
    let (with_store, _) = run_store(&points, 2, &dir);
    let plain = ps_agreement::solvability_sweep_shared_opts(&points, 2, SweepOptions::default());
    assert_eq!(with_store, plain, "store must not change verdicts");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_segment_loses_at_most_the_torn_record() {
    let points = mixed_grid();
    let dir = temp_store("psph-store-truncate");
    let (cold, _) = run_store(&points, 1, &dir);
    let full_len = VerdictStore::open(&dir).expect("reopen").len();

    // Simulate a crash mid-write: chop the tail off the last segment.
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("store dir listable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "psv"))
        .collect();
    segments.sort();
    let last = segments.last().expect("at least one segment");
    let bytes = fs::read(last).expect("segment readable");
    fs::write(last, &bytes[..bytes.len() - 7]).expect("truncate");

    let survivors = VerdictStore::open(&dir)
        .expect("truncated store loads")
        .len();
    assert!(survivors < full_len, "truncation must drop the torn record");
    assert!(
        survivors + 2 >= full_len,
        "truncation must lose only the torn tail ({survivors} of {full_len} survive)"
    );

    // The next sweep re-solves only what was lost and repairs the store.
    let (healed, report) = run_store(&points, 1, &dir);
    assert_eq!(cold, healed, "verdicts survive a torn segment");
    assert!(
        report.solver_calls <= 2,
        "only the torn verdicts are re-solved, got {}",
        report.solver_calls
    );
    let (warm, warm_report) = run_store(&points, 1, &dir);
    assert_eq!(cold, warm);
    assert_eq!(warm_report.solver_calls, 0, "store is fully repaired");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_without_redoing_flushed_work() {
    let points = mixed_grid();
    let dir = temp_store("psph-store-resume");

    // "Killed mid-sweep": only some classes ever got solved and
    // flushed. A class is addressed by its full (model, n, f, r)
    // group — so the surviving work is the async group in its
    // entirety (both k values share one instance and one key).
    let async_only: Vec<SweepPoint> = points
        .iter()
        .filter(|p| matches!(p, SweepPoint::Async { .. }))
        .cloned()
        .collect();
    let (_, partial_report) = run_store(&async_only, 1, &dir);
    assert!(partial_report.solver_calls > 0);

    // The resumed full sweep replays the prefix and solves the rest.
    let (resumed, report) = run_store(&points, 1, &dir);
    assert!(report.store_hits > 0, "flushed prefix work must replay");
    assert!(
        report.solver_calls < report.store_hits + report.solver_calls,
        "resume must reuse at least one stored verdict"
    );

    // Same verdicts as a cold run of the whole grid.
    let cold_dir = temp_store("psph-store-resume-cold");
    let (cold, _) = run_store(&points, 1, &cold_dir);
    assert_eq!(cold, resumed, "resumed sweep must match a cold sweep");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&cold_dir);
}
