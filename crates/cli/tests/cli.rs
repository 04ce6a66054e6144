//! End-to-end tests for the `psph` binary.

use std::path::PathBuf;
use std::process::Command;

/// A fresh directory under the system temp dir, private to this test
/// process so that concurrent test runs never share it.
fn fresh_temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn psph(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_psph"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn figure_1_summary() {
    let (stdout, _, ok) = psph(&["figure", "1"]);
    assert!(ok);
    assert!(stdout.contains("f-vector = [6, 12, 8]"));
    assert!(stdout.contains("connectivity = 1"));
}

#[test]
fn figure_3_union_shape() {
    let (stdout, _, ok) = psph(&["figure", "3"]);
    assert!(ok);
    assert!(stdout.contains("f-vector = [9, 12, 1]"));
}

#[test]
fn figure_out_writes_files() {
    let dir = fresh_temp_dir("psph-cli-test");
    let dir_s = dir.to_str().unwrap();
    let (stdout, _, ok) = psph(&["figure", "2a", "--out", dir_s]);
    assert!(ok, "{stdout}");
    for ext in ["dot", "off", "txt", "complex", "svg"] {
        assert!(
            dir.join(format!("figure2a.{ext}")).exists(),
            "missing {ext}"
        );
    }
    // the .complex file round-trips through the text parser
    let text = std::fs::read_to_string(dir.join("figure2a.complex")).unwrap();
    let parsed = ps_topology::export::from_text(&text).unwrap();
    assert_eq!(parsed.f_vector(), vec![4, 4]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn complex_formats() {
    let (summary, _, ok) = psph(&["complex", "sync", "--procs", "3", "--rounds", "1"]);
    assert!(ok);
    assert!(summary.contains("facets (10)"));
    let (dot, _, ok) = psph(&["complex", "async", "--format", "dot"]);
    assert!(ok);
    assert!(dot.starts_with("graph"));
    let (text, _, ok) = psph(&["complex", "iis", "--format", "text"]);
    assert!(ok);
    assert!(text.starts_with("complex v1"));
}

#[test]
fn solve_staircase() {
    let (r1, _, ok) = psph(&["solve", "sync", "--rounds", "1"]);
    assert!(ok);
    assert!(r1.contains("NO decision map"));
    let (r2, _, ok) = psph(&["solve", "sync", "--rounds", "2"]);
    assert!(ok);
    assert!(r2.contains("decision map EXISTS"));
}

#[test]
fn prove_emits_derivation() {
    let (stdout, _, ok) = psph(&["prove", "sync"]);
    assert!(ok);
    assert!(stdout.contains("Mayer–Vietoris"));
    assert!(stdout.contains("proof nodes"));
}

#[test]
fn stretch_respects_bound() {
    let (stdout, _, ok) = psph(&["stretch", "--c2", "4"]);
    assert!(ok);
    assert!(stdout.contains("respected ✓"));
}

#[test]
fn simulate_reports_clean_sweep() {
    let (stdout, _, ok) = psph(&["simulate", "--procs", "3", "--f", "1", "--seeds", "25"]);
    assert!(ok);
    assert!(stdout.contains("25/25"));
}

#[test]
fn chain_prints_links() {
    let (stdout, _, ok) = psph(&["chain"]);
    assert!(ok);
    assert!(stdout.contains("indistinguishability chain"));
    assert!(stdout.contains("chain argument"));
}

#[test]
fn sweep_prints_full_grid() {
    // amortized (default) path: one shared complex per (n, f, r) group
    let (stdout, _, ok) = psph(&[
        "sweep",
        "sync",
        "--procs",
        "3",
        "--f",
        "1",
        "--k",
        "2",
        "--rounds",
        "2",
        "--threads",
        "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("amortized"), "{stdout}");
    // one row per (k, r) grid point, with classical verdicts: sync
    // consensus with f = 1 needs 2 rounds; 2-set agreement needs 1
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("solvable") || l.contains("NO decision map"))
        .collect();
    assert_eq!(rows.len(), 4, "{stdout}");
    assert!(rows[0].contains("NO decision map"), "{stdout}"); // k=1 r=1
    assert!(rows[1].contains("solvable"), "{stdout}"); // k=1 r=2
    assert!(rows[2].contains("solvable"), "{stdout}"); // k=2 r=1
}

#[test]
fn sweep_independent_flag_matches_shared_verdicts() {
    let grid = [
        "sweep", "async", "--procs", "3", "--f", "1", "--k", "2", "--rounds", "1",
    ];
    let (shared, _, ok) = psph(&grid);
    assert!(ok);
    let mut with_flag = grid.to_vec();
    with_flag.push("--independent");
    let (independent, _, ok2) = psph(&with_flag);
    assert!(ok2);
    assert!(!independent.contains("amortized"), "{independent}");
    let verdicts = |out: &str| -> Vec<bool> {
        out.lines()
            .filter(|l| l.contains("solvable") || l.contains("NO decision map"))
            .map(|l| !l.contains("NO decision map"))
            .collect()
    };
    assert_eq!(verdicts(&shared), verdicts(&independent));
    // Corollary 13 at a glance: k=1 ≤ f unsolvable, k=2 > f solvable
    assert_eq!(verdicts(&shared), vec![false, true]);
}

#[test]
fn sweep_symmetry_off_matches_default_verdicts() {
    let grid = [
        "sweep", "sync", "--procs", "3", "--f", "2", "--k", "2", "--rounds", "2",
    ];
    let (on, _, ok) = psph(&grid);
    assert!(ok, "{on}");
    assert!(on.contains("symmetry on"), "{on}");
    let mut off_args = grid.to_vec();
    off_args.extend(["--symmetry", "off"]);
    let (off, _, ok2) = psph(&off_args);
    assert!(ok2, "{off}");
    assert!(off.contains("symmetry off"), "{off}");
    let rows = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.contains("solvable") || l.contains("NO decision map"))
            .map(str::to_string)
            .collect()
    };
    // full rows (counts included) must agree, not just verdicts
    assert_eq!(rows(&on), rows(&off));
}

#[test]
fn sweep_learning_off_matches_default_verdicts() {
    let grid = [
        "sweep", "sync", "--procs", "3", "--f", "2", "--k", "2", "--rounds", "2",
    ];
    let (on, _, ok) = psph(&grid);
    assert!(ok, "{on}");
    assert!(on.contains("learning on"), "{on}");
    let mut off_args = grid.to_vec();
    off_args.extend(["--learning", "off"]);
    let (off, _, ok2) = psph(&off_args);
    assert!(ok2, "{off}");
    assert!(off.contains("learning off"), "{off}");
    let rows = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.contains("solvable") || l.contains("NO decision map"))
            .map(str::to_string)
            .collect()
    };
    // full rows (counts included) must agree, not just verdicts
    assert_eq!(rows(&on), rows(&off));
}

#[test]
fn solve_learning_flag_parses_and_agrees() {
    let base = ["solve", "async", "--procs", "3", "--f", "2", "--k", "2"];
    let (on, _, ok) = psph(&base);
    assert!(ok, "{on}");
    let mut off_args = base.to_vec();
    off_args.extend(["--learning", "off"]);
    let (off, _, ok2) = psph(&off_args);
    assert!(ok2, "{off}");
    assert_eq!(on, off);
    let mut bad = base.to_vec();
    bad.extend(["--learning", "sideways"]);
    let (_, stderr, ok3) = psph(&bad);
    assert!(!ok3);
    assert!(stderr.contains("--learning expects"), "{stderr}");
}

#[test]
fn solve_symmetry_flag_parses_and_agrees() {
    let base = ["solve", "async", "--procs", "3", "--f", "1", "--k", "1"];
    let (on, _, ok) = psph(&base);
    assert!(ok, "{on}");
    let mut off_args = base.to_vec();
    off_args.extend(["--symmetry", "off"]);
    let (off, _, ok2) = psph(&off_args);
    assert!(ok2, "{off}");
    assert_eq!(on, off);
    let mut bad = base.to_vec();
    bad.extend(["--symmetry", "sideways"]);
    let (_, stderr, ok3) = psph(&bad);
    assert!(!ok3);
    assert!(stderr.contains("--symmetry expects"), "{stderr}");
}

#[test]
fn errors_are_reported() {
    let (_, stderr, ok) = psph(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    assert!(stderr.contains("usage:"));
    let (_, stderr2, ok2) = psph(&[]);
    assert!(!ok2);
    assert!(stderr2.contains("missing subcommand"));
    let (_, stderr3, ok3) = psph(&["complex", "warp"]);
    assert!(!ok3);
    assert!(stderr3.contains("unknown model"));
}

/// The process-count bound every model command shares (ps-core's
/// subset-enumeration limit).
const PROCS_BOUND: &str = "the process count must be in 1..=20, got";

/// The `--c1/--c2/--d` check `stretch` and `traffic` share.
const TIMING: &str = "timing needs 0 < c1 ≤ c2 and d > 0, got";

/// `traffic`'s process bound (ps-runtime's `MAX_PROCESSES`).
const TRAFFIC_N: &str = "--n must be at most 4096 (the scheduler's process bound), got";

#[test]
fn out_of_range_sizes_rejected() {
    const ALL: &[&str] = &["solve", "sweep", "conform", "homology", "complex"];
    let procs = |n| format!("{PROCS_BOUND} {n}");
    let f_bound = |f| format!("the crash budget f must be at most n = 2 for 3 processes, got {f}");
    let t_bound =
        |t| format!("the Byzantine budget t must be at most n = 2 for 3 processes, got {t}");
    let patterns = |p| {
        format!(
            "the semi-synchronous model takes at most 2^20 failure patterns per round (p^k), \
             got p = {p}, k = 1"
        )
    };
    let table: [(&[&str], &[&str], String); 25] = [
        // 9 processes have 72 ordered pairs, more than the 64-bit edge
        // mask holds; the shifts used to wrap and answer on the wrong
        // complex
        (
            &["solve", "sweep", "complex", "homology"],
            &["dynamic", "--procs", "9"],
            "the dynamic model supports at most 8 processes, got 9".into(),
        ),
        // 4294967298 = 2^32 + 2 used to run as --p 2
        (
            &["solve", "sweep"],
            &["semisync", "--p", "4294967298"],
            "--p expects an integer in 0..=4294967295, got `4294967298`".into(),
        ),
        // no processes used to panic in the model constructors
        (ALL, &["async", "--procs", "0"], procs(0)),
        // above 20 the subset enumerations panicked
        (ALL, &["byzantine", "--procs", "21"], procs(21)),
        // 33 wrapped the u32 input-face masks in release builds and
        // answered on a 0-vertex complex
        (ALL, &["async", "--procs", "33"], procs(33)),
        // k = 0 used to panic (solve), quietly run k = 1 (the grids) or
        // build a one-value complex (homology)
        (
            &["solve", "sweep", "conform", "homology"],
            &["async", "--k", "0"],
            "k-set agreement needs k ≥ 1, got 0".into(),
        ),
        // prove used to panic on each: in the model constructors (no
        // processes, no microrounds) and in the subset enumeration
        (&["prove"], &["sync", "--procs", "0"], procs(0)),
        (&["prove"], &["sync", "--procs", "21"], procs(21)),
        (
            &["prove"],
            &["semisync", "--p", "0"],
            "the semi-synchronous model needs at least one microround, got 0".into(),
        ),
        // the list of p microrounds per crashed process used to abort
        // the process on allocation (16 GB at p = 2^32 − 1)
        (
            ALL,
            &["semisync", "--p", "4294967295"],
            patterns(4294967295u32),
        ),
        (
            &["prove"],
            &["semisync", "--p", "4294967295"],
            patterns(4294967295),
        ),
        // a grid without rounds used to sweep r = 1 quietly
        (
            &["sweep", "conform"],
            &["sync", "--rounds", "0"],
            "--rounds must be at least 1, got 0".into(),
        ),
        // no microrounds used to panic in the semi-synchronous model
        (
            ALL,
            &["semisync", "--p", "0"],
            "the semi-synchronous model needs at least one microround, got 0".into(),
        ),
        // budgets above n used to build the budget-n complex and label
        // its verdict with the budget asked for
        (ALL, &["async", "--procs", "3", "--f", "7"], f_bound(7)),
        (
            ALL,
            &["sync", "--procs", "3", "--f", "6", "--rounds", "2"],
            f_bound(6),
        ),
        (ALL, &["semisync", "--procs", "3", "--f", "3"], f_bound(3)),
        (ALL, &["byzantine", "--procs", "3", "--t", "3"], t_bound(3)),
        (ALL, &["byzantine", "--procs", "3", "--t", "9"], t_bound(9)),
        // no processes used to panic (stretch: `n - 1` wrapped) or
        // report a clean sweep of an empty system (simulate)
        (
            &["stretch", "simulate"],
            &["--procs", "0"],
            "--procs must be at least 1, got 0".into(),
        ),
        // k = 0 used to panic in the flooding constructors
        (
            &["stretch", "simulate"],
            &["--k", "0"],
            "k-set agreement needs k ≥ 1, got 0".into(),
        ),
        // timing parameters TimedParams::new rejects used to panic
        (
            &["stretch", "traffic"],
            &["--c1", "0", "--c2", "2", "--d", "4"],
            format!("{TIMING} c1 = 0, c2 = 2, d = 4"),
        ),
        (
            &["stretch", "traffic"],
            &["--c1", "3", "--c2", "1", "--d", "4"],
            format!("{TIMING} c1 = 3, c2 = 1, d = 4"),
        ),
        (
            &["stretch", "traffic"],
            &["--c1", "1", "--c2", "2", "--d", "0"],
            format!("{TIMING} c1 = 1, c2 = 2, d = 0"),
        ),
        // the scheduler's two n × n channel tables used to abort the
        // process on allocation (80 GB at n = 100000), and 2^32 processes
        // would have wrapped their u32 ids
        (
            &["traffic"],
            &["--n", "100000", "--messages", "10", "--policy", "sync"],
            format!("{TRAFFIC_N} 100000"),
        ),
        (
            &["traffic"],
            &["--n", "4294967296", "--messages", "10"],
            format!("{TRAFFIC_N} 4294967296"),
        ),
    ];
    for (cmds, args, expected) in &table {
        for cmd in *cmds {
            let argv: Vec<&str> = std::iter::once(*cmd).chain(args.iter().copied()).collect();
            let (stdout, stderr, ok) = psph(&argv);
            assert!(!ok, "{argv:?}: {stdout}");
            assert!(stderr.contains(expected.as_str()), "{argv:?}: {stderr}");
            assert!(stdout.is_empty(), "{argv:?} printed a verdict: {stdout}");
        }
    }
    // one point at r = 0 is the input complex, not an error
    for cmd in ["solve", "complex", "homology"] {
        let (stdout, stderr, ok) = psph(&[cmd, "sync", "--rounds", "0"]);
        assert!(ok, "{cmd}: {stderr}");
        assert!(!stdout.is_empty(), "{cmd}");
    }
    // a budget of n is the wait-free model, not an error; iis reads no
    // --f, so neither its default nor a given value is checked
    for argv in [
        &["solve", "async", "--procs", "3", "--f", "2"][..],
        &["solve", "byzantine", "--procs", "3", "--t", "2"],
        &["complex", "iis", "--procs", "1"],
        &["complex", "iis", "--f", "7"],
        &["prove", "sync", "--procs", "1"],
        &["prove", "semisync", "--procs", "1"],
    ] {
        let (stdout, stderr, ok) = psph(argv);
        assert!(ok, "{argv:?}: {stderr}");
        assert!(!stdout.is_empty(), "{argv:?}");
    }
}

#[test]
fn unknown_options_rejected() {
    // each option used to be ignored: the run went ahead on defaults
    // (`--symetry off` swept with symmetry on, `--round 2` solved r = 1)
    let table: [(&[&str], &str); 14] = [
        (&["figure", "1", "--fromat", "dot"], "fromat"),
        (&["complex", "sync", "--proc", "4"], "proc"),
        (&["prove", "sync", "--levle", "0"], "levle"),
        (&["solve", "sync", "--round", "2"], "round"),
        (
            &[
                "sweep",
                "sync",
                "--procs",
                "3",
                "--k",
                "1",
                "--symetry",
                "off",
            ],
            "symetry",
        ),
        (&["conform", "sync", "--schedule", "3"], "schedule"),
        (&["serve", "--stor", "verdicts"], "stor"),
        (&["homology", "sync", "--orcale"], "orcale"),
        (&["homology", "corpus", "--trial", "4"], "trial"),
        // corpus mode builds no model complex
        (&["homology", "corpus", "--procs", "4"], "procs"),
        (&["simulate", "--seed", "5"], "seed"),
        (&["stretch", "--c3", "4"], "c3"),
        (&["traffic", "--message", "1000"], "message"),
        (&["chain", "--proc", "3"], "proc"),
    ];
    for (argv, option) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_psph"))
            .args(argv)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{argv:?} did work: {stdout}");
        assert!(
            stderr.starts_with(&format!("error: unknown option --{option}\n")),
            "{argv:?}: {stderr}"
        );
    }
    // `--threads` stays global and `--model` stays a model command's
    for argv in [
        &["solve", "--model", "sync", "--threads", "1"][..],
        &["chain", "--threads", "2"],
    ] {
        let (stdout, stderr, ok) = psph(argv);
        assert!(ok, "{argv:?}: {stderr}");
        assert!(!stdout.is_empty(), "{argv:?}");
    }
}

/// Runs `psph serve` on `queries` and returns its output.
fn serve_one(name: &str, queries: &str) -> String {
    let dir = fresh_temp_dir(name);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("queries.txt");
    std::fs::write(&input, queries).unwrap();
    let (out, _, ok) = psph(&["serve", "--input", input.to_str().unwrap()]);
    assert!(ok, "{out}");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn serve_rejects_out_of_range_queries() {
    let table = [
        (
            "dynamic 1 9 1 rooted",
            "the dynamic model supports at most 8 processes".to_string(),
        ),
        // used to run as P = 2
        (
            "semisync 1 1 3 1 1 4294967298",
            "P = 4294967298 exceeds 4294967295".into(),
        ),
        ("async 1 0 0 1", format!("{PROCS_BOUND} 0")),
        ("byzantine 1 1 21 1", format!("{PROCS_BOUND} 21")),
        ("async 1 0 33 1", format!("{PROCS_BOUND} 33")),
        ("async 0 1 3 1", "k-set agreement needs k ≥ 1, got 0".into()),
        (
            "semisync 1 1 3 1 1 0",
            "the semi-synchronous model needs at least one microround, got 0".into(),
        ),
        // used to answer on the budget-2 complex
        (
            "async 1 7 3 1",
            "the crash budget f must be at most n = 2 for 3 processes, got 7".into(),
        ),
        (
            "sync 1 6 3 2 1",
            "the crash budget f must be at most n = 2 for 3 processes, got 6".into(),
        ),
        (
            "semisync 1 3 3 1 1 2",
            "the crash budget f must be at most n = 2 for 3 processes, got 3".into(),
        ),
        (
            "byzantine 1 3 3 1",
            "the Byzantine budget t must be at most n = 2 for 3 processes, got 3".into(),
        ),
    ];
    for (query, expected) in &table {
        let out = serve_one("psph-cli-serve-reject", &format!("{query}\n"));
        assert!(
            out.contains(&format!("parse error (line skipped): {expected}")),
            "{query}: {out}"
        );
        assert!(
            !out.contains("source="),
            "{query}: no verdict expected: {out}"
        );
        assert!(out.contains("serve session: 0 queries"), "{query}: {out}");
    }
    // a rejected line costs the session nothing: the next one is answered
    let mut queries: String = table.iter().map(|(q, _)| format!("{q}\n")).collect();
    queries.push_str("async 1 1 3 1\n");
    let out = serve_one("psph-cli-serve-reject-then-answer", &queries);
    assert_eq!(out.matches("parse error").count(), table.len(), "{out}");
    assert!(
        out.contains("async k=1 f=1 n=3 r=1: NO decision map"),
        "{out}"
    );
    assert!(out.contains("serve session: 1 queries"), "{out}");
}

#[test]
fn unknown_model_rejected_with_full_list() {
    // no silent fallback: a bad model name fails and the error names
    // every valid model, new ones included
    for args in [
        vec!["sweep", "quantum"],
        vec!["solve", "quantum"],
        vec!["sweep", "--model", "quantum"],
        vec!["solve", "--model", "quantum"],
    ] {
        let (stdout, stderr, ok) = psph(&args);
        assert!(!ok, "{args:?} should fail: {stdout}");
        assert!(stderr.contains("unknown model `quantum`"), "{stderr}");
        for model in ["async", "sync", "semisync", "byzantine", "dynamic"] {
            assert!(stderr.contains(model), "{args:?}: {stderr}");
        }
    }
    // missing model also lists the choices
    let (_, stderr, ok) = psph(&["sweep"]);
    assert!(!ok);
    assert!(stderr.contains("missing model"), "{stderr}");
    assert!(stderr.contains("byzantine"), "{stderr}");
}

#[test]
fn byzantine_sweep_prints_verdict_table() {
    let (stdout, _, ok) = psph(&[
        "sweep",
        "byzantine",
        "--procs",
        "3",
        "--t",
        "1",
        "--k",
        "2",
        "--rounds",
        "1",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("t = 1"), "{stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("solvable") || l.contains("NO decision map"))
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    // Mendes–Herlihy: k = 1 ≤ t needs > ⌈t/k⌉ = 1 rounds; k = 2 > t is
    // one-round solvable
    assert!(rows[0].contains("NO decision map"), "{stdout}");
    assert!(rows[1].contains(" solvable"), "{stdout}");
}

#[test]
fn dynamic_sweep_prints_verdict_table() {
    let (strong, _, ok) = psph(&[
        "sweep", "dynamic", "--procs", "2", "--family", "strong", "--k", "1",
    ]);
    assert!(ok, "{strong}");
    assert!(strong.contains("family = strong"), "{strong}");
    assert!(strong.contains(" solvable"), "{strong}");
    let (rooted, _, ok) = psph(&[
        "sweep", "dynamic", "--procs", "2", "--family", "rooted", "--k", "1",
    ]);
    assert!(ok, "{rooted}");
    assert!(rooted.contains("NO decision map"), "{rooted}");
    let (_, stderr, ok) = psph(&["sweep", "dynamic", "--family", "ring"]);
    assert!(!ok);
    assert!(stderr.contains("--family expects"), "{stderr}");
}

#[test]
fn serve_parses_new_model_queries() {
    let dir = fresh_temp_dir("psph-cli-serve-models");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("queries.txt");
    std::fs::write(
        &input,
        "byzantine 2 1 3 1\n\
         dynamic 1 2 1 strong\n\
         dynamic 1 2 1 ring\n",
    )
    .unwrap();
    let (out, _, ok) = psph(&["serve", "--input", input.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("byzantine k=2 t=1 n=3 r=1: solvable"), "{out}");
    assert!(
        out.contains("dynamic k=1 n=2 r=1 family=strong: solvable"),
        "{out}"
    );
    assert!(out.contains("parse error"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deep_view_text_export_is_lossless() {
    // 2-round views render compactly and can collide; the exporter must
    // disambiguate so the parsed complex has the same shape.
    let (text, _, ok) = psph(&[
        "complex", "async", "--procs", "2", "--rounds", "2", "--format", "text",
    ]);
    assert!(ok);
    let parsed = ps_topology::export::from_text(&text).unwrap();
    // ground truth vertex/facet counts from the library
    use pseudosphere_check::*;
    let (vertices, facets) = async_r2_counts();
    assert_eq!(parsed.vertex_count(), vertices);
    assert_eq!(parsed.facet_count(), facets);
}

/// tiny helper module so the test does not need the full facade crate
mod pseudosphere_check {
    pub fn async_r2_counts() -> (usize, usize) {
        let model = ps_models::AsyncModel::new(2, 1);
        let input = ps_models::input_simplex(&[0u8, 1]);
        let c = model.protocol_complex(&input, 2);
        (c.vertex_count(), c.facet_count())
    }
}

#[test]
fn sweep_store_warm_rerun_replays_everything() {
    let dir = fresh_temp_dir("psph-cli-sweep-store");
    let store = dir.to_str().unwrap();
    let grid = [
        "sweep", "sync", "--procs", "3", "--f", "1", "--k", "2", "--rounds", "1",
    ];
    let mut cold_args: Vec<&str> = grid.to_vec();
    cold_args.extend(["--store", store]);
    let (cold, _, ok) = psph(&cold_args);
    assert!(ok, "{cold}");
    assert!(cold.contains("store hits: 0"), "{cold}");
    assert!(!cold.contains("solver calls: 0"), "{cold}");

    let mut warm_args: Vec<&str> = grid.to_vec();
    warm_args.extend(["--store", store, "--resume"]);
    let (warm, _, ok) = psph(&warm_args);
    assert!(ok, "{warm}");
    assert!(warm.contains("resuming:"), "{warm}");
    assert!(warm.contains("solver calls: 0"), "{warm}");
    // identical verdict table, line for line
    let table = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.ends_with("solvable") || l.ends_with("NO decision map"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(table(&cold), table(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_resume_without_store_is_an_error() {
    let (_, stderr, ok) = psph(&["sweep", "sync", "--resume"]);
    assert!(!ok);
    assert!(stderr.contains("--resume requires --store"), "{stderr}");
}

#[test]
fn sweep_resume_with_missing_store_is_an_error() {
    let dir = fresh_temp_dir("psph-cli-no-such-store");
    let (_, stderr, ok) = psph(&[
        "sweep",
        "sync",
        "--store",
        dir.to_str().unwrap(),
        "--resume",
    ]);
    assert!(!ok);
    assert!(stderr.contains("does not exist"), "{stderr}");
}

#[test]
fn serve_answers_batches_and_reports_metrics() {
    let dir = fresh_temp_dir("psph-cli-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("queries.txt");
    std::fs::write(
        &input,
        "# consensus is async-impossible (Corollary 10)\n\
         async 1 1 3 1\n\
         sync 1 1 3 1 1\n\
         \n\
         async 1 1 3 1  # duplicate: session hit\n\
         not a query\n",
    )
    .unwrap();
    let store = dir.join("store");
    let (out, _, ok) = psph(&[
        "serve",
        "--input",
        input.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(
        out.contains("async k=1 f=1 n=3 r=1: NO decision map"),
        "{out}"
    );
    assert!(out.contains("source=solved"), "{out}");
    assert!(out.contains("source=session"), "{out}");
    assert!(out.contains("parse error"), "{out}");
    assert!(out.contains("serve session: 3 queries"), "{out}");

    // a second server over the same store replays from disk
    let (warm, _, ok) = psph(&[
        "serve",
        "--input",
        input.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(ok, "{warm}");
    assert!(warm.contains("source=store"), "{warm}");
    assert!(warm.contains("solver calls: 0"), "{warm}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `psph homology` reads no thread count: apart from the wall-clock
/// `time:` line, its report — Betti numbers, connectivity and every
/// `reduction work:` counter — is the same at every `--threads`.
#[test]
fn homology_output_is_thread_invariant() {
    let run = |threads: &str| {
        let args = format!("homology sync --procs 4 --f 2 --k 2 --rounds 2 --threads {threads}");
        let (stdout, stderr, ok) = psph(&args.split_whitespace().collect::<Vec<_>>());
        assert!(ok, "{stderr}");
        stdout
            .lines()
            .filter(|l| !l.trim_start().starts_with("time:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = run("1");
    assert!(serial.contains("reduction work:"), "{serial}");
    assert_eq!(run("2"), serial);
}

#[test]
fn conform_sync_grid_passes_and_witnesses() {
    let (stdout, _, ok) = psph(&[
        "conform", "sync", "--procs", "3", "--f", "1", "--k", "2", "--rounds", "2",
    ]);
    assert!(ok, "{stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("Solvable") || l.contains("Impossible"))
        .collect();
    assert_eq!(rows.len(), 4, "{stdout}");
    // (k=1, r=1) is the classical impossible point: an executable
    // witness schedule must be found and printed for replay
    assert!(
        rows[0].contains("Impossible") && rows[0].contains("WITNESS"),
        "{stdout}"
    );
    assert!(rows[0].contains("inputs="), "{stdout}");
    for row in &rows[1..] {
        assert!(row.contains("Solvable") && row.contains("PASS"), "{stdout}");
    }
    assert!(stdout.contains("all 4 points conform"), "{stdout}");
}

#[test]
fn conform_async_witnesses_corollary_13() {
    let (stdout, _, ok) = psph(&[
        "conform", "async", "--procs", "3", "--f", "1", "--k", "2", "--rounds", "1",
    ]);
    assert!(ok, "{stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("Solvable") || l.contains("Impossible"))
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    assert!(
        rows[0].contains("WITNESS"),
        "k = 1 ≤ f must break: {stdout}"
    );
    assert!(rows[1].contains("PASS"), "k = 2 > f must run: {stdout}");
}

#[test]
fn conform_skips_models_without_executable_protocols() {
    let (stdout, _, ok) = psph(&["conform", "byzantine", "--procs", "3", "--t", "1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("SKIP"), "{stdout}");
    assert!(stdout.contains("1 SKIP"), "{stdout}");
}

#[test]
fn traffic_protocol_attaches_observers() {
    let (stdout, _, ok) = psph(&[
        "traffic",
        "--n",
        "6",
        "--messages",
        "1000",
        "--policy",
        "semisync",
        "--protocol",
        "floodset",
        "--crashes",
        "1",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("invariants OK"), "{stdout}");
    assert!(stdout.contains("happens-before OK"), "{stdout}");
    assert!(stdout.contains("conservation OK"), "{stdout}");
    let (bv, _, ok) = psph(&[
        "traffic",
        "--n",
        "4",
        "--messages",
        "500",
        "--policy",
        "all",
        "--protocol",
        "bv",
    ]);
    assert!(ok, "{bv}");
    // one observer line per policy
    assert_eq!(bv.matches("observers:").count(), 3, "{bv}");
}

#[test]
fn traffic_unknown_protocol_rejected_with_full_list() {
    let (_, stderr, ok) = psph(&["traffic", "--protocol", "paxos"]);
    assert!(!ok);
    assert!(stderr.contains("unknown protocol `paxos`"), "{stderr}");
    for name in ["gossip", "floodset", "bv"] {
        assert!(stderr.contains(name), "{stderr}");
    }
}
