//! Subcommand implementations for `psph`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use ps_agreement::{
    conformance_check, solvability_sweep_opts, solvability_sweep_shared_opts,
    solvability_sweep_shared_store, stretch_experiment, stretch_trace, ConformConfig, QueryEngine,
    SweepOptions, SweepPoint, TaskParts, VerdictStore,
};
use ps_core::{process_simplex, MvProver, ProcessId, Pseudosphere};
use ps_models::{
    input_simplex, AsyncModel, ByzantineModel, DynamicModel, GraphFamily, IisModel, SemiSyncModel,
    SyncModel,
};
use ps_protocols::{
    BvConsensus, ChandyLamportObserver, KSetFlood, Rounds, TimedKSetFlood, VectorClockObserver,
};
use ps_runtime::{
    traffic_run, traffic_run_protocol, AsyncPolicy, MultiObserver, RandomAdversary,
    RandomTimedAdversary, SemisyncPolicy, SyncExecutor, SyncPolicy, TimedParams, TimedProtocol,
    TimingPolicy, TrafficReport, MAX_PROCESSES,
};
use ps_topology::export::{ascii_summary, to_dot, to_off, to_text};
use ps_topology::{indistinguishability_chain, Complex, ConnectivityAnalyzer, Label};

use crate::args::{ArgError, Args};

/// Usage text shown on errors.
pub const USAGE: &str = "\
usage:
  psph figure <1|2a|2b|3> [--out DIR]
  psph complex <async|sync|semisync|iis|byzantine|dynamic> [--procs N]
               [--f F] [--k K] [--p P] [--t T] [--family rooted|strong]
               [--rounds R] [--format summary|dot|off|text]
  psph prove <sync|semisync> [--procs N] [--k K] [--p P] [--level L]
  psph solve <async|sync|semisync|byzantine|dynamic> [--procs N] [--f F]
               [--k K] [--p P] [--t T] [--family rooted|strong]
               [--rounds R] [--symmetry on|off] [--learning on|off]
  psph sweep <async|sync|semisync|byzantine|dynamic> [--procs N] [--f F]
               [--k K] [--p P] [--t T] [--family rooted|strong]
               [--rounds R] [--independent] [--symmetry on|off]
               [--learning on|off] [--store DIR] [--resume]
  psph conform <async|sync|semisync|byzantine|dynamic> [--procs N] [--f F]
               [--k K] [--p P] [--t T] [--family rooted|strong] [--rounds R]
               [--seed S] [--schedules N] [--limit L] [--inputs I]
               [--symmetry on|off] [--learning on|off]
  psph serve [--store DIR] [--input FILE] [--symmetry on|off]
               [--learning on|off]
  psph homology <async|sync|semisync|byzantine|dynamic> [--procs N]
               [--f F] [--k K] [--p P] [--t T] [--family rooted|strong]
               [--rounds R] [--oracle]
  psph homology corpus [--trials T] [--seed S]
  psph simulate [--procs N] [--f F] [--k K] [--seeds S]
  psph stretch [--procs N] [--k K] [--c1 T] [--c2 T] [--d T] [--timeline]
  psph traffic [--n N] [--messages M] [--policy sync|semisync|async|all]
               [--protocol gossip|floodset|bv] [--cut T] [--seed S]
               [--crashes C] [--c1 T] [--c2 T] [--d T] [--horizon H]
  psph chain [--procs N]

defaults: --procs 3 --f 1 --k 1 --p 2 --t 1 --family rooted --rounds 1
models: every model-taking subcommand also accepts `--model NAME`
        in place of the positional; unknown names are rejected with
        the list of valid models (no silent fallback).
        byzantine: synchronous, ≤ --t Byzantine processes equivocating
        per recipient.  dynamic: reliable processes, per-round directed
        communication graph drawn from --family (rooted | strong).
global: --threads T  worker threads for sweeps and integral homology
        (default: all cores; PS_THREADS overrides).  Any option a
        subcommand does not list above is rejected before it runs.
        --symmetry on|off  exploit task symmetries: orbit branching in
        the solver and canonical-form dedupe across sweep groups
        (default: on; verdicts are identical either way)
        --learning on|off  conflict-driven backjumping with nogood
        learning in the decision-map solver
        (default: on; verdicts are identical either way)
store:  --store DIR  persistent verdict store: sweeps warm-start from
        stored verdicts and checkpoint new ones; serve probes it
        before solving.  --resume requires --store and an existing
        store directory (continue an interrupted sweep).
serve:  reads queries from stdin (or --input FILE), one per line:
          async K F N R | sync K F N R KPR | semisync K F N R KPR P
          | byzantine K T N R | dynamic K N R <rooted|strong>
        blank line = end of batch; `#` starts a comment; malformed
        lines are reported and skipped.  Prints one verdict line per
        query and a metrics summary at end of input.
conform: sweeps the grid for verdicts, then executes the matching
        protocol under adversary schedules of each point's model:
        Solvable points must PASS every executed schedule, Impossible
        points must yield a replayable WITNESS schedule breaking the
        task.  FAIL (a Solvable point broke) or UNBROKEN (an
        Impossible point survived) exits nonzero.  --limit caps the
        exhaustive schedule space (beyond it: targeted staircase +
        --schedules seeded random schedules), --inputs caps exhaustive
        input assignments.  semisync/byzantine/dynamic points SKIP
        (no executable protocol; semisync is pinned by Corollary 22).
traffic: --protocol replaces the gossip workload with a real protocol
        on the same scheduler (floodset: timed k-set flooding;
        bv: BV-style binary consensus via the rounds adapter), with
        vector-clock and Chandy-Lamport snapshot observers attached
        (--cut sets the snapshot time; default 2d).
homology: model mode runs the sparse GF(2) engine on one protocol
        complex (Betti numbers, connectivity, work counters, timings);
        corpus mode diffs the sparse engine against the dense oracle
        on a fixed + randomized corpus and exits nonzero on any
        mismatch (the CI homology-equivalence gate).";

/// Parses `--symmetry on|off` (default `on`).
fn symmetry_opt(args: &Args) -> Result<bool, ArgError> {
    match args.str_opt("symmetry", "on").as_str() {
        "on" | "true" => Ok(true),
        "off" | "false" => Ok(false),
        other => Err(ArgError(format!(
            "--symmetry expects `on` or `off`, got `{other}`"
        ))),
    }
}

/// Parses `--learning on|off` (default `on`).
fn learning_opt(args: &Args) -> Result<bool, ArgError> {
    match args.str_opt("learning", "on").as_str() {
        "on" | "true" => Ok(true),
        "off" | "false" => Ok(false),
        other => Err(ArgError(format!(
            "--learning expects `on` or `off`, got `{other}`"
        ))),
    }
}

/// Builds [`SweepOptions`] from the shared `--symmetry`/`--learning`
/// flags.
fn sweep_options(args: &Args) -> Result<SweepOptions, ArgError> {
    Ok(SweepOptions {
        symmetry: symmetry_opt(args)?,
        learning: learning_opt(args)?,
    })
}

/// Parses `--family rooted|strong` (default `rooted`).
fn family_opt(args: &Args) -> Result<GraphFamily, ArgError> {
    match args.str_opt("family", "rooted").as_str() {
        "rooted" => Ok(GraphFamily::Rooted),
        "strong" => Ok(GraphFamily::StronglyConnected),
        other => Err(ArgError(format!(
            "--family expects `rooted` or `strong`, got `{other}`"
        ))),
    }
}

/// Resolves the model name from `--model NAME` or the first positional
/// argument and validates it against `valid`. Unknown names are
/// rejected with the full list of valid models — never silently mapped
/// to a default.
fn model_arg(args: &Args, valid: &[&str]) -> Result<String, ArgError> {
    let name = model_name(args)
        .ok_or_else(|| ArgError(format!("missing model (one of: {})", valid.join(", "))))?;
    if valid.contains(&name) {
        Ok(name.to_string())
    } else {
        Err(ArgError(format!(
            "unknown model `{name}` (valid models: {})",
            valid.join(", ")
        )))
    }
}

/// The options of a grid point: the model (`--model` or the
/// positional), its size and budget, and the `(k, r)` coordinates.
const POINT_OPTIONS: &[&str] = &["model", "procs", "f", "k", "p", "t", "family", "rounds"];

/// The solver's switches, read by every subcommand that solves.
const SOLVER_OPTIONS: &[&str] = &["symmetry", "learning"];

/// A subcommand's entry point.
type Command = fn(&Args) -> Result<(), ArgError>;

/// The model name as given: `--model NAME`, else the first positional.
fn model_name(args: &Args) -> Option<&str> {
    args.options
        .get("model")
        .or(args.positional.first())
        .map(String::as_str)
}

/// Dispatches a parsed command line. Every option must be one the
/// subcommand reads (or the global `--threads`); anything else is
/// rejected before any work starts, never silently ignored.
pub fn run(args: &Args) -> Result<(), ArgError> {
    let (command, options): (Command, &[&[&str]]) = match args.command.as_deref() {
        Some("figure") => (figure, &[&["out", "format"]]),
        Some("complex") => (complex, &[POINT_OPTIONS, &["format"]]),
        Some("prove") => (prove, &[&["model", "procs", "k", "p", "level"]]),
        Some("solve") => (solve, &[POINT_OPTIONS, SOLVER_OPTIONS]),
        Some("sweep") => (
            sweep,
            &[
                POINT_OPTIONS,
                SOLVER_OPTIONS,
                &["independent", "store", "resume"],
            ],
        ),
        Some("conform") => (
            conform,
            &[
                POINT_OPTIONS,
                SOLVER_OPTIONS,
                &["limit", "schedules", "inputs", "seed"],
            ],
        ),
        Some("homology") if model_name(args) == Some("corpus") => {
            (homology, &[&["model", "trials", "seed"]])
        }
        Some("homology") => (homology, &[POINT_OPTIONS, &["oracle"]]),
        Some("serve") => (serve, &[SOLVER_OPTIONS, &["store", "input"]]),
        Some("simulate") => (simulate, &[&["procs", "k", "f", "seeds"]]),
        Some("stretch") => (stretch, &[&["procs", "k", "c1", "c2", "d", "timeline"]]),
        Some("traffic") => (
            traffic,
            &[&[
                "n", "messages", "seed", "crashes", "c1", "c2", "d", "horizon", "policy",
                "protocol", "cut",
            ]],
        ),
        Some("chain") => (chain, &[&["procs"]]),
        Some(other) => return Err(ArgError(format!("unknown subcommand `{other}`"))),
        None => return Err(ArgError("missing subcommand".into())),
    };
    let read = |key: &str| key == "threads" || options.iter().any(|set| set.contains(&key));
    if let Some(key) = args.options.keys().find(|key| !read(key)) {
        return Err(ArgError(format!("unknown option --{key}")));
    }
    if let Some(t) = args.options.get("threads") {
        let t: usize = t
            .parse()
            .map_err(|_| ArgError(format!("--threads expects an integer, got `{t}`")))?;
        if t == 0 {
            return Err(ArgError("--threads must be at least 1".into()));
        }
        ps_topology::parallel::set_threads(Some(t));
    }
    command(args)
}

fn first_positional(args: &Args, what: &str) -> Result<String, ArgError> {
    args.positional
        .first()
        .cloned()
        .ok_or_else(|| ArgError(format!("missing {what}")))
}

/// Maps vertices to their Debug form, disambiguating collisions (deep
/// views render compactly and may collide) by appending `#index`.
fn injective_labels<V: Label>(c: &Complex<V>) -> Complex<String> {
    use std::collections::BTreeMap;
    // position map, not binary search: no assumption that
    // `vertex_set()` iteration order agrees with `Ord`
    let mut position: BTreeMap<&V, usize> = BTreeMap::new();
    let verts: Vec<V> = c.vertex_set().into_iter().collect();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (i, v) in verts.iter().enumerate() {
        position.insert(v, i);
        *counts.entry(format!("{v:?}")).or_default() += 1;
    }
    c.map(|v| {
        let base = format!("{v:?}");
        if counts[&base] > 1 {
            format!("{base}#{}", position[v])
        } else {
            base
        }
    })
}

fn render<V: Label>(c: &Complex<V>, title: &str, format: &str) -> Result<String, ArgError> {
    Ok(match format {
        "summary" => {
            let mut out = ascii_summary(c, title);
            let an = ConnectivityAnalyzer::new(c);
            let conn = match an.connectivity() {
                i32::MAX => "∞ (contractible)".to_string(),
                k => k.to_string(),
            };
            let _ = writeln!(out, "connectivity = {conn}");
            out
        }
        "dot" => to_dot(c, title),
        "off" => to_off(c),
        "text" => to_text(&injective_labels(c)),
        other => return Err(ArgError(format!("unknown format `{other}`"))),
    })
}

fn figure(args: &Args) -> Result<(), ArgError> {
    let which = first_positional(args, "figure id (1, 2a, 2b, 3)")?;
    let binary: BTreeSet<u8> = [0, 1].into_iter().collect();
    let (title, c): (String, Complex<(ProcessId, u8)>) = match which.as_str() {
        "1" => (
            "Figure 1: ψ(S²; {0,1})".into(),
            Pseudosphere::uniform(process_simplex(3), binary).realize(),
        ),
        "2a" => (
            "Figure 2a: ψ(S¹; {0,1})".into(),
            Pseudosphere::uniform(process_simplex(2), binary).realize(),
        ),
        "2b" => (
            "Figure 2b: ψ(S¹; {0,1,2})".into(),
            Pseudosphere::uniform(process_simplex(2), (0..3).collect()).realize(),
        ),
        "3" => {
            let model = SyncModel::new(3, 1, 1);
            let input = input_simplex(&[0u8, 1, 2]);
            let c = model.one_round_union(&input).realize();
            println!(
                "{}",
                render(
                    &c,
                    "Figure 3: S¹(S²), ≤1 failure",
                    &args.str_opt("format", "summary")
                )?
            );
            return maybe_write_out(args, "figure3", &c);
        }
        other => return Err(ArgError(format!("unknown figure `{other}`"))),
    };
    println!(
        "{}",
        render(&c, &title, &args.str_opt("format", "summary"))?
    );
    maybe_write_out(args, &format!("figure{which}"), &c)
}

fn maybe_write_out<V: Label>(args: &Args, stem: &str, c: &Complex<V>) -> Result<(), ArgError> {
    if let Some(dir) = args.options.get("out") {
        std::fs::create_dir_all(dir).map_err(|e| ArgError(format!("cannot create {dir}: {e}")))?;
        for (ext, contents) in [
            ("dot", to_dot(c, stem)),
            ("off", to_off(c)),
            ("txt", ascii_summary(c, stem)),
            ("complex", to_text(&injective_labels(c))),
            (
                "svg",
                ps_topology::svg::to_svg(c, stem, &ps_topology::svg::SvgOptions::default()),
            ),
        ] {
            let path = format!("{dir}/{stem}.{ext}");
            std::fs::write(&path, contents)
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        }
        println!("wrote {dir}/{stem}.{{dot,off,txt,complex,svg}}");
    }
    Ok(())
}

fn complex(args: &Args) -> Result<(), ArgError> {
    let model = model_arg(
        args,
        &["async", "sync", "semisync", "iis", "byzantine", "dynamic"],
    )?;
    let n = args.usize_opt("procs", 3)?;
    let f = args.usize_opt("f", 1)?;
    let k = args.usize_opt("k", 1)?;
    let p = args.u32_opt("p", 2)?;
    let t = args.usize_opt("t", 1)?;
    let rounds = args.usize_opt("rounds", 1)?;
    let format = args.str_opt("format", "summary");
    // the sweeps' bounds on --procs, --p and the budgets; --k is a
    // per-round crash bound here, not an agreement parameter, so the
    // check runs at k = 1, and the semi-synchronous failure patterns
    // are counted at the per-round bound the model is built with
    let mut point = point_from_args(args, &model, 1, rounds)?;
    if let SweepPoint::SemiSync { k_per_round, .. } = &mut point {
        *k_per_round = k;
        point.check().map_err(ArgError)?;
    }
    let inputs: Vec<u8> = (0..n as u8).collect();
    let input = input_simplex(&inputs);
    let title = format!("{model} complex, {n} processes, {rounds} round(s)");
    let text = match model.as_str() {
        "async" => {
            let m = AsyncModel::new(n, f);
            render(&m.protocol_complex(&input, rounds), &title, &format)?
        }
        "sync" => {
            let m = SyncModel::new(n, k, f);
            render(&m.protocol_complex(&input, rounds), &title, &format)?
        }
        "semisync" => {
            let m = SemiSyncModel::new(n, k, f, p);
            render(&m.protocol_complex(&input, rounds), &title, &format)?
        }
        "iis" => {
            let m = IisModel::new();
            render(&m.protocol_complex(&input, rounds), &title, &format)?
        }
        "byzantine" => {
            let m = ByzantineModel::new(n, t);
            render(&m.protocol_complex(&input, rounds), &title, &format)?
        }
        "dynamic" => {
            let m = DynamicModel::new(n, family_opt(args)?);
            render(&m.protocol_complex(&input, rounds), &title, &format)?
        }
        _ => unreachable!("model_arg validated the name"),
    };
    println!("{text}");
    Ok(())
}

fn prove(args: &Args) -> Result<(), ArgError> {
    let model = model_arg(args, &["sync", "semisync"])?;
    let n = args.usize_opt("procs", 3)?;
    let k = args.usize_opt("k", 1)?;
    let p = args.u32_opt("p", 2)?;
    // the sweeps' bounds on --procs and (semisync) --p; --k is the
    // per-round crash bound the model is built with and prove reads no
    // --f, so the check runs at k = 1, f = 0
    SweepPoint::SemiSync {
        k: 1,
        f: 0,
        n_plus_1: n,
        k_per_round: k,
        microrounds: if model == "semisync" { p } else { 1 },
        rounds: 1,
    }
    .check()
    .map_err(ArgError)?;
    let inputs: Vec<u8> = (0..n as u8).collect();
    let input = input_simplex(&inputs);
    match model.as_str() {
        "sync" => {
            let m = SyncModel::new(n, k, k);
            let union = m.one_round_union(&input);
            let level = args.i32_opt("level", m.claimed_connectivity(n as i32 - 1))?;
            run_prover(&union, level);
        }
        "semisync" => {
            let m = SemiSyncModel::new(n, k, k, p);
            let union = m.one_round_union(&input);
            let level = args.i32_opt("level", m.claimed_connectivity(n as i32 - 1))?;
            run_prover(&union, level);
        }
        other => return Err(ArgError(format!("unknown model `{other}`"))),
    }
    Ok(())
}

fn run_prover<P: Label, U: Label>(union: &ps_core::PseudosphereUnion<P, U>, level: i32) {
    println!(
        "union: {} pseudosphere members; attempting {level}-connectivity\n",
        union.len()
    );
    let mut prover = MvProver::new();
    match prover.prove_k_connected(union, level) {
        Ok(proof) => {
            println!("{proof}");
            let s = prover.stats();
            println!(
                "({} proof nodes; {} leaf evaluations, {} MV applications, {} intersections)",
                proof.size(),
                s.leaf_evaluations,
                s.mv_applications,
                s.intersections
            );
        }
        Err(e) => println!("not provable by the flat MV induction: {e}"),
    }
}

fn solve(args: &Args) -> Result<(), ArgError> {
    let model = model_arg(args, &MODELS)?;
    let k = args.usize_opt("k", 1)?;
    let rounds = args.usize_opt("rounds", 1)?;
    let res = point_from_args(args, &model, k, rounds)?.run_opts(sweep_options(args)?);
    let (n, budget) = (args.usize_opt("procs", 3)?, budget(args, &model)?);
    println!("{model} {k}-set agreement, {n} processes, {budget}, r = {rounds}:");
    println!(
        "  protocol complex: {} vertices, {} facets",
        res.vertices, res.facets
    );
    if res.solvable {
        println!("  decision map EXISTS (witness found by exhaustive search)");
    } else {
        println!("  NO decision map exists (proved by exhaustive search)");
    }
    Ok(())
}

/// The models every solver-backed subcommand accepts.
const MODELS: [&str; 5] = ["async", "sync", "semisync", "byzantine", "dynamic"];

/// The one map from a model name and the shared
/// `--procs/--f/--p/--t/--family` options to a [`SweepPoint`] for
/// agreement parameter `k` at `rounds` rounds, checked by
/// [`SweepPoint::check`]. Sync and semisync crash at most
/// `min(k, f)` processes per round.
fn point_from_args(
    args: &Args,
    model: &str,
    k: usize,
    rounds: usize,
) -> Result<SweepPoint, ArgError> {
    let n_plus_1 = args.usize_opt("procs", 3)?;
    let f = args.usize_opt("f", 1)?;
    let microrounds = args.u32_opt("p", 2)?;
    let t = args.usize_opt("t", 1)?;
    let family = family_opt(args)?;
    let k_per_round = k.max(1).min(f.max(1));
    let point = match model {
        "async" => SweepPoint::Async {
            k,
            f,
            n_plus_1,
            rounds,
        },
        "sync" => SweepPoint::Sync {
            k,
            f,
            n_plus_1,
            k_per_round,
            rounds,
        },
        "semisync" => SweepPoint::SemiSync {
            k,
            f,
            n_plus_1,
            k_per_round,
            microrounds,
            rounds,
        },
        "byzantine" => SweepPoint::Byzantine {
            k,
            t,
            n_plus_1,
            rounds,
        },
        "dynamic" => SweepPoint::Dynamic {
            k,
            n_plus_1,
            family,
            rounds,
        },
        // `complex iis` takes async's bounds on --procs, but reads no --f
        "iis" => SweepPoint::Async {
            k,
            f: 0,
            n_plus_1,
            rounds,
        },
        _ => unreachable!("model_arg validated the name"),
    };
    point.check().map_err(ArgError)?;
    Ok(point)
}

/// The budget `model`'s output names: `t` for Byzantine, the graph
/// family for dynamic, `f` otherwise.
fn budget(args: &Args, model: &str) -> Result<String, ArgError> {
    Ok(match model {
        "byzantine" => format!("t = {}", args.usize_opt("t", 1)?),
        "dynamic" => format!("family = {}", family_opt(args)?.name()),
        _ => format!("f = {}", args.usize_opt("f", 1)?),
    })
}

/// Grid points beside their `(k, r)` coordinates.
type Grid = Vec<((usize, usize), SweepPoint)>;

/// The `(k, r)` grid of `sweep` and `conform`: every point up to
/// `--k` and `--rounds`, in `k`-major order. A grid starts at one
/// round, so `--rounds 0` is an error rather than a quiet r = 1.
fn grid_points(args: &Args, model: &str) -> Result<Grid, ArgError> {
    let k_max = args.usize_opt("k", 1)?;
    let r_max = args.usize_opt("rounds", 1)?;
    if r_max == 0 {
        return Err(ArgError("--rounds must be at least 1, got 0".into()));
    }
    let mut grid = Vec::new();
    for k in 1..=k_max.max(1) {
        for rounds in 1..=r_max {
            // `k.min(k_max)` hands `--k 0` to the check instead of
            // quietly sweeping k = 1
            let point = point_from_args(args, model, k.min(k_max), rounds)?;
            grid.push(((k, rounds), point));
        }
    }
    Ok(grid)
}

/// Batched solvability sweep over every `(k, r)` grid point up to the
/// given bounds. By default points differing only in `k` share one
/// interned protocol complex and facet index
/// ([`ps_agreement::solvability_sweep_shared_opts`]); `--independent`
/// restores the per-point canonical-domain path.
fn sweep(args: &Args) -> Result<(), ArgError> {
    let model = model_arg(args, &MODELS)?;
    let (coords, points): (Vec<_>, Vec<_>) = grid_points(args, &model)?.into_iter().unzip();
    let threads = ps_topology::parallel::configured_threads();
    let independent = args.flag("independent");
    let opts = sweep_options(args)?;
    let store_dir = args.options.get("store").cloned();
    let resume = args.flag("resume");
    if resume && store_dir.is_none() {
        return Err(ArgError("--resume requires --store DIR".into()));
    }
    if store_dir.is_some() && independent {
        return Err(ArgError(
            "--store uses the shared-complex path; drop --independent".into(),
        ));
    }
    println!(
        "{model} sweep: {} processes, {}, k = 1..={}, r = 1..={} ({} points, {threads} threads, symmetry {}, learning {})",
        args.usize_opt("procs", 3)?,
        budget(args, &model)?,
        args.usize_opt("k", 1)?,
        args.usize_opt("rounds", 1)?,
        points.len(),
        if opts.symmetry { "on" } else { "off" },
        if opts.learning { "on" } else { "off" },
    );
    let mut store_report = None;
    let results = if let Some(dir) = &store_dir {
        if resume && !std::path::Path::new(dir).is_dir() {
            return Err(ArgError(format!(
                "--resume: store directory `{dir}` does not exist"
            )));
        }
        let mut store = VerdictStore::open(dir)
            .map_err(|e| ArgError(format!("cannot open store `{dir}`: {e}")))?;
        if resume {
            println!("  resuming: {} verdicts on disk in {dir}", store.len());
        }
        let (results, report) = solvability_sweep_shared_store(&points, threads, opts, &mut store)
            .map_err(|e| ArgError(format!("store-backed sweep failed: {e}")))?;
        store_report = Some((report, store.len()));
        results
    } else if independent {
        // legacy per-point path: each point rebuilds its own canonical
        // ({0..k}) protocol complex
        solvability_sweep_opts(&points, threads, opts)
    } else {
        // amortized path: points differing only in k share one interned
        // complex + facet index, solved on the group domain {0..k_max}
        println!(
            "  (amortized: points sharing (model, n, f, r) reuse one complex over the \
             value domain {{0..k_max}}; pass --independent for per-point canonical domains)"
        );
        solvability_sweep_shared_opts(&points, threads, opts)
    };
    println!(
        "  {:>3} {:>3} {:>10} {:>8}  outcome",
        "k", "r", "vertices", "facets"
    );
    for ((k, rounds), res) in coords.iter().zip(&results) {
        println!(
            "  {:>3} {:>3} {:>10} {:>8}  {}",
            k,
            rounds,
            res.vertices,
            res.facets,
            if res.solvable {
                "solvable"
            } else {
                "NO decision map"
            }
        );
    }
    if let (Some((report, on_disk)), Some(dir)) = (store_report, &store_dir) {
        println!(
            "  store {dir}: {} groups, {} classes ({} structural-only)",
            report.groups, report.classes, report.inexact_keys
        );
        println!(
            "  store hits: {}   solver calls: {}   persisted: {}   on disk: {on_disk}",
            report.store_hits, report.solver_calls, report.persisted
        );
    }
    Ok(())
}

/// `psph conform` — the verdict-conformance harness: sweeps the grid
/// for verdicts, then executes the matching `ps-protocols` protocol on
/// every point. Exits nonzero on any FAIL (a Solvable point with a
/// violating execution) or UNBROKEN (an Impossible point with no
/// witness found).
fn conform(args: &Args) -> Result<(), ArgError> {
    let model = model_arg(args, &MODELS)?;
    let (_, points): (Vec<_>, Vec<_>) = grid_points(args, &model)?.into_iter().unzip();
    let threads = ps_topology::parallel::configured_threads();
    let opts = sweep_options(args)?;
    let defaults = ConformConfig::default();
    let cfg = ConformConfig {
        exhaustive_limit: args.usize_opt("limit", defaults.exhaustive_limit)?,
        random_schedules: args.usize_opt("schedules", defaults.random_schedules)?,
        input_limit: args.usize_opt("inputs", defaults.input_limit)?,
        seed: args.u64_opt("seed", defaults.seed)?,
    };
    println!(
        "{model} conformance: {} processes, k = 1..={}, r = 1..={} ({} points, {threads} threads, \
         schedule limit {}, seed {:#x})",
        args.usize_opt("procs", 3)?,
        args.usize_opt("k", 1)?,
        args.usize_opt("rounds", 1)?,
        points.len(),
        cfg.exhaustive_limit,
        cfg.seed,
    );
    let report = conformance_check(&points, threads, opts, &cfg);
    print!("{}", report.table());
    let (pass, wit, skip) = report.points.iter().fold((0, 0, 0), |(p, w, s), r| {
        use ps_agreement::PointOutcome::*;
        match r.outcome {
            Pass { .. } => (p + 1, w, s),
            Witness { .. } => (p, w + 1, s),
            Skipped { .. } => (p, w, s + 1),
            Fail { .. } | Unbroken { .. } => (p, w, s),
        }
    });
    if report.all_ok() {
        println!(
            "conformance: all {} points conform ({pass} PASS, {wit} WITNESS, {skip} SKIP)",
            report.points.len()
        );
        Ok(())
    } else {
        let bad = report.points.iter().filter(|p| !p.ok()).count();
        Err(ArgError(format!(
            "conformance: {bad} of {} points failed (FAIL or UNBROKEN above)",
            report.points.len()
        )))
    }
}

/// Parses one serve query line: `async K F N R`, `sync K F N R KPR`,
/// `semisync K F N R KPR P`, `byzantine K T N R`, or
/// `dynamic K N R <rooted|strong>`.
fn parse_query(line: &str) -> Result<SweepPoint, String> {
    let mut it = line.split_whitespace();
    let model = it.next().ok_or("empty query")?;
    let mut toks: Vec<&str> = it.collect();
    // a dynamic query ends in its graph family
    let family = match (model, toks.last()) {
        ("dynamic", Some(&fam)) => {
            toks.pop();
            match fam {
                "rooted" => Some(GraphFamily::Rooted),
                "strong" => Some(GraphFamily::StronglyConnected),
                other => return Err(format!("`{other}` is not a family (rooted | strong)")),
            }
        }
        _ => None,
    };
    let nums: Vec<usize> = toks
        .iter()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| format!("`{t}` is not a non-negative integer"))
        })
        .collect::<Result<_, _>>()?;
    let point = match (model, nums.as_slice(), family) {
        ("async", &[k, f, n, r], _) => SweepPoint::Async {
            k,
            f,
            n_plus_1: n,
            rounds: r,
        },
        ("sync", &[k, f, n, r, kpr], _) => SweepPoint::Sync {
            k,
            f,
            n_plus_1: n,
            k_per_round: kpr,
            rounds: r,
        },
        ("semisync", &[k, f, n, r, kpr, p], _) => SweepPoint::SemiSync {
            k,
            f,
            n_plus_1: n,
            k_per_round: kpr,
            microrounds: u32::try_from(p)
                .map_err(|_| format!("P = {p} exceeds {} microrounds", u32::MAX))?,
            rounds: r,
        },
        ("byzantine", &[k, t, n, r], _) => SweepPoint::Byzantine {
            k,
            t,
            n_plus_1: n,
            rounds: r,
        },
        ("dynamic", &[k, n, r], Some(family)) => SweepPoint::Dynamic {
            k,
            n_plus_1: n,
            family,
            rounds: r,
        },
        ("async", ..) => return Err("async expects `async K F N R`".into()),
        ("sync", ..) => return Err("sync expects `sync K F N R KPR`".into()),
        ("semisync", ..) => return Err("semisync expects `semisync K F N R KPR P`".into()),
        ("byzantine", ..) => return Err("byzantine expects `byzantine K T N R`".into()),
        ("dynamic", ..) => return Err("dynamic expects `dynamic K N R <rooted|strong>`".into()),
        (other, ..) => {
            return Err(format!(
                "unknown model `{other}` (valid: async, sync, semisync, byzantine, dynamic)"
            ))
        }
    };
    point.check()?;
    Ok(point)
}

/// One human-readable tag per query, echoed back with its verdict.
fn describe_query(p: &SweepPoint) -> String {
    match *p {
        SweepPoint::Async {
            k,
            f,
            n_plus_1,
            rounds,
        } => format!("async k={k} f={f} n={n_plus_1} r={rounds}"),
        SweepPoint::Sync {
            k,
            f,
            n_plus_1,
            k_per_round,
            rounds,
        } => format!("sync k={k} f={f} n={n_plus_1} r={rounds} kpr={k_per_round}"),
        SweepPoint::SemiSync {
            k,
            f,
            n_plus_1,
            k_per_round,
            microrounds,
            rounds,
        } => format!(
            "semisync k={k} f={f} n={n_plus_1} r={rounds} kpr={k_per_round} p={microrounds}"
        ),
        SweepPoint::Byzantine {
            k,
            t,
            n_plus_1,
            rounds,
        } => format!("byzantine k={k} t={t} n={n_plus_1} r={rounds}"),
        SweepPoint::Dynamic {
            k,
            n_plus_1,
            family,
            rounds,
        } => format!(
            "dynamic k={k} n={n_plus_1} r={rounds} family={}",
            family.name()
        ),
    }
}

/// Long-running query server over the verdict cache hierarchy: session
/// cache, persistent store (when `--store` is given), then the solver.
/// Queries arrive one per line (grammar in [`USAGE`]); a blank line
/// ends a batch, and each batch is answered — and its new verdicts
/// flushed to the store — before the next is read.
fn serve(args: &Args) -> Result<(), ArgError> {
    use std::io::BufRead as _;
    let opts = sweep_options(args)?;
    let threads = ps_topology::parallel::configured_threads();
    let store = match args.options.get("store") {
        Some(dir) => Some(
            VerdictStore::open(dir)
                .map_err(|e| ArgError(format!("cannot open store `{dir}`: {e}")))?,
        ),
        None => None,
    };
    match (&store, args.options.get("store")) {
        (Some(s), Some(dir)) => println!(
            "psph serve: {threads} threads, store {dir} ({} verdicts on disk)",
            s.len()
        ),
        _ => println!("psph serve: {threads} threads, no store (session cache only)"),
    }
    let reader: Box<dyn std::io::BufRead> = match args.options.get("input") {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path)
                .map_err(|e| ArgError(format!("cannot open --input `{path}`: {e}")))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    let mut engine = QueryEngine::new(threads, opts, store);
    let mut batch: Vec<SweepPoint> = Vec::new();
    let flush_batch =
        |engine: &mut QueryEngine, batch: &mut Vec<SweepPoint>| -> Result<(), ArgError> {
            if batch.is_empty() {
                return Ok(());
            }
            let answers = engine
                .answer_batch(batch)
                .map_err(|e| ArgError(format!("store flush failed: {e}")))?;
            for (q, a) in batch.iter().zip(&answers) {
                println!(
                    "{}: {}  [source={}, {}µs]",
                    describe_query(q),
                    if a.result.solvable {
                        "solvable"
                    } else {
                        "NO decision map"
                    },
                    a.source,
                    a.micros
                );
            }
            batch.clear();
            Ok(())
        };
    for line in reader.lines() {
        let line = line.map_err(|e| ArgError(format!("read error: {e}")))?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            flush_batch(&mut engine, &mut batch)?;
            continue;
        }
        match parse_query(line) {
            Ok(q) => batch.push(q),
            Err(e) => println!("parse error (line skipped): {e}"),
        }
    }
    flush_batch(&mut engine, &mut batch)?;
    let m = engine.metrics();
    println!("serve session: {} queries", m.queries);
    println!(
        "  session hits: {}   store hits: {}   solved: {}",
        m.session_hits, m.store_hits, m.solved
    );
    println!(
        "  solver calls: {}   key computations: {}   key skips: {}",
        m.solver_calls, m.key_computations, m.key_skips
    );
    println!(
        "  prepared builds: {}   reuses: {}   persisted: {}",
        m.prepared_builds, m.prepared_reuses, m.persisted
    );
    println!(
        "  latency: mean {}µs, max {}µs",
        m.mean_micros(),
        m.max_micros
    );
    Ok(())
}

/// `psph homology` — the sparse GF(2) homology engine, either on one
/// protocol complex (model mode) or differentially against the dense
/// oracle on a fixed + randomized corpus (corpus mode, the CI gate).
fn homology(args: &Args) -> Result<(), ArgError> {
    let mode = model_arg(args, &[&MODELS[..], &["corpus"]].concat())?;
    if mode == "corpus" {
        homology_corpus(args)
    } else {
        homology_model(args, &mode)
    }
}

/// Model mode: build the protocol complex as an interned `IdComplex`
/// (no label materialization), run [`ps_topology::PreparedBoundary`],
/// and print Betti numbers plus the engine's work counters and timings
/// — the entry point of the CI bench-regression smoke and the
/// EXPERIMENTS.md E20 scaling table.
fn homology_model(args: &Args, model: &str) -> Result<(), ArgError> {
    use ps_topology::PreparedBoundary;
    use std::time::Instant;

    let f = args.usize_opt("f", 1)?;
    let k = args.usize_opt("k", 1)?;
    let rounds = args.usize_opt("rounds", 1)?;
    let point = point_from_args(args, model, k, rounds)?;
    // Same value domain as the sweeps: k-set agreement over {0..=k}.
    let values: BTreeSet<u64> = (0..=k as u64).collect();

    let t0 = Instant::now();
    let parts = point.shared_key().task_parts(&values);
    let t_build = t0.elapsed();
    let oracle = args.flag("oracle").then(|| match &parts {
        TaskParts::Viewed(pool, id) => dense_oracle_timed(pool, id),
        TaskParts::SsViewed(pool, id) => dense_oracle_timed(pool, id),
    });
    let id = parts.into_complex();

    let t_prepare = Instant::now();
    let mut pb = PreparedBoundary::of_id_complex(&id);
    let t_prepare = t_prepare.elapsed();

    // enumerates each dimension's basis on first need, then reduces
    let t_reduce = Instant::now();
    let betti = pb.betti_mod2();
    let t_reduce = t_reduce.elapsed();

    // Warm re-query: every reduction is cached, so this measures pure
    // cache-hit latency (the incremental-sweep case).
    let t_warm = Instant::now();
    let betti_warm = pb.betti_mod2();
    let t_warm = t_warm.elapsed();
    debug_assert_eq!(betti, betti_warm);

    let budget = match model {
        "byzantine" | "dynamic" => budget(args, model)?,
        _ => format!("f = {f} (k/round = {})", k.max(1).min(f.max(1))),
    };
    let n = args.usize_opt("procs", 3)?;
    println!("{model} protocol complex: {n} processes, {budget}, k = {k}, r = {rounds}");
    println!(
        "  f-vector: {:?}  ({} vertices, {} facets)",
        pb.f_vector(),
        id.vertex_count(),
        id.facet_count()
    );
    println!("  Euler characteristic: {}", pb.euler_characteristic());
    println!("  reduced mod-2 Betti numbers: {betti:?}");
    let conn = match pb.homological_connectivity() {
        i32::MAX => "∞ (all reduced mod-2 homology vanishes)".to_string(),
        q => q.to_string(),
    };
    println!("  homological connectivity (mod 2): {conn}");
    println!("  coboundary columns assembled: {}", pb.assembled_columns());
    println!("  reduction work: {}", pb.stats());
    println!(
        "  time: complex {:.3}s, prepare {:.3}s, reduce {:.3}s, warm re-query {:.6}s",
        t_build.as_secs_f64(),
        t_prepare.as_secs_f64(),
        t_reduce.as_secs_f64(),
        t_warm.as_secs_f64()
    );
    if let Some((dense, t_dense)) = oracle {
        let verdict = if dense == betti { "agree" } else { "MISMATCH" };
        println!("  dense oracle: {dense:?} in {t_dense:.3}s — {verdict}");
        if dense != betti {
            return Err(ArgError("sparse engine disagrees with dense oracle".into()));
        }
    }
    Ok(())
}

/// Materializes the labelled complex and times the dense-oracle path
/// (`Homology::betti_mod2_dense`) — the E20 baseline column. Cubic;
/// only sensible for small instances (n ≤ 4).
fn dense_oracle_timed<V: Label>(
    pool: &ps_topology::VertexPool<V>,
    id: &ps_topology::IdComplex,
) -> (Vec<usize>, f64) {
    use ps_topology::Homology;
    let c = Complex::from_interned(pool, id);
    let t = std::time::Instant::now();
    let b = Homology::betti_mod2_dense(&c);
    (b, t.elapsed().as_secs_f64())
}

/// One corpus entry: sparse engine vs dense oracle vs the Euler
/// invariant. Returns the table row and whether all three agree.
fn corpus_row<V: Label>(name: &str, c: &Complex<V>) -> (String, bool) {
    use ps_topology::Homology;
    let sparse = Homology::betti_mod2(c);
    let dense = Homology::betti_mod2_dense(c);
    // Reduced homology: χ = 1 + Σ_d (−1)^d b̃_d for non-void complexes.
    let chi: i64 = 1 + sparse
        .iter()
        .enumerate()
        .map(|(d, &b)| if d % 2 == 0 { b as i64 } else { -(b as i64) })
        .sum::<i64>();
    let euler_ok = c.dim() < 0 || chi == c.euler_characteristic();
    let ok = sparse == dense && euler_ok;
    let verdict = match (sparse == dense, euler_ok) {
        (true, true) => "ok",
        (false, _) => "MISMATCH",
        (true, false) => "EULER MISMATCH",
    };
    let row = format!(
        "{name:<34} {:>3} {:<22} {:<22} {verdict}",
        c.dim(),
        format!("{sparse:?}"),
        format!("{dense:?}")
    );
    (row, ok)
}

/// Corpus mode: fixed topological fixtures, protocol complexes (n ≤ 4),
/// and LCG-randomized small complexes, each pushed through both the
/// sparse engine (`Homology::betti_mod2`) and the dense oracle
/// (`Homology::betti_mod2_dense`) and diffed byte-for-byte. Exits
/// nonzero on any disagreement — the CI homology-equivalence job runs
/// this under `PS_THREADS=1` and the default thread count.
fn homology_corpus(args: &Args) -> Result<(), ArgError> {
    use ps_agreement::{
        async_task_complex, semisync_task_complex, sync_task_complex, KSetAgreement,
    };
    use ps_topology::Simplex;

    let trials = args.usize_opt("trials", 32)?;
    let seed = args.u64_opt("seed", 0xC0FFEE)?;
    let s = |vs: &[u32]| Simplex::from_iter(vs.iter().copied());

    println!("homology corpus: sparse engine vs dense oracle");
    println!(
        "{:<34} {:>3} {:<22} {:<22} verdict",
        "complex", "dim", "betti (sparse)", "betti (dense)"
    );

    let mut rows: Vec<(String, bool)> = Vec::new();

    // Fixed fixtures with known homology.
    let fixed: Vec<(&str, Complex<u32>)> = vec![
        ("void", Complex::from_facets(Vec::<Simplex<u32>>::new())),
        ("point", Complex::from_facets([s(&[0])])),
        ("two points", Complex::from_facets([s(&[0]), s(&[7])])),
        (
            "solid simplex Δ⁴",
            Complex::simplex(Simplex::from_iter(0u32..5)),
        ),
        (
            "circle S¹",
            Complex::from_facets([s(&[0, 1]), s(&[1, 2]), s(&[0, 2])]),
        ),
        (
            "sphere S²",
            Complex::simplex(Simplex::from_iter(0u32..4)).skeleton(2),
        ),
        (
            "sphere S³",
            Complex::simplex(Simplex::from_iter(0u32..5)).skeleton(3),
        ),
        (
            "sphere S⁴",
            Complex::simplex(Simplex::from_iter(0u32..6)).skeleton(4),
        ),
        ("wedge of two circles", {
            Complex::from_facets([
                s(&[0, 1]),
                s(&[1, 2]),
                s(&[0, 2]),
                s(&[0, 3]),
                s(&[3, 4]),
                s(&[0, 4]),
            ])
        }),
        ("wedge of two spheres", {
            let a = Complex::simplex(Simplex::from_iter(0u32..4)).skeleton(2);
            let b = Complex::simplex(Simplex::from_iter([0u32, 4, 5, 6])).skeleton(2);
            let facets: Vec<Simplex<u32>> = a.facets().chain(b.facets()).cloned().collect();
            Complex::from_facets(facets)
        }),
        ("torus T² (Möbius, 7 vertices)", {
            let mut facets = Vec::new();
            for i in 0u32..7 {
                facets.push(Simplex::from_iter([i, (i + 1) % 7, (i + 3) % 7]));
                facets.push(Simplex::from_iter([i, (i + 2) % 7, (i + 3) % 7]));
            }
            Complex::from_facets(facets)
        }),
        ("projective plane RP²₆", {
            let rp2: [[u32; 3]; 10] = [
                [1, 2, 5],
                [1, 2, 6],
                [1, 3, 4],
                [1, 3, 6],
                [1, 4, 5],
                [2, 3, 4],
                [2, 3, 5],
                [2, 4, 6],
                [3, 5, 6],
                [4, 5, 6],
            ];
            Complex::from_facets(rp2.iter().map(|f| Simplex::from_iter(f.iter().copied())))
        }),
        ("disconnected (triangle + edge)", {
            Complex::from_facets([s(&[0, 1, 2]), s(&[4, 5])])
        }),
    ];
    for (name, c) in &fixed {
        rows.push(corpus_row(name, c));
    }

    // Protocol complexes, n ≤ 4 (small enough for the dense oracle).
    let k1 = KSetAgreement::canonical(1);
    let k2 = KSetAgreement::canonical(2);
    rows.push(corpus_row(
        "sync n=3 f=1 k=1 r=1",
        &sync_task_complex(&k1, 3, 1, 1, 1),
    ));
    rows.push(corpus_row(
        "sync n=3 f=1 k=1 r=2",
        &sync_task_complex(&k1, 3, 1, 1, 2),
    ));
    rows.push(corpus_row(
        "sync n=4 f=2 k=2 r=1",
        &sync_task_complex(&k2, 4, 2, 2, 1),
    ));
    rows.push(corpus_row(
        "async n=3 f=1 r=1",
        &async_task_complex(&k1, 3, 1, 1),
    ));
    rows.push(corpus_row(
        "semisync n=3 f=1 k=1 p=2 r=1",
        &semisync_task_complex(&k1, 3, 1, 1, 2, 1),
    ));

    // LCG-randomized small complexes: facets are random subsets of
    // up to 8 vertices, sizes 1..=4 — the same shape as the proptest
    // strategy in tests/homology_sparse_equivalence.rs.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for t in 0..trials {
        let n_facets = 1 + (next() as usize) % 8;
        let mut facets = Vec::with_capacity(n_facets);
        for _ in 0..n_facets {
            let size = 1 + (next() as usize) % 4;
            let verts: BTreeSet<u32> = (0..size).map(|_| (next() % 8) as u32).collect();
            facets.push(Simplex::from_iter(verts));
        }
        let c = Complex::from_facets(facets);
        rows.push(corpus_row(&format!("random #{t} (seed {seed:#x})"), &c));
    }

    let mut failures = 0usize;
    for (row, ok) in &rows {
        println!("{row}");
        if !ok {
            failures += 1;
        }
    }
    println!("{} complexes checked, {} mismatches", rows.len(), failures);
    if failures > 0 {
        return Err(ArgError(format!(
            "homology corpus: {failures} sparse/dense disagreements"
        )));
    }
    Ok(())
}

/// `--procs` (default `procs`) and `--k` of `simulate` and `stretch`,
/// each at least 1.
fn procs_and_k(args: &Args, procs: usize) -> Result<(usize, usize), ArgError> {
    match (args.usize_opt("procs", procs)?, args.usize_opt("k", 1)?) {
        (0, _) => Err(ArgError("--procs must be at least 1, got 0".into())),
        (_, 0) => Err(ArgError("k-set agreement needs k ≥ 1, got 0".into())),
        n_and_k => Ok(n_and_k),
    }
}

/// `--c1/--c2/--d` (defaults 1, `c2`, `d`) as checked [`TimedParams`].
fn timed_params(args: &Args, c2: u64, d: u64) -> Result<TimedParams, ArgError> {
    let c1 = args.u64_opt("c1", 1)?;
    let c2 = args.u64_opt("c2", c2)?;
    let d = args.u64_opt("d", d)?;
    if c1 == 0 || c2 < c1 || d == 0 {
        return Err(ArgError(format!(
            "timing needs 0 < c1 ≤ c2 and d > 0, got c1 = {c1}, c2 = {c2}, d = {d}"
        )));
    }
    Ok(TimedParams::new(c1, c2, d))
}

fn simulate(args: &Args) -> Result<(), ArgError> {
    let (n, k) = procs_and_k(args, 4)?;
    let f = args.usize_opt("f", 1)?;
    let seeds = args.u64_opt("seeds", 100)?;
    let proto = KSetFlood::optimal_sync(f, k);
    let inputs: Vec<u64> = (0..n as u64).collect();
    println!(
        "FloodSet: {n} processes, f = {f}, k = {k}, rounds = {} ; {seeds} random adversaries",
        proto.rounds
    );
    let mut violations = 0usize;
    for seed in 0..seeds {
        let exec = SyncExecutor::new(proto, n, f);
        let mut adv = RandomAdversary::new(seed, f, 0.7);
        let trace = exec.run(&inputs, &mut adv, proto.rounds + 1);
        if !trace.satisfies_k_agreement(k) || !trace.satisfies_termination(n) {
            violations += 1;
        }
    }
    println!(
        "  agreement + termination held in {}/{} runs{}",
        seeds as usize - violations,
        seeds,
        if violations == 0 { " ✓" } else { " ✗" }
    );
    Ok(())
}

fn stretch(args: &Args) -> Result<(), ArgError> {
    let (n, k) = procs_and_k(args, 3)?;
    let params = timed_params(args, 4, 8)?;
    let TimedParams { c1, c2, d } = params;
    if args.flag("timeline") {
        let trace = stretch_trace(n, k, params);
        let ticks_per_col = (trace.end_time() / 72).max(1);
        println!("stretch execution timeline (. step, @ delivery, D decide, x crash):\n");
        println!("{}", trace.timeline(n, ticks_per_col));
    }
    let outcome = stretch_experiment(n, k, params);
    println!("Corollary 22 stretch: {n} processes, k = {k}, c1 = {c1}, c2 = {c2}, d = {d}");
    println!("  lower bound ⌊f/k⌋·d + C·d = {:.1} ticks", outcome.bound);
    println!(
        "  stretched survivor decided at {} ticks",
        outcome.decision_time
    );
    println!(
        "  failure-free run finished at {} ticks",
        outcome.failure_free_time
    );
    println!(
        "  bound {}",
        if outcome.respects_bound() {
            "respected ✓"
        } else {
            "VIOLATED ✗"
        }
    );
    Ok(())
}

/// Heavy-traffic throughput run on the unified scheduler: `--n`
/// processes gossiping under the chosen timing policy until
/// `--messages` deliveries, with the always-on invariant checks
/// (chronology, FIFO per channel, delivery accounting) active
/// throughout. `--crashes C` crashes the C highest-numbered processes
/// on a staggered schedule.
fn traffic(args: &Args) -> Result<(), ArgError> {
    let n = args.usize_opt("n", 100)?;
    if n < 2 {
        return Err(ArgError("--n must be at least 2".into()));
    }
    if n > MAX_PROCESSES {
        return Err(ArgError(format!(
            "--n must be at most {MAX_PROCESSES} (the scheduler's process bound), got {n}"
        )));
    }
    let messages = args.u64_opt("messages", 1_000_000)?;
    let seed = args.u64_opt("seed", 0)?;
    let crashes = args.usize_opt("crashes", 0)?;
    if crashes + 2 > n {
        return Err(ArgError(format!(
            "--crashes must leave at least two processes alive (n = {n})"
        )));
    }
    let params = timed_params(args, 2, 4)?;
    let TimedParams { c1, c2, d } = params;
    let horizon = args.u64_opt("horizon", 10_000_000)?;
    let which = args.str_opt("policy", "semisync");
    let protocol = args.str_opt("protocol", "gossip");
    const PROTOCOLS: [&str; 3] = ["gossip", "floodset", "bv"];
    if !PROTOCOLS.contains(&protocol.as_str()) {
        return Err(ArgError(format!(
            "unknown protocol `{protocol}` (valid protocols: {})",
            PROTOCOLS.join(", ")
        )));
    }
    let cut = args.u64_opt("cut", 2 * d)?;
    let crash_map: std::collections::BTreeMap<ProcessId, u64> = (0..crashes)
        .map(|i| (ProcessId((n - 1 - i) as u32), 5 + 7 * i as u64))
        .collect();

    const ALL: [&str; 3] = ["sync", "semisync", "async"];
    let policies: Vec<&str> = match which.as_str() {
        "all" => ALL.to_vec(),
        p => match ALL.iter().find(|x| **x == p) {
            Some(p) => vec![p],
            None => {
                return Err(ArgError(format!(
                    "--policy expects sync|semisync|async|all, got `{p}`"
                )))
            }
        },
    };
    println!(
        "traffic: {n} processes, target {messages} messages, seed {seed}, \
         {crashes} crash(es), c1 = {c1}, c2 = {c2}, d = {d}"
    );
    for name in policies {
        let mut adv = RandomTimedAdversary::new(seed, crash_map.clone());
        let mut pol: Box<dyn TimingPolicy + '_> = match name {
            "sync" => Box::new(SyncPolicy::new(&mut adv)),
            "semisync" => Box::new(SemisyncPolicy::new(&mut adv, params)),
            _ => Box::new(AsyncPolicy::new(&mut adv, params)),
        };
        let (report, observed): (TrafficReport, Option<String>) = match protocol.as_str() {
            "gossip" => (traffic_run(n, messages, pol.as_mut(), horizon), None),
            "floodset" => {
                let proto = TimedKSetFlood::optimal(crashes, 1);
                let inputs: Vec<u64> = (0..n as u64).collect();
                let (r, s) =
                    observed_traffic(&proto, &inputs, messages, pol.as_mut(), horizon, cut);
                (r, Some(s))
            }
            _ => {
                let proto = Rounds::new(BvConsensus::new(), BvConsensus::rounds_needed(crashes));
                let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
                let (r, s) =
                    observed_traffic(&proto, &inputs, messages, pol.as_mut(), horizon, cut);
                (r, Some(s))
            }
        };
        println!(
            "  [{:>8}] delivered {} (dropped {}), {} steps, {} crashes; \
             end time {} ticks; {:.2e} events/sec ({:.2?}); invariants {}",
            report.policy,
            report.delivered,
            report.dropped,
            report.steps,
            report.crashes,
            report.end_time,
            report.events_per_sec(),
            report.elapsed,
            if report.invariants_ok {
                "OK"
            } else {
                "VIOLATED"
            }
        );
        if let Some(summary) = observed {
            println!("  [{:>8}] {summary}", report.policy);
        }
        if report.delivered < messages && report.end_time >= horizon {
            println!(
                "  [{:>8}] note: horizon {horizon} reached before the message target",
                report.policy
            );
        }
    }
    Ok(())
}

/// Runs a real protocol as the traffic workload with vector-clock and
/// Chandy–Lamport snapshot observers attached; returns the report and
/// a one-line observer summary.
fn observed_traffic<P: TimedProtocol>(
    proto: &P,
    inputs: &[P::Input],
    messages: u64,
    policy: &mut dyn TimingPolicy,
    horizon: u64,
    cut: u64,
) -> (TrafficReport, String) {
    let mut vc = VectorClockObserver::new();
    let mut cl = ChandyLamportObserver::new(cut);
    let report = {
        let mut multi = MultiObserver {
            observers: vec![&mut vc, &mut cl],
        };
        traffic_run_protocol(proto, inputs, messages, policy, horizon, Some(&mut multi))
    };
    let snapshot_ok = cl.finalize();
    let summary = format!(
        "observers: {} deliveries clocked, happens-before {}; snapshot at t={cut}: \
         {} channels, conservation {}",
        vc.deliveries(),
        if vc.consistent() { "OK" } else { "VIOLATED" },
        cl.cuts().len(),
        if snapshot_ok { "OK" } else { "VIOLATED" },
    );
    (report, summary)
}

fn chain(args: &Args) -> Result<(), ArgError> {
    use ps_agreement::{sync_task_complex, KSetAgreement};
    use ps_models::View;
    use ps_topology::Simplex;

    let n = args.usize_opt("procs", 3)?;
    if n != 3 {
        return Err(ArgError("chain demo currently supports --procs 3".into()));
    }
    let task = KSetAgreement::canonical(1);
    let complex = sync_task_complex(&task, 3, 1, 1, 1);
    let ff = |vals: [u64; 3]| -> Simplex<View<u64>> {
        let ins: Vec<View<u64>> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| View::Input {
                process: ProcessId(i as u32),
                input: *v,
            })
            .collect();
        Simplex::new(
            (0..3u32)
                .map(|q| View::Round {
                    process: ProcessId(q),
                    heard: ins.iter().map(|v| (v.process(), v.clone())).collect(),
                })
                .collect(),
        )
    };
    let zero = ff([0, 0, 0]);
    let one = ff([1, 1, 1]);
    match indistinguishability_chain(&complex, &zero, &one, 1) {
        Some(links) => {
            println!(
                "indistinguishability chain from all-0 to all-1 one-round\n\
                 synchronous consensus executions ({} links):\n",
                links.len()
            );
            for (i, link) in links.iter().enumerate() {
                println!("  {i:>2}: {link:?}");
            }
            println!(
                "\nvalidity pins the endpoints to decisions 0 and 1, but every\n\
                 link shares a process view — so no 1-round consensus protocol\n\
                 can exist (the §1 chain argument, extracted as a witness)."
            );
        }
        None => println!("no chain — the complex is disconnected at this degree"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct values whose Debug forms collide — the worst case for
    /// label export.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Colliding(u32, u32);

    impl std::fmt::Debug for Colliding {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "v{}", self.0) // drops the second coordinate
        }
    }

    #[test]
    fn injective_labels_disambiguates_debug_collisions() {
        use ps_topology::Simplex;
        let mut c = Complex::new();
        // v0 ~ Colliding(0, _) collides three ways; v1 is unique
        c.add_simplex(Simplex::new(vec![Colliding(0, 0), Colliding(0, 1)]));
        c.add_simplex(Simplex::new(vec![Colliding(0, 2), Colliding(1, 0)]));
        let labeled = injective_labels(&c);
        // injective: no vertices merged by the relabeling
        assert_eq!(labeled.vertex_count(), c.vertex_count());
        let labels = labeled.vertex_set();
        assert!(labels.contains("v1"), "unique label stays bare: {labels:?}");
        for l in &labels {
            assert!(
                l == "v1" || l.starts_with("v0#"),
                "colliding labels disambiguated: {l}"
            );
        }
    }
}
