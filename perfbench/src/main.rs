//! The benchmark of the verdict pipeline and the unified scheduler.
//!
//! ```text
//! perfbench --workload construct|search|connectivity|execute
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs batches of the workload back to back (a
//! closed loop with one client) for about `S` seconds, tracing off, and
//! prints the end-to-end metrics. Before each batch it sets up: it
//! generates the batch's inputs and warms the pipeline on a small grid.
//! With `--trace 1` it sets up, runs one untraced batch, then replays
//! the batch traced three times (2, 2 and 1 pipeline threads), checks
//! that every replay answers as the untraced batch and that every work
//! counter repeats, and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. NOTES.md explains the
//! workloads and what each metric should move.

mod grids;
mod replay;
mod sys;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use trace::{layer_of, Tracer, LAYERS};
use workloads::{Batch, Inputs, Workload};

/// Pipeline threads: the machine the baseline was measured on has two
/// cores, and fixing the count keeps results comparable across hosts.
const THREADS: usize = 2;

/// Set-ups before each batch. `setup_s` is the median of all set-ups
/// of a run, so, like `wall_s`, it is sampled across the whole run.
const SETUPS_PER_BATCH: usize = 5;

/// Counters that legitimately depend on the thread count: the store
/// sweep flushes one segment per chunk of `threads` classes, so segment
/// headers, and with them the bytes on disk, scale with it.
const THREAD_DEPENDENT: [&str; 1] = ["store.disk_bytes"];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        raw.insert(key.to_string(), value);
    }
    let get = |k: &str| raw.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?.clone();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    if let Some(extra) = raw
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{extra}"));
    }
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints as its last line.
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload construct|search|connectivity|execute \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    ps_topology::parallel::set_threads(Some(THREADS));
    // Working directories go next to the executable, inside the build directory.
    let exe = std::env::current_exe().expect("path of the running executable");
    let out_dir = exe
        .parent()
        .expect("executable has a directory")
        .to_path_buf();
    let work = out_dir.join(format!("perfbench-work-{}", std::process::id()));
    let outcome = if args.trace {
        traced(&args, &work, &out_dir)
    } else {
        untraced(&args, &work)
    };
    remove_if_present(&work);
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let failed = outcome.failures.len().min(outcome.attempted);
    println!(
        "  error_rate {} ratio ({failed} of {} operations failed)",
        failed as f64 / outcome.attempted as f64,
        outcome.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted,
        metrics.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// What the set-ups before one batch produced.
struct Setup {
    /// The last set-up's inputs.
    inputs: Inputs,
    /// Each set-up's time.
    times: Vec<f64>,
    /// Warm-up operations over the set-ups.
    attempted: usize,
    /// Failed warm-up operations.
    failures: Vec<String>,
}

/// Set-up, [`SETUPS_PER_BATCH`] times: generate the workload's inputs,
/// then warm its pipeline ([`workloads::warm_up`]). Store directories
/// are fresh paths that `VerdictStore::open` creates inside the timed
/// pass, as it does for a user's first `--store DIR`.
fn timed_setup(workload: Workload, seed: u64) -> Setup {
    let mut times = Vec::with_capacity(SETUPS_PER_BATCH);
    let mut last = None;
    let (mut attempted, mut failures) = (0, Vec::new());
    for i in 0..SETUPS_PER_BATCH {
        let t = Instant::now();
        let inputs = Inputs::of(workload);
        let (ops, failed) = workloads::warm_up(workload, THREADS, seed);
        times.push(t.elapsed().as_secs_f64());
        attempted += ops;
        failures.extend(failed.into_iter().map(|f| format!("set-up {i}: {f}")));
        last = Some(inputs);
    }
    Setup {
        inputs: last.expect("at least one set-up"),
        times,
        attempted,
        failures,
    }
}

/// Removes `dir` and everything in it, if it exists.
fn remove_if_present(dir: &Path) {
    if dir.exists() {
        fs::remove_dir_all(dir).expect("remove a store directory");
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn banner(args: &Args) {
    let seed_note = if args.workload.seeded() {
        "drives the conformance schedules and the traffic adversaries"
    } else {
        "unused: this workload has no randomness"
    };
    println!(
        "perfbench {}: {THREADS} pipeline threads; host: {} cores, {}; seed {} ({seed_note})",
        args.name,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sys::cpu_model(),
        args.seed
    );
}

/// The end-to-end run: closed-loop batches for about `--seconds`, each
/// after its set-ups.
fn untraced(args: &Args, work: &Path) -> Outcome {
    banner(args);
    let store_of = |i: usize| work.join(format!("store-{i}"));
    let started = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut cpus: Vec<f64> = Vec::new();
    let mut phases: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rates: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    loop {
        let i = walls.len();
        if i > 0 {
            remove_if_present(&store_of(i - 1));
        }
        let setup = timed_setup(args.workload, args.seed);
        setups.extend(&setup.times);
        attempted += setup.attempted;
        failures.extend(
            setup
                .failures
                .into_iter()
                .map(|f| format!("batch {i}, {f}")),
        );
        let inputs = setup.inputs;
        let (t, cpu) = (Instant::now(), sys::cpu_s());
        let batch = workloads::run(args.workload, &inputs, THREADS, args.seed, &store_of(i));
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(sys::cpu_s() - cpu);
        attempted += workloads::attempted(args.workload);
        failures.extend(
            workloads::failures(args.workload, &batch)
                .into_iter()
                .map(|f| format!("batch {i}: {f}")),
        );
        for (name, s) in batch.phases {
            phases.entry(name).or_default().push(s);
        }
        for (name, events, s) in batch.rates {
            rates.entry(name).or_default().push(events as f64 / s);
        }
        let next = started.elapsed().as_secs_f64()
            + median(&mut walls.clone())
            + SETUPS_PER_BATCH as f64 * median(&mut setups.clone());
        if next > args.seconds {
            break;
        }
    }
    let batches = walls.len();
    let walls_line: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    let wall_s = median(&mut walls);
    let setup_s = median(&mut setups.clone());
    let peak_rss_mb = sys::peak_rss_mb();
    println!(
        "  {batches} batches in {:.3} s; medians over batches:",
        started.elapsed().as_secs_f64()
    );
    println!("  wall_s {wall_s} s (batches: {} s)", walls_line.join(", "));
    println!(
        "  cpu_s {} s (process CPU time per batch)",
        median(&mut cpus)
    );
    let setups_line: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "  setup_s {setup_s} s (inputs and warm-up; set-ups: {} s)",
        setups_line.join(", ")
    );
    println!("  peak_rss_mb {peak_rss_mb} MB");
    for (name, mut xs) in phases {
        println!("  {name} {} s", median(&mut xs));
    }
    for (name, mut xs) in rates {
        println!("  {name} {} 1/s", median(&mut xs));
    }
    Outcome {
        attempted,
        failures,
        metrics: vec![
            metric("wall_s", wall_s, "s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ],
    }
}

/// One traced replay and what it measured.
struct Replay {
    tracer: Tracer,
    wall: Duration,
    threads: usize,
}

/// The traced run: one untraced batch, then three traced replays.
fn traced(args: &Args, work: &Path, out_dir: &Path) -> Outcome {
    banner(args);
    let untraced_dir = work.join("store-untraced");
    let Setup {
        inputs,
        attempted,
        mut failures,
        ..
    } = timed_setup(args.workload, args.seed);

    let cpu = sys::cpu_s();
    let t = Instant::now();
    let batch: Batch = workloads::run(args.workload, &inputs, THREADS, args.seed, &untraced_dir);
    let wall_untraced = t.elapsed();
    let cpu = sys::cpu_s() - cpu;
    failures.extend(workloads::failures(args.workload, &batch));

    let mut replays: Vec<Replay> = Vec::new();
    for (i, threads) in [THREADS, THREADS, 1].into_iter().enumerate() {
        let dir = work.join(format!("store-replay-{i}"));
        let mut tracer = Tracer::new();
        let t = Instant::now();
        let (answers, errors) = tracer.span("bench.batch", |tr| {
            let dirs = (dir.as_path(), untraced_dir.as_path());
            replay::run(args.workload, &inputs, threads, args.seed, dirs, &batch, tr)
        });
        let wall = t.elapsed();
        if answers != batch.answers {
            failures.push(format!(
                "replay {i} ({threads} threads) answers differ from the untraced batch:\n  \
                 untraced {:?}\n  traced   {answers:?}",
                batch.answers
            ));
        }
        failures.extend(errors.into_iter().map(|e| format!("replay {i}: {e}")));
        replays.push(Replay {
            tracer,
            wall,
            threads,
        });
    }
    let first = &replays[0];
    for other in &replays[1..] {
        let cross_threads = other.threads != first.threads;
        let names: BTreeSet<&&str> = first
            .tracer
            .counters
            .keys()
            .chain(other.tracer.counters.keys())
            .collect();
        let differs: Vec<String> = names
            .into_iter()
            .filter(|k| !(cross_threads && THREAD_DEPENDENT.contains(k)))
            .filter(|k| first.tracer.counters.get(*k) != other.tracer.counters.get(*k))
            .map(|k| {
                format!(
                    "{k}: {:?} vs {:?}",
                    first.tracer.counters.get(k),
                    other.tracer.counters.get(k)
                )
            })
            .collect();
        if !differs.is_empty() {
            failures.push(format!(
                "counters at {} threads differ from {} threads: {}",
                other.threads,
                first.threads,
                differs.join(", ")
            ));
        }
    }
    let spans_path = out_dir.join(format!("perfbench-spans-{}.jsonl", args.name));
    match first.tracer.write_jsonl(&spans_path) {
        Ok(()) => println!("  spans: {}", spans_path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", spans_path.display()),
    }
    let metrics = layer_metrics(
        &first.tracer,
        first.wall.as_secs_f64(),
        wall_untraced.as_secs_f64(),
        cpu,
    );
    println!(
        "  untraced batch {:.3} s; traced replays {:.3} s, {:.3} s, {:.3} s (threads {}, {}, {})",
        wall_untraced.as_secs_f64(),
        replays[0].wall.as_secs_f64(),
        replays[1].wall.as_secs_f64(),
        replays[2].wall.as_secs_f64(),
        replays[0].threads,
        replays[1].threads,
        replays[2].threads,
    );
    let mut shares: Vec<(&str, f64)> = LAYERS
        .into_iter()
        .zip(layer_selves(&first.tracer))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = shares.iter().map(|s| s.1).sum();
    let table: Vec<String> = shares
        .iter()
        .filter(|s| s.1 > 0.0)
        .map(|(l, s)| format!("{l} {:.1} %", 100.0 * s / total))
        .collect();
    println!("  self-time shares: {}", table.join(", "));
    for m in &metrics {
        println!("  {} {} {}", m.name, m.value, m.unit);
    }
    Outcome {
        attempted: attempted + workloads::attempted(args.workload),
        failures,
        metrics,
    }
}

/// Self time per layer, in [`LAYERS`] order.
fn layer_selves(t: &Tracer) -> Vec<f64> {
    let own = t.self_by_name();
    LAYERS
        .iter()
        .map(|layer| {
            own.iter()
                .filter(|(name, _)| layer_of(name) == *layer)
                .fold(0.0, |acc, (_, s)| acc + s)
        })
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced replay, in `BENCHMARK.json` order.
fn layer_metrics(t: &Tracer, traced_wall: f64, untraced_wall: f64, cpu: f64) -> Vec<Metric> {
    let own = t.self_by_name();
    let total = t.total_by_name();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
    let layer_self = layer_selves(t);
    let build_s = s("models.build");
    let mut out = vec![
        metric("models.build_s", build_s, "s"),
        metric("models.builds", c("models.builds"), "count"),
        metric("models.vertices", c("models.vertices"), "count"),
        metric("models.facets", c("models.facets"), "count"),
        metric(
            "models.facets_per_s",
            ratio(c("models.facets"), build_s),
            "1/s",
        ),
        metric("solver.prepare_s", s("solver.prepare"), "s"),
        metric("solver.search_s", s("solver.search"), "s"),
        metric("solver.calls", c("solver.calls"), "count"),
        metric("solver.assignments", c("solver.assignments"), "count"),
        metric("solver.backtracks", c("solver.backtracks"), "count"),
        metric("solver.prunings", c("solver.prunings"), "count"),
        metric("solver.backjumps", c("solver.backjumps"), "count"),
        metric(
            "solver.learned_nogoods",
            c("solver.learned_nogoods"),
            "count",
        ),
        metric("solver.orbit_skips", c("solver.orbit_skips"), "count"),
        metric(
            "solver.backtrack_ratio",
            ratio(c("solver.backtracks"), c("solver.assignments")),
            "ratio",
        ),
        metric("symmetry.certify_s", s("symmetry.certify"), "s"),
        metric(
            "symmetry.kept_ratio",
            ratio(c("symmetry.kept"), c("symmetry.certified")),
            "ratio",
        ),
        metric("symmetry.canon_s", s("symmetry.canon"), "s"),
        metric("symmetry.canon_calls", c("symmetry.canon_calls"), "count"),
        metric(
            "symmetry.canon_exact_ratio",
            ratio(c("symmetry.canon_exact"), c("symmetry.canon_calls")),
            "ratio",
        ),
        metric("symmetry.key_s", s("symmetry.key"), "s"),
        metric("store.open_s", s("store.open"), "s"),
        metric("store.get_s", s("store.get"), "s"),
        metric("store.flush_s", s("store.flush"), "s"),
        metric("store.hits", c("store.hits"), "count"),
        metric("store.misses", c("store.misses"), "count"),
        metric("store.persisted", c("store.persisted"), "count"),
        metric(
            "store.hit_ratio",
            ratio(c("store.hits"), c("store.hits") + c("store.misses")),
            "ratio",
        ),
        metric("store.disk_bytes", c("store.disk_bytes"), "bytes"),
        metric("store.skipped_records", c("store.skipped_records"), "count"),
        metric(
            "serve.batch_s",
            total.get("serve.batch").copied().unwrap_or(0.0),
            "s",
        ),
        metric("serve.session_hits", c("serve.session_hits"), "count"),
        metric("serve.store_hits", c("serve.store_hits"), "count"),
        metric("serve.solver_calls", c("serve.solver_calls"), "count"),
        metric("serve.prepared_builds", c("serve.prepared_builds"), "count"),
        metric("serve.key_skips", c("serve.key_skips"), "count"),
        metric("homology.prepare_s", s("homology.prepare"), "s"),
        metric("homology.reduce_s", s("homology.reduce"), "s"),
        metric("homology.columns", c("homology.columns"), "count"),
        metric(
            "homology.cleared_ratio",
            ratio(c("homology.cleared"), c("homology.reduced_columns")),
            "ratio",
        ),
        metric("homology.additions", c("homology.additions"), "count"),
        metric("homology.word_xors", c("homology.word_xors"), "count"),
        metric("conform.exec_s", s("conform.exec"), "s"),
        metric("conform.points", c("conform.points"), "count"),
        metric("conform.executions", c("conform.executions"), "count"),
        metric("conform.pass", c("conform.pass"), "count"),
        metric("conform.witness", c("conform.witness"), "count"),
        metric("sched.run_s", s("sched.run"), "s"),
        metric("sched.events", c("sched.events"), "count"),
        metric("sched.delivered", c("sched.delivered"), "count"),
        metric("sched.dropped", c("sched.dropped"), "count"),
        metric("sched.steps", c("sched.steps"), "count"),
        metric(
            "sched.drop_ratio",
            ratio(
                c("sched.dropped"),
                c("sched.delivered") + c("sched.dropped"),
            ),
            "ratio",
        ),
        metric("protocols.observer_s", s("protocols.observe"), "s"),
        metric(
            "protocols.deliveries_clocked",
            c("protocols.deliveries_clocked"),
            "count",
        ),
        metric(
            "protocols.cut_channels",
            c("protocols.cut_channels"),
            "count",
        ),
        metric("parallel.threads", THREADS as f64, "count"),
        metric("parallel.cpu_s", cpu, "s"),
        metric(
            "parallel.utilization",
            ratio(cpu, untraced_wall * THREADS as f64),
            "ratio",
        ),
    ];
    const SELF_NAMES: [&str; 9] = [
        "models.self_s",
        "solver.self_s",
        "symmetry.self_s",
        "store.self_s",
        "serve.self_s",
        "homology.self_s",
        "conform.self_s",
        "sched.self_s",
        "protocols.self_s",
    ];
    for (name, v) in SELF_NAMES.iter().zip(&layer_self) {
        out.push(metric(name, *v, "s"));
    }
    out.push(metric("trace.overhead_s", traced_wall - untraced_wall, "s"));
    out.push(metric(
        "trace.coverage",
        ratio(layer_self.iter().sum(), traced_wall),
        "ratio",
    ));
    out
}
