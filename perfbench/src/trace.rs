//! Spans and counters for the traced run, recorded from the benchmark's
//! own code around each call into a layer's public functions.
//!
//! A span's name is `<layer>.<what>`, so its layer is the part before
//! the dot; `bench.*` spans are the benchmark's own glue. Each worker
//! job of [`Tracer::par_map`] records into a buffer of its own, and the
//! buffers are appended to the caller's in job-index order — the merge
//! rule of `ps_topology::parallel::parallel_map` — so span order and
//! every counter total are independent of the thread count.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The layers spans are attributed to, in report order.
pub const LAYERS: [&str; 9] = [
    "models",
    "solver",
    "symmetry",
    "store",
    "serve",
    "homology",
    "conform",
    "sched",
    "protocols",
];

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Spans of one sweep group, query item or traffic run share this id
    /// (0 for spans outside any).
    pub group: u32,
    /// Start, measured from the trace's origin.
    pub start: Duration,
    /// End, measured from the trace's origin.
    pub end: Duration,
    /// Index of the enclosing span in the merged buffer.
    pub parent: Option<usize>,
    /// Time this call spent on work that the trace also replays, and
    /// times, on its own (an opaque call's inner sweep, or the
    /// scheduler run under an observer); it is not this span's self time.
    pub replayed: Duration,
}

/// A span buffer plus the counters recorded beside it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Parent (in the caller's buffer) of this buffer's top-level spans.
    root_parent: Option<usize>,
    group: u32,
    /// Deterministic work counters, by metric name.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self::child(Instant::now(), None, 0)
    }

    fn child(origin: Instant, root_parent: Option<usize>, group: u32) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            root_parent,
            group,
            counters: BTreeMap::new(),
        }
    }

    /// Sets the group id of the spans recorded from now on.
    pub fn set_group(&mut self, group: u32) {
        self.group = group;
    }

    /// Times `f` as a span named `name`; spans `f` records are its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_replayed(name, |t| (f(t), Duration::ZERO))
    }

    /// [`Self::span`] for a call whose result includes how much of its
    /// time went to work replayed elsewhere in the trace.
    pub fn span_replayed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, Duration),
    ) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            group: self.group,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent,
            replayed: Duration::ZERO,
        });
        self.open.push(idx);
        let (out, replayed) = f(self);
        self.open.pop();
        let span = &mut self.spans[idx];
        span.end = self.origin.elapsed();
        span.replayed = replayed;
        out
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: usize) {
        *self.counters.entry(name).or_default() += n as u64;
    }

    /// `parallel_map` with one span buffer per job, merged by job index.
    pub fn par_map<T: Sync, O: Send>(
        &mut self,
        items: &[T],
        threads: usize,
        f: impl Fn(&mut Tracer, usize, &T) -> O + Sync,
    ) -> Vec<O> {
        let (origin, parent, group) = (self.origin, self.open.last().copied(), self.group);
        let done = ps_topology::parallel::parallel_map(items, threads, |i, item| {
            let mut t = Tracer::child(origin, parent, group);
            let out = f(&mut t, i, item);
            (out, t)
        });
        done.into_iter()
            .map(|(out, t)| {
                self.append(t);
                out
            })
            .collect()
    }

    fn append(&mut self, other: Tracer) {
        debug_assert!(other.open.is_empty(), "a job ended inside a span");
        let offset = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => other.root_parent,
            };
            self.spans.push(s);
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover, minus the time it reports as replayed elsewhere.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(Duration, Duration)> = kids
                    .iter()
                    .map(|&c| {
                        let k = &self.spans[c];
                        (k.start.max(s.start), k.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start)
                    .saturating_sub(covered)
                    .saturating_sub(s.replayed)
            })
            .collect()
    }

    /// Sum of self times per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, d) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_default() += d.as_secs_f64();
        }
        out
    }

    /// Sum of whole durations (children included) per span name.
    pub fn total_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += (s.end - s.start).as_secs_f64();
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, d)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\
                 \"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9}}}",
                s.name,
                s.group,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                d.as_secs_f64()
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}
